"""Independent brute-force oracles used to freeze expected values.

Everything here works on plain tuples and dicts, never on the package's own
chain machinery, so a bug cannot hide on both sides of an assertion. The three
exceptions, ``minimal_normal_subgroups_all_closures``,
``semiregular_per_element`` and ``chain_products``, are reference
copies of earlier package algorithms that a later one must reproduce byte
for byte.
"""

from __future__ import annotations

import itertools


def compose_t(a: tuple, b: tuple) -> tuple:
    """Apply a, then b."""
    return tuple(b[a[i]] for i in range(len(a)))


def cycle_lengths_t(a: tuple) -> list[int]:
    """Cycle lengths by pointer chasing, fixed points included."""
    seen = [False] * len(a)
    out = []
    for start in range(len(a)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            length += 1
            j = a[j]
        out.append(length)
    return sorted(out)


def is_semiregular_t(a: tuple) -> bool:
    lengths = cycle_lengths_t(a)
    return len(set(lengths)) == 1


def closure_t(gens: list[tuple]) -> set[tuple]:
    """Full element set of <gens> by breadth-first multiplication."""
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose_t(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def orbit_t(gens: list[tuple], v: int) -> set[int]:
    out = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = g[p]
                if q not in out:
                    out.add(q)
                    nxt.append(q)
        frontier = nxt
    return out


def orbits_t(gens: list[tuple], n: int) -> list[frozenset]:
    seen = set()
    parts = []
    for v in range(n):
        if v in seen:
            continue
        orb = frozenset(orbit_t(gens, v))
        seen |= orb
        parts.append(orb)
    return parts


def is_automorphism_t(edges: set[frozenset], a: tuple) -> bool:
    """True iff the image under a of every edge is an edge."""
    return {frozenset(a[v] for v in e) for e in edges} == edges


def arc_orbit_size_t(arcs: list[tuple[int, int]], gens: list[tuple], arc: tuple) -> int:
    """Size of the orbit of ``arc`` under ``gens``, by a set search over
    (u, w) pairs; raises ValueError when a generator maps an arc off ``arcs``."""
    arc_set = set(arcs)
    orbit = {arc}
    frontier = [arc]
    while frontier:
        u, w = frontier.pop()
        for g in gens:
            image = (g[u], g[w])
            if image not in arc_set:
                raise ValueError(f"{image} is not an arc")
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return len(orbit)


def s_arcs_t(edges: set[frozenset], n: int, s: int, starts=None) -> list[tuple]:
    """Every s-arc (v0, ..., vs) with v0 in ``starts`` (default: every
    vertex), by filtering all vertex sequences: consecutive vertices
    adjacent, and v(i+1) != v(i-1)."""
    out = []
    for v0 in range(n) if starts is None else starts:
        for rest in itertools.product(range(n), repeat=s):
            arc = (v0,) + rest
            if all(frozenset(e) in edges for e in zip(arc, rest)) and all(
                arc[i - 1] != arc[i + 1] for i in range(1, s)
            ):
                out.append(arc)
    return out


def networkx_graph(g):
    """A package ``Graph`` as a ``networkx.Graph`` on the same vertices."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def adjacency_t(n: int, edges) -> tuple[list[int], list[int]]:
    """CSR (indptr, indices) of a simple graph from vertex pairs, by a set of
    unordered edges and sorted neighbour lists."""
    pairs = {(min(u, w), max(u, w)) for u, w in edges}
    nbrs = [[] for _ in range(n)]
    for u, w in pairs:
        nbrs[u].append(w)
        nbrs[w].append(u)
    indptr = [0]
    for row in nbrs:
        indptr.append(indptr[-1] + len(row))
    return indptr, [w for row in nbrs for w in sorted(row)]


def sparse6_edges_t(n: int, payload: bytes) -> list[tuple[int, int]]:
    """Edges of a sparse6 payload (the bytes after the size header), decoded
    record by record as the format describes it."""
    bits = [(c - 63) >> t & 1 for c in payload for t in range(5, -1, -1)]
    k = max(1, (n - 1).bit_length())
    edges = []
    v = 0
    i = 0
    while i + k < len(bits):
        b = bits[i]
        x = int("".join(map(str, bits[i + 1 : i + 1 + k])), 2)
        i += 1 + k
        v += b
        if x >= n or v >= n:
            break
        if x > v:
            v = x
        else:
            edges.append((x, v))
    return edges


def random_permutation_t(rng, n: int) -> tuple:
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def random_group_t(rng, max_degree: int, max_order: int):
    """A random small permutation group as (degree, gens, element set)."""
    while True:
        n = rng.randrange(3, max_degree + 1)
        k = rng.randrange(1, 4)
        gens = [random_permutation_t(rng, n) for _ in range(k)]
        elements = set()
        frontier = [tuple(range(n))]
        elements.add(frontier[0])
        ok = True
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = compose_t(x, g)
                    if y not in elements:
                        if len(elements) >= max_order:
                            ok = False
                            break
                        elements.add(y)
                        nxt.append(y)
                if not ok:
                    break
            if not ok:
                break
            frontier = nxt
        if ok:
            return n, gens, elements


def minimal_normal_subgroups_all_closures(g):
    """``group.minimal_normal_subgroups`` as it was before closures were
    dropped unverified: every closure is verified, then one pass in order of
    size (a stable sort) keeps each that contains none kept before it. No
    result is stored on ``g``. Returns the kept subgroups' generators as
    lists of image arrays."""
    from semireg.group import StabilizerChain, _prime_order_classes, _row_keys
    from semireg.perm import is_identity_images

    n = g.degree
    elements, classes = _prime_order_classes(g)
    class_of = {}
    for c, cls in enumerate(classes):
        class_of.update(dict.fromkeys(_row_keys(elements[cls]).tolist(), c))
    closures = []
    for c, cls in enumerate(classes):
        x = elements[cls[0]]
        y = x[x]
        while not is_identity_images(y) and class_of[y.tobytes()] >= c:
            y = x[y]
        if not is_identity_images(y):
            continue
        chain = StabilizerChain([], n)
        sel, deepest = chain._adjoin(elements[cls])
        chain._schreier_sims(deepest)
        closures.append((chain.order, sel, chain))
    closures.sort(key=lambda t: t[0])
    minimal = []
    for _, sel, chain in closures:
        if not any(chain.contains_array(kept[0]) for kept in minimal):
            minimal.append(sel)
    return minimal


def semiregular_per_element(grp):
    """``engine._semiregular_elements`` as it was before elements were
    scanned in blocks: one ``Permutation`` at a time from
    ``PermGroup.elements``. Yields every nontrivial semiregular element
    after its place in the walk, counting from 1."""
    for count, el in enumerate(grp.elements(), 1):
        if not el.is_identity() and el.is_semiregular():
            yield count, el


def chain_products(chain):
    """``StabilizerChain.iter_elements`` as it was before the element walk
    was built from blocks: every product of one transversal rep per level
    of ``chain``, as image arrays one at a time, built by recursion over the
    levels. The rep of the first level is applied last and varies fastest."""
    import numpy as np

    from semireg.group import _reps

    ident = np.arange(chain.degree, dtype=np.int64)
    reps_per_level = [_reps(lv) for lv in chain.levels]

    def rec(i):
        if i == len(reps_per_level):
            yield ident
            return
        for h in rec(i + 1):
            for rep in reps_per_level[i]:
                yield rep[h]

    return rec(0)
