"""Finite simple undirected graphs and the constructions built on them.

Graphs are immutable CSR adjacency structures. The constructions here are
coset graphs with their right-multiplication actions, quotients by vertex
partitions, standard double covers, local graphs, triangle search, density
closure and s-arc sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .group import (
    DEFAULT_BOUND,
    PermGroup,
    PreconditionError,
    StabilizerChain,
    coset_action,
    coset_key,
    is_subgroup,
    normalizer,
    normalizes,
    partition_index,
)
from .perm import Permutation

_INT = np.int64

# largest index [G:H] for which coset_graph enumerates the cosets
COSET_INDEX_BOUND = 5000


class Graph:
    """Simple undirected graph: no loops, no multi-edges, sorted adjacency."""

    __slots__ = ("n", "indptr", "indices", "_hash")

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        pairs = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            pairs.add((min(u, v), max(u, v)))
        adj = [[] for _ in range(n)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.indptr = np.zeros(n + 1, dtype=_INT)
        for v in range(n):
            adj[v].sort()
            self.indptr[v + 1] = self.indptr[v] + len(adj[v])
        self.indices = np.array(
            [w for nbrs in adj for w in nbrs] or [], dtype=_INT
        )
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self._hash = None

    @classmethod
    def from_adjacency(cls, adj) -> "Graph":
        edges = [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v]
        g = cls(len(adj), edges)
        for u, nbrs in enumerate(adj):
            if sorted(set(nbrs)) != list(g.neighbors(u)):
                raise ValueError("adjacency lists are not symmetric")
        return g

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def num_edges(self) -> int:
        return int(self.indices.size // 2)

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < nbrs.size and int(nbrs[i]) == v

    def edges(self):
        for u in range(self.n):
            for w in self.neighbors(u):
                if u < w:
                    yield (u, int(w))

    def valency(self) -> int | None:
        """Common degree if the graph is regular, else None."""
        degs = self.degrees()
        if self.n == 0 or not np.all(degs == degs[0]):
            return None
        return int(degs[0])

    def is_connected(self) -> bool:
        return self.component_count() == 1

    def component_count(self) -> int:
        seen = np.zeros(self.n, dtype=bool)
        count = 0
        for s in range(self.n):
            if seen[s]:
                continue
            count += 1
            stack = [s]
            seen[s] = True
            while stack:
                v = stack.pop()
                for w in self.neighbors(v):
                    if not seen[w]:
                        seen[w] = True
                        stack.append(int(w))
        return count

    def is_bipartite(self) -> bool:
        color = np.full(self.n, -1, dtype=np.int8)
        for s in range(self.n):
            if color[s] >= 0:
                continue
            color[s] = 0
            stack = [s]
            while stack:
                v = stack.pop()
                for w in self.neighbors(v):
                    if color[w] < 0:
                        color[w] = 1 - color[v]
                        stack.append(int(w))
                    elif color[w] == color[v]:
                        return False
        return True

    def girth(self) -> int | None:
        """Length of a shortest cycle, or None for a forest."""
        best = None
        for root in range(self.n):
            dist = np.full(self.n, -1, dtype=_INT)
            parent = np.full(self.n, -1, dtype=_INT)
            dist[root] = 0
            queue = [root]
            head = 0
            while head < len(queue):
                v = queue[head]
                head += 1
                if best is not None and dist[v] * 2 >= best:
                    break
                for w in self.neighbors(v):
                    w = int(w)
                    if dist[w] < 0:
                        dist[w] = dist[v] + 1
                        parent[w] = v
                        queue.append(w)
                    elif w != parent[v]:
                        cand = int(dist[v] + dist[w] + 1)
                        if best is None or cand < best:
                            best = cand
        return best

    def is_automorphism(self, p: Permutation) -> bool:
        if p.degree != self.n:
            return False
        arr = p.images
        for v in range(self.n):
            image_nbrs = np.sort(arr[self.neighbors(v)])
            if not np.array_equal(image_nbrs, self.neighbors(int(arr[v]))):
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.n, self.indptr.tobytes(), self.indices.tobytes())
            )
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def local_graph(g: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the neighbourhood of v, plus the label map.

    Vertex i of the result is labels[i] in g.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    nbrs = tuple(int(x) for x in g.neighbors(v))
    if not nbrs:
        raise PreconditionError(f"vertex {v} is isolated")
    pos = {w: i for i, w in enumerate(nbrs)}
    edges = [
        (pos[u], pos[int(w)])
        for u in nbrs
        for w in g.neighbors(u)
        if int(w) in pos and u < int(w)
    ]
    return Graph(len(nbrs), edges), nbrs


def has_triangle(g: Graph) -> tuple[int, int, int] | None:
    """A triangle witness (u, v, w) or None."""
    out = _kernels.triangle_witness(g.indptr, g.indices)
    if out[0] < 0:
        return None
    return (int(out[0]), int(out[1]), int(out[2]))


def quotient_graph(g: Graph, partition) -> Graph:
    """Vertices are classes; classes are adjacent iff some edge joins them.

    Edges inside a class are dropped (no loops); use
    ``has_intra_class_edges`` to detect that they existed.
    """
    classes, class_index = partition_index(partition, g.n)
    edges = set()
    for u, w in g.edges():
        cu, cw = int(class_index[u]), int(class_index[w])
        if cu != cw:
            edges.add((min(cu, cw), max(cu, cw)))
    return Graph(len(classes), edges)


def has_intra_class_edges(g: Graph, partition) -> bool:
    _, class_index = partition_index(partition, g.n)
    return any(class_index[u] == class_index[w] for u, w in g.edges())


def standard_double_cover(g: Graph) -> Graph:
    """Vertex (v, i) is index 2v+i; (u,i) ~ (v,1-i) iff u ~ v."""
    edges = []
    for u, w in g.edges():
        edges.append((2 * u, 2 * w + 1))
        edges.append((2 * u + 1, 2 * w))
    return Graph(2 * g.n, edges)


def lift_to_double_cover(p: Permutation) -> Permutation:
    """The automorphism (v,i) -> (p(v),i) of the standard double cover."""
    n = p.degree
    arr = np.empty(2 * n, dtype=_INT)
    arr[0::2] = 2 * p.images
    arr[1::2] = 2 * p.images + 1
    return Permutation._wrap(arr)


def double_cover_swap(n: int) -> Permutation:
    """The automorphism (v,i) -> (v,1-i) of the standard double cover."""
    arr = np.empty(2 * n, dtype=_INT)
    arr[0::2] = np.arange(n) * 2 + 1
    arr[1::2] = np.arange(n) * 2
    return Permutation._wrap(arr)


def density_closure(g: Graph, seed_set) -> tuple[frozenset, bool]:
    """Smallest superset of seed_set closed under "two neighbours inside".

    Returns (closure, is_dense) where is_dense means the closure is all of
    V. Raises ``PreconditionError`` for an empty seed set or a vertex
    outside the graph.
    """
    seed = [int(v) for v in seed_set]
    if not seed:
        raise PreconditionError("seed set must be nonempty")
    mask = np.zeros(g.n, dtype=np.uint8)
    for v in seed:
        if not 0 <= v < g.n:
            raise PreconditionError(f"vertex {v} out of range 0..{g.n - 1}")
        mask[v] = 1
    out = _kernels.density_closure_mask(g.indptr, g.indices, mask, 0)
    closure = frozenset(int(x) for x in np.flatnonzero(out))
    return closure, len(closure) == g.n


# -- coset graphs ----------------------------------------------------------


@dataclass(frozen=True, repr=False)
class CosetGraphBundle:
    """A coset graph together with the data that built it.

    Vertices are right cosets Hx (vertex 0 is H itself), two cosets Hx, Hy
    adjacent iff x * y^-1 lies in the double coset of the defining element;
    ``acting_group`` is the right-multiplication action of the source group
    on coset indices.
    """

    graph: Graph
    acting_group: PermGroup
    coset_reps: tuple[Permutation, ...]
    subgroup_order: int
    normalizer_order: int
    generates: bool
    group: PermGroup = field(compare=False)
    subgroup: PermGroup = field(compare=False)
    element: Permutation = field(compare=False)
    _coset_index: dict = field(compare=False)

    def __repr__(self) -> str:
        return (
            f"CosetGraphBundle(n={self.graph.n}, "
            f"valency={self.graph.valency()}, |H|={self.subgroup_order})"
        )

    def coset_of(self, x: Permutation) -> int:
        """Index of the coset Hx."""
        index = self._coset_index.get(coset_key(self.subgroup.chain(), x))
        if index is None:
            raise ValueError("element is not in the group")
        return index


def coset_graph(g: PermGroup, h: PermGroup, elem: Permutation) -> CosetGraphBundle:
    """Build the coset graph of (G, H, H elem H) with its G-action.

    Preconditions checked: H <= G, elem in G, elem^2 in H, elem outside
    N_G(H), index within ``COSET_INDEX_BOUND`` and |G| within
    ``DEFAULT_BOUND`` (the normalizer scan enumerates G). Connectivity is
    verified to coincide with <H, elem> = G and recorded, not assumed.
    """
    if not is_subgroup(h, g):
        raise PreconditionError("H is not a subgroup of G")
    if not g.contains(elem):
        raise PreconditionError("element is not in G")
    if not h.chain().contains(elem * elem):
        raise PreconditionError("element squared is not in H")
    if normalizes(elem, h):
        raise PreconditionError("element normalizes H")
    index = g.order() // h.order()
    if index > COSET_INDEX_BOUND:
        raise PreconditionError(f"index {index} exceeds bound {COSET_INDEX_BOUND}")
    if g.order() > DEFAULT_BOUND:
        raise PreconditionError(
            f"group order {g.order()} exceeds bound {DEFAULT_BOUND} "
            "for normalizer scan"
        )

    reps, coset_index, action = coset_action(g, h)
    if len(reps) != index:
        raise RuntimeError("coset enumeration mismatch (internal error)")
    acting_group = PermGroup(action, index)

    # neighbours of the base coset: cosets H*elem*h for h in H
    h_chain = h.chain()
    base_nbrs = {
        coset_index[coset_key(h_chain, elem * hh)] for hh in h.elements()
    }
    base_nbrs.discard(0)

    # close the base star under the action
    edges = set()
    queue = [(0, w) for w in sorted(base_nbrs)]
    seen = set(queue)
    while queue:
        u, w = queue.pop()
        edges.add((min(u, w), max(u, w)))
        for a in acting_group.generators:
            nxt = (a(u), a(w))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    graph = Graph(index, edges)

    expected_valency = len(base_nbrs)
    if graph.valency() != expected_valency:
        raise RuntimeError("coset graph is not regular (internal error)")

    generated = StabilizerChain(
        [x.images for x in list(h.generators) + [elem]], g.degree
    )
    generates = generated.order == g.order()
    if generates != graph.is_connected():
        raise RuntimeError(
            "connectivity disagrees with <H, elem> = G (internal error)"
        )

    norm = normalizer(g, h).order()

    return CosetGraphBundle(
        graph=graph,
        acting_group=acting_group,
        coset_reps=tuple(reps),
        subgroup_order=h.order(),
        normalizer_order=norm,
        generates=generates,
        group=g,
        subgroup=h,
        element=elem,
        _coset_index=coset_index,
    )


def left_mult_automorphism(bundle: CosetGraphBundle, x: Permutation) -> Permutation:
    """The vertex map Hy -> H x^-1 y for x in the normalizer of H.

    Always commutes with the right-multiplication action, is nontrivial iff
    x is outside H, and the group of all such maps acts semiregularly. It
    preserves the edge set exactly when conjugation by x fixes the defining
    double coset (e.g. on complete instances); otherwise it is an
    isomorphism onto the coset graph of the conjugated double coset.
    """
    if not normalizes(x, bundle.subgroup):
        raise PreconditionError("element is not in the normalizer of H")
    x_inv = x.inverse()
    n = len(bundle.coset_reps)
    img = np.empty(n, dtype=_INT)
    for i, rep in enumerate(bundle.coset_reps):
        img[i] = bundle.coset_of(x_inv * rep)
    perm = Permutation(img)
    for gen in bundle.acting_group.generators:
        if perm * gen != gen * perm:
            raise RuntimeError("left multiplication fails to commute (internal)")
    return perm


# -- arc machinery ----------------------------------------------------------


def check_automorphisms(g: Graph, grp: PermGroup) -> None:
    """Raise ``PreconditionError`` unless grp acts on g's vertices by
    automorphisms: equal degree, and every generator an automorphism."""
    if grp.degree != g.n:
        raise PreconditionError("group degree does not match vertex count")
    for gen in grp.generators:
        if not g.is_automorphism(gen):
            raise PreconditionError(f"generator {gen!r} is not an automorphism")


def is_arc_transitive(g: Graph, grp: PermGroup) -> bool:
    """True iff the orbit of one arc under grp covers all n*valency arcs."""
    check_automorphisms(g, grp)
    if g.valency() is None:
        return False
    if g.indices.size == 0:
        return False
    heads = np.repeat(np.arange(g.n, dtype=_INT), np.diff(g.indptr))
    size = _kernels.arc_orbit_size(
        g.indptr, g.indices, heads, grp.gen_arrays(), 0
    )
    return int(size) == int(g.indices.size)


def _arc_extension_counts(g: Graph, s: int) -> list[np.ndarray]:
    """counts[t][e] = number of ways to extend directed edge e by t steps."""
    ne = g.indices.size
    heads = np.repeat(np.arange(g.n, dtype=_INT), np.diff(g.indptr))
    counts = [np.ones(ne, dtype=np.float64)]
    # float64 is exact here: desk-scale extension counts stay far below 2^53
    for _ in range(s - 1):
        prev = counts[-1]
        nxt = np.zeros(ne, dtype=np.float64)
        for e in range(ne):
            u = int(heads[e])
            v = int(g.indices[e])
            total = 0.0
            for f in range(int(g.indptr[v]), int(g.indptr[v + 1])):
                if int(g.indices[f]) != u:
                    total += prev[f]
            nxt[e] = total
        counts.append(nxt)
    return counts


def s_arcs(g: Graph, s: int, sample: int = 100, seed: int = 0) -> list[tuple[int, ...]]:
    """s-arcs of g: exhaustive if at most ``sample`` exist, else uniform draws.

    An s-arc is a walk (v_0,...,v_s) with consecutive vertices adjacent and
    no immediate backtracking. Sampling is exactly uniform via extension
    counts, deterministic under ``seed``.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    ne = g.indices.size
    if ne == 0:
        return []
    heads = np.repeat(np.arange(g.n, dtype=_INT), np.diff(g.indptr))
    counts = _arc_extension_counts(g, s)
    total = counts[s - 1].sum()
    out: list[tuple[int, ...]] = []
    if total <= sample:
        # exhaustive DFS in lexicographic vertex order
        def extend(path: list[int]) -> None:
            if len(path) == s + 1:
                out.append(tuple(path))
                return
            u, v = path[-2], path[-1]
            for w in g.neighbors(v):
                if int(w) != u:
                    extend(path + [int(w)])

        for e in range(ne):
            extend([int(heads[e]), int(g.indices[e])])
        return out

    rng = np.random.default_rng(seed)
    weights = counts[s - 1] / total
    for _ in range(sample):
        e = int(rng.choice(ne, p=weights))
        path = [int(heads[e]), int(g.indices[e])]
        for t in range(s - 1):
            remaining = s - 1 - t
            u, v = path[-2], path[-1]
            options = []
            w_opts = []
            for f in range(int(g.indptr[v]), int(g.indptr[v + 1])):
                if int(g.indices[f]) != u:
                    options.append(f)
                    w_opts.append(counts[remaining - 1][f])
            w_opts = np.array(w_opts)
            f = options[int(rng.choice(len(options), p=w_opts / w_opts.sum()))]
            path.append(int(g.indices[f]))
        out.append(tuple(path))
    return out


def is_s_arc(g: Graph, seq) -> bool:
    seq = [int(v) for v in seq]
    if len(seq) < 2:
        return False
    for a, b in zip(seq, seq[1:]):
        if not g.has_edge(a, b):
            return False
    return all(seq[i - 1] != seq[i + 1] for i in range(1, len(seq) - 1))
