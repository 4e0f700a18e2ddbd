"""Finite simple undirected graphs and the constructions built on them.

Graphs are immutable CSR adjacency structures. The constructions here are
coset graphs with their right-multiplication actions, quotients by vertex
partitions, standard double covers, local graphs, triangle search and
density closure; the arc checks test that a group acts by automorphisms and
transitively on arcs. Constructions read the CSR arrays, not edge by edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .group import (
    PermGroup,
    PreconditionError,
    StabilizerChain,
    coset_action,
    coset_key,
    is_subgroup,
    normalizes,
    partition_index,
)
from .perm import Permutation

_INT = np.int64

# largest index [G:H] for which coset_graph enumerates the cosets
COSET_INDEX_BOUND = 5000


class Graph:
    """Simple undirected graph: no loops, no multi-edges, sorted adjacency."""

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, n: int, edges):
        """``edges`` is an (m, 2) array or any iterable of vertex pairs;
        repeated and reversed pairs collapse to one edge."""
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=_INT)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be vertex pairs, got shape {pairs.shape}")
        u, w = pairs[:, 0], pairs[:, 1]
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n or (u == w).any()):
            bad = (u == w) | (np.minimum(u, w) < 0) | (np.maximum(u, w) >= n)
            u0, w0 = (int(x) for x in pairs[np.argmax(bad)])
            if u0 == w0:
                raise ValueError(f"loop at vertex {u0}")
            raise ValueError(f"edge ({u0},{w0}) out of range")
        # arc (u, w) has key u * n + w, so sorted keys are the CSR order;
        # repeats are dropped by hand: np.unique imports numpy.ma on first
        # use, and tests/test_hygiene.py::test_no_numpy_unique keeps it out
        keys = np.sort(np.concatenate((u * n + w, w * n + u)))
        keep = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        sources, self.indices = np.divmod(keys[keep], n)
        self.n = n
        self.indptr = np.searchsorted(sources, np.arange(n + 1, dtype=_INT)).astype(_INT)
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

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
        return len(_kernels.orbits(self.indptr, self.indices))

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

    def arc_sources(self) -> np.ndarray:
        """The source vertex of each arc, in the CSR order of ``indices``."""
        return np.repeat(np.arange(self.n, dtype=_INT), np.diff(self.indptr))

    def is_automorphism(self, p: Permutation) -> bool:
        if p.degree != self.n:
            return False
        # arc (u, w) has key u * n + w; CSR order already sorts the keys
        sources, arr = self.arc_sources(), p.images
        images = np.sort(arr[sources] * self.n + arr[self.indices])
        return np.array_equal(images, sources * self.n + self.indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

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
    class_u = class_index[g.arc_sources()]
    class_w = class_index[g.indices]
    between = class_u != class_w
    return Graph(len(classes), np.column_stack((class_u[between], class_w[between])))


def has_intra_class_edges(g: Graph, partition) -> bool:
    _, class_index = partition_index(partition, g.n)
    return bool(np.any(class_index[g.arc_sources()] == class_index[g.indices]))


def standard_double_cover(g: Graph) -> Graph:
    """Vertex (v, i) is index 2v+i; (u,i) ~ (v,1-i) iff u ~ v."""
    # arc (u, w) gives (u,0) ~ (w,1); the reverse arc gives (u,1) ~ (w,0)
    return Graph(2 * g.n, np.column_stack((2 * g.arc_sources(), 2 * g.indices + 1)))


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


def coset_graph_connected(g: PermGroup, h: PermGroup, elem: Permutation) -> bool:
    """True iff <H, elem> = G, which is when the coset graph of
    (G, H, H elem H) is connected."""
    generated = StabilizerChain(
        [x.images for x in list(h.generators) + [elem]], g.degree
    )
    return generated.order == g.order()


def coset_graph(g: PermGroup, h: PermGroup, elem: Permutation) -> CosetGraphBundle:
    """Build the coset graph of (G, H, H elem H) with its G-action.

    Preconditions checked: H <= G, elem in G, elem^2 in H, elem outside
    N_G(H) and index within ``COSET_INDEX_BOUND``. The cosets that H fixes
    by right multiplication are the cosets of N_G(H), and the base coset's
    neighbours are the H-orbit of H elem, so neither G nor H is enumerated.
    The edges come from one breadth-first walk over the cosets, in which a
    generator first taking coset u to v maps N(u) onto N(v). Connectivity is
    verified to coincide with <H, elem> = G and recorded, not assumed.
    """
    if not is_subgroup(h, g):
        raise PreconditionError("H is not a subgroup of G")
    if not g.contains(elem):
        raise PreconditionError("element is not in G")
    if not h.contains(elem * elem):
        raise PreconditionError("element squared is not in H")
    if normalizes(elem, h):
        raise PreconditionError("element normalizes H")
    index = g.order() // h.order()
    if index > COSET_INDEX_BOUND:
        raise PreconditionError(f"index {index} exceeds bound {COSET_INDEX_BOUND}")

    reps, coset_index, action = coset_action(g, h)
    if len(reps) != index:
        raise RuntimeError("coset enumeration mismatch (internal error)")
    acting_group = PermGroup(action, index)

    # right multiplication by each generator of H, on coset indices
    h_chain = h.chain()
    h_action = np.array(
        [[coset_index[coset_key(h_chain, r * s)] for r in reps] for s in h.generators],
        dtype=_INT,
    )
    fixed = int(np.sum(np.all(h_action == np.arange(index), axis=0)))

    # neighbours of the base coset: the cosets H*elem*y for y in H, the
    # H-orbit of H*elem
    start = coset_index[coset_key(h_chain, elem)]
    base_nbrs = np.flatnonzero(_kernels.orbit_mask(h_action, start))

    # walk the cosets breadth first from coset 0: a generator a that first
    # reaches v from u gives N(v) = a(N(u)), as a preserves the orbital
    stars = [base_nbrs] + [None] * (index - 1)
    queue = [0]
    for u in queue:
        for a in action:
            v = a(u)
            if stars[v] is None:
                stars[v] = a.images[stars[u]]
                queue.append(v)
    sources = np.repeat(np.arange(index, dtype=_INT), base_nbrs.size)
    graph = Graph(index, np.column_stack((sources, np.concatenate(stars))))

    if graph.valency() != base_nbrs.size:
        raise RuntimeError("coset graph is not regular (internal error)")

    generates = coset_graph_connected(g, h, elem)
    if generates != graph.is_connected():
        raise RuntimeError("connectivity disagrees with <H, elem> = G (internal error)")

    return CosetGraphBundle(
        graph=graph,
        acting_group=acting_group,
        coset_reps=tuple(reps),
        subgroup_order=h.order(),
        normalizer_order=h.order() * fixed,
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


# -- arc checks ------------------------------------------------------------


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
    size = _kernels.arc_orbit_size(
        g.indptr, g.indices, g.arc_sources(), grp.gen_arrays(), 0
    )
    return int(size) == int(g.indices.size)
