"""Concrete graph/group families: projective linear actions on the projective
line, the prime-valency coset graphs built from them, Praeger-Xu graphs
C(p,r,s) with their rotation, the complete graph K12 with M11 acting, and
deterministic corpus generation of connected arc-transitive graphs of valency
twice a prime.

``_validated`` checks every corpus instance once; constructors check only
their own claims (orders, valency) and the embedded M11 data.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .graphs import (
    CosetGraphBundle,
    Graph,
    complete_graph,
    coset_graph,
    double_cover_swap,
    is_arc_transitive,
    lift_to_double_cover,
    quotient_graph,
    standard_double_cover,
)
from .group import (
    PermGroup,
    PreconditionError,
    coset_action,
    induced_group,
    is_prime,
    partition_index,
    prime_factors,
)
from .perm import Permutation

_INT = np.int64

log = logging.getLogger("semireg")

PSL2_MAX_PRIME = 61


# -- PSL(2,p) / PGL(2,p) on the projective line -----------------------------


def _mobius_permutation(mat, p: int) -> Permutation:
    """Permutation of the projective line P1(F_p) induced by a 2x2 matrix.

    Points 0..p-1 are the affine residues, point p is infinity. Row vectors
    act on the right: [x : y] -> [x*a + y*c : x*b + y*d].
    """
    a, b, c, d = (x % p for x in mat)
    if (a * d - b * c) % p == 0:
        raise ValueError("matrix is singular mod p")
    img = np.empty(p + 1, dtype=_INT)
    for z in range(p):
        num = (a * z + c) % p
        den = (b * z + d) % p
        img[z] = (num * pow(den, -1, p)) % p if den else p
    img[p] = (a * pow(b, -1, p)) % p if b else p
    return Permutation(img)


def _least_nonresidue(p: int) -> int:
    squares = {(x * x) % p for x in range(1, p)}
    for v in range(2, p):
        if v not in squares:
            return v
    raise ValueError("no quadratic non-residue found")


def _primitive_root(p: int) -> int:
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ValueError("no primitive root found")


def _check_p(p: int) -> None:
    # the bound first: trial division would run for ages on a huge prime
    if p > PSL2_MAX_PRIME:
        raise PreconditionError(f"p={p} exceeds the configured bound {PSL2_MAX_PRIME}")
    if not is_prime(p) or p == 2:
        raise PreconditionError(f"p={p} must be an odd prime")


def psl2_action(p: int) -> PermGroup:
    """PSL(2,p) acting on the p+1 points of the projective line."""
    _check_p(p)
    h = _mobius_permutation((1, 0, 1, 1), p)
    g = _mobius_permutation((0, 1, p - 1, 0), p)
    group = PermGroup([h, g], p + 1)
    expected = p * (p * p - 1) // 2
    if group.order() != expected:
        raise RuntimeError(f"PSL2({p}) order check failed (internal error)")
    return group


def pgl2_action(p: int) -> PermGroup:
    """PGL(2,p) on the projective line: PSL2 plus a non-square diagonal."""
    _check_p(p)
    h = _mobius_permutation((1, 0, 1, 1), p)
    g = _mobius_permutation((0, 1, p - 1, 0), p)
    nu = _least_nonresidue(p)
    d = _mobius_permutation((nu, 0, 0, 1), p)
    group = PermGroup([h, g, d], p + 1)
    expected = p * (p * p - 1)
    if group.order() != expected:
        raise RuntimeError(f"PGL2({p}) order check failed (internal error)")
    return group


def psl2_coset_instance(p: int, s: int) -> CosetGraphBundle:
    """The prime-valency coset graph on PSL(2,p) with point count (p^2-1)/2s.

    H is generated by the unipotent translation together with a diagonal
    element of order s (so H is a semidirect product of order p*s), and the
    connecting element is the order-2 Weyl element z -> -1/z. Requires
    s | (p-1)/2. The CLI exposes this as family ``lemma33``.
    """
    _check_p(p)
    half = (p - 1) // 2
    if s < 1 or half % s != 0:
        raise PreconditionError(f"s={s} must divide (p-1)/2={half}")
    g_group = psl2_action(p)
    h_unip = _mobius_permutation((1, 0, 1, 1), p)
    w = _primitive_root(p)
    winv = pow(w, -1, p)
    torus = _mobius_permutation((w, 0, 0, winv), p)
    delta = torus ** (half // s)
    h_group = PermGroup([h_unip, delta], p + 1)
    if h_group.order() != p * s:
        raise RuntimeError("subgroup order is not p*s (internal error)")
    weyl = _mobius_permutation((0, 1, p - 1, 0), p)
    bundle = coset_graph(g_group, h_group, weyl)
    if bundle.graph.valency() != p:
        raise RuntimeError("coset graph valency mismatch (internal error)")
    return bundle


# -- Praeger-Xu graphs -------------------------------------------------------


def _px_check(p: int, r: int, s: int) -> None:
    # the trial division for p comes last, after the checks that cost nothing
    if r < 3:
        raise PreconditionError(f"r={r} must be at least 3")
    if not 1 <= s <= r - 1:
        raise PreconditionError(f"s={s} must satisfy 1 <= s <= r-1")
    if not is_prime(p):
        raise PreconditionError(f"p={p} must be prime")


def _px_digits(p: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The base-p digits of each x < p^s, most significant first, and their place values."""
    place = p ** np.arange(s - 1, -1, -1, dtype=_INT)
    digits = (np.arange(p**s, dtype=_INT)[:, None] // place) % p
    return digits, place


def _px_rotation(p: int, r: int, s: int) -> Permutation:
    """The rotation (i, x) -> (i+1, x) of C(p,r,s)."""
    n = r * p**s
    return Permutation((np.arange(n, dtype=_INT) + p**s) % n)


def praeger_xu(p: int, r: int, s: int) -> tuple[Graph, Permutation]:
    """The graph C(p,r,s) and its rotation, semiregular with cycles of length r.

    Vertices are pairs (i, x) with i in Z_r and x in Z_p^s, numbered
    i*p^s + x with x read in base p; (i, x) is adjacent to (i+1, y) whenever
    y drops the first symbol of x and appends any symbol (the shift-register
    overlap rule). The rotation maps (i, x) to (i+1, x).
    """
    _px_check(p, r, s)
    ps = p**s
    n = r * ps
    digits, place = _px_digits(p, s)
    # x without its first symbol, moved up one place: the y that ends in 0
    shifted = digits[:, 1:] @ place[:-1]
    vertices = np.arange(n, dtype=_INT)
    next_layer = (vertices // ps + 1) % r * ps
    targets = (next_layer + shifted[vertices % ps])[:, None] + np.arange(p)
    graph = Graph(n, np.column_stack((np.repeat(vertices, p), targets.ravel())))
    rotation = _px_rotation(p, r, s)
    if graph.valency() != 2 * p:
        raise RuntimeError("C(p,r,s) is not 2p-regular (internal error)")
    if not graph.is_automorphism(rotation):
        raise RuntimeError("rotation is not an automorphism (internal error)")
    return graph, rotation


def praeger_xu_group(p: int, r: int, s: int) -> PermGroup:
    """An arc-transitive group on C(p,r,s): rotation, reflection and a
    base translation (whose rotation-conjugates give all of Z_p^r)."""
    _px_check(p, r, s)
    digits, place = _px_digits(p, s)
    # (i, x) -> (-i, x reversed)
    reversed_x = digits[:, ::-1] @ place
    mirrored = (-np.arange(r, dtype=_INT)) % r * p**s
    reflection = Permutation((mirrored[:, None] + reversed_x).ravel())
    gens = [_px_rotation(p, r, s), reflection, _px_translation(p, r, s, [0])]
    return PermGroup(gens, r * p**s)


def _px_translation(p: int, r: int, s: int, positions) -> Permutation:
    """Add 1 to every window symbol of (i, x) whose position t has
    (i + t) mod r in ``positions``."""
    digits, place = _px_digits(p, s)
    chosen = np.zeros(r, dtype=bool)
    chosen[list(positions)] = True
    # raised[i, t]: whether symbol t of a window in layer i gets the 1
    raised = chosen[(np.arange(r)[:, None] + np.arange(s)) % r]
    moved_digits = (digits + raised[:, None, :]) % p
    moved_x = moved_digits @ place
    layer = np.arange(r, dtype=_INT)[:, None] * p**s
    return Permutation((layer + moved_x).ravel())


def px_fiber_translations(p: int, r: int, s: int) -> PermGroup:
    """The translation subgroup Z_p^r acting on C(p,r,s) windows."""
    _px_check(p, r, s)
    return PermGroup([_px_translation(p, r, s, [j]) for j in range(r)], r * p**s)


# -- K12 with M11 ------------------------------------------------------------

# Degree-12 generators of the Mathieu group M11, derived from the classical
# degree-11 generators (an 11-cycle and (3,7,11,8)(4,10,5,6), 1-based) via the
# coset action on an index-12 subgroup; frozen here and re-derived in tests.
_M11_DEGREE12_GENS = (
    (0, 2, 3, 5, 6, 8, 10, 9, 11, 1, 7, 4),
    (1, 0, 4, 2, 7, 9, 8, 3, 10, 5, 11, 6),
)

_M11_DEGREE11_GENS = (
    ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10),),
    ((2, 6, 10, 7), (3, 9, 4, 5)),
)


def m11_degree11() -> PermGroup:
    """M11 in its natural degree-11 action (textbook generators)."""
    gens = [Permutation.from_cycles(11, cycs) for cycs in _M11_DEGREE11_GENS]
    group = PermGroup(gens, 11)
    if group.order() != 7920:
        raise RuntimeError("M11 degree-11 order check failed (internal error)")
    return group


def m11_degree12_from_scratch() -> PermGroup:
    """Rebuild the degree-12 action of M11 as the coset action on an
    index-12 subgroup (generated by the 11-cycle and a suitable involution).

    Slow path used for cross-validation; `k12_m11` uses frozen data.
    """
    g11 = m11_degree11()
    eleven_cycle = g11.generators[0]
    sub = None
    for el in g11.elements():
        if el.order() != 2:
            continue
        cand = PermGroup([eleven_cycle, el], 11)
        if cand.order() == 660:
            sub = cand
            break
    if sub is None:
        raise RuntimeError("index-12 subgroup not found (internal error)")
    reps, _, gens12 = coset_action(g11, sub)
    if len(reps) != 12:
        raise RuntimeError("coset count is not 12 (internal error)")
    return PermGroup(gens12, 12)


def k12_m11() -> tuple[Graph, PermGroup]:
    """The complete graph on 12 vertices with M11 acting arc-transitively.

    The embedded generator data is validated at construction: order 7920
    and arc-transitivity on K12 (which implies transitivity).
    """
    graph = complete_graph(12)
    group = PermGroup([Permutation(list(im)) for im in _M11_DEGREE12_GENS], 12)
    if group.order() != 7920:
        raise RuntimeError("embedded M11 data fails the order check")
    if not is_arc_transitive(graph, group):
        raise RuntimeError("embedded M11 data fails the arc-transitivity check")
    return graph, group


# -- named corpus families ---------------------------------------------------


def symmetric_group(n: int) -> PermGroup:
    if n == 1:
        return PermGroup([], 1)
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return PermGroup(gens, n)


def complete_bipartite_instance(m: int) -> tuple[Graph, PermGroup]:
    """K_{m,m} with (S_m x S_m) : C2 acting; parts {0..m-1}, {m..2m-1}."""
    n = 2 * m
    edges = [(i, m + j) for i in range(m) for j in range(m)]
    graph = Graph(n, edges)
    gens = [
        Permutation.from_cycles(n, [(0, 1)]),
        Permutation.from_cycles(n, [tuple(range(m))]),
        Permutation(np.concatenate([np.arange(m) + m, np.arange(m)])),
    ]
    return graph, PermGroup(gens, n)


def hypercube_q4_instance() -> tuple[Graph, PermGroup]:
    """The 4-dimensional hypercube with translations and coordinate swaps."""
    n = 16
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(4)]
    graph = Graph(n, edges)
    flip = Permutation(np.arange(n) ^ 1)
    # coordinate rotation and transposition acting on bit positions
    rot = np.empty(n, dtype=_INT)
    swap = np.empty(n, dtype=_INT)
    for v in range(n):
        bits = [(v >> b) & 1 for b in range(4)]
        rbits = bits[1:] + bits[:1]
        sbits = [bits[1], bits[0], bits[2], bits[3]]
        rot[v] = sum(b << i for i, b in enumerate(rbits))
        swap[v] = sum(b << i for i, b in enumerate(sbits))
    group = PermGroup([flip, Permutation(rot), Permutation(swap)], n)
    return graph, group


def rook_graph_instance(m: int) -> tuple[Graph, PermGroup]:
    """The rook's graph K_m x K_m with (S_m wr C2) acting; cell (i,j) = i*m+j."""
    n = m * m
    edges = []
    for i in range(m):
        for j in range(m):
            for j2 in range(j + 1, m):
                edges.append((i * m + j, i * m + j2))
                edges.append((j * m + i, j2 * m + i))
    graph = Graph(n, edges)
    row_swap = np.arange(n, dtype=_INT)
    row_cycle = np.arange(n, dtype=_INT)
    transpose = np.empty(n, dtype=_INT)
    for i in range(m):
        for j in range(m):
            v = i * m + j
            ri = 1 if i == 0 else (0 if i == 1 else i)
            row_swap[v] = ri * m + j
            row_cycle[v] = ((i + 1) % m) * m + j
            transpose[v] = j * m + i
    group = PermGroup(
        [Permutation(row_swap), Permutation(row_cycle), Permutation(transpose)], n
    )
    return graph, group


def johnson_pairs_instance(m: int) -> tuple[Graph, PermGroup]:
    """The triangular graph T(m): 2-subsets of an m-set, adjacent when they
    meet; S_m acts via its induced action on pairs."""
    pairs = list(itertools.combinations(range(m), 2))
    pos = {pq: i for i, pq in enumerate(pairs)}
    n = len(pairs)
    edges = [
        (i, j)
        for i, a in enumerate(pairs)
        for j, b in enumerate(pairs)
        if i < j and set(a) & set(b)
    ]
    graph = Graph(n, edges)

    def induced(perm: Permutation) -> Permutation:
        img = np.empty(n, dtype=_INT)
        for i, (a, b) in enumerate(pairs):
            img[i] = pos[tuple(sorted((perm(a), perm(b))))]
        return Permutation(img)

    sym = symmetric_group(m)
    group = PermGroup([induced(x) for x in sym.generators], n)
    return graph, group


def paley_instance(q: int) -> tuple[Graph, PermGroup]:
    """The Paley graph on F_q (q prime, q = 1 mod 4) with translations and
    multiplications by nonzero squares acting arc-transitively."""
    if not is_prime(q) or q % 4 != 1:
        raise PreconditionError("q must be a prime congruent to 1 mod 4")
    squares = sorted({(x * x) % q for x in range(1, q)})
    edges = [(v, (v + s) % q) for v in range(q) for s in squares]
    graph = Graph(q, edges)
    add = Permutation((np.arange(q) + 1) % q)
    g = _primitive_root(q)
    mul = Permutation((np.arange(q) * ((g * g) % q)) % q)
    return graph, PermGroup([add, mul], q)


# -- corpus ------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusConfig:
    primes: tuple[int, ...] = (2, 3, 5)
    max_vertices: int = 2000
    include_named: bool = True
    include_coset_search: bool = True
    px_grid: dict = field(
        default_factory=lambda: {
            2: (range(3, 9), 3),
            3: (range(3, 7), 2),
            5: (range(3, 7), 2),
        }
    )


@dataclass(frozen=True)
class CorpusInstance:
    id: str
    family: str
    params: dict
    graph: Graph
    group: PermGroup
    known_semiregular: Permutation | None = None

    @property
    def valency(self) -> int:
        return self.graph.valency()

    def manifest_row(self, seed: int = 0) -> dict:
        return {
            "id": self.id,
            "family": self.family,
            "params": {k: v for k, v in sorted(self.params.items())},
            "n": self.graph.n,
            "valency": self.valency,
            "group_order": str(self.group.order()),
            "seed": seed,
        }


def _validated(inst: CorpusInstance, cfg: CorpusConfig) -> CorpusInstance | None:
    g, grp = inst.graph, inst.group
    if g.n > cfg.max_vertices:
        log.info("corpus skip %s: %d vertices exceed bound", inst.id, g.n)
        return None
    val = g.valency()
    if val is None or val % 2 != 0 or not is_prime(val // 2) or (val // 2) not in cfg.primes:
        log.info("corpus skip %s: valency %s not twice a configured prime", inst.id, val)
        return None
    if not g.is_connected():
        log.info("corpus skip %s: not connected", inst.id)
        return None
    if not is_arc_transitive(g, grp):
        log.info("corpus skip %s: group not arc-transitive", inst.id)
        return None
    return inst


def corpus_generate(cfg: CorpusConfig | None = None) -> list[CorpusInstance]:
    """Deterministic corpus of connected arc-transitive valency-2p instances.

    Families: the Praeger-Xu grid, standard double covers of its members
    (with the lifted action), named instances (complete, complete
    bipartite, hypercube, rook, triangular, Paley), the five coset graphs
    of PSL(2,5) and PGL(2,5), and quotients of s >= 2 Praeger-Xu members
    by the diagonal translation subgroup; an empty ``cfg.px_grid`` leaves
    out the grid with its covers and quotients. ``_validated`` checks each
    instance once; those failing it, such as the disconnected covers of the
    even-r members, are skipped with a log entry.
    """
    cfg = cfg or CorpusConfig()
    out: list[CorpusInstance] = []

    def add(inst: CorpusInstance) -> None:
        checked = _validated(inst, cfg)
        if checked is not None:
            out.append(checked)

    px_members = []
    for p in cfg.primes:
        grid = cfg.px_grid.get(p)
        if grid is None:
            continue
        # r_range ascends, so the first r (then s) too large for
        # max_vertices ends its loop
        r_range, s_max = grid
        for r in r_range:
            if r * p > cfg.max_vertices:
                break
            for s in range(1, min(s_max, r - 1) + 1):
                if r * p**s > cfg.max_vertices:
                    break
                graph, rot = praeger_xu(p, r, s)
                group = praeger_xu_group(p, r, s)
                family = "px" if s > 1 else "px-lexicographic"
                inst = CorpusInstance(
                    id=f"px-p{p}-r{r}-s{s}",
                    family=family,
                    params={"p": p, "r": r, "s": s},
                    graph=graph,
                    group=group,
                    known_semiregular=rot,
                )
                add(inst)
                px_members.append(inst)

    for base in px_members:
        # an even-r base is bipartite, so _validated refuses its cover
        cover = standard_double_cover(base.graph)
        gens = [lift_to_double_cover(x) for x in base.group.generators]
        gens.append(double_cover_swap(base.graph.n))
        group = PermGroup(gens, cover.n)
        add(
            CorpusInstance(
                id=f"cover-{base.id}",
                family="double-cover",
                params=dict(base.params),
                graph=cover,
                group=group,
                known_semiregular=lift_to_double_cover(base.known_semiregular),
            )
        )

    if cfg.include_named:
        for id_, family, params, (graph, group) in _named_table(cfg):
            add(
                CorpusInstance(
                    id=id_, family=family, params=params, graph=graph, group=group
                )
            )

    if cfg.include_coset_search:
        for inst in _coset_search_instances(cfg):
            add(inst)

    for base in px_members:
        s = base.params["s"]
        if s < 2:
            continue
        p, r = base.params["p"], base.params["r"]
        partition = _px_diagonal_subgroup(p, r, s).orbit_partition()
        _, class_index = partition_index(partition, base.graph.n)
        add(
            CorpusInstance(
                id=f"quotient-{base.id}",
                family="px-quotient",
                params=dict(base.params),
                graph=quotient_graph(base.graph, partition),
                group=induced_group(base.group, class_index),
            )
        )

    return out


def _named_table(cfg: CorpusConfig):
    """The named corpus instances as (id, family, params, (graph, group))
    rows, in corpus order. A prime whose K_{2p+1} has more than
    ``cfg.max_vertices`` vertices gives no row: nothing is built for it."""
    for p in cfg.primes:
        n, m = 2 * p + 1, 2 * p
        if n > cfg.max_vertices:
            log.info("corpus skip complete-K%d, bipartite-K%d%d: vertices exceed bound", n, m, m)
            continue
        complete = complete_graph(n), symmetric_group(n)
        yield f"complete-K{n}", "complete", {"n": n}, complete
        bipartite = complete_bipartite_instance(m)
        yield f"bipartite-K{m}{m}", "complete-bipartite", {"m": m}, bipartite
    yield "hypercube-Q4", "hypercube", {"dim": 4}, hypercube_q4_instance()
    for m in (3, 4, 6):
        yield f"rook-{m}x{m}", "rook", {"m": m}, rook_graph_instance(m)
    for m in (5, 7):
        yield f"triangular-T{m}", "triangular", {"m": m}, johnson_pairs_instance(m)
    yield "paley-13", "paley", {"q": 13}, paley_instance(13)


def _px_diagonal_subgroup(p: int, r: int, s: int) -> PermGroup:
    """The diagonal translation subgroup (add 1 to every window symbol)."""
    return PermGroup([_px_translation(p, r, s, range(r))], r * p**s)


# The corpus's coset graphs as (seed group, generators of H, involution x)
# rows, in corpus order, with 0-based cycles on the 6 points of P1(F_5)
# (point 5 is infinity). They are what a scan of the small subgroups of
# PSL(2,5) and PGL(2,5) found. A coset graph's valency k is at most |H| and
# below |G : H|, so k^2 < |G| <= 120: no valency 2p above 10 can come from
# these groups.
_COSET_ROWS = (
    ("psl2-5", ([(0, 4, 5), (1, 2, 3)], [(0, 1), (3, 5)]), [(0, 5), (1, 4)]),
    ("pgl2-5", ([(1, 2, 4, 3)],), [(0, 2), (1, 3), (4, 5)]),
    ("pgl2-5", ([(1, 2, 4, 3)],), [(0, 3), (4, 5)]),
    ("pgl2-5", ([(0, 4, 1, 3, 2, 5)],), [(0, 5), (1, 4)]),
    ("pgl2-5", ([(0, 4, 1, 3, 2, 5)],), [(0, 1), (2, 4)]),
)


def _coset_search_instances(cfg: CorpusConfig):
    """The ``_COSET_ROWS`` coset graphs of index at most ``cfg.max_vertices``."""
    seeds = {"psl2-5": psl2_action(5), "pgl2-5": pgl2_action(5)}
    for name, h_cycles, x_cycles in _COSET_ROWS:
        big = seeds[name]
        h = PermGroup([Permutation.from_cycles(6, c) for c in h_cycles], 6)
        if big.order() // h.order() > cfg.max_vertices:
            continue
        bundle = coset_graph(big, h, Permutation.from_cycles(6, x_cycles))
        g = bundle.graph
        yield CorpusInstance(
            id=f"coset-{name}-n{g.n}-v{g.valency()}-g{g.girth()}",
            family="coset-search",
            params={"seed_group": name, "subgroup_order": h.order()},
            graph=g,
            group=bundle.acting_group,
        )
