"""Concrete graph/group families: projective linear actions on the projective
line, the prime-valency coset graphs built from them, Praeger-Xu graphs
C(p,r,s) with their rotation, the complete graph K12 with M11 acting, and
deterministic corpus generation of connected arc-transitive graphs of valency
twice a prime.

Every constructor validates what it builds (orders, transitivity,
arc-transitivity) instead of trusting embedded data.
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
    action_on_partition,
    coset_action,
    is_prime,
    normalizes,
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
    if not is_prime(p) or p == 2:
        raise PreconditionError(f"p={p} must be an odd prime")
    if p > PSL2_MAX_PRIME:
        raise PreconditionError(f"p={p} exceeds the configured bound {PSL2_MAX_PRIME}")


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
    expected_vertices = (p * p - 1) // (2 * s)
    if bundle.graph.n != expected_vertices:
        raise RuntimeError("coset graph vertex count mismatch (internal error)")
    if bundle.graph.valency() != p:
        raise RuntimeError("coset graph valency mismatch (internal error)")
    return bundle


# -- Praeger-Xu graphs -------------------------------------------------------


def _px_check(p: int, r: int, s: int) -> None:
    if not is_prime(p):
        raise PreconditionError(f"p={p} must be prime")
    if r < 3:
        raise PreconditionError(f"r={r} must be at least 3")
    if not 1 <= s <= r - 1:
        raise PreconditionError(f"s={s} must satisfy 1 <= s <= r-1")


def _px_vertex(i: int, digits, p: int, s: int) -> int:
    e = 0
    for d in digits:
        e = e * p + d
    return i * p**s + e


def _px_digits(e: int, p: int, s: int) -> list[int]:
    out = []
    for _ in range(s):
        out.append(e % p)
        e //= p
    return out[::-1]


def praeger_xu(p: int, r: int, s: int) -> tuple[Graph, Permutation]:
    """The graph C(p,r,s) and its rotation, semiregular with cycles of length r.

    Vertices are pairs (i, x) with i in Z_r and x in Z_p^s; (i, x) is adjacent
    to (i+1, y) whenever y drops the first symbol of x and appends any symbol
    (the shift-register overlap rule). The rotation maps (i, x) to (i+1, x).
    """
    _px_check(p, r, s)
    ps = p**s
    n = r * ps
    edges = []
    for i in range(r):
        for e in range(ps):
            tail = (e % p ** (s - 1)) * p
            for y in range(p):
                edges.append((i * ps + e, ((i + 1) % r) * ps + tail + y))
    graph = Graph(n, edges)
    rot = np.empty(n, dtype=_INT)
    for i in range(r):
        for e in range(ps):
            rot[i * ps + e] = ((i + 1) % r) * ps + e
    rotation = Permutation(rot)
    if graph.valency() != 2 * p:
        raise RuntimeError("C(p,r,s) is not 2p-regular (internal error)")
    if not graph.is_automorphism(rotation):
        raise RuntimeError("rotation is not an automorphism (internal error)")
    return graph, rotation


def praeger_xu_group(p: int, r: int, s: int) -> PermGroup:
    """An arc-transitive group on C(p,r,s): rotation, reflection and a
    base translation (whose rotation-conjugates give all of Z_p^r)."""
    _px_check(p, r, s)
    graph, rotation = praeger_xu(p, r, s)
    ps = p**s
    n = r * ps
    refl = np.empty(n, dtype=_INT)
    trans = np.empty(n, dtype=_INT)
    for i in range(r):
        for e in range(ps):
            digits = _px_digits(e, p, s)
            rev = digits[::-1]
            refl[i * ps + e] = _px_vertex((-i) % r, rev, p, s)
            shifted = [
                (d + 1) % p if (i + j) % r == 0 else d
                for j, d in enumerate(digits)
            ]
            trans[i * ps + e] = _px_vertex(i, shifted, p, s)
    gens = [rotation, Permutation(refl), Permutation(trans)]
    group = PermGroup(gens, n)
    for gen in gens:
        if not graph.is_automorphism(gen):
            raise RuntimeError("generator is not an automorphism (internal error)")
    if not is_arc_transitive(graph, group):
        raise RuntimeError("C(p,r,s) group is not arc-transitive (internal error)")
    return group


def px_fiber_translations(p: int, r: int, s: int) -> PermGroup:
    """The translation subgroup Z_p^r acting on C(p,r,s) windows."""
    _px_check(p, r, s)
    ps = p**s
    n = r * ps
    gens = []
    for j in range(r):
        arr = np.empty(n, dtype=_INT)
        for i in range(r):
            for e in range(ps):
                digits = _px_digits(e, p, s)
                shifted = [
                    (d + 1) % p if (i + t) % r == j else d
                    for t, d in enumerate(digits)
                ]
                arr[i * ps + e] = _px_vertex(i, shifted, p, s)
        gens.append(Permutation(arr))
    return PermGroup(gens, n)


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

    The embedded generator data is validated at construction: order 7920,
    transitivity, and arc-transitivity on K12.
    """
    graph = complete_graph(12)
    group = PermGroup([Permutation(list(im)) for im in _M11_DEGREE12_GENS], 12)
    if group.order() != 7920:
        raise RuntimeError("embedded M11 data fails the order check")
    if not group.is_transitive():
        raise RuntimeError("embedded M11 data fails the transitivity check")
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
    seed: int = 0
    include_px: bool = True
    include_covers: bool = True
    include_named: bool = True
    include_coset_search: bool = True
    include_quotients: bool = True
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

    Families: the Praeger-Xu grid, standard double covers of the odd-r
    members (with the lifted action), named instances (complete, complete
    bipartite, hypercube, rook, triangular, Paley), bounded coset-graph
    search hits, and quotients of s >= 2 Praeger-Xu members by the diagonal
    translation subgroup. Instances failing validation are skipped with a
    log entry.
    """
    cfg = cfg or CorpusConfig()
    out: list[CorpusInstance] = []

    def add(inst: CorpusInstance) -> None:
        checked = _validated(inst, cfg)
        if checked is not None:
            out.append(checked)

    px_members = []
    if cfg.include_px:
        for p in cfg.primes:
            grid = cfg.px_grid.get(p)
            if grid is None:
                continue
            r_range, s_max = grid
            for r in r_range:
                for s in range(1, min(s_max, r - 1) + 1):
                    if r * p**s > cfg.max_vertices:
                        continue
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

    if cfg.include_covers:
        for base in px_members:
            if base.graph.is_bipartite():
                continue  # the cover would be disconnected
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
                    known_semiregular=lift_to_double_cover(base.known_semiregular)
                    if base.known_semiregular
                    else None,
                )
            )

    if cfg.include_named:
        for p in cfg.primes:
            n = 2 * p + 1
            add(
                CorpusInstance(
                    id=f"complete-K{n}",
                    family="complete",
                    params={"n": n},
                    graph=complete_graph(n),
                    group=symmetric_group(n),
                )
            )
            graph, group = complete_bipartite_instance(2 * p)
            add(
                CorpusInstance(
                    id=f"bipartite-K{2 * p}{2 * p}",
                    family="complete-bipartite",
                    params={"m": 2 * p},
                    graph=graph,
                    group=group,
                )
            )
        graph, group = hypercube_q4_instance()
        add(
            CorpusInstance(
                id="hypercube-Q4",
                family="hypercube",
                params={"dim": 4},
                graph=graph,
                group=group,
            )
        )
        for m in (3, 4, 6):
            graph, group = rook_graph_instance(m)
            add(
                CorpusInstance(
                    id=f"rook-{m}x{m}",
                    family="rook",
                    params={"m": m},
                    graph=graph,
                    group=group,
                )
            )
        for m in (5, 7):
            graph, group = johnson_pairs_instance(m)
            add(
                CorpusInstance(
                    id=f"triangular-T{m}",
                    family="triangular",
                    params={"m": m},
                    graph=graph,
                    group=group,
                )
            )
        graph, group = paley_instance(13)
        add(
            CorpusInstance(
                id="paley-13",
                family="paley",
                params={"q": 13},
                graph=graph,
                group=group,
            )
        )

    if cfg.include_coset_search:
        out.extend(_coset_search_instances(cfg))

    if cfg.include_quotients:
        for base in px_members:
            s = base.params["s"]
            if s < 2:
                continue
            p, r = base.params["p"], base.params["r"]
            diag = _px_diagonal_subgroup(p, r, s)
            partition = diag.orbit_partition()
            bundle = action_on_partition(base.group, partition)
            qgraph = quotient_graph(base.graph, partition)
            add(
                CorpusInstance(
                    id=f"quotient-{base.id}",
                    family="px-quotient",
                    params=dict(base.params),
                    graph=qgraph,
                    group=bundle.image_group,
                )
            )

    return out


def _px_diagonal_subgroup(p: int, r: int, s: int) -> PermGroup:
    """The diagonal translation subgroup (add 1 to every window symbol)."""
    ps = p**s
    n = r * ps
    arr = np.empty(n, dtype=_INT)
    for i in range(r):
        for e in range(ps):
            digits = [(d + 1) % p for d in _px_digits(e, p, s)]
            arr[i * ps + e] = _px_vertex(i, digits, p, s)
    return PermGroup([Permutation(arr)], n)


def _coset_search_instances(cfg: CorpusConfig) -> list[CorpusInstance]:
    """Bounded scan for coset-graph hits of valency 2p over small seed groups."""
    out = []
    seen_fingerprints = set()
    seeds = [("psl2-5", psl2_action(5)), ("pgl2-5", pgl2_action(5))]
    target_valencies = {2 * p for p in cfg.primes}
    for name, big in seeds:
        subgroup_pool = _small_subgroups(big, max_count=12)
        hits = 0
        for h in subgroup_pool:
            if big.order() // h.order() > cfg.max_vertices:
                continue
            for elem in big.elements():
                if hits >= 4:
                    break
                if elem.order() != 2 or normalizes(elem, h):
                    continue
                if not h.chain().contains(elem * elem):
                    continue
                try:
                    bundle = coset_graph(big, h, elem)
                except (PreconditionError, RuntimeError):
                    continue
                g = bundle.graph
                val = g.valency()
                if val not in target_valencies or not g.is_connected():
                    continue
                fp = (g.n, val, g.girth(), g.is_bipartite())
                if fp in seen_fingerprints:
                    continue
                seen_fingerprints.add(fp)
                inst = CorpusInstance(
                    id=f"coset-{name}-n{g.n}-v{val}-g{g.girth()}",
                    family="coset-search",
                    params={"seed_group": name, "subgroup_order": h.order()},
                    graph=g,
                    group=bundle.acting_group,
                )
                checked = _validated(inst, cfg)
                if checked is not None:
                    out.append(checked)
                    hits += 1
            if hits >= 4:
                break
    return out


def _small_subgroups(g: PermGroup, max_count: int) -> list[PermGroup]:
    """A deterministic pool of small subgroups: cyclic ones from element
    scan plus a few two-generator extensions."""
    pool = []
    seen_orders = {}
    for el in g.elements():
        if el.is_identity():
            continue
        sub = PermGroup([el], g.degree)
        key = sub.order()
        if seen_orders.get(key, 0) >= 2:
            continue
        seen_orders[key] = seen_orders.get(key, 0) + 1
        pool.append(sub)
        if len(pool) >= max_count:
            break
    extended = []
    for sub in pool[:4]:
        base_el = sub.generators[0]
        for el in g.elements():
            if el.order() == 2:
                cand = PermGroup([base_el, el], g.degree)
                if cand.order() < g.order():
                    extended.append(cand)
                    break
    return pool + extended
