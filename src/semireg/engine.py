"""The semiregular-automorphism pipeline.

``find_semiregular`` takes a connected graph with a vertex-transitive group
of automorphisms and produces a machine-verifiable certificate: either a
nontrivial semiregular element of the group (with the route that found it)
or, after full enumeration, the definitive answer that none exists. The
search is the paper's induction over normal quotients: at each node it runs
these steps in this order, each switched on by its route name.

1. direct-search: exhaustive scan (small groups) or seeded random sampling
   of prime-order powers;
2. prime-power: on prime-power degree, a central element of a transitive
   p-subgroup;
3. for each orbit partition of at least three blocks of a normal subgroup
   N in turn, N the normal closure of a prime-order power of a strong
   generator of G (``_normal_quotients``, which needs no bound on |G|), in
   the order they are met: quotient-lift: recurse on the quotient by N (at
   most half the vertices, so the recursion ends), then lift through the
   kernel K the first quotient element with a prime order that does not
   divide |K|; then, when N is a 2-group, buddy-swap: if the structure
   between N's orbits is a disjoint union of 4-cycles with unique
   antipodes, the involution swapping every vertex with its antipode.

"Inconclusive" (bounds stopped the search) is kept distinct from
"exhausted-none" (the group was fully enumerated and is elusive).

``proof_invariant_report`` checks the intermediate structural facts the
pipeline relies on, one row per entry of ``_CHECKS``; each check's
hypothesis is stated once, beside that table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from . import _kernels
from .graphs import (
    Graph,
    check_automorphisms,
    has_intra_class_edges,
    quotient_graph,
)
from .group import (
    DEFAULT_BOUND,
    BoundExceededError,
    PermGroup,
    PreconditionError,
    action_on_partition,
    is_prime,
    lift_semiregular,
    minimal_normal_subgroups,
    normal_closure,
    normal_closure_orbits,
    partition_index,
    prime_factors,
    semiregular_of_prime_power_degree,
)
from .perm import Permutation

_INT = np.int64

ROUTE_DIRECT = "direct-search"
ROUTE_PRIME_POWER = "prime-power"
ROUTE_QUOTIENT_LIFT = "quotient-lift"
ROUTE_BUDDY_SWAP = "buddy-swap"
EXHAUSTED_NONE = "exhausted-none"

ALL_ROUTES = (ROUTE_DIRECT, ROUTE_PRIME_POWER, ROUTE_QUOTIENT_LIFT, ROUTE_BUDDY_SWAP)

# random elements direct-search draws when the group is too large to enumerate
SAMPLE_COUNT = 3000


class InconclusiveError(RuntimeError):
    """Bounds stopped every applicable route; NOT a proof that none exists."""


@dataclass(frozen=True)
class Certificate:
    """A claimed nontrivial semiregular automorphism, or a proof of absence.

    Unless ``method`` is exhausted-none, ``element`` is a nontrivial
    semiregular automorphism of the graph lying in the searched group and
    ``cycle_length == element_order``. ``method`` = exhausted-none is only
    produced after full enumeration of the group. ``trace`` is the path to
    this certificate: what the search tried and did not take on the way,
    then how this certificate was found.
    """

    graph_id: str
    element: Permutation | None
    element_order: int
    cycle_length: int
    method: str
    trace: tuple[str, ...]


@dataclass(frozen=True)
class EngineConfig:
    """Per-run settings of ``find_semiregular``.

    ``routes`` switches the steps of the search on at the top level; they
    run in the order of ``ALL_ROUTES`` whatever order they are given in.
    ``seed`` fixes the random draws of direct-search and prime-power;
    ``graph_id`` labels the certificate. The bounds are fixed: direct-search
    enumerates, and a certificate check re-enumerates, groups of order at
    most ``DEFAULT_BOUND``, and it samples ``SAMPLE_COUNT`` elements above
    that. The normal quotients that quotient-lift and buddy-swap read have
    no bound on |G|, and quotient-lift needs no depth bound, because each
    quotient it recurses on has at most half the vertices.
    """

    routes: tuple[str, ...] = ALL_ROUTES
    seed: int = 0
    graph_id: str = "graph"


@dataclass(frozen=True)
class BuddyStructure:
    """Disjoint-C4 structure between adjacent classes of a partition.

    ``buddy_map[x]`` maps each class adjacent to x to the unique vertex of
    x's class at distance 2 through that class (the antipode of x in the
    4-cycle). ``buddies_per_vertex`` is the common size of each vertex's
    buddy set.
    """

    partition: tuple[tuple[int, ...], ...]
    buddy_map: tuple[dict, ...]
    buddies_per_vertex: int


@dataclass(frozen=True)
class CheckRecord:
    name: str
    applicable: bool
    passed: bool | None
    detail: str


# -- local action ------------------------------------------------------------


def local_action(g: Graph, grp: PermGroup, v: int) -> PermGroup:
    """The permutation group induced on the neighbourhood of v by its
    stabilizer, or the trivial group of degree 1 when v has no neighbours.
    Faithfulness is not assumed; the kernel may be nontrivial."""
    check_automorphisms(g, grp)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    nbrs = g.neighbors(v)
    if not nbrs.size:
        return PermGroup([], 1)
    # the stabilizer maps the sorted neighbours onto themselves
    stab = grp.point_stabilizer(v)
    gens = [Permutation(np.searchsorted(nbrs, gen.images[nbrs])) for gen in stab.generators]
    return PermGroup(gens, len(nbrs))


# -- certificates -------------------------------------------------------------


def verify_certificate(g: Graph, grp: PermGroup, cert: Certificate) -> tuple[bool, str]:
    """Independently check a certificate against the graph and group.

    For element certificates: degrees, automorphism, nontrivial,
    semiregular, membership (sift), and order/cycle-length consistency. For
    exhausted-none: the group must act on the graph as ``find_semiregular``
    requires (degree n, every generator an automorphism, transitive), since
    the claim is about the graph's group; then re-enumerate the group and
    confirm no nontrivial semiregular element exists. Raises
    ``BoundExceededError`` when the group order is above ``DEFAULT_BOUND``,
    since that says nothing about the certificate; ``find_semiregular``
    enumerates no further, so no certificate it returns stops at that bound.
    """
    if cert.method == EXHAUSTED_NONE:
        if cert.element is not None:
            return False, "exhausted-none certificate carries an element"
        try:
            check_automorphisms(g, grp)
        except PreconditionError as exc:
            return False, str(exc)
        if not grp.is_transitive():
            return False, "group is not vertex-transitive"
        hit = next(_semiregular_elements(grp), None)
        if hit is not None:
            return False, f"group contains semiregular element {hit[1].cycle_string()}"
        return True, ""
    el = cert.element
    if el is None:
        return False, "certificate carries no element"
    if el.degree != g.n:
        return False, "element degree does not match the graph"
    if grp.degree != g.n:
        return False, "group degree does not match vertex count"
    if not g.is_automorphism(el):
        return False, "not an automorphism"
    if el.is_identity():
        return False, "element is trivial"
    if not el.is_semiregular():
        return False, "not semiregular"
    if not grp.contains(el):
        return False, "element is not in the group"
    order = el.order()
    if order != cert.element_order:
        return False, f"stated order {cert.element_order} != actual {order}"
    if cert.cycle_length != order:
        return False, f"cycle length {cert.cycle_length} != order {order}"
    return True, ""


def _certificate(graph_id, element, method, trace) -> Certificate:
    order = element.order() if element is not None else 0
    return Certificate(graph_id, element, order, order, method, tuple(trace))


def _semiregular_elements(grp: PermGroup):
    """Every nontrivial semiregular element of grp, in ``iter_elements``
    order, as (place, element) pairs, the places counting from 1 in that
    order. Whole blocks of elements are tested at once
    (``PermGroup.element_blocks``, which raises ``BoundExceededError`` when
    |grp| > ``DEFAULT_BOUND``)."""
    count = 0
    for block in grp.element_blocks():
        for i in _kernels.semiregular_rows(block).nonzero()[0].tolist():
            yield count + i + 1, Permutation._wrap(block[i].copy())
        count += len(block)


def find_semiregular(
    g: Graph, grp: PermGroup, config: EngineConfig | None = None
) -> Certificate:
    """Find a verified nontrivial semiregular element of ``grp`` on ``g``.

    Requires a connected graph and a vertex-transitive group. Returns the
    first certificate of the search (method exhausted-none when full
    enumeration proves the group elusive); raises InconclusiveError when
    the fixed bounds stop every route, and ValueError on an unknown route.
    """
    config = config or EngineConfig()
    unknown = [route for route in config.routes if route not in ALL_ROUTES]
    if unknown:
        raise ValueError(f"unknown route {unknown[0]!r}")
    if not g.is_connected():
        raise PreconditionError("graph is not connected")
    check_automorphisms(g, grp)
    if not grp.is_transitive():
        raise PreconditionError("group is not vertex-transitive")
    cert = next(_search(g, grp, config, trace=[]), None)
    if cert is None:
        raise InconclusiveError("all routes exhausted their bounds without an answer")
    ok, reason = verify_certificate(g, grp, cert)
    if not ok:
        raise RuntimeError(f"certificate failed verification: {reason} (internal)")
    return cert


def _search(g, grp, config, trace):
    """Every certificate the steps switched on in ``config.routes`` find at
    this node, in the step order of the module docstring, made only as the
    reader asks for the next one. The normal quotients are read one at a
    time, whatever |G| is, only when quotient-lift or buddy-swap is on; N
    is built only for buddy-swap's 2-group test, after quotient-lift.

    ``trace`` is the path to where the search stands: a step appends the
    lines of what it tried and did not find. A certificate's trace is that
    path plus its own lines, in a copy, so a certificate the reader refuses
    leaves no line behind.
    """
    if ROUTE_DIRECT in config.routes:
        yield from _route_direct(g, grp, config, trace)
    if ROUTE_PRIME_POWER in config.routes:
        yield from _route_prime_power(g, grp, config, trace)
    lift, swap = ROUTE_QUOTIENT_LIFT in config.routes, ROUTE_BUDDY_SWAP in config.routes
    if not (lift or swap):
        return
    for y, partition in _normal_quotients(grp):
        if lift:
            yield from _route_quotient_lift(g, grp, config, trace, partition)
        if swap and _is_2_group(normal_closure(grp, [y])):
            yield from _route_buddy_swap(g, grp, config, trace, partition)


def _route_direct(g, grp, config, trace):
    order = grp.order()
    if order <= DEFAULT_BOUND:
        el = None
        for count, el in _semiregular_elements(grp):
            line = f"direct-search: exhaustive hit after {count} elements"
            yield _certificate(config.graph_id, el, ROUTE_DIRECT, (*trace, line))
        if el is None:
            line = f"direct-search: exhausted all {order} elements, none semiregular"
            yield _certificate(config.graph_id, None, EXHAUSTED_NONE, (*trace, line))
        return
    rng = np.random.default_rng(config.seed)
    chain = grp.chain()
    for _ in range(SAMPLE_COUNT):
        el = Permutation._wrap(chain.random_element(rng))
        o = el.order()
        # each power tried has prime order q, so it is not the identity
        for q in sorted(prime_factors(o)):
            cand = el ** (o // q)
            if cand.is_semiregular():
                line = f"direct-search: sampled element of prime order {q}"
                yield _certificate(config.graph_id, cand, ROUTE_DIRECT, (*trace, line))
    trace.append(
        f"direct-search: {SAMPLE_COUNT} samples drawn "
        f"(order {order} exceeds enumeration bound)"
    )


def _route_prime_power(g, grp, config, trace):
    n = g.n
    factors = prime_factors(n)
    if len(factors) != 1:
        return
    try:
        el = semiregular_of_prime_power_degree(grp, seed=config.seed)
    except BoundExceededError as exc:
        trace.append(f"prime-power: {exc}")
        return
    p = next(iter(factors))
    line = f"prime-power: degree {n} = {p}^{factors[p]}, center element of a transitive p-subgroup"
    yield _certificate(config.graph_id, el, ROUTE_PRIME_POWER, (*trace, line))


def _normal_quotients(grp):
    """Yield (y, partition) for each new orbit partition of at least three
    blocks of the normal closure N of y in G: the stream quotient-lift and
    buddy-swap read. The quotient by N depends only on N's orbits, which
    ``normal_closure_orbits`` finds with no chain and no bound on |G|. The
    candidates y are the prime-order powers of the strong generators of G's
    chain, which begin with G's given generators.
    """
    seen = set()
    for x in grp.chain().strong_generators():
        x = Permutation._wrap(x.view())  # marks only the view read-only
        o = x.order()
        for q in sorted(prime_factors(o)):
            y = (x ** (o // q)).images
            partition = normal_closure_orbits(grp, y)
            key = tuple(map(tuple, partition))
            if len(partition) >= 3 and key not in seen:
                seen.add(key)
                yield y, partition


def _is_2_group(grp: PermGroup) -> bool:
    order = grp.order()
    return order & (order - 1) == 0


def _route_quotient_lift(g, grp, config, trace, partition):
    # The recursion ends without a depth bound: the orbits of a nontrivial
    # normal subgroup of a transitive group all have one size >= 2, so each
    # quotient has at most half the vertices of the graph above it. The
    # quotient search runs every step, whatever ``config.routes`` switched
    # off at the top.
    bundle = action_on_partition(grp, partition)
    qgraph = quotient_graph(g, partition)
    trace.append(
        f"quotient-lift: normal subgroup with {len(partition)} orbits; "
        f"recursing on {qgraph.n} classes"
    )
    # the coprime lifting lemma needs prime order: read the quotient's
    # certificates until one has an element with a prime divisor q of its
    # order that does not divide |K|, and lift its power of order q
    k_order = bundle.kernel_order
    skipped = 0
    sub_config = replace(config, routes=ALL_ROUTES)
    for sub in _search(qgraph, bundle.image_group, sub_config, trace):
        r = sub.element_order  # 0 on an exhausted-none certificate
        q = min((q for q in prime_factors(r or 1) if k_order % q), default=0)
        if not q:
            skipped += 1
            continue
        lifted = lift_semiregular(bundle, sub.element ** (r // q), q)
        line = f"quotient-lift: lifted element of order {q} through kernel"
        if skipped:
            line += f" (skipped {skipped} quotient certificates before it)"
        yield _certificate(config.graph_id, lifted, ROUTE_QUOTIENT_LIFT, (*sub.trace, line))
    trace.append(
        f"quotient-lift: none of {skipped} quotient certificates has an "
        f"element of a prime order coprime to kernel order {k_order}"
    )


def _route_buddy_swap(g, grp, config, trace, partition):
    try:
        bs = c4_buddy_structure(g, partition)
    except PreconditionError:
        return
    if bs.buddies_per_vertex != 1:
        trace.append(
            f"buddy-swap: {bs.buddies_per_vertex} buddies per vertex, "
            "swap inapplicable"
        )
        return
    swap = buddy_swap_automorphism(g, bs)
    if not grp.contains(swap):
        trace.append("buddy-swap: swap involution lies outside the group")
        return
    line = "buddy-swap: unique-buddy involution"
    yield _certificate(config.graph_id, swap, ROUTE_BUDDY_SWAP, (*trace, line))


# -- buddy machinery -----------------------------------------------------------


def c4_buddy_structure(g: Graph, partition) -> BuddyStructure:
    """Validate the disjoint-4-cycle structure between adjacent classes and
    record each vertex's antipode ("buddy") per adjacent class.

    Preconditions, checked in this order: no edges inside classes; between
    adjacent classes every vertex has exactly two neighbours on the other
    side, and those neighbour-pairs match up into disjoint 4-cycles. The
    partition is validated once, and both the intra-class edges and the
    adjacent class pairs are read off each vertex's neighbours by class.
    Each vertex's buddy map lists its adjacent classes in increasing order.
    """
    classes, class_index = partition_index(partition, g.n)
    nbrs_by_class: list[dict] = [dict() for _ in range(g.n)]
    for v in range(g.n):
        for w in g.neighbors(v):
            c = int(class_index[w])
            nbrs_by_class[v].setdefault(c, []).append(int(w))
    if any(int(class_index[v]) in nbrs_by_class[v] for v in range(g.n)):
        raise PreconditionError("partition has edges inside a class")
    for v in range(g.n):
        for c, lst in nbrs_by_class[v].items():
            if len(lst) != 2:
                raise PreconditionError(
                    f"vertex {v} has {len(lst)} neighbours in class {c}, not 2"
                )

    # group vertices of each class by their 2-neighbour set in the other
    # class, one adjacent class pair (ca < cb) at a time in sorted order
    pairs = {(int(class_index[v]), c) for v in range(g.n) for c in nbrs_by_class[v]}
    buddy_map: list[dict] = [dict() for _ in range(g.n)]
    for ca, cb in sorted(p for p in pairs if p[0] < p[1]):
        for side, other in ((ca, cb), (cb, ca)):
            groups: dict = {}
            for v in classes[side]:
                pair = tuple(sorted(nbrs_by_class[v][other]))
                groups.setdefault(pair, []).append(v)
            for pair, verts in groups.items():
                if len(verts) != 2:
                    raise PreconditionError(
                        f"classes ({ca},{cb}): neighbour pair {pair} is shared "
                        f"by {len(verts)} vertices, not 2 (no C4 decomposition)"
                    )
                x, z = verts
                buddy_map[x][other] = z
                buddy_map[z][other] = x

    counts = {len(set(bm.values())) for bm in buddy_map}
    if len(counts) != 1:
        raise PreconditionError(
            f"buddy counts are not constant across vertices: {sorted(counts)}"
        )
    return BuddyStructure(
        partition=tuple(classes),
        buddy_map=tuple(buddy_map),
        buddies_per_vertex=counts.pop(),
    )


def buddy_swap_automorphism(g: Graph, bs: BuddyStructure) -> Permutation:
    """The involution swapping every vertex with its unique buddy: an
    automorphism with no fixed point, as ``c4_buddy_structure`` pairs two
    distinct vertices with equal neighbourhoods (it refuses an edge inside
    a class), so nothing here checks it."""
    if bs.buddies_per_vertex != 1:
        raise PreconditionError(
            f"each vertex has {bs.buddies_per_vertex} buddies, not 1"
        )
    img = np.empty(g.n, dtype=_INT)
    for v in range(g.n):
        img[v] = next(iter(set(bs.buddy_map[v].values())))
    return Permutation(img)


# -- proof diagnostics --------------------------------------------------------


def _arc_orbits(g: Graph, m0: PermGroup, s: int) -> list[list[int]]:
    """The orbits of ``m0``, a group fixing vertex 0, on the s-arcs
    (0, v1, ..., vs) of g, each arc given by its place in lexicographic order.

    An s-arc is a walk whose consecutive vertices are adjacent and that
    never steps straight back. ``m0`` fixes 0, so it permutes these arcs.
    """
    arcs = [(0,)]
    for _ in range(s):
        arcs = [
            a + (int(w),)
            for a in arcs
            for w in g.neighbors(a[-1])
            if len(a) < 2 or w != a[-2]
        ]
    if not arcs:
        return []
    index = {a: i for i, a in enumerate(arcs)}
    images = m0.gen_arrays()[:, arcs].tolist()
    # the rows as CSR lists: each arc's successors are its k images
    rows = np.array([[index[tuple(arc)] for arc in img] for img in images])
    return _kernels.orbits(np.arange(0, rows.size + 1, len(rows)), rows.T.ravel())


def arc_stabilizer_bound_check(
    g: Graph, m_sub: PermGroup, *, s_values=(1, 2, 3, 4)
) -> list[tuple[int, int, bool]]:
    """For every s-arc alpha from vertex 0, check |M_{v0} : M_alpha| <= 2^s.

    Returns (s, violations, passed) triples, counting the arcs from vertex 0
    that break the bound. M_alpha, the pointwise stabilizer of the arc's
    vertices, is the stabilizer of alpha in M_{v0}, so the index is the size
    of alpha's orbit under M_{v0}. When M is normal in a vertex-transitive
    group G, each s-arc of g is the G-image of an arc from vertex 0 with the
    same index, so these arcs settle the bound for every s-arc.
    """
    return _arc_bound_rows(g, m_sub.point_stabilizer(0), s_values)


def _arc_bound_rows(g: Graph, m0: PermGroup, s_values) -> list[tuple[int, int, bool]]:
    """``arc_stabilizer_bound_check`` read off M_{v0} = ``m0``."""
    out = []
    for s in s_values:
        violations = sum(len(o) for o in _arc_orbits(g, m0, s) if len(o) > 2**s)
        out.append((s, violations, violations == 0))
    return out


def _neighbour_orbit_sizes(g: Graph, stab: PermGroup) -> set[int] | None:
    """Orbit sizes on N(0) of ``stab``, a group fixing 0, which so maps
    N(0), its 1-arcs, to itself; None when ``stab`` is trivial."""
    if stab.is_trivial():
        return None
    return {len(o) for o in _arc_orbits(g, stab, 1)}


class _ReportInputs:
    """What the report checks read, each part built at most once per report
    and kept here, not on G: the minimal normal subgroups, which (d) reads;
    the minimal normal quotients among them; ``bundle(i)``, the action of G
    on the partition of the i-th quotient; and ``stabilizer(sub)``, the
    stabilizer of vertex 0 in a subgroup that a check takes."""

    def __init__(self, g: Graph, grp: PermGroup):
        self.g, self.grp = g, grp
        self.bundle = cache(lambda i: action_on_partition(grp, self.quotients[i][1]))
        self.stabilizer = cache(lambda sub: sub.point_stabilizer(0))

    @cached_property
    def minimal_normal(self) -> list[PermGroup]:
        """Raises ``BoundExceededError`` when |G| > ``DEFAULT_BOUND``."""
        return minimal_normal_subgroups(self.grp)

    @cached_property
    def quotients(self) -> list[tuple[PermGroup, list[list[int]]]]:
        """Each minimal normal subgroup with at least three orbits, paired
        with its orbit partition."""
        pairs = [(m, m.orbit_partition()) for m in self.minimal_normal]
        return [(nsub, partition) for nsub, partition in pairs if len(partition) >= 3]


def _local_action_prime_divisibility(r: _ReportInputs):
    orbit_sizes = {len(o) for o in r.grp.orbit_partition()}
    if len(orbit_sizes) != 1:
        return False, None, "orbits of unequal size"
    # |G_v| = |G| / orbit size, computed on factored orders
    stab_factors = r.grp.order_factored() - prime_factors(orbit_sizes.pop())
    local_order = local_action(r.g, r.grp, 0).order()
    bad = [q for q in stab_factors if local_order % q != 0]
    return (
        True,
        not bad,
        f"|G_v| primes {sorted(stab_factors)}, local action order {local_order}"
        + (f", failing primes {bad}" if bad else ""),
    )


def _kernel_fixing_classes(r: _ReportInputs):
    for i, (nsub, partition) in enumerate(r.quotients):
        d = quotient_graph(r.g, partition).valency()
        if d is None or d % 2 == 0 or not is_prime(d):
            continue
        if _neighbour_orbit_sizes(r.g, r.stabilizer(nsub)) != {2}:
            continue
        kv = r.stabilizer(r.bundle(i).kernel)
        return True, _is_2_group(kv), f"quotient valency {d}, |K_v| = {kv.order()}"
    return False, None, "no qualifying normal subgroup"


def _conjugate_cover_counting(r: _ReportInputs):
    result = (False, None, "no central-in-2-subgroup minimal normal")
    for p_sub, partition in r.quotients:
        if not _is_2_group(p_sub):
            continue
        if next(_semiregular_elements(p_sub), None) is not None:
            result = (False, None, "M contains a semiregular element; bound not required")
            continue
        m_v = r.stabilizer(p_sub).order()
        return (
            True,
            p_sub.order() <= m_v * len(partition),
            f"|M| = {p_sub.order()}, |M_v| = {m_v}, classes = {len(partition)}",
        )
    return result


def _arc_stabilizer_index(r: _ReportInputs):
    if not r.grp.is_transitive():
        return (
            False,
            None,
            "G is not vertex-transitive: the s-arcs from vertex 0 need not "
            "stand for all s-arcs",
        )
    # each kernel is built only when the loop reaches it
    kernels = (r.bundle(i).kernel for i in range(len(r.quotients)))
    for m_sub in itertools.chain(r.minimal_normal, kernels):
        m0 = r.stabilizer(m_sub)
        sizes = _neighbour_orbit_sizes(r.g, m0)
        if sizes is None or not sizes <= {1, 2}:
            continue
        results = _arc_bound_rows(r.g, m0, (1, 2, 3))
        return (
            True,
            all(passed for _, _, passed in results),
            "; ".join(f"s={s}: {v} violations" for s, v, _ in results),
        )
    return False, None, "no normal subgroup with local orbits of size <= 2"


def _two_fixed_classes_propagation(r: _ReportInputs):
    for p_sub, partition in r.quotients:
        if not _is_2_group(p_sub):
            continue
        try:
            bs = c4_buddy_structure(r.g, partition)
        except PreconditionError:
            continue
        result = _check_claim(p_sub, bs)
        # a claim with nothing to test stays reported as such
        twins = _twin_classes(r.g) if result[0] else []
        if twins:
            return (
                False,
                None,
                f"graph has twins: vertices {twins[0]} share a neighbourhood "
                f"({len(twins)} twin classes)",
            )
        return result
    return False, None, "no buddy structure available"


def _no_intra_class_edges(r: _ReportInputs):
    if not r.quotients:
        return False, None, "no normal subgroup with >= 3 orbits"
    nsub, partition = r.quotients[0]
    return (
        True,
        not has_intra_class_edges(r.g, partition),
        f"orbit partition of normal subgroup of order {nsub.order()}",
    )


# The report's checks, in report order. Each returns (applicable, passed,
# detail), and is inapplicable, with a note, when nothing meets its
# hypothesis. The normal quotients here are the minimal normal subgroups N
# with at least three orbits, with their orbit partitions, and not the list
# quotient-lift and buddy-swap read: (c) and (e) take M = N, which needs N
# minimal and so elementary abelian when it is a 2-group, and (d) reads every
# minimal normal subgroup. Minimal normal subgroups are found by enumerating
# G, so a check that reads them is inapplicable when |G| > DEFAULT_BOUND, as
# is any check a bound stops.
# Hypothesis: claim.
# (a) G has orbits of one size: every prime dividing |G_v| divides the order
#     of the action of G_v on the neighbours of v.
# (b) the first normal quotient of odd prime valency on which N_v has orbits
#     of size 2 on the neighbours of v: K_v is a 2-group, K the kernel of G
#     on the classes.
# (c) the first normal quotient whose N is a 2-group with no semiregular
#     element, and M = N (N is elementary abelian, so central in itself, and
#     the only minimal normal subgroup inside it): |M| <= |M_v| * classes.
# (d) G vertex-transitive, and the first subgroup M, among all minimal
#     normal subgroups and then the kernels K of (b), whose M_v has orbits of
#     size at most 2 on the neighbours of v: |M_{v0} : M_alpha| <= 2^s for
#     every s-arc alpha, s = 1, 2, 3. M is normal in G, so the s-arcs from
#     vertex 0 stand for all of them, and the index is an orbit size of M_0.
# (e) the first normal quotient whose N is a 2-group and whose classes carry
#     a C4 buddy structure, on a twin-free graph (swapping two vertices with
#     one neighbourhood fixes every other vertex, a case the paper settles
#     by the buddy swap), and M = N as in (c): a subgroup of M fixing two
#     classes pointwise fixes each class adjacent to both.
# (f) the first normal quotient: no edge joins two vertices of one class.
_CHECKS = (
    ("local-action-prime-divisibility", _local_action_prime_divisibility),
    ("kernel-fixing-classes-is-2-group", _kernel_fixing_classes),
    ("conjugate-cover-counting-bound", _conjugate_cover_counting),
    ("arc-stabilizer-index-bound", _arc_stabilizer_index),
    ("two-fixed-classes-propagation", _two_fixed_classes_propagation),
    ("no-intra-class-edges", _no_intra_class_edges),
)


def proof_invariant_report(g: Graph, grp: PermGroup) -> tuple[CheckRecord, ...]:
    """Run the structural checks of ``_CHECKS`` on one instance, in order,
    one record each.

    A check whose hypothesis cannot be established within bounds is marked
    inapplicable, with the bound as its note, rather than failed.
    """
    check_automorphisms(g, grp)
    inputs = _ReportInputs(g, grp)
    records = []
    for name, check in _CHECKS:
        try:
            applicable, passed, detail = check(inputs)
        except BoundExceededError as exc:
            applicable, passed, detail = False, None, str(exc)
        records.append(CheckRecord(name, applicable, passed, detail))
    return tuple(records)


def _twin_classes(g: Graph) -> list[list[int]]:
    """The classes of two or more vertices with the same neighbourhood, in
    order of their least vertex."""
    by_neighbourhood: dict[bytes, list[int]] = {}
    for v in range(g.n):
        by_neighbourhood.setdefault(g.neighbors(v).tobytes(), []).append(v)
    return [c for c in by_neighbourhood.values() if len(c) > 1]


def _check_claim(m_sub: PermGroup, bs: BuddyStructure):
    """Check (e) on the classes of ``bs``, reading class adjacency off its
    buddy map: the classes adjacent to a vertex's class are its keys.

    ``m_sub`` is a minimal normal 2-subgroup whose orbits are the classes.
    It is elementary abelian, and an abelian group transitive on a class
    fixes the whole class as soon as it fixes one point of it. So the
    subgroup fixing two classes pointwise is the stabilizer of their first
    points, and it fixes a class pointwise when it fixes its first point.
    """
    classes = bs.partition
    adjacency = [set(bs.buddy_map[cls[0]]) for cls in classes]
    checked = 0
    for ca in range(len(classes)):
        for cb in range(ca + 1, len(classes)):
            x_sub = m_sub.pointwise_stabilizer([classes[ca][0], classes[cb][0]])
            if x_sub.is_trivial():
                continue
            for cc in adjacency[ca] & adjacency[cb]:
                checked += 1
                v = classes[cc][0]
                if any(gen(v) != v for gen in x_sub.generators):
                    return True, False, f"X fixing classes {ca},{cb} moves adjacent class {cc}"
            if checked >= 50:
                break
        if checked >= 50:
            break
    if checked == 0:
        return False, None, "no nontrivial two-class pointwise stabilizers"
    return True, True, f"{checked} class triples checked"
