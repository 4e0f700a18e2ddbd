"""The semiregular-automorphism pipeline.

``find_semiregular`` takes a connected graph with a vertex-transitive group
of automorphisms and produces a machine-verifiable certificate: either a
nontrivial semiregular element of the group (with the route that found it)
or, after full enumeration, the definitive answer that none exists. Routes:

1. direct-search: exhaustive scan (small groups) or seeded random sampling
   of prime-order powers;
2. prime-power: on prime-power degree, the Sylow-center construction;
3. quotient-lift: recurse on the quotient by a normal subgroup with at
   least three orbits, then lift coprime-order elements through the kernel;
4. buddy-swap: on quotients by a normal 2-subgroup whose inter-class
   structure is a disjoint union of 4-cycles with unique antipodes, the
   involution swapping every vertex with its antipode.

"Inconclusive" (bounds stopped the search) is kept distinct from
"exhausted-none" (the group was fully enumerated and is elusive).

``proof_invariant_report`` instruments the intermediate structural facts the
pipeline relies on, marking each check inapplicable when its hypotheses
cannot be established within bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import (
    Graph,
    check_automorphisms,
    has_intra_class_edges,
    quotient_graph,
    s_arcs,
)
from .group import (
    BoundExceededError,
    PermGroup,
    PreconditionError,
    action_on_partition,
    is_subgroup,
    lift_semiregular,
    minimal_normal_subgroups,
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

# largest group order whose minimal normal subgroups are computed
NORMAL_BOUND = 20_000
# random elements direct-search draws when the group is too large to enumerate
SAMPLE_COUNT = 3000
# s-arcs sampled per s by the arc-stabilizer check of proof_invariant_report
ARC_SAMPLES = 50


class InconclusiveError(RuntimeError):
    """Bounds stopped every applicable route; NOT a proof that none exists."""


@dataclass(frozen=True)
class Certificate:
    """A claimed nontrivial semiregular automorphism, or a proof of absence.

    Unless ``method`` is exhausted-none, ``element`` is a nontrivial
    semiregular automorphism of the graph lying in the searched group and
    ``cycle_length == element_order``. ``method`` = exhausted-none is only
    produced after full enumeration of the group.
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

    ``routes`` are tried in order at the top level; ``enum_bound`` is the
    largest group order that direct-search enumerates (and that a certificate
    check re-enumerates); ``seed`` fixes the random draws of direct-search
    and prime-power; ``graph_id`` labels the certificate. The normal-subgroup
    bound and the sample count are the constants ``NORMAL_BOUND`` and
    ``SAMPLE_COUNT``; quotient-lift recurses to depth log2 of the vertex
    count.
    """

    routes: tuple[str, ...] = ALL_ROUTES
    enum_bound: int = 100_000
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


@dataclass(frozen=True)
class ProofReport:
    records: tuple[CheckRecord, ...]

    def as_dict(self) -> dict:
        return {
            "checks": [
                {
                    "name": r.name,
                    "applicable": r.applicable,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in self.records
            ]
        }


# -- local action ------------------------------------------------------------


def local_action(g: Graph, grp: PermGroup, v: int) -> PermGroup:
    """The permutation group induced on the neighbourhood of v by its
    stabilizer. Faithfulness is not assumed; the kernel may be nontrivial."""
    check_automorphisms(g, grp)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    nbrs = g.neighbors(v)
    stab = grp.point_stabilizer(v)
    index = {int(w): i for i, w in enumerate(nbrs)}
    gens = []
    for gen in stab.generators:
        img = np.empty(len(nbrs), dtype=_INT)
        for i, w in enumerate(nbrs):
            img[i] = index[int(gen(int(w)))]
        gens.append(Permutation(img))
    return PermGroup(gens or [Permutation.identity(max(len(nbrs), 1))], max(len(nbrs), 1))


# -- certificates -------------------------------------------------------------


def verify_certificate(
    g: Graph, grp: PermGroup, cert: Certificate, *, bound: int = 100_000
) -> tuple[bool, str]:
    """Independently check a certificate against the graph and group.

    For element certificates: automorphism, nontrivial, semiregular,
    membership (sift), and order/cycle-length consistency. For
    exhausted-none: re-enumerate the group (within bound) and confirm no
    nontrivial semiregular element exists.
    """
    if cert.method == EXHAUSTED_NONE:
        if cert.element is not None:
            return False, "exhausted-none certificate carries an element"
        order = grp.order()
        if order > bound:
            return False, f"cannot re-enumerate: order {order} exceeds bound {bound}"
        for el in grp.elements(bound):
            if not el.is_identity() and el.is_semiregular():
                return False, f"group contains semiregular element {el.cycle_string()}"
        return True, ""
    el = cert.element
    if el is None:
        return False, "certificate carries no element"
    if el.degree != g.n:
        return False, "element degree does not match the graph"
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
    return Certificate(
        graph_id=graph_id,
        element=element,
        element_order=order,
        cycle_length=order,
        method=method,
        trace=tuple(trace),
    )


def _element_prime_order_powers(el: Permutation):
    """Prime-order powers of an element, one per prime dividing its order."""
    o = el.order()
    primes = set()
    for cyc in el.cycle_decomposition().cycles:
        primes.update(prime_factors(len(cyc)))
    for q in sorted(primes):
        yield q, el ** (o // q)


def find_semiregular(
    g: Graph, grp: PermGroup, config: EngineConfig | None = None
) -> Certificate:
    """Find a verified nontrivial semiregular element of ``grp`` on ``g``.

    Requires a connected graph and a vertex-transitive group. Returns a
    Certificate (method exhausted-none when full enumeration proves the
    group elusive); raises InconclusiveError when bounds stop every route.
    """
    config = config or EngineConfig()
    if not g.is_connected():
        raise PreconditionError("graph is not connected")
    check_automorphisms(g, grp)
    if not grp.is_transitive():
        raise PreconditionError("group is not vertex-transitive")
    max_depth = max(1, int(math.log2(max(g.n, 2))))
    cert = _search(g, grp, config, trace=[], depth=0, max_depth=max_depth)
    if cert is None:
        raise InconclusiveError(
            "all routes exhausted their bounds without an answer"
        )
    ok, reason = verify_certificate(g, grp, cert, bound=config.enum_bound)
    if not ok:
        raise RuntimeError(f"certificate failed verification: {reason} (internal)")
    return cert


def _search(g, grp, config, trace, depth, max_depth) -> Certificate | None:
    for route in config.routes:
        if route == ROUTE_DIRECT:
            cert = _route_direct(g, grp, config, trace)
        elif route == ROUTE_PRIME_POWER:
            cert = _route_prime_power(g, grp, config, trace)
        elif route == ROUTE_QUOTIENT_LIFT:
            cert = _route_quotient_lift(g, grp, config, trace, depth, max_depth)
        elif route == ROUTE_BUDDY_SWAP:
            cert = _route_buddy_swap(g, grp, config, trace)
        else:
            raise ValueError(f"unknown route {route!r}")
        if cert is not None:
            return cert
    return None


def _route_direct(g, grp, config, trace) -> Certificate | None:
    order = grp.order()
    if order <= config.enum_bound:
        count = 0
        for el in grp.elements(config.enum_bound):
            count += 1
            if not el.is_identity() and el.is_semiregular():
                trace.append(f"direct-search: exhaustive hit after {count} elements")
                return _certificate(config.graph_id, el, ROUTE_DIRECT, trace)
        trace.append(
            f"direct-search: exhausted all {count} elements, none semiregular"
        )
        return _certificate(config.graph_id, None, EXHAUSTED_NONE, trace)
    rng = np.random.default_rng(config.seed)
    chain = grp.chain()
    for _ in range(SAMPLE_COUNT):
        el = Permutation._wrap(chain.random_element(rng))
        if el.is_identity():
            continue
        for q, cand in _element_prime_order_powers(el):
            if not cand.is_identity() and cand.is_semiregular():
                trace.append(f"direct-search: sampled element of prime order {q}")
                return _certificate(config.graph_id, cand, ROUTE_DIRECT, trace)
    trace.append(
        f"direct-search: {SAMPLE_COUNT} samples without a hit "
        f"(order {order} exceeds enumeration bound)"
    )
    return None


def _route_prime_power(g, grp, config, trace) -> Certificate | None:
    n = g.n
    factors = prime_factors(n)
    if len(factors) != 1:
        return None
    try:
        el = semiregular_of_prime_power_degree(
            grp, bound=config.enum_bound, seed=config.seed
        )
    except BoundExceededError as exc:
        trace.append(f"prime-power: {exc}")
        return None
    p = next(iter(factors))
    trace.append(f"prime-power: degree {n} = {p}^{factors[p]}, Sylow center element")
    return _certificate(config.graph_id, el, ROUTE_PRIME_POWER, trace)


def _candidate_normal_subgroups(grp, trace) -> list[PermGroup]:
    if grp.order() > NORMAL_BOUND:
        trace.append(
            f"normal-subgroup scan skipped: order {grp.order()} exceeds "
            f"bound {NORMAL_BOUND}"
        )
        return []
    return minimal_normal_subgroups(grp, NORMAL_BOUND)


def _route_quotient_lift(g, grp, config, trace, depth, max_depth) -> Certificate | None:
    if depth >= max_depth:
        trace.append("quotient-lift: recursion depth cap reached")
        return None
    for nsub in _candidate_normal_subgroups(grp, trace):
        partition = nsub.orbit_partition()
        if len(partition) < 3 or len(partition) >= g.n:
            continue
        bundle = action_on_partition(grp, partition)
        qgraph = quotient_graph(g, partition)
        if qgraph.n != len(partition):
            continue
        # the recursion is internal to this route: the quotient search uses
        # every route, whatever the top-level restriction was
        sub_config = replace(config, routes=ALL_ROUTES)
        trace.append(
            f"quotient-lift: normal subgroup of order {nsub.order()} with "
            f"{len(partition)} orbits; recursing on {qgraph.n} classes"
        )
        sub_cert = _search(
            qgraph, bundle.image_group, sub_config, trace, depth + 1, max_depth
        )
        if sub_cert is None or sub_cert.element is None:
            trace.append("quotient-lift: recursion found nothing liftable")
            continue
        # the coprime lifting lemma needs prime order: lift the power of the
        # quotient element whose order is a prime q not dividing |K|
        r = sub_cert.element_order
        k_order = bundle.kernel.order()
        q = next((q for q in sorted(prime_factors(r)) if k_order % q), None)
        if q is None:
            trace.append(
                f"quotient-lift: found order {r} but no prime divisor is "
                f"coprime to kernel order {k_order}"
            )
            continue
        lifted = lift_semiregular(bundle, grp, sub_cert.element ** (r // q), q)
        trace.append(f"quotient-lift: lifted element of order {q} through kernel")
        return _certificate(config.graph_id, lifted, ROUTE_QUOTIENT_LIFT, trace)
    return None


def _route_buddy_swap(g, grp, config, trace) -> Certificate | None:
    for nsub in _candidate_normal_subgroups(grp, trace):
        if len(prime_factors(nsub.order())) != 1 or 2 not in prime_factors(nsub.order()):
            continue
        partition = nsub.orbit_partition()
        if len(partition) < 3:
            continue
        try:
            bs = c4_buddy_structure(g, partition)
        except PreconditionError:
            continue
        if bs.buddies_per_vertex != 1:
            trace.append(
                f"buddy-swap: {bs.buddies_per_vertex} buddies per vertex, "
                "swap inapplicable"
            )
            continue
        swap = buddy_swap_automorphism(g, bs)
        if not grp.contains(swap):
            trace.append("buddy-swap: swap involution lies outside the group")
            continue
        trace.append("buddy-swap: unique-buddy involution")
        return _certificate(config.graph_id, swap, ROUTE_BUDDY_SWAP, trace)
    return None


# -- buddy machinery -----------------------------------------------------------


def c4_buddy_structure(g: Graph, partition) -> BuddyStructure:
    """Validate the disjoint-4-cycle structure between adjacent classes and
    record each vertex's antipode ("buddy") per adjacent class.

    Preconditions: no edges inside classes; between adjacent classes every
    vertex has exactly two neighbours on the other side, and those
    neighbour-pairs match up into disjoint 4-cycles.
    """
    classes, class_index = partition_index(partition, g.n)
    if any(class_index[u] == class_index[w] for u, w in g.edges()):
        raise PreconditionError("partition has edges inside a class")

    nbrs_by_class: list[dict] = [dict() for _ in range(g.n)]
    for v in range(g.n):
        for w in g.neighbors(v):
            c = int(class_index[w])
            nbrs_by_class[v].setdefault(c, []).append(int(w))
    for v in range(g.n):
        for c, lst in nbrs_by_class[v].items():
            if len(lst) != 2:
                raise PreconditionError(
                    f"vertex {v} has {len(lst)} neighbours in class {c}, not 2"
                )

    # group vertices of each class by their 2-neighbour set in the other class
    buddy_map: list[dict] = [dict() for _ in range(g.n)]
    class_adj = set()
    for v in range(g.n):
        cv = int(class_index[v])
        for c in nbrs_by_class[v]:
            class_adj.add((min(cv, c), max(cv, c)))
    for ca, cb in sorted(class_adj):
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
    """The involution swapping every vertex with its unique buddy."""
    if bs.buddies_per_vertex != 1:
        raise PreconditionError(
            f"each vertex has {bs.buddies_per_vertex} buddies, not 1"
        )
    img = np.empty(g.n, dtype=_INT)
    for v in range(g.n):
        img[v] = next(iter(set(bs.buddy_map[v].values())))
    perm = Permutation(img)
    for v in range(g.n):
        z = int(img[v])
        if z == v or int(img[z]) != v:
            raise RuntimeError("buddy swap is not a fixed-point-free involution")
        if not np.array_equal(g.neighbors(v), g.neighbors(z)):
            raise RuntimeError(
                f"neighbourhood equality fails for buddies {v}, {z} (internal)"
            )
    if not g.is_automorphism(perm):
        raise RuntimeError("buddy swap is not an automorphism (internal)")
    return perm


# -- proof diagnostics --------------------------------------------------------


def _record(name, applicable, passed, detail) -> CheckRecord:
    return CheckRecord(name=name, applicable=applicable, passed=passed, detail=detail)


def arc_stabilizer_bound_check(
    g: Graph,
    m_sub: PermGroup,
    *,
    s_values=(1, 2, 3, 4),
    samples: int = 100,
    seed: int = 0,
) -> list[tuple[int, int, bool]]:
    """For sampled s-arcs, check |M_{v0}| / |M_alpha| <= 2^s.

    Returns (s, violations, passed) triples. M_alpha is the pointwise
    stabilizer of the arc's vertices, computed from a chain based there.
    """
    out = []
    for s in s_values:
        violations = 0
        arcs = s_arcs(g, s, sample=samples, seed=seed + s)
        for arc in arcs:
            m_v0 = m_sub.pointwise_stabilizer([arc[0]]).order()
            m_arc = m_sub.pointwise_stabilizer(list(arc)).order()
            if m_v0 // m_arc > 2**s:
                violations += 1
        out.append((s, violations, violations == 0))
    return out


def proof_invariant_report(g: Graph, grp: PermGroup, *, seed: int = 0) -> ProofReport:
    """Run the structural checks behind the pipeline on one instance.

    Each check names its hypothesis; when the hypothesis cannot be
    established within bounds (a group order above ``NORMAL_BOUND``) the
    check is marked inapplicable rather than failed. The arc-stabilizer
    check samples ``ARC_SAMPLES`` s-arcs per s, drawn under ``seed``.
    """
    check_automorphisms(g, grp)
    records: list[CheckRecord] = []

    # (a) primes dividing a vertex stabilizer also divide the local action
    orbit_sizes = {len(o) for o in grp.orbit_partition()}
    if len(orbit_sizes) != 1:
        records.append(
            _record(
                "local-action-prime-divisibility",
                False,
                None,
                "orbits of unequal size",
            )
        )
    else:
        # |G_v| = |G| / orbit size, computed on factored orders
        orbit_size = orbit_sizes.pop()
        stab_factors = grp.order_factored() - prime_factors(orbit_size)
        local = local_action(g, grp, 0)
        local_order = local.order()
        bad = [q for q in stab_factors if stab_factors[q] > 0 and local_order % q != 0]
        records.append(
            _record(
                "local-action-prime-divisibility",
                True,
                not bad,
                f"|G_v| primes {sorted(q for q in stab_factors if stab_factors[q] > 0)}, "
                f"local action order {local_order}"
                + (f", failing primes {bad}" if bad else ""),
            )
        )

    mins: list[PermGroup] = []
    if grp.order() <= NORMAL_BOUND:
        mins = minimal_normal_subgroups(grp, NORMAL_BOUND)
    else:
        note = f"group order {grp.order()} exceeds bound {NORMAL_BOUND}"
        for name in (
            "kernel-fixing-classes-is-2-group",
            "conjugate-cover-counting-bound",
            "arc-stabilizer-index-bound",
            "two-fixed-classes-propagation",
            "no-intra-class-edges",
        ):
            records.append(_record(name, False, None, note))
        return ProofReport(records=tuple(records))

    # (b) when the quotient has odd prime valency and local class-orbits have
    # size 2, the kernel's vertex stabilizer is a 2-group
    rec_b = _record(
        "kernel-fixing-classes-is-2-group", False, None, "no qualifying normal subgroup"
    )
    for nsub in mins:
        partition = nsub.orbit_partition()
        if len(partition) < 3 or len(partition) >= g.n:
            continue
        qgraph = quotient_graph(g, partition)
        d = qgraph.valency()
        if d is None or d < 3 or len(prime_factors(d)) != 1 or d % 2 == 0:
            continue
        v = 0
        stab_n = nsub.point_stabilizer(v)
        if stab_n.is_trivial():
            continue
        nbr_orbit_sizes = {
            len(stab_n.orbit(int(w)) & set(int(x) for x in g.neighbors(v)))
            for w in g.neighbors(v)
        }
        if nbr_orbit_sizes != {2}:
            continue
        bundle = action_on_partition(grp, partition)
        kv = bundle.kernel.point_stabilizer(v)
        factored = kv.order_factored()
        is_2_group = set(factored) <= {2}
        rec_b = _record(
            "kernel-fixing-classes-is-2-group",
            True,
            is_2_group,
            f"quotient valency {d}, |K_v| = {kv.order()}",
        )
        break
    records.append(rec_b)

    # (c) counting bound for a minimal normal M central in a normal 2-subgroup
    rec_c = _record(
        "conjugate-cover-counting-bound", False, None, "no central-in-2-subgroup minimal normal"
    )
    for p_sub in mins:
        if set(prime_factors(p_sub.order())) != {2}:
            continue
        partition = p_sub.orbit_partition()
        if len(partition) < 3:
            continue
        for m_sub in mins:
            if not _centralizes(m_sub, p_sub) or not is_subgroup(m_sub, p_sub):
                continue
            if any(
                not el.is_identity() and el.is_semiregular()
                for el in m_sub.elements(NORMAL_BOUND)
            ):
                rec_c = _record(
                    "conjugate-cover-counting-bound",
                    False,
                    None,
                    "M contains a semiregular element; bound not required",
                )
                continue
            m_v = m_sub.point_stabilizer(0).order()
            ok = m_sub.order() <= m_v * len(partition)
            rec_c = _record(
                "conjugate-cover-counting-bound",
                True,
                ok,
                f"|M| = {m_sub.order()}, |M_v| = {m_v}, classes = {len(partition)}",
            )
            break
        if rec_c.applicable:
            break
    records.append(rec_c)

    # (d) arc stabilizer index bound over sampled s-arcs; candidates are the
    # minimal normal subgroups plus the kernels of the actions on their
    # orbit partitions (those kernels are the natural M on fiber-type graphs)
    candidates = list(mins)
    for nsub in mins:
        partition = nsub.orbit_partition()
        if 3 <= len(partition) < g.n:
            candidates.append(action_on_partition(grp, partition).kernel)
    rec_d = _record(
        "arc-stabilizer-index-bound", False, None, "no normal subgroup with local orbits of size <= 2"
    )
    for m_sub in candidates:
        stab_m = m_sub.point_stabilizer(0)
        if stab_m.is_trivial():
            continue
        sizes = {
            len(stab_m.orbit(int(w)) & set(int(x) for x in g.neighbors(0)))
            for w in g.neighbors(0)
        }
        if not sizes <= {1, 2}:
            continue
        results = arc_stabilizer_bound_check(
            g, m_sub, s_values=(1, 2, 3), samples=ARC_SAMPLES, seed=seed
        )
        ok = all(passed for _, _, passed in results)
        rec_d = _record(
            "arc-stabilizer-index-bound",
            True,
            ok,
            "; ".join(f"s={s}: {v} violations" for s, v, _ in results),
        )
        break
    records.append(rec_d)

    # (e) subgroups fixing two classes pointwise fix adjacent classes pointwise
    rec_e = _record(
        "two-fixed-classes-propagation", False, None, "no buddy structure available"
    )
    for p_sub in mins:
        if set(prime_factors(p_sub.order())) != {2}:
            continue
        partition = p_sub.orbit_partition()
        if len(partition) < 3:
            continue
        try:
            c4_buddy_structure(g, partition)
        except PreconditionError:
            continue
        m_sub = next(
            (m for m in mins if is_subgroup(m, p_sub) and _centralizes(m, p_sub)),
            None,
        )
        if m_sub is None:
            continue
        rec_e = _check_claim(g, m_sub, partition)
        break
    records.append(rec_e)

    # (f) no intra-class edges for normal-subgroup orbit partitions
    rec_f = _record("no-intra-class-edges", False, None, "no normal subgroup with >= 3 orbits")
    for nsub in mins:
        partition = nsub.orbit_partition()
        if len(partition) < 3 or len(partition) >= g.n:
            continue
        ok = not has_intra_class_edges(g, partition)
        rec_f = _record(
            "no-intra-class-edges",
            True,
            ok,
            f"orbit partition of normal subgroup of order {nsub.order()}",
        )
        break
    records.append(rec_f)

    return ProofReport(records=tuple(records))


def _centralizes(a: PermGroup, b: PermGroup) -> bool:
    return all(x * y == y * x for x in a.generators for y in b.generators)


def _check_claim(g: Graph, m_sub: PermGroup, partition) -> CheckRecord:
    classes, class_index = partition_index(partition, g.n)
    adjacency: dict[int, set] = {c: set() for c in range(len(classes))}
    for u, w in g.edges():
        cu, cw = int(class_index[u]), int(class_index[w])
        if cu != cw:
            adjacency[cu].add(cw)
            adjacency[cw].add(cu)
    checked = 0
    for ca in range(len(classes)):
        for cb in range(ca + 1, len(classes)):
            x_sub = m_sub.pointwise_stabilizer(list(classes[ca]) + list(classes[cb]))
            if x_sub.is_trivial():
                continue
            for cc in adjacency[ca] & adjacency[cb]:
                checked += 1
                for gen in x_sub.generators:
                    if any(gen(int(v)) != int(v) for v in classes[cc]):
                        return _record(
                            "two-fixed-classes-propagation",
                            True,
                            False,
                            f"X fixing classes {ca},{cb} moves adjacent class {cc}",
                        )
            if checked >= 50:
                break
        if checked >= 50:
            break
    if checked == 0:
        return _record(
            "two-fixed-classes-propagation",
            False,
            None,
            "no nontrivial two-class pointwise stabilizers",
        )
    return _record(
        "two-fixed-classes-propagation",
        True,
        True,
        f"{checked} class triples checked",
    )
