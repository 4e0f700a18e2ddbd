import hashlib
import itertools
import json
import random
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from semireg.perm import Permutation
from semireg.group import BoundExceededError, PermGroup, PreconditionError
from semireg.graphs import Graph, complete_graph, cycle_graph
from semireg import engine
from semireg.engine import (
    ALL_ROUTES,
    Certificate,
    EngineConfig,
    InconclusiveError,
    arc_stabilizer_bound_check,
    buddy_swap_automorphism,
    c4_buddy_structure,
    find_semiregular,
    local_action,
    proof_invariant_report,
    verify_certificate,
)
from semireg.families import (
    k12_m11,
    praeger_xu,
    praeger_xu_group,
    px_fiber_translations,
)

from forgeries import forgeries
from oracles import orbit_t, s_arcs_t


def petersen_instance():
    import itertools

    from semireg.graphs import Graph

    pairs = list(itertools.combinations(range(5), 2))
    pos = {pq: i for i, pq in enumerate(pairs)}
    edges = [
        (i, j)
        for i, a in enumerate(pairs)
        for j, b in enumerate(pairs)
        if i < j and not set(a) & set(b)
    ]
    graph = Graph(10, edges)

    def induced(perm):
        img = [pos[tuple(sorted((perm(a), perm(b))))] for a, b in pairs]
        return Permutation(img)

    a5_gens = [
        Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]),
        Permutation.from_cycles(5, [(0, 1, 2)]),
    ]
    return graph, PermGroup([induced(g) for g in a5_gens], 10)


def test_local_action_examples(d6, s4):
    c6 = cycle_graph(6)
    la = local_action(c6, d6, 0)
    assert la.degree == 2 and la.order() == 2
    la2 = local_action(complete_graph(4), s4, 0)
    assert la2.order() == 6  # S3 on the three neighbours
    graph, grp = petersen_instance()
    la3 = local_action(graph, grp, 0)
    assert la3.degree == 3
    assert la3.is_transitive()


def test_verify_certificate_valid(d6):
    c6 = cycle_graph(6)
    rot = Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    cert = Certificate(
        graph_id="c6",
        element=rot,
        element_order=6,
        cycle_length=6,
        method="direct-search",
        trace=(),
    )
    ok, reason = verify_certificate(c6, d6, cert)
    assert ok, reason


def test_verify_certificate_rejections():
    # one forgery for each guard, each refused with its own reason only
    for name, (graph, group, cert, reason) in forgeries().items():
        assert verify_certificate(graph, group, cert) == (False, reason), name


def test_find_raises_on_a_certificate_that_fails_verification(monkeypatch):
    # find_semiregular re-checks what the search yields before returning it
    graph, group, cert, reason = forgeries()["not-semiregular"]
    monkeypatch.setattr(engine, "_search", lambda *args, **kwargs: iter([cert]))
    with pytest.raises(RuntimeError, match=f"certificate failed verification: {reason}"):
        find_semiregular(graph, group)


def test_find_on_c6_d6(d6):
    cert = find_semiregular(cycle_graph(6), d6)
    assert cert.method == "direct-search"
    assert cert.element_order in (2, 3, 6)
    ok, reason = verify_certificate(cycle_graph(6), d6, cert)
    assert ok, reason


def test_find_exhausted_none_on_m11():
    k12, m11 = k12_m11()
    cert = find_semiregular(k12, m11, EngineConfig(graph_id="k12"))
    assert cert.method == "exhausted-none"
    assert cert.element is None
    ok, reason = verify_certificate(k12, m11, cert)
    assert ok, reason


def test_verify_checks_the_group_against_the_graph():
    # an exhausted-none claim is about a group acting on the graph; a group
    # of another degree, with a generator that is no automorphism, or that
    # is not transitive once passed as valid
    k12, m11 = k12_m11()
    cert = Certificate("k12", None, 0, 0, engine.EXHAUSTED_NONE, ())
    assert verify_certificate(k12, m11, cert) == (True, "")
    swap = Permutation.from_cycles(12, [(0, 1)])
    ok, reason = verify_certificate(k12, PermGroup([swap]), cert)
    assert not ok and reason == "group is not vertex-transitive"
    degree5 = PermGroup([Permutation.from_cycles(5, [(0, 1)])])
    ok, reason = verify_certificate(k12, degree5, cert)
    assert not ok and reason == "group degree does not match vertex count"
    # an element certificate once reached the group's membership test,
    # which raises ValueError on another degree
    rotation = Permutation.from_cycles(12, [tuple(range(12))])
    element_cert = Certificate("k12", rotation, 12, 12, "direct-search", ())
    ok, reason = verify_certificate(k12, degree5, element_cert)
    assert not ok and reason == "group degree does not match vertex count"
    # S6 acts transitively on C6's vertices, but (0 1) is no automorphism
    s6 = PermGroup(
        [Permutation.from_cycles(6, [(0, 1)]), Permutation.from_cycles(6, [tuple(range(6))])]
    )
    ok, reason = verify_certificate(cycle_graph(6), s6, cert)
    assert not ok and "is not an automorphism" in reason


def test_find_with_rotation_added_on_k12():
    k12, m11 = k12_m11()
    big = PermGroup(
        list(m11.generators) + [Permutation.from_cycles(12, [tuple(range(12))])], 12
    )
    cert = find_semiregular(k12, big)
    assert cert.method != "exhausted-none"
    assert cert.element is not None
    ok, reason = verify_certificate(k12, big, cert)
    assert ok, reason


def test_find_prime_power_route():
    g, _ = praeger_xu(2, 4, 1)  # 8 = 2^3 vertices
    grp = praeger_xu_group(2, 4, 1)
    cert = find_semiregular(g, grp, EngineConfig(routes=("prime-power",)))
    assert cert.method == "prime-power"
    assert cert.element_order == 2
    ok, reason = verify_certificate(g, grp, cert)
    assert ok, reason


def test_find_quotient_lift_route(d6):
    cert = find_semiregular(cycle_graph(6), d6, EngineConfig(routes=("quotient-lift",)))
    assert cert.method == "quotient-lift"
    assert cert.element == Permutation.from_cycles(6, [(0, 2, 4), (1, 3, 5)])
    ok, reason = verify_certificate(cycle_graph(6), d6, cert)
    assert ok, reason


@pytest.mark.parametrize(
    "p, s, quotient",
    [(3, 1, False), (3, 2, False), (5, 1, False), (5, 2, False), (3, 2, True), (5, 2, True)],
)
def test_quotient_lift_alone_lifts_prime_power_of_composite_order(p, s, quotient):
    # the recursion on these quotients returns an element of order 4; the
    # route must lift a prime-order power of it instead of raising
    from semireg.families import _px_diagonal_subgroup
    from semireg.graphs import quotient_graph
    from semireg.group import action_on_partition

    g, _ = praeger_xu(p, 4, s)
    grp = praeger_xu_group(p, 4, s)
    if quotient:
        partition = _px_diagonal_subgroup(p, 4, s).orbit_partition()
        grp = action_on_partition(grp, partition).image_group
        g = quotient_graph(g, partition)
    cert = find_semiregular(g, grp, EngineConfig(routes=("quotient-lift",)))
    assert cert.method == "quotient-lift"
    ok, reason = verify_certificate(g, grp, cert)
    assert ok, reason


def test_find_buddy_swap_route():
    g, _ = praeger_xu(2, 4, 1)
    grp = praeger_xu_group(2, 4, 1)
    cert = find_semiregular(g, grp, EngineConfig(routes=("buddy-swap",)))
    assert cert.method == "buddy-swap"
    assert cert.element_order == 2
    assert len(cert.element.moved_points()) == g.n  # fixed-point-free
    ok, reason = verify_certificate(g, grp, cert)
    assert ok, reason


def test_find_inconclusive_vs_exhausted(monkeypatch):
    # M11 on 12 points has no semiregular element: random sampling under a
    # tiny enumeration bound cannot conclude, full enumeration proves none
    g, grp = k12_m11()
    direct = EngineConfig(routes=("direct-search",))
    with monkeypatch.context() as patch:
        patch.setattr(engine, "DEFAULT_BOUND", 10)
        with pytest.raises(InconclusiveError):
            find_semiregular(g, grp, direct)
    cert = find_semiregular(g, grp, direct)
    assert cert.method == "exhausted-none" and cert.element is None


def test_find_requires_connected_and_transitive(d6):
    from semireg.graphs import Graph

    disconnected = Graph(6, [(0, 1), (2, 3), (4, 5)])
    flip = PermGroup([Permutation.from_cycles(6, [(0, 1), (2, 3), (4, 5)])])
    with pytest.raises(PreconditionError, match="connected"):
        find_semiregular(disconnected, flip)
    intrans = PermGroup([Permutation.from_cycles(6, [(1, 5), (2, 4)])])
    with pytest.raises(PreconditionError, match="transitive"):
        find_semiregular(cycle_graph(6), intrans)


def test_an_unknown_route_is_refused_before_any_search():
    # direct-search answers on C(2,4,1) at once, so a check made route by
    # route would let the first order through and refuse only the second
    g, _ = praeger_xu(2, 4, 1)
    grp = praeger_xu_group(2, 4, 1)
    for routes in [("direct-search", "bogus"), ("bogus", "direct-search")]:
        with pytest.raises(ValueError, match="unknown route 'bogus'"):
            find_semiregular(g, grp, EngineConfig(routes=routes))


def test_route_certificates_have_prime_order_except_direct(d6):
    # every structured route emits prime-order elements; direct search may
    # emit composite order only in the exhaustive branch
    g, _ = praeger_xu(3, 3, 1)
    grp = praeger_xu_group(3, 3, 1)
    for routes in [("prime-power",), ("quotient-lift",)]:
        try:
            cert = find_semiregular(g, grp, EngineConfig(routes=routes))
        except InconclusiveError:
            continue
        from semireg.group import prime_factors

        assert len(prime_factors(cert.element_order)) == 1


def test_c4_buddy_structure_on_c4():
    c4 = cycle_graph(4)
    bs = c4_buddy_structure(c4, [[0, 2], [1, 3]])
    assert bs.buddies_per_vertex == 1
    assert bs.buddy_map[0] == {1: 2}
    assert bs.buddy_map[1] == {0: 3}
    swap = buddy_swap_automorphism(c4, bs)
    assert swap == Permutation.from_cycles(4, [(0, 2), (1, 3)])


def test_c4_buddy_structure_on_px231():
    g, _ = praeger_xu(2, 3, 1)
    # classes are the fibers {i} x Z_2 = {2i, 2i+1} under the vertex indexing
    partition = [[2 * i, 2 * i + 1] for i in range(3)]
    bs = c4_buddy_structure(g, partition)
    assert bs.buddies_per_vertex == 1
    # each vertex's adjacent classes, in increasing order
    assert [list(m) for m in bs.buddy_map] == [[1, 2]] * 2 + [[0, 2]] * 2 + [[0, 1]] * 2
    swap = buddy_swap_automorphism(g, bs)
    # the fiber flip (i, x) -> (i, x+1)
    assert swap == Permutation([1, 0, 3, 2, 5, 4])
    assert swap.is_semiregular() and g.is_automorphism(swap)


def test_c4_buddy_structure_rejects_c6():
    with pytest.raises(PreconditionError, match="not 2"):
        c4_buddy_structure(cycle_graph(6), [[0, 3], [1, 4], [2, 5]])


def test_c4_buddy_structure_rejects_intra_edges():
    with pytest.raises(PreconditionError, match="inside"):
        c4_buddy_structure(complete_graph(4), [[0, 1], [2, 3]])


def test_buddy_swap_requires_unique_buddies():
    # C(2,4,2) fibers: two distinct buddies per vertex (one per direction)
    g, _ = praeger_xu(2, 4, 2)
    partition = [[4 * i + e for e in range(4)] for i in range(4)]
    bs = c4_buddy_structure(g, partition)
    assert bs.buddies_per_vertex == 2
    with pytest.raises(PreconditionError, match="not 1"):
        buddy_swap_automorphism(g, bs)


def test_buddy_symmetry_property():
    for (p, r, s) in [(2, 4, 1), (2, 5, 1), (2, 4, 2), (2, 5, 3)]:
        g, _ = praeger_xu(p, r, s)
        ps = p**s
        partition = [[i * ps + e for e in range(ps)] for i in range(r)]
        bs = c4_buddy_structure(g, partition)
        for v in range(g.n):
            for cls, buddy in bs.buddy_map[v].items():
                assert bs.buddy_map[buddy][cls] == v


def test_arc_stabilizer_bound_on_px():
    g, _ = praeger_xu(2, 5, 1)
    fibers = px_fiber_translations(2, 5, 1)
    results = arc_stabilizer_bound_check(g, fibers, s_values=(1, 2, 3, 4))
    assert all(passed for _, _, passed in results)
    # an isolated vertex 0 starts no arcs, so nothing breaks the bound
    empty, s3 = Graph(3, ()), PermGroup(
        [Permutation.from_cycles(3, [(0, 1)]), Permutation.from_cycles(3, [(1, 2)])]
    )
    assert arc_stabilizer_bound_check(empty, s3, s_values=(1,)) == [(1, 0, True)]


def _edge_set(g):
    return {frozenset(e) for e in g.edges()}


def _sympy_arc_indices(g, m_sub, s, starts=None):
    """|M_{v0} : M_alpha| for each s-arc alpha of ``s_arcs_t``, with
    the stabilizers taken by sympy."""
    from sympy.combinatorics import Permutation as SymPerm, PermutationGroup

    sym = PermutationGroup([SymPerm([int(x) for x in a.images]) for a in m_sub.generators])
    stabilizers = {(): sym}

    def stabilizer(prefix):
        # the pointwise stabilizer of prefix, one point at a time
        if prefix not in stabilizers:
            stabilizers[prefix] = stabilizer(prefix[:-1]).stabilizer(prefix[-1])
        return stabilizers[prefix]

    return [
        stabilizer(arc[:1]).order() // stabilizer(arc).order()
        for arc in s_arcs_t(_edge_set(g), g.n, s, starts)
    ]


def _arc_instance(name):
    from semireg.families import symmetric_group

    if name == "k5-s5":
        return complete_graph(5), symmetric_group(5)
    if name == "px-2-5-1":
        return praeger_xu(2, 5, 1)[0], px_fiber_translations(2, 5, 1)
    return praeger_xu(2, 5, 1)[0], praeger_xu_group(2, 5, 1)


@pytest.mark.parametrize("instance", ["k5-s5", "px-2-5-1"])
def test_arc_stabilizer_index_matches_sympy(instance):
    g, m_sub = _arc_instance(instance)
    results = arc_stabilizer_bound_check(g, m_sub, s_values=(1, 2, 3))
    expected = [
        sum(index > 2**s for index in _sympy_arc_indices(g, m_sub, s, starts=[0]))
        for s in (1, 2, 3)
    ]
    assert [v for _, v, _ in results] == expected
    if instance == "k5-s5":
        # M_{v0} = S4 on the other 4 vertices: a 1-arc has index |S4 : S3| = 4,
        # a 2-arc |S4 : S2| = 12 and a 3-arc 12 or 24, each above 2^s
        assert expected == [4, 12, 36]
        assert not any(passed for _, _, passed in results)
    else:
        assert expected == [0, 0, 0]


@pytest.mark.parametrize("instance", ["k5-s5", "px-2-5-1", "px-2-5-1-group"])
def test_arcs_from_vertex_0_give_every_arc_index(instance):
    # M is normal in a vertex-transitive group (S5, or the Praeger-Xu group
    # of C(2,5,1)), so the indices over every s-arc of the graph are the
    # orbit sizes of M_0 on the s-arcs from vertex 0
    g, m_sub = _arc_instance(instance)
    for s in (1, 2, 3):
        orbits = engine._arc_orbits(g, m_sub.point_stabilizer(0), s)
        assert sum(map(len, orbits)) == len(s_arcs_t(_edge_set(g), g.n, s, starts=[0]))
        assert set(map(len, orbits)) == set(_sympy_arc_indices(g, m_sub, s))


def test_neighbour_orbit_sizes_against_per_neighbour_orbits(corpus):
    # every minimal normal subgroup of the default corpus that the report
    # checks reach, against one orbit walk per neighbour of vertex 0
    from semireg.group import minimal_normal_subgroups

    seen = 0
    for inst in corpus:
        if inst.group.order() > engine.DEFAULT_BOUND:
            continue
        for m_sub in minimal_normal_subgroups(inst.group):
            stab = m_sub.point_stabilizer(0)
            gens = [tuple(x.images.tolist()) for x in stab.generators]
            expected = (
                None
                if stab.is_trivial()
                else {len(orbit_t(gens, int(w))) for w in inst.graph.neighbors(0)}
            )
            assert engine._neighbour_orbit_sizes(inst.graph, stab) == expected, inst.id
            seen += expected is not None
    assert seen > 0


def test_arc_stabilizer_index_needs_a_vertex_transitive_group():
    # rotation by 2 on C6 has the two orbits {0, 2, 4} and {1, 3, 5}
    rot2 = PermGroup([Permutation.from_cycles(6, [(0, 2, 4), (1, 3, 5)])])
    report = proof_invariant_report(cycle_graph(6), rot2)
    (rec,) = [r for r in report.records if r.name == "arc-stabilizer-index-bound"]
    assert (rec.applicable, rec.passed, rec.detail) == (
        False,
        None,
        "G is not vertex-transitive: the s-arcs from vertex 0 need not stand "
        "for all s-arcs",
    )


def test_proof_report_px241():
    g, _ = praeger_xu(2, 4, 1)
    grp = praeger_xu_group(2, 4, 1)
    report = proof_invariant_report(g, grp)
    by_name = {r.name: r for r in report.records}
    assert by_name["local-action-prime-divisibility"].applicable
    assert by_name["local-action-prime-divisibility"].passed
    assert by_name["arc-stabilizer-index-bound"].applicable
    assert by_name["arc-stabilizer-index-bound"].passed
    assert by_name["no-intra-class-edges"].applicable
    assert by_name["no-intra-class-edges"].passed


def test_proof_report_counting_bound_and_propagation_on_px():
    def records(p, r, s):
        g, _ = praeger_xu(p, r, s)
        report = proof_invariant_report(g, praeger_xu_group(p, r, s))
        return {rec.name: (rec.applicable, rec.passed, rec.detail) for rec in report.records}

    px231 = records(2, 3, 1)
    assert px231["conjugate-cover-counting-bound"] == (
        True, True, "|M| = 4, |M_v| = 2, classes = 3"
    )
    px272 = records(2, 7, 2)
    assert px272["conjugate-cover-counting-bound"] == (
        False, None, "M contains a semiregular element; bound not required"
    )
    assert px272["two-fixed-classes-propagation"] == (True, True, "7 class triples checked")


def test_proof_report_propagation_needs_a_twin_free_graph(corpus):
    # quotient-px-p2-r5-s2 is C_5[2K1]: each class is a pair of twins, and
    # swapping one pair fixes every other class, so (e) cannot hold there
    by_id = {inst.id: inst for inst in corpus}

    def propagation(ident):
        inst = by_id[ident]
        report = proof_invariant_report(inst.graph, inst.group)
        (rec,) = [r for r in report.records if r.name == "two-fixed-classes-propagation"]
        return rec.applicable, rec.passed, rec.detail

    assert engine._twin_classes(by_id["quotient-px-p2-r5-s2"].graph)[0] == [0, 1]
    assert propagation("quotient-px-p2-r5-s2") == (
        False, None, "graph has twins: vertices [0, 1] share a neighbourhood (5 twin classes)"
    )
    assert engine._twin_classes(by_id["px-p2-r7-s2"].graph) == []
    assert propagation("px-p2-r7-s2") == (True, True, "7 class triples checked")


def test_check_e_one_point_per_class(corpus):
    # check (e) takes M, a minimal normal 2-subgroup whose orbits are the
    # classes. M is elementary abelian and transitive on each class, so it
    # fixes a class pointwise as soon as it fixes one point of it
    applies = []
    for inst in corpus:
        if engine._twin_classes(inst.graph):
            continue
        try:
            quotients = engine._ReportInputs(inst.graph, inst.group).quotients
        except BoundExceededError:
            continue
        for m_sub, partition in quotients:
            if not engine._is_2_group(m_sub):
                continue
            try:
                bs = c4_buddy_structure(inst.graph, partition)
            except PreconditionError:
                continue
            if engine._check_claim(m_sub, bs)[0]:
                applies.append(inst.id)
                classes = bs.partition
                for ca, cb in itertools.combinations(range(len(classes)), 2):
                    x_sub = m_sub.pointwise_stabilizer([classes[ca][0], classes[cb][0]])
                    whole = m_sub.pointwise_stabilizer(classes[ca] + classes[cb])
                    assert x_sub.order() == whole.order(), (inst.id, ca, cb)
                    for gen in x_sub.generators + m_sub.generators:
                        for cls in classes:
                            if gen(cls[0]) == cls[0]:
                                assert all(gen(v) == v for v in cls), (inst.id, cls)
            break
    assert applies == [
        "px-p2-r7-s2",
        "px-p2-r7-s3",
        "cover-px-p2-r7-s2",
        "cover-px-p2-r7-s3",
        "quotient-px-p2-r7-s3",
    ]


def test_proof_report_k12_m11():
    k12, m11 = k12_m11()
    report = proof_invariant_report(k12, m11)
    by_name = {r.name: r for r in report.records}
    assert by_name["local-action-prime-divisibility"].applicable
    assert by_name["local-action-prime-divisibility"].passed
    for name in (
        "kernel-fixing-classes-is-2-group",
        "conjugate-cover-counting-bound",
        "arc-stabilizer-index-bound",
        "two-fixed-classes-propagation",
        "no-intra-class-edges",
    ):
        assert not by_name[name].applicable


def test_proof_report_c6_d6(d6):
    report = proof_invariant_report(cycle_graph(6), d6)
    by_name = {r.name: r for r in report.records}
    assert by_name["local-action-prime-divisibility"].applicable
    assert by_name["local-action-prime-divisibility"].passed
    for name in (
        "kernel-fixing-classes-is-2-group",
        "conjugate-cover-counting-bound",
        "arc-stabilizer-index-bound",
        "two-fixed-classes-propagation",
    ):
        assert not by_name[name].applicable


def test_find_is_sound_across_seeds(d6):
    g, _ = praeger_xu(2, 4, 2)
    grp = praeger_xu_group(2, 4, 2)
    for seed in range(3):
        cert = find_semiregular(g, grp, EngineConfig(seed=seed))
        ok, reason = verify_certificate(g, grp, cert)
        assert ok, reason


# (method, element images, trace) of every default-corpus certificate at
# seed 1, for each route setting in turn. Update this hash only with a change
# that means to alter certificates, and say so in CHANGES.md.
GOLDEN_ROUTE_SETTINGS = (
    ("prime-power", "quotient-lift", "buddy-swap"),
    ("buddy-swap",),
    ALL_ROUTES,
)
GOLDEN_CERTIFICATES_SHA256 = (
    "0e86225ed85f824088251aa00c177342b98bd85fc1909c65509af88442157fce"
)


def _find_or_none(inst, routes):
    config = EngineConfig(routes=routes, seed=1, graph_id=inst.id)
    try:
        return find_semiregular(inst.graph, inst.group, config)
    except InconclusiveError:
        return None


@pytest.fixture(scope="module")
def golden_certificates(corpus):
    """(routes, instance, certificate) for every default-corpus instance at
    seed 1, under each route setting in turn; None when inconclusive."""
    return [
        (routes, inst, _find_or_none(inst, routes))
        for routes in GOLDEN_ROUTE_SETTINGS
        for inst in corpus
    ]


def test_golden_certificates_on_corpus(corpus, golden_certificates):
    assert len(corpus) == 86
    digest = hashlib.sha256()
    for routes, inst, cert in golden_certificates:
        if cert is None:
            row = ["inconclusive", None, []]
        else:
            row = [
                cert.method,
                None if cert.element is None else cert.element.images.tolist(),
                list(cert.trace),
            ]
        digest.update((json.dumps([list(routes), inst.id, row]) + "\n").encode())
    assert digest.hexdigest() == GOLDEN_CERTIFICATES_SHA256


# the lines that end a certificate's path where its element (or the proof
# that none exists) was found; quotient-lift adds its lines after one
_EXHAUSTED_LINE = re.compile(r"direct-search: exhausted all \d+ elements, none semiregular")
_ELEMENT_LINE = re.compile(
    r"direct-search: exhaustive hit after \d+ elements"
    r"|direct-search: sampled element of prime order \d+"
    r"|prime-power: degree \d+ = \d+\^\d+, center element of a transitive p-subgroup"
    r"|buddy-swap: unique-buddy involution"
)


def test_each_certificate_trace_has_one_leaf_line(golden_certificates):
    # a certificate's trace is the path to it: quotient elements that did
    # not lift add no line of their own to it
    for routes, inst, cert in golden_certificates:
        if cert is None:
            continue
        leaf = _EXHAUSTED_LINE if cert.method == engine.EXHAUSTED_NONE else _ELEMENT_LINE
        leaves = [
            line
            for line in cert.trace
            if _EXHAUSTED_LINE.fullmatch(line) or _ELEMENT_LINE.fullmatch(line)
        ]
        assert len(leaves) == 1 and leaf.fullmatch(leaves[0]), (routes, inst.id, cert.trace)


def test_quotient_lift_reads_past_quotient_elements_that_do_not_lift(golden_certificates):
    # the first semiregular element of the quotient has order 2, and
    # |K| = 32; the route lifts the second, of order 5
    (cert,) = [
        cert
        for routes, inst, cert in golden_certificates
        if routes == GOLDEN_ROUTE_SETTINGS[0] and inst.id == "cover-px-p2-r5-s3"
    ]
    assert cert.method == "quotient-lift"
    assert cert.trace == (
        "quotient-lift: normal subgroup with 10 orbits; recursing on 10 classes",
        "direct-search: exhaustive hit after 3 elements",
        "quotient-lift: lifted element of order 5 through kernel "
        "(skipped 1 quotient certificates before it)",
    )


def _relabelled(g, grp, sigma):
    """g and grp with each vertex v renamed sigma[v]: each element x of grp
    becomes sigma^-1 x sigma, mapping sigma[v] to sigma[x(v)]."""
    gens = []
    for x in grp.generators:
        images = np.empty(g.n, dtype=np.int64)
        images[sigma] = sigma[x.images]
        gens.append(Permutation(images))
    edges = [(int(sigma[u]), int(sigma[w])) for u, w in g.edges()]
    return Graph(g.n, edges), PermGroup(gens, g.n)


def test_structural_verdict_does_not_depend_on_vertex_labels(golden_certificates):
    # which semiregular quotient element the search meets first depends on
    # the labels; quotient-lift reads on until one lifts, so the route that
    # answers, or that none does, does not
    rng = np.random.default_rng(11)
    for routes, inst, cert in golden_certificates:
        if routes != GOLDEN_ROUTE_SETTINGS[0]:
            continue
        expected = "inconclusive" if cert is None else cert.method
        for _ in range(3):
            g, grp = _relabelled(inst.graph, inst.group, rng.permutation(inst.graph.n))
            config = EngineConfig(routes=routes, seed=1, graph_id=inst.id)
            try:
                found = find_semiregular(g, grp, config)
            except InconclusiveError:
                assert expected == "inconclusive", inst.id
                continue
            assert found.method == expected, inst.id
            assert verify_certificate(g, grp, found) == (True, ""), inst.id


def test_structural_verdict_does_not_depend_on_the_generating_set(golden_certificates):
    # each group regenerated by random elements, drawn until they generate
    # it; the candidate normal subgroups come from a strong generating set,
    # so they do not hang on the generators given
    rng = np.random.default_rng(0)
    routes = GOLDEN_ROUTE_SETTINGS[0]
    for settings, inst, cert in golden_certificates:
        if settings != routes:
            continue
        gens = []
        while PermGroup(gens, inst.graph.n).order() != inst.group.order():
            gens.append(inst.group.random_element(rng))
        # these routes never enumerate, so the verdict is certified or not
        found = _find_or_none(replace(inst, group=PermGroup(gens, inst.graph.n)), routes)
        assert (found is None) == (cert is None), inst.id


def test_regenerated_quotient_px_p3_r5_s2_certifies_by_quotient_lift(corpus):
    # both generators' normal closures have fewer than three orbits; a
    # strong generator's closure, of order 81 with 5 orbits, does not
    (inst,) = [inst for inst in corpus if inst.id == "quotient-px-p3-r5-s2"]
    a = Permutation([12, 14, 13, 11, 10, 9, 8, 7, 6, 5, 4, 3, 0, 2, 1])
    b = Permutation([11, 9, 10, 12, 13, 14, 0, 1, 2, 3, 4, 5, 7, 8, 6])
    grp = PermGroup([a, b])
    assert (a.order(), b.order(), grp.order()) == (2, 5, inst.group.order())
    regenerated = replace(inst, group=grp)
    for routes in (GOLDEN_ROUTE_SETTINGS[0], ("quotient-lift",)):
        assert _find_or_none(regenerated, routes).method == "quotient-lift", routes


# every default-corpus proof report, in corpus order. Update this
# hash only with a change that means to alter reports, and say so in
# CHANGES.md.
GOLDEN_REPORTS_SHA256 = (
    "4459470ad30532bf6532b2fb7bd47b835ee4e743fbcde225216e1773aa201aab"
)


def test_golden_reports_on_corpus(corpus):
    assert len(corpus) == 86
    digest = hashlib.sha256()
    for inst in corpus:
        report = proof_invariant_report(inst.graph, inst.group)
        digest.update(json.dumps([inst.id, report.as_dict()], sort_keys=True).encode())
    assert digest.hexdigest() == GOLDEN_REPORTS_SHA256


def test_normal_quotients_have_at_most_half_the_vertices(corpus):
    # why quotient-lift needs no depth bound: it recurses only on these
    # quotients, and each has at least three classes of one size >= 2
    for inst in corpus:
        for _, partition in engine._normal_quotients(inst.group):
            sizes = {len(c) for c in partition}
            assert len(partition) >= 3, inst.id
            assert len(sizes) == 1 and sizes.pop() >= 2, inst.id


def test_route_order_does_not_change_the_certificate(corpus):
    # the route names switch steps on; the steps run in one fixed order
    by_id = {inst.id: inst for inst in corpus}
    runs = 0
    for inst_id in ("px-p2-r4-s2", "cover-px-p2-r5-s3", "rook-3x3"):
        inst = by_id[inst_id]
        for size in range(1, len(ALL_ROUTES) + 1):
            for subset in itertools.combinations(ALL_ROUTES, size):
                canonical = _find_or_none(inst, subset)
                for routes in itertools.permutations(subset):
                    assert _find_or_none(inst, routes) == canonical, (inst_id, routes)
                    runs += 1
    assert runs == 192


def test_px_p5_r6_s1_gets_a_verified_quotient_lift_certificate(corpus):
    # |G| is above the enumeration bound; the normal quotients come from
    # normal closures, which enumerate nothing
    (inst,) = [inst for inst in corpus if inst.id == "px-p5-r6-s1"]
    assert inst.group.order() == 187_500 > engine.DEFAULT_BOUND
    config = EngineConfig(routes=("quotient-lift", "buddy-swap"), graph_id=inst.id)
    cert = find_semiregular(inst.graph, inst.group, config)
    assert cert.method == "quotient-lift"
    assert cert.trace[0] == (
        "quotient-lift: normal subgroup with 3 orbits; recursing on 3 classes"
    )
    assert verify_certificate(inst.graph, inst.group, cert) == (True, "")


def test_normal_closures_are_built_only_at_the_buddy_swap_gate(corpus, monkeypatch):
    # the normal quotients are read as orbit partitions; a closure is built
    # only for buddy-swap's 2-group test, after quotient-lift found nothing
    calls = []
    real = engine.normal_closure
    monkeypatch.setattr(engine, "normal_closure", lambda g, elems: calls.append(g) or real(g, elems))
    for inst in corpus:
        _find_or_none(inst, GOLDEN_ROUTE_SETTINGS[0])
    assert len(calls) == 3
    calls.clear()
    (inst,) = [inst for inst in corpus if inst.id == "px-p5-r6-s1"]
    assert _find_or_none(inst, ("quotient-lift",)).method == "quotient-lift"
    assert calls == []


def test_structural_reach_on_the_committed_corpus_configs():
    # the reach the structural routes keep beyond the default corpus, at
    # seed 1; the large tier is only parsed here
    from semireg.cli import _corpus_config
    from semireg.families import corpus_generate

    paths = (Path(__file__).resolve().parents[1] / "configs").glob("*.json")
    configs = {path.stem: _corpus_config(str(path)) for path in paths}
    assert sorted(configs) == ["large-tier", "primes-7-11", "wide-grid"]
    routes = ("prime-power", "quotient-lift", "buddy-swap")
    for name, expected_inconclusive, expected_certified in (
        ("wide-grid", [], 158),
        ("primes-7-11", ["complete-K15", "bipartite-K1414", "bipartite-K2222"], 30),
    ):
        certified, inconclusive = 0, []
        for inst in corpus_generate(configs[name]):
            config = EngineConfig(routes=routes, seed=1, graph_id=inst.id)
            try:
                cert = find_semiregular(inst.graph, inst.group, config)
            except InconclusiveError:
                inconclusive.append(inst.id)
                continue
            assert verify_certificate(inst.graph, inst.group, cert) == (True, ""), inst.id
            certified += 1
        assert (certified, inconclusive) == (expected_certified, expected_inconclusive), name
