import random

import numpy as np
import pytest

from semireg.perm import Permutation
from semireg.group import PermGroup, PreconditionError
from semireg.graphs import complete_graph, cycle_graph
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


def test_verify_certificate_rejections(d6):
    c6 = cycle_graph(6)

    def cert_for(el, order=None):
        o = order if order is not None else el.order()
        return Certificate("c6", el, o, o, "direct-search", ())

    bad_aut = Permutation.from_cycles(6, [(0, 1)])
    ok, reason = verify_certificate(c6, d6, cert_for(bad_aut))
    assert not ok and "automorphism" in reason

    not_semi = Permutation.from_cycles(6, [(0, 1, 2)])
    ok, reason = verify_certificate(c6, d6, cert_for(not_semi))
    assert not ok and ("automorphism" in reason or "semiregular" in reason)

    ident = Permutation.identity(6)
    ok, reason = verify_certificate(c6, d6, cert_for(ident))
    assert not ok and "trivial" in reason

    # semiregular automorphism NOT in the group: reflection outside C6-rotations
    rot_only = PermGroup([Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    reflection = Permutation.from_cycles(6, [(1, 5), (2, 4)])
    ok, reason = verify_certificate(c6, rot_only, cert_for(reflection))
    assert not ok and "not semiregular" in reason or "group" in reason

    # order mismatch
    rot = Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    ok, reason = verify_certificate(c6, d6, cert_for(rot, order=3))
    assert not ok and "order" in reason


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


def test_find_inconclusive_vs_exhausted():
    # M11 on 12 points has no semiregular element: random sampling under a
    # tiny enumeration bound cannot conclude, full enumeration proves none
    g, grp = k12_m11()
    with pytest.raises(InconclusiveError):
        find_semiregular(
            g, grp, EngineConfig(routes=("direct-search",), enum_bound=10)
        )
    cert = find_semiregular(g, grp, EngineConfig(routes=("direct-search",)))
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
    results = arc_stabilizer_bound_check(g, fibers, s_values=(1, 2, 3, 4), samples=60)
    assert all(passed for _, _, passed in results)


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
