import itertools
import random

import numpy as np
import pytest

from semireg import _kernels
from semireg.perm import Permutation
from semireg.group import PermGroup, PreconditionError, normalizes
from semireg.graphs import (
    Graph,
    complete_graph,
    coset_graph,
    cycle_graph,
    density_closure,
    has_intra_class_edges,
    has_triangle,
    is_arc_transitive,
    is_s_arc,
    left_mult_automorphism,
    local_graph,
    quotient_graph,
    s_arcs,
    standard_double_cover,
)
from semireg.families import psl2_action, psl2_coset_instance


def petersen() -> Graph:
    # Kneser graph K(5,2): 2-subsets of {0..4}, adjacent when disjoint
    pairs = list(itertools.combinations(range(5), 2))
    edges = [
        (i, j)
        for i, a in enumerate(pairs)
        for j, b in enumerate(pairs)
        if i < j and not set(a) & set(b)
    ]
    return Graph(10, edges)


def random_graph(rng, n, p) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    g = Graph(3, [(0, 1), (1, 0)])  # duplicates collapse
    assert g.num_edges == 1


def test_local_graph_examples():
    lg, labels = local_graph(complete_graph(4), 0)
    assert lg == complete_graph(3)
    assert labels == (1, 2, 3)
    lg, _ = local_graph(cycle_graph(6), 2)
    assert lg.n == 2 and lg.num_edges == 0
    for v in range(10):
        lg, _ = local_graph(petersen(), v)
        assert lg.n == 3 and lg.num_edges == 0  # girth 5


def test_has_triangle():
    assert has_triangle(complete_graph(12)) is not None
    assert has_triangle(cycle_graph(6)) is None
    bundle = psl2_coset_instance(5, 2)
    assert bundle.graph == complete_graph(6)
    w = has_triangle(bundle.graph)
    u, v, x = w
    assert bundle.graph.has_edge(u, v) and bundle.graph.has_edge(v, x) and bundle.graph.has_edge(u, x)


def test_quotient_examples():
    assert quotient_graph(cycle_graph(6), [[0, 3], [1, 4], [2, 5]]) == cycle_graph(3)
    g = cycle_graph(5)
    assert quotient_graph(g, [[v] for v in range(5)]) == g
    q = quotient_graph(cycle_graph(4), [[0, 2], [1, 3]])
    assert q.n == 2 and q.num_edges == 1
    assert not has_intra_class_edges(cycle_graph(4), [[0, 2], [1, 3]])
    with pytest.raises(PreconditionError, match="cover"):
        has_intra_class_edges(cycle_graph(4), [[0, 2]])
    with pytest.raises(PreconditionError, match="two classes"):
        quotient_graph(cycle_graph(4), [[0, 2], [1, 2, 3]])


def test_quotient_valency_divides_for_px_setting():
    from semireg.families import praeger_xu, praeger_xu_group, _px_diagonal_subgroup

    for (p, r, s) in [(2, 4, 2), (3, 4, 2), (2, 5, 2)]:
        graph, _ = praeger_xu(p, r, s)
        diag = _px_diagonal_subgroup(p, r, s)
        q = quotient_graph(graph, diag.orbit_partition())
        assert graph.valency() % q.valency() == 0


def test_double_cover_examples():
    dc = standard_double_cover(cycle_graph(3))
    assert dc.n == 6 and dc.valency() == 2 and dc.is_connected()
    dc4 = standard_double_cover(cycle_graph(4))
    assert dc4.component_count() == 2
    dcp = standard_double_cover(petersen())
    assert dcp.n == 20 and dcp.valency() == 3
    assert dcp.is_bipartite() and dcp.is_connected()


def test_double_cover_bipartite_connectivity_200_random():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randrange(2, 16)
        g = random_graph(rng, n, rng.random())
        dc = standard_double_cover(g)
        assert dc.is_bipartite()
        if g.is_connected():
            assert dc.is_connected() == (not g.is_bipartite())


def test_density_examples():
    assert density_closure(complete_graph(4), [0, 1]) == (frozenset(range(4)), True)
    closure, dense = density_closure(cycle_graph(6), [0, 1])
    assert closure == frozenset({0, 1}) and not dense
    k12 = complete_graph(12)
    for edge in [(0, 1), (3, 7)]:
        assert density_closure(k12, edge)[1]


def test_density_monotone_idempotent_confluent():
    rng = random.Random(12)
    for _ in range(120):
        n = rng.randrange(3, 18)
        g = random_graph(rng, n, rng.random())
        s0 = set(rng.sample(range(n), rng.randrange(1, n)))
        c_fifo, _ = density_closure(g, s0)
        # the kernel's lifo schedule reaches the same closure
        mask = np.zeros(n, dtype=np.uint8)
        mask[list(s0)] = 1
        c_lifo = _kernels.density_closure_mask(g.indptr, g.indices, mask, 1)
        assert c_fifo == set(np.flatnonzero(c_lifo).tolist())
        # idempotent
        again, _ = density_closure(g, c_fifo)
        assert again == c_fifo
        # monotone
        bigger = s0 | {rng.randrange(n)}
        c2, _ = density_closure(g, bigger)
        assert c_fifo <= c2


def test_coset_graph_k4(s4):
    h = s4.point_stabilizer(3)
    bundle = coset_graph(s4, h, Permutation.from_cycles(4, [(2, 3)]))
    assert bundle.graph == complete_graph(4)
    assert is_arc_transitive(bundle.graph, bundle.acting_group)
    assert bundle.graph.valency() == bundle.graph.n - 1
    assert bundle.generates


def test_coset_graph_petersen(a5):
    h = PermGroup(
        [Permutation.from_cycles(5, [(0, 1, 2)]), Permutation.from_cycles(5, [(0, 1), (3, 4)])]
    )
    assert h.order() == 6
    hit = None
    for el in a5.elements():
        if el.order() == 2 and not normalizes(el, h):
            bundle = coset_graph(a5, h, el)
            if bundle.graph.is_connected() and bundle.graph.valency() == 3:
                hit = bundle
                break
    g = hit.graph
    # order/valency/girth fingerprint identifies the Petersen graph
    assert g.n == 10 and g.valency() == 3 and g.girth() == 5
    assert is_arc_transitive(g, hit.acting_group)


def test_coset_graph_k6_from_psl25():
    bundle = psl2_coset_instance(5, 2)
    assert bundle.graph == complete_graph(6)
    assert bundle.graph.valency() == 5  # |HgH| / |H|
    assert bundle.subgroup_order == 10


def test_coset_graph_preconditions(s4):
    h = s4.point_stabilizer(3)
    with pytest.raises(PreconditionError, match="squared"):
        coset_graph(s4, h, Permutation.from_cycles(4, [(0, 1, 2, 3)]))
    with pytest.raises(PreconditionError, match="normalizes"):
        coset_graph(s4, h, Permutation.from_cycles(4, [(0, 1)]))
    big_h = PermGroup([Permutation.from_cycles(5, [(0, 1)])], 5)
    with pytest.raises(PreconditionError, match="subgroup"):
        coset_graph(s4, big_h, Permutation.from_cycles(4, [(2, 3)]))


def test_coset_graph_representative_independence(s4):
    # rebuilding with shuffled generator order yields the same graph up to
    # the induced relabeling; adjacency must be well-defined on cosets
    h = s4.point_stabilizer(3)
    g_elem = Permutation.from_cycles(4, [(2, 3)])
    b1 = coset_graph(s4, h, g_elem)
    shuffled = PermGroup(list(s4.generators)[::-1])
    b2 = coset_graph(shuffled, h, g_elem)
    assert b1.graph.n == b2.graph.n
    assert sorted(b1.graph.degrees()) == sorted(b2.graph.degrees())
    # identical vertex sets: match cosets via representatives
    mapping = [b2.coset_of(rep) for rep in b1.coset_reps]
    assert sorted(mapping) == list(range(b1.graph.n))
    for u, w in b1.graph.edges():
        assert b2.graph.has_edge(mapping[u], mapping[w])


def test_left_mult_automorphism():
    bundle = psl2_coset_instance(7, 1)  # 24 vertices, N_G(H) of order 21
    assert bundle.graph.n == 24
    h = bundle.subgroup
    # an order-3 element of N_G(H) \ H
    from semireg.group import normalizer

    norm = normalizer(bundle.group, h)
    assert norm.order() == 21
    x = next(
        el for el in norm.elements() if el.order() == 3 and not h.chain().contains(el)
    )
    lam = left_mult_automorphism(bundle, x)
    assert lam.order() == 3
    assert lam.is_semiregular()
    assert not lam.is_identity()
    # commutes with random right multiplications
    rng = random.Random(4)
    action_elements = list(bundle.acting_group.elements(2000))
    for _ in range(100):
        z = rng.choice(action_elements)
        assert lam * z == z * lam
    # x in H gives the identity
    assert left_mult_automorphism(bundle, h.generators[0]).is_identity()


def test_left_mult_identity_iff_in_h():
    bundle = psl2_coset_instance(5, 2)
    h = bundle.subgroup
    for el in h.elements():
        assert left_mult_automorphism(bundle, el).is_identity()
    from semireg.group import normalizer

    norm = normalizer(bundle.group, h)
    outside = [el for el in norm.elements() if not h.chain().contains(el)]
    for el in outside[:5]:
        assert not left_mult_automorphism(bundle, el).is_identity()


def test_left_mult_requires_normalizer(s4):
    h = s4.point_stabilizer(3)
    bundle = coset_graph(s4, h, Permutation.from_cycles(4, [(2, 3)]))
    # (2 3) conjugates the stabilizer of 3 to the stabilizer of 2
    with pytest.raises(PreconditionError, match="normalizer"):
        left_mult_automorphism(bundle, Permutation.from_cycles(4, [(2, 3)]))


def test_is_arc_transitive_examples(d6, c6_regular):
    c6 = cycle_graph(6)
    assert is_arc_transitive(c6, d6)
    assert not is_arc_transitive(c6, c6_regular)  # arc orbit size 6 < 12
    from semireg.families import k12_m11

    k12, m11 = k12_m11()
    assert is_arc_transitive(k12, m11)


def test_is_arc_transitive_rejects_non_automorphism():
    g = cycle_graph(5)
    bad = PermGroup([Permutation.from_cycles(5, [(0, 1)])])
    with pytest.raises(PreconditionError, match="automorphism"):
        is_arc_transitive(g, bad)


def test_s_arcs_counts():
    arcs = s_arcs(cycle_graph(6), 2, sample=1000)
    assert len(arcs) == 12
    assert all(is_s_arc(cycle_graph(6), a) for a in arcs)
    arcs1 = s_arcs(complete_graph(4), 1, sample=1000)
    assert len(arcs1) == 12  # n * (n-1)
    assert all(len(set(a)) == 2 for a in arcs1)


def test_s_arcs_sampling_uniform_and_valid():
    g = petersen()
    arcs = s_arcs(g, 3, sample=50, seed=7)
    assert len(arcs) == 50
    assert all(is_s_arc(g, a) for a in arcs)
    # deterministic under seed
    assert arcs == s_arcs(g, 3, sample=50, seed=7)
    assert arcs != s_arcs(g, 3, sample=50, seed=8)
