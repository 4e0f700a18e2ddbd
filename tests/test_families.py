import hashlib
import itertools
import random
import time

import numpy as np
import pytest

from semireg.perm import Permutation
from semireg.group import (
    PermGroup,
    PreconditionError,
    action_on_partition,
    is_subgroup,
    normalizes,
)
from semireg.graphs import (
    Graph,
    complete_graph,
    coset_graph,
    has_triangle,
    is_arc_transitive,
)
from semireg.families import (
    CorpusConfig,
    CorpusInstance,
    _px_diagonal_subgroup,
    _validated,
    corpus_generate,
    k12_m11,
    m11_degree11,
    m11_degree12_from_scratch,
    paley_instance,
    pgl2_action,
    praeger_xu,
    praeger_xu_group,
    psl2_action,
    psl2_coset_instance,
    px_fiber_translations,
)

from oracles import closure_t, networkx_graph


@pytest.mark.parametrize("p, s", [(7, 1), (13, 1)])
def test_psl2_coset_normalizer_order_matches_sympy(p, s):
    # brute-force count of the elements of G conjugating H to itself
    from sympy.combinatorics import Permutation as SymPerm, PermutationGroup

    def sym(x):
        return SymPerm(x.images.tolist())

    bundle = psl2_coset_instance(p, s)
    g = PermutationGroup([sym(x) for x in bundle.group.generators])
    h = PermutationGroup([sym(x) for x in bundle.subgroup.generators])
    count = sum(
        1 for x in g.generate() if all(h.contains(y ^ x) for y in h.generators)
    )
    assert bundle.normalizer_order == count


LEMMA33_CASES = [
    (p, s)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29)
    for s in range(1, (p - 1) // 2 + 1)
    if (p - 1) // 2 % s == 0
]


@pytest.mark.parametrize("p, s", LEMMA33_CASES)
def test_psl2_coset_normalizer_is_the_borel(p, s):
    # H = U:C_s has U as its normal Sylow p-subgroup, so N_G(H) lies in
    # N_G(U), the Borel subgroup of order p(p-1)/2, which normalizes H
    assert psl2_coset_instance(p, s).normalizer_order == p * (p - 1) // 2


@pytest.mark.parametrize(
    "big, pairs, disconnected",
    [(psl2_action(5), 360, 240), (pgl2_action(5), 1260, 900)],
    ids=["psl2-5", "pgl2-5"],
)
def test_coset_graph_shape_matches_built_graph(big, pairs, disconnected):
    # every cyclic H = <g> with every involution x outside N_G(H): the base
    # coset's neighbours H*x*y (y in H) number |H : H meet H^x|, and the
    # graph is connected exactly when <H, x> = G, mostly not
    elements = list(big.elements())
    involutions = [x for x in elements if x.order() == 2]
    cyclic = {}
    for g in elements:
        h = PermGroup([g], big.degree)
        cyclic.setdefault(frozenset(tuple(y.images.tolist()) for y in h.elements()), h)
    seen = []
    for h in cyclic.values():
        for x in involutions:
            if normalizes(x, h):
                continue
            graph = coset_graph(big, h, x).graph
            meet = sum(h.contains(x * y * x) for y in h.elements())
            assert graph.valency() == h.order() // meet
            connected = graph.is_connected()
            generated = PermGroup([*h.generators, x], big.degree)
            assert (generated.order() == big.order()) == connected
            seen.append(connected)
    assert (len(seen), seen.count(False)) == (pairs, disconnected)


def test_coset_rows_honour_the_config(corpus):
    # each row is built only when its index fits max_vertices, and kept
    # only when its valency is twice a configured prime
    default = [inst for inst in corpus if inst.family == "coset-search"]
    for k in range(1, 5):
        for primes in itertools.combinations((2, 3, 5, 7), k):
            for max_vertices in (4, 5, 20, 30, 2000):
                cfg = CorpusConfig(
                    primes=primes, max_vertices=max_vertices, px_grid={}, include_named=False
                )
                expected = [
                    inst.id
                    for inst in default
                    if inst.valency // 2 in primes and inst.graph.n <= max_vertices
                ]
                assert [i.id for i in corpus_generate(cfg)] == expected


# sha256 over the default corpus: per instance its id and a NUL byte, the
# CSR arrays indptr and indices, every generator's images (all as <i8), then
# a 0x01 byte. Update this hash only with a change that means to alter the
# corpus's graphs or groups, and say so in CHANGES.md.
GOLDEN_CORPUS_SHA256 = (
    "26bdee1ae31922d4230f3c58767855b12fbc8605d0158e0678be69daa68f9b78"
)


def test_golden_corpus(corpus):
    assert len(corpus) == 86
    digest = hashlib.sha256()
    for inst in corpus:
        digest.update(inst.id.encode() + b"\0")
        digest.update(np.asarray(inst.graph.indptr, dtype="<i8").tobytes())
        digest.update(np.asarray(inst.graph.indices, dtype="<i8").tobytes())
        for gen in inst.group.generators:
            digest.update(np.asarray(gen.images, dtype="<i8").tobytes())
        digest.update(b"\1")
    assert digest.hexdigest() == GOLDEN_CORPUS_SHA256


def test_corpus_walks_no_group_elements(monkeypatch):
    # no corpus output depends on the order of a stabilizer chain's
    # element walk, because the corpus never walks one
    from semireg.group import StabilizerChain

    def refuse(self):
        raise AssertionError("corpus_generate walked a group's elements")

    monkeypatch.setattr(StabilizerChain, "element_blocks", refuse)
    assert len(corpus_generate()) == 86


def test_quotient_instances_carry_the_induced_group(corpus):
    by_id = {inst.id: inst for inst in corpus}
    quotients = [inst for inst in corpus if inst.family == "px-quotient"]
    assert len(quotients) == 19
    for inst in quotients:
        base = by_id[inst.id.removeprefix("quotient-")]
        p, r, s = (inst.params[k] for k in ("p", "r", "s"))
        partition = _px_diagonal_subgroup(p, r, s).orbit_partition()
        image = action_on_partition(base.group, partition).image_group
        assert inst.group.generators == image.generators


def test_psl2_pgl2_orders():
    assert psl2_action(5).order() == 60
    assert pgl2_action(5).order() == 120
    assert psl2_action(7).order() == 168
    # brute closure cross-check at p=5
    psl = psl2_action(5)
    assert len(closure_t([tuple(g.images) for g in psl.generators])) == 60


def test_psl2_is_2_transitive():
    for p in (5, 7, 11):
        grp = psl2_action(p)
        n = p + 1
        # orbit of the ordered pair (0, 1) under generator closure
        pair_orbit = {(0, 1)}
        frontier = [(0, 1)]
        gens = [tuple(g.images) for g in grp.generators]
        while frontier:
            a, b = frontier.pop()
            for g in gens:
                nxt = (g[a], g[b])
                if nxt not in pair_orbit:
                    pair_orbit.add(nxt)
                    frontier.append(nxt)
        assert len(pair_orbit) == n * (n - 1)


def test_psl2_rejects_bad_p():
    with pytest.raises(PreconditionError):
        psl2_action(4)
    with pytest.raises(PreconditionError):
        psl2_action(2)
    with pytest.raises(PreconditionError):
        psl2_action(67)  # beyond the configured bound


def test_psl2_huge_prime_is_refused_by_the_bound_alone():
    # trial division of 10^18 + 3, a prime, would run for minutes; the bound
    # is compared first, so this returns at once
    t0 = time.perf_counter()
    for p in (10**18 + 3, 10**18 + 4):
        with pytest.raises(PreconditionError, match="exceeds the configured bound"):
            psl2_coset_instance(p, 1)
    assert time.perf_counter() - t0 < 1.0


def test_coset_instance_vertex_counts():
    for (p, s), n_expected in [((5, 2), 6), ((7, 1), 24), ((13, 3), 28)]:
        bundle = psl2_coset_instance(p, s)
        assert bundle.graph.n == n_expected == (p * p - 1) // (2 * s)
        assert bundle.graph.valency() == p
        assert is_arc_transitive(bundle.graph, bundle.acting_group)


def test_coset_instance_h_orbit_structure():
    # H has (p-1)/2s fixed vertices; all other H-orbits have size p
    for (p, s) in [(5, 2), (7, 1), (7, 3), (11, 5), (13, 2)]:
        bundle = psl2_coset_instance(p, s)
        h_elements = list(bundle.subgroup.elements())
        reps = bundle.coset_reps
        h_chain = bundle.subgroup.chain()
        # vertex orbit sizes under H acting by right multiplication
        moved = []
        fixed = 0
        seen = set()
        for v, rep in enumerate(reps):
            if v in seen:
                continue
            orbit = {v}
            frontier = [rep]
            while frontier:
                r = frontier.pop()
                for hh in bundle.subgroup.generators:
                    cand = r * hh
                    w = bundle.coset_of(cand)
                    if w not in orbit:
                        orbit.add(w)
                        frontier.append(cand)
            seen |= orbit
            if len(orbit) == 1:
                fixed += 1
            else:
                moved.append(len(orbit))
        assert fixed == (p - 1) // (2 * s)
        assert all(size == p for size in moved)


def test_coset_instance_rejects_bad_s():
    with pytest.raises(PreconditionError):
        psl2_coset_instance(7, 2)  # 2 does not divide 3


def test_praeger_xu_octahedron():
    g, rot = praeger_xu(2, 3, 1)
    # octahedron fingerprint: 6 vertices, 4-regular, connected, triangle
    assert g.n == 6 and g.valency() == 4 and g.is_connected()
    assert has_triangle(g) is not None
    assert rot.is_semiregular() and rot.order() == 3


def test_praeger_xu_341():
    g, rot = praeger_xu(3, 4, 1)
    assert g.n == 12 and g.valency() == 6
    assert rot.order() == 4
    assert len(rot.cycle_decomposition()) == 3


def test_praeger_xu_242():
    g, rot = praeger_xu(2, 4, 2)
    assert g.n == 16 and g.valency() == 4
    assert rot.is_semiregular() and rot.order() == 4


def test_praeger_xu_rotation_commutes_with_fiber_translations():
    for (p, r, s) in [(2, 4, 1), (3, 3, 1), (2, 5, 2)]:
        g, rot = praeger_xu(p, r, s)
        trans = px_fiber_translations(p, r, s)
        for t in trans.generators:
            assert g.is_automorphism(t)
        # sigma conjugates translations to translations; the diagonal one
        # commutes outright
        diag = trans.generators[0]
        for other in trans.generators[1:]:
            diag = diag * other
        assert diag * rot == rot * diag


def test_praeger_xu_group_is_arc_transitive():
    for (p, r, s) in [(2, 3, 1), (2, 4, 2), (3, 4, 1), (5, 3, 1)]:
        g, rot = praeger_xu(p, r, s)
        grp = praeger_xu_group(p, r, s)
        assert is_arc_transitive(g, grp)
        assert grp.contains(rot)


def test_praeger_xu_rejects_bad_params():
    with pytest.raises(PreconditionError):
        praeger_xu(4, 3, 1)
    with pytest.raises(PreconditionError):
        praeger_xu(2, 2, 1)
    with pytest.raises(PreconditionError):
        praeger_xu(2, 3, 3)


def test_k12_m11_validates():
    graph, grp = k12_m11()
    assert grp.order() == 7920
    assert graph == complete_graph(12)
    assert is_arc_transitive(graph, grp)


def test_k12_m11_arc_orbit_count():
    graph, grp = k12_m11()
    # the arc orbit covers all 12*11 = 132 arcs (brute BFS over arc pairs)
    gens = [tuple(g.images) for g in grp.generators]
    orbit = {(0, 1)}
    frontier = [(0, 1)]
    while frontier:
        a, b = frontier.pop()
        for g in gens:
            nxt = (g[a], g[b])
            if nxt not in orbit:
                orbit.add(nxt)
                frontier.append(nxt)
    assert len(orbit) == 132


def test_m11_elusive_on_12_points():
    _, grp = k12_m11()
    count = 0
    for el in grp.elements():
        count += 1
        assert el.is_identity() or not el.is_semiregular()
    assert count == 7920


def test_m11_degree12_data_matches_reconstruction():
    frozen = k12_m11()[1]
    rebuilt = m11_degree12_from_scratch()
    assert rebuilt.order() == frozen.order() == 7920
    assert is_subgroup(rebuilt, frozen) and is_subgroup(frozen, rebuilt)


def test_paley_13():
    g, grp = paley_instance(13)
    assert g.n == 13 and g.valency() == 6
    assert is_arc_transitive(g, grp)


def test_corpus_default_size_and_validity(corpus):
    assert len(corpus) >= 50
    ids = [inst.id for inst in corpus]
    assert len(ids) == len(set(ids))
    for inst in corpus:
        val = inst.graph.valency()
        assert val in (4, 6, 10)
        assert inst.graph.n <= 2000
        assert inst.graph.is_connected()


def test_corpus_px_grid_p2():
    cfg = CorpusConfig(
        primes=(2,),
        include_named=False,
        include_coset_search=False,
    )
    corpus = corpus_generate(cfg)
    assert len(corpus) >= 15
    assert all(inst.graph.valency() == 4 for inst in corpus)
    assert all(is_arc_transitive(inst.graph, inst.group) for inst in corpus)


def test_validated_refuses_a_disconnected_and_an_arc_intransitive_instance():
    # 2.K5 under S5 wr S2 is arc-transitive of valency 4 but not connected;
    # K5 under C5 is connected of valency 4 but has five arc orbits
    halves = [(i + h, j + h) for h in (0, 5) for i, j in itertools.combinations(range(5), 2)]
    s5_wr_s2 = PermGroup(
        [
            Permutation.from_cycles(10, [(0, 1, 2, 3, 4)]),
            Permutation.from_cycles(10, [(0, 1)]),
            Permutation.from_cycles(10, [(i, i + 5) for i in range(5)]),
        ]
    )
    c5 = PermGroup([Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    cfg = CorpusConfig()
    for graph, group in [(Graph(10, halves), s5_wr_s2), (complete_graph(5), c5)]:
        assert graph.valency() == 4
        assert _validated(CorpusInstance("x", "x", {}, graph, group), cfg) is None


def test_corpus_px_grid_stops_at_the_first_r_above_max_vertices():
    # the r ranges ascend, so the grid stops reading its r range at the
    # first r with r * p > max_vertices: with max_vertices 10 and p = 2
    # that is r = 6, well before this range raises
    def r_range():
        yield from range(3, 21)
        raise AssertionError("the r range was read past r = 20")

    def corpus(rs):
        cfg = CorpusConfig(
            primes=(2,),
            max_vertices=10,
            px_grid={2: (rs, 1)},
            include_named=False,
            include_coset_search=False,
        )
        return [(inst.id, inst.graph.n) for inst in corpus_generate(cfg)]

    assert corpus(r_range()) == corpus(range(3, 6))
    assert corpus(range(3, 6)) == [("px-p2-r3-s1", 6), ("px-p2-r4-s1", 8), ("px-p2-r5-s1", 10)]


def test_corpus_builds_and_checks_each_instance_once(monkeypatch):
    # one Praeger-Xu build per grid member and one arc-transitivity check
    # per kept instance, the one in _validated
    from semireg import families

    calls = []
    for name in ("praeger_xu", "is_arc_transitive"):
        real = getattr(families, name)
        monkeypatch.setattr(families, name, lambda *a, n=name, f=real: calls.append(n) or f(*a))
    assert len(corpus_generate()) == 86
    assert (calls.count("praeger_xu"), calls.count("is_arc_transitive")) == (33, 86)


def test_corpus_double_covers(corpus):
    import networkx as nx

    # even-r bases are bipartite, so only odd-r covers appear (connected)
    cover_ids = {i.id for i in corpus if i.family == "double-cover"}
    assert "cover-px-p3-r3-s1" in cover_ids
    assert "cover-px-p3-r4-s1" not in cover_ids
    cover = next(i for i in corpus if i.id == "cover-px-p3-r3-s1")
    assert cover.graph.n == 18
    assert cover.graph.valency() == 6
    assert nx.is_bipartite(networkx_graph(cover.graph)) and cover.graph.is_connected()


def test_corpus_known_witnesses_are_semiregular(corpus):
    for inst in corpus:
        if inst.known_semiregular is not None:
            w = inst.known_semiregular
            assert w.is_semiregular() and not w.is_identity()
            assert inst.graph.is_automorphism(w)
            assert inst.group.contains(w)


def test_corpus_manifest_rows(corpus):
    row = corpus[0].manifest_row(seed=3)
    assert set(row) == {"id", "family", "params", "n", "valency", "group_order", "seed"}
    assert row["group_order"].isdigit()
