import hashlib
import math
import random
from collections import Counter

import numpy as np
import pytest

from semireg import group as group_module
from semireg.engine import NORMAL_BOUND
from semireg.perm import Permutation
from semireg.group import (
    DEFAULT_BOUND,
    BoundExceededError,
    PermGroup,
    PreconditionError,
    StabilizerChain,
    _prime_order_classes,
    action_on_partition,
    coset_key,
    is_prime,
    lift_semiregular,
    minimal_normal_subgroups,
    normal_closure,
    normal_closure_orbits,
    normalizes,
    prime_factors,
    semiregular_of_prime_power_degree,
    transitivity_class,
)
from semireg.families import (
    complete_bipartite_instance,
    k12_m11,
    m11_degree11,
    pgl2_action,
    praeger_xu_group,
    psl2_action,
    symmetric_group,
)

from oracles import (
    chain_products,
    closure_t,
    orbit_t,
    orbits_t,
    random_group_t,
    transitivity_class_t,
)


def test_orbits(s4, c6_regular):
    assert c6_regular.orbit_partition() == [list(range(6))]
    g = PermGroup([Permutation.from_cycles(4, [(0, 1), (2, 3)])])
    assert g.orbit_partition() == [[0, 1], [2, 3]]
    trivial = PermGroup([Permutation.identity(5)], 5)
    assert trivial.orbit_partition() == [[v] for v in range(5)]
    assert s4.orbit_partition() == [[0, 1, 2, 3]]


def test_chain_orders_match_brute_closure(s4):
    assert s4.order() == len(closure_t([tuple(g.images) for g in s4.generators]))
    psl = psl2_action(5)
    assert psl.order() == 60
    assert psl.order() == len(closure_t([tuple(g.images) for g in psl.generators]))
    m11 = m11_degree11()
    assert m11.order() == 7920
    assert m11.order() == len(closure_t([tuple(g.images) for g in m11.generators]))


def test_membership(s4):
    assert s4.contains(Permutation.from_cycles(4, [(0, 1, 2)]))
    a4 = PermGroup(
        [Permutation.from_cycles(4, [(0, 1, 2)]), Permutation.from_cycles(4, [(1, 2, 3)])]
    )
    # brute enumeration of A4's 12 elements excludes the transposition
    elements = closure_t([tuple(g.images) for g in a4.generators])
    assert len(elements) == 12
    transposition = Permutation.from_cycles(4, [(0, 1)])
    assert tuple(transposition.images) not in elements
    assert not a4.contains(transposition)
    assert a4.contains(Permutation.identity(4))


def test_point_stabilizer(s4, c6_regular):
    stab = s4.point_stabilizer(3)
    # brute filter of the 24 elements fixing point 3
    fixing = [x for x in closure_t([tuple(g.images) for g in s4.generators]) if x[3] == 3]
    assert stab.order() == len(fixing) == 6
    assert all(g(3) == 3 for g in stab.generators)
    for v in range(6):
        assert c6_regular.point_stabilizer(v).order() == 1


def test_orbit_stabilizer_identity(s4, a5, d6):
    for grp in (s4, a5, d6):
        for orbit in grp.orbit_partition():
            for v in orbit:
                assert grp.order() == len(orbit) * grp.point_stabilizer(v).order()


def test_elements_enumeration(s4, monkeypatch):
    s3 = PermGroup(
        [Permutation.from_cycles(3, [(0, 1)]), Permutation.from_cycles(3, [(0, 1, 2)])]
    )
    els = list(s3.elements())
    assert len(els) == 6 == len(set(els))
    m11 = m11_degree11()
    seen = set()
    for el in m11.elements():
        seen.add(el)
    assert len(seen) == 7920
    # the bound is the module constant, read at each call
    monkeypatch.setattr(group_module, "DEFAULT_BOUND", 10)
    with pytest.raises(BoundExceededError, match="order 24 exceeds bound 10"):
        list(s4.elements())


def test_action_on_partition_d4():
    d4 = PermGroup(
        [Permutation.from_cycles(4, [(0, 1, 2, 3)]), Permutation.from_cycles(4, [(1, 3)])]
    )
    bundle = action_on_partition(d4, [[0, 2], [1, 3]])
    assert bundle.image_group.order() == 2
    assert bundle.kernel.order() == 4
    assert bundle.image_group.order() * bundle.kernel.order() == d4.order()
    # kernel fixes every class setwise
    for g in bundle.kernel.generators:
        for cls in bundle.class_labels:
            assert {int(g(v)) for v in cls} == set(cls)


def test_action_on_partition_singletons(s4):
    bundle = action_on_partition(s4, [[0], [1], [2], [3]])
    assert bundle.image_group.order() == s4.order()
    assert bundle.kernel.is_trivial()


def test_action_on_partition_c6(c6_regular):
    bundle = action_on_partition(c6_regular, [[0, 3], [1, 4], [2, 5]])
    assert bundle.image_group.order() == 3
    assert bundle.kernel.order() == 2


def test_action_on_partition_builds_two_chains_and_the_kernel_on_demand(monkeypatch):
    built = []
    real_init = StabilizerChain.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "__init__", counted)
    d6 = PermGroup(
        [Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)]), Permutation.from_cycles(6, [(1, 5), (2, 4)])]
    )
    bundle = action_on_partition(d6, [[0, 3], [1, 4], [2, 5]])
    # the image's chain and the combined one; |K| needs no third
    assert len(built) == 2
    assert bundle.kernel_order == 2
    assert len(built) == 2
    kernel = bundle.kernel
    assert bundle.kernel is kernel
    assert kernel.order() == 2 and len(built) == 3


def test_kernel_and_image_orders_multiply_to_the_group_order(corpus):
    from semireg.engine import _normal_quotients

    count = 0
    for inst in corpus:
        for _, partition in _normal_quotients(inst.group):
            bundle = action_on_partition(inst.group, partition)
            assert bundle.kernel.order() * bundle.image_group.order() == inst.group.order()
            assert bundle.kernel_order == bundle.kernel.order(), inst.id
            count += 1
    # the normal quotients of all 86 groups
    assert count == 102


def test_action_on_partition_rejects_bad_partition(s4):
    with pytest.raises(PreconditionError):
        action_on_partition(s4, [[0, 1], [2, 3]])  # not invariant under the 4-cycle
    with pytest.raises(ValueError):
        action_on_partition(s4, [[0, 1], [1, 2, 3]])


def test_preimage_roundtrip(d6):
    bundle = action_on_partition(d6, [[0, 3], [1, 4], [2, 5]])
    rng = random.Random(5)
    els = list(bundle.image_group.elements())
    for q in els:
        pre = bundle.preimage(q)
        assert bundle.image_of(pre) == q
        assert d6.contains(pre)


def test_minimal_normal_subgroups_s4(s4):
    mins = minimal_normal_subgroups(s4)
    assert len(mins) == 1
    klein = mins[0]
    assert klein.order() == 4
    els = {tuple(e.images) for e in klein.elements()}
    assert els == {
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    }


def test_minimal_normal_subgroups_a5_and_c6(a5, c6_regular):
    assert [m.order() for m in minimal_normal_subgroups(a5)] == [60]
    assert sorted(m.order() for m in minimal_normal_subgroups(c6_regular)) == [2, 3]


def test_transitivity_class_examples(c6_regular):
    c5 = PermGroup([Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    assert transitivity_class(c5) == "quasiprimitive"
    d4 = PermGroup(
        [Permutation.from_cycles(4, [(0, 1, 2, 3)]), Permutation.from_cycles(4, [(1, 3)])]
    )
    assert transitivity_class(d4) == "biquasiprimitive"
    assert transitivity_class(c6_regular) == "neither"
    two_orbits = PermGroup([Permutation.from_cycles(4, [(0, 1), (2, 3)])])
    assert transitivity_class(two_orbits) == "intransitive"


def test_transitivity_class_against_brute_oracle():
    rng = random.Random(99)
    checked = 0
    while checked < 12:
        n, gens, elements = random_group_t(rng, 7, 2000)
        if len(elements) > 400:
            continue
        grp = PermGroup([Permutation(list(g)) for g in gens], n)
        assert transitivity_class(grp) == transitivity_class_t(gens, n)
        checked += 1


@pytest.mark.parametrize(
    "make_group", [lambda: psl2_action(5), lambda: pgl2_action(7)], ids=["psl2-5", "pgl2-7"]
)
def test_coset_key_matches_sympy_membership(make_group):
    # Hx == Hy exactly when x * y^-1 lies in H, as an independent
    # implementation decides it
    from sympy.combinatorics import Permutation as SymPerm, PermutationGroup

    def sym(x):
        return SymPerm(x.images.tolist())

    g = make_group()
    n = g.degree
    subgroups = [
        PermGroup([], n),
        PermGroup([g.generators[0]], n),
        g.point_stabilizer(0),
        g,
    ]
    rng = np.random.default_rng(11)
    for h in subgroups:
        hc = h.chain()
        sym_h = PermutationGroup([sym(x) for x in h.generators])
        for _ in range(40):
            x = g.random_element(rng)
            for y in (g.random_element(rng), h.random_element(rng) * x):
                same = coset_key(hc, x) == coset_key(hc, y)
                assert same == sym_h.contains(sym(x) * ~sym(y))


def test_semiregular_prime_power_degree_examples():
    c4 = PermGroup([Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    w = semiregular_of_prime_power_degree(c4)
    assert w.order() == 2 and w.is_semiregular() and c4.contains(w)
    assert w == Permutation.from_cycles(4, [(0, 2), (1, 3)])

    d4 = PermGroup(
        [Permutation.from_cycles(4, [(0, 1, 2, 3)]), Permutation.from_cycles(4, [(1, 3)])]
    )
    w = semiregular_of_prime_power_degree(d4)
    assert w == Permutation.from_cycles(4, [(0, 2), (1, 3)])

    # regular C3 x C3: every nontrivial element works; contract only
    gens = []
    images1 = [(i + 3) % 9 for i in range(9)]
    images2 = [3 * (i // 3) + (i + 1) % 3 for i in range(9)]
    c3c3 = PermGroup([Permutation(images1), Permutation(images2)])
    w = semiregular_of_prime_power_degree(c3c3)
    assert w.order() == 3 and w.is_semiregular() and c3c3.contains(w)


def test_semiregular_prime_power_degree_sylow_of_s32():
    # the iterated wreath product C2 wr C2 wr C2 wr C2 wr C2, order 2^31:
    # generator k swaps the halves of the block 0 .. 2^(k+1) - 1
    gens = [
        Permutation.from_cycles(32, [(i, i + 2**k) for i in range(2**k)])
        for k in range(5)
    ]
    p2 = PermGroup(gens)
    assert p2.order() == 2**31
    w = semiregular_of_prime_power_degree(p2)
    assert w.order() == 2 and w.is_semiregular() and p2.contains(w)


def test_semiregular_prime_power_degree_enumeration_fallback(monkeypatch):
    # every random element drawn is the identity, so the random Sylow
    # 2-subgroup of S8 stays trivial and the greedy scan over all elements
    # builds it, in one pass or more
    calls = []
    elements = PermGroup.elements

    def counted(self, *args, **kwargs):
        calls.append(self)
        return elements(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "elements", counted)
    monkeypatch.setattr(
        StabilizerChain, "random_element", lambda self, rng: np.arange(self.degree)
    )
    s8 = symmetric_group(8)
    w = semiregular_of_prime_power_degree(s8, seed=1)
    assert calls and all(c is s8 for c in calls)
    assert w.order() == 2 and w.is_semiregular() and s8.contains(w)


def test_semiregular_prime_power_degree_rejects_bad_inputs(s4, c6_regular):
    with pytest.raises(PreconditionError, match="not a prime power"):
        semiregular_of_prime_power_degree(c6_regular)
    intrans = PermGroup([Permutation.from_cycles(4, [(0, 1)])])
    with pytest.raises(PreconditionError, match="not transitive"):
        semiregular_of_prime_power_degree(intrans)


def test_lift_semiregular_c6(c6_regular):
    bundle = action_on_partition(c6_regular, [[0, 3], [1, 4], [2, 5]])
    image_gen = bundle.image_group.generators[0]
    x = lift_semiregular(bundle, c6_regular, image_gen, 3)
    assert x.order() == 3 and x.is_semiregular()
    assert x == Permutation.from_cycles(6, [(0, 2, 4), (1, 3, 5)])


def test_lift_semiregular_trivial_kernel(c6_regular):
    bundle = action_on_partition(c6_regular, [[v] for v in range(6)])
    assert bundle.kernel.is_trivial()
    el = Permutation.from_cycles(6, [(0, 2, 4), (1, 3, 5)])
    img = bundle.image_of(el)
    x = lift_semiregular(bundle, c6_regular, img, 3)
    assert x == el  # the unique preimage itself
    assert x.order() == 3 and x.is_semiregular()


def test_lift_semiregular_c2_x_c3():
    # regular C2 x C3 on 6 points: point = (a, b), a mod 2, b mod 3
    flip = Permutation([3, 4, 5, 0, 1, 2])
    rot = Permutation([1, 2, 0, 4, 5, 3])
    grp = PermGroup([flip, rot])
    assert grp.order() == 6
    bundle = action_on_partition(grp, [[0, 3], [1, 4], [2, 5]])
    assert bundle.kernel.order() == 2
    img = bundle.image_of(rot)
    x = lift_semiregular(bundle, grp, img, 3)
    assert x == rot
    assert x.order() == 3 and x.is_semiregular()


def test_lift_preconditions(c6_regular):
    bundle = action_on_partition(c6_regular, [[0, 3], [1, 4], [2, 5]])
    image_gen = bundle.image_group.generators[0]
    with pytest.raises(PreconditionError, match="not prime"):
        lift_semiregular(bundle, c6_regular, image_gen, 4)
    with pytest.raises(PreconditionError, match="order r"):
        lift_semiregular(bundle, c6_regular, Permutation.identity(3), 3)
    # coprimality: C4 over its half-turn has kernel order 2 and image order 2
    c4 = PermGroup([Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    bundle2 = action_on_partition(c4, [[0, 2], [1, 3]])
    assert bundle2.kernel.order() == 2
    img2 = bundle2.image_group.generators[0]
    with pytest.raises(PreconditionError, match="coprime"):
        lift_semiregular(bundle2, c4, img2, 2)


def test_lift_refuses_an_image_element_that_is_not_semiregular(d6):
    # D6 acts on the hexagon's antipodal pairs as S3, and a reflection swaps
    # two of them and fixes the third; r = 2 also divides |kernel| = 2, and
    # that check comes later
    bundle = action_on_partition(d6, [[0, 3], [1, 4], [2, 5]])
    with pytest.raises(PreconditionError, match="not semiregular"):
        lift_semiregular(bundle, d6, Permutation.from_cycles(3, [(1, 2)]), 2)


def test_chain_orders_for_random_groups_match_brute():
    rng = random.Random(321)
    for _ in range(25):
        n, gens, elements = random_group_t(rng, 8, 5000)
        grp = PermGroup([Permutation(list(g)) for g in gens], n)
        assert grp.order() == len(elements)
        # spot-check membership both ways
        sample = random.Random(1).sample(sorted(elements), min(5, len(elements)))
        for t in sample:
            assert grp.contains(Permutation(list(t)))


def test_orbit_against_oracle():
    rng = random.Random(17)
    for _ in range(30):
        n, gens, _ = random_group_t(rng, 9, 3000)
        grp = PermGroup([Permutation(list(g)) for g in gens], n)
        v = rng.randrange(n)
        assert next(set(o) for o in grp.orbit_partition() if v in o) == orbit_t(gens, v)
        assert [set(p) for p in grp.orbit_partition()] == [
            set(o) for o in orbits_t(gens, n)
        ]


def test_deterministic_chains(s4):
    g1 = PermGroup(list(s4.generators))
    g2 = PermGroup(list(s4.generators))
    assert g1.chain().base == g2.chain().base
    assert [tuple(a.images) for a in g1.elements()] == [
        tuple(a.images) for a in g2.elements()
    ]


def _sympy_group(arrays):
    from sympy.combinatorics import Permutation as SymPerm, PermutationGroup

    return PermutationGroup([SymPerm([int(x) for x in a]) for a in arrays])


def _extend_cases():
    rng = random.Random(2024)
    cases = [
        [g.images for g in psl2_action(7).generators],
        [g.images for g in m11_degree11().generators],
    ]
    while len(cases) < 10:
        n, gens, _ = random_group_t(rng, 9, 5000)
        if len(gens) > 1:
            cases.append([np.array(g) for g in gens])
    return cases


@pytest.mark.parametrize("gens", _extend_cases())
def test_extend_matches_fresh_chains_and_sympy(gens):
    from sympy.combinatorics import Permutation as SymPerm

    n = len(gens[0])
    rng = np.random.default_rng(n)
    chain = StabilizerChain([], n)
    for k in range(1, len(gens) + 1):
        was_member = chain.contains_array(gens[k - 1])
        assert bool(chain.extend_all([gens[k - 1]])) is not was_member
        assert chain.contains_array(gens[k - 1])
        fresh = StabilizerChain(gens[:k], n)
        sym = _sympy_group(gens[:k])
        assert chain.order == fresh.order == sym.order()
        assert chain.base == tuple(lv.point for lv in chain.levels)
        for _ in range(10):
            assert chain.contains_array(fresh.random_element(rng))
            x = rng.permutation(n)
            assert chain.contains_array(x) == sym.contains(SymPerm(x.tolist()))
        # a member changes nothing
        before = (chain.order, chain.base, len(chain.strong_generators()))
        assert not chain.extend_all([fresh.random_element(rng)])
        assert (chain.order, chain.base, len(chain.strong_generators())) == before
    # the identity test compares int64 bytes: other dtypes are converted
    assert chain.contains_array(np.arange(n, dtype=np.int32))
    assert chain.contains_array(gens[0].astype(np.int32))


@pytest.mark.parametrize(
    "make_group",
    [
        lambda: psl2_action(7),
        lambda: pgl2_action(5),
        lambda: praeger_xu_group(3, 3, 1),
        lambda: praeger_xu_group(2, 3, 1),
        lambda: PermGroup(
            [
                Permutation.from_cycles(8, [(0, 1, 2, 3)]),
                Permutation.from_cycles(8, [(4, 5), (6, 7)]),
            ]
        ),
    ],
    ids=["psl2-7", "pgl2-5", "px-3-3-1", "px-2-3-1", "c4xc2"],
)
def test_minimal_normal_subgroups_match_sympy(make_group):
    g = make_group()
    sym_g = _sympy_group(x.images for x in g.generators)
    mins = minimal_normal_subgroups(g)
    assert mins
    for m in mins:
        sym_m = _sympy_group(x.images for x in m.generators)
        assert sym_m.is_normal(sym_g)
        # minimal: the normal closure of any nontrivial element is all of it
        first = _sympy_group([m.generators[0].images])
        assert m.order() == sym_g.normal_closure(first).order() == sym_m.order()


def _c2xs3_regular():
    """C2 x S3 acting on its own 12 elements by right multiplication."""
    small = PermGroup(
        [
            Permutation.from_cycles(5, [(0, 1)]),
            Permutation.from_cycles(5, [(2, 3, 4)]),
            Permutation.from_cycles(5, [(2, 3)]),
        ]
    )
    elements = list(small.elements())
    index = {el: i for i, el in enumerate(elements)}
    return PermGroup(
        [Permutation([index[el * s] for el in elements]) for s in small.generators], 12
    )


@pytest.mark.parametrize(
    "make_group",
    [
        lambda: praeger_xu_group(2, 3, 1),
        lambda: praeger_xu_group(2, 7, 2),
        _c2xs3_regular,
        lambda: PermGroup(
            [
                Permutation.from_cycles(10, [(0, 1, 2, 3, 4)]),
                Permutation.from_cycles(10, [(0, 1, 2)]),
                Permutation.from_cycles(10, [(5, 6, 7, 8, 9)]),
                Permutation.from_cycles(10, [(5, 6, 7)]),
            ]
        ),
    ],
    ids=["px-2-3-1", "px-2-7-2", "c2xs3-regular", "a5xa5"],
)
def test_minimal_normal_subgroups_meet_trivially_and_2_groups_are_elementary(make_group):
    """The facts the proof report's M = P rests on: distinct minimal normal
    subgroups M, N meet trivially, so |<M, N>| = |M| |N|, and one of 2-power
    order is elementary abelian."""
    from sympy.combinatorics import PermutationGroup

    mins = [
        _sympy_group(x.images for x in m.generators)
        for m in minimal_normal_subgroups(make_group())
    ]
    assert len(mins) >= 2
    for i, m in enumerate(mins):
        for n in mins[i + 1 :]:
            joined = PermutationGroup(list(m.generators) + list(n.generators))
            assert joined.order() == m.order() * n.order()
        if m.order() & (m.order() - 1) == 0:
            assert m.is_abelian
            assert all(x.order() == 2 for x in m.generators)


def test_minimal_normal_subgroups_stored_per_group(monkeypatch):
    g = pgl2_action(5)
    first = minimal_normal_subgroups(g)
    builds = []
    init = StabilizerChain.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "__init__", counting_init)
    second = minimal_normal_subgroups(g)
    assert builds == []
    assert [m.generators for m in second] == [m.generators for m in first]
    with pytest.raises(BoundExceededError):
        minimal_normal_subgroups(g, bound=g.order() - 1)
    # a new group with the same generators computes afresh
    assert [m.order() for m in minimal_normal_subgroups(PermGroup(g.generators))] == [
        m.order() for m in first
    ]
    assert builds


@pytest.mark.parametrize(
    "make_group, closures, verified, minimal",
    [
        # C7: six classes of one element each, one cyclic subgroup
        (lambda: PermGroup([Permutation.from_cycles(7, [range(7)])]), 1, 1, [7]),
        # C5 x C5: 24 classes of one element each, six cyclic subgroups,
        # each closure of order 5 and none inside another
        (
            lambda: PermGroup(
                [
                    Permutation.from_cycles(10, [range(5)]),
                    Permutation.from_cycles(10, [range(5, 10)]),
                ]
            ),
            6,
            6,
            [5] * 6,
        ),
        # PSL(2,7): classes of elements of order 2, 3, 7 and 7; the two of
        # order 7 hold each other's powers. The group is simple, so the
        # closures of orders 3 and 7 hold the involution the first closure
        # started from, and are dropped before verification
        (lambda: psl2_action(7), 3, 1, [168]),
    ],
    ids=["c7", "c5xc5", "psl2-7"],
)
def test_minimal_normal_subgroups_close_each_cyclic_subgroup_class_once(
    monkeypatch, make_group, closures, verified, minimal
):
    g = make_group()
    g.chain()
    calls = []
    verifications = []
    adjoin = StabilizerChain._adjoin
    schreier_sims = StabilizerChain._schreier_sims

    def counting_adjoin(self, arrs):
        calls.append(len(arrs))
        return adjoin(self, arrs)

    def counting_schreier_sims(self, start, order=None):
        # an empty chain's constructor verifies no level
        if start >= 0:
            verifications.append(start)
        return schreier_sims(self, start, order)

    monkeypatch.setattr(StabilizerChain, "_adjoin", counting_adjoin)
    monkeypatch.setattr(StabilizerChain, "_schreier_sims", counting_schreier_sims)
    assert [m.order() for m in minimal_normal_subgroups(g)] == minimal
    assert len(calls) == closures
    assert len(verifications) == verified


@pytest.fixture(scope="module")
def structural_pass(corpus):
    """What one in-process pass of the normal-quotient routes over the
    corpus reaches, as (groups, closure_orbits). ``groups`` are the groups
    whose normal quotients it lists, and the quotient images the lift
    recurses on; ``closure_orbits`` holds each (G, y, orbits) for which it
    found the orbits of the normal closure of y in G without a chain."""
    from semireg import engine

    groups, closure_orbits = [], []
    real_quotients, real_action, real_orbits = (
        engine._normal_quotients,
        engine.action_on_partition,
        engine.normal_closure_orbits,
    )

    def quotients(g):
        groups.append(g)
        return real_quotients(g)

    def action(g, partition):
        bundle = real_action(g, partition)
        groups.append(bundle.image_group)
        return bundle

    def orbits(g, y):
        found = real_orbits(g, y)
        closure_orbits.append((g, y, found))
        return found

    routes = (engine.ROUTE_PRIME_POWER, engine.ROUTE_QUOTIENT_LIFT, engine.ROUTE_BUDDY_SWAP)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_normal_quotients", quotients)
        mp.setattr(engine, "action_on_partition", action)
        mp.setattr(engine, "normal_closure_orbits", orbits)
        for inst in corpus:
            grp = PermGroup(inst.group.generators)
            config = engine.EngineConfig(routes=routes, graph_id=inst.id)
            try:
                engine.find_semiregular(inst.graph, grp, config)
            except engine.InconclusiveError:
                pass
    return groups, closure_orbits


def test_minimal_normal_subgroups_match_the_all_closures_oracle(corpus, structural_pass):
    from oracles import minimal_normal_subgroups_all_closures

    groups = {}
    for g in [inst.group for inst in corpus if inst.group.order() <= NORMAL_BOUND]:
        groups.setdefault(g.gen_arrays().tobytes(), g)
    in_corpus = len(groups)
    for g in structural_pass[0]:
        if g.order() <= NORMAL_BOUND:
            groups.setdefault(g.gen_arrays().tobytes(), g)
    # the pass reaches quotient images that are not corpus groups
    assert len(groups) > in_corpus
    for g in groups.values():
        fresh = PermGroup(g.generators)
        ours = minimal_normal_subgroups(fresh, NORMAL_BOUND)
        theirs = minimal_normal_subgroups_all_closures(PermGroup(g.generators))
        assert [[x.images.tobytes() for x in m.generators] for m in ours] == [
            [a.tobytes() for a in sel] for sel in theirs
        ]
        for m in ours:
            # the kept chain is the closure's, and complete
            assert m.order() == StabilizerChain(m.gen_arrays(), m.degree).order
        if g.degree <= 12:
            sym_g = _sympy_group(x.images for x in g.generators)
            for m in ours:
                closure = sym_g.normal_closure(_sympy_group([m.generators[0].images]))
                assert m.order() == closure.order()


def test_semiregular_elements_match_the_per_element_oracle(corpus, structural_pass):
    from semireg.engine import _semiregular_elements

    from oracles import semiregular_per_element

    groups = {}
    for g in [inst.group for inst in corpus] + structural_pass[0]:
        if g.order() <= DEFAULT_BOUND:
            groups.setdefault(g.gen_arrays().tobytes(), g)
    groups["k12-m11"] = k12_m11()[1]
    with_hits = 0
    for g in groups.values():
        # every hit, in walk order, with its place in the walk
        ours = [(c, el.images.tobytes()) for c, el in _semiregular_elements(g)]
        ref = [(c, el.images.tobytes()) for c, el in semiregular_per_element(g)]
        assert ours == ref
        with_hits += bool(ours)
    # M11 on 12 points, the last group, yields nothing
    assert with_hits == len(groups) - 1 and ours == []


def test_normal_quotients_are_normal_with_three_orbits(corpus, structural_pass):
    # every candidate that quotient-lift and buddy-swap read, on every
    # corpus group and every group the structural pass reaches
    from semireg.engine import _normal_quotients

    groups = {}
    for g in [inst.group for inst in corpus] + structural_pass[0]:
        groups.setdefault(g.gen_arrays().tobytes(), g)
    assert len(groups) > len(corpus)
    count = 0
    for g in groups.values():
        quotients = _normal_quotients(g)
        orders = [nsub.order() for nsub, _ in quotients]
        assert orders == sorted(orders)
        partitions = [partition for _, partition in quotients]
        assert len({repr(p) for p in partitions}) == len(partitions)
        for nsub, partition in quotients:
            assert not nsub.is_trivial()
            assert all(g.contains(x) for x in nsub.generators)
            assert all(normalizes(s, nsub) for s in g.generators)
            assert partition == nsub.orbit_partition() and len(partition) >= 3
            count += 1
    assert count > 102


def test_closure_orbits_without_a_chain_match_the_built_closures(structural_pass):
    # each union-find the structural pass ran, whether or not it then built
    # the closure, against the orbits of the closure built in full
    _, closure_orbits = structural_pass
    assert len(closure_orbits) > 100
    assert any(len(orbits) < 3 for _, _, orbits in closure_orbits)
    for g, y, orbits in closure_orbits:
        assert orbits == normal_closure(g, [y]).orbit_partition()


def _s2_wr_s3():
    """S2 wr S3 on 6 points: the normal closure of (0 1) is its base group
    C2^3, with 3 orbits; those of its other generators are transitive."""
    return PermGroup(
        [
            Permutation.from_cycles(6, [(0, 1)]),
            Permutation.from_cycles(6, [(0, 2, 4), (1, 3, 5)]),
            Permutation.from_cycles(6, [(0, 2), (1, 3)]),
        ]
    )


@pytest.mark.parametrize(
    "make_group",
    [
        lambda: symmetric_group(4),
        lambda: PermGroup(
            [
                Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]),
                Permutation.from_cycles(5, [(0, 1, 2)]),
            ]
        ),
        lambda: PermGroup([Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])]),
        _s2_wr_s3,
        lambda: praeger_xu_group(2, 3, 1),
    ],
    ids=["s4", "a5", "c6", "s2-wr-s3", "px-2-3-1"],
)
def test_normal_closures_match_sympy(make_group):
    g = make_group()
    sym_g = _sympy_group(x.images for x in g.generators)
    rng = np.random.default_rng(7)
    elements = [*g.generators, *(g.random_element(rng) for _ in range(5))]
    for x in elements:
        o = x.order()
        for y in [x] + [x ** (o // q) for q in sorted(prime_factors(o))]:
            closure = normal_closure(g, [y.images])
            sym_closure = sym_g.normal_closure(_sympy_group([y.images]))
            assert closure.order() == sym_closure.order()
            assert closure.orbit_partition() == normal_closure_orbits(g, y.images)
            assert all(normalizes(s, closure) for s in g.generators)


def test_normal_quotients_are_the_generators_closures(d6):
    from semireg.engine import _normal_quotients

    def pairs(g):
        return [(nsub.order(), partition) for nsub, partition in _normal_quotients(g)]

    assert pairs(_s2_wr_s3()) == [(8, [[0, 1], [2, 3], [4, 5]])]
    # on the hexagon, the centre, the closure of the rotation's cube, is the
    # only normal subgroup with three orbits
    assert pairs(d6) == [(2, [[0, 3], [1, 4], [2, 5]])]


def _chain_digest(chain: StabilizerChain) -> str:
    """Everything a chain holds: base, strong generators in order, and each
    level's transversal keys in insertion order with reps and inverses."""
    digest = hashlib.sha256(repr(chain.base).encode())
    for arr in chain.strong_generators():
        digest.update(arr.tobytes())
    for lv in chain.levels:
        digest.update(repr(list(lv.transversal)).encode())
        for rep, rep_inv in lv.transversal.values():
            digest.update(rep.tobytes() + rep_inv.tobytes())
    return digest.hexdigest()


def test_chains_built_with_their_known_order_are_unchanged(corpus):
    from semireg.engine import _normal_quotients

    combined = 0
    for inst in corpus:
        gens, n, order = inst.group.gen_arrays(), inst.group.degree, inst.group.order()
        for prefix in ([0], [0, 1]):
            plain = StabilizerChain(gens, n, base_prefix=prefix)
            known = StabilizerChain(gens, n, base_prefix=prefix, order=order)
            assert known.order == order
            assert _chain_digest(known) == _chain_digest(plain), (inst.id, prefix)
        for _, partition in _normal_quotients(inst.group):
            # a group without a built chain passes no order
            plain = action_on_partition(PermGroup(inst.group.generators), partition)
            known = action_on_partition(inst.group, partition)
            assert _chain_digest(known._combined) == _chain_digest(plain._combined), inst.id
            combined += 1
    # the normal quotients of all 86 groups
    assert combined == 102


def test_chain_copy_grows_without_changing_the_original():
    g = psl2_action(7)
    gens = g.gen_arrays()
    chain = StabilizerChain(gens[:1], g.degree)
    before = _chain_digest(chain)
    grown = chain.copy()
    assert grown.extend_all(gens[1:])
    assert grown.order == g.order() > chain.order
    assert _chain_digest(chain) == before
    assert not chain.contains_array(gens[1])


def _level_snapshot(lv):
    return [(p, rep.tobytes(), rep_inv.tobytes()) for p, (rep, rep_inv) in lv.transversal.items()]


def _assert_extends(before, lv):
    """``lv`` holds every point of the snapshot ``before``, first and in the
    same order, with the same rep and inverse byte for byte."""
    assert _level_snapshot(lv)[: len(before)] == before


_STABLE_GROUPS = {
    "psl2-7": lambda: psl2_action(7),
    "m11": m11_degree11,
    "px-2-4-2": lambda: praeger_xu_group(2, 4, 2),
    "px-3-3-1": lambda: praeger_xu_group(3, 3, 1),
    "s8": lambda: symmetric_group(8),
}


@pytest.mark.parametrize("make_group", _STABLE_GROUPS.values(), ids=list(_STABLE_GROUPS))
def test_rebuilds_never_replace_a_rep(make_group, monkeypatch):
    g = make_group()
    gens, n, order = g.gen_arrays(), g.degree, g.order()
    rebuild = StabilizerChain._rebuild_level
    calls = []

    def checked(self, i):
        before = _level_snapshot(self.levels[i])
        out = rebuild(self, i)
        _assert_extends(before, self.levels[i])
        calls.append(i)
        return out

    monkeypatch.setattr(StabilizerChain, "_rebuild_level", checked)
    assert StabilizerChain(gens, n).order == order
    # the same across extend_all, one generator at a time
    grown = StabilizerChain(gens[:1], n)
    for x in gens[1:]:
        levels = [_level_snapshot(lv) for lv in grown.levels]
        grown.extend_all([x])
        for before, lv in zip(levels, grown.levels):
            _assert_extends(before, lv)
    assert grown.order == order
    assert calls


def _level_zero_cases():
    """(name, given generators, base prefix, then extend_all's elements)."""
    psl, m11, px = psl2_action(7), m11_degree11(), praeger_xu_group(2, 4, 1)
    cases = []
    for name, g in (("psl2-7", psl), ("m11", m11), ("px-2-4-1", px)):
        a = g.point_stabilizer(0).gen_arrays()[0]
        b = next(x for x in g.gen_arrays() if x[0] != 0)
        # a fixes the first base point and b does not
        cases.append((f"{name}-fixed", [a, b], [0], []))
        # repeated generators, and a product of two of them
        cases.append((f"{name}-repeated", [a, b, a, b[a], b, a], [], []))
        # a subgroup of a point stabilizer, grown by an element that moves
        # the point
        cases.append((f"{name}-grown", [a], [0], [b]))
        # the first generator, grown by the others
        gens = list(g.gen_arrays())
        cases.append((f"{name}-generators-grown", gens[:1], [], gens[1:]))
    # the first given generator fixes the first base point, and extend_all
    # adds a residue that moves it
    s4 = [Permutation.from_cycles(4, c).images for c in ([(2, 3)], [(0, 1, 2, 3)])]
    cases.append(("s4-grown", s4[:1], [0], s4[1:]))
    cases.append(("s4-unprefixed-grown", s4[:1], [], s4[1:]))
    return cases


_LEVEL_ZERO_CASES = _level_zero_cases()


@pytest.mark.parametrize(
    "given, prefix, extra",
    [case[1:] for case in _LEVEL_ZERO_CASES],
    ids=[case[0] for case in _LEVEL_ZERO_CASES],
)
def test_level_zero_from_the_given_generators_matches_sympy(given, prefix, extra):
    # level 0 reads its Schreier generators from the given generators and
    # from the residues extend_all adds, not from every strong generator
    from sympy.combinatorics import Permutation as SymPerm

    n = len(given[0])
    rng = np.random.default_rng(n)
    chain = StabilizerChain(given, n, base_prefix=prefix)
    steps = [(chain, given)]
    if extra:
        grown = chain.copy()
        assert grown.extend_all(extra)
        steps.append((grown, given + extra))
    for c, gens in steps:
        sym = _sympy_group(gens)
        assert c.order == sym.order() == StabilizerChain(gens, n).order
        assert c.base[: len(prefix)] == tuple(prefix)
        assert all(c.contains_array(x) for x in gens)
        for _ in range(20):
            assert c.contains_array(np.array(sym.random().array_form, dtype=np.int64))
            y = rng.permutation(n)
            assert c.contains_array(y) == sym.contains(SymPerm(y.tolist()))


def _alternating_30():
    # (0 1 2) and a 29-cycle generate A30
    return PermGroup(
        [Permutation.from_cycles(30, [(0, 1, 2)]), Permutation.from_cycles(30, [tuple(range(1, 30))])]
    )


def _m11_wr_s2():
    """M11 wr S2 in product action on 12 x 12 = 144 points, point (i, j) as
    12i + j: M11 on the first coordinate and the coordinate swap."""
    i, j = np.divmod(np.arange(144), 12)
    gens = [12 * a[i] + j for a in k12_m11()[1].gen_arrays()] + [12 * j + i]
    return PermGroup([Permutation(x) for x in gens])


# large groups from two or three generators, so that verification finds
# nearly every strong generator itself; each with a transposition outside it
_VERIFIED_ONLY_GROUPS = {
    "s22-wr-s2": (lambda: complete_bipartite_instance(22)[1], [(0, 22)]),
    "a30": (_alternating_30, [(0, 1)]),
    "m11-wr-s2": (_m11_wr_s2, [(0, 12)]),
}


@pytest.mark.parametrize(
    "make_group, outside",
    _VERIFIED_ONLY_GROUPS.values(),
    ids=list(_VERIFIED_ONLY_GROUPS),
)
def test_chains_built_by_verification_alone_match_sympy(make_group, outside):
    from sympy.combinatorics import Permutation as SymPerm

    g = make_group()
    chain = StabilizerChain(g.gen_arrays(), g.degree)
    sym = _sympy_group(g.gen_arrays())
    assert chain.order == sym.order()
    member = np.arange(g.degree)
    for x in [*g.gen_arrays(), *g.gen_arrays()[::-1]]:
        member = x[member]
    non_member = Permutation.from_cycles(g.degree, outside).images[member]
    for x, inside in ((member, True), (non_member, False)):
        assert chain.contains_array(x) is inside
        assert sym.contains(SymPerm(x.tolist())) is inside


def _s4():
    return PermGroup(
        [Permutation.from_cycles(4, [(0, 1)]), Permutation.from_cycles(4, [(0, 1, 2, 3)])]
    )


_ENUMERATED_GROUPS = {
    "s4": _s4,
    "psl2-7": lambda: psl2_action(7),
    "pgl2-5": lambda: pgl2_action(5),
    "m11": m11_degree11,
    "px-3-3-1": lambda: praeger_xu_group(3, 3, 1),
}


@pytest.mark.parametrize("make_group", _ENUMERATED_GROUPS.values(), ids=list(_ENUMERATED_GROUPS))
def test_element_array_rows_follow_iter_elements(make_group):
    g = make_group()
    prefixed = StabilizerChain(g.gen_arrays(), g.degree, base_prefix=[g.degree - 1])
    for chain in (g.chain(), prefixed):
        rows = chain.element_array()
        assert rows.dtype == np.int64
        assert rows.shape == (chain.order, chain.degree)
        expected = np.array(list(chain_products(chain)))
        assert np.array_equal(rows, expected)
        assert np.array_equal(np.array(list(chain.iter_elements())), expected)
    trivial = PermGroup([Permutation.identity(5)], 5).chain().element_array()
    assert trivial.tolist() == [list(range(5))]


@pytest.mark.parametrize("cells", [None, 64, 24], ids=["default", "64-cells", "24-cells"])
@pytest.mark.parametrize("make_group", _ENUMERATED_GROUPS.values(), ids=list(_ENUMERATED_GROUPS))
def test_element_blocks_follow_iter_elements(make_group, cells, monkeypatch):
    # with blocks of 64 entries, every group here also has blocks over its
    # deeper levels, and with 24 the slices of level 0 reach their cap
    from semireg import group

    if cells is not None:
        monkeypatch.setattr(group, "_BLOCK_CELLS", cells)
    g = make_group()
    prefixed = StabilizerChain(g.gen_arrays(), g.degree, base_prefix=[g.degree - 1])
    for chain in (g.chain(), prefixed):
        blocks = list(chain.element_blocks())
        assert all(b.dtype == np.int64 and b.shape[1] == chain.degree for b in blocks)
        assert all(b.size <= max(group._BLOCK_CELLS, chain.degree) for b in blocks)
        assert np.array_equal(np.concatenate(blocks), np.array(list(chain_products(chain))))
    trivial = list(PermGroup([Permutation.identity(5)], 5).chain().element_blocks())
    assert [b.tolist() for b in trivial] == [[list(range(5))]]


@pytest.mark.parametrize("make_group", _ENUMERATED_GROUPS.values(), ids=list(_ENUMERATED_GROUPS))
def test_prime_order_classes_match_sympy(make_group):
    g = make_group()
    elements, classes = _prime_order_classes(g)
    ours = Counter(
        (len(cls), Permutation(elements[cls[0]]).order()) for cls in classes
    )
    sym_classes = _sympy_group(x.images for x in g.generators).conjugacy_classes()
    theirs = Counter(
        (len(cls), next(iter(cls)).order())
        for cls in sym_classes
        if is_prime(next(iter(cls)).order())
    )
    assert ours == theirs
    # every class starts at its first row and no row is in two classes
    rows = np.concatenate(classes)
    assert len(set(rows.tolist())) == len(rows)
    assert all(cls[0] == min(cls) for cls in classes)


@pytest.mark.parametrize("make_group", _ENUMERATED_GROUPS.values(), ids=list(_ENUMERATED_GROUPS))
def test_extend_all_matches_fresh_chains_and_sympy(make_group):
    from sympy.combinatorics import Permutation as SymPerm

    g = make_group()
    n = g.degree
    sym_g = _sympy_group(x.images for x in g.generators)
    elements = g.chain().element_array()
    rng = np.random.default_rng(n)
    for x in elements[rng.choice(len(elements), 3, replace=False)]:
        sym_x = SymPerm(x.tolist())
        conjugates = sorted(sym_g.conjugacy_class(sym_x), key=lambda y: y.array_form)
        arrays = [np.array(y.array_form) for y in conjugates]
        chain = StabilizerChain([], n)
        added = chain.extend_all(arrays)
        closure = sym_g.normal_closure(_sympy_group([x]))
        assert chain.order == closure.order() == StabilizerChain(added, n).order
        assert chain.base == tuple(lv.point for lv in chain.levels)
        assert all(chain.contains_array(a) for a in arrays)
        for _ in range(10):
            assert chain.contains_array(np.array(closure.random().array_form))
            y = rng.permutation(n)
            assert chain.contains_array(y) == closure.contains(SymPerm(y.tolist()))
        # members change nothing
        before = (chain.order, chain.base, len(chain.strong_generators()))
        assert chain.extend_all(arrays[:5] + [np.arange(n)]) == []
        assert (chain.order, chain.base, len(chain.strong_generators())) == before
    # extending a chain that is not empty: x, then G's generators
    chain = StabilizerChain([elements[-1]], n)
    chain.extend_all([s.images for s in g.generators])
    assert chain.order == g.order() == sym_g.order()


# PSL(2,7) x PSL(2,7) on 7 + 7 points, from three random elements, its
# points relabelled so that the first nontrivial element of the chain's
# enumeration lying in a minimal normal subgroup has composite order
_PSL27_SQUARED = [
    [4, 1, 5, 11, 7, 12, 8, 0, 9, 6, 3, 10, 2, 13],
    [11, 2, 12, 7, 3, 6, 1, 4, 9, 5, 10, 13, 8, 0],
    [4, 1, 12, 0, 10, 9, 2, 13, 6, 5, 7, 3, 8, 11],
]


def test_minimal_normal_subgroups_ties_by_first_element():
    # The two minimal normal subgroups sort by their first nontrivial
    # element in enumeration order. Here that element has composite order
    # and lies in the subgroup whose first element of prime order comes
    # later, so sorting by the first element of prime order would differ.
    # Whether it does depends on the chain's reps: a change to chains may
    # need new generators here
    g = PermGroup([Permutation(x) for x in _PSL27_SQUARED])
    mins = minimal_normal_subgroups(g, g.order())
    assert g.order() == 168**2
    assert [m.order() for m in mins] == [168, 168]
    elements = g.chain().element_array()
    firsts, prime_firsts = [], []
    for m in mins:
        inside = {x.tobytes() for x in m.chain().element_array()}
        inside.discard(np.arange(g.degree).tobytes())
        members = [i for i, x in enumerate(elements) if x.tobytes() in inside]
        firsts.append(members[0])
        prime_firsts.append(next(i for i in members if is_prime(Permutation(elements[i]).order())))
    assert firsts == sorted(firsts)
    assert prime_firsts != sorted(prime_firsts)
    assert not is_prime(Permutation(elements[firsts[0]]).order())
    sym_g = _sympy_group(_PSL27_SQUARED)
    assert all(_sympy_group(x.images for x in m.generators).is_normal(sym_g) for m in mins)


# every default-corpus chain: its base, its strong generators in order, each
# level's transversal keys in insertion order with their reps, then the
# generators of the minimal normal subgroups of each group of order at most
# NORMAL_BOUND. Update this hash only with a change that means to alter
# chains, and say so in CHANGES.md.
GOLDEN_CHAINS_SHA256 = (
    "931d1ae400aa0b13de2c9654103e83b90b471e889b2aee7c8ad3053c7bed1d76"
)


def test_golden_chains_on_corpus(corpus):
    assert len(corpus) == 86
    digest = hashlib.sha256()
    for inst in corpus:
        chain = inst.group.chain()
        digest.update(repr((inst.id, chain.base)).encode())
        for arr in chain.strong_generators():
            digest.update(arr.tobytes())
        for lv in chain.levels:
            digest.update(repr(list(lv.transversal)).encode())
            for rep, _ in lv.transversal.values():
                digest.update(rep.tobytes())
        if inst.group.order() <= NORMAL_BOUND:
            for m in minimal_normal_subgroups(inst.group, NORMAL_BOUND):
                digest.update(repr(len(m.generators)).encode())
                for x in m.generators:
                    digest.update(x.images.tobytes())
    assert digest.hexdigest() == GOLDEN_CHAINS_SHA256
