import random
from collections import Counter

import numpy as np
import pytest

from semireg.perm import Permutation

from oracles import cycle_lengths_t, is_semiregular_t


def test_compose_right_action():
    # apply left factor first: (0 1) then (1 2) sends 0->1->2
    a = Permutation.from_cycles(3, [(0, 1)])
    b = Permutation.from_cycles(3, [(1, 2)])
    assert (a * b) == Permutation.from_cycles(3, [(0, 2, 1)])


def test_identity_laws():
    a = Permutation.from_cycles(5, [(0, 3), (1, 2, 4)])
    e = Permutation.identity(5)
    assert e * a == a
    assert a * e == a
    assert a * a.inverse() == e
    assert a.inverse() * a == e


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation.identity(3) * Permutation.identity(4)


def test_inverse_examples():
    assert Permutation.from_cycles(3, [(0, 1, 2)]).inverse() == Permutation.from_cycles(
        3, [(0, 2, 1)]
    )
    assert Permutation.identity(4).inverse() == Permutation.identity(4)
    invol = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    assert invol.inverse() == invol


def test_power_and_order():
    assert Permutation.from_cycles(5, [(0, 1), (2, 3, 4)]).order() == 6
    assert Permutation.from_cycles(4, [(0, 1, 2, 3)]) ** 2 == Permutation.from_cycles(
        4, [(0, 2), (1, 3)]
    )
    assert Permutation.identity(7).order() == 1
    a = Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    assert a ** -1 == a.inverse()
    assert a ** 0 == Permutation.identity(6)
    assert a ** 7 == a


def test_order_divides_any_annihilating_power():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(2, 30)
        images = list(range(n))
        rng.shuffle(images)
        a = Permutation(images)
        o = a.order()
        assert (a ** o).is_identity()
        for k in (o * 2, o * 3):
            assert (a ** k).is_identity()


def test_cycle_decomposition_deterministic_order():
    a = Permutation.from_cycles(6, [(3, 4), (0, 2, 1)])
    cycles = a.cycle_decomposition()
    assert cycles == ((0, 2, 1), (3, 4), (5,))
    assert sorted(Counter(map(len, cycles)).elements()) == [1, 2, 3]


def test_cycle_decomposition_identity():
    cycles = Permutation.identity(5).cycle_decomposition()
    assert Counter(map(len, cycles))[1] == 5


def test_cycle_decomposition_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 40)
        images = list(range(n))
        rng.shuffle(images)
        a = Permutation(images)
        assert Permutation.from_cycles(n, a.cycle_decomposition()) == a


def test_semiregular_examples():
    assert Permutation.from_cycles(4, [(0, 1), (2, 3)]).is_semiregular()
    assert not Permutation.from_cycles(4, [(0, 1, 2)]).is_semiregular()
    assert Permutation.identity(6).is_semiregular()


def test_semiregular_iff_fixed_sets_trivial():
    # semiregular <=> every power fixes nothing or everything
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(2, 25)
        images = list(range(n))
        rng.shuffle(images)
        a = Permutation(images)
        powers_ok = all(
            len((a ** k).moved_points()) in (0, n)
            for k in range(1, a.order() + 1)
        )
        assert a.is_semiregular() == powers_ok


def test_semiregular_brute_oracle_1000_random():
    # compare against independent pointer-chasing on 1000 random permutations
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randrange(1, 51)
        images = list(range(n))
        rng.shuffle(images)
        a = Permutation(images)
        t = tuple(images)
        assert a.is_semiregular() == is_semiregular_t(t)
        assert sorted(len(c) for c in a.cycle_decomposition()) == cycle_lengths_t(t)


def test_validation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 1, 3])
    with pytest.raises(ValueError):
        Permutation([])


def test_from_cycles_rejects_repeats():
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(0, 5)])


def test_images_are_immutable():
    a = Permutation.from_cycles(3, [(0, 1)])
    with pytest.raises(ValueError):
        a.images[0] = 2


def test_hash_consistency():
    a = Permutation.from_cycles(4, [(0, 1)])
    b = Permutation([1, 0, 2, 3])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
