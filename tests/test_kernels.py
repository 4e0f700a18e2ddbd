import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semireg import _kernels
from semireg.graphs import Graph, cycle_graph

from oracles import arc_orbit_size_t, cycle_lengths_t, is_semiregular_t, orbit_t, orbits_t

def random_graph(rng, n, p):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def test_point_cycle_lengths():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 60)
        images = list(range(n))
        rng.shuffle(images)
        arr = np.array(images, dtype=np.int64)
        lengths = _kernels.point_cycle_lengths(arr)
        # each point's value equals the length of its cycle
        expected_multiset = []
        for ln in cycle_lengths_t(tuple(images)):
            expected_multiset.extend([ln] * ln)
        assert sorted(int(x) for x in lengths) == sorted(expected_multiset)


def test_is_semiregular():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randrange(1, 40)
        images = list(range(n))
        rng.shuffle(images)
        arr = np.array(images, dtype=np.int64)
        assert bool(_kernels.is_semiregular_images(arr)) == is_semiregular_t(
            tuple(images)
        )


def _cycles(order, lengths):
    """The permutation whose cycles run through ``order`` in consecutive
    runs of the given lengths."""
    perm = [0] * len(order)
    start = 0
    for d in lengths:
        cycle = order[start : start + d]
        for i, x in enumerate(cycle):
            perm[x] = cycle[(i + 1) % d]
        start += d
    return perm


@st.composite
def permutation_blocks(draw):
    """A (rows, degree) block of images, degree 1-40: identity rows, rows
    with a fixed point, products of equal-length cycles and any
    permutations, in any mix."""
    n = draw(st.integers(1, 40))
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["identity", "fixed point", "equal cycles", "any"]))
        perm = draw(st.permutations(range(n)))
        if kind == "identity":
            perm = list(range(n))
        elif kind == "fixed point":
            p = draw(st.integers(0, n - 1))
            q = perm.index(p)
            perm[q], perm[p] = perm[p], p
        elif kind == "equal cycles":
            d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
            perm = _cycles(perm, [d] * (n // d))
        rows.append(perm)
    return np.array(rows, dtype=np.int64)


def _walked(rows):
    ident = np.arange(rows.shape[1])
    return [
        not np.array_equal(row, ident) and bool(_kernels.is_semiregular_images(row))
        for row in rows
    ]


@settings(max_examples=200, deadline=None)
@given(permutation_blocks())
def test_semiregular_rows_match_the_walk_row_by_row(rows):
    got = _kernels.semiregular_rows(rows)
    assert got.dtype == bool and got.tolist() == _walked(rows)


def test_semiregular_rows_takes_the_powers_and_the_walk():
    # 30 rows without a fixed point, more than _WALK_ROWS, go through the
    # powers; the 37-cycles outlast _POWER_STEPS and are walked after them,
    # and the sixth power fixes every point of the 2- and 3-cycles, which
    # the second power has already ruled out
    rng = random.Random(8)
    rows = []
    for _ in range(10):
        order = list(range(37))
        rng.shuffle(order)
        rows += [
            _cycles(order, [37]),
            _cycles(order, [3, 34]),
            _cycles(order, [2] * 5 + [3] * 9),
            list(range(37)),
        ]
    block = np.array(rows, dtype=np.int64)
    assert len(np.flatnonzero((block != np.arange(37)).all(axis=1))) > _kernels._WALK_ROWS
    got = _kernels.semiregular_rows(block).tolist()
    assert got == _walked(block) == [True, False, False, False] * 10


def test_orbit_mask():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(2, 30)
        k = rng.randrange(1, 4)
        gens = []
        for _ in range(k):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(tuple(images))
        arr = np.array(gens, dtype=np.int64)
        v = rng.randrange(n)
        mask = _kernels.orbit_mask(arr, v)
        assert mask.dtype == np.uint8
        assert {int(x) for x in np.flatnonzero(mask)} == orbit_t(list(gens), v)


def test_orbits_against_oracle():
    # generators that each move a few points, so most sets leave many
    # orbits, fixed points among them
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randrange(1, 40)
        k = rng.randrange(1, 4)
        gens = []
        for _ in range(k):
            images = list(range(n))
            moved = rng.sample(range(n), rng.randrange(0, min(n, 6) + 1))
            for i, x in enumerate(moved):
                images[x] = moved[(i + 1) % len(moved)]
            gens.append(tuple(images))
        arr = np.array(gens, dtype=np.int64)
        got = _kernels.orbits(np.arange(0, arr.size + 1, k), arr.T.ravel())
        assert [frozenset(o) for o in got] == orbits_t(gens, n)
        assert all(o == sorted(o) for o in got)
        v = rng.randrange(n)
        assert {int(x) for x in np.flatnonzero(_kernels.orbit_mask(arr, v))} == orbit_t(gens, v)


def test_density_closure_kernel():
    rng = random.Random(8)
    for trial in range(80):
        n = rng.randrange(2, 25)
        g = random_graph(rng, n, rng.random())
        # the closure comes back in the seed's dtype
        seed_mask = np.zeros(n, dtype=(np.uint8, np.bool_)[trial % 2])
        for v in rng.sample(range(n), rng.randrange(1, n)):
            seed_mask[v] = 1
        fifo = _kernels.density_closure_mask(g.indptr, g.indices, seed_mask, 0)
        lifo = _kernels.density_closure_mask(g.indptr, g.indices, seed_mask, 1)
        assert np.array_equal(fifo, lifo)
        assert fifo.dtype == lifo.dtype == seed_mask.dtype
        # brute closure
        s = {int(x) for x in np.flatnonzero(seed_mask)}
        changed = True
        while changed:
            changed = False
            for v in range(n):
                if v not in s and sum(1 for w in g.neighbors(v) if int(w) in s) >= 2:
                    s.add(v)
                    changed = True
        assert {int(x) for x in np.flatnonzero(fifo)} == s


def test_triangle_kernel():
    rng = random.Random(9)
    for _ in range(150):
        n = rng.randrange(3, 20)
        g = random_graph(rng, n, rng.random())
        out = _kernels.triangle_witness(g.indptr, g.indices)
        brute = None
        for u in range(n):
            for v in range(u + 1, n):
                for w in range(v + 1, n):
                    if g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w):
                        brute = (u, v, w)
                        break
                if brute:
                    break
            if brute:
                break
        # the witness is the first triangle in lexicographic order
        assert out.dtype == np.int64
        assert tuple(out.tolist()) == (brute or (-1, -1, -1))


def _arc_orbit_cases(corpus, d6, c6_regular):
    """(graph, generator rows) pairs: every corpus group and its first
    generator alone, the C6 fixtures, and a 1500-vertex circulant whose
    rotation and reflection need about 750 search rounds."""
    for inst in corpus:
        gens = inst.group.gen_arrays()
        yield inst.graph, gens
        yield inst.graph, gens[:1]
    yield cycle_graph(6), d6.gen_arrays()
    yield cycle_graph(6), c6_regular.gen_arrays()
    m = 1500
    v = np.arange(m, dtype=np.int64)
    circulant = Graph(m, [(i, (i + d) % m) for i in range(m) for d in (1, 2, 3)])
    yield circulant, np.stack([(v + 1) % m, (-v) % m])


def test_arc_orbit_kernel_matches_brute(corpus, d6, c6_regular):
    smaller = 0
    for graph, gens in _arc_orbit_cases(corpus, d6, c6_regular):
        heads = graph.arc_sources()
        arcs = list(zip(heads.tolist(), graph.indices.tolist()))
        rows = [tuple(row) for row in gens.tolist()]
        ne = len(arcs)
        for e0 in sorted({0, ne // 2, ne - 1}):
            size = _kernels.arc_orbit_size(graph.indptr, graph.indices, heads, gens, e0)
            assert size == arc_orbit_size_t(arcs, rows, arcs[e0])
            smaller += size < ne
    # the one-generator subgroups and the C6 rotation leave arcs out
    assert smaller > 0


def test_arc_orbit_kernel_rejects_a_non_automorphism(d6):
    graph = cycle_graph(6)
    heads = graph.arc_sources()
    # a transposition of two adjacent vertices maps the arc (1, 2) to (0, 2)
    swap = np.array([[1, 0, 2, 3, 4, 5]], dtype=np.int64)
    gens = np.concatenate([d6.gen_arrays(), swap])
    arcs = list(zip(heads.tolist(), graph.indices.tolist()))
    with pytest.raises(ValueError):
        arc_orbit_size_t(arcs, [tuple(r) for r in gens.tolist()], arcs[0])
    with pytest.raises(ValueError):
        _kernels.arc_orbit_size(graph.indptr, graph.indices, heads, gens, 0)
