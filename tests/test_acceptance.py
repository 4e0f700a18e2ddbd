"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import random
import time

import numpy as np

from semireg import _kernels
from semireg.perm import Permutation
from semireg.group import (
    DEFAULT_BOUND,
    PermGroup,
    PreconditionError,
    StabilizerChain,
    action_on_partition,
    lift_semiregular,
    minimal_normal_subgroups,
    prime_factors,
    semiregular_of_prime_power_degree,
)
from semireg.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    density_closure,
    has_triangle,
    local_graph,
    standard_double_cover,
)
from semireg.engine import (
    EngineConfig,
    arc_stabilizer_bound_check,
    buddy_swap_automorphism,
    c4_buddy_structure,
    find_semiregular,
    verify_certificate,
)
from semireg.families import (
    k12_m11,
    praeger_xu,
    praeger_xu_group,
    psl2_coset_instance,
    px_fiber_translations,
)
from semireg.formats import (
    ParseError,
    parse_generators,
    read_graph6,
    read_graph_auto,
    read_sparse6,
    write_graph6,
)

from oracles import closure_t, is_semiregular_t


def _random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def test_criterion_01_theorem_corpus(corpus):
    """Every default-corpus instance yields an independently verified
    certificate; 100% success within the runtime budget."""
    t0 = time.monotonic()
    assert len(corpus) >= 50
    failures = []
    methods = {}
    for inst in corpus:
        config = EngineConfig(graph_id=inst.id)
        cert = find_semiregular(inst.graph, inst.group, config)
        ok, reason = verify_certificate(inst.graph, inst.group, cert)
        if not ok or cert.method == "exhausted-none":
            failures.append((inst.id, cert.method, reason))
        methods[cert.method] = methods.get(cert.method, 0) + 1
    elapsed = time.monotonic() - t0
    assert not failures, failures
    assert elapsed <= 600
    print(
        f"\nACCEPTANCE 01 theorem-corpus: PASS "
        f"({len(corpus)} instances, 100% verified, methods={methods}, {elapsed:.1f}s)"
    )


def test_criterion_02_prime_power_degree():
    """>= 20 transitive groups of prime-power degree, each yielding a
    verified semiregular element of order exactly p."""

    def regular_rep(grp: PermGroup) -> PermGroup:
        elements = list(grp.elements())
        index = {e: i for i, e in enumerate(elements)}
        gens = []
        for g in grp.generators:
            gens.append(Permutation([index[e * g] for e in elements]))
        return PermGroup(gens, len(elements))

    def cyclic(n):
        return PermGroup([Permutation.from_cycles(n, [tuple(range(n))])])

    def abelian(*orders):
        n = 1
        for o in orders:
            n *= o
        gens = []
        stride = 1
        for o in orders:
            images = []
            for v in range(n):
                digit = (v // stride) % o
                images.append(v + stride * (((digit + 1) % o) - digit))
            gens.append(Permutation(images))
            stride *= o
        return PermGroup(gens, n)

    def dihedral(m):
        rot = Permutation.from_cycles(m, [tuple(range(m))])
        ref = Permutation([(-i) % m for i in range(m)])
        return PermGroup([rot, ref], m)

    def quaternion8():
        # Q8 as permutations of its 8 elements (regular representation)
        # elements: 1, -1, i, -i, j, -j, k, -k  (indices 0..7)
        i_img = [2, 3, 1, 0, 6, 7, 5, 4]  # left mult by i
        j_img = [4, 5, 7, 6, 1, 0, 2, 3]  # left mult by j
        return PermGroup([Permutation(i_img), Permutation(j_img)], 8)

    def heisenberg27():
        # upper unitriangular 3x3 matrices over F3 acting on themselves
        points = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
        index = {p: i for i, p in enumerate(points)}
        g1 = Permutation([index[((a + 1) % 3, b, c)] for a, b, c in points])
        g2 = Permutation([index[(a, (b + 1) % 3, (c + a) % 3)] for a, b, c in points])
        return PermGroup([g1, g2], 27)

    groups = {
        "C4": cyclic(4),
        "Klein-regular": abelian(2, 2),
        "D4-on-4": dihedral(4),
        "A4": PermGroup(
            [Permutation.from_cycles(4, [(0, 1, 2)]), Permutation.from_cycles(4, [(1, 2, 3)])]
        ),
        "S4-on-4": PermGroup(
            [Permutation.from_cycles(4, [(0, 1)]), Permutation.from_cycles(4, [(0, 1, 2, 3)])]
        ),
        "C8": cyclic(8),
        "C4xC2": abelian(4, 2),
        "C2^3": abelian(2, 2, 2),
        "D4-regular": regular_rep(dihedral(4)),
        "Q8-regular": quaternion8(),
        "px-2-4-1-group": praeger_xu_group(2, 4, 1),
        "C9": cyclic(9),
        "C3xC3": abelian(3, 3),
        "px-3-3-1-group": praeger_xu_group(3, 3, 1),
        "C16": cyclic(16),
        "C2^4": abelian(2, 2, 2, 2),
        "C4xC4": abelian(4, 4),
        "D8-regular": regular_rep(dihedral(8)),
        "px-2-8-1-group": praeger_xu_group(2, 8, 1),
        "C27": cyclic(27),
        "C9xC3": abelian(9, 3),
        "C3^3": abelian(3, 3, 3),
        "Heisenberg27": heisenberg27(),
    }
    assert len(groups) >= 20
    for name, grp in groups.items():
        assert grp.is_transitive(), name
        n = grp.degree
        p = min(prime_factors(n))
        w = semiregular_of_prime_power_degree(grp)
        assert w.order() == p, name
        assert w.is_semiregular(), name
        assert grp.contains(w), name
        assert not w.is_identity(), name
    print(
        f"\nACCEPTANCE 02 prime-power-degree: PASS "
        f"({len(groups)} groups, degrees {sorted({g.degree for g in groups.values()})})"
    )


def test_criterion_03_coprime_lifting():
    """100 randomized kernel-coprime lift constructions, zero failures."""
    rng = random.Random(2020)
    built = 0
    trials = 0
    while built < 100:
        trials += 1
        r = rng.choice([3, 5, 7])
        m = rng.choice([m for m in (2, 4, 8, 9, 16, 25) if math.gcd(m, r) == 1])
        kind = rng.choice(["cyclic", "wreath", "product"])
        if kind == "cyclic":
            n = m * r
            grp = PermGroup([Permutation.from_cycles(n, [tuple(range(n))])])
            gen = grp.generators[0]
            kernel_gen = gen ** r
            partition = PermGroup([kernel_gen], n).orbit_partition()
        elif kind == "product":
            # C_m x C_r acting regularly on m*r points (v = a*r + b)
            n = m * r
            shift_a = Permutation([((a + 1) % m) * r + b for a in range(m) for b in range(r)])
            shift_b = Permutation([a * r + (b + 1) % r for a in range(m) for b in range(r)])
            grp = PermGroup([shift_a, shift_b], n)
            partition = PermGroup([shift_a], n).orbit_partition()
        else:
            # Z_m wr Z_r on r blocks of size m
            blocks = r
            n = blocks * m
            sigma = Permutation([((i // m + 1) % blocks) * m + i % m for i in range(n)])
            tau = Permutation([(i + 1) % m if i < m else i for i in range(n)])
            grp = PermGroup([sigma, tau], n)
            base_gens = [tau]
            for _ in range(blocks - 1):
                base_gens.append(base_gens[-1].conjugate(sigma))
            partition = PermGroup(base_gens, n).orbit_partition()
        if len(partition) < 3:
            continue
        bundle = action_on_partition(grp, partition)
        if math.gcd(r, bundle.kernel.order()) != 1:
            continue
        # a semiregular image element of order r
        candidate = None
        for el in bundle.image_group.elements():
            if el.order() == r and el.is_semiregular():
                candidate = el
                break
        if candidate is None:
            continue
        lifted = lift_semiregular(bundle, candidate, r)
        assert lifted.order() == r
        assert lifted.is_semiregular()
        assert grp.contains(lifted)
        assert bundle.image_of(lifted) in {candidate ** k for k in range(1, r)}
        built += 1
    print(f"\nACCEPTANCE 03 coprime-lifting: PASS (100 lifts, {trials} trials, 0 failures)")


def test_criterion_04_psl2_coset_triangles():
    """For p in {5,7,11,13} and each s | (p-1)/2: the (H, Hg, Hgh) triangle,
    the double-coset membership, and the exact vertex/fixed-point counts."""
    cases = 0
    for p in (5, 7, 11, 13):
        half = (p - 1) // 2
        for s in range(1, half + 1):
            if half % s != 0:
                continue
            bundle = psl2_coset_instance(p, s)
            graph = bundle.graph
            assert graph.n == (p * p - 1) // (2 * s)

            from semireg.families import _mobius_permutation

            h_el = _mobius_permutation((1, 0, 1, 1), p)
            g_el = bundle.element
            v_base = 0
            v_g = bundle.coset_of(g_el)
            v_gh = bundle.coset_of(g_el * h_el)
            assert len({v_base, v_g, v_gh}) == 3
            assert graph.has_edge(v_base, v_g)
            assert graph.has_edge(v_base, v_gh)
            assert graph.has_edge(v_g, v_gh)
            # membership h*g*h in HgH: its coset is a neighbour of the base
            hgh = (h_el * g_el) * h_el
            assert bundle.coset_of(hgh) in set(int(x) for x in graph.neighbors(0))

            # H-fixed vertices: exactly (p-1)/2s
            h_group = bundle.subgroup
            fixed = 0
            for v, rep in enumerate(bundle.coset_reps):
                if all(
                    bundle.coset_of(rep * h) == v for h in h_group.generators
                ):
                    fixed += 1
            assert fixed == half // s, (p, s, fixed)
            cases += 1
    assert cases == sum(
        1 for p in (5, 7, 11, 13) for s in range(1, p) if ((p - 1) // 2) % s == 0 and s <= (p - 1) // 2
    )
    print(f"\nACCEPTANCE 04 psl2-coset-triangles: PASS ({cases} (p,s) cases)")


def test_criterion_05_density(corpus):
    """Density closure from every edge on prime-valency instances with
    triangles and connected local graphs; non-density on cycles; confluence."""
    candidates = [(f"psl2-{p}-{s}", psl2_coset_instance(p, s).graph)
                  for p in (5, 7, 11, 13)
                  for s in range(1, (p - 1) // 2 + 1)
                  if ((p - 1) // 2) % s == 0]
    candidates.append(("k12", k12_m11()[0]))
    from semireg.group import is_prime

    checked = 0
    for name, graph in candidates:
        val = graph.valency()
        if val is None or not is_prime(val):
            continue
        if not graph.is_connected() or has_triangle(graph) is None:
            continue
        locals_connected = all(
            local_graph(graph, v)[0].is_connected() for v in range(graph.n)
        )
        if not locals_connected:
            continue
        for u, w in graph.edges():
            closure, dense = density_closure(graph, [u, w])
            assert dense, (name, u, w)
        checked += 1
    assert checked >= 5
    for n in range(5, 13):
        closure, dense = density_closure(cycle_graph(n), [0, 1])
        assert not dense and closure == frozenset({0, 1})
    rng = random.Random(55)
    for _ in range(500):
        n = rng.randrange(3, 25)
        g = _random_graph(rng, n, rng.random())
        s0 = rng.sample(range(n), rng.randrange(1, n))
        fifo, dense = density_closure(g, s0)
        mask = np.zeros(n, dtype=np.uint8)
        mask[s0] = 1
        lifo = _kernels.density_closure_mask(g.indptr, g.indices, mask, 1)
        assert fifo == set(np.flatnonzero(lifo).tolist())
        assert dense == bool(lifo.all())
    print(
        f"\nACCEPTANCE 05 density: PASS ({checked} prime-valency instances, "
        f"8 cycles non-dense, 500 confluence pairs)"
    )


def test_criterion_06_double_cover_density():
    """200 dense (graph, S0) pairs: the double cover is dense w.r.t.
    S0 x {0,1}. 100%."""
    rng = random.Random(66)
    found = 0
    attempts = 0
    while found < 200:
        attempts += 1
        assert attempts < 20_000
        n = rng.randrange(3, 20)
        g = _random_graph(rng, n, 0.3 + 0.6 * rng.random())
        s0 = rng.sample(range(n), rng.randrange(1, max(2, n // 2)))
        _, dense = density_closure(g, s0)
        if not dense:
            continue
        cover = standard_double_cover(g)
        cover_seed = [2 * v for v in s0] + [2 * v + 1 for v in s0]
        _, cover_dense = density_closure(cover, cover_seed)
        assert cover_dense, (n, sorted(g.edges()), s0)
        found += 1
    print(f"\nACCEPTANCE 06 double-cover-density: PASS (200/200 dense pairs)")


def test_criterion_07_elusiveness_witness():
    """M11 on K12 is elusive (exhausted-none after the full 7920-element
    scan); adding a rotation yields a certificate. Within 5 seconds."""
    t0 = time.monotonic()
    k12, m11 = k12_m11()
    scanned = 0
    for el in m11.elements():
        scanned += 1
        assert el.is_identity() or not el.is_semiregular()
    assert scanned == 7920
    cert = find_semiregular(k12, m11, EngineConfig(graph_id="k12-m11"))
    assert cert.method == "exhausted-none"
    ok, reason = verify_certificate(k12, m11, cert)
    assert ok, reason
    big = PermGroup(
        list(m11.generators) + [Permutation.from_cycles(12, [tuple(range(12))])], 12
    )
    cert2 = find_semiregular(k12, big, EngineConfig(graph_id="k12-big"))
    assert cert2.method != "exhausted-none" and cert2.element is not None
    ok2, reason2 = verify_certificate(k12, big, cert2)
    assert ok2, reason2
    elapsed = time.monotonic() - t0
    assert elapsed <= 5.0
    print(f"\nACCEPTANCE 07 elusiveness-witness: PASS ({elapsed:.2f}s)")


def test_criterion_08_buddy_machinery(corpus):
    """On corpus instances with a unique-buddy C4 structure, the swap is a
    verified fixed-point-free involution with equal neighbourhoods: each
    vertex and its buddy have the same neighbours. ``buddy_swap_automorphism``
    checks none of this itself."""
    hits = 0
    for inst in corpus:
        if inst.group.order() > DEFAULT_BOUND:
            continue
        for nsub in minimal_normal_subgroups(inst.group):
            factored = prime_factors(nsub.order())
            if set(factored) != {2}:
                continue
            partition = nsub.orbit_partition()
            if len(partition) < 3:
                continue
            try:
                bs = c4_buddy_structure(inst.graph, partition)
            except PreconditionError:
                continue
            if bs.buddies_per_vertex != 1:
                continue
            swap = buddy_swap_automorphism(inst.graph, bs)
            assert swap.order() == 2
            assert len(swap.moved_points()) == inst.graph.n
            assert inst.graph.is_automorphism(swap)
            assert swap.is_semiregular()
            for v in range(inst.graph.n):
                z = int(swap(v))
                assert np.array_equal(
                    inst.graph.neighbors(v), inst.graph.neighbors(z)
                )
            hits += 1
    # every unique-buddy swap of every minimal normal 2-subgroup, on 15
    # instances
    assert hits == 23
    print(f"\nACCEPTANCE 08 buddy-machinery: PASS ({hits} unique-buddy swaps)")


def test_criterion_09_arc_stabilizer_bound():
    """On C(2,r,1) with the fiber translation group, every s-arc from vertex
    0 satisfies the index bound |M_v0 : M_alpha| <= 2^s."""
    total_checked = 0
    for r in range(3, 9):
        graph, _ = praeger_xu(2, r, 1)
        fibers = px_fiber_translations(2, r, 1)
        results = arc_stabilizer_bound_check(graph, fibers, s_values=(1, 2, 3, 4))
        for s, violations, passed in results:
            assert passed, (r, s, violations)
            total_checked += 1
    print(
        f"\nACCEPTANCE 09 arc-stabilizer-bound: PASS "
        f"(r in 3..8, s in 1..4, {total_checked} (r,s) pairs, 0 violations)"
    )


def test_criterion_10_infrastructure():
    """graph6 round-trips, chain orders vs brute-force counts, parser fuzz."""
    rng = random.Random(1010)
    for _ in range(1000):
        n = rng.randrange(1, 45)
        g = _random_graph(rng, n, rng.random())
        assert read_graph6(write_graph6(g)) == g

    from oracles import random_group_t

    grp_rng = random.Random(2021)
    for _ in range(50):
        n, gens, elements = random_group_t(grp_rng, 9, 5000)
        grp = PermGroup([Permutation(list(t)) for t in gens], n)
        assert grp.order() == len(elements)

    fuzz_rng = random.Random(3030)
    crashes = 0
    for _ in range(10_000):
        blob = bytes(fuzz_rng.randrange(256) for _ in range(fuzz_rng.randrange(0, 25)))
        for reader in (read_graph6, read_sparse6, read_graph_auto):
            try:
                reader(blob)
            except (ParseError, ValueError):
                pass
            except Exception:
                crashes += 1
        try:
            parse_generators(blob.decode("latin1"))
        except (ParseError, ValueError):
            pass
        except Exception:
            crashes += 1
    assert crashes == 0
    print(
        "\nACCEPTANCE 10 infrastructure: PASS "
        "(1000 graph6 round-trips, 50 chain orders vs brute counts, 10^4 fuzz trials)"
    )
