"""The six kernel cases, run at the end of each traced run.

One call of each ``semireg._kernels`` kernel on a fixed input made from the
seed with numpy alone. The cases are those of the kernel-only script
``benchmarks/bench_kernels.py``, same kernels and sizes, except that the
random graph of degree about 6 is a union of three Hamiltonian cycles. The
calls go through the package's module, so tracing counts them: every
``kernels.*`` metric is the workload's own kernel calls plus these six.
Each result is checked.
"""

from __future__ import annotations

import numpy as np

_N_PERM = 4000
_N_GRAPH = 1500


def _csr(n: int, pairs: np.ndarray):
    """Sorted CSR adjacency of a simple undirected graph from edge pairs."""
    a = np.concatenate([pairs[:, 0], pairs[:, 1]])
    b = np.concatenate([pairs[:, 1], pairs[:, 0]])
    keep = a != b
    arcs = np.unique(np.stack([a[keep], b[keep]], axis=1), axis=0)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, arcs[:, 0] + 1, 1)
    return np.cumsum(indptr), arcs[:, 1].astype(np.int64)


def kernel_cases(seed: int) -> list[tuple[str, tuple]]:
    """(kernel name, arguments) for one call of each kernel."""
    rng = np.random.default_rng(seed)
    n = _N_PERM
    perm = rng.permutation(n).astype(np.int64)
    semi = np.roll(np.arange(n, dtype=np.int64), 1)
    gens = np.stack([rng.permutation(n).astype(np.int64) for _ in range(4)])

    # union of three random Hamiltonian cycles: degree about 6
    m = _N_GRAPH
    pairs = []
    for _ in range(3):
        order = rng.permutation(m)
        pairs.append(np.stack([order, np.roll(order, 1)], axis=1))
    indptr, indices = _csr(m, np.concatenate(pairs))
    seed_mask = np.zeros(m, dtype=np.uint8)
    seed_mask[:10] = 1

    # a circulant with its rotation and reflection, for the arc-orbit walk
    v = np.arange(m, dtype=np.int64)
    circ = np.concatenate([np.stack([v, (v + d) % m], axis=1) for d in (1, 2, 3)])
    c_indptr, c_indices = _csr(m, circ)
    c_heads = np.repeat(v, np.diff(c_indptr))
    c_gens = np.stack([(v + 1) % m, (-v) % m])

    return [
        ("point_cycle_lengths", (perm,)),
        ("is_semiregular_images", (semi,)),
        ("orbit_mask", (gens, 0)),
        ("density_closure_mask", (indptr, indices, seed_mask, 0)),
        ("triangle_witness", (indptr, indices)),
        ("arc_orbit_size", (c_indptr, c_indices, c_heads, c_gens, 0)),
    ]


def run_kernel_cases(seed: int) -> list[str]:
    """Call each kernel on its case and return a description of every result
    that fails its check."""
    from semireg import _kernels

    problems = []
    for name, args in kernel_cases(seed):
        if not _CHECKS[name](getattr(_kernels, name)(*args), *args):
            problems.append(f"kernel {name}: wrong result on its fixed input")
    return problems


def _cycle_lengths_ok(out, images):
    out = np.asarray(out)
    if not np.array_equal(out[images], out):
        return False
    lengths, counts = np.unique(out, return_counts=True)
    return bool(np.all(counts % lengths == 0))


def _closure_ok(out, indptr, indices, seed_mask, _lifo):
    inside = np.asarray(out).astype(bool)
    if not np.all(inside[seed_mask.astype(bool)]):
        return False
    heads = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    counts = np.bincount(heads, weights=inside[indices], minlength=indptr.size - 1)
    return bool(np.all(counts[~inside] < 2))


def _triangle_ok(out, indptr, indices):
    u, v, w = (int(x) for x in out)
    if u < 0:
        return False  # three random Hamiltonian cycles on 1500 points close a triangle

    def adjacent(a, b):
        return b in indices[indptr[a]:indptr[a + 1]]

    return adjacent(u, v) and adjacent(v, w) and adjacent(u, w)


_CHECKS = {
    "point_cycle_lengths": _cycle_lengths_ok,
    "is_semiregular_images": lambda out, _images: bool(out),
    "orbit_mask": lambda out, gens, start: bool(out[start])
    and bool(np.all(out[gens[:, np.flatnonzero(out)]])),
    "density_closure_mask": _closure_ok,
    "triangle_witness": _triangle_ok,
    # the dihedral group moves the arc (0, 1) onto the 2m arcs (v, v +- 1)
    "arc_orbit_size": lambda out, indptr, *_: int(out) == 2 * (indptr.size - 1),
}
