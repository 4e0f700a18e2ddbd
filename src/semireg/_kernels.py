"""Hot inner loops over permutation image arrays and CSR adjacency.

Each kernel has one implementation, on numpy arrays: Python loops for the
walks whose next step depends on the last one (cycles, orbits, the density
closure, the triangle search), array operations where a whole frontier moves
at once (``arc_orbit_size``) or a whole block of permutations is tested at
once (``semiregular_rows``, which takes the (rows, degree) element blocks of
``StabilizerChain.element_blocks``). There is no compiled path and no
backend switch; callers use the public names below directly.

Every walk reads its arrays as Python lists first (``tolist()`` once), so
each step is a list lookup rather than a numpy scalar, and keeps its
worklist in a list or a deque; only its result goes back into numpy. The
orbit walks share one breadth-first reach: ``orbit_mask`` gives one orbit of
a group, ``orbits`` every orbit of CSR lists (a graph, or a group's generator
rows, with k successors per point).
"""

from __future__ import annotations

from collections import deque

import numpy as np


def point_cycle_lengths(images):
    """Length of the cycle through each point, as an int64 array."""
    img = images.tolist()
    out = [0] * len(img)
    for start in range(len(img)):
        if out[start]:
            continue
        cycle = [start]
        j = img[start]
        while j != start:
            cycle.append(j)
            j = img[j]
        for j in cycle:
            out[j] = len(cycle)
    return np.array(out, dtype=np.int64)


def is_semiregular_images(images):
    """True iff all cycles (fixed points included) share one length."""
    img = images.tolist()
    seen = [False] * len(img)
    target = 0
    for start in range(len(img)):
        if seen[start]:
            continue
        seen[start] = True
        length = 1
        j = img[start]
        while j != start:
            seen[j] = True
            length += 1
            j = img[j]
        if target == 0:
            target = length
        elif length != target:
            return False
    return True


# semiregular_rows raises rows to at most this power together, and walks
# the cycles of the rows left, one at a time, once no more than
# _WALK_ROWS are left
_POWER_STEPS = 16
_WALK_ROWS = 16


def semiregular_rows(rows):
    """For each row of a (k, n) int64 array of permutation images, whether
    it is nontrivial and semiregular, as a boolean array.

    A row with a fixed point is the identity or not semiregular. The others
    are raised to the powers 2, 3, ... together: the first power that fixes
    a point of a row fixes every point exactly when all its cycles share one
    length. Powers are gathers on the flattened block, each image offset to
    its own row. The few rows left at the end, or whose cycles are all
    longer than ``_POWER_STEPS``, are walked by ``is_semiregular_images``,
    so no row costs more than one walk plus its share of the gathers.
    """
    k, n = rows.shape
    out = np.zeros(k, dtype=bool)
    live = (rows != np.arange(n)).all(axis=1).nonzero()[0]
    if len(live) > _WALK_ROWS:
        at = np.arange(k * n).reshape(k, n)
        flat = (rows + at[:, :1]).ravel()
        at = at[live]
        power = flat[at]
        for _ in range(_POWER_STEPS - 1):
            power = flat[power]
            fixed = (power == at).sum(axis=1)
            out[live[fixed == n]] = True
            keep = fixed == 0
            live, at, power = live[keep], at[keep], power[keep]
            if len(live) <= _WALK_ROWS:
                break
    for i in live.tolist():
        out[i] = is_semiregular_images(rows[i])
    return out


def _reach(succ, seen, start):
    """The unseen points that ``start`` reaches, marked seen on the way, with
    ``succ[v]`` the successors of v; breadth first, as ``found`` grows."""
    seen[start] = True
    found = [start]
    for v in found:
        for w in succ[v]:
            if not seen[w]:
                seen[w] = True
                found.append(w)
    return found


def orbit_mask(gens, start):
    """Mask (uint8) of the orbit of ``start`` under the rows of ``gens``."""
    mask = np.zeros(gens.shape[1], dtype=np.uint8)
    # column v of the rows lists the images of point v
    mask[_reach(list(zip(*gens.tolist())), [False] * len(mask), start)] = 1
    return mask


def orbits(indptr, indices):
    """Every orbit (component) of the CSR lists, sorted, by least point."""
    ptr, nbrs = indptr.tolist(), indices.tolist()
    succ = [nbrs[a:b] for a, b in zip(ptr, ptr[1:])]
    seen = [False] * len(succ)
    return [sorted(_reach(succ, seen, v)) for v in range(len(succ)) if not seen[v]]


def density_closure_mask(indptr, indices, seed_mask, lifo):
    """Close ``seed_mask`` under "two neighbours inside" and return the mask,
    of ``seed_mask``'s dtype.

    ``lifo`` switches the worklist from queue to stack; the closure itself is
    order-independent, the switch exists so tests can confirm that.
    """
    ptr, nbrs = indptr.tolist(), indices.tolist()
    inside = seed_mask.tolist()
    count = [0] * len(inside)
    work = deque(v for v, x in enumerate(inside) if x)
    take = work.pop if lifo else work.popleft
    while work:
        v = take()
        for w in nbrs[ptr[v] : ptr[v + 1]]:
            if not inside[w]:
                count[w] += 1
                if count[w] == 2:
                    inside[w] = 1
                    work.append(w)
    return np.array(inside, dtype=seed_mask.dtype)


def triangle_witness(indptr, indices):
    """First triangle (u < v < w) in lexicographic order, as an int64 array,
    else (-1, -1, -1). The rows of the CSR adjacency are sorted."""
    ptr, nbrs = indptr.tolist(), indices.tolist()
    for u in range(len(ptr) - 1):
        row = nbrs[ptr[u] : ptr[u + 1]]
        mine = set(row)
        for v in row:
            if v > u:
                for w in nbrs[ptr[v] : ptr[v + 1]]:
                    if w > v and w in mine:
                        return np.array([u, v, w], dtype=np.int64)
    return np.full(3, -1, dtype=np.int64)


def arc_orbit_size(indptr, indices, heads, gens, e0):
    """Size of the orbit of directed edge ``e0`` under the generator rows.

    Directed edges are indexed by their position in ``indices``; ``heads[e]``
    is the tail vertex of edge ``e``. Raises ``ValueError`` when a row does
    not map every arc to an arc.
    """
    n = indptr.shape[0] - 1
    # arc (u, w) has key u * n + w; CSR order already sorts the keys, so one
    # searchsorted finds the arc each generator maps each arc to (clamped: a
    # key above the last arc's lands past the end, and the check rejects it)
    keys = heads * n + indices
    images = gens[:, heads] * n + gens[:, indices]
    moves = np.minimum(np.searchsorted(keys, images), keys.shape[0] - 1)
    if not np.array_equal(keys[moves], images):
        raise ValueError("a generator row does not map arcs to arcs")
    seen = np.zeros(keys.shape[0], dtype=bool)
    seen[e0] = True
    frontier = np.array([e0])
    while frontier.size:
        fresh = np.zeros_like(seen)
        fresh[moves[:, frontier]] = True
        fresh &= ~seen
        frontier = np.flatnonzero(fresh)
        seen |= fresh
    return int(np.count_nonzero(seen))
