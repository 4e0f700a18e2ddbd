"""Generator-defined permutation groups.

Stabilizer chains (deterministic Schreier-Sims that sifts each Schreier
generator once, at level 0 from the group's generators alone) support exact
orders, membership sifting, point stabilizers and element enumeration. One
walk lists the elements in two shapes: (rows, degree) arrays of bounded size
that start at one row, for scans that may stop early, or their rows one at a
time. Building a chain draws nothing at random; only the samplers
(direct-search above its bound, the transitive p-subgroup builder) import
``numpy.random``. On top of those sit induced actions on invariant
partitions with kernels, normal closures (in polynomial time; their orbits
need no chain at all), bounded minimal-normal-subgroup enumeration, a
prime-power-degree semiregular element finder (a central element of a
transitive p-subgroup) and coprime lifting of semiregular elements through
quotients.

Full enumeration, the minimal-normal-subgroup search included, goes through
``PermGroup.element_blocks``, which stops at the fixed ``DEFAULT_BOUND``
elements with a loud ``BoundExceededError``; group orders are exact Python
integers throughout.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .perm import Permutation, identity_images, inverse_images, is_identity_images

_INT = np.int64

DEFAULT_BOUND = 100_000

# most entries (rows x degree) of a block of StabilizerChain.element_blocks
_BLOCK_CELLS = 1 << 18


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold."""


class BoundExceededError(RuntimeError):
    """A bounded operation would need to enumerate past its element bound."""


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Apply a, then b."""
    return b[a]


def prime_factors(n: int) -> Counter:
    """Trial-division factorization; intended for n up to ~1e12."""
    if n < 1:
        raise ValueError("n must be positive")
    out: Counter = Counter()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] += 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] += 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == Counter({n: 1})


class _Level:
    __slots__ = ("point", "transversal", "closed", "sifted", "_orbit")

    def __init__(self, point: int):
        self.point = point
        # orbit point -> (rep, rep_inverse); rep maps self.point to the key.
        # Only ever extended: a point's rep, once set, is never replaced
        self.transversal: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # the transversal is closed under the level's first ``closed``
        # generators
        self.closed = 0
        # sifted[j]: the Schreier generators of the j-th point (in insertion
        # order) with the level's first sifted[j] generators have sifted
        self.sifted: list[int] = []
        self._orbit: np.ndarray | None = None

    def orbit(self) -> np.ndarray:
        """The transversal's points as an int64 array, in its order; built
        on the first call after the level last grew."""
        if self._orbit is None:
            self._orbit = np.fromiter(self.transversal, _INT, len(self.transversal))
        return self._orbit


def _reps(lv: _Level) -> list[np.ndarray]:
    """A level's transversal reps, in the order of their points."""
    return [lv.transversal[p][0] for p in sorted(lv.transversal)]


def _product_rows(start: np.ndarray, rep_lists) -> np.ndarray:
    """Every product of ``start`` with one rep from each list, as the rows
    of one int64 array: ``start`` is applied first, then a rep of the last
    list, and so on up to a rep of the first list, which varies fastest.
    Built from the last list up, one gather ``rep[elements]`` per rep."""
    elements = start[None, :]
    for reps in reversed(rep_lists):
        out = np.empty((len(elements), len(reps), len(start)), dtype=_INT)
        for j, rep in enumerate(reps):
            out[:, j] = rep[elements]
        elements = out.reshape(-1, len(start))
    return elements


def _element_blocks(levels: list[_Level], n: int):
    """Every product of one rep per level, in ``_product_rows`` order, as
    (rows, n) int64 blocks of at most ``_BLOCK_CELLS`` entries (or one row).

    The top levels 0..t-1 are as many as fit in one block. Level 0's reps
    come first, applied to the first element of the levels below, in
    slices that double from one row, so a scan that stops early builds
    little. The rest of the top levels' products with that element are the
    rows of one table built on it; only if the deeper levels (this walk's
    rows over ``levels[t:]``) have more elements h is the table built again
    at the identity, and each h's block is the gather ``table[:, h]``.
    """
    if not levels:
        yield np.arange(n, dtype=_INT)[None, :]
        return
    t, rows = 1, len(levels[0].transversal)
    while t < len(levels) and rows * len(levels[t].transversal) * n <= _BLOCK_CELLS:
        t, rows = t + 1, rows * len(levels[t].transversal)
    deeper = (h for block in _element_blocks(levels[t:], n) for h in block)
    h = first = next(deeper)
    for lv in reversed(levels[1:t]):
        first = lv.transversal[min(lv.transversal)][0][first]
    reps = _reps(levels[0])
    chunk = max(1, _BLOCK_CELLS // n)
    start, size = 0, 1
    while start < len(reps):
        yield np.array(reps[start : start + size]).take(first, axis=1)
        start, size = start + size, min(2 * size, chunk)
    if len(levels) == 1:
        return  # the slices held every element
    top = [reps, *map(_reps, levels[1:t])]
    table = _product_rows(h, top)
    for a in range(len(reps), rows, chunk):
        yield table[a : a + chunk]
    if t < len(levels):
        table = _product_rows(np.arange(n, dtype=_INT), top)
    for h in deeper:
        for a in range(0, rows, chunk):
            yield table[a : a + chunk].take(h, axis=1)


class StabilizerChain:
    """Base, strong generators and transversals for a permutation group.

    The base extension rule is "smallest moved point first" (after any caller
    supplied prefix), and no step draws at random, so chains are
    deterministic. A level's transversal only grows: a point keeps the rep
    it was first given, which lets verification skip every Schreier
    generator that has sifted once (``_schreier_sims``).

    The inner loops take one Python step per orbit point or Schreier
    generator: a point's image is one ``ndarray.item`` call and a product is
    one numpy gather. A whole-row ``tolist`` would cost O(degree) per level
    where orbits are small and the degree is large. Batching a level's
    Schreier generators into one array computes many that are never looked
    at, since the first that fails to sift usually comes early: batching
    only the levels with at least 256 of them made a ``structural`` pass 20%
    slower.
    """

    def __init__(self, generators, degree: int, base_prefix=(), order=None):
        """``order``, when given, is the group's order, known from another
        chain of the same group: verification stops once it is reached."""
        self.degree = degree
        self.levels: list[_Level] = []
        # strong generators as (array, inverse, depth); depth = first base
        # index moved
        self._strong: list[tuple[np.ndarray, np.ndarray, int]] = []
        for b in base_prefix:
            if not 0 <= b < degree:
                raise ValueError(f"base point {b} out of range")
            self.levels.append(_Level(int(b)))
        seen = set()
        for g in generators:
            arr = np.asarray(g, dtype=_INT)
            key = arr.tobytes()
            if key not in seen and not is_identity_images(arr):
                seen.add(key)
                self._add_strong(arr)
        # generators of the group: the given ones, then each residue
        # ``_adjoin`` adds; level 0 forms its Schreier generators from these
        self._given = [g for g, _, _ in self._strong]
        for lv_index in range(len(self.levels)):
            self._rebuild_level(lv_index)
        self._schreier_sims(len(self.levels) - 1, order)

    # -- construction ----------------------------------------------------

    def _adjoin(self, arrs) -> tuple[list[np.ndarray], int]:
        """Sift each element of ``arrs`` through the chain as it stands; a
        non-identity residue becomes a strong generator of levels 0..d,
        where base point d is the first one it moves, and level d gets its
        orbit recomputed, so later elements sift further. Return the
        elements that left a residue and the deepest such d (-1 if none).
        Each residue also joins the group's generators that level 0 reads
        (``_given``): with the elements adjoined, they still generate the
        group. Nothing is verified."""
        added = []
        deepest = -1
        for arr in arrs:
            arr = np.asarray(arr, dtype=_INT)
            if arr.size != self.degree:
                raise ValueError("degree mismatch")
            residue = self._sift(arr)
            if is_identity_images(residue):
                continue
            depth = self._add_strong(residue)
            self._given.append(residue)
            self._rebuild_level(depth)
            deepest = max(deepest, depth)
            added.append(arr)
        return added, deepest

    def _depth_of(self, arr: np.ndarray) -> int:
        for i, lv in enumerate(self.levels):
            if arr.item(lv.point) != lv.point:
                return i
        return len(self.levels)

    def _add_strong(self, arr: np.ndarray) -> int:
        """Register a strong generator, extending the base if needed."""
        depth = self._depth_of(arr)
        if depth == len(self.levels):
            moved = np.flatnonzero(arr != identity_images(self.degree))
            self.levels.append(_Level(int(moved[0])))
        self._strong.append((arr, inverse_images(arr), depth))
        return depth

    def _rebuild_level(self, i: int) -> list[np.ndarray]:
        """Extend level i's transversal to the orbit of its generators by a
        breadth-first search; return the generators.

        A point's rep, once set, is never replaced, so the keys already
        there stay a prefix of the level's keys. The points already there
        are closed under the first ``closed`` generators and only meet the
        later ones; each new point meets all. The rep reached from p's rep
        by g is ``g[rep]``, and its inverse is the gather ``rep_inv[g_inv]``
        of two known inverses.
        """
        lv = self.levels[i]
        gens = [(g, inv) for g, inv, d in self._strong if d >= i]
        trans = lv.transversal
        if not trans:
            ident = identity_images(self.degree)
            trans[lv.point] = (ident, ident)
        queue = list(trans)
        old = len(queue)
        for j, p in enumerate(queue):
            rep, rep_inv = trans[p]
            for g, g_inv in gens[lv.closed if j < old else 0 :]:
                q = g.item(p)
                if q not in trans:
                    trans[q] = (g[rep], rep_inv[g_inv])
                    queue.append(q)
        lv.closed = len(gens)
        if len(queue) > old:
            lv._orbit = None
        return [g for g, _ in gens]

    def _sift(self, arr: np.ndarray) -> np.ndarray:
        """Reduce arr by the transversal reps of every level and return the
        residue, the identity exactly when arr sifts through."""
        g = arr
        for lv in self.levels:
            p = g.item(lv.point)
            if p == lv.point:
                continue
            pair = lv.transversal.get(p)
            if pair is None:
                return g
            g = pair[1][g]
        return g

    def _schreier_sims(self, start: int, order: int | None = None) -> None:
        """Deterministic verification of levels ``start`` down to 0, given
        that the deeper levels are complete: every Schreier generator must
        sift. Then the order and base are read off the levels.

        A Schreier generator of level i that does not sift leaves a residue
        fixing base[:i+1]; it becomes a strong generator of depth d > i (d
        may be a new last level), and verification restarts at level d.
        Levels deeper than d do not gain it, so they keep their generators
        and transversals and stay verified; levels d down to 0 are extended
        as the loop reaches them.

        Each Schreier generator is sifted once. A level records, for each
        point in insertion order, how many of its generators have given a
        Schreier generator that sifted (``_Level.sifted``), and a restart
        resumes from there. That pair's Schreier generator is the same
        permutation when the level is reached again, since reps are never
        replaced and generators only appended, and it sifts along the same
        path to the identity, since the levels below have only grown.

        Level 0 forms its Schreier generators from ``_given``, which
        generate the group, not from every strong generator: by Schreier's
        lemma the Schreier generators of any generating set, over any
        transversal, generate the stabilizer of the first base point.

        With the group's ``order`` known, the pass stops once the product of
        the level sizes reaches it, after rebuilding the levels above. Each
        level's orbit lies inside the true basic orbit, so that product is
        at most the order, and equal only when the chain is complete: every
        remaining Schreier generator would sift, and the chain is the one
        the full pass builds.
        """
        ident = identity_images(self.degree).tobytes()
        i = start
        while i >= 0:
            gens = self._rebuild_level(i)
            if order is not None and order == math.prod(
                len(lv.transversal) for lv in self.levels
            ):
                for j in range(i - 1, -1, -1):
                    self._rebuild_level(j)
                break
            level = self.levels[i]
            if i == 0:
                gens = self._given
            below = [(lv.point, lv.transversal) for lv in self.levels[i + 1 :]]
            restart = None
            for j, (p, (rep, _)) in enumerate(level.transversal.items()):
                if j == len(level.sifted):
                    level.sifted.append(0)
                for k in range(level.sifted[j], len(gens)):
                    g = gens[k]
                    # the Schreier generator rep * g * rep(p^g)^-1, sifted
                    # through the levels below i
                    h = level.transversal[g.item(p)][1][g[rep]]
                    if h.tobytes() == ident:
                        continue
                    for pt, below_trans in below:
                        q = h.item(pt)
                        if q != pt:
                            pair = below_trans.get(q)
                            if pair is None:
                                break
                            h = pair[1][h]
                    else:
                        # sifted through every level: a new strong
                        # generator only if the residue is not the identity
                        if h.tobytes() == ident:
                            continue
                    restart = self._add_strong(h)
                    level.sifted[j] = k
                    break
                if restart is not None:
                    break
                level.sifted[j] = len(gens)
            i = i - 1 if restart is None else restart
        self.order = math.prod(len(lv.transversal) for lv in self.levels)
        self.base = tuple(lv.point for lv in self.levels)

    # -- queries ----------------------------------------------------------

    def contains_array(self, arr: np.ndarray) -> bool:
        arr = np.asarray(arr, dtype=_INT)
        if arr.size != self.degree:
            raise ValueError("degree mismatch")
        return is_identity_images(self._sift(arr))

    def order_factored(self) -> Counter:
        out: Counter = Counter()
        for lv in self.levels:
            out += prime_factors(len(lv.transversal))
        return out

    def strong_generators(self) -> list[np.ndarray]:
        return [g for g, _, _ in self._strong]

    def stabilizer_generators(self, depth: int) -> list[np.ndarray]:
        """Generators of the pointwise stabilizer of base[:depth]."""
        return [g for g, _, d in self._strong if d >= depth]

    def iter_elements(self):
        """Every element exactly once, as image arrays: the rows of
        ``element_blocks``, in the same order."""
        for block in self.element_blocks():
            yield from block

    def element_blocks(self):
        """Every element once, as (rows, degree) int64 arrays of at most
        ``_BLOCK_CELLS`` entries (or one row) that start at one row and
        grow, for scans that may stop early: the one element walk, of which
        ``iter_elements`` yields the rows. Level 0's rep varies fastest, the
        last level's slowest."""
        return _element_blocks(self.levels, self.degree)

    def random_element(self, rng) -> np.ndarray:
        """Uniformly random element (exact, via transversal products)."""
        acc = np.arange(self.degree, dtype=_INT)
        for lv in reversed(self.levels):
            orbit = lv.orbit()
            rep = lv.transversal[orbit.item(int(rng.integers(len(orbit))))][0]
            acc = _compose(acc, rep)
        return acc


class PermGroup:
    """A permutation group given by generators on 0..degree-1.

    The group keeps the one stabilizer chain ``chain()`` builds, with the
    default base, or, for a group ``minimal_normal_subgroups`` or
    ``normal_closure`` returns, the chain its closure was computed in, and
    stores nothing else; a chain with a caller's base prefix is built for
    one ``pointwise_stabilizer`` call and not kept. Its orbits come from
    ``orbit_partition``, one walk over the generator rows; ``is_transitive``
    walks only the orbit of 0, with ``orbit_mask``.
    """

    def __init__(self, generators, degree: int | None = None):
        gens = list(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required for an empty generator list")
            degree = gens[0].degree
        self._degree = int(degree)
        if self._degree < 1:
            raise ValueError("degree must be >= 1")
        kept = []
        seen = set()
        for g in gens:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != self._degree:
                raise ValueError("all generators must share the group degree")
            if not g.is_identity() and g not in seen:
                seen.add(g)
                kept.append(g)
        self._gens = tuple(kept)
        self._chain: StabilizerChain | None = None

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple[Permutation, ...]:
        if not self._gens:
            return (Permutation.identity(self._degree),)
        return self._gens

    def gen_arrays(self) -> np.ndarray:
        """Generators as one (k, n) int array (identity row if trivial)."""
        if not self._gens:
            return np.arange(self._degree, dtype=_INT)[None, :]
        return np.ascontiguousarray([g.images for g in self._gens], dtype=_INT)

    def is_trivial(self) -> bool:
        return not self._gens

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain([g.images for g in self._gens], self._degree)
        return self._chain

    def order(self) -> int:
        return self.chain().order

    def order_factored(self) -> Counter:
        return self.chain().order_factored()

    def contains(self, p: Permutation) -> bool:
        if p.degree != self._degree:
            raise ValueError("degree mismatch")
        return self.chain().contains_array(p.images)

    def orbit_partition(self) -> list[list[int]]:
        """Orbits as sorted lists, ordered by least point."""
        gens = self.gen_arrays()
        return _kernels.orbits(np.arange(0, gens.size + 1, len(gens)), gens.T.ravel())

    def is_transitive(self) -> bool:
        return bool(_kernels.orbit_mask(self.gen_arrays(), 0).all())

    def point_stabilizer(self, v: int) -> "PermGroup":
        if not 0 <= v < self._degree:
            raise ValueError(f"point {v} out of range")
        return self.pointwise_stabilizer([v])

    def pointwise_stabilizer(self, points) -> "PermGroup":
        """The subgroup fixing every point of ``points``, read off a chain
        whose base starts with them; that chain is built for this call, and
        stops verifying at |G| when the group's own chain is built."""
        pts = [int(v) for v in points]
        chain = StabilizerChain(
            [g.images for g in self._gens],
            self._degree,
            base_prefix=pts,
            order=None if self._chain is None else self._chain.order,
        )
        gens = [
            Permutation._wrap(a.copy())
            for a in chain.stabilizer_generators(len(pts))
        ]
        return PermGroup(gens, self._degree)

    def element_blocks(self):
        """The chain's ``element_blocks``: every whole-group walk starts
        here, the only place that checks the enumeration bound. Raises
        ``BoundExceededError`` when |G| > ``DEFAULT_BOUND`` (read at each
        call), before any walk starts."""
        order = self.order()
        if order > DEFAULT_BOUND:
            raise BoundExceededError(f"order {order} exceeds bound {DEFAULT_BOUND}")
        return self.chain().element_blocks()

    def elements(self):
        """Iterate every element exactly once, the rows of ``element_blocks``
        (``StabilizerChain.iter_elements``)."""
        self.element_blocks()  # the bound check; nothing is walked yet
        for arr in self.chain().iter_elements():
            yield Permutation._wrap(arr.copy())

    def random_element(self, rng) -> Permutation:
        return Permutation._wrap(self.chain().random_element(rng))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self._degree}, ngens={len(self._gens)})"


def is_subgroup(h: PermGroup, g: PermGroup) -> bool:
    if h.degree != g.degree:
        return False
    return all(g.contains(x) for x in h.generators)


def coset_key(h_chain: StabilizerChain, x: Permutation) -> bytes:
    """A key identifying the right coset Hx, for H with chain ``h_chain``.

    One greedy pass down H's levels: at each level left-multiply by the
    transversal rep whose point has the least image under the current
    element, found with one ``argmin`` over the level's orbit points. The
    result is the element of Hx that is lexicographically least on H's
    base points, returned whole (its base images alone would not separate
    cosets when H is trivial). Keys are comparable only between calls that
    pass the same chain.
    """
    if x.degree != h_chain.degree:
        raise ValueError("degree mismatch")
    g = x.images
    for lv in h_chain.levels:
        orbit = lv.orbit()
        g = _compose(lv.transversal[orbit.item(g[orbit].argmin())][0], g)
    return g.tobytes()


def coset_action(
    g: PermGroup, h: PermGroup
) -> tuple[list[Permutation], dict[bytes, int], list[Permutation]]:
    """Right cosets of H in G, found by BFS under G's generators.

    Returns the coset reps in BFS order (rep 0 is the identity), the map
    from ``coset_key`` to coset index, and the action of each generator of
    G on coset indices by right multiplication. The BFS visits the reps in
    index order and keys every product rep * s once, so the coset index it
    finds for that product is also the image of the rep's coset under s.
    """
    h_chain = h.chain()
    gens = g.generators
    reps = [Permutation.identity(g.degree)]
    index = {coset_key(h_chain, reps[0]): 0}
    images: list[list[int]] = [[] for _ in gens]
    head = 0
    while head < len(reps):
        r = reps[head]
        head += 1
        for s, row in zip(gens, images):
            cand = r * s
            key = coset_key(h_chain, cand)
            if key not in index:
                index[key] = len(reps)
                reps.append(cand)
            row.append(index[key])
    return reps, index, [Permutation(row) for row in images]


def normalizes(x: Permutation, h: PermGroup) -> bool:
    """True iff conjugation by x maps H onto itself."""
    return all(h.contains(gen.conjugate(x)) for gen in h.generators)


# -- induced actions ------------------------------------------------------


def partition_index(partition, n: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Validate a partition of 0..n-1; return its classes (each sorted) and
    the int64 array mapping every point to the index of its class."""
    classes = [tuple(sorted(int(x) for x in cls)) for cls in partition]
    index = np.full(n, -1, dtype=_INT)
    for c, cls in enumerate(classes):
        if not cls:
            raise PreconditionError("empty class in partition")
        for x in cls:
            if not 0 <= x < n:
                raise PreconditionError(f"point {x} out of range")
            if index[x] >= 0:
                raise PreconditionError(f"point {x} appears in two classes")
            index[x] = c
    if np.any(index < 0):
        raise PreconditionError("partition does not cover all points")
    return classes, index


def _image_on_classes(arr: np.ndarray, index: np.ndarray, m: int):
    """Class images under the point map ``arr``, or None when ``arr`` does
    not map classes onto classes; ``index`` maps each point to one of the m
    (nonempty) classes."""
    targets = index[arr]
    img = np.empty(m, dtype=_INT)
    img[index] = targets
    return img if np.array_equal(img[index], targets) else None


def induced_group(g: PermGroup, class_index: np.ndarray) -> PermGroup:
    """The group ``g`` induces on the classes of a g-invariant partition,
    generated by the class images of g's generators; ``class_index`` is the
    point-to-class array of ``partition_index``."""
    m = int(class_index.max()) + 1
    images = []
    for gen in g.generators:
        img = _image_on_classes(gen.images, class_index, m)
        if img is None:
            raise PreconditionError(
                f"partition is not invariant under generator {gen!r}"
            )
        images.append(Permutation._wrap(img))
    return PermGroup(images, m)


@dataclass(frozen=True, repr=False)
class ActionBundle:
    """Induced action of a group on an invariant partition, with kernel.

    ``image_group`` acts on class indices (faithfully, by construction);
    ``kernel`` is the subgroup of the source fixing every class setwise,
    built the first time it is read. ``kernel_order`` is |source| / |image|,
    read off the two chains the bundle is built from.
    """

    image_group: PermGroup
    class_labels: tuple[tuple[int, ...], ...]
    _class_index: np.ndarray = field(compare=False)
    _combined: StabilizerChain = field(compare=False)
    _prefix_len: int = field(compare=False)
    _source_degree: int = field(compare=False)

    def __repr__(self) -> str:
        return (
            f"ActionBundle(classes={len(self.class_labels)}, "
            f"image_order={self.image_group.order()}, "
            f"kernel_order={self.kernel_order})"
        )

    @cached_property
    def kernel(self) -> PermGroup:
        # the strong generators of the combined chain that fix the image
        # base prefix are exactly the kernel
        n = self._source_degree
        gens = [
            Permutation._wrap(arr[:n].copy())
            for arr in self._combined.stabilizer_generators(self._prefix_len)
        ]
        return PermGroup(gens, n)

    @property
    def kernel_order(self) -> int:
        # the combined action is faithful, so its chain has the source's order
        return self._combined.order // self.image_group.order()

    def image_of(self, p: Permutation) -> Permutation:
        """Apply the action homomorphism to an element of the source."""
        n = self._source_degree
        if p.degree != n:
            raise ValueError("degree mismatch")
        img = _image_on_classes(p.images, self._class_index, len(self.class_labels))
        if img is None:
            raise PreconditionError("element does not preserve the partition")
        return Permutation(img)

    def preimage(self, q: Permutation) -> Permutation:
        """Some source element mapping to ``q`` under the action."""
        n = self._source_degree
        m = len(self.class_labels)
        if q.degree != m:
            raise ValueError("degree mismatch with class count")
        w = q.images.copy()
        acc = np.arange(n + m, dtype=_INT)
        for lv in self._combined.levels[: self._prefix_len]:
            c = lv.point - n
            p = int(w[c])
            if p == c:
                continue
            pair = lv.transversal.get(n + p)
            if pair is None:
                raise PreconditionError("element is not in the image group")
            rep, rep_inv = pair
            w = (rep_inv[n:] - n)[w]
            acc = _compose(rep, acc)
        if not is_identity_images(w):
            raise PreconditionError("element is not in the image group")
        source = Permutation._wrap(acc[:n].copy())
        return source


def action_on_partition(g: PermGroup, partition) -> ActionBundle:
    """Action of ``g`` on a g-invariant partition.

    Builds two chains: the induced image's, and one of the combined action
    on points + classes whose base starts with the image's base, from which
    the kernel is read when it is first asked for. The combined action is
    faithful, so when ``g``'s chain is built its order is known.
    """
    n = g.degree
    classes, index = partition_index(partition, n)
    image_group = induced_group(g, index)
    image_base = image_group.chain().base

    # the partition is invariant, so a class goes where its first point goes
    firsts = np.array([cls[0] for cls in classes], dtype=_INT)
    combined_gens = [
        np.concatenate([gen.images, index[gen.images[firsts]] + n])
        for gen in g.generators
    ]
    combined = StabilizerChain(
        combined_gens,
        n + len(classes),
        base_prefix=[n + b for b in image_base],
        order=None if g._chain is None else g._chain.order,
    )
    return ActionBundle(
        image_group=image_group,
        class_labels=tuple(classes),
        _class_index=index,
        _combined=combined,
        _prefix_len=len(image_base),
        _source_degree=n,
    )


# -- bounded structure computations ---------------------------------------


def _row_keys(x: np.ndarray) -> np.ndarray:
    """One void scalar per row of the int64 array ``x``, so that whole rows
    compare, sort and search as single values."""
    x = np.ascontiguousarray(x)
    return x.view(np.dtype((np.void, x.shape[1] * x.itemsize))).ravel()


def _prime_order_classes(g: PermGroup):
    """The conjugacy classes of elements of prime order.

    Returns every element as the rows of ``g.element_blocks()`` (which
    raises ``BoundExceededError`` above ``DEFAULT_BOUND``), copied into one
    array block by block, and each class as an array of row indices: the
    class's first row in enumeration order, then the rest in the order a
    depth-first search under conjugation by the generators reaches them. An
    element is determined by its images of the base points, so x^p is the
    identity exactly when it fixes them: for each prime p dividing |G|, p
    row-wise steps from the base points give those images for every row at
    once. A conjugate is looked up by its base images too.
    """
    chain = g.chain()
    blocks = g.element_blocks()
    elements = np.empty((chain.order, g.degree), dtype=_INT)
    at = 0
    for block in blocks:
        elements[at : at + len(block)] = block
        at += len(block)
    base = np.asarray(chain.base, dtype=_INT)
    moved = elements[:, base]
    prime = np.zeros(len(elements), dtype=bool)
    for p in chain.order_factored():
        images = moved
        for _ in range(p - 1):
            images = np.take_along_axis(elements, images, axis=1)
        prime |= np.all(images == base, axis=1)
    prime &= ~np.all(moved == base, axis=1)
    rows = np.flatnonzero(prime)
    if not len(rows):
        return elements, []
    x = elements[rows]
    keys = _row_keys(x[:, base])
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    conj = []
    for gen in (s.images for s in g.generators):
        # the base images of gen^-1 * x * gen, for every x at once
        images = _row_keys(gen[x[:, inverse_images(gen)[base]]])
        at = np.minimum(np.searchsorted(sorted_keys, images), len(keys) - 1)
        if np.any(sorted_keys[at] != images):
            raise RuntimeError("conjugate outside the group (internal error)")
        conj.append(by_key[at].tolist())
    visited = [False] * len(rows)
    classes = []
    for start in range(len(rows)):
        if visited[start]:
            continue
        visited[start] = True
        cls = [start]
        stack = [start]
        while stack:
            i = stack.pop()
            for images in conj:
                j = images[i]
                if not visited[j]:
                    visited[j] = True
                    cls.append(j)
                    stack.append(j)
        classes.append(rows[cls])
    return elements, classes


def minimal_normal_subgroups(g: PermGroup) -> list[PermGroup]:
    """All minimal normal subgroups of ``g``, ordered by order, then by the
    position of their first element of prime order in ``iter_elements``
    order.

    A minimal normal subgroup is the normal closure of any one of its
    nontrivial elements, and like every nontrivial group it has an element
    of prime order. So the normal closures of the classes of prime-order
    elements (a class generates its closure) include every minimal normal
    subgroup, and no other class needs a closure. One pass over the
    closures, in order of size (a stable sort), keeps each one that
    contains none kept before it: that drops the closures that are not
    minimal and the repeats of a kept one, so each result has the
    generators of its first class in that order, and it keeps the chain its
    closure was computed in.

    Two kinds of closure could never be kept, so neither is finished:
    - a class holding a power x^k (1 < k < p) of the first element x of a
      later class has the same closure, as <x^k> = <x>, so the later class
      is skipped;
    - a closure N containing the first element of an earlier computed
      closure M contains M, so either N = M, and M sorts first, or N is not
      minimal. The class is sifted into N's chain without verification
      (``StabilizerChain._adjoin``), and each earlier first element is
      sifted through that chain: one that sifts to the identity is a
      product of elements of N, and N is dropped unverified.

    The classes, and so the closures of equal size, come in the order of
    their first elements.

    Nothing is stored on ``g``: each call computes afresh. It raises
    ``BoundExceededError`` when |G| > ``DEFAULT_BOUND``, as every other
    enumeration does (``PermGroup.element_blocks``).
    """
    n = g.degree
    elements, classes = _prime_order_classes(g)
    class_of = {}
    for c, cls in enumerate(classes):
        class_of.update(dict.fromkeys(_row_keys(elements[cls]).tolist(), c))
    closures = []
    for c, cls in enumerate(classes):
        # skip the class when a power of its first element lies in an
        # earlier class
        x = elements[cls[0]]
        y = x[x]
        while not is_identity_images(y) and class_of[y.tobytes()] >= c:
            y = x[y]
        if not is_identity_images(y):
            continue
        chain = StabilizerChain([], n)
        sel, deepest = chain._adjoin(elements[cls])
        if any(
            is_identity_images(chain._sift(elements[first]))
            for _, _, _, first in closures
        ):
            continue
        chain._schreier_sims(deepest)
        closures.append((chain.order, sel, chain, int(cls[0])))
    closures.sort(key=lambda t: t[0])
    result = []
    for _, sel, chain, _ in closures:
        # a smaller minimal normal subgroup inside this closure, or an
        # earlier copy of it, sorts before it and has been kept. A kept one is
        # the normal closure of its first generator and this closure is
        # normal, so it lies inside exactly when that one element does
        if any(chain.contains_array(kept.generators[0].images) for kept in result):
            continue
        m = PermGroup([Permutation._wrap(a.copy()) for a in sel], n)
        m._chain = chain
        result.append(m)
    return result


def normal_closure(g: PermGroup, elems) -> PermGroup:
    """The normal closure in ``g`` of the image arrays ``elems``: the least
    normal subgroup of ``g`` that holds them.

    ``StabilizerChain._adjoin`` sifts in the elements, then the conjugates
    under ``g``'s generators of those it newly added, round by round until
    a round adds nothing, and one ``_schreier_sims`` pass then verifies the
    chain from the deepest level touched up to 0. Sifting without verifying
    between rounds is sound: every rep is a product of adjoined elements,
    so a conjugate that sifts to the identity is a member, and one that
    does not is at worst a redundant generator. The result keeps that
    chain, as the subgroups ``minimal_normal_subgroups`` returns do.
    """
    n = g.degree
    chain = StabilizerChain([], n)
    conjugators = [(s.images, inverse_images(s.images)) for s in g._gens]
    gens, deepest = chain._adjoin(elems)
    new = gens
    while new:
        # s^-1 x s: apply s^-1, then x, then s
        new, depth = chain._adjoin([s[x[s_inv]] for x in new for s, s_inv in conjugators])
        gens, deepest = gens + new, max(deepest, depth)
    chain._schreier_sims(deepest)
    closure = PermGroup([Permutation._wrap(a.copy()) for a in gens], n)
    closure._chain = chain
    return closure


def normal_closure_orbits(g: PermGroup, y: np.ndarray) -> list[list[int]]:
    """The orbits of the normal closure of ``y`` in ``g``, as
    ``orbit_partition`` lists them, found without a chain.

    They are the finest g-invariant partition that holds the cycles of y:
    the closure's orbits form one, and each conjugate s^-1 y s moves points
    inside the blocks of any such partition. A union-find merges each point
    with its image under y, then, for each pair (a, b) it merged and each
    generator s, s(a) with s(b), until nothing merges. Each root is the
    least point of its block.
    """
    n = g.degree
    rows = g.gen_arrays().tolist()
    parent = list(range(n))

    def root(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    merged = []

    def merge(a, b):
        a, b = root(a), root(b)
        if a != b:
            parent[max(a, b)] = min(a, b)
            merged.append((a, b))

    for a, b in enumerate(np.asarray(y).tolist()):
        merge(a, b)
    for a, b in merged:
        for s in rows:
            merge(s[a], s[b])
    blocks: dict[int, list[int]] = {}
    for v in range(n):
        blocks.setdefault(root(v), []).append(v)
    return list(blocks.values())


# -- semiregular element machinery ----------------------------------------


def semiregular_of_prime_power_degree(g: PermGroup, *, seed: int = 0) -> Permutation:
    """A semiregular element of order p in a transitive group of degree p^k.

    Grows a p-subgroup P greedily until it is transitive: it adjoins the
    p-part y of each candidate (200 random elements, then every element of
    G up to ``DEFAULT_BOUND``) for which <P, y> is still a p-group. A
    p-element refused once is refused by every larger P, so one pass over G
    ends at a Sylow subgroup at the latest, and a Sylow subgroup of a
    transitive group of degree p^k is transitive. Commutators with P's
    generators then reach a nontrivial element of Z(P), powered down to
    order p: it centralizes a transitive group, so it is semiregular
    (Dixon and Mortimer, *Permutation Groups*, Theorem 4.2A).
    """
    n = g.degree
    if not g.is_transitive():
        raise PreconditionError("group is not transitive")
    factors = prime_factors(n)
    if len(factors) != 1:
        raise PreconditionError(f"degree {n} is not a prime power")
    (p,) = factors
    chain = g.chain()

    def candidates():
        rng = np.random.default_rng(seed)
        for _ in range(200):
            yield Permutation._wrap(chain.random_element(rng))
        yield from g.elements()

    gens: list[np.ndarray] = []
    p_chain = StabilizerChain([], n)
    for x in candidates():
        o = x.order()
        y = (x ** (o // p ** prime_factors(o)[p])).images
        if p_chain.contains_array(y):
            continue
        cand = StabilizerChain(gens + [y], n)
        if cand.order_factored().keys() == {p}:
            gens.append(y)
            p_chain = cand
            if _kernels.orbit_mask(np.stack(gens), 0).all():
                break

    # [x, s] lies one step further down the lower central series than x,
    # and P is nilpotent, so the descent stops at a nontrivial central x
    perms = [Permutation._wrap(arr) for arr in gens]
    central = perms[0]
    moved = True
    while moved:
        moved = False
        for s in perms:
            comm = central.inverse() * s.inverse() * central * s
            if not comm.is_identity():
                central, moved = comm, True
                break
    return central ** (central.order() // p)


def lift_semiregular(bundle: ActionBundle, image_element: Permutation, r: int) -> Permutation:
    """Lift a semiregular image element of prime order r coprime to the kernel.

    Takes a preimage g in the acting group (``ActionBundle.preimage`` raises
    ``PreconditionError`` outside the image group). Its power g^r lies in the
    kernel, whose order is coprime to r, so |g| = r * m with m coprime to r,
    and x = g^m has order r and maps to image_element^m, which generates the
    image element's cyclic group. That x is semiregular by the coprime
    lifting lemma (if x^i fixes a point it fixes that point's class, forcing
    r | i), so nothing is checked after it.
    """
    if not is_prime(r):
        raise PreconditionError(f"r={r} is not prime")
    if image_element.order() != r:
        raise PreconditionError("image element does not have order r")
    if not image_element.is_semiregular():
        raise PreconditionError("image element is not semiregular")
    k_order = bundle.kernel_order
    if math.gcd(r, k_order) != 1:
        raise PreconditionError(f"r={r} is not coprime to |kernel|={k_order}")

    g = bundle.preimage(image_element)
    return g ** (g.order() // r)
