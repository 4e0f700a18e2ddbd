"""Generator-defined permutation groups.

Stabilizer chains (randomized Schreier-Sims with a deterministic verification
pass) support exact orders, membership sifting, point stabilizers and element
enumeration, either lazily one element at a time or as one (order, degree)
array built with a numpy gather per transversal rep, on which powers and
conjugation act row-wise. On top of those sit induced actions on invariant
partitions with kernels, bounded normal-subgroup enumeration,
quasiprimitivity classification, a prime-power-degree semiregular element
finder and coprime lifting of semiregular elements through quotients.

Heavy operations (normal subgroups, normalizers, full enumeration) take an
explicit element-count bound and fail loudly when it is exceeded; group orders
are exact Python integers throughout.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .perm import Permutation, identity_images, inverse_images, is_identity_images

_INT = np.int64

DEFAULT_BOUND = 100_000

_RANDOM_ROUNDS = 30
_RANDOM_SEED = 0


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
    __slots__ = ("point", "transversal")

    def __init__(self, point: int):
        self.point = point
        # orbit point -> (rep, rep_inverse); rep maps self.point to the key
        self.transversal: dict[int, tuple[np.ndarray, np.ndarray]] = {}


class StabilizerChain:
    """Base, strong generators and transversals for a permutation group.

    The base extension rule is "smallest moved point first" (after any caller
    supplied prefix), and the random pre-pass has a fixed seed, so chains
    are deterministic.
    """

    def __init__(self, generators, degree: int, base_prefix=()):
        self.degree = degree
        self.levels: list[_Level] = []
        # strong generators as (array, depth); depth = first base index moved
        self._strong: list[tuple[np.ndarray, int]] = []
        for b in base_prefix:
            if not 0 <= b < degree:
                raise ValueError(f"base point {b} out of range")
            self.levels.append(_Level(int(b)))
        gens = []
        seen = set()
        for g in generators:
            arr = np.asarray(g, dtype=_INT)
            key = arr.tobytes()
            if key not in seen and not is_identity_images(arr):
                seen.add(key)
                gens.append(arr)
        for arr in gens:
            self._add_strong(arr)
        for lv_index in range(len(self.levels)):
            self._rebuild_level(lv_index)
        self._random_boost(gens)
        self._schreier_sims(len(self.levels) - 1)
        self._summarize()

    def extend(self, arr) -> bool:
        """Adjoin ``arr`` to the group in place; False, with the chain
        unchanged, when it is already a member."""
        return bool(self.extend_all([arr]))

    def extend_all(self, arrs) -> list[np.ndarray]:
        """Adjoin every element of ``arrs`` to the group in place; return the
        ones that were not members of the chain as it stood when sifted.

        Incremental Schreier-Sims: each element is sifted through the chain
        as it stands, and a non-identity residue becomes a strong generator
        of levels 0..d, where base point d is the first one it moves. Level
        d gets its orbit recomputed, so later elements sift further, but
        nothing is verified yet. One deterministic pass then verifies the
        levels from the deepest such d up to 0. Deeper levels keep their
        generators and stay verified.
        """
        added = []
        deepest = -1
        for arr in arrs:
            arr = np.asarray(arr, dtype=_INT)
            if arr.size != self.degree:
                raise ValueError("degree mismatch")
            residue, _ = self._sift(arr)
            if is_identity_images(residue):
                continue
            depth = self._add_strong(residue)
            self._rebuild_level(depth)
            deepest = max(deepest, depth)
            added.append(arr)
        if added:
            self._schreier_sims(deepest)
            self._summarize()
        return added

    # -- construction ----------------------------------------------------

    def _summarize(self) -> None:
        self.order = 1
        for lv in self.levels:
            self.order *= len(lv.transversal)
        self.base = tuple(lv.point for lv in self.levels)

    def _depth_of(self, arr: np.ndarray) -> int:
        for i, lv in enumerate(self.levels):
            if arr[lv.point] != lv.point:
                return i
        return len(self.levels)

    def _add_strong(self, arr: np.ndarray) -> int:
        """Register a strong generator, extending the base if needed."""
        depth = self._depth_of(arr)
        if depth == len(self.levels):
            moved = np.flatnonzero(arr != identity_images(self.degree))
            self.levels.append(_Level(int(moved[0])))
        self._strong.append((arr, depth))
        return depth

    def _rebuild_level(self, i: int) -> None:
        lv = self.levels[i]
        gens = self.stabilizer_generators(i)
        ident = identity_images(self.degree)
        lv.transversal = {lv.point: (ident, ident)}
        queue = [lv.point]
        head = 0
        while head < len(queue):
            p = queue[head]
            head += 1
            rep = lv.transversal[p][0]
            for g in gens:
                q = int(g[p])
                if q not in lv.transversal:
                    new_rep = _compose(rep, g)
                    lv.transversal[q] = (new_rep, inverse_images(new_rep))
                    queue.append(q)

    def _sift(self, arr: np.ndarray, start: int = 0):
        """Reduce arr by transversal reps; return (residue, stop level)."""
        g = arr
        for i in range(start, len(self.levels)):
            lv = self.levels[i]
            p = int(g[lv.point])
            if p == lv.point:
                continue
            pair = lv.transversal.get(p)
            if pair is None:
                return g, i
            g = _compose(g, pair[1])
        return g, len(self.levels)

    def _random_boost(self, gens: list[np.ndarray]) -> None:
        """Seeded random walk; sifting residues pre-populates strong gens."""
        if not gens:
            return
        rng = np.random.default_rng(_RANDOM_SEED)
        w = np.arange(self.degree, dtype=_INT)
        for _ in range(_RANDOM_ROUNDS):
            g = gens[int(rng.integers(len(gens)))]
            if rng.integers(2):
                g = inverse_images(g)
            w = _compose(w, g)
            residue, j = self._sift(w)
            if not is_identity_images(residue):
                depth = self._add_strong(residue)
                for lv_index in range(depth, len(self.levels)):
                    self._rebuild_level(lv_index)

    def _schreier_sims(self, start: int) -> None:
        """Deterministic verification of levels ``start`` down to 0, given
        that the deeper levels are complete: every Schreier generator must
        sift."""
        i = start
        while i >= 0:
            self._rebuild_level(i)
            lv = self.levels[i]
            gens = self.stabilizer_generators(i)
            dirty = None
            for p in sorted(lv.transversal):
                rep = lv.transversal[p][0]
                for g in gens:
                    q = int(g[p])
                    tail_inv = lv.transversal[q][1]
                    schreier = _compose(_compose(rep, g), tail_inv)
                    if is_identity_images(schreier):
                        continue
                    residue, j = self._sift(schreier, i + 1)
                    if not is_identity_images(residue):
                        depth = self._add_strong(residue)
                        for lv_index in range(depth, len(self.levels)):
                            self._rebuild_level(lv_index)
                        dirty = len(self.levels) - 1
                        break
                if dirty is not None:
                    break
            if dirty is None:
                i -= 1
            else:
                i = dirty

    # -- queries ----------------------------------------------------------

    def contains_array(self, arr: np.ndarray) -> bool:
        arr = np.asarray(arr, dtype=_INT)
        if arr.size != self.degree:
            raise ValueError("degree mismatch")
        residue, _ = self._sift(arr)
        return is_identity_images(residue)

    def contains(self, p: Permutation) -> bool:
        return self.contains_array(p.images)

    def order_factored(self) -> Counter:
        out: Counter = Counter()
        for lv in self.levels:
            out += prime_factors(len(lv.transversal))
        return out

    def strong_generators(self) -> list[np.ndarray]:
        return [g for g, _ in self._strong]

    def stabilizer_generators(self, depth: int) -> list[np.ndarray]:
        """Generators of the pointwise stabilizer of base[:depth]."""
        return [g for g, d in self._strong if d >= depth]

    def iter_elements(self):
        """Every element exactly once, as image arrays."""
        ident = np.arange(self.degree, dtype=_INT)
        reps_per_level = [
            [lv.transversal[p][0] for p in sorted(lv.transversal)]
            for lv in self.levels
        ]

        def rec(i):
            if i == len(reps_per_level):
                yield ident
                return
            for h in rec(i + 1):
                for rep in reps_per_level[i]:
                    yield _compose(h, rep)

        yield from rec(0)

    def element_array(self) -> np.ndarray:
        """Every element as one (order, degree) int64 array, rows in
        ``iter_elements`` order.

        Built from the deepest level up: a level's elements are h * rep for
        every element h of the levels below it and every rep of its
        transversal, one gather ``rep[h]`` over all h per rep.
        """
        elements = np.arange(self.degree, dtype=_INT)[None, :]
        for lv in reversed(self.levels):
            keys = sorted(lv.transversal)
            out = np.empty((len(elements), len(keys), self.degree), dtype=_INT)
            for j, p in enumerate(keys):
                out[:, j] = lv.transversal[p][0][elements]
            elements = out.reshape(-1, self.degree)
        return elements

    def random_element(self, rng) -> np.ndarray:
        """Uniformly random element (exact, via transversal products)."""
        acc = np.arange(self.degree, dtype=_INT)
        for lv in reversed(self.levels):
            keys = sorted(lv.transversal)
            rep = lv.transversal[keys[int(rng.integers(len(keys)))]][0]
            acc = _compose(acc, rep)
        return acc


class PermGroup:
    """A permutation group given by generators on 0..degree-1."""

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
        self._chain_cache: dict[tuple[int, ...], StabilizerChain] = {}
        self._minimal_normal: tuple[PermGroup, ...] | None = None

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
        return self.chain_with_base(())

    def chain_with_base(self, prefix) -> StabilizerChain:
        key = tuple(int(b) for b in prefix)
        if key not in self._chain_cache:
            self._chain_cache[key] = StabilizerChain(
                [g.images for g in self._gens], self._degree, base_prefix=key
            )
        return self._chain_cache[key]

    def order(self) -> int:
        return self.chain().order

    def order_factored(self) -> Counter:
        return self.chain().order_factored()

    def contains(self, p: Permutation) -> bool:
        if p.degree != self._degree:
            raise ValueError("degree mismatch")
        return self.chain().contains(p)

    def orbit(self, v: int) -> set[int]:
        if not 0 <= v < self._degree:
            raise ValueError(f"point {v} out of range")
        mask = _kernels.orbit_mask(self.gen_arrays(), v)
        return set(int(x) for x in np.flatnonzero(mask))

    def orbit_partition(self) -> list[list[int]]:
        """Orbits as sorted lists, ordered by least point."""
        seen = np.zeros(self._degree, dtype=bool)
        gens = self.gen_arrays()
        parts = []
        for v in range(self._degree):
            if seen[v]:
                continue
            mask = _kernels.orbit_mask(gens, v)
            pts = np.flatnonzero(mask)
            seen[pts] = True
            parts.append([int(x) for x in pts])
        return parts

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self._degree

    def point_stabilizer(self, v: int) -> "PermGroup":
        if not 0 <= v < self._degree:
            raise ValueError(f"point {v} out of range")
        chain = self.chain_with_base([v])
        gens = [Permutation._wrap(a.copy()) for a in chain.stabilizer_generators(1)]
        return PermGroup(gens, self._degree)

    def pointwise_stabilizer(self, points) -> "PermGroup":
        pts = [int(v) for v in points]
        chain = self.chain_with_base(pts)
        gens = [
            Permutation._wrap(a.copy())
            for a in chain.stabilizer_generators(len(pts))
        ]
        return PermGroup(gens, self._degree)

    def elements(self, bound: int = DEFAULT_BOUND):
        """Iterate every element exactly once; errors if order > bound."""
        order = self.order()
        if order > bound:
            raise BoundExceededError(f"order {order} exceeds bound {bound}")
        for arr in self.chain().iter_elements():
            yield Permutation._wrap(arr.copy())

    def random_element(self, rng) -> Permutation:
        return Permutation._wrap(self.chain().random_element(rng))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self._degree}, ngens={len(self._gens)})"


def is_subgroup(h: PermGroup, g: PermGroup) -> bool:
    if h.degree != g.degree:
        return False
    chain = g.chain()
    return all(chain.contains(x) for x in h.generators)


def coset_key(h_chain: StabilizerChain, x: Permutation) -> bytes:
    """A key identifying the right coset Hx, for H with chain ``h_chain``.

    One greedy pass down H's levels: at each level left-multiply by the
    transversal rep whose point has the least image under the current
    element. The result is the element of Hx that is lexicographically least
    on H's base points, returned whole (its base images alone would not
    separate cosets when H is trivial). Keys are comparable only between
    calls that pass the same chain.
    """
    if x.degree != h_chain.degree:
        raise ValueError("degree mismatch")
    g = x.images
    for lv in h_chain.levels:
        q = min(lv.transversal, key=g.__getitem__)
        g = _compose(lv.transversal[q][0], g)
    return g.tobytes()


def coset_action(
    g: PermGroup, h: PermGroup
) -> tuple[list[Permutation], dict[bytes, int], list[Permutation]]:
    """Right cosets of H in G, found by BFS under G's generators.

    Returns the coset reps in BFS order (rep 0 is the identity), the map
    from ``coset_key`` to coset index, and the action of each generator of
    G on coset indices by right multiplication.
    """
    h_chain = h.chain()
    reps = [Permutation.identity(g.degree)]
    index = {coset_key(h_chain, reps[0]): 0}
    head = 0
    while head < len(reps):
        r = reps[head]
        head += 1
        for s in g.generators:
            cand = r * s
            key = coset_key(h_chain, cand)
            if key not in index:
                index[key] = len(reps)
                reps.append(cand)
    action = [
        Permutation([index[coset_key(h_chain, r * s)] for r in reps])
        for s in g.generators
    ]
    return reps, index, action


def normalizes(x: Permutation, h: PermGroup) -> bool:
    """True iff conjugation by x maps H onto itself."""
    chain = h.chain()
    return all(chain.contains(gen.conjugate(x)) for gen in h.generators)


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


def _image_on_classes(arr: np.ndarray, classes, index: np.ndarray):
    """Class images under the point map ``arr``, or None when ``arr`` does
    not map classes onto classes."""
    img = np.empty(len(classes), dtype=_INT)
    for c, members in enumerate(classes):
        targets = index[arr[np.asarray(members)]]
        if not np.all(targets == targets[0]):
            return None
        img[c] = targets[0]
    return img


@dataclass(frozen=True, repr=False)
class ActionBundle:
    """Induced action of a group on an invariant partition, with kernel.

    ``image_group`` acts on class indices (faithfully, by construction);
    ``kernel`` is the subgroup of the source fixing every class setwise, and
    |source| = |image| * |kernel| is verified at build time.
    """

    image_group: PermGroup
    kernel: PermGroup
    class_labels: tuple[tuple[int, ...], ...]
    _class_index: np.ndarray = field(compare=False)
    _combined: StabilizerChain = field(compare=False)
    _prefix_len: int = field(compare=False)
    _source_degree: int = field(compare=False)

    def __repr__(self) -> str:
        return (
            f"ActionBundle(classes={len(self.class_labels)}, "
            f"image_order={self.image_group.order()}, "
            f"kernel_order={self.kernel.order()})"
        )

    def class_of(self, point: int) -> int:
        return int(self._class_index[point])

    def image_of(self, p: Permutation) -> Permutation:
        """Apply the action homomorphism to an element of the source."""
        n = self._source_degree
        if p.degree != n:
            raise ValueError("degree mismatch")
        img = _image_on_classes(p.images, self.class_labels, self._class_index)
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
    """Action of ``g`` on a g-invariant partition, with kernel generators.

    The kernel is extracted from a stabilizer chain of the combined action on
    points + classes whose base starts with a base of the induced image: the
    strong generators fixing that prefix are exactly the kernel.
    """
    n = g.degree
    classes, index = partition_index(partition, n)
    m = len(classes)

    image_arrays = []
    for gen in g.generators:
        img = _image_on_classes(gen.images, classes, index)
        if img is None:
            raise PreconditionError(
                f"partition is not invariant under generator {gen!r}"
            )
        image_arrays.append(img)

    image_group = PermGroup(
        [Permutation(a) for a in image_arrays] or [Permutation.identity(m)], m
    )
    image_base = image_group.chain().base

    combined_gens = [
        np.concatenate([gen.images, img + n])
        for gen, img in zip(g.generators, image_arrays)
    ]
    combined = StabilizerChain(
        combined_gens, n + m, base_prefix=[n + b for b in image_base]
    )
    prefix_len = len(image_base)
    kernel_gens = [
        Permutation._wrap(arr[:n].copy())
        for arr in combined.stabilizer_generators(prefix_len)
    ]
    kernel = PermGroup(kernel_gens or [Permutation.identity(n)], n)

    if combined.order != g.order():
        raise RuntimeError("combined chain order mismatch (internal error)")
    if image_group.order() * kernel.order() != g.order():
        raise RuntimeError("|G| != |image| * |kernel| (internal error)")

    return ActionBundle(
        image_group=image_group,
        kernel=kernel,
        class_labels=tuple(classes),
        _class_index=index,
        _combined=combined,
        _prefix_len=prefix_len,
        _source_degree=n,
    )


# -- bounded structure computations ---------------------------------------


_POWER_ROWS = 4096  # rows per block when raising every element to a power


def _row_powers(x: np.ndarray, e: int) -> np.ndarray:
    """Each row of ``x``, a permutation's images, raised to the power e >= 1."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else np.take_along_axis(x, result, axis=1)
        e >>= 1
        if not e:
            return result
        x = np.take_along_axis(x, x, axis=1)


def _row_keys(x: np.ndarray) -> np.ndarray:
    """One void scalar per row of the int64 array ``x``, so that whole rows
    compare, sort and search as single values."""
    x = np.ascontiguousarray(x)
    return x.view(np.dtype((np.void, x.shape[1] * x.itemsize))).ravel()


def _prime_order_classes(g: PermGroup):
    """The conjugacy classes of elements of prime order.

    Returns every element as the rows of ``g.chain().element_array()`` and
    each class as an array of row indices: the class's first row in
    enumeration order, then the rest in the order a depth-first search
    under conjugation by the generators reaches them. The prime-order rows
    come from row-wise p-th powers, one for each prime p dividing |G|; a
    conjugate is looked up by its images of the base points, which
    determine an element.
    """
    chain = g.chain()
    elements = chain.element_array()
    ident = identity_images(chain.degree)
    prime = np.zeros(len(elements), dtype=bool)
    for lo in range(0, len(elements), _POWER_ROWS):
        block = elements[lo : lo + _POWER_ROWS]
        for p in chain.order_factored():
            prime[lo : lo + _POWER_ROWS] |= np.all(_row_powers(block, p) == ident, axis=1)
    prime &= ~np.all(elements == ident, axis=1)
    rows = np.flatnonzero(prime)
    if not len(rows):
        return elements, []
    base = np.asarray(chain.base)
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


def minimal_normal_subgroups(g: PermGroup, bound: int = DEFAULT_BOUND) -> list[PermGroup]:
    """All minimal normal subgroups of ``g``, ordered by order, then by the
    position of their first nontrivial element in ``iter_elements`` order.

    A minimal normal subgroup is the normal closure of any one of its
    nontrivial elements, and like every nontrivial group it has an element
    of prime order. So the normal closures of the classes of prime-order
    elements (a class generates its closure) include every minimal normal
    subgroup, and no other class needs a closure. The closures are
    deduplicated, then filtered to the minimal ones under containment; each
    closure is one ``extend_all`` with a single verification. The result is
    stored on ``g``, so later calls on the same group return it without
    recomputing; every call raises ``BoundExceededError`` when |G| >
    ``bound``.
    """
    order = g.order()
    if order > bound:
        raise BoundExceededError(f"order {order} exceeds bound {bound}")
    if g._minimal_normal is not None:
        return list(g._minimal_normal)
    n = g.degree
    elements, classes = _prime_order_classes(g)
    closures = []
    for cls in classes:
        chain = StabilizerChain([], n)
        sel = chain.extend_all(elements[cls])
        closures.append((chain.order, sel, chain, int(cls[0])))
    closures.sort(key=lambda t: t[0])
    distinct = []
    for order, sel, chain, first in closures:
        dup = False
        for order2, sel2, chain2, _ in distinct:
            if order2 == order and all(chain2.contains_array(a) for a in sel):
                dup = True
                break
        if not dup:
            distinct.append((order, sel, chain, first))
    minimal = []
    for order, sel, chain, first in distinct:
        is_min = True
        for order2, sel2, chain2, _ in distinct:
            if order2 < order and all(chain.contains_array(a) for a in sel2):
                is_min = False
                break
        if is_min:
            if len(prime_factors(order)) > 1:
                # ``first`` is its first element of prime order. One of
                # prime-power order is elementary abelian, so that is its
                # first nontrivial element; this one is not, and an element
                # of composite order may come before it.
                first = next(
                    (
                        i
                        for i in range(first)
                        if not is_identity_images(elements[i])
                        and chain.contains_array(elements[i])
                    ),
                    first,
                )
            minimal.append((order, first, sel))
    minimal.sort(key=lambda t: t[:2])
    result = [
        PermGroup([Permutation._wrap(a.copy()) for a in sel], n) for _, _, sel in minimal
    ]
    g._minimal_normal = tuple(result)
    return result


def transitivity_class(g: PermGroup, bound: int = DEFAULT_BOUND) -> str:
    """One of intransitive / quasiprimitive / biquasiprimitive / neither.

    Quasiprimitive: every nontrivial normal subgroup is transitive.
    Biquasiprimitive: not quasiprimitive, but every nontrivial normal
    subgroup has at most two orbits. Both reduce to the minimal normal
    subgroups, since orbits only coarsen when the subgroup grows.
    """
    if not g.is_transitive():
        return "intransitive"
    mins = minimal_normal_subgroups(g, bound)
    orbit_counts = [len(n.orbit_partition()) for n in mins]
    if all(c == 1 for c in orbit_counts):
        return "quasiprimitive"
    if all(c <= 2 for c in orbit_counts):
        return "biquasiprimitive"
    return "neither"


def normalizer(g: PermGroup, h: PermGroup, bound: int = DEFAULT_BOUND) -> PermGroup:
    """N_G(H) by elementwise scan with conjugation membership tests."""
    if not is_subgroup(h, g):
        raise PreconditionError("H is not a subgroup of G")
    order = g.order()
    if order > bound:
        raise BoundExceededError(f"order {order} exceeds bound {bound}")
    h_chain = h.chain()
    h_gens = [p.images for p in h.generators]
    found: list[np.ndarray] = []
    chain = StabilizerChain([], g.degree)
    for arr in g.chain().iter_elements():
        if is_identity_images(arr):
            continue
        inv = inverse_images(arr)
        if all(
            h_chain.contains_array(_compose(_compose(inv, x), arr))
            for x in h_gens
        ) and chain.extend(arr):
            found.append(arr)
    gens = [Permutation._wrap(a.copy()) for a in found]
    return PermGroup(gens or [Permutation.identity(g.degree)], g.degree)


# -- semiregular element machinery ----------------------------------------


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def semiregular_of_prime_power_degree(
    g: PermGroup, *, bound: int = DEFAULT_BOUND, seed: int = 0
) -> Permutation:
    """A semiregular element of order p in a transitive group of degree p^k.

    Builds a Sylow p-subgroup (adjoining p-parts of random elements while the
    subgroup stays a p-group, with a deterministic enumeration fallback), then
    powers a nontrivial central element down to order p. Centrality in a
    transitive group forces equal cycle lengths.
    """
    n = g.degree
    if not g.is_transitive():
        raise PreconditionError("group is not transitive")
    p = min(prime_factors(n))
    if not _is_p_power(n, p):
        raise PreconditionError(f"degree {n} is not a prime power")
    target = _p_part(g.order(), p)

    sylow_gens: list[np.ndarray] = []
    sylow_chain: StabilizerChain | None = None

    def try_adjoin(arr: np.ndarray) -> None:
        nonlocal sylow_chain
        if is_identity_images(arr):
            return
        if sylow_chain is not None and sylow_chain.contains_array(arr):
            return
        cand = StabilizerChain(sylow_gens + [arr], n)
        if _is_p_power(cand.order, p):
            sylow_gens.append(arr)
            sylow_chain = cand

    rng = np.random.default_rng(seed)
    chain = g.chain()
    attempts = 0
    max_attempts = 200
    while (sylow_chain.order if sylow_chain else 1) < target and attempts < max_attempts:
        attempts += 1
        arr = chain.random_element(rng)
        perm = Permutation._wrap(arr)
        o = perm.order()
        a = _p_part(o, p)
        if a == 1:
            continue
        try_adjoin((perm ** (o // a)).images)
    if (sylow_chain.order if sylow_chain else 1) < target:
        # deterministic fallback: greedy over all p-elements
        order = g.order()
        if order > bound:
            raise BoundExceededError(
                f"order {order} exceeds bound {bound} for Sylow fallback"
            )
        progress = True
        while (sylow_chain.order if sylow_chain else 1) < target and progress:
            progress = False
            before = sylow_chain.order if sylow_chain else 1
            for el in g.elements(bound):
                o = el.order()
                if o > 1 and _is_p_power(o, p):
                    try_adjoin(el.images)
                    if sylow_chain.order == target:
                        break
            progress = (sylow_chain.order if sylow_chain else 1) > before
        if (sylow_chain.order if sylow_chain else 1) < target:
            raise RuntimeError("Sylow construction failed (internal error)")

    if sylow_chain.order > bound:
        raise BoundExceededError(
            f"Sylow subgroup order {sylow_chain.order} exceeds bound {bound}"
        )
    central = None
    for arr in sylow_chain.iter_elements():
        if is_identity_images(arr):
            continue
        if all(
            np.array_equal(_compose(arr, s), _compose(s, arr))
            for s in sylow_gens
        ):
            central = Permutation._wrap(arr.copy())
            break
    if central is None:
        raise RuntimeError("p-group with trivial center (internal error)")
    o = central.order()
    result = central ** (o // p)
    if not result.is_semiregular() or result.order() != p:
        raise RuntimeError("central element not semiregular (internal error)")
    return result


def lift_semiregular(
    bundle: ActionBundle, source: PermGroup, image_element: Permutation, r: int
) -> Permutation:
    """Lift a semiregular image element of prime order r coprime to the kernel.

    Takes a preimage g and scans its powers of order r for semiregularity on
    the source points; the coprimality hypothesis guarantees a hit (if x^i
    fixes a point it fixes that point's class, forcing r | i).
    """
    if not is_prime(r):
        raise PreconditionError(f"r={r} is not prime")
    if image_element.order() != r:
        raise PreconditionError("image element does not have order r")
    if not image_element.is_semiregular():
        raise PreconditionError("image element is not semiregular")
    if not bundle.image_group.contains(image_element):
        raise PreconditionError("image element is not in the image group")
    k_order = bundle.kernel.order()
    if math.gcd(r, k_order) != 1:
        raise PreconditionError(f"r={r} is not coprime to |kernel|={k_order}")

    g = bundle.preimage(image_element)
    o = g.order()
    for j in range(1, o):
        if o // math.gcd(o, j) != r:
            continue
        x = g ** j
        if x.is_semiregular():
            if bundle.image_of(x) != image_element ** j:
                raise RuntimeError("lift image inconsistent (internal error)")
            if not source.contains(x):
                raise RuntimeError("lift left the source group (internal error)")
            return x
    raise RuntimeError(
        "no semiregular power found; contradicts the coprime lifting lemma"
    )
