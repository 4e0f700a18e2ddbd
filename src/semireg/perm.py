"""Permutations of {0, ..., n-1} backed by immutable integer image arrays.

Composition follows the right-action convention used throughout the package:
``(a * b)(i) == b(a(i))``, the left factor acts first, matching exponent
notation ``v^g`` for group actions on points.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels

_INT = np.int64

# degree -> the read-only identity image array and its bytes
_IDENTITY: dict[int, tuple[np.ndarray, bytes]] = {}


def _identity_entry(n: int) -> tuple[np.ndarray, bytes]:
    entry = _IDENTITY.get(n)
    if entry is None:
        ident = np.arange(n, dtype=_INT)
        ident.setflags(write=False)
        entry = _IDENTITY[n] = (ident, ident.tobytes())
    return entry


def identity_images(n: int) -> np.ndarray:
    """The identity image array of degree n (read-only, made once per degree)."""
    return _identity_entry(n)[0]


def is_identity_images(a: np.ndarray) -> bool:
    """True iff the int64 image array ``a`` is the identity, by a bytes
    compare; an array of another dtype must be converted first."""
    return a.tobytes() == _identity_entry(a.size)[1]


def inverse_images(a: np.ndarray) -> np.ndarray:
    """The image array of the inverse of the permutation with images ``a``."""
    inv = np.empty_like(a)
    inv[a] = identity_images(a.size)
    return inv


def _validated_images(images) -> np.ndarray:
    arr = np.array(images, dtype=_INT)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("images must be a nonempty 1-d integer sequence")
    n = arr.size
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError("image values must lie in 0..n-1")
    hit = np.zeros(n, dtype=bool)
    hit[arr] = True
    if not hit.all():
        raise ValueError("images is not a bijection")
    return arr


class Permutation:
    """An immutable bijection on 0..n-1; ``images[i]`` is the image of i."""

    __slots__ = ("_images", "_hash")

    def __init__(self, images):
        arr = _validated_images(images)
        arr.setflags(write=False)
        self._images = arr
        self._hash = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Permutation":
        # Internal fast path: arr must already be an int64 bijection.
        self = object.__new__(cls)
        arr.setflags(write=False)
        self._images = arr
        self._hash = None
        return self

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be >= 1")
        return cls._wrap(np.arange(degree, dtype=_INT))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        """Build from disjoint cycles of 0-based points."""
        arr = np.arange(degree, dtype=_INT)
        seen = set()
        for cyc in cycles:
            cyc = list(cyc)
            for pt in cyc:
                if not 0 <= pt < degree:
                    raise ValueError(f"point {pt} out of range 0..{degree - 1}")
                if pt in seen:
                    raise ValueError(f"point {pt} repeated across cycles")
                seen.add(pt)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                arr[a] = b
        return cls._wrap(arr)

    @property
    def images(self) -> np.ndarray:
        return self._images

    @property
    def degree(self) -> int:
        return self._images.size

    def __call__(self, point: int) -> int:
        return int(self._images[point])

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self * other: apply self first, then other."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        return Permutation._wrap(other._images[self._images])

    def inverse(self) -> "Permutation":
        return Permutation._wrap(inverse_images(self._images))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = np.arange(self.degree, dtype=_INT)
        base = self._images
        while k:
            if k & 1:
                result = base[result]
            base = base[base]
            k >>= 1
        return Permutation._wrap(result)

    def conjugate(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g."""
        return (g.inverse() * self) * g

    def order(self) -> int:
        lengths = _kernels.point_cycle_lengths(self._images)
        return math.lcm(*set(lengths.tolist()))

    def cycle_decomposition(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its least point, sorted by it;
        fixed points appear as 1-cycles."""
        n = self.degree
        seen = np.zeros(n, dtype=bool)
        cycles = []
        for start in range(n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = int(self._images[start])
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = int(self._images[j])
            cycles.append(tuple(cyc))
        return tuple(cycles)

    def is_semiregular(self) -> bool:
        """True iff every cycle (fixed points included) has the same length."""
        return bool(_kernels.is_semiregular_images(self._images))

    def is_identity(self) -> bool:
        return is_identity_images(self._images)

    def moved_points(self) -> np.ndarray:
        return np.flatnonzero(self._images != np.arange(self.degree))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.degree == other.degree and bool(
            np.array_equal(self._images, other._images)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.degree, self._images.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string() or 'id'}, degree={self.degree})"

    def cycle_string(self, one_based: bool = False) -> str:
        """Cycles of length > 1 as text, e.g. ``(0 1)(2 3 4)``."""
        off = 1 if one_based else 0
        parts = [
            "(" + " ".join(str(p + off) for p in cyc) + ")"
            for cyc in self.cycle_decomposition()
            if len(cyc) > 1
        ]
        return "".join(parts)

