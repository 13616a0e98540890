"""Two-dimensional Hammersley-type point sets with exact dyadic coordinates.

The base set pairs the bit-reversed value of an n-bit counter with a per-bit,
optionally flipped copy of the counter: for digits (t_1, ..., t_n) the point
is (t_n/2 + ... + t_1/2^n, s_1/2 + ... + s_n/2^n) with s_i = t_i or 1 - t_i
chosen by a sign pattern. Reflections about the centre lines and the two
symmetrizations (single-axis and full) are multiset unions, so cardinality
always counts multiplicity and coordinates exactly equal to 1 can occur.

Coordinates are stored as integers k with value k / 2**n_resolution, in one
read-only pair of numpy arrays, which keeps every downstream computation
exact and deterministic.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .dyadic import DyadicRational, dyadic

__all__ = [
    "SignPattern",
    "Point",
    "PointMultiset",
    "hammersley_type",
    "reflect",
    "symmetrize_full",
    "symmetrize_davenport",
    "is_net",
    "build_family",
    "SIGMA_PRESETS",
    "FAMILIES",
]

SIGMA_PRESETS = ("identity", "all-flip", "alternating", "random")
FAMILIES = ("hammersley", "davenport", "symmetrized")


@dataclass(frozen=True)
class SignPattern:
    """Per-digit choice between s_i = t_i (False) and s_i = 1 - t_i (True)."""

    n: int
    flips: Tuple[bool, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if len(self.flips) != self.n:
            raise ValueError(f"expected {self.n} flips, got {len(self.flips)}")

    @classmethod
    def identity(cls, n: int) -> "SignPattern":
        return cls(n, (False,) * n)

    @classmethod
    def all_flip(cls, n: int) -> "SignPattern":
        return cls(n, (True,) * n)

    @classmethod
    def alternating(cls, n: int) -> "SignPattern":
        return cls(n, tuple(i % 2 == 1 for i in range(n)))

    @classmethod
    def seeded_random(cls, n: int, seed: int) -> "SignPattern":
        rng = random.Random(seed)
        return cls(n, tuple(bool(rng.getrandbits(1)) for _ in range(n)))

    @classmethod
    def from_preset(cls, name: str, n: int, seed: Optional[int] = None) -> "SignPattern":
        if name == "identity":
            return cls.identity(n)
        if name == "all-flip":
            return cls.all_flip(n)
        if name == "alternating":
            return cls.alternating(n)
        if name == "random":
            if seed is None:
                raise ValueError("the random preset requires a seed")
            return cls.seeded_random(n, seed)
        raise ValueError(f"unknown sigma preset {name!r}; choose from {SIGMA_PRESETS}")


class Point(NamedTuple):
    x: DyadicRational
    y: DyadicRational


def _pow2_log(n: int) -> int:
    if n <= 0 or n & (n - 1):
        raise ValueError(f"cardinality must be a positive power of two, got {n}")
    return n.bit_length() - 1


def _as_dyadic(value) -> DyadicRational:
    if isinstance(value, DyadicRational):
        return value
    if isinstance(value, int):
        return dyadic(value)
    if isinstance(value, float):
        return DyadicRational.from_float(value)
    raise TypeError(f"cannot interpret {value!r} as a dyadic coordinate")


class PointMultiset:
    """Ordered multiset of points whose coordinates are k / 2**n_resolution.

    The entry order is the generation order, which makes every floating
    accumulation downstream deterministic. Instances are immutable; a small
    cache dict holds the latest sorted level row and memoized per-level
    coefficient summaries.
    """

    __slots__ = ("n_resolution", "_kx", "_ky", "_cache")

    def __init__(self, points: Iterable, resolution: Optional[int] = None):
        coords = []
        max_exp = 0
        for entry in points:
            x, y = entry
            x = _as_dyadic(x)
            y = _as_dyadic(y)
            for c in (x, y):
                if c < 0 or c > 1:
                    raise ValueError(f"coordinate {c} outside [0, 1]")
            coords.append((x, y))
            max_exp = max(max_exp, x.exponent, y.exponent)
        res = max_exp if resolution is None else resolution
        if res < 0:
            raise ValueError("resolution must be nonnegative")
        kx, ky = [], []
        for x, y in coords:
            if x.exponent > res or y.exponent > res:
                raise ValueError(
                    f"point ({x}, {y}) does not lie on the 2^-{res} grid"
                )
            kx.append(x.mantissa << (res - x.exponent))
            ky.append(y.mantissa << (res - y.exponent))
        self._store(kx, ky, res)

    def __setattr__(self, name, value):
        raise AttributeError("PointMultiset is immutable")

    @classmethod
    def _from_scaled(cls, kx, ky, resolution: int) -> "PointMultiset":
        obj = cls.__new__(cls)
        obj._store(kx, ky, resolution)
        return obj

    def _store(self, kx, ky, resolution: int) -> None:
        exact = 2 * resolution + len(kx).bit_length() > 62
        dtype = object if exact else np.int64
        kx = np.asarray(kx, dtype=dtype)
        ky = np.asarray(ky, dtype=dtype)
        kx.flags.writeable = ky.flags.writeable = False
        object.__setattr__(self, "n_resolution", resolution)
        object.__setattr__(self, "_kx", kx)
        object.__setattr__(self, "_ky", ky)
        object.__setattr__(self, "_cache", {})

    # -- views ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._kx)

    def __iter__(self) -> Iterator[Point]:
        res = self.n_resolution
        for kx, ky in zip(self._kx.tolist(), self._ky.tolist()):
            yield Point(dyadic(kx, res), dyadic(ky, res))

    @property
    def entries(self) -> Tuple[Point, ...]:
        return tuple(self)

    def scaled_coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only integer coordinate arrays at denominator 2**n_resolution.

        int64 while N * 2^(2 n_resolution) < 2^62, which bounds every sum of
        coordinate products; past that, object arrays of Python ints.
        """
        return self._kx, self._ky

    def multiset(self) -> Counter:
        """Counter over Point values; order-free equality for tests."""
        return Counter(self)

    def __repr__(self):
        return f"PointMultiset(N={len(self)}, resolution={self.n_resolution})"


# -- constructions ---------------------------------------------------------


def hammersley_type(n: int, sigma: SignPattern) -> PointMultiset:
    """The 2**n points over all digit vectors, digits of x reversed.

    The first coordinate of the point generated from counter value v equals
    v / 2**n exactly; the second applies the sign pattern digit-wise.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if sigma.n != n:
        raise ValueError(f"sign pattern has length {sigma.n}, expected {n}")
    v = np.arange(1 << n, dtype=np.int64)
    ky = np.zeros_like(v)
    for i, flip in enumerate(sigma.flips):
        ky |= (((v >> i) & 1) ^ int(flip)) << (n - 1 - i)
    return PointMultiset._from_scaled(v, ky, n)


def reflect(points: PointMultiset, axis: str) -> PointMultiset:
    """Reflect about x=1/2 ("X"), y=1/2 ("Y") or both ("XY")."""
    if axis not in ("X", "Y", "XY"):
        raise ValueError(f"axis must be X, Y or XY, got {axis!r}")
    res = points.n_resolution
    full = 1 << res
    kx, ky = points.scaled_coords()
    if "X" in axis:
        kx = full - kx
    if "Y" in axis:
        ky = full - ky
    return PointMultiset._from_scaled(kx, ky, res)


def symmetrize_full(points: PointMultiset) -> PointMultiset:
    """Multiset union with all three reflections; cardinality 4 |P|."""
    parts = [points, reflect(points, "Y"), reflect(points, "X"), reflect(points, "XY")]
    return _union(parts, points.n_resolution)


def symmetrize_davenport(points: PointMultiset) -> PointMultiset:
    """Multiset union with the y-reflection only; cardinality 2 |P|."""
    return _union([points, reflect(points, "Y")], points.n_resolution)


def _union(parts: Sequence[PointMultiset], resolution: int) -> PointMultiset:
    # the union has more points, so _from_scaled picks its dtype anew
    kx, ky = zip(*(part.scaled_coords() for part in parts))
    return PointMultiset._from_scaled(np.concatenate(kx), np.concatenate(ky), resolution)


def is_net(points: PointMultiset, n: int) -> bool:
    """True iff every half-open dyadic box of area 2**-n holds one point.

    Checks all shapes (j1, j2) with j1 + j2 = n, j_i >= 0. A coordinate
    exactly equal to 1 lies in no half-open box, which forces a failure.
    """
    if len(points) != 1 << n:
        raise ValueError(f"expected 2^{n} points, got {len(points)}")
    res = points.n_resolution
    kx, ky = (arr.tolist() for arr in points.scaled_coords())
    for j1 in range(n + 1):
        j2 = n - j1
        seen = set()
        for x, y in zip(kx, ky):
            key = (_box_index(x, j1, res), _box_index(y, j2, res))
            if None in key or key in seen:
                return False
            seen.add(key)
    return True


def _box_index(k: int, j: int, res: int) -> Optional[int]:
    # half-open boxes: index floor(z * 2^j); z = 1 falls outside
    m = (k >> (res - j)) if res >= j else (k << (j - res))
    return m if m < (1 << j) else None


def build_family(family: str, n: int, sigma: SignPattern) -> PointMultiset:
    """Base set, its single-axis symmetrization, or the full symmetrization."""
    base = hammersley_type(n, sigma)
    if family == "hammersley":
        return base
    if family == "davenport":
        return symmetrize_davenport(base)
    if family == "symmetrized":
        return symmetrize_full(base)
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
