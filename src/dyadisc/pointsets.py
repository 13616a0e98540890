"""Two-dimensional Hammersley-type point sets with exact dyadic coordinates.

The base set pairs the bit-reversed value of an n-bit counter with a per-bit,
optionally flipped copy of the counter: for digits (t_1, ..., t_n) the point
is (t_n/2 + ... + t_1/2^n, s_1/2 + ... + s_n/2^n) with s_i = t_i or 1 - t_i
chosen by a sign pattern. Reflections about the centre lines and the two
symmetrizations (single-axis and full) are multiset unions, so cardinality
always counts multiplicity and coordinates exactly equal to 1 can occur.

Coordinates are stored as integers k with value k / 2**n_resolution, in one
read-only pair of numpy arrays, which keeps every downstream computation
exact and deterministic. A symmetrization stores the pair of its base and
the axes it reflects, and its sums read the base's reflection orbits; see
PointMultiset.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import comb
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

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
    "is_transpose_invariant",
    "build_family",
    "family_reflections",
    "hammersley_moments",
    "SIGMA_PRESETS",
    "FAMILIES",
]

SIGMA_PRESETS = ("identity", "all-flip", "alternating", "random")
# family -> the axes (x, y) that its union reflects; build_family and the
# digit transfer of the built-in cubature both read it
_FAMILY_REFLECTIONS = {
    "hammersley": (False, False),
    "davenport": (False, True),
    "symmetrized": (True, True),
}
FAMILIES = tuple(_FAMILY_REFLECTIONS)


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
        if any(flip not in (0, 1) for flip in self.flips):
            raise ValueError(f"flips must be 0 or 1, got {self.flips!r}")
        object.__setattr__(self, "flips", tuple(bool(flip) for flip in self.flips))

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


def _exact(term_bits: int, count: int):
    """The dtype that sums count integers of magnitude at most 2^term_bits exactly.

    int64 while term_bits + bitlen(count) <= 62, so that every such sum
    stays below 2^62; object, for Python ints, once it may leave int64.
    """
    return object if term_bits + count.bit_length() > 62 else np.int64


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
    cache dict holds only the latest sorted level row (see haar._level_row).

    A multiset holds its base coordinate arrays, _base, and the axes its
    union reflects, _reflected (x, y): it is the base followed by the
    base's reflections on every combination of those axes, M 2^a points for
    M base points and a reflected axes. The two symmetrizations record
    (True, True) and (False, True); every other multiset records
    (False, False), and its base is its coordinate arrays. The base is as
    wide as a coordinate, at most 2^res: _exact(res, 1). Every per-point
    sum reads it through axis_orbits() in the dtype of its own bound.
    scaled_coords() builds the union, in the same dtype and keeping nothing,
    for the readers that need each point on its own: star, is_net and
    level_counting_sums cast it to their own bounds; the others
    (gen, iteration, reflect, L_p, custom integrands) copy or list it.
    """

    __slots__ = ("n_resolution", "_base", "_cache", "_reflected")

    def __init__(self, points: Iterable, resolution: Optional[int] = None):
        coords = []
        max_exp = 0
        for x, y in points:
            x, y = _as_dyadic(x), _as_dyadic(y)
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
    def _from_scaled(cls, kx, ky, resolution: int, reflected=(False, False)) -> "PointMultiset":
        obj = cls.__new__(cls)
        obj._store(kx, ky, resolution, reflected)
        return obj

    def _store(self, kx, ky, resolution: int, reflected=(False, False)) -> None:
        dtype = _exact(resolution, 1)  # a coordinate, at most 2^res; each sum casts to its bound
        base = (np.asarray(kx, dtype=dtype), np.asarray(ky, dtype=dtype))
        for k in base:
            k.flags.writeable = False
        object.__setattr__(self, "n_resolution", resolution)
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_reflected", reflected)

    # -- views ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._base[0]) << sum(self._reflected)

    def __iter__(self) -> Iterator[Point]:
        res = self.n_resolution
        kx, ky = self.scaled_coords()
        for x, y in zip(kx.tolist(), ky.tolist()):
            yield Point(dyadic(x, res), dyadic(y, res))

    @property
    def entries(self) -> Tuple[Point, ...]:
        return tuple(self)

    def axis_orbits(self, dtype=None) -> Tuple[Tuple[np.ndarray, ...], ...]:
        """Per axis (x, y), the base's orbit: (k,), or (k, 2^res - k) if reflected.

        The arrays run over the M base points, in the store's dtype or cast
        to dtype if one is given. The N points take one entry of each tuple
        at one base point, so for any fx, fy, the sum over the N points of
        fx(x) fy(y) is the sum over the M base points of (sum of fx over the
        x tuple) (sum of fy over the y tuple). Every per-point sum reads the
        base so; it regroups the union's terms, so their bound holds too.
        """
        full = 1 << self.n_resolution
        base = self._base if dtype is None else (k.astype(dtype, copy=False) for k in self._base)
        return tuple((k, full - k) if r else (k,) for k, r in zip(base, self._reflected))

    def scaled_coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only integer coordinate arrays at denominator 2**n_resolution.

        In the store's dtype, _exact(res, 1), like axis_orbits(): a reader
        that sums over them casts to its own bound. A plain multiset returns
        its base itself; a symmetrization builds its union from axis_orbits()
        on every call, in entry order base, Y, X, XY (base, Y), keeping nothing.
        """
        if not any(self._reflected):
            return self._base
        # product varies y fastest: base, Y, X, XY
        coords = tuple(map(np.concatenate, zip(*product(*self.axis_orbits()))))
        for k in coords:
            k.flags.writeable = False
        return coords

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
    Raises MemoryError before allocating past numpy's largest array (n >= 60).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if sigma.n != n:
        raise ValueError(f"sign pattern has length {sigma.n}, expected {n}")
    if (1 << n) * np.dtype(np.int64).itemsize > np.iinfo(np.intp).max:
        raise MemoryError(f"2^{n} points exceed the largest numpy array")
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


def _reflected_union(points: PointMultiset, reflected: Tuple[bool, bool]) -> PointMultiset:
    """points followed by its reflections on every combination of the reflected axes."""
    return PointMultiset._from_scaled(*points.scaled_coords(), points.n_resolution, reflected)


def symmetrize_full(points: PointMultiset) -> PointMultiset:
    """Multiset union with all three reflections; cardinality 4 |P|."""
    return _reflected_union(points, (True, True))


def symmetrize_davenport(points: PointMultiset) -> PointMultiset:
    """Multiset union with the y-reflection only; cardinality 2 |P|."""
    return _reflected_union(points, (False, True))


def is_net(points: PointMultiset, n: int) -> bool:
    """True iff every half-open dyadic box of area 2**-n holds one point.

    Checks all shapes (j1, j2) with j1 + j2 = n, j_i >= 0. A coordinate
    exactly equal to 1 lies in no half-open box, which forces a failure.
    The box index of k / 2^res on level j is (k << j) >> res, on either
    side of j = res; the shifted coordinate k << j is at most 2^(res + n),
    so the coordinates are cast to _exact(res + n, 1).
    """
    if len(points) != 1 << n:
        raise ValueError(f"expected 2^{n} points, got {len(points)}")
    res = points.n_resolution
    kx, ky = (k.astype(_exact(res + n, 1), copy=False) for k in points.scaled_coords())
    if not ((kx < 1 << res) & (ky < 1 << res)).all():
        return False
    for j1 in range(n + 1):
        j2 = n - j1
        keys = np.sort((((kx << j1) >> res) << j2) + ((ky << j2) >> res), kind="stable")
        if (keys[1:] == keys[:-1]).any():
            return False
    return True


def is_transpose_invariant(points: PointMultiset) -> bool:
    """True if the multiset is sure to equal its mirror image across the diagonal.

    Checks that both axes or neither are reflected, and that the base
    multiset {(kx, ky)} equals {(ky, kx)}: the sorted keys (kx << (res + 1))
    + ky and (ky << (res + 1)) + kx agree, O(M log M) for M base points.
    Then the union, which reflects both axes alike, is its own transpose
    too. A key is below 2^(2 res + 2), so the coordinates are cast to
    _exact(2 res + 1, 1). False for every other multiset, including some
    that do equal their transpose. hammersley_type(n, sigma) transposed is
    hammersley_type(n, reversed sigma), so its base qualifies exactly when
    sigma is a palindrome. Keeps nothing.
    """
    if points._reflected[0] != points._reflected[1]:
        return False
    res = points.n_resolution
    kx, ky = (k.astype(_exact(2 * res + 1, 1), copy=False) for k in points._base)
    return bool((np.sort((kx << (res + 1)) + ky) == np.sort((ky << (res + 1)) + kx)).all())


def family_reflections(family: str) -> Tuple[bool, bool]:
    """The axes (x, y) that the family's union reflects, for any n and pattern."""
    if family not in _FAMILY_REFLECTIONS:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    return _FAMILY_REFLECTIONS[family]


def build_family(family: str, n: int, sigma: SignPattern) -> PointMultiset:
    """Base set, its single-axis symmetrization, or the full symmetrization."""
    return _reflected_union(hammersley_type(n, sigma), family_reflections(family))


def hammersley_moments(sigma: SignPattern, a: int, b: int) -> List[List[int]]:
    """M[s][t], the sum of kx^s ky^t over hammersley_type(n, sigma), for s <= a, t <= b.

    kx and ky are the integer coordinates at scale 2^n. Both are linear in
    the n digits of the counter v: digit i adds bit 2^i to kx and
    (bit XOR flip_i) 2^(n-1-i) to ky. So the moments follow by a transfer
    over the digits, from the empty prefix (M[0][0] = 1), without building
    a point: each digit sums, over its two bits, the prefix's moments
    shifted by the two steps, where a shift by d takes the power sums m[u]
    of one coordinate to sum over u <= s of C(s, u) d^(s-u) m[u].
    Python ints throughout, so every moment is exact at any n.
    """
    n = sigma.n
    moments = [[int(s == t == 0) for t in range(b + 1)] for s in range(a + 1)]
    for i, flip in enumerate(sigma.flips):
        step = 1 << (n - 1 - i)
        # bit 0 moves y only when the digit flips; bit 1 moves x, and y when it does not
        low = _shift(moments, step if flip else 0, 1)
        high = _shift(_shift(moments, 1 << i, 0), 0 if flip else step, 1)
        moments = [[p + q for p, q in zip(u, w)] for u, w in zip(low, high)]
    return moments


def _shift(moments: List[List[int]], d: int, axis: int) -> List[List[int]]:
    """The moments of the set moved by d along axis 0 (x) or 1 (y); d = 0 returns them."""
    if not d:
        return moments
    lines = moments if axis else list(zip(*moments))
    table = [[comb(s, u) * d ** (s - u) for u in range(s + 1)] for s in range(len(lines[0]))]
    shifted = [[sum(c * m for c, m in zip(coefs, line)) for coefs in table] for line in lines]
    return shifted if axis else [list(line) for line in zip(*shifted)]
