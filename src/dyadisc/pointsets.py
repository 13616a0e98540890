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

import math
import numbers
import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import comb
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

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
    x: Fraction
    y: Fraction


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


def _as_dyadic(value) -> Fraction:
    """value as an exact Fraction whose denominator is a power of two.

    Takes every numbers.Rational (ints, Fractions, numpy integers) and every
    finite float, numpy floats included, which converts exactly. Raises
    ValueError for a non-finite float or a denominator that is not a power
    of two, and TypeError for any other type; nothing is rounded.
    """
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"coordinate {value!r} is not finite")
        value = Fraction(float(value))
    elif isinstance(value, numbers.Integral):
        value = Fraction(operator.index(value))
    elif isinstance(value, numbers.Rational):
        value = Fraction(int(value.numerator), int(value.denominator))
    else:
        raise TypeError(f"cannot interpret {value!r} as a dyadic coordinate")
    if value.denominator & (value.denominator - 1):
        raise ValueError(f"coordinate {value} is not dyadic: its denominator is not a power of two")
    return value


class PointMultiset:
    """Ordered multiset of points whose coordinates are k / 2**n_resolution.

    The entry order is the generation order, which makes every floating
    accumulation downstream deterministic. Instances are immutable; a small
    cache dict holds only the latest sorted row of the level scans and the
    latest sorted row of the counting sums (see haar._level_row and
    haar._counting_row), each replaced on the next j1.

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
        max_den = 1
        for x, y in points:
            x, y = _as_dyadic(x), _as_dyadic(y)
            for c in (x, y):
                if c < 0 or c > 1:
                    raise ValueError(f"coordinate {c} outside [0, 1]")
            coords.append((x, y))
            max_den = max(max_den, x.denominator, y.denominator)
        res = max_den.bit_length() - 1 if resolution is None else resolution
        if res < 0:
            raise ValueError("resolution must be nonnegative")
        full = 1 << res
        kx, ky = [], []
        for x, y in coords:
            if full % x.denominator or full % y.denominator:
                raise ValueError(
                    f"point ({x}, {y}) does not lie on the 2^-{res} grid"
                )
            kx.append(x.numerator * (full // x.denominator))
            ky.append(y.numerator * (full // y.denominator))
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
        full = 1 << self.n_resolution
        kx, ky = self.scaled_coords()
        for x, y in zip(kx.tolist(), ky.tolist()):
            yield Point(Fraction(x, full), Fraction(y, full))

    @property
    def entries(self) -> Tuple[Point, ...]:
        return tuple(self)

    def axis_orbits(self, dtype=None, part: slice = slice(None)) -> Tuple[Tuple[np.ndarray, ...], ...]:
        """Per axis (x, y), the base's orbit: (k,), or (k, 2^res - k) if reflected.

        The arrays run over the M base points, or the base points in part,
        in the store's dtype or cast to dtype if one is given. The N points
        take one entry of each tuple at one base point, so for any fx, fy,
        the sum over the N points of fx(x) fy(y) is the sum over the M base
        points of (sum of fx over the x tuple) (sum of fy over the y tuple).
        Every per-point sum reads the base so; it regroups the union's
        terms, so their bound holds too.
        """
        full = 1 << self.n_resolution
        base = (k[part] for k in self._base)
        if dtype is not None:
            base = (k.astype(dtype, copy=False) for k in base)
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
    l2_warnock recognises this layout in a base (_hammersley_sigma) and
    takes both of its sums from the digit-transfer kernel _digit_transfer:
    _hammersley_pair_sum and _hammersley_single_sum.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if sigma.n != n:
        raise ValueError(f"sign pattern has length {sigma.n}, expected {n}")
    if (1 << n) * np.dtype(np.int64).itemsize > np.iinfo(np.intp).max:
        raise MemoryError(f"2^{n} points exceed the largest numpy array")
    v = np.arange(1 << n, dtype=np.int64)
    # counter 0 holds the flips; digit i of the counter toggles bit n-1-i of
    # ky, so each half of the first 2^(i+1) entries doubles the one before it
    ky = np.empty_like(v)
    ky[0] = sum(int(flip) << (n - 1 - i) for i, flip in enumerate(sigma.flips))
    for i in range(n):
        half = 1 << i
        np.bitwise_xor(ky[:half], 1 << (n - 1 - i), out=ky[half : 2 * half])
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

    kx and ky are the integer coordinates at scale 2^n. The moments are
    _digit_transfer with one point and one state, exact at any n.
    """
    monomials = list(product(range(a + 1), range(b + 1)))
    (moments,) = _digit_transfer(sigma, 1, monomials, lambda state, bits, ybits: state, ()).values()
    return [moments[s * (b + 1) : (s + 1) * (b + 1)] for s in range(a + 1)]


# base entries per comparison of _hammersley_sigma: 512 KiB of int64 temporaries
_SIGMA_CHUNK = 1 << 16


def _hammersley_sigma(points: PointMultiset) -> Optional[SignPattern]:
    """The sign pattern sigma with base == hammersley_type(n, sigma) entry for entry, else None.

    The base qualifies when it has 2^n points at resolution n >= 1, kx[0]
    is 0, and for every w < 2^i, kx[2^i + w] == kx[w] + 2^i and ky[2^i + w]
    == ky[w] ^ 2^(n-1-i): digit i of the counter adds 2^i to kx and toggles
    bit n-1-i of ky. Then ky[0] holds the flips, flip_i in bit n-1-i; it is
    below 2^n, as ky[1] = ky[0] ^ 2^(n-1) is at most 2^n. O(M) for M base
    points, compared _SIGMA_CHUNK entries at a time, so that no temporary
    grows with M; reads the base only, so any symmetrization of such a base
    qualifies too.
    """
    n = points.n_resolution
    kx, ky = points._base
    if n < 1 or len(kx) != 1 << n or kx[0]:
        return None
    for i in range(n):
        half, toggle = 1 << i, 1 << (n - 1 - i)
        for lo in range(0, half, _SIGMA_CHUNK):
            hi = min(lo + _SIGMA_CHUNK, half)
            if not (np.array_equal(kx[half + lo : half + hi], kx[lo:hi] + half)
                    and np.array_equal(ky[half + lo : half + hi], ky[lo:hi] ^ toggle)):
                return None
    first = int(ky[0])
    return SignPattern(n, tuple(bool(first >> (n - 1 - i) & 1) for i in range(n)))


@lru_cache
def _shift_plans(arity: int, monomials: Tuple[Tuple[int, ...], ...]) -> dict:
    """Per mask of the moving coordinates, the terms of _digit_transfer's shift.

    Moving each coordinate v by d_v takes the sum of a monomial m to the sum
    over its sub-monomials u of prod_v C(m_v, u_v) d_v^(m_v - u_v) times the
    sum of u. A term is (index of m, index of u, coefficient, x-degree,
    y-degree) for each u != m whose every v with m_v > u_v moves.
    """
    index = {m: j for j, m in enumerate(monomials)}
    return {
        mask: tuple((index[m], index[u], math.prod(map(comb, m, u)),
                     sum(m[:arity]) - sum(u[:arity]), sum(m[arity:]) - sum(u[arity:]))
                    for m in monomials for u in product(*(range(e + 1) for e in m))
                    if u != m and all(moves or e == f for moves, e, f in zip(mask, m, u)))
        for mask in product((0, 1), repeat=2 * arity)
    }


def _digit_transfer(sigma: SignPattern, arity: int, monomials, key: Callable, start) -> dict:
    """Per state, the sums of monomials over tuples of arity points of hammersley_type(n, sigma).

    Point j is (x_j, y_j) = (kx, ky) at scale 2^n; a monomial is its
    exponents of (x_1 .. x_arity, y_1 .. y_arity), and the sequence is
    downward closed. From the empty prefix in state start, digit i with
    bits b_j adds b_j 2^i to x_j and (b_j XOR flip_i) 2^(n-1-i) to y_j, a
    binomial shift of every sum (_shift_plans), and moves a tuple in state
    c to key(c, bits, ybits). The shift is the same for every state under
    one bit tuple, so the states that share a next state are added first
    and shifted once. Returns {state: its sums}, exact Python ints.
    """
    n = sigma.n
    plans = _shift_plans(arity, tuple(monomials))
    states = {start: [int(not any(m)) for m in monomials]}
    for i, flip in enumerate(sigma.flips):
        moved = {}
        for bits in product((0, 1), repeat=arity):
            ybits = tuple(b ^ flip for b in bits)
            groups = {}
            for state, m in states.items():
                nxt = key(state, bits, ybits)
                groups[nxt] = list(map(operator.add, groups[nxt], m)) if nxt in groups else m
            terms = [(t, u, c << (i * dx + (n - 1 - i) * dy))
                     for t, u, c, dx, dy in plans[bits + ybits]]
            for nxt, m in groups.items():
                into = list(map(operator.add, moved[nxt], m)) if nxt in moved else list(m)
                for t, u, c in terms:
                    into[t] += c * m[u]
                moved[nxt] = into
        states = moved
    return states


def _hammersley_orbit_sum(sigma: SignPattern, reflected: Tuple[bool, bool], factors) -> int:
    """Sum over the union points of fx(kx) fy(ky), for factors (fx, fy) by power of k.

    The union is hammersley_type(n, sigma) and its reflections on the
    reflected axes (x, y), at scale R = 2^n. A base point's orbit on a
    reflected axis sums f(k) + f(R - k), again a polynomial in k, so the
    sum dots the two orbit polynomials with hammersley_moments.
    """
    full = 1 << sigma.n
    # the k^u coefficient of f(R - k) is (-1)^u sum_s f_s C(s, u) R^(s-u)
    px, py = ([c + (-1) ** u * sum(g * comb(s, u) * full ** (s - u) for s, g in enumerate(f[u:], u))
               if r else c for u, c in enumerate(f)] for f, r in zip(factors, reflected))
    moments = hammersley_moments(sigma, len(px) - 1, len(py) - 1)
    return sum(a * b * m for (a, b), m in zip(product(px, py), chain.from_iterable(moments)))


def _hammersley_single_sum(sigma: SignPattern, reflected: Tuple[bool, bool]) -> int:
    """The _hammersley_orbit_sum of prod over axes of (R^2 - k^2), R = 2^n."""
    full = 1 << sigma.n
    return _hammersley_orbit_sum(sigma, reflected, [(full * full, 0, -1)] * 2)


# the bilinear monomials of a pair, (1, x, x') times (1, y, y'), as exponents of (x, x', y, y')
_PAIR_MONOMIALS = tuple(ex + ey for ex in ((0, 0), (1, 0), (0, 1)) for ey in ((0, 0), (1, 0), (0, 1)))


def _hammersley_pair_sum(sigma: SignPattern, reflected: Tuple[bool, bool]) -> int:
    """Sum over ordered pairs of union points of prod over axes of (R - max(k, k')), R = 2^n.

    The union is hammersley_type(n, sigma) and its reflections on the
    reflected axes (x, y), as _reflected_union builds it; k are the integer
    coordinates at scale R. Per pair of base points, a plain axis
    contributes R - max(k, k'), and a reflected one the sum over the four
    pairs of orbit entries, R - |k - k'| + (k + k' if k <= comp k' else 2R - k - k')
    with comp k' = R - 1 - k' (at k + k' = R both branches agree). So each
    factor is linear in (k, k') once the comparisons c1 = cmp(k, k') and,
    on a reflected axis, c2 = cmp(k, comp k') are known.

    The sum is thus _digit_transfer over pairs, with c1 and c2 on each axis
    as its state (9, 27 or 81 states) and the nine _PAIR_MONOMIALS: x takes
    its digits in rising weight, so a digit that differs overwrites its
    comparisons; y takes them in falling weight, so only the first one that
    differs sets them. A digit differs for c1 when d != d' and for c2 when
    d == d', as comp flips every digit of k'. Each state's two linear
    factors then read its part of the sum off its moments.
    """
    full = 1 << sigma.n
    mirrored_x, mirrored_y = reflected

    def key(state, bits, ybits):
        x1, x2, y1, y2 = state
        (t, tp), (s, sp) = bits, ybits
        # on bits, a - b is cmp(a, b) and a + b - 1 is cmp(a, 1 - b); a plain axis keeps c2 at 0
        return (t - tp or x1, (t + tp - 1 or x2) if mirrored_x else 0,
                y1 or s - sp, (y2 or s + sp - 1) if mirrored_y else 0)

    def factor(c1: int, c2: int, mirrored: bool) -> Tuple[int, int, int]:
        """The axis factor as a + b k + c k', for (a, b, c)."""
        if not mirrored:
            return (full, -1, 0) if c1 >= 0 else (full, 0, -1)
        a, b, c = (full, -1, 1) if c1 >= 0 else (full, 1, -1)
        return (a, b + 1, c + 1) if c2 <= 0 else (a + 2 * full, b - 1, c - 1)

    states = _digit_transfer(sigma, 2, _PAIR_MONOMIALS, key, (0, 0, 0, 0))
    return sum(a * b * v for (x1, x2, y1, y2), m in states.items()
               for (a, b), v in zip(product(factor(x1, x2, mirrored_x), factor(y1, y2, mirrored_y)), m))
