"""Exact Haar coefficients of local discrepancies.

The 2-D Haar system is indexed by level pairs (j1, j2) with j_i >= -1 and
positions m_i in D_j (a single position 0 at level -1, else 2^j positions).
For a multiset P of N points the local discrepancy is the counting average
minus the anchored-box volume, and its coefficient against a Haar function
splits per point into a product of one-dimensional factors: the integral of
the Haar function over [z, 1]. On each axis that factor is a tent supported
on the open dyadic interval of the level, so a point contributes to at most
one position per level; positions never hit carry only the volume term.

Two structurally different factor computations coexist on purpose. The
closed tent form drives the fast paths; an independent evaluation via the
piecewise-linear antiderivative of the Haar function cross-checks it.
Each is written once, elementwise on ints or arrays, and gives integer
numerators at the scale 2^res of the point grid, so the per-index routes
and the coefficient grids sum integer arrays and build exact Fraction
values only when they return.

Level scans work on integer numerators at the fixed scale 2^(2 res). Each
coefficient depends only on the points inside its box, so the points of a
j1 row are sorted once by (m1, y) and every j2 of that row groups them
without sorting again. One LevelSummary holds a level's scan and reads it
by value, for the norms and checks, or by position, for grids and dumps;
level_value_counts and mu_all_at_level are one function that builds it
afresh on each call. Fraction values are built only when a caller
reads them, and a multiset caches only its latest sorted row of the level
scans and its latest sorted row of the counting sums.

Every route sums over the base's reflection orbits (PointMultiset.axis_orbits);
only level_counting_sums builds a union. The level scans fold each orbit to
its minimum: reflecting x -> 1 - x keeps a point's tent on every level
j >= 0 and moves it from position m to 2^j - 1 - m, so a box sum of a union
is fixed by the folded base, with the mirror's factor added on levels -1
and 0, where a point and its mirror share a box (see _tents). _scan_level
alone decides which levels are empty and which folded sums also stand for
a mirror box; LevelSummary's views read its flags. The same scan of the union
as a plain multiset is the fold's oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .pointsets import PointMultiset, SignPattern, _as_dyadic, _exact, _pow2_log

__all__ = [
    "HaarIndex",
    "CoefficientPrediction",
    "LevelSummary",
    "haar_eval",
    "mu_volume",
    "axis_factor",
    "mu_point",
    "mu_discrepancy",
    "oracle_mu",
    "mu_all_at_level",
    "level_value_counts",
    "grid_indices",
    "mu_grid",
    "oracle_mu_grid",
    "predict_symmetrized",
    "predict_davenport",
    "low_level_sign",
    "counting_sums",
    "level_counting_sums",
]


@dataclass(frozen=True)
class HaarIndex:
    """Level pair (j1, j2) >= -1 with positions m_i in D_{j_i}."""

    j1: int
    j2: int
    m1: int
    m2: int

    def __post_init__(self):
        # stored as Python ints, so a numpy integer reaches every route as one
        fields = (*_position(self.j1, self.m1), *_position(self.j2, self.m2))
        for name, value in zip(("j1", "m1", "j2", "m2"), fields):
            object.__setattr__(self, name, value)

    @property
    def levels(self) -> Tuple[int, int]:
        return (self.j1, self.j2)


def _position(j: int, m: int) -> Tuple[int, int]:
    """Level j >= -1 and position m in D_j as ints; numpy integers pass operator.index."""
    j, m = operator.index(j), operator.index(m)
    if j < -1:
        raise ValueError(f"level {j} below -1")
    if not 0 <= m < (1 if j == -1 else 1 << j):
        raise ValueError(f"position {m} out of range for level {j}")
    return j, m


# -- pointwise evaluation ----------------------------------------------------


def _axis_eval(j: int, m: int, t) -> int:
    if j == -1:
        return 1
    # sign on the two halves of [m 2^-j, (m+1) 2^-j)
    scaled = t * (2 << j)
    if scaled < 2 * m or scaled >= 2 * m + 2:
        return 0
    return 1 if scaled < 2 * m + 1 else -1


def haar_eval(idx: HaarIndex, t) -> int:
    """Tensor-product Haar function value in {-1, 0, +1} at t in [0,1)^2."""
    t1, t2 = (_as_dyadic(c) for c in t)
    for c in (t1, t2):
        if not (0 <= c < 1):
            raise ValueError(f"coordinate {c} outside [0, 1)")
    a = _axis_eval(idx.j1, idx.m1, t1)
    if a == 0:
        return 0
    b = _axis_eval(idx.j2, idx.m2, t2)
    return a * b


# -- coefficient of the volume term t1*t2 ------------------------------------


def _volume(j1: int, j2: int) -> Tuple[int, int]:
    """Volume coefficient of the level pair as sign / 2^exponent.

    Per axis the integral of t * h_{j,m}(t) is 1/2 on level -1 and
    -2^-(2j+2) on every level j >= 0, independent of m.
    """
    sign, exponent = 1, 0
    for j in (j1, j2):
        if j == -1:
            exponent += 1
        else:
            sign, exponent = -sign, exponent + 2 * j + 2
    return sign, exponent


def mu_volume(idx: HaarIndex) -> Fraction:
    """Haar coefficient of f(t) = t1 * t2."""
    sign, exponent = _volume(idx.j1, idx.j2)
    return Fraction(sign, 1 << exponent)


def _value_scale(j1: int, j2: int, scale: int) -> Tuple[int, int, int]:
    """One power of two for the values acc / 2^scale minus the volume term.

    Returns (shift, empty, top): the value of a level sum acc is
    ((acc << shift) + empty) / 2^top, and empty / 2^top is the value of
    a box no point hits.
    """
    sign, vol_exponent = _volume(j1, j2)
    top = max(scale, vol_exponent)
    return top - scale, -sign << (top - vol_exponent), top


def _coefficients(accs: List[int], scale: int, j1: int, j2: int) -> List[Fraction]:
    """acc / 2^scale minus the volume coefficient, for each acc of one level.

    One Fraction is built per distinct acc.
    """
    shift, empty, top = _value_scale(j1, j2, scale)
    values = {acc: Fraction((acc << shift) + empty, 1 << top) for acc in set(accs)}
    return [values[acc] for acc in accs]


# -- per-point counting factors ----------------------------------------------
#
# The factor of a point z = k / 2^res is the integral of h_{j,m} over
# [z, 1]. Both forms below return it times 2^res, an integer: 2^res - k on
# level -1, and 0 on every level j >= res, whose open intervals hold no
# grid point. They differ on the levels 0 <= j < res. The closed form,
# _tents, also drives every level scan.


def _tents(k, j: int, res: int, reflected: bool = False):
    """Signed factor numerators and positions of the grid points k on level j.

    k is an int or an array. On level -1 the numerator is 2^res - k at
    position 0. On 0 <= j <= res it is the closed tent
    |k mod 2^(res-j) - half| - half with half = 2^(res-j-1), zero on the
    interval endpoints (everywhere at j = res), at position k >> (res - j).
    Past res it is 0. On a reflected axis k and its mirror 2^res - k share
    the box of levels -1 and 0, so their numerators are added up there:
    2^res on level -1 and twice the tent on level 0.
    """
    if j == -1:
        return (1 << res) - (k * 0 if reflected else k), k * 0
    if j > res:
        return k * 0, k * 0
    per = 1 << (res - j)
    half = per >> 1
    tent = abs((k & (per - 1)) - half) - half
    return (tent << 1 if reflected and j == 0 else tent), k >> (res - j)


def _tent_numerator(j: int, m, k, res: int):
    """Closed tent form: the numerator of _tents where its position is m."""
    tent, position = _tents(k, j, res)
    return tent * (position == m)


def _antiderivative_numerator(j: int, m, k, res: int):
    """H(1) - H(z) for H(u) = int_0^u h_{j,m}: minus the height of H at z.

    H rises from 0 at the left end of the interval to its midpoint, falls
    back to 0 at the right end and is 0 elsewhere, so at scale 2^res the
    height is h = half - |k - (left + half)| where h > 0, half = 2^(res-j-1).
    m and k are ints or int64 or object arrays that broadcast; plain
    arithmetic keeps Python ints exact past int64.
    """
    if j == -1:
        return (1 << res) - k
    if j >= res:
        return k * 0
    half = 1 << (res - j - 1)
    h = half - abs(k - ((m << (res - j)) + half))
    return -((h + abs(h)) >> 1)


def _factor_at(numerator, j: int, m: int, z: Fraction) -> Fraction:
    """A factor form at any dyadic z, on the grid of z's own denominator."""
    res = z.denominator.bit_length() - 1
    return Fraction(numerator(j, m, z.numerator, res), z.denominator)


def axis_factor(j: int, m: int, z) -> Fraction:
    """Integral of the level-(j, m) Haar function over [z, 1], closed form.

    For j >= 0 the value is a downward tent on the open interval of the
    position and exactly zero outside (including both endpoints); for the
    level -1 indicator it is 1 - z for every z in [0, 1].
    """
    j, m = _position(j, m)
    return _factor_at(_tent_numerator, j, m, _as_dyadic(z))


def mu_point(idx: HaarIndex, z) -> Fraction:
    """Haar coefficient of t -> 1_{[0, t)}(z): product of the axis factors."""
    z1, z2 = z
    f1 = axis_factor(idx.j1, idx.m1, z1)
    if not f1:
        return f1
    return f1 * axis_factor(idx.j2, idx.m2, z2)


def _oracle_axis_factor(j: int, m: int, z: Fraction) -> Fraction:
    # Independent route: the antiderivative form of the factor.
    return _factor_at(_antiderivative_numerator, j, m, z)


# -- coefficients of the local discrepancy ------------------------------------


def mu_discrepancy(points: PointMultiset, idx: HaarIndex) -> Fraction:
    """Exact coefficient: counting average minus volume coefficient."""
    return _mu_from_factors(points, idx, _tent_numerator)


def oracle_mu(points: PointMultiset, idx: HaarIndex) -> Fraction:
    """Same value as :func:`mu_discrepancy` via the antiderivative route."""
    return _mu_from_factors(points, idx, _antiderivative_numerator)


def _mu_from_factors(points: PointMultiset, idx: HaarIndex, numerator) -> Fraction:
    # orbit sums of the factors at scale 2^res in _exact(2 res, N), which
    # bounds the sum of their products
    res = points.n_resolution
    ox, oy = points.axis_orbits(_exact(2 * res, len(points)))
    fx = reduce(np.add, (numerator(idx.j1, idx.m1, k, res) for k in ox))
    fy = reduce(np.add, (numerator(idx.j2, idx.m2, k, res) for k in oy))
    return _coefficients([int((fx * fy).sum())], _count_scale(points), idx.j1, idx.j2)[0]


# -- level-wise scans ---------------------------------------------------------
#
# On a fixed level every factor is num / 2^res with the integer num of
# _tents: num >= 0 on level -1 and num <= 0 on every other level. A position
# therefore receives contributions of one sign only, which makes "occupied"
# equivalent to "coefficient differs from the empty-box value", and a box
# sum of 0 equivalent to "no point contributes".
# The coordinate arrays are the base's folded orbits (see _level_row), in
# the base's dtype; each sum below casts to the dtype of its own bound.


def _group_sums(keys, *rows) -> Tuple[np.ndarray, ...]:
    """The keys of each run of equal keys, then each row's sums over those runs.

    keys must be non-decreasing, and every row as long.
    """
    if not keys.size:
        return (keys, *rows)
    starts = np.empty(len(keys), bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    cuts = np.flatnonzero(starts)
    return (keys[cuts], *(np.add.reduceat(row, cuts) for row in rows))


def _level_row(points: PointMultiset, j1: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions m1, y-coordinates and x-factors of one j1 row, sorted.

    Reads the M base points' axis orbits folded to their minimum,
    min(k, 2^res - k) on a reflected axis, in the base's dtype: every
    position, coordinate and factor is at most 2^res. Keeps only the points
    whose x-factor from _tents is nonzero, ordered by (m1, ky) with one
    stable argsort of the key (m1 << (res + 1)) + ky: ky <= 2^res and
    m1 < 2^(res - 1) on the rows that _scan_level reads, so the key is
    below 2^(2 res), in _exact(2 res, 1), and a temporary of the sort.
    Every j2 of the row then finds its box keys m1 * 2^j2 + (ky >> (res - j2))
    already non-decreasing. Only the latest row is cached, so memory stays O(M).
    """
    cached = points._cache.get("row")
    if cached is not None and cached[0] == j1:
        return cached[1]
    res = points.n_resolution
    kx, ky = (reduce(np.minimum, orbit) for orbit in points.axis_orbits())
    n1, m1 = _tents(kx, j1, res, points._reflected[0])
    keep = np.flatnonzero(n1 != 0)
    order = keep[np.argsort(
        (m1[keep].astype(_exact(2 * res, 1), copy=False) << (res + 1)) + ky[keep], kind="stable")]
    row = (m1[order], ky[order], n1[order])
    points._cache["row"] = (j1, row)
    return row


def _count_scale(points: PointMultiset) -> int:
    """The exponent at which a _scan_level sum / 2^scale is the counting average."""
    return 2 * points.n_resolution + _pow2_log(len(points))


def _scan_level(
    points: PointMultiset, j1: int, j2: int
) -> Tuple[np.ndarray, np.ndarray, Tuple[bool, bool]]:
    """Per-position sums of the signed factor products over the folded base.

    Returns ascending keys m1 * 2^max(j2, 0) + m2, the integer sums
    Sum_z f1 * f2 at scale 2^(2 res) over the rows of _level_row, with the
    mirror's factor of _tents on each reflected axis, and one flag per axis
    (x, y). A factor on level j is at most 2^(res - j+), j+ = max(j, 0), so
    the sums over the M base points take _exact(2 res - j1+ - j2+, M) and
    the keys, below 2^(j1+ + j2+), _exact(j1+ + j2+, 1), each level's own
    bound. Only positions with a nonzero contribution appear: the sorted
    row is grouped first and the zero sums are dropped after, as every
    nonzero product on a level has one sign. A folded coordinate is at most
    2^(res - 1), a box edge on every level j >= 1, so on a reflected axis
    above level 0 every key lies in the lower half of the level and its
    mirror box holds the same sum: that axis's flag. Interval interiors at
    or past the resolution are empty, so a level with such an axis returns
    empty arrays in the base's dtype without a scan.
    """
    if j1 < -1 or j2 < -1:
        raise ValueError("levels must be >= -1")
    res = points.n_resolution
    mirrored = (points._reflected[0] and j1 > 0, points._reflected[1] and j2 > 0)
    if j1 >= res or j2 >= res:
        empty = points._base[0][:0]
        return empty, empty, mirrored
    m1, ky, n1 = _level_row(points, j1)
    n2, m2 = _tents(ky, j2, res, points._reflected[1])
    j1p, j2p = max(j1, 0), max(j2, 0)
    wide = _exact(2 * res - j1p - j2p, len(points._base[0]))
    keys, sums = _group_sums((m1.astype(_exact(j1p + j2p, 1), copy=False) << j2p) + m2,
                             n1.astype(wide, copy=False) * n2)
    hit = sums != 0
    return keys[hit], sums[hit], mirrored


class LevelSummary:
    """Every coefficient on one level, from one _scan_level.

    keys, sums and mirrored are the scan's: ascending folded box keys
    m1 * 2^j2+ + m2, their integer sums and one mirror flag per axis. The
    box of a key, and its mirror on each flagged axis, holds the value
    sum / 2^scale - volume; every other box holds empty_value, -volume.
    Two views are built on their first read and kept: accs, the distinct
    sums ascending, with their box counts in counts; and occupied, the map
    from box (m1, m2) to its Fraction value.
    """

    def __init__(self, j1: int, j2: int, keys: np.ndarray, sums: np.ndarray,
                 mirrored: Tuple[bool, bool], scale: int):
        self.j1, self.j2, self.keys, self.sums, self.mirrored, self.scale = (
            j1, j2, keys, sums, mirrored, scale)
        self.box_count = 1 << (max(j1, 0) + max(j2, 0))
        self.occupied_boxes = len(sums) << sum(mirrored)
        self.empty_boxes = self.box_count - self.occupied_boxes

    def __getattr__(self, name: str):
        # reached only on a view's first read; cached_property would take a
        # lock on that read on Python 3.11
        if name in ("accs", "counts"):
            if self.sums.size:
                self.accs, self.counts = np.unique(self.sums, return_counts=True)
                self.counts <<= sum(self.mirrored)  # a flagged sum counts its mirror box too
            else:  # an empty scan skips np.unique
                self.accs, self.counts = self.sums, np.zeros(0, np.int64)
        elif name == "occupied":
            j2p = max(self.j2, 0)
            last1, last2 = (1 << max(self.j1, 0)) - 1, (1 << j2p) - 1
            boxes = zip((self.keys >> j2p).tolist(), (self.keys & last2).tolist())
            values = _coefficients(self.sums.tolist(), self.scale, self.j1, self.j2)
            occupied = self.occupied = dict(zip(boxes, values))
            if self.mirrored[0]:
                occupied.update({(last1 - m1, m2): v for (m1, m2), v in occupied.items()})
            if self.mirrored[1]:
                occupied.update({(m1, last2 - m2): v for (m1, m2), v in occupied.items()})
        else:
            raise AttributeError(name)
        return self.__dict__[name]

    @property
    def empty_value(self) -> Fraction:
        sign, exponent = _volume(self.j1, self.j2)
        return Fraction(-sign, 1 << exponent)

    def numerators(self) -> Tuple[List[int], List[int], int]:
        """Every distinct value of the level as an integer numerator over one 2^top.

        Returns (numerators, counts, top): the occupied values in the order
        of accs, then the empty value if a box is empty, and the box count
        of each as a Python int, as the empty count can outgrow int64.
        """
        shift, empty, top = _value_scale(self.j1, self.j2, self.scale)
        nums = [(acc << shift) + empty for acc in self.accs.tolist()]
        counts = self.counts.tolist()
        if self.empty_boxes:
            nums.append(empty)
            counts.append(self.empty_boxes)
        return nums, counts, top

    def numerator_array(self) -> Tuple[np.ndarray, List[int], int]:
        """numerators() with the numerators as one array.

        Each entry (acc << shift) + empty sums two terms no larger than the
        larger of |empty| and |acc| << shift, taken at the two ends of the
        ascending accs; the array takes _exact of that: int64, or object
        for Python ints.
        """
        shift, empty, top = _value_scale(self.j1, self.j2, self.scale)
        accs, counts = self.accs, self.counts.tolist()
        if self.empty_boxes:
            counts.append(self.empty_boxes)
        hi = max(abs(int(accs[0])), abs(int(accs[-1]))) if accs.size else 0
        nums = np.zeros(len(counts), _exact(max(hi << shift, abs(empty)).bit_length(), 2))
        nums[:accs.size] = accs
        nums <<= shift
        nums += empty
        return nums, counts, top

    @property
    def occupied_values(self) -> Tuple[Tuple[Fraction, int], ...]:
        """(value, box count) per distinct occupied value, ascending, built on each read."""
        nums, counts, top = self.numerators()
        return tuple((Fraction(num, 1 << top), count)
                     for num, count in zip(nums[:len(self.accs)], counts))


def level_value_counts(points: PointMultiset, j1: int, j2: int) -> LevelSummary:
    """The LevelSummary of one level, scanned afresh on each call.

    No summary is kept: a norm reads each level once, and only the latest
    sorted row of the scans stays in points._cache. mu_all_at_level is the same function.
    """
    return LevelSummary(j1, j2, *_scan_level(points, j1, j2), _count_scale(points))


mu_all_at_level = level_value_counts


# -- batch per-index tables ----------------------------------------------------
#
# Both grids return their values as one list in grid order: level pairs
# (j1, j2) lexicographic from -1, positions (m1, m2) row-major in a level.


def grid_indices(j_max: int) -> Iterator[HaarIndex]:
    """The HaarIndex of each grid entry, in grid order, built anew on each call.

    dict(zip(grid_indices(j_max), mu_grid(points, j_max))) is the grid by index.
    """
    levels = range(-1, j_max + 1)
    return (
        HaarIndex(j1, j2, m1, m2)
        for j1 in levels
        for j2 in levels
        for m1 in range(1 if j1 == -1 else 1 << j1)
        for m2 in range(1 if j2 == -1 else 1 << j2)
    )


def _level_rows(j: int) -> slice:
    """Rows of level j in a factor matrix: one for level -1, then 2^j per level."""
    return slice(0, 1) if j == -1 else slice(1 << j, 2 << j)


def _factor_matrix(orbit, j_max: int, res: int) -> np.ndarray:
    """Antiderivative factors times 2^res, one row per (j, m), one column per base point.

    Each level's block is the orbit sum of _antiderivative_numerator over a
    column of its positions and the rows of the axis orbit, in their dtype.
    """
    blocks = []
    for j in range(-1, j_max + 1):
        m = np.arange(1 if j == -1 else 1 << j, dtype=orbit[0].dtype)[:, None]
        block = reduce(np.add, (_antiderivative_numerator(j, m, k, res) for k in orbit))
        blocks.append(np.broadcast_to(block, (len(m), len(orbit[0]))))
    return np.concatenate(blocks)


def mu_grid(points: PointMultiset, j_max: int) -> List[Fraction]:
    """mu_discrepancy for every index with levels in [-1, j_max], in grid order."""
    values: List[Fraction] = []
    for j1 in range(-1, j_max + 1):
        for j2 in range(-1, j_max + 1):
            level = mu_all_at_level(points, j1, j2)
            row = [level.empty_value] * level.box_count
            for (m1, m2), value in level.occupied.items():
                row[(m1 << max(j2, 0)) + m2] = value
            values += row
    return values


def oracle_mu_grid(points: PointMultiset, j_max: int) -> List[Fraction]:
    """oracle_mu for every index with levels in [-1, j_max], in grid order.

    Multiplies two antiderivative factor matrices of orbit sums, in
    _exact(2 res, N), independent of the level scans behind :func:`mu_grid`.
    """
    scale = _count_scale(points)
    res = points.n_resolution
    ox, oy = points.axis_orbits(_exact(2 * res, len(points)))
    sums = _factor_matrix(ox, j_max, res) @ _factor_matrix(oy, j_max, res).T
    values: List[Fraction] = []
    for j1 in range(-1, j_max + 1):
        for j2 in range(-1, j_max + 1):
            block = sums[_level_rows(j1), _level_rows(j2)].ravel().tolist()
            values += _coefficients(block, scale, j1, j2)
    return values


# -- predicted coefficients -----------------------------------------------------

EXACT_VALUE = "exact-value"
EXACT_ABS = "exact-abs"
ABS_UPPER_BOUND = "abs-upper-bound"


@dataclass(frozen=True)
class CoefficientPrediction:
    """Either an exact value, an exact magnitude, or a magnitude bound."""

    kind: str
    value: Fraction

    def __post_init__(self):
        if self.kind not in (EXACT_VALUE, EXACT_ABS, ABS_UPPER_BOUND):
            raise ValueError(f"unknown prediction kind {self.kind!r}")
        if self.kind != EXACT_VALUE and self.value < 0:
            raise ValueError("magnitude predictions must be nonnegative")

    def check(self, mu: Fraction) -> bool:
        if self.kind == EXACT_VALUE:
            return mu == self.value
        if self.kind == EXACT_ABS:
            return abs(mu) == self.value
        return abs(mu) <= self.value


def low_level_sign(sigma: SignPattern, j1: int, j2: int) -> int:
    """Sign of the low-level coefficients of the fully symmetrized set.

    On levels with j1 + j2 < n - 1 the coefficient magnitude is constant and
    the sign compares the flip of the lowest digit the second axis reads
    (position j2 + 1) with the flip of the highest digit the first axis
    reads (position n - j1): equal flips give +1, unequal give -1. Verified
    exhaustively over all sign patterns up to n = 7.
    """
    n, j1, j2 = sigma.n, operator.index(j1), operator.index(j2)
    if not (0 <= j1 and 0 <= j2 and j1 + j2 < n - 1):
        raise ValueError("sign law applies to j1, j2 >= 0 with j1 + j2 < n - 1")
    return 1 if sigma.flips[j2] == sigma.flips[n - j1 - 1] else -1


def _symmetrized_prediction(n: int, j1: int, j2: int,
                            sigma: Optional[SignPattern]) -> Tuple[str, int, int]:
    """predict_symmetrized on level (j1, j2) as (kind, numerator, exponent).

    The value is numerator / 2^exponent; n and sigma are taken as checked.
    """
    if j1 >= 0 and j2 >= 0:
        if j1 >= n or j2 >= n:
            return EXACT_ABS, 1, 2 * (j1 + j2 + 2)
        if j1 + j2 < n - 1:
            return (EXACT_ABS, 1, 2 * (n + 1)) if sigma is None else (
                EXACT_VALUE, low_level_sign(sigma, j1, j2), 2 * (n + 1))
        return ABS_UPPER_BOUND, 1, n + j1 + j2
    k = max(j1, j2)  # the level that is not -1, or -1 at the constant index
    if k < n:
        return EXACT_VALUE, 0, 0
    return EXACT_ABS, 1, 2 * k + 3


def _davenport_prediction(n: int, sigma: SignPattern, k: int) -> Tuple[str, int, int]:
    """predict_davenport on level (-1, k), -1 <= k < n, as (kind, numerator, exponent).

    The value is numerator / 2^exponent; on a row k >= 0 the two terms
    -2^-(n+2k+3) and t_k 2^-(2n+2) share the exponent 2n + 2k + 3.
    """
    if k == -1:
        return EXACT_VALUE, 1, n + 2
    t_k = -1 if sigma.flips[k] else 1
    return EXACT_VALUE, (t_k << (2 * k + 1)) - (1 << n), 2 * n + 2 * k + 3


def predict_symmetrized(
    n: int, idx: HaarIndex, sigma: Optional[SignPattern] = None
) -> CoefficientPrediction:
    """Coefficient classification for the fully symmetrized set of order n.

    Constant magnitude 2^-2(n+1) on low levels (exact signed value when the
    sign pattern is supplied, via :func:`low_level_sign`), a magnitude bound
    on the diagonal band, exact magnitudes once a level reaches n, exact
    zero on the mixed rows below n and at the constant index.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be positive")
    if sigma is not None and sigma.n != n:
        raise ValueError(f"sign pattern has length {sigma.n}, expected {n}")
    return _prediction(*_symmetrized_prediction(n, idx.j1, idx.j2, sigma))


def predict_davenport(n: int, sigma: SignPattern, idx: HaarIndex) -> CoefficientPrediction:
    """Exact coefficients of the single-axis symmetrization on (-1, *) rows.

    Covers the constant index and the rows (-1, k) with k < n, where the
    sign of the correction term follows the k+1-st digit choice.
    """
    n = operator.index(n)
    if sigma.n != n:
        raise ValueError(f"sign pattern has length {sigma.n}, expected {n}")
    if idx.j1 != -1 or idx.j2 >= n:
        raise ValueError(f"no closed form for index {idx} of the symmetrized pair")
    return _prediction(*_davenport_prediction(n, sigma, idx.j2))


def _prediction(kind: str, numerator: int, exponent: int) -> CoefficientPrediction:
    """The CoefficientPrediction of a (kind, numerator, exponent) triple."""
    return CoefficientPrediction(kind, Fraction(numerator, 1 << exponent))


# -- counting-sum identities ------------------------------------------------


def level_counting_sums(points: PointMultiset, j1: int, j2: int):
    """Integer tent sums for every box of one level, batched.

    Returns three (keys, sums) array pairs: the x-sums scaled by
    2^(res-j1-1), the y-sums scaled by 2^(res-j2-1), and the product sums
    scaled by the product of the two. The three share one key array: the
    ascending keys m1 * 2^j2 + m2 of the boxes that hold a point with both
    coordinates below 1, grouped from the j1 row of _counting_row, sorted
    once for every j2. A box whose points all sit on tent edges is listed
    with sum 0. A tent is zero off the open interval, so each sum gates its
    own coordinates strictly and the others by the half-open box, as
    counting_sums describes. Levels must lie in [0, resolution].
    """
    keys, sums_x, sums_y, sums_xy = _signed_counting_sums(points, j1, j2)
    # the unsigned tents are the negated signed ones, and their product is the same
    return (keys, -sums_x), (keys, -sums_y), (keys, sums_xy)


def _signed_counting_sums(points: PointMultiset, j1: int, j2: int) -> Tuple[np.ndarray, ...]:
    """level_counting_sums as (keys, x-sums, y-sums, product sums), on the signed tents.

    The single-axis sums are those of _tents, the negated unsigned ones;
    each row is grouped once, with no stacked or negated copy of the row.
    """
    res = points.n_resolution
    if not (0 <= j1 <= res and 0 <= j2 <= res):
        raise ValueError(f"box levels must lie in [0, {res}]")
    m1, ky, nx = _counting_row(points, j1)
    ny, m2 = _tents(ky, j2, res)
    return _group_sums((m1 << j2) + m2, nx, ny, nx * ny)


def _counting_row(points: PointMultiset, j1: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions m1, y-coordinates and signed x-tents of one j1 row of the union, sorted.

    Takes every point of the union with both coordinates below 1, cast to
    _exact(2 res, N), the bound of the tent products and their box sums,
    and orders them by (m1, ky) with one stable argsort of the key
    (m1 << res) + ky: ky < 2^res and m1 < 2^res, so the key is below
    2^(2 res), in the same dtype. Every j2 of the row then finds its box
    keys m1 * 2^j2 + (ky >> (res - j2)) already non-decreasing. As in
    _level_row, only the latest row is cached, so memory stays O(N).
    """
    cached = points._cache.get("counting_row")
    if cached is not None and cached[0] == j1:
        return cached[1]
    res = points.n_resolution
    kx, ky = (k.astype(_exact(2 * res, len(points)), copy=False) for k in points.scaled_coords())
    inside = (kx < 1 << res) & (ky < 1 << res)  # coordinate 1 lies in no half-open box
    kx, ky = kx[inside], ky[inside]
    nx, m1 = _tents(kx, j1, res)
    order = np.argsort((m1 << res) + ky, kind="stable")
    row = (m1[order], ky[order], nx[order])
    points._cache["counting_row"] = (j1, row)
    return row


def counting_sums(
    points: PointMultiset, j1: int, j2: int, m1: int, m2: int
) -> Tuple[Fraction, Fraction, Fraction]:
    """Tent sums over the points of one dyadic box.

    Returns the two single-axis sums and the product sum of the unnormalized
    tents 1 - |2 m + 1 - 2^(j+1) z|. A point enters a single-axis sum when
    its tent coordinate is strictly interior and the other coordinate lies
    in the half-open interval of the box; the product sum needs both tent
    coordinates strictly interior (where its factors are nonzero anyway).
    """
    if j1 < 0 or j2 < 0:
        raise ValueError("box levels must be nonnegative")
    idx = HaarIndex(j1, j2, m1, m2)  # raises for a position outside its level
    j1, j2, m1, m2 = idx.j1, idx.j2, idx.m1, idx.m2  # numpy integers as ints
    res = points.n_resolution
    # beyond the resolution no tent is interior, and box m holds the grid
    # points of box m >> (j - res) at level res when 2^(j - res) divides m
    l1, l2 = min(j1, res), min(j2, res)
    s1, s2 = j1 - l1, j2 - l2
    zeros = (Fraction(0),) * 3
    if m1 % (1 << s1) or m2 % (1 << s2):
        return zeros
    key = ((m1 >> s1) << l2) + (m2 >> s2)
    pairs = level_counting_sums(points, l1, l2)
    keys = pairs[0][0]
    i = int(np.searchsorted(keys, key))
    if i == len(keys) or keys[i] != key:
        return zeros
    # e < 0 only where a level is res, and every sum there is 0
    scales = (Fraction(2) ** e for e in (res - l1 - 1, res - l2 - 1, 2 * res - l1 - l2 - 2))
    return tuple(int(sums[i]) / scale for (_, sums), scale in zip(pairs, scales))
