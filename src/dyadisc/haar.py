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
Both give integer numerators at the scale 2^res of the point grid, so the
per-index routes and the coefficient grids sum plain integers and build
exact DyadicRational values only when they return.

Level scans work on integer numerators at the fixed scale 2^(2 res). Each
coefficient depends only on the points inside its box, so the points of a
j1 row are sorted once by (m1, y) and every j2 of that row groups them
without sorting again. Level summaries keep the distinct numerators and
their counts; DyadicRational values are built only when a caller reads
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from .dyadic import DyadicRational, ZERO, dyadic
from .pointsets import PointMultiset, SignPattern, _as_dyadic, _pow2_log

__all__ = [
    "HaarIndex",
    "CoefficientPrediction",
    "LevelCoefficients",
    "LevelSummary",
    "haar_eval",
    "mu_volume",
    "axis_factor",
    "mu_point",
    "mu_discrepancy",
    "oracle_mu",
    "mu_all_at_level",
    "level_value_counts",
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
        for j, m in ((self.j1, self.m1), (self.j2, self.m2)):
            if j < -1:
                raise ValueError(f"level {j} below -1")
            limit = 1 if j == -1 else 1 << j
            if not 0 <= m < limit:
                raise ValueError(f"position {m} out of range for level {j}")

    @property
    def levels(self) -> Tuple[int, int]:
        return (self.j1, self.j2)


# -- pointwise evaluation ----------------------------------------------------


def _axis_eval(j: int, m: int, t) -> int:
    if j == -1:
        return 1
    # sign on the two halves of [m 2^-j, (m+1) 2^-j)
    scaled = t.scale_pow2(j + 1)
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


def mu_volume(idx: HaarIndex) -> DyadicRational:
    """Haar coefficient of f(t) = t1 * t2."""
    return dyadic(*_volume(idx.j1, idx.j2))


def _value_scale(j1: int, j2: int, scale: int, exponent: int = 0) -> Tuple[int, int, int]:
    """One power of two for the values acc / 2^scale minus the volume term.

    Returns (shift, empty, top): the value of a level sum acc is
    ((acc << shift) + empty) / 2^top, and empty / 2^top is the value of
    a box no point hits. top is at least exponent, so a caller can bring
    one more value to the common scale.
    """
    sign, vol_exponent = _volume(j1, j2)
    top = max(scale, vol_exponent, exponent)
    return top - scale, -sign << (top - vol_exponent), top


def _coefficients(accs: List[int], scale: int, j1: int, j2: int) -> List[DyadicRational]:
    """acc / 2^scale minus the volume coefficient, for each acc of one level.

    One DyadicRational is built per distinct acc.
    """
    shift, empty, top = _value_scale(j1, j2, scale)
    values = {acc: dyadic((acc << shift) + empty, top) for acc in set(accs)}
    return [values[acc] for acc in accs]


# -- per-point counting factors ----------------------------------------------
#
# The factor of a point z = k / 2^res is the integral of h_{j,m} over
# [z, 1]. Both forms below return it times 2^res, an integer: 2^res - k on
# level -1, and 0 on every level j >= res, whose open intervals hold no
# grid point. They differ on the levels 0 <= j < res. The closed form,
# _tents, also drives every level scan.


def _tents(k, j: int, res: int):
    """Signed factor numerators and positions of the grid points k on level j.

    k is an int or an array. On level -1 the numerator is 2^res - k at
    position 0. On 0 <= j <= res it is the closed tent
    |k mod 2^(res-j) - half| - half with half = 2^(res-j-1), zero on the
    interval endpoints (everywhere at j = res), at position k >> (res - j).
    Past res it is 0.
    """
    if j == -1:
        return (1 << res) - k, k * 0
    if j > res:
        return k * 0, k * 0
    per = 1 << (res - j)
    half = per >> 1
    return abs((k & (per - 1)) - half) - half, k >> (res - j)


def _tent_numerator(j: int, m: int, k: int, res: int) -> int:
    """Closed tent form: the numerator of _tents where its position is m."""
    tent, position = _tents(k, j, res)
    return tent if position == m else 0


def _antiderivative_numerator(j: int, m: int, k: int, res: int) -> int:
    """H(1) - H(z) for H(u) = int_0^u h_{j,m}: minus the height of H at z.

    H rises from 0 at the left end of the interval to its midpoint, falls
    back to 0 at the right end and is 0 elsewhere, so the height is
    max(0, min(k - left, right - k)) at scale 2^res.
    """
    if j == -1:
        return (1 << res) - k
    if j >= res:
        return 0
    left = m << (res - j)
    return -max(0, min(k - left, left + (1 << (res - j)) - k))


def _factor_at(numerator, j: int, m: int, z: DyadicRational) -> DyadicRational:
    """A factor form at any dyadic z, on the grid of z's own exponent."""
    res = max(z.exponent, 0)
    return dyadic(numerator(j, m, z.mantissa << (res - z.exponent), res), res)


def axis_factor(j: int, m: int, z) -> DyadicRational:
    """Integral of the level-(j, m) Haar function over [z, 1], closed form.

    For j >= 0 the value is a downward tent on the open interval of the
    position and exactly zero outside (including both endpoints); for the
    level -1 indicator it is 1 - z for every z in [0, 1].
    """
    if j != -1 and not 0 <= m < 1 << j:
        raise ValueError(f"position {m} out of range for level {j}")
    return _factor_at(_tent_numerator, j, m, _as_dyadic(z))


def mu_point(idx: HaarIndex, z) -> DyadicRational:
    """Haar coefficient of t -> 1_{[0, t)}(z): product of the axis factors."""
    z1, z2 = z
    f1 = axis_factor(idx.j1, idx.m1, z1)
    if not f1:
        return ZERO
    return f1 * axis_factor(idx.j2, idx.m2, z2)


def _oracle_axis_factor(j: int, m: int, z: DyadicRational) -> DyadicRational:
    # Independent route: the antiderivative form of the factor.
    return _factor_at(_antiderivative_numerator, j, m, z)


# -- coefficients of the local discrepancy ------------------------------------


def mu_discrepancy(points: PointMultiset, idx: HaarIndex) -> DyadicRational:
    """Exact coefficient: counting average minus volume coefficient."""
    return _mu_from_factors(points, idx, _tent_numerator)


def oracle_mu(points: PointMultiset, idx: HaarIndex) -> DyadicRational:
    """Same value as :func:`mu_discrepancy` via the antiderivative route."""
    return _mu_from_factors(points, idx, _antiderivative_numerator)


def _mu_from_factors(points: PointMultiset, idx: HaarIndex, numerator) -> DyadicRational:
    n = len(points)
    if n == 0:
        raise ValueError("empty point multiset")
    nu = _pow2_log(n)
    res = points.n_resolution
    kx, ky = (arr.tolist() for arr in points.scaled_coords())
    j1, m1, j2, m2 = idx.j1, idx.m1, idx.j2, idx.m2
    total = 0  # sum of factor products at scale 2^(2 res)
    for x, y in zip(kx, ky):
        a = numerator(j1, m1, x, res)
        if a:
            total += a * numerator(j2, m2, y, res)
    return _coefficients([total], 2 * res + nu, j1, j2)[0]


# -- level-wise scans ---------------------------------------------------------
#
# On a fixed level every factor is num / 2^res with the integer num of
# _tents: num >= 0 on level -1 and num <= 0 on every other level. A position
# therefore receives contributions of one sign only, which makes "occupied"
# equivalent to "coefficient differs from the empty-box value".
# The coordinate arrays come from PointMultiset.scaled_coords(), whose dtype
# (int64 or exact Python ints) bounds every product sum below.


def _group_sums(keys, vals) -> Tuple[np.ndarray, np.ndarray]:
    """Sums of vals per run of equal keys; keys must be non-decreasing."""
    if not keys.size:
        return keys, vals
    cuts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[cuts], np.add.reduceat(vals, cuts)


def _box_sums(m1, m2, width2: int, vals, mask) -> Tuple[np.ndarray, np.ndarray]:
    """Sums of vals[mask] per box key m1 * width2 + m2, keys ascending."""
    keys = m1[mask] * width2 + m2[mask]
    order = np.argsort(keys, kind="stable")
    return _group_sums(keys[order], vals[mask][order])


def _level_row(points: PointMultiset, j1: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions m1, y-coordinates and x-factors of one j1 row, sorted.

    Keeps only the points whose x-factor from _tents is nonzero, ordered by
    (m1, ky). Every j2 of the row then finds its box keys
    m1 * 2^j2 + (ky >> (res - j2)) already non-decreasing. Only the latest
    row is cached, so memory stays O(N).
    """
    cached = points._cache.get("row")
    if cached is not None and cached[0] == j1:
        return cached[1]
    res = points.n_resolution
    kx, ky = points.scaled_coords()
    n1, m1 = _tents(kx, j1, res)
    keep = np.flatnonzero(n1 != 0)
    order = keep[np.lexsort((ky[keep], m1[keep]))]
    row = (m1[order], ky[order], n1[order])
    points._cache["row"] = (j1, row)
    return row


def _scan_level(points: PointMultiset, j1: int, j2: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """Per-position sums of the signed factor products, and their scale.

    Returns ascending keys m1 * 2^max(j2, 0) + m2, the integer sums
    Sum_z f1 * f2 and the exponent scale at which sum / 2^scale is the
    counting average; only positions with at least one nonzero
    contribution appear.
    """
    n = len(points)
    if n == 0:
        raise ValueError("empty point multiset")
    if j1 < -1 or j2 < -1:
        raise ValueError("levels must be >= -1")
    res = points.n_resolution
    scale = 2 * res + _pow2_log(n)
    if j1 >= res or j2 >= res:
        empty = points.scaled_coords()[0][:0]
        return empty, empty, scale  # interval interiors at or beyond the resolution are empty
    m1, ky, n1 = _level_row(points, j1)
    n2, m2 = _tents(ky, j2, res)
    hit = n2 != 0
    keys, sums = _group_sums(((m1 << max(j2, 0)) + m2)[hit], n1[hit] * n2[hit])
    return keys, sums, scale


@dataclass(frozen=True)
class LevelCoefficients:
    """All coefficients on one level: sparse map plus shared empty value."""

    j1: int
    j2: int
    occupied: Dict[Tuple[int, int], DyadicRational]
    empty_value: DyadicRational
    box_count: int


@dataclass(frozen=True, eq=False)
class LevelSummary:
    """Value multiplicities on one level, for norm assembly and checks.

    The occupied boxes hold the exact values acc / 2^scale - volume, one
    for each integer numerator in the ascending array accs, each shared by
    the matching entry of counts; every other box holds -volume. Exact
    values are built as DyadicRational only when occupied_values is read.
    """

    j1: int
    j2: int
    accs: np.ndarray
    counts: np.ndarray
    scale: int
    occupied_boxes: int
    empty_boxes: int

    @property
    def empty_value(self) -> DyadicRational:
        return -dyadic(*_volume(self.j1, self.j2))

    def numerators(self, exponent: int = 0) -> Tuple[List[int], int, int]:
        """Occupied and empty values as integer numerators over one 2^top.

        Returns (occupied, empty, top), the occupied numerators in the order
        of accs; top is at least exponent (see _value_scale).
        """
        shift, empty, top = _value_scale(self.j1, self.j2, self.scale, exponent)
        return [(acc << shift) + empty for acc in self.accs.tolist()], empty, top

    @cached_property
    def occupied_values(self) -> Tuple[Tuple[DyadicRational, int], ...]:
        """(value, multiplicity) per distinct occupied value, ascending."""
        values = _coefficients(self.accs.tolist(), self.scale, self.j1, self.j2)
        return tuple(zip(values, self.counts.tolist()))


def mu_all_at_level(points: PointMultiset, j1: int, j2: int) -> LevelCoefficients:
    """Every coefficient on the level, sparsely.

    Positions missed by all points share the value -mu_volume; positions in
    the map carry their individually accumulated exact coefficient.
    """
    keys, sums, scale = _scan_level(points, j1, j2)
    width2 = 1 << max(j2, 0)
    values = _coefficients(sums.tolist(), scale, j1, j2)
    occupied = {divmod(key, width2): value for key, value in zip(keys.tolist(), values)}
    empty = -dyadic(*_volume(j1, j2))
    return LevelCoefficients(j1, j2, occupied, empty, 1 << (max(j1, 0) + max(j2, 0)))


def level_value_counts(points: PointMultiset, j1: int, j2: int) -> LevelSummary:
    """Grouped coefficient values on the level, memoized per multiset."""
    cached = points._cache.get(("level", j1, j2))
    if cached is not None:
        return cached
    _, sums, scale = _scan_level(points, j1, j2)
    accs, counts = np.unique(sums, return_counts=True)
    occupied = int(counts.sum())
    summary = LevelSummary(
        j1, j2, accs, counts, scale, occupied, (1 << (max(j1, 0) + max(j2, 0))) - occupied
    )
    points._cache[("level", j1, j2)] = summary
    return summary


# -- batch per-index tables ----------------------------------------------------
#
# Both grids list their values level pair by level pair, positions in
# row-major order, and zip them with one shared table of keys.


@lru_cache(maxsize=4)
def _grid_indices(j_max: int) -> Tuple[HaarIndex, ...]:
    """Every index with levels in [-1, j_max], in grid order."""
    levels = range(-1, j_max + 1)
    return tuple(
        HaarIndex(j1, j2, m1, m2)
        for j1 in levels
        for j2 in levels
        for m1 in range(1 if j1 == -1 else 1 << j1)
        for m2 in range(1 if j2 == -1 else 1 << j2)
    )


def _level_rows(j: int) -> slice:
    """Rows of level j in a factor matrix: one for level -1, then 2^j per level."""
    return slice(0, 1) if j == -1 else slice(1 << j, 2 << j)


def _factor_matrix(ks: np.ndarray, j_max: int, res: int) -> np.ndarray:
    """Antiderivative factors times 2^res, one row per (j, m), one column per point.

    Row (j, m) is -max(0, min(k - left, right - k)) over the interval
    [left, right) of the position at scale 2^res; the level -1 row is
    2^res - k and rows with j >= res are zero. The dtype is that of ks.
    """
    rows = [((1 << res) - ks)[None, :]]
    for j in range(j_max + 1):
        if j >= res:
            rows.append(np.zeros((1 << j, len(ks)), dtype=ks.dtype))
            continue
        left = (np.arange(1 << j, dtype=ks.dtype) << (res - j))[:, None]
        rows.append(-np.maximum(0, np.minimum(ks - left, left + (1 << (res - j)) - ks)))
    return np.concatenate(rows)


def mu_grid(points: PointMultiset, j_max: int) -> Dict[HaarIndex, DyadicRational]:
    """mu_discrepancy for every index with levels in [-1, j_max], batched."""
    values: List[DyadicRational] = []
    for j1 in range(-1, j_max + 1):
        for j2 in range(-1, j_max + 1):
            level = mu_all_at_level(points, j1, j2)
            width2 = 1 if j2 == -1 else 1 << j2
            row = [level.empty_value] * level.box_count
            for (m1, m2), value in level.occupied.items():
                row[m1 * width2 + m2] = value
            values += row
    return dict(zip(_grid_indices(j_max), values))


def oracle_mu_grid(points: PointMultiset, j_max: int) -> Dict[HaarIndex, DyadicRational]:
    """oracle_mu for every index with levels in [-1, j_max], batched.

    Multiplies two antiderivative factor matrices, in the dtype that
    PointMultiset.scaled_coords() holds, independent of the level scans
    behind :func:`mu_grid`.
    """
    nu = _pow2_log(len(points))
    res = points.n_resolution
    kx, ky = points.scaled_coords()
    sums = _factor_matrix(kx, j_max, res) @ _factor_matrix(ky, j_max, res).T
    values: List[DyadicRational] = []
    for j1 in range(-1, j_max + 1):
        for j2 in range(-1, j_max + 1):
            block = sums[_level_rows(j1), _level_rows(j2)].ravel().tolist()
            values += _coefficients(block, 2 * res + nu, j1, j2)
    return dict(zip(_grid_indices(j_max), values))


# -- predicted coefficients -----------------------------------------------------

EXACT_VALUE = "exact-value"
EXACT_ABS = "exact-abs"
ABS_UPPER_BOUND = "abs-upper-bound"


@dataclass(frozen=True)
class CoefficientPrediction:
    """Either an exact value, an exact magnitude, or a magnitude bound."""

    kind: str
    value: DyadicRational

    def __post_init__(self):
        if self.kind not in (EXACT_VALUE, EXACT_ABS, ABS_UPPER_BOUND):
            raise ValueError(f"unknown prediction kind {self.kind!r}")
        if self.kind != EXACT_VALUE and self.value < 0:
            raise ValueError("magnitude predictions must be nonnegative")

    def check(self, mu: DyadicRational) -> bool:
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
    n = sigma.n
    if not (0 <= j1 and 0 <= j2 and j1 + j2 < n - 1):
        raise ValueError("sign law applies to j1, j2 >= 0 with j1 + j2 < n - 1")
    return 1 if sigma.flips[j2] == sigma.flips[n - j1 - 1] else -1


def predict_symmetrized(
    n: int, idx: HaarIndex, sigma: Optional[SignPattern] = None
) -> CoefficientPrediction:
    """Coefficient classification for the fully symmetrized set of order n.

    Constant magnitude 2^-2(n+1) on low levels (exact signed value when the
    sign pattern is supplied, via :func:`low_level_sign`), a magnitude bound
    on the diagonal band, exact magnitudes once a level reaches n, exact
    zero on the mixed rows below n and at the constant index.
    """
    if n < 1:
        raise ValueError("n must be positive")
    j1, j2 = idx.j1, idx.j2
    if j1 >= 0 and j2 >= 0:
        if j1 >= n or j2 >= n:
            return CoefficientPrediction(EXACT_ABS, dyadic(1, 2 * (j1 + j2 + 2)))
        if j1 + j2 < n - 1:
            if sigma is None:
                return CoefficientPrediction(EXACT_ABS, dyadic(1, 2 * (n + 1)))
            return CoefficientPrediction(
                EXACT_VALUE, dyadic(low_level_sign(sigma, j1, j2), 2 * (n + 1))
            )
        return CoefficientPrediction(ABS_UPPER_BOUND, dyadic(1, n + j1 + j2))
    if j1 == -1 and j2 == -1:
        return CoefficientPrediction(EXACT_VALUE, ZERO)
    k = j2 if j1 == -1 else j1
    if k < n:
        return CoefficientPrediction(EXACT_VALUE, ZERO)
    return CoefficientPrediction(EXACT_ABS, dyadic(1, 2 * k + 3))


def predict_davenport(n: int, sigma: SignPattern, idx: HaarIndex) -> CoefficientPrediction:
    """Exact coefficients of the single-axis symmetrization on (-1, *) rows.

    Covers the constant index and the rows (-1, k) with k < n, where the
    sign of the correction term follows the k+1-st digit choice.
    """
    if sigma.n != n:
        raise ValueError(f"sign pattern has length {sigma.n}, expected {n}")
    if idx.j1 == -1 and idx.j2 == -1:
        return CoefficientPrediction(EXACT_VALUE, dyadic(1, n + 2))
    if idx.j1 == -1 and 0 <= idx.j2 < n:
        k = idx.j2
        t_k = -1 if sigma.flips[k] else 1
        return CoefficientPrediction(
            EXACT_VALUE, dyadic(-1, n + 2 * k + 3) + dyadic(t_k, 2 * n + 2)
        )
    raise ValueError(f"no closed form for index {idx} of the symmetrized pair")


# -- counting-sum identities ------------------------------------------------


def level_counting_sums(points: PointMultiset, j1: int, j2: int):
    """Integer tent sums for every box of one level, batched.

    Returns three (keys, sums) array pairs with ascending keys
    m1 * 2^j2 + m2: the x-sums scaled by 2^(res-j1-1), the y-sums scaled
    by 2^(res-j2-1), and the product sums scaled by the product of the two.
    Membership is per axis: a single-axis sum gates its own coordinate
    strictly and the other by the half-open box; the product needs both
    strict. Levels must lie in [0, resolution].
    """
    res = points.n_resolution
    if not (0 <= j1 <= res and 0 <= j2 <= res):
        raise ValueError(f"box levels must lie in [0, {res}]")
    kx, ky = points.scaled_coords()
    nx, m1 = _tents(kx, j1, res)
    ny, m2 = _tents(ky, j2, res)
    nx, ny = -nx, -ny  # the unsigned tents
    width2 = 1 << j2
    return (
        _box_sums(m1, m2, width2, nx, (nx != 0) & (m2 < width2)),
        _box_sums(m1, m2, width2, ny, (ny != 0) & (m1 < (1 << j1))),
        _box_sums(m1, m2, width2, nx * ny, (nx != 0) & (ny != 0)),
    )


def counting_sums(
    points: PointMultiset, j1: int, j2: int, m1: int, m2: int
) -> Tuple[DyadicRational, DyadicRational, DyadicRational]:
    """Tent sums over the points of one dyadic box.

    Returns the two single-axis sums and the product sum of the unnormalized
    tents 1 - |2 m + 1 - 2^(j+1) z|. A point enters a single-axis sum when
    its tent coordinate is strictly interior and the other coordinate lies
    in the half-open interval of the box; the product sum needs both tent
    coordinates strictly interior (where its factors are nonzero anyway).
    """
    if j1 < 0 or j2 < 0:
        raise ValueError("box levels must be nonnegative")
    res = points.n_resolution
    # beyond the resolution no tent is interior, and box m holds the grid
    # points of box m >> (j - res) at level res when 2^(j - res) divides m
    l1, l2 = min(j1, res), min(j2, res)
    s1, s2 = j1 - l1, j2 - l2
    if not (0 <= m1 < 1 << j1 and 0 <= m2 < 1 << j2) or m1 % (1 << s1) or m2 % (1 << s2):
        return ZERO, ZERO, ZERO
    key = ((m1 >> s1) << l2) + (m2 >> s2)
    exponents = (res - l1 - 1, res - l2 - 1, 2 * res - l1 - l2 - 2)
    out = []
    for (keys, sums), exponent in zip(level_counting_sums(points, l1, l2), exponents):
        i = int(np.searchsorted(keys, key))
        hit = i < len(keys) and keys[i] == key
        out.append(dyadic(int(sums[i]), exponent) if hit else ZERO)
    return tuple(out)
