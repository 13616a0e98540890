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
All values are exact dyadic rationals.

Level scans work on integer numerators at the fixed scale 2^(2 res). Each
coefficient depends only on the points inside its box, so the points of a
j1 row are sorted once by (m1, y) and every j2 of that row groups them
without sorting again. Level summaries keep the distinct numerators and
their counts; DyadicRational values are built only when a caller reads
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .dyadic import DyadicRational, ONE, ZERO, dyadic
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


def _volume_axis(j: int) -> DyadicRational:
    # integral of t * h_{j,m}(t); independent of m
    if j == -1:
        return dyadic(1, 1)
    return dyadic(-1, 2 * j + 2)


def mu_volume(idx: HaarIndex) -> DyadicRational:
    """Haar coefficient of f(t) = t1 * t2."""
    return _volume_axis(idx.j1) * _volume_axis(idx.j2)


# -- per-point counting factors ----------------------------------------------


def axis_factor(j: int, m: int, z) -> DyadicRational:
    """Integral of the level-(j, m) Haar function over [z, 1], closed form.

    For j >= 0 the value is a downward tent on the open interval of the
    position and exactly zero outside (including both endpoints); for the
    level -1 indicator it is 1 - z for every z in [0, 1].
    """
    z = _as_dyadic(z)
    if j == -1:
        return ONE - z
    limit = 1 if j == -1 else 1 << j
    if not 0 <= m < limit:
        raise ValueError(f"position {m} out of range for level {j}")
    u = z.scale_pow2(j + 1)  # z in units of half-intervals
    lo, hi = 2 * m, 2 * m + 2
    if u <= lo or u >= hi:
        return ZERO
    tent = ONE - abs(dyadic(2 * m + 1) - u)
    return tent.scale_pow2(-(j + 1)) * -1


def mu_point(idx: HaarIndex, z) -> DyadicRational:
    """Haar coefficient of t -> 1_{[0, t)}(z): product of the axis factors."""
    z1, z2 = z
    f1 = axis_factor(idx.j1, idx.m1, z1)
    if not f1:
        return ZERO
    return f1 * axis_factor(idx.j2, idx.m2, z2)


def _oracle_axis_factor(j: int, m: int, z: DyadicRational) -> DyadicRational:
    # Independent route: H(u) = int_0^u h_{j,m}; factor = H(1) - H(z).
    if j == -1:
        return ONE - z
    left = dyadic(m, j)
    mid = dyadic(2 * m + 1, j + 1)
    right = dyadic(m + 1, j)
    if z <= left or z >= right:
        height = ZERO
    elif z <= mid:
        height = z - left
    else:
        height = right - z
    return -height  # H(1) = 0 at every level j >= 0


# -- coefficients of the local discrepancy ------------------------------------


def mu_discrepancy(points: PointMultiset, idx: HaarIndex) -> DyadicRational:
    """Exact coefficient: counting average minus volume coefficient."""
    return _mu_from_factors(points, idx, axis_factor)


def oracle_mu(points: PointMultiset, idx: HaarIndex) -> DyadicRational:
    """Same value as :func:`mu_discrepancy` via the antiderivative route."""
    return _mu_from_factors(points, idx, _oracle_axis_factor)


def _mu_from_factors(points: PointMultiset, idx: HaarIndex, factor) -> DyadicRational:
    n = len(points)
    if n == 0:
        raise ValueError("empty point multiset")
    nu = _pow2_log(n)
    res = points.n_resolution
    kx, ky = points.scaled_coords()
    # memoize per distinct integer coordinate; worth it for repeated levels
    f1: Dict[int, DyadicRational] = {}
    f2: Dict[int, DyadicRational] = {}
    total = ZERO
    for x, y in zip(kx, ky):
        a = f1.get(x)
        if a is None:
            a = f1[x] = factor(idx.j1, idx.m1, dyadic(x, res))
        if not a:
            continue
        b = f2.get(y)
        if b is None:
            b = f2[y] = factor(idx.j2, idx.m2, dyadic(y, res))
        if b:
            total = total + a * b
    return total.scale_pow2(-nu) - mu_volume(idx)


# -- level-wise scans ---------------------------------------------------------
#
# On a fixed level every factor is num / 2^res with an integer num, so the
# per-position sums are plain integer accumulations:
#   j >= 0: num = -(half - |k mod 2^(res-j) - half|) <= 0, half = 2^(res-j-1)
#   j = -1: num = 2^res - k                                >= 0
# A position therefore receives contributions of one sign only, which makes
# "occupied" equivalent to "coefficient differs from the empty-box value".
# The coordinate arrays come from PointMultiset.coord_arrays(), whose dtype
# (int64 or exact Python ints) bounds every product sum below.


def _tents(k: np.ndarray, j: int, res: int) -> Tuple[np.ndarray, np.ndarray]:
    """Unnormalized tents half - |k mod 2^(res-j) - half| and positions.

    For 0 <= j <= res; the tent is 0 on interval endpoints (and everywhere
    at j = res), and the position of k is k >> (res - j).
    """
    per = 1 << (res - j)
    half = per >> 1
    return half - np.abs((k & (per - 1)) - half), k >> (res - j)


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

    Keeps only the points whose x-factor (2^res - kx on the -1 row, else
    the tent) is nonzero, ordered by (m1, ky). Every j2 of the row then
    finds its box keys m1 * 2^j2 + (ky >> (res - j2)) already
    non-decreasing. Only the latest row is cached, so memory stays O(N).
    """
    cached = points._cache.get("row")
    if cached is not None and cached[0] == j1:
        return cached[1]
    res = points.n_resolution
    kx, ky = points.coord_arrays()
    n1, m1 = ((1 << res) - kx, np.zeros_like(kx)) if j1 == -1 else _tents(kx, j1, res)
    keep = np.flatnonzero(n1 != 0)
    order = keep[np.lexsort((ky[keep], m1[keep]))]
    row = (m1[order], ky[order], n1[order])
    points._cache["row"] = (j1, row)
    return row


def _scan_level(points: PointMultiset, j1: int, j2: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-position sums of the signed scaled factor products.

    Returns ascending keys m1 * width2 + m2 and the sums Sum_z f1 * f2
    scaled by 2^(2 res); only positions with at least one nonzero
    contribution appear.
    """
    res = points.n_resolution
    if j1 >= res or j2 >= res:
        empty = points.coord_arrays()[0][:0]
        return empty, empty  # interval interiors at or beyond the resolution are empty
    m1, ky, n1 = _level_row(points, j1)
    if j2 == -1:
        keys, n2 = m1, (1 << res) - ky
    else:
        n2, m2 = _tents(ky, j2, res)
        keys = (m1 << j2) + m2
    hit = n2 != 0
    keys, sums = _group_sums(keys[hit], n1[hit] * n2[hit])
    # each tent level carries a minus sign
    return keys, (-sums if (j1 == -1) != (j2 == -1) else sums)


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
    volume: DyadicRational
    occupied_boxes: int
    empty_boxes: int
    box_count: int

    @property
    def empty_value(self) -> DyadicRational:
        return -self.volume

    @cached_property
    def occupied_values(self) -> Tuple[Tuple[DyadicRational, int], ...]:
        """(value, multiplicity) per distinct occupied value, ascending."""
        return tuple(
            (dyadic(acc, self.scale) - self.volume, count)
            for acc, count in zip(self.accs.tolist(), self.counts.tolist())
        )


def _level_geometry(points: PointMultiset, j1: int, j2: int):
    n = len(points)
    if n == 0:
        raise ValueError("empty point multiset")
    if j1 < -1 or j2 < -1:
        raise ValueError("levels must be >= -1")
    nu = _pow2_log(n)
    boxes = (1 if j1 == -1 else 1 << j1) * (1 if j2 == -1 else 1 << j2)
    vol = mu_volume(HaarIndex(j1, j2, 0, 0))
    return nu, boxes, vol


def mu_all_at_level(points: PointMultiset, j1: int, j2: int) -> LevelCoefficients:
    """Every coefficient on the level, sparsely.

    Positions missed by all points share the value -mu_volume; positions in
    the map carry their individually accumulated exact coefficient.
    """
    nu, boxes, vol = _level_geometry(points, j1, j2)
    scale = 2 * points.n_resolution + nu
    width2 = 1 if j2 == -1 else 1 << j2
    keys, sums = _scan_level(points, j1, j2)
    occupied = {
        divmod(key, width2): dyadic(acc, scale) - vol
        for key, acc in zip(keys.tolist(), sums.tolist())
    }
    return LevelCoefficients(j1, j2, occupied, -vol, boxes)


def level_value_counts(points: PointMultiset, j1: int, j2: int) -> LevelSummary:
    """Grouped coefficient values on the level, memoized per multiset."""
    cached = points._cache.get(("level", j1, j2))
    if cached is not None:
        return cached
    nu, boxes, vol = _level_geometry(points, j1, j2)
    accs, counts = np.unique(_scan_level(points, j1, j2)[1], return_counts=True)
    occupied = int(counts.sum())
    summary = LevelSummary(
        j1, j2, accs, counts, 2 * points.n_resolution + nu, vol,
        occupied, boxes - occupied, boxes,
    )
    points._cache[("level", j1, j2)] = summary
    return summary


# -- batch per-index tables ----------------------------------------------------


def _axis_pairs(j_max: int) -> List[Tuple[int, int]]:
    pairs = [(-1, 0)]
    for j in range(j_max + 1):
        pairs.extend((j, m) for m in range(1 << j))
    return pairs


def _factor_matrix(points: PointMultiset, j_max: int, axis: int) -> Tuple[List[Tuple[int, int]], np.ndarray]:
    res = points.n_resolution
    ks = points.scaled_coords()[axis]
    pairs = _axis_pairs(j_max)
    memo: Dict[Tuple[int, int, int], int] = {}
    rows = np.empty((len(pairs), len(ks)), dtype=np.int64)
    for r, (j, m) in enumerate(pairs):
        for c, k in enumerate(ks):
            key = (j, m, k)
            val = memo.get(key)
            if val is None:
                f = _oracle_axis_factor(j, m, dyadic(k, res))
                shift = res - f.exponent
                assert shift >= 0
                val = memo[key] = f.mantissa << shift
            rows[r, c] = val
    return pairs, rows


def mu_grid(points: PointMultiset, j_max: int) -> Dict[HaarIndex, DyadicRational]:
    """mu_discrepancy for every index with levels in [-1, j_max], batched."""
    out = {}
    for j1 in range(-1, j_max + 1):
        for j2 in range(-1, j_max + 1):
            level = mu_all_at_level(points, j1, j2)
            for m1 in range(1 if j1 == -1 else 1 << j1):
                for m2 in range(1 if j2 == -1 else 1 << j2):
                    value = level.occupied.get((m1, m2), level.empty_value)
                    out[HaarIndex(j1, j2, m1, m2)] = value
    return out


def oracle_mu_grid(points: PointMultiset, j_max: int) -> Dict[HaarIndex, DyadicRational]:
    """oracle_mu for every index with levels in [-1, j_max], batched.

    Uses the antiderivative factors in an int64 matrix product, independent
    of the level scans behind :func:`mu_grid`.
    """
    n = len(points)
    nu = _pow2_log(n)
    res = points.n_resolution
    if 2 * res + n.bit_length() > 62:
        raise ValueError("grid path needs 2*resolution + log2(N) <= 62")
    pairs1, f1 = _factor_matrix(points, j_max, 0)
    pairs2, f2 = _factor_matrix(points, j_max, 1)
    sums = f1 @ f2.T
    scale = 2 * res + nu
    out = {}
    for r, (j1, m1) in enumerate(pairs1):
        for c, (j2, m2) in enumerate(pairs2):
            idx = HaarIndex(j1, j2, m1, m2)
            out[idx] = dyadic(int(sums[r, c]), scale) - mu_volume(idx)
    return out


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
    kx, ky = points.coord_arrays()
    nx, m1 = _tents(kx, j1, res)
    ny, m2 = _tents(ky, j2, res)
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
