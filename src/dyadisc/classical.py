"""Pointwise local discrepancy and classical norms: L2, even L_p, star.

The counting part of the local discrepancy is constant on the open cells of
the grid spanned by the point coordinates, which turns each norm into a
finite exact computation: a pair-sum identity for the squared L2 norm, per
cell binomial integration for even powers, and corner candidates with
one-sided limits for the supremum. L2 and L_p values are honest rationals
(the volume term integrates to ninths), so they are returned as Fractions;
the supremum and pointwise values stay dyadic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, List, Tuple

import numpy as np

from .dyadic import DyadicRational, dyadic
from .pointsets import PointMultiset, _as_dyadic, _pow2_log

__all__ = [
    "local_discrepancy",
    "l2_warnock",
    "lp_exact_even",
    "lp_estimate",
    "star_discrepancy",
]


def local_discrepancy(points: PointMultiset, t) -> DyadicRational:
    """Counting fraction of the half-open box [0, t) minus its area, exact."""
    n = len(points)
    if n == 0:
        raise ValueError("empty point multiset")
    nu = _pow2_log(n)
    t1, t2 = (_as_dyadic(c) for c in t)
    for c in (t1, t2):
        if c < 0 or c > 1:
            raise ValueError(f"anchor coordinate {c} outside [0, 1]")
    res = points.n_resolution
    tx = _strict_bound(t1, res)
    ty = _strict_bound(t2, res)
    kx, ky = points.scaled_coords()
    count = int(np.count_nonzero((kx < tx) & (ky < ty)))
    return dyadic(count, nu) - t1 * t2


def _strict_bound(t: DyadicRational, res: int) -> int:
    """Smallest integer bound b with (k < b) == (k/2^res < t)."""
    scaled = t.scale_pow2(res)
    if scaled.exponent <= 0:
        return int(scaled)
    # non-grid anchor: k < t*2^res iff k <= floor
    return (scaled.mantissa >> scaled.exponent) + 1


# -- count rows -----------------------------------------------------------------


def _count_rows(points: PointMultiset) -> Tuple[np.ndarray, np.ndarray, Iterator[np.ndarray]]:
    """Break grid spanned by the point coordinates (plus 0 and 1), swept in x.

    Returns the x and y breaks, scaled by 2^res in the dtype of
    `PointMultiset.scaled_coords`, and an iterator that yields, for each x
    break a in ascending order, the cumulative count row
    row[b] = #{z : x_z <= xs[a], y_z <= ys[b]}. On the open cell right of
    breaks (a, b) the counting part of the local discrepancy equals
    row[b] / N. Only one row is held at a time.
    """
    if len(points) == 0:
        raise ValueError("empty point multiset")
    kx, ky = points.scaled_coords()
    ends = np.array([0, 1 << points.n_resolution], dtype=kx.dtype)
    xs = np.unique(np.concatenate([kx, ends]))
    ys = np.unique(np.concatenate([ky, ends]))
    xi = np.searchsorted(xs, kx)
    # y break index of each point, in x order; the points of x break a end at stops[a]
    cols = np.searchsorted(ys, ky)[np.argsort(xi, kind="stable")]
    stops = np.bincount(xi, minlength=len(xs)).cumsum()

    def rows():
        row = np.zeros(len(ys), dtype=np.int64)
        start = 0
        for stop in stops.tolist():
            row = row + np.bincount(cols[start:stop], minlength=len(ys)).cumsum()
            start = stop
            yield row

    return xs, ys, rows()


# -- L2 via the pair-sum identity ---------------------------------------------


def l2_warnock(points: PointMultiset) -> Fraction:
    """Exact integral of the squared local discrepancy.

    1/9 - (2/N) sum_z prod (1 - z_i^2)/2 + (1/N^2) sum_{z,z'} prod
    (1 - max(z_i, z_i')); the double sum runs over
    min(1-x, 1-x') min(1-y, 1-y') and is evaluated as a dominance sum in
    O(N log N) exact integer array passes.
    """
    n = len(points)
    if n == 0:
        raise ValueError("empty point multiset")
    res = points.n_resolution
    full = 1 << res
    kx, ky = points.scaled_coords()

    # each factor is below 2^62 under the int64 guard; only products need Python ints
    sq = full * full
    single = int(np.dot((sq - kx * kx).astype(object), (sq - ky * ky).astype(object)))
    pair = _min_product_pair_sum(full - kx, full - ky)

    r4 = full**4
    return (
        Fraction(1, 9)
        - Fraction(single, 2 * n * r4)
        + Fraction(pair, n * n * full * full)
    )


def _min_product_pair_sum(us: np.ndarray, vs: np.ndarray) -> int:
    """Sum of min(u_i, u_j) * min(v_i, v_j) over all ordered pairs (i, j).

    In ascending u order each point i meets every earlier j as
    u_j min(v_i, v_j) = u_j v_i - u_j (v_i - v_j) [v_j < v_i]. The
    corrections form a dominance sum over the dense v-ranks: a pair with
    r_j < r_i is split at the highest bit b where the ranks differ, among
    the points that share the prefix r >> (b + 1), kept in u order; j has
    bit b clear and i has it set. Each bit costs one stable sort and a few
    grouped cumulative sums.

    The inputs are nonnegative arrays in the dtype of
    `PointMultiset.scaled_coords`. For int64 every per-point sum stays below
    2 N max(u) max(v) < 2^63; only the total over all points can exceed
    it, so the last reduction is exact.
    """
    order = np.argsort(us, kind="stable")
    u, v = us[order], vs[order]
    del order
    rank = np.unique(v, return_inverse=True)[1]
    uv = u * v
    # per point i: the pair (i, i) plus twice u_j v_i over every earlier j
    acc = 2 * v * (np.cumsum(u) - u) + uv
    top = int(rank.max())
    for b in range(top.bit_length()):
        # keys in the narrowest unsigned dtype take numpy's radix sort
        prefix = (rank >> (b + 1)).astype(np.min_scalar_type(top >> (b + 1)))
        group = np.argsort(prefix, kind="stable")
        grouped = rank[group]
        starts = np.flatnonzero(np.diff(grouped >> (b + 1))) + 1
        high = ((grouped >> b) & 1).astype(bool)
        # sums over the earlier points of the group below the split
        low_u = _group_cumsum(np.where(high, 0, u[group]), starts)[high]
        low_uv = _group_cumsum(np.where(high, 0, uv[group]), starts)[high]
        group = group[high]
        acc[group] -= 2 * (v[group] * low_u - low_uv)
    return int(acc.sum(dtype=object))


def _group_cumsum(w: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Running sums of w, in place, restarting at every index in starts."""
    w[starts] -= np.add.reduceat(w, np.r_[0, starts])[:-1]
    return np.cumsum(w, out=w)


# -- even-power norms via cell integration --------------------------------------


def lp_exact_even(points: PointMultiset, p: int) -> Fraction:
    """Exact integral of |D|^p for even p (the p-th power, not the root).

    On each open cell D = c - t1 t2 with constant c, so D^p integrates as a
    binomial sum of monomial integrals; the per-exponent sums collapse to a
    bilinear form between difference vectors of break powers.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if p % 2:
        raise ValueError(
            f"p = {p} is not supported exactly; use lp_estimate for odd powers"
        )
    n = len(points)
    res = points.n_resolution
    xs, ys, rows = _count_rows(points)
    xs, ys = xs.tolist(), ys.tolist()
    terms = []
    for k in range(p + 1):
        dy = _power_differences(ys, k + 1)
        # every count is at most N, so N^e sum(dy) bounds each row sum
        dtype = np.int64 if n ** (p - k) * sum(dy) < (1 << 62) else object
        terms.append((_power_differences(xs, k + 1), np.asarray(dy, dtype=dtype)))

    # s_k = sum over cells of count^(p-k) * dx[a] * dy[b], exact
    sums = [0] * (p + 1)
    for a, row in zip(range(len(xs) - 1), rows):
        cells = row[:-1]
        for k, (dx, dy) in enumerate(terms):
            sums[k] += dx[a] * int((cells.astype(dy.dtype) ** (p - k)) @ dy)

    total = Fraction(0)
    for k, s_k in enumerate(sums):
        denom = n ** (p - k) * (k + 1) ** 2 * (1 << (2 * res * (k + 1)))
        total += Fraction((-1) ** k * math.comb(p, k) * s_k, denom)
    return total


def _power_differences(breaks: List[int], e: int) -> List[int]:
    powers = [b**e for b in breaks]
    return [powers[i + 1] - powers[i] for i in range(len(powers) - 1)]


# resolution + extra_depth above this would evaluate more than 2^32 midpoints
_MAX_ESTIMATE_DEPTH = 16


def lp_estimate(points: PointMultiset, p: float, extra_depth: int = 4) -> Tuple[float, int]:
    """Midpoint estimate of the L_p integral for odd or fractional p.

    Subdivides to step 2^-(resolution + extra_depth), no finer than 2^-16
    (ValueError past that); returns the estimate of the integral of |D|^p
    and the midpoint count per axis. Approximate by construction, unlike
    the even-p route.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"p must satisfy 0 < p < inf, got {p}")
    n = len(points)
    res = points.n_resolution
    if res + extra_depth > _MAX_ESTIMATE_DEPTH:
        raise ValueError(
            f"midpoint grid of 2^{res + extra_depth} points per axis exceeds the "
            f"limit of 2^{_MAX_ESTIMATE_DEPTH} (resolution {res} + extra depth "
            f"{extra_depth} > {_MAX_ESTIMATE_DEPTH}); even p gives exact values"
        )
    xs, ys, rows = _count_rows(points)
    side = 1 << (res + extra_depth)
    step = 1.0 / side
    mids = (np.arange(side, dtype=np.float64) + 0.5) * step
    # midpoints never sit on a break, so each lies in a unique open cell
    xb = np.asarray(xs, dtype=np.float64) / (1 << res)
    yb = np.asarray(ys, dtype=np.float64) / (1 << res)
    ai = np.searchsorted(xb, mids, side="right") - 1
    bi = np.searchsorted(yb, mids, side="right") - 1
    total = 0.0
    inv_n = 1.0 / n
    r = 0
    for a, row in enumerate(rows):
        c_row = row[bi] * inv_n
        # ai is nondecreasing: the midpoint rows in x cell a come next
        while r < side and ai[r] == a:
            total += float(np.sum(np.abs(c_row - mids[r] * mids) ** p))
            r += 1
    return total * step * step, side


# -- supremum norm ----------------------------------------------------------------


def star_discrepancy(points: PointMultiset) -> DyadicRational:
    """Exact supremum of |D| over the closed unit square.

    On each open cell the supremum of |c - t1 t2| is approached at the two
    diagonal corners, so both one-sided limits at every grid corner are
    candidates; the maximum over all cells is the global supremum.
    """
    n = len(points)
    res = points.n_resolution
    xs, ys, rows = _count_rows(points)
    nu = _pow2_log(n)
    # |c/N - x y / 2^(2 res)| -> integer candidates |c 2^(2 res) - N x y|,
    # bounded by N 2^(2 res): the breaks carry the dtype for that bound
    scale = 1 << (2 * res)
    best = 0
    for x_low, x_high, row in zip(xs[:-1].tolist(), xs[1:].tolist(), rows):
        counts = row[:-1].astype(xs.dtype, copy=False) * scale
        low = n * x_low * ys[:-1]
        high = n * x_high * ys[1:]
        cand = np.maximum(np.abs(counts - low), np.abs(counts - high)).max()
        if cand > best:
            best = int(cand)
    return dyadic(best, 2 * res + nu)
