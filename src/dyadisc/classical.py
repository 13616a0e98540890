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
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .dyadic import DyadicRational, dyadic
from .pointsets import PointMultiset, _pow2_log

__all__ = [
    "CellGrid",
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
    t1, t2 = t
    t1 = t1 if isinstance(t1, DyadicRational) else DyadicRational.from_float(float(t1))
    t2 = t2 if isinstance(t2, DyadicRational) else DyadicRational.from_float(float(t2))
    for c in (t1, t2):
        if c < 0 or c > 1:
            raise ValueError(f"anchor coordinate {c} outside [0, 1]")
    res = points.n_resolution
    tx = _strict_bound(t1, res)
    ty = _strict_bound(t2, res)
    kx, ky = points.scaled_coords()
    count = sum(1 for x, y in zip(kx, ky) if x < tx and y < ty)
    return dyadic(count, nu) - t1 * t2


def _strict_bound(t: DyadicRational, res: int) -> int:
    """Smallest integer bound b with (k < b) == (k/2^res < t)."""
    scaled = t.scale_pow2(res)
    if scaled.exponent <= 0:
        return int(scaled)
    # non-grid anchor: k < t*2^res iff k <= floor
    return (scaled.mantissa >> scaled.exponent) + 1


# -- cell grid ----------------------------------------------------------------


@dataclass(frozen=True)
class CellGrid:
    """Break grid spanned by the point coordinates (plus 0 and 1).

    counts[a, b] is the number of points z with z <= (x_a, y_b) per
    coordinate; on the open cell (x_a, x_{a+1}) x (y_b, y_{b+1}) the
    counting part of the local discrepancy equals counts[a, b] / N.
    """

    x_scaled: Tuple[int, ...]
    y_scaled: Tuple[int, ...]
    counts: np.ndarray
    cardinality: int
    resolution: int

    @classmethod
    def from_pointset(cls, points: PointMultiset) -> "CellGrid":
        n = len(points)
        if n == 0:
            raise ValueError("empty point multiset")
        res = points.n_resolution
        full = 1 << res
        kx, ky = points.scaled_coords()
        xs = sorted(set(kx) | {0, full})
        ys = sorted(set(ky) | {0, full})
        xi = {v: i for i, v in enumerate(xs)}
        yi = {v: i for i, v in enumerate(ys)}
        hist = np.zeros((len(xs), len(ys)), dtype=np.int64)
        for x, y in zip(kx, ky):
            hist[xi[x], yi[y]] += 1
        counts = hist.cumsum(axis=0).cumsum(axis=1)
        return cls(tuple(xs), tuple(ys), counts, n, res)

    @property
    def x_breaks(self) -> Tuple[DyadicRational, ...]:
        return tuple(dyadic(v, self.resolution) for v in self.x_scaled)

    @property
    def y_breaks(self) -> Tuple[DyadicRational, ...]:
        return tuple(dyadic(v, self.resolution) for v in self.y_scaled)

    def cell_count(self, a: int, b: int) -> DyadicRational:
        """Counting value A(t)/N on the open cell right of break (a, b)."""
        nu = _pow2_log(self.cardinality)
        return dyadic(int(self.counts[a, b]), nu)


# -- L2 via the pair-sum identity ---------------------------------------------


def l2_warnock(points: PointMultiset) -> Fraction:
    """Exact integral of the squared local discrepancy.

    1/9 - (2/N) sum_z prod (1 - z_i^2)/2 + (1/N^2) sum_{z,z'} prod
    (1 - max(z_i, z_i')); the double sum is reorganized as a dominance sum
    over min(1-x, 1-x') min(1-y, 1-y') and accumulated with a Fenwick tree,
    so the whole computation is O(N log N) exact integer work.
    """
    n = len(points)
    if n == 0:
        raise ValueError("empty point multiset")
    res = points.n_resolution
    full = 1 << res
    kx, ky = points.scaled_coords()

    single = sum((full * full - x * x) * (full * full - y * y) for x, y in zip(kx, ky))

    us = [full - x for x in kx]
    vs = [full - y for y in ky]
    pair = _min_product_pair_sum(us, vs)

    r4 = full**4
    return (
        Fraction(1, 9)
        - Fraction(single, 2 * n * r4)
        + Fraction(pair, n * n * full * full)
    )


def _min_product_pair_sum(us: List[int], vs: List[int]) -> int:
    """Sum of min(u_i, u_j) * min(v_i, v_j) over all ordered pairs (i, j)."""
    order = sorted(range(len(us)), key=lambda i: us[i])
    ranks = {v: i + 1 for i, v in enumerate(sorted(set(vs)))}
    size = len(ranks)
    tree_uv = [0] * (size + 1)  # sum of u*v over processed, by v-rank
    tree_u = [0] * (size + 1)  # sum of u over processed, by v-rank
    total_u = 0

    def update(tree, pos, value):
        while pos <= size:
            tree[pos] += value
            pos += pos & -pos

    def query(tree, pos):
        acc = 0
        while pos > 0:
            acc += tree[pos]
            pos -= pos & -pos
        return acc

    cross = 0
    diag = 0
    for i in order:
        u, v = us[i], vs[i]
        rank = ranks[v]
        # earlier points j have u_j <= u: min(u) = u_j
        low_uv = query(tree_uv, rank)
        low_u = query(tree_u, rank)
        cross += low_uv + v * (total_u - low_u)
        update(tree_uv, rank, u * v)
        update(tree_u, rank, u)
        total_u += u
        diag += u * v
    return 2 * cross + diag


# -- even-power norms via cell integration --------------------------------------


def lp_exact_even(points: PointMultiset, p: int) -> Fraction:
    """Exact integral of |D|^p for even p (the p-th power, not the root).

    On each open cell D = c - t1 t2 with constant c, so D^p integrates as a
    binomial sum of monomial integrals; the per-exponent sums collapse to a
    bilinear form between difference vectors of break powers.
    """
    if p <= 0 or p % 2:
        raise ValueError(
            f"p = {p} is not supported exactly; use lp_estimate for odd powers"
        )
    grid = CellGrid.from_pointset(points)
    n = grid.cardinality
    res = grid.resolution
    xs = list(grid.x_scaled)
    ys = list(grid.y_scaled)
    cells = grid.counts[:-1, :-1]

    total = Fraction(0)
    for k in range(p + 1):
        dx = _power_differences(xs, k + 1)
        dy = _power_differences(ys, k + 1)
        s_k = _bilinear_count_sum(cells, p - k, dx, dy)
        denom = n ** (p - k) * (k + 1) ** 2 * (1 << (2 * res * (k + 1)))
        total += Fraction((-1) ** k * math.comb(p, k) * s_k, denom)
    return total


def _power_differences(breaks: List[int], e: int) -> List[int]:
    powers = [b**e for b in breaks]
    return [powers[i + 1] - powers[i] for i in range(len(powers) - 1)]


def _bilinear_count_sum(cells: np.ndarray, e: int, dx: List[int], dy: List[int]) -> int:
    """Sum over cells of count^e * dx[a] * dy[b], exact.

    Row reductions stay inside int64 when count^e * sum(dy) fits; otherwise
    everything runs on Python integers.
    """
    max_count = int(cells.max()) if cells.size else 0
    dy_total = sum(dy)
    if max_count**e * dy_total < (1 << 62):
        row_sums = (cells.astype(np.int64) ** e) @ np.asarray(dy, dtype=np.int64)
        return sum(a * int(b) for a, b in zip(dx, row_sums))
    total = 0
    for a, row in enumerate(cells.tolist()):
        row_total = sum((c**e) * d for c, d in zip(row, dy))
        total += dx[a] * row_total
    return total


def lp_estimate(points: PointMultiset, p: float, extra_depth: int = 4) -> Tuple[float, int]:
    """Midpoint estimate of the L_p integral for odd or fractional p.

    Subdivides to step 2^-(resolution + extra_depth); returns the estimate
    of the integral of |D|^p and the midpoint count per axis. Approximate
    by construction, unlike the even-p route.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    grid = CellGrid.from_pointset(points)
    n = grid.cardinality
    depth = grid.resolution + extra_depth
    side = 1 << depth
    step = 1.0 / side
    mids = (np.arange(side, dtype=np.float64) + 0.5) * step
    # midpoints never sit on a break, so each lies in a unique open cell
    xb = np.asarray(grid.x_scaled, dtype=np.float64) / (1 << grid.resolution)
    yb = np.asarray(grid.y_scaled, dtype=np.float64) / (1 << grid.resolution)
    ai = np.searchsorted(xb, mids, side="right") - 1
    bi = np.searchsorted(yb, mids, side="right") - 1
    counts = grid.counts
    total = 0.0
    inv_n = 1.0 / n
    for row in range(side):
        c_row = counts[ai[row], bi] * inv_n
        total += float(np.sum(np.abs(c_row - mids[row] * mids) ** p))
    return total * step * step, side


# -- supremum norm ----------------------------------------------------------------


def star_discrepancy(points: PointMultiset) -> DyadicRational:
    """Exact supremum of |D| over the closed unit square.

    On each open cell the supremum of |c - t1 t2| is approached at the two
    diagonal corners, so both one-sided limits at every grid corner are
    candidates; the maximum over all cells is the global supremum.
    """
    grid = CellGrid.from_pointset(points)
    n = grid.cardinality
    nu = _pow2_log(n)
    res = grid.resolution
    # |c/N - x y / 2^(2 res)| -> integer candidates |c 2^(2 res) - N x y|,
    # bounded by N 2^(2 res): the dtype the level scans use for that bound
    dtype = points.coord_arrays()[0].dtype
    xs = np.asarray(grid.x_scaled, dtype=dtype)
    ys = np.asarray(grid.y_scaled, dtype=dtype)
    scale = 1 << (2 * res)
    best = 0
    for a in range(len(xs) - 1):
        row = grid.counts[a, :-1].astype(dtype, copy=False) * scale
        low = n * int(xs[a]) * ys[:-1]
        high = n * int(xs[a + 1]) * ys[1:]
        cand = np.maximum(np.abs(row - low), np.abs(row - high)).max()
        if cand > best:
            best = int(cand)
    return dyadic(best, 2 * res + nu)
