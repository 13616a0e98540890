"""Pointwise local discrepancy and classical norms: L2, even L_p, star.

The counting part of the local discrepancy is constant on the open cells of
the grid spanned by the point coordinates, which turns each norm into a
finite exact computation: a pair-sum identity for the squared L2 norm, per
cell binomial integration for even powers, and corner candidates with
one-sided limits for the supremum. The L2 pair sum is a digit transfer
(pointsets._hammersley_pair_sum), and its single sum a combination of the
base's moments, when the base is a Hammersley-type set, as in every
build_family set; both are sums over the base points otherwise. Every
value is returned as a Fraction: L2 and L_p values are honest rationals
(the volume term integrates to ninths); the supremum and pointwise values
are dyadic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index, mul
from typing import Iterator, List, Tuple

import numpy as np

from .pointsets import (
    PointMultiset,
    _as_dyadic,
    _exact,
    _hammersley_pair_sum,
    _hammersley_sigma,
    _hammersley_single_sum,
)

__all__ = [
    "local_discrepancy",
    "l2_warnock",
    "lp_exact_even",
    "lp_estimate",
    "star_discrepancy",
]


def local_discrepancy(points: PointMultiset, t) -> Fraction:
    """Counting fraction of the half-open box [0, t) minus its area, exact.

    Counts over the base's reflection orbits (PointMultiset.axis_orbits):
    per base point, the orbit entries below the anchor on one axis times
    those on the other.
    """
    n = len(points)
    if n == 0:
        raise ValueError("empty point multiset")
    t1, t2 = (_as_dyadic(c) for c in t)
    for c in (t1, t2):
        if c < 0 or c > 1:
            raise ValueError(f"anchor coordinate {c} outside [0, 1]")
    bounds = (_strict_bound(t, points.n_resolution) for t in (t1, t2))
    below = [np.sum([k < b for k in orbit], axis=0, dtype=np.int64)
             for orbit, b in zip(points.axis_orbits(), bounds)]
    return Fraction(int(np.dot(*below)), n) - t1 * t2


def _strict_bound(t: Fraction, res: int) -> int:
    """Smallest integer bound b with (k < b) == (k/2^res < t): ceil(t 2^res)."""
    return -(-(t.numerator << res) // t.denominator)


# -- count rows -----------------------------------------------------------------


# bytes per block of the count sweep, and per chunk of midpoint rows in lp_estimate
_BLOCK_BYTES = 1 << 19


def _count_rows(
    points: PointMultiset,
) -> Tuple[np.ndarray, np.ndarray, Iterator[Tuple[int, np.ndarray]]]:
    """Break grid spanned by the point coordinates (plus 0 and 1), swept in x.

    Returns the x and y breaks, scaled by 2^res in the store's dtype,
    _exact(res, 1), of `PointMultiset.scaled_coords`, and an iterator of
    (a0, block) pairs over the x cells a = 0 .. len(xs) - 2 in ascending
    order. A block is a contiguous int64 array of cumulative count rows,
    block[a - a0, b] = #{z : x_z <= xs[a], y_z <= ys[b]}; on the open cell
    right of breaks (a, b) the counting part of the local discrepancy equals
    that count / N. A block holds at most _BLOCK_BYTES (and at least one
    row), and is a fresh array that the consumer owns and may overwrite: the
    sweep carries a copy of its last row.

    A block's rows step up only at the y columns of the points it holds, a
    few per x break. So each block is summed over a narrow table with one
    column per such column (and one before them), along both axes, and
    widened to full rows by repeating each table column over the y breaks
    it spans; no pass runs along a full row but the widening and the carry.
    """
    if len(points) == 0:
        raise ValueError("empty point multiset")
    kx, ky = points.scaled_coords()
    ends = np.array([0, 1 << points.n_resolution], dtype=kx.dtype)
    xs = np.unique(np.concatenate([kx, ends]))
    ys = np.unique(np.concatenate([ky, ends]))
    width, cells = len(ys), len(xs) - 1
    # occupied break pairs a * width + b, ascending, and the points on each;
    # the block of cells [a0, a1) counts the keys in [a0 * width, a1 * width)
    keys, hits = np.unique(np.searchsorted(xs, kx) * width + np.searchsorted(ys, ky),
                           return_counts=True)
    height = min(cells, max(1, _BLOCK_BYTES // (8 * width)))

    def blocks():
        carry = np.zeros(width, dtype=np.int64)
        for a0 in range(0, cells, height):
            a1 = min(a0 + height, cells)
            lo, hi = np.searchsorted(keys, (a0 * width, a1 * width)).tolist()
            rows, cols = np.divmod(keys[lo:hi] - a0 * width, width)
            steps, col = np.unique(cols, return_inverse=True)
            # table column j + 1 takes y break steps[j]; column 0, the breaks before steps[0]
            small = np.zeros((a1 - a0, len(steps) + 1), dtype=np.int64)
            small[rows, col + 1] = hits[lo:hi]
            np.cumsum(small, axis=1, out=small)
            np.cumsum(small, axis=0, out=small)
            block = np.repeat(small, np.diff(steps, prepend=0, append=width), axis=1)
            block += carry
            carry = block[-1].copy()
            yield a0, block

    return xs, ys, blocks()


# -- L2 via the pair-sum identity ---------------------------------------------


def l2_warnock(points: PointMultiset) -> Fraction:
    """Exact integral of the squared local discrepancy.

    1/9 - (2/N) sum_z prod (1 - z_i^2)/2 + (1/N^2) sum_{z,z'} prod
    (1 - max(z_i, z_i')). Both sums factor over the axes, so they run over
    the base's orbits (PointMultiset.axis_orbits), at scale R = 2^res.

    Both sums take one of two routes, chosen from the base arrays alone. A
    base that is hammersley_type(n, sigma) entry for entry, as in every
    build_family set (pointsets._hammersley_sigma, an O(M) check), takes
    pointsets._hammersley_single_sum, from the base's moments, and
    pointsets._hammersley_pair_sum, a transfer over the n digits; both in
    Python ints with no point read. Every other base takes `_single_sum`,
    an O(M) pass over the M base points, and `_dominance_pair_sum`, O(M log M)
    exact integer array passes; the two stay the digit routes' test oracles.
    """
    n = len(points)
    if n == 0:
        raise ValueError("empty point multiset")
    full = 1 << points.n_resolution
    sigma = _hammersley_sigma(points)
    if sigma is None:
        single, pair = _single_sum(points), _dominance_pair_sum(points)
    else:
        single = _hammersley_single_sum(sigma, points._reflected)
        pair = _hammersley_pair_sum(sigma, points._reflected)
    return (
        Fraction(1, 9)
        - Fraction(single, 2 * n * full**4)
        + Fraction(pair, n * n * full * full)
    )


def _single_sum(points: PointMultiset) -> int:
    """Sum over the union of prod over the axes of (R^2 - k^2), R = 2^res.

    A base point's factor on an axis is the sum over its orbit, at most two
    terms of at most 2^(2 res), in _exact(2 res, 2); only the products
    need Python ints. A Python int and its pointer take about 40 bytes, so
    the base is read in chunks of _BLOCK_BYTES / 128 points, and the two
    factors of one chunk as Python ints stay within _BLOCK_BYTES.
    """
    res = points.n_resolution
    sq = 1 << (2 * res)
    dtype = _exact(2 * res, 2)
    step = _BLOCK_BYTES // 128
    total = 0
    for i in range(0, len(points._base[0]), step):
        orbits = points.axis_orbits(dtype, slice(i, i + step))
        total += int(np.dot(*(sum(sq - k * k for k in orbit).astype(object) for orbit in orbits)))
    return total


def _dominance_pair_sum(points: PointMultiset) -> int:
    """Sum over ordered pairs of union points of prod over the axes of (R - max(k, k')).

    On a reflected axis the four pairs from the orbits of k and k' give sum
    min(u, u') = R + 2 min(f, f') = 2 min(R/2 + f, R/2 + f'), for u = R - k
    and f the orbit's minimum. So the pair sum is one `_min_product_pair_sum`
    over the base, of R/2 + f on a reflected axis and R - k on a plain one,
    times 2 per reflected axis; every input is at most R, in
    _exact(2 res, M). R/2 needs res >= 1, so a base at resolution 0 is
    lifted to resolution 1 first (k -> 2k in each orbit), which multiplies
    each axis factor by 2 and the sum by 4.
    """
    res = points.n_resolution
    orbits = points.axis_orbits(_exact(2 * max(res, 1), len(points._base[0])))
    if res == 0:
        orbits = tuple(tuple(k << 1 for k in orbit) for orbit in orbits)
    full = 1 << max(res, 1)
    pair_inputs = [(full >> 1) + np.minimum(*o) if len(o) == 2 else full - o[0] for o in orbits]
    del orbits  # the mirrors need not outlive the pair sum's peak
    pair = _min_product_pair_sum(*pair_inputs) << sum(points._reflected)
    return pair >> 2 if res == 0 else pair


def _min_product_pair_sum(us: np.ndarray, vs: np.ndarray) -> int:
    """Sum of min(u_i, u_j) * min(v_i, v_j) over all ordered pairs (i, j).

    In ascending u order each point i meets every earlier j as
    u_j min(v_i, v_j) = u_j v_i - u_j (v_i - v_j) [v_j < v_i]. The
    corrections form a dominance sum over the dense v-ranks: a pair with
    r_j < r_i is split at the highest bit b where the ranks differ, among
    the points that share the prefix r >> (b + 1), kept in u order; j has
    bit b clear and i has it set. Each bit costs one stable sort and a few
    grouped cumulative sums.

    The inputs are M nonnegative values at most 2^res, in
    `pointsets._exact(2 res, M)`. For int64 every per-point sum stays below
    2 M max(u) max(v) <= 2^(2 res + 1) M < 2^63; only the total over all
    points can exceed it, so the last reduction is exact.
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
    w[starts] -= np.add.reduceat(w, np.concatenate(([0], starts)))[:-1]
    return np.cumsum(w, out=w)


# -- even-power norms via cell integration --------------------------------------


# Largest even power of lp_exact_even. Its value lies in [0, 1] with a
# denominator dividing N^p lcm(1..p+1)^2 2^(2 res (p+1)); a CLI set of order
# n has N <= 2^(n+2) at resolution n, so for p <= 64 both parts have at most
# 4,298 digits, within Python's 4,300-digit integer-to-string limit, up to
# n = 72 (2^74 points, far beyond any sweep over N^2 cells).
_MAX_EXACT_P = 64


def lp_exact_even(points: PointMultiset, p: int) -> Fraction:
    """Exact integral of |D|^p for even 0 < p <= 64 (the p-th power, not the root).

    On each open cell D = c - t1 t2 with constant c, so D^p integrates as a
    binomial sum of monomial integrals; the per-exponent sums collapse to
    bilinear forms between count powers and difference vectors of break
    powers. Each is exact in int64: the count powers and dy are split into
    limbs (`_limb_split`), each block of count rows that `_count_rows` yields
    meets the dy limbs in one int64 contraction (a matmul per count limb),
    and the results are shifted together as Python ints once per block,
    weighted by dx.
    """
    p = index(p)  # numpy integers pass as ints; a float raises TypeError
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if p % 2:
        raise ValueError(
            f"p = {p} is not supported exactly; use lp_estimate for odd powers"
        )
    if p > _MAX_EXACT_P:
        raise ValueError(f"p exceeds the limit of {_MAX_EXACT_P} for exact even powers")
    n = len(points)
    res = points.n_resolution
    xs, ys, blocks = _count_rows(points)
    xs, ys = xs.tolist(), ys.tolist()
    terms = [
        (_power_differences(xs, k + 1),
         *_limb_split([c ** (p - k) for c in range(n + 1)], _power_differences(ys, k + 1)))
        for k in range(p + 1)
    ]

    # s_k = sum over cells of count^(p-k) * dx[a] * dy[b], exact
    sums = [0] * (p + 1)
    for a0, counts in blocks:
        for k, (dx, table, dy_limbs, shifts) in enumerate(terms):
            # per count limb, (dy limbs, cols) @ (cols, rows); int64 entries below 2^63
            prods = np.einsum("irc,jc->ijr", np.take(table, counts, axis=1), dy_limbs)
            weights = dx[a0 : a0 + len(counts)]
            for col, shift in zip(prods.reshape(len(shifts), -1).tolist(), shifts):
                sums[k] += sum(map(mul, weights, col)) << shift

    total = Fraction(0)
    for k, s_k in enumerate(sums):
        denom = n ** (p - k) * (k + 1) ** 2 * (1 << (2 * res * (k + 1)))
        total += Fraction((-1) ** k * math.comb(p, k) * s_k, denom)
    return total


def _limb_split(powers: List[int], dy: List[int]) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """int64 limbs of the count powers and of dy, and each limb pair's shift.

    dy in ld limbs of wd bits has limb column sums S <= min(sum(dy), len(dy)
    (2^wd - 1)), so count limbs of 63 - bitlen(S) bits keep every product sum
    below 2^63. The split minimises lc (ld + 1): gathers plus contraction columns.
    """
    def limbs(values, width, count):
        mask = (1 << width) - 1
        return np.array([[(v >> width * i) & mask for v in values] for i in range(count)],
                        dtype=np.int64)

    total, top, bits = sum(dy), max(dy).bit_length(), max(powers).bit_length()
    plans = []
    for ld in range(1, top + 1):
        wd = -(-top // ld)
        wc = 63 - min(total, len(dy) * ((1 << wd) - 1)).bit_length()
        if wc > 0:
            lc = -(-bits // wc)
            plans.append((lc * (ld + 1), lc, wc, ld, wd))
    _, lc, wc, ld, wd = min(plans)
    shifts = [wc * i + wd * j for i in range(lc) for j in range(ld)]
    # a zero weight for each row's last entry keeps the gathered blocks contiguous
    return limbs(powers, wc, lc), limbs(dy + [0], wd, ld), shifts


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
    the even-p route. extra_depth >= 0 keeps every midpoint off the breaks.

    Each x cell's midpoint rows are evaluated in chunks of at most
    _BLOCK_BYTES. The float is fixed by its order: each midpoint row is
    summed by numpy's pairwise sum, and the row sums are added in ascending
    row order in Python floats, then multiplied by step^2.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"p must satisfy 0 < p < inf, got {p}")
    extra_depth = index(extra_depth)  # numpy integers pass as ints; a float raises TypeError
    if extra_depth < 0:
        raise ValueError(f"extra_depth must be >= 0, got {extra_depth}")
    n = len(points)
    res = points.n_resolution
    if res + extra_depth > _MAX_ESTIMATE_DEPTH:
        raise ValueError(
            f"midpoint grid of 2^{res + extra_depth} points per axis exceeds the "
            f"limit of 2^{_MAX_ESTIMATE_DEPTH} (resolution {res} + extra depth "
            f"{extra_depth} > {_MAX_ESTIMATE_DEPTH}); even p gives exact values"
        )
    xs, ys, blocks = _count_rows(points)
    side = 1 << (res + extra_depth)
    step = 1.0 / side
    mids = (np.arange(side, dtype=np.float64) + 0.5) * step
    # midpoints never sit on a break, so each lies in a unique open cell
    xb = np.asarray(xs, dtype=np.float64) / (1 << res)
    yb = np.asarray(ys, dtype=np.float64) / (1 << res)
    bi = np.searchsorted(yb, mids, side="right") - 1
    # the midpoint rows of x cell a are stops[a] .. stops[a + 1] - 1
    stops = np.searchsorted(mids, xb).tolist()
    height = max(1, _BLOCK_BYTES // (8 * side))
    # one buffer for every chunk of midpoint rows
    buf = np.empty((height, side), dtype=np.float64)
    total = 0.0
    inv_n = 1.0 / n
    for a0, block in blocks:
        for a, row in enumerate(block, a0):
            c_row = row[bi] * inv_n
            for r in range(stops[a], stops[a + 1], height):
                chunk = mids[r : min(r + height, stops[a + 1])]
                t = np.multiply.outer(chunk, mids, out=buf[: len(chunk)])
                np.abs(np.subtract(c_row, t, out=t), out=t)
                t **= p
                # plain float adds: sum() compensates its float sums from Python 3.12
                for value in t.sum(axis=1).tolist():
                    total += value
    return total * step * step, side


# -- supremum norm ----------------------------------------------------------------


def star_discrepancy(points: PointMultiset) -> Fraction:
    """Exact supremum of |D| over the closed unit square.

    On each open cell the supremum of |c - t1 t2| is approached at the two
    diagonal corners, so both one-sided limits at every grid corner are
    candidates; the maximum over all cells is the global supremum. With
    low = N x_a y_b <= high = N x_(a+1) y_(b+1), the larger of |c - low| and
    |c - high| is max(c - low, high - c).
    """
    n = len(points)
    res = points.n_resolution
    xs, ys, blocks = _count_rows(points)
    # |c/N - x y / 2^(2 res)| -> integer candidates |c 2^(2 res) - N x y|,
    # bounded by N 2^(2 res): the breaks and the counts take that bound
    dtype = _exact(2 * res, n)
    nx = n * xs.astype(dtype, copy=False)
    ys = ys.astype(dtype, copy=False)
    scale = 1 << (2 * res)
    best = 0
    # one buffer for the candidates: the first block is the tallest
    buf = None
    for a0, block in blocks:
        a1 = a0 + len(block)
        # the object route casts before it scales: an int64 product could wrap
        counts = block[:, :-1].astype(dtype, copy=False)
        counts *= scale
        if buf is None:
            buf = np.empty(counts.shape, dtype=dtype)
        work = np.multiply.outer(nx[a0:a1], ys[:-1], out=buf[: len(block)])
        best = max(best, int(np.subtract(counts, work, out=work).max()))
        np.multiply.outer(nx[a0 + 1 : a1 + 1], ys[1:], out=work)
        best = max(best, int(np.subtract(work, counts, out=work).max()))
    return Fraction(best, n << 2 * res)
