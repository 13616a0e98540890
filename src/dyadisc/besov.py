"""Sequence-space quasi-norms of local discrepancies.

The norm aggregates exact Haar coefficient magnitudes: positions of a level
combine in l_p, levels combine in l_q with weights 2^((j1+j2)(r - 1/p + 1)),
with suprema replacing sums for infinite indices. Coefficients enter as
exact integer numerators at a power-of-two scale and become floats only
as the log2 of their odd parts. A level of many distinct values is one
array pass over them (_array_operand), a level of few goes value by
value (_operand over _log2_abs), and the two give the same float. A norm
whose l_q content floats cannot hold (underflowed, subnormal, infinite or
nan) raises ValueError.

For a point set on the 2^-n coordinate grid every level with an axis at
resolution n or finer carries only the volume coefficient, so the infinite
remainder splits into closed geometric sums: the quadrant of nonnegative
level pairs outside [0, n-1]^2 collapses to a function of j1 + j2, and the
two boundary rows are plain geometric series in the level. The truncated
mode sums levels explicitly instead and doubles as the oracle for the tail.

Transposing a set swaps the axes of every coefficient: D_{P^T}(t2, t1) =
D_P(t1, t2), so mu_{(j2,j1),(m2,m1)}(P^T) = mu_{(j1,j2),(m1,m2)}(P). On a
set equal to its transpose, level (j2, j1) holds the same multiset of
values as (j1, j2), and both norms scan only j1 <= j2 and copy each
operand to the mirrored pair (_level_operands). hammersley_type(n, sigma)
transposed is hammersley_type(n, reversed sigma), so the hammersley and
symmetrized families qualify for a palindromic sigma: identity, all-flip,
alternating at odd n. Davenport's union reflects y only and never does.
level_term scans the level it is asked for.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import compress
from typing import List, Optional, Sequence, Tuple

from .haar import level_value_counts
from .pointsets import PointMultiset, is_transpose_invariant

import numpy as np  # after the package modules, which import it first: a lower peak RSS

__all__ = [
    "BesovParams",
    "Admissibility",
    "NormBreakdown",
    "validate",
    "level_term",
    "besov_norm_exact",
    "besov_norm_truncated",
    "scaling_ratio",
]

INF = math.inf


@dataclass(frozen=True)
class BesovParams:
    """Integrability p, fine index q (both in [1, inf]) and smoothness r."""

    p: float
    q: float
    r: float

    @property
    def inv_p(self) -> float:
        return 0.0 if self.p == INF else 1.0 / self.p


@dataclass(frozen=True)
class Admissibility:
    admissible: bool
    violations: Tuple[str, ...]


def validate(params: BesovParams) -> Admissibility:
    """Check the parameter window of the coefficient characterization."""
    problems = []
    p, q, r = params.p, params.q, params.r
    if not (1 <= p):
        problems.append(f"p must satisfy 1 <= p <= inf, got {p}")
    if not (1 <= q):
        problems.append(f"q must satisfy 1 <= q <= inf, got {q}")
    if p == INF and q <= 1:
        problems.append("q > 1 is required when p = inf")
    if math.isnan(r) or math.isinf(r):
        problems.append(f"r must be finite, got {r}")
    elif 1 <= p:  # the r window derives from 1/p, which means nothing for p out of range
        lower = params.inv_p - 1.0
        upper = min(params.inv_p, 1.0)
        if not r > lower:
            problems.append(f"r must exceed 1/p - 1 = {lower}")
        if not r < upper:
            problems.append(f"r must be below min(1/p, 1) = {upper}")
    return Admissibility(not problems, tuple(problems))


def _require_admissible(params: BesovParams):
    report = validate(params)
    if not report.admissible:
        raise ValueError("; ".join(report.violations))


def _log2_abs(num: int, exponent: int) -> float:
    """log2 |num 2^-exponent| for nonzero num, from the odd part of num.

    Stripping the trailing zero bits first makes equal values give equal
    floats, whatever scale they were computed at; exact within float
    precision for mantissas of any size.
    """
    low = (num & -num).bit_length() - 1
    return math.log2(abs(num >> low)) - (exponent - low)


# Below this many distinct occupied values, the per-value route is faster
# than the array pass, whose numpy calls cost about 10 us per level: most
# levels of a norm hold a few values, its largest ones thousands.
_ARRAY_MIN_VALUES = 64


def _level_operand(summary, params: BesovParams) -> float:
    """2^(weight) times the l_p position aggregate of one level, in floats.

    The per-value route for a level of few distinct values, the array pass
    for one of many; both give the same float.
    """
    if len(summary.accs) >= _ARRAY_MIN_VALUES:
        return _array_operand(summary, params)
    nums, counts, top = summary.numerators()
    log2s = ((_log2_abs(num, top), count) for num, count in zip(nums, counts) if num)
    return _operand(summary.j1 + summary.j2, log2s, params)


def _array_operand(summary, params: BesovParams) -> float:
    """_level_operand in one array pass over the level's distinct values.

    The pass over the nonzero values gives the float that _operand gives
    from _log2_abs of each value, bit for bit. The trailing zero count low
    of each numerator comes from its isolated low bit: frexp is exact on
    that power of two in int64, and Python ints take bit_length. Then the
    same math.log2 of each odd part, the same float subtraction of
    top - low and the same p log2 + log2(count) follow in float64, and
    math.fsum adds the same terms. np.log2 and np.power are not bit-equal
    to math.log2 and float **, so they stay out. The arrays are reused in
    place, so a level holds few temporaries.
    """
    nums, counts, top = summary.numerator_array()
    keep = nums != 0
    if not keep.all():
        nums, counts = nums[keep], list(compress(counts, keep.tolist()))
    if not nums.size:
        return 0.0
    low = -nums
    low &= nums
    if nums.dtype == object:
        low = np.fromiter(map(int.bit_length, low.tolist()), np.int64, len(low))
    else:
        low = np.frexp(low.astype(np.float64))[1]
    low -= 1
    nums >>= low
    np.absolute(nums, out=nums)
    log2s = np.fromiter(map(math.log2, nums.tolist()), np.float64, len(nums))
    log2s -= top - low
    weight = (summary.j1 + summary.j2) * (params.r - params.inv_p + 1.0)
    p = params.p
    if p == INF:
        return 2.0 ** (weight + float(log2s.max()))
    # Python floats overflow to inf and give nan for inf - inf without a
    # warning; so do these, and _combine rejects what comes of it
    with np.errstate(over="ignore", invalid="ignore"):
        log2s *= p
        log2s += np.fromiter(map(math.log2, counts), np.float64, len(counts))
        peak = float(log2s.max())
        log2s -= peak
    total = math.fsum(map((2.0).__pow__, log2s.tolist()))
    return 2.0 ** (weight + (peak + math.log2(total)) / p)


def _operand(level: int, log2s, params: BesovParams) -> float:
    """Weight 2^(level (r - 1/p + 1)) times the l_p norm of the values.

    log2s holds (log2 |value|, multiplicity) pairs. Assembled in log2 space
    so deep levels cannot underflow prematurely. math.fsum rounds the sum of
    the contributions once, so their order never changes the result. The
    per-value route, and the oracle of _array_operand.
    """
    p = params.p
    logs = [
        log2 if p == INF else p * log2 + math.log2(count) for log2, count in log2s
    ]
    if not logs:
        return 0.0
    weight = level * (params.r - params.inv_p + 1.0)
    if p == INF:
        return 2.0 ** (weight + max(logs))
    top = max(logs)
    total = math.fsum(2.0 ** (entry - top) for entry in logs)
    return 2.0 ** (weight + (top + math.log2(total)) / p)


def _level_operands(points: PointMultiset, j_max: int, params: BesovParams):
    """(j1, j2, operand) for every level pair in [-1, j_max]^2, lexicographically.

    A multiset that is_transpose_invariant has the same summary on (j2, j1)
    as on (j1, j2), and an operand reads only the summary and j1 + j2, so
    each pair j1 > j2 copies the operand of (j2, j1), which comes first.
    """
    levels = range(-1, j_max + 1)
    mirror = is_transpose_invariant(points)
    operands = {}
    for j1 in levels:
        for j2 in levels:
            operands[j1, j2] = (operands[j2, j1] if mirror and j2 < j1 else
                                _level_operand(level_value_counts(points, j1, j2), params))
    return [(j1, j2, operand) for (j1, j2), operand in operands.items()]


def level_term(points: PointMultiset, j1: int, j2: int, params: BesovParams) -> float:
    """The (j1, j2) summand of the norm: operand^q, or the operand if q = inf."""
    _require_admissible(params)
    operand = _level_operand(level_value_counts(points, j1, j2), params)
    return operand if params.q == INF else operand**params.q


@dataclass(frozen=True)
class NormBreakdown:
    """Norm value split into the explicit core and the analytic remainder.

    total, core_part and tail_part satisfy total^q = core^q + tail^q (the
    maximum instead when q = inf). per_level holds the core level terms in
    lexicographic order: operand^q summands, or operands themselves for
    q = inf.
    """

    total: float
    core_part: float
    tail_part: float
    per_level: Tuple[Tuple[int, int, float], ...]


def _require_normal(content: float, part: str, params: BesovParams) -> None:
    if not sys.float_info.min <= content < INF:  # a nan fails the comparison too
        raise ValueError(
            f"p = {params.p}, q = {params.q}: the {part} content {content!r} (its l_q sum,"
            " or its maximum at q = inf) is not a finite, normal, positive float, so the"
            " norm would lose its digits"
        )


def _combine(core_operands, tail_content: Optional[float], params: BesovParams) -> NormBreakdown:
    """The breakdown of the core level operands and the tail content, if any.

    Raises ValueError unless the core content and the tail content are
    finite, normal and positive floats: at a large q or p an l_q sum can
    underflow to 0 or to a subnormal, or turn into nan, and the norm would
    print as 0.0, as a few digits or as nan. A core whose operands are all
    exactly 0, because every one of its coefficients is 0, keeps content 0.
    """
    q = params.q
    per_level = tuple((j1, j2, op if q == INF else op**q) for j1, j2, op in core_operands)
    values = [term for _, _, term in per_level]
    if q == INF:
        # max() passes over a nan that does not come first
        core_content = math.nan if any(map(math.isnan, values)) else max(values, default=0.0)
    else:
        core_content = math.fsum(values)
    if any(op != 0.0 for _, _, op in core_operands):
        _require_normal(core_content, "core", params)
    if tail_content is None:
        tail_content = 0.0
    else:
        _require_normal(tail_content, "tail", params)
    if q == INF:
        total = max(core_content, tail_content)
        return NormBreakdown(total, core_content, tail_content, per_level)
    total = (core_content + tail_content) ** (1.0 / q)
    return NormBreakdown(
        total, core_content ** (1.0 / q), tail_content ** (1.0 / q), per_level
    )


def besov_norm_truncated(
    points: PointMultiset, params: BesovParams, j_max: int
) -> NormBreakdown:
    """Plain sum of level terms over -1 <= j1, j2 <= j_max; no tail."""
    _require_admissible(params)
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    return _combine(_level_operands(points, j_max, params), None, params)


def besov_norm_exact(points: PointMultiset, params: BesovParams) -> NormBreakdown:
    """Explicit levels below the coordinate resolution plus closed-form tail.

    Valid because beyond resolution n every position holds only the volume
    coefficient: with x = 2^(q(r-1)) < 1 the quadrant outside [0, n-1]^2
    sums to 2^(-4q) x^n (2 - x^n) / (1-x)^2 and each boundary row to
    2^(q(1/p - r - 4)) x^n / (1 - x); for q = inf the suprema sit at the
    first tail level.
    """
    _require_admissible(params)
    n = points.n_resolution
    q, r, inv_p = params.q, params.r, params.inv_p
    if q == INF:
        quadrant = 2.0 ** (n * (r - 1.0) - 4.0)
        rows = 2.0 ** (n * (r - 1.0) + inv_p - r - 4.0)
        tail = max(quadrant, rows)
    else:
        x = 2.0 ** (q * (r - 1.0))
        quadrant = 2.0 ** (-4.0 * q) * x**n * (2.0 - x**n) / (1.0 - x) ** 2
        rows = 2.0 * 2.0 ** (q * (inv_p - r - 4.0)) * x**n / (1.0 - x)
        tail = quadrant + rows
    return _combine(_level_operands(points, n - 1, params), tail, params)


def scaling_ratio(
    rows: Sequence[Tuple[int, float]], params: BesovParams
) -> List[Tuple[int, float]]:
    """Norms divided by N^(r-1) (log2 N)^(1/q); the log factor is 1 at q = inf."""
    out = []
    for count, norm in rows:
        if count < 2:
            raise ValueError("scaling ratios need N >= 2")
        log_factor = 1.0 if params.q == INF else math.log2(count) ** (1.0 / params.q)
        out.append((count, norm / (count ** (params.r - 1.0) * log_factor)))
    return out
