"""Sequence-space quasi-norms of local discrepancies.

The norm aggregates exact Haar coefficient magnitudes: positions of a level
combine in l_p, levels combine in l_q with weights 2^((j1+j2)(r - 1/p + 1)),
with suprema replacing sums for infinite indices. Coefficients enter as
exact integer numerators at a power-of-two scale and become floats only
as the log2 of their odd parts.

For a point set on the 2^-n coordinate grid every level with an axis at
resolution n or finer carries only the volume coefficient, so the infinite
remainder splits into closed geometric sums: the quadrant of nonnegative
level pairs outside [0, n-1]^2 collapses to a function of j1 + j2, and the
two boundary rows are plain geometric series in the level. The truncated
mode sums levels explicitly instead and doubles as the oracle for the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .haar import level_value_counts
from .pointsets import PointMultiset

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
    else:
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


def _level_log2s(summary):
    """(log2 |value|, multiplicity) for every nonzero coefficient value.

    Every value is taken as its exact integer numerator over 2^top.
    """
    occupied, empty, top = summary.numerators()
    for num, count in zip(occupied, summary.counts.tolist()):
        if num:
            yield _log2_abs(num, top), count
    if summary.empty_boxes:
        yield _log2_abs(empty, top), summary.empty_boxes


def _level_operand(summary, params: BesovParams) -> float:
    """2^(weight) times the l_p position aggregate of one level, in floats."""
    return _operand(summary.j1 + summary.j2, _level_log2s(summary), params)


def _operand(level: int, log2s, params: BesovParams) -> float:
    """Weight 2^(level (r - 1/p + 1)) times the l_p norm of the values.

    log2s holds (log2 |value|, multiplicity) pairs. Assembled in log2 space
    so deep levels cannot underflow prematurely; contributions are combined
    largest-first for reproducibility.
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
    total = math.fsum(2.0 ** (entry - top) for entry in sorted(logs, reverse=True))
    return 2.0 ** (weight + (top + math.log2(total)) / p)


def _level_term(points: PointMultiset, j1: int, j2: int, params: BesovParams) -> float:
    operand = _level_operand(level_value_counts(points, j1, j2), params)
    return operand if params.q == INF else operand**params.q


def level_term(points: PointMultiset, j1: int, j2: int, params: BesovParams) -> float:
    """The (j1, j2) summand of the norm: operand^q, or the operand if q = inf."""
    _require_admissible(params)
    return _level_term(points, j1, j2, params)


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


def _combine(core_terms, tail_content: float, params: BesovParams) -> NormBreakdown:
    q = params.q
    per_level = tuple(core_terms)
    values = [term for _, _, term in per_level]
    if q == INF:
        core = max(values, default=0.0)
        total = max(core, tail_content)
        return NormBreakdown(total, core, tail_content, per_level)
    core_content = math.fsum(values)
    total = (core_content + tail_content) ** (1.0 / q)
    return NormBreakdown(
        total, core_content ** (1.0 / q), tail_content ** (1.0 / q), per_level
    )


def _core_terms(points: PointMultiset, j_max: int, params: BesovParams):
    levels = range(-1, j_max + 1)
    return [(j1, j2, _level_term(points, j1, j2, params)) for j1 in levels for j2 in levels]


def besov_norm_truncated(
    points: PointMultiset, params: BesovParams, j_max: int
) -> NormBreakdown:
    """Plain sum of level terms over -1 <= j1, j2 <= j_max; no tail."""
    _require_admissible(params)
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    return _combine(_core_terms(points, j_max, params), 0.0, params)


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
    return _combine(_core_terms(points, n - 1, params), tail, params)


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
