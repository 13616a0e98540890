"""Exact verification suites for the predicted coefficient structure.

Each suite rebuilds its point set from (n, sign pattern), computes every
Haar coefficient in scope through the level-scan engine, and compares with
the closed-form predictions at zero tolerance. Coefficients are covered
sparsely but completely: positions hit by points are checked one by one,
and all remaining positions of a level share a single provable value, so
one comparison covers them all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple, Union

from .dyadic import dyadic
from .haar import (
    ABS_UPPER_BOUND,
    EXACT_ABS,
    CoefficientPrediction,
    HaarIndex,
    level_counting_sums,
    level_value_counts,
    low_level_sign,
    predict_davenport,
    predict_symmetrized,
)
from .pointsets import (
    SignPattern,
    hammersley_type,
    is_net,
    symmetrize_davenport,
    symmetrize_full,
)

__all__ = [
    "CheckReport",
    "check_symmetrized_coefficients",
    "check_davenport_rows",
    "check_counting_sums",
    "check_net_property",
    "run_suites",
    "SUITES",
]

SUITES = ("coefficients", "davenport-rows", "counting-sums", "net")


@dataclass
class CheckReport:
    """Outcome of one suite run: counts plus the first few failure notes."""

    suite: str
    n: int
    sigma: str
    checked: int = 0
    failures: int = 0
    notes: List[str] = field(default_factory=list)

    def record(self, ok: bool, note: Union[str, Callable[[], str]] = "", count: int = 1):
        """Count a check; note is a string, or a function called only on failure."""
        self.checked += count
        if not ok:
            self.failures += count
            if note and len(self.notes) < 8:
                self.notes.append(note() if callable(note) else note)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _level_matches(report: CheckReport, summary, prediction, note: str):
    """Compare every coefficient of a level against one prediction.

    check only compares by ==, abs and <=, so it reads the same on
    numerators over a common power of two as on the values. Returns the
    occupied and empty numerators.
    """
    target = prediction.value
    occupied, empty, top = summary.numerators(target.exponent)
    scaled = CoefficientPrediction(prediction.kind, target.mantissa << (top - target.exponent))
    for value, count in zip(occupied, summary.counts.tolist()):
        report.record(
            scaled.check(value),
            lambda: f"{note}: occupied value {dyadic(value, top)} vs {prediction}",
            count,
        )
    if summary.empty_boxes:
        report.record(
            scaled.check(empty),
            lambda: f"{note}: empty value {summary.empty_value} vs {prediction}",
            summary.empty_boxes,
        )
    return occupied, empty


def check_symmetrized_coefficients(
    n: int, sigma: SignPattern, extra_levels: int = 2, label: str = ""
) -> CheckReport:
    """All coefficients of the fully symmetrized set on levels up to n + extra.

    Low levels are checked against the exact signed value, the diagonal band
    against the magnitude bound together with the cap on positions deviating
    from the empty-box value, and everything else against exact magnitudes
    or exact zeros. Observed signs of the magnitude-only cases are recorded.
    """
    report = CheckReport("coefficients", n, label or "custom")
    points = symmetrize_full(hammersley_type(n, sigma))
    cap = len(points)
    sign_notes = set()
    for j1 in range(-1, n + extra_levels + 1):
        for j2 in range(-1, n + extra_levels + 1):
            prediction = predict_symmetrized(n, HaarIndex(j1, j2, 0, 0), sigma)
            summary = level_value_counts(points, j1, j2)
            note = f"level ({j1},{j2})"
            occupied, empty = _level_matches(report, summary, prediction, note)
            if prediction.kind == ABS_UPPER_BOUND:
                # diagonal band: also cap the positions deviating from the empty value
                deviating = sum(
                    count
                    for value, count in zip(occupied, summary.counts.tolist())
                    if value != empty
                )
                report.record(
                    deviating <= cap,
                    lambda: f"{note}: {deviating} deviating positions exceed {cap}",
                )
            elif prediction.kind == EXACT_ABS and prediction.value:
                for value in occupied:
                    sign_notes.add(("occupied", j1 >= n or j2 >= n, value > 0))
                if summary.empty_boxes:
                    sign_notes.add(("empty", j1 >= n or j2 >= n, empty > 0))
    for kind, high, positive in sorted(sign_notes):
        report.notes.append(
            f"observed sign {'+' if positive else '-'} on {kind} boxes "
            f"({'level >= n' if high else 'mixed row'})"
        )
    return report


def check_davenport_rows(n: int, sigma: SignPattern, label: str = "") -> CheckReport:
    """Exact coefficients of the single-axis symmetrization on (-1, *) rows."""
    report = CheckReport("davenport-rows", n, label or "custom")
    points = symmetrize_davenport(hammersley_type(n, sigma))
    for k in range(-1, n):
        j1, j2 = (-1, k) if k >= 0 else (-1, -1)
        prediction = predict_davenport(n, sigma, HaarIndex(j1, j2, 0, 0))
        summary = level_value_counts(points, j1, j2)
        _level_matches(report, summary, prediction, f"row (-1,{k})")
    return report


def check_counting_sums(n: int, sigma: SignPattern, label: str = "") -> CheckReport:
    """Tent-sum identities over the base set, every box, exhaustively.

    Single-axis sums must equal 2^(n-j1-j2-1) whenever j1 + j2 < n; the
    product sum must equal 2^(n-j1-j2-2) + eps 2^(j1+j2-n) for j1 + j2 < n-1
    with the endpoint sign law of :func:`low_level_sign`.
    """
    report = CheckReport("counting-sums", n, label or "custom")
    points = hammersley_type(n, sigma)
    for j1 in range(n):
        for j2 in range(n - j1):
            (_, sums_x), (_, sums_y), (_, sums_xy) = level_counting_sums(points, j1, j2)
            boxes = 1 << (j1 + j2)
            # integer targets at the scan's fixed scales
            single_x = 1 << (2 * n - 2 * j1 - j2 - 2)
            single_y = 1 << (2 * n - j1 - 2 * j2 - 2)
            note = f"level ({j1},{j2})"
            report.record(
                len(sums_x) == boxes and bool((sums_x == single_x).all()),
                lambda: f"{note}: x-sums differ from 2^(n-j1-j2-1)",
                boxes,
            )
            report.record(
                len(sums_y) == boxes and bool((sums_y == single_y).all()),
                lambda: f"{note}: y-sums differ from 2^(n-j1-j2-1)",
                boxes,
            )
            if j1 + j2 < n - 1:
                eps = low_level_sign(sigma, j1, j2)
                product = (1 << (3 * n - 2 * (j1 + j2) - 4)) + eps * (1 << (n - 2))
                report.record(
                    len(sums_xy) == boxes and bool((sums_xy == product).all()),
                    lambda: f"{note}: product sums differ from 2^(n-j1-j2-2) + eps 2^(j1+j2-n)",
                    boxes,
                )
    return report


def check_net_property(n: int, sigma: SignPattern, label: str = "") -> CheckReport:
    report = CheckReport("net", n, label or "custom")
    report.record(is_net(hammersley_type(n, sigma), n), "net property violated")
    return report


_CHECKS = {
    "coefficients": check_symmetrized_coefficients,
    "davenport-rows": check_davenport_rows,
    "counting-sums": check_counting_sums,
    "net": check_net_property,
}


def run_suites(
    n_min: int,
    n_max: int,
    presets: Tuple[str, ...],
    seed: int = 7,
    suites: Tuple[str, ...] = SUITES,
) -> List[CheckReport]:
    """All requested suites over an n-range and sigma presets."""
    reports = []
    for n in range(n_min, n_max + 1):
        for preset in presets:
            sigma = SignPattern.from_preset(preset, n, seed=seed)
            for suite in suites:
                reports.append(_CHECKS[suite](n, sigma, label=preset))
    return reports
