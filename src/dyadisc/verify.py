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
from fractions import Fraction
from typing import Callable, List, Tuple, Union

from .haar import (
    ABS_UPPER_BOUND,
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

_EXTRA_LEVELS = 2  # levels past n that the coefficients suite checks on each axis


@dataclass
class CheckReport:
    """Outcome of one suite run: counts and the first few failure notes."""

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

    check only compares by ==, abs and <=, so it reads the same on the
    values and the prediction brought to one scale 2^(top + e): the value
    num / 2^top as num << e, the prediction a / 2^e as a << top. The level's
    values come occupied first, then the empty value.
    """
    target = prediction.value
    e = target.denominator.bit_length() - 1
    nums, counts, top = summary.numerators()
    scaled = CoefficientPrediction(prediction.kind, target.numerator << top)
    occupied = len(summary.accs)
    for i, (value, count) in enumerate(zip(nums, counts)):
        report.record(
            scaled.check(value << e),
            lambda: f"{note}: {'occupied' if i < occupied else 'empty'} value"
                    f" {Fraction(value, 1 << top)} vs {prediction}",
            count,
        )


def check_symmetrized_coefficients(n: int, sigma: SignPattern, label: str = "") -> CheckReport:
    """All coefficients of the fully symmetrized set on levels up to n + _EXTRA_LEVELS.

    Low levels are checked against the exact signed value, the diagonal band
    against the magnitude bound together with the cap on positions deviating
    from the empty-box value, and everything else against exact magnitudes
    or exact zeros.
    """
    report = CheckReport("coefficients", n, label or "custom")
    points = symmetrize_full(hammersley_type(n, sigma))
    cap = len(points)
    for j1 in range(-1, n + _EXTRA_LEVELS + 1):
        for j2 in range(-1, n + _EXTRA_LEVELS + 1):
            prediction = predict_symmetrized(n, HaarIndex(j1, j2, 0, 0), sigma)
            summary = level_value_counts(points, j1, j2)
            note = f"level ({j1},{j2})"
            _level_matches(report, summary, prediction, note)
            if prediction.kind == ABS_UPPER_BOUND:
                # diagonal band: also cap the positions off the empty value, the occupied ones
                report.record(
                    summary.occupied_boxes <= cap,
                    lambda: f"{note}: {summary.occupied_boxes} deviating positions exceed {cap}",
                )
    return report


def check_davenport_rows(n: int, sigma: SignPattern, label: str = "") -> CheckReport:
    """Exact coefficients of the single-axis symmetrization on (-1, *) rows."""
    report = CheckReport("davenport-rows", n, label or "custom")
    points = symmetrize_davenport(hammersley_type(n, sigma))
    for k in range(-1, n):
        prediction = predict_davenport(n, sigma, HaarIndex(-1, k, 0, 0))
        summary = level_value_counts(points, -1, k)
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
            (keys, sums_x), (_, sums_y), (_, sums_xy) = level_counting_sums(points, j1, j2)
            boxes = 1 << (j1 + j2)
            every_box = len(keys) == boxes  # the three sums share their keys
            # integer targets at the scan's fixed scales
            targets = [
                (sums_x, 1 << (2 * n - 2 * j1 - j2 - 2), "x-sums differ from 2^(n-j1-j2-1)"),
                (sums_y, 1 << (2 * n - j1 - 2 * j2 - 2), "y-sums differ from 2^(n-j1-j2-1)"),
            ]
            if j1 + j2 < n - 1:
                eps = low_level_sign(sigma, j1, j2)
                product = (1 << (3 * n - 2 * (j1 + j2) - 4)) + eps * (1 << (n - 2))
                targets.append(
                    (sums_xy, product, "product sums differ from 2^(n-j1-j2-2) + eps 2^(j1+j2-n)")
                )
            for sums, target, what in targets:
                report.record(
                    every_box and bool((sums == target).all()),
                    lambda: f"level ({j1},{j2}): {what}",
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
SUITES = tuple(_CHECKS)


def run_suites(
    n_min: int, n_max: int, presets: Tuple[str, ...], seed: int = 7
) -> List[CheckReport]:
    """Every suite of SUITES over an n-range and sigma presets."""
    reports = []
    for n in range(n_min, n_max + 1):
        for preset in presets:
            sigma = SignPattern.from_preset(preset, n, seed=seed)
            for suite in SUITES:
                reports.append(_CHECKS[suite](n, sigma, label=preset))
    return reports
