"""Exact verification suites for the predicted coefficient structure.

Each suite rebuilds its point set from (n, sign pattern), computes every
Haar coefficient in scope through the level-scan engine, and compares with
the closed-form predictions at zero tolerance. Coefficients are covered
sparsely but completely: the prediction, an integer triple from haar, is
brought to the integer units of the level scan's sums once per level, the
positions hit by points are checked together by one mask over those sums,
and all remaining positions of a level share a single provable value, so
one comparison covers them all. A passing level reads no value view of its
LevelSummary and builds no Fraction and no prediction object; a failing one
builds them for its notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Tuple, Union

import numpy as np

from .haar import (
    ABS_UPPER_BOUND,
    EXACT_ABS,
    EXACT_VALUE,
    _davenport_prediction,
    _prediction,
    _signed_counting_sums,
    _symmetrized_prediction,
    _value_scale,
    level_value_counts,
    low_level_sign,
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
_INT64_MIN, _INT64_MAX = (int(v) for v in (np.iinfo(np.int64).min, np.iinfo(np.int64).max))


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


def _sum_ranges(kind: str, numerator: int, exponent: int, shift: int, empty: int,
                top: int) -> List[Tuple[int, int]]:
    """The values a prediction admits, as inclusive ranges of a level's integer sums.

    A sum s stands for the value ((s << shift) + empty) / 2^top (see
    haar._value_scale). The prediction t = numerator / 2^e, e = exponent,
    admits the value t itself, +-t or [-t, t]; with p = numerator 2^top
    each such [a, b] reads
    (a - empty 2^e) / 2^(shift + e) <= s <= (b - empty 2^e) / 2^(shift + e),
    and its ends are taken as exact integer ceiling and floor. A target off
    the level's grid leaves an empty range, which is dropped.
    """
    p = numerator << top
    if kind == EXACT_VALUE:
        bounds = {(p, p)}
    elif kind == EXACT_ABS:
        bounds = {(p, p), (-p, -p)}
    else:
        bounds = {(-p, p)}
    d, base = 1 << (shift + exponent), empty << exponent
    ranges = [(-((base - a) // d), (b - base) // d) for a, b in bounds]
    return [(lo, hi) for lo, hi in ranges if lo <= hi]


def _level_matches(report: CheckReport, summary, prediction: Tuple[str, int, int], note: str):
    """Compare every coefficient of a level against one (kind, numerator, exponent) prediction.

    A level whose least and greatest sums lie in one of the prediction's
    ranges from _sum_ranges passes whole. Any other level takes one mask
    over the scan's own sums, in their dtype, against every range: on int64
    sums a range is clipped to int64 first, and one wholly past it dropped,
    so no Python int beyond int64 meets an int64 array. The empty value is
    the sum 0 of those ranges, checked on Python ints. A folded sum counts
    2^(mirrored axes) boxes. Only failing sums are grouped, by np.unique,
    for their notes: ascending occupied values, then the empty value.
    """
    shift, empty, top = _value_scale(summary.j1, summary.j2, summary.scale)
    ranges = _sum_ranges(*prediction, shift, empty, top)
    sums = summary.sums
    if sums.size:
        least, greatest = int(sums.min()), int(sums.max())
        if any(lo <= least and greatest <= hi for lo, hi in ranges):
            report.record(True, count=summary.occupied_boxes)
        else:
            scan_ranges = ranges
            if sums.dtype != object:
                scan_ranges = [(max(lo, _INT64_MIN), min(hi, _INT64_MAX)) for lo, hi in ranges
                               if lo <= _INT64_MAX and hi >= _INT64_MIN]
            ok = np.zeros(sums.shape, bool)
            for lo, hi in scan_ranges:
                ok |= (sums == lo) if lo == hi else (sums >= lo) & (sums <= hi)
            mirror = sum(summary.mirrored)
            failing = sums[~ok]
            report.record(True, count=(len(sums) - len(failing)) << mirror)
            accs, counts = np.unique(failing, return_counts=True)
            for acc, count in zip(accs.tolist(), counts.tolist()):
                report.record(
                    False,
                    lambda: f"{note}: occupied value"
                            f" {Fraction((acc << shift) + empty, 1 << top)}"
                            f" vs {_prediction(*prediction)}",
                    count << mirror,
                )
    if summary.empty_boxes:
        report.record(
            any(lo <= 0 <= hi for lo, hi in ranges),
            lambda: f"{note}: empty value {Fraction(empty, 1 << top)}"
                    f" vs {_prediction(*prediction)}",
            summary.empty_boxes,
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
            prediction = _symmetrized_prediction(n, j1, j2, sigma)
            summary = level_value_counts(points, j1, j2)
            note = f"level ({j1},{j2})"
            _level_matches(report, summary, prediction, note)
            if prediction[0] == ABS_UPPER_BOUND:
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
        summary = level_value_counts(points, -1, k)
        _level_matches(report, summary, _davenport_prediction(n, sigma, k), f"row (-1,{k})")
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
            keys, sums_x, sums_y, sums_xy = _signed_counting_sums(points, j1, j2)
            boxes = 1 << (j1 + j2)
            every_box = len(keys) == boxes  # the three sums share their keys
            # integer targets at the scan's fixed scales, signed as its tents
            targets = [
                (sums_x, -1 << (2 * n - 2 * j1 - j2 - 2), "x-sums differ from 2^(n-j1-j2-1)"),
                (sums_y, -1 << (2 * n - j1 - 2 * j2 - 2), "y-sums differ from 2^(n-j1-j2-1)"),
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
