"""The exact-identity suites pass on honest inputs and catch corruption."""

import random
from fractions import Fraction

import numpy as np
import pytest

from dyadisc import SignPattern
from dyadisc import verify
from dyadisc.cli import main
from dyadisc.haar import (
    ABS_UPPER_BOUND,
    EXACT_ABS,
    EXACT_VALUE,
    CoefficientPrediction,
    HaarIndex,
    LevelSummary,
    _value_scale,
    level_value_counts,
    predict_davenport,
    predict_symmetrized,
)
from dyadisc.pointsets import (
    FAMILIES,
    SIGMA_PRESETS,
    PointMultiset,
    build_family,
    symmetrize_full,
)
from dyadisc.verify import (
    SUITES,
    CheckReport,
    check_counting_sums,
    check_davenport_rows,
    check_net_property,
    check_symmetrized_coefficients,
    run_suites,
)

PRESETS = ("identity", "all-flip", "alternating", "random")
INT64_MIN, INT64_MAX = (int(v) for v in (np.iinfo(np.int64).min, np.iinfo(np.int64).max))


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_suites_pass(preset, n):
    sg = SignPattern.from_preset(preset, n, seed=7)
    for check in (
        check_symmetrized_coefficients,
        check_davenport_rows,
        check_counting_sums,
        check_net_property,
    ):
        report = check(n, sg, label=preset)
        assert report.passed, (check.__name__, report.notes)
        assert report.checked > 0


def test_coefficient_counts_cover_all_positions():
    # levels -1..n+2 squared, all positions per level
    n = 2
    report = check_symmetrized_coefficients(n, SignPattern.identity(n))
    boxes = sum(
        (1 if j1 == -1 else 2**j1) * (1 if j2 == -1 else 2**j2)
        for j1 in range(-1, n + 3)
        for j2 in range(-1, n + 3)
    )
    # band levels add one deviating-count check each
    assert report.checked == boxes + _band_count(n)


def _band_count(n):
    return sum(1 for j1 in range(n) for j2 in range(n) if j1 + j2 >= n - 1)


def _violated_predictions(monkeypatch):
    """Predictions the symmetrized set of order 2 violates on three levels.

    (-1,-1) holds 0, not 1/2; (0,0) holds 1/64 in its one box, above a
    band bound of 0; the 16 boxes of (2,2) are all empty and hold -1/4096,
    above a band bound of 1/2^20. Each is a (kind, numerator, exponent)
    triple, as the suite reads them.
    """
    honest = verify._symmetrized_prediction
    wrong = {
        (-1, -1): (EXACT_VALUE, 1, 1),
        (0, 0): (ABS_UPPER_BOUND, 0, 0),
        (2, 2): (ABS_UPPER_BOUND, 1, 20),
    }

    def predict(n, j1, j2, sigma=None):
        return wrong.get((j1, j2)) or honest(n, j1, j2, sigma)

    monkeypatch.setattr(verify, "_symmetrized_prediction", predict)


def test_coefficient_suite_reports_violations(monkeypatch):
    n = 2
    honest = check_symmetrized_coefficients(n, SignPattern.identity(n))
    _violated_predictions(monkeypatch)
    report = check_symmetrized_coefficients(n, SignPattern.identity(n))
    # (0,0) and (2,2) join the band: one deviating-count check each
    assert report.checked == honest.checked + 2
    assert report.failures == 1 + 1 + 16
    assert not report.passed
    assert report.notes == [
        "level (-1,-1): occupied value 0 vs "
        "CoefficientPrediction(kind='exact-value', value=Fraction(1, 2))",
        "level (0,0): occupied value 1/64 vs "
        "CoefficientPrediction(kind='abs-upper-bound', value=Fraction(0, 1))",
        "level (2,2): empty value -1/4096 vs "
        "CoefficientPrediction(kind='abs-upper-bound', value=Fraction(1, 1048576))",
    ]


def test_cli_verify_fails_on_violations(monkeypatch, capsys):
    _violated_predictions(monkeypatch)
    code = main(["verify", "--n", "2", "--sigma", "identity"])
    err = capsys.readouterr().err
    assert code == 1
    fail_lines = [line for line in err.splitlines() if line.startswith("FAIL ")]
    assert [line.split(": ")[1] for line in fail_lines] == [
        "level (-1,-1)", "level (0,0)", "level (2,2)",
    ]
    assert all(line.startswith("FAIL coefficients n=2 identity: ") for line in fail_lines)
    assert "18 failures" in err


def test_checker_flags_wrong_structure():
    # feeding the single-axis symmetrization where the full one is expected
    # must fail: its mixed rows are nonzero
    from dyadisc import HaarIndex, mu_discrepancy, predict_symmetrized
    from dyadisc import hammersley_type, symmetrize_davenport

    n = 3
    sg = SignPattern.identity(n)
    dav = symmetrize_davenport(hammersley_type(n, sg))
    pred = predict_symmetrized(n, HaarIndex(-1, -1, 0, 0))
    assert not pred.check(mu_discrepancy(dav, HaarIndex(-1, -1, 0, 0)))


def test_run_suites_aggregates():
    reports = run_suites(1, 3, ("identity", "alternating"))
    assert len(reports) == 3 * 2 * len(SUITES)
    assert all(r.passed for r in reports)


# -- the level check against its per-value reference ------------------------------


def reference_level_matches(report, summary, prediction, note):
    """Compare every distinct value of a level with the prediction, one by one.

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


def as_triple(prediction):
    """A prediction with a dyadic value as the suites' (kind, numerator, exponent)."""
    value = prediction.value
    return prediction.kind, value.numerator, value.denominator.bit_length() - 1


def fast_level_matches(report, summary, prediction, note):
    verify._level_matches(report, summary, as_triple(prediction), note)


def _report_fields(check, summary, prediction):
    report = CheckReport("level", 0, "test")
    check(report, summary, prediction, "level")
    return report.checked, report.failures, report.notes


def assert_same_report(summary, prediction):
    """The vectorised check and the per-value reference give one CheckReport."""
    fast = _report_fields(fast_level_matches, summary, prediction)
    assert fast == _report_fields(reference_level_matches, summary, prediction), (
        summary.j1, summary.j2, prediction)
    return fast


def perturbed_predictions(summary, targets):
    """Each kind at every target, one grid unit of the level above and below it,
    and half a unit above it, off the level's grid."""
    top = _value_scale(summary.j1, summary.j2, summary.scale)[2]
    unit = Fraction(1, 1 << top)
    for target in targets:
        for value in (target, target + unit, target - unit, target + unit / 2):
            yield CoefficientPrediction(EXACT_VALUE, value)
            if value >= 0:
                yield CoefficientPrediction(EXACT_ABS, value)
                yield CoefficientPrediction(ABS_UPPER_BOUND, value)


def level_targets(summary):
    """The level's own extreme values, its empty value, their magnitudes and 0."""
    values = [summary.empty_value, Fraction(0)]
    occupied = summary.occupied_values
    if occupied:
        values += [occupied[0][0], occupied[-1][0]]
    return set(values) | {abs(v) for v in values}


def true_predictions(family, n, sigma, j1, j2):
    """The suites' predictions of a level: the symmetrized family's on every level,
    and on the davenport family's (-1, k) rows with k < n, its own."""
    idx = HaarIndex(j1, j2, 0, 0)
    if family == "davenport" and j1 == -1 and j2 < n:
        return [predict_davenport(n, sigma, idx)]
    return [predict_symmetrized(n, idx, sigma)]


@pytest.mark.parametrize("family", FAMILIES)
def test_level_check_matches_reference(family):
    # every level of the family at n <= 6 under the suites' predictions, which
    # the other two families miss on many levels, and at n <= 3 also under
    # perturbed ones; on the reflected axes one failing folded sum counts 2 or
    # 4 boxes
    mirrored_failures = set()
    for n in range(1, 7):
        for preset in ("identity", "random"):
            sigma = SignPattern.from_preset(preset, n, seed=3)
            points = build_family(family, n, sigma)
            for j1 in range(-1, n + 3):
                for j2 in range(-1, n + 3):
                    summary = level_value_counts(points, j1, j2)
                    predictions = true_predictions(family, n, sigma, j1, j2)
                    if n <= 3:
                        predictions += perturbed_predictions(
                            summary, level_targets(summary) | {predictions[0].value})
                    for prediction in predictions:
                        _, failures, _ = assert_same_report(summary, prediction)
                        if failures and summary.sums.size:
                            mirrored_failures.add(sum(summary.mirrored))
    assert mirrored_failures == {
        "hammersley": {0}, "davenport": {0, 1}, "symmetrized": {0, 1, 2}}[family]


class GuardedSums(np.ndarray):
    """An int64 sums array that fails on a comparison with an int past int64."""

    def _guarded(name):
        def compare(self, other):
            if isinstance(other, int) and not INT64_MIN <= other <= INT64_MAX:
                raise AssertionError(f"int64 sums compared with {other}")
            return getattr(np.asarray(self), name)(other)
        return compare

    __eq__, __ne__, __lt__, __le__, __gt__, __ge__ = map(
        _guarded, ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"))


@pytest.mark.parametrize("res", [31, 33])
def test_level_check_matches_reference_past_int64(res):
    # a full symmetrization at res >= 31: sums in Python ints on the low
    # levels and int64 above them. The targets +-1 and +-2^70 lie far past
    # int64 in sum units; on int64 sums they are clipped or dropped, never
    # compared, as numpy 1.24 and numpy 2 compare such ints differently
    rng = random.Random(res)
    base = PointMultiset._from_scaled(
        [rng.randrange(1 << res) for _ in range(8)],
        [rng.randrange(1 << res) for _ in range(8)], res)
    points = symmetrize_full(base)
    dtypes = set()
    for j1, j2 in ((-1, -1), (-1, 0), (0, 0), (0, 3), (1, 1), (2, 3), (5, 7), (res - 1, 2)):
        summary = level_value_counts(points, j1, j2)
        dtypes.add(summary.sums.dtype)
        if summary.sums.dtype == np.int64:
            summary.sums = summary.sums.view(GuardedSums)
            scale = _value_scale(j1, j2, summary.scale)
            [(lo, hi)] = verify._sum_ranges(ABS_UPPER_BOUND, 1, 0, *scale)
            assert lo < INT64_MIN and hi > INT64_MAX, (j1, j2)
        targets = level_targets(summary) | {Fraction(1), Fraction(1 << 70)}
        for prediction in perturbed_predictions(summary, targets):
            assert_same_report(summary, prediction)
    assert dtypes == {np.dtype(object), np.dtype(np.int64)}


def test_passing_run_builds_no_per_value_objects(monkeypatch):
    # a passing level reads the scan's sums and the integer predictions only:
    # no value view of the summary, no HaarIndex or CoefficientPrediction,
    # and no Fraction built inside verify
    def refuse(name):
        def build(*args, **kwargs):
            raise AssertionError(f"verify built {name}{args}")
        return build

    monkeypatch.setattr(verify, "Fraction", refuse("Fraction"))
    for cls in (HaarIndex, CoefficientPrediction):
        monkeypatch.setattr(cls, "__post_init__", refuse(cls.__name__))
    views = []
    view = LevelSummary.__getattr__

    def spy(summary, name):
        views.append(name)
        return view(summary, name)

    monkeypatch.setattr(LevelSummary, "__getattr__", spy)
    reports = run_suites(1, 8, SIGMA_PRESETS)
    assert all(report.passed for report in reports)
    assert views == []
