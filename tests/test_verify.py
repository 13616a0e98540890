"""The exact-identity suites pass on honest inputs and catch corruption."""

import pytest

from dyadisc import SignPattern, dyadic
from dyadisc import verify
from dyadisc.cli import main
from dyadisc.dyadic import ZERO
from dyadisc.haar import ABS_UPPER_BOUND, EXACT_VALUE, CoefficientPrediction
from dyadisc.verify import (
    SUITES,
    check_counting_sums,
    check_davenport_rows,
    check_net_property,
    check_symmetrized_coefficients,
    run_suites,
)

PRESETS = ("identity", "all-flip", "alternating", "random")


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

    (-1,-1) holds 0, not 1/2; (0,0) holds 1/2^6 in its one box, above a
    band bound of 0; the 16 boxes of (2,2) are all empty and hold -1/2^12,
    above a band bound of 1/2^20.
    """
    honest = verify.predict_symmetrized
    wrong = {
        (-1, -1): CoefficientPrediction(EXACT_VALUE, dyadic(1, 1)),
        (0, 0): CoefficientPrediction(ABS_UPPER_BOUND, ZERO),
        (2, 2): CoefficientPrediction(ABS_UPPER_BOUND, dyadic(1, 20)),
    }

    def predict(n, idx, sigma=None):
        return wrong.get(idx.levels) or honest(n, idx, sigma)

    monkeypatch.setattr(verify, "predict_symmetrized", predict)


def test_coefficient_suite_reports_violations(monkeypatch):
    n = 2
    honest = check_symmetrized_coefficients(n, SignPattern.identity(n))
    _violated_predictions(monkeypatch)
    report = check_symmetrized_coefficients(n, SignPattern.identity(n))
    # (0,0) and (2,2) join the band: one deviating-count check each
    assert report.checked == honest.checked + 2
    assert report.failures == 1 + 1 + 16
    assert not report.passed
    failing = [note for note in report.notes if not note.startswith("observed sign")]
    assert failing == [
        "level (-1,-1): occupied value 0 vs "
        "CoefficientPrediction(kind='exact-value', value=DyadicRational(1, 1))",
        "level (0,0): occupied value 1/2^6 vs "
        "CoefficientPrediction(kind='abs-upper-bound', value=DyadicRational(0, 0))",
        "level (2,2): empty value -1/2^12 vs "
        "CoefficientPrediction(kind='abs-upper-bound', value=DyadicRational(1, 20))",
    ]


def test_cli_verify_fails_on_violations(monkeypatch, capsys):
    _violated_predictions(monkeypatch)
    code = main(["verify", "--n", "2", "--sigma", "identity"])
    err = capsys.readouterr().err
    assert code == 1
    fail_lines = [line for line in err.splitlines() if line.startswith("FAIL ")]
    levels = [line.split(": ")[1] for line in fail_lines if ": level (" in line]
    assert levels == ["level (-1,-1)", "level (0,0)", "level (2,2)"]
    assert all(line.startswith("FAIL coefficients n=2 identity: ") for line in fail_lines)
    assert "18 failures" in err


def test_observed_signs_recorded():
    report = check_symmetrized_coefficients(3, SignPattern.identity(3))
    assert any("observed sign" in note for note in report.notes)


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
