"""Acceptance gate: one test per criterion, one printed verdict line each.

Exact-identity criteria run at zero tolerance (dyadic equality); rate
criteria are property checks with the stated bands. Criterion 6 derives its
thresholds in closed form; its docstring gives the derivation.
"""

import math
import time
from fractions import Fraction

from dyadisc import (
    BesovParams,
    SignPattern,
    besov_norm_exact,
    besov_norm_truncated,
    build_family,
    corner_product,
    grid_indices,
    hammersley_type,
    is_net,
    l2_warnock,
    lp_exact_even,
    mu_discrepancy,
    mu_grid,
    oracle_mu,
    oracle_mu_grid,
    qmc_integrate,
    scaling_ratio,
    symmetrize_davenport,
    symmetrize_full,
    validate,
)
from dyadisc.verify import (
    check_counting_sums,
    check_davenport_rows,
    check_symmetrized_coefficients,
)

PRESETS = ("identity", "all-flip", "alternating", "random")
SEED = 7
INF = math.inf

# criterion-5 parameter grid: admissible (p, q, r) combinations
RATE_GRID = [
    (p, q, r)
    for (p, q) in [(1, 2), (2, 2), (2, INF), (INF, 2)]
    for r in (-0.4, -0.2, 0.0, 0.2)
    if validate(BesovParams(p, q, r)).admissible
]


def sigma(preset, n):
    return SignPattern.from_preset(preset, n, seed=SEED)


def _verdict(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


_symmetrized_cache = {}


def _symmetrized(n, preset="identity"):
    key = (n, preset)
    if key not in _symmetrized_cache:
        _symmetrized_cache[key] = symmetrize_full(hammersley_type(n, sigma(preset, n)))
    return _symmetrized_cache[key]


def test_criterion_1_coefficient_classification():
    started = time.time()
    checked = failures = 0
    for n in range(1, 13):
        for preset in PRESETS:
            report = check_symmetrized_coefficients(n, sigma(preset, n), label=preset)
            checked += report.checked
            failures += report.failures
            assert report.passed, (n, preset, report.notes)
    elapsed = time.time() - started
    _verdict(
        1,
        failures == 0 and elapsed < 120,
        f"all coefficients match on levels -1..n+2, n <= 12, 4 presets "
        f"({checked} checks, {failures} failures, {elapsed:.1f}s)",
    )


def test_criterion_2_davenport_rows():
    checked = failures = 0
    for n in range(1, 13):
        for preset in PRESETS:
            report = check_davenport_rows(n, sigma(preset, n), label=preset)
            checked += report.checked
            failures += report.failures
            assert report.passed, (n, preset, report.notes)
    _verdict(
        2,
        failures == 0,
        f"exact (-1,*) row coefficients of the two-fold symmetrization, "
        f"n <= 12 ({checked} checks)",
    )


def test_criterion_3_counting_sums():
    # literal statement (fixed positive product deviation) on the uniform
    # patterns where it is exact; the generalized signed identity on all
    # presets. tests/test_haar.py::test_low_level_sign_alternating_counterexample
    # holds the counterexample that forces the sign-aware form.
    checked = failures = 0
    for n in range(1, 13):
        for preset in PRESETS:
            report = check_counting_sums(n, sigma(preset, n), label=preset)
            checked += report.checked
            failures += report.failures
            assert report.passed, (n, preset, report.notes)
    from dyadisc import low_level_sign

    for n in range(2, 13):
        for preset in ("identity", "all-flip"):
            sg = sigma(preset, n)
            for j1 in range(n):
                for j2 in range(n - 1 - j1):
                    assert low_level_sign(sg, j1, j2) == 1  # literal "+" form holds
    _verdict(
        3,
        failures == 0,
        f"counting sums exact for n <= 12, all presets ({checked} boxes; "
        f"uniform patterns verify the literal positive-sign statement)",
    )


def test_criterion_4_oracle_equivalence():
    families = ("hammersley", "davenport", "symmetrized")
    compared = 0
    for n in range(1, 7):
        for preset in PRESETS:
            for family in families:
                points = build_family(family, n, sigma(preset, n))
                grid = mu_grid(points, 6)
                oracle_grid = oracle_mu_grid(points, 6)
                assert grid == oracle_grid, (n, preset, family)
                compared += len(grid)
    # tie the batch tables to the per-index operations
    import random

    rng = random.Random(2024)
    for n in (1, 2):
        for preset in PRESETS:
            for family in families:
                points = build_family(family, n, sigma(preset, n))
                grid = dict(zip(grid_indices(6), mu_grid(points, 6), strict=True))
                for idx, value in grid.items():
                    assert mu_discrepancy(points, idx) == value
                    assert oracle_mu(points, idx) == value
                compared += 2 * len(grid)
    for n in (3, 4, 5, 6):
        points = build_family("symmetrized", n, sigma("random", n))
        grid = dict(zip(grid_indices(6), mu_grid(points, 6), strict=True))
        sample = rng.sample(sorted(grid, key=str), 40)
        for idx in sample:
            assert mu_discrepancy(points, idx) == grid[idx]
            assert oracle_mu(points, idx) == grid[idx]
        compared += 2 * len(sample)
    _verdict(
        4,
        True,
        f"tent-formula and antiderivative routes agree exactly on all "
        f"indices with levels <= 6, n <= 6, 4 presets, 3 families "
        f"({compared} comparisons)",
    )


def test_criterion_5_ratio_boundedness():
    bands = {}
    for p, q, r in RATE_GRID:
        params = BesovParams(p, q, r)
        rows = []
        for n in range(4, 15):
            points = _symmetrized(n)
            rows.append((len(points), besov_norm_exact(points, params).total))
        ratios = [value for _, value in scaling_ratio(rows, params)]
        bands[(p, q, r)] = max(ratios) / min(ratios)
    worst = max(bands.values())
    ok = worst <= 4
    _verdict(
        5,
        ok,
        f"ratio bands over n = 4..14 for {len(bands)} admissible (p,q,r): "
        f"worst max/min = {worst:.3f} <= 4",
    )


def test_criterion_6_negative_smoothness_separation():
    """For r < 0 the two-fold ratio grows without bound; the four-fold stays banded.

    The two-fold set has N = 2^(n+1) points and its constant-index (-1, -1)
    coefficient is exactly 2^-(n+2) = 1/(2N). With the level weight
    2^(-2(r - 1/p + 1)) that index alone contributes the operand
    c(n) = 2^(-2(r - 1/p + 1)) 2^-(n+2) to the norm, so the scaling ratio,
    which divides by the optimal rate N^(r-1) (log2 N)^(1/q), is at least

        L(n) = c(n) / (N^(r-1) (log2 N)^(1/q)),

    because every other level term and the tail are nonnegative. At
    (p, q, r) = (2, 2, -0.3), L(n) = 2^-1.4 N^0.3 / sqrt(log2 N), which grows
    without bound. Writing s(n) for the constant index's share of the
    squared norm, ratio(n) = L(n) / sqrt(s(n)). That share rises with n
    (about 0.58 at n = 6 and 0.70 at n = 14), so the ratio grows by less
    than the constant term: ratio(14)/ratio(6) stays below
    L(14)/L(6) = 2^2.4 sqrt(7/15) ~ 3.61, and a growth factor of 4 between
    n = 6 and n = 14 is out of reach for any correct norm under this
    normalisation. The test asserts

    (a) the (-1, -1) level term equals c(n)^q to float rounding;
    (b) ratio(n) >= L(n) for n = 6, 14, 16, the unbounded growth;
    (c) ratio(14)/ratio(6) exceeds the four-fold family's max/min band over
        n = 4..14, the statistic criterion 5 bounds;

    and, as before, ratio(16)/ratio(6) >= 4 and a four-fold band <= 4.
    """
    params = BesovParams(2, 2, -0.3)
    q, r = params.q, params.r
    ratios, floors = {}, {}
    for n in (6, 14, 16):
        points = symmetrize_davenport(hammersley_type(n, sigma("identity", n)))
        count = len(points)
        assert count == 2 ** (n + 1)
        breakdown = besov_norm_exact(points, params)
        ((_, ratios[n]),) = scaling_ratio([(count, breakdown.total)], params)

        constant = 2.0 ** (-2 * (r - params.inv_p + 1)) * 2.0 ** -(n + 2)
        terms = {(j1, j2): term for j1, j2, term in breakdown.per_level}
        assert (-1, -1) in terms, f"n = {n}: constant index missing from the core"
        assert math.isclose(terms[(-1, -1)], constant**q, rel_tol=1e-12), (
            f"n = {n}: constant-index term {terms[(-1, -1)]!r}, "
            f"expected {constant**q!r}"
        )
        floors[n] = constant / (count ** (r - 1) * math.log2(count) ** (1 / q))
        assert ratios[n] >= floors[n], (
            f"n = {n}: ratio {ratios[n]:.6f} below its constant-term floor "
            f"{floors[n]:.6f}"
        )
    growth = ratios[14] / ratios[6]

    rt_rows = []
    for n in range(4, 15):
        points = _symmetrized(n)
        rt_rows.append((len(points), besov_norm_exact(points, params).total))
    rt_ratios = [value for _, value in scaling_ratio(rt_rows, params)]
    rt_band = max(rt_ratios) / min(rt_ratios)

    assert ratios[16] / ratios[6] >= 4, "separation failed even at n = 16"
    assert rt_band <= 4, "symmetrized family left the criterion-5 band"

    _verdict(
        6,
        growth > rt_band,
        f"two-fold ratio >= constant-term floor L(n) at n = 6, 14, 16 "
        f"({ratios[6]:.3f} >= {floors[6]:.3f}, {ratios[14]:.3f} >= "
        f"{floors[14]:.3f}, {ratios[16]:.3f} >= {floors[16]:.3f}); "
        f"ratio(14)/ratio(6) = {growth:.3f} (cap L(14)/L(6) = "
        f"{floors[14] / floors[6]:.3f}) > symmetrized band {rt_band:.3f} <= 4; "
        f"ratio(16)/ratio(6) = {ratios[16] / ratios[6]:.3f} >= 4",
    )


def test_criterion_7_qmc_exactness():
    f = corner_product(1, 1)
    checks = 0
    for n in range(1, 17):
        for preset in PRESETS:
            sg = sigma(preset, n)
            base = hammersley_type(n, sg)
            assert qmc_integrate(symmetrize_full(base), f) == Fraction(1, 4)
            dav = qmc_integrate(symmetrize_davenport(base), f)
            assert dav - Fraction(1, 4) == Fraction(1, 2 ** (n + 2))
            checks += 2
    _verdict(
        7,
        True,
        f"corner-product cubature exact: zero error on the full "
        f"symmetrization, error exactly 2^-(n+2) on the two-fold one, "
        f"n <= 16 ({checks} identities)",
    )


def test_criterion_8_l2_agreement_and_rate():
    for family in ("hammersley", "davenport", "symmetrized"):
        for n in range(1, 11):
            points = build_family(family, n, sigma("identity", n))
            assert l2_warnock(points) == lp_exact_even(points, 2), (family, n)
    ratios = []
    for n in range(4, 17):
        points = _symmetrized(n)
        value = math.sqrt(float(l2_warnock(points)))
        ratios.append(value * len(points) / math.sqrt(math.log2(len(points))))
    band = max(ratios) / min(ratios)
    _verdict(
        8,
        band <= 4,
        f"pair-sum identity equals the cell route exactly (3 families, "
        f"n <= 10); L2 rate band over n = 4..16 is {band:.3f} <= 4",
    )


def test_criterion_9_tail_agreement():
    worst = 0.0
    for n in range(1, 11):
        points = _symmetrized(n)
        for p, q, r in RATE_GRID:
            params = BesovParams(p, q, r)
            exact = besov_norm_exact(points, params).total
            truncated = besov_norm_truncated(points, params, n + 40).total
            worst = max(worst, abs(exact - truncated) / exact)
    _verdict(
        9,
        worst <= 1e-9,
        f"closed-form remainder vs 40-level truncation: worst relative "
        f"difference {worst:.2e} <= 1e-9 over the criterion-5 grid, n <= 10",
    )


def test_criterion_10_net_property():
    count = 0
    for n in range(1, 13):
        for preset in PRESETS:
            assert is_net(hammersley_type(n, sigma(preset, n)), n), (n, preset)
            count += 1
    _verdict(10, True, f"base sets place one point per dyadic box ({count} sets)")
