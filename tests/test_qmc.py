"""Cubature identities and rate fitting."""

import math
import random
from fractions import Fraction

import pytest

from dyadisc import (
    FAMILIES,
    ErrorRow,
    PointMultiset,
    SignPattern,
    corner_product,
    dyadic,
    build_family,
    error_table,
    family_integral,
    fit_rate,
    hammersley_moments,
    hammersley_type,
    monomial,
    qmc_integrate,
    symmetrize_davenport,
    symmetrize_full,
)
from dyadisc.qmc import CUSTOM, Integrand

PRESETS = ("identity", "all-flip", "alternating", "random")


def sigma(preset, n):
    return SignPattern.from_preset(preset, n, seed=7)


def test_integrand_integrals():
    assert corner_product(1, 1).exact_integral == Fraction(1, 4)
    assert corner_product(2, 3).exact_integral == Fraction(1, 12)
    assert monomial(4, 0).exact_integral == Fraction(1, 5)
    with pytest.raises(ValueError):
        corner_product(9, 0)


def test_integrand_evaluate_exact():
    f = corner_product(2, 1)
    assert f.evaluate(Fraction(1, 4), Fraction(1, 2)) == Fraction(9, 32)
    g = monomial(2, 2)
    assert g.evaluate(Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 16)


def test_qmc_integrate_matches_brute_force():
    for symmetrize in (symmetrize_full, symmetrize_davenport):
        points = symmetrize(hammersley_type(3, sigma("random", 3)))
        for f in (corner_product(1, 2), monomial(3, 1), corner_product(0, 4)):
            brute = sum(
                f.evaluate(p.x.as_fraction(), p.y.as_fraction()) for p in points
            ) / len(points)
            assert qmc_integrate(points, f) == brute, (symmetrize.__name__, f.name)


def test_exactness_identity_symmetrized():
    f = corner_product(1, 1)
    for preset in PRESETS:
        for n in range(1, 9):
            points = symmetrize_full(hammersley_type(n, sigma(preset, n)))
            assert qmc_integrate(points, f) == Fraction(1, 4)


def test_exactness_identity_davenport():
    f = corner_product(1, 1)
    for preset in PRESETS:
        for n in range(1, 9):
            points = symmetrize_davenport(hammersley_type(n, sigma(preset, n)))
            assert qmc_integrate(points, f) - Fraction(1, 4) == Fraction(1, 2 ** (n + 2))


def grid_multiset(seed, res, size):
    """size random points on the 2^-res grid; 0 and 1 are drawn more often."""
    rng = random.Random(seed)

    def coord():
        return rng.choice((0, 1 << res, rng.randint(0, 1 << res), rng.randint(0, 1 << res)))

    return PointMultiset(
        [(dyadic(coord(), res), dyadic(coord(), res)) for _ in range(size)],
        resolution=res,
    )


@pytest.mark.parametrize("size", (1, 4, 64))
@pytest.mark.parametrize("res", (20, 31, 40, 64))
def test_qmc_integrate_across_guard(res, size):
    # (a + b) * res + N.bit_length() falls on both sides of 62 for every
    # (res, size) as a + b runs over 0..16, for the grid points and for
    # their symmetrizations; at res 64 the coordinates themselves pass
    # int64. A symmetrization is summed over the reflection orbits of its
    # base points, the brute force over every point of its union.
    base = grid_multiset(res * 100 + size, res, size)
    for points in (base, symmetrize_davenport(base), symmetrize_full(base)):
        coords = [(p.x.as_fraction(), p.y.as_fraction()) for p in points]
        for make in (corner_product, monomial):
            for a in range(9):
                for b in range(9):
                    f = make(a, b)
                    brute = sum(f.evaluate(x, y) for x, y in coords) / len(coords)
                    assert qmc_integrate(points, f) == brute, (f.name, res, len(points))


@pytest.mark.parametrize("family", FAMILIES)
def test_family_integral_matches_the_built_points(family):
    # the digit transfer builds no point; qmc_integrate on the built family is its oracle
    for preset in PRESETS:
        for n in (1, 2, 3, 5, 8, 10):
            pattern = sigma(preset, n)
            points = build_family(family, n, pattern)
            for make in (corner_product, monomial):
                for a in (0, 1, 2, 8):
                    for b in (0, 1, 2, 8):
                        f = make(a, b)
                        expected = (len(points), qmc_integrate(points, f))
                        assert family_integral(family, pattern, f) == expected, (preset, n, f.name)


def test_hammersley_moments_against_brute_force():
    for n in (1, 2, 4, 6):
        for preset in PRESETS:
            pattern = sigma(preset, n)
            kx, ky = (k.tolist() for k in hammersley_type(n, pattern).scaled_coords())
            moments = hammersley_moments(pattern, 3, 5)
            assert moments == [[sum(x**s * y**t for x, y in zip(kx, ky)) for t in range(6)]
                               for s in range(4)], (n, preset)


@pytest.mark.parametrize("preset", PRESETS)
def test_error_table_exact_identities_up_to_n_64(preset):
    # exact facts of the two symmetrizations, far past any point construction
    f = corner_product(1, 1)
    full = error_table("symmetrized", preset, f, range(1, 65))
    assert [(row.n, row.cardinality, row.error) for row in full] == [
        (n, 1 << (n + 2), 0) for n in range(1, 65)]
    davenport = error_table("davenport", preset, f, range(1, 65))
    assert [(row.n, row.cardinality, row.error) for row in davenport] == [
        (n, 1 << (n + 1), Fraction(1, 1 << (n + 2))) for n in range(1, 65)]


def test_single_point_monomial():
    assert qmc_integrate(PointMultiset([(0.0, 0.0)]), monomial(1, 1)) == 0


def test_custom_integrand_float_path():
    f = Integrand(name="cosine", kind=CUSTOM, func=lambda x, y: math.cos(x * y))
    points = hammersley_type(4, sigma("identity", 4))
    value = qmc_integrate(points, f)
    assert isinstance(value, float)
    assert value == pytest.approx(0.94, abs=0.05)


def test_error_table_custom_integrand_is_averaged_over_the_points():
    # (1 - x)(1 - y) as a custom integrand goes through build_family and the
    # float average; at dyadic points that average is exact, so each error
    # is the corner product's 2^-(n+2) on the two-fold set
    f = Integrand(name="corner-by-hand", kind=CUSTOM, func=lambda x, y: (1 - x) * (1 - y),
                  exact_integral=Fraction(1, 4))
    assert f.evaluate(0.25, 0.5) == 0.375
    rows = error_table("davenport", "random", f, range(2, 9), seed=3)
    assert [row.error for row in rows] == [2.0 ** -(n + 2) for n in range(2, 9)]
    built_in = error_table("davenport", "random", corner_product(1, 1), range(2, 9), seed=3)
    assert [row.cardinality for row in rows] == [row.cardinality for row in built_in]


def test_error_table_exact_zero_column():
    rows = error_table("symmetrized", "identity", corner_product(1, 1), range(1, 7))
    assert all(row.error == 0 for row in rows)
    fit = fit_rate(rows)
    assert fit.exact and fit.slope is None


def test_error_table_davenport_one_over_n():
    rows = error_table("davenport", "alternating", corner_product(1, 1), range(1, 9))
    for row in rows:
        assert row.error == Fraction(1, 2 * row.cardinality)  # 2^-(n+2), N = 2^(n+1)


def test_error_table_smooth_integrand_rate():
    rows = error_table("symmetrized", "identity", corner_product(2, 2), range(8, 15))
    # successive halvings of the error at empirical order >= 1.5
    for a, b in zip(rows, rows[1:]):
        order = math.log2(float(a.error) / float(b.error)) / (
            math.log2(b.cardinality) - math.log2(a.cardinality)
        )
        assert order >= 1.5, (a.n, order)


def test_fit_rate_synthetic():
    rows = [ErrorRow(k, 2**k, Fraction(1, 4**k)) for k in range(5, 12)]
    fit = fit_rate(rows)
    assert fit.slope == pytest.approx(-2.0, abs=1e-9)
    assert fit.residual == pytest.approx(0.0, abs=1e-18)

    rows = [ErrorRow(k, 2**k, k / 2**k) for k in range(6, 17)]
    fit = fit_rate(rows)
    assert -1 < fit.slope < -0.8


def test_fit_rate_below_the_float_range():
    # 2^-(n+2) on the two-fold set is subnormal up to n = 1072 and below the
    # smallest subnormal after, so these log2s come from the exact ratios
    rows = error_table("davenport", "identity", corner_product(1, 1), range(1070, 1080))
    fit = fit_rate(rows)
    assert (fit.slope, fit.residual, fit.exact, fit.n_used) == (-1.0, 0.0, False, 10)


def test_fit_rate_guards():
    with pytest.raises(ValueError):
        fit_rate([])
    with pytest.raises(ValueError):
        fit_rate([ErrorRow(3, 8, Fraction(1, 2)), ErrorRow(4, 16, Fraction(1, 4))])
    mixed = [ErrorRow(3, 8, Fraction(0)), ErrorRow(4, 16, Fraction(1, 4))]
    with pytest.raises(ValueError):
        fit_rate(mixed)
    # no spread in log2 N: the fit's slope would divide by zero
    same_n = [ErrorRow(4, 16, Fraction(1, k)) for k in (2, 3, 4)]
    with pytest.raises(ValueError, match="N = 16"):
        fit_rate(same_n)


def test_error_table_guards():
    with pytest.raises(ValueError):
        error_table("symmetrized", "identity", corner_product(1, 1), [])
    bare = Integrand(name="opaque", kind=CUSTOM, func=lambda x, y: x)
    with pytest.raises(ValueError):
        error_table("symmetrized", "identity", bare, [2])
    with pytest.raises(ValueError):
        family_integral("symmetrized", sigma("identity", 2), bare)
    with pytest.raises(ValueError):
        family_integral("lattice", sigma("identity", 2), corner_product(1, 1))
