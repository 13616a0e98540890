"""Haar coefficient engine: factors, coefficients, predictions, sums."""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dyadisc import (
    BesovParams,
    HaarIndex,
    PointMultiset,
    SignPattern,
    ZERO,
    axis_factor,
    build_family,
    counting_sums,
    dyadic,
    haar_eval,
    hammersley_type,
    level_counting_sums,
    level_value_counts,
    low_level_sign,
    mu_all_at_level,
    mu_discrepancy,
    mu_grid,
    mu_point,
    mu_volume,
    oracle_mu,
    oracle_mu_grid,
    predict_davenport,
    predict_symmetrized,
    symmetrize_davenport,
    symmetrize_full,
)
from dyadisc import besov
from dyadisc.haar import _antiderivative_numerator, _oracle_axis_factor, _tent_numerator

PRESETS = ("identity", "all-flip", "alternating", "random")


def sigma(preset, n):
    return SignPattern.from_preset(preset, n, seed=7)


def fr(value):
    return value.as_fraction()


def random_multiset(rng, res, size):
    """Random grid points; a third of the coordinates sit on coarse box edges."""

    def coord():
        k = rng.randint(0, 1 << res)
        return k if rng.random() < 2 / 3 else k >> (res - 2) << (res - 2)

    return PointMultiset(
        [(dyadic(coord(), res), dyadic(coord(), res)) for _ in range(size)],
        resolution=res,
    )


def box_of(k, j, res):
    """Half-open box of grid coordinate k on level j (the last box for z = 1)."""
    return min(k >> (res - j) if j <= res else k << (j - res), (1 << j) - 1)


# -- index and evaluation ------------------------------------------------------


def test_index_validation():
    HaarIndex(-1, 3, 0, 7)
    with pytest.raises(ValueError):
        HaarIndex(-2, 0, 0, 0)
    with pytest.raises(ValueError):
        HaarIndex(-1, 0, 1, 0)  # level -1 admits only position 0
    with pytest.raises(ValueError):
        HaarIndex(2, 2, 4, 0)


def test_haar_eval_examples():
    idx = HaarIndex(0, 0, 0, 0)
    assert haar_eval(idx, (dyadic(1, 2), dyadic(1, 2))) == 1
    assert haar_eval(idx, (dyadic(1, 2), dyadic(3, 2))) == -1
    assert haar_eval(HaarIndex(-1, 0, 0, 0), (0.9, 0.75)) == -1
    with pytest.raises(ValueError):
        haar_eval(idx, (1.0, 0.5))


def test_haar_eval_support():
    idx = HaarIndex(2, 1, 1, 0)
    assert haar_eval(idx, (dyadic(9, 5), dyadic(1, 3))) == 1  # (9/32, 1/8)
    assert haar_eval(idx, (dyadic(3, 3), dyadic(1, 3))) == -1  # right half in x
    assert haar_eval(idx, (dyadic(1, 3), dyadic(1, 3))) == 0  # outside x support


# -- volume coefficients ------------------------------------------------------


def test_volume_coefficients():
    assert fr(mu_volume(HaarIndex(0, 0, 0, 0))) == Fraction(1, 16)
    assert fr(mu_volume(HaarIndex(-1, 0, 0, 0))) == Fraction(-1, 8)
    assert fr(mu_volume(HaarIndex(-1, -1, 0, 0))) == Fraction(1, 4)
    assert fr(mu_volume(HaarIndex(2, 1, 3, 1))) == Fraction(1, 2 ** (2 * (2 + 1 + 2)))


def test_volume_against_quadrature():
    # oracle: integrate t*h piecewise with exact fractions
    def axis_integral(j, m):
        if j == -1:
            return Fraction(1, 2)
        left = Fraction(m, 2**j)
        mid = Fraction(2 * m + 1, 2 ** (j + 1))
        right = Fraction(m + 1, 2**j)
        return (mid**2 - left**2) / 2 - (right**2 - mid**2) / 2

    for j1 in range(-1, 5):
        for j2 in range(-1, 5):
            for m1 in range(1 if j1 == -1 else 1 << j1):
                for m2 in range(1 if j2 == -1 else 1 << j2):
                    idx = HaarIndex(j1, j2, m1, m2)
                    assert fr(mu_volume(idx)) == axis_integral(j1, m1) * axis_integral(j2, m2)


# -- per-point factors ---------------------------------------------------------


def test_axis_factor_examples():
    assert fr(axis_factor(0, 0, dyadic(1, 2))) == Fraction(-1, 4)
    assert axis_factor(-1, 0, ZERO) == 1
    assert axis_factor(2, 1, dyadic(1, 1)) == ZERO  # z on a box edge


def test_axis_factor_for_level_minus_one_keeps_boundary():
    # the indicator axis has no interior gate: z = 0 contributes 1 - z = 1
    assert axis_factor(-1, 0, ZERO) == 1
    assert axis_factor(-1, 0, dyadic(1, -0)) == 0  # z = 1 contributes nothing


@given(
    st.integers(min_value=-1, max_value=8),
    st.integers(min_value=0, max_value=2**8 - 1),
    st.integers(min_value=0, max_value=2**10),
)
def test_axis_factor_matches_antiderivative(j, m_raw, k):
    m = 0 if j == -1 else m_raw % (1 << j)
    z = dyadic(k, 10)
    assert axis_factor(j, m, z) == _oracle_axis_factor(j, m, z)


def brute_factor(j, m, z):
    """Integral of h_{j,m} over [z, 1] in Fractions, piece by piece."""
    if j == -1:
        pieces = [(Fraction(0), Fraction(1), 1)]
    else:
        left, mid, right = (Fraction(i, 2 ** (j + 1)) for i in (2 * m, 2 * m + 1, 2 * m + 2))
        pieces = [(left, mid, 1), (mid, right, -1)]
    return sum(sign * max(Fraction(0), min(b, 1) - max(a, z)) for a, b, sign in pieces)


def test_factor_numerators_against_brute():
    # both integer forms are the factor at z = k / 2^res times 2^res, on
    # every level up to res + 2, every position and every grid point
    for res in range(6):
        for j in range(-1, res + 3):
            for m in range(1 if j == -1 else 1 << j):
                for k in range((1 << res) + 1):
                    expected = brute_factor(j, m, Fraction(k, 1 << res)) * (1 << res)
                    assert _tent_numerator(j, m, k, res) == expected, (j, m, k, res)
                    assert _antiderivative_numerator(j, m, k, res) == expected, (j, m, k, res)


def test_axis_factors_off_grid():
    # z finer than the grid of res: the wrappers pick z's own scale
    rng = random.Random(5)
    for res in range(6):
        for j in range(-1, res + 3):
            for m in range(1 if j == -1 else 1 << j):
                for _ in range(4):
                    e = res + rng.randint(1, 4)
                    z = dyadic(2 * rng.randrange(1 << (e - 1)) + 1, e)
                    expected = brute_factor(j, m, z.as_fraction())
                    assert fr(axis_factor(j, m, z)) == expected, (j, m, z)
                    assert fr(_oracle_axis_factor(j, m, z)) == expected, (j, m, z)


def test_mu_point_examples():
    idx = HaarIndex(0, 0, 0, 0)
    assert fr(mu_point(idx, (dyadic(1, 2), dyadic(1, 2)))) == Fraction(1, 16)
    assert fr(mu_point(HaarIndex(-1, 0, 0, 0), (dyadic(1, 2), dyadic(1, 2)))) == Fraction(-3, 16)
    assert mu_point(idx, (ZERO, ZERO)) == ZERO


# -- discrepancy coefficients ---------------------------------------------------


def test_mu_discrepancy_singletons():
    single = PointMultiset([(0.0, 0.0)])
    assert fr(mu_discrepancy(single, HaarIndex(0, 0, 0, 0))) == Fraction(-1, 16)
    assert fr(mu_discrepancy(single, HaarIndex(-1, -1, 0, 0))) == Fraction(3, 4)
    with pytest.raises(ValueError):
        mu_discrepancy(PointMultiset([], resolution=0), HaarIndex(0, 0, 0, 0))


def test_mu_discrepancy_low_level_value():
    rt = symmetrize_full(hammersley_type(3, sigma("identity", 3)))
    assert fr(mu_discrepancy(rt, HaarIndex(0, 0, 0, 0))) == Fraction(1, 256)
    assert mu_discrepancy(rt, HaarIndex(-1, -1, 0, 0)) == ZERO


def test_non_power_of_two_cardinality_rejected():
    three = PointMultiset([(0.0, 0.0), (0.25, 0.5), (0.5, 0.25)], resolution=2)
    with pytest.raises(ValueError):
        mu_discrepancy(three, HaarIndex(0, 0, 0, 0))


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("family", ["hammersley", "davenport", "symmetrized"])
def test_oracle_equivalence_small(preset, family):
    points = build_family(family, 3, sigma(preset, 3))
    for j1 in range(-1, 5):
        for j2 in range(-1, 5):
            for m1 in range(1 if j1 == -1 else 1 << j1):
                for m2 in range(1 if j2 == -1 else 1 << j2):
                    idx = HaarIndex(j1, j2, m1, m2)
                    assert mu_discrepancy(points, idx) == oracle_mu(points, idx)


def test_level_map_matches_per_index():
    # entry-wise agreement of the sparse level map, exhaustively for n <= 4
    for n in (2, 3, 4):
        points = symmetrize_full(hammersley_type(n, sigma("random", n)))
        for j1 in range(-1, 6):
            for j2 in range(-1, 6):
                level = mu_all_at_level(points, j1, j2)
                for m1 in range(1 if j1 == -1 else 1 << j1):
                    for m2 in range(1 if j2 == -1 else 1 << j2):
                        expected = level.occupied.get((m1, m2), level.empty_value)
                        assert mu_discrepancy(points, HaarIndex(j1, j2, m1, m2)) == expected


@pytest.mark.parametrize("res", [20, 31, 40, 64])
def test_level_map_matches_oracle_across_guard(res):
    # 2 res + log2(N) + 1 passes 62 between res = 20 and res = 31: int64
    # scans below, exact Python-int scans above
    rng = random.Random(res)
    levels = (-1, 0, 1, 2, res - 2, res - 1)
    for size in (1, 2, 4, 8):
        points = random_multiset(rng, res, size)
        kx, ky = (arr.tolist() for arr in points.scaled_coords())
        for j1 in levels:
            for j2 in levels:
                level = mu_all_at_level(points, j1, j2)
                positions = set(level.occupied)
                if j1 <= 2 and j2 <= 2:
                    positions.update(
                        (m1, m2)
                        for m1 in range(1 if j1 == -1 else 1 << j1)
                        for m2 in range(1 if j2 == -1 else 1 << j2)
                    )
                else:
                    positions.add((0, 0))
                    positions.update(
                        (0 if j1 == -1 else box_of(x, j1, res), 0 if j2 == -1 else box_of(y, j2, res))
                        for x, y in zip(kx, ky)
                    )
                for m1, m2 in positions:
                    expected = oracle_mu(points, HaarIndex(j1, j2, m1, m2))
                    assert level.occupied.get((m1, m2), level.empty_value) == expected


@pytest.mark.parametrize("res", [20, 31, 40, 64])
def test_level_operand_matches_dyadic_route_across_guard(res):
    # the integer numerators of level_value_counts must give the operand
    # float for float equal to the one taken from the DyadicRational values
    # of mu_all_at_level, on int64 scans (res = 20) and exact ones above
    rng = random.Random(res)
    levels = (-1, 0, 1, 2, res // 2, res - 1)
    params = (
        BesovParams(2, 2, -0.3),
        BesovParams(1.5, math.inf, 0.2),
        BesovParams(math.inf, 2, -0.5),
    )
    for size in (1, 4, 8, 64):
        points = random_multiset(rng, res, size)
        for j1 in levels:
            for j2 in levels:
                summary = level_value_counts(points, j1, j2)
                level = mu_all_at_level(points, j1, j2)
                occupied = Counter(level.occupied.values())
                empty = level.box_count - len(level.occupied)
                assert Counter(dict(summary.occupied_values)) == occupied
                assert summary.empty_boxes == empty
                values = occupied + Counter({level.empty_value: empty})
                log2s = [
                    (besov._log2_abs(value.mantissa, value.exponent), count)
                    for value, count in values.items()
                    if value
                ]
                for p in params:
                    expected = besov._operand(j1 + j2, log2s, p)
                    assert besov._level_operand(summary, p) == expected


def test_level_map_single_point_example():
    points = PointMultiset([(0.25, 0.25)], resolution=2)
    level = mu_all_at_level(points, 0, 0)
    assert level.occupied == {(0, 0): ZERO}
    assert fr(level.empty_value) == Fraction(-1, 16)


def test_level_map_empty_high_levels():
    rt = symmetrize_full(hammersley_type(3, sigma("identity", 3)))
    level = mu_all_at_level(rt, 3, 0)
    assert level.occupied == {}
    assert fr(level.empty_value) == Fraction(-1, 2 ** (2 * (3 + 0 + 2)))


def test_grids_match_per_index_ops():
    points = symmetrize_full(hammersley_type(2, sigma("alternating", 2)))
    grid = mu_grid(points, 3)
    oracle_grid = oracle_mu_grid(points, 3)
    assert grid == oracle_grid
    for idx, value in grid.items():
        assert value == mu_discrepancy(points, idx)


@pytest.mark.parametrize("res", [20, 31, 40])
def test_grids_match_across_guard(res):
    # int64 factor matrices at res = 20, Python-int ones past the guard
    rng = random.Random(res)
    for size in (1, 4, 8):
        points = random_multiset(rng, res, size)
        assert points.scaled_coords()[0].dtype == (np.int64 if res == 20 else object)
        assert mu_grid(points, 3) == oracle_mu_grid(points, 3)


def test_reflection_symmetry_of_coefficients():
    rt = symmetrize_full(hammersley_type(4, sigma("random", 4)))
    for j1, j2 in [(1, 2), (2, 0), (3, 3)]:
        level = mu_all_at_level(rt, j1, j2)
        for m1 in range(1 << j1):
            for m2 in range(1 << j2):
                a = level.occupied.get((m1, m2), level.empty_value)
                b = level.occupied.get(((1 << j1) - 1 - m1, m2), level.empty_value)
                assert a == b


# -- predictions ----------------------------------------------------------------


def test_predict_symmetrized_examples():
    # magnitude-only without the sign pattern; exact signed value with it
    pred = predict_symmetrized(5, HaarIndex(1, 2, 0, 0))
    assert pred.kind == "exact-abs" and fr(pred.value) == Fraction(1, 2**12)
    signed = predict_symmetrized(5, HaarIndex(1, 2, 0, 0), SignPattern.identity(5))
    assert signed.kind == "exact-value" and fr(signed.value) == Fraction(1, 2**12)
    zero = predict_symmetrized(5, HaarIndex(-1, 3, 0, 5))
    assert zero.kind == "exact-value" and zero.value == ZERO
    const = predict_symmetrized(5, HaarIndex(-1, -1, 0, 0))
    assert const.kind == "exact-value" and const.value == ZERO
    high = predict_symmetrized(5, HaarIndex(-1, 7, 0, 0))
    assert high.kind == "exact-abs" and fr(high.value) == Fraction(1, 2**17)
    band = predict_symmetrized(5, HaarIndex(4, 1, 0, 0))
    assert band.kind == "abs-upper-bound" and fr(band.value) == Fraction(1, 2**10)
    edge = predict_symmetrized(5, HaarIndex(5, 0, 0, 0))
    assert edge.kind == "exact-abs"  # level n resolves to the exact magnitude


def test_low_level_sign_alternating_counterexample():
    # the sign of the low-level coefficients genuinely flips for mixed
    # patterns: alternating at n = 2 has a negative coefficient
    sg = SignPattern.alternating(2)
    rt = symmetrize_full(hammersley_type(2, sg))
    mu = mu_discrepancy(rt, HaarIndex(0, 0, 0, 0))
    assert fr(mu) == Fraction(-1, 64)
    assert low_level_sign(sg, 0, 0) == -1
    assert predict_symmetrized(2, HaarIndex(0, 0, 0, 0), sg).check(mu)


@pytest.mark.parametrize("preset", PRESETS)
def test_predict_symmetrized_holds(preset):
    for n in (1, 2, 3, 4, 5):
        sg = sigma(preset, n)
        rt = symmetrize_full(hammersley_type(n, sg))
        for j1 in range(-1, n + 3):
            for j2 in range(-1, n + 3):
                pred = predict_symmetrized(n, HaarIndex(j1, j2, 0, 0), sg)
                summary = level_value_counts(rt, j1, j2)
                if pred.kind == "abs-upper-bound":
                    deviating = 0
                    for value, count in summary.occupied_values:
                        assert abs(value) <= pred.value
                        if value != summary.empty_value:
                            deviating += count
                    if summary.empty_boxes:
                        assert abs(summary.empty_value) <= pred.value
                    assert deviating <= len(rt)
                else:
                    for value, _ in summary.occupied_values:
                        assert pred.check(value), (n, preset, j1, j2, value)
                    if summary.empty_boxes:
                        assert pred.check(summary.empty_value)


def test_predict_davenport_examples():
    sg = SignPattern.identity(3)
    const = predict_davenport(3, sg, HaarIndex(-1, -1, 0, 0))
    assert fr(const.value) == Fraction(1, 32)
    # -2^-(n+2k+3) + T_k 2^-(2n+2) at n = 3, k = 0
    row = predict_davenport(3, sg, HaarIndex(-1, 0, 0, 0))
    assert fr(row.value) == Fraction(-1, 64) + Fraction(1, 256)
    flipped = predict_davenport(3, SignPattern.all_flip(3), HaarIndex(-1, 0, 0, 0))
    assert fr(flipped.value) == Fraction(-1, 64) - Fraction(1, 256)
    with pytest.raises(ValueError):
        predict_davenport(3, sg, HaarIndex(0, -1, 0, 0))
    with pytest.raises(ValueError):
        predict_davenport(3, sg, HaarIndex(-1, 3, 0, 0))


@pytest.mark.parametrize("preset", PRESETS)
def test_predict_davenport_holds(preset):
    for n in (1, 2, 3, 4, 5, 6):
        sg = sigma(preset, n)
        dav = symmetrize_davenport(hammersley_type(n, sg))
        assert predict_davenport(n, sg, HaarIndex(-1, -1, 0, 0)).check(
            mu_discrepancy(dav, HaarIndex(-1, -1, 0, 0))
        )
        for k in range(n):
            pred = predict_davenport(n, sg, HaarIndex(-1, k, 0, 0))
            for m2 in range(1 << k):
                assert pred.check(mu_discrepancy(dav, HaarIndex(-1, k, 0, m2)))


# -- counting sums ----------------------------------------------------------------


def test_counting_sums_examples():
    base = hammersley_type(3, SignPattern.identity(3))
    sx, sy, _ = counting_sums(base, 0, 0, 0, 0)
    assert sx == 4 and sy == 4
    _, _, sxy = counting_sums(base, 1, 0, 0, 0)
    assert fr(sxy) == Fraction(5, 4)
    one = hammersley_type(1, SignPattern.identity(1))
    sx, sy, _ = counting_sums(one, 0, 0, 0, 0)
    assert sx == 1 and sy == 1


@pytest.mark.parametrize("preset", PRESETS)
def test_counting_sum_identities(preset):
    for n in (2, 3, 4, 5):
        sg = sigma(preset, n)
        base = hammersley_type(n, sg)
        for j1 in range(n):
            for j2 in range(n - j1):
                single = dyadic(1, j1 + j2 + 1 - n)
                for m1 in range(1 << j1):
                    for m2 in range(1 << j2):
                        sx, sy, sxy = counting_sums(base, j1, j2, m1, m2)
                        assert sx == single and sy == single
                        if j1 + j2 < n - 1:
                            eps = low_level_sign(sg, j1, j2)
                            assert sxy == dyadic(1, j1 + j2 + 2 - n) + dyadic(eps, n - j1 - j2)


def brute_counting_sums(points, j1, j2, m1, m2):
    """Tent sums of one box straight from the definition, in Fractions."""

    def tent(z, j, m):
        if Fraction(m, 2**j) < z < Fraction(m + 1, 2**j):
            return 1 - abs(2 * m + 1 - 2 ** (j + 1) * z)
        return None

    def inside(z, j, m):
        return Fraction(m, 2**j) <= z < Fraction(m + 1, 2**j)

    sx = sy = sxy = Fraction(0)
    for p in points:
        x, y = p.x.as_fraction(), p.y.as_fraction()
        tx, ty = tent(x, j1, m1), tent(y, j2, m2)
        if tx is not None and inside(y, j2, m2):
            sx += tx
        if ty is not None and inside(x, j1, m1):
            sy += ty
        if tx is not None and ty is not None:
            sxy += tx * ty
    return sx, sy, sxy


@pytest.mark.parametrize("res", range(29, 41))
def test_counting_sums_against_brute_fine_resolution(res):
    # the int64 guard 2 res + N.bit_length() <= 62 flips at res = 30 for these sizes
    rng = random.Random(res)
    levels = (0, 1, res // 2, res - 1, res, res + 1)
    for size in (2, 3, 5, 8):
        points = random_multiset(rng, res, size)
        kx, ky = (arr.tolist() for arr in points.scaled_coords())
        for j1 in levels:
            for j2 in levels:
                boxes = {(0, 0), ((1 << j1) - 1, (1 << j2) - 1)}
                boxes.update((box_of(x, j1, res), box_of(y, j2, res)) for x, y in zip(kx, ky))
                brute = {box: brute_counting_sums(points, j1, j2, *box) for box in boxes}
                for box, sums in brute.items():
                    assert tuple(map(fr, counting_sums(points, j1, j2, *box))) == sums
                if j1 > res or j2 > res:
                    continue
                scales = (Fraction(2) ** (res - j1 - 1), Fraction(2) ** (res - j2 - 1))
                scales += (scales[0] * scales[1],)
                for axis, (keys, sums) in enumerate(level_counting_sums(points, j1, j2)):
                    keys = keys.tolist()
                    assert keys == sorted(set(keys))
                    found = {divmod(k, 1 << j2): v for k, v in zip(keys, sums.tolist())}
                    assert set(found) <= set(brute)
                    for box, expected in brute.items():
                        assert found.get(box, 0) / scales[axis] == expected[axis]
