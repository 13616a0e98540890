"""Haar coefficient engine: factors, coefficients, predictions, sums."""

import gc
import math
import random
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dyadisc import (
    BesovParams,
    CoefficientPrediction,
    HaarIndex,
    PointMultiset,
    SignPattern,
    axis_factor,
    build_family,
    corner_product,
    counting_sums,
    grid_indices,
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
    qmc_integrate,
    reflect,
    symmetrize_davenport,
    symmetrize_full,
)
from dyadisc import besov
from dyadisc.haar import (
    ABS_UPPER_BOUND,
    EXACT_ABS,
    EXACT_VALUE,
    _antiderivative_numerator,
    _count_scale,
    _davenport_prediction,
    _level_row,
    _oracle_axis_factor,
    _scan_level,
    _symmetrized_prediction,
    _tent_numerator,
    _tents,
)
from dyadisc.pointsets import _exact

from conftest import no_union_read, summary_fields, union_of

PRESETS = ("identity", "all-flip", "alternating", "random")


def sigma(preset, n):
    return SignPattern.from_preset(preset, n, seed=7)


def random_multiset(rng, res, size):
    """Random grid points; a third of the coordinates sit on coarse box edges."""

    def coord():
        k = rng.randint(0, 1 << res)
        return k if rng.random() < 2 / 3 else k >> (res - 2) << (res - 2)

    return PointMultiset(
        [(Fraction(coord(), 1 << res), Fraction(coord(), 1 << res)) for _ in range(size)],
        resolution=res,
    )


def endpoint_multiset(res):
    """Points on x = 0, y = 0 and coordinate 1, plus interval midpoints."""
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    return PointMultiset([(0, 0), (1, quarter), (half, 1), (0, 1)], resolution=res)


def generic_fields(union, j1, j2):
    """The fields of level_value_counts, from the scan of every point of a plain multiset."""
    assert union._reflected == (False, False)
    _, sums, mirrored = _scan_level(union, j1, j2)
    assert mirrored == (False, False)
    accs, counts = np.unique(sums, return_counts=True)
    occupied = int(counts.sum())
    boxes = 1 << (max(j1, 0) + max(j2, 0))
    return accs.tolist(), counts.tolist(), _count_scale(union), occupied, boxes - occupied


def level_fields(level):
    """The occupied map, empty value and box count of a LevelSummary."""
    return level.occupied, level.empty_value, level.box_count


def row_dtypes(points):
    """The dtypes of the cached sorted row (positions, y, x-factors)."""
    return {array.dtype for array in points._cache["row"][1]}


def lexsort_row(points, j1):
    """The sorted row of a symmetrization, ordered by np.lexsort from its union's head."""
    res = points.n_resolution
    reflected = points._reflected
    size = len(points) >> sum(reflected)
    kx, ky = (
        np.minimum(k[:size], (1 << res) - k[:size]) if r else k[:size]
        for k, r in zip(points.scaled_coords(), reflected)
    )
    n1, m1 = _tents(kx, j1, res, reflected[0])
    keep = np.flatnonzero(n1 != 0)
    order = keep[np.lexsort((ky[keep], m1[keep]))]
    return [m1[order].tolist(), ky[order].tolist(), n1[order].tolist()]


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


def test_index_fields_must_be_ints():
    # a float position inside the range used to pass: haar_eval then read
    # -1 at (0.3, 0.3), counting_sums three zeros, and mu_discrepancy failed
    # deep in _tents. numpy integers pass and are stored as ints, so every
    # route reads them as it reads ints
    for fields in ((1, 1, 0.5, 0), (1.0, 1, 0, 0), (1, 1, 0, 0.0)):
        with pytest.raises(TypeError):
            HaarIndex(*fields)
    points = symmetrize_full(hammersley_type(3, sigma("random", 3)))
    with pytest.raises(TypeError):
        counting_sums(points, 1, 1, 0.5, 0)
    with pytest.raises(TypeError):
        axis_factor(1, 0.5, 0.3)
    with pytest.raises(TypeError):
        axis_factor(0.0, 0, 0.3)
    fields = (1, 2, 1, 3)
    wide = [np.int64(f) for f in fields]
    idx = HaarIndex(*wide)
    assert idx == HaarIndex(*fields) and type(idx.m2) is int
    assert mu_discrepancy(points, idx) == mu_discrepancy(points, HaarIndex(*fields))
    assert counting_sums(points, *wide) == counting_sums(points, *fields)
    assert axis_factor(np.int64(1), np.int64(1), 0.75) == axis_factor(1, 1, 0.75)


def _unknown_summary_attribute():
    summary = level_value_counts(hammersley_type(2, SignPattern.identity(2)), 0, 0)
    assert not hasattr(summary, "values")
    return summary.values


@pytest.mark.parametrize(
    "call, error, phrase",
    [
        (_unknown_summary_attribute, AttributeError, "values"),
        (lambda: CoefficientPrediction("exact", Fraction(0)), ValueError,
         "unknown prediction kind 'exact'"),
        (lambda: CoefficientPrediction(EXACT_ABS, Fraction(-1, 4)), ValueError,
         "magnitude predictions must be nonnegative"),
        (lambda: low_level_sign(SignPattern.identity(3), 1, 1), ValueError,
         r"sign law applies to j1, j2 >= 0 with j1 \+ j2 < n - 1"),
        (lambda: predict_symmetrized(0, HaarIndex(0, 0, 0, 0)), ValueError,
         "n must be positive"),
        (lambda: level_counting_sums(hammersley_type(2, SignPattern.identity(2)), 0, 3),
         ValueError, r"box levels must lie in \[0, 2\]"),
        (lambda: counting_sums(hammersley_type(2, SignPattern.identity(2)), -1, 0, 0, 0),
         ValueError, "box levels must be nonnegative"),
    ],
    ids=["summary-attribute", "prediction-kind", "prediction-magnitude", "sign-law",
         "predict-n", "counting-levels", "box-levels"],
)
def test_haar_input_guards(call, error, phrase):
    with pytest.raises(error, match=phrase):
        call()


@pytest.mark.parametrize("z, exact", [
    (np.int64(0), 0), (np.int32(1), 1), (np.uint8(0), 0), (True, 1),
    (np.float64(0.375), Fraction(3, 8)), (np.float32(0.375), Fraction(3, 8)),
    (Fraction(3, 8), Fraction(3, 8)),
])
def test_evaluation_points_take_every_rational_and_finite_float(z, exact):
    for j, m in ((-1, 0), (0, 0), (1, 0), (3, 2)):
        assert axis_factor(j, m, z) == axis_factor(j, m, exact)
        assert type(axis_factor(j, m, z).numerator) is int
    idx = HaarIndex(-1, 1, 0, 0)
    assert mu_point(idx, (z, z)) == mu_point(idx, (exact, exact))
    if exact < 1:
        assert haar_eval(idx, (z, z)) == haar_eval(idx, (exact, exact))


@pytest.mark.parametrize("z, error", [
    (Fraction(1, 3), ValueError), (math.inf, ValueError), (np.float64(math.nan), ValueError),
    ("0.5", TypeError), (Decimal("0.5"), TypeError),
])
def test_evaluation_points_reject_non_dyadic_values_and_non_numbers(z, error):
    with pytest.raises(error):
        axis_factor(0, 0, z)
    with pytest.raises(error):
        haar_eval(HaarIndex(0, 0, 0, 0), (0, z))


def test_haar_eval_examples():
    idx = HaarIndex(0, 0, 0, 0)
    assert haar_eval(idx, (Fraction(1, 4), Fraction(1, 4))) == 1
    assert haar_eval(idx, (Fraction(1, 4), Fraction(3, 4))) == -1
    assert haar_eval(HaarIndex(-1, 0, 0, 0), (0.9, 0.75)) == -1
    with pytest.raises(ValueError):
        haar_eval(idx, (1.0, 0.5))


def test_haar_eval_support():
    idx = HaarIndex(2, 1, 1, 0)
    assert haar_eval(idx, (Fraction(9, 32), Fraction(1, 8))) == 1
    assert haar_eval(idx, (Fraction(3, 8), Fraction(1, 8))) == -1  # right half in x
    assert haar_eval(idx, (Fraction(1, 8), Fraction(1, 8))) == 0  # outside x support


# -- volume coefficients ------------------------------------------------------


def test_volume_coefficients():
    assert mu_volume(HaarIndex(0, 0, 0, 0)) == Fraction(1, 16)
    assert mu_volume(HaarIndex(-1, 0, 0, 0)) == Fraction(-1, 8)
    assert mu_volume(HaarIndex(-1, -1, 0, 0)) == Fraction(1, 4)
    assert mu_volume(HaarIndex(2, 1, 3, 1)) == Fraction(1, 2 ** (2 * (2 + 1 + 2)))


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
                    assert mu_volume(idx) == axis_integral(j1, m1) * axis_integral(j2, m2)


# -- per-point factors ---------------------------------------------------------


def test_axis_factor_examples():
    assert axis_factor(0, 0, Fraction(1, 4)) == Fraction(-1, 4)
    assert axis_factor(-1, 0, 0) == 1
    assert axis_factor(2, 1, Fraction(1, 2)) == 0  # z on a box edge
    # the range check is HaarIndex's: level -1 admits only position 0
    with pytest.raises(ValueError):
        axis_factor(-1, 1, 0)
    with pytest.raises(ValueError):
        axis_factor(-2, 0, 0)


def test_axis_factor_for_level_minus_one_keeps_boundary():
    # the indicator axis has no interior gate: z = 0 contributes 1 - z = 1
    assert axis_factor(-1, 0, 0) == 1
    assert axis_factor(-1, 0, 1) == 0  # z = 1 contributes nothing


@given(
    st.integers(min_value=-1, max_value=8),
    st.integers(min_value=0, max_value=2**8 - 1),
    st.integers(min_value=0, max_value=2**10),
)
def test_axis_factor_matches_antiderivative(j, m_raw, k):
    m = 0 if j == -1 else m_raw % (1 << j)
    z = Fraction(k, 1024)
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


@pytest.mark.parametrize("res", [20, 40, 64])
def test_factor_numerators_on_arrays(res):
    # both integer forms take int64 arrays (res = 20) and Python-int object
    # arrays (res = 40, 64) of grid points, and a column of positions that
    # broadcasts against them; every entry equals the scalar form
    rng = random.Random(res)
    dtype = np.int64 if res == 20 else object
    full = 1 << res
    ks = [0, full, 1, full - 1, full >> 1] + [rng.randint(0, full) for _ in range(27)]
    k = np.array(ks, dtype=dtype)
    for j in (-1, 0, res - 1, res, res + 1):
        width = 1 if j == -1 else 1 << j
        positions = {0, width - 1} | {rng.randrange(width) for _ in range(4)}
        if j >= 0:
            positions |= {box_of(x, j, res) for x in ks[:12]}
        positions = sorted(positions)
        column = np.array(positions, dtype=dtype)[:, None]
        for numerator in (_tent_numerator, _antiderivative_numerator):
            expected = [[numerator(j, m, x, res) for x in ks] for m in positions]
            assert all(type(value) is int for row in expected for value in row)
            for m, row in zip(positions, expected):
                values = numerator(j, m, k, res)
                assert values.dtype == dtype and values.tolist() == row, (numerator, j, m)
            table = np.broadcast_to(numerator(j, column, k, res), (len(positions), len(ks)))
            assert table.dtype == dtype and table.tolist() == expected, (numerator, j)


def test_axis_factors_off_grid():
    # z finer than the grid of res: the wrappers pick z's own scale
    rng = random.Random(5)
    for res in range(6):
        for j in range(-1, res + 3):
            for m in range(1 if j == -1 else 1 << j):
                for _ in range(4):
                    e = res + rng.randint(1, 4)
                    z = Fraction(2 * rng.randrange(1 << (e - 1)) + 1, 1 << e)
                    expected = brute_factor(j, m, z)
                    assert axis_factor(j, m, z) == expected, (j, m, z)
                    assert _oracle_axis_factor(j, m, z) == expected, (j, m, z)


def test_mu_point_examples():
    idx = HaarIndex(0, 0, 0, 0)
    assert mu_point(idx, (Fraction(1, 4), Fraction(1, 4))) == Fraction(1, 16)
    assert mu_point(HaarIndex(-1, 0, 0, 0), (Fraction(1, 4), Fraction(1, 4))) == Fraction(-3, 16)
    assert mu_point(idx, (0, 0)) == 0


# -- discrepancy coefficients ---------------------------------------------------


def test_mu_discrepancy_singletons():
    single = PointMultiset([(0.0, 0.0)])
    assert mu_discrepancy(single, HaarIndex(0, 0, 0, 0)) == Fraction(-1, 16)
    assert mu_discrepancy(single, HaarIndex(-1, -1, 0, 0)) == Fraction(3, 4)
    with pytest.raises(ValueError):
        mu_discrepancy(PointMultiset([], resolution=0), HaarIndex(0, 0, 0, 0))


def test_mu_discrepancy_low_level_value():
    rt = symmetrize_full(hammersley_type(3, sigma("identity", 3)))
    assert mu_discrepancy(rt, HaarIndex(0, 0, 0, 0)) == Fraction(1, 256)
    assert mu_discrepancy(rt, HaarIndex(-1, -1, 0, 0)) == 0


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
    # scans below, exact Python-int scans above on every level whose own
    # bound passes it
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


@pytest.mark.parametrize("res", [20, 29, 31, 40, 64])
def test_level_operand_matches_dyadic_route_across_guard(res):
    # the integer numerators of a LevelSummary must give the operand float
    # for float equal to the one taken from the Fraction values of its
    # occupied map, on int64 scans (res = 20) and exact ones above; both
    # views read the folded base of the two symmetrizations
    rng = random.Random(res)
    levels = (-1, 0, 1, 2, res // 2, res - 1)
    params = (
        BesovParams(2, 2, -0.3),
        BesovParams(1.5, math.inf, 0.2),
        BesovParams(math.inf, 2, -0.5),
    )
    bases = [random_multiset(rng, res, size) for size in (1, 4, 8, 64)]
    bases.append(endpoint_multiset(res))
    if res == 29:
        # product sums over 8 base points fit int64 (58 + 4 <= 62), over
        # their unions they do not, and the folded scan of a union runs in
        # its base's int64
        assert _exact(2 * res, len(bases[2])) is np.int64
        for union in (symmetrize_davenport(bases[2]), symmetrize_full(bases[2])):
            assert _exact(2 * res, len(union)) is object
            level_value_counts(union, 0, 1)
            assert row_dtypes(union) == {np.dtype(np.int64)}
    sets = [
        points
        for base in bases
        for points in (base, symmetrize_davenport(base), symmetrize_full(base))
    ]
    for points in sets:
        for j1 in levels:
            for j2 in levels:
                summary = level_value_counts(points, j1, j2)
                occupied = Counter(summary.occupied.values())
                empty = summary.box_count - len(summary.occupied)
                assert Counter(dict(summary.occupied_values)) == occupied
                assert summary.empty_boxes == empty
                values = occupied + Counter({summary.empty_value: empty})
                log2s = [
                    (besov._log2_abs(value.numerator, value.denominator.bit_length() - 1), count)
                    for value, count in values.items()
                    if value
                ]
                for p in params:
                    expected = besov._operand(j1 + j2, log2s, p)
                    assert besov._level_operand(summary, p) == expected


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("symmetrize", [symmetrize_full, symmetrize_davenport])
def test_fold_route_matches_generic_scan(symmetrize, preset):
    # level_value_counts and mu_all_at_level scan the folded base of a
    # symmetrization; the scan of its union as a plain multiset is their
    # oracle, on every level and, for the map, box by box
    for n in range(1, 11):
        points = symmetrize(hammersley_type(n, sigma(preset, n)))
        union = union_of(points)
        for j1 in range(-1, n + 3):
            for j2 in range(-1, n + 3):
                expected = generic_fields(union, j1, j2)
                assert summary_fields(level_value_counts(points, j1, j2)) == expected, (n, j1, j2)
                expected = level_fields(mu_all_at_level(union, j1, j2))
                assert level_fields(mu_all_at_level(points, j1, j2)) == expected, (n, j1, j2)
        # only the latest row stays: the folded one, in the base's int64
        assert set(points._cache) == {"row"}
        assert points._cache["row"][0] == n - 1
        assert row_dtypes(points) == {np.dtype(np.int64)}


def test_fold_is_lazy_and_only_for_recorded_unions():
    base = hammersley_type(4, sigma("alternating", 4))
    full = symmetrize_full(base)
    assert (base._reflected, full._reflected) == ((False, False), (True, True))
    assert symmetrize_davenport(base)._reflected == (False, True)
    with no_union_read():
        mu_all_at_level(full, 1, 2).occupied
        qmc_integrate(full, corner_product(1, 1))
    # the mirrored union holds the same points, but records no reflections
    mirrored = reflect(full, "X")
    assert mirrored._reflected == (False, False)
    for j1 in range(-1, 7):
        for j2 in range(-1, 7):
            summary = summary_fields(level_value_counts(mirrored, j1, j2))
            assert summary == generic_fields(mirrored, j1, j2)
            assert summary == summary_fields(level_value_counts(full, j1, j2))
    assert set(mirrored._cache) == set(full._cache) == {"row"}


@pytest.mark.parametrize("symmetrize", [None, symmetrize_davenport, symmetrize_full])
def test_scan_flags_unfold_to_the_union_scan(symmetrize):
    # a folded sum that _scan_level flags for an axis stands for two boxes,
    # itself and its mirror on that axis; unfolding by the flags alone must
    # give the scan of the union as a plain multiset, box for box
    for n in range(1, 9):
        base = hammersley_type(n, sigma("random", n))
        points = base if symmetrize is None else symmetrize(base)
        union = union_of(points)
        for j1 in range(-1, n + 2):
            for j2 in range(-1, n + 2):
                width2 = 1 << max(j2, 0)
                last1, last2 = (1 << max(j1, 0)) - 1, width2 - 1
                keys, sums, mirrored = _scan_level(points, j1, j2)
                boxes = {divmod(k, width2): s for k, s in zip(keys.tolist(), sums.tolist())}
                if mirrored[0]:
                    boxes.update({(last1 - m1, m2): s for (m1, m2), s in boxes.items()})
                if mirrored[1]:
                    boxes.update({(m1, last2 - m2): s for (m1, m2), s in boxes.items()})
                assert len(boxes) == len(keys) << sum(mirrored), (n, j1, j2)
                keys, sums, _ = _scan_level(union, j1, j2)
                expected = {divmod(k, width2): s for k, s in zip(keys.tolist(), sums.tolist())}
                assert boxes == expected, (n, j1, j2)
    # the flags follow the reflected axes above level 0, past the resolution too
    full = symmetrize_full(hammersley_type(3, sigma("identity", 3)))
    flags = {levels: _scan_level(full, *levels)[2] for levels in ((-1, 0), (0, 1), (2, 0), (1, 5))}
    assert flags == {(-1, 0): (False, False), (0, 1): (False, True), (2, 0): (True, False),
                     (1, 5): (True, True)}
    davenport = symmetrize_davenport(hammersley_type(3, sigma("identity", 3)))
    assert _scan_level(davenport, 2, 2)[2] == (False, True)


@pytest.mark.parametrize("symmetrize", [symmetrize_full, symmetrize_davenport])
@pytest.mark.parametrize("bits", [62, 63])
def test_fold_crosses_its_guard(symmetrize, bits):
    # each level sums M folded base points of factors at most
    # 2^(res - max(j, 0)) per axis, so its sums take
    # _exact(2 res - j1+ - j2+, M): at res 29 with 2 res + bitlen(M) = bits,
    # int64 on every level at 62; at 63 Python ints on the four levels with
    # j1+ = j2+ = 0 and int64 on every other, whatever the union's bound.
    # Both sides must match the scan of the union as a plain multiset on
    # every level, the summaries and the coefficient maps alike. The row
    # stays in the base's int64.
    res = 29
    size = 1 << (bits - 2 * res - 1)
    rng = random.Random(bits)
    points = symmetrize(random_multiset(rng, res, size))
    union = union_of(points)
    assert _exact(2 * res, len(union)) is object
    assert points._base[0].dtype == np.int64
    for j1 in range(-1, res + 1):
        for j2 in range(-1, res + 1):
            expected = generic_fields(union, j1, j2)
            assert summary_fields(level_value_counts(points, j1, j2)) == expected, (j1, j2)
            expected = level_fields(mu_all_at_level(union, j1, j2))
            assert level_fields(mu_all_at_level(points, j1, j2)) == expected, (j1, j2)
            if j1 < res and j2 < res:
                wide = bits == 63 and max(j1, 0) + max(j2, 0) == 0
                sums = _scan_level(points, j1, j2)[1]
                assert sums.dtype == (object if wide else np.int64), (j1, j2)
            if j1 < res:
                assert points._cache["row"][0] == j1
                assert row_dtypes(points) == {np.dtype(np.int64)}, (j1, j2)
        if j1 < res:
            # the one stable sort gives np.lexsort's order of the folded base
            assert [a.tolist() for a in points._cache["row"][1]] == lexsort_row(points, j1)


@pytest.mark.parametrize("res", [30, 31, 33])
def test_row_key_takes_its_own_bound(res, monkeypatch):
    # the sort key (m1 << (res + 1)) + y of a row is below 2^(2 res): int64
    # through res 30, Python ints past it (at res 33 an int64 key would
    # wrap), over the base's int64 on every side; the sorted row is
    # np.lexsort's order of the folded base
    points = symmetrize_full(random_multiset(random.Random(res), res, 16))
    assert points._base[0].dtype == np.int64
    key_dtypes = set()
    argsort = np.argsort

    def spy(keys, *args, **kwargs):
        key_dtypes.add(keys.dtype)
        return argsort(keys, *args, **kwargs)

    for j1 in (-1, 0, 1, res - 2, res - 1):
        with monkeypatch.context() as patch:
            patch.setattr(np, "argsort", spy)
            row = _level_row(points, j1)
        assert [a.tolist() for a in row] == lexsort_row(points, j1), j1
        assert {a.dtype for a in row} == {np.dtype(np.int64)}
    assert key_dtypes == {np.dtype(np.int64) if res == 30 else np.dtype(object)}


@pytest.mark.parametrize("res", [61, 62])
def test_store_is_as_wide_as_its_coordinates(res):
    # a coordinate is at most 2^res: the base is int64 through res 61 and
    # Python ints from 62, and so is the union of its four-fold set; every
    # sum casts to its own bound, so the scans, the per-index coefficients
    # and the orbit sums of that set match its union held in Python ints
    rng = random.Random(res)
    base = random_multiset(rng, res, 4)
    assert base._base[0].dtype == (np.int64 if res == 61 else object)
    points = symmetrize_full(base)
    union = union_of(points, object)
    assert points.scaled_coords()[0].dtype == base._base[0].dtype
    assert all(np.array_equal(a, b) for a, b in zip(points.scaled_coords(), union._base))
    levels = (-1, 0, 1, 2, res - 2, res - 1)
    for j1 in levels:
        for j2 in levels:
            expected = generic_fields(union, j1, j2)
            assert summary_fields(level_value_counts(points, j1, j2)) == expected, (j1, j2)
            expected = level_fields(mu_all_at_level(union, j1, j2))
            assert level_fields(mu_all_at_level(points, j1, j2)) == expected, (j1, j2)
    assert oracle_mu_grid(points, 2) == oracle_mu_grid(union, 2)
    f = corner_product(2, 1)
    assert qmc_integrate(points, f) == qmc_integrate(union, f)


@pytest.mark.parametrize("symmetrize", [None, symmetrize_davenport, symmetrize_full])
@pytest.mark.parametrize("res", [4, 31, 62])
def test_levels_past_the_resolution_skip_grouping(symmetrize, res):
    # a level with an axis at res or finer has no occupied box, and its
    # summary is built without grouping; every field, dtypes included, must
    # equal the np.unique route over _scan_level's empty row, which is in
    # the base's dtype: int64 through res 61, object at res 62.
    points = random_multiset(random.Random(res), res, 8)
    if symmetrize is not None:
        points = symmetrize(points)
    base_dtype = points.axis_orbits()[0][0].dtype
    assert base_dtype == (np.dtype(object) if res == 62 else np.dtype(np.int64))
    far = range(res, res + 3)
    levels = [(j1, j2) for j1 in far for j2 in range(-1, res + 3)]
    for j1, j2 in levels + [(j2, j1) for j1, j2 in levels]:
        summary = level_value_counts(points, j1, j2)
        accs, counts = np.unique(_scan_level(points, j1, j2)[1], return_counts=True)
        assert (summary.accs.dtype, summary.counts.dtype) == (accs.dtype, counts.dtype)
        assert accs.dtype == base_dtype and counts.dtype == np.dtype(np.int64)
        assert (summary.j1, summary.j2) == (j1, j2)
        boxes = 1 << (max(j1, 0) + max(j2, 0))
        expected = (accs.tolist(), counts.tolist(), _count_scale(points), 0, boxes)
        assert summary_fields(summary) == expected, (j1, j2)
    with pytest.raises(ValueError):
        level_value_counts(points, -2, res)


@pytest.mark.parametrize("symmetrize", [symmetrize_davenport, symmetrize_full])
@pytest.mark.parametrize("res", [4, 62])
def test_levels_past_the_resolution_build_no_orbits(symmetrize, res, monkeypatch):
    # an empty level slices the base: the reflected orbits, 2^res - k over
    # every base point, are not built just to be sliced empty
    points = symmetrize(random_multiset(random.Random(res), res, 8))
    base_dtype = points._base[0].dtype

    def refuse(*args, **kwargs):
        raise AssertionError("axis_orbits called for an empty level")

    monkeypatch.setattr(PointMultiset, "axis_orbits", refuse)
    for j1 in range(res, res + 3):
        for j2 in range(-1, res + 3):
            for level in ((j1, j2), (j2, j1)):
                keys, sums, _ = _scan_level(points, *level)
                assert len(keys) == len(sums) == 0, level
                assert keys.dtype == sums.dtype == base_dtype, level


def interior(k, j, res):
    """Whether grid coordinate k is strictly inside its tent on level j (below 1 on level -1)."""
    if j == -1:
        return k < 1 << res
    return j < res and k % (1 << (res - j)) != 0


@pytest.mark.parametrize("symmetrize", [None, symmetrize_davenport, symmetrize_full])
def test_scan_keeps_exactly_the_boxes_a_point_hits(symmetrize):
    # counted by brute force over every point of the union, without
    # _scan_level: a box is occupied when it holds a point strictly inside
    # both tents. The scan groups whole rows and then drops the zero sums,
    # so no summary may hold an acc of 0 and no hit box may go missing.
    bases = [endpoint_multiset(res) for res in (2, 3, 5)]
    bases += [hammersley_type(n, sigma("random", n)) for n in range(1, 9)]
    for base in bases:
        points = base if symmetrize is None else symmetrize(base)
        res = points.n_resolution
        kx, ky = (k.tolist() for k in points.scaled_coords())
        for j1 in range(-1, res + 2):
            for j2 in range(-1, res + 2):
                hit = {
                    (box_of(x, j1, res) if j1 >= 0 else 0, box_of(y, j2, res) if j2 >= 0 else 0)
                    for x, y in zip(kx, ky)
                    if interior(x, j1, res) and interior(y, j2, res)
                }
                summary = level_value_counts(points, j1, j2)
                assert 0 not in summary.accs.tolist(), (res, j1, j2)
                assert summary.occupied_boxes == len(hit), (res, j1, j2)
                assert set(mu_all_at_level(points, j1, j2).occupied) == hit, (res, j1, j2)


def test_level_map_single_point_example():
    points = PointMultiset([(0.25, 0.25)], resolution=2)
    level = mu_all_at_level(points, 0, 0)
    assert level.occupied == {(0, 0): 0}
    assert level.empty_value == Fraction(-1, 16)


@pytest.mark.parametrize("family", ["hammersley", "davenport", "symmetrized"])
def test_value_view_matches_oracle_grid(family):
    # the values a norm reads, counted by LevelSummary without positions,
    # against the antiderivative route of oracle_mu_grid, box by box
    for n in range(1, 6):
        points = build_family(family, n, sigma("random", n))
        oracle = {}
        grid = zip(grid_indices(n + 1), oracle_mu_grid(points, n + 1), strict=True)
        for idx, value in grid:
            oracle.setdefault(idx.levels, Counter())[value] += 1
        for j1 in range(-1, n + 2):
            for j2 in range(-1, n + 2):
                summary = level_value_counts(points, j1, j2)
                values = Counter(dict(summary.occupied_values))
                values += Counter({summary.empty_value: summary.empty_boxes})
                assert values == oracle[j1, j2], (n, j1, j2)
                assert summary.box_count == sum(oracle[j1, j2].values()), (n, j1, j2)


def test_level_map_empty_high_levels():
    rt = symmetrize_full(hammersley_type(3, sigma("identity", 3)))
    level = mu_all_at_level(rt, 3, 0)
    assert level.occupied == {}
    assert level.empty_value == Fraction(-1, 2 ** (2 * (3 + 0 + 2)))


def test_grids_match_per_index_ops():
    points = symmetrize_full(hammersley_type(2, sigma("alternating", 2)))
    grid = mu_grid(points, 3)
    oracle_grid = oracle_mu_grid(points, 3)
    assert grid == oracle_grid
    for idx, value in zip(grid_indices(3), grid, strict=True):
        assert value == mu_discrepancy(points, idx)


def test_grid_indices_order():
    # level pairs lexicographic from -1, positions row-major in a level
    indices = list(grid_indices(1))
    assert len(indices) == 16
    assert indices[:3] == [HaarIndex(-1, -1, 0, 0), HaarIndex(-1, 0, 0, 0), HaarIndex(-1, 1, 0, 0)]
    assert indices[3:5] == [HaarIndex(-1, 1, 0, 1), HaarIndex(0, -1, 0, 0)]
    assert indices[-4:] == [HaarIndex(1, 1, m1, m2) for m1 in range(2) for m2 in range(2)]


def test_grids_retain_nothing():
    # neither grid keeps a table of its 4^(j_max + 1) indices, which at
    # j_max = 6 would take at least 4^7 x 64 B = 1 MiB; once the results are
    # dropped, less than 1/16 of that may stay allocated
    points = symmetrize_full(hammersley_type(3, sigma("identity", 3)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mu_grid(points, 6)
        oracle_mu_grid(points, 6)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024, retained


@pytest.mark.parametrize("res", [20, 31, 40])
def test_grids_match_across_guard(res):
    # int64 factor matrices at res = 20, Python-int ones past the guard
    rng = random.Random(res)
    for size in (1, 4, 8):
        points = random_multiset(rng, res, size)
        assert _exact(2 * res, len(points)) is (np.int64 if res == 20 else object)
        assert mu_grid(points, 3) == oracle_mu_grid(points, 3)


@pytest.mark.parametrize("symmetrize", [symmetrize_full, symmetrize_davenport])
@pytest.mark.parametrize("res, bits", [(0, None), (29, 62), (29, 63)])
def test_orbit_sums_cross_their_guard(symmetrize, res, bits):
    # mu_discrepancy, oracle_mu and oracle_mu_grid sum the base's orbits in
    # _exact(2 res, N): int64 while 2 res + bitlen(N) <= 62, Python ints one
    # bit past it. The union, as a plain multiset in its own dtype and in
    # Python ints, is their oracle on every index up to level 3 and on the
    # boxes of its points further up.
    rng = random.Random(res + (bits or 0))
    copies = 4 if symmetrize is symmetrize_full else 2
    if res == 0:
        coords = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(2)]
        base = PointMultiset(coords, resolution=0)
    else:
        base = random_multiset(rng, res, (1 << (bits - 2 * res - 1)) // copies)
    points = symmetrize(base)
    unions = (union_of(points), union_of(points, object))
    assert _exact(2 * res, len(points)) is (object if bits == 63 else np.int64)
    grid = oracle_mu_grid(points, 3)
    assert all(grid == oracle_mu_grid(union, 3) for union in unions)
    grid = dict(zip(grid_indices(3), grid, strict=True))
    indices = list(grid)
    for kx, ky in zip(*unions[0].scaled_coords()):
        for j1, j2 in ((5, 17), (28, 4), (res - 1, res - 1)):
            if 0 <= j1 < res and 0 <= j2 < res:
                m1, m2 = (min(k >> (res - j), (1 << j) - 1) for k, j in ((kx, j1), (ky, j2)))
                indices.append(HaarIndex(j1, j2, m1, m2))
    for idx in indices:
        for route in (mu_discrepancy, oracle_mu):
            value = route(points, idx)
            assert all(value == route(union, idx) for union in unions), (route, idx)
        assert grid.get(idx, value) == value


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
    assert pred.kind == "exact-abs" and pred.value == Fraction(1, 2**12)
    signed = predict_symmetrized(5, HaarIndex(1, 2, 0, 0), SignPattern.identity(5))
    assert signed.kind == "exact-value" and signed.value == Fraction(1, 2**12)
    zero = predict_symmetrized(5, HaarIndex(-1, 3, 0, 5))
    assert zero.kind == "exact-value" and zero.value == 0
    const = predict_symmetrized(5, HaarIndex(-1, -1, 0, 0))
    assert const.kind == "exact-value" and const.value == 0
    high = predict_symmetrized(5, HaarIndex(-1, 7, 0, 0))
    assert high.kind == "exact-abs" and high.value == Fraction(1, 2**17)
    band = predict_symmetrized(5, HaarIndex(4, 1, 0, 0))
    assert band.kind == "abs-upper-bound" and band.value == Fraction(1, 2**10)
    edge = predict_symmetrized(5, HaarIndex(5, 0, 0, 0))
    assert edge.kind == "exact-abs"  # level n resolves to the exact magnitude
    # a pattern of another order would be read at the wrong digits
    wrong = SignPattern(6, (False, True, False, False, False, False))
    with pytest.raises(ValueError, match="sign pattern has length 6, expected 4"):
        predict_symmetrized(4, HaarIndex(0, 1, 0, 0), wrong)


def test_low_level_sign_alternating_counterexample():
    # the sign of the low-level coefficients genuinely flips for mixed
    # patterns: alternating at n = 2 has a negative coefficient
    sg = SignPattern.alternating(2)
    rt = symmetrize_full(hammersley_type(2, sg))
    mu = mu_discrepancy(rt, HaarIndex(0, 0, 0, 0))
    assert mu == Fraction(-1, 64)
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
    assert const.value == Fraction(1, 32)
    # -2^-(n+2k+3) + T_k 2^-(2n+2) at n = 3, k = 0
    row = predict_davenport(3, sg, HaarIndex(-1, 0, 0, 0))
    assert row.value == Fraction(-1, 64) + Fraction(1, 256)
    flipped = predict_davenport(3, SignPattern.all_flip(3), HaarIndex(-1, 0, 0, 0))
    assert flipped.value == Fraction(-1, 64) - Fraction(1, 256)
    with pytest.raises(ValueError):
        predict_davenport(3, sg, HaarIndex(0, -1, 0, 0))
    with pytest.raises(ValueError):
        predict_davenport(3, sg, HaarIndex(-1, 3, 0, 0))
    with pytest.raises(ValueError, match="sign pattern has length 6, expected 4"):
        predict_davenport(4, SignPattern.identity(6), HaarIndex(-1, 0, 0, 0))


@pytest.mark.parametrize("int_type", [np.int64, np.int32])
def test_predictions_take_numpy_integer_orders(int_type):
    # numpy integers pass operator.index, as the HaarIndex fields do; the
    # order reaches the shifts 1 << e of the denominators, exact only on Python ints
    for n in (1, 2, 4, 6):
        for preset in PRESETS:
            sg = sigma(preset, n)
            for j1 in range(-1, n + 2):
                for j2 in range(-1, n + 2):
                    idx = HaarIndex(j1, j2, 0, 0)
                    for pattern in (None, sg):
                        got = predict_symmetrized(int_type(n), idx, pattern)
                        want = predict_symmetrized(n, idx, pattern)
                        assert (got.kind, got.value) == (want.kind, want.value)
                    if j1 >= 0 and j2 >= 0 and j1 + j2 < n - 1:
                        assert low_level_sign(sg, int_type(j1), int_type(j2)) == (
                            low_level_sign(sg, j1, j2))
            for k in range(-1, n):
                idx = HaarIndex(-1, k, 0, 0)
                got, want = predict_davenport(int_type(n), sg, idx), predict_davenport(n, sg, idx)
                assert (got.kind, got.value) == (want.kind, want.value)
    sg = SignPattern.identity(4)
    with pytest.raises(TypeError):
        predict_symmetrized(4.0, HaarIndex(0, 1, 0, 0), sg)
    with pytest.raises(TypeError):
        predict_davenport(4.0, sg, HaarIndex(-1, 0, 0, 0))
    with pytest.raises(TypeError):
        low_level_sign(sg, 0.0, 1)


def closed_form_symmetrized(n, j1, j2, sg):
    """The symmetrized set's coefficient classes in Fractions, as the paper states them."""
    if j1 >= 0 and j2 >= 0:
        if j1 >= n or j2 >= n:
            return EXACT_ABS, Fraction(1, 4 ** (j1 + j2 + 2))
        if j1 + j2 < n - 1:
            if sg is None:
                return EXACT_ABS, Fraction(1, 4 ** (n + 1))
            return EXACT_VALUE, Fraction(low_level_sign(sg, j1, j2), 4 ** (n + 1))
        return ABS_UPPER_BOUND, Fraction(1, 2 ** (n + j1 + j2))
    k = j2 if j1 == -1 else j1
    return (EXACT_VALUE, Fraction(0)) if k < n else (EXACT_ABS, Fraction(1, 2 ** (2 * k + 3)))


def closed_form_davenport(n, sg, k):
    if k == -1:
        return EXACT_VALUE, Fraction(1, 2 ** (n + 2))
    t_k = -1 if sg.flips[k] else 1
    return EXACT_VALUE, Fraction(-1, 2 ** (n + 2 * k + 3)) + Fraction(t_k, 2 ** (2 * n + 2))


def triple_value(triple):
    kind, numerator, exponent = triple
    assert all(type(v) is int for v in (numerator, exponent)) and exponent >= 0
    return kind, Fraction(numerator, 1 << exponent)


@pytest.mark.parametrize("preset", PRESETS)
def test_integer_predictions_equal_the_closed_forms(preset):
    # the (kind, numerator, exponent) triples that verify reads, against the
    # closed forms in Fractions and against the public predictions built on them
    for n in range(1, 9):
        sg = sigma(preset, n)
        for j1 in range(-1, n + 3):
            for j2 in range(-1, n + 3):
                idx = HaarIndex(j1, j2, 0, 0)
                for pattern in (None, sg):
                    want = closed_form_symmetrized(n, j1, j2, pattern)
                    assert triple_value(_symmetrized_prediction(n, j1, j2, pattern)) == want
                    got = predict_symmetrized(n, idx, pattern)
                    assert (got.kind, got.value) == want
        for k in range(-1, n):
            want = closed_form_davenport(n, sg, k)
            assert triple_value(_davenport_prediction(n, sg, k)) == want
            got = predict_davenport(n, sg, HaarIndex(-1, k, 0, 0))
            assert (got.kind, got.value) == want


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
    assert sxy == Fraction(5, 4)
    one = hammersley_type(1, SignPattern.identity(1))
    sx, sy, _ = counting_sums(one, 0, 0, 0, 0)
    assert sx == 1 and sy == 1
    # an in-range box past the resolution that holds no grid point sums to 0
    assert counting_sums(base, 5, 0, 1, 0) == (0, 0, 0)
    # a position outside its level is an error, as for HaarIndex and axis_factor
    for j1, j2, m1, m2, bad in ((1, 1, 5, 0, (5, 1)), (1, 1, 0, -1, (-1, 1)), (0, 4, 0, 16, (16, 4))):
        with pytest.raises(ValueError, match=r"position %d out of range for level %d" % bad):
            counting_sums(base, j1, j2, m1, m2)


@pytest.mark.parametrize("preset", PRESETS)
def test_counting_sum_identities(preset):
    for n in (2, 3, 4, 5):
        sg = sigma(preset, n)
        base = hammersley_type(n, sg)
        for j1 in range(n):
            for j2 in range(n - j1):
                single = Fraction(2) ** (n - j1 - j2 - 1)
                for m1 in range(1 << j1):
                    for m2 in range(1 << j2):
                        sx, sy, sxy = counting_sums(base, j1, j2, m1, m2)
                        assert sx == single and sy == single
                        if j1 + j2 < n - 1:
                            eps = low_level_sign(sg, j1, j2)
                            low = Fraction(eps, 1 << (n - j1 - j2))
                            assert sxy == Fraction(2) ** (n - j1 - j2 - 2) + low


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
        x, y = p.x, p.y
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
    sets = [random_multiset(rng, res, size) for size in (2, 3, 5, 8)]
    # its one point with both coordinates below 1 sits on every tent edge
    sets.append(endpoint_multiset(res))
    for points in sets:
        kx, ky = (arr.tolist() for arr in points.scaled_coords())
        for j1 in levels:
            for j2 in levels:
                boxes = {(0, 0), ((1 << j1) - 1, (1 << j2) - 1)}
                boxes.update((box_of(x, j1, res), box_of(y, j2, res)) for x, y in zip(kx, ky))
                brute = {box: brute_counting_sums(points, j1, j2, *box) for box in boxes}
                for box, sums in brute.items():
                    assert counting_sums(points, j1, j2, *box) == sums
                if j1 > res or j2 > res:
                    continue
                scales = (Fraction(2) ** (res - j1 - 1), Fraction(2) ** (res - j2 - 1))
                scales += (scales[0] * scales[1],)
                level = level_counting_sums(points, j1, j2)
                # one key array: the sorted boxes that hold a point with both coordinates < 1
                held = {
                    ((x >> (res - j1)) << j2) + (y >> (res - j2))
                    for x, y in zip(kx, ky)
                    if max(x, y) < 1 << res
                }
                for keys, _ in level:
                    assert keys.tolist() == sorted(held)
                # the product sums are the level scan's, and 0 on boxes it does not list
                scan = dict(zip(*(arr.tolist() for arr in _scan_level(points, j1, j2)[:2])))
                assert set(scan) <= held
                assert level[2][1].tolist() == [scan.get(key, 0) for key in sorted(held)]
                for axis, (keys, sums) in enumerate(level):
                    found = {divmod(k, 1 << j2): v for k, v in zip(keys.tolist(), sums.tolist())}
                    assert set(found) <= set(brute)
                    for box, expected in brute.items():
                        assert found.get(box, 0) / scales[axis] == expected[axis]


@pytest.mark.parametrize("symmetrize", [symmetrize_full, symmetrize_davenport])
@pytest.mark.parametrize("res", [29, 30, 32])
def test_counting_sums_take_their_own_bound(symmetrize, res):
    # the product sums over the N points of a union take _exact(2 res, N):
    # for the four or eight points of a symmetrized pair, int64 at res 29
    # (58 + 4 <= 62) and Python ints from res 30, over the union's int64
    # coordinates. At res 32 one product of two level-0 tents reaches 2^62,
    # so an int64 sum would wrap. The union held in Python ints is the oracle.
    rng = random.Random(res)
    half = 1 << (res - 1)
    bases = [random_multiset(rng, res, 2),
             PointMultiset._from_scaled([half - 1, half - 3], [half - 5, half - 7], res)]
    for points in map(symmetrize, bases):
        assert points.scaled_coords()[0].dtype == np.int64
        union = union_of(points, object)
        for j1, j2 in ((0, 0), (0, 1), (1, 0), (2, res - 1), (res, res)):
            level = level_counting_sums(points, j1, j2)
            expected = level_counting_sums(union, j1, j2)
            assert [(k.tolist(), v.tolist()) for k, v in level] == \
                [(k.tolist(), v.tolist()) for k, v in expected], (j1, j2)
            assert {v.dtype for _, v in level} == {np.dtype(_exact(2 * res, len(points)))}


def test_counting_rows_follow_interleaved_calls(monkeypatch):
    # each multiset caches one sorted counting row, kept apart from the level
    # scans' row and replaced on the next j1; j1 orders (2, 0, 2, 1), switching
    # between two multisets, give the sums of a freshly built multiset, and
    # each row is sorted once for all of its j2
    rng = random.Random(11)
    res = 6
    sets = [random_multiset(rng, res, 32), symmetrize_full(random_multiset(rng, res, 8))]
    sorts = []
    argsort = np.argsort

    def spy(*args, **kwargs):
        sorts.append(1)
        return argsort(*args, **kwargs)

    for j1 in (2, 0, 2, 1):
        for points in sets:
            fresh = PointMultiset._from_scaled(*points._base, res, points._reflected)
            assert summary_fields(level_value_counts(points, j1, 1)) == \
                summary_fields(level_value_counts(fresh, j1, 1))
            before = len(sorts)
            for j2 in (0, 1, 3, res):
                with monkeypatch.context() as patch:
                    patch.setattr(np, "argsort", spy)
                    level = level_counting_sums(points, j1, j2)
                expected = level_counting_sums(fresh, j1, j2)
                assert [(k.tolist(), v.tolist()) for k, v in level] == \
                    [(k.tolist(), v.tolist()) for k, v in expected], (j1, j2)
            assert len(sorts) - before == 1
            assert set(points._cache) == {"row", "counting_row"}
            assert points._cache["counting_row"][0] == points._cache["row"][0] == j1
