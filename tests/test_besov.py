"""Sequence-norm assembly: admissibility, level terms, tails, ratios."""

import gc
import io
import math
import random
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from dyadisc import (
    BesovParams,
    PointMultiset,
    SignPattern,
    besov_norm_exact,
    besov_norm_truncated,
    build_family,
    hammersley_type,
    is_transpose_invariant,
    level_term,
    level_value_counts,
    scaling_ratio,
    symmetrize_davenport,
    symmetrize_full,
    validate,
)
from dyadisc import besov, haar
from dyadisc.cli import main

from conftest import summary_fields

INF = math.inf


def rt(n, preset="identity"):
    return symmetrize_full(hammersley_type(n, SignPattern.from_preset(preset, n, seed=7)))


def dyadic_log2s(summary):
    """(log2 |value|, multiplicity) per nonzero value of a level, empty value last.

    Read from the reduced Fraction values, whose numerators are odd over a
    power of two, through the per-value besov._log2_abs: the oracle of
    besov._level_operand.
    """
    values = list(summary.occupied_values)
    if summary.empty_boxes:
        values.append((summary.empty_value, summary.empty_boxes))
    return [(besov._log2_abs(v.numerator, v.denominator.bit_length() - 1), count)
            for v, count in values if v]


def test_validate_window():
    assert validate(BesovParams(2, 2, -0.3)).admissible
    report = validate(BesovParams(1, 2, 1.0))
    assert not report.admissible and "min(1/p, 1)" in report.violations[0]
    report = validate(BesovParams(INF, 1, -0.5))
    assert not report.admissible and any("p = inf" in v for v in report.violations)
    assert not validate(BesovParams(INF, 2, 0.0)).admissible
    assert validate(BesovParams(INF, 2, -0.2)).admissible
    assert not validate(BesovParams(0.5, 2, 0.0)).admissible
    assert not validate(BesovParams(2, 2, -0.5)).admissible  # boundary excluded


@pytest.mark.parametrize("p", [-INF, math.nan, 0.5, -1.0])
def test_validate_names_only_p_when_p_is_out_of_range(p):
    # the r window derives from 1/p, so it is not checked against a p outside [1, inf]
    report = validate(BesovParams(p, 2, 0.0))
    assert not report.admissible
    assert report.violations == (f"p must satisfy 1 <= p <= inf, got {p}",)


def test_level_term_zero_at_constant_index():
    assert level_term(rt(3), -1, -1, BesovParams(2, 2, 0.0)) == 0.0


def test_level_term_davenport_constant_index():
    n, r = 5, -0.3
    dav = symmetrize_davenport(hammersley_type(n, SignPattern.identity(n)))
    term = level_term(dav, -1, -1, BesovParams(2, 2, r))
    expected = (2.0 ** ((-2) * (r - 0.5 + 1)) * 2.0 ** -(n + 2)) ** 2
    assert term == pytest.approx(expected, rel=1e-13)


def test_level_term_all_empty_level():
    n = 5
    points = rt(n)
    term = level_term(points, n + 1, 0, BesovParams(2, 2, 0.0))
    inner = 2 ** (n + 1) * 2.0 ** (-4 * (n + 3))
    expected = (2.0 ** ((n + 1) * 0.5)) ** 2 * inner
    assert term == pytest.approx(expected, rel=1e-13)


def test_level_term_rejects_inadmissible():
    with pytest.raises(ValueError):
        level_term(rt(2), 0, 0, BesovParams(2, 2, 0.9))



@pytest.mark.parametrize("r", [math.nan, INF, -INF])
def test_norms_reject_a_non_finite_r(r):
    assert not validate(BesovParams(2, 2, r)).admissible
    with pytest.raises(ValueError, match=f"r must be finite, got {r}"):
        besov_norm_exact(rt(2), BesovParams(2, 2, r))


def test_exact_vs_truncated_small_grid():
    worst = 0.0
    for n in (1, 2, 3, 4, 5, 6):
        points = rt(n, "alternating")
        for p, q, r in [
            (1, 2, 0.2),
            (2, 2, -0.4),
            (2, 2, 0.0),
            (2, INF, -0.2),
            (INF, 2, -0.4),
            (2, 4, 0.3),
            (1.5, 3, 0.1),
        ]:
            params = BesovParams(p, q, r)
            exact = besov_norm_exact(points, params)
            truncated = besov_norm_truncated(points, params, n + 40)
            worst = max(worst, abs(exact.total - truncated.total) / exact.total)
    assert worst <= 1e-9


def test_truncated_monotone_in_jmax():
    points = rt(3)
    params = BesovParams(2, 2, -0.2)
    previous = 0.0
    for j_max in range(0, 12):
        total = besov_norm_truncated(points, params, j_max).total
        assert total >= previous
        previous = total


def test_hand_audit_n1():
    # identity sigma at n = 1: the only nonzero core coefficient is 1/16 at
    # level (0, 0); remaining mass is the closed-form remainder
    points = rt(1)
    params = BesovParams(2, 2, 0.0)
    exact = besov_norm_exact(points, params)
    core = 2.0**-8
    x = 2.0**-2
    quadrant = 2.0**-8 * x * (2 - x) / (1 - x) ** 2
    rows = 2 * 2.0 ** (2 * (0.5 - 4)) * x / (1 - x)
    assert exact.total == pytest.approx((core + quadrant + rows) ** 0.5, rel=1e-14)
    assert exact.core_part == pytest.approx(core**0.5, rel=1e-14)


def test_breakdown_invariant():
    for q in (1.5, 2, 4):
        params = BesovParams(2, q, -0.1)
        b = besov_norm_exact(rt(4), params)
        assert b.total**q == pytest.approx(b.core_part**q + b.tail_part**q, rel=1e-12)
    params = BesovParams(2, INF, -0.1)
    b = besov_norm_exact(rt(4), params)
    assert b.total == max(b.core_part, b.tail_part)


def test_q_inf_total_is_max_over_levels():
    params = BesovParams(2, INF, -0.2)
    points = rt(3)
    b = besov_norm_exact(points, params)
    assert b.core_part == max(term for _, _, term in b.per_level)
    assert b.total == max(b.core_part, b.tail_part)


def test_level_terms_monotone_in_r():
    # each level term with j1 + j2 >= 0 grows with r; negative levels are
    # excluded (their weight decreases), totals need not be monotone
    points = rt(3)
    for j1, j2 in [(0, 0), (1, 2), (0, 3), (2, 2)]:
        if j1 + j2 < 0:
            continue
        terms = [
            level_term(points, j1, j2, BesovParams(2, 2, r))
            for r in (-0.4, -0.2, 0.0, 0.2, 0.4)
        ]
        assert all(a <= b * (1 + 1e-15) for a, b in zip(terms, terms[1:]))


def test_norm_positive_for_nonuniform_sets():
    for n in (1, 2, 3):
        for q in (2.0, INF):
            total = besov_norm_exact(rt(n), BesovParams(2, q, -0.1)).total
            assert total > 0


def test_exact_requires_admissible_and_truncated_requires_jmax():
    with pytest.raises(ValueError):
        besov_norm_exact(rt(2), BesovParams(2, 2, 2.0))
    with pytest.raises(ValueError):
        besov_norm_truncated(rt(2), BesovParams(2, 2, 0.0), -1)


def test_scaling_ratio_constant_model():
    params = BesovParams(2, 2, -0.3)
    rows = [
        (2**k, (2**k) ** (params.r - 1) * math.log2(2**k) ** 0.5) for k in range(3, 12)
    ]
    for _, ratio in scaling_ratio(rows, params):
        assert ratio == pytest.approx(1.0, abs=1e-12)
    params_inf = BesovParams(2, INF, -0.3)
    rows = [(2**k, (2**k) ** (params_inf.r - 1)) for k in range(3, 8)]
    for _, ratio in scaling_ratio(rows, params_inf):
        assert ratio == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        scaling_ratio([(1, 0.5)], params)


def test_zero_resolution_set():
    # all mass in the closed-form remainder; core is the constant level only
    corner = PointMultiset([(0.0, 0.0)], resolution=0)
    params = BesovParams(2, 2, -0.25)
    exact = besov_norm_exact(corner, params)
    truncated = besov_norm_truncated(corner, params, 45)
    assert abs(exact.total - truncated.total) / exact.total <= 1e-9


@pytest.mark.parametrize(
    "params", [BesovParams(2, 2, -0.3), BesovParams(1.5, INF, 0.2), BesovParams(3, 1, -0.5)]
)
def test_operand_ignores_the_order_of_its_pairs(params):
    # math.fsum rounds the sum once, so any order of a level's
    # (log2 |value|, multiplicity) pairs gives the identical float
    points = rt(8, "random")
    rng = random.Random(8)
    for j1, j2 in ((3, 5), (4, 4), (5, 7), (6, 5), (7, 7)):
        summary = level_value_counts(points, j1, j2)
        nums, counts, top = summary.numerators()
        pairs = [(besov._log2_abs(num, top), count) for num, count in zip(nums, counts) if num]
        assert pairs == dyadic_log2s(summary), (j1, j2)
        assert len(pairs) >= 2, (j1, j2)
        expected = besov._operand(j1 + j2, pairs, params)
        orders = [sorted(pairs, reverse=True), sorted(pairs), pairs[::-1]]
        orders += [rng.sample(pairs, len(pairs)) for _ in range(5)]
        for order in orders:
            assert besov._operand(j1 + j2, order, params) == expected, (j1, j2)


@pytest.mark.parametrize("n", [10, 12, 14])
@pytest.mark.parametrize("symmetrize", [symmetrize_full, symmetrize_davenport])
def test_norm_leaves_no_per_level_state(symmetrize, n):
    # after a norm the multiset keeps only the latest sorted row: three
    # arrays of at most N / 2^k int64 entries for k reflected axes; neither
    # the folded base nor the level summaries are kept
    points = symmetrize(hammersley_type(n, SignPattern.from_preset("random", n, seed=7)))
    reflected = sum(points._reflected)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        besov_norm_exact(points, BesovParams(2, 2, -0.3))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert set(points._cache) == {"row"}
    assert retained < 3 * 8 * len(points) >> reflected, retained
    first = level_value_counts(points, 2, n - 3)
    second = level_value_counts(points, 2, n - 3)
    assert first is not second
    for field in ("j1", "j2", "scale", "occupied_boxes", "empty_boxes"):
        assert getattr(first, field) == getattr(second, field)
    assert first.accs.tolist() == second.accs.tolist()
    assert first.counts.tolist() == second.counts.tolist()


ORACLE_PARAMS = [
    BesovParams(2, 2, -0.3),
    BesovParams(1, INF, 0.5),
    BesovParams(INF, 2, -0.3),
    BesovParams(3, 1.5, -0.1),
]


@pytest.mark.parametrize("family", ["hammersley", "davenport", "symmetrized"])
def test_level_operand_matches_per_value_route(family):
    # the array pass gives the float of _operand over the Fraction
    # values, bit for bit, on every level of the core and on the first two
    # past the resolution, whichever route _level_operand takes there
    routes = set()
    for n in range(1, 13):
        points = build_family(family, n, SignPattern.from_preset("random", n, seed=n))
        for j1 in range(-1, n + 2):
            for j2 in range(-1, n + 2):
                summary = level_value_counts(points, j1, j2)
                routes.add(len(summary.accs) >= besov._ARRAY_MIN_VALUES)
                pairs = dyadic_log2s(summary)
                for params in ORACLE_PARAMS:
                    expected = besov._operand(j1 + j2, pairs, params)
                    assert besov._array_operand(summary, params) == expected, (n, j1, j2, params)
                    assert besov._level_operand(summary, params) == expected, (n, j1, j2, params)
    assert routes == {False, True}


def transpose_invariant_cases():
    """(family, n, sigma) for every preset sign pattern that is a palindrome, n = 1..10."""
    for n in range(1, 11):
        patterns = [SignPattern.identity(n), SignPattern.all_flip(n)]
        if n % 2:
            patterns.append(SignPattern.alternating(n))
        for family in ("hammersley", "symmetrized"):
            for sg in patterns:
                yield family, n, sg


def test_transposed_levels_reuse_bit_equal_operands():
    # for a set equal to its transpose the norm scans j1 <= j2 only; every
    # per_level entry, copied or not, equals level_term computed directly on
    # its own level, and the engine's scans of (j1, j2) and (j2, j1) agree
    for family, n, sg in transpose_invariant_cases():
        points = build_family(family, n, sg)
        assert is_transpose_invariant(points), (family, n, sg)
        for j1 in range(-1, n + 2):
            for j2 in range(-1, j1):
                assert (summary_fields(level_value_counts(points, j2, j1))
                        == summary_fields(level_value_counts(points, j1, j2))), (family, n, j1, j2)
        for params in ORACLE_PARAMS:
            for breakdown in (besov_norm_exact(points, params),
                              besov_norm_truncated(points, params, n + 1)):
                for j1, j2, term in breakdown.per_level:
                    expected = level_term(points, j1, j2, params)
                    assert term == expected, (family, n, sg, params, j1, j2)
        assert set(points._cache) == {"row"}


def test_norm_scans_each_transposed_pair_once(monkeypatch):
    # at n = 6 the exact norm reads (n+1)^2 = 49 level pairs; a set equal
    # to its transpose scans the (n+1)(n+2)/2 = 28 with j1 <= j2
    n, params = 6, BesovParams(2, 2, -0.3)
    random_sg = SignPattern.seeded_random(n, 5)
    assert random_sg.flips != random_sg.flips[::-1]
    cases = [("symmetrized", SignPattern.identity(n), 28),
             ("davenport", SignPattern.identity(n), 49),
             ("symmetrized", random_sg, 49),
             ("hammersley", random_sg, 49)]
    calls = []
    scan = besov.level_value_counts
    monkeypatch.setattr(besov, "level_value_counts",
                        lambda points, j1, j2: calls.append((j1, j2)) or scan(points, j1, j2))
    for family, sg, expected in cases:
        calls.clear()
        besov_norm_exact(build_family(family, n, sg), params)
        assert len(calls) == len(set(calls)) == expected, (family, sg)
        if expected == 28:
            assert all(j1 <= j2 for j1, j2 in calls)


def test_norms_build_no_dyadic_value(monkeypatch):
    # a norm reads each level's integer numerators; building the occupied
    # map or any Fraction on the way would show here
    assert haar.mu_all_at_level is haar.level_value_counts
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    n, params = 8, BesovParams(2, 2, -0.3)
    for family in ("hammersley", "davenport", "symmetrized"):
        points = build_family(family, n, SignPattern.identity(n))
        besov_norm_exact(points, params)
        besov_norm_truncated(points, params, n + 1)
        with redirect_stdout(io.StringIO()):
            assert main(["sweep", "--family", family, "--n", str(n), "--n-max", str(n)]) == 0
    assert built == []


def grid_multiset(rng, res, size):
    full = 1 << res
    return PointMultiset(
        [(Fraction(rng.randint(0, full), full), Fraction(rng.randint(0, full), full))
         for _ in range(size)],
        resolution=res,
    )


def test_level_numerators_cross_int64():
    # the numerators (acc << shift) + empty take int64 while both terms
    # stay below 2^60 and Python ints past it, whatever the dtype of the accs:
    # at res 29 eight base points scan in int64, and the numerators of
    # their symmetrizations outgrow it on the low levels; a single point at
    # res 31 scans in Python ints, and its mid levels fit int64 again
    rng = random.Random(29)
    sets = []
    for res, size in ((29, 8), (29, 8), (31, 1), (600, 4)):
        base = grid_multiset(rng, res, size)
        sets += [base, symmetrize_davenport(base), symmetrize_full(base)]
    paths = set()
    for points in sets:
        res = points.n_resolution
        levels = sorted({-1, 0, 1, 2, res // 3, res // 2, res - 2, res - 1})
        for j1 in levels:
            for j2 in levels:
                summary = level_value_counts(points, j1, j2)
                nums, counts, top = summary.numerator_array()
                exact, exact_counts, exact_top = summary.numerators()
                assert (nums.tolist(), counts, top) == (exact, exact_counts, exact_top)
                # the occupied values, then the empty value exactly when a box is empty
                assert len(exact) == len(summary.accs) + (summary.empty_boxes > 0)
                assert sum(counts) == summary.box_count
                fits = all(abs(num) < 1 << 62 for num in exact)
                assert nums.dtype == object or fits
                paths.add((summary.accs.dtype.name, nums.dtype.name))
                pairs = dyadic_log2s(summary)
                for params in ORACLE_PARAMS:
                    expected = besov._operand(j1 + j2, pairs, params)
                    assert besov._array_operand(summary, params) == expected, (res, j1, j2)
    assert paths == {("int64", "int64"), ("int64", "object"), ("object", "int64"),
                     ("object", "object")}


@pytest.mark.parametrize(
    "family, n, params, part",
    [
        ("symmetrized", 12, BesovParams(2, 100, 0.0), "core content 0.0 "),  # all underflow
        ("symmetrized", 4, BesovParams(2, 130, 0.0), "core content 2.5"),  # a subnormal sum
        ("hammersley", 4, BesovParams(2, 130, -0.3), "tail content 0.0 "),
        ("symmetrized", 2, BesovParams(1e308, 2, 0.0), "core content nan "),
        ("symmetrized", 2, BesovParams(1e308, INF, 0.0), "core content nan "),  # under a max
    ],
)
def test_norm_rejects_contents_floats_cannot_hold(family, n, params, part):
    # a norm from an l_q sum that underflowed, went subnormal or became nan
    # printed as 0.0, a few digits or nan; it raises, naming p and q
    points = build_family(family, n, SignPattern.identity(n))
    with pytest.raises(ValueError) as excinfo:
        besov_norm_exact(points, params)
    message = str(excinfo.value)
    assert part in message and f"p = {params.p}, q = {params.q}:" in message
    if part.startswith("core"):
        with pytest.raises(ValueError, match=part.strip()):
            besov_norm_truncated(points, params, n - 1)


def test_all_zero_core_keeps_content_zero():
    # the trapezoid rule: per axis, weights 1/4, 1/2, 1/4 at 0, 1/2 and 1.
    # Its counting average is the cell average of t1 t2 on the 2^-1 grid,
    # so every core coefficient is 0, and a core of content 0 is exact
    xs = (0, Fraction(1, 2), Fraction(1, 2), 1)
    points = PointMultiset([(x, y) for x in xs for y in xs], resolution=1)
    params = BesovParams(2, 2, -0.3)
    exact = besov_norm_exact(points, params)
    assert exact.core_part == 0.0 and exact.total == exact.tail_part > 0
    assert besov_norm_truncated(points, params, 0).total == 0.0
