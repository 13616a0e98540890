"""Classical discrepancy norms against brute-force oracles."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dyadisc import (
    HaarIndex,
    PointMultiset,
    SignPattern,
    build_family,
    dyadic,
    haar_eval,
    hammersley_type,
    l2_warnock,
    local_discrepancy,
    lp_estimate,
    lp_exact_even,
    star_discrepancy,
    symmetrize_full,
)
from dyadisc.classical import _count_rows

PRESETS = ("identity", "all-flip", "alternating", "random")


def sigma(preset, n):
    return SignPattern.from_preset(preset, n, seed=7)


def fractions_of(points):
    return [(p.x.as_fraction(), p.y.as_fraction()) for p in points]


def brute_local(points, t1, t2):
    pts = fractions_of(points)
    count = sum(1 for x, y in pts if x < t1 and y < t2)
    return Fraction(count, len(pts)) - t1 * t2


def brute_lp_even(points, p):
    """Direct cell-by-cell Fraction quadrature of D^p (test oracle)."""
    pts = fractions_of(points)
    n = len(pts)
    xs = sorted({x for x, _ in pts} | {Fraction(0), Fraction(1)})
    ys = sorted({y for _, y in pts} | {Fraction(0), Fraction(1)})
    total = Fraction(0)
    for a in range(len(xs) - 1):
        for b in range(len(ys) - 1):
            c = Fraction(sum(1 for x, y in pts if x <= xs[a] and y <= ys[b]), n)
            for k in range(p + 1):
                ix = (xs[a + 1] ** (k + 1) - xs[a] ** (k + 1)) / (k + 1)
                iy = (ys[b + 1] ** (k + 1) - ys[b] ** (k + 1)) / (k + 1)
                total += math.comb(p, k) * (-1) ** k * c ** (p - k) * ix * iy
    return total


def test_local_discrepancy_examples():
    centre = PointMultiset([(0.5, 0.5)])
    assert local_discrepancy(centre, (0.5, 0.5)).as_fraction() == Fraction(-1, 4)
    origin = PointMultiset([(0.0, 0.0)])
    assert local_discrepancy(origin, (1.0, 1.0)).as_fraction() == 0
    rt1 = symmetrize_full(hammersley_type(1, SignPattern.identity(1)))
    assert local_discrepancy(rt1, (0.75, 0.75)).as_fraction() == Fraction(1, 16)
    assert local_discrepancy(rt1, (0.75, 0.75)).as_fraction() == brute_local(
        rt1, Fraction(3, 4), Fraction(3, 4)
    )


def test_local_discrepancy_random_anchors():
    import random

    rng = random.Random(4242)
    points = symmetrize_full(hammersley_type(3, sigma("random", 3)))
    from dyadisc import DyadicRational

    for _ in range(50):
        t1 = Fraction(rng.randrange(0, 129), 128)
        t2 = Fraction(rng.randrange(0, 129), 128)
        anchor = (DyadicRational.from_fraction(t1), DyadicRational.from_fraction(t2))
        assert local_discrepancy(points, anchor).as_fraction() == brute_local(points, t1, t2)


def test_local_discrepancy_guards():
    with pytest.raises(ValueError):
        local_discrepancy(PointMultiset([], resolution=0), (0.5, 0.5))
    with pytest.raises(ValueError):
        local_discrepancy(PointMultiset([(0.0, 0.0)]), (1.5, 0.5))


def test_l2_singletons():
    # direct integrals: (1 - t1 t2)^2 integrates to 11/18; (t1 t2)^2 to 1/9
    assert l2_warnock(PointMultiset([(0.0, 0.0)])) == Fraction(11, 18)
    assert l2_warnock(PointMultiset([(1.0, 1.0)])) == Fraction(1, 9)


def test_l2_matches_cell_quadrature():
    for preset in PRESETS:
        points = symmetrize_full(hammersley_type(2, sigma(preset, 2)))
        assert l2_warnock(points) == brute_lp_even(points, 2)


def random_multiset(rng, size, res):
    """size random points on the 2^-res grid, coordinates 0 and 1 included."""
    return PointMultiset(
        [
            (dyadic(rng.randint(0, 1 << res), res), dyadic(rng.randint(0, 1 << res), res))
            for _ in range(size)
        ],
        resolution=res,
    )


def test_l2_warnock_with_ties():
    # coarse grids force repeated points and shared x and y values
    rng = random.Random(2)
    for size in range(1, 65):
        points = random_multiset(rng, size, rng.choice((2, 3)))
        value = l2_warnock(points)
        assert value == lp_exact_even(points, 2)
        if size <= 8:
            assert value == brute_lp_even(points, 2)


@pytest.mark.parametrize("res", [26, 27, 28])
def test_l2_warnock_fine_resolution(res):
    # 2 res + 9 = 61 keeps int64 arrays at res 26, where the pair sum over
    # 256 points is about 2^68; res 27 and 28 take the object arrays
    points = random_multiset(random.Random(res), 256, res)
    assert points.scaled_coords()[0].dtype == (np.int64 if res == 26 else object)
    assert l2_warnock(points) == lp_exact_even(points, 2)


def test_l2_warnock_memory():
    points = symmetrize_full(hammersley_type(12, SignPattern.identity(12)))
    tracemalloc.start()
    try:
        l2_warnock(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # sixteen int64 arrays of length N
    assert peak < 16 * 8 * len(points)


@pytest.mark.parametrize("family", ["hammersley", "davenport", "symmetrized"])
def test_warnock_equals_even_route(family):
    for n in (1, 2, 3, 4, 5, 6):
        points = build_family(family, n, sigma("alternating", n))
        assert l2_warnock(points) == lp_exact_even(points, 2)


def test_lp4_singleton():
    # integral of (1 - t1 t2)^4 = 1 - 1 + 2/3 - 1/4 + 1/25 = 137/300
    origin = PointMultiset([(0.0, 0.0)])
    assert lp_exact_even(origin, 4) == Fraction(137, 300)
    assert lp_exact_even(origin, 4) == brute_lp_even(origin, 4)


def test_lp_even_against_brute():
    points = symmetrize_full(hammersley_type(2, sigma("random", 2)))
    for p in (2, 4, 6):
        assert lp_exact_even(points, p) == brute_lp_even(points, p)


def test_lp_guards():
    with pytest.raises(ValueError):
        lp_exact_even(PointMultiset([], resolution=0), 2)
    with pytest.raises(ValueError):
        lp_exact_even(PointMultiset([(0.0, 0.0)]), 3)


def test_lp_estimate_tracks_exact():
    points = symmetrize_full(hammersley_type(3, sigma("identity", 3)))
    exact = float(lp_exact_even(points, 2))
    estimate, side = lp_estimate(points, 2, extra_depth=5)
    assert side == 2 ** (3 + 5)
    assert estimate == pytest.approx(exact, rel=0.02)


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.0, -1.5])
def test_lp_estimate_rejects_p_outside_open_range(p):
    with pytest.raises(ValueError, match="0 < p < inf"):
        lp_estimate(PointMultiset([(0.5, 0.5)]), p)


def test_lp_exact_even_rejects_nonpositive_p_without_pointing_to_estimate():
    with pytest.raises(ValueError) as excinfo:
        lp_exact_even(PointMultiset([(0.5, 0.5)]), 0)
    assert "positive" in str(excinfo.value) and "lp_estimate" not in str(excinfo.value)


def test_lp_estimate_grid_limit():
    with pytest.raises(ValueError, match=r"2\^16.*even p"):
        lp_estimate(hammersley_type(13, SignPattern.identity(13)), 3)
    with pytest.raises(ValueError, match=r"2\^16"):
        lp_estimate(PointMultiset([(0.5, 0.5)]), 3, extra_depth=16)


def test_star_examples():
    assert star_discrepancy(PointMultiset([(0.5, 0.5)])).as_fraction() == Fraction(3, 4)
    assert star_discrepancy(PointMultiset([(0.0, 0.0)])).as_fraction() == 1


def test_star_against_dense_scan():
    points = symmetrize_full(hammersley_type(2, sigma("alternating", 2)))
    exact = star_discrepancy(points).as_fraction()
    # dense one-sided scan can only approach the supremum from below
    best = Fraction(0)
    grid = 64
    for i in range(grid + 1):
        for j in range(grid + 1):
            t1, t2 = Fraction(i, grid), Fraction(j, grid)
            best = max(best, abs(brute_local(points, t1, t2)))
            # limits from above at cell corners
            eps = Fraction(1, 4 * grid)
            if i < grid and j < grid:
                best = max(best, abs(brute_local(points, t1 + eps, t2 + eps)))
    assert best <= exact
    assert exact - best <= Fraction(1, 8)


def brute_star(points):
    """Largest |c/N - t1 t2| over the closed cells of the break grid.

    On the open cell right of breaks (a, b) the count is c, and on the
    closed cell |c/N - t1 t2| peaks at a corner; every anchor on a cell
    boundary takes the count of the cell below and left of it.
    """
    pts = fractions_of(points)
    n = len(pts)
    xs = sorted({x for x, _ in pts} | {Fraction(0), Fraction(1)})
    ys = sorted({y for _, y in pts} | {Fraction(0), Fraction(1)})
    best = Fraction(0)
    for a in range(len(xs) - 1):
        for b in range(len(ys) - 1):
            c = Fraction(sum(1 for x, y in pts if x <= xs[a] and y <= ys[b]), n)
            for t1 in xs[a : a + 2]:
                for t2 in ys[b : b + 2]:
                    best = max(best, abs(c - t1 * t2))
    return best


@pytest.mark.parametrize("res", range(29, 35))
def test_star_against_brute_fine_resolution(res):
    # N 2^(2 res) crosses 2^62 inside this range, for every N in {2, 4, 8}
    rng = random.Random(res)
    for _ in range(12):
        points = random_multiset(rng, rng.choice((2, 4, 8)), res)
        assert star_discrepancy(points).as_fraction() == brute_star(points)
        assert lp_exact_even(points, 2) == l2_warnock(points)
        assert lp_exact_even(points, 4) == brute_lp_even(points, 4)


def test_monotone_norm_chain():
    for preset in ("identity", "random"):
        points = symmetrize_full(hammersley_type(3, sigma(preset, 3)))
        l2 = float(lp_exact_even(points, 2)) ** (1 / 2)
        l4 = float(lp_exact_even(points, 4)) ** (1 / 4)
        l6 = float(lp_exact_even(points, 6)) ** (1 / 6)
        star = float(star_discrepancy(points))
        assert l2 <= l4 <= l6 <= star


def test_star_dominates_l2():
    for n in (1, 2, 3, 4):
        points = build_family("davenport", n, sigma("random", n))
        assert float(star_discrepancy(points)) ** 2 >= float(l2_warnock(points))


def test_cell_grid_structure():
    points = hammersley_type(2, SignPattern.identity(2))
    xs, ys, rows = _count_rows(points)
    assert [Fraction(int(x), 4) for x in xs] == [
        Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1),
    ]
    # counting value on the open cell just right of (1/2, 1/2)
    row = list(rows)[2]
    assert Fraction(int(row[2]), len(points)) == Fraction(3, 4)


@pytest.mark.parametrize(
    "run",
    [
        star_discrepancy,
        lambda points: lp_exact_even(points, 4),
        lambda points: lp_estimate(points, 3, extra_depth=0),
    ],
    ids=["star", "l4", "l3-estimate"],
)
def test_count_sweep_stays_below_one_dense_table(run):
    points = symmetrize_full(hammersley_type(10, SignPattern.identity(10)))
    full = 1 << points.n_resolution
    kx, ky = points.scaled_coords()
    # one dense int64 table over the break grid; the sweep holds single rows
    table_bytes = len(set(kx) | {0, full}) * len(set(ky) | {0, full}) * 8
    tracemalloc.start()
    try:
        run(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table_bytes


def test_anchor_coordinates_must_be_dyadic():
    points = PointMultiset([(0.0, 0.0), (0.5, 0.5)])
    idx = HaarIndex(0, 1, 0, 1)
    with pytest.raises(TypeError):
        local_discrepancy(points, (Fraction(1, 3), 1))
    with pytest.raises(TypeError):
        haar_eval(idx, (Fraction(1, 3), 0.5))
    half, three_quarters = dyadic(1, 1), dyadic(3, 2)
    for anchor in ((0.5, 0.75), (half, three_quarters), (half, 0.75)):
        assert local_discrepancy(points, anchor).as_fraction() == Fraction(1, 8)
        assert haar_eval(idx, anchor) == 1
    assert local_discrepancy(points, (1, 1)).as_fraction() == 0
