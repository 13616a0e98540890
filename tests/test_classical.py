"""Classical discrepancy norms against brute-force oracles."""

import itertools
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
    haar_eval,
    hammersley_type,
    l2_warnock,
    local_discrepancy,
    lp_estimate,
    lp_exact_even,
    star_discrepancy,
    symmetrize_davenport,
    symmetrize_full,
)
from dyadisc import classical, pointsets
from dyadisc.classical import _count_rows, _dominance_pair_sum, _single_sum
from dyadisc.pointsets import (
    FAMILIES,
    _exact,
    _hammersley_pair_sum,
    _hammersley_sigma,
    _hammersley_single_sum,
    _reflected_union,
    reflect,
)

from conftest import no_union_read, reversed_entries, union_of

PRESETS = ("identity", "all-flip", "alternating", "random")


def sigma(preset, n):
    return SignPattern.from_preset(preset, n, seed=7)


def fractions_of(points):
    return [(p.x, p.y) for p in points]


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
    assert local_discrepancy(centre, (0.5, 0.5)) == Fraction(-1, 4)
    origin = PointMultiset([(0.0, 0.0)])
    assert local_discrepancy(origin, (1.0, 1.0)) == 0
    rt1 = symmetrize_full(hammersley_type(1, SignPattern.identity(1)))
    assert local_discrepancy(rt1, (0.75, 0.75)) == Fraction(1, 16)
    assert local_discrepancy(rt1, (0.75, 0.75)) == brute_local(
        rt1, Fraction(3, 4), Fraction(3, 4)
    )


def test_local_discrepancy_random_anchors():
    import random

    rng = random.Random(4242)
    points = symmetrize_full(hammersley_type(3, sigma("random", 3)))
    for _ in range(50):
        k1, k2 = rng.randrange(0, 129), rng.randrange(0, 129)
        t1, t2 = Fraction(k1, 128), Fraction(k2, 128)
        anchor = (Fraction(k1, 128), Fraction(k2, 128))
        assert local_discrepancy(points, anchor) == brute_local(points, t1, t2)


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
    full = 1 << res
    return PointMultiset(
        [
            (Fraction(rng.randint(0, full), full), Fraction(rng.randint(0, full), full))
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


def pair_sum_dtypes(points, monkeypatch):
    """l2_warnock's value and the dtypes of the arrays its pair sum reads."""
    dtypes = set()
    pair_sum = classical._min_product_pair_sum

    def spy(us, vs):
        dtypes.update((us.dtype, vs.dtype))
        return pair_sum(us, vs)

    with monkeypatch.context() as patch:
        patch.setattr(classical, "_min_product_pair_sum", spy)
        value = l2_warnock(points)
    return value, dtypes


@pytest.mark.parametrize("res", [26, 27, 28])
def test_l2_warnock_fine_resolution(res, monkeypatch):
    # 2 res + 9 = 61 keeps the pair sum's arrays in int64 at res 26, where
    # the pair sum over 256 points is about 2^68; res 27 and 28 take object arrays
    points = random_multiset(random.Random(res), 256, res)
    value, dtypes = pair_sum_dtypes(points, monkeypatch)
    assert dtypes == {np.dtype(np.int64) if res == 26 else np.dtype(object)}
    assert value == lp_exact_even(points, 2)


def test_l2_warnock_memory():
    for symmetrize in (symmetrize_full, symmetrize_davenport):
        # reversed: the dominance route, whose arrays set l2_warnock's peak
        points = reversed_entries(symmetrize(hammersley_type(12, SignPattern.identity(12))))
        tracemalloc.start()
        try:
            l2_warnock(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # thirty-two int64 arrays of length M: the base, never the union
        assert peak < 32 * 8 * len(points._base[0]), symmetrize.__name__


def assert_l2_reads_base(points, even_route=False):
    with no_union_read():
        value = l2_warnock(points)
    assert value == l2_warnock(union_of(points))
    if even_route:
        assert value == lp_exact_even(points, 2)
    return value


@pytest.mark.parametrize("symmetrize", [symmetrize_full, symmetrize_davenport])
def test_l2_warnock_sums_orbits_of_the_base(symmetrize):
    # both pair-sum routes: the digit transfer, and the dominance sum on the reversed base
    for n in range(1, 11):
        for preset in PRESETS:
            points = symmetrize(hammersley_type(n, sigma(preset, n)))
            assert_l2_reads_base(points, even_route=n <= 4)
            assert_l2_reads_base(reversed_entries(points), even_route=n <= 4)


def test_l2_warnock_orbits_at_resolution_zero():
    # the half offset 2^(res - 1) does not exist at res 0; taking it as 0
    # gives -1/72 for the first set, whose union is the four corners
    corner = PointMultiset([(0, 0)])
    assert assert_l2_reads_base(symmetrize_full(corner), True) == Fraction(7, 144)
    assert assert_l2_reads_base(symmetrize_davenport(corner), True) == Fraction(1, 9)
    rng = random.Random(0)
    for size in range(1, 9):
        for symmetrize in (symmetrize_full, symmetrize_davenport):
            assert_l2_reads_base(symmetrize(random_multiset(rng, size, 0)), True)


def edge_multiset(rng, size, res):
    """size random points on the 2^-res grid, with 0, 2^(res-1) and 2^res weighted up."""
    full = 1 << res
    values = [0, full >> 1, full]
    coords = [[rng.choice(values + [rng.randint(0, full)]) for _ in range(size)] for _ in "xy"]
    return PointMultiset._from_scaled(*coords, res)


@pytest.mark.parametrize("res", [1, 2, 29, 31, 40])
@pytest.mark.parametrize("symmetrize", [symmetrize_full, symmetrize_davenport])
def test_l2_warnock_orbits_across_guard(res, symmetrize, monkeypatch):
    # res 29 with 8 points: 58 + bitlen(8) = 62 keeps the pair sum's orbits
    # in int64 at the guard's edge, where a sum over the union would take
    # Python ints; at res 31 and 40 they are object, over an int64 base
    rng = random.Random(res)
    for size in (1, 2, 3, 8):
        points = symmetrize(edge_multiset(rng, size, res))
        assert_l2_reads_base(points, even_route=True)
        if (res, size) == (29, 8):
            assert points._base[0].dtype == np.int64
            assert _exact(2 * res, len(points)) is object
            assert pair_sum_dtypes(points, monkeypatch)[1] == {np.dtype(np.int64)}
    # every pair input at its largest, 2^res, on 8 base points
    half = 1 << (res - 1)
    x = half if symmetrize is symmetrize_full else 0
    assert_l2_reads_base(symmetrize(PointMultiset._from_scaled([x] * 8, [half] * 8, res)), True)


@pytest.mark.parametrize("res", [0, 1, 2, 29, 40])
@pytest.mark.parametrize("symmetrize", [symmetrize_full, symmetrize_davenport])
def test_local_discrepancy_counts_orbits(symmetrize, res):
    # each base point's orbit is counted below the anchor; the union as a
    # plain multiset counts every point. Res 29 with 8 points and res 40
    # keep an int64 base and union where a product sum over the union,
    # _exact(2 res, N), would take Python ints
    rng = random.Random(res)
    full = 1 << res
    for size in (1, 2, 8):
        points = symmetrize(edge_multiset(rng, size, res))
        union = union_of(points)
        ks = [0, full >> 1, full, rng.randint(0, full)] + points._base[0][:2].tolist()
        anchors = [(Fraction(a, full), Fraction(b, full)) for a in ks for b in ks]
        # between grid points, and on the reflections of a base point
        anchors += [(Fraction(rng.randrange(4 * full + 1), 4 * full), Fraction(full - k, full))
                    for k in points._base[1].tolist()]
        with no_union_read():
            values = [local_discrepancy(points, anchor) for anchor in anchors]
        assert values == [local_discrepancy(union, anchor) for anchor in anchors]
        if (res, size) == (29, 8):
            assert points._base[0].dtype == union.scaled_coords()[0].dtype == np.int64
            assert _exact(2 * res, len(union)) is object


# the unions of a Hammersley-type base that the digit transfer takes: build_family's
# three, and the x-only reflection that no family uses
REFLECTIONS = [(False, False), (False, True), (True, True), (True, False)]


def assert_routes_agree(points, sigma_):
    """The digit routes' L2 equals the point sums' on the reversed base, and
    each digit route's sum equals its point sum on the base itself."""
    backwards = reversed_entries(points)
    assert _hammersley_sigma(points) == sigma_
    assert _hammersley_sigma(backwards) is None
    assert l2_warnock(points) == l2_warnock(backwards)
    assert _hammersley_single_sum(sigma_, points._reflected) == _single_sum(points)
    assert _hammersley_pair_sum(sigma_, points._reflected) == _dominance_pair_sum(points)


def test_digit_transfer_equals_dominance_sum_for_every_sigma():
    for n in range(1, 8):
        for flips in itertools.product((False, True), repeat=n):
            pattern = SignPattern(n, flips)
            base = hammersley_type(n, pattern)
            for reflected in REFLECTIONS:
                assert_routes_agree(_reflected_union(base, reflected), pattern)


@pytest.mark.parametrize("family", FAMILIES)
def test_digit_transfer_equals_dominance_sum_on_presets(family):
    for n in range(8, 17):
        for preset in PRESETS:
            pattern = sigma(preset, n)
            assert_routes_agree(build_family(family, n, pattern), pattern)


def test_only_hammersley_type_bases_skip_the_dominance_sum(monkeypatch):
    def calls_dominance_sum(points):
        return bool(pair_sum_dtypes(points, monkeypatch)[1])

    rng = random.Random(5)
    for n in (1, 2, 5, 9):
        for preset in PRESETS:
            base = hammersley_type(n, sigma(preset, n))
            for family in FAMILIES:
                points = build_family(family, n, sigma(preset, n))
                assert not calls_dominance_sum(points)
                assert calls_dominance_sum(reversed_entries(points))
            for axis in ("X", "Y", "XY"):
                assert calls_dominance_sum(reflect(base, axis))
                assert calls_dominance_sum(symmetrize_full(reflect(base, axis)))
            assert calls_dominance_sum(random_multiset(rng, 1 << n, n))


def test_hammersley_base_check():
    n = 6
    pattern = sigma("random", n)
    points = hammersley_type(n, pattern)
    kx, ky = (k.tolist() for k in points._base)
    # the same entries through the public constructor; one level finer; the
    # first half; two y values swapped; a single point at resolution 0
    assert _hammersley_sigma(PointMultiset(points.entries)) == pattern
    assert _hammersley_sigma(PointMultiset(points.entries, resolution=n + 1)) is None
    assert _hammersley_sigma(PointMultiset._from_scaled(kx[:32], ky[:32], n)) is None
    assert _hammersley_sigma(PointMultiset._from_scaled(kx, ky[1::-1] + ky[2:], n)) is None
    assert _hammersley_sigma(PointMultiset([(0, 0)])) is None


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
def test_hammersley_base_check_in_chunks(chunk, monkeypatch):
    # a changed entry fails the check in whichever chunk of its digit holds it
    monkeypatch.setattr(pointsets, "_SIGMA_CHUNK", chunk)
    n = 6
    for preset in PRESETS:
        pattern = sigma(preset, n)
        kx, ky = (k.tolist() for k in hammersley_type(n, pattern)._base)
        assert _hammersley_sigma(PointMultiset._from_scaled(kx, ky, n)) == pattern
        for i in range(1 << n):
            for coords in ((kx[:i] + [kx[i] ^ 1] + kx[i + 1 :], ky),
                           (kx, ky[:i] + [ky[i] ^ 1] + ky[i + 1 :])):
                assert _hammersley_sigma(PointMultiset._from_scaled(*coords, n)) is None


@pytest.mark.parametrize("n", range(1, 21))
def test_l2_of_the_hammersley_set_has_its_closed_form(n):
    # Halton and Zaremba (1969): N^2 L2^2 of the identity Hammersley set, N = 2^n
    size = 1 << n
    closed = (Fraction(n * n, 64) + Fraction(29 * n, 192) + Fraction(3, 8)
              - Fraction(n, 16 * size) + Fraction(1, 4 * size) - Fraction(1, 72 * size * size))
    points = hammersley_type(n, SignPattern.identity(n))
    assert size * size * l2_warnock(points) == closed
    if n in (3, 10):
        assert size * size * l2_warnock(reversed_entries(points)) == closed


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


def row_sweep(points):
    """The count sweep one row at a time, built by its own bincounts (oracle).

    Returns the x and y breaks and an iterator of the cumulative count rows
    row[b] = #{z : x_z <= xs[a], y_z <= ys[b]}, one per x cell a.
    """
    kx, ky = points.scaled_coords()
    ends = np.array([0, 1 << points.n_resolution], dtype=kx.dtype)
    xs = np.unique(np.concatenate([kx, ends]))
    ys = np.unique(np.concatenate([ky, ends]))
    xi = np.searchsorted(xs, kx)
    # y break index of each point, in x order; the points of x break a end at stops[a]
    cols = np.searchsorted(ys, ky)[np.argsort(xi, kind="stable")]
    stops = np.bincount(xi, minlength=len(xs)).cumsum()

    def rows():
        row = np.zeros(len(ys), dtype=np.int64)
        start = 0
        for stop in stops[:-1].tolist():
            row = row + np.bincount(cols[start:stop], minlength=len(ys)).cumsum()
            start = stop
            yield row

    return xs, ys, rows()


def block_sweep(points):
    """The rows of _count_rows's blocks, one at a time."""
    xs, ys, blocks = _count_rows(points)
    return xs, ys, (row for _, block in blocks for row in block)


def power_differences(breaks, e):
    """Steps between the e-th powers of a list of ascending breaks, in Python ints."""
    powers = [b**e for b in breaks]
    return [powers[i + 1] - powers[i] for i in range(len(powers) - 1)]


def object_route_lp_even(points, p, sweep=block_sweep):
    """The per-term dtype route lp_exact_even used before its limb split (oracle).

    Term k runs in int64 while N^(p-k) sum(dy) < 2^62 and in object arrays
    of Python ints past that, one count row of the sweep at a time, every
    term k = 0..p from its count powers.
    """
    n = len(points)
    res = points.n_resolution
    xs, ys, rows = sweep(points)
    xs, ys = xs.tolist(), ys.tolist()
    terms = []
    for k in range(p + 1):
        dy = power_differences(ys, k + 1)
        dtype = np.int64 if n ** (p - k) * sum(dy) < (1 << 62) else object
        terms.append((power_differences(xs, k + 1), np.asarray(dy, dtype=dtype)))
    sums = [0] * (p + 1)
    for a, row in zip(range(len(xs) - 1), rows):
        cells = row[:-1]
        for k, (dx, dy) in enumerate(terms):
            sums[k] += dx[a] * int((cells.astype(dy.dtype) ** (p - k)) @ dy)
    return sum(
        Fraction(
            (-1) ** k * math.comb(p, k) * s_k,
            n ** (p - k) * (k + 1) ** 2 * (1 << (2 * res * (k + 1))),
        )
        for k, s_k in enumerate(sums)
    )


@pytest.mark.parametrize(
    "n, p, crossing",
    [(10, 4, []), (11, 4, [0]), (9, 6, list(range(7)))],
    ids=["n10-p4", "n11-p4", "n9-p6"],
)
def test_lp_even_matches_object_route_across_old_guard(n, p, crossing):
    # the old guard N^(p-k) sum(dy_k) < 2^62, with sum(dy_k) = 2^(res (k+1)):
    # at n = 11 (N = 2^13, res 11) the k = 0 term takes two count limbs; at
    # n = 9, p = 6 the true row sums pass 2^63, and sum(dy_6) = 2^63 splits dy
    points = symmetrize_full(hammersley_type(n, SignPattern.identity(n)))
    res = points.n_resolution
    bounds = [len(points) ** (p - k) << (res * (k + 1)) for k in range(p + 1)]
    assert [k for k, bound in enumerate(bounds) if bound >= 1 << 62] == crossing
    assert lp_exact_even(points, p) == object_route_lp_even(points, p)


@pytest.mark.parametrize("res", [40, 64])
def test_lp_even_matches_object_route_when_dy_needs_limbs(res):
    # sum(dy_k) = 2^(res (k+1)) reaches 2^80 at res 40 (k >= 1) and 2^64 at
    # res 64 (every k): no count limb fits beside it, so dy is split too
    rng = random.Random(res)
    for size in (1, 2, 8, 64):
        points = random_multiset(rng, size, res)
        for p in (2, 4, 6, 8):
            assert lp_exact_even(points, p) == object_route_lp_even(points, p)
        if size <= 8:
            assert lp_exact_even(points, 6) == brute_lp_even(points, 6)


def test_lp_exact_even_power_limit():
    points = symmetrize_full(hammersley_type(1, SignPattern.identity(1)))
    assert lp_exact_even(points, 64) == brute_lp_even(points, 64)
    for p in (66, 4000, 10**7):
        with pytest.raises(ValueError, match="^p exceeds the limit of 64 for exact even powers$"):
            lp_exact_even(points, p)


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


@pytest.mark.parametrize("depth", [-1, -2, -5])
def test_lp_estimate_rejects_negative_extra_depth(depth):
    # depths -1 and -2 would put midpoints on grid breaks, -5 a negative shift
    points = build_family("davenport", 4, SignPattern.identity(4))
    with pytest.raises(ValueError, match=f"extra_depth must be >= 0, got {depth}"):
        lp_estimate(points, 3, extra_depth=depth)



@pytest.mark.parametrize("integer", [np.int32, np.int64])
def test_integer_arguments_take_numpy_integers(integer):
    # p and extra_depth pass operator.index, so a numpy integer is the int
    points = symmetrize_full(hammersley_type(3, SignPattern.identity(3)))
    value = lp_exact_even(points, integer(4))
    assert type(value) is Fraction and value == lp_exact_even(points, 4)
    assert lp_estimate(points, 3, extra_depth=integer(2)) == lp_estimate(points, 3, extra_depth=2)


@pytest.mark.parametrize(
    "call, error, phrase",
    [
        (lambda: l2_warnock(PointMultiset([], resolution=0)), ValueError, "empty point multiset"),
        (lambda: lp_exact_even(PointMultiset([(0.5, 0.5)]), 4.0), TypeError,
         "'float' object cannot be interpreted as an integer"),
        (lambda: lp_estimate(PointMultiset([(0.5, 0.5)]), 3, extra_depth=1.5), TypeError,
         "'float' object cannot be interpreted as an integer"),
    ],
    ids=["l2-empty", "p-float", "extra-depth-float"],
)
def test_classical_input_guards(call, error, phrase):
    with pytest.raises(error, match=phrase):
        call()


def test_star_examples():
    assert star_discrepancy(PointMultiset([(0.5, 0.5)])) == Fraction(3, 4)
    assert star_discrepancy(PointMultiset([(0.0, 0.0)])) == 1


def test_star_against_dense_scan():
    points = symmetrize_full(hammersley_type(2, sigma("alternating", 2)))
    exact = star_discrepancy(points)
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
    # the candidates' bound (N/g) 2^(2 res), g = gcd(2^(2 res), N), is 2^(2 res)
    # for every N in {2, 4, 8} and crosses 2^62 inside this range
    rng = random.Random(res)
    for _ in range(12):
        points = random_multiset(rng, rng.choice((2, 4, 8)), res)
        assert star_discrepancy(points) == brute_star(points)
        assert lp_exact_even(points, 2) == l2_warnock(points)
        assert lp_exact_even(points, 4) == brute_lp_even(points, 4)
        assert lp_exact_even(points, 6) == brute_lp_even(points, 6)


def test_star_and_local_discrepancy_take_any_cardinality():
    # the count fraction c/N needs no power of two N
    three = PointMultiset([(0.25, 0.5), (0.5, 0.75), (0.75, 0.25)])
    assert star_discrepancy(three) == Fraction(7, 16)
    assert local_discrepancy(three, (0.5, 0.75)) == Fraction(-1, 24)
    rng = random.Random(3)
    for size in (3, 5, 6, 7):
        for res in (1, 2, 3, 30):
            for points in (random_multiset(rng, size, res),
                           symmetrize_full(random_multiset(rng, size, res))):
                assert star_discrepancy(points) == brute_star(points)
                full = 2 << res  # anchors one level finer than the points
                for _ in range(8):
                    t1, t2 = Fraction(rng.randint(0, full), full), Fraction(rng.randint(0, full), full)
                    assert local_discrepancy(points, (t1, t2)) == brute_local(points, t1, t2)


@pytest.mark.parametrize("res", [29, 30, 31])
@pytest.mark.parametrize("symmetrize", [symmetrize_full, symmetrize_davenport])
def test_star_takes_its_own_bound(symmetrize, res):
    # the candidates |c 2^(2 res) - N x y| / g of a union's star discrepancy,
    # g = gcd(2^(2 res), N), are bounded by (N/g) 2^(2 res) = 2^(2 res) for
    # the four or eight points of a symmetrized pair: _exact(2 res, N/g) is
    # int64 at res 29 and 30 (60 + 1 <= 62) and Python ints from res 31,
    # over the union's int64 coordinates
    rng = random.Random(res)
    for _ in range(4):
        points = symmetrize(random_multiset(rng, 2, res))
        assert points.scaled_coords()[0].dtype == np.int64
        assert math.gcd(1 << 2 * res, len(points)) == len(points)
        assert _exact(2 * res, 1) is (np.int64 if res < 31 else object)
        assert star_discrepancy(points) == brute_star(points)


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
    xs, ys, blocks = _count_rows(points)
    assert [Fraction(int(x), 4) for x in xs] == [
        Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1),
    ]
    # one block holds the four x cells of this small grid
    (a0, block), = blocks
    assert a0 == 0 and block.shape == (4, 5)
    # counting value on the open cell just right of (1/2, 1/2)
    assert Fraction(int(block[2, 2]), len(points)) == Fraction(3, 4)


# -- block edges of the count sweep ----------------------------------------------


def reference_star(points):
    """star_discrepancy one count row at a time, with both absolute values (oracle).

    The candidates are |c 2^(2 res) - N x y|, undivided, in _exact(2 res, N):
    int64 up to N 2^(2 res) < 2^62, as the star ran before its 32-bit lane.
    """
    n = len(points)
    res = points.n_resolution
    xs, ys, rows = row_sweep(points)
    dtype = _exact(2 * res, n)
    ys = ys.astype(dtype, copy=False)
    scale = 1 << (2 * res)
    best = 0
    for x_low, x_high, row in zip(xs[:-1].tolist(), xs[1:].tolist(), rows):
        counts = row[:-1].astype(dtype, copy=False) * scale
        low = n * x_low * ys[:-1]
        high = n * x_high * ys[1:]
        best = max(best, int(np.maximum(np.abs(counts - low), np.abs(counts - high)).max()))
    return Fraction(best, n << 2 * res)


def reference_estimate(points, p, extra_depth):
    """lp_estimate one count row and one midpoint row at a time (oracle)."""
    res = points.n_resolution
    xs, ys, rows = row_sweep(points)
    side = 1 << (res + extra_depth)
    step = 1.0 / side
    mids = (np.arange(side, dtype=np.float64) + 0.5) * step
    ai = np.searchsorted(xs / (1 << res), mids, side="right") - 1
    bi = np.searchsorted(ys / (1 << res), mids, side="right") - 1
    total = 0.0
    r = 0
    for a, row in enumerate(rows):
        c_row = row[bi] * (1.0 / len(points))
        while r < side and ai[r] == a:
            total += float(np.sum(np.abs(c_row - mids[r] * mids) ** p))
            r += 1
    return total * step * step


def requested_dtypes(run, points, monkeypatch):
    """run(points)'s value and the dtypes it asks _count_rows for, in order."""
    dtypes = []
    count_rows = classical._count_rows

    def spy(points, dtype=np.int64):
        dtypes.append(np.dtype(dtype))
        return count_rows(points, dtype)

    with monkeypatch.context() as patch:
        patch.setattr(classical, "_count_rows", spy)
        value = run(points)
    return value, dtypes


@pytest.mark.parametrize(
    "res, size, lane",
    [
        (15, 4, np.int32),  # N/g = 1: the bound 2^30
        (16, 4, np.int64),  # N/g = 1: the bound 2^32
        (1, 8, np.int32),  # N = 2^(2 res + 1) keeps one factor 2: N/g = 2
        (0, 2, np.int32),  # N/g = 2 at resolution 0, where g = 1
        (10, 2047, np.int32),  # odd N: 2047 * 2^20 < 2^31
        (10, 2049, np.int64),  # odd N: 2049 * 2^20 > 2^31
    ],
)
def test_star_candidates_take_the_narrowest_exact_lane(res, size, lane, monkeypatch):
    points = random_multiset(random.Random(res * size), size, res)
    n = len(points)
    weight = n // math.gcd(1 << 2 * res, n)
    assert (weight << 2 * res < 1 << 31) == (lane is np.int32)
    value, dtypes = requested_dtypes(star_discrepancy, points, monkeypatch)
    assert dtypes == [np.dtype(lane)]
    assert value == reference_star(points)
    if size <= 8:
        assert value == brute_star(points)


def test_star_equals_the_undivided_route():
    rng = random.Random(11)
    cases = [points for res in (2, 3, 5, 15, 16, 29) for points in awkward_multisets(rng, res)]
    cases += [build_family(family, n, sigma(preset, n))
              for family in FAMILIES for n in range(1, 9) for preset in PRESETS]
    for points in cases:
        value = star_discrepancy(points)
        assert value == reference_star(points)
        if len(points) <= 16:
            assert value == brute_star(points)


def de_clerck(n):
    """N D* of the identity Hammersley set, N = 2^n >= 4 (De Clerck, Monatsh. Math. 101, 1986)."""
    return Fraction(n, 3) + Fraction(13, 9) - Fraction((-1) ** n * 4, 9 << n)


def test_star_of_the_hammersley_set_has_its_closed_form(monkeypatch):
    # an oracle shared with no other star test; every n here runs on the int32 lane
    for n in range(2, 13):
        points = hammersley_type(n, SignPattern.identity(n))
        value, dtypes = requested_dtypes(star_discrepancy, points, monkeypatch)
        assert dtypes == [np.dtype(np.int32)]
        assert (1 << n) * value == de_clerck(n), n
    # the formula starts at n = 2: at n = 1 it reads 2, and the two points give 3/2
    one = star_discrepancy(hammersley_type(1, SignPattern.identity(1)))
    assert 2 * one == Fraction(3, 2) != de_clerck(1)


def count_power_gathers(points, p, monkeypatch, split=None):
    """lp_exact_even's value and the row count of each table np.take gathers from."""
    gathers = []
    take = np.take

    def spy(a, *args, **kwargs):
        gathers.append(len(a))
        return take(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "take", spy)
        if split is not None:
            patch.setattr(classical, "_limb_split", split)
        value = lp_exact_even(points, p)
    return value, gathers


def two_limb_counts(n, e, dy, limb_split=classical._limb_split):
    """classical._limb_split, with the one-limb c^1 table split in two limbs.

    Narrower count limbs only lower the product sums, so the value stays exact.
    """
    table, dy_limbs, shifts = limb_split(n, e, dy)
    if e == 1 and len(table) == 1:
        half = -(-n.bit_length() // 2)
        table = np.stack([table[0] & ((1 << half) - 1), table[0] >> half])
        shifts = shifts + [half + shift for shift in shifts]
    return table, dy_limbs, shifts


@pytest.mark.parametrize("split", [None, two_limb_counts], ids=["one-limb", "two-limb"])
def test_lp_even_c1_contracts_its_block_in_one_limb(split, monkeypatch):
    # c^0 is added in closed form and takes no pass; c^1 in one limb is the
    # count block itself; every other count power, and c^1 in two limbs, is
    # gathered from its table once per block
    rng = random.Random(4)
    cases = [symmetrize_full(hammersley_type(n, sigma("random", n))) for n in (1, 3, 5)]
    for points in cases + awkward_multisets(rng, 3):
        for p in (2, 4, 6):
            expected = object_route_lp_even(points, p)
            for budget in block_budgets(points).values():
                monkeypatch.setattr(classical, "_BLOCK_BYTES", budget)
                blocks = sum(1 for _ in _count_rows(points)[2])
                value, gathers = count_power_gathers(points, p, monkeypatch, split)
                assert value == expected
                assert len(gathers) == blocks * (p if split else p - 1)


@pytest.mark.parametrize("p", [2, 4, 6, 8, 64])
def test_lp_even_matches_object_route(p):
    rng = random.Random(p)
    sizes = (1, 2) if p == 64 else (1, 3, 5)
    cases = [build_family(family, n, sigma("random", n)) for family in FAMILIES for n in sizes]
    for points in cases + awkward_multisets(rng, 2 if p == 64 else 3):
        assert lp_exact_even(points, p) == object_route_lp_even(points, p)


def block_budgets(points, dtype=np.int64):
    """_BLOCK_BYTES for blocks of 1 row, of 3 rows and of the whole grid, in dtype."""
    xs, ys, blocks = _count_rows(points, dtype)
    row_bytes = next(blocks)[1].itemsize * len(ys)
    return {1: row_bytes, 3: 3 * row_bytes + row_bytes // 2, len(xs) - 1: len(xs) * row_bytes}


def awkward_multisets(rng, res):
    """Seeded multisets at resolution res >= 2 that stress the block step of _count_rows.

    Repeated points; a crowded x break with a point on every y break, so
    that a block's distinct columns reach the row width; coordinates 0 and
    1 on both axes; a set with no point on x = 0, whose first one-row block
    holds no point; and a set on x = 1 only, whose one block holds none.
    """
    full = 1 << res

    def inner():
        return Fraction(rng.randint(1, full - 1), full)

    base = [(inner(), inner()) for _ in range(rng.randint(2, 6))]
    ys = sorted({y for _, y in base} | {Fraction(0), Fraction(1)})
    crowded_x = rng.choice(base)[0]
    sets = [
        base + rng.choices(base, k=4),
        base + [(crowded_x, y) for y in ys],
        base + [(0, 0), (0, 1), (1, 0), (1, 1), (0, inner()), (inner(), 1)] * 2,
        base,
        [(1, inner()) for _ in range(3)],
    ]
    return [PointMultiset(points, resolution=res) for points in sets]


def sweep_cases():
    for family in ("hammersley", "davenport", "symmetrized"):
        for n in (1, 3, 5):
            for preset in PRESETS:
                yield build_family(family, n, sigma(preset, n))
    rng = random.Random(5)
    for res in (2, 3, 5):
        yield from awkward_multisets(rng, res)


def test_awkward_multisets_have_their_features():
    for res in (2, 3, 5, 29):
        full = 1 << res
        repeated, crowded, corners, inner, at_one = (
            [tuple(k.tolist()) for k in points.scaled_coords()]
            for points in awkward_multisets(random.Random(res), res)
        )
        assert len(set(zip(*repeated))) < len(repeated[0])
        # one x break holds a point on every y break, 0 and 1 included
        xs, ys = crowded
        columns = {x: {y for x2, y in zip(xs, ys) if x2 == x} for x in xs}
        assert max(map(len, columns.values())) == len(set(ys) | {0, full})
        assert all({0, full} <= set(k) for k in corners)
        assert 0 not in inner[0] and set(at_one[0]) == {full}


def test_count_blocks_match_the_row_sweep(monkeypatch):
    fine = (points for res in range(29, 35) for points in awkward_multisets(random.Random(res), res))
    cases = itertools.chain(sweep_cases(), fine)
    for points, dtype in itertools.product(cases, (np.int32, np.int64)):
        xs, ys, rows = row_sweep(points)
        expected = np.array(list(rows))
        for height, budget in block_budgets(points, dtype).items():
            monkeypatch.setattr(classical, "_BLOCK_BYTES", budget)
            xs, ys, blocks = _count_rows(points, dtype)
            starts, copies = [], []
            for a0, block in blocks:
                assert block.dtype == dtype and block.flags.c_contiguous
                assert len(block) <= height
                starts.append(a0)
                copies.append(block.copy())
                block[...] = -1  # a consumer may overwrite its block
            assert starts == list(range(0, len(xs) - 1, height))
            assert np.array_equal(np.concatenate(copies), expected)


def star_budgets(points, monkeypatch):
    """block_budgets in the dtype star_discrepancy asks _count_rows for."""
    _, (dtype,) = requested_dtypes(star_discrepancy, points, monkeypatch)
    return block_budgets(points, dtype)


def test_block_edges_keep_star_and_even_lp(monkeypatch):
    for points in sweep_cases():
        star = reference_star(points)
        for budget in star_budgets(points, monkeypatch).values():
            monkeypatch.setattr(classical, "_BLOCK_BYTES", budget)
            assert star_discrepancy(points) == star
        even = {p: object_route_lp_even(points, p, sweep=row_sweep) for p in (2, 4, 6)}
        for budget in block_budgets(points).values():
            monkeypatch.setattr(classical, "_BLOCK_BYTES", budget)
            assert {p: lp_exact_even(points, p) for p in even} == even


@pytest.mark.parametrize("extra_depth", [0, 4])
def test_block_edges_keep_the_estimate_bit_for_bit(extra_depth, monkeypatch):
    # the same float, not a close one: pairwise within a midpoint row, then
    # the row sums in ascending order
    for points in sweep_cases():
        expected = {p: reference_estimate(points, p, extra_depth) for p in (1, 3, 2.5)}
        for budget in block_budgets(points).values():
            monkeypatch.setattr(classical, "_BLOCK_BYTES", budget)
            got = {p: lp_estimate(points, p, extra_depth)[0] for p in expected}
            assert got == expected


def test_row_sums_of_a_block_are_pairwise_like_single_rows():
    # lp_estimate relies on sum(axis=1) of a C-contiguous block adding each
    # row as np.sum adds that row alone, up to the widest midpoint grid
    rng = np.random.default_rng(3)
    for width in (7, 128, 1000, 8193, 1 << 16):
        block = rng.random((3, width)) ** 3
        assert block.sum(axis=1).tolist() == [float(np.sum(row)) for row in block]


@pytest.mark.parametrize("res", range(29, 35))
def test_block_edges_keep_star_past_its_guard(res, monkeypatch):
    # the resolutions of test_star_against_brute_fine_resolution, where the
    # candidates leave int64 for Python ints
    rng = random.Random(res)
    cases = [random_multiset(rng, rng.choice((2, 4, 8)), res) for _ in range(12)]
    for points in cases + awkward_multisets(rng, res):
        star = reference_star(points)
        assert star == brute_star(points)
        for budget in star_budgets(points, monkeypatch).values():
            monkeypatch.setattr(classical, "_BLOCK_BYTES", budget)
            assert star_discrepancy(points) == star


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
    # one dense int64 table over the break grid; the sweep holds one block of
    # _BLOCK_BYTES at a time
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
    with pytest.raises(ValueError, match="not dyadic"):
        local_discrepancy(points, (Fraction(1, 3), 1))
    with pytest.raises(ValueError, match="not dyadic"):
        haar_eval(idx, (Fraction(1, 3), 0.5))
    half, three_quarters = Fraction(1, 2), Fraction(3, 4)
    for anchor in ((0.5, 0.75), (half, three_quarters), (half, 0.75)):
        assert local_discrepancy(points, anchor) == Fraction(1, 8)
        assert haar_eval(idx, anchor) == 1
    assert local_discrepancy(points, (1, 1)) == 0
