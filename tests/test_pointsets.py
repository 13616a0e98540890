"""Construction, reflection and net structure of the point sets."""

import math
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from dyadisc import (
    BesovParams,
    HaarIndex,
    Point,
    PointMultiset,
    SignPattern,
    besov_norm_exact,
    build_family,
    family_reflections,
    corner_product,
    hammersley_type,
    is_net,
    is_transpose_invariant,
    l2_warnock,
    level_counting_sums,
    level_value_counts,
    local_discrepancy,
    monomial,
    mu_all_at_level,
    mu_discrepancy,
    mu_grid,
    oracle_mu,
    oracle_mu_grid,
    qmc_integrate,
    reflect,
    symmetrize_davenport,
    symmetrize_full,
)
from dyadisc.pointsets import _digit_transfer, _exact

from conftest import no_union_read, reversed_entries, union_of

PRESETS = ("identity", "all-flip", "alternating", "random")


def sigma(preset, n):
    return SignPattern.from_preset(preset, n, seed=7)


def brute_force_points(n, flips):
    """Digit-sum construction straight from the definition (test oracle)."""
    out = []
    for bits in range(1 << n):
        t = [(bits >> i) & 1 for i in range(n)]  # t[i-1] = t_i
        s = [t[i] ^ flips[i] for i in range(n)]
        x = sum(Fraction(t[n - i], 2**i) for i in range(1, n + 1))
        y = sum(Fraction(s[i - 1], 2**i) for i in range(1, n + 1))
        out.append((x, y))
    return Counter(out)


def as_fractions(points):
    return Counter((p.x, p.y) for p in points)


def test_base_set_n1():
    assert as_fractions(hammersley_type(1, SignPattern.identity(1))) == Counter(
        [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))]
    )
    assert as_fractions(hammersley_type(1, SignPattern.all_flip(1))) == Counter(
        [(Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0))]
    )


def test_base_set_n2():
    expected = Counter(
        [
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(1, 2)),
            (Fraction(3, 4), Fraction(3, 4)),
        ]
    )
    assert as_fractions(hammersley_type(2, SignPattern.identity(2))) == expected


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_base_set_matches_digit_sums(preset, n):
    sg = sigma(preset, n)
    assert as_fractions(hammersley_type(n, sg)) == brute_force_points(n, sg.flips)


def per_digit_ky(n, sg):
    """ky of hammersley_type from its digits, one full-size pass per digit (test oracle)."""
    v = np.arange(1 << n, dtype=np.int64)
    ky = np.zeros_like(v)
    for i, flip in enumerate(sg.flips):
        ky |= (((v >> i) & 1) ^ int(flip)) << (n - 1 - i)
    return ky


def test_digit_doubling_equals_the_per_digit_formula():
    for n in range(1, 14):
        for preset in PRESETS:
            sg = sigma(preset, n)
            kx, ky = hammersley_type(n, sg).scaled_coords()
            assert np.array_equal(kx, np.arange(1 << n))
            assert ky.dtype == np.int64 and np.array_equal(ky, per_digit_ky(n, sg))


def test_sign_pattern_validation():
    with pytest.raises(ValueError):
        SignPattern(2, (True,))
    # a flip of 2 used to be stored and put the points above the unit square
    with pytest.raises(ValueError):
        SignPattern(2, (2, 0))
    with pytest.raises(ValueError):
        SignPattern(2, (False, None))
    assert SignPattern(3, (1, 0, np.True_)).flips == (True, False, True)
    assert SignPattern(3, (1, 0, True)) == SignPattern(3, (True, False, True))
    with pytest.raises(ValueError):
        hammersley_type(3, SignPattern.identity(2))
    with pytest.raises(ValueError):
        SignPattern.from_preset("random", 4)  # seed required


def _assign_resolution():
    PointMultiset([(0.5, 0.5)]).n_resolution = 3


@pytest.mark.parametrize(
    "call, error, phrase",
    [
        (lambda: SignPattern(0, ()), ValueError, "n must be positive"),
        (lambda: SignPattern.from_preset("spiral", 3), ValueError,
         "unknown sigma preset 'spiral'"),
        (lambda: PointMultiset([], resolution=-1), ValueError,
         "resolution must be nonnegative"),
        (_assign_resolution, AttributeError, "PointMultiset is immutable"),
        (lambda: hammersley_type(0, SignPattern.identity(1)), ValueError, "n must be positive"),
        (lambda: reflect(PointMultiset([(0.5, 0.5)]), "Z"), ValueError,
         "axis must be X, Y or XY, got 'Z'"),
    ],
    ids=["sign-pattern-n", "preset", "resolution", "immutable", "hammersley-n", "axis"],
)
def test_pointsets_input_guards(call, error, phrase):
    with pytest.raises(error, match=phrase):
        call()


def test_repr_names_size_and_resolution():
    assert repr(PointMultiset([(0.5, 0.25), (0, 1)])) == "PointMultiset(N=2, resolution=2)"


@pytest.mark.parametrize("n", [60, 62, 63, 64, 70])
def test_point_sets_past_numpy_raise_memory_error(n):
    # 2^n int64 entries exceed numpy's largest array from n = 60 on a 64-bit
    # build (sooner on a 32-bit one); the check comes before any allocation
    with pytest.raises(MemoryError, match=rf"2\^{n} points"):
        hammersley_type(n, SignPattern.identity(n))


def test_reflections():
    p = PointMultiset([(0.0, 0.0)])
    assert as_fractions(reflect(p, "Y")) == Counter([(Fraction(0), Fraction(1))])
    fixed = PointMultiset([(0.5, 0.25)], resolution=2)
    assert as_fractions(reflect(fixed, "X")) == Counter(
        [(Fraction(1, 2), Fraction(1, 4))]
    )
    corner = PointMultiset([(0.25, 0.0)], resolution=2)
    assert as_fractions(reflect(corner, "XY")) == Counter(
        [(Fraction(3, 4), Fraction(1))]
    )


@pytest.mark.parametrize("axis", ["X", "Y", "XY"])
def test_reflection_involution(axis):
    p = hammersley_type(4, sigma("random", 4))
    assert reflect(reflect(p, axis), axis).multiset() == p.multiset()


def test_symmetrize_full_n1():
    full = symmetrize_full(hammersley_type(1, SignPattern.identity(1)))
    assert len(full) == 8
    counts = as_fractions(full)
    assert counts[(Fraction(1, 2), Fraction(1, 2))] == 4
    for corner in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert counts[(Fraction(corner[0]), Fraction(corner[1]))] == 1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_symmetrize_cardinalities(n):
    base = hammersley_type(n, sigma("alternating", n))
    assert len(symmetrize_full(base)) == 1 << (n + 2)
    assert len(symmetrize_davenport(base)) == 1 << (n + 1)


def test_symmetrize_empty():
    empty = PointMultiset([], resolution=0)
    assert len(symmetrize_full(empty)) == 0
    assert len(symmetrize_davenport(empty)) == 0
    assert [len(k) for k in symmetrize_full(empty).scaled_coords()] == [0, 0]


def test_symmetrize_davenport_n1():
    dav = symmetrize_davenport(hammersley_type(1, SignPattern.identity(1)))
    assert as_fractions(dav) == Counter(
        [
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(0), Fraction(1)),
            (Fraction(1, 2), Fraction(1, 2)),
        ]
    )


@pytest.mark.parametrize("axis", ["X", "Y", "XY"])
def test_full_symmetrization_invariant(axis):
    full = symmetrize_full(hammersley_type(3, sigma("random", 3)))
    assert reflect(full, axis).multiset() == full.multiset()


def test_coordinate_ranges():
    n = 5
    base = hammersley_type(n, sigma("alternating", n))
    assert all(0 <= k < (1 << n) for k in np.concatenate(base.scaled_coords()))
    full = symmetrize_full(base)
    assert all(0 <= k <= (1 << n) for k in np.concatenate(full.scaled_coords()))


def test_generation_order_deterministic():
    a = symmetrize_full(hammersley_type(4, sigma("random", 4)))
    b = symmetrize_full(hammersley_type(4, sigma("random", 4)))
    for ka, kb in zip(a.scaled_coords(), b.scaled_coords()):
        assert np.array_equal(ka, kb)


@pytest.mark.parametrize("preset", PRESETS)
def test_net_property_small(preset):
    for n in range(1, 9):
        assert is_net(hammersley_type(n, sigma(preset, n)), n)


def test_net_property_counterexample():
    bad = PointMultiset([(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)], resolution=2)
    assert not is_net(bad, 2)
    with pytest.raises(ValueError):
        is_net(bad, 3)
    # a Hammersley net on a 2^-40 grid: its box keys, below 2^43, stay in
    # int64, where a product sum over its points would take Python ints
    base = hammersley_type(3, sigma("alternating", 3))
    fine = PointMultiset(base, resolution=40)
    assert _exact(40 + 3, 1) is np.int64 and _exact(2 * 40, len(fine)) is object
    assert is_net(fine, 3)
    entries = list(fine)
    entries[5] = (Fraction(1), entries[5].y)
    assert not is_net(PointMultiset(entries, resolution=40), 3)
    # at resolution 2 < n = 3 the boxes of level 3 take k << (3 - 2): only the even
    # ones are hit, in int64 and in Python ints alike
    coarse = PointMultiset(
        [(Fraction(k, 4), Fraction(k * 3 % 4, 4)) for k in range(4)] * 2, resolution=2
    )
    for points in (coarse, union_of(coarse, object)):
        assert not is_net(points, 3)


@pytest.mark.parametrize("res", [58, 59, 61])
def test_net_keys_take_their_own_bound(res, monkeypatch):
    # the shifted coordinate k << j1 of is_net reaches 2^(res + n): for
    # n = 3 its keys are int64 through res 58 (58 + 3 + 1 = 62) and Python
    # ints from res 59, over int64 coordinates; at res 61 an int64 key
    # would wrap. Both a net and the same set with two x boxes merged are
    # judged as at resolution 3.
    base = hammersley_type(3, sigma("alternating", 3))
    merged = [(x, y) if x != Fraction(1, 8) else (Fraction(0), y) for x, y in base]
    key_dtypes = set()
    sort = np.sort

    def spy(keys, *args, **kwargs):
        key_dtypes.add(keys.dtype)
        return sort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "sort", spy)
    for entries, net in ((base, True), (merged, False)):
        points = PointMultiset(entries, resolution=res)
        assert points.scaled_coords()[0].dtype == np.int64
        assert is_net(points, 3) is net
    assert key_dtypes == {np.dtype(np.int64) if res == 58 else np.dtype(object)}


def test_point_on_coarser_grid_rejected():
    with pytest.raises(ValueError):
        PointMultiset([(Fraction(1, 8), Fraction(0))], resolution=2)
    with pytest.raises(ValueError):
        PointMultiset([(1.5, 0.0)])


def test_float_coordinates_convert_exactly():
    # every finite float is a dyadic k / 2^e, read without rounding down to
    # the smallest subnormal, 2^-1074, which sets the resolution
    rng = random.Random(99)
    exact = [Fraction(rng.randrange(1 << 50), 1 << rng.randrange(50, 60)) for _ in range(200)]
    exact += [Fraction(1, 1 << 1074), Fraction(1), Fraction(0)]
    points = PointMultiset([(float(x), np.float64(x)) for x in exact])
    assert points.entries == tuple(Point(x, x) for x in exact)
    assert points.n_resolution == 1074


# every numbers.Rational and every finite float, numpy scalars included
COORDINATES = [
    (1, Fraction(1)), (True, Fraction(1)), (Fraction(3, 8), Fraction(3, 8)),
    (np.int64(1), Fraction(1)), (np.int32(0), Fraction(0)), (np.uint8(1), Fraction(1)),
    (0.375, Fraction(3, 8)), (np.float64(0.375), Fraction(3, 8)),
    (np.float32(0.375), Fraction(3, 8)),
]


@pytest.mark.parametrize("value, exact", COORDINATES)
def test_coordinates_take_every_rational_and_finite_float(value, exact):
    points = PointMultiset([(value, Fraction(1, 2))])
    assert points.entries == (Point(exact, Fraction(1, 2)),)
    assert points.n_resolution == max(exact.denominator.bit_length() - 1, 1)
    assert type(points.entries[0].x.numerator) is int
    assert local_discrepancy(points, (value, 1)) == local_discrepancy(points, (exact, 1))


@pytest.mark.parametrize("value, error", [
    (Fraction(1, 3), ValueError), (Fraction(5, 6), ValueError),
    (math.inf, ValueError), (-math.inf, ValueError), (math.nan, ValueError),
    (np.float64(math.inf), ValueError), (np.float32(math.nan), ValueError),
    ("0.5", TypeError), (Decimal("0.5"), TypeError), (0.5 + 0j, TypeError), (None, TypeError),
])
def test_coordinates_reject_non_dyadic_values_and_non_numbers(value, error):
    with pytest.raises(error):
        PointMultiset([(value, 0)])
    with pytest.raises(error):
        PointMultiset([(0, value)])
    with pytest.raises(error):
        local_discrepancy(PointMultiset([(0, 0)]), (1, value))


def test_build_family():
    sg = SignPattern.identity(3)
    assert len(build_family("hammersley", 3, sg)) == 8
    assert len(build_family("davenport", 3, sg)) == 16
    assert len(build_family("symmetrized", 3, sg)) == 32
    with pytest.raises(ValueError):
        build_family("lattice", 3, sg)
    with pytest.raises(ValueError):
        family_reflections("lattice")


def test_build_family_reads_the_reflection_map():
    sg = SignPattern.alternating(3)
    base = hammersley_type(3, sg)
    made = {"hammersley": base, "davenport": symmetrize_davenport(base),
            "symmetrized": symmetrize_full(base)}
    for family, expected in made.items():
        points = build_family(family, 3, sg)
        assert points._reflected == family_reflections(family)
        assert points.entries == expected.entries


def test_entries_are_points():
    p = hammersley_type(2, SignPattern.identity(2))
    entries = p.entries
    assert len(entries) == 4
    assert isinstance(entries[0], Point)
    assert entries[1].x == Fraction(1, 4)


def test_scaled_coords_are_read_only():
    points = hammersley_type(3, SignPattern.identity(3))
    for arr in points.scaled_coords():
        with pytest.raises(ValueError):
            arr[0] = 7
    assert points.entries[0] == Point(Fraction(0), Fraction(0))


@pytest.mark.parametrize("res", [30, 31])
def test_plain_scaled_coords_are_read_only_across_their_guard(res):
    # a product sum over two points takes _exact(2 res, 2): int64 at res 30
    # (60 + 2 = 62), Python ints at 31; scaled_coords() returns the int64
    # base itself on both sides, and each such sum casts it
    points = _pair_at(res)
    assert _exact(2 * res, 2) is (np.int64 if res == 30 else object)
    coords = points.scaled_coords()
    assert all(k is base for k, base in zip(coords, points._base))
    assert all(k.dtype == np.int64 for k in coords)
    assert [k.tolist() for k in coords] == [k.tolist() for k in points._base]
    for k in coords:
        with pytest.raises(ValueError):
            k[0] = 7


def _pair_at(res):
    # 2 res + N.bit_length() = 62 for two points at res 30: still int64
    entries = [(Fraction(1, 1 << res), Fraction(3, 1 << res)), (Fraction(5, 8), Fraction(1, 2))]
    return PointMultiset(entries, resolution=res)


@pytest.mark.parametrize(
    "union, axes",
    [(symmetrize_full, ("", "Y", "X", "XY")), (symmetrize_davenport, ("", "Y"))],
    ids=["full", "davenport"],
)
def test_union_repicks_dtype_past_guard(union, axes):
    res = 30
    pair = _pair_at(res)
    assert all(arr.dtype == np.int64 for arr in pair.scaled_coords())
    merged = union(pair)
    with no_union_read():  # the norm folds the base
        besov_norm_exact(merged, BesovParams(2, 2, -0.3))
    kx, ky = merged.scaled_coords()
    assert kx.dtype == ky.dtype == np.int64  # the store's dtype
    # 4 or 8 points: 2 res + 3 > 62, so the product sums over the union
    # take Python ints
    assert _exact(2 * res, len(merged)) is object
    sums = level_counting_sums(merged, 0, 0)[2][1]
    assert sums.dtype == object and all(type(k) is int for k in sums)
    one = Fraction(1)
    expected = PointMultiset(
        [
            (one - x if "X" in axis else x, one - y if "Y" in axis else y)
            for axis in axes
            for x, y in pair
        ],
        resolution=res,
    )
    for got, want in zip(merged.scaled_coords(), expected.scaled_coords()):
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize(
    "union, axes",
    [(symmetrize_full, ("Y", "X", "XY")), (symmetrize_davenport, ("Y",))],
    ids=["full", "davenport"],
)
def test_union_is_built_only_when_read(union, axes):
    # the length, the level scans, the coefficient maps, both grids, the
    # per-index coefficients, the norm, the built-in cubature, the L2 norm and
    # the local discrepancy read the base's orbits alone
    n = 8
    base = hammersley_type(n, sigma("random", n))
    parts = [base] + [reflect(base, axis) for axis in axes]
    points = union(base)
    with no_union_read():
        assert len(points) == len(parts) * len(base)
        level_value_counts(points, 2, 3)
        for j1 in range(-1, n + 2):
            for j2 in range(-1, n + 2):
                mu_all_at_level(points, j1, j2).occupied
        mu_grid(points, n)
        oracle_mu_grid(points, 3)
        for idx in (HaarIndex(-1, -1, 0, 0), HaarIndex(-1, 0, 0, 0), HaarIndex(0, 0, 0, 0),
                    HaarIndex(0, 3, 0, 5), HaarIndex(4, -1, 11, 0), HaarIndex(2, 6, 1, 40)):
            mu_discrepancy(points, idx)
            oracle_mu(points, idx)
        besov_norm_exact(points, BesovParams(2, 2, -0.3))
        for f in (corner_product(2, 3), monomial(0, 1)):
            qmc_integrate(points, f)
        l2_warnock(points)
        l2_warnock(reversed_entries(points))  # the dominance route of the pair sum
        local_discrepancy(points, (Fraction(3, 8), Fraction(5, 16)))
    # then every point: the concatenation of the base and its reflections, in
    # its values, order and dtype, read-only and built anew on each read
    kx, ky = points.scaled_coords()
    for got, want in zip((kx, ky), zip(*(part.scaled_coords() for part in parts))):
        want = np.concatenate(want)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    assert all(np.array_equal(a, b) for a, b in zip(points.scaled_coords(), (kx, ky)))
    assert len(points) == len(kx)


@pytest.mark.parametrize("axis", ["X", "Y", "XY"])
def test_reflect_keeps_dtype(axis):
    # the store's dtype: int64 through res 61, Python ints from 62
    sources = [(pair, dtype) for res, dtype in ((30, np.int64), (62, object))
               for pair in (_pair_at(res), symmetrize_full(_pair_at(res)))]
    for source, dtype in sources:
        assert source.scaled_coords()[0].dtype == dtype
        assert all(arr.dtype == dtype for arr in reflect(source, axis).scaled_coords())


def test_local_discrepancy_past_guard():
    res, size = 40, 16
    rng = random.Random(res)

    def grid_value(bits):
        return Fraction(rng.randrange(1 << bits), 1 << bits)

    entries = [(grid_value(res), grid_value(res)) for _ in range(size)]
    points = PointMultiset(entries, resolution=res)
    assert points.scaled_coords()[0].dtype == np.int64
    assert _exact(2 * res, size) is object  # a product sum over the points would not be
    kx, ky = (arr.tolist() for arr in points.scaled_coords())
    # anchors on the grid, between grid points, on a point and at the corner
    anchors = [(grid_value(res + 2), grid_value(res)) for _ in range(20)]
    anchors += [(Fraction(kx[0], 1 << res), Fraction(ky[0], 1 << res)), (Fraction(1), Fraction(1))]
    for a, b in anchors:
        count = sum(Fraction(x, 1 << res) < a and Fraction(y, 1 << res) < b for x, y in zip(kx, ky))
        assert local_discrepancy(points, (a, b)) == Fraction(count, size) - a * b


def every_sigma(n_max):
    for n in range(1, n_max + 1):
        for bits in range(1 << n):
            yield SignPattern(n, tuple(bool(bits >> i & 1) for i in range(n)))


def test_transpose_reverses_the_sign_pattern():
    # swapping x and y in hammersley_type(n, sigma) gives the multiset of
    # hammersley_type(n, reversed sigma), for every sigma up to n = 8
    for sg in every_sigma(8):
        kx, ky = (k.tolist() for k in hammersley_type(sg.n, sg).scaled_coords())
        reversed_sg = SignPattern(sg.n, sg.flips[::-1])
        rx, ry = (k.tolist() for k in hammersley_type(sg.n, reversed_sg).scaled_coords())
        assert sorted(zip(ky, kx)) == sorted(zip(rx, ry)), sg


def test_transpose_invariance_is_the_palindromic_sigma():
    # davenport reflects y only, so its transpose reflects x: never invariant
    for sg in every_sigma(8):
        palindrome = sg.flips == sg.flips[::-1]
        for family, expected in (("hammersley", palindrome), ("symmetrized", palindrome),
                                 ("davenport", False)):
            assert is_transpose_invariant(build_family(family, sg.n, sg)) is expected, (family, sg)


def _swapped_scrambled(rng, res, size):
    """Random points on the 2^-res grid with their transposes, in a scrambled order.

    Includes a diagonal point and a coordinate equal to 1.
    """
    pairs = [(rng.randint(0, 1 << res), rng.randint(0, 1 << res)) for _ in range(size)]
    pairs += [(k, k) for k, _ in pairs[:1]] + [(1 << res, 0)]
    entries = pairs + [(ky, kx) for kx, ky in pairs]
    rng.shuffle(entries)
    return entries


def _step(k):
    """A grid neighbour of k that stays in [0, 2^res]."""
    return k - 1 if k else 1


def _grid_set(entries, res):
    full = 1 << res
    return PointMultiset([(Fraction(kx, full), Fraction(ky, full)) for kx, ky in entries],
                         resolution=res)


@pytest.mark.parametrize("res", [6, 30, 31, 62])
def test_transpose_invariance_of_hand_built_sets(res):
    # a set equal to its transpose in scrambled order is invariant, and so
    # is its full symmetrization; moving one point by one grid step, the
    # smallest move, which a float would not see at res 62, breaks it. The
    # sort keys take int64 up to res 30 and Python ints from 31; the store
    # takes Python ints from 62
    rng = random.Random(res)
    entries = _swapped_scrambled(rng, res, 12)
    points = _grid_set(entries, res)
    assert _exact(2 * res + 1, 1) is (np.int64 if res <= 30 else object)
    assert points._base[0].dtype == (np.int64 if res < 62 else object)
    assert is_transpose_invariant(points)
    assert is_transpose_invariant(symmetrize_full(points))
    assert not is_transpose_invariant(symmetrize_davenport(points))
    assert points._cache == {}
    for i in (0, len(entries) // 2, len(entries) - 1):
        kx, ky = entries[i]
        for moved in ((_step(kx), ky), (kx, _step(ky))):
            broken = _grid_set(entries[:i] + [moved] + entries[i + 1:], res)
            assert not is_transpose_invariant(broken), (i, moved)
            assert not is_transpose_invariant(symmetrize_full(broken)), (i, moved)


@pytest.mark.parametrize("preset", ["identity", "all-flip", "alternating", "random"])
def test_digit_transfer_against_brute_force(preset):
    # states the library's instances never use: the parity of a counter's
    # digits, and cmp(x, x') of a pair, which the highest differing digit sets
    for n in range(1, 6):
        pattern = SignPattern.from_preset(preset, n, seed=5)
        kx, ky = (k.tolist() for k in hammersley_type(n, pattern).scaled_coords())
        monomials = [(s, t) for s in range(3) for t in range(2)]
        parity = _digit_transfer(pattern, 1, monomials, lambda c, bits, ybits: c ^ bits[0], 0)
        expected = {}
        for v, (x, y) in enumerate(zip(kx, ky)):
            sums = expected.setdefault(bin(v).count("1") % 2, [0] * len(monomials))
            for j, (s, t) in enumerate(monomials):
                sums[j] += x**s * y**t
        assert parity == expected, (n, "parity")

        monomials = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 1)]
        compare = _digit_transfer(pattern, 2, monomials,
                                  lambda c, bits, ybits: bits[0] - bits[1] or c, 0)
        expected = {}
        for x, y in zip(kx, ky):
            for xp, yp in zip(kx, ky):
                sums = expected.setdefault((x > xp) - (x < xp), [0] * 4)
                for j, term in enumerate((1, x, yp, x * yp)):
                    sums[j] += term
        assert compare == expected, (n, "compare")
