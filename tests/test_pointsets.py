"""Construction, reflection and net structure of the point sets."""

import random
from collections import Counter
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
    dyadic,
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
from dyadisc.pointsets import _exact

from conftest import no_union_read, union_of

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
    return Counter((p.x.as_fraction(), p.y.as_fraction()) for p in points)


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
    entries[5] = (dyadic(1), entries[5].y)
    assert not is_net(PointMultiset(entries, resolution=40), 3)
    # at resolution 2 < n = 3 the boxes of level 3 take k << (3 - 2): only the even
    # ones are hit, in int64 and in Python ints alike
    coarse = PointMultiset(
        [(dyadic(k, 2), dyadic(k * 3 % 4, 2)) for k in range(4)] * 2, resolution=2
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
    merged = [(x, y) if x != dyadic(1, 3) else (dyadic(0), y) for x, y in base]
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
        PointMultiset([(dyadic(1, 3), dyadic(0))], resolution=2)
    with pytest.raises(ValueError):
        PointMultiset([(1.5, 0.0)])


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
    assert entries[1].x.as_fraction() == Fraction(1, 4)


def test_scaled_coords_are_read_only():
    points = hammersley_type(3, SignPattern.identity(3))
    for arr in points.scaled_coords():
        with pytest.raises(ValueError):
            arr[0] = 7
    assert points.entries[0] == Point(dyadic(0), dyadic(0))


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
    entries = [(dyadic(1, res), dyadic(3, res)), (dyadic(5, 3), dyadic(1, 1))]
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
    one = dyadic(1)
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
        local_discrepancy(points, (dyadic(3, 3), dyadic(5, 4)))
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
        return dyadic(rng.randrange(1 << bits), bits)

    entries = [(grid_value(res), grid_value(res)) for _ in range(size)]
    points = PointMultiset(entries, resolution=res)
    assert points.scaled_coords()[0].dtype == np.int64
    assert _exact(2 * res, size) is object  # a product sum over the points would not be
    kx, ky = (arr.tolist() for arr in points.scaled_coords())
    # anchors on the grid, between grid points, on a point and at the corner
    anchors = [(grid_value(res + 2), grid_value(res)) for _ in range(20)]
    anchors += [(dyadic(kx[0], res), dyadic(ky[0], res)), (dyadic(1), dyadic(1))]
    for t1, t2 in anchors:
        a, b = t1.as_fraction(), t2.as_fraction()
        count = sum(Fraction(x, 1 << res) < a and Fraction(y, 1 << res) < b for x, y in zip(kx, ky))
        assert local_discrepancy(points, (t1, t2)).as_fraction() == Fraction(count, size) - a * b


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
    return PointMultiset([(dyadic(kx, res), dyadic(ky, res)) for kx, ky in entries], resolution=res)


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
