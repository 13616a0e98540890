"""Construction, reflection and net structure of the point sets."""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from dyadisc import (
    Point,
    PointMultiset,
    SignPattern,
    build_family,
    dyadic,
    hammersley_type,
    is_net,
    local_discrepancy,
    reflect,
    symmetrize_davenport,
    symmetrize_full,
)

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
    with pytest.raises(ValueError):
        hammersley_type(3, SignPattern.identity(2))
    with pytest.raises(ValueError):
        SignPattern.from_preset("random", 4)  # seed required


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
    kx, ky = merged.scaled_coords()
    assert kx.dtype == ky.dtype == object  # 4 or 8 points: 2 res + 3 > 62
    assert all(type(k) is int for k in np.concatenate([kx, ky]))
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


@pytest.mark.parametrize("axis", ["X", "Y", "XY"])
def test_reflect_keeps_dtype(axis):
    pair = _pair_at(30)
    for source, dtype in ((pair, np.int64), (symmetrize_full(pair), object)):
        assert source.scaled_coords()[0].dtype == dtype
        assert all(arr.dtype == dtype for arr in reflect(source, axis).scaled_coords())


def test_local_discrepancy_past_guard():
    res, size = 40, 16
    rng = random.Random(res)

    def grid_value(bits):
        return dyadic(rng.randrange(1 << bits), bits)

    entries = [(grid_value(res), grid_value(res)) for _ in range(size)]
    points = PointMultiset(entries, resolution=res)
    assert points.scaled_coords()[0].dtype == object
    kx, ky = (arr.tolist() for arr in points.scaled_coords())
    # anchors on the grid, between grid points, on a point and at the corner
    anchors = [(grid_value(res + 2), grid_value(res)) for _ in range(20)]
    anchors += [(dyadic(kx[0], res), dyadic(ky[0], res)), (dyadic(1), dyadic(1))]
    for t1, t2 in anchors:
        a, b = t1.as_fraction(), t2.as_fraction()
        count = sum(Fraction(x, 1 << res) < a and Fraction(y, 1 << res) < b for x, y in zip(kx, ky))
        assert local_discrepancy(points, (t1, t2)).as_fraction() == Fraction(count, size) - a * b
