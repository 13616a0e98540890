"""Helpers shared by the test modules: a multiset's union as a plain multiset,
the same multiset in reversed entry order, a guard that fails any read of a
symmetrization's union, and the fields of a level summary."""

from contextlib import contextmanager
from unittest import mock

from dyadisc import PointMultiset


def union_of(points, dtype=None):
    """Every point of a multiset, as a plain multiset that reflects no axis.

    Its scans and sums read each point, so it is the oracle of every route
    that reads a base and its reflection flags. dtype=object holds it in
    arrays of Python ints, the dtype past the int64 guard, at any size.
    """
    union = PointMultiset._from_scaled(*points.scaled_coords(), points.n_resolution)
    if dtype is not None:
        coords = tuple(k.astype(dtype) for k in union._base)
        for k in coords:
            k.flags.writeable = False
        object.__setattr__(union, "_base", coords)
    return union


def reversed_entries(points):
    """The same multiset with its base in reversed entry order.

    Its union holds the same points, so every sum over it is the same; a
    Hammersley-type base read backwards fails l2_warnock's base check, so
    its pair sum takes the dominance route.
    """
    kx, ky = points._base
    return PointMultiset._from_scaled(kx[::-1], ky[::-1], points.n_resolution, points._reflected)


@contextmanager
def no_union_read():
    """Inside the block, scaled_coords() raises on a multiset that reflects an axis."""
    read = PointMultiset.scaled_coords

    def guarded(points):
        if any(points._reflected):
            raise AssertionError(f"{points!r} read its union")
        return read(points)

    with mock.patch.object(PointMultiset, "scaled_coords", guarded):
        yield


def summary_fields(summary):
    """The fields of a LevelSummary other than its levels, as comparable values."""
    return (
        summary.accs.tolist(),
        summary.counts.tolist(),
        summary.scale,
        summary.occupied_boxes,
        summary.empty_boxes,
    )
