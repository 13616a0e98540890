"""Equal-weight cubature over the point sets and convergence-rate fitting.

The built-in integrand family consists of the corner products
(1-x)^a (1-y)^b and the monomials x^a y^b with small integer exponents.
At dyadic nodes these evaluate to exact rationals, so cubature values and
errors are exact: the sum runs over the integer coordinate arrays at scale
2^resolution, in int64 while every term and the total fit and in Python
integers past that. The corner product with a = b = 1 is the litmus test
separating the full symmetrization (error exactly zero) from the
single-axis one (error exactly 2^-(n+2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .pointsets import PointMultiset, SignPattern, build_family

__all__ = [
    "Integrand",
    "corner_product",
    "monomial",
    "qmc_integrate",
    "ErrorRow",
    "error_table",
    "RateFit",
    "fit_rate",
]

CORNER = "corner"
MONOMIAL = "monomial"
CUSTOM = "custom"


@dataclass(frozen=True)
class Integrand:
    """Named integrand with its exact integral when one is known."""

    name: str
    kind: str
    a: int = 0
    b: int = 0
    func: Optional[Callable[[float, float], float]] = None
    exact_integral: Optional[Fraction] = None

    def evaluate(self, x, y):
        """Polynomial evaluation; exact when fed exact numbers."""
        if self.kind == CORNER:
            return (1 - x) ** self.a * (1 - y) ** self.b
        if self.kind == MONOMIAL:
            return x**self.a * y**self.b
        return self.func(x, y)


def _check_exponents(a: int, b: int):
    if not (0 <= a <= 8 and 0 <= b <= 8):
        raise ValueError("exponents are limited to 0..8")


def corner_product(a: int, b: int) -> Integrand:
    """(1-x)^a (1-y)^b, vanishing on the upper and right boundary lines."""
    _check_exponents(a, b)
    return Integrand(
        name=f"corner:{a},{b}",
        kind=CORNER,
        a=a,
        b=b,
        exact_integral=Fraction(1, (a + 1) * (b + 1)),
    )


def monomial(a: int, b: int) -> Integrand:
    _check_exponents(a, b)
    return Integrand(
        name=f"monomial:{a},{b}",
        kind=MONOMIAL,
        a=a,
        b=b,
        exact_integral=Fraction(1, (a + 1) * (b + 1)),
    )


def qmc_integrate(points: PointMultiset, f: Integrand) -> Union[Fraction, float]:
    """Equal-weight average of f over the multiset.

    Exact (a Fraction) for the built-in polynomial family at dyadic nodes:
    the numerator is one numpy sum over the integer coordinates at scale
    2^res, in int64 while (a + b) * res + N.bit_length() <= 62 (every term
    is at most 2^((a + b) res)) and in object arrays of Python ints past
    that. Custom integrands give a float average.
    """
    n = len(points)
    if n == 0:
        raise ValueError("empty point multiset")
    res = points.n_resolution
    full = 1 << res
    if f.kind in (CORNER, MONOMIAL):
        # max(..., 1): the coordinates themselves must fit as well
        exact = max(f.a + f.b, 1) * res + n.bit_length() > 62
        dtype = object if exact else np.int64
        kx, ky = (arr.astype(dtype, copy=False) for arr in points.scaled_coords())
        if f.kind == CORNER:
            kx, ky = full - kx, full - ky
        total = int((kx**f.a * ky**f.b).sum())
        return Fraction(total, n * full ** (f.a + f.b))
    kx, ky = (arr.tolist() for arr in points.scaled_coords())
    scale = 1.0 / full
    return math.fsum(f.func(x * scale, y * scale) for x, y in zip(kx, ky)) / n


@dataclass(frozen=True)
class ErrorRow:
    n: int
    cardinality: int
    error: Union[Fraction, float]


def error_table(
    family: str,
    sigma_preset: str,
    f: Integrand,
    n_range: Sequence[int],
    seed: int = 7,
) -> List[ErrorRow]:
    """Cubature errors |Q_N - I| over an n-range; exact for built-ins."""
    if not n_range:
        raise ValueError("n_range must be nonempty")
    if f.exact_integral is None:
        raise ValueError(f"integrand {f.name} has no exact integral to compare with")
    rows = []
    for n in n_range:
        sigma = SignPattern.from_preset(sigma_preset, n, seed=seed)
        points = build_family(family, n, sigma)
        value = qmc_integrate(points, f)
        rows.append(ErrorRow(n, len(points), abs(value - f.exact_integral)))
    return rows


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log2 error against log2 N.

    exact is set (and slope is None) when every error vanishes, which is a
    statement about the rule, not a fit.
    """

    slope: Optional[float]
    residual: Optional[float]
    exact: bool
    n_used: int


def fit_rate(rows: Sequence[ErrorRow]) -> RateFit:
    usable = [(row.cardinality, row.error) for row in rows if row.error != 0]
    if not usable:
        if not rows:
            raise ValueError("no rows to fit")
        return RateFit(slope=None, residual=None, exact=True, n_used=0)
    if len(usable) < 3:
        raise ValueError(f"need at least 3 nonzero errors to fit, got {len(usable)}")
    xs = [math.log2(count) for count, _ in usable]
    ys = [math.log2(float(err)) for _, err in usable]
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residual = math.fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    return RateFit(slope=slope, residual=residual, exact=False, n_used=n)
