"""Equal-weight cubature over the point sets and convergence-rate fitting.

The built-in integrand family consists of the corner products
(1-x)^a (1-y)^b and the monomials x^a y^b with small integer exponents.
At dyadic nodes these evaluate to exact rationals, so cubature values and
errors are exact: the sum runs over the integer coordinate arrays at scale
2^resolution, in int64 while every term and the total fit and in Python
integers past that, and over reflection orbits for the symmetrizations.
On the three families the same sums need no points: family_integral
reads the moments of pointsets.hammersley_moments, a transfer over the n
digits, so error tables reach any n. The corner product with a = b = 1
is the litmus test separating the full symmetrization (error exactly
zero) from the single-axis one (error exactly 2^-(n+2)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .pointsets import (
    PointMultiset,
    SignPattern,
    _exact,
    build_family,
    family_reflections,
    hammersley_moments,
)

__all__ = [
    "Integrand",
    "corner_product",
    "monomial",
    "qmc_integrate",
    "family_integral",
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


def _polynomial(kind: str, a: int, b: int) -> Integrand:
    """The built-in integrand of the kind with exponents a, b in 0..8, and its integral."""
    if not (0 <= a <= 8 and 0 <= b <= 8):
        raise ValueError("exponents are limited to 0..8")
    return Integrand(f"{kind}:{a},{b}", kind, a, b, exact_integral=Fraction(1, (a + 1) * (b + 1)))


def corner_product(a: int, b: int) -> Integrand:
    """(1-x)^a (1-y)^b, vanishing on the upper and right boundary lines."""
    return _polynomial(CORNER, a, b)


def monomial(a: int, b: int) -> Integrand:
    """x^a y^b."""
    return _polynomial(MONOMIAL, a, b)


def qmc_integrate(points: PointMultiset, f: Integrand) -> Union[Fraction, float]:
    """Equal-weight average of f over the multiset.

    Exact (a Fraction) for the built-in polynomial family at dyadic nodes:
    the numerator is one numpy sum at scale 2^res over the base's orbits
    (PointMultiset.axis_orbits) of k^e, or of (2^res - k)^e for a corner,
    in pointsets._exact(max(a + b, 1) res, N): int64, or object arrays of
    Python ints. Custom integrands give a float average over every point.
    """
    n = len(points)
    if n == 0:
        raise ValueError("empty point multiset")
    res = points.n_resolution
    full = 1 << res
    if f.kind in (CORNER, MONOMIAL):
        # max(..., 1): the coordinates themselves must fit as well
        dtype = _exact(max(f.a + f.b, 1) * res, n)
        fx, fy = (sum((full - k if f.kind == CORNER else k) ** e for k in orbit)
                  for orbit, e in zip(points.axis_orbits(dtype), (f.a, f.b)))
        return Fraction(int((fx * fy).sum()), n * full ** (f.a + f.b))
    kx, ky = (arr.tolist() for arr in points.scaled_coords())
    scale = 1.0 / full
    return math.fsum(f.func(x * scale, y * scale) for x, y in zip(kx, ky)) / n


@dataclass(frozen=True)
class ErrorRow:
    n: int
    cardinality: int
    error: Union[Fraction, float]


def _orbit_polynomial(f: Integrand, e: int, full: int, reflected: bool) -> List[int]:
    """Integer coefficients, by power of k, of one axis's orbit sum of f's factor.

    The factor is (full - k)^e for a corner and k^e for a monomial; a
    reflected axis adds the other one, its value at full - k.
    """
    mirror = [math.comb(e, s) * full ** (e - s) * (-1) ** s for s in range(e + 1)]
    plain = [0] * e + [1]
    own, other = (mirror, plain) if f.kind == CORNER else (plain, mirror)
    return [u + w for u, w in zip(own, other)] if reflected else own


def family_integral(family: str, sigma: SignPattern, f: Integrand) -> Tuple[int, Fraction]:
    """(N, Q_N(f)) for a built-in f on build_family(family, sigma.n, sigma), without points.

    The family's N points are the 2^n Hammersley-type points and their
    reflection orbits, so the numerator of Q_N(f) at scale 2^n is the
    sum over s, t of px[s] py[t] M[s][t]: px and py are the orbit sums of
    f's two factors as polynomials in the integer coordinate, and M holds
    the base's moments from pointsets.hammersley_moments. Exact, equal to
    qmc_integrate on the built points, in time polynomial in n, a and b.
    """
    if f.kind not in (CORNER, MONOMIAL):
        raise ValueError(f"integrand {f.name} is not a built-in polynomial")
    n = sigma.n
    reflected = family_reflections(family)
    full = 1 << n
    px, py = (_orbit_polynomial(f, e, full, r) for e, r in zip((f.a, f.b), reflected))
    moments = hammersley_moments(sigma, f.a, f.b)
    total = sum(cx * sum(cy * m for cy, m in zip(py, row)) for cx, row in zip(px, moments))
    count = full << sum(reflected)
    return count, Fraction(total, count * full ** (f.a + f.b))


def error_table(
    family: str,
    sigma_preset: str,
    f: Integrand,
    n_range: Sequence[int],
    seed: int = 7,
) -> List[ErrorRow]:
    """Cubature errors |Q_N - I| over an n-range; exact for built-ins.

    A built-in integrand goes through family_integral and builds no point;
    a custom one is averaged over the points of build_family.
    """
    if not n_range:
        raise ValueError("n_range must be nonempty")
    if f.exact_integral is None:
        raise ValueError(f"integrand {f.name} has no exact integral to compare with")
    rows = []
    for n in n_range:
        sigma = SignPattern.from_preset(sigma_preset, n, seed=seed)
        if f.kind in (CORNER, MONOMIAL):
            count, value = family_integral(family, sigma, f)
        else:
            points = build_family(family, n, sigma)
            count, value = len(points), qmc_integrate(points, f)
        rows.append(ErrorRow(n, count, abs(value - f.exact_integral)))
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


def _log2(err: Union[Fraction, float]) -> float:
    """log2 of a positive error: of its float where that is normal, else of its exact ratio."""
    if float(err) >= sys.float_info.min:
        return math.log2(float(err))
    num, den = err.as_integer_ratio()
    return math.log2(num) - math.log2(den)


def fit_rate(rows: Sequence[ErrorRow]) -> RateFit:
    usable = [(row.cardinality, row.error) for row in rows if row.error != 0]
    if not usable:
        if not rows:
            raise ValueError("no rows to fit")
        return RateFit(slope=None, residual=None, exact=True, n_used=0)
    if len(usable) < 3:
        raise ValueError(f"need at least 3 nonzero errors to fit, got {len(usable)}")
    if len({count for count, _ in usable}) == 1:
        raise ValueError(f"every nonzero error is at N = {usable[0][0]}; a rate needs two N")
    xs = [math.log2(count) for count, _ in usable]
    ys = [_log2(err) for _, err in usable]
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residual = math.fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    return RateFit(slope=slope, residual=residual, exact=False, n_used=n)
