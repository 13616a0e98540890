"""Deterministic command-line front end with CSV/JSON output.

Subcommands: gen (point coordinates), coeffs (coefficient dumps), norm
(one sequence-norm evaluation), classic (L2 / even L_p / star), sweep
(norms and scaling ratios over an n-range), verify (the exact-identity
suites; nonzero exit on any failure), qmc (cubature error tables).

Identical configurations produce byte-identical output: orderings are
fixed, sums are compensated, and nothing time- or host-dependent is
emitted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

from . import besov, classical, qmc, verify
from .dyadic import DyadicRational
from .haar import mu_all_at_level
from .pointsets import FAMILIES, SIGMA_PRESETS, SignPattern, build_family

__all__ = ["RunConfig", "run", "main"]


@dataclass
class RunConfig:
    subcommand: str
    family: str = "symmetrized"
    n: int = 4
    n_max: Optional[int] = None
    sigma: str = "identity"
    seed: int = 7
    p: str = "2"
    q: str = "2"
    r: float = 0.0
    j_max: Optional[int] = None
    mode: str = "exact"
    out: Optional[str] = None
    fmt: str = "csv"
    integrand: str = "corner:1,1"


def _parse_extended(flag: str, text: str) -> float:
    """A float index; inf is allowed, nan and non-numbers exit with a message."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise SystemExit(f"--{flag} {text}: not a valid index")
    return value


def _params(config: RunConfig) -> besov.BesovParams:
    params = besov.BesovParams(
        _parse_extended("p", config.p), _parse_extended("q", config.q), config.r
    )
    report = besov.validate(params)
    if not report.admissible:
        raise SystemExit("inadmissible parameters: " + "; ".join(report.violations))
    return params


def _sigma(config: RunConfig, n: int) -> SignPattern:
    return SignPattern.from_preset(config.sigma, n, seed=config.seed)


def _n_range(config: RunConfig) -> Sequence[int]:
    hi = config.n if config.n_max is None else config.n_max
    return range(config.n, hi + 1)


def _fmt_float(value: float) -> str:
    return repr(float(value))


def _fmt_exact(value) -> Tuple[str, str, str]:
    """(numerator, denominator, float) rendering of an exact value."""
    if isinstance(value, DyadicRational):
        frac = value.as_fraction()
    else:
        frac = Fraction(value)
    return str(frac.numerator), str(frac.denominator), _fmt_float(float(frac))


class _Emitter:
    def __init__(self, header: List[str]):
        self.header = header
        self.rows: List[Sequence[str]] = []

    def row(self, *values):
        self.rows.append([str(v) for v in values])

    def render(self, fmt: str) -> str:
        if fmt == "json":
            objs = [dict(zip(self.header, row)) for row in self.rows]
            return json.dumps(objs, indent=2) + "\n"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.header)
        writer.writerows(self.rows)
        return buf.getvalue()


def _emit(config: RunConfig, emitter: _Emitter) -> None:
    text = emitter.render(config.fmt)
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands -----------------------------------------------------------


def _cmd_gen(config: RunConfig) -> int:
    points = build_family(config.family, config.n, _sigma(config, config.n))
    emitter = _Emitter(["num_x", "num_y", "den"])
    den = str(1 << points.n_resolution)
    kx, ky = (arr.tolist() for arr in points.scaled_coords())
    emitter.rows.extend(zip(map(str, kx), map(str, ky), repeat(den)))
    _emit(config, emitter)
    return 0


def _cmd_coeffs(config: RunConfig) -> int:
    points = build_family(config.family, config.n, _sigma(config, config.n))
    j_max = config.n if config.j_max is None else config.j_max
    emitter = _Emitter(["j1", "j2", "m1", "m2", "mantissa", "exponent", "value"])
    # Most positions of a level share its empty-box value, so every string is
    # built once (per label, per distinct value) and the rows share them.
    labels = [str(m) for m in range(1 << max(j_max, 0))]
    rendered = {}

    def render(mu: DyadicRational) -> Tuple[str, str, str]:
        key = (mu.mantissa, mu.exponent)
        text = rendered.get(key)
        if text is None:
            text = rendered[key] = (
                str(mu.mantissa), str(mu.exponent), _fmt_float(mu.to_float())
            )
        return text

    for j1 in range(-1, j_max + 1):
        for j2 in range(-1, j_max + 1):
            level = mu_all_at_level(points, j1, j2)
            empty = render(level.empty_value)
            occupied = {key: render(mu) for key, mu in level.occupied.items()}
            prefix = (str(j1), str(j2))
            emitter.rows.extend(
                prefix + (labels[m1], labels[m2]) + occupied.get((m1, m2), empty)
                for m1 in range(1 if j1 == -1 else 1 << j1)
                for m2 in range(1 if j2 == -1 else 1 << j2)
            )
    _emit(config, emitter)
    return 0


def _norm_for(config: RunConfig, points, params) -> besov.NormBreakdown:
    if config.mode == "exact":
        return besov.besov_norm_exact(points, params)
    j_max = (points.n_resolution + 40) if config.j_max is None else config.j_max
    try:
        return besov.besov_norm_truncated(points, params, j_max)
    except ValueError as exc:
        raise SystemExit(f"--jmax {j_max}: {exc}") from exc


def _cmd_norm(config: RunConfig) -> int:
    params = _params(config)
    points = build_family(config.family, config.n, _sigma(config, config.n))
    breakdown = _norm_for(config, points, params)
    emitter = _Emitter(
        ["family", "n", "N", "p", "q", "r", "mode", "total", "core", "tail"]
    )
    emitter.row(
        config.family, config.n, len(points), config.p, config.q, config.r,
        config.mode, _fmt_float(breakdown.total), _fmt_float(breakdown.core_part),
        _fmt_float(breakdown.tail_part),
    )
    _emit(config, emitter)
    return 0


def _cmd_sweep(config: RunConfig) -> int:
    params = _params(config)
    emitter = _Emitter(["family", "n", "N", "p", "q", "r", "norm", "ratio"])
    for n in _n_range(config):
        points = build_family(config.family, n, _sigma(config, n))
        breakdown = _norm_for(config, points, params)
        ((_, ratio),) = besov.scaling_ratio([(len(points), breakdown.total)], params)
        emitter.row(
            config.family, n, len(points), config.p, config.q, config.r,
            _fmt_float(breakdown.total), _fmt_float(ratio),
        )
    _emit(config, emitter)
    return 0


def _cmd_classic(config: RunConfig) -> int:
    points = build_family(config.family, config.n, _sigma(config, config.n))
    emitter = _Emitter(
        ["family", "n", "N", "stat", "value_num", "value_den", "value", "note"]
    )
    p_text = config.p
    if p_text in ("inf", "star"):
        row = ("star", *_fmt_exact(classical.star_discrepancy(points)), "")
    else:
        try:
            p_value = float(p_text)
            even = p_value.is_integer() and int(p_value) % 2 == 0
            if even:
                power = classical.lp_exact_even(points, int(p_value))
            else:
                estimate, side = classical.lp_estimate(points, p_value)
        except ValueError as exc:
            raise SystemExit(f"classic --p {p_text}: {exc}") from exc
        if even:
            row = (f"l{int(p_value)}^p", *_fmt_exact(power), "integral of |D|^p")
        else:
            row = (
                f"l{p_text}^p", "", "", _fmt_float(estimate),
                f"midpoint estimate on {side}x{side} grid",
            )
    emitter.row(config.family, config.n, len(points), *row)
    _emit(config, emitter)
    return 0


def _cmd_verify(config: RunConfig) -> int:
    n_range = _n_range(config)
    presets = (config.sigma,) if config.sigma != "all" else SIGMA_PRESETS
    reports = verify.run_suites(n_range[0], n_range[-1], presets, seed=config.seed)
    emitter = _Emitter(["suite", "n", "sigma", "checked", "failures"])
    failures = 0
    checked = 0
    for report in reports:
        emitter.row(report.suite, report.n, report.sigma, report.checked, report.failures)
        failures += report.failures
        checked += report.checked
        for note in report.notes:
            if report.failures:
                print(f"FAIL {report.suite} n={report.n} {report.sigma}: {note}",
                      file=sys.stderr)
    _emit(config, emitter)
    print(f"verify: {checked} checks, {failures} failures", file=sys.stderr)
    return 0 if failures == 0 else 1


def _parse_integrand(text: str) -> qmc.Integrand:
    kind, _, rest = text.partition(":")
    try:
        a, b = (int(part) for part in rest.split(","))
    except ValueError as exc:
        raise SystemExit(f"cannot parse integrand {text!r}") from exc
    makers = {"corner": qmc.corner_product, "monomial": qmc.monomial}
    if kind not in makers:
        raise SystemExit(f"unknown integrand kind {kind!r}")
    try:
        return makers[kind](a, b)
    except ValueError as exc:
        raise SystemExit(f"integrand {text!r}: {exc}") from exc


def _cmd_qmc(config: RunConfig) -> int:
    integrand = _parse_integrand(config.integrand)
    rows = qmc.error_table(
        config.family, config.sigma, integrand, list(_n_range(config)), seed=config.seed
    )
    emitter = _Emitter(
        ["family", "sigma", "integrand", "n", "N", "error", "slope_so_far"]
    )
    for i, row in enumerate(rows):
        prefix = rows[: i + 1]
        try:
            fit = qmc.fit_rate(prefix)
            slope = "exact" if fit.exact else _fmt_float(fit.slope)
        except ValueError:
            slope = ""
        emitter.row(
            config.family, config.sigma, integrand.name, row.n, row.cardinality,
            _fmt_float(float(row.error)), slope,
        )
    _emit(config, emitter)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "coeffs": _cmd_coeffs,
    "norm": _cmd_norm,
    "classic": _cmd_classic,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "qmc": _cmd_qmc,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadisc",
        description="Exact discrepancy analysis of symmetrized Hammersley-type point sets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--family", choices=FAMILIES, default="symmetrized")
        cmd.add_argument("--n", type=int, default=4)
        cmd.add_argument("--n-max", type=int, default=None, dest="n_max")
        cmd.add_argument(
            "--sigma",
            choices=SIGMA_PRESETS + (("all",) if name == "verify" else ()),
            default="identity",
        )
        cmd.add_argument("--seed", type=int, default=7)
        cmd.add_argument("--p", default="2", help="1 <= p <= inf ('inf' allowed)")
        cmd.add_argument("--q", default="2", help="1 <= q <= inf ('inf' allowed)")
        cmd.add_argument("--r", type=float, default=0.0)
        cmd.add_argument("--jmax", type=int, default=None, dest="j_max")
        cmd.add_argument("--mode", choices=("exact", "truncated"), default="exact")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
        cmd.add_argument("--out", default=None)
        if name == "qmc":
            cmd.add_argument("--integrand", default="corner:1,1")
    return parser


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    if config.subcommand not in _COMMANDS:
        raise SystemExit(f"unknown subcommand {config.subcommand!r}")
    if config.n < 1:
        raise SystemExit("--n must be >= 1")
    if config.n_max is not None and config.n_max < config.n:
        raise SystemExit("--n-max must be >= --n")
    return _COMMANDS[config.subcommand](config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    values = vars(namespace)
    values.setdefault("integrand", "corner:1,1")
    config = RunConfig(**values)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
