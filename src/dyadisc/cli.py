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
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import besov, classical, qmc, verify
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


def _fmt_exact(value: Fraction) -> Tuple[str, str, str]:
    """(numerator, denominator, float) rendering of an exact value."""
    return str(value.numerator), str(value.denominator), _fmt_float(float(value))


class _Emitter:
    """CSV, or a JSON list of objects, built one block of rows at a time.

    A row is a lead and a tail, fragments of cells joined by "," (CSV) or by ",\n"
    after their JSON keys. Cells are escaped a column at a time and rows sharing a
    lead are one join, so no Python code runs per row. The blocks rendered so far
    are written, and dropped, after each step of emit.
    """

    def __init__(self, header: List[str], fmt: str):
        self.json = fmt == "json"
        self.keys = [f"    {json.dumps(key)}: " for key in header]  # CSV counts them
        self.sep, self.open, self.row_sep = (
            (",\n", "  {\n", "\n  },\n") if self.json else (",", "", "\n"))
        self.pieces: List[str] = []
        self.next_sep = "[\n" if self.json else ""  # the table's opening, before the first block
        if not self.json:
            self.row(*header)

    def _bare(self, column: List[str]) -> bool:
        """Whether csv.writer, ending lines with "\n", would leave every cell unquoted."""
        return not {",", '"', "\n"} & set("".join(column)) and (len(self.keys) > 1 or all(column))

    def _column(self, key: str, column: List[str]) -> Iterable[str]:
        if self.json:  # one call escapes the column: escaped strings hold no raw newline
            return map(key.__add__, json.dumps(column, separators=("\n", ":"))[1:-1].split("\n"))
        if self._bare(column):
            return column
        quoted = {cell: cell if self._bare([cell]) else '"%s"' % cell.replace('"', '""')
                  for cell in set(column)}
        return map(quoted.get, column)

    def fragments(self, columns: Sequence[List[str]], start: int = 0) -> List[str]:
        """Rendered rows, given column by column, of the columns from start on."""
        return list(map(self.sep.join, zip(*map(self._column, self.keys[start:], columns))))

    def block(self, tails: Sequence[str], lead: Optional[str] = None) -> None:
        """One row per tail, each after the rendered lead if there is one."""
        pre = self.open if lead is None else self.open + lead + self.sep
        self.pieces += (self.next_sep, pre + (self.row_sep + pre).join(tails))
        self.next_sep = self.row_sep

    def row(self, *values) -> None:
        self.block(self.fragments([[str(value)] for value in values]))

    def emit(self, out: Optional[str], steps: Iterable[object] = ()) -> None:
        """Write the table to the file named out, or to stdout if out is None or "-".

        The file is opened first; each item taken from steps renders more
        blocks, which are written before the next is taken.
        """
        if not out or out == "-":
            return self._write(sys.stdout, steps)
        try:
            with open(out, "w", encoding="utf-8", newline="") as handle:
                self._write(handle, steps)
        except OSError as exc:
            raise SystemExit(f"--out {out}: {exc.strerror}") from exc

    def _write(self, handle, steps: Iterable[object]) -> None:
        for _ in chain(steps, [None]):
            handle.writelines(self.pieces)
            self.pieces.clear()
        end = "\n  }\n]\n" if self.json else "\n"
        handle.write(end if self.next_sep == self.row_sep else "[]\n")  # only JSON can be empty


# -- subcommands -----------------------------------------------------------


# points per block of gen, rendered and written before the next
_GEN_BLOCK = 1 << 16


def _cmd_gen(config: RunConfig) -> int:
    points = build_family(config.family, config.n, _sigma(config, config.n))
    emitter = _Emitter(["num_x", "num_y", "den"], config.fmt)
    coords = points.scaled_coords()
    den = str(1 << points.n_resolution)

    def blocks():
        for start in range(0, len(points), _GEN_BLOCK):
            kx, ky = (list(map(str, k[start : start + _GEN_BLOCK].tolist())) for k in coords)
            emitter.block(emitter.fragments([kx, ky, [den] * len(kx)]))
            yield

    emitter.emit(config.out, blocks())
    return 0


def _cmd_coeffs(config: RunConfig) -> int:
    j_max = config.n if config.j_max is None else config.j_max
    if j_max < -1:
        raise SystemExit(f"--jmax {j_max}: levels start at -1")
    if j_max > 10:  # 4^(jmax + 1) rows: --jmax 10 writes 4.2 million, 0.65 GB of JSON
        given = "--jmax defaults to --n" if config.j_max is None else "--jmax"
        raise SystemExit(f"{given} {j_max}: {4 ** (j_max + 1):,} rows, over the limit of "
                         f"{4 ** 11:,}; pass --jmax 10")
    points = build_family(config.family, config.n, _sigma(config, config.n))
    emitter = _Emitter(["j1", "j2", "m1", "m2", "mantissa", "exponent", "value"], config.fmt)
    labels = [str(m) for m in range(1 << max(j_max, 0))]
    rendered: Dict[Tuple[int, int], str] = {}  # (numerator, denominator) -> "," + value cells

    def render(mu: Fraction) -> str:
        # mantissa, exponent: the reduced numerator and log2 of the denominator
        key = (mu.numerator, mu.denominator)
        if key not in rendered:
            exponent = mu.denominator.bit_length() - 1
            cells = [[str(mu.numerator)], [str(exponent)], [_fmt_float(float(mu))]]
            rendered[key] = emitter.sep + emitter.fragments(cells, 4)[0]
        return rendered[key]

    # one level per step; its tails hold the empty value, patched in copies for m1 rows with points
    def levels():
        for j1, j2 in product(range(-1, j_max + 1), repeat=2):
            width1 = 1 << max(j1, 0)
            level = mu_all_at_level(points, j1, j2)
            leads = emitter.fragments([[str(j1)] * width1, [str(j2)] * width1, labels[:width1]])
            m2_cells = emitter.fragments([labels[: 1 << max(j2, 0)]], 3)
            empty = list(map(str.__add__, m2_cells, repeat(render(level.empty_value))))
            patched = {m1: empty.copy() for m1 in {m1 for m1, _ in level.occupied}}
            for (m1, m2), mu in level.occupied.items():
                patched[m1][m2] = m2_cells[m2] + render(mu)
            for m1, lead in enumerate(leads):
                emitter.block(patched.get(m1, empty), lead)
            yield

    emitter.emit(config.out, levels())
    return 0


def _norm_for(config: RunConfig, points, params) -> besov.NormBreakdown:
    """The norm of the configured mode; a norm that floats cannot hold exits."""
    if config.mode == "exact":
        if config.j_max is not None:
            raise SystemExit(f"--jmax {config.j_max}: only --mode truncated reads it")
    elif config.j_max is not None and config.j_max < 0:
        raise SystemExit(f"--jmax {config.j_max}: j_max must be nonnegative")
    try:
        if config.mode == "exact":
            return besov.besov_norm_exact(points, params)
        j_max = (points.n_resolution + 40) if config.j_max is None else config.j_max
        return besov.besov_norm_truncated(points, params, j_max)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc  # it names p and q


def _cmd_norm(config: RunConfig) -> int:
    params = _params(config)
    points = build_family(config.family, config.n, _sigma(config, config.n))
    breakdown = _norm_for(config, points, params)
    emitter = _Emitter(
        ["family", "n", "N", "p", "q", "r", "mode", "total", "core", "tail"], config.fmt
    )
    emitter.row(
        config.family, config.n, len(points), config.p, config.q, config.r,
        config.mode, _fmt_float(breakdown.total), _fmt_float(breakdown.core_part),
        _fmt_float(breakdown.tail_part),
    )
    emitter.emit(config.out)
    return 0


def _cmd_sweep(config: RunConfig) -> int:
    params = _params(config)
    emitter = _Emitter(["family", "n", "N", "p", "q", "r", "norm", "ratio"], config.fmt)
    for n in _n_range(config):
        points = build_family(config.family, n, _sigma(config, n))
        breakdown = _norm_for(config, points, params)
        ((_, ratio),) = besov.scaling_ratio([(len(points), breakdown.total)], params)
        emitter.row(
            config.family, n, len(points), config.p, config.q, config.r,
            _fmt_float(breakdown.total), _fmt_float(ratio),
        )
    emitter.emit(config.out)
    return 0


def _cmd_classic(config: RunConfig) -> int:
    points = build_family(config.family, config.n, _sigma(config, config.n))
    emitter = _Emitter(
        ["family", "n", "N", "stat", "value_num", "value_den", "value", "note"], config.fmt
    )
    p_text = config.p
    p_value = math.inf if p_text == "star" else _parse_extended("p", p_text)
    if p_value == math.inf:
        row = ("star", *_fmt_exact(classical.star_discrepancy(points)), "")
    else:
        try:
            even = p_value.is_integer() and int(p_value) % 2 == 0
            if p_value == 2:
                power = classical.l2_warnock(points)
            elif even:
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
    emitter.emit(config.out)
    return 0


def _cmd_verify(config: RunConfig) -> int:
    n_range = _n_range(config)
    presets = (config.sigma,) if config.sigma != "all" else SIGMA_PRESETS
    reports = verify.run_suites(n_range[0], n_range[-1], presets, seed=config.seed)
    emitter = _Emitter(["suite", "n", "sigma", "checked", "failures"], config.fmt)
    for report in reports:
        emitter.row(report.suite, report.n, report.sigma, report.checked, report.failures)
        for note in report.notes:
            print(f"FAIL {report.suite} n={report.n} {report.sigma}: {note}", file=sys.stderr)
    emitter.emit(config.out)
    checked = sum(report.checked for report in reports)
    failures = sum(report.failures for report in reports)
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
        ["family", "sigma", "integrand", "n", "N", "error", "slope_so_far"], config.fmt
    )
    for i, row in enumerate(rows):
        error = float(row.error)
        if row.error and error < sys.float_info.min:  # 0.0 or subnormal: a wrong number
            raise SystemExit(f"qmc: the error at n = {row.n} is nonzero, and its float"
                             f" {error!r} is not normal, so floats cannot hold it")
        prefix = rows[: i + 1]
        try:
            fit = qmc.fit_rate(prefix)
            slope = "exact" if fit.exact else _fmt_float(fit.slope)
        except ValueError:
            slope = ""
        emitter.row(
            config.family, config.sigma, integrand.name, row.n, row.cardinality,
            _fmt_float(error), slope,
        )
    emitter.emit(config.out)
    return 0


# argparse settings per flag or per (subcommand, flag); RunConfig holds every default
_FLAGS = {
    "--family": dict(choices=FAMILIES),
    "--n": dict(type=int),
    "--n-max": dict(type=int),
    "--sigma": dict(choices=SIGMA_PRESETS),
    ("verify", "--sigma"): dict(choices=SIGMA_PRESETS + ("all",)),
    "--seed": dict(type=int),
    "--p": dict(help="1 <= p <= inf ('inf' allowed)"),
    ("classic", "--p"): dict(
        help="even p: exact; star or inf: the supremum; any other p > 0: midpoint estimate"),
    "--q": dict(help="1 <= q <= inf ('inf' allowed)"),
    "--r": dict(type=float),
    "--jmax": dict(type=int, dest="j_max"),
    "--mode": dict(choices=("exact", "truncated")),
    "--format": dict(choices=("csv", "json"), dest="fmt"),
    "--out": dict(help="file to write; '-' (or no --out) writes to stdout"),
}
# argparse reads a value that starts with "-" as a flag unless it is a plain
# negative decimal, so main joins these flags to such a value (--r=-1e-1)
_NUMERIC_FLAGS = ("--p", "--q", "--r", "--n", "--n-max", "--seed", "--jmax")
_POINT_FLAGS = ("--family", "--n", "--sigma", "--seed")
_NORM_FLAGS = _POINT_FLAGS + ("--p", "--q", "--r", "--mode", "--jmax")

# subcommand -> (function, the flags it reads besides --format and --out)
_COMMANDS = {
    "gen": (_cmd_gen, _POINT_FLAGS),
    "coeffs": (_cmd_coeffs, _POINT_FLAGS + ("--jmax",)),
    "norm": (_cmd_norm, _NORM_FLAGS),
    "classic": (_cmd_classic, _POINT_FLAGS + ("--p",)),
    "sweep": (_cmd_sweep, _NORM_FLAGS + ("--n-max",)),
    "verify": (_cmd_verify, ("--n", "--n-max", "--sigma", "--seed")),
    "qmc": (_cmd_qmc, ("--family", "--n", "--n-max", "--sigma", "--seed", "--integrand")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadisc",
        description="Exact discrepancy analysis of symmetrized Hammersley-type point sets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag in flags + ("--format", "--out"):
            cmd.add_argument(flag, **_FLAGS.get((name, flag), _FLAGS.get(flag, {})))
    return parser


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    if config.subcommand not in _COMMANDS:
        raise SystemExit(f"unknown subcommand {config.subcommand!r}")
    if config.n < 1:
        raise SystemExit("--n must be >= 1")
    if config.n_max is not None and config.n_max < config.n:
        raise SystemExit(f"--n-max {config.n_max} must be >= --n {config.n}")
    try:
        return _COMMANDS[config.subcommand][0](config)
    except MemoryError as exc:
        sizes = f"--n {config.n}" + ("" if config.n_max is None else f" --n-max {config.n_max}")
        raise SystemExit(f"{config.subcommand} {sizes}: out of memory") from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args: List[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if args and args[-1] in _NUMERIC_FLAGS and arg[:1] == "-" and arg[:2] != "--":
            args[-1] += "=" + arg
        else:
            args.append(arg)
    given = vars(parser.parse_args(args))
    if "seed" in given and given.get("sigma", RunConfig.sigma) not in ("random", "all"):
        parser.error(f"--seed {given['seed']}: only --sigma random (or verify's all) reads it")
    try:
        status = run(RunConfig(**given))
        sys.stdout.flush()  # a closed pipe then raises here, not at exit
    except BrokenPipeError:
        # the reader stopped early (say, `| head`); the flush at exit must
        # not raise again, so stdout goes to devnull, as Python's docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
