"""The four workloads: operation lists and the exact check of each output.

CLI operations run `dyadisc.cli.main(argv)` in-process with stdout and
stderr captured. Seedless operations are compared with sha256 digests of
their output recorded in digests.json; the seed only picks the `random` sign
pattern, and only for operations whose output is checked by an exact
identity that holds for every pattern.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, List, NamedTuple

from dyadisc import classical, cli, haar, pointsets, verify

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


class Op(NamedTuple):
    name: str
    root: str  # name of the span that covers the whole operation
    run: Callable[[], object]
    check: Callable[[object], str]  # "" when the output is correct, else why not


def _run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue()


def _cli_op(name, argv, check):
    return Op(name, "cli", lambda: _run_cli(argv), check)


def _digest_check(key):
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)[key]

    def check(output):
        status, text = output
        digest = hashlib.sha256(text.encode()).hexdigest()
        if status != 0:
            return f"exit status {status}"
        return "" if digest == expected else f"sha256 {digest} != recorded {expected}"

    return check


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _pattern(n, seed):
    return pointsets.SignPattern.from_preset("random", n, seed=seed)


def besov_sweep(seed: int) -> List[Op]:
    sweep = ["sweep", "--family", "symmetrized", "--n", "4", "--n-max", "14",
             "--p", "2", "--q", "2", "--r", "-0.3"]
    norm = ["norm", "--family", "davenport", "--n", "14", "--p", "1", "--q", "inf",
            "--r", "0.5"]
    return [
        _cli_op("sweep", sweep, _digest_check("besov-sweep/sweep")),
        _cli_op("norm", norm, _digest_check("besov-sweep/norm")),
    ]


def verify_exact(seed: int) -> List[Op]:
    n_max = 10

    def verify_check(output):
        status, text = output
        rows = _rows(text)
        if status != 0:
            return f"exit status {status}"
        if len(rows) != n_max * len(pointsets.SIGMA_PRESETS) * len(verify.SUITES):
            return f"{len(rows)} report rows"
        bad = [row for row in rows if row["failures"] != "0" or row["checked"] == "0"]
        return f"{len(bad)} rows with failures or no checks" if bad else ""

    def grid_op(family):
        def run():
            points = pointsets.build_family(family, 6, _pattern(6, seed))
            return haar.mu_grid(points, 6), haar.oracle_mu_grid(points, 6)

        def check(grids):
            fast, oracle = grids
            if len(fast) != 128 * 128:
                return f"{len(fast)} grid entries"
            return "" if fast == oracle else "mu_grid != oracle_mu_grid"

        return Op(f"grid-{family}", "op", run, check)

    argv = ["verify", "--n", "1", "--n-max", str(n_max), "--sigma", "all",
            "--seed", str(seed)]
    return [_cli_op("verify", argv, verify_check)] + [
        grid_op(family) for family in pointsets.FAMILIES
    ]


def classic_grid(seed: int) -> List[Op]:
    # The CLI's --p 2 goes to lp_exact_even, so l2_warnock is called directly.
    def l2_run():
        points = pointsets.build_family("symmetrized", 16, pointsets.SignPattern.identity(16))
        value = classical.l2_warnock(points)
        return 0, f"{value.numerator}/{value.denominator}"

    def identity_run():
        points = pointsets.build_family("symmetrized", 6, _pattern(6, seed))
        return classical.l2_warnock(points), classical.lp_exact_even(points, 2)

    def identity_check(values):
        return "" if values[0] == values[1] else "l2_warnock != lp_exact_even(p=2)"

    return [
        _cli_op("star-n12", ["classic", "--n", "12", "--p", "star"],
                _digest_check("classic-grid/star-n12")),
        _cli_op("l4-n11", ["classic", "--n", "11", "--p", "4"],
                _digest_check("classic-grid/l4-n11")),
        _cli_op("l3-estimate", ["classic", "--family", "davenport", "--n", "8", "--p", "3"],
                _digest_check("classic-grid/l3-estimate")),
        Op("l2-warnock-n16", "op", l2_run, _digest_check("classic-grid/l2-warnock-n16")),
        Op("l2-identity", "op", identity_run, identity_check),
    ]


def dump_qmc(seed: int) -> List[Op]:
    n_min, n_max = 2, 18

    def qmc_check(output):
        # corner:1,1 on the davenport set errs by exactly 2^-(n+2) for every pattern
        status, text = output
        rows = _rows(text)
        if status != 0:
            return f"exit status {status}"
        if [int(row["n"]) for row in rows] != list(range(n_min, n_max + 1)):
            return "unexpected n column"
        for row in rows:
            n = int(row["n"])
            if int(row["N"]) != 2 << n or float(row["error"]) != 2.0 ** -(n + 2):
                return f"n={n}: N={row['N']} error={row['error']}"
        return ""

    coeffs = ["coeffs", "--family", "symmetrized", "--n", "6", "--jmax", "8"]
    qmc = ["qmc", "--family", "davenport", "--n", str(n_min), "--n-max", str(n_max),
           "--integrand", "corner:1,1", "--sigma", "random", "--seed", str(seed)]
    return [
        _cli_op("coeffs", coeffs, _digest_check("dump-qmc/coeffs")),
        _cli_op("qmc", qmc, qmc_check),
    ]


WORKLOADS = {
    "besov-sweep": besov_sweep,
    "verify-exact": verify_exact,
    "classic-grid": classic_grid,
    "dump-qmc": dump_qmc,
}
