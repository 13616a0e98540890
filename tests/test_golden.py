"""Byte-for-byte golden outputs of every subcommand at small n.

Each case runs the CLI in-process and compares its stdout with
tests/golden/<case>.csv, in CSV and in JSON. The JSON form is derived from
the CSV golden with the standard library, json.dumps of its csv.DictReader
rows at indent 2, so it shares no code with the CLI's emitter. The files
pin the exact bytes, including every rendered float of the norm engine,
so a rewrite of an engine has to reproduce them unchanged.

Regenerate the files, CSV only, only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from dyadisc.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FORMATS = ("csv", "json")

CASES = {
    "norm-davenport": ["norm", "--family", "davenport", "--n", "6",
                       "--p", "2", "--q", "2", "--r", "-0.3"],
    "norm-qinf": ["norm", "--n", "6", "--p", "1", "--q", "inf", "--r", "0.5"],
    "norm-pinf": ["norm", "--family", "hammersley", "--n", "6", "--sigma", "alternating",
                  "--p", "inf", "--q", "2", "--r", "-0.5"],
    # a non-palindromic sigma (1010111): every level pair is scanned
    "norm-random": ["norm", "--n", "7", "--sigma", "random", "--seed", "5",
                    "--p", "2", "--q", "2", "--r", "-0.3"],
    # a palindromic sigma (0001000): the set equals its transpose, so each
    # level (j2, j1) reuses the operand of (j1, j2)
    "norm-random-palindrome": ["norm", "--n", "7", "--sigma", "random", "--seed", "4",
                               "--p", "2", "--q", "2", "--r", "-0.3"],
    "norm-truncated": ["norm", "--family", "davenport", "--n", "3", "--mode", "truncated",
                       "--jmax", "6", "--p", "3", "--q", "1.5", "--r", "0.1"],
    "sweep": ["sweep", "--n", "2", "--n-max", "8", "--p", "2", "--q", "2", "--r", "-0.3"],
    "sweep-pinf": ["sweep", "--family", "davenport", "--n", "1", "--n-max", "7",
                   "--sigma", "random", "--seed", "3", "--p", "inf", "--q", "4", "--r", "-0.6"],
    "sweep-qinf": ["sweep", "--family", "hammersley", "--n", "1", "--n-max", "7",
                   "--sigma", "all-flip", "--p", "1.5", "--q", "inf", "--r", "0.2"],
    "classic-star": ["classic", "--family", "davenport", "--n", "5", "--p", "star"],
    "classic-l2": ["classic", "--family", "hammersley", "--n", "5", "--sigma", "alternating",
                   "--p", "2"],
    # the L2 digit transfer's reflected-axis states: y alone, then both axes
    "classic-l2-davenport": ["classic", "--family", "davenport", "--n", "12", "--p", "2",
                             "--sigma", "random", "--seed", "5"],
    "classic-l2-symmetrized": ["classic", "--family", "symmetrized", "--n", "14", "--p", "2",
                               "--sigma", "alternating"],
    "classic-l4": ["classic", "--n", "4", "--p", "4"],
    # terms k = 0..3 need more than 62 bits: the limb split of the even L_p route
    "classic-l6": ["classic", "--n", "8", "--p", "6"],
    "classic-l3": ["classic", "--n", "3", "--p", "3"],
    # past one block of count rows: the count sweep crosses block edges
    "classic-star-n12": ["classic", "--n", "12", "--p", "star"],
    "classic-l4-n11": ["classic", "--n", "11", "--p", "4"],
    "classic-l3-n8": ["classic", "--family", "davenport", "--n", "8", "--p", "3"],
    "gen": ["gen", "--family", "davenport", "--n", "3", "--sigma", "random", "--seed", "4"],
    # the four-fold union's entry order: base, Y, X, XY
    "gen-symmetrized": ["gen", "--n", "3", "--sigma", "alternating"],
    "coeffs": ["coeffs", "--n", "2", "--jmax", "3", "--sigma", "alternating"],
    "coeffs-hammersley": ["coeffs", "--family", "hammersley", "--n", "3", "--jmax", "3",
                          "--sigma", "random", "--seed", "5"],
    "coeffs-davenport": ["coeffs", "--family", "davenport", "--n", "4", "--jmax", "4",
                         "--sigma", "random", "--seed", "2"],
    "verify": ["verify", "--n", "1", "--n-max", "4", "--sigma", "all", "--seed", "5"],
    # perfbench's verify-exact op: pins the checked count of every suite up to n = 10
    "verify-n10": ["verify", "--n", "1", "--n-max", "10", "--sigma", "all", "--seed", "1"],
    "qmc-corner": ["qmc", "--family", "davenport", "--n", "2", "--n-max", "7",
                   "--integrand", "corner:2,3"],
    "qmc-monomial": ["qmc", "--n", "1", "--n-max", "5", "--sigma", "random", "--seed", "9",
                     "--integrand", "monomial:1,2"],
    # every row's sum needs more than 62 bits: 5 res + bitlen(N) > 62
    "qmc-object": ["qmc", "--family", "symmetrized", "--n", "14", "--n-max", "20",
                   "--integrand", "monomial:3,2", "--sigma", "alternating"],
}


def render(case: str, fmt: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        status = main(CASES[case] + ["--format", fmt])
    assert status == 0, f"{case} exited with status {status}"
    return out.getvalue()


def golden_path(case: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{case}.csv")


def expected(case: str, fmt: str) -> str:
    with open(golden_path(case), encoding="utf-8", newline="") as handle:
        text = handle.read()
    if fmt == "json":
        return json.dumps(list(csv.DictReader(io.StringIO(text))), indent=2) + "\n"
    return text


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, fmt):
    assert render(case, fmt) == expected(case, fmt)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sorted(CASES):
        with open(golden_path(name), "w", encoding="utf-8", newline="") as handle:
            handle.write(render(name, "csv"))
