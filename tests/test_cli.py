"""Command-line front end: formats, determinism, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

from dyadisc import HaarIndex, SignPattern, dyadic, hammersley_type, mu_discrepancy, symmetrize_full
from dyadisc.cli import RunConfig, main, run


def capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_gen_symmetrized_n1(capsys):
    code, out = capture(capsys, ["gen", "--family", "symmetrized", "--n", "1"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["num_x", "num_y", "den"]
    assert len(rows) == 8
    assert rows[0] == ["0", "0", "2"]


def test_gen_json_mirrors_csv(capsys):
    _, text_csv = capture(capsys, ["gen", "--n", "2", "--family", "hammersley"])
    _, text_json = capture(
        capsys, ["gen", "--n", "2", "--family", "hammersley", "--format", "json"]
    )
    header, rows = parse_csv(text_csv)
    objs = json.loads(text_json)
    assert [list(obj.values()) for obj in objs] == rows
    assert list(objs[0].keys()) == header


def test_module_entry_point_matches_in_process(capsys):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dyadisc", "gen", "--n", "2"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    _, expected = capture(capsys, ["gen", "--n", "2"])
    assert proc.stdout == expected


def test_byte_identical_reruns(capsys):
    argv = ["sweep", "--family", "symmetrized", "--n", "2", "--n-max", "5",
            "--p", "2", "--q", "2", "--r", "-0.3", "--sigma", "random", "--seed", "11"]
    _, first = capture(capsys, argv)
    _, second = capture(capsys, argv)
    assert first == second


def test_coeffs_values_match_engine(capsys):
    code, out = capture(
        capsys,
        ["coeffs", "--family", "symmetrized", "--n", "2", "--sigma", "alternating",
         "--jmax", "2"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    points = symmetrize_full(hammersley_type(2, SignPattern.alternating(2)))
    for row in rows:
        j1, j2, m1, m2 = (int(v) for v in row[:4])
        mu = mu_discrepancy(points, HaarIndex(j1, j2, m1, m2))
        assert dyadic(int(row[4]), int(row[5])) == mu
    # complete range: levels -1..2 give (1+1+2+4)^2 positions
    assert len(rows) == 64


def test_norm_row(capsys):
    code, out = capture(
        capsys,
        ["norm", "--family", "davenport", "--n", "4", "--p", "2", "--q", "2",
         "--r", "-0.3"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:6] == ["family", "n", "N", "p", "q", "r"]
    assert rows[0][0] == "davenport" and rows[0][2] == "32"
    total = float(rows[0][7])
    assert total > 0


def test_norm_rejects_inadmissible(capsys):
    with pytest.raises(SystemExit):
        main(["norm", "--n", "3", "--p", "2", "--q", "2", "--r", "0.9"])


def test_sweep_rows_and_ratio_column(capsys):
    code, out = capture(
        capsys,
        ["sweep", "--family", "symmetrized", "--n", "4", "--n-max", "14",
         "--p", "2", "--q", "2", "--r", "-0.3"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 11
    ratios = [float(r[7]) for r in rows]
    assert max(ratios) / min(ratios) <= 4


def test_classic_star_and_l2(capsys):
    code, out = capture(capsys, ["classic", "--family", "hammersley", "--n", "3", "--p", "2"])
    assert code == 0
    _, rows = parse_csv(out)
    num, den = int(rows[0][4]), int(rows[0][5])
    from fractions import Fraction
    from dyadisc import l2_warnock

    points = hammersley_type(3, SignPattern.identity(3))
    assert Fraction(num, den) == l2_warnock(points)

    code, out = capture(capsys, ["classic", "--n", "3", "--p", "star"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][3] == "star"


def test_classic_odd_p_estimate(capsys):
    code, out = capture(capsys, ["classic", "--n", "2", "--p", "3"])
    assert code == 0
    _, rows = parse_csv(out)
    assert "midpoint estimate" in rows[0][7]


def test_classic_estimate_grid_limit():
    with pytest.raises(SystemExit) as excinfo:
        main(["classic", "--family", "hammersley", "--n", "13", "--p", "3"])
    message = str(excinfo.value.code)
    assert "2^16" in message and "even p" in message


@pytest.mark.parametrize(
    "argv, named",
    [
        (["norm", "--mode", "truncated", "--jmax", "-1"], "--jmax -1"),
        (["sweep", "--mode", "truncated", "--jmax", "-1", "--n-max", "5"], "--jmax -1"),
        (["qmc", "--integrand", "corner:9,1"], "corner:9,1"),
        (["qmc", "--integrand", "monomial:0,9"], "monomial:0,9"),
        (["classic", "--p", "0"], "--p 0"),
        (["classic", "--p", "-2"], "--p -2"),
        (["classic", "--p", "abc"], "--p abc"),
        (["classic", "--p", "nan"], "--p nan"),
        (["norm", "--p", "abc"], "--p abc"),
    ],
    ids=[
        "norm-jmax", "sweep-jmax", "qmc-corner", "qmc-monomial", "classic-p0",
        "classic-p-neg", "classic-p-text", "classic-p-nan", "norm-p-text",
    ],
)
def test_input_errors_exit_with_message(argv, named):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--n", "2"])
    assert named in str(excinfo.value.code)


def test_verify_exit_code_and_rows(capsys):
    code = main(["verify", "--n", "1", "--n-max", "3", "--sigma", "all"])
    captured = capsys.readouterr()
    assert code == 0
    header, rows = parse_csv(captured.out)
    assert header == ["suite", "n", "sigma", "checked", "failures"]
    assert len(rows) == 3 * 4 * 4  # n-values x presets x suites
    assert all(r[4] == "0" for r in rows)
    assert "0 failures" in captured.err


def test_qmc_table(capsys):
    code, out = capture(
        capsys,
        ["qmc", "--family", "davenport", "--n", "2", "--n-max", "6",
         "--integrand", "corner:1,1", "--sigma", "identity"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    errors = [float(r[5]) for r in rows]
    assert errors[0] == 1.0 / 2**4 and errors[-1] == 1.0 / 2**8
    assert rows[-1][6] != ""  # slope becomes available once 3 rows exist


def test_qmc_exact_report(capsys):
    code, out = capture(
        capsys,
        ["qmc", "--family", "symmetrized", "--n", "2", "--n-max", "5",
         "--integrand", "corner:1,1"],
    )
    _, rows = parse_csv(out)
    assert all(r[6] == "exact" for r in rows)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "points.csv"
    code = main(["gen", "--n", "1", "--family", "hammersley", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    header, rows = parse_csv(target.read_text())
    assert len(rows) == 2


def test_run_config_direct():
    config = RunConfig(subcommand="gen", family="hammersley", n=0)
    with pytest.raises(SystemExit):
        run(config)
