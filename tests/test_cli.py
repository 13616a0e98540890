"""Command-line front end: formats, determinism, exit codes."""

import argparse
import ast
import csv
import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given, strategies as st

from dyadisc import HaarIndex, SignPattern, dyadic, hammersley_type, mu_discrepancy, symmetrize_full
from dyadisc import cli
from dyadisc.cli import RunConfig, _build_parser, _Emitter, main, run
from dyadisc.haar import mu_all_at_level
from dyadisc.pointsets import build_family

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

POINT_FLAGS = ["--family", "--n", "--sigma", "--seed"]
NORM_FLAGS = POINT_FLAGS + ["--p", "--q", "--r", "--mode", "--jmax"]
# the flags each subcommand reads, besides --format and --out
FLAGS_READ = {
    "gen": POINT_FLAGS,
    "coeffs": POINT_FLAGS + ["--jmax"],
    "norm": NORM_FLAGS,
    "sweep": NORM_FLAGS + ["--n-max"],
    "classic": POINT_FLAGS + ["--p"],
    "verify": ["--n", "--n-max", "--sigma", "--seed"],
    "qmc": ["--family", "--n", "--n-max", "--sigma", "--seed", "--integrand"],
}
# a valid value for each flag that is shared by several subcommands
SHARED_VALUES = {
    "--family": "davenport", "--n": "2", "--n-max": "3", "--sigma": "alternating",
    "--seed": "3", "--p": "7", "--q": "5", "--r": "0.9", "--jmax": "3", "--mode": "truncated",
}
UNREAD = [
    (sub, flag) for sub, read in FLAGS_READ.items() for flag in SHARED_VALUES if flag not in read
]


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


def run_module(argv, check=False):
    """`python -m dyadisc argv` in a fresh interpreter that imports this checkout."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "dyadisc", *argv],
        capture_output=True, text=True, env=env, timeout=60, check=check,
    )


def test_module_entry_point_matches_in_process(capsys):
    proc = run_module(["gen", "--n", "2"], check=True)
    _, expected = capture(capsys, ["gen", "--n", "2"])
    assert proc.stdout == expected


def test_closed_stdout_exits_quietly():
    # as in `dyadisc gen --n 16 | head -1`: the reader leaves after one line
    # of about 1.3 MB, far more than a pipe buffers
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dyadisc", "gen", "--n", "16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"num_x,num_y,den\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 1


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


def test_coeffs_jmax_minus_one_prints_the_constant_coefficient(capsys):
    code, out = capture(capsys, ["coeffs", "--family", "davenport", "--n", "2", "--jmax", "-1"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows == [["-1", "-1", "0", "0", "1", "4", "0.0625"]]  # 2^-(n+2)


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


@pytest.mark.parametrize("spelling", ["inf", "INF", "Infinity", "+inf", "1e999"])
def test_classic_p_infinity_is_the_star_row(capsys, spelling):
    # every spelling of +inf that float() reads, as norm --p takes them
    _, star = capture(capsys, ["classic", "--n", "3", "--p", "star"])
    code, out = capture(capsys, ["classic", "--n", "3", "--p", spelling])
    assert code == 0
    assert out == star


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
        (["norm", "--jmax", "3"], "--jmax 3"),
        (["sweep", "--jmax", "3", "--n-max", "3"], "--jmax 3"),
        (["coeffs", "--jmax", "-2"], "--jmax -2"),
        (["coeffs", "--jmax", "11"], "--jmax 11: 16,777,216 rows, over the limit of 4,194,304"),
        (["verify", "--n-max", "1"], "--n-max 1 must be >= --n 2"),
        (["sweep", "--n-max", "1"], "--n-max 1 must be >= --n 2"),
        (["qmc", "--n-max", "1"], "--n-max 1 must be >= --n 2"),
        (["qmc", "--integrand", "corner:9,1"], "corner:9,1"),
        (["qmc", "--integrand", "monomial:0,9"], "monomial:0,9"),
        (["qmc", "--integrand", "corner:1"], "cannot parse integrand 'corner:1'"),
        (["qmc", "--integrand", "spline:1,1"], "unknown integrand kind 'spline'"),
        (["classic", "--p", "0"], "--p 0"),
        (["classic", "--p", "-2"], "--p -2"),
        (["classic", "--p", "abc"], "--p abc"),
        (["classic", "--p", "nan"], "--p nan"),
        (["classic", "--p=-inf"], "--p -inf"),
        (["classic", "--p", "-inf"], "classic --p -inf: p must satisfy 0 < p < inf, got -inf"),
        (["norm", "--q", "-inf"], "q must satisfy 1 <= q <= inf, got -inf"),
        (["norm", "--p=-inf"], "inadmissible parameters: p must satisfy 1 <= p <= inf, got -inf"),
        (["classic", "--p", "4000"], "--p 4000"),
        (["classic", "--p", "1e7"], "--p 1e7"),
        (["classic", "--p", "1e300"],
         "classic --p 1e300: p exceeds the limit of 64 for exact even powers"),
        (["norm", "--p", "abc"], "--p abc"),
        (["norm", "--q", "1000"], "p = 2.0, q = 1000.0: the core content 0.0 "),
        (["sweep", "--q", "1000", "--n-max", "3"], "p = 2.0, q = 1000.0: the core content 0.0 "),
        (["norm", "--p", "1e308"], "p = 1e+308, q = 2.0: the core content nan "),
        (["norm", "--mode", "truncated", "--q", "1000"], "q = 1000.0: the core content 0.0 "),
        (["sweep", "--mode", "truncated", "--p", "1e308", "--q", "inf", "--n-max", "3"],
         "p = 1e+308, q = inf: the core content nan "),
        # {tmp} is a fresh empty directory
        (["gen", "--out", "{tmp}/missing/x.csv"], "--out {tmp}/missing/x.csv: No such file"),
        (["gen", "--out", "{tmp}"], "--out {tmp}: Is a directory"),
        (["coeffs", "--out", "{tmp}"], "--out {tmp}: Is a directory"),
    ],
    ids=[
        "norm-jmax", "sweep-jmax", "norm-jmax-exact", "sweep-jmax-exact", "coeffs-jmax",
        "coeffs-jmax-limit", "verify-n-max", "sweep-n-max", "qmc-n-max",
        "qmc-corner",
        "qmc-monomial", "qmc-integrand-unparsed", "qmc-integrand-kind", "classic-p0",
        "classic-p-neg", "classic-p-text", "classic-p-nan", "classic-p-neg-inf",
        "classic-p-neg-inf-spaced", "norm-q-neg-inf-spaced", "norm-p-neg-inf", "classic-p-4000",
        "classic-p-1e7", "classic-p-1e300", "norm-p-text", "norm-q-underflow", "sweep-q-underflow",
        "norm-p-nan", "norm-truncated-q-underflow", "sweep-truncated-p-nan",
        "out-missing-dir", "out-directory", "coeffs-out-directory",
    ],
)
def test_input_errors_exit_with_message(argv, named, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main([arg.format(tmp=tmp_path) for arg in argv] + ["--n", "2"])
    assert named.format(tmp=tmp_path) in str(excinfo.value.code)


def test_coeffs_limit_names_the_default_jmax():
    # without --jmax the level limit comes from --n, which the message names
    with pytest.raises(SystemExit) as excinfo:
        main(["coeffs", "--n", "11"])
    assert str(excinfo.value.code) == (
        "--jmax defaults to --n 11: 16,777,216 rows, over the limit of 4,194,304; pass --jmax 10")


@pytest.mark.parametrize("sub", ["norm", "sweep"])
def test_numeric_flags_take_values_that_start_with_a_dash(capsys, sub):
    # argparse alone reads -1e-1 after a flag as another flag
    argv = [sub, "--n", "3", "--r"]
    assert capture(capsys, argv + ["-1e-1"]) == capture(capsys, argv + ["-0.1"])
    with pytest.raises(SystemExit) as excinfo:  # --out parses as before
        main([sub, "--n", "3", "--out", "-x"])
    assert excinfo.value.code == 2


def test_out_of_memory_exits_naming_the_size(monkeypatch):
    # the constructor is patched: a real allocation of 2^40 points could be
    # granted by an overcommitting host and then killed, not refused
    def refuse(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "build_family", refuse)
    for argv, named in ((["norm", "--n", "40", "--family", "hammersley"], "norm --n 40: "),
                        (["sweep", "--n", "3", "--n-max", "40"], "sweep --n 3 --n-max 40: ")):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert str(excinfo.value.code) == named + "out of memory"


@pytest.mark.parametrize("argv", [["gen", "--n", "63"], ["classic", "--n", "63", "--p", "star"]])
def test_point_sets_past_numpy_exit_naming_the_size(argv):
    # 2^63 int64 entries exceed numpy's largest array, so the constructor
    # refuses them before allocating, through the out-of-memory exit
    proc = run_module(argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [f"{argv[0]} --n 63: out of memory"]


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_dash_writes_to_stdout(tmp_path, monkeypatch, capsys, fmt):
    monkeypatch.chdir(tmp_path)
    argv = ["gen", "--n", "1", "--format", fmt]
    code, expected = capture(capsys, argv)
    assert code == 0 and expected
    assert capture(capsys, argv + ["--out", "-"]) == (0, expected)
    assert os.listdir(tmp_path) == []


def test_qmc_exits_when_an_error_underflows():
    # corner:1,1 errs by exactly 2^-(n+2) on the two-fold set: subnormal from n = 1021 on
    with pytest.raises(SystemExit) as excinfo:
        main(["qmc", "--family", "davenport", "--n", "1030", "--integrand", "corner:1,1"])
    assert str(excinfo.value.code).startswith("qmc: the error at n = 1030 is nonzero")


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


@pytest.mark.parametrize("sub, flag", UNREAD, ids=[f"{sub}{flag}" for sub, flag in UNREAD])
def test_unread_flag_exits_naming_it(capsys, sub, flag):
    with pytest.raises(SystemExit) as excinfo:
        main([sub, "--n", "1", flag, SHARED_VALUES[flag]])
    assert excinfo.value.code == 2
    assert f"{flag} {SHARED_VALUES[flag]}" in capsys.readouterr().err


@pytest.mark.parametrize("sub", sorted(FLAGS_READ))
def test_seed_without_random_pattern_exits_naming_it(capsys, sub):
    # the default pattern, identity, ignores the seed, and so does an explicit one
    for argv in ([sub, "--n", "1", "--seed", "3"],
                 [sub, "--n", "1", "--sigma", "alternating", "--seed", "3"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--seed 3" in capsys.readouterr().err
    random_sigma = "all" if sub == "verify" else "random"
    assert main([sub, "--n", "1", "--sigma", random_sigma, "--seed", "3"]) == 0


def test_subcommands_accept_only_the_flags_they_read():
    (action,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        sub: {flag for a in parser._actions for flag in a.option_strings} - {"-h", "--help"}
        for sub, parser in action.choices.items()
    }
    assert accepted == {sub: {*read, "--format", "--out"} for sub, read in FLAGS_READ.items()}
    assert len(UNREAD) == 28
    assert sum(map(len, accepted.values())) == 57


@pytest.mark.parametrize("sub", sorted(FLAGS_READ))
def test_defaults_come_from_run_config(capsys, sub):
    code, out = capture(capsys, [sub, "--n", "2"])
    assert run(RunConfig(sub, n=2)) == code
    assert capsys.readouterr().out == out


# -- the block renderer against the csv and json modules ----------------------


def oracle_text(header, rows, fmt):
    """The table as csv.writer or json.dumps, given one list of cells per row, renders it."""
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def emitted(emitter):
    out = io.StringIO()
    with redirect_stdout(out):
        emitter.emit(None)
    return out.getvalue()


CELLS = st.text(st.sampled_from(',"\r\n\\ {}:a1') | st.characters(), max_size=5)


@given(st.data())
def test_emitter_matches_csv_and_json_modules(data):
    header = data.draw(st.lists(CELLS, min_size=1, max_size=4, unique=True), "header")
    lead_width = data.draw(st.integers(0, len(header) - 1), "lead width")

    def cells(size):
        return st.lists(CELLS, min_size=size, max_size=size)

    tail_rows = st.lists(cells(len(header) - lead_width), min_size=1, max_size=3)
    blocks = data.draw(st.lists(st.tuples(cells(lead_width), tail_rows), max_size=3), "blocks")
    rows = [lead + tail for lead, tails in blocks for tail in tails]
    for fmt in ("csv", "json"):
        by_row, by_block = _Emitter(header, fmt), _Emitter(header, fmt)
        for row in rows:
            by_row.row(*row)
        for lead, tails in blocks:
            columns = [list(column) for column in zip(*tails)]
            pre = by_block.fragments([[cell] for cell in lead])[0] if lead else None
            by_block.block(by_block.fragments(columns, lead_width), pre)
        expected = oracle_text(header, rows, fmt)
        assert emitted(by_row) == expected
        assert emitted(by_block) == expected
        # the same blocks, each rendered in a step of emit, as coeffs renders levels
        by_step = _Emitter(header, fmt)
        out = io.StringIO()

        def steps():
            for lead, tails in blocks:
                columns = [list(column) for column in zip(*tails)]
                pre = by_step.fragments([[cell] for cell in lead])[0] if lead else None
                by_step.block(by_step.fragments(columns, lead_width), pre)
                yield

        with redirect_stdout(out):
            by_step.emit(None, steps())
        assert out.getvalue() == expected


def assert_same_text(out, expected):
    # asserting out == expected would have pytest diff megabytes of text on failure
    same = out == expected
    if not same:
        pairs = zip(out.splitlines(), expected.splitlines())
        first = next((pair for pair in pairs if pair[0] != pair[1]), "one text is a prefix")
    assert same, f"first difference: {first}"


def coeffs_rows(points, j_max):
    rows = []
    for j1 in range(-1, j_max + 1):
        for j2 in range(-1, j_max + 1):
            level = mu_all_at_level(points, j1, j2)
            for m1 in range(1 << max(j1, 0)):
                for m2 in range(1 << max(j2, 0)):
                    mu = level.occupied.get((m1, m2), level.empty_value)
                    rows.append([str(j1), str(j2), str(m1), str(m2), str(mu.mantissa),
                                 str(mu.exponent), repr(mu.to_float())])
    return rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_coeffs_writes_each_level_once_it_is_final(monkeypatch, fmt):
    # the text written grows before every level after the first is computed,
    # so no more than one level's rows are held
    argv = ["coeffs", "--n", "3", "--jmax", "3", "--format", fmt]
    expected = io.StringIO()
    with redirect_stdout(expected):
        main(argv)
    out, written = io.StringIO(), []

    def level(points, j1, j2):
        written.append(len(out.getvalue()))
        return mu_all_at_level(points, j1, j2)

    monkeypatch.setattr(cli, "mu_all_at_level", level)
    with redirect_stdout(out):
        assert main(argv) == 0
    assert len(written) == 25  # levels -1..3 on each axis
    assert all(a < b for a, b in zip(written[1:], written[2:]))
    assert out.getvalue() == expected.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_large_coeffs_and_gen_match_module_rendering(capsys, fmt):
    # beyond the goldens (n <= 4, --jmax <= 4): many m1 rows hold points and are patched
    points = build_family("symmetrized", 6, SignPattern.identity(6))
    header = ["j1", "j2", "m1", "m2", "mantissa", "exponent", "value"]
    _, out = capture(capsys, ["coeffs", "--n", "6", "--jmax", "8", "--format", fmt])
    assert_same_text(out, oracle_text(header, coeffs_rows(points, 8), fmt))

    points = build_family("symmetrized", 10, SignPattern.identity(10))
    den = str(1 << points.n_resolution)
    rows = [[str(x), str(y), den] for x, y in zip(*(a.tolist() for a in points.scaled_coords()))]
    _, out = capture(capsys, ["gen", "--n", "10", "--format", fmt])
    assert_same_text(out, oracle_text(["num_x", "num_y", "den"], rows, fmt))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gen_writes_each_block_before_rendering_the_next(monkeypatch, fmt):
    # 2^17 points in two blocks of 2^16: the second block is rendered only
    # after the first is written, and the text is the modules' rendering
    points = build_family("symmetrized", 15, SignPattern.identity(15))
    header = ["num_x", "num_y", "den"]
    den = str(1 << points.n_resolution)
    rows = [[str(x), str(y), den] for x, y in zip(*(a.tolist() for a in points.scaled_coords()))]
    out, written = io.StringIO(), []
    fragments = _Emitter.fragments

    def spy(emitter, columns, start=0):
        written.append(out.getvalue())
        return fragments(emitter, columns, start)

    monkeypatch.setattr(_Emitter, "fragments", spy)
    with redirect_stdout(out):
        assert main(["gen", "--n", "15", "--format", fmt]) == 0
    expected = oracle_text(header, rows, fmt)
    assert_same_text(out.getvalue(), expected)
    first, second = written[-2:]  # csv renders its header first
    assert first == ""
    assert expected.startswith(second)
    assert second.count("{" if fmt == "json" else "\n") == 1 << 16


def test_perfbench_span_bindings_resolve():
    # perfbench/tracing.py wraps these names where callers look them up (for example
    # dyadisc.cli.build_family); a binding that disappears breaks every traced pass
    with open(os.path.join(ROOT, "perfbench", "tracing.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    (spans,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", "") for t in node.targets] == ["SPANS"]
    ]
    bindings = [binding for per_span in spans.values() for binding in per_span]
    assert bindings
    for module, attribute in bindings:
        assert hasattr(importlib.import_module(module), attribute), f"{module}.{attribute}"
