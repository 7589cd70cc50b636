import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from padua import analysis, functions, interp, kernel, points, verify
from padua.analysis import MAX_MARCINKIEWICZ_DEGREE, MAX_MARCINKIEWICZ_TRIALS, MAX_QUAD
from padua.cheb import MAX_DEGREE
from padua.cli import build_parser, main
from padua.interp import (
    MAX_GRID,
    MAX_LEBESGUE_ENTRIES,
    EvalGrid,
    check_lebesgue_size,
    lebesgue_entries,
)
from padua.points import PointClass
from padua.verify import MAX_VERIFY_DEGREE

import oracles


def _nodes(n):
    """(k, j, x1, x2) of every node in set order, as Python numbers, from the definition."""
    nodes = oracles.padua_nodes(n)
    return list(zip(*(a.tolist() for a in (nodes.k, nodes.j, nodes.x1, nodes.x2))))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_points_degree_two_csv(capsys):
    code, out, _ = run_cli(capsys, "points", "--degree", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,j,x1,x2,class"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    assert float(first[2]) == pytest.approx(1.0)
    assert float(first[3]) == pytest.approx(0.5)
    assert first[4] == "edge"


def test_points_rejects_degree_zero(capsys):
    code, _, err = run_cli(capsys, "points", "--degree", "0")
    assert code == 2
    assert "unsupported degree" in err


def test_points_json_cardinality(capsys):
    code, out, _ = run_cli(capsys, "points", "--degree", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 15
    assert {r["class"] for r in rows} <= {"vertex", "edge", "interior"}


def test_unknown_flag_exits_2(capsys):
    assert main(["points", "--degree", "2", "--bogus"]) == 2
    capsys.readouterr()


def test_cubature_weight_table(capsys):
    code, out, _ = run_cli(capsys, "cubature", "--degree", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,j,x1,x2,class,weight"
    weights = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_cubature_integral_values(capsys):
    code, out, _ = run_cli(capsys, "cubature", "--degree", "5", "--function", "const",
                           "--format", "json")
    assert code == 0 and json.loads(out)["integral"] == pytest.approx(1.0)
    code, out, _ = run_cli(capsys, "cubature", "--degree", "5", "--function", "coord1",
                           "--format", "json")
    assert code == 0 and json.loads(out)["integral"] == pytest.approx(0.0, abs=1e-12)


def test_interp_constant_reproduced(capsys):
    code, out, _ = run_cli(
        capsys, "interp", "--degree", "8", "--function", "const", "--grid", "10",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["error_uniform"] <= 1e-8
    vals = np.array(doc["values"])
    assert vals.shape == (10, 10)


def test_interp_franke_positive_error(capsys):
    code, out, _ = run_cli(
        capsys, "interp", "--degree", "8", "--function", "franke", "--grid", "30",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["summary"]["error_uniform"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ("interp", "--degree", "4"),
        ("cubature", "--degree", "4"),
        ("converge", "--degrees", "2,4"),
    ],
    ids=["interp", "cubature", "converge"],
)
def test_interp_unknown_function(capsys, argv):
    # a parse error: rejected before any node set or rule is built
    code, out, err = run_cli(capsys, *argv, "--function", "nope")
    assert code == 2
    assert out == ""
    assert "unknown function 'nope'" in err


def test_interp_sample_file_round_trip(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    rows = ["k,j,value"] + [f"{k},{j},{x1 + x2}" for k, j, x1, x2 in _nodes(3)]
    path.write_text("\n".join(rows))
    code, out, _ = run_cli(
        capsys, "interp", "--degree", "3", "--samples", str(path), "--grid", "5",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    ax = np.array(doc["axis"])
    vals = np.array(doc["values"])
    expect = ax[:, None] + ax[None, :]
    assert np.max(np.abs(vals - expect)) <= 1e-9


def test_interp_sample_file_length_mismatch(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("\n".join(str(v) for v in range(9)))
    code, _, err = run_cli(capsys, "interp", "--degree", "3", "--samples", str(path))
    assert code == 4
    assert "expected 10" in err


def test_lebesgue_rows_nondecreasing(capsys):
    code, out, _ = run_cli(capsys, "lebesgue", "--degrees", "4,8", "--grid", "50")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,cardinality,grid_m,grid_kind,lebesgue"
    vals = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert len(vals) == 2 and vals[0] <= vals[1]


def test_converge_decreasing_error(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "--function", "exp_sum", "--p", "2",
        "--degrees", "2,4,8", "--grid", "40",
    )
    assert code == 0
    lines = out.strip().splitlines()
    idx = lines[0].split(",").index("error_wp")
    errs = [float(ln.split(",")[idx]) for ln in lines[1:]]
    assert errs[0] > errs[1] > errs[2]


def test_marcinkiewicz_reproducible(capsys):
    args = ("marcinkiewicz", "--degree", "6", "--p", "2", "--trials", "8",
            "--seed", "11")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    ratios = [float(ln.split(",")[-1]) for ln in out1.strip().splitlines()[1:]]
    assert len(ratios) == 8 and all(r > 0 for r in ratios)


def test_marcinkiewicz_rejects_nonfinite_p(capsys):
    for p in ("inf", "nan"):
        code, out, err = run_cli(capsys, "marcinkiewicz", "--degree", "4", "--p", p,
                                 "--trials", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("degrees, message", [
    ("8,0", "unsupported degree 0"),
    (f"8,{MAX_DEGREE + 1}", f"unsupported degree {MAX_DEGREE + 1}"),
])
def test_lebesgue_checks_every_degree_before_any_constant(capsys, monkeypatch, degrees,
                                                          message):
    def refuse(*args):
        raise AssertionError("a Lebesgue constant came before a degree check")

    monkeypatch.setattr(interp, "lebesgue_constant", refuse)
    code, out, err = run_cli(capsys, "lebesgue", "--degrees", degrees, "--grid", "20")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_marcinkiewicz_degree_limit_exits_2_before_any_work(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"node set of degree {n} built past the limit")

    monkeypatch.setattr(points, "generate", refuse)
    code, out, err = run_cli(capsys, "marcinkiewicz", "--degree",
                             str(MAX_MARCINKIEWICZ_DEGREE + 1), "--trials", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert str(MAX_MARCINKIEWICZ_DEGREE) in err


@pytest.mark.parametrize("trials", [MAX_MARCINKIEWICZ_TRIALS + 1, 10**11])
def test_marcinkiewicz_trials_limit_exits_2_before_any_work(capsys, monkeypatch, trials):
    def refuse(n):
        raise AssertionError(f"node set of degree {n} built past the limit")

    monkeypatch.setattr(points, "generate", refuse)
    code, out, err = run_cli(capsys, "marcinkiewicz", "--degree", "2", "--trials",
                             str(trials))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert str(MAX_MARCINKIEWICZ_TRIALS) in err


def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--max-degree", "4", "--seed", "7",
                 "--output", str(p1)]) == 0
    assert main(["verify", "--max-degree", "4", "--seed", "7",
                 "--output", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    report = json.loads(p1.read_text())
    assert report["all_passed"] is True
    names = {c["check"] for c in report["checks"]}
    assert "node_value_cross_check" in names and "delta_property" in names


def test_verify_negative_control(capsys, monkeypatch):
    # transposing the vertex and interior factors must fail the cross-check
    tampered = {
        PointClass.VERTEX: 0.5,
        PointClass.EDGE: 1.0,
        PointClass.INTERIOR: 2.0,
    }
    monkeypatch.setattr(kernel, "NODE_FACTORS", tampered)
    code, out, _ = run_cli(capsys, "verify", "--max-degree", "3", "--seed", "1")
    assert code == 1
    report = json.loads(out)
    assert report["all_passed"] is False
    failing = {c["check"] for c in report["checks"] if not c["passed"]}
    assert "node_value_cross_check" in failing
    assert report["node_factors"] == {"edge": 1.0, "interior": 2.0, "vertex": 0.5}


@pytest.mark.parametrize("argv", [
    ("points", "--degree", "5"),
    ("interp", "--degree", "5", "--function", "franke", "--grid", "7"),
    ("interp", "--degree", "3", "--samples", "{samples}", "--grid", "5"),
    ("cubature", "--degree", "7"),
    ("cubature", "--degree", "7", "--function", "exp_sum"),
    ("lebesgue", "--degrees", "3,4", "--grid", "21"),
    ("converge", "--function", "exp_sum", "--degrees", "2,4", "--grid", "21"),
    ("marcinkiewicz", "--degree", "4", "--trials", "3"),
], ids=["points", "interp-function", "interp-samples", "cubature-weights",
        "cubature-function", "lebesgue", "converge", "marcinkiewicz"])
def test_only_verify_calls_an_oracle(tmp_path, monkeypatch, argv):
    # the direct sums are oracles, read by verify and the tests alone
    def refuse(*args, **kwargs):
        raise AssertionError("oracle called outside verify")

    for name in ("node_star_direct", "kernel_direct", "direct_from_tables"):
        monkeypatch.setattr(kernel, name, refuse)
    samples = tmp_path / "samples.csv"
    samples.write_text("\n".join(str(x1 * x2) for _, _, x1, x2 in _nodes(3)))
    assert main([a.format(samples=samples) for a in argv]) == 0


def test_verify_degree_limit_exits_2_before_any_work(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"node set of degree {n} built past the limit")

    monkeypatch.setattr(points, "generate", refuse)
    code, out, err = run_cli(capsys, "verify", "--max-degree",
                             str(MAX_VERIFY_DEGREE + 1))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(MAX_VERIFY_DEGREE) in err


@pytest.mark.parametrize("argv", [
    ["interp", "--degree", "4", "--function", "franke"],
    ["lebesgue", "--degrees", "4"],
    ["converge", "--function", "exp_sum", "--degrees", "2,4"],
])
def test_grid_above_limit_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--grid", str(MAX_GRID + 1))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(MAX_GRID) in err


def _first_refused_lebesgue_degree(m):
    return next(n for n in range(1, 4097) if lebesgue_entries(n, m) > MAX_LEBESGUE_ENTRIES)


def test_lebesgue_size_bound_keeps_the_growth_study():
    # the Lebesgue growth study runs to n = 256 on the default 200-point grid
    check_lebesgue_size(256, EvalGrid(200, "chebyshev"))
    n = _first_refused_lebesgue_degree(200)
    check_lebesgue_size(n - 1, EvalGrid(200))
    with pytest.raises(ValueError, match=str(MAX_LEBESGUE_ENTRIES)):
        check_lebesgue_size(n, EvalGrid(200))


@pytest.mark.parametrize("argv", [
    ["lebesgue", "--degrees", "4,{n}"],
    ["converge", "--function", "exp_sum", "--degrees", "4,{n}"],
])
def test_lebesgue_size_above_bound_exits_2_before_any_work(capsys, monkeypatch, argv):
    def refuse(n):
        raise AssertionError(f"node set of degree {n} built past the limit")

    monkeypatch.setattr(points, "generate", refuse)
    n = _first_refused_lebesgue_degree(200)
    code, out, err = run_cli(capsys, *[a.format(n=n) for a in argv], "--grid", "200")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert str(MAX_LEBESGUE_ENTRIES) in err


def test_quad_bound_keeps_the_default_of_every_admitted_degree():
    # the default quadrature 4 * max(degrees) stays allowed for every degree
    # the Lebesgue bound admits on the default 200-point grid
    assert 4 * (_first_refused_lebesgue_degree(200) - 1) <= MAX_QUAD


@pytest.mark.parametrize("p", ["2", "inf"])
@pytest.mark.parametrize("quad", [0, MAX_QUAD + 1, 100000])
def test_converge_quad_outside_bound_exits_2_before_any_work(capsys, monkeypatch, p, quad):
    def refuse(n):
        raise AssertionError(f"node set of degree {n} built past the limit")

    monkeypatch.setattr(points, "generate", refuse)
    code, out, err = run_cli(capsys, "converge", "--function", "exp_sum", "--degrees",
                             "4", "--p", p, "--quad", str(quad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(MAX_QUAD) in err


def test_interp_function_quad_outside_bound_exits_2_before_sampling(capsys, monkeypatch):
    # interp --function measures with max(64, 4n) quadrature nodes per axis,
    # bounded by MAX_QUAD: degree 312 is the largest allowed
    def refuse(pset, f, dtype=float):
        raise AssertionError(f"degree {pset.degree} sampled past the limit")

    monkeypatch.setattr(interp, "sample", refuse)
    assert 4 * 312 <= MAX_QUAD < 4 * 313
    code, out, err = run_cli(capsys, "interp", "--degree", "313", "--function",
                             "exp_sum", "--grid", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(MAX_QUAD) in err


def test_interp_function_default_quad_refusal_names_the_degree_bound(capsys, monkeypatch):
    def refuse(pset, f, dtype=float):
        raise AssertionError(f"degree {pset.degree} sampled past the limit")

    monkeypatch.setattr(interp, "sample", refuse)
    code, out, err = run_cli(capsys, "interp", "--degree", "313", "--function", "franke")
    assert (code, out) == (2, "")
    assert err == ("error: degree 313 measures with 1252 quadrature nodes per axis, above "
                   f"{MAX_QUAD}: degrees up to 312 are allowed\n")
    assert analysis.check_quad(max(64, 4 * 312), 312) == 1248


def test_converge_default_quad_refusal_names_the_degree_bound_and_quad(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"node set of degree {n} built past the limit")

    monkeypatch.setattr(points, "generate", refuse)
    code, out, err = run_cli(capsys, "converge", "--function", "franke", "--degrees", "4,400")
    assert (code, out) == (2, "")
    assert err == ("error: degree 400 measures with 1600 quadrature nodes per axis, above "
                   f"{MAX_QUAD}: degrees up to 312 are allowed; --quad sets the quadrature\n")
    # an explicit --quad keeps the plain size bound, whatever the degrees
    code, out, err = run_cli(capsys, "converge", "--function", "franke", "--degrees", "4,400",
                             "--quad", "2000")
    assert (code, out) == (2, "")
    assert err == f"error: quadrature of 2000 nodes per axis: 1 to {MAX_QUAD} are allowed\n"


def test_convergence_study_default_quad_refusal_names_the_degree():
    with pytest.raises(ValueError, match=r"^degree 400 measures with 1600 quadrature nodes per "
                                         r"axis, above 1250: degrees up to 312 are allowed$"):
        analysis.convergence_study(functions.get("franke"), 2, [4, 400], EvalGrid(10))


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-degree", "2", "--seed", "3",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,degree,observed,tolerance,passed"
    assert all(ln.endswith(",true") for ln in lines[1:])


def test_precision_flag_rounds_output(capsys):
    code, out, _ = run_cli(capsys, "points", "--degree", "2", "--precision", "3")
    assert code == 0
    assert "0.5" in out
    with_precision = [ln.split(",")[3] for ln in out.strip().splitlines()[1:]]
    assert all(len(tok) <= 6 for tok in with_precision)


@pytest.mark.parametrize("precision", ["0", "18", "-3", "five"])
def test_precision_outside_range_exits_2_before_any_work(capsys, monkeypatch, precision):
    def refuse(*args):
        raise AssertionError("verification ran with a bad --precision")

    monkeypatch.setattr(verify, "run_verification", refuse)
    code, out, err = run_cli(capsys, "verify", "--max-degree", "60", "--precision",
                             precision)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].endswith(
        f"invalid int value: '{precision}'" if precision == "five"
        else f"precision must be in 1..17, not {precision}"
    )


def test_main_calls_in_one_process_match_fresh_processes(capsys, monkeypatch):
    # the parser is built once per process; each command, run twice in this
    # process between the others, gives the bytes, stderr and exit code of a
    # fresh `python -m padua` (usage lines wrap at COLUMNS in both)
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    commands = [
        ["points", "--degree", "3", "--precision", "0"],
        ["lebesgue", "--degrees", "2,3", "--grid", "12", "--format", "json"],
        ["interp", "--degree", "4", "--function", "nope"],
        ["verify", "--max-degree", "3", "--seed", "1"],
        ["interp", "--degree", "3", "--function", "exp_sum", "--grid", "5"],
    ]
    fresh = [subprocess.run([sys.executable, "-m", "padua", *argv], capture_output=True,
                            env=env) for argv in commands]
    assert [p.returncode for p in fresh] == [2, 0, 2, 0, 0]
    for _ in range(2):
        for argv, proc in zip(commands, fresh):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out.encode(), err.encode()) == (
                proc.returncode, proc.stdout, proc.stderr), argv


def test_output_to_missing_directory_is_io_error(capsys):
    code = main(["points", "--degree", "2", "--output", "/nonexistent/dir/x.csv"])
    capsys.readouterr()
    assert code == 3


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("padua ")


def test_lebesgue_json(capsys):
    code, out, _ = run_cli(capsys, "lebesgue", "--degrees", "4", "--grid", "40",
                           "--grid-kind", "chebyshev", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["grid_kind"] == "chebyshev"
    assert rows[0]["lebesgue"] >= 1.0


def test_converge_json(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "--function", "coord1", "--p", "inf",
        "--degrees", "2,3", "--grid", "20", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == "inf"
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["error_wp"] <= 1e-8


def test_interp_chebyshev_grid(capsys):
    code, out, _ = run_cli(
        capsys, "interp", "--degree", "6", "--function", "runge2d",
        "--grid", "12", "--grid-kind", "chebyshev", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    ax = np.array(doc["axis"])
    assert np.all(np.abs(ax) < 1.0) and doc["grid"]["kind"] == "chebyshev"


@pytest.mark.parametrize("command", ["interp", "converge"])
@pytest.mark.parametrize("p", ["0", "-1", "-inf", "nan", "abc"])
def test_bad_p_exits_2(capsys, command, p):
    argv = [command, "--function", "exp_sum", f"--p={p}", "--grid", "10"]
    argv += ["--degree", "4"] if command == "interp" else ["--degrees", "2,4"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: p must be positive or inf")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, column", [
    (["interp", "--degree", "30", "--function", "exp_sum", "--grid", "20", "--p", "24"], None),
    (["converge", "--function", "exp_sum", "--degrees", "16,24", "--grid", "20",
      "--p", "400"], "error_wp"),
    (["marcinkiewicz", "--degree", "4", "--p", "400", "--trials", "2"], "ratio"),
])
def test_large_p_gives_nonzero_values(capsys, argv, column):
    # each read 0 (and marcinkiewicz warned of overflow) where |v|^p left the
    # float range; tests/test_analysis.py checks the values against mpmath
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    if column is None:
        assert float(re.search(r"error_wp=(\S+)", err).group(1)) > 1e-15
        return
    assert err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2 and all(float(r[column]) > 1e-60 for r in rows)


@pytest.mark.parametrize("argv", [
    ["interp", "--degree", "3", "--function", "franke", "--grid", "2", "--p", "1e-300"],
    ["converge", "--function", "exp_sum", "--degrees", "2,4", "--grid", "10", "--p", "1e-300"],
    ["marcinkiewicz", "--degree", "4", "--p", "501", "--trials", "2"],
])
def test_p_outside_its_range_exits_2(capsys, argv):
    # p = 1e-300 printed error_wp=1: the mean of the |v|^p rounds to 1
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: p must be inf or from 0.001 to 500, got ")
    assert err.count("\n") == 1


def _kj_file(tmp_path, n, extra=()):
    rows = ["k,j,value"] + [f"{k},{j},{x1}" for k, j, x1, _ in _nodes(n)]
    path = tmp_path / "samples.csv"
    path.write_text("\n".join(rows + list(extra)))
    return path


@pytest.mark.parametrize(
    "extra, message",
    [
        (("0,1,99.0",), "repeats node k=0, j=1"),
        (("1,2,nan",), "non-finite sample nan at node k=1, j=2"),
        (("1,x,0.5",), "malformed sample row"),
    ],
)
def test_interp_sample_file_bad_rows_exit_4(tmp_path, capsys, extra, message):
    path = _kj_file(tmp_path, 2, extra)
    code, out, err = run_cli(capsys, "interp", "--degree", "2", "--samples", str(path))
    assert code == 4
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv, code, message", [
    (("lebesgue", "--degrees", "4,x"), 2,
     "padua lebesgue: error: argument --degrees: degrees must be comma-separated integers"),
    (("lebesgue", "--degrees", ","), 2,
     "padua lebesgue: error: argument --degrees: empty degree list"),
    (("interp", "--degree", "2", "--samples", ""), 4, "error: sample file {path} is empty"),
    (("interp", "--degree", "2", "--samples", "k,j,value\n0,1\n"), 4,
     "error: malformed sample row: '0,1'"),
    (("interp", "--degree", "2", "--samples", "k,j,value\n9,1,0.5\n"), 4,
     "error: no node with index (9, 1)"),
    (("interp", "--degree", "2", "--samples", "k,j,value\n0,1,0.5\n"), 4,
     "error: sample file covers 1 of 6 nodes"),
    (("interp", "--degree", "2", "--samples", "abc\n"), 4,
     "error: malformed sample file: could not convert string to float: 'abc'"),
])
def test_cli_error_branches_exit_with_their_code(tmp_path, capsys, argv, code, message):
    # a --samples argument here is the file's text, written to a file first
    path = tmp_path / "samples.csv"
    if "--samples" in argv:
        path.write_text(argv[-1])
        argv = argv[:-1] + (str(path),)
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.splitlines()[-1] == message.format(path=path)


def test_interp_sample_file_not_utf8_exits_4(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "interp", "--degree", "2", "--samples", str(path))
    assert code == 4
    assert out == ""
    assert err == f"error: sample file {path} is not UTF-8 text\n"


@pytest.mark.parametrize("header", [True, False])
def test_interp_sample_file_with_byte_order_mark(tmp_path, capsys, header):
    # spreadsheet tools write UTF-8 with a leading BOM
    rows = ([f"{k},{j},{x1 * x2}" for k, j, x1, x2 in _nodes(3)] if header
            else [f"{x1 * x2}" for _, _, x1, x2 in _nodes(3)])
    text = "\n".join((["k,j,value"] if header else []) + rows)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    argv = ("interp", "--degree", "3", "--grid", "4", "--samples")
    expect = run_cli(capsys, *argv, str(plain))
    got = run_cli(capsys, *argv, str(marked))
    assert got[0] == 0
    assert got == expect
    # a BOM does not make other bytes UTF-8
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode() + b"\n\xff")
    code, out, err = run_cli(capsys, *argv, str(marked))
    assert (code, out) == (4, "")
    assert err == f"error: sample file {marked} is not UTF-8 text\n"


def test_interp_sample_column_nonfinite_exit_4(tmp_path, capsys, monkeypatch):
    path = tmp_path / "column.csv"
    path.write_text("\n".join(["1.0"] * 4 + ["nan"] + ["1.0"] * 5))
    made, generate = [], points.generate

    def spy(n):
        made.append(generate(n))
        return made[-1]

    monkeypatch.setattr(points, "generate", spy)
    code, out, err = run_cli(capsys, "interp", "--degree", "3", "--samples", str(path))
    assert code == 4
    assert out == ""
    assert "non-finite sample nan in row 5 (node k=1, j=3)" in err
    # the node is named by arithmetic on the row starts, not read from coords
    assert made and not any("coords" in s.__dict__ for s in made)


def test_interp_help_lists_no_method(capsys):
    assert main(["interp", "--help"]) == 0
    assert "--method" not in capsys.readouterr().out
