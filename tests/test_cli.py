import json

import numpy as np
import pytest

from padua import kernel
from padua.cli import main
from padua.points import PointClass


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
    from padua.points import generate

    pset = generate(3)
    path = tmp_path / "samples.csv"
    rows = ["k,j,value"] + [f"{p.k},{p.j},{p.x1 + p.x2}" for p in pset.points]
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
@pytest.mark.parametrize("p", ["0", "-1", "-inf", "nan"])
def test_bad_p_exits_2(capsys, command, p):
    argv = [command, "--function", "exp_sum", f"--p={p}", "--grid", "10"]
    argv += ["--degree", "4"] if command == "interp" else ["--degrees", "2,4"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: p must be positive or inf")
    assert len(err.strip().splitlines()) == 1


def _kj_file(tmp_path, pset, extra=()):
    rows = ["k,j,value"] + [f"{p.k},{p.j},{p.x1}" for p in pset.points]
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
    from padua.points import generate

    path = _kj_file(tmp_path, generate(2), extra)
    code, out, err = run_cli(capsys, "interp", "--degree", "2", "--samples", str(path))
    assert code == 4
    assert out == ""
    assert message in err


def test_interp_sample_column_nonfinite_exit_4(tmp_path, capsys):
    path = tmp_path / "column.csv"
    path.write_text("\n".join(["1.0"] * 4 + ["nan"] + ["1.0"] * 5))
    code, out, err = run_cli(capsys, "interp", "--degree", "3", "--samples", str(path))
    assert code == 4
    assert out == ""
    assert "non-finite sample nan in row 5 (node k=1, j=3)" in err


def test_interp_help_lists_no_method(capsys):
    assert main(["interp", "--help"]) == 0
    assert "--method" not in capsys.readouterr().out
