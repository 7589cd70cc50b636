"""The span tracer of perfbench/spans.py still resolves every layer it wraps.

The tracer wraps functions by module attribute, so a renamed or re-routed
function would silently drop out of a traced benchmark run; this test makes
that a failure instead.
"""

import importlib.util
import os
from pathlib import Path

import padua
import padua.cli
import padua.output

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_totals(*argv, output=os.devnull):
    tracer = _load_spans().Tracer(padua)
    tracer.install()
    try:
        code = padua.cli.main([*argv, "--output", str(output)])
    finally:
        tracer.uninstall()
    assert not hasattr(padua.kernel.star_matrix, "__wrapped__")
    return code, tracer.totals()


def test_tracer_sees_lebesgue_layers():
    code, totals = _traced_totals("lebesgue", "--degrees", "4", "--grid", "10")
    assert code == 0
    # the fundamental polynomials' coefficients are closed-form on the
    # lattice tables: neither the kernel nor to_coefficients is reached
    assert not any(name.startswith("kernel.") for name in totals)
    assert "interp.to_coefficients" not in totals
    assert totals["interp.lebesgue_constant"]["grid_pts"] == 10 * 10
    assert totals["cli.output"]["calls"] >= 1


def test_tracer_sees_verify_kernel_layers():
    code, totals = _traced_totals("verify", "--max-degree", "2")
    assert code == 0
    # the partition of unity sums the blocks of the fundamental polynomials'
    # closed-form coefficients as they come, with no lagrange_matrix, and the
    # delta check runs on the lattice tables: neither reaches the cross
    # matrix of the compact kernel or the node-side trig tables
    assert "interp.lagrange_matrix" not in totals
    assert "kernel.star_matrix" not in totals
    assert "kernel.node_tables" not in totals
    # the oracle agreement check evaluates the compact kernel; its direct
    # sum, like the three-term and CD residuals, reads the one table set
    # per side and degree that verify builds, so the public entry points of
    # those are not called
    for name in ("kernel.point_tables", "kernel.kernel_compact", "cli.output"):
        assert totals[name]["calls"] >= 1
    for name in ("ideal.q_poly", "ideal.three_term_residual", "ideal.cd_residual",
                 "kernel.kernel_direct"):
        assert name not in totals


def test_output_span_wraps_the_writer_where_it_lives():
    # the writer lives in padua.output, and cli holds the same OutputSpec;
    # the cli.output span reaches it through cli, so a move that dropped
    # that binding would lose the span
    spans = _load_spans()
    assert padua.cli.OutputSpec is padua.output.OutputSpec
    targets = [getattr(spans._resolve(padua, owner), attr)
               for name, owner, attr, *_ in spans.TARGETS if name == "cli.output"]
    assert targets == [padua.output.OutputSpec.write_rows, padua.output.OutputSpec.write_json]


def test_tracer_counts_csv_output_bytes(tmp_path):
    # the cli.output span wraps OutputSpec.write_rows; its bytes counter reads
    # the file the command wrote
    path = tmp_path / "points.csv"
    code, totals = _traced_totals("points", "--degree", "8", output=path)
    assert code == 0
    assert totals["cli.output"]["calls"] == 1
    assert totals["cli.output"]["bytes"] == path.stat().st_size > 0


def test_tracer_counts_json_output_bytes(tmp_path):
    # a JSON node table goes through OutputSpec.write_json, the span's other
    # entry
    path = tmp_path / "points.json"
    code, totals = _traced_totals("points", "--degree", "8", "--format", "json",
                                  output=path)
    assert code == 0
    assert totals["cli.output"]["calls"] == 1
    assert totals["cli.output"]["bytes"] == path.stat().st_size > 0


def test_tracer_sees_one_sample_per_converge_fit():
    # convergence_study samples f at the nodes through interp.sample, once
    # per fit: degrees 2 and 4 and the reference degree 8
    code, totals = _traced_totals("converge", "--function", "exp_sum", "--degrees",
                                  "2,4", "--grid", "10")
    assert code == 0
    assert totals["interp.sample"]["calls"] == 3
