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

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_totals(*argv):
    tracer = _load_spans().Tracer(padua)
    tracer.install()
    try:
        code = padua.cli.main([*argv, "--output", os.devnull])
    finally:
        tracer.uninstall()
    assert not hasattr(padua.kernel.star_matrix, "__wrapped__")
    return code, tracer.totals()


def test_tracer_sees_lebesgue_layers():
    code, totals = _traced_totals("lebesgue", "--degrees", "4", "--grid", "10")
    assert code == 0
    # tensor grids go through the coefficient route: one batch per node row
    assert not any(name.startswith("kernel.") for name in totals)
    assert totals["interp.to_coefficients"]["calls"] == 5
    assert totals["interp.lebesgue_constant"]["grid_pts"] == 10 * 10
    assert totals["cli.output"]["calls"] >= 1


def test_tracer_sees_verify_kernel_layers():
    code, totals = _traced_totals("verify", "--max-degree", "2")
    assert code == 0
    assert totals["kernel.star_matrix"]["pairs"] == 621
    for name in ("kernel.point_tables", "kernel.node_tables", "cli.output"):
        assert totals[name]["calls"] >= 1
