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


def test_tracer_sees_lebesgue_layers():
    tracer = _load_spans().Tracer(padua)
    tracer.install()
    try:
        code = padua.cli.main(
            ["lebesgue", "--degrees", "4", "--grid", "10", "--output", os.devnull]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    totals = tracer.totals()
    # one star_matrix call per grid row: 10 rows x 10 columns x 15 nodes
    assert totals["kernel.star_matrix"]["pairs"] == 10 * 10 * 15
    for name in ("kernel.point_tables", "kernel.node_tables",
                 "interp.lebesgue_constant", "cli.output"):
        assert totals[name]["calls"] >= 1
    assert not hasattr(padua.kernel.star_matrix, "__wrapped__")
