"""Lebesgue constants against perfbench/oracles.py's sum over every node, with no mirror fold."""

import sys
from _common import bench_oracles, padua_rows
from inputs import grid_axis

def compare(rows, count):
    """Print each (kind, n, m, constant) against the oracle; True if `count` rows, within 1e-12."""
    worst = 0.0
    for kind, n, m, got in rows:
        ref = bench_oracles().lebesgue_constant(n, grid_axis(m, kind))
        rel = abs(got - ref) / ref
        print(f"n = {n}, {kind}: {got!r} against {ref!r}, relative difference {rel:.2e}")
        worst = max(worst, rel)
    print(f"{len(rows)} values ({count} expected), largest relative difference {worst:.2e} "
          f"(at most 1e-12 allowed)")
    return len(rows) == count and worst <= 1e-12

if __name__ == "__main__":
    # every size the benchmark runs at 200 points, and 31 and 33 around 32; on 200
    # points each product is one row of nodes from n = 8, on 41 several rows share one
    rows = [(kind, int(r["n"]), int(r["grid_m"]), float(r["lebesgue"]))
            for kind in ("uniform", "chebyshev")
            for m, degrees in ((200, "4,8,16,24,31,32,33"), (41, "3,7,8,16"))
            for r in padua_rows("lebesgue", "--degrees", degrees, "--grid", m, "--grid-kind", kind)]
    sys.exit(0 if compare(rows, 22) else 1)
