"""to_coefficients at MAX_DEGREE in bounded memory, its constant term against I0(1)^2."""

import sys
from _common import bench_oracles, peak_rss

CHILD = ("from padua import functions, interp, points; pset = points.generate(4096); "
         "c = interp.to_coefficients(pset, interp.sample(pset, functions.get('exp_sum'))); "
         "print(repr(float(c[0, 0])))")

# At its peak the fit holds six lattice-sized arrays of 134 MB (the lattice, its two
# tables, the products and the coefficients; tracemalloc reads 768.6 MiB) next to the
# 67 MB samples: +833.6 to +833.9 MB on x86_64, so one more lattice-sized array alive
# at the peak exceeds the bound.  C[0, 0] is the node sum of exp(x1 + x2) with the
# cubature weights, exact for degree 2n - 1, so it is I0(1)^2 to rounding
rss, rss_ok, code, out = peak_rss("to_coefficients(generate(4096), sample(exp_sum))", "-c",
                                  CHILD, baseline="padua", limit_mb=900,
                                  read=lambda pipe: pipe.read().decode())
err = abs(float(out) - bench_oracles().bessel_i0_squared_at_one()) if code == 0 else float("nan")
print(f"{rss}, exit {code}, |C[0, 0] - I0(1)^2| = {err:.2e} (at most 1e-14 allowed)")
sys.exit(0 if code == 0 and rss_ok and err <= 1e-14 else 1)
