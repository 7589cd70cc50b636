"""lebesgue_function on 10^4 points at degree 128 in bounded memory."""

import sys
from _common import peak_rss
from padua import EvalGrid, generate, lebesgue_constant

# the 8385 x 10^4 matrix of the fundamental polynomials would take 671 MB
rss, rss_ok, _, out = peak_rss("lebesgue_function", "-c", (
    "from padua import EvalGrid, generate, lebesgue_function\n"
    "x = EvalGrid(100).points()\n"
    "print(repr(float(lebesgue_function(generate(128), (x[:, 0], x[:, 1])).max())))\n"),
    baseline="padua", read=lambda pipe: pipe.read())
got, const = float(out), lebesgue_constant(generate(128), EvalGrid(100))
rel = abs(got - const) / const
print(f"{rss}, grid maximum {got!r} against lebesgue_constant {const!r} "
      f"(relative difference {rel:.2e}, at most 1e-12)")
sys.exit(0 if rss_ok and rel <= 1e-12 else 1)
