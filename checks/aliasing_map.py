"""to_coefficients at MAX_DEGREE against the aliasing map of tests/oracles.py."""

import sys
import numpy as np
import _common  # noqa: F401 (puts the oracles on the path)
from oracles import aliasing_image  # L_n(T_alpha T_beta) as one term +-T_a T_b
from padua import MAX_DEGREE, generate
from padua.cheb import cospi_frac
from padua.interp import to_coefficients

n, worst = MAX_DEGREE, 0.0
pset = generate(n)
k, eta = pset.lattice_index(np.arange(len(pset)))  # lattice numerators in set order
for alpha, beta in np.random.default_rng(1).integers(0, 3 * n, (3, 2)):
    # T_alpha(x1) T_beta(x2) at the nodes, from phases reduced mod 2n and 2(n+1)
    coeffs = to_coefficients(pset, cospi_frac(alpha * k, n) * cospi_frac(beta * eta, n + 1))
    sign, a, b = aliasing_image(n, alpha, beta)
    # T_a T_b is Tnorm_a Tnorm_b times sqrt(1/2) for each index above 0
    coeffs[a, b] -= sign * np.sqrt(0.5) ** (np.sign(a) + np.sign(b))
    err = float(np.max(np.abs(coeffs)))
    print(f"n = {n}, alpha = {alpha}, beta = {beta}: image {sign:+d} T_{a}(x1) T_{b}(x2), "
          f"largest coefficient difference {err:.2e}")
    worst = max(worst, err)
print(f"largest coefficient difference {worst:.2e} (at most 5e-15 allowed)")
sys.exit(0 if worst <= 5e-15 else 1)
