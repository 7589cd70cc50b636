"""lagrange_matrix against the Lagrange basis in coefficient form, without padua."""

import sys
import numpy as np
from _common import bench_oracles
from inputs import padua_nodes
from padua import generate
from padua.interp import lagrange_matrix

# 500 random points, the four corners and two edge midpoints
POINTS = np.vstack([np.random.default_rng(1).uniform(-1.0, 1.0, (500, 2)),
                    [[-1, -1], [-1, 1], [1, -1], [1, 1], [0, -1], [-1, 0]]])

def compare(x, matrices):
    """Print the matrices at x (degree -> matrix) against the oracle's; True if within 1e-12."""
    tnorm, worst = bench_oracles()._tnorm, 0.0  # orthonormal T_0..T_n by recurrence
    for n, got in matrices.items():
        # l_nu(x) = w_nu sum_{a+b<=n} Tn_a(x1) Tn_b(x2) Tn_a(nu1) Tn_b(nu2), the (n, 0) term halved
        _, _, nu1, nu2, _ = padua_nodes(n)
        a, b = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n)
        half = np.where((a == n) & (b == 0), 0.5, 1.0)[:, None]
        w = bench_oracles().node_weights(n, nu1, nu2)  # 1 / K*(nu, nu) by node class
        node_side = tnorm(n, nu1)[a] * tnorm(n, nu2)[b] * half * w
        ref = (tnorm(n, x[:, 0])[a] * tnorm(n, x[:, 1])[b]).T @ node_side
        err = float(np.max(np.abs(got - ref))) if got.shape == ref.shape else float("inf")
        print(f"n = {n}: {got.shape} matrix, largest absolute difference {err:.2e}")
        worst = max(worst, err)
    print(f"largest absolute difference {worst:.2e} (at most 1e-12 allowed)")
    return worst <= 1e-12

if __name__ == "__main__":
    sys.exit(0 if compare(POINTS, {n: lagrange_matrix(generate(n), *POINTS.T)
                                   for n in (31, 32, 33, 64)}) else 1)
