"""marcinkiewicz at MAX_MARCINKIEWICZ_DEGREE against a recomputation without padua."""

import sys
import numpy as np
from _common import padua_rows
from oracles import _t_norm_lattice_table  # orthonormal T_0..T_n(cos(pi num / den))

def compare(ratios, n, trials, seed):
    """Print the ratios (p -> ratios) against their recomputation; True if all within 1e-12."""
    # the Padua nodes (cos(k pi/n), cos(eta pi/(n+1))), k + eta odd, on the lattice tables
    l1, l2 = (_t_norm_lattice_table(n, np.arange(d + 1), d) for d in (n, n + 1))
    k, eta = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 2)) % 2 == 1)
    # 1001 Gauss-Chebyshev nodes per axis are exact up to degree 2001 >= 4n
    q = _t_norm_lattice_table(n, 2 * np.arange(1, 1002) - 1, 2002)
    keep, worst = np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n, 0.0
    for p, got in ratios.items():
        rng, ref = np.random.default_rng(seed), np.empty(trials)
        for t in range(trials):
            c = rng.uniform(-1.0, 1.0, (n + 1, n + 1))
            c[~keep] = 0.0
            nodes = (l1.T @ c @ l2)[k, eta]
            # Parseval at p = 2; the exact tensor rule at p = 4
            den = np.sum(c * c) if p == 2 else np.mean((q.T @ c @ q) ** 4)
            ref[t] = np.mean(nodes**p) / den
        rel = float(np.max(np.abs(got - ref) / ref)) if len(got) == trials else float("inf")
        print(f"p = {p}: {len(got)} ratios in [{got.min():.6f}, {got.max():.6f}], "
              f"largest relative difference {rel:.2e} (at most 1e-12 allowed)")
        worst = max(worst, rel)
    return worst <= 1e-12

if __name__ == "__main__":
    sys.exit(0 if compare({p: np.array([float(r["ratio"]) for r in padua_rows(
        "marcinkiewicz", "--degree", 500, "--p", p, "--trials", 20, "--seed", 1)])
        for p in (2, 4)}, 500, 20, 1) else 1)
