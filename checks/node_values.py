"""The closed-form node values at every node of n = 2048 against their direct double sum.

kernel.node_star_values (one factor per lattice axis) against kernel.node_star_direct (the
whole-lattice sum read at the nodes), within kernel.node_star_tolerance; verify checks every
node up to n = 100 only.
"""

import sys
import numpy as np
from padua import generate
from padua.kernel import node_star_direct, node_star_tolerance, node_star_values

def compare(pset, values):
    """Print values (set order) against the direct sum at pset's nodes; True if within the bound."""
    n, direct = pset.degree, node_star_direct(pset)
    err = float(np.max(np.abs(values - direct))) if values.shape == direct.shape else float("inf")
    tol = node_star_tolerance(n)
    print(f"n = {n}: {direct.size} nodes, largest absolute difference {err:.2e} "
          f"(at most {tol:.2e} allowed)")
    return err <= tol

if __name__ == "__main__":
    pset = generate(2048)
    sys.exit(0 if compare(pset, node_star_values(pset)) else 1)
