"""Node arrays against the Padua nodes of a module that does not import padua."""

import sys
import numpy as np
import _common  # noqa: F401 (puts the oracles on the path)
from inputs import padua_nodes  # (k, j, x1, x2, eta) in set order, from the definition
from padua import generate

def compare(n, pset):
    """Print pset's arrays against the definition; True if equal, x1 and x2 within 1e-15."""
    k, j, x1, x2, eta = padua_nodes(n)
    # vertex, edge or interior node (0, 1, 2) as 2, 1 or 0 of k in {0, n}, eta in {0, n+1} hold
    ends = np.isin(k, [0, n]).astype(int) + np.isin(eta, [0, n + 1])
    same = [np.array_equal(got, ref) for got, ref in ((pset.k_num, k), (pset.j_num, j),
            (pset.eta_num, eta), (pset.class_codes, 2 - ends))]
    gap = max(float(np.max(np.abs(pset.x1 - x1))), float(np.max(np.abs(pset.x2 - x2))))
    print(f"n = {n}: {pset.x1.size} nodes, k, j, eta, class equal: {same}, "
          f"largest coordinate difference {gap:.2e} (at most 1e-15 allowed)")
    return all(same) and gap <= 1e-15

if __name__ == "__main__":
    sys.exit(0 if all([compare(n, generate(n)) for n in (1, 2, 3, 64, 511, 4096)]) else 1)
