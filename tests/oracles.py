"""Independent reference implementations used only by the tests.

Chebyshev values come from the three-term recurrence (the library itself
uses the trigonometric form), the kernel is the literal nested double sum,
and tables are written one cell at a time.  Nothing here imports evaluation
or output code from the package.
"""

import json
import math

import numpy as np


def cheb_t_rec(k, x):
    """T_k by the three-term recurrence."""
    if k == 0:
        return np.ones_like(np.asarray(x, dtype=float)) + 0.0
    prev, cur = np.ones_like(np.asarray(x, dtype=float)), np.asarray(x, dtype=float)
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * np.asarray(x, dtype=float) * cur - prev
    return cur


def cheb_u_rec(k, x):
    """U_k by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.ones_like(x)
    prev, cur = np.ones_like(x), 2.0 * x
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def t_norm_rec(k, x):
    return cheb_t_rec(k, x) if k == 0 else np.sqrt(2.0) * cheb_t_rec(k, x)


def kernel_double_sum(n, x, y):
    """Reproducing kernel as the literal nested sum over the product basis."""
    total = 0.0
    for deg in range(n + 1):
        for j in range(deg + 1):
            px = t_norm_rec(deg - j, x[0]) * t_norm_rec(j, x[1])
            py = t_norm_rec(deg - j, y[0]) * t_norm_rec(j, y[1])
            total += px * py
    return total


def kernel_star_double_sum(n, x, y):
    return kernel_double_sum(n, x, y) - cheb_t_rec(n, x[0]) * cheb_t_rec(n, y[0])


def lebesgue_grid_max(n, axis):
    """Maximum over the tensor grid axis x axis of sum_nu |K*(x, nu) / K*(nu, nu)|.

    The nodes are (cos(k pi/n), cos(eta pi/(n+1))) with k + eta odd, and both
    kernel values come from the literal nested sum.
    """
    k, eta = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 2)) % 2 == 1)
    nodes = (np.cos(np.pi * k / n), np.cos(np.pi * eta / (n + 1)))
    diag = kernel_star_double_sum(n, nodes, nodes)
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    x = (x1.reshape(-1, 1), x2.reshape(-1, 1))
    vals = kernel_star_double_sum(n, x, (nodes[0][None, :], nodes[1][None, :])) / diag
    return float(np.abs(vals).sum(axis=1).max())


def gauss_chebyshev_integral(f, m):
    """Tensor quadrature for the normalized Chebyshev weight, m per axis."""
    nodes = np.cos((2.0 * np.arange(1, m + 1) - 1.0) * np.pi / (2.0 * m))
    vals = np.asarray(f(nodes[:, None], nodes[None, :]), dtype=float)
    return float(np.mean(vals * np.ones((m, m))))


def set_order_sums(weights, x1, x2, f):
    """The node sum of f in set order, as the cubature took it node by node.

    Returns (np.add.reduce(w * f), math.fsum(w * f), np.add.reduce(|w * f|)):
    numpy's pairwise sum of the products in set order, their correctly
    rounded sum, and the scale that summation errors are measured against.
    """
    products = weights * np.broadcast_to(np.asarray(f(x1, x2), dtype=float), x1.shape)
    return (float(np.add.reduce(products)), math.fsum(products.tolist()),
            float(np.add.reduce(np.abs(products))))


def _t_norm_lattice_table(kmax, nums, den):
    """Orthonormal T_k(cos(pi num / den)), k = 0..kmax, from reduced phases."""
    phase = np.outer(np.arange(kmax + 1), nums) % (2 * den)
    table = np.cos(np.pi * phase / den)
    table[1:] *= np.sqrt(2.0)
    return table


def marcinkiewicz_trials_loop(n, p, trials, seed):
    """Marcinkiewicz ratios, one random polynomial per loop iteration.

    Each trial draws (n+1) x (n+1) uniform [-1, 1] coefficients of the
    orthonormal product basis, keeps total degree <= n, sums the series at
    every Padua node (cos(k pi/n), cos(eta pi/(n+1))) with k + eta odd, and
    on the tensor Gauss-Chebyshev grid of max(200, 2n+1) nodes per axis, and
    divides the node mean of |P|^p by the grid mean.
    """
    k, eta = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 2)) % 2 == 1)
    m = max(200, 2 * n + 1)
    b1 = _t_norm_lattice_table(n, k, n)
    b2 = _t_norm_lattice_table(n, eta, n + 1)
    q = _t_norm_lattice_table(n, 2 * np.arange(1, m + 1) - 1, 2 * m)
    ks = np.arange(n + 1)
    keep = ks[:, None] + ks[None, :] <= n
    rng = np.random.default_rng(seed)
    out = np.empty(trials)
    for t in range(trials):
        coeffs = rng.uniform(-1.0, 1.0, (n + 1, n + 1))
        coeffs[~keep] = 0.0
        at_nodes = np.einsum("ab,aN,bN->N", coeffs, b1, b2)
        on_grid = q.T @ coeffs @ q
        out[t] = np.mean(np.abs(at_nodes) ** p) / np.mean(np.abs(on_grid) ** p)
    return out


def _float_cell(v, precision):
    return format(float(v), f".{precision}g")


def csv_table(header, rows, precision):
    """CSV text of a table, cell by cell: a float as format(v, ".{p}g"), a
    bool as true or false, anything else as str."""

    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return _float_cell(v, precision)
        return str(v)

    lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def json_table(header, rows, precision):
    """JSON text of a table as a list of objects keyed by header, every float
    rounded to precision significant digits."""

    def cell(v):
        if isinstance(v, (float, np.floating)):
            return float(_float_cell(v, precision))
        return v

    records = [{h: cell(v) for h, v in zip(header, row)} for row in rows]
    return json.dumps(records, indent=2) + "\n"
