"""Reproducing kernels for the normalized product Chebyshev measure.

The compact four-term trigonometric form (O(1) per pair) is the production
route for kernel and Lagrange-basis values at scattered points; tensor grids
go through the coefficients of interp.to_coefficients instead.
Its quotient degenerates when two cosine arguments coincide; pairs inside that
guard band are recomputed with the direct double sum over the orthonormal
product basis (O(n^2) per pair) instead of an analytic limit.  kernel_direct
exposes that double sum as the oracle the compact route is checked against.
Each side of an evaluation is one SideTables: its angles and one trig table,
(cos, sin) of theta, n*theta and (n+1)*theta per coordinate.
"""

import numpy as np

from .cheb import SQRT2, DomainError, check_degree, cospi_frac, sinpi_frac
from .points import PointClass

# |cos(alpha) - cos(beta)| below this sends the whole pair to the direct sum.
# The quotient loses roughly eps * (n+1) / den to cancellation, so the band
# must sit well above eps * (n+1) / 1e-9 for the compact form to stay within
# 1e-9 (n+1) of the direct sum everywhere; 1e-6 leaves a ~6x margin, measured
# against adversarial pairs parked just outside the band.
SINGULAR_BAND = 1e-6

# Diagonal values of the modified kernel at the nodes are n(n+1) times these.
NODE_FACTORS = {
    PointClass.VERTEX: 2.0,
    PointClass.EDGE: 1.0,
    PointClass.INTERIOR: 0.5,
}


class SideTables:
    """Per-point trig tables shared by every kernel evaluation at those points.

    trig[d][i] is the (cos, sin) pair of (1, n, n+1)[i] * theta_{d+1}, and
    theta1, theta2 are the raw angles for direct-sum fallbacks.  Every array
    has the points' own shape, so sides of different shapes broadcast;
    side[key] indexes every array.
    """

    __slots__ = ("theta1", "theta2", "trig")

    def __init__(self, theta1, theta2, trig):
        self.theta1, self.theta2, self.trig = theta1, theta2, trig

    def __getitem__(self, key):
        trig = tuple(tuple((c[key], s[key]) for c, s in coord) for coord in self.trig)
        return SideTables(self.theta1[key], self.theta2[key], trig)


def point_tables(n, x1, x2):
    """Side tables for arbitrary points; cos(theta_d) is x_d itself."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if not (np.all(np.abs(x1) <= 1.0) and np.all(np.abs(x2) <= 1.0)):
        raise DomainError("point outside the square")
    thetas = np.arccos(x1), np.arccos(x2)
    trig = tuple(
        ((x, np.sin(th)),) + tuple((np.cos(m * th), np.sin(m * th)) for m in (n, n + 1))
        for x, th in zip((x1, x2), thetas)
    )
    return SideTables(*thetas, trig)


def node_tables(n, pset):
    """Side tables for the nodes of a PaduaSet, built on the angle lattice.

    Using the integer numerators keeps values like sin(n*theta1) exactly zero
    at the nodes instead of 1e-16 dust.
    """
    lattice = (pset.k_num, pset.degree), (pset.eta_num, pset.degree + 1)
    trig = tuple(
        tuple((cospi_frac(m * a, d), sinpi_frac(m * a, d)) for m in (1, n, n + 1))
        for a, d in lattice
    )
    return SideTables(*(np.pi * (a / float(d)) for a, d in lattice), trig)


def _tnorm_from_angles(kmax, theta):
    out = np.cos(np.multiply.outer(np.arange(kmax + 1), theta))
    out[1:] *= SQRT2
    return out


def _direct_from_angles(n, th1x, th2x, th1y, th2y):
    """Direct double sum of the reproducing kernel; the angle arrays broadcast."""
    t1x, t2x, t1y, t2y = (
        _tnorm_from_angles(n, th)
        for th in np.broadcast_arrays(th1x, th2x, th1y, th2y)
    )
    u = t1x * t1y
    v = t2x * t2y
    cv = np.cumsum(v, axis=0)
    return np.einsum("a...,a...->...", u, cv[::-1])


def _compact_terms(n, sx, sy):
    """Four-term compact sum plus the mask of pairs inside the guard band.

    Every cos(m(theta +- phi)) splits into cos*cos -+ sin*sin, so twelve
    products cover all four sign combinations; the rest is adds and four
    divisions per pair.
    """
    # per coordinate, for the signs + then -: (cos(th +- ph),
    # cos(n(th +- ph)) + cos((n+1)(th +- ph)))
    pairs = []
    for tx, ty in zip(sx.trig, sy.trig):
        (p, q), (pn, qn), (pm, qm) = ((c * d, s * t) for (c, s), (d, t) in zip(tx, ty))
        pairs.append(((p - q, (pn - qn) + (pm - qm)), (p + q, (pn + qn) + (pm + qm))))
    total = singular = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for ca, na in pairs[0]:
            for cb, nb in pairs[1]:
                den = ca - cb
                term = na - nb
                term *= 0.25
                term /= den
                bad = np.abs(den) < SINGULAR_BAND
                if total is None:
                    total, singular = term, bad
                else:
                    total += term
                    singular |= bad
    return total, singular


# largest number of matrix entries materialized per temporary in star_matrix
_BLOCK_ENTRIES = 30_000


def _kernel_from_tables(n, sx, sy):
    """Compact kernel between side tables whose arrays broadcast together.

    Pairs inside the guard band are recomputed with the direct sum.
    """
    k, singular = _compact_terms(n, sx, sy)
    if np.any(singular):
        t1x, t2x, t1y, t2y = np.broadcast_arrays(
            sx.theta1, sx.theta2, sy.theta1, sy.theta2
        )
        k = np.asarray(k)
        k[singular] = _direct_from_angles(
            n, t1x[singular], t2x[singular], t1y[singular], t2y[singular]
        )
    return k


def kernel_direct(n, x, y):
    """Reproducing kernel by the direct double sum over the product basis.

    This is the oracle route: O(n^2) work per pair, no removable
    singularities.  x and y are (x1, x2) pairs; array coordinates broadcast
    to paired batches.
    """
    n = check_degree(n)
    sx = point_tables(n, *x)
    sy = point_tables(n, *y)
    out = _direct_from_angles(n, sx.theta1, sx.theta2, sy.theta1, sy.theta2)
    return float(out) if np.ndim(out) == 0 else out


def d_term(n, alpha, beta):
    """One term of the compact kernel formula, as the raw quotient.

    No guard is applied here: when cos(alpha) and cos(beta) are closer than
    SINGULAR_BAND the quotient is meaningless (inf or nan) and callers are
    expected to fall back to the direct sum, as kernel_compact does.
    """
    n = check_degree(n)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.cos((n + 0.5) * alpha) * np.cos(alpha / 2.0) - np.cos(
            (n + 0.5) * beta
        ) * np.cos(beta / 2.0)
        out = 0.5 * num / (np.cos(alpha) - np.cos(beta))
    return float(out) if out.ndim == 0 else out


def kernel_compact(n, x, y):
    """Reproducing kernel by the compact four-term formula.

    Agrees with kernel_direct to rounding for all inputs; pairs whose
    quotient denominators fall inside the guard band are recomputed with the
    direct sum.
    """
    n = check_degree(n)
    sx = point_tables(n, *x)
    sy = point_tables(n, *y)
    out = _kernel_from_tables(n, sx, sy)
    return float(out) if np.ndim(out) == 0 else out


def kernel_star(n, x, y):
    """Modified kernel: the reproducing kernel minus T_n(x1) T_n(y1).

    Vanishes whenever x and y are distinct nodes of the degree-n set.
    """
    n = check_degree(n, minimum=1)
    sx = point_tables(n, *x)
    sy = point_tables(n, *y)
    # trig[0][1][0] is cos(n theta1) = T_n(x1)
    out = _kernel_from_tables(n, sx, sy) - sx.trig[0][1][0] * sy.trig[0][1][0]
    return float(out) if np.ndim(out) == 0 else out


def star_matrix(n, sx, sy):
    """Cross matrix of the modified kernel between two sides of tables.

    Returns shape (len(sx), len(sy)), for scattered points against a node
    set.  Rows are evaluated in blocks of at most _BLOCK_ENTRIES entries per
    temporary.
    """
    rows, cols = sx.theta1.shape[0], sy.theta1.shape[0]
    col_side = sy[np.newaxis]
    block = max(1, _BLOCK_ENTRIES // max(1, cols))
    k = np.empty((rows, cols))
    for start in range(0, rows, block):
        sl = slice(start, start + block)
        k[sl] = _kernel_from_tables(n, sx[sl, None], col_side)
    # trig[0][1][0] is cos(n theta1) = T_n(x1)
    k -= sx.trig[0][1][0][:, None] * sy.trig[0][1][0][None, :]
    return k


def node_star_values(pset):
    """Diagonal modified-kernel values at the nodes via the class factors.

    The value at a node is n(n+1) times NODE_FACTORS of its class: 2, 1 or
    1/2 for vertex, edge and interior nodes respectively; build_rule
    cross-checks this against the direct sum at construction time.
    """
    f = NODE_FACTORS
    per_code = np.array(
        [f[PointClass.VERTEX], f[PointClass.EDGE], f[PointClass.INTERIOR]],
        dtype=float,
    )
    n = pset.degree
    return n * (n + 1.0) * per_code[pset.class_codes]


def node_star_direct(pset, positions=slice(None)):
    """Diagonal modified-kernel values by the direct double sum.

    positions selects nodes in set order (an index array or a slice; all
    nodes by default).  Only the selected nodes' lattice angles are formed,
    so a sampled check costs O(n^2) per node, not a table over the set.
    """
    n = pset.degree
    a, b = pset.k_num[positions], pset.eta_num[positions]
    th1 = np.pi * (a / float(n))
    th2 = np.pi * (b / float(n + 1))
    tn = cospi_frac(n * a, n)
    return _direct_from_angles(n, th1, th2, th1, th2) - tn * tn


def kernel_star_at_node(pset, index):
    """Diagonal modified-kernel value at node (k, j)."""
    pos = pset.position(index)
    return float(node_star_values(pset)[pos])


def fundamental_poly(pset, index, x):
    """Fundamental Lagrange polynomial of node (k, j) evaluated at x.

    The ratio of the modified kernel against the node to its diagonal value;
    equals 1 at the node itself and 0 at every other node.
    """
    pos = pset.position(index)
    node = (pset.x1[pos], pset.x2[pos])
    num = kernel_star(pset.degree, x, node)
    out = np.asarray(num) / node_star_values(pset)[pos]
    return float(out) if np.ndim(out) == 0 else out
