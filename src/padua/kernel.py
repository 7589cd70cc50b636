"""Reproducing kernels for the normalized product Chebyshev measure.

The compact four-term trigonometric form (O(1) per pair) is the production
route: every kernel, Lagrange-basis and Lebesgue evaluation goes through it.
Its quotient degenerates when two cosine arguments coincide; pairs inside that
guard band are recomputed with the direct double sum over the orthonormal
product basis (O(n^2) per pair) instead of an analytic limit.  kernel_direct
exposes that double sum as the oracle the compact route is checked against.
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

    For each coordinate d the table holds cos/sin of theta_d, n*theta_d and
    (n+1)*theta_d, plus the raw angles for direct-sum fallbacks.
    """

    __slots__ = (
        "theta1", "theta2",
        "c1", "s1", "cn1", "sn1", "cm1", "sm1",
        "c2", "s2", "cn2", "sn2", "cm2", "sm2",
    )


def point_tables(n, x1, x2):
    """Build side tables for arbitrary points of the square."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if not (np.all(np.abs(x1) <= 1.0) and np.all(np.abs(x2) <= 1.0)):
        raise DomainError("point outside the square")
    t = SideTables()
    t.theta1 = np.arccos(x1)
    t.theta2 = np.arccos(x2)
    t.c1, t.s1 = x1, np.sin(t.theta1)
    t.c2, t.s2 = x2, np.sin(t.theta2)
    t.cn1, t.sn1 = np.cos(n * t.theta1), np.sin(n * t.theta1)
    t.cn2, t.sn2 = np.cos(n * t.theta2), np.sin(n * t.theta2)
    t.cm1, t.sm1 = np.cos((n + 1) * t.theta1), np.sin((n + 1) * t.theta1)
    t.cm2, t.sm2 = np.cos((n + 1) * t.theta2), np.sin((n + 1) * t.theta2)
    return t


def node_tables(n, pset):
    """Side tables for the nodes of a PaduaSet, built on the angle lattice.

    Using the integer numerators keeps values like sin(n*theta1) exactly zero
    at the nodes instead of 1e-16 dust.
    """
    a, b = pset.k_num, pset.eta_num
    d1, d2 = pset.degree, pset.degree + 1
    t = SideTables()
    t.theta1 = np.pi * (a / float(d1))
    t.theta2 = np.pi * (b / float(d2))
    t.c1, t.s1 = cospi_frac(a, d1), sinpi_frac(a, d1)
    t.c2, t.s2 = cospi_frac(b, d2), sinpi_frac(b, d2)
    t.cn1, t.sn1 = cospi_frac(n * a, d1), sinpi_frac(n * a, d1)
    t.cn2, t.sn2 = cospi_frac(n * b, d2), sinpi_frac(n * b, d2)
    t.cm1, t.sm1 = cospi_frac((n + 1) * a, d1), sinpi_frac((n + 1) * a, d1)
    t.cm2, t.sm2 = cospi_frac((n + 1) * b, d2), sinpi_frac((n + 1) * b, d2)
    return t


def _tnorm_from_angles(kmax, theta):
    out = np.cos(np.multiply.outer(np.arange(kmax + 1), theta))
    out[1:] *= SQRT2
    return out


def _direct_from_angles(n, th1x, th2x, th1y, th2y):
    """Direct double sum of the reproducing kernel for paired angle arrays."""
    t1x = _tnorm_from_angles(n, th1x)
    t2x = _tnorm_from_angles(n, th2x)
    t1y = _tnorm_from_angles(n, th1y)
    t2y = _tnorm_from_angles(n, th2y)
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
    # products for the angle sums: (cos m th)(cos m ph), (sin m th)(sin m ph)
    p1, q1 = sx.c1 * sy.c1, sx.s1 * sy.s1
    pn1, qn1 = sx.cn1 * sy.cn1, sx.sn1 * sy.sn1
    pm1, qm1 = sx.cm1 * sy.cm1, sx.sm1 * sy.sm1
    p2, q2 = sx.c2 * sy.c2, sx.s2 * sy.s2
    pn2, qn2 = sx.cn2 * sy.cn2, sx.sn2 * sy.sn2
    pm2, qm2 = sx.cm2 * sy.cm2, sx.sm2 * sy.sm2

    total = None
    singular = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for s1 in (1.0, -1.0):
            ca = p1 - q1 if s1 > 0 else p1 + q1
            na = (pn1 - qn1) + (pm1 - qm1) if s1 > 0 else (pn1 + qn1) + (pm1 + qm1)
            for s2 in (1.0, -1.0):
                cb = p2 - q2 if s2 > 0 else p2 + q2
                nb = (pn2 - qn2) + (pm2 - qm2) if s2 > 0 else (pn2 + qn2) + (pm2 + qm2)
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
_BLOCK_ENTRIES = 1_500_000


def _index_side(side, key):
    out = SideTables()
    for name in SideTables.__slots__:
        setattr(out, name, getattr(side, name)[key])
    return out


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
    out = _kernel_from_tables(n, sx, sy) - sx.cn1 * sy.cn1
    return float(out) if np.ndim(out) == 0 else out


def star_matrix(n, sx, sy):
    """Cross matrix of the modified kernel between two sides of tables.

    Returns shape (len(sx), len(sy)).  Meant for grid workloads: build the
    side tables once, then reuse them across calls.  Rows are evaluated in
    blocks of at most _BLOCK_ENTRIES entries per temporary.
    """
    rows, cols = sx.theta1.shape[0], sy.theta1.shape[0]
    col_side = _index_side(sy, np.newaxis)
    block = max(1, _BLOCK_ENTRIES // max(1, cols))
    if rows <= block:
        # one block: keep its result instead of copying into a preallocation
        k = _kernel_from_tables(n, _index_side(sx, (slice(None), None)), col_side)
    else:
        k = np.empty((rows, cols))
        for start in range(0, rows, block):
            sl = slice(start, start + block)
            k[sl] = _kernel_from_tables(n, _index_side(sx, (sl, None)), col_side)
    k -= sx.cn1[:, None] * sy.cn1[None, :]
    return k


def node_star_values(pset, factors=None):
    """Diagonal modified-kernel values at the nodes via the class factors.

    The value at a node is n(n+1) times 2, 1 or 1/2 for vertex, edge and
    interior nodes respectively; build_rule cross-checks this against the
    direct sum at construction time.
    """
    f = NODE_FACTORS if factors is None else factors
    per_code = np.array(
        [f[PointClass.VERTEX], f[PointClass.EDGE], f[PointClass.INTERIOR]],
        dtype=float,
    )
    n = pset.degree
    return n * (n + 1.0) * per_code[pset.class_codes]


def node_star_direct(pset):
    """Diagonal modified-kernel values at the nodes by the direct double sum."""
    n = pset.degree
    t = node_tables(n, pset)
    k = _direct_from_angles(n, t.theta1, t.theta2, t.theta1, t.theta2)
    return k - t.cn1 * t.cn1


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
