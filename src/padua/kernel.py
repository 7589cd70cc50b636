"""Reproducing kernels for the normalized product Chebyshev measure.

Two evaluation routes are kept side by side: the direct double sum over the
orthonormal product basis (the oracle, O(n^2) per pair) and the compact
four-term trigonometric form (O(1) per pair).  The compact quotient
degenerates when the two cosine arguments coincide; pairs inside that guard
band are recomputed with the direct sum instead of an analytic limit.
"""

from enum import Enum

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


class KernelMethod(Enum):
    """Evaluation route: DIRECT is the double-sum oracle; COMPACT, the
    default, is the closed form with the guard-band fallback to DIRECT.
    """

    DIRECT = "direct"
    COMPACT = "compact"


def _method(method):
    if isinstance(method, KernelMethod):
        return method
    return KernelMethod(str(method).lower())


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


def _compact_terms(n, sx, sy, outer):
    """Four-term compact sum plus the mask of pairs inside the guard band.

    Every cos(m(theta +- phi)) splits into cos*cos -+ sin*sin, so twelve
    products cover all four sign combinations; the rest is adds and four
    divisions per pair.
    """
    if outer:
        def mul(a, b):
            return a[:, None] * b[None, :]
    else:
        mul = np.multiply

    # products for the angle sums: (cos m th)(cos m ph), (sin m th)(sin m ph)
    p1, q1 = mul(sx.c1, sy.c1), mul(sx.s1, sy.s1)
    pn1, qn1 = mul(sx.cn1, sy.cn1), mul(sx.sn1, sy.sn1)
    pm1, qm1 = mul(sx.cm1, sy.cm1), mul(sx.sm1, sy.sm1)
    p2, q2 = mul(sx.c2, sy.c2), mul(sx.s2, sy.s2)
    pn2, qn2 = mul(sx.cn2, sy.cn2), mul(sx.sn2, sy.sn2)
    pm2, qm2 = mul(sx.cm2, sy.cm2), mul(sx.sm2, sy.sm2)

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


# largest number of matrix entries materialized per temporary in grid sweeps
_BLOCK_ENTRIES = 1_500_000


def _slice_side(side, sl):
    out = SideTables()
    for name in SideTables.__slots__:
        setattr(out, name, getattr(side, name)[sl])
    return out


def _kernel_from_tables(n, sx, sy, method, outer):
    method = _method(method)
    if outer:
        g = sx.theta1.shape[0]
        h = sy.theta1.shape[0]
        # the direct route materializes (n+1)-deep basis tables per entry
        depth = n + 1 if method is KernelMethod.DIRECT else 1
        block = max(1, _BLOCK_ENTRIES // max(1, h * depth))
        if g > block:
            out = np.empty((g, h))
            for start in range(0, g, block):
                sl = slice(start, min(start + block, g))
                out[sl] = _kernel_from_tables(n, _slice_side(sx, sl), sy, method, True)
            return out
    if method is KernelMethod.DIRECT:
        if outer:
            th1x, th1y = np.meshgrid(sx.theta1, sy.theta1, indexing="ij")
            th2x, th2y = np.meshgrid(sx.theta2, sy.theta2, indexing="ij")
            return _direct_from_angles(n, th1x, th2x, th1y, th2y)
        return _direct_from_angles(n, sx.theta1, sx.theta2, sy.theta1, sy.theta2)
    k, singular = _compact_terms(n, sx, sy, outer)
    if np.any(singular):
        if outer:
            gi, hi = np.nonzero(singular)
            k[gi, hi] = _direct_from_angles(
                n, sx.theta1[gi], sx.theta2[gi], sy.theta1[hi], sy.theta2[hi]
            )
        elif np.ndim(k) == 0:
            k = _direct_from_angles(n, sx.theta1, sx.theta2, sy.theta1, sy.theta2)
        else:
            t1x, t2x, t1y, t2y = np.broadcast_arrays(
                sx.theta1, sx.theta2, sy.theta1, sy.theta2
            )
            idx = np.nonzero(singular)
            k = np.array(k)
            k[idx] = _direct_from_angles(n, t1x[idx], t2x[idx], t1y[idx], t2y[idx])
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
    out = _kernel_from_tables(n, sx, sy, KernelMethod.COMPACT, outer=False)
    return float(out) if np.ndim(out) == 0 else out


def kernel_star(n, x, y, method=KernelMethod.COMPACT):
    """Modified kernel: the reproducing kernel minus T_n(x1) T_n(y1).

    Vanishes whenever x and y are distinct nodes of the degree-n set.
    """
    n = check_degree(n, minimum=1)
    sx = point_tables(n, *x)
    sy = point_tables(n, *y)
    k = _kernel_from_tables(n, sx, sy, method, outer=False)
    out = k - sx.cn1 * sy.cn1
    return float(out) if np.ndim(out) == 0 else out


def star_matrix(n, sx, sy, method=KernelMethod.COMPACT):
    """Cross matrix of the modified kernel between two sides of tables.

    Returns shape (len(sx), len(sy)).  Meant for grid workloads: build the
    side tables once, then reuse them across calls.
    """
    k = np.asarray(_kernel_from_tables(n, sx, sy, method, outer=True))
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


def fundamental_poly(pset, index, x, method=KernelMethod.COMPACT):
    """Fundamental Lagrange polynomial of node (k, j) evaluated at x.

    The ratio of the modified kernel against the node to its diagonal value;
    equals 1 at the node itself and 0 at every other node.
    """
    pos = pset.position(index)
    node = (pset.x1[pos], pset.x2[pos])
    num = kernel_star(pset.degree, x, node, method)
    out = np.asarray(num) / node_star_values(pset)[pos]
    return float(out) if np.ndim(out) == 0 else out
