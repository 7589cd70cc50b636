"""Reproducing kernels for the normalized product Chebyshev measure.

The compact four-term trigonometric form (O(1) per pair) evaluates the kernel
and the modified kernel at scattered point pairs (kernel_compact,
kernel_star, star_matrix); Lagrange values go through the closed-form
coefficients of the fundamental polynomials instead (interp.lagrange_matrix,
fundamental_poly here).  The compact quotient degenerates when two cosine
arguments coincide; pairs inside that guard band are recomputed with the
direct double sum over the orthonormal product basis (O(n^2) per pair)
instead of an analytic limit.  kernel_direct exposes that double sum as the
oracle the compact route is checked against; direct_from_tables is the same
sum on Chebyshev tables a caller already holds.  The node values have a
closed form, one factor per lattice axis (node_star_axes), checked by a
direct sum on the lattice (node_star_direct).  Each side of a compact
evaluation is one SideTables: its angles and one trig table, (cos, sin) of
theta, n*theta and (n+1)*theta per coordinate.
"""

import numpy as np

from .cheb import (check_degree, check_square, cos_table, cospi_frac, sinpi_frac,
                   t_norm_lattice, t_norm_values)
from .points import CODE_TO_CLASS, PointClass

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
    x1, x2 = check_square(x1, x2)
    thetas = np.arccos(x1), np.arccos(x2)
    trig = tuple(
        ((x, np.sin(th)),) + tuple((np.cos(m * th), np.sin(m * th)) for m in (n, n + 1))
        for x, th in zip((x1, x2), thetas)
    )
    return SideTables(*thetas, trig)


def node_tables(pset):
    """Side tables for the nodes of a PaduaSet, built on the angle lattice.

    Using the integer numerators keeps values like sin(n*theta1) exactly zero
    at the nodes instead of 1e-16 dust.
    """
    return _lattice_tables(pset.degree, pset.k_num, pset.eta_num)


def _lattice_tables(n, k, eta):
    """node_tables for the nodes with lattice numerators k and eta, entry by entry."""
    lattice = (k, n), (eta, n + 1)
    trig = tuple(
        tuple((cospi_frac(m * a, d), sinpi_frac(m * a, d)) for m in (1, n, n + 1))
        for a, d in lattice
    )
    return SideTables(*(np.pi * (a / float(d)) for a, d in lattice), trig)


def _direct_from_angles(n, th1x, th2x, th1y, th2y):
    """Direct double sum of the reproducing kernel; the angle arrays broadcast."""
    angles = np.stack(np.broadcast_arrays(th1x, th2x, th1y, th2y))
    return direct_from_tables(*cos_table(np.arange(n + 1), angles).swapaxes(0, 1))


def direct_from_tables(t1x, t2x, t1y, t2y):
    """Direct double sum of the reproducing kernel from Chebyshev tables.

    Each argument holds T_a at one coordinate of one side for a = 0..n on its
    first axis (cos(a theta), as cheb.cos_table builds it); the other axes
    broadcast.  The orthonormal factor 2 of the rows a >= 1 is applied to the
    products, so the sum is over 2 T_a(x1) T_a(y1) and 2 T_b(x2) T_b(y2).
    """
    u = t1x * t1y
    v = t2x * t2y
    u[1:] *= 2.0
    v[1:] *= 2.0
    cv = np.cumsum(v, axis=0)
    return np.einsum("a...,a...->...", u, cv[::-1])


def _compact_terms(sx, sy):
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
    k, singular = _compact_terms(sx, sy)
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
    angles = (np.arccos(c) for p in (x, y) for c in check_square(*p))
    out = _direct_from_angles(n, *angles)
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
    temporary, the T_n(x1) T_n(y1) correction included, so no temporary
    spans the whole matrix.
    """
    rows, cols = sx.theta1.shape[0], sy.theta1.shape[0]
    col_side = sy[np.newaxis]
    block = max(1, _BLOCK_ENTRIES // max(1, cols))
    k = np.empty((rows, cols))
    for start in range(0, rows, block):
        sl = slice(start, start + block)
        k[sl] = _kernel_from_tables(n, sx[sl, None], col_side)
        # trig[0][1][0] is cos(n theta1) = T_n(x1)
        k[sl] -= sx.trig[0][1][0][sl, None] * sy.trig[0][1][0]
    return k


def node_star_axes(n):
    """A (length n+1) and B (length n+2) with A[k] B[eta] = n(n+1) NODE_FACTORS[class].

    A node is a vertex, edge or interior node as 2, 1 or 0 of k in {0, n} and
    eta in {0, n+1} hold.  A holds n(n+1) F_interior; an end of either range
    multiplies it by F_edge / F_interior, which splits the class values when
    F_edge^2 = F_interior F_vertex (RuntimeError otherwise).  With 2, 1, 1/2
    every factor is n(n+1) times a power of two: exact to the last bit.
    """
    vertex, edge, interior = (NODE_FACTORS[c] for c in CODE_TO_CLASS)
    if edge * edge != interior * vertex:
        raise RuntimeError(
            f"node factors do not split into one factor per lattice axis: "
            f"edge^2 = {edge * edge!r} but interior * vertex = {interior * vertex!r}"
        )
    end = edge / interior
    a = np.full(n + 1, n * (n + 1.0) * interior)
    a[[0, n]] *= end
    b = np.ones(n + 2)
    b[[0, n + 1]] = end
    return a, b


def node_star_tolerance(n):
    """Bound on |node_star_values - node_star_direct| at degree n."""
    return 1e-9 + 1e-12 * n * (n + 1)


def node_star_values(pset):
    """Diagonal modified-kernel values at the nodes in set order, A[k] B[eta].

    verify and build_rule check this closed form against node_star_direct.
    """
    a, b = node_star_axes(pset.degree)
    return a[pset.k_num] * b[pset.eta_num]


def node_star_direct(pset, positions=slice(None)):
    """Diagonal modified-kernel values by the direct double sum.

    positions selects nodes in set order (an index array or a slice; all
    nodes by default).  The value at node (k, eta) is D[k, eta] =
    sum_a T1[a, k]^2 sum_{b <= n-a} T2[b, eta]^2 - T_n(x1)^2, T_n(x1) = +-1,
    on the orthonormal lattice tables of the distinct k and eta selected.  The
    contraction is an einsum, not BLAS, so a node's value does not depend on
    which other nodes are selected.
    """
    n = pset.degree
    if isinstance(positions, slice):
        positions = np.arange(*positions.indices(len(pset)))
    k, eta = pset.lattice_index(positions)
    ks, ik = np.unique(k, return_inverse=True)
    etas, ie = np.unique(eta, return_inverse=True)
    t1 = np.square(t_norm_lattice(n, ks, n))
    t2 = np.square(t_norm_lattice(n, etas, n + 1))
    # tail[a] = sum_{b <= n-a} t2[b]
    tail = np.cumsum(t2, axis=0)[::-1]
    return np.einsum("ak,ae->ke", t1, tail)[ik, ie] - 1.0


def kernel_star_at_node(pset, index):
    """Diagonal modified-kernel value at node (k, j), A[k] B[eta] of node_star_axes."""
    k, eta = pset.lattice_index(pset.position(index))
    a, b = node_star_axes(pset.degree)
    return float(a[k] * b[eta])


def fundamental_poly(pset, index, x):
    """Fundamental Lagrange polynomial of node (k, j) evaluated at x.

    Equals 1 at the node itself and 0 at every other node.  The polynomial
    of node nu = (k, eta) has the coefficients T1[a, k] T2[b, eta] / K*(nu, nu)
    for a + b <= n, the (n, 0) term halved, so at a point it is
    sum_a Tnorm_a(x1) T1[a, k] sum_{b <= n-a} Tnorm_b(x2) T2[b, eta] / K*(nu, nu):
    O(n) per point, on the lattice values of this one node.  The result has
    the broadcast shape of x, or is a float for a single point.
    """
    pos = pset.position(index)
    x1, x2 = np.broadcast_arrays(*check_square(*x))
    n = pset.degree
    k, eta = pset.lattice_index(pos)
    column = (-1,) + (1,) * x1.ndim
    v = t_norm_values(n, x2) * t_norm_lattice(n, eta, n + 1).reshape(column)
    tail = np.cumsum(v, axis=0)[::-1]
    tail[n] *= 0.5
    u = t_norm_values(n, x1) * t_norm_lattice(n, k, n).reshape(column)
    out = np.einsum("a...,a...->...", u, tail) / kernel_star_at_node(pset, index)
    return float(out) if out.ndim == 0 else out
