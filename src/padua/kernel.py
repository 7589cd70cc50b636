"""Reproducing kernels for the normalized product Chebyshev measure.

The compact four-term form (O(1) per pair) evaluates the kernel and the
modified kernel at scattered point pairs (kernel_compact, kernel_star,
star_matrix); Lagrange values go through the closed-form coefficients of the
fundamental polynomials instead (interp.lagrange_matrix, lebesgue_function
and fundamental_poly).  Each of the four terms is d_term, a sum of two
products of Dirichlet-type ratios R_m(t) = sin(m t) / sin(t) from
cheb.dirichlet, the package's one ratio function, whose singularities are
removable: R_m takes its limit where sin(t) vanishes, so the compact form is
finite everywhere and has no second route.
kernel_direct is the direct double sum over the orthonormal product basis
(O(n^2) per pair), the oracle the compact form is checked against, on the
two cheb.ChebTables of its sides; direct_from_tables is the same sum on
table sets a caller already holds.  The node values have a closed form, one
factor per lattice axis (node_star_axes), checked by verify and the tests
against the direct sum over the whole lattice (node_star_direct);
node_star_values writes their products at the nodes
(points.PaduaSet.from_axes).  Each side of a compact evaluation is one
SideTables, the angles of its points; node_tables reads the nodes' angles
off the lattice the same way.
"""

import numpy as np

from . import cheb
from .cheb import ChebTables, check_degree, check_square, t_norm_lattice
from .points import CODE_TO_CLASS, PointClass, lattice_ends

# Diagonal values of the modified kernel at the nodes are n(n+1) times these.
NODE_FACTORS = {
    PointClass.VERTEX: 2.0,
    PointClass.EDGE: 1.0,
    PointClass.INTERIOR: 0.5,
}


class SideTables:
    """The angles theta1, theta2 of the points on one side of a kernel evaluation.

    Both arrays have the points' own shape, so sides of different shapes
    broadcast; side[key] indexes both.
    """

    __slots__ = ("theta1", "theta2")

    def __init__(self, theta1, theta2):
        self.theta1, self.theta2 = theta1, theta2

    def __getitem__(self, key):
        return SideTables(self.theta1[key], self.theta2[key])


def point_tables(x1, x2):
    """Side tables for arbitrary points: theta_d = arccos(x_d)."""
    x1, x2 = check_square(x1, x2)
    return SideTables(np.arccos(x1), np.arccos(x2))


def node_tables(pset):
    """Side tables for the nodes of a PaduaSet: the node entries
    (PaduaSet.from_lattice) of the lattice angles k pi/n and eta pi/(n+1)."""
    n = pset.degree
    angles = np.pi * (np.indices((n + 1, n + 2)) / np.array([[[n]], [[n + 1]]], dtype=float))
    return SideTables(*pset.from_lattice(angles))


def direct_from_tables(tx, ty):
    """Direct double sum of the reproducing kernel on two Chebyshev table sets.

    tx and ty are cheb.ChebTables of one degree n on the two sides, whose
    point axes broadcast (ChebTables.pair); the sum reads their rows
    T_a = cos(a theta), a = 0..n.  The orthonormal factor 2 of the rows
    a >= 1 is applied to the products, so the sum is over 2 T_a(x1) T_a(y1)
    and 2 T_b(x2) T_b(y2).
    """
    rows = slice(tx.n + 1)
    u = tx.t1[rows] * ty.t1[rows]
    v = tx.t2[rows] * ty.t2[rows]
    u[1:] *= 2.0
    v[1:] *= 2.0
    cv = np.cumsum(v, axis=0)
    return np.einsum("a...,a...->...", u, cv[::-1])


# largest number of matrix entries materialized per temporary in star_matrix
_BLOCK_ENTRIES = 30_000


def _kernel_from_tables(n, sx, sy):
    """Compact kernel between side tables whose arrays broadcast together:
    d_term at theta1 +- phi1 against theta2 +- phi2, summed over the four
    sign pairs."""
    # one shape for all four, so the sign axes below lead every array
    t1x, t2x, t1y, t2y = np.broadcast_arrays(sx.theta1, sx.theta2, sy.theta1, sy.theta2)
    alpha = np.stack([t1x + t1y, t1x - t1y])
    beta = np.stack([t2x + t2y, t2x - t2y])
    return d_term(n, alpha[:, None], beta[None, :]).sum(axis=(0, 1))


def kernel_direct(n, x, y):
    """Reproducing kernel by the direct double sum over the product basis.

    This is the oracle route: O(n^2) work per pair, no removable
    singularities.  x and y are (x1, x2) pairs; array coordinates broadcast
    to paired batches.
    """
    n = check_degree(n)
    return cheb.float_if_scalar(direct_from_tables(*ChebTables.pair(n, x, y)))


def d_term(n, alpha, beta):
    """One term of the compact kernel formula, finite for all angles.

    The quotient (cos(m alpha) - cos(m beta)) / (cos(alpha) - cos(beta))
    equals R_m(s) R_m(d) with s = (alpha + beta) / 2, d = (alpha - beta) / 2
    and R_m(t) = sin(m t) / sin(t), so the term
    1/4 [(cos(n alpha) + cos((n+1) alpha)) - (cos(n beta) + cos((n+1) beta))]
    / (cos(alpha) - cos(beta)) is 1/4 [R_n(s) R_n(d) + R_{n+1}(s) R_{n+1}(d)],
    with both ratios from one cheb.dirichlet call on the stacked s and d, at
    their limit where sin vanishes.  alpha and beta broadcast.
    """
    n = check_degree(n)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    s_d = np.stack([0.5 * (alpha + beta), 0.5 * (alpha - beta)])
    (rn_s, rn_d), (rm_s, rm_d) = cheb.dirichlet((n, n + 1), s_d)
    return cheb.float_if_scalar(0.25 * (rn_s * rn_d + rm_s * rm_d))


def kernel_compact(n, x, y):
    """Reproducing kernel by the compact four-term formula.

    Sums d_term over the four sign pairs of theta1 +- phi1 against
    theta2 +- phi2, where x = (cos theta1, cos theta2) and y = (cos phi1,
    cos phi2): O(1) per pair, finite everywhere, and within rounding of
    kernel_direct.  Array coordinates broadcast to paired batches.
    """
    n = check_degree(n)
    return cheb.float_if_scalar(_kernel_from_tables(n, point_tables(*x), point_tables(*y)))


def kernel_star(n, x, y):
    """Modified kernel: the reproducing kernel minus T_n(x1) T_n(y1).

    Vanishes whenever x and y are distinct nodes of the degree-n set.
    """
    n = check_degree(n, minimum=1)
    sx, sy = point_tables(*x), point_tables(*y)
    # T_n(x1) = cos(n theta1)
    out = _kernel_from_tables(n, sx, sy) - np.cos(n * sx.theta1) * np.cos(n * sy.theta1)
    return cheb.float_if_scalar(out)


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
    # T_n(x1) = cos(n theta1) on each side
    tn_rows, tn_cols = np.cos(n * sx.theta1), np.cos(n * sy.theta1)
    k = np.empty((rows, cols))
    for start in range(0, rows, block):
        sl = slice(start, start + block)
        k[sl] = _kernel_from_tables(n, sx[sl, None], col_side)
        k[sl] -= tn_rows[sl, None] * tn_cols
    return k


def node_star_axes(n):
    """A (length n+1) and B (length n+2) with A[k] B[eta] = n(n+1) NODE_FACTORS[class].

    A node is a vertex, edge or interior node as 2, 1 or 0 of its end flags
    (points.lattice_ends) are set.  A holds n(n+1) F_interior; a set flag on
    either axis multiplies it by F_edge / F_interior, which splits the class values when
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
    on1, on2 = lattice_ends(n)
    return n * (n + 1.0) * interior * np.where(on1, end, 1.0), np.where(on2, end, 1.0)


def node_star_tolerance(n):
    """Bound on |node_star_values - node_star_direct| at degree n."""
    return 1e-9 + 1e-12 * n * (n + 1)


def node_star_values(pset):
    """Diagonal modified-kernel values at the nodes in set order, A[k] B[eta]
    (PaduaSet.from_axes).  verify checks this closed form against
    node_star_direct.
    """
    return pset.from_axes(*node_star_axes(pset.degree))


def node_star_direct(pset):
    """Diagonal modified-kernel values at the nodes by the direct double sum,
    in set order.

    The value at node (k, eta) is D[k, eta] = sum_a T1[a, k]^2
    sum_{b <= n-a} T2[b, eta]^2 - T_n(x1)^2, T_n(x1) = +-1, on the
    orthonormal lattice tables.  D is one einsum over the whole
    (n+1) x (n+2) lattice, read at the nodes (PaduaSet.from_lattice).
    """
    n = pset.degree
    t1 = np.square(t_norm_lattice(n, np.arange(n + 1), n))
    t2 = np.square(t_norm_lattice(n, np.arange(n + 2), n + 1))
    # tail[a] = sum_{b <= n-a} t2[b]
    tail = np.cumsum(t2, axis=0)[::-1]
    return pset.from_lattice(np.einsum("ak,ae->ke", t1, tail) - 1.0)
