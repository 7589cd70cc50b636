"""The degree-(n+1) ideal basis vanishing on the node set, and its identities.

The scaled vector of these polynomials satisfies a three-term relation against
the orthonormal basis rows of consecutive degrees; the structure matrices of
that relation are built here from their explicit stencils and feed the
Christoffel-Darboux residual checks.  Batched evaluations read all of these
from one cheb.ChebTables per point set, the tables T_k(x_d), k <= n+1, of
its coordinates; a residual of point pairs reads the direct kernel sum from
the same two table sets (kernel.direct_from_tables).  The product
polynomials mp_poly, which vanish at the interior nodes, are products of
second-kind Chebyshev values U_{m-1}(cos t) = R_m(t), read from the one
Dirichlet ratio cheb.dirichlet.  q_poly keeps its own formula, which forms
only the orders one member needs.  Index arguments (k, j, axis) pass
cheb.check_int before their range checks.
"""

from dataclasses import dataclass

import numpy as np

from . import cheb, kernel
from .cheb import SQRT2, ChebTables, check_degree, check_int, check_square, cos_table


class _Tables(ChebTables):
    """A point set's Chebyshev tables with its ideal-basis rows q(), kept on
    their first call like the basis rows: verify builds one per side of its
    point pairs and degree, and its checks share them.
    """

    def q(self):
        """The n+2 unscaled ideal-basis rows; row k is q_poly(n, k, x)."""
        if "q" not in self._kept:
            n, t1, t2 = self.n, self.t1, self.t2
            q = np.empty((n + 2,) + np.broadcast_shapes(t1.shape[1:], t2.shape[1:]))
            q[0] = t1[n + 1] - t1[n - 1]
            q[1:] = t1[n::-1] * t2[1:] + t2[n::-1] * t1[: n + 1]
            self._kept["q"] = q
        return self._kept["q"]


def _apply(m, v):
    """m @ v over the first axis of v, whatever the shape of its other axes."""
    return (m @ v.reshape(len(v), -1)).reshape(m.shape[:1] + v.shape[1:])


def q_poly(n, k, x):
    """Entry k of the degree-(n+1) ideal basis at a point of the square.

    k = 0 is the univariate member T_{n+1}(x1) - T_{n-1}(x1); for
    1 <= k <= n+1 the entry is
    T_{n-k+1}(x1) T_k(x2) + T_{n-k+1}(x2) T_{k-1}(x1).
    All of these vanish at every node of the degree-n set.  Only the orders
    this member needs are formed.
    """
    n = check_degree(n, minimum=1)
    k = check_int(k, "basis index")
    if not 0 <= k <= n + 1:
        raise IndexError(f"basis index {k} outside 0..{n + 1}")
    th1, th2 = (np.arccos(c) for c in check_square(*x))
    if k == 0:
        t1 = cos_table([n + 1, n - 1], th1)
        out = t1[0] - t1[1]
    else:
        t1 = cos_table([n - k + 1, k - 1], th1)
        t2 = cos_table([k, n - k + 1], th2)
        out = t1[0] * t2[0] + t2[1] * t1[1]
    return cheb.float_if_scalar(out)


def q_rows(n, x):
    """All n+2 members of the ideal basis, unscaled: row k is q_poly(n, k, x).

    The shape is (n+2,) plus the broadcast shape of the coordinates.
    """
    return _Tables(check_degree(n, minimum=1), x).q()


def mp_poly(n, j, x):
    """Product polynomial U_j(x1) U_{n-j-1}(x2) + U_{n-j-2}(x1) U_j(x2).

    These vanish at the interior nodes of the degree-n set.  With
    U_{k-1}(cos t) = R_k(t), the Dirichlet ratios of cheb.dirichlet, the value
    is R_{j+1}(t1) R_{n-j}(t2) + R_{n-j-1}(t1) R_{j+1}(t2) at t_d = arccos x_d,
    and R_0 = 0 is the convention U_{-1} = 0 that makes the edge index
    j = n-1 well defined.
    """
    n = check_degree(n, minimum=2)
    j = check_int(j, "index")
    if not 0 <= j <= n - 1:
        raise IndexError(f"index {j} outside 0..{n - 1}")
    th1, th2 = (np.arccos(c) for c in check_square(*x))
    u1, v1 = cheb.dirichlet((j + 1, n - j - 1), th1)
    u2, v2 = cheb.dirichlet((n - j, j + 1), th2)
    return cheb.float_if_scalar(u1 * u2 + v1 * v2)


def _scaled(q):
    """The scaled ideal-basis vector of rows q (q_rows): sqrt(2) times the
    end rows, 2 times the others."""
    out = 2.0 * q
    out[[0, -1]] = SQRT2 * q[[0, -1]]
    return out


@dataclass(frozen=True)
class StructMatrices:
    """Structure matrices of the three-term relation and the CD identities."""

    a1: np.ndarray
    a2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray


def struct_matrices(n):
    """Build the four structure matrices for degree n from their stencils.

    a1, a2 are (n+1) x (n+2); g1 is (n+2) x (n+1); g2 is (n+2) x n with a
    single -1 entry.  a2 @ g2 = 0 exactly and a1 @ g1 is symmetric.
    """
    n = check_degree(n, minimum=1)
    a1 = np.zeros((n + 1, n + 2))
    a1[np.arange(n), np.arange(n)] = 0.5
    a1[n, n] = SQRT2 / 2.0

    a2 = np.zeros((n + 1, n + 2))
    a2[0, 1] = SQRT2 / 2.0
    rows = np.arange(1, n + 1)
    a2[rows, rows + 1] = 0.5

    g1 = np.zeros((n + 2, n + 1))
    g1[1, n] = SQRT2
    rows = np.arange(2, n + 2)
    g1[rows, n + 1 - rows] = 1.0

    g2 = np.zeros((n + 2, n))
    g2[0, 0] = -1.0
    return StructMatrices(a1=a1, a2=a2, g1=g1, g2=g2)


def three_term_residual(n, x):
    """Max-norm residual of the three-term relation at a point.

    Compares the scaled ideal-basis vector against the degree-(n+1) basis row
    plus g1 and g2 times the rows of degrees n and n-1.  The relation is an
    algebraic identity, so the residual is pure rounding error.
    """
    n = check_degree(n, minimum=2)
    out = _three_term(n, struct_matrices(n), _Tables(n, x))
    return cheb.float_if_scalar(out)


def _three_term(n, mats, tx):
    """three_term_residual on the tables tx, with the structure matrices mats."""
    recon = tx.basis(n + 1) + _apply(mats.g1, tx.basis(n)) + _apply(mats.g2, tx.basis(n - 1))
    return np.abs(_scaled(tx.q()) - recon).max(axis=0)


def cd_residual(n, axis, x, y):
    """Residual of the Christoffel-Darboux identity for the modified kernel.

    axis selects the coordinate (1 or 2).  The left side is
    (x_axis - y_axis) * Kstar(x, y) with the kernel evaluated by the direct
    double sum (kernel.direct_from_tables) on rows 0..n of the tables the
    right side reads; the right side combines the scaled ideal-basis vectors,
    the structure matrix for that axis, and the correction polynomials.
    """
    n = check_degree(n, minimum=2)
    if check_int(axis, "axis") not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    tx, ty = _Tables.pair(n, x, y)
    out = _cd(n, axis, struct_matrices(n), tx, ty, kernel.direct_from_tables(tx, ty))
    return cheb.float_if_scalar(out)


def _cd(n, axis, mats, tx, ty, direct):
    """cd_residual on the tables tx and ty, with the structure matrices mats
    and the direct kernel sum at their pairs."""
    a = mats.a1 if axis == 1 else mats.a2
    qx, qy = tx.q(), ty.q()
    px, py = tx.basis(n), ty.basis(n)
    bilinear = (_scaled(qx) * _apply(a.T, py)).sum(0) - (px * _apply(a, _scaled(qy))).sum(0)
    tnx, tny = tx.t1[n], ty.t1[n]
    if axis == 1:
        corr = 0.5 * tnx * qy[0] - 0.5 * tny * qx[0]
    else:
        corr = tnx * qy[1] - tny * qx[1]
    gap = tx.x[axis - 1] - ty.x[axis - 1]
    lhs = gap * (direct - tnx * tny)
    return np.abs(lhs - (bilinear + corr))
