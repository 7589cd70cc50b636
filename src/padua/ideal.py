"""The degree-(n+1) ideal basis vanishing on the node set, and its identities.

The scaled vector of these polynomials satisfies a three-term relation against
the orthonormal basis rows of consecutive degrees; the structure matrices of
that relation are built here from their explicit stencils and feed the
Christoffel-Darboux residual checks.
"""

from dataclasses import dataclass

import numpy as np

from . import kernel
from .cheb import SQRT2, DomainError, basis_vector, cheb_u, check_degree


def q_poly(n, k, x):
    """Entry k of the degree-(n+1) ideal basis at a point of the square.

    k = 0 is the univariate member T_{n+1}(x1) - T_{n-1}(x1); for
    1 <= k <= n+1 the entry is
    T_{n-k+1}(x1) T_k(x2) + T_{n-k+1}(x2) T_{k-1}(x1).
    All of these vanish at every node of the degree-n set.
    """
    n = check_degree(n, minimum=1)
    if not 0 <= k <= n + 1:
        raise IndexError(f"basis index {k} outside 0..{n + 1}")
    x1, x2 = x
    if k == 0:
        return _t(n + 1, x1) - _t(n - 1, x1)
    return _t(n - k + 1, x1) * _t(k, x2) + _t(n - k + 1, x2) * _t(k - 1, x1)


def _t(k, x):
    # internal: skips the public degree cap so q_poly works at n = MAX_DEGREE
    xa = np.asarray(x, dtype=float)
    if not np.all(np.abs(xa) <= 1.0):
        raise DomainError("point outside the square")
    out = np.cos(k * np.arccos(xa))
    return float(out) if np.ndim(x) == 0 else out


def mp_poly(n, j, x):
    """Product polynomial U_j(x1) U_{n-j-1}(x2) + U_{n-j-2}(x1) U_j(x2).

    These vanish at the interior nodes of the degree-n set.  The convention
    U_{-1} = 0 makes the edge index j = n-1 well defined.
    """
    n = check_degree(n, minimum=2)
    if not 0 <= j <= n - 1:
        raise IndexError(f"index {j} outside 0..{n - 1}")
    x1, x2 = x
    first = cheb_u(j, x1) * cheb_u(n - j - 1, x2)
    if n - j - 2 < 0:
        return first
    return first + cheb_u(n - j - 2, x1) * cheb_u(j, x2)


def q_vector(n, x):
    """Scaled ideal-basis vector at a point: sqrt(2) on the end entries, 2 inside.

    Returns an array of length n+2 (or shape (n+2,) + broadcast shape for
    array coordinates).
    """
    n = check_degree(n, minimum=1)
    scales = np.full(n + 2, 2.0)
    scales[0] = scales[-1] = SQRT2
    rows = [scales[k] * q_poly(n, k, x) for k in range(n + 2)]
    return np.stack([np.asarray(r, dtype=float) for r in rows])


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
    mats = struct_matrices(n)
    q = q_vector(n, x)
    p_up = basis_vector(n + 1, x)
    p_mid = basis_vector(n, x)
    p_low = basis_vector(n - 1, x)
    recon = p_up + _matvec(mats.g1, p_mid) + _matvec(mats.g2, p_low)
    resid = np.abs(q - recon)
    out = resid.max(axis=0)
    return float(out) if out.ndim == 0 else out


def _matvec(mat, vec):
    # vec may be (m,) or (m,) + batch shape
    return np.einsum("rc,c...->r...", mat, vec)


def cd_residual(n, axis, x, y):
    """Residual of the Christoffel-Darboux identity for the modified kernel.

    axis selects the coordinate (1 or 2).  The left side is
    (x_axis - y_axis) * Kstar(x, y) with the kernel evaluated by the direct
    double sum; the right side combines the scaled ideal-basis vectors, the
    structure matrix for that axis, and the correction polynomials.
    """
    n = check_degree(n, minimum=2)
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    mats = struct_matrices(n)
    a = mats.a1 if axis == 1 else mats.a2
    x1, x2 = x
    y1, y2 = y
    qx = q_vector(n, x)
    qy = q_vector(n, y)
    px = basis_vector(n, x)
    py = basis_vector(n, y)
    bilinear = np.einsum("c...,rc,r...->...", qx, a, py) - np.einsum(
        "r...,rc,c...->...", px, a, qy
    )
    tnx = _t(n, np.asarray(x1, dtype=float))
    tny = _t(n, np.asarray(y1, dtype=float))
    if axis == 1:
        corr = 0.5 * tnx * q_poly(n, 0, y) - 0.5 * tny * q_poly(n, 0, x)
        gap = np.asarray(x1, dtype=float) - np.asarray(y1, dtype=float)
    else:
        corr = tnx * q_poly(n, 1, y) - tny * q_poly(n, 1, x)
        gap = np.asarray(x2, dtype=float) - np.asarray(y2, dtype=float)
    lhs = gap * (kernel.kernel_direct(n, x, y) - tnx * tny)
    out = np.abs(lhs - (bilinear + corr))
    return float(out) if np.ndim(out) == 0 else out


def s_term_residuals(n, x, y):
    """Rounding residuals of the cross-term identities used by the CD split.

    Returns a dict with keys:
      's31'          residual of the axis-1 cross term against
                     (x1-y1) T_n(x1) T_n(y1) plus the k=0 corrections,
      's22_product'  residual of the axis-2 cross term against
                     T_n(x1) T_n(y2) - T_n(x2) T_n(y1),
      's22_qform'    residual of the axis-2 cross term against
                     (x2-y2) T_n(x1) T_n(y1) plus the k=1 corrections.
    """
    n = check_degree(n, minimum=2)
    mats = struct_matrices(n)
    x1 = np.asarray(x[0], dtype=float)
    x2 = np.asarray(x[1], dtype=float)
    y1 = np.asarray(y[0], dtype=float)
    y2 = np.asarray(y[1], dtype=float)
    px = basis_vector(n, x)
    py = basis_vector(n, y)
    px_low = basis_vector(n - 1, x)
    py_low = basis_vector(n - 1, y)

    m31 = mats.a1 @ mats.g2
    s31 = np.einsum("r...,rc,c...->...", px, m31, py_low) - np.einsum(
        "c...,rc,r...->...", px_low, m31, py
    )
    m22 = mats.a2 @ mats.g1
    m22 = m22 - m22.T
    s22 = np.einsum("r...,rc,c...->...", px, m22, py)

    h = _t(n, x1) * _t(n, y1)
    r31 = np.abs(
        s31
        - (x1 - y1) * h
        - 0.5 * _t(n, x1) * q_poly(n, 0, y)
        + 0.5 * _t(n, y1) * q_poly(n, 0, x)
    )
    r22_prod = np.abs(s22 - (_t(n, x1) * _t(n, y2) - _t(n, x2) * _t(n, y1)))
    r22_q = np.abs(
        s22 - (x2 - y2) * h + _t(n, y1) * q_poly(n, 1, x) - _t(n, x1) * q_poly(n, 1, y)
    )
    return {
        "s31": float(np.max(r31)),
        "s22_product": float(np.max(r22_prod)),
        "s22_qform": float(np.max(r22_q)),
    }
