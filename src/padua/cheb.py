"""Stable evaluation of Chebyshev polynomials and the orthonormal product basis.

Everything here works on scalars or numpy arrays and evaluates through the
trigonometric forms (cos(k*arccos x), sin((k+1)*arccos x)/sin(arccos x)),
which stay accurate at high degree where the three-term recurrence loses
digits near the interval ends.
"""

import operator

import numpy as np

# Degree cap shared by every module; bounds the memory of table-based sums.
MAX_DEGREE = 4096

SQRT2 = np.sqrt(2.0)

# pi to more digits than any numpy float holds; each dtype rounds it once.
_PI_DIGITS = "3.14159265358979323846264338327950288419716939937510582"


class DomainError(ValueError):
    """An evaluation point left [-1, 1] (or the unit square)."""


class DegreeError(ValueError):
    """A degree parameter is outside the supported range."""


def check_degree(n, minimum=0, what="degree"):
    """Validate an integer degree, returning it as a plain int."""
    n = operator.index(n)
    if n < minimum or n > MAX_DEGREE:
        raise DegreeError(
            f"unsupported {what} {n}: expected {minimum} <= {what} <= {MAX_DEGREE}"
        )
    return n


def _unit(x, what="argument", dtype=float):
    arr = np.asarray(x, dtype=dtype)
    if not np.all(np.abs(arr) <= 1.0):
        raise DomainError(f"{what} outside [-1, 1]")
    return arr


def _like(values, template):
    if np.ndim(template) == 0:
        return float(values)
    return values


def cheb_t(k, x):
    """First-kind Chebyshev polynomial T_k on [-1, 1].

    Parameters
    ----------
    k : int
        Degree, 0 <= k <= MAX_DEGREE.
    x : float or ndarray
        Evaluation points in [-1, 1]; values outside raise DomainError.
    """
    k = check_degree(k)
    xa = _unit(x)
    return _like(np.cos(k * np.arccos(xa)), x)


def cheb_u(k, x):
    """Second-kind Chebyshev polynomial U_k on [-1, 1].

    At x = +-1 the sine quotient degenerates and the analytic limit
    (k+1) * (+-1)^k is returned instead.
    """
    k = check_degree(k)
    xa = _unit(x)
    theta = np.arccos(xa)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.sin((k + 1) * theta) / np.sin(theta)
    limit = (k + 1.0) * np.where(xa < 0, (-1.0) ** k, 1.0)
    vals = np.where(np.abs(xa) == 1.0, limit, vals)
    return _like(vals, x)


def cheb_t_norm(k, x):
    """T_k scaled to unit norm for the normalized Chebyshev weight.

    Returns 1 for k = 0 and sqrt(2) * T_k(x) for k >= 1.
    """
    k = check_degree(k)
    xa = _unit(x)
    if k == 0:
        return _like(np.ones_like(xa), x)
    return _like(SQRT2 * np.cos(k * np.arccos(xa)), x)


def t_values(kmax, x, dtype=float):
    """Table of T_k(x) for k = 0..kmax, shape (kmax+1,) + shape(x)."""
    kmax = check_degree(kmax)
    theta = np.arccos(_unit(x, dtype=dtype))
    ks = np.arange(kmax + 1)
    return np.cos(np.multiply.outer(ks, theta))


def t_norm_values(kmax, x, dtype=float):
    """Table of the orthonormal polynomials for k = 0..kmax, in dtype."""
    out = t_values(kmax, x, dtype)
    out[1:] *= np.sqrt(out.dtype.type(2))
    return out


def u_values(kmax, x):
    """Table of U_k(x) for k = 0..kmax, with the endpoint limits at +-1."""
    kmax = check_degree(kmax)
    xa = _unit(x)
    theta = np.arccos(xa)
    ks = np.arange(kmax + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(np.multiply.outer(ks + 1, theta)) / np.sin(theta)
    kcol = ks.reshape((kmax + 1,) + (1,) * np.ndim(xa))
    limit = (kcol + 1.0) * np.where(xa < 0, np.where(kcol % 2 == 0, 1.0, -1.0), 1.0)
    return np.where(np.abs(xa) == 1.0, limit, out)


def cospi_frac(num, den, dtype=float):
    """cos(pi * num / den) for integer num, with exact phase reduction.

    Reducing num mod 2*den before forming the angle keeps lattice values such
    as cos(k*pi/n) correct to one ulp even for large products k*a.  The angle
    and cosine are formed in dtype (float64 by default, or np.longdouble).
    """
    ftype = np.dtype(dtype).type
    num = np.asarray(num, dtype=np.int64)
    r = np.remainder(num, 2 * den)
    r = np.minimum(r, 2 * den - r)
    return np.cos(ftype(_PI_DIGITS) * (r / ftype(den)))


def sinpi_frac(num, den):
    """sin(pi * num / den) for integer num, with exact phase reduction."""
    num = np.asarray(num, dtype=np.int64)
    r = np.remainder(num, 2 * den)
    sign = np.where(r > den, -1.0, 1.0)
    r = np.where(r > den, 2 * den - r, r)
    r = np.minimum(r, den - r)
    return sign * np.sin(np.pi * (r / float(den)))


def t_lattice(kmax, nums, den, dtype=float):
    """Table T_k(cos(pi*num/den)) for k = 0..kmax without an arccos round trip."""
    ks = np.arange(check_degree(kmax) + 1, dtype=np.int64)
    return cospi_frac(np.multiply.outer(ks, np.asarray(nums, dtype=np.int64)), den,
                      dtype)


def t_norm_lattice(kmax, nums, den, dtype=float):
    """Orthonormal counterpart of t_lattice: rows k >= 1 scaled by sqrt(2)."""
    out = t_lattice(kmax, nums, den, dtype)
    out[1:] *= np.sqrt(out.dtype.type(2))
    return out


def basis_vector(n, point):
    """Degree-n orthonormal product-basis row at a point of the square.

    Entry j equals cheb_t_norm(n-j, x1) * cheb_t_norm(j, x2).  Both
    coordinates may be arrays, in which case the result has shape
    (n+1,) + broadcast shape and each column is the row at one point.
    """
    n = check_degree(n)
    x1, x2 = point
    t1 = t_norm_values(n, _unit(x1, "point"))
    t2 = t_norm_values(n, _unit(x2, "point"))
    return t1[::-1] * t2


def product_series_at(coeffs, x1, x2):
    """Evaluate sum_ab coeffs[a,b] * Tnorm_a(x1) * Tnorm_b(x2) pointwise."""
    dtype = np.result_type(coeffs.dtype, float)
    t1 = t_norm_values(coeffs.shape[0] - 1, x1, dtype)
    t2 = t_norm_values(coeffs.shape[1] - 1, x2, dtype)
    return np.einsum("ab,a...,b...->...", coeffs, t1, t2)


def product_series_grid(coeffs, axis1, axis2):
    """Evaluate the series on a tensor grid; out[i, j] pairs axis1[i] with axis2[j].

    Leading axes of coeffs are a batch.  The tables are built in the
    coefficients' float type, so float64 and longdouble keep their precision.
    """
    dtype = np.result_type(coeffs.dtype, float)
    b1 = t_norm_values(coeffs.shape[-2] - 1, axis1, dtype)
    b2 = t_norm_values(coeffs.shape[-1] - 1, axis2, dtype)
    return b1.T @ coeffs @ b2
