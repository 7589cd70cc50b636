"""Stable evaluation of Chebyshev polynomials and the orthonormal product basis.

Everything here works on scalars or numpy arrays and evaluates through the
trigonometric forms T_k(x) = cos(k arccos x) and U_k(x) = R_{k+1}(arccos x),
with R_m(t) = sin(m t) / sin(t) the Dirichlet-type ratio of dirichlet, the
package's one formula for it and for its removable singularity.  They stay
accurate at high degree where the three-term recurrence loses digits near the
interval ends.
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


def check_int(value, what):
    """value as a plain int: numpy integers pass, a bool or any other
    non-integer raises TypeError naming what and the value."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, not {value!r}")


def check_degree(n, minimum=0, what="degree"):
    """Validate an integer degree (check_int), returning it as a plain int."""
    n = check_int(n, what)
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


def check_square(x1, x2):
    """Both coordinates as float arrays, after one check that they lie in the square."""
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    if not (np.all(np.abs(x1) <= 1.0) and np.all(np.abs(x2) <= 1.0)):
        raise DomainError("point outside the square")
    return x1, x2


def float_if_scalar(out):
    """out as a Python float when it is 0-d, else unchanged: a one-point call
    of any public evaluation returns a float."""
    return float(out) if np.ndim(out) == 0 else out


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
    return float_if_scalar(np.cos(k * np.arccos(xa)))


def dirichlet(orders, t):
    """R_m(t) = sin(m t) / sin(t) for each m in orders, from one reduction of t.

    t is first reduced to r = t - j pi in [-pi/2, pi/2]: sin(r) keeps its
    last bits near the zeros of sin, where sin(t) carries the rounding of t
    itself.  Then R_m(t) = (-1)^(j(m-1)) R_m(r), and R_m(r) takes its limit
    m at r = 0, so R_0 = 0.  Returns a list of arrays of t's shape, one per
    order.  There is no order check: callers validate their orders.
    """
    j = np.rint(t / np.pi)
    r = t - j * np.pi
    # (-1)^(j(m-1)) is 1 for odd m and (-1)^j for even m
    alt = 1.0 - 2.0 * np.remainder(j, 2.0)
    sin_r = np.sin(r)
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in orders:
            ratio = np.where(r == 0.0, float(m), np.sin(m * r) / sin_r)
            out.append(ratio * alt if m % 2 == 0 else ratio)
    return out


def cheb_u(k, x):
    """Second-kind Chebyshev polynomial U_k on [-1, 1], as R_{k+1}(arccos x).

    The ratio is dirichlet's, so at x = +-1 it takes its limit
    (k+1) * (+-1)^k.
    """
    k = check_degree(k)
    (vals,) = dirichlet((k + 1,), np.arccos(_unit(x)))
    return float_if_scalar(vals)


def cheb_t_norm(k, x):
    """T_k scaled to unit norm for the normalized Chebyshev weight.

    Returns 1 for k = 0 and sqrt(2) * T_k(x) for k >= 1.
    """
    t = cheb_t(k, x)
    return t if k == 0 else float_if_scalar(SQRT2 * t)


def cos_table(orders, theta):
    """Table cos(k * theta) for each k in orders, shape (len(orders),) + shape(theta).

    Every Chebyshev table of the package is built here, in theta's float type.
    There is no degree check: callers validate their orders.
    """
    return np.cos(np.multiply.outer(orders, theta))


def t_norm_values(kmax, x, dtype=float):
    """Table of the orthonormal polynomials for k = 0..kmax at x, in dtype.

    Shape (kmax+1,) + shape(x): row 0 is 1 and row k >= 1 is
    sqrt(2) cos(k arccos x).
    """
    kmax = check_degree(kmax)
    out = cos_table(np.arange(kmax + 1), np.arccos(_unit(x, dtype=dtype)))
    out[1:] *= np.sqrt(out.dtype.type(2))
    return out


def cospi_frac(num, den, dtype=float):
    """cos(pi * num / den) for integer num, with exact phase reduction.

    Reducing num mod 2*den first keeps lattice values such as cos(k*pi/n)
    within 3.3e-16 even for large products k*a; near zeros that is up to 42
    ulp relative.  The reduced phases r lie in 0..den, so every entry is read
    from one table of the den + 1 cosines cos(pi * r / den): a call takes
    den + 1 cosines whatever the size of num.  The angle and cosine are formed
    in dtype (default float64).
    """
    ftype = np.dtype(dtype).type
    num = np.asarray(num, dtype=np.int64)
    r = np.remainder(num, 2 * den)
    r = np.minimum(r, 2 * den - r)
    return np.cos(ftype(_PI_DIGITS) * (np.arange(den + 1) / ftype(den)))[r]


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


def gauss_chebyshev_axis(m, dtype=float):
    """Quadrature nodes cos((2i-1)pi/(2m)) in dtype and their odd angle numerators."""
    m = check_int(m, "quadrature size")
    if m < 1:
        raise ValueError("quadrature size must be positive")
    nums = 2 * np.arange(1, m + 1) - 1
    return cospi_frac(nums, 2 * m, dtype), nums


class ChebTables:
    """T_k(x_d) for k = 0..n+1, one table per coordinate of a point set.

    The one builder of Chebyshev tables at points of the square: the basis
    rows (basis_vector), the ideal-basis rows (ideal) and the direct kernel
    sum (kernel.direct_from_tables) read them.  Order n+1 passes the public
    degree cap at n = MAX_DEGREE, so the tables come from cos_table, not
    t_norm_values, which checks the degree and holds the orthonormal scaling.
    x holds the checked coordinates.  Each table has its own coordinate's
    shape with leading unit axes up to ndim axes (at least the other
    coordinate's number), so on broadcasting axes such as a tensor grid's
    (K, 1) and (1, E) the tables stay one axis long and the products of the
    two broadcast.  The basis rows basis(m) are formed on their first call
    and kept, so the checks that read one table set share them.
    """

    def __init__(self, n, x, ndim=0):
        self.n, self.x = n, check_square(*x)
        ndim = max(ndim, *(c.ndim for c in self.x))
        self.t1, self.t2 = (
            cos_table(np.arange(n + 2), np.arccos(c.reshape((1,) * (ndim - c.ndim) + c.shape)))
            for c in self.x
        )
        self._kept = {}

    @classmethod
    def pair(cls, n, x, y):
        """Table sets of the two sides of point pairs, padded to the pair's
        number of axes, so that the pairs broadcast as the coordinates do."""
        ndim = max(np.ndim(c) for c in (*x, *y))
        return cls(n, x, ndim), cls(n, y, ndim)

    def basis(self, m):
        """Degree-m orthonormal product-basis row (m <= n+1), as basis_vector."""
        if m not in self._kept:
            p1, p2 = self.t1[: m + 1].copy(), self.t2[: m + 1].copy()
            p1[1:] *= SQRT2
            p2[1:] *= SQRT2
            self._kept[m] = p1[::-1] * p2
        return self._kept[m]


def basis_vector(n, point):
    """Degree-n orthonormal product-basis row at a point of the square.

    Entry j equals cheb_t_norm(n-j, x1) * cheb_t_norm(j, x2).  Both
    coordinates may be arrays, in which case the result has shape
    (n+1,) + broadcast shape and each column is the row at one point.
    """
    n = check_degree(n)
    return ChebTables(n, point).basis(n)


def product_series_at(coeffs, x1, x2):
    """Evaluate sum_ab coeffs[a,b] * Tnorm_a(x1) * Tnorm_b(x2) pointwise."""
    dtype = np.result_type(coeffs.dtype, float)
    t1 = t_norm_values(coeffs.shape[0] - 1, x1, dtype)
    t2 = t_norm_values(coeffs.shape[1] - 1, x2, dtype)
    return np.einsum("ab,a...,b...->...", coeffs, t1, t2)


def series_on_tables(x, b1, b2):
    """b1[:r].T @ x @ b2[:c], with (r, c) the last two axes of x.

    The one two-sided product of the package: every coefficient projection,
    tensor series and tensor quadrature is a matrix x (or a batch of them on
    leading axes) between two tables, of which it reads the leading rows.  A
    series of coefficients x reads Tnorm_a and Tnorm_b tables of two axes;
    a projection reads the transposed tables.  2-D operands go through
    np.dot, batched ones through @.  For np.longdouble, which has no BLAS,
    @ runs numpy's generic matmul loop, which stores each entry's partial sum
    to memory after every term; np.dot sums the same terms in the same order
    with the accumulator in a register, so the result is bitwise equal and
    about 3x faster ((200 x 49)(49 x 200): 1.6 ms against 5.1 ms).  float64
    goes to BLAS either way.
    """
    r, c = x.shape[-2:]
    if x.ndim == 2:
        return np.dot(np.dot(b1[:r].T, x), b2[:c])
    return b1[:r].T @ x @ b2[:c]


def product_series_grid(coeffs, axis1, axis2):
    """Evaluate the series on a tensor grid; out[i, j] pairs axis1[i] with axis2[j].

    Leading axes of coeffs are a batch.  The tables are built in the
    coefficients' float type, so float64 and longdouble keep their precision.
    """
    dtype = np.result_type(coeffs.dtype, float)
    b1 = t_norm_values(coeffs.shape[-2] - 1, axis1, dtype)
    b2 = t_norm_values(coeffs.shape[-1] - 1, axis2, dtype)
    return series_on_tables(coeffs, b1, b2)


def total_degree_mask(n):
    """(n+1, n+1) boolean mask of the coefficients [a, b] of Pi_n: a + b <= n."""
    ks = np.arange(n + 1)
    return ks[:, None] + ks[None, :] <= n
