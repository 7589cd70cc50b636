"""Weighted L^p norms, Fourier sums, Marcinkiewicz ratios, convergence studies.

The measurement instrument throughout is tensor Gauss-Chebyshev quadrature,
kept separate from the node-based operators under test: per axis it is exact
for polynomials of degree below twice the node count, which gives a clean
error model even for |f|^p integrands.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import interp, points
from .cheb import (
    check_degree,
    cospi_frac,
    product_series_at,
    product_series_grid,
    t_norm_lattice,
)
from .functions import TestFunction


def gauss_chebyshev_axis(m, dtype=float):
    """Quadrature nodes cos((2i-1)pi/(2m)) in dtype and their odd angle numerators."""
    if m < 1:
        raise ValueError("quadrature size must be positive")
    nums = 2 * np.arange(1, m + 1) - 1
    return cospi_frac(nums, 2 * m, dtype), nums


def _eval_on(f, x1, x2, dtype=float):
    shape = np.broadcast_shapes(np.shape(x1), np.shape(x2))
    try:
        vals = np.asarray(f(x1, x2), dtype=dtype)
        if vals.shape == shape:
            return vals
    except Exception:
        pass
    vec = np.vectorize(lambda a, b: f(a, b), otypes=[dtype])
    return vec(np.broadcast_to(x1, shape), np.broadcast_to(x2, shape))


def tensor_quadrature(f, m):
    """Integral of f against the normalized Chebyshev weight, m nodes per axis."""
    nodes, _ = gauss_chebyshev_axis(m)
    vals = _eval_on(f, nodes[:, None], nodes[None, :])
    return float(np.mean(vals))


def _as_p(p):
    """Norm exponent from a number or string: p > 0, or +inf ("inf")."""
    p = float(p)
    if not p > 0:
        raise ValueError(f"p must be positive or inf, got {p}")
    return p


def _p_mean(v, p):
    """(mean |v|^p)^(1/p) in the float type of v; the max of |v| for p = inf."""
    v = np.abs(v)
    if math.isinf(p):
        return v.max()
    return np.mean(v**p) ** (1 / v.dtype.type(p))


def lp_norm(f, p, m=200):
    """Weighted L^p norm of f via tensor Gauss-Chebyshev quadrature.

    Accepts any p > 0 (for p < 1 this is the usual quasi-norm expression),
    or p = inf, which gives the maximum of |f| over the quadrature nodes.
    m is the per-axis node count; the rule is exact per axis for polynomial
    integrands of degree < 2m.
    """
    p = _as_p(p)
    if m < 16:
        raise ValueError("quadrature size m must be at least 16")
    nodes, _ = gauss_chebyshev_axis(m)
    return float(_p_mean(_eval_on(f, nodes[:, None], nodes[None, :]), p))


def fourier_coefficients(n, f, m=None):
    """Orthonormal-basis coefficients of f up to total degree n.

    Computed by tensor quadrature with m nodes per axis (default 4n + 16);
    exact whenever f is a polynomial with per-axis degree < 2m - n.
    Returns the (n+1) x (n+1) matrix, zero above the anti-diagonal.
    """
    n = check_degree(n)
    if m is None:
        m = 4 * n + 16
    if m < n + 1:
        raise ValueError("quadrature size too small for the requested degree")
    nodes, nums = gauss_chebyshev_axis(m)
    vals = _eval_on(f, nodes[:, None], nodes[None, :])
    basis = t_norm_lattice(n, nums, 2 * m)
    coeffs = basis @ vals @ basis.T / float(m * m)
    ks = np.arange(n + 1)
    coeffs[ks[:, None] + ks[None, :] > n] = 0.0
    return coeffs


def fourier_partial_sum(n, f, x, m=None):
    """Truncated orthonormal expansion of f, evaluated at the point x."""
    coeffs = fourier_coefficients(n, f, m)
    out = product_series_at(coeffs, np.asarray(x[0], dtype=float),
                            np.asarray(x[1], dtype=float))
    return float(out) if np.ndim(out) == 0 else out


def _marcinkiewicz_setup(n, p):
    """Checked degree and p, then the node tables and the quadrature axis."""
    n = check_degree(n, minimum=1)
    p = _as_p(p)
    if math.isinf(p) or p < 1:
        raise ValueError(f"p must be finite and at least 1, got {p}")
    pset = points.generate(n)
    b1 = t_norm_lattice(n, pset.k_num, n)
    b2 = t_norm_lattice(n, pset.eta_num, n + 1)
    qnodes, _ = gauss_chebyshev_axis(max(200, 2 * n + 1))
    return n, p, (b1, b2, qnodes)


def marcinkiewicz_ratio(n, coeffs, p):
    """Discrete-to-continuous p-th power ratio for one polynomial.

    The numerator is the plain node average (1/N) sum |P(node)|^p; the
    denominator is the weighted integral of |P|^p by tensor quadrature.
    """
    n, p, tables = _marcinkiewicz_setup(n, p)
    return _ratio(np.asarray(coeffs, dtype=float), p, *tables)


def _ratio(coeffs, p, node_b1, node_b2, qnodes):
    node_vals = np.einsum("ab,aN,bN->N", coeffs, node_b1, node_b2)
    discrete = np.mean(np.abs(node_vals) ** p)
    quad_vals = product_series_grid(coeffs, qnodes, qnodes)
    continuous = np.mean(np.abs(quad_vals) ** p)
    return float(discrete / continuous)


def marcinkiewicz_trials(n, p, trials, seed=0):
    """Ratios for `trials` random polynomials with iid uniform [-1,1]
    coefficients in the orthonormal basis; reproducible for a given seed."""
    n, p, tables = _marcinkiewicz_setup(n, p)
    if trials < 1:
        raise ValueError("need at least one trial")
    ks = np.arange(n + 1)
    keep = ks[:, None] + ks[None, :] <= n
    rng = np.random.default_rng(seed)
    out = np.empty(trials)
    for t in range(trials):
        coeffs = rng.uniform(-1.0, 1.0, (n + 1, n + 1))
        coeffs[~keep] = 0.0
        out[t] = _ratio(coeffs, p, *tables)
    return out


def marcinkiewicz_ratios(n, p, trials, seed=0):
    """Smallest and largest ratio over the random trials: (min, max)."""
    ratios = marcinkiewicz_trials(n, p, trials, seed=seed)
    return float(ratios.min()), float(ratios.max())


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    cardinality: int
    error_wp: float
    error_uniform: float
    lebesgue_estimate: float
    en_proxy: float


@dataclass(frozen=True)
class ConvergenceReport:
    function: str
    p: float
    grid_m: int
    grid_kind: str
    quad_m: int
    rows: tuple

    def to_dict(self):
        out = asdict(self)
        if math.isinf(self.p):
            out["p"] = "inf"
        out["rows"] = [asdict(r) for r in self.rows]
        return out


@dataclass(frozen=True)
class ErrorMeasurement:
    """An interpolant measured against f; see measure_error."""

    values: np.ndarray
    reference: np.ndarray
    error_uniform: float
    error_wp: float


def measure_error(coeffs, f, p, grid, quad_m):
    """Measure a Chebyshev coefficient series against f.

    Everything runs in the coefficients' float type (float64 or
    np.longdouble).  values and reference are the series and f on the grid,
    and error_uniform is their largest deviation there.  error_wp is the
    weighted L^p error by tensor Gauss-Chebyshev quadrature with quad_m nodes
    per axis, or the uniform error when p = inf.
    """
    p = _as_p(p)
    dtype = np.result_type(coeffs.dtype, float)
    ax = grid.axis(dtype)
    values = product_series_grid(coeffs, ax, ax)
    reference = _eval_on(f, ax[:, None], ax[None, :], dtype)
    error_uniform = float(_p_mean(values - reference, math.inf))
    if math.isinf(p):
        error_wp = error_uniform
    else:
        q, _ = gauss_chebyshev_axis(quad_m, dtype)
        truth = _eval_on(f, q[:, None], q[None, :], dtype)
        error_wp = float(_p_mean(product_series_grid(coeffs, q, q) - truth, p))
    return ErrorMeasurement(values, reference, error_uniform, error_wp)


# Interpolation errors of smooth functions fall under the double-precision
# floor (~3e-15) well before n = 32, where a double instrument can no longer
# resolve whether the error still decreases.  The convergence study therefore
# measures the operator in 80-bit arithmetic: node samples, projection,
# series evaluation and the reference values are all np.longdouble, while
# the operator definition is unchanged.  The test suite checks it against
# the double-precision kernel route on errors large enough for both to see.
# The builtin test functions evaluate in float64, though, so their samples
# and references are rounded to double: their errors floor near 1e-16
# (exp_sum, n = 24: error_wp 2.9e-16), not near the 80-bit epsilon.
_LD = np.longdouble


def convergence_study(f, p, degrees, grid, quad_m=None):
    """Interpolation error study over increasing degrees.

    Per degree n the report row carries the weighted L^p error (by tensor
    quadrature, default node count 4 * max(degrees)), the uniform error on
    the grid, the Lebesgue-constant estimate on the same grid, and en_proxy,
    the uniform deviation of the degree-n interpolant from the degree-2n
    reference interpolant on the grid.  The proxy is a computable stand-in
    for the best uniform approximation error; it is labeled a proxy and
    nothing more.  Error measurement runs in extended precision (see
    measure_error) so that super-geometric convergence stays visible below
    the double floor; for the builtin functions, which evaluate in float64,
    the measured errors floor near 1e-16 instead.
    """
    if not isinstance(f, TestFunction):
        raise TypeError("f must be a TestFunction (see padua.functions)")
    p = _as_p(p)
    degrees = [check_degree(d, minimum=1) for d in degrees]
    if not degrees or any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("degrees must be nonempty and strictly increasing")
    if quad_m is None:
        quad_m = 4 * max(degrees)
    check_degree(2 * max(degrees), minimum=1, what="reference degree")

    gax = grid.axis(_LD)
    fits = {}

    def fit(n):
        """Degree-n node set and 80-bit coefficients, built once per degree."""
        if n not in fits:
            pset = points.generate(n)
            samples = _eval_on(f, cospi_frac(pset.k_num, n, _LD),
                               cospi_frac(pset.eta_num, n + 1, _LD), _LD)
            fits[n] = pset, interp.to_coefficients(pset, samples)
        return fits[n]

    rows = []
    for n in degrees:
        pset, coeffs = fit(n)
        err = measure_error(coeffs, f, p, grid, quad_m)
        ref = product_series_grid(fit(2 * n)[1], gax, gax)
        en_proxy = float(np.max(np.abs(ref - err.values)))
        leb = interp.lebesgue_constant(pset, grid)
        rows.append(
            ConvergenceRow(
                n=n,
                cardinality=len(pset),
                error_wp=err.error_wp,
                error_uniform=err.error_uniform,
                lebesgue_estimate=leb,
                en_proxy=en_proxy,
            )
        )
    return ConvergenceReport(
        function=f.name,
        p=p,
        grid_m=grid.m,
        grid_kind=grid.kind,
        quad_m=quad_m,
        rows=tuple(rows),
    )
