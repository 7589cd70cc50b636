"""Weighted L^p norms, Fourier sums, Marcinkiewicz ratios, convergence studies.

The measurement instrument throughout is tensor Gauss-Chebyshev quadrature,
kept separate from the node-based operators under test: per axis it is exact
for polynomials of degree below twice the node count, which gives a clean
error model even for |f|^p integrands.
"""

import math
from dataclasses import dataclass

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


def gauss_chebyshev_axis(m):
    """Quadrature nodes cos((2i-1)pi/(2m)) and their odd angle numerators."""
    if m < 1:
        raise ValueError("quadrature size must be positive")
    nums = 2 * np.arange(1, m + 1) - 1
    return cospi_frac(nums, 2 * m), nums


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


def lp_norm(f, p, m=200):
    """Weighted L^p norm of f via tensor Gauss-Chebyshev quadrature.

    Accepts any p > 0 (for p < 1 this is the usual quasi-norm expression).
    m is the per-axis node count; the rule is exact per axis for polynomial
    integrands of degree < 2m.
    """
    p = float(p)
    if not p > 0:
        raise ValueError("p must be positive")
    if m < 16:
        raise ValueError("quadrature size m must be at least 16")
    nodes, _ = gauss_chebyshev_axis(m)
    vals = _eval_on(f, nodes[:, None], nodes[None, :])
    return float(np.mean(np.abs(vals) ** p) ** (1.0 / p))


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


def marcinkiewicz_ratio(n, coeffs, p, quad_m=None):
    """Discrete-to-continuous p-th power ratio for one polynomial.

    The numerator is the plain node average (1/N) sum |P(node)|^p; the
    denominator is the weighted integral of |P|^p by tensor quadrature.
    """
    n = check_degree(n, minimum=1)
    p = float(p)
    if p < 1:
        raise ValueError("p must be at least 1")
    pset = points.generate(n)
    b1 = t_norm_lattice(n, pset.k_num, n)
    b2 = t_norm_lattice(n, pset.eta_num, n + 1)
    m = quad_m if quad_m is not None else max(200, 2 * n + 1)
    qnodes, _ = gauss_chebyshev_axis(m)
    return _ratio(np.asarray(coeffs, dtype=float), p, b1, b2, qnodes)


def _ratio(coeffs, p, node_b1, node_b2, qnodes):
    node_vals = np.einsum("ab,aN,bN->N", coeffs, node_b1, node_b2)
    discrete = np.mean(np.abs(node_vals) ** p)
    quad_vals = product_series_grid(coeffs, qnodes, qnodes)
    continuous = np.mean(np.abs(quad_vals) ** p)
    return float(discrete / continuous)


def marcinkiewicz_trials(n, p, trials, seed=0, quad_m=None):
    """Ratios for `trials` random polynomials with iid uniform [-1,1]
    coefficients in the orthonormal basis; reproducible for a given seed."""
    n = check_degree(n, minimum=1)
    p = float(p)
    if p < 1:
        raise ValueError("p must be at least 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    pset = points.generate(n)
    b1 = t_norm_lattice(n, pset.k_num, n)
    b2 = t_norm_lattice(n, pset.eta_num, n + 1)
    m = quad_m if quad_m is not None else max(200, 2 * n + 1)
    qnodes, _ = gauss_chebyshev_axis(m)
    ks = np.arange(n + 1)
    keep = ks[:, None] + ks[None, :] <= n
    rng = np.random.default_rng(seed)
    out = np.empty(trials)
    for t in range(trials):
        coeffs = rng.uniform(-1.0, 1.0, (n + 1, n + 1))
        coeffs[~keep] = 0.0
        out[t] = _ratio(coeffs, p, b1, b2, qnodes)
    return out


def marcinkiewicz_ratios(n, p, trials, seed=0, quad_m=None):
    """Smallest and largest ratio over the random trials: (min, max)."""
    ratios = marcinkiewicz_trials(n, p, trials, seed=seed, quad_m=quad_m)
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
        return {
            "function": self.function,
            "p": "inf" if math.isinf(self.p) else self.p,
            "grid_m": self.grid_m,
            "grid_kind": self.grid_kind,
            "quad_m": self.quad_m,
            "rows": [
                {
                    "n": r.n,
                    "cardinality": r.cardinality,
                    "error_wp": r.error_wp,
                    "error_uniform": r.error_uniform,
                    "lebesgue_estimate": r.lebesgue_estimate,
                    "en_proxy": r.en_proxy,
                }
                for r in self.rows
            ],
        }


def _as_p(p):
    """Norm exponent from a number or string: p > 0, or +inf ("inf")."""
    p = float(p)
    if not p > 0:
        raise ValueError(f"p must be positive or inf, got {p}")
    return p


# Interpolation errors of smooth functions fall under the double-precision
# floor (~3e-15) well before n = 32, where a double instrument can no longer
# resolve whether the error still decreases.  The convergence study therefore
# measures the operator in 80-bit arithmetic: node samples, projection,
# series evaluation and the reference values are all np.longdouble, while
# the operator definition is unchanged.  The test suite checks it against
# the double-precision kernel route on errors large enough for both to see.
_LD = np.longdouble


def convergence_study(f, p, degrees, grid, quad_m=None):
    """Interpolation error study over increasing degrees.

    Per degree n the report row carries the weighted L^p error (by tensor
    quadrature, default node count 4 * max(degrees)), the uniform error on
    the grid, the Lebesgue-constant estimate on the same grid, and en_proxy,
    the uniform deviation of the degree-n interpolant from the degree-2n
    reference interpolant on the grid.  The proxy is a computable stand-in
    for the best uniform approximation error; it is labeled a proxy and
    nothing more.  Error measurement runs in extended precision so that
    super-geometric convergence stays visible below the double floor.
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
    f_grid = _eval_on(f, gax[:, None], gax[None, :], _LD)
    qnums = 2 * np.arange(1, quad_m + 1) - 1
    qnodes = cospi_frac(qnums, 2 * quad_m, _LD)
    f_quad = _eval_on(f, qnodes[:, None], qnodes[None, :], _LD)

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
        vals = product_series_grid(coeffs, gax, gax)
        err_uniform = float(np.max(np.abs(vals - f_grid)))
        if math.isinf(p):
            err_wp = err_uniform
        else:
            diff = product_series_grid(coeffs, qnodes, qnodes) - f_quad
            err_wp = float(np.mean(np.abs(diff) ** p) ** (1.0 / _LD(p)))
        ref = product_series_grid(fit(2 * n)[1], gax, gax)
        en_proxy = float(np.max(np.abs(ref - vals)))
        leb = interp.lebesgue_constant(pset, grid)
        rows.append(
            ConvergenceRow(
                n=n,
                cardinality=len(pset),
                error_wp=err_wp,
                error_uniform=err_uniform,
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
