"""The Lagrange interpolation operator: sampling, evaluation, Lebesgue estimates.

Values on a tensor grid, of interpolants and of the Lebesgue function, come
from one route: the Chebyshev coefficients of to_coefficients, evaluated as a
tensor series.  Lagrange values at scattered points (lagrange_matrix, the
Lebesgue function) come from the compact modified kernel.
"""

from dataclasses import dataclass

import numpy as np

from . import kernel
from .cheb import cospi_frac, product_series_at, product_series_grid, t_norm_lattice

_GRID_KINDS = ("uniform", "chebyshev")


class SampleEvaluationError(RuntimeError):
    """A sampled function failed to evaluate; the message carries the node."""


@dataclass(frozen=True)
class EvalGrid:
    """Tensor evaluation grid on the square: m points per axis.

    kind "uniform" uses equally spaced points including the corners; kind
    "chebyshev" uses Chebyshev-Gauss points, which cluster near the boundary
    where the Lebesgue function peaks.
    """

    m: int
    kind: str = "uniform"

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.kind not in _GRID_KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}; expected {_GRID_KINDS}")

    def axis(self, dtype=float):
        """The 1-D node positions, ascending, in dtype."""
        if self.kind == "uniform":
            ftype = np.dtype(dtype).type
            return np.linspace(ftype(-1), ftype(1), self.m)
        nums = 2 * np.arange(1, self.m + 1) - 1
        return np.sort(cospi_frac(nums, 2 * self.m, dtype))

    def points(self):
        """All m*m tensor nodes as an (m*m, 2) array, row-major in the axes."""
        ax = self.axis()
        return np.column_stack(
            [np.repeat(ax, self.m), np.tile(ax, self.m)]
        )


def sample(pset, f):
    """Evaluate f at every node, in set order.

    Vectorized callables are used directly; otherwise the nodes are visited
    one by one, and a failure is reported with the node that caused it.
    """
    try:
        vals = np.asarray(f(pset.x1, pset.x2), dtype=float)
        if vals.shape == pset.x1.shape:
            return vals
    except SampleEvaluationError:
        raise
    except Exception:
        pass
    out = np.empty(len(pset))
    for i, p in enumerate(pset.points):
        try:
            out[i] = float(f(p.x1, p.x2))
        except Exception as exc:
            raise SampleEvaluationError(
                f"function evaluation failed at node k={p.k}, j={p.j}, "
                f"x=({p.x1!r}, {p.x2!r})"
            ) from exc
    return out


def lagrange_matrix(pset, x1, x2):
    """Matrix of fundamental-polynomial values, shape (npoints, nnodes)."""
    n = pset.degree
    sx = kernel.point_tables(n, np.atleast_1d(np.asarray(x1, dtype=float)),
                             np.atleast_1d(np.asarray(x2, dtype=float)))
    mat = kernel.star_matrix(n, sx, kernel.node_tables(n, pset))
    mat /= kernel.node_star_values(pset)
    return mat


def _check_samples(pset, samples):
    """Finite node values (last axis) as float64, or np.longdouble if given so."""
    samples = np.asarray(samples)
    dtype = np.longdouble if samples.dtype == np.longdouble else float
    samples = samples.astype(dtype, copy=False)
    if samples.shape[-1:] != (len(pset),):
        raise ValueError(
            f"samples of shape {samples.shape} need length {len(pset)} on the last axis"
        )
    bad = np.argwhere(~np.isfinite(samples))
    if bad.size:
        i = bad[0][-1]
        raise ValueError(
            f"{len(bad)} non-finite sample(s), first {samples[tuple(bad[0])]} "
            f"at node k={pset.k_num[i]}, j={pset.j_num[i]}"
        )
    return samples


def interpolate(pset, samples, x):
    """Interpolant value at one point of the square."""
    coeffs = to_coefficients(pset, samples)
    return float(product_series_at(coeffs, x[0], x[1]))


def interpolate_grid(pset, samples, grid):
    """Interpolant values on a tensor grid; out[i, j] is at (axis[i], axis[j])."""
    ax = grid.axis()
    return product_series_grid(to_coefficients(pset, samples), ax, ax)


def lebesgue_function(pset, x):
    """Sum of absolute fundamental-polynomial values at a point."""
    row = lagrange_matrix(pset, x[0], x[1])
    return float(np.abs(row).sum(axis=-1)[0])


def lebesgue_constant(pset, grid):
    """Maximum of the Lebesgue function over the grid.

    A grid maximum is an estimate from below of the true supremum; report it
    together with the grid spec.  Fundamental polynomials are interpolants of
    unit samples, taken as one batch per lattice row k of nodes.
    """
    ax = grid.axis()
    total = np.zeros((grid.m, grid.m))
    for k in range(pset.degree + 1):
        rows = np.flatnonzero(pset.k_num == k)
        units = np.zeros((rows.size, len(pset)))
        units[np.arange(rows.size), rows] = 1.0
        values = product_series_grid(to_coefficients(pset, units), ax, ax)
        total += np.abs(values).sum(axis=0)
    return float(total.max())


def to_coefficients(pset, samples):
    """Expand the interpolant in the orthonormal product basis.

    Returns the (n+1) x (n+1) coefficient matrix C with C[a, b] multiplying
    Tnorm_a(x1) * Tnorm_b(x2), zero for a + b > n.  This is the node-side
    expansion of the modified kernel: a projection of the node-weighted
    samples on the angle lattice, with the pure-x1 top-degree coefficient
    halved.  The samples sit in the (n+1) x (n+2) lattice matrix
    G[k, m] (zero off the node set), so the projection is the matrix product
    T1 G T2^T of two lattice tables.  C has the samples' float type: float64,
    or np.longdouble for longdouble samples; leading axes of samples are a
    batch.  The test suite checks it against the direct kernel sum.
    """
    samples = _check_samples(pset, samples)
    n = pset.degree
    lattice = np.zeros(samples.shape[:-1] + (n + 1, n + 2), dtype=samples.dtype)
    lattice[..., pset.k_num, pset.eta_num] = samples / kernel.node_star_values(pset)
    t1 = t_norm_lattice(n, np.arange(n + 1), n, samples.dtype)
    t2 = t_norm_lattice(n, np.arange(n + 2), n + 1, samples.dtype)
    coeffs = t1 @ lattice @ t2.T
    ks = np.arange(n + 1)
    coeffs[..., ks[:, None] + ks[None, :] > n] = 0.0
    coeffs[..., n, 0] *= 0.5
    return coeffs
