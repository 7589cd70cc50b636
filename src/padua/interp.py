"""The Lagrange interpolation operator: sampling, evaluation, Lebesgue estimates.

Values move between set order and the node lattice only through the set's
sub-grid views (points.PaduaSet.sub_grid_views), with no per-node index
array: sample writes f's blocks into the views of its result,
lagrange_matrix writes each block of values into the views of its rows,
and to_coefficients takes the lattice of its samples from
PaduaSet.to_lattice and divides it by the node values.  Interpolants on a
tensor grid are the Chebyshev coefficients of to_coefficients evaluated as a
tensor series.

Fundamental polynomials have one closed form: the node factors of
_node_factors, their cumulative b-sum _tail_sums, and a matrix product over
a.  On one tensor grid _grid_blocks builds one b-sum per node sub-grid over
the grid's second axis and takes one product per chunk of whole lattice rows
of nodes: lebesgue_constant runs it on the half of an evaluation grid that
the node set's reflection maps onto the rest, verify's delta check on each
node sub-grid in turn.  At scattered points _lagrange_blocks builds one per
block of points, O(n^3) a point in blocks of bounded size: lagrange_matrix
writes them in set order, lebesgue_function sums their absolute values as
they come, and fundamental_poly runs it on a one-node grid.
"""

from dataclasses import dataclass

import numpy as np

from . import cheb, kernel, points
from .cheb import (
    check_int,
    check_square,
    gauss_chebyshev_axis,
    product_series_at,
    series_on_tables,
    t_norm_lattice,
    t_norm_values,
    total_degree_mask,
)
from .functions import SampleEvaluationError, as_real  # noqa: F401 (re-exported)

_GRID_KINDS = ("uniform", "chebyshev")

# Largest number of grid points per axis.  A grid has m * m points: at
# m = 1000 that is 1e6 values, 8 MB per float64 array (16 MB in 80-bit).
# `interp` keeps five such columns (x1, x2, value, reference, abs_error) and
# writes 1e6 CSV rows, about 100 MB at 17 digits.
MAX_GRID = 1000

# Largest number of float64 table values lebesgue_constant may hold, as
# counted by lebesgue_entries(n, m).  The run holds one node sub-grid's
# _tail_sums table, (n+1) E m values over its E <= n/2 + 2 etas (m halved
# for odd n), one product of lattice rows with the half grid, ceil(m/2) m E
# values a row (more rows while under _BLOCK_ENTRIES), and ceil(m/2) m sums:
# tracemalloc peaks read 0.47, 0.44, 0.36, 0.39 and 0.49 of 8 lebesgue_entries
# at (n, m) = (32, 200), (64, 200), (65, 200), (128, 100) and (32, 1000), and
# 2.24 at (16, 41), where rows share a product.  2**25 values are 268 MB: the
# growth study's n = 256 at m = 200 counts 25.1e6, n = 32 at m = 1000 20.7e6,
# and the largest allowed degree is 301 at m = 200 and 53 at m = 1000.
# `lebesgue` and `converge` refuse larger runs before any table is built.
MAX_LEBESGUE_ENTRIES = 1 << 25


# Largest number of float64 values in one temporary of _lagrange_blocks: the
# point tables of a block of points, its cumulative table and its product
# with the k factors.  2**17 values are 1 MB, small next to an N x N Lagrange
# matrix (the peak at n = 60 over the nodes is 1.1 times the 28.6 MB result).
# A point's (n+1) E values over a grid of E etas, if more, are split over eta.
# It also bounds each block of _grid_blocks, or one lattice row if more.
_BLOCK_ENTRIES = 1 << 17


def lebesgue_entries(n, m):
    """Float64 values that MAX_LEBESGUE_ENTRIES caps at degree n on an m-point grid."""
    kept = n // 2 + 1
    return (n + 1) * (n + 2) * m + kept * m * (n + 1 + m) + 2 * m * m


def check_lebesgue_size(n, grid):
    """ValueError when lebesgue_constant(n, grid) would exceed MAX_LEBESGUE_ENTRIES."""
    entries = lebesgue_entries(n, grid.m)
    if entries > MAX_LEBESGUE_ENTRIES:
        raise ValueError(
            f"Lebesgue constant of degree {n} on a grid of {grid.m} points per "
            f"axis needs {entries} table values; at most {MAX_LEBESGUE_ENTRIES} "
            f"are allowed"
        )


@dataclass(frozen=True)
class EvalGrid:
    """Tensor evaluation grid on the square: m points per axis, 2 <= m <= MAX_GRID.

    kind "uniform" uses equally spaced points including the corners; kind
    "chebyshev" uses Chebyshev-Gauss points, which cluster near the boundary
    where the Lebesgue function peaks.
    """

    m: int
    kind: str = "uniform"

    def __post_init__(self):
        object.__setattr__(self, "m", check_int(self.m, "grid size m"))
        if self.m < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.m > MAX_GRID:
            raise ValueError(
                f"grid of {self.m} points per axis: at most {MAX_GRID} are allowed"
            )
        if self.kind not in _GRID_KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}; expected {_GRID_KINDS}")

    def axis(self, dtype=float):
        """The 1-D node positions, ascending, in dtype."""
        if self.kind == "uniform":
            ftype = np.dtype(dtype).type
            return np.linspace(ftype(-1), ftype(1), self.m)
        return np.sort(gauss_chebyshev_axis(self.m, dtype)[0])

    def points(self):
        """All m*m tensor nodes as an (m*m, 2) array, row-major in the axes."""
        ax = self.axis()
        return np.column_stack(
            [np.repeat(ax, self.m), np.tile(ax, self.m)]
        )


def sample(pset, f, dtype=float):
    """f at every node, in set order, as an array in dtype.

    f is called by points._sub_grid_values, once per block of whole lattice
    rows of a node sub-grid, on the lattice axes in dtype (in float64
    bitwise the columns of pset.coords); a callable that takes no arrays is
    visited node by node, and a failure raises SampleEvaluationError naming
    the first failing node in sub-grid order, even k first.  Each block is
    written into the rows of its sub-grid's view of the result
    (PaduaSet.sub_grid_views), with no lattice and no gather.
    """
    out = np.empty(len(pset), dtype)
    views = pset.sub_grid_views(out)
    for view, (_, _, blocks) in zip(views, points._sub_grid_values(pset, f, dtype)):
        for rows, vals in blocks:
            view[rows] = vals
    return out


def _lagrange_blocks(n, x, grids):
    """Fundamental-polynomial values at the points x = (x1, x2), in blocks.

    Returns the broadcast shape of x and a generator of (rows, s, cols, lat)
    over the tensor grids (ks, etas) = grids[s] of nodes: lat[i, p, c] is
    the polynomial of node (ks[i], etas[cols][c]) at flat point rows[p], a
    fresh array.  Per block of points and grid: _tail_sums of the Tnorm_b(x2)
    and the grid's eta factors, times Tnorm_a(x1), then one matrix product
    over a with its k factors (_node_factors).  Blocks are sized by the
    grids' eta counts, no temporary over _BLOCK_ENTRIES values; O(n^3) a point.
    """
    x1, x2 = np.broadcast_arrays(*check_square(*x))
    shape, x1, x2 = x1.shape, np.ravel(x1), np.ravel(x2)
    tables = [_node_factors(n, ks, etas) for ks, etas in grids]
    chunk = min(max(etas.size for _, etas in grids), max(1, _BLOCK_ENTRIES // (n + 1)))
    block = max(1, _BLOCK_ENTRIES // ((n + 1) * chunk))

    def blocks():  # the tables are built at the call, before a caller's result
        for start in range(0, x1.size, block):
            rows = slice(start, start + block)
            u, v = t_norm_values(n, x1[rows]), t_norm_values(n, x2[rows])
            for s, (left, right) in enumerate(tables):
                for first in range(0, right.shape[1], chunk):
                    cols = slice(first, first + chunk)
                    y = _tail_sums(v, right[:, cols])
                    y *= u[:, :, None]
                    lat = left.T @ y.reshape(n + 1, -1)
                    yield rows, s, cols, lat.reshape(left.shape[1], u.shape[1], -1)
    return shape, blocks()


def lagrange_matrix(pset, x1, x2):
    """Matrix of fundamental-polynomial values, shape (npoints, nnodes).

    x1 and x2 broadcast together; row i is the point at flat index i of the
    broadcast shape in C order.  Each block of _lagrange_blocks on the two
    sub-grids is written into its sub-grid's view of the result
    (PaduaSet.sub_grid_views).
    """
    shape, blocks = _lagrange_blocks(pset.degree, (x1, x2), pset.sub_grids())
    out = np.empty((np.prod(shape, dtype=int), len(pset)))
    views = pset.sub_grid_views(out)
    for rows, s, cols, lat in blocks:
        views[s][rows, :, cols] = lat.transpose(1, 0, 2)
    return out


def fundamental_poly(pset, index, x):
    """Fundamental Lagrange polynomial of node (k, j) at the points x = (x1, x2).

    1 at the node, 0 at the others: _lagrange_blocks on the grid ([k], [eta]),
    O(n) per point, reading no per-node array.  The result has the broadcast
    shape of x, or is a float for a single point.
    """
    node = pset.lattice_index([pset.position(index)])
    shape, blocks = _lagrange_blocks(pset.degree, x, [node])
    out = np.empty(shape)
    for rows, _, _, lat in blocks:
        out.reshape(-1)[rows] = lat[0, :, 0]
    return cheb.float_if_scalar(out)


def lattice_tables(n, dtype=float):
    """The orthonormal tables of the two node axes, in dtype.

    l1[a, k] = Tnorm_a(cos(k pi/n)) for k = 0..n and
    l2[b, eta] = Tnorm_b(cos(eta pi/(n+1))) for eta = 0..n+1, a, b = 0..n.
    The node set is the odd-sum part k + eta odd of this lattice.
    """
    return (t_norm_lattice(n, np.arange(n + 1), n, dtype),
            t_norm_lattice(n, np.arange(n + 2), n + 1, dtype))


def _node_factors(n, ks, etas):
    """(T1[:, ks] / A[ks], T2[:, etas] / B[etas]): the node factors of the
    fundamental polynomials' closed form.

    T1, T2 are the lattice_tables of the two node axes and A[k] B[eta] =
    K*(nu, nu) splits the node values per axis.  Node (k, eta) has the
    coefficients T1[a, k] T2[b, eta] / (A[k] B[eta]) for a + b <= n, the
    (n, 0) term halved (Padua2D's expansion of the compact formula).
    """
    a_fac, b_fac = kernel.node_star_axes(n)
    return t_norm_lattice(n, ks, n) / a_fac[ks], t_norm_lattice(n, etas, n + 1) / b_fac[etas]


def _tail_sums(left, right):
    """y[a] = sum_{b <= n-a} outer(left[b], right[b]) for a = 0..n, y[n] halved.

    left and right are 2-D tables of n+1 rows.  With left the Tnorm_b of the
    second coordinates and right the eta factors of _node_factors this is
    the b-sum of the closed form, the halved y[n] its halved (n, 0) term:
    node (k, eta) is sum_a Tnorm_a(x1) T1[a, k] / A[k] y[a, :, eta].  The
    outer products of the reversed rows are accumulated in place from y[n].
    """
    n = left.shape[0] - 1
    y = np.multiply(left[::-1, :, None], right[::-1, None, :], order="C")
    for a in range(n - 1, -1, -1):
        y[a] += y[a + 1]
    y[n] *= 0.5
    return y


def _grid_blocks(pset, p1, p2):
    """Fundamental-polynomial values on one tensor grid, in chunks of node rows.

    The grid is given by its axis tables p1 and p2: Tnorm_a of the first and
    Tnorm_b of the second coordinates, a, b = 0..n.  Yields (s, first,
    block): block[r, i, j, c] is the polynomial of node (ks[first + r],
    etas[c]) of the node sub-grid s of pset.sub_grids() at grid point (i, j),
    a fresh array.  Per sub-grid one _tail_sums table over p2, so only one
    sub-grid's table is alive at a time; per chunk of whole lattice rows one
    matrix product over a, whose left rows are w[:, k] * p1[:, i] with w the
    k factors of _node_factors.  A block holds at most _BLOCK_ENTRIES values,
    or one lattice row if that is more.
    """
    n = pset.degree
    w, r = _node_factors(n, np.arange(n + 1), np.arange(n + 2))
    for s, (ks, etas) in enumerate(pset.sub_grids()):
        y, wk = _tail_sums(p2, r[:, etas]).reshape(n + 1, -1), w[:, ks]
        chunk = max(1, _BLOCK_ENTRIES // (p1.shape[1] * y.shape[1]))
        for first in range(0, ks.size, chunk):
            left = (wk[:, first:first + chunk, None] * p1[:, None, :]).reshape(n + 1, -1)
            # no name holds a block, so a caller's del frees it
            yield s, first, (left.T @ y).reshape(-1, p1.shape[1], p2.shape[1], etas.size)
        del y  # free this grid's table before the next one is built


def _check_samples(pset, samples):
    """Finite real node values (last axis) as float64, or np.longdouble if given so."""
    samples = np.asarray(samples)
    samples = as_real(samples, np.longdouble if samples.dtype == np.longdouble else float)
    if samples.shape[-1:] != (len(pset),):
        raise ValueError(
            f"samples of shape {samples.shape} need length {len(pset)} on the last axis"
        )
    bad = np.argwhere(~np.isfinite(samples))
    if bad.size:
        k, j = pset.node_index(bad[0][-1])
        raise ValueError(
            f"{len(bad)} non-finite sample(s), first {samples[tuple(bad[0])]} "
            f"at node k={k}, j={j}"
        )
    return samples


def interpolate(pset, samples, x):
    """Interpolant value at one point of the square."""
    coeffs = to_coefficients(pset, samples)
    return float(product_series_at(coeffs, x[0], x[1]))


def interpolate_grid(pset, samples, grid):
    """Interpolant values on a tensor grid; out[i, j] is at (axis[i], axis[j])."""
    ax = grid.axis()
    # looked up on the module, so that a wrapper installed there sees the call
    return cheb.product_series_grid(to_coefficients(pset, samples), ax, ax)


def lebesgue_function(pset, x):
    """Sum of absolute fundamental-polynomial values at the points x = (x1, x2).

    The coordinates broadcast; the result has their broadcast shape, or is a
    float for one point.  It sums the blocks of _lagrange_blocks as they come.
    """
    shape, blocks = _lagrange_blocks(pset.degree, x, pset.sub_grids())
    out = np.zeros(shape)
    for rows, _, _, lat in blocks:
        out.reshape(-1)[rows] += np.abs(lat, out=lat).sum(axis=(0, 2))
    return cheb.float_if_scalar(out)


def lebesgue_constant(pset, grid):
    """Maximum of the Lebesgue function over the grid.

    A grid maximum is an estimate from below of the true supremum; report it
    together with the grid spec.  The Lebesgue function is invariant under
    the node set's reflection, x1 -> -x1 for even n, x2 -> -x2 for odd n,
    and the grid axes are mirror-symmetric to rounding, so the maximum is
    taken on the first ceil(m/2) points of the reflected axis: there each
    lattice row's absolute _grid_blocks values are summed over its nodes by
    one matrix-vector product.  Runs over MAX_LEBESGUE_ENTRIES table values
    raise ValueError first.
    """
    n, m = pset.degree, grid.m
    check_lebesgue_size(n, grid)
    p = t_norm_values(n, grid.axis())
    half = p[:, :(m + 1) // 2]
    total = np.zeros(half.shape[1] * m)
    for _, _, block in _grid_blocks(pset, *((half, p) if n % 2 == 0 else (p, half))):
        np.abs(block, out=block)
        ones = np.ones(block.shape[-1])
        for r in range(len(block)):
            total += block[r].reshape(total.size, -1) @ ones
        del block  # free this chunk's product before the next one is formed
    return float(total.max())


def to_coefficients(pset, samples):
    """Expand the interpolant in the orthonormal product basis.

    Returns the (n+1) x (n+1) coefficient matrix C with C[a, b] multiplying
    Tnorm_a(x1) * Tnorm_b(x2), zero for a + b > n.  This is the node-side
    expansion of the modified kernel: a projection of the node-weighted
    samples on the angle lattice, with the pure-x1 top-degree coefficient
    halved.  The samples' (n+1) x (n+2) lattice (PaduaSet.to_lattice, zero
    off the node set) is divided in place by the node values A[k] B[eta],
    the outer product of the per-axis factors of kernel.node_star_axes, into
    G[k, eta], so the projection is the matrix product T1 G T2^T of two
    lattice tables (cheb.series_on_tables: np.dot for one sample vector, @
    for a batch).
    C has the samples' float type: float64, or np.longdouble for longdouble
    samples; leading axes of samples are a batch.  The test suite checks it
    against the direct kernel sum.
    """
    samples = _check_samples(pset, samples)
    n = pset.degree
    lattice = pset.to_lattice(samples)
    lattice /= np.multiply.outer(*kernel.node_star_axes(n))
    t1, t2 = lattice_tables(n, samples.dtype)
    coeffs = series_on_tables(lattice, t1.T, t2.T)
    coeffs[..., ~total_degree_mask(n)] = 0.0
    coeffs[..., n, 0] *= 0.5
    return coeffs
