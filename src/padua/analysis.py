"""Weighted L^p norms, Fourier sums, Marcinkiewicz ratios, convergence studies.

The measurement instrument throughout is tensor Gauss-Chebyshev quadrature,
kept separate from the node-based operators under test: per axis it is exact
for polynomials of degree below twice the node count, which gives a clean
error model even for |f|^p integrands.  measure_error and convergence_study
measure interpolants through one instrument (_Instrument: f on the grid and
on the quadrature grid, one orthonormal table per axis); a study builds it
once for all its degrees.  The Marcinkiewicz ratios read a polynomial at the
nodes as the node entries (PaduaSet.from_lattice) of its values on the angle
lattice.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import cheb, interp, points
from .cheb import (
    check_degree,
    check_int,
    gauss_chebyshev_axis,
    product_series_at,
    series_on_tables,
    t_norm_lattice,
    t_norm_values,
    total_degree_mask,
)
from .functions import TestFunction, as_real, evaluate


# The exponents p of a p-mean, beside inf.  The p-th root multiplies the
# relative rounding error of the mean by 1/p: at p = 1e-3 a float64 p-mean
# of 4000 values was 1.0e-13 off its mpmath value, and at p = 1e-300 the mean
# of the |v|^p rounds to 1 whatever v is.  After _power_scales the largest
# power is at least 2^-(256 + p), so up to MAX_P the mean of MAX_QUAD^2
# powers stays a normal float64 (above 2^-777).  p outside MIN_P..MAX_P is
# refused.
MIN_P, MAX_P = 1e-3, 500


def _as_p(p):
    """Norm exponent from a number or string: MIN_P <= p <= MAX_P, or +inf
    ("inf"); ValueError otherwise."""
    try:
        p = float(p)
    except ValueError:
        raise ValueError(f"p must be positive or inf, got {p!r}") from None
    if not p > 0:
        raise ValueError(f"p must be positive or inf, got {p}")
    if not (MIN_P <= p <= MAX_P or math.isinf(p)):
        raise ValueError(f"p must be inf or from {MIN_P} to {MAX_P}, got {p}")
    return p


def _power_scales(top, p):
    """Powers of two 2^-e, e the binary exponent of each top (a maximum of
    |v|), that bring top into [1/2, 1) where top^p would leave the middle
    quarter of the exponent range of its float type (2^+-256 in float64),
    and 1 elsewhere.

    Scaling by a power of two is exact, so the p-th powers of v times these
    neither overflow nor underflow for p <= MAX_P, and values whose top^p is
    in range keep the bits of their unscaled powers.
    """
    e = np.frexp(top)[1]
    e = np.where(np.abs(e * p) < np.finfo(top.dtype).maxexp // 4, 0, e)
    return np.ldexp(np.ones_like(top), -e)


def _p_mean(v, p):
    """(mean |v|^p)^(1/p) in the float type of v; for p = inf the max of |v|,
    in float64.  The mean is taken of |v| times _power_scales of max |v| and
    the root divided by it, so that no power leaves the float range.

    The max is taken after rounding v to float64, which gives the bits of
    float(max |v|): rounding to nearest is monotone and odd, so it commutes
    with abs and max, NaN stays NaN and values beyond float64's range round
    to inf either way.  An 80-bit difference of two 200 x 200 grids and its
    max |.| take 0.90-0.95 ms in 80-bit, 0.18-0.19 ms with abs and max in
    float64 (min of 15 runs, 2-vCPU x86_64, numpy 2.4).
    """
    if math.isinf(p):
        with np.errstate(over="ignore"):  # the rounding to inf is the result
            return np.abs(np.asarray(v, dtype=float)).max()
    v = np.abs(v)
    scale = _power_scales(v.max(), p)
    v *= scale
    return np.mean(v**p) ** (1 / v.dtype.type(p)) / scale


def lp_norm(f, p, m=200):
    """Weighted L^p norm of f via tensor Gauss-Chebyshev quadrature.

    Accepts MIN_P <= p <= MAX_P (for p < 1 this is the usual quasi-norm
    expression), or p = inf, which gives the maximum of |f| over the
    quadrature nodes.
    m is the per-axis node count; the rule is exact per axis for polynomial
    integrands of degree < 2m.
    """
    p = _as_p(p)
    m = check_int(m, "quadrature size")
    if m < 16:
        raise ValueError("quadrature size m must be at least 16")
    nodes, _ = gauss_chebyshev_axis(m)
    return float(_p_mean(evaluate(f, nodes[:, None], nodes[None, :]), p))


def fourier_coefficients(n, f, m=None):
    """Orthonormal-basis coefficients of f up to total degree n.

    Computed by tensor quadrature with m nodes per axis (default 4n + 16);
    exact whenever f is a polynomial with per-axis degree < 2m - n.
    Returns the (n+1) x (n+1) matrix, zero above the anti-diagonal.
    """
    n = check_degree(n)
    m = 4 * n + 16 if m is None else check_int(m, "quadrature size")
    if m < n + 1:
        raise ValueError("quadrature size too small for the requested degree")
    nodes, nums = gauss_chebyshev_axis(m)
    vals = evaluate(f, nodes[:, None], nodes[None, :])
    basis = t_norm_lattice(n, nums, 2 * m).T
    coeffs = series_on_tables(vals, basis, basis) / float(m * m)
    coeffs[~total_degree_mask(n)] = 0.0
    return coeffs


def fourier_partial_sum(n, f, x, m=None):
    """Truncated orthonormal expansion of f, evaluated at the point x."""
    coeffs = fourier_coefficients(n, f, m)
    out = product_series_at(coeffs, np.asarray(x[0], dtype=float),
                            np.asarray(x[1], dtype=float))
    return cheb.float_if_scalar(out)


# Values per block of Marcinkiewicz trials.  One trial holds, in _ratios, its
# coefficients, the products l1.T @ C and q.T @ C, its lattice and node
# values and its m x m quadrature values (_trial_entries); a block takes as
# many trials as fit in 320,000 values, 2.6 MB of float64, which keeps the
# process's peak RSS at the level of the one-trial-at-a-time loop (16 trials
# of 200 x 200 quadrature values raised it by 5.8 MB).  That is 7 trials at
# n = 8 and 6 at n = 32 on the 200-node axis, and 52 at n = 32 on the
# 33-node axis of p = 2.  At least one trial runs per block.
_BLOCK_ENTRIES = 320_000


def _trial_entries(n, m):
    """Values one trial holds in _ratios at degree n on an m-node quadrature axis."""
    lattice = (n + 1) * (n + 2)
    return 2 * (n + 1) ** 2 + lattice + lattice // 2 + m * (n + 1) + m * m


# Largest degree of marcinkiewicz_ratio and marcinkiewicz_trials.  The
# quadrature axis has m = max(200, 2n + 1) nodes, or pn/2 + 1 when that is
# fewer and p is an even integer (see _marcinkiewicz_setup).  At n = 500 a
# block holds one trial, whose m x m quadrature values sit beside the
# (m, n+1) product q.T @ C and the (n+1, m) table: for p = 4 or any p that is
# not an even integer (m = 1001) that is 1.0e6 values, 8 MB of float64 and
# the size of one MAX_GRID grid, plus 4 MB per table, and for p = 2
# (m = 501) a quarter of it.  Were the degree not bounded, m = 2n + 1 would
# hold 128 MB at n = 2000 and 537 MB at n = 4096 per trial.  Larger degrees
# are refused before any work, not left to exhaust memory.
MAX_MARCINKIEWICZ_DEGREE = 500

# Largest trial count of marcinkiewicz_trials.  The ratios take 8 bytes a
# trial, and the CLI writes one table row per trial from whole-run columns,
# their text made one block of rows at a time: 10^5 trials add about 6 MB to
# the process (42 MB peak RSS against 36 MB for one trial).  At n = 2 on a
# 2-core Xeon the command takes about 0.5 s for p = 2, whose exact axis has
# 3 nodes, and about 25 s for p = 3, nearly all of it in the ratio blocks on
# the 200-node axis (200 trials at n = 32 take about 0.007 s of numerical
# work for p = 2 and 0.08 s for p = 3).  Larger counts are refused before
# any allocation, not left to fail inside numpy's allocator.
MAX_MARCINKIEWICZ_TRIALS = 100_000


def _marcinkiewicz_setup(n, p):
    """Checked degree and p, then the tables every ratio of degree n reads.

    The tables are the orthonormal lattice tables of the two node axes, the
    node set, whose from_lattice reads the lattice values at the nodes, and
    the orthonormal table at the quadrature axis.  Degrees above
    MAX_MARCINKIEWICZ_DEGREE raise ValueError before any table is built.
    """
    n = check_degree(n, minimum=1)
    if n > MAX_MARCINKIEWICZ_DEGREE:
        raise ValueError(
            f"unsupported degree {n}: one Marcinkiewicz trial holds a quadrature "
            f"grid of up to (2n+1)^2 values, so degree <= {MAX_MARCINKIEWICZ_DEGREE} "
            f"is allowed"
        )
    p = _as_p(p)
    if math.isinf(p) or p < 1:
        raise ValueError(f"p must be finite and at least 1, got {p}")
    pset = points.generate(n)
    l1, l2 = interp.lattice_tables(n)
    # The denominator is the tensor Gauss-Chebyshev rule on m nodes per axis,
    # which is exact per axis up to degree 2m - 1.  For an even integer p,
    # |P|^p = P^p has degree at most pn in each variable, whatever the
    # (n+1) x (n+1) coefficient matrix, so m = pn/2 + 1 (pn <= 2m - 1) gives
    # the integral itself: at p = 2 it is Parseval's sum of c^2, on 33 nodes
    # at n = 32.  For any other p, |P|^p is not a polynomial and the axis
    # keeps max(200, 2n + 1) nodes, which the even-p size never exceeds.
    m = max(200, 2 * n + 1)
    if p % 2 == 0:
        m = min(m, int(p) * n // 2 + 1)
    qnodes, _ = gauss_chebyshev_axis(m)
    return n, p, (l1, l2, pset, t_norm_values(n, qnodes))


def _ratios(coeffs, p, l1, l2, pset, q):
    """Ratios of a (B, n+1, n+1) block of coefficient matrices, one per matrix.

    Both means of a trial are of |P| times one _power_scales factor, of the
    larger of its node and quadrature maxima, which the ratio cancels.
    """
    # P at the nodes as a C-contiguous (B, N) array, so that each row's mean
    # is summed in the same order whatever the block size; abs, scale and
    # power run on it whole, and the lattice is freed before the quadrature
    # product
    node_vals = pset.from_lattice(series_on_tables(coeffs, l1, l2))
    np.abs(node_vals, out=node_vals)
    quad_vals = series_on_tables(coeffs, q, q)
    np.abs(quad_vals, out=quad_vals)
    scale = _power_scales(np.maximum(node_vals.max(axis=-1), quad_vals.max(axis=(-2, -1))), p)
    node_vals *= scale[:, None]
    node_vals **= p
    quad_vals *= scale[:, None, None]
    quad_vals **= p
    return node_vals.mean(axis=-1) / quad_vals.mean(axis=(-2, -1))


def marcinkiewicz_ratio(n, coeffs, p):
    """Discrete-to-continuous p-th power ratio for one polynomial.

    The numerator is the plain node average (1/N) sum |P(node)|^p; the
    denominator is the weighted integral of |P|^p by tensor quadrature, which
    is exact for an even integer p (see _marcinkiewicz_setup).  coeffs is the
    (n+1) x (n+1) matrix of the polynomial in the orthonormal product basis;
    a matrix of another shape, with a non-finite entry or with every entry
    zero raises ValueError, and entries that are not real numbers (complex or
    strings; functions.as_real) raise TypeError.  It is evaluated as a batch
    of one by the evaluator of marcinkiewicz_trials.
    """
    n, p, tables = _marcinkiewicz_setup(n, p)
    coeffs = as_real(coeffs)
    if coeffs.shape != (n + 1, n + 1):
        raise ValueError(
            f"expected an ({n + 1}, {n + 1}) coefficient matrix for degree {n}, "
            f"got shape {coeffs.shape}"
        )
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("expected finite coefficients, got nan or inf")
    if not np.any(coeffs):
        raise ValueError("expected a nonzero polynomial, got all coefficients zero")
    return float(_ratios(coeffs[None], p, *tables)[0])


def marcinkiewicz_trials(n, p, trials, seed=0):
    """Ratios for `trials` random polynomials with iid uniform [-1,1]
    coefficients in the orthonormal basis; reproducible for a given seed.

    The denominator is exact for an even integer p, on pn/2 + 1 quadrature
    nodes per axis; other p take max(200, 2n + 1) (see _marcinkiewicz_setup).
    The tables are built once, and the polynomials are evaluated as batched
    tensor series in blocks of at most _BLOCK_ENTRIES values, counted over
    every array a trial holds (_trial_entries).  Each block draws its
    (B, n+1, n+1) coefficients in one call, which takes the same numbers from
    the generator as B draws of one matrix: a seed gives the same polynomials
    whatever the block size, and the first t ratios of a run do not depend on
    how many trials follow.  A trial count outside
    1..MAX_MARCINKIEWICZ_TRIALS raises ValueError before any allocation.
    """
    trials = check_int(trials, "trial count")
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > MAX_MARCINKIEWICZ_TRIALS:
        raise ValueError(
            f"unsupported trial count {trials}: one table row per trial, so at most "
            f"{MAX_MARCINKIEWICZ_TRIALS} trials are allowed"
        )
    n, p, tables = _marcinkiewicz_setup(n, p)
    drop = ~total_degree_mask(n)
    block = max(1, _BLOCK_ENTRIES // _trial_entries(n, tables[-1].shape[-1]))
    rng = np.random.default_rng(seed)
    out = np.empty(trials)
    for start in range(0, trials, block):
        size = min(block, trials - start)
        coeffs = rng.uniform(-1.0, 1.0, (size, n + 1, n + 1))
        coeffs[:, drop] = 0.0
        out[start:start + size] = _ratios(coeffs, p, *tables)
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


class _Instrument:
    """f on a grid and on a quadrature grid, with one orthonormal table per
    axis, in one float type: what measuring an interpolant against f reads
    that does not depend on the interpolant, built once.

    The grid table has rows 0..grid_kmax and the quadrature table rows
    0..quad_kmax.  A series of degree n reads the leading n+1 rows, which
    are bitwise the table of degree n, since row k of cos_table does not
    depend on the row count.  Nothing of the quadrature grid is built when
    p = inf.
    """

    def __init__(self, f, p, grid, quad_m, dtype, grid_kmax, quad_kmax):
        self.p = p
        ax = grid.axis(dtype)
        self.grid_table = t_norm_values(grid_kmax, ax, dtype)
        self.reference = evaluate(f, ax[:, None], ax[None, :], dtype)
        if not math.isinf(p):
            q, _ = gauss_chebyshev_axis(quad_m, dtype)
            self.quad_table = t_norm_values(quad_kmax, q, dtype)
            self.truth = evaluate(f, q[:, None], q[None, :], dtype)

    def on_grid(self, coeffs):
        """The series of coeffs on the grid."""
        return series_on_tables(coeffs, self.grid_table, self.grid_table)

    def measure(self, coeffs, values):
        """The ErrorMeasurement of coeffs, whose series on the grid is values."""
        error_uniform = float(_p_mean(values - self.reference, math.inf))
        if math.isinf(self.p):
            error_wp = error_uniform
        else:
            quad = series_on_tables(coeffs, self.quad_table, self.quad_table)
            error_wp = float(_p_mean(quad - self.truth, self.p))
        return ErrorMeasurement(values, self.reference, error_uniform, error_wp)


def measure_error(coeffs, f, p, grid, quad_m):
    """Measure a Chebyshev coefficient series against f.

    Everything runs in the coefficients' float type (float64 or
    np.longdouble).  values and reference are the series and f on the grid,
    and error_uniform is their largest deviation there.  error_wp is the
    weighted L^p error by tensor Gauss-Chebyshev quadrature with quad_m nodes
    per axis, or the uniform error when p = inf.  convergence_study measures
    through the same instrument, built once for all its degrees.  quad_m
    outside 1..MAX_QUAD raises ValueError, and one that is not an integer
    TypeError, before any work.
    """
    quad_m = check_quad(quad_m)
    p = _as_p(p)
    kmax = max(coeffs.shape[-2:]) - 1
    instrument = _Instrument(f, p, grid, quad_m, np.result_type(coeffs.dtype, float),
                             kmax, kmax)
    return instrument.measure(coeffs, instrument.on_grid(coeffs))


# Interpolation errors of smooth functions fall under the double-precision
# floor (~3e-15) well before n = 32, where a double instrument can no longer
# resolve whether the error still decreases.  The convergence study therefore
# measures the operator in 80-bit arithmetic: node samples, projection,
# series evaluation and the reference values are all np.longdouble, while
# the operator definition is unchanged.  The test suite checks it against
# double-precision direct kernel sums (the direct_lagrange_matrix fixture)
# on errors large enough for both to see.
# The builtin test functions evaluate in float64, though, so their samples
# and references are rounded to double: their errors floor near 1e-16
# (exp_sum, n = 24: error_wp 2.9e-16), not near the 80-bit epsilon.
#
# Each piece of work is done once per study: one grid table to degree
# 2 max(degrees) and one quadrature table to max(degrees), f on the grid and
# on the quadrature grid, and the grid series of each degree, so that the
# values of degree n are also the en_proxy reference of degree n/2.  The
# 2-D products go through cheb.series_on_tables (np.dot), which for
# longdouble sums in a register instead of storing each partial sum.  The
# rows are bitwise those of one measure_error per degree.
_LD = np.longdouble

# Largest quadrature size per axis of a measurement against f.  A
# convergence study holds f and the interpolant on the quad_m x quad_m
# Gauss-Chebyshev grid in 80-bit, 16 bytes a value, beside their difference
# and its powers: at 1250 that is 1.6e6 values, 25 MB per array.  The
# default 4 * max(degrees) is 1204 at degree 301, the largest degree the
# Lebesgue-table bound (interp.MAX_LEBESGUE_ENTRIES) admits on the default
# 200-point grid.  `interp --function` measures in float64 with
# max(64, 4n) nodes, so it allows n <= 312.  Larger sizes are refused by
# check_quad before any work, whatever p is.
MAX_QUAD = 1250


def check_quad(quad_m, degree=None, note=""):
    """quad_m as an int: TypeError unless an integer, ValueError unless 1..MAX_QUAD.

    A quad_m set by a degree, 4 * degree or max(64, 4 * degree) nodes, is
    refused by naming the degree and its bound MAX_QUAD // 4, then note.
    """
    quad_m = check_int(quad_m, "quadrature size")
    if not 1 <= quad_m <= MAX_QUAD:
        raise ValueError(
            f"quadrature of {quad_m} nodes per axis: 1 to {MAX_QUAD} are allowed"
            if degree is None else f"degree {degree} measures with {quad_m} quadrature nodes "
            f"per axis, above {MAX_QUAD}: degrees up to {MAX_QUAD // 4} are allowed{note}")
    return quad_m


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

    The study builds each piece of work once: the grid and quadrature
    tables, f on both grids, each degree's fit, and each degree's series on
    the grid, which for a degree 2n in degrees is also the reference of n.
    The rows equal, bit for bit, those of one measure_error per degree.
    quad_m outside 1..MAX_QUAD raises ValueError, and one that is not an
    integer TypeError, before any work.
    """
    if not isinstance(f, TestFunction):
        raise TypeError("f must be a TestFunction (see padua.functions)")
    p = _as_p(p)
    degrees = [check_degree(d, minimum=1) for d in degrees]
    if not degrees or any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("degrees must be nonempty and strictly increasing")
    top = max(degrees)
    quad_m = check_quad(4 * top, top) if quad_m is None else check_quad(quad_m)
    check_degree(2 * top, minimum=1, what="reference degree")
    interp.check_lebesgue_size(top, grid)

    instrument = _Instrument(f, p, grid, quad_m, _LD, 2 * top, top)
    fits = {}

    def fit(n):
        """Degree-n node set and 80-bit coefficients, built once per degree."""
        if n not in fits:
            pset = points.generate(n)
            fits[n] = pset, interp.to_coefficients(pset, interp.sample(pset, f, _LD))
        return fits[n]

    # grid values of a later degree 2n, kept from the row of n
    later = {}
    rows = []
    for n in degrees:
        pset, coeffs = fit(n)
        values = later.pop(n, None)
        if values is None:
            values = instrument.on_grid(coeffs)
        err = instrument.measure(coeffs, values)
        ref = instrument.on_grid(fit(2 * n)[1])
        if 2 * n in degrees:
            later[2 * n] = ref
        en_proxy = float(_p_mean(ref - values, math.inf))
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
