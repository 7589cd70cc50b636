import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from padua.analysis import (
    convergence_study,
    fourier_coefficients,
    fourier_partial_sum,
    lp_norm,
    marcinkiewicz_ratio,
    marcinkiewicz_ratios,
    marcinkiewicz_trials,
)
from padua import analysis, interp
from padua.cheb import cospi_frac, product_series_grid, series_on_tables, t_norm_lattice
from padua.functions import (
    BUILTIN_FUNCTIONS,
    SampleEvaluationError,
    TestFunction,
    evaluate,
    get,
)
from padua.interp import EvalGrid
from padua.points import generate

import oracles


def _t(k, x):
    return np.cos(k * np.arccos(x))


def _max_abs_cases():
    ld = np.longdouble
    one, two = ld(1), ld(2)
    big = two ** 1023 * (two - two ** -52)  # the largest float64
    cases = [
        # ties and near-ties of float64 rounding around 1 and the largest float64
        [one + two ** -53, -(one + two ** -53 - two ** -63), one],
        [one + two ** -53 + two ** -63, -(one + two ** -52)],
        [-(one + two ** -53), one + 3 * two ** -54],
        [big, big + two ** 1023 * two ** -54, -(big + two ** 1023 * (two ** -53 - two ** -62))],
        [big + two ** 1023 * two ** -53, one],  # rounds to inf, as float() does
        # beyond float64's range, subnormals, zeros, inf and NaN
        [two ** 1100, -two ** 2000, one],
        [two ** -1074 * ld(0.75), -two ** -1070, two ** -16000, -ld(0.0)],
        [-ld(0.0), ld(0.0)],
        [ld(np.inf), one],
        [-ld(np.inf), -two ** 1100],
        [one, ld(np.nan), -ld(np.inf)],
        [ld(np.nan)],
    ]
    rng = np.random.default_rng(5)
    grid = rng.standard_normal((200, 200)).astype(ld)
    # every value a hair off a float64 tie
    grid += np.sign(grid) * np.spacing(grid.astype(float)).astype(ld) * (0.5 + two ** -60)
    return [np.array(c, dtype=ld) for c in cases] + [grid, grid - grid.T]


@pytest.mark.parametrize("v", _max_abs_cases())
def test_p_mean_inf_is_the_float_of_the_80bit_max_abs(v):
    # the max of |v| taken in float64 has the bits of float(max |v|) in
    # 80-bit; a NaN is a NaN either way, but numpy's 80-bit abs gives -x for
    # a NaN x, so only its sign bit may differ
    with np.errstate(over="ignore"):
        want = np.float64(float(np.max(np.abs(v))))
    got = np.float64(analysis._p_mean(v, math.inf))
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert got.view(np.int64) == want.view(np.int64)


def test_lp_norm_constant():
    for p in (0.5, 1.0, 2.0, 4.0):
        assert lp_norm(lambda a, b: -3.0 * np.ones_like(a * b), p) == pytest.approx(3.0)


def test_lp_norm_frozen_values():
    assert lp_norm(lambda a, b: a * np.ones_like(b), 2) == pytest.approx(
        np.sqrt(0.5), abs=1e-10
    )
    f = lambda a, b: _t(3, a) * _t(2, b)
    assert lp_norm(f, 2) == pytest.approx(0.5, abs=1e-10)


def test_lp_norm_inf_is_max_over_nodes():
    assert lp_norm(lambda a, b: 5.0 * np.ones_like(a * b), "inf") == 5.0
    assert lp_norm(lambda a, b: -3.0 * np.ones_like(a * b), np.inf) == 3.0
    # the largest |a * b| over the 200 x 200 Gauss-Chebyshev nodes
    corner = np.cos(np.pi / 400) ** 2
    assert lp_norm(lambda a, b: a * b, np.inf) == pytest.approx(corner, abs=1e-15)


def _quad_difference(coeffs, f, p, grid, quad_m):
    """The interpolant minus f on the quadrature grid of a measurement, in the
    coefficients' float type: the values whose p-mean is its error_wp."""
    kmax = coeffs.shape[-1] - 1
    inst = analysis._Instrument(f, p, grid, quad_m, coeffs.dtype, kmax, kmax)
    return series_on_tables(coeffs, inst.quad_table, inst.quad_table) - inst.truth


@pytest.mark.parametrize("scale, p, dtype, rtol", [
    (1e-15, 24, np.float64, 1e-14),     # |v|^24 underflowed to 0
    (1e-15, 500, np.float64, 1e-14),
    (1e-17, 400, np.longdouble, 1e-14),  # beyond even 80-bit's range
    (1e200, 2, np.float64, 1e-14),      # |v|^2 overflowed to inf
    (1.0, 2, np.float64, 1e-15),
    (3.0, analysis.MIN_P, np.float64, 1e-12),
])
def test_p_mean_stays_in_range_against_mpmath(scale, p, dtype, rtol):
    pytest.importorskip("mpmath")
    v = (np.random.default_rng(7).standard_normal((60, 60)) * scale).astype(dtype)
    want = oracles.p_mean_mp(v, p)
    assert abs(float(analysis._p_mean(v, p)) - want) <= rtol * want


def test_p_mean_keeps_its_bits_where_the_powers_are_in_range():
    # the power-of-two scale is 1 unless max |v|^p leaves 2^+-256
    rng = np.random.default_rng(3)
    for v, p in ((rng.standard_normal(500) * 1e-15, 2), (rng.standard_normal(500), 24.5),
                 (rng.standard_normal(500).astype(np.longdouble) * 1e-17, 2)):
        plain = np.mean(np.abs(v) ** p) ** (1 / v.dtype.type(p))
        assert np.array_equal(analysis._p_mean(v, p), plain)


def test_lp_norm_of_a_tiny_constant_at_p_24():
    # 1e-15 ** 24 is below float64's range; the scaled mean is not
    got = lp_norm(lambda a, b: np.full(np.broadcast_shapes(a.shape, b.shape), 1e-15), 24)
    assert abs(got - 1e-15) <= 1e-14 * 1e-15


def test_interpolation_error_at_p_24_against_mpmath():
    # the float64 measurement of `interp --degree 30 --function exp_sum
    # --grid 20 --p 24`, which read error_wp = 0 where p = 16 read 6.6e-15
    pytest.importorskip("mpmath")
    f, grid, pset = get("exp_sum"), EvalGrid(20), generate(30)
    coeffs = interp.to_coefficients(pset, interp.sample(pset, f))
    err = analysis.measure_error(coeffs, f, 24, grid, 120)
    want = oracles.p_mean_mp(_quad_difference(coeffs, f, 24, grid, 120), 24)
    assert want > 1e-15
    assert abs(err.error_wp - want) <= 1e-13 * want


def test_convergence_error_at_p_400_against_mpmath():
    # the 80-bit study of `converge --function exp_sum --degrees 16,24
    # --grid 20 --p 400`, whose error_wp read 0
    pytest.importorskip("mpmath")
    f, grid = get("exp_sum"), EvalGrid(20)
    report = convergence_study(f, 400, [16, 24], grid)
    for row in report.rows:
        pset = generate(row.n)
        coeffs = interp.to_coefficients(pset, interp.sample(pset, f, np.longdouble))
        want = oracles.p_mean_mp(_quad_difference(coeffs, f, 400, grid, 96), 400)
        assert want > 1e-16
        assert abs(row.error_wp - want) <= 1e-14 * want


def test_marcinkiewicz_at_p_400_against_an_80bit_loop():
    # |P|^400 overflowed float64 on the quadrature grid, which made every
    # ratio 0; the 80-bit loop holds the powers themselves
    got = marcinkiewicz_trials(4, 400, 2)
    want = oracles.marcinkiewicz_trials_loop(4, 400, 2, 0, np.longdouble)
    assert np.all(want > 0)
    assert np.max(np.abs(got - want) / want) <= 1e-12


@pytest.mark.parametrize("p", [1e-300, analysis.MIN_P / 2, analysis.MAX_P * 1.001, 1e300])
def test_p_outside_its_range_is_refused(p):
    message = re.escape(f"p must be inf or from {analysis.MIN_P} to {analysis.MAX_P}, got {p}")
    pset = generate(4)
    coeffs = interp.to_coefficients(pset, interp.sample(pset, lambda a, b: a + b))
    calls = [
        lambda: lp_norm(lambda a, b: a, p),
        lambda: analysis.measure_error(coeffs, get("exp_sum"), p, EvalGrid(10), 64),
        lambda: convergence_study(get("exp_sum"), p, [2, 4], EvalGrid(10)),
        lambda: marcinkiewicz_trials(4, p, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    for p in (analysis.MIN_P, analysis.MAX_P):
        assert lp_norm(lambda a, b: 2.0 * np.ones_like(a * b), p) == pytest.approx(2.0)


def test_lp_norm_validation():
    for p in (0.0, -1.0, "-inf", "nan"):
        with pytest.raises(ValueError, match="p must be positive or inf"):
            lp_norm(lambda a, b: a, p)
    # text that is no number is named too, not left to float()'s message
    with pytest.raises(ValueError, match="^p must be positive or inf, got 'abc'$"):
        lp_norm(lambda a, b: a, "abc")
    with pytest.raises(ValueError):
        lp_norm(lambda a, b: a, 2, m=4)
    # a bool size is refused as every other size is, naming the value
    for m in (True, 16.0):
        with pytest.raises(TypeError, match=f"quadrature size must be an integer, not {m}"):
            lp_norm(lambda a, b: a, 2, m=m)


def test_lp_norm_monotone(rng):
    f = lambda a, b: a * b
    g = lambda a, b: np.abs(a * b) + 0.2
    for p in (1, 2, 3.5):
        assert lp_norm(f, p) <= lp_norm(g, p) + 1e-12


def test_lp_norm_orthonormal_cross_terms():
    alpha, beta = 0.8, -0.35
    f = lambda a, b: alpha * np.sqrt(2) * _t(2, a) * np.ones_like(b) \
        + beta * np.sqrt(2) * _t(1, a) * np.sqrt(2) * _t(1, b)
    assert lp_norm(f, 2) ** 2 == pytest.approx(alpha**2 + beta**2, abs=1e-9)


def test_tensor_quadrature_constant():
    assert oracles.gauss_chebyshev_integral(lambda a, b: np.ones_like(a * b), 32) == \
        pytest.approx(1.0)


def test_fourier_reproduces_polynomials(rng):
    n = 6
    f = lambda a, b: 0.3 + a * b + 0.5 * _t(3, a) * _t(2, b)
    for _ in range(10):
        x = tuple(rng.uniform(-1, 1, 2))
        assert fourier_partial_sum(n, f, x) == pytest.approx(f(*x), abs=1e-8)


def test_fourier_kills_higher_degree():
    n = 5
    f = lambda a, b: _t(n + 1, a) * np.ones_like(b)
    for x in ((0.3, -0.7), (0.0, 0.0)):
        assert fourier_partial_sum(n, f, x) == pytest.approx(0.0, abs=1e-8)


def test_fourier_mean_coefficient():
    f = lambda a, b: a**2 * np.ones_like(b)
    coeffs = fourier_coefficients(4, f)
    assert coeffs[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_fourier_projection_property(rng):
    n = 4
    f = get("franke")
    coeffs = fourier_coefficients(n, f)

    def truncated(a, b):
        th1, th2 = np.arccos(a), np.arccos(b)
        t1 = np.cos(np.multiply.outer(np.arange(n + 1), th1))
        t2 = np.cos(np.multiply.outer(np.arange(n + 1), th2))
        t1[1:] *= np.sqrt(2.0)
        t2[1:] *= np.sqrt(2.0)
        return np.einsum("ab,a...,b...->...", coeffs, t1, t2)

    for _ in range(10):
        x = tuple(rng.uniform(-1, 1, 2))
        assert fourier_partial_sum(n, truncated, x) == pytest.approx(
            truncated(*x), abs=1e-7
        )


def test_fourier_quadrature_size_validation():
    with pytest.raises(ValueError):
        fourier_partial_sum(8, lambda a, b: a, (0.0, 0.0), m=4)


def test_marcinkiewicz_constant_ratio_exact():
    coeffs = np.zeros((5, 5))
    coeffs[0, 0] = 1.0
    assert marcinkiewicz_ratio(4, coeffs, 2) == 1.0


def test_marcinkiewicz_trials_reproducible():
    a = marcinkiewicz_trials(6, 2, 20, seed=3)
    b = marcinkiewicz_trials(6, 2, 20, seed=3)
    assert np.array_equal(a, b)
    c = marcinkiewicz_trials(6, 2, 20, seed=4)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("n", [1, 4, 17, 32])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 4.0])
def test_marcinkiewicz_trials_match_per_trial_loop(n, p):
    got = marcinkiewicz_trials(n, p, 20, seed=11)
    expect = oracles.marcinkiewicz_trials_loop(n, p, 20, seed=11)
    assert np.max(np.abs(got - expect) / expect) <= 1e-13
    # one polynomial through marcinkiewicz_ratio meets the same evaluator
    ks = np.arange(n + 1)
    coeffs = np.random.default_rng(11).uniform(-1.0, 1.0, (n + 1, n + 1))
    coeffs[ks[:, None] + ks[None, :] > n] = 0.0
    assert marcinkiewicz_ratio(n, coeffs, p) == got[0]


@pytest.mark.parametrize("trials", [7, 200])
def test_marcinkiewicz_trials_block_invariant(monkeypatch, trials):
    # blocks of 1 and 3 trials against the default: n = 8 keeps the default
    # 200-node quadrature axis, and p = 2 at n = 32 takes the exact 33-node one
    for n, p, m in ((8, 3.5, 200), (32, 2.0, 33)):
        default = marcinkiewicz_trials(n, p, trials, seed=2)
        for block in (1, 3):
            monkeypatch.setattr(analysis, "_BLOCK_ENTRIES",
                                block * analysis._trial_entries(n, m))
            assert np.array_equal(marcinkiewicz_trials(n, p, trials, seed=2), default)
        monkeypatch.undo()


@pytest.mark.parametrize("n", [1, 4, 17, 32, 100])
def test_marcinkiewicz_even_p_denominator_is_parseval(rng, n):
    # at p = 2 the exact denominator is the sum of c^2, also for coefficients
    # above the anti-diagonal; the node mean comes from the oracle tables
    b1, b2 = oracles.padua_node_tables(n)
    ks = np.arange(n + 1)
    for full in (False, True):
        coeffs = rng.uniform(-1.0, 1.0, (n + 1, n + 1))
        if not full:
            coeffs[ks[:, None] + ks[None, :] > n] = 0.0
        node_mean = np.mean(np.einsum("ab,aN,bN->N", coeffs, b1, b2) ** 2)
        denominator = node_mean / marcinkiewicz_ratio(n, coeffs, 2)
        assert abs(denominator - np.sum(coeffs**2)) <= 1e-13 * np.sum(coeffs**2)


@pytest.mark.parametrize("n", [3, 4, 8, 16, 17])
def test_marcinkiewicz_p2_ratios_lie_within_rayleigh_bounds(n):
    # at p = 2 a ratio is the Rayleigh quotient c^T G c / |c|^2 of G = V^T V / N,
    # V the a + b <= n orthonormal basis at the nodes (the oracle tables)
    b1, b2 = oracles.padua_node_tables(n)
    a, b = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n)
    v = (b1[a] * b2[b]).T
    lo, hi = np.linalg.eigvalsh(v.T @ v / len(v))[[0, -1]]
    ratios = marcinkiewicz_trials(n, 2, 200, seed=n)
    assert np.all((lo - 1e-13 <= ratios) & (ratios <= hi + 1e-13))
    # an observed pattern, not a derived bound: lambda_min = n / (n + 2)
    assert abs(lo - n / (n + 2)) <= 1e-12


def test_marcinkiewicz_ratio_rejects_bad_coefficients():
    with pytest.raises(ValueError, match=r"expected an \(5, 5\) coefficient matrix"):
        marcinkiewicz_ratio(4, np.ones((3, 3)), 2)
    for bad in (math.nan, math.inf):
        coeffs = np.ones((5, 5))
        coeffs[1, 2] = bad
        with pytest.raises(ValueError, match="expected finite coefficients"):
            marcinkiewicz_ratio(4, coeffs, 2)
    with pytest.raises(ValueError, match="expected a nonzero polynomial"):
        marcinkiewicz_ratio(4, np.zeros((5, 5)), 2)
    # complex entries are not cut to their real part, nor strings parsed
    for bad in (np.ones((5, 5)) + 1j, np.full((5, 5), "1.5")):
        with pytest.raises(TypeError, match="are not real numbers"):
            marcinkiewicz_ratio(4, bad, 2)


def test_marcinkiewicz_trials_seed_prefix():
    for n, p in ((5, 2.0), (32, 1.5)):
        assert np.array_equal(marcinkiewicz_trials(n, p, 3, seed=9),
                              marcinkiewicz_trials(n, p, 7, seed=9)[:3])


def test_marcinkiewicz_trials_memory_below_lebesgue_constant():
    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    trials = peak(lambda: marcinkiewicz_trials(32, 2, 200))
    lebesgue = peak(lambda: interp.lebesgue_constant(generate(32),
                                                     EvalGrid(200, "chebyshev")))
    assert trials < lebesgue


def test_marcinkiewicz_bounds_and_positivity():
    for p in (1.0, 2.0, 4.0):
        lo, hi = marcinkiewicz_ratios(8, p, 50, seed=5)
        assert 0.0 < lo <= hi
        assert hi <= 10.0
        assert 1.0 / lo <= 10.0


def test_marcinkiewicz_rejects_small_p():
    # and p that is not finite, for which the p-th power ratio is nan
    for p in (0.5, math.inf, "inf", math.nan):
        with pytest.raises(ValueError):
            marcinkiewicz_trials(4, p, 10)
        with pytest.raises(ValueError):
            marcinkiewicz_ratio(4, np.ones((5, 5)), p)
    with pytest.raises(ValueError):
        marcinkiewicz_trials(4, 2, 0)


def test_marcinkiewicz_trials_refuses_a_trial_count_that_is_not_an_integer(monkeypatch):
    # refused before any table is built, naming the count
    def refuse(n):
        raise AssertionError(f"node set of degree {n} built before the trial check")

    monkeypatch.setattr(analysis.points, "generate", refuse)
    for trials in (3.5, True):
        with pytest.raises(TypeError, match=f"^trial count must be an integer, not {trials}$"):
            marcinkiewicz_trials(4, 2, trials)


def test_fourier_coefficients_bitwise_equal_to_matmul_chain():
    f = get("franke")
    for n, m in ((0, None), (1, None), (1, 2), (5, 9), (12, None), (30, 61)):
        q = 4 * n + 16 if m is None else m
        nodes, nums = analysis.gauss_chebyshev_axis(q)
        basis = t_norm_lattice(n, nums, 2 * q)
        expect = basis @ evaluate(f, nodes[:, None], nodes[None, :]) @ basis.T / float(q * q)
        ks = np.arange(n + 1)
        expect[ks[:, None] + ks[None, :] > n] = 0.0
        assert np.array_equal(fourier_coefficients(n, f, m), expect), (n, m)


def test_ratios_bitwise_equal_to_matmul_chains(rng):
    # the node values are the lattice's gathered at the flat index
    # k * (n + 2) + eta of each node, computed here from the definition
    for n, p in ((1, 2), (2, 3), (4, 1.5), (9, 2), (16, 4)):
        _, p, tables = analysis._marcinkiewicz_setup(n, p)
        l1, l2, _, q = tables
        nodes = oracles.padua_nodes(n)
        at_nodes = nodes.k * (n + 2) + nodes.eta
        for size in (1, 5):
            coeffs = rng.uniform(-1.0, 1.0, (size, n + 1, n + 1))
            lattice = (l1.T @ coeffs @ l2).reshape(size, -1)
            node_vals = np.abs(np.ascontiguousarray(lattice[:, at_nodes])) ** p
            quad_vals = np.abs(q.T @ coeffs @ q) ** p
            expect = node_vals.mean(axis=-1) / quad_vals.mean(axis=(-2, -1))
            assert np.array_equal(analysis._ratios(coeffs, p, *tables), expect), (n, p)


def test_builtin_registry():
    assert set(BUILTIN_FUNCTIONS) == {
        "const", "coord1", "franke", "exp_sum", "abs_diag", "runge2d",
    }
    assert get("runge2d")(0.0, 0.0) == pytest.approx(1.0)
    assert get("exp_sum")(0.0, 0.0) == pytest.approx(1.0)
    assert get("abs_diag")(0.25, 0.25) == 0.0
    vals = get("franke")(np.linspace(-1, 1, 50)[:, None], np.linspace(-1, 1, 50)[None, :])
    assert np.all(np.isfinite(vals)) and np.max(np.abs(vals)) < 2.0
    with pytest.raises(KeyError):
        get("nope")


def test_convergence_study_polynomial_is_exact():
    report = convergence_study(get("coord1"), 2, [2, 4], EvalGrid(40))
    for row in report.rows:
        assert row.error_wp <= 1e-8
        assert row.error_uniform <= 1e-8


def test_convergence_study_entire_function():
    report = convergence_study(get("exp_sum"), 2, [4, 8, 16], EvalGrid(60))
    wp = [r.error_wp for r in report.rows]
    assert wp[0] > wp[1] > wp[2]
    assert all(r.error_wp >= 0 and r.error_uniform >= 0 for r in report.rows)
    assert [r.n for r in report.rows] == [4, 8, 16]


def test_convergence_study_inf_norm():
    report = convergence_study(get("exp_sum"), "inf", [2, 4], EvalGrid(30))
    for row in report.rows:
        assert row.error_wp == row.error_uniform


def test_convergence_study_80bit_matches_double_kernel_route(direct_lagrange_matrix):
    ld = np.longdouble
    f = get("runge2d")
    grid = EvalGrid(30)
    report = convergence_study(f, "inf", [8, 16], grid)
    ax = grid.axis()
    x1, x2 = np.repeat(ax, grid.m), np.tile(ax, grid.m)
    truth = f(ax[:, None], ax[None, :])
    for n, row in zip((8, 16), report.rows):
        pset = generate(n)
        k, eta = pset.lattice_index(np.arange(len(pset)))
        samples = f(cospi_frac(k, n, ld), cospi_frac(eta, n + 1, ld))
        coeffs = interp.to_coefficients(pset, np.asarray(samples, dtype=ld))
        assert coeffs.dtype == ld
        ext = product_series_grid(coeffs, grid.axis(ld), grid.axis(ld))
        lmat = direct_lagrange_matrix(pset, x1, x2)
        double = (lmat @ interp.sample(pset, f)).reshape(grid.m, grid.m)
        assert float(np.max(np.abs(ext - double))) <= 1e-9 * (n + 1)
        assert abs(row.error_uniform - np.max(np.abs(double - truth))) <= 1e-12


@pytest.mark.parametrize("name, p, kind, degrees, quad_m", [
    ("exp_sum", 2, "uniform", [4, 8, 16, 24], None),
    ("runge2d", "inf", "uniform", [4, 8, 16, 24], None),
    ("franke", 1, "chebyshev", [3, 5, 6, 10, 12], 37),
    ("abs_diag", 2, "chebyshev", [2, 4, 8], None),
    ("exp_sum", "inf", "chebyshev", [1, 2, 3, 6], 5),
    ("coord1", 1, "uniform", [1, 2, 4], 50),
])
def test_convergence_study_rows_equal_per_degree_oracle(name, p, kind, degrees, quad_m):
    # the study shares tables, f on the grids and grid values across degrees;
    # its rows must equal, bit for bit, one measurement per degree
    grid = EvalGrid(41, kind)
    report = convergence_study(get(name), p, degrees, grid, quad_m=quad_m)
    expect = oracles.convergence_study_per_degree(get(name), p, degrees, grid, quad_m)
    assert [dataclasses.astuple(r) for r in report.rows] == expect


def test_convergence_study_evaluates_each_grid_series_and_f_on_the_grid_once(monkeypatch):
    shapes = []

    def exp_sum(x1, x2):
        shapes.append(np.broadcast_shapes(np.shape(x1), np.shape(x2)))
        return get("exp_sum")(x1, x2)

    series_degrees = []
    on_grid = analysis._Instrument.on_grid

    def counted_on_grid(self, coeffs):
        series_degrees.append(coeffs.shape[-1] - 1)
        return on_grid(self, coeffs)

    monkeypatch.setattr(analysis._Instrument, "on_grid", counted_on_grid)
    f = TestFunction("exp_sum", exp_sum, "counted")
    convergence_study(f, 2, [4, 8, 16, 24], EvalGrid(30), quad_m=40)
    # degrees 8 and 16 serve as the references of 4 and 8: 6 series, not 8
    assert sorted(series_degrees) == [4, 8, 16, 24, 32, 48]
    assert shapes.count((30, 30)) == 1
    assert shapes.count((40, 40)) == 1
    # plus the node samples of the six fits, one call per node sub-grid
    fits = [(ks.size, etas.size) for n in (4, 8, 16, 24, 32, 48)
            for ks, etas in generate(n).sub_grids()]
    assert sorted(shapes) == sorted([(30, 30), (40, 40), *fits])


def test_lp_norm_failure_names_the_point():
    # the quadrature grid goes through functions.evaluate: a callable that
    # takes only scalars is visited point by point in C order, and the first
    # failure names its point
    def scalar_only(a, b):
        if np.ndim(a) > 0:
            raise TypeError("scalar only")
        if a < 0.0 and b > 0.9:
            raise ValueError("boom")
        return a * b

    nodes, _ = analysis.gauss_chebyshev_axis(16)
    first = (float(nodes[nodes < 0.0][0]), float(nodes[nodes > 0.9][0]))
    with pytest.raises(SampleEvaluationError) as info:
        lp_norm(scalar_only, 2, m=16)
    assert str(info.value) == (
        f"function evaluation failed at x=({first[0]!r}, {first[1]!r})")
    assert isinstance(info.value.__cause__, ValueError)


def test_convergence_study_validation():
    with pytest.raises(ValueError):
        convergence_study(get("const"), 2, [], EvalGrid(10))
    with pytest.raises(ValueError):
        convergence_study(get("const"), 2, [4, 4], EvalGrid(10))
    with pytest.raises(TypeError):
        convergence_study(lambda a, b: a, 2, [2, 4], EvalGrid(10))
    for p in (2, "inf"):
        for quad_m in (0, analysis.MAX_QUAD + 1):
            with pytest.raises(ValueError, match=str(analysis.MAX_QUAD)):
                convergence_study(get("const"), p, [2, 4], EvalGrid(10), quad_m=quad_m)


def test_measure_error_quad_outside_bound_raises_before_f_is_called():
    # quad_m = 10**5 would be a 10**10-value quadrature grid: it is refused
    # before f is evaluated anywhere, whatever p is
    calls = []

    def f(x1, x2):
        calls.append(1)
        return x1 + x2

    pset = generate(4)
    coeffs = interp.to_coefficients(pset, interp.sample(pset, lambda a, b: a + b))
    for p in (2, "inf"):
        for quad_m in (0, analysis.MAX_QUAD + 1, 10**5):
            with pytest.raises(ValueError, match=str(analysis.MAX_QUAD)):
                analysis.measure_error(coeffs, f, p, EvalGrid(10), quad_m)
    assert calls == []
    # in range it measures: the degree-4 interpolant of a linear f is exact
    err = analysis.measure_error(coeffs, f, 2, EvalGrid(10), analysis.MAX_QUAD // 10)
    assert calls and err.error_uniform <= 1e-13 and err.error_wp <= 1e-13


@pytest.mark.parametrize("size", [float, np.float64])
def test_quadrature_size_that_is_not_an_integer_raises_type_error(size):
    # a float size used to reach the quadrature nodes and fail there with an
    # IndexError; it is refused naming the size, as EvalGrid refuses its m
    pset = generate(4)
    coeffs = interp.to_coefficients(pset, interp.sample(pset, lambda a, b: a + b))
    f = get("exp_sum")
    calls = [
        lambda: lp_norm(f, 2, m=size(200)),
        lambda: fourier_coefficients(4, f, m=size(40)),
        lambda: analysis.measure_error(coeffs, f, 2, EvalGrid(10), quad_m=size(64)),
        lambda: analysis.measure_error(coeffs, f, "inf", EvalGrid(10), quad_m=size(64)),
        lambda: convergence_study(f, 2, [2, 4], EvalGrid(10), quad_m=size(64)),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=r"quadrature size must be an integer, "
                                            r"not (np\.float64\()?(200|64|40)\.0"):
            call()


@pytest.mark.parametrize("m, text", [(True, "True"), ("x", "'x'")])
def test_fourier_quadrature_size_is_checked_before_it_is_compared(m, text):
    # a bool used to pass as 1 ("too small"), a string to fail on its '<'
    with pytest.raises(TypeError, match=f"^quadrature size must be an integer, not {text}$"):
        fourier_coefficients(4, get("exp_sum"), m)


def test_quadrature_size_as_numpy_integer_is_bitwise_the_int_result():
    pset = generate(4)
    coeffs = interp.to_coefficients(pset, interp.sample(pset, lambda a, b: a + b))
    f = get("exp_sum")

    def results(m):
        values = [lp_norm(f, 2, m=m)]
        for p in (2, "inf"):
            err = analysis.measure_error(coeffs, f, p, EvalGrid(10), quad_m=m)
            values += [err.error_wp, err.error_uniform]
        return np.concatenate([values, fourier_coefficients(4, f, m=m).ravel()]).tobytes()

    assert results(np.int64(64)) == results(64)


def test_convergence_report_dict_round_trip():
    report = convergence_study(get("coord1"), "inf", [2, 3], EvalGrid(16))
    d = report.to_dict()
    assert list(d) == ["function", "p", "grid_m", "grid_kind", "quad_m", "rows"]
    assert d["p"] == "inf"
    assert list(d["rows"][0]) == ["n", "cardinality", "error_wp", "error_uniform",
                                  "lebesgue_estimate", "en_proxy"]
    assert len(d["rows"]) == 2
    assert d["rows"][0]["n"] == 2
    assert math.isfinite(d["rows"][1]["lebesgue_estimate"])
