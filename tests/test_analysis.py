import math

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
    tensor_quadrature,
)
from padua import interp
from padua.cheb import cospi_frac, product_series_grid
from padua.functions import BUILTIN_FUNCTIONS, get
from padua.interp import EvalGrid
from padua.points import generate


def _t(k, x):
    return np.cos(k * np.arccos(x))


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


def test_lp_norm_validation():
    for p in (0.0, -1.0, "-inf", "nan"):
        with pytest.raises(ValueError, match="p must be positive or inf"):
            lp_norm(lambda a, b: a, p)
    with pytest.raises(ValueError):
        lp_norm(lambda a, b: a, 2, m=4)


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
    assert tensor_quadrature(lambda a, b: np.ones_like(a * b), 32) == pytest.approx(1.0)


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
        samples = f(cospi_frac(pset.k_num, n, ld), cospi_frac(pset.eta_num, n + 1, ld))
        coeffs = interp.to_coefficients(pset, np.asarray(samples, dtype=ld))
        assert coeffs.dtype == ld
        ext = product_series_grid(coeffs, grid.axis(ld), grid.axis(ld))
        lmat = direct_lagrange_matrix(pset, x1, x2)
        double = (lmat @ interp.sample(pset, f)).reshape(grid.m, grid.m)
        assert float(np.max(np.abs(ext - double))) <= 1e-9 * (n + 1)
        assert abs(row.error_uniform - np.max(np.abs(double - truth))) <= 1e-12


def test_convergence_study_validation():
    with pytest.raises(ValueError):
        convergence_study(get("const"), 2, [], EvalGrid(10))
    with pytest.raises(ValueError):
        convergence_study(get("const"), 2, [4, 4], EvalGrid(10))
    with pytest.raises(TypeError):
        convergence_study(lambda a, b: a, 2, [2, 4], EvalGrid(10))


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
