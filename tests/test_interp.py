import numpy as np
import pytest

from oracles import t_norm_rec
from padua import interp
from padua.cheb import product_series_at, t_norm_lattice, t_norm_values
from padua.interp import (
    EvalGrid,
    SampleEvaluationError,
    interpolate,
    interpolate_grid,
    lagrange_matrix,
    lebesgue_constant,
    lebesgue_function,
    sample,
    to_coefficients,
)
from padua.points import generate


def _random_poly(rng, n):
    ks = np.arange(n + 1)
    coeffs = rng.uniform(-1.0, 1.0, (n + 1, n + 1))
    coeffs[ks[:, None] + ks[None, :] > n] = 0.0
    return coeffs


def _poly_at_nodes(coeffs, pset):
    n = pset.degree
    b1 = t_norm_lattice(n, pset.k_num, n)
    b2 = t_norm_lattice(n, pset.eta_num, n + 1)
    return np.einsum("ab,aN,bN->N", coeffs, b1, b2)


def test_sample_constant():
    pset = generate(3)
    vals = sample(pset, lambda a, b: np.ones_like(a * b))
    assert vals.shape == (10,)
    assert np.all(vals == 1.0)


def test_sample_coordinate_frozen_order():
    pset = generate(2)
    vals = sample(pset, lambda a, b: a + 0.0 * b)
    assert np.allclose(vals, [1.0, 1.0, 0.0, 0.0, -1.0, -1.0], atol=1e-15)


def test_sample_product_chebyshev():
    pset = generate(4)
    f = lambda a, b: np.cos(2 * np.arccos(a)) * b
    vals = sample(pset, f)
    direct = np.array([f(p.x1, p.x2) for p in pset.points])
    assert np.allclose(vals, direct, atol=1e-15)


def test_sample_failure_names_node():
    pset = generate(2)

    def bad(a, b):
        if np.ndim(a) > 0:
            raise TypeError("scalar only")
        if a < -0.5:
            raise ValueError("boom")
        return 1.0

    with pytest.raises(SampleEvaluationError, match="k=2, j=1"):
        sample(pset, bad)


def test_interpolate_constant(rng):
    pset = generate(6)
    samples = np.ones(len(pset))
    for _ in range(10):
        x = tuple(rng.uniform(-1, 1, 2))
        assert interpolate(pset, samples, x) == pytest.approx(1.0, abs=1e-8)


def test_interpolate_reproduces_random_polynomials(rng):
    for n in (1, 2, 3, 5, 8, 13, 21, 32):
        pset = generate(n)
        coeffs = _random_poly(rng, n)
        samples = _poly_at_nodes(coeffs, pset)
        pts = rng.uniform(-1, 1, (100, 2))
        truth = np.einsum(
            "ab,aP,bP->P", coeffs,
            t_norm_values(n, pts[:, 0]), t_norm_values(n, pts[:, 1]),
        )
        got = np.array([interpolate(pset, samples, (p[0], p[1])) for p in pts])
        scale = max(1.0, np.max(np.abs(coeffs)))
        assert np.max(np.abs(got - truth)) <= 1e-8 * scale * len(pset)


def test_interpolate_at_node_returns_sample(rng):
    pset = generate(9)
    samples = rng.normal(size=len(pset))
    for pos in (0, 7, len(pset) - 1):
        got = interpolate(pset, samples, (pset.x1[pos], pset.x2[pos]))
        assert got == pytest.approx(samples[pos], abs=1e-9)


def test_interpolate_length_mismatch():
    pset = generate(3)
    with pytest.raises(ValueError, match="length"):
        interpolate(pset, np.ones(5), (0.0, 0.0))


def test_interpolate_outside_square():
    from padua.cheb import DomainError

    pset = generate(3)
    with pytest.raises(DomainError):
        interpolate(pset, np.ones(len(pset)), (1.5, 0.0))


def test_grid_axis_kinds():
    g = EvalGrid(5, "uniform")
    assert np.allclose(g.axis(), np.linspace(-1, 1, 5))
    g = EvalGrid(8, "chebyshev")
    ax = g.axis()
    assert ax.shape == (8,) and np.all(np.diff(ax) > 0) and np.all(np.abs(ax) < 1)
    with pytest.raises(ValueError):
        EvalGrid(1)
    with pytest.raises(ValueError):
        EvalGrid(4, "hexagonal")


def test_interpolate_grid_constant():
    pset = generate(4)
    out = interpolate_grid(pset, np.ones(len(pset)), EvalGrid(4))
    assert out.shape == (4, 4)
    assert np.allclose(out, 1.0, atol=1e-9)


def test_interpolate_grid_matches_pointwise(rng):
    pset = generate(5)
    samples = rng.normal(size=len(pset))
    grid = EvalGrid(7, "chebyshev")
    out = interpolate_grid(pset, samples, grid)
    ax = grid.axis()
    tol = 1e-12 * max(1.0, np.max(np.abs(samples)))
    for i in (0, 3, 6):
        for j in (1, 4):
            assert abs(out[i, j] - interpolate(pset, samples, (ax[i], ax[j]))) <= tol


def test_interpolate_grid_contains_node(rng):
    pset = generate(3)
    samples = rng.normal(size=len(pset))
    # the uniform m=3 grid contains the corner node (-1, -1)
    out = interpolate_grid(pset, samples, EvalGrid(3))
    from padua.points import find_index

    pos = pset.position(find_index(pset, (-1.0, -1.0), 1e-12))
    assert out[0, 0] == pytest.approx(samples[pos], abs=1e-9)


def test_direct_method_grid_matches_pointwise(rng, direct_lagrange_matrix):
    # grid values of the coefficient route against the direct kernel sum
    for n in (2, 7, 16, 32):
        pset = generate(n)
        samples = rng.normal(size=len(pset))
        grid = EvalGrid(9, "chebyshev")
        ax = grid.axis()
        out = interpolate_grid(pset, samples, grid)
        direct = direct_lagrange_matrix(pset, np.repeat(ax, 9), np.tile(ax, 9)) @ samples
        assert np.max(np.abs(out - direct.reshape(9, 9))) <= 1e-9 * (n + 1)
        for i in (0, 4, 8):
            assert abs(out[i, i] - interpolate(pset, samples, (ax[i], ax[i]))) \
                <= 1e-9 * (n + 1)


def test_interpolate_grid_reproduces_polynomials_to_rounding(rng):
    # truth from recurrence-based Chebyshev values, independent of the
    # library's trig tables; grid values reach ~50, so 1e-12 is ~100 ulps
    n = 32
    pset = generate(n)
    grid = EvalGrid(200, "chebyshev")
    ax = grid.axis()
    basis = np.array([t_norm_rec(k, ax) for k in range(n + 1)])
    for _ in range(3):
        coeffs = _random_poly(rng, n)
        out = interpolate_grid(pset, _poly_at_nodes(coeffs, pset), grid)
        truth = basis.T @ coeffs @ basis
        assert np.max(np.abs(out - truth)) <= 1e-12 * np.max(np.abs(coeffs))


def test_nonfinite_samples_rejected():
    pset = generate(3)
    grid = EvalGrid(4)
    for bad in (np.nan, np.inf, -np.inf):
        samples = np.ones(len(pset))
        samples[4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            interpolate_grid(pset, samples, grid)
        with pytest.raises(ValueError, match="k=1, j=3"):
            to_coefficients(pset, samples)


def test_grid_points_shape():
    grid = EvalGrid(4, "uniform")
    pts = grid.points()
    assert pts.shape == (16, 2)
    assert np.all(np.abs(pts) <= 1.0)


def test_idempotence(rng):
    pset = generate(7)
    samples = rng.normal(size=len(pset))
    once = np.array(
        [interpolate(pset, samples, (p.x1, p.x2)) for p in pset.points]
    )
    assert np.max(np.abs(once - samples)) <= 1e-9


def test_linearity(rng):
    pset = generate(5)
    f = rng.normal(size=len(pset))
    g = rng.normal(size=len(pset))
    a, b = 0.7, -1.3
    for _ in range(20):
        x = tuple(rng.uniform(-1, 1, 2))
        lhs = interpolate(pset, a * f + b * g, x)
        rhs = a * interpolate(pset, f, x) + b * interpolate(pset, g, x)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_partition_of_unity_all_degrees():
    grid = EvalGrid(100)
    ax = grid.axis()
    x1 = np.repeat(ax, len(ax))
    x2 = np.tile(ax, len(ax))
    for n in range(1, 65):
        pset = generate(n)
        mat = interp.lagrange_matrix(pset, x1, x2)
        worst = float(np.max(np.abs(mat.sum(axis=1) - 1.0)))
        assert worst <= 1e-8, f"partition of unity failed at degree {n}"


def test_lebesgue_function_basics(rng):
    pset = generate(8)
    pos = 11
    assert lebesgue_function(pset, (pset.x1[pos], pset.x2[pos])) == pytest.approx(
        1.0, abs=1e-8
    )
    for _ in range(20):
        x = tuple(rng.uniform(-1, 1, 2))
        assert lebesgue_function(pset, x) >= 1.0 - 1e-8


def test_lebesgue_estimates_nondecreasing_under_refinement():
    pset = generate(8)
    # nested uniform grids: midpoint refinement keeps every old node
    vals = [lebesgue_constant(pset, EvalGrid(m)) for m in (25, 49, 97)]
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12
    assert lebesgue_constant(generate(1), EvalGrid(30)) >= 1.0


def test_lebesgue_constant_matches_compact_kernel():
    # the coefficient route of lebesgue_constant against the compact-kernel
    # Lagrange matrix on the same grid points
    for n in (1, 2, 7, 16):
        pset = generate(n)
        for kind in ("uniform", "chebyshev"):
            for m in (10, 41):
                grid = EvalGrid(m, kind)
                x = grid.points()
                compact = np.abs(lagrange_matrix(pset, x[:, 0], x[:, 1])).sum(1).max()
                assert lebesgue_constant(pset, grid) == pytest.approx(compact,
                                                                      rel=1e-12)


def test_batched_coefficients_bitwise(rng):
    for dtype in (float, np.longdouble):
        for n in (1, 6, 17):
            pset = generate(n)
            batch = rng.normal(size=(2, 3, len(pset))).astype(dtype)
            coeffs = to_coefficients(pset, batch)
            assert coeffs.shape == (2, 3, n + 1, n + 1)
            assert coeffs.dtype == np.dtype(dtype)
            for i in np.ndindex(2, 3):
                assert np.array_equal(coeffs[i], to_coefficients(pset, batch[i]))


def test_batched_nonfinite_sample_reports_node():
    pset = generate(3)
    batch = np.ones((3, len(pset)))
    batch[1, 4] = np.nan
    batch[2, 0] = np.inf
    with pytest.raises(ValueError, match=r"2 non-finite sample\(s\), first nan at node "
                                         r"k=1, j=3"):
        to_coefficients(pset, batch)
    with pytest.raises(ValueError, match="need length 10 on the last axis"):
        to_coefficients(pset, np.ones((2, len(pset) - 1)))


def test_coefficients_match_direct_interpolation(rng, direct_lagrange_matrix):
    # the coefficient transform is the production route; the kernel sum is
    # its oracle
    for n in (2, 7, 16, 32):
        pset = generate(n)
        samples = rng.normal(size=len(pset))
        coeffs = to_coefficients(pset, samples)
        pts = rng.uniform(-1, 1, (50, 2))
        fast = product_series_at(coeffs, pts[:, 0], pts[:, 1])
        slow = direct_lagrange_matrix(pset, pts[:, 0], pts[:, 1]) @ samples
        assert np.max(np.abs(fast - slow)) <= 1e-9 * (n + 1)


def test_coefficient_degrees_truncated(rng):
    pset = generate(5)
    coeffs = to_coefficients(pset, rng.normal(size=len(pset)))
    ks = np.arange(6)
    assert np.all(coeffs[ks[:, None] + ks[None, :] > 5] == 0.0)
