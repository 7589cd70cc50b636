"""Seeded property tests: random degrees, points and polynomials.

Each test draws its cases from a numpy generator with a fixed seed, so a
failure reproduces exactly.  Degrees run over 1..40; polynomials have
uniform [-1, 1] coefficients in the orthonormal Chebyshev product basis,
and their reference values come from the three-term recurrence, not from
the trigonometric tables of the package.
"""

import numpy as np
import pytest

from padua.cubature import build_rule, integrate
from padua.interp import (
    EvalGrid,
    interpolate,
    interpolate_grid,
)
from padua.points import generate

DRAWS = 3


def _rec_table(kmax, x):
    """Orthonormal T_k(x), k = 0..kmax, by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    t = np.empty((kmax + 1,) + x.shape)
    t[0] = 1.0
    if kmax:
        t[1] = x
    for k in range(2, kmax + 1):
        t[k] = 2.0 * x * t[k - 1] - t[k - 2]
    t[1:] *= np.sqrt(2.0)
    return t


def _random_poly(rng, degree):
    """Coefficients of a random polynomial of total degree at most degree."""
    ks = np.arange(degree + 1)
    coeffs = rng.uniform(-1.0, 1.0, (degree + 1, degree + 1))
    coeffs[ks[:, None] + ks[None, :] > degree] = 0.0
    return coeffs


def _series(coeffs, x1, x2):
    """The polynomial of coeffs at the broadcast of x1 and x2."""
    t1 = _rec_table(coeffs.shape[0] - 1, x1)
    t2 = _rec_table(coeffs.shape[1] - 1, x2)
    return np.einsum("ab,a...,b...->...", coeffs, t1, t2)


def _degrees(rng):
    return [int(n) for n in rng.integers(1, 41, size=DRAWS)]


def _random_grid(rng):
    return EvalGrid(int(rng.integers(2, 40)), str(rng.choice(["uniform", "chebyshev"])))


@pytest.mark.parametrize("seed", range(4))
def test_interpolation_reproduces_polynomials(seed):
    rng = np.random.default_rng(1000 + seed)
    for n in _degrees(rng):
        pset = generate(n)
        coeffs = _random_poly(rng, n)
        samples = _series(coeffs, *pset.coords.T)
        pts = rng.uniform(-1.0, 1.0, (20, 2))
        got = np.array([interpolate(pset, samples, (a, b)) for a, b in pts])
        assert np.max(np.abs(got - _series(coeffs, pts[:, 0], pts[:, 1]))) <= 1e-11
        grid = _random_grid(rng)
        ax = grid.axis()
        on_grid = interpolate_grid(pset, samples, grid)
        assert np.max(np.abs(on_grid - _series(coeffs, ax[:, None], ax[None, :]))) <= 1e-11


@pytest.mark.parametrize("seed", range(4))
def test_fundamental_polynomials_are_cardinal_at_the_nodes(node_blocks, seed):
    rng = np.random.default_rng(2000 + seed)
    for n in _degrees(rng):
        for targets, sources, block in node_blocks(generate(n)):
            delta = targets[None, :, :, None] == sources[:, None, None, :]
            assert np.max(np.abs(block - delta)) <= 1e-13


@pytest.mark.parametrize("seed", range(4))
def test_cubature_is_exact_to_degree_2n_minus_1(seed):
    # the weighted integral of the orthonormal expansion is its (0, 0) term
    rng = np.random.default_rng(3000 + seed)
    for n in _degrees(rng):
        coeffs = _random_poly(rng, 2 * n - 1)
        got = integrate(build_rule(generate(n)), lambda a, b: _series(coeffs, a, b))
        assert abs(got - coeffs[0, 0]) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_grid_values_agree_with_pointwise_values(seed):
    rng = np.random.default_rng(4000 + seed)
    for n in _degrees(rng):
        pset = generate(n)
        samples = rng.normal(size=len(pset))
        grid = _random_grid(rng)
        ax = grid.axis()
        on_grid = interpolate_grid(pset, samples, grid)
        pointwise = np.array([[interpolate(pset, samples, (a, b)) for b in ax]
                              for a in ax])
        scale = max(1.0, np.max(np.abs(samples)))
        assert np.max(np.abs(on_grid - pointwise)) <= 1e-13 * scale
