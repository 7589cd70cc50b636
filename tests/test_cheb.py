import numpy as np
import pytest

from padua import cheb
from padua.cheb import (
    DegreeError,
    DomainError,
    basis_vector,
    cheb_t,
    cheb_t_norm,
    cheb_u,
    cospi_frac,
    product_series_grid,
    series_on_tables,
    t_norm_lattice,
    t_norm_values,
    total_degree_mask,
)
from padua import analysis
from padua.analysis import gauss_chebyshev_axis
from padua.interp import EvalGrid, lattice_tables
from padua.points import PaduaSet

import oracles

SQRT2 = np.sqrt(2.0)


def test_first_kind_frozen_values():
    assert cheb_t(0, 0.3) == 1.0
    assert cheb_t(3, np.cos(np.pi / 9)) == pytest.approx(0.5, abs=1e-14)
    assert cheb_t(2, -0.5) == pytest.approx(-0.5, abs=1e-14)


def test_second_kind_frozen_values():
    assert cheb_u(1, 0.25) == pytest.approx(0.5, abs=1e-14)
    assert cheb_u(3, 1.0) == 4.0
    assert cheb_u(2, 0.0) == pytest.approx(-1.0, abs=1e-14)


def test_second_kind_boundary_limits():
    for k in range(9):
        assert cheb_u(k, 1.0) == pytest.approx(k + 1.0, abs=1e-12)
        assert cheb_u(k, -1.0) == pytest.approx((k + 1.0) * (-1.0) ** k, abs=1e-12)


def test_second_kind_within_rounding_of_mpmath(rng):
    # near +-1, sin((k+1) theta) / sin(theta) on an unreduced theta loses
    # about half the digits (3.3e-10 at k = 2), far above this bound
    pytest.importorskip("mpmath")
    x = oracles.end_and_uniform_points(rng)
    worst = {}
    for k in (1, 2, 5, 17, 64, 200, 1000, 4096):
        refs = [oracles.chebyu_mp(k, float(v)) for v in x]
        worst[k] = oracles.error_against_mp(cheb_u(k, x), refs)
    assert {k: e for k, e in worst.items() if e > 1e-14 * (k + 1)} == {}


def test_dirichlet_limits_and_signs():
    # R_m(j pi) = m (-1)^(j(m-1)), R_0 = 0, and U_k = R_{k+1}(arccos x)
    t = np.pi * np.arange(-3, 4.0)
    for m in range(6):
        (r,) = cheb.dirichlet((m,), t)
        assert r.tolist() == [m * (-1.0) ** (j * (m - 1)) for j in range(-3, 4)]
    assert cheb.dirichlet((2, 3), 0.25) == [
        pytest.approx(np.sin(0.5) / np.sin(0.25), abs=1e-15),
        pytest.approx(np.sin(0.75) / np.sin(0.25), abs=1e-15),
    ]


def test_one_point_calls_return_python_floats():
    assert type(cheb.float_if_scalar(np.float64(2.5))) is float
    assert type(cheb.float_if_scalar(np.array(2.5))) is float
    out = np.zeros(1)
    assert cheb.float_if_scalar(out) is out
    for value in (cheb_t(3, 0.2), cheb_u(3, 0.2), cheb_u(3, -1.0), cheb_t_norm(2, 0.2)):
        assert type(value) is float


def test_normalized_frozen_values():
    assert cheb_t_norm(0, 0.9) == 1.0
    assert cheb_t_norm(1, 0.5) == pytest.approx(SQRT2 * 0.5, abs=1e-15)
    assert cheb_t_norm(2, 0.0) == pytest.approx(-SQRT2, abs=1e-15)


def test_cosine_identity_sweep(rng):
    theta = rng.uniform(0.0, np.pi, 1000)
    x = np.cos(theta)
    for k in range(65):
        assert np.max(np.abs(cheb_t(k, x) - np.cos(k * theta))) <= 1e-12


def test_three_term_recurrence_residual(rng):
    x = rng.uniform(-1.0, 1.0, 500)
    for k in range(1, 64):
        resid = cheb_t(k + 1, x) - 2.0 * x * cheb_t(k, x) + cheb_t(k - 1, x)
        assert np.max(np.abs(resid)) <= 1e-12


def test_matches_recurrence_oracle(rng):
    x = rng.uniform(-1.0, 1.0, 200)
    for k in (0, 1, 2, 5, 11, 30):
        assert np.allclose(cheb_t(k, x), oracles.cheb_t_rec(k, x), atol=1e-11)
        assert np.allclose(cheb_u(k, x), oracles.cheb_u_rec(k, x), atol=5e-10)


def test_bounded_on_interval():
    x = np.linspace(-1.0, 1.0, 2001)
    for k in (1, 7, 32, 64):
        assert np.max(np.abs(cheb_t(k, x))) <= 1.0 + 1e-14


def test_domain_rejection():
    with pytest.raises(DomainError):
        cheb_t(3, 1.0000001)
    with pytest.raises(DomainError):
        cheb_u(3, -1.5)
    with pytest.raises(DomainError):
        basis_vector(2, (0.0, 2.0))


def test_degree_cap():
    assert cheb_t(cheb.MAX_DEGREE, 0.5) == pytest.approx(
        np.cos(cheb.MAX_DEGREE * np.arccos(0.5))
    )
    with pytest.raises(DegreeError):
        cheb_t(cheb.MAX_DEGREE + 1, 0.5)
    with pytest.raises(DegreeError):
        cheb_t(-1, 0.5)


@pytest.mark.parametrize("call, text", [
    (lambda: PaduaSet(1.5), "degree must be an integer, not 1.5"),
    (lambda: PaduaSet(True), "degree must be an integer, not True"),
    (lambda: PaduaSet(np.float64(3.0)), r"degree must be an integer, not np\.float64\(3\.0\)"),
    (lambda: cheb_t(2.5, 0.1), "degree must be an integer, not 2.5"),
    (lambda: lattice_tables(2.0), "degree must be an integer, not 2.0"),
    (lambda: cheb.check_degree(False, what="max degree"), "max degree must be an integer, not False"),
    # the grid size and the quadrature size go through the same check
    (lambda: EvalGrid(True), "grid size m must be an integer, not True"),
    (lambda: gauss_chebyshev_axis(True), "quadrature size must be an integer, not True"),
])
def test_non_integer_degree_or_size_is_named(call, text):
    with pytest.raises(TypeError, match=f"^{text}$"):
        call()
    # numpy integers still pass, as plain ints
    assert type(cheb.check_degree(np.uint16(3))) is int


@pytest.mark.parametrize("size", [0, -3])
def test_gauss_chebyshev_axis_refuses_a_size_below_one(size):
    with pytest.raises(ValueError, match="^quadrature size must be positive$"):
        gauss_chebyshev_axis(size)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 40])
def test_basis_vector_bitwise_the_per_coordinate_table_form(rng, n):
    # the earlier form, one t_norm_values table per coordinate, on
    # coordinates of one number of axes, where it broadcast correctly
    for shape1, shape2 in (((30,), (30,)), ((6, 1), (1, 9)), ((), ()), ((4, 3), (4, 3))):
        x = (rng.uniform(-1, 1, shape1), rng.uniform(-1, 1, shape2))
        t1, t2 = (t_norm_values(n, c) for c in x)
        expect = t1[::-1] * t2
        got = basis_vector(n, x)
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("n", [1, 3, 8])
def test_basis_vector_on_coordinates_of_different_ndim_is_pointwise(rng, n):
    # a (2,) coordinate against a (2, 2) one: column (i, j) is the row at the
    # broadcast point (i, j)
    x1, x2 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (2, 2))
    got = basis_vector(n, (x1, x2))
    assert got.shape == (n + 1, 2, 2)
    b1, b2 = np.broadcast_arrays(x1, x2)
    for i in np.ndindex(2, 2):
        assert np.array_equal(got[(slice(None),) + i], basis_vector(n, (b1[i], b2[i])))


def test_basis_vector_trivial_cases():
    assert np.array_equal(basis_vector(0, (0.2, -0.7)), [1.0])
    assert np.allclose(basis_vector(1, (0.0, 0.0)), [0.0, 0.0], atol=1e-15)


def test_basis_vector_derived_value():
    # entries are products of the normalized 1-D values; cross-checked
    # against the recurrence oracle
    got = basis_vector(2, (0.0, -0.5))
    expect = [-SQRT2, 0.0, -SQRT2 / 2.0]
    assert np.allclose(got, expect, atol=1e-14)
    oracle = [
        oracles.t_norm_rec(2 - j, 0.0) * oracles.t_norm_rec(j, -0.5) for j in range(3)
    ]
    assert np.allclose(got, oracle, atol=1e-14)


def test_basis_vector_length_and_batch(rng):
    pts = rng.uniform(-1, 1, (2, 7))
    vals = basis_vector(5, (pts[0], pts[1]))
    assert vals.shape == (6, 7)
    one = basis_vector(5, (pts[0][3], pts[1][3]))
    assert np.allclose(vals[:, 3], one, atol=1e-15)


def test_discrete_orthonormality():
    # tensor quadrature of P_a * P_b over the square, with enough nodes for
    # the degree-2n integrand
    for n in (3, 7):
        m = n + 2
        for a in range(n + 1):
            for b in range(n + 1):
                def product(u, v, a=a, b=b):
                    pa = basis_vector(n, (u, v))[a]
                    pb = basis_vector(n, (u, v))[b]
                    return pa * pb

                got = oracles.gauss_chebyshev_integral(product, m)
                expect = 1.0 if a == b else 0.0
                assert abs(got - expect) <= 1e-10


# degrees near powers of two and MAX_DEGREE, beside every n up to 200
_COSPI_DEGREES = [*range(1, 201), 511, 512, 1023, 1024, 2047, 2048, 2049, 4096, 4097, 8192]


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_cospi_frac_table_bitwise_per_entry_form(dtype):
    # every phase of one period and its mirror, negatives and large products,
    # as a flat array, as a 2-D lattice table and as one integer
    for n in _COSPI_DEGREES:
        for den in (n, n + 1, 2 * n):
            nums = np.concatenate([np.arange(-den, 3 * den + 2), 7919 * np.arange(40)])
            table = np.multiply.outer(np.arange(5), nums[::97])
            for num in (nums, table, den - 1):
                got = cospi_frac(num, den, dtype)
                expect = oracles.cospi_frac_per_entry(num, den, dtype)
                assert type(got) is type(expect) and np.shape(got) == np.shape(expect)
                assert np.asarray(got).dtype == dtype
                # equal values and signs (longdouble bytes carry padding)
                assert np.array_equal(got, expect), (n, den)
                assert np.array_equal(np.signbit(got), np.signbit(expect)), (n, den)


def test_lattice_tables_match_direct_evaluation():
    n = 12
    nums = np.arange(n + 1)
    x = cospi_frac(nums, n)
    table = t_norm_lattice(20, nums, n)
    direct = t_norm_values(20, x)
    assert np.max(np.abs(table - direct)) <= 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_product_series_grid_one_table_per_axis(rng, dtype):
    # each side builds its own table, so the same axis object on both sides
    # and a copy give the same values
    ax = np.linspace(-1, 1, 37).astype(dtype)
    for shape in ((9, 9), (3, 9, 9)):
        coeffs = rng.uniform(-1, 1, shape).astype(dtype)
        one = product_series_grid(coeffs, ax, ax)
        assert one.dtype == dtype
        assert np.array_equal(one, product_series_grid(coeffs, ax, ax.copy()))
    # non-square coefficients keep a table of their own per side
    coeffs = rng.uniform(-1, 1, (9, 5)).astype(dtype)
    expect = t_norm_values(8, ax, dtype).T @ coeffs @ t_norm_values(4, ax, dtype)
    assert np.array_equal(product_series_grid(coeffs, ax, ax), expect)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_product_series_grid_2d_bitwise_equal_to_matmul(rng, dtype):
    # 2-D products go through cheb.series_on_tables (np.dot), which sums each
    # entry in the same order as @: the values are bitwise those of t.T @ c @ t
    for n, m in ((0, 1), (1, 2), (4, 1), (16, 37), (48, 200)):
        ax = np.sort(rng.uniform(-1, 1, m)).astype(dtype)
        coeffs = rng.uniform(-1, 1, (n + 1, n + 1)).astype(dtype)
        t = t_norm_values(n, ax, dtype)
        got = product_series_grid(coeffs, ax, ax)
        assert got.dtype == dtype
        assert np.array_equal(got, t.T @ coeffs @ t)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_series_on_tables_reads_the_leading_rows(rng, dtype):
    # tables longer than x: rows past x's own sizes are never read, and the
    # result is bitwise that of the exact-size tables, 2-D and batched
    b1 = rng.uniform(-1, 1, (12, 7)).astype(dtype)
    b2 = rng.uniform(-1, 1, (9, 5)).astype(dtype)
    spoiled1, spoiled2 = b1.copy(), b2.copy()
    spoiled1[6:] = np.nan
    spoiled2[4:] = np.nan
    for shape in ((6, 4), (3, 6, 4)):
        x = rng.uniform(-1, 1, shape).astype(dtype)
        got = series_on_tables(x, b1, b2)
        assert got.dtype == dtype and got.shape == shape[:-2] + (7, 5)
        assert np.array_equal(got, series_on_tables(x, spoiled1, spoiled2))
        assert np.array_equal(got, series_on_tables(x, b1[:6].copy(), b2[:4].copy()))
        assert np.array_equal(got, b1[:6].T @ x @ b2[:4])
        expect = np.einsum("...ab,ai,bj->...ij", x.astype(float), b1[:6].astype(float),
                           b2[:4].astype(float))
        assert np.max(np.abs(got - expect)) <= 1e-14


def test_total_degree_mask():
    for n in range(6):
        a, b = np.indices((n + 1, n + 1))
        mask = total_degree_mask(n)
        assert mask.dtype == bool and np.array_equal(mask, a + b <= n)
        assert mask.sum() == (n + 1) * (n + 2) // 2


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_chebyshev_grid_axis_bitwise_the_gauss_chebyshev_formula(dtype):
    # the grid axis is the sorted quadrature axis, bitwise the formula
    # cos((2i-1)pi/(2m)) written out here
    assert analysis.gauss_chebyshev_axis is cheb.gauss_chebyshev_axis
    for m in range(2, 1001):
        old = np.sort(cospi_frac(2 * np.arange(1, m + 1) - 1, 2 * m, dtype))
        got = EvalGrid(m, "chebyshev").axis(dtype)
        # equal values and signs: bitwise equal, without longdouble's padding
        assert got.dtype == dtype and np.array_equal(got, old), m
        assert np.array_equal(np.signbit(got), np.signbit(old)), m
