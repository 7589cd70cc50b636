import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import kernel_star_double_sum, lebesgue_grid_max, t_norm_rec
from padua import cheb, functions, fundamental_poly, interp, kernel
from padua.cheb import cospi_frac, product_series_at, t_norm_lattice, t_norm_values
from padua.functions import evaluate
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
    k, eta = pset.lattice_index(np.arange(len(pset)))
    b1 = t_norm_lattice(n, k, n)
    b2 = t_norm_lattice(n, eta, n + 1)
    return ((coeffs.T @ b1) * b2).sum(0)


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
    direct = np.array([f(x1, x2) for x1, x2 in pset.coords])
    assert np.allclose(vals, direct, atol=1e-15)


def test_sample_failure_names_node():
    pset = generate(2)

    def bad(a, b):
        if np.ndim(a) > 0:
            raise TypeError("scalar only")
        if a < -0.5:
            raise ValueError("boom")
        return 1.0

    with pytest.raises(SampleEvaluationError, match="k=2, j=1") as info:
        sample(pset, bad)
    # the coordinates print as Python floats, those of the node in coords, and
    # the coordinates of the sampled set stay unbuilt
    x1, x2 = generate(2).coords[pset.position((2, 1))].tolist()
    assert str(info.value).endswith(f"k=2, j=1, x=({x1!r}, {x2!r})")
    assert "coords" not in pset.__dict__


def test_sample_scalar_fallback_reads_columns():
    # a callable that rejects arrays takes the per-node path, which reads the
    # lattice axes block by block and leaves coords unbuilt
    def poly(a, b):
        return a * a * b + 3.0 * a - b

    def scalar_only(a, b):
        if np.ndim(a) > 0:
            raise TypeError("scalar only")
        return poly(a, b)

    pset = generate(9)
    vals = sample(pset, scalar_only)
    assert "coords" not in pset.__dict__
    assert np.array_equal(vals, sample(pset, poly))


def test_sample_does_not_retry_after_memory_error():
    # f's first call is the first block: the even-k sub-grid of n = 6, rows
    # k = 0, 2, 4, 6 by etas 1, 3, 5, 7
    calls = []

    def f(a, b):
        calls.append(np.broadcast_shapes(np.shape(a), np.shape(b)))
        raise MemoryError

    pset = generate(6)
    with pytest.raises(MemoryError):
        sample(pset, f)
    assert calls == [(4, 4)]


def test_sample_80bit_scalar_fallback_equals_vectorized():
    # the per-node path hands f 80-bit scalars and stores 80-bit values, so
    # it matches the vectorized 80-bit result bit for bit
    ld = np.longdouble

    def poly(a, b):
        return a * a * b + 3 * a - b

    def scalar_only(a, b):
        if np.ndim(a) > 0:
            raise TypeError("scalar only")
        assert type(a) is ld and type(b) is ld
        return poly(a, b)

    pset = generate(9)
    vec = sample(pset, poly, ld)
    assert vec.dtype == ld
    assert np.array_equal(sample(pset, scalar_only, ld), vec)
    n = pset.degree
    k, eta = pset.lattice_index(np.arange(len(pset)))
    assert np.array_equal(vec, poly(cospi_frac(k, n, ld), cospi_frac(eta, n + 1, ld)))


@pytest.mark.parametrize("n", [*range(1, 65), 2048])
def test_sample_float64_coordinates_are_the_sets(n):
    # the coordinates arrive per block of lattice rows, as a column of x1 and
    # a row of x2; in sub-grid order they are bitwise the set's coords
    seen = []

    def f(a, b):
        assert a.shape[1] == b.shape[0] == 1
        seen.append(np.broadcast_arrays(a, b))
        return a + b

    pset = generate(n)
    sample(pset, f)
    order = np.concatenate([(pset.row_starts[ks][:, None] + np.arange(etas.size)).ravel()
                            for ks, etas in pset.sub_grids()])
    for d, want in enumerate(pset.coords.T):
        got = np.concatenate([block[d].ravel() for block in seen])
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want[order].view(np.int64))


def _old_sample(pset, f, dtype):
    """sample's former route: f once on the per-node coordinate arrays."""
    n = pset.degree
    k, eta = pset.lattice_index(np.arange(len(pset)))
    return evaluate(f, cospi_frac(k, n, dtype), cospi_frac(eta, n + 1, dtype), dtype)


def _same_bits(a, b):
    # an 80-bit value fills 10 of its 16 bytes; the rest is padding
    width = 10 if a.dtype == np.longdouble else 8
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.uint8).reshape(a.size, -1)[:, :width],
                               b.view(np.uint8).reshape(b.size, -1)[:, :width]))


def _scalar_only(f):
    def g(a, b):
        if np.ndim(a) > 0:
            raise TypeError("scalar only")
        return f(a, b)
    return g


@pytest.mark.parametrize("dtype", [float, np.longdouble])
@pytest.mark.parametrize("n", [*range(1, 65), 1024])
def test_sample_bitwise_the_per_node_route(n, dtype):
    rng = np.random.default_rng(n)
    coeffs = rng.uniform(-1.0, 1.0, (6, 5))

    def series(a, b):
        # sum of c[i, j] T_i(a) T_j(b) by Clenshaw, elementwise on the broadcast
        return np.polynomial.chebyshev.chebval(b, np.polynomial.chebyshev.chebval(a, coeffs),
                                               tensor=False)

    pset = generate(n)
    for f in (*functions.BUILTIN_FUNCTIONS.values(), series):
        assert _same_bits(sample(pset, f, dtype), _old_sample(pset, f, dtype)), (n, f)
    if n in (1, 2, 3, 16, 33, 64):
        # node by node, each node's coordinates are the same scalars
        for f in (functions.get("franke"), series):
            g = _scalar_only(f)
            assert _same_bits(sample(pset, g, dtype), _old_sample(pset, g, dtype)), (n, f)


def test_sample_failure_names_first_node_in_sub_grid_order():
    # rows k = 1 (odd) and k = 2 (even) fail; the even-k sub-grid comes
    # first, so node k=2, j=1 is named although k=1 comes first in set order
    n = 6
    pset = generate(n)

    def fails_inside(a, b):
        if np.ndim(a) > 0:
            raise TypeError("scalar only")
        if 0.0 < a < 0.9:
            raise ValueError("boom")
        return 1.0

    def message(k, j, node=""):
        x1, x2 = pset.coords[pset.position((k, j))].tolist()
        return f"function evaluation failed at {node}x=({x1!r}, {x2!r})"

    with pytest.raises(SampleEvaluationError) as info:
        _old_sample(pset, fails_inside, float)
    assert str(info.value) == message(1, 1)
    with pytest.raises(SampleEvaluationError) as info:
        sample(pset, fails_inside)
    assert str(info.value) == message(2, 1, "node k=2, j=1, ")


def test_sample_peak_memory_at_degree_1024():
    # f's values fill the 1025 x 1026 lattice block by block (8.4 MB), read
    # back in set order through the set's k and eta arrays (4.2 MB each, and
    # j of the node that eta is built from); the per-node route's coordinate
    # arrays and f's temporaries over all 525825 nodes peaked at 42.1 MB, the
    # sub-grid blocks at 25.3 MB
    pset = generate(1024)
    tracemalloc.start()
    try:
        sample(pset, functions.get("franke"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6


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
        got = interpolate(pset, samples, tuple(pset.coords[pos]))
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


@pytest.mark.parametrize("m", [2.5, 50.0, "50"])
def test_grid_size_must_be_an_integer(m):
    # refused at construction with m named, not later inside numpy
    with pytest.raises(TypeError, match="grid size m must be an integer"):
        EvalGrid(m)


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
    once = np.array([interpolate(pset, samples, tuple(x)) for x in pset.coords])
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


def test_partition_of_unity_to_rounding_all_degrees(rng):
    # the closed-form coefficients keep the sum of the fundamental
    # polynomials at rounding level, beside the 1e-8 check above
    x = np.vstack([EvalGrid(30, "chebyshev").points(), rng.uniform(-1.0, 1.0, (100, 2)),
                   [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (0.0, 1.0)]])
    for n in range(1, 65):
        mat = lagrange_matrix(generate(n), x[:, 0], x[:, 1])
        worst = float(np.max(np.abs(mat.sum(axis=1) - 1.0)))
        assert worst <= 1e-13, f"partition of unity off by {worst} at degree {n}"


@pytest.mark.parametrize("n", [1, 2, 7, 16, 40])
def test_lagrange_matrix_matches_double_sum_oracle(rng, direct_lagrange_matrix, n):
    pset = generate(n)
    x = np.vstack([rng.uniform(-1.0, 1.0, (20, 2)),
                   [(1.0, 1.0), (-1.0, -1.0), (1.0, 0.3), (-0.4, -1.0), (0.0, 0.0)],
                   pset.coords[::7]])
    got = lagrange_matrix(pset, x[:, 0], x[:, 1])
    expect = direct_lagrange_matrix(pset, x[:, 0], x[:, 1])
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) <= 1e-13


def test_lagrange_matrix_broadcasts_coordinates(rng):
    # rows follow the C order of the broadcast shape of x1 and x2
    pset = generate(8)
    x2 = np.array([0.1, 0.2])
    got = lagrange_matrix(pset, 0.5, x2)
    assert got.shape == (2, len(pset))
    assert np.max(np.abs(got - lagrange_matrix(pset, [0.5, 0.5], x2))) <= 1e-15
    a1, a2 = rng.uniform(-1.0, 1.0, (3, 4)), rng.uniform(-1.0, 1.0, (1, 4))
    got = lagrange_matrix(pset, a1, a2)
    b1, b2 = np.broadcast_arrays(a1, a2)
    assert got.shape == (12, len(pset))
    assert np.max(np.abs(got - lagrange_matrix(pset, b1.ravel(), b2.ravel()))) <= 1e-15
    for i, j in ((0, 0), (1, 2), (2, 3)):
        row = lagrange_matrix(pset, a1[i, j], a2[0, j])
        assert np.max(np.abs(got[4 * i + j] - row[0])) <= 1e-15
    with pytest.raises(ValueError):
        lagrange_matrix(pset, np.zeros(3), np.zeros(2))


def test_lagrange_matrix_splits_large_lattices_with_bounded_memory():
    # at n = 1024 one point's part of a sub-grid holds 5.3e5 values, so it is
    # split over eta; the 12.6 MB result, the two 8.4 MB lattice tables and
    # blocks of 1 MB stay well below the 149 MB the node-side trig tables took
    n = 1024
    pset = generate(n)
    x1, x2 = np.array([0.3, -0.9, 1.0]), np.array([-0.2, 0.7, -1.0])
    tracemalloc.start()
    try:
        mat = lagrange_matrix(pset, x1, x2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.nbytes == 3 * len(pset) * 8
    assert peak < 40e6
    assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-12
    # one column at a time, in O(n) per point: the same blocks on a one-node
    # grid, whose matrix products over a have another shape
    for pos in (0, 1000, len(pset) // 2, len(pset) - 1):
        col = fundamental_poly(pset, pset.node_index(pos), (x1, x2))
        assert np.max(np.abs(col - mat[:, pos])) <= 1e-14


@pytest.mark.parametrize("n", [511, 512, 4096])
def test_fundamental_poly_at_high_degree_matches_tail_sum_oracle(rng, n):
    # the blocked route on a one-node grid against the O(n) tail-sum form, for
    # the vertex (n, n+1) and an interior node of row n // 2: at 200 random
    # points, at the node itself and at its neighbour eta + 2 in the same row
    pset = generate(n)
    starts = pset.row_starts
    for pos, step in ((len(pset) - 1, -1), ((starts[n // 2] + starts[n // 2 + 1]) // 2, 1)):
        (k,), (eta,) = pset.lattice_index([pos])
        near = pset.lattice_index([pos + step])[1][0]
        x1 = np.concatenate([rng.uniform(-1.0, 1.0, 200), cospi_frac([k, k], n)])
        x2 = np.concatenate([rng.uniform(-1.0, 1.0, 200), cospi_frac([eta, near], n + 1)])
        got = fundamental_poly(pset, (int(k), int(pos - starts[k] + 1)), (x1, x2))
        expect = oracles.fundamental_poly_tail(n, k, eta, x1, x2)
        assert np.max(np.abs(got - expect)) <= 1e-13
        assert abs(got[-2] - 1.0) <= 1e-13 and abs(got[-1]) <= 1e-13


def test_one_node_blocks_are_sized_by_their_grid(rng):
    # a one-node grid fills each block with as many points as the entry
    # bound allows, not with as few as a sub-grid's (n+3)//2 etas would
    n, count = 4096, 1000
    x = rng.uniform(-1.0, 1.0, (2, count))
    _, blocks = interp._lagrange_blocks(n, (x[0], x[1]), [(np.array([3]), np.array([2]))])
    per_block = interp._BLOCK_ENTRIES // (n + 1)
    assert sum(1 for _ in blocks) <= -(-count // per_block)


@pytest.mark.parametrize("entries", [17, 50, 400])
def test_lagrange_matrix_blocks_do_not_change_values(rng, monkeypatch, entries):
    # one eta per block (17 values at n = 16), a split that leaves a short
    # last block, and several points per block against the default blocks
    pset = generate(16)
    x = rng.uniform(-1.0, 1.0, (9, 2))
    expect = lagrange_matrix(pset, x[:, 0], x[:, 1])
    monkeypatch.setattr(interp, "_BLOCK_ENTRIES", entries)
    got = lagrange_matrix(pset, x[:, 0], x[:, 1])
    assert np.max(np.abs(got - expect)) <= 1e-15


@pytest.mark.parametrize("n, count", [(1, 7), (2, 7), (15, 40), (16, 40), (511, 3), (512, 2)])
def test_lagrange_matrix_strided_writes_bitwise_scatter(rng, n, count):
    # the blocks land through strided set-order views, with the bits of the
    # fancy-index scatter; from n = 511 on each sub-grid is split over eta
    pset = generate(n)
    x = rng.uniform(-1.0, 1.0, (count, 2))
    got = lagrange_matrix(pset, x[:, 0], x[:, 1])
    assert got.tobytes() == oracles.lagrange_matrix_scatter(pset, x[:, 0], x[:, 1]).tobytes()


def test_lebesgue_function_array_matches_scalar_calls(rng):
    pset = generate(8)
    x1, x2 = np.array([0.1, 0.9]), np.array([0.2, -0.99])
    got = lebesgue_function(pset, (x1, x2))
    assert got.shape == (2,)
    for i in range(2):
        single = lebesgue_function(pset, (x1[i], x2[i]))
        assert isinstance(single, float)
        assert abs(got[i] - single) <= 1e-14
    assert got[0] == pytest.approx(3.9505, abs=1e-4)
    assert got[1] == pytest.approx(4.1943, abs=1e-4)
    a1, a2 = rng.uniform(-1.0, 1.0, (2, 3)), rng.uniform(-1.0, 1.0, 3)
    grid = lebesgue_function(pset, (a1, a2))
    assert grid.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert abs(grid[i, j] - lebesgue_function(pset, (a1[i, j], a2[j]))) <= 1e-14


@pytest.mark.parametrize("entries", [None, 17, 400])
def test_lebesgue_function_matches_lagrange_matrix_abs_sum(rng, monkeypatch, entries):
    # the blocks are summed as they come, against the row sums of the whole
    # matrix; small blocks split each sub-grid over eta and the points over
    # many blocks
    if entries is not None:
        monkeypatch.setattr(interp, "_BLOCK_ENTRIES", entries)
    a1, a2 = rng.uniform(-1.0, 1.0, (7, 1)), rng.uniform(-1.0, 1.0, 5)
    corners = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [0.0, -1.0]])
    for n in (1, 2, 7, 16, 33):
        pset = generate(n)
        got = lebesgue_function(pset, (a1, a2))
        assert got.shape == (7, 5)
        expect = np.abs(lagrange_matrix(pset, a1, a2)).sum(axis=-1)
        assert np.max(np.abs(got.ravel() - expect)) <= 1e-13
        at = lebesgue_function(pset, (corners[:, 0], corners[:, 1]))
        expect = np.abs(lagrange_matrix(pset, corners[:, 0], corners[:, 1])).sum(axis=-1)
        assert np.max(np.abs(at - expect)) <= 1e-13


def test_lebesgue_function_bounded_memory_matches_constant():
    # 10^4 points at n = 128: the 8385 x 10^4 matrix (671 MB) is never formed,
    # and the grid maximum is the tensor-grid route's Lebesgue constant
    pset, grid = generate(128), EvalGrid(100)
    x = grid.points()
    tracemalloc.start()
    try:
        vals = lebesgue_function(pset, (x[:, 0], x[:, 1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.shape == (grid.m * grid.m,)
    assert peak <= 16e6
    const = lebesgue_constant(pset, grid)
    assert abs(vals.max() - const) <= 1e-12 * const


def test_lebesgue_function_basics(rng):
    pset = generate(8)
    pos = 11
    assert lebesgue_function(pset, tuple(pset.coords[pos])) == pytest.approx(
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
    # lebesgue_constant's half-grid products against the Lagrange matrix of
    # the whole grid, taken point by point; 31 and 33 reflect x2, 32 x1, and
    # the odd m = 41 puts grid points on the fold line
    cases = [(n, m) for n in (1, 2, 7, 16) for m in (10, 41)]
    cases += [(31, 41), (32, 41), (33, 41)]
    for n, m in cases:
        pset = generate(n)
        for kind in ("uniform", "chebyshev"):
            grid = EvalGrid(m, kind)
            x = grid.points()
            compact = np.abs(lagrange_matrix(pset, x[:, 0], x[:, 1])).sum(1).max()
            assert lebesgue_constant(pset, grid) == pytest.approx(compact, rel=1e-12)


@pytest.mark.parametrize("n", range(1, 14))
def test_lebesgue_constant_matches_double_sum_oracle(n):
    # grid axes and nodes written out here, kernel values from the nested sum;
    # n = 1..13 folds the grid over x1 (even n) and over x2 (odd n), and
    # the odd m = 9 puts grid points on the fold line, the even m = 10 none
    for m in (9, 10):
        axes = {
            "uniform": np.linspace(-1.0, 1.0, m),
            "chebyshev": np.sort(np.cos((2 * np.arange(1, m + 1) - 1) * np.pi / (2 * m))),
        }
        for kind, axis in axes.items():
            got = lebesgue_constant(generate(n), EvalGrid(m, kind))
            assert got == pytest.approx(lebesgue_grid_max(n, axis), rel=1e-13)


def test_lebesgue_constant_is_the_non_node_corner_value():
    # observed, not proved: the maximum on a grid with the corners is the
    # Lebesgue function at the corner of the half grid that is not a node,
    # (-1, 1) for even n and (1, -1) for odd n, and at its mirror (1, 1);
    # the Chebyshev grid has no boundary points and never exceeds it
    for n in [*range(1, 41), 63, 64, 65]:
        pset = generate(n)
        corner = lebesgue_function(pset, (-1.0, 1.0) if n % 2 == 0 else (1.0, -1.0))
        mirror = lebesgue_function(pset, (1.0, 1.0))
        for m in (11, 20, 41):
            got = lebesgue_constant(pset, EvalGrid(m))
            assert abs(got - corner) <= 2e-15 * corner
            assert abs(got - mirror) <= 2e-15 * mirror
            assert lebesgue_constant(pset, EvalGrid(m, "chebyshev")) <= corner * (1 + 2e-15)


def test_lebesgue_constant_skips_coefficient_route(monkeypatch):
    # the fundamental polynomials' coefficients are closed-form: no
    # projection of unit samples and no per-batch tensor series
    def refuse(*args, **kwargs):
        raise AssertionError("lebesgue_constant went through the coefficient route")

    expect = lebesgue_constant(generate(9), EvalGrid(20, "chebyshev"))
    monkeypatch.setattr(interp, "to_coefficients", refuse)
    monkeypatch.setattr(cheb, "product_series_grid", refuse)
    assert lebesgue_constant(generate(9), EvalGrid(20, "chebyshev")) == expect


def test_lebesgue_constant_memory():
    # the unit-sample route through to_coefficients peaked at 12.4 MB here;
    # the product of one lattice row of kept nodes must stay below it
    pset = generate(32)
    grid = EvalGrid(200, "chebyshev")
    tracemalloc.start()
    try:
        lebesgue_constant(pset, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.4e6


@pytest.mark.parametrize("n", [16, 17])
def test_lebesgue_constant_builds_no_node_arrays(n):
    # the grid-block tables are per axis: no per-node array of the set is read
    pset = generate(n)
    lebesgue_constant(pset, EvalGrid(20))
    assert vars(pset) == {"degree": n}


@pytest.mark.parametrize("n, m", [(64, 200), (65, 200), (128, 100), (16, 41)])
def test_lebesgue_constant_peak_within_lebesgue_entries(n, m):
    # lebesgue_entries bounds what the run holds, so check_lebesgue_size
    # refuses every run whose tables would pass MAX_LEBESGUE_ENTRIES; where
    # one row's product is under _BLOCK_ENTRIES (16, 41), several rows share
    # one, so that run may hold up to _BLOCK_ENTRIES values more
    pset, grid = generate(n), EvalGrid(m, "chebyshev")
    tracemalloc.start()
    try:
        lebesgue_constant(pset, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    shared = interp._BLOCK_ENTRIES if (n, m) == (16, 41) else 0
    assert peak <= 8 * (interp.lebesgue_entries(n, m) + shared)


def test_tail_sums_equal_cumulative_sum_bitwise():
    # the in-place accumulation adds the same terms in the same order as
    # the reversed cumulative sum it replaces
    rng = np.random.default_rng(3)
    for n, cols in ((1, 4), (6, 9), (17, 30)):
        left = rng.standard_normal((n + 1, n + 2))
        right = rng.standard_normal((n + 1, cols))
        expect = np.cumsum(left[:, :, None] * right[:, None, :], axis=0)[::-1]
        expect[n] *= 0.5
        assert interp._tail_sums(left, right).tobytes() == expect.tobytes()


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


@pytest.mark.parametrize("n", [5, 64])
def test_coefficients_build_no_coordinates(rng, n):
    # the samples reach the lattice matrix through the set's sub-grid views,
    # with no per-node array: neither numerators nor coordinates
    pset = generate(n)
    to_coefficients(pset, rng.normal(size=len(pset)))
    assert "coords" not in pset.__dict__


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_coefficients_bitwise_equal_to_matmul(rng, dtype):
    # the 2-D projection goes through cheb.series_on_tables (np.dot), which
    # sums each entry in the same order as @: bitwise equal to t1 @ G @ t2.T
    for n in (1, 2, 7, 24, 48):
        pset = generate(n)
        samples = rng.uniform(-1, 1, len(pset)).astype(dtype)
        lattice = np.zeros((n + 1, n + 2), dtype=dtype)
        k, eta = pset.lattice_index(np.arange(len(pset)))
        lattice[k, eta] = samples / kernel.node_star_values(pset)
        t1, t2 = interp.lattice_tables(n, dtype)
        expect = t1 @ lattice @ t2.T
        ks = np.arange(n + 1)
        expect[ks[:, None] + ks[None, :] > n] = 0.0
        expect[n, 0] *= 0.5
        got = to_coefficients(pset, samples)
        assert got.dtype == dtype
        assert np.array_equal(got, expect)


def test_coefficients_follow_the_aliasing_map():
    # L_n(T_alpha T_beta) is the single term oracles.aliasing_image for every
    # 0 <= alpha, beta <= 4n+4, one batched fit per degree; the samples come
    # from reduced phases, whose rounding (unlike cos(alpha theta)'s) is an ulp
    for n in range(1, 21):
        pset = generate(n)
        orders = np.arange(4 * n + 5)
        k, eta = pset.lattice_index(np.arange(len(pset)))
        t1 = oracles.cospi_frac_per_entry(np.multiply.outer(orders, k), n)
        t2 = oracles.cospi_frac_per_entry(np.multiply.outer(orders, eta), n + 1)
        coeffs = to_coefficients(pset, t1[:, None, :] * t2[None, :, :])
        sign, a, b = oracles.aliasing_image(n, orders[:, None], orders[None, :])
        alpha, beta = np.indices(sign.shape)
        # T_a T_b is Tnorm_a Tnorm_b times sqrt(1/2) for each index above 0
        coeffs[alpha, beta, a, b] -= sign * np.sqrt(0.5) ** (np.sign(a) + np.sign(b))
        assert np.max(np.abs(coeffs)) <= 3e-15, n


def test_batched_nonfinite_sample_reports_node():
    pset = generate(3)
    batch = np.ones((3, len(pset)))
    batch[1, 4] = np.nan
    batch[2, 0] = np.inf
    with pytest.raises(ValueError, match=r"2 non-finite sample\(s\), first nan at node "
                                         r"k=1, j=3"):
        to_coefficients(pset, batch)
    assert "coords" not in pset.__dict__
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


@pytest.mark.parametrize("n", [1, 2, 5, 16, 63, 64, 200])
def test_coefficient_norm_from_node_values(rng, n):
    # Parseval on the coefficients and the delta property: with node weights
    # w = 1 / K*(node, node), sum C^2 = sum w s^2 - (sum w s Tnorm_n(x1))^2 / 4,
    # and the weights sum to 1
    pset = generate(n)
    s = rng.uniform(-1.0, 1.0, len(pset))
    w = 1.0 / kernel.node_star_values(pset)
    # Tnorm_n(cos(k pi / n)) = sqrt(2) (-1)^k
    top = np.sqrt(2.0) * (-1.0) ** pset.lattice_index(np.arange(len(pset)))[0]
    norm = np.sum(w * s * s) - 0.25 * np.sum(w * s * top) ** 2
    assert abs(np.sum(to_coefficients(pset, s) ** 2) - norm) <= 1e-14 * norm
    assert abs(np.sum(w) - 1.0) <= 1e-14


def _assembled_node_blocks(pset, node_blocks):
    """The N x N matrix of the node blocks, each block placed by its set positions."""
    out = np.full((len(pset), len(pset)), np.nan)
    for targets, sources, block in node_blocks(pset):
        # every block is whole source rows on a whole target sub-grid
        assert block.shape == sources.shape[:1] + targets.shape + sources.shape[1:]
        rows, cols = targets[None, :, :, None], sources[:, None, None, :]
        assert np.all(np.isnan(out[rows, cols]))
        out[rows, cols] = block
    # every (node, node) pair once
    assert not np.any(np.isnan(out))
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_node_blocks_match_double_sum_oracle(node_blocks, n):
    # L[p, nu] = K*(p, nu) / K*(nu, nu), both from the literal nested sum
    pset = generate(n)
    x1, x2 = pset.coords.T
    x = (x1[:, None], x2[:, None])
    y = (x1[None, :], x2[None, :])
    diag = kernel_star_double_sum(n, (x1, x2), (x1, x2))
    expect = kernel_star_double_sum(n, x, y) / diag
    assert np.max(np.abs(_assembled_node_blocks(pset, node_blocks) - expect)) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 16, 40])
def test_node_blocks_match_lagrange_matrix(node_blocks, n):
    pset = generate(n)
    expect = lagrange_matrix(pset, *pset.coords.T)
    assert np.max(np.abs(_assembled_node_blocks(pset, node_blocks) - expect)) <= 1e-12


def _delta_error(pset, node_blocks):
    worst = 0.0
    for targets, sources, block in node_blocks(pset):
        block[targets[None, :, :, None] == sources[:, None, None, :]] -= 1.0
        worst = max(worst, float(np.max(np.abs(block))))
    return worst


@pytest.mark.parametrize("n", [*range(1, 65), 100])
def test_node_blocks_delta_property_tight(node_blocks, n):
    # the coefficient tables keep the deltas at rounding level; the verify
    # check and the kernel-route tests hold them to 1e-9
    assert _delta_error(generate(n), node_blocks) <= 1e-13


@pytest.mark.parametrize("n, entries", [(15, 200), (16, 200), (16, 1000), (40, 5000)])
def test_node_blocks_chunks_do_not_change_values(monkeypatch, node_blocks, n, entries):
    # a cap below two source rows' product gives one product per source row
    # and sub-grid pair; one product per sub-grid pair is the reference
    pset = generate(n)
    monkeypatch.setattr(interp, "_BLOCK_ENTRIES", len(pset) ** 2)
    expect = _assembled_node_blocks(pset, node_blocks)
    monkeypatch.setattr(interp, "_BLOCK_ENTRIES", entries)
    blocks = [block for _, _, block in node_blocks(pset)]
    assert len(blocks) > 8
    assert all(block.size <= max(entries, block[0].size) for block in blocks)
    assert np.max(np.abs(_assembled_node_blocks(pset, node_blocks) - expect)) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 7, 16, 33])
def test_grid_blocks_on_two_axes_and_two_targets_match_lagrange_matrix(monkeypatch, n):
    # unequal axes in both orders, and products of several source rows (a
    # short last chunk at n = 16 and 33) against the scattered points
    monkeypatch.setattr(interp, "_BLOCK_ENTRIES", 4000)
    pset = generate(n)
    axes = [EvalGrid(13).axis(), EvalGrid(8, "chebyshev").axis()]
    grids = pset.sub_grids()
    pos = [pset.row_starts[ks][:, None] + np.arange(etas.size) for ks, etas in grids]
    rows = []
    for ax1, ax2 in (axes, axes[::-1]):
        got = np.full((ax1.size, ax2.size, len(pset)), np.nan)
        for s, first, block in interp._grid_blocks(
                pset, t_norm_values(n, ax1), t_norm_values(n, ax2)):
            got[:, :, pos[s][first:first + len(block)]] = block.transpose(1, 2, 0, 3)
            rows.append(len(block))
        expect = lagrange_matrix(pset, ax1[:, None], ax2[None, :])
        assert np.max(np.abs(got.reshape(expect.shape) - expect)) <= 1e-13
    assert max(rows) > 1 or n == 1  # each sub-grid of n = 1 is one row


def test_node_blocks_delta_check_memory_at_verify_limit(node_blocks):
    # the N x N matrix at n = 100 would be 212 MB; the cumulative table of a
    # sub-grid and a chunk of source rows stay far below that
    pset = generate(100)
    tracemalloc.start()
    try:
        _delta_error(pset, node_blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
