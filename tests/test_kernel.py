import tracemalloc

import numpy as np
import pytest

from padua import fundamental_poly, kernel
from padua.cheb import DomainError, cheb_t, cos_table, cospi_frac, t_norm_values
from padua.kernel import (
    d_term,
    kernel_compact,
    kernel_direct,
    kernel_star,
    node_star_axes,
    node_star_values,
)
from padua.points import generate
from padua.verify import singular_probe_pairs

import oracles


def test_direct_frozen_values():
    assert kernel_direct(0, (0.3, -0.4), (0.9, 0.1)) == pytest.approx(1.0, abs=1e-15)
    assert kernel_direct(1, (0.0, 0.0), (0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert kernel_direct(2, (0.0, -0.5), (0.0, -0.5)) == pytest.approx(4.0, abs=1e-13)


def test_direct_broadcasts_cross_shapes(rng):
    # (P, 1) coordinates against (N,) coordinates give the (P, N) matrix
    n = 2
    x = rng.uniform(-1, 1, (60, 2))
    y = rng.uniform(-1, 1, (7, 2))
    xs, ys = (x[:, :1], x[:, 1:]), (y[:, 0], y[:, 1])
    got = kernel_direct(n, xs, ys)
    assert got.shape == (60, 7)
    assert np.max(np.abs(got - oracles.kernel_double_sum(n, xs, ys))) <= 1e-12


def test_direct_matches_double_sum_oracle(rng):
    for n in (1, 3, 6, 10):
        for _ in range(20):
            x = tuple(rng.uniform(-1, 1, 2))
            y = tuple(rng.uniform(-1, 1, 2))
            assert kernel_direct(n, x, y) == pytest.approx(
                oracles.kernel_double_sum(n, x, y), abs=1e-10
            )


def test_d_term_direct_quotient_and_periodicity():
    n, alpha, beta = 4, 0.3, 1.1
    expect = (
        0.5
        * (np.cos((n + 0.5) * alpha) * np.cos(alpha / 2)
           - np.cos((n + 0.5) * beta) * np.cos(beta / 2))
        / (np.cos(alpha) - np.cos(beta))
    )
    assert d_term(n, alpha, beta) == pytest.approx(expect, rel=1e-13)
    assert d_term(n, alpha + 2 * np.pi, beta) == pytest.approx(
        d_term(n, alpha, beta), rel=1e-9
    )


def test_d_term_limits_at_removable_singularities():
    # at beta = alpha the quotient's limit is sum_m m sin(m alpha) / sin(alpha)
    # over m = n, n+1; at the zeros of sin(alpha) it is (+-1) m^2
    for n in (0, 1, 4, 17):
        alpha = np.array([0.3, 1.1, 2.9])
        limit = 0.25 * sum(m * np.sin(m * alpha) / np.sin(alpha) for m in (n, n + 1))
        assert np.allclose(d_term(n, alpha, alpha), limit, rtol=1e-13, atol=1e-13)
        assert np.allclose(d_term(n, alpha, alpha + 2 * np.pi), limit, rtol=1e-12, atol=1e-12)
        assert d_term(n, 0.0, 0.0) == 0.25 * (n**2 + (n + 1) ** 2)
        assert d_term(n, np.pi, np.pi) == 0.25 * (-1) ** n * (2 * n + 1)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 40])
def test_kernel_direct_bitwise_the_broadcast_angle_form(rng, n):
    # the earlier form: the four angle arrays broadcast to the pair's shape,
    # stacked, one cos_table on them and the double sum on its four tables
    for shape_x, shape_y in (((30,), (30,)), ((6, 1), (9,)), ((), (4, 3)), ((5, 1), (1, 7))):
        x = tuple(rng.uniform(-1, 1, shape_x) for _ in range(2))
        y = tuple(rng.uniform(-1, 1, shape_y) for _ in range(2))
        angles = np.stack(np.broadcast_arrays(*(np.arccos(c) for c in x + y)))
        t1x, t2x, t1y, t2y = cos_table(np.arange(n + 1), angles).swapaxes(0, 1)
        u, v = t1x * t1y, t2x * t2y
        u[1:] *= 2.0
        v[1:] *= 2.0
        expect = np.einsum("a...,a...->...", u, np.cumsum(v, axis=0)[::-1])
        got = np.asarray(kernel_direct(n, x, y))
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


def test_compact_agrees_with_direct(rng):
    for n in (1, 2, 3, 5, 8, 13, 21, 30):
        x = rng.uniform(-1, 1, (200, 2))
        y = rng.uniform(-1, 1, (200, 2))
        kc = kernel_compact(n, (x[:, 0], x[:, 1]), (y[:, 0], y[:, 1]))
        kd = kernel_direct(n, (x[:, 0], x[:, 1]), (y[:, 0], y[:, 1]))
        assert np.max(np.abs(kc - kd)) <= 1e-9 * (n + 1)


def test_compact_broadcasts_mixed_coordinate_shapes(rng):
    # the coordinates of one side need not share a shape
    n = 5
    a1, a2 = rng.uniform(-1, 1, (3, 1)), rng.uniform(-1, 1, 4)
    b1, b2 = rng.uniform(-1, 1, 4), 0.25
    for x, y in (((0.2, 0.1), (a1[:, 0], 0.5)), ((a1, a2), (b1, b2)), ((a1, 0.3), (0.7, a2))):
        kc = kernel_compact(n, x, y)
        kd = kernel_direct(n, x, y)
        assert np.shape(kc) == np.shape(kd)
        assert np.max(np.abs(kc - kd)) <= 1e-12
        assert np.max(np.abs(kernel_star(n, x, y) - _direct_star(n, x, y))) <= 1e-12


def _direct_star(n, x, y):
    return kernel_direct(n, x, y) - cheb_t(n, x[0]) * cheb_t(n, y[0])


def test_compact_handles_singular_band(rng):
    # the removable singularities of the quotient form, on paired batches,
    # 0-d pairs and the cross matrix of star_matrix
    for n in (2, 9, 17):
        tol = 1e-9 * (n + 1)
        xs, ys = singular_probe_pairs(n, rng, count=20)
        x, y = (xs[:, 0], xs[:, 1]), (ys[:, 0], ys[:, 1])
        sx, sy = kernel.point_tables(*x), kernel.point_tables(*y)
        kc = kernel_compact(n, x, y)
        kd = kernel_direct(n, x, y)
        assert np.all(np.isfinite(kc))
        assert np.max(np.abs(kc - kd)) <= tol
        for i in range(0, len(xs), 7):
            pair = (tuple(xs[i]), tuple(ys[i]))
            assert abs(kernel_compact(n, *pair) - kernel_direct(n, *pair)) <= tol
            assert abs(kernel_star(n, *pair) - _direct_star(n, *pair)) <= tol
        cross = kernel.star_matrix(n, sx, sy)
        a1, a2, b1, b2 = np.broadcast_arrays(xs[:, :1], xs[:, 1:], *y)
        direct = _direct_star(n, (a1, a2), (b1, b2))
        assert np.all(np.isfinite(cross))
        assert np.max(np.abs(cross - direct)) <= tol


def _near_corner(rng, size):
    # both coordinates within 1e-6 of +-1
    return np.sign(rng.uniform(-1, 1, (size, 2))) * (1.0 - rng.uniform(0, 1e-6, (size, 2)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("n", [0, 1, 2, 9, 17, 30, 64])
def test_compact_within_rounding_of_longdouble_sum(rng, n):
    # every pair takes the product form: on probe, random, near-coincident
    # and near-corner pairs it stays within a few ulp of the kernel's size,
    # about 2 (n+1)^2 at the corners
    xs, ys = singular_probe_pairs(n, rng, count=20)
    x = rng.uniform(-1, 1, (200, 2))
    near = np.clip(x + rng.uniform(-1e-12, 1e-12, x.shape), -1.0, 1.0)
    cases = [(xs, ys), (x, rng.uniform(-1, 1, (200, 2))), (x, near),
             (_near_corner(rng, 200), _near_corner(rng, 200))]
    for a, b in cases:
        pa, pb = (a[:, 0], a[:, 1]), (b[:, 0], b[:, 1])
        ref = oracles.kernel_double_sum_longdouble(n, pa, pb)
        err = np.max(np.abs(kernel_compact(n, pa, pb) - ref))
        assert err <= 4e-15 * (n + 1) ** 2


# Bound on |kernel_compact - long-double sum| in units of eps times the sum
# of the absolute terms of the double sum.  Largest ratios seen for n <= 100
# (seeds 1-5, up to 2000 pairs a degree): 17 on near-corner pairs, where
# 4e-15 (n+1)^2 falls short at n = 100, 34 on probe pairs and 69 on random
# and near-coincident pairs; the pairs below reach 17.  The ratio is not
# uniform in n: single pairs reached 114 near n = 160.
_COMPACT_TERM_ULPS = 128


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                    reason="np.longdouble is no wider than float64 here")
def test_compact_within_rounding_of_term_sizes_at_every_degree(rng):
    eps = np.finfo(float).eps
    for n in range(1, 101):
        xs, ys = singular_probe_pairs(n, rng, count=10)
        x = rng.uniform(-1, 1, (60, 2))
        near = np.clip(x + rng.uniform(-1e-12, 1e-12, x.shape), -1.0, 1.0)
        a = np.vstack([xs, x, x, _near_corner(rng, 60)])
        b = np.vstack([ys, rng.uniform(-1, 1, (60, 2)), near, _near_corner(rng, 60)])
        pa, pb = (a[:, 0], a[:, 1]), (b[:, 0], b[:, 1])
        ref = oracles.kernel_double_sum_longdouble(n, pa, pb)
        size = oracles.kernel_double_sum_longdouble(n, pa, pb, absolute=True)
        err = np.abs(kernel_compact(n, pa, pb) - ref)
        assert np.max(err / (eps * size)) <= _COMPACT_TERM_ULPS, f"n = {n}"


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("count", [10, 12, 24])
def test_singular_probe_pairs_match_loop_oracle(seed, count):
    # the same pairs, bit for bit, and the generator left in the same state
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    xs, ys = singular_probe_pairs(5, rng, count=count)
    ref_xs, ref_ys = oracles.singular_probe_pairs_loop(5, ref_rng, count=count)
    assert xs.shape == ys.shape == (3 * count, 2)
    assert np.array_equal(xs, ref_xs) and np.array_equal(ys, ref_ys)
    assert rng.uniform() == ref_rng.uniform()


def test_star_matrix_row_blocks_bitwise(rng, monkeypatch):
    n = 9
    xs, ys = singular_probe_pairs(n, rng, count=10)
    sx = kernel.point_tables(xs[:, 0], xs[:, 1])
    sy = kernel.point_tables(ys[:, 0], ys[:, 1])
    whole = kernel.star_matrix(n, sx, sy)
    # 4 rows per block: several blocks, each with probe pairs
    monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", 4 * len(ys))
    blocked = kernel.star_matrix(n, sx, sy)
    assert np.array_equal(blocked, whole)


def test_star_matrix_peak_memory_near_result():
    # the T_n(x1) T_n(y1) correction is subtracted block by block, so no
    # temporary as large as the N x N result is formed next to it
    import tracemalloc

    from padua.interp import lagrange_matrix

    pset = generate(60)
    x1, x2 = pset.coords.T
    tracemalloc.start()
    try:
        lmat = lagrange_matrix(pset, x1, x2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * lmat.nbytes


@pytest.mark.parametrize("n", [1, 2, 9, 24, 64])
def test_node_tables_exact_on_lattice(n):
    # the node angles are the lattice angles: their cosines are the node
    # coordinates bit for bit, and T_n(x1) = cos(n theta1), which kernel_star
    # and star_matrix subtract, is exactly (-1)^k at the nodes
    pset = generate(n)
    t = kernel.node_tables(pset)
    assert np.array_equal(np.cos(t.theta1), pset.coords[:, 0])
    assert np.array_equal(np.cos(t.theta2), pset.coords[:, 1])
    k, _ = pset.lattice_index(np.arange(len(pset)))
    assert np.array_equal(np.cos(n * t.theta1), (-1.0) ** k)


@pytest.mark.parametrize("key", [slice(3, 40, 2), (slice(5, 17), None), np.newaxis])
def test_point_tables_index_bitwise(rng, key):
    x1, x2 = rng.uniform(-1.0, 1.0, (2, 50))
    whole = kernel.point_tables(x1, x2)[key]
    part = kernel.point_tables(x1[key], x2[key])
    for name in ("theta1", "theta2"):
        assert getattr(whole, name).shape == getattr(part, name).shape
        assert np.array_equal(getattr(whole, name), getattr(part, name))


def test_compact_frozen_value_at_coincident_point():
    assert kernel_compact(2, (0.0, -0.5), (0.0, -0.5)) == pytest.approx(4.0, abs=1e-10)


def test_compact_contract_just_outside_guard_band(rng):
    # quotient denominators at zero and a little above it, where the quotient
    # itself loses most to cancellation; the compact form must match the
    # oracle everywhere
    for n in (2, 13, 30, 64):
        worst = 0.0
        for _ in range(60):
            x1, x2 = rng.uniform(-1, 1, 2)
            th1, th2 = np.arccos(x1), np.arccos(x2)
            ph1 = rng.uniform(0, np.pi)
            for eps in (0.0, 1e-12, 1e-9, 1.2e-6, 1e-5, 1e-4):
                ph2 = th1 + ph1 - th2
                s = np.sin(ph2) if abs(np.sin(ph2)) > 0.1 else 0.1
                y = (np.cos(ph1), np.cos(ph2 + eps / s))
                worst = max(
                    worst,
                    abs(kernel_compact(n, (x1, x2), y) - kernel_direct(n, (x1, x2), y)),
                )
        assert worst <= 1e-9 * (n + 1)


def test_symmetry(rng):
    for n in (2, 7):
        x = rng.uniform(-1, 1, (50, 2))
        y = rng.uniform(-1, 1, (50, 2))
        for f in (kernel_direct, kernel_compact):
            a = f(n, (x[:, 0], x[:, 1]), (y[:, 0], y[:, 1]))
            b = f(n, (y[:, 0], y[:, 1]), (x[:, 0], x[:, 1]))
            assert np.max(np.abs(a - b)) <= 1e-12


def test_diagonal_lower_bound(rng):
    x = rng.uniform(-1, 1, (200, 2))
    for n in (1, 5, 16):
        kd = kernel_compact(n, (x[:, 0], x[:, 1]), (x[:, 0], x[:, 1]))
        assert np.all(kd >= 1.0 - 1e-12)
        ks = kernel_star(n, (x[:, 0], x[:, 1]), (x[:, 0], x[:, 1]))
        assert np.all(ks >= 1.0 - 1e-12)


def test_star_frozen_values():
    assert kernel_star(2, (0.0, -0.5), (0.0, -0.5)) == pytest.approx(3.0, abs=1e-13)
    assert kernel_star(2, (1.0, -1.0), (1.0, -1.0)) == pytest.approx(12.0, abs=1e-12)
    assert _direct_star(2, (1.0, -1.0), (1.0, -1.0)) == pytest.approx(
        oracles.kernel_star_double_sum(2, (1.0, -1.0), (1.0, -1.0)), abs=1e-12
    )


def test_star_vanishes_at_distinct_node_pairs():
    for n in (2, 5, 10):
        pset = generate(n)
        count = len(pset)
        ii, jj = np.meshgrid(np.arange(count), np.arange(count), indexing="ij")
        mask = ii != jj
        vals = kernel_star(n, tuple(pset.coords[ii[mask]].T), tuple(pset.coords[jj[mask]].T))
        assert np.max(np.abs(vals)) <= 1e-9


def _star_at_node(pset, index):
    """A[k] B[eta] of node_star_axes at node (k, j)."""
    k, eta = pset.lattice_index(pset.position(index))
    a, b = node_star_axes(pset.degree)
    return float(a[k] * b[eta])


def test_node_values_frozen_degree_two():
    pset = generate(2)
    assert _star_at_node(pset, (1, 2)) == pytest.approx(3.0)   # interior
    assert _star_at_node(pset, (1, 1)) == pytest.approx(6.0)   # edge
    assert _star_at_node(pset, (0, 2)) == pytest.approx(12.0)  # vertex
    with pytest.raises(IndexError):
        _star_at_node(pset, (9, 9))


def test_node_values_match_direct():
    for n in (1, 2, 3, 8, 21, 64):
        pset = generate(n)
        closed = node_star_values(pset)
        direct = kernel.node_star_direct(pset)
        assert np.max(np.abs(closed - direct)) <= 1e-9


def test_node_star_direct_positions_bitwise():
    # the whole-lattice sum read at the nodes, against the sum on the tables
    # of the selected nodes' distinct k and eta only
    for n in (1, 2, 9, 64):
        pset = generate(n)
        full = kernel.node_star_direct(pset)
        idx = np.random.default_rng(n).choice(len(pset), size=min(50, len(pset)),
                                             replace=False)
        assert oracles.node_star_direct_at(pset, idx).tobytes() == full[idx].tobytes()
        assert oracles.node_star_direct_at(pset, np.arange(1, len(pset), 3)).tobytes() == \
            full[1::3].tobytes()
        assert oracles.node_star_direct_at(pset, np.arange(len(pset))).tobytes() == \
            full.tobytes()


def test_node_star_direct_bounds_memory():
    # at n = 120 the 7381 nodes take two 121 x 122 tables and one 121 x 122
    # contraction (under 1 MB); one table per node peaked at 58 MB
    pset = generate(120)
    tracemalloc.start()
    try:
        direct = kernel.node_star_direct(pset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
    assert np.max(np.abs(direct - node_star_values(pset))) <= 1e-9 + 1e-12 * 120 * 121


@pytest.mark.parametrize("n", [*range(1, 65), 2048])
def test_node_star_values_bitwise_class_oracle(n):
    pset = generate(n)
    assert node_star_values(pset).tobytes() == oracles.class_star_values(pset).tobytes()


def test_node_star_axes_bitwise_class_oracle_at_degree_cap():
    # every node of the degree-4096 set, sub-grid by sub-grid, without the
    # per-node arrays (8.4e6 nodes)
    n = 4096
    a, b = kernel.node_star_axes(n)
    factor = np.array([0.5, 1.0, 2.0])
    for ks, etas in generate(n).sub_grids():
        ends = np.isin(ks, [0, n])[:, None].astype(int) + np.isin(etas, [0, n + 1])
        expect = n * (n + 1.0) * factor[ends]
        assert (a[ks][:, None] * b[etas][None, :]).tobytes() == expect.tobytes()


def test_node_functions_read_no_node_arrays():
    # one node's value or fundamental polynomial needs none of the 8.4e6-long
    # per-node arrays of the degree-4096 set
    pset = generate(4096)
    assert _star_at_node(pset, (3, 2)) == 4096 * 4097 * 0.5
    assert _star_at_node(pset, (0, 1)) == 4096 * 4097 * 1.0
    node = cospi_frac(3, 4096), cospi_frac(2, 4097)
    assert abs(fundamental_poly(pset, (3, 2), node) - 1.0) <= 1e-9
    assert abs(fundamental_poly(pset, (0, 1), node)) <= 1e-9
    assert "coords" not in pset.__dict__


@pytest.mark.parametrize("n", [5, 64])
def test_node_star_values_build_no_coordinates(n):
    # the closed form is written per sub-grid from the two axis factors,
    # with no per-node array: neither numerators nor coordinates
    pset = generate(n)
    values = kernel.node_star_values(pset)
    assert values.shape == (len(pset),)
    assert "coords" not in pset.__dict__


def test_fundamental_poly_matches_lagrange_matrix_column(rng):
    # one node's column in O(n) per point against the blocked matrix products
    # of lagrange_matrix: the same closed form, summed in another order, so
    # they agree to rounding, and both agree with the double sum
    from padua.interp import lagrange_matrix

    for n in (1, 5, 16, 40, 64):
        pset = generate(n)
        x1 = np.concatenate([pset.coords[:, 0], rng.uniform(-1, 1, 30)])
        x2 = np.concatenate([pset.coords[:, 1], rng.uniform(-1, 1, 30)])
        lmat = lagrange_matrix(pset, x1, x2)
        for pos in (0, len(pset) // 3, len(pset) - 1):
            idx = pset.node_index(pos)
            node = (x1[pos], x2[pos])
            oracle = _direct_star(n, (x1, x2), node) / _direct_star(n, node, node)
            col = lmat[:, pos]
            # (1, m) against (m,) broadcasts to (1, m)
            got = fundamental_poly(pset, idx, (x1[None, :], x2))
            assert got.shape == (1, x1.size)
            assert np.max(np.abs(got[0] - col)) <= 1e-14
            assert np.max(np.abs(got[0] - oracle)) <= 1e-13
            assert np.max(np.abs(col - oracle)) <= 1e-13
            scalar = fundamental_poly(pset, idx, (x1[pos], x2[pos]))
            assert isinstance(scalar, float) and abs(scalar - col[pos]) <= 1e-14


def test_node_values_match_star_direct_entrywise():
    pset = generate(6)
    for idx in ((0, 1), (3, 2), (6, 4)):
        node = tuple(pset.coords[pset.position(idx)])
        assert _star_at_node(pset, idx) == pytest.approx(
            _direct_star(6, node, node), abs=1e-9
        )


def test_fundamental_delta_property():
    for n in (2, 5, 10):
        pset = generate(n)
        for idx in ((0, 1), (n, 1)):
            vals = fundamental_poly(pset, idx, tuple(pset.coords.T))
            expect = np.zeros(len(pset))
            expect[pset.position(idx)] = 1.0
            assert np.max(np.abs(vals - expect)) <= 1e-9


def test_delta_property_at_scale():
    from padua.interp import lagrange_matrix

    for n in (32, 64):
        pset = generate(n)
        lmat = lagrange_matrix(pset, *pset.coords.T)
        assert float(np.max(np.abs(lmat - np.eye(len(pset))))) <= 1e-9


def test_fundamental_partition_of_unity(rng):
    pset = generate(8)
    x = tuple(rng.uniform(-1, 1, 2))
    total = sum(fundamental_poly(pset, pset.node_index(i), x) for i in range(len(pset)))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_kernel_reproduces_polynomials(rng):
    # integrating the kernel against a random polynomial returns its value
    for n in (3, 6):
        ks = np.arange(n + 1)
        keep = ks[:, None] + ks[None, :] <= n
        coeffs = rng.uniform(-1, 1, (n + 1, n + 1))
        coeffs[~keep] = 0.0
        m = n + 1
        nodes = np.cos((2 * np.arange(1, m + 1) - 1) * np.pi / (2 * m))
        b = t_norm_values(n, nodes)
        poly_on_grid = b.T @ coeffs @ b
        x = tuple(rng.uniform(-1, 1, 2))
        g1, g2 = np.meshgrid(nodes, nodes, indexing="ij")
        kvals = kernel_direct(
            n, (np.full(g1.size, x[0]), np.full(g1.size, x[1])),
            (g1.ravel(), g2.ravel()),
        ).reshape(m, m)
        integral = float(np.mean(kvals * poly_on_grid))
        b1 = t_norm_values(n, np.array([x[0]]))
        b2 = t_norm_values(n, np.array([x[1]]))
        expect = float(b1[:, 0] @ coeffs @ b2[:, 0])
        assert integral == pytest.approx(expect, abs=1e-8)


def test_domain_and_degree_validation():
    with pytest.raises(DomainError):
        kernel_direct(3, (1.5, 0.0), (0.0, 0.0))
    with pytest.raises(DomainError):
        kernel_star(3, (0.0, 0.0), (0.0, -2.0))


def test_fundamental_poly_index_error():
    pset = generate(4)
    with pytest.raises(IndexError):
        fundamental_poly(pset, (7, 7), (0.0, 0.0))
    with pytest.raises(DomainError):
        fundamental_poly(pset, (0, 1), (2.0, 0.0))
