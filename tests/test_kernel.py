import numpy as np
import pytest

from padua import kernel
from padua.cheb import DomainError, cheb_t, t_norm_values
from padua.kernel import (
    d_term,
    fundamental_poly,
    kernel_compact,
    kernel_direct,
    kernel_star,
    kernel_star_at_node,
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


def test_compact_agrees_with_direct(rng):
    for n in (1, 2, 3, 5, 8, 13, 21, 30):
        x = rng.uniform(-1, 1, (200, 2))
        y = rng.uniform(-1, 1, (200, 2))
        kc = kernel_compact(n, (x[:, 0], x[:, 1]), (y[:, 0], y[:, 1]))
        kd = kernel_direct(n, (x[:, 0], x[:, 1]), (y[:, 0], y[:, 1]))
        assert np.max(np.abs(kc - kd)) <= 1e-9 * (n + 1)


def _direct_star(n, x, y):
    return kernel_direct(n, x, y) - cheb_t(n, x[0]) * cheb_t(n, y[0])


def test_compact_handles_singular_band(rng):
    # the one guard-band fallback, on paired batches, 0-d pairs and the
    # cross matrix of star_matrix
    for n in (2, 9, 17):
        tol = 1e-9 * (n + 1)
        xs, ys = singular_probe_pairs(n, rng, count=20)
        x, y = (xs[:, 0], xs[:, 1]), (ys[:, 0], ys[:, 1])
        sx, sy = kernel.point_tables(n, *x), kernel.point_tables(n, *y)
        assert np.all(kernel._compact_terms(n, sx, sy)[1][::3])
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


def test_star_matrix_row_blocks_bitwise(rng, monkeypatch):
    n = 9
    xs, ys = singular_probe_pairs(n, rng, count=10)
    sx = kernel.point_tables(n, xs[:, 0], xs[:, 1])
    sy = kernel.point_tables(n, ys[:, 0], ys[:, 1])
    whole = kernel.star_matrix(n, sx, sy)
    # 4 rows per block: several blocks, each with guard-band pairs
    monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", 4 * len(ys))
    blocked = kernel.star_matrix(n, sx, sy)
    assert np.array_equal(blocked, whole)


@pytest.mark.parametrize("n", [1, 2, 9, 24, 64])
def test_node_tables_exact_on_lattice(n):
    # trig[d][i] is (cos, sin) of (1, n, n+1)[i] * theta_d; at the nodes
    # n*theta1 = k*pi and (n+1)*theta2 = eta*pi, so these are exact
    pset = generate(n)
    t = kernel.node_tables(n, pset)
    cn1, sn1 = t.trig[0][1]
    cm2, sm2 = t.trig[1][2]
    assert np.all(sn1 == 0.0) and np.all(sm2 == 0.0)
    assert np.array_equal(cn1, (-1.0) ** pset.k_num)
    assert np.array_equal(cm2, (-1.0) ** pset.eta_num)


@pytest.mark.parametrize("key", [slice(3, 40, 2), (slice(5, 17), None), np.newaxis])
def test_point_tables_index_bitwise(rng, key):
    n = 7
    x1, x2 = rng.uniform(-1.0, 1.0, (2, 50))
    whole = kernel.point_tables(n, x1, x2)[key]
    part = kernel.point_tables(n, x1[key], x2[key])
    for name in ("theta1", "theta2"):
        assert np.array_equal(getattr(whole, name), getattr(part, name))
    for coord_w, coord_p in zip(whole.trig, part.trig, strict=True):
        for (cw, sw), (cp, sp) in zip(coord_w, coord_p, strict=True):
            assert cw.shape == cp.shape
            assert np.array_equal(cw, cp) and np.array_equal(sw, sp)


def test_compact_frozen_value_at_coincident_point():
    assert kernel_compact(2, (0.0, -0.5), (0.0, -0.5)) == pytest.approx(4.0, abs=1e-10)


def test_compact_contract_just_outside_guard_band(rng):
    # denominators parked barely above the band are the worst case for the
    # quotient; the compact form must still match the oracle everywhere
    for n in (2, 13, 30, 64):
        worst = 0.0
        for _ in range(60):
            x1, x2 = rng.uniform(-1, 1, 2)
            th1, th2 = np.arccos(x1), np.arccos(x2)
            ph1 = rng.uniform(0, np.pi)
            for eps in (1.2 * kernel.SINGULAR_BAND, 1e-5, 1e-4):
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
        vals = kernel_star(
            n,
            (pset.x1[ii[mask]], pset.x2[ii[mask]]),
            (pset.x1[jj[mask]], pset.x2[jj[mask]]),
        )
        assert np.max(np.abs(vals)) <= 1e-9


def test_node_values_frozen_degree_two():
    pset = generate(2)
    assert kernel_star_at_node(pset, (1, 2)) == pytest.approx(3.0)   # interior
    assert kernel_star_at_node(pset, (1, 1)) == pytest.approx(6.0)   # edge
    assert kernel_star_at_node(pset, (0, 2)) == pytest.approx(12.0)  # vertex
    with pytest.raises(IndexError):
        kernel_star_at_node(pset, (9, 9))


def test_node_values_match_direct():
    for n in (1, 2, 3, 8, 21, 64):
        pset = generate(n)
        closed = node_star_values(pset)
        direct = kernel.node_star_direct(pset)
        assert np.max(np.abs(closed - direct)) <= 1e-9


def test_node_star_direct_positions_bitwise():
    for n in (1, 2, 9, 64):
        pset = generate(n)
        full = kernel.node_star_direct(pset)
        idx = np.random.default_rng(n).choice(len(pset), size=min(50, len(pset)),
                                             replace=False)
        assert np.array_equal(kernel.node_star_direct(pset, idx), full[idx])
        assert np.array_equal(kernel.node_star_direct(pset, slice(1, None, 3)),
                              full[1::3])


def test_node_values_match_star_direct_entrywise():
    pset = generate(6)
    for idx in ((0, 1), (3, 2), (6, 4)):
        pos = pset.position(idx)
        node = (pset.x1[pos], pset.x2[pos])
        assert kernel_star_at_node(pset, idx) == pytest.approx(
            _direct_star(6, node, node), abs=1e-9
        )


def test_fundamental_delta_property():
    for n in (2, 5, 10):
        pset = generate(n)
        for idx in ((0, 1), (n, 1)):
            vals = fundamental_poly(pset, idx, (pset.x1, pset.x2))
            expect = np.zeros(len(pset))
            expect[pset.position(idx)] = 1.0
            assert np.max(np.abs(vals - expect)) <= 1e-9


def test_delta_property_at_scale():
    from padua.interp import lagrange_matrix

    for n in (32, 64):
        pset = generate(n)
        lmat = lagrange_matrix(pset, pset.x1, pset.x2)
        assert float(np.max(np.abs(lmat - np.eye(len(pset))))) <= 1e-9


def test_fundamental_partition_of_unity(rng):
    pset = generate(8)
    x = tuple(rng.uniform(-1, 1, 2))
    total = sum(
        fundamental_poly(pset, (p.k, p.j), x) for p in pset.points
    )
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
