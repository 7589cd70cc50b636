import math
import tracemalloc

import numpy as np
import pytest

from padua import functions, kernel, points
from padua.cheb import t_lattice
from padua.cubature import build_rule, integrate
from padua.interp import SampleEvaluationError
from padua.points import PointClass, generate

import oracles


def test_degree_two_weights_frozen():
    rule = build_rule(generate(2))
    expect = {PointClass.INTERIOR: 1 / 3, PointClass.EDGE: 1 / 6,
              PointClass.VERTEX: 1 / 12}
    for p, w in zip(rule.nodes.points, rule.weights):
        assert w == pytest.approx(expect[p.point_class], abs=1e-12)
    assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [8, 64])  # all 45 nodes checked; 50 of 2145 sampled
def test_build_rule_rejects_transposed_node_factors(monkeypatch, n):
    tampered = {
        PointClass.VERTEX: kernel.NODE_FACTORS[PointClass.INTERIOR],
        PointClass.EDGE: kernel.NODE_FACTORS[PointClass.EDGE],
        PointClass.INTERIOR: kernel.NODE_FACTORS[PointClass.VERTEX],
    }
    monkeypatch.setattr(kernel, "NODE_FACTORS", tampered)
    with pytest.raises(RuntimeError, match=f"cross-check failed at degree {n}"):
        build_rule(generate(n))


def test_weights_sum_positive_and_class_constant():
    for n in list(range(1, 65)) + [128, 256]:
        rule = build_rule(generate(n))
        assert abs(float(np.sum(rule.weights)) - 1.0) <= 1e-12
        assert np.all(rule.weights > 0)
        for cls in PointClass:
            ws = [
                w
                for p, w in zip(rule.nodes.points, rule.weights)
                if p.point_class is cls
            ]
            if ws:
                assert max(ws) - min(ws) <= 1e-12


def test_exactness_sweep():
    # every product T_a(x1) T_b(x2) with a + b <= 2n - 1 integrates to the
    # indicator of (a, b) = (0, 0)
    for n in range(1, 21):
        pset = generate(n)
        rule = build_rule(pset)
        kmax = 2 * n - 1
        b1 = t_lattice(kmax, pset.k_num, n)
        b2 = t_lattice(kmax, pset.eta_num, n + 1)
        vals = np.einsum("ai,bi,i->ab", b1, b2, rule.weights)
        expect = np.zeros_like(vals)
        expect[0, 0] = 1.0
        a = np.arange(kmax + 1)
        mask = a[:, None] + a[None, :] <= kmax
        assert np.max(np.abs((vals - expect)[mask])) <= 1e-10


def test_degree_sharpness_probe():
    # the rule has degree exactly 2n - 1: up to degree 2n + 2 it is wrong on
    # exactly T_{2n}(x1), T_n(x1) T_{n+1}(x2) and T_{2n+2}(x2), and at n = 1
    # also on T_4(x1), each of which equals +-1 at every node; the rule value
    # of T_alpha T_beta is that of its aliasing image (oracles.aliasing_image)
    for n in range(1, 21):
        rule = build_rule(generate(n))
        wrong = {(2 * n, 0): 1.0, (n, n + 1): -1.0, (0, 2 * n + 2): 1.0}
        if n == 1:
            wrong[(4, 0)] = 1.0
        for alpha in range(2 * n + 3):
            for beta in range(2 * n + 3 - alpha):
                got = integrate(rule, lambda x1, x2: np.cos(alpha * np.arccos(x1))
                                * np.cos(beta * np.arccos(x2)))
                expect = wrong.get((alpha, beta), float(alpha == beta == 0))
                assert abs(got - expect) <= 1e-12, (n, alpha, beta)


def test_integrate_frozen_values():
    rule = build_rule(generate(5))
    assert integrate(rule, lambda a, b: np.ones_like(a * b)) == pytest.approx(1.0)
    assert integrate(rule, lambda a, b: a * np.ones_like(b)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert integrate(rule, lambda a, b: a**2 * np.ones_like(b)) == pytest.approx(
        0.5, abs=1e-12
    )


def test_integrate_matches_tensor_quadrature_oracle(rng):
    rule = build_rule(generate(9))
    ks = np.arange(10)
    coeffs = rng.uniform(-1, 1, (10, 10))
    coeffs[ks[:, None] + ks[None, :] > 9] = 0.0

    def poly(a, b):
        th1, th2 = np.arccos(a), np.arccos(b)
        t1 = np.cos(np.multiply.outer(ks, th1))
        t2 = np.cos(np.multiply.outer(ks, th2))
        t1[1:] *= np.sqrt(2.0)
        t2[1:] *= np.sqrt(2.0)
        return np.einsum("ab,a...,b...->...", coeffs, t1, t2)

    assert integrate(rule, poly) == pytest.approx(
        oracles.gauss_chebyshev_integral(poly, 64), abs=1e-10
    )


@pytest.mark.parametrize("n", [*range(1, 65), 511, 2048])
def test_weights_bitwise_equal_class_values(n):
    # a[k] * b[eta] is 1 / K*(nu, nu) of the class factors to the last bit,
    # since the factors differ by powers of two
    pset = generate(n)
    weights = build_rule(pset).weights
    assert weights.tobytes() == (1.0 / kernel.node_star_values(pset)).tobytes()


@pytest.mark.parametrize("n", [*range(1, 65), 2048, 4096])
def test_axis_factors_bitwise_oracle(n):
    rule = build_rule(generate(n))
    a, b = oracles.axis_weight_factors(n)
    assert rule.a.tobytes() == a.tobytes()
    assert rule.b.tobytes() == b.tobytes()


def test_cross_check_samples_agree_at_degree_cap(monkeypatch):
    # the 50 nodes build_rule samples at n = 4096, against the closed form
    seen = []
    direct = kernel.node_star_direct

    def record(pset, positions):
        values = direct(pset, positions)
        seen.append((pset.lattice_index(positions), values))
        return values

    monkeypatch.setattr(kernel, "node_star_direct", record)
    n = 4096
    build_rule(generate(n))
    ((k, eta), values), = seen
    assert values.size == 50
    a, b = kernel.node_star_axes(n)
    assert np.max(np.abs(values - a[k] * b[eta])) <= 1e-7


def _random_series(rng, n):
    # orthonormal product series of total degree <= 2n - 1, broadcasting
    kmax = 2 * n - 1
    ks = np.arange(kmax + 1)
    coeffs = rng.uniform(-1.0, 1.0, (kmax + 1, kmax + 1))
    coeffs[ks[:, None] + ks[None, :] > kmax] = 0.0

    def poly(a, b):
        t1 = np.cos(np.multiply.outer(ks, np.arccos(a)))
        t2 = np.cos(np.multiply.outer(ks, np.arccos(b)))
        return np.einsum("ab,a...,b...->...", coeffs, t1, t2)

    return poly


def test_integrate_matches_set_order_sum(rng):
    # the lattice sums take the same products w * f as the set-order sum, in
    # another order: within 4e-16 of their correctly rounded sum, relative to
    # sum |w f|, and so within 8e-16 of the set-order pairwise sum, which is
    # itself up to 4.4e-16 off (n = 26, const)
    worst_exact = worst_set = 0.0
    for n in range(1, 41):
        pset = generate(n)
        rule = build_rule(pset)
        weights = 1.0 / kernel.node_star_values(pset)
        fs = [*functions.BUILTIN_FUNCTIONS.values()] + [_random_series(rng, n)
                                                         for _ in range(3)]
        for f in fs:
            got = integrate(rule, f)
            set_order, exact, scale = oracles.set_order_sums(weights, pset.x1,
                                                             pset.x2, f)
            worst_exact = max(worst_exact, abs(got - exact) / scale)
            worst_set = max(worst_set, abs(got - set_order) / scale)
    assert worst_exact <= 4e-16
    assert worst_set <= 8e-16


def test_integrate_exact_through_degree_2n_minus_1():
    # integrate itself, not only the weights: T_a(x1) T_b(x2) with
    # a + b <= 2n - 1 integrates to the indicator of (a, b) = (0, 0)
    for n in range(1, 21):
        rule = build_rule(generate(n))
        worst = 0.0
        for a in range(2 * n):
            for b in range(2 * n - a):
                got = integrate(rule, lambda x1, x2: np.cos(a * np.arccos(x1))
                                * np.cos(b * np.arccos(x2)))
                worst = max(worst, abs(got - (1.0 if a == b == 0 else 0.0)))
        assert worst <= 1e-13, n


def test_integrate_scalar_callable_through_fallback():
    # a callable that only takes Python floats is sampled node by node and
    # summed by the same lattice reduction: bitwise equal to the broadcasting
    # route on the same values
    for n in (1, 2, 7, 30):
        pset = generate(n)
        rule = build_rule(pset)
        via_lattice = integrate(rule, lambda a, b: a * a + b)
        via_nodes = integrate(rule, lambda a, b: float(a) * float(a) + float(b))
        assert via_nodes == via_lattice
        got = integrate(rule, lambda a, b: math.exp(a + b))
        assert got == pytest.approx(integrate(rule, functions.get("exp_sum")),
                                    rel=1e-15)


def test_integrate_failing_callable_names_first_node_in_set_order():
    pset = generate(6)
    rule = build_rule(pset)

    def fails_left(a, b):
        if np.ndim(a) > 0:
            raise TypeError("scalar only")
        if a < -0.3 and b > 0.0:
            raise ValueError("boom")
        return 1.0

    first = next(p for p in pset.points if p.x1 < -0.3 and p.x2 > 0.0)
    with pytest.raises(SampleEvaluationError, match=f"k={first.k}, j={first.j},"):
        integrate(rule, fails_left)


def test_integrate_does_not_retry_after_memory_error():
    calls = []

    def f(a, b):
        calls.append(np.broadcast_shapes(np.shape(a), np.shape(b)))
        raise MemoryError

    rule = build_rule(generate(6))
    with pytest.raises(MemoryError):
        integrate(rule, f)
    assert calls == [(4, 4)]


def test_integrate_failure_names_first_node_in_sub_grid_order():
    # rows k = 1 (odd) and k = 2 (even) fail; the even-k sub-grid is visited
    # first, so node k=2, j=1 is named although k=1 comes first in set order,
    # and the message is made without any per-node array of the set
    n = 6
    rule = build_rule(generate(n))
    before = set(rule.nodes.__dict__)

    def fails_inside(a, b):
        if np.ndim(a) > 0:
            raise TypeError("scalar only")
        if 0.0 < a < 0.9:
            raise ValueError("boom")
        return 1.0

    x1, x2 = points.lattice_axes(n)
    with pytest.raises(SampleEvaluationError) as info:
        integrate(rule, fails_inside)
    assert str(info.value) == (
        f"function evaluation failed at node k=2, j=1, x=({float(x1[2])!r}, "
        f"{float(x2[1])!r})")
    assert set(rule.nodes.__dict__) == before
    assert "k_num" not in before


def test_integrate_builds_no_per_node_array():
    rule = build_rule(generate(2048))
    integrate(rule, functions.get("exp_sum"))
    assert "k_num" not in rule.nodes.__dict__
    assert "weights" not in rule.__dict__


def test_integrate_peak_memory_at_degree_2048():
    # blocks of 63 rows of 1025 nodes (2**16 values at most): exp_sum holds
    # two block arrays at once (x1 + x2 and its exp, then the values and their
    # weighted copy), 1.18 MB with the axes; three blocks of 2**16 float64 is
    # the bound.  Whole 1025 x 1025 sub-grids peaked at 26 MB, and the
    # set-order sum over per-node arrays at 137 MB.
    f = functions.get("exp_sum")
    rule = build_rule(generate(2048))
    tracemalloc.start()
    try:
        integrate(rule, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * 2**16


@pytest.mark.parametrize("n", [1, 2, 7, 63, 64, 511, 1024, 2048])
def test_integrate_row_blocks_bitwise_whole_sub_grids(n):
    # the same products in the same reduction trees as one pass over each
    # whole sub-grid; from n = 511 on a sub-grid spans several blocks, the
    # last one short
    rule = build_rule(generate(n))
    for name, f in functions.BUILTIN_FUNCTIONS.items():
        assert integrate(rule, f) == oracles.integrate_whole_sub_grids(rule, f), name


def test_integrate_failure_in_second_block_names_first_node():
    # n = 1024: the even-k sub-grid has 513 rows of 513 nodes, in blocks of
    # 127 rows, so its second block is rows k = 254..506.  f fails on any
    # array call that holds row 260, and per point at (k=260, j=5), (k=280,
    # j=1) and (k=1, j=1), which is first in set order but in the odd-k
    # sub-grid, visited second.
    n = 1024
    rule = build_rule(generate(n))
    x1, x2 = points.lattice_axes(n)
    bad = {(float(x1[260]), float(x2[9])), (float(x1[280]), float(x2[1])),
           (float(x1[1]), float(x2[0]))}
    array_rows, point_rows = [], []

    def f(a, b):
        if np.ndim(a) > 0:
            array_rows.append(np.ravel(a).tolist())
            if float(x1[260]) in array_rows[-1]:
                raise ValueError("array call on the failing block")
            return np.ones(np.broadcast_shapes(np.shape(a), np.shape(b)))
        point_rows.append(a)
        if (a, b) in bad:
            raise ValueError("boom")
        return 1.0

    with pytest.raises(SampleEvaluationError) as info:
        integrate(rule, f)
    assert str(info.value) == (
        f"function evaluation failed at node k=260, j=5, x=({float(x1[260])!r}, "
        f"{float(x2[9])!r})")
    assert array_rows == [x1[0:254:2].tolist(), x1[254:508:2].tolist()]
    # the point calls run over the failing block only, rows 254..258 whole
    # and row 260 up to its fifth node
    assert len(point_rows) == 3 * 513 + 5
    assert set(point_rows) == {float(x1[k]) for k in (254, 256, 258, 260)}


def test_build_rule_rejects_factors_that_do_not_split(monkeypatch):
    tampered = dict(kernel.NODE_FACTORS)
    tampered[PointClass.EDGE] = 3.0
    monkeypatch.setattr(kernel, "NODE_FACTORS", tampered)
    with pytest.raises(RuntimeError, match="do not split"):
        build_rule(generate(4))
