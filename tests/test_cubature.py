import numpy as np
import pytest

from padua import kernel
from padua.cheb import t_lattice
from padua.cubature import build_rule, integrate
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
    # T_{2n}(x1) equals 1 at every node, so the rule returns 1 while the true
    # weighted integral is 0: the rule has degree exactly 2n - 1
    for n in range(1, 21):
        rule = build_rule(generate(n))
        got = integrate(rule, lambda a, b: np.cos(2 * n * np.arccos(a)) * np.ones_like(b))
        assert abs(got - 0.0) > 1e-6


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
