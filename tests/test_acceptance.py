"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is fixed here, not computed.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from padua import analysis, cubature, interp, kernel
from padua.cheb import t_lattice, t_norm_lattice, t_norm_values
from padua.functions import get
from padua.interp import EvalGrid
from padua.points import generate
from padua.verify import singular_probe_pairs

import oracles


class _Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.start = time.time()

    def finish(self, passed):
        elapsed = time.time() - self.start
        verdict = "PASS" if passed else "FAIL"
        print(f"[acceptance {self.number}] {self.label}: {verdict} "
              f"({elapsed:.1f}s / budget {self.budget:.0f}s)")
        assert passed, f"criterion {self.number} failed"
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded runtime budget: {elapsed:.1f}s"
        )


def _random_poly(rng, n):
    ks = np.arange(n + 1)
    coeffs = rng.uniform(-1.0, 1.0, (n + 1, n + 1))
    coeffs[ks[:, None] + ks[None, :] > n] = 0.0
    return coeffs


def test_criterion_1_cardinality_and_unisolvence():
    crit = _Criterion(1, "cardinality and polynomial reproduction, n = 1..64", 60)
    rng = np.random.default_rng(101)
    ok = True
    for n in range(1, 65):
        pset = generate(n)
        ok &= len(pset) == (n + 1) * (n + 2) // 2
        pts = rng.uniform(-1, 1, (200, 2))
        lmat = interp.lagrange_matrix(pset, pts[:, 0], pts[:, 1])
        b1p = t_norm_values(n, pts[:, 0])
        b2p = t_norm_values(n, pts[:, 1])
        k, eta = pset.lattice_index(np.arange(len(pset)))
        b1n = t_norm_lattice(n, k, n)
        b2n = t_norm_lattice(n, eta, n + 1)
        for _ in range(20):
            coeffs = _random_poly(rng, n)
            truth = ((coeffs.T @ b1p) * b2p).sum(0)
            samples = ((coeffs.T @ b1n) * b2n).sum(0)
            got = lmat @ samples
            scale = max(1.0, float(np.max(np.abs(truth))))
            ok &= float(np.max(np.abs(got - truth))) <= 1e-8 * scale
        if not ok:
            break
    crit.finish(ok)


def test_criterion_2_delta_property():
    crit = _Criterion(2, "fundamental polynomials are deltas on the nodes", 30)
    ok = True
    for n in (2, 5, 10, 20):
        pset = generate(n)
        lmat = interp.lagrange_matrix(pset, *pset.coords.T)
        ok &= float(np.max(np.abs(lmat - np.eye(len(pset))))) <= 1e-9
    crit.finish(ok)


def test_criterion_3_kernel_oracle_equivalence():
    crit = _Criterion(3, "compact kernel equals the direct double sum", 30)
    rng = np.random.default_rng(303)
    ok = True
    for n in (1, 2, 3, 5, 8, 13, 21, 30):
        x = rng.uniform(-1, 1, (1000, 2))
        y = rng.uniform(-1, 1, (1000, 2))
        sx, sy = singular_probe_pairs(n, rng, count=24)
        allx = np.vstack([x, sx])
        ally = np.vstack([y, sy])
        kc = kernel.kernel_compact(n, (allx[:, 0], allx[:, 1]), (ally[:, 0], ally[:, 1]))
        kd = kernel.kernel_direct(n, (allx[:, 0], allx[:, 1]), (ally[:, 0], ally[:, 1]))
        ok &= float(np.max(np.abs(kc - kd))) <= 1e-9 * (n + 1)
    crit.finish(ok)


def test_criterion_4_ideal_verification():
    crit = _Criterion(4, "ideal basis vanishes; three-term and CD identities", 60)
    from padua.ideal import cd_residual, q_poly, three_term_residual

    rng = np.random.default_rng(404)
    ok = True
    for n in range(1, 65):
        pset = generate(n)
        worst = max(
            float(np.max(np.abs(q_poly(n, k, tuple(pset.coords.T)))))
            for k in range(n + 2)
        )
        ok &= worst <= 1e-9 * (n + 1)
    for n in range(2, 17):
        x = rng.uniform(-1, 1, (2, 500))
        y = rng.uniform(-1, 1, (2, 500))
        ok &= float(np.max(three_term_residual(n, (x[0], x[1])))) <= 1e-10
        ok &= float(np.max(cd_residual(n, 1, (x[0], x[1]), (y[0], y[1])))) <= 1e-9
        ok &= float(np.max(cd_residual(n, 2, (x[0], x[1]), (y[0], y[1])))) <= 1e-9
    crit.finish(ok)


def test_criterion_5_node_values_and_weights():
    crit = _Criterion(5, "node kernel values by class match the direct sum", 60)
    ok = True
    for n in range(1, 129):
        pset = generate(n)
        closed = kernel.node_star_values(pset)
        factor = {0: 2.0, 1: 1.0, 2: 0.5}
        expect = n * (n + 1.0) * np.array([factor[c] for c in oracles.padua_nodes(n).code])
        ok &= np.array_equal(closed, expect)
        ok &= float(np.max(np.abs(closed - kernel.node_star_direct(pset)))) <= 1e-9
    rule = cubature.build_rule(generate(2))
    by_class = {0: 1 / 12, 1: 1 / 6, 2: 1 / 3}
    for code, w in zip(oracles.padua_nodes(2).code, rule.weights):
        ok &= abs(w - by_class[int(code)]) <= 1e-12
    ok &= abs(float(np.sum(rule.weights)) - 1.0) <= 1e-12
    crit.finish(ok)


def test_criterion_6_cubature_exactness():
    crit = _Criterion(6, "cubature is exact through total degree 2n-1", 60)
    ok = True
    for n in range(1, 21):
        pset = generate(n)
        rule = cubature.build_rule(pset)
        kmax = 2 * n - 1
        k, eta = pset.lattice_index(np.arange(len(pset)))
        b1 = t_lattice(kmax, k, n)
        b2 = t_lattice(kmax, eta, n + 1)
        vals = np.einsum("ai,bi,i->ab", b1, b2, rule.weights)
        expect = np.zeros_like(vals)
        expect[0, 0] = 1.0
        a = np.arange(kmax + 1)
        mask = a[:, None] + a[None, :] <= kmax
        ok &= float(np.max(np.abs((vals - expect)[mask]))) <= 1e-10
    crit.finish(ok)


def test_criterion_7_lebesgue_growth():
    crit = _Criterion(7, "Lebesgue constants grow like the squared logarithm", 120)
    grid = EvalGrid(200, "uniform")
    ratios = []
    for n in (8, 16, 32, 64):
        lam = interp.lebesgue_constant(generate(n), grid)
        ratios.append(lam / np.log(n + 1.0) ** 2)
    ok = max(ratios) / min(ratios) < 3.0
    crit.finish(ok)


def test_criterion_8_lp_convergence():
    crit = _Criterion(8, "weighted L^p interpolation errors converge", 120)
    grid = EvalGrid(200, "uniform")
    degrees = [4, 8, 16, 32]
    ok = True
    for p in (1, 2, 4):
        report = analysis.convergence_study(get("exp_sum"), p, degrees, grid)
        wp = [r.error_wp for r in report.rows]
        ok &= all(b < a for a, b in zip(wp, wp[1:]))
        ok &= wp[-1] < 1e-8
        ratios = [r.error_wp / r.en_proxy for r in report.rows]
        ok &= max(ratios) / min(ratios) <= 10.0
    report = analysis.convergence_study(get("franke"), 2, degrees, grid)
    wp = [r.error_wp for r in report.rows]
    ok &= all(b <= a for a, b in zip(wp, wp[1:]))
    ratios = [r.error_wp / r.en_proxy for r in report.rows]
    ok &= max(ratios) / min(ratios) <= 10.0
    crit.finish(ok)


def test_criterion_9_marcinkiewicz():
    crit = _Criterion(9, "discrete and continuous norms stay comparable", 120)
    stats = {}
    for n in (4, 8, 16, 32):
        lo, hi = analysis.marcinkiewicz_ratios(n, 2, 200, seed=1)
        stats[n] = (1.0 / lo, hi)
    ok = all(hi <= 10.0 and inv <= 10.0 for inv, hi in stats.values())
    ok &= stats[32][1] <= 2.0 * stats[4][1]
    ok &= stats[32][0] <= 2.0 * stats[4][0]
    crit.finish(ok)


def test_criterion_10_verify_determinism(tmp_path):
    crit = _Criterion(10, "verify runs are byte-identical and exit 0", 120)
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    outputs = []
    codes = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "padua", "verify", "--max-degree", "16",
             "--seed", "7", "--output", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        codes.append(proc.returncode)
        outputs.append(path.read_bytes())
    ok = codes == [0, 0] and outputs[0] == outputs[1]
    ok &= json.loads(outputs[0])["all_passed"] is True
    crit.finish(ok)
