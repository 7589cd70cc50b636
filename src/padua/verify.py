"""Residual-check driver behind the `verify` CLI subcommand.

Every check reports the observed maximum residual next to its documented
tolerance; the CLI maps any failure to exit code 1 while still writing the
full report.  The closed-form node values come from kernel.NODE_FACTORS,
which the report echoes; the test suite's negative control tampers with that
mapping to prove the node-value cross-check actually bites.
"""

import numpy as np

from . import ideal, interp, kernel, points
from .cheb import check_degree


def singular_probe_pairs(n, rng, count=12):
    """Point pairs engineered to land in or near the compact-form guard band.

    Returns (xs, ys) arrays of shape (P, 2): exact coincidences, matched
    angle sums (denominator exactly zero), and offsets just inside the band.
    """
    xs, ys = [], []
    base = rng.uniform(-1.0, 1.0, (count, 2))
    for x1, x2 in base:
        th1, th2 = np.arccos(x1), np.arccos(x2)
        # the same point: one quotient denominator is exactly zero
        xs.append((x1, x2))
        ys.append((x1, x2))
        # matched sum theta1 + phi1 = theta2 + phi2
        ph1 = rng.uniform(0.0, np.pi)
        ph2 = th1 + ph1 - th2
        xs.append((x1, x2))
        ys.append((np.cos(ph1), np.cos(ph2)))
        # a hair inside the band
        xs.append((x1, x2))
        ys.append((np.cos(ph1), np.cos(ph2 + 1e-9)))
    return np.array(xs), np.array(ys)


def run_verification(max_degree, seed):
    """Run the residual checks for every degree up to max_degree.

    Returns a JSON-ready dict with one record per check per degree and an
    overall all_passed flag.  Deterministic for a given seed.
    """
    max_degree = check_degree(max_degree, minimum=1)
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, degree, observed, tolerance):
        checks.append(
            {
                "check": name,
                "degree": degree,
                "observed": float(observed),
                "tolerance": float(tolerance),
                "passed": bool(observed <= tolerance),
            }
        )

    for n in range(1, max_degree + 1):
        pset = points.generate(n)
        node_xy = (pset.x1, pset.x2)

        worst = 0.0
        for k in range(n + 2):
            worst = max(worst, float(np.max(np.abs(ideal.q_poly(n, k, node_xy)))))
        record("q_vanishing", n, worst, 1e-9 * (n + 1))

        pts = rng.uniform(-1.0, 1.0, (64, 2))
        qts = rng.uniform(-1.0, 1.0, (64, 2))

        if n >= 2:
            resid = ideal.three_term_residual(n, (pts[:, 0], pts[:, 1]))
            record("three_term_identity", n, float(np.max(resid)), 1e-10)
            for axis in (1, 2):
                resid = ideal.cd_residual(
                    n, axis, (pts[:, 0], pts[:, 1]), (qts[:, 0], qts[:, 1])
                )
                record(f"cd_identity_axis{axis}", n, float(np.max(resid)), 1e-9)

        sx, sy = singular_probe_pairs(n, rng)
        all_x = np.vstack([pts, sx])
        all_y = np.vstack([qts, sy])
        compact = kernel.kernel_compact(n, (all_x[:, 0], all_x[:, 1]),
                                        (all_y[:, 0], all_y[:, 1]))
        direct = kernel.kernel_direct(n, (all_x[:, 0], all_x[:, 1]),
                                      (all_y[:, 0], all_y[:, 1]))
        record("kernel_oracle_agreement", n,
               float(np.max(np.abs(compact - direct))), 1e-9 * (n + 1))

        lmat = interp.lagrange_matrix(pset, pset.x1, pset.x2)
        record("delta_property", n,
               float(np.max(np.abs(lmat - np.eye(len(pset))))), 1e-9)

        closed = kernel.node_star_values(pset)
        record("node_value_cross_check", n,
               float(np.max(np.abs(closed - kernel.node_star_direct(pset)))),
               1e-9 + 1e-12 * n * (n + 1))

        weights = 1.0 / closed
        record("weight_sum", n, abs(float(np.add.reduce(weights)) - 1.0), 1e-12)

        ones = np.ones(len(pset))
        part = interp.lagrange_matrix(pset, pts[:, 0], pts[:, 1]) @ ones
        record("partition_of_unity", n, float(np.max(np.abs(part - 1.0))), 1e-8)

    factors = kernel.NODE_FACTORS
    return {
        "max_degree": max_degree,
        "seed": int(seed),
        "node_factors": {
            cls.value: factors[cls] for cls in sorted(factors, key=lambda c: c.value)
        },
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
