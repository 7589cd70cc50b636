"""Residual-check driver behind the `verify` CLI subcommand.

Every check reports the observed maximum residual next to its documented
tolerance; the CLI maps any failure to exit code 1 while still writing the
full report.  The node values, their direct sum and the bound they agree to
come from kernel; the closed form is built from kernel.NODE_FACTORS, which
the report echoes, and the test suite's negative control tampers with that
mapping to prove the node-value cross-check actually bites.  The ideal basis
is checked to vanish on the lattice axes of the two node sub-grids, so its
cos tables have n+1 and n+2 points, not N.  The delta property is checked
on the blocks of interp._grid_blocks(pset, ...) onto each node sub-grid's
own lattice tables in turn, one matrix product per pair of sub-grids and
chunk of lattice rows, so no N x N matrix is held.  The partition of unity
sums the blocks of interp._lagrange_blocks at the random points as they
come; both take the fundamental polynomials from their closed-form
coefficients, so they read at rounding level.  The compact kernel is
checked against its direct sum on its own.  Per degree, each side of the
random and probe point pairs has one Chebyshev table set (cheb.ChebTables,
with the ideal-basis rows of ideal._Tables) on all its points, which forms
its ideal-basis rows and degree-n basis rows once, and the pairs have one
direct kernel sum (kernel.direct_from_tables): the three-term and
Christoffel-Darboux checks read them at the random pairs, the kernel check
at all pairs.
"""

import numpy as np

from . import ideal, interp, kernel, points
from .cheb import check_degree

# Largest --max-degree.  The checks of one degree cost O(n^5) flops, most of
# it the delta property (N fundamental polynomials at N nodes, one BLAS
# product per pair of node sub-grids and chunk of at most 2**17 values or one
# lattice row), so a whole run grows like max_degree^6.  At 100 a run took
# 2.7-3.2 s in-process on a 2-core Xeon (seed 1), about 1.7 s of it the delta
# check; 150 would take roughly 11 times that.  Memory stays small (the delta
# check peaks near 7 MB at n = 100 under tracemalloc).  Larger degrees are
# refused before any work.
MAX_VERIFY_DEGREE = 100


def singular_probe_pairs(n, rng, count=12):
    """Point pairs engineered to land on or near the removable singularities
    of the compact form's quotient (cos m alpha - cos m beta) / (cos alpha -
    cos beta).

    Returns (xs, ys) arrays of shape (P, 2): exact coincidences, matched
    angle sums (denominator exactly zero), and sums offset by 1e-9.
    """
    base = rng.uniform(-1.0, 1.0, (count, 2))
    # the same draws as one rng.uniform(0.0, np.pi) per base point
    ph1 = rng.uniform(0.0, np.pi, count)
    # matched sum theta1 + phi1 = theta2 + phi2
    ph2 = np.arccos(base[:, 0]) + ph1 - np.arccos(base[:, 1])
    # per base point: the same point (one quotient denominator is exactly
    # zero), the matched sum, and the matched sum offset by 1e-9
    ys = np.stack([base, np.column_stack([np.cos(ph1), np.cos(ph2)]),
                   np.column_stack([np.cos(ph1), np.cos(ph2 + 1e-9)])], axis=1)
    return np.repeat(base, 3, axis=0), ys.reshape(-1, 2)


def run_verification(max_degree, seed):
    """Run the residual checks for every degree up to max_degree.

    max_degree may be at most MAX_VERIFY_DEGREE; a larger one raises
    ValueError before any check runs.

    Returns a JSON-ready dict with one record per check per degree and an
    overall all_passed flag.  Deterministic for a given seed.
    """
    max_degree = check_degree(max_degree, minimum=1)
    if max_degree > MAX_VERIFY_DEGREE:
        raise ValueError(
            f"unsupported max degree {max_degree}: verify's run time grows like "
            f"max_degree^6, so it allows max degree <= {MAX_VERIFY_DEGREE}"
        )
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
        x1, x2 = points.lattice_axes(n)
        worst = max(float(np.max(np.abs(ideal.q_rows(n, (x1[ks][:, None],
                                                         x2[etas][None, :])))))
                    for ks, etas in pset.sub_grids())
        record("q_vanishing", n, worst, 1e-9 * (n + 1))

        pts = rng.uniform(-1.0, 1.0, (64, 2))
        qts = rng.uniform(-1.0, 1.0, (64, 2))
        sx, sy = singular_probe_pairs(n, rng)
        # one table set per side, on the random points and then the probes;
        # the residual checks read the random pairs, the oracle check all
        all_x = np.vstack([pts, sx])
        all_y = np.vstack([qts, sy])
        tx, ty = ideal._Tables.pair(n, all_x.T, all_y.T)
        direct = kernel.direct_from_tables(tx, ty)
        head = slice(len(pts))

        if n >= 2:
            mats = ideal.struct_matrices(n)
            resid = ideal._three_term(n, mats, tx)[head]
            record("three_term_identity", n, float(np.max(resid)), 1e-10)
            for axis in (1, 2):
                resid = ideal._cd(n, axis, mats, tx, ty, direct)[head]
                record(f"cd_identity_axis{axis}", n, float(np.max(resid)), 1e-9)

        compact = kernel.kernel_compact(n, tx.x, ty.x)
        record("kernel_oracle_agreement", n,
               float(np.max(np.abs(compact - direct))), 1e-9 * (n + 1))

        grids, (l1, l2) = pset.sub_grids(), interp.lattice_tables(n)
        worst = 0.0
        for t, (ks, etas) in enumerate(grids):
            for s, first, block in interp._grid_blocks(pset, l1[:, ks], l2[:, etas]):
                if s == t:  # source row first + r on itself: its nodes' deltas are 1
                    rows = np.arange(len(block))
                    block[rows, first + rows] -= np.eye(block.shape[-1])
                worst = max(worst, float(block.max()), float(-block.min()))
        record("delta_property", n, worst, 1e-9)

        closed = kernel.node_star_values(pset)
        record("node_value_cross_check", n,
               float(np.max(np.abs(closed - kernel.node_star_direct(pset)))),
               kernel.node_star_tolerance(n))

        weights = 1.0 / closed
        record("weight_sum", n, abs(float(np.add.reduce(weights)) - 1.0), 1e-12)

        part = np.zeros(len(pts))
        _, blocks = interp._lagrange_blocks(n, (pts[:, 0], pts[:, 1]), grids)
        for rows, _, _, lat in blocks:
            part[rows] += lat.sum(axis=(0, 2))
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
