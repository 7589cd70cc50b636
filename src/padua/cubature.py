"""Degree-(2n-1) cubature at the nodes for the normalized Chebyshev weight."""

from dataclasses import dataclass, field

import numpy as np

from . import interp, kernel

# How many nodes the construction-time weight cross-check samples.
_CHECK_NODES = 50


@dataclass(frozen=True)
class CubatureRule:
    """Nodes plus positive weights summing to one (probability measure)."""

    degree: int
    nodes: object
    weights: np.ndarray = field(repr=False, compare=False)


def build_rule(pset):
    """Build the cubature rule: weight = 1 / (diagonal modified-kernel value).

    The closed-form class factors are cross-checked against the direct
    double sum at up to 50 nodes before the rule is returned; a mismatch
    raises RuntimeError rather than producing silently wrong weights.
    """
    star = kernel.node_star_values(pset)
    _cross_check(pset, star)
    return CubatureRule(degree=pset.degree, nodes=pset, weights=1.0 / star)


def _cross_check(pset, star):
    n = pset.degree
    count = len(pset)
    if count <= _CHECK_NODES:
        idx = slice(None)
    else:
        rng = np.random.default_rng(n)  # deterministic per degree
        idx = rng.choice(count, size=_CHECK_NODES, replace=False)
    direct = kernel.node_star_direct(pset, idx)
    tol = 1e-9 + 1e-12 * n * (n + 1)
    err = np.max(np.abs(direct - star[idx]))
    if err > tol:
        raise RuntimeError(
            f"node weight cross-check failed at degree {n}: "
            f"max deviation {err:.3e} exceeds {tol:.3e}"
        )


def integrate(rule, f):
    """Weighted node sum of f; equals the weighted integral for polynomials
    of total degree at most 2n-1.

    The reduction is numpy's fixed-tree pairwise sum, so results do not
    depend on any parallel schedule.
    """
    vals = interp.sample(rule.nodes, f)
    return float(np.add.reduce(rule.weights * vals))
