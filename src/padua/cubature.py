"""Degree-(2n-1) cubature at the nodes for the normalized Chebyshev weight.

The weight of node (k, eta) is 1 / K*(nu, nu), the reciprocal of the closed
form A[k] * B[eta] of kernel.node_star_axes, so it is a product of one factor
per lattice axis, a[k] * b[eta] with a = 1/A and b = 1/B.  The node set is
the union of two tensor sub-grids of the lattice (points.PaduaSet.sub_grids),
and integrate sums a[k] b[eta] f(x1_k, x2_eta) over each of them, calling f
on the lattice axes; no array over the N nodes is formed.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernel, points
from .functions import evaluate

# How many nodes the construction-time weight cross-check samples.
_CHECK_NODES = 50


@dataclass(frozen=True)
class CubatureRule:
    """Nodes plus positive weights summing to one (probability measure).

    The weight of node (k, eta) is a[k] * b[eta]: a has one factor per
    lattice row k = 0..n, b one per eta = 0..n+1.
    """

    degree: int
    nodes: object
    a: np.ndarray = field(repr=False, compare=False)
    b: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def weights(self):
        """The node weights in set order, built on first read."""
        return self.a[self.nodes.k_num] * self.b[self.nodes.eta_num]


def build_rule(pset):
    """Build the cubature rule: weight = 1 / (diagonal modified-kernel value).

    The per-axis factors are the reciprocals of kernel.node_star_axes, which
    raises RuntimeError when the node factors do not split into one factor
    per axis.  The closed form is cross-checked against the direct double sum
    at up to 50 nodes before the rule is returned; a mismatch raises
    RuntimeError rather than producing silently wrong weights.
    """
    values = kernel.node_star_axes(pset.degree)
    _cross_check(pset, *values)
    a, b = (1.0 / v for v in values)
    return CubatureRule(degree=pset.degree, nodes=pset, a=a, b=b)


def _cross_check(pset, axis_k, axis_eta):
    n = pset.degree
    count = len(pset)
    if count <= _CHECK_NODES:
        positions = np.arange(count)
    else:
        rng = np.random.default_rng(n)  # deterministic per degree
        positions = rng.choice(count, size=_CHECK_NODES, replace=False)
    k, eta = pset.lattice_index(positions)
    direct = kernel.node_star_direct(pset, positions)
    tol = kernel.node_star_tolerance(n)
    err = np.max(np.abs(direct - axis_k[k] * axis_eta[eta]))
    if err > tol:
        raise RuntimeError(
            f"node weight cross-check failed at degree {n}: "
            f"max deviation {err:.3e} exceeds {tol:.3e}"
        )


def integrate(rule, f):
    """Weighted node sum of f; equals the weighted integral for polynomials
    of total degree at most 2n-1.

    f goes through functions.evaluate once per sub-grid with broadcasting
    lattice axes: x1 of shape (K, 1) and x2 of shape (1, E), and should
    return the (K, E) values.  If it raises or returns another shape, that
    sub-grid is evaluated node by node, in sub-grid order (the even rows k
    first, each row in set order), and the first failing node is named in
    the SampleEvaluationError.  The sum is a fixed-tree pairwise reduction,
    so results do not depend on any parallel schedule.
    """
    x1, x2 = points.lattice_axes(rule.degree)
    total = 0.0
    for ks, etas in rule.nodes.sub_grids():
        # grid entry (r, c) is node k = ks[r], j = c + 1 (PaduaSet.sub_grids)
        width = etas.size
        vals = evaluate(f, x1[ks][:, None], x2[etas][None, :],
                        name=lambda i: f"node k={ks[i // width]}, j={i % width + 1}")
        total += np.add.reduce(rule.a[ks] * np.add.reduce(vals * rule.b[etas], axis=1))
        del vals  # release this grid's values before the next are formed
    return float(total)
