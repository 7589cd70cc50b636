"""Degree-(2n-1) cubature at the nodes for the normalized Chebyshev weight.

The weight of node (k, eta) is 1 / K*(nu, nu), the reciprocal of the closed
form A[k] * B[eta] of kernel.node_star_axes, so it is a product of one factor
per lattice axis, a[k] * b[eta] with a = 1/A and b = 1/B.  The weights in set
order, built only when read, are those products at the nodes
(points.PaduaSet.from_axes).  The node set is the union of two
tensor sub-grids of the lattice (points.PaduaSet.sub_grids), and integrate
sums a[k] b[eta] f(x1_k, x2_eta) over each of them, with f's values from the
package's one node sampler, points._sub_grid_values, which calls f on the
lattice axes once per block of whole lattice rows, in sub-grid order.
integrate forms no array over the N nodes, or over a whole sub-grid, and its
sums are bitwise those of the same reduction over each whole sub-grid.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernel, points

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
        """The node weights a[k] b[eta] in set order (PaduaSet.from_axes),
        built on first read."""
        return self.nodes.from_axes(self.a, self.b)


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

    f's values come from points._sub_grid_values, in blocks of whole lattice
    rows of each sub-grid: f is called once per block with broadcasting
    lattice axes, x1 of shape (R, 1) for the block's R rows and x2 of shape
    (1, E), and should return the (R, E) values.  If it raises or returns
    another shape, that block is evaluated node by node, in sub-grid order
    (the even rows k first, each row in set order), and the first failing
    node is named in the SampleEvaluationError.  The b factors of a sub-grid
    are gathered once, outside its blocks.  Each row's b-weighted sum and
    each sub-grid's a-weighted sum of them are numpy's fixed-tree pairwise
    reductions, the same as over the whole sub-grid at once, so the result
    does not depend on the block size or on any parallel schedule.
    """
    total = 0.0
    for ks, etas, blocks in points._sub_grid_values(rule.nodes, f):
        b, row_sums = rule.b[etas], np.empty(ks.size)
        for rows, vals in blocks:
            np.add.reduce(vals * b, axis=1, out=row_sums[rows])
            del vals  # release this block's values before the next are formed
        total += np.add.reduce(rule.a[ks] * row_sums)
    return float(total)
