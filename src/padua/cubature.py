"""Degree-(2n-1) cubature at the nodes for the normalized Chebyshev weight.

The weight of node (k, eta) is 1 / K*(nu, nu) = 1 / (n(n+1) F[class]), with
F = kernel.NODE_FACTORS.  The class counts how many of k in {0, n} and
eta in {0, n+1} hold, so whenever F_edge^2 = F_interior * F_vertex the weight
is a product of one factor per lattice axis, a[k] * b[eta].  The node set is
the union of two tensor sub-grids of the lattice (points.PaduaSet.sub_grids),
and integrate sums a[k] b[eta] f(x1_k, x2_eta) over each of them, calling f
on the lattice axes; no array over the N nodes is formed.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernel, points
from .functions import evaluate
from .points import PointClass

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

    The per-axis factors come from kernel.NODE_FACTORS; RuntimeError is
    raised when those do not split into one factor per axis.  The weights
    are cross-checked against the direct double sum at up to 50 nodes before
    the rule is returned; a mismatch raises RuntimeError rather than
    producing silently wrong weights.
    """
    a, b = _axis_factors(pset.degree)
    _cross_check(pset, a, b)
    return CubatureRule(degree=pset.degree, nodes=pset, a=a, b=b)


def _axis_factors(n):
    """a (length n+1) and b (length n+2) with a[k] b[eta] = 1 / (n(n+1) F[class]).

    Interior nodes get the product 1 / (n(n+1) F_interior), held in a; an end
    of either range multiplies it by F_interior / F_edge, which gives the
    edge weight exactly, and the vertex weight when F_edge^2 equals
    F_interior * F_vertex.  With the factors 2, 1, 1/2 the end factor is 1/2,
    so every product is the class weight to the last bit.
    """
    f = kernel.NODE_FACTORS
    vertex, edge, interior = (f[PointClass.VERTEX], f[PointClass.EDGE],
                              f[PointClass.INTERIOR])
    if edge * edge != interior * vertex:
        raise RuntimeError(
            f"node factors do not split into one factor per lattice axis: "
            f"edge^2 = {edge * edge!r} but interior * vertex = {interior * vertex!r}"
        )
    end = interior / edge
    a = np.full(n + 1, 1.0 / (n * (n + 1.0) * interior))
    a[[0, n]] *= end
    b = np.ones(n + 2)
    b[[0, n + 1]] = end
    return a, b


def _cross_check(pset, a, b):
    n = pset.degree
    count = len(pset)
    if count <= _CHECK_NODES:
        positions = np.arange(count)
    else:
        rng = np.random.default_rng(n)  # deterministic per degree
        positions = rng.choice(count, size=_CHECK_NODES, replace=False)
    k, eta = pset.lattice_index(positions)
    direct = kernel.node_star_direct(pset, positions)
    tol = 1e-9 + 1e-12 * n * (n + 1)
    err = np.max(np.abs(direct - 1.0 / (a[k] * b[eta])))
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
