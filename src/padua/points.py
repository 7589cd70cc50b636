"""Generation, indexing, and classification of the Padua node sets.

A node set is its degree n.  Its nodes are the odd-sum half k + eta odd of
the angle lattice (cos(k pi/n), cos(eta pi/(n+1))), k = 0..n, eta = 0..n+1,
which is the union of two tensor sub-grids: even k with odd eta, and odd k
with even eta (sub_grids), the lattice slices [0::2, 1::2] and [1::2, 0::2].
The set has (n+1)(n+2)/2 nodes for every n >= 1.  Set order packs each
sub-grid with a fixed row stride, so one map, PaduaSet.sub_grid_views, gives
a writable view per sub-grid of any array in set order.  This module is the
only one that knows the lattice slices: PaduaSet.to_lattice writes a
set-order array into a (..., n+1, n+2) lattice, zero off the set, and
PaduaSet.from_lattice reads the node entries of a lattice back in set order.
The projection, the Marcinkiewicz node values and the node angles of
kernel.node_tables go through these two; sampling, the Lagrange matrix and
the coordinates write blocks straight into the views, with no lattice, and
so does PaduaSet.from_axes, the products a[k] b[eta] of one factor per
lattice axis behind the node values and the cubature weights.  Per-axis
data (lattice_axes, lattice_ends) is on the lattice side.  Single nodes are
named by arithmetic on the lattice: position, node_index and lattice_index
on the row starts, and find_index on the two axes.  A function on the nodes
is called by one sampler, _sub_grid_values, once per block of whole lattice
rows of a sub-grid: cubature.integrate sums the blocks and interp.sample
writes them into the sub-grid views of its result.  PaduaSet checks its
degree at construction; its one per-node array is coords, built on first
read.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .cheb import cheb_t, check_degree, check_int, cospi_frac
from .functions import evaluate


class PointClass(Enum):
    VERTEX = "vertex"
    EDGE = "edge"
    INTERIOR = "interior"


class AmbiguousMatchError(ValueError):
    """More than one set member lies within the match tolerance."""


CODE_TO_CLASS = (PointClass.VERTEX, PointClass.EDGE, PointClass.INTERIOR)


@dataclass(frozen=True)
class PaduaSet:
    """The degree-n node set, ordered lexicographically in (k, j).

    The set is stored as its degree, checked at construction (1 <= n <=
    MAX_DEGREE) and kept as a plain int; len() is its node count.  Values
    move between set order and the (n+1) x (n+2) angle lattice through one
    map, sub_grid_views: one view of a set-order array per node sub-grid,
    with no per-node index array; to_lattice and from_lattice carry whole
    arrays through it to and from the lattice.  position, node_index and
    lattice_index name single nodes by arithmetic on row_starts.  The one
    per-node array kept is coords, built on first read from the lattice axes.
    """

    degree: int

    def __post_init__(self):
        object.__setattr__(self, "degree", check_degree(self.degree, minimum=1))

    @cached_property
    def row_starts(self):
        """Set position of the first node of each lattice row k, and N at k = n+1:
        rows 2r and 2r + 1 hold n + 2 nodes together, n//2 + 1 of them in row 2r."""
        n, ks = self.degree, np.arange(self.degree + 2)
        return ks // 2 * (n + 2) + ks % 2 * (n // 2 + 1)

    def __len__(self):
        return (self.degree + 1) * (self.degree + 2) // 2

    @cached_property
    def coords(self):
        """The (N, 2) node coordinates (cos(k pi/n), cos(eta pi/(n+1))) in set
        order, float64: the lattice axes written through the sub-grid views of
        its two columns, with no per-column copy."""
        x1, x2 = lattice_axes(self.degree)
        out = np.empty((len(self), 2))
        for view, (ks, etas) in zip(self.sub_grid_views(out.T), self.sub_grids()):
            view[0], view[1] = x1[ks, None], x2[etas]
        return out

    def position(self, index):
        """Array position of node (k, j); raises IndexError when absent or
        when k or j is not an integer (cheb.check_int: a bool is not one).

        Nodes are in (k, j) order, so the position is row_starts[k] + j - 1.
        """
        try:
            k, j = (check_int(v, "node index") for v in index)
        except (TypeError, ValueError):
            raise IndexError(f"no node with index {tuple(index)}") from None
        starts = self.row_starts
        if not (0 <= k <= self.degree and 1 <= j <= starts[k + 1] - starts[k]):
            raise IndexError(f"no node with index {(k, j)}")
        return int(starts[k]) + j - 1

    def lattice_index(self, positions):
        """Lattice numerators (k, eta) of the nodes at the given set positions.

        The inverse of position, by arithmetic on row_starts: k is the row
        that holds the position, j - 1 its offset in the row, and
        eta = 2j - 1 for even k, 2j - 2 for odd k.  No per-node array is read.
        Positions must have an integer dtype (TypeError otherwise, bool
        included), so that none is silently truncated.
        """
        pos = np.asarray(positions)
        if pos.size and pos.dtype.kind not in "iu":
            raise TypeError(f"set positions must be integers, not {pos.dtype}")
        pos = pos.astype(np.int64, copy=False)
        if pos.size and (pos.min() < 0 or pos.max() >= len(self)):
            raise IndexError(f"set positions outside 0..{len(self) - 1}")
        starts = self.row_starts
        k = np.searchsorted(starts, pos, side="right") - 1
        return k, 2 * (pos - starts[k]) + 1 - (k & 1)

    def node_index(self, position):
        """Index (k, j) of the node at one set position, as ints: the inverse of
        position, from lattice_index with j = (eta + 1 + k % 2) / 2.  No
        per-node array is read."""
        k, eta = self.lattice_index(position)
        return int(k), int(eta + 1 + (k & 1)) // 2

    def sub_grids(self):
        """The set as two tensor grids of lattice numerators: ((ks, etas), ...).

        Even k with odd eta, then odd k with even eta: on the (n+1) x (n+2)
        lattice, grid s is the slice [s::2, 1 - s::2].  Row i of a grid is
        lattice row ks[i], whose nodes take the etas in order, so grid entry
        (i, c) is the node at set position row_starts[ks[i]] + c.
        """
        n = self.degree
        return ((np.arange(0, n + 1, 2), np.arange(1, n + 2, 2)),
                (np.arange(1, n + 1, 2), np.arange(0, n + 2, 2)))

    def sub_grid_views(self, values):
        """The two sub-grids of a set-order array, as views in sub_grids() order.

        values has the N nodes on its last axis; view s has shape
        (..., len(ks), len(etas)), and entry (i, c) is the node (ks[i], etas[c])
        of grid s.  This is the one map between set order and the lattice.
        For even n every row holds n/2 + 1 nodes, so the set is an (n+1) x
        (n/2+1) matrix of lattice rows; for odd n rows 2r and 2r + 1 hold
        n + 2 nodes together, the first (n+1)/2 of row 2r.  Either way a view
        splits the last axis only, so it never copies and writes to it reach
        values.
        """
        n, e = self.degree, self.degree // 2 + 1
        if n % 2 == 0:
            rows = values.reshape(values.shape[:-1] + (n + 1, e))
            return rows[..., 0::2, :], rows[..., 1::2, :]
        pairs = values.reshape(values.shape[:-1] + (e, n + 2))
        return pairs[..., :e], pairs[..., e:]

    def to_lattice(self, values):
        """The (..., n+1, n+2) lattice of a set-order array, in its dtype: its
        values at the nodes and zero elsewhere.  Sub-grid s is the lattice
        slice [s::2, 1 - s::2], written from its sub_grid_views view."""
        n = self.degree
        lattice = np.zeros(values.shape[:-1] + (n + 1, n + 2), values.dtype)
        for s, view in enumerate(self.sub_grid_views(values)):
            lattice[..., s::2, 1 - s::2] = view
        return lattice

    def from_lattice(self, lattice):
        """The node entries of a (..., n+1, n+2) lattice as a C-contiguous
        set-order array in its dtype, a fresh one: the inverse of to_lattice
        on the set.  ValueError names both shapes unless the last two axes
        of lattice are (n+1, n+2)."""
        n = self.degree
        if lattice.shape[-2:] != (n + 1, n + 2):
            raise ValueError(f"lattice shape {lattice.shape}, expected (..., {n + 1}, {n + 2})")
        out = np.empty(lattice.shape[:-2] + (len(self),), lattice.dtype)
        for s, view in enumerate(self.sub_grid_views(out)):
            view[...] = lattice[..., s::2, 1 - s::2]
        return out

    def from_axes(self, a, b):
        """a[k] * b[eta] at the nodes as a set-order array, for a factor a per
        lattice row (n+1 values) and b per lattice column (n+2): the node
        entries of their outer product, written into each sub_grid_views view
        as a[ks, None] * b[etas], so no lattice is formed and the peak is
        the result's own size."""
        out = np.empty(len(self), np.result_type(a, b))
        for view, (ks, etas) in zip(self.sub_grid_views(out), self.sub_grids()):
            np.multiply(a[ks, None], b[etas], out=view)
        return out


def lattice_axes(n, dtype=float):
    """The lattice cosines cos(k pi/n), k = 0..n, and cos(eta pi/(n+1)), eta = 0..n+1,
    in dtype."""
    return cospi_frac(np.arange(n + 1), n, dtype), cospi_frac(np.arange(n + 2), n + 1, dtype)


# Nodes per block of lattice rows in _sub_grid_values.  f's values, the
# weighted copy cubature.integrate makes of them and f's own temporaries are
# a few arrays of this size, 512 KB each in float64, whatever the degree.
# In-process cubature.integrate of exp_sum at n = 2048 (min of 15 calls,
# three runs on a noisy 2-vCPU Xeon): blocks of 63 rows (this size)
# 9.2-12.9 ms, of 16 rows 9.1-12.8 ms, of 256 rows 15.0-18.1 ms, and whole
# 1025-row sub-grids 21.7-29.7 ms.
_BLOCK_VALUES = 1 << 16


def _sub_grid_values(pset, f, dtype=float):
    """f at the nodes of pset, one sub-grid at a time, in blocks of whole lattice rows.

    Yields (ks, etas, blocks) for each grid of pset.sub_grids(), even k
    first.  blocks yields (rows, vals) for consecutive slices rows of ks of
    about _BLOCK_VALUES nodes: vals[r, c] is f in dtype at the node of
    lattice row k = ks[rows][r] and eta = etas[c], which is node j = c + 1 of
    its row.  The per-grid work, such as gathering x2 at etas, is done once
    per grid; each block is one functions.evaluate call on broadcasting
    lattice axes in dtype, x1 of shape (R, 1) and x2 of shape (1, E), which
    in float64 are bitwise the columns of the set's coords.  If f raises or
    returns another shape, that block is evaluated node by node, and the
    first failing node is named in the SampleEvaluationError, in sub-grid
    order: the even rows k first, each row in set order.  Earlier blocks are
    not evaluated again.
    """
    x1, x2 = lattice_axes(pset.degree, dtype)

    def blocks(ks, axis2):
        step = max(1, _BLOCK_VALUES // axis2.size)
        for start in range(0, ks.size, step):
            rows = slice(start, start + step)
            yield rows, evaluate(f, x1[ks[rows], None], axis2, dtype, name=lambda i: (
                f"node k={ks[start + i // axis2.size]}, j={i % axis2.size + 1}"))

    for ks, etas in pset.sub_grids():
        yield ks, etas, blocks(ks, x2[etas][None, :])


def lattice_ends(n):
    """End flags of the lattice axes, as int8: 1 at k in {0, n} of the first
    and at eta in {0, n+1} of the second, 0 elsewhere.  A node is a vertex,
    edge or interior node (class code 0, 1 or 2) as its two flags sum to 2, 1
    or 0."""
    on1 = np.zeros(n + 1, dtype=np.int8)
    on2 = np.zeros(n + 2, dtype=np.int8)
    on1[[0, n]] = on2[[0, n + 1]] = 1
    return on1, on2


def generate(n):
    """The degree-n node set; PaduaSet(n) checks 1 <= n <= MAX_DEGREE.

    Only the degree is stored; coords is built on its first read (see
    PaduaSet).
    """
    return PaduaSet(n)


def generating_curve_points(n):
    """Distinct points sampled from the generating curve of this node family.

    The curve is parametrized so that its samples at t = k*pi/(n*(n+1)),
    0 <= k <= n*(n+1), land on the same angle lattice as generate(n); the
    deduplicated sample set equals generate(n) as a set.  Returns an array of
    shape (N, 2), in order of first appearance along the curve.
    """
    n = check_degree(n, minimum=1)
    ks = np.arange(n * (n + 1) + 1, dtype=np.int64)
    # two samples coincide exactly when their reduced angle numerators do
    r, s = ks % (2 * n), ks % (2 * (n + 1))
    reduced = np.column_stack([np.minimum(r, 2 * n - r), np.minimum(s, 2 * (n + 1) - s)])
    _, first = np.unique(reduced, axis=0, return_index=True)
    ks = ks[np.sort(first)]
    a = cospi_frac(ks, n)
    b = cospi_frac(ks, n + 1)
    if n % 2 == 0:
        return np.column_stack([a, -b])
    return np.column_stack([-a, b])


def curve_residual(n, x1, x2):
    """Residual of the algebraic equation of the generating curve.

    Every point of generate(n) satisfies T_n(x1) + T_{n+1}(x2) = 0; the
    returned value is that sum.
    """
    return cheb_t(n, x1) + cheb_t(n + 1, x2)


def find_index(pset, point, tol):
    """Locate the unique node within tol of the point in max-norm.

    Returns the (k, j) index pair, or None when no node matches.  Raises
    AmbiguousMatchError when two or more nodes fall inside the tolerance,
    and ValueError when point is not two coordinates or tol is not positive.
    The test is the float64 test max(|x1 - p1|, |x2 - p2|) <= tol at the
    node coordinates, applied to each of the two lattice axes (the columns
    of coords are bitwise lattice_axes): the matches are the pairs (k, eta)
    of the two axes' hits with k + eta odd, counted by parity, so no
    per-node array is built.
    """
    if np.shape(point) != (2,):
        raise ValueError(f"a point has two coordinates, got {point!r}")
    # written so that NaN fails too
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    ks, etas = (np.flatnonzero(np.abs(axis - point[d]) <= tol)
                for d, axis in enumerate(lattice_axes(pset.degree)))
    # odd k meet even eta, even k meet odd eta
    odd_k, odd_eta = np.count_nonzero(ks & 1), np.count_nonzero(etas & 1)
    count = odd_k * (etas.size - odd_eta) + (ks.size - odd_k) * odd_eta
    if count == 0:
        return None
    if count > 1:
        raise AmbiguousMatchError(f"ambiguous match: {count} nodes within tolerance {tol}")
    k, eta = next((k, e) for k in ks.tolist() for e in etas.tolist() if (k + e) & 1)
    return k, eta // 2 + 1
