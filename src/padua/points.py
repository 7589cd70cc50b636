"""Generation, indexing, and classification of the Padua node sets."""

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .cheb import cheb_t, check_degree, cospi_frac


class PointClass(Enum):
    VERTEX = "vertex"
    EDGE = "edge"
    INTERIOR = "interior"


class AmbiguousMatchError(ValueError):
    """More than one set member lies within the match tolerance."""


@dataclass(frozen=True, slots=True)
class PaduaPoint:
    k: int
    j: int
    x1: float
    x2: float
    point_class: PointClass


_CODE_TO_CLASS = (PointClass.VERTEX, PointClass.EDGE, PointClass.INTERIOR)


@dataclass(frozen=True)
class PaduaSet:
    """The degree-n node set, ordered lexicographically in (k, j).

    Coordinates live on the angle lattices cos(k*pi/n) and cos(m*pi/(n+1));
    the integer numerators k_num and eta_num are kept so downstream kernel
    code can build trig tables without an arccos round trip.  The per-point
    record view `points` is materialized lazily so that sets near the degree
    cap stay array-backed.
    """

    degree: int
    k_num: np.ndarray = field(repr=False, compare=False)
    j_num: np.ndarray = field(repr=False, compare=False)
    eta_num: np.ndarray = field(repr=False, compare=False)
    x1: np.ndarray = field(repr=False, compare=False)
    x2: np.ndarray = field(repr=False, compare=False)
    class_codes: np.ndarray = field(repr=False, compare=False)

    def __len__(self):
        return self.k_num.shape[0]

    @property
    def cardinality(self):
        return len(self)

    @cached_property
    def points(self):
        """Tuple of PaduaPoint records, lexicographic in (k, j)."""
        return tuple(
            PaduaPoint(int(k), int(j), float(a), float(b), _CODE_TO_CLASS[c])
            for k, j, a, b, c in zip(
                self.k_num, self.j_num, self.x1, self.x2, self.class_codes
            )
        )

    @cached_property
    def coords(self):
        return np.column_stack([self.x1, self.x2])

    @cached_property
    def index_map(self):
        return {
            (int(k), int(j)): i
            for i, (k, j) in enumerate(zip(self.k_num, self.j_num))
        }

    def position(self, index):
        """Array position of node (k, j); raises IndexError when absent."""
        try:
            return self.index_map[tuple(index)]
        except KeyError:
            raise IndexError(f"no node with index {tuple(index)}") from None


def _classify_codes(n, k_num, eta_num):
    # x1 = +-1 exactly when k_num is 0 or n, x2 = +-1 when eta_num is 0 or n+1
    on1 = (k_num == 0) | (k_num == n)
    on2 = (eta_num == 0) | (eta_num == n + 1)
    return np.where(on1 & on2, 0, np.where(on1 | on2, 1, 2)).astype(np.int8)


def generate(n):
    """Build the full degree-n node set with geometric classes.

    The first coordinate runs over cos(k*pi/n), k = 0..n.  The second runs
    over cos(m*pi/(n+1)) where m is odd for even k and even for odd k, so the
    set is exactly the odd-sum part of the two angle lattices and has
    cardinality (n+1)(n+2)/2 for every n >= 1.
    """
    n = check_degree(n, minimum=1)
    counts = np.where(np.arange(n + 1) % 2 == 0, n // 2 + 1, (n + 1) // 2 + 1)
    k_num = np.repeat(np.arange(n + 1, dtype=np.int64), counts)
    j_num = np.concatenate([np.arange(1, c + 1, dtype=np.int64) for c in counts])
    eta_num = np.where(k_num % 2 == 0, 2 * j_num - 1, 2 * j_num - 2)
    x1 = cospi_frac(k_num, n)
    x2 = cospi_frac(eta_num, n + 1)
    return PaduaSet(
        degree=n,
        k_num=k_num,
        j_num=j_num,
        eta_num=eta_num,
        x1=x1,
        x2=x2,
        class_codes=_classify_codes(n, k_num, eta_num),
    )


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
    AmbiguousMatchError when two or more nodes fall inside the tolerance.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    d = np.maximum(np.abs(pset.x1 - point[0]), np.abs(pset.x2 - point[1]))
    hits = np.flatnonzero(d <= tol)
    if hits.size == 0:
        return None
    if hits.size > 1:
        raise AmbiguousMatchError(
            f"ambiguous match: {hits.size} nodes within tolerance {tol}"
        )
    i = hits[0]
    return (int(pset.k_num[i]), int(pset.j_num[i]))
