import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


@pytest.fixture
def direct_lagrange_matrix():
    """Lagrange matrices from the direct double sum: the oracle route.

    Entry (i, nu) is K*_n(x_i, nu) / K*_n(nu, nu) with both modified-kernel
    values taken from kernel_direct, so no compact-form code is involved.
    """
    from padua.cheb import cheb_t
    from padua.kernel import kernel_direct

    def build(pset, x1, x2):
        n = pset.degree
        x1 = np.atleast_1d(np.asarray(x1, dtype=float))[:, None]
        x2 = np.atleast_1d(np.asarray(x2, dtype=float))[:, None]
        nodes = tuple(pset.coords.T)
        # (P, 1) points against (N,) nodes broadcast to the (P, N) cross matrix
        star = kernel_direct(n, (x1, x2), nodes) - cheb_t(n, x1) * cheb_t(n, nodes[0])
        diag = kernel_direct(n, nodes, nodes) - cheb_t(n, nodes[0]) ** 2
        return star / diag

    return build


@pytest.fixture
def node_blocks():
    """The fundamental polynomials at the nodes, block by block of interp._grid_blocks.

    blocks(pset) runs it from the node sub-grids onto the lattice-table
    columns of each sub-grid in turn and yields (targets, sources, block):
    block[r, i, j, c] is the polynomial of the node at set position
    sources[r, c] at the node at set position targets[i, j].  Entry (i, c) of a sub-grid (ks, etas) is the
    node at set position row_starts[ks[i]] + c.
    """
    from padua.interp import _grid_blocks, lattice_tables

    def blocks(pset):
        n, grids = pset.degree, pset.sub_grids()
        l1, l2 = lattice_tables(n)
        pos = [pset.row_starts[ks][:, None] + np.arange(etas.size) for ks, etas in grids]
        for t, (ks, etas) in enumerate(grids):
            for s, first, block in _grid_blocks(pset, l1[:, ks], l2[:, etas]):
                yield pos[t], pos[s][first:first + len(block)], block

    return blocks
