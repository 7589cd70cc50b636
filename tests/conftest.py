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
        nodes = (pset.x1, pset.x2)
        # (P, 1) points against (N,) nodes broadcast to the (P, N) cross matrix
        star = kernel_direct(n, (x1, x2), nodes) - cheb_t(n, x1) * cheb_t(n, pset.x1)
        diag = kernel_direct(n, nodes, nodes) - cheb_t(n, pset.x1) ** 2
        return star / diag

    return build
