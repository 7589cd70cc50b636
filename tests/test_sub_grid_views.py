"""Every move between set order and the node lattice against per-node index arrays.

PaduaSet.sub_grid_views is the one map between set order and the lattice,
and PaduaSet.to_lattice and from_lattice, written on it, carry whole arrays
to and from the (n+1) x (n+2) lattice.  The two maps, and each site that
goes through them, are compared here with the fancy-index expression they
replaced, written inline on index arrays built from the row counts: float64
and batches by their bytes, np.longdouble by value (the six padding bytes
of an 80-bit value are not part of it).
"""

import re

import numpy as np
import pytest

from padua import analysis, functions, interp, kernel, points
from padua.cheb import series_on_tables, t_norm_values, total_degree_mask
from padua.cubature import build_rule
from padua.interp import lagrange_matrix, lattice_tables, sample, to_coefficients
from padua.points import generate, lattice_axes

DEGREES = [*range(1, 65), 1023, 1024]


def _index_arrays(n):
    """(k, j, eta) of each node in set order, from the row counts alone."""
    counts = np.where(np.arange(n + 1) % 2 == 0, n // 2 + 1, (n + 1) // 2 + 1)
    starts = np.concatenate([[0], np.cumsum(counts)])
    k = np.repeat(np.arange(n + 1, dtype=np.int64), counts)
    j = np.arange(1, starts[-1] + 1, dtype=np.int64) - np.repeat(starts[:-1], counts)
    return k, j, 2 * j - 1 - (k & 1)


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == np.longdouble:
        assert np.array_equal(got, want)
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", DEGREES)
def test_views_are_the_sub_grids_and_write_through(n):
    pset = generate(n)
    k, _, eta = _index_arrays(n)
    values = np.arange(3 * len(pset)).reshape(3, -1)
    for view, (ks, etas) in zip(pset.sub_grid_views(values), pset.sub_grids()):
        assert view.shape == (3, ks.size, etas.size)
        assert np.shares_memory(view, values)
        pos = view[0]
        assert np.array_equal(k[pos], np.broadcast_to(ks[:, None], pos.shape))
        assert np.array_equal(eta[pos], np.broadcast_to(etas, pos.shape))
        view[...] = -1
    assert np.all(values == -1)


@pytest.mark.parametrize("n", DEGREES)
def test_lattice_maps_bitwise_the_index_route(n):
    # to_lattice is the scatter lattice[..., k, eta] = values, zero where k + eta
    # is even; from_lattice the gather lattice[..., k, eta], a fresh C-contiguous
    # array; and from_lattice(to_lattice(v)) is v, on a vector, a batch and a
    # strided vector
    pset = generate(n)
    k, _, eta = _index_arrays(n)
    even = (np.arange(n + 1)[:, None] + np.arange(n + 2)) % 2 == 0
    rng = np.random.default_rng(n)
    for dtype in (np.float64, np.longdouble):
        for values in (rng.uniform(-1.0, 1.0, len(pset)).astype(dtype),
                       rng.uniform(-1.0, 1.0, (2, 3, len(pset))).astype(dtype),
                       rng.uniform(-1.0, 1.0, (len(pset), 2)).astype(dtype)[:, 1]):
            lattice = pset.to_lattice(values)
            want = np.zeros(values.shape[:-1] + (n + 1, n + 2), dtype)
            want[..., k, eta] = values
            _same(lattice, want)
            assert not np.any(lattice[..., even])
            _same(pset.from_lattice(lattice), np.ascontiguousarray(values))
        full = rng.uniform(-1.0, 1.0, (2, n + 1, n + 2)).astype(dtype)
        got = pset.from_lattice(full)
        _same(got, full[..., k, eta])
        assert got.flags.c_contiguous and not np.shares_memory(got, full)


def test_lattice_maps_refuse_a_wrong_shape():
    pset = generate(1)
    # neither a (2, 2) array, nor the (3, 2) transpose, nor a flat or batched
    # array of another shape is the (2, 3) lattice of degree 1
    for lattice in (np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros((3, 2)), np.zeros(6),
                    np.zeros((4, 2, 2))):
        with pytest.raises(ValueError, match=re.escape(f"lattice shape {lattice.shape}, "
                                                       f"expected (..., 2, 3)")):
            pset.from_lattice(lattice)
    # to_lattice refuses a last axis that is not the N = 3 nodes
    for values in (np.zeros(4), np.zeros((3, 2))):
        with pytest.raises(ValueError):
            pset.to_lattice(values)


@pytest.mark.parametrize("n", DEGREES)
def test_node_arrays_and_node_index_bitwise_the_index_route(n):
    pset = generate(n)
    k, j, eta = _index_arrays(n)
    x1, x2 = lattice_axes(n)
    _same(pset.coords, np.column_stack([x1[k], x2[eta]]))
    positions = range(len(pset)) if n <= 12 else (0, 1, n // 2, len(pset) // 2, len(pset) - 1)
    assert [generate(n).node_index(i) for i in positions] == [(k[i], j[i]) for i in positions]


@pytest.mark.parametrize("n", DEGREES)
def test_node_values_and_weights_bitwise_the_index_route(n):
    pset = generate(n)
    k, _, eta = _index_arrays(n)
    a, b = kernel.node_star_axes(n)
    _same(kernel.node_star_values(pset), a[k] * b[eta])
    rule = build_rule(pset)
    _same(rule.weights, rule.a[k] * rule.b[eta])


@pytest.mark.parametrize("n", DEGREES)
def test_from_axes_bitwise_the_index_route(n):
    # a[k] * b[eta] at the nodes, and the node entries of the outer product
    pset = generate(n)
    k, _, eta = _index_arrays(n)
    rng = np.random.default_rng(n)
    for dtype in (np.float64, np.longdouble):
        a = rng.uniform(-1.0, 1.0, n + 1).astype(dtype)
        b = rng.uniform(-1.0, 1.0, n + 2).astype(dtype)
        got = pset.from_axes(a, b)
        _same(got, a[k] * b[eta])
        _same(got, pset.from_lattice(np.multiply.outer(a, b)))


def _old_sample(pset, f, dtype):
    """sample's lattice route: the blocks fill the lattice, read back by the index arrays."""
    n = pset.degree
    k, _, eta = _index_arrays(n)
    lattice = np.empty((n + 1, n + 2), dtype)
    for ks, etas, blocks in points._sub_grid_values(pset, f, dtype):
        for rows, vals in blocks:
            lattice[ks[rows, None], etas] = vals
    return lattice[k, eta]


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_sample_bitwise_the_lattice_route(n, dtype):
    pset = generate(n)
    for name in ("franke", "exp_sum"):
        f = functions.get(name)
        _same(sample(pset, f, dtype), _old_sample(pset, f, dtype))


def _old_lattice(pset, samples):
    """to_coefficients' former lattice: samples / (A[k] B[eta]) scattered by the index arrays."""
    n = pset.degree
    k, _, eta = _index_arrays(n)
    a, b = kernel.node_star_axes(n)
    lattice = np.zeros(samples.shape[:-1] + (n + 1, n + 2), dtype=samples.dtype)
    lattice[..., k, eta] = samples / (a[k] * b[eta])
    return lattice


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_projection_lattice_bitwise_the_index_route(monkeypatch, n, dtype):
    # the lattice that to_coefficients projects, caught at its one product;
    # at n <= 64 batches too, and the coefficients against the former route
    pset = generate(n)
    rng = np.random.default_rng(n)
    seen = []

    def spy(x, b1, b2):
        seen.append(x)
        if n > 64:  # only the lattice is compared
            return np.zeros(x.shape[:-2] + (n + 1, n + 1), x.dtype)
        return series_on_tables(x, b1, b2)

    monkeypatch.setattr(interp, "series_on_tables", spy)
    for shape in ((len(pset),), (2, 3, len(pset)))[:2 if n <= 64 else 1]:
        samples = rng.uniform(-1.0, 1.0, shape).astype(dtype)
        want = _old_lattice(pset, samples)
        got = to_coefficients(pset, samples)
        _same(seen.pop(), want)
        if n <= 64:
            t1, t2 = lattice_tables(n, dtype)
            coeffs = series_on_tables(want, t1.T, t2.T)
            coeffs[..., ~total_degree_mask(n)] = 0.0
            coeffs[..., n, 0] *= 0.5
            _same(got, coeffs)
    # a strided sample vector reads the same values
    samples = rng.uniform(-1.0, 1.0, (len(pset), 2)).astype(dtype)[:, 1]
    to_coefficients(pset, samples)
    _same(seen.pop(), _old_lattice(pset, samples))


@pytest.mark.parametrize("n", DEGREES)
def test_marcinkiewicz_node_values_bitwise_the_index_route(n):
    # _ratios at the degrees of marcinkiewicz_trials through its setup; above
    # its degree bound on tables built here, with a 3-node quadrature axis
    rng = np.random.default_rng(n)
    if n <= analysis.MAX_MARCINKIEWICZ_DEGREE:
        _, p, tables = analysis._marcinkiewicz_setup(n, 4)
    else:
        q = t_norm_values(n, np.array([-0.5, 0.0, 0.5]))
        p, tables = 4.0, (*lattice_tables(n), generate(n), q)
    l1, l2, pset, q = tables
    k, _, eta = _index_arrays(n)
    for size in (1, 3) if n <= 64 else (1,):
        coeffs = rng.uniform(-1.0, 1.0, (size, n + 1, n + 1))
        lattice = series_on_tables(coeffs, l1, l2).reshape(size, -1)
        node_vals = np.ascontiguousarray(lattice[:, k * (n + 2) + eta])
        np.abs(node_vals, out=node_vals)
        node_vals **= p
        quad_vals = np.abs(series_on_tables(coeffs, q, q)) ** p
        want = node_vals.mean(axis=-1) / quad_vals.mean(axis=(-2, -1))
        _same(analysis._ratios(coeffs, p, *tables), want)


@pytest.mark.parametrize("n", DEGREES)
def test_lagrange_matrix_bitwise_the_position_route(monkeypatch, n):
    # each block lands at its set positions row_starts[ks] + c, by fancy index
    if n <= 64:
        monkeypatch.setattr(interp, "_BLOCK_ENTRIES", 400)  # several blocks per grid
    pset = generate(n)
    x = np.random.default_rng(n).uniform(-1.0, 1.0, (2, 7 if n <= 64 else 2))
    shape, blocks = interp._lagrange_blocks(n, x, pset.sub_grids())
    want = np.full((x.shape[1], len(pset)), np.nan)
    grids = pset.sub_grids()
    for rows, s, cols, lat in blocks:
        ks, etas = grids[s]
        pos = pset.row_starts[ks][:, None] + np.arange(etas.size)[cols]
        want[rows, pos] = lat.transpose(1, 0, 2)
    _same(lagrange_matrix(pset, *x), want)


def test_sites_build_no_per_node_array(monkeypatch):
    pset = generate(33)
    sample(pset, functions.get("franke"))
    to_coefficients(pset, np.ones(len(pset)))
    kernel.node_star_values(pset)
    lagrange_matrix(pset, np.array([0.1, -0.3]), np.array([0.7, 0.2]))
    build_rule(pset).weights
    assert "coords" not in pset.__dict__
    made = []

    def spy(n):
        made.append(generate(n))
        return made[-1]

    monkeypatch.setattr(points, "generate", spy)
    analysis.marcinkiewicz_trials(8, 3, 5)
    assert made and not any("coords" in s.__dict__ for s in made)
