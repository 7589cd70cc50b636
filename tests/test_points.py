import functools
import tracemalloc

import numpy as np
import pytest

import oracles
from padua import kernel
from padua.cheb import MAX_DEGREE, DegreeError, cospi_frac
from padua.cubature import build_rule
from padua.points import (
    CODE_TO_CLASS,
    AmbiguousMatchError,
    PaduaSet,
    PointClass,
    find_index,
    generate,
    generating_curve_points,
    lattice_axes,
    lattice_ends,
)


def _as_sorted_tuples(arr, digits=12):
    return sorted(map(tuple, np.round(np.asarray(arr), digits)))


def _classes(pset):
    """The class of every node in set order, from its lattice numerators and
    the lattice end flags."""
    k, eta = pset.lattice_index(np.arange(len(pset)))
    on1, on2 = lattice_ends(pset.degree)
    return [CODE_TO_CLASS[c] for c in 2 - on1[k] - on2[eta]]


def test_degree_two_enumeration():
    pset = generate(2)
    expect = [
        (0, 1, 1.0, 0.5, PointClass.EDGE),
        (0, 2, 1.0, -1.0, PointClass.VERTEX),
        (1, 1, 0.0, 1.0, PointClass.EDGE),
        (1, 2, 0.0, -0.5, PointClass.INTERIOR),
        (2, 1, -1.0, 0.5, PointClass.EDGE),
        (2, 2, -1.0, -1.0, PointClass.VERTEX),
    ]
    assert len(pset) == 6
    for i, (k, j, x1, x2, cls) in enumerate(expect):
        assert pset.node_index(i) == (k, j)
        assert pset.coords[i, 0] == pytest.approx(x1, abs=1e-15)
        assert pset.coords[i, 1] == pytest.approx(x2, abs=1e-15)
    assert _classes(pset) == [cls for *_, cls in expect]


def test_degree_one_enumeration():
    pset = generate(1)
    assert len(pset) == 3
    got = _as_sorted_tuples(pset.coords)
    assert got == _as_sorted_tuples([(1.0, 0.0), (-1.0, 1.0), (-1.0, -1.0)])


def test_cardinality_formula():
    assert len(generate(4)) == 15
    for n in range(1, 129):
        pset = generate(n)
        assert len(pset) == (n + 1) * (n + 2) // 2


def test_points_distinct():
    for n in range(1, 129):
        pset = generate(n)
        coords = pset.coords
        order = np.lexsort((coords[:, 1], coords[:, 0]))
        diffs = np.abs(np.diff(coords[order], axis=0)).max(axis=1)
        assert np.all(diffs > 1e-12)


def test_ordering_lexicographic():
    pset = generate(7)
    seq = [pset.node_index(i) for i in range(len(pset))]
    assert seq == sorted(seq)


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_curve_sampling_matches_set(n):
    curve = generating_curve_points(n)
    pset = generate(n)
    assert curve.shape == (len(pset), 2)
    got = _as_sorted_tuples(curve)
    expect = _as_sorted_tuples(pset.coords)
    assert np.allclose(np.array(got), np.array(expect), atol=1e-12)


def test_vertex_census():
    for n in range(1, 65):
        pset = generate(n)
        classes = _classes(pset)
        assert classes.count(PointClass.VERTEX) == 2
        for cls, (x1, x2) in zip(classes, pset.coords.tolist()):
            on_boundary = abs(abs(x1) - 1) <= 1e-14 or abs(abs(x2) - 1) <= 1e-14
            if cls is PointClass.INTERIOR:
                assert abs(x1) < 1 - 1e-14 and abs(x2) < 1 - 1e-14
            else:
                assert on_boundary


def test_curve_membership():
    for n in (1, 2, 3, 8, 17, 40):
        pset = generate(n)
        resid = oracles.curve_residual(n, *pset.coords.T)
        assert np.max(np.abs(resid)) <= 1e-10


def test_generating_curve_points_on_curve():
    for n in (2, 5, 12):
        pts = generating_curve_points(n)
        resid = oracles.curve_residual(n, pts[:, 0], pts[:, 1])
        assert np.max(np.abs(resid)) <= 1e-10


def test_degree_bounds():
    with pytest.raises(DegreeError, match="unsupported degree"):
        generate(0)
    with pytest.raises(DegreeError, match="unsupported degree"):
        generate(4097)
    with pytest.raises(DegreeError):
        generating_curve_points(0)


def test_find_index_matches():
    pset = generate(2)
    assert find_index(pset, (0.0, -0.5), 1e-10) == (1, 2)
    assert find_index(pset, (1.0, -1.0), 1e-10) == (0, 2)
    assert find_index(pset, (0.5, 0.5), 1e-10) is None
    # the match is found by arithmetic on the lattice axes, not in coords
    assert "coords" not in pset.__dict__


def test_find_index_ambiguous():
    pset = generate(2)
    with pytest.raises(AmbiguousMatchError, match="ambiguous match"):
        find_index(pset, (0.0, 0.0), 10.0)
    for tol in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            find_index(pset, (0.0, 0.0), tol)


def test_find_index_needs_two_coordinates():
    pset = generate(4)
    for point in ((1.0,), (1.0, 0.0, 99), 1.0, ()):
        with pytest.raises(ValueError, match="a point has two coordinates"):
            find_index(pset, point, 1e-3)


def _outcome(find, pset, point, tol):
    """find's result, or the type and message of the ValueError it raised."""
    try:
        return find(pset, point, tol)
    except ValueError as err:
        return type(err), str(err)


def _find_index_cases(n, seed):
    """(point, tol) cases of find_index at degree n, grouped by kind."""
    rng = np.random.default_rng(seed)
    axes = lattice_axes(n)
    inf, nan = float("inf"), float("nan")
    cases = {"random": [(tuple(rng.uniform(-1.05, 1.05, 2)), tol)
                        for tol in (1e-9, 0.5 / n, 4.0 / n) for _ in range(4)]}
    # a coordinate exactly midway between two lattice cosines, the other on
    # a lattice cosine; tol the distance to either neighbour, and one ulp off
    cases["midway"] = []
    for d in (0, 1):
        m = int(rng.integers(0, axes[d].size - 1))
        mid = (axes[d][m] + axes[d][m + 1]) / 2
        other = float(axes[1 - d][rng.integers(0, axes[1 - d].size)])
        point = (mid, other) if d == 0 else (other, mid)
        gap = abs(axes[d][m] - mid)
        for t in (np.nextafter(gap, 0), gap, np.nextafter(gap, 1)):
            cases["midway"].append((point, t))
    # a coordinate one ulp inside, at and one ulp outside tol of a node
    cases["ulp"] = []
    nums = generate(n).lattice_index(rng.integers(0, (n + 1) * (n + 2) // 2))
    x = [axes[d][nums[d]] for d in (0, 1)]
    for d in (0, 1):
        for tol in (1e-9, 0.3 / n):
            for edge in (x[d] + tol, x[d] - tol):
                for c in (np.nextafter(edge, -inf), edge, np.nextafter(edge, inf)):
                    point = [x[0], x[1]]
                    point[d] = c
                    cases["ulp"].append((tuple(point), tol))
    cases["special"] = [(point, tol) for point in
                        [(nan, 0.0), (0.0, nan), (inf, 0.0), (-inf, 0.0), (0.0, inf),
                         (inf, -inf), (1.5, 0.2), (-3.0, 1e300), (1e300, 1e300)]
                        for tol in (0.1, 2.5, 1e300, inf)]
    cases["several"] = [((0.1, -0.2), tol) for tol in (0.3, 1.0, 2.0)]
    cases["bad tol"] = [((0.0, 0.0), tol) for tol in (0.0, -1.0, -inf, nan)]
    return cases


@pytest.mark.parametrize("n", [*range(1, 65), 4096])
def test_find_index_equals_the_scan(n):
    # the scan of every node is the oracle; at n = 4096 each scan takes
    # about 0.1 s, so two cases of each kind are run there
    pset = generate(n)
    for kind, cases in _find_index_cases(n, seed=n).items():
        for point, tol in cases if n <= 64 else cases[:2]:
            want = _outcome(oracles.find_index_scan, pset, point, tol)
            assert _outcome(find_index, pset, point, tol) == want, (kind, point, tol)


def test_find_index_peak_memory_at_max_degree():
    # tol below the lattice spacing: the test runs on the two lattice axes,
    # not on the 8.4e6 nodes (the scan's peak is about 336 MB)
    pset = generate(4096)
    k, eta = pset.lattice_index(1234567)
    point = (lattice_axes(4096)[0][k] + 1e-10, lattice_axes(4096)[1][eta] - 1e-10)
    tracemalloc.start()
    try:
        got = find_index(pset, point, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pset.node_index(1234567)
    assert peak <= 1 << 20


def test_position_lookup():
    pset = generate(3)
    assert pset.position((0, 1)) == 0
    with pytest.raises(IndexError):
        pset.position((99, 1))


@pytest.mark.parametrize("n", range(1, 41))
def test_position_is_enumeration_order(n):
    pset = generate(n)
    nodes = oracles.padua_nodes(n)
    got = [pset.position((k, j)) for k, j in zip(nodes.k, nodes.j)]
    assert got == list(range(len(pset)))


def test_position_out_of_range():
    for n in (1, 2, 7, 8):
        pset = generate(n)
        last_even, last_odd = n // 2 + 1, (n + 1) // 2 + 1
        bad = [(-1, 1), (n + 1, 1), (0, 0), (1, 0), (0, last_even + 1),
               (1, last_odd + 1), (0, -1), (True, 1), (1, True), (0, 1.0)]
        for index in bad:
            with pytest.raises(IndexError):
                pset.position(index)
        assert pset.position((0, last_even)) == last_even - 1
        assert pset.position((1, last_odd)) == last_even + last_odd - 1


@pytest.mark.parametrize("n", range(1, 65))
def test_node_set_reflection_symmetry(n):
    # x1 -> -x1 (k -> n - k) maps the set onto itself for even n, and
    # x2 -> -x2 (eta -> n + 1 - eta) for odd n; the other one never does
    pset = generate(n)
    nodes = set(zip(*(a.tolist() for a in pset.lattice_index(np.arange(len(pset))))))
    flip1 = {(n - k, eta) for k, eta in nodes}
    flip2 = {(k, n + 1 - eta) for k, eta in nodes}
    assert (flip1 == nodes) == (n % 2 == 0)
    assert (flip2 == nodes) == (n % 2 == 1)


def test_class_codes_match_integer_lattice():
    # on the angle lattice a coordinate is on the boundary exactly when its
    # numerator is an end of its range: k in {0, n} or eta in {0, n+1}
    for n in (1, 2, 9, 24, 128):
        pset = generate(n)
        k, eta = pset.lattice_index(np.arange(len(pset)))
        on1 = (k == 0) | (k == n)
        on2 = (eta == 0) | (eta == n + 1)
        # the lattice ends are exactly the coordinates +-1
        assert np.array_equal(on1, np.abs(pset.coords[:, 0]) == 1.0)
        assert np.array_equal(on2, np.abs(pset.coords[:, 1]) == 1.0)
        expect = np.where(on1 & on2, 0, np.where(on1 | on2, 1, 2))
        assert list(oracles.padua_nodes(n).code) == list(expect)
        assert _classes(pset) == [CODE_TO_CLASS[c] for c in expect]


@pytest.mark.parametrize("n", [*range(1, 65), 256, 511, 512, 2048, 4096])
def test_generate_fields_bitwise_per_node(n):
    # the lattice numerators of every set position equal their per-node
    # definitions, and column d of coords is cospi_frac of numerator d bit
    # for bit (compared through int64 views, so that n = 4096 holds no copy)
    pset = generate(n)
    k, eta = pset.lattice_index(np.arange(len(pset)))
    counts = [n // 2 + 1 if r % 2 == 0 else (n + 1) // 2 + 1 for r in range(n + 1)]
    j = np.concatenate([np.arange(1, c + 1) for c in counts])
    assert np.array_equal(k, np.repeat(np.arange(n + 1), counts))
    assert np.array_equal(eta, np.where(k % 2 == 0, 2 * j - 1, 2 * j - 2))
    del j
    assert pset.coords.shape == (len(pset), 2) and pset.coords.flags.c_contiguous
    bits = pset.coords.view(np.int64)
    for d, num in enumerate((k, eta)):
        assert np.array_equal(bits[:, d], cospi_frac(num, n + d).view(np.int64))


def test_coords_peak_memory_is_its_own_size():
    pset = generate(4096)
    tracemalloc.start()
    try:
        coords = pset.coords
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * coords.nbytes


@pytest.mark.parametrize("site", ["node values", "weights"])
def test_node_values_and_weights_peak_memory_is_their_own_size(site):
    # PaduaSet.from_axes writes a[ks, None] * b[etas] into each sub-grid view,
    # so no (n+1) x (n+2) outer product is formed: 67.2 MB of result at
    # n = 4096, where the outer product and its gather peaked at 201.5 MB
    pset = generate(4096)
    rule = build_rule(pset)
    tracemalloc.start()
    try:
        values = kernel.node_star_values(pset) if site == "node values" else rule.weights
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (len(pset),)
    assert peak <= 1.1 * values.nbytes


def test_generate_and_len_build_no_per_node_array():
    pset = generate(4096)
    assert len(pset) == 4097 * 4098 // 2
    assert set(pset.__dict__) == {"degree"}
    # coords is the one per-node array, built on its first read
    cached = {name for name, attr in vars(PaduaSet).items()
              if isinstance(attr, functools.cached_property)}
    assert cached == {"row_starts", "coords"}
    pset = generate(5)
    pset.coords
    assert set(pset.__dict__) == {"degree", "coords"}
    assert pset == generate(5) and repr(pset) == "PaduaSet(degree=5)"


@pytest.mark.parametrize("degree, error", [(0, DegreeError), (-3, DegreeError),
                                           (MAX_DEGREE + 1, DegreeError), (1.5, TypeError)])
def test_padua_set_checks_its_degree_at_construction(degree, error):
    with pytest.raises(error):
        PaduaSet(degree)


def test_padua_set_stores_its_degree_as_int():
    pset = PaduaSet(np.int64(5))
    assert type(pset.degree) is int
    assert pset == generate(5) and repr(pset) == "PaduaSet(degree=5)"
    assert hash(pset) == hash(generate(5))


@pytest.mark.parametrize("positions", [[1.7, 2.2], np.array([0.0]), ["3"],
                                       [True, False], np.ones(3, dtype=bool)],
                         ids=["floats", "float-array", "string", "bools", "bool-mask"])
def test_lattice_index_refuses_non_integer_positions(positions):
    # numpy would truncate floats and parse strings; a bool array is a mask
    pset = generate(4)
    with pytest.raises(TypeError, match=str(np.asarray(positions).dtype)):
        pset.lattice_index(positions)


def test_lattice_index_keeps_integer_positions_bitwise():
    pset = generate(9)
    nodes = oracles.padua_nodes(9)
    k, eta = nodes.k, nodes.eta
    for positions in ([3, 0, 54], np.array([3, 0, 54], dtype=np.int32),
                      np.array([3, 0, 54], dtype=np.uint8)):
        got = pset.lattice_index(positions)
        assert all(a.dtype == np.int64 for a in got)
        assert got[0].tobytes() == k[[3, 0, 54]].tobytes()
        assert got[1].tobytes() == eta[[3, 0, 54]].tobytes()
    got = pset.lattice_index(np.int64(17))
    assert got[0].shape == () and (got[0], got[1]) == (k[17], eta[17])
    for empty in ([], np.array([], dtype=np.int64)):
        got = pset.lattice_index(empty)
        assert got[0].size == got[1].size == 0 and got[0].dtype == np.int64


@pytest.mark.parametrize("n", [*range(1, 41), 511])
def test_lattice_index_inverts_position(n):
    pset = generate(n)
    k, eta = pset.lattice_index(np.arange(len(pset)))
    nodes = oracles.padua_nodes(n)
    assert np.array_equal(k, nodes.k)
    assert np.array_equal(eta, nodes.eta)
    for bad in (len(pset), -1):
        with pytest.raises(IndexError):
            pset.lattice_index([bad])
        with pytest.raises(IndexError):
            pset.node_index(bad)
    with pytest.raises(TypeError):
        pset.node_index(1.0)


@pytest.mark.parametrize("n", [*range(1, 41), 512])
def test_sub_grids_tile_the_set_in_set_order(n):
    # grid entry (i, c) is the node at row_starts[ks[i]] + c, and the two
    # grids cover every node once
    pset, nodes = generate(n), oracles.padua_nodes(n)
    x1, x2 = lattice_axes(n)
    seen = np.zeros(len(pset), dtype=int)
    for ks, etas in pset.sub_grids():
        pos = pset.row_starts[ks][:, None] + np.arange(etas.size)
        assert np.array_equal(nodes.k[pos], np.broadcast_to(ks[:, None], pos.shape))
        assert np.array_equal(nodes.eta[pos], np.broadcast_to(etas, pos.shape))
        assert (pset.coords[pos, 0].tobytes()
                == np.broadcast_to(x1[ks][:, None], pos.shape).tobytes())
        assert pset.coords[pos, 1].tobytes() == np.broadcast_to(x2[etas], pos.shape).tobytes()
        np.add.at(seen, pos.ravel(), 1)
    assert np.all(seen == 1)
