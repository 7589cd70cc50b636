import numpy as np
import pytest

from padua.cheb import MAX_DEGREE, DegreeError, cospi_frac
from padua.points import (
    AmbiguousMatchError,
    PaduaSet,
    PointClass,
    curve_residual,
    find_index,
    generate,
    generating_curve_points,
    lattice_axes,
)


def _as_sorted_tuples(arr, digits=12):
    return sorted(map(tuple, np.round(np.asarray(arr), digits)))


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
    for p, (k, j, x1, x2, cls) in zip(pset.points, expect):
        assert (p.k, p.j) == (k, j)
        assert p.x1 == pytest.approx(x1, abs=1e-15)
        assert p.x2 == pytest.approx(x2, abs=1e-15)
        assert p.point_class is cls


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
    seq = [(p.k, p.j) for p in pset.points]
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
        classes = [p.point_class for p in pset.points]
        assert classes.count(PointClass.VERTEX) == 2
        for p in pset.points:
            on_boundary = max(abs(abs(p.x1) - 1), abs(abs(p.x2) - 1)) <= 1e-14 or (
                abs(abs(p.x1) - 1) <= 1e-14 or abs(abs(p.x2) - 1) <= 1e-14
            )
            if p.point_class is PointClass.INTERIOR:
                assert abs(p.x1) < 1 - 1e-14 and abs(p.x2) < 1 - 1e-14
            else:
                assert on_boundary


def test_curve_membership():
    for n in (1, 2, 3, 8, 17, 40):
        pset = generate(n)
        resid = curve_residual(n, pset.x1, pset.x2)
        assert np.max(np.abs(resid)) <= 1e-10


def test_generating_curve_points_on_curve():
    for n in (2, 5, 12):
        pts = generating_curve_points(n)
        resid = curve_residual(n, pts[:, 0], pts[:, 1])
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
    # the match is named by arithmetic on the row starts, not by k_num, j_num
    assert "k_num" not in pset.__dict__ and "j_num" not in pset.__dict__


def test_find_index_ambiguous():
    pset = generate(2)
    with pytest.raises(AmbiguousMatchError, match="ambiguous match"):
        find_index(pset, (0.0, 0.0), 10.0)
    for tol in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            find_index(pset, (0.0, 0.0), tol)


def test_position_lookup():
    pset = generate(3)
    assert pset.position((0, 1)) == 0
    with pytest.raises(IndexError):
        pset.position((99, 1))


@pytest.mark.parametrize("n", range(1, 41))
def test_position_is_enumeration_order(n):
    pset = generate(n)
    got = [pset.position((k, j)) for k, j in zip(pset.k_num, pset.j_num)]
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
    nodes = set(zip(pset.k_num.tolist(), pset.eta_num.tolist()))
    flip1 = {(n - k, eta) for k, eta in nodes}
    flip2 = {(k, n + 1 - eta) for k, eta in nodes}
    assert (flip1 == nodes) == (n % 2 == 0)
    assert (flip2 == nodes) == (n % 2 == 1)


def test_class_codes_match_integer_lattice():
    # on the angle lattice a coordinate is on the boundary exactly when its
    # numerator is an end of its range: k in {0, n} or eta in {0, n+1}
    classes = (PointClass.VERTEX, PointClass.EDGE, PointClass.INTERIOR)
    for n in (1, 2, 9, 24, 128):
        pset = generate(n)
        on1 = (pset.k_num == 0) | (pset.k_num == n)
        on2 = (pset.eta_num == 0) | (pset.eta_num == n + 1)
        # the lattice ends are exactly the coordinates +-1
        assert np.array_equal(on1, np.abs(pset.x1) == 1.0)
        assert np.array_equal(on2, np.abs(pset.x2) == 1.0)
        expect = np.where(on1 & on2, 0, np.where(on1 | on2, 1, 2))
        assert list(pset.class_codes) == list(expect)
        assert [p.point_class for p in pset.points] == [classes[c] for c in expect]


def test_generate_near_degree_cap_stays_array_backed():
    # the record view is lazy; large sets must come up without building it
    pset = generate(2048)
    assert len(pset) == 2049 * 2050 // 2
    assert "points" not in pset.__dict__
    assert int(np.sum(pset.class_codes == 0)) == 2
    assert pset.position((0, 1)) == 0


@pytest.mark.parametrize("n", [*range(1, 65), 256, 512, 2048, 4096])
def test_generate_fields_bitwise_per_node(n):
    # the coordinates gathered from the lattice cosines and the class codes
    # read from the edge tables equal their per-node definitions bit for bit
    pset = generate(n)
    counts = [n // 2 + 1 if k % 2 == 0 else (n + 1) // 2 + 1 for k in range(n + 1)]
    j_num = np.concatenate([np.arange(1, c + 1) for c in counts])
    assert np.array_equal(pset.j_num, j_num)
    assert np.array_equal(pset.eta_num,
                          np.where(pset.k_num % 2 == 0, 2 * j_num - 1, 2 * j_num - 2))
    assert pset.x1.tobytes() == cospi_frac(pset.k_num, n).tobytes()
    assert pset.x2.tobytes() == cospi_frac(pset.eta_num, n + 1).tobytes()
    on1 = (pset.k_num == 0) | (pset.k_num == n)
    on2 = (pset.eta_num == 0) | (pset.eta_num == n + 1)
    codes = np.where(on1 & on2, 0, np.where(on1 | on2, 1, 2)).astype(np.int8)
    assert pset.class_codes.dtype == np.int8
    assert np.array_equal(pset.class_codes, codes)


def test_generate_and_len_build_no_per_node_array():
    pset = generate(4096)
    assert len(pset) == 4097 * 4098 // 2
    assert pset.cardinality == len(pset)
    assert "k_num" not in pset.__dict__
    # each array is built on its own first read, from per-axis data only
    names = {"k_num", "j_num", "eta_num", "x1", "x2", "class_codes", "points", "coords"}
    for name in names - {"points", "coords"}:
        pset = generate(5)
        getattr(pset, name)
        assert names & set(pset.__dict__) == {name}
    assert pset == generate(5) and repr(pset) == "PaduaSet(degree=5)"


@pytest.mark.parametrize("n", [1, 2, 7, 64, 511])
def test_node_arrays_do_not_depend_on_read_order(n):
    names = ("k_num", "j_num", "eta_num", "x1", "x2", "class_codes")
    forward, backward = generate(n), generate(n)
    ahead = {a: getattr(forward, a).tobytes() for a in names}
    behind = {a: getattr(backward, a).tobytes() for a in reversed(names)}
    assert ahead == behind


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
    k, eta = pset.k_num, pset.eta_num
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
    assert np.array_equal(k, pset.k_num)
    assert np.array_equal(eta, pset.eta_num)
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
    pset = generate(n)
    x1, x2 = lattice_axes(n)
    seen = np.zeros(len(pset), dtype=int)
    for ks, etas in pset.sub_grids():
        pos = pset.row_starts[ks][:, None] + np.arange(etas.size)
        assert np.array_equal(pset.k_num[pos], np.broadcast_to(ks[:, None], pos.shape))
        assert np.array_equal(pset.eta_num[pos], np.broadcast_to(etas, pos.shape))
        assert pset.x1[pos].tobytes() == np.broadcast_to(x1[ks][:, None], pos.shape).tobytes()
        assert pset.x2[pos].tobytes() == np.broadcast_to(x2[etas], pos.shape).tobytes()
        np.add.at(seen, pos.ravel(), 1)
    assert np.all(seen == 1)
