import numpy as np
import pytest

from padua.cheb import DegreeError
from padua.points import (
    AmbiguousMatchError,
    PointClass,
    curve_residual,
    find_index,
    generate,
    generating_curve_points,
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


def test_find_index_ambiguous():
    pset = generate(2)
    with pytest.raises(AmbiguousMatchError, match="ambiguous match"):
        find_index(pset, (0.0, 0.0), 10.0)
    with pytest.raises(ValueError):
        find_index(pset, (0.0, 0.0), -1.0)


def test_position_lookup():
    pset = generate(3)
    assert pset.position((0, 1)) == 0
    with pytest.raises(IndexError):
        pset.position((99, 1))


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
