import numpy as np
import pytest

from padua import ideal, kernel, points
from padua.cheb import MAX_DEGREE, DomainError, basis_vector, cheb_u
from padua.ideal import (
    cd_residual,
    mp_poly,
    q_poly,
    q_rows,
    struct_matrices,
    three_term_residual,
)
from padua.points import generate
from padua.verify import run_verification, singular_probe_pairs

import oracles


def test_q_vanishes_on_nodes():
    for n in (1, 2, 3, 7, 16, 33, 64, 128):
        pset = generate(n)
        worst = 0.0
        for k in range(n + 2):
            worst = max(worst, np.max(np.abs(q_poly(n, k, tuple(pset.coords.T)))))
        assert worst <= 1e-9 * (n + 1)


def test_q0_closed_form(rng):
    # the k = 0 member is -2 (1 - x1^2) U_{n-1}(x1)
    x = rng.uniform(-1, 1, (2, 200))
    for n in (1, 4, 9):
        resid = q_poly(n, 0, (x[0], x[1])) + 2.0 * (1.0 - x[0] ** 2) * cheb_u(n - 1, x[0])
        assert np.max(np.abs(resid)) <= 1e-12


def test_q_poly_frozen_value():
    assert q_poly(2, 3, (1.0, 1.0)) == pytest.approx(2.0, abs=1e-14)


def test_q_poly_index_errors():
    with pytest.raises(IndexError):
        q_poly(3, -1, (0.0, 0.0))
    with pytest.raises(IndexError):
        q_poly(3, 5, (0.0, 0.0))


def test_mp_poly_frozen_values():
    assert mp_poly(2, 0, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-14)
    assert mp_poly(3, 1, (1.0, 1.0)) == pytest.approx(6.0, abs=1e-13)


def test_mp_poly_vanishes_at_interior_nodes():
    for n in range(2, 33):
        inner = generate(n).coords[oracles.padua_nodes(n).code == 2]
        if not inner.size:
            continue
        x1, x2 = inner.T
        for j in range(n):
            assert np.max(np.abs(mp_poly(n, j, (x1, x2)))) <= 1e-10


def test_mp_poly_index_errors():
    with pytest.raises(IndexError):
        mp_poly(4, 4, (0.0, 0.0))
    with pytest.raises(IndexError):
        mp_poly(4, -1, (0.0, 0.0))


def test_mp_poly_within_rounding_of_mpmath(rng):
    # two-ratio products of size up to about (n+1)^2 / 2; unreduced sine
    # quotients read 1.6e-8 at n = 17, far above this bound
    pytest.importorskip("mpmath")
    x1 = oracles.end_and_uniform_points(rng)
    x2 = x1[::-1]
    u = oracles.chebyu_mp
    worst = {}
    for n in (2, 5, 17, 64):
        worst[n] = max(
            oracles.error_against_mp(
                mp_poly(n, j, (x1, x2)),
                [u(j, a) * u(n - j - 1, b) + u(n - j - 2, a) * u(j, b)
                 for a, b in zip(x1.tolist(), x2.tolist())])
            for j in range(n))
    assert {n: e for n, e in worst.items() if e > 1e-14 * (n + 1) ** 2} == {}


def test_mp_poly_edge_index_one_product(rng):
    # j = n-1 reads U_{-1} = 0: the value is U_{n-1}(x1) U_0(x2)
    x = rng.uniform(-1, 1, (2, 50))
    for n in (2, 3, 8):
        assert _bits(mp_poly(n, n - 1, (x[0], x[1]))) == _bits(cheb_u(n - 1, x[0]))
    assert type(mp_poly(3, 1, (0.2, 0.4))) is float


@pytest.mark.parametrize("call, name", [
    (lambda v: q_poly(4, v, (0.3, 0.2)), "basis index"),
    (lambda v: mp_poly(4, v, (0.3, 0.2)), "index"),
    (lambda v: cd_residual(3, v, (0.3, 0.2), (0.1, -0.4)), "axis"),
], ids=["q_poly", "mp_poly", "cd_residual"])
@pytest.mark.parametrize("value", [1.5, 2.0, True, "1"])
def test_index_arguments_must_be_integers(call, name, value):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, not {value!r}$"):
        call(value)


def test_index_arguments_accept_numpy_integers():
    x, y = (0.3, 0.2), (0.1, -0.4)
    assert q_poly(4, np.int64(2), x) == q_poly(4, 2, x)
    assert mp_poly(4, np.int32(1), x) == mp_poly(4, 1, x)
    assert cd_residual(3, np.int64(2), x, y) == cd_residual(3, 2, x, y)


def test_q_vector_scaling_consistency():
    # the scaled ideal-basis vector that the three-term and CD residuals read
    vec = ideal._scaled(q_rows(1, (1.0, 1.0)))
    assert vec.shape == (3,)
    assert np.all(np.isfinite(vec))
    expect = [
        np.sqrt(2) * q_poly(1, 0, (1.0, 1.0)),
        2.0 * q_poly(1, 1, (1.0, 1.0)),
        np.sqrt(2) * q_poly(1, 2, (1.0, 1.0)),
    ]
    assert np.allclose(vec, expect, atol=1e-14)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _point(rng, shape):
    x = rng.uniform(-1, 1, (2,) + shape)
    return (float(x[0]), float(x[1])) if shape == () else (x[0], x[1])


@pytest.mark.parametrize("n", [1, 2, 7, 33])
def test_q_rows_bitwise_equal_to_q_poly(rng, n):
    # the batched table and the per-member route give the same bits
    for shape in ((), (40,), (5, 3)):
        x = _point(rng, shape)
        rows = q_rows(n, x)
        assert rows.shape == (n + 2,) + shape
        for k in range(n + 2):
            member = q_poly(n, k, x)
            assert shape != () or type(member) is float
            assert _bits(rows[k]) == _bits(member)


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_q_rows_on_broadcasting_axes_bitwise_broadcast_arrays(rng, n):
    # tables in each coordinate's own shape give the bits, and the shape, of
    # the same coordinates broadcast first: the node sub-grids of verify's
    # vanishing check, a scalar against an array, and a 1-D against a 2-D
    x1, x2 = points.lattice_axes(n)
    cases = [(x1[ks][:, None], x2[etas][None, :]) for ks, etas in generate(n).sub_grids()]
    cases += [(0.3, rng.uniform(-1, 1, 6)),
              (rng.uniform(-1, 1, 4), rng.uniform(-1, 1, (3, 1)))]
    for x in cases:
        rows = q_rows(n, x)
        expect = q_rows(n, np.broadcast_arrays(*x))
        assert rows.shape == expect.shape == (n + 2,) + np.broadcast_shapes(*map(np.shape, x))
        assert _bits(rows) == _bits(expect)
    assert q_rows(n, (0.3, -0.2)).shape == (n + 2,)


def test_q_vector_is_scaled_q_rows(rng):
    for n in (1, 4, 17):
        for shape in ((), (30,), (4, 2)):
            x = _point(rng, shape)
            scales = np.full(n + 2, 2.0)
            scales[[0, -1]] = np.sqrt(2.0)
            expect = scales.reshape((n + 2,) + (1,) * len(shape)) * q_rows(n, x)
            assert _bits(ideal._scaled(q_rows(n, x))) == _bits(expect)


def test_q_members_at_max_degree(rng):
    # order n+1 passes the public degree cap at n = MAX_DEGREE
    n = MAX_DEGREE
    x = rng.uniform(-1, 1, (2, 25))
    theta = np.arccos(x[0])
    expect = np.cos((n + 1) * theta) - np.cos((n - 1) * theta)
    assert _bits(q_poly(n, 0, (x[0], x[1]))) == _bits(expect)
    rows = q_rows(n, (x[0], x[1]))
    assert rows.shape == (n + 2, 25)
    assert _bits(rows[0]) == _bits(expect)
    assert _bits(rows[n + 1]) == _bits(q_poly(n, n + 1, (x[0], x[1])))


@pytest.mark.parametrize(
    "x", [(0.0, 1.5), (np.array([0.2, -1.01]), np.zeros(2)), (np.nan, 0.0)]
)
def test_batched_routes_reject_points_off_the_square(x):
    with pytest.raises(DomainError):
        q_rows(3, x)
    with pytest.raises(DomainError):
        three_term_residual(3, x)
    with pytest.raises(DomainError):
        q_poly(3, 0, x)


def test_q_vector_zero_at_nodes():
    for n in (2, 6, 12):
        pset = generate(n)
        vals = ideal._scaled(q_rows(n, tuple(pset.coords.T)))
        assert np.max(np.abs(vals)) <= 1e-10


def test_struct_matrix_shapes_and_stencils():
    n = 5
    m = struct_matrices(n)
    assert m.a1.shape == (n + 1, n + 2)
    assert m.a2.shape == (n + 1, n + 2)
    assert m.g1.shape == (n + 2, n + 1)
    assert m.g2.shape == (n + 2, n)
    assert m.a1[0, 0] == 0.5 and m.a1[n, n] == pytest.approx(np.sqrt(2) / 2)
    assert m.a1[n, n + 1] == 0.0
    assert m.a2[0, 1] == pytest.approx(np.sqrt(2) / 2)
    assert m.a2[n, n + 1] == 0.5
    assert m.g1[1, n] == pytest.approx(np.sqrt(2))
    assert m.g2[0, 0] == -1.0
    assert np.count_nonzero(m.g2) == 1


def test_struct_matrix_algebra():
    for n in (1, 2, 5, 11):
        m = struct_matrices(n)
        assert np.array_equal(m.a2 @ m.g2, np.zeros((n + 1, n)))
        sym = m.a1 @ m.g1
        assert np.array_equal(sym, sym.T)


def test_matrices_satisfy_cd_identity(rng):
    # the raw Christoffel-Darboux identity for the unmodified kernel pins
    # every entry of a1 and a2 against the double-sum oracle
    for n in (2, 4, 7):
        m = struct_matrices(n)
        for _ in range(20):
            x = tuple(rng.uniform(-1, 1, 2))
            y = tuple(rng.uniform(-1, 1, 2))
            k_oracle = oracles.kernel_double_sum(n, x, y)
            pnx, pny = basis_vector(n, x), basis_vector(n, y)
            pux, puy = basis_vector(n + 1, x), basis_vector(n + 1, y)
            for axis, mat in ((1, m.a1), (2, m.a2)):
                gap = x[axis - 1] - y[axis - 1]
                rhs = (mat @ pux) @ pny - (mat @ puy) @ pnx
                assert abs(gap * k_oracle - rhs) <= 1e-10


def test_three_term_identity(rng):
    x = rng.uniform(-1, 1, (2, 500))
    assert np.max(three_term_residual(5, (x[0], x[1]))) <= 1e-11
    assert three_term_residual(2, (1.0, -1.0)) <= 1e-12
    for n in range(2, 33):
        pts = rng.uniform(-1, 1, (2, 50))
        assert np.max(three_term_residual(n, (pts[0], pts[1]))) <= 1e-10
    # a 2-D point array keeps its shape, point by point the flat residuals
    grid = rng.uniform(-1, 1, (2, 10, 5))
    got = three_term_residual(7, (grid[0], grid[1]))
    assert got.shape == (10, 5)
    assert np.max(np.abs(got.ravel() - three_term_residual(7, (grid[0].ravel(),
                                                               grid[1].ravel())))) <= 1e-15


def test_cd_residual_random_pairs(rng):
    x = rng.uniform(-1, 1, (2, 200))
    y = rng.uniform(-1, 1, (2, 200))
    assert np.max(cd_residual(6, 1, (x[0], x[1]), (y[0], y[1]))) <= 1e-9
    assert np.max(cd_residual(6, 2, (x[0], x[1]), (y[0], y[1]))) <= 1e-9
    # a (20, 1) side against a (1, 30) side gives the residuals of all 600 pairs
    side_x, side_y = (x[0, :20, None], x[1, :20, None]), (y[0, None, :30], y[1, None, :30])
    flat_x = (np.repeat(x[0, :20], 30), np.repeat(x[1, :20], 30))
    flat_y = (np.tile(y[0, :30], 20), np.tile(y[1, :30], 20))
    for axis in (1, 2):
        got = cd_residual(6, axis, side_x, side_y)
        assert got.shape == (20, 30)
        assert np.max(np.abs(got.ravel() - cd_residual(6, axis, flat_x, flat_y))) <= 1e-15


@pytest.mark.parametrize("n", [2, 5, 9])
def test_cd_residual_on_sides_of_different_ndim_is_pointwise(rng, n):
    # a (3, 1) side against a (3,) side: entry (i, j) is the residual of the
    # pair x[i], y[j], and a scalar side against an array side broadcasts too
    x = tuple(rng.uniform(-1, 1, (3, 1)) for _ in range(2))
    y = tuple(rng.uniform(-1, 1, 3) for _ in range(2))
    for axis in (1, 2):
        got = cd_residual(n, axis, x, y)
        assert got.shape == (3, 3)
        for i, j in np.ndindex(3, 3):
            one = cd_residual(n, axis, (x[0][i, 0], x[1][i, 0]), (y[0][j], y[1][j]))
            assert abs(got[i, j] - one) <= 1e-14
        row = cd_residual(n, axis, (x[0][0, 0], x[1][0, 0]), y)
        assert row.shape == (3,) and np.max(np.abs(row - got[0])) <= 1e-14


def test_cd_residual_coincident_points(rng):
    x = rng.uniform(-1, 1, (2, 50))
    for axis in (1, 2):
        assert np.max(cd_residual(4, axis, (x[0], x[1]), (x[0], x[1]))) <= 1e-10


def test_cd_residual_at_node_pairs():
    pset = generate(5)
    x = tuple(pset.coords[:10].T)
    y = tuple(pset.coords[5:15].T)
    assert np.max(cd_residual(5, 2, x, y)) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 17, 40])
def test_residuals_on_shared_tables_match_public_functions(rng, n):
    # verify builds one table set per side and degree on 100 pairs (the
    # random pairs, then the probes); its checks share the tables' ideal and
    # basis rows and one direct kernel sum, and read the first 64 pairs
    x, y = rng.uniform(-1, 1, (2, 2, 100))
    tx, ty = ideal._Tables(n, (x[0], x[1])), ideal._Tables(n, (y[0], y[1]))
    direct = kernel.direct_from_tables(tx, ty)
    px, py = (x[0, :64], x[1, :64]), (y[0, :64], y[1, :64])
    mats = struct_matrices(n)
    assert np.array_equal(ideal._three_term(n, mats, tx)[:64], three_term_residual(n, px))
    for axis in (1, 2):
        assert np.array_equal(ideal._cd(n, axis, mats, tx, ty, direct)[:64],
                              cd_residual(n, axis, px, py))
    assert tx.q() is tx.q() and ty.basis(n) is ty.basis(n)
    assert np.array_equal(direct, kernel.kernel_direct(n, (x[0], x[1]), (y[0], y[1])))


def test_verify_shared_checks_match_public_functions():
    # replay verify's draws: per degree 64 random pairs, then the probes; its
    # residual and oracle records are the public functions' on those points
    seed, degrees = 5, (2, 7, 16)
    report = run_verification(max(degrees), seed)
    observed = {(c["check"], c["degree"]): c["observed"] for c in report["checks"]}
    rng = np.random.default_rng(seed)
    for n in range(1, max(degrees) + 1):
        pts, qts = rng.uniform(-1.0, 1.0, (2, 64, 2))
        sx, sy = singular_probe_pairs(n, rng)
        if n not in degrees:
            continue
        x, y = (pts[:, 0], pts[:, 1]), (qts[:, 0], qts[:, 1])
        all_x, all_y = np.vstack([pts, sx]).T, np.vstack([qts, sy]).T
        expect = {
            "three_term_identity": np.max(three_term_residual(n, x)),
            "cd_identity_axis1": np.max(cd_residual(n, 1, x, y)),
            "cd_identity_axis2": np.max(cd_residual(n, 2, x, y)),
            "kernel_oracle_agreement": np.max(np.abs(
                kernel.kernel_compact(n, all_x, all_y) - kernel.kernel_direct(n, all_x, all_y))),
        }
        for name, value in expect.items():
            assert abs(observed[name, n] - value) <= 4e-15


def test_cd_residual_axis_validation():
    with pytest.raises(ValueError):
        cd_residual(4, 3, (0.0, 0.0), (0.5, 0.5))


def test_s_term_identities(rng):
    for n in (2, 5, 12):
        x = rng.uniform(-1, 1, (2, 100))
        y = rng.uniform(-1, 1, (2, 100))
        res = oracles.s_term_residuals(n, (x[0], x[1]), (y[0], y[1]))
        assert res["s31"] <= 1e-10
        assert res["s22_product"] <= 1e-10
        assert res["s22_qform"] <= 1e-10


# The generation certificate.  In the basis T_a(x1) T_b(x2) every q_k has
# coefficients +-1, and 2x T_a = T_{a+1} + T_{|a-1|} keeps products by 2 x1
# and 2 x2 integer, so the products x^alpha q_k, |alpha| <= d, scaled by
# 2^|alpha|, are integer rows in degree m = n+1+d.  They lie in the vanishing
# ideal of the N nodes, whose degree-m part has dimension dim Pi_m - N (the
# nodes are unisolvent for Pi_n), so rank_p <= rank_Q <= dim Pi_m - N for a
# prime p, and a rank mod p of dim Pi_m - N certifies that the q_k generate
# that part of the ideal.

_PRIME = 2**31 - 1


def _times_2x(c, axis, fold=True):
    """The T-coefficients c[..., a1, a2] times 2 x1 (axis -2) or 2 x2 (axis -1).

    fold=False drops the T_{|a-1|} = T_1 term of 2x T_0: a wrong product
    rule, for the negative control.
    """
    c = np.moveaxis(c, axis, 0)
    out = np.zeros_like(c)
    out[1:] += c[:-1]
    out[:-1] += c[1:]
    if fold:
        out[1] += c[0]
    return np.moveaxis(out, 0, axis)


def _ideal_products(n, d, fold=True):
    """{alpha: 2^|alpha| x^alpha q_k for k = 0..n+1}, |alpha| <= d, as
    (n+2, m+1, m+1) integer T-coefficients in degree m = n+1+d."""
    m = n + 1 + d
    q = np.zeros((n + 2, m + 1, m + 1), dtype=np.int64)
    q[0, n + 1, 0], q[0, n - 1, 0] = 1, -1
    for k in range(1, n + 2):
        q[k, n - k + 1, k] += 1
        q[k, k - 1, n - k + 1] += 1
    products = {(0, 0): q}
    for total in range(1, d + 1):
        for i in range(total + 1):
            j = total - i
            products[i, j] = (_times_2x(products[i - 1, j], -2, fold) if i
                              else _times_2x(products[i, j - 1], -1, fold))
    return products


def _span_rows(n, d, fold=True):
    """The products of _ideal_products as rows over the T_a T_b with a + b <= m."""
    m = n + 1 + d
    rows = np.concatenate(list(_ideal_products(n, d, fold).values()))
    ks = np.arange(m + 1)
    within = ks[:, None] + ks[None, :] <= m
    assert not np.any(rows[:, ~within])  # every product has degree <= m
    return rows[:, within]


def _rank_mod_prime(a):
    """Rank of the integer matrix a modulo _PRIME, by row elimination in int64."""
    a = a % _PRIME
    rank = 0
    for col in range(a.shape[1]):
        found = np.flatnonzero(a[rank:, col])
        if found.size == 0:
            continue
        a[[rank, rank + found[0]]] = a[[rank + found[0], rank]]
        a[rank, col:] = a[rank, col:] * pow(int(a[rank, col]), _PRIME - 2, _PRIME) % _PRIME
        below = rank + 1 + np.flatnonzero(a[rank + 1:, col])
        # entries below 2^31, so each product stays below 2^62
        a[below, col:] = (a[below, col:] - a[below, col][:, None] * a[rank, col:]) % _PRIME
        rank += 1
        if rank == len(a):
            break
    return rank


def _ideal_dimension(n, d):
    """dim Pi_m - N in degree m = n+1+d."""
    m = n + 1 + d
    return (m + 1) * (m + 2) // 2 - (n + 1) * (n + 2) // 2


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 13) for d in (0, 1, 2)]
                         + [(32, 2), (64, 1), (64, 2), (100, 1)])
def test_q_rows_generate_the_node_ideal(n, d):
    # equality, not >=: a wrong product rule can raise the rank past the bound
    assert _rank_mod_prime(_span_rows(n, d)) == _ideal_dimension(n, d)


@pytest.mark.parametrize("n", range(1, 13))
def test_ideal_certificate_negative_controls(n):
    # one generator short at d = 0 falls below the bound
    rows = _span_rows(n, 0)
    for k in range(n + 2):
        assert _rank_mod_prime(np.delete(rows, k, axis=0)) < _ideal_dimension(n, 0)
    # 2x T_0 = T_1 instead of 2 T_1 leaves the ideal and rises above it
    for d in (1, 2):
        assert _rank_mod_prime(_span_rows(n, d, fold=False)) > _ideal_dimension(n, d)


def _aliasing_rows(n, d, image=oracles.aliasing_image, flip=1):
    """The integer rows of T_alpha(x1) T_beta(x2) - flip * sign T_a(x1) T_b(x2),
    (sign, a, b) = image(n, alpha, beta), one per alpha + beta <= m = n+1+d,
    over the T_a T_b with a + b <= m."""
    m = n + 1 + d
    ks = np.arange(m + 1)
    within = ks[:, None] + ks[None, :] <= m
    alpha, beta = np.nonzero(within)
    sign, a, b = image(n, alpha, beta)
    rows = np.zeros((alpha.size, m + 1, m + 1), dtype=np.int64)
    i = np.arange(alpha.size)
    rows[i, alpha, beta] += 1
    rows[i, a, b] -= flip * sign
    return rows[:, within]


def _misfolded_image(n, alpha, beta):
    """The aliasing map with x2 folded at x1's period 2n instead of 2(n+1)."""
    a, b = oracles.fold(alpha, 2 * n), oracles.fold(beta, 2 * n)
    low = a + b <= n
    return np.where(low, 1, -1), np.where(low, a, n - a), np.where(low, b, n + 1 - b)


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 13) for d in (0, 1, 2)])
def test_aliasing_map_is_the_normal_form_modulo_the_node_ideal(n, d):
    # every T_alpha T_beta minus its image under oracles.aliasing_image lies
    # in the degree-m part of the node ideal, which the rows x^gamma q_k
    # span (test_q_rows_generate_the_node_ideal): appending the rows leaves
    # the rank mod p at its dimension, with no floating point anywhere
    span, dim = _span_rows(n, d), _ideal_dimension(n, d)
    rows = _aliasing_rows(n, d)
    # each of the m + 1 products of degree m > n has an image of degree <= n
    assert np.any(rows, axis=1).sum() >= n + 2 + d
    assert _rank_mod_prime(np.concatenate([span, rows])) == dim
    # negative controls: the image with its sign flipped, or with x2 folded
    # at the wrong period, leaves the ideal and raises the rank
    for wrong in (_aliasing_rows(n, d, flip=-1), _aliasing_rows(n, d, _misfolded_image)):
        assert _rank_mod_prime(np.concatenate([span, wrong])) > dim


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_ideal_products_match_q_rows(rng, n):
    # the integer rows, summed by numpy's Chebyshev series, are 2^|alpha|
    # x^alpha q_rows at random points and vanish at the nodes
    pset = generate(n)
    x = rng.uniform(-1.0, 1.0, (2, 50))
    for (i, j), coeffs in _ideal_products(n, 2).items():
        series = coeffs.transpose(1, 2, 0).astype(float)
        expect = (2 * x[0]) ** i * (2 * x[1]) ** j * q_rows(n, (x[0], x[1]))
        assert np.max(np.abs(np.polynomial.chebyshev.chebval2d(x[0], x[1], series)
                             - expect)) <= 1e-12
        at_nodes = np.polynomial.chebyshev.chebval2d(*pset.coords.T, series)
        assert np.max(np.abs(at_nodes)) <= 1e-12
