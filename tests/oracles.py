"""Independent reference implementations used only by the tests.

Chebyshev values come from the three-term recurrence, or from mpmath at 40
digits (the library itself uses the trigonometric form), the kernel is the
literal nested double sum (in float64, and in np.longdouble as the reference
for the compact form), and tables are written one cell at a time.  The
Padua nodes come from their definition, row by row (padua_nodes).  Nothing
here imports evaluation or output code from the package, with seven
exceptions.  Six are each an earlier form of a package function that its
successor must match bit for bit, so each builds on the package's own tables
and owns only the part that changed: convergence_study_per_degree is the convergence
study in its per-degree form (it owns the tables of the grids, the products
and the per-degree loop); lagrange_matrix_scatter writes the blocks of
lagrange_matrix by fancy index; integrate_whole_sub_grids is the cubature
sum over whole sub-grids; node_star_direct_at is the direct sum of the node
values at sampled nodes only; singular_probe_pairs_loop builds verify's probe
pairs one base point at a time; find_index_scan tests every node.  The
seventh, s_term_residuals, checks the cross-term identities of the
Christoffel-Darboux split on the package's tables and structure matrices:
no package route needs it, so it lives here beside its one test.
"""

import collections
import functools
import json
import math

import numpy as np


def cheb_t_rec(k, x):
    """T_k by the three-term recurrence."""
    if k == 0:
        return np.ones_like(np.asarray(x, dtype=float)) + 0.0
    prev, cur = np.ones_like(np.asarray(x, dtype=float)), np.asarray(x, dtype=float)
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * np.asarray(x, dtype=float) * cur - prev
    return cur


def cheb_u_rec(k, x):
    """U_k by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.ones_like(x)
    prev, cur = np.ones_like(x), 2.0 * x
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def curve_residual(n, x1, x2):
    """T_n(x1) + T_{n+1}(x2) by recurrence: zero on the generating curve of
    the degree-n Padua points, and so at every node."""
    return cheb_t_rec(n, x1) + cheb_t_rec(n + 1, x2)


def end_and_uniform_points(rng, count=21):
    """Points 10^-1 ... 10^-15 from -1 and from +1, then count uniform points."""
    d = 10.0 ** -np.arange(1, 16)
    return np.concatenate([-1.0 + d, 1.0 - d, rng.uniform(-1.0, 1.0, count)])


@functools.lru_cache(maxsize=None)
def chebyu_mp(k, x):
    """U_k(x) by mpmath.chebyu at 40 digits, at the float x itself; U_{-1} = 0.

    Values are kept per (k, x): one costs up to 2 ms at k = 1000.  The
    caller skips its test when mpmath is missing.
    """
    import mpmath

    if k < 0:
        return mpmath.mpf(0)
    with mpmath.workdps(40):
        return mpmath.chebyu(k, mpmath.mpf(x))


def p_mean_mp(values, p):
    """(mean |v|^p)^(1/p) of float64 or np.longdouble values by mpmath at 40
    digits, rounded once to a float.

    Each value is read exactly, as its 64-bit mantissa times a power of two.
    The caller skips its test when mpmath is missing.
    """
    import mpmath

    mant, expo = np.frexp(np.abs(np.ravel(values)).astype(np.longdouble))
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        total = mpmath.fsum(mpmath.ldexp(int(m), int(e) - 64) ** p
                            for m, e in zip(np.ldexp(mant, 64), expo))
        return float((total / mant.size) ** (1 / p))


def error_against_mp(got, refs):
    """Largest |got - ref| / max(1, |ref|) over paired float and mpmath values.

    Each difference is exact before its one rounding to float64."""
    import mpmath

    return max(float(abs(mpmath.mpf(float(g)) - r) / max(1, abs(r)))
               for g, r in zip(np.ravel(got), refs))


def t_norm_rec(k, x):
    return cheb_t_rec(k, x) if k == 0 else np.sqrt(2.0) * cheb_t_rec(k, x)


def kernel_double_sum(n, x, y):
    """Reproducing kernel as the literal nested sum over the product basis."""
    total = 0.0
    for deg in range(n + 1):
        for j in range(deg + 1):
            px = t_norm_rec(deg - j, x[0]) * t_norm_rec(j, x[1])
            py = t_norm_rec(deg - j, y[0]) * t_norm_rec(j, y[1])
            total += px * py
    return total


def kernel_double_sum_longdouble(n, x, y, absolute=False):
    """Reproducing kernel as the double sum over a + b <= n in np.longdouble.

    The Chebyshev values come from the three-term recurrence on the
    coordinates cast to longdouble; x and y are (x1, x2) pairs whose arrays
    broadcast.  sum_a 2 T_a(x1) T_a(y1) sum_{b <= n-a} 2 T_b(x2) T_b(y2), with
    the a = 0 and b = 0 factors 1, is the orthonormal double sum.  With
    absolute=True it is the sum of the absolute values of its terms, the
    size that rounding errors of the sum scale with.
    """
    ld = np.longdouble
    x1, x2, y1, y2 = (np.asarray(c, dtype=ld) for c in np.broadcast_arrays(*x, *y))

    def products(p, q):
        # the a = 0 product 1, then 2 T_a(p) T_a(q) for a = 1..n
        tp, tq = [np.ones_like(p), p], [np.ones_like(q), q]
        for _ in range(n - 1):
            tp.append(2 * p * tp[-1] - tp[-2])
            tq.append(2 * q * tq[-1] - tq[-2])
        return [tp[0] * tq[0]] + [2 * a * b for a, b in zip(tp[1:n + 1], tq[1:n + 1])]

    u, v = products(x1, y1), products(x2, y2)
    if absolute:
        u, v = [np.abs(t) for t in u], [np.abs(t) for t in v]
    total = np.zeros_like(x1)
    tail = np.zeros_like(x1)
    # tail = sum_{b <= n-a} v[b], grown as a falls from n to 0
    for a in range(n, -1, -1):
        tail = tail + v[n - a]
        total = total + u[a] * tail
    return total


def kernel_star_double_sum(n, x, y):
    return kernel_double_sum(n, x, y) - cheb_t_rec(n, x[0]) * cheb_t_rec(n, y[0])


def class_star_values(pset):
    """K*(nu, nu) at the nodes: n(n+1) times 2, 1 or 1/2 for vertex, edge, interior."""
    n = pset.degree
    return n * (n + 1.0) * np.array([2.0, 1.0, 0.5])[padua_nodes(n).code]


def axis_weight_factors(n):
    """Cubature factors a (k = 0..n) and b (eta = 0..n+1), a[k] b[eta] = 1 / K*(nu, nu).

    Interior nodes get 1 / (n(n+1) / 2) from a; an end of either range
    halves it.
    """
    a = np.full(n + 1, 1.0 / (n * (n + 1.0) * 0.5))
    a[[0, n]] *= 0.5
    b = np.ones(n + 2)
    b[[0, n + 1]] = 0.5
    return a, b


def lebesgue_grid_max(n, axis):
    """Maximum over the tensor grid axis x axis of sum_nu |K*(x, nu) / K*(nu, nu)|.

    The nodes are (cos(k pi/n), cos(eta pi/(n+1))) with k + eta odd, and both
    kernel values come from the literal nested sum.
    """
    k, eta = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 2)) % 2 == 1)
    nodes = (np.cos(np.pi * k / n), np.cos(np.pi * eta / (n + 1)))
    diag = kernel_star_double_sum(n, nodes, nodes)
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    x = (x1.reshape(-1, 1), x2.reshape(-1, 1))
    vals = kernel_star_double_sum(n, x, (nodes[0][None, :], nodes[1][None, :])) / diag
    return float(np.abs(vals).sum(axis=1).max())


def gauss_chebyshev_integral(f, m):
    """Tensor quadrature for the normalized Chebyshev weight, m per axis: the
    mean of f over the m x m Gauss-Chebyshev nodes."""
    nodes = np.cos((2.0 * np.arange(1, m + 1) - 1.0) * np.pi / (2.0 * m))
    vals = np.asarray(f(nodes[:, None], nodes[None, :]), dtype=float)
    return float(np.mean(vals * np.ones((m, m))))


def set_order_sums(weights, x1, x2, f):
    """The node sum of f in set order, as the cubature took it node by node.

    Returns (np.add.reduce(w * f), math.fsum(w * f), np.add.reduce(|w * f|)):
    numpy's pairwise sum of the products in set order, their correctly
    rounded sum, and the scale that summation errors are measured against.
    """
    products = weights * np.broadcast_to(np.asarray(f(x1, x2), dtype=float), x1.shape)
    return (float(np.add.reduce(products)), math.fsum(products.tolist()),
            float(np.add.reduce(np.abs(products))))


def fold(x, period):
    """min(x mod period, period - x mod period), for integer x."""
    r = np.remainder(x, period)
    return np.minimum(r, period - r)


def cospi_frac_per_entry(num, den, dtype=float):
    """cos(pi num / den) with one cosine per entry: the earlier form of
    cheb.cospi_frac, whose one table of den + 1 cosines must match it bit for
    bit.  The phase is reduced mod 2 den and folded to r in [0, den] first."""
    ftype = np.dtype(dtype).type
    r = fold(np.asarray(num, dtype=np.int64), 2 * den)
    pi = ftype("3.14159265358979323846264338327950288419716939937510582")
    return np.cos(pi * (r / ftype(den)))


PaduaNodes = collections.namedtuple("PaduaNodes", "k j eta x1 x2 code")


def padua_nodes(n):
    """The degree-n Padua nodes in set order, from the paper's definition.

    Row by row, as perfbench/inputs.padua_nodes builds them: lattice row
    k = 0..n holds the nodes j = 1, 2, ..., with eta = 2j - 1 for even k and
    2j - 2 for odd k, so k + eta is odd and eta runs up to n + 1.  The node
    is (x1, x2) = (cos(k pi/n), cos(eta pi/(n+1))), each coordinate by
    cospi_frac_per_entry; its class code is 0, 1 or 2 (vertex, edge,
    interior) as both, one or neither of k in {0, n} and eta in {0, n+1}
    hold.  Every field is an array over the nodes.
    """
    ks, js = [], []
    for k in range(n + 1):
        count = n // 2 + 1 if k % 2 == 0 else (n + 1) // 2 + 1
        ks.append(np.full(count, k))
        js.append(np.arange(1, count + 1))
    k, j = np.concatenate(ks), np.concatenate(js)
    eta = np.where(k % 2 == 0, 2 * j - 1, 2 * j - 2)
    code = 2 - np.isin(k, (0, n)).astype(int) - np.isin(eta, (0, n + 1))
    return PaduaNodes(k, j, eta, cospi_frac_per_entry(k, n),
                      cospi_frac_per_entry(eta, n + 1), code)


def find_index_scan(pset, point, tol):
    """points.find_index as a test of every node: the max-norm distance
    max(|x1 - p1|, |x2 - p2|) of all N nodes of pset.coords against tol."""
    from padua.points import AmbiguousMatchError

    if not tol > 0:
        raise ValueError("tolerance must be positive")
    x1, x2 = pset.coords.T
    d = np.maximum(np.abs(x1 - point[0]), np.abs(x2 - point[1]))
    hits = np.flatnonzero(d <= tol)
    if hits.size == 0:
        return None
    if hits.size > 1:
        raise AmbiguousMatchError(
            f"ambiguous match: {hits.size} nodes within tolerance {tol}"
        )
    return pset.node_index(hits[0])


def _t_norm_lattice_table(kmax, nums, den):
    """Orthonormal T_k(cos(pi num / den)), k = 0..kmax, from reduced phases."""
    phase = np.outer(np.arange(kmax + 1), nums) % (2 * den)
    table = np.cos(np.pi * phase / den)
    table[1:] *= np.sqrt(2.0)
    return table


def aliasing_image(n, alpha, beta):
    """L_n(T_alpha(x1) T_beta(x2)), the degree-n Padua interpolant, as one term.

    With a = fold(alpha, 2n) and b = fold(beta, 2(n+1)), the image is
    T_a(x1) T_b(x2) if a + b <= n and -T_{n-a}(x1) T_{n+1-b}(x2) otherwise:
    on the node lattice T_alpha = T_a and T_beta = T_b,
    T_{n-a}(x1) T_{n+1-b}(x2) = (-1)^(k+eta) T_a T_b = -T_a T_b at every
    node, and exactly one of the two candidates has total degree <= n.  This
    map was derived for this repository; no source for it has been found in
    the literature.  alpha and beta broadcast; returns (sign, a, b) with the
    image sign * T_a(x1) T_b(x2).
    """
    a, b = fold(alpha, 2 * n), fold(beta, 2 * (n + 1))
    low = a + b <= n
    return np.where(low, 1, -1), np.where(low, a, n - a), np.where(low, b, n + 1 - b)


def padua_node_tables(n):
    """Orthonormal T_a at the two coordinates of every Padua node
    (cos(k pi/n), cos(eta pi/(n+1))) with k + eta odd: two (n+1, N) tables."""
    k, eta = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 2)) % 2 == 1)
    return _t_norm_lattice_table(n, k, n), _t_norm_lattice_table(n, eta, n + 1)


def marcinkiewicz_trials_loop(n, p, trials, seed, dtype=float):
    """Marcinkiewicz ratios, one random polynomial per loop iteration.

    Each trial draws (n+1) x (n+1) uniform [-1, 1] coefficients of the
    orthonormal product basis, keeps total degree <= n, sums the series at
    every Padua node (padua_node_tables), and on the tensor Gauss-Chebyshev
    grid of max(200, 2n+1) nodes per axis, whatever p is, and divides the
    node mean of |P|^p by the grid mean, the powers and means in dtype
    (np.longdouble holds |P|^p far beyond float64's range).
    """
    m = max(200, 2 * n + 1)
    b1, b2 = padua_node_tables(n)
    q = _t_norm_lattice_table(n, 2 * np.arange(1, m + 1) - 1, 2 * m)
    ks = np.arange(n + 1)
    keep = ks[:, None] + ks[None, :] <= n
    rng = np.random.default_rng(seed)
    out = np.empty(trials)
    for t in range(trials):
        coeffs = rng.uniform(-1.0, 1.0, (n + 1, n + 1))
        coeffs[~keep] = 0.0
        at_nodes = np.einsum("ab,aN,bN->N", coeffs, b1, b2)
        on_grid = q.T @ coeffs @ q
        at_nodes, on_grid = (np.abs(v.astype(dtype)) ** p for v in (at_nodes, on_grid))
        out[t] = np.mean(at_nodes) / np.mean(on_grid)
    return out


def _float_cell(v, precision):
    return format(float(v), f".{precision}g")


def csv_table(header, rows, precision):
    """CSV text of a table, cell by cell: a float as format(v, ".{p}g"), a
    bool as true or false, anything else as str."""

    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return _float_cell(v, precision)
        return str(v)

    lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def json_table(header, rows, precision):
    """JSON text of a table as a list of objects keyed by header, every float
    rounded to precision significant digits."""

    def cell(v):
        if isinstance(v, (float, np.floating)):
            return float(_float_cell(v, precision))
        return v

    records = [{h: cell(v) for h, v in zip(header, row)} for row in rows]
    return json.dumps(records, indent=2) + "\n"


def convergence_study_per_degree(f, p, degrees, grid, quad_m=None):
    """Rows of the 80-bit convergence study, measured one degree at a time.

    Per degree n: 80-bit samples at the nodes, the coefficients as
    T1 @ G @ T2.T, the series on the grid and on the quad_m-point
    Gauss-Chebyshev grid from tables of degree n built for that call, f on
    both grids evaluated again, and the degree-2n reference on a table of
    degree 2n; every product by @.  Returns (n, cardinality, error_wp,
    error_uniform, lebesgue_estimate, en_proxy) tuples.
    """
    from padua import interp, kernel, points
    from padua.cheb import cospi_frac, t_norm_values

    ld = np.longdouble
    p = float(p)
    if quad_m is None:
        quad_m = 4 * max(degrees)

    def on_grid(f, axis):
        return np.asarray(f(axis[:, None], axis[None, :]), dtype=ld)

    def series(coeffs, axis):
        table = t_norm_values(coeffs.shape[0] - 1, axis, ld)
        return table.T @ coeffs @ table

    def p_mean(v, p):
        v = np.abs(v)
        return v.max() if math.isinf(p) else np.mean(v**p) ** (1 / ld(p))

    def fit(n):
        pset = points.generate(n)
        k, eta = pset.lattice_index(np.arange(len(pset)))
        samples = np.asarray(f(cospi_frac(k, n, ld), cospi_frac(eta, n + 1, ld)), dtype=ld)
        lattice = np.zeros((n + 1, n + 2), dtype=ld)
        lattice[k, eta] = samples / kernel.node_star_values(pset)
        t1, t2 = interp.lattice_tables(n, ld)
        coeffs = t1 @ lattice @ t2.T
        ks = np.arange(n + 1)
        coeffs[ks[:, None] + ks[None, :] > n] = 0.0
        coeffs[n, 0] *= 0.5
        return pset, coeffs

    rows = []
    for n in degrees:
        pset, coeffs = fit(n)
        ax = grid.axis(ld)
        values = series(coeffs, ax)
        error_uniform = float(p_mean(values - on_grid(f, ax), math.inf))
        if math.isinf(p):
            error_wp = error_uniform
        else:
            q = cospi_frac(2 * np.arange(1, quad_m + 1) - 1, 2 * quad_m, ld)
            error_wp = float(p_mean(series(coeffs, q) - on_grid(f, q), p))
        reference = series(fit(2 * n)[1], grid.axis(ld))
        rows.append((n, len(pset), error_wp, error_uniform,
                     interp.lebesgue_constant(pset, grid),
                     float(np.max(np.abs(reference - values)))))
    return rows


def json_document(obj, precision):
    """JSON text of a document as json.dumps(..., indent=2) writes it, every
    float (numpy floats and the entries of arrays included) rounded to
    precision significant digits and every tuple or array written as a list."""

    def rounded(v):
        if isinstance(v, (float, np.floating)):
            return float(_float_cell(v, precision))
        if isinstance(v, dict):
            return {k: rounded(x) for k, x in v.items()}
        if isinstance(v, (list, tuple, np.ndarray)):
            return [rounded(x) for x in v]
        return v

    return json.dumps(rounded(obj), indent=2) + "\n"


def lagrange_matrix_scatter(pset, x1, x2):
    """interp.lagrange_matrix with each block scattered by fancy index.

    The same tables, blocks (interp._BLOCK_ENTRIES, read at the call), cumulative
    sums and matrix products as the package, but every block lands in the
    result through out[rows, pos] with the set positions pos of the grid's
    nodes, not through a strided view of the result.
    """
    from padua import interp, kernel
    from padua.cheb import check_square, t_norm_lattice, t_norm_values

    n = pset.degree
    x1, x2 = (np.ravel(c) for c in np.broadcast_arrays(*check_square(x1, x2)))
    a_fac, b_fac = kernel.node_star_axes(n)
    grids = [(t_norm_lattice(n, ks, n) / a_fac[ks], t_norm_lattice(n, etas, n + 1) / b_fac[etas],
              pset.row_starts[ks]) for ks, etas in pset.sub_grids()]
    out = np.empty((x1.size, len(pset)))
    chunk = min((n + 3) // 2, max(1, interp._BLOCK_ENTRIES // (n + 1)))
    block = max(1, interp._BLOCK_ENTRIES // ((n + 1) * chunk))
    for start in range(0, x1.size, block):
        rows = slice(start, start + block)
        u, v = t_norm_values(n, x1[rows]), t_norm_values(n, x2[rows])
        for left, right, row_starts in grids:
            for first in range(0, right.shape[1], chunk):
                # y[a] = sum_{b <= n-a} v[b] right[b], from y[n] down, y[n] halved
                y = np.multiply(v[::-1, :, None], right[::-1, None, first:first + chunk],
                                order="C")
                for a in range(n - 1, -1, -1):
                    y[a] += y[a + 1]
                y[n] *= 0.5
                y *= u[:, :, None]
                lat = (left.T @ y.reshape(n + 1, -1)).reshape(left.shape[1], u.shape[1], -1)
                pos = row_starts[:, None] + np.arange(first, first + lat.shape[2])
                out[rows, pos] = lat.transpose(1, 0, 2)
    return out


def fundamental_poly_tail(n, k, eta, x1, x2):
    """Fundamental polynomial of lattice node (k, eta) in its O(n) tail-sum form.

    sum_a Tn_a(nu1) Tn_a(x1) S[n-a] / K*(nu, nu), with S[m] = sum_{b <= m}
    Tn_b(nu2) Tn_b(x2) and the a = n term halved.  The node tables are np.cos
    of the reduced lattice angles, the point tables np.cos(a arccos x), and
    1 / K*(nu, nu) is axis_weight_factors' a[k] b[eta].
    """
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    degrees = np.arange(n + 1)

    def at_points(x):
        table = np.cos(np.multiply.outer(degrees, np.arccos(x)))
        table[1:] *= np.sqrt(2.0)
        return table

    u = _t_norm_lattice_table(n, np.array([k]), n)[:, 0:1] * at_points(x1.ravel())
    v = _t_norm_lattice_table(n, np.array([eta]), n + 1)[:, 0:1] * at_points(x2.ravel())
    terms = u * np.cumsum(v, axis=0)[::-1]
    terms[n] *= 0.5
    fa, fb = axis_weight_factors(n)
    return (terms.sum(axis=0) * (fa[k] * fb[eta])).reshape(x1.shape)


def integrate_whole_sub_grids(rule, f):
    """cubature.integrate with f called once on each whole sub-grid.

    sum_k a[k] sum_eta b[eta] f over the (K, E) values of each sub-grid, by
    numpy's pairwise reductions, f called on the broadcasting lattice axes.
    """
    from padua import points

    x1, x2 = points.lattice_axes(rule.degree)
    total = 0.0
    for ks, etas in rule.nodes.sub_grids():
        vals = np.asarray(f(x1[ks][:, None], x2[etas][None, :]), dtype=float)
        total += np.add.reduce(rule.a[ks] * np.add.reduce(vals * rule.b[etas], axis=1))
    return float(total)


def node_star_direct_at(pset, positions):
    """kernel.node_star_direct at the nodes of the given set positions only.

    The same einsum over the orthonormal lattice tables, on the distinct k
    and eta of those nodes alone, so each value does not depend on which
    other nodes are selected.
    """
    from padua.cheb import t_norm_lattice

    n = pset.degree
    k, eta = pset.lattice_index(positions)
    ks, ik = np.unique(k, return_inverse=True)
    etas, ie = np.unique(eta, return_inverse=True)
    t1 = np.square(t_norm_lattice(n, ks, n))
    t2 = np.square(t_norm_lattice(n, etas, n + 1))
    tail = np.cumsum(t2, axis=0)[::-1]
    return np.einsum("ak,ae->ke", t1, tail)[ik, ie] - 1.0


def singular_probe_pairs_loop(n, rng, count=12):
    """verify.singular_probe_pairs one base point at a time, with one scalar
    rng.uniform(0.0, np.pi) draw per point after the base points."""
    xs, ys = [], []
    base = rng.uniform(-1.0, 1.0, (count, 2))
    for x1, x2 in base:
        th1, th2 = np.arccos(x1), np.arccos(x2)
        xs.append((x1, x2))
        ys.append((x1, x2))
        ph1 = rng.uniform(0.0, np.pi)
        ph2 = th1 + ph1 - th2
        xs.append((x1, x2))
        ys.append((np.cos(ph1), np.cos(ph2)))
        xs.append((x1, x2))
        ys.append((np.cos(ph1), np.cos(ph2 + 1e-9)))
    return np.array(xs), np.array(ys)


def s_term_residuals(n, x, y):
    """Rounding residuals of the cross-term identities used by the CD split.

    Returns a dict with keys:
      's31'          residual of the axis-1 cross term against
                     (x1-y1) T_n(x1) T_n(y1) plus the k=0 corrections,
      's22_product'  residual of the axis-2 cross term against
                     T_n(x1) T_n(y2) - T_n(x2) T_n(y1),
      's22_qform'    residual of the axis-2 cross term against
                     (x2-y2) T_n(x1) T_n(y1) plus the k=1 corrections.
    """
    from padua.ideal import _Tables, struct_matrices

    mats = struct_matrices(n)
    tx, ty = _Tables.pair(n, x, y)
    px, py = tx.basis(n), ty.basis(n)
    px_low, py_low = tx.basis(n - 1), ty.basis(n - 1)

    m31 = mats.a1 @ mats.g2
    s31 = np.einsum("r...,rc,c...->...", px, m31, py_low) - np.einsum(
        "c...,rc,r...->...", px_low, m31, py
    )
    m22 = mats.a2 @ mats.g1
    m22 = m22 - m22.T
    s22 = np.einsum("r...,rc,c...->...", px, m22, py)

    d1, d2 = (a - b for a, b in zip(tx.x, ty.x))
    qx, qy = tx.q(), ty.q()
    tn1x, tn2x, tn1y, tn2y = tx.t1[n], tx.t2[n], ty.t1[n], ty.t2[n]
    h = tn1x * tn1y
    r31 = np.abs(s31 - d1 * h - 0.5 * tn1x * qy[0] + 0.5 * tn1y * qx[0])
    r22_prod = np.abs(s22 - (tn1x * tn2y - tn2x * tn1y))
    r22_q = np.abs(s22 - d2 * h + tn1y * qx[1] - tn1x * qy[1])
    return {
        "s31": float(np.max(r31)),
        "s22_product": float(np.max(r22_prod)),
        "s22_qform": float(np.max(r22_q)),
    }
