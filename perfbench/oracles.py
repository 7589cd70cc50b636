"""Output checks for every benchmark command, written without `padua`.

Each check reads one output file and returns the largest deviation it
measured from an independent reference (or None where it has none), or
raises CheckFailed.  Tolerances are written here, next to the references.

The independent references are:
- the exact polynomial, for sample files holding a polynomial of total
  degree <= n (interpolation reproduces it);
- the Padua interpolant built from its cubature-weighted coefficient
  expansion (Caliari, De Marchi & Vianello, Padua2D, ACM TOMS 35, 2008),
  for builtin functions, and the Lebesgue constants it gives;
- closed forms: node lattices and the curve T_n(x1) + T_{n+1}(x2) = 0,
  weight sums of 1, and the integrals of const (1) and exp(x1 + x2)
  (I_0(1)^2 from its power series);
- pinned values for the Lebesgue constants and the convergence studies.
"""

import hashlib
import json
import math
import re

import numpy as np

from inputs import GRID_M, cheb_t, cheb_table, grid_axis, padua_nodes

# interpolation of a polynomial of total degree <= n reproduces it; the
# kernel route carries ~1e-10 rounding error at n = 32 for |P| <= 1
REPRODUCTION_TOL = 1e-8
# program interpolant vs the coefficient-form interpolant, absolute
INTERPOLANT_TOL = 1e-8
# grid coordinates written by the program vs the independent axis
AXIS_TOL = 1e-15
# builtin reference column vs the functions below, relative
FUNCTION_TOL = 1e-14
# node coordinates vs cos(k pi / n), cos(m pi / (n + 1))
NODE_TOL = 1e-15
# T_n(x1) + T_{n+1}(x2) by recurrence at the written nodes
CURVE_TOL = 1e-8
WEIGHT_SUM_TOL = 1e-12
INTEGRAL_TOL = 1e-13
# Lebesgue constants vs the coefficient form, relative
LEBESGUE_TOL = 1e-8
# Lebesgue constants and convergence-study values vs their pins: relative,
# plus an absolute floor for errors measured near the 80-bit resolution
PIN_REL_TOL = 1e-8
PIN_ABS_TOL = 1e-16
# Marcinkiewicz ratios vs the independent recomputation, relative
RATIO_TOL = 1e-9

SQRT2 = math.sqrt(2.0)


class CheckFailed(Exception):
    """An output disagreed with its oracle."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# independent references


def _franke(x1, x2):
    u = 4.5 * (x1 + 1.0)
    v = 4.5 * (x2 + 1.0)
    return (0.75 * np.exp(-((u - 2.0) ** 2 + (v - 2.0) ** 2) / 4.0)
            + 0.75 * np.exp(-((u + 1.0) ** 2) / 49.0 - (v + 1.0) / 10.0)
            + 0.5 * np.exp(-((u - 7.0) ** 2 + (v - 3.0) ** 2) / 4.0)
            - 0.2 * np.exp(-((u - 4.0) ** 2) - (v - 7.0) ** 2))


FUNCTIONS = {
    "franke": _franke,
    "runge2d": lambda x1, x2: 1.0 / (1.0 + 16.0 * (x1 ** 2 + x2 ** 2)),
    "exp_sum": lambda x1, x2: np.exp(x1 + x2),
}


def bessel_i0_squared_at_one():
    """I_0(1)^2 = integral of exp(x1 + x2) against the product Chebyshev
    weight, from the series I_0(1) = sum_k (1/4)^k / (k!)^2."""
    total = math.fsum(0.25 ** k / math.factorial(k) ** 2 for k in range(30))
    return total * total


INTEGRALS = {"const": 1.0, "exp_sum": bessel_i0_squared_at_one()}


def _tnorm(kmax, x):
    t = cheb_table(kmax, x)
    t[1:] *= SQRT2
    return t


def node_weights(n, x1, x2):
    """Cubature weights 1 / (n (n+1) f): f = 2, 1, 1/2 at vertex, edge, interior."""
    on = (np.abs(np.abs(x1) - 1.0) < 1e-14).astype(int) \
        + (np.abs(np.abs(x2) - 1.0) < 1e-14).astype(int)
    factor = np.array([0.5, 1.0, 2.0])[on]
    return 1.0 / (n * (n + 1.0) * factor)


def _node_basis(n):
    _, _, x1, x2, _ = padua_nodes(n)
    return x1, x2, node_weights(n, x1, x2), _tnorm(n, x1), _tnorm(n, x2)


def interpolant_coeffs(n, samples):
    """Orthonormal-basis coefficients of the degree-n Padua interpolant."""
    _, _, w, b1, b2 = _node_basis(n)
    coeffs = (b1 * (w * samples)) @ b2.T
    a = np.arange(n + 1)
    coeffs[a[:, None] + a[None, :] > n] = 0.0
    coeffs[n, 0] *= 0.5
    return coeffs


def interpolant_on_grid(n, func, axis):
    x1, x2, _, _, _ = _node_basis(n)
    b = _tnorm(n, axis)
    return b.T @ interpolant_coeffs(n, func(x1, x2)) @ b


def lebesgue_constant(n, axis, rows_per_block=4):
    """Grid maximum of sum_nu |l_nu(x)|, the Lagrange basis in coefficient form.

    l_nu(x) = w_nu (sum_{a+b<=n} Tn_a(x1) Tn_b(x2) Tn_a(nu1) Tn_b(nu2)
    - Tn_n(x1) Tn_n(nu1) / 2); the grid rows are taken in blocks.
    """
    _, _, w, b1, b2 = _node_basis(n)
    a, b = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n)
    half = np.where((a == n) & (b == 0), 0.5, 1.0)
    node_side = (b1[a] * b2[b] * half[:, None]) * w
    ga, gb = _tnorm(n, axis), _tnorm(n, axis)
    best = 0.0
    for start in range(0, axis.size, rows_per_block):
        rows = ga[:, start:start + rows_per_block]
        phi = (rows[a][:, :, None] * gb[b][:, None, :]).reshape(a.size, -1)
        best = max(best, float(np.abs(phi.T @ node_side).sum(axis=1).max()))
    return best


# ---------------------------------------------------------------------------
# pinned references: `padua lebesgue` on a 200-point grid and the two
# `padua converge` studies of the lebesgue-analysis workload.  The Lebesgue
# constants agree with lebesgue_constant() above to better than 1e-12.

LEBESGUE_PINS = {
    # (n, grid kind): grid maximum of the Lebesgue function
    (16, "uniform"): 8.407436284650412,
    (32, "chebyshev"): 10.758964364022766,
}

CONVERGE_PINS = {
    # (function, p): rows of (n, error_wp, error_uniform, lebesgue, en_proxy)
    ("exp_sum", "2"): (
        (4, 0.014043872818958173, 0.08724451319426584, 4.409725435508212,
         0.08721762778671238),
        (8, 3.7089815682205958e-06, 2.688540755345619e-05, 6.213459646909049,
         2.688540752887993e-05),
        (16, 3.1138812149880805e-15, 2.457626116503242e-14, 8.407436284650412,
         2.4019414929243865e-14),
        (24, 2.8976735602004114e-16, 2.0430705738316846e-15, 9.872512535796158,
         2.1055206189668496e-15),
    ),
    ("runge2d", "inf"): (
        (4, 0.6042008033433184, 0.6042008033433184, 4.409725435508212,
         0.2897938731910841),
        (8, 0.32752038722766685, 0.32752038722766685, 6.213459646909049,
         0.23542130325264948),
        (16, 0.09454872272891533, 0.09454872272891533, 8.407436284650412,
         0.08773973980568098),
        (24, 0.02591292917955318, 0.02591292917955318, 9.872512535796158,
         0.02549726413855387),
    ),
}


def _pin_close(observed, pinned, what):
    _require(abs(observed - pinned) <= PIN_REL_TOL * abs(pinned) + PIN_ABS_TOL,
             f"{what}: {observed!r} vs pinned {pinned!r}")


# ---------------------------------------------------------------------------
# output parsing


def _csv(path, skiprows=1, usecols=None):
    return np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2,
                      usecols=usecols)


def _header(path):
    with open(path) as fh:
        return fh.readline().strip().split(",")


def _json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks, one per command kind


def check_interp(path, spec, stderr):
    n, kind = spec["degree"], spec["grid_kind"]
    axis = grid_axis(GRID_M, kind)
    func = FUNCTIONS.get(spec.get("function"))
    if spec["format"] == "json":
        doc = _json(path)
        _require(doc["degree"] == n and doc["grid"] == {"m": GRID_M, "kind": kind},
                 "interp JSON header does not echo the command")
        got_axis = np.array(doc["axis"], dtype=float)
        values = np.array(doc["values"], dtype=float)
    else:
        table = _csv(path)
        _require(table.shape[0] == GRID_M * GRID_M, "interp CSV row count")
        got_axis = table[:GRID_M, 1]
        _require(np.array_equal(table[:, 0], np.repeat(got_axis, GRID_M))
                 and np.array_equal(table[:, 1], np.tile(got_axis, GRID_M)),
                 "interp CSV rows are not the tensor grid in row-major order")
        values = table[:, 2].reshape(GRID_M, GRID_M)
    _require(got_axis.shape == axis.shape
             and np.max(np.abs(got_axis - axis)) <= AXIS_TOL,
             "interp grid axis differs from the requested grid")
    _require(values.shape == (GRID_M, GRID_M) and np.all(np.isfinite(values)),
             "interp values missing or not finite")

    if func is None:
        dev = float(np.max(np.abs(values - spec["poly"].on_grid(axis))))
        _require(dev <= REPRODUCTION_TOL,
                 f"polynomial not reproduced: max deviation {dev:.3e}")
        return dev

    truth = func(axis[:, None], axis[None, :])
    if spec["format"] == "json":
        summary = doc["summary"]
        err = float(np.max(np.abs(values - truth)))
        _require(abs(summary["error_uniform"] - err) <= 1e-12 * max(err, 1e-300)
                 + 1e-15, "error_uniform does not match the written values")
    else:
        reference = table[:, 3].reshape(GRID_M, GRID_M)
        _require(np.all(np.abs(reference - truth)
                        <= FUNCTION_TOL * np.maximum(1.0, np.abs(truth))),
                 "reference column differs from the builtin function")
        _require(np.array_equal(table[:, 4], np.abs(table[:, 2] - table[:, 3])),
                 "abs_error column is not |value - reference|")
        match = re.search(r"error_uniform=(\S+)", stderr)
        _require(match is not None and float(match.group(1))
                 == float(np.max(table[:, 4])),
                 "error_uniform summary does not match the abs_error column")
    dev = float(np.max(np.abs(values - interpolant_on_grid(n, func, axis))))
    _require(dev <= INTERPOLANT_TOL,
             f"interpolant differs from the coefficient form by {dev:.3e}")
    return dev


def check_lebesgue(path, spec, stderr):
    n, kind = spec["degree"], spec["grid_kind"]
    _require(_header(path) == ["n", "cardinality", "grid_m", "grid_kind", "lebesgue"],
             "lebesgue CSV header")
    with open(path) as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    _require(len(rows) == 1, "lebesgue CSV row count")
    row = rows[0]
    _require(row[:4] == [str(n), str((n + 1) * (n + 2) // 2), str(GRID_M), kind],
             "lebesgue row does not echo the command")
    value = float(row[4])
    _require(value >= 1.0, f"Lebesgue constant {value} below 1")
    _pin_close(value, LEBESGUE_PINS[(n, kind)], f"Lebesgue constant n={n} {kind}")
    dev = abs(value - lebesgue_constant(n, grid_axis(GRID_M, kind)))
    _require(dev <= LEBESGUE_TOL * value,
             f"Lebesgue constant differs from the coefficient form by {dev:.3e}")
    return dev


def check_converge(path, spec, stderr):
    _require(_header(path) == ["function", "p", "n", "cardinality", "error_wp",
                               "error_uniform", "lebesgue_estimate", "en_proxy"],
             "converge CSV header")
    table = _csv(path, usecols=range(2, 8))
    pins = CONVERGE_PINS[(spec["function"], spec["p"])]
    _require(table.shape == (len(pins), 6), "converge CSV row count")
    for got, pin in zip(table, pins):
        n = int(pin[0])
        _require(got[0] == n and got[1] == (n + 1) * (n + 2) // 2,
                 "converge rows do not echo the degrees")
        _require(got[4] >= 1.0, f"Lebesgue estimate below 1 at n={n}")
        for name, value, pinned in zip(("error_wp", "error_uniform",
                                        "lebesgue_estimate", "en_proxy"),
                                       got[2:], pin[1:]):
            _pin_close(float(value), pinned, f"converge {name} n={n}")
    return None


def check_marcinkiewicz(path, spec, stderr):
    """Recompute every ratio from the same seeded coefficient stream."""
    n, trials, p = spec["degree"], spec["trials"], spec["p"]
    table = _csv(path)
    _require(table.shape == (trials, 5), "marcinkiewicz CSV shape")
    _require(np.all(table[:, 0] == n) and np.all(table[:, 1] == p)
             and np.all(table[:, 2] == spec["seed"])
             and np.array_equal(table[:, 3], np.arange(trials)),
             "marcinkiewicz rows do not echo the command")
    _, _, _, b1, b2 = _node_basis(n)
    m = max(200, 2 * n + 1)
    quad = _tnorm(n, np.cos(np.pi * (2 * np.arange(1, m + 1) - 1) / (2 * m)))
    a = np.arange(n + 1)
    keep = a[:, None] + a[None, :] <= n
    rng = np.random.default_rng(spec["seed"])
    ref = np.empty(trials)
    for t in range(trials):
        coeffs = rng.uniform(-1.0, 1.0, (n + 1, n + 1))
        coeffs[~keep] = 0.0
        nodes = np.einsum("ab,aN,bN->N", coeffs, b1, b2)
        ref[t] = np.mean(np.abs(nodes) ** p) \
            / np.mean(np.abs(quad.T @ coeffs @ quad) ** p)
    dev = np.abs(table[:, 4] - ref) / ref
    _require(np.all(dev <= RATIO_TOL),
             f"Marcinkiewicz ratio off by {float(dev.max()):.3e} relative")
    return float(np.max(np.abs(table[:, 4] - ref)))


def _check_nodes(path, n, header):
    _require(_header(path) == header, "node CSV header")
    table = _csv(path, usecols=(0, 1, 2, 3))
    k, j, x1, x2, _ = padua_nodes(n)
    _require(table.shape[0] == (n + 1) * (n + 2) // 2,
             f"{table.shape[0]} nodes, expected (n+1)(n+2)/2 at n={n}")
    _require(np.array_equal(table[:, 0], k) and np.array_equal(table[:, 1], j),
             "node indices out of set order")
    dev = float(max(np.max(np.abs(table[:, 2] - x1)), np.max(np.abs(table[:, 3] - x2))))
    _require(dev <= NODE_TOL, f"node coordinates off the lattice by {dev:.3e}")
    curve = np.abs(cheb_t(n, table[:, 2]) + cheb_t(n + 1, table[:, 3]))
    _require(float(curve.max()) <= CURVE_TOL,
             f"T_n(x1) + T_(n+1)(x2) = {float(curve.max()):.3e} at a node")
    return table


def check_points(path, spec, stderr):
    _check_nodes(path, spec["degree"], ["k", "j", "x1", "x2", "class"])
    return None


def check_weights(path, spec, stderr):
    n = spec["degree"]
    table = _check_nodes(path, n, ["k", "j", "x1", "x2", "class", "weight"])
    weights = _csv(path, usecols=(5,))[:, 0]
    _require(np.all(weights > 0.0), "non-positive cubature weight")
    ref = node_weights(n, table[:, 2], table[:, 3])
    _require(np.all(np.abs(weights - ref) <= 1e-15 * ref),
             "weights differ from 1 / (n (n+1) f)")
    dev = abs(math.fsum(weights) - 1.0)
    _require(dev <= WEIGHT_SUM_TOL, f"weights sum to 1 + {dev:.3e}")
    return dev


def check_integral(path, spec, stderr):
    with open(path) as fh:
        lines = fh.read().split()
    _require(len(lines) == 2 and lines[0] == "function,degree,integral",
             "integral CSV layout")
    func, degree, value = lines[1].split(",")
    _require(func == spec["function"] and int(degree) == spec["degree"],
             "integral row does not echo the command")
    dev = abs(float(value) - INTEGRALS[func])
    _require(dev <= INTEGRAL_TOL, f"integral of {func} off by {dev:.3e}")
    return dev


def check_verify(path, spec, stderr, digests):
    """all_passed, every record consistent, and the same bytes per seed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    doc = json.loads(raw)
    _require(doc["seed"] == spec["seed"] and doc["max_degree"] == 40,
             "verify report does not echo the command")
    _require(doc["all_passed"] is True, "verify report has failing checks")
    _require(all(c["passed"] is True and c["observed"] <= c["tolerance"]
                 for c in doc["checks"]), "verify record inconsistent")
    digest = hashlib.sha256(raw).hexdigest()
    first = digests.setdefault(spec["seed"], digest)
    _require(first == digest, "verify report differs for a repeated seed")
    return None


CHECKS = {
    "interp": check_interp,
    "lebesgue": check_lebesgue,
    "converge": check_converge,
    "marcinkiewicz": check_marcinkiewicz,
    "points": check_points,
    "weights": check_weights,
    "integral": check_integral,
}


def check(cmd, path, exit_code, stderr, digests):
    """Check one command's output; returns its oracle deviation or None."""
    _require(exit_code == 0, f"exit code {exit_code}: {stderr.strip()[-200:]}")
    if cmd.kind == "verify":
        return check_verify(path, cmd.spec, stderr, digests)
    return CHECKS[cmd.kind](path, cmd.spec, stderr)


_NUMBER = re.compile(rb"-?\d+\.\d+(?:[eE][-+]?\d+)?")


def perturb_last_value(path):
    """Negative control: shift the last decimal number in an output file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    hits = list(_NUMBER.finditer(raw))
    if not hits:
        raise RuntimeError(f"{path}: no decimal number to perturb")
    hit = hits[-1]
    value = float(hit.group())
    new = repr(value + 1e-3 * (1.0 + abs(value))).encode()
    with open(path, "wb") as fh:
        fh.write(raw[:hit.start()] + new + raw[hit.end():])
