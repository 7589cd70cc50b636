"""Seeded inputs for the benchmark: Padua nodes, random polynomials, sample
files and the per-workload command passes.

Nothing here imports `padua`: the node sets and the polynomials are built
from their definitions, so the same code serves the output oracles.  The seed
changes values (polynomial coefficients, command seeds) but never the shape
of a pass, so every seed gives the same mix of work.
"""

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("interp-grid", "lebesgue-analysis", "nodes-verify")

# Seconds one pass takes on a 2-core Xeon at 2.1 GHz when the host is quiet.
# A run does max(2, round(seconds / PASS_SECONDS)) passes, so the number of
# samples, and with it the tail percentile, does not change with host load.
PASS_SECONDS = {"interp-grid": 8.0, "lebesgue-analysis": 8.0, "nodes-verify": 6.0}

GRID_M = 200

# Polynomials written to sample files are checked against numpy's own
# Chebyshev evaluator after they are read back.
SAMPLE_FILE_TOL = 1e-13


def padua_nodes(n):
    """Degree-n Padua nodes in set order: (k, j, x1, x2, m).

    k runs over 0..n and x1 = cos(k pi / n); for each k the j-th node takes
    x2 = cos(m pi / (n + 1)) with m = 2j - 1 for even k and m = 2j - 2 for
    odd k, so k + m is odd.
    """
    ks, js, ms = [], [], []
    for k in range(n + 1):
        count = n // 2 + 1 if k % 2 == 0 else (n + 1) // 2 + 1
        j = np.arange(1, count + 1)
        ks.append(np.full(count, k))
        js.append(j)
        ms.append(2 * j - 1 if k % 2 == 0 else 2 * j - 2)
    k, j, m = (np.concatenate(a) for a in (ks, js, ms))
    return k, j, np.cos(np.pi * k / n), np.cos(np.pi * m / (n + 1)), m


def grid_axis(m, kind):
    """Evaluation axis of `padua interp --grid m --grid-kind kind`."""
    if kind == "uniform":
        return np.linspace(-1.0, 1.0, m)
    return np.sort(np.cos(np.pi * (2 * np.arange(1, m + 1) - 1) / (2 * m)))


def cheb_table(kmax, x):
    """T_0..T_kmax at x by the three-term recurrence; shape (kmax+1,) + x.shape."""
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = x
    for k in range(1, kmax):
        out[k + 1] = 2.0 * x * out[k] - out[k - 1]
    return out


def cheb_t(k, x):
    """T_k at x by the three-term recurrence, keeping two rows at a time."""
    x = np.asarray(x, dtype=float)
    prev, cur = np.ones_like(x), x.copy()
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


@dataclass(frozen=True)
class Polynomial:
    """sum_{a+b<=n} coeffs[a, b] T_a(x1) T_b(x2), scaled so |P| <= 1."""

    degree: int
    coeffs: np.ndarray = field(repr=False)

    def at(self, x1, x2):
        t1 = cheb_table(self.degree, x1)
        t2 = cheb_table(self.degree, x2)
        return np.einsum("ab,a...,b...->...", self.coeffs, t1, t2)

    def on_grid(self, axis):
        t = cheb_table(self.degree, axis)
        return t.T @ self.coeffs @ t


def random_polynomial(rng, n):
    a = np.arange(n + 1)
    coeffs = rng.uniform(-1.0, 1.0, (n + 1, n + 1))
    coeffs[a[:, None] + a[None, :] > n] = 0.0
    coeffs /= np.abs(coeffs).sum()
    return Polynomial(n, coeffs)


def write_samples(path, poly, fmt):
    """Sample file of poly at the degree-n nodes: 'kjv' or bare 'column'."""
    k, j, x1, x2, _ = padua_nodes(poly.degree)
    vals = poly.at(x1, x2)
    with open(path, "w") as fh:
        if fmt == "kjv":
            fh.write("k,j,value\n")
            fh.writelines(f"{a},{b},{v!r}\n" for a, b, v in zip(k, j, vals.tolist()))
        else:
            fh.writelines(f"{v!r}\n" for v in vals.tolist())
    check_sample_file(path, poly, fmt)


def check_sample_file(path, poly, fmt):
    """Read a sample file back and check it against the polynomial.

    The polynomial must have total degree <= n, and the stored values must
    match numpy's Chebyshev evaluator at the independently built nodes.
    """
    n = poly.degree
    a = np.arange(n + 1)
    if np.any(poly.coeffs[a[:, None] + a[None, :] > n] != 0.0):
        raise RuntimeError(f"generated polynomial exceeds total degree {n}")
    k, j, x1, x2, _ = padua_nodes(n)
    if fmt == "kjv":
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if not (np.array_equal(table[:, 0], k) and np.array_equal(table[:, 1], j)):
            raise RuntimeError(f"{path}: node indices out of set order")
        vals = table[:, 2]
    else:
        vals = np.loadtxt(path, ndmin=1)
    ref = np.polynomial.chebyshev.chebval2d(x1, x2, poly.coeffs)
    if vals.shape != ref.shape or np.max(np.abs(vals - ref)) > SAMPLE_FILE_TOL:
        raise RuntimeError(f"{path}: samples disagree with the polynomial")


@dataclass
class Command:
    """One `padua` invocation and what its output is checked against.

    `argv` lacks --output; the runner appends it.  `kind` names the oracle in
    oracles.py and `spec` carries what that oracle needs.
    """

    slot: int
    argv: list
    kind: str
    ext: str
    spec: dict = field(default_factory=dict)

    @property
    def label(self):
        return " ".join(self.argv)


def _interp_pass(rng, tmpdir):
    # (degree, grid kind, source, p, format): every level of every factor
    # appears, and the five commands differ in cost, so that the median and
    # the tail rank of three passes fall inside one command's samples.
    design = [
        (16, "uniform", "exp_sum", "2", "csv"),
        (16, "chebyshev", "kjv", "inf", "json"),
        (24, "chebyshev", "runge2d", "inf", "csv"),
        (24, "uniform", "column", "2", "json"),
        (32, "chebyshev", "franke", "inf", "csv"),
    ]
    cmds = []
    for slot, (n, kind, source, p, fmt) in enumerate(design):
        argv = ["interp", "--degree", str(n), "--grid", str(GRID_M),
                "--grid-kind", kind, "--p", p, "--format", fmt]
        spec = {"degree": n, "grid_kind": kind, "format": fmt}
        if source in ("kjv", "column"):
            poly = random_polynomial(rng, n)
            path = f"{tmpdir}/samples-{slot}.{source}.csv"
            write_samples(path, poly, source)
            argv += ["--samples", path]
            spec["poly"] = poly
        else:
            argv += ["--function", source]
            spec["function"] = source
        cmds.append(Command(slot, argv, "interp", fmt, spec))
    return cmds


def _lebesgue_pass(rng):
    # One cheap command, one mid-cost command and three of about equal cost,
    # so that the tail rank of three passes falls inside the mid-cost
    # command's samples and the median inside the equal-cost group.  Degree
    # 24 and the small degrees come through converge.
    cmds = []
    for n, kind in ((16, "uniform"), (32, "chebyshev")):
        argv = ["lebesgue", "--degrees", str(n), "--grid", str(GRID_M),
                "--grid-kind", kind]
        cmds.append(Command(len(cmds), argv, "lebesgue", "csv",
                            {"degree": n, "grid_kind": kind}))
    for func, p in (("exp_sum", "2"), ("runge2d", "inf")):
        argv = ["converge", "--function", func, "--degrees", "4,8,16,24",
                "--grid", str(GRID_M), "--p", p]
        cmds.append(Command(len(cmds), argv, "converge", "csv",
                            {"function": func, "p": p}))
    seed = int(rng.integers(0, 2**31))
    argv = ["marcinkiewicz", "--degree", "32", "--trials", "200",
            "--seed", str(seed)]
    cmds.append(Command(len(cmds), argv, "marcinkiewicz", "csv",
                        {"degree": 32, "trials": 200, "seed": seed, "p": 2.0}))
    return cmds


def _nodes_pass(rng):
    cmds = []
    for n in (256, 512):
        cmds.append(Command(len(cmds), ["points", "--degree", str(n)],
                            "points", "csv", {"degree": n}))
    cmds.append(Command(len(cmds), ["cubature", "--degree", "512"],
                        "weights", "csv", {"degree": 512}))
    for func in ("exp_sum", "const"):
        argv = ["cubature", "--degree", "2048", "--function", func]
        cmds.append(Command(len(cmds), argv, "integral", "csv",
                            {"degree": 2048, "function": func}))
    seed = int(rng.integers(0, 2**31))
    argv = ["verify", "--max-degree", "40", "--seed", str(seed)]
    cmds.append(Command(len(cmds), argv, "verify", "json", {"seed": seed}))
    return cmds


def command_pass(workload, seed, tmpdir):
    """The seeded command list of one pass; sample files go to tmpdir."""
    rng = np.random.default_rng(seed)
    if workload == "interp-grid":
        return _interp_pass(rng, tmpdir)
    if workload == "lebesgue-analysis":
        return _lebesgue_pass(rng)
    return _nodes_pass(rng)
