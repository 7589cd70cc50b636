"""Command-line front end: points, interp, cubature, lebesgue, converge,
marcinkiewicz, verify.

Exit codes: 0 ok, 1 verification failure, 2 bad arguments, 3 I/O failure,
4 sample-data mismatch.  All output is deterministic given flags and seed.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import analysis, cubature, functions, interp, points, verify
from . import __version__


class SampleMismatchError(ValueError):
    """A sample file does not match the node set."""


# ---------------------------------------------------------------------------
# output plumbing


class OutputSpec:
    def __init__(self, fmt, path, precision):
        if not 1 <= precision <= 17:
            raise ValueError("precision must be in 1..17")
        self.fmt = fmt
        self.path = path
        self.precision = precision

    def num(self, v):
        """Format one float at the configured precision (CSV cell)."""
        return format(float(v), f".{self.precision}g")

    def jnum(self, v):
        """Round one float for JSON so dumps round-trips the same digits."""
        return float(format(float(v), f".{self.precision}g"))

    def _open(self):
        if self.path in (None, "-"):
            return sys.stdout, False
        return open(self.path, "w", newline="\n"), True

    def write_rows(self, header, rows):
        out, close = self._open()
        try:
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(self._cell(c) for c in row) + "\n")
        finally:
            if close:
                out.close()

    def write_table(self, header, rows, document=None):
        """Write rows as CSV; as JSON, write document, or when there is none,
        the rows as a list of objects keyed by header."""
        if self.fmt == "csv":
            self.write_rows(header, rows)
        elif document is not None:
            self.write_json(document)
        else:
            self.write_json([dict(zip(header, row)) for row in rows])

    def _cell(self, c):
        if isinstance(c, bool):
            return "true" if c else "false"
        if isinstance(c, (float, np.floating)):
            return self.num(c)
        return str(c)

    def write_json(self, obj):
        out, close = self._open()
        try:
            out.write(json.dumps(self._round(obj), indent=2))
            out.write("\n")
        finally:
            if close:
                out.close()

    def _round(self, obj):
        if isinstance(obj, (float, np.floating)):
            return self.jnum(obj)
        if isinstance(obj, (int, np.integer, bool, str)) or obj is None:
            return obj
        if isinstance(obj, dict):
            return {k: self._round(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple, np.ndarray)):
            return [self._round(v) for v in obj]
        return obj


def _out_spec(args):
    return OutputSpec(args.format, args.output, args.precision)


def _add_output_flags(sub, default_format="csv"):
    sub.add_argument("--format", choices=("csv", "json"), default=default_format)
    sub.add_argument("--output", default="-", help="output path, '-' for stdout")
    sub.add_argument("--precision", type=int, default=17,
                     help="decimal digits for numeric output (1..17)")


def _degree_list(text):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("degrees must be comma-separated integers")
    if not values:
        raise argparse.ArgumentTypeError("empty degree list")
    return values


def _builtin_function(name):
    try:
        return functions.get(name)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_points(args):
    pset = points.generate(args.degree)
    _out_spec(args).write_table(
        ("k", "j", "x1", "x2", "class"),
        ((p.k, p.j, p.x1, p.x2, p.point_class.value) for p in pset.points),
    )
    return 0


def _load_samples(path, pset):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise SampleMismatchError(f"sample file {path} is empty")
    if lines[0].replace(" ", "").lower() == "k,j,value":
        values = np.full(len(pset), np.nan)
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 3:
                raise SampleMismatchError(f"malformed sample row: {ln!r}")
            try:
                k, j, value = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise SampleMismatchError(f"malformed sample row: {ln!r}") from None
            try:
                pos = pset.position((k, j))
            except IndexError as exc:
                raise SampleMismatchError(str(exc)) from None
            if not math.isfinite(value):
                raise SampleMismatchError(
                    f"non-finite sample {value} at node k={k}, j={j}"
                )
            if not np.isnan(values[pos]):
                raise SampleMismatchError(f"sample file repeats node k={k}, j={j}")
            values[pos] = value
        if np.isnan(values).any():
            raise SampleMismatchError(
                f"sample file covers {int(np.sum(~np.isnan(values)))} of "
                f"{len(pset)} nodes"
            )
        return values
    try:
        values = np.array([float(ln) for ln in lines])
    except ValueError as exc:
        raise SampleMismatchError(f"malformed sample file: {exc}") from None
    if values.size != len(pset):
        raise SampleMismatchError(
            f"sample file has {values.size} rows, expected {len(pset)}"
        )
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise SampleMismatchError(
            f"non-finite sample {values[i]} in row {i + 1} "
            f"(node k={pset.k_num[i]}, j={pset.j_num[i]})"
        )
    return values


def cmd_interp(args):
    p = analysis._as_p(args.p)
    pset = points.generate(args.degree)
    func = args.function
    if func is not None:
        samples = interp.sample(pset, func)
    else:
        samples = _load_samples(args.samples, pset)
    grid = interp.EvalGrid(m=args.grid, kind=args.grid_kind)
    ax = grid.axis()
    x1, x2 = np.meshgrid(ax, ax, indexing="ij")
    if func is None:
        values = interp.interpolate_grid(pset, samples, grid)
        header, columns, summary = ("x1", "x2", "value"), [x1, x2, values], None
    else:
        # the measured series on the grid is the interpolant's grid values
        err = analysis.measure_error(interp.to_coefficients(pset, samples), func, p,
                                     grid, quad_m=max(64, 4 * args.degree))
        values = err.values
        header = ("x1", "x2", "value", "reference", "abs_error")
        columns = [x1, x2, values, err.reference, np.abs(values - err.reference)]
        summary = {"error_uniform": err.error_uniform, "error_wp": err.error_wp,
                   "p": "inf" if math.isinf(p) else p}

    spec = _out_spec(args)
    spec.write_table(
        header,
        zip(*(c.ravel() for c in columns)),
        {
            "degree": args.degree,
            "function": None if func is None else func.name,
            "grid": {"m": grid.m, "kind": grid.kind},
            "axis": list(ax),
            "summary": summary,
            "values": values.tolist(),
        },
    )
    if summary is not None and spec.fmt == "csv":
        print(
            f"error_uniform={spec.num(summary['error_uniform'])} "
            f"error_wp={spec.num(summary['error_wp'])} p={summary['p']}",
            file=sys.stderr,
        )
    return 0


def cmd_cubature(args):
    pset = points.generate(args.degree)
    rule = cubature.build_rule(pset)
    spec = _out_spec(args)
    if args.function is not None:
        header = ("function", "degree", "integral")
        row = (args.function.name, args.degree, cubature.integrate(rule, args.function))
        spec.write_table(header, [row], dict(zip(header, row)))
        return 0
    spec.write_table(
        ("k", "j", "x1", "x2", "class", "weight"),
        (
            (p.k, p.j, p.x1, p.x2, p.point_class.value, w)
            for p, w in zip(pset.points, rule.weights)
        ),
    )
    return 0


def cmd_lebesgue(args):
    grid = interp.EvalGrid(m=args.grid, kind=args.grid_kind)
    rows = []
    for n in args.degrees:
        pset = points.generate(n)
        rows.append((n, len(pset), grid.m, grid.kind,
                     interp.lebesgue_constant(pset, grid)))
    _out_spec(args).write_table(
        ("n", "cardinality", "grid_m", "grid_kind", "lebesgue"), rows
    )
    return 0


def cmd_converge(args):
    grid = interp.EvalGrid(m=args.grid, kind=args.grid_kind)
    report = analysis.convergence_study(
        args.function, args.p, args.degrees, grid, quad_m=args.quad
    ).to_dict()
    header = ("function", "p", "n", "cardinality", "error_wp", "error_uniform",
              "lebesgue_estimate", "en_proxy")
    _out_spec(args).write_table(
        header,
        ((report["function"], report["p"], *(r[h] for h in header[2:]))
         for r in report["rows"]),
        report,
    )
    return 0


def cmd_marcinkiewicz(args):
    ratios = analysis.marcinkiewicz_trials(
        args.degree, args.p, args.trials, seed=args.seed
    )
    _out_spec(args).write_table(
        ("degree", "p", "seed", "trial", "ratio"),
        ((args.degree, args.p, args.seed, t, r) for t, r in enumerate(ratios)),
        {
            "degree": args.degree,
            "p": args.p,
            "trials": args.trials,
            "seed": args.seed,
            "min_ratio": float(ratios.min()),
            "max_ratio": float(ratios.max()),
            "ratios": list(ratios),
        },
    )
    return 0


def cmd_verify(args):
    report = verify.run_verification(args.max_degree, args.seed)
    header = ("check", "degree", "observed", "tolerance", "passed")
    _out_spec(args).write_table(
        header, (tuple(c[h] for h in header) for c in report["checks"]), report
    )
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="padua",
        description="Bivariate Lagrange interpolation and cubature at the "
        "Padua points.",
        epilog="Exit codes: 0 ok, 1 verification failure, 2 bad arguments, "
        "3 I/O failure, 4 sample-data mismatch.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("points", help="emit the node set")
    sp.add_argument("--degree", type=int, required=True)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_points)

    sp = sub.add_parser("interp", help="interpolate a function or sample file on a grid")
    sp.add_argument("--degree", type=int, required=True)
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--function", type=_builtin_function, help="builtin function name")
    src.add_argument("--samples", help="CSV sample file (k,j,value or bare column)")
    sp.add_argument("--grid", type=int, default=50)
    sp.add_argument("--grid-kind", choices=("uniform", "chebyshev"), default="uniform")
    sp.add_argument("--p", default="2", help="error norm exponent, or 'inf'")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_interp)

    sp = sub.add_parser("cubature", help="emit weights, or integrate a builtin")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--function", type=_builtin_function, default=None)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_cubature)

    sp = sub.add_parser("lebesgue", help="Lebesgue-constant estimates on a grid")
    sp.add_argument("--degrees", type=_degree_list, required=True)
    sp.add_argument("--grid", type=int, default=200)
    sp.add_argument("--grid-kind", choices=("uniform", "chebyshev"), default="uniform")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_lebesgue)

    sp = sub.add_parser("converge", help="interpolation convergence study")
    sp.add_argument("--function", type=_builtin_function, required=True)
    sp.add_argument("--p", default="2")
    sp.add_argument("--degrees", type=_degree_list, required=True)
    sp.add_argument("--grid", type=int, default=200)
    sp.add_argument("--grid-kind", choices=("uniform", "chebyshev"), default="uniform")
    sp.add_argument("--quad", type=int, default=None)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_converge)

    sp = sub.add_parser("marcinkiewicz", help="discrete vs continuous norm ratios")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_marcinkiewicz)

    sp = sub.add_parser("verify", help="run the residual checks, JSON report")
    sp.add_argument("--max-degree", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    _add_output_flags(sp, default_format="json")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except SampleMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
