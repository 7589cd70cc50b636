"""Command-line front end: argument parsing and the commands points, interp,
cubature, lebesgue, converge, marcinkiewicz and verify (padua.output writes
their tables).

Exit codes: 0 ok, 1 verification failure, 2 bad arguments, 3 I/O failure,
4 sample-data mismatch.
"""

import argparse
import functools
import math
import sys

import numpy as np

from . import analysis, cubature, functions, interp, points, verify
from . import __version__
from .output import LatticeRows, OutputSpec, Records


class SampleMismatchError(ValueError):
    """A sample file does not match the node set."""


# ---------------------------------------------------------------------------
# argument parsing


def _out_spec(args):
    return OutputSpec(args.format, args.output, args.precision)


def _add_output_flags(sub, default_format="csv"):
    sub.add_argument("--format", choices=("csv", "json"), default=default_format)
    sub.add_argument("--output", default="-", help="output path, '-' for stdout")
    sub.add_argument("--precision", type=_precision, default=17,
                     help="decimal digits for numeric output (1..17)")


def _precision(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= value <= 17:
        raise argparse.ArgumentTypeError(f"precision must be in 1..17, not {value}")
    return value


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
    table = LatticeRows(points.generate(args.degree))
    _out_spec(args).write_table(table.keys, table)
    return 0


def _load_samples(path, pset):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        raise SampleMismatchError(f"sample file {path} is not UTF-8 text") from None
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
        k, j = pset.node_index(i)
        raise SampleMismatchError(
            f"non-finite sample {values[i]} in row {i + 1} (node k={k}, j={j})"
        )
    return values


def cmd_interp(args):
    p = analysis._as_p(args.p)
    pset = points.generate(args.degree)
    func = args.function
    if func is not None:
        quad_m = analysis.check_quad(max(64, 4 * args.degree), args.degree)
        samples = interp.sample(pset, func)
    else:
        samples = _load_samples(args.samples, pset)
    grid = interp.EvalGrid(m=args.grid, kind=args.grid_kind)
    ax = grid.axis()
    if func is None:
        values = interp.interpolate_grid(pset, samples, grid)
        summary = None
    else:
        # the measured series on the grid is the interpolant's grid values
        err = analysis.measure_error(interp.to_coefficients(pset, samples), func, p,
                                     grid, quad_m)
        values = err.values
        summary = {"error_uniform": err.error_uniform, "error_wp": err.error_wp,
                   "p": "inf" if math.isinf(p) else p}

    spec = _out_spec(args)
    if spec.fmt == "json":
        spec.write_json({
            "degree": args.degree,
            "function": None if func is None else func.name,
            "grid": {"m": grid.m, "kind": grid.kind},
            "axis": ax,
            "summary": summary,
            "values": values,
        })
        return 0
    # the document reads only axis and values: the m x m coordinate and
    # error columns are built for the CSV table alone
    x1, x2 = np.meshgrid(ax, ax, indexing="ij")
    if func is None:
        spec.write_rows(("x1", "x2", "value"), [x1, x2, values])
        return 0
    spec.write_rows(("x1", "x2", "value", "reference", "abs_error"),
                    [x1, x2, values, err.reference, np.abs(values - err.reference)])
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
        spec.write_table(header, [[v] for v in row], dict(zip(header, row)))
        return 0
    table = LatticeRows(pset, (rule.a, rule.b))
    spec.write_table(table.keys, table)
    return 0


def cmd_lebesgue(args):
    grid = interp.EvalGrid(m=args.grid, kind=args.grid_kind)
    # a node set checks its degree: every degree before the size bound
    psets = [points.PaduaSet(n) for n in args.degrees]
    interp.check_lebesgue_size(max(args.degrees), grid)
    rows = []
    for n, pset in zip(args.degrees, psets):
        rows.append((n, len(pset), grid.m, grid.kind,
                     interp.lebesgue_constant(pset, grid)))
    _out_spec(args).write_table(
        ("n", "cardinality", "grid_m", "grid_kind", "lebesgue"), list(zip(*rows))
    )
    return 0


def cmd_converge(args):
    grid = interp.EvalGrid(m=args.grid, kind=args.grid_kind)
    top = max(args.degrees)
    quad_m = args.quad if args.quad is not None else analysis.check_quad(
        4 * top, top, "; --quad sets the quadrature")
    report = analysis.convergence_study(
        args.function, args.p, args.degrees, grid, quad_m=quad_m
    ).to_dict()
    header = ("function", "p", "n", "cardinality", "error_wp", "error_uniform",
              "lebesgue_estimate", "en_proxy")
    columns = [[{**report, **r}[h] for r in report["rows"]] for h in header]
    _out_spec(args).write_table(
        header, columns, {**report, "rows": Records(header[2:], columns[2:])}
    )
    return 0


def cmd_marcinkiewicz(args):
    ratios = analysis.marcinkiewicz_trials(
        args.degree, args.p, args.trials, seed=args.seed
    )
    trials = len(ratios)
    _out_spec(args).write_table(
        ("degree", "p", "seed", "trial", "ratio"),
        [np.full(trials, args.degree), np.full(trials, args.p),
         np.full(trials, args.seed), np.arange(trials), ratios],
        {
            "degree": args.degree,
            "p": args.p,
            "trials": args.trials,
            "seed": args.seed,
            "min_ratio": float(ratios.min()),
            "max_ratio": float(ratios.max()),
            "ratios": ratios,
        },
    )
    return 0


def cmd_verify(args):
    report = verify.run_verification(args.max_degree, args.seed)
    header = ("check", "degree", "observed", "tolerance", "passed")
    columns = [[c[h] for c in report["checks"]] for h in header]
    _out_spec(args).write_table(
        header, columns, {**report, "checks": Records(header, columns)}
    )
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache  # one parser per process: parsing leaves it unchanged
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
    try:
        args = build_parser().parse_args(argv)
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
