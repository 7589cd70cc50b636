"""Command-line front end: points, interp, cubature, lebesgue, converge,
marcinkiewicz, verify.

Exit codes: 0 ok, 1 verification failure, 2 bad arguments, 3 I/O failure,
4 sample-data mismatch.  All output is deterministic given flags and seed
at a fixed BLAS thread count, on one machine and numpy build.
"""

import argparse
import contextlib
import functools
import math
import sys
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import analysis, cubature, functions, interp, points, verify
from . import __version__


class SampleMismatchError(ValueError):
    """A sample file does not match the node set."""


# ---------------------------------------------------------------------------
# output plumbing

# Rows assembled per write: Python strings exist for one block at a time
_BLOCK_ROWS = 4096

# Characters of node-table text per write (_LatticeRows).  Pieces this size
# reuse heap memory, where 1 MB pieces took fresh pages on every write and
# made points --degree 512 about 45 % slower (BENCH_node_rows.json).
_WRITE_CHARS = 1 << 16

# Slots for k and x1 in a node-row template: no number, class name,
# separator or JSON-escaped string contains these characters
_K_SLOT, _X1_SLOT = "\x00", "\x01"


class OutputSpec:
    """Where a command's table goes: CSV or JSON, to a path or '-' (stdout).

    A table (a _Records of columns, or a node table per lattice axis,
    _LatticeRows) is written as its pieces(float_text, object_texts, seps,
    last) with the CSV delimiters or the JSON key prefixes as separators."""

    def __init__(self, fmt, path, precision):
        if not 1 <= precision <= 17:
            raise ValueError("precision must be in 1..17")
        self.fmt = fmt
        self.path = path
        self.precision = precision

    def num(self, v):
        """Format one float at the configured precision (CSV cell)."""
        return format(float(v), f".{self.precision}g")

    def _open(self):
        """The output as a context manager: stdout, left open, or the file."""
        if self.path in (None, "-"):
            return contextlib.nullcontext(sys.stdout)
        return open(self.path, "w", newline="\n")

    def write_rows(self, header, columns):
        """Write equal-length 1-D columns, or a _LatticeRows, as CSV: a float
        cell is num(v), a bool cell is true or false, any other cell is
        str(v).  Cell texts are made column by column (a float column's once
        per distinct bit pattern, -0.0 and 0.0 apart) and joined one block of
        rows at a time."""
        table = _table(header, columns)
        seps = [","] * (len(header) - 1) + ["\n"]
        with self._open() as out:
            out.write(",".join(header) + "\n")
            out.writelines(table.pieces(f"%.{self.precision}g".__mod__, self._csv_texts,
                                        seps, "\n"))

    def _csv_texts(self, values):
        """CSV texts of a block of a column of objects; strings pass through."""
        if set(map(type, values)) <= {str}:
            return values
        return [self._csv_cell(v) for v in values]

    def _csv_cell(self, v):
        """The CSV text of one value of a column of mixed objects."""
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return self.num(v)
        return str(v)

    def write_table(self, header, columns, document=None):
        """Write equal-length 1-D columns as CSV (write_rows); as JSON, write
        document, or when there is none, the rows as objects keyed by header."""
        if self.fmt == "csv":
            self.write_rows(header, columns)
        else:
            self.write_json(_table(header, columns) if document is None else document)

    def write_json(self, obj):
        """Write obj as json.dumps(obj, indent=2) writes it, byte for byte, with
        every float rounded to the configured precision, tuples and arrays
        written as lists and a _Records as its list of records.  Keys are
        str and scalars are str, int, float (numpy floats too), bool or None;
        anything else raises TypeError, as in json.dumps, but only once the
        text before it is written.  The text is written piece by piece: a
        record table one block of _BLOCK_ROWS rows at a time, assembled column
        by column as in write_rows, and a 1-D float array in one piece, with
        its floats formatted once per distinct bit pattern."""
        with self._open() as out:
            out.writelines(self._json(obj, "\n"))
            out.write("\n")

    def _json(self, obj, nl):
        """Pieces of the JSON text of obj, whose lines after the first start
        with nl."""
        inner = nl + "  "
        if isinstance(obj, (_Records, _LatticeRows)):
            yield from self._json_records(obj, nl)
        elif isinstance(obj, dict):
            if not obj:
                yield "{}"
                return
            sep = "{" + inner
            for k, v in obj.items():
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                yield sep + _json_str(k) + ": "
                yield from self._json(v, inner)
                sep = "," + inner
            yield nl + "}"
        elif isinstance(obj, (list, tuple)) or (isinstance(obj, np.ndarray) and obj.ndim):
            if len(obj) == 0:
                yield "[]"
            elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f":
                texts, codes = _per_distinct(obj, self._json_float)
                yield "[" + inner + ("," + inner).join(texts[codes].tolist()) + nl + "]"
            else:
                sep = "[" + inner
                for v in obj:
                    yield sep
                    yield from self._json(v, inner)
                    sep = "," + inner
                yield nl + "]"
        else:
            yield self._json_scalar(obj)

    def _json_records(self, table, nl):
        """Pieces of the JSON text of a table, its lines after the first
        starting with nl: the table's pieces with the key prefixes as
        separators."""
        if table.rows == 0:
            yield "[]"
            return
        inner, item = nl + "  ", nl + "    "
        names = [_json_str(k) + ": " for k in table.keys]
        start = "{" + item + names[0]
        seps = ["," + item + k for k in names[1:]] + [inner + "}," + inner + start]
        yield "[" + inner + start
        yield from table.pieces(self._json_float, self._json_texts, seps,
                                inner + "}" + nl + "]")

    def _json_texts(self, values):
        """JSON texts of a block of a column of objects."""
        if set(map(type, values)) <= {str}:
            return list(map(_json_str, values))
        return list(map(self._json_scalar, values))

    def _json_scalar(self, v):
        """The JSON text of a str, bool, int, float (numpy floats too, rounded
        as _json_float) or None; TypeError for anything else."""
        if isinstance(v, str):
            return _json_str(v)
        if v is None:
            return "null"
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return int.__repr__(v)
        if isinstance(v, (float, np.floating)):
            return self._json_float(v)
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

    def _json_float(self, v):
        """v rounded to the configured precision, as json writes a float: NaN,
        Infinity, -Infinity or repr."""
        x = float(self.num(v))
        if x != x:
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)


class _Records:
    """A table of equal-length 1-D columns, written as JSON as the list of
    records {keys[i]: columns[i][r]}."""

    def __init__(self, keys, columns):
        self.keys = keys
        self.columns = [np.asarray(c).ravel() for c in columns]
        self.rows = len(self.columns[0]) if self.columns else 0

    def pieces(self, float_text, object_texts, seps, last):
        """Text of the rows, cells separated by seps with the last row's final
        separator replaced by last, one piece per block of _BLOCK_ROWS rows."""
        cells = [_column_cells(c, float_text, object_texts) for c in self.columns]
        return _join_blocks(cells, seps, self.rows, last)


class _LatticeRows:
    """The node table k, j, x1, x2, class (and weight a[k] b[eta] for factors
    (a, b)) of a PaduaSet.  The rows are built from the cosines and end flags
    of each lattice axis of the set's degree (points.lattice_axes,
    points.lattice_ends); no per-node array is read."""

    def __init__(self, keys, pset, factors=None):
        self.keys, self.pset, self.factors, self.rows = keys, pset, factors, len(pset)

    def pieces(self, float_text, object_texts, seps, last):
        """Text of the rows as _Records.pieces gives it, about _WRITE_CHARS
        characters per piece.  The cells of a lattice row but k and x1
        depend only on its class: the parity of k, whether k is an end, and
        a[k] (keyed by its bits, so the text cannot drift from a[k] b[eta]).
        A class's text is built once from per-eta cells, as _column_cells
        formats them; each row joins its k text into it and replaces x1."""
        def texts(column):
            return _column_cells(column, float_text, object_texts)(slice(None)).tolist()

        n, grids = self.pset.degree, self.pset.sub_grids()
        (axis1, axis2), (end1, end2) = points.lattice_axes(n), points.lattice_ends(n)
        a, b = self.factors or (np.zeros(n + 1), None)
        names = np.array([c.value for c in points.CODE_TO_CLASS], dtype=object)
        templates, buf, size = {}, [], 0
        rows = zip(texts(np.arange(n + 1)), texts(axis1), end1.tolist(),
                   a.view(np.int64).tolist())
        for k, (k_text, x1_text, end, a_bits) in enumerate(rows):
            key = k & 1, end, a_bits
            if key not in templates:
                etas = grids[k & 1][1]
                columns = [np.arange(1, etas.size + 1), axis2[etas],
                           names[2 - end - end2[etas]]]
                if b is not None:
                    columns.append(a[k] * b[etas])
                cells = [_column_cells(c, float_text, object_texts) for c in columns]
                cells[:1] = [lambda sl: _K_SLOT, cells[0], lambda sl: _X1_SLOT]
                text = "".join(_join_blocks(cells, seps, etas.size, seps[-1]))
                templates[key] = text.split(_K_SLOT)
            if size >= _WRITE_CHARS:
                yield "".join(buf)
                buf, size = [], 0
            buf.append(k_text.join(templates[key]).replace(_X1_SLOT, x1_text))
            size += len(buf[-1])
        text = "".join(buf)
        yield text[:len(text) - len(seps[-1])] + last


def _table(header, columns):
    """columns itself when it is a _LatticeRows, else its _Records under header."""
    return columns if isinstance(columns, _LatticeRows) else _Records(header, columns)


def _per_distinct(column, fmt):
    """fmt(v) of each distinct float64 bit pattern of column (-0.0 and 0.0
    apart), and the index of each value's text: (texts, codes)."""
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
    distinct, codes = np.unique(bits, return_inverse=True)
    texts = [fmt(v) for v in distinct.view(np.float64).tolist()]
    return np.array(texts, dtype=object), codes


def _column_cells(column, float_text, object_texts):
    """Cell texts of a 1-D column as a function of a slice of rows.  A float,
    bool or integer column's texts are looked up in a table: float_text(v)
    per distinct float, true/false, and str(i) for i in min..max when that
    range is no longer than the column (str per value otherwise).  Any other
    column's block of values (as Python objects) goes to object_texts."""
    kind = column.dtype.kind
    if kind == "f":
        texts, codes = _per_distinct(column, float_text)
        return lambda sl: texts[codes[sl]]
    if kind == "b":
        texts = np.array(["false", "true"], dtype=object)
        return lambda sl: texts[column[sl].view(np.uint8)]
    if kind not in "iu":
        return lambda sl: object_texts(column[sl].tolist())
    # 64-bit, so that v - lo cannot wrap when hi - lo fits the row count
    column = column.astype(np.uint64 if kind == "u" else np.int64, copy=False)
    lo, hi = (int(column.min()), int(column.max())) if column.size else (0, -1)
    if hi - lo >= column.size:
        return lambda sl: list(map(str, column[sl].tolist()))
    texts = np.array([str(i) for i in range(lo, hi + 1)], dtype=object)
    lo = column.dtype.type(lo)
    return lambda sl: texts[column[sl] - lo]


def _join_blocks(cells, seps, rows, last):
    """Text of the rows cells[0] seps[0] cells[1] seps[1] ..., one string per
    block of _BLOCK_ROWS rows, with the last row's final separator replaced
    by last; cells[i](sl) gives column i's texts of the rows in slice sl.
    Each block is one object matrix whose separator slots are filled once."""
    block = np.empty((min(rows, _BLOCK_ROWS), 2 * len(cells)), dtype=object)
    block[:, 1::2] = seps
    for start in range(0, rows, _BLOCK_ROWS):
        sl = slice(start, start + _BLOCK_ROWS)
        part = block[:min(rows - start, _BLOCK_ROWS)]
        for i, cell in enumerate(cells):
            part[:, 2 * i] = cell(sl)
        if start + len(part) == rows:
            part[-1, -1] = last
        yield "".join(part.ravel().tolist())


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


def _node_table(pset, rule=None):
    """Header and _LatticeRows of the node table, with the weights of rule."""
    factors = None if rule is None else (rule.a, rule.b)
    header = ("k", "j", "x1", "x2", "class") + (() if rule is None else ("weight",))
    return header, _LatticeRows(header, pset, factors)


def cmd_points(args):
    _out_spec(args).write_table(*_node_table(points.generate(args.degree)))
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
        quad_m = max(64, 4 * args.degree)
        analysis.check_quad(quad_m)
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
                                     grid, quad_m)
        values = err.values
        header = ("x1", "x2", "value", "reference", "abs_error")
        columns = [x1, x2, values, err.reference, np.abs(values - err.reference)]
        summary = {"error_uniform": err.error_uniform, "error_wp": err.error_wp,
                   "p": "inf" if math.isinf(p) else p}

    spec = _out_spec(args)
    spec.write_table(
        header,
        columns,
        {
            "degree": args.degree,
            "function": None if func is None else func.name,
            "grid": {"m": grid.m, "kind": grid.kind},
            "axis": ax,
            "summary": summary,
            "values": values,
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
        spec.write_table(header, [[v] for v in row], dict(zip(header, row)))
        return 0
    spec.write_table(*_node_table(pset, rule))
    return 0


def cmd_lebesgue(args):
    grid = interp.EvalGrid(m=args.grid, kind=args.grid_kind)
    interp.check_lebesgue_size(max(args.degrees), grid)
    rows = []
    for n in args.degrees:
        pset = points.generate(n)
        rows.append((n, len(pset), grid.m, grid.kind,
                     interp.lebesgue_constant(pset, grid)))
    _out_spec(args).write_table(
        ("n", "cardinality", "grid_m", "grid_kind", "lebesgue"), list(zip(*rows))
    )
    return 0


def cmd_converge(args):
    grid = interp.EvalGrid(m=args.grid, kind=args.grid_kind)
    report = analysis.convergence_study(
        args.function, args.p, args.degrees, grid, quad_m=args.quad
    ).to_dict()
    header = ("function", "p", "n", "cardinality", "error_wp", "error_uniform",
              "lebesgue_estimate", "en_proxy")
    columns = [[{**report, **r}[h] for r in report["rows"]] for h in header]
    _out_spec(args).write_table(
        header, columns, {**report, "rows": _Records(header[2:], columns[2:])}
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
        header, columns, {**report, "checks": _Records(header, columns)}
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
