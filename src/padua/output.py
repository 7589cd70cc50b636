"""CSV and JSON tables through one column writer.

A table is a Records of equal-length columns, or a LatticeRows node table.
Both formats write it through the same pieces: the rows with the CSV
delimiters or the JSON key prefixes as separators, and one per-value
formatter per format for float cells and one for object cells.  Every
number becomes text in one place, _per_distinct, one block of rows at a
time: each distinct value of the block is formatted once.  A node table is
written one lattice row at a time from per-axis data, with no array over
the nodes.
"""

import contextlib
import math
import sys
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import points

# Rows assembled per write: the texts of every column, and of a JSON float
# array's values, exist for one block at a time
_BLOCK_ROWS = 4096

# Characters of node-table text per write (LatticeRows).  Pieces this size
# reuse heap memory, where 1 MB pieces took fresh pages on every write and
# made points --degree 512 about 45 % slower (BENCH_node_rows.json).
_WRITE_CHARS = 1 << 16

# Slots for k and x1 in a node-row template: no number, class name,
# separator or JSON-escaped string contains these characters
_K_SLOT, _X1_SLOT = "\x00", "\x01"


class OutputSpec:
    """Where a command's table goes: CSV or JSON, to a path or '-' (stdout).

    A table (Records, or LatticeRows) is written as its pieces(float_text,
    object_text, seps, last) with the CSV delimiters or the JSON key
    prefixes as separators."""

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
        """Write equal-length 1-D columns under header, or a LatticeRows under
        its own keys, as CSV: a float cell is num(v), a bool cell is true or
        false, any other cell is str(v).  Cell texts are made and joined one
        block of rows at a time, a float or integer column's once per
        distinct value of the block (floats by bit pattern, -0.0 and 0.0
        apart)."""
        table = _table(header, columns)
        seps = [","] * (len(table.keys) - 1) + ["\n"]
        with self._open() as out:
            out.write(",".join(table.keys) + "\n")
            out.writelines(table.pieces(f"%.{self.precision}g".__mod__, self._csv_cell,
                                        seps, "\n"))

    def _csv_cell(self, v):
        """The CSV text of one value of a column of objects."""
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
        written as lists and a Records or LatticeRows as its list of records.
        Keys are str and scalars are str, int, float (numpy floats too), bool
        or None; anything else raises TypeError, as in json.dumps, but only
        once the text before it is written.  The text is written piece by
        piece: a table one block of _BLOCK_ROWS rows at a time, assembled
        as in write_rows, and a 1-D float array one block of _BLOCK_ROWS
        values at a time, formatted as a float column's cells."""
        with self._open() as out:
            out.writelines(self._json(obj, "\n"))
            out.write("\n")

    def _json(self, obj, nl):
        """Pieces of the JSON text of obj, whose lines after the first start
        with nl."""
        inner = nl + "  "
        if isinstance(obj, (Records, LatticeRows)):
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
                yield "[" + inner
                yield from _join_blocks([lambda sl: _per_distinct(obj[sl], self._json_float)],
                                        ["," + inner], len(obj), nl + "]")
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
        yield from table.pieces(self._json_float, self._json_scalar, seps,
                                inner + "}" + nl + "]")

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


class Records:
    """A table of equal-length 1-D columns, written as JSON as the list of
    records {keys[i]: columns[i][r]}."""

    def __init__(self, keys, columns):
        self.keys = keys
        self.columns = [np.asarray(c).ravel() for c in columns]
        self.rows = len(self.columns[0]) if self.columns else 0

    def pieces(self, float_text, object_text, seps, last):
        """Text of the rows, cells separated by seps with the last row's final
        separator replaced by last, one piece per block of _BLOCK_ROWS rows."""
        cells = [_column_cells(c, float_text, object_text) for c in self.columns]
        return _join_blocks(cells, seps, self.rows, last)


class LatticeRows:
    """The node table k, j, x1, x2, class of a PaduaSet, and weight
    a[k] b[eta] when it carries weight factors (a, b).  The rows are built
    from the cosines and end flags of each lattice axis of the set's degree
    (points.lattice_axes, points.lattice_ends); no per-node array is read."""

    def __init__(self, pset, factors=None):
        self.pset, self.factors, self.rows = pset, factors, len(pset)
        self.keys = ("k", "j", "x1", "x2", "class") + (() if factors is None else ("weight",))

    def pieces(self, float_text, object_text, seps, last):
        """Text of the rows as Records.pieces gives it, about _WRITE_CHARS
        characters per piece.  The cells of a lattice row but k and x1
        depend only on its class: the parity of k, whether k is an end, and
        a[k] (keyed by its bits, so the text cannot drift from a[k] b[eta]).
        A class's text is built once from per-eta cells, as _column_cells
        formats them; each row joins its k text into it and replaces x1."""
        def texts(column):
            return _column_cells(column, float_text, object_text)(slice(None)).tolist()

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
                cells = [_column_cells(c, float_text, object_text) for c in columns]
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
    """columns itself when it is a LatticeRows, else its Records under header."""
    return columns if isinstance(columns, LatticeRows) else Records(header, columns)


def _per_distinct(values, fmt):
    """fmt(v) of each value of one block of a float or integer column, made
    once per distinct value of the block: floats as float64 keyed by their
    bit pattern (-0.0 and 0.0 apart), integers as Python ints keyed by value."""
    is_float = values.dtype.kind == "f"
    if is_float:
        values = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, codes = np.unique(values, return_inverse=True)
    if is_float:
        distinct = distinct.view(np.float64)
    return np.array([fmt(v) for v in distinct.tolist()], dtype=object)[codes]


def _column_cells(column, float_text, object_text):
    """Cell texts of a 1-D column as a function of a slice of rows: a float or
    integer column's from _per_distinct on that slice (float_text per distinct
    float, str per distinct integer), a bool column's true/false, and any
    other column's values (as Python objects) from object_text one by one."""
    kind = column.dtype.kind
    if kind in "fiu":
        return lambda sl: _per_distinct(column[sl], float_text if kind == "f" else str)
    if kind == "b":
        texts = np.array(["false", "true"], dtype=object)
        return lambda sl: texts[column[sl].view(np.uint8)]
    return lambda sl: list(map(object_text, column[sl].tolist()))


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
