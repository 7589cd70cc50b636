"""The column-wise CSV/JSON writer against the cell-by-cell reference writers
of tests/oracles.py."""

import os
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import csv_table, json_document, json_table
from padua import analysis, cli, cubature, functions, interp, output, points, verify

# floats with repeats, signed zeros, infinities, NaNs (two payloads, both
# signs) and subnormals
_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.5e-310,
            np.array(0x7FF8000000000001).view(np.float64).item(), 1.0, -1.0]


def _random_columns(rng, rows):
    """Columns of every kind the writer meets, in the order of _HEADER."""
    pool = np.concatenate([
        rng.standard_normal(40) * 10.0 ** rng.integers(-320, 300, 40),
        rng.uniform(-1.0, 1.0, 40),
        _SPECIAL,
    ])
    floats = rng.choice(pool, rows)
    count = min(rows, len(_SPECIAL))
    floats[rng.permutation(rows)[:count]] = _SPECIAL[:count]
    mixed = [None, 3, -0.0, "inf", True, 2.5, np.float32(0.1), np.longdouble(1) / 3,
             -7, "x,y"]
    return [
        floats,
        # a range wider than the row count
        rng.integers(-10**12, 10**12, rows),
        rng.choice(np.array(["vertex", "edge", "interior", "exp_sum"]), rows),
        rng.integers(0, 2, rows).astype(bool),
        rng.choice(pool[:5], rows).astype(np.longdouble),
        # at least 2**63, then small negative and constant ints
        np.uint64(2**63) + rng.integers(0, 5, rows).astype(np.uint64),
        rng.integers(-6, 0, rows),
        np.full(rows, 7, dtype=np.int32),
        np.array([mixed[i] for i in rng.integers(0, len(mixed), rows)], dtype=object),
    ]


_HEADER = ("f", "i", "s", "b", "ld", "u64", "neg", "const", "obj")


@pytest.mark.parametrize("precision", range(1, 18))
def test_write_rows_matches_cell_reference(tmp_path, monkeypatch, precision):
    block = 5
    monkeypatch.setattr(output, "_BLOCK_ROWS", block)
    rng = np.random.default_rng(1000 + precision)
    path = tmp_path / "table.csv"
    spec = output.OutputSpec("csv", str(path), precision)
    for rows in (0, 1, block - 1, block, block + 1, 4 * block + 3):
        columns = _random_columns(rng, rows)
        spec.write_rows(_HEADER, columns)
        assert path.read_text() == csv_table(_HEADER, zip(*columns), precision)
        # each column alone: the last separator of a row is its only one
        for name, column in zip(_HEADER, columns):
            spec.write_rows([name], [column])
            assert path.read_text() == csv_table([name], zip(column), precision)


def test_write_rows_with_no_rows_writes_the_header(tmp_path):
    path = tmp_path / "table.csv"
    spec = output.OutputSpec("csv", str(path), 17)
    spec.write_rows(_HEADER, _random_columns(np.random.default_rng(0), 0))
    assert path.read_text() == ",".join(_HEADER) + "\n"
    spec.write_rows(["x"], [[]])
    assert path.read_text() == "x\n"


def _integer_columns(rng, rows):
    """Integer columns at the ends of their dtypes: int64 minimum and maximum,
    uint64 maximum, negative values, narrow dtypes, and values spread far
    wider than the row count."""
    i64, u64 = np.iinfo(np.int64), np.iinfo(np.uint64)
    return [
        rng.choice(np.array([i64.min, i64.max, -1, 0, 1], dtype=np.int64), rows),
        rng.choice(np.array([0, 1, 2**63 - 1, 2**63, u64.max], dtype=np.uint64), rows),
        rng.integers(i64.min, i64.max, rows, endpoint=True),
        rng.integers(-3, 0, rows),
        rng.choice(np.array([-128, -1, 0, 127], dtype=np.int8), rows),
        rng.choice(np.array([0, 255], dtype=np.uint8), rows),
        np.full(rows, i64.min),
    ]


@pytest.mark.parametrize("block", [1, 3, 5])
def test_integer_cells_match_cell_reference(tmp_path, monkeypatch, block):
    # integers are written with str, in CSV and in JSON records, whatever
    # their dtype, range and place in a block of rows
    monkeypatch.setattr(output, "_BLOCK_ROWS", block)
    rng = np.random.default_rng(4000 + block)
    header = ("i64_ends", "u64_ends", "i64_wide", "neg", "i8", "u8", "i64_min")
    path = tmp_path / "table"
    for rows in (1, block - 1, block, block + 1, 4 * block + 3):
        columns = _integer_columns(rng, rows)
        output.OutputSpec("csv", str(path), 17).write_rows(header, columns)
        assert path.read_text() == csv_table(header, zip(*columns), 17)
        output.OutputSpec("json", str(path), 17).write_table(header, columns)
        values = zip(*(c.tolist() for c in columns))
        assert path.read_text() == json_table(header, values, 17)


@pytest.mark.parametrize("precision", range(1, 18))
def test_write_table_json_records_match_json_table(tmp_path, monkeypatch, precision):
    # with no document, write_table writes the rows as records keyed by the
    # header; the reference reads each column as Python values, as
    # np.asarray(column).tolist() gives them
    block = 5
    monkeypatch.setattr(output, "_BLOCK_ROWS", block)
    rng = np.random.default_rng(3000 + precision)
    path = tmp_path / "table.json"
    spec = output.OutputSpec("json", str(path), precision)
    for rows in (0, 1, block - 1, block, block + 1, 4 * block + 3):
        columns = _random_columns(rng, rows)
        spec.write_table(_HEADER, columns)
        values = list(zip(*(c.tolist() for c in columns)))
        assert path.read_text() == json_table(_HEADER, values, precision)
        spec.write_table(["f"], columns[:1])
        assert path.read_text() == json_table(["f"], zip(columns[0].tolist()), precision)


def _records(rng, rows, keys):
    floats, ints, strs, bools, lds = _random_columns(rng, rows)[:5]
    mixed = [None, 3, -0.0, "inf", True, 2.5, np.float32(0.1), np.longdouble(1) / 3]
    columns = [floats.tolist(), list(floats), ints.tolist(), strs.tolist(),
               bools.tolist(), list(lds), [mixed[i % len(mixed)] for i in range(rows)]]
    return [dict(zip(keys, row)) for row in zip(*columns)]


def _documents(rng):
    """Documents of every shape the writer meets: lists of records with
    float, numpy-float, int, string, bool and mixed values, float lists and
    arrays, nested and empty containers, and scalars."""
    keys = ["f", "np_f", "i", "s", "b", "ld", "mixed"]
    table = _records(rng, 23, keys)
    return [
        table,
        _records(rng, 1, keys),
        {"rows": table, "summary": {"p": "inf", "error": 1.5e-17, "ok": False},
         "axis": list(np.linspace(-1, 1, 7)), "values": np.linspace(0, 1, 12).reshape(3, 4),
         "grid": {"m": 200, "kind": "uniform"}, "none": None},
        {"ld": np.linspace(-1, 1, 5).astype(np.longdouble), "f32": np.float32(1) / 3,
         "tuple": (1, 2.0, "x"), "empty_list": [], "empty_dict": {}, "nested": [[], [{}]],
         "text": 'quote " backslash \\ newline \n percent %s unicode \u00e9\u2603'},
        [{"a": 1.0, "b": 2}, {"b": 2, "a": 1.0}, {"a": 0.1}],
        [{"x": [1.0, 2.0]}, {"x": {"y": 0.3}}],
        [{"%s": 0.5, "k\"ey": 1}, {"%s": -0.5, "k\"ey": 2}],
        [1, 2.0, "3", None, True, [4.5, [5.5]], {"z": 6.5}],
        list(_SPECIAL),
        np.array(_SPECIAL),
        [],
        {},
        0.1,
        "scalar",
        None,
    ]


@pytest.mark.parametrize("precision", range(1, 18))
def test_write_json_matches_json_dumps(tmp_path, precision):
    rng = np.random.default_rng(2000 + precision)
    path = tmp_path / "doc.json"
    spec = output.OutputSpec("json", str(path), precision)
    for doc in _documents(rng):
        spec.write_json(doc)
        assert path.read_text() == json_document(doc, precision)


def test_write_json_refuses_what_json_dumps_refuses(tmp_path):
    spec = output.OutputSpec("json", str(tmp_path / "doc.json"), 17)
    for doc in ({"n": np.int64(3)}, [np.bool_(True)], {"rows": np.arange(3)}):
        with pytest.raises(TypeError):
            json_document(doc, 17)
        with pytest.raises(TypeError):
            spec.write_json(doc)


def test_write_json_refuses_keys_that_are_not_str(tmp_path):
    # json.dumps would write these keys as strings; no document has them
    spec = output.OutputSpec("json", str(tmp_path / "doc.json"), 17)
    for doc in ({1: 0.25}, {None: "none key"}, {2.5: [0.1, 0.2]}, [{"a": {(1, 2): 3}}]):
        with pytest.raises(TypeError):
            spec.write_json(doc)


def _node_rows(pset, weights=None):
    rows = list(zip(*(column.tolist() for column in _node_columns(pset))))
    if weights is None:
        return rows
    return [(*row, w) for row, w in zip(rows, weights)]


@pytest.mark.parametrize("command", ["points", "cubature"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 64, 127, 128])
def test_node_tables_match_record_reference(tmp_path, command, n):
    # the lattice-row writer against cell-by-cell tables of the nodes built
    # from the definition: every row class (even and odd k, end rows, n = 1 with no
    # interior row) at both parities of n, and at n = 127 and 128 tables of
    # more than one write in every format and precision
    pset = points.generate(n)
    header = ["k", "j", "x1", "x2", "class"]
    weights = None
    if command == "cubature":
        header.append("weight")
        weights = cubature.build_rule(pset).weights
    rows = _node_rows(pset, weights)
    path = tmp_path / "table"
    for fmt, reference in (("csv", csv_table), ("json", json_table)):
        for precision in (1, 5, 17):
            code = cli.main([command, "--degree", str(n), "--format", fmt,
                             "--precision", str(precision), "--output", str(path)])
            assert code == 0
            text = path.read_text()
            assert text == reference(header, rows, precision)
            if n >= 127:
                assert len(text) > output._WRITE_CHARS


def _node_columns(pset):
    """The node table of pset as per-node columns, from the definition
    (oracles.padua_nodes), for the generic writer."""
    nodes = oracles.padua_nodes(pset.degree)
    names = np.array([c.value for c in points.CODE_TO_CLASS], dtype=object)
    return [nodes.k, nodes.j, nodes.x1, nodes.x2, names[nodes.code]]


def _traced_peak(write, *args):
    """The tracemalloc peak of write(*args), in bytes."""
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_rows_memory_at_degree_1024():
    # 525,825 rows: the writer holds the texts of one block of rows, never a
    # text per row or per distinct value of a column.  It peaks at 1.0 MiB;
    # float texts made for a whole column peaked at 24.7 MiB.
    columns = _node_columns(points.generate(1024))
    spec = output.OutputSpec("csv", os.devnull, 17)
    assert _traced_peak(spec.write_rows, ("k", "j", "x1", "x2", "class"), columns) < 3 * 2**20


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", ["float", "int"])
def test_write_table_memory_with_every_value_distinct(fmt, kind):
    # 2**16 distinct values in one column: 0.7-0.8 MiB, texts for one block of
    # rows at a time; texts for the whole column took 4.4 MiB (ints, a table
    # over min..max) and 7.8 MiB (floats)
    rng = np.random.default_rng(7)
    rows = 2**16
    column = rng.standard_normal(rows) if kind == "float" else rng.permutation(rows) - rows // 2
    spec = output.OutputSpec(fmt, os.devnull, 17)
    assert _traced_peak(spec.write_table, (kind,), [column]) < 2 * 2**20


def test_write_json_memory_with_a_distinct_float_array():
    # a 2**16-value float array in a document is written one block of values
    # at a time: 0.8 MiB, where the array's text in one piece took 8.3 MiB
    document = {"values": np.random.default_rng(8).standard_normal(2**16)}
    spec = output.OutputSpec("json", os.devnull, 17)
    assert _traced_peak(spec.write_json, document) < 2 * 2**20


def _command_reference(command):
    """argv of a small run of command, with its table's header and rows and
    its JSON document (None for records keyed by header), as Python values
    from the library calls the command makes."""
    if command == "lebesgue":
        grid = interp.EvalGrid(m=40, kind="chebyshev")
        rows = [(n, len(points.generate(n)), grid.m, grid.kind,
                 interp.lebesgue_constant(points.generate(n), grid)) for n in (3, 8)]
        argv = ["lebesgue", "--degrees", "3,8", "--grid", "40", "--grid-kind", "chebyshev"]
        return argv, ("n", "cardinality", "grid_m", "grid_kind", "lebesgue"), rows, None
    if command == "converge":
        report = analysis.convergence_study(
            functions.get("franke"), "inf", [2, 5], interp.EvalGrid(m=30, kind="uniform")
        ).to_dict()
        header = ("function", "p", "n", "cardinality", "error_wp", "error_uniform",
                  "lebesgue_estimate", "en_proxy")
        rows = [tuple({**report, **r}[h] for h in header) for r in report["rows"]]
        argv = ["converge", "--function", "franke", "--p", "inf", "--degrees", "2,5",
                "--grid", "30"]
        return argv, header, rows, report
    if command == "marcinkiewicz":
        ratios = analysis.marcinkiewicz_trials(4, 3.5, 20, seed=9).tolist()
        rows = [(4, 3.5, 9, t, r) for t, r in enumerate(ratios)]
        document = {"degree": 4, "p": 3.5, "trials": 20, "seed": 9,
                    "min_ratio": min(ratios), "max_ratio": max(ratios), "ratios": ratios}
        argv = ["marcinkiewicz", "--degree", "4", "--p", "3.5", "--trials", "20",
                "--seed", "9"]
        return argv, ("degree", "p", "seed", "trial", "ratio"), rows, document
    report = verify.run_verification(6, 3)
    header = ("check", "degree", "observed", "tolerance", "passed")
    rows = [tuple(c[h] for h in header) for c in report["checks"]]
    return ["verify", "--max-degree", "6", "--seed", "3"], header, rows, report


@pytest.mark.parametrize("command", ["lebesgue", "converge", "marcinkiewicz", "verify"])
def test_command_tables_match_cell_reference(tmp_path, command):
    argv, header, rows, document = _command_reference(command)
    path = tmp_path / "table"
    for fmt in ("csv", "json"):
        for precision in (5, 17):
            code = cli.main([*argv, "--format", fmt, "--precision", str(precision),
                             "--output", str(path)])
            assert code == 0
            if fmt == "csv":
                expected = csv_table(header, rows, precision)
            elif document is None:
                expected = json_table(header, rows, precision)
            else:
                expected = json_document(document, precision)
            assert path.read_text() == expected


def test_write_table_json_memory_at_degree_1024():
    # the same table as JSON records with no document: written one block at
    # a time, it peaks at 1.6 MiB, not at the size of its text (64 MB)
    columns = _node_columns(points.generate(1024))
    spec = output.OutputSpec("json", os.devnull, 17)
    assert _traced_peak(spec.write_table, ("k", "j", "x1", "x2", "class"), columns) < 3 * 2**20


@pytest.mark.parametrize("command", ["points", "cubature"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_node_table_memory_at_degree_2048(command, fmt):
    # 2,100,225 nodes, generated and written per lattice axis: points peaks
    # at 1.4 MiB (row templates and pieces of text), cubature at 3.9-4.6 MiB,
    # most of it build_rule's 50-node cross-check; one per-node float array
    # would take 17 MB
    tracemalloc.start()
    try:
        code = cli.main([command, "--degree", "2048", "--format", fmt,
                         "--output", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2**20
