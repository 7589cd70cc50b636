"""The oracle comparisons of the CI checks (checks/*.py) catch a wrong output.

Each comparison gets padua's own output at a small size, which must pass,
and the same output with one value moved past the check's bound, which
must fail.
"""

import numpy as np
import pytest

import code_lines
import lagrange_basis
import lebesgue_constants
import marcinkiewicz_ratios
import node_arrays
import node_values
from padua import EvalGrid, cli, generate, kernel, lebesgue_constant
from padua.analysis import marcinkiewicz_trials
from padua.interp import lagrange_matrix


# integers off by one, coordinates 2e-15 off (twice the bound of 1e-15), and
# the interior node called an edge node
@pytest.mark.parametrize("column, move", [("k", 1), ("j", 1), ("x1", 2e-15), ("x2", 2e-15),
                                          ("class", "edge")])
def test_node_arrays_check_catches_a_moved_value(tmp_path, column, move):
    n = 6
    assert cli.main(["points", "--degree", str(n), "--output", str(tmp_path / "p.csv")]) == 0
    lines = (tmp_path / "p.csv").read_text().splitlines(keepends=True)
    assert node_arrays.compare(n, lines)
    # line 6 is node 5, (cos(pi/6), cos(2pi/7)), away from +-1
    cells = lines[6].rstrip("\n").split(",")
    i = node_arrays.HEADER.split(",").index(column)
    cells[i] = move if isinstance(move, str) else repr(float(cells[i]) + move)
    lines[6] = ",".join(cells) + "\n"
    assert not node_arrays.compare(n, lines)


def test_lebesgue_constants_check_catches_a_moved_value():
    rows = [(kind, n, 41, lebesgue_constant(generate(n), EvalGrid(41, kind)))
            for kind in ("uniform", "chebyshev") for n in (3, 8)]
    assert lebesgue_constants.compare(rows, 4)
    assert not lebesgue_constants.compare(rows[:3], 4)
    kind, n, m, value = rows[3]
    # a relative change of 2e-12, twice the bound of 1e-12
    assert not lebesgue_constants.compare(rows[:3] + [(kind, n, m, value * (1 + 2e-12))], 4)


def test_lagrange_basis_check_catches_a_moved_value():
    x = lagrange_basis.POINTS[::25]
    matrices = {n: lagrange_matrix(generate(n), *x.T) for n in (5, 6)}
    assert lagrange_basis.compare(x, matrices)
    matrices[6][3, 7] += 2e-12  # twice the bound of 1e-12
    assert not lagrange_basis.compare(x, matrices)


def test_marcinkiewicz_check_catches_a_moved_value():
    n, trials, seed = 8, 2, 1
    ratios = {p: marcinkiewicz_trials(n, p, trials, seed=seed) for p in (2, 4)}
    assert marcinkiewicz_ratios.compare(ratios, n, trials, seed)
    ratios[4][1] *= 1 + 2e-12  # a relative change twice the bound of 1e-12
    assert not marcinkiewicz_ratios.compare(ratios, n, trials, seed)


def test_node_values_check_catches_a_moved_value():
    pset = generate(9)
    values = kernel.node_star_values(pset)
    assert node_values.compare(pset, values)
    values[7] += 2 * kernel.node_star_tolerance(9)  # twice the bound
    assert not node_values.compare(pset, values)


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path):
    source = '''"""Module docstring,
over two lines."""

import os  # a comment


class A:
    """Class docstring."""

    x = (1,
         2)

    def f(self):
        """Function docstring."""
        # a comment line
        return """not a docstring"""
'''
    # import, class, x over two lines, def and return
    assert code_lines.code_lines(source) == 6
    (tmp_path / "a.py").write_text(source)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main(tmp_path) == 7
