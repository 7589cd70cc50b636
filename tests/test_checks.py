"""The oracle comparisons of the CI checks (checks/*.py) catch a wrong output.

Each comparison gets padua's own output at a small size, which must pass,
and the same output with one value moved past the check's bound, which
must fail.
"""

import types

import numpy as np
import pytest

import lagrange_basis
import lebesgue_constants
import marcinkiewicz_ratios
import node_arrays
from padua import EvalGrid, generate, lebesgue_constant
from padua.analysis import marcinkiewicz_trials
from padua.interp import lagrange_matrix

NODE_ARRAYS = ("k_num", "j_num", "eta_num", "class_codes", "x1", "x2")


# integers off by one; coordinates 2e-15 off, twice the bound of 1e-15
@pytest.mark.parametrize("name, shift", [("k_num", 1), ("j_num", 1), ("eta_num", 1),
                                         ("class_codes", 1), ("x1", 2e-15), ("x2", 2e-15)])
def test_node_arrays_check_catches_a_moved_value(name, shift):
    n = 6
    pset = generate(n)
    arrays = {a: getattr(pset, a).copy() for a in NODE_ARRAYS}
    assert node_arrays.compare(n, types.SimpleNamespace(**arrays))
    arrays[name][5] += shift  # node 5 is (cos(pi/6), cos(2pi/7)), away from +-1
    assert not node_arrays.compare(n, types.SimpleNamespace(**arrays))


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
