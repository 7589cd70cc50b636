"""The names padua exports, pinned: a change to the public surface is a
change to this set."""

import types

import padua

SURFACE = {
    # node sets, Padua2DM's points
    "AmbiguousMatchError", "MAX_DEGREE", "PaduaSet", "PointClass", "find_index", "generate",
    "generating_curve_points",
    # interpolation: sampling, coefficients, evaluation, Lagrange and Lebesgue values
    "EvalGrid", "fundamental_poly", "interpolate", "interpolate_grid", "lagrange_matrix",
    "lebesgue_constant", "lebesgue_function", "sample", "to_coefficients",
    # cubature
    "CubatureRule", "build_rule", "integrate",
    # the kernel and the ideal basis
    "d_term", "kernel_compact", "kernel_direct", "kernel_star", "StructMatrices", "cd_residual",
    "mp_poly", "q_poly", "q_rows", "struct_matrices", "three_term_residual",
    # Chebyshev evaluation and its errors
    "DegreeError", "DomainError", "basis_vector", "cheb_t", "cheb_t_norm", "cheb_u",
    # norms, Fourier sums, Marcinkiewicz ratios and convergence studies
    "ConvergenceReport", "ConvergenceRow", "convergence_study", "fourier_coefficients",
    "fourier_partial_sum", "lp_norm", "marcinkiewicz_ratios", "marcinkiewicz_trials",
    # test functions and the verify report
    "BUILTIN_FUNCTIONS", "TestFunction", "run_verification",
}


def test_public_names_are_the_pinned_surface():
    public = {name for name, value in vars(padua).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == SURFACE
    assert padua.lagrange_matrix is padua.interp.lagrange_matrix
