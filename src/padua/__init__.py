"""Bivariate Lagrange interpolation and cubature at the Padua points."""

from .analysis import (
    ConvergenceReport,
    ConvergenceRow,
    convergence_study,
    fourier_coefficients,
    fourier_partial_sum,
    lp_norm,
    marcinkiewicz_ratios,
    marcinkiewicz_trials,
)
from .cheb import (
    MAX_DEGREE,
    DegreeError,
    DomainError,
    basis_vector,
    cheb_t,
    cheb_t_norm,
    cheb_u,
)
from .cubature import CubatureRule, build_rule, integrate
from .functions import BUILTIN_FUNCTIONS, TestFunction
from .ideal import (
    StructMatrices,
    cd_residual,
    mp_poly,
    q_poly,
    q_rows,
    struct_matrices,
    three_term_residual,
)
from .interp import (
    EvalGrid,
    fundamental_poly,
    interpolate,
    interpolate_grid,
    lagrange_matrix,
    lebesgue_constant,
    lebesgue_function,
    sample,
    to_coefficients,
)
from .kernel import (
    d_term,
    kernel_compact,
    kernel_direct,
    kernel_star,
)
from .points import (
    AmbiguousMatchError,
    PaduaSet,
    PointClass,
    find_index,
    generate,
    generating_curve_points,
)
from .verify import run_verification

__version__ = "0.1.0"
