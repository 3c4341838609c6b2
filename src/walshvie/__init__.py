"""Walsh-basis collocation for nonlinear stochastic Volterra integral equations.

Solves the Ito equation

    x(t) = x0 + int_0^t k1(s,t) beta(x(s)) ds
            + int_0^t k2(s,t) sigma(x(s)) dB(s)   on [0, 1)

by projecting onto m = 2^k Walsh functions, replacing both integrals
with operational matrices, and collocating at the block midpoints,
which collapses the discrete system to m scalar fixed-point equations.

Quick start::

    from walshvie import builtin_example, sample_path, solve

    problem = builtin_example(1)
    path = sample_path(16, seed=7)  # m comes from the path from here on
    result = solve(problem, path)
    print(result.x_colloc)
"""

from .brownian import sample_path
from .experiment import (
    REPORT_TIMES,
    coefficient_error_norm,
    convergence_study,
    error_at,
    monte_carlo,
)
from .expressions import ExpressionError, compile_expression
from .operational import integration_matrix, stochastic_matrix, walsh_domain
from .oracle import euler_maruyama
from .problemfile import parse_problem_file, problem_from_text
from .solver import (
    NonConvergenceError,
    NonFiniteIterateError,
    ProblemSpec,
    SolveResult,
    builtin_example,
    problem_from_sources,
    solve,
)
from .walsh import build_walsh_matrix, fast_walsh_transform, project_kernel

__version__ = "0.1.0"

__all__ = [
    "ExpressionError",
    "NonConvergenceError",
    "NonFiniteIterateError",
    "ProblemSpec",
    "REPORT_TIMES",
    "SolveResult",
    "build_walsh_matrix",
    "builtin_example",
    "coefficient_error_norm",
    "compile_expression",
    "convergence_study",
    "error_at",
    "fast_walsh_transform",
    "euler_maruyama",
    "integration_matrix",
    "monte_carlo",
    "parse_problem_file",
    "problem_from_sources",
    "problem_from_text",
    "project_kernel",
    "sample_path",
    "solve",
    "stochastic_matrix",
    "walsh_domain",
]
