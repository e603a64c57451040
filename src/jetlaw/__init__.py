"""Exact symbolic derivation and verification of conservation laws for
scalar PDEs in two independent variables, with numerical cross-checks."""

from .expr import JetExpression, ExprError, U, UT, UX
from .parser import parse_expression, render, ParseError
from .pde import PdeSpec, parse_pde
from .calculus import (
    adjoint_linearization,
    euler_operator,
    ibp_normal_form,
    invert_total_x_derivative,
    restricted_euler,
    solution_total_derivative,
)
from .detsys import DeterminingSystem, determining_expression, split_determining_system
from .linsolve import (
    AnsatzBounds,
    AnsatzSpace,
    assemble,
    generate_ansatz_basis,
    nullspace,
    solve_multipliers,
)
from .laws import (
    ConservationLaw,
    build_law,
    flux_density,
    homotopy_density,
    multiplier_from_density,
    normalize_density,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "JetExpression", "ExprError", "ParseError", "U", "UT", "UX",
    "parse_expression", "render",
    "PdeSpec", "parse_pde", "adjoint_linearization",
    "solution_total_derivative", "euler_operator",
    "restricted_euler", "invert_total_x_derivative", "ibp_normal_form",
    "DeterminingSystem", "determining_expression", "split_determining_system",
    "AnsatzBounds", "AnsatzSpace", "generate_ansatz_basis", "assemble",
    "nullspace", "solve_multipliers",
    "ConservationLaw", "homotopy_density", "flux_density", "normalize_density",
    "multiplier_from_density", "build_law", "verify",
    "__version__",
]
