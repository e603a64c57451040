"""Multiplier determining condition and the adjoint-symmetry equation.

The condition for a multiplier is that E_u(G * Lam) vanish identically off
the solution space.  For a concrete expression this is evaluated directly.

For an unknown multiplier of declared arity, Lam is an opaque
derivative-indexed atom.  By the product rule,
E_u(Lam * G) = sum_v (-D)^v (dLam/dv * G + dG/dv * Lam) = D_Lam*(G) + D_G*(Lam),
and every term of the D_Lam*(G) half vanishes on solutions.  Multipliers are
found in two steps (Anco and Bluman, Eur. J. Appl. Math. 13, 2002, Part II):
first the adjoint symmetries, D_G*(Lam) = 0 on solutions (the symmetry
equation for the self-adjoint shapes), and then those among them with
E_u(G * Lam) = 0.  The determining system built here is the first step's one
equation: D_G*(Lam) taken on solutions by the on-solution total derivative,
its terms unsorted.  `linsolve.solve_multipliers` takes the second step on
the span of its solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import ExprError, JetExpression, coord_name, is_jet, is_indep, lam_atom
from .pde import ChartForms, PdeSpec
from .calculus import adjoint_linearization, euler_operator


class ArityError(ExprError):
    pass


def check_admissible(pde: PdeSpec, coordinates) -> None:
    """Raise ArityError unless a multiplier may read each coordinate: t, x
    and, by the multiplier-jet rule of linsolve.admissible_jets, the jets of
    t-order below the leading derivative's."""
    for k in coordinates:
        if not (is_indep(k) or is_jet(k) and k[0] < pde.leading[0]):
            raise ArityError("multiplier depends on %s, excluded for leading %s" % (
                coord_name(k) if is_jet(k) else repr(k), coord_name(pde.leading)))


def determining_expression(pde: PdeSpec, lam: JetExpression) -> JetExpression:
    """E_u(G * lam), fully expanded off the solution space."""
    check_admissible(pde, lam.jets())
    return euler_operator(pde.gee() * lam)


@dataclass(frozen=True)
class DeterminingSystem:
    """Determining equations; every equation must vanish identically.  As
    built by split_determining_system, equations is the 1-tuple of the
    adjoint-symmetry (or symmetry) equation."""

    equations: tuple


def split_determining_system(pde: PdeSpec, arity) -> DeterminingSystem:
    """The adjoint-symmetry equation D_G*(Lam) = 0, taken on solutions by the
    on-solution D^ in `euler_sum`, for Lam of the given arity, unsorted."""
    check_admissible(pde, arity)
    arity = tuple(dict.fromkeys(arity))
    equation = adjoint_linearization(pde, JetExpression.atom(lam_atom(arity)), ChartForms(pde))
    return DeterminingSystem(equations=(equation,))
