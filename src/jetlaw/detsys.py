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
equation: D_G*(Lam) with its off-chart coordinates rewritten through the PDE,
its terms in canonical order.  `linsolve.solve_multipliers` takes the second
step on the span of its solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import ExprError, JetExpression, is_jet, is_indep, lam_atom, sig_sort_key
from .pde import PdeSpec, on_chart
from .calculus import adjoint_linearization, eliminate_off_chart, euler_operator


class ArityError(ExprError):
    pass


def validate_arity(pde: PdeSpec, arity) -> tuple:
    for k in arity:
        if not is_indep(k) and not (is_jet(k) and on_chart(pde.leading, k)):
            raise ArityError("inadmissible multiplier dependence on %r" % (k,))
    return tuple(dict.fromkeys(arity))


def check_admissible(pde: PdeSpec, lam: JetExpression) -> None:
    for k in lam.jets():
        if not on_chart(pde.leading, k):
            raise ArityError(
                "multiplier depends on %r, excluded for this PDE shape" % (k,))


def determining_expression(pde: PdeSpec, lam: JetExpression) -> JetExpression:
    """E_u(G * lam), fully expanded off the solution space."""
    check_admissible(pde, lam)
    return euler_operator(pde.gee() * lam)


@dataclass(frozen=True)
class DeterminingSystem:
    """Determining equations; every equation must vanish identically.  As
    built by split_determining_system, equations is the 1-tuple of the
    adjoint-symmetry (or symmetry) equation."""

    pde: PdeSpec
    equations: tuple


def split_determining_system(pde: PdeSpec, arity) -> DeterminingSystem:
    """The adjoint-symmetry equation D_G*(Lam) = 0 on solutions, for Lam of
    the given arity, with its terms in canonical order."""
    arity = validate_arity(pde, arity)
    q = eliminate_off_chart(pde, adjoint_linearization(pde, JetExpression.atom(lam_atom(arity))))
    equation = JetExpression(dict(sorted(q.terms.items(), key=lambda t: sig_sort_key(t[0]))))
    return DeterminingSystem(pde=pde, equations=(equation,))
