"""Multiplier determining condition and its split into a determining system.

The condition for a multiplier is that E_u(G * Lam) vanish identically off
the solution space.  For a concrete expression this is evaluated directly.

For an unknown multiplier of declared arity, Lam is an opaque
derivative-indexed atom and G enters as the gee atom G_00, whose total
derivatives stay formal.  The condition is built by the product rule,
E_u(Lam * G) = sum_v (-D)^v (dLam/dv * G + dG/dv * Lam) = D_Lam*(G) + D_G*(Lam),
over the jets of Lam's arity and of G (Anco and Bluman, Eur. J. Appl. Math.
13, 2002).  The off-chart coordinates it produces are then rewritten through
the PDE, with gee atoms marking the total derivatives of G.  Chart
coordinates and gee atoms form a coordinate system on the jet space, so the
result is the normal form of E_u(G * Lam) expanded over the whole jet space.
The coefficients of the distinct gee monomials become the extra determining
equations; the gee-free remainder is the adjoint-symmetry equation
D_G*(Lam) = 0 on solutions (the symmetry equation for the self-adjoint
shapes).

Setting every gee atom to zero commutes with the elimination, and every term
of the D_Lam*(G) half carries a gee atom.  So with_gee=False builds only the
gee-free equation, from the D_G*(Lam) half eliminated on solutions: the same
expression as the full split's first equation, at a fraction of its cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import (ExprError, JetExpression, gee_atom, is_jet, is_indep, lam_atom,
                   sig_sort_key)
from .pde import PdeSpec, on_chart
from .calculus import adjoint_linearization, eliminate_off_chart, euler_operator, euler_sum


class ArityError(ExprError):
    pass


class SplitError(ExprError):
    """The split produced determining equations its PDE shape rules out."""


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
    """Split determining equations; every equation must vanish identically.

    equations[0] is the adjoint-symmetry (or symmetry) equation; the rest are
    the extra equations, one per gee monomial, carried with their gee keys.
    Built with with_gee=False, the system holds equations[0] alone and its
    gee_keys are ((),).
    """

    pde: PdeSpec
    equations: tuple
    gee_keys: tuple


def split_determining_system(pde: PdeSpec, arity, with_gee: bool = True) -> DeterminingSystem:
    """Group the eliminated condition by gee monomial; each equation's terms
    come in canonical order.  With with_gee=False only the gee-free equation
    D_G*(Lam) = 0 on solutions is built, and gee_keys is ((),)."""
    arity = validate_arity(pde, arity)
    q = eliminate_off_chart(pde, _product_rule_condition(pde, arity, with_gee), with_gee)
    groups: dict = {(): []}
    for (mono, atoms), c in q.terms.items():
        gees = tuple(sorted((a, p) for a, p in atoms if a[0] == "gee"))
        rest = tuple(ap for ap in atoms if ap[0][0] != "gee")
        groups.setdefault(gees, []).append(((mono, rest), c))
    gee_keys = tuple(sorted(groups, key=lambda g: (len(g), g)))
    if pde.leading == (2, 0) and all(
        is_indep(k) or (k[0] + k[1] <= 1) for k in arity
    ):
        _check_first_order_wave_split(gee_keys)
    equations = tuple(
        JetExpression(dict(sorted(groups[key], key=lambda t: sig_sort_key(t[0]))))
        for key in gee_keys)
    return DeterminingSystem(pde=pde, equations=equations, gee_keys=gee_keys)


def _product_rule_condition(pde: PdeSpec, arity, with_gee: bool) -> JetExpression:
    """E_u(Lam * G) as sum_v (-D)^v (dLam/dv * G + dG/dv * Lam), with G the
    formal atom G_00, over the jets of Lam's arity and of G.  Without gee,
    only the half D_G*(Lam) = sum_v (-D)^v (dG/dv * Lam) over G's jets."""
    lam = JetExpression.atom(lam_atom(arity))
    if not with_gee:
        return adjoint_linearization(pde, lam)
    g = pde.gee()
    g00 = JetExpression.atom(gee_atom(0, 0))
    jets = g.jets().union(k for k in arity if is_jet(k))
    return euler_sum({v: lam.partial(v) * g00 + g.partial(v) * lam for v in jets})


def _check_first_order_wave_split(gee_keys) -> None:
    """For first-order arity on the u_tt shape, only the plain-G coefficient
    may survive besides the symmetry equation."""
    allowed = {(), ((("gee", 0, 0), 1),)}
    extra = [k for k in gee_keys if k not in allowed]
    if extra:
        raise SplitError(
            "unexpected split coefficients for first-order wave arity: %r" % extra)
