"""Multiplier determining condition and its split into a determining system.

The condition for a multiplier is that E_u(G * Lam) vanish identically off
the solution space.  For a concrete expression this is evaluated directly.
For an unknown multiplier of declared arity, Lam is carried as an opaque
derivative-indexed atom, the off-chart coordinates are rewritten through the
PDE with gee atoms marking total derivatives of G, and the coefficients of
the distinct gee monomials become the extra determining equations; the
gee-free remainder is the adjoint-symmetry equation (symmetry equation for
the self-adjoint shapes).
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import ExprError, JetExpression, is_jet, is_indep, lam_atom
from .pde import PdeSpec, on_chart
from .calculus import eliminate_off_chart, euler_operator


class ArityError(ExprError):
    pass


class SplitError(ExprError):
    """The split produced determining equations its PDE shape rules out."""


def validate_arity(pde: PdeSpec, arity) -> tuple:
    seen = []
    for k in arity:
        if is_indep(k):
            if k not in seen:
                seen.append(k)
            continue
        if not is_jet(k) or not on_chart(pde.leading, k):
            raise ArityError("inadmissible multiplier dependence on %r" % (k,))
        if k not in seen:
            seen.append(k)
    return tuple(seen)


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
    """

    pde: PdeSpec
    unknown_arity: tuple
    equations: tuple
    gee_keys: tuple

    def __len__(self):
        return len(self.equations)


def split_determining_system(pde: PdeSpec, arity) -> DeterminingSystem:
    arity = validate_arity(pde, arity)
    lam = JetExpression.atom(lam_atom(arity))
    q = euler_operator(pde.gee() * lam)
    q = eliminate_off_chart(pde, q, with_gee=True)
    groups: dict = {}
    for (mono, atoms), c in q.terms.items():
        gees = tuple(sorted((a, p) for a, p in atoms if a[0] == "gee"))
        rest = tuple(ap for ap in atoms if ap[0][0] != "gee")
        groups.setdefault(gees, {})[(mono, rest)] = c
    groups.setdefault((), {})
    gee_keys = tuple(sorted(groups, key=lambda g: (len(g), g)))
    if pde.leading == (2, 0) and all(
        is_indep(k) or (k[0] + k[1] <= 1) for k in arity
    ):
        _check_first_order_wave_split(gee_keys)
    equations = tuple(JetExpression(groups[key]) for key in gee_keys)
    return DeterminingSystem(pde=pde, unknown_arity=arity,
                             equations=equations, gee_keys=gee_keys)


def _check_first_order_wave_split(gee_keys) -> None:
    """For first-order arity on the u_tt shape, only the plain-G coefficient
    may survive besides the symmetry equation."""
    allowed = {(), ((("gee", 0, 0), 1),)}
    extra = [k for k in gee_keys if k not in allowed]
    if extra:
        raise SplitError(
            "unexpected split coefficients for first-order wave arity: %r" % extra)
