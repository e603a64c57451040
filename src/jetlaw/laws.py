"""Conserved densities from multipliers: homotopy reconstruction, flux
recovery, trivial-part normalization, and full symbolic verification.

One construction serves the three PDE shapes.  With P = G * Lam, v = u - utilde
and the path u_lam = utilde + lam * v,

  Phi^t = sum over jets J = (a, b) of P with a >= 1, and over i < a, of
          int_0^1 [(-D_t)^i dP/du_J][u_lam] dlam * D_t^(a-1-i) D_x^b v,

restricted to solutions.  Then D_t Phi^t + D_x Phi^x = -P[utilde] on
solutions for some Phi^x, and P[utilde] depends on t and x alone, so the flux
inversion absorbs it.  The lam-integral needs P polynomial along the path
(kernel atoms of u are rejected there).  On u_tt, when it meets one, the
reduced two-point formula for first-order multipliers and wave-speed
right-hand sides takes over; it has no such restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .expr import ExprError, JetExpression, U, UT, UX, _binomial, _coerce, is_kernel_atom
from .parser import render
from .pde import PdeSpec, iterated_total
from .calculus import (
    NotXDerivative,
    eliminate_off_chart,
    ibp_normal_form,
    invert_total_x_derivative,
    restricted_euler,
    solution_total_derivative,
)
from .detsys import ArityError, check_admissible, determining_expression
from .linsolve import admissible_jets


class HomotopyError(ExprError):
    pass


@dataclass(frozen=True)
class ConservationLaw:
    pde: PdeSpec
    multiplier: JetExpression
    density_t: JetExpression
    density_x: JetExpression
    utilde: JetExpression
    verified: bool = False

    def to_record(self) -> dict:
        return {
            "pde": str(self.pde),
            "lambda": render(self.multiplier),
            "phi_t": render(self.density_t),
            "phi_x": render(self.density_x),
            "utilde": render(self.utilde),
            "verified": self.verified,
        }


def _homotopy_integral(e: JetExpression, subs: dict) -> JetExpression:
    """int_0^1 e[k -> a_k + lam*b_k] dlam over each coordinate k in subs,
    with subs[k] = (a_k, b_k).  Each term keeps its nonzero lam-coefficients by
    degree, convolved with each coordinate's binomial terms (`expr._binomial`),
    degrees outer; the coefficient of lam^d is divided by d + 1."""
    for _mono, atoms in e.terms:
        for a, _p in atoms:
            if is_kernel_atom(a) and a[1] != 0:
                raise HomotopyError(
                    "non-polynomial dependence on the homotopy parameter "
                    "(kernel atom %s in G*Lam)" % render(JetExpression.atom(a)))
            if a[0] == "lam":
                raise HomotopyError("formal atom in a concrete multiplier")
    zero = out = JetExpression.zero()
    for (mono, atoms), c in e.terms.items():
        coeffs = {0: JetExpression({(tuple(f for f in mono if f[0] not in subs), atoms): c})}
        for k, p in mono:
            if k in subs:
                expanded, binomial = {}, _binomial(p, *subs[k])
                for d, q in coeffs.items():
                    for j, w in binomial:
                        expanded[d + j] = expanded.get(d + j, zero) + q * w
                coeffs = expanded
        for d, q in coeffs.items():
            out = out + q * Fraction(1, d + 1)
    return out


def homotopy_density(pde: PdeSpec, lam: JetExpression,
                     utilde=None) -> JetExpression:
    """Reconstruct Phi^t from a multiplier via the characteristic form."""
    check_admissible(pde, lam.jets())
    ref = _coerce(0 if utilde is None else utilde)
    if ref.jets():
        raise HomotopyError("reference state must not involve jet coordinates")
    g, v = pde.gee(), JetExpression.coordinate(U) - ref
    density = JetExpression.zero()
    try:
        for a, b in sorted(k for k in g.jets() | lam.jets() if k[0]):
            dp = g.partial((a, b)) * lam + g * lam.partial((a, b))
            for i in range(a):
                subs = {k: (iterated_total(ref, *k), iterated_total(v, *k))
                        for k in dp.jets()}
                density = density + _homotopy_integral(dp, subs) \
                    * iterated_total(v, a - 1 - i, b)
                dp = -dp.total("t")
    except HomotopyError:
        if pde.leading != (2, 0):
            raise
        return _wave_two_point_density(pde, lam, ref)
    return eliminate_off_chart(pde, density)


def _wave_two_point_density(pde: PdeSpec, lam: JetExpression,
                            ref: JetExpression) -> JetExpression:
    """Reduced two-point construction for first-order u_tt multipliers, the
    fallback when the characteristic form meets a kernel atom of u."""
    if not lam.jets() <= set(admissible_jets(pde, 1)):
        raise HomotopyError("u_tt homotopy supports first-order multipliers")
    csq = pde.rhs.partial((0, 2))
    if not (pde.rhs - csq * JetExpression.coordinate((0, 2))
            - csq.partial(U) * JetExpression.coordinate(UX) ** 2 * Fraction(1, 2)).is_zero():
        raise HomotopyError("u_tt homotopy expects wave-speed structure "
                            "rhs = c^2 u_xx + c c' u_x^2")
    u = JetExpression.coordinate(U)
    ut = JetExpression.coordinate(UT)
    ux = JetExpression.coordinate(UX)
    def at_ref(e):
        """e on the reference state: each jet k, highest first, by D^k ref."""
        for k in sorted(e.jets(), reverse=True):
            e = e.substitute(k, iterated_total(ref, *k))
        return e
    lam_u = lam.partial(U)
    lam_t = lam.partial("t")
    lam_ut = lam.partial(UT)
    lam_ux = lam.partial(UX)
    half = Fraction(1, 2)
    first = ut * (lam + at_ref(lam) + ((u - ref) * at_ref(lam_ux)).total("x")) * half
    second = (ref - u) * (lam_t + at_ref(lam_t) + ut * at_ref(lam_u)) * half
    third = ux ** 2 * csq * at_ref(lam_ut) * half
    return first + second + third


def flux_density(pde: PdeSpec, density_t: JetExpression) -> JetExpression:
    """Phi^x with D_t Phi^t + D_x Phi^x == 0 on solutions."""
    rate = solution_total_derivative(pde, density_t)
    return invert_total_x_derivative(-rate)


def multiplier_from_density(pde: PdeSpec, density_t: JetExpression) -> JetExpression:
    """The restricted Euler operator of Phi^t in the jet whose D_t is the
    leading derivative: u, u_t or u_x."""
    a, b = pde.leading
    return restricted_euler(density_t, (a - 1, b))


def build_law(pde: PdeSpec, lam: JetExpression, utilde=None) -> ConservationLaw:
    """Construct, normalize and verify the conservation law of a multiplier."""
    ref = _coerce(0 if utilde is None else utilde)
    cl = normalize_density(ConservationLaw(
        pde=pde, multiplier=lam, density_t=homotopy_density(pde, lam, ref),
        density_x=None, utilde=ref))
    return replace(cl, verified=verify(cl))


def normalize_density(cl: ConservationLaw) -> ConservationLaw:
    """Replace Phi^t by its canonical representative modulo D_x images.

    Discarding an exact part can change the multiplier recovered through the
    restricted Euler operator (on the u_tx chart D_x theta may pair with a
    flux that leaves the pure-x coordinates); in that case the density is
    kept as constructed.  A law without a flux (density_x None) gets the flux
    of the density kept, so a flux is inverted once per law.
    """
    core, _theta = ibp_normal_form(cl.density_t)
    if core != cl.density_t and multiplier_from_density(cl.pde, core) \
            == multiplier_from_density(cl.pde, cl.density_t):
        try:
            flux = flux_density(cl.pde, core)
        except NotXDerivative:
            pass
        else:
            return replace(cl, density_t=core, density_x=flux)
    if cl.density_x is None:
        return replace(cl, density_x=flux_density(cl.pde, cl.density_t))
    return cl


def verify(cl: ConservationLaw) -> bool:
    """Multiplier condition, exact divergence identity, and multiplier
    recovery from the density (modulo trivial densities)."""
    try:
        if not determining_expression(cl.pde, cl.multiplier).is_zero():
            return False
        residual = solution_total_derivative(cl.pde, cl.density_t) \
            + cl.density_x.total("x")
        if not residual.is_zero():
            return False
        recovered = multiplier_from_density(cl.pde, cl.density_t)
        delta = recovered - cl.multiplier
        if delta.is_zero():
            return True
        if not determining_expression(cl.pde, delta).is_zero():
            return False
        core, _ = ibp_normal_form(homotopy_density(cl.pde, delta, cl.utilde))
        return core.is_zero()
    except (ArityError, HomotopyError):
        return False
