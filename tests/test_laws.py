"""Homotopy densities, fluxes, normalization, and verification."""

import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from jetlaw import laws
from jetlaw.expr import (MAX_BINOMIAL_TERMS, ExpansionError, ExprError, JetExpression, coord_name,
                         exp_atom)
from jetlaw.linsolve import AnsatzBounds, multiplier_arity, solve_multipliers
from jetlaw.parser import parse_expression as P, render
from jetlaw.pde import PdeSpec, iterated_total, parse_pde
from jetlaw.calculus import (AntiderivativeOutsideClass, NotXDerivative, ibp_normal_form,
                             solution_total_derivative)
from jetlaw.detsys import ArityError, determining_expression, split_determining_system
from jetlaw.laws import (
    ConservationLaw,
    HomotopyError,
    build_law,
    flux_density,
    homotopy_density,
    multiplier_from_density,
    normalize_density,
    verify,
)

from conftest import densities_match, random_expression, random_rhs
from oracle_jet import law_problems

KDV = "u_t + u^n*u_x + u_xxx = 0"
WAVE = "u_tt = pow(u,-4)*u_xx - 2*pow(u,-5)*u_x^2"


def test_kdv_homotopy_paper_densities():
    kdv = parse_pde(KDV, {"n": 1})
    assert homotopy_density(kdv, P("1")) == P("u")
    assert homotopy_density(kdv, P("u")) == P("u^2/2")
    d = homotopy_density(kdv, P("u_xx + u^2/2"))
    assert densities_match(d, P("-u_x^2/2 + u^3/6"))


def test_kdv_energy_density_general_n():
    for n in (1, 2, 3):
        kdv = parse_pde(KDV, {"n": n})
        lam = P("u_xx + u^%d/%d" % (n + 1, n + 1))
        d = homotopy_density(kdv, lam)
        expect = P("-u_x^2/2 + u^%d/%d" % (n + 2, (n + 1) * (n + 2)))
        assert densities_match(d, expect)


def test_sine_gordon_second_order_density():
    sg = parse_pde("u_tx = sin(u)")
    d = homotopy_density(sg, P("u_xxx + u_x^3/2"))
    assert d == P("u_x*u_xxx/2 + u_x^4/8")
    core, _ = ibp_normal_form(d)
    assert core == P("-u_xx^2/2 + u_x^4/8")


def test_sinh_gordon_second_order_density():
    shg = parse_pde("u_tx = exp(u) + exp(-u)")
    d = homotopy_density(shg, P("u_xxx - u_x^3/2"))
    assert densities_match(d, P("-u_xx^2/2 - u_x^4/8"))


def test_wave_energy_and_momentum():
    wave = parse_pde(WAVE)
    energy = build_law(wave, P("u_t"))
    assert energy.density_t == P("u_t^2/2 + pow(u,-4)*u_x^2/2")
    assert energy.density_x == P("-pow(u,-4)*u_x*u_t")
    momentum = build_law(wave, P("u_x"))
    assert momentum.density_t == P("u_x*u_t")
    assert momentum.density_x == P("-u_t^2/2 - pow(u,-4)*u_x^2/2")


def test_wave_conformal_densities_match_construction():
    wave = parse_pde(WAVE)
    d = homotopy_density(wave, P("t^2*u_t - t*u"))
    assert d == P("t^2*u_t^2/2 - t*u*u_t + u^2/2 + t^2*pow(u,-4)*u_x^2/2")
    d = homotopy_density(wave, P("x^2*u_x + x*u"))
    assert d == P("x^2*u_x*u_t/2 - x^2*u*u_tx/2")
    # the two-point formula's density, which differs by D_x(x^2*u*u_t/2)
    assert densities_match(d, P("x^2*u_x*u_t + x*u*u_t"))
    d = homotopy_density(wave, P("t*u_t - x*u_x - u"))
    assert d == P("t*u_t^2/2 - x*u_x*u_t - u*u_t + t*pow(u,-4)*u_x^2/2")


def test_wave_reference_state_shift_still_verifies():
    wave = parse_pde(WAVE)
    cl = build_law(wave, P("t^2*u_t - t*u"), utilde=1)
    assert cl.verified


def test_no_reference_state_is_the_zero_state():
    wave = parse_pde(WAVE)
    lam = P("t^2*u_t - t*u")
    assert build_law(wave, lam, None) == build_law(wave, lam, 0)


# Laws at references that depend on t and x, frozen as rendered text: the
# homotopy density as constructed, then the normalized density.  The u_tt
# rows hold the density the two-point formula constructed, with the K
# correction t * int_0^1 K(lam t, lam x) dlam for K = G[x^2]*Lam[x^2]: -2*t*x
# for u_x and -4/3*t*x^2 for the conformal multiplier.  The characteristic
# form's density (CHARACTERISTIC_U_TT) differs from it by a D_x image: it
# carries trivial terms such as D_x(x^2*u_t/2) and D_x(-u*u_t/2), and the
# flux absorbs G[x^2]*Lam[x^2], which depends on t and x alone.
# Normalization drops the trivial terms.
NONCONSTANT_REFERENCE = [
    ("u_t + u*u_x + u_xxx = 0", "u_xx + u^2/2", "x",
     "-1/2*x*u_xx - 1/6*x^3 + 1/2*u*u_xx + 1/6*u^3", "1/6*u^3 - 1/2*u_x^2"),
    ("u_t + u*u_x + u_xxx = 0", "x - t*u", "t*x + 1",
     "1/2*t - t*x^2 - 1/2*t*u^2 + t^2*x + 1/2*t^3*x^2 - x + x*u", "-1/2*t*u^2 + x*u"),
    ("u_tx = sin(u)", "u_xxx + u_x^3/2", "x",
     "-1/8 + 1/2*u_x*u_xxx + 1/8*u_x^4 - 1/2*u_xxx", "1/8*u_x^4 - 1/2*u_xx^2"),
    ("u_tt = u_xx", "u_x", "x^2", "-2*t*x + u_x*u_t", "u_x*u_t"),
    ("u_tt = u_xx", "t*u_t + x*u_x", "x^2",
     "-4/3*t*x^2 + 1/2*t*u_x^2 + 1/2*t*u_t^2 + x*u_x*u_t",
     "1/2*t*u_x^2 + 1/2*t*u_t^2 + x*u_x*u_t"),
]

CHARACTERISTIC_U_TT = {
    "u_x": "x*u_t + 1/2*x^2*u_tx - 1/2*u*u_tx + 1/2*u_x*u_t",
    "t*u_t + x*u_x": "t*x^2 + 1/2*t*x^2*u_xx - t*u - 1/2*t*u*u_xx + 1/2*t*u_t^2"
                     " - 1/2*x*u*u_tx + 1/2*x*u_x*u_t + 3/2*x^2*u_t"
                     " + 1/2*x^3*u_tx - 1/2*u*u_t",
}


@pytest.mark.parametrize("text,lam,ref,constructed,normalized", NONCONSTANT_REFERENCE)
def test_nonconstant_reference_densities(text, lam, ref, constructed, normalized):
    equation = parse_pde(text)
    density = homotopy_density(equation, P(lam), P(ref))
    if equation.leading == (2, 0):
        assert densities_match(density, P(constructed))
        constructed = CHARACTERISTIC_U_TT[lam]
    assert render(density) == constructed
    cl = build_law(equation, P(lam), P(ref))
    assert render(cl.density_t) == normalized
    assert cl.verified


def test_liouville_arbitrary_function_instances():
    lv = parse_pde("u_tx = exp(u)")
    fx = build_law(lv, P("1 + x*u_x"))
    assert fx.verified
    assert fx.density_t == P("u_x + x*u_x^2/2")
    assert fx.density_x == P("-x*exp(u)")
    fxi = build_law(lv, P("u_xxx - u_x^3/2"))
    assert fxi.verified
    assert densities_match(fxi.density_t, P("-u_xx^2/2 - u_x^4/8"))


def test_flux_spec_cases():
    kdv = parse_pde(KDV, {"n": 2})
    assert flux_density(kdv, P("u")) == P("u^3/3 + u_xx")
    kg = parse_pde("u_tx = sin(u)")
    flux = flux_density(kg, P("-u_x^2/2"))
    # h(u) with h' = g, fixed up to an additive constant by the descent
    assert flux.total("x") == P("-cos(u)").total("x")


def test_flux_rejects_invalid_density():
    kdv = parse_pde(KDV, {"n": 1})
    with pytest.raises(NotXDerivative):
        flux_density(kdv, P("u^3"))


def test_normalize_density_spec_cases():
    sg = parse_pde("u_tx = sin(u)")
    lam = P("u_xxx + u_x^3/2")
    density = homotopy_density(sg, lam)
    raw = ConservationLaw(pde=sg, multiplier=lam, density_t=density,
                          density_x=flux_density(sg, density),
                          utilde=JetExpression.zero())
    assert raw.density_t == P("u_x*u_xxx/2 + u_x^4/8")
    squeezed = normalize_density(raw)
    assert squeezed.density_t == P("-u_xx^2/2 + u_x^4/8")
    assert verify(squeezed)
    kdv = parse_pde(KDV, {"n": 1})
    cl = ConservationLaw(pde=kdv, multiplier=P("0"),
                         density_t=P("u^2").total("x"),
                         density_x=JetExpression.zero(),
                         utilde=JetExpression.zero())
    assert normalize_density(cl).density_t.is_zero()
    # already in normal form, with its flux: returned as it is
    energy = P("u^2/2")
    cl = ConservationLaw(pde=kdv, multiplier=P("u"), density_t=energy,
                         density_x=flux_density(kdv, energy), utilde=JetExpression.zero())
    assert normalize_density(cl) is cl


def test_build_law_inverts_one_flux_per_law(monkeypatch):
    from jetlaw import laws

    wave = parse_pde("u_tt = u^2*u_xx + u*u_x^2")
    _, mults = solve_multipliers(wave, AnsatzBounds(order=1, deg_tx=2, deg_u=1))
    inverted = []
    flux = laws.flux_density

    def counting_flux(pde, density):
        inverted.append(density)
        return flux(pde, density)

    monkeypatch.setattr(laws, "flux_density", counting_flux)
    built = [build_law(wave, lam, ref) for lam in mults for ref in (None, P("x"))]
    assert all(cl.verified for cl in built)
    assert inverted == [cl.density_t for cl in built]
    # Some laws keep a normalized density: inverting the constructed
    # density's flux as well would show there as a second call.
    assert any(cl.density_t != homotopy_density(wave, cl.multiplier, cl.utilde)
               for cl in built)


def test_normalize_keeps_density_when_pairing_would_break():
    lv = parse_pde("u_tx = exp(u)")
    cl = build_law(lv, P("1 + x*u_x"))
    # the u_x part is D_x(u) but dropping it would change the multiplier
    assert cl.density_t == P("u_x + x*u_x^2/2")


def test_multiplier_from_density_spec_cases():
    kdv = parse_pde(KDV, {"n": 2})
    lam = multiplier_from_density(kdv, P("-u_x^2/2 + u^4/12"))
    assert lam == P("u_xx + u^3/3")
    wave = parse_pde(WAVE)
    assert multiplier_from_density(wave, P("u_x*u_t")) == P("u_x")
    assert multiplier_from_density(kdv, P("5")).is_zero()


def test_multiplier_recovery_sees_through_trivial_u_tx_terms():
    wave = parse_pde("u_tt = u_xx")
    # the energy density plus D_x(u*u_t)
    density = P("u_t^2/2 + u_x^2/2 + u_x*u_t + u*u_tx")
    assert multiplier_from_density(wave, density) == P("u_t")


def test_third_order_wave_multiplier_verifies():
    # D_t Lam reads u_ttxx, which the restriction to solutions rewrites
    cl = build_law(parse_pde("u_tt = u_xx"), P("u_txx"))
    assert cl.verified
    assert cl.density_t == P("-u_xx^2/2 - u_tx^2/2")


def test_wave_energy_at_a_t_dependent_reference_verifies():
    wave = parse_pde("u_tt = u^2*u_xx + u*u_x^2")
    assert build_law(wave, P("u_t"), utilde=P("t")).verified


def test_roundtrip_multiplier_density_multiplier():
    cases = [
        (parse_pde(KDV, {"n": 1}), ["1", "u", "u_xx + u^2/2", "t*u - x"]),
        (parse_pde(WAVE), ["u_t", "u_x", "t*u_t + x*u_x",
                           "t^2*u_t - t*u", "x^2*u_x + x*u", "t*u_t - x*u_x - u"]),
        (parse_pde("u_tx = sin(u)"), ["u_x", "u_xxx + u_x^3/2"]),
    ]
    for pde, lams in cases:
        for s in lams:
            lam = P(s)
            d = homotopy_density(pde, lam)
            assert multiplier_from_density(pde, d) == lam


def test_homotopy_linearity(rng):
    kdv = parse_pde(KDV, {"n": 1})
    for _ in range(50):
        a = random_expression(rng, max_order=2, max_terms=3,
                              with_atoms=False, pure_x=True)
        b = random_expression(rng, max_order=2, max_terms=3,
                              with_atoms=False, pure_x=True)
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert homotopy_density(kdv, a * q) == homotopy_density(kdv, a) * q
        assert homotopy_density(kdv, a + b) \
            == homotopy_density(kdv, a) + homotopy_density(kdv, b)


def test_homotopy_of_a_large_power_takes_no_loop_over_it():
    # At utilde = 0 every jet's reference part is zero, so u^n contributes
    # lam^n * u^n in one step.
    start = time.perf_counter()
    assert homotopy_density(parse_pde("u_t = u_xx"), P("u^10000")) == P("u^10001/10001")
    assert homotopy_density(parse_pde("u_t = u_xx"), P("u^1000000000")) \
        == P("u^1000000001/1000000001")
    assert time.perf_counter() - start < 1


def _stepwise_integral(e, subs):
    """laws._homotopy_integral by p products with (a_k + lam*b_k) for u_k^p:
    the reference its binomial terms must equal."""
    zero = out = JetExpression.zero()
    for (mono, atoms), c in e.terms.items():
        coeffs = [JetExpression({(tuple(f for f in mono if f[0] not in subs), atoms): c})]
        for k, p in mono:
            if k in subs:
                a, b = subs[k]
                for _ in range(p):
                    coeffs = [a * q + b * r for q, r in zip(coeffs + [zero], [zero] + coeffs)]
        for d, q in enumerate(coeffs):
            out = out + q * Fraction(1, d + 1)
    return out


def test_homotopy_integral_matches_stepwise_products(rng):
    refs = [P(s) for s in ("0", "1", "-2/3", "x^2 + t", "t*x - 3")]
    for _ in range(40):
        e = random_expression(rng, max_order=2, max_terms=3, with_atoms=False)
        ref = rng.choice(refs)
        v = JetExpression.coordinate((0, 0)) - ref
        subs = {k: (iterated_total(ref, *k), iterated_total(v, *k)) for k in e.jets()}
        assert laws._homotopy_integral(e, subs) == _stepwise_integral(e, subs)


def test_homotopy_of_a_large_power_at_a_nonzero_reference():
    # (u^(n+1) - c^(n+1)) / (n+1): the lam-integral of u^n from c to u.
    heat = parse_pde("u_t = u_xx")
    for n in (1, 2, 5, 12):
        for c in (1, -2, Fraction(1, 3)):
            assert homotopy_density(heat, P("u^%d" % n), c) \
                == (P("u") ** (n + 1) - c ** (n + 1)) * Fraction(1, n + 1)
    # The binomial terms are quadratic in n: 0.8 s on a 2-vCPU host, where p
    # products with (1 + lam*(u - 1)) took 50 s.
    start = time.perf_counter()
    assert homotopy_density(heat, P("u^400"), 1) == (P("u^401") - 1) * Fraction(1, 401)
    assert time.perf_counter() - start < 10
    # Past the binomial bound the expansion is refused before any power.
    start = time.perf_counter()
    for n in (MAX_BINOMIAL_TERMS, 5000, 10 ** 9):
        with pytest.raises(ExpansionError, match="^expansion may hold %d terms, more than %d$"
                           % (n + 1, MAX_BINOMIAL_TERMS)):
            homotopy_density(heat, P("u^%d" % n), 1)
    assert time.perf_counter() - start < 1


def test_homotopy_rejects_atoms_in_scaled_multiplier():
    kdv = parse_pde(KDV, {"n": 1})
    with pytest.raises(HomotopyError, match=r"\(kernel atom sin\(u\) in G\*Lam\)$"):
        homotopy_density(kdv, P("sin(u)"))
    # A kernel atom without u is a constant factor of the lam-polynomial.
    assert homotopy_density(kdv, P("exp(1)*u")) == P("exp(1)*u^2/2")
    equation, = split_determining_system(kdv, multiplier_arity(kdv, 1)).equations
    with pytest.raises(HomotopyError, match="^formal atom in a concrete multiplier$"):
        homotopy_density(kdv, equation)


def test_two_point_fallback_refuses_higher_order_multipliers():
    with pytest.raises(HomotopyError, match="supports first-order multipliers"):
        homotopy_density(parse_pde(WAVE), P("u_tx"))


def test_homotopy_singular_reference_reported():
    wave = parse_pde(WAVE)
    lam = P("pow(u, -1)*u_t")  # not a multiplier, but exercises substitution
    from jetlaw.expr import ExprError
    with pytest.raises(ExprError):
        homotopy_density(wave, lam, utilde=0)


def test_verify_spec_cases(monkeypatch):
    kdv2 = parse_pde(KDV, {"n": 2})
    cl = build_law(kdv2, P("t*(u_xx + u^3/3) - x*u/3"))
    assert cl.verified
    kdv3 = parse_pde(KDV, {"n": 3})
    lam = P("t*(u_xx + u^4/4) - x*u/4")
    d = homotopy_density(kdv3, lam)
    bad = ConservationLaw(pde=kdv3, multiplier=lam, density_t=d,
                          density_x=JetExpression.zero(),
                          utilde=JetExpression.zero())
    assert not verify(bad)
    zero = ConservationLaw(pde=kdv3, multiplier=P("0"),
                           density_t=JetExpression.zero(),
                           density_x=JetExpression.zero(),
                           utilde=JetExpression.zero())
    assert verify(zero)
    # KdV n=1: Lambda = u with a zero flux fails the divergence identity, and
    # Lambda = 1 with the law of u passes it but recovers the multiplier u,
    # whose difference u - 1 is a multiplier with a nontrivial density.
    kdv1 = parse_pde(KDV, {"n": 1})
    d = homotopy_density(kdv1, P("u"))
    no_flux = ConservationLaw(pde=kdv1, multiplier=P("u"), density_t=d,
                              density_x=JetExpression.zero(),
                              utilde=JetExpression.zero())
    assert not verify(no_flux)
    other = ConservationLaw(pde=kdv1, multiplier=P("1"), density_t=d,
                            density_x=flux_density(kdv1, d),
                            utilde=JetExpression.zero())
    assert not verify(other)
    # u_t is no multiplier jet when u_t leads: verify catches the ArityError
    # raised inside and returns False
    inadmissible = replace(other, multiplier=P("u_t"))
    with pytest.raises(ArityError):
        determining_expression(kdv1, inadmissible.multiplier)
    assert verify(inadmissible) is False
    # A recovered multiplier off by u_x, which is no multiplier: the
    # difference fails the determining check, though its homotopy density
    # u*u_x/2 is trivial, so only that check refuses the law.
    law = build_law(kdv1, P("u"))
    assert verify(law)
    recover = multiplier_from_density
    monkeypatch.setattr(laws, "multiplier_from_density",
                        lambda pde, density: recover(pde, density) + P("u_x"))
    assert not determining_expression(kdv1, P("u_x")).is_zero()
    assert ibp_normal_form(homotopy_density(kdv1, P("u_x")))[0].is_zero()
    assert verify(law) is False


def test_verify_invariant_under_trivial_shift():
    kdv = parse_pde(KDV, {"n": 1})
    lam = P("u")
    d = homotopy_density(kdv, lam) + P("u*u_xx + u_x^2")  # + D_x(u u_x)
    cl = ConservationLaw(pde=kdv, multiplier=lam, density_t=d,
                         density_x=flux_density(kdv, d),
                         utilde=JetExpression.zero())
    assert verify(cl)


def test_divergence_identity_on_all_built_laws():
    wave = parse_pde(WAVE)
    for s in ("u_t", "x^2*u_x + x*u", "t*u_t - x*u_x - u"):
        cl = build_law(wave, P(s))
        residual = solution_total_derivative(wave, cl.density_t) \
            + cl.density_x.total("x")
        assert residual.is_zero()


def test_json_record_round_trips_through_grammar():
    kdv = parse_pde(KDV, {"n": 1})
    cl = build_law(kdv, P("t*u - x"))
    rec = cl.to_record()
    assert P(rec["lambda"]) == cl.multiplier
    assert P(rec["phi_t"]) == cl.density_t
    assert P(rec["phi_x"]) == cl.density_x
    assert rec["verified"] is True


# Seeded law sweep: the multipliers of 16 random right-hand sides per shape,
# at one set of small bounds, each built at five references.  Every law
# either verifies or fails with a typed error; a law returned unverified is
# never accepted.  The independent oracle checks each multiplier's law at one
# reference, taking the references in turn.  The typed failures left, frozen
# in the tally, are:
# - HomotopyError on u_tt with kernel atoms: the characteristic form meets a
#   kernel atom of u on the path u_lam, and the two-point fallback refuses a
#   right-hand side without wave-speed structure (ROADMAP item 12);
# - AntiderivativeOutsideClass for u_x on u_tt = -4/3*t + 8/3*t*pow(u + 2, -1)
#   and for 1 on a u_tx equation with u_x*pow(u + 2, -1): each flux needs
#   log(u + 2), which is outside the expression class.
SWEEP_BOUNDS = AnsatzBounds(order=2, deg_tx=2, deg_u=2)
SWEEP_REFERENCES = (None, "1", "x", "t", "t*x + 1")
SWEEP_TALLY = {
    False: {("u_t", "verified"): 205, ("u_tt", "verified"): 245,
            ("u_tx", "verified"): 120},
    True: {("u_t", "verified"): 90, ("u_tt", "HomotopyError"): 15,
           ("u_tt", "AntiderivativeOutsideClass"): 5, ("u_tt", "verified"): 80,
           ("u_tx", "AntiderivativeOutsideClass"): 5, ("u_tx", "verified"): 25},
}


@pytest.mark.parametrize("with_atoms", [False, True])
def test_seeded_law_sweep(with_atoms):
    tally = Counter()
    multipliers = 0
    for leading in ((1, 0), (2, 0), (1, 1)):
        rng = random.Random("law sweep:%s:%s" % (leading, with_atoms))
        for _ in range(16):
            pde = PdeSpec(leading=leading, rhs=random_rhs(rng, leading, with_atoms))
            for lam in solve_multipliers(pde, SWEEP_BOUNDS)[1]:
                checked = SWEEP_REFERENCES[multipliers % len(SWEEP_REFERENCES)]
                multipliers += 1
                for ref in SWEEP_REFERENCES:
                    try:
                        cl = build_law(pde, lam, ref and P(ref))
                        outcome = "verified" if cl.verified else "unverified"
                    except ExprError as e:
                        outcome = type(e).__name__
                    tally[coord_name(leading), outcome] += 1
                    if outcome == "verified" and ref == checked:
                        assert law_problems(cl) == [], (str(pde), render(lam), ref)
    assert not any(outcome == "unverified" for _, outcome in tally)
    assert dict(tally) == SWEEP_TALLY[with_atoms]


# The laws of the nine classify calls of the benchmark (the KdV scan as
# n = 1..4), built through the API at the CLI's bounds.
_WAVE_ORDER1 = dict(order=1, deg_tx=2, deg_u=1)
_KG_ORDER3 = dict(order=3, deg_tx=1, deg_u=3)
CLASSIFY_LAWS = {"kdv n=%d" % n: (KDV, {"n": n}, dict(order=2, deg_tx=1, deg_u=n + 1))
                 for n in (1, 2, 3, 4)} | {
    "wave c=u^-2": (WAVE, {}, _WAVE_ORDER1),
    "wave c=u": ("u_tt = u^2*u_xx + u*u_x^2", {}, _WAVE_ORDER1),
    "wave c=e^u": ("u_tt = exp(2*u)*u_xx + exp(2*u)*u_x^2", {},
                   dict(_WAVE_ORDER1, atoms=(exp_atom(Fraction(-1, 2)),))),
    "kg sin": ("u_tx = sin(u)", {}, _KG_ORDER3),
    "kg sinh": ("u_tx = exp(u) + exp(-u)", {}, _KG_ORDER3),
    "kg liouville": ("u_tx = exp(u)", {}, _KG_ORDER3),
    "kg u^2": ("u_tx = u^2", {}, _KG_ORDER3),
    "kg u^3": ("u_tx = u^3", {}, _KG_ORDER3),
}


@pytest.mark.parametrize("name", CLASSIFY_LAWS)
def test_classify_laws_pass_the_oracle(name):
    text, params, bounds = CLASSIFY_LAWS[name]
    pde = parse_pde(text, params)
    for lam in solve_multipliers(pde, AnsatzBounds(**bounds))[1]:
        cl = build_law(pde, lam)
        assert cl.verified
        assert law_problems(cl) == [], render(lam)


def test_flux_outside_the_class_names_its_cofactor():
    pde = parse_pde("u_t = -2*x*u_xxx + 2/3*u_x*pow(u + 2, -1)")
    with pytest.raises(AntiderivativeOutsideClass) as err:
        build_law(pde, P("1"))
    assert str(err.value) == "the u-antiderivative of -2/3*pow(u + 2, -1) is outside the " \
        "expression class (logarithmic antiderivative); residual -2/3*u_x*pow(u + 2, -1)"
    assert err.value.residual == P("-2/3*u_x*pow(u + 2, -1)")


# Multipliers above first order on u_tt, frozen: (PDE, bounds, columns,
# multipliers).  The admissible jets are those of t-order below 2, so order 3
# reaches u_txx and u_xxx.
HIGHER_ORDER_WAVE_LAWS = {
    "wave order 2": ("u_tt = u_xx", dict(order=2, deg_u=2), 21,
                     ["1", "u_t", "u_x*u_t", "u_x", "u_x^2 + u_t^2"]),
    "wave order 3": ("u_tt = u_xx", dict(order=3, deg_u=2), 36,
                     ["1", "u_t", "u_x*u_t", "u_x", "u_x^2 + u_t^2",
                      "u_x*u_txx + u_t*u_xxx + u_xx*u_tx",
                      "2*u_x*u_xxx + 2*u_t*u_txx + u_xx^2 + u_tx^2",
                      "u_xx*u_txx + u_tx*u_xxx", "u_xx*u_xxx + u_tx*u_txx",
                      "u_txx", "u_xxx"]),
    "cubic wave order 2": ("u_tt = u_xx + u^3", dict(order=2, deg_u=3), 56,
                           ["u_t", "u_x"]),
    "wave c=u order 2": ("u_tt = u^2*u_xx + u*u_x^2", dict(order=2, deg_tx=2, deg_u=1),
                         36, ["u_t", "u_x", "t*u_t + x*u_x"]),
}


@pytest.mark.parametrize("name", HIGHER_ORDER_WAVE_LAWS)
def test_higher_order_wave_laws(name):
    text, bounds, columns, frozen = HIGHER_ORDER_WAVE_LAWS[name]
    pde = parse_pde(text)
    ansatz, mults = solve_multipliers(pde, AnsatzBounds(**bounds))
    assert len(ansatz.basis) == columns
    assert [render(lam) for lam in mults] == frozen
    for lam in mults:
        cl = build_law(pde, lam)
        assert cl.verified
        assert law_problems(cl) == [], render(lam)
