"""Differential operators: totals, Euler operators, descent machinery."""

import random

import pytest

from fractions import Fraction

from jetlaw.expr import (
    ExprError,
    JetExpression,
    U,
    UT,
    UX,
    cos_atom,
    exp_atom,
    lam_atom,
    pow_atom,
    sin_atom,
    term_jets,
)
from jetlaw.parser import parse_expression as P, render
from jetlaw.linsolve import multiplier_arity
from jetlaw.pde import ChartForms, PdeSpec, iterated_total, on_chart, parse_pde
from jetlaw import calculus
from jetlaw.calculus import (
    AntiderivativeOutsideClass,
    NotIntegrable,
    NotXDerivative,
    _integrate_wrt,
    eliminate_off_chart,
    euler_operator,
    ibp_normal_form,
    invert_total_x_derivative,
    restricted_euler,
    solution_total_derivative,
)

from conftest import random_expression, random_rhs, reference_eliminate
from oracle_jet import euler as oracle_euler, same, to_sympy, total_t, total_x


def test_total_derivative_spec_cases():
    assert P("u*u_x").total("x") == P("u_x^2 + u*u_xx")
    assert P("sin(u)").total("t") == P("cos(u)*u_t")


def test_totals_commute_random(rng):
    for _ in range(200):
        e = random_expression(rng, max_order=3, max_terms=5)
        assert e.total("t").total("x") == e.total("x").total("t")


def test_totals_match_oracle(rng):
    for _ in range(40):
        e = random_expression(rng, max_order=3, max_terms=4)
        s = to_sympy(e)
        assert same(e.total("x"), total_x(s))
        assert same(e.total("t"), total_t(s))


def test_euler_spec_cases():
    assert euler_operator(P("u_x^2")) == P("-2*u_xx")
    assert euler_operator(P("u*u_xx").total("x")).is_zero()
    assert euler_operator(P("u_t*u_x")) == P("-2*u_tx")


def test_euler_matches_oracle(rng):
    for _ in range(25):
        e = random_expression(rng, max_order=2, max_terms=4)
        assert same(euler_operator(e), oracle_euler(to_sympy(e)))


def test_euler_annihilates_divergences(rng):
    for _ in range(150):
        e = random_expression(rng, max_order=3, max_terms=5)
        assert euler_operator(e.total("x")).is_zero()
        assert euler_operator(e.total("t")).is_zero()


def _euler_term_by_term(e):
    """The definition, one jet at a time: sum_v (-D_t)^a (-D_x)^b de/dv."""
    jets = set(e.jets())
    for _, atoms in e.terms:
        for a, _ in atoms:
            if a[0] == "lam":
                jets.update(k for k in a[1] if k not in ("t", "x"))
    out = JetExpression.zero()
    for a, b in sorted(jets):
        out = out + iterated_total(e.partial((a, b)), a, b) * Fraction((-1) ** (a + b))
    return out


def test_euler_matches_term_by_term_definition(rng):
    lam = JetExpression.atom(lam_atom(("x", U, UX, (0, 2))))
    for i in range(120):
        e = random_expression(rng, max_order=4, max_terms=6)
        if i % 3 == 0:
            e = e * lam
        assert euler_operator(e) == _euler_term_by_term(e)


def test_restricted_euler_matches_term_by_term_definition(rng):
    for _ in range(120):
        e = random_expression(rng, max_order=4, max_terms=6, pure_x=True)
        orders = sorted(b for a, b in e.jets() if a == 0)
        for start in (0, 1):
            want = JetExpression.zero()
            for b in orders:
                if b >= start:
                    step = iterated_total(e.partial((0, b)), 0, b - start)
                    want = want + step * Fraction((-1) ** (b - start))
            assert restricted_euler(e, (0, start)) == want


def test_solution_total_derivative_spec_cases():
    kdv = parse_pde("u_t + u^n*u_x + u_xxx = 0", {"n": 2})
    assert solution_total_derivative(kdv, P("u")) == P("-u^2*u_x - u_xxx")
    wave = parse_pde("u_tt = pow(u,-4)*u_xx - 2*pow(u,-5)*u_x^2")
    assert solution_total_derivative(wave, P("u_t")) \
        == P("pow(u,-4)*u_xx - 2*pow(u,-5)*u_x^2")
    kg = parse_pde("u_tx = exp(u)")
    assert solution_total_derivative(kg, P("u_x")) == P("exp(u)")
    assert solution_total_derivative(kg, P("u_xx")) == P("exp(u)*u_x")


# One PDE of each shape: u_t, u_tt and u_tx lead.
SHAPES = {
    "kdv": ("u_t + u^n*u_x + u_xxx = 0", {"n": 1}),
    "wave": ("u_tt = pow(u,-4)*u_xx - 2*pow(u,-5)*u_x^2", {}),
    "klein-gordon": ("u_tx = exp(u)", {}),
}


def test_solution_total_derivative_rejects_off_chart():
    for source, text, name in [("u_t + u*u_x + u_xxx = 0", "u_t*u", "u_t"),
                               (SHAPES["wave"][0], "u_tt*u_x + u_t", "u_tt"),
                               ("u_tx = exp(u)", "u_tx*u_t + u_x", "u_tx")]:
        with pytest.raises(ExprError, match="contains %s$" % name):
            solution_total_derivative(parse_pde(source), P(text))


def _on_chart_expression(rng, pde, **kwargs):
    """A seeded random expression, kernel atoms included, without its terms
    that read a jet off the chart of pde."""
    e = random_expression(rng, **kwargs)
    return JetExpression({sig: c for sig, c in e.terms.items()
                          if all(on_chart(pde.leading, k) for k in term_jets(sig))})


@pytest.mark.parametrize("shape", SHAPES)
def test_on_solution_total_matches_substitute_loop(shape):
    # D^ e equals the formal total with its off-chart jets substituted away
    # by the reference loop, and so does eliminate_off_chart's one pass; on
    # the shape's PDE and on seeded ones of its leading derivative, and on
    # expressions with kernel atoms and with a lam atom.
    rng = random.Random(shape)
    shaped = parse_pde(*SHAPES[shape])
    leading = shaped.leading
    for pde in [shaped] + [PdeSpec(leading, random_rhs(rng, leading, True)) for _ in range(3)]:
        lam = JetExpression.atom(lam_atom(multiplier_arity(pde, 2)))
        for i in range(8):
            e = _on_chart_expression(rng, pde, max_order=3, max_terms=6)
            if i % 2:
                e = e * lam
            for d in ("t", "x"):
                want = reference_eliminate(pde, e.total(d))
                assert e.total(d, ChartForms(pde)) == want
                assert eliminate_off_chart(pde, e.total(d)) == want
            assert solution_total_derivative(pde, e) == reference_eliminate(pde, e.total("t"))


@pytest.mark.parametrize("shape", SHAPES)
def test_solution_derivative_commutes_with_dx(rng, shape):
    # D^_x D^_t = D^_t D^_x; on u_tx, D^_x of u_t is already the chart form.
    pde = parse_pde(*SHAPES[shape])
    for _ in range(40):
        e = _on_chart_expression(rng, pde, max_order=3, max_terms=4)
        chart = ChartForms(pde)
        a = solution_total_derivative(pde, e).total("x", chart)
        b = solution_total_derivative(pde, e.total("x", chart))
        assert a == b


def test_restricted_euler_spec_cases():
    assert restricted_euler(P("u^2/2"), U) == P("u")
    assert restricted_euler(P("u_t^2/2 + pow(u,-4)*u_x^2/2"), UT) == P("u_t")
    assert restricted_euler(P("-u_x^2/2"), U) == P("u_xx")
    assert restricted_euler(P("u_x*u_t"), UX) == P("u_t")
    assert restricted_euler(P("u*u_txx + u_x*u_t"), UT) == P("u_xx + u_x")


def test_invert_total_x_spec_cases():
    assert invert_total_x_derivative(P("u_x*u_xx")) == P("u_x^2/2")
    assert invert_total_x_derivative(P("u_x^2 + u*u_xx")) == P("u*u_x")
    with pytest.raises(NotXDerivative) as err:
        invert_total_x_derivative(P("u"))
    assert type(err.value) is NotXDerivative
    assert not err.value.residual.is_zero()
    # D_x log(u + 2): the descent refuses the cofactor and says so
    with pytest.raises(AntiderivativeOutsideClass) as err:
        invert_total_x_derivative(P("u_x*pow(u + 2, -1)"))
    assert "u-antiderivative of pow(u + 2, -1) is outside" in str(err.value)
    assert err.value.residual == P("u_x*pow(u + 2, -1)")


def test_invert_is_right_inverse_random(rng):
    for _ in range(200):
        theta = random_expression(rng, max_order=3, max_terms=4)
        e = theta.total("x")
        got = invert_total_x_derivative(e)
        assert got.total("x") == e


def test_invert_through_atoms():
    assert invert_total_x_derivative(P("sin(u)*u_x")) == P("-cos(u)")
    assert invert_total_x_derivative(P("cos(u)*u_x*u_xx - sin(u)*u_x^3/2")) \
        == P("cos(u)*u_x^2/2")
    assert invert_total_x_derivative(P("pow(u,-3)*u_x")) == P("-pow(u,-2)/2")
    got = invert_total_x_derivative(P("exp(2*u)*u*u_x"))
    assert got.total("x") == P("exp(2*u)*u*u_x")


def test_invert_mixed_chart():
    # flux inversion shape used by the u_tt chart
    theta = P("pow(u,-4)*u_x*u_t")
    e = theta.total("x")
    assert invert_total_x_derivative(e).total("x") == e


def test_invert_log_cancellation():
    theta = P("-2*u*pow(u - 2, -1)")
    e = theta.total("x")
    assert invert_total_x_derivative(e).total("x") == e


def test_not_x_derivative_in_mixed_chart():
    # E_u annihilates this (it is a t-divergence) but it is not D_x-exact
    with pytest.raises(NotXDerivative):
        invert_total_x_derivative(P("u_xx*u_txx"))


def test_ibp_normal_form_spec_cases():
    core, theta = ibp_normal_form(P("u_xxx*u_x/2"))
    assert core == P("-u_xx^2/2")
    assert P("u_xxx*u_x/2") == core + theta.total("x")
    core, theta = ibp_normal_form(P("u_x^2"))
    assert core == P("u_x^2") and theta.is_zero()
    core, _ = ibp_normal_form(P("u^3").total("x"))
    assert core.is_zero()


def test_ibp_idempotent_random(rng):
    for _ in range(200):
        e = random_expression(rng, max_order=3, max_terms=5)
        core, theta = ibp_normal_form(e)
        assert e == core + theta.total("x")
        core2, theta2 = ibp_normal_form(core)
        assert core2 == core and theta2.is_zero()


def test_euler_invariant_under_ibp(rng):
    for _ in range(60):
        e = random_expression(rng, max_order=2, max_terms=4)
        core, _ = ibp_normal_form(e)
        assert euler_operator(e) == euler_operator(core)


def test_pure_tx_terms_are_exact():
    core, theta = ibp_normal_form(P("x^2*t + 3"))
    assert core.is_zero()
    assert theta.total("x") == P("x^2*t + 3")


def test_exp_with_two_trig_arguments_is_not_integrable():
    # One trig atom used to be dropped, and the wrong antiderivative then
    # kept the descent from ever finishing.
    with pytest.raises(NotIntegrable):
        _integrate_wrt(P("exp(u)*sin(u)*sin(2*u)"), U)
    e = P("exp(u)*sin(u)*sin(2*u)*u_x")
    core, theta = ibp_normal_form(e)
    assert core == e and theta.is_zero()


_ATOM_ARGS = ((1, 0), (2, 0), (Fraction(1, 2), 1), (-1, 1))
_POW_EXPONENTS = (-1, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2))


def _random_integrand(rng):
    """One or two terms u^m * (up to two kernel atoms at powers 1-3), with
    optional u_x and x factors, and a coordinate to integrate in."""
    raw = []
    for _ in range(rng.randint(1, 2)):
        factors = {U: rng.randint(0, 4)}
        for _ in range(rng.randint(0, 2)):
            alpha, beta = rng.choice(_ATOM_ARGS)
            tag = rng.choice(("exp", "sin", "cos", "pow"))
            if tag == "pow":
                a = pow_atom(alpha, beta, rng.choice(_POW_EXPONENTS))
            else:
                a = {"exp": exp_atom, "sin": sin_atom, "cos": cos_atom}[tag](alpha, beta)
            factors[a] = factors.get(a, 0) + rng.randint(1, 3)
        if rng.random() < 0.3:
            factors[UX] = rng.randint(1, 2)
        if rng.random() < 0.3:
            factors["x"] = rng.randint(1, 2)
        raw.append((Fraction(rng.randint(1, 5), rng.randint(1, 3)), factors))
    return JetExpression.from_raw(raw), rng.choice((U, U, UX, "x"))


def test_antiderivative_is_exact_and_unique():
    """Each result differentiates back exactly and has no term free of w,
    which singles it out among all antiderivatives."""
    rng = random.Random(20261018)
    in_u = refused = 0
    for _ in range(2000):
        e, w = _random_integrand(rng)
        try:
            got = _integrate_wrt(e, w)
        except NotIntegrable:
            refused += 1
            continue
        in_u += w == U
        assert got.partial(w) == e, (e, w)
        for sig, c in got.terms.items():
            indeps = {k for k, _ in sig[0] if k in ("t", "x")}
            assert w in JetExpression({sig: c}).jets() | indeps, (e, w, sig)
    assert in_u > 500 and refused > 200


def test_by_parts_makes_linearly_many_atom_integrations(monkeypatch):
    """int u^m exp(u) sin(2u) du takes one atom-table integration per term
    of each H_k, not one per branch of a recursion tree."""
    calls = []
    original = calculus._atom_antiderivative
    monkeypatch.setattr(calculus, "_atom_antiderivative",
                        lambda live: calls.append(live) or original(live))
    m = 10
    integrand = P("u^%d*exp(u)*sin(2*u)" % m)
    result = _integrate_wrt(integrand, U)
    assert len(calls) <= 3 * (m + 1)
    assert result.partial(U) == integrand
