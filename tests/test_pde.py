"""PDE parsing, validation, and linearization operators."""

import pytest

from jetlaw.expr import ExprError, U, UT, UX
from jetlaw.parser import parse_expression as P, render
from jetlaw.pde import PdeError, parse_pde
from jetlaw.calculus import adjoint_linearization, euler_operator

from conftest import linearization, random_expression
from oracle_jet import euler as oracle_euler, to_sympy, same


KDV = "u_t + u^n*u_x + u_xxx = 0"
WAVE_U2 = "u_tt = pow(u,-4)*u_xx - 2*pow(u,-5)*u_x^2"


def test_parse_kdv_solved_form():
    pde = parse_pde(KDV, {"n": 2})
    assert pde.leading == UT
    assert pde.rhs == P("-u^2*u_x - u_xxx")


def test_parse_sine_gordon():
    pde = parse_pde("u_tx = sin(u)")
    assert pde.leading == (1, 1)
    assert pde.rhs == P("sin(u)")


def test_parse_wave_leading():
    pde = parse_pde(WAVE_U2)
    assert pde.leading == (2, 0)
    assert pde.gee() == P("u_tt - pow(u,-4)*u_xx + 2*pow(u,-5)*u_x^2")


def test_leading_must_be_linear_and_alone():
    with pytest.raises(PdeError):
        parse_pde("u*u_t + u_x = 0")
    with pytest.raises(PdeError):
        parse_pde("u_t^2 = u_x")


def test_rhs_exclusion_rules():
    with pytest.raises(PdeError):
        parse_pde("u_t = u_tx")       # t-derivative on the rhs
    with pytest.raises(PdeError):
        parse_pde("u_tx = u_t")       # t-derivative for the u_tx shape
    # u_t on the rhs is allowed for the u_tt shape
    pde = parse_pde("u_tt = u_t + u_xx")
    assert pde.leading == (2, 0)


def test_parameter_may_not_replace_a_grammar_symbol():
    # Substituted, t = 1 would leave u_t = u_xx, and u = 0 the Airy equation.
    with pytest.raises(ExprError, match="^parameter 't' names a symbol of the grammar$"):
        parse_pde("u_t = t*u_xx", {"t": 1})
    with pytest.raises(ExprError, match="^parameter 'u' names a symbol of the grammar$"):
        parse_pde("u_t + u*u_x + u_xxx = 0", {"u": 0})


def test_no_leading_found():
    with pytest.raises(PdeError):
        parse_pde("u_xx + u = 0")


def test_scaled_leading_normalized():
    pde = parse_pde("2*u_t + u_x = 0")
    assert pde.rhs == P("-1/2*u_x")


def test_linearization_kdv_spec_case():
    pde = parse_pde(KDV, {"n": 1})
    out = linearization(pde, P("u_x"))
    assert out == P("u_tx + u*u_xx + u_x^2 + u_xxxx")


def test_linearization_zero():
    pde = parse_pde(KDV, {"n": 3})
    assert linearization(pde, P("0")).is_zero()


def test_adjoint_kdv_spec_case():
    pde = parse_pde(KDV, {"n": 1})
    assert adjoint_linearization(pde, P("u")) == P("-u_t - u*u_x - u_xxx")


def test_klein_gordon_self_adjoint_operator():
    pde = parse_pde("u_tx = exp(u)")
    phi = P("u_xx*u + t*u_x")
    assert linearization(pde, phi) == adjoint_linearization(pde, phi)
    # and equals D_t D_x phi - g'(u) phi
    expect = phi.total("t").total("x") - P("exp(u)") * phi
    assert linearization(pde, phi) == expect


def test_self_adjointness_detection(rng):
    wave = parse_pde(WAVE_U2)
    kg = parse_pde("u_tx = sin(u)")
    kdv = parse_pde(KDV, {"n": 1})
    kdv_fails = 0
    for _ in range(25):
        phi = random_expression(rng, max_order=2, max_terms=3, with_atoms=False)
        for pde in (wave, kg):
            diff = linearization(pde, phi) - adjoint_linearization(pde, phi)
            assert euler_operator(diff).is_zero()
        diff = linearization(kdv, phi) - adjoint_linearization(kdv, phi)
        if not euler_operator(diff).is_zero():
            kdv_fails += 1
    assert kdv_fails > 20  # KdV is genuinely non-self-adjoint


def test_linearity_in_expression_argument(rng):
    pde = parse_pde(WAVE_U2)
    for _ in range(25):
        a = random_expression(rng, max_order=2, max_terms=3, with_atoms=False)
        b = random_expression(rng, max_order=2, max_terms=3, with_atoms=False)
        assert linearization(pde, a + b) == linearization(pde, a) + linearization(pde, b)
        assert adjoint_linearization(pde, a + b) \
            == adjoint_linearization(pde, a) + adjoint_linearization(pde, b)


def test_operators_against_straight_line_oracle():
    """Both operators recomputed term by term with the sympy oracle."""
    import sympy as sp
    from oracle_jet import JET, total_t, total_x
    pde = parse_pde(KDV, {"n": 2})
    probe = P("t*u*u_x")
    g = to_sympy(pde.gee())
    w = to_sympy(probe)
    adj = sp.Integer(0)
    lin = sp.Integer(0)
    for (a, b), sym in JET.items():
        d = sp.diff(g, sym)
        if d == 0:
            continue
        down = w
        for _ in range(a):
            down = total_t(down)
        for _ in range(b):
            down = total_x(down)
        lin += d * down
        up = d * w
        for _ in range(a):
            up = total_t(up)
        for _ in range(b):
            up = total_x(up)
        adj += (-1) ** (a + b) * up
    assert same(linearization(pde, probe), sp.expand(lin))
    assert same(adjoint_linearization(pde, probe), sp.expand(adj))
