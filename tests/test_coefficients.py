"""Coefficient normal form: an int when integral, else a Fraction with
denominator > 1, and never a float, through every layer of the pipeline."""

from fractions import Fraction

import pytest

import jetlaw.expr as expr_module
from jetlaw.calculus import euler_operator, ibp_normal_form
from jetlaw.expr import (CoefficientError, ExprError, JetExpression, U, cos_atom, exp_atom,
                         pow_atom, rational_pow, sin_atom)
from jetlaw.laws import build_law
from jetlaw.linsolve import (
    AnsatzBounds, assemble, combine, generate_ansatz_basis, nullspace,
)
from jetlaw.parser import parse_expression
from jetlaw.pde import parse_pde

from conftest import full_split, random_expression


KDV = "u_t + u^n*u_x + u_xxx = 0"
_ORDER2 = dict(order=2, deg_tx=1)
_WAVE = dict(order=1, deg_tx=2, deg_u=1)
_KG = dict(order=3, deg_tx=1, deg_u=3)

# The inputs of the paper's classification tables and of the order-4 spaces.
PIPELINES = {
    **{"kdv n=%d" % n: (KDV, {"n": n}, AnsatzBounds(deg_u=n + 1, **_ORDER2))
       for n in (1, 2, 3, 4)},
    "wave c=u^-2": ("u_tt = pow(u,-4)*u_xx - 2*pow(u,-5)*u_x^2", {}, AnsatzBounds(**_WAVE)),
    "wave c=u": ("u_tt = u^2*u_xx + u*u_x^2", {}, AnsatzBounds(**_WAVE)),
    "wave c=e^u": ("u_tt = exp(2*u)*u_xx + exp(2*u)*u_x^2", {},
                   AnsatzBounds(atoms=(exp_atom(Fraction(-1, 2)),), **_WAVE)),
    "kg sin": ("u_tx = sin(u)", {}, AnsatzBounds(**_KG)),
    "kg sinh": ("u_tx = exp(u) + exp(-u)", {}, AnsatzBounds(**_KG)),
    "kg liouville": ("u_tx = exp(u)", {}, AnsatzBounds(**_KG)),
    "kg u^2": ("u_tx = u^2", {}, AnsatzBounds(**_KG)),
    "kg u^3": ("u_tx = u^3", {}, AnsatzBounds(**_KG)),
    "kdv order 4": (KDV, {"n": 1}, AnsatzBounds(order=4, deg_tx=1, deg_u=3)),
    "sine-gordon order 4": ("u_tx = sin(u)", {}, AnsatzBounds(order=4, deg_tx=1, deg_u=4)),
    "liouville order 4": ("u_tx = exp(u)", {}, AnsatzBounds(order=4, deg_tx=1, deg_u=4)),
}


def _assert_normal(coefficients):
    for c in coefficients:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def _assert_normal_expression(e: JetExpression):
    _assert_normal(e.terms.values())


@pytest.mark.parametrize("name", PIPELINES)
def test_pipeline_coefficients_are_normal(name):
    source, params, bounds = PIPELINES[name]
    pde = parse_pde(source, params)
    ansatz = generate_ansatz_basis(pde, bounds)
    _, system = full_split(pde, ansatz.arity)
    for equation in system.equations:
        _assert_normal_expression(equation)
    linsys = assemble(system, ansatz)
    for row in linsys.rows.values():
        _assert_normal(row.values())
    vectors = nullspace(linsys)
    assert vectors and all(type(v) is int for vec in vectors for v in vec)
    for vec in vectors:
        lam = combine(ansatz, vec)
        law = build_law(pde, lam)
        assert law.verified
        for e in (lam, law.density_t, law.density_x):
            _assert_normal_expression(e)


def test_operator_coefficients_are_normal(rng):
    for _ in range(60):
        e = random_expression(rng, max_order=3, max_terms=6)
        _assert_normal_expression(e)
        for v in ("t", "x", U, (0, 1), (1, 0)):
            _assert_normal_expression(e.partial(v))
        for direction in ("t", "x"):
            _assert_normal_expression(e.total(direction))
        _assert_normal_expression(euler_operator(e))
        core, theta = ibp_normal_form(e)
        _assert_normal_expression(core)
        _assert_normal_expression(theta)


def test_integral_results_are_ints():
    half = JetExpression.rational(Fraction(1, 2))
    assert half.terms[((), ())] == Fraction(1, 2)
    assert type((half + half).terms[((), ())]) is int
    assert type((half * 2).terms[((), ())]) is int
    assert type((half * Fraction(4)).terms[((), ())]) is int
    assert type(JetExpression.rational(Fraction(6, 3)).terms[((), ())]) is int
    assert type(parse_expression("1/2*u^2").partial(U).terms[(((U, 1),), ())]) is int
    _, theta = ibp_normal_form(parse_expression("u*u_x"))
    assert theta.terms == {(((U, 2),), ()): Fraction(1, 2)}


def test_as_fraction_returns_a_fraction():
    for text in ("0", "3", "-2", "1/2", "4/2"):
        q = parse_expression(text).as_fraction()
        assert type(q) is Fraction and q == Fraction(text)


@pytest.mark.parametrize("bad", [0.5, 1.0, float("nan"), "1", complex(1, 0)])
def test_inexact_coefficients_are_rejected(bad):
    with pytest.raises(CoefficientError):
        JetExpression.rational(bad)
    with pytest.raises(CoefficientError):
        JetExpression.from_raw([(bad, {U: 1})])
    with pytest.raises(CoefficientError):
        parse_pde("u_t = a*u_xx", {"a": bad})
    with pytest.raises(CoefficientError):
        parse_expression("a*u", {"a": bad})
    with pytest.raises(CoefficientError):
        build_law(parse_pde("u_t = u_xx"), parse_expression("u"), bad)
    for atom in (exp_atom, sin_atom, cos_atom):
        with pytest.raises(CoefficientError):
            atom(bad)
        with pytest.raises(CoefficientError):
            atom(1, bad)
    for args in ((bad, 1, 1), (1, bad, 1), (1, 1, bad)):
        with pytest.raises(CoefficientError):
            pow_atom(*args)
    for args in ((bad, 2), (2, bad)):
        with pytest.raises(CoefficientError):
            rational_pow(*args)
    # Raw atom tuples, checked before and after the equal exact atom (where
    # there is one) is interned: an inexact parameter hashes and compares
    # like its exact twin, so the table must not be read first.  The 1/7919
    # keeps the twin out of the table until it is interned here.
    odd = Fraction(1, 7919)
    for tag in ("exp", "sin", "cos", "pow"):
        exact = (odd,) * (3 if tag == "pow" else 2)
        for i in range(len(exact)):
            raw = (tag,) + exact[:i] + (bad,) + exact[i + 1:]
            twin = None
            if isinstance(bad, float) and bad == bad:
                twin = (tag,) + exact[:i] + (Fraction(bad),) + exact[i + 1:]
                assert twin not in expr_module._ATOMS
            for _ in range(2):
                with pytest.raises(CoefficientError):
                    JetExpression.from_raw([(1, {raw: 1})])
                if twin is not None:
                    JetExpression.from_raw([(1, {twin: 1})])
    assert issubclass(CoefficientError, ExprError)


@pytest.mark.parametrize("bad", [0.5, float("nan"), "1", complex(1, 0)])
def test_inexact_operands_are_rejected(bad):
    e = parse_expression("u")
    for op in (lambda: e + bad, lambda: bad + e, lambda: e - bad, lambda: bad - e,
               lambda: e * bad, lambda: bad * e):
        with pytest.raises(CoefficientError):
            op()
    if isinstance(bad, str):
        # Not a number: equality falls back to identity, as for any object.
        assert (e == bad, bad == e, e != bad, bad != e) == (False, False, True, True)
        return
    for op in (lambda: e == bad, lambda: bad == e, lambda: e != bad, lambda: bad != e):
        with pytest.raises(CoefficientError):
            op()
