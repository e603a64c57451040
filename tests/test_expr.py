"""Expression kernel: parsing, normalization, ring laws, evaluation."""

import math
import random
from fractions import Fraction

import pytest

from jetlaw.expr import JetExpression, ExprError, U, UT, UX, pow_atom, rational_pow
from jetlaw.parser import ParseError, parse_expression, render

from conftest import random_expression

P = parse_expression


def test_grammar_example_three_terms():
    e = P("u_t + u^2*u_x + u_xxx")
    assert len(e.terms) == 3
    assert all(c == 1 for c in e.terms.values())


def test_zero_literal_is_empty():
    assert P("0").is_zero()
    assert P("u - u").is_zero()


def test_pythagorean_rewrite_forced():
    assert P("sin(u)^2 + cos(u)^2") == 1
    assert P("sin(u)^3") == P("sin(u) - sin(u)*cos(u)^2")


def test_merging_and_cancellation():
    assert P("u*u_x + u_x*u") == P("2*u*u_x")
    assert P("3*u - 3*u").is_zero()


def test_derivative_name_order_insensitive():
    assert P("u_tx") == P("u_xt")
    assert P("u_txx") == P("u_xtx")


def test_rationals_and_division():
    assert P("3/4*u").terms == (P("u") * Fraction(3, 4)).terms
    assert P("u^3/3") == P("u^3") * Fraction(1, 3)
    with pytest.raises(ParseError):
        P("u/u_x")
    with pytest.raises(ParseError):
        P("1/0")


def test_decimal_literal_rejected():
    with pytest.raises(ParseError):
        P("1.5*u")


def test_unknown_symbol_and_position():
    with pytest.raises(ParseError) as err:
        P("u + q")
    assert "q" in str(err.value)
    with pytest.raises(ParseError):
        P("u + ")


def test_parameters_substituted_exactly():
    assert P("u^n/n", {"n": 3}) == P("u^3/3")
    assert P("pow(u - u0, r)", {"u0": 1, "r": Fraction(-1, 2)}) \
        == JetExpression.atom(pow_atom(1, -1, Fraction(-1, 2)))


def test_power_atom_normalizations():
    assert P("pow(u, 3)") == P("u^3")
    assert P("pow(u - 1, 2)") == P("u^2 - 2*u + 1")
    assert P("pow(u, -4)*u^2") == P("pow(u, -2)")
    assert P("pow(u, -4)*u^4") == 1
    assert P("pow(2*u, -2)") == P("pow(u, -2)") * Fraction(1, 4)
    assert P("exp(u)*exp(-u)") == 1
    assert P("exp(u)^2") == P("exp(2*u)")


def test_rational_pow_exact_roots():
    assert rational_pow(Fraction(8, 27), Fraction(2, 3)) == Fraction(4, 9)
    assert rational_pow(3 ** 100, Fraction(1, 5)) == 3 ** 20
    assert rational_pow(2 ** 1000, Fraction(1, 1000)) == 2
    assert rational_pow(Fraction(1, 16), Fraction(-1, 4)) == 2


def test_rational_pow_non_roots_are_none():
    assert rational_pow(2, Fraction(1, 2)) is None
    assert rational_pow(3 ** 100 + 1, Fraction(1, 5)) is None
    assert rational_pow(Fraction(4, 3), Fraction(1, 2)) is None
    assert rational_pow(2, Fraction(1, 1000)) is None


def test_rational_pow_400_digit_square():
    big = 10 ** 400
    assert rational_pow(big, Fraction(1, 2)) == 10 ** 200
    assert rational_pow(big + 1, Fraction(1, 2)) is None
    assert rational_pow(Fraction(1, (7 ** 500) ** 2), Fraction(1, 2)) \
        == Fraction(1, 7 ** 500)
    assert P("pow(10^400, 1/2)") == P("10^200")


def test_fractional_power_of_affine_base():
    e = P("(u - 1)^-2")
    assert e == JetExpression.atom(pow_atom(1, -1, -2))
    with pytest.raises(ParseError):
        P("u_x^-1")


def test_round_trip_fixed_forms():
    samples = [
        "u_t + u^2*u_x + u_xxx",
        "1/2*t*u_x^2*exp(2*u + 1)",
        "pow(u - 1, -1/2)*x",
        "cos(u)^3 - sin(u)*cos(u)",
        "0",
        "-u + 5",
    ]
    for s in samples:
        e = P(s)
        assert P(render(e)) == e


def test_round_trip_random(rng):
    for _ in range(300):
        e = random_expression(rng)
        assert P(render(e)) == e


def test_ring_laws_random(rng):
    for _ in range(1000):
        a = random_expression(rng, max_order=3, max_terms=4)
        b = random_expression(rng, max_order=3, max_terms=4)
        c = random_expression(rng, max_order=3, max_terms=3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def _random_env(rng_, coords):
    env = {"t": rng_.uniform(-1.5, 1.5), "x": rng_.uniform(-1.5, 1.5)}
    for k in coords:
        if k not in ("t", "x"):
            env[k] = rng_.uniform(0.4, 1.6)  # away from the pow(u-2,.) pole
    env.setdefault(U, rng_.uniform(0.4, 1.6))
    return env


def test_arithmetic_matches_pointwise_evaluation(rng):
    for _ in range(400):
        a = random_expression(rng, max_order=3, max_terms=4)
        b = random_expression(rng, max_order=3, max_terms=4)
        s = a * b + a
        env = _random_env(rng, a.coordinates() | b.coordinates() | s.coordinates())
        lhs = s.evaluate(env)
        rhs = a.evaluate(env) * b.evaluate(env) + a.evaluate(env)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_substitute_spec_cases():
    e = P("u_t*u")
    repl = P("-u*u_x - u_xxx")
    assert e.substitute(UT, repl) == P("-u^2*u_x - u*u_xxx")
    assert P("u_x^2").substitute(UT, P("u")) == P("u_x^2")
    assert P("u_t^2").substitute(UT, P("2*u")) == P("4*u^2")


def test_substitute_rejects_self_reference():
    with pytest.raises(ExprError):
        P("u_t*u").substitute(UT, P("u_t + 1"))
    with pytest.raises(ExprError):
        P("u_t").substitute(UT, P("u_tx"))
    with pytest.raises(ExprError):
        P("sin(u)*u").substitute(U, P("1"))


def test_maximal_order():
    assert P("5").maximal_order() == (0, 0)
    assert P("t*x").maximal_order() == (0, 0)
    assert P("u_t*u_xx").maximal_order() == (0, 2)
    assert P("u_txx + u_xx").maximal_order() == (1, 2)


def test_coordinate_ordering_canonical():
    e = P("u_xx + u_tx + u_tt + u_x + u_t + u + x + t")
    names = render(e)
    assert names.index("u_xx") < names.index("u_tx") < names.index("u_tt")


def test_at_constant_state():
    e = P("u^2 + u_x^2*exp(u) + sin(u)")
    assert e.at_constant_state(0).is_zero()
    assert P("pow(u - 1, 2)").at_constant_state(3) == 4
    with pytest.raises(ExprError):
        P("pow(u, -1)").at_constant_state(0)


def test_evaluate_atoms():
    e = P("exp(u) + cos(2*u)")
    val = e.evaluate({U: 0.3})
    assert abs(val - (math.exp(0.3) + math.cos(0.6))) < 1e-14
