"""Expression kernel: parsing, normalization, ring laws, evaluation."""

import cmath
import math
import pickle
import random
import re
import time
from fractions import Fraction

import pytest

import jetlaw.expr as expr_module
from jetlaw.expr import (
    CoefficientError, JetExpression, ExpansionError, ExprError, U, UT, UX, cos_atom, exp_atom,
    lam_atom, lam_bump, pow_atom, rational_pow, sin_atom,
)
from jetlaw.linsolve import (
    AnsatzBounds, assemble, generate_ansatz_basis, multiplier_arity,
)
from jetlaw.parser import ParseError, parse_expression, render
from jetlaw.pde import parse_pde

from conftest import evaluate, full_split, random_expression

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


@pytest.mark.parametrize("text, pos", [("²", 0), ("u^²", 2), ("2*u + ¹", 6), ("３", 0)])
def test_non_ascii_digits_are_parse_errors(text, pos):
    with pytest.raises(ParseError, match="unexpected character") as err:
        P(text)
    assert err.value.pos == pos


def test_unknown_symbol_and_position():
    with pytest.raises(ParseError) as err:
        P("u + q")
    assert "q" in str(err.value)
    with pytest.raises(ParseError):
        P("u + ")


def test_nesting_limit_is_a_parse_error():
    from jetlaw.parser import MAX_DEPTH
    assert P("(" * MAX_DEPTH + "u" + ")" * MAX_DEPTH) == P("u")
    for text in ("(" * (MAX_DEPTH + 1) + "u" + ")" * (MAX_DEPTH + 1),
                 "(" * 2000 + "u" + ")" * 2000,
                 "exp(" * 2000 + "u" + ")" * 2000,
                 "pow(" * 2000 + "u, 2)" * 2000):
        with pytest.raises(ParseError, match="nesting"):
            P(text)


def test_expansion_limit_is_a_parse_error():
    from jetlaw.expr import MAX_BINOMIAL_TERMS
    from jetlaw.parser import MAX_TERMS
    # A nonzero affine base expands by the normal form's binomial rule, as
    # pow() does, to n + 1 terms; a base of one term gives one term however
    # large n is.
    start = time.perf_counter()
    assert P("(u+1)^3000") == P("pow(u + 1, 3000)")
    assert P("u^%d" % 10 ** 9) == P("pow(u, %d)" % 10 ** 9) == JetExpression.from_raw(
        [(1, {U: 10 ** 9})])
    assert P("2^100000") == JetExpression.rational(2 ** 100000)
    assert P("(-u/2)^1001") == JetExpression.from_raw([(Fraction(-1, 2 ** 1001), {U: 1001})])
    # u^m beside pow(a*u, r) rebases to the one term pow(a*u, r + m)/a^m.
    assert P("u^20000*pow(u,1/2)") == P("pow(u, 40001/2)")
    assert time.perf_counter() - start < 5
    # At b != 0 the rebase and sin^p = sin^(p - 2m) (1 - cos^2)^m, m = p // 2,
    # expand to m + 1 terms in one step, and past the bound not at all.
    start = time.perf_counter()
    assert len(JetExpression.from_raw([(1, {sin_atom(1): 60})]).terms) == 31
    assert len(JetExpression.from_raw([(1, {sin_atom(1): 61, cos_atom(1): 1})]).terms) == 31
    for text, count in (("u^20000*pow(u+1,1/2)", 20001), ("u^4000*pow(u+1,1/2)", 4001)):
        with pytest.raises(ExpansionError, match="^expansion may hold %d terms, more than %d$"
                           % (count, MAX_BINOMIAL_TERMS)):
            P(text)
    with pytest.raises(ExpansionError, match="may hold 3002 terms"):
        JetExpression.from_raw([(1, {sin_atom(2): 6003})])
    assert time.perf_counter() - start < 1
    n = MAX_BINOMIAL_TERMS
    for text, count in (("(u+1)^%d" % n, n + 1), ("pow(u - 2, %d)" % n, n + 1),
                        ("(u+1)^100000", 100001)):
        with pytest.raises(ParseError, match="may hold %d terms, more than %d" % (count, n)) as err:
            P(text)
        assert text[err.value.pos] in "^p"
    # A one-term base at a nonnegative integer power, or a lone exp or pow
    # atom at any rational one, enters the normal form as one raw term, so
    # its binomial rule expands it once, under the same bound.
    start = time.perf_counter()
    assert len(P("sin(u)^4000").terms) == 2001
    assert len(P("pow(u+1,1/2)^2000").terms) == 1001
    assert time.perf_counter() - start < 1
    assert P("pow(2*u-3,-1/3)^7") == P("pow(2*u-3,-7/3)")
    for text, count in (("sin(u)^12004", 6003), ("pow(u+1,1/2)^8000", 4001)):
        with pytest.raises(ParseError, match="may hold %d terms, more than %d" % (count, n)) as err:
            P(text)
        assert err.value.pos == text.index("^")

    def poly(var, k):
        return "(" + " + ".join("%s^%d" % (var, i) for i in range(1, k + 1)) + ")"

    side = math.isqrt(MAX_TERMS)
    assert len(P(poly("x", side) + "*" + poly("t", side)).terms) == side * side
    k = max(k for k in range(MAX_TERMS) if math.comb(k + 1, 2) <= MAX_TERMS)
    assert len(P(poly("x", k) + "^2").terms) == 2 * k - 1
    assert P("u_x^%d" % 10 ** 6) == JetExpression.from_raw([(1, {(0, 1): 10 ** 6})])
    for text, count in ((poly("x", side + 1) + "*" + poly("t", side), (side + 1) * side),
                        (poly("x", k + 1) + "^2", math.comb(k + 2, 2)),
                        ("(u_x + u_xx)^%d" % MAX_TERMS, MAX_TERMS + 1),
                        ("(u + u_x + u_xx)^200", math.comb(202, 200))):
        with pytest.raises(ParseError, match="may hold %d terms" % count) as err:
            P(text)
        assert text[err.value.pos] in "*^"


def test_long_runs_of_signs_parse_without_recursion():
    assert P("-" * 2000 + "u") == P("u")
    assert P("-" * 2001 + "u") == P("-u")
    assert P("+-" * 1500 + "u_x") == P("u_x")
    assert P("2*" + "-" * 3 + "u^2") == P("-2*u^2")


def test_parameters_substituted_exactly():
    assert P("u^n/n", {"n": 3}) == P("u^3/3")
    assert P("pow(u - u0, r)", {"u0": 1, "r": Fraction(-1, 2)}) \
        == JetExpression.atom(pow_atom(1, -1, Fraction(-1, 2)))


@pytest.mark.parametrize("name", ["t", "x", "u", "u_t", "u_xx", "u_xt",
                                  "exp", "sin", "cos", "pow"])
def test_parameter_named_as_a_grammar_symbol_is_refused(name):
    with pytest.raises(ExprError, match=re.escape("parameter %r names a symbol" % name)):
        P("u_xx + n", {"n": 1, name: 1})


def test_power_atom_normalizations():
    assert P("pow(u, 3)") == P("u^3")
    assert P("pow(u - 1, 2)") == P("u^2 - 2*u + 1")
    assert P("pow(u, -4)*u^2") == P("pow(u, -2)")
    assert P("pow(u, -4)*u^4") == 1
    assert P("pow(2*u, -2)") == P("pow(u, -2)") * Fraction(1, 4)
    assert P("exp(u)*exp(-u)") == 1
    assert P("exp(u)^2") == P("exp(2*u)")
    assert P("pow(0, 0)") == 1
    # Same-root bases combine onto the one whose conversion factor is rational.
    assert P("pow(2*u-3,-1/3)*pow(2*u-3,-2/3)*pow(2*u-3,-4/3)") == P("pow(2*u-3,-7/3)")
    assert P("pow(u-1,1/2)*pow(1-u,-1)") == -P("pow(u-1,-1/2)")
    # 2^(1/3) is irrational, so these two stay apart.
    ((_, atoms),) = P("pow(2*u-3,-1/3)*pow(u-3/2,1/3)").terms
    assert len(atoms) == 2


def test_u_beside_two_same_base_pow_atoms():
    raw = {U: 1, pow_atom(1, 0, Fraction(1, 2)): 1, pow_atom(1, 0, Fraction(3, 2)): 1}
    assert JetExpression.from_raw([(1, raw)]) == P("u^3")


def test_negative_powers_of_trig_and_formal_atoms_are_rejected():
    for a in (sin_atom(-1), sin_atom(2, 1), cos_atom(1), cos_atom(-1, 3),
              lam_atom(_ARITY)):
        for p in (-1, -2):
            with pytest.raises(ExprError, match="negative power"):
                JetExpression.from_raw([(1, {a: p, UX: 1})])
    assert JetExpression.from_raw([(1, {exp_atom(2): -1})]) == JetExpression.atom(exp_atom(-2))
    assert JetExpression.from_raw([(1, {pow_atom(1, 1, Fraction(1, 2)): -2})]) \
        == JetExpression.atom(pow_atom(1, 1, -1))
    for k in (U, UX, "x"):
        with pytest.raises(ExprError, match="^negative coordinate power$"):
            JetExpression.from_raw([(1, {k: -1})])
    # A power is an int; an exp or pow atom also takes an exact rational one,
    # and a float power is not exact.
    for k, p in ((U, Fraction(1, 2)), (UX, Fraction(2)), (sin_atom(1), Fraction(3, 2)),
                 (U, True), (lam_atom(_ARITY), Fraction(1)), (exp_atom(1), True)):
        with pytest.raises(ExprError, match=r"^power .* is not an int$"):
            JetExpression.from_raw([(1, {k: p})])
    for k in (U, cos_atom(1), exp_atom(1), pow_atom(1, 1, Fraction(1, 2))):
        with pytest.raises(CoefficientError):
            JetExpression.from_raw([(1, {k: 2.5})])
    assert JetExpression.from_raw([(1, {exp_atom(2): Fraction(1, 2)})]) == P("exp(u)")
    # A factor must be t, x, a jet of nonnegative ints, or a kernel or lam
    # atom of its tag's length.
    for k in ((-1, 0), (0, 0, 0), (1, Fraction(1)), (True, 0), "y", ("foo", 1), ("exp", 1),
              ("pow", 1, 0), ()):
        with pytest.raises(ExprError, match=r"^not a coordinate or an atom: "):
            JetExpression.from_raw([(1, {k: 1, U: 2})])
    for k in ((-1, 0), (0, 0, 0), (0, -2), ("exp", 1, 0), "u"):
        with pytest.raises(ExprError, match=r"^not a coordinate: "):
            JetExpression.coordinate(k)


_RAW_POINT = {"t": 0.31, "x": -0.57, U: 0.7137, UX: 1.23, UT: -0.41}
_RAW_ALPHAS = [Fraction(a) for a in (0, 1, -1, 2, Fraction(1, 2))]
_RAW_BETAS = [Fraction(b) for b in (0, 1, -1, Fraction(3, 2), 4)]
_RAW_EXPONENTS = [Fraction(r) for r in (0, 1, 2, 3, -1, Fraction(1, 2), Fraction(-1, 2),
                                        Fraction(3, 2))]


def _raw_factor_value(k, p):
    """The float value of factor k at _RAW_POINT, raised to p (complex when a
    negative base takes a fractional power; None at a pole)."""
    if not isinstance(k[0], str) or k in ("t", "x"):
        return _RAW_POINT[k] ** p
    arg = float(k[1]) * _RAW_POINT[U] + float(k[2])
    if k[0] != "pow":
        return {"exp": math.exp, "sin": math.sin, "cos": math.cos}[k[0]](arg) ** p
    if arg == 0 and k[3] < 0:
        return None
    return complex(arg) ** float(k[3] * p)  # (z^r)^p = z^(r p) for integer p


def test_normal_form_keeps_the_value_of_raw_terms():
    """Every seeded raw term either raises ExprError or normalizes to an
    expression with the float value of the product of its factors."""
    rng = random.Random(20261018)
    checked = 0
    for _ in range(4000):
        factors = {k: p for k in ("t", "x", U, UX, UT) if (p := rng.randrange(4))}
        for _ in range(rng.randrange(5)):
            tag = rng.choice(("exp", "sin", "cos", "pow"))
            atom = (tag, rng.choice(_RAW_ALPHAS), rng.choice(_RAW_BETAS))
            if tag == "pow":
                atom += (rng.choice(_RAW_EXPONENTS),)
            factors[atom] = factors.get(atom, 0) + rng.randint(1, 3)
        coeff = Fraction(rng.choice((1, -2, 3)), rng.choice((1, 2)))
        want = complex(coeff)
        for k, p in factors.items():
            v = _raw_factor_value(k, p)
            want = None if v is None or want is None else want * v
        if want is None or want.imag != 0 or not cmath.isfinite(want):
            continue
        try:
            got = JetExpression.from_raw([(coeff, factors)])
        except ExprError:
            continue
        checked += 1
        # relative to the summed term sizes, since binomial expansions cancel
        size = sum(abs(evaluate(JetExpression({sig: c}), _RAW_POINT))
                   for sig, c in got.terms.items())
        assert abs(evaluate(got, _RAW_POINT) - want.real) <= 1e-9 * size, (coeff, factors, got)
    assert checked > 3000


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


def test_fractional_power_of_a_single_atom():
    assert P("exp(2*u)^(1/2)") == P("exp(u)")
    assert P("(4*exp(u))^(1/2)") == P("2*exp(1/2*u)")
    assert P("pow(u+1,-1)^(1/2)") == P("pow(u + 1, -1/2)")
    for text, coeff in (("(2*exp(u))^(1/2)", "2"), ("(-4*exp(u))^(1/2)", "-4")):
        with pytest.raises(ParseError, match="coefficient %s has no rational power 1/2" % coeff):
            P(text)


def test_round_trip_fixed_forms():
    samples = [
        "u_t + u^2*u_x + u_xxx",
        "1/2*t*u_x^2*exp(2*u + 1)",
        "pow(u - 1, -1/2)*x",
        "cos(u)^3 - sin(u)*cos(u)",
        "0",
        "-u + 5",
        # kernel atoms whose argument has no u
        "exp(2)",
        "u*sin(1)",
        "pow(2, 1/2)",
        "cos(-3)",
    ]
    for s in samples:
        e = P(s)
        assert P(render(e)) == e
    assert render(P("cos(-3)")) == "cos(3)"
    assert repr(P("u_x + 1/2")) == "JetExpression('1/2 + u_x')"


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
        env = _random_env(rng, a.jets() | b.jets() | s.jets())
        lhs = evaluate(s, env)
        rhs = evaluate(a, env) * evaluate(b, env) + evaluate(a, env)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_jets_of_a_lam_atom_are_the_jets_of_its_arity():
    arity = ("t", "x", U, UX, (0, 2))
    assert JetExpression.atom(lam_atom(arity)).jets() == {U, UX, (0, 2)}


def test_substitute_spec_cases():
    e = P("u_t*u")
    repl = P("-u*u_x - u_xxx")
    assert e.substitute(UT, repl) == P("-u^2*u_x - u*u_xxx")
    assert P("u_x^2").substitute(UT, P("u")) == P("u_x^2")
    assert P("u_t^2").substitute(UT, P("2*u")) == P("4*u^2")


def _substitute_term_by_term(e, target, replacement):
    out = JetExpression.zero()
    for (mono, atoms), c in e.terms.items():
        power = dict(mono).get(target, 0)
        rest = tuple((k, p) for k, p in mono if k != target)
        out = out + JetExpression({(rest, atoms): c}) * replacement ** power
    return out


def test_substitute_matches_term_by_term(rng):
    cases = [(UT, dict(max_order=3, max_terms=4, pure_x=True)),
             ((0, 3), dict(max_order=2, max_terms=4)),
             ((1, 1), dict(max_order=2, max_terms=3, pure_x=True))]
    for _ in range(60):
        for target, shape in cases:
            e = random_expression(rng, max_order=4, max_terms=8)
            e = e + e * JetExpression.coordinate(target) ** rng.randint(1, 3)
            replacement = random_expression(rng, **shape)
            assert e.substitute(target, replacement) == \
                _substitute_term_by_term(e, target, replacement)
    e = random_expression(rng, max_order=3, with_atoms=False)
    line = P("2*t - x + 1/3")
    assert e.substitute(U, line) == _substitute_term_by_term(e, U, line)


def test_substitute_rejects_self_reference():
    with pytest.raises(ExprError):
        P("u_t*u").substitute(UT, P("u_t + 1"))
    with pytest.raises(ExprError):
        P("u_t").substitute(UT, P("u_tx"))
    with pytest.raises(ExprError):
        P("sin(u)*u").substitute(U, P("x"))
    with pytest.raises(ExprError, match="^substitution target must be a jet coordinate$"):
        P("u*t").substitute("t", P("1"))


def test_operations_outside_the_fragment_are_expr_errors():
    with pytest.raises(ExprError, match="^expression powers must be nonnegative integers$"):
        P("u + 1") ** -1
    with pytest.raises(ExprError, match="^direction must be 't' or 'x'$"):
        P("u").total("y")
    with pytest.raises(ParseError, match=r"^pow exponent must be a rational constant \(at position 4\)$"):
        P("2 + pow(u, u)")


def test_coordinate_ordering_canonical():
    e = P("u_xx + u_tx + u_tt + u_x + u_t + u + x + t")
    names = render(e)
    assert names.index("u_xx") < names.index("u_tx") < names.index("u_tt")


def test_at_constant_state():
    e = P("u^2 + u_x^2*exp(u) + sin(u)")
    assert e.substitute(UX, 0).substitute(U, 0).is_zero()
    assert P("u_x*exp(u)").substitute(U, 0) == P("u_x")
    assert P("pow(u - 1, 2)").substitute(U, 3) == 4
    assert P("pow(u - 1, 1/2)*u").substitute(U, 5) == 10
    assert P("sin(u)*u").substitute(U, P("1")) == P("sin(1)")
    assert P("exp(2*u)").substitute(U, Fraction(1, 2)) == P("exp(1)")
    with pytest.raises(ExprError):
        P("pow(u, -1)").substitute(U, 0)


def test_evaluate_atoms():
    e = P("exp(u) + cos(2*u)")
    val = evaluate(e, {U: 0.3})
    assert abs(val - (math.exp(0.3) + math.cos(0.6))) < 1e-14


def test_evaluate_requires_u_for_u_dependent_atoms():
    with pytest.raises(ExprError):
        evaluate(P("exp(u) + u_x"), {UX: 1.0})
    assert evaluate(P("sin(1)*u_x"), {UX: 2.0}) == 2.0 * math.sin(1.0)
    assert evaluate(P("exp(u) + u_x"), {U: 0.0, UX: 1.0}) == 2.0


def test_monomial_pairs_are_shared():
    a = P("u_x^2*u_xx + 3*u*u_x^2")
    b = P("u_x^2*exp(u)").total("x")
    pairs = {pair for sig in a.terms for pair in sig[0]}
    for sig in b.terms:
        for pair in sig[0]:
            twin = next((q for q in pairs if q == pair), None)
            assert twin is None or twin is pair
    assert any(pair in pairs for sig in b.terms for pair in sig[0])


def _kernel_atoms(e):
    return [a for _, atoms in e.terms for a, _ in atoms if a[0] != "lam"]


def test_equal_kernel_atoms_are_one_object():
    cos = _kernel_atoms(JetExpression.atom(cos_atom(2, 1)))[0]
    routes = [
        P("cos(2*u + 1)"),
        P("sin(2*u + 1)^2"),                   # sin^2 -> 1 - cos^2
        P("sin(2*u + 1)").partial(U),          # d/du sin = cos
        P("cos(-2*u - 1)*u_x"),                # cos is even
    ]
    for e in routes:
        assert all(a is cos for a in _kernel_atoms(e) if a == cos)
        assert any(a == cos for a in _kernel_atoms(e))
    half = _kernel_atoms(P("pow(u + 1, 3/2)"))[0]
    rebased = P("u*pow(u + 1, 1/2)")           # u rebases onto u + 1
    assert any(a is half for a in _kernel_atoms(rebased))
    assert any(a is half for a in _kernel_atoms(P("pow(u + 1, 5/2)").partial(U)))
    assert any(a is half for a in _kernel_atoms(P("pow(4*u + 4, 3/2)")))  # scale 4^(3/2)


def test_interned_atoms_hash_as_plain_tuples():
    atom = _kernel_atoms(P("exp(u/2 + 1)"))[0]
    plain = ("exp", Fraction(1, 2), Fraction(1))
    assert type(atom) is not tuple and tuple(atom) == plain
    assert hash(atom) == hash(plain) == hash(tuple(atom))
    assert {plain: 1}[atom] == 1 and {atom: 1}[plain] == 1
    assert repr(atom) == repr(plain)


def test_unpickled_atoms_are_the_interned_ones():
    e = P("exp(u/2 + 1)*u_x + sin(3*u)*pow(u + 2, 1/3)")
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and copy.terms is not e.terms
    assert all(a is b for a, b in zip(_kernel_atoms(copy), _kernel_atoms(e)))


def test_formal_atoms_are_not_interned():
    lam = lam_atom(("x", U, UX))
    e = JetExpression.atom(lam) * P("exp(u)") + JetExpression.atom(lam_bump(lam, UX))
    formal = [a for _, atoms in e.terms for a, _ in atoms if a[0] == "lam"]
    assert len(formal) == 2 and all(type(a) is tuple for a in formal)
    assert not any(a in expr_module._ATOMS for a in formal)


def test_intern_tables_do_not_grow_over_fresh_draws():
    from perfbench.workloads import Operators

    def with_atoms(key):
        head = key[0] if key else None
        return type(head) is expr_module._Atom or (
            type(head) is tuple and type(head[0]) is expr_module._Atom)

    workload = Operators(5)
    sizes = []
    for k in (1, 2, 3):
        for op in workload.ops(k):
            assert op.check(op.run()) == []
        # Monomial pairs are left out: a fresh draw may meet a new power of
        # a jet, and that pair is shared from then on.
        sizes.append((len(expr_module._ATOMS), sum(map(with_atoms, expr_module._PAIRS))))
    assert sizes == [sizes[0]] * 3


def test_shared_pairs_do_not_grow_over_repeated_splits():
    from perfbench.workloads import Classify, Scale

    # Splits share their lam pairs and atom tuples through _PAIRS too; the
    # same inputs meet the same values, so the table stops growing after one
    # pass, and no lam atom is interned.
    for workload in (Classify(5), Scale(5)):
        sizes = []
        for k in (1, 2, 3):
            for op in workload.ops(k):
                assert op.check(op.digest(op.run())) == []
            sizes.append(len(expr_module._PAIRS))
        assert sizes == [sizes[0]] * 3
    assert any(type(key[0]) is tuple and key[0][0] == "lam" for key in expr_module._PAIRS if key)
    assert not any(a[0] == "lam" for a in expr_module._ATOMS)


# ---------------------------------------------------------------------------
# Products, partials and total derivatives build normalized terms directly;
# these references send every raw term through the full rewrite search
# instead.

def _reference_mul(a, b):
    raw = []
    for sig1, c1 in a.terms.items():
        for sig2, c2 in b.terms.items():
            f = expr_module._sig_factors(sig1)
            for k, p in expr_module._sig_factors(sig2).items():
                f[k] = f.get(k, 0) + p
            raw.append((c1 * c2, f))
    return JetExpression.from_raw(raw)


def _reference_partial(e, v):
    raw = []

    def swap(c, factors, old, new):
        f = {**factors, old: factors[old] - 1}
        f[new] = f.get(new, 0) + 1
        raw.append((c, f))

    for (mono, atoms), c in e.terms.items():
        factors = expr_module._sig_factors((mono, atoms))
        for k, p in mono:
            if k == v:
                raw.append((c * p, {**factors, k: p - 1}))
        for a, p in atoms:
            if a[0] == "lam":
                if v in a[1]:
                    swap(c * p, factors, a, lam_bump(a, v))
            elif v == U and a[1] != 0:
                for dc, da in expr_module._atom_derivative(a):
                    swap(c * p * dc, factors, a, da)
    return JetExpression.from_raw(raw)


def _reference_total(e, direction):
    """D_t or D_x term by term, every raw term through the rewrite search."""
    u1 = UT if direction == "t" else UX
    raw = []

    def swap(c, factors, old, new, extra=None):
        f = {**factors, old: factors[old] - 1}
        f[new] = f.get(new, 0) + 1
        if extra is not None:
            f[extra] = f.get(extra, 0) + 1
        raw.append((c, f))

    for (mono, atoms), c in e.terms.items():
        factors = expr_module._sig_factors((mono, atoms))
        for k, p in mono:
            if k == direction:
                raw.append((c * p, {**factors, k: p - 1}))
            elif k not in ("t", "x"):
                swap(c * p, factors, k, expr_module.bump(k, direction))
        for a, p in atoms:
            if a[0] == "lam":
                if direction in a[1]:
                    swap(c * p, factors, a, lam_bump(a, direction))
                for k in a[1]:
                    if k not in ("t", "x"):
                        swap(c * p, factors, a, lam_bump(a, k), expr_module.bump(k, direction))
            elif a[1] != 0:
                for dc, da in expr_module._atom_derivative(a):
                    swap(c * p * dc, factors, a, da, u1)
    return JetExpression.from_raw(raw)


_ARITY = ("t", "x", U, UX)
_RICH_POOL = (
    pow_atom(2, 1, Fraction(1, 3)), pow_atom(1, 0, Fraction(-1, 2)),
    pow_atom(Fraction(1, 2), -1, Fraction(5, 2)), pow_atom(0, 2, Fraction(1, 2)),
    pow_atom(1, -2, -1), exp_atom(Fraction(-1, 2)), exp_atom(1, 3),
    sin_atom(2, 1), cos_atom(2, 1), cos_atom(1),
    lam_atom(_ARITY), lam_atom(_ARITY, (UX,)), lam_atom(_ARITY, (U, "x")),
)


def _rich_expression(rng, pool=_RICH_POOL):
    raw = []
    for _ in range(rng.randint(1, 5)):
        factors = {}
        for _ in range(rng.randint(0, 3)):
            k = rng.choice((U, U, UX, UT, (0, 2), "t", "x"))
            factors[k] = factors.get(k, 0) + rng.randint(1, 2)
        for _ in range(rng.randint(0, 2)):
            a = rng.choice(pool)
            factors[a] = factors.get(a, 0) + 1
        raw.append((Fraction(rng.randint(1, 5) * rng.choice((-1, 1)),
                             rng.randint(1, 3)), factors))
    return JetExpression.from_raw(raw)


_EXACT_PRODUCTS = [
    ("u", "pow(u + 1, 1/2)"),            # u meets a live pow atom
    ("u^2*u_x", "pow(2*u - 1, -3/2)"),
    ("u*t + x", "pow(u, -1/2) + u_x"),
    ("sin(u)*u_x", "sin(u) + cos(u)*u"),  # kernel atoms on both sides
    ("exp(u)*u", "exp(-u)*u_xx"),
    ("u*u_x^2", "u^3*u_x + t*u_x"),       # shared coordinates add powers
    ("pow(3, 1/2)*u", "pow(3, 1/2)*u_x"),
]


def _same_terms(x, y):
    assert list(x.terms.items()) == list(y.terms.items())


def test_product_matches_reference_on_fixed_cases():
    for left, right in _EXACT_PRODUCTS:
        a, b = P(left), P(right)
        _same_terms(a * b, _reference_mul(a, b))
        _same_terms(b * a, _reference_mul(b, a))


def test_product_matches_reference_random(rng):
    for _ in range(300):
        a = random_expression(rng, max_order=3, max_terms=5)
        b = random_expression(rng, max_order=3, max_terms=5)
        _same_terms(a * b, _reference_mul(a, b))
    for _ in range(400):
        a, b = _rich_expression(rng), _rich_expression(rng)
        _same_terms(a * b, _reference_mul(a, b))


def test_partial_matches_reference_random(rng):
    coords = ("t", "x", U, UT, UX, (0, 2))
    for _ in range(300):
        e = random_expression(rng, max_order=3, max_terms=6)
        for v in coords:
            _same_terms(e.partial(v), _reference_partial(e, v))
        e = _rich_expression(rng)
        for v in coords:
            _same_terms(e.partial(v), _reference_partial(e, v))


def test_total_matches_reference_random(rng):
    for _ in range(300):
        for e in (random_expression(rng, max_order=3, max_terms=6), _rich_expression(rng)):
            for direction in ("t", "x"):
                got, want = e.total(direction), _reference_total(e, direction)
                assert got == want and want == got


def _count_canon_calls(monkeypatch):
    calls = []
    original = expr_module._canon_term

    def counting(coeff, factors):
        calls.append(1)
        return original(coeff, factors)

    monkeypatch.setattr(expr_module, "_canon_term", counting)
    return calls


@pytest.mark.parametrize("source, params, bounds", [
    ("u_t + u^n*u_x + u_xxx = 0", {"n": 1}, AnsatzBounds(order=2, deg_tx=1, deg_u=2)),
    ("u_tx = sin(u)", {}, AnsatzBounds(order=3, deg_tx=1, deg_u=3)),
])
def test_assemble_needs_no_rewrite_search(monkeypatch, source, params, bounds):
    pde = parse_pde(source, params)
    _, system = full_split(pde, multiplier_arity(pde, bounds.order))
    ansatz = generate_ansatz_basis(pde, bounds)
    calls = _count_canon_calls(monkeypatch)
    linsys = assemble(system, ansatz)
    assert linsys.rows and not calls


def test_total_needs_no_rewrite_search_without_kernel_atoms(rng, monkeypatch):
    formal = tuple(a for a in _RICH_POOL if a[0] == "lam")
    draws = [random_expression(rng, max_order=4, with_atoms=False) for _ in range(100)]
    draws += [_rich_expression(rng, formal) for _ in range(100)]
    calls = _count_canon_calls(monkeypatch)
    for e in draws:
        e.total("t"), e.total("x")
    assert not calls
