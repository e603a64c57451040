"""Determining condition, the adjoint-symmetry equation, and the one-stage
reference split into adjoint/symmetry + extra equations."""

import hashlib
import random

import pytest

from jetlaw import calculus
from jetlaw.expr import T, U, X, JetExpression
from jetlaw.parser import parse_expression as P, render
from jetlaw.pde import PdeSpec, parse_pde
from jetlaw.detsys import ArityError, determining_expression, split_determining_system
from jetlaw.linsolve import multiplier_arity

from conftest import full_split, random_rhs, reference_instantiate
from oracle_jet import euler as oracle_euler, same, to_sympy


KDV = "u_t + u^n*u_x + u_xxx = 0"
WAVE = "u_tt = pow(u,-4)*u_xx - 2*pow(u,-5)*u_x^2"

# Frozen from the straight-line sympy oracle: E_u(G * u_x) for n=1.
KDV_UX_RESIDUAL = "-2*u*u_xx - u_x^2 - 2*u_tx - 2*u_xxxx"


def test_trivial_and_linear_multipliers_annihilate():
    kdv = parse_pde(KDV, {"n": 1})
    assert determining_expression(kdv, P("1")).is_zero()
    assert determining_expression(kdv, P("u")).is_zero()


def test_ux_is_not_a_kdv_multiplier_frozen_oracle_value():
    kdv = parse_pde(KDV, {"n": 1})
    got = determining_expression(kdv, P("u_x"))
    assert got == P(KDV_UX_RESIDUAL)
    # recompute with the independent straight-line differentiation script
    assert same(got, oracle_euler(to_sympy(kdv.gee()) * to_sympy(P("u_x"))))


def test_determining_matches_oracle_on_probes(rng):
    kdv = parse_pde(KDV, {"n": 2})
    for probe in ("u^2", "t*u_xx", "x*u_x", "u*u_x"):
        got = determining_expression(kdv, P(probe))
        assert same(got, oracle_euler(to_sympy(kdv.gee()) * to_sympy(P(probe))))


def test_inadmissible_dependence_rejected():
    kdv = parse_pde(KDV, {"n": 1})
    with pytest.raises(ArityError):
        determining_expression(kdv, P("u_t"))
    kg = parse_pde("u_tx = sin(u)")
    with pytest.raises(ArityError):
        determining_expression(kg, P("u_tx"))
    with pytest.raises(ArityError, match="^multiplier depends on u_t, excluded for leading u_tx$"):
        determining_expression(kg, P("u_t"))
    with pytest.raises(ArityError, match="^multiplier depends on u_t, excluded for leading u_tx$"):
        split_determining_system(kg, ("x", (0, 0), (1, 0)))


def test_kdv_split_structure():
    kdv = parse_pde(KDV, {"n": 1})
    keys, sys = full_split(kdv, (T, X, U, (0, 1), (0, 2)))
    # adjoint equation + two extra families (one is a differential consequence)
    assert len(sys.equations) == 3
    assert keys[0] == ()
    # the plain-G coefficient is the paper-shaped u_x / u_xx relation:
    # instantiating it must reproduce -2*(Lam_ux - D_x Lam_uxx)
    direct = sys.equations[2]
    for cand in ("u_xx", "u_x^2", "t*u_xx + x*u", "u*u_xx"):
        lam = P(cand)
        expect = (lam.partial((0, 1)) - lam.partial((0, 2)).total("x")) * (-2)
        assert reference_instantiate(direct, lam) == expect


def test_wave_split_is_two_equations():
    wave = parse_pde(WAVE)
    keys, sys = full_split(wave, (T, X, U, (1, 0), (0, 1)))
    assert len(sys.equations) == 2
    assert keys == ((), ((("gee", 0, 0), 1),))
    # extra equation instantiated: 2 Lam_u + D_t Lam_ut - D_x Lam_ux
    from jetlaw.calculus import solution_total_derivative
    for cand in ("u_t", "x^2*u_x + x*u", "t*u"):
        lam = P(cand)
        expect = lam.partial(U) * 2 \
            + solution_total_derivative(wave, lam.partial((1, 0))) \
            - lam.partial((0, 1)).total("x")
        got = reference_instantiate(sys.equations[1], lam)
        assert got == expect


def test_klein_gordon_split_counts():
    kg = parse_pde("u_tx = sin(u)")
    _, sys = full_split(kg, (X, U, (0, 1), (0, 2), (0, 3)))
    assert len(sys.equations) == 4  # symmetry + three extra equations
    # last extra: proportional to Lam_uxx - D_x Lam_uxxx
    lam = P("x*u_xxx + u_x*u_xx")
    expect = (lam.partial((0, 2)) - lam.partial((0, 3)).total("x")) * 2
    assert reference_instantiate(sys.equations[3], lam) == expect


def test_split_soundness_on_fixture_multipliers():
    cases = [
        (parse_pde(KDV, {"n": 2}), (T, X, U, (0, 1), (0, 2)),
         "t*(u_xx + u^3/3) - x*u/3"),
        (parse_pde(WAVE), (T, X, U, (1, 0), (0, 1)), "t^2*u_t - t*u"),
        (parse_pde("u_tx = sin(u)"), (X, U, (0, 1), (0, 2), (0, 3)),
         "u_xxx + u_x^3/2"),
    ]
    for pde, arity, lam_text in cases:
        _, sys = full_split(pde, arity)
        lam = P(lam_text)
        for eq in sys.equations + split_determining_system(pde, arity).equations:
            assert reference_instantiate(eq, lam).is_zero()
        assert determining_expression(pde, lam).is_zero()


def test_zero_multiplier_satisfies_every_equation():
    kdv = parse_pde(KDV, {"n": 3})
    sys = split_determining_system(kdv, (T, X, U, (0, 1), (0, 2)))
    for eq in sys.equations:
        assert reference_instantiate(eq, P("0")).is_zero()


def test_split_equations_equivalent_to_direct_condition(rng):
    """A candidate satisfies all split equations iff E_u(G*cand) == 0, and
    every multiplier satisfies the adjoint-symmetry equation."""
    kdv = parse_pde(KDV, {"n": 1})
    arity = (T, X, U, (0, 1), (0, 2))
    _, sys = full_split(kdv, arity)
    (adjoint,) = split_determining_system(kdv, arity).equations
    probes = ["u_xx + u^2/2", "t*u - x", "u_xx", "u_x^2", "x*u_xx + u"]
    for text in probes:
        lam = P(text)
        split_zero = all(reference_instantiate(eq, lam).is_zero() for eq in sys.equations)
        direct_zero = determining_expression(kdv, lam).is_zero()
        assert split_zero == direct_zero
        assert reference_instantiate(adjoint, lam).is_zero() or not direct_zero


# ---------------------------------------------------------------------------
# The adjoint-symmetry equation against the gee-free equation of the direct
# expansion of E_u(G * Lam).

# The nine classify calls (the KdV scan as n = 1..4) and the three scale
# systems, at their ansatz orders.
CLASSIFY_CASES = [(KDV, {"n": n}, 2) for n in (1, 2, 3, 4)] + [
    (WAVE, {}, 1),
    ("u_tt = u^2*u_xx + u*u_x^2", {}, 1),
    ("u_tt = exp(2*u)*u_xx + exp(2*u)*u_x^2", {}, 1),
    ("u_tx = sin(u)", {}, 3),
    ("u_tx = exp(u) + exp(-u)", {}, 3),
    ("u_tx = exp(u)", {}, 3),
    ("u_tx = u^2", {}, 3),
    ("u_tx = u^3", {}, 3),
]
SCALE_CASES = [(KDV, {"n": 1}, 4), ("u_tx = sin(u)", {}, 4), ("u_tx = exp(u)", {}, 4)]


def _assert_split_matches_reference(pde, arity):
    system = split_determining_system(pde, arity)
    _, reference = full_split(pde, arity)
    assert system.equations == (reference.equations[0],)


@pytest.mark.parametrize("source, params, order", CLASSIFY_CASES + SCALE_CASES)
def test_split_matches_direct_expansion(source, params, order):
    pde = parse_pde(source, params)
    _assert_split_matches_reference(pde, multiplier_arity(pde, order))


@pytest.mark.parametrize("leading, order", [((1, 0), 2), ((2, 0), 1), ((1, 1), 2)])
@pytest.mark.parametrize("with_atoms", [False, True])
def test_split_matches_direct_expansion_on_random_pdes(leading, order, with_atoms):
    rng = random.Random("%s:%d:%s" % (leading, order, with_atoms))
    for _ in range(6):
        rhs = random_rhs(rng, leading, with_atoms)
        pde = PdeSpec(leading=leading, rhs=rhs)
        _assert_split_matches_reference(pde, multiplier_arity(pde, order))


def test_classify_splits_substitute_nothing(count_calls):
    # D_G*(Lam) is taken on solutions while it is differentiated, so the 12
    # classify systems leave no off-chart jet to substitute away.
    substitute = count_calls(JetExpression, "substitute")
    eliminate = count_calls(calculus, "eliminate_off_chart")
    for source, params, order in CLASSIFY_CASES:
        pde = parse_pde(source, params)
        split_determining_system(pde, multiplier_arity(pde, order))
    assert (substitute.calls, eliminate.calls) == (0, 0)


def test_kdv_order_six_split_digest():
    """The order-6 KdV adjoint-symmetry equation, frozen from the direct
    expansion."""
    kdv = parse_pde(KDV, {"n": 1})
    (equation,) = split_determining_system(kdv, multiplier_arity(kdv, 6)).equations
    assert len(equation.terms) == 190
    assert hashlib.sha256(render(equation).encode()).hexdigest() == \
        "559f608de76107b2096141c9dd4d84c02ff5889d3b848984ddecc84c416e261b"
