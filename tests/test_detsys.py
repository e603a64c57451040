"""Determining condition and the split into adjoint/symmetry + extra equations."""

import pytest

from jetlaw.expr import ExprError, T, U, X
from jetlaw.parser import parse_expression as P, render
from jetlaw.pde import parse_pde
from jetlaw.detsys import (
    ArityError,
    SplitError,
    _check_first_order_wave_split,
    determining_expression,
    split_determining_system,
)
from jetlaw.linsolve import instantiate

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


def test_kdv_split_structure():
    kdv = parse_pde(KDV, {"n": 1})
    sys = split_determining_system(kdv, (T, X, U, (0, 1), (0, 2)))
    # adjoint equation + two extra families (one is a differential consequence)
    assert len(sys.equations) == 3
    assert sys.gee_keys[0] == ()
    # the plain-G coefficient is the paper-shaped u_x / u_xx relation:
    # instantiating it must reproduce -2*(Lam_ux - D_x Lam_uxx)
    direct = sys.equations[2]
    for cand in ("u_xx", "u_x^2", "t*u_xx + x*u", "u*u_xx"):
        lam = P(cand)
        expect = (lam.partial((0, 1)) - lam.partial((0, 2)).total("x")) * (-2)
        assert instantiate(direct, lam) == expect


def test_wave_split_is_two_equations():
    wave = parse_pde(WAVE)
    sys = split_determining_system(wave, (T, X, U, (1, 0), (0, 1)))
    assert len(sys.equations) == 2
    assert sys.gee_keys == ((), ((("gee", 0, 0), 1),))
    # extra equation instantiated: 2 Lam_u + D_t Lam_ut - D_x Lam_ux
    from jetlaw.calculus import solution_total_derivative
    for cand in ("u_t", "x^2*u_x + x*u", "t*u"):
        lam = P(cand)
        expect = lam.partial(U) * 2 \
            + solution_total_derivative(wave, lam.partial((1, 0))) \
            - lam.partial((0, 1)).total("x")
        got = instantiate(sys.equations[1], lam)
        assert got == expect


def test_klein_gordon_split_counts():
    kg = parse_pde("u_tx = sin(u)")
    sys = split_determining_system(kg, (X, U, (0, 1), (0, 2), (0, 3)))
    assert len(sys.equations) == 4  # symmetry + three extra equations
    # last extra: proportional to Lam_uxx - D_x Lam_uxxx
    lam = P("x*u_xxx + u_x*u_xx")
    expect = (lam.partial((0, 2)) - lam.partial((0, 3)).total("x")) * 2
    assert instantiate(sys.equations[3], lam) == expect


def test_unexpected_wave_split_key_is_typed_error():
    _check_first_order_wave_split(((), ((("gee", 0, 0), 1),)))
    with pytest.raises(ExprError) as err:
        _check_first_order_wave_split(((), ((("gee", 1, 0), 1),)))
    assert isinstance(err.value, SplitError)
    assert "gee" in str(err.value)


def test_split_soundness_on_fixture_multipliers():
    cases = [
        (parse_pde(KDV, {"n": 2}), (T, X, U, (0, 1), (0, 2)),
         "t*(u_xx + u^3/3) - x*u/3"),
        (parse_pde(WAVE), (T, X, U, (1, 0), (0, 1)), "t^2*u_t - t*u"),
        (parse_pde("u_tx = sin(u)"), (X, U, (0, 1), (0, 2), (0, 3)),
         "u_xxx + u_x^3/2"),
    ]
    for pde, arity, lam_text in cases:
        sys = split_determining_system(pde, arity)
        lam = P(lam_text)
        for eq in sys.equations:
            assert instantiate(eq, lam).is_zero()
        assert determining_expression(pde, lam).is_zero()


def test_zero_multiplier_satisfies_every_equation():
    kdv = parse_pde(KDV, {"n": 3})
    sys = split_determining_system(kdv, (T, X, U, (0, 1), (0, 2)))
    for eq in sys.equations:
        assert instantiate(eq, P("0")).is_zero()


def test_split_equations_equivalent_to_direct_condition(rng):
    """A candidate satisfies all split equations iff E_u(G*cand) == 0."""
    kdv = parse_pde(KDV, {"n": 1})
    sys = split_determining_system(kdv, (T, X, U, (0, 1), (0, 2)))
    probes = ["u_xx + u^2/2", "t*u - x", "u_xx", "u_x^2", "x*u_xx + u"]
    for text in probes:
        lam = P(text)
        split_zero = all(instantiate(eq, lam).is_zero() for eq in sys.equations)
        direct_zero = determining_expression(kdv, lam).is_zero()
        assert split_zero == direct_zero
