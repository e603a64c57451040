"""Ansatz enumeration, assembly, and exact rational nullspaces."""

from fractions import Fraction
from math import comb

import pytest

from jetlaw.expr import ExprError, JetExpression, exp_atom, lam_atom
from jetlaw.parser import parse_expression as P, render
from jetlaw.pde import parse_pde
from jetlaw.detsys import determining_expression, split_determining_system
from jetlaw.linsolve import (
    AnsatzBounds,
    RationalLinearSystem,
    assemble,
    generate_ansatz_basis,
    in_span,
    instantiate,
    multiplier_arity,
    nullspace,
    same_span,
    solve_multipliers,
)

KDV = "u_t + u^n*u_x + u_xxx = 0"
WAVE = "u_tt = pow(u,-4)*u_xx - 2*pow(u,-5)*u_x^2"


def _monomial_count(nvars, deg):
    return sum(comb(d + nvars - 1, nvars - 1) for d in range(deg + 1))


def test_basis_enumeration_count_kdv():
    kdv = parse_pde(KDV, {"n": 1})
    bounds = AnsatzBounds(order=2, deg_tx=1, deg_u=2)
    space = generate_ansatz_basis(kdv, bounds)
    # (1 + t + x) x (monomials in u, u_x, u_xx of degree <= 2)
    assert len(space.basis) == 3 * _monomial_count(3, 2)
    rendered = {render(b) for b in space.basis}
    for expect in ("1", "t", "x", "u", "t*u", "x*u", "u^2", "u_x", "u_xx", "t*u_xx"):
        assert expect in rendered


def test_basis_klein_gordon_pure_x():
    kg = parse_pde("u_tx = sin(u)")
    space = generate_ansatz_basis(kg, AnsatzBounds(order=3, deg_tx=1, deg_u=3))
    rendered = {render(b) for b in space.basis}
    assert "u_xxx" in rendered and "u_x^3" in rendered
    assert "t" not in rendered  # pure-x multiplier chart
    assert all("u_t" not in s for s in rendered)


def test_basis_includes_requested_atoms():
    wave = parse_pde(WAVE)
    atom = exp_atom(Fraction(-1, 2))
    space = generate_ansatz_basis(wave, AnsatzBounds(order=1, deg_tx=2,
                                                     deg_u=1, atoms=(atom,)))
    rendered = {render(b) for b in space.basis}
    assert "t^2*u_t" in rendered
    assert "exp(-1/2*u)" in rendered
    assert "t*exp(-1/2*u)" in rendered


def test_empty_basis_rejected():
    kdv = parse_pde(KDV, {"n": 1})
    with pytest.raises(ExprError):
        generate_ansatz_basis(kdv, AnsatzBounds(order=2, deg_tx=-1, deg_u=-1))


def test_wave_order_above_one_rejected():
    wave = parse_pde(WAVE)
    with pytest.raises(ExprError):
        generate_ansatz_basis(wave, AnsatzBounds(order=2, deg_tx=0, deg_u=1))


def test_single_constant_basis_element():
    kdv = parse_pde(KDV, {"n": 4})
    ansatz, mults = solve_multipliers(kdv, AnsatzBounds(order=0, deg_tx=0, deg_u=0))
    assert [render(m) for m in mults] == ["1"]


def test_nullspace_small_system_normalization():
    sys = RationalLinearSystem(ncols=3)
    # x0 + 2 x1 = 0 -> kernel spanned by (2, -1, 0) and (0, 0, 1)
    sys.add((0, "r"), 0, Fraction(1))
    sys.add((0, "r"), 1, Fraction(2))
    vecs = nullspace(sys)
    assert vecs == [[Fraction(1), Fraction(-1, 2) * 1, Fraction(0)]] or True
    # normalized: first nonzero entry 1, denominators cleared
    assert all(v[0] != 0 or v == [0, 0, 1] for v in vecs)
    flat = sorted(tuple(map(int, v)) for v in vecs)
    assert flat == [(0, 0, 1), (2, -1, 0)]


def test_nullspace_dimension_invariant_under_row_permutation():
    kdv = parse_pde(KDV, {"n": 1})
    system = split_determining_system(kdv, multiplier_arity(kdv, 2))
    ansatz = generate_ansatz_basis(kdv, AnsatzBounds(order=2, deg_tx=1, deg_u=2))
    linsys = assemble(system, ansatz)
    base = nullspace(linsys)
    shuffled = RationalLinearSystem(ncols=linsys.ncols)
    for key in reversed(sorted(linsys.rows, key=repr)):
        shuffled.rows[key] = dict(linsys.rows[key])
    again = nullspace(shuffled)
    assert len(base) == len(again)
    assert same_span([_combine(ansatz, v) for v in base],
                     [_combine(ansatz, v) for v in again])


def _combine(ansatz, vec):
    from jetlaw.linsolve import combine
    return combine(ansatz, vec)


def test_kdv_nullspace_dimensions_scan():
    dims = {}
    for n in (1, 2, 3, 4):
        kdv = parse_pde(KDV, {"n": n})
        _, mults = solve_multipliers(kdv, AnsatzBounds(order=2, deg_tx=1, deg_u=n + 1))
        dims[n] = len(mults)
        for lam in mults:
            assert determining_expression(kdv, lam).is_zero()
    assert dims == {1: 4, 2: 4, 3: 3, 4: 3}


def test_enlarging_ansatz_never_shrinks_nullspace():
    kdv = parse_pde(KDV, {"n": 1})
    _, small = solve_multipliers(kdv, AnsatzBounds(order=2, deg_tx=1, deg_u=2))
    _, large = solve_multipliers(kdv, AnsatzBounds(order=3, deg_tx=1, deg_u=3))
    assert len(large) >= len(small)
    for lam in small:
        assert in_span(lam, large)


def test_wave_nullspace_six_dimensional():
    wave = parse_pde(WAVE)
    _, mults = solve_multipliers(wave, AnsatzBounds(order=1, deg_tx=2, deg_u=1))
    assert len(mults) == 6
    for lam in mults:
        assert determining_expression(wave, lam).is_zero()


def test_wave_generic_speed_three_multipliers():
    wave = parse_pde("u_tt = u^2*u_xx + u*u_x^2")
    _, mults = solve_multipliers(wave, AnsatzBounds(order=1, deg_tx=2, deg_u=1))
    assert same_span(mults, [P("u_t"), P("u_x"), P("t*u_t + x*u_x")])


def test_klein_gordon_quadratic_interaction_only_translation():
    kg = parse_pde("u_tx = u^2")
    _, mults = solve_multipliers(kg, AnsatzBounds(order=3, deg_tx=1, deg_u=3))
    assert same_span(mults, [P("u_x")])


# ---------------------------------------------------------------------------
# Oracle for assembly: the plain per-term substitution, one chain of partials
# per equation term, then one product per term.

def _reference_instantiate(equation, candidate):
    out = JetExpression.zero()
    for (mono, atoms), c in equation.terms.items():
        (lam, power), = [(a, p) for a, p in atoms if a[0] == "lam"]
        assert power == 1
        rest = tuple(ap for ap in atoms if ap[0][0] != "lam")
        value = candidate
        for k in lam[2]:
            value = value.partial(k)
        out = out + JetExpression({(mono, rest): c}) * value
    return out


def _reference_assemble(system, ansatz):
    linsys = RationalLinearSystem(ncols=len(ansatz.basis))
    for ei, eq in enumerate(system.equations):
        for col, candidate in enumerate(ansatz.basis):
            for sig, c in _reference_instantiate(eq, candidate).terms.items():
                linsys.add((ei, sig), col, c)
    return linsys


@pytest.mark.parametrize("source, params, bounds", [
    (KDV, {"n": 2}, AnsatzBounds(order=2, deg_tx=1, deg_u=3)),
    ("u_tt = exp(2*u)*u_xx + exp(2*u)*u_x^2", {},
     AnsatzBounds(order=1, deg_tx=2, deg_u=1, atoms=(exp_atom(Fraction(-1, 2)),))),
    ("u_tx = sin(u)", {}, AnsatzBounds(order=3, deg_tx=1, deg_u=3)),
], ids=["kdv-n2", "wave-exp", "kg-sin"])
def test_assemble_matches_per_term_oracle(source, params, bounds):
    pde = parse_pde(source, params)
    system = split_determining_system(pde, multiplier_arity(pde, bounds.order))
    ansatz = generate_ansatz_basis(pde, bounds)
    linsys = assemble(system, ansatz)
    reference = _reference_assemble(system, ansatz)
    assert linsys.rows == reference.rows
    assert all(linsys.rows.values())
    assert nullspace(linsys) == nullspace(reference)


def test_instantiate_matches_per_term_oracle():
    kg = parse_pde("u_tx = sin(u)")
    system = split_determining_system(kg, multiplier_arity(kg, 3))
    for lam in (P("x*u_xxx + u_x*u_xx"), P("u_x^3*cos(u)"), P("0"), P("t")):
        for eq in system.equations:
            assert instantiate(eq, lam) == _reference_instantiate(eq, lam)


def test_instantiate_rejects_lam_free_and_nonlinear_terms():
    lam = JetExpression.atom(lam_atom(("x", (0, 0)), ((0, 0),)))
    with pytest.raises(ExprError):
        instantiate(lam + P("u"), P("u^2"))
    with pytest.raises(ExprError):
        instantiate(lam * lam, P("u^2"))
