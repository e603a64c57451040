"""Ansatz enumeration, assembly, and exact rational nullspaces."""

import hashlib
import random
from fractions import Fraction
from math import comb, gcd
from types import SimpleNamespace

import pytest

from jetlaw import expr, linsolve
from jetlaw.expr import (U, ExprError, JetExpression, cos_atom, exp_atom, lam_atom, pow_atom,
                         sin_atom)
from jetlaw.parser import parse_expression as P, render
from jetlaw.pde import PdeSpec, parse_pde
from jetlaw.detsys import DeterminingSystem, determining_expression, split_determining_system
from jetlaw.linsolve import (
    MAX_COLUMNS,
    AnsatzBounds,
    AnsatzSpace,
    AnsatzTooLarge,
    admissible_jets,
    ansatz_columns,
    RationalLinearSystem,
    assemble,
    generate_ansatz_basis,
    multiplier_arity,
    nullspace,
    solve_multipliers,
)

from conftest import full_split, in_span, random_rhs, reference_instantiate, same_span, span_rank

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


def _recursive_basis(pde, bounds):
    """The ansatz basis by recursive enumeration, depth deg_u."""
    arity = multiplier_arity(pde, bounds.order)
    jets = [k for k in arity if k not in ("t", "x")]
    jet_monos = []

    def extend(prefix, start, budget):
        jet_monos.append(tuple(prefix))
        for i in range(start, len(jets)):
            if budget > 0:
                extend(prefix + [jets[i]], i, budget - 1)

    extend([], 0, bounds.deg_u)
    basis = {}
    for i in range(bounds.deg_tx + 1):
        for j in range(bounds.deg_tx + 1 - i):
            if i and "t" not in arity:
                continue
            for mono in jet_monos:
                for atom in (None,) + tuple(bounds.atoms):
                    f = {"t": i, "x": j}
                    for k in mono:
                        f[k] = f.get(k, 0) + 1
                    if atom is not None:
                        f[atom] = 1
                    basis.setdefault(JetExpression.from_raw([(Fraction(1), f)]))
    return tuple(basis)


@pytest.mark.parametrize("source, orders", [
    (KDV, (0, 1, 2, 3)),
    ("u_tx = sin(u)", (0, 2, 3)),
    (WAVE, (0, 1, 2, 3)),
])
def test_basis_enumeration_matches_recursive_reference(source, orders):
    pde = parse_pde(source, {"n": 1})
    for order in orders:
        for deg_tx in (0, 1, 2):
            for deg_u in (0, 1, 2, 3):
                for atoms in ((), (exp_atom(Fraction(-1, 2)), sin_atom(1))):
                    bounds = AnsatzBounds(order=order, deg_tx=deg_tx,
                                          deg_u=deg_u, atoms=atoms)
                    assert generate_ansatz_basis(pde, bounds).basis == \
                        _recursive_basis(pde, bounds)


@pytest.mark.parametrize("source, orders", [
    (KDV, (0, 1, 2, 4)),
    ("u_tx = sin(u)", (0, 1, 3)),
    (WAVE, (0, 1, 2, 3)),
])
def test_ansatz_columns_closed_form_matches_enumeration(source, orders):
    pde = parse_pde(source, {"n": 1})
    atom_lists = ((), (exp_atom(Fraction(-1, 2)),),
                  (exp_atom(1), sin_atom(1), cos_atom(2, 1)))
    for order in orders:
        for deg_tx in (-1, 0, 1, 2, 3):
            for deg_u in (-1, 0, 1, 2, 3):
                for atoms in atom_lists:
                    bounds = AnsatzBounds(order=order, deg_tx=deg_tx,
                                          deg_u=deg_u, atoms=atoms)
                    count = ansatz_columns(pde, bounds)
                    if count == 0:
                        with pytest.raises(ExprError):
                            generate_ansatz_basis(pde, bounds)
                    else:
                        assert count == len(generate_ansatz_basis(pde, bounds).basis)


def test_ansatz_columns_bounds_the_basis_when_atoms_collapse():
    kdv = parse_pde(KDV, {"n": 1})
    # u^2 * u^-2 == 1 and a repeated atom both give duplicates.
    atoms = (pow_atom(1, 0, -2), exp_atom(1), exp_atom(1))
    bounds = AnsatzBounds(order=1, deg_tx=1, deg_u=2, atoms=atoms)
    count = ansatz_columns(kdv, bounds)
    assert count == 3 * 6 * 4
    assert len(generate_ansatz_basis(kdv, bounds).basis) < count


def test_oversized_ansatz_is_refused_before_the_split():
    import time

    kdv = parse_pde(KDV, {"n": 1})
    start = time.perf_counter()
    for bounds in (AnsatzBounds(order=100_000, deg_u=1),
                   AnsatzBounds(order=10 ** 9, deg_tx=10 ** 9, deg_u=10 ** 9),
                   AnsatzBounds(order=0, deg_u=MAX_COLUMNS)):
        assert ansatz_columns(kdv, bounds) > MAX_COLUMNS
        with pytest.raises(AnsatzTooLarge):
            solve_multipliers(kdv, bounds)
    # No (t, x) monomial, or no jet: the count stops without a long loop.
    assert ansatz_columns(kdv, AnsatzBounds(order=10 ** 9, deg_tx=-1, deg_u=10 ** 9)) == 0
    bounds = AnsatzBounds(order=-1, deg_u=10 ** 9)
    assert ansatz_columns(kdv, bounds) == len(_recursive_basis(kdv, bounds)) == 1
    assert time.perf_counter() - start < 1
    bounds = AnsatzBounds(order=0, deg_u=MAX_COLUMNS - 1)
    assert ansatz_columns(kdv, bounds) == MAX_COLUMNS


def test_empty_basis_rejected():
    kdv = parse_pde(KDV, {"n": 1})
    with pytest.raises(ExprError):
        generate_ansatz_basis(kdv, AnsatzBounds(order=2, deg_tx=-1, deg_u=-1))


def test_admissible_jets_follow_the_leading_derivative():
    # t-order below the leading one, by total order, then descending t-order
    wave = parse_pde(WAVE)
    assert admissible_jets(wave, 3) == \
        (U, (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3))
    assert admissible_jets(wave, 1) == (U, (1, 0), (0, 1))
    for text in (KDV, "u_tx = sin(u)"):
        assert admissible_jets(parse_pde(text, {"n": 1}), 3) == \
            (U, (0, 1), (0, 2), (0, 3))


def test_single_constant_basis_element():
    kdv = parse_pde(KDV, {"n": 4})
    ansatz, mults = solve_multipliers(kdv, AnsatzBounds(order=0, deg_tx=0, deg_u=0))
    assert [render(m) for m in mults] == ["1"]


def test_nullspace_small_system_normalization():
    # x0 + 2 x1 = 0 -> kernel spanned by (2, -1, 0) and (0, 0, 1)
    sys = RationalLinearSystem(ncols=3, rows={(0, "r"): {0: Fraction(1), 1: Fraction(2)}})
    vecs = nullspace(sys)
    assert vecs == [[2, -1, 0], [0, 0, 1]]
    assert all(type(v) is int for vec in vecs for v in vec)


def test_nullspace_dimension_invariant_under_row_permutation():
    kdv = parse_pde(KDV, {"n": 1})
    _, system = full_split(kdv, multiplier_arity(kdv, 2))
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
# Reference for the two-stage solve: the one-stage pipeline, the full split
# (conftest.full_split) assembled over the basis, then its nullspace.

_ORDER2 = dict(order=2, deg_tx=1)
_WAVE = dict(order=1, deg_tx=2, deg_u=1)
_KG = dict(order=3, deg_tx=1, deg_u=3)
TWO_STAGE_CASES = {
    **{"kdv n=%d" % n: (KDV, {"n": n}, AnsatzBounds(deg_u=n + 1, **_ORDER2))
       for n in (1, 2, 3, 4)},
    "wave c=u^-2": (WAVE, {}, AnsatzBounds(**_WAVE)),
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
    "kdv order 6": (KDV, {"n": 1}, AnsatzBounds(order=6, deg_tx=1, deg_u=3)),
}


@pytest.mark.parametrize("name", [n for n in TWO_STAGE_CASES if n != "kdv order 6"])
def test_basis_matches_rewrite_step_basis(name):
    # Atom-free monomials are built in normal form without the rewrite step:
    # on the classify and scale bounds the basis is the one from_raw builds,
    # in order and term for term, with int coefficients and shared pairs.
    source, params, bounds = TWO_STAGE_CASES[name]
    pde = parse_pde(source, params)
    basis = generate_ansatz_basis(pde, bounds).basis
    assert [list(b.terms.items()) for b in basis] == \
        [list(b.terms.items()) for b in _recursive_basis(pde, bounds)]
    assert all(type(c) is int and all(pair is expr._pair(*pair) for pair in mono)
               for b in basis for (mono, _), c in b.terms.items())


def _one_stage_multipliers(pde, bounds):
    ansatz = generate_ansatz_basis(pde, bounds)
    _, system = full_split(pde, multiplier_arity(pde, bounds.order))
    return [_combine(ansatz, v) for v in nullspace(assemble(system, ansatz))]


@pytest.mark.parametrize("name", TWO_STAGE_CASES)
def test_two_stage_solve_matches_one_stage_reference(name):
    source, params, bounds = TWO_STAGE_CASES[name]
    pde = parse_pde(source, params)
    _, mults = solve_multipliers(pde, bounds)
    assert mults == _one_stage_multipliers(pde, bounds)


# ---------------------------------------------------------------------------
# Oracle for assembly: the plain per-term substitution (conftest), one
# expression per (equation, column), whose terms are the column's entries.

def _reference_assemble(system, ansatz):
    linsys = RationalLinearSystem(ncols=len(ansatz.basis))
    for ei, eq in enumerate(system.equations):
        for col, candidate in enumerate(ansatz.basis):
            for sig, c in reference_instantiate(eq, candidate).terms.items():
                linsys.rows.setdefault((ei, sig), {})[col] = c
    return linsys


def _decoded(linsys):
    """The rows of an assembled system keyed (equation, signature), in order."""
    return {(ei, linsys.decode(aid, m)): row for (ei, aid, m), row in linsys.rows.items()}


def _assembled(equation, candidate):
    """equation with Lam := candidate, through assemble on a one-column ansatz."""
    linsys = assemble(DeterminingSystem(equations=(equation,)),
                      AnsatzSpace(arity=(), basis=(candidate,)))
    return JetExpression({sig: row[0] for (_, sig), row in _decoded(linsys).items()})


@pytest.mark.parametrize("source, params, bounds", [
    (KDV, {"n": 2}, AnsatzBounds(order=2, deg_tx=1, deg_u=3)),
    ("u_tt = exp(2*u)*u_xx + exp(2*u)*u_x^2", {},
     AnsatzBounds(order=1, deg_tx=2, deg_u=1, atoms=(exp_atom(Fraction(-1, 2)),))),
    ("u_tx = sin(u)", {}, AnsatzBounds(order=3, deg_tx=1, deg_u=3)),
    (WAVE, {}, AnsatzBounds(order=1, deg_tx=2, deg_u=1)),
    (KDV, {"n": 1}, AnsatzBounds(order=2, deg_tx=1, deg_u=2,
                                 atoms=(pow_atom(1, 1, Fraction(-1, 2)),))),
    # At deg_u 2 the memoized slow products meet u^2 beside a pow atom, and
    # exp(-1/2*u) beside jets of u, so their u-offset is exercised.
    (WAVE, {}, AnsatzBounds(order=1, deg_tx=2, deg_u=2)),
    ("u_tt = exp(2*u)*u_xx + exp(2*u)*u_x^2", {},
     AnsatzBounds(order=1, deg_tx=2, deg_u=2, atoms=(exp_atom(Fraction(-1, 2)),))),
], ids=["kdv-n2", "wave-exp", "kg-sin", "wave-pow", "kdv-pow-atom", "wave-pow-deg2",
        "wave-exp-deg2"])
def test_assemble_matches_per_term_oracle(source, params, bounds):
    pde = parse_pde(source, params)
    _, system = full_split(pde, multiplier_arity(pde, bounds.order))
    ansatz = generate_ansatz_basis(pde, bounds)
    linsys = assemble(system, ansatz)
    reference = _reference_assemble(system, ansatz)
    assert _decoded(linsys) == reference.rows
    assert all(linsys.rows.values())
    assert nullspace(linsys) == nullspace(reference)


def test_assemble_drops_entries_that_cancel_in_one_column():
    # Lam and u*Lam_u are two tree nodes; for Lam = u both give the signature
    # u, with opposite signs, so row (0, u) sums to zero and must not stay.
    arity = ("t", "x", U)
    lam, lam_u = (JetExpression.atom(lam_atom(arity, index)) for index in ((), (U,)))
    for equation, basis in ((P("u") * lam_u - lam, ("u", "u^2")),
                            ((P("u") * lam_u - lam) * Fraction(1, 2), ("u", "u^2", "u^3"))):
        system = DeterminingSystem(equations=(equation,))
        ansatz = AnsatzSpace(arity=arity, basis=tuple(P(b) for b in basis))
        linsys = assemble(system, ansatz)
        rows = _decoded(linsys)
        assert rows == _reference_assemble(system, ansatz).rows
        assert (0, next(iter(P("u").terms))) not in rows
        for row in linsys.rows.values():
            assert row
            for v in row.values():
                assert v != 0
                assert type(v) is int or (type(v) is Fraction and v.denominator != 1)
    # The halved equation gives u^3 the entry 3/2 - 1/2, which must be int 1.
    assert rows[(0, next(iter(P("u^3").terms)))] == {2: 1}


# Seeded random PDEs of the three shapes, with and without kernel atoms in
# the right-hand side, against an ansatz with one kernel atom: walk values of
# several terms, slow products and slow partials whose terms merge.
RANDOM_ASSEMBLY_ATOMS = (exp_atom(Fraction(-1, 2)), pow_atom(1, 1, Fraction(-1, 2)), cos_atom(1))


@pytest.mark.parametrize("leading", [(1, 0), (2, 0), (1, 1)])
@pytest.mark.parametrize("with_atoms", [False, True])
def test_assemble_matches_per_term_oracle_on_random_pdes(leading, with_atoms):
    rng = random.Random("assemble:%s:%s" % (leading, with_atoms))
    for i in range(4):
        pde = PdeSpec(leading=leading, rhs=random_rhs(rng, leading, with_atoms))
        bounds = AnsatzBounds(order=1, deg_tx=1, deg_u=2,
                              atoms=(RANDOM_ASSEMBLY_ATOMS[i % len(RANDOM_ASSEMBLY_ATOMS)],))
        ansatz = generate_ansatz_basis(pde, bounds)
        system = split_determining_system(pde, ansatz.arity)
        linsys = assemble(system, ansatz)
        reference = _reference_assemble(system, ansatz)
        assert _decoded(linsys) == reference.rows, str(pde.rhs)
        assert nullspace(linsys) == nullspace(reference)


def test_instantiate_matches_per_term_oracle():
    kg = parse_pde("u_tx = sin(u)")
    _, system = full_split(kg, multiplier_arity(kg, 3))
    for lam in (P("x*u_xxx + u_x*u_xx"), P("u_x^3*cos(u)"), P("0"), P("t"),
                P("t*u*exp(2*u)"), P("x*u*pow(u + 1, -1/2)"), P("t*x*u_x*pow(u, -1/3)"),
                P("x*u^2*exp(-u) + t*u_xx*pow(2*u + 1, 3/2)")):
        for eq in system.equations:
            assert _assembled(eq, lam) == reference_instantiate(eq, lam)


def test_packed_powers_leave_a_bit_to_spare():
    # Assembly packs each coordinate's power into a field of expr._FIELD bits
    # of one int.  A power enters a field only below half of it, so the sum of
    # two never carries: candidates, coefficients and rewrite results alike.
    limit = expr._FIELD_LIMIT
    arity = ("t", "x", U)
    lam, lam_u = (JetExpression.atom(lam_atom(arity, index)) for index in ((), (U,)))
    equation = P("x") * lam + P("u") * lam_u
    near = JetExpression.from_raw([(1, {"x": limit - 1, U: 2})])
    assert _assembled(equation, near) == reference_instantiate(equation, near) \
        == JetExpression.from_raw([(1, {"x": limit, U: 2}), (2, {"x": limit - 1, U: 2})])
    wide = JetExpression.from_raw([(1, {"x": limit, U: 2})])
    for eq, candidate in ((equation, wide),
                          (JetExpression.from_raw([(1, {"x": limit})]) * lam, P("u")),
                          (P("x*exp(u)") * lam, near * P("exp(u)"))):
        assert not reference_instantiate(eq, candidate).is_zero()
        with pytest.raises(ExprError, match="too large to pack"):
            _assembled(eq, candidate)


def test_instantiate_rejects_lam_free_and_nonlinear_terms():
    lam = JetExpression.atom(lam_atom(("x", (0, 0)), ((0, 0),)))
    with pytest.raises(ExprError):
        _assembled(lam + P("u"), P("u^2"))
    with pytest.raises(ExprError):
        _assembled(lam * lam, P("u^2"))


def test_assemble_rejects_a_lam_atom_in_the_basis():
    # Packed terms carry kernel atoms only, so the packing states no
    # dependency rule for a Lam atom: a basis element holding one raises.
    arity = ("x", U)
    equation = P("u") * JetExpression.atom(lam_atom(arity, (U,)))
    lam = JetExpression.atom(lam_atom(arity))
    for candidate in (lam, P("x*u") * lam, P("exp(u)") * lam):
        with pytest.raises(ExprError, match="only kernel atoms pack"):
            assemble(DeterminingSystem(equations=(equation,)),
                     AnsatzSpace(arity=arity, basis=(P("u"), candidate)))


# ---------------------------------------------------------------------------
# Oracle for the elimination: plain Gauss-Jordan over Fraction, rows taken in
# repr order, pivots scaled to one, then the free-column basis normalized.

def _reference_echelon(rows):
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = Fraction(1) / row[lead]
                pivots[lead] = {c: v * inv for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in pivots[lead].items():
                nv = row.get(c, Fraction(0)) - factor * v
                if nv == 0:
                    row.pop(c, None)
                else:
                    row[c] = nv
    return pivots


def _reference_nullspace(linsys):
    pivots = _reference_echelon(linsys.rows[k] for k in sorted(linsys.rows, key=repr))
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for other in list(row):
            if other != lead and other in pivots:
                factor = row[other]
                for c, v in pivots[other].items():
                    nv = row.get(c, Fraction(0)) - factor * v
                    if nv == 0:
                        row.pop(c, None)
                    else:
                        row[c] = nv
    basis = []
    for f in range(linsys.ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * linsys.ncols
        vec[f] = Fraction(1)
        for lead, row in pivots.items():
            vec[lead] = -row.get(f, Fraction(0))
        lead = next(v for v in vec if v != 0)
        vec = [v / lead for v in vec]
        den = 1
        for v in vec:
            den = den * v.denominator // gcd(den, v.denominator)
        basis.append([Fraction(int(v * den)) for v in vec])
    return basis


def _random_rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))


def _random_system(rng, nrows, ncols, rank, density):
    """Rows mixing `rank` random sparse rows, plus zero rows, duplicates and
    scalar multiples, in shuffled order."""
    base = []
    for _ in range(rank):
        row = {c: _random_rational(rng) for c in range(ncols) if rng.random() < density}
        base.append(row or {rng.randrange(ncols): Fraction(1)})
    rows = [dict(b) for b in base]
    while len(rows) < nrows:
        kind = rng.random() if base else 0
        if kind < 0.1:
            rows.append({})
        elif kind < 0.3:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.5:
            q = _random_rational(rng)
            rows.append({c: q * v for c, v in rng.choice(rows).items()})
        else:
            row = {}
            for b in rng.sample(base, min(len(base), rng.randint(1, 3))):
                q = _random_rational(rng)
                for c, v in b.items():
                    row[c] = row.get(c, 0) + q * v
            rows.append({c: v for c, v in row.items() if v})
    rng.shuffle(rows)
    linsys = RationalLinearSystem(ncols=ncols)
    for i, row in enumerate(rows):
        linsys.rows[(i, "r")] = row
    return linsys


def _random_systems():
    rng = random.Random(20261018)
    systems = []
    for _ in range(40):
        ncols = rng.randint(1, 14)
        rank = rng.randint(0, ncols) if rng.random() < 0.7 else ncols
        systems.append(_random_system(rng, rng.randint(rank, 3 * ncols + 2), ncols,
                                      rank, rng.choice([0.2, 0.5, 0.9])))
    return systems


def _column_expression(row):
    x = JetExpression.coordinate("x")
    out = JetExpression.zero()
    for c, v in row.items():
        out = out + x ** c * v
    return out


def test_nullspace_matches_fraction_elimination_on_random_systems():
    full_rank = deficient = 0
    for linsys in _random_systems():
        vectors = nullspace(linsys)
        assert vectors == _reference_nullspace(linsys)
        for vec in vectors:
            for row in linsys.rows.values():
                assert sum(v * vec[c] for c, v in row.items()) == 0
        full_rank += not vectors
        deficient += bool(vectors)
    assert full_rank >= 5 and deficient >= 5


def test_span_rank_matches_sympy_rank():
    from sympy import Matrix, Rational

    for linsys in _random_systems():
        rows = list(linsys.rows.values())
        dense = [[Rational(str(row.get(c, 0))) for c in range(linsys.ncols)]
                 for row in rows]
        expected = Matrix(dense).rank() if rows else 0
        assert span_rank([_column_expression(row) for row in rows]) == expected
        assert len(_reference_echelon(rows)) == expected


def _cascading_system(rng, ncols, npinned, nrest):
    """Rows that settle in a cascade: pinned column p_j gets a row over p_j and
    some earlier pinned columns, which has one entry only once those are
    settled; rows inside the pinned columns vanish, and nrest random rows
    over all columns are left for the elimination."""
    pinned = rng.sample(range(ncols), npinned)
    rows = [{pinned[0]: _random_rational(rng)}]
    for j in range(1, npinned):
        row = {c: _random_rational(rng) for c in rng.sample(pinned[:j], rng.randint(1, min(j, 3)))}
        row[pinned[j]] = _random_rational(rng)
        rows.append(row)
    for _ in range(npinned // 2):
        rows.append({c: _random_rational(rng)
                     for c in rng.sample(pinned, rng.randint(2, min(npinned, 4)))})
    for _ in range(nrest):
        rows.append({c: _random_rational(rng) for c in range(ncols) if rng.random() < 0.4}
                    or {rng.randrange(ncols): Fraction(1)})
    rng.shuffle(rows)
    linsys = RationalLinearSystem(ncols=ncols)
    for i, row in enumerate(rows):
        linsys.rows[(i, "r")] = row
    return linsys, pinned


def _cascading_systems():
    rng = random.Random("settle cascade")
    systems = []
    for _ in range(40):
        ncols = rng.randint(3, 16)
        npinned = rng.randint(2, ncols)
        systems.append(_cascading_system(rng, ncols, npinned, rng.randint(0, ncols - npinned + 2)))
    return systems


def test_settled_columns_cascade_and_match_fraction_elimination():
    from sympy import Matrix, Rational

    deficient = 0
    for linsys, pinned in _cascading_systems():
        rows = list(linsys.rows.values())
        before = [dict(row) for row in rows]
        pivots = linsolve._echelon(rows)
        assert rows == before
        assert all(pivots[p] == {p: 1} for p in pinned)
        vectors = nullspace(linsys)
        assert vectors == _reference_nullspace(linsys)
        assert all(vec[p] == 0 for vec in vectors for p in pinned)
        dense = [[Rational(str(row.get(c, 0))) for c in range(linsys.ncols)] for row in rows]
        assert span_rank([_column_expression(row) for row in rows]) \
            == Matrix(dense).rank() == len(pivots)
        deficient += bool(vectors)
    assert deficient >= 5


def _paper_system(source, params, bounds):
    pde = parse_pde(source, params)
    _, system = full_split(pde, multiplier_arity(pde, bounds.order))
    return assemble(system, generate_ansatz_basis(pde, bounds))


@pytest.mark.parametrize("source, params, bounds", [
    ("u_t + u*u_x + u_xxx = 0", {}, AnsatzBounds(order=4, deg_tx=1, deg_u=3)),
    ("u_tx = sin(u)", {}, AnsatzBounds(order=4, deg_tx=1, deg_u=4)),
    ("u_tx = exp(u)", {}, AnsatzBounds(order=4, deg_tx=1, deg_u=4)),
] + [(KDV, {"n": n}, AnsatzBounds(order=2, deg_tx=1, deg_u=n + 1)) for n in (1, 2, 3, 4)],
    ids=["kdv-order4", "sine-gordon-order4", "liouville-order4",
         "kdv-n1", "kdv-n2", "kdv-n3", "kdv-n4"])
def test_nullspace_matches_fraction_elimination_on_paper_systems(source, params, bounds):
    linsys = _paper_system(source, params, bounds)
    assert nullspace(linsys) == _reference_nullspace(linsys)


# Stage 1 of the three `scale` systems: shape frozen from the fraction-free
# elimination without the settle (rows, nnz, rank), and a bound on the
# _eliminate calls of one nullspace, where that elimination made 1430, 2495
# and 3544.  Settling one-entry rows first leaves 31, 4 and 532.  Assembly
# sums products straight into the rows, with no product expression built,
# and on packed terms no basis element reaches JetExpression.partial or the
# rewrite step.
STAGE_ONE = {
    "kdv order 4": (453, 1060, 163, 40),
    "sine-gordon order 4": (1248, 2782, 250, 8),
    "liouville order 4": (931, 2782, 246, 640),
}


@pytest.mark.parametrize("name", STAGE_ONE)
def test_stage_one_shape_and_elimination_work(name, monkeypatch):
    source, params, bounds = TWO_STAGE_CASES[name]
    systems, calls, expression_calls = [], [], []
    eliminate, assemble_, nullspace_ = linsolve._eliminate, linsolve.assemble, linsolve.nullspace
    mul, partial, canon = JetExpression.__mul__, JetExpression.partial, expr._canon_term

    def counting(name, function):
        def count(*args):
            expression_calls.append(name)
            return function(*args)
        return count

    def counting_eliminate(*args):
        calls[-1] += 1
        return eliminate(*args)

    def recording_assemble(*args):
        monkeypatch.setattr(JetExpression, "__mul__", counting("__mul__", mul))
        monkeypatch.setattr(JetExpression, "partial", counting("partial", partial))
        monkeypatch.setattr(expr, "_canon_term", counting("_canon_term", canon))
        systems.append(assemble_(*args))
        monkeypatch.setattr(JetExpression, "__mul__", mul)
        monkeypatch.setattr(JetExpression, "partial", partial)
        monkeypatch.setattr(expr, "_canon_term", canon)
        return systems[-1]

    def counting_nullspace(linsys):
        calls.append(0)
        return nullspace_(linsys)

    monkeypatch.setattr(linsolve, "_eliminate", counting_eliminate)
    monkeypatch.setattr(linsolve, "assemble", recording_assemble)
    monkeypatch.setattr(linsolve, "nullspace", counting_nullspace)
    solve_multipliers(parse_pde(source, params), bounds)
    (stage_one,) = systems
    assert expression_calls == []
    rows, nnz, rank, max_calls = STAGE_ONE[name]
    assert len(calls) == 2 and max(calls) <= max_calls
    assert len(stage_one.rows) == rows
    assert sum(len(row) for row in stage_one.rows.values()) == nnz
    assert len(linsolve._echelon(stage_one.rows.values())) == rank


def _stage_one_inputs(monkeypatch, name):
    """The (system, ansatz) that solve_multipliers passes to assemble."""
    source, params, bounds = TWO_STAGE_CASES[name]
    calls = []
    assemble_ = linsolve.assemble

    def recording(*args):
        calls.append(args)
        return assemble_(*args)

    monkeypatch.setattr(linsolve, "assemble", recording)
    solve_multipliers(parse_pde(source, params), bounds)
    monkeypatch.setattr(linsolve, "assemble", assemble_)
    (args,) = calls
    return args


# Partials taken in one stage-1 assembly of the three `scale` systems and of
# the two classification wave systems, and the SHA-256 of the sorted reprs of
# its rows, decoded to (equation, signature): the row order follows the
# equation's term order, which no output reads.  One partial is tried per
# child of every tree node the walk reaches, 6857 of them empty on the
# `scale` systems.  The walk shifts a one-term atom-free value in place and
# sends the rest through _Packing.partial: on every `scale` system and on
# "wave c=u^-2", whose slow products the memo serves, no value reaches it;
# on "wave c=e^u", 24 atom columns reach it 306 times.
WALK_PARTIALS = {
    "kdv order 4": (3402, "6fa0b50fa4e47531fcf71349be4bc5c319082d1ee96375e5b699fe290a24c7d5"),
    "sine-gordon order 4": (
        3822, "79ea645714ce5f9ea3bb229f01425a3e2a403ab30f8194938836b4bbaead3309"),
    "liouville order 4": (
        3822, "c5f5bcef9c09558e5570c9dc6f9018f4b41916742c574452a717a0ac6a8d791e"),
    "wave c=u^-2": (252, "10fda4ac126e1c0235386635d97d59212122eac32bb5aae5d401041da6264300"),
    "wave c=e^u": (558, "b14b81cd45b3c4af1a9382431dc89f4d9366c5124809d45df9dd15ee9661e062"),
}


def _count_child_visits(monkeypatch):
    """A counter of the child nodes assemble's walk tries: the node list of
    the Lam tree counts each read of a node past the root."""
    visits = SimpleNamespace(calls=0)
    lam_tree = linsolve._lam_tree

    class Nodes(list):
        def __getitem__(self, i):
            visits.calls += i > 0
            return super().__getitem__(i)

    monkeypatch.setattr(linsolve, "_lam_tree", lambda *args: Nodes(lam_tree(*args)))
    return visits


@pytest.mark.parametrize("name", WALK_PARTIALS)
def test_walk_takes_only_partials_the_value_reads(name, monkeypatch):
    system, ansatz = _stage_one_inputs(monkeypatch, name)
    partials = _count_child_visits(monkeypatch)
    rows = _decoded(assemble(system, ansatz))
    calls, digest = WALK_PARTIALS[name]
    assert partials.calls == calls
    assert hashlib.sha256(repr(sorted(map(repr, rows.items()))).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", STAGE_ONE)
def test_scale_assembly_decodes_no_row(name, monkeypatch, count_calls):
    # The rows stay keyed by packed terms, and no product or partial of these
    # systems takes a slow path, so nothing is decoded.
    system, ansatz = _stage_one_inputs(monkeypatch, name)
    decode = count_calls(expr._Packing, "decode")
    linsys = assemble(system, ansatz)
    assert decode.calls == 0
    packing = linsys.decode.__self__
    assert packing.slow_products == {} and packing.slow_partials == {}


def _node_paths(nodes):
    """The index of each node, rebuilt from the end positions alone: a node's
    parent is the innermost earlier node whose subtree it lies in."""
    paths, enclosing = [], []
    for i, (_, v, end, _) in enumerate(nodes):
        while enclosing and enclosing[-1][0] <= i:
            enclosing.pop()
        paths.append(enclosing[-1][1] + (v,) if enclosing else ())
        enclosing.append((end, paths[-1]))
    return paths


def _first_use_preorder(equations):
    """The indices in the order a stack walk over children dicts pops them,
    nothing pruned: children in order of first use, pushed in reverse, so
    popped in that order."""
    children: dict = {}
    for equation in equations:
        for _, atoms in equation.terms:
            (index,) = [a[2] for a, _ in atoms if a[0] == "lam"]
            while index and index not in children.get(index[:-1], ()):
                children.setdefault(index[:-1], {})[index] = None
                index = index[:-1]
    order, stack = [], [()]
    while stack:
        order.append(stack.pop())
        stack.extend(reversed(children.get(order[-1], ())))
    return order


def _random_lam_tree_system():
    rng = random.Random("lam tree")
    pde = PdeSpec(leading=(2, 0), rhs=random_rhs(rng, (2, 0), True))
    return split_determining_system(pde, multiplier_arity(pde, 2))


@pytest.mark.parametrize("name, size, used", [("kdv order 4", 85, 82), ("random u_tt", 91, None)])
def test_lam_tree_is_the_stack_walk_in_preorder(name, size, used, monkeypatch):
    if name == "random u_tt":
        system = _random_lam_tree_system()
    else:
        system, _ = _stage_one_inputs(monkeypatch, name)
    nodes = linsolve._lam_tree(system.equations, expr._Packing())
    paths = _node_paths(nodes)
    assert len(nodes) == size
    assert used is None or sum(bool(terms) for *_, terms in nodes) == used
    position = {path: i for i, path in enumerate(paths)}
    assert len(position) == len(paths) and paths[0] == () and nodes[0][0] == 0
    for i, (depth, _, end, _) in enumerate(nodes):
        path = paths[i]
        # A prefix comes first; the subtree is the run up to end; a node is
        # one deeper than its parent.
        assert i == 0 or position[path[:-1]] < i
        assert [j for j, p in enumerate(paths) if p[:len(path)] == path] == list(range(i, end))
        assert depth == len(path) and (i == 0 or depth == nodes[position[path[:-1]]][0] + 1)
    assert paths == _first_use_preorder(system.equations)
    lam_uses = {(a[2], ei) for ei, equation in enumerate(system.equations)
                for _, atoms in equation.terms for a, _ in atoms if a[0] == "lam"}
    assert {(paths[i], ei) for i, (*_, terms) in enumerate(nodes) for ei, *_ in terms} == lam_uses


# _canon_term calls in one stage-1 assembly of the two kernel-atom wave
# systems of the classification.  Sending every slow product and partial
# through the rewrite step made 16 and 277 calls; memoized per packing, one
# call serves each distinct (atom-id, atom-id, u exponent) product and each
# distinct (coordinate, atom-id, exponent) partial.
WAVE_CANON_TERMS = {"wave c=u^-2": 3, "wave c=e^u": 4}


@pytest.mark.parametrize("name", WAVE_CANON_TERMS)
def test_assemble_rewrites_each_slow_product_once(name, monkeypatch, count_calls):
    system, ansatz = _stage_one_inputs(monkeypatch, name)
    canon = count_calls(expr, "_canon_term")
    assemble(system, ansatz)
    assert canon.calls == WAVE_CANON_TERMS[name]
