"""Finite multiplier ansatz spaces and exact rational nullspaces.

The ansatz is the span of all monomials in the admissible coordinates within
the given bounds, optionally times one kernel atom from a user-supplied list.
Substituting the ansatz into a determining system and collecting coefficients
of distinct free-coordinate monomial signatures yields a sparse linear system
over the rationals, solved exactly by integer-normalized Gaussian elimination
with deterministic pivoting.

Substitution works on equations grouped by Lam derivative index: an equation
is sum_g c_g * d^(index_g) Lam, so each basis element needs only its partials
at the distinct indices, not one chain of partials per equation term.  Those
partials are memoized per basis element, each built from the partial at its
index prefix, and shared by all equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .expr import ExprError, JetExpression, U, is_indep, is_kernel_atom
from .pde import PdeSpec
from .detsys import DeterminingSystem, split_determining_system


@dataclass(frozen=True)
class AnsatzBounds:
    """Finite bounds: jet order p, total degree in t and x, total degree in
    u and its derivatives, and kernel atoms allowed as single extra factors."""

    order: int
    deg_tx: int = 0
    deg_u: int = 1
    atoms: tuple = ()


@dataclass(frozen=True)
class AnsatzSpace:
    pde: PdeSpec
    bounds: AnsatzBounds
    arity: tuple
    basis: tuple


def admissible_jets(pde: PdeSpec, order: int) -> tuple:
    """Jet coordinates a multiplier of the given order may depend on."""
    leading = pde.leading
    if leading == (1, 0):
        return tuple((0, b) for b in range(order + 1))
    if leading == (2, 0):
        if order > 1:
            raise ExprError("u_tt-leading multipliers supported up to first order")
        return (U, (1, 0), (0, 1))[: 1 + 2 * order]
    return tuple((0, b) for b in range(order + 1))


def multiplier_arity(pde: PdeSpec, order: int) -> tuple:
    jets = admissible_jets(pde, order)
    indeps = ("x",) if pde.leading == (1, 1) else ("t", "x")
    return indeps + jets


def generate_ansatz_basis(pde: PdeSpec, bounds: AnsatzBounds) -> AnsatzSpace:
    """Deterministic enumeration of all ansatz monomials within bounds."""
    arity = multiplier_arity(pde, bounds.order)
    jets = [k for k in arity if not is_indep(k)]
    indeps = [k for k in arity if is_indep(k)]
    for a in bounds.atoms:
        if not is_kernel_atom(a):
            raise ExprError("ansatz atoms must be kernel atoms, got %r" % (a,))

    jet_monos = []

    def extend(prefix, start, budget):
        jet_monos.append(tuple(prefix))
        for i in range(start, len(jets)):
            if budget > 0:
                extend(prefix + [jets[i]], i, budget - 1)

    extend([], 0, bounds.deg_u)

    basis = []
    for i in range(bounds.deg_tx + 1):
        for j in range(bounds.deg_tx + 1 - i):
            if i and "t" not in indeps:
                continue
            for mono in jet_monos:
                for atom in (None,) + tuple(bounds.atoms):
                    f: dict = {}
                    if i:
                        f["t"] = i
                    if j:
                        f["x"] = j
                    for k in mono:
                        f[k] = f.get(k, 0) + 1
                    if atom is not None:
                        f[atom] = 1
                    basis.append(JetExpression.from_raw([(Fraction(1), f)]))
    seen = set()
    unique = []
    for b in basis:
        if b.is_zero() or b in seen:
            continue
        seen.add(b)
        unique.append(b)
    if not unique:
        raise ExprError("empty ansatz basis")
    return AnsatzSpace(pde=pde, bounds=bounds, arity=arity, basis=tuple(unique))


@dataclass
class RationalLinearSystem:
    """Sparse rows keyed by (equation index, monomial signature)."""

    ncols: int
    rows: dict = field(default_factory=dict)

    def add(self, key, col, value):
        row = self.rows.setdefault(key, {})
        nv = row.get(col, Fraction(0)) + value
        if nv == 0:
            row.pop(col, None)
        else:
            row[col] = nv


def _lam_groups(equation: JetExpression) -> list:
    """Split an equation linear in Lam by derivative index.

    Returns [(index, coefficient)] with equation == sum of coefficient *
    d^index Lam; each coefficient is the Lam-free rest of its terms.
    """
    groups: dict = {}
    for (mono, atoms), c in equation.terms.items():
        lam_entries = [(a, p) for a, p in atoms if a[0] == "lam"]
        if not lam_entries:
            raise ExprError("determining equation has a Lam-free term")
        if len(lam_entries) > 1 or lam_entries[0][1] != 1:
            raise ExprError("nonlinear occurrence of the unknown multiplier")
        atom, _ = lam_entries[0]
        rest = tuple(ap for ap in atoms if ap[0][0] != "lam")
        groups.setdefault(atom[2], {})[(mono, rest)] = c
    return [(index, JetExpression(terms)) for index, terms in groups.items()]


class _PartialTable(dict):
    """Memoized partials of one candidate, keyed by sorted derivative index.

    d^(i1..ik) is taken from d^(i1..ik-1), so every prefix is computed once;
    a zero prefix stays zero without further differentiation.
    """

    def __init__(self, candidate: JetExpression):
        super().__init__({(): candidate})

    def __missing__(self, index):
        value = self[index[:-1]]
        if not value.is_zero():
            value = value.partial(index[-1])
        self[index] = value
        return value


def _substitute(groups, partials: _PartialTable) -> JetExpression:
    """Sum of coefficient * partials[index] over the groups of one equation."""
    out = JetExpression.zero()
    for index, coefficient in groups:
        value = partials[index]
        if not value.is_zero():
            out = out + coefficient * value
    return out


def instantiate(equation: JetExpression, candidate: JetExpression) -> JetExpression:
    """Replace every Lam derivative atom by the matching partial of candidate."""
    return _substitute(_lam_groups(equation), _PartialTable(candidate))


def assemble(system: DeterminingSystem, ansatz: AnsatzSpace) -> RationalLinearSystem:
    """One row per (equation, monomial signature); one column per basis element.

    Each equation is grouped once by Lam derivative index.  Each column's
    partials are memoized for the duration of that column and shared by all
    equations, so a partial is taken once per distinct index, not once per
    equation term.
    """
    linsys = RationalLinearSystem(ncols=len(ansatz.basis))
    grouped = [_lam_groups(eq) for eq in system.equations]
    for col, candidate in enumerate(ansatz.basis):
        partials = _PartialTable(candidate)
        for ei, groups in enumerate(grouped):
            for sig, c in _substitute(groups, partials).terms.items():
                linsys.add((ei, sig), col, c)
    return linsys


def nullspace(linsys: RationalLinearSystem) -> list:
    """Exact basis of the solution space, deterministically ordered.

    Vectors are normalized with first nonzero entry one, then denominators
    cleared to give coprime integers.
    """
    ncols = linsys.ncols
    pivots: dict = {}
    for key in sorted(linsys.rows, key=repr):
        row = dict(linsys.rows[key])
        while row:
            lead = min(row)
            if lead in pivots:
                factor = row[lead]
                for c, v in pivots[lead].items():
                    nv = row.get(c, Fraction(0)) - factor * v
                    if nv == 0:
                        row.pop(c, None)
                    else:
                        row[c] = nv
            else:
                inv = Fraction(1) / row[lead]
                pivots[lead] = {c: v * inv for c, v in row.items()}
                break
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for other_lead in list(row):
            if other_lead != lead and other_lead in pivots:
                factor = row[other_lead]
                for c, v in pivots[other_lead].items():
                    nv = row.get(c, Fraction(0)) - factor * v
                    if nv == 0:
                        row.pop(c, None)
                    else:
                        row[c] = nv
        pivots[lead] = row
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free_cols:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for lead, row in pivots.items():
            vec[lead] = -row.get(f, Fraction(0))
        basis.append(_normalize_vector(vec))
    return basis


def _normalize_vector(vec: list) -> list:
    lead = next(v for v in vec if v != 0)
    vec = [v / lead for v in vec]
    den = 1
    for v in vec:
        den = den * v.denominator // gcd(den, v.denominator)
    return [Fraction(int(v * den)) for v in vec]


def combine(ansatz: AnsatzSpace, vector) -> JetExpression:
    out = JetExpression.zero()
    for coeff, b in zip(vector, ansatz.basis):
        if coeff:
            out = out + b * Fraction(coeff)
    return out


def solve_multipliers(pde: PdeSpec, bounds: AnsatzBounds):
    """Full pipeline: split system, assemble, nullspace; returns (space, list)."""
    system = split_determining_system(pde, multiplier_arity(pde, bounds.order))
    ansatz = generate_ansatz_basis(pde, bounds)
    linsys = assemble(system, ansatz)
    vectors = nullspace(linsys)
    return ansatz, [combine(ansatz, v) for v in vectors]


# ---------------------------------------------------------------------------
# Exact span comparisons used by classification fixtures.

def _expression_matrix(exprs):
    sigs = sorted({sig for e in exprs for sig in e.terms}, key=_sig_key)
    index = {s: i for i, s in enumerate(sigs)}
    return [{index[sig]: c for sig, c in e.terms.items()} for e in exprs], len(sigs)


def _sig_key(sig):
    from .expr import sig_sort_key
    return sig_sort_key(sig)


def _rank(rows) -> int:
    pivots: dict = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead in pivots:
                factor = row[lead]
                for c, v in pivots[lead].items():
                    nv = row.get(c, Fraction(0)) - factor * v
                    if nv == 0:
                        row.pop(c, None)
                    else:
                        row[c] = nv
            else:
                inv = Fraction(1) / row[lead]
                pivots[lead] = {c: v * inv for c, v in row.items()}
                break
    return len(pivots)


def span_rank(exprs) -> int:
    rows, _ = _expression_matrix([e for e in exprs if not e.is_zero()])
    return _rank(rows)


def in_span(e: JetExpression, exprs) -> bool:
    base = [x for x in exprs if not x.is_zero()]
    return span_rank(base + [e]) == span_rank(base)


def same_span(a, b) -> bool:
    return span_rank(a) == span_rank(b) == span_rank(list(a) + list(b))
