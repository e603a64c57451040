"""Finite multiplier ansatz spaces and exact rational nullspaces.

The ansatz is the span of all monomials in the admissible coordinates within
the given bounds, optionally times one kernel atom from a user-supplied list.
The coordinates are t, x (x alone when u_tx leads) and, for the leading
derivative u_(a,b), the a*p + 1 jets of t-order below a and order <= p.
Bounds that give more than MAX_COLUMNS columns, counted in closed form, are
refused before anything is enumerated or split.
Substituting the ansatz into a determining system and collecting coefficients
of distinct free-coordinate monomial signatures yields a sparse linear system
over the rationals.  Elimination first settles the columns that one-entry
rows pin to zero, cascading as rows shrink; on these systems that settles
most columns.  The rest is solved exactly by one fraction-free elimination:
rows are scaled to coprime integers, duplicates dropped, and each elimination
step row <- p[lead]*row - row[lead]*p is divided by its content.  Rows and
nullspace vectors share one normal form (_normalized): coprime integers whose
first nonzero entry is positive, so every vector is a list of int.

Substitution works on equations grouped by Lam derivative index: an equation
is sum_g c_g * d^(index_g) Lam.  The indices of all equations form one tree
closed under prefixes, compiled once per call into a preorder node list;
each basis element walks it once, one partial per child, skipping a subtree
at its first zero partial.  The walk runs on kinded packed terms
(expr._Packing), local to one call: coefficients and basis elements are
packed once, a product is an integer addition and a partial an exponent
shift.  Products are summed straight into rows keyed (equation, atom-id,
packed monomial), in first-seen order; a key is decoded only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import gcd, lcm

from .expr import (_FIELD_MASK, ExprError, JetExpression, _Packing, _accumulate, _mono_key, _pair,
                   _q, is_indep, is_kernel_atom)
from .pde import PdeSpec
from .detsys import DeterminingSystem, determining_expression, split_determining_system


MAX_COLUMNS = 20_000


class AnsatzTooLarge(ExprError):
    """The bounds give an ansatz of more than MAX_COLUMNS columns."""


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
    arity: tuple
    basis: tuple


def admissible_jets(pde: PdeSpec, order: int) -> tuple:
    """Jets a multiplier of the given order may read: t-order below the leading
    one's, by total order, then descending t-order (u, u_t, u_x, u_tx, ...)."""
    a = pde.leading[0]
    return tuple((i, n - i) for n in range(order + 1) for i in range(min(a - 1, n), -1, -1))


def multiplier_arity(pde: PdeSpec, order: int) -> tuple:
    jets = admissible_jets(pde, order)
    indeps = ("x",) if pde.leading == (1, 1) else ("t", "x")
    return indeps + jets


def ansatz_columns(pde: PdeSpec, bounds: AnsatzBounds) -> int:
    """The number of products generate_ansatz_basis enumerates, in closed
    form: (t, x) monomials times (1 + atoms) times comb(jets + deg_u, deg_u)
    jet monomials, with jets = a*p + 1.  Exact up to MAX_COLUMNS; past it,
    some larger number.  Atoms that collapse (a pow atom meeting u, a
    repeated atom) make the de-duplicated basis smaller."""
    jets = max(pde.leading[0] * bounds.order + 1, 0)
    d = max(bounds.deg_tx + 1, 0)
    count = (d if pde.leading == (1, 1) else d * (d + 1) // 2) * (1 + len(bounds.atoms))
    for k in range(1, bounds.deg_u + 1):
        if jets == 0 or not 0 < count <= MAX_COLUMNS:
            break
        count = count * (jets + k) // k
    return count


def generate_ansatz_basis(pde: PdeSpec, bounds: AnsatzBounds) -> AnsatzSpace:
    """Deterministic enumeration of all ansatz monomials within bounds.  A
    monomial without an atom is built in normal form; one with an atom goes
    through the rewrite step (`JetExpression.from_raw`)."""
    if ansatz_columns(pde, bounds) > MAX_COLUMNS:
        raise AnsatzTooLarge("ansatz bounds give more than %d columns" % MAX_COLUMNS)
    arity = multiplier_arity(pde, bounds.order)
    jets = [k for k in arity if not is_indep(k)]
    for a in bounds.atoms:
        if not is_kernel_atom(a):
            raise ExprError("ansatz atoms must be kernel atoms, got %r" % (a,))

    # Nondecreasing index sequences of jets, up to deg_u long, sorted: a
    # prefix comes before its extensions, and those go by their next jet.
    jet_monos = [tuple(jets[i] for i in c) for c in sorted(
        c for k in range(max(bounds.deg_u, 0) + 1)
        for c in combinations_with_replacement(range(len(jets)), k))]

    basis = []
    for i in range(bounds.deg_tx + 1):
        for j in range(bounds.deg_tx + 1 - i):
            if i and "t" not in arity:
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
                    if atom is None:
                        pairs = tuple(sorted(map(_pair, f, f.values()), key=_mono_key))
                        basis.append(JetExpression({(pairs, ()): 1}))
                    else:
                        f[atom] = 1
                        basis.append(JetExpression.from_raw([(1, f)]))
    unique = tuple(dict.fromkeys(b for b in basis if not b.is_zero()))
    if not unique:
        raise ExprError("empty ansatz basis")
    return AnsatzSpace(arity=arity, basis=unique)


@dataclass
class RationalLinearSystem:
    """Sparse rows {column: nonzero value}, keyed by (equation index, atom-id,
    packed monomial) in assemble, with decode(atom-id, packed) giving the
    monomial signature, and by signature in stage 2."""

    ncols: int
    rows: dict = field(default_factory=dict)
    decode: object = None


def _lam_tree(equations, packing: _Packing) -> list:
    """Group equations linear in Lam by derivative index, as a node list.

    Each equation is the sum of coefficient * d^index Lam over its groups.
    The indices, closed under prefixes, are listed in preorder with the
    children of a node in order of first use.  A node is (depth, the
    coordinate its index adds, the position just past its subtree, its
    coefficients' terms as (equation,) + packing.kinded entry)."""
    groups: dict = {}
    for ei, equation in enumerate(equations):
        for (mono, atoms), c in equation.terms.items():
            lam_entries = [(a, p) for a, p in atoms if a[0] == "lam"]
            if not lam_entries:
                raise ExprError("determining equation has a Lam-free term")
            if len(lam_entries) > 1 or lam_entries[0][1] != 1:
                raise ExprError("nonlinear occurrence of the unknown multiplier")
            rest = tuple(ap for ap in atoms if ap[0][0] != "lam")
            groups.setdefault((lam_entries[0][0][2], ei), {})[(mono, rest)] = c
    uses: dict = {}
    children: dict = {}
    for (index, ei), terms in groups.items():
        uses.setdefault(index, []).extend((ei,) + t for t in packing.kinded(packing.pack(terms)))
        while index and index not in children.get(index[:-1], ()):
            children.setdefault(index[:-1], {})[index] = None
            index = index[:-1]
    nodes: list = []

    def add(index):
        at = len(nodes)
        nodes.append(None)
        for child in children.get(index, ()):
            add(child)
        nodes[at] = (len(index), index[-1] if index else None, len(nodes), uses.get(index, []))

    add(())
    return nodes


def assemble(system: DeterminingSystem, ansatz: AnsatzSpace) -> RationalLinearSystem:
    """One row per (equation, monomial signature); one column per basis element.

    Each column, packed and kinded once, walks the node list of _lam_tree, so
    a partial of a basis element is taken once per index, not once per
    equation.  values[depth] is the kinded value at the current node of each
    depth; an empty partial skips the node's subtree.  At each node the
    products of the value with the coefficients there are summed straight
    into the rows; entries that cancel and the rows they empty are dropped at
    the end.
    """
    packing = _Packing()
    nodes = _lam_tree(system.equations, packing)
    columns = [packing.kinded(packing.pack(b.terms)) for b in ansatz.basis]
    shifts = [packing.shift.get(v) for _, v, _, _ in nodes]
    partial, product = packing.partial, packing.product
    sums: dict = {}
    for col, right in enumerate(columns):
        values = [right]
        i = 0
        while i < len(nodes):
            depth, v, end, uses = nodes[i]
            if depth:
                parent = values[depth - 1]
                if len(parent) == 1 and not parent[0][1]:
                    # One atom-free term: the partial is one exponent shift.
                    c, _, m, _, _ = parent[0]
                    shift = shifts[i]
                    p = 0 if shift is None else m >> shift & _FIELD_MASK
                    if p:
                        m -= 1 << shift
                    right = [(_q(c * p), 0, m, False, m & _FIELD_MASK)] if p else []
                else:
                    right = partial(parent, v)
                if not right:
                    i = end
                    continue
                values[depth:] = (right,)
            for ei, c1, a1, m1, live1, u1 in uses:
                for c2, a2, m2, live2, u2 in right:
                    c = c1 * c2
                    if (a1 and a2) or ((live1 or live2) and (u1 or u2)):
                        for f, aid, m in product(a1, a2, u1 + u2, m1 + m2 - u1 - u2):
                            row = sums.setdefault((ei, aid, m), {})
                            row[col] = row.get(col, 0) + c * f
                        continue
                    key = (ei, a1 or a2, m1 + m2)
                    row = sums.get(key)
                    if row is None:
                        sums[key] = {col: c}
                    else:
                        row[col] = row.get(col, 0) + c
            i += 1
    linsys = RationalLinearSystem(ncols=len(ansatz.basis), decode=packing.decode)
    for key, row in sums.items():
        row = {col: v if type(v) is int else _q(v) for col, v in row.items() if v}
        if row:
            linsys.rows[key] = row
    return linsys


def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of its entries."""
    content = gcd(*row.values())
    return row if content < 2 else {c: v // content for c, v in row.items()}


def _normalized(row: dict) -> dict:
    """The primitive integer row, negated if its lowest-column entry is negative."""
    row = _primitive(row)
    return row if row[min(row)] > 0 else {c: -v for c, v in row.items()}


def _eliminate(row: dict, pivot: dict, col) -> dict:
    """Clear row[col] fraction-free: pivot[col]*row - row[col]*pivot."""
    g = gcd(pivot[col], row[col])
    a, b = pivot[col] // g, row[col] // g
    out = {c: a * v for c, v in row.items()}
    for c, v in pivot.items():
        nv = out.get(c, 0) - b * v
        if nv:
            out[c] = nv
        else:
            del out[c]
    return _primitive(out)


def _echelon(rows) -> dict:
    """Row echelon form {leading column: integer row} of rational rows.

    A row with one entry pins its column to zero: the column is settled as
    the pivot {column: 1} and taken out of every row, which can leave more
    one-entry rows and empty ones.  The rows left are made coprime integers
    with a positive lead, deduplicated and eliminated fraction-free."""
    rows = [dict(row) for row in rows if row]
    where: dict = {}
    for i, row in enumerate(rows):
        for c in row:
            where.setdefault(c, []).append(i)
    pivots: dict = {}
    pinned = [c for row in rows if len(row) == 1 for c in row]
    while pinned:
        col = pinned.pop()
        if col in pivots:
            continue
        pivots[col] = {col: 1}
        for i in where[col]:
            row = rows[i]
            del row[col]
            if len(row) == 1:
                pinned.extend(row)
    distinct = {}
    for row in filter(None, rows):
        den = lcm(*(v.denominator for v in row.values()))
        ints = _normalized({c: den // v.denominator * v.numerator for c, v in row.items()})
        distinct.setdefault(frozenset(ints.items()), ints)
    for row in distinct.values():
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = row
                break
            row = _eliminate(row, pivots[lead], lead)
    return pivots


def nullspace(linsys: RationalLinearSystem) -> list:
    """Exact basis of the solution space, deterministically ordered.

    The reduced row echelon form is unique, so the basis does not depend on
    row order: one vector per free column f, ascending, a dense list of int
    in the _normalized form.  That is the reduced-echelon vector (1 at f)
    divided by its first nonzero entry with denominators cleared.
    """
    ncols = linsys.ncols
    pivots = _echelon(linsys.rows.values())
    for lead in sorted(pivots, reverse=True):
        for col in [c for c in pivots[lead] if c != lead and c in pivots]:
            pivots[lead] = _eliminate(pivots[lead], pivots[col], col)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free_cols:
        rows = [(lead, row) for lead, row in pivots.items() if f in row]
        scale = lcm(*(row[lead] for lead, row in rows))
        vec = _normalized({f: scale} | {lead: -row[f] * scale // row[lead] for lead, row in rows})
        basis.append([vec.get(c, 0) for c in range(ncols)])
    return basis


def combine(ansatz: AnsatzSpace, vector) -> JetExpression:
    """sum_i vector[i] * basis[i]."""
    return JetExpression(_accumulate((x * c, sig) for x, b in zip(vector, ansatz.basis) if x
                                     for sig, c in b.terms.items()))


def solve_multipliers(pde: PdeSpec, bounds: AnsatzBounds):
    """Basis (size-checked first), then two stages; returns (space, list).

    Multipliers are the adjoint symmetries that satisfy extra conditions
    (Anco and Bluman, Eur. J. Appl. Math. 13, 2002, Part II).  Stage 1
    assembles the adjoint-symmetry equation D_G*(Lam) = 0 on solutions and
    takes its nullspace: the adjoint symmetries v_1..v_k in the basis.
    Stage 2 solves sum_i c_i E_u(G * v_i) = 0, a system of k columns, and
    returns sum_i c_i v_i.  Each v_i is a multiple of the reduced-echelon
    vector of its free column, whose last nonzero entry it is, so the result
    is the nullspace of the full split (tests/conftest.py::full_split), in
    the same order and normalization.

    Stage 1 is taken over the independent variables and the jets the basis
    uses: its cost grows with the arity, and the derivatives of Lam in other
    jets vanish for every basis element."""
    ansatz = generate_ansatz_basis(pde, bounds)
    used = set().union(*(b.jets() for b in ansatz.basis))
    arity = tuple(k for k in ansatz.arity if is_indep(k) or k in used)
    system = split_determining_system(pde, arity)
    adjoint = nullspace(assemble(system, ansatz))
    linsys = RationalLinearSystem(ncols=len(adjoint))
    for col, v in enumerate(adjoint):
        for sig, c in determining_expression(pde, combine(ansatz, v)).terms.items():
            linsys.rows.setdefault(sig, {})[col] = c
    ncols = len(ansatz.basis)
    multipliers = []
    for coeffs in nullspace(linsys):
        vec = _normalized(_accumulate((c * x, col) for c, v in zip(coeffs, adjoint) if c
                                      for col, x in enumerate(v) if x))
        multipliers.append(combine(ansatz, [vec.get(col, 0) for col in range(ncols)]))
    return ansatz, multipliers
