"""Differential operators on jet expressions.

Solution-restricted total derivatives, full and restricted Euler operators,
inversion of total x-derivatives, and the integration-by-parts normal form
used to compare densities modulo trivial ones.

Restriction to solutions commutes with total derivatives, so one on-solution
total derivative D^ (`JetExpression.total` with a `pde.ChartForms`) serves
`solution_total_derivative`, the Horner steps of `euler_sum` for the
adjoint-symmetry equation and, by its chart forms, `eliminate_off_chart`.

The descent used by inversion and the normal form processes the highest jet
coordinate (ranked by total order, then x-order) and peels terms linear in
it.  A step is taken only when the cofactor's coordinates all rank at or
below the lowered coordinate; this keeps the descent strictly decreasing, and
for expressions that genuinely are total x-derivatives it never blocks.  A
top jet of x-order 0 (u, u_t, ...) has no lowered coordinate, so it blocks
every term that reads it.

Each step integrates a cofactor in one coordinate w.  Two antiderivatives
differ by a w-free expression, so the one returned, which has no w-free
term, is unique.  The normal form lets each term be integrated alone: a pow
atom always has power 1 and u never stands beside a live pow atom (one whose
argument depends on u), so no logarithm can cancel across terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm

from .expr import (
    ExprError,
    JetExpression,
    U,
    _accumulate,
    coord_name,
    is_kernel_atom,
    term_jets,
)
from .pde import ChartForms, PdeSpec, on_chart


class NotXDerivative(ExprError):
    """The input is not a total x-derivative; carries the residual."""

    def __init__(self, residual, why="not a total x-derivative"):
        super().__init__("%s; residual %s" % (why, residual))
        self.residual = residual


class NotIntegrable(ExprError):
    """Antiderivative leaves the closed expression fragment (e.g. log)."""


class AntiderivativeOutsideClass(NotXDerivative):
    """The descent refused a cofactor: its antiderivative needs a logarithm, say."""


def eliminate_off_chart(pde: PdeSpec, e: JetExpression) -> JetExpression:
    """Restrict to solutions: substitute each jet off the PDE chart by its
    chart form, in one pass."""
    chart = ChartForms(pde)
    for w in [k for k in e.jets() if chart[k] is not None]:
        e = e.substitute(w, chart[w])
    return e


def solution_total_derivative(pde: PdeSpec, e: JetExpression) -> JetExpression:
    """D^_t e, the total t-derivative on solutions of e on the PDE chart."""
    for k in e.jets():
        if not on_chart(pde.leading, k):
            raise ExprError(
                "expression not in solution-space coordinates: contains %s"
                % coord_name(k))
    return e.total("t", ChartForms(pde))


def _horner(coeffs: dict, direction: str, chart=None) -> JetExpression:
    """sum_j (-D)^j coeffs[j], evaluated as c_0 - D(c_1 - D(c_2 - ...)) so
    that terms cancel before they are differentiated again."""
    out = JetExpression.zero()
    for j in range(max(coeffs, default=-1), -1, -1):
        out = coeffs.get(j, 0) - out.total(direction, chart)
    return out


def euler_sum(rows: dict, chart=None) -> JetExpression:
    """sum over jets v of (-D)^v rows[v], nested in Horner form over
    x-orders and then over t-orders; each D is on solutions with a chart."""
    nested: dict = {}
    for (a, b), row in rows.items():
        nested.setdefault(a, {})[b] = row
    inner = {a: _horner(row, "x", chart) for a, row in nested.items()}
    return _horner(inner, "t", chart)


def adjoint_linearization(pde: PdeSpec, omega: JetExpression, chart=None) -> JetExpression:
    """D_G*(omega) = sum over G's jets v of (-D)^v (dG/dv * omega), the formal
    adjoint of the linearization; on solutions with a chart, for omega on it."""
    g = pde.gee()
    return euler_sum({v: g.partial(v) * omega for v in g.jets()}, chart)


def euler_operator(e: JetExpression) -> JetExpression:
    """Variational derivative: sum over jets v of (-D)^v (de/dv)."""
    return euler_sum({v: e.partial(v) for v in e.jets()})


def restricted_euler(e: JetExpression, base: tuple) -> JetExpression:
    """sum_j (-D_x)^j d/du_(a,b+j) for the jet base = (a, b): with base u,
    u_x or u_t it relates densities back to multipliers."""
    row, start = base
    return _horner({b - start: e.partial((a, b)) for (a, b) in e.jets()
                    if a == row and b >= start}, "x")


# ---------------------------------------------------------------------------
# Antiderivatives, kernel atoms included.

def _u_power(m: int) -> JetExpression:
    return JetExpression.from_raw([(1, {U: m})])


def _atom_antiderivative(live) -> JetExpression:
    """H with dH/du equal to the product of the u-dependent atoms in live,
    a list of (atom, power) pairs; H has no term free of u."""
    atoms = {a: p for a, p in live if p}
    if not atoms:
        return _u_power(1)
    tags = sorted(a[0] for a in atoms)
    unit = set(atoms.values()) == {1}
    if len(atoms) == 1 and tags[0] in ("exp", "pow") and unit:
        (a,) = atoms
        if a[0] == "exp":
            return JetExpression.atom(a) * (Fraction(1) / a[1])
        if a[3] == -1:
            raise NotIntegrable("logarithmic antiderivative")
        return JetExpression.atom(("pow", a[1], a[2], a[3] + 1)) \
            * (Fraction(1) / (a[1] * (a[3] + 1)))
    args = {a[1:] for a in atoms}
    if set(tags) <= {"sin", "cos"} and len(args) == 1:
        (alpha, beta), = args
        s = atoms.get(("sin", alpha, beta), 0)
        c = atoms.get(("cos", alpha, beta), 0)
        cos_a = ("cos", alpha, beta)
        if s == 1:
            return JetExpression.atom(cos_a) ** (c + 1) * (Fraction(-1) / ((c + 1) * alpha))
        if s == 0:
            # d/du [sin cos^(c-1)] = alpha c cos^c - alpha (c-1) cos^(c-2)
            h = JetExpression.atom(("sin", alpha, beta)) * JetExpression.atom(cos_a) ** (c - 1) \
                * (Fraction(1) / (c * alpha))
            if c > 1:
                h = h + _atom_antiderivative([(cos_a, c - 2)]) * Fraction(c - 1, c)
            return h
    if tags in (["cos", "exp"], ["exp", "sin"]) and unit:
        ea, ta = sorted(atoms, key=lambda a: a[0] != "exp")
        ae, at = ea[1], ta[1]
        sin_t = JetExpression.atom(("sin",) + ta[1:])
        cos_t = JetExpression.atom(("cos",) + ta[1:])
        trig = sin_t * ae - cos_t * at if ta[0] == "sin" else cos_t * ae + sin_t * at
        return JetExpression.atom(ea) * trig * (Fraction(1) / (ae * ae + at * at))
    raise NotIntegrable("atom combination %s" % tags)


def _integrate_wrt(e: JetExpression, w) -> JetExpression:
    """The antiderivative of e in coordinate w with no term free of w.

    For w = u a term u^m A, A a product of u-dependent atoms, goes by
    parts: int u^m A du = sum_k (-1)^k m!/(m-k)! u^(m-k) H_(k+1), with H_1
    from the atom table and H_(k+1) = int H_k du.  Every other term follows
    the power rule in w.
    """
    out = JetExpression.zero()
    for (mono, atoms), c in e.terms.items():
        rest = dict(mono)
        m = rest.pop(w, 0)
        live = []
        for a, p in atoms:
            if w == U and not (is_kernel_atom(a) and a[1] == 0):
                live.append((a, p))
            else:
                rest[a] = rest.get(a, 0) + p
        if not live:
            rest[w] = m + 1
            out = out + JetExpression.from_raw([(Fraction(c, m + 1), rest)])
            continue
        h = _atom_antiderivative(live)
        piece = _u_power(m) * h
        for k in range(1, m + 1):
            h = _integrate_wrt(h, U)
            piece = piece + _u_power(m - k) * h * ((-1) ** k * perm(m, k))
        out = out + JetExpression.from_raw([(c, rest)]) * piece
    return out


def _descent_rank(k):
    a, b = k
    return (a + b, b, a)


def ibp_normal_form(e: JetExpression):
    """Canonical representative modulo im(D_x): (core, theta) with
    e == core + D_x(theta)."""
    return _descent(e)[:2]


def _descent(e: JetExpression):
    """ibp_normal_form's (core, theta), and the first (cofactor, error) that
    _integrate_wrt refused (always a u-integral of kernel atoms), or None."""
    if e.has_formal():
        raise ExprError("descent undefined on formal atoms")
    theta = JetExpression.zero()
    core = JetExpression.zero()
    refused = None
    work = e
    while not work.is_zero():
        jets = work.jets()
        if not jets:
            theta = theta + _integrate_wrt(work, "x")
            break
        v = max(jets, key=_descent_rank)
        top = v[1] == 0
        w = (v[0], v[1] - 1)
        w_rank = _descent_rank(w)
        linear = []
        blocked = {}
        keep = {}
        for sig, c in work.terms.items():
            mono, atoms = sig
            p = dict(mono).get(v, 0)
            if not (p or top and v in term_jets(sig)):
                keep[sig] = c
                continue
            if top or p >= 2 or any(_descent_rank(z) > w_rank for z in term_jets(sig) - {v}):
                blocked[sig] = c
            else:
                rest = tuple((k, q) for k, q in mono if k != v)
                linear.append((c, (rest, atoms)))
        core = core + JetExpression(blocked)
        work = JetExpression(keep)
        cofactor = JetExpression(_accumulate(linear))
        if cofactor.is_zero():
            continue
        try:
            piece = _integrate_wrt(cofactor, w)
        except NotIntegrable as err:
            core = core + cofactor * JetExpression.coordinate(v)
            refused = refused or (cofactor, err)
            continue
        theta = theta + piece
        work = work + (cofactor * JetExpression.coordinate(v) - piece.total("x"))
    return core, theta, refused


def invert_total_x_derivative(e: JetExpression) -> JetExpression:
    """Return theta with D_x(theta) == e, or raise NotXDerivative (its
    subclass AntiderivativeOutsideClass if the descent refused a cofactor)."""
    core, theta, refused = _descent(e)
    if core.is_zero():
        return theta
    if refused:
        raise AntiderivativeOutsideClass(core, "the u-antiderivative of %s is outside the "
                                         "expression class (%s)" % refused)
    raise NotXDerivative(core)
