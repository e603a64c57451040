"""Differential operators on jet expressions.

Formal and solution-restricted total derivatives, full and restricted Euler
operators, inversion of total x-derivatives, and the integration-by-parts
normal form used to compare densities modulo trivial ones.

The descent used by inversion and the normal form processes the highest jet
coordinate (ranked by total order, then x-order) and peels terms linear in
it.  A step is taken only when the cofactor's coordinates all rank at or
below the lowered coordinate; this keeps the descent strictly decreasing, and
for expressions that genuinely are total x-derivatives it never blocks.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import (
    ExprError,
    JetExpression,
    U,
    UT,
    gee_atom,
    is_jet,
    is_kernel_atom,
)
from .pde import PdeSpec, on_chart


class NotXDerivative(ExprError):
    """The input is not a total x-derivative; carries the residual."""

    def __init__(self, residual):
        super().__init__("not a total x-derivative; residual %s" % residual)
        self.residual = residual


class NotIntegrable(ExprError):
    """Antiderivative leaves the closed expression fragment (e.g. log)."""


def total_derivative(e: JetExpression, direction: str) -> JetExpression:
    """Formal total derivative D_t or D_x."""
    return e.total(direction)


def iterated_total(e: JetExpression, a: int, b: int) -> JetExpression:
    for _ in range(a):
        e = e.total("t")
    for _ in range(b):
        e = e.total("x")
    return e


def eliminate_off_chart(pde: PdeSpec, e: JetExpression, with_gee: bool) -> JetExpression:
    """Rewrite coordinates excluded by the PDE chart through the equation.

    With with_gee=True the leading derivative and its total derivatives are
    kept as opaque gee atoms (off-solution bookkeeping); otherwise they are
    substituted away entirely (on-solution restriction).
    """
    leading = pde.leading
    while True:
        off = [k for k in e.jets() if not on_chart(leading, k)]
        if not off:
            return e
        w = max(off)
        a, b = w
        if leading == (1, 0):
            j = (a - 1, b)
        elif leading == (2, 0):
            j = (a - 2, b)
        else:
            j = (a - 1, b - 1)
        repl = iterated_total(pde.rhs, j[0], j[1])
        if with_gee:
            repl = repl + JetExpression.atom(gee_atom(*j))
        e = e.substitute(w, repl)


def solution_total_derivative(pde: PdeSpec, e: JetExpression) -> JetExpression:
    """The operator expressing t-derivatives through the PDE on its chart."""
    for k in e.jets():
        if not on_chart(pde.leading, k):
            raise ExprError(
                "expression not in solution-space coordinates: contains %s"
                % (k,))
    return eliminate_off_chart(pde, e.total("t"), with_gee=False)


def _euler_candidates(e: JetExpression) -> set:
    jets = set(e.jets())
    for arity in e.lam_arities():
        jets.update(k for k in arity if is_jet(k))
    return jets


def _horner(coeffs: dict, direction: str) -> JetExpression:
    """sum_j (-D)^j coeffs[j], evaluated as c_0 - D(c_1 - D(c_2 - ...)) so
    that terms cancel before they are differentiated again."""
    out = JetExpression.zero()
    for j in range(max(coeffs, default=-1), -1, -1):
        out = coeffs.get(j, 0) - out.total(direction)
    return out


def euler_operator(e: JetExpression) -> JetExpression:
    """Variational derivative: sum over jets v of (-D)^v (de/dv), nested in
    Horner form over x-orders and then over t-orders."""
    rows: dict = {}
    for a, b in _euler_candidates(e):
        rows.setdefault(a, {})[b] = e.partial((a, b))
    inner = {a: _horner(row, "x") for a, row in rows.items()}
    return _horner(inner, "t")


def restricted_euler(e: JetExpression, base: str) -> JetExpression:
    """Truncated Euler operators relating densities back to multipliers.

    base "U_fullX": d/du - D_x d/du_x + D_x^2 d/du_xx - ...
    base "U_t":     d/du_t
    base "U_x":     d/du_x - D_x d/du_xx + ...
    """
    if base == "U_t":
        return e.partial(UT)
    start = 0 if base == "U_fullX" else 1
    if base not in ("U_fullX", "U_x"):
        raise ExprError("unknown restricted Euler base %r" % base)
    return _horner({b - start: e.partial((0, b)) for (a, b) in _euler_candidates(e)
                    if a == 0 and b >= start}, "x")


# ---------------------------------------------------------------------------
# Antiderivative in u for term coefficients (kernel atoms included).

def _integrate_u(e: JetExpression) -> JetExpression:
    """Antiderivative in u.  Terms carrying a shifted power atom are first
    rebased onto pure powers of the atom argument and accumulated, so that
    logarithmic pieces may cancel across terms before being rejected."""
    from math import comb
    out = JetExpression.zero()
    groups: dict = {}
    for (mono, atoms), c in e.terms.items():
        live = [(a, p) for a, p in atoms if is_kernel_atom(a) and a[1] != 0]
        if len(live) == 1 and live[0][0][0] == "pow" and live[0][1] == 1:
            a = live[0][0]
            alpha, beta, r = a[1], a[2], a[3]
            m = dict(mono).get(U, 0)
            rest_mono = tuple((k, p) for k, p in mono if k != U)
            rest_atoms = tuple(ap for ap in atoms if ap[0] != a)
            bucket = groups.setdefault((alpha, beta), {})
            for j in range(m + 1):
                key = ((rest_mono, rest_atoms), r + j)
                coeff = c * comb(m, j) * (-beta) ** (m - j) * alpha ** (-m)
                bucket[key] = bucket.get(key, 0) + coeff
        else:
            out = out + _integrate_u_term(c, mono, atoms)
    for (alpha, beta), bucket in groups.items():
        for (rest_sig, s), coeff in bucket.items():
            if coeff == 0:
                continue
            if s == -1:
                raise NotIntegrable("logarithmic antiderivative")
            piece = JetExpression.atom(("pow", alpha, beta, s + 1))
            out = out + JetExpression({rest_sig: coeff / (alpha * (s + 1))}) * piece
    return out


def _integrate_u_term(c: Fraction, mono, atoms) -> JetExpression:
    rest: dict = {}
    m = 0
    for k, p in mono:
        if k == U:
            m = p
        else:
            rest[k] = p
    live = []
    for a, p in atoms:
        if not is_kernel_atom(a):
            raise NotIntegrable("formal atom in antiderivative")
        if a[1] == 0:
            rest[a] = rest.get(a, 0) + p
        else:
            live.append((a, p))
    body = _integrate_u_body(m, live)
    return JetExpression.from_raw([(c, rest)]) * body


def _u_power(m: int) -> JetExpression:
    return JetExpression.from_raw([(Fraction(1), {U: m} if m else {})])


def _integrate_u_body(m: int, live) -> JetExpression:
    """Exact antiderivative of u^m * prod(atoms) with respect to u."""
    if not live:
        return _u_power(m + 1) * Fraction(1, m + 1)
    tags = sorted(a[0] for a, _ in live)
    if tags == ["exp"]:
        (a, p), = live
        assert p == 1
        alpha = a[1]
        acc = JetExpression.atom(a) * Fraction(1, alpha) * _u_power(m)
        if m:
            acc = acc - _integrate_u_body(m - 1, live) * Fraction(m, alpha)
        return acc
    if set(tags) <= {"sin", "cos"}:
        return _integrate_trig(m, live)
    if set(tags) == {"exp", "sin"} or set(tags) == {"exp", "cos"}:
        return _integrate_exp_trig(m, live)
    raise NotIntegrable("atom combination %s" % tags)


def _integrate_trig(m: int, live) -> JetExpression:
    args = {(a[1], a[2]) for a, _ in live}
    if len(args) > 1:
        raise NotIntegrable("mixed trigonometric arguments")
    (alpha, beta), = args
    s = sum(p for a, p in live if a[0] == "sin")
    if s > 1:
        raise NotIntegrable("sin power above one survived normalization")
    cpow = sum(p for a, p in live if a[0] == "cos")
    return _integrate_trig_rec(m, s, cpow, alpha, beta)


def _integrate_trig_rec(m: int, s: int, cpow: int, alpha, beta) -> JetExpression:
    """integral of u^m sin^s cos^c, s in {0,1}."""
    sin_a = ("sin", alpha, beta)
    cos_a = ("cos", alpha, beta)
    if s == 1:
        head = JetExpression.atom(cos_a) ** (cpow + 1) * Fraction(-1, cpow + 1) * (1 / alpha)
        acc = head * _u_power(m)
        if m:
            acc = acc - _integrate_trig_rec(m - 1, 0, cpow + 1, alpha, beta) * Fraction(m) * Fraction(-1, cpow + 1) * (1 / alpha)
        return acc
    if cpow == 0:
        return _u_power(m + 1) * Fraction(1, m + 1)
    # d/du [u^m sin cos^(c-1)] = m u^(m-1) sin cos^(c-1)
    #                            + alpha c u^m cos^c - alpha (c-1) u^m cos^(c-2)
    head = _u_power(m) * JetExpression.atom(sin_a) * JetExpression.atom(cos_a) ** (cpow - 1)
    acc = head
    if m:
        acc = acc - _integrate_trig_rec(m - 1, 1, cpow - 1, alpha, beta) * Fraction(m)
    if cpow > 1:
        acc = acc + _integrate_trig_rec(m, 0, cpow - 2, alpha, beta) * (alpha * Fraction(cpow - 1))
    return acc * (Fraction(1, cpow) / alpha)


def _integrate_exp_trig(m: int, live) -> JetExpression:
    parts = {a[0]: (a, p) for a, p in live}
    ea, ep = parts["exp"]
    ta, tp = parts.get("sin", parts.get("cos"))
    if ep != 1 or tp != 1:
        raise NotIntegrable("exp-trig powers above one")
    ae = ea[1]
    at = ta[1]
    denom = ae * ae + at * at
    sin_a = ("sin", ta[1], ta[2])
    cos_a = ("cos", ta[1], ta[2])
    e_atom = JetExpression.atom(ea)
    if ta[0] == "sin":
        head = e_atom * (JetExpression.atom(sin_a) * ae - JetExpression.atom(cos_a) * at) * (1 / denom)
    else:
        head = e_atom * (JetExpression.atom(cos_a) * ae + JetExpression.atom(sin_a) * at) * (1 / denom)
    acc = head * _u_power(m)
    if m:
        acc = acc - _integrate_u(head * _u_power(m - 1)) * Fraction(m)
    return acc


def _integrate_wrt(e: JetExpression, w) -> JetExpression:
    """Antiderivative of e with respect to coordinate w (w may be u itself)."""
    if w == U:
        return _integrate_u(e)
    out = JetExpression.zero()
    for (mono, atoms), c in e.terms.items():
        f = dict(mono)
        m = f.pop(w, 0)
        f[w] = m + 1
        for a, p in atoms:
            f[a] = f.get(a, 0) + p
        out = out + JetExpression.from_raw([(c * Fraction(1, m + 1), f)])
    return out


def _descent_rank(k):
    a, b = k
    return (a + b, b, a)


def _term_depends_on_u(mono, atoms) -> bool:
    if U in dict(mono):
        return True
    return any(is_kernel_atom(a) and a[1] != 0 for a, _ in atoms)


def _term_coords(mono, atoms) -> set:
    out = {k for k, _ in mono if is_jet(k)}
    if any(is_kernel_atom(a) and a[1] != 0 for a, _ in atoms):
        out.add(U)
    return out


def _descend(e: JetExpression):
    """Split e as (core, theta) with e == core + D_x(theta)."""
    if e.has_formal():
        raise ExprError("descent undefined on formal atoms")
    theta = JetExpression.zero()
    core = JetExpression.zero()
    work = e
    while not work.is_zero():
        jets = work.jets()
        if not jets:
            jetless_core = {}
            jetless_int = {}
            for sig, c in work.terms.items():
                mono, atoms = sig
                if _term_depends_on_u(mono, atoms):
                    jetless_core[sig] = c
                else:
                    jetless_int[sig] = c
            core = core + JetExpression(jetless_core)
            theta = theta + _integrate_wrt(JetExpression(jetless_int), "x")
            break
        v = max(jets, key=_descent_rank)
        if v[1] == 0:
            stuck = {}
            keep = {}
            for sig, c in work.terms.items():
                mono, atoms = sig
                if v in _term_coords(mono, atoms):
                    stuck[sig] = c
                else:
                    keep[sig] = c
            core = core + JetExpression(stuck)
            work = JetExpression(keep)
            continue
        w = (v[0], v[1] - 1)
        w_rank = _descent_rank(w)
        linear = {}
        blocked = {}
        keep = {}
        for sig, c in work.terms.items():
            mono, atoms = sig
            p = dict(mono).get(v, 0)
            if p == 0:
                keep[sig] = c
                continue
            others = _term_coords(mono, atoms) - {v}
            if p >= 2 or any(_descent_rank(z) > w_rank for z in others):
                blocked[sig] = c
            else:
                rest = tuple((k, q) for k, q in mono if k != v)
                linear[(rest, atoms)] = linear.get((rest, atoms), 0) + c
        core = core + JetExpression(blocked)
        work = JetExpression(keep)
        cofactor = JetExpression({sig: c for sig, c in linear.items() if c != 0})
        if cofactor.is_zero():
            continue
        try:
            piece = _integrate_wrt(cofactor, w)
        except NotIntegrable:
            core = core + cofactor * JetExpression.coordinate(v)
            continue
        theta = theta + piece
        work = work + (cofactor * JetExpression.coordinate(v) - piece.total("x"))
    return core, theta


def ibp_normal_form(e: JetExpression):
    """Canonical representative modulo im(D_x): returns (core, theta)."""
    return _descend(e)


def invert_total_x_derivative(e: JetExpression) -> JetExpression:
    """Return theta with D_x(theta) == e, or raise NotXDerivative."""
    core, theta = _descend(e)
    if not core.is_zero():
        raise NotXDerivative(core)
    return theta
