"""Independent straight-line jet calculus built on sympy.

Used as an oracle: total derivatives, the Euler operator and the reduction
to solutions are implemented here from scratch on sympy symbols, with no code
shared with the package.  Jet coordinates map to symbols jet_a_b for
d_t^a d_x^b u.  A total derivative of a jet on the last row or column of
JET raises instead of truncating.
"""

from fractions import Fraction

import sympy as sp

MAX_T = 8
MAX_X = 12

T, X = sp.symbols("t x")
JET = {(a, b): sp.Symbol("jet_%d_%d" % (a, b))
       for a in range(MAX_T) for b in range(MAX_X)}
UU = JET[(0, 0)]
_JET_OF = {sym: k for k, sym in JET.items()}


def _jets(expr):
    """The ((a, b), symbol) pairs of the jets expr contains."""
    return [(_JET_OF[s], s) for s in expr.free_symbols if s in _JET_OF]


def _total(expr, indep, step):
    out = sp.diff(expr, indep)
    for (a, b), sym in _jets(expr):
        a1, b1 = a + step[0], b + step[1]
        if a1 >= MAX_T or b1 >= MAX_X:
            raise ValueError("jet %s is past the oracle's jet table" % sym)
        out += sp.diff(expr, sym) * JET[(a1, b1)]
    return sp.expand(out)


def total_t(expr):
    return _total(expr, T, (1, 0))


def total_x(expr):
    return _total(expr, X, (0, 1))


def euler(expr):
    out = sp.Integer(0)
    for (a, b), sym in _jets(expr):
        d = sp.diff(expr, sym)
        if d == 0:
            continue
        for _ in range(a):
            d = total_t(d)
        for _ in range(b):
            d = total_x(d)
        out += (-1) ** (a + b) * d
    return sp.expand(out)


def to_sympy(e):
    """Convert a package expression to the oracle's sympy form."""
    out = sp.Integer(0)
    for (mono, atoms), c in e.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for k, p in mono:
            if k == "t":
                term *= T ** p
            elif k == "x":
                term *= X ** p
            else:
                term *= JET[k] ** p
        for a, p in atoms:
            alpha = sp.Rational(Fraction(a[1]).numerator, Fraction(a[1]).denominator)
            beta = sp.Rational(Fraction(a[2]).numerator, Fraction(a[2]).denominator)
            arg = alpha * UU + beta
            if a[0] == "exp":
                term *= sp.exp(arg) ** p
            elif a[0] == "sin":
                term *= sp.sin(arg) ** p
            elif a[0] == "cos":
                term *= sp.cos(arg) ** p
            elif a[0] == "pow":
                r = sp.Rational(Fraction(a[3]).numerator, Fraction(a[3]).denominator)
                term *= (arg ** r) ** p
            else:
                raise ValueError("formal atom %r has no oracle image" % (a,))
        out += term
    return sp.expand(out)


def same(e, sym_expr) -> bool:
    """Structural zero test for (package expression) - (oracle expression)."""
    return sp.simplify(to_sympy(e) - sym_expr) == 0


def is_zero(expr) -> bool:
    return expr == 0 or sp.simplify(expr) == 0


def on_solutions(expr, leading, rhs):
    """expr restricted to the solutions of u_leading = rhs: each jet at or
    beyond the leading derivative, d_t^i d_x^j u_leading, is replaced by
    D_t^i D_x^j rhs, until none is left."""
    la, lb = leading
    while True:
        subs = {}
        for (a, b), sym in _jets(expr):
            if a >= la and b >= lb:
                d = rhs
                for _ in range(a - la):
                    d = total_t(d)
                for _ in range(b - lb):
                    d = total_x(d)
                subs[sym] = d
        if not subs:
            return expr
        expr = sp.expand(expr.xreplace(subs))


def law_problems(law):
    """What the oracle finds wrong with a conservation law of the package,
    as a list of messages, empty when it holds: D_t Phi^t + D_x Phi^x must
    vanish on solutions, and E_u(Lam * G) identically."""
    leading = law.pde.leading
    rhs = to_sympy(law.pde.rhs)
    problems = []
    div = on_solutions(total_t(to_sympy(law.density_t)) + total_x(to_sympy(law.density_x)),
                       leading, rhs)
    if not is_zero(div):
        problems.append("D_t Phi^t + D_x Phi^x on solutions is %s" % div)
    residual = euler(to_sympy(law.multiplier) * (JET[leading] - rhs))
    if not is_zero(residual):
        problems.append("E_u(Lam * G) is %s" % residual)
    return problems
