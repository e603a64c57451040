"""Scalar PDEs in solved form.

A PdeSpec stores G = 0 as leading = rhs, where leading is one of u_t, u_tt,
u_tx and the right-hand side reads only jets of t-order below the leading
derivative's.  With t and x, those jets are the chart of solution-space
coordinates of the shape (on_chart); the u_tx chart also holds the pure
t-derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import JetExpression, ExprError, coord_name
from .parser import parse_expression

LEADINGS = ((2, 0), (1, 1), (1, 0))


class PdeError(ExprError):
    pass


def on_chart(leading, k) -> bool:
    """Whether jet k is a solution-space coordinate: t-order below the leading
    derivative's, or a pure t-derivative when u_tx leads."""
    a, b = k
    return a < leading[0] or leading == (1, 1) and b == 0


@dataclass(frozen=True)
class PdeSpec:
    """A PDE G = leading - rhs = 0 in solved form."""

    leading: tuple
    rhs: JetExpression

    def __post_init__(self):
        if self.leading not in LEADINGS:
            raise PdeError("leading derivative must be u_t, u_tt or u_tx")
        for k in self.rhs.jets():
            if k[0] >= self.leading[0]:
                raise PdeError(
                    "rhs contains %s, excluded for leading %s"
                    % (coord_name(k), coord_name(self.leading)))

    def gee(self) -> JetExpression:
        """The expression G = leading - rhs."""
        return JetExpression.coordinate(self.leading) - self.rhs

    def __str__(self):
        return "%s = %s" % (coord_name(self.leading), self.rhs)


class ChartForms(dict):
    """u_k on solutions for each jet k off the chart, None on it: rhs at the
    leading jet, above it D^ (`total` with this chart) of the form one x-step,
    else one t-step, below.  Built on demand, for one computation."""

    def __init__(self, pde: PdeSpec):
        super().__init__({pde.leading: pde.rhs})
        self.leading = pde.leading

    def __missing__(self, k):
        a, b = k
        if on_chart(self.leading, k):
            return self.setdefault(k, None)
        down, d = ((a, b - 1), "x") if b > self.leading[1] else ((a - 1, b), "t")
        return self.setdefault(k, self[down].total(d, self))


def parse_pde(text: str, params=None) -> PdeSpec:
    """Parse '<lhs> = <rhs>' or '<expr> = 0' into a validated PdeSpec."""
    if "=" not in text:
        raise PdeError("PDE text must contain '='")
    lhs_text, rhs_text = text.split("=", 1)
    lhs = parse_expression(lhs_text, params)
    # Blanked up to the '=', so a ParseError's position counts within text.
    rhs = parse_expression(" " * (len(lhs_text) + 1) + rhs_text, params)
    g = lhs - rhs
    leading = None
    for cand in LEADINGS:
        if cand in g.jets():
            leading = cand
            break
    if leading is None:
        raise PdeError("no admissible leading derivative (u_t, u_tt, u_tx) found")
    coeff = None
    for (mono, atoms), c in g.terms.items():
        if dict(mono).get(leading, 0) == 0:
            continue
        if mono != ((leading, 1),) or atoms:
            raise PdeError("leading derivative must appear alone and linearly")
        coeff = c
    rhs_expr = (JetExpression.coordinate(leading) - g * (Fraction(1) / coeff))
    return PdeSpec(leading=leading, rhs=rhs_expr)


def iterated_total(e: JetExpression, a: int, b: int) -> JetExpression:
    """D_t^a D_x^b e."""
    for _ in range(a):
        e = e.total("t")
    for _ in range(b):
        e = e.total("x")
    return e
