"""Text grammar for expressions and its deterministic renderer.

Grammar (UTF-8): identifiers t, x, u; derivatives u_ followed by a string
over {t,x} (order-insensitive, u_tx == u_xt); integer literals of ASCII
digits, with rationals formed by division; operators + - * / ^; functions
exp(), sin(), cos() of an affine form in u, and pow(<affine in u>,
<rational>); parentheses.  Named parameters supplied in a map are
substituted as exact rationals at parse time; a parameter may not be named
as a coordinate or a function.  Division requires the divisor to normalize
to a nonzero rational.  Expansion bounds live in expr: an expansion that
expr refuses is a ParseError at the operator's position.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import (
    ExprError,
    ExpansionError,
    JetExpression,
    _exact,
    coord_from_name,
    coord_name,
    cos_atom,
    exp_atom,
    pow_atom,
    rational_pow,
    sin_atom,
    sig_sort_key,
)


class ParseError(ExprError):
    """Syntax or symbol error, carrying the offending position."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


_FUNCTIONS = ("exp", "sin", "cos", "pow")

# Parentheses and function arguments recurse through expr; nesting beyond
# this depth is a ParseError, well inside Python's default recursion limit.
MAX_DEPTH = 100


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j < n and text[j] == ".":
                raise ParseError("non-rational literal", j)
            tokens.append(("num", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),=":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text, params=None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = -1  # the top-level expr is depth 0
        self.params = {k: Fraction(_exact(v)) for k, v in (params or {}).items()}
        for name in self.params:
            try:
                coord_from_name(name)
            except ExprError:
                if name not in _FUNCTIONS:
                    continue
            raise ExprError("parameter %r names a symbol of the grammar" % name)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %r" % kind, tok[2])
        return tok

    # expr := term (('+'|'-') term)*
    def expr(self) -> JetExpression:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError("nesting deeper than %d levels" % MAX_DEPTH, self.peek()[2])
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        self.depth -= 1
        return value

    # term := unary (('*'|'/') unary)*
    def term(self) -> JetExpression:
        value = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            rhs = self.unary()
            if op == "*":
                value = _at(pos, JetExpression.__mul__, value, rhs)
            else:
                value = _divide(value, rhs, pos)
        return value

    # unary := ('-'|'+') unary | power, with the signs read in a loop
    def unary(self) -> JetExpression:
        neg = False
        while self.peek()[0] in ("+", "-"):
            if self.next()[0] == "-":
                neg = not neg
        value = self.power()
        return -value if neg else value

    # power := primary ('^' unary-primary)?
    def power(self) -> JetExpression:
        base = self.primary()
        if self.peek()[0] != "^":
            return base
        _, _, pos = self.next()
        exponent = self.exponent_value(pos)
        return _at(pos, _raise, base, exponent, pos)

    def exponent_value(self, pos) -> Fraction:
        neg = False
        while self.peek()[0] in ("+", "-"):
            if self.next()[0] == "-":
                neg = not neg
        value = self.primary()
        try:
            q = value.as_fraction()
        except ExprError:
            raise ParseError("exponent must be a rational constant", pos)
        return -q if neg else q

    def primary(self) -> JetExpression:
        tok = self.next()
        kind, value, pos = tok
        if kind == "num":
            return JetExpression.rational(value)
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "name":
            if value in _FUNCTIONS:
                return self.function(value, pos)
            if value in self.params:
                return JetExpression.rational(self.params[value])
            try:
                return JetExpression.coordinate(coord_from_name(value))
            except ExprError:
                raise ParseError("unknown symbol %r" % value, pos)
        raise ParseError("unexpected token", pos)

    def function(self, name, pos) -> JetExpression:
        self.expect("(")
        arg = self.expr()
        affine = arg.affine_in_u()
        if affine is None:
            raise ParseError("%s argument must be affine in u" % name, pos)
        alpha, beta = affine
        if name == "pow":
            self.expect(",")
            second = self.expr()
            self.expect(")")
            try:
                r = second.as_fraction()
            except ExprError:
                raise ParseError("pow exponent must be a rational constant", pos)
            return _at(pos, JetExpression.atom, pow_atom(alpha, beta, r))
        self.expect(")")
        atom = {"exp": exp_atom, "sin": sin_atom, "cos": cos_atom}[name](alpha, beta)
        return JetExpression.atom(atom)


def _divide(value, rhs, pos) -> JetExpression:
    try:
        q = rhs.as_fraction()
    except ExprError:
        raise ParseError("division requires a rational constant divisor", pos)
    if q == 0:
        raise ParseError("division by zero", pos)
    return value * (Fraction(1) / q)


def _at(pos, build, *args) -> JetExpression:
    """build(*args), with an expansion that expr refuses (ExpansionError)
    raised as a ParseError at the operator's position pos."""
    try:
        return build(*args)
    except ExpansionError as err:
        raise ParseError(str(err), pos)


def _raise(base, exponent, pos) -> JetExpression:
    """base^exponent: as pow(base, exponent) for a nonzero affine base; one
    raw term c^e * f^e for a one-term base c*f at a nonnegative integer e, or
    a lone exp or pow atom at any rational e; else multiplied out."""
    affine = base.affine_in_u()
    if affine is not None and affine != (0, 0):
        return JetExpression.atom(pow_atom(*affine, exponent))
    e = exponent.numerator if exponent.denominator == 1 else exponent
    integral = type(e) is int and e >= 0
    if len(base.terms) == 1:
        (mono, atoms), c = next(iter(base.terms.items()))
        if integral or (not mono and len(atoms) == 1 and atoms[0][0][0] in ("exp", "pow")):
            scale = rational_pow(c, exponent)
            if scale is None:
                raise ParseError("coefficient %s has no rational power %s" % (c, exponent), pos)
            return JetExpression.from_raw([(scale, {k: p * e for k, p in mono + atoms})])
    if integral:
        return base ** e
    raise ParseError("fractional or negative power of a non-invertible base", pos)


def _single_atom(e):
    if len(e.terms) != 1:
        return None
    (mono, atoms), c = next(iter(e.terms.items()))
    if mono == () and len(atoms) == 1 and atoms[0][1] == 1:
        return c, atoms[0][0]
    return None


def parse_expression(text: str, params=None) -> JetExpression:
    """Parse text into a normalized expression; round-trips with render."""
    p = _Parser(text, params)
    value = p.expr()
    tok = p.peek()
    if tok[0] != "end":
        raise ParseError("trailing input", tok[2])
    return value


# ---------------------------------------------------------------------------
# Rendering.  Deterministic: terms in canonical signature order, factors in
# canonical factor order, rationals as p or p/q.

def _render_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def _render_affine(alpha: Fraction, beta: Fraction) -> str:
    parts = []
    if alpha != 0:
        if alpha == 1:
            parts.append("u")
        elif alpha == -1:
            parts.append("-u")
        else:
            parts.append("%s*u" % _render_fraction(alpha))
    if beta != 0 or alpha == 0:
        s = _render_fraction(abs(beta))
        if not parts:
            parts.append(_render_fraction(beta))
        else:
            parts.append("+ " + s if beta > 0 else "- " + s)
    return " ".join(parts)


def _render_atom(a) -> str:
    tag = a[0]
    if tag in ("exp", "sin", "cos"):
        return "%s(%s)" % (tag, _render_affine(a[1], a[2]))
    if tag == "pow":
        return "pow(%s, %s)" % (_render_affine(a[1], a[2]), _render_fraction(a[3]))
    return "Lam" + "".join("_" + coord_name(k) for k in a[2])


def _render_term(sig, coeff: Fraction) -> str:
    mono, atoms = sig
    factors = [coord_name(k) + ("^%d" % p if p > 1 else "") for k, p in mono]
    factors += [_render_atom(a) + ("^%d" % p if p > 1 else "") for a, p in atoms]
    mag = abs(coeff)
    if not factors:
        return _render_fraction(mag)
    body = "*".join(factors)
    if mag == 1:
        return body
    return "%s*%s" % (_render_fraction(mag), body)


def render(e: JetExpression) -> str:
    """Render an expression in the input grammar."""
    if e.is_zero():
        return "0"
    pieces = []
    for sig in sorted(e.terms, key=sig_sort_key):
        c = e.terms[sig]
        body = _render_term(sig, c)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)
