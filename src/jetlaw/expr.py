"""Exact immutable expressions over jet coordinates and kernel-function atoms.

A coordinate is either an independent variable ("t" or "x") or a jet
coordinate (a, b) standing for d_t^a d_x^b u, with (0, 0) being u itself.
A term multiplies a coefficient, a monomial in coordinates, and
kernel atoms: exp/sin/cos of an affine form a*u + b, and (a*u + b)^r with
rational exponent r.  One opaque atom family supports the determining-system
machinery: "lam" atoms carry partial derivatives of an unknown multiplier of
declared arity.

A coefficient is exact: an int when it is integral, else a Fraction with
denominator > 1.  Integral coefficients are the common case, and int
arithmetic is much cheaper than Fraction arithmetic; int and Fraction hash
and compare alike, so the normal form is still unique.  Coefficients are
normalized where they are born or merged (`_q`).  int / int is a float, so
exact division is Fraction(p, q) or a division by a Fraction, never p / q.
Anything but an int or a Fraction is rejected (`CoefficientError`), as a
coefficient and as an atom parameter.  Atom parameters stay Fractions.

A kernel atom is interned where a raw term enters normalization (`_intern`):
each distinct value is one shared `_Atom`, which carries its hash, computed
once, and its u-derivative, computed on first use, so a dict probe on a
signature hashes no Fraction and usually finds the atom by identity.  The
(atom, power) pairs and atom tuples that the rewrite step builds, and the
pairs that a product merges, are shared through `_PAIRS`, as monomial pairs
are (`_pair`), formal atoms included.  Both tables are bounded by the
distinct atoms and pairs a process meets, and neither is ever keyed by an
inexact value: every parameter is checked before the table is read.  Formal
atoms are shared in `_PAIRS` and are not interned.

Everything is normalized at construction: coefficients merged, zeros pruned,
and one rewrite step (`_rewrite`) applied to each raw term until no rule
fires.  The rules, tried in this order:

1. exp atoms combine into one exp at power 1; exp(0) drops.
2. For each pow atom (a u + b)^r, in atom order: a power p != 1 folds into
   the exponent; a nonnegative integer r expands by the binomial rule; a
   constant base (a = 0) folds into the coefficient when b^r is rational;
   u^m beside the atom rebases onto it by the binomial rule, u^m =
   (((a u + b) - b) / a)^m; a scale a != 1 moves into the coefficient when
   a^r is rational.
3. Two live pow atoms (a u + b)^r, (a' u + b')^r' of the same root (b a' =
   b' a) combine onto the first, in atom order, whose conversion factor
   (a'/a)^r' is rational: (a u + b)^(r + r') times that factor.  Equal bases
   are the case with factor 1.
4. sin and cos of a negative argument reflect (sin odd, cos even); sin(0)
   vanishes and cos(0) drops; sin^p becomes sin^(p - 2m) (1 - cos^2)^m with
   m = p // 2, by the binomial rule.

Equality of normalized expressions is structural equality.

Products, partials and total derivatives build a term's signature directly
when the term is normalized by construction, and send only the rest through
the rewrite step.  Only one rule reads coordinates, the rebase of u beside a
live power atom (a != 0), and the formal atoms take part in no rule.  So the
product of two normalized terms is normalized when at most one side carries
kernel atoms and the merged monomial does not meet a live power atom with u;
lowering the power of a coordinate, trading one formal atom for another and
multiplying by a jet other than u keep a term normalized.  The total
derivative is one chain rule on the per-term partial, D = d/d(direction) +
sum_k u_(k+direction) d/du_k over the jets k the term depends on, so only
the derivatives of kernel atoms reach the rewrite step.

Bulk work on many products and partials (stage-1 assembly) runs on packed
terms (`_Packing`): a term is (coefficient, atom-id, packed monomial), the
atom-id numbering the term's (shared) atom tuple and the packed monomial being one int
that holds each coordinate's exponent in a fixed-width field.  A product that
needs no rewrite is then an integer addition and a partial in a coordinate an
exponent shift; products of two atom-carrying terms or of a live power atom
with u, and the u-partials of live kernel atoms, are decoded, sent through
`_canon_term` or `_term_partial`, packed again and memoized.  An atom other
than a kernel atom, or a power too wide to pack with a bit to spare, raises
ExprError.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from numbers import Number

T = "t"
X = "x"
U = (0, 0)
UT = (1, 0)
UX = (0, 1)


class ExprError(ValueError):
    """Raised for operations outside the closed expression fragment."""


class CoefficientError(ExprError):
    """A coefficient that is neither an int nor a Fraction, e.g. a float."""


class ExpansionError(ExprError):
    """A binomial expansion of more than MAX_BINOMIAL_TERMS terms."""


def _exact(c):
    """c, checked to be an exact rational; a float would silently turn into
    an inexact Fraction."""
    if not isinstance(c, (int, Fraction)):
        raise CoefficientError("coefficient %r is not an int or a Fraction" % (c,))
    return c


def _q(c):
    """The normal form of a coefficient: an int when integral, else the
    Fraction itself."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


def is_jet(k) -> bool:
    return type(k) is tuple and type(k[0]) is int


def is_indep(k) -> bool:
    return k == "t" or k == "x"


def _is_coordinate(k) -> bool:
    """Whether k is "t", "x" or a jet (a, b) of nonnegative ints."""
    return is_indep(k) or (type(k) is tuple and len(k) == 2
                           and type(k[0]) is type(k[1]) is int and min(k) >= 0)


def coord_sort_key(k):
    """Total canonical order: independents first, jets by (order, t, x)."""
    if k == "t":
        return (-1, 0, 0)
    if k == "x":
        return (-1, 0, 1)
    a, b = k
    return (a + b, a, b)


def coord_name(k) -> str:
    if is_indep(k):
        return k
    a, b = k
    if a == 0 and b == 0:
        return "u"
    return "u_" + "t" * a + "x" * b


def coord_from_name(name: str):
    if name in ("t", "x"):
        return name
    if name == "u":
        return U
    if name.startswith("u_") and name[2:] and set(name[2:]) <= {"t", "x"}:
        tail = name[2:]
        return (tail.count("t"), tail.count("x"))
    raise ExprError("unknown coordinate name %r" % name)


def bump(k, direction):
    a, b = k
    return (a + 1, b) if direction == "t" else (a, b + 1)


# ---------------------------------------------------------------------------
# Atoms, stored as tagged tuples with Fraction components; the kernel atoms of
# normalized terms are interned `_Atom`s.

def exp_atom(alpha, beta=0):
    return ("exp", Fraction(_exact(alpha)), Fraction(_exact(beta)))


def sin_atom(alpha, beta=0):
    return ("sin", Fraction(_exact(alpha)), Fraction(_exact(beta)))


def cos_atom(alpha, beta=0):
    return ("cos", Fraction(_exact(alpha)), Fraction(_exact(beta)))


def pow_atom(alpha, beta, r):
    return ("pow", Fraction(_exact(alpha)), Fraction(_exact(beta)), Fraction(_exact(r)))


def lam_atom(arity, index=()):
    """Unknown-multiplier derivative atom: d^index Lam, Lam of given arity."""
    return ("lam", tuple(arity), tuple(sorted(index, key=coord_sort_key)))


def lam_bump(atom, coord):
    tag, arity, index = atom
    return (tag, arity, tuple(sorted(index + (coord,), key=coord_sort_key)))


_KERNEL_TAGS = ("exp", "sin", "cos", "pow")
_ATOM_LENGTHS = {"exp": 3, "sin": 3, "cos": 3, "pow": 4, "lam": 3}


def is_kernel_atom(a) -> bool:
    return a[0] in _KERNEL_TAGS


def _atom_sort_key(a):
    return (a[0],) + tuple(str(z) for z in a[1:])


def _nth_root(n: int, q: int):
    """Exact q-th root of a nonnegative integer, or None."""
    r = _integer_root(n, q)
    return r if r ** q == n else None


def _integer_root(n: int, q: int) -> int:
    """Floor of the q-th root of a nonnegative integer, by integer Newton
    iteration from an upper bound; exact for integers of any size."""
    if n < 2:
        return n
    if n.bit_length() <= q:
        return 1
    x = 1 << -(-n.bit_length() // q)
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            return x
        x = y


def rational_pow(base, r):
    """base**r as an exact Fraction, or None when not exactly rational."""
    base = Fraction(_exact(base))
    r = Fraction(_exact(r))
    if base == 0:
        if r > 0:
            return Fraction(0)
        raise ExprError("zero raised to a nonpositive power")
    if r.denominator == 1:
        return base ** r.numerator
    if base < 0:
        return None
    num = _nth_root(base.numerator, r.denominator)
    den = _nth_root(base.denominator, r.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den) ** r.numerator


# (u/3 - 5/7)^3000, near the bound, takes about a second (2 vCPU, Python 3.11).
MAX_BINOMIAL_TERMS = 3001


def _binomial(n: int, x, y) -> list:
    """[(j, C(n, j) x^(n-j) y^j)] for j ascending, numbers or expressions, each
    power one product from the one before; one term when x or y is 0, else at
    most MAX_BINOMIAL_TERMS terms (ExpansionError, before any power)."""
    if x == 0 or y == 0:
        return [(n, y ** n)] if x == 0 else [(0, x ** n)]
    if n + 1 > MAX_BINOMIAL_TERMS:
        raise ExpansionError("expansion may hold %d terms, more than %d"
                             % (n + 1, MAX_BINOMIAL_TERMS))
    xs, ys = [1], [1]
    for _ in range(n):
        xs.append(xs[-1] * x)
        ys.append(ys[-1] * y)
    return [(j, xs[n - j] * ys[j] * comb(n, j)) for j in range(n + 1)]


# ---------------------------------------------------------------------------
# Term canonicalization.  Raw terms are (coeff, factor-dict) pairs where the
# dict maps coordinates and atoms to integer powers; rewriting may split one
# raw term into several canonical ones.

_PAIRS: dict = {}


def _pair(k, p):
    """The shared (coordinate, power) pair of monomials.  There are few
    distinct pairs, so every expression holding one refers to the same tuple
    (and the same coordinate tuple) instead of a copy of its own."""
    pair = (k, p)
    return _PAIRS.setdefault(pair, pair)


class _Atom(tuple):
    """The one shared object of a kernel atom's value (`_intern`).  It hashes
    as the plain tuple does, from a hash stored once, so a plain tuple atom is
    the same dict key; derivative is its d/du (`_atom_derivative`)."""

    def __new__(cls, values):
        atom = tuple.__new__(cls, values)
        atom.hash = tuple.__hash__(atom)
        atom.derivative = None
        return atom

    def __hash__(self):
        return self.hash

    def __reduce__(self):
        # The stored hash holds in this process only (str hashes are salted
        # per process), so a pickled atom is interned again by value.
        return _intern, (tuple(self),)


_ATOMS: dict = {}


def _intern(a):
    """The _Atom equal to the kernel atom a, made on first sight; a parameter
    that is not exact raises CoefficientError before the table is read."""
    for z in a[1:]:
        _exact(z)
    atom = _ATOMS.get(a)
    if atom is None:
        atom = _Atom((a[0],) + tuple(Fraction(z) for z in a[1:]))
        _ATOMS[atom] = atom
    return atom


def _canon_term(coeff, factors: dict) -> list:
    out = []
    stack = [(coeff, factors)]
    while stack:
        c, f = stack.pop()
        if c == 0:
            continue
        f = {(_intern(k) if type(k) is tuple and k[0] in _KERNEL_TAGS else k): p
             for k, p in f.items() if p != 0}
        if any(p < 0 and k[0] in ("sin", "cos", "lam") for k, p in f.items()):
            raise ExprError("negative power of a sin, cos or lam atom")
        rewritten = _rewrite(c, f)
        if rewritten is not None:
            stack.extend(rewritten)
            continue
        mono = []
        atoms = []
        for k, p in f.items():
            if is_indep(k) or is_jet(k):
                if p < 0:
                    raise ExprError("negative coordinate power")
                mono.append(_pair(k, p))
            else:
                atoms.append(_pair(k, p))
        mono.sort(key=_mono_key)
        atoms = tuple(sorted(atoms, key=_atoms_key))
        out.append((c, (tuple(mono), _PAIRS.setdefault(atoms, atoms))))
    return out


def _replace(f, drop, add=None, p=1):
    """A copy of the factor dict f without the factors in drop and with p
    more of factor add."""
    g = {k: q for k, q in f.items() if k not in drop}
    if add is not None:
        g[add] = g.get(add, 0) + p
    return g


def _rewrite(c, f):
    """The raw terms that one rewrite step turns c*f into, or None when c*f
    is in normal form.  The rules are tried in the module docstring's order."""
    atoms = [k for k in f if not (is_indep(k) or is_jet(k))]
    exps = [k for k in atoms if k[0] == "exp"]
    if exps and (len(exps) > 1 or f[exps[0]] != 1 or not (exps[0][1] or exps[0][2])):
        alpha = sum(k[1] * f[k] for k in exps)
        beta = sum(k[2] * f[k] for k in exps)
        return [(c, _replace(f, exps, ("exp", alpha, beta) if alpha or beta else None))]
    pows = sorted((k for k in atoms if k[0] == "pow"), key=_atom_sort_key)
    for k in pows:
        _, alpha, beta, r = k
        if f[k] != 1:
            return [(c, _replace(f, (k,), ("pow", alpha, beta, r * f[k])))]
        if r.denominator == 1 and r >= 0:
            return [(c * w, _replace(f, (k,), U, j)) for j, w in _binomial(int(r), beta, alpha)]
        if alpha == 0:
            value = rational_pow(beta, r)
            if value is not None:
                return [(c * value, _replace(f, (k,)))]
            continue
        m = f.get(U, 0)
        if m > 0:
            return [(c * w, _replace(f, (k, U), ("pow", alpha, beta, r + j)))
                    for j, w in _binomial(m, -beta / alpha, 1 / alpha)]
        if alpha != 1:
            scale = rational_pow(alpha, r)
            if scale is not None:
                return [(c * scale, _replace(f, (k,), ("pow", Fraction(1), beta / alpha, r)))]
    for i, k1 in enumerate(pows):
        for k2 in pows[i + 1:]:
            if k1[1] != 0 != k2[1] and k1[2] * k2[1] == k2[2] * k1[1]:
                for this, other in ((k1, k2), (k2, k1)):
                    scale = rational_pow(other[1] / this[1], other[3])
                    if scale is not None:
                        return [(c * scale,
                                 _replace(f, (k1, k2), this[:3] + (this[3] + other[3],)))]
    for k in atoms:
        if k[0] not in ("sin", "cos"):
            continue
        tag, alpha, beta = k
        if alpha < 0 or (alpha == 0 and beta < 0):
            p = f[k]
            return [(c * (-1) ** p if tag == "sin" else c,
                     _replace(f, (k,), (tag, -alpha, -beta), p))]
        if alpha == 0 and beta == 0:
            return [] if tag == "sin" else [(c, _replace(f, (k,)))]
        if tag == "sin" and f[k] >= 2:
            g = _replace(f, (), k, -2 * (f[k] // 2))
            return [(c * w, _replace(g, (), ("cos", alpha, beta), 2 * j))
                    for j, w in _binomial(f[k] // 2, 1, -1)]
    return None


# ---------------------------------------------------------------------------
# Expression construction and arithmetic on {signature: coefficient} dicts.

def _accumulate(pairs, terms=None) -> dict:
    """{signature: coefficient} summed over (coefficient, signature) pairs,
    into terms when given; zero sums drop and the rest are normalized."""
    terms = {} if terms is None else terms
    for c, sig in pairs:
        nc = terms.get(sig, 0) + c
        if nc == 0:
            terms.pop(sig, None)
        else:
            terms[sig] = nc if type(nc) is int else _q(nc)
    return terms


def _sig_factors(sig) -> dict:
    mono, atoms = sig
    f = dict(mono)
    for a, p in atoms:
        f[a] = f.get(a, 0) + p
    return f


def _mono_key(pair):
    return coord_sort_key(pair[0])


def _atoms_key(pair):
    return _atom_sort_key(pair[0])


def _merge_factors(s1, s2, key):
    """The product of two sorted (factor, power) tuples, sorted by key: the
    powers of a shared factor add into a shared pair, and a factor whose
    powers cancel drops."""
    if not s1 or not s2:
        return s1 or s2
    out = []
    for pair in sorted(s1 + s2, key=key):
        if out and out[-1][0] == pair[0]:
            p = out.pop()[1] + pair[1]
            if p:
                out.append(_pair(pair[0], p))
        else:
            out.append(pair)
    return tuple(out)


def _term_kinds(sig) -> tuple:
    """(has kernel atoms, has a live pow atom, has u) for one signature."""
    mono, atoms = sig
    kernel = live = False
    for a, _ in atoms:
        if is_kernel_atom(a):
            kernel = True
            live = live or (a[0] == "pow" and a[1] != 0)
    return kernel, live, any(k == U for k, _ in mono)


def term_jets(*sigs) -> set:
    """The jets the sum of the terms sigs depends on: their monomials' jets,
    u beside a live kernel atom, and the jets in the arity of a lam atom."""
    out = set()
    for mono, atoms in sigs:
        for k, _ in mono:
            if is_jet(k):
                out.add(k)
        for a, _ in atoms:
            if a[0] == "lam":
                out.update(k for k in a[1] if is_jet(k))
            elif is_kernel_atom(a) and a[1] != 0:
                out.add(U)
    return out


def _swap_atom(atoms, old, new):
    """The sorted atom pairs with one power of old traded for one of new.
    Atoms sort by tag first, so a lone atom of its tag at power 1 swaps for
    one of the same tag in place, without a _pair probe: this is every lam
    bump of the split, and the probe hashes the lam atom."""
    if old[0] == new[0] and sum(a[0] == old[0] for a, _ in atoms) == 1 \
            and dict(atoms)[old] == 1:
        return tuple((new, 1) if a == old else (a, p) for a, p in atoms)
    return _merge_factors(atoms, ((old, -1), (new, 1)), _atoms_key)


def _canon_product(c, sig1, sig2) -> list:
    """The normalized (coefficient, signature) pairs of c * sig1 * sig2,
    through the rewrite step."""
    f = _sig_factors(sig1)
    for k, p in _sig_factors(sig2).items():
        f[k] = f.get(k, 0) + p
    return _canon_term(c, f)


def _term_partial(c, mono, atoms, v) -> list:
    """d/dv of the normalized term c*mono*atoms as normalized (coefficient,
    signature) pairs; only the derivatives of kernel atoms go through the
    rewrite step."""
    out = []
    for i, (k, p) in enumerate(mono):
        if k == v:
            lower = (_pair(k, p - 1),) if p > 1 else ()
            out.append((c * p, (mono[:i] + lower + mono[i + 1:], atoms)))
            break
    for a, p in atoms:
        if a[0] == "lam":
            if v in a[1]:
                out.append((c * p, (mono, _swap_atom(atoms, a, lam_bump(a, v)))))
        elif v == U and is_kernel_atom(a) and a[1] != 0:
            for dc, da in _atom_derivative(a):
                f = _sig_factors((mono, atoms))
                f[a] = p - 1
                f[da] = f.get(da, 0) + 1
                out.extend(_canon_term(c * p * dc, f))
    return out


class JetExpression:
    """Normalized multivariate expression; immutable value semantics."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict):
        self.terms = terms
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "JetExpression":
        return JetExpression({})

    @staticmethod
    def rational(q) -> "JetExpression":
        q = _q(_exact(q))
        return JetExpression({} if q == 0 else {((), ()): q})

    @staticmethod
    def coordinate(k) -> "JetExpression":
        if not _is_coordinate(k):
            raise ExprError("not a coordinate: %r" % (k,))
        return JetExpression({((_pair(k, 1),), ()): 1})

    @staticmethod
    def atom(a) -> "JetExpression":
        return JetExpression.from_raw([(1, {a: 1})])

    @staticmethod
    def from_raw(raw_terms) -> "JetExpression":
        """The normalized sum of raw (coefficient, factor-dict) terms; a factor
        must be a coordinate, a kernel atom or a lam atom, and its power an
        int, or an exact rational on an exp or pow atom."""
        pairs = []
        for c, f in raw_terms:
            for k, p in f.items():
                if not (_is_coordinate(k) or isinstance(k, tuple) and k
                        and len(k) == _ATOM_LENGTHS.get(k[0])):
                    raise ExprError("not a coordinate or an atom: %r" % (k,))
                if type(_exact(p)) is not int and not (
                        type(p) is Fraction and k[0] in ("exp", "pow")):
                    raise ExprError("power %r of %r is not an int" % (p, k))
            pairs.extend(_canon_term(_exact(c), f))
        return JetExpression(_accumulate(pairs))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sig == ((), ()) for sig in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_constant():
            return Fraction(next(iter(self.terms.values())))
        raise ExprError("expression is not a rational constant")

    def affine_in_u(self):
        """Return (alpha, beta) when the expression is alpha*u + beta, else None."""
        alpha = Fraction(0)
        beta = Fraction(0)
        for (mono, atoms), c in self.terms.items():
            if atoms:
                return None
            if mono == ():
                beta = c
            elif mono == ((U, 1),):
                alpha = c
            else:
                return None
        return (alpha, beta)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return JetExpression(_accumulate(
            ((c, sig) for sig, c in other.terms.items()), dict(self.terms)))

    __radd__ = __add__

    def __neg__(self):
        return JetExpression({sig: -c for sig, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _q(other)
            if q == 0:
                return JetExpression.zero()
            return JetExpression({sig: _q(c * q) for sig, c in self.terms.items()})
        other = _coerce(other)
        if not (self.terms and other.terms):
            return JetExpression.zero()
        right = [(sig, c) + _term_kinds(sig) for sig, c in other.terms.items()]
        pairs = []
        for sig1, c1 in self.terms.items():
            kernel1, live1, u1 = _term_kinds(sig1)
            for sig2, c2, kernel2, live2, u2 in right:
                if (kernel1 and kernel2) or ((live1 or live2) and (u1 or u2)):
                    pairs.extend(_canon_product(c1 * c2, sig1, sig2))
                else:
                    pairs.append((c1 * c2, (
                        _merge_factors(sig1[0], sig2[0], _mono_key),
                        _merge_factors(sig1[1], sig2[1], _atoms_key))))
        return JetExpression(_accumulate(pairs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = int(n)
        if n < 0:
            raise ExprError("expression powers must be nonnegative integers")
        result = JetExpression.rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, JetExpression):
            if not isinstance(other, Number):
                return NotImplemented
            other = _coerce(other)
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        from .parser import render
        return "JetExpression(%r)" % render(self)

    def __str__(self):
        from .parser import render
        return render(self)

    # -- structure ----------------------------------------------------------

    def jets(self) -> set:
        """The jets the expression depends on, by the term_jets rule."""
        return term_jets(*self.terms)

    def has_formal(self) -> bool:
        for (_, atoms) in self.terms:
            for a, _ in atoms:
                if a[0] == "lam":
                    return True
        return False

    # -- calculus primitives --------------------------------------------------

    def partial(self, v) -> "JetExpression":
        """Partial derivative with respect to one coordinate."""
        pairs = []
        for (mono, atoms), c in self.terms.items():
            pairs.extend(_term_partial(c, mono, atoms, v))
        return JetExpression(_accumulate(pairs))

    def total(self, direction, chart=None) -> "JetExpression":
        """Formal total derivative D_t or D_x.  Per term, D is the partial in
        the direction plus u_(k+direction) times the partial in each jet k of
        term_jets; with a chart (`pde.ChartForms`) it is D^ on solutions, one
        product by the chart form of each off-chart u_(k+direction)."""
        if direction not in ("t", "x"):
            raise ExprError("direction must be 't' or 'x'")
        pairs = []
        off: dict = {}
        for sig, c in self.terms.items():
            mono, atoms = sig
            pairs.extend(_term_partial(c, mono, atoms, direction))
            for k in term_jets(sig):
                up = bump(k, direction)
                if chart is not None and chart[up] is not None:
                    off.setdefault(up, []).extend(_term_partial(c, mono, atoms, k))
                    continue
                step = (_pair(up, 1),)
                for dc, (m, a) in _term_partial(c, mono, atoms, k):
                    pairs.append((dc, (_merge_factors(m, step, _mono_key), a)))
        for up, partials in off.items():
            product = JetExpression(_accumulate(partials)) * chart[up]
            pairs.extend((c, sig) for sig, c in product.terms.items())
        return JetExpression(_accumulate(pairs))

    def substitute(self, target, replacement) -> "JetExpression":
        """Replace a jet coordinate everywhere, including inside powers.

        The replacement must not contain the target or any derivative of it.
        Under kernel atoms u may only be replaced by a rational constant q:
        each atom of a*u + b becomes the constant atom of a*q + b, and the
        rewrite step folds it (a zero base at a nonpositive power raises).
        """
        if not is_jet(target):
            raise ExprError("substitution target must be a jet coordinate")
        replacement = _coerce(replacement)
        ta, tb = target
        for k in replacement.jets():
            if k[0] >= ta and k[1] >= tb:
                raise ExprError(
                    "self-referential substitution: replacement contains %s"
                    % coord_name(k))
        if target == U and any(is_kernel_atom(a) and a[1] != 0
                               for (_, atoms) in self.terms for a, _ in atoms):
            if not replacement.is_constant():
                raise ExprError("cannot substitute u under kernel atoms by a non-constant")
            q = replacement.as_fraction()
            raw = []
            for (mono, atoms), c in self.terms.items():
                f = {k: p for k, p in mono if k != U}
                for a, p in atoms:
                    if is_kernel_atom(a):
                        a = (a[0], Fraction(0), a[1] * q + a[2]) + a[3:]
                    f[a] = f.get(a, 0) + p
                raw.append((c * q ** dict(mono).get(U, 0), f))
            return JetExpression.from_raw(raw)
        by_power: dict = {}
        for (mono, atoms), c in self.terms.items():
            power = dict(mono).get(target, 0)
            rest = tuple((k, p) for k, p in mono if k != target)
            by_power.setdefault(power, {})[(rest, atoms)] = c
        pairs = [(c, sig) for sig, c in by_power.pop(0, {}).items()]
        for power, bases in by_power.items():
            product = JetExpression(bases) * replacement ** power
            pairs.extend((c, sig) for sig, c in product.terms.items())
        return JetExpression(_accumulate(pairs))


def _coerce(obj) -> JetExpression:
    """obj as an expression; a number must be exact (CoefficientError)."""
    return obj if isinstance(obj, JetExpression) else JetExpression.rational(obj)


def _atom_derivative(a):
    """d/du of an interned kernel atom as ((coefficient, interned atom),),
    computed on the first call and kept on the atom."""
    if a.derivative is None:
        tag = a[0]
        if tag == "exp":
            a.derivative = ((a[1], a),)
        elif tag == "sin":
            a.derivative = ((a[1], _intern(("cos", a[1], a[2]))),)
        elif tag == "cos":
            a.derivative = ((-a[1], _intern(("sin", a[1], a[2]))),)
        else:
            a.derivative = ((a[3] * a[1], _intern(("pow", a[1], a[2], a[3] - 1))),)
    return a.derivative


# ---------------------------------------------------------------------------
# Packed terms.  A _Packing numbers atom tuples and gives each coordinate a
# _FIELD-bit field of one int, u's the lowest.  An exponent enters a packed
# monomial only below _FIELD_LIMIT, half the field, so the sum of two never
# carries into the next field.

_FIELD = 16
_FIELD_MASK = (1 << _FIELD) - 1
_FIELD_LIMIT = 1 << (_FIELD - 1)


class _Packing:
    """The tables of one bulk computation on packed terms, keyed (atom-id,
    packed monomial).  They belong to the object, so they cannot grow over a
    run.  Atom-id 0 is the empty atom tuple.  Per atom-id, kinds holds (has a
    live pow atom, has a live kernel atom: d/du goes through _term_partial).
    kinded lists what a product reads of each term, so an operand multiplied
    many times is scanned once.  A product of two terms is an integer addition
    unless both carry atoms or a live pow atom meets u; then it goes through
    product.  A partial maps a kinded list to one, whole, and may be empty.

    The two slow paths are memoized.  A product that needs the rewrite step
    depends only on its two atom tuples and its summed u exponent, and a slow
    partial (one in u) only on the atom tuple and the u exponent, because the
    rebase is the one rule that reads a coordinate and it reads only u.  So
    slow_products maps (atom-id, atom-id, u exponent) and slow_partials
    (atom-id, u exponent) to the (coefficient factor, atom-id, packed) terms
    of that part at coefficient 1; the rest of the monomial is added back as
    an integer offset, and the factors are scaled by the term's coefficient,
    which the rewrite step is linear in.  Only these two memos decode a packed
    term; decode is otherwise left to callers that want signatures."""

    def __init__(self):
        self.shift = {U: 0}
        self.fields = [(U, 0)]
        self.top_bits = _FIELD_LIMIT
        self.atoms = [()]
        self.atom_ids = {(): 0}
        self.kinds = [(False, False)]
        self.slow_products = {}
        self.slow_partials = {}

    def _atom_id(self, atoms) -> int:
        aid = self.atom_ids.get(atoms)
        if aid is None:
            if not all(is_kernel_atom(a) for a, _ in atoms):
                raise ExprError("only kernel atoms pack, got %r" % (atoms,))
            aid = self.atom_ids[atoms] = len(self.atoms)
            self.atoms.append(atoms)
            self.kinds.append((_term_kinds(((), atoms))[1], U in term_jets(((), atoms))))
        return aid

    def encode(self, sig) -> tuple:
        """(atom-id, packed monomial) of a normalized signature."""
        mono, atoms = sig
        m = 0
        for k, p in mono:
            if p >= _FIELD_LIMIT:
                raise ExprError("power %d of %s is too large to pack" % (p, coord_name(k)))
            shift = self.shift.get(k)
            if shift is None:
                shift = self.shift[k] = _FIELD * len(self.fields)
                self.fields = sorted(self.fields + [(k, shift)], key=_mono_key)
                self.top_bits |= _FIELD_LIMIT << shift
            m += p << shift
        return self._atom_id(atoms), m

    def decode(self, aid, m) -> tuple:
        """The normalized signature of a packed term, built on each call."""
        return (tuple(_pair(k, m >> shift & _FIELD_MASK) for k, shift in self.fields
                      if m >> shift & _FIELD_MASK), self.atoms[aid])

    def pack(self, terms: dict) -> dict:
        """{(atom-id, packed): coefficient} of a {signature: coefficient} dict."""
        return {self.encode(sig): c for sig, c in terms.items()}

    def kinded(self, terms: dict) -> list:
        """(coefficient, atom-id, packed, has a live pow atom, u exponent) of
        each term of a packed dict, in order: what a product reads of it, and
        the form partial takes and gives."""
        kinds = self.kinds
        return [(c, aid, m, kinds[aid][0], m & _FIELD_MASK) for (aid, m), c in terms.items()]

    def product(self, a1, a2, u, rest) -> list:
        """The (coefficient factor, atom-id, packed) terms of the atom tuples a1
        and a2 times u^u times the packed monomial rest, through the rewrite
        step, in the order of JetExpression.__mul__; rest is checked as by encode."""
        key = (a1, a2, u)
        memo = self.slow_products.get(key)
        if memo is None:
            memo = self.slow_products[key] = [(f,) + self.encode(sig) for f, sig in _canon_product(
                1, self.decode(a1, u), self.decode(a2, 0))]
        if memo and rest & self.top_bits:
            k, shift = next((k, s) for k, s in self.fields if rest >> s & _FIELD_LIMIT)
            raise ExprError("power %d of %s is too large to pack"
                            % (rest >> shift & _FIELD_MASK, coord_name(k)))
        return [(f, aid, m + rest) for f, aid, m in memo]

    def partial(self, terms: list, v) -> list:
        """d/dv of a kinded term list, as by JetExpression.partial, kinded;
        [] when no term reads v.  Terms are merged only when one went through
        _term_partial: exponent shifts keep distinct terms distinct."""
        shift = self.shift.get(v)
        out = []
        slow = False
        for c, aid, m, live, u in terms:
            if v == U and self.kinds[aid][1]:
                slow = True
                memo = self.slow_partials.get((aid, u))
                if memo is None:
                    mono, atoms = self.decode(aid, u)
                    memo = self.slow_partials[aid, u] = [
                        (f,) + self.encode(sig) for f, sig in _term_partial(1, mono, atoms, U)]
                out.extend((c * f, a, mv + m - u, None, None) for f, a, mv in memo)
            elif shift is not None:
                p = m >> shift & _FIELD_MASK
                if p:
                    c, m = c * p, m - (1 << shift)
                    out.append((c if type(c) is int else _q(c), aid, m, live, m & _FIELD_MASK))
        return self.kinded(_accumulate((c, (aid, m)) for c, aid, m, _, _ in out)) if slow else out


def sig_sort_key(sig):
    mono, atoms = sig
    return (
        tuple((coord_sort_key(k), p) for k, p in mono),
        tuple((_atom_sort_key(a), p) for a, p in atoms),
    )
