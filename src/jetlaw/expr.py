"""Exact immutable expressions over jet coordinates and kernel-function atoms.

A coordinate is either an independent variable ("t" or "x") or a jet
coordinate (a, b) standing for d_t^a d_x^b u, with (0, 0) being u itself.
A term multiplies a rational coefficient, a monomial in coordinates, and
kernel atoms: exp/sin/cos of an affine form a*u + b, and (a*u + b)^r with
rational exponent r.  Two opaque atom families support the determining-system
machinery: "lam" atoms carry partial derivatives of an unknown multiplier of
declared arity, and "gee" atoms stand for total derivatives of the PDE
left-hand side during off-solution splitting.

Everything is normalized at construction: coefficients merged, zeros pruned,
exp atoms combined, power atoms with nonnegative integer exponents expanded,
sin powers reduced below two via sin^2 = 1 - cos^2.  Equality of normalized
expressions is structural equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, cos, exp, isqrt, sin

T = "t"
X = "x"
U = (0, 0)
UT = (1, 0)
UX = (0, 1)


class ExprError(ValueError):
    """Raised for operations outside the closed expression fragment."""


def is_jet(k) -> bool:
    return type(k) is tuple and type(k[0]) is int


def is_indep(k) -> bool:
    return k == "t" or k == "x"


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
# Atoms, stored as tagged tuples with Fraction components.

def exp_atom(alpha, beta=0):
    return ("exp", Fraction(alpha), Fraction(beta))


def sin_atom(alpha, beta=0):
    return ("sin", Fraction(alpha), Fraction(beta))


def cos_atom(alpha, beta=0):
    return ("cos", Fraction(alpha), Fraction(beta))


def pow_atom(alpha, beta, r):
    return ("pow", Fraction(alpha), Fraction(beta), Fraction(r))


def lam_atom(arity, index=()):
    """Unknown-multiplier derivative atom: d^index Lam, Lam of given arity."""
    return ("lam", tuple(arity), tuple(sorted(index, key=coord_sort_key)))


def gee_atom(a=0, b=0):
    """Placeholder for D_t^a D_x^b of the PDE expression G."""
    return ("gee", a, b)


def lam_bump(atom, coord):
    tag, arity, index = atom
    return (tag, arity, tuple(sorted(index + (coord,), key=coord_sort_key)))


def is_kernel_atom(a) -> bool:
    return a[0] in ("exp", "sin", "cos", "pow")


def _atom_sort_key(a):
    return (a[0],) + tuple(str(z) for z in a[1:])


def _nth_root(n: int, q: int):
    """Exact q-th root of a nonnegative integer, or None."""
    if n < 0:
        return None
    r = isqrt(n) if q == 2 else _integer_root(n, q)
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
    base = Fraction(base)
    r = Fraction(r)
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


# ---------------------------------------------------------------------------
# Term canonicalization.  Raw terms are (coeff, factor-dict) pairs where the
# dict maps coordinates and atoms to integer powers; rewriting may split one
# raw term into several canonical ones.

def _canon_term(coeff: Fraction, factors: dict) -> list:
    out = []
    stack = [(coeff, factors)]
    while stack:
        c, f = stack.pop()
        if c == 0:
            continue
        f = {k: p for k, p in f.items() if p != 0}
        action = _find_rewrite(f)
        if action is not None:
            stack.extend(_apply_rewrite(action, c, f))
            continue
        mono = []
        atoms = []
        for k, p in f.items():
            if is_indep(k) or is_jet(k):
                if p < 0:
                    raise ExprError("negative coordinate power")
                mono.append((k, p))
            else:
                atoms.append((k, p))
        mono.sort(key=lambda kp: coord_sort_key(kp[0]))
        atoms.sort(key=lambda ap: _atom_sort_key(ap[0]))
        out.append((c, (tuple(mono), tuple(atoms))))
    return out


def _find_rewrite(f: dict):
    atoms = [k for k in f if not (is_indep(k) or is_jet(k))]
    exps = [k for k in atoms if k[0] == "exp"]
    if exps:
        only = exps[0]
        if len(exps) > 1 or f[only] != 1 or (only[1] == 0 and only[2] == 0):
            return ("exp_merge", exps)
    pows = sorted((k for k in atoms if k[0] == "pow"), key=_atom_sort_key)
    for k in pows:
        if f[k] != 1:
            return ("pow_scale", k)
        if k[3] == 0:
            return ("pow_drop", k)
        if k[1] == 0:
            if rational_pow(k[2], k[3]) is not None:
                return ("pow_const", k)
            continue
        if k[3].denominator == 1 and k[3] > 0:
            return ("pow_expand", k)
        if k[1] == 1 and k[2] == 0 and f.get(U, 0) > 0:
            return ("pow_absorb_u", k)
        if f.get(U, 0) > 0:
            return ("pow_rebase_u", k)
        if k[1] != 1:
            scale = rational_pow(k[1], k[3])
            if scale is not None:
                return ("pow_monic", k, scale)
    for i in range(len(pows)):
        for j in range(i + 1, len(pows)):
            if pows[i][1:3] == pows[j][1:3] and pows[i][1] != 0:
                return ("pow_join", pows[i], pows[j])
    for k in atoms:
        if k[0] in ("sin", "cos"):
            if k[1] < 0 or (k[1] == 0 and k[2] < 0):
                return ("trig_sign", k)
            if k[1] == 0 and k[2] == 0:
                return ("trig_zero", k)
            if k[0] == "sin" and f[k] >= 2:
                return ("sin_reduce", k)
    return None


def _apply_rewrite(action, c, f):
    kind = action[0]
    g = dict(f)
    if kind == "exp_merge":
        alpha = Fraction(0)
        beta = Fraction(0)
        for k in action[1]:
            p = g.pop(k)
            alpha += k[1] * p
            beta += k[2] * p
        if alpha != 0 or beta != 0:
            nk = ("exp", alpha, beta)
            g[nk] = g.get(nk, 0) + 1
        return [(c, g)]
    if kind == "pow_scale":
        k = action[1]
        p = g.pop(k)
        nk = ("pow", k[1], k[2], k[3] * p)
        g[nk] = g.get(nk, 0) + 1
        return [(c, g)]
    if kind == "pow_drop":
        del g[action[1]]
        return [(c, g)]
    if kind == "pow_const":
        k = action[1]
        del g[k]
        return [(c * rational_pow(k[2], k[3]), g)]
    if kind == "pow_expand":
        k = action[1]
        del g[k]
        n = int(k[3])
        alpha, beta = k[1], k[2]
        branches = []
        for j in range(n + 1):
            h = dict(g)
            if j:
                h[U] = h.get(U, 0) + j
            branches.append((c * comb(n, j) * alpha ** j * beta ** (n - j), h))
        return branches
    if kind == "pow_absorb_u":
        k = action[1]
        del g[k]
        m = g.pop(U)
        nk = ("pow", Fraction(1), Fraction(0), k[3] + m)
        g[nk] = 1
        return [(c, g)]
    if kind == "pow_rebase_u":
        # u^m (a u + b)^r -> sum_j C(m,j) (-b)^(m-j) a^(-m) (a u + b)^(r+j):
        # bare u never coexists with a shifted power atom in normal form.
        k = action[1]
        alpha, beta, r = k[1], k[2], k[3]
        del g[k]
        m = g.pop(U)
        branches = []
        for j in range(m + 1):
            h = dict(g)
            nk = ("pow", alpha, beta, r + j)
            h[nk] = h.get(nk, 0) + 1
            branches.append(
                (c * comb(m, j) * (-beta) ** (m - j) * alpha ** (-m), h))
        return branches
    if kind == "pow_monic":
        k, scale = action[1], action[2]
        del g[k]
        nk = ("pow", Fraction(1), k[2] / k[1], k[3])
        g[nk] = g.get(nk, 0) + 1
        return [(c * scale, g)]
    if kind == "pow_join":
        k1, k2 = action[1], action[2]
        p1 = g.pop(k1)
        p2 = g.pop(k2)
        nk = ("pow", k1[1], k1[2], k1[3] * p1 + k2[3] * p2)
        g[nk] = g.get(nk, 0) + 1
        return [(c, g)]
    if kind == "trig_sign":
        k = action[1]
        p = g.pop(k)
        nk = (k[0], -k[1], -k[2])
        g[nk] = g.get(nk, 0) + p
        return [(c * ((-1) ** p if k[0] == "sin" else 1), g)]
    if kind == "trig_zero":
        k = action[1]
        if k[0] == "sin":
            return []
        del g[k]
        return [(c, g)]
    if kind == "sin_reduce":
        k = action[1]
        ck = ("cos", k[1], k[2])
        g[k] -= 2
        g2 = dict(g)
        g2[ck] = g2.get(ck, 0) + 2
        return [(c, g), (-c, g2)]
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# Expression construction and arithmetic on {signature: coefficient} dicts.

def _accumulate(pairs) -> dict:
    terms: dict = {}
    for c, sig in pairs:
        nc = terms.get(sig, 0) + c
        if nc == 0:
            terms.pop(sig, None)
        else:
            terms[sig] = nc
    return terms


def _from_raw(raw_terms) -> "JetExpression":
    pairs = []
    for c, f in raw_terms:
        pairs.extend(_canon_term(Fraction(c), f))
    return JetExpression(_accumulate(pairs))


def _sig_factors(sig) -> dict:
    mono, atoms = sig
    f = dict(mono)
    for a, p in atoms:
        f[a] = f.get(a, 0) + p
    return f


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
        q = Fraction(q)
        return JetExpression({} if q == 0 else {((), ()): q})

    @staticmethod
    def coordinate(k) -> "JetExpression":
        if not (is_indep(k) or is_jet(k)):
            raise ExprError("not a coordinate: %r" % (k,))
        return JetExpression({(((k, 1),), ()): Fraction(1)})

    @staticmethod
    def atom(a) -> "JetExpression":
        return _from_raw([(Fraction(1), {a: 1})])

    @staticmethod
    def from_raw(raw_terms) -> "JetExpression":
        return _from_raw(raw_terms)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sig == ((), ()) for sig in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_constant():
            return next(iter(self.terms.values()))
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
        terms = dict(self.terms)
        for sig, c in other.terms.items():
            nc = terms.get(sig, 0) + c
            if nc == 0:
                terms.pop(sig, None)
            else:
                terms[sig] = nc
        return JetExpression(terms)

    __radd__ = __add__

    def __neg__(self):
        return JetExpression({sig: -c for sig, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                return JetExpression.zero()
            return JetExpression({sig: c * q for sig, c in self.terms.items()})
        other = _coerce(other)
        raw = []
        for sig1, c1 in self.terms.items():
            f1 = _sig_factors(sig1)
            for sig2, c2 in other.terms.items():
                f = dict(f1)
                for k, p in _sig_factors(sig2).items():
                    f[k] = f.get(k, 0) + p
                raw.append((c1 * c2, f))
        return _from_raw(raw)

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
        if isinstance(other, (int, Fraction)):
            return self.terms == JetExpression.rational(other).terms
        if not isinstance(other, JetExpression):
            return NotImplemented
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

    def coordinates(self) -> set:
        """Coordinates occurring explicitly or through u-dependent atoms."""
        seen = set()
        for (mono, atoms) in self.terms:
            for k, _ in mono:
                seen.add(k)
            for a, _ in atoms:
                if is_kernel_atom(a) and a[1] != 0:
                    seen.add(U)
        return seen

    def jets(self) -> set:
        return {k for k in self.coordinates() if is_jet(k)}

    def has_formal(self, tag=None) -> bool:
        for (_, atoms) in self.terms:
            for a, _ in atoms:
                if a[0] in ("lam", "gee") and (tag is None or a[0] == tag):
                    return True
        return False

    def lam_arities(self) -> set:
        out = set()
        for (_, atoms) in self.terms:
            for a, _ in atoms:
                if a[0] == "lam":
                    out.add(a[1])
        return out

    def maximal_order(self):
        """Highest jet coordinate present as (t_order, x_order); (0,0) if none."""
        best = None
        for k in self.jets():
            if best is None or coord_sort_key(k) > coord_sort_key(best):
                best = k
        return best if best is not None else (0, 0)

    # -- calculus primitives --------------------------------------------------

    def partial(self, v) -> "JetExpression":
        """Partial derivative with respect to one coordinate."""
        raw = []
        for (mono, atoms), c in self.terms.items():
            factors = _sig_factors((mono, atoms))
            for k, p in mono:
                if k == v:
                    f = dict(factors)
                    f[k] = p - 1
                    raw.append((c * p, f))
            for a, p in atoms:
                tag = a[0]
                if tag == "gee":
                    raise ExprError("cannot take partials through a gee atom")
                if tag == "lam":
                    if v in a[1]:
                        f = dict(factors)
                        f[a] = p - 1
                        nb = lam_bump(a, v)
                        f[nb] = f.get(nb, 0) + 1
                        raw.append((c * p, f))
                    continue
                if v != U or a[1] == 0:
                    continue
                for dc, da in _atom_derivative(a):
                    f = dict(factors)
                    f[a] = p - 1
                    f[da] = f.get(da, 0) + 1
                    raw.append((c * p * dc, f))
        return _from_raw(raw)

    def total(self, direction) -> "JetExpression":
        """Formal total derivative D_t or D_x."""
        if direction not in ("t", "x"):
            raise ExprError("direction must be 't' or 'x'")
        u1 = UT if direction == "t" else UX
        raw = []
        for (mono, atoms), c in self.terms.items():
            factors = _sig_factors((mono, atoms))
            for k, p in mono:
                if is_indep(k):
                    if k == direction:
                        f = dict(factors)
                        f[k] = p - 1
                        raw.append((c * p, f))
                    continue
                f = dict(factors)
                f[k] = p - 1
                nk = bump(k, direction)
                f[nk] = f.get(nk, 0) + 1
                raw.append((c * p, f))
            for a, p in atoms:
                tag = a[0]
                if tag == "gee":
                    f = dict(factors)
                    f[a] = p - 1
                    na = ("gee", a[1] + 1, a[2]) if direction == "t" else ("gee", a[1], a[2] + 1)
                    f[na] = f.get(na, 0) + 1
                    raw.append((c * p, f))
                elif tag == "lam":
                    if direction in a[1]:
                        f = dict(factors)
                        f[a] = p - 1
                        nb = lam_bump(a, direction)
                        f[nb] = f.get(nb, 0) + 1
                        raw.append((c * p, f))
                    for k in a[1]:
                        if not is_jet(k):
                            continue
                        f = dict(factors)
                        f[a] = p - 1
                        nb = lam_bump(a, k)
                        f[nb] = f.get(nb, 0) + 1
                        nk = bump(k, direction)
                        f[nk] = f.get(nk, 0) + 1
                        raw.append((c * p, f))
                else:
                    if a[1] == 0:
                        continue
                    for dc, da in _atom_derivative(a):
                        f = dict(factors)
                        f[a] = p - 1
                        f[da] = f.get(da, 0) + 1
                        f[u1] = f.get(u1, 0) + 1
                        raw.append((c * p * dc, f))
        return _from_raw(raw)

    def substitute(self, target, replacement) -> "JetExpression":
        """Replace a jet coordinate everywhere, including inside powers.

        The replacement must not contain the target or any derivative of it;
        substituting u itself is rejected when kernel atoms are present.
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
        if target == U and U in self.coordinates() and any(
            is_kernel_atom(a) and a[1] != 0
            for (_, atoms) in self.terms for a, _ in atoms
        ):
            raise ExprError("cannot substitute u under kernel atoms")
        out = JetExpression.zero()
        for (mono, atoms), c in self.terms.items():
            power = dict(mono).get(target, 0)
            if power == 0:
                out = out + JetExpression({(mono, atoms): c})
                continue
            rest = tuple((k, p) for k, p in mono if k != target)
            base = JetExpression({(rest, atoms): c})
            out = out + base * replacement ** power
        return out

    def at_constant_state(self, value) -> "JetExpression":
        """Evaluate on the constant state u == value: derivatives vanish,
        kernel atoms become constant-argument atoms (exact when rational)."""
        value = Fraction(value)
        raw = []
        for (mono, atoms), c in self.terms.items():
            coeff = c
            f: dict = {}
            dead = False
            for k, p in mono:
                if k == U:
                    coeff *= value ** p
                elif is_jet(k):
                    dead = True
                    break
                else:
                    f[k] = f.get(k, 0) + p
            if dead:
                continue
            for a, p in atoms:
                if not is_kernel_atom(a):
                    raise ExprError("cannot evaluate formal atoms at a constant")
                argv = a[1] * value + a[2]
                if a[0] == "pow" and argv == 0 and a[3] <= 0:
                    raise ExprError("singular substitution into pow atom")
                na = (a[0], Fraction(0), argv) if a[0] != "pow" else ("pow", Fraction(0), argv, a[3])
                f[na] = f.get(na, 0) + p
            raw.append((coeff, f))
        return _from_raw(raw)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, env: dict) -> float:
        """Numeric evaluation; env maps coordinates to floats."""
        total_v = 0.0
        for (mono, atoms), c in self.terms.items():
            v = float(c)
            for k, p in mono:
                v *= env[k] ** p
            for a, p in atoms:
                v *= _atom_value(a, env) ** p
            total_v += v
        return total_v


def _coerce(obj) -> JetExpression:
    if isinstance(obj, JetExpression):
        return obj
    if isinstance(obj, (int, Fraction)):
        return JetExpression.rational(obj)
    raise TypeError("cannot coerce %r to JetExpression" % (obj,))


def _atom_derivative(a):
    """d/du of a kernel atom as [(coefficient, atom)]."""
    tag = a[0]
    if tag == "exp":
        return [(a[1], a)]
    if tag == "sin":
        return [(a[1], ("cos", a[1], a[2]))]
    if tag == "cos":
        return [(-a[1], ("sin", a[1], a[2]))]
    if tag == "pow":
        return [(a[3] * a[1], ("pow", a[1], a[2], a[3] - 1))]
    raise ExprError("no derivative for atom %r" % (a,))


def _atom_value(a, env) -> float:
    tag = a[0]
    if tag not in ("exp", "sin", "cos", "pow"):
        raise ExprError("cannot evaluate formal atom %r" % (a,))
    arg = float(a[1]) * env.get(U, 0.0) + float(a[2])
    if tag == "exp":
        return exp(arg)
    if tag == "sin":
        return sin(arg)
    if tag == "cos":
        return cos(arg)
    return arg ** float(a[3])


def sig_sort_key(sig):
    mono, atoms = sig
    return (
        tuple((coord_sort_key(k), p) for k, p in mono),
        tuple((_atom_sort_key(a), p) for a, p in atoms),
    )
