import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from jetlaw.calculus import ibp_normal_form
from jetlaw.detsys import DeterminingSystem, check_admissible
from jetlaw.expr import (U, ExprError, JetExpression, cos_atom, exp_atom, lam_atom, pow_atom,
                         sig_sort_key, sin_atom, term_jets)
from jetlaw.linsolve import _echelon
from jetlaw.numcheck import GridConfig, integrate_pde, quantity_series
from jetlaw.pde import iterated_total, on_chart


ATOM_POOL = (exp_atom(1), sin_atom(1), cos_atom(1), pow_atom(1, -2, -1))


def random_expression(rng: random.Random, max_order=4, max_terms=8,
                      with_atoms=True, with_tx=True, pure_x=False) -> JetExpression:
    raw = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if coeff == 0:
            coeff = Fraction(1)
        factors = {}
        for _ in range(rng.randint(0, 3)):
            b = rng.randint(0, max_order)
            a = 0 if pure_x else rng.randint(0, max_order - b)
            factors[(a, b)] = factors.get((a, b), 0) + rng.randint(1, 2)
        if with_tx and rng.random() < 0.4:
            factors[rng.choice(("t", "x"))] = rng.randint(1, 2)
        if with_atoms and rng.random() < 0.35:
            factors[rng.choice(ATOM_POOL)] = 1
        raw.append((coeff, factors))
    return JetExpression.from_raw(raw)


def random_rhs(rng: random.Random, leading, with_atoms) -> JetExpression:
    """A random right-hand side on the chart of the given leading derivative."""
    atoms = (exp_atom(Fraction(-1, 2)), sin_atom(1), pow_atom(1, 2, -1))
    raw = []
    for _ in range(rng.randint(1, 4)):
        factors = {}
        for _ in range(rng.randint(0, 2)):
            b = rng.randint(0, 3)
            a = rng.randint(0, 1) if leading == (2, 0) and b < 2 else 0
            factors[(a, b)] = factors.get((a, b), 0) + 1
        if rng.random() < 0.3:
            factors[rng.choice(("t", "x"))] = 1
        if with_atoms and rng.random() < 0.5:
            factors[rng.choice(atoms)] = 1
        raw.append((Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)), factors))
    return JetExpression.from_raw(raw)


def _straight_euler(e):
    """sum_v (-1)^|v| D^v (de/dv), one jet at a time, without Horner nesting."""
    out = JetExpression.zero()
    for v in sorted(set().union(*map(term_jets, e.terms))):
        out = out + iterated_total(e.partial(v), *v) * (-1) ** sum(v)
    return out


def reference_eliminate(pde, e, gee=False):
    """The substitute loop that restricted an expression to solutions before
    the on-solution total derivative: the highest jet off the chart, at offset
    (a, b) from the leading jet, is replaced by D_t^a D_x^b rhs (plus the atom
    ("gee", a, b) when gee is set), until no jet is off the chart.  The gee
    atom is this reference's own formal atom, which `JetExpression.from_raw`
    does not admit (only coordinates, kernel and lam atoms), so its one-term
    expression is built in normal form directly."""
    while True:
        off = [k for k in e.jets() if not on_chart(pde.leading, k)]
        if not off:
            return e
        w = max(off)
        j = (w[0] - pde.leading[0], w[1] - pde.leading[1])
        form = iterated_total(pde.rhs, *j)
        e = e.substitute(w, form + JetExpression({((), ((("gee",) + j, 1),)): 1}) if gee else form)


_FULL_SPLITS: dict = {}


def full_split(pde, arity):
    """The one-stage reference: E_u(G * Lam) split by total derivatives of G,
    as (gee keys, DeterminingSystem).  The whole condition is expanded
    straight with G concrete.  Each off-chart jet D_t^a D_x^b (leading) is
    replaced by D_t^a D_x^b (rhs) plus an atom ("gee", a, b) standing for
    D_t^a D_x^b G, which is only substituted, never differentiated.  Chart
    coordinates and these atoms are coordinates on the jet space, so the
    coefficient of each gee monomial must vanish; the gee-free one is the
    adjoint-symmetry equation.  Keys are sorted by (degree, monomial), and
    each equation's terms come in sig_sort_key order.  Computed once per PDE
    text and arity."""
    check_admissible(pde, arity)
    arity = tuple(dict.fromkeys(arity))
    cache = (str(pde), arity)
    if cache not in _FULL_SPLITS:
        q = _straight_euler(pde.gee() * JetExpression.atom(lam_atom(arity)))
        q = reference_eliminate(pde, q, gee=True)
        groups = {(): []}
        for (mono, atoms), c in q.terms.items():
            gees = tuple(sorted(ap for ap in atoms if ap[0][0] == "gee"))
            rest = tuple(ap for ap in atoms if ap[0][0] != "gee")
            groups.setdefault(gees, []).append(((mono, rest), c))
        keys = tuple(sorted(groups, key=lambda g: (len(g), g)))
        equations = tuple(JetExpression(dict(sorted(groups[k], key=lambda t: sig_sort_key(t[0]))))
                          for k in keys)
        _FULL_SPLITS[cache] = keys, DeterminingSystem(equations=equations)
    return _FULL_SPLITS[cache]


def reference_instantiate(equation, candidate):
    """The plain per-term substitution Lam := candidate: one chain of partials
    per equation term, then one product per term."""
    out = JetExpression.zero()
    for (mono, atoms), c in equation.terms.items():
        (lam, power), = [(a, p) for a, p in atoms if a[0] == "lam"]
        assert power == 1
        rest = tuple(ap for ap in atoms if ap[0][0] != "lam")
        value = candidate
        for k in lam[2]:
            value = value.partial(k)
        out = out + JetExpression({(mono, rest): c}) * value
    return out


def evaluate(e, env) -> float:
    """Scalar evaluation of e, term by term; env maps coordinates to floats.
    A reference for the grid evaluator and the normal form."""
    total_v = 0.0
    for (mono, atoms), c in e.terms.items():
        v = float(c)
        for k, p in mono:
            v *= env[k] ** p
        for a, p in atoms:
            v *= _atom_value(a, env) ** p
        total_v += v
    return total_v


def _atom_value(a, env) -> float:
    tag = a[0]
    if tag not in ("exp", "sin", "cos", "pow"):
        raise ExprError("cannot evaluate formal atom %r" % (a,))
    if a[1] != 0 and U not in env:
        raise ExprError("atom %r needs a value for u" % (a,))
    arg = float(a[1]) * env.get(U, 0.0) + float(a[2])
    if tag == "exp":
        return math.exp(arg)
    if tag == "sin":
        return math.sin(arg)
    if tag == "cos":
        return math.cos(arg)
    return arg ** float(a[3])


# Exact span comparisons for the classification tests.

def span_rank(exprs) -> int:
    """Rank of the coefficient rows; columns are signatures in first-seen order."""
    index: dict = {}
    return len(_echelon([{index.setdefault(sig, len(index)): c for sig, c in e.terms.items()}
                         for e in exprs]))


def in_span(e, exprs) -> bool:
    base = list(exprs)
    return span_rank(base + [e]) == span_rank(base)


def same_span(a, b) -> bool:
    return span_rank(a) == span_rank(b) == span_rank(list(a) + list(b))


def linearization(pde, eta):
    """Frechet derivative of G applied to eta: sum_v dG/dv D^v eta."""
    g = pde.gee()
    out = JetExpression.zero()
    for v in sorted(g.jets()):
        out = out + g.partial(v) * iterated_total(eta, *v)
    return out


def densities_match(a, b) -> bool:
    """Equality of densities modulo trivial ones (image of D_x)."""
    core, _ = ibp_normal_form(a - b)
    return core.is_zero()


# Refinement studies of conserved drift.

def conserved_drift(cl, traj) -> float:
    """max_t |Q(t) - Q(0)| / max(1, |Q(0)|)."""
    return max(row[2] for row in quantity_series(cl, traj))


def refinement_drifts(pde, initial, cfg, laws):
    """Drifts of each law at dt and two halvings of it (fixed grid).

    Returns a list per law: [drift at dt, at dt/2, at dt/4].  With spectral
    space differences the observed decay order is that of the RK4 stepper.
    """
    out = [[] for _ in laws]
    for level in range(3):
        scaled = GridConfig(length=cfg.length, n=cfg.n, dt=cfg.dt / 2 ** level,
                            t_end=cfg.t_end)
        traj = integrate_pde(pde, initial, scaled)
        for i, cl in enumerate(laws):
            out[i].append(conserved_drift(cl, traj))
    return out


def convergence_orders(drifts) -> list:
    """Observed orders log2(d_k / d_{k+1}) along a refinement sequence."""
    out = []
    for a, b in zip(drifts, drifts[1:]):
        if b == 0:
            out.append(float("inf"))
        else:
            out.append(float(np.log2(a / b)))
    return out


def gaussian_bump(x, base=2.0, amplitude=0.3, width=1.0):
    return base + amplitude * np.exp(-((x / width) ** 2))


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps the function owner.name in a counter
    and returns it; counter.calls is the number of calls since.  The wrapper
    replaces the function in owner (a module or a class) and in every
    attribute of a jetlaw module that binds it, so calls through a module
    that imported the function by name are counted too."""
    def install(owner, name):
        function = getattr(owner, name)
        counter = SimpleNamespace(calls=0)

        def counting(*args, **kwargs):
            counter.calls += 1
            return function(*args, **kwargs)

        modules = [m for n, m in sys.modules.items()
                   if (n == "jetlaw" or n.startswith("jetlaw.")) and m is not owner]
        for target in [owner] + modules:
            for attr, value in list(vars(target).items()):
                if value is function:
                    monkeypatch.setattr(target, attr, counting)
        return counter
    return install
