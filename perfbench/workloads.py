"""The four benchmark workloads: inputs, operations and answer checks.

A workload is built once from the seed (its set-up) and then hands out the
operations of pass k.  An operation is the unit whose latency is measured:
`run` is timed and calls jetlaw; `digest` turns its result into plain data
after the clock stops; `check` compares that data with the answer key and
returns a list of problems, empty when the answer is right.  Checks run after
the whole measurement, so the answer key's sympy never shares the heap with
the measured passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# jetlaw functions are called through their modules, so that the traced run,
# which rebinds module attributes, sees every call.
from jetlaw import calculus, cli, laws, linsolve, parser, pde
from jetlaw import numcheck as nc
from jetlaw.expr import JetExpression, cos_atom, exp_atom, pow_atom, sin_atom
from jetlaw.laws import ConservationLaw
from jetlaw.linsolve import AnsatzBounds

from perfbench import answers, exprgen


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    digest: Callable[[Any], Any]
    check: Callable[[Any], list]


KDV = "u_t + u^n*u_x + u_xxx = 0"
WAVE_U2 = "u_tt = pow(u,-4)*u_xx - 2*pow(u,-5)*u_x^2"
WAVE_U = "u_tt = u^2*u_xx + u*u_x^2"
WAVE_EXP = "u_tt = exp(2*u)*u_xx + exp(2*u)*u_x^2"


def _shuffled(ops: list, tag: str, seed: int, pass_index: int) -> list:
    """Operation order varies with the seed and the pass; the set does not."""
    random.Random("%s:%d:%d" % (tag, seed, pass_index)).shuffle(ops)
    return ops


# -- classify: the paper's tables through the command line --------------------

_ORDER2 = ["--order", "2", "--deg-tx", "1", "--deg-u", "n+1"]
_WAVE = ["--order", "1", "--deg-tx", "2", "--deg-u", "1"]
_KG = ["--order", "3", "--deg-tx", "1", "--deg-u", "3"]

# call name -> (argv, {scan key or "": answer-key case})
CLASSIFY_CALLS = {
    "kdv scan n=1..4": (["scan", "--pde", KDV, "--scan", "n=1..4"] + _ORDER2,
                        {"n=%d" % n: "kdv n=%d" % n for n in (1, 2, 3, 4)}),
    "wave c=u^-2": (["derive", "--pde", WAVE_U2] + _WAVE, {"": "wave c=u^-2"}),
    "wave c=u": (["derive", "--pde", WAVE_U] + _WAVE, {"": "wave c=u"}),
    "wave c=e^u": (["derive", "--pde", WAVE_EXP, "--atoms", "exp(-1/2*u)"] + _WAVE,
                   {"": "wave c=e^u"}),
    "kg sin": (["derive", "--pde", "u_tx = sin(u)"] + _KG, {"": "kg sin"}),
    "kg sinh": (["derive", "--pde", "u_tx = exp(u) + exp(-u)"] + _KG, {"": "kg sinh"}),
    "kg liouville": (["derive", "--pde", "u_tx = exp(u)"] + _KG, {"": "kg liouville"}),
    "kg u^2": (["derive", "--pde", "u_tx = u^2"] + _KG, {"": "kg u^2"}),
    "kg u^3": (["derive", "--pde", "u_tx = u^3"] + _KG, {"": "kg u^3"}),
}


def _cli_call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", "json"])
    return {"exit": code, "stdout": out.getvalue()}


def check_cli_report(record: dict, cases: dict) -> list:
    """Problems with one CLI report: exit code, dimensions and spans."""
    if record["exit"] != 0:
        return ["exit code %r" % record["exit"]]
    payload = json.loads(record["stdout"])
    problems = []
    for scan_key, case in cases.items():
        laws = [law for law in payload["laws"] if law.get("scan", "") == scan_key]
        reported = payload["dimensions"].get(scan_key)
        expected = answers.CLASSIFY[case][0]
        if reported != expected:
            problems.append("%s: reported dimension %r, expected %d"
                            % (case, reported, expected))
        problems += answers.check_span(case, answers.CLASSIFY,
                                       [law["lambda"] for law in laws],
                                       [law["verified"] for law in laws])
    return problems


class Classify:
    """Nine CLI calls per pass, one per table row group of the paper."""

    name = "classify"

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self, pass_index: int) -> list:
        ops = [Op(name, (lambda argv=argv: _cli_call(argv)), lambda r: r,
                  (lambda r, cases=cases: check_cli_report(r, cases)))
               for name, (argv, cases) in CLASSIFY_CALLS.items()]
        return _shuffled(ops, "classify", self.seed, pass_index)


# -- scale: large ansatz spaces through the API ------------------------------

# case -> (PDE, bounds, ansatz columns).  The column counts are combinatorial:
# order 4 gives five jet coordinates u..u_xxxx, and monomials of degree <= d in
# five variables number C(5 + d, d): 56 * |{1, t, x}| = 168 for KdV, and
# 126 * |{1, x}| = 252 on the u_tx chart, which has no t.
SCALE_CASES = {
    "kdv order 4": ("u_t + u*u_x + u_xxx = 0", AnsatzBounds(order=4, deg_tx=1, deg_u=3), 168),
    "sine-gordon order 4": ("u_tx = sin(u)", AnsatzBounds(order=4, deg_tx=1, deg_u=4), 252),
    "liouville order 4": ("u_tx = exp(u)", AnsatzBounds(order=4, deg_tx=1, deg_u=4), 252),
}


def _coordinate_text(k) -> str:
    if k in ("t", "x"):
        return k
    a, b = k
    return "u" + ("_" + "t" * a + "x" * b if a or b else "")


def _atom_text(a) -> str:
    affine = "(%s)*u + (%s)" % (a[1], a[2])
    if a[0] == "pow":
        return "(%s)**(%s)" % (affine, a[3])
    return "%s(%s)" % (a[0], affine)


def sympy_text(e: JetExpression) -> str:
    """The expression in sympy syntax, written from its terms directly."""
    terms = []
    for (mono, atoms), c in e.terms.items():
        factors = ["(%s)" % c]
        factors += ["%s**%d" % (_coordinate_text(k), p) for k, p in mono]
        factors += ["(%s)**%d" % (_atom_text(a), p) for a, p in atoms]
        terms.append("*".join(factors))
    return " + ".join(terms) or "0"


def _solve_and_build(text, bounds):
    equation = pde.parse_pde(text)
    ansatz, multipliers = linsolve.solve_multipliers(equation, bounds)
    return len(ansatz.basis), [laws.build_law(equation, lam) for lam in multipliers]


def _digest_laws(result):
    columns, laws = result
    return {"columns": columns,
            "multipliers": [sympy_text(cl.multiplier) for cl in laws],
            "verified": [cl.verified for cl in laws]}


def check_scale(record: dict, case: str) -> list:
    problems = []
    columns = SCALE_CASES[case][2]
    if record["columns"] != columns:
        problems.append("%s: %d ansatz columns, expected %d"
                        % (case, record["columns"], columns))
    return problems + answers.check_span(case, answers.SCALE, record["multipliers"],
                                         record["verified"])


class Scale:
    """Three order-4 PDEs per pass: solve_multipliers, then build_law."""

    name = "scale"

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self, pass_index: int) -> list:
        ops = [Op(case, (lambda t=text, b=bounds: _solve_and_build(t, b)), _digest_laws,
                  (lambda r, case=case: check_scale(r, case)))
               for case, (text, bounds, _) in SCALE_CASES.items()]
        return _shuffled(ops, "scale", self.seed, pass_index)


# -- drift: the numeric layer on the criterion-7 configurations --------------

def _control(equation, text) -> ConservationLaw:
    """A density that is not conserved; its drift must stay large."""
    zero = JetExpression.zero()
    return ConservationLaw(pde=equation, multiplier=zero,
                           density_t=parser.parse_expression(text),
                           density_x=zero, utilde=zero)


def _laws(equation, multipliers) -> list:
    return [laws.build_law(equation, parser.parse_expression(s)) for s in multipliers]


def drift_families() -> dict:
    """family -> (pde, initial state, grid, laws, controls), at the coarsest
    level of the acceptance suite's refinement study."""
    families = {}
    kdv = pde.parse_pde(KDV, {"n": 1})
    cfg = nc.GridConfig(length=40.0, n=256, dt=3e-4, t_end=1.0)
    x = nc.grid(cfg)
    u0 = 3.0 * np.sin(2 * np.pi * x / 40) + np.cos(4 * np.pi * x / 40)
    families["kdv periodic"] = (kdv, u0, cfg, _laws(kdv, ("1", "u", "u_xx + u^2/2")),
                                [_control(kdv, "u^3")])

    wave = pde.parse_pde(WAVE_U2)
    cfg = nc.GridConfig(length=20.0, n=256, dt=2e-2, t_end=6.0)
    x = nc.grid(cfg)
    u0 = (2.0 + 0.5 * np.exp(-((x - 3.0)) ** 2)
          + 0.35 * np.exp(-((x + 4.0) / 0.8) ** 2))
    lams = ("u_t", "u_x", "t^2*u_t - t*u", "x^2*u_x + x*u", "t*u_t - x*u_x - u")
    families["wave c=u^-2 bumps"] = (wave, (u0, np.zeros_like(x)), cfg, _laws(wave, lams),
                                     [_control(wave, "u^3")])

    sg = pde.parse_pde("u_tx = sin(u)")
    cfg = nc.GridConfig(length=2 * np.pi, n=128, dt=5e-2, t_end=6.0)
    x = nc.grid(cfg)
    u0 = nc.odd_harmonic_profile(x, cfg.length)
    families["sine-gordon harmonics"] = (sg, u0, cfg, _laws(sg, ("u_x", "u_xxx + u_x^3/2")),
                                         [_control(sg, "u_x^4")])
    return families


def _integrate_and_measure(equation, initial, cfg, conserved, controls):
    traj = nc.integrate_pde(equation, initial, cfg)
    return [[max(row[2] for row in nc.quantity_series(cl, traj)) for cl in group]
            for group in (conserved, controls)]


class Drift:
    """Three families per pass: integrate_pde, then quantity_series per law."""

    name = "drift"

    def __init__(self, seed: int):
        self.seed = seed
        self.families = drift_families()

    def ops(self, pass_index: int) -> list:
        ops = [Op(name, (lambda f=family: _integrate_and_measure(*f)), lambda r: r,
                  (lambda r, name=name: answers.check_drifts(name, r[0], r[1])))
               for name, family in self.families.items()]
        return _shuffled(ops, "drift", self.seed, pass_index)


# -- operators: seeded identities on random expressions ---------------------

ATOMS = {"exp": exp_atom(1), "sin": sin_atom(1), "cos": cos_atom(1),
         "pow": pow_atom(1, -2, -1)}


def to_expression(terms) -> JetExpression:
    return JetExpression.from_raw(
        [(c, {ATOMS.get(k, k) if isinstance(k, str) else k: p for k, p in factors})
         for c, factors in terms])


def _euler_kills_divergence(e):
    return (calculus.euler_operator(e.total("x")).is_zero()
            and calculus.euler_operator(e.total("t")).is_zero())


def _totals_commute(e):
    return e.total("t").total("x") == e.total("x").total("t")


def _homotopy_linear(equation, a, b, q):
    density = laws.homotopy_density
    return (density(equation, a * q + b)
            == density(equation, a) * q + density(equation, b))


def _ibp_round_trip(e):
    core, theta = calculus.ibp_normal_form(e)
    if e != core + theta.total("x"):
        return False
    core2, theta2 = calculus.ibp_normal_form(core)
    return core2 == core and theta2.is_zero()


def _holds(record) -> list:
    return [] if record is True else ["identity does not hold"]


class Operators:
    """Fresh draws every pass (exprgen.DRAWS per identity); one operation is
    one identity on one draw."""

    name = "operators"

    def __init__(self, seed: int):
        self.seed = seed
        self.kdv = pde.parse_pde(KDV, {"n": 1})
        self._built = {0: self._build(0)}

    def _build(self, pass_index: int) -> list:
        draws = exprgen.draw_pass(self.seed, pass_index)
        ops = []
        for i, terms in enumerate(draws["euler_kills_divergence"]):
            e = to_expression(terms)
            ops.append(Op("euler %d" % i, lambda e=e: _euler_kills_divergence(e),
                          bool, _holds))
        for i, terms in enumerate(draws["totals_commute"]):
            e = to_expression(terms)
            ops.append(Op("commute %d" % i, lambda e=e: _totals_commute(e), bool, _holds))
        for i, (a, b, q) in enumerate(draws["homotopy_linear"]):
            a, b = to_expression(a), to_expression(b)
            ops.append(Op("homotopy %d" % i,
                          lambda a=a, b=b, q=q: _homotopy_linear(self.kdv, a, b, q),
                          bool, _holds))
        for i, terms in enumerate(draws["ibp_round_trip"]):
            e = to_expression(terms)
            ops.append(Op("ibp %d" % i, lambda e=e: _ibp_round_trip(e), bool, _holds))
        return _shuffled(ops, "operators", self.seed, pass_index)

    def ops(self, pass_index: int) -> list:
        return self._built.pop(pass_index, None) or self._build(pass_index)


WORKLOADS = {"classify": Classify, "scale": Scale, "drift": Drift,
             "operators": Operators}
