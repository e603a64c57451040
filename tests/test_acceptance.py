"""Acceptance suite: classification theorems, operator properties, and
numerical cross-checks, each reported with one pass/fail line.

Numerical tolerances were frozen from a refinement study run with this
module's exact configurations: drifts either sit at the numerical floor
(<= 1e-8 at every level) or decrease at the fourth-order rate of the
stepper (observed orders 3.7-4.7) down to <= 1e-6 at the finest level,
while negative-control densities hold an O(1) drift (observed 4e-2 for
the third-derivative family, 9e-3 for the wave family, 0.4 for the
sine-Gordon family) that does not decrease under refinement.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from jetlaw.expr import JetExpression, exp_atom
from jetlaw.parser import parse_expression as P, render
from jetlaw.pde import parse_pde
from jetlaw.calculus import euler_operator, ibp_normal_form
from jetlaw.detsys import determining_expression
from jetlaw.linsolve import AnsatzBounds, solve_multipliers
from jetlaw.laws import (
    ConservationLaw,
    build_law,
    homotopy_density,
    multiplier_from_density,
    verify,
)
from jetlaw import numcheck as nc

from conftest import (convergence_orders, densities_match, in_span, random_expression,
                      refinement_drifts, same_span)

KDV = "u_t + u^n*u_x + u_xxx = 0"
WAVE_U2 = "u_tt = pow(u,-4)*u_xx - 2*pow(u,-5)*u_x^2"
WAVE_U = "u_tt = u^2*u_xx + u*u_x^2"
WAVE_EXP = "u_tt = exp(2*u)*u_xx + exp(2*u)*u_x^2"


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print("criterion %d FAIL: %s" % (number, description))
        raise
    print("criterion %d PASS: %s" % (number, description))


@pytest.fixture(scope="module")
def kdv_runs():
    out = {}
    for n in (1, 2, 3, 4):
        pde = parse_pde(KDV, {"n": n})
        started = time.perf_counter()
        _, mults = solve_multipliers(
            pde, AnsatzBounds(order=2, deg_tx=1, deg_u=n + 1))
        out[n] = (pde, mults, time.perf_counter() - started)
    return out


@pytest.fixture(scope="module")
def wave_runs():
    bounds = AnsatzBounds(order=1, deg_tx=2, deg_u=1)
    runs = {}
    for key, text, extra_atoms in (
        ("u^-2", WAVE_U2, ()),
        ("u", WAVE_U, ()),
        ("e^u", WAVE_EXP, (exp_atom(Fraction(-1, 2)),)),
    ):
        pde = parse_pde(text)
        b = AnsatzBounds(order=1, deg_tx=2, deg_u=1, atoms=extra_atoms)
        runs[key] = (pde, solve_multipliers(pde, b)[1])
    return runs


@pytest.fixture(scope="module")
def kg_runs():
    bounds = AnsatzBounds(order=3, deg_tx=1, deg_u=3)
    runs = {}
    for key, text in (
        ("sin", "u_tx = sin(u)"),
        ("sinh", "u_tx = exp(u) + exp(-u)"),
        ("liouville", "u_tx = exp(u)"),
        ("u^2", "u_tx = u^2"),
        ("u^3", "u_tx = u^3"),
    ):
        pde = parse_pde(text)
        runs[key] = (pde, solve_multipliers(pde, bounds)[1])
    return runs


def test_criterion_1_generalized_kdv_classification(kdv_runs):
    with criterion(1, "generalized KdV multiplier classification, "
                      "dimensions (4, 4, 3, 3), runtime bound"):
        dims = {n: len(mults) for n, (_, mults, _) in kdv_runs.items()}
        assert dims == {1: 4, 2: 4, 3: 3, 4: 3}
        base = ["1", "u"]
        for n, (pde, mults, elapsed) in kdv_runs.items():
            assert elapsed <= 60.0
            expected = [P(s) for s in base]
            expected.append(P("u_xx + u^%d/%d" % (n + 1, n + 1)))
            if n == 1:
                expected.append(P("t*u - x"))
            if n == 2:
                expected.append(P("t*(u_xx + u^3/3) - x*u/3"))
            assert same_span(mults, expected)


def test_criterion_2_wave_speed_classification(wave_runs):
    with criterion(2, "wave-speed classification: 6 multipliers at "
                      "c = u^-2, exactly 3 otherwise"):
        _, mults = wave_runs["u^-2"]
        assert len(mults) == 6
        for extra in ("t^2*u_t - t*u", "x^2*u_x + x*u", "t*u_t - x*u_x - u",
                      "u_t", "u_x", "t*u_t + x*u_x"):
            assert in_span(P(extra), mults)
        basic = [P("u_t"), P("u_x"), P("t*u_t + x*u_x")]
        for key in ("u", "e^u"):
            _, mults = wave_runs[key]
            assert same_span(mults, basic)


def test_criterion_3_klein_gordon_interactions(kg_runs):
    with criterion(3, "Klein-Gordon order-3 multipliers per interaction"):
        _, sin_m = kg_runs["sin"]
        assert in_span(P("u_x"), sin_m)
        assert in_span(P("u_xxx + u_x^3/2"), sin_m)
        assert same_span(sin_m, [P("u_x"), P("u_xxx + u_x^3/2")])
        _, sinh_m = kg_runs["sinh"]
        assert same_span(sinh_m, [P("u_x"), P("u_xxx - u_x^3/2")])
        _, lv_m = kg_runs["liouville"]
        for member in ("u_x", "u_xxx - u_x^3/2", "1 + x*u_x"):
            assert in_span(P(member), lv_m)
        for key in ("u^2", "u^3"):
            _, mults = kg_runs[key]
            assert same_span(mults, [P("u_x")])


def test_criterion_4_density_round_trips():
    with criterion(4, "homotopy densities match fixtures modulo trivial "
                      "parts; multiplier recovery inverts the homotopy"):
        for n in (1, 2, 3):
            pde = parse_pde(KDV, {"n": n})
            fixtures = [
                ("1", "u"),
                ("u", "u^2/2"),
                ("u_xx + u^%d/%d" % (n + 1, n + 1),
                 "-u_x^2/2 + u^%d/%d" % (n + 2, (n + 1) * (n + 2))),
            ]
            for lam_text, phi_text in fixtures:
                lam = P(lam_text)
                d = homotopy_density(pde, lam)
                assert densities_match(d, P(phi_text))
                assert multiplier_from_density(pde, d) == lam
        sg = parse_pde("u_tx = sin(u)")
        d = homotopy_density(sg, P("u_xxx + u_x^3/2"))
        assert densities_match(d, P("-u_xx^2/2 + u_x^4/8"))
        assert multiplier_from_density(sg, d) == P("u_xxx + u_x^3/2")
        shg = parse_pde("u_tx = exp(u) + exp(-u)")
        d = homotopy_density(shg, P("u_xxx - u_x^3/2"))
        assert densities_match(d, P("-u_xx^2/2 - u_x^4/8"))
        assert multiplier_from_density(shg, d) == P("u_xxx - u_x^3/2")
        wave = parse_pde(WAVE_U2)
        for s in ("u_t", "u_x", "t*u_t + x*u_x", "t^2*u_t - t*u",
                  "x^2*u_x + x*u", "t*u_t - x*u_x - u"):
            lam = P(s)
            d = homotopy_density(wave, lam)
            assert multiplier_from_density(wave, d) == lam


def test_criterion_5_operator_property_suite():
    with criterion(5, "operator properties on 1000 random expressions each, "
                      "within the runtime budget"):
        started = time.perf_counter()
        rng = random.Random(1234)
        kdv = parse_pde(KDV, {"n": 1})
        for _ in range(1000):
            e = random_expression(rng, max_order=4, max_terms=8)
            assert euler_operator(e.total("x")).is_zero()
            assert euler_operator(e.total("t")).is_zero()
        for _ in range(1000):
            e = random_expression(rng, max_order=4, max_terms=8)
            assert e.total("t").total("x") == e.total("x").total("t")
        for _ in range(1000):
            a = random_expression(rng, max_order=2, max_terms=4,
                                  with_atoms=False, pure_x=True)
            b = random_expression(rng, max_order=2, max_terms=4,
                                  with_atoms=False, pure_x=True)
            q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert homotopy_density(kdv, a * q + b) \
                == homotopy_density(kdv, a) * q + homotopy_density(kdv, b)
        for _ in range(1000):
            e = random_expression(rng, max_order=3, max_terms=6)
            core, theta = ibp_normal_form(e)
            assert e == core + theta.total("x")
            core2, theta2 = ibp_normal_form(core)
            assert core2 == core and theta2.is_zero()
        elapsed = time.perf_counter() - started
        assert elapsed <= 120.0, "property suite took %.1f s" % elapsed


def test_criterion_6_soundness_gate(kdv_runs, wave_runs, kg_runs):
    with criterion(6, "every multiplier from every derive/scan run "
                      "verifies end to end"):
        jobs = []
        for n, (pde, mults, _) in kdv_runs.items():
            jobs.extend((pde, lam) for lam in mults)
        for pde, mults in wave_runs.values():
            jobs.extend((pde, lam) for lam in mults)
        for pde, mults in kg_runs.values():
            jobs.extend((pde, lam) for lam in mults)
        assert jobs
        for pde, lam in jobs:
            assert determining_expression(pde, lam).is_zero()
            cl = build_law(pde, lam)
            assert cl.verified, "law failed for %s on %s" % (render(lam), pde)


# -- criterion 7: numerical cross-checks ------------------------------------

FLOOR = 1e-8
FINEST_TOL = 1e-6
MIN_ORDER = 3.0
CONTROL_MIN = 1e-3


def _control(pde, text):
    return ConservationLaw(pde=pde, multiplier=JetExpression.zero(),
                           density_t=P(text), density_x=JetExpression.zero(),
                           utilde=JetExpression.zero())


def _check_refinement(name, drifts, lines):
    finest = drifts[-1]
    orders = convergence_orders(drifts)
    if all(o >= MIN_ORDER for o in orders):
        lines.append("  %-28s order %s drifts %s"
                     % (name, ["%.2f" % o for o in orders], _fmt(drifts)))
        assert finest <= FINEST_TOL, (name, drifts)
        return
    # time error below the numerical floor: refinement cannot show the
    # stepper order, but the drift must sit far under the tolerance
    lines.append("  %-28s floor     drifts %s" % (name, _fmt(drifts)))
    assert max(drifts) <= FLOOR, (name, drifts)


def _check_control(name, drifts, lines):
    lines.append("  %-28s control   drifts %s" % (name, _fmt(drifts)))
    assert min(drifts) >= CONTROL_MIN, (name, drifts)
    orders = convergence_orders(drifts)
    assert all(abs(o) <= 0.5 for o in orders), (name, orders)


def _fmt(drifts):
    return "[" + ", ".join("%.2e" % d for d in drifts) + "]"


def test_criterion_7_numerical_cross_checks():
    lines = []
    with criterion(7, "conserved-quantity drift under two refinements for "
                      "the three families, with negative controls"):
        kdv = parse_pde(KDV, {"n": 1})
        cfg = nc.GridConfig(length=40.0, n=256, dt=3e-4, t_end=1.0)
        x = nc.grid(cfg)
        u0 = 3.0 * np.sin(2 * np.pi * x / 40) + np.cos(4 * np.pi * x / 40)
        laws = [build_law(kdv, P(s)) for s in ("1", "u", "u_xx + u^2/2")]
        drifts = refinement_drifts(kdv, u0, cfg, laws + [_control(kdv, "u^3")])
        for name, d in zip(("mass", "momentum", "energy"), drifts):
            _check_refinement("kdv " + name, d, lines)
        _check_control("kdv u^3", drifts[3], lines)

        cfg = nc.GridConfig(length=40.0, n=256, dt=8e-5, t_end=0.2)
        x = nc.grid(cfg)
        galilean = build_law(kdv, P("t*u - x"))
        drifts = refinement_drifts(kdv, nc.kdv_soliton(x), cfg, [galilean])
        _check_refinement("kdv t*u - x (soliton)", drifts[0], lines)

        wave = parse_pde(WAVE_U2)
        cfg = nc.GridConfig(length=20.0, n=256, dt=2e-2, t_end=6.0)
        x = nc.grid(cfg)
        u0 = (2.0 + 0.5 * np.exp(-((x - 3.0)) ** 2)
              + 0.35 * np.exp(-((x + 4.0) / 0.8) ** 2))
        lams = ("u_t", "u_x", "t^2*u_t - t*u", "x^2*u_x + x*u",
                "t*u_t - x*u_x - u")
        laws = [build_law(wave, P(s)) for s in lams]
        drifts = refinement_drifts(wave, (u0, np.zeros_like(x)), cfg,
                                   laws + [_control(wave, "u^3")])
        for name, d in zip(lams, drifts):
            _check_refinement("wave " + name, d, lines)
        _check_control("wave u^3", drifts[5], lines)

        sg = parse_pde("u_tx = sin(u)")
        cfg = nc.GridConfig(length=2 * np.pi, n=128, dt=5e-2, t_end=6.0)
        x = nc.grid(cfg)
        u0 = nc.odd_harmonic_profile(x, cfg.length)
        laws = [build_law(sg, P("u_x")), build_law(sg, P("u_xxx + u_x^3/2"))]
        drifts = refinement_drifts(sg, u0, cfg,
                                   laws + [_control(sg, "u_x^4")])
        _check_refinement("sine-Gordon first order", drifts[0], lines)
        _check_refinement("sine-Gordon second order", drifts[1], lines)
        _check_control("sine-Gordon u_x^4", drifts[2], lines)
    print("\n".join(lines))
