"""Numerical integration and conserved-quantity drift measurement.

Configurations and the drift behavior asserted here were established by the
refinement study in test_acceptance.py; this module keeps faster sanity
checks: stability, convergence of the stepper, zero data, and blow-up
detection.
"""

import hashlib
import math
import random
import warnings

import numpy as np
import pytest

from conftest import (conserved_drift, convergence_orders, evaluate, gaussian_bump,
                      random_expression, refinement_drifts)
from jetlaw import numcheck
from jetlaw.expr import U, ExprError, JetExpression, lam_atom
from jetlaw.parser import parse_expression as P
from jetlaw.pde import parse_pde
from jetlaw.laws import ConservationLaw, build_law
from jetlaw.numcheck import (
    GridConfig,
    GridError,
    IntegrationBlowUp,
    Trajectory,
    evaluate_on_grid,
    grid,
    initial_state,
    integrate_pde,
    kdv_soliton,
    odd_harmonic_profile,
    quantity_series,
    spectral_antiderivative,
    spectral_derivative,
)

KDV = "u_t + u*u_x + u_xxx = 0"
WAVE = "u_tt = pow(u,-4)*u_xx - 2*pow(u,-5)*u_x^2"


def _control(pde, density_text):
    return ConservationLaw(pde=pde, multiplier=JetExpression.zero(),
                           density_t=P(density_text),
                           density_x=JetExpression.zero(),
                           utilde=JetExpression.zero())


def test_spectral_derivative_exact_on_modes():
    n, length = 128, 2 * np.pi
    x = np.linspace(-length / 2, length / 2, n, endpoint=False)
    u = np.sin(3 * x)
    assert np.allclose(spectral_derivative(u, length, (1,))[0], 3 * np.cos(3 * x), atol=1e-10)
    assert np.allclose(spectral_derivative(u, length, (2,))[0], -9 * np.sin(3 * x), atol=1e-9)


def test_spectral_antiderivative_inverts_derivative():
    n, length = 128, 10.0
    x = np.linspace(-length / 2, length / 2, n, endpoint=False)
    f = np.cos(2 * np.pi * x / length) + 0.3 * np.sin(4 * np.pi * x / length)
    g = spectral_antiderivative(f, length)
    assert np.allclose(spectral_derivative(g, length, (1,))[0], f, atol=1e-12)
    assert abs(g.mean()) < 1e-14


def test_zero_data_stays_zero_for_vanishing_interaction():
    kg = parse_pde("u_tx = sin(u)")
    cfg = GridConfig(length=2 * np.pi, n=64, dt=1e-2, t_end=0.5)
    traj = integrate_pde(kg, np.zeros(64), cfg)
    assert max(float(np.max(np.abs(s))) for s in traj.states) == 0.0


def test_grid_config_validation():
    for length, n, dt, t_end in [
        (10.0, 32, 1e-3, 1.0),
        (10.0, 64, -1e-3, 1.0),
        (0.0, 64, 1e-3, 1.0),
        (-10.0, 64, 1e-3, 1.0),
        (math.inf, 64, 1e-3, 1.0),
        (math.nan, 64, 1e-3, 1.0),
        (10.0, 64, math.inf, 1.0),
        (10.0, 64, math.nan, 1.0),
        (10.0, 64, 5.0, 1.0),  # rounds to zero RK4 steps
        (10.0, 64, 1e-3, math.inf),
        (10.0, 64, 1e-300, 1e10),  # the step count overflows
        (10.0, 64, 1e-9, 1.0),  # 10^9 steps, over MAX_STEPS
        (10.0, 2 ** 16 + 1, 1e-3, 1.0),  # over MAX_GRID
        (10.0, 10 ** 15, 1e-3, 1.0),
        (10.0, 100.5, 1e-3, 1.0),  # a grid size must be an integer
        (10.0, 128.0, 1e-3, 1.0),
        (10.0, "128", 1e-3, 1.0),
        (10.0, None, 1e-3, 1.0),
        ("40", 64, 1e-3, 1.0),  # length, dt and t_end must be numbers
        (None, 64, 1e-3, 1.0),
        (10.0, 64, "1e-3", 1.0),
        (10.0, 64, None, 1.0),
        (10.0, 64, 1e-3, "1.0"),
        (10.0, 64, 1e-3, None),
    ]:
        with pytest.raises(ValueError):
            GridConfig(length=length, n=n, dt=dt, t_end=t_end)
    assert GridConfig(length=10.0, n=np.int64(64), dt=1e-3, t_end=1.0).n == 64


def test_blowup_detection():
    kdv = parse_pde(KDV)
    cfg = GridConfig(length=40.0, n=128, dt=5e-2, t_end=2.0)  # far beyond CFL
    x = grid(cfg)
    with pytest.raises(IntegrationBlowUp):
        integrate_pde(kdv, kdv_soliton(x), cfg)


def test_blowup_and_singular_density_raise_without_runtime_warnings():
    """Overflow on the way to a blow-up and a pole of the density are
    reported by their own errors, with floating-point warnings held off."""
    kdv = parse_pde(KDV)
    cfg = GridConfig(length=40.0, n=128, dt=5e-2, t_end=2.0)
    wave = parse_pde(WAVE)
    wave_cfg = GridConfig(length=20.0, n=64, dt=1e-2, t_end=0.05)
    u0 = gaussian_bump(grid(wave_cfg))
    traj = integrate_pde(wave, (u0, np.zeros_like(u0)), wave_cfg)
    pole = _control(wave, "pow(u - 2, -2)")  # u = 2 at x = +-10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationBlowUp):
            integrate_pde(kdv, kdv_soliton(grid(cfg)), cfg)
        with pytest.raises(ValueError, match="singular"):
            quantity_series(pole, traj)


@pytest.mark.parametrize("text,initial,expected,received", [
    (KDV, np.zeros(100), "(128,)", "(100,)"),
    (KDV, np.zeros((2, 128)), "(128,)", "(2, 128)"),
    ("u_tx = sin(u)", np.zeros((128, 1)), "(128,)", "(128, 1)"),
    (WAVE, np.full(128, 2.0), "(2, 128)", "(128,)"),
    (WAVE, (np.full(128, 2.0), np.zeros(64)), "(2, 128)", "((128,), (64,))"),
    (WAVE, (np.full(128, 2.0),) * 3, "(2, 128)", "(3, 128)"),
])
def test_initial_state_shape_checked_up_front(text, initial, expected, received):
    cfg = GridConfig(length=40.0, n=128, dt=1e-3, t_end=1e-3)
    with pytest.raises(ExprError) as info:
        integrate_pde(parse_pde(text), initial, cfg)
    message = str(info.value)
    assert "shape %s" % expected in message and "got shape %s" % received in message


def test_unknown_start_profile_is_a_grid_error():
    cfg = GridConfig(length=40.0, n=128, dt=1e-3, t_end=1e-3)
    with pytest.raises(GridError, match="unknown start profile 'gaussian'"):
        initial_state(parse_pde(KDV), "gaussian", cfg)
    assert issubclass(GridError, ExprError)


def test_kdv_mass_conserved_to_roundoff():
    kdv = parse_pde(KDV)
    cfg = GridConfig(length=40.0, n=256, dt=2e-4, t_end=0.1)
    x = grid(cfg)
    traj = integrate_pde(kdv, kdv_soliton(x), cfg)
    mass = build_law(kdv, P("1"))
    assert conserved_drift(mass, traj) <= 1e-10


def test_rk4_stepper_fourth_order_on_wave():
    wave = parse_pde(WAVE)
    cfg = GridConfig(length=20.0, n=128, dt=4e-2, t_end=4.0)
    x = grid(cfg)
    u0 = gaussian_bump(x, base=2.0, amplitude=0.5)
    law = build_law(wave, P("u_t"))
    drifts = refinement_drifts(wave, (u0, np.zeros_like(x)), cfg, [law])[0]
    orders = convergence_orders(drifts)
    assert drifts[-1] <= 1e-8
    assert all(o >= 3.0 for o in orders)


def test_sine_gordon_projection_inactive_on_antiperiodic_data():
    sg = parse_pde("u_tx = sin(u)")
    cfg = GridConfig(length=2 * np.pi, n=128, dt=2e-2, t_end=1.0)
    x = grid(cfg)
    u0 = odd_harmonic_profile(x, cfg.length)
    assert abs(np.sin(u0).mean()) < 1e-15
    traj = integrate_pde(sg, u0, cfg)
    u_end = traj.states[-1]
    assert abs(np.sin(u_end).mean()) < 1e-13


def test_u_tx_rate_is_the_zero_mean_antiderivative():
    """The rate of a u_tx state projects out the mean of the RHS, here
    u^2 on a state with a nonzero mean."""
    tx = parse_pde("u_tx = u^2")
    cfg = GridConfig(length=2 * np.pi, n=64, dt=1e-2, t_end=0.1)
    traj = Trajectory(pde=tx, cfg=cfg, x=grid(cfg))
    y = 1.5 + np.sin(traj.x) + 0.25 * np.cos(3 * traj.x)
    g = y ** 2
    assert g.mean() > 1.0
    rate = numcheck._rate(traj, numcheck._jet_orders([tx.rhs]), 0.0, y)
    want = spectral_antiderivative(g - g.mean(), cfg.length)
    assert np.max(np.abs(rate - want)) <= 1e-12 * np.max(np.abs(want))


def test_quantity_series_rows_and_drift_shape():
    kdv = parse_pde(KDV)
    cfg = GridConfig(length=40.0, n=128, dt=1e-3, t_end=0.05)
    x = grid(cfg)
    u0 = np.sin(2 * np.pi * x / 40)
    traj = integrate_pde(kdv, u0, cfg)
    law = build_law(kdv, P("u"))
    rows = quantity_series(law, traj)
    assert rows[0][0] == 0.0 and rows[0][2] == 0.0
    assert len(rows) == len(traj.times)
    assert conserved_drift(law, traj) == max(r[2] for r in rows)


def test_rate_feeds_u_t_density_on_sine_gordon():
    """For the u_tx shape a density in u_t reads the rate of each state; the
    rows are frozen by the SHA-256 of their repr, bit for bit."""
    sg = parse_pde("u_tx = sin(u)")
    cfg = GridConfig(length=2 * np.pi, n=64, dt=5e-2, t_end=0.5)
    traj = integrate_pde(sg, odd_harmonic_profile(grid(cfg), cfg.length), cfg)
    rows = quantity_series(_control(sg, "u_t^2"), traj)
    assert len(rows) == 11
    assert rows[-1] == (0.5, 3.062168710698905, 0.0007802786878762455)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "2603a90e78e5e32f5d96ea7c7b609808e178b98be76222df47c934dccc4a0b9b"


@pytest.mark.parametrize("text,initial,density,coordinate", [
    (KDV, kdv_soliton, "u_t", "u_t"),
    ("u_tt = u_xx", lambda x: (gaussian_bump(x), np.zeros_like(x)), "u_tt", "u_tt"),
    ("u_tx = sin(u)", lambda x: odd_harmonic_profile(x, 40.0), "u_tt + u_x", "u_tt"),
])
def test_density_beyond_the_state_raises(text, initial, density, coordinate):
    pde = parse_pde(text)
    cfg = GridConfig(length=40.0, n=64, dt=1e-3, t_end=2e-3)
    traj = integrate_pde(pde, initial(grid(cfg)), cfg)
    with pytest.raises(ExprError, match="density reads %s," % coordinate):
        quantity_series(_control(pde, density), traj)


def test_law_of_another_pde_raises():
    cfg = GridConfig(length=40.0, n=64, dt=1e-3, t_end=2e-3)
    x = grid(cfg)
    kdv, wave = parse_pde(KDV), parse_pde("u_tt = u_xx")
    kdv_traj = integrate_pde(kdv, kdv_soliton(x), cfg)
    wave_traj = integrate_pde(wave, (gaussian_bump(x), np.zeros_like(x)), cfg)
    for law, traj in [(_control(wave, "u_t^2 + u_x^2"), kdv_traj),
                      (build_law(kdv, P("u")), wave_traj)]:
        with pytest.raises(ExprError, match="a law of .* on a trajectory of"):
            quantity_series(law, traj)


def test_density_singularity_reported_with_location():
    wave = parse_pde(WAVE)
    cfg = GridConfig(length=20.0, n=64, dt=1e-2, t_end=0.05)
    x = grid(cfg)
    u0 = gaussian_bump(x)
    traj = integrate_pde(wave, (u0, np.zeros_like(x)), cfg)
    # probe density with a pole exactly on the initial state at x = +-10
    law = ConservationLaw(pde=wave, multiplier=JetExpression.zero(),
                          density_t=P("pow(u - 2, -2)"),
                          density_x=JetExpression.zero(),
                          utilde=JetExpression.zero())
    with pytest.raises(ValueError, match="singular"):
        quantity_series(law, traj)


def test_negative_control_drifts_on_generic_data():
    kdv = parse_pde(KDV)
    cfg = GridConfig(length=40.0, n=256, dt=3e-4, t_end=0.5)
    x = grid(cfg)
    u0 = 3.0 * np.sin(2 * np.pi * x / 40) + np.cos(4 * np.pi * x / 40)
    traj = integrate_pde(kdv, u0, cfg)
    assert conserved_drift(_control(kdv, "u^3"), traj) > 1e-3
    assert conserved_drift(build_law(kdv, P("u")), traj) < 1e-10


def test_spectral_derivative_orders_match_single_calls():
    n, length = 128, 40.0
    x = np.linspace(-length / 2, length / 2, n, endpoint=False)
    u = kdv_soliton(x) + 0.3 * np.sin(2 * np.pi * x / length)
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)
    for m in (1, 3, 5):
        rows = spectral_derivative(u, length, tuple(range(1, m + 1)))
        single = np.stack([spectral_derivative(u, length, (b,))[0] for b in range(1, m + 1)])
        direct = np.stack([np.fft.irfft((1j * k) ** b * np.fft.rfft(u), n=n)
                           for b in range(1, m + 1)])
        assert rows.shape == (m, n)
        assert np.array_equal(rows, single)
        assert np.array_equal(rows, direct)
    rows = spectral_derivative(u, length, (2, 1))
    assert np.array_equal(rows[0], spectral_derivative(u, length, (2,))[0])


def _term_by_term(expr, t, x, jets):
    """Reference: each term built from float(coefficient) factor by factor."""
    kernels = {"exp": np.exp, "sin": np.sin, "cos": np.cos}
    env = {"t": t, "x": x, **jets}
    out = np.zeros_like(x)
    for (mono, atoms), c in expr.terms.items():
        term = np.full_like(x, float(c))
        for k, p in mono:
            term = term * env[k] ** p
        for a, p in atoms:
            arg = float(a[1]) * jets[U] + float(a[2])
            value = arg ** float(a[3]) if a[0] == "pow" else kernels[a[0]](arg)
            term = term * value ** p
        out += term
    return out


def test_evaluate_on_grid_matches_references():
    rng = random.Random(20261018)
    npr = np.random.default_rng(20261018)
    x = np.linspace(-3.0, 3.0, 64, endpoint=False)
    t = 0.7
    for _ in range(200):
        e = random_expression(rng, max_order=3, max_terms=6)
        # u in [0.4, 1.6] keeps the pow(u - 2, -1) atom away from its pole
        jets = {k: npr.uniform(0.4, 1.6, x.shape) for k in e.jets() | {U}}
        values = evaluate_on_grid(e, t, x, jets)
        assert np.array_equal(values, _term_by_term(e, t, x, jets))
        for i in range(x.shape[0]):
            env = {"t": t, "x": x[i], **{k: float(v[i]) for k, v in jets.items()}}
            expected = evaluate(e, env)
            assert abs(values[i] - expected) <= 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("atom", [lam_atom(((0, 0),))])
def test_formal_atom_rejected_on_grid(atom):
    x = np.zeros(64)
    e = JetExpression.atom(atom) + P("u_x")
    with pytest.raises(ValueError, match="formal atom"):
        evaluate_on_grid(e, 0.0, x, {(0, 0): x, (0, 1): x})


@pytest.mark.parametrize("text,initial", [
    (KDV, kdv_soliton),
    (WAVE, lambda x: (gaussian_bump(x), np.zeros_like(x))),
    ("u_tx = sin(u)", lambda x: odd_harmonic_profile(x, 40.0)),
])
def test_one_transform_pair_per_rhs_evaluation(monkeypatch, text, initial):
    """One RK4 step makes four RHS evaluations; each does one rfft and one irfft."""
    counts = {"rfft": 0, "irfft": 0, "rhs": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    pde = parse_pde(text)
    cfg = GridConfig(length=40.0, n=128, dt=1e-3, t_end=1e-3)
    u0 = initial(grid(cfg))
    monkeypatch.setattr(np.fft, "rfft", counted("rfft", np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counted("irfft", np.fft.irfft))
    monkeypatch.setattr(numcheck, "evaluate_on_grid",
                        counted("rhs", numcheck.evaluate_on_grid))
    integrate_pde(pde, u0, cfg)
    assert counts == {"rfft": 4, "irfft": 4, "rhs": 4}


@pytest.mark.parametrize("text,initial,orders", [
    (KDV, kdv_soliton, {(1, 3)}),
    (WAVE, lambda x: (gaussian_bump(x), np.zeros_like(x)), {(1, 2)}),
    ("u_tx = sin(u)", lambda x: odd_harmonic_profile(x, 40.0), set()),
])
def test_rhs_transforms_only_the_orders_it_uses(monkeypatch, text, initial, orders):
    """KdV's RHS reads u_x and u_xxx, not u_xx; sine-Gordon's reads no
    x-derivative at all."""
    asked = []

    def recorded(u, length, order):
        asked.append(order)
        return spectral_derivative(u, length, order)

    pde = parse_pde(text)
    cfg = GridConfig(length=40.0, n=128, dt=1e-3, t_end=1e-3)
    u0 = initial(grid(cfg))
    monkeypatch.setattr(numcheck, "spectral_derivative", recorded)
    integrate_pde(pde, u0, cfg)
    assert len(asked) == (4 if orders else 0)
    assert set(asked) == orders
