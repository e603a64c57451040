"""Numerical cross-validation of conservation laws at desk scale.

Periodic pseudo-spectral discretization in x with classical four-stage
Runge-Kutta in time.  The u_tt shape integrates the first-order system in
(u, u_t); the u_tx shape evolves u_t = D_x^{-1} g(u) with the inverse
derivative realized spectrally under zero-mean projection.  A trajectory's
snapshots are copies of the RK4 state; _rate gives its time derivative and
_state_jets its jets, for each shape.  Conserved quantities are periodic
trapezoid integrals of the density over the grid.  initial_state builds the
start profiles of `jetlaw numcheck --initial`.

Each piece of work in the inner loop is done once.  A field's x-derivatives
come from one rfft and one batched irfft against cached rows of (ik)^b.
Each expression is compiled once into float coefficients and distinct
(base, power) factors.  The jet orders an expression set uses are scanned
once per integration or quantity series, not per evaluation, and only the
x-orders it reads are transformed.  The RK4 loop and the quantity series
hold floating-point warnings off once for the whole run; a blow-up or a
singular density is reported by their own checks.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .expr import ExprError, U, coord_name, is_kernel_atom
from .pde import PdeSpec
from .laws import ConservationLaw


class IntegrationBlowUp(ExprError, RuntimeError):
    def __init__(self, t, norm):
        super().__init__("field norm %.3e at t=%.4f; unstable configuration" % (norm, t))
        self.t = t
        self.norm = norm


class GridError(ExprError):
    """A grid configuration or start profile outside the supported range."""


# Most RK4 steps one integration may take; the tests and benchmark take at
# most about 13,000.
MAX_STEPS = 10 ** 6
# Most grid points; the tests, demos and benchmark use at most 256, and a
# larger request is refused before any array is allocated.
MAX_GRID = 2 ** 16


@dataclass(frozen=True)
class GridConfig:
    length: float
    n: int
    dt: float
    t_end: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise GridError("grid size n must be an integer")
        if not 64 <= self.n <= MAX_GRID:
            raise GridError("grid must have between 64 and %d points" % MAX_GRID)
        for name in ("length", "dt", "t_end"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
                raise GridError("%s must be finite and positive" % name)
        steps = self.t_end / self.dt
        if not (steps < math.inf and 1 <= round(steps) <= MAX_STEPS):
            raise GridError("t_end/dt must round to between 1 and %d RK4 steps" % MAX_STEPS)


@dataclass
class Trajectory:
    pde: PdeSpec
    cfg: GridConfig
    x: np.ndarray
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)  # copies of the RK4 state y


def grid(cfg: GridConfig) -> np.ndarray:
    return np.linspace(-cfg.length / 2, cfg.length / 2, cfg.n, endpoint=False)


@functools.lru_cache(maxsize=64)
def _ik_rows(n: int, length: float, orders: tuple) -> np.ndarray:
    """Read-only rows (ik)^b, one per b in orders, for an n-point grid."""
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)
    rows = np.stack([(1j * k) ** b for b in orders])
    rows.flags.writeable = False
    return rows


def spectral_derivative(u: np.ndarray, length: float, orders: tuple) -> np.ndarray:
    """The rows d_x^b u, one per b in orders, a tuple of ints b >= 1, from one
    transform pair."""
    n = u.shape[0]
    return np.fft.irfft(_ik_rows(n, length, orders) * np.fft.rfft(u), n=n)


def spectral_antiderivative(f: np.ndarray, length: float) -> np.ndarray:
    """Zero-mean antiderivative in x; the mean mode is projected out."""
    ik = _ik_rows(f.shape[0], length, (1,))[0]
    fh = np.fft.rfft(f)
    fh[0] = 0.0
    fh[1:] /= ik[1:]
    return np.fft.irfft(fh, n=f.shape[0])


@functools.lru_cache(maxsize=256)
def _compile(expr) -> tuple:
    """(factors, terms) of expr.  factors are its distinct (base, power)
    pairs, base being "t", "x", a jet coordinate or a kernel atom with float
    parameters; each term is (float coefficient, indices into factors)."""
    slots: dict = {}
    terms = []
    for (mono, atoms), c in expr.terms.items():
        idx = [slots.setdefault((k, p), len(slots)) for k, p in mono]
        for a, p in atoms:
            if not is_kernel_atom(a):
                raise ExprError("formal atom in numeric evaluation")
            base = (a[0],) + tuple(float(z) for z in a[1:])
            idx.append(slots.setdefault((base, p), len(slots)))
        terms.append((float(c), tuple(idx)))
    return tuple(slots), tuple(terms)


_KERNELS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}


def _factor(base, p, t, x, jets):
    if base == "t":
        return t ** p
    if base == "x":
        v = x
    elif type(base[0]) is str:
        arg = base[1] * jets[U] + base[2]
        v = arg ** base[3] if base[0] == "pow" else _KERNELS[base[0]](arg)
    else:
        v = jets[base]
    return v if p == 1 else v ** p


def evaluate_on_grid(expr, t: float, x: np.ndarray, jets: dict) -> np.ndarray:
    """Vectorized expression evaluation; jets maps jet coordinates to arrays.

    Singular values become inf/nan here and are reported by the callers,
    which hold floating-point warnings off with np.errstate; this function
    does not.  The terms are summed in order into the first one."""
    factors, terms = _compile(expr)
    values = [_factor(base, p, t, x, jets) for base, p in factors]
    out = None
    for c, idx in terms:
        term = c
        for i in idx:
            term *= values[i]  # the first product is a new array, never a factor
        if out is not None:
            out += term
        elif isinstance(term, np.ndarray):
            out = term
        else:
            out = np.full_like(x, term)  # a constant term
    return np.zeros_like(x) if out is None else out


def _jet_orders(exprs) -> dict:
    """Sorted x-orders b >= 1 of the jets (a, b) that exprs use, keyed by a.

    Every time order a that is used has a key, with an empty tuple when
    only (a, 0) is used."""
    used: dict = {}
    for e in exprs:
        for (a, b) in e.jets():
            used.setdefault(a, set()).add(b)
    return {a: tuple(sorted(bs - {0})) for a, bs in used.items()}


def _add_jets(jets: dict, a: int, f: np.ndarray, length: float, orders: dict) -> dict:
    """Jets (a, 0) = f and (a, b) = d_x^b f for b in orders[a], from one
    transform pair."""
    jets[(a, 0)] = f
    bs = orders.get(a)
    if bs:
        jets.update(zip([(a, b) for b in bs], spectral_derivative(f, length, bs)))
    return jets


def _as_state(initial, leading: tuple, n: int) -> np.ndarray:
    """initial as the RK4 state: one (n,) array u, or for the u_tt shape a
    pair of (n,) arrays (u, u_t) stacked to (2, n)."""
    want = (2, n) if leading == (2, 0) else (n,)
    try:
        y = np.asarray(initial, float)
        got = y.shape
    except ValueError:  # a ragged pair
        y = None
        got = tuple(np.shape(f) for f in initial)
    if got != want:
        what = "a pair of (%d,) arrays" % n if leading == (2, 0) else "one (%d,) array" % n
        raise ExprError("initial state must be %s, shape %s; got shape %s"
                        % (what, want, got))
    return y


def integrate_pde(pde: PdeSpec, initial, cfg: GridConfig) -> Trajectory:
    """Time series of RK4 states for the three supported shapes.

    initial: array u0 for u_t/u_tx leading; pair (u0, v0) for u_tt leading.
    """
    nsteps = int(round(cfg.t_end / cfg.dt))
    stride = max(1, nsteps // 80)  # about 80 snapshots
    traj = Trajectory(pde=pde, cfg=cfg, x=grid(cfg))
    orders = _jet_orders([pde.rhs])
    y = _as_state(initial, pde.leading, cfg.n)
    traj.times.append(0.0)
    traj.states.append(y.copy())
    t = 0.0
    dt = cfg.dt
    # Overflow on the way to a blow-up, and singular values of the right-hand
    # side, are reported by the norm check below.
    with np.errstate(all="ignore"):
        for step in range(1, nsteps + 1):
            k1 = _rate(traj, orders, t, y)
            k2 = _rate(traj, orders, t + dt / 2, y + dt / 2 * k1)
            k3 = _rate(traj, orders, t + dt / 2, y + dt / 2 * k2)
            k4 = _rate(traj, orders, t + dt, y + dt * k3)
            y = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t = step * dt
            if step % 25 == 0 or step == nsteps:
                norm = float(np.max(np.abs(y)))
                if not np.isfinite(norm) or norm > 1e8:
                    raise IntegrationBlowUp(t, norm)
            if step % stride == 0 or step == nsteps:
                traj.times.append(t)
                traj.states.append(y.copy())
    return traj


def _rate(traj: Trajectory, orders: dict, t: float, y: np.ndarray, jets=None) -> np.ndarray:
    """d/dt of the RK4 state y at time t: the RHS for the u_t shape, the pair
    (u_t, RHS) for u_tt, and the zero-mean antiderivative of the RHS for u_tx.
    jets are y's jets at orders, which cover the RHS; they are built from y
    when not given."""
    if jets is None:
        jets = _state_jets(traj, orders, t, y)
    g = evaluate_on_grid(traj.pde.rhs, t, traj.x, jets)
    if traj.pde.leading == (1, 0):
        return g
    if traj.pde.leading == (2, 0):
        return np.stack([y[1], g])
    return spectral_antiderivative(g, traj.cfg.length)


def _state_jets(traj: Trajectory, orders: dict, t: float, y: np.ndarray) -> dict:
    """Jets of the RK4 state y at the x-orders in orders, which cover the RHS.
    u comes from y, or from y[0] with u_t from y[1] for the u_tt shape; for
    the u_tx shape u_t is the rate, added only when orders reads it."""
    length = traj.cfg.length
    if traj.pde.leading == (2, 0):
        return _add_jets(_add_jets({}, 0, y[0], length, orders), 1, y[1], length, orders)
    jets = _add_jets({}, 0, y, length, orders)
    if traj.pde.leading == (1, 1) and 1 in orders:
        return _add_jets(jets, 1, _rate(traj, orders, t, y, jets), length, orders)
    return jets


def quantity_series(cl: ConservationLaw, traj: Trajectory):
    """Rows (t, Q, drift) with Q the periodic trapezoid integral of Phi^t."""
    if cl.pde != traj.pde:
        raise ExprError("a law of %s on a trajectory of %s" % (cl.pde, traj.pde))
    # A state gives the t-derivatives below the order of the leading one:
    # u, and u_t for the second-order shapes u_tt and u_tx.
    unheld = sorted(k for k in cl.density_t.jets() if k[0] >= sum(traj.pde.leading))
    if unheld:
        raise ExprError("the density reads %s, which a trajectory of %s does not hold"
                        % (coord_name(unheld[0]), traj.pde))
    dx = traj.cfg.length / traj.cfg.n
    orders = _jet_orders([cl.density_t, cl.pde.rhs])
    rows = []
    q0 = None
    # A singular density is reported by the finiteness check below.
    with np.errstate(all="ignore"):
        for t, state in zip(traj.times, traj.states):
            jets = _state_jets(traj, orders, t, state)
            density = evaluate_on_grid(cl.density_t, t, traj.x, jets)
            if not np.all(np.isfinite(density)):
                bad = int(np.argmin(np.isfinite(density)))
                raise ExprError(
                    "density evaluation singular at t=%.4f, x=%.4f" % (t, traj.x[bad]))
            q = float(density.sum() * dx)
            if q0 is None:
                q0 = q
            rows.append((t, q, abs(q - q0) / max(1.0, abs(q0))))
    return rows


# -- canonical desk-scale initial data ---------------------------------------

def initial_state(pde: PdeSpec, profile: str, cfg: GridConfig):
    """The named start profile on cfg's grid, paired with u_t = 0 for the u_tt shape."""
    x = grid(cfg)
    if profile == "periodic":
        u0 = 3.0 * np.sin(2 * np.pi * x / cfg.length) + np.cos(4 * np.pi * x / cfg.length)
    elif profile == "soliton":
        u0 = kdv_soliton(x)
    elif profile == "bumps":
        u0 = 2.0 + 0.5 * np.exp(-((x - 3.0)) ** 2) + 0.35 * np.exp(-((x + 4.0) / 0.8) ** 2)
    elif profile == "harmonics":
        u0 = odd_harmonic_profile(x, cfg.length)
    else:
        raise GridError("unknown start profile %r" % profile)
    return (u0, np.zeros_like(u0)) if pde.leading == (2, 0) else u0


def kdv_soliton(x: np.ndarray) -> np.ndarray:
    """Solitary wave 12 sech^2(x) of u_t + u u_x + u_xxx = 0: speed 4,
    centred at 0."""
    return 12.0 / np.cosh(x) ** 2


def odd_harmonic_profile(x: np.ndarray, length: float) -> np.ndarray:
    """Half-period antisymmetric profile: u(x + L/2) = -u(x).

    Built from odd harmonics only, so the mean of any odd function of u
    vanishes exactly; the zero-mean projection in the u_tx chart is inactive.
    """
    k0 = 2.0 * np.pi / length
    out = np.zeros_like(x)
    for j, a in enumerate((1.1, 0.3)):
        mode = 2 * j + 1
        out = out + a * np.sin(mode * k0 * x) + 0.3 * a * np.cos(mode * k0 * x)
    return out
