"""In-memory span tracing of jetlaw from outside its source tree.

A Tracer wraps the functions named in layers.json.  Each wrapper is bound to
every attribute of every loaded jetlaw module (and, for methods, of the
class) that holds the original function, because jetlaw modules import one
another's functions by name: euler_operator lives in both jetlaw.calculus and
jetlaw.detsys, build_law in jetlaw.laws and jetlaw.cli.  Leaving the `with`
block puts every original back.

A span is [name, start, end, parent index, operation id, self time]; self
time is the duration minus the time covered by child spans.  Counters record
calls of hot JetExpression methods and of numpy's FFT without a span each.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy.fft  # noqa: F401  -- resolve() finds numpy.fft in sys.modules

SPEC = json.loads(Path(__file__).with_name("layers.json").read_text())


def resolve(dotted: str):
    """The object a dotted name refers to, e.g. jetlaw.expr.JetExpression.total."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        module = sys.modules.get(".".join(parts[:i]))
        if module is not None:
            owner = module
            for attr in parts[i:-1]:
                owner = getattr(owner, attr)
            return owner, getattr(owner, parts[-1])
    raise LookupError("module of %s is not imported" % dotted)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self.bindings: dict = {}
        self._stack: list = []
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        owners = [m for name, m in sorted(sys.modules.items())
                  if name == "jetlaw" or name.startswith("jetlaw.")]
        try:
            for entry in SPEC["spans"]:
                name = entry["function"]
                _, fn = resolve(name)
                self._bind(name, fn, self._span_wrapper(name, fn), owners)
            for name in SPEC["counters"]:
                owner, fn = resolve(name)
                self._bind(name, fn, self._counter_wrapper(name, fn), [owner])
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _bind(self, name, fn, wrapper, owners):
        found = []
        for owner in owners:
            attrs = [a for a, v in vars(owner).items() if v is fn]
            for attr in attrs:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                found.append("%s.%s" % (owner.__name__, attr))
        if not found:
            raise LookupError("no attribute binds %s" % name)
        self.bindings[name] = found

    def remove(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.op, 0.0]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = time.perf_counter()
                stack.pop()
                duration = end - span[1]
                span[5] += duration
                if span[3] is not None:
                    spans[span[3]][5] -= duration
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        counts = self.counts
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None


# -- observers: counts read from arguments and results --------------------------

def _assemble(tracer, args, kwargs, linsys):
    tracer.counts["linsolve.rows"] += len(linsys.rows)
    tracer.counts["linsolve.cols"] += linsys.ncols
    tracer.counts["linsolve.nnz"] += sum(len(row) for row in linsys.rows.values())


def _nullspace(tracer, args, kwargs, basis):
    linsys = args[0] if args else kwargs["linsys"]
    tracer.counts["linsolve.rank"] += linsys.ncols - len(basis)


def _split(tracer, args, kwargs, system):
    tracer.counts["detsys.equation_terms"] += sum(len(eq.terms) for eq in system.equations)


def _verify(tracer, args, kwargs, ok):
    tracer.counts["laws.verified"] += bool(ok)


def _normalize(tracer, args, kwargs, cl):
    before = args[0] if args else kwargs["cl"]
    tracer.counts["laws.normalized"] += cl.density_t != before.density_t


def _integrate(tracer, args, kwargs, traj):
    # integrate_pde takes round(t_end / dt) classical RK4 steps.
    cfg = traj.cfg
    tracer.counts["numcheck.rk4_steps"] += int(round(cfg.t_end / cfg.dt))


def _grid_eval(tracer, args, kwargs, values):
    if tracer.parent_name() == "jetlaw.numcheck.integrate_pde":
        tracer.counts["numcheck.rhs_evals"] += 1


def _partial(tracer, args, kwargs, result):
    tracer.counts["expr.partial_nonzero"] += bool(result.terms)


def _add(tracer, args, kwargs, result):
    tracer.counts["expr.add_terms"] += len(args[0].terms)


_OBSERVERS = {
    "jetlaw.linsolve.assemble": _assemble,
    "jetlaw.linsolve.nullspace": _nullspace,
    "jetlaw.detsys.split_determining_system": _split,
    "jetlaw.laws.verify": _verify,
    "jetlaw.laws.normalize_density": _normalize,
    "jetlaw.numcheck.integrate_pde": _integrate,
    "jetlaw.numcheck.evaluate_on_grid": _grid_eval,
    "jetlaw.expr.JetExpression.partial": _partial,
    "jetlaw.expr.JetExpression.__add__": _add,
}


# -- per-layer metrics from one traced pass --------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Self times, counts and ratios of one traced pass, keyed by metric."""
    out = {"%s.%s" % (layer, m): 0.0 for layer, info in SPEC["layers"].items()
           for m in info["metrics"]}
    metric_of = {e["function"]: e["metric"] for e in SPEC["spans"]}
    calls = Counter()
    covered = 0.0
    for name, start, end, parent, _op, self_time in tracer.spans:
        out[metric_of[name]] += self_time
        calls[name] += 1
        if parent is None:
            covered += end - start
    c = tracer.counts
    fft = c["numpy.fft.rfft"] + c["numpy.fft.irfft"]
    out.update({
        "linsolve.rows": c["linsolve.rows"], "linsolve.cols": c["linsolve.cols"],
        "linsolve.nnz": c["linsolve.nnz"], "linsolve.rank": c["linsolve.rank"],
        "detsys.equation_terms": c["detsys.equation_terms"],
        "calculus.euler_calls": calls["jetlaw.calculus.euler_operator"],
        "expr.total_calls": c["jetlaw.expr.JetExpression.total"],
        "expr.partial_calls": c["jetlaw.expr.JetExpression.partial"],
        "expr.partial_nonzero_frac": _ratio(c["expr.partial_nonzero"],
                                            c["jetlaw.expr.JetExpression.partial"]),
        "expr.mul_calls": c["jetlaw.expr.JetExpression.__mul__"],
        "expr.add_calls": c["jetlaw.expr.JetExpression.__add__"],
        "expr.add_terms": c["expr.add_terms"],
        "laws.verify_calls": calls["jetlaw.laws.verify"],
        "laws.verified_frac": _ratio(c["laws.verified"], calls["jetlaw.laws.verify"]),
        "laws.normalize_calls": calls["jetlaw.laws.normalize_density"],
        "laws.normalized_frac": _ratio(c["laws.normalized"],
                                       calls["jetlaw.laws.normalize_density"]),
        "numcheck.rk4_steps": c["numcheck.rk4_steps"],
        "numcheck.rhs_evals": c["numcheck.rhs_evals"],
        "numcheck.fft_calls": fft,
        "trace.wall_s": wall,
        "trace.coverage_frac": _ratio(covered, wall),
        "trace.spans": len(tracer.spans),
    })
    return out


def span_calls(tracer: Tracer) -> Counter:
    return Counter(span[0] for span in tracer.spans)


def check_expectations(workload: str, tracer: Tracer, metrics: dict) -> list:
    """Spans that should have fired but did not, and layers that should read
    zero but did not; [] when the trace matches layers.json."""
    problems = []
    fired = span_calls(tracer)
    for entry in SPEC["spans"]:
        if workload in entry["fires_on"] and not fired[entry["function"]]:
            problems.append("span %s never fired" % entry["function"])
    for layer, info in SPEC["layers"].items():
        if workload in info["zero_on"]:
            for m in info["metrics"]:
                if metrics["%s.%s" % (layer, m)] != 0:
                    problems.append("%s.%s is %r, predicted 0"
                                    % (layer, m, metrics["%s.%s" % (layer, m)]))
    return problems


def write_spans(path: Path, spans: list) -> None:
    """The spans of one pass as JSON: a table of names, then one row per span
    of [name index, start, end, parent index, operation, self time], with
    times in seconds from the first span's start."""
    names = sorted({span[0] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    origin = spans[0][1] if spans else 0.0
    rows = [[index[name], round(s - origin, 7), round(e - origin, 7), parent, op,
             round(self_time, 7)]
            for name, s, e, parent, op, self_time in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"names": names, "spans": rows}, separators=(",", ":")))
