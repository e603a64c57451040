"""Tests of the benchmark itself: failure counting, trace hygiene, the
generator, the answer key, and agreement with BENCHMARK.json."""

import json
import signal
import sys
import time
from pathlib import Path

import numpy.fft
import pytest

from perfbench import answers, exprgen, run, tracing, workloads
from perfbench.workloads import Op

ROOT = Path(__file__).resolve().parent.parent


def _failed_frac(ops) -> float:
    _, _, outcomes = run.run_pass(ops)
    return len(run.judge(outcomes)) / len(outcomes)


def _classify_op(name, record):
    cases = workloads.CLASSIFY_CALLS[name][1]
    return Op(name, lambda: record, lambda r: r,
              lambda r: workloads.check_cli_report(r, cases))


@pytest.fixture(scope="module")
def wave_report():
    argv, _ = workloads.CLASSIFY_CALLS["wave c=u"]
    return workloads._cli_call(argv)


def test_correct_report_passes(wave_report):
    assert _failed_frac([_classify_op("wave c=u", wave_report)]) == 0


def test_dropped_multiplier_is_counted(wave_report):
    payload = json.loads(wave_report["stdout"])
    lams = [law["lambda"] for law in payload["laws"]]
    assert "u_x" in lams
    # u_x replaced by a copy of another law: dimension 3 still, u_x missing
    payload["laws"] = [law for law in payload["laws"] if law["lambda"] != "u_x"]
    payload["laws"].append(dict(payload["laws"][0]))
    bad = {"exit": 0, "stdout": json.dumps(payload)}
    good = _classify_op("wave c=u", wave_report)
    assert _failed_frac([good, _classify_op("wave c=u", bad)]) == 0.5
    problems = workloads.check_cli_report(bad, {"": "wave c=u"})
    assert any("u_x outside the span" in p for p in problems)


def test_wrong_dimension_is_counted(wave_report):
    payload = json.loads(wave_report["stdout"])
    payload["dimensions"] = {"": 4}
    bad = {"exit": 0, "stdout": json.dumps(payload)}
    assert _failed_frac([_classify_op("wave c=u", bad)]) == 1.0
    payload["laws"] = payload["laws"][:2]
    payload["dimensions"] = {"": 2}
    bad = {"exit": 0, "stdout": json.dumps(payload)}
    assert _failed_frac([_classify_op("wave c=u", bad)]) == 1.0


def test_inflated_drift_is_counted():
    drift = workloads.Drift(seed=1)
    (op,) = [op for op in drift.ops(0) if op.name == "sine-gordon harmonics"]
    conserved, controls = op.run()
    assert op.check([conserved, controls]) == []
    inflated = Op(op.name, lambda: [[d * 1e6 + 1e-5 for d in conserved], controls],
                  op.digest, op.check)
    damped = Op(op.name, lambda: [conserved, [d * 1e-6 for d in controls]],
                op.digest, op.check)
    assert _failed_frac([op, inflated, damped]) == pytest.approx(2 / 3)


def test_raising_operation_is_counted():
    def boom():
        raise ValueError("no")
    assert _failed_frac([Op("boom", boom, bool, lambda r: [])]) == 1.0


def test_speed_sampler_samples_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedSampler() as sampler:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.starts) >= 4
    busy, factor = sampler.during(sampler.starts[0], deadline)
    assert 0 < busy < 0.1 and factor > 0


def _bindings():
    """Every function-valued attribute a traced run may rebind."""
    owners = [m for name, m in sys.modules.items() if name.startswith("jetlaw")]
    owners += [workloads.JetExpression, numpy.fft]
    return {(id(o), a): v for o in owners for a, v in list(vars(o).items())
            if callable(v)}


def test_trace_binds_everywhere_and_restores():
    before = _bindings()
    kdv_ops = [op for op in workloads.Classify(seed=1).ops(0) if op.name == "wave c=u"]
    operator_ops = workloads.Operators(seed=3).ops(0)[:6]
    tracer = tracing.Tracer()
    with tracer:
        assert _bindings() != before
        raw, scaled, outcomes = run.run_pass(kdv_ops + operator_ops, tracer)
    assert _bindings() == before
    assert run.judge(outcomes) == []
    assert "jetlaw.detsys.euler_operator" in tracer.bindings["jetlaw.calculus.euler_operator"]
    assert "jetlaw.cli.build_law" in tracer.bindings["jetlaw.laws.build_law"]
    calls = tracing.span_calls(tracer)
    assert calls["jetlaw.cli.main"] == 1 and calls["jetlaw.laws.verify"] >= 3
    assert len(raw) == len(scaled) == 7 and all(t > 0 for t in scaled)
    metrics = tracing.layer_metrics(tracer, sum(raw))
    assert metrics["numcheck.fft_calls"] == 0 and metrics["expr.partial_calls"] > 0
    assert 0 < metrics["trace.coverage_frac"] <= 1


def test_trace_restores_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("inside the traced block")
    assert _bindings() == before


def test_trace_reports_a_span_that_never_fired():
    tracer = tracing.Tracer()
    metrics = tracing.layer_metrics(tracer, 1.0)
    problems = tracing.check_expectations("classify", tracer, metrics)
    assert any("jetlaw.linsolve.assemble never fired" in p for p in problems)
    metrics["linsolve.rows"] = 5
    problems = tracing.check_expectations("drift", tracer, metrics)
    assert any("linsolve.rows is 5" in p for p in problems)


def test_generator_is_deterministic():
    first = exprgen.draw_pass(7, 0)
    assert first == exprgen.draw_pass(7, 0)
    assert first != exprgen.draw_pass(8, 0)
    assert first != exprgen.draw_pass(7, 1)
    assert {k: len(v) for k, v in first.items()} == exprgen.DRAWS


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    layer_metrics = {"%s.%s" % (layer, m) for layer, info in tracing.SPEC["layers"].items()
                     for m in info["metrics"]}
    assert {m["name"] for m in bench["per_layer"]} == layer_metrics
    spans = {e["metric"] for e in tracing.SPEC["spans"]}
    assert spans <= layer_metrics


# -- the answer key against an independent Euler operator ----------------------

KEY_PDES = {
    "kdv n=1": "u_t + u*u_x + u_xxx", "kdv n=2": "u_t + u**2*u_x + u_xxx",
    "kdv n=3": "u_t + u**3*u_x + u_xxx", "kdv n=4": "u_t + u**4*u_x + u_xxx",
    "wave c=u^-2": "u_tt - u**-4*u_xx + 2*u**-5*u_x**2",
    "wave c=u": "u_tt - u**2*u_xx - u*u_x**2",
    "wave c=e^u": "u_tt - exp(2*u)*u_xx - exp(2*u)*u_x**2",
    "kg sin": "u_tx - sin(u)", "kg sinh": "u_tx - exp(u) - exp(-u)",
    "kg liouville": "u_tx - exp(u)", "kg u^2": "u_tx - u**2", "kg u^3": "u_tx - u**3",
    "kdv order 4": "u_t + u*u_x + u_xxx", "sine-gordon order 4": "u_tx - sin(u)",
    "liouville order 4": "u_tx - exp(u)",
}


@pytest.mark.parametrize("case", sorted(KEY_PDES))
def test_answer_key_members_are_multipliers(case):
    """E_u(lambda * G) == 0 for every named multiplier, by sympy alone."""
    sympy = pytest.importorskip("sympy")
    from sympy.calculus.euler import euler_equations

    t, x = sympy.symbols("t x")
    u = sympy.Function("u")(t, x)

    def field(text):
        e = answers._sympy_expr(text)
        subs = {}
        for s in e.free_symbols:
            if s.name == "u":
                subs[s] = u
            elif s.name.startswith("u_"):
                tail = s.name[2:]
                subs[s] = sympy.Derivative(u, *([t] * tail.count("t") + [x] * tail.count("x")))
        return e.subs(subs)

    key = answers.CLASSIFY if case in answers.CLASSIFY else answers.SCALE
    gee = field(KEY_PDES[case])
    for member in key[case][1]:
        for eq in euler_equations(field(member) * gee, u, [t, x]):
            assert sympy.simplify(eq.lhs) == 0, (case, member)
