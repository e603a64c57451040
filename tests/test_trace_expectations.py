"""The traced benchmark run's own checks, on one pass of each workload.

`perfbench/run.py --trace 1` exits 1 when a span of layers.json cannot be
bound or does not fire on its workload, when a layer predicted to read zero
does not, when two traced passes over the same inputs count differently
(state kept across calls), or when an answer is wrong.  These tests make the
same checks on pass 0 of every workload, so a change that breaks the traced
run fails here too."""

import pytest

from perfbench import run, tracing
from perfbench.workloads import WORKLOADS

SEED = 1


def _traced_pass(workload):
    tracer = tracing.Tracer()
    with tracer:
        raw, _, outcomes = run.run_pass(workload.ops(0), tracer)
    return tracer, tracing.layer_metrics(tracer, sum(raw)), outcomes


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_meets_the_layer_map(name):
    workload = WORKLOADS[name](SEED)
    tracer, metrics, outcomes = _traced_pass(workload)
    assert tracing.check_expectations(name, tracer, metrics) == []
    if name != "operators":  # operators draws fresh expressions every pass
        assert _traced_pass(workload)[0].counts == tracer.counts
    assert run.judge(outcomes) == []
