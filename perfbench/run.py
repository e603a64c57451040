"""Benchmark entry point.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Run from the root of a jetlaw checkout; jetlaw is imported from its src/.
With --trace 0 it measures the end-to-end metrics: set-up time in fresh
interpreters, then passes over the workload's operations, each after a
garbage collection, until --seconds have gone by.  With --trace 1 it
alternates untraced and traced passes over the same inputs and reports the
per-layer metrics of layers.json; spans go to perfbench_out/.  Either way the
answers of every pass are checked at the end, and the last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Shared hosts change speed by a quarter or more over seconds to minutes, which
no run length averages away.  So a fixed pure-Python calibration loop samples
the host's speed throughout the operations (SpeedSampler) and around each
set-up probe, and the end-to-end times are scaled by REF_SECONDS over the
loop's local duration: they read as seconds on a host where the loop takes
REF_SECONDS.  The raw times are printed beside them.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20261017
SETUP_SAMPLES = 7
MIN_SAMPLES_BEYOND = 10
REF_SECONDS = 0.0008  # the calibration loop on an Intel Xeon vCPU, Python 3.11
SAMPLE_EVERY = 0.02  # seconds between two host-speed samples during operations
# The metrics of --trace 0, with their units; BENCHMARK.json lists the same.
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

# One thread: the machines this runs on have two cores and other tenants.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def import_jetlaw():
    """Put this checkout's src/ first on the path; refuse any other jetlaw."""
    src = ROOT / "src"
    if not (src / "jetlaw" / "__init__.py").is_file():
        raise SystemExit("perfbench: no jetlaw sources under %s" % src)
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT))
    import jetlaw
    import jetlaw.cli  # noqa: F401
    import jetlaw.numcheck  # noqa: F401
    if Path(jetlaw.__file__).resolve().parent != src / "jetlaw":
        raise SystemExit("perfbench: imported jetlaw from %s" % jetlaw.__file__)


def calibration_loop() -> float:
    """Duration of a fixed load of about half a millisecond, shaped like
    jetlaw's inner loops: dict updates keyed by tuples, and Fraction
    arithmetic.  It never calls jetlaw, and the garbage collector is held
    off so that the size of the heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict = {}
        q = Fraction(1, 3)
        for i in range(200):
            key = (i % 17, i % 5)
            acc[key] = acc.get(key, 0) + q * i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def setup_probe(workload: str, seed: int):
    """(seconds, speed factor): the time from starting a fresh interpreter
    until it has imported jetlaw and built the workload's inputs, and
    REF_SECONDS over the calibration loop's mean time around it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    before = [calibration_loop() for _ in range(10)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise SystemExit("perfbench: set-up probe failed")
    after = [calibration_loop() for _ in range(10)]
    return elapsed, REF_SECONDS * 20 / (sum(before) + sum(after))


class SpeedSampler:
    """Samples the host's speed on the main thread: while active, SIGALRM
    runs calibration_loop every SAMPLE_EVERY seconds and records when it
    started and how long it took."""

    def __init__(self):
        self.starts: list = []
        self.durations: list = []
        self._busy = False

    def sample(self, *_signal_args):
        if self._busy:  # a late signal must not nest inside a sample
            return
        self._busy = True
        self.starts.append(time.perf_counter())
        self.durations.append(calibration_loop())
        self._busy = False

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def during(self, start, end):
        """(time spent sampling inside [start, end), speed factor there).
        The factor uses the samples inside the interval and one on each side."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = sum(self.durations[lo:hi])
        window = self.durations[max(lo - 1, 0):hi + 1]
        return busy, REF_SECONDS * len(window) / sum(window)


def run_pass(ops, tracer=None):
    """Run every operation once.  Returns (raw, scaled, outcomes): the
    seconds each operation took; the same less the sampling done inside it,
    times the host-speed factor during it; and (op, record, error) per
    operation."""
    raws, intervals = [], []
    gc.collect()
    with SpeedSampler() as sampler:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            t = time.perf_counter()
            try:
                raws.append((op, op.run(), None))
            except (Exception, SystemExit) as err:  # an operation failing is a result
                raws.append((op, None, "%s: %s" % (type(err).__name__, err)))
            intervals.append((t, time.perf_counter()))
    raw, scaled = [], []
    for start, end in intervals:
        busy, factor = sampler.during(start, end)
        raw.append(end - start)
        scaled.append((end - start - busy) * factor)
    outcomes = [(op, op.digest(result) if err is None else None, err)
                for op, result, err in raws]
    return raw, scaled, outcomes


def judge(outcomes) -> list:
    """Problems of every failed operation; identical records are checked once."""
    verdicts = {}
    failures = []
    for op, record, error in outcomes:
        if error is not None:
            failures.append("%s: %s" % (op.name, error))
            continue
        key = (op.name, json.dumps(record, sort_keys=True))
        if key not in verdicts:
            try:
                verdicts[key] = op.check(record)
            except Exception as err:  # a malformed answer is a wrong answer
                verdicts[key] = ["check raised %s: %s" % (type(err).__name__, err)]
        if verdicts[key]:
            failures.append("%s: %s" % (op.name, "; ".join(verdicts[key])))
    return failures


def highest_percentile(samples):
    """(p, value) for the highest whole percentile with at least ten samples
    above it, or None when there are too few samples."""
    n = len(samples)
    p = 100 * (n - MIN_SAMPLES_BEYOND) // n if n else 0
    if p < 50:
        return None
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def describe(name, unit, samples, scale=1.0):
    line = "%-12s %12.4f %-3s median of n=%d" % (
        name, statistics.median(samples) * scale, unit, len(samples))
    top = highest_percentile(samples)
    if top:
        line += ", p%d %.4f %s" % (top[0], top[1] * scale, unit)
    return line


def measure(workload, seed, seconds):
    probes = [setup_probe(workload.name, seed) for _ in range(SETUP_SAMPLES)]
    raw_setups = [elapsed for elapsed, _ in probes]
    setups = [elapsed * factor for elapsed, factor in probes]
    raw_walls, walls, raw_latencies, latencies, outcomes = [], [], [], [], []
    start = time.perf_counter()
    pass_index = 0
    while True:
        raw, scaled, out = run_pass(workload.ops(pass_index))
        raw_walls.append(sum(raw))
        walls.append(sum(scaled))
        raw_latencies += raw
        latencies += scaled
        outcomes += out
        pass_index += 1
        if time.perf_counter() - start + statistics.median(raw_walls) / 2 >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = judge(outcomes)
    attempted = len(outcomes)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [
        describe("setup_s", "s", setups),
        describe("wall_s", "s", walls),
        describe("op_p50_ms", "ms", latencies, 1e3),
    ]
    if len(latencies) >= 100:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        lines.append("%-12s %12.4f ms  of n=%d" % ("op_p90_ms", p90 * 1e3, len(latencies)))
    lines += [
        "%-12s %12.4f MB" % ("peak_rss_mb", peak_rss_mb),
        "%-12s %12.4f    (%d of %d operations)" % (
            "failed_frac", len(failures) / attempted, len(failures), attempted),
        "raw, before scaling to REF_SECONDS:",
        describe("setup_s", "s", raw_setups),
        describe("wall_s", "s", raw_walls),
        describe("op_p50_ms", "ms", raw_latencies, 1e3),
        "%-12s %12.4f    (REF_SECONDS over calibration time, median)" % (
            "host_speed", statistics.median(factor for _, factor in probes)),
    ]
    return lines, {k: (v, END_TO_END[k]) for k, v in values.items()}, attempted, failures


def trace(workload, seed, seconds):
    from perfbench import tracing

    untraced, traced, per_pass, counts, outcomes = [], [], [], [], []
    start = time.perf_counter()
    pass_index = 0
    while True:
        _, scaled, out = run_pass(workload.ops(pass_index))
        untraced.append(sum(scaled))
        outcomes += out
        tracer = tracing.Tracer()
        ops = workload.ops(pass_index)
        with tracer:
            raw, scaled, out = run_pass(ops, tracer)
        traced.append(sum(scaled))
        outcomes += out
        metrics = tracing.layer_metrics(tracer, sum(raw))
        problems = tracing.check_expectations(workload.name, tracer, metrics)
        if problems:
            raise SystemExit("perfbench: trace of %s: %s" % (workload.name, "; ".join(problems)))
        per_pass.append(metrics)
        counts.append(dict(tracer.counts))
        if pass_index == 0:
            first = tracer
        pass_index += 1
        pair = statistics.median(traced) + statistics.median(untraced)
        if time.perf_counter() - start + pair / 2 >= seconds:
            break
    if workload.name != "operators" and any(c != counts[0] for c in counts):
        raise SystemExit("perfbench: counts differ between traced passes of the same inputs")
    tracing.write_spans(ROOT / "perfbench_out" / ("spans-%s-seed%d.json" % (workload.name, seed)),
                        first.spans)
    # Counts and ratios are those of pass 0; times are medians over passes.
    metrics = dict(per_pass[0])
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] = statistics.median(m[name] for m in per_pass)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    failures = judge(outcomes)
    lines = ["%-32s %s" % (name, value) for name, value in sorted(metrics.items())]
    lines += ["binding %s -> %s" % (name, ", ".join(found))
              for name, found in sorted(first.bindings.items())]
    units = {name: ("s" if name.endswith("_s") else "1" if name.endswith("_frac") else "count")
             for name in metrics}
    return lines, {k: (v, units[k]) for k, v in metrics.items()}, len(outcomes), failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("classify", "scale", "drift", "operators"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_jetlaw()
    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    run = trace if args.trace else measure
    lines, metrics, attempted, failures = run(workload, args.seed, args.seconds)
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    print("\n".join(lines))
    for problem in failures[:10]:
        print("FAILED " + problem, file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
