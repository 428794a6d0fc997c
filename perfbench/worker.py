"""One measured run of one workload, in a process of its own.

Started by run.py, which pins the BLAS threads and puts the package on the
path.  The last line of standard output is a JSON record for run.py.

Set-up is timed from before the package is imported until one untimed
warm-up operation has finished.  With ``--setup-only`` the process stops
there.  Otherwise it measures:

- untraced: a fixed number of operations, one at a time (closed loop):
  ``--seconds`` times the workload's nominal rate, and at least enough for
  the workload's tail percentile to have ten operations beyond it, rounded
  up to whole passes;
- traced: the workload's fixed trace pass, repeated a fixed number of times
  (half of ``--seconds`` at the nominal rate), then the same passes
  untraced.  Per-layer values are per pass, so call counts repeat exactly
  for a seed.

The amount of work depends only on the seed and ``--seconds``, so the
operations attempted and failed repeat exactly for a seed.

Times are CPU times of the process, scaled to a reference host speed.  On a
shared host the same code runs up to ~50% slower in phases of seconds to
minutes, in CPU time as well as in wall time.  The host's speed is the
thread CPU time of fixed work of the benchmark's own (``Probe``), taken
before the first operation, after each one that ends PROBE_EVERY_S or more
after the last probe, after the last one, and after set-up; an
operation's time is multiplied by REF_PROBE_S over the mean of the probes
just before and after it.  No change to the package can move the probe.
Unscaled wall and CPU times go into the record as well.  The probe's 9 MB
table counts into peak_rss_mb.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from collections import Counter
from itertools import chain, islice
from pathlib import Path
from time import perf_counter, process_time, thread_time

import numpy as np

# raised exceptions the tracer counts, under the names the benchmark uses
_RAISED = {
    "poly.find_roots.nonconvergence": "poly.find_roots.raised.NonConvergence",
    "poly.dense_solve.singular": "poly.dense_solve.raised.SingularSystem",
}


class Tally:
    """Outcomes of the operations of a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.ok = 0
        # failures that make the run incorrect: wrong outputs the program
        # did not flag, and on workloads without expected failures, any
        self.wrong = 0
        self.doc_bytes = 0
        self.reasons: Counter = Counter()
        self.examples: dict[str, str] = {}

    def run(self, op) -> None:
        try:
            out = self.workload.run(op)
            reason, silent = out.reason, out.silent
            self.doc_bytes += out.doc_bytes
        except Exception as exc:  # a failing operation must not end the run
            reason, silent = type(exc).__name__, False
        self.attempted += 1
        if reason is None:
            self.ok += 1
        else:
            self.reasons[reason] += 1
            self.wrong += silent or not self.workload.FAILURES_EXPECTED
            self.examples.setdefault(reason, self.workload.label(op))

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "ok": self.ok,
                "failed": self.attempted - self.ok, "wrong": self.wrong,
                "fail_reasons": dict(self.reasons),
                "fail_examples": self.examples}


# seconds between probes
PROBE_EVERY_S = 0.25
# the probe time of the reference host
REF_PROBE_S = 4e-3


class _Point:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def dist(self, o) -> float:
        return max(abs(self.a - o.a), abs(self.b - o.b),
                   abs(self.c - o.c), abs(self.d - o.d))


class Probe:
    """The host's speed: thread CPU time of fixed work of the kinds the
    workloads do, small objects with complex fields compared pairwise and
    random reads from an 8 MB table (so that contention for the shared
    caches shows as well as a slower core)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = rng.random(1 << 20)
        self._index = rng.integers(0, len(self._table), 100_000)

    def __call__(self) -> float:
        t = thread_time()
        points = [_Point(complex(i, 1), complex(1, i), complex(i, i),
                         complex(-i, 2)) for i in range(60)]
        max(p.dist(q) for p in points for q in points)
        self._table[self._index].sum()
        return thread_time() - t


def run_ops(workload, seconds: float) -> int:
    """Operations in an untraced run: whole passes, so that every seed runs
    the same mix of inputs."""
    ops = max(math.ceil(1000 / (100 - workload.TAIL_PCT)),
              math.ceil(seconds * workload.OPS_PER_S))
    return math.ceil(ops / workload.pass_ops) * workload.pass_ops


def measure(workload, seconds: float, probe: Probe) -> dict:
    tally = Tally(workload)
    # per operation: wall and CPU time, and how many probes preceded it
    wall_times, cpu_times, interval, probes = [], [], [], [probe()]
    pct = workload.TAIL_PCT
    ops = islice(chain.from_iterable(workload.passes()),
                 run_ops(workload, seconds))
    start = last_probe = perf_counter()
    for op in ops:
        t, c = perf_counter(), process_time()
        tally.run(op)
        cpu_times.append(process_time() - c)
        wall_times.append(perf_counter() - t)
        interval.append(len(probes))
        if perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = perf_counter()
    wall = perf_counter() - start
    probes.append(probe())
    # an operation ran at the mean host speed of the probes around it
    scaled = [c * 2 * REF_PROBE_S / (probes[k - 1] + probes[k])
              for c, k in zip(cpu_times, interval)]
    metrics = {
        "ok_per_s": tally.ok / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_tail_ms": float(np.percentile(scaled, pct)) * 1e3,
        "ok_share": tally.ok / len(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    unscaled = {
        "ok_per_s": tally.ok / wall,
        "op_p50_ms": statistics.median(wall_times) * 1e3,
        "op_tail_ms": float(np.percentile(wall_times, pct)) * 1e3,
        "cpu_op_p50_ms": statistics.median(cpu_times) * 1e3,
    }
    return {"metrics": metrics, "wall_metrics": unscaled, "wall_s": wall,
            "cpu_s": sum(cpu_times), "probe_ms": [p * 1e3 for p in probes],
            "op_ms": [t * 1e3 for t in scaled],
            "op_wall_ms": [t * 1e3 for t in wall_times],
            "op_tail_pct": pct, **tally.to_dict()}


def trace(workload, seconds: float, spans_out: str) -> dict:
    from tracer import Tracer, zero_layer

    ops = workload.trace_pass()
    tally = Tally(workload)
    tracer = Tracer()
    tracer.calibrate()
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counters: Counter = Counter()
    traced_wall = 0.0
    nested = 0   # spans inside another span
    passes = math.ceil(seconds * workload.OPS_PER_S / (2 * len(ops)))
    tracer.install()
    try:
        for _ in range(passes):
            t = perf_counter()
            for op in ops:
                tracer.call("bench.op", "bench", tally.run, None, op)
            traced_wall += perf_counter() - t
            summary, pass_counters, spans = tracer.take()
            for key, (c, s) in summary.items():
                calls[key] += c
                self_s[key] += s
            counters.update(pass_counters)
            nested += int(np.count_nonzero(spans["parent"] >= 0))
    finally:
        tracer.restore()
    doc_bytes = tally.doc_bytes
    t = perf_counter()
    for _ in range(passes):
        for op in ops:
            tally.run(op)
    untraced_wall = perf_counter() - t
    # spans recorded after restore() would mean a wrapper was left in place
    stray_spans = len(tracer.start)

    np.savez_compressed(spans_out, names=np.array(
        [f"{name}@{binding}" for name, binding in tracer.keys]), **spans)

    layer = Counter(zero_layer())
    for (name, binding), c in calls.items():
        layer[f"{name}.calls"] += c / passes
        layer[f"{name}.self_s"] += self_s[name, binding] / passes
    for name, c in counters.items():
        layer[name] += c / passes
    for name, raised in _RAISED.items():
        layer[name] = counters[raised] / passes
    layer["solver.critical_data.per_op"] = \
        layer["solver.critical_data.calls"] / len(ops)
    candidates = layer["solver.enumerate_diagonalizable.candidates"]
    layer["solver.keep_ratio"] = (layer["solver.solve_equation.solutions"]
                                  / candidates if candidates else 0.0)
    layer["documents.bytes"] = doc_bytes / passes
    layer["trace.overhead_s"] = (traced_wall - untraced_wall) / passes

    return {
        "layer": dict(layer), "passes": passes, "pass_ops": len(ops),
        "traced_wall_s": traced_wall / passes,
        "untraced_wall_s": untraced_wall / passes,
        "self_sum_s": sum(self_s.values()) / passes,
        "stray_spans": stray_spans,
        "span_cost_s": tracer.span_cost,
        # wrapper time taken off the parents' self times, per pass
        "wrapper_s": tracer.span_cost * nested / passes,
        "bindings": {f"{name}@{binding}": c / passes
                     for (name, binding), c in calls.items()},
        **tally.to_dict(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--force-check-fail", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    start, start_cpu = perf_counter(), process_time()
    import matpolyeq
    src = Path(__file__).resolve().parents[1] / "src"
    if Path(matpolyeq.__file__).resolve().parent.parent != src:
        sys.exit(f"matpolyeq was imported from {matpolyeq.__file__}, "
                 f"not from {src}")
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, args.force_check_fail)
    warmup = Tally(workload)
    warmup.run(workload.warmup_op())
    setup_wall = perf_counter() - start
    setup_cpu = process_time() - start_cpu
    probe = Probe()
    host = statistics.median(probe() for _ in range(5))
    record = {"setup_s": setup_cpu * REF_PROBE_S / host,
              "setup_wall_s": setup_wall, "setup_cpu_s": setup_cpu,
              "setup_probe_ms": host * 1e3, "warmup": warmup.to_dict()}

    if not args.setup_only:
        if args.trace:
            record.update(trace(workload, args.seconds, args.spans_out))
        else:
            record.update(measure(workload, args.seconds, probe))
        if hasattr(workload, "digests"):
            record["doc_digests"] = {f"{seed}:{i}": d for (seed, i), d
                                     in sorted(workload.digests.items())}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
