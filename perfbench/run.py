"""Benchmark of matpolyeq: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_n5 --seed 1 --seconds 20 --trace 0

The workloads, metrics, units and bounds are listed in BENCHMARK.json.  The
package is built from ``src/`` and driven only through its public functions,
by worker.py in a process of its own, with BLAS pinned to one thread.

- ``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
  over SETUP_RUNS fresh processes, the measured one included.  Times are
  CPU times scaled to a reference host speed (see worker.py), so that the
  host's own changes of speed do not show as the program's; the unscaled
  wall times are printed and recorded next to them.
- ``--trace 1`` prints the per-layer metrics of a traced run (tracer.py).

Every operation's output is checked (workloads.py).  An operation fails when
it raises, when the program's own verifier rejects it, or when its output is
wrong; failures are counted by reason.  ``correct`` is false when an output
is wrong although the program reported no problem with it, when a document
differs from its committed digest, or when any operation of sweep_n5 or
scan_n3 (which have no known failures) fails, the warm-up included; the
process then exits with 1 after printing the result.  A full record with
the run's environment goes to perfbench/results/.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import monotonic

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
SETUP_RUNS = 3
# a run must end within this many seconds of its start
DEADLINE_S = 170
BLAS_PIN = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _run_worker(args: list[str], deadline: float) -> dict:
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran past the deadline") from exc
    if done.returncode != 0:
        raise BenchError(f"worker exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no record")
    return json.loads(lines[-1])


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _environment(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "blas_threads": BLAS_PIN,
        "git_commit": _git_commit(),
    }


def _select(values: dict, declared: list, what: str) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"{what} metrics missing: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--force-check-fail", action="store_true",
                        help="perturb one expected value, to show that a "
                             "failed output check makes the run exit nonzero")
    args = parser.parse_args(argv)

    deadline = monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.force_check_fail:
        common.append("--force-check-fail")
    env = _environment(args.seed)
    try:
        setup = [_run_worker(common + ["--setup-only"], deadline)["setup_s"]
                 for _ in range(SETUP_RUNS - 1)]
        traced = (["--trace", "1", "--spans-out",
                   str(RESULTS / f"{stem}-spans.npz")] if args.trace else [])
        record = _run_worker(common + traced, deadline)
        setup.append(record["setup_s"])
        if args.trace:
            metrics = _select(record["layer"], spec["per_layer"], "per-layer")
        else:
            values = dict(record["metrics"], setup_s=statistics.median(setup))
            metrics = _select(values, spec["end_to_end"], "end-to-end")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    correct = (record["wrong"] == 0 and record["warmup"]["wrong"] == 0
               and record["attempted"] >= 1)
    result = {"correct": correct, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    full = {"args": vars(args), "environment": env, "setup_samples_s": setup,
            "worker": record, "result": result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n",
                                          encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{record['attempted']} operations, {record['failed']} failed "
          f"(fail_share {record['failed'] / record['attempted']:.4g})")
    for reason, count in sorted(record["fail_reasons"].items()):
        print(f"  failed {count}x: {reason} "
              f"(first: {record['fail_examples'][reason]})")
    for reason, example in record["warmup"]["fail_examples"].items():
        print(f"  warm-up failed: {reason} ({example})")
    for name, m in metrics.items():
        note = (f"  (p{record['op_tail_pct']})"
                if name == "op_tail_ms" else "")
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    if not args.trace:
        print("  unscaled: " + ", ".join(
            f"{name} {value:.6g}" for name, value
            in record["wall_metrics"].items())
            + f", setup wall {record['setup_wall_s']:.4g} s, wall "
            f"{record['wall_s']:.4g} s, median probe "
            f"{statistics.median(record['probe_ms']):.4g} ms")
    if args.trace:
        top = sorted((v, k) for k, v in record["layer"].items()
                     if k.endswith(".self_s") and not k.startswith("bench."))
        print("largest self times: " + ", ".join(
            f"{k[:-len('.self_s')]} {v:.3g} s" for v, k in top[:-4:-1]))
    print(f"environment: {json.dumps(env)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
