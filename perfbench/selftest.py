"""Self-test of the benchmark; exits nonzero when a check fails.

    python3 perfbench/selftest.py

Checks, on short runs of every workload:

- the traced run counts ``poly.find_roots`` calls made through the solver
  module's own binding, and no span is recorded once the originals are back;
- the summed self times of all spans match the traced wall time to within
  the tracer's own overhead: the wrapper time taken off the self times, and
  1% of that wall time;
- two runs of random_n16 with one seed give identical document digests,
  and the warm-up document matches its committed digest;
- a forced output-check failure (a wrong expected count on sweep_n5, a
  changed committed digest on random_n16, a negative match tolerance on
  scan_n3) makes run.py exit nonzero with ``"correct": false``;
- without the package next to it, run.py exits nonzero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import BENCH_DIR, RESULTS, ROOT

WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def _run(args, root=ROOT):
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (lines[-1] if lines else "")


def _traced(workload: str, seed: int, *extra):
    code, last = _run(["--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", "1", *extra])
    path = RESULTS / f"{workload}-seed{seed}-trace1.json"
    return code, last, json.loads(path.read_text(encoding="utf-8"))


def main() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    digests = None
    for workload in WORKLOADS:
        code, last, full = _traced(workload, 1)
        worker = full["worker"]
        check(code == 0 and json.loads(last)["correct"],
              f"{workload}: traced run passes its output checks")
        check(worker["bindings"].get("poly.find_roots@solver", 0) > 0,
              f"{workload}: poly.find_roots calls seen through solver")
        check(worker["stray_spans"] == 0,
              f"{workload}: no spans once the originals are restored")
        # the traced wall time is the summed self times plus the wrapper
        # time the tracer took off them, up to the loop around the spans
        wall, self_sum = worker["traced_wall_s"], worker["self_sum_s"]
        gap = abs(wall - self_sum - worker["wrapper_s"])
        check(gap <= 0.01 * wall,
              f"{workload}: summed self times {self_sum:.4f} s match traced "
              f"wall {wall:.4f} s within the wrapper time "
              f"{worker['wrapper_s']:.4f} s and 1%")
        if workload == "random_n16":
            digests = worker["doc_digests"]

    _, _, again = _traced("random_n16", 1)
    check(digests and again["worker"]["doc_digests"] == digests,
          "random_n16: same seed, same document digests")

    for workload in WORKLOADS:
        code, last, _ = _traced(workload, 1, "--force-check-fail")
        check(code != 0 and last.startswith("{")
              and not json.loads(last)["correct"],
              f"{workload}: forced check failure exits {code}, not correct")

    bare = RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, last = _run(["--workload", WORKLOADS[0], "--seed", "1",
                       "--seconds", "1", "--trace", "0"], root=bare)
    shutil.rmtree(bare)
    check(code != 0 and not last.startswith("{"),
          f"without the package: exit {code}, no result printed")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
