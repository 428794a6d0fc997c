"""Outside-in tracer for matpolyeq.

The package is not edited.  Each traced function is replaced by a wrapper at
every module binding that holds it (``solver.find_roots`` as well as
``poly.find_roots``), so calls made from inside the package are seen too.
``Mat2.dist`` is wrapped on the class, and ``Mat2.__post_init__`` gets a
counter only, since it runs for every matrix built.

Spans are kept in memory as flat arrays (key, parent, start, end) and turned
into per-function call counts and self times at the end of a pass.  A
wrapper's own bookkeeping runs outside its span and so lands in the caller's
self time; ``calibrate`` measures that cost on a no-op, and it is taken off
the parent's self time once per child span.  Not taken off: the counters
run after a call and the ``Mat2.__post_init__`` count.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def _degree(args, kwargs, result) -> int:
    return (args[0] if args else kwargs["p"]).degree


def _count(args, kwargs, result) -> int:
    return result.count or 0


def _length(args, kwargs, result) -> int:
    return len(result)


# (span name, defining module, attribute, counter): a counter (field, fn)
# adds fn(args, kwargs, result) to "<span name>.<field>" after each call
FUNCTIONS = (
    ("poly.find_roots", "matpolyeq.poly", "find_roots",
     ("degree_sum", _degree)),
    ("poly.dense_solve", "matpolyeq.poly", "dense_solve", None),
    ("mat2.poly_matrix", "matpolyeq.mat2", "poly_matrix", None),
    ("mat2.eval_equation", "matpolyeq.mat2", "eval_equation", None),
    ("mat2.rank_and_nullspace", "matpolyeq.mat2", "rank_and_nullspace", None),
    ("mat2.eigen2", "matpolyeq.mat2", "eigen2", None),
    ("solver.critical_data", "matpolyeq.solver", "critical_data", None),
    ("solver.detect_infinite", "matpolyeq.solver", "detect_infinite", None),
    ("solver.enumerate_diagonalizable", "matpolyeq.solver",
     "enumerate_diagonalizable", ("candidates", _length)),
    ("solver.find_nondiagonalizable", "matpolyeq.solver",
     "find_nondiagonalizable", None),
    ("solver.solve_equation", "matpolyeq.solver", "solve_equation",
     ("solutions", _count)),
    ("construct.construct", "matpolyeq.construct", "construct", None),
    ("construct.solve_coefficients", "matpolyeq.construct",
     "solve_coefficients", None),
    ("verify.verify_solution_set", "matpolyeq.verify", "verify_solution_set",
     ("fail", lambda args, kwargs, result: result.verdict == "fail")),
    ("verify.count_cross_check", "matpolyeq.verify", "count_cross_check",
     ("disagree", lambda args, kwargs, result: not result.agree)),
    ("verify.brute_force_scan", "matpolyeq.verify", "brute_force_scan",
     ("candidates", _length)),
    # scipy's minimize, as the verify module looks it up
    ("verify.minimize", "matpolyeq.verify", "minimize",
     ("nfev", lambda args, kwargs, result: int(result.nfev))),
    ("documents.solution_set_to_doc", "matpolyeq.documents",
     "solution_set_to_doc", None),
    ("documents.solution_set_from_doc", "matpolyeq.documents",
     "solution_set_from_doc", None),
)
METHODS = (("mat2.Mat2.dist", "dist"),)


def zero_layer() -> dict:
    """Every call count, self time and counter the tracer reports, at 0."""
    layer = {"mat2.Mat2.allocs": 0}
    traced = [(name, counter) for name, _, _, counter in FUNCTIONS]
    traced += [(name, None) for name, _ in METHODS]
    for name, counter in traced:
        layer[f"{name}.calls"] = 0
        layer[f"{name}.self_s"] = 0.0
        if counter is not None:
            layer[f"{name}.{counter[0]}"] = 0
    return layer


class Tracer:
    """Installs wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.keys: list[tuple[str, str]] = []   # (span name, binding)
        self._key_ids: dict[tuple[str, str], int] = {}
        self._reset()
        self._patches: list[tuple[object, str, object]] = []
        # seconds a span adds to its parent's self time, from calibrate()
        self.span_cost = 0.0

    def _reset(self):
        self.key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def _key_id(self, name: str, binding: str) -> int:
        k = (name, binding)
        if k not in self._key_ids:
            self._key_ids[k] = len(self.keys)
            self.keys.append(k)
        return self._key_ids[k]

    def call(self, name: str, binding: str, fn, counter, /, *args, **kwargs):
        """Run fn inside a span; exceptions are counted by class and
        re-raised."""
        idx = len(self.start)
        self.key.append(self._key_id(name, binding))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.counters[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()
        if counter is not None:
            field, count = counter
            self.counters[f"{name}.{field}"] += count(args, kwargs, result)
        return result

    def calibrate(self, calls: int = 20_000, repeats: int = 5) -> None:
        """Set span_cost: per call of a wrapped no-op, the time beyond the
        plain call that falls outside the span."""
        def noop(a, b):
            return a

        samples = []
        for _ in range(repeats):
            probe = Tracer()
            wrapped = probe._wrap("noop", "-", noop, None)
            t = perf_counter()
            for _ in range(calls):
                noop(1, 2)
            plain = perf_counter() - t
            t = perf_counter()
            for _ in range(calls):
                wrapped(1, 2)
            traced = perf_counter() - t
            _, _, spans = probe.take()
            inside = float(np.sum(spans["end"] - spans["start"]))
            samples.append((traced - plain - inside) / calls)
        self.span_cost = max(0.0, statistics.median(samples))

    def _wrap(self, name: str, binding: str, fn, counter):
        def wrapper(*args, **kwargs):
            return self.call(name, binding, fn, counter, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import matpolyeq.documents  # noqa: F401  (not imported by the package)
        from matpolyeq.mat2 import Mat2

        modules = sorted((name, mod) for name, mod in sys.modules.items()
                         if name == "matpolyeq"
                         or name.startswith("matpolyeq."))
        for name, module_name, attr, counter in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            for mod_name, mod in modules:
                binding = mod_name.rpartition(".")[2]
                for bound_as, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, bound_as,
                                    self._wrap(name, binding, original,
                                               counter))
        for name, attr in METHODS:
            self._patch(Mat2, attr,
                        self._wrap(name, "Mat2", getattr(Mat2, attr), None))

        post_init = Mat2.__post_init__

        def counted_post_init(mat):
            self.counters["mat2.Mat2.allocs"] += 1
            post_init(mat)
        self._patch(Mat2, "__post_init__", counted_post_init)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """Per-key calls and self times of the spans recorded since the last
        take, plus the raw spans; the buffers start empty again."""
        key = np.frombuffer(self.key, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        counters = self.counters
        self._reset()

        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        children = np.bincount(parent[nested], minlength=len(dur))
        self_time = dur - child - self.span_cost * children
        size = len(self.keys)
        calls = np.bincount(key, minlength=size)
        self_s = np.bincount(key, weights=self_time, minlength=size)
        summary = {k: (int(calls[i]), float(self_s[i]))
                   for i, k in enumerate(self.keys) if calls[i]}
        spans = {"key": key, "parent": parent, "start": start, "end": end}
        return summary, counters, spans
