"""The benchmark's tracer wraps package functions by module and name; a
refactor that moves or renames one must fail here, not in traced runs."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracer = _tracer()
    for name, module_name, attr, _ in tracer.FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), name


def test_traced_methods_exist():
    from matpolyeq.mat2 import Mat2

    tracer = _tracer()
    for name, attr in tracer.METHODS:
        assert callable(getattr(Mat2, attr, None)), name
    assert callable(Mat2.__post_init__)


def test_find_roots_takes_p_first():
    # the tracer's degree counter reads the polynomial as args[0] or p=
    from matpolyeq.poly import find_roots

    assert next(iter(inspect.signature(find_roots).parameters)) == "p"
