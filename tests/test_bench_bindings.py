"""The benchmark's tracer wraps package functions by module and name; a
refactor that moves or renames one must fail here, not in traced runs.
Installing the tracer and restoring it leaves the package as it was, and
the names kept only for the tracer's bindings refuse to run."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

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


def _package_bindings():
    """Every module binding of the loaded package and every attribute of
    Mat2, as (owner, name) -> object."""
    import matpolyeq.documents  # noqa: F401  (the tracer imports it too)
    from matpolyeq.mat2 import Mat2

    owners = [mod for name, mod in sorted(sys.modules.items())
              if name == "matpolyeq" or name.startswith("matpolyeq.")]
    return {(owner.__name__, name): value
            for owner in [*owners, Mat2]
            for name, value in vars(owner).items()}


def test_install_wraps_and_restore_undoes():
    tracer = _tracer()
    before = _package_bindings()
    probe = tracer.Tracer()
    probe.install()
    try:
        during = _package_bindings()
        for name, module_name, attr, _ in tracer.FUNCTIONS:
            bound = getattr(importlib.import_module(module_name), attr)
            assert bound.__wrapped__ is before[(module_name, attr)], name
        assert during.keys() == before.keys()
    finally:
        probe.restore()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [k for k, value in before.items() if after[k] is not value] == []


# kept only because the tracer binds them; ROADMAP item 5 deletes them
PLACEHOLDERS = (("poly", "dense_solve"), ("verify", "minimize"),
                ("mat2", "eigen2"), ("mat2", "eval_equation"),
                ("solver", "enumerate_diagonalizable"),
                ("solver", "find_nondiagonalizable"))


@pytest.mark.parametrize("module,name", PLACEHOLDERS)
def test_placeholder_raises_naming_itself(module, name):
    placeholder = getattr(importlib.import_module(f"matpolyeq.{module}"),
                          name)
    with pytest.raises(NotImplementedError, match=rf"^{module}\.{name}$"):
        placeholder()
