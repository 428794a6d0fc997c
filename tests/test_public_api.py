"""The package's public names: every ``__all__`` entry resolves and is
listed once, and ``__all__`` is exactly the public names imported into the
package, so a removed export cannot leave a stale string behind.  The
README's library example runs as written, and its table of key entry points
names exactly the exported names, each once.  The helpers kept only for the
benchmark tracer are named by no module but their own."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import matpolyeq

INIT = Path(matpolyeq.__file__)
README = Path(__file__).resolve().parents[1] / "README.md"


def _module():
    return ast.parse(INIT.read_text(encoding="utf-8"))


def _all_entries(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    raise AssertionError("no __all__ in matpolyeq/__init__.py")


def _imported_public_names(tree):
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if not (alias.asname or alias.name).startswith("_")}


def test_all_entries_resolve_once():
    entries = _all_entries(_module())
    assert [name for name, k in Counter(entries).items() if k > 1] == []
    for name in entries:
        assert hasattr(matpolyeq, name), name


def test_all_lists_exactly_the_imported_public_names():
    tree = _module()
    assert set(_all_entries(tree)) == _imported_public_names(tree)


def _readme_section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", _readme_section("Library"),
                     re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # the last line prints the partition and the count of the built equation
    assert capsys.readouterr().out.splitlines()[-1].split()[-1] == "11"


def test_readme_entry_points_are_exported():
    table = _readme_section("Library").split("Key entry points:", 1)[1]
    names = [name for row in table.splitlines() if row.startswith("| `")
             for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(names) == sorted(matpolyeq.__all__)


# kept only because the benchmark tracer binds them by module and name: no
# other module of the package may reach them
TRACER_ONLY = {"dense_solve": "poly", "minimize": "verify",
               "eval_equation": "mat2", "eigen2": "mat2",
               "enumerate_diagonalizable": "solver",
               "find_nondiagonalizable": "solver"}


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname


def test_tracer_only_helpers_stay_in_their_modules():
    for name, home in TRACER_ONLY.items():
        assert hasattr(importlib.import_module(f"matpolyeq.{home}"), name)
    for path in sorted(INIT.parent.glob("*.py")):
        names = set(_identifiers(ast.parse(path.read_text(encoding="utf-8"))))
        assert [name for name, home in TRACER_ONLY.items()
                if name in names and home != path.stem] == [], path.name
