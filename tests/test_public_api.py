"""The package's public names: every ``__all__`` entry resolves and is
listed once, and ``__all__`` is exactly the public names imported into the
package, so a removed export cannot leave a stale string behind."""

import ast
from collections import Counter
from pathlib import Path

import matpolyeq

INIT = Path(matpolyeq.__file__)


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
