"""The package's public names: ``__all__`` against what ``__init__`` binds.
That every function has a caller is the reachability guard's job
(``test_reachability.py``)."""

import ast
from pathlib import Path

import fmtori


def _names_bound_in_init() -> set[str]:
    tree = ast.parse(Path(fmtori.__file__).read_text("utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_every_exported_name_resolves_once():
    assert len(fmtori.__all__) == len(set(fmtori.__all__))
    for name in fmtori.__all__:
        assert hasattr(fmtori, name), name


def test_every_public_binding_is_exported():
    public = {
        name
        for name in _names_bound_in_init()
        if not name.startswith("_") and not isinstance(getattr(fmtori, name), type(fmtori))
    }
    assert public == set(fmtori.__all__)

