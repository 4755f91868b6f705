"""The package's public names: ``__all__`` against what ``__init__`` binds,
and a caller in src or bench for every function outside ``__all__``."""

import ast
from collections import defaultdict
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


REPO = Path(__file__).resolve().parents[1]
ROOT, BENCH = REPO / "src" / "fmtori", REPO / "bench"

# unexported functions that nothing in src or bench calls, each with the
# reason it stays
NO_CALLER_NEEDED = {
    "corpus_text": "test fixture: the text of a shipped corpus file",
    "write_corpus": "test fixture: writes the shipped corpus to a folder",
}


def _names(tree, strings: bool):
    """(name, top-level definition around it or None) for every name and
    attribute the tree reads, and with strings every string constant too:
    the bench trace binds the functions it wraps by their names."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value, owner


def test_every_unexported_function_has_a_caller():
    callers = defaultdict(set)  # name -> {(module, top-level definition)}
    functions = []
    for path in sorted(ROOT.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        for name, owner in _names(tree, strings=False):
            callers[name].add((path.stem, owner))
        functions += [(path.stem, node.name) for node in tree.body
                      if isinstance(node, ast.FunctionDef)]
    for path in sorted(BENCH.glob("*.py")):
        for name, _ in _names(ast.parse(path.read_text("utf-8")), strings=True):
            callers[name].add(("bench", None))
    # a reference inside the function's own definition does not count
    uncalled = [
        f"{module}.{fn}"
        for module, fn in functions
        if fn not in fmtori.__all__
        and fn not in NO_CALLER_NEEDED
        and not callers[fn] - {(module, fn)}
    ]
    assert uncalled == []
    assert {fn for _, fn in functions} >= set(NO_CALLER_NEEDED)
