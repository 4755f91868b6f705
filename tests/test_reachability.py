"""Every function in src is entered by an entry point, or exempt with a reason.

The entry points are the release gate (``acceptance.run_all``), the build,
run and check of the four benchmark workloads, and the CLI commands of
``test_trust.COMMANDS`` on a copy of the installed corpus files.  They run in-process under
``sys.setprofile``, and every function, method, property and cached body
defined in ``src/fmtori`` must be entered, or be named in ``EXEMPT`` with the
reason it stays.  A function the entry points enter has a caller, so this
covers the static caller test it replaced, and it sees methods as well.

An exemption goes stale when its function is deleted or starts being
entered; either fails the guard, so the list cannot outlive its reasons.
"""

import sys
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

from conftest import copy_corpus

import fmtori
from fmtori.acceptance import run_all
from fmtori.cli import main
from test_trust import COMMANDS

SRC = Path(fmtori.__file__).resolve().parent

# function -> the reason no entry point has to enter it
EXEMPT = {
    "lattices.Lattice.__setattr__": "immutability guard",
    "matrices.Mat.__setattr__": "immutability guard",
    "records.Record.__setattr__": "immutability guard",
    "records.Record.__delattr__": "immutability guard",
    "records.Record.__init_subclass__": "runs at import, before any entry point",
    "lattices.Lattice.__repr__": "protocol dunder, for debugging",
    "matrices.Mat.__repr__": "protocol dunder, for debugging",
    "records.Record.__repr__": "protocol dunder, for debugging",
    "lattices.Lattice.__hash__": "protocol dunder, pairs with __eq__",
    "records.Record.__hash__": "protocol dunder, pairs with __eq__",
    "product_audit.ProductNSClass.__eq__": "protocol dunder, equality of product classes",
    "product_audit.ProductNSClass.__hash__": "protocol dunder, pairs with __eq__",
    "varieties._excerpt": "failure path: shortens a bad input in an error line",
    "acceptance._killed_combinations": "failure path: lists the killed classes of a failing case",
    "lattices.saturate": "traced by the benchmark (bench/layers.py)",
    "lattices.Lattice.spans_subspace_of": "the precondition check of saturate",
}

# the kinds of reason an exemption may give: public API that no entry point
# enters is deleted, moved into tests or given an entry point, not exempted
ALLOWED_REASONS = (
    "immutability guard",
    "protocol dunder",
    "failure path",
    "runs at import",
    "traced by the benchmark",
    "the precondition check of saturate",
)

# exempt only while bench/layers.py traces saturate: once the trace drops
# it, nothing else needs either function and both have to go
WHILE_SATURATE_IS_TRACED = ("lattices.saturate", "lattices.Lattice.spans_subspace_of")


def test_every_exemption_gives_an_allowed_kind_of_reason():
    odd = {name: why for name, why in EXEMPT.items() if not why.startswith(ALLOWED_REASONS)}
    assert not odd, f"exempt for a reason of no allowed kind: {odd}"


def _src_functions() -> set[str]:
    """module.qualname of every def in src/fmtori/*.py, at any depth."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text("utf-8"), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, CodeType):
                    stack.append(const)
                    # function bodies, not class bodies, lambdas or comprehensions
                    if const.co_flags & CO_OPTIMIZED and not const.co_name.startswith("<"):
                        names.add(f"{path.stem}.{const.co_qualname}")
    return names


def _entered(run) -> set[str]:
    """module.qualname of every src function that run() enters."""
    codes = set()

    def probe(frame, event, arg):
        codes.add(frame.f_code)

    sys.setprofile(probe)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {
        f"{Path(c.co_filename).stem}.{c.co_qualname}"
        for c in codes
        if Path(c.co_filename).parent == SRC
    }


def test_every_src_function_is_entered_or_exempt(bench_modules, cold_caches, tmp_path, capsys):
    # cold caches, so that a cached body is entered whatever ran before
    layers, workloads = bench_modules
    copy_corpus(tmp_path)

    def run():
        assert run_all()["ok"]
        for name in workloads.BUILD:
            inputs = workloads.BUILD[name](0)
            ok, _ = workloads.CHECK[name](inputs, workloads.RUN[name](inputs), workloads.expected())
            assert ok, name
        for command in COMMANDS:
            argv = [str(tmp_path / a) if a.endswith(".json") else a for a in command]
            assert main([*argv, "--json", str(tmp_path / "report.json")]) == 0, command

    entered = _entered(run)
    capsys.readouterr()
    exempt = set(EXEMPT)
    if "saturate" not in {attr for _, _, attr, _ in layers.TRACED}:
        exempt -= set(WHILE_SATURATE_IS_TRACED)
    functions = _src_functions()
    never = sorted(functions - entered - exempt)
    assert not never, f"never entered, so delete or exempt: {never}"
    gone = sorted(set(EXEMPT) - functions)
    assert not gone, f"exempt but no longer defined: {gone}"
    live = sorted(set(EXEMPT) & entered)
    assert not live, f"exempt but entered: {live}"
