"""Every function in src is entered by an entry point, and every record
field is read by one, or it is exempt with a reason.

The entry points are the release gate (``acceptance.run_all``), the build,
run and check of the four benchmark workloads, and the CLI commands of
``test_trust.COMMANDS`` on a copy of the installed corpus files.  They run
in-process, once, under two probes:

* ``sys.setprofile`` sees every function, method, property and cached body
  defined in ``src/fmtori`` that is entered, and each must be, or be named
  in ``EXEMPT`` with the reason it stays.  A function the entry points
  enter has a caller, so this covers the static caller test it replaced,
  and it sees methods as well.
* ``Record.__getattribute__``, replaced for the run, sees every read of a
  field of a ``Record`` subclass from code outside ``records.py`` (whose
  equality, hash and repr read every field, so they do not count).  Each
  field defined in ``src/fmtori`` must be read, or be named in
  ``EXEMPT_FIELDS``.  A field nothing reads only stores a copy of data
  kept elsewhere, or data nobody wants.

An exemption goes stale when its function or field is deleted or starts
being entered or read; either fails the guard, so the lists cannot outlive
their reasons.
"""

import importlib
import io
import sys
from contextlib import redirect_stdout
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

import pytest
from conftest import bench_imported, clear_caches, copy_corpus

import fmtori
from fmtori.acceptance import run_all
from fmtori.cli import main
from fmtori.records import Record
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
    "varieties._excerpt": "failure path: shortens a bad input in an error line",
    "acceptance._killed_combinations": "failure path: lists the killed classes of a failing case",
    "lattices.saturate": "traced by the benchmark (bench/layers.py)",
    "parallel.pmap": "traced by the benchmark (bench/layers.py)",
    "product_audit._dual_product_variety": "traced by the benchmark (bench/layers.py CACHES)",
    "lattices.Lattice.spans_subspace_of": "the precondition check of saturate",
}

# module.class.field -> the reason no entry point has to read it
EXEMPT_FIELDS: dict[str, str] = {}

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
    exemptions = {**EXEMPT, **EXEMPT_FIELDS}
    odd = {name: why for name, why in exemptions.items() if not why.startswith(ALLOWED_REASONS)}
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


def _record_fields() -> set[str]:
    """module.class.field of every field of a Record subclass in src/fmtori."""
    for path in SRC.glob("*.py"):
        if path.stem not in ("__init__", "__main__"):
            importlib.import_module(f"fmtori.{path.stem}")
    names, stack = set(), [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            module, _, stem = cls.__module__.partition(".")
            if module == "fmtori":
                names.update(f"{stem}.{cls.__qualname__}.{f}" for f in cls._fields)
    return names


def _probe(run) -> tuple[set[str], set[str]]:
    """(module.qualname of every src function that run() enters,
    module.class.field of every record field it reads outside records.py)."""
    codes, reads = set(), set()
    records = Record.__init__.__code__.co_filename
    get = object.__getattribute__

    def profile(frame, event, arg):
        codes.add(frame.f_code)

    def read(self, name):
        cls = type(self)
        if name in cls._fields and sys._getframe(1).f_code.co_filename != records:
            reads.add((cls, name))
        return get(self, name)

    Record.__getattribute__ = read
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        del Record.__getattribute__
    entered = {
        f"{Path(c.co_filename).stem}.{c.co_qualname}"
        for c in codes
        if Path(c.co_filename).parent == SRC
    }
    return entered, {f"{c.__module__.partition('.')[2]}.{c.__qualname__}.{f}" for c, f in reads}


@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    """(entered, read) of one run of every entry point, which both guards
    share.  The caches start cold, so that a cached body is entered
    whatever ran before."""
    corpus_dir = copy_corpus(tmp_path_factory.mktemp("corpus"))

    def run():
        assert run_all()["ok"]
        for name in workloads.BUILD:
            inputs = workloads.BUILD[name](0)
            ok, _ = workloads.CHECK[name](inputs, workloads.RUN[name](inputs), workloads.expected())
            assert ok, name
        for command in COMMANDS:
            argv = [str(corpus_dir / a) if a.endswith(".json") else a for a in command]
            assert main([*argv, "--json", str(corpus_dir / "report.json")]) == 0, command

    clear_caches()
    with bench_imported() as (_, workloads), redirect_stdout(io.StringIO()):
        return _probe(run)


def test_every_src_function_is_entered_or_exempt(bench_modules, probed):
    layers, _ = bench_modules
    entered, _ = probed
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


def test_every_record_field_is_read_or_exempt(probed):
    _, read = probed
    fields = _record_fields()
    never = sorted(fields - read - set(EXEMPT_FIELDS))
    assert not never, f"never read, so delete or exempt: {never}"
    gone = sorted(set(EXEMPT_FIELDS) - fields)
    assert not gone, f"exempt but no longer a field: {gone}"
    live = sorted(set(EXEMPT_FIELDS) & read)
    assert not live, f"exempt but read: {live}"
