"""What importing the package loads: every ``fmtori`` command is a fresh
process, so the start-up imports are paid by every answer.

Each check runs in a new ``python -I -S`` interpreter (no site hooks, no
environment), with the package's source directory on ``sys.path``.
"""

import json
import subprocess
import sys
from pathlib import Path

import fmtori

SRC = str(Path(fmtori.__file__).resolve().parent.parent)
HEAVY = ("dataclasses", "inspect", "typing", "concurrent.futures", "argparse", "logging")


def _fresh(code: str):
    prelude = f"import sys, json\nsys.path.insert(0, {SRC!r})\n"
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", prelude + code],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded(names) -> str:
    return f"[m for m in {list(names)!r} if m in sys.modules]"


def test_import_fmtori_loads_none_of_the_heavy_modules():
    assert _fresh(f"import fmtori\nprint(json.dumps({_loaded(HEAVY)}))") == []


def test_import_cli_loads_argparse_and_no_resource_machinery():
    watched = HEAVY + (
        "importlib.resources", "pathlib", "fmtori.acceptance", "fmtori.oracles", "random"
    )
    assert _fresh(f"import fmtori.cli\nprint(json.dumps({_loaded(watched)}))") == ["argparse"]


def test_the_thread_pool_is_imported_on_first_threaded_use():
    code = (
        "import fmtori.parallel\n"
        "before = 'concurrent.futures' in sys.modules\n"
        "single = fmtori.parallel.pmap(abs, [-3, 1, -2])\n"
        "between = 'concurrent.futures' in sys.modules\n"
        "out = fmtori.parallel.pmap(abs, [-3, 1, -2], threads=2)\n"
        "print(json.dumps([before, single, between, out, 'concurrent.futures' in sys.modules]))"
    )
    assert _fresh(code) == [False, [3, 1, 2], False, [3, 1, 2], True]


def test_no_search_imports_the_thread_pool_module():
    code = (
        "import fmtori.cli\n"
        "from fmtori import corpus, partners, product_audit, varieties\n"
        "a = corpus.square_lattice_curve()\n"
        "product_audit.search_kernel_class(a, 2, varieties.torsion_subgroup(a, 2), 3)\n"
        "partners.enumerate_partners(a, 1, 2)\n"
        "print(json.dumps('fmtori.parallel' in sys.modules))"
    )
    assert _fresh(code) is False
