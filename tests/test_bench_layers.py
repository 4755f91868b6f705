"""The benchmark's per-layer trace against the package.

``bench/layers.py`` rebinds every function it traces by name, so deleting or
renaming a traced function breaks the traced benchmark run.  Installing the
trace here and running one ``search_l2`` operation under it makes that a
test failure too.  The bench files are imported, never written.
"""

import sys
from pathlib import Path

import fmtori.varieties

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("layers", "tracer", "workloads")


def test_traced_search_l2_reports_every_span():
    original_dual = fmtori.varieties.dual
    saved_path = list(sys.path)
    saved_modules = {name: sys.modules.get(name) for name in BENCH_MODULES}
    saved_bytecode = sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    try:
        import layers
        import workloads

        tracer = layers.install()
        try:
            a = workloads.build_search_l2(0)
            hits = workloads.run_search_l2(a)
            summary = layers.summarize(tracer)
        finally:
            tracer.uninstall()
        ok, _ = workloads.check_search_l2(a, hits, workloads.expected())
        assert ok
        for name in layers.SPAN_NAMES:
            assert f"{name}.calls" in summary, name
        assert summary["product_audit.search_product_classes.calls"] == 1
        assert fmtori.varieties.dual is original_dual
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_bytecode
        for name, module in saved_modules.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
