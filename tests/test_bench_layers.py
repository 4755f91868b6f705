"""The benchmark's per-layer trace against the package.

``bench/layers.py`` rebinds every function it traces by name, so deleting or
renaming a traced function breaks the traced benchmark run.  Installing the
trace here and running one ``search_l2`` operation under it makes that a
test failure too.  The bench files are imported, never written.
"""

import fmtori.varieties


def test_traced_search_l2_reports_every_span(bench_modules):
    layers, workloads = bench_modules
    original_dual = fmtori.varieties.dual
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
