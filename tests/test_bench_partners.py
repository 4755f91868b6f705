"""The benchmark's workloads against their recorded output.

``bench/expected.json`` holds a digest of the nine identity criteria of the
``regress`` gate, a digest of every partner and fingerprint of the
``partners`` workload, the hits of ``search_l2`` and the target groups of
``kernel_search``.  Running these workloads and their checks here makes a
change that alters any of their answers fail the test suite, not only the
benchmark.  Both files are read, never written.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_regress_workload_matches_the_recorded_output():
    workloads = _workloads()
    inputs = workloads.build_regress(0)
    report = workloads.run_regress(inputs)
    ok, candidates = workloads.check_regress(inputs, report, workloads.expected())
    assert ok
    assert candidates == 224


def test_partners_workload_matches_the_recorded_output():
    workloads = _workloads()
    p = workloads.build_partners(0)
    entries = workloads.run_partners(p)
    ok, candidates = workloads.check_partners(p, entries, workloads.expected())
    assert ok
    assert candidates == 80


def test_search_l2_workload_matches_the_recorded_output():
    workloads = _workloads()
    a = workloads.build_search_l2(0)
    hits = workloads.run_search_l2(a)
    ok, candidates = workloads.check_search_l2(a, hits, workloads.expected())
    assert ok
    assert candidates == 212


def test_kernel_search_workload_matches_the_recorded_output():
    # the searches find the first class of each target's group, so the
    # candidate count does not depend on the seed's draws
    workloads = _workloads()
    inputs = workloads.build_kernel_search(1)
    found = workloads.run_kernel_search(inputs)
    ok, candidates = workloads.check_kernel_search(inputs, found, workloads.expected())
    assert ok
    assert candidates == 1111
