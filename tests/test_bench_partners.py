"""The partner enumeration against the benchmark's recorded output.

``bench/expected.json`` holds a digest of every partner and fingerprint of
the ``partners`` workload.  Running the workload and its check here makes a
change that alters any partner fail the test suite, not only the benchmark.
Both files are read, never written.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_partners_workload_matches_the_recorded_output():
    workloads = _workloads()
    p = workloads.build_partners(0)
    entries = workloads.run_partners(p)
    ok, candidates = workloads.check_partners(p, entries, workloads.expected())
    assert ok
    assert candidates == 80
