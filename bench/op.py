"""One operation of one workload, in a fresh interpreter.

    python3 bench/op.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is ``setup`` (import and build inputs only), ``plain`` or ``traced``.
Prints one JSON line: ``setup_s`` (import of fmtori plus input
construction), ``ref_s`` (see ``reference_s``), and unless MODE is
``setup``: ``wall_s`` of the operation, ``rss_mb`` (peak resident set after
the operation), ``ok`` and ``error`` from the output check, ``candidates``,
and for ``traced`` the per-layer metrics.  The check runs after the timer
and after tracing stops.  A failure to import or build exits non-zero; a
failure of the operation or its check is reported as ``ok: false``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fmtori  # noqa: E402
import workloads  # noqa: E402


def reference_s(reps: int = 300) -> float:
    """Seconds for a fixed pure-Python exact-arithmetic loop: Fraction
    elimination on small matrices and tuple hashing, independent of fmtori.

    The machine's speed drifts by 15% and more within minutes; this loop,
    timed in the same process as the operation, drifts with it, so run.py
    can scale every time to one reference speed.
    """
    t = time.perf_counter()
    for k in range(reps):
        a = [[Fraction((i * 7 + j * 3 + k) % 11 - 5, 1 + (i + j) % 3) for j in range(6)]
             for i in range(6)]
        hash(tuple(tuple(row) for row in a))
        for c in range(6):
            p = next((r for r in range(c, 6) if a[r][c] != 0), None)
            if p is None:
                break
            a[c], a[p] = a[p], a[c]
            inv = 1 / a[c][c]
            for r in range(c + 1, 6):
                f = a[r][c] * inv
                if f:
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return time.perf_counter() - t


def main() -> None:
    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    spans_path = sys.argv[4] if len(sys.argv) > 4 else None
    if not Path(fmtori.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"fmtori was imported from {fmtori.__file__}, not from {ROOT / 'src'}")
    inputs = workloads.BUILD[name](seed)
    out = {"setup_s": time.perf_counter() - T0}
    ref = reference_s()
    if mode == "setup":
        out["ref_s"] = ref
        print(json.dumps(out))
        return
    tracer = None
    if mode == "traced":
        import layers

        tracer = layers.install()
    result, error = None, None
    t1 = time.perf_counter()
    try:
        result = workloads.RUN[name](inputs)
    except Exception:
        error = traceback.format_exc(limit=-3)
    out["wall_s"] = time.perf_counter() - t1
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["ref_s"] = (ref + reference_s()) / 2
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = {**layers.summarize(tracer), **layers.cache_ratios()}
        out["units"] = layers.layer_metric_names()
        if spans_path:
            tracer.dump(spans_path, t1)
    ok, candidates = False, 0
    if error is None:
        try:
            ok, candidates = workloads.CHECK[name](inputs, result, workloads.expected())
        except Exception:
            error = traceback.format_exc(limit=-3)
    out.update(ok=bool(ok), error=error, candidates=candidates)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
