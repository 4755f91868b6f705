"""Run every workload of the fmtori benchmark, untraced and then traced, and
print every metric by name and unit.

    python3 bench/run_all.py [--seed N] [--seconds S]

Each workload gets one ``run.py`` call per mode.  ``fail_ratio`` is the
share of operations whose output check failed or raised.  Exits non-zero if
a run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict] | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def show(meta: dict, result: dict) -> None:
    width = max(len(k) for k in [*result["metrics"], "unscaled reference_s"])
    for name, m in result["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<{width}}  {ratio:.6g} ratio ({result['failed']} of {result['attempted']})")
    for name, value in meta.get("unscaled", {}).items():
        print(f"  {'unscaled ' + name:<{width}}  {value:.6g} s")
    for key in ("wall_s_tail", "traced_wall_s_tail"):
        if key in meta:
            t = meta[key]
            print(f"  {key:<{width}}  p{t['percentile']:g} of {t['samples']}: {t['value']:.6g} s")
    for problem in meta["problems"]:
        print(f"  PROBLEM: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = run(workload, args.seed, args.seconds, trace)
            if out is None:
                print(f"== {workload} trace={trace}: run failed")
                ok = False
                continue
            meta, result = out
            print(f"== {workload} ({'traced' if trace else 'untraced'}) seed {meta['seed']}, "
                  f"{meta['seconds']} s, python {meta['python']}, nproc {meta['nproc']}, "
                  f"commit {meta['commit']}, source {meta['source_sha256'][:12]}, "
                  f"samples {json.dumps(meta['samples'])}")
            show(meta, result)
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
