"""Run one workload of the fmtori benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs operations of the workload, each in a fresh interpreter (``op.py``),
one after another, while the next one is expected to end within S seconds.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced operations
and reports the per-layer metrics, the tracing overhead, and a determinism
check: every traced operation must make exactly the same calls.  Every
operation's output is checked.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it (``meta``) records the Python version,
``nproc``, the commit, the seed, the sample counts, the tail of ``wall_s``
and the unscaled times.  Times are scaled to one reference machine speed
(see ``scaled``).  Exits non-zero, without a result, if an operation cannot
run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "fmtori"
SPANS_DIR = HERE / "out"

WORKLOADS = ("regress", "partners", "search_l2", "kernel_search")
MIN_PLAIN_OPS = 3
MIN_TRACED_OPS = 2
MIN_SETUP_SAMPLES = 15
# a run must end within 180 s, whatever an operation does
DEADLINE_S = 170
# times are reported at the machine speed where op.reference_s() takes this
REFERENCE_S = 0.15


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()

    def op(self, mode: str, spans: Path | None = None) -> dict:
        cmd = [sys.executable, "-E", "-s", str(HERE / "op.py"), self.workload, str(self.seed), mode]
        if spans is not None:
            cmd.append(str(spans))
        timeout = DEADLINE_S - (time.perf_counter() - self.start)
        if timeout <= 0:
            raise BenchError("out of time before the next operation")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} operation of {self.workload} ran out of time") from None
        if proc.returncode != 0:
            raise BenchError(
                f"{mode} operation of {self.workload} exited with {proc.returncode}:\n"
                + proc.stderr[-4000:]
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it; with fewer
    than 20 samples none lies above the median, so the maximum is given."""
    v = sorted(values)
    k = len(v) - 11 if len(v) >= 20 else len(v) - 1
    return {"percentile": round(100 * (k + 1) / len(v), 1), "value": v[k], "samples": len(v)}


def commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def scaled(op: dict, key: str) -> float:
    """``op[key]`` at the reference speed: the operation's process timed the
    reference loop, which slows and speeds up with the machine."""
    return op[key] * REFERENCE_S / op["ref_s"]


def repeat(runner: Runner, seconds: int, minimum: int, step) -> None:
    """Call ``step`` at least ``minimum`` times, and again while the next call,
    at the mean duration so far, would end within ``seconds`` of the start."""
    loop_start = time.perf_counter()
    n = 0
    while True:
        step()
        n += 1
        now = time.perf_counter()
        if n >= minimum and now - runner.start + (now - loop_start) / n > seconds:
            return


def run_plain(runner: Runner, seconds: int) -> tuple[dict, dict, list[dict], list[str]]:
    ops = []
    repeat(runner, seconds, MIN_PLAIN_OPS, lambda: ops.append(runner.op("plain")))
    setups = list(ops)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.op("setup"))
    wall = [scaled(o, "wall_s") for o in ops]
    metrics = {
        "wall_s": (statistics.median(wall), "s"),
        "setup_s": (statistics.median(scaled(o, "setup_s") for o in setups), "s"),
        "peak_rss_mb": (statistics.median(o["rss_mb"] for o in ops), "MB"),
        "candidates_per_s": (statistics.median(o["candidates"] / w for o, w in zip(ops, wall)), "1/s"),
    }
    meta = {
        "samples": {"operations": len(ops), "setup": len(setups)},
        "wall_s_tail": tail(wall),
        "candidates": ops[0]["candidates"],
        "unscaled": {
            "wall_s": statistics.median(o["wall_s"] for o in ops),
            "setup_s": statistics.median(o["setup_s"] for o in setups),
            "reference_s": statistics.median(o["ref_s"] for o in setups),
        },
    }
    return metrics, meta, ops, []


def run_traced(runner: Runner, seconds: int) -> tuple[dict, dict, list[dict], list[str]]:
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"{runner.workload}.spans.json.gz"
    plain, traced = [], []

    def pair():
        plain.append(runner.op("plain"))
        traced.append(runner.op("traced", spans if not traced else None))

    repeat(runner, seconds, MIN_TRACED_OPS, pair)
    problems = []
    units = traced[0]["units"]
    metrics = {}
    for name, unit in units.items():
        if name.endswith(".calls"):
            metrics[name] = (traced[0]["layers"][name], unit)
        elif name != "trace.overhead":
            metrics[name] = (statistics.median(t["layers"][name] for t in traced), unit)
    metrics["trace.overhead"] = (
        statistics.median(scaled(t, "wall_s") for t in traced)
        / statistics.median(scaled(p, "wall_s") for p in plain),
        units["trace.overhead"],
    )
    for t in traced[1:]:
        differ = sorted(k for k in units if k.endswith(".calls") and t["layers"][k] != traced[0]["layers"][k])
        if differ:
            problems.append("determinism bug: call counts differ between traced operations: "
                            + ", ".join(differ))
    meta = {"samples": {"operations": len(plain), "traced_operations": len(traced)},
            "wall_s_tail": tail([scaled(p, "wall_s") for p in plain]),
            "traced_wall_s_tail": tail([scaled(t, "wall_s") for t in traced]),
            "spans": spans.relative_to(ROOT).as_posix()}
    return metrics, meta, plain + traced, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"no fmtori sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that subprocess.run kills the running operation
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(args.workload, args.seed)
    try:
        runner.op("setup")  # warm-up: compiles bytecode and fills the file cache
        run = run_traced if args.trace else run_plain
        metrics, meta, ops, problems = run(runner, args.seconds)
    except BenchError as e:
        print(e, file=sys.stderr)
        return 1
    failed = [o for o in ops if not o["ok"]]
    problems = [o["error"] or "output check failed" for o in failed] + problems
    for p in problems:
        print(p, file=sys.stderr)
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                python=platform.python_version(), nproc=os.cpu_count(), commit=commit(),
                source_sha256=source_sha256(), problems=problems)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
