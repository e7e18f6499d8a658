#!/usr/bin/env python3
"""Benchmark command: run one workload in a fresh process and print its metrics.

    python3 perfbench/run.py --workload sweep-desk --seed 1 --seconds 30 --trace 0

Workloads: sweep-desk, collect-full, certify-grid (see README.md).

With ``--trace 0`` one untraced worker process runs the workload, and the
end-to-end metrics are printed: ``setup_s`` (spawn to inputs ready),
``run_s`` (median wall time of one round of the workload's fixed work) and
``peak_rss_mib`` (the worker's peak resident memory). With ``--trace 1`` an
untraced worker runs for half the time, then a traced worker runs one
round, and the per-layer metrics are printed together with
``trace.overhead_s``, the traced round's time minus the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record goes to
``perfbench/out/<workload>/run.json`` (untraced) or
``perfbench/trace/<workload>/run.json`` (traced, beside ``spans.jsonl``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 175.0
DEFAULT_SEED = 2024
COUNT_UNITS = {"reports": "count", "wire.bytes": "bytes", "verifier.pairs": "count", "verifier.outputs": "count"}


class WorkerFailed(RuntimeError):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def spawn(args: argparse.Namespace, seconds: float, traced: bool, deadline: float) -> dict:
    """Run one worker process to its end and return its result line."""
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(int(traced)),
    ]
    command += ["--started-ns", str(time.monotonic_ns())]
    # subprocess.run kills and reaps the worker on timeout or interrupt
    proc = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["round_s"]:
        raise WorkerFailed("no round of the workload completed")
    return result


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def write_run_record(path: Path, args: argparse.Namespace, workers: list[dict]) -> None:
    record = {
        "argv": sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": workers[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "host": platform.node(),
        "load": "one worker process at a time; numpy may use up to nproc threads",
        "tuning": "none: no CPU pinning, no cache dropping, no frequency settings",
        "workers": [
            {k: w[k] for k in ("setup_s", "round_s", "peak_rss_mib", "attempted", "failed", "failures")}
            for w in workers
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            plain = spawn(args, args.seconds / 2, traced=False, deadline=deadline)
            traced = spawn(args, args.seconds, traced=True, deadline=deadline)
            workers = [plain, traced]
            metrics = {
                name: {"value": value, "unit": COUNT_UNITS.get(name, "s")}
                for name, value in traced["layers"].items()
            }
            overhead = traced["round_s"][0] - statistics.median(plain["round_s"])
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            record = BENCH / "trace" / args.workload / "run.json"
        else:
            plain = spawn(args, args.seconds, traced=False, deadline=deadline)
            workers = [plain]
            metrics = {
                "setup_s": {"value": plain["setup_s"], "unit": "s"},
                "run_s": {"value": statistics.median(plain["round_s"]), "unit": "s"},
                "peak_rss_mib": {"value": plain["peak_rss_mib"], "unit": "MiB"},
            }
            record = BENCH / "out" / args.workload / "run.json"
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    write_run_record(record, args, workers)
    print(json.dumps({
        "correct": all(w["correct"] for w in workers),
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
