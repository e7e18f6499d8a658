"""One workload in one process: set up, run rounds, check, print a JSON line.

Started by ``run.py`` with ``--started-ns``, the launcher's monotonic clock
just before it spawned this process, so that ``setup_s`` covers interpreter
start, the numpy and ``fldp`` imports and input generation. Untraced, it
runs whole rounds until ``--seconds`` would be exceeded (at least one);
traced, it runs the set-up and exactly one round under spans and writes
them out. The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started-ns", type=int, required=True)
    return parser.parse_args(argv)


def import_fldp():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import fldp

    source = Path(fldp.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"fldp was imported from {source}, not from {ROOT / 'src'}")
    return fldp


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy as np

    import_fldp()
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    out_dir = BENCH / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = tracing.Tracer() if args.trace else None
    with contextlib.ExitStack() as stack:
        if tracer is None:
            api = types.SimpleNamespace(**tracing.load_modules())
        else:
            api = stack.enter_context(tracing.instrument(tracer))
        with _span(tracer, "bench.setup"):
            workload.setup(api, args.seed, out_dir)
        setup_s = (time.monotonic_ns() - args.started_ns) / 1e9

        round_s: list[float] = []
        failures: list[str] = []
        rounds = failed = 0
        measure_start = time.perf_counter()
        while True:
            rounds += 1
            began = time.perf_counter()
            try:
                with _span(tracer, "bench.round", workload.mechanism):
                    outputs = workload.round(api)
            except Exception as exc:  # a failing operation is counted, not fatal
                failed += workload.ops_per_round
                print(f"{workload.name}: round failed: {exc!r}", file=sys.stderr)
            else:
                round_s.append(time.perf_counter() - began)
                failures.extend(workload.check(outputs))
                del outputs
            if tracer is not None:
                break
            elapsed = time.perf_counter() - measure_start
            typical = statistics.median(round_s) if round_s else elapsed / rounds
            if elapsed + typical > args.seconds:
                break

    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": rounds * workload.ops_per_round,
        "failed": failed,
        "setup_s": setup_s,
        "round_s": round_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__,
        "failures": failures[:20],
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write(BENCH / "trace" / args.workload / "spans.jsonl")
    print(json.dumps(result))
    return 0


def _span(tracer, name: str, mechanism: str | None = None):
    return contextlib.nullcontext() if tracer is None else tracer.span(name, mechanism)


if __name__ == "__main__":
    sys.exit(main())
