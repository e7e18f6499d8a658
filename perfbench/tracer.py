"""Spans around the calls that cross from one ``fldp`` module into another.

:func:`instrument` rebinds, inside each module of the package, every name
that refers to another package module or to another module's public
function, so that each such call records one span (name, start, end,
parent). The benchmark's own calls go through the wrapped modules that
:func:`instrument` yields. A few calls inside one module are split
out as well, because a per-layer metric needs them apart (``SPLITS``).
Nothing in ``src/`` is edited; leaving the context restores every binding.

Spans stay in memory until the run ends. A span's self time is its
duration minus that of its children, and a layer's time is the self time
of its spans, so the layers of one run add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
import types
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

MODULES = (
    "aggregator", "datasets", "experiment", "hadamard",
    "mechanisms", "metrics", "verifier", "wire",
)
MECHANISMS = ("fhr", "grr", "oue", "rappor", "olh")
# calls inside one module that a metric needs on their own
SPLITS = {
    "experiment": ("estimate_once",),
    "verifier": ("enumerate_range", "certify_ranges"),
}
# span name -> the per-layer metric its self time also adds to
FUNCTION_METRICS = {
    "wire.write_report_file": "wire.write_s",
    "wire.read_report_file": "wire.read_s",
    "aggregator.fhr_accumulate": "aggregator.accumulate_s",
    "aggregator.fhr_accumulate_indices": "aggregator.accumulate_s",
    "aggregator.fhr_estimate_all": "aggregator.estimate_s",
    "aggregator.grr_estimate": "aggregator.estimate_s",
    "aggregator.unary_estimate": "aggregator.estimate_s",
    "aggregator.olh_estimate_all": "aggregator.estimate_s",
    "verifier.enumerate_range": "verifier.enumerate_s",
}
PER_LAYER_TIMES = (
    *(f"mechanisms.{m}_s" for m in MECHANISMS),
    *(f"aggregator.{m}_s" for m in MECHANISMS),
    "wire.write_s", "wire.read_s", "aggregator.accumulate_s", "aggregator.estimate_s",
    "hadamard_s", "verifier.enumerate_s", "verifier.certify_s",
    "metrics_s", "experiment_s", "datasets_s", "bench_s",
)
PER_LAYER_COUNTS = ("reports", "wire.bytes", "verifier.pairs", "verifier.outputs")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    mechanism: str | None


def _count_reports(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    counts["reports"] += len(args[0])


def _count_file(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    counts["wire.bytes"] += Path(args[0]).stat().st_size


def _count_pairs(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    items = len(args[0])
    counts["verifier.pairs"] += items * (items - 1) // 2


def _count_outputs(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    counts["verifier.outputs"] += result.size


COUNTERS: dict[str, Callable] = {
    "mechanisms.fhr_perturb_batch": _count_reports,
    "mechanisms.grr_perturb_batch": _count_reports,
    "mechanisms.unary_perturb_bits": _count_reports,
    "mechanisms.olh_perturb_batch": _count_reports,
    "wire.write_report_file": _count_file,
    "verifier.certify_ranges": _count_pairs,
    "verifier.enumerate_range": _count_outputs,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str | None]] = []

    @contextlib.contextmanager
    def span(self, name: str, mechanism: str | None = None) -> Iterator[None]:
        index, parent, inherited = self._open()
        mechanism = mechanism or inherited
        self._stack.append((index, mechanism))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, mechanism)

    def _open(self) -> tuple[int, int, str | None]:
        parent, mechanism = self._stack[-1] if self._stack else (-1, None)
        self.spans.append(None)
        return len(self.spans) - 1, parent, mechanism

    def wrap(self, fn: Callable, name: str) -> Callable:
        counter = COUNTERS.get(name)
        # its first argument names the mechanism every nested span serves
        tags = name == "experiment.estimate_once"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent, mechanism = self._open()
            if tags:
                mechanism = args[0]
            self._stack.append((index, mechanism))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, mechanism)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        spans = self.finished()
        own = [s.end - s.start for s in spans]
        for s in spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def finished(self) -> list[Span]:
        if any(s is None for s in self.spans):
            raise RuntimeError("a span is still open")
        return self.spans  # type: ignore[return-value]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times (s) and work counts, every name present."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.finished(), self.self_times()):
            if span.name == "bench.setup":
                continue  # the benchmark's own set-up; its calls into fldp still count
            layer = span.name.split(".", 1)[0]
            out[f"{layer}_s"] += own
            if layer in ("mechanisms", "aggregator") and span.mechanism:
                out[f"{layer}.{span.mechanism}_s"] += own
            if span.name in FUNCTION_METRICS:
                out[FUNCTION_METRICS[span.name]] += own
        out["verifier.certify_s"] = out["verifier_s"] - out["verifier.enumerate_s"]
        metrics = {name: out[name] for name in PER_LAYER_TIMES}
        metrics.update({name: self.counts[name] for name in PER_LAYER_COUNTS})
        return metrics

    def write(self, path: Path) -> None:
        spans = self.finished()
        origin = spans[0].start if spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, s in enumerate(spans):
                handle.write(json.dumps({
                    "id": index, "name": s.name, "parent": s.parent,
                    "start": s.start - origin, "end": s.end - origin,
                    "mechanism": s.mechanism,
                }) + "\n")


def load_modules() -> dict[str, types.ModuleType]:
    return {name: importlib.import_module(f"fldp.{name}") for name in MODULES}


def _proxy(tracer: Tracer, module: types.ModuleType) -> types.ModuleType:
    """A copy of ``module`` whose public functions record spans."""
    short = module.__name__.rsplit(".", 1)[1]
    proxy = types.ModuleType(module.__name__)
    for attr, obj in vars(module).items():
        if (
            not attr.startswith("_")
            and isinstance(obj, types.FunctionType)
            and obj.__module__ == module.__name__
        ):
            obj = tracer.wrap(obj, f"{short}.{attr}")
        setattr(proxy, attr, obj)
    return proxy


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[types.SimpleNamespace]:
    """Wrap every crossing call; yields the wrapped modules for the benchmark."""
    modules = load_modules()
    by_name = {m.__name__: short for short, m in modules.items()}
    proxies = {short: _proxy(tracer, m) for short, m in modules.items()}
    saved: list[tuple[types.ModuleType, str, object]] = []
    try:
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.ModuleType) and obj.__name__ in by_name and obj is not module:
                    replacement = proxies[by_name[obj.__name__]]
                elif (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ in by_name
                    and obj.__module__ != module.__name__
                    and not attr.startswith("_")
                ):
                    replacement = tracer.wrap(obj, f"{by_name[obj.__module__]}.{attr}")
                elif attr in SPLITS.get(short, ()):
                    replacement = tracer.wrap(obj, f"{short}.{attr}")
                else:
                    continue
                saved.append((module, attr, obj))
                setattr(module, attr, replacement)
        yield types.SimpleNamespace(**proxies)
    finally:
        for module, attr, obj in reversed(saved):
            setattr(module, attr, obj)
