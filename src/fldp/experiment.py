"""Evaluation sweep: mechanisms x privacy budgets x trials on one workload.

Each cell perturbs every user in the stream (OUE and RAPPOR at the level
of bit counts, see :func:`estimate_once`), aggregates, estimates all
item counts, and scores the estimate against the exact ground truth with
all four metrics at each requested k. Raw per-trial rows and per-cell
means land in results.csv; every resolved parameter lands in
manifest.json. Both files are byte-identical across runs of the same spec
and seed, wall-time columns aside.

Randomness is budgeted per cell: trial t of mechanism m at budget e draws
from a generator seeded by (master seed, m, e, t), so cells can run in any
order, or concurrently, without changing a single report.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import aggregator, mechanisms, metrics
from ._atomic import replace_atomically
from .datasets import DatasetSpec, ItemStream, load_stream
from .hadamard import min_order_for_domain

__all__ = [
    "DEFAULT_EPSILONS",
    "DEFAULT_TOPK",
    "DEFAULT_TRIALS",
    "ExperimentSpec",
    "ResultRow",
    "RESULT_COLUMNS",
    "run_experiment",
    "estimate_once",
]

DEFAULT_EPSILONS = (0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
DEFAULT_TOPK = (20, 50, 100)
DEFAULT_TRIALS = 10

@dataclass(frozen=True)
class ExperimentSpec:
    """A full sweep, validated up front so bad fields fail before any work."""

    dataset: DatasetSpec
    mechanisms: tuple[str, ...] = ("fhr",)
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    topk_list: tuple[int, ...] = DEFAULT_TOPK
    trials: int = DEFAULT_TRIALS
    seed: int = 0
    output_dir: str | Path = "results"

    def __post_init__(self) -> None:
        if not self.mechanisms:
            raise ValueError("need at least one mechanism")
        for name in self.mechanisms:
            mechanisms.lookup(name)
        if len(set(self.mechanisms)) != len(self.mechanisms):
            raise ValueError("mechanisms must be unique")
        if not self.epsilons:
            raise ValueError("need at least one epsilon")
        for eps in self.epsilons:
            mechanisms._check_epsilon(eps)
        if len(set(self.epsilons)) != len(self.epsilons):
            raise ValueError("epsilons must be unique")
        if not self.topk_list:
            raise ValueError("need at least one k")
        for k in self.topk_list:
            if k < 1:
                raise ValueError(f"k must be positive, got {k}")
        if len(set(self.topk_list)) != len(self.topk_list):
            raise ValueError("k values must be unique")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")


@dataclass(frozen=True)
class ResultRow:
    """One scored cell: a single trial, or the across-trials mean."""

    mechanism: str
    epsilon: float
    k: int
    trial: int | str
    kld: float
    re: float
    se: float
    ncr: float
    wall_time_ms: float
    report_bits: int

    def as_record(self) -> list:
        return [
            self.mechanism,
            repr(float(self.epsilon)),
            self.k,
            self.trial,
            repr(float(self.kld)),
            repr(float(self.re)),
            repr(float(self.se)),
            repr(float(self.ncr)),
            f"{self.wall_time_ms:.3f}",
            self.report_bits,
        ]


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _cell_rng(seed: int, mech_idx: int, eps_idx: int, trial: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(mech_idx, eps_idx, trial))
    return np.random.default_rng(ss)


def estimate_once(
    mechanism: str,
    items: np.ndarray,
    domain_size: int,
    epsilon: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Perturb a whole stream once and return count-scale estimates.

    Parameters come from the mechanism's registry record. OUE and RAPPOR
    draw their per-position bit counts directly, with the distribution of
    the summed per-user reports. The perturb and estimate steps are called
    through the ``mechanisms`` and ``aggregator`` module attributes, which
    is where perfbench's tracer times each layer, so each mechanism keeps
    its own branch here.
    """
    params = mechanisms.lookup(mechanism).params(epsilon, domain_size)
    if mechanism == "fhr":
        order = min_order_for_domain(domain_size)
        index_x, index_y = mechanisms.fhr_perturb_batch(items, params, order, rng)
        summed = aggregator.fhr_accumulate((index_x, index_y), order)
        return aggregator.fhr_estimate_all(summed, domain_size, params, order).estimates
    if mechanism == "grr":
        values = mechanisms.grr_perturb_batch(items, params, domain_size, rng)
        counts = np.bincount(values, minlength=domain_size)
        return aggregator.unary_estimate(counts, params, items.size).estimates
    if mechanism in ("oue", "rappor"):
        bit_counts = mechanisms.unary_sample_counts(items, params, domain_size, rng)
        return aggregator.unary_estimate(bit_counts, params, items.size).estimates
    # olh, the one registered name left
    seeds, values = mechanisms.olh_perturb_batch(items, params, domain_size, rng)
    return aggregator.olh_estimate_all(seeds, values, domain_size, params).estimates


def _score(truth: np.ndarray, estimates: np.ndarray, k: int) -> tuple[float, float, float, float]:
    candidates = metrics.top_k(truth, k)
    # kld smooths by 1/(10 * truth total), which is 1/(10 n) exactly
    kld_value = metrics.kld(truth, estimates, candidates)
    re_value = metrics.related_error(truth, estimates, candidates)
    try:
        se_value = metrics.squared_error(truth, estimates, k)
    except metrics.NoOverlapError:
        se_value = float("nan")
    ncr_value = metrics.ncr(candidates, metrics.top_k(estimates, k))
    return kld_value, re_value, se_value, ncr_value


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run the sweep, returning all rows and writing results + manifest."""
    stream = load_stream(spec.dataset)
    if stream.domain_size < 2:
        raise ValueError(f"domain must have at least 2 items, got {stream.domain_size}")
    # every top-k candidate needs a positive true count (see metrics.related_error)
    k = max(spec.topk_list)
    needed = min(k, stream.domain_size)
    present = int(np.count_nonzero(stream.ground_truth))
    if needed > present:
        raise ValueError(
            f"k={k} needs {needed} items that occur in the stream, "
            f"but only {present} of its {stream.domain_size} items do"
        )
    # build every cell's params now, so that a budget some mechanism cannot
    # invert fails before any work
    for mechanism in spec.mechanisms:
        for epsilon in spec.epsilons:
            mechanisms.lookup(mechanism).params(epsilon, stream.domain_size)
    truth = stream.ground_truth.astype(np.float64)
    rows: list[ResultRow] = []

    for mech_idx, mechanism in enumerate(spec.mechanisms):
        for eps_idx, epsilon in enumerate(spec.epsilons):
            bits = mechanisms.lookup(mechanism).report_bits(stream.domain_size, epsilon)
            trial_scores: dict[int, list[tuple[float, float, float, float]]] = {
                k: [] for k in spec.topk_list
            }
            wall_times: list[float] = []
            for trial in range(spec.trials):
                rng = _cell_rng(spec.seed, mech_idx, eps_idx, trial)
                started = time.perf_counter()
                estimates = estimate_once(
                    mechanism, stream.items, stream.domain_size, epsilon, rng
                )
                wall_ms = (time.perf_counter() - started) * 1e3
                wall_times.append(wall_ms)
                for k in spec.topk_list:
                    scored = _score(truth, estimates, k)
                    trial_scores[k].append(scored)
                    rows.append(
                        ResultRow(
                            mechanism, epsilon, k, trial, *scored, wall_ms, bits
                        )
                    )
            for k in spec.topk_list:
                means = np.mean(np.asarray(trial_scores[k], dtype=np.float64), axis=0)
                rows.append(
                    ResultRow(
                        mechanism,
                        epsilon,
                        k,
                        "mean",
                        *(float(v) for v in means),
                        float(np.mean(wall_times)),
                        bits,
                    )
                )

    _write_outputs(spec, stream, rows)
    return rows


def _write_outputs(spec: ExperimentSpec, stream: ItemStream, rows: list[ResultRow]) -> None:
    manifest = {
        "dataset": {
            "source": spec.dataset.source,
            "n": stream.n,
            "domain_size": stream.domain_size,
            "zipf_exponent": spec.dataset.zipf_exponent,
            "seed": spec.dataset.seed,
            "path": spec.dataset.path,
        },
        "mechanisms": list(spec.mechanisms),
        "epsilons": [float(e) for e in spec.epsilons],
        "topk_list": [int(k) for k in spec.topk_list],
        "trials": spec.trials,
        "seed": spec.seed,
        "ncr_scoring": "membership",
        "kld_smoothing": "1/(10*n) per candidate",
        "report_bits": {
            mech: {
                repr(float(eps)): mechanisms.lookup(mech).report_bits(stream.domain_size, eps)
                for eps in spec.epsilons
            }
            for mech in spec.mechanisms
        },
        "trial_aggregation": "arithmetic mean",
    }
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # both files are written in full before either replaces its target
    with (
        replace_atomically(out_dir / "results.csv", newline="", encoding="utf-8") as results,
        replace_atomically(out_dir / "manifest.json", encoding="utf-8") as manifest_file,
    ):
        writer = csv.writer(results)
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow(row.as_record())
        json.dump(manifest, manifest_file, indent=2, sort_keys=True, allow_nan=False)
        manifest_file.write("\n")
