"""The three workloads: inputs made from a seed, one round of fixed work, checks.

A workload's ``setup`` makes its inputs, ``round`` runs its fixed work
through the ``fldp`` modules it is handed (the real ones, or the traced
copies), and ``check`` tests that round's outputs with :mod:`checks`,
returning one message per failed check. Every round of a run performs the
same operations on the same inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

SWEEP_EPSILONS = (0.4, 0.5, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)


def derive_seeds(seed: int, count: int) -> list[int]:
    """Independent 32-bit seeds for a workload's inputs, from the run's seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _collect(failures: list[str], check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed as exc:
        failures.append(str(exc))


@dataclass
class SweepDesk:
    """``run_experiment`` over all five mechanisms on the desk-scale stream."""

    n: int = 100_000
    domain: int = 1023
    epsilons: tuple[float, ...] = (1.0, 2.0)  # either side of ln(3+2*sqrt(2))
    ks: tuple[int, ...] = (20, 50, 100)
    trials: int = 2
    mechanisms: tuple[str, ...] = ("fhr", "grr", "oue", "rappor", "olh")
    name = "sweep-desk"
    mechanism = None

    @property
    def ops_per_round(self) -> int:
        return len(self.mechanisms) * len(self.epsilons) * self.trials

    def setup(self, api, seed: int, out_dir: Path) -> None:
        data_seed, sweep_seed = derive_seeds(seed, 2)
        dataset = api.datasets.DatasetSpec(
            source="zipf", n=self.n, domain_size=self.domain, seed=data_seed
        )
        stream = api.datasets.generate_zipf(dataset)
        self.truth = np.bincount(stream.items, minlength=self.domain)
        self.out_dir = out_dir
        self.spec = api.experiment.ExperimentSpec(
            dataset=dataset,
            mechanisms=self.mechanisms,
            epsilons=self.epsilons,
            topk_list=self.ks,
            trials=self.trials,
            seed=sweep_seed,
            output_dir=out_dir,
        )

    def round(self, api) -> list[tuple[str, float, np.ndarray]]:
        # run_experiment returns only scores; keep each cell's estimates
        # for the accuracy check by hooking the per-cell call
        experiment = sys.modules["fldp.experiment"]
        inner = experiment.estimate_once
        captured: list[tuple[str, float, np.ndarray]] = []

        def capture(mechanism, items, domain_size, epsilon, rng):
            estimates = inner(mechanism, items, domain_size, epsilon, rng)
            captured.append((mechanism, epsilon, estimates))
            return estimates

        experiment.estimate_once = capture
        try:
            api.experiment.run_experiment(self.spec)
        finally:
            experiment.estimate_once = inner
        return captured

    def check(self, captured) -> list[str]:
        failures: list[str] = []
        if len(captured) != self.ops_per_round:
            failures.append(f"{len(captured)} cells estimated, expected {self.ops_per_round}")
        for mechanism, epsilon, estimates in captured:
            label = f"{self.name} {mechanism} eps={epsilon}"
            _collect(failures, checks.check_z2_band, label, mechanism, epsilon, estimates, self.truth)
            if mechanism == "grr":
                _collect(failures, checks.check_total, f"{label} GRR estimates", estimates, self.n)
        _collect(
            failures, checks.check_results_csv, self.out_dir / "results.csv",
            self.mechanisms, self.epsilons, self.ks, self.trials, self.domain,
        )
        return failures


@dataclass
class CollectFull:
    """FHR from client to server on the full-scale stream, through a report file."""

    n: int = 593_358
    domain: int = 65_535
    epsilon: float = 1.0
    ks: tuple[int, ...] = (20, 50, 100)
    name = "collect-full"
    mechanism = "fhr"
    ops_per_round = 1

    def setup(self, api, seed: int, out_dir: Path) -> None:
        data_seed, self.perturb_seed = derive_seeds(seed, 2)
        stream = api.datasets.generate_zipf(
            api.datasets.DatasetSpec(
                source="zipf", n=self.n, domain_size=self.domain, seed=data_seed
            )
        )
        self.items = stream.items
        self.truth = np.bincount(self.items, minlength=self.domain).astype(np.float64)
        self.path = out_dir / "reports.bin"

    def round(self, api) -> dict:
        order = api.hadamard.min_order_for_domain(self.domain)
        params = api.mechanisms.PrivacyParams.for_fhr(self.epsilon)
        rng = np.random.default_rng(self.perturb_seed)
        index_x, index_y = api.mechanisms.fhr_perturb_batch(self.items, params, order, rng)
        report = api.mechanisms.FhrReport
        reports = [report(x, y) for x, y in zip(index_x.tolist(), index_y.tolist())]
        api.wire.write_report_file(self.path, reports, order)
        del reports  # the client side is done; the server starts from the file
        read_order, received = api.wire.read_report_file(self.path)
        summed = api.aggregator.fhr_accumulate(received, read_order)
        del received
        estimates = api.aggregator.fhr_estimate_all(
            summed, self.domain, params, read_order
        ).estimates
        metrics = api.metrics
        smoothing = 1.0 / (10.0 * self.n)
        scores = {}
        for k in self.ks:
            candidates = metrics.top_k(self.truth, k)
            scores[k] = {
                "kld": metrics.kld(self.truth, estimates, candidates, smoothing=smoothing),
                "re": metrics.related_error(self.truth, estimates, candidates),
                "se": metrics.squared_error(self.truth, estimates, k),
                "ncr": metrics.ncr(candidates, metrics.top_k(estimates, k)),
            }
        return {
            "index_x": index_x, "index_y": index_y, "r": read_order.r,
            "file_bytes": self.path.stat().st_size,
            "sums": summed.sums, "reports": summed.n,
            "estimates": estimates, "scores": scores,
        }

    def check(self, out: dict) -> list[str]:
        failures: list[str] = []
        label = f"{self.name} fhr eps={self.epsilon}"
        r = math.ceil(math.log2(self.domain + 1))
        if out["r"] != r:
            failures.append(f"{label}: report file declares r={out['r']}, expected {r}")
        _collect(failures, checks.check_report_file, out["file_bytes"], self.n, r)
        _collect(
            failures, checks.check_sum_vector, out["sums"], out["reports"],
            out["index_x"], out["index_y"], 2**r,
        )
        _collect(failures, checks.check_z2_band, label, "fhr", self.epsilon, out["estimates"], self.truth)
        for k, got in out["scores"].items():
            _collect(
                failures, checks.check_scores, label, self.truth, out["estimates"],
                k, 1.0 / (10.0 * self.n), got,
            )
        return failures


@dataclass
class CertifyGrid:
    """Exact certificates at each mechanism's enumeration limit, ten budgets."""

    epsilons: tuple[float, ...] = SWEEP_EPSILONS
    domains: dict[str, int] = field(
        default_factory=lambda: {"fhr": 63, "grr": 64, "oue": 12, "rappor": 12}
    )
    name = "certify-grid"
    mechanism = None

    @property
    def ops_per_round(self) -> int:
        return len(self.epsilons) * len(self.domains)

    def setup(self, api, seed: int, out_dir: Path) -> None:
        """Exact enumeration draws nothing at random: the seed changes no input."""

    def round(self, api) -> list:
        return [
            (mechanism, epsilon, domain, api.verifier.certify_mechanism(mechanism, epsilon, domain))
            for epsilon in self.epsilons
            for mechanism, domain in self.domains.items()
        ]

    def check(self, certificates) -> list[str]:
        failures: list[str] = []
        if len(certificates) != self.ops_per_round:
            failures.append(f"{len(certificates)} certificates, expected {self.ops_per_round}")
        for mechanism, epsilon, domain, cert in certificates:
            _collect(failures, checks.check_certificate, mechanism, epsilon, domain, cert)
        return failures


WORKLOADS = {w.name: w for w in (SweepDesk, CollectFull, CertifyGrid)}
