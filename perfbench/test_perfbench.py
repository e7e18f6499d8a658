"""Fast tests of the benchmark itself: every check passes on the program's
real outputs at small sizes and fails on broken ones.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import CertifyGrid, CollectFull, SweepDesk  # noqa: E402

from fldp import aggregator, datasets, experiment, hadamard, mechanisms, metrics, verifier, wire  # noqa: E402

MECHANISMS = ("fhr", "grr", "oue", "rappor", "olh")


def zipf_truth(n: int, domain: int, seed: int = 3) -> np.ndarray:
    stream = datasets.generate_zipf(
        datasets.DatasetSpec(source="zipf", n=n, domain_size=domain, seed=seed)
    )
    return np.bincount(stream.items, minlength=domain).astype(np.float64)


def gaussian_estimates(mechanism: str, epsilon: float, truth: np.ndarray, seed: int = 5) -> np.ndarray:
    var = checks.estimator_variance(mechanism, epsilon, truth, int(truth.sum()))
    return truth + np.random.default_rng(seed).normal(0.0, np.sqrt(var))


def real_api() -> types.SimpleNamespace:
    return types.SimpleNamespace(**tracing.load_modules())


# --- accuracy ---------------------------------------------------------------


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_z2_band_accepts_the_closed_form_noise_and_rejects_scaled_estimates(mechanism):
    truth = zipf_truth(200_000, 16383)
    good = gaussian_estimates(mechanism, 1.0, truth)
    checks.check_z2_band("good", mechanism, 1.0, good, truth)
    with pytest.raises(CheckFailed, match="mean z"):
        checks.check_z2_band("scaled", mechanism, 1.0, 1.1 * good, truth)


def test_z2_band_rejects_the_wrong_variance_and_bad_shapes():
    truth = zipf_truth(200_000, 4095)
    noisy = gaussian_estimates("oue", 1.0, truth)
    # OUE noise judged as FHR's smaller-budget law, and vice versa
    with pytest.raises(CheckFailed):
        checks.check_z2_band("var", "fhr", 3.0, noisy, truth)
    with pytest.raises(CheckFailed):
        checks.check_z2_band("var", "oue", 1.0, truth + 1.5 * (noisy - truth), truth)
    with pytest.raises(CheckFailed, match="estimates for a domain"):
        checks.check_z2_band("short", "oue", 1.0, noisy[:-1], truth)
    noisy[3] = np.nan
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_z2_band("nan", "oue", 1.0, noisy, truth)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_program_estimates_fall_in_the_band(mechanism):
    truth = zipf_truth(20_000, 255)
    items = np.repeat(np.arange(truth.size), truth.astype(np.int64))
    rng = np.random.default_rng(11)
    estimates = experiment.estimate_once(mechanism, items, truth.size, 1.0, rng)
    checks.check_z2_band("program", mechanism, 1.0, estimates, truth)


def test_closed_form_variances_match_known_cases():
    truth = np.array([0.0, 50.0, 50.0])
    e = math.e
    fhr = checks.estimator_variance("fhr", 1.0, truth, 100)
    b = (e + 1) ** 2 / (2 * (e - 1) ** 2)
    assert fhr[0] == pytest.approx(b * 100)
    assert fhr[1] == pytest.approx(b * 100 + (b - 1) * 50)
    oue = checks.estimator_variance("oue", 1.0, np.zeros(4), 100)
    assert oue == pytest.approx(np.full(4, 4 * e / (e - 1) ** 2 * 100))
    assert checks.keep_flip("olh", 1.0, 9) == pytest.approx((e / (e + 1), 0.5))


# --- conserved quantities and the two paths ---------------------------------


def test_grr_total_is_checked():
    truth = zipf_truth(10_000, 63)
    items = np.repeat(np.arange(truth.size), truth.astype(np.int64))
    estimates = experiment.estimate_once("grr", items, 63, 1.0, np.random.default_rng(2))
    checks.check_total("grr", estimates, 10_000)
    estimates[0] += 5
    with pytest.raises(CheckFailed, match="total"):
        checks.check_total("grr", estimates, 10_000)


def fhr_round_trip(tmp_path: Path, n: int = 3000, domain: int = 100):
    order = hadamard.min_order_for_domain(domain)
    params = mechanisms.PrivacyParams.for_fhr(1.0)
    items = np.random.default_rng(1).integers(0, domain, size=n)
    ix, iy = mechanisms.fhr_perturb_batch(items, params, order, np.random.default_rng(4))
    path = tmp_path / "reports.bin"
    wire.write_report_file(path, [mechanisms.FhrReport(int(x), int(y)) for x, y in zip(ix, iy)], order)
    read_order, reports = wire.read_report_file(path)
    return order, ix, iy, path, aggregator.fhr_accumulate(reports, read_order)


def test_sum_vector_must_equal_the_bincount_of_the_sent_indices(tmp_path):
    order, ix, iy, _, summed = fhr_round_trip(tmp_path)
    checks.check_sum_vector(summed.sums, summed.n, ix, iy, order.order)
    moved = summed.sums.copy()
    moved[3] += 1
    moved[5] -= 1  # still totals zero
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_sum_vector(moved, summed.n, ix, iy, order.order)
    unbalanced = summed.sums.copy()
    unbalanced[0] += 1
    with pytest.raises(CheckFailed, match="totals"):
        checks.check_sum_vector(unbalanced, summed.n, ix, iy, order.order)
    with pytest.raises(CheckFailed, match="reports"):
        checks.check_sum_vector(summed.sums, summed.n - 1, ix, iy, order.order)


def test_report_file_size_is_the_closed_form(tmp_path):
    order, ix, _, path, _ = fhr_round_trip(tmp_path)
    checks.check_report_file(path.stat().st_size, ix.size, order.r)
    short = path.read_bytes()[:-1]
    with pytest.raises(CheckFailed, match="bytes"):
        checks.check_report_file(len(short), ix.size, order.r)


@pytest.mark.parametrize("domain", [2, 3, 7, 8, 100, 1023, 1024, 65535])
@pytest.mark.parametrize("epsilon", [0.4, 1.0, 2.0, 4.5])
def test_report_bits_closed_form_agrees_with_the_size_table(domain, epsilon):
    table = wire.report_size_table(domain, epsilon)
    assert {m: checks.report_bits(m, domain, epsilon) for m in MECHANISMS} == table


# --- certificates -----------------------------------------------------------


@pytest.mark.parametrize("mechanism,domain", [("fhr", 7), ("grr", 9), ("oue", 5), ("rappor", 5)])
def test_certificate_checks(mechanism, domain):
    cert = verifier.certify_mechanism(mechanism, 1.0, domain)
    checks.check_certificate(mechanism, 1.0, domain, cert)
    broken = {
        "eta": dataclasses.replace(cert, eta_observed=cert.eta_observed - 0.01),
        "effective epsilon": dataclasses.replace(cert, epsilon_effective=1.0 + 1e-6),
        "range sizes": dataclasses.replace(cert, range_size_max=cert.range_size_max + 1),
        "overlap sizes": dataclasses.replace(cert, intersection_size_min=cert.intersection_size_min - 1),
    }
    for message, bad in broken.items():
        with pytest.raises(CheckFailed, match=message):
            checks.check_certificate(mechanism, 1.0, domain, bad)


# --- scores and sweep output ------------------------------------------------


def test_scores_are_recomputed_independently():
    truth = zipf_truth(50_000, 511)
    estimates = gaussian_estimates("fhr", 1.0, truth)
    smoothing = 1 / (10 * 50_000)
    for k in (5, 20, 50):
        candidates = metrics.top_k(truth, k)
        got = {
            "kld": metrics.kld(truth, estimates, candidates, smoothing=smoothing),
            "re": metrics.related_error(truth, estimates, candidates),
            "se": metrics.squared_error(truth, estimates, k),
            "ncr": metrics.ncr(candidates, metrics.top_k(estimates, k)),
        }
        checks.check_scores("scores", truth, estimates, k, smoothing, got)
        for field in checks.SCORE_FIELDS:
            bad = dict(got, **{field: got[field] * 1.001 + 1e-9})
            with pytest.raises(CheckFailed, match=field):
                checks.check_scores("scores", truth, estimates, k, smoothing, bad)


def test_ranking_breaks_ties_by_lower_index():
    assert checks.ranked(np.array([1.0, 3.0, 3.0, 2.0, 3.0]), 4).tolist() == [1, 2, 4, 3]


SWEEP = dict(mechanisms=MECHANISMS, epsilons=(1.0, 2.0), ks=(5, 10), trials=2, domain_size=31)


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("sweep")
    experiment.run_experiment(
        experiment.ExperimentSpec(
            dataset=datasets.DatasetSpec(source="zipf", n=3000, domain_size=31, seed=1),
            mechanisms=SWEEP["mechanisms"], epsilons=SWEEP["epsilons"],
            topk_list=SWEEP["ks"], trials=SWEEP["trials"], seed=7, output_dir=out,
        )
    )
    return out / "results.csv"


def rewrite(src: Path, dst: Path, edit) -> Path:
    lines = src.read_text().splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    rows = edit(rows)
    dst.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
    return dst


def test_results_csv_passes_on_the_program_output(sweep_csv):
    checks.check_results_csv(sweep_csv, **SWEEP)


def _set(row_index: int, column: int, value: str):
    def edit(rows):
        rows[row_index][column] = value
        return rows
    return edit


MEAN_ROW = 4  # rows run trial 0 (k=5, k=10), trial 1 (k=5, k=10), then the means


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda rows: rows[:-1], "rows"),
        (lambda rows: rows[:MEAN_ROW] + rows[MEAN_ROW + 1:] + [rows[0]], "trials"),
        (_set(MEAN_ROW, 4, "0.123"), "mean kld"),
        (_set(MEAN_ROW, 7, "0.4321"), "mean ncr"),
        (_set(0, 6, "nan"), "non-finite"),
        (_set(0, 4, "-0.1"), "negative"),
        (_set(1, 7, "1.5"), "ncr"),
        (_set(0, 9, "22"), "report_bits"),
    ],
)
def test_results_csv_rejects_broken_output(sweep_csv, tmp_path, edit, message):
    broken = rewrite(sweep_csv, tmp_path / "results.csv", edit)
    with pytest.raises(CheckFailed, match=message):
        checks.check_results_csv(broken, **SWEEP)


# --- workloads end to end at small sizes ------------------------------------


SMALL = {
    "sweep-desk": lambda: SweepDesk(n=3000, domain=31, ks=(5, 10)),
    "collect-full": lambda: CollectFull(n=5000, domain=255, ks=(5, 10)),
    "certify-grid": lambda: CertifyGrid(epsilons=(0.5, 2.0), domains={"fhr": 7, "grr": 8, "oue": 4, "rappor": 4}),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_passes_every_check_untraced_and_traced(name, tmp_path):
    workload = SMALL[name]()
    workload.setup(real_api(), 1, tmp_path)
    assert workload.check(workload.round(real_api())) == []

    tracer = tracing.Tracer()
    with tracing.instrument(tracer) as api:
        traced = SMALL[name]()
        with tracer.span("bench.setup"):
            traced.setup(api, 1, tmp_path)
        with tracer.span("bench.round", traced.mechanism):
            outputs = traced.round(api)
    assert traced.check(outputs) == []
    layers = tracer.layer_metrics()
    assert set(layers) == set(tracing.PER_LAYER_TIMES) | set(tracing.PER_LAYER_COUNTS)
    exercised = {
        "sweep-desk": [f"{layer}.{m}_s" for layer in ("mechanisms", "aggregator") for m in MECHANISMS]
        + ["metrics_s", "experiment_s", "datasets_s", "hadamard_s", "reports"],
        "collect-full": ["wire.write_s", "wire.read_s", "aggregator.accumulate_s", "aggregator.estimate_s",
                         "hadamard_s", "metrics_s", "datasets_s", "mechanisms.fhr_s", "reports", "wire.bytes"],
        "certify-grid": ["verifier.enumerate_s", "verifier.certify_s", "hadamard_s",
                         "verifier.pairs", "verifier.outputs"],
    }[name]
    assert all(layers[key] > 0 for key in exercised), {k: layers[k] for k in exercised}
    # self times partition the traced wall time
    spans = tracer.finished()
    top = sum(s.end - s.start for s in spans if s.parent == -1)
    assert sum(tracer.self_times()) == pytest.approx(top, rel=1e-9)


def test_collect_counts_match_closed_forms(tmp_path):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer) as api:
        workload = SMALL["collect-full"]()
        workload.setup(api, 2, tmp_path)
        with tracer.span("bench.round", "fhr"):
            workload.round(api)
    layers = tracer.layer_metrics()
    assert layers["reports"] == 5000
    assert layers["wire.bytes"] == checks.report_file_bytes(5000, 8)


def test_broken_collect_outputs_fail(tmp_path):
    workload = SMALL["collect-full"]()
    workload.setup(real_api(), 1, tmp_path)
    out = workload.round(real_api())
    bad_sums = dict(out, sums=out["sums"] + np.eye(1, out["sums"].size, 1, dtype=np.int64)[0]
                    - np.eye(1, out["sums"].size, 2, dtype=np.int64)[0])
    assert any("differs" in f for f in workload.check(bad_sums))
    assert any("bytes" in f for f in workload.check(dict(out, file_bytes=out["file_bytes"] - 1)))
    bad_scores = {k: dict(v, ncr=v["ncr"] + 0.01) for k, v in out["scores"].items()}
    assert any("ncr" in f for f in workload.check(dict(out, scores=bad_scores)))


def test_instrument_restores_every_binding():
    modules = tracing.load_modules()
    before = {name: dict(vars(m)) for name, m in modules.items()}
    with tracing.instrument(tracing.Tracer()):
        assert experiment.estimate_once is not before["experiment"]["estimate_once"]
    for name, module in modules.items():
        assert all(vars(module)[k] is v for k, v in before[name].items())


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("bench.round", 0.0, 10.0, -1, None),
        tracing.Span("aggregator.fhr_estimate_all", 1.0, 7.0, 0, "fhr"),
        tracing.Span("hadamard.sign_block", 2.0, 5.0, 1, "fhr"),
    ]
    assert tracer.self_times() == [4.0, 3.0, 3.0]
    layers = tracer.layer_metrics()
    assert layers["aggregator.estimate_s"] == layers["aggregator.fhr_s"] == 3.0
    assert layers["hadamard_s"] == 3.0 and layers["bench_s"] == 4.0


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "trace", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
