"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Each test computes its own pass/fail evidence, prints one line of the form
``[ACCEPTANCE n] PASS: ...`` (visible even under pytest capture), and then
asserts.  Statistical criteria use fixed seeds, so every run is a replay.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from _oracles import (
    kld_oracle,
    ncr_oracle,
    related_error_oracle,
    squared_error_oracle,
    sylvester_matrix,
)
from fldp.aggregator import (
    fhr_accumulate_indices,
    fhr_variance_bound,
    oue_variance,
    variance_crossover,
)
from fldp.datasets import DatasetSpec, generate_zipf
from fldp.experiment import ExperimentSpec, estimate_once, run_experiment
from fldp.hadamard import ItemRowMap, min_order_for_domain, row_vector, sign_block
from fldp.mechanisms import FhrReport, PrivacyParams, fhr_perturb_batch
from fldp.metrics import NoOverlapError, kld, ncr, related_error, squared_error, top_k
from fldp.verifier import certify_mechanism, enumerate_range
from fldp.wire import WireFormatError, pack_fhr, packed_size, unpack_fhr


def _report(capsys, criterion: int, passed: bool, detail: str) -> None:
    with capsys.disabled():
        verdict = "PASS" if passed else "FAIL"
        print(f"[ACCEPTANCE {criterion}] {verdict}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_01_fldp_certificates(capsys):
    """Exact certificates: eta = 0.5 and effective epsilon = epsilon."""
    started = time.perf_counter()
    worst_eps_gap = 0.0
    all_exact = True
    for order, epsilon in itertools.product((4, 8, 16), (0.4, 1.0, 2.0)):
        cert = certify_mechanism("fhr", epsilon, domain_size=order - 1)
        all_exact &= cert.eta_observed == 0.5
        # uniform range and intersection sizes mean the eta and ratio
        # statements hold pairwise, not just in aggregate
        all_exact &= cert.range_size_min == cert.range_size_max == order * order // 2
        all_exact &= (
            cert.intersection_size_min == cert.intersection_size_max == order * order // 4
        )
        worst_eps_gap = max(worst_eps_gap, abs(cert.epsilon_effective - epsilon))
    elapsed = time.perf_counter() - started
    passed = all_exact and worst_eps_gap <= 1e-9 and elapsed < 5.0
    _report(
        capsys, 1, passed,
        f"orders {{4,8,16}} x eps {{0.4,1.0,2.0}}: eta=0.5 exact, "
        f"max |eps_eff - eps| = {worst_eps_gap:.2e}, {elapsed:.2f}s",
    )


@pytest.mark.slow
def test_criterion_02_unbiasedness(capsys):
    """Mean estimate matches the true count within 3 standard errors."""
    started = time.perf_counter()
    trials = 50
    epsilon = 1.0
    streams = {
        1023: generate_zipf(DatasetSpec(source="zipf", n=100_000, domain_size=1023, seed=202)),
        128: generate_zipf(DatasetSpec(source="zipf", n=100_000, domain_size=128, seed=203)),
    }
    plan = (("fhr", 1023), ("grr", 128), ("oue", 1023), ("olh", 1023))
    details = []
    passed = True
    for mech_idx, (mechanism, domain) in enumerate(plan):
        stream = streams[domain]
        truth = stream.ground_truth.astype(np.float64)
        top = top_k(truth, 20).items
        per_trial = np.empty((trials, top.size))
        for trial in range(trials):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=202, spawn_key=(mech_idx, trial))
            )
            per_trial[trial] = estimate_once(
                mechanism, stream.items, domain, epsilon, rng
            )[top]
        gap = np.abs(per_trial.mean(axis=0) - truth[top])
        slack = 3.0 * per_trial.std(axis=0, ddof=1) / math.sqrt(trials)
        ratio = float((gap / slack).max())
        passed &= bool((gap <= slack).all())
        details.append(f"{mechanism}={ratio:.2f}")
    elapsed = time.perf_counter() - started
    passed &= elapsed < 180.0
    _report(
        capsys, 2, passed,
        "top-20 |mean - true| / (3 sigma/sqrt(50)) max per mechanism: "
        + ", ".join(details) + f"; {elapsed:.1f}s",
    )


def test_criterion_03_variance_law(capsys):
    """Empirical variance at a zero-count item matches the closed form."""
    n = 10_000
    trials = 2000
    domain = 255
    order = min_order_for_domain(domain)
    target = 17
    row_map = ItemRowMap(domain_size=domain, order=order)
    signs = row_vector(row_map.row_of(target), order.order).astype(np.int64)
    batch = 500
    results = []
    passed = True
    for eps_idx, epsilon in enumerate((0.5, 1.0, 1.76)):
        params = PrivacyParams.for_fhr(epsilon)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=303, spawn_key=(eps_idx,))
        )
        estimates = np.empty(trials)
        held = np.zeros(batch * n, dtype=np.int64)  # every user holds item 0
        for start in range(0, trials, batch):
            index_x, index_y = fhr_perturb_batch(held, params, order, rng)
            dots = (signs[index_x] - signs[index_y]).reshape(batch, n).sum(axis=1)
            estimates[start : start + batch] = params.correction * dots
        variance = float(estimates.var(ddof=1))
        bound = fhr_variance_bound(epsilon, n)
        rel = abs(variance - bound) / bound
        passed &= rel <= 0.10
        results.append(f"eps={epsilon}: {rel * 100:.1f}%")
    _report(
        capsys, 3, passed,
        "2000-trial variance vs (e^eps+1)^2/(2(e^eps-1)^2) n, deviation "
        + ", ".join(results),
    )


def test_criterion_04_variance_crossover(capsys):
    """FHR beats OUE below the analytic budget threshold, loses above it."""
    below = np.round(np.arange(0.4, 1.7001, 0.1), 10)
    fhr_wins = all(fhr_variance_bound(e, 1) < oue_variance(e, 1) for e in below)
    oue_wins = all(fhr_variance_bound(e, 1) > oue_variance(e, 1) for e in (1.8, 2.0))
    root = brentq(
        lambda e: fhr_variance_bound(e, 1) - oue_variance(e, 1), 1.5, 2.0, xtol=1e-12
    )
    root_ok = abs(root - 1.7627) <= 5e-4 and abs(root - variance_crossover()) <= 1e-9
    passed = fhr_wins and oue_wins and root_ok
    _report(
        capsys, 4, passed,
        f"FHR<OUE on [0.4,1.7], FHR>OUE at {{1.8,2.0}}, root={root:.6f}",
    )


def test_criterion_05_report_dot_distributions(capsys):
    """Exhaustive order-8 enumeration of the per-report dot products."""
    domain = 7
    order = min_order_for_domain(domain)
    row_map = ItemRowMap(domain_size=domain, order=order)
    worst = 0.0
    for epsilon in (0.4, 1.0, 2.0):
        params = PrivacyParams.for_fhr(epsilon)
        for item in range(domain):
            output_range = enumerate_range("fhr", item, params, domain)
            for candidate in range(domain):
                signs = row_vector(row_map.row_of(candidate), order.order)
                buckets = {-2: [], 0: [], 2: []}
                for (x, y), prob in output_range.probabilities.items():
                    buckets[int(signs[x]) - int(signs[y])].append(prob)
                dist = {dot: math.fsum(probs) for dot, probs in buckets.items()}
                if candidate == item:
                    expected = {2: params.p, 0: 0.0, -2: 1 - params.p}
                else:
                    expected = {2: 0.25, 0: 0.5, -2: 0.25}
                worst = max(
                    worst, max(abs(dist[dot] - expected[dot]) for dot in expected)
                )
    passed = worst <= 1e-12
    _report(
        capsys, 5, passed,
        f"true item {{+2: p, -2: 1-p}}, others {{0: 1/2, +-2: 1/4}}, "
        f"max deviation {worst:.2e}",
    )


def test_criterion_06_error_scaling(capsys):
    """Worst-item error shrinks with the user count roughly like 1/sqrt(n)."""
    trials = 20
    domain = 256
    medians = {}
    for n in (25_000, 100_000):
        stream = generate_zipf(
            DatasetSpec(source="zipf", n=n, domain_size=domain, seed=606)
        )
        truth = stream.ground_truth.astype(np.float64)
        errors = []
        for trial in range(trials):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=606, spawn_key=(n, trial))
            )
            estimates = estimate_once("fhr", stream.items, domain, 1.0, rng)
            errors.append(float(np.abs(estimates - truth).max()) / n)
        medians[n] = float(np.median(errors))
    ratio = medians[25_000] / medians[100_000]
    passed = ratio >= 1.5
    _report(
        capsys, 6, passed,
        f"median max-error ratio (n=2.5e4 vs 1e5) = {ratio:.2f} (need >= 1.5)",
    )


@pytest.mark.slow
def test_criterion_07_sweep_trends(capsys, tmp_path):
    """Desk-scale sweep: utility improves with budget; FHR leads OUE on KLD."""
    started = time.perf_counter()
    epsilons = (0.4, 0.5, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
    spec = ExperimentSpec(
        dataset=DatasetSpec(source="zipf", n=100_000, domain_size=1023, seed=707),
        mechanisms=("fhr", "oue", "olh"),
        epsilons=epsilons,
        topk_list=(20,),
        # the trend rule reads per-budget medians of noisy trials; at 10
        # trials that noise alone broke it at 26 of 30 sweep seeds for FHR
        trials=50,
        seed=708,
        output_dir=tmp_path,
    )
    rows = run_experiment(spec)
    raw = [row for row in rows if row.trial != "mean"]
    means = {(row.mechanism, row.epsilon): row for row in rows if row.trial == "mean"}

    worst_inversions = 0
    for mechanism in spec.mechanisms:
        for metric in ("kld", "se"):
            medians = [
                float(np.median([
                    getattr(row, metric)
                    for row in raw
                    if row.mechanism == mechanism and row.epsilon == eps
                ]))
                for eps in epsilons
            ]
            inversions = sum(
                1 for a, b in itertools.pairwise(medians) if b > a
            )
            worst_inversions = max(worst_inversions, inversions)
    trend_ok = worst_inversions <= 1

    ordering_ok = all(
        means[("fhr", eps)].kld <= means[("oue", eps)].kld for eps in (0.5, 1.0)
    )
    elapsed = time.perf_counter() - started
    passed = trend_ok and ordering_ok
    _report(
        capsys, 7, passed,
        f"KLD/SE trendlines max inversions = {worst_inversions} (allow 1); "
        f"FHR KLD <= OUE KLD at eps 0.5 and 1.0: {ordering_ok}; {elapsed:.0f}s",
    )


def test_criterion_08_hadamard_equivalence(capsys):
    """Bit-trick entries equal the block-recursion matrix exactly."""
    passed = True
    for r in range(1, 7):
        order = 2**r
        built = sign_block(np.arange(order, dtype=np.uint64), order)
        passed &= bool(np.array_equal(built, sylvester_matrix(r)))
    _report(capsys, 8, passed, "popcount entries == block recursion for r <= 6")


def test_criterion_09_wire_format(capsys):
    """Packed size formula, exhaustive round-trip, and fuzzed unpacking."""
    sizes_ok = all(
        packed_size(min_order_for_domain(2**r - 1)) == math.ceil((2 * r + 1) / 8)
        for r in range(1, 17)
    )

    round_trip_ok = True
    for r in range(1, 7):
        order = min_order_for_domain(2**r - 1)
        for x, y in itertools.permutations(range(2**r), 2):
            report = FhrReport(index_x=x, index_y=y)
            if unpack_fhr(pack_fhr(report, order), order) != report:
                round_trip_ok = False

    rng = np.random.default_rng(909)
    fuzz_ok = True
    for _ in range(4000):
        r = int(rng.integers(1, 11))
        order = min_order_for_domain(2**r - 1)
        length = int(rng.integers(0, packed_size(order) + 3))
        blob = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
        try:
            decoded = unpack_fhr(blob, order)
            fuzz_ok &= isinstance(decoded, FhrReport)
        except WireFormatError:
            pass
        except Exception:
            fuzz_ok = False
    passed = sizes_ok and round_trip_ok and fuzz_ok
    _report(
        capsys, 9, passed,
        "size = ceil((2r+1)/8), exhaustive round-trip r <= 6, "
        "4000 fuzzed unpacks raise only the wire error",
    )


def test_criterion_10_metric_units_and_oracles(capsys):
    """Identity inputs score perfectly; random tables match the oracles."""
    table = np.arange(1.0, 31.0)
    selection = top_k(table, 10)
    identity_ok = (
        kld(table, table.copy(), selection) == 0.0
        and related_error(table, table.copy(), selection) == 0.0
        and squared_error(table, table.copy(), 10) == 0.0
        and ncr(selection, top_k(table.copy(), 10)) == 1.0
    )

    rng = np.random.default_rng(1010)
    worst = 0.0
    oracle_ok = True
    for _ in range(100):
        size = int(rng.integers(12, 60))
        k = int(rng.integers(3, 11))
        real = rng.random(size) * 100 + 1.0
        est = real + rng.normal(0, 20, size)
        candidates = top_k(real, k)
        smoothing = 1.0 / (10.0 * real.sum())

        pairs = [
            (kld(real, est, candidates), kld_oracle(real, est, candidates.items, smoothing)),
            (
                related_error(real, est, candidates),
                related_error_oracle(real, est, candidates.items),
            ),
            (ncr(candidates, top_k(est, k)), ncr_oracle(real, est, k)),
        ]
        expected_se = squared_error_oracle(real, est, k)
        if expected_se is None:
            try:
                squared_error(real, est, k)
                oracle_ok = False
            except NoOverlapError:
                pass
        else:
            pairs.append((squared_error(real, est, k), expected_se))
        worst = max(worst, max(abs(got - want) for got, want in pairs))
    oracle_ok &= worst <= 1e-12
    passed = identity_ok and oracle_ok
    _report(
        capsys, 10, passed,
        f"identity scores exact; 100 random tables agree with oracles "
        f"(max gap {worst:.2e})",
    )
