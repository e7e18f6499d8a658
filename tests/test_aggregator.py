"""Accumulation, estimation inversions, and variance closed forms."""

import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fldp import aggregator
from fldp.aggregator import (
    SumVector,
    fhr_accumulate,
    fhr_accumulate_indices,
    fhr_estimate_all,
    fhr_variance_bound,
    fhr_variance_exact,
    olh_estimate_all,
    olh_support_counts,
    oue_variance,
    unary_estimate,
    variance_crossover,
)
from fldp.hadamard import HadamardOrder, min_order_for_domain
from fldp.mechanisms import (
    PrivacyParams,
    fhr_perturb_batch,
    olh_hash,
    olh_perturb_batch,
)

from _oracles import (
    fhr_estimate_all_oracle,
    fhr_estimate_oracle,
    olh_hash_oracle,
    unary_perturb_bits_oracle,
)


def _pairs(pairs):
    """(index_x, index_y) tuples as the (n, 2) int64 array a report file reads back."""
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


class TestAccumulate:
    def test_two_reports_cancel(self):
        summed = fhr_accumulate(_pairs([(0, 1), (1, 0)]), HadamardOrder(2))
        assert summed.sums.tolist() == [0, 0, 0, 0]
        assert summed.n == 2

    def test_single_report(self):
        summed = fhr_accumulate(_pairs([(2, 3)]), HadamardOrder(2))
        assert summed.sums.tolist() == [0, 0, 1, -1]
        assert summed.n == 1

    def test_empty_stream(self):
        summed = fhr_accumulate(_pairs([]), HadamardOrder(3))
        assert summed.n == 0
        assert not summed.sums.any()

    def test_index_out_of_order_rejected(self):
        with pytest.raises(ValueError):
            fhr_accumulate_indices(np.array([4]), np.array([1]), HadamardOrder(2))
        for index in (8, 2**63, 2**64 - 1):  # the last two do not fit int64
            with pytest.raises(ValueError, match=r"index outside \[0, 8\)"):
                fhr_accumulate(np.array([[index, 0]], dtype=np.uint64), HadamardOrder(3))

    @pytest.mark.parametrize("shape", [(4, 3), (4,), (0,), (2, 2, 2)])
    def test_anything_but_index_pairs_rejected(self, shape):
        with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
            fhr_accumulate(np.zeros(shape, dtype=np.int64), HadamardOrder(3))

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            fhr_accumulate_indices(np.array([1]), np.array([1]), HadamardOrder(2))

    def test_non_integer_indices_rejected(self):
        # 0.5 would be folded into column 0
        with pytest.raises(ValueError, match="report indices must be integers, got dtype float64"):
            fhr_accumulate_indices([0.5], [1.0], HadamardOrder(2))
        with pytest.raises(ValueError, match="report indices must be integers"):
            fhr_accumulate(np.array([[2.0, 3.0]]), HadamardOrder(2))
        assert fhr_accumulate_indices(np.array([]), np.array([]), HadamardOrder(2)).n == 0

    @settings(max_examples=50)
    @given(st.data())
    def test_merge_matches_sequential(self, data):
        order = HadamardOrder(3)
        pair = st.tuples(
            st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)
        ).filter(lambda t: t[0] != t[1])
        batch_a = data.draw(st.lists(pair, max_size=30))
        batch_b = data.draw(st.lists(pair, max_size=30))
        merged = fhr_accumulate(_pairs(batch_a), order).merge(
            fhr_accumulate(_pairs(batch_b), order)
        )
        merged_flipped = fhr_accumulate(_pairs(batch_b), order).merge(
            fhr_accumulate(_pairs(batch_a), order)
        )
        sequential = fhr_accumulate(_pairs(batch_a + batch_b), order)
        assert np.array_equal(merged.sums, sequential.sums)
        assert np.array_equal(merged_flipped.sums, sequential.sums)
        assert merged.n == merged_flipped.n == sequential.n

    @settings(max_examples=30)
    @given(st.data())
    def test_sumvector_invariants(self, data):
        order = HadamardOrder(3)
        pair = st.tuples(
            st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)
        ).filter(lambda t: t[0] != t[1])
        batch = data.draw(st.lists(pair, max_size=50))
        summed = fhr_accumulate(_pairs(batch), order)
        assert summed.sums.sum() == 0
        assert np.abs(summed.sums).max(initial=0) <= summed.n

    def test_merge_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SumVector(np.zeros(4, dtype=np.int64), 0).merge(
                SumVector(np.zeros(8, dtype=np.int64), 0)
            )


class TestFhrEstimate:
    def test_correction_is_one_at_ln3(self):
        params = PrivacyParams.for_fhr(math.log(3))
        summed = fhr_accumulate(_pairs([(2, 3)]), HadamardOrder(2))
        # with correction exactly 1, the estimate is the raw dot product
        est = fhr_estimate_oracle(summed, 0, params)
        vec = np.array([1, -1, 1, -1])
        assert est == pytest.approx(vec[2] - vec[3], abs=1e-12)

    def test_huge_epsilon_recovers_count_exactly(self):
        # without flips every report contributes dot product 2, and the
        # correction approaches one half, so the estimate approaches n
        eps, n, item = 50.0, 4000, 3
        params = PrivacyParams.for_fhr(eps)
        order = min_order_for_domain(20)
        rng = np.random.default_rng(0)
        ix, iy = fhr_perturb_batch(np.full(n, item), params, order, rng)
        summed = fhr_accumulate_indices(ix, iy, order)
        est = fhr_estimate_oracle(summed, item, params)
        assert est == pytest.approx(n, rel=1e-9)

    def test_monte_carlo_mean_and_variance(self):
        # all users hold one item; the estimate should be unbiased with
        # per-trial variance matching the exact law at n_t = n
        eps, n, trials = 1.0, 100_000, 50
        params = PrivacyParams.for_fhr(eps)
        order = min_order_for_domain(63)
        estimates = []
        for trial in range(trials):
            rng = np.random.default_rng(1000 + trial)
            ix, iy = fhr_perturb_batch(np.full(n, 7), params, order, rng)
            summed = fhr_accumulate_indices(ix, iy, order)
            estimates.append(fhr_estimate_oracle(summed, 7, params))
        estimates = np.asarray(estimates)
        sigma = estimates.std(ddof=1)
        assert abs(estimates.mean() - n) <= 3 * sigma / math.sqrt(trials)
        expected_var = fhr_variance_exact(eps, n, true_count=n)
        assert 0.5 <= estimates.var(ddof=1) / expected_var <= 2.0

    def test_estimate_all_matches_single(self):
        params = PrivacyParams.for_fhr(0.8)
        order = min_order_for_domain(30)
        rng = np.random.default_rng(5)
        items = rng.integers(0, 30, size=5000)
        ix, iy = fhr_perturb_batch(items, params, order, rng)
        summed = fhr_accumulate_indices(ix, iy, order)
        table = fhr_estimate_all(summed, 30, params, order)
        for item in (0, 13, 29):
            assert table.estimates[item] == pytest.approx(
                fhr_estimate_oracle(summed, item, params)
            )

    @pytest.mark.parametrize("domain", [1, 30, 1023, 1024])
    @pytest.mark.parametrize("n", [0, 5000])
    def test_estimate_all_equals_row_block_oracle(self, domain, n):
        params = PrivacyParams.for_fhr(0.8)
        order = min_order_for_domain(domain)
        rng = np.random.default_rng(domain + n)
        ix, iy = fhr_perturb_batch(rng.integers(0, domain, size=n), params, order, rng)
        summed = fhr_accumulate_indices(ix, iy, order)
        before = summed.sums.copy()
        table = fhr_estimate_all(summed, domain, params, order)
        oracle = fhr_estimate_all_oracle(summed, domain, params, order)
        assert table.estimates.shape == (domain,)
        assert np.array_equal(table.estimates, oracle)
        assert np.array_equal(summed.sums, before)  # the transform runs on a copy

    def test_estimate_all_rejects_mismatched_shapes(self):
        params = PrivacyParams.for_fhr(1.0)
        order = HadamardOrder(3)
        with pytest.raises(ValueError, match="do not match"):
            fhr_estimate_all(SumVector(np.zeros(16, dtype=np.int64), 0), 7, params, order)
        with pytest.raises(ValueError, match="too small"):
            fhr_estimate_all(SumVector(np.zeros(8, dtype=np.int64), 0), 8, params, order)

    def test_too_small_order_rejected(self):
        # item i reads row i + 1 and row 0 is reserved, so order 2^r holds
        # at most 2^r - 1 items; an empty domain is rejected too
        params = PrivacyParams.for_fhr(1.0)
        for domain, r in ((4, 2), (8, 3), (0, 3)):
            order = HadamardOrder(r)
            with pytest.raises(ValueError, match="too small"):
                sums = SumVector(np.zeros(order.order, dtype=np.int64), 0)
                fhr_estimate_all(sums, domain, params, order)


class TestGrrEstimate:
    # a GRR tally is a sum of one-hot reports, so unary_estimate inverts it
    def test_expected_counts_invert_exactly(self):
        eps, d, n = math.log(3), 4, 10_000
        params = PrivacyParams.for_grr(eps, d)
        truth = np.array([5000, 3000, 1500, 500], dtype=np.float64)
        expected_counts = truth * params.p + (n - truth) * params.q
        est = unary_estimate(expected_counts, params, expected_counts.sum())
        assert np.allclose(est.estimates, truth, atol=1e-9)

    def test_zero_count_gives_negative_floor(self):
        eps, d, n = 1.0, 5, 1000
        params = PrivacyParams.for_grr(eps, d)
        counts = np.array([n, 0, 0, 0, 0], dtype=np.float64)
        est = unary_estimate(counts, params, counts.sum())
        floor = -n * params.q / (params.p - params.q)
        assert est.estimates[1] == pytest.approx(floor)

    def test_monte_carlo_uniform_domain(self):
        from fldp.mechanisms import grr_perturb_batch

        eps, d, n, trials = math.log(3), 4, 100_000, 20
        params = PrivacyParams.for_grr(eps, d)
        per_trial = []
        for trial in range(trials):
            rng = np.random.default_rng(300 + trial)
            items = np.repeat(np.arange(d), n // d)
            values = grr_perturb_batch(items, params, d, rng)
            counts = np.bincount(values, minlength=d)
            per_trial.append(unary_estimate(counts, params, counts.sum()).estimates)
        means = np.mean(per_trial, axis=0)
        sigma = np.std(per_trial, axis=0, ddof=1) / math.sqrt(trials)
        assert np.all(np.abs(means - n / d) <= 3 * sigma)

    def test_degenerate_parameters_rejected(self):
        # p == q up to rounding cannot be inverted, so such params never build
        with pytest.raises(ValueError, match="degenerate"):
            PrivacyParams(epsilon=1e-9, p=0.5, q=0.5 * (1 - 1e-12))


class TestUnaryEstimate:
    def test_inversion_zero_point(self):
        params = PrivacyParams.for_oue(1.0)
        n = 1000
        est = unary_estimate(np.full(4, n * params.q), params, n)
        assert np.allclose(est.estimates, 0.0, atol=1e-9)

    def test_inversion_fixed_point(self):
        params = PrivacyParams.for_oue(1.0)
        n = 1000
        est = unary_estimate(np.array([n * params.p]), params, n)
        assert est.estimates[0] == pytest.approx(n)

    def test_out_of_range_counts_rejected(self):
        params = PrivacyParams.for_oue(1.0)
        with pytest.raises(ValueError):
            unary_estimate(np.array([1001.0]), params, 1000)

    def test_monte_carlo_unbiased_oue(self):
        eps, d, n, trials = 1.0, 16, 20_000, 50
        params = PrivacyParams.for_oue(eps)
        rng_data = np.random.default_rng(8)
        items = rng_data.integers(0, d, size=n)
        truth = np.bincount(items, minlength=d)
        per_trial = []
        for trial in range(trials):
            rng = np.random.default_rng(900 + trial)
            bits = unary_perturb_bits_oracle(items, params, d, rng)
            per_trial.append(unary_estimate(bits.sum(axis=0), params, n).estimates)
        means = np.mean(per_trial, axis=0)
        sigma = np.std(per_trial, axis=0, ddof=1) / math.sqrt(trials)
        assert np.all(np.abs(means - truth) <= 3 * sigma)


def _olh_reports_with_full_and_zero_support(params, n):
    """n OLH reports on which item 0 has support count n and item 1 has 0.

    Every report carries item 0's own hash, under seeds that hash items 0
    and 1 apart.
    """
    seeds = np.arange(4 * n, dtype=np.uint64)
    seeds = seeds[olh_hash(seeds, 0, params.g) != olh_hash(seeds, 1, params.g)][:n]
    assert seeds.size == n
    return seeds, olh_hash(seeds, 0, params.g)


class TestOlhEstimate:
    def test_zero_support_floor(self):
        params = PrivacyParams.for_olh(1.0)
        n = 1000
        seeds, values = _olh_reports_with_full_and_zero_support(params, n)
        assert olh_support_counts(seeds, values, 2, params.g).tolist() == [n, 0]
        floor = -(n / params.g) / (params.p - 1 / params.g)
        estimates = olh_estimate_all(seeds, values, 2, params).estimates
        assert estimates[1] == pytest.approx(floor)

    def test_inversion_fixed_point(self):
        # the estimate is affine in the support count C(t), so its values
        # at C = n and C = 0 fix it; at C = n*p it must return n
        params = PrivacyParams.for_olh(1.0)
        n = 1000
        seeds, values = _olh_reports_with_full_and_zero_support(params, n)
        at_n, at_zero = olh_estimate_all(seeds, values, 2, params).estimates
        assert at_zero + params.p * (at_n - at_zero) == pytest.approx(n)

    def test_support_counts_match_direct_tally(self):
        eps, d, n = 1.0, 12, 3000
        params = PrivacyParams.for_olh(eps)
        rng = np.random.default_rng(2)
        items = rng.integers(0, d, size=n)
        seeds, values = olh_perturb_batch(items, params, d, rng)
        counts = olh_support_counts(seeds, values, d, params.g)
        for t in range(d):
            direct = sum(
                1
                for s, v in zip(seeds, values)
                if olh_hash_oracle(int(s), t, params.g) == v
            )
            assert counts[t] == direct

    def test_support_counts_reject_bad_input(self):
        params = PrivacyParams.for_olh(1.0)
        seeds = np.arange(4, dtype=np.uint64)
        with pytest.raises(ValueError, match="reported buckets"):
            olh_support_counts(seeds, np.array([0, 1, params.g, 0]), 3, params.g)
        with pytest.raises(ValueError, match="reported buckets"):
            olh_support_counts(seeds, np.array([0, -1, 0, 0]), 3, params.g)
        with pytest.raises(ValueError, match="matching shapes"):
            olh_support_counts(seeds, np.zeros(3, dtype=np.int64), 3, params.g)

    def test_non_integer_buckets_rejected(self):
        # [1.7, 0.2] would be decoded as the buckets [1, 0]
        params = PrivacyParams.for_olh(1.0)
        seeds = np.arange(2, dtype=np.uint64)
        with pytest.raises(ValueError, match="reported buckets must be integers, got dtype float64"):
            olh_support_counts(seeds, np.array([1.7, 0.2]), 4, params.g)
        with pytest.raises(ValueError, match="reported buckets must be integers"):
            olh_estimate_all(seeds, np.array([1.7, 0.2]), 4, params)

    def test_non_integer_seeds_rejected(self):
        # [1.5, 2.5] would be decoded as the seeds [1, 2]
        params = PrivacyParams.for_olh(1.0)
        values = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="seeds must be integers, got dtype float64"):
            olh_support_counts(np.array([1.5, 2.5]), values, 4, params.g)
        with pytest.raises(ValueError, match="seeds must be integers"):
            olh_estimate_all(np.array([1.5, 2.5]), values, 4, params)
        empty = np.array([])
        assert olh_support_counts(empty, empty, 4, params.g).tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("domain_size", [0, -1, 2**32 + 1, 2**40])
    def test_domain_beyond_the_keys_rejected_before_allocating(self, domain_size):
        # the items are keys in [0, 2^32); a wider domain would need a
        # count per item, 32 GiB and up, before any report is read
        params = PrivacyParams.for_olh(1.0)
        seeds = np.arange(4, dtype=np.uint64)
        values = np.zeros(4, dtype=np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"OLH domain size must lie in \[1, 2\^32\]"):
                olh_support_counts(seeds, values, domain_size, params.g)
            with pytest.raises(ValueError, match="OLH domain size"):
                olh_estimate_all(seeds, values, domain_size, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("g", [2, 3])
    def test_support_tally_scratch_memory(self, g):
        # the keys (a, b), the offset key built in b's buffer and one buffer
        # for the bucket gathers: at most four n-sized uint64 arrays
        n = 1 << 17
        rng = np.random.default_rng(5)
        seeds = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        values = rng.integers(0, g, size=n)
        tracemalloc.start()
        try:
            olh_support_counts(seeds, values, 16, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * n

    def test_monte_carlo_unbiased(self):
        eps, d, n, trials = 1.0, 32, 20_000, 30
        params = PrivacyParams.for_olh(eps)
        rng_data = np.random.default_rng(4)
        items = rng_data.integers(0, d, size=n)
        truth = np.bincount(items, minlength=d)
        per_trial = []
        for trial in range(trials):
            rng = np.random.default_rng(700 + trial)
            seeds, values = olh_perturb_batch(items, params, d, rng)
            per_trial.append(olh_estimate_all(seeds, values, d, params).estimates)
        means = np.mean(per_trial, axis=0)
        sigma = np.std(per_trial, axis=0, ddof=1) / math.sqrt(trials)
        assert np.all(np.abs(means - truth) <= 4 * sigma)


def _olh_batch(eps, d, n, seed):
    params = PrivacyParams.for_olh(eps)
    rng = np.random.default_rng(seed)
    seeds, values = olh_perturb_batch(rng.integers(0, d, size=n), params, d, rng)
    return params.g, seeds, values


def _counts_on(monkeypatch, cpus, *args):
    monkeypatch.setattr(aggregator, "_usable_cpus", lambda: cpus)
    return olh_support_counts(*args)


class TestOlhShards:
    """The tally split over threads gives the one-shard counts exactly."""

    @pytest.mark.parametrize("eps", [1.0, 2.0])  # g = 2 and g = 3
    @pytest.mark.parametrize(
        "n",
        [
            aggregator._MIN_SHARD - 1,
            aggregator._MIN_SHARD + 1,
            2 * aggregator._MIN_SHARD + 1,
            3 * aggregator._MIN_SHARD + 2,  # three shards, n not divisible by 3
        ],
    )
    def test_shards_equal_one_shard_and_the_oracle(self, monkeypatch, eps, n):
        d = 3
        g, seeds, values = _olh_batch(eps, d, n, seed=n)
        single = _counts_on(monkeypatch, 1, seeds, values, d, g)
        sharded = _counts_on(monkeypatch, 3, seeds, values, d, g)
        assert sharded.dtype == np.int64
        assert sharded.tolist() == single.tolist()
        pairs = list(zip(seeds.tolist(), values.tolist()))
        oracle = [sum(olh_hash_oracle(s, t, g) == v for s, v in pairs) for t in range(d)]
        assert sharded.tolist() == oracle

    @pytest.mark.parametrize("cpus,shards", [(1, 1), (2, 2), (3, 3), (8, 3)])
    def test_one_shard_per_cpu_up_to_the_minimum_shard(self, monkeypatch, cpus, shards):
        n = 3 * aggregator._MIN_SHARD + 2
        g, seeds, values = _olh_batch(1.0, 2, n, seed=5)
        calls = []
        tally = aggregator._tally

        def spy(offset, *rest):
            calls.append((threading.get_ident(), offset.size))
            return tally(offset, *rest)

        monkeypatch.setattr(aggregator, "_tally", spy)
        _counts_on(monkeypatch, cpus, seeds, values, 2, g)
        sizes = [size for _, size in calls]
        assert len(sizes) == shards
        assert sum(sizes) == n and max(sizes) - min(sizes) <= 1
        assert len({ident for ident, _ in calls}) <= cpus

    def test_empty_batch_and_single_item(self, monkeypatch):
        empty = np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        assert _counts_on(monkeypatch, 3, *empty, 1, 2).tolist() == [0]
        g, seeds, values = _olh_batch(2.0, 4, 2 * aggregator._MIN_SHARD, seed=6)
        single = _counts_on(monkeypatch, 1, seeds, values, 1, g)
        assert _counts_on(monkeypatch, 3, seeds, values, 1, g).tolist() == single.tolist()

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert aggregator._usable_cpus() == (os.cpu_count() or 1)


class TestVarianceFormulas:
    def test_bound_at_ln3(self):
        # (3+1)^2 / (2 (3-1)^2) * 1000 = 16/8 * 1000
        assert fhr_variance_bound(math.log(3), 1000) == pytest.approx(2000.0)

    def test_exact_matches_bound_for_absent_item(self):
        assert fhr_variance_exact(0.7, 500, 0) == pytest.approx(fhr_variance_bound(0.7, 500))

    def test_exact_exceeds_bound_below_crossover(self):
        eps = 1.0  # below ln(3 + 2 sqrt 2), so the n_t coefficient is positive
        assert fhr_variance_exact(eps, 1000, 400) > fhr_variance_bound(eps, 1000)

    def test_crossover_value(self):
        assert variance_crossover() == pytest.approx(math.log(3 + 2 * math.sqrt(2)))
        assert variance_crossover() == pytest.approx(1.7627, abs=5e-4)

    def test_crossover_against_root_finder(self):
        from scipy.optimize import brentq

        root = brentq(
            lambda eps: fhr_variance_bound(eps, 1) - oue_variance(eps, 1), 1.0, 2.5
        )
        assert variance_crossover() == pytest.approx(root, abs=1e-9)

    def test_empirical_variance_for_absent_item(self):
        eps, n, trials = 1.0, 2000, 400
        params = PrivacyParams.for_fhr(eps)
        order = min_order_for_domain(63)
        estimates = []
        for trial in range(trials):
            rng = np.random.default_rng(5000 + trial)
            ix, iy = fhr_perturb_batch(np.zeros(n, dtype=np.int64), params, order, rng)
            summed = fhr_accumulate_indices(ix, iy, order)
            estimates.append(fhr_estimate_oracle(summed, 9, params))
        observed = np.var(estimates, ddof=1)
        expected = fhr_variance_bound(eps, n)
        assert observed == pytest.approx(expected, rel=0.25)

    def test_budget_whose_exponential_rounds_to_one_rejected(self):
        # e^1e-17 == 1.0, where each variance divides by e^eps - 1 = 0
        for variance in (fhr_variance_bound, oue_variance):
            with pytest.raises(ValueError, match="epsilon must lie in"):
                variance(1e-17, 10)
        with pytest.raises(ValueError, match="epsilon must lie in"):
            fhr_variance_exact(1e-17, 10, 1)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf, 1000.0])
    def test_budgets_without_a_finite_exponential_rejected(self, eps):
        for variance in (fhr_variance_bound, oue_variance):
            with pytest.raises(ValueError, match="epsilon must lie in"):
                variance(eps, 10)
        with pytest.raises(ValueError, match="epsilon must lie in"):
            fhr_variance_exact(eps, 10, 1)

    def test_largest_budget_has_finite_variances(self):
        eps = math.log(np.finfo(np.float64).max)
        assert fhr_variance_bound(eps, 10) == pytest.approx(5.0)
        assert fhr_variance_exact(eps, 10, 4) == pytest.approx(3.0)
        assert 0 <= oue_variance(eps, 10) < 1e-300

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            fhr_variance_bound(0.0, 10)
        with pytest.raises(ValueError):
            fhr_variance_bound(1.0, 0)
        with pytest.raises(ValueError):
            fhr_variance_exact(1.0, 10, 11)
