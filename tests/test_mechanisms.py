"""Client-side perturbation: parameters, report validity, and rates."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from hypothesis import given, settings
from hypothesis import strategies as st

from fldp.aggregator import (
    SumVector,
    fhr_accumulate,
    fhr_estimate_all,
    olh_estimate_all,
    olh_support_counts,
    unary_estimate,
)
from fldp.hadamard import HadamardOrder, min_order_for_domain, row_vector
from fldp.mechanisms import (
    MECHANISMS,
    FhrReport,
    PrivacyParams,
    fhr_perturb_batch,
    grr_perturb_batch,
    lookup,
    olh_hash,
    olh_perturb_batch,
    unary_sample_counts,
)
from fldp.verifier import enumerate_range
from fldp.wire import report_size_table

from _oracles import (
    fhr_perturb_batch_oracle,
    fhr_range_oracle,
    olh_hash_oracle,
    unary_perturb_bits_oracle,
    unary_range_oracle,
)


class TestPrivacyParams:
    def test_fhr_keep_probability_at_ln3(self):
        params = PrivacyParams.for_fhr(math.log(3))
        assert params.p == pytest.approx(0.75, abs=1e-12)

    def test_fhr_correction_is_one_at_ln3(self):
        params = PrivacyParams.for_fhr(math.log(3))
        assert params.correction == pytest.approx(1.0, abs=1e-12)

    def test_grr_at_ln3_domain_3(self):
        params = PrivacyParams.for_grr(math.log(3), 3)
        assert params.p == pytest.approx(0.6, abs=1e-12)
        assert params.q == pytest.approx(0.2, abs=1e-12)

    def test_oue_q_at_ln3(self):
        params = PrivacyParams.for_oue(math.log(3))
        assert params.p == 0.5
        assert params.q == pytest.approx(0.25, abs=1e-12)

    def test_rappor_uses_half_budget(self):
        eps = 1.0
        params = PrivacyParams.for_rappor(eps)
        e2 = math.exp(eps / 2)
        assert params.p == pytest.approx(e2 / (e2 + 1))
        assert params.q == pytest.approx(1 - params.p)

    @pytest.mark.parametrize("eps,g", [(0.4, 2), (1.0, 2), (1.5, 3), (2.0, 3), (3.0, 4)])
    def test_olh_hash_range(self, eps, g):
        assert PrivacyParams.for_olh(eps).g == g

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_nonpositive_epsilon_rejected(self, eps):
        with pytest.raises(ValueError):
            PrivacyParams.for_fhr(eps)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 1e308, 1000.0, 709.79])
    @pytest.mark.parametrize("name", list(MECHANISMS))
    def test_budget_with_overflowing_exponential_rejected(self, name, eps):
        # e^eps must be a finite float; above ln(max float) it is not
        with pytest.raises(ValueError, match="epsilon must lie in"):
            MECHANISMS[name].params(eps, 16)

    @pytest.mark.parametrize("name", list(MECHANISMS))
    def test_budget_whose_exponential_rounds_to_one_rejected(self, name):
        # e^1e-17 == 1.0, where p - q and e^eps - 1 vanish
        assert math.exp(1e-17) == 1
        with pytest.raises(ValueError, match="epsilon must lie in"):
            MECHANISMS[name].params(1e-17, 16)
        # at 1e-15 p and q agree to within rounding, which no inversion survives
        if name in ("grr", "oue", "rappor"):
            with pytest.raises(ValueError, match="degenerate"):
                MECHANISMS[name].params(1e-15, 16)
        else:
            MECHANISMS[name].params(1e-15, 16)
        MECHANISMS[name].params(1e-8, 16)

    @pytest.mark.parametrize("name", list(MECHANISMS))
    def test_largest_budget_builds_finite_params(self, name):
        eps = math.log(np.finfo(np.float64).max)
        params = MECHANISMS[name].params(eps, 16)
        fields = (params.p, params.q, params.g, params.correction)
        assert all(math.isfinite(v) for v in fields if v is not None)
        if name == "fhr":
            assert params.correction == 0.5

    def test_grr_needs_domain_of_two(self):
        with pytest.raises(ValueError):
            PrivacyParams.for_grr(1.0, 1)

    def test_q_must_stay_below_p(self):
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=1.0, p=0.3, q=0.5)


class TestFhrReport:
    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError, match="report indices must differ, got 2 twice"):
            FhrReport(index_x=2, index_y=2)
        with pytest.raises(ValueError, match="report indices must differ, got 5 twice"):
            FhrReport(5, 5)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="report indices must be nonnegative"):
            FhrReport(index_x=-1, index_y=0)
        with pytest.raises(ValueError, match="report indices must be nonnegative"):
            FhrReport(0, -1)

    def test_slotted_record_without_instance_dict(self):
        report = FhrReport(3, 5)
        assert not hasattr(report, "__dict__")
        assert FhrReport.__slots__ == ("index_x", "index_y")
        assert (report.index_x, report.index_y) == (3, 5)

    def test_positional_and_keyword_construction_agree(self):
        assert FhrReport(1, 0) == FhrReport(index_x=1, index_y=0)
        assert FhrReport(1, 0) != FhrReport(0, 1)
        assert repr(FhrReport(1, 0)) == "FhrReport(index_x=1, index_y=0)"
        assert repr(FhrReport(index_x=1, index_y=0)) == "FhrReport(index_x=1, index_y=0)"

    # a single report accumulates to its implied sparse vector
    def test_sparse_expansion(self):
        order = HadamardOrder(2)
        vec = fhr_accumulate(np.array([[0, 1]]), order).sums
        assert vec.tolist() == [1, -1, 0, 0]

    def test_sparse_expansion_reversed(self):
        order = HadamardOrder(2)
        vec = fhr_accumulate(np.array([[3, 0]]), order).sums
        assert vec.tolist() == [-1, 0, 0, 1]

    @given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
    def test_sparse_sums_to_zero(self, x, y):
        if x == y:
            return
        vec = fhr_accumulate(np.array([[x, y]]), HadamardOrder(4)).sums
        assert vec.sum() == 0


class TestFhrPerturb:
    def test_reachable_reports_item_0_order_4(self):
        # row 1 of order 4 has +1 at {0, 2} and -1 at {1, 3}; the eight
        # ordered pairs across the two halves are the only possible reports
        params = PrivacyParams.for_fhr(1.0)
        order = HadamardOrder(2)
        rng = np.random.default_rng(1)
        ix, iy = fhr_perturb_batch(np.zeros(400, dtype=np.int64), params, order, rng)
        seen = set(zip(ix.tolist(), iy.tolist()))
        expected = {(a, b) for a in (0, 2) for b in (1, 3)}
        expected |= {(b, a) for a, b in expected}
        assert seen == expected

    def test_indices_always_land_on_opposite_signs(self):
        params = PrivacyParams.for_fhr(0.7)
        order = min_order_for_domain(40)
        rng = np.random.default_rng(7)
        items = rng.integers(0, 40, size=2000)
        ix, iy = fhr_perturb_batch(items, params, order, rng)
        for item, x, y in zip(items, ix, iy):
            vec = row_vector(item + 1, order.order)
            assert vec[x] == -vec[y]

    def test_unflipped_fraction_matches_keep_probability(self):
        # at eps = ln 3 roughly three quarters of reports keep orientation
        eps = math.log(3)
        params = PrivacyParams.for_fhr(eps)
        order = HadamardOrder(3)
        rng = np.random.default_rng(11)
        items = np.zeros(100_000, dtype=np.int64)
        ix, iy = fhr_perturb_batch(items, params, order, rng)
        vec = row_vector(1, order.order)
        unflipped = np.mean(vec[ix] == 1)
        assert unflipped == pytest.approx(0.75, abs=0.01)

    def test_conditional_uniformity_is_exact_by_construction(self):
        # the sampler draws u uniformly and folds it onto the wanted half
        # with one XOR; enumerating every u shows the fold is two-to-one,
        # so each target column is exactly as likely as any other
        for order in (8, 16):
            for row in range(1, order):
                m = row & -row
                pos = set(np.flatnonzero(row_vector(row, order) > 0).tolist())
                hits = {c: 0 for c in pos}
                for u in range(order):
                    x = u if bin(row & u).count("1") % 2 == 0 else u ^ m
                    hits[x] += 1
                assert set(hits.values()) == {2}

    def test_item_outside_domain_rejected(self):
        params = PrivacyParams.for_fhr(1.0)
        with pytest.raises(ValueError):
            fhr_perturb_batch(np.array([3]), params, HadamardOrder(2), np.random.default_rng(0))

    def test_identical_seeds_reproduce_reports(self):
        params = PrivacyParams.for_fhr(1.0)
        order = HadamardOrder(4)
        items = np.arange(15)
        a = fhr_perturb_batch(items, params, order, np.random.default_rng(5))
        b = fhr_perturb_batch(items, params, order, np.random.default_rng(5))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("domain", [1, 3, 1023, 65535])
    @pytest.mark.parametrize("eps", [0.1, 1.0, 2.0, 30.0, 709.0])
    def test_reports_match_the_where_form_bit_for_bit(self, domain, eps):
        # fixed-seed reports, and with them results.csv, depend on the draws:
        # both columns, then the keep coins, folded and swapped as the
        # np.where form does
        params = PrivacyParams.for_fhr(eps)
        order = min_order_for_domain(domain)
        items = np.random.default_rng(domain).integers(0, domain, size=3000)
        got = fhr_perturb_batch(items, params, order, np.random.default_rng(21))
        want = fhr_perturb_batch_oracle(items, params, order, np.random.default_rng(21))
        for column, expected in zip(got, want):
            assert column.dtype == np.int64
            assert np.array_equal(column, expected)

    def test_scalar_item_is_a_batch_of_one(self):
        params, order = PrivacyParams.for_fhr(1.0), HadamardOrder(3)
        got = fhr_perturb_batch(5, params, order, np.random.default_rng(3))
        want = fhr_perturb_batch_oracle(np.array([5]), params, order, np.random.default_rng(3))
        for column, expected in zip(got, want):
            assert column.shape == (1,) and column.dtype == np.int64
            assert np.array_equal(column, expected)

    def test_wrong_params_type_rejected(self):
        grr_params = PrivacyParams.for_grr(1.0, 4)
        with pytest.raises(ValueError):
            fhr_perturb_batch(np.array([0]), grr_params, HadamardOrder(3), np.random.default_rng(0))


class TestGrrPerturb:
    def test_keep_rate(self):
        eps, d = math.log(3), 3
        rng = np.random.default_rng(3)
        items = np.ones(100_000, dtype=np.int64)
        out = grr_perturb_batch(items, PrivacyParams.for_grr(eps, d), d, rng)
        assert np.mean(out == 1) == pytest.approx(0.6, abs=0.01)
        # each wrong answer is equally likely
        assert np.mean(out == 0) == pytest.approx(0.2, abs=0.01)
        assert np.mean(out == 2) == pytest.approx(0.2, abs=0.01)

    def test_draws_keep_then_offset(self):
        # the keep draws come first and then the nonzero offsets, an order
        # that fixed-seed reports (and results.csv) depend on
        params = PrivacyParams.for_grr(1.0, 7)
        items = np.random.default_rng(1).integers(0, 7, size=2000)
        out = grr_perturb_batch(items, params, 7, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        keep = rng.random(items.size) < params.p
        shifted = (items + rng.integers(1, 7, size=items.size)) % 7
        assert np.array_equal(out, np.where(keep, items, shifted))

    def test_large_epsilon_keeps_item(self):
        params = PrivacyParams.for_grr(40.0, 8)
        out = grr_perturb_batch(np.full(1000, 4), params, 8, np.random.default_rng(0))
        assert np.all(out == 4)

    def test_outputs_stay_in_domain(self):
        rng = np.random.default_rng(9)
        items = rng.integers(0, 6, size=5000)
        out = grr_perturb_batch(items, PrivacyParams.for_grr(0.5, 6), 6, rng)
        assert out.min() >= 0 and out.max() < 6

    def test_scalar_wrapper(self):
        params = PrivacyParams.for_grr(1.0, 5)
        out = grr_perturb_batch(np.array([2]), params, 5, np.random.default_rng(0))
        assert out.shape == (1,) and 0 <= out[0] < 5

    def test_domain_too_small_rejected(self):
        with pytest.raises(ValueError):
            MECHANISMS["grr"].params(1.0, 1)

    def test_item_outside_domain_rejected(self):
        params = PrivacyParams.for_grr(1.0, 5)
        with pytest.raises(ValueError, match="item outside domain"):
            grr_perturb_batch(np.array([5]), params, 5, np.random.default_rng(0))

    def test_wrong_params_type_rejected(self):
        with pytest.raises(ValueError):
            grr_perturb_batch(np.array([0]), PrivacyParams.for_olh(1.0), 5, np.random.default_rng(0))


class TestUnaryPerturb:
    """The per-user law (tests/_oracles.py) that the count sampler draws
    the sums of, and the checks the sampler makes on its inputs."""

    def test_report_shape_and_dtype(self):
        params = PrivacyParams.for_oue(1.0)
        bits = unary_perturb_bits_oracle(np.array([3]), params, 10, np.random.default_rng(0))
        assert bits.shape == (1, 10) and bits.dtype == np.uint8
        assert set(np.unique(bits)) <= {0, 1}

    @pytest.mark.parametrize("variant", ["oue", "rappor"])
    def test_per_bit_rates(self, variant):
        eps, d = 1.0, 8
        params = MECHANISMS[variant].params(eps, d)
        rng = np.random.default_rng(21)
        items = np.full(100_000, 2, dtype=np.int64)
        bits = unary_perturb_bits_oracle(items, params, d, rng)
        hot_rate = bits[:, 2].mean()
        cold_rate = bits[:, 5].mean()
        assert hot_rate == pytest.approx(params.p, abs=0.01)
        assert cold_rate == pytest.approx(params.q, abs=0.01)

    def test_expected_set_bits_oue(self):
        eps, d = math.log(3), 16
        params = PrivacyParams.for_oue(eps)
        rng = np.random.default_rng(2)
        bits = unary_perturb_bits_oracle(np.zeros(50_000, dtype=np.int64), params, d, rng)
        expected = params.p + (d - 1) * params.q
        assert bits.sum(axis=1).mean() == pytest.approx(expected, rel=0.02)

    def test_unknown_variant_rejected(self):
        # the variant is whatever params are passed; non-unary ones are refused
        with pytest.raises(ValueError):
            unary_sample_counts(
                np.array([0]), PrivacyParams.for_fhr(1.0), 4, np.random.default_rng(0)
            )
        with pytest.raises(ValueError, match="unknown mechanism"):
            lookup("sue")

    def test_item_outside_domain_rejected(self):
        params = PrivacyParams.for_rappor(1.0)
        with pytest.raises(ValueError, match="item outside domain"):
            unary_sample_counts(np.array([4]), params, 4, np.random.default_rng(0))


class TestUnarySampleCounts:
    """The count-level sampler has the law of the summed per-user reports."""

    @staticmethod
    def _both_paths(variant, trials):
        eps, d = 1.0, 8
        params = MECHANISMS[variant].params(eps, d)
        items = np.repeat(np.arange(d), [300, 150, 80, 40, 20, 10, 0, 400])
        per_user = np.array([
            unary_perturb_bits_oracle(items, params, d, np.random.default_rng(100 + t)).sum(axis=0)
            for t in range(trials)
        ])
        sampled = np.array([
            unary_sample_counts(items, params, d, np.random.default_rng(5000 + t))
            for t in range(trials)
        ])
        holders = np.bincount(items, minlength=d)
        mean = holders * params.p + (items.size - holders) * params.q
        var = holders * params.p * (1 - params.p) + (items.size - holders) * params.q * (1 - params.q)
        return per_user, sampled, mean, var

    @pytest.mark.parametrize("variant", ["oue", "rappor"])
    def test_mean_and_variance_match_per_user_path(self, variant):
        trials = 2000
        per_user, sampled, mean, var = self._both_paths(variant, trials)
        for counts in (per_user, sampled):
            # 5 standard errors of the sample mean, and of the sample
            # variance (its standard error is about var * sqrt(2/trials))
            assert np.all(np.abs(counts.mean(axis=0) - mean) <= 5 * np.sqrt(var / trials))
            spread = counts.var(axis=0, ddof=1)
            assert np.all(np.abs(spread - var) <= 5 * var * math.sqrt(2 / trials))

    @pytest.mark.parametrize("variant", ["oue", "rappor"])
    def test_chi_square_across_positions(self, variant):
        # sum over positions of squared standardized mean gaps: chi-square
        # with d degrees of freedom, each path against the exact means and
        # the two paths against each other
        trials = 2000
        per_user, sampled, mean, var = self._both_paths(variant, trials)
        d = mean.size
        for counts in (per_user, sampled):
            statistic = np.sum((counts.mean(axis=0) - mean) ** 2 / (var / trials))
            assert stats.chi2.sf(statistic, d) > 1e-3
        gap = per_user.mean(axis=0) - sampled.mean(axis=0)
        assert stats.chi2.sf(np.sum(gap**2 / (2 * var / trials)), d) > 1e-3

    def test_count_range_and_dtype(self):
        params = PrivacyParams.for_oue(0.5)
        items = np.array([0, 0, 3, 9])
        counts = unary_sample_counts(items, params, 10, np.random.default_rng(0))
        assert counts.shape == (10,) and counts.dtype == np.int64
        assert counts.min() >= 0 and counts.max() <= items.size

    def test_validates_like_the_per_user_path(self):
        # the item and params checks are TestUnaryPerturb's
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least 2"):
            unary_sample_counts(np.array([0]), PrivacyParams.for_oue(1.0), 1, rng)


class TestOlh:
    def test_hash_is_deterministic_and_in_range(self):
        for g in (2, 3, 5):
            values = {olh_hash(12345, item, g) for item in range(100)}
            assert values <= set(range(g))
        assert olh_hash(7, 42, 3) == olh_hash(7, 42, 3)

    def test_vector_hash_matches_scalar(self):
        seeds = np.array([1, 2, 3, 2**63, 2**64 - 1], dtype=np.uint64)
        items = np.array([10, 20, 30, 40, 10**9])
        vec = olh_hash(seeds, items, 3)
        for s, i, v in zip(seeds, items, vec):
            assert olh_hash_oracle(int(s), int(i), 3) == v
            assert olh_hash(int(s), int(i), 3) == v

    @pytest.mark.parametrize("g", [2, 3, 5])
    def test_distinct_items_collide_at_rate_one_over_g(self, g):
        seeds = np.random.default_rng(31).integers(0, 2**64, size=40_000, dtype=np.uint64)
        bound = 5 * math.sqrt((1 / g) * (1 - 1 / g) / seeds.size)
        for t, u in ((0, 1), (17, 18), (3, 1000), (5, 2**32 - 1)):
            rate = np.mean(olh_hash(seeds, t, g) == olh_hash(seeds, u, g))
            assert abs(rate - 1 / g) <= bound, (t, u, rate)
        # each item alone spreads evenly over the g buckets
        shares = np.bincount(olh_hash(seeds, 7, g), minlength=g) / seeds.size
        assert np.all(np.abs(shares - 1 / g) <= bound)

    def test_keys_beyond_32_bits_rejected(self):
        for item in (2**32, 2**40, -1):
            with pytest.raises(ValueError, match="not an OLH key"):
                olh_hash(7, item, 3)
            with pytest.raises(ValueError, match="not an OLH key"):
                olh_hash(np.array([7, 8], dtype=np.uint64), np.array([0, item]), 3)
        assert 0 <= olh_hash(7, 2**32 - 1, 3) < 3
        # a domain may be wider than the hash's keys; such items are refused
        with pytest.raises(ValueError, match="not an OLH key"):
            olh_perturb_batch(
                np.array([2**32]), PrivacyParams.for_olh(1.0), 2**40, np.random.default_rng(0)
            )

    def test_support_rate_matches_p(self):
        eps = 1.0
        params = PrivacyParams.for_olh(eps)
        rng = np.random.default_rng(17)
        items = np.full(100_000, 9, dtype=np.int64)
        seeds, values = olh_perturb_batch(items, params, 10, rng)
        buckets = olh_hash(seeds, items, params.g)
        assert np.mean(values == buckets) == pytest.approx(params.p, abs=0.01)

    def test_scalar_wrapper(self):
        params = PrivacyParams.for_olh(2.0)
        seeds, values = olh_perturb_batch(np.array([5]), params, 6, np.random.default_rng(0))
        assert seeds.shape == values.shape == (1,)
        assert 0 <= values[0] < params.g

    def test_item_outside_domain_rejected(self):
        params = PrivacyParams.for_olh(1.0)
        for item in (-1, 1023, 5_000_000):
            with pytest.raises(ValueError, match="item outside domain"):
                olh_perturb_batch(np.array([item]), params, 1023, np.random.default_rng(0))

    def test_domain_check_draws_nothing(self):
        # the domain argument adds a check, not a draw: reports for in-domain
        # items equal the ones drawn with a domain that admits any item
        params = PrivacyParams.for_olh(1.0)
        items = np.arange(50)
        a = olh_perturb_batch(items, params, 50, np.random.default_rng(8))
        b = olh_perturb_batch(items, params, 2**40, np.random.default_rng(8))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("eps", [0.5, 2.0, 5.0])  # g = 2, 3, 6
    def test_reports_are_grr_over_the_hashed_buckets(self, eps):
        # OLH's value is GRR's draw, over g buckets with OLH's p, applied to
        # the item's hash under the seed drawn first from the same generator
        params = PrivacyParams.for_olh(eps)
        grr_params = PrivacyParams.for_grr(eps, params.g)
        assert grr_params.p == params.p
        items = np.random.default_rng(3).integers(0, 500, size=5000)
        seeds, values = olh_perturb_batch(items, params, 500, np.random.default_rng(12))
        rng = np.random.default_rng(12)
        grr_seeds = rng.integers(0, 2**64, size=items.size, dtype=np.uint64)
        buckets = olh_hash(grr_seeds, items, params.g)
        assert np.array_equal(seeds, grr_seeds)
        assert np.array_equal(values, grr_perturb_batch(buckets, grr_params, params.g, rng))

    def test_wrong_params_type_rejected(self):
        with pytest.raises(ValueError):
            olh_perturb_batch(np.array([0]), PrivacyParams.for_grr(1.0, 4), 4, np.random.default_rng(0))

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=10**9))
    def test_hash_range_property(self, seed, item):
        assert 0 <= olh_hash(seed, item, 4) < 4


class TestInputsAreNotWritten:
    """The clients and the OLH decoder update their own buffers in place;
    the caller's items, seeds and values stay bit-identical."""

    @staticmethod
    def _run_all(items, domain):
        # every caller array is passed read-only, so a write through raises
        def frozen(array):
            array = np.array(array)
            array.flags.writeable = False
            return array

        items = frozen(items)
        before = items.copy()
        rng = np.random.default_rng(4)
        fhr_perturb_batch(items, PrivacyParams.for_fhr(1.0), min_order_for_domain(domain), rng)
        grr_perturb_batch(items, PrivacyParams.for_grr(1.0, domain), domain, rng)
        for eps in (0.5, 2.0):  # g = 2 and 3
            params = PrivacyParams.for_olh(eps)
            seeds, values = (frozen(a) for a in olh_perturb_batch(items, params, domain, rng))
            reports = seeds.copy(), values.copy()
            olh_hash(seeds, items, params.g)
            olh_support_counts(seeds, values, domain, params.g)
            olh_estimate_all(seeds, values, domain, params)
            for array, copy in zip((seeds, values), reports):
                assert array.dtype == copy.dtype and array.tobytes() == copy.tobytes()
        assert items.dtype == before.dtype and items.tobytes() == before.tobytes()

    # int64 items pass the domain check without a copy
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64])
    def test_arrays(self, dtype):
        items = np.random.default_rng(3).integers(0, 64, size=40_000).astype(dtype)
        self._run_all(items, 64)

    def test_single_report(self):
        self._run_all(np.array([5]), 8)


# each client with its params and domain: a float item is rejected rather
# than truncated to a neighbouring item; an empty batch passes in any dtype
_CLIENTS = {
    "fhr_perturb_batch": lambda items, rng: fhr_perturb_batch(
        items, PrivacyParams.for_fhr(1.0), HadamardOrder(2), rng
    ),
    "grr_perturb_batch": lambda items, rng: grr_perturb_batch(
        items, PrivacyParams.for_grr(1.0, 4), 4, rng
    ),
    "unary_sample_counts": lambda items, rng: unary_sample_counts(
        items, PrivacyParams.for_oue(1.0), 4, rng
    ),
    "olh_perturb_batch": lambda items, rng: olh_perturb_batch(
        items, PrivacyParams.for_olh(1.0), 4, rng
    ),
}


class TestNonIntegerItems:
    @pytest.mark.parametrize("client", list(_CLIENTS))
    @pytest.mark.parametrize("items", [[2.9], [0.7, 1.0], [True]])
    def test_rejected(self, client, items):
        with pytest.raises(ValueError, match="items must be integers, got dtype"):
            _CLIENTS[client](np.array(items), np.random.default_rng(0))

    @pytest.mark.parametrize("client", list(_CLIENTS))
    def test_empty_batch_of_any_dtype_accepted(self, client):
        _CLIENTS[client](np.array([]), np.random.default_rng(0))


class TestScratchMemory:
    """The clients keep their draws in place: peak traced memory at
    n = 2^17, in units of one n-sized uint64 array."""

    N = 1 << 17

    def _peak_units(self, call):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (8 * self.N)

    def test_fhr_client(self):
        items = np.random.default_rng(1).integers(0, 1023, size=self.N)
        params, order = PrivacyParams.for_fhr(1.0), min_order_for_domain(1023)
        rng = np.random.default_rng(2)
        # two draws, the rows, one scratch array and the keep coins
        assert self._peak_units(lambda: fhr_perturb_batch(items, params, order, rng)) <= 5

    def test_grr_client(self):
        items = np.random.default_rng(1).integers(0, 1023, size=self.N)
        params = PrivacyParams.for_grr(1.0, 1023)
        rng = np.random.default_rng(2)
        # the keep coins, then the offset draw that becomes the output
        assert self._peak_units(lambda: grr_perturb_batch(items, params, 1023, rng)) <= 2

    def test_olh_client(self):
        items = np.random.default_rng(1).integers(0, 1023, size=self.N)
        params = PrivacyParams.for_olh(1.0)
        rng = np.random.default_rng(2)
        # the seeds, the key built in a's buffer, b, then the keep coins
        # and the randomized response beside the seeds and buckets
        assert self._peak_units(lambda: olh_perturb_batch(items, params, 1023, rng)) <= 3.25


class TestRegistry:
    def test_names_in_sweep_order(self):
        assert tuple(MECHANISMS) == ("fhr", "grr", "oue", "rappor", "olh")
        assert all(name == m.name for name, m in MECHANISMS.items())

    @pytest.mark.parametrize("eps", [0.4, 1.0, 2.0])
    def test_params_match_the_constructors(self, eps):
        d = 9
        assert MECHANISMS["fhr"].params(eps, d) == PrivacyParams.for_fhr(eps)
        assert MECHANISMS["grr"].params(eps, d) == PrivacyParams.for_grr(eps, d)
        assert MECHANISMS["oue"].params(eps, d) == PrivacyParams.for_oue(eps)
        assert MECHANISMS["rappor"].params(eps, d) == PrivacyParams.for_rappor(eps)
        assert MECHANISMS["olh"].params(eps, d) == PrivacyParams.for_olh(eps)

    def test_size_table_is_a_view_of_the_records(self):
        table = report_size_table(100, 2.0)
        assert list(table) == list(MECHANISMS)
        assert table == {name: m.report_bits(100, 2.0) for name, m in MECHANISMS.items()}

    def test_expected_overlap(self):
        assert {name: m.eta for name, m in MECHANISMS.items()} == {
            "fhr": 0.5, "grr": 1.0, "oue": 1.0, "rappor": 1.0, "olh": None,
        }

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism 'shr'"):
            lookup("shr")


# each function that reads a params field, with the mechanisms whose params
# set that field, its own first; called with any other mechanism's params
# it must refuse
_PARAMS_READERS = {
    "fhr_perturb_batch": (
        ("fhr",),
        lambda params: fhr_perturb_batch(
            np.array([0]), params, HadamardOrder(2), np.random.default_rng(0)
        ),
    ),
    "fhr_estimate_all": (
        ("fhr",),
        lambda params: fhr_estimate_all(
            SumVector(np.zeros(4, dtype=np.int64), 0), 3, params, HadamardOrder(2)
        ),
    ),
    "fhr_range_oracle": (("fhr",), lambda params: fhr_range_oracle(0, params, 3)),
    "grr_perturb_batch": (
        ("grr", "oue", "rappor"),
        lambda params: grr_perturb_batch(np.array([0]), params, 4, np.random.default_rng(0)),
    ),
    "unary_sample_counts": (
        ("oue", "rappor", "grr"),
        lambda params: unary_sample_counts(np.array([0]), params, 4, np.random.default_rng(0)),
    ),
    "unary_estimate": (
        ("oue", "rappor", "grr"),
        lambda params: unary_estimate(np.array([1.0, 0.0, 0.0, 0.0]), params, 1),
    ),
    "enumerate_range[grr]": (
        ("grr", "oue", "rappor"),
        lambda params: enumerate_range("grr", 0, params, 4),
    ),
    **{
        f"unary_range_oracle[{name}]": (
            (name, *({"grr", "oue", "rappor"} - {name})),
            lambda params, name=name: unary_range_oracle(name, 0, params, 4),
        )
        for name in ("oue", "rappor")
    },
    "olh_perturb_batch": (
        ("olh",),
        lambda params: olh_perturb_batch(np.array([0]), params, 4, np.random.default_rng(0)),
    ),
    "olh_estimate_all": (
        ("olh",),
        lambda params: olh_estimate_all(
            np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.int64), 4, params
        ),
    ),
}


class TestParamsChecks:
    @pytest.mark.parametrize(
        "reader, foreign",
        [
            (reader, name)
            for reader, (owners, _) in _PARAMS_READERS.items()
            for name in MECHANISMS
            if name not in owners
        ],
    )
    def test_another_mechanisms_params_rejected(self, reader, foreign):
        call = _PARAMS_READERS[reader][1]
        with pytest.raises(ValueError, match="params were not built for"):
            call(MECHANISMS[foreign].params(1.0, 4))

    @pytest.mark.parametrize("reader", list(_PARAMS_READERS))
    def test_own_params_accepted(self, reader):
        owners, call = _PARAMS_READERS[reader]
        call(MECHANISMS[owners[0]].params(1.0, 4))
