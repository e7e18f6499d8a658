"""Metric identities, hand-computed values, and oracle equivalence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fldp.metrics import NoOverlapError, TopKSelection, kld, ncr, related_error, squared_error, top_k

from _oracles import (
    kld_oracle,
    median_oracle,
    ncr_oracle,
    related_error_oracle,
    squared_error_oracle,
    top_k_oracle,
)


def _random_tables(rng, size):
    real = rng.integers(1, 1000, size=size).astype(np.float64)
    est = real + rng.normal(0, 100, size=size)
    return real, est


class TestTopK:
    def test_ranking_descending(self):
        sel = top_k(np.array([5.0, 9.0, 1.0, 7.0]), 3)
        assert sel.items.tolist() == [1, 3, 0]

    def test_ties_break_by_ascending_index(self):
        sel = top_k(np.array([5.0, 7.0, 7.0, 1.0]), 2)
        assert sel.items.tolist() == [1, 2]
        sel = top_k(np.array([3.0, 3.0, 3.0]), 2)
        assert sel.items.tolist() == [0, 1]
        sel = top_k(np.array([1.0, 3.0, 3.0, 3.0, 2.0]), 2)  # ties across the k-th value
        assert sel.items.tolist() == [1, 2]
        sel = top_k(np.array([0.0, -0.0, -0.0, 0.0, -1.0]), 3)  # -0.0 == 0.0
        assert sel.items.tolist() == [0, 1, 2]

    def test_k_larger_than_table(self):
        sel = top_k(np.array([2.0, 1.0]), 5)
        assert sel.items.tolist() == [0, 1]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            top_k(np.array([1.0]), 0)

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=30),
           st.integers(min_value=1, max_value=10))
    def test_matches_oracle(self, values, k):
        table = np.asarray(values, dtype=np.float64)
        assert top_k(table, k).items.tolist() == top_k_oracle(values, k)

    def test_partial_selection_matches_full_sort(self):
        rng = np.random.default_rng(20)
        for trial in range(600):
            size = int(rng.integers(2, 120))
            kind = trial % 3
            if kind == 0:  # integer counts over few values: many ties
                table = rng.integers(0, 6, size=size).astype(np.float64)
            elif kind == 1:  # both signed zeros among tied values
                table = rng.choice([0.0, -0.0, 1.0, -2.0], size=size)
                table[rng.choice(size, size=2, replace=False)] = [0.0, -0.0]
            else:
                table = rng.normal(size=size)
            ks = {1, size - 1, size, size + 1, 3 * size, int(rng.integers(1, size + 1))}
            for k in ks:
                assert top_k(table, k).items.tolist() == top_k_oracle(table, k), (table, k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [1, 2, 4, 10])
    def test_non_finite_table_rejected(self, bad, k):
        table = np.array([3.0, 1.0, bad, 2.0])
        with pytest.raises(ValueError, match="finite table, got NaN or infinite"):
            top_k(table, k)

    def test_selection_validation(self):
        with pytest.raises(ValueError):
            TopKSelection(k=2, items=np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            TopKSelection(k=3, items=np.array([1, 1]))


class TestKld:
    def test_identity_is_zero(self):
        table = np.array([40.0, 30.0, 20.0, 10.0])
        assert kld(table, table, top_k(table, 3)) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        real, est = _random_tables(rng, 20)
        est = np.abs(est)
        sel = top_k(real, 8)
        assert kld(real, est, sel) == pytest.approx(kld(est, real, sel))

    def test_two_point_hand_computation(self):
        real = np.array([0.5, 0.5])
        est = np.array([0.75, 0.25])
        sel = top_k(real, 2)
        forward = 0.75 * math.log(0.75 / 0.5) + 0.25 * math.log(0.25 / 0.5)
        backward = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        expected = 0.5 * (forward + backward)
        assert kld(real, est, sel, smoothing=0.0) == pytest.approx(expected, abs=1e-12)

    def test_negative_estimates_are_clipped(self):
        real = np.array([10.0, 5.0, 1.0])
        est = np.array([12.0, -3.0, 2.0])
        value = kld(real, est, top_k(real, 3))
        assert np.isfinite(value) and value > 0

    def test_zero_mass_without_smoothing_rejected(self):
        real = np.array([1.0, 0.0])
        sel = TopKSelection(k=2, items=np.array([0, 1]))
        with pytest.raises(ValueError):
            kld(real, real, sel, smoothing=0.0)

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        real, est = _random_tables(rng, 15)
        sel = top_k(real, 6)
        smoothing = 1.0 / (10.0 * real.sum())
        expected = kld_oracle(real, est, sel.items.tolist(), smoothing)
        assert kld(real, est, sel) == pytest.approx(expected, abs=1e-12)


class TestRelatedError:
    def test_identity_is_zero(self):
        table = np.array([9.0, 6.0, 3.0])
        assert related_error(table, table, top_k(table, 2)) == 0.0

    def test_uniform_scaling(self):
        real = np.array([50.0, 30.0, 20.0])
        assert related_error(real, 1.1 * real, top_k(real, 3)) == pytest.approx(0.1)

    def test_median_odd_and_even(self):
        real = np.array([10.0, 10.0, 10.0, 10.0])
        est = np.array([11.0, 12.0, 14.0, 10.0])
        errors = [0.1, 0.2, 0.4, 0.0]
        sel3 = TopKSelection(k=3, items=np.array([0, 1, 2]))
        assert related_error(real, est, sel3) == pytest.approx(median_oracle(errors[:3]))
        sel4 = TopKSelection(k=4, items=np.array([0, 1, 2, 3]))
        assert related_error(real, est, sel4) == pytest.approx(median_oracle(errors))

    def test_zero_true_frequency_rejected(self):
        real = np.array([5.0, 0.0])
        sel = TopKSelection(k=2, items=np.array([0, 1]))
        with pytest.raises(ValueError):
            related_error(real, real, sel)

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        real, est = _random_tables(rng, 12)
        sel = top_k(real, 7)
        expected = related_error_oracle(real, est, sel.items.tolist())
        assert related_error(real, est, sel) == pytest.approx(expected)


class TestSquaredError:
    def test_identity_is_zero(self):
        table = np.array([40.0, 30.0, 20.0, 10.0])
        assert squared_error(table, table, 2) == 0.0

    def test_singleton_intersection(self):
        real = np.array([0.30, 0.29, 0.20, 0.21])
        est = np.array([0.25, 0.02, 0.50, 0.23])
        # top-2 sets are {0, 1} and {2, 0}; they share only item 0
        assert squared_error(real, est, 2) == pytest.approx(0.0025)

    def test_disjoint_topk_raises(self):
        real = np.array([5.0, 4.0, 0.0, 0.0])
        est = np.array([0.0, 0.0, 4.0, 5.0])
        with pytest.raises(NoOverlapError):
            squared_error(real, est, 2)

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
    def test_matches_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        real, est = _random_tables(rng, 14)
        expected = squared_error_oracle(real.tolist(), est.tolist(), k)
        if expected is None:
            with pytest.raises(NoOverlapError):
                squared_error(real, est, k)
        else:
            assert squared_error(real, est, k) == pytest.approx(expected, abs=1e-15)


class TestNcr:
    def test_equal_sets_any_order_score_one(self):
        real_sel = TopKSelection(k=3, items=np.array([4, 2, 9]))
        est_sel = TopKSelection(k=3, items=np.array([9, 4, 2]))
        assert ncr(real_sel, est_sel) == 1.0

    def test_disjoint_sets_score_zero(self):
        real_sel = TopKSelection(k=2, items=np.array([0, 1]))
        est_sel = TopKSelection(k=2, items=np.array([2, 3]))
        assert ncr(real_sel, est_sel) == 0.0

    def test_partial_membership(self):
        # estimated set catches true ranks 1 and 3: (3 + 1) / 6
        real_sel = TopKSelection(k=3, items=np.array([7, 8, 9]))
        est_sel = TopKSelection(k=3, items=np.array([7, 9, 1]))
        assert ncr(real_sel, est_sel) == pytest.approx(4 / 6)

    @pytest.mark.parametrize("k", [10, 11, 20])
    def test_k_beyond_the_table(self, k):
        # both selections hold all 10 items, whose perfect score is
        # k + (k - 1) + ... + (k - 9), not k(k + 1)/2; any estimate scores 1
        table = np.arange(10.0, 0.0, -1.0)
        for est in (table.copy(), table[::-1].copy(), -table):
            assert ncr_oracle(table.tolist(), est.tolist(), k) == 1.0
            assert ncr(top_k(table, k), top_k(est, k)) == 1.0

    def test_empty_true_selection_rejected(self):
        empty = TopKSelection(k=2, items=np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            ncr(empty, empty)

    def test_mismatched_k_rejected(self):
        with pytest.raises(ValueError):
            ncr(
                TopKSelection(k=2, items=np.array([0, 1])),
                TopKSelection(k=3, items=np.array([0, 1, 2])),
            )

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
    def test_matches_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        real, est = _random_tables(rng, 14)
        expected = ncr_oracle(real.tolist(), est.tolist(), k)
        assert ncr(top_k(real, k), top_k(est, k)) == pytest.approx(expected)


class TestInvariance:
    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_permutation_invariance(self, seed):
        # distinct values keep the top-k unique; with ties the documented
        # ascending-index break legitimately depends on labeling
        rng = np.random.default_rng(seed)
        real = rng.permutation(12).astype(np.float64) * 3 + 1
        est = real + rng.normal(0, 5, size=12)
        perm = rng.permutation(12)
        k = 5
        sel, sel_p = top_k(real, k), top_k(real[perm], k)
        assert kld(real, est, sel) == pytest.approx(kld(real[perm], est[perm], sel_p))
        assert related_error(real, est, sel) == pytest.approx(
            related_error(real[perm], est[perm], sel_p)
        )
        try:
            se = squared_error(real, est, k)
        except NoOverlapError:
            se = None
        try:
            se_p = squared_error(real[perm], est[perm], k)
        except NoOverlapError:
            se_p = None
        if se is None or se_p is None:
            assert se is se_p
        else:
            assert se == pytest.approx(se_p)
        assert ncr(sel, top_k(est, k)) == pytest.approx(
            ncr(sel_p, top_k(est[perm], k))
        )

    def test_growing_noise_never_helps(self):
        rng = np.random.default_rng(3)
        real = rng.integers(100, 1000, size=50).astype(np.float64)
        k = 10
        sel = top_k(real, k)
        kld_medians, se_medians = [], []
        for scale in (0.0, 20.0, 80.0, 320.0):
            klds, ses = [], []
            for _ in range(20):
                noisy = real + rng.normal(0, scale, size=real.size)
                klds.append(kld(real, noisy, sel))
                try:
                    ses.append(squared_error(real, noisy, k))
                except NoOverlapError:
                    ses.append(float("inf"))
            kld_medians.append(np.median(klds))
            se_medians.append(np.median(ses))
        assert all(a <= b + 1e-15 for a, b in zip(kld_medians, kld_medians[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(se_medians, se_medians[1:]))
