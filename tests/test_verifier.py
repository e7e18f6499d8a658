"""Exact enumeration audits: overlap fractions, ratio bounds, witnesses."""

import math

import numpy as np
import pytest

from fldp.hadamard import min_order_for_domain, row_vector
from fldp.mechanisms import MECHANISMS, PrivacyParams
from fldp.verifier import (
    EnumerationLimitError,
    FldpCertificate,
    OutputRange,
    certificate_passes,
    certify,
    certify_mechanism,
    certify_ranges,
    enumerate_range,
    ratio_profile,
)


def _fhr_params(eps):
    return PrivacyParams.for_fhr(eps)


class TestEnumerateRange:
    def test_fhr_order_8_range_size(self):
        # 16 positive-negative index pairs in two orientations each
        rng = enumerate_range("fhr", 0, _fhr_params(1.0), 7)
        assert rng.size == 32

    def test_fhr_probabilities_sum_to_one_per_item(self):
        for item in range(7):
            rng = enumerate_range("fhr", item, _fhr_params(0.6), 7)
            assert math.fsum(rng.probabilities.values()) == pytest.approx(1.0, abs=1e-12)

    def test_fhr_pair_probabilities(self):
        eps = 1.0
        params = _fhr_params(eps)
        rng = enumerate_range("fhr", 2, params, 7)
        vec = row_vector(3, 8)
        for (x, y), prob in rng.probabilities.items():
            if vec[x] == 1 and vec[y] == -1:
                assert prob == pytest.approx(params.p * 4 / 64)
            else:
                assert prob == pytest.approx((1 - params.p) * 4 / 64)

    def test_grr_range_is_whole_domain(self):
        params = PrivacyParams.for_grr(1.0, 4)
        rng = enumerate_range("grr", 2, params, 4)
        assert set(rng.probabilities) == {0, 1, 2, 3}
        for value, prob in rng.probabilities.items():
            assert prob == pytest.approx(params.p if value == 2 else params.q)

    def test_unary_range_is_all_bit_patterns(self):
        params = PrivacyParams.for_oue(1.0)
        rng = enumerate_range("oue", 1, params, 3)
        assert rng.size == 8
        assert math.fsum(rng.probabilities.values()) == pytest.approx(1.0, abs=1e-12)

    def test_enumeration_limits(self):
        with pytest.raises(EnumerationLimitError):
            enumerate_range("fhr", 0, _fhr_params(1.0), 127)
        with pytest.raises(EnumerationLimitError):
            enumerate_range("grr", 0, PrivacyParams.for_grr(1.0, 65), 65)
        with pytest.raises(EnumerationLimitError):
            enumerate_range("oue", 0, PrivacyParams.for_oue(1.0), 13)

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            enumerate_range("olh", 0, PrivacyParams.for_olh(1.0), 4)

    def test_output_range_validation(self):
        with pytest.raises(ValueError):
            OutputRange(item=0, probabilities={0: 0.5, 1: 0.4})
        with pytest.raises(ValueError):
            OutputRange(item=0, probabilities={0: 1.0, 1: 0.0})


class TestCertify:
    @pytest.mark.parametrize("domain", [3, 7, 15])  # orders 4, 8, 16
    @pytest.mark.parametrize("eps", [0.4, 1.0, 2.0])
    def test_fhr_eta_half_and_tight_ratio(self, domain, eps):
        cert = certify("fhr", _fhr_params(eps), domain)
        assert cert.eta_observed == 0.5
        assert abs(cert.epsilon_effective - eps) <= 1e-9

    def test_fhr_range_and_intersection_counts(self):
        cert = certify("fhr", _fhr_params(1.0), 7)
        assert cert.range_size_min == cert.range_size_max == 32
        assert cert.intersection_size_min == cert.intersection_size_max == 16

    def test_grr_eta_one(self):
        for d in (3, 8, 30):
            cert = certify("grr", PrivacyParams.for_grr(1.0, d), d)
            assert cert.eta_observed == 1.0
            assert cert.epsilon_effective <= 1.0 + 1e-9

    @pytest.mark.parametrize("variant", ["oue", "rappor"])
    def test_unary_eta_one(self, variant):
        params = MECHANISMS[variant].params(1.0, 5)
        cert = certify(variant, params, 5)
        assert cert.eta_observed == 1.0
        assert cert.epsilon_effective <= 1.0 + 1e-9

    def test_disjoint_ranges_give_eta_zero(self):
        ranges = {
            0: OutputRange(item=0, probabilities={"a": 0.5, "b": 0.5}),
            1: OutputRange(item=1, probabilities={"c": 0.5, "d": 0.5}),
        }
        cert = certify_ranges(ranges)
        assert cert.eta_observed == 0.0
        assert cert.max_ratio_observed == 1.0
        assert cert.pair_witnesses == ()

    def test_witnesses_attain_max_ratio(self):
        params = _fhr_params(1.0)
        cert = certify("fhr", params, 7)
        assert cert.pair_witnesses
        for t, t_prime, output in cert.pair_witnesses:
            profile = ratio_profile("fhr", params, 7, (t, t_prime))
            assert profile[output] == pytest.approx(cert.max_ratio_observed)

    def test_single_item_rejected(self):
        with pytest.raises(ValueError):
            certify_ranges({0: OutputRange(item=0, probabilities={"a": 1.0})})

    def test_certificate_validation(self):
        with pytest.raises(ValueError):
            FldpCertificate(eta_observed=1.5, max_ratio_observed=1.0, epsilon_effective=0.0)
        with pytest.raises(ValueError):
            FldpCertificate(eta_observed=0.5, max_ratio_observed=0.5, epsilon_effective=0.0)


class TestRatioProfile:
    def test_fhr_only_three_ratio_values(self):
        eps = 1.0
        profile = ratio_profile("fhr", _fhr_params(eps), 7, (0, 5))
        expected = {1.0, math.exp(eps), math.exp(-eps)}
        for ratio in profile.values():
            assert min(abs(ratio - v) for v in expected) < 1e-12

    def test_fhr_agreeing_signs_ratio_one(self):
        # an output whose orientation matches both rows has probability
        # p 4/d^2 under each item, hence ratio exactly 1
        eps = 0.9
        params = _fhr_params(eps)
        order = min_order_for_domain(7)
        va, vb = row_vector(1, order.order), row_vector(2, order.order)
        x = int(np.nonzero((va == 1) & (vb == 1))[0][0])
        y = int(np.nonzero((va == -1) & (vb == -1))[0][0])
        profile = ratio_profile("fhr", params, 7, (0, 1))
        assert profile[(x, y)] == pytest.approx(1.0, abs=1e-12)

    def test_fhr_disagreeing_signs_ratio_e_eps(self):
        # flipped under one row, unflipped under the other
        eps = 0.9
        params = _fhr_params(eps)
        order = min_order_for_domain(7)
        va, vb = row_vector(1, order.order), row_vector(2, order.order)
        x = int(np.nonzero((va == 1) & (vb == -1))[0][0])
        y = int(np.nonzero((va == -1) & (vb == 1))[0][0])
        profile = ratio_profile("fhr", params, 7, (0, 1))
        assert profile[(x, y)] == pytest.approx(math.exp(eps), rel=1e-12)

    def test_identical_pair_rejected(self):
        with pytest.raises(ValueError):
            ratio_profile("fhr", _fhr_params(1.0), 7, (3, 3))

    def test_grr_profile(self):
        eps, d = 1.0, 5
        params = PrivacyParams.for_grr(eps, d)
        profile = ratio_profile("grr", params, d, (0, 1))
        assert profile[0] == pytest.approx(math.exp(eps))
        assert profile[1] == pytest.approx(math.exp(-eps))
        assert profile[3] == pytest.approx(1.0)


class TestReportDotDistributions:
    def test_true_item_dot_distribution(self):
        # grouping the enumerated outputs by their dot product with the
        # true item's row gives +2 w.p. p and -2 w.p. 1-p, exactly
        eps = 0.8
        params = _fhr_params(eps)
        order = min_order_for_domain(7)
        for item in range(7):
            rng = enumerate_range("fhr", item, params, 7)
            vec = row_vector(item + 1, order.order).astype(int)
            mass = {}
            for (x, y), prob in rng.probabilities.items():
                dot = int(vec[x] - vec[y])
                mass[dot] = mass.get(dot, 0.0) + prob
            assert set(mass) == {2, -2}
            assert mass[2] == pytest.approx(params.p, abs=1e-12)
            assert mass[-2] == pytest.approx(1 - params.p, abs=1e-12)

    def test_other_item_dot_distribution(self):
        # under any other row the dot product is 0 half the time and
        # +2 or -2 a quarter of the time each
        eps = 0.8
        params = _fhr_params(eps)
        order = min_order_for_domain(7)
        for item in range(7):
            rng = enumerate_range("fhr", item, params, 7)
            for other in range(7):
                if other == item:
                    continue
                vec = row_vector(other + 1, order.order).astype(int)
                mass = {0: 0.0, 2: 0.0, -2: 0.0}
                for (x, y), prob in rng.probabilities.items():
                    mass[int(vec[x] - vec[y])] += prob
                assert mass[0] == pytest.approx(0.5, abs=1e-12)
                assert mass[2] == pytest.approx(0.25, abs=1e-12)
                assert mass[-2] == pytest.approx(0.25, abs=1e-12)


class TestPassRule:
    """Overlap within 1e-12 of the mechanism's eta, effective epsilon
    within 1e-9 of the budget."""

    @staticmethod
    def _cert(eta, epsilon_effective):
        return FldpCertificate(
            eta_observed=eta,
            max_ratio_observed=math.exp(epsilon_effective),
            epsilon_effective=epsilon_effective,
        )

    @pytest.mark.parametrize("mechanism", ["fhr", "grr", "oue", "rappor"])
    def test_passes_at_both_tolerance_edges(self, mechanism):
        eta = MECHANISMS[mechanism].eta
        assert certificate_passes(mechanism, 1.0, self._cert(eta - 1e-12, 1.0 + 1e-9))

    @pytest.mark.parametrize("mechanism", ["fhr", "grr", "oue", "rappor"])
    def test_fails_just_past_the_eta_edge(self, mechanism):
        eta = MECHANISMS[mechanism].eta
        assert not certificate_passes(mechanism, 1.0, self._cert(eta - 1.1e-12, 1.0))

    @pytest.mark.parametrize("mechanism", ["fhr", "grr", "oue", "rappor"])
    def test_fails_just_past_the_ratio_edge(self, mechanism):
        eta = MECHANISMS[mechanism].eta
        assert not certificate_passes(mechanism, 1.0, self._cert(eta, 1.0 + 1.1e-9))

    @pytest.mark.parametrize("mechanism", ["shr", "olh"])
    def test_fails_when_the_mechanism_is_unknown_or_not_certifiable(self, mechanism):
        with pytest.raises(ValueError):
            certificate_passes(mechanism, 1.0, self._cert(1.0, 1.0))

    @pytest.mark.parametrize("eps", [0.5, 2.0])
    def test_every_certifiable_mechanism_passes(self, eps):
        certifiable = [name for name, m in MECHANISMS.items() if m.eta is not None]
        assert certifiable == ["fhr", "grr", "oue", "rappor"]
        for mechanism in certifiable:
            assert certificate_passes(mechanism, eps, certify_mechanism(mechanism, eps, 5))
