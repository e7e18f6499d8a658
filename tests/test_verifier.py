"""Exact certificates: overlap fractions, ratio bounds, witnesses."""

import dataclasses
import functools
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fldp import verifier
from fldp.hadamard import min_order_for_domain, row_vector
from fldp.mechanisms import MECHANISMS, PrivacyParams
from fldp.verifier import (
    EnumerationLimitError,
    FldpCertificate,
    certificate_passes,
    certify_mechanism,
    certify_ranges,
    enumerate_range,
)

from _oracles import (
    certify_ranges_oracle,
    exact_range,
    fhr_range_oracle,
    law_matrix,
    ratio_profile_oracle,
    unary_max_ratio_oracle,
    unary_probability_oracle,
    unary_range_oracle,
    unary_ranges_exact,
    witness_walk_oracle,
)


def _fhr_params(eps):
    return PrivacyParams.for_fhr(eps)


class TestEnumerateRange:
    def test_fhr_order_8_range_size(self):
        # 16 positive-negative index pairs in two orientations each
        rng = fhr_range_oracle(0, _fhr_params(1.0), 7)
        assert len(rng) == 32

    def test_fhr_probabilities_sum_to_one_per_item(self):
        for item in range(7):
            rng = fhr_range_oracle(item, _fhr_params(0.6), 7)
            assert math.fsum(rng.values()) == pytest.approx(1.0, abs=1e-12)

    def test_fhr_pair_probabilities(self):
        eps = 1.0
        params = _fhr_params(eps)
        rng = fhr_range_oracle(2, params, 7)
        vec = row_vector(3, 8)
        for (x, y), prob in rng.items():
            if vec[x] == 1 and vec[y] == -1:
                assert prob == pytest.approx(params.p * 4 / 64)
            else:
                assert prob == pytest.approx((1 - params.p) * 4 / 64)

    def test_grr_range_is_whole_domain(self):
        params = PrivacyParams.for_grr(1.0, 4)
        row = enumerate_range(2, params, 4)
        assert row.dtype == np.float64 and row.shape == (4,)
        for value, prob in enumerate(row.tolist()):
            assert prob == pytest.approx(params.p if value == 2 else params.q)

    def test_unary_range_is_all_bit_patterns(self):
        params = PrivacyParams.for_oue(1.0)
        rng = unary_range_oracle("oue", 1, params, 3)
        assert len(rng) == 8
        assert math.fsum(rng.values()) == pytest.approx(1.0, abs=1e-12)

    def test_enumeration_limits(self):
        # FHR's limit is order 65536, the full-scale domain's; 65,536 items
        # need order 131072
        assert certify_mechanism("fhr", 1.0, 65535).range_size_max == 65536**2 // 2
        message = "^FHR order 131072 exceeds the certification limit 65536$"
        with pytest.raises(EnumerationLimitError, match=message):
            certify_mechanism("fhr", 1.0, 65536)
        message = "^GRR domain 257 exceeds the enumeration limit 256$"
        with pytest.raises(EnumerationLimitError, match=message):
            enumerate_range(0, PrivacyParams.for_grr(1.0, 257), 257)
        # the unary encodings stop at 4095 items, whose range size 2^4095
        # still prints in certificate.json
        for name in ("oue", "rappor"):
            message = "^unary domain 4096 exceeds the enumeration limit 4095$"
            with pytest.raises(EnumerationLimitError, match=message):
                certify_mechanism(name, 1.0, 4096)
            assert certify_mechanism(name, 1.0, 4095).range_size_max == 2**4095

    def test_limits_raise_before_allocating(self):
        # output spaces far beyond memory: each limit must trip before any
        # array of that size is asked for
        with pytest.raises(EnumerationLimitError):
            certify_mechanism("fhr", 1.0, 2**40 - 1)
        with pytest.raises(EnumerationLimitError):
            enumerate_range(0, PrivacyParams.for_grr(1.0, 10**12), 10**12)
        with pytest.raises(EnumerationLimitError):
            certify_mechanism("rappor", 1.0, 10**12)

    def test_output_codes(self):
        # fhr outputs are (x, y) pairs of ints, x over the row's +1 columns
        # and y over its -1 columns, each kept pair followed by its flip;
        # unary outputs are the bit patterns as ints, ascending
        rng = fhr_range_oracle(2, _fhr_params(1.0), 7)
        vec = row_vector(3, 8)
        pos, neg = np.flatnonzero(vec > 0).tolist(), np.flatnonzero(vec < 0).tolist()
        assert list(rng) == [out for x in pos for y in neg for out in ((x, y), (y, x))]
        assert all(type(x) is int for pair in rng for x in pair)
        rng = unary_range_oracle("rappor", 1, PrivacyParams.for_rappor(1.0), 3)
        assert list(rng) == list(range(8))

    def test_unknown_mechanism_rejected(self):
        # only GRR is enumerated, FHR and the unary encodings are certified
        # in closed form, and OLH has no certificate
        with pytest.raises(ValueError, match="^cannot certify mechanism 'olh'$"):
            certify_mechanism("olh", 1.0, 4)
        with pytest.raises(ValueError, match="^unknown mechanism 'shr'"):
            certify_mechanism("shr", 1.0, 4)

    @pytest.mark.parametrize("domain", [1, 0, -3])
    def test_short_domain_rejected_alike(self, domain):
        # the domain is checked before any mechanism's params are built,
        # and an unknown name is still named first
        message = f"^domain must have at least 2 items, got {domain}$"
        for name in ("fhr", "grr", "oue", "rappor", "olh"):
            with pytest.raises(ValueError, match=message):
                certify_mechanism(name, 1.0, domain)
        with pytest.raises(ValueError, match="^unknown mechanism 'shr'"):
            certify_mechanism("shr", 1.0, domain)

    def test_output_range_validation(self):
        # each row is one item's law: it must sum to 1, and the rows must
        # be of one length; a zero entry is an output outside the range
        with pytest.raises(ValueError, match="sum to 0.9"):
            certify_ranges([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(ValueError):
            certify_ranges([[0.5, 0.5], [1.0]])
        cert = certify_ranges([[1.0, 0.0], [0.0, 1.0]])
        assert (cert.range_size_max, cert.eta_observed) == (1, 0.0)


class TestCertify:
    @pytest.mark.parametrize("domain", [3, 7, 15])  # orders 4, 8, 16
    @pytest.mark.parametrize("eps", [0.4, 1.0, 2.0])
    def test_fhr_eta_half_and_tight_ratio(self, domain, eps):
        cert = certify_mechanism("fhr", eps, domain)
        assert cert.eta_observed == 0.5
        assert abs(cert.epsilon_effective - eps) <= 1e-9

    def test_fhr_range_and_intersection_counts(self):
        cert = certify_mechanism("fhr", 1.0, 7)
        assert cert.range_size_min == cert.range_size_max == 32
        assert cert.intersection_size_min == cert.intersection_size_max == 16

    def test_fhr_order_128(self):
        cert = certify_mechanism("fhr", 1.0, 127)
        assert cert.eta_observed == 0.5
        assert abs(cert.epsilon_effective - 1.0) <= 1e-9
        assert cert.range_size_min == cert.range_size_max == 8192
        assert cert.intersection_size_min == cert.intersection_size_max == 4096

    def test_grr_eta_one(self):
        for d in (3, 8, 30):
            cert = certify_mechanism("grr", 1.0, d)
            assert cert.eta_observed == 1.0
            assert cert.epsilon_effective <= 1.0 + 1e-9

    @pytest.mark.parametrize("variant", ["oue", "rappor"])
    def test_unary_eta_one(self, variant):
        cert = certify_mechanism(variant, 1.0, 5)
        assert cert.eta_observed == 1.0
        assert cert.epsilon_effective <= 1.0 + 1e-9

    @pytest.mark.parametrize("eps", [40.0, 80.0])
    def test_rappor_large_budgets_pass(self, eps):
        # RAPPOR's flip probabilities are q and p themselves; formed as
        # 1 - p they failed at 40 (epsilon_effective 40.000000018) and
        # rounded to 0 at 80
        cert = certify_mechanism("rappor", eps, 5)
        assert certificate_passes("rappor", eps, cert)
        assert cert.epsilon_effective == eps
        assert cert.eta_observed == 1.0

    def test_disjoint_ranges_give_eta_zero(self):
        P = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
        cert = certify_ranges(P)
        assert cert.eta_observed == 0.0
        assert cert.max_ratio_observed == 1.0
        assert cert.pair_witnesses == ()
        assert cert == certify_ranges_oracle(_laws(P))

    def test_witnesses_attain_max_ratio(self):
        cert = certify_mechanism("fhr", 1.0, 7)
        assert cert.pair_witnesses
        for t, t_prime, output in cert.pair_witnesses:
            profile = ratio_profile_oracle("fhr", _fhr_params(1.0), 7, (t, t_prime))
            assert profile[output] == pytest.approx(cert.max_ratio_observed)

    def test_single_item_rejected(self):
        with pytest.raises(ValueError):
            certify_ranges([[1.0]])

    @pytest.mark.parametrize(
        "P,message",
        [
            ([0.5, 0.5], "^P must be a 2-D items x outputs matrix, got 1 dimensions$"),
            ([[0.5, 0.5]], "^certification needs at least two items$"),
            ([[0.5, 0.5], [np.nan, 1.0]], "^probabilities must not be NaN$"),
            ([[0.5, 0.5], [-0.5, 1.5]], "^probabilities must be nonnegative$"),
            ([[0.5, 0.5], [0.0, 0.0]], r"^probabilities sum to 0\.0, expected 1$"),
            ([[0.5, 0.5], [1 + 2e-9, 0.0]], r"^probabilities sum to 1\.000000002, expected 1$"),
            ([[0.5, 0.5], [1 - 2e-9, 0.0]], r"^probabilities sum to 0\.999999998, expected 1$"),
        ],
    )
    def test_malformed_matrix_rejected(self, P, message):
        with pytest.raises(ValueError, match=message):
            certify_ranges(P)

    @pytest.mark.parametrize("width", [2, 64, 256, 4096])
    def test_row_sums_near_the_tolerance_decided_as_fsum_decides(self, width):
        # rows whose exact sums lie a few ulps either side of 1 +- 1e-9, and
        # of the edge inside it past which numpy's row sum is not trusted
        rows = _rows_summing_to(width, _sums_near_the_tolerance(width), np.random.default_rng(width))
        uniform = np.full(width, 1 / width)
        oracle = [math.fsum(row.tolist()) for row in rows]
        assert {abs(total - 1.0) > 1e-9 for total in oracle} == {False, True}
        if width > 2:
            # numpy's pairwise row sums and fsum differ in the last bits
            assert (rows.sum(axis=1) != oracle).any()
        for row, total in zip(rows, oracle):
            if abs(total - 1.0) > 1e-9:
                message = f"^probabilities sum to {re.escape(repr(total))}, expected 1$"
                with pytest.raises(ValueError, match=message):
                    certify_ranges([uniform, row])
            else:
                assert certify_ranges([uniform, row]).eta_observed == 1.0
        # in one matrix, the first row that fsum rejects is the one named
        first = next(t for t in oracle if abs(t - 1.0) > 1e-9)
        with pytest.raises(ValueError, match=f"^probabilities sum to {re.escape(repr(first))},"):
            certify_ranges(rows)

    def test_certificate_validation(self):
        with pytest.raises(ValueError):
            FldpCertificate(eta_observed=1.5, max_ratio_observed=1.0, epsilon_effective=0.0)
        with pytest.raises(ValueError):
            FldpCertificate(eta_observed=0.5, max_ratio_observed=0.5, epsilon_effective=0.0)


class TestFhrClosedForm:
    """FHR's closed-form certificate equals the matrix form's over its
    enumerated laws, field for field, under the same probabilities. The
    closed form walks each pair's shared outputs in the lower item's
    enumeration order, the matrix in column order, so the witnesses are
    those of the pairwise walk at the matrix's largest ratio."""

    @staticmethod
    def _check(order, eps):
        cert = certify_mechanism("fhr", eps, order - 1)
        laws = [fhr_range_oracle(t, _fhr_params(eps), order - 1) for t in range(order - 1)]
        matrix = certify_ranges(law_matrix(laws))
        witnesses = witness_walk_oracle(dict(enumerate(laws)), matrix.max_ratio_observed)
        oracle = dataclasses.replace(matrix, pair_witnesses=witnesses)
        assert cert == oracle, (order, eps)
        assert repr(cert) == repr(oracle)  # python ints and floats, as JSON needs
        return cert

    @pytest.mark.parametrize("order", [4, 8, 16, 32, 64])
    def test_every_budget(self, order):
        for k in range(1, 46):
            self._check(order, k / 10)

    # budgets at which p_keep/p_flip rounds above, equal to and below
    # 1 / (p_flip/p_keep): the witnesses are the kept outputs, both, or
    # the flipped ones (oriented from the higher item)
    @pytest.mark.parametrize(
        "eps,orientations", [(0.6, {True}), (1.0, {True, False}), (1.3, {False})]
    )
    def test_order_128(self, eps, orientations):
        cert = self._check(128, eps)
        assert {t < u for t, u, _ in cert.pair_witnesses} == orientations

    @pytest.mark.parametrize("r", range(2, 13))
    def test_rows_are_balanced_and_share_a_quarter(self, r):
        # the identities the closed form rests on, at every order it takes:
        # each row 1..d-1 holds d/2 of each sign, and any two share d/4 +1
        # columns (the Gram matrix of their +1 masks, a block of rows at once)
        d = 1 << r
        rows = np.array([row_vector(row, d) for row in range(1, d)])
        assert ((rows == 1).sum(axis=1) == d // 2).all()
        assert ((rows == -1).sum(axis=1) == d // 2).all()
        masks = (rows > 0).astype(np.float32)  # exact: counts stay below 2^24
        for lo in range(0, d - 1, 512):
            gram = masks[lo : lo + 512] @ masks.T
            gram[np.arange(gram.shape[0]), lo + np.arange(gram.shape[0])] = d // 4
            assert (gram == d // 4).all(), (d, lo)

    def test_witness_walk_builds_at_most_three_rows(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            verifier, "row_vector", lambda row, d: built.append(row) or row_vector(row, d)
        )
        for eps in (0.6, 1.0, 1.3):
            built.clear()
            cert = certify_mechanism("fhr", eps, 4095)
            assert len(cert.pair_witnesses) == 8
            assert sorted(set(built)) == sorted({u + 1 for w in cert.pair_witnesses for u in w[:2]})
            assert len(set(built)) <= 3

    def test_order_1024(self):
        cert = certify_mechanism("fhr", 1.0, 1023)
        assert cert.eta_observed == 0.5
        assert abs(cert.epsilon_effective - 1.0) <= 1e-9
        assert cert.range_size_min == cert.range_size_max == 1024**2 // 2
        assert cert.intersection_size_min == cert.intersection_size_max == 1024**2 // 4
        assert len(cert.pair_witnesses) == 8

    @pytest.mark.parametrize("eps", [36.0, 40.0, 80.0, 709.0, math.log(sys.float_info.max)])
    def test_large_budgets_pass(self, eps):
        # the flip probability 1/(e^eps + 1) survives where 1 - p is 0
        cert = certify_mechanism("fhr", eps, 7)
        assert certificate_passes("fhr", eps, cert)
        assert abs(cert.epsilon_effective - eps) <= 1e-9
        assert cert.eta_observed == 0.5


class TestMatrixAgainstPairwiseOracle:
    """The matrix certificate, and FHR's closed form, equal the pairwise
    audit's, field for field."""

    @staticmethod
    def _both(mechanism, eps, domain):
        params = MECHANISMS[mechanism].params(eps, domain)
        laws = {t: exact_range(mechanism, t, params, domain) for t in range(domain)}
        oracle = certify_ranges_oracle(laws)
        if mechanism == "fhr":
            return certify_mechanism("fhr", eps, domain), oracle
        # GRR's and the unary laws reach every output, ascending, so each
        # output is its own column
        return certify_ranges(law_matrix(list(laws.values()))), oracle

    @pytest.mark.parametrize("eps", [0.4, 1.0, 2.0, 4.5])
    @pytest.mark.parametrize(
        "mechanism,domain",
        [("fhr", d) for d in (3, 7, 15, 31)]
        + [("grr", d) for d in (2, 3, 8, 30, 64)]
        + [(m, d) for m in ("oue", "rappor") for d in (2, 3, 5, 7)],
    )
    def test_grid(self, mechanism, domain, eps):
        cert, oracle = self._both(mechanism, eps, domain)
        assert cert == oracle
        assert repr(cert) == repr(oracle)  # python ints and floats, as JSON needs
        closed = certify_mechanism(mechanism, eps, domain)
        if mechanism in ("oue", "rappor"):
            # the closed form's ratio is the exact one rounded once, not the
            # largest rounded product (TestUnaryClosedForm)
            assert _sizes(closed) == _sizes(oracle)
        else:
            assert closed == oracle

    def test_fhr_order_64(self):
        cert, oracle = self._both("fhr", 1.0, 63)
        assert cert == oracle
        assert len(cert.pair_witnesses) == 8

    def test_ties_at_ratio_one(self):
        # with no ratio above 1, outputs of equal probability are the
        # witnesses, oriented from the lower item and in column order
        P = _matrix(([0, 1, 2], [0.5, 0.25, 0.25]), ([2, 1, 3], [0.25, 0.25, 0.5]))
        cert = certify_ranges(P)
        assert cert == certify_ranges_oracle(_laws(P))
        assert cert.max_ratio_observed == 1.0
        assert cert.pair_witnesses == ((0, 1, 1), (0, 1, 2))
        assert cert.eta_observed == 2 / 3

    def test_unequal_range_sizes(self):
        # pair (0, 1) shares outputs 1, 3, 5 at ratio 2, and pair (1, 2)
        # shares 1 and 3; each pair's witnesses come in column order
        P = _matrix(
            ([0, 1, 2, 3, 4, 5], [1 / 6] * 6),
            ([5, 3, 1], [1 / 3] * 3),
            ([4, 3, 2, 1, 0, 6], [1 / 6] * 6),
        )
        cert = certify_ranges(P)
        assert cert == certify_ranges_oracle(_laws(P))
        assert cert.max_ratio_observed == 2.0
        assert cert.pair_witnesses == ((1, 0, 1), (1, 0, 3), (1, 0, 5), (1, 2, 1), (1, 2, 3))
        assert (cert.range_size_min, cert.range_size_max) == (3, 6)
        assert (cert.intersection_size_min, cert.intersection_size_max) == (2, 5)
        assert cert.eta_observed == 2 / 6


def _sums_near_the_tolerance(width):
    """Floats a few ulps either side of 1 + 1e-9 and 1 - 1e-9, and of
    1 +- (1e-9 - width 2^-52), the edge of the certifier's row-sum screen."""
    sums = []
    for edge in (1e-9, 1e-9 - width * 2.0**-52):
        for sign, ulp in ((1, 2.0**-52), (-1, 2.0**-53)):
            last = 1 + sign * (edge // ulp) * ulp  # the last float within edge of 1
            sums += [last + sign * k * ulp for k in range(-3, 4)]
    return sums


def _rows_summing_to(width, sums, rng):
    """One row of ``width`` nonnegative floats per entry of ``sums``, whose
    exact sum is that entry: a large first entry, then width - 1 below half
    its ulp, which numpy's row sum drops where it adds them to the first."""
    rows = np.empty((len(sums), width))
    for row, total in zip(rows, sums):
        row[1:] = rng.integers(1, 2**8, size=width - 1) * 2.0**-62
        # the small entries sum to a multiple of 2^-52, so total less their
        # sum is a float
        row[-1] += -math.fsum(row[1:].tolist()) % 2.0**-52
        row[0] = total - math.fsum(row[1:].tolist())
    return rows


def _matrix(*laws):
    """The matrix whose row t holds item t's ``(columns, probs)`` law."""
    P = np.zeros((len(laws), 1 + max(max(c) for c, _ in laws)))
    for t, (columns, probs) in enumerate(laws):
        P[t, list(columns)] = probs
    return P


def _laws(P):
    """Each row of ``P`` as ``{column: probability}`` over its range, in
    column order, as the pairwise oracle takes it."""
    return {t: {k: p for k, p in enumerate(row) if p > 0} for t, row in enumerate(P.tolist())}


# weights with ties, spread, and magnitudes down to the least subnormal,
# whose ratios to ordinary probabilities overflow to inf
_WEIGHTS = st.sampled_from([1.0, 2.0, 3.0, 0.5, 1e-3, 2.0**-600, 2.0**-1000, 5e-324]) | st.floats(
    min_value=1e-300, max_value=1.0
)


@st.composite
def _matrices(draw):
    outputs = draw(st.integers(min_value=1, max_value=8))
    count = draw(st.integers(min_value=2, max_value=6))
    P = np.zeros((count, outputs))
    for t in range(count):
        # a support of any size, zeros elsewhere: unequal and disjoint
        # ranges both occur
        columns = draw(st.lists(st.integers(0, outputs - 1), min_size=1, max_size=outputs,
                                unique=True))
        weights = np.array(draw(st.lists(_WEIGHTS, min_size=len(columns), max_size=len(columns))))
        probs = weights / weights.sum()
        assume((probs > 0).all() and abs(math.fsum(probs.tolist()) - 1) <= 1e-9)
        P[t, columns] = probs
    return P


# a ratio past the largest float: 5e-324 / 0.5 inverts to inf
_OVERFLOW = (([0, 1], [5e-324, 1.0]), ([1, 0], [0.5, 0.5]))
# the worst ratio only in the last pair (1, 2): item 0 shares nothing
_LAST_PAIR = (([5], [1.0]), ([0, 1], [0.5, 0.5]), ([0, 1], [0.8, 0.2]))
# the worst ratio, 5, only as 1 / forward: 0.1 / 0.5 inverted
_INVERSE = (([0, 1], [0.1, 0.9]), ([0, 1], [0.5, 0.5]))


class TestAuditAgainstPairwiseOracle:
    """The one-pass audit equals the pairwise walk on any matrix, witnesses
    and their order included."""

    @settings(max_examples=400, deadline=None)
    @given(_matrices())
    # disjoint ranges: eta 0, ratio 1, no witness
    @example(_matrix(([0, 1], [0.5, 0.5]), ([2, 3], [0.5, 0.5])))
    @example(_matrix(*_OVERFLOW))
    @example(_matrix(*_LAST_PAIR))
    @example(_matrix(*_INVERSE))
    # ties everywhere at ratio 1, past the eight witnesses kept
    @example(_matrix(*[(range(4), [0.25] * 4)] * 4))
    def test_any_range_set(self, P):
        cert = certify_ranges(P)
        oracle = certify_ranges_oracle(_laws(P))
        assert cert == oracle
        assert repr(cert) == repr(oracle)

    def test_the_examples_reach_their_cases(self):
        cert = certify_ranges(_matrix(*_OVERFLOW))
        assert (cert.max_ratio_observed, cert.pair_witnesses) == (math.inf, ((1, 0, 0),))
        assert certify_ranges(_matrix(*_LAST_PAIR)).pair_witnesses == ((1, 2, 1),)
        cert = certify_ranges(_matrix(*_INVERSE))
        assert (cert.max_ratio_observed, cert.pair_witnesses) == (5.0, ((1, 0, 0),))

    def test_peak_memory_at_the_grr_limit(self):
        # at most the pairwise walk's 3.37 MiB plus one items x outputs array
        d = 256
        params = PrivacyParams.for_grr(1.0, d)
        rows = [enumerate_range(t, params, d) for t in range(d)]
        tracemalloc.start()
        try:
            certify_ranges(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.37 * 2**20 + d * d * 8


def _sizes(cert):
    return (
        cert.eta_observed,
        cert.range_size_min,
        cert.range_size_max,
        cert.intersection_size_min,
        cert.intersection_size_max,
    )


class TestUnaryClosedForm:
    """OUE's and RAPPOR's closed-form certificates against the enumerated
    law (eta and sizes) and its exact rational form (ratio and witnesses)."""

    BUDGETS = [k / 10 for k in range(1, 46)] + [36.0, 40.0, 80.0]

    @pytest.mark.parametrize("domain", [2, 3, 4, 5, 7, 12])
    @pytest.mark.parametrize("mechanism", ["oue", "rappor"])
    def test_against_the_oracles(self, mechanism, domain):
        for eps in self.BUDGETS:
            params = MECHANISMS[mechanism].params(eps, domain)
            cert = certify_mechanism(mechanism, eps, domain)
            try:
                laws = [unary_range_oracle(mechanism, t, params, domain) for t in range(domain)]
            except ValueError as exc:
                # the float products underflow to 0 (OUE over 12 items from about eps = 68)
                assert "zero-probability" in str(exc)
                assert (mechanism, domain, eps) == ("oue", 12, 80.0)
            else:
                assert _sizes(cert) == _sizes(certify_ranges(law_matrix(laws))), eps
            top = unary_max_ratio_oracle(mechanism, params, domain)
            assert cert.max_ratio_observed == float(top), eps
            assert cert.epsilon_effective == math.log(cert.max_ratio_observed)
            prob = functools.partial(unary_probability_oracle, mechanism, params, domain)
            # two items share two outputs at the maximum; more share eight or more
            assert len(cert.pair_witnesses) == (2 if domain == 2 else 8)
            for t, u, s in cert.pair_witnesses:
                assert prob(t, s) / prob(u, s) == top, (eps, t, u, s)

    @pytest.mark.parametrize("domain", [2, 3, 4, 5])
    @pytest.mark.parametrize("mechanism", ["oue", "rappor"])
    def test_the_pairwise_walk_over_the_exact_law(self, mechanism, domain):
        # the pairwise audit over every output's exact probability: the same
        # maximum (which the oracle's four outputs per pair also reach) and
        # the same witnesses, in the same order
        for eps in (0.1, 0.6, 1.0, 2.9, 4.5, 40.0):
            params = MECHANISMS[mechanism].params(eps, domain)
            exact = certify_ranges_oracle(unary_ranges_exact(mechanism, params, domain))
            assert exact.max_ratio_observed == unary_max_ratio_oracle(mechanism, params, domain)
            cert = certify_mechanism(mechanism, eps, domain)
            assert cert.max_ratio_observed == float(exact.max_ratio_observed)
            assert cert.pair_witnesses == exact.pair_witnesses
            assert _sizes(cert) == _sizes(exact)

    @pytest.mark.parametrize("eps", [1.0, 36.0, 40.0, 80.0, 709.0, math.log(sys.float_info.max)])
    @pytest.mark.parametrize("mechanism", ["oue", "rappor"])
    def test_sweep_domain_passes_at_every_budget(self, mechanism, eps):
        # no product of D probabilities is formed, so nothing underflows
        cert = certify_mechanism(mechanism, eps, 1023)
        assert certificate_passes(mechanism, eps, cert)
        assert abs(cert.epsilon_effective - eps) <= 1e-9
        assert cert.eta_observed == 1.0
        assert cert.range_size_min == cert.intersection_size_max == 2**1023
        assert cert.pair_witnesses[:4] == ((0, 1, 1), (1, 0, 2), (0, 1, 5), (1, 0, 6))


class TestRatioProfile:
    def test_fhr_only_three_ratio_values(self):
        eps = 1.0
        profile = ratio_profile_oracle("fhr", _fhr_params(eps), 7, (0, 5))
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
        profile = ratio_profile_oracle("fhr", params, 7, (0, 1))
        assert profile[(x, y)] == pytest.approx(1.0, abs=1e-12)

    def test_fhr_disagreeing_signs_ratio_e_eps(self):
        # flipped under one row, unflipped under the other
        eps = 0.9
        params = _fhr_params(eps)
        order = min_order_for_domain(7)
        va, vb = row_vector(1, order.order), row_vector(2, order.order)
        x = int(np.nonzero((va == 1) & (vb == -1))[0][0])
        y = int(np.nonzero((va == -1) & (vb == 1))[0][0])
        profile = ratio_profile_oracle("fhr", params, 7, (0, 1))
        assert profile[(x, y)] == pytest.approx(math.exp(eps), rel=1e-12)

    def test_identical_pair_rejected(self):
        with pytest.raises(ValueError):
            ratio_profile_oracle("fhr", _fhr_params(1.0), 7, (3, 3))
        # nor does the audit pair an item with itself, which would share
        # its whole range of 32 outputs
        cert = certify_mechanism("fhr", 1.0, 7)
        assert cert.intersection_size_max < cert.range_size_min

    def test_grr_profile(self):
        eps, d = 1.0, 5
        params = PrivacyParams.for_grr(eps, d)
        profile = ratio_profile_oracle("grr", params, d, (0, 1))
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
            rng = fhr_range_oracle(item, params, 7)
            vec = row_vector(item + 1, order.order).astype(int)
            mass = {}
            for (x, y), prob in rng.items():
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
            rng = fhr_range_oracle(item, params, 7)
            for other in range(7):
                if other == item:
                    continue
                vec = row_vector(other + 1, order.order).astype(int)
                mass = {0: 0.0, 2: 0.0, -2: 0.0}
                for (x, y), prob in rng.items():
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
