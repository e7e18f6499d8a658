"""Matrix entry closed form, row mapping, and balance properties."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fldp.hadamard import (
    HadamardOrder,
    ItemRowMap,
    fwht,
    min_order_for_domain,
    positions_of_sign,
    row_vector,
    sign_block,
)

from _oracles import sylvester_matrix


class TestMinOrder:
    def test_domain_1023_fits_order_1024(self):
        order = min_order_for_domain(1023)
        assert order.r == 10
        assert order.order == 1024

    def test_domain_1_uses_smallest_matrix(self):
        order = min_order_for_domain(1)
        assert order.r == 1
        assert order.order == 2

    def test_domain_1024_forces_next_power(self):
        # 2^10 = 1024 < 1024 + 1, so the exponent must grow
        order = min_order_for_domain(1024)
        assert order.r == 11
        assert order.order == 2048

    @given(st.integers(min_value=1, max_value=1 << 20))
    def test_minimality(self, domain_size):
        order = min_order_for_domain(domain_size)
        assert order.order >= domain_size + 1
        if order.r > 1:
            assert (order.order // 2) < domain_size + 1

    def test_domain_0_rejected(self):
        with pytest.raises(ValueError):
            min_order_for_domain(0)

    def test_order_validates_exponent(self):
        with pytest.raises(ValueError):
            HadamardOrder(r=0)
        # column indices must fit uint64, so 2^63 is the largest order
        assert HadamardOrder(r=63).order == 2**63
        with pytest.raises(ValueError):
            HadamardOrder(r=64)


class TestEntry:
    """Single entries, read from one-row blocks of :func:`sign_block`."""

    def test_row_0_is_all_ones(self):
        for order in (2, 4, 8, 16):
            assert (sign_block(np.array([0]), order) == 1).all()

    def test_row_3_col_3_order_4(self):
        # 3 AND 3 = 3 has popcount 2, an even count
        assert sign_block(np.array([3]), 4)[0, 3] == 1

    def test_row_1_col_1_order_2(self):
        assert sign_block(np.array([1]), 2)[0, 1] == -1

    def test_out_of_range_rejected(self):
        for row in (4, -1):
            with pytest.raises(IndexError, match=f"row {row} out of range"):
                sign_block(np.array([row]), 4)
            with pytest.raises(IndexError, match=f"row {row} out of range"):
                sign_block([row], 4)
            with pytest.raises(IndexError, match=f"row {row} out of range"):
                sign_block(np.array([1, row], dtype=np.int64), 4)

    @pytest.mark.parametrize("r", range(1, 7))
    def test_matches_block_recursion(self, r):
        order = 1 << r
        built = sign_block(np.arange(order), order)
        assert np.array_equal(built, sylvester_matrix(r))


class TestRowVector:
    def test_row_1_order_4(self):
        assert row_vector(1, 4).tolist() == [1, -1, 1, -1]

    def test_row_2_order_4(self):
        assert row_vector(2, 4).tolist() == [1, 1, -1, -1]

    def test_row_0_rejected(self):
        with pytest.raises(ValueError):
            row_vector(0, 4)

    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_balance(self, r, data):
        order = 1 << r
        row = data.draw(st.integers(min_value=1, max_value=order - 1))
        vec = row_vector(row, order)
        assert vec.sum() == 0
        assert np.count_nonzero(vec == 1) == order // 2

    @given(st.integers(min_value=2, max_value=6), st.data())
    def test_orthogonality(self, r, data):
        order = 1 << r
        a = data.draw(st.integers(min_value=1, max_value=order - 1))
        b = data.draw(st.integers(min_value=1, max_value=order - 1))
        dot = int(row_vector(a, order).astype(int) @ row_vector(b, order).astype(int))
        assert dot == (order if a == b else 0)

    @given(st.integers(min_value=2, max_value=6), st.data())
    def test_sign_pattern_classes_balanced(self, r, data):
        # distinct rows split the columns into four equal quarters
        order = 1 << r
        a = data.draw(st.integers(min_value=1, max_value=order - 1))
        b = data.draw(st.integers(min_value=1, max_value=order - 1))
        if a == b:
            return
        va, vb = row_vector(a, order), row_vector(b, order)
        for sa in (1, -1):
            for sb in (1, -1):
                assert np.count_nonzero((va == sa) & (vb == sb)) == order // 4


class TestPositions:
    def test_row_1_order_4_positive(self):
        assert set(positions_of_sign(1, 4, +1).tolist()) == {0, 2}

    def test_row_1_order_4_negative(self):
        assert set(positions_of_sign(1, 4, -1).tolist()) == {1, 3}

    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_partition(self, r, data):
        order = 1 << r
        row = data.draw(st.integers(min_value=1, max_value=order - 1))
        pos = positions_of_sign(row, order, +1)
        neg = positions_of_sign(row, order, -1)
        assert len(pos) == len(neg) == order // 2
        assert sorted(pos.tolist() + neg.tolist()) == list(range(order))

    def test_row_0_rejected(self):
        with pytest.raises(ValueError):
            positions_of_sign(0, 4, 1)


class TestItemRowMap:
    def test_identity_shift(self):
        mapping = ItemRowMap(domain_size=7, order=HadamardOrder(3))
        assert [mapping.row_of(i) for i in range(7)] == list(range(1, 8))

    def test_row_0_never_assigned(self):
        mapping = ItemRowMap(domain_size=15, order=HadamardOrder(4))
        assert 0 not in [mapping.row_of(i) for i in range(15)]

    def test_too_small_order_rejected(self):
        with pytest.raises(ValueError):
            ItemRowMap(domain_size=4, order=HadamardOrder(2))

    def test_out_of_domain_item_rejected(self):
        mapping = ItemRowMap(domain_size=3, order=HadamardOrder(2))
        with pytest.raises(ValueError):
            mapping.row_of(3)


class TestSignBlock:
    @pytest.mark.parametrize("r", range(1, 6))
    def test_matches_row_vector(self, r):
        order = 1 << r
        rows = np.arange(1, order, dtype=np.uint64)
        block = sign_block(rows, order)
        for i, row in enumerate(rows):
            assert np.array_equal(block[i], row_vector(int(row), order))


class TestFwht:
    @pytest.mark.parametrize("r", range(1, 11))
    def test_equals_matrix_product(self, r):
        rng = np.random.default_rng(r)
        matrix = sylvester_matrix(r)
        for values in (
            rng.integers(-(2**40), 2**40, size=1 << r, dtype=np.int64),
            np.zeros(1 << r, dtype=np.int64),
        ):
            expected = matrix @ values
            assert np.array_equal(fwht(values.copy()), expected)

    def test_transforms_in_place(self):
        values = np.arange(8, dtype=np.int64)
        assert fwht(values) is values
        assert np.array_equal(values, sylvester_matrix(3) @ np.arange(8))

    @pytest.mark.parametrize(
        "values",
        [
            np.zeros(6, dtype=np.int64),  # not a power of two
            np.zeros(0, dtype=np.int64),
            np.zeros(8, dtype=np.float64),
            np.zeros(16, dtype=np.int64)[::2],  # a strided view
            np.zeros((2, 4), dtype=np.int64),
        ],
    )
    def test_bad_input_rejected(self, values):
        with pytest.raises(ValueError):
            fwht(values)
