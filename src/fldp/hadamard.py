"""Sylvester Hadamard matrices, queried entrywise without materialization.

The matrix of order ``2^r`` is defined by the recursion ``H_{r+1} = [[H_r, H_r],
[H_r, -H_r]]`` with ``H_0 = [1]``. Its entries admit a closed form,
``H[row, col] = (-1)^popcount(row AND col)``, which the row and block
functions evaluate. Products with the whole matrix go through :func:`fwht`,
the fast Walsh-Hadamard transform, which unrolls the same recursion in
O(order * r) additions. Nothing is ever built in memory beyond explicitly
requested row vectors or row blocks, so orders of 2^16 and up stay cheap.

Items of a finite domain are encoded as matrix rows. Row 0 is all ones and
carries no information, so item ``i`` maps to row ``i + 1`` and the matrix
order must be at least ``domain_size + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HadamardOrder",
    "ItemRowMap",
    "min_order_for_domain",
    "row_vector",
    "positions_of_sign",
    "sign_block",
    "fwht",
]

_U64 = np.uint64


@dataclass(frozen=True)
class HadamardOrder:
    """Order of a Sylvester matrix, carried as the exponent ``r``.

    ``r`` is capped at 63, the largest exponent whose column indices fit
    the uint64 arithmetic used throughout.
    """

    r: int

    def __post_init__(self) -> None:
        if not 1 <= self.r <= 63:
            raise ValueError(f"matrix exponent must lie in [1, 63], got r={self.r}")

    @property
    def order(self) -> int:
        return 1 << self.r


def min_order_for_domain(domain_size: int) -> HadamardOrder:
    """Smallest order that can encode ``domain_size`` items.

    Row 0 is reserved, so we need ``2^r >= domain_size + 1``. For example a
    domain of 1023 items fits order 1024 (r=10), while 1024 items force
    order 2048.
    """
    if domain_size < 1:
        raise ValueError(f"domain_size must be >= 1, got {domain_size}")
    r = max(1, int(domain_size).bit_length())
    # bit_length gives smallest r with 2^r > domain_size, i.e. 2^r >= domain_size + 1
    return HadamardOrder(r)


@dataclass(frozen=True)
class ItemRowMap:
    """Deterministic assignment of domain items to matrix rows.

    Item ``i`` maps to row ``i + 1``; row 0 (all +1) is never assigned.
    """

    domain_size: int
    order: HadamardOrder

    def __post_init__(self) -> None:
        if self.domain_size < 1:
            raise ValueError("domain_size must be >= 1")
        if self.order.order < self.domain_size + 1:
            raise ValueError(
                f"order {self.order.order} too small for {self.domain_size} items "
                f"(need at least {self.domain_size + 1})"
            )

    def row_of(self, item: int) -> int:
        if not 0 <= item < self.domain_size:
            raise ValueError(f"item {item} outside domain [0, {self.domain_size})")
        return item + 1


def _check_index(name: str, value: int, order: int) -> None:
    if not 0 <= value < order:
        raise IndexError(f"{name} {value} out of range [0, {order})")


def _parity(masked: np.ndarray) -> np.ndarray:
    """Popcount parity of a uint64 array, 0 or 1 per element."""
    return np.bitwise_count(masked).astype(np.int8) & np.int8(1)


def _check_data_row(row: int, order: int) -> None:
    _check_index("row", row, order)
    if row == 0:
        raise ValueError("row 0 is the reserved all-ones row")


def row_vector(row: int, order: int) -> np.ndarray:
    """Signed row of the matrix as an int8 vector of +/-1.

    Row 0 is rejected: it is reserved and, being all ones, has none of the
    balance properties the encoding relies on. Every returned row has
    exactly ``order/2`` entries of each sign.
    """
    _check_data_row(row, order)
    cols = np.arange(order, dtype=_U64)
    return (1 - 2 * _parity(cols & _U64(row))).astype(np.int8)


def positions_of_sign(row: int, order: int, sign: int) -> np.ndarray:
    """Column indices where the row carries ``sign`` (+1 or -1).

    The two sign classes partition the columns into halves of size
    ``order/2``.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    _check_data_row(row, order)
    cols = np.arange(order, dtype=_U64)
    par = _parity(cols & _U64(row))
    want = np.int8(0) if sign == 1 else np.int8(1)
    return np.nonzero(par == want)[0]


def sign_block(rows: np.ndarray, order: int) -> np.ndarray:
    """Matrix block for the given rows, shape (len(rows), order), int8.

    Costs O(len(rows) * order); to multiply the whole matrix by a vector,
    use :func:`fwht` instead.
    """
    rows = np.asarray(rows)
    if rows.size:
        # checked as the integers given, before the cast could wrap them
        lo, hi = int(rows.min()), int(rows.max())
        _check_index("row", lo if lo < 0 else hi, order)
    rows = rows.astype(_U64)
    cols = np.arange(order, dtype=_U64)
    par = _parity(rows[:, None] & cols[None, :])
    return (1 - 2 * par).astype(np.int8)


def fwht(values: np.ndarray) -> np.ndarray:
    """``H @ values`` in place, for the Sylvester matrix H of order ``values.size``.

    The iterative fast Walsh-Hadamard transform: stage ``h = 1, 2, 4, ...``
    replaces each pair ``(a, b)`` at distance ``h`` by ``(a + b, a - b)``,
    which is one step of the recursion ``[[H, H], [H, -H]]``. That is
    O(order * r) additions against O(order^2) for the row products, and
    over int64 the result equals the matrix product exactly (both wrap
    alike on overflow, which FHR sums, bounded by 2n, never reach).

    ``values`` must be a writable, contiguous, one-dimensional int64 array
    whose length is a power of two; it is overwritten and returned.
    """
    if not (
        isinstance(values, np.ndarray)
        and values.ndim == 1
        and values.dtype == np.int64
        and values.flags.c_contiguous
        and values.flags.writeable
    ):
        raise ValueError("fwht needs a writable contiguous 1-D int64 array")
    order = values.size
    if order < 1 or order & (order - 1):
        raise ValueError(f"length must be a power of two, got {order}")
    h = 1
    while h < order:
        pairs = values.reshape(-1, 2, h)  # a view: contiguous input
        upper, lower = pairs[:, 0, :], pairs[:, 1, :]
        upper += lower  # a + b
        lower *= -2
        lower += upper  # (a + b) - 2b = a - b
        h *= 2
    return values
