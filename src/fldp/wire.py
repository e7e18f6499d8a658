"""Bit-exact serialization of FHR reports and the per-mechanism cost table.

A packed report is a 2r+1 bit field laid out most-significant-first:
index_x (r bits), a sign bit, index_y (r bits), zero-padded on the right
to the byte boundary. The mechanism layer fixes the convention that the
first index holds +1, which makes the sign bit redundant: packing always
writes it as 1, and unpacking accepts either value without reading any
meaning into it. The bit stays in the layout so a report costs exactly
the advertised 2r+1 bits.

Report files carry a fixed 16-byte header (magic, order exponent, record
count) followed by the packed records. A report file's order exponent is
capped at r <= 31: a record (2r+1 <= 63 bits) then fits one uint64 word,
and the server's dense sum vector stays at or below 2^31 entries. The
writer reads reports, the ints ``index_x << 32 | index_y`` that
:func:`fldp.mechanisms.FhrReport` makes, 2^16 at a time as int64 words, and
builds each record in its report's word with numpy shifts and masks,
holding at most 17 bytes per record of that chunk (about 1.1 MiB, for any
n). The reader splits records in place in one (n, 2) int64 array and
returns its columns (index_x, index_y), the form the client returns and
:func:`fldp.aggregator.fhr_accumulate` folds, holding 17 + s bytes per
record, s = ceil((2r+1)/8) (the body read, the array and a byte of checks);
it builds no per-record object. Files are written whole or not at all (see
:mod:`fldp._atomic`).
"""

from __future__ import annotations

import operator
import os
import struct
import sys
from collections.abc import Iterable
from itertools import islice
from pathlib import Path

import numpy as np

from ._atomic import replace_atomically
from .hadamard import HadamardOrder
from .mechanisms import MECHANISMS

__all__ = [
    "WireFormatError",
    "packed_size",
    "write_report_file",
    "read_report_file",
    "report_size_table",
    "FILE_MAGIC",
]

FILE_MAGIC = b"FHR1"
_HEADER = struct.Struct(">4sIQ")  # magic, order exponent r, record count
_MAX_FILE_EXPONENT = 31  # see the module docstring
_CHUNK = 1 << 16  # reports the writer stages, checks and packs at a time
# the int32 halves of a report's word that hold index_x and index_y
_HIGH, _LOW = (1, 0) if sys.byteorder == "little" else (0, 1)


class WireFormatError(ValueError):
    """Bytes that do not decode to a valid report under the declared order."""


def packed_size(order: HadamardOrder) -> int:
    """Bytes per packed report: ceil((2r+1) / 8)."""
    return (2 * order.r + 1 + 7) // 8


def _file_order(r: int) -> HadamardOrder:
    """The order the wire format may declare: 1 <= r <= _MAX_FILE_EXPONENT."""
    if r > _MAX_FILE_EXPONENT:
        raise WireFormatError(
            f"the wire format holds order exponents up to {_MAX_FILE_EXPONENT}, got r={r}"
        )
    try:
        return HadamardOrder(r=r)
    except ValueError as exc:
        raise WireFormatError(str(exc)) from exc


def _check_distinct(index_x: np.ndarray, index_y: np.ndarray, first: int = 0) -> None:
    """Raise :class:`WireFormatError` at the first record, of records
    numbered from ``first``, whose indices are equal; one byte a record."""
    equal = index_x == index_y
    if equal.any():
        row = int(equal.argmax())
        raise WireFormatError(
            f"record {first + row}: equal indices {index_x[row]} are not a valid report"
        )


def _swap_words(words: np.ndarray) -> None:
    """Turn native uint64 words into big-endian ones in place, or back."""
    if sys.byteorder == "little":
        words.byteswap(inplace=True)


def _pack_records(words: np.ndarray, order: HadamardOrder, first: int = 0) -> bytes:
    """The int64 report words, numbered from ``first``, as concatenated
    records, sign bit 1, built in the words' own buffer, which they
    overwrite; every index must lie in [0, order) and differ from the other."""
    halves = words.view(np.int32).reshape(-1, 2)
    index_x, index_y = halves[:, _HIGH], halves[:, _LOW].view(np.uint32)
    if words.size and max(int(index_x.max()), int(index_y.max())) >= order.order:
        row = int(np.argmax(np.maximum(index_x, index_y) >= order.order))
        raise WireFormatError(f"record {first + row}: a report overflows {order.r}-bit indices")
    if words.size and int(index_x.min()) < 0:
        row = int(np.argmax(index_x < 0))
        pair = [int(index_x[row]), int(index_y[row])]
        raise WireFormatError(f"record {first + row}: negative index in {pair}")
    _check_distinct(index_x, index_y, first)
    r = order.r
    # set the sign bit above index_y and lift both to the top of the low
    # half; the word's right shift by as much joins them to index_x
    index_y |= np.uint32(1 << r)
    index_y <<= np.uint32(31 - r)
    record = words.view(np.uint64)
    record >>= np.uint64(31 - r)
    size = packed_size(order)
    record <<= np.uint64(size * 8 - (2 * r + 1))
    _swap_words(record)
    # the record is the low ``size`` bytes of its big-endian word
    return words.view(np.uint8).reshape(-1, 8)[:, 8 - size :].tobytes()


def _unpack_records(body: bytes, order: HadamardOrder) -> tuple[np.ndarray, np.ndarray]:
    """A body's records as (index_x, index_y), the int64 columns of the (n, 2)
    array they are split in; the sign bit is ignored, and the first record
    with nonzero padding or equal indices is an error."""
    r = order.r
    size = packed_size(order)
    count = len(body) // size
    pairs = np.zeros((count, 2), dtype=np.int64)
    records = np.frombuffer(body, dtype=np.uint8).reshape(count, size)
    pairs.view(np.uint8)[:, 8 - size : 8] = records
    # unsigned: at r = 31 a record fills all 64 bits, and a signed shift
    # would carry its top bit down
    words = pairs.view(np.uint64)
    record, index_y = words[:, 0], words[:, 1]
    _swap_words(record)
    pad = size * 8 - (2 * r + 1)
    if np.bitwise_and(record, np.uint64((1 << pad) - 1), out=index_y).any():
        raise WireFormatError(
            f"record {int(np.argmax(index_y != 0))}: padding bits must be zero"
        )
    record >>= np.uint64(pad)
    np.bitwise_and(record, np.uint64((1 << r) - 1), out=index_y)
    record >>= np.uint64(r + 1)
    # an r-bit field is never negative nor past the order
    _check_distinct(pairs[:, 0], pairs[:, 1])
    return pairs[:, 0], pairs[:, 1]


def _report_words(reports: list, order: HadamardOrder, first: int) -> np.ndarray:
    """The reports, numbered from ``first``, as int64 words; a report that
    is not an int (a float, even a whole one, a string or a tuple), or an
    int past an int64, is an error naming its record."""
    try:
        return np.fromiter(map(operator.index, reports), dtype=np.int64, count=len(reports))
    except (TypeError, OverflowError):
        pass  # only a chunk that failed is walked again, to name its bad record
    for record, report in enumerate(reports, first):
        if not hasattr(type(report), "__index__"):
            raise WireFormatError(f"record {record}: report {report!r} is not an integer")
        if not -(1 << 63) <= operator.index(report) < 1 << 63:
            raise WireFormatError(f"record {record}: a report overflows {order.r}-bit indices")
    raise AssertionError("a chunk failed to convert, yet every report is an int64")


def write_report_file(path: str | Path, reports: Iterable[int], order: HadamardOrder) -> int:
    """Write a header plus packed records; returns the record count.

    Each report is an int ``index_x << 32 | index_y``, as
    :func:`fldp.mechanisms.FhrReport` makes it. The bytes are the header
    followed by each report's packed record, and they replace ``path`` only
    once all of them are written. The reports are taken 2^16 at a time,
    each chunk packed and written on its own, and the header's record count
    is patched in at the end.
    """
    _file_order(order.r)
    reports = iter(reports)
    count = 0
    with replace_atomically(path, "wb") as handle:
        handle.write(_HEADER.pack(FILE_MAGIC, order.r, 0))
        # a chunk's list, words and body are temporaries, each freed once
        # the next is made; the empty chunk at the end writes nothing
        while written := handle.write(
            _pack_records(_report_words(list(islice(reports, _CHUNK)), order, count), order, count)
        ):
            count += written // packed_size(order)
        handle.seek(0)
        handle.write(_HEADER.pack(FILE_MAGIC, order.r, count))
    return count


def read_report_file(path: str | Path) -> tuple[HadamardOrder, tuple[np.ndarray, np.ndarray]]:
    """Read a report file back as its order and (index_x, index_y) int64
    arrays, as a client returns them; validates magic, order, length, and every record.

    A record with nonzero padding or equal indices rejects the file with
    :class:`WireFormatError`. The header is checked against the
    file's size before the body is read, so a header promising more
    records than the file holds, or an order beyond the cap, costs no
    allocation.
    """
    with Path(path).open("rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise WireFormatError(f"file too short for a header: {len(header)} bytes")
        magic, r, count = _HEADER.unpack(header)
        if magic != FILE_MAGIC:
            raise WireFormatError(f"bad magic {magic!r}")
        order = _file_order(r)
        size = packed_size(order)
        body_size = os.fstat(handle.fileno()).st_size - _HEADER.size
        if body_size != count * size:
            raise WireFormatError(
                f"expected {count} records of {size} bytes, found {body_size} bytes"
            )
        body = handle.read(body_size)
    if len(body) != body_size:
        raise WireFormatError(f"file shrank while reading: {len(body)} of {body_size} bytes")
    return order, _unpack_records(body, order)


def report_size_table(domain_size: int, epsilon: float = 1.0) -> dict[str, int]:
    """Bits one client report costs under each registered mechanism.

    A view of each record's ``report_bits``, in registry order; the
    budget only matters to OLH, whose hash range it sets.
    """
    if domain_size < 2:
        raise ValueError(f"domain must have at least 2 items, got {domain_size}")
    return {name: m.report_bits(domain_size, epsilon) for name, m in MECHANISMS.items()}
