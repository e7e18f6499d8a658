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
and the server's dense sum vector stays at or below 2^31 entries. Records
are packed and unpacked with numpy shifts and masks in an (n, 2) int64
array of (index_x, index_y) rows: a record is built in, or split from, its
row's first word. With s = ceil((2r+1)/8) bytes a record, the writer packs
2^16 reports at a time, holding 16 + s bytes per record of that chunk
(about 1.3 MiB at r = 16, for any n), and the reader decodes the whole
file, holding 17 + s bytes per record (the body read, the array, which is
the result, and one byte of checks). The result is the form
:func:`fldp.aggregator.fhr_accumulate` folds; no per-record object is
built on the server side. The single-report :func:`pack_fhr` and
:func:`unpack_fhr` are the one-record case of the same codec, so they take
the same orders (r <= 31). Files are written whole or not at all (see
:mod:`fldp._atomic`).
"""

from __future__ import annotations

import operator
import os
import struct
import sys
from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path

import numpy as np

from ._atomic import replace_atomically
from .hadamard import HadamardOrder
from .mechanisms import MECHANISMS, FhrReport

__all__ = [
    "WireFormatError",
    "packed_size",
    "pack_fhr",
    "unpack_fhr",
    "write_report_file",
    "read_report_file",
    "report_size_table",
    "FILE_MAGIC",
]

FILE_MAGIC = b"FHR1"
_HEADER = struct.Struct(">4sIQ")  # magic, order exponent r, record count
_MAX_FILE_EXPONENT = 31  # see the module docstring
_CHUNK = 1 << 16  # reports the writer stages, checks and packs at a time


class WireFormatError(ValueError):
    """Bytes that do not decode to a valid report under the declared order."""


def packed_size(order: HadamardOrder) -> int:
    """Bytes per packed report: ceil((2r+1) / 8)."""
    return (2 * order.r + 1 + 7) // 8


def pack_fhr(report: FhrReport, order: HadamardOrder) -> bytes:
    """Serialize one report into packed_size(order) bytes, the body of a
    one-record report file; rejects out-of-range and equal indices."""
    _file_order(order.r)
    return _pack_records(_report_pairs([report], order, 0), order)


def unpack_fhr(data: bytes, order: HadamardOrder) -> FhrReport:
    """Decode packed_size(order) bytes, a one-record report file's body,
    back into a report; rejects wrong lengths and every invalid record."""
    _file_order(order.r)
    nbytes = packed_size(order)
    if len(data) != nbytes:
        raise WireFormatError(f"expected {nbytes} bytes, got {len(data)}")
    return FhrReport(*_unpack_records(data, order)[0].tolist())


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


def _check_distinct(pairs: np.ndarray, first: int = 0) -> None:
    """Raise :class:`WireFormatError` at the first (index_x, index_y) row, of
    rows numbered from ``first``, whose indices are equal; one byte a row."""
    equal = pairs[:, 0] == pairs[:, 1]
    if equal.any():
        row = int(equal.argmax())
        raise WireFormatError(
            f"record {first + row}: equal indices {pairs[row, 0]} are not a valid report"
        )


def _swap_words(words: np.ndarray) -> None:
    """Turn native uint64 words into big-endian ones in place, or back."""
    if sys.byteorder == "little":
        words.byteswap(inplace=True)


def _pack_records(pairs: np.ndarray, order: HadamardOrder, first: int = 0) -> bytes:
    """The (index_x, index_y) rows, numbered from ``first``, as concatenated
    records, sign bit 1, built in ``pairs``' own buffer, which they overwrite;
    every index must lie in [0, order) and differ from its row's other."""
    if pairs.size and int(pairs.max()) >= order.order:
        raise WireFormatError(f"a report overflows {order.r}-bit indices")
    if pairs.size and int(pairs.min()) < 0:
        row = int(np.argmax((pairs < 0).any(axis=1)))
        raise WireFormatError(f"record {first + row}: negative index in {pairs[row].tolist()}")
    _check_distinct(pairs, first)
    r = order.r
    size = packed_size(order)
    words = pairs.view(np.uint64)
    record = words[:, 0]
    record <<= np.uint64(r + 1)
    record |= words[:, 1]
    record |= np.uint64(1 << r)
    record <<= np.uint64(size * 8 - (2 * r + 1))
    _swap_words(record)
    # the record is the low ``size`` bytes of its big-endian word
    return pairs.view(np.uint8)[:, 8 - size : 8].tobytes()


def _unpack_records(body: bytes, order: HadamardOrder) -> np.ndarray:
    """A body's records as an (n, 2) int64 array of (index_x, index_y) rows,
    split in that array's own buffer; the sign bit is ignored, and the
    first record with nonzero padding or equal indices is an error."""
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
    _check_distinct(pairs)
    return pairs


def _indices(reports: Iterable[FhrReport], first: int) -> Iterator[int]:
    """Each report's index_x, then index_y; an index that is not an integer
    (a float, even a whole one, or a string) is an error naming its record."""
    for record, report in enumerate(reports, first):
        try:
            yield operator.index(report.index_x)
            yield operator.index(report.index_y)
        except TypeError:
            raise WireFormatError(f"record {record}: {report} has a non-integer index") from None


def _report_pairs(reports: Iterable[FhrReport], order: HadamardOrder, first: int) -> np.ndarray:
    """The reports, numbered from ``first``, as an (n, 2) int64 array of
    (index_x, index_y) rows, filled in one pass."""
    try:
        return np.fromiter(_indices(reports, first), dtype=np.int64).reshape(-1, 2)
    except OverflowError as exc:
        raise WireFormatError(f"a report overflows {order.r}-bit indices") from exc


def write_report_file(
    path: str | Path, reports: Iterable[FhrReport], order: HadamardOrder
) -> int:
    """Write a header plus packed records; returns the record count.

    The bytes are the header followed by each report's packed record, and
    they replace ``path`` only once all of them are written. The reports
    are taken 2^16 at a time, each chunk packed and written on its own, and
    the header's record count is patched in at the end.
    """
    _file_order(order.r)
    reports = iter(reports)
    count = 0
    with replace_atomically(path, "wb") as handle:
        handle.write(_HEADER.pack(FILE_MAGIC, order.r, 0))
        # a chunk's pairs and body are temporaries, freed before the next
        # chunk is staged; the empty chunk at the end writes nothing
        while written := handle.write(
            _pack_records(_report_pairs(islice(reports, _CHUNK), order, count), order, count)
        ):
            count += written // packed_size(order)
        handle.seek(0)
        handle.write(_HEADER.pack(FILE_MAGIC, order.r, count))
    return count


def read_report_file(path: str | Path) -> tuple[HadamardOrder, np.ndarray]:
    """Read a report file back as its order and an (n, 2) int64 array of
    (index_x, index_y) rows; validates magic, order, length, and every record.

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
