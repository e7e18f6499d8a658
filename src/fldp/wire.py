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
which is how files are packed and unpacked, all records at once with numpy
shifts and masks, and the server's dense sum vector stays at or below 2^31
entries. A file is read back as one (n, 2) int64 array of (index_x,
index_y) rows, the form :func:`fldp.aggregator.fhr_accumulate` folds; no
per-record object is built on the server side. The single-report
:func:`pack_fhr` and :func:`unpack_fhr` take any order the matrix allows
(r <= 63). Files are written whole or not at all (see :mod:`fldp._atomic`).
"""

from __future__ import annotations

import itertools
import os
import struct
from pathlib import Path
from typing import Iterable

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


class WireFormatError(ValueError):
    """Bytes that do not decode to a valid report under the declared order."""


def packed_size(order: HadamardOrder) -> int:
    """Bytes per packed report: ceil((2r+1) / 8)."""
    return (2 * order.r + 1 + 7) // 8


def pack_fhr(report: FhrReport, order: HadamardOrder) -> bytes:
    """Serialize one report into exactly packed_size(order) bytes."""
    r = order.r
    d = order.order
    if report.index_x >= d or report.index_y >= d:
        raise WireFormatError(f"report {report} overflows {r}-bit indices")
    width = 2 * r + 1
    nbytes = packed_size(order)
    word = (report.index_x << (r + 1)) | (1 << r) | report.index_y
    return (word << (nbytes * 8 - width)).to_bytes(nbytes, "big")


def unpack_fhr(data: bytes, order: HadamardOrder) -> FhrReport:
    """Decode packed_size(order) bytes back into a report.

    Rejects wrong lengths, nonzero padding, and equal indices. The sign
    bit is ignored: the first index holds +1 by convention.
    """
    r = order.r
    width = 2 * r + 1
    nbytes = packed_size(order)
    if len(data) != nbytes:
        raise WireFormatError(f"expected {nbytes} bytes, got {len(data)}")
    value = int.from_bytes(data, "big")
    pad = nbytes * 8 - width
    if value & ((1 << pad) - 1):
        raise WireFormatError("padding bits must be zero")
    word = value >> pad
    mask = (1 << r) - 1
    index_y = word & mask
    index_x = word >> (r + 1)
    if index_x == index_y:
        raise WireFormatError(f"equal indices {index_x} are not a valid report")
    return FhrReport(index_x=index_x, index_y=index_y)


def _file_order(r: int) -> HadamardOrder:
    """The order a report file may declare: 1 <= r <= _MAX_FILE_EXPONENT."""
    if r > _MAX_FILE_EXPONENT:
        raise WireFormatError(
            f"report files hold order exponents up to {_MAX_FILE_EXPONENT}, got r={r}"
        )
    try:
        return HadamardOrder(r=r)
    except ValueError as exc:
        raise WireFormatError(str(exc)) from exc


def _pack_records(pairs: np.ndarray, order: HadamardOrder) -> bytes:
    """Concatenated :func:`pack_fhr` records of (index_x, index_y) rows at once."""
    r = order.r
    size = packed_size(order)
    if pairs.size and int(pairs.max()) >= order.order:
        raise WireFormatError(f"a report overflows {r}-bit indices")
    x, y = pairs[:, 0].astype(np.uint64), pairs[:, 1].astype(np.uint64)
    words = (x << np.uint64(r + 1)) | np.uint64(1 << r) | y
    words <<= np.uint64(size * 8 - (2 * r + 1))
    # big-endian words; the record is their low ``size`` bytes
    return words.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - size :].tobytes()


def _unpack_records(body: bytes, order: HadamardOrder) -> np.ndarray:
    """:func:`unpack_fhr` over every record of a file body at once, as an
    (n, 2) int64 array of (index_x, index_y) rows."""
    r = order.r
    size = packed_size(order)
    count = len(body) // size
    padded = np.zeros((count, 8), dtype=np.uint8)
    padded[:, 8 - size :] = np.frombuffer(body, dtype=np.uint8).reshape(count, size)
    words = padded.view(">u8").ravel().astype(np.uint64)
    pad = size * 8 - (2 * r + 1)
    bad = np.flatnonzero(words & np.uint64((1 << pad) - 1))
    if bad.size:
        raise WireFormatError(f"record {bad[0]}: padding bits must be zero")
    words >>= np.uint64(pad)
    words = words.view(np.int64)  # 2r+1 <= 63 bits, so every word is nonnegative
    pairs = np.stack((words >> (r + 1), words & ((1 << r) - 1)), axis=1)
    equal = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
    if equal.size:
        raise WireFormatError(
            f"record {equal[0]}: equal indices {pairs[equal[0], 0]} are not a valid report"
        )
    return pairs


def _report_pairs(reports: Iterable[FhrReport]) -> np.ndarray:
    """The reports' (index_x, index_y) as an (n, 2) int64 array.

    Raises OverflowError for an index beyond int64.
    """
    flat = itertools.chain.from_iterable((rep.index_x, rep.index_y) for rep in reports)
    return np.fromiter(flat, dtype=np.int64).reshape(-1, 2)


def write_report_file(
    path: str | Path, reports: Iterable[FhrReport], order: HadamardOrder
) -> int:
    """Write a header plus packed records; returns the record count.

    The bytes are the header followed by each report's :func:`pack_fhr`
    record, and they replace ``path`` only once all of them are written.
    """
    _file_order(order.r)
    try:
        pairs = _report_pairs(reports)
    except OverflowError as exc:
        raise WireFormatError(f"a report overflows {order.r}-bit indices") from exc
    body = _pack_records(pairs, order)
    with replace_atomically(path, "wb") as handle:
        handle.write(_HEADER.pack(FILE_MAGIC, order.r, len(pairs)))
        handle.write(body)
    return len(pairs)


def read_report_file(path: str | Path) -> tuple[HadamardOrder, np.ndarray]:
    """Read a report file back as its order and an (n, 2) int64 array of
    (index_x, index_y) rows; validates magic, order, length, and every record.

    Row i is what :func:`unpack_fhr` gives for record i, and the file is
    rejected with :class:`WireFormatError` exactly when some record's
    :func:`unpack_fhr` would raise. The header is checked against the
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
