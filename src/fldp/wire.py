"""Bit-exact serialization of FHR reports and the per-mechanism cost table.

A packed report is a 2r+1 bit field laid out most-significant-first:
index_x (r bits), a sign bit, index_y (r bits), zero-padded on the right
to the byte boundary. The mechanism layer fixes the convention that the
first index holds +1, which makes the sign bit redundant: packing always
writes it as 1, and unpacking accepts either value without reading any
meaning into it. The bit stays in the layout so a report costs exactly
the advertised 2r+1 bits.

Report files carry a fixed 16-byte header (magic, order exponent, record
count) followed by the packed records; a JSON-lines rendering of the same
triples exists for debugging.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable, Iterator

from .hadamard import HadamardOrder
from .mechanisms import MECHANISMS, FhrReport

__all__ = [
    "WireFormatError",
    "packed_size",
    "pack_fhr",
    "unpack_fhr",
    "write_report_file",
    "read_report_file",
    "report_to_json_line",
    "report_from_json_line",
    "report_size_table",
    "FILE_MAGIC",
]

FILE_MAGIC = b"FHR1"
_HEADER = struct.Struct(">4sIQ")  # magic, order exponent r, record count


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


def write_report_file(
    path: str | Path, reports: Iterable[FhrReport], order: HadamardOrder
) -> int:
    """Write a header plus packed records; returns the record count."""
    records = [pack_fhr(report, order) for report in reports]
    path = Path(path)
    with path.open("wb") as handle:
        handle.write(_HEADER.pack(FILE_MAGIC, order.r, len(records)))
        for record in records:
            handle.write(record)
    return len(records)


def read_report_file(path: str | Path) -> tuple[HadamardOrder, list[FhrReport]]:
    """Read a report file back; validates magic, length, and every record."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise WireFormatError(f"file too short for a header: {len(raw)} bytes")
    magic, r, count = _HEADER.unpack_from(raw)
    if magic != FILE_MAGIC:
        raise WireFormatError(f"bad magic {magic!r}")
    try:
        order = HadamardOrder(r=r)
    except ValueError as exc:
        raise WireFormatError(str(exc)) from exc
    size = packed_size(order)
    body = raw[_HEADER.size :]
    if len(body) != count * size:
        raise WireFormatError(
            f"expected {count} records of {size} bytes, found {len(body)} bytes"
        )
    return order, [
        unpack_fhr(body[i * size : (i + 1) * size], order) for i in range(count)
    ]


def report_to_json_line(report: FhrReport) -> str:
    """One-line JSON rendering of the (index_x, sign, index_y) triple."""
    return json.dumps(
        {"index_x": report.index_x, "sign": 1, "index_y": report.index_y}
    )


def report_from_json_line(line: str) -> FhrReport:
    try:
        fields = json.loads(line)
        index_x = int(fields["index_x"])
        index_y = int(fields["index_y"])
        sign = int(fields.get("sign", 1))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"bad report line: {exc}") from exc
    if sign not in (0, 1):
        raise WireFormatError(f"sign must be 0 or 1, got {sign}")
    try:
        return FhrReport(index_x=index_x, index_y=index_y)
    except ValueError as exc:
        raise WireFormatError(str(exc)) from exc


def report_size_table(domain_size: int, epsilon: float = 1.0) -> dict[str, int]:
    """Bits one client report costs under each registered mechanism.

    A view of each record's ``report_bits``, in registry order; the
    budget only matters to OLH, whose hash range it sets.
    """
    if domain_size < 2:
        raise ValueError(f"domain must have at least 2 items, got {domain_size}")
    return {name: m.report_bits(domain_size, epsilon) for name, m in MECHANISMS.items()}
