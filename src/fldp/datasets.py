"""Workload generation and ingestion: Zipf synthesis and CSV loading.

Both paths produce an :class:`ItemStream`, the unit the experiment harness
consumes: an array of items in [0, D) and one label per item id. The
domain size D and the exact ground-truth counts every estimator is judged
against are derived from those two, never stored beside them. Zipf
streams are drawn i.i.d. from the truncated law P(i) proportional to
(i+1)^(-exponent) and are deterministic under their seed; CSV ingestion
dictionary-encodes raw values to dense item ids in order of first
appearance.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._atomic import replace_atomically
from .mechanisms import _BLOCK

__all__ = [
    "DatasetSpec",
    "ItemStream",
    "generate_zipf",
    "ingest_csv",
    "load_stream",
    "zipf_probabilities",
    "export_stream_csv",
    "export_ground_truth",
]

DEFAULT_ZIPF_EXPONENT = 1.5


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to reproduce a workload.

    ``source`` is "zipf" or "csv"; ``path`` only applies to csv. The Zipf
    exponent must exceed 1, so the untruncated law is normalizable, and be
    finite, so the manifest (which records it for either source) is JSON.
    """

    source: str
    n: int = 0
    domain_size: int = 0
    zipf_exponent: float = DEFAULT_ZIPF_EXPONENT
    seed: int = 0
    path: str | None = None

    def __post_init__(self) -> None:
        if self.source not in ("zipf", "csv"):
            raise ValueError(f"source must be 'zipf' or 'csv', got {self.source!r}")
        if self.source == "zipf":
            if self.n < 1:
                raise ValueError(f"n must be at least 1, got {self.n}")
            if self.domain_size < 2:
                raise ValueError(f"domain must have at least 2 items, got {self.domain_size}")
        elif not self.path:
            raise ValueError(f"csv source requires a CSV file path, got {self.path!r}")
        if not 1 < self.zipf_exponent < float("inf"):
            raise ValueError(f"zipf exponent must be finite and exceed 1, got {self.zipf_exponent}")


@dataclass(frozen=True)
class ItemStream:
    """Materialized workload: one item per user, and one label per item id.

    ``labels`` maps item ids back to raw values for export; synthetic
    streams just use the decimal ids. The domain is the label count, and
    the exact truth is computed from the items on first use.
    """

    items: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.items.size and (self.items.min() < 0 or self.items.max() >= self.domain_size):
            raise ValueError("stream contains an item outside the domain")

    @property
    def n(self) -> int:
        return self.items.size

    @property
    def domain_size(self) -> int:
        return len(self.labels)

    @cached_property
    def ground_truth(self) -> np.ndarray:
        return np.bincount(self.items, minlength=self.domain_size).astype(np.int64)


def zipf_probabilities(domain_size: int, exponent: float) -> np.ndarray:
    """Truncated Zipf law over [0, domain_size), normalized."""
    if not 1 < exponent < float("inf"):
        raise ValueError(f"zipf exponent must be finite and exceed 1, got {exponent}")
    weights = np.arange(1, domain_size + 1, dtype=np.float64) ** (-exponent)
    return weights / weights.sum()


def generate_zipf(spec: DatasetSpec) -> ItemStream:
    """Draw spec.n i.i.d. items from the truncated Zipf law under spec.seed.

    Each item inverts the law's CDF at one uniform. The items array is
    filled 2^14 items at a time, each block from that block's uniforms;
    consecutive ``rng.random`` calls continue one stream, so the items are
    those of one whole draw, and the items array is the only n-sized one.
    """
    if spec.source != "zipf":
        raise ValueError(f"spec source is {spec.source!r}, expected 'zipf'")
    probs = zipf_probabilities(spec.domain_size, spec.zipf_exponent)
    rng = np.random.default_rng(spec.seed)
    cdf = np.cumsum(probs)
    items = np.empty(spec.n, dtype=np.int64)
    for start in range(0, spec.n, _BLOCK):
        block = items[start : start + _BLOCK]
        block[:] = np.searchsorted(cdf, rng.random(block.size), side="right")
    np.minimum(items, spec.domain_size - 1, out=items)  # cdf[-1] may round below 1
    return ItemStream(items=items, labels=tuple(str(i) for i in range(spec.domain_size)))


def ingest_csv(path: str | Path) -> ItemStream:
    """Load one item per row from the first column, dictionary-encoding
    values by first appearance.

    The file is UTF-8, with or without a byte-order mark. Blank lines are
    skipped. A blank value, or a row the csv module cannot parse (an
    oversized field, a NUL byte), raises ValueError naming the file line
    the row ends on, which a quoted field spanning lines moves past the row
    count. Bytes that are not UTF-8 raise ValueError naming the file only:
    the decoder reads ahead, so no line is known. An input with no data
    rows is an error, not an empty stream.
    """
    path = Path(path)
    encoding: dict[str, int] = {}
    items: list[int] = []
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            for row in reader:
                if not row:
                    continue  # blank separator lines are not records
                value = row[0].strip()
                if not value:
                    raise ValueError(f"{path}:{reader.line_num}: empty value")
                items.append(encoding.setdefault(value, len(encoding)))
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not items:
        raise ValueError(f"{path}: no data rows")
    return ItemStream(items=np.asarray(items, dtype=np.int64), labels=tuple(encoding))


def load_stream(spec: DatasetSpec) -> ItemStream:
    """The workload ``spec`` describes: a Zipf draw or an ingested CSV."""
    return generate_zipf(spec) if spec.source == "zipf" else ingest_csv(spec.path)


def export_stream_csv(stream: ItemStream, path: str | Path) -> None:
    """Write the raw stream back out, one labeled value per row.

    Re-ingesting the file reproduces every label's count exactly; the
    dense ids may be renumbered, since ingestion assigns them by first
    appearance.
    """
    with replace_atomically(path, newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        for item in stream.items:
            writer.writerow([stream.labels[item]])


def export_ground_truth(stream: ItemStream, path: str | Path) -> None:
    """Write the exact counts as (item_label, count) rows."""
    with replace_atomically(path, newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["item", "count"])
        for item, count in enumerate(stream.ground_truth):
            writer.writerow([stream.labels[item], int(count)])
