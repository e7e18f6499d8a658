"""Server-side accumulation and frequency estimation.

FHR aggregation is a two-step pipeline: fold every report's implied sparse
vector (+1 at index_x, -1 at index_y) into a running :class:`SumVector`,
then estimate item i's count as ``correction * (sums . H[i + 1])``.
Reports arrive as the (index_x, index_y) index arrays that the client
returns and :func:`fldp.wire.read_report_file` reads back, the one form
:func:`fhr_accumulate` folds, with two bincounts. The whole domain is
decoded at once by one fast Walsh-Hadamard transform of the sums,
O(order log order), whose entry ``i + 1`` is item ``i``'s dot product.

The baseline estimators are the usual unbiased inversions of their flip
probabilities: ``(observed - n*q) / (p - q)`` for the unary encodings'
bit counts and for GRR, whose tally of reported values is a sum of
one-hot vectors and so is such a bit count; and
``(C(t) - n/g) / (p - 1/g)`` for OLH support counts, which are
tallied item by item with one add and one compare per report. Large
batches of OLH reports are split into contiguous shards, one thread each
up to the usable CPU count; the per-item numpy calls release the GIL, and
the shards' integer counts add up to exactly the one-shard tally.

Estimates live on the count scale and are neither clipped nor normalized
here; negative values are meaningful to the variance tests and it is the
metrics layer that decides how to project onto a distribution.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .hadamard import HadamardOrder, fwht
from .mechanisms import (
    _OLH_KEY_LIMIT,
    PrivacyParams,
    _integers,
    _olh_buckets,
    _olh_keys,
    _require,
)

__all__ = [
    "SumVector",
    "FrequencyEstimate",
    "fhr_accumulate",
    "fhr_estimate_all",
    "unary_estimate",
    "olh_support_counts",
    "olh_estimate_all",
]

# the fewest reports worth a thread of their own in the OLH support tally
_MIN_SHARD = 1 << 14


@dataclass(frozen=True)
class SumVector:
    """Running elementwise sum of report vectors, plus how many went in.

    For FHR each report contributes one +1 and one -1, so the entries of
    ``sums`` always total zero and no entry can exceed ``n`` in magnitude.
    """

    sums: np.ndarray
    n: int


@dataclass(frozen=True)
class FrequencyEstimate:
    """Per-item count estimates on the same scale as the raw data."""

    estimates: np.ndarray


def fhr_accumulate(pairs: tuple[np.ndarray, np.ndarray], order: HadamardOrder) -> SumVector:
    """Fold reports, the (index_x, index_y) index arrays a client returns and a
    report file reads back, into a SumVector. Anything but two equal-length 1-D
    arrays raises ValueError, one (n, 2) array included, as do indices outside
    [0, order) or equal ones."""
    d = order.order
    shapes = [np.shape(c) for c in pairs] if isinstance(pairs, (tuple, list)) else [np.shape(pairs)]
    if len(shapes) != 2 or len(shapes[0]) != 1 or shapes[0] != shapes[1]:
        raise ValueError(f"reports must be two equal-length 1-D index arrays, got shapes {shapes}")
    index_x, index_y = (_integers(c, "report indices", d) for c in pairs)
    if np.any(index_x == index_y):
        raise ValueError("corrupt report: equal indices")
    sums = np.bincount(index_x, minlength=d) - np.bincount(index_y, minlength=d)
    return SumVector(sums=sums.astype(np.int64), n=index_x.size)


def fhr_estimate_all(
    sum_vector: SumVector,
    domain_size: int,
    params: PrivacyParams,
    order: HadamardOrder,
) -> FrequencyEstimate:
    """Estimate every item in [0, domain_size) from one transform of the sums.

    ``fwht(sums)`` is ``H @ sums``, whose entry ``i + 1`` is item i's row's
    dot product with the sums (row 0 is reserved), so the cost is
    O(order log order) in place of O(domain_size * order) for the rows one
    at a time.
    """
    _require(params, "correction", "FHR")
    if not 1 <= domain_size < order.order:
        raise ValueError(
            f"order {order.order} too small for {domain_size} items "
            "(need 1 <= items < order: item i reads row i + 1)"
        )
    if sum_vector.sums.size != order.order:
        raise ValueError(
            f"sums of length {sum_vector.sums.size} do not match order {order.order}"
        )
    products = fwht(sum_vector.sums.astype(np.int64))
    return FrequencyEstimate(estimates=params.correction * products[1 : domain_size + 1])


def unary_estimate(bit_counts: np.ndarray, params: PrivacyParams, n: int) -> FrequencyEstimate:
    """Invert per-position set-bit tallies of n reports: (c_i - n*q) / (p - q).

    A GRR tally of reported values is one: each report is the one-hot
    vector of its value, the item with probability p and each other with q.
    """
    _require(params, "q", "GRR or unary encoding")
    bit_counts = np.asarray(bit_counts, dtype=np.float64)
    if bit_counts.size and (bit_counts.min() < 0 or bit_counts.max() > n):
        raise ValueError(f"bit counts must lie in [0, {n}]")
    return FrequencyEstimate(estimates=(bit_counts - n * params.q) / (params.p - params.q))


def _usable_cpus() -> int:
    """CPUs this process may run on, where the platform says so."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _tally(offset: np.ndarray, a: np.ndarray, width: np.ndarray, domain_size: int) -> np.ndarray:
    """Support counts of items [0, domain_size) over one shard of reports.

    ``offset`` holds item 0's offset keys and is advanced in place.
    """
    hit = np.empty(offset.shape, dtype=bool)
    out = np.empty(domain_size, dtype=np.int64)
    for t in range(domain_size):
        if t:
            offset += a
        np.less(offset, width, out=hit)
        out[t] = np.count_nonzero(hit)
    return out


def olh_support_counts(
    seeds: np.ndarray, values: np.ndarray, domain_size: int, g: int
) -> np.ndarray:
    """C(t) for every item t in [0, domain_size): how many reports hash t
    to their reported bucket.

    Report i supports item t when its key ``a_i*t + b_i`` falls in the key
    interval [lo, lo + width) of its reported bucket (see
    :func:`fldp.mechanisms.olh_hash`), that is when
    ``(a_i*t + b_i - lo) mod 2^64 < width``. The items are walked in order
    with that offset key held per report and advanced in place by ``a_i``,
    so an item costs one add, one compare and one count over the n
    reports, and no hash is recomputed. The items must be OLH keys, so
    domain_size lies in [1, 2^32], and the seeds integers in [0, 2^64),
    as :func:`fldp.mechanisms.olh_hash` requires. The set-up holds the
    keys (a, b), the offset key of item 0 built in b's buffer, and one
    buffer for the bucket gathers; no input is written.

    The reports are cut into min(usable CPUs, n // 2^14) contiguous
    shards, at least one. Each shard walks the items on its own thread
    (the numpy calls release the GIL) into its own row of counts, and the
    rows are summed, so the counts do not depend on the shard count.
    """
    if not 1 <= domain_size <= _OLH_KEY_LIMIT:
        raise ValueError(f"OLH domain size must lie in [1, 2^32], got {domain_size}")
    seeds = _integers(seeds, "seeds", 1 << 64)
    values = _integers(values, "reported buckets", g)
    if seeds.shape != values.shape:
        raise ValueError("seeds and values must have matching shapes")
    a, offset = _olh_keys(seeds)  # (a, b), b's buffer to become the offset key
    lo, width = _olh_buckets(g)
    span = lo[values]
    offset -= span  # b - lo, the offset key of item 0
    # the same buffer gathers the widths; "clip" spares take a copy of it
    width = np.take(width, values, out=span, mode="clip")
    n = offset.size
    shards = max(1, min(_usable_cpus(), n // _MIN_SHARD))
    if shards == 1:
        return _tally(offset, a, width, domain_size)
    # imported here so that importing fldp does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    # the workers call only numpy and private helpers, which perfbench's
    # tracer leaves unwrapped: its one span stack is not thread-safe
    cuts = [n * k // shards for k in range(shards + 1)]
    parts = [slice(start, stop) for start, stop in zip(cuts, cuts[1:])]
    with ThreadPoolExecutor(max_workers=shards) as pool:
        rows = list(pool.map(lambda s: _tally(offset[s], a[s], width[s], domain_size), parts))
    return np.sum(rows, axis=0)


def olh_estimate_all(
    seeds: np.ndarray,
    values: np.ndarray,
    domain_size: int,
    params: PrivacyParams,
) -> FrequencyEstimate:
    """Estimate every item in [0, domain_size) from OLH reports."""
    _require(params, "g", "OLH")
    n = np.asarray(seeds).size
    counts = olh_support_counts(seeds, values, domain_size, params.g)
    estimates = (counts - n / params.g) / (params.p - 1 / params.g)
    return FrequencyEstimate(estimates=estimates)
