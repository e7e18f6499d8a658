"""Server-side accumulation, frequency estimation, and variance formulas.

FHR aggregation is a two-step pipeline: fold every report's implied sparse
vector (+1 at index_x, -1 at index_y) into a running :class:`SumVector`,
then estimate item i's count as ``correction * (sums . H[i + 1])``.
Reports arrive as index arrays, either the two columns the client
perturber returns or the (n, 2) rows :func:`fldp.wire.read_report_file`
decodes, and are folded with two bincounts.
Accumulation is a commutative integer merge, so partial sums from chunks
or workers combine into exactly the sequential result. The whole domain
is decoded at once by one fast Walsh-Hadamard transform of the sums,
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

import math
import os
from dataclasses import dataclass

import numpy as np

from .hadamard import HadamardOrder, fwht
from .mechanisms import (
    _OLH_KEY_LIMIT,
    PrivacyParams,
    _check_epsilon,
    _integers,
    _olh_buckets,
    _olh_keys,
    _require,
)

__all__ = [
    "SumVector",
    "FrequencyEstimate",
    "fhr_accumulate",
    "fhr_accumulate_indices",
    "fhr_estimate_all",
    "unary_estimate",
    "olh_support_counts",
    "olh_estimate_all",
    "fhr_variance_bound",
    "fhr_variance_exact",
    "oue_variance",
    "variance_crossover",
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

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"report count must be nonnegative, got {self.n}")
        if self.sums.ndim != 1:
            raise ValueError(f"sums must be one-dimensional, got shape {self.sums.shape}")

    def merge(self, other: "SumVector") -> "SumVector":
        """Combine two partial sums; commutative and associative."""
        if self.sums.shape != other.sums.shape:
            raise ValueError(
                f"cannot merge sums of length {self.sums.size} and {other.sums.size}"
            )
        return SumVector(sums=self.sums + other.sums, n=self.n + other.n)


@dataclass(frozen=True)
class FrequencyEstimate:
    """Per-item count estimates on the same scale as the raw data."""

    estimates: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.estimates)):
            raise ValueError("estimates must be finite")


def fhr_accumulate_indices(
    index_x: np.ndarray, index_y: np.ndarray, order: HadamardOrder
) -> SumVector:
    """Fold batches of report index pairs into a SumVector via bincount."""
    d = order.order
    index_x = _integers(index_x, "report indices").astype(np.int64, copy=False)
    index_y = _integers(index_y, "report indices").astype(np.int64, copy=False)
    if index_x.shape != index_y.shape:
        raise ValueError("index arrays must have matching shapes")
    for arr in (index_x, index_y):
        if arr.size and (arr.min() < 0 or arr.max() >= d):
            raise ValueError(f"corrupt report: index outside [0, {d})")
    if np.any(index_x == index_y):
        raise ValueError("corrupt report: equal indices")
    sums = np.bincount(index_x, minlength=d) - np.bincount(index_y, minlength=d)
    return SumVector(sums=sums.astype(np.int64), n=index_x.size)


def fhr_accumulate(pairs: np.ndarray, order: HadamardOrder) -> SumVector:
    """Fold an (n, 2) array of (index_x, index_y) rows, as a report file
    reads back; raises ValueError for any other shape."""
    pairs = np.asarray(pairs)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"report pairs must have shape (n, 2), got {pairs.shape}")
    return fhr_accumulate_indices(pairs[:, 0], pairs[:, 1], order)


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
    domain_size lies in [1, 2^32]. The set-up holds the keys (a, b), the
    offset key of item 0 built in b's buffer, and one buffer for the
    bucket gathers; no input is written.

    The reports are cut into min(usable CPUs, n // 2^14) contiguous
    shards, at least one. Each shard walks the items on its own thread
    (the numpy calls release the GIL) into its own row of counts, and the
    rows are summed, so the counts do not depend on the shard count.
    """
    if not 1 <= domain_size <= _OLH_KEY_LIMIT:
        raise ValueError(f"OLH domain size must lie in [1, 2^32], got {domain_size}")
    seeds = _integers(seeds, "seeds").astype(np.uint64, copy=False)
    values = _integers(values, "reported buckets").astype(np.int64, copy=False)
    if seeds.shape != values.shape:
        raise ValueError("seeds and values must have matching shapes")
    if values.size and (values.min() < 0 or values.max() >= g):
        raise ValueError(f"reported buckets must lie in [0, {g})")
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


def _fhr_variance_coefficient(epsilon: float) -> float:
    """B = (e^eps+1)^2 / (2 (e^eps-1)^2), squared as a ratio so that no
    budget with a finite e^eps overflows."""
    _check_epsilon(epsilon)
    e = math.exp(epsilon)
    return ((e + 1) / (e - 1)) ** 2 / 2


def fhr_variance_bound(epsilon: float, n: int) -> float:
    """Upper bound (e^eps+1)^2 / (2 (e^eps-1)^2) * n on Var[f-hat_t]."""
    b = _fhr_variance_coefficient(epsilon)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return b * n


def fhr_variance_exact(epsilon: float, n: int, true_count: int) -> float:
    """Exact Var[f-hat_t] = B*n + (B-1)*n_t with B the bound coefficient.

    Coincides with :func:`fhr_variance_bound` when the item never occurs;
    for n_t > 0 it exceeds the bound whenever B > 1 (small epsilon).
    """
    b = _fhr_variance_coefficient(epsilon)
    if not 0 <= true_count <= n:
        raise ValueError(f"true_count must lie in [0, {n}], got {true_count}")
    return b * n + (b - 1) * true_count


def oue_variance(epsilon: float, n: int) -> float:
    """OUE per-item estimator variance 4 e^eps / (e^eps - 1)^2 * n."""
    _check_epsilon(epsilon)
    e = math.exp(epsilon)
    return 4 / (e - 1) * (e / (e - 1)) * n


def variance_crossover() -> float:
    """Budget where FHR's bound meets the OUE variance: ln(3 + 2*sqrt(2)).

    Below this value FHR has the smaller constant, above it OUE does; the
    root solves (e^eps + 1)^2 = 8 e^eps.
    """
    return math.log(3 + 2 * math.sqrt(2))
