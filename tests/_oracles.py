"""Independent reference implementations the library is tested against.

Everything here is deliberately written the slow, obvious way (explicit
recursion, python loops, sort-and-pick) so that agreement with the
library's vectorized or closed-form code is meaningful evidence.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from fldp.hadamard import HadamardOrder, min_order_for_domain, row_vector
from fldp.mechanisms import FhrReport, _require
from fldp.verifier import FldpCertificate, OutputRange, certify_ranges, enumerate_range
from fldp.wire import WireFormatError, packed_size


def sylvester_matrix(r: int) -> np.ndarray:
    """Hadamard matrix of order 2^r by the textbook block recursion."""
    h = np.array([[1]], dtype=np.int64)
    for _ in range(r):
        h = np.block([[h, h], [h, -h]])
    return h


def top_k_oracle(table, k: int) -> list[int]:
    """Top-k items by value descending, ties by ascending index.

    A full lexsort of the whole table, which ``top_k`` replaces with a
    partial selection.
    """
    table = np.asarray(table, dtype=np.float64)
    # lexsort's last key dominates: -value first, index as tie-break
    ranked = np.lexsort((np.arange(table.size), -table))
    return ranked[: min(k, table.size)].tolist()


def median_oracle(values) -> float:
    """Sort-based median: middle element, or mean of the middle two."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


def kld_oracle(real, est, candidate_items, smoothing: float) -> float:
    """Symmetrized KL over candidates: clip, smooth, renormalize, sum."""
    p = [max(float(real[i]), 0.0) + smoothing for i in candidate_items]
    q = [max(float(est[i]), 0.0) + smoothing for i in candidate_items]
    p_total, q_total = sum(p), sum(q)
    p = [v / p_total for v in p]
    q = [v / q_total for v in q]
    forward = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))
    backward = sum(qi * math.log(qi / pi) for pi, qi in zip(p, q))
    return 0.5 * (forward + backward)


def related_error_oracle(real, est, candidate_items) -> float:
    errors = [abs(real[i] - est[i]) / real[i] for i in candidate_items]
    return median_oracle(errors)


def squared_error_oracle(real, est, k: int) -> float | None:
    """Mean squared frequency error over the top-k intersection.

    Returns None when the sets are disjoint; both tables are scaled by
    the true table's total.
    """
    total = float(sum(real))
    shared = set(top_k_oracle(real, k)) & set(top_k_oracle(est, k))
    if not shared:
        return None
    return sum(((real[i] - est[i]) / total) ** 2 for i in shared) / len(shared)


def ncr_oracle(real, est, k: int) -> float:
    """Membership scoring: an estimated item earns its true rank's points."""
    true_ranked = top_k_oracle(real, k)
    scores = {item: k - rank for rank, item in enumerate(true_ranked)}
    total = sum(scores.get(item, 0) for item in top_k_oracle(est, k))
    return total / sum(scores.values())


def tally_oracle(items) -> dict[int, int]:
    counts: dict[int, int] = {}
    for item in items:
        counts[int(item)] = counts.get(int(item), 0) + 1
    return counts


def unary_perturb_bits_oracle(items, params, domain_size: int, rng) -> np.ndarray:
    """Per-user unary reports, shape (n, domain_size), uint8: the law that
    ``unary_sample_counts`` draws the column sums of.

    Each user's item is one-hot encoded and every bit flipped independently:
    a set bit stays 1 with probability p, a clear bit becomes 1 with
    probability q. Vectorised over users, as the tests need 10^5 of them.
    """
    items = np.asarray(items, dtype=np.int64)
    u = rng.random((items.size, domain_size))
    bits = u < params.q
    users = np.arange(items.size)
    bits[users, items] = u[users, items] < params.p
    return bits.view(np.uint8)


_MASK64 = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15


def splitmix64_oracle(z: int) -> int:
    """splitmix64 finalizer on python ints, masked to 64 bits by hand."""
    z = (z + _SM_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def olh_hash_oracle(seed: int, item: int, g: int) -> int:
    """The OLH hash one (seed, item) pair at a time, on python ints.

    Multiply-shift: (a, b) are the first two splitmix64 outputs from the
    seed, and the bucket scales the upper 32 bits of a*item + b onto [0, g).
    """
    a = splitmix64_oracle(seed)
    b = splitmix64_oracle((seed + _SM_GAMMA) & _MASK64)
    upper = ((a * item + b) & _MASK64) >> 32
    return upper * g >> 32


def fhr_perturb_batch_oracle(items, params, order, rng) -> tuple[np.ndarray, np.ndarray]:
    """FHR's client in its ``np.where`` form, the draws the library keeps.

    Columns u1 and u2 uniform over [0, order), then the keep coins: u1 is
    folded onto the row's +1 half, u2 onto its -1 half, and the pair is
    swapped unless its coin lands below p. Item t reads row t + 1, written
    out here in place of the library's checked row map.
    """
    _require(params, "correction", "FHR")
    rows = np.asarray(items).astype(np.uint64) + np.uint64(1)
    n = rows.size
    d = order.order
    m = rows & (~rows + np.uint64(1))  # lowest set bit, a -1 column of each row

    u1 = rng.integers(0, d, size=n, dtype=np.uint64)
    u2 = rng.integers(0, d, size=n, dtype=np.uint64)
    neg1 = (np.bitwise_count(rows & u1) & np.uint8(1)).astype(bool)
    neg2 = (np.bitwise_count(rows & u2) & np.uint8(1)).astype(bool)
    x = np.where(neg1, u1 ^ m, u1)  # uniform over the +1 half
    y = np.where(neg2, u2, u2 ^ m)  # uniform over the -1 half

    keep = rng.random(n) < params.p
    index_x = np.where(keep, x, y).astype(np.int64)
    index_y = np.where(keep, y, x).astype(np.int64)
    return index_x, index_y


def sign_block_oracle(rows, order: int) -> np.ndarray:
    """Matrix block for the given rows, shape (len(rows), order), int8,
    from the popcount closed form over the whole block at once."""
    rows = np.asarray(rows, dtype=np.uint64)
    cols = np.arange(order, dtype=np.uint64)
    parity = np.bitwise_count(rows[:, None] & cols[None, :]).astype(np.int8) & 1
    return 1 - 2 * parity


@dataclasses.dataclass(frozen=True, eq=False)
class FhrRange(OutputRange):
    """An FHR item's enumerated range, whose code ``x * order + y`` stands
    for the pair ``(x, y)``: +1 at column x and -1 at column y."""

    order: int

    def output(self, code: int) -> tuple[int, int]:
        return divmod(code, self.order)


def fhr_range_oracle(item: int, params, domain_size: int) -> FhrRange:
    """Every output of FHR run on ``item``, in enumeration order.

    For x in the row's +1 columns and y in its -1 columns (both
    ascending): (x, y), kept with probability p 4/order^2, then (y, x),
    flipped with probability 4/((e^eps + 1) order^2). Written out whole,
    order^2 / 2 outputs, so only small orders are practical.
    """
    _require(params, "correction", "FHR")
    d = min_order_for_domain(domain_size).order
    row = item + 1
    if item < 0 or row >= d:
        raise ValueError(f"item {item} outside domain [0, {domain_size})")
    signs = row_vector(row, d)
    pos = np.flatnonzero(signs > 0)[:, None]
    neg = np.flatnonzero(signs < 0)[None, :]
    p_keep = params.p * 4 / (d * d)
    p_flip = 1 / (math.exp(params.epsilon) + 1) * 4 / (d * d)
    codes = np.stack([pos * d + neg, neg * d + pos], axis=-1).ravel()
    probs = np.tile([p_keep, p_flip], codes.size // 2)
    return FhrRange(codes=codes, probs=probs, order=d)


def exact_range(mechanism: str, item: int, params, domain_size: int) -> OutputRange:
    """The enumerated range of any certifiable mechanism, FHR's from the oracle."""
    if mechanism == "fhr":
        return fhr_range_oracle(item, params, domain_size)
    return enumerate_range(mechanism, item, params, domain_size)


def certify_fhr_oracle(params, domain_size: int) -> FldpCertificate:
    """FHR's certificate in matrix form: :func:`certify_ranges` over every
    item's enumerated range, its witness outputs decoded to (x, y)."""
    ranges = {t: fhr_range_oracle(t, params, domain_size) for t in range(domain_size)}
    cert = certify_ranges(ranges)
    return dataclasses.replace(
        cert,
        pair_witnesses=tuple(
            (t, u, ranges[t].output(code)) for t, u, code in cert.pair_witnesses
        ),
    )


def range_probabilities(output_range) -> dict:
    """An ``OutputRange`` as ``{output: probability}`` in enumeration order,
    FHR outputs as ``(x, y)`` pairs."""
    decode = output_range.output if isinstance(output_range, FhrRange) else int
    return {
        decode(code): prob
        for code, prob in zip(output_range.codes.tolist(), output_range.probs.tolist())
    }


def fhr_estimate_all_oracle(sum_vector, domain_size: int, params, order, chunk: int = 256):
    """FHR decode by explicit row blocks: O(domain_size * order) products.

    Item i's estimate is correction * (H[i + 1] . sums), with the rows
    taken ``chunk`` at a time from :func:`sign_block_oracle`.
    """
    rows = np.arange(1, domain_size + 1, dtype=np.uint64)
    sums = sum_vector.sums.astype(np.int64)
    out = np.empty(domain_size, dtype=np.float64)
    for start in range(0, domain_size, chunk):
        block = sign_block_oracle(rows[start : start + chunk], order.order)
        out[start : start + chunk] = block.astype(np.int64) @ sums
    return params.correction * out


def fhr_estimate_oracle(sum_vector, item: int, params) -> float:
    """One item's FHR estimate as an explicit O(order) dot product.

    correction * sum over columns of H[item + 1, col] * sums[col], each
    entry taken from the popcount closed form one column at a time.
    """
    row = item + 1
    dot = sum(
        -int(s) if bin(row & col).count("1") % 2 else int(s)
        for col, s in enumerate(sum_vector.sums)
    )
    return params.correction * float(dot)


def ratio_profile_oracle(mechanism: str, params, domain_size: int, pair) -> dict:
    """P(s|t) / P(s|t') over the outputs both items of ``pair`` can produce."""
    t, t_prime = pair
    if t == t_prime:
        raise ValueError(f"pair items must be distinct, got {t} twice")
    range_t = range_probabilities(exact_range(mechanism, t, params, domain_size))
    range_u = range_probabilities(exact_range(mechanism, t_prime, params, domain_size))
    return {s: range_t[s] / range_u[s] for s in range_t if s in range_u}


def certify_ranges_oracle(ranges):
    """The certificate by the pairwise audit: a python loop over item pairs.

    ``ranges`` maps each item to its ``{output: probability}`` dict. For
    every unordered pair t < t' the shared outputs are walked in the
    smaller range's insertion order (t's on a tie); the running maximum
    ratio starts at 1.0 and keeps up to eight tying witnesses, in order.
    """
    from fldp.verifier import FldpCertificate

    max_witnesses = 8
    items = sorted(ranges)
    if len(items) < 2:
        raise ValueError("certification needs at least two items")
    sizes = [len(ranges[t]) for t in items]
    eta = 1.0
    max_ratio = 1.0
    witnesses = []
    inter_min, inter_max = None, None
    for a_idx, t in enumerate(items):
        probs_t = ranges[t]
        for t_prime in items[a_idx + 1 :]:
            probs_u = ranges[t_prime]
            small, large = (
                (probs_t, probs_u) if len(probs_t) <= len(probs_u) else (probs_u, probs_t)
            )
            shared = [s for s in small if s in large]
            inter_size = len(shared)
            inter_min = inter_size if inter_min is None else min(inter_min, inter_size)
            inter_max = inter_size if inter_max is None else max(inter_max, inter_size)
            eta = min(eta, inter_size / max(len(probs_t), len(probs_u)))
            for s in shared:
                forward = probs_t[s] / probs_u[s]
                ratio, witness = (
                    (forward, (t, t_prime, s)) if forward >= 1 else (1 / forward, (t_prime, t, s))
                )
                if ratio > max_ratio:
                    max_ratio = ratio
                    witnesses = [witness]
                elif ratio == max_ratio and len(witnesses) < max_witnesses:
                    witnesses.append(witness)
    return FldpCertificate(
        eta_observed=eta,
        max_ratio_observed=max_ratio,
        epsilon_effective=math.log(max_ratio),
        pair_witnesses=tuple(witnesses),
        range_size_min=min(sizes),
        range_size_max=max(sizes),
        intersection_size_min=inter_min or 0,
        intersection_size_max=inter_max or 0,
    )


def pack_fhr_oracle(report: FhrReport, order: HadamardOrder) -> bytes:
    """One packed report built as a Python int, shifted field by field:
    index_x, the sign bit (always 1), index_y, then zero padding.

    Rejects an index outside [0, order) and equal indices.
    """
    r = order.r
    d = order.order
    if report.index_x >= d or report.index_y >= d:
        raise WireFormatError(f"report {report} overflows {r}-bit indices")
    if report.index_x < 0 or report.index_y < 0:
        raise WireFormatError(f"report {report} has a negative index")
    if report.index_x == report.index_y:
        raise WireFormatError(f"equal indices {report.index_x} are not a valid report")
    width = 2 * r + 1
    nbytes = packed_size(order)
    word = (report.index_x << (r + 1)) | (1 << r) | report.index_y
    return (word << (nbytes * 8 - width)).to_bytes(nbytes, "big")


def unpack_fhr_oracle(data: bytes, order: HadamardOrder) -> FhrReport:
    """One packed report split as a Python int.

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
