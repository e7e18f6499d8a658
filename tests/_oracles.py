"""Independent reference implementations the library is tested against.

Everything here is deliberately written the slow, obvious way (explicit
recursion, python loops, sort-and-pick) so that agreement with the
library's vectorized or closed-form code is meaningful evidence.
"""

from __future__ import annotations

import math

import numpy as np


def sylvester_matrix(r: int) -> np.ndarray:
    """Hadamard matrix of order 2^r by the textbook block recursion."""
    h = np.array([[1]], dtype=np.int64)
    for _ in range(r):
        h = np.block([[h, h], [h, -h]])
    return h


def top_k_oracle(table, k: int) -> list[int]:
    """Top-k items by value descending, ties by ascending index."""
    indexed = sorted(range(len(table)), key=lambda i: (-table[i], i))
    return indexed[: min(k, len(table))]


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
    return total / (k * (k + 1) / 2)


def tally_oracle(items) -> dict[int, int]:
    counts: dict[int, int] = {}
    for item in items:
        counts[int(item)] = counts.get(int(item), 0) + 1
    return counts


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


def fhr_estimate_all_oracle(sum_vector, domain_size: int, params, order, chunk: int = 256):
    """FHR decode by explicit row blocks: O(domain_size * order) products.

    Item i's estimate is correction * (H[i + 1] . sums), with the rows
    taken ``chunk`` at a time from ``sign_block``.
    """
    from fldp.hadamard import sign_block

    rows = np.arange(1, domain_size + 1, dtype=np.uint64)
    sums = sum_vector.sums.astype(np.int64)
    out = np.empty(domain_size, dtype=np.float64)
    for start in range(0, domain_size, chunk):
        block = sign_block(rows[start : start + chunk], order.order)
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
    from fldp.verifier import enumerate_range

    t, t_prime = pair
    if t == t_prime:
        raise ValueError(f"pair items must be distinct, got {t} twice")
    range_t = enumerate_range(mechanism, t, params, domain_size).probabilities
    range_u = enumerate_range(mechanism, t_prime, params, domain_size).probabilities
    return {s: range_t[s] / range_u[s] for s in range_t if s in range_u}
