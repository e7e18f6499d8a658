"""Independent reference implementations the library is tested against.

Everything here is deliberately written the slow, obvious way (explicit
recursion, python loops, sort-and-pick) so that agreement with the
library's vectorized or closed-form code is meaningful evidence.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from fldp.datasets import ItemStream, zipf_probabilities
from fldp.hadamard import HadamardOrder, min_order_for_domain, row_vector
from fldp.mechanisms import _require
from fldp.verifier import FldpCertificate, enumerate_range
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


def generate_zipf_oracle(spec) -> ItemStream:
    """The Zipf stream from one whole draw: every uniform at once, each
    inverted through the CDF by ``searchsorted``, then clamped to the
    domain, as ``generate_zipf`` does block by block."""
    probs = zipf_probabilities(spec.domain_size, spec.zipf_exponent)
    rng = np.random.default_rng(spec.seed)
    cdf = np.cumsum(probs)
    draws = np.searchsorted(cdf, rng.random(spec.n), side="right")
    items = np.minimum(draws, spec.domain_size - 1).astype(np.int64)
    return ItemStream(items=items, labels=tuple(str(i) for i in range(spec.domain_size)))


def sign_block_oracle(rows, order: int) -> np.ndarray:
    """Matrix block for the given rows, shape (len(rows), order), int8,
    from the popcount closed form over the whole block at once."""
    rows = np.asarray(rows, dtype=np.uint64)
    cols = np.arange(order, dtype=np.uint64)
    parity = np.bitwise_count(rows[:, None] & cols[None, :]).astype(np.int8) & 1
    return 1 - 2 * parity


def fhr_range_oracle(item: int, params, domain_size: int) -> dict:
    """Every output of FHR run on ``item`` as ``{(x, y): probability}``, in
    enumeration order: +1 at column x and -1 at column y.

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
    p_keep = params.p * 4 / (d * d)
    p_flip = 1 / (math.exp(params.epsilon) + 1) * 4 / (d * d)
    neg = np.flatnonzero(signs < 0).tolist()
    law = {}
    for x in np.flatnonzero(signs > 0).tolist():
        for y in neg:
            law[x, y] = p_keep
            law[y, x] = p_flip
    return law


def unary_range_oracle(mechanism: str, item: int, params, domain_size: int) -> dict:
    """Every output of OUE or RAPPOR run on ``item`` as ``{output:
    probability}``: all 2^D bit patterns, coded as ints whose bit j is
    position j, in ascending order.

    Each probability is the product of the D per-bit factors in float, taken
    in position order, so it carries rounding and underflows to 0 at large
    budgets, where the range is rejected. Written out whole, so D <= 12.
    """
    if mechanism not in ("oue", "rappor"):
        raise ValueError(f"cannot enumerate mechanism {mechanism!r}")
    if domain_size > 12:
        raise ValueError(f"unary domain {domain_size} is too large to write down")
    if not 0 <= item < domain_size:
        raise ValueError(f"item {item} outside domain [0, {domain_size})")
    _require(params, "q", "GRR or unary encoding")
    p, q = params.p, params.q
    masks = np.arange(1 << domain_size)
    probs = np.ones(masks.size)
    # RAPPOR's flip probabilities are q and p; 1 - p loses p's last bits near 1
    miss, clear = (q, p) if mechanism == "rappor" else (1 - p, 1 - q)
    # one factor per bit position, in position order (which fixes the rounding)
    for j in range(domain_size):
        on, off = (p, miss) if j == item else (q, clear)
        probs *= np.where((masks >> j) & 1, on, off)
    if not probs.min() > 0:
        raise ValueError("the float products underflow to zero-probability outputs")
    return dict(enumerate(probs.tolist()))


def unary_probability_oracle(mechanism: str, params, domain_size: int, item: int, code: int) -> Fraction:
    """P(code | item) under OUE or RAPPOR, exactly: the product of the D
    per-bit factors as rationals of the float p and q.

    A set bit stays 1 with probability p, a clear bit becomes 1 with
    probability q. OUE's complements are exact, 1 - p and 1 - q; RAPPOR's
    are q and p themselves, as its law is symmetric.
    """
    p, q = Fraction(params.p), Fraction(params.q)
    miss, clear = (q, p) if mechanism == "rappor" else (1 - p, 1 - q)
    prob = Fraction(1)
    for j in range(domain_size):
        bit = code >> j & 1
        if j == item:
            prob *= p if bit else miss
        else:
            prob *= q if bit else clear
    return prob


def unary_ranges_exact(mechanism: str, params, domain_size: int) -> dict:
    """Every item's ``{output: exact probability}``, outputs ascending, as
    :func:`certify_ranges_oracle` takes them; 2^D outputs per item."""
    return {
        t: {
            s: unary_probability_oracle(mechanism, params, domain_size, t, s)
            for s in range(1 << domain_size)
        }
        for t in range(domain_size)
    }


def unary_max_ratio_oracle(mechanism: str, params, domain_size: int) -> Fraction:
    """The largest P(s|t) / P(s|t') over all ordered pairs and outputs, exact.

    Positions other than t and t' give both items the same factor, which
    cancels exactly, so the four outputs that are 0 there stand for all.
    """
    prob = functools.partial(unary_probability_oracle, mechanism, params, domain_size)
    return max(
        prob(t, s) / prob(u, s)
        for t in range(domain_size)
        for u in range(domain_size)
        if t != u
        for s in (0, 1 << t, 1 << u, 1 << t | 1 << u)
    )


def exact_range(mechanism: str, item: int, params, domain_size: int) -> dict:
    """The enumerated law of any certifiable mechanism as ``{output:
    probability}`` in enumeration order, FHR's and the unary encodings'
    from the oracles."""
    if mechanism == "fhr":
        return fhr_range_oracle(item, params, domain_size)
    if mechanism in ("oue", "rappor"):
        return unary_range_oracle(mechanism, item, params, domain_size)
    return dict(enumerate(enumerate_range(item, params, domain_size).tolist()))


def law_matrix(laws) -> np.ndarray:
    """Items' ``{output: probability}`` laws as the rows of one items x
    outputs matrix: each output's column is where the walk over the laws
    first meets it, and an item's row is zero at the outputs it cannot
    emit. Laws that reach every output, as GRR's and the unary encodings'
    do, give a matrix :func:`certify_ranges` takes; FHR's, whose ranges
    hold half the outputs, are audited by :func:`rows_below_oracle`."""
    outputs = dict.fromkeys(itertools.chain.from_iterable(laws))
    column = {s: k for k, s in enumerate(outputs)}
    P = np.zeros((len(laws), len(column)))
    for t, law in enumerate(laws):
        P[t, list(map(column.__getitem__, law))] = list(law.values())
    return P


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


def fhr_variance_oracle(epsilon: float, n: int, true_count: int = 0) -> float:
    """FHR's Var[f-hat_t] = B*n + (B - 1)*n_t, with
    B = (e^eps+1)^2 / (2 (e^eps-1)^2) squared as a ratio so that no budget
    with a finite e^eps overflows. B*n is the variance for an item no user
    holds; B > 1 below the OUE crossover ln(3 + 2*sqrt(2))."""
    e = math.exp(epsilon)
    b = ((e + 1) / (e - 1)) ** 2 / 2
    return b * n + (b - 1) * true_count


def oue_variance_oracle(epsilon: float, n: int) -> float:
    """OUE's Var[f-hat_t] for an item no user holds, 4 e^eps / (e^eps - 1)^2 * n
    (Wang et al., USENIX Security 2017)."""
    e = math.exp(epsilon)
    return 4 / (e - 1) * (e / (e - 1)) * n


def fhr_moments_oracle(counts, item: int, params) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of FHR's estimate of ``item`` when
    ``counts[s]`` users hold item s.

    The estimate is correction * (H[item + 1] . sums), a sum of independent
    per-user terms correction * (H[item + 1, x] - H[item + 1, y]), each
    under the law :func:`fhr_range_oracle` gives for the item its user
    holds. Summed in rationals of the float probabilities and correction.
    """
    domain_size = len(counts)
    signs = row_vector(item + 1, min_order_for_domain(domain_size).order).tolist()
    c = Fraction(params.correction)
    mean = var = Fraction(0)
    for s, count in enumerate(counts):
        if not count:
            continue
        law = fhr_range_oracle(s, params, domain_size)
        dots = [(Fraction(prob), signs[x] - signs[y]) for (x, y), prob in law.items()]
        m1 = sum(prob * dot for prob, dot in dots)
        m2 = sum(prob * dot * dot for prob, dot in dots)
        mean += count * c * m1
        var += count * c * c * (m2 - m1 * m1)
    return mean, var


def pure_variance_oracle(p: float, q: float, n: int, true_count: int = 0) -> float:
    """Var[f-hat_t] of a pure protocol that sets item t's position with
    probability p for a holder and q for anyone else, inverted by
    (c - n q) / (p - q): n q (1 - q) / (p - q)^2 + n_t (1 - p - q) / (p - q)
    (Wang et al., USENIX Security 2017)."""
    return n * q * (1 - q) / (p - q) ** 2 + true_count * (1 - p - q) / (p - q)


def unary_moments_oracle(counts, params, rates) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the estimate (c - n q) / (p - q) of an
    item when ``counts[s]`` users hold item s and a holder of s sets the
    item's position with probability ``rates[s]``.

    The position's count sums one independent Bernoulli(rates[s]) per
    user: the bit counts of OUE and RAPPOR, and GRR's tally of reported
    values. Summed in rationals of the float rates, p and q.
    """
    p, q = Fraction(params.p), Fraction(params.q)
    n = sum(counts)
    rates = [Fraction(rate) for rate in rates]
    mean = (sum(count * rate for count, rate in zip(counts, rates)) - n * q) / (p - q)
    var = sum(count * rate * (1 - rate) for count, rate in zip(counts, rates)) / (p - q) ** 2
    return mean, var


def ratio_profile_oracle(mechanism: str, params, domain_size: int, pair) -> dict:
    """P(s|t) / P(s|t') over the outputs both items of ``pair`` can produce."""
    t, t_prime = pair
    if t == t_prime:
        raise ValueError(f"pair items must be distinct, got {t} twice")
    range_t = exact_range(mechanism, t, params, domain_size)
    range_u = exact_range(mechanism, t_prime, params, domain_size)
    return {s: range_t[s] / range_u[s] for s in range_t if s in range_u}


def _pairs_oracle(ranges):
    """Every unordered pair t < t' in item order, with its shared outputs
    in the smaller range's insertion order (t's on a tie)."""
    items = sorted(ranges)
    for a_idx, t in enumerate(items):
        probs_t = ranges[t]
        for t_prime in items[a_idx + 1 :]:
            probs_u = ranges[t_prime]
            small, large = (
                (probs_t, probs_u) if len(probs_t) <= len(probs_u) else (probs_u, probs_t)
            )
            yield t, t_prime, [s for s in small if s in large]


def _oriented_oracle(ranges, t, t_prime, s):
    """A shared output's ratio, at least 1, and its witness oriented from
    the item more likely to emit it."""
    forward = ranges[t][s] / ranges[t_prime][s]
    return (forward, (t, t_prime, s)) if forward >= 1 else (1 / forward, (t_prime, t, s))


def certify_ranges_oracle(ranges):
    """The certificate by the pairwise audit: a python loop over item pairs.

    ``ranges`` maps each item to its ``{output: probability}`` dict. For
    every unordered pair t < t' the shared outputs are walked in the
    smaller range's insertion order (t's on a tie); the running maximum
    ratio starts at 1.0 and keeps up to eight tying witnesses, in order.
    """
    max_witnesses = 8
    items = sorted(ranges)
    if len(items) < 2:
        raise ValueError("certification needs at least two items")
    sizes = [len(ranges[t]) for t in items]
    eta = 1.0
    max_ratio = 1.0
    witnesses = []
    inter_min, inter_max = None, None
    for t, t_prime, shared in _pairs_oracle(ranges):
        inter_size = len(shared)
        inter_min = inter_size if inter_min is None else min(inter_min, inter_size)
        inter_max = inter_size if inter_max is None else max(inter_max, inter_size)
        eta = min(eta, inter_size / max(len(ranges[t]), len(ranges[t_prime])))
        for s in shared:
            ratio, witness = _oriented_oracle(ranges, t, t_prime, s)
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


def witness_walk_oracle(ranges, top) -> tuple:
    """The first eight outputs at ratio ``top`` on the pairwise audit's
    walk, which stops once it has them: the witnesses
    :func:`certify_ranges_oracle` keeps when ``top`` is the largest ratio,
    found without walking every pair."""
    found = (
        witness
        for t, t_prime, shared in _pairs_oracle(ranges)
        for ratio, witness in (_oriented_oracle(ranges, t, t_prime, s) for s in shared)
        if ratio == top
    )
    return tuple(itertools.islice(found, 8))


def rows_below_oracle(P) -> FldpCertificate:
    """The certificate of an items x outputs matrix that may hold zeros,
    with no witnesses: each row against every row below it.

    A zero entry is an output outside that item's range. A pair's overlap
    is the outputs both reach, and its ratios are P[a, k] / P[b, k] and
    one over it, on those outputs only; float division rounds
    monotonically, so the largest inverse is one over the least ratio.
    :func:`witness_walk_oracle` gives the witnesses at the returned ratio.
    """
    P = np.asarray(P, dtype=np.float64)
    reach = P > 0
    sizes = reach.sum(axis=1)
    eta, top, overlaps = 1.0, 1.0, []
    for a in range(len(P) - 1):
        mine, below = P[a, reach[a]], P[a + 1 :, reach[a]]
        shared = below > 0
        counts = shared.sum(axis=1)
        overlaps += counts.tolist()
        eta = min(eta, float((counts / np.maximum(sizes[a], sizes[a + 1 :])).min()))
        with np.errstate(over="ignore"):
            forward = np.divide(mine, below, out=np.ones(below.shape), where=shared)
            top = max(top, float(forward.max()), 1 / float(forward.min()))
    return FldpCertificate(
        eta_observed=eta,
        max_ratio_observed=top,
        epsilon_effective=math.log(top),
        range_size_min=int(sizes.min()),
        range_size_max=int(sizes.max()),
        intersection_size_min=min(overlaps),
        intersection_size_max=max(overlaps),
    )


def pack_fhr_oracle(report: int, order: HadamardOrder) -> bytes:
    """One packed report built as a Python int, shifted field by field:
    index_x, the sign bit (always 1), index_y, then zero padding. The
    report is the int ``index_x << 32 | index_y``, split here by floor
    division and remainder, so index_y lies in [0, 2^32) and index_x may
    be negative.

    Rejects an index outside [0, order) and equal indices.
    """
    index_x, index_y = divmod(report, 2**32)
    r = order.r
    d = order.order
    if index_x >= d or index_y >= d:
        raise WireFormatError(f"report {report} overflows {r}-bit indices")
    if index_x < 0:
        raise WireFormatError(f"report {report} has a negative index")
    if index_x == index_y:
        raise WireFormatError(f"equal indices {index_x} are not a valid report")
    width = 2 * r + 1
    nbytes = packed_size(order)
    word = (index_x << (r + 1)) | (1 << r) | index_y
    return (word << (nbytes * 8 - width)).to_bytes(nbytes, "big")


def unpack_fhr_oracle(data: bytes, order: HadamardOrder) -> int:
    """One packed report split as a Python int, returned as the report int
    ``index_x * 2^32 + index_y``.

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
    return index_x * 2**32 + index_y
