"""Client-side perturbation for FHR and the baseline frequency oracles.

FHR (flexible Hadamard response) encodes an item as a Hadamard row, samples
one +1 and one -1 position from it, and keeps the pair with probability
``p = e^eps / (e^eps + 1)``, otherwise flips both signs. The report is the
pair of column indices, so it costs 2r+1 bits regardless of domain size.
:func:`FhrReport` gives one report as one plain int, ``index_x << 32 |
index_y``, the word the report-file writer reads.

The baselines are the standard constructions: generalized randomized
response (GRR), unary encoding in its symmetric (RAPPOR) and optimized
(OUE) variants, and optimized local hashing (OLH) with a per-report random
hash seed: GRR over g hashed buckets (Wang et al., 2017), through GRR's
own draw. OLH hashes with multiply-shift, a universal family
(Dietzfelbinger et al., 1997), whose keys are the items below 2^32.

Unary encodings are sampled at count level: :func:`unary_sample_counts`
draws the per-position bit counts that a batch of per-user reports (each
a one-hot vector with every bit flipped independently) would sum to, with
exactly that distribution, in O(domain_size) in place of O(n * domain_size).

Each mechanism is defined once, as a :class:`Mechanism` record in the
ordered :data:`MECHANISMS` registry: how its parameters follow from the
budget, what one report costs on the wire, and the overlap fraction its
exact certificate must reach.

All perturbers are pure functions of (items, parameters, random source);
callers own the ``numpy.random.Generator`` and with it reproducibility.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hadamard import HadamardOrder, min_order_for_domain

__all__ = [
    "PrivacyParams",
    "Mechanism",
    "MECHANISMS",
    "lookup",
    "FhrReport",
    "fhr_perturb_batch",
    "grr_perturb_batch",
    "unary_sample_counts",
    "olh_perturb_batch",
    "olh_hash",
]

_U64 = np.uint64
# splitmix64 constants
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB
# items per block where a client or the Zipf generator walks an n-sized array
_BLOCK = 1 << 14
# OLH hashes keys below 2^32 through the upper half of a 64-bit word
_OLH_KEY_LIMIT = 1 << 32
_HALF = _U64(32)
# the largest budget whose e^eps is a finite float
_MAX_EPSILON = math.log(sys.float_info.max)


def _check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless e^epsilon is a finite float above 1; it
    rounds to 1 below about 1.1e-16, where p - q or e^eps - 1 is 0."""
    if not 0 < epsilon <= _MAX_EPSILON or math.exp(epsilon) == 1:
        raise ValueError(
            f"epsilon must lie in (0, {_MAX_EPSILON:.2f}] so that e^epsilon is finite "
            f"and above 1, got {epsilon}"
        )


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget plus the mechanism constants derived from it.

    Each constructor sets exactly one optional field, which names the
    mechanisms the params were built for: ``q`` for GRR and the unary
    encodings, ``g`` for OLH, ``correction`` for FHR. Every function that
    reads a field checks first that it is set.
    """

    epsilon: float
    p: float
    q: float | None = None
    g: int | None = None
    correction: float | None = None

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)
        # p may round to exactly 1.0 for extreme budgets; that is the
        # honest floating-point limit of every keep probability here
        if not 0 < self.p <= 1:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if self.q is not None and not 0 < self.q < self.p:
            raise ValueError(f"need 0 < q < p, got q={self.q}, p={self.p}")
        # (c - n q) / (p - q) cannot be taken once p and q agree to rounding
        if self.q is not None and math.isclose(self.p, self.q):
            raise ValueError("degenerate parameters: p == q cannot be inverted")

    @classmethod
    def for_fhr(cls, epsilon: float) -> "PrivacyParams":
        """Keep probability e^eps/(e^eps+1) and the unbiasing factor
        (e^eps+1)/(2(e^eps-1))."""
        _check_epsilon(epsilon)
        e = math.exp(epsilon)
        return cls(epsilon=epsilon, p=e / (e + 1), correction=(e + 1) / (e - 1) / 2)

    @classmethod
    def for_grr(cls, epsilon: float, domain_size: int) -> "PrivacyParams":
        _check_epsilon(epsilon)
        if domain_size < 2:
            raise ValueError(f"GRR needs a domain of at least 2, got {domain_size}")
        e = math.exp(epsilon)
        return cls(epsilon=epsilon, p=e / (e + domain_size - 1), q=1 / (e + domain_size - 1))

    @classmethod
    def for_rappor(cls, epsilon: float) -> "PrivacyParams":
        _check_epsilon(epsilon)
        e2 = math.exp(epsilon / 2)
        return cls(epsilon=epsilon, p=e2 / (e2 + 1), q=1 / (e2 + 1))

    @classmethod
    def for_oue(cls, epsilon: float) -> "PrivacyParams":
        _check_epsilon(epsilon)
        return cls(epsilon=epsilon, p=0.5, q=1 / (math.exp(epsilon) + 1))

    @classmethod
    def for_olh(cls, epsilon: float) -> "PrivacyParams":
        """Hash range g = ceil(eps + 1), then GRR's keep probability inside it."""
        _check_epsilon(epsilon)
        g = max(2, math.ceil(epsilon + 1))
        e = math.exp(epsilon)
        return cls(epsilon=epsilon, p=e / (e + g - 1), g=g)


def _require(params: PrivacyParams, field: str, mechanism: str) -> None:
    """Raise ValueError unless ``params`` sets ``field``, the constant
    that only ``mechanism``'s params carry."""
    if getattr(params, field) is None:
        raise ValueError(f"params were not built for {mechanism}")


@dataclass(frozen=True)
class Mechanism:
    """One frequency oracle as the rest of the package sees it.

    ``params(epsilon, domain_size)`` builds its constants,
    ``report_bits(domain_size, epsilon)`` is what one client report costs,
    and ``eta`` is the overlap fraction its exact certificate must reach,
    None when it has no exact certificate.
    """

    name: str
    params: Callable[[float, int], PrivacyParams]
    report_bits: Callable[[int, float], int]
    eta: float | None


# Report bits: FHR pays 2r+1 for the minimal order fitting the domain, GRR
# ceil(log2 D), the unary encodings the full domain width, and OLH the
# 64-bit per-report hash seed actually sent (no shared-seed compression)
# plus ceil(log2 g). Iteration order is the order of every table and sweep.
MECHANISMS: dict[str, Mechanism] = {
    m.name: m
    for m in (
        Mechanism(
            "fhr",
            params=lambda eps, d: PrivacyParams.for_fhr(eps),
            report_bits=lambda d, eps: 2 * min_order_for_domain(d).r + 1,
            eta=0.5,
        ),
        Mechanism(
            "grr",
            params=PrivacyParams.for_grr,
            report_bits=lambda d, eps: (d - 1).bit_length(),
            eta=1.0,
        ),
        Mechanism(
            "oue",
            params=lambda eps, d: PrivacyParams.for_oue(eps),
            report_bits=lambda d, eps: d,
            eta=1.0,
        ),
        Mechanism(
            "rappor",
            params=lambda eps, d: PrivacyParams.for_rappor(eps),
            report_bits=lambda d, eps: d,
            eta=1.0,
        ),
        Mechanism(
            "olh",
            params=lambda eps, d: PrivacyParams.for_olh(eps),
            report_bits=lambda d, eps: 64 + math.ceil(math.log2(PrivacyParams.for_olh(eps).g)),
            eta=None,
        ),
    )
}


def lookup(name: str) -> Mechanism:
    """The registry record for ``name``; unknown names raise ValueError."""
    try:
        return MECHANISMS[name]
    except KeyError:
        raise ValueError(
            f"unknown mechanism {name!r}, expected one of {tuple(MECHANISMS)}"
        ) from None


def FhrReport(index_x: int, index_y: int) -> int:
    """One user's FHR message as one int, ``index_x << 32 | index_y``:
    index_x carries +1, index_y carries -1.

    Each index is taken through ``operator.index``, so a numpy integer
    gives the same int and a float or a string raises ValueError. The
    indices are distinct, nonnegative and below 2^31, the largest index a
    report file holds, so a report fits an int64 word; and unlike a report
    object, an int is never tracked by the cyclic garbage collector."""
    try:
        index_x, index_y = operator.index(index_x), operator.index(index_y)
    except TypeError:
        raise ValueError(
            f"report indices must be integers, got {index_x!r} and {index_y!r}"
        ) from None
    if index_x < 0 or index_y < 0:
        raise ValueError("report indices must be nonnegative")
    if index_x == index_y:
        raise ValueError(f"report indices must differ, got {index_x} twice")
    if index_x >= 1 << 31 or index_y >= 1 << 31:
        raise ValueError(f"report indices must lie below 2^31, got {index_x} and {index_y}")
    return index_x << 32 | index_y


def _integers(values: np.ndarray, name: str, stop: int | None = None) -> np.ndarray:
    """``values`` as an array; a non-empty one must hold integers, not floats.
    With ``stop`` (at most 2^64) they must lie in [0, stop), compared as
    Python ints so that no uint64 reads as a negative int64, and come back
    as int64, or as uint64 when ``stop`` passes 2^63."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {values.dtype}")
    if stop is not None and values.size:
        lo, hi = int(values.min()), int(values.max())
        if lo < 0 or hi >= stop:
            raise ValueError(f"{name} must lie in [0, {stop}), got {lo if lo < 0 else hi}")
    if stop is None:
        return values
    return values.astype(np.int64 if stop <= 1 << 63 else _U64, copy=False)


def fhr_perturb_batch(
    items: np.ndarray, params: PrivacyParams, order: HadamardOrder, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Perturb many items at once; returns (index_x, index_y) int64 arrays.

    Sampling one column uniformly from a row's +1 positions is done without
    enumerating them: the +1 positions of row ``rho`` form the kernel of the
    linear form ``col -> popcount(rho AND col) mod 2``, so XOR-ing any draw
    that lands on the wrong side with a fixed column ``m`` of sign -1
    (the lowest set bit of ``rho``) folds the columns two-to-one onto the
    wanted half, preserving uniformity.

    Both columns are drawn whole, then the items are walked in blocks of
    2^14: each block's rows are built and its keep coins drawn, and its
    columns are folded and swapped in place. Consecutive ``rng.random``
    calls continue one stream, so the draws are those of one whole call.
    The two outputs are the only n-sized arrays; ``items`` is not written.
    """
    _require(params, "correction", "FHR")
    # item i reads row i + 1; a scalar item is a batch of one
    items = np.atleast_1d(_integers(items, "items", order.order - 1))
    n = items.size
    d = order.order
    x = rng.integers(0, d, size=n, dtype=np.uint64)
    y = rng.integers(0, d, size=n, dtype=np.uint64)
    for start in range(0, n, _BLOCK):
        stop = start + _BLOCK
        bx, by = x[start:stop], y[start:stop]
        rows = items[start:stop].astype(_U64)
        rows += _U64(1)
        flip = rng.random(rows.size) >= params.p
        t = np.bitwise_and(rows, bx)
        odd_x = np.bitwise_count(t) & 1
        even_y = 1 - (np.bitwise_count(np.bitwise_and(rows, by, out=t)) & 1)
        rows &= np.negative(rows, out=t)  # the lowest set bit, a -1 column of each row
        bx ^= np.multiply(rows, odd_x, out=t)  # uniform over the +1 half
        by ^= np.multiply(rows, even_y, out=t)  # uniform over the -1 half
        np.multiply(np.bitwise_xor(bx, by, out=t), flip, out=t)  # x ^ y where the pair flips
        bx ^= t
        by ^= t
    return x.view(np.int64), y.view(np.int64)


def _randomized_response(
    values: np.ndarray, p: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """GRR's draw over [0, size): keep each value with probability p, else
    report one of the size - 1 others uniformly, as a nonzero cyclic shift."""
    keep = rng.random(values.size) < p
    out = rng.integers(1, size, size=values.size)
    out += values
    out %= size
    np.copyto(out, values, where=keep)
    return out


def grr_perturb_batch(
    items: np.ndarray, params: PrivacyParams, domain_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Generalized randomized response over [0, domain_size)."""
    _require(params, "q", "GRR or unary encoding")
    return _randomized_response(_integers(items, "items", domain_size), params.p, domain_size, rng)


def unary_sample_counts(
    items: np.ndarray, params: PrivacyParams, domain_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Set-bit count per position over a batch of unary reports, int64.

    Each user's report one-hot encodes the item and flips every bit
    independently: a set bit stays 1 with probability p, a clear bit
    becomes 1 with probability q. RAPPOR uses the symmetric
    p = e^(eps/2)/(e^(eps/2)+1), q = 1-p; OUE uses p = 1/2, q = 1/(e^eps+1).
    The count at position j thus sums n_j bits kept with probability p and
    n - n_j bits set with probability q, all independent, so it is drawn
    as Bin(n_j, p) + Bin(n - n_j, q), without the n x D per-user draws.
    """
    if domain_size < 2:
        raise ValueError(f"unary encoding needs a domain of at least 2, got {domain_size}")
    _require(params, "q", "GRR or unary encoding")
    items = _integers(items, "items", domain_size)
    holders = np.bincount(items, minlength=domain_size)
    return rng.binomial(holders, params.p) + rng.binomial(items.size - holders, params.q)


def _splitmix64(seeds: np.ndarray, step: int) -> np.ndarray:
    """Output ``step`` (from 1) of splitmix64 started at each seed, in a new array.

    Mixed in blocks of _BLOCK words, so that the shifted copies are
    block-sized and the new array is the only n-sized allocation.
    """
    z = np.array(seeds, dtype=_U64)
    flat = z.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK]
        block += _U64(step * _SM_GAMMA % (1 << 64))
        block ^= block >> _U64(30)
        block *= _U64(_SM_M1)
        block ^= block >> _U64(27)
        block *= _U64(_SM_M2)
        block ^= block >> _U64(31)
    return z


def _olh_keys(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The multiply-shift pair (a, b) of each 64-bit report seed.

    The first two outputs of a splitmix64 generator started at the seed.
    """
    return _splitmix64(seeds, 1), _splitmix64(seeds, 2)


def olh_hash(seed: int | np.ndarray, item: int | np.ndarray, g: int) -> int | np.ndarray:
    """Keyed hash of an item into [0, g); the OLH hash family.

    Multiply-shift: with (a, b) derived from the 64-bit seed, the bucket of
    item t is ``((((a*t + b) mod 2^64) >> 32) * g) >> 32``. The upper half
    of ``a*t + b`` is pairwise independent over random (a, b) for keys
    below 2^32, so two distinct items collide with probability about 1/g;
    larger items, and floats, raise ValueError, as do seeds outside
    [0, 2^64). Scalar in, scalar out; arrays broadcast elementwise.
    """
    items = _integers(item, "OLH keys", _OLH_KEY_LIMIT)
    seed = _integers(seed, "seeds", 1 << 64)
    # the arithmetic is modulo 2^64; numpy warns of wraparound on scalars
    with np.errstate(over="ignore"):
        a = _splitmix64(seed, 1)
        # the key takes a's buffer when a has the broadcast shape, and b is
        # derived only then, so a, b and a fresh key are never all alive
        out = a if a.shape == np.broadcast_shapes(a.shape, items.shape) else None
        key = np.multiply(a, items, out=out, dtype=_U64, casting="unsafe")  # exact on checked keys
        key += _splitmix64(seed, 2)
        key >>= _HALF
        key *= _U64(g)
        key >>= _HALF
        return key.view(np.int64)[()]


def _olh_buckets(g: int) -> tuple[np.ndarray, np.ndarray]:
    """Bucket v of :func:`olh_hash` as the key interval [lo[v], lo[v] + width[v]).

    A key ``a*t + b mod 2^64`` lands in bucket v exactly when its upper
    half is at least ceil(v * 2^32 / g) and below ceil((v+1) * 2^32 / g).
    """
    starts = [-(-v * _OLH_KEY_LIMIT // g) << 32 for v in range(g + 1)]
    return (
        np.array(starts[:-1], dtype=_U64),
        np.array([hi - lo for lo, hi in itertools.pairwise(starts)], dtype=_U64),
    )


def olh_perturb_batch(
    items: np.ndarray, params: PrivacyParams, domain_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """OLH reports for a batch: fresh 64-bit seed per user, hash into
    [0, g), then GRR inside the hashed domain. Returns (seeds, values)."""
    _require(params, "g", "OLH")
    items = _integers(items, "items", domain_size)
    seeds = rng.integers(0, 2**64, size=items.size, dtype=np.uint64)
    buckets = olh_hash(seeds, items, params.g)
    return seeds, _randomized_response(buckets, params.p, params.g, rng)
