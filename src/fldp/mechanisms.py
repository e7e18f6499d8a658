"""Client-side perturbation for FHR and the baseline frequency oracles.

FHR (flexible Hadamard response) encodes an item as a Hadamard row, samples
one +1 and one -1 position from it, and keeps the pair with probability
``p = e^eps / (e^eps + 1)``, otherwise flips both signs. The report is the
pair of column indices, so it costs 2r+1 bits regardless of domain size.

The baselines are the standard constructions: generalized randomized
response (GRR), unary encoding in its symmetric (RAPPOR) and optimized
(OUE) variants, and optimized local hashing (OLH) with a per-report random
hash seed. OLH hashes with multiply-shift, a universal family
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
import sys
from dataclasses import dataclass
from typing import Callable, Iterable

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
# OLH hashes keys below 2^32 through the upper half of a 64-bit word
_OLH_KEY_LIMIT = 1 << 32
_HALF = _U64(32)
# the largest budget whose e^eps is a finite float
_MAX_EPSILON = math.log(sys.float_info.max)


def _check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless 0 < epsilon and e^epsilon is a finite float."""
    if not 0 < epsilon <= _MAX_EPSILON:
        raise ValueError(
            f"epsilon must lie in (0, {_MAX_EPSILON:.2f}] so that e^epsilon is finite, "
            f"got {epsilon}"
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
    None when its output space cannot be enumerated.
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


@dataclass(frozen=True)
class FhrReport:
    """One user's FHR message: index_x carries +1, index_y carries -1."""

    index_x: int
    index_y: int

    def __post_init__(self) -> None:
        if self.index_x < 0 or self.index_y < 0:
            raise ValueError("report indices must be nonnegative")
        if self.index_x == self.index_y:
            raise ValueError(f"report indices must differ, got {self.index_x} twice")


def _report_pairs(reports: Iterable[FhrReport]) -> np.ndarray:
    """The reports' (index_x, index_y) as an (n, 2) int64 array.

    Raises OverflowError for an index beyond int64.
    """
    flat = itertools.chain.from_iterable((rep.index_x, rep.index_y) for rep in reports)
    return np.fromiter(flat, dtype=np.int64).reshape(-1, 2)


def _item_rows(items: np.ndarray, order: HadamardOrder) -> np.ndarray:
    items = np.asarray(items)
    if items.size:
        lo, hi = int(items.min()), int(items.max())
        if lo < 0 or hi + 1 >= order.order:
            raise ValueError(
                f"item {lo if lo < 0 else hi} does not fit order {order.order} "
                f"(usable domain is [0, {order.order - 1}))"
            )
    return items.astype(_U64) + _U64(1)


def fhr_perturb_batch(
    items: np.ndarray, params: PrivacyParams, order: HadamardOrder, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Perturb many items at once; returns (index_x, index_y) arrays.

    Sampling one column uniformly from a row's +1 positions is done without
    enumerating them: the +1 positions of row ``rho`` form the kernel of the
    linear form ``col -> popcount(rho AND col) mod 2``, so XOR-ing any draw
    that lands on the wrong side with a fixed column ``m`` of sign -1
    (the lowest set bit of ``rho``) folds the columns two-to-one onto the
    wanted half, preserving uniformity.
    """
    _require(params, "correction", "FHR")
    rows = _item_rows(items, order)
    n = rows.size
    d = order.order
    m = rows & (~rows + _U64(1))  # lowest set bit, a -1 column of each row

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


def _check_domain(items: np.ndarray, domain_size: int) -> np.ndarray:
    items = np.asarray(items, dtype=np.int64)
    if items.size and (items.min() < 0 or items.max() >= domain_size):
        raise ValueError("item outside domain")
    return items


def grr_perturb_batch(
    items: np.ndarray, params: PrivacyParams, domain_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Generalized randomized response over [0, domain_size)."""
    _require(params, "q", "GRR or unary encoding")
    items = _check_domain(items, domain_size)
    keep = rng.random(items.size) < params.p
    # uniform over the d-1 wrong answers, realized as a nonzero cyclic shift
    offset = rng.integers(1, domain_size, size=items.size)
    return np.where(keep, items, (items + offset) % domain_size)


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
    items = _check_domain(items, domain_size)
    holders = np.bincount(items, minlength=domain_size)
    return rng.binomial(holders, params.p) + rng.binomial(items.size - holders, params.q)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = z + _U64(_SM_GAMMA)
    z = (z ^ (z >> _U64(30))) * _U64(_SM_M1)
    z = (z ^ (z >> _U64(27))) * _U64(_SM_M2)
    return z ^ (z >> _U64(31))


def _olh_keys(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The multiply-shift pair (a, b) of each 64-bit report seed.

    The first two outputs of a splitmix64 generator started at the seed.
    """
    seeds = np.asarray(seeds, dtype=_U64)
    return _splitmix64(seeds), _splitmix64(seeds + _U64(_SM_GAMMA))


def olh_hash(seed: int | np.ndarray, item: int | np.ndarray, g: int) -> int | np.ndarray:
    """Keyed hash of an item into [0, g); the OLH hash family.

    Multiply-shift: with (a, b) derived from the 64-bit seed, the bucket of
    item t is ``((((a*t + b) mod 2^64) >> 32) * g) >> 32``. The upper half
    of ``a*t + b`` is pairwise independent over random (a, b) for keys
    below 2^32, so two distinct items collide with probability about 1/g;
    larger items raise ValueError. Scalar in, scalar out; arrays broadcast
    elementwise.
    """
    items = np.asarray(item)
    if items.size:
        lo, hi = int(items.min()), int(items.max())
        if lo < 0 or hi >= _OLH_KEY_LIMIT:
            raise ValueError(f"item {lo if lo < 0 else hi} is not an OLH key in [0, 2^32)")
    # the arithmetic is modulo 2^64; numpy warns of wraparound on scalars
    with np.errstate(over="ignore"):
        a, b = _olh_keys(seed)
        return (((a * items.astype(_U64) + b) >> _HALF) * _U64(g) >> _HALF).astype(np.int64)


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
    g = params.g
    items = _check_domain(items, domain_size)
    seeds = rng.integers(0, 2**64, size=items.size, dtype=np.uint64)
    buckets = olh_hash(seeds, items, g)
    keep = rng.random(items.size) < params.p
    offset = rng.integers(1, g, size=items.size)
    values = np.where(keep, buckets, (buckets + offset) % g)
    return seeds, values.astype(np.int64)
