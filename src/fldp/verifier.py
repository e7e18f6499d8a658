"""Exact certification of flexible local differential privacy.

A mechanism satisfies the flexible notion when, for every pair of inputs,
the overlap fraction of their output ranges is at least eta and on every
shared output the probability ratio is at most e^eps. A certificate gives
the observed eta, the worst ratio and its witnesses, derived from the
mechanism's output law, never sampled.

GRR is enumerated: :func:`enumerate_range`, given every item at once,
writes down the items x outputs matrix P, one law per row and one
probability per reported value, that :func:`certify_ranges` audits in
whole-matrix passes. Every GRR law reaches every output, so the audit
takes only matrices with no zero entry: each range is all the outputs,
and eta is 1. One minimum checks for NaN, negative and zero entries, and
one row sum per item checks the laws, with math.fsum only for the rows
it cannot decide. The worst ratio comes from one pass down P's columns,
each row against the largest and smallest probabilities below it, so
only the rows that hold a witness are walked pair by pair, eight rows
below at a time: O(items x outputs) work, not O(items^2 x outputs).

FHR and the unary encodings are certified in closed form, from what their
constructions fix, with witnesses from the same pairwise walk, each pair's
shared outputs in the lower item's enumeration order:

- FHR outputs the sign-assigned index pair ``(x, y)``, +1 at column x and
  -1 at column y. Distinct Sylvester rows are balanced and orthogonal, so
  each item reaches order^2 / 2 outputs and any two share order^2 / 4:
  eta is exactly one half.
- OUE and RAPPOR output a bit vector, coded as an int whose bit j is
  position j. Every range holds all 2^D, so eta is 1, and two items' laws
  differ only at their own two bit positions.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .hadamard import min_order_for_domain, row_vector
from .mechanisms import PrivacyParams, _integers, _require, lookup

__all__ = [
    "EnumerationLimitError",
    "FldpCertificate",
    "enumerate_range",
    "certify_ranges",
    "certify_mechanism",
    "certificate_passes",
]

# FHR's closed form writes down only the order-sized Hadamard rows its
# witness walk reaches, at most three; this bounds their length, here the
# order of the full-scale domain of 65,535 items
_MAX_FHR_ORDER = 65536
_MAX_GRR_DOMAIN = 256  # the largest GRR domain whose ranges are written down
# the unary range size 2^D is a D-bit int that certificate.json prints in
# full; Python refuses to print one past 4,300 digits (D of about 14,284),
# and this limit keeps well inside that while covering the sweep's domain
_MAX_UNARY_DOMAIN = 4095
_MAX_WITNESSES = 8
_PROB_SUM_TOL = 1e-9
# slack of the pass rule: on the observed overlap, and on the effective
# epsilon (the log of the worst ratio) against the budget
_ETA_TOL = 1e-12
_RATIO_TOL = 1e-9


class EnumerationLimitError(ValueError):
    """The mechanism's output space is too large to certify exactly."""


@dataclass(frozen=True)
class FldpCertificate:
    """Result of auditing every input pair of a certifiable mechanism.

    ``eta_observed`` is the smallest overlap fraction
    ``|R(t) n R(t')| / max(|R(t)|, |R(t')|)`` over all pairs, and
    ``max_ratio_observed`` the largest probability ratio seen on any
    shared output, with ``pair_witnesses`` listing up to eight
    ``(t, t_prime, output)`` triples attaining it. Range and intersection
    sizes are recorded so the overlap arithmetic can be re-checked under
    any output-counting convention.
    """

    eta_observed: float
    max_ratio_observed: float
    epsilon_effective: float
    pair_witnesses: tuple = field(default_factory=tuple)
    range_size_min: int = 0
    range_size_max: int = 0
    intersection_size_min: int = 0
    intersection_size_max: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.eta_observed <= 1:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta_observed}")
        if self.max_ratio_observed < 1:
            raise ValueError(f"max ratio must be at least 1, got {self.max_ratio_observed}")


def enumerate_range(items, params: PrivacyParams, domain_size: int) -> np.ndarray:
    """Exact output law of GRR run on each of ``items``: the probability of
    each reported value, indexed by the value. One item gives one row, an
    array of items the items x outputs matrix, built in one allocation.

    Analytic, never sampled; raises :class:`EnumerationLimitError` when the
    output space is too large to write down, and ValueError for an item
    that is not an integer in [0, domain_size). GRR only: FHR and the
    unary encodings are certified in closed form by
    :func:`certify_mechanism`.
    """
    if domain_size > _MAX_GRR_DOMAIN:
        raise EnumerationLimitError(
            f"GRR domain {domain_size} exceeds the enumeration limit {_MAX_GRR_DOMAIN}"
        )
    items = _integers(items, "items", domain_size)
    _require(params, "q", "GRR or unary encoding")
    probs = np.full((*items.shape, domain_size), params.q)
    probs.reshape(-1, domain_size)[np.arange(items.size), items.ravel()] = params.p
    return probs


def certify_ranges(P: np.ndarray | list) -> FldpCertificate:
    """Audit an items x outputs probability matrix over every unordered
    pair of items.

    Row t of ``P`` (a 2-D array, or a sequence of equal-length rows) is
    item t's output law over all n outputs, as GRR's laws are: a zero
    entry raises ValueError, since a law with zeros needs a closed form.
    Every range is then all n outputs and every pair shares all n, so eta
    is 1 and the ratio is maximized over every output.

    Each row must sum to 1 within 1e-9 as math.fsum sums it. One numpy
    pass sums every row first: a sum of n nonnegative floats lies within
    (n - 1) 2^-53 of the exact sum, relative, and fsum's within 2^-53, so
    a row whose numpy sum lies within 1e-9 - n 2^-52 of 1 passes fsum too.
    fsum sums only the other rows, and decides them and the message.

    Witnesses follow a walk over pairs t < t' in item order, each pair's
    outputs in column order: the running maximum starts at 1.0, and up to
    eight outputs that tie with it are kept in the order the walk meets
    them. The worst ratio is found first, in one pass over the matrix
    (:func:`_best_ratios`), so the walk visits only the rows that hold a
    witness, at most eight.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2:
        raise ValueError(f"P must be a 2-D items x outputs matrix, got {P.ndim} dimensions")
    if len(P) < 2:
        raise ValueError("certification needs at least two items")
    # a NaN anywhere makes the minimum NaN, so one pass checks all three
    low = P.min(initial=np.inf)
    if np.isnan(low):
        raise ValueError("probabilities must not be NaN")
    if low < 0:
        raise ValueError("probabilities must be nonnegative")
    if low == 0:
        raise ValueError("probabilities must be positive: a law with zeros needs a closed form")
    n = P.shape[1]
    sums = P.sum(axis=1)
    # fsum re-sums the rows within numpy's rounding bound of the tolerance
    for row in P[~(abs(sums - 1.0) <= _PROB_SUM_TOL - n * 2.0**-52)]:
        total = math.fsum(row.tolist())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
    # each pair's ratio on an output, or its inverse, is at least 1
    best = _best_ratios(P)
    max_ratio = float(best.max())

    def found() -> Iterator[tuple[int, int, int]]:
        # each row a that holds a witness against the rows below it, eight
        # at a time: GRR's first eight hold all eight witnesses
        for a in np.flatnonzero(best == max_ratio).tolist():
            for lo in range(a + 1, len(P), _MAX_WITNESSES):
                below = P[lo : lo + _MAX_WITNESSES]
                forward = P[a] / below
                ratio = np.divide(1.0, forward)
                # forward where forward >= 1, else 1 / forward (the same two
                # float operations as a pair-by-pair walk). Row-major: pairs
                # (a, b) in item order, each in column order
                np.maximum(ratio, forward, out=ratio)
                for i, k in zip(*np.nonzero(ratio == max_ratio)):
                    b, k = lo + int(i), int(k)
                    yield (a, b, k) if forward[i, k] >= 1 else (b, a, k)

    with np.errstate(over="ignore"):
        witnesses = tuple(itertools.islice(found(), _MAX_WITNESSES))
    return FldpCertificate(
        eta_observed=1.0,
        max_ratio_observed=max_ratio,
        epsilon_effective=math.log(max_ratio),
        pair_witnesses=witnesses,
        range_size_min=n,
        range_size_max=n,
        intersection_size_min=n,
        intersection_size_max=n,
    )


def _best_ratios(P: np.ndarray) -> np.ndarray:
    """Each row a's largest ratio against the rows below it.

    Pair (a, b) has ratio P[a, k] / P[b, k] or its inverse, whichever is
    larger, on each output k. Float division rounds monotonically in each
    operand, so over the rows b > a the larger is exactly P[a, k] over the
    least later probability at k, or one over P[a, k] over the greatest:
    the walk's own two operations.
    """
    with np.errstate(over="ignore"):
        ratios = P[:-1] / np.minimum.accumulate(P[:0:-1], axis=0)[::-1]
        inverse = P[:-1] / np.maximum.accumulate(P[:0:-1], axis=0)[::-1]
        np.divide(1.0, inverse, out=inverse)
    return np.maximum(ratios, inverse, out=ratios).max(axis=1)


def _closed_form(
    eta: float, size: int, overlap: int, top: float, domain_size: int, outputs: Callable
) -> FldpCertificate:
    """The certificate of ranges of ``size`` outputs, any two sharing
    ``overlap``, whose largest ratio is ``top``. Its witnesses are the first
    eight at ``top`` on the pairwise walk: pairs t < t' in item order, and
    ``outputs(t, t')`` yields ``(ratio, witness)`` for the shared outputs
    whose ratio may be ``top``, in t's enumeration order."""
    pairs = itertools.combinations(range(domain_size), 2)
    found = (w for t, u in pairs for ratio, w in outputs(t, u) if ratio == top)
    return FldpCertificate(
        eta_observed=eta, max_ratio_observed=top, epsilon_effective=math.log(top),
        pair_witnesses=tuple(itertools.islice(found, _MAX_WITNESSES)),
        range_size_min=size, range_size_max=size,
        intersection_size_min=overlap, intersection_size_max=overlap,
    )


def _certify_fhr(params: PrivacyParams, domain_size: int) -> FldpCertificate:
    """FHR's certificate in closed form.

    Item t, with +1 columns P and -1 columns N, outputs (x, y) with
    probability p_keep and (y, x) with probability p_flip for each x in P
    and y in N, both times 4/d^2: 2 (d/2)^2 outputs. Two distinct rows
    agree on d/4 columns of each sign, so P n P', P n N', N n P' and N n N'
    each hold d/4, and a pair shares 2 |P n P'| |N n N'| outputs at ratio 1
    plus 2 |P n N'| |N n P'| at p_keep/p_flip or its inverse: d^2/4 in all.
    Only the rows the witness walk reaches (at most three) are built.
    """
    d = min_order_for_domain(domain_size).order
    if d > _MAX_FHR_ORDER:
        raise EnumerationLimitError(
            f"FHR order {d} exceeds the certification limit {_MAX_FHR_ORDER}"
        )
    # the flip probability directly, as 1 - p loses it once p nears 1; the
    # factor 4/d^2 both probabilities carry is a power of two, so it
    # cancels exactly from the ratios and is left out. The ratios take the
    # matrix form's float operations: forward, and 1 / forward below 1.
    keep, flip = params.p, 1 / (math.exp(params.epsilon) + 1)
    ratios = (keep / flip, 1 / (flip / keep))
    row = functools.cache(lambda t: row_vector(t + 1, d))

    def outputs(t: int, u: int) -> Iterator:
        # for x in P n N' and y in N n P', t keeps the (x, y) that u flips
        # and flips the (y, x) that u keeps (the witness oriented from u)
        ys = np.flatnonzero(row(t) < row(u)).tolist()
        for x in np.flatnonzero(row(t) > row(u)).tolist():
            for y in ys:
                yield ratios[0], (t, u, (x, y))
                yield ratios[1], (u, t, (y, x))

    return _closed_form(0.5, d * d // 2, d * d // 4, max(ratios), domain_size, outputs)


def _certify_unary(mechanism: str, params: PrivacyParams, domain_size: int) -> FldpCertificate:
    """OUE's or RAPPOR's certificate in closed form.

    Item t sets bit t with probability p and each other bit with
    probability q, independently. On an output s, t's and t''s laws share
    every factor but those at positions t and t', so the ratio is
    p (1 - q) / (q (1 - p)) where s_t = 1 and s_t' = 0, its inverse where
    s_t = 0 and s_t' = 1, and 1 where the two bits agree. It is the exact
    rational over the float p = a/b and q = c/e, complements exact (RAPPOR
    is symmetric: its 1 - p and 1 - q are q and p), rounded once.
    """
    if domain_size > _MAX_UNARY_DOMAIN:
        raise EnumerationLimitError(
            f"unary domain {domain_size} exceeds the enumeration limit {_MAX_UNARY_DOMAIN}"
        )
    (a, b), (c, e) = params.p.as_integer_ratio(), params.q.as_integer_ratio()
    top = (a * e) ** 2 / (b * c) ** 2 if mechanism == "rappor" else a * (e - c) / (c * (b - a))

    def outputs(t: int, u: int) -> Iterator:
        for s in range(1 << domain_size):
            if (s >> t ^ s >> u) & 1:
                yield top, ((t, u, s) if s >> t & 1 else (u, t, s))

    size = 1 << domain_size
    return _closed_form(1.0, size, size, top, domain_size, outputs)


def certify_mechanism(mechanism: str, epsilon: float, domain_size: int) -> FldpCertificate:
    """Audit all pairs of items under the registry's parameters: FHR and
    the unary encodings in closed form, GRR over every item's enumerated
    range. The domain size is an int or a numpy integer, checked before
    any mechanism's branch."""
    record = lookup(mechanism)
    try:
        domain_size = operator.index(domain_size)
    except TypeError:
        raise ValueError(f"domain size must be an integer, got {domain_size!r}") from None
    if domain_size < 2:
        raise ValueError(f"domain must have at least 2 items, got {domain_size}")
    params = record.params(epsilon, domain_size)
    if mechanism == "fhr":
        return _certify_fhr(params, domain_size)
    if mechanism in ("oue", "rappor"):
        return _certify_unary(mechanism, params, domain_size)
    if mechanism != "grr":
        raise ValueError(f"cannot certify mechanism {mechanism!r}")
    return certify_ranges(enumerate_range(np.arange(domain_size), params, domain_size))


def certificate_passes(mechanism: str, epsilon: float, certificate: FldpCertificate) -> bool:
    """The pass rule: the observed overlap reaches the mechanism's eta and
    the effective epsilon stays within the budget, each up to its tolerance.

    Raises ValueError for a mechanism that is unknown or has no eta to meet.
    """
    eta = lookup(mechanism).eta
    if eta is None:
        raise ValueError(f"mechanism {mechanism!r} has no certifiable overlap")
    return (
        certificate.eta_observed + _ETA_TOL >= eta
        and certificate.epsilon_effective <= epsilon + _RATIO_TOL
    )
