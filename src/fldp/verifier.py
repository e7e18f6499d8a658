"""Exact empirical auditor for flexible local differential privacy.

A mechanism satisfies the flexible notion when, for every pair of inputs,
the overlap fraction of their output ranges is at least eta and on every
shared output the probability ratio is at most e^eps. This module
enumerates the full output distribution of a mechanism analytically over a
small domain (never by sampling), then certifies the observed eta and the
worst-case ratio with the witnessing input pairs and outputs.

Each item's range is a pair of arrays: the output codes in enumeration
order and their probabilities. :func:`certify_ranges` scatters them into
one items x outputs probability matrix P. Its support S = P > 0 gives the
range sizes (row sums) and every pair's overlap (S . S^T). The ratios are
then taken one row t at a time: P[t, R(t)] against the rows below it,
P[t+1:, R(t)], so no more than one row's pairs are held at once.

Output codes per mechanism:

- fhr: the ordered sign-assigned index pair ``(x, y)``, meaning +1 at
  column x and -1 at column y, has code ``x * order + y``. Under this
  counting each item reaches order^2 / 2 outputs and any two items share
  order^2 / 4 of them, so eta is exactly one half regardless of order.
- grr: the reported value itself.
- rappor / oue: the perturbed bit vector packed into an int (bit j is
  position j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .hadamard import min_order_for_domain, row_vector
from .mechanisms import PrivacyParams, _require, lookup

__all__ = [
    "EnumerationLimitError",
    "OutputRange",
    "FldpCertificate",
    "enumerate_range",
    "certify_ranges",
    "certificate_passes",
]

_MAX_FHR_ORDER = 128
_MAX_GRR_DOMAIN = 256
_MAX_UNARY_DOMAIN = 12
_MAX_WITNESSES = 8
_PROB_SUM_TOL = 1e-9
# slack of the pass rule: on the observed overlap, and on the effective
# epsilon (the log of the worst ratio) against the budget
_ETA_TOL = 1e-12
_RATIO_TOL = 1e-9


class EnumerationLimitError(ValueError):
    """The mechanism's output space is too large to enumerate exactly."""


@dataclass(frozen=True, eq=False)
class OutputRange:
    """Exact output distribution of a mechanism run on one item.

    ``codes`` lists each reachable output's code in enumeration order and
    ``probs`` its exact probability; outputs that cannot occur are absent
    rather than carried at zero. The codes are small nonnegative ints, as
    they index the columns of the certifier's probability matrix.
    ``order`` is set for FHR only, whose code ``x * order + y`` stands for
    the pair ``(x, y)``.
    """

    item: int
    codes: np.ndarray
    probs: np.ndarray
    order: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", np.asarray(self.codes, dtype=np.int64))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))
        if self.codes.ndim != 1 or self.codes.shape != self.probs.shape:
            raise ValueError("codes and probs must be 1-D arrays of one length")
        total = math.fsum(self.probs.tolist())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        if not (self.probs > 0).all():
            raise ValueError("output ranges must not carry zero-probability outputs")
        ordered = np.sort(self.codes)
        if ordered[0] < 0:
            raise ValueError("output codes must be nonnegative")
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("output codes must be distinct")

    @property
    def size(self) -> int:
        return self.codes.size

    def output(self, code: int) -> object:
        """The output ``code`` stands for: ``(x, y)`` for FHR, else the code."""
        return divmod(code, self.order) if self.order else code


@dataclass(frozen=True)
class FldpCertificate:
    """Result of auditing every input pair of an enumerable mechanism.

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


def _fhr_range(item: int, params: PrivacyParams, domain_size: int) -> OutputRange:
    _require(params, "correction", "FHR")
    order = min_order_for_domain(domain_size)
    d = order.order
    if d > _MAX_FHR_ORDER:
        raise EnumerationLimitError(
            f"FHR order {d} exceeds the enumeration limit {_MAX_FHR_ORDER}"
        )
    row = item + 1
    if item < 0 or row >= d:
        raise ValueError(f"item {item} outside domain [0, {domain_size})")
    signs = row_vector(row, d)
    pos = np.flatnonzero(signs > 0)[:, None]
    neg = np.flatnonzero(signs < 0)[None, :]
    p_keep = params.p * 4 / (d * d)
    p_flip = (1 - params.p) * 4 / (d * d)
    # for x in pos, y in neg: (x, y) kept, then (y, x) flipped
    codes = np.stack([pos * d + neg, neg * d + pos], axis=-1).ravel()
    probs = np.tile([p_keep, p_flip], codes.size // 2)
    return OutputRange(item=item, codes=codes, probs=probs, order=d)


def _grr_range(item: int, params: PrivacyParams, domain_size: int) -> OutputRange:
    if domain_size > _MAX_GRR_DOMAIN:
        raise EnumerationLimitError(
            f"GRR domain {domain_size} exceeds the enumeration limit {_MAX_GRR_DOMAIN}"
        )
    if not 0 <= item < domain_size:
        raise ValueError(f"item {item} outside domain [0, {domain_size})")
    _require(params, "q", "GRR")
    probs = np.full(domain_size, params.q)
    probs[item] = params.p
    return OutputRange(item=item, codes=np.arange(domain_size), probs=probs)


def _unary_range(item: int, params: PrivacyParams, domain_size: int) -> OutputRange:
    if domain_size > _MAX_UNARY_DOMAIN:
        raise EnumerationLimitError(
            f"unary domain {domain_size} exceeds the enumeration limit {_MAX_UNARY_DOMAIN}"
        )
    if not 0 <= item < domain_size:
        raise ValueError(f"item {item} outside domain [0, {domain_size})")
    _require(params, "q", "unary encoding")
    p, q = params.p, params.q
    masks = np.arange(1 << domain_size)
    probs = np.ones(masks.size)
    # one factor per bit position, in position order (which fixes the rounding)
    for j in range(domain_size):
        on, off = (p, 1 - p) if j == item else (q, 1 - q)
        probs *= np.where((masks >> j) & 1, on, off)
    return OutputRange(item=item, codes=masks, probs=probs)


def enumerate_range(
    mechanism: str, item: int, params: PrivacyParams, domain_size: int
) -> OutputRange:
    """Exact output distribution of ``mechanism`` run on ``item``.

    Analytic, never sampled; raises :class:`EnumerationLimitError` when the
    output space is too large to write down.
    """
    if mechanism == "fhr":
        return _fhr_range(item, params, domain_size)
    if mechanism == "grr":
        return _grr_range(item, params, domain_size)
    if mechanism in ("oue", "rappor"):
        return _unary_range(item, params, domain_size)
    raise ValueError(f"cannot enumerate mechanism {mechanism!r}")


def certify_ranges(ranges: Mapping[int, OutputRange]) -> FldpCertificate:
    """Audit precomputed output ranges over every unordered pair of items.

    The eta reported is the worst overlap fraction; the ratio is maximized
    only over outputs both items can produce. Disjoint ranges yield eta 0
    with a trivial ratio of 1, since no shared output exists to compare.

    Witnesses follow a walk over pairs t < t' in item order, each pair's
    shared outputs in the smaller range's enumeration order (t's on a
    tie): the running maximum starts at 1.0, and up to eight outputs that
    tie with it are kept in the order the walk meets them.
    """
    items = sorted(ranges)
    if len(items) < 2:
        raise ValueError("certification needs at least two items")
    rows = [ranges[t] for t in items]
    P = np.zeros((len(items), max(int(r.codes.max()) for r in rows) + 1))
    for a, r in enumerate(rows):
        P[a, r.codes] = r.probs
    S = (P > 0).astype(np.float64)
    sizes = S.sum(axis=1).astype(np.int64)
    upper = np.triu_indices(len(items), 1)
    inter = (S @ S.T)[upper].astype(np.int64)
    del S
    eta = min(1.0, float((inter / np.maximum(sizes[upper[0]], sizes[upper[1]])).min()))
    max_ratio = 1.0
    witnesses: list[tuple[int, int, object]] = []
    for a in range(len(items) - 1):
        c = rows[a].codes
        block = P[a + 1 :, c]
        with np.errstate(divide="ignore"):
            forward = rows[a].probs / block
        # forward where forward >= 1, else 1 / forward (the same two float
        # operations as a pair-by-pair walk); 0 off the shared outputs
        ratio = 1 / forward
        np.maximum(ratio, forward, out=ratio)
        ratio[block == 0] = 0.0
        top = float(ratio.max())
        if top > max_ratio:
            max_ratio, witnesses = top, []
        elif top < max_ratio or len(witnesses) == _MAX_WITNESSES:
            continue
        tied = ratio == max_ratio
        for i in np.flatnonzero(tied.any(axis=1)).tolist():
            b = a + 1 + i
            ks = np.flatnonzero(tied[i])
            if rows[b].size < rows[a].size:
                # this pair's shared outputs come in the smaller range's order
                rank = np.zeros(P.shape[1], dtype=np.int64)
                rank[rows[b].codes] = np.arange(rows[b].size)
                ks = ks[np.argsort(rank[c[ks]])]
            for k in ks[: _MAX_WITNESSES - len(witnesses)].tolist():
                pair = (items[a], items[b]) if forward[i, k] >= 1 else (items[b], items[a])
                witnesses.append((*pair, rows[a].output(int(c[k]))))
            if len(witnesses) == _MAX_WITNESSES:
                break
    return FldpCertificate(
        eta_observed=eta,
        max_ratio_observed=max_ratio,
        epsilon_effective=math.log(max_ratio),
        pair_witnesses=tuple(witnesses),
        range_size_min=int(sizes.min()),
        range_size_max=int(sizes.max()),
        intersection_size_min=int(inter.min()),
        intersection_size_max=int(inter.max()),
    )


def certify_mechanism(mechanism: str, epsilon: float, domain_size: int) -> FldpCertificate:
    """Enumerate every item's range under the registry's parameters and audit all pairs."""
    params = lookup(mechanism).params(epsilon, domain_size)
    if domain_size < 2:
        raise ValueError(f"domain must contain at least 2 items, got {domain_size}")
    ranges = {
        item: enumerate_range(mechanism, item, params, domain_size)
        for item in range(domain_size)
    }
    return certify_ranges(ranges)


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
