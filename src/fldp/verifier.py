"""Exact empirical auditor for flexible local differential privacy.

A mechanism satisfies the flexible notion when, for every pair of inputs,
the overlap fraction of their output ranges is at least eta and on every
shared output the probability ratio is at most e^eps. This module
enumerates the full output distribution of a mechanism analytically over a
small domain (never by sampling), then certifies the observed eta and the
worst-case ratio with the witnessing input pairs and outputs.

Output encodings per mechanism:

- fhr: ordered sign-assigned index pair ``(x, y)`` meaning +1 at column x
  and -1 at column y. Under this counting each item reaches order^2 / 2
  outputs and any two items share order^2 / 4 of them, so eta is exactly
  one half regardless of order.
- grr: the reported value itself.
- rappor / oue: the perturbed bit vector packed into an int (bit j is
  position j), which keeps 2^D outputs hashable and compact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .hadamard import min_order_for_domain, positions_of_sign
from .mechanisms import PrivacyParams, lookup

__all__ = [
    "EnumerationLimitError",
    "OutputRange",
    "FldpCertificate",
    "enumerate_range",
    "certify_ranges",
    "certificate_passes",
]

_MAX_FHR_ORDER = 64
_MAX_GRR_DOMAIN = 64
_MAX_UNARY_DOMAIN = 12
_MAX_WITNESSES = 8
_PROB_SUM_TOL = 1e-9
# slack of the pass rule: on the observed overlap, and on the effective
# epsilon (the log of the worst ratio) against the budget
_ETA_TOL = 1e-12
_RATIO_TOL = 1e-9


class EnumerationLimitError(ValueError):
    """The mechanism's output space is too large to enumerate exactly."""


@dataclass(frozen=True)
class OutputRange:
    """Exact output distribution of a mechanism run on one item.

    ``probabilities`` maps each reachable output to its exact probability;
    outputs that cannot occur are absent rather than carried at zero.
    """

    item: int
    probabilities: dict

    def __post_init__(self) -> None:
        total = math.fsum(self.probabilities.values())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        if any(p <= 0 for p in self.probabilities.values()):
            raise ValueError("output ranges must not carry zero-probability outputs")

    @property
    def size(self) -> int:
        return len(self.probabilities)


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
    order = min_order_for_domain(domain_size)
    d = order.order
    if d > _MAX_FHR_ORDER:
        raise EnumerationLimitError(
            f"FHR order {d} exceeds the enumeration limit {_MAX_FHR_ORDER}"
        )
    row = item + 1
    if item < 0 or row >= d:
        raise ValueError(f"item {item} outside domain [0, {domain_size})")
    pos = positions_of_sign(row, d, +1)
    neg = positions_of_sign(row, d, -1)
    p_keep = params.p * 4 / (d * d)
    p_flip = (1 - params.p) * 4 / (d * d)
    probabilities = {}
    for x in pos:
        for y in neg:
            probabilities[(int(x), int(y))] = p_keep
            probabilities[(int(y), int(x))] = p_flip
    return OutputRange(item=item, probabilities=probabilities)


def _grr_range(item: int, params: PrivacyParams, domain_size: int) -> OutputRange:
    if domain_size > _MAX_GRR_DOMAIN:
        raise EnumerationLimitError(
            f"GRR domain {domain_size} exceeds the enumeration limit {_MAX_GRR_DOMAIN}"
        )
    if not 0 <= item < domain_size:
        raise ValueError(f"item {item} outside domain [0, {domain_size})")
    if params.q is None:
        raise ValueError("GRR enumeration needs params with a q probability")
    probabilities = {value: params.q for value in range(domain_size)}
    probabilities[item] = params.p
    return OutputRange(item=item, probabilities=probabilities)


def _unary_range(item: int, params: PrivacyParams, domain_size: int) -> OutputRange:
    if domain_size > _MAX_UNARY_DOMAIN:
        raise EnumerationLimitError(
            f"unary domain {domain_size} exceeds the enumeration limit {_MAX_UNARY_DOMAIN}"
        )
    if not 0 <= item < domain_size:
        raise ValueError(f"item {item} outside domain [0, {domain_size})")
    if params.q is None:
        raise ValueError("unary enumeration needs params with a q probability")
    p, q = params.p, params.q
    probabilities = {}
    for mask in range(1 << domain_size):
        prob = 1.0
        for j in range(domain_size):
            bit = (mask >> j) & 1
            hot = p if bit else 1 - p
            cold = q if bit else 1 - q
            prob *= hot if j == item else cold
        probabilities[mask] = prob
    return OutputRange(item=item, probabilities=probabilities)


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
    """Audit precomputed output ranges over every ordered pair of items.

    The eta reported is the worst overlap fraction; the ratio is maximized
    only over outputs both items can produce. Disjoint ranges yield eta 0
    with a trivial ratio of 1, since no shared output exists to compare.
    """
    items = sorted(ranges)
    if len(items) < 2:
        raise ValueError("certification needs at least two items")
    sizes = [ranges[t].size for t in items]
    eta = 1.0
    max_ratio = 1.0
    witnesses: list[tuple[int, int, object]] = []
    inter_min, inter_max = None, None
    for a_idx, t in enumerate(items):
        probs_t = ranges[t].probabilities
        for t_prime in items[a_idx + 1 :]:
            probs_u = ranges[t_prime].probabilities
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
                elif ratio == max_ratio and len(witnesses) < _MAX_WITNESSES:
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
