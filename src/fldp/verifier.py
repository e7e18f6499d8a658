"""Exact empirical auditor for flexible local differential privacy.

A mechanism satisfies the flexible notion when, for every pair of inputs,
the overlap fraction of their output ranges is at least eta and on every
shared output the probability ratio is at most e^eps. This module derives
the full output distribution of a mechanism analytically over a small
domain (never by sampling), then certifies the observed eta and the
worst-case ratio with the witnessing input pairs and outputs.

GRR and the unary encodings are enumerated by :func:`enumerate_range`,
which checks the domain against the mechanism's row of one limits table
and then writes down its law. Each item's range is a pair of arrays, the
output codes in enumeration order and their probabilities.
:func:`certify_ranges` scatters them into one items x outputs probability
matrix P. Its support S = P > 0 gives the range sizes (row sums) and every
pair's overlap (S . S^T). The ratios are then taken one row t at a time:
P[t, R(t)] against the rows below it, P[t+1:, R(t)], so no more than one
row's pairs are held at once. Output codes:

- grr: the reported value itself.
- rappor / oue: the perturbed bit vector packed into an int (bit j is
  position j).

FHR is certified in closed form, from the Gram matrix of its rows, with
no output written down. Its output is the ordered sign-assigned index
pair ``(x, y)``, meaning +1 at column x and -1 at column y. Under this
counting each item reaches order^2 / 2 outputs and any two items share
order^2 / 4 of them, so eta is exactly one half regardless of order.
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

_MAX_FHR_ORDER = 4096
_GRAM_BLOCK = 256  # rows of the FHR Gram matrix taken at once
# each enumerable mechanism: the name its limit message gives it, and the
# largest domain whose output ranges are written down
_ENUMERABLE = {"grr": ("GRR", 256), "oue": ("unary", 12), "rappor": ("unary", 12)}
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
    """

    codes: np.ndarray
    probs: np.ndarray

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


def enumerate_range(
    mechanism: str, item: int, params: PrivacyParams, domain_size: int
) -> OutputRange:
    """Exact output distribution of ``mechanism`` run on ``item``.

    Analytic, never sampled; raises :class:`EnumerationLimitError` when the
    output space is too large to write down. GRR and the unary encodings
    only: FHR is certified in closed form by :func:`certify_mechanism`.
    """
    if mechanism not in _ENUMERABLE:
        raise ValueError(f"cannot enumerate mechanism {mechanism!r}")
    label, limit = _ENUMERABLE[mechanism]
    if domain_size > limit:
        raise EnumerationLimitError(
            f"{label} domain {domain_size} exceeds the enumeration limit {limit}"
        )
    if not 0 <= item < domain_size:
        raise ValueError(f"item {item} outside domain [0, {domain_size})")
    _require(params, "q", "GRR or unary encoding")
    p, q = params.p, params.q
    if mechanism == "grr":
        probs = np.full(domain_size, q)
        probs[item] = p
        return OutputRange(codes=np.arange(domain_size), probs=probs)
    masks = np.arange(1 << domain_size)
    probs = np.ones(masks.size)
    # RAPPOR's flip probabilities are q and p; 1 - p loses p's last bits near 1
    miss, clear = (q, p) if mechanism == "rappor" else (1 - p, 1 - q)
    # one factor per bit position, in position order (which fixes the rounding)
    for j in range(domain_size):
        on, off = (p, miss) if j == item else (q, clear)
        probs *= np.where((masks >> j) & 1, on, off)
    return OutputRange(codes=masks, probs=probs)


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
    witnesses: list[tuple[int, int, int]] = []
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
                witnesses.append((*pair, int(c[k])))
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


def _fhr_witnesses(masks: np.ndarray, ratios: tuple[float, float]) -> tuple:
    """The witnesses of :func:`certify_ranges`' walk over FHR's ranges,
    from the items' 0/1 masks of their rows' +1 columns.

    Pairs t < t' come in item order, and each pair's outputs in t's
    enumeration order: (x, y) and then (y, x), for x in P and then y in N,
    both ascending. Only outputs on which the two rows disagree carry a
    ratio above 1: for x in P n N' and y in N n P', t keeps the (x, y) that
    t' flips (``ratios[0]``), and flips the (y, x) that t' keeps
    (``ratios[1]``, the witness oriented from t').
    """
    top = max(ratios)
    witnesses = []
    for t in range(len(masks) - 1):
        for u in range(t + 1, len(masks)):
            for x in np.flatnonzero(masks[t] > masks[u]).tolist():
                for y in np.flatnonzero(masks[t] < masks[u]).tolist():
                    for ratio, witness in zip(ratios, ((t, u, (x, y)), (u, t, (y, x)))):
                        if ratio == top:
                            witnesses.append(witness)
                            if len(witnesses) == _MAX_WITNESSES:
                                return tuple(witnesses)
    return tuple(witnesses)


def _certify_fhr(params: PrivacyParams, domain_size: int) -> FldpCertificate:
    """FHR's certificate in closed form; equal to :func:`certify_ranges` over
    every item's enumerated range, without writing any output down.

    Item t, with +1 columns P and -1 columns N, outputs (x, y) with
    probability p_keep and (y, x) with probability p_flip for each x in P
    and y in N, both times 4/d^2. With M the 0/1 masks of the rows' +1
    columns and w their weights, a = |P n P'| is an entry of M . M^T,
    taken ``_GRAM_BLOCK`` rows at a time; |P n N'| = w - a,
    |N n P'| = w' - a and |N n N'| = d - w - w' + a. A range has
    2 w (d - w) outputs, and a pair shares
    2 |P n P'| |N n N'| (ratio 1) plus 2 |P n N'| |N n P'| (ratios
    p_keep/p_flip and its inverse, both above 1 since p_keep > p_flip).
    """
    d = min_order_for_domain(domain_size).order
    if d > _MAX_FHR_ORDER:
        raise EnumerationLimitError(
            f"FHR order {d} exceeds the enumeration limit {_MAX_FHR_ORDER}"
        )
    # the flip probability directly, as 1 - p loses it once p nears 1; the
    # factor 4/d^2 both probabilities carry is a power of two, so it
    # cancels exactly from the ratios and is left out. The ratios take the
    # matrix form's float operations: forward, and 1 / forward below 1.
    keep, flip = params.p, 1 / (math.exp(params.epsilon) + 1)
    ratios = (keep / flip, 1 / (flip / keep))
    masks = np.empty((domain_size, d), dtype=np.float32)
    for t in range(domain_size):
        masks[t] = row_vector(t + 1, d) > 0
    w = masks.sum(axis=1, dtype=np.int64)
    sizes = 2 * w * (d - w)
    blocks = []  # per block of pairs: worst overlap fraction, overlap range, any ratio above 1
    for lo in range(0, domain_size - 1, _GRAM_BLOCK):
        hi = min(lo + _GRAM_BLOCK, domain_size - 1)
        a = (masks[lo:hi] @ masks[lo:].T).astype(np.int64)
        upper = np.arange(lo, domain_size) > np.arange(lo, hi)[:, None]
        wt, wu = w[lo:hi, None], w[None, lo:]
        cross = ((wt - a) * (wu - a))[upper]
        inter = 2 * (a * (d - wt - wu + a))[upper] + 2 * cross
        larger = np.maximum(sizes[lo:hi, None], sizes[None, lo:])[upper]
        blocks.append((
            float((inter / larger).min()), int(inter.min()), int(inter.max()),
            bool((cross > 0).any()),
        ))
    fractions, lows, highs, crossings = zip(*blocks)
    crossed = any(crossings)
    max_ratio = max(ratios) if crossed else 1.0
    return FldpCertificate(
        eta_observed=min(1.0, *fractions),
        max_ratio_observed=max_ratio,
        epsilon_effective=math.log(max_ratio),
        pair_witnesses=_fhr_witnesses(masks, ratios) if crossed else (),
        range_size_min=int(sizes.min()),
        range_size_max=int(sizes.max()),
        intersection_size_min=min(lows),
        intersection_size_max=max(highs),
    )


def certify_mechanism(mechanism: str, epsilon: float, domain_size: int) -> FldpCertificate:
    """Audit all pairs of items under the registry's parameters: FHR in
    closed form, the others over every item's enumerated range."""
    params = lookup(mechanism).params(epsilon, domain_size)
    if domain_size < 2:
        raise ValueError(f"domain must contain at least 2 items, got {domain_size}")
    if mechanism == "fhr":
        return _certify_fhr(params, domain_size)
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
