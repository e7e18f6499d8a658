"""Evaluation metrics comparing estimated frequency tables to ground truth.

All four metrics restrict attention to high-frequency items, since that is
where frequency oracles are expected to be useful:

- ``kld``: symmetrized KL divergence between the two tables after
  restriction to the candidate items, clipping of negative estimates,
  additive smoothing, and renormalization.
- ``related_error``: median over candidates of |p - p*| / p.
- ``squared_error``: mean squared frequency error over the intersection
  of the true and estimated top-k sets.
- ``ncr``: normalized cumulative rank, crediting each estimated top-k item
  that belongs to the true top-k with the true item's rank score.

Tables are plain arrays indexed by item, either raw counts or normalized
frequencies; each function documents the scale it assumes. Estimates may
be negative on entry (unbiased estimators overshoot downward); the metrics
decide how to project onto distributions, not the estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoOverlapError",
    "TopKSelection",
    "top_k",
    "kld",
    "related_error",
    "squared_error",
    "ncr",
]


class NoOverlapError(ValueError):
    """True and estimated top-k sets share no items; the metric is undefined."""


@dataclass(frozen=True)
class TopKSelection:
    """The k highest-frequency items, ranked descending.

    Ties are broken by ascending item index so selections are reproducible
    across runs regardless of how the table was produced.
    """

    k: int
    items: np.ndarray

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.items.size > self.k:
            raise ValueError(f"selection holds {self.items.size} items but k={self.k}")
        if self.items.size != np.unique(self.items).size:
            raise ValueError("selection contains duplicate items")


def top_k(table: np.ndarray, k: int) -> TopKSelection:
    """Rank items by table value descending, ties by ascending index.

    A partial selection: the k-th largest value is found in O(size), and
    only the items at or above it, boundary ties included, are sorted. The
    ranking equals that of a full sort. Tables holding NaN or infinite
    values are rejected.
    """
    table = np.asarray(table, dtype=np.float64)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not np.isfinite(table).all():
        raise ValueError("top_k needs a finite table, got NaN or infinite values")
    pool = np.arange(table.size)
    if k < table.size:
        threshold = np.partition(table, table.size - k)[table.size - k]
        pool = np.flatnonzero(table >= threshold)
    # lexsort's last key dominates: -value first, index as tie-break
    ranked = pool[np.lexsort((pool, -table[pool]))]
    return TopKSelection(k=k, items=ranked[:k])


def _restrict(table: np.ndarray, items: np.ndarray) -> np.ndarray:
    table = np.asarray(table, dtype=np.float64)
    if items.size and (items.min() < 0 or items.max() >= table.size):
        raise ValueError("candidate item outside table")
    return table[items]


def kld(
    real: np.ndarray,
    est: np.ndarray,
    candidates: TopKSelection,
    smoothing: float | None = None,
) -> float:
    """Symmetrized KL divergence over the candidate items.

    Both tables are restricted to the candidates, negatives clipped to
    zero, ``smoothing`` added to every entry, and the result renormalized
    to a distribution before averaging the two one-sided divergences
    (natural log). When ``smoothing`` is None it defaults to one tenth of
    a count, 1 / (10 * sum(real)), so ``real`` should be count-scale in
    that case.
    """
    real = np.asarray(real, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    if smoothing is None:
        smoothing = 1.0 / (10.0 * float(real.sum()))
    p = np.clip(_restrict(real, candidates.items), 0, None) + smoothing
    q = np.clip(_restrict(est, candidates.items), 0, None) + smoothing
    if np.any(p <= 0) or np.any(q <= 0):
        raise ValueError("a candidate has zero mass after smoothing")
    p = p / p.sum()
    q = q / q.sum()
    forward = float(np.sum(p * np.log(p / q)))
    backward = float(np.sum(q * np.log(q / p)))
    return 0.5 * (forward + backward)


def related_error(real: np.ndarray, est: np.ndarray, candidates: TopKSelection) -> float:
    """Median over candidates of |p - p*| / p; scale-invariant.

    Every candidate must have positive true frequency, otherwise the
    ratio is undefined and the call is rejected.
    """
    p = _restrict(real, candidates.items)
    q = _restrict(est, candidates.items)
    if np.any(p <= 0):
        raise ValueError("candidates include an item with zero true frequency")
    return float(np.median(np.abs(p - q) / p))


def squared_error(real: np.ndarray, est: np.ndarray, k: int) -> float:
    """Mean squared frequency error over the overlap of the two top-k sets.

    Both tables are mapped to the frequency scale by dividing by the true
    table's total, so count-scale estimates are compared on frequencies
    even when their own sum drifted from n. An empty overlap raises
    :class:`NoOverlapError` rather than reporting a misleading zero.
    """
    real = np.asarray(real, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    total = float(real.sum())
    if total <= 0:
        raise ValueError("true table must have positive total mass")
    shared = np.intersect1d(top_k(real, k).items, top_k(est, k).items)
    if shared.size == 0:
        raise NoOverlapError(f"true and estimated top-{k} sets are disjoint")
    diff = (real[shared] - est[shared]) / total
    return float(np.mean(diff * diff))


def ncr(real_topk: TopKSelection, est_topk: TopKSelection) -> float:
    """Normalized cumulative rank of the estimated top-k against the true.

    A true item at rank r (1-based) is worth k - r + 1 points; each
    estimated item collects the points of its true rank if it appears in
    the true selection at all. The total is divided by the true selection's
    own score, k(k+1)/2 when it holds k items, so matching sets score 1 and
    disjoint sets 0 even when k exceeds the table.
    """
    if real_topk.k != est_topk.k:
        raise ValueError(f"selections disagree on k: {real_topk.k} vs {est_topk.k}")
    if not real_topk.items.size:
        raise ValueError("the true selection is empty")
    k = real_topk.k
    scores = {int(item): k - rank for rank, item in enumerate(real_topk.items)}
    total = sum(scores.get(int(item), 0) for item in est_topk.items)
    return total / sum(scores.values())
