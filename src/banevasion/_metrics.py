"""Ranking and classification metrics (internal; re-exported by evaluation)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import EmptyInputError, InvalidConfigError, MismatchError, SingleClassInputError


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank.

    A run of ``count`` tied values ending at 1-based sorted position ``end``
    holds ranks ``end - count + 1 .. end``, whose mean is
    ``end - (count - 1) / 2``.
    """
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve, Mann-Whitney form with tie averaging."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.shape != labels.shape:
        raise MismatchError("scores and labels must align")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClassInputError("roc_auc needs both classes")
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def mrr(ranks_of_true: Sequence[int]) -> float:
    """Mean reciprocal rank over 1-based true-item ranks."""
    if not len(ranks_of_true):
        raise EmptyInputError("mrr needs at least one ranking")
    return sum(1.0 / r for r in ranks_of_true) / len(ranks_of_true)


def recall_at_k(ranks_of_true: Sequence[int], k: int) -> float:
    """Fraction of rankings whose true item sits within the top k."""
    if k < 1:
        raise InvalidConfigError("k", "must be >= 1")
    if not len(ranks_of_true):
        raise EmptyInputError("recall_at_k needs at least one ranking")
    return sum(1 for r in ranks_of_true if r <= k) / len(ranks_of_true)


def fragmented_auc(
    scores: Sequence[float],
    labels: Sequence[int],
    success_flags: Sequence[bool],
) -> dict:
    """AUC of successful positives vs. all negatives, and likewise for
    unsuccessful positives. ``success_flags`` aligns with the positives in
    label order; a positive whose flag is None (undecided, as
    ``pairing.classify_success`` gives for a child still active) is in
    neither fragment.

    Returns ``{"successful", "unsuccessful", "errors"}``: a fragment with no
    members (or no negatives) scores None, and ``errors`` names it with the
    reason."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    flags = list(success_flags)
    n_pos = int((labels == 1).sum())
    if len(flags) != n_pos:
        raise MismatchError(f"expected {n_pos} success flags, got {len(flags)}")

    neg_scores = scores[labels == 0]
    pos_scores = scores[labels == 1]
    result: dict = {"errors": {}}
    for name, keep in (("successful", True), ("unsuccessful", False)):
        fragment = [s for s, f in zip(pos_scores, flags) if f == keep]
        if not fragment or neg_scores.size == 0:
            result[name] = None
            result["errors"][name] = "fragment has a single class"
            continue
        frag_scores = np.concatenate([fragment, neg_scores])
        frag_labels = np.concatenate(
            [np.ones(len(fragment), dtype=int), np.zeros(neg_scores.size, dtype=int)]
        )
        result[name] = roc_auc(frag_scores, frag_labels)
    return result
