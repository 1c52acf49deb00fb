"""Temporal splitting, leakage removal, ranking, and the task harnesses.

Tasks:

1. prediction: will a banned account later evade? Account-level features,
   matched non-evading malicious negatives.
2. early_detection: is a freshly created account (first k edits) the
   successor of a banned parent? Pairwise features without child-ban
   fields, matched benign negatives.
3. bantime_detection: is a reported malicious account an evader, and which
   banned parent does it continue? Full pairwise features, matched
   malicious negatives, plus candidate ranking (MRR / Recall@K) and a
   fragmented AUC split by evasion success.

``matching.TASKS`` holds what differs between the tasks, including each
one's default matching window and train fraction; ranking uses task 3's.
Each harness reads its vectors from a ``features.Digests`` store over its
corpus (a fresh one over ``FeatureConfig()`` unless one is passed).

Splits order positive anchors by parent creation time; each negative
follows its anchor. Negatives appearing on both sides of the split are
removed from train and kept in test, and the disjointness is re-asserted
on every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._metrics import FragmentedAuc, fragmented_auc, mrr, recall_at_k, roc_auc
from .analysis import classify_success
from .corpus import Corpus
from .errors import EmptyInputError
from .features import Digests, FeatureConfig, FeatureVector, pair_vectors
from .matching import (
    CandidateSet,
    DEFAULT_K_EDITS,
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_TASK2_CAP,
    NEGATIVE,
    POSITIVE,
    TASKS,
    Task,
    build_candidate_sets,
)
from .model import LogisticModel, TrainConfig, rfe, train
from .pairing import EvasionPair, SockpuppetGroup

__all__ = [
    "SplitSpec",
    "RankedList",
    "TaskResult",
    "RankingResult",
    "temporal_split",
    "dedupe_negatives",
    "roc_auc",
    "mrr",
    "recall_at_k",
    "fragmented_auc",
    "FragmentedAuc",
    "rank_candidates",
    "run_task1",
    "run_task2",
    "run_task3",
    "run_ranking",
    "write_report",
    "render_report_text",
]

@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


def temporal_split(samples: Sequence, corpus: Corpus, spec: SplitSpec):
    """Assign the earliest-created anchors (and their negatives) to train."""
    if not samples:
        raise EmptyInputError("temporal_split needs samples")
    anchors = sorted(
        {s.parent_id for s in samples if s.label == POSITIVE},
        key=lambda a: (corpus.account(a).creation_time, a),
    )
    if not anchors:
        raise EmptyInputError("temporal_split needs at least one positive")
    n_train = int(len(anchors) * spec.train_fraction)
    train_anchors = set(anchors[:n_train])
    train = [s for s in samples if s.parent_id in train_anchors]
    test = [s for s in samples if s.parent_id not in train_anchors]
    return train, test


def dedupe_negatives(train: Sequence, test: Sequence):
    """Drop negatives from train whose member id also appears in test
    negatives; test is returned unchanged."""
    test_neg = {s.other_id for s in test if s.label == NEGATIVE}
    deduped = [
        s for s in train if s.label == POSITIVE or s.other_id not in test_neg
    ]
    return deduped, list(test)


def _assert_no_leakage(train: Sequence, test: Sequence) -> None:
    train_neg = {s.other_id for s in train if s.label == NEGATIVE}
    test_neg = {s.other_id for s in test if s.label == NEGATIVE}
    overlap = train_neg & test_neg
    if overlap:
        raise RuntimeError(f"negative leakage across split: {sorted(overlap)[:5]}")


def _sample_matrix(task: Task, samples, digests: Digests, config: FeatureConfig):
    ordered = sorted(
        samples,
        key=lambda s: (
            digests.corpus.account(s.parent_id).creation_time, s.parent_id, -s.label, s.other_id
        ),
    )
    names, X = _vector_matrix(task.vectors(ordered, digests, config))
    y = np.array([s.label for s in ordered], dtype=int)
    return ordered, names, X, y


def _vector_matrix(vectors: list[FeatureVector]):
    return vectors[0].names, np.vstack([v.values for v in vectors])


@dataclass(frozen=True)
class TaskResult:
    task: str
    auc: float
    n_train: int
    n_test: int
    n_train_pos: int
    n_test_pos: int
    split_boundary: int
    selected_features: tuple[str, ...] | None = None
    fragmented: FragmentedAuc | None = None

    def to_dict(self) -> dict:
        doc = {
            "task": self.task,
            "auc": self.auc,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "n_train_pos": self.n_train_pos,
            "n_test_pos": self.n_test_pos,
            "split_boundary": self.split_boundary,
        }
        if self.selected_features is not None:
            doc["selected_features"] = list(self.selected_features)
        if self.fragmented is not None:
            doc["fragmented_auc"] = {
                "successful": self.fragmented.successful,
                "unsuccessful": self.fragmented.unsuccessful,
                "errors": self.fragmented.errors,
            }
        return doc


def _fit(X, y, names, train_config: TrainConfig, use_rfe: bool):
    if use_rfe:
        selected, model, _ = rfe(X, y, train_config, feature_names=names)
        keep = [i for i, n in enumerate(names) if n in selected]
        return model, selected, keep
    return train(X, y, train_config, names), None, list(range(len(names)))


def _split_boundary(train_samples, corpus: Corpus) -> int:
    anchors = {s.parent_id for s in train_samples}
    return max(corpus.account(a).creation_time for a in anchors) if anchors else -1


def _evaluate_samples(
    task: Task,
    samples,
    corpus: Corpus,
    digests: Digests | None,
    train_config: TrainConfig,
    split: SplitSpec,
    use_rfe: bool,
    k_edits: int = DEFAULT_K_EDITS,
    success_flags_for=None,
) -> tuple[TaskResult, LogisticModel]:
    label = f"task{task.number}_{task.name}"
    digests = Digests.over(corpus, digests)
    feature_config = task.feature_config(digests.config, k_edits)
    train_s, test_s = temporal_split(samples, corpus, split)
    if not train_s or not test_s:
        raise EmptyInputError(f"{label} split left an empty side")
    train_s, test_s = dedupe_negatives(train_s, test_s)
    _assert_no_leakage(train_s, test_s)

    train_ordered, names, X_train, y_train = _sample_matrix(
        task, train_s, digests, feature_config
    )
    test_ordered, _, X_test, y_test = _sample_matrix(task, test_s, digests, feature_config)

    model, selected, keep = _fit(X_train, y_train, names, train_config, use_rfe)
    scores = model.predict_proba_matrix(X_test[:, keep], model.feature_names)
    auc = roc_auc(scores, y_test)

    fragmented = None
    if success_flags_for is not None:
        flags = success_flags_for([s for s in test_ordered if s.label == POSITIVE])
        fragmented = fragmented_auc(scores, y_test, flags)

    result = TaskResult(
        task=label,
        auc=auc,
        n_train=len(train_ordered),
        n_test=len(test_ordered),
        n_train_pos=int(y_train.sum()),
        n_test_pos=int(y_test.sum()),
        split_boundary=_split_boundary(train_ordered, corpus),
        selected_features=selected,
        fragmented=fragmented,
    )
    return result, model


def run_task1(
    corpus: Corpus,
    groups: Sequence[SockpuppetGroup],
    pairs: Sequence[EvasionPair],
    window_seconds: int = TASKS["1"].window_seconds,
    digests: Digests | None = None,
    train_config: TrainConfig = TrainConfig(),
    split: SplitSpec = SplitSpec(TASKS["1"].train_fraction),
    use_rfe: bool = False,
):
    """Evasion prediction: parents vs. matched non-evading malicious."""
    task = TASKS["1"]
    return _evaluate_samples(
        task, task.match(corpus, groups, pairs, window_seconds), corpus, digests,
        train_config, split, use_rfe,
    )


def run_task2(
    corpus: Corpus,
    pairs: Sequence[EvasionPair],
    window_seconds: int = TASKS["2"].window_seconds,
    cap: int = DEFAULT_TASK2_CAP,
    seed: int = 0,
    k_edits: int = DEFAULT_K_EDITS,
    digests: Digests | None = None,
    train_config: TrainConfig = TrainConfig(),
    split: SplitSpec = SplitSpec(TASKS["2"].train_fraction),
    use_rfe: bool = False,
):
    """Early detection with only the other account's first k edits."""
    task = TASKS["2"]
    return _evaluate_samples(
        task, task.match(corpus, (), pairs, window_seconds, cap, seed), corpus, digests,
        train_config, split, use_rfe, k_edits,
    )


def run_task3(
    corpus: Corpus,
    groups: Sequence[SockpuppetGroup],
    pairs: Sequence[EvasionPair],
    window_seconds: int = TASKS["3"].window_seconds,
    digests: Digests | None = None,
    train_config: TrainConfig = TrainConfig(),
    split: SplitSpec = SplitSpec(TASKS["3"].train_fraction),
    use_rfe: bool = False,
):
    """Ban-time detection with the fragmented (success-split) evaluation."""
    task = TASKS["3"]
    pair_by_key = {(p.parent_id, p.child_id): p for p in pairs}

    def success_flags(test_positives):
        test_pairs = [pair_by_key[(s.parent_id, s.other_id)] for s in test_positives]
        verdicts = classify_success(test_pairs, corpus)
        return [
            verdicts[(p.parent_id, p.child_id)] == "successful" for p in test_pairs
        ]

    return _evaluate_samples(
        task, task.match(corpus, groups, pairs, window_seconds), corpus, digests,
        train_config, split, use_rfe, success_flags_for=success_flags,
    )


# ---------------------------------------------------------------------------
# ranking


@dataclass(frozen=True)
class RankedList:
    child_id: str
    ranked_candidate_ids: tuple[str, ...]
    rank_of_true_parent: int


def rank_candidates(
    model: LogisticModel, candidate_set: CandidateSet, digests: Digests
) -> RankedList:
    """Score every (candidate, child) pair and rank by descending score."""
    names, X = _vector_matrix(
        pair_vectors(digests, _candidate_keys([candidate_set]), digests.config)
    )
    scored = sorted(
        zip(model.predict_proba_matrix(X, names).tolist(), candidate_set.candidate_parent_ids),
        key=lambda item: (-item[0], item[1]),
    )
    ranked_ids = tuple(candidate_id for _, candidate_id in scored)
    rank = ranked_ids.index(candidate_set.true_parent_id) + 1
    return RankedList(candidate_set.child_id, ranked_ids, rank)


def _candidate_keys(candidate_sets: Sequence[CandidateSet]) -> list[tuple[str, str]]:
    return [(c, cs.child_id) for cs in candidate_sets for c in cs.candidate_parent_ids]


@dataclass(frozen=True)
class RankingResult:
    mrr: float
    recall_at: dict[int, float]
    n_train_children: int
    n_test_children: int
    mean_candidates: float

    def to_dict(self) -> dict:
        return {
            "mrr": self.mrr,
            "recall_at": {str(k): v for k, v in sorted(self.recall_at.items())},
            "n_train_children": self.n_train_children,
            "n_test_children": self.n_test_children,
            "mean_candidates": self.mean_candidates,
        }


def run_ranking(
    corpus: Corpus,
    pairs: Sequence[EvasionPair],
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    digests: Digests | None = None,
    train_config: TrainConfig = TrainConfig(),
    split: SplitSpec = SplitSpec(TASKS["3"].train_fraction),
    recall_ks: Sequence[int] = (1, 3, 5),
) -> tuple[RankingResult, LogisticModel]:
    """Parent attribution: rank candidate parents for each test child."""
    digests = Digests.over(corpus, digests)
    if not pairs:
        raise EmptyInputError("run_ranking needs pairs")

    ordered_pairs = sorted(
        pairs,
        key=lambda p: (corpus.account(p.parent_id).creation_time, p.parent_id),
    )
    n_train = int(len(ordered_pairs) * split.train_fraction)
    train_pairs, test_pairs = ordered_pairs[:n_train], ordered_pairs[n_train:]
    if not train_pairs or not test_pairs:
        raise EmptyInputError("ranking split left an empty side")

    # a parent named by several pairs is one candidate
    parent_ids = dict.fromkeys(p.parent_id for p in ordered_pairs)
    parents = [corpus.account(parent_id) for parent_id in parent_ids]
    children_train = [corpus.account(p.child_id) for p in train_pairs]
    children_test = [corpus.account(p.child_id) for p in test_pairs]

    train_sets = build_candidate_sets(children_train, parents, ordered_pairs, max_candidates)
    test_sets = build_candidate_sets(children_test, parents, ordered_pairs, max_candidates)

    y = np.array(
        [int(c == cs.true_parent_id) for cs in train_sets for c in cs.candidate_parent_ids]
    )
    names, X = _vector_matrix(pair_vectors(digests, _candidate_keys(train_sets), digests.config))
    model = train(X, y, train_config, names)
    ranks = [rank_candidates(model, cs, digests).rank_of_true_parent for cs in test_sets]
    all_sets = train_sets + test_sets
    result = RankingResult(
        mrr=mrr(ranks),
        recall_at={k: recall_at_k(ranks, k) for k in recall_ks},
        n_train_children=len(train_sets),
        n_test_children=len(test_sets),
        mean_candidates=sum(len(s.candidate_parent_ids) for s in all_sets) / len(all_sets),
    )
    return result, model


# ---------------------------------------------------------------------------
# report emission


def write_report(report: dict, json_path: str | Path, text_path: str | Path) -> None:
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(render_report_text(report))


def render_report_text(report: dict) -> str:
    lines = ["evaluation report", "=" * 17, ""]
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            lines.append(f"{key}:")
            for sub in sorted(value):
                lines.append(f"  {sub}: {_fmt(value[sub])}")
        else:
            lines.append(f"{key}: {_fmt(value)}")
    lines.append("")
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, dict):
        inner = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(value.items()))
        return "{" + inner + "}"
    return str(value)
