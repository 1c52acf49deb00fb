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
One harness, ``run_task``, runs any task on samples its ``Task.match``
built. It and ``run_ranking`` read the corpus and every vector from the
run's ``features.Digests`` store, and each returns its report as the dict
that ``report.json`` holds.

Splits train on the earliest-created ``train_fraction`` of the positive
anchors, each negative following its anchor; the ranking splits its pairs'
parents by the same rule. Negatives on both sides of the split are removed
from train and kept in test, and the disjointness is re-asserted on every
run. ``temporal_order`` is the row order of every feature matrix.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from ._metrics import fragmented_auc, mrr, recall_at_k, roc_auc
from .corpus import Corpus, EvasionPair
from .errors import EmptyInputError, InvalidConfigError, LeakageError
from .features import Digests, pair_vectors, task_vectors
from .matching import (
    DEFAULT_K_EDITS,
    DEFAULT_MAX_CANDIDATES,
    LabeledSample,
    NEGATIVE,
    POSITIVE,
    TASKS,
    Task,
    build_candidate_sets,
    check_counts,
)
from .model import LogisticModel, TrainConfig, rfe, train
from .pairing import classify_success

__all__ = [
    "check_train_fraction",
    "temporal_split",
    "temporal_order",
    "dedupe_negatives",
    "sample_matrix",
    "roc_auc",
    "mrr",
    "recall_at_k",
    "fragmented_auc",
    "run_task",
    "run_ranking",
    "write_report",
    "render_report_text",
]

def check_train_fraction(train_fraction: float) -> None:
    """Raise ``InvalidConfigError`` unless ``train_fraction`` is in (0, 1)."""
    if not 0.0 < train_fraction < 1.0:
        raise InvalidConfigError("train_fraction", "must be in (0, 1)")


def _split_by_parent(items: Sequence, parent_ids, corpus: Corpus, train_fraction: float):
    """Order the distinct ``parent_ids`` by (creation time, id), train on the
    earliest ``train_fraction`` of them, and send each item to its
    ``parent_id``'s side. Returns (ordered parent ids, train, test)."""
    check_train_fraction(train_fraction)
    ordered = sorted(set(parent_ids), key=lambda a: (corpus.account(a).creation_time, a))
    train_parents = set(ordered[: int(len(ordered) * train_fraction)])
    train = [x for x in items if x.parent_id in train_parents]
    return ordered, train, [x for x in items if x.parent_id not in train_parents]


def temporal_split(samples: Sequence, corpus: Corpus, train_fraction: float):
    """Assign the earliest-created anchors (and their negatives) to train."""
    if not samples:
        raise EmptyInputError("temporal_split needs samples")
    anchors, train, test = _split_by_parent(
        samples, (s.parent_id for s in samples if s.label == POSITIVE), corpus, train_fraction
    )
    if not anchors:
        raise EmptyInputError("temporal_split needs at least one positive")
    return train, test


def temporal_order(samples: Sequence, corpus: Corpus) -> list:
    """``samples`` by anchor creation time and id, positive first, then by other id."""
    def key(s):
        return corpus.account(s.parent_id).creation_time, s.parent_id, -s.label, s.other_id
    return sorted(samples, key=key)


def dedupe_negatives(train: Sequence, test: Sequence) -> list:
    """``train`` without the negatives whose member id is also a negative of
    ``test``; the test side keeps them."""
    test_neg = {s.other_id for s in test if s.label == NEGATIVE}
    return [s for s in train if s.label == POSITIVE or s.other_id not in test_neg]


def _assert_no_leakage(train: Sequence, test: Sequence) -> None:
    train_neg = {s.other_id for s in train if s.label == NEGATIVE}
    test_neg = {s.other_id for s in test if s.label == NEGATIVE}
    overlap = train_neg & test_neg
    if overlap:
        raise LeakageError(f"negative leakage across split: {sorted(overlap)[:5]}")


def sample_matrix(task: Task, samples, digests: Digests, k_edits: int = DEFAULT_K_EDITS):
    """``(ordered samples, names, X, labels)``: ``task``'s rows of ``samples``
    in ``temporal_order``, the order ``run_task`` fits them in."""
    ordered = temporal_order(samples, digests.corpus)
    names, X = task_vectors(task, ordered, digests, k_edits)
    y = np.array([s.label for s in ordered], dtype=int)
    return ordered, names, X, y


def run_task(
    task: Task,
    samples: Sequence[LabeledSample],
    digests: Digests,
    train_config: TrainConfig = TrainConfig(),
    train_fraction: float | None = None,
    use_rfe: bool = False,
    k_edits: int = DEFAULT_K_EDITS,
) -> tuple[dict, LogisticModel]:
    """Train and test ``task`` on its matched ``samples``, split by time
    (``train_fraction`` defaults to the task's).

    Returns ``(report, model)``: the report holds the task's AUC and split
    counts, plus ``selected_features`` after RFE and, for a fragmented task,
    ``fragmented_auc`` over its test positives split by evasion success."""
    label = f"task{task.number}_{task.name}"
    corpus = digests.corpus
    if train_fraction is None:
        train_fraction = task.train_fraction
    train_s, test_s = temporal_split(samples, corpus, train_fraction)
    if not train_s or not test_s:
        raise EmptyInputError(f"{label} split left an empty side")
    train_s = dedupe_negatives(train_s, test_s)
    _assert_no_leakage(train_s, test_s)

    train_ordered, names, X_train, y_train = sample_matrix(task, train_s, digests, k_edits)
    test_ordered, _, X_test, y_test = sample_matrix(task, test_s, digests, k_edits)

    if use_rfe:
        model, _ = rfe(X_train, y_train, train_config, feature_names=names)
        optional = {"selected_features": list(model.feature_names)}
    else:
        model, optional = train(X_train, y_train, train_config, names), {}
    keep = [names.index(name) for name in model.feature_names]
    scores = model.predict_proba_matrix(X_test[:, keep], model.feature_names)
    if task.fragmented:
        test_pairs = [
            EvasionPair(s.parent_id, s.other_id) for s in test_ordered if s.label == POSITIVE
        ]
        optional["fragmented_auc"] = fragmented_auc(
            scores, y_test, classify_success(test_pairs, corpus)
        )

    report = {
        "task": label,
        "auc": roc_auc(scores, y_test),
        "n_train": len(train_ordered),
        "n_test": len(test_ordered),
        "n_train_pos": int(y_train.sum()),
        "n_test_pos": int(y_test.sum()),
        # the rows are in temporal order, so the last one's anchor is the latest
        "split_boundary": corpus.account(train_ordered[-1].parent_id).creation_time,
        **optional,
    }
    return report, model


# ---------------------------------------------------------------------------
# ranking


RECALL_KS = (1, 3, 5)


def run_ranking(
    digests: Digests,
    pairs: Sequence[EvasionPair],
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    train_config: TrainConfig = TrainConfig(),
    train_fraction: float = TASKS["3"].train_fraction,
) -> tuple[dict, LogisticModel]:
    """Parent attribution: rank candidate parents for each test child by
    descending score, ties by candidate id, split by the creation time of
    the pairs' parents.

    Returns ``(report, model)``: the report holds the MRR, ``recall_at``
    keyed by the string of each K in ``RECALL_KS``, the child count of each
    side and the mean candidate-set size."""
    corpus = digests.corpus
    check_counts(max_candidates=max_candidates)
    if not pairs:
        raise EmptyInputError("run_ranking needs pairs")

    _, train_pairs, test_pairs = _split_by_parent(
        pairs, (p.parent_id for p in pairs), corpus, train_fraction
    )
    if not train_pairs or not test_pairs:
        raise EmptyInputError("ranking split left an empty side")

    # one matrix, every train row before every test row
    sets = build_candidate_sets(pairs, corpus, max_candidates)
    train_children = {p.child_id for p in train_pairs}
    train_sets = [cs for cs in sets if cs.child_id in train_children]
    test_sets = [cs for cs in sets if cs.child_id not in train_children]
    all_sets = train_sets + test_sets
    names, X = pair_vectors(
        digests, [(c, cs.child_id) for cs in all_sets for c in cs.candidate_parent_ids]
    )
    y = np.array(
        [int(c == cs.true_parent_id) for cs in train_sets for c in cs.candidate_parent_ids]
    )
    model = train(X[: y.size], y, train_config, names)
    scores = model.predict_proba_matrix(X[y.size :], names).tolist()
    ranks, end = [], 0
    for cs in test_sets:
        start, end = end, end + len(cs.candidate_parent_ids)
        ranked = sorted(zip((-score for score in scores[start:end]), cs.candidate_parent_ids))
        ranks.append([c for _, c in ranked].index(cs.true_parent_id) + 1)
    report = {
        "mrr": mrr(ranks),
        "recall_at": {str(k): recall_at_k(ranks, k) for k in RECALL_KS},
        "n_train_children": len(train_sets),
        "n_test_children": len(test_sets),
        "mean_candidates": sum(len(s.candidate_parent_ids) for s in all_sets) / len(all_sets),
    }
    return report, model


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
