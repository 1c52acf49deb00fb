from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banevasion import evaluation as evaluation_mod
from banevasion import features as features_mod
from banevasion._metrics import _average_ranks
from banevasion.analysis import characterize
from banevasion.corpus import SynthConfig, generate_synthetic
from banevasion.errors import EmptyInputError, InvalidConfigError, SingleClassInputError
from banevasion.evaluation import (
    dedupe_negatives,
    fragmented_auc,
    mrr,
    recall_at_k,
    roc_auc,
    run_ranking,
    run_task,
    temporal_split,
)
from banevasion.features import Digests, pair_vectors
from banevasion.matching import (
    DEFAULT_MAX_CANDIDATES,
    LabeledSample,
    NEGATIVE,
    POSITIVE,
    TASK1,
    TASKS,
    build_candidate_sets,
)
from banevasion.model import LogisticModel, TrainConfig
from banevasion.pairing import (
    EvasionPair,
    extract_evasion_pairs,
    first_pair_per_group,
    merge_groups,
)

from conftest import account, corpus_of


def auc_brute_force(scores, labels):
    positives = [s for s, l in zip(scores, labels) if l == 1]
    negatives = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in positives:
        for n in negatives:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(positives) * len(negatives))


def average_ranks_loop(values):
    """Reference: walk the stable sort and give each tie run its mean rank."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=float)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestAverageRanks:
    def test_equals_loop_on_tie_heavy_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            levels = int(rng.integers(1, 8))
            values = rng.integers(0, levels, size=n) / levels - 0.5
            assert np.array_equal(_average_ranks(values), average_ranks_loop(values))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_tied_is_half(self):
        assert roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassInputError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_matches_brute_force_with_ties(self):
        rng = random.Random(123)
        for _ in range(100):
            n = rng.randint(4, 20)
            labels = [rng.randint(0, 1) for _ in range(n)]
            if sum(labels) in (0, n):
                labels[0] = 1 - labels[0]
            # coarse grid forces frequent ties
            scores = [rng.randint(0, 5) / 5.0 for _ in range(n)]
            assert abs(roc_auc(scores, labels) - auc_brute_force(scores, labels)) < 1e-12

    def test_negated_scores_complement(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(4, 15)
            labels = [rng.randint(0, 1) for _ in range(n)]
            if sum(labels) in (0, n):
                labels[0] = 1 - labels[0]
            scores = [rng.randint(0, 4) / 4.0 for _ in range(n)]
            a = roc_auc(scores, labels)
            b = roc_auc([-s for s in scores], labels)
            # exact in rational arithmetic; float division may cost 1 ulp
            assert abs(a + b - 1.0) < 1e-12

    @given(
        st.lists(st.integers(-500, 500).map(lambda v: v / 100.0), min_size=4, max_size=20),
        st.data(),
    )
    @settings(max_examples=200)
    def test_monotone_transform_invariance(self, scores, data):
        labels = data.draw(
            st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores))
        )
        if sum(labels) in (0, len(labels)):
            labels = labels[:]
            labels[0] = 1 - labels[0]
        transformed = [3.0 * s + 1.0 for s in scores]
        assert roc_auc(transformed, labels) == pytest.approx(
            roc_auc(scores, labels), abs=1e-12
        )
        exp_scaled = [float(np.exp(0.5 * s)) for s in scores]
        assert roc_auc(exp_scaled, labels) == pytest.approx(
            roc_auc(scores, labels), abs=1e-9
        )


class TestMrrRecall:
    def test_all_rank_one(self):
        assert mrr([1, 1, 1]) == 1.0

    def test_mixed_ranks(self):
        assert mrr([1, 2]) == pytest.approx(0.75)
        assert mrr([1, 1, 4]) == pytest.approx(0.75)

    def test_recall_examples(self):
        assert recall_at_k([1, 2, 6], 5) == pytest.approx(2 / 3)
        assert recall_at_k([1, 2, 6], 6) == 1.0
        assert recall_at_k([1, 2, 6], 1) == pytest.approx(1 / 3)

    def test_direct_recomputation(self):
        rng = random.Random(5)
        ranks = [rng.randint(1, 10) for _ in range(50)]
        assert mrr(ranks) == pytest.approx(sum(1 / r for r in ranks) / len(ranks))
        for k in (1, 3, 5):
            expected = sum(1 for r in ranks if r <= k) / len(ranks)
            assert recall_at_k(ranks, k) == pytest.approx(expected)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            mrr([])
        with pytest.raises(EmptyInputError):
            recall_at_k([], 3)


class TestFragmentedAuc:
    def test_perfect_scores(self):
        scores = [0.9, 0.8, 0.1, 0.2]
        labels = [1, 1, 0, 0]
        result = fragmented_auc(scores, labels, [True, False])
        assert result["successful"] == 1.0
        assert result["unsuccessful"] == 1.0
        assert result["errors"] == {}

    def test_empty_fragment_reports_error(self):
        scores = [0.9, 0.1]
        labels = [1, 0]
        result = fragmented_auc(scores, labels, [True])
        assert result["successful"] == 1.0
        assert result["unsuccessful"] is None
        assert "unsuccessful" in result["errors"]


def split_fixture(n_parents, negatives_per=1):
    accounts = []
    samples = []
    for i in range(n_parents):
        pid = f"p{i:02d}"
        accounts.append(account(pid, creation=1000 + i, ban=5000 + i))
        samples.append(LabeledSample(pid, pid, POSITIVE, TASK1))
        for j in range(negatives_per):
            nid = f"n{i:02d}_{j}"
            accounts.append(account(nid, creation=10, ban=5100))
            samples.append(LabeledSample(pid, nid, NEGATIVE, TASK1))
    return corpus_of(accounts), samples


class TestTemporalSplit:
    def test_eighty_twenty(self):
        corpus, samples = split_fixture(10)
        train, test = temporal_split(samples, corpus, 0.8)
        train_pos = [s for s in train if s.label == POSITIVE]
        assert len(train_pos) == 8
        assert {s.parent_id for s in train_pos} == {f"p{i:02d}" for i in range(8)}

    def test_ninety_ten(self):
        corpus, samples = split_fixture(10)
        train, test = temporal_split(samples, corpus, 0.9)
        assert sum(1 for s in train if s.label == POSITIVE) == 9
        assert sum(1 for s in test if s.label == POSITIVE) == 1

    def test_negatives_follow_anchor(self):
        corpus, samples = split_fixture(5, negatives_per=3)
        train, test = temporal_split(samples, corpus, 0.8)
        for subset in (train, test):
            anchors = {s.parent_id for s in subset if s.label == POSITIVE}
            for s in subset:
                assert s.parent_id in anchors

    def test_equal_creation_tie_breaks_by_id(self):
        accounts = [account("pb", 100, ban=200), account("pa", 100, ban=200)]
        samples = [
            LabeledSample("pb", "pb", POSITIVE, TASK1),
            LabeledSample("pa", "pa", POSITIVE, TASK1),
        ]
        corpus = corpus_of(accounts)
        train, test = temporal_split(samples, corpus, 0.5)
        assert [s.other_id for s in train if s.label == POSITIVE] == ["pa"]
        assert [s.other_id for s in test] == ["pb"]

    def test_empty_rejected(self):
        corpus = corpus_of([])
        with pytest.raises(EmptyInputError):
            temporal_split([], corpus, 0.8)


class TestDedupeNegatives:
    def test_overlap_removed_from_train_only(self):
        train = [
            LabeledSample("p1", "p1", POSITIVE, TASK1),
            LabeledSample("p1", "dup", NEGATIVE, TASK1),
            LabeledSample("p1", "keep", NEGATIVE, TASK1),
        ]
        test = [
            LabeledSample("p2", "p2", POSITIVE, TASK1),
            LabeledSample("p2", "dup", NEGATIVE, TASK1),
        ]
        assert [s.other_id for s in dedupe_negatives(train, test)] == ["p1", "keep"]

    def test_no_overlap_is_identity(self):
        train = [LabeledSample("p1", "a", NEGATIVE, TASK1)]
        test = [LabeledSample("p2", "b", NEGATIVE, TASK1)]
        assert dedupe_negatives(train, test) == train

    def test_pair_samples_use_other_id(self):
        train = [
            LabeledSample("p1", "c1", POSITIVE, "t"),
            LabeledSample("p1", "dup", NEGATIVE, "t"),
        ]
        test = [LabeledSample("p2", "dup", NEGATIVE, "t")]
        assert [s.other_id for s in dedupe_negatives(train, test)] == ["c1"]

    def test_positives_untouched(self):
        train = [LabeledSample("p1", "x", POSITIVE, "t")]
        test = [LabeledSample("p2", "x", NEGATIVE, "t")]
        assert dedupe_negatives(train, test) == train

    def test_exhaustive_disjointness_on_stress_set(self):
        rng = random.Random(17)
        ids = [f"m{i}" for i in range(30)]
        train = [LabeledSample("p1", rng.choice(ids), NEGATIVE, TASK1) for _ in range(60)]
        test = [LabeledSample("p2", rng.choice(ids), NEGATIVE, TASK1) for _ in range(60)]
        train_ids = {s.other_id for s in dedupe_negatives(train, test) if s.label == NEGATIVE}
        test_ids = {s.other_id for s in test if s.label == NEGATIVE}
        assert train_ids & test_ids == set()


def zero_model(names):
    d = len(names)
    return LogisticModel(tuple(names), np.zeros(d), 0.0, np.zeros(d), np.ones(d), TrainConfig())


class TestRankCandidates:
    """The ranking under a model that scores every candidate alike; "true" is
    the latest-created parent, so its child "child" is the one test child."""

    def rank(self, monkeypatch, pairs, train_fraction):
        accounts = [
            account("d1", 0, ban=800),
            account("d2", 1, ban=700),
            account("p-old", 2, ban=4000),
            account("true", 10, ban=900),
            account("child", 1000),
            *(account(f"{p}-child", 5000) for p in ("d1", "d2", "p-old")),
        ]
        monkeypatch.setattr(
            evaluation_mod, "train", lambda X, y, config, names: zero_model(names)
        )
        result, _ = run_ranking(Digests(corpus_of(accounts)), pairs, train_fraction=train_fraction)
        assert result["n_test_children"] == 1
        return result

    def test_single_candidate(self, monkeypatch):
        # only "true" was banned before the child's creation
        pairs = [EvasionPair("p-old", "p-old-child"), EvasionPair("true", "child")]
        assert self.rank(monkeypatch, pairs, 0.5)["mrr"] == 1.0

    def test_identical_vectors_tie_break_by_id(self, monkeypatch):
        pairs = [EvasionPair(p, f"{p}-child") for p in ("d1", "d2", "p-old")]
        result = self.rank(monkeypatch, [*pairs, EvasionPair("true", "child")], 0.75)
        # all scores are 0.5 -> the child's candidates sorted by id: d1, d2, true
        assert result["mrr"] == 1 / 3
        assert result["recall_at"] == {"1": 0.0, "3": 1.0, "5": 1.0}


@pytest.fixture(scope="module")
def planted():
    result = generate_synthetic(
        SynthConfig(
            n_groups=40, n_benign=400, n_nonevading_malicious=200,
            page_overlap=0.8, vocab_reuse=0.8, seed=404,
        )
    )
    corpus = result.corpus
    pairs = first_pair_per_group(extract_evasion_pairs(merge_groups(corpus), corpus), corpus)
    return corpus, pairs


class TestHarnesses:
    def test_task1_detects_planted_signal(self, planted):
        corpus, pairs = planted
        task = TASKS["1"]
        samples = list(task.match(corpus, pairs, task.window_seconds))
        result, model = run_task(task, samples, Digests(corpus))
        assert result["auc"] > 0.9
        assert result["n_test_pos"] > 0
        assert result["task"] == "task1_prediction"

    def test_task2_detects_planted_signal(self, planted):
        corpus, pairs = planted
        task = TASKS["2"]
        samples = list(task.match(corpus, pairs, task.window_seconds))
        result, model = run_task(task, samples, Digests(corpus))
        assert result["auc"] > 0.9
        assert "child_duration_seconds" not in model.feature_names

    def test_task3_with_fragments(self, planted):
        corpus, pairs = planted
        task = TASKS["3"]
        samples = list(task.match(corpus, pairs, task.window_seconds))
        result, model = run_task(task, samples, Digests(corpus))
        assert result["auc"] > 0.9
        assert "child_duration_seconds" in model.feature_names
        assert "fragmented_auc" in result
        values = [result["fragmented_auc"]["successful"], result["fragmented_auc"]["unsuccessful"]]
        assert any(v is not None and v > 0.8 for v in values)

    def test_ranking_attribution(self, planted):
        corpus, pairs = planted
        result, _ = run_ranking(Digests(corpus), pairs)
        assert result["mrr"] > 0.9
        assert result["recall_at"]["5"] == 1.0
        assert result["n_test_children"] >= 1

    def test_rfe_path_runs(self, planted):
        corpus, pairs = planted
        task = TASKS["1"]
        samples = list(task.match(corpus, pairs, task.window_seconds))
        result, model = run_task(task, samples, Digests(corpus), use_rfe=True)
        assert result["selected_features"] is not None
        assert set(model.feature_names) == set(result["selected_features"])
        assert result["auc"] > 0.8


def run_all_consumers(corpus, pairs, digests=None) -> list[str]:
    """The three task harnesses, the ranking and the characterization, each
    result as sorted JSON."""
    def store():
        return Digests(corpus) if digests is None else digests

    samples = {n: list(t.match(corpus, pairs, t.window_seconds)) for n, t in TASKS.items()}
    results = [
        run_task(TASKS["1"], samples["1"], store())[0],
        run_task(TASKS["2"], samples["2"], store())[0],
        run_task(TASKS["3"], samples["3"], store())[0],
        run_ranking(store(), pairs)[0],
        characterize(store(), pairs, samples["1"], samples["3"]),
    ]
    return [json.dumps(r, sort_keys=True) for r in results]


class TestDigestStore:
    def test_one_build_per_key_across_consumers(self, planted, monkeypatch):
        corpus, pairs = planted
        separate = run_all_consumers(corpus, pairs)
        built = Counter()
        real = features_mod.account_digest

        def counting(account, revisions, config):
            built[(account.account_id, len(revisions))] += 1
            return real(account, revisions, config)

        monkeypatch.setattr(features_mod, "account_digest", counting)
        digests = Digests(corpus)
        assert run_all_consumers(corpus, pairs, digests) == separate
        assert built and set(built.values()) == {1}
        # the task-2 other sides are truncated to their first k edits
        assert any(
            n < len(corpus.revisions_of(account_id)) for account_id, n in built
        )
        calls = sum(built.values())
        run_all_consumers(corpus, pairs, digests)
        assert sum(built.values()) == calls


def ranks_rescored_child_by_child(digests, pairs, model):
    """The rank of each test child's true parent, its candidates scored apart
    from every other child's: the ranking's oracle."""
    corpus = digests.corpus
    parent_ids = sorted(
        {p.parent_id for p in pairs}, key=lambda a: (corpus.account(a).creation_time, a)
    )
    test_parents = set(parent_ids[int(len(parent_ids) * TASKS["3"].train_fraction):])
    ranks = []
    for cs in build_candidate_sets(pairs, corpus, DEFAULT_MAX_CANDIDATES):
        if cs.true_parent_id in test_parents:
            names, X = pair_vectors(digests, [(c, cs.child_id) for c in cs.candidate_parent_ids])
            scores = model.predict_proba_matrix(X, names)
            true_score = scores[cs.candidate_parent_ids.index(cs.true_parent_id)]
            ranks.append(1 + sum(
                score > true_score or (score == true_score and c < cs.true_parent_id)
                for score, c in zip(scores, cs.candidate_parent_ids)
            ))
    return ranks


NULL_KNOBS = SynthConfig(
    n_groups=60, n_benign=300, n_nonevading_malicious=200, username_mutation_rate=0.0,
    page_overlap=0.0, vocab_reuse=0.0, idle_gap_days=16.0, activity_contrast=0.0,
    malicious_text_rate=0.0, seed=7,
)


@pytest.mark.parametrize("knobs", ["planted", "null"])
def test_ranking_equals_child_by_child_rescoring(planted, knobs):
    if knobs == "planted":
        corpus, pairs = planted
    else:
        corpus = generate_synthetic(NULL_KNOBS).corpus
        pairs = first_pair_per_group(
            extract_evasion_pairs(merge_groups(corpus), corpus), corpus
        )
    digests = Digests(corpus)
    result, model = run_ranking(digests, pairs)
    ranks = ranks_rescored_child_by_child(digests, pairs, model)
    assert len(ranks) == result["n_test_children"]
    assert result["mrr"] == mrr(ranks)
    assert result["recall_at"] == {k: recall_at_k(ranks, int(k)) for k in result["recall_at"]}
    if knobs == "null":
        # below 1, so the oracle compares ranks that are not all 1
        assert result["mrr"] < 0.9


def test_ranking_builds_its_sets_and_rows_once(planted, monkeypatch):
    corpus, pairs = planted
    calls = Counter()

    def counting(name):
        real = getattr(evaluation_mod, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in ("build_candidate_sets", "pair_vectors"):
        monkeypatch.setattr(evaluation_mod, name, counting(name))
    run_ranking(Digests(corpus), pairs)
    assert calls == {"build_candidate_sets": 1, "pair_vectors": 1}


def with_repeated_parent(corpus, pairs, index=0):
    """``pairs`` plus a second pair for the parent of ``pairs[index]``, whose
    child is an account created after that parent's ban and named by no pair."""
    parent_id, group_id = pairs[index].parent_id, pairs[index].group_id
    named = {i for p in pairs for i in (p.parent_id, p.child_id)}
    ban = corpus.account(parent_id).ban_time
    child_id = next(
        a.account_id for a in corpus.accounts
        if a.creation_time > ban and a.account_id not in named
    )
    return [*pairs, EvasionPair(parent_id, child_id, group_id)]


class TestRepeatedParent:
    def test_task1_anchors_it_once(self, planted):
        corpus, pairs = planted
        task = TASKS["1"]
        assert list(task.match(
            corpus, with_repeated_parent(corpus, pairs), task.window_seconds
        )) == list(task.match(corpus, pairs, task.window_seconds))

    def test_ranking_lists_it_once(self, planted):
        corpus, pairs = planted
        repeated = with_repeated_parent(corpus, pairs)
        sets = build_candidate_sets(repeated, corpus, DEFAULT_MAX_CANDIDATES)
        assert len(sets) == len(repeated)
        assert set().union(*(cs.candidate_parent_ids for cs in sets)) <= {
            p.parent_id for p in pairs
        }
        for cs in sets:
            assert len(cs.candidate_parent_ids) == len(set(cs.candidate_parent_ids))
        result, _ = run_ranking(Digests(corpus), repeated)
        sizes = [len(cs.candidate_parent_ids) for cs in sets]
        assert result["mean_candidates"] == sum(sizes) / len(sizes)

    def test_ranking_keeps_its_children_on_one_side(self, planted):
        corpus, pairs = planted
        by_creation = sorted(
            range(len(pairs)),
            key=lambda i: (corpus.account(pairs[i].parent_id).creation_time, pairs[i].parent_id),
        )
        # the latest train parent: its second child lands at the train/test cut
        n_train = int(len(pairs) * TASKS["3"].train_fraction)
        repeated = with_repeated_parent(corpus, pairs, by_creation[n_train - 1])
        result, _ = run_ranking(Digests(corpus), repeated)
        assert result["n_train_children"] == n_train + 1
        assert result["n_test_children"] == len(pairs) - n_train


def test_ranking_rejects_no_candidates_before_building_sets(planted, monkeypatch):
    corpus, pairs = planted

    def building(*args):
        raise AssertionError("candidate sets built for max_candidates=0")

    monkeypatch.setattr(evaluation_mod, "build_candidate_sets", building)
    with pytest.raises(InvalidConfigError) as err:
        run_ranking(Digests(corpus), pairs, max_candidates=0)
    assert err.value.field == "max_candidates"


@pytest.mark.parametrize("task", ["task1", "task2", "task3"])
def test_single_pair_split_error_names_task(task):
    result = generate_synthetic(
        SynthConfig(n_groups=6, n_benign=60, n_nonevading_malicious=30, seed=5)
    )
    corpus = result.corpus
    pairs = first_pair_per_group(extract_evasion_pairs(merge_groups(corpus), corpus), corpus)[:1]
    t = TASKS[task[-1]]
    samples = list(t.match(corpus, pairs, t.window_seconds))
    with pytest.raises(EmptyInputError, match=f"^{task}_"):
        run_task(t, samples, Digests(corpus))


def test_evaluation_does_not_load_analysis():
    """The fragmented AUC's success verdicts come from ``pairing``, not the report layer."""
    src = str(Path(evaluation_mod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = "import sys, banevasion.evaluation; assert 'banevasion.analysis' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
