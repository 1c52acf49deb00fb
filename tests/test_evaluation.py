from __future__ import annotations

import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banevasion import evaluation as evaluation_mod
from banevasion import features as features_mod
from banevasion._metrics import _average_ranks
from banevasion.analysis import characterize
from banevasion.corpus import SynthConfig, generate_synthetic
from banevasion.errors import EmptyInputError, SingleClassInputError
from banevasion.evaluation import (
    SplitSpec,
    dedupe_negatives,
    fragmented_auc,
    mrr,
    rank_candidates,
    recall_at_k,
    roc_auc,
    run_ranking,
    run_task,
    temporal_split,
)
from banevasion.features import Digests, FeatureConfig
from banevasion.matching import (
    CandidateSet,
    LabeledSample,
    NEGATIVE,
    POSITIVE,
    TASK1,
    TASKS,
)
from banevasion.model import LogisticModel, StandardizationStats, TrainConfig
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
        assert result.successful == 1.0
        assert result.unsuccessful == 1.0
        assert result.errors == {}

    def test_empty_fragment_reports_error(self):
        scores = [0.9, 0.1]
        labels = [1, 0]
        result = fragmented_auc(scores, labels, [True])
        assert result.successful == 1.0
        assert result.unsuccessful is None
        assert "unsuccessful" in result.errors


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
        train, test = temporal_split(samples, corpus, SplitSpec(0.8))
        train_pos = [s for s in train if s.label == POSITIVE]
        assert len(train_pos) == 8
        assert {s.parent_id for s in train_pos} == {f"p{i:02d}" for i in range(8)}

    def test_ninety_ten(self):
        corpus, samples = split_fixture(10)
        train, test = temporal_split(samples, corpus, SplitSpec(0.9))
        assert sum(1 for s in train if s.label == POSITIVE) == 9
        assert sum(1 for s in test if s.label == POSITIVE) == 1

    def test_negatives_follow_anchor(self):
        corpus, samples = split_fixture(5, negatives_per=3)
        train, test = temporal_split(samples, corpus, SplitSpec(0.8))
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
        train, test = temporal_split(samples, corpus, SplitSpec(0.5))
        assert [s.other_id for s in train if s.label == POSITIVE] == ["pa"]
        assert [s.other_id for s in test] == ["pb"]

    def test_empty_rejected(self):
        corpus = corpus_of([])
        with pytest.raises(EmptyInputError):
            temporal_split([], corpus, SplitSpec(0.8))


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
        train2, test2 = dedupe_negatives(train, test)
        assert [s.other_id for s in train2] == ["p1", "keep"]
        assert test2 == test

    def test_no_overlap_is_identity(self):
        train = [LabeledSample("p1", "a", NEGATIVE, TASK1)]
        test = [LabeledSample("p2", "b", NEGATIVE, TASK1)]
        train2, test2 = dedupe_negatives(train, test)
        assert train2 == train
        assert test2 == test

    def test_pair_samples_use_other_id(self):
        train = [
            LabeledSample("p1", "c1", POSITIVE, "t"),
            LabeledSample("p1", "dup", NEGATIVE, "t"),
        ]
        test = [LabeledSample("p2", "dup", NEGATIVE, "t")]
        train2, _ = dedupe_negatives(train, test)
        assert [s.other_id for s in train2] == ["c1"]

    def test_positives_untouched(self):
        train = [LabeledSample("p1", "x", POSITIVE, "t")]
        test = [LabeledSample("p2", "x", NEGATIVE, "t")]
        train2, test2 = dedupe_negatives(train, test)
        assert train2 == train

    def test_exhaustive_disjointness_on_stress_set(self):
        rng = random.Random(17)
        ids = [f"m{i}" for i in range(30)]
        train = [LabeledSample("p1", rng.choice(ids), NEGATIVE, TASK1) for _ in range(60)]
        test = [LabeledSample("p2", rng.choice(ids), NEGATIVE, TASK1) for _ in range(60)]
        train2, test2 = dedupe_negatives(train, test)
        train_ids = {s.other_id for s in train2 if s.label == NEGATIVE}
        test_ids = {s.other_id for s in test2 if s.label == NEGATIVE}
        assert train_ids & test_ids == set()
        assert test2 == test


def zero_model(names):
    d = len(names)
    return LogisticModel(
        tuple(names), np.zeros(d), 0.0,
        StandardizationStats(np.zeros(d), np.ones(d)), TrainConfig(),
    )


class TestRankCandidates:
    def make_corpus(self):
        accounts = [
            account("true", 0, ban=900),
            account("d1", 0, ban=800),
            account("d2", 0, ban=700),
            account("child", 1000, ban=5000),
        ]
        return corpus_of(accounts)

    def test_single_candidate(self):
        corpus = self.make_corpus()
        cand = CandidateSet("child", ("true",), "true")
        config = FeatureConfig()
        ranked = rank_candidates(zero_model(_pair_names(corpus, config)), cand, Digests(corpus, config))
        assert ranked.rank_of_true_parent == 1

    def test_identical_vectors_tie_break_by_id(self):
        corpus = self.make_corpus()
        config = FeatureConfig()
        names = _pair_names(corpus, config)
        cand = CandidateSet("child", ("true", "d1", "d2"), "true")
        ranked = rank_candidates(zero_model(names), cand, Digests(corpus, config))
        # all scores are 0.5 -> candidates sorted by id: d1, d2, true
        assert ranked.ranked_candidate_ids == ("d1", "d2", "true")
        assert ranked.rank_of_true_parent == 3


def _pair_names(corpus, config):
    from banevasion.features import pair_features

    parent = corpus.account("true")
    child = corpus.account("child")
    return pair_features(parent, (), child, (), config).names


@pytest.fixture(scope="module")
def planted():
    result = generate_synthetic(
        SynthConfig(
            n_groups=40, n_benign=400, n_nonevading_malicious=200,
            page_overlap=0.8, vocab_reuse=0.8, seed=404,
        )
    )
    corpus = result.corpus
    groups = merge_groups(corpus.sockpuppet_records, corpus)
    pairs = first_pair_per_group(extract_evasion_pairs(groups, corpus), corpus)
    return corpus, groups, pairs


class TestHarnesses:
    def test_task1_detects_planted_signal(self, planted):
        corpus, groups, pairs = planted
        task = TASKS["1"]
        samples = task.match(corpus, groups, pairs, task.window_seconds)
        result, model = run_task(task, samples, Digests(corpus))
        assert result.auc > 0.9
        assert result.n_test_pos > 0
        assert result.task == "task1_prediction"

    def test_task2_detects_planted_signal(self, planted):
        corpus, _, pairs = planted
        task = TASKS["2"]
        samples = task.match(corpus, (), pairs, task.window_seconds)
        result, model = run_task(task, samples, Digests(corpus))
        assert result.auc > 0.9
        assert "child_duration_seconds" not in model.feature_names

    def test_task3_with_fragments(self, planted):
        corpus, groups, pairs = planted
        task = TASKS["3"]
        samples = task.match(corpus, groups, pairs, task.window_seconds)
        result, model = run_task(task, samples, Digests(corpus))
        assert result.auc > 0.9
        assert "child_duration_seconds" in model.feature_names
        assert result.fragmented is not None
        values = [result.fragmented.successful, result.fragmented.unsuccessful]
        assert any(v is not None and v > 0.8 for v in values)

    def test_ranking_attribution(self, planted):
        corpus, _, pairs = planted
        result, _ = run_ranking(Digests(corpus), pairs)
        assert result.mrr > 0.9
        assert result.recall_at[5] == 1.0
        assert result.n_test_children >= 1

    def test_rfe_path_runs(self, planted):
        corpus, groups, pairs = planted
        task = TASKS["1"]
        samples = task.match(corpus, groups, pairs, task.window_seconds)
        result, model = run_task(task, samples, Digests(corpus), use_rfe=True)
        assert result.selected_features is not None
        assert set(model.feature_names) == set(result.selected_features)
        assert result.auc > 0.8


def run_all_consumers(corpus, groups, pairs, digests=None) -> list[str]:
    """The three task harnesses, the ranking and the characterization, each
    result as sorted JSON."""
    def store():
        return Digests(corpus) if digests is None else digests

    samples = {n: t.match(corpus, groups, pairs, t.window_seconds) for n, t in TASKS.items()}
    results = [
        run_task(TASKS["1"], samples["1"], store())[0].to_dict(),
        run_task(TASKS["2"], samples["2"], store())[0].to_dict(),
        run_task(TASKS["3"], samples["3"], store())[0].to_dict(),
        run_ranking(store(), pairs)[0].to_dict(),
        characterize(store(), pairs, samples["1"], samples["3"]),
    ]
    return [json.dumps(r, sort_keys=True) for r in results]


class TestDigestStore:
    def test_one_build_per_key_across_consumers(self, planted, monkeypatch):
        corpus, groups, pairs = planted
        separate = run_all_consumers(corpus, groups, pairs)
        built = Counter()
        real = features_mod.account_digest

        def counting(account, revisions, config):
            built[(account.account_id, len(revisions))] += 1
            return real(account, revisions, config)

        monkeypatch.setattr(features_mod, "account_digest", counting)
        digests = Digests(corpus)
        assert run_all_consumers(corpus, groups, pairs, digests) == separate
        assert built and set(built.values()) == {1}
        # the task-2 other sides are truncated to their first k edits
        assert any(
            n < len(corpus.revisions_of(account_id)) for account_id, n in built
        )
        calls = sum(built.values())
        run_all_consumers(corpus, groups, pairs, digests)
        assert sum(built.values()) == calls

    def test_ranking_scores_each_test_child_through_rank_candidates(
        self, planted, monkeypatch
    ):
        corpus, _, pairs = planted
        scored = []
        real = evaluation_mod.rank_candidates

        def recording(model, candidate_set, digests):
            scored.append(candidate_set.child_id)
            return real(model, candidate_set, digests)

        monkeypatch.setattr(evaluation_mod, "rank_candidates", recording)
        result, _ = run_ranking(Digests(corpus), pairs)
        assert len(scored) == len(set(scored)) == result.n_test_children


def with_repeated_parent(corpus, pairs):
    """``pairs`` plus a second pair for the first parent, whose child is an
    account created after that parent's ban and named by no pair."""
    parent_id = pairs[0].parent_id
    named = {i for p in pairs for i in (p.parent_id, p.child_id)}
    ban = corpus.account(parent_id).ban_time
    child_id = next(
        a.account_id for a in corpus.accounts
        if a.creation_time > ban and a.account_id not in named
    )
    return [*pairs, EvasionPair(parent_id, child_id, pairs[0].group_id)]


class TestRepeatedParent:
    def test_task1_anchors_it_once(self, planted):
        corpus, groups, pairs = planted
        task = TASKS["1"]
        assert task.match(
            corpus, groups, with_repeated_parent(corpus, pairs), task.window_seconds
        ) == task.match(corpus, groups, pairs, task.window_seconds)

    def test_ranking_lists_it_once(self, planted, monkeypatch):
        corpus, _, pairs = planted
        parent_lists, candidate_sets = [], []
        real = evaluation_mod.build_candidate_sets

        def recording(children, banned_parents, truth, max_candidates):
            parent_lists.append([a.account_id for a in banned_parents])
            sets = real(children, banned_parents, truth, max_candidates)
            candidate_sets.extend(sets)
            return sets

        monkeypatch.setattr(evaluation_mod, "build_candidate_sets", recording)
        run_ranking(Digests(corpus), with_repeated_parent(corpus, pairs))
        assert len(parent_lists) == 2
        assert all(len(ids) == len(set(ids)) == len(pairs) for ids in parent_lists)
        for cs in candidate_sets:
            assert len(cs.candidate_parent_ids) == len(set(cs.candidate_parent_ids))


@pytest.mark.parametrize("task", ["task1", "task2", "task3"])
def test_single_pair_split_error_names_task(task):
    result = generate_synthetic(
        SynthConfig(n_groups=6, n_benign=60, n_nonevading_malicious=30, seed=5)
    )
    corpus = result.corpus
    groups = merge_groups(corpus.sockpuppet_records, corpus)
    pairs = first_pair_per_group(extract_evasion_pairs(groups, corpus), corpus)[:1]
    t = TASKS[task[-1]]
    samples = t.match(corpus, groups, pairs, t.window_seconds)
    with pytest.raises(EmptyInputError, match=f"^{task}_"):
        run_task(t, samples, Digests(corpus))
