from __future__ import annotations

import pytest

from banevasion.corpus import DAY_SECONDS, WEEK_SECONDS
from banevasion.errors import (
    InvalidCapError,
    MissingBanTimeError,
    RecordParseError,
    TrueParentMissingError,
)
from banevasion.matching import (
    build_candidate_sets,
    match_task1,
    match_task2,
    match_task3,
    prepare_benign_pool,
    prepare_malicious_pool,
    read_samples,
    write_samples,
    NEGATIVE,
    POSITIVE,
)
from banevasion.pairing import EvasionPair, merge_groups

from conftest import account, corpus_of, record, revision

BAN = 1_000_000


class TestMatchTask1:
    def test_window_boundary_inclusive(self):
        parent = account("p", 0, ban=BAN)
        inside = account("m1", 0, ban=BAN + WEEK_SECONDS)
        outside = account("m2", 0, ban=BAN + WEEK_SECONDS + 1)
        samples = match_task1([parent], [inside, outside])
        negatives = [s.other_id for s in samples if s.label == NEGATIVE]
        assert negatives == ["m1"]

    def test_positive_emitted_per_parent(self):
        parent = account("p", 0, ban=BAN)
        samples = match_task1([parent], [])
        assert [(s.other_id, s.label, s.parent_id) for s in samples] == [
            ("p", POSITIVE, "p")
        ]

    def test_pool_account_without_ban_rejected(self):
        with pytest.raises(MissingBanTimeError):
            match_task1([account("p", 0, ban=BAN)], [account("m", 0)])

    def test_negatives_can_recur_across_parents(self):
        parents = [account("p1", 0, ban=BAN), account("p2", 0, ban=BAN + 100)]
        pool = [account("m", 0, ban=BAN + 50)]
        samples = match_task1(parents, pool)
        negatives = [(s.parent_id, s.other_id) for s in samples if s.label == NEGATIVE]
        assert negatives == [("p1", "m"), ("p2", "m")]

    def test_parent_in_pool_never_becomes_its_own_negative(self):
        parent = account("p", 0, ban=BAN)
        samples = match_task1([parent], [parent, account("m", 0, ban=BAN + 5)])
        rows = [(s.other_id, s.label) for s in samples]
        assert rows == [("p", POSITIVE), ("m", NEGATIVE)]

    def test_emitted_negatives_satisfy_window_predicate(self):
        import random as _random

        rng = _random.Random(6)
        parents = [account(f"p{i}", 0, ban=BAN + rng.randint(0, 50) * DAY_SECONDS) for i in range(5)]
        pool = [
            account(f"m{i}", 0, ban=BAN + rng.randint(-80, 120) * DAY_SECONDS)
            for i in range(40)
        ]
        for s in match_task1(parents, pool):
            if s.label == NEGATIVE:
                anchor = next(p for p in parents if p.account_id == s.parent_id)
                member = next(m for m in pool if m.account_id == s.other_id)
                assert abs(member.ban_time - anchor.ban_time) <= WEEK_SECONDS


def pair_fixture(n_benign=0, benign_offset=0, n_malicious=0, malicious_creation=None):
    parent = account("p", 0, ban=BAN)
    child = account("c", BAN + 5 * DAY_SECONDS, ban=BAN + 9 * DAY_SECONDS)
    accounts = [parent, child]
    revisions = [
        revision("p", "pg", 100, added="x"),
        revision("c", "pg", BAN + 5 * DAY_SECONDS + 10, added="x"),
    ]
    for i in range(n_benign):
        b = account(f"b{i:03d}", child.creation_time + benign_offset + i)
        accounts.append(b)
        revisions.append(revision(b.account_id, "pg", b.creation_time + 1, added="y"))
    for i in range(n_malicious):
        creation = malicious_creation if malicious_creation is not None else child.creation_time + i
        m = account(f"m{i:03d}", creation, ban=creation + 100)
        accounts.append(m)
        revisions.append(revision(m.account_id, "pg", creation + 1, added="z"))
    corpus = corpus_of(accounts, revisions, [record("p", "c")])
    pair = EvasionPair("p", "c", 0)
    return corpus, pair


class TestMatchTask2:
    def test_benign_at_parent_ban_excluded(self):
        parent = account("p", 0, ban=BAN)
        child = account("c", BAN + 10, ban=BAN + 1000)
        at_ban = account("b1", BAN)
        after = account("b2", BAN + 1)
        revisions = [
            revision("b1", "pg", BAN + 1, added="y"),
            revision("b2", "pg", BAN + 2, added="y"),
        ]
        corpus = corpus_of([parent, child, at_ban, after], revisions, [record("p", "c")])
        samples = match_task2([EvasionPair("p", "c", 0)], [at_ban, after], corpus)
        negatives = [s.other_id for s in samples if s.label == NEGATIVE]
        assert negatives == ["b2"]

    def test_cap_and_determinism(self):
        corpus, pair = pair_fixture(n_benign=150)
        pool = prepare_benign_pool(corpus)
        first = match_task2([pair], pool, corpus, cap=100, seed=11)
        second = match_task2([pair], pool, corpus, cap=100, seed=11)
        negatives = [s for s in first if s.label == NEGATIVE]
        assert len(negatives) == 100
        assert first == second
        shuffled = match_task2([pair], list(reversed(pool)), corpus, cap=100, seed=11)
        assert shuffled == first
        other_seed = match_task2([pair], pool, corpus, cap=100, seed=12)
        assert other_seed != first

    def test_invalid_cap(self):
        corpus, pair = pair_fixture()
        with pytest.raises(InvalidCapError):
            match_task2([pair], [], corpus, cap=0)

    def test_window_inclusive(self):
        corpus, pair = pair_fixture(n_benign=1, benign_offset=DAY_SECONDS)
        samples = match_task2([pair], prepare_benign_pool(corpus), corpus)
        assert sum(1 for s in samples if s.label == NEGATIVE) == 1

    def test_banned_account_rejected_from_pool(self):
        corpus, pair = pair_fixture()
        banned = account("bx", 100, ban=200)
        with pytest.raises(ValueError):
            match_task2([pair], [banned], corpus)


class TestMatchTask3:
    def test_created_before_parent_ban_excluded(self):
        corpus, pair = pair_fixture(n_malicious=1, malicious_creation=BAN - 100)
        pool = [a for a in corpus.accounts if a.account_id.startswith("m")]
        samples = match_task3([pair], pool, corpus)
        assert sum(1 for s in samples if s.label == NEGATIVE) == 0

    def test_boundary_exactly_seven_days_included(self):
        corpus, pair = pair_fixture(
            n_malicious=1,
            malicious_creation=BAN + 5 * DAY_SECONDS + WEEK_SECONDS,
        )
        pool = [a for a in corpus.accounts if a.account_id.startswith("m")]
        samples = match_task3([pair], pool, corpus)
        assert sum(1 for s in samples if s.label == NEGATIVE) == 1

    def test_positive_never_labeled_negative(self):
        corpus, pair = pair_fixture(n_malicious=5)
        pool = [a for a in corpus.accounts if a.account_id.startswith("m")]
        samples = match_task3([pair], pool, corpus)
        for s in samples:
            if s.label == NEGATIVE:
                assert (s.parent_id, s.other_id) != ("p", "c")

    def test_child_in_pool_never_becomes_negative(self):
        corpus, pair = pair_fixture(n_malicious=2)
        # adversarial pool that includes the true child itself
        pool = [a for a in corpus.accounts if a.account_id.startswith("m")]
        pool.append(corpus.account("c"))
        samples = match_task3([pair], pool, corpus)
        negatives = {s.other_id for s in samples if s.label == NEGATIVE}
        assert "c" not in negatives

    def test_emitted_negatives_satisfy_predicates(self):
        corpus, pair = pair_fixture(n_malicious=10)
        child = corpus.account("c")
        parent = corpus.account("p")
        pool = [a for a in corpus.accounts if a.account_id.startswith("m")]
        for s in match_task3([pair], pool, corpus):
            if s.label == NEGATIVE:
                m = corpus.account(s.other_id)
                assert m.creation_time > parent.ban_time
                assert abs(m.creation_time - child.creation_time) <= WEEK_SECONDS


class TestCandidateSets:
    def make_parents(self, n, child_creation):
        return [
            account(f"p{i:02d}", 0, ban=child_creation - 1 - i) for i in range(n)
        ]

    def test_all_eligible_included(self):
        child = account("c", 10_000)
        parents = self.make_parents(4, child.creation_time)
        truth = [EvasionPair(parents[3].account_id, "c", 0)]
        sets = build_candidate_sets([child], parents, truth, max_candidates=50)
        assert len(sets) == 1
        assert len(sets[0].candidate_parent_ids) == 4
        assert sets[0].true_parent_id == parents[3].account_id
        assert sets[0].true_parent_id in sets[0].candidate_parent_ids

    def test_recency_rule_at_cap(self):
        child = account("c", 100_000)
        parents = self.make_parents(81, child.creation_time)
        truth = [EvasionPair(parents[80].account_id, "c", 0)]
        sets = build_candidate_sets([child], parents, truth, max_candidates=50)
        ids = sets[0].candidate_parent_ids
        assert len(ids) == 51
        # distractors must be the 50 most recently banned (p00..p49)
        expected = {f"p{i:02d}" for i in range(50)} | {parents[80].account_id}
        assert set(ids) == expected

    def test_parent_banned_after_child_creation_excluded(self):
        child = account("c", 10_000)
        ok = account("p1", 0, ban=9_999)
        late = account("p2", 0, ban=10_000)
        truth = [EvasionPair("p1", "c", 0)]
        sets = build_candidate_sets([child], [ok, late], truth)
        assert sets[0].candidate_parent_ids == ("p1",)

    def test_missing_true_parent(self):
        child = account("c", 10_000)
        with pytest.raises(TrueParentMissingError):
            build_candidate_sets([child], self.make_parents(3, 10_000), [])


class TestPools:
    def test_malicious_pool_excludes_group_members(self):
        accounts = [
            account("p", 0, ban=100),
            account("c", 200, ban=300),
            account("m", 0, ban=50),
            account("b", 0),
        ]
        corpus = corpus_of(accounts, [], [record("p", "c")])
        groups = merge_groups(corpus.sockpuppet_records, corpus)
        pool = prepare_malicious_pool(corpus, groups)
        assert [a.account_id for a in pool] == ["m"]

    def test_benign_pool_requires_revisions(self):
        accounts = [account("b1", 0), account("b2", 0), account("m", 0, ban=9)]
        revisions = [revision("b1", "pg", 5, added="x")]
        corpus = corpus_of(accounts, revisions)
        assert [a.account_id for a in prepare_benign_pool(corpus)] == ["b1"]


def task1_samples():
    return match_task1([account("p", 0, ban=BAN)], [account("m", 0, ban=BAN + 10)])


def task3_samples():
    corpus, pair = pair_fixture(n_malicious=3)
    pool = [a for a in corpus.accounts if a.account_id.startswith("m")]
    return match_task3([pair], pool, corpus)


class TestSampleSerialization:
    @pytest.mark.parametrize(
        "make_samples", [task1_samples, task3_samples], ids=["task1", "task3"]
    )
    def test_round_trip(self, tmp_path, make_samples):
        samples = make_samples()
        path = tmp_path / "s.tsv"
        write_samples(samples, path)
        assert read_samples(path) == samples

    @pytest.mark.parametrize(
        "row",
        [
            "prediction\tp\tm\n",
            "prediction\tp\tm\tnegative\textra\n",
            "\n",
        ],
        ids=["three_fields", "five_fields", "blank"],
    )
    def test_wrong_field_count_names_line(self, tmp_path, row):
        path = tmp_path / "s.tsv"
        path.write_text("prediction\tp\tp\tpositive\n" + row)
        with pytest.raises(RecordParseError) as exc:
            read_samples(path)
        assert (exc.value.path, exc.value.line_number) == (str(path), 2)

    @pytest.mark.parametrize("label", ["Positive", "negativ", "1"])
    def test_unknown_label_names_line(self, tmp_path, label):
        path = tmp_path / "s.tsv"
        path.write_text(f"prediction\tp\tp\t{label}\n")
        with pytest.raises(RecordParseError) as exc:
            read_samples(path)
        assert (exc.value.path, exc.value.line_number) == (str(path), 1)
        assert repr(label) in str(exc.value)
