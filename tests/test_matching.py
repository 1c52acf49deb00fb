from __future__ import annotations

import random
import tracemalloc

import pytest

from banevasion.corpus import DAY_SECONDS, WEEK_SECONDS, SynthConfig, generate_synthetic
from banevasion.errors import (
    InvalidConfigError,
    RecordParseError,
    ReferentialIntegrityError,
    TrueParentMissingError,
)
from banevasion.matching import (
    TASKS,
    LabeledSample,
    build_candidate_sets,
    read_samples,
    write_samples,
    NEGATIVE,
    POSITIVE,
)
from banevasion.pairing import (
    EvasionPair,
    extract_evasion_pairs,
    first_pair_per_group,
    merge_groups,
)

from conftest import account, all_revisions, corpus_of, record, revision

BAN = 1_000_000


def match_parents(parents, others, window=WEEK_SECONDS):
    """Task-1 samples over ``parents``, ``others`` and one never-banned child
    per parent, each parent grouped with its child by one pair."""
    children = [account(f"c{p.account_id}", p.ban_time + 1) for p in parents]
    records = [record(p.account_id, c.account_id) for p, c in zip(parents, children)]
    corpus = corpus_of([*parents, *others, *children], records=records)
    pairs = [EvasionPair(p.account_id, c.account_id, 0) for p, c in zip(parents, children)]
    return TASKS["1"].match(corpus, pairs, window)


class TestMatchTask1:
    def test_window_boundary_inclusive(self):
        parent = account("p", 0, ban=BAN)
        inside = account("m1", 0, ban=BAN + WEEK_SECONDS)
        outside = account("m2", 0, ban=BAN + WEEK_SECONDS + 1)
        samples = match_parents([parent], [inside, outside])
        negatives = [s.other_id for s in samples if s.label == NEGATIVE]
        assert negatives == ["m1"]

    def test_positive_emitted_per_parent(self):
        parent = account("p", 0, ban=BAN)
        samples = match_parents([parent], [])
        assert [(s.other_id, s.label, s.parent_id) for s in samples] == [
            ("p", POSITIVE, "p")
        ]

    def test_negatives_can_recur_across_parents(self):
        parents = [account("p1", 0, ban=BAN), account("p2", 0, ban=BAN + 100)]
        pool = [account("m", 0, ban=BAN + 50)]
        samples = match_parents(parents, pool)
        negatives = [(s.parent_id, s.other_id) for s in samples if s.label == NEGATIVE]
        assert negatives == [("p1", "m"), ("p2", "m")]

    def test_parent_in_pool_never_becomes_its_own_negative(self):
        # without records the parent is a banned account that no record names
        corpus = corpus_of(
            [account("p", 0, ban=BAN), account("m", 0, ban=BAN + 5), account("c", BAN + 10)]
        )
        samples = TASKS["1"].match(corpus, [EvasionPair("p", "c", 0)])
        rows = [(s.other_id, s.label) for s in samples]
        assert rows == [("p", POSITIVE), ("m", NEGATIVE)]

    def test_emitted_negatives_satisfy_window_predicate(self):
        import random as _random

        rng = _random.Random(6)
        ban = 100 * DAY_SECONDS  # so every ban below comes after creation at 0
        parents = [
            account(f"p{i}", 0, ban=ban + rng.randint(0, 50) * DAY_SECONDS) for i in range(5)
        ]
        pool = [
            account(f"m{i}", 0, ban=ban + rng.randint(-80, 120) * DAY_SECONDS)
            for i in range(40)
        ]
        for s in match_parents(parents, pool):
            if s.label == NEGATIVE:
                anchor = next(p for p in parents if p.account_id == s.parent_id)
                member = next(m for m in pool if m.account_id == s.other_id)
                assert abs(member.ban_time - anchor.ban_time) <= WEEK_SECONDS


    def test_task_match_anchors_a_repeated_parent_once(self):
        accounts = [
            account("p", 0, ban=BAN), account("q", 0, ban=BAN + 10),
            account("c1", BAN + 100), account("c2", BAN + 200), account("c3", BAN + 300),
            account("m", 0, ban=BAN + 5),
        ]
        corpus = corpus_of(accounts)
        once = [EvasionPair("p", "c1", 0), EvasionPair("q", "c3", 1)]
        repeated = [EvasionPair("p", "c1", 0), EvasionPair("p", "c2", 0), EvasionPair("q", "c3", 1)]
        samples = list(TASKS["1"].match(corpus, repeated, WEEK_SECONDS))
        assert samples == list(TASKS["1"].match(corpus, once, WEEK_SECONDS))
        assert [(s.parent_id, s.other_id, s.label) for s in samples] == [
            ("p", "p", POSITIVE), ("p", "m", NEGATIVE), ("p", "q", NEGATIVE),
            ("q", "q", POSITIVE), ("q", "m", NEGATIVE), ("q", "p", NEGATIVE),
        ]


class TestMatchChecks:
    CORPUS = corpus_of([account("p", 0, ban=BAN), account("u", 0), account("c", BAN + 10)])

    @pytest.mark.parametrize("task", ["1", "2", "3"])
    def test_unknown_parent_named(self, task):
        with pytest.raises(ReferentialIntegrityError) as err:
            TASKS[task].match(self.CORPUS, [EvasionPair("x", "c", 0)])
        assert err.value.offending_id == "x"

    @pytest.mark.parametrize("task", ["1", "2", "3"])
    def test_unknown_child_named(self, task):
        with pytest.raises(ReferentialIntegrityError) as err:
            TASKS[task].match(self.CORPUS, [EvasionPair("p", "zz", 0)])
        assert err.value.offending_id == "zz"

    @pytest.mark.parametrize("task", ["1", "2", "3"])
    def test_unknown_child_named_before_never_banned_parent(self, task):
        with pytest.raises(ReferentialIntegrityError) as err:
            TASKS[task].match(self.CORPUS, [EvasionPair("u", "x", 0)])
        assert err.value.offending_id == "x"


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
        samples = TASKS["2"].match(corpus, [EvasionPair("p", "c", 0)])
        negatives = [s.other_id for s in samples if s.label == NEGATIVE]
        assert negatives == ["b2"]

    def test_cap_and_determinism(self):
        corpus, pair = pair_fixture(n_benign=150)
        first = list(TASKS["2"].match(corpus, [pair], cap=100, seed=11))
        second = list(TASKS["2"].match(corpus, [pair], cap=100, seed=11))
        negatives = [s for s in first if s.label == NEGATIVE]
        assert len(negatives) == 100
        assert first == second
        other_seed = list(TASKS["2"].match(corpus, [pair], cap=100, seed=12))
        assert other_seed != first

    def test_invalid_cap(self):
        corpus, pair = pair_fixture()
        with pytest.raises(InvalidConfigError, match="'cap': must be >= 1") as err:
            TASKS["2"].match(corpus, [pair], cap=0)
        assert err.value.field == "cap"

    def test_window_inclusive(self):
        corpus, pair = pair_fixture(n_benign=1, benign_offset=DAY_SECONDS)
        samples = TASKS["2"].match(corpus, [pair])
        assert sum(1 for s in samples if s.label == NEGATIVE) == 1

    def test_never_banned_child_is_not_its_own_negative(self):
        # the child is never banned and has an edit, so it is in the benign pool
        accounts = [account("p", 0, ban=BAN), account("c", BAN + 10)]
        revisions = [revision("c", "pg", BAN + 20, added="x")]
        corpus = corpus_of(accounts, revisions, [record("p", "c")])
        groups = merge_groups(corpus)
        pairs = first_pair_per_group(extract_evasion_pairs(groups, corpus), corpus)
        assert [(p.parent_id, p.child_id) for p in pairs] == [("p", "c")]
        samples = TASKS["2"].match(corpus, pairs, DAY_SECONDS)
        assert [(s.parent_id, s.other_id, s.label) for s in samples] == [
            ("p", "c", POSITIVE)
        ]


class TestMatchTask3:
    def test_created_before_parent_ban_excluded(self):
        corpus, pair = pair_fixture(n_malicious=1, malicious_creation=BAN - 100)
        samples = TASKS["3"].match(corpus, [pair])
        assert sum(1 for s in samples if s.label == NEGATIVE) == 0

    def test_boundary_exactly_seven_days_included(self):
        corpus, pair = pair_fixture(
            n_malicious=1,
            malicious_creation=BAN + 5 * DAY_SECONDS + WEEK_SECONDS,
        )
        samples = TASKS["3"].match(corpus, [pair])
        assert sum(1 for s in samples if s.label == NEGATIVE) == 1

    def test_positive_never_labeled_negative(self):
        corpus, pair = pair_fixture(n_malicious=5)
        samples = TASKS["3"].match(corpus, [pair])
        for s in samples:
            if s.label == NEGATIVE:
                assert (s.parent_id, s.other_id) != ("p", "c")

    def test_child_in_pool_never_becomes_negative(self):
        corpus, pair = pair_fixture(n_malicious=2)
        # without records the banned child is itself in the pool
        corpus = corpus_of(corpus.accounts, all_revisions(corpus))
        samples = TASKS["3"].match(corpus, [pair])
        negatives = {s.other_id for s in samples if s.label == NEGATIVE}
        assert negatives == {"m000", "m001"}

    def test_emitted_negatives_satisfy_predicates(self):
        corpus, pair = pair_fixture(n_malicious=10)
        child = corpus.account("c")
        parent = corpus.account("p")
        for s in TASKS["3"].match(corpus, [pair]):
            if s.label == NEGATIVE:
                m = corpus.account(s.other_id)
                assert m.creation_time > parent.ban_time
                assert abs(m.creation_time - child.creation_time) <= WEEK_SECONDS


# The scan loops the matchers were first written as, kept as the reference,
# each with its pool built by brute force from the corpus and its records.
# Task 2 also skips the child, as task 3 always did.


def malicious_pool(corpus):
    return sorted(
        (a for a in corpus.accounts
         if a.ban_time is not None
         and not any(a.account_id in r.member_ids for r in corpus.sockpuppet_records)),
        key=lambda a: a.account_id,
    )


def benign_pool(corpus):
    return sorted(
        (a for a in corpus.accounts
         if a.ban_time is None and any(r.account_id == a.account_id for r in all_revisions(corpus))),
        key=lambda a: a.account_id,
    )


def reference_task1(corpus, pairs, window_seconds):
    samples = []
    for parent_id in sorted({p.parent_id for p in pairs}):
        parent = corpus.account(parent_id)
        samples.append((parent_id, parent_id, POSITIVE))
        for m in malicious_pool(corpus):
            if m.account_id == parent_id:
                continue
            if abs(m.ban_time - parent.ban_time) <= window_seconds:
                samples.append((parent_id, m.account_id, NEGATIVE))
    return samples


def reference_task2(corpus, pairs, window_seconds, cap, seed):
    samples = []
    for pair in sorted(pairs, key=lambda p: (p.parent_id, p.child_id)):
        parent = corpus.account(pair.parent_id)
        child = corpus.account(pair.child_id)
        samples.append((pair.parent_id, pair.child_id, POSITIVE))
        matched = [
            b
            for b in benign_pool(corpus)
            if abs(b.creation_time - child.creation_time) <= window_seconds
            and b.creation_time > parent.ban_time
            and b.account_id != pair.child_id
        ]
        if len(matched) > cap:
            rng = random.Random(f"task2:{seed}:{pair.child_id}")
            matched = rng.sample(matched, cap)
            matched.sort(key=lambda a: a.account_id)
        samples.extend((pair.parent_id, b.account_id, NEGATIVE) for b in matched)
    return samples


def reference_task3(corpus, pairs, window_seconds):
    samples = []
    for pair in sorted(pairs, key=lambda p: (p.parent_id, p.child_id)):
        parent = corpus.account(pair.parent_id)
        child = corpus.account(pair.child_id)
        samples.append((pair.parent_id, pair.child_id, POSITIVE))
        for m in malicious_pool(corpus):
            if m.account_id == pair.child_id:
                continue
            if (
                m.creation_time > parent.ban_time
                and abs(m.creation_time - child.creation_time) <= window_seconds
            ):
                samples.append((pair.parent_id, m.account_id, NEGATIVE))
    return samples


def random_matching_case(
    rng: random.Random, base=0, max_time=20, max_life=8, windows=(0, 1, 2, 3, 5, 8, 13)
):
    """A corpus, pairs and a window, with creation times in base..base+max_time
    and bans 1..max_life later, so ties, window edges and ``creation == parent
    ban`` are frequent. The corpus holds 0-2 records drawn over all accounts,
    so pair members may sit in the pools."""
    accounts, revisions = [], []
    for i in range(rng.randint(3, 20)):
        creation = base + rng.randint(0, max_time)
        ban = creation + rng.randint(1, max_life) if rng.random() < 0.5 else None
        accounts.append(account(f"a{i:02d}", creation, ban=ban))
        if ban is None and rng.random() < 0.8:
            revisions.append(revision(f"a{i:02d}", "pg", creation + 1, added="x"))
    banned = [a for a in accounts if a.ban_time is not None]
    pairs = []
    if banned:
        for _ in range(rng.randint(1, 3)):
            parent = rng.choice(banned)
            later = [a for a in accounts if a.creation_time > parent.ban_time]
            others = later if later and rng.random() < 0.7 else accounts
            child = rng.choice([a for a in others if a is not parent])
            pairs.append(EvasionPair(parent.account_id, child.account_id, 0))
    ids = [a.account_id for a in accounts]
    records = [
        record(*rng.sample(ids, rng.randint(2, len(ids) // 2 + 1)))
        for _ in range(rng.randint(0, 2))
    ]
    window = rng.choice(windows)
    return corpus_of(accounts, revisions, records), pairs, window


def as_tuples(samples):
    return [(s.parent_id, s.other_id, s.label) for s in samples]


class TestBruteForceOracle:
    CASES = 1200
    MIN_CAPPED = CASES // 2

    def cases(self):
        for i in range(self.CASES):
            yield random_matching_case(random.Random(f"matching-oracle:{i}"))

    def test_task1_equals_reference(self):
        for corpus, pairs, window in self.cases():
            got = as_tuples(TASKS["1"].match(corpus, pairs, window))
            assert got == reference_task1(corpus, pairs, window)

    def test_task2_equals_reference(self):
        capped = 0
        for corpus, pairs, window in self.cases():
            no_cap = len(corpus.accounts) + 1
            uncapped = reference_task2(corpus, pairs, window, no_cap, 0)
            for cap in (1, 3, no_cap):
                for seed in (0, 1, 2):
                    got = as_tuples(TASKS["2"].match(corpus, pairs, window, cap, seed))
                    assert got == reference_task2(corpus, pairs, window, cap, seed)
                    capped += got != uncapped
        # the cap must bind often enough for the sampling path to be compared
        assert capped > self.MIN_CAPPED, capped

    def test_task3_equals_reference(self):
        for corpus, pairs, window in self.cases():
            got = as_tuples(TASKS["3"].match(corpus, pairs, window))
            assert got == reference_task3(corpus, pairs, window)


class TestBruteForceOracleFloatWindows(TestBruteForceOracle):
    """The same comparisons with float windows, whose bounds round, at epoch
    times, over pools where most creation and ban times tie. Exact ties leave
    fewer matches for the task-2 cap to bind on, hence more cases."""

    CASES = 2000
    MIN_CAPPED = CASES // 4

    def cases(self):
        for i in range(self.CASES):
            yield random_matching_case(
                random.Random(f"matching-oracle-float:{i}"),
                base=1_600_000_000,
                max_time=5,
                max_life=1,
                windows=(0.5, 2.5, 1e-9, 1 - 1e-10),
            )


# The loop ``build_candidate_sets`` was first written as, kept as the reference.


def reference_candidate_sets(children, banned_parents, truth, max_candidates):
    true_parent_of = {p.child_id: p.parent_id for p in truth}
    by_id = {a.account_id: a for a in banned_parents}
    sets = []
    for child in sorted(children, key=lambda a: a.account_id):
        true_parent_id = true_parent_of.get(child.account_id)
        if true_parent_id is None or true_parent_id not in by_id:
            raise TrueParentMissingError(child.account_id)
        true_parent = by_id[true_parent_id]
        if true_parent.ban_time is None or true_parent.ban_time >= child.creation_time:
            raise TrueParentMissingError(child.account_id)
        distractors = [
            a
            for a in banned_parents
            if a.account_id != true_parent_id
            and a.ban_time is not None
            and a.ban_time < child.creation_time
        ]
        distractors.sort(key=lambda a: (-a.ban_time, a.account_id))
        chosen = distractors[:max_candidates]
        candidates = sorted(chosen + [true_parent], key=lambda a: (-a.ban_time, a.account_id))
        sets.append((child.account_id, tuple(a.account_id for a in candidates), true_parent_id))
    return sets


def random_candidate_case(rng: random.Random):
    """A corpus and pairs over parents (some never banned) and children with
    times in 0..12, so tied bans and ``ban == child creation`` are frequent;
    most children get a true parent banned before their creation, and a few
    are named by a second pair."""
    parents = []
    for i in range(rng.randint(1, 15)):
        ban = rng.randint(1, 10) if rng.random() < 0.9 else None
        parents.append(account(f"p{i:02d}", 0, ban=ban))
    children, pairs = [], []
    for i in range(rng.randint(1, 4)):
        child = account(f"c{i:02d}", rng.randint(1, 12))
        children.append(child)
        earlier = [p for p in parents if p.ban_time is not None and p.ban_time < child.creation_time]
        parent = rng.choice(earlier) if earlier and rng.random() < 0.97 else rng.choice(parents)
        pairs.append(EvasionPair(parent.account_id, child.account_id, 0))
    pairs += [
        EvasionPair(rng.choice(parents).account_id, p.child_id, 0)
        for p in pairs if rng.random() < 0.02
    ]
    rng.shuffle(pairs)
    return corpus_of(parents + children), pairs


class TestCandidateSetsOracle:
    CASES = 1500

    def test_equals_reference(self):
        compared = repeated = 0
        raised = {"late": 0, "never banned": 0}
        for i in range(self.CASES):
            corpus, pairs = random_candidate_case(random.Random(f"candidates:{i}"))
            child_ids = [p.child_id for p in pairs]
            if len(set(child_ids)) < len(child_ids):
                with pytest.raises(RecordParseError, match="named by two pairs"):
                    build_candidate_sets(pairs, corpus, 1)
                repeated += 1
                continue
            children = [corpus.account(child_id) for child_id in child_ids]
            parents = [corpus.account(i) for i in dict.fromkeys(p.parent_id for p in pairs)]
            for max_candidates in (1, 3, len(parents) + 1):
                try:
                    want = reference_candidate_sets(children, parents, pairs, max_candidates)
                except TrueParentMissingError as exc:
                    with pytest.raises(TrueParentMissingError) as got:
                        build_candidate_sets(pairs, corpus, max_candidates)
                    assert got.value.child_id == exc.child_id
                    parent_id = next(p.parent_id for p in pairs if p.child_id == exc.child_id)
                    late = corpus.account(parent_id).ban_time is not None
                    raised["late" if late else "never banned"] += 1
                    continue
                got = build_candidate_sets(pairs, corpus, max_candidates)
                assert [
                    (cs.child_id, cs.candidate_parent_ids, cs.true_parent_id) for cs in got
                ] == want
                compared += 1
        # every path must be exercised often
        assert compared > self.CASES and repeated > self.CASES // 50, (compared, repeated)
        assert min(raised.values()) > self.CASES // 20, raised

    def test_negative_max_candidates_rejected(self):
        corpus = corpus_of([account("p", 0, ban=5), account("c", 10)])
        for max_candidates in (0, -1):
            with pytest.raises(InvalidConfigError) as err:
                build_candidate_sets([EvasionPair("p", "c", 0)], corpus, max_candidates)
            assert err.value.field == "max_candidates"


class TestCandidateSets:
    def make_parents(self, n, child_creation):
        return [
            account(f"p{i:02d}", 0, ban=child_creation - 1 - i) for i in range(n)
        ]

    def pairs_for(self, parents, true_parent_id):
        """A pair of the child ``c`` and its true parent, and one pair per other
        parent, each with its own child created after every ban."""
        return [EvasionPair(true_parent_id, "c", 0)] + [
            EvasionPair(p.account_id, f"x{p.account_id}", 0)
            for p in parents if p.account_id != true_parent_id
        ]

    def corpus_for(self, child, parents):
        others = [account(f"x{p.account_id}", 10**9) for p in parents]
        return corpus_of([child, *parents, *others])

    def test_all_eligible_included(self):
        child = account("c", 10_000)
        parents = self.make_parents(4, child.creation_time)
        pairs = self.pairs_for(parents, parents[3].account_id)
        sets = build_candidate_sets(pairs, self.corpus_for(child, parents), max_candidates=50)
        assert len(sets) == 4
        assert sets[0].child_id == "c"
        assert len(sets[0].candidate_parent_ids) == 4
        assert sets[0].true_parent_id == parents[3].account_id
        assert sets[0].true_parent_id in sets[0].candidate_parent_ids

    def test_recency_rule_at_cap(self):
        child = account("c", 100_000)
        parents = self.make_parents(81, child.creation_time)
        pairs = self.pairs_for(parents, parents[80].account_id)
        sets = build_candidate_sets(pairs, self.corpus_for(child, parents), max_candidates=50)
        ids = sets[0].candidate_parent_ids
        assert len(ids) == 51
        # distractors must be the 50 most recently banned (p00..p49)
        expected = {f"p{i:02d}" for i in range(50)} | {parents[80].account_id}
        assert set(ids) == expected

    def test_parent_banned_after_child_creation_excluded(self):
        child = account("c", 10_000)
        ok = account("p1", 0, ban=9_999)
        late = account("p2", 0, ban=10_000)
        pairs = self.pairs_for([ok, late], "p1")
        sets = build_candidate_sets(pairs, self.corpus_for(child, [ok, late]))
        assert sets[0].candidate_parent_ids == ("p1",)

    def test_missing_true_parent(self):
        child = account("c", 10_000)
        parents = self.make_parents(3, 10_000) + [account("late", 0, ban=10_000)]
        with pytest.raises(TrueParentMissingError) as err:
            build_candidate_sets(self.pairs_for(parents, "late"), self.corpus_for(child, parents))
        assert err.value.child_id == "c"


class TestPools:
    # a window wider than every time matches the whole pool
    WIDE = 10**9

    def test_malicious_pool_excludes_group_members(self):
        accounts = [
            account("p", 0, ban=100),
            account("c", 200, ban=300),
            account("m", 0, ban=50),
            account("b", 0),
        ]
        corpus = corpus_of(accounts, [], [record("p", "c")])
        samples = TASKS["1"].match(corpus, [EvasionPair("p", "c", 0)], self.WIDE)
        assert [s.other_id for s in samples if s.label == NEGATIVE] == ["m"]

    def test_benign_pool_requires_revisions(self):
        accounts = [
            account("p", 0, ban=1), account("c", 5),
            account("b1", 5), account("b2", 5), account("m", 5, ban=9),
        ]
        revisions = [revision("b1", "pg", 6, added="x")]
        corpus = corpus_of(accounts, revisions, [record("p", "c")])
        samples = TASKS["2"].match(corpus, [EvasionPair("p", "c", 0)], self.WIDE)
        assert [s.other_id for s in samples if s.label == NEGATIVE] == ["b1"]


def task1_samples():
    corpus = corpus_of(
        [account("p", 0, ban=BAN), account("m", 0, ban=BAN + 10), account("c", BAN + 20)]
    )
    return list(TASKS["1"].match(corpus, [EvasionPair("p", "c", 0)]))


def task3_samples():
    corpus, pair = pair_fixture(n_malicious=3)
    return list(TASKS["3"].match(corpus, [pair]))


class TestLabeledSample:
    def test_fields_pinned(self):
        assert LabeledSample._fields == ("parent_id", "other_id", "label", "task")
        assert LabeledSample._field_defaults == {}
        assert LabeledSample("p", "o", POSITIVE, TASKS["1"].name) == ("p", "o", 1, "prediction")

    @pytest.mark.parametrize("name", ["label", "extra"])
    def test_attribute_assignment_rejected(self, name):
        with pytest.raises(AttributeError):
            setattr(LabeledSample("p", "o", NEGATIVE, "prediction"), name, POSITIVE)


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


def test_streamed_matching_keeps_memory_flat(tmp_path):
    """Writing the samples as they are matched holds one anchor's negatives,
    not the whole sample list, and writes the list's bytes."""
    corpus = generate_synthetic(
        SynthConfig(n_groups=240, n_benign=2400, n_nonevading_malicious=1200, seed=7)
    ).corpus
    pairs = first_pair_per_group(extract_evasion_pairs(merge_groups(corpus), corpus), corpus)
    listed, streamed = tmp_path / "listed.tsv", tmp_path / "streamed.tsv"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        samples = list(TASKS["1"].match(corpus, pairs))
        held = tracemalloc.get_traced_memory()[0] - before
        write_samples(samples, listed)
        del samples
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        written = write_samples(TASKS["1"].match(corpus, pairs), streamed)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < held / 4
    assert streamed.read_bytes() == listed.read_bytes()
    assert written == len(listed.read_bytes().splitlines())
