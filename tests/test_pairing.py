from __future__ import annotations

import random
from collections import defaultdict

from banevasion.pairing import (
    EvasionPair,
    UnionFind,
    extract_evasion_pairs,
    first_pair_per_group,
    merge_groups,
)

from conftest import account, corpus_of, random_group_accounts, record


# --- independent oracles ---------------------------------------------------


def dfs_components(vertices, edges):
    adjacency = defaultdict(set)
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    visited = set()
    components = set()
    for vertex in vertices:
        if vertex in visited:
            continue
        stack = [vertex]
        component = set()
        while stack:
            node = stack.pop()
            if node in component:
                continue
            component.add(node)
            stack.extend(adjacency[node] - component)
        visited |= component
        components.add(frozenset(component))
    return components


def brute_force_pairs(members):
    """Exhaustive check of the bidirectional criterion over ordered pairs."""

    def predecessor_of(v):
        best = None
        for m in members:
            if m.ban_time is None or m.ban_time >= v.creation_time:
                continue
            if (
                best is None
                or m.ban_time > best.ban_time
                or (m.ban_time == best.ban_time and m.account_id < best.account_id)
            ):
                best = m
        return best

    def successor_of(u):
        best = None
        for m in members:
            if m.creation_time <= u.ban_time:
                continue
            if (
                best is None
                or m.creation_time < best.creation_time
                or (
                    m.creation_time == best.creation_time
                    and m.account_id < best.account_id
                )
            ):
                best = m
        return best

    pairs = set()
    for u in members:
        if u.ban_time is None:
            continue
        for v in members:
            if u.account_id == v.account_id:
                continue
            pred = predecessor_of(v)
            succ = successor_of(u)
            if (
                pred is not None
                and succ is not None
                and pred.account_id == u.account_id
                and succ.account_id == v.account_id
            ):
                pairs.add((u.account_id, v.account_id))
    return pairs


def group_corpus(members):
    ids = [m.account_id for m in members]
    return corpus_of(members, records=[record(*ids)]) if len(ids) >= 2 else None


# --- merge_groups ----------------------------------------------------------


class TestMergeGroups:
    def test_chained_overlap(self):
        corpus = corpus_of(
            [account("A", 0), account("B", 1), account("C", 2)],
            records=[record("A", "B"), record("B", "C")],
        )
        groups = merge_groups(corpus)
        assert len(groups) == 1
        assert groups[0].member_ids == frozenset({"A", "B", "C"})
        assert groups[0].master_id == "A"

    def test_disjoint_records(self):
        corpus = corpus_of(
            [account("A", 3), account("B", 1), account("C", 2), account("D", 0)],
            records=[record("A", "B"), record("C", "D")],
        )
        groups = merge_groups(corpus)
        assert len(groups) == 2
        assert [g.member_ids for g in groups] == [frozenset({"A", "B"}), frozenset({"C", "D"})]
        assert [g.master_id for g in groups] == ["B", "D"]

    def test_empty(self):
        corpus = corpus_of([])
        assert merge_groups(corpus) == []

    def test_group_ids_follow_min_member(self):
        corpus = corpus_of(
            [account("z", 0), account("y", 1), account("a", 2), account("b", 3)],
            records=[record("z", "y"), record("a", "b")],
        )
        groups = merge_groups(corpus)
        assert groups[0].member_ids == frozenset({"a", "b"})
        assert [g.group_id for g in groups] == [0, 1]

    def test_matches_dfs_oracle_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randint(1, 50)
            vertices = [f"v{i}" for i in range(n)]
            edges = [
                (rng.choice(vertices), rng.choice(vertices))
                for _ in range(rng.randint(0, 2 * n))
            ]
            uf = UnionFind(vertices)
            for a, b in edges:
                uf.union(a, b)
            assert set(uf.components()) == dfs_components(vertices, edges)


# --- predecessor / successor ------------------------------------------------


class TestTemporalNeighbors:
    """Each rule of the module docstring, seen through extraction."""

    def pairs_of(self, members):
        corpus = group_corpus(members)
        pairs = extract_evasion_pairs(merge_groups(corpus), corpus)
        got = [(p.parent_id, p.child_id) for p in pairs]
        assert set(got) == brute_force_pairs(members)
        return got

    def test_predecessor_latest_ban_before_creation(self):
        members = [account("A", 0, ban=10), account("B", 1, ban=12), account("C", 15)]
        assert self.pairs_of(members) == [("B", "C")]

    def test_predecessor_absent_when_no_prior_ban(self):
        # C was created before every ban, so it is no account's child
        members = [account("A", 6, ban=10), account("C", 5), account("D", 20)]
        assert self.pairs_of(members) == [("A", "D")]

    def test_predecessor_tie_breaks_to_smaller_id(self):
        members = [account("B", 0, ban=12), account("A", 1, ban=12), account("C", 15)]
        assert self.pairs_of(members) == [("A", "C")]

    def test_successor_earliest_creation_after_ban(self):
        members = [account("A", 0, ban=10), account("C", 15), account("D", 20)]
        assert self.pairs_of(members) == [("A", "C")]

    def test_successor_absent(self):
        assert self.pairs_of([account("A", 0, ban=10), account("B", 5)]) == []

    def test_successor_tie_breaks_to_smaller_id(self):
        members = [account("A", 0, ban=10), account("D", 15), account("C", 15)]
        assert self.pairs_of(members) == [("A", "C")]


# --- extraction --------------------------------------------------------------


class TestExtractPairs:
    def extract(self, members):
        corpus = group_corpus(members)
        groups = merge_groups(corpus)
        pairs = extract_evasion_pairs(groups, corpus)
        return corpus, groups, pairs

    def test_two_account_group(self):
        _, _, pairs = self.extract([account("A", 0, ban=10), account("B", 15)])
        assert [(p.parent_id, p.child_id) for p in pairs] == [("A", "B")]

    def test_three_account_chain_keeps_bidirectional_only(self):
        members = [account("A", 0, ban=10), account("B", 1, ban=12), account("C", 15)]
        _, _, pairs = self.extract(members)
        assert [(p.parent_id, p.child_id) for p in pairs] == [("B", "C")]
        assert brute_force_pairs(members) == {("B", "C")}

    def test_matches_brute_force_on_random_groups(self):
        rng = random.Random(7)
        for _ in range(400):
            members = random_group_accounts(rng, rng.randint(2, 10))
            corpus, groups, pairs = self.extract(members)
            got = {(p.parent_id, p.child_id) for p in pairs}
            assert got == brute_force_pairs(members)

    def test_one_to_one(self):
        rng = random.Random(13)
        for _ in range(200):
            members = random_group_accounts(rng, rng.randint(2, 10))
            _, _, pairs = self.extract(members)
            parents = [p.parent_id for p in pairs]
            children = [p.child_id for p in pairs]
            assert len(parents) == len(set(parents))
            assert len(children) == len(set(children))

    def test_every_pair_has_ban_before_creation(self):
        rng = random.Random(29)
        for _ in range(100):
            members = random_group_accounts(rng, rng.randint(2, 8))
            corpus, _, pairs = self.extract(members)
            for pair in pairs:
                parent = corpus.account(pair.parent_id)
                child = corpus.account(pair.child_id)
                assert parent.ban_time < child.creation_time

    def test_invariant_to_record_permutation(self):
        rng = random.Random(99)
        members = random_group_accounts(rng, 8)
        ids = [m.account_id for m in members]
        # overlapping two-member records covering the same component
        base_records = [record(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
        outputs = []
        for _ in range(5):
            shuffled_members = members[:]
            shuffled_records = base_records[:]
            rng.shuffle(shuffled_members)
            rng.shuffle(shuffled_records)
            corpus = corpus_of(shuffled_members, records=shuffled_records)
            groups = merge_groups(corpus)
            pairs = extract_evasion_pairs(groups, corpus)
            outputs.append([(p.parent_id, p.child_id, p.group_id) for p in pairs])
        assert all(out == outputs[0] for out in outputs)


class TestFirstPair:
    def test_keeps_earliest_parent(self):
        corpus = corpus_of(
            [
                account("A", 0, ban=10),
                account("B", 1, ban=30),
                account("C", 15, ban=28),
                account("D", 40),
            ],
            records=[record("A", "B", "C", "D")],
        )
        groups = merge_groups(corpus)
        pairs = extract_evasion_pairs(groups, corpus)
        first = first_pair_per_group(pairs, corpus)
        assert len(first) == 1
        assert first[0].parent_id == min(
            (p.parent_id for p in pairs),
            key=lambda pid: corpus.account(pid).creation_time,
        )

    def test_single_pair_unchanged(self):
        corpus = corpus_of(
            [account("A", 0, ban=10), account("B", 15)], records=[record("A", "B")]
        )
        groups = merge_groups(corpus)
        pairs = extract_evasion_pairs(groups, corpus)
        assert first_pair_per_group(pairs, corpus) == pairs

    def test_tie_breaks_to_smaller_parent_id(self):
        pairs = [EvasionPair("B", "y", 0), EvasionPair("A", "x", 0)]
        corpus = corpus_of(
            [
                account("A", 5, ban=10),
                account("B", 5, ban=11),
                account("x", 20, ban=25),
                account("y", 30, ban=35),
            ],
        )
        assert first_pair_per_group(pairs, corpus)[0].parent_id == "A"
