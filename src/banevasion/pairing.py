"""Merge sockpuppet records into disjoint groups and extract evasion pairs
(``corpus.EvasionPair``, each carrying its group's id).

An account's *temporal predecessor* within its group is the member whose
ban most closely precedes the account's creation; its *temporal successor*
is the member created earliest after the account's ban. A (parent, child)
pair is emitted only when both directions agree, which makes the mapping
one-to-one. Timestamp ties break toward the lexicographically smaller
account id so results are independent of input order. A pair's evasion
succeeded when the child outlived the parent (``classify_success``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable

from .corpus import Corpus, EvasionPair
from .errors import MissingBanTimeError


class UnionFind:
    """Disjoint sets over hashable items, path compression + union by size."""

    def __init__(self, items: Iterable[str] = ()):
        self._parent: dict[str, str] = {}
        self._size: dict[str, int] = {}
        for item in items:
            self.add(item)

    def add(self, item: str) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: str) -> str:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]

    def components(self) -> list[frozenset[str]]:
        groups: dict[str, set[str]] = {}
        for item in self._parent:
            groups.setdefault(self.find(item), set()).add(item)
        return [frozenset(members) for members in groups.values()]


@dataclass(frozen=True)
class SockpuppetGroup:
    group_id: int
    member_ids: frozenset[str]
    master_id: str


def merge_groups(corpus: Corpus) -> list[SockpuppetGroup]:
    """Connected components of the co-membership graph of
    ``corpus.sockpuppet_records``, one group each.

    Group ids are assigned in order of each component's minimum member id;
    the master is the earliest-created member (id tie-break).
    """
    uf = UnionFind()
    for record in corpus.sockpuppet_records:
        members = sorted(record.member_ids)
        for member in members:
            uf.add(member)
        first = members[0]
        for other in members[1:]:
            uf.union(first, other)

    components = sorted(uf.components(), key=lambda c: min(c))
    groups = []
    for group_id, members in enumerate(components):
        master = min(
            members, key=lambda m: (corpus.account(m).creation_time, m)
        )
        groups.append(SockpuppetGroup(group_id, members, master))
    return groups


def extract_evasion_pairs(
    groups: Iterable[SockpuppetGroup], corpus: Corpus
) -> list[EvasionPair]:
    """All (u, v) with u = predecessor(v) and v = successor(u), per group."""
    pairs = []
    for group in groups:
        # in id order, so ``min`` and ``max`` keep the smaller id of a tie
        members = [corpus.account(m) for m in sorted(group.member_ids)]
        for parent in members:
            if parent.ban_time is None:
                continue
            later = [m for m in members if m.creation_time > parent.ban_time]
            if not later:
                continue
            child = min(later, key=attrgetter("creation_time"))
            # ``parent`` itself was banned before the child's creation
            predecessor = max(
                (m for m in members
                 if m.ban_time is not None and m.ban_time < child.creation_time),
                key=attrgetter("ban_time"),
            )
            if predecessor.account_id == parent.account_id:
                pairs.append(EvasionPair(parent.account_id, child.account_id, group.group_id))
    pairs.sort(
        key=lambda p: (
            p.group_id,
            corpus.account(p.parent_id).creation_time,
            p.parent_id,
        )
    )
    return pairs


def first_pair_per_group(
    pairs: Iterable[EvasionPair], corpus: Corpus
) -> list[EvasionPair]:
    """Keep only the pair with the earliest-created parent in each group."""
    first: dict[int, EvasionPair] = {}
    by_parent = sorted(
        pairs, key=lambda p: (corpus.account(p.parent_id).creation_time, p.parent_id)
    )
    for pair in by_parent:
        first.setdefault(pair.group_id, pair)
    return [first[g] for g in sorted(first)]


def classify_success(pairs: Iterable[EvasionPair], corpus: Corpus) -> list[bool]:
    """Per pair, whether the child outlived the parent (a tie is False).

    Both accounts must be banned.
    """
    verdicts = []
    for pair in pairs:
        parent = corpus.account(pair.parent_id)
        child = corpus.account(pair.child_id)
        for member in (parent, child):
            if member.ban_time is None:
                raise MissingBanTimeError(member.account_id)
        verdicts.append(child.duration_seconds > parent.duration_seconds)
    return verdicts
