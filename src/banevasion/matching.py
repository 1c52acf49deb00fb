"""Matched negative-sample construction for the three lifecycle tasks.

Every task yields one sample type, ``LabeledSample(parent_id, other_id,
label, task)``. In the pair tasks (2 and 3) ``other_id`` is the child or a
matched control paired with ``parent_id``. In a task-1 (prediction) sample
``parent_id`` is the anchoring parent and ``other_id`` the account being
classified: the parent itself for the positive, a matched non-evading
malicious account for each negative.

``TASKS`` holds everything else that differs between the tasks: the pool
and ``match_task*`` that build the samples, the feature variant, whether a
row describes an account or a pair, the default window and train fraction,
and whether the test AUC is also split by evasion success.

Tasks 2 and 3 share one pair rule and differ only in the pool: for each
(parent, child) pair the negatives are the pool accounts, other than the
child, created strictly after the parent's ban and within the window of the
child's creation; task 2 keeps at most ``cap`` of them. Windows are
inclusive at both ends. Each matcher sorts its pool once by the time its
window is on and bisects that order per parent or pair, so its work grows
with the samples it emits, not with pairs x pool.

Samples serialize one per line as ``task<TAB>parent_id<TAB>other_id<TAB>label``
with the label spelled exactly ``positive`` or ``negative``.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .corpus import Account, Corpus, DAY_SECONDS, EvasionPair, WEEK_SECONDS
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    MissingBanTimeError,
    RecordParseError,
    TrueParentMissingError,
)
from .pairing import SockpuppetGroup

if TYPE_CHECKING:
    from .features import Digests

POSITIVE = 1
NEGATIVE = 0

TASK1 = "prediction"
TASK2 = "early_detection"
TASK3 = "bantime_detection"

DEFAULT_TASK2_CAP = 100
DEFAULT_K_EDITS = 3
DEFAULT_MAX_CANDIDATES = 50


def check_counts(**counts: int) -> None:
    """Raise ``InvalidConfigError`` naming the first of ``counts`` below 1:
    the task-2 ``cap``, ``k_edits`` or the ranking's ``max_candidates``."""
    for name, value in counts.items():
        if value < 1:
            raise InvalidConfigError(name, "must be >= 1")


def _check_window(window_seconds: int) -> None:
    """Raise ``InvalidConfigError`` unless the matching window is at least 0."""
    if not window_seconds >= 0:
        raise InvalidConfigError("window_seconds", "must be >= 0")


class LabeledSample(NamedTuple):
    parent_id: str
    other_id: str
    label: int
    task: str


@dataclass(frozen=True)
class CandidateSet:
    child_id: str
    candidate_parent_ids: tuple[str, ...]
    true_parent_id: str


@dataclass(frozen=True)
class Task:
    """What differs between the three lifecycle tasks.

    ``number`` is the CLI's ``--task`` value, ``name`` the task column of a
    samples file; ``window_seconds`` and ``train_fraction`` are the defaults
    of the matching window and of the share of positive anchors trained on.
    A ``fragmented`` task also reports its test AUC split by whether each
    positive child outlived its parent.
    """

    number: str
    name: str
    window_seconds: int
    train_fraction: float
    fragmented: bool = False

    def match(
        self,
        corpus: Corpus,
        groups: Sequence[SockpuppetGroup],
        pairs: Sequence[EvasionPair],
        window_seconds: int | None = None,
        cap: int = DEFAULT_TASK2_CAP,
        seed: int = 0,
    ) -> list[LabeledSample]:
        """Positives from ``pairs`` and matched negatives from this task's pool:
        non-evading malicious accounts for tasks 1 and 3, benign for task 2;
        ``window_seconds`` defaults to this task's window."""
        if window_seconds is None:
            window_seconds = self.window_seconds
        if self.name == TASK1:
            # a parent named by several pairs anchors one positive
            parent_ids = dict.fromkeys(p.parent_id for p in pairs)
            parents = [corpus.account(parent_id) for parent_id in parent_ids]
            return match_task1(parents, prepare_malicious_pool(corpus, groups), window_seconds)
        if self.name == TASK2:
            return match_task2(
                pairs, prepare_benign_pool(corpus), corpus, window_seconds, cap, seed
            )
        return match_task3(pairs, prepare_malicious_pool(corpus, groups), corpus, window_seconds)

    def vectors(self, samples: Sequence[LabeledSample], digests: Digests,
                k_edits: int = DEFAULT_K_EDITS):
        """``(names, X)``, one row per sample: task 1 describes the other account
        alone; task 2 the pair, over the other account's first ``k_edits`` edits
        and without child-ban fields; task 3 the full pair."""
        from .features import account_vectors, pair_vectors  # numpy loads only here

        if self.name == TASK1:
            return account_vectors(digests, [s.other_id for s in samples])
        keys = [(s.parent_id, s.other_id) for s in samples]
        if self.name == TASK2:
            return pair_vectors(digests, keys, k_limit=k_edits, child_ban=False)
        return pair_vectors(digests, keys)


TASKS = {
    t.number: t
    for t in (
        Task("1", TASK1, WEEK_SECONDS, 0.8),
        Task("2", TASK2, DAY_SECONDS, 0.9),
        Task("3", TASK3, WEEK_SECONDS, 0.9, fragmented=True),
    )
}


def prepare_malicious_pool(corpus: Corpus, groups: Iterable[SockpuppetGroup]) -> list[Account]:
    """Banned accounts outside every sockpuppet group, sorted by id.

    This is the documented pool-preparation contract for the prediction
    task: accounts flagged as puppets (or otherwise excluded upstream)
    must not enter the non-evading pool.
    """
    grouped: set[str] = set()
    for group in groups:
        grouped.update(group.member_ids)
    return [
        a for a in corpus.accounts if a.ban_time is not None and a.account_id not in grouped
    ]


def prepare_benign_pool(corpus: Corpus) -> list[Account]:
    """Never-banned accounts with at least one revision, sorted by id."""
    return [
        a
        for a in corpus.accounts
        if a.ban_time is None and corpus.revisions_of(a.account_id)
    ]


def _by_id_with_ban(accounts: Iterable[Account]) -> list[Account]:
    """``accounts`` sorted by id; raises ``MissingBanTimeError`` for one never banned."""
    accounts = sorted(accounts, key=lambda a: a.account_id)
    for account in accounts:
        if account.ban_time is None:
            raise MissingBanTimeError(account.account_id)
    return accounts


class _TimeIndex:
    """``pool`` sorted once by one integer time, so a time range is found by
    bisection instead of a scan of the whole pool."""

    def __init__(self, pool: Sequence[Account], time: Callable[[Account], int]):
        self.pool = pool
        self.order = sorted(range(len(pool)), key=lambda i: time(pool[i]))
        self.times = [time(pool[i]) for i in self.order]

    def within(self, low, high, after=None) -> list[Account]:
        """The accounts, in pool order, whose time is in ``[low, high]`` and,
        given ``after``, above it. Bounds computed in floats may be rounded
        outwards, so callers still apply their exact predicate."""
        start = bisect_left(self.times, low)
        if after is not None:
            start = max(start, bisect_right(self.times, after))
        return [self.pool[i] for i in sorted(self.order[start:bisect_right(self.times, high)])]


def match_task1(
    parents: Sequence[Account],
    malicious_pool: Sequence[Account],
    window_seconds: int = TASKS["1"].window_seconds,
) -> list[LabeledSample]:
    """One positive per parent plus pool accounts banned within the window."""
    _check_window(window_seconds)
    malicious_pool = _by_id_with_ban(malicious_pool)
    index = _TimeIndex(malicious_pool, lambda a: a.ban_time)
    samples = []
    for parent in _by_id_with_ban(parents):
        parent_id, ban = parent.account_id, parent.ban_time
        samples.append(LabeledSample(parent_id, parent_id, POSITIVE, TASK1))
        samples += [
            LabeledSample(parent_id, a.account_id, NEGATIVE, TASK1)
            for a in index.within(ban - window_seconds, ban + window_seconds)
            if abs(a.ban_time - ban) <= window_seconds and a.account_id != parent_id
        ]
    return samples


def _match_pairs(
    pairs: Sequence[EvasionPair],
    pool: Sequence[Account],
    corpus: Corpus,
    window_seconds: int,
    task: str,
    cap: int | None = None,
    seed: int = 0,
) -> list[LabeledSample]:
    """The task-2/3 pair rule of the module docstring over ``pool`` (sorted by
    id); with a ``cap``, more than ``cap`` matches are sampled down to ``cap``."""
    index = _TimeIndex(pool, lambda a: a.creation_time)
    samples = []
    for pair in sorted(pairs, key=lambda p: (p.parent_id, p.child_id)):
        parent_id, child_id = pair.parent_id, pair.child_id
        ban = corpus.account(parent_id).ban_time
        child_creation = corpus.account(child_id).creation_time
        if ban is None:
            raise MissingBanTimeError(parent_id)
        samples.append(LabeledSample(parent_id, child_id, POSITIVE, task))
        matched = [
            a
            for a in index.within(
                child_creation - window_seconds, child_creation + window_seconds, after=ban
            )
            if abs(a.creation_time - child_creation) <= window_seconds
            and a.creation_time > ban
            and a.account_id != child_id
        ]
        if cap is not None and len(matched) > cap:
            rng = random.Random(f"task2:{seed}:{child_id}")
            matched = rng.sample(matched, cap)
            matched.sort(key=lambda a: a.account_id)
        samples += [LabeledSample(parent_id, a.account_id, NEGATIVE, task) for a in matched]
    return samples


def match_task2(
    pairs: Sequence[EvasionPair],
    benign_pool: Sequence[Account],
    corpus: Corpus,
    window_seconds: int = TASKS["2"].window_seconds,
    cap: int = DEFAULT_TASK2_CAP,
    seed: int = 0,
) -> list[LabeledSample]:
    """True pairs vs. (parent, matched benign) pairs for early detection."""
    _check_window(window_seconds)
    check_counts(cap=cap)
    benign_pool = sorted(benign_pool, key=lambda a: a.account_id)
    for account in benign_pool:
        if account.ban_time is not None:
            raise InvalidInputError(f"benign pool contains banned account {account.account_id!r}")
        if not corpus.revisions_of(account.account_id):
            raise InvalidInputError(f"benign pool account {account.account_id!r} has no revisions")
    return _match_pairs(pairs, benign_pool, corpus, window_seconds, TASK2, cap, seed)


def match_task3(
    pairs: Sequence[EvasionPair],
    malicious_pool: Sequence[Account],
    corpus: Corpus,
    window_seconds: int = TASKS["3"].window_seconds,
) -> list[LabeledSample]:
    """True pairs vs. (parent, matched non-evading malicious) pairs."""
    _check_window(window_seconds)
    return _match_pairs(
        pairs, _by_id_with_ban(malicious_pool), corpus, window_seconds, TASK3
    )


def build_candidate_sets(
    pairs: Sequence[EvasionPair],
    corpus: Corpus,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> list[CandidateSet]:
    """One set per child of ``pairs``, by child id: its true parent plus up to
    ``max_candidates`` most-recently-banned other parents of ``pairs``.

    Candidates are restricted to parents banned strictly before the child's
    creation and ordered by (ban recency, id) for determinism. A child named
    by two pairs raises ``RecordParseError``, as it does in a pairs file.
    """
    check_counts(max_candidates=max_candidates)
    true_parent_of: dict[str, str] = {}
    for pair in pairs:
        if pair.child_id in true_parent_of:
            raise RecordParseError(None, None, f"child {pair.child_id!r} is named by two pairs")
        true_parent_of[pair.child_id] = pair.parent_id
    parents = (corpus.account(parent_id) for parent_id in set(true_parent_of.values()))
    recent = sorted(
        (a for a in parents if a.ban_time is not None),
        key=lambda a: (-a.ban_time, a.account_id),
    )
    negated_bans = [-a.ban_time for a in recent]
    sets = []
    for child_id in sorted(true_parent_of):
        child = corpus.account(child_id)
        true_parent = corpus.account(true_parent_of[child_id])
        if true_parent.ban_time is None or true_parent.ban_time >= child.creation_time:
            raise TrueParentMissingError(child_id)
        # ``recent`` from here on was banned strictly before the child's creation
        first = bisect_right(negated_bans, -child.creation_time)
        distractors = (
            a for a in islice(recent, first, None) if a.account_id != true_parent.account_id
        )
        candidates = sorted(
            [*islice(distractors, max_candidates), true_parent],
            key=lambda a: (-a.ban_time, a.account_id),
        )
        sets.append(
            CandidateSet(child_id, tuple(a.account_id for a in candidates), true_parent.account_id)
        )
    return sets


# ---------------------------------------------------------------------------
# label file serialization


_LABEL_NAMES = {POSITIVE: "positive", NEGATIVE: "negative"}
_LABELS = {name: label for label, name in _LABEL_NAMES.items()}


def write_samples(samples: Sequence[LabeledSample], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(f"{s.task}\t{s.parent_id}\t{s.other_id}\t{_LABEL_NAMES[s.label]}\n")


def read_samples(path: str | Path) -> list[LabeledSample]:
    """Read a samples file; sample ``i`` comes from line ``i + 1``.

    Raises ``RecordParseError`` for a line without exactly four tab-separated
    fields (a blank line included) or with a label other than ``positive`` or
    ``negative``.
    """
    samples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                raise RecordParseError(
                    str(path), lineno, f"expected 4 tab-separated fields, got {len(fields)}"
                )
            task, parent_id, other_id, label = fields
            if label not in _LABELS:
                raise RecordParseError(
                    str(path), lineno, f"label must be 'positive' or 'negative', got {label!r}"
                )
            samples.append(LabeledSample(parent_id, other_id, _LABELS[label], task))
    return samples
