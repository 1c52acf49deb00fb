"""Matched negative-sample construction for the three lifecycle tasks.

Every task yields one sample type, ``LabeledSample(parent_id, other_id,
label, task)``. In the pair tasks (2 and 3) ``other_id`` is the child or a
matched control paired with ``parent_id``. In a task-1 (prediction) sample
``parent_id`` is the anchoring parent and ``other_id`` the account being
classified: the parent itself for the positive, a matched non-evading
malicious account for each negative.

``TASKS`` holds each task's default window and train fraction, and whether
its test AUC is also split by evasion success; ``Task.match`` picks the pool
the negatives come from by the task's name. ``features.task_vectors`` holds
which feature row describes a sample: the account alone, or the pair.

``Task.match`` applies one rule to every task. Each anchor is a parent, the
other account of its positive sample, a window centre and an optional lower
bound; its negatives are the pool accounts, other than that positive
account, whose time is within the window of the centre and strictly above
the lower bound. Windows are inclusive at both ends.

- Task 1 anchors each distinct parent at its ban, with no lower bound; its
  pool is the banned accounts that no sockpuppet record names, timed by ban.
- Tasks 2 and 3 anchor each (parent, child) pair at the child's creation,
  above the parent's ban; their pools are timed by creation. Task 2's pool
  is the never-banned accounts with at least one revision (read from
  ``Corpus.revision_counts``, which a corpus loaded without its revisions
  holds too), and it keeps at most ``cap`` negatives per pair; task 3's pool
  is task 1's.

The pool is sorted once by its time and bisected per anchor, so the work
grows with the samples emitted, not with anchors x pool. Every check (window,
cap, unknown account, missing ban time) runs when ``Task.match`` is called;
the samples are then yielded, anchor by anchor, so the memory a caller that
streams them pays grows with one anchor's negatives, not with the samples.

Samples serialize one per line as ``task<TAB>parent_id<TAB>other_id<TAB>label``
with the label spelled exactly ``positive`` or ``negative``.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .corpus import Account, Corpus, DAY_SECONDS, EvasionPair, WEEK_SECONDS
from .errors import (
    InvalidConfigError,
    MissingBanTimeError,
    RecordParseError,
    TrueParentMissingError,
)


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


# ``LabeledSample`` from one tuple of its fields, with no Python-level call
_labeled = partial(tuple.__new__, LabeledSample)


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
        pairs: Sequence[EvasionPair],
        window_seconds: int | None = None,
        cap: int = DEFAULT_TASK2_CAP,
        seed: int = 0,
    ) -> Iterator[LabeledSample]:
        """Positives from ``pairs`` and matched negatives from this task's
        pool, by the rule of the module docstring; ``window_seconds`` defaults
        to this task's window.

        Every check runs at the call; the samples are then yielded, each
        anchor's positive before its negatives.
        """
        if window_seconds is None:
            window_seconds = self.window_seconds
        _check_window(window_seconds)
        # corpus accounts are in id order, so each pool and its matches are too
        if self.name == TASK2:
            check_counts(cap=cap)
            counts = corpus.revision_counts
            pool = [a for a in corpus.accounts if a.ban_time is None and a.account_id in counts]
        else:
            named = {m for record in corpus.sockpuppet_records for m in record.member_ids}
            pool = [
                a for a in corpus.accounts
                if a.ban_time is not None and a.account_id not in named
            ]
        index = _TimeIndex(pool, attrgetter("ban_time" if self.name == TASK1 else "creation_time"))
        anchors = sorted((p.parent_id, p.child_id) for p in pairs)
        if self.name == TASK1:
            # an unknown parent or child fails here, before any missing ban below
            for parent_id, child_id in anchors:
                corpus.account(parent_id)
                corpus.account(child_id)
            # a parent named by several pairs anchors one positive
            parent_ids = dict.fromkeys(parent_id for parent_id, _ in anchors)
            anchors = [(parent_id, parent_id) for parent_id in parent_ids]
        windows = []
        for parent_id, positive_id in anchors:
            ban = corpus.account(parent_id).ban_time
            creation = corpus.account(positive_id).creation_time
            if ban is None:
                raise MissingBanTimeError(parent_id)
            centre, after = (ban, None) if self.name == TASK1 else (creation, ban)
            windows.append((parent_id, positive_id, centre, after))

        def samples() -> Iterator[LabeledSample]:
            for parent_id, positive_id, centre, after in windows:
                yield LabeledSample(parent_id, positive_id, POSITIVE, self.name)
                matched = index.within(centre, window_seconds, after)
                if positive_id in matched:
                    matched.remove(positive_id)
                if self.name == TASK2 and len(matched) > cap:
                    rng = random.Random(f"task2:{seed}:{positive_id}")
                    matched = sorted(rng.sample(matched, cap))
                yield from map(_labeled, zip(
                    repeat(parent_id), matched, repeat(NEGATIVE), repeat(self.name)
                ))

        return samples()


TASKS = {
    t.number: t
    for t in (
        Task("1", TASK1, WEEK_SECONDS, 0.8),
        Task("2", TASK2, DAY_SECONDS, 0.9),
        Task("3", TASK3, WEEK_SECONDS, 0.9, fragmented=True),
    )
}


class _TimeIndex:
    """The account ids of ``pool`` sorted once by one integer time, so a time
    range is found by bisection instead of a scan of the whole pool."""

    def __init__(self, pool: Sequence[Account], time: Callable[[Account], int]):
        by_time = sorted(pool, key=time)
        self.ids = [a.account_id for a in by_time]
        self.times = [time(a) for a in by_time]

    def within(self, centre, window, after=None) -> list[str]:
        """A new list of the ids, in id order, of the accounts whose time is
        within ``window`` of ``centre`` and, given ``after``, above it."""
        times = self.times
        start = bisect_left(times, centre - window)
        if after is not None:
            start = max(start, bisect_right(times, after))
        stop = bisect_right(times, centre + window)
        # bounds computed in floats may be rounded outwards: the exact test
        # decides, and the times that pass it are a run of the sorted times
        while start < stop and not abs(times[start] - centre) <= window:
            start += 1
        while start < stop and not abs(times[stop - 1] - centre) <= window:
            stop -= 1
        return sorted(self.ids[start:stop])


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


def write_samples(samples: Iterable[LabeledSample], path: str | Path) -> int:
    """Write ``samples`` one line each as they come; return the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(f"{s.task}\t{s.parent_id}\t{s.other_id}\t{_LABEL_NAMES[s.label]}\n")
            count += 1
    return count


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
