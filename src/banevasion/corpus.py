"""Data model, file ingestion, and seeded synthetic-corpus generation.

File formats (UTF-8, one JSON object per line):

* accounts file:  {"account_id", "username", "creation_time", "ban_time"}
  with ``ban_time`` null for accounts that were never banned
* revisions file: {"account_id", "page_id", "timestamp", "added_text",
  "deleted_text", "comment"}
* records file:   {"member_ids": [...]}  (undisclosed multi-account records)
* pairs file:     {"parent_id", "child_id", "group_id"?}
  with no two lines naming one child

Ids and texts are JSON strings and times JSON integers; the reader coerces
nothing. ``load_corpus`` only parses, a line as ``Corpus`` asks for it, so a
malformed line fails at its ``file:line``; ``Corpus`` alone checks the seven
corpus rules (unique ids, no tab or line break in an id, ban after creation,
known revision owner, no revision before creation, at least 2 distinct record
members, known members), once each, on each record as it arrives, naming its
``file:line`` when it was read. Timestamps are integer epoch seconds UTC
throughout. Loaded corpora are immutable and iterate in a canonical order
(accounts by id, revisions by (account_id, timestamp, page_id), records by
sorted member tuple), so a save/load round trip is byte identical. ``Corpus``
keeps each revision once, under its owner, and builds the revision order per
owner: one pass groups the revisions by account, each owner's list is sorted
by (timestamp, page_id), and the owners follow in id order; the sorts are
stable, so revisions equal in all three keep their input order. Accounts,
revisions and evasion pairs are named tuples; ``load_corpus`` interns account
and page ids, so a revision shares its owner's id string and its page's. An
``EvasionPair`` without a group id holds ``None``, as its line has no key.
``load_corpus(..., keep_revisions=False)`` parses and checks every revision
line alike but keeps only each owner's count of them, for the commands
that read no revision field (``ingest`` without ``--out-dir``,
``extract-pairs``, ``match``).

Output contract of the synthetic generator: its corpus bytes depend only on
the seed, the ``SynthConfig`` knobs and CPython's Mersenne Twister draws,
where each index is ``getrandbits(n.bit_length())`` redrawn until below n (the
rejection draw behind ``Random.choice``, ``randint``, ``randrange`` and
``sample``, which the revision, word and username draws and
``_Generator._sample`` inline). ``tests/test_golden.py`` pins those bytes.
The generator yields one ``(account, revisions)`` block per account, in id
order, each block's revisions in the order ``Corpus`` gives their owner, and
collects the records and true pairs as it goes. Ids are ``a%06d``, so that
order holds up to 999 999 accounts, which ``SynthConfig.validate`` enforces.
One line writer takes such blocks: ``save_corpus`` feeds it a corpus's
accounts with their revisions, and ``write_synthetic`` the generator's blocks
as they are drawn, so the ``generate`` command never holds the corpus.
``generate_synthetic`` builds its ``Corpus`` from the same blocks.
"""

from __future__ import annotations

import gc
import json
import math
import random
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    InvalidConfigError,
    RecordParseError,
    ReferentialIntegrityError,
    RevisionsNotLoadedError,
)

DAY_SECONDS = 86_400
WEEK_SECONDS = 604_800

# Simulation epoch for synthetic corpora: 2020-09-13T12:26:40Z.
_SYNTH_BASE_TIME = 1_600_000_000
_SYNTH_HORIZON_DAYS = 365

_ID_BREAKS = frozenset("\t\r\n")
# ids are ``a%06d``, so their order is their numeric order up to this many
_MAX_SYNTH_ACCOUNTS = 999_999


class Account(NamedTuple):
    account_id: str
    username: str
    creation_time: int
    ban_time: int | None = None

    @property
    def duration_seconds(self) -> int | None:
        """Lifetime from creation to ban; None while unbanned."""
        if self.ban_time is None:
            return None
        return self.ban_time - self.creation_time


class Revision(NamedTuple):
    account_id: str
    page_id: str
    timestamp: int
    added_text: str = ""
    deleted_text: str = ""
    comment: str = ""


class EvasionPair(NamedTuple):
    parent_id: str
    child_id: str
    group_id: int | None = None


@dataclass(frozen=True)
class SockpuppetRecord:
    member_ids: frozenset[str]


# the order of one owner's revisions
_BY_TIME = attrgetter("timestamp", "page_id")


@dataclass(frozen=True)
class Corpus:
    """Immutable, validated collection of accounts, revisions, and records.

    ``accounts``, ``revisions`` and ``sockpuppet_records`` may be any
    iterables, each consumed once, in that order, each item checked as it
    comes. ``revisions`` is an input only: each revision, or in a light load
    (``keep_revisions=False``) just each revision's ``(account_id, page_id,
    timestamp)``, which the rules read. Each revision is kept once, in
    ``revisions_by_account``, which maps each account with revisions, in id
    order, to its revisions in canonical order; ``revision_counts`` maps the
    same accounts to their numbers. A light load keeps the counts alone:
    ``revisions_by_account`` is None, and ``revisions_of`` raises
    ``RevisionsNotLoadedError``, so such a corpus never passes for one without
    revisions.
    """

    accounts: tuple[Account, ...]
    revisions: InitVar[Iterable[Revision] | Iterable[tuple[str, str, int]]]
    sockpuppet_records: tuple[SockpuppetRecord, ...]
    accounts_by_id: dict[str, Account] = field(init=False, repr=False, compare=False)
    # compared (two full corpora differ by any revision, two corpora without
    # revisions by their counts), but not hashed, as a dict cannot be
    revisions_by_account: dict[str, tuple[Revision, ...]] | None = field(
        init=False, repr=False, hash=False
    )
    revision_counts: dict[str, int] = field(init=False, repr=False, hash=False)
    # Where the accounts, revisions and records were read: one (path, line
    # numbers) pair each, so an error names its file and line.
    _origin: InitVar[tuple[tuple[str, Sequence[int]], ...] | None] = None
    keep_revisions: InitVar[bool] = True

    def __post_init__(self, revisions, _origin, keep_revisions):
        def at(part: int, index: int) -> tuple[str | None, int | None]:
            if _origin is None:
                return None, None
            path, lines = _origin[part]
            return path, lines[index]

        # Each rule is checked here only, on each item as it arrives.
        by_id: dict[str, Account] = {}
        for i, acct in enumerate(self.accounts):
            if acct.account_id in by_id:
                raise RecordParseError(*at(0, i), f"duplicate account id {acct.account_id!r}")
            # a samples file holds ids in tab-separated lines
            if not _ID_BREAKS.isdisjoint(acct.account_id):
                raise RecordParseError(
                    *at(0, i), f"account id {acct.account_id!r} holds a tab or line break"
                )
            if acct.ban_time is not None and acct.ban_time <= acct.creation_time:
                raise RecordParseError(
                    *at(0, i),
                    f"account {acct.account_id!r}: ban_time must be after creation_time",
                )
            by_id[acct.account_id] = acct

        # rev[0], rev[1], rev[2]: a revision's account_id, page_id and
        # timestamp; a light load counts each owner's revisions and keeps none
        counts: defaultdict[str, int] = defaultdict(int)
        owned: defaultdict[str, list[Revision]] = defaultdict(list)
        for i, rev in enumerate(revisions):
            owner = by_id.get(rev[0])
            if owner is None:
                raise ReferentialIntegrityError(rev[0], "revision owner", *at(1, i))
            if rev[2] < owner.creation_time:
                raise RecordParseError(
                    *at(1, i), f"revision on {rev[1]!r} predates creation of {rev[0]!r}"
                )
            counts[rev[0]] += 1
            if keep_revisions:
                owned[rev[0]].append(rev)

        records = []
        for i, rec in enumerate(self.sockpuppet_records):
            if len(rec.member_ids) < 2:
                raise RecordParseError(*at(2, i), "sockpuppet record needs at least 2 members")
            for member in sorted(rec.member_ids):
                if member not in by_id:
                    raise ReferentialIntegrityError(member, "record member", *at(2, i))
            records.append(rec)

        by_id = dict(sorted(by_id.items()))
        counts = dict(sorted(counts.items()))
        # stable sorts, so full-key ties keep their input order; each owner's
        # list is dropped once its tuple is built
        by_owner = (
            {k: tuple(sorted(owned.pop(k), key=_BY_TIME)) for k in counts}
            if keep_revisions else None
        )
        records = tuple(sorted(records, key=lambda r: tuple(sorted(r.member_ids))))
        object.__setattr__(self, "accounts", tuple(by_id.values()))
        object.__setattr__(self, "sockpuppet_records", records)
        object.__setattr__(self, "accounts_by_id", by_id)
        object.__setattr__(self, "revisions_by_account", by_owner)
        object.__setattr__(self, "revision_counts", counts)

    def account(self, account_id: str) -> Account:
        try:
            return self.accounts_by_id[account_id]
        except KeyError:
            raise ReferentialIntegrityError(account_id) from None

    def revisions_of(self, account_id: str) -> tuple[Revision, ...]:
        if self.revisions_by_account is None:
            raise RevisionsNotLoadedError()
        return self.revisions_by_account.get(account_id, ())


# ---------------------------------------------------------------------------
# ingestion / serialization


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector over a bulk build of records.

    The records hold no reference cycles, so the collections their allocations
    trigger find nothing. The collector is re-enabled only if it was on.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# One decoder and one encoder for every line; ``json.dumps`` with these
# arguments would build a new encoder per call. ``_scan`` is the decoder's
# scanner, called directly on a line; ``_decode`` parses only the lines it
# rejects, so their errors are the decoder's own. ``_quote`` is the string
# escaping ``_encode`` applies with ``ensure_ascii=False``.
_DECODER = json.JSONDecoder()
_decode = _DECODER.decode
_scan = json.scanner.make_scanner(_DECODER)
_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode
_quote = json.encoder.encode_basestring

# the whitespace JSON allows around a value; ``str.strip()`` would also take
# a form feed or a no-break space, which ``json`` rejects
_JSON_SPACE = " \t\r\n"

_MISSING = object()
_WRONG_KIND = {
    str: "field {!r} must be a string",
    int: "field {!r} must be an integer",
    list: "{} must be an array",
}


def _read_jsonl(path: str | Path) -> Iterator[tuple[str, int, dict]]:
    """Yield ``(path, line number, object)`` for each line that holds more
    than JSON whitespace."""
    p = str(path)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip(_JSON_SPACE)
            if not line:
                continue
            try:
                obj, end = _scan(line, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(line):
                try:
                    obj = _decode(line)
                except json.JSONDecodeError as exc:
                    raise RecordParseError(p, lineno, f"bad JSON: {exc.msg}") from None
            if not isinstance(obj, dict):
                raise RecordParseError(p, lineno, "expected a JSON object")
            yield p, lineno, obj


def _write_jsonl(path: str | Path, objects: Iterable[dict]) -> None:
    """Write each object as one ``_encode`` line."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(_encode(obj) + "\n")


def _field(obj: dict, key: str, kind: type, path: str, lineno: int, default=_MISSING):
    """``obj[key]``, which must be exactly of ``kind`` (so a bool is no
    integer); an absent key gives ``default`` and is an error without one."""
    value = obj.get(key, default)
    if type(value) is kind or (value is default and default is not _MISSING):
        return value
    if value is _MISSING:
        raise RecordParseError(path, lineno, f"missing field {key!r}")
    raise RecordParseError(path, lineno, _WRONG_KIND[kind].format(key))


@_gc_paused()
def load_corpus(
    accounts_path: str | Path,
    revisions_path: str | Path,
    records_path: str | Path,
    keep_revisions: bool = True,
) -> Corpus:
    """Load a corpus from the three line-delimited files.

    ``Corpus`` consumes one lazy reader per file, which parses a line into
    its record when asked for it, so the first faulty line in reading order
    (accounts, revisions, records) is the one reported at its file and line:
    bad JSON, a missing or mistyped field or member id, or a broken rule.
    A record's fields are read and type-checked at once; only a record that
    fails goes through ``_field``, in field order, to name its first bad field.
    With ``keep_revisions=False`` only each revision's ``(account_id,
    page_id, timestamp)`` reaches ``Corpus``, which keeps one count per owner.
    """
    intern = sys.intern
    origin = tuple(
        (str(path), array("I")) for path in (accounts_path, revisions_path, records_path)
    )
    account_lines, revision_lines, record_lines = (lines for _, lines in origin)

    # a line's number is stored before its record is yielded: ``Corpus``
    # looks it up if that record breaks a rule
    def accounts() -> Iterator[Account]:
        for p, lineno, obj in _read_jsonl(accounts_path):
            get = obj.get
            account_id, username, creation, ban = (
                get("account_id"), get("username"), get("creation_time"), get("ban_time")
            )
            if not (
                type(account_id) is type(username) is str
                and type(creation) is int
                and (ban is None or type(ban) is int)
            ):
                account_id, username, creation, ban = (
                    _field(obj, "account_id", str, p, lineno),
                    _field(obj, "username", str, p, lineno),
                    _field(obj, "creation_time", int, p, lineno),
                    _field(obj, "ban_time", int, p, lineno, None),
                )
            account_lines.append(lineno)
            yield Account(intern(account_id), username, creation, ban)

    def revisions() -> Iterator[Revision | tuple[str, str, int]]:
        for p, lineno, obj in _read_jsonl(revisions_path):
            get = obj.get
            account_id, page_id, timestamp, added, deleted, comment = (
                get("account_id"), get("page_id"), get("timestamp"),
                get("added_text", ""), get("deleted_text", ""), get("comment", ""),
            )
            if not (
                type(account_id) is type(page_id) is type(added) is type(deleted)
                is type(comment) is str
                and type(timestamp) is int
            ):
                account_id, page_id, timestamp, added, deleted, comment = (
                    _field(obj, "account_id", str, p, lineno),
                    _field(obj, "page_id", str, p, lineno),
                    _field(obj, "timestamp", int, p, lineno),
                    _field(obj, "added_text", str, p, lineno, ""),
                    _field(obj, "deleted_text", str, p, lineno, ""),
                    _field(obj, "comment", str, p, lineno, ""),
                )
            revision_lines.append(lineno)
            yield (Revision(intern(account_id), intern(page_id), timestamp, added, deleted, comment)
                   if keep_revisions else (intern(account_id), page_id, timestamp))

    def records() -> Iterator[SockpuppetRecord]:
        for p, lineno, obj in _read_jsonl(records_path):
            member_ids = _field(obj, "member_ids", list, p, lineno)
            for member in member_ids:
                if type(member) is not str:
                    raise RecordParseError(p, lineno, f"member id {member!r} must be a string")
            record_lines.append(lineno)
            yield SockpuppetRecord(frozenset(member_ids))

    return Corpus(accounts(), revisions(), records(), origin, keep_revisions)


def _write_corpus(
    blocks: Iterable[tuple[Account, Sequence[Revision]]],
    records: Iterable[SockpuppetRecord],
    accounts_path: str | Path,
    revisions_path: str | Path,
    records_path: str | Path,
) -> tuple[int, int]:
    """Write each ``(account, revisions)`` block as it comes, then the
    records in canonical order; return the account and revision counts.

    Blocks in account id order, each with its revisions in ``Corpus``'s
    order, give the canonical files. ``records`` is read only after the last
    block, so a generator may fill it while its blocks are drawn. Each account
    and revision line is formatted directly, with sorted keys and strings
    escaped by ``_quote``, which is the line ``_encode`` gives. A record with
    a field not exactly of its type (an id, name or text that is not a
    ``str``, a time that is not an ``int``, a ban time neither ``None`` nor an
    ``int``), which a corpus built in memory can hold, goes through
    ``_encode`` itself.
    """
    n_accounts = n_revisions = 0
    with open(accounts_path, "w", encoding="utf-8") as accounts_fh, \
            open(revisions_path, "w", encoding="utf-8") as revisions_fh:
        write_account, write_revision = accounts_fh.write, revisions_fh.write
        for a, revisions in blocks:
            account_id, username, creation, ban = a
            if (
                type(account_id) is type(username) is str
                and type(creation) is int
                and (ban is None or type(ban) is int)
            ):
                write_account(
                    f'{{"account_id":{_quote(account_id)},'
                    f'"ban_time":{"null" if ban is None else ban},'
                    f'"creation_time":{creation},"username":{_quote(username)}}}\n'
                )
            else:
                write_account(_encode(a._asdict()) + "\n")
            n_accounts += 1
            for r in revisions:
                account_id, page_id, timestamp, added, deleted, comment = r
                if (
                    type(account_id) is type(page_id) is type(added) is type(deleted)
                    is type(comment) is str
                    and type(timestamp) is int
                ):
                    write_revision(
                        f'{{"account_id":{_quote(account_id)},"added_text":{_quote(added)},'
                        f'"comment":{_quote(comment)},"deleted_text":{_quote(deleted)},'
                        f'"page_id":{_quote(page_id)},"timestamp":{timestamp}}}\n'
                    )
                else:
                    write_revision(_encode(r._asdict()) + "\n")
            n_revisions += len(revisions)
    _write_jsonl(
        records_path,
        ({"member_ids": m} for m in sorted(sorted(rec.member_ids) for rec in records)),
    )
    return n_accounts, n_revisions


def save_corpus(
    corpus: Corpus,
    accounts_path: str | Path,
    revisions_path: str | Path,
    records_path: str | Path,
) -> None:
    """Write a corpus back out in canonical order (round-trip stable), each
    account with its revisions, through ``_write_corpus``. A corpus without
    its revisions raises ``RevisionsNotLoadedError`` before any file is
    opened.
    """
    by_owner = corpus.revisions_by_account
    if by_owner is None:
        raise RevisionsNotLoadedError()
    _write_corpus(
        ((a, by_owner.get(a.account_id, ())) for a in corpus.accounts),
        corpus.sockpuppet_records,
        accounts_path, revisions_path, records_path,
    )


def save_pairs(pairs: Iterable[EvasionPair], path: str | Path) -> None:
    """Write each pair as one object; a ``None`` group id writes no key."""
    _write_jsonl(path, ({k: v for k, v in p._asdict().items() if v is not None} for p in pairs))


def save_groups(groups, path: str | Path) -> None:
    """Write each merged group's id, master and sorted member ids, one object per line."""
    _write_jsonl(path, (
        {"group_id": g.group_id, "master_id": g.master_id, "member_ids": sorted(g.member_ids)}
        for g in groups
    ))


def load_pairs(path: str | Path, corpus: Corpus | None = None) -> list[EvasionPair]:
    """Read a pairs file, one ``EvasionPair`` per line.

    Given the corpus, a line naming an unknown account, a parent never
    banned, or a child not created strictly after the parent's ban (as
    every extracted child is) fails at its ``file:line``;
    with or without it, so does a line naming a child an earlier line names,
    since a child has one parent.
    """
    pairs, children = [], set()
    for p, lineno, obj in _read_jsonl(path):
        parent_id = _field(obj, "parent_id", str, p, lineno)
        child_id = _field(obj, "child_id", str, p, lineno)
        group_id = _field(obj, "group_id", int, p, lineno, None)
        if corpus is not None:
            _check_pair(corpus, parent_id, child_id, p, lineno)
        if child_id in children:
            raise RecordParseError(p, lineno, f"child {child_id!r} is named by an earlier line")
        children.add(child_id)
        pairs.append(EvasionPair(parent_id, child_id, group_id))
    return pairs


def _check_pair(corpus: Corpus, parent_id: str, child_id: str, path: str, lineno: int) -> None:
    for account_id, role in ((parent_id, "pair parent"), (child_id, "pair child")):
        if account_id not in corpus.accounts_by_id:
            raise ReferentialIntegrityError(account_id, role, path, lineno)
    ban_time = corpus.accounts_by_id[parent_id].ban_time
    if ban_time is None:
        raise RecordParseError(path, lineno, f"parent {parent_id!r} was never banned")
    if not corpus.accounts_by_id[child_id].creation_time > ban_time:
        raise RecordParseError(
            path, lineno, f"child {child_id!r} was not created after the ban of {parent_id!r}"
        )


# ---------------------------------------------------------------------------
# synthetic corpus generation


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the seeded synthetic corpus.

    Rates live in [0, 1]. ``evasion_rate`` is the share of sockpuppet groups
    whose second account is created after the first one's ban (the rest run
    both accounts concurrently). ``page_overlap`` / ``vocab_reuse`` /
    ``username_mutation_rate`` control how strongly a successor account
    imitates its banned predecessor. ``activity_contrast`` blends evader
    activity profiles from the common malicious baseline (0) to a distinct
    long-lived, many-page profile (1); ``malicious_text_rate`` mixes
    flagged vocabulary into the text of malicious accounts.

    Not every knob plants nothing at 0. ``username_mutation_rate=0`` copies
    the parent's username exactly. The page and vocabulary shares are rounded
    per account (``round(n * rate)`` of a child's n pages or words), so a
    small nonzero rate can share nothing. With every behavioral knob at 0,
    positives are indistinguishable from their matched controls only in the
    features the models read, which include no username.
    """

    n_groups: int = 60
    n_benign: int = 600
    n_nonevading_malicious: int = 300
    evasion_rate: float = 1.0
    username_mutation_rate: float = 0.3
    page_overlap: float = 0.5
    vocab_reuse: float = 0.5
    idle_gap_days: float = 10.0
    activity_contrast: float = 1.0
    malicious_text_rate: float = 0.25
    seed: int = 0

    def validate(self) -> None:
        for name in ("n_groups", "n_benign", "n_nonevading_malicious"):
            if getattr(self, name) < 0:
                raise InvalidConfigError(name, "must be >= 0")
        # a group makes at most 3 accounts; the count that would take the ids
        # past a999999 is named, in the order the generator makes them
        total = 0
        for name, per in (("n_groups", 3), ("n_nonevading_malicious", 1), ("n_benign", 1)):
            total += per * getattr(self, name)
            if total > _MAX_SYNTH_ACCOUNTS:
                raise InvalidConfigError(
                    name, f"must keep 3 * groups + malicious + benign <= {_MAX_SYNTH_ACCOUNTS}"
                )
        for name in (
            "evasion_rate",
            "username_mutation_rate",
            "page_overlap",
            "vocab_reuse",
            "activity_contrast",
            "malicious_text_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidConfigError(name, "must be in [0, 1]")
        # the generator draws a gap of 0.5 to 1.5 times the mean, in whole seconds
        shortest, longest = (f * self.idle_gap_days * DAY_SECONDS for f in (0.5, 1.5))
        if not (shortest >= 1 and longest < math.inf):
            raise InvalidConfigError("idle_gap_days", "must give gaps >= 1 s, finite in seconds")


@dataclass(frozen=True)
class SyntheticCorpus:
    """A generated corpus plus its ground-truth evasion pairs."""

    corpus: Corpus
    true_pairs: tuple[EvasionPair, ...]


_FUNCTION_WORDS = (
    "the a an and or but if of to in on at with from by it that this is was".split()
)
_MALICIOUS_WORDS = (
    "damn crap hell dang stupid lol omg yeah gonna wanna hate angry awful "
    "nude naked junk trash".split()
)
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def _draw_table(words: Sequence[str]) -> tuple[Sequence[str], int, int]:
    """``words`` with its length and the bit length of one draw from it."""
    if not words:
        raise IndexError("Cannot choose from an empty sequence")
    return words, len(words), len(words).bit_length()


_FUNCTION_DRAW = _draw_table(_FUNCTION_WORDS)
_MALICIOUS_DRAW = _draw_table(_MALICIOUS_WORDS)
_SYLLABLE_DRAW = _draw_table(_SYLLABLES)


def _make_words(rng: random.Random, count: int, lo: int = 2, hi: int = 4) -> list[str]:
    """``count`` distinct words of ``randint(lo, hi)`` syllables, each a
    ``choice``; the draws are inlined as in ``_Generator._text``."""
    getrandbits = rng.getrandbits
    syllables, n, k = _SYLLABLE_DRAW
    span = hi - lo + 1
    k_span = span.bit_length()
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        r = getrandbits(k_span)
        while r >= span:
            r = getrandbits(k_span)
        parts = []
        for _ in range(lo + r):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            parts.append(syllables[r])
        w = "".join(parts)
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _lerp(a: float, b: float, t: float) -> float:
    return a + (b - a) * t


@dataclass
class _ActivityProfile:
    duration_days_lo: float
    duration_days_hi: float
    revisions_lo: int
    revisions_hi: int
    pages_lo: int
    pages_hi: int


# Common short-lived malicious baseline vs. the distinct profiles evaders
# show (long-lived many-page parents, medium-lived children).
_BASELINE = _ActivityProfile(0.04, 4.0, 1, 8, 1, 4)
_PARENT_DISTINCT = _ActivityProfile(12.0, 36.0, 8, 25, 4, 10)
_CHILD_DISTINCT = _ActivityProfile(1.5, 30.0, 4, 12, 2, 6)


def _blend(base: _ActivityProfile, target: _ActivityProfile, c: float) -> _ActivityProfile:
    return _ActivityProfile(
        _lerp(base.duration_days_lo, target.duration_days_lo, c),
        _lerp(base.duration_days_hi, target.duration_days_hi, c),
        round(_lerp(base.revisions_lo, target.revisions_lo, c)),
        round(_lerp(base.revisions_hi, target.revisions_hi, c)),
        round(_lerp(base.pages_lo, target.pages_lo, c)),
        round(_lerp(base.pages_hi, target.pages_hi, c)),
    )


class _Generator:
    def __init__(self, config: SynthConfig):
        config.validate()
        self.config = config
        # str seeds hash via SHA-512, stable across processes and platforms
        self.rng = random.Random(f"banevasion-synth:{config.seed}")
        n_accounts_estimate = (
            3 * config.n_groups + config.n_benign + config.n_nonevading_malicious
        )
        self.page_universe = [
            f"page-{i:05d}" for i in range(max(100, 2 * n_accounts_estimate))
        ]
        self.topical_vocab = _make_words(self.rng, 600)
        self.comment_vocab = _make_words(self.rng, 80, lo=1, hi=3)
        self.next_id = 0
        self.records: list[SockpuppetRecord] = []
        self.true_pairs: list[EvasionPair] = []

    def _new_id(self) -> str:
        self.next_id += 1
        return f"a{self.next_id:06d}"

    def _username(self) -> str:
        word = _make_words(self.rng, 1)[0]
        getrandbits = self.rng.getrandbits
        r = getrandbits(7)  # randint(0, 99)
        while r >= 100:
            r = getrandbits(7)
        return f"{word}{r:02d}"

    def _mutate_username(self, base: str) -> str:
        rate = self.config.username_mutation_rate
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
        return "".join(
            self.rng.choice(alphabet) if self.rng.random() < rate else ch for ch in base
        )

    def _persona(self, profile: _ActivityProfile) -> dict:
        """Sample one account's behavioral parameters."""
        n_pages = self.rng.randint(profile.pages_lo, profile.pages_hi)
        return {
            "duration": max(
                3600,
                int(
                    self.rng.uniform(profile.duration_days_lo, profile.duration_days_hi)
                    * DAY_SECONDS
                ),
            ),
            "n_revisions": self.rng.randint(profile.revisions_lo, profile.revisions_hi),
            "home_pages": self._sample(self.page_universe, n_pages),
            "vocab": self._sample(self.topical_vocab, 25),
            "comment_words": self._sample(self.comment_vocab, 6),
        }

    def _inherit(self, parent_persona: dict, child_persona: dict) -> None:
        """Rewrite child pages/vocab to overlap the parent at the knob rates."""
        cfg = self.config
        pages = child_persona["home_pages"]
        n_shared = round(len(pages) * cfg.page_overlap)
        shared = [
            parent_persona["home_pages"][i % len(parent_persona["home_pages"])]
            for i in range(n_shared)
        ]
        child_persona["home_pages"] = shared + pages[n_shared:]

        n_vocab = round(len(child_persona["vocab"]) * cfg.vocab_reuse)
        reused = self._sample(
            parent_persona["vocab"], min(n_vocab, len(parent_persona["vocab"]))
        )
        child_persona["vocab"] = reused + child_persona["vocab"][len(reused):]

        n_comment = round(len(child_persona["comment_words"]) * cfg.vocab_reuse)
        reused_c = self._sample(
            parent_persona["comment_words"],
            min(n_comment, len(parent_persona["comment_words"])),
        )
        child_persona["comment_words"] = (
            reused_c + child_persona["comment_words"][len(reused_c):]
        )

    # The per-token draws below inline CPython's
    # ``Random._randbelow_with_getrandbits``, since a call per draw was most of
    # the build's time: for a bound n, ``r = getrandbits(n.bit_length())``
    # until ``r < n``. So ``seq[r]`` is ``choice(seq)``, ``a + r`` with
    # n = b - a + 1 is ``randint(a, b)`` and ``r`` is ``randrange(n)``, draw for
    # draw; ``test_corpus`` checks them against those calls.

    def _sample(self, population: Sequence, k: int) -> list:
        """``Random.sample(population, k)`` draw for draw, for
        ``0 <= k <= len(population)``: CPython draws from a shrinking copy of
        the population when that is smaller than a k-entry set, and otherwise
        redraws an index already selected."""
        getrandbits = self.rng.getrandbits
        n = len(population)
        result = [None] * k
        setsize = 21  # CPython's: a small set's size minus an empty list's
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        if n <= setsize:
            pool = list(population)
            for i in range(k):
                m = n - i
                b = m.bit_length()
                j = getrandbits(b)
                while j >= m:
                    j = getrandbits(b)
                result[i] = pool[j]
                pool[j] = pool[m - 1]
        else:
            selected = set()
            b = n.bit_length()
            for i in range(k):
                j = getrandbits(b)
                while j >= n or j in selected:
                    j = getrandbits(b)
                selected.add(j)
                result[i] = population[j]
        return result

    def _text(self, vocab: tuple, malicious: bool, lo: int = 6, hi: int = 14) -> str:
        """``lo..hi`` tokens of function, malicious and ``vocab`` words;
        ``vocab`` is a ``_draw_table``."""
        getrandbits, random = self.rng.getrandbits, self.rng.random
        rate = self.config.malicious_text_rate
        n = hi - lo + 1
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        tokens = []
        for _ in range(lo + r):
            if random() < 0.4:
                words, n, k = _FUNCTION_DRAW
            elif malicious and random() < rate:
                words, n, k = _MALICIOUS_DRAW
            else:
                words, n, k = vocab
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            tokens.append(words[r])
        return " ".join(tokens)

    def _emit_revisions(
        self, account: Account, persona: dict, malicious: bool, active_until: int
    ) -> list[Revision]:
        """The account's revisions, in draw order: by timestamp, ties as drawn."""
        getrandbits, random = self.rng.getrandbits, self.rng.random
        start = account.creation_time
        span = max(1, active_until - start)
        k = span.bit_length()
        times = []
        for _ in range(persona["n_revisions"]):
            r = getrandbits(k)
            while r >= span:
                r = getrandbits(k)
            times.append(r)
        times.sort()
        vocab = _draw_table(persona["vocab"])
        pages, n_pages, k_pages = _draw_table(persona["home_pages"])
        words, n_words, k_words = _draw_table(persona["comment_words"])
        text = self._text
        revisions = []
        for t in times:
            deleted = text(vocab, malicious, 2, 5) if random() < 0.3 else ""
            r = getrandbits(k_pages)
            while r >= n_pages:
                r = getrandbits(k_pages)
            page = pages[r]
            added = text(vocab, malicious)
            r = getrandbits(2)  # randint(2, 4)
            while r >= 3:
                r = getrandbits(2)
            comment = []
            for _ in range(2 + r):
                r = getrandbits(k_words)
                while r >= n_words:
                    r = getrandbits(k_words)
                comment.append(words[r])
            revisions.append(
                Revision(account.account_id, page, start + t, added, deleted, " ".join(comment))
            )
        return revisions

    def _block(
        self, account: Account, persona: dict, malicious: bool, active_until: int
    ) -> tuple[Account, list[Revision]]:
        """The account with its revisions in ``Corpus``'s order: a stable
        (timestamp, page_id) sort, which moves timestamp ties only."""
        revisions = self._emit_revisions(account, persona, malicious, active_until)
        revisions.sort(key=_BY_TIME)
        return account, revisions

    def _banned_account(
        self, username: str, creation: int, persona: dict
    ) -> tuple[Account, list[Revision]]:
        acct = Account(self._new_id(), username, creation, creation + persona["duration"])
        return self._block(acct, persona, True, acct.ban_time)

    def blocks(self) -> Iterator[tuple[Account, list[Revision]]]:
        """Draw the corpus, yielding each account as it is made (so in id
        order) with its revisions; the records and true pairs are collected in
        ``records`` and ``true_pairs``, complete once the last block is drawn."""
        cfg = self.config
        rng = self.rng
        c = cfg.activity_contrast
        parent_profile = _blend(_BASELINE, _PARENT_DISTINCT, c)
        child_profile = _blend(_BASELINE, _CHILD_DISTINCT, c)
        horizon = _SYNTH_HORIZON_DAYS * DAY_SECONDS
        max_child_creation = _SYNTH_BASE_TIME + horizon

        for _ in range(cfg.n_groups):
            creation = _SYNTH_BASE_TIME + rng.randrange(horizon)
            parent_persona = self._persona(parent_profile)
            parent, revisions = self._banned_account(self._username(), creation, parent_persona)
            yield parent, revisions

            if rng.random() < cfg.evasion_rate:
                gap = int(rng.uniform(0.5, 1.5) * cfg.idle_gap_days * DAY_SECONDS)
                child_persona = self._persona(child_profile)
                self._inherit(parent_persona, child_persona)
                child, revisions = self._banned_account(
                    self._mutate_username(parent.username),
                    parent.ban_time + gap,
                    child_persona,
                )
                yield child, revisions
                max_child_creation = max(max_child_creation, child.creation_time)
                self.true_pairs.append(EvasionPair(parent.account_id, child.account_id))

                if rng.random() < 0.3:
                    # Extra concurrent puppet inside the parent's lifetime;
                    # split into two overlapping records to exercise merging.
                    lifespan = parent.ban_time - parent.creation_time
                    sock_creation = parent.creation_time + int(
                        rng.uniform(0.05, 0.45) * lifespan
                    )
                    sock_ban = parent.creation_time + int(rng.uniform(0.55, 0.95) * lifespan)
                    sock = Account(
                        self._new_id(), self._username(), sock_creation, max(sock_ban, sock_creation + 1)
                    )
                    sock_persona = self._persona(_BASELINE)
                    yield self._block(sock, sock_persona, True, sock.ban_time)
                    self.records.append(
                        SockpuppetRecord(frozenset({parent.account_id, sock.account_id}))
                    )
                    self.records.append(
                        SockpuppetRecord(frozenset({sock.account_id, child.account_id}))
                    )
                else:
                    self.records.append(
                        SockpuppetRecord(frozenset({parent.account_id, child.account_id}))
                    )
            else:
                # Concurrent operation: the second account is created before
                # the first ban and both overlap, so no evasion pair exists.
                lifespan = parent.ban_time - parent.creation_time
                second_creation = parent.creation_time + int(rng.uniform(0.1, 0.9) * lifespan)
                second_persona = self._persona(_BASELINE)
                second, revisions = self._banned_account(
                    self._username(), second_creation, second_persona
                )
                yield second, revisions
                self.records.append(
                    SockpuppetRecord(frozenset({parent.account_id, second.account_id}))
                )

        pool_span_lo = _SYNTH_BASE_TIME - WEEK_SECONDS
        pool_span_hi = max_child_creation + WEEK_SECONDS
        for _ in range(cfg.n_nonevading_malicious):
            creation = rng.randrange(pool_span_lo, pool_span_hi)
            yield self._banned_account(self._username(), creation, self._persona(_BASELINE))

        for _ in range(cfg.n_benign):
            creation = rng.randrange(pool_span_lo, pool_span_hi)
            persona = self._persona(_BASELINE)
            acct = Account(self._new_id(), self._username(), creation, None)
            yield self._block(acct, persona, False, creation + persona["duration"])


@_gc_paused()
def generate_synthetic(config: SynthConfig) -> SyntheticCorpus:
    """Generate a deterministic synthetic corpus with ground-truth pairs."""
    gen = _Generator(config)
    accounts, revisions = [], []
    for account, block in gen.blocks():
        accounts.append(account)
        revisions += block
    corpus = Corpus(tuple(accounts), revisions, tuple(gen.records))
    return SyntheticCorpus(corpus, tuple(gen.true_pairs))


@_gc_paused()
def write_synthetic(
    config: SynthConfig,
    accounts_path: str | Path,
    revisions_path: str | Path,
    records_path: str | Path,
    pairs_path: str | Path,
) -> tuple[int, int, int, int]:
    """Write the corpus ``generate_synthetic`` gives, byte for byte as
    ``save_corpus`` and ``save_pairs`` would, and its true pairs, each
    account's lines as it is drawn, so no ``Corpus`` is built; return the
    numbers of accounts, revisions, records and true pairs written. The
    config is checked before any file is opened."""
    gen = _Generator(config)
    n_accounts, n_revisions = _write_corpus(
        gen.blocks(), gen.records, accounts_path, revisions_path, records_path
    )
    save_pairs(gen.true_pairs, pairs_path)
    return n_accounts, n_revisions, len(gen.records), len(gen.true_pairs)
