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
nothing. ``load_corpus`` only parses, so a malformed line fails at its
``file:line``; ``Corpus`` alone checks the seven corpus rules (unique ids, no
tab or line break in an id, ban after creation, known revision owner, no
revision before creation, at least 2 distinct
record members, known members), once each, in input order, naming the record's
``file:line`` when it was read. Timestamps are integer epoch seconds UTC
throughout. Loaded corpora are immutable and iterate in a canonical order
(accounts by id, revisions by (account_id, timestamp, page_id), records by
sorted member tuple), so a save/load round trip is byte identical. Accounts,
revisions and evasion pairs are named tuples; ``load_corpus`` interns account
and page ids, so a revision shares its owner's id string and its page's. An
``EvasionPair`` without a group id holds ``None``, as its line has no key.

Output contract of the synthetic generator: its corpus bytes depend only on
the seed, the ``SynthConfig`` knobs and CPython's Mersenne Twister draws,
where each index is ``getrandbits(n.bit_length())`` redrawn until below n (the
rejection draw behind ``Random.choice``, ``randint`` and ``randrange``, which
the revision loops inline). ``tests/test_golden.py`` pins those bytes.
"""

from __future__ import annotations

import gc
import json
import math
import random
import sys
from array import array
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidConfigError, RecordParseError, ReferentialIntegrityError

DAY_SECONDS = 86_400
WEEK_SECONDS = 604_800

# Simulation epoch for synthetic corpora: 2020-09-13T12:26:40Z.
_SYNTH_BASE_TIME = 1_600_000_000
_SYNTH_HORIZON_DAYS = 365

_ID_BREAKS = frozenset("\t\r\n")


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


@dataclass(frozen=True)
class Corpus:
    """Immutable, validated collection of accounts, revisions, and records."""

    accounts: tuple[Account, ...]
    revisions: tuple[Revision, ...]
    sockpuppet_records: tuple[SockpuppetRecord, ...]
    accounts_by_id: dict[str, Account] = field(init=False, repr=False, compare=False)
    revisions_by_account: dict[str, tuple[Revision, ...]] = field(
        init=False, repr=False, compare=False
    )
    # Where the accounts, revisions and records were read: one (path, line
    # numbers) pair each, so an error names its file and line.
    _origin: InitVar[tuple[tuple[str, Sequence[int]], ...] | None] = None

    def __post_init__(self, _origin):
        def at(part: int, index: int) -> tuple[str | None, int | None]:
            if _origin is None:
                return None, None
            path, lines = _origin[part]
            return path, lines[index]

        # Each rule is checked here only, in input order.
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

        for i, rev in enumerate(self.revisions):
            owner = by_id.get(rev.account_id)
            if owner is None:
                raise ReferentialIntegrityError(rev.account_id, "revision owner", *at(1, i))
            if rev.timestamp < owner.creation_time:
                raise RecordParseError(
                    *at(1, i),
                    f"revision on {rev.page_id!r} predates creation of {rev.account_id!r}",
                )

        for i, rec in enumerate(self.sockpuppet_records):
            if len(rec.member_ids) < 2:
                raise RecordParseError(*at(2, i), "sockpuppet record needs at least 2 members")
            for member in sorted(rec.member_ids):
                if member not in by_id:
                    raise ReferentialIntegrityError(member, "record member", *at(2, i))

        by_id = dict(sorted(by_id.items()))
        revisions = tuple(
            sorted(self.revisions, key=lambda r: (r.account_id, r.timestamp, r.page_id))
        )
        records = tuple(
            sorted(self.sockpuppet_records, key=lambda r: tuple(sorted(r.member_ids)))
        )
        by_owner = groupby(revisions, attrgetter("account_id"))
        object.__setattr__(self, "accounts", tuple(by_id.values()))
        object.__setattr__(self, "revisions", revisions)
        object.__setattr__(self, "sockpuppet_records", records)
        object.__setattr__(self, "accounts_by_id", by_id)
        object.__setattr__(
            self, "revisions_by_account", {k: tuple(v) for k, v in by_owner}
        )

    def account(self, account_id: str) -> Account:
        try:
            return self.accounts_by_id[account_id]
        except KeyError:
            raise ReferentialIntegrityError(account_id) from None

    def revisions_of(self, account_id: str) -> tuple[Revision, ...]:
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

_MISSING = object()
_WRONG_KIND = {
    str: "field {!r} must be a string",
    int: "field {!r} must be an integer",
    list: "{} must be an array",
}


def _read_jsonl(path: str | Path) -> Iterator[tuple[str, int, dict]]:
    """Yield ``(path, line number, object)`` for each non-blank line."""
    p = str(path)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
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
) -> Corpus:
    """Load a corpus from the three line-delimited files.

    Each line is parsed into its record as it is read, so a parse error names
    the file and line it comes from: bad JSON, a missing field, an id, name,
    text or member id that is not a string, a time that is not an integer.
    ``Corpus`` then checks the corpus rules, given the line of each record.
    A record's fields are read and type-checked at once; only a record that
    fails goes through ``_field``, in field order, to name its first bad field.
    """
    intern = sys.intern
    accounts, account_lines = [], array("I")
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
        accounts.append(Account(intern(account_id), username, creation, ban))
        account_lines.append(lineno)

    revisions, revision_lines = [], array("I")
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
        revisions.append(
            Revision(intern(account_id), intern(page_id), timestamp, added, deleted, comment)
        )
        revision_lines.append(lineno)

    records, record_lines = [], array("I")
    for p, lineno, obj in _read_jsonl(records_path):
        member_ids = _field(obj, "member_ids", list, p, lineno)
        for member in member_ids:
            if type(member) is not str:
                raise RecordParseError(p, lineno, f"member id {member!r} must be a string")
        records.append(SockpuppetRecord(frozenset(member_ids)))
        record_lines.append(lineno)

    origin = (
        (str(accounts_path), account_lines),
        (str(revisions_path), revision_lines),
        (str(records_path), record_lines),
    )
    return Corpus(tuple(accounts), tuple(revisions), tuple(records), origin)


def save_corpus(
    corpus: Corpus,
    accounts_path: str | Path,
    revisions_path: str | Path,
    records_path: str | Path,
) -> None:
    """Write a corpus back out in canonical order (round-trip stable).

    Each revision line is formatted directly, with sorted keys and strings
    escaped by ``_quote``, which is the line ``_encode`` gives. A revision with
    a field that is not exactly a ``str`` (an ``int`` timestamp), which a
    corpus built in memory can hold, goes through ``_encode`` itself.
    """
    _write_jsonl(accounts_path, (a._asdict() for a in corpus.accounts))
    with open(revisions_path, "w", encoding="utf-8") as fh:
        for r in corpus.revisions:
            account_id, page_id, timestamp, added, deleted, comment = r
            if (
                type(account_id) is type(page_id) is type(added) is type(deleted)
                is type(comment) is str
                and type(timestamp) is int
            ):
                fh.write(
                    f'{{"account_id":{_quote(account_id)},"added_text":{_quote(added)},'
                    f'"comment":{_quote(comment)},"deleted_text":{_quote(deleted)},'
                    f'"page_id":{_quote(page_id)},"timestamp":{timestamp}}}\n'
                )
            else:
                fh.write(_encode(r._asdict()) + "\n")
    _write_jsonl(
        records_path,
        ({"member_ids": sorted(rec.member_ids)} for rec in corpus.sockpuppet_records),
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
    flagged vocabulary into the text of malicious accounts. Setting every
    behavioral knob to 0 makes positives statistically indistinguishable
    from their matched controls.
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
        # the generator draws a gap of up to 1.5 times the mean, in seconds
        if not 0 < 1.5 * self.idle_gap_days * DAY_SECONDS < math.inf:
            raise InvalidConfigError("idle_gap_days", "must be > 0 and finite in seconds")


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


def _make_words(rng: random.Random, count: int, lo: int = 2, hi: int = 4) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        w = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(lo, hi)))
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
        self.accounts: list[Account] = []
        self.revisions: list[Revision] = []
        self.records: list[SockpuppetRecord] = []
        self.true_pairs: list[EvasionPair] = []

    def _new_id(self) -> str:
        self.next_id += 1
        return f"a{self.next_id:06d}"

    def _username(self) -> str:
        return _make_words(self.rng, 1)[0] + f"{self.rng.randint(0, 99):02d}"

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
            "home_pages": self.rng.sample(self.page_universe, n_pages),
            "vocab": self.rng.sample(self.topical_vocab, 25),
            "comment_words": self.rng.sample(self.comment_vocab, 6),
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
        reused = self.rng.sample(
            parent_persona["vocab"], min(n_vocab, len(parent_persona["vocab"]))
        )
        child_persona["vocab"] = reused + child_persona["vocab"][len(reused):]

        n_comment = round(len(child_persona["comment_words"]) * cfg.vocab_reuse)
        reused_c = self.rng.sample(
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
    ) -> None:
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
        text, append = self._text, self.revisions.append
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
            append(Revision(account.account_id, page, start + t, added, deleted, " ".join(comment)))

    def _banned_account(
        self, username: str, creation: int, persona: dict, malicious: bool = True
    ) -> Account:
        acct = Account(self._new_id(), username, creation, creation + persona["duration"])
        self.accounts.append(acct)
        self._emit_revisions(acct, persona, malicious, acct.ban_time)
        return acct

    def build(self) -> SyntheticCorpus:
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
            parent = self._banned_account(self._username(), creation, parent_persona)

            if rng.random() < cfg.evasion_rate:
                gap = int(rng.uniform(0.5, 1.5) * cfg.idle_gap_days * DAY_SECONDS)
                child_persona = self._persona(child_profile)
                self._inherit(parent_persona, child_persona)
                child = self._banned_account(
                    self._mutate_username(parent.username),
                    parent.ban_time + gap,
                    child_persona,
                )
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
                    self.accounts.append(sock)
                    sock_persona = self._persona(_BASELINE)
                    self._emit_revisions(sock, sock_persona, True, sock.ban_time)
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
                second = self._banned_account(
                    self._username(), second_creation, second_persona
                )
                self.records.append(
                    SockpuppetRecord(frozenset({parent.account_id, second.account_id}))
                )

        pool_span_lo = _SYNTH_BASE_TIME - WEEK_SECONDS
        pool_span_hi = max_child_creation + WEEK_SECONDS
        for _ in range(cfg.n_nonevading_malicious):
            creation = rng.randrange(pool_span_lo, pool_span_hi)
            self._banned_account(self._username(), creation, self._persona(_BASELINE))

        for _ in range(cfg.n_benign):
            creation = rng.randrange(pool_span_lo, pool_span_hi)
            persona = self._persona(_BASELINE)
            acct = Account(self._new_id(), self._username(), creation, None)
            self.accounts.append(acct)
            self._emit_revisions(acct, persona, False, creation + persona["duration"])

        corpus = Corpus(tuple(self.accounts), tuple(self.revisions), tuple(self.records))
        return SyntheticCorpus(corpus, tuple(self.true_pairs))


@_gc_paused()
def generate_synthetic(config: SynthConfig) -> SyntheticCorpus:
    """Generate a deterministic synthetic corpus with ground-truth pairs."""
    return _Generator(config).build()
