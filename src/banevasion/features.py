"""Feature engineering for account-level and pairwise classification.

Account vectors (fixed name order):
  created_dow, created_month, created_day,
  banned_dow, banned_month, banned_day, is_banned, duration_seconds,
  unique_pages, total_contributions, mean_gap_seconds, mean_contribution_size,
  liwc_<category>... (lexicon order), sentiment_mean

Pair vectors (fixed name order):
  parent_created_{dow,month,day}, parent_banned_{dow,month,day},
  parent_duration_seconds,
  child_created_{dow,month,day},
  [child_banned_{dow,month,day}, child_is_banned, child_duration_seconds]
  inter_account_seconds,
  page_jaccard, comment_unigram_jaccard, added_unigram_jaccard,
  embedding_cosine, profile_abs_diff, sentiment_abs_diff

The bracketed child-ban block is emitted only when
``include_child_ban_features`` is set: at early-detection time the other
account's ban does not exist yet. Calendar fields use -1 as the sentinel
for absent bans, paired with the is_banned indicator. When ``k_limit`` is
set, only the other account's first k revisions contribute to the pair
vector; the parent side is never truncated.

Every vector reads ``AccountDigest``s, one per account and number of
revisions used. A run builds one ``Digests`` store, which builds each digest
on first use and keeps it, so the three tasks, the ranking and the analysis
share them; ``account_features`` and ``pair_features`` digest the revisions
they are given.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dataclass_field
from datetime import datetime, timezone
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .corpus import Account, Corpus, Revision
from .errors import MissingParentBanError, RecordParseError, UnsortedRevisionsError
from .textstats import (
    EmbeddingProvider,
    HashedTrigramProvider,
    Lexicon,
    SentimentLexicon,
    builtin_lexicon,
    builtin_sentiment_lexicon,
    cosine,
    embed,
    jaccard,
    liwc_profile,
    profile_abs_diff,
    sentiment,
    tokenize,
)


@dataclass(frozen=True)
class FeatureVector:
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        if len(self.names) != len(self.values):
            raise ValueError("names and values must align")
        if len(set(self.names)) != len(self.names):
            raise ValueError("feature names must be unique")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, self.values.tolist()))


@dataclass(frozen=True)
class FeatureConfig:
    k_limit: int | None = None
    include_child_ban_features: bool = True
    lexicon: Lexicon = dataclass_field(default_factory=builtin_lexicon)
    sentiment_lexicon: SentimentLexicon = dataclass_field(
        default_factory=builtin_sentiment_lexicon
    )
    provider: EmbeddingProvider = dataclass_field(default_factory=HashedTrigramProvider)

    def __post_init__(self):
        if self.k_limit is not None and self.k_limit < 1:
            raise ValueError("k_limit must be >= 1 when present")


def _calendar(ts: int) -> tuple[int, int, int]:
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return dt.weekday(), dt.month, dt.day


def _check_sorted(revisions: Sequence[Revision]) -> None:
    for earlier, later in zip(revisions, revisions[1:]):
        if later.timestamp < earlier.timestamp:
            raise UnsortedRevisionsError("revisions must be time-sorted")


def _token_set(tokens: Iterable[str]) -> frozenset[str]:
    """Distinct tokens, interned so that digests share one copy of each."""
    return frozenset(map(sys.intern, set(tokens)))


@dataclass(frozen=True)
class AccountDigest:
    """Everything a feature vector reads from one account's revisions.

    The mean embedding is computed on first read; account vectors never
    read it."""

    account: Account
    revision_count: int
    mean_gap_seconds: float
    mean_contribution_size: float
    pages: frozenset[str]
    comment_tokens: frozenset[str]
    added_tokens: frozenset[str]
    profile: dict[str, float]
    sentiment: float
    texts: tuple[str, ...]
    provider: EmbeddingProvider

    @cached_property
    def embedding(self) -> np.ndarray:
        if not self.texts:
            return np.zeros(self.provider.dimension)
        return embed(self.texts, self.provider)


def account_digest(
    account: Account, revisions: Sequence[Revision], config: FeatureConfig
) -> AccountDigest:
    """Tokenize and profile time-sorted ``revisions`` once; embedding waits
    for a read."""
    n = len(revisions)
    tokens = [t for r in revisions for t in tokenize(r.added_text)]
    return AccountDigest(
        account=account,
        revision_count=n,
        # consecutive gaps telescope to last minus first
        mean_gap_seconds=(
            (revisions[-1].timestamp - revisions[0].timestamp) / (n - 1) if n >= 2 else 0.0
        ),
        mean_contribution_size=(
            sum(len(r.added_text) + len(r.deleted_text) for r in revisions) / n if n else 0.0
        ),
        pages=frozenset(r.page_id for r in revisions),
        comment_tokens=_token_set(t for r in revisions for t in tokenize(r.comment)),
        added_tokens=_token_set(tokens),
        profile=liwc_profile(tokens, config.lexicon),
        sentiment=sentiment(tokens, config.sentiment_lexicon),
        texts=tuple(r.added_text for r in revisions if r.added_text),
        provider=config.provider,
    )


class Digests:
    """One run's ``AccountDigest``s over one corpus and one config's lexicon,
    sentiment lexicon and embedding provider, keyed by (account id, number of
    revisions used) and each built on first use."""

    def __init__(self, corpus: Corpus, config: FeatureConfig | None = None):
        self.corpus = corpus
        self.config = config or FeatureConfig()
        self._built: dict[tuple[str, int], AccountDigest] = {}

    @classmethod
    def over(cls, corpus: Corpus, digests: Digests | None) -> Digests:
        """``digests``, or a new store over ``corpus`` and ``FeatureConfig()``;
        raises ``ValueError`` when ``digests`` was built over another corpus."""
        if digests is None:
            return cls(corpus)
        if digests.corpus is not corpus:
            raise ValueError("digests were built over another corpus")
        return digests

    def of(self, account_id: str, k_limit: int | None = None) -> AccountDigest:
        """The digest of ``account_id``'s first ``k_limit`` (default all) revisions."""
        revisions = self.corpus.revisions_of(account_id)
        n = len(revisions) if k_limit is None else min(k_limit, len(revisions))
        key = (account_id, n)
        digest = self._built.get(key)
        if digest is None:
            digest = self._built[key] = account_digest(
                self.corpus.account(account_id), revisions[:n], self.config
            )
        return digest


_ACCOUNT_HEAD = (
    "created_dow", "created_month", "created_day",
    "banned_dow", "banned_month", "banned_day", "is_banned",
    "duration_seconds",
    "unique_pages", "total_contributions", "mean_gap_seconds",
    "mean_contribution_size",
)


def _ban_fields(account: Account) -> list[float]:
    """banned_{dow,month,day}, is_banned, duration_seconds; -1 when never banned."""
    if account.ban_time is None:
        return [-1.0, -1.0, -1.0, 0.0, -1.0]
    return [*_calendar(account.ban_time), 1.0, float(account.ban_time - account.creation_time)]


def _account_row(digest: AccountDigest) -> FeatureVector:
    names = (
        *_ACCOUNT_HEAD, *(f"liwc_{category}" for category in digest.profile), "sentiment_mean"
    )
    values = [
        *_calendar(digest.account.creation_time), *_ban_fields(digest.account),
        float(len(digest.pages)), float(digest.revision_count),
        digest.mean_gap_seconds, digest.mean_contribution_size,
        *digest.profile.values(), digest.sentiment,
    ]
    return FeatureVector(names, np.array(values, dtype=float))


def account_features(
    account: Account, revisions: Sequence[Revision], config: FeatureConfig
) -> FeatureVector:
    """Behavioral vector for one account from its own metadata and edits."""
    _check_sorted(revisions)
    return _account_row(account_digest(account, revisions, config))


def account_vectors(digests: Digests, account_ids: Iterable[str]) -> list[FeatureVector]:
    """``account_features`` for each account id, read from ``digests``."""
    return [_account_row(digests.of(account_id)) for account_id in account_ids]


_PAIR_HEAD = (
    "parent_created_dow", "parent_created_month", "parent_created_day",
    "parent_banned_dow", "parent_banned_month", "parent_banned_day",
    "parent_duration_seconds",
    "child_created_dow", "child_created_month", "child_created_day",
)
_PAIR_CHILD_BAN = (
    "child_banned_dow", "child_banned_month", "child_banned_day",
    "child_is_banned", "child_duration_seconds",
)
_PAIR_TAIL = (
    "inter_account_seconds",
    "page_jaccard", "comment_unigram_jaccard", "added_unigram_jaccard",
    "embedding_cosine", "profile_abs_diff", "sentiment_abs_diff",
)


def _combine(parent: AccountDigest, other: AccountDigest, config: FeatureConfig) -> FeatureVector:
    p, o = parent.account, other.account
    if p.ban_time is None:
        raise MissingParentBanError(p.account_id)
    values = [
        *_calendar(p.creation_time), *_calendar(p.ban_time),
        float(p.ban_time - p.creation_time),
        *_calendar(o.creation_time),
    ]
    names = _PAIR_HEAD
    if config.include_child_ban_features:
        names += _PAIR_CHILD_BAN
        values += _ban_fields(o)
    values += [
        float(o.creation_time - p.ban_time),
        jaccard(parent.pages, other.pages),
        jaccard(parent.comment_tokens, other.comment_tokens),
        jaccard(parent.added_tokens, other.added_tokens),
        cosine(parent.embedding, other.embedding),
        profile_abs_diff(parent.profile, other.profile),
        abs(parent.sentiment - other.sentiment),
    ]
    return FeatureVector(names + _PAIR_TAIL, np.array(values, dtype=float))


def pair_features(
    parent: Account,
    parent_revisions: Sequence[Revision],
    other: Account,
    other_revisions: Sequence[Revision],
    config: FeatureConfig,
) -> FeatureVector:
    """Similarity vector for a (banned parent, candidate successor) pair."""
    _check_sorted(parent_revisions)
    _check_sorted(other_revisions)
    return _combine(
        account_digest(parent, parent_revisions, config),
        account_digest(other, other_revisions[: config.k_limit], config),
        config,
    )


def pair_vectors(
    digests: Digests, id_pairs: Iterable[tuple[str, str]], config: FeatureConfig
) -> list[FeatureVector]:
    """``pair_features`` for each (parent_id, other_id), read from ``digests``;
    raises ``ValueError`` unless ``config`` has the store's text resources."""
    mine = digests.config
    if (config.lexicon, config.sentiment_lexicon, config.provider) != (
        mine.lexicon, mine.sentiment_lexicon, mine.provider
    ):
        raise ValueError("config's lexicon, sentiment lexicon or provider differ from the store's")
    return [
        _combine(digests.of(p), digests.of(o, config.k_limit), config) for p, o in id_pairs
    ]


# ---------------------------------------------------------------------------
# feature matrix serialization: sample_id<TAB>label<TAB>feature columns


def write_feature_matrix(
    path,
    sample_ids: Sequence[str],
    labels: Sequence[int],
    vectors: Sequence[FeatureVector],
) -> None:
    if not (len(sample_ids) == len(labels) == len(vectors)):
        raise ValueError("sample_ids, labels, and vectors must align")
    with open(path, "w", encoding="utf-8") as fh:
        if vectors:
            names = vectors[0].names
            fh.write("sample_id\tlabel\t" + "\t".join(names) + "\n")
            for sid, label, vec in zip(sample_ids, labels, vectors):
                if vec.names != names:
                    raise ValueError("inconsistent feature names in matrix")
                row = "\t".join(repr(float(v)) for v in vec.values)
                fh.write(f"{sid}\t{label}\t{row}\n")
        else:
            fh.write("sample_id\tlabel\n")


def read_feature_matrix(path):
    """Returns (sample_ids, labels array, names, value matrix); raises
    ``RecordParseError`` for a header not starting ``sample_id<TAB>label``, a row
    whose field count differs from the header's, a label other than ``0``/``1``,
    or a value that is not a finite float."""
    path = str(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[:2] != ["sample_id", "label"]:
            raise RecordParseError(path, 1, "header must start with sample_id<TAB>label")
        names = tuple(header[2:])
        sample_ids: list[str] = []
        labels: list[int] = []
        rows: list[list[float]] = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(header):
                raise RecordParseError(
                    path, lineno, f"expected {len(header)} tab-separated fields, got {len(parts)}"
                )
            if parts[1] not in ("0", "1"):
                raise RecordParseError(path, lineno, f"label must be 0 or 1, got {parts[1]!r}")
            try:
                row = [float(x) for x in parts[2:]]
            except ValueError as exc:
                raise RecordParseError(path, lineno, str(exc)) from exc
            for name, text, value in zip(names, parts[2:], row):
                if not math.isfinite(value):
                    raise RecordParseError(path, lineno, f"{name} is not finite: {text!r}")
            rows.append(row)
            sample_ids.append(parts[0])
            labels.append(int(parts[1]))
    matrix = np.array(rows, dtype=float) if rows else np.zeros((0, len(names)))
    return sample_ids, np.array(labels, dtype=int), names, matrix
