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

Every pair vector combines two ``AccountDigest``s, each holding the pages,
token sets, mean embedding, lexicon profile and sentiment of one side.
``pair_vectors`` memoizes digests by (account id, truncated by k_limit) for
the duration of one call only; nothing is cached across calls.
"""

from __future__ import annotations

import math
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


def _pooled_tokens(revisions: Sequence[Revision]) -> list[str]:
    tokens: list[str] = []
    for rev in revisions:
        tokens.extend(tokenize(rev.added_text))
    return tokens


@dataclass(frozen=True)
class AccountDigest:
    """Everything a feature vector reads from one account's revisions.

    The mean embedding is computed on first read; account vectors never
    read it."""

    account: Account
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
    """Tokenize and profile ``revisions`` once; embedding waits for a read."""
    tokens = _pooled_tokens(revisions)
    return AccountDigest(
        account=account,
        pages=frozenset(r.page_id for r in revisions),
        comment_tokens=frozenset(t for r in revisions for t in tokenize(r.comment)),
        added_tokens=frozenset(tokens),
        profile=liwc_profile(tokens, config.lexicon),
        sentiment=sentiment(tokens, config.sentiment_lexicon),
        texts=tuple(r.added_text for r in revisions if r.added_text),
        provider=config.provider,
    )


def account_features(
    account: Account, revisions: Sequence[Revision], config: FeatureConfig
) -> FeatureVector:
    """Behavioral vector for one account from its own metadata and edits."""
    _check_sorted(revisions)
    created = _calendar(account.creation_time)
    if account.ban_time is not None:
        banned = _calendar(account.ban_time)
        is_banned = 1.0
        duration = float(account.ban_time - account.creation_time)
    else:
        banned = (-1, -1, -1)
        is_banned = 0.0
        duration = -1.0

    n = len(revisions)
    if n >= 2:
        gaps = [b.timestamp - a.timestamp for a, b in zip(revisions, revisions[1:])]
        mean_gap = sum(gaps) / len(gaps)
    else:
        mean_gap = 0.0
    if n:
        mean_size = sum(len(r.added_text) + len(r.deleted_text) for r in revisions) / n
    else:
        mean_size = 0.0

    digest = account_digest(account, revisions, config)
    names = [
        "created_dow", "created_month", "created_day",
        "banned_dow", "banned_month", "banned_day", "is_banned",
        "duration_seconds",
        "unique_pages", "total_contributions", "mean_gap_seconds",
        "mean_contribution_size",
    ]
    values = [
        *created, *banned, is_banned, duration,
        float(len(digest.pages)), float(n), mean_gap, mean_size,
    ]
    for category in config.lexicon.categories:
        names.append(f"liwc_{category}")
        values.append(digest.profile[category])
    names.append("sentiment_mean")
    values.append(digest.sentiment)
    return FeatureVector(tuple(names), np.array(values, dtype=float))


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


def _side_digest(
    account: Account, revisions: Sequence[Revision], config: FeatureConfig, truncate: bool
) -> AccountDigest:
    _check_sorted(revisions)
    if truncate and config.k_limit is not None:
        revisions = revisions[: config.k_limit]
    return account_digest(account, revisions, config)


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
        if o.ban_time is not None:
            values += [*_calendar(o.ban_time), 1.0, float(o.ban_time - o.creation_time)]
        else:
            values += [-1.0, -1.0, -1.0, 0.0, -1.0]
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
    return _combine(
        _side_digest(parent, parent_revisions, config, truncate=False),
        _side_digest(other, other_revisions, config, truncate=True),
        config,
    )


def pair_vectors(
    corpus: Corpus, id_pairs: Iterable[tuple[str, str]], config: FeatureConfig
) -> list[FeatureVector]:
    """``pair_features`` for each (parent_id, other_id), digesting each
    account side once within this call."""
    memo: dict[tuple[str, bool], AccountDigest] = {}

    def digest(account_id: str, truncate: bool) -> AccountDigest:
        revisions = corpus.revisions_of(account_id)
        truncated = truncate and config.k_limit is not None and len(revisions) > config.k_limit
        key = (account_id, truncated)
        if key not in memo:
            memo[key] = _side_digest(corpus.account(account_id), revisions, config, truncate)
        return memo[key]

    return [_combine(digest(p, False), digest(o, True), config) for p, o in id_pairs]


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
