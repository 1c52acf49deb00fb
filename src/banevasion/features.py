"""Feature engineering for account-level and pairwise classification.

Account rows (fixed name order):
  created_dow, created_month, created_day,
  banned_dow, banned_month, banned_day, is_banned, duration_seconds,
  unique_pages, total_contributions, mean_gap_seconds, mean_contribution_size,
  liwc_<category>... (lexicon order), sentiment_mean

Pair rows (fixed name order, one shape):
  parent_created_{dow,month,day}, parent_banned_{dow,month,day},
  parent_duration_seconds,
  child_created_{dow,month,day},
  child_banned_{dow,month,day}, child_is_banned, child_duration_seconds,
  inter_account_seconds,
  page_jaccard, comment_unigram_jaccard, added_unigram_jaccard,
  embedding_cosine, profile_abs_diff, sentiment_abs_diff

Calendar fields use -1 as the sentinel for absent bans, paired with the
is_banned indicator. When ``k_edits`` is given, only the other account's
first k revisions contribute to the pair row; the parent side is never
truncated. Task 2 cuts the five child-ban columns by name: at
early-detection time the other account's ban does not exist yet.

Rows are computed here only, from a run's ``Digests`` store, which holds
the run's text resources and builds each account's ``AccountDigest`` (one
per account and number of revisions used) whole on first use and keeps it,
so the three tasks, the ranking and the analysis share them. Consumers read
named columns, never a digest: ``account_vectors``, ``pair_vectors`` and
``task_vectors`` (each task's variant) return ``(names, X)``, the column
names once and a C-ordered float matrix with one row per input, in input
order, which has its columns even when there are no rows.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Sequence

import numpy as np

from .corpus import Account, Corpus, Revision
from .errors import MismatchError, RecordParseError
from .matching import DEFAULT_K_EDITS, TASK1, TASK2, LabeledSample, Task, check_options
from .textstats import (
    EmbeddingProvider,
    HashedTrigramProvider,
    Lexicon,
    SentimentLexicon,
    builtin_lexicon,
    builtin_sentiment_lexicon,
    embed,
    jaccard,
    liwc_profile,
    parse_float,
    profile_abs_diff,
    sentiment,
    tokenize,
)


def _calendar(ts: int) -> tuple[int, int, int]:
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return dt.weekday(), dt.month, dt.day


def _token_set(tokens: Iterable[str]) -> frozenset[str]:
    """Distinct tokens, interned so that digests share one copy of each."""
    return frozenset(map(sys.intern, set(tokens)))


@dataclass(frozen=True, eq=False)
class AccountDigest:
    """Everything a feature vector reads from one account: the calendar
    (weekday, month, day) of its creation and of its ban (``None`` when never
    banned), and what its revisions give, the mean embedding of their added
    texts and its norm included. Digests compare by identity: an array has
    no single truth value."""

    account: Account
    created_calendar: tuple[int, int, int]
    ban_calendar: tuple[int, int, int] | None
    revision_count: int
    mean_gap_seconds: float
    mean_contribution_size: float
    pages: frozenset[str]
    comment_tokens: frozenset[str]
    added_tokens: frozenset[str]
    profile: dict[str, float]
    sentiment: float
    embedding: np.ndarray
    embedding_norm: float


def account_digest(
    account: Account, revisions: Sequence[Revision], store: Digests
) -> AccountDigest:
    """Tokenize, profile and embed time-sorted ``revisions`` once, with the
    text resources of ``store``; a zero embedding when no text was added."""
    n = len(revisions)
    tokens = [t for r in revisions for t in tokenize(r.added_text)]
    texts = [r.added_text for r in revisions if r.added_text]
    embedding = embed(texts, store.provider) if texts else np.zeros(store.provider.dimension)
    return AccountDigest(
        account=account,
        created_calendar=_calendar(account.creation_time),
        ban_calendar=None if account.ban_time is None else _calendar(account.ban_time),
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
        profile=liwc_profile(tokens, store.lexicon),
        sentiment=sentiment(tokens, store.sentiment_lexicon),
        embedding=embedding,
        embedding_norm=math.sqrt(float(embedding @ embedding)),
    )


class Digests:
    """One run's ``AccountDigest``s over one corpus, keyed by (account id,
    number of revisions used) and each built on first use with the run's
    lexicon, sentiment lexicon and embedding provider (by default the
    built-in lexicons and the trigram provider)."""

    def __init__(self, corpus: Corpus, lexicon: Lexicon | None = None,
                 sentiment_lexicon: SentimentLexicon | None = None,
                 provider: EmbeddingProvider | None = None):
        self.corpus = corpus
        self.lexicon = lexicon or builtin_lexicon()
        self.sentiment_lexicon = sentiment_lexicon or builtin_sentiment_lexicon()
        self.provider = provider or HashedTrigramProvider()
        self._built: dict[tuple[str, int], AccountDigest] = {}

    def of(self, account_id: str, k_edits: int | None = None) -> AccountDigest:
        """The digest of ``account_id``'s first ``k_edits`` (default all) revisions."""
        revisions = self.corpus.revisions_of(account_id)
        n = len(revisions) if k_edits is None else min(k_edits, len(revisions))
        key = (account_id, n)
        digest = self._built.get(key)
        if digest is None:
            digest = self._built[key] = account_digest(
                self.corpus.account(account_id), revisions[:n], self
            )
        return digest


_ACCOUNT_HEAD = (
    "created_dow", "created_month", "created_day",
    "banned_dow", "banned_month", "banned_day", "is_banned",
    "duration_seconds",
    "unique_pages", "total_contributions", "mean_gap_seconds",
    "mean_contribution_size",
)


def _ban_fields(digest: AccountDigest) -> list[float]:
    """banned_{dow,month,day}, is_banned, duration_seconds; -1 when never banned."""
    if digest.ban_calendar is None:
        return [-1.0, -1.0, -1.0, 0.0, -1.0]
    return [*digest.ban_calendar, 1.0, float(digest.account.duration_seconds)]


def _matrix(names: tuple[str, ...], rows: list[list[float]]) -> tuple[tuple[str, ...], np.ndarray]:
    return names, np.array(rows, dtype=float).reshape(len(rows), len(names))


def _account_row(digest: AccountDigest) -> list[float]:
    return [
        *digest.created_calendar, *_ban_fields(digest),
        float(len(digest.pages)), float(digest.revision_count),
        digest.mean_gap_seconds, digest.mean_contribution_size,
        *digest.profile.values(), digest.sentiment,
    ]


def account_vectors(
    digests: Digests, account_ids: Iterable[str]
) -> tuple[tuple[str, ...], np.ndarray]:
    """The account row of each account id, from its own metadata and edits."""
    names = (
        *_ACCOUNT_HEAD,
        *(f"liwc_{category}" for category in digests.lexicon.categories),
        "sentiment_mean",
    )
    return _matrix(names, [_account_row(digests.of(account_id)) for account_id in account_ids])


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


def _cosine(parent: AccountDigest, other: AccountDigest) -> float:
    """``textstats.cosine`` of the two embeddings, over their stored norms."""
    nu, nv = parent.embedding_norm, other.embedding_norm
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(parent.embedding @ other.embedding) / (nu * nv)


def _combine(parent: AccountDigest, other: AccountDigest) -> list[float]:
    p, o = parent.account, other.account
    if p.ban_time is None:
        raise RecordParseError(None, None, f"parent {p.account_id!r} was never banned")
    return [
        *parent.created_calendar, *parent.ban_calendar,
        float(p.ban_time - p.creation_time),
        *other.created_calendar, *_ban_fields(other),
        float(o.creation_time - p.ban_time),
        jaccard(parent.pages, other.pages),
        jaccard(parent.comment_tokens, other.comment_tokens),
        jaccard(parent.added_tokens, other.added_tokens),
        _cosine(parent, other),
        profile_abs_diff(parent.profile, other.profile),
        abs(parent.sentiment - other.sentiment),
    ]


def pair_vectors(
    digests: Digests,
    id_pairs: Iterable[tuple[str, str]],
    k_edits: int | None = None,
) -> tuple[tuple[str, ...], np.ndarray]:
    """The similarity row of each (banned parent, candidate successor) id pair,
    over the other account's first ``k_edits`` (default all) revisions;
    raises ``InvalidConfigError`` when ``k_edits`` is below 1."""
    if k_edits is not None:
        check_options(k_edits=k_edits)
    return _matrix(
        _PAIR_HEAD + _PAIR_CHILD_BAN + _PAIR_TAIL,
        [_combine(digests.of(p), digests.of(o, k_edits)) for p, o in id_pairs],
    )


def task_vectors(task: Task, samples: Sequence[LabeledSample], digests: Digests,
                 k_edits: int = DEFAULT_K_EDITS) -> tuple[tuple[str, ...], np.ndarray]:
    """One row per sample, in the order given: task 1 describes the other
    account alone; task 2 the pair, over the other account's first
    ``k_edits`` edits and without child-ban columns; task 3 the full pair."""
    if task.name == TASK1:
        return account_vectors(digests, [s.other_id for s in samples])
    keys = [(s.parent_id, s.other_id) for s in samples]
    if task.name == TASK2:
        names, X = pair_vectors(digests, keys, k_edits=k_edits)
        keep = [i for i, name in enumerate(names) if name not in _PAIR_CHILD_BAN]
        # the cut is Fortran-ordered, whose column sums move the model's last digits
        return tuple(names[i] for i in keep), np.ascontiguousarray(X[:, keep])
    return pair_vectors(digests, keys)


# ---------------------------------------------------------------------------
# feature matrix serialization: sample_id<TAB>label<TAB>feature columns


def write_feature_matrix(
    path,
    sample_ids: Sequence[str],
    labels: Sequence[int],
    names: tuple[str, ...],
    X: np.ndarray,
) -> None:
    """Write what ``read_feature_matrix`` returns; raises ``MismatchError``
    unless ``X`` has one row per sample id and label and one column per name."""
    if len(labels) != len(sample_ids) or X.shape != (len(sample_ids), len(names)):
        raise MismatchError("X must have one row per sample id and label, one column per name")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(("sample_id", "label", *names)) + "\n")
        for sid, label, row in zip(sample_ids, labels, X.tolist()):
            fh.write(f"{sid}\t{label}\t" + "\t".join(map(repr, row)) + "\n")


def read_feature_matrix(path):
    """Returns (sample_ids, labels array, names, value matrix); raises
    ``RecordParseError`` for a header not starting ``sample_id<TAB>label`` or
    naming a feature twice, a row whose field count differs from the header's,
    a label other than ``0``/``1``, or a value that is not a finite float
    spelled as ``textstats.parse_float`` accepts."""
    path = str(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[:2] != ["sample_id", "label"]:
            raise RecordParseError(path, 1, "header must start with sample_id<TAB>label")
        names = tuple(header[2:])
        repeated = sorted(name for name, count in Counter(names).items() if count > 1)
        if repeated:
            raise RecordParseError(path, 1, f"duplicate feature names {repeated}")
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
                row = [parse_float(x) for x in parts[2:]]
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
