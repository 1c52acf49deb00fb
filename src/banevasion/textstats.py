"""Text primitives: tokenization, string distance, set overlap, lexicon
profiling, embeddings, and sentiment.

Lexicon file format: a header block delimited by two ``%`` lines mapping
numeric category ids to names (``id<TAB>name``, each id and name once),
followed by entry lines ``token<TAB>id [id ...]``. A trailing ``*`` on a
token matches any token with that prefix. Sentiment lexicon files are
``token<TAB>valence`` lines, each token once and as ``tokenize`` returns
it, with valences in [-1, 1]. External embedding files are
``sha256(text)<TAB>comma-separated floats`` lines, each hash on one line
only and every float finite. Every float in these files is spelled as
``parse_float`` accepts: ASCII, no ``_``, no surrounding whitespace.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .errors import (
    EmptyInputError,
    InvalidConfigError,
    MismatchError,
    MissingVectorError,
    RecordParseError,
)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased maximal alphanumeric runs, in order of appearance."""
    return [m.group(0).lower() for m in _TOKEN_RE.finditer(text)]


def normalized_levenshtein(a: str, b: str) -> float:
    """Unit-cost edit distance divided by the longer length; 0 when both empty."""
    if not a and not b:
        return 0.0
    if not a or not b:
        return 1.0
    if len(a) < len(b):
        a, b = b, a
    # The integer distance by Myers's bit-parallel algorithm (Myers 1999,
    # J. ACM 46:395, in Hyyro's form for whole strings): bit i of ``pv``/``mv``
    # says a column of the edit-distance table steps up/down by one at row
    # i + 1 of ``b``, and ``score`` is the column's last cell; row 0 grows by
    # one per character of ``a``, hence the 1 shifted into ``ph``.
    peq: dict[str, int] = {}
    for i, c in enumerate(b):
        peq[c] = peq.get(c, 0) | 1 << i
    mask = (1 << len(b)) - 1
    last = 1 << (len(b) - 1)
    pv, mv, score = mask, 0, len(b)
    for c in a:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = ph << 1 | 1
        pv = (mh << 1 | ~(xv | ph)) & mask
        mv = ph & xv
    return score / len(a)


def jaccard(a: set, b: set) -> float:
    """Intersection over union; 0 when both sets are empty."""
    if not a and not b:
        return 0.0
    n = len(a & b)
    return n / (len(a) + len(b) - n)


@dataclass(frozen=True)
class Lexicon:
    """Psycholinguistic category lexicon with optional prefix wildcards."""

    categories: dict[str, tuple[str, ...]]
    _literals: dict[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False
    )
    _prefixes: tuple[tuple[str, str], ...] = field(
        init=False, repr=False, compare=False
    )
    # token -> categories_of(token), filled on first lookup
    _memo: dict[str, frozenset[str]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        literals: dict[str, list[str]] = {}
        prefixes: list[tuple[str, str]] = []
        for category, entries in self.categories.items():
            for entry in entries:
                _check_entry(entry, None, None)
                if entry.endswith("*"):
                    prefixes.append((entry[:-1], category))
                else:
                    literals.setdefault(entry, []).append(category)
        object.__setattr__(
            self, "_literals", {k: tuple(v) for k, v in literals.items()}
        )
        object.__setattr__(self, "_prefixes", tuple(prefixes))

    def categories_of(self, token: str) -> frozenset[str]:
        """The categories with ``token`` as a literal entry or a prefix entry
        of it; each distinct token is looked up once per lexicon."""
        cats = self._memo.get(token)
        if cats is None:
            cats = self._memo[token] = frozenset(
                (*self._literals.get(token, ()),
                 *(category for prefix, category in self._prefixes if token.startswith(prefix)))
            )
        return cats


def _check_entry(entry: str, path: str | None, lineno: int | None) -> None:
    """The lexicon entry rules, for ``Lexicon`` and for the file parser."""
    if entry != entry.lower():
        raise RecordParseError(path, lineno, f"entry {entry!r} must be lowercase")
    if "*" in entry[:-1] or entry == "*":
        raise RecordParseError(
            path, lineno, f"wildcard only allowed in final position: {entry!r}"
        )


def liwc_profile(tokens: Sequence[str], lexicon: Lexicon) -> dict[str, float]:
    """Per-category share of tokens matching any entry; all zero when empty."""
    counts = dict.fromkeys(lexicon.categories, 0)
    for token in tokens:
        for category in lexicon.categories_of(token):
            counts[category] += 1
    total = len(tokens)
    if total == 0:
        return dict.fromkeys(lexicon.categories, 0.0)
    return {category: count / total for category, count in counts.items()}


def profile_abs_diff(p: dict[str, float], q: dict[str, float]) -> float:
    """Mean absolute per-category difference between two profiles."""
    if set(p) != set(q):
        raise MismatchError("profiles cover different categories")
    if not p:
        return 0.0
    return sum(abs(p[c] - q[c]) for c in p) / len(p)


# ---------------------------------------------------------------------------
# embeddings


class EmbeddingProvider(Protocol):
    dimension: int

    def embed_text(self, text: str) -> np.ndarray: ...

    def mean_vector(self, texts: Sequence[str]) -> np.ndarray:
        """The mean of ``embed_text`` over one or more texts."""
        ...


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class _TrigramBuckets(dict):
    """One dimension's trigram -> bucket memo: a trigram, as the tuple of its
    three characters, maps to the FNV-1a 64 hash of its UTF-8 bytes modulo
    the dimension, hashed on first lookup."""

    def __init__(self, dimension: int):
        super().__init__()
        self.dimension = dimension

    def __missing__(self, trigram: tuple[str, str, str]) -> int:
        bucket = self[trigram] = _fnv1a64("".join(trigram).encode("utf-8")) % self.dimension
        return bucket


@dataclass(frozen=True)
class HashedTrigramProvider:
    """Deterministic bag of hashed character trigrams, fixed dimension; two
    providers of one dimension are equal. Each provider hashes a distinct
    trigram once."""

    dimension: int = 256
    _buckets: _TrigramBuckets = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_buckets", _TrigramBuckets(self.dimension))

    def _counts(self, texts: Sequence[str]) -> np.ndarray:
        """Integer trigram count per bucket, over all of ``texts``."""
        buckets: list[int] = []
        for lowered in map(str.lower, texts):
            buckets.extend(map(self._buckets.__getitem__, zip(lowered, lowered[1:], lowered[2:])))
        return np.bincount(np.array(buckets, dtype=np.intp), minlength=self.dimension)

    def embed_text(self, text: str) -> np.ndarray:
        return self._counts((text,)).astype(float)

    def mean_vector(self, texts: Sequence[str]) -> np.ndarray:
        # integer counts sum exactly, so one count over all texts divided by
        # their number is the mean of the per-text vectors to the bit
        return self._counts(texts) / len(texts)


def parse_float(text: str) -> float:
    """``float`` of ASCII text without ``_`` or surrounding whitespace, the
    spellings this program writes; ``ValueError`` for any other text."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ExternalVectorProvider:
    """Looks up precomputed vectors by text hash from a tab-separated file."""

    def __init__(self, path: str | Path):
        self._path = str(path)
        self._vectors: dict[str, np.ndarray] = {}
        dimension = None
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise RecordParseError(str(path), lineno, "expected hash<TAB>floats")
                try:
                    vec = np.array([parse_float(x) for x in parts[1].split(",")])
                except ValueError:
                    raise RecordParseError(str(path), lineno, "bad float") from None
                if not np.isfinite(vec).all():
                    raise RecordParseError(str(path), lineno, "non-finite component")
                if dimension is None:
                    dimension = vec.size
                elif vec.size != dimension:
                    raise RecordParseError(
                        str(path), lineno, f"dimension {vec.size} != {dimension}"
                    )
                if parts[0] in self._vectors:
                    raise RecordParseError(str(path), lineno, "repeated text hash")
                self._vectors[parts[0]] = vec
        if dimension is None:
            raise EmptyInputError("external embedding file is empty")
        self.dimension = dimension

    def embed_text(self, text: str) -> np.ndarray:
        key = text_hash(text)
        if key not in self._vectors:
            raise MissingVectorError(f"{self._path}: no precomputed vector for text hash {key}")
        return self._vectors[key]

    def mean_vector(self, texts: Sequence[str]) -> np.ndarray:
        total = np.zeros(self.dimension)
        for text in texts:
            total += self.embed_text(text)
        return total / len(texts)


def embed(texts: Sequence[str], provider: EmbeddingProvider) -> np.ndarray:
    """Mean of per-text vectors from the provider."""
    if not texts:
        raise EmptyInputError("embed() needs at least one text")
    return provider.mean_vector(texts)


def cosine(u, v) -> float:
    """Cosine similarity; 0 when either vector has zero norm."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise MismatchError(f"vector shapes differ: {u.shape} vs {v.shape}")
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


# ---------------------------------------------------------------------------
# sentiment


@dataclass(frozen=True)
class SentimentLexicon:
    valences: dict[str, float]

    def __post_init__(self):
        for token, valence in self.valences.items():
            _check_sentiment_entry(token, valence, None, None)


def _check_sentiment_entry(
    token: str, valence: float, path: str | None, lineno: int | None
) -> None:
    """The entry rules, for ``SentimentLexicon`` and for the file parser: a
    token ``tokenize`` returns as itself, so it can match, and a valence in
    [-1, 1]."""
    if tokenize(token) != [token]:
        raise RecordParseError(path, lineno, f"token {token!r} is not one lowercase token")
    if not math.isfinite(valence) or not -1.0 <= valence <= 1.0:
        raise RecordParseError(path, lineno, f"valence for {token!r} outside [-1, 1]")


def sentiment(tokens: Sequence[str], lex: SentimentLexicon) -> float:
    """Mean valence of tokens found in the lexicon; 0 when none match."""
    hits = [lex.valences[t] for t in tokens if t in lex.valences]
    if not hits:
        return 0.0
    return sum(hits) / len(hits)


# ---------------------------------------------------------------------------
# file formats


def load_lexicon(path: str | Path) -> Lexicon:
    return _parse_lexicon(Path(path).read_text(encoding="utf-8").splitlines(), str(path))


def _parse_lexicon(lines: list[str], path: str) -> Lexicon:
    id_to_name: dict[str, str] = {}
    entries: dict[str, list[str]] = {}
    in_header = False
    header_done = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "%":
            if header_done:
                raise RecordParseError(path, lineno, "unexpected % after header")
            if in_header:
                in_header = False
                header_done = True
            else:
                in_header = True
            continue
        if in_header:
            parts = line.split("\t")
            if len(parts) != 2:
                raise RecordParseError(path, lineno, "header line must be id<TAB>name")
            cat_id, name = parts
            if name in entries:
                raise RecordParseError(path, lineno, f"duplicate category {name!r}")
            if cat_id in id_to_name:
                raise RecordParseError(path, lineno, f"duplicate category id {cat_id!r}")
            id_to_name[cat_id] = name
            entries[name] = []
        else:
            if not header_done:
                raise RecordParseError(path, lineno, "entries before header block")
            parts = line.split("\t")
            if len(parts) < 2:
                raise RecordParseError(path, lineno, "entry line must be token<TAB>ids")
            token = parts[0]
            _check_entry(token, path, lineno)
            for cat_id in " ".join(parts[1:]).split():
                if cat_id not in id_to_name:
                    raise RecordParseError(path, lineno, f"unknown category id {cat_id!r}")
                entries[id_to_name[cat_id]].append(token)
    if in_header:
        raise RecordParseError(path, len(lines), "unterminated header block")
    return Lexicon({k: tuple(v) for k, v in entries.items()})


def load_sentiment_lexicon(path: str | Path) -> SentimentLexicon:
    return _parse_sentiment(Path(path).read_text(encoding="utf-8").splitlines(), str(path))


def _parse_sentiment(lines: list[str], path: str) -> SentimentLexicon:
    valences: dict[str, float] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise RecordParseError(path, lineno, "expected token<TAB>valence")
        try:
            valence = parse_float(parts[1])
        except ValueError:
            raise RecordParseError(path, lineno, "bad valence") from None
        token = parts[0]
        _check_sentiment_entry(token, valence, path, lineno)
        if token in valences:
            reason = f"token {token!r} already given at line {first_line[token]}"
            raise RecordParseError(path, lineno, reason)
        valences[token], first_line[token] = valence, lineno
    return SentimentLexicon(valences)


def builtin_lexicon() -> Lexicon:
    """The demonstration category lexicon shipped with the package."""
    text = resources.files("banevasion.data").joinpath("demo_lexicon.txt").read_text("utf-8")
    return _parse_lexicon(text.splitlines(), "<builtin demo_lexicon.txt>")


def builtin_sentiment_lexicon() -> SentimentLexicon:
    """The demonstration sentiment lexicon shipped with the package."""
    text = resources.files("banevasion.data").joinpath("demo_sentiment.txt").read_text("utf-8")
    return _parse_sentiment(text.splitlines(), "<builtin demo_sentiment.txt>")


def get_provider(spec: str) -> EmbeddingProvider:
    """Resolve a provider spec: ``trigram`` or ``file:/path/to/vectors``."""
    if spec == "trigram":
        return HashedTrigramProvider()
    if spec.startswith("file:"):
        return ExternalVectorProvider(spec[len("file:"):])
    raise InvalidConfigError("embedding_provider", f"unknown provider {spec!r}")
