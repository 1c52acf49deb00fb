from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banevasion.errors import BanEvasionError, EmptyInputError, MismatchError, RecordParseError
from banevasion.textstats import (
    ExternalVectorProvider,
    _fnv1a64,
    HashedTrigramProvider,
    Lexicon,
    SentimentLexicon,
    builtin_lexicon,
    builtin_sentiment_lexicon,
    cosine,
    embed,
    jaccard,
    liwc_profile,
    load_lexicon,
    load_sentiment_lexicon,
    normalized_levenshtein,
    profile_abs_diff,
    sentiment,
    text_hash,
    tokenize,
)


def fnv1a64_oracle(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


def trigram_vector_oracle(text: str, dimension: int) -> np.ndarray:
    vec = np.zeros(dimension)
    lowered = text.lower()
    for i in range(len(lowered) - 2):
        vec[fnv1a64_oracle(lowered[i : i + 3].encode("utf-8")) % dimension] += 1.0
    return vec


TRIGRAM_PROVIDERS = tuple(HashedTrigramProvider(dimension) for dimension in (1, 7, 256))


def categories_oracle(lexicon: Lexicon, token: str) -> set[str]:
    return {
        category
        for category, entries in lexicon.categories.items()
        for entry in entries
        if token == entry or (entry.endswith("*") and token.startswith(entry[:-1]))
    }


# Characters a careless distance could conflate: case pairs, a combining mark
# and its precomposed letter, a NUL, a lone surrogate, an astral character.
AWKWARD_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from("aAbß\x00e\u0301\u00e9\u0130\u0131\ud800\U0001f600"),
                       st.characters()),
    max_size=70,
)


def edit_distance_oracle(a: str, b: str) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost
            )
    return table[len(a)][len(b)]


class TestTokenize:
    def test_basic(self):
        assert tokenize("Damn it!") == ["damn", "it"]

    def test_empty(self):
        assert tokenize("") == []

    def test_symbols_split_runs(self):
        assert tokenize("A$$ KIKR") == ["a", "kikr"]

    def test_underscore_splits(self):
        assert tokenize("snake_case") == ["snake", "case"]

    def test_unicode_letters(self):
        assert tokenize("Héllo wörld 42") == ["héllo", "wörld", "42"]


class TestNormalizedLevenshtein:
    def test_identity(self):
        assert normalized_levenshtein("abc", "abc") == 0.0

    def test_single_substitution(self):
        assert edit_distance_oracle("abc", "abd") == 1
        assert normalized_levenshtein("abc", "abd") == pytest.approx(1 / 3)

    def test_empty_vs_text(self):
        assert normalized_levenshtein("", "xy") == 1.0

    def test_both_empty(self):
        assert normalized_levenshtein("", "") == 0.0

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_matches_oracle(self, a, b):
        expected = (
            edit_distance_oracle(a, b) / max(len(a), len(b)) if (a or b) else 0.0
        )
        assert normalized_levenshtein(a, b) == pytest.approx(expected)

    @settings(deadline=None)
    @given(AWKWARD_TEXT, AWKWARD_TEXT)
    def test_matches_oracle_on_awkward_unicode(self, a, b):
        # past 64 characters, so the bit vectors outgrow a machine word
        expected = edit_distance_oracle(a, b) / max(len(a), len(b)) if (a or b) else 0.0
        assert normalized_levenshtein(a, b) == expected

    def test_every_pair_over_three_letters(self):
        """Every pair of strings of up to 6 letters over a 3-letter alphabet, up
        to a renaming of the letters, which neither the oracle nor the bit
        vectors can tell apart: the letters first occur in a + b in the order
        a, b, c. The oracle's table for a is grown one row per letter of b."""
        checked = 0

        def extend(a, b, used, row):
            nonlocal checked
            checked += 1
            expected = row[-1] / max(len(a), len(b)) if (a or b) else 0.0
            assert normalized_levenshtein(a, b) == expected, (a, b)
            if len(b) < 6:
                for n, c in enumerate("abc"[: used + 1], start=1):
                    new = [row[0] + 1]
                    for i, ca in enumerate(a, start=1):
                        new.append(min(row[i] + 1, new[i - 1] + 1, row[i - 1] + (ca != c)))
                    extend(a, b + c, max(used, n), new)

        def grow(a, used):
            extend(a, "", used, list(range(len(a) + 1)))
            if len(a) < 6:
                for n, c in enumerate("abc"[: used + 1], start=1):
                    grow(a + c, max(used, n))

        grow("", 0)
        assert edit_distance_oracle("abcab", "bca") == 2
        # a string of length n > 0 has (3 ** (n - 1) + 1) / 2 such forms
        forms = [1] + [(3 ** (n - 1) + 1) // 2 for n in range(1, 13)]
        assert checked == sum(forms[p + q] for p in range(7) for q in range(7))

    @given(st.text(max_size=16), st.text(max_size=16))
    def test_symmetric_and_bounded(self, a, b):
        d = normalized_levenshtein(a, b)
        assert 0.0 <= d <= 1.0
        assert d == normalized_levenshtein(b, a)
        assert (d == 0.0) == (a == b)


class TestJaccard:
    def test_identity(self):
        assert jaccard({"x", "y"}, {"x", "y"}) == 1.0

    def test_disjoint(self):
        assert jaccard({"x"}, {"y"}) == 0.0

    def test_partial(self):
        assert jaccard({"x", "y"}, {"y", "z"}) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard(set(), set()) == 0.0

    @given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
    def test_bounds_and_symmetry(self, a, b):
        j = jaccard(a, b)
        assert 0.0 <= j <= 1.0
        assert j == jaccard(b, a)
        if a or b:
            assert (j == 1.0) == (a == b)
            assert j == len(a & b) / len(a | b)

    @given(st.sets(st.integers(0, 20), min_size=1), st.integers(100, 120))
    def test_monotone_in_symmetric_difference(self, a, extra):
        grown = a | {extra}
        assert jaccard(a, grown) <= jaccard(a, a)


class TestLiwcProfile:
    def test_half(self):
        lex = Lexicon({"swear": ("damn",)})
        assert liwc_profile(["damn", "it"], lex) == {"swear": 0.5}

    def test_empty_tokens(self):
        lex = Lexicon({"swear": ("damn",), "social": ("friend",)})
        assert liwc_profile([], lex) == {"swear": 0.0, "social": 0.0}

    def test_wildcard_prefix(self):
        lex = Lexicon({"focuspast": ("talk*", "ago")})
        assert liwc_profile(["talked", "ago"], lex) == {"focuspast": 1.0}

    def test_categories_match_oracle_for_two_live_lexicons(self):
        # both lexicons share tokens but map them differently, and both
        # memoize in the same process
        first = Lexicon({"swear": ("damn", "hell*"), "social": ("friend*", "talk")})
        second = Lexicon({"swear": ("friend", "talk*"), "home": ("damn*", "hello")})
        tokens = ["damn", "damned", "hell", "hello", "friend", "friends", "talk",
                  "talked", "zzz", ""]
        for _ in range(2):  # the second pass reads the memos
            for lexicon in (first, second):
                for token in tokens:
                    assert lexicon.categories_of(token) == categories_oracle(lexicon, token)
        assert first.categories_of("hello") == {"swear"}
        assert second.categories_of("hello") == {"home"}

    def test_categories_cannot_be_mutated(self):
        lex = Lexicon({"swear": ("damn",)})
        cats = lex.categories_of("damn")
        assert isinstance(cats, frozenset)
        with pytest.raises(AttributeError):
            cats.add("social")
        assert lex.categories_of("damn") == {"swear"}

    def test_wildcard_must_be_final(self):
        with pytest.raises(RecordParseError, match="wildcard only allowed in final position"):
            Lexicon({"bad": ("ta*lk",)})

    def test_entries_must_be_lowercase(self):
        with pytest.raises(RecordParseError, match="entry 'Damn' must be lowercase"):
            Lexicon({"bad": ("Damn",)})

    @given(
        st.lists(st.sampled_from(["damn", "it", "friend", "zzz", "talked"]), max_size=30)
    )
    def test_values_in_unit_interval(self, tokens):
        lex = Lexicon({"swear": ("damn",), "social": ("friend", "talk*")})
        profile = liwc_profile(tokens, lex)
        assert all(0.0 <= v <= 1.0 for v in profile.values())

    @given(
        st.lists(st.sampled_from(["damn", "it", "friend", "zzz"]), max_size=20),
        st.lists(st.sampled_from(["damn", "it", "friend", "zzz"]), max_size=20),
    )
    def test_concatenation_is_weighted_average(self, left, right):
        lex = Lexicon({"swear": ("damn",), "social": ("friend",)})
        combined = liwc_profile(left + right, lex)
        p, q = liwc_profile(left, lex), liwc_profile(right, lex)
        n, m = len(left), len(right)
        if n + m == 0:
            return
        for cat in combined:
            expected = (p[cat] * n + q[cat] * m) / (n + m)
            assert combined[cat] == pytest.approx(expected)


class TestProfileDiff:
    def test_identity(self):
        p = {"a": 0.3, "b": 0.1}
        assert profile_abs_diff(p, dict(p)) == 0.0

    def test_mean_of_diffs(self):
        assert profile_abs_diff({"a": 0.3, "b": 0.5}, {"a": 0.1, "b": 0.5}) == pytest.approx(0.1)

    def test_category_mismatch(self):
        with pytest.raises(MismatchError, match="profiles cover different categories"):
            profile_abs_diff({"a": 0.1}, {"b": 0.1})

    @given(
        st.dictionaries(st.sampled_from("abcde"), st.floats(0, 1), min_size=1, max_size=5)
    )
    def test_equals_naive_recomputation(self, p):
        q = {k: (v + 0.25) % 1.0 for k, v in p.items()}
        expected = sum(abs(p[c] - q[c]) for c in p) / len(p)
        assert profile_abs_diff(p, q) == pytest.approx(expected)


class TestEmbedding:
    def test_deterministic(self):
        provider = HashedTrigramProvider()
        a = embed(["some shared text", "another"], provider)
        b = embed(["some shared text", "another"], provider)
        assert np.array_equal(a, b)
        assert a.shape == (provider.dimension,)

    def test_no_shared_trigram_is_orthogonal(self):
        provider = HashedTrigramProvider()
        u = embed(["aaaa"], provider)
        v = embed(["bbbb"], provider)
        assert not np.array_equal(u, v)
        assert cosine(u, v) == 0.0

    def test_single_text_is_own_vector(self):
        provider = HashedTrigramProvider()
        assert np.array_equal(
            embed(["hello world"], provider), provider.embed_text("hello world")
        )

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            embed([], HashedTrigramProvider())

    def test_equal_trigram_multisets_embed_identically(self):
        provider = HashedTrigramProvider()
        # distinct strings, identical trigram multiset {abc, bca, cab}
        assert np.array_equal(provider.embed_text("abcab"), provider.embed_text("bcabc"))

    def test_text_order_does_not_change_mean(self):
        provider = HashedTrigramProvider()
        a = embed(["first text", "second text"], provider)
        b = embed(["second text", "first text"], provider)
        assert np.allclose(a, b)

    @pytest.mark.parametrize(
        "data, expected",
        [(b"", 0xCBF29CE484222325), (b"a", 0xAF63DC4C8601EC8C), (b"foobar", 0x85944171F73967E8)],
    )
    def test_fnv1a64_known_answers(self, data, expected):
        assert _fnv1a64(data) == expected == fnv1a64_oracle(data)

    @given(st.text(max_size=40))
    @example("ab")
    @example("Ünï€𝄞 côdé")
    def test_trigram_vector_matches_oracle(self, text):
        # three dimensions live in one process, and their memos fill across
        # examples: a bucket memoized for one dimension must not serve another
        for provider in TRIGRAM_PROVIDERS:
            assert np.array_equal(
                provider.embed_text(text), trigram_vector_oracle(text, provider.dimension)
            )

    @given(st.lists(st.text(max_size=30), min_size=1, max_size=6))
    def test_account_mean_equals_mean_of_text_vectors(self, texts):
        provider = HashedTrigramProvider(7)
        total = np.zeros(provider.dimension)
        for text in texts:
            total += provider.embed_text(text)
        assert np.array_equal(embed(texts, provider), total / len(texts))

    def test_external_provider_round_trip(self, tmp_path):
        path = tmp_path / "vectors.tsv"
        rows = [("alpha", [1.0, 2.0]), ("beta", [0.5, -1.0])]
        with open(path, "w", encoding="utf-8") as fh:
            for text, vec in rows:
                fh.write(f"{text_hash(text)}\t{','.join(map(str, vec))}\n")
        provider = ExternalVectorProvider(path)
        assert provider.dimension == 2
        assert np.allclose(provider.embed_text("alpha"), [1.0, 2.0])
        with pytest.raises(KeyError):
            provider.embed_text("missing")

    def test_external_provider_miss_names_file_and_hash(self, tmp_path):
        path = tmp_path / "vectors.tsv"
        path.write_text(f"{text_hash('alpha')}\t1.0,2.0\n", encoding="utf-8")
        with pytest.raises(KeyError) as err:
            ExternalVectorProvider(path).embed_text("missing")
        assert isinstance(err.value, BanEvasionError)
        assert str(err.value) == (
            f"{path}: no precomputed vector for text hash {text_hash('missing')}"
        )


class TestCosine:
    def test_self_similarity(self):
        assert cosine([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_formula(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / math.sqrt(2))

    def test_zero_norm(self):
        assert cosine([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(MismatchError, match="vector shapes differ"):
            cosine([1.0], [1.0, 2.0])

    @given(
        st.lists(
            st.floats(-5, 5).filter(lambda x: x == 0.0 or abs(x) > 1e-3),
            min_size=2,
            max_size=6,
        ),
        st.floats(0.1, 100.0),
    )
    def test_scale_invariance(self, values, alpha):
        u = np.array(values)
        v = np.arange(1.0, len(values) + 1.0)
        assert cosine(alpha * u, v) == pytest.approx(cosine(u, v), abs=1e-9)


class TestSentiment:
    def test_no_matches(self):
        lex = SentimentLexicon({"good": 0.5})
        assert sentiment(["neutral", "words"], lex) == 0.0

    def test_single(self):
        lex = SentimentLexicon({"good": 0.8})
        assert sentiment(["good"], lex) == pytest.approx(0.8)

    def test_mixed(self):
        lex = SentimentLexicon({"good": 0.8, "bad": -0.4})
        assert sentiment(["good", "bad"], lex) == pytest.approx(0.2)

    def test_valence_range_enforced(self):
        with pytest.raises(RecordParseError, match="valence for 'off' outside"):
            SentimentLexicon({"off": 1.5})

    @pytest.mark.parametrize("token", ["Nice", "two words", "a-b", ""])
    def test_token_must_tokenize_as_itself(self, token):
        # ``tokenize`` lowercases and splits, so such an entry could never match
        with pytest.raises(RecordParseError) as err:
            SentimentLexicon({token: 0.3})
        assert str(err.value) == f"token {token!r} is not one lowercase token"
        assert err.value.path is None


class TestLexiconFiles:
    def test_builtin_lexicon_loads(self):
        lex = builtin_lexicon()
        assert "swear" in lex.categories
        assert "focuspast" in lex.categories
        assert liwc_profile(["damn"], lex)["swear"] == 1.0

    def test_builtin_sentiment_loads(self):
        lex = builtin_sentiment_lexicon()
        assert sentiment(["hate"], lex) < 0 < sentiment(["love"], lex)

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text(
            "%\n1\tswear\n2\tsocial\n%\ncrap\t1\ndamn\t1\nfriend*\t2\ntalk*\t2\n",
            encoding="utf-8",
        )
        reloaded = load_lexicon(path)
        assert {k: set(v) for k, v in reloaded.categories.items()} == {
            "swear": {"damn", "crap"},
            "social": {"friend*", "talk*"},
        }

    def test_sentiment_file_round_trip(self, tmp_path):
        path = tmp_path / "sent.txt"
        path.write_text("good\t0.5\nbad\t-0.25\n", encoding="utf-8")
        lex = load_sentiment_lexicon(path)
        assert lex.valences == {"good": 0.5, "bad": -0.25}

    def test_lexicon_parse_errors(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("%\n1\tswear\n%\ndamn\t9\n", encoding="utf-8")
        with pytest.raises(RecordParseError, match="unknown category id '9'"):
            load_lexicon(path)


LEXICON_HEAD = "%\n1\tswear\n%\ndamn\t1\n\n"  # a blank line 5: the next is line 6
SENTIMENT_HEAD = "good\t0.5\n\n"  # the next is line 3
VECTORS_HEAD = f"{text_hash('a')}\t0.5,1.0\n\n"  # the next is line 3
# (loader, file text, line of the fault, message fragment)
LEXICON_RULE_BREAKS = {
    "uppercase": (load_lexicon, LEXICON_HEAD + "Hell\t1\n", 6, "entry 'Hell' must be lowercase"),
    "inner_wildcard": (load_lexicon, LEXICON_HEAD + "ta*lk\t1\n", 6,
                       "wildcard only allowed in final position: 'ta*lk'"),
    "lone_wildcard": (load_lexicon, LEXICON_HEAD + "*\t1\n", 6,
                      "wildcard only allowed in final position: '*'"),
    "repeated_category_id": (load_lexicon, "%\n1\tposemo\n1\tnegemo\n%\n", 3,
                             "duplicate category id '1'"),
    "sentiment_repeated_token": (load_sentiment_lexicon, SENTIMENT_HEAD + "good\t-0.9\n", 3,
                                 "token 'good' already given at line 1"),
    "sentiment_uppercase_token": (load_sentiment_lexicon, SENTIMENT_HEAD + "Nice\t0.3\n", 3,
                                  "token 'Nice' is not one lowercase token"),
    "valence_above": (load_sentiment_lexicon, SENTIMENT_HEAD + "bad\t2.0\n", 3,
                      "valence for 'bad' outside [-1, 1]"),
    "valence_below": (load_sentiment_lexicon, SENTIMENT_HEAD + "bad\t-1.5\n", 3,
                      "valence for 'bad' outside [-1, 1]"),
    "valence_nan": (load_sentiment_lexicon, SENTIMENT_HEAD + "bad\tnan\n", 3,
                    "valence for 'bad' outside [-1, 1]"),
    "valence_underscore": (load_sentiment_lexicon, SENTIMENT_HEAD + "bad\t0_1\n", 3,
                           "bad valence"),
    "valence_non_ascii_digit": (load_sentiment_lexicon, SENTIMENT_HEAD + "bad\t-\u0661\n", 3,
                                "bad valence"),
    "valence_padded": (load_sentiment_lexicon, SENTIMENT_HEAD + "bad\t -0.5\n", 3,
                       "bad valence"),
    "vector_nan": (ExternalVectorProvider, VECTORS_HEAD + f"{text_hash('b')}\tnan,1.0\n", 3,
                   "non-finite component"),
    "vector_inf": (ExternalVectorProvider, VECTORS_HEAD + f"{text_hash('b')}\t2.0,inf\n", 3,
                   "non-finite component"),
    "vector_underscore": (ExternalVectorProvider, VECTORS_HEAD + f"{text_hash('b')}\t1_0,1.0\n",
                          3, "bad float"),
    "vector_non_ascii_digit": (ExternalVectorProvider,
                               VECTORS_HEAD + f"{text_hash('b')}\t1.0,\u0661\n", 3, "bad float"),
    "vector_padded": (ExternalVectorProvider, VECTORS_HEAD + f"{text_hash('b')}\t1.0, 2.0\n", 3,
                      "bad float"),
    "vector_repeated_hash": (ExternalVectorProvider, VECTORS_HEAD + f"{text_hash('a')}\t2.0,3.0\n",
                             3, "repeated text hash"),
}


@pytest.mark.parametrize("name", sorted(LEXICON_RULE_BREAKS))
def test_lexicon_rule_error_names_file_and_line(tmp_path, name):
    load, text, line, fragment = LEXICON_RULE_BREAKS[name]
    path = tmp_path / "lexicon.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(RecordParseError) as err:
        load(path)
    assert (err.value.path, err.value.line_number) == (str(path), line)
    assert str(err.value) == f"{path}:{line}: {fragment}"
