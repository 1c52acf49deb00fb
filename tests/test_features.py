from __future__ import annotations

import random

import numpy as np
import pytest

from banevasion.corpus import SynthConfig, generate_synthetic
from banevasion.errors import MissingParentBanError, RecordParseError, UnsortedRevisionsError
from banevasion.features import (
    Digests,
    FeatureConfig,
    FeatureVector,
    account_features,
    account_vectors,
    pair_features,
    pair_vectors,
    read_feature_matrix,
    write_feature_matrix,
)
from banevasion.matching import TASKS
from banevasion.pairing import extract_evasion_pairs, first_pair_per_group, merge_groups
from banevasion.textstats import HashedTrigramProvider, Lexicon, SentimentLexicon

from conftest import account, corpus_of, revision


@pytest.fixture(scope="module")
def config():
    return FeatureConfig()


class TestAccountFeatures:
    def test_zero_revision_account(self, config):
        vec = account_features(account("a", 1_600_000_000), [], config)
        values = vec.as_dict()
        assert values["unique_pages"] == 0
        assert values["total_contributions"] == 0
        assert values["mean_gap_seconds"] == 0
        assert values["mean_contribution_size"] == 0
        assert values["is_banned"] == 0
        assert values["duration_seconds"] == -1
        assert values["banned_dow"] == -1
        assert all(values[n] == 0 for n in vec.names if n.startswith("liwc_"))

    def test_mean_gap(self, config):
        acct = account("a", 1000, ban=5000)
        revs = [revision("a", "p", 2000), revision("a", "p", 2100)]
        assert account_features(acct, revs, config).as_dict()["mean_gap_seconds"] == 100

    def test_calendar_fields(self, config):
        # 2020-09-13 is a Sunday
        vec = account_features(account("a", 1_600_000_000), [], config).as_dict()
        assert vec["created_dow"] == 6
        assert vec["created_month"] == 9
        assert vec["created_day"] == 13

    def test_duration(self, config):
        vec = account_features(account("a", 100, ban=500), [], config).as_dict()
        assert vec["duration_seconds"] == 400
        assert vec["is_banned"] == 1

    def test_mean_contribution_size(self, config):
        acct = account("a", 0)
        revs = [
            revision("a", "p", 10, added="abcd", deleted="xy"),
            revision("a", "q", 20, added="", deleted=""),
        ]
        vec = account_features(acct, revs, config).as_dict()
        assert vec["mean_contribution_size"] == 3.0

    def test_unsorted_revisions_rejected(self, config):
        acct = account("a", 0)
        revs = [revision("a", "p", 20), revision("a", "p", 10)]
        with pytest.raises(UnsortedRevisionsError):
            account_features(acct, revs, config)

    def test_unique_pages_matches_naive_recount(self, config):
        result = generate_synthetic(
            SynthConfig(n_groups=4, n_benign=0, n_nonevading_malicious=0, seed=5)
        )
        for parent_id, _ in result.true_pairs:
            acct = result.corpus.account(parent_id)
            revs = result.corpus.revisions_of(parent_id)
            vec = account_features(acct, revs, config).as_dict()
            naive = set()
            for rev in revs:
                naive.add(rev.page_id)
            assert vec["unique_pages"] == len(naive)
            assert vec["total_contributions"] == len(revs)

    def test_deterministic_order_and_values(self, config):
        acct = account("a", 123456, ban=999999)
        revs = [revision("a", "p", 200000, added="the damn thing")]
        a = account_features(acct, revs, config)
        b = account_features(acct, revs, config)
        assert a.names == b.names
        assert np.array_equal(a.values, b.values)


class TestPairFeatures:
    def pair(self, config, **overrides):
        parent = overrides.get("parent", account("p", 0, ban=1000))
        parent_revs = overrides.get(
            "parent_revs",
            [
                revision("p", "page-a", 10, added="the damn report", comment="fix typo"),
                revision("p", "page-b", 500, added="it was ago", comment="add link"),
            ],
        )
        other = overrides.get("other", account("c", 2000, ban=4000))
        other_revs = overrides.get("other_revs")
        if other_revs is None:
            other_revs = [
                revision("c", r.page_id, r.timestamp + 2000, added=r.added_text, comment=r.comment)
                for r in parent_revs
            ]
        return pair_features(parent, parent_revs, other, other_revs, config)

    def test_self_pair_identity(self, config):
        vec = self.pair(config).as_dict()
        assert vec["page_jaccard"] == 1.0
        assert vec["comment_unigram_jaccard"] == 1.0
        assert vec["added_unigram_jaccard"] == 1.0
        assert vec["embedding_cosine"] == pytest.approx(1.0)
        assert vec["profile_abs_diff"] == 0.0
        assert vec["sentiment_abs_diff"] == 0.0

    def test_disjoint_pair(self, config):
        other_revs = [revision("c", "zz", 3000, added="qqq www", comment="zzz qqq")]
        vec = self.pair(config, other_revs=other_revs).as_dict()
        assert vec["page_jaccard"] == 0.0
        assert vec["added_unigram_jaccard"] == 0.0

    def test_inter_account_duration_sign(self, config):
        vec = self.pair(config).as_dict()
        assert vec["inter_account_seconds"] == 1000.0
        earlier = account("c", 500, ban=4000)
        vec = self.pair(config, other=earlier, other_revs=[]).as_dict()
        assert vec["inter_account_seconds"] == -500.0

    def test_parent_must_be_banned(self, config):
        with pytest.raises(MissingParentBanError):
            pair_features(account("p", 0), [], account("c", 10), [], config)

    def test_k_limit_uses_first_edits_only(self):
        config = FeatureConfig(k_limit=1)
        parent_revs = [revision("p", "page-a", 10, added="alpha beta")]
        other_revs = [
            revision("c", "page-a", 2000, added="alpha beta"),
            revision("c", "page-zz", 2100, added="totally different"),
        ]
        vec = pair_features(
            account("p", 0, ban=1000), parent_revs, account("c", 2000, ban=4000),
            other_revs, config,
        ).as_dict()
        assert vec["page_jaccard"] == 1.0
        assert vec["added_unigram_jaccard"] == 1.0

    def test_large_k_limit_equals_unlimited(self):
        unlimited = FeatureConfig(k_limit=None)
        huge = FeatureConfig(k_limit=10_000)
        a = self.pair(unlimited)
        b = self.pair(huge)
        assert a.names == b.names
        assert np.array_equal(a.values, b.values)

    def test_child_ban_features_toggle(self):
        with_ban = self.pair(FeatureConfig(include_child_ban_features=True))
        without = self.pair(FeatureConfig(include_child_ban_features=False))
        assert "child_duration_seconds" in with_ban.names
        assert "child_duration_seconds" not in without.names
        assert "child_banned_dow" not in without.names

    def test_unbanned_other_gets_sentinels(self, config):
        vec = self.pair(config, other=account("c", 2000), other_revs=[]).as_dict()
        assert vec["child_is_banned"] == 0.0
        assert vec["child_duration_seconds"] == -1.0
        assert vec["child_banned_dow"] == -1.0

    def test_similarity_ranges(self, config):
        rng = random.Random(3)
        result = generate_synthetic(
            SynthConfig(n_groups=6, n_benign=0, n_nonevading_malicious=6, seed=9)
        )
        corpus = result.corpus
        accounts = [a for a in corpus.accounts if a.ban_time is not None]
        for _ in range(30):
            parent, other = rng.sample(accounts, 2)
            vec = pair_features(
                parent, corpus.revisions_of(parent.account_id),
                other, corpus.revisions_of(other.account_id), config,
            ).as_dict()
            for key in ("page_jaccard", "comment_unigram_jaccard", "added_unigram_jaccard"):
                assert 0.0 <= vec[key] <= 1.0
            assert -1.0 <= vec["embedding_cosine"] <= 1.0

    def test_planted_page_overlap_matches_naive_jaccard(self, config):
        result = generate_synthetic(
            SynthConfig(n_groups=5, n_benign=0, n_nonevading_malicious=0,
                        page_overlap=0.5, seed=21)
        )
        corpus = result.corpus
        for parent_id, child_id in result.true_pairs:
            parent_pages = {r.page_id for r in corpus.revisions_of(parent_id)}
            child_pages = {r.page_id for r in corpus.revisions_of(child_id)}
            union = parent_pages | child_pages
            expected = len(parent_pages & child_pages) / len(union) if union else 0.0
            vec = pair_features(
                corpus.account(parent_id), corpus.revisions_of(parent_id),
                corpus.account(child_id), corpus.revisions_of(child_id), config,
            ).as_dict()
            assert vec["page_jaccard"] == pytest.approx(expected)


class TestPairVectors:
    """The batch path memoizes each side's digest; rows must still equal
    pair_features computed one pair at a time."""

    def corpus(self):
        accounts = [
            account("x", 0, ban=1000),
            account("y", 2000, ban=4000),
            account("z", -3000, ban=-100),
            account("w", 2500),
        ]
        revisions = [
            revision("x", f"page-{i}", 10 + i, added=f"word{i} damn talk", comment=f"c{i}")
            for i in range(6)
        ] + [
            revision("y", "page-0", 2100, added="word0 calm", comment="c0"),
            revision("y", "page-5", 2200, added="word5 ago", comment="c9"),
            revision("z", "page-4", -2000, added="word4 good", comment="c4"),
            revision("w", "page-1", 2600, added="word1", comment="c1"),
        ]
        return corpus_of(accounts, revisions)

    @pytest.mark.parametrize("child_ban", [True, False])
    def test_rows_equal_pair_features(self, child_ban):
        corpus = self.corpus()
        config = FeatureConfig(k_limit=3, include_child_ban_features=child_ban)
        # x is an untruncated parent, then a truncated other side; y and w
        # have at most k revisions, so their other side is untruncated.
        keys = [("x", "y"), ("z", "x"), ("x", "w"), ("y", "x"), ("x", "y"), ("z", "y")]
        rows = pair_vectors(Digests(corpus, config), keys, config)
        assert len(rows) == len(keys)
        for (parent_id, other_id), row in zip(keys, rows):
            expected = pair_features(
                corpus.account(parent_id), corpus.revisions_of(parent_id),
                corpus.account(other_id), corpus.revisions_of(other_id), config,
            )
            assert row.names == expected.names
            assert np.array_equal(row.values, expected.values)
        # the truncated x must differ from the full x
        full = pair_vectors(Digests(corpus), [("z", "x")], FeatureConfig(include_child_ban_features=child_ban))
        assert not np.array_equal(full[0].values, rows[1].values)


class TestDigests:
    """The store builds each digest once; what it returns must equal the
    per-item references built from the same revisions."""

    @pytest.fixture(scope="class")
    def synthetic(self):
        corpus = generate_synthetic(
            SynthConfig(n_groups=12, n_benign=60, n_nonevading_malicious=40, seed=21)
        ).corpus
        groups = merge_groups(corpus.sockpuppet_records, corpus)
        pairs = first_pair_per_group(extract_evasion_pairs(groups, corpus), corpus)
        return corpus, groups, pairs

    def test_task1_rows_equal_account_features(self, synthetic, config):
        corpus, groups, pairs = synthetic
        task = TASKS["1"]
        samples = task.match(corpus, groups, pairs, task.window_seconds)
        assert len({s.other_id for s in samples}) < len(samples)  # negatives recur
        digests = Digests(corpus, config)
        rows = task.vectors(samples, digests, task.feature_config(config))
        assert len(rows) == len(samples)
        for sample, row in zip(samples, rows):
            expected = account_features(
                corpus.account(sample.other_id), corpus.revisions_of(sample.other_id), config
            )
            assert row.names == expected.names
            assert np.array_equal(row.values, expected.values)

    def test_every_account_row_equals_account_features(self, synthetic, config):
        corpus, _, _ = synthetic
        ids = [a.account_id for a in corpus.accounts]
        for account_id, row in zip(ids, account_vectors(Digests(corpus, config), ids)):
            expected = account_features(
                corpus.account(account_id), corpus.revisions_of(account_id), config
            )
            assert row.names == expected.names
            assert np.array_equal(row.values, expected.values)

    def test_key_is_revisions_used(self):
        corpus = TestPairVectors().corpus()  # x has 6 revisions, y has 2
        digests = Digests(corpus)
        assert digests.of("y", 3) is digests.of("y") is digests.of("y", 2)
        assert digests.of("x", 3) is not digests.of("x")
        assert digests.of("x", 3) is digests.of("x", 3)
        assert (digests.of("x", 3).revision_count, digests.of("x").revision_count) == (3, 6)

    def test_config_variant_with_same_text_resources_accepted(self):
        corpus = TestPairVectors().corpus()
        digests = Digests(corpus)
        variant = FeatureConfig(k_limit=2, include_child_ban_features=False)
        (row,) = pair_vectors(digests, [("x", "y")], variant)
        expected = pair_features(
            corpus.account("x"), corpus.revisions_of("x"),
            corpus.account("y"), corpus.revisions_of("y"), variant,
        )
        assert np.array_equal(row.values, expected.values)

    @pytest.mark.parametrize(
        "field, other",
        [
            ("lexicon", Lexicon({"swear": ("damn",)})),
            ("sentiment_lexicon", SentimentLexicon({"calm": 0.5})),
            ("provider", HashedTrigramProvider(dimension=64)),
        ],
    )
    def test_config_with_other_text_resources_rejected(self, field, other):
        digests = Digests(TestPairVectors().corpus())
        with pytest.raises(ValueError, match="differ from the store's"):
            pair_vectors(digests, [("x", "y")], FeatureConfig(**{field: other}))


class TestMatrixSerialization:
    def test_round_trip(self, tmp_path, config):
        acct = account("a", 1_600_000_000, ban=1_600_100_000)
        revs = [revision("a", "p", 1_600_000_500, added="damn it all")]
        vec = account_features(acct, revs, config)
        path = tmp_path / "features.tsv"
        write_feature_matrix(path, ["s1", "s2"], [1, 0], [vec, vec])
        ids, labels, names, X = read_feature_matrix(path)
        assert ids == ["s1", "s2"]
        assert labels.tolist() == [1, 0]
        assert names == vec.names
        assert np.array_equal(X[0], vec.values)

        write_feature_matrix(tmp_path / "again.tsv", ["s1", "s2"], [1, 0], [vec, vec])
        assert (tmp_path / "features.tsv").read_bytes() == (tmp_path / "again.tsv").read_bytes()

    def test_read_then_write_is_identity(self, tmp_path, config):
        acct = account("a", 1_600_000_000, ban=1_600_100_000)
        vec = account_features(acct, [revision("a", "p", 1_600_000_500, added="hi")], config)
        path = tmp_path / "features.tsv"
        write_feature_matrix(path, ["s1", "s2"], [0, 1], [vec, vec])
        ids, labels, names, X = read_feature_matrix(path)
        rows = [FeatureVector(names, row) for row in X]
        write_feature_matrix(tmp_path / "again.tsv", ids, labels.tolist(), rows)
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            ("id\tlabel\tf1\ns1\t1\t0.5\n", 1, "header"),
            ("", 1, "header"),
            ("sample_id\tlabel\tf1\tf2\ns1\t1\t0.5\t0.5\ns2\t0\t0.5\n", 3, "got 3"),
            ("sample_id\tlabel\tf1\ns1\t1\t0.5\t0.5\n", 2, "got 4"),
            ("sample_id\tlabel\tf1\ns1\t1\t0.5\n\n", 3, "got 1"),
            ("sample_id\tlabel\tf1\ns1\t2\t0.5\n", 2, "label must be 0 or 1"),
            ("sample_id\tlabel\tf1\ns1\t1.0\t0.5\n", 2, "label must be 0 or 1"),
            ("sample_id\tlabel\tf1\ns1\t1\t0.5\ns2\t0\tabc\n", 3, "abc"),
        ],
        ids=[
            "bad_header", "empty_file", "short_row", "long_row", "blank_line",
            "label_2", "label_float", "non_float_value",
        ],
    )
    def test_corrupt_matrix_names_line(self, tmp_path, text, line, fragment):
        path = tmp_path / "features.tsv"
        path.write_text(text)
        with pytest.raises(RecordParseError) as exc:
            read_feature_matrix(path)
        assert (exc.value.path, exc.value.line_number) == (str(path), line)
        assert fragment in exc.value.reason

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "features.tsv"
        path.write_text(f"sample_id\tlabel\tf1\tf2\ns1\t1\t0.5\t0.5\ns2\t0\t0.5\t{value}\n")
        with pytest.raises(RecordParseError) as exc:
            read_feature_matrix(path)
        assert (exc.value.path, exc.value.line_number) == (str(path), 3)
        assert f"f2 is not finite: {value!r}" in exc.value.reason

    def test_feature_vector_validation(self):
        with pytest.raises(ValueError):
            FeatureVector(("a", "a"), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            FeatureVector(("a",), np.array([1.0, 2.0]))
