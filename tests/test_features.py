from __future__ import annotations

import random

import numpy as np
import pytest

from banevasion.corpus import SynthConfig, generate_synthetic
from banevasion.errors import RecordParseError
from banevasion.features import (
    Digests,
    account_vectors,
    pair_vectors,
    read_feature_matrix,
    task_vectors,
    write_feature_matrix,
)
from banevasion.matching import DEFAULT_K_EDITS, TASKS
from banevasion.pairing import extract_evasion_pairs, first_pair_per_group, merge_groups
from banevasion.textstats import HashedTrigramProvider, cosine

from conftest import account, all_revisions, corpus_of, revision


CHILD_BAN_COLUMNS = {
    "child_banned_dow", "child_banned_month", "child_banned_day",
    "child_is_banned", "child_duration_seconds",
}


def account_row(acct, revs=()):
    """The account row of ``acct`` over ``revs``, keyed by column name."""
    names, X = account_vectors(Digests(corpus_of([acct], revs)), [acct.account_id])
    return dict(zip(names, X[0].tolist()))


class TestAccountFeatures:
    def test_zero_revision_account(self):
        values = account_row(account("a", 1_600_000_000))
        assert values["unique_pages"] == 0
        assert values["total_contributions"] == 0
        assert values["mean_gap_seconds"] == 0
        assert values["mean_contribution_size"] == 0
        assert values["is_banned"] == 0
        assert values["duration_seconds"] == -1
        assert values["banned_dow"] == -1
        assert all(values[n] == 0 for n in values if n.startswith("liwc_"))

    def test_mean_gap(self):
        acct = account("a", 1000, ban=5000)
        revs = [revision("a", "p", 2000), revision("a", "p", 2100)]
        assert account_row(acct, revs)["mean_gap_seconds"] == 100

    def test_calendar_fields(self):
        # 2020-09-13 is a Sunday
        vec = account_row(account("a", 1_600_000_000))
        assert vec["created_dow"] == 6
        assert vec["created_month"] == 9
        assert vec["created_day"] == 13

    def test_duration(self):
        vec = account_row(account("a", 100, ban=500))
        assert vec["duration_seconds"] == 400
        assert vec["is_banned"] == 1

    def test_mean_contribution_size(self):
        acct = account("a", 0)
        revs = [
            revision("a", "p", 10, added="abcd", deleted="xy"),
            revision("a", "q", 20, added="", deleted=""),
        ]
        vec = account_row(acct, revs)
        assert vec["mean_contribution_size"] == 3.0

    def test_out_of_order_revisions_give_the_in_order_row(self):
        # the corpus sorts each account's revisions by time
        acct = account("a", 0)
        revs = [revision("a", "p", 20, added="damn"), revision("a", "q", 10, added="calm")]
        assert account_row(acct, revs) == account_row(acct, revs[::-1])
        assert account_row(acct, revs)["mean_gap_seconds"] == 10

    def test_unique_pages_matches_naive_recount(self):
        result = generate_synthetic(
            SynthConfig(n_groups=4, n_benign=0, n_nonevading_malicious=0, seed=5)
        )
        parent_ids = [pair.parent_id for pair in result.true_pairs]
        names, X = account_vectors(Digests(result.corpus), parent_ids)
        for parent_id, row in zip(parent_ids, X.tolist()):
            revs = result.corpus.revisions_of(parent_id)
            vec = dict(zip(names, row))
            naive = set()
            for rev in revs:
                naive.add(rev.page_id)
            assert vec["unique_pages"] == len(naive)
            assert vec["total_contributions"] == len(revs)

    def test_deterministic_order_and_values(self):
        corpus = corpus_of(
            [account("a", 123456, ban=999999)],
            [revision("a", "p", 200000, added="the damn thing")],
        )
        a_names, a = account_vectors(Digests(corpus), ["a"])
        b_names, b = account_vectors(Digests(corpus), ["a"])
        assert a_names == b_names
        assert np.array_equal(a, b)


class TestPairFeatures:
    def pair(self, k_edits=None, **overrides):
        """The row of the pair (p, c), keyed by column name."""
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
        digests = Digests(corpus_of([parent, other], [*parent_revs, *other_revs]))
        names, X = pair_vectors(digests, [("p", "c")], k_edits)
        return dict(zip(names, X[0].tolist()))

    def test_self_pair_identity(self):
        vec = self.pair()
        assert vec["page_jaccard"] == 1.0
        assert vec["comment_unigram_jaccard"] == 1.0
        assert vec["added_unigram_jaccard"] == 1.0
        assert vec["embedding_cosine"] == pytest.approx(1.0)
        assert vec["profile_abs_diff"] == 0.0
        assert vec["sentiment_abs_diff"] == 0.0

    def test_disjoint_pair(self):
        other_revs = [revision("c", "zz", 3000, added="qqq www", comment="zzz qqq")]
        vec = self.pair(other_revs=other_revs)
        assert vec["page_jaccard"] == 0.0
        assert vec["added_unigram_jaccard"] == 0.0

    def test_inter_account_duration_sign(self):
        vec = self.pair()
        assert vec["inter_account_seconds"] == 1000.0
        earlier = account("c", 500, ban=4000)
        vec = self.pair(other=earlier, other_revs=[])
        assert vec["inter_account_seconds"] == -500.0

    def test_parent_must_be_banned(self):
        digests = Digests(corpus_of([account("p", 0), account("c", 10)]))
        with pytest.raises(RecordParseError) as err:
            pair_vectors(digests, [("p", "c")])
        assert (err.value.path, err.value.line_number) == (None, None)
        assert str(err.value) == "parent 'p' was never banned"

    def test_k_limit_uses_first_edits_only(self):
        parent_revs = [revision("p", "page-a", 10, added="alpha beta")]
        other_revs = [
            revision("c", "page-a", 2000, added="alpha beta"),
            revision("c", "page-zz", 2100, added="totally different"),
        ]
        vec = self.pair(k_edits=1, parent_revs=parent_revs, other_revs=other_revs)
        assert vec["page_jaccard"] == 1.0
        assert vec["added_unigram_jaccard"] == 1.0

    def test_large_k_limit_equals_unlimited(self):
        a = self.pair(k_edits=None)
        b = self.pair(k_edits=10_000)
        assert list(a) == list(b)
        assert list(a.values()) == list(b.values())

    def test_task2_row_cuts_child_ban_columns(self):
        full = self.pair()
        names, _ = task_vectors(TASKS["2"], [], Digests(corpus_of([account("p", 0)])))
        assert full["child_duration_seconds"] == 2000.0
        assert set(full) - set(names) == CHILD_BAN_COLUMNS

    def test_unbanned_other_gets_sentinels(self):
        vec = self.pair(other=account("c", 2000), other_revs=[])
        assert vec["child_is_banned"] == 0.0
        assert vec["child_duration_seconds"] == -1.0
        assert vec["child_banned_dow"] == -1.0

    def test_similarity_ranges(self):
        rng = random.Random(3)
        result = generate_synthetic(
            SynthConfig(n_groups=6, n_benign=0, n_nonevading_malicious=6, seed=9)
        )
        corpus = result.corpus
        accounts = [a.account_id for a in corpus.accounts if a.ban_time is not None]
        keys = [tuple(rng.sample(accounts, 2)) for _ in range(30)]
        names, X = pair_vectors(Digests(corpus), keys)
        for row in X.tolist():
            vec = dict(zip(names, row))
            for key in ("page_jaccard", "comment_unigram_jaccard", "added_unigram_jaccard"):
                assert 0.0 <= vec[key] <= 1.0
            assert -1.0 <= vec["embedding_cosine"] <= 1.0

    def test_embedding_cosine_equals_textstats_cosine(self):
        corpus = generate_synthetic(
            SynthConfig(n_groups=4, n_benign=4, n_nonevading_malicious=4, seed=9)
        ).corpus
        silent = account("silent", 1_600_000_000)  # no revisions: a zero embedding
        corpus = corpus_of([*corpus.accounts, silent], all_revisions(corpus))
        digests = Digests(corpus)
        banned = [a.account_id for a in corpus.accounts if a.ban_time is not None]
        keys = [(p, o) for p in banned[:4] for o in [*banned[4:10], "silent"]]
        names, X = pair_vectors(digests, keys)
        expected = [cosine(digests.of(p).embedding, digests.of(o).embedding) for p, o in keys]
        assert X[:, names.index("embedding_cosine")].tolist() == expected
        assert expected[-1] == 0.0

    def test_planted_page_overlap_matches_naive_jaccard(self):
        result = generate_synthetic(
            SynthConfig(n_groups=5, n_benign=0, n_nonevading_malicious=0,
                        page_overlap=0.5, seed=21)
        )
        corpus = result.corpus
        keys = [(pair.parent_id, pair.child_id) for pair in result.true_pairs]
        names, X = pair_vectors(Digests(corpus), keys)
        page_jaccard = dict(zip(names, X.T.tolist()))["page_jaccard"]
        for (parent_id, child_id), value in zip(keys, page_jaccard):
            parent_pages = {r.page_id for r in corpus.revisions_of(parent_id)}
            child_pages = {r.page_id for r in corpus.revisions_of(child_id)}
            union = parent_pages | child_pages
            expected = len(parent_pages & child_pages) / len(union) if union else 0.0
            assert value == pytest.approx(expected)

    def test_empty_input_keeps_its_columns(self):
        digests = Digests(corpus_of([account("p", 0, ban=1000)]))
        names, X = pair_vectors(digests, [])
        assert X.shape == (0, len(names)) and "child_is_banned" in names
        names, X = task_vectors(TASKS["2"], [], digests)
        assert X.shape == (0, len(names)) and "child_is_banned" not in names
        names, X = account_vectors(digests, [])
        assert X.shape == (0, len(names)) and names[-1] == "sentiment_mean"


def truncated_corpus(corpus, account_id, k):
    """``corpus`` with only ``account_id``'s first ``k`` revisions."""
    kept = corpus.revisions_of(account_id)[:k]
    revisions = [r for r in all_revisions(corpus) if r.account_id != account_id]
    return corpus_of(corpus.accounts, [*revisions, *kept], corpus.sockpuppet_records)


class TestPairVectors:
    """The batch path shares each side's digest; rows must still equal the
    rows of a fresh store over a corpus cut to the revisions each row uses."""

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

    def test_rows_equal_pair_features(self):
        corpus = self.corpus()
        # x is an untruncated parent, then a truncated other side; y and w
        # have at most k revisions, so their other side is untruncated.
        keys = [("x", "y"), ("z", "x"), ("x", "w"), ("y", "x"), ("x", "y"), ("z", "y")]
        names, rows = pair_vectors(Digests(corpus), keys, 3)
        assert rows.shape == (len(keys), len(names))
        for (parent_id, other_id), row in zip(keys, rows):
            oracle = Digests(truncated_corpus(corpus, other_id, 3))
            expected_names, expected = pair_vectors(oracle, [(parent_id, other_id)])
            assert names == expected_names
            assert np.array_equal(row, expected[0])
        # the truncated x must differ from the full x
        _, full = pair_vectors(Digests(corpus), [("z", "x")])
        assert not np.array_equal(full[0], rows[1])


class CountingProvider:
    """The trigram provider, counting its ``mean_vector`` calls."""

    def __init__(self):
        self.inner = HashedTrigramProvider()
        self.dimension = self.inner.dimension
        self.calls = 0

    def embed_text(self, text):
        return self.inner.embed_text(text)

    def mean_vector(self, texts):
        self.calls += 1
        return self.inner.mean_vector(texts)


class TestDigests:
    """The store builds each digest once; what it returns must equal the
    rows of a fresh store per account."""

    @pytest.fixture(scope="class")
    def synthetic(self):
        corpus = generate_synthetic(
            SynthConfig(n_groups=12, n_benign=60, n_nonevading_malicious=40, seed=21)
        ).corpus
        pairs = first_pair_per_group(extract_evasion_pairs(merge_groups(corpus), corpus), corpus)
        return corpus, pairs

    def test_task1_rows_equal_account_features(self, synthetic):
        corpus, pairs = synthetic
        task = TASKS["1"]
        samples = list(task.match(corpus, pairs, task.window_seconds))
        assert len({s.other_id for s in samples}) < len(samples)  # negatives recur
        names, rows = task_vectors(task, samples, Digests(corpus), 3)
        assert rows.shape == (len(samples), len(names))
        for sample, row in zip(samples, rows):
            expected_names, expected = account_vectors(Digests(corpus), [sample.other_id])
            assert names == expected_names
            assert np.array_equal(row, expected[0])

    def test_task_matrices_are_c_ordered_and_task2_cuts_the_pair_row(self, synthetic):
        # numpy sums a Fortran-ordered column in another order than a C-ordered
        # one, so the layout of a matrix reaches the fitted model's bytes
        corpus, pairs = synthetic
        digests = Digests(corpus)
        names_of, samples = {}, {}
        for number, task in TASKS.items():
            samples[number] = list(task.match(corpus, pairs))
            names_of[number], X = task_vectors(task, samples[number], digests)
            assert X.flags["C_CONTIGUOUS"]
            assert X.shape == (len(samples[number]), len(names_of[number]))
        names, X = task_vectors(TASKS["2"], samples["2"], digests)
        full_names, full = pair_vectors(
            Digests(corpus), [(s.parent_id, s.other_id) for s in samples["2"]], DEFAULT_K_EDITS
        )
        assert full_names == names_of["3"]
        assert names == tuple(n for n in full_names if n not in CHILD_BAN_COLUMNS)
        assert len(names) == len(full_names) - 5
        for j, name in enumerate(names):
            assert X[:, j].tolist() == full[:, full_names.index(name)].tolist()

    def test_every_account_row_equals_account_features(self, synthetic):
        corpus, _ = synthetic
        ids = [a.account_id for a in corpus.accounts]
        names, rows = account_vectors(Digests(corpus), ids)
        for account_id, row in zip(ids, rows):
            expected_names, expected = account_vectors(Digests(corpus), [account_id])
            assert names == expected_names
            assert np.array_equal(row, expected[0])

    def test_each_digest_embeds_once_as_it_is_built(self):
        corpus = generate_synthetic(SynthConfig(n_groups=12, seed=7)).corpus
        pairs = first_pair_per_group(extract_evasion_pairs(merge_groups(corpus), corpus), corpus)
        provider = CountingProvider()
        digests = Digests(corpus, provider=provider)
        has_text = {}
        for a in corpus.accounts:
            for k_edits in (None, DEFAULT_K_EDITS):
                n = digests.of(a.account_id, k_edits).revision_count
                revisions = corpus.revisions_of(a.account_id)[:n]
                has_text[a.account_id, n] = any(r.added_text for r in revisions)
        assert 0 < provider.calls == sum(has_text.values())
        for task in TASKS.values():
            task_vectors(task, list(task.match(corpus, pairs)), digests)
        assert provider.calls == sum(has_text.values())

    def test_key_is_revisions_used(self):
        corpus = TestPairVectors().corpus()  # x has 6 revisions, y has 2
        digests = Digests(corpus)
        assert digests.of("y", 3) is digests.of("y") is digests.of("y", 2)
        assert digests.of("x", 3) is not digests.of("x")
        assert digests.of("x", 3) is digests.of("x", 3)
        assert (digests.of("x", 3).revision_count, digests.of("x").revision_count) == (3, 6)

    def test_digests_compare_by_identity(self):
        corpus = TestPairVectors().corpus()
        digests = Digests(corpus)
        assert digests.of("x") == digests.of("x")
        assert digests.of("x") != Digests(corpus).of("x")  # equal embeddings, no error

    def test_config_variant_with_same_text_resources_accepted(self):
        corpus = TestPairVectors().corpus()
        names, (row,) = pair_vectors(Digests(corpus), [("x", "y")], k_edits=2)
        expected_names, expected = pair_vectors(
            Digests(truncated_corpus(corpus, "y", 2)), [("x", "y")]
        )
        assert names == expected_names
        assert np.array_equal(row, expected[0])


def twice_the_row(added):
    """``(names, X)`` holding one account's row twice."""
    corpus = corpus_of(
        [account("a", 1_600_000_000, ban=1_600_100_000)],
        [revision("a", "p", 1_600_000_500, added=added)],
    )
    return account_vectors(Digests(corpus), ["a", "a"])


class TestMatrixSerialization:
    def test_round_trip(self, tmp_path):
        vec_names, vec = twice_the_row("damn it all")
        path = tmp_path / "features.tsv"
        write_feature_matrix(path, ["s1", "s2"], [1, 0], vec_names, vec)
        ids, labels, names, X = read_feature_matrix(path)
        assert ids == ["s1", "s2"]
        assert labels.tolist() == [1, 0]
        assert names == vec_names
        assert np.array_equal(X[0], vec[0])

        write_feature_matrix(tmp_path / "again.tsv", ["s1", "s2"], [1, 0], vec_names, vec)
        assert (tmp_path / "features.tsv").read_bytes() == (tmp_path / "again.tsv").read_bytes()

    def test_read_then_write_is_identity(self, tmp_path):
        path = tmp_path / "features.tsv"
        write_feature_matrix(path, ["s1", "s2"], [0, 1], *twice_the_row("hi"))
        ids, labels, names, X = read_feature_matrix(path)
        write_feature_matrix(tmp_path / "again.tsv", ids, labels.tolist(), names, X)
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()

    def test_shapes_must_agree(self, tmp_path):
        names, X = twice_the_row("hi")
        for ids, labels, cut_names, cut_X in [
            (["s1"], [0, 1], names, X),
            (["s1", "s2"], [0], names, X),
            (["s1", "s2"], [0, 1], names[:-1], X),
            (["s1", "s2"], [0, 1], names, X[:1]),
        ]:
            with pytest.raises(ValueError):
                write_feature_matrix(tmp_path / "f.tsv", ids, labels, cut_names, cut_X)

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
            ("sample_id\tlabel\tf1\tf1\ns1\t1\t0.5\t0.5\n", 1, "duplicate feature names ['f1']"),
            ("sample_id\tlabel\tf1\ns1\t1\t0.5\ns2\t0\t1_000\n", 3, "'1_000'"),
            ("sample_id\tlabel\tf1\ns1\t1\t0.5\ns2\t0\t\u0661\n", 3, "'\u0661'"),
            ("sample_id\tlabel\tf1\ns1\t1\t0.5\ns2\t0\t 2.5\n", 3, "' 2.5'"),
        ],
        ids=[
            "bad_header", "empty_file", "short_row", "long_row", "blank_line",
            "label_2", "label_float", "non_float_value", "duplicate_names",
            "underscore_value", "non_ascii_digit", "padded_value",
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
