from __future__ import annotations

import math
import random

import pytest
from scipy import integrate

from banevasion.analysis import (
    characterize,
    classify_success,
    inter_account_durations,
    pearson,
    regularized_incomplete_beta,
    student_t_two_sided_p,
    welch_test,
)
from banevasion.corpus import DAY_SECONDS, SynthConfig, generate_synthetic
from banevasion.errors import (
    InsufficientSamplesError,
    LengthMismatchError,
    MissingBanTimeError,
    ZeroVarianceError,
)
from banevasion.features import Digests
from banevasion.matching import NEGATIVE, TASK1, LabeledSample, match_task3, prepare_malicious_pool
from banevasion.pairing import EvasionPair, extract_evasion_pairs, first_pair_per_group, merge_groups

from conftest import account, corpus_of, record, revision


def t_density(x: float, df: float) -> float:
    coefficient = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    return coefficient * (1 + x * x / df) ** (-(df + 1) / 2)


def p_value_quadrature(t: float, df: float) -> float:
    """Two-sided p by numerical integration of the t density tail."""
    tail, _ = integrate.quad(t_density, abs(t), math.inf, args=(df,))
    return 2.0 * tail


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry(self):
        for a, b, x in [(2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (4.0, 1.5, 0.05)]:
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_uniform_case(self):
        # I_x(1, 1) is the identity
        for x in (0.1, 0.5, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)

    def test_against_quadrature(self):
        for a, b in [(0.5, 4.0), (2.5, 0.5), (3.0, 3.0)]:
            for x in (0.05, 0.3, 0.6, 0.95):
                def integrand(u):
                    return u ** (a - 1) * (1 - u) ** (b - 1)
                numerator, _ = integrate.quad(integrand, 0, x)
                denominator, _ = integrate.quad(integrand, 0, 1)
                assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                    numerator / denominator, abs=1e-9
                )


class TestWelch:
    def test_identical_samples(self):
        result = welch_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t_statistic == 0.0
        assert result.p_value == 1.0
        assert result.cohens_d == 0.0

    def test_hand_derived_example(self):
        result = welch_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert result.t_statistic == pytest.approx(-1.0, abs=1e-9)
        assert result.degrees_of_freedom == pytest.approx(8.0, abs=1e-9)
        assert result.p_value == pytest.approx(p_value_quadrature(-1.0, 8.0), abs=1e-6)
        assert result.cohens_d == pytest.approx(-1.0 / math.sqrt(2.5), abs=1e-9)

    def test_scale_invariance(self):
        a = [1.2, 3.4, 2.2, 5.0]
        b = [0.3, 4.4, 1.9]
        base = welch_test(a, b)
        scaled = welch_test([10 * x for x in a], [10 * x for x in b])
        assert scaled.t_statistic == pytest.approx(base.t_statistic, abs=1e-12)
        assert scaled.degrees_of_freedom == pytest.approx(base.degrees_of_freedom, abs=1e-9)
        assert scaled.p_value == pytest.approx(base.p_value, abs=1e-12)
        assert scaled.cohens_d == pytest.approx(base.cohens_d, abs=1e-12)

    def test_antisymmetry(self):
        rng = random.Random(4)
        a = [rng.gauss(0, 1) for _ in range(9)]
        b = [rng.gauss(0.5, 2) for _ in range(14)]
        fwd = welch_test(a, b)
        rev = welch_test(b, a)
        assert rev.t_statistic == pytest.approx(-fwd.t_statistic)
        assert rev.cohens_d == pytest.approx(-fwd.cohens_d)
        assert rev.p_value == pytest.approx(fwd.p_value)
        assert rev.degrees_of_freedom == pytest.approx(fwd.degrees_of_freedom)

    def test_p_matches_quadrature_on_random_inputs(self):
        rng = random.Random(21)
        for _ in range(25):
            a = [rng.gauss(0, 1) for _ in range(rng.randint(3, 20))]
            b = [rng.gauss(rng.uniform(-1, 1), 1.5) for _ in range(rng.randint(3, 20))]
            result = welch_test(a, b)
            expected = p_value_quadrature(result.t_statistic, result.degrees_of_freedom)
            assert result.p_value == pytest.approx(expected, abs=1e-6)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            welch_test([1.0], [1.0, 2.0])

    def test_zero_variance_both(self):
        with pytest.raises(ZeroVarianceError):
            welch_test([2.0, 2.0], [3.0, 3.0])

    def test_one_constant_sample_allowed(self):
        result = welch_test([2.0, 2.0, 2.0], [1.0, 3.0, 5.0])
        assert math.isfinite(result.t_statistic)
        assert 0.0 <= result.p_value <= 1.0

    def test_p_monotone_in_t_for_fixed_df(self):
        for df in (1.5, 4.0, 8.0, 30.0):
            grid = [student_t_two_sided_p(t, df) for t in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]]
            assert all(later < earlier for earlier, later in zip(grid, grid[1:]))


class TestPearson:
    def test_perfect_linear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)

    def test_reflection(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_matches_direct_formula(self):
        rng = random.Random(31)
        x = [rng.uniform(-3, 3) for _ in range(10)]
        y = [rng.uniform(-3, 3) for _ in range(10)]
        mx, my = sum(x) / 10, sum(y) / 10
        cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
        sx = math.sqrt(sum((a - mx) ** 2 for a in x))
        sy = math.sqrt(sum((b - my) ** 2 for b in y))
        assert pearson(x, y) == pytest.approx(cov / (sx * sy), abs=1e-12)

    def test_affine_invariance(self):
        rng = random.Random(32)
        x = [rng.uniform(-3, 3) for _ in range(8)]
        y = [rng.uniform(-3, 3) for _ in range(8)]
        base = pearson(x, y)
        assert pearson([5 * v + 2 for v in x], y) == pytest.approx(base)
        assert pearson([-v for v in x], y) == pytest.approx(-base)

    def test_errors(self):
        with pytest.raises(LengthMismatchError):
            pearson([1.0, 2.0], [1.0])
        with pytest.raises(ZeroVarianceError):
            pearson([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(InsufficientSamplesError):
            pearson([1.0], [1.0])


class TestClassifySuccess:
    def make(self, parent_duration, child_duration):
        parent = account("p", 0, ban=parent_duration)
        child = account("c", parent_duration + 10, ban=parent_duration + 10 + child_duration)
        corpus = corpus_of([parent, child], [], [record("p", "c")])
        return corpus, EvasionPair("p", "c", 0)

    def test_shorter_child_unsuccessful(self):
        corpus, pair = self.make(18 * DAY_SECONDS, 10 * DAY_SECONDS)
        assert classify_success([pair], corpus)[("p", "c")] == "unsuccessful"

    def test_longer_child_successful(self):
        corpus, pair = self.make(18 * DAY_SECONDS, 20 * DAY_SECONDS)
        assert classify_success([pair], corpus)[("p", "c")] == "successful"

    def test_tie_is_unsuccessful(self):
        corpus, pair = self.make(10 * DAY_SECONDS, 10 * DAY_SECONDS)
        assert classify_success([pair], corpus)[("p", "c")] == "unsuccessful"

    def test_partition_is_complete(self):
        result = generate_synthetic(
            SynthConfig(n_groups=25, n_benign=0, n_nonevading_malicious=0, seed=77)
        )
        corpus = result.corpus
        groups = merge_groups(corpus.sockpuppet_records, corpus)
        pairs = first_pair_per_group(extract_evasion_pairs(groups, corpus), corpus)
        verdicts = classify_success(pairs, corpus)
        assert len(verdicts) == len(pairs)
        assert set(verdicts.values()) <= {"successful", "unsuccessful"}

    def test_missing_ban_rejected(self):
        parent = account("p", 0, ban=100)
        child = account("c", 200)
        corpus = corpus_of([parent, child], [], [record("p", "c")])
        with pytest.raises(MissingBanTimeError):
            classify_success([EvasionPair("p", "c", 0)], corpus)


class TestInterAccountDurations:
    def make_pairs(self, gaps_days):
        accounts = []
        pairs = []
        for i, gap in enumerate(gaps_days):
            parent = account(f"p{i}", 0, ban=1000)
            child = account(f"c{i}", 1000 + int(gap * DAY_SECONDS), ban=10_000_000_000)
            accounts += [parent, child]
            pairs.append(EvasionPair(f"p{i}", f"c{i}", i))
        return corpus_of(accounts), pairs

    def test_outlier_dropped_and_normalized(self):
        corpus, pairs = self.make_pairs([1, 2, 2000])
        assert inter_account_durations(pairs, corpus, outlier_days=1000) == [0.0, 1.0]

    def test_all_equal_normalize_to_zero(self):
        corpus, pairs = self.make_pairs([3, 3, 3])
        assert inter_account_durations(pairs, corpus) == [0.0, 0.0, 0.0]

    def test_empty_after_filter(self):
        corpus, pairs = self.make_pairs([2000, 3000])
        assert inter_account_durations(pairs, corpus, outlier_days=1000) == []

    def test_characterize_applies_the_same_rule(self):
        # a gap of exactly outlier_days is kept
        corpus, pairs = self.make_pairs([1, 1000, 2000])
        report = characterize(Digests(corpus), pairs, outlier_days=1000)
        rows = report["tables"]["inter_account_durations"]["rows"]
        assert rows == [[float(DAY_SECONDS), 0.0], [1000.0 * DAY_SECONDS, 1.0]]
        assert [n for _, n in rows] == inter_account_durations(pairs, corpus, outlier_days=1000)
        assert report["inter_account"]["kept_after_outlier_filter"] == 2


class TestCharacterize:
    def test_self_pair_identity(self):
        parent = account("p", 0, ban=1000, username="sameuser")
        child = account("c", 2000, ban=3000, username="sameuser")
        revisions = [
            revision("p", "pg-1", 100, added="the damn report was here", comment="fix it"),
            revision("c", "pg-1", 2100, added="the damn report was here", comment="fix it"),
        ]
        corpus = corpus_of([parent, child], revisions, [record("p", "c")])
        report = characterize(Digests(corpus), [EvasionPair("p", "c", 0)])
        assert report["username_distance"]["pairs"]["mean"] == 0.0
        overlaps = report["overlaps"]
        assert overlaps["page_jaccard"]["pairs"]["mean"] == 1.0
        assert overlaps["added_unigram_jaccard"]["pairs"]["mean"] == 1.0
        assert overlaps["comment_unigram_jaccard"]["pairs"]["mean"] == 1.0
        assert overlaps["embedding_cosine"]["pairs"]["mean"] == pytest.approx(1.0)
        assert overlaps["profile_abs_diff"]["pairs"]["mean"] == 0.0

    def test_repeated_parent_counted_once_in_activity(self):
        accounts = [
            account("p", 0, ban=1000), account("c1", 2000, ban=3000),
            account("c2", 2500, ban=4500),
        ]
        revisions = [
            revision("p", "pg-1", 100, added="old words"),
            revision("p", "pg-2", 300, added="more words"),
            revision("c1", "pg-1", 2100, added="new words"),
            revision("c2", "pg-3", 2600, added="other words"),
        ]
        corpus = corpus_of(accounts, revisions, [record("p", "c1", "c2")])
        pairs = [EvasionPair("p", "c1", 0), EvasionPair("p", "c2", 0)]
        report = characterize(Digests(corpus), pairs)
        assert report["counts"]["pairs"] == 2
        assert report["tables"]["account_durations"]["rows"] == [["parent", 1000.0]]
        assert report["activity"]["parent_medians"] == {
            "duration_seconds": 1000.0,
            "revisions": 2.0,
            "unique_pages": 2.0,
            "mean_gap_seconds": 200.0,
        }
        assert report["overlaps"]["page_jaccard"]["pairs"]["n"] == 2

    def test_activity_medians_read_digests(self):
        accounts = [
            account("p", 0, ban=1000), account("c", 2000, ban=3000),
            account("m1", 0, ban=900), account("m2", 0, ban=950),
        ]
        revisions = [
            revision("p", "pg-1", 100), revision("c", "pg-1", 2100),
            revision("m1", "pg-2", 10),
            revision("m2", "pg-2", 10), revision("m2", "pg-3", 40), revision("m2", "pg-3", 100),
        ]
        corpus = corpus_of(accounts, revisions, [record("p", "c")])
        controls = [LabeledSample("p", m, NEGATIVE, TASK1) for m in ("m1", "m2")]
        report = characterize(Digests(corpus), [EvasionPair("p", "c", 0)], controls)
        assert report["activity"]["control_medians"] == {
            "duration_seconds": 925.0,
            "revisions": 2.0,
            "unique_pages": 1.5,
            "mean_gap_seconds": 45.0,
        }
        assert report["activity"]["parent_medians"]["mean_gap_seconds"] is None

    def test_vocab_reuse_monotonicity(self):
        def unigram_mean(reuse):
            result = generate_synthetic(
                SynthConfig(
                    n_groups=20, n_benign=0, n_nonevading_malicious=60,
                    vocab_reuse=reuse, seed=55,
                )
            )
            corpus = result.corpus
            groups = merge_groups(corpus.sockpuppet_records, corpus)
            pairs = first_pair_per_group(extract_evasion_pairs(groups, corpus), corpus)
            report = characterize(Digests(corpus), pairs)
            return report["overlaps"]["added_unigram_jaccard"]["pairs"]["mean"]

        assert unigram_mean(1.0) > unigram_mean(0.0)

    def test_full_report_with_controls(self):
        result = generate_synthetic(
            SynthConfig(n_groups=15, n_benign=50, n_nonevading_malicious=80, seed=3)
        )
        corpus = result.corpus
        groups = merge_groups(corpus.sockpuppet_records, corpus)
        pairs = first_pair_per_group(extract_evasion_pairs(groups, corpus), corpus)
        pool = prepare_malicious_pool(corpus, groups)
        from banevasion.matching import match_task1

        account_samples = match_task1(
            [corpus.account(p.parent_id) for p in pairs], pool
        )
        pair_samples = match_task3(pairs, pool, corpus)
        report = characterize(Digests(corpus), pairs, account_samples, pair_samples)
        assert report["counts"]["pairs"] == len(pairs)
        assert report["counts"]["control_pairs"] > 0
        assert report["activity"]["parent_medians"]["duration_seconds"] is not None
        assert report["success"]["successful"] + report["success"]["unsuccessful"] == len(pairs)
        for key in ("page_jaccard", "added_unigram_jaccard", "embedding_cosine"):
            block = report["overlaps"][key]
            assert block["pairs"]["ci_low"] <= block["pairs"]["mean"] <= block["pairs"]["ci_high"]
        tables = report["tables"]
        assert set(tables) == {
            "account_durations",
            "inter_account_durations",
            "username_distance_vs_gap",
            "page_overlap_vs_gap",
        }
        # parents show the distinct long-lived profile against controls
        assert (
            report["activity"]["parent_medians"]["duration_seconds"]
            > report["activity"]["control_medians"]["duration_seconds"]
        )
