"""Characterization statistics: two-sample tests, correlations, success
categorization, and the full descriptive report.

Student-t p-values come from the regularized incomplete beta function,
evaluated with a Lentz continued fraction in double precision. Two-sided
p for a statistic t with df degrees of freedom is I_x(df/2, 1/2) at
x = df / (df + t^2).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .corpus import Corpus, DAY_SECONDS
from .errors import (
    InsufficientSamplesError,
    LengthMismatchError,
    MissingBanTimeError,
    ZeroVarianceError,
)
from .features import Digests, pair_vectors
from .matching import NEGATIVE
from .textstats import normalized_levenshtein

_BETACF_MAX_ITER = 300
_BETACF_TOL = 1e-12
_FPMIN = 1e-300

DEFAULT_OUTLIER_DAYS = 1000.0


def _betacf(a: float, b: float, x: float) -> float:
    """Continued-fraction core of the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_TOL:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student-t with df degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


@dataclass(frozen=True)
class TwoSampleResult:
    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    cohens_d: float


def welch_test(a: Sequence[float], b: Sequence[float]) -> TwoSampleResult:
    """Unequal-variances two-sample t-test with pooled-SD effect size."""
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise InsufficientSamplesError("welch_test needs at least 2 values per sample")
    mean_a = sum(a) / na
    mean_b = sum(b) / nb
    var_a = sum((x - mean_a) ** 2 for x in a) / (na - 1)
    var_b = sum((x - mean_b) ** 2 for x in b) / (nb - 1)
    if var_a == 0.0 and var_b == 0.0:
        raise ZeroVarianceError("both samples are constant")
    sa, sb = var_a / na, var_b / nb
    t = (mean_a - mean_b) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa * sa / (na - 1) + sb * sb / (nb - 1))
    p = student_t_two_sided_p(t, df)
    pooled_sd = math.sqrt(((na - 1) * var_a + (nb - 1) * var_b) / (na + nb - 2))
    d = (mean_a - mean_b) / pooled_sd
    return TwoSampleResult(t, df, p, d)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    if len(x) != len(y):
        raise LengthMismatchError(f"{len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise InsufficientSamplesError("pearson needs at least 2 points")
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    dx = [v - mean_x for v in x]
    dy = [v - mean_y for v in y]
    sxx = sum(v * v for v in dx)
    syy = sum(v * v for v in dy)
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVarianceError("pearson needs nonzero variance in both inputs")
    sxy = sum(a * b for a, b in zip(dx, dy))
    return sxy / math.sqrt(sxx * syy)


def classify_success(pairs: Iterable, corpus: Corpus) -> dict[tuple[str, str], str]:
    """Label each pair successful iff the child outlived the parent.

    Both accounts must be banned; equal durations count as unsuccessful.
    """
    verdicts = {}
    for pair in pairs:
        parent = corpus.account(pair.parent_id)
        child = corpus.account(pair.child_id)
        if parent.ban_time is None:
            raise MissingBanTimeError(parent.account_id)
        if child.ban_time is None:
            raise MissingBanTimeError(child.account_id)
        verdicts[(pair.parent_id, pair.child_id)] = (
            "successful" if child.duration_seconds > parent.duration_seconds else "unsuccessful"
        )
    return verdicts


def inter_account_durations(
    pairs: Sequence,
    corpus: Corpus,
    outlier_days: float = DEFAULT_OUTLIER_DAYS,
) -> list[float]:
    """Child-creation minus parent-ban gaps, outliers dropped, min-max
    normalized to [0, 1] (all zero when the kept values are equal)."""
    gaps = [
        float(corpus.account(p.child_id).creation_time - corpus.account(p.parent_id).ban_time)
        for p in pairs
    ]
    return _normalized_gaps(gaps, outlier_days)[1]


def _normalized_gaps(gaps: Sequence[float], outlier_days: float):
    """The indices of the gaps of at most ``outlier_days``, and those gaps
    min-max normalized to [0, 1] (all zero when they are equal)."""
    threshold = outlier_days * DAY_SECONDS
    kept_idx = [i for i, gap in enumerate(gaps) if gap <= threshold]
    kept = [gaps[i] for i in kept_idx]
    if not kept:
        return kept_idx, []
    lo, hi = min(kept), max(kept)
    if hi == lo:
        return kept_idx, [0.0 for _ in kept]
    return kept_idx, [(v - lo) / (hi - lo) for v in kept]


# ---------------------------------------------------------------------------
# full characterization report


def _safe_welch(a: Sequence[float], b: Sequence[float]):
    try:
        r = welch_test(a, b)
    except (InsufficientSamplesError, ZeroVarianceError):
        return None
    return {
        "t": r.t_statistic,
        "df": r.degrees_of_freedom,
        "p": r.p_value,
        "cohens_d": r.cohens_d,
    }


def _safe_pearson(x: Sequence[float], y: Sequence[float]):
    try:
        return pearson(x, y)
    except (InsufficientSamplesError, ZeroVarianceError, LengthMismatchError):
        return None


def _mean_ci(values: Sequence[float]):
    if not values:
        return {"mean": None, "ci_low": None, "ci_high": None, "n": 0}
    mean = sum(values) / len(values)
    if len(values) < 2:
        return {"mean": mean, "ci_low": mean, "ci_high": mean, "n": len(values)}
    sd = statistics.stdev(values)
    half = 1.96 * sd / math.sqrt(len(values))
    return {"mean": mean, "ci_low": mean - half, "ci_high": mean + half, "n": len(values)}


def _activity_stats(digests: Digests, account_ids: Iterable[str]) -> dict[str, list[float]]:
    """Durations of the banned accounts, and mean gaps of those with >= 2 edits."""
    rows = [digests.of(account_id) for account_id in account_ids]
    return {
        "duration_seconds": [
            float(d.account.duration_seconds)
            for d in rows
            if d.account.ban_time is not None
        ],
        "revisions": [float(d.revision_count) for d in rows],
        "unique_pages": [float(len(d.pages)) for d in rows],
        "mean_gap_seconds": [d.mean_gap_seconds for d in rows if d.revision_count >= 2],
    }


def _median_block(values_by_axis: dict[str, list[float]]) -> dict[str, float | None]:
    return {
        axis: (statistics.median(values) if values else None)
        for axis, values in values_by_axis.items()
    }


_OVERLAP_KEYS = (
    "page_jaccard",
    "comment_unigram_jaccard",
    "added_unigram_jaccard",
    "embedding_cosine",
    "profile_abs_diff",
    "sentiment_abs_diff",
)


def characterize(
    digests: Digests,
    pairs: Sequence,
    account_samples: Sequence = (),
    pair_samples: Sequence = (),
    outlier_days: float = DEFAULT_OUTLIER_DAYS,
) -> dict:
    """Descriptive report contrasting evasion pairs with matched controls.

    ``account_samples`` (task-1 samples) supply the non-evading malicious
    control accounts, the ``other_id`` of each negative, for the activity
    contrasts; ``pair_samples`` supply matched control pairs (negatives) for
    the overlap contrasts. Degenerate contrasts yield None statistics rather
    than raising. Pair vectors omit the child-ban fields. The corpus and
    every account's digest come from ``digests``.
    """
    corpus = digests.corpus
    config = replace(digests.config, include_child_ban_features=False)

    # a parent named by several pairs is one account
    parent_ids = dict.fromkeys(p.parent_id for p in pairs)
    control_ids = sorted(
        {s.other_id for s in account_samples if s.label == NEGATIVE}
    )
    parent_activity = _activity_stats(digests, parent_ids)
    control_activity = _activity_stats(digests, control_ids)

    report: dict = {
        "counts": {
            "pairs": len(pairs),
            "control_accounts": len(control_ids),
            "control_pairs": sum(1 for s in pair_samples if s.label == NEGATIVE),
        },
        "activity": {
            "parent_medians": _median_block(parent_activity),
            "control_medians": _median_block(control_activity),
            "tests": {
                axis: _safe_welch(parent_activity[axis], control_activity[axis])
                for axis in parent_activity
            },
        },
    }

    # Username similarity for evasion pairs vs. matched pairs.
    pair_distance = [
        normalized_levenshtein(
            corpus.account(p.parent_id).username, corpus.account(p.child_id).username
        )
        for p in pairs
    ]
    control_distance = [
        normalized_levenshtein(
            corpus.account(s.parent_id).username, corpus.account(s.other_id).username
        )
        for s in pair_samples
        if s.label == NEGATIVE
    ]
    report["username_distance"] = {
        "pairs": _mean_ci(pair_distance),
        "controls": _mean_ci(control_distance),
        "test": _safe_welch(pair_distance, control_distance),
    }

    # Overlap and similarity contrasts.
    pair_keys = [(p.parent_id, p.child_id) for p in pairs]
    control_keys = [(s.parent_id, s.other_id) for s in pair_samples if s.label == NEGATIVE]
    metrics = [v.as_dict() for v in pair_vectors(digests, pair_keys + control_keys, config)]
    pair_metrics, control_metrics = metrics[: len(pairs)], metrics[len(pairs) :]
    overlaps = {}
    for key in _OVERLAP_KEYS:
        pair_values = [m[key] for m in pair_metrics]
        control_values = [m[key] for m in control_metrics]
        overlaps[key] = {
            "pairs": _mean_ci(pair_values),
            "controls": _mean_ci(control_values),
            "test": _safe_welch(pair_values, control_values),
        }
    report["overlaps"] = overlaps

    # Per-category psycholinguistic change from parent to child.
    parent_profiles = [digests.of(p.parent_id).profile for p in pairs]
    child_profiles = [digests.of(p.child_id).profile for p in pairs]
    categories = {}
    for category in config.lexicon.categories:
        parent_values = [prof[category] for prof in parent_profiles]
        child_values = [prof[category] for prof in child_profiles]
        categories[category] = {
            "parent_mean": sum(parent_values) / len(parent_values) if parent_values else None,
            "child_mean": sum(child_values) / len(child_values) if child_values else None,
            "test": _safe_welch(child_values, parent_values),
        }
    report["psycholinguistic_change"] = categories

    # Success vs. unsuccessful contrasts.
    try:
        verdicts = classify_success(pairs, corpus)
    except MissingBanTimeError:
        verdicts = None
    if verdicts is not None and pairs:
        successful = [verdicts[(p.parent_id, p.child_id)] == "successful" for p in pairs]
        successful_idx = [i for i, ok in enumerate(successful) if ok]
        unsuccessful_idx = [i for i, ok in enumerate(successful) if not ok]
        contrasts = {}

        def contrast(name: str, values: list[float]):
            succ = [values[i] for i in successful_idx]
            unsucc = [values[i] for i in unsuccessful_idx]
            contrasts[name] = {
                "successful_mean": sum(succ) / len(succ) if succ else None,
                "unsuccessful_mean": sum(unsucc) / len(unsucc) if unsucc else None,
                "test": _safe_welch(succ, unsucc),
            }

        contrast("username_distance", pair_distance)
        contrast("page_jaccard", [m["page_jaccard"] for m in pair_metrics])
        for category in config.lexicon.categories:
            deltas = [
                child_profiles[i][category] - parent_profiles[i][category]
                for i in range(len(pairs))
            ]
            contrast(f"delta_{category}", deltas)
        report["success"] = {
            "successful": len(successful_idx),
            "unsuccessful": len(unsuccessful_idx),
            "successful_share": len(successful_idx) / len(pairs),
            "contrasts": contrasts,
        }
    else:
        report["success"] = None

    # Inter-account durations and their correlates.
    raw_gaps = [m["inter_account_seconds"] for m in pair_metrics]
    kept_idx, normalized = _normalized_gaps(raw_gaps, outlier_days)
    kept = [raw_gaps[i] for i in kept_idx]
    report["inter_account"] = {
        "median_seconds": statistics.median(raw_gaps) if raw_gaps else None,
        "std_seconds": statistics.stdev(raw_gaps) if len(raw_gaps) >= 2 else None,
        "kept_after_outlier_filter": len(kept),
        "corr_vs_username_distance": _safe_pearson(
            kept, [pair_distance[i] for i in kept_idx]
        ),
        "corr_vs_page_jaccard": _safe_pearson(
            kept, [pair_metrics[i]["page_jaccard"] for i in kept_idx]
        ),
    }

    # Plot-ready tables.
    duration_rows = [
        ["parent", v] for v in parent_activity["duration_seconds"]
    ] + [["control", v] for v in control_activity["duration_seconds"]]
    report["tables"] = {
        "account_durations": {
            "columns": ["class", "duration_seconds"],
            "rows": duration_rows,
        },
        "inter_account_durations": {
            "columns": ["seconds", "normalized"],
            "rows": [[kept[i], normalized[i]] for i in range(len(kept))],
        },
        "username_distance_vs_gap": {
            "columns": ["normalized_gap", "username_distance"],
            "rows": [
                [normalized[j], pair_distance[i]] for j, i in enumerate(kept_idx)
            ],
        },
        "page_overlap_vs_gap": {
            "columns": ["normalized_gap", "page_jaccard"],
            "rows": [
                [normalized[j], pair_metrics[i]["page_jaccard"]]
                for j, i in enumerate(kept_idx)
            ],
        },
    }
    return report


def write_tables(report: dict, out_dir) -> list[str]:
    """Write each plot-ready table as a CSV file; returns the paths."""
    from pathlib import Path

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, table in sorted(report.get("tables", {}).items()):
        path = out_dir / f"{name}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(table["columns"]) + "\n")
            for row in table["rows"]:
                fh.write(",".join(_csv_cell(cell) for cell in row) + "\n")
        written.append(str(path))
    return written


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
