"""Characterization statistics: two-sample tests, correlations, and the
full descriptive report.

The report's Welch tests come in five contrast families: activity (4 tests,
parents vs. control accounts), username distance (1, pairs vs. matched
pairs), overlaps (6), psycholinguistic change (one per lexicon category,
child vs. parent) and success (2 plus one per category, successful vs.
unsuccessful pairs, by ``pairing.classify_success``; a pair whose child is
still active is in neither, and ``success`` is None when none is decided).
Every family but activity is built by ``_contrast``. Every statistic but the
username distance reads named columns of the ``features`` account and pair
rows.
``write_analysis`` writes a report's files, choosing what its text shows.

Student-t p-values come from the regularized incomplete beta function,
evaluated with a Lentz continued fraction in double precision. Two-sided
p for a statistic t with df degrees of freedom is I_x(df/2, 1/2) at
x = df / (df + t^2).
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .corpus import DAY_SECONDS
from .errors import (
    ConvergenceError,
    InsufficientSamplesError,
    InvalidConfigError,
    MismatchError,
    ZeroVarianceError,
)
from .evaluation import render_report_text
from .features import Digests, account_vectors, pair_vectors
from .matching import NEGATIVE, check_options
from .pairing import classify_success
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
    raise ConvergenceError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise InvalidConfigError("a" if a <= 0 else "b", "must be > 0")
    if not 0.0 <= x <= 1.0:
        raise InvalidConfigError("x", "must be in [0, 1]")
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
        raise InvalidConfigError("df", "must be > 0")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def welch_test(a: Sequence[float], b: Sequence[float]) -> dict:
    """Unequal-variances two-sample t-test with pooled-SD effect size, as
    the report holds it: ``{"t", "df", "p", "cohens_d"}``."""
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
    pooled_sd = math.sqrt(((na - 1) * var_a + (nb - 1) * var_b) / (na + nb - 2))
    return {
        "t": t,
        "df": df,
        "p": student_t_two_sided_p(t, df),
        "cohens_d": (mean_a - mean_b) / pooled_sd,
    }


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    if len(x) != len(y):
        raise MismatchError(f"lengths differ: {len(x)} vs {len(y)}")
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


# ---------------------------------------------------------------------------
# full characterization report


def _safe_welch(a: Sequence[float], b: Sequence[float]):
    try:
        return welch_test(a, b)
    except (InsufficientSamplesError, ZeroVarianceError):
        return None


def _contrast(
    a: Sequence[float], b: Sequence[float], name_a: str, name_b: str, summary: Callable
) -> dict:
    """``summary`` of each sample under its name, and their Welch test (a vs. b)."""
    return {name_a: summary(a), name_b: summary(b), "test": _safe_welch(a, b)}


def _mean(values: Sequence[float]):
    return sum(values) / len(values) if values else None


def _safe_pearson(x: Sequence[float], y: Sequence[float]):
    try:
        return pearson(x, y)
    except (InsufficientSamplesError, ZeroVarianceError):
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


def _columns(names: tuple[str, ...], X) -> dict[str, list[float]]:
    """Each column of a ``features`` matrix as a list, by name."""
    return dict(zip(names, X.T.tolist()))


def _activity_stats(digests: Digests, account_ids: Iterable[str]) -> dict[str, list[float]]:
    """Durations of the banned accounts, and mean gaps of those with >= 2 edits."""
    columns = _columns(*account_vectors(digests, account_ids))
    edits, banned = columns["total_contributions"], columns["is_banned"]
    return {
        "duration_seconds": [v for v, b in zip(columns["duration_seconds"], banned) if b],
        "revisions": edits,
        "unique_pages": columns["unique_pages"],
        "mean_gap_seconds": [v for v, n in zip(columns["mean_gap_seconds"], edits) if n >= 2],
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
    than raising. The corpus, the lexicon and every account and pair row
    come from ``digests``. ``pairs`` pass ``corpus.check_pairs`` first,
    through ``pairing.classify_success``, before any row is built.
    """
    check_options(outlier_days=outlier_days)
    corpus = digests.corpus
    lexicon = digests.lexicon
    successful = classify_success(pairs, corpus)

    # a parent named by several pairs is one account
    parent_ids = dict.fromkeys(p.parent_id for p in pairs)
    control_ids = sorted(
        {s.other_id for s in account_samples if s.label == NEGATIVE}
    )
    parent_activity = _activity_stats(digests, parent_ids)
    control_activity = _activity_stats(digests, control_ids)
    pair_keys = [(p.parent_id, p.child_id) for p in pairs]
    control_keys = [(s.parent_id, s.other_id) for s in pair_samples if s.label == NEGATIVE]

    report: dict = {
        "counts": {
            "pairs": len(pairs),
            "control_accounts": len(control_ids),
            "control_pairs": len(control_keys),
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
    pair_distance, control_distance = (
        [
            normalized_levenshtein(corpus.account(a).username, corpus.account(b).username)
            for a, b in keys
        ]
        for keys in (pair_keys, control_keys)
    )
    report["username_distance"] = _contrast(
        pair_distance, control_distance, "pairs", "controls", _mean_ci
    )

    # Overlap and similarity contrasts.
    columns = _columns(*pair_vectors(digests, pair_keys + control_keys))
    page_jaccard = columns["page_jaccard"][: len(pairs)]
    report["overlaps"] = {
        key: _contrast(
            columns[key][: len(pairs)], columns[key][len(pairs) :], "pairs", "controls", _mean_ci
        )
        for key in _OVERLAP_KEYS
    }

    # Per-category psycholinguistic change from parent to child.
    parent_rows = _columns(*account_vectors(digests, [p.parent_id for p in pairs]))
    child_rows = _columns(*account_vectors(digests, [p.child_id for p in pairs]))
    profiles = {c: (child_rows[f"liwc_{c}"], parent_rows[f"liwc_{c}"]) for c in lexicon.categories}
    report["psycholinguistic_change"] = {
        category: _contrast(child, parent, "child_mean", "parent_mean", _mean)
        for category, (child, parent) in profiles.items()
    }

    # Success vs. unsuccessful contrasts, over the decided pairs.
    n_decided = sum(ok is not None for ok in successful)
    if n_decided:
        n_successful = successful.count(True)

        def contrast(values: list[float]) -> dict:
            succ = [v for v, ok in zip(values, successful) if ok is True]
            unsucc = [v for v, ok in zip(values, successful) if ok is False]
            return _contrast(succ, unsucc, "successful_mean", "unsuccessful_mean", _mean)

        contrasts = {
            "username_distance": contrast(pair_distance),
            "page_jaccard": contrast(page_jaccard),
        }
        for category, (child, parent) in profiles.items():
            contrasts[f"delta_{category}"] = contrast([c - p for c, p in zip(child, parent)])
        report["success"] = {
            "successful": n_successful,
            "unsuccessful": n_decided - n_successful,
            "successful_share": n_successful / n_decided,
            "contrasts": contrasts,
        }
    else:
        report["success"] = None

    # Inter-account gaps (the pair vectors' parent-ban -> child-creation
    # column), those of at most ``outlier_days`` kept and min-max normalized
    # to [0, 1] (all zero when they are equal), and their correlates.
    raw_gaps = columns["inter_account_seconds"][: len(pairs)]
    kept_idx = [i for i, gap in enumerate(raw_gaps) if gap <= outlier_days * DAY_SECONDS]
    kept = [raw_gaps[i] for i in kept_idx]
    lo, hi = (min(kept), max(kept)) if kept else (0.0, 0.0)
    normalized = [(v - lo) / (hi - lo) if hi > lo else 0.0 for v in kept]
    kept_distance = [pair_distance[i] for i in kept_idx]
    kept_jaccard = [page_jaccard[i] for i in kept_idx]
    report["inter_account"] = {
        "median_seconds": statistics.median(raw_gaps) if raw_gaps else None,
        "std_seconds": statistics.stdev(raw_gaps) if len(raw_gaps) >= 2 else None,
        "kept_after_outlier_filter": len(kept),
        "corr_vs_username_distance": _safe_pearson(kept, kept_distance),
        "corr_vs_page_jaccard": _safe_pearson(kept, kept_jaccard),
    }

    # Plot-ready tables.
    duration_rows = [
        ["parent", v] for v in parent_activity["duration_seconds"]
    ] + [["control", v] for v in control_activity["duration_seconds"]]
    report["tables"] = {
        "account_durations": {"columns": ["class", "duration_seconds"], "rows": duration_rows},
        "inter_account_durations": {
            "columns": ["seconds", "normalized"],
            "rows": [list(row) for row in zip(kept, normalized)],
        },
        "username_distance_vs_gap": {
            "columns": ["normalized_gap", "username_distance"],
            "rows": [list(row) for row in zip(normalized, kept_distance)],
        },
        "page_overlap_vs_gap": {
            "columns": ["normalized_gap", "page_jaccard"],
            "rows": [list(row) for row in zip(normalized, kept_jaccard)],
        },
    }
    return report


def write_analysis(report: dict, out_dir) -> None:
    """Write ``analysis.json``, the summary ``analysis.txt`` and the
    ``tables/`` CSV files of the report into ``out_dir``, made if missing."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "analysis.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "analysis.txt", "w", encoding="utf-8") as fh:
        fh.write(render_report_text({
            "counts": report["counts"],
            "activity_parent_medians": report["activity"]["parent_medians"],
            "activity_control_medians": report["activity"]["control_medians"],
            "username_distance_pairs": report["username_distance"]["pairs"],
            "username_distance_controls": report["username_distance"]["controls"],
            "success": {
                k: v for k, v in (report["success"] or {}).items() if k != "contrasts"
            },
        }))
    write_tables(report, out_dir / "tables")


def write_tables(report: dict, out_dir) -> None:
    """Write each plot-ready table as a CSV file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, table in sorted(report.get("tables", {}).items()):
        with open(out_dir / f"{name}.csv", "w", encoding="utf-8") as fh:
            fh.write(",".join(table["columns"]) + "\n")
            for row in table["rows"]:
                fh.write(",".join(_csv_cell(cell) for cell in row) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
