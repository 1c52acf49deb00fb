"""Command-line surface for the toolkit.

Subcommands: generate | ingest | extract-pairs | match | featurize |
train | evaluate | rank | analyze | reproduce.

Option values resolve with precedence: explicit flag > environment
variable (``BANEVASION_<FLAG>``) > config file (flat ``key = value``
lines via --config) > built-in default. All outputs are deterministic
given identical inputs and seeds; nothing embeds wall-clock time.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import analysis as analysis_mod
from . import corpus as corpus_mod
from . import evaluation as eval_mod
from . import matching as matching_mod
from . import model as model_mod
from . import pairing as pairing_mod
from . import textstats as textstats_mod
from .corpus import SynthConfig
from .errors import BanEvasionError, PipelineError
from .features import FeatureConfig, account_features, pair_vectors, write_feature_matrix
from .model import TrainConfig

log = logging.getLogger("banevasion")

ENV_PREFIX = "BANEVASION_"


def _as_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


class Options:
    """Flag > environment > config file > default resolution."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = _load_config_file(getattr(args, "config", None))

    def get(self, name: str, default=None, cast=str):
        flag_value = getattr(self.args, name, None)
        if flag_value is not None:
            return flag_value
        env_value = os.environ.get(ENV_PREFIX + name.upper())
        if env_value is not None:
            return cast(env_value)
        if name in self.file_values:
            return cast(self.file_values[name])
        return default


def _add_corpus_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--accounts", help="accounts file (JSON lines)")
    p.add_argument("--revisions", help="revisions file (JSON lines)")
    p.add_argument("--records", help="sockpuppet records file (JSON lines)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int)


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--groups", type=int)
    p.add_argument("--benign", type=int)
    p.add_argument("--malicious", type=int)
    p.add_argument("--evasion-rate", type=float)
    p.add_argument("--username-mutation-rate", type=float)
    p.add_argument("--page-overlap", type=float)
    p.add_argument("--vocab-reuse", type=float)
    p.add_argument("--idle-gap-days", type=float)
    p.add_argument("--activity-contrast", type=float)
    p.add_argument("--malicious-text-rate", type=float)


def _add_lexicon_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lexicon", help="category lexicon file (default: built-in)")
    p.add_argument("--sentiment-lexicon", help="sentiment lexicon file (default: built-in)")
    p.add_argument("--embedding-provider", help="'trigram' or 'file:/path' (default: trigram)")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l2", type=float, help="L2 penalty weight")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--rfe", action="store_true", default=None,
                   help="select features by recursive elimination before the final fit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banevasion",
        description="Pair, detect, and attribute ban-evasion accounts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a seeded synthetic corpus")
    _add_common(p)
    _add_synth_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="validate corpus files and report counts")
    _add_common(p)
    _add_corpus_inputs(p)
    p.add_argument("--out-dir", help="optionally write canonicalized copies here")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("extract-pairs", help="merge groups and extract evasion pairs")
    _add_common(p)
    _add_corpus_inputs(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--all-rounds", action="store_true", default=None,
                   help="keep later evasion rounds instead of first pairs only")
    p.set_defaults(func=cmd_extract_pairs)

    p = sub.add_parser("match", help="build matched negative samples for one task")
    _add_common(p)
    _add_corpus_inputs(p)
    p.add_argument("--task", required=True, choices=["1", "2", "3"])
    p.add_argument("--pairs", help="extracted pairs file")
    p.add_argument("--out", required=True)
    p.add_argument("--window-days", type=float)
    p.add_argument("--cap", type=int)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("featurize", help="turn samples into a feature matrix")
    _add_common(p)
    _add_corpus_inputs(p)
    _add_lexicon_flags(p)
    p.add_argument("--task", required=True, choices=["1", "2", "3"])
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k-edits", type=int)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="fit the classifier on a feature matrix")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run one task harness end to end")
    _add_common(p)
    _add_corpus_inputs(p)
    _add_lexicon_flags(p)
    _add_model_flags(p)
    p.add_argument("--task", required=True, choices=["1", "2", "3"])
    p.add_argument("--pairs")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--window-days", type=float)
    p.add_argument("--cap", type=int)
    p.add_argument("--k-edits", type=int)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="parent attribution ranking harness")
    _add_common(p)
    _add_corpus_inputs(p)
    _add_lexicon_flags(p)
    _add_model_flags(p)
    p.add_argument("--pairs")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--max-candidates", type=int)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("analyze", help="descriptive characterization report")
    _add_common(p)
    _add_corpus_inputs(p)
    _add_lexicon_flags(p)
    p.add_argument("--pairs")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--window-days", type=float)
    p.add_argument("--outlier-days", type=float)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reproduce", help="full pipeline on a synthetic corpus")
    _add_common(p)
    _add_synth_flags(p)
    _add_lexicon_flags(p)
    _add_model_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--max-candidates", type=int)
    p.add_argument("--k-edits", type=int)
    p.add_argument("--cap", type=int)
    p.set_defaults(func=cmd_reproduce)

    return parser


# ---------------------------------------------------------------------------
# stage helpers


def _stage(name: str):
    class _StageContext:
        def __enter__(self):
            log.info("stage %s", name)
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and not isinstance(exc, PipelineError):
                raise PipelineError(name, exc) from exc
            return False

    return _StageContext()


def _synth_config(opts: Options) -> SynthConfig:
    return SynthConfig(
        n_groups=opts.get("groups", 60, int),
        n_benign=opts.get("benign", 600, int),
        n_nonevading_malicious=opts.get("malicious", 300, int),
        evasion_rate=opts.get("evasion_rate", 1.0, float),
        username_mutation_rate=opts.get("username_mutation_rate", 0.3, float),
        page_overlap=opts.get("page_overlap", 0.5, float),
        vocab_reuse=opts.get("vocab_reuse", 0.5, float),
        idle_gap_days=opts.get("idle_gap_days", 10.0, float),
        activity_contrast=opts.get("activity_contrast", 1.0, float),
        malicious_text_rate=opts.get("malicious_text_rate", 0.25, float),
        seed=opts.get("seed", 0, int),
    )


def _feature_config(opts: Options, k_limit=None, include_child_ban=True) -> FeatureConfig:
    lexicon_path = opts.get("lexicon")
    sentiment_path = opts.get("sentiment_lexicon")
    provider_spec = opts.get("embedding_provider", "trigram")
    return FeatureConfig(
        k_limit=k_limit,
        include_child_ban_features=include_child_ban,
        lexicon=(
            textstats_mod.load_lexicon(lexicon_path)
            if lexicon_path
            else textstats_mod.builtin_lexicon()
        ),
        sentiment_lexicon=(
            textstats_mod.load_sentiment_lexicon(sentiment_path)
            if sentiment_path
            else textstats_mod.builtin_sentiment_lexicon()
        ),
        provider=textstats_mod.get_provider(provider_spec),
    )


def _train_config(opts: Options) -> TrainConfig:
    return TrainConfig(
        l2_lambda=opts.get("l2", 1.0, float),
        learning_rate=opts.get("learning_rate", 0.1, float),
        max_epochs=opts.get("max_epochs", 2000, int),
    )


def _load_corpus(opts: Options):
    accounts = opts.get("accounts")
    revisions = opts.get("revisions")
    records = opts.get("records")
    if not (accounts and revisions and records):
        raise BanEvasionError("--accounts, --revisions, and --records are required")
    return corpus_mod.load_corpus(accounts, revisions, records)


def _extract(corpus, all_rounds: bool = False):
    groups = pairing_mod.merge_groups(corpus.sockpuppet_records, corpus)
    all_pairs = pairing_mod.extract_evasion_pairs(groups, corpus)
    pairs = all_pairs if all_rounds else pairing_mod.first_pair_per_group(all_pairs, corpus)
    return groups, all_pairs, pairs


def _pairs_from_file_or_corpus(opts: Options, corpus):
    pairs_path = opts.get("pairs")
    groups, all_pairs, first_pairs = _extract(corpus)
    if pairs_path:
        loaded = corpus_mod.load_pairs(pairs_path)
        by_key = {(p.parent_id, p.child_id): p for p in all_pairs}
        pairs = []
        for parent_id, child_id, group_id in loaded:
            known = by_key.get((parent_id, child_id))
            if known is not None:
                pairs.append(known)
            else:
                pairs.append(
                    pairing_mod.EvasionPair(parent_id, child_id, group_id if group_id is not None else -1)
                )
        return groups, pairs
    return groups, first_pairs


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    opts = Options(args)
    with _stage("generate"):
        result = corpus_mod.generate_synthetic(_synth_config(opts))
        out_dir = Path(opts.get("out_dir"))
        out_dir.mkdir(parents=True, exist_ok=True)
        corpus_mod.save_corpus(
            result.corpus,
            out_dir / "accounts.jsonl",
            out_dir / "revisions.jsonl",
            out_dir / "records.jsonl",
        )
        corpus_mod.save_pairs(result.true_pairs, out_dir / "truth_pairs.jsonl")
        print(
            f"generated {len(result.corpus.accounts)} accounts, "
            f"{len(result.corpus.revisions)} revisions, "
            f"{len(result.corpus.sockpuppet_records)} records, "
            f"{len(result.true_pairs)} true pairs -> {out_dir}"
        )
    return 0


def cmd_ingest(args) -> int:
    opts = Options(args)
    with _stage("ingest"):
        corpus = _load_corpus(opts)
        out_dir = opts.get("out_dir")
        if out_dir:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            corpus_mod.save_corpus(
                corpus,
                out / "accounts.jsonl",
                out / "revisions.jsonl",
                out / "records.jsonl",
            )
        print(
            f"accounts={len(corpus.accounts)} revisions={len(corpus.revisions)} "
            f"records={len(corpus.sockpuppet_records)}"
        )
    return 0


def cmd_extract_pairs(args) -> int:
    opts = Options(args)
    with _stage("extract-pairs"):
        corpus = _load_corpus(opts)
        groups, all_pairs, first_pairs = _extract(corpus)
        out_dir = Path(opts.get("out_dir"))
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "groups.jsonl", "w", encoding="utf-8") as fh:
            for g in groups:
                fh.write(json.dumps(
                    {
                        "group_id": g.group_id,
                        "master_id": g.master_id,
                        "member_ids": sorted(g.member_ids),
                    },
                    sort_keys=True, separators=(",", ":"),
                ) + "\n")
        corpus_mod.save_pairs(all_pairs, out_dir / "all_pairs.jsonl")
        keep = all_pairs if opts.get("all_rounds", False, _as_bool) else first_pairs
        corpus_mod.save_pairs(keep, out_dir / "evasion_pairs.jsonl")
        print(
            f"groups={len(groups)} pairs={len(all_pairs)} first_pairs={len(first_pairs)}"
        )
    return 0


def cmd_match(args) -> int:
    opts = Options(args)
    with _stage("match"):
        corpus = _load_corpus(opts)
        groups, pairs = _pairs_from_file_or_corpus(opts, corpus)
        task = opts.get("task")
        seed = opts.get("seed", 0, int)
        out = opts.get("out")
        if task == "1":
            window = int(opts.get("window_days", 7.0, float) * corpus_mod.DAY_SECONDS)
            parents = [corpus.account(p.parent_id) for p in pairs]
            pool = matching_mod.prepare_malicious_pool(corpus, groups)
            samples = matching_mod.match_task1(parents, pool, window)
            matching_mod.write_account_samples(samples, out)
        elif task == "2":
            window = int(opts.get("window_days", 1.0, float) * corpus_mod.DAY_SECONDS)
            samples = matching_mod.match_task2(
                pairs,
                matching_mod.prepare_benign_pool(corpus),
                corpus,
                window,
                opts.get("cap", matching_mod.DEFAULT_TASK2_CAP, int),
                seed,
            )
            matching_mod.write_pair_samples(samples, out)
        else:
            window = int(opts.get("window_days", 7.0, float) * corpus_mod.DAY_SECONDS)
            pool = matching_mod.prepare_malicious_pool(corpus, groups)
            samples = matching_mod.match_task3(pairs, pool, corpus, window)
            matching_mod.write_pair_samples(samples, out)
        print(f"wrote {len(samples)} samples -> {out}")
    return 0


def cmd_featurize(args) -> int:
    opts = Options(args)
    with _stage("featurize"):
        corpus = _load_corpus(opts)
        task = opts.get("task")
        if task == "1":
            config = _feature_config(opts)
            samples = matching_mod.read_account_samples(opts.get("samples"))
            vectors = [
                account_features(
                    corpus.account(s.account_id), corpus.revisions_of(s.account_id), config
                )
                for s in samples
            ]
            ids = [f"{s.anchor_parent_id}|{s.account_id}" for s in samples]
        else:
            k_edits = opts.get("k_edits", eval_mod.DEFAULT_K_EDITS, int) if task == "2" else None
            config = _feature_config(opts, k_limit=k_edits, include_child_ban=(task == "3"))
            samples = matching_mod.read_pair_samples(opts.get("samples"))
            vectors = pair_vectors(corpus, [(s.parent_id, s.other_id) for s in samples], config)
            ids = [f"{s.parent_id}|{s.other_id}" for s in samples]
        labels = [s.label for s in samples]
        write_feature_matrix(opts.get("out"), ids, labels, vectors)
        print(f"wrote {len(vectors)} rows -> {opts.get('out')}")
    return 0


def cmd_train(args) -> int:
    opts = Options(args)
    with _stage("train"):
        from .features import read_feature_matrix

        _, labels, names, X = read_feature_matrix(opts.get("features"))
        config = _train_config(opts)
        if opts.get("rfe", False, _as_bool):
            selected, fitted, _ = model_mod.rfe(X, labels, config, feature_names=names)
            log.info("rfe selected %d/%d features", len(selected), len(names))
        else:
            fitted = model_mod.train(X, labels, config, names)
        model_mod.save_model(fitted, opts.get("out"))
        print(f"wrote model ({len(fitted.feature_names)} features) -> {opts.get('out')}")
    return 0


def _harness_kwargs(opts: Options, default_fraction: float):
    kwargs = dict(
        feature_config=_feature_config(opts),
        train_config=_train_config(opts),
        split=eval_mod.SplitSpec(opts.get("train_fraction", default_fraction, float)),
        use_rfe=opts.get("rfe", False, _as_bool),
    )
    return kwargs


def _run_task(corpus, groups, pairs, task: str, opts: Options):
    seed = opts.get("seed", 0, int)
    if task == "1":
        window = int(opts.get("window_days", 7.0, float) * corpus_mod.DAY_SECONDS)
        return eval_mod.run_task1(
            corpus, groups, pairs, window, **_harness_kwargs(opts, 0.8)
        )
    if task == "2":
        window = int(opts.get("window_days", 1.0, float) * corpus_mod.DAY_SECONDS)
        return eval_mod.run_task2(
            corpus,
            pairs,
            window,
            cap=opts.get("cap", matching_mod.DEFAULT_TASK2_CAP, int),
            seed=seed,
            k_edits=opts.get("k_edits", eval_mod.DEFAULT_K_EDITS, int),
            **_harness_kwargs(opts, 0.9),
        )
    window = int(opts.get("window_days", 7.0, float) * corpus_mod.DAY_SECONDS)
    return eval_mod.run_task3(
        corpus, groups, pairs, window, **_harness_kwargs(opts, 0.9)
    )


def cmd_evaluate(args) -> int:
    opts = Options(args)
    with _stage("evaluate"):
        corpus = _load_corpus(opts)
        groups, pairs = _pairs_from_file_or_corpus(opts, corpus)
        task = opts.get("task")
        result, fitted = _run_task(corpus, groups, pairs, task, opts)
        out_dir = Path(opts.get("out_dir"))
        out_dir.mkdir(parents=True, exist_ok=True)
        model_mod.save_model(fitted, out_dir / f"task{task}_model.json")
        report = result.to_dict()
        eval_mod.write_report(
            report, out_dir / f"task{task}_report.json", out_dir / f"task{task}_report.txt"
        )
        print(f"task{task} auc={result.auc:.4f} -> {out_dir}")
    return 0


def cmd_rank(args) -> int:
    opts = Options(args)
    with _stage("rank"):
        corpus = _load_corpus(opts)
        _, pairs = _pairs_from_file_or_corpus(opts, corpus)
        result, fitted = eval_mod.run_ranking(
            corpus,
            pairs,
            max_candidates=opts.get("max_candidates", matching_mod.DEFAULT_MAX_CANDIDATES, int),
            feature_config=_feature_config(opts),
            train_config=_train_config(opts),
            split=eval_mod.SplitSpec(opts.get("train_fraction", 0.9, float)),
        )
        out_dir = Path(opts.get("out_dir"))
        out_dir.mkdir(parents=True, exist_ok=True)
        model_mod.save_model(fitted, out_dir / "ranking_model.json")
        eval_mod.write_report(
            result.to_dict(), out_dir / "ranking_report.json", out_dir / "ranking_report.txt"
        )
        print(f"ranking mrr={result.mrr:.4f} -> {out_dir}")
    return 0


def cmd_analyze(args) -> int:
    opts = Options(args)
    with _stage("analyze"):
        corpus = _load_corpus(opts)
        groups, pairs = _pairs_from_file_or_corpus(opts, corpus)
        report = _analyze(corpus, groups, pairs, opts)
        out_dir = Path(opts.get("out_dir"))
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_analysis(report, out_dir)
        print(f"analysis -> {out_dir}")
    return 0


def _analyze(corpus, groups, pairs, opts: Options) -> dict:
    window1 = int(opts.get("window_days", 7.0, float) * corpus_mod.DAY_SECONDS)
    pool = matching_mod.prepare_malicious_pool(corpus, groups)
    parents = [corpus.account(p.parent_id) for p in pairs]
    account_samples = matching_mod.match_task1(parents, pool, window1)
    pair_samples = matching_mod.match_task3(pairs, pool, corpus, window1)
    return analysis_mod.characterize(
        corpus,
        pairs,
        account_samples,
        pair_samples,
        feature_config=_feature_config(opts, include_child_ban=False),
        outlier_days=opts.get("outlier_days", analysis_mod.DEFAULT_OUTLIER_DAYS, float),
    )


def _write_analysis(report: dict, out_dir: Path) -> None:
    with open(out_dir / "analysis.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "analysis.txt", "w", encoding="utf-8") as fh:
        fh.write(eval_mod.render_report_text({
            "counts": report["counts"],
            "activity_parent_medians": report["activity"]["parent_medians"],
            "activity_control_medians": report["activity"]["control_medians"],
            "username_distance_pairs": report["username_distance"]["pairs"],
            "username_distance_controls": report["username_distance"]["controls"],
            "success": {
                k: v for k, v in (report["success"] or {}).items() if k != "contrasts"
            },
        }))
    analysis_mod.write_tables(report, out_dir / "tables")


def cmd_reproduce(args) -> int:
    opts = Options(args)
    out_dir = Path(opts.get("out_dir"))
    seed = opts.get("seed", 0, int)

    with _stage("generate"):
        synth = _synth_config(opts)
        result = corpus_mod.generate_synthetic(synth)
        corpus = result.corpus
        corpus_dir = out_dir / "corpus"
        corpus_dir.mkdir(parents=True, exist_ok=True)
        corpus_mod.save_corpus(
            corpus,
            corpus_dir / "accounts.jsonl",
            corpus_dir / "revisions.jsonl",
            corpus_dir / "records.jsonl",
        )
        corpus_mod.save_pairs(result.true_pairs, corpus_dir / "truth_pairs.jsonl")

    with _stage("extract-pairs"):
        groups, all_pairs, pairs = _extract(corpus)
        pairs_dir = out_dir / "pairs"
        pairs_dir.mkdir(parents=True, exist_ok=True)
        corpus_mod.save_pairs(all_pairs, pairs_dir / "all_pairs.jsonl")
        corpus_mod.save_pairs(pairs, pairs_dir / "evasion_pairs.jsonl")

    report: dict = {
        "seed": seed,
        "synth_config": {k: v for k, v in asdict(synth).items() if k != "seed"},
        "corpus": {
            "accounts": len(corpus.accounts),
            "revisions": len(corpus.revisions),
            "records": len(corpus.sockpuppet_records),
        },
        "pairing": {
            "groups": len(groups),
            "pairs": len(all_pairs),
            "first_pairs": len(pairs),
        },
    }

    models_dir = out_dir / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    for task in ("1", "2", "3"):
        with _stage(f"evaluate-task{task}"):
            result_t, fitted = _run_task(corpus, groups, pairs, task, opts)
            model_mod.save_model(fitted, models_dir / f"task{task}_model.json")
            report[f"task{task}"] = result_t.to_dict()

    with _stage("rank"):
        ranking, rank_model = eval_mod.run_ranking(
            corpus,
            pairs,
            max_candidates=opts.get("max_candidates", matching_mod.DEFAULT_MAX_CANDIDATES, int),
            feature_config=_feature_config(opts),
            train_config=_train_config(opts),
            split=eval_mod.SplitSpec(opts.get("train_fraction", 0.9, float)),
        )
        model_mod.save_model(rank_model, models_dir / "ranking_model.json")
        report["ranking"] = ranking.to_dict()

    with _stage("analyze"):
        analysis_report = _analyze(corpus, groups, pairs, opts)
        reports_dir = out_dir / "reports"
        reports_dir.mkdir(parents=True, exist_ok=True)
        _write_analysis(analysis_report, reports_dir)

    with _stage("report"):
        eval_mod.write_report(
            report, out_dir / "report.json", out_dir / "report.txt"
        )
    print(
        "reproduce done: "
        f"task1={report['task1']['auc']:.4f} "
        f"task2={report['task2']['auc']:.4f} "
        f"task3={report['task3']['auc']:.4f} "
        f"mrr={report['ranking']['mrr']:.4f} -> {out_dir}"
    )
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BanEvasionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
