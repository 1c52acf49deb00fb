"""Command-line surface for the toolkit.

Subcommands: generate | ingest | extract-pairs | match | featurize |
train | evaluate | rank | analyze | reproduce.

Option values resolve with precedence: explicit flag > environment
variable (``BANEVASION_<FLAG>``) > config file (flat ``key = value``
lines via --config; a key no command reads is rejected) > built-in default. All outputs are deterministic
given identical inputs and seeds; nothing embeds wall-clock time.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .errors import BanEvasionError, InvalidConfigError, PipelineError, RecordParseError
from .features import Digests, FeatureConfig, read_feature_matrix, write_feature_matrix
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


def _load_config_file(path: str | None, keys: frozenset[str]) -> dict[str, str]:
    """The ``key = value`` lines of ``path``; each key must be in ``keys``."""
    if not path:
        return {}
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise RecordParseError(path, lineno, "expected key = value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in keys:
                raise RecordParseError(path, lineno, f"no command reads key {key!r}")
            values[key] = value.strip()
    return values


class Options:
    """Flag > environment > config file > default resolution."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = _load_config_file(getattr(args, "config", None), args.config_keys)

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
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--rfe", action="store_true", default=None,
                   help="select features by recursive elimination before the final fit")


def _add_command(sub, name: str, summary: str, func, *adders) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    for add in (_add_common, *adders):
        add(p)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banevasion",
        description="Pair, detect, and attribute ban-evasion accounts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "generate", "write a seeded synthetic corpus", cmd_generate,
                     _add_synth_flags)
    p.add_argument("--out-dir", required=True)

    p = _add_command(sub, "ingest", "validate corpus files and report counts", cmd_ingest,
                     _add_corpus_inputs)
    p.add_argument("--out-dir", help="optionally write canonicalized copies here")

    p = _add_command(sub, "extract-pairs", "merge groups and extract evasion pairs",
                     cmd_extract_pairs, _add_corpus_inputs)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--all-rounds", action="store_true", default=None,
                   help="keep later evasion rounds instead of first pairs only")

    p = _add_command(sub, "match", "build matched negative samples for one task", cmd_match,
                     _add_corpus_inputs)
    p.add_argument("--task", required=True, choices=["1", "2", "3"])
    p.add_argument("--pairs", help="extracted pairs file")
    p.add_argument("--out", required=True)
    p.add_argument("--window-days", type=float)
    p.add_argument("--cap", type=int)

    p = _add_command(sub, "featurize", "turn samples into a feature matrix", cmd_featurize,
                     _add_corpus_inputs, _add_lexicon_flags)
    p.add_argument("--task", required=True, choices=["1", "2", "3"])
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k-edits", type=int)

    p = _add_command(sub, "train", "fit the classifier on a feature matrix", cmd_train,
                     _add_model_flags)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)

    p = _add_command(sub, "evaluate", "run one task harness end to end", cmd_evaluate,
                     _add_corpus_inputs, _add_lexicon_flags, _add_model_flags)
    p.add_argument("--task", required=True, choices=["1", "2", "3"])
    p.add_argument("--pairs")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--window-days", type=float)
    p.add_argument("--cap", type=int)
    p.add_argument("--k-edits", type=int)

    p = _add_command(sub, "rank", "parent attribution ranking harness", cmd_rank,
                     _add_corpus_inputs, _add_lexicon_flags, _add_model_flags)
    p.add_argument("--pairs")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--max-candidates", type=int)

    p = _add_command(sub, "analyze", "descriptive characterization report", cmd_analyze,
                     _add_corpus_inputs, _add_lexicon_flags)
    p.add_argument("--pairs")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--window-days", type=float)
    p.add_argument("--outlier-days", type=float)

    p = _add_command(sub, "reproduce", "full pipeline on a synthetic corpus", cmd_reproduce,
                     _add_synth_flags, _add_lexicon_flags, _add_model_flags)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--max-candidates", type=int)
    p.add_argument("--k-edits", type=int)
    p.add_argument("--cap", type=int)

    # A --config file may set any option some command reads, even one the
    # running command ignores, so one file can serve every stage.
    parser.set_defaults(config_keys=frozenset(
        action.dest for command in sub.choices.values() for action in command._actions
    ) - {"help", "config"})
    return parser


# ---------------------------------------------------------------------------
# stage helpers


@contextlib.contextmanager
def _stage(name: str):
    """Re-raise an error inside the stage as a ``PipelineError`` naming it.

    Only ``Exception`` is wrapped, so an interrupt or exit passes unchanged.
    """
    log.info("stage %s", name)
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


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


def _digests(opts: Options, corpus) -> Digests:
    """The command's one digest store, over the lexicons and provider of ``opts``."""
    lexicon = opts.get("lexicon")
    sentiment = opts.get("sentiment_lexicon")
    return Digests(corpus, FeatureConfig(
        lexicon=textstats_mod.load_lexicon(lexicon) if lexicon else textstats_mod.builtin_lexicon(),
        sentiment_lexicon=(
            textstats_mod.load_sentiment_lexicon(sentiment)
            if sentiment
            else textstats_mod.builtin_sentiment_lexicon()
        ),
        provider=textstats_mod.get_provider(opts.get("embedding_provider", "trigram")),
    ))


def _train_config(opts: Options) -> TrainConfig:
    return TrainConfig(
        l2_lambda=opts.get("l2", 1.0, float),
        max_epochs=opts.get("max_epochs", 2000, int),
    )


def _split(opts: Options, task: matching_mod.Task) -> eval_mod.SplitSpec:
    return eval_mod.SplitSpec(opts.get("train_fraction", task.train_fraction, float))


def _load_corpus(opts: Options):
    accounts = opts.get("accounts")
    revisions = opts.get("revisions")
    records = opts.get("records")
    if not (accounts and revisions and records):
        raise BanEvasionError("--accounts, --revisions, and --records are required")
    return corpus_mod.load_corpus(accounts, revisions, records)


def _task(opts: Options) -> matching_mod.Task:
    """The ``--task`` entry; ``--cap``/``--k-edits`` on the command line need task 2."""
    task = matching_mod.TASKS[opts.get("task")]
    for name in ("cap", "k_edits"):
        if task.name != matching_mod.TASK2 and getattr(opts.args, name, None) is not None:
            raise InvalidConfigError(name, f"applies only to --task 2, not --task {task.number}")
    return task


def _match(opts: Options, task: matching_mod.Task, corpus, groups, pairs):
    """``task.match`` with the window, cap and seed of ``opts``."""
    days = opts.get("window_days", None, float)
    return task.match(
        corpus,
        groups,
        pairs,
        task.window_seconds if days is None else int(days * corpus_mod.DAY_SECONDS),
        opts.get("cap", matching_mod.DEFAULT_TASK2_CAP, int),
        opts.get("seed", 0, int),
    )


def _extract(corpus):
    groups = pairing_mod.merge_groups(corpus.sockpuppet_records, corpus)
    all_pairs = pairing_mod.extract_evasion_pairs(groups, corpus)
    return groups, all_pairs, pairing_mod.first_pair_per_group(all_pairs, corpus)


def _pairs_from_file_or_corpus(opts: Options, corpus):
    """The merged groups, and the ``--pairs`` file as given (group id -1 where
    it has none; each pair checked against the corpus) or else the first
    extracted pair per group."""
    pairs_path = opts.get("pairs")
    if not pairs_path:
        groups, _, first_pairs = _extract(corpus)
        return groups, first_pairs
    return pairing_mod.merge_groups(corpus.sockpuppet_records, corpus), [
        pairing_mod.EvasionPair(parent_id, child_id, -1 if group_id is None else group_id)
        for parent_id, child_id, group_id in corpus_mod.load_pairs(pairs_path, corpus)
    ]


# ---------------------------------------------------------------------------
# subcommands


def _save_corpus(corpus, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_mod.save_corpus(
        corpus,
        out_dir / "accounts.jsonl",
        out_dir / "revisions.jsonl",
        out_dir / "records.jsonl",
    )


def _generate(opts: Options, out_dir: Path):
    """Generate the synthetic corpus; write it and its planted pairs to out_dir."""
    synth = _synth_config(opts)
    result = corpus_mod.generate_synthetic(synth)
    _save_corpus(result.corpus, out_dir)
    corpus_mod.save_pairs(result.true_pairs, out_dir / "truth_pairs.jsonl")
    return synth, result


def cmd_generate(opts: Options) -> int:
    out_dir = Path(opts.get("out_dir"))
    _, result = _generate(opts, out_dir)
    print(
        f"generated {len(result.corpus.accounts)} accounts, "
        f"{len(result.corpus.revisions)} revisions, "
        f"{len(result.corpus.sockpuppet_records)} records, "
        f"{len(result.true_pairs)} true pairs -> {out_dir}"
    )
    return 0


def cmd_ingest(opts: Options) -> int:
    corpus = _load_corpus(opts)
    out_dir = opts.get("out_dir")
    if out_dir:
        _save_corpus(corpus, Path(out_dir))
    print(
        f"accounts={len(corpus.accounts)} revisions={len(corpus.revisions)} "
        f"records={len(corpus.sockpuppet_records)}"
    )
    return 0


def cmd_extract_pairs(opts: Options) -> int:
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


def cmd_match(opts: Options) -> int:
    task = _task(opts)
    corpus = _load_corpus(opts)
    samples = _match(opts, task, corpus, *_pairs_from_file_or_corpus(opts, corpus))
    out = opts.get("out")
    matching_mod.write_samples(samples, out)
    print(f"wrote {len(samples)} samples -> {out}")
    return 0


def cmd_featurize(opts: Options) -> int:
    task = _task(opts)
    corpus = _load_corpus(opts)
    path = opts.get("samples")
    samples = matching_mod.read_samples(path)
    for lineno, s in enumerate(samples, start=1):
        if s.task != task.name:
            reason = f"task {s.task!r} does not match --task {task.number} ({task.name})"
            raise RecordParseError(path, lineno, reason)
    digests = _digests(opts, corpus)
    config = task.feature_config(
        digests.config, opts.get("k_edits", matching_mod.DEFAULT_K_EDITS, int)
    )
    vectors = task.vectors(samples, digests, config)
    ids = [f"{s.parent_id}|{s.other_id}" for s in samples]
    labels = [s.label for s in samples]
    write_feature_matrix(opts.get("out"), ids, labels, vectors)
    print(f"wrote {len(vectors)} rows -> {opts.get('out')}")
    return 0


def cmd_train(opts: Options) -> int:
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


def _run_task(digests: Digests, task: matching_mod.Task, samples, opts: Options):
    return eval_mod.run_task(
        task,
        samples,
        digests,
        train_config=_train_config(opts),
        split=_split(opts, task),
        use_rfe=opts.get("rfe", False, _as_bool),
        k_edits=opts.get("k_edits", matching_mod.DEFAULT_K_EDITS, int),
    )


def _run_ranking(digests: Digests, pairs, opts: Options):
    return eval_mod.run_ranking(
        digests,
        pairs,
        max_candidates=opts.get("max_candidates", matching_mod.DEFAULT_MAX_CANDIDATES, int),
        train_config=_train_config(opts),
        split=_split(opts, matching_mod.TASKS["3"]),
    )


def cmd_evaluate(opts: Options) -> int:
    task = _task(opts)
    corpus = _load_corpus(opts)
    samples = _match(opts, task, corpus, *_pairs_from_file_or_corpus(opts, corpus))
    result, fitted = _run_task(_digests(opts, corpus), task, samples, opts)
    out_dir = Path(opts.get("out_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"task{task.number}"
    model_mod.save_model(fitted, out_dir / f"{name}_model.json")
    eval_mod.write_report(
        result.to_dict(), out_dir / f"{name}_report.json", out_dir / f"{name}_report.txt"
    )
    print(f"{name} auc={result.auc:.4f} -> {out_dir}")
    return 0


def cmd_rank(opts: Options) -> int:
    corpus = _load_corpus(opts)
    _, pairs = _pairs_from_file_or_corpus(opts, corpus)
    result, fitted = _run_ranking(_digests(opts, corpus), pairs, opts)
    out_dir = Path(opts.get("out_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    model_mod.save_model(fitted, out_dir / "ranking_model.json")
    eval_mod.write_report(
        result.to_dict(), out_dir / "ranking_report.json", out_dir / "ranking_report.txt"
    )
    print(f"ranking mrr={result.mrr:.4f} -> {out_dir}")
    return 0


def cmd_analyze(opts: Options) -> int:
    corpus = _load_corpus(opts)
    groups, pairs = _pairs_from_file_or_corpus(opts, corpus)
    samples = {n: _match(opts, matching_mod.TASKS[n], corpus, groups, pairs) for n in ("1", "3")}
    report = _analyze(_digests(opts, corpus), pairs, samples, opts)
    out_dir = Path(opts.get("out_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_analysis(report, out_dir)
    print(f"analysis -> {out_dir}")
    return 0


def _analyze(digests: Digests, pairs, samples: dict, opts: Options) -> dict:
    """The characterization over the task-1 and task-3 ``samples``, keyed by task number."""
    return analysis_mod.characterize(
        digests,
        pairs,
        samples["1"],
        samples["3"],
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


def cmd_reproduce(opts: Options) -> int:
    out_dir = Path(opts.get("out_dir"))
    seed = opts.get("seed", 0, int)

    with _stage("generate"):
        synth, result = _generate(opts, out_dir / "corpus")
        corpus = result.corpus

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

    digests = _digests(opts, corpus)
    models_dir = out_dir / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    # each task is matched once; analyze reuses the task-1 and task-3 samples
    samples = {}
    for task in matching_mod.TASKS.values():
        name = f"task{task.number}"
        with _stage(f"evaluate-{name}"):
            samples[task.number] = _match(opts, task, corpus, groups, pairs)
            result_t, fitted = _run_task(digests, task, samples[task.number], opts)
            model_mod.save_model(fitted, models_dir / f"{name}_model.json")
            report[name] = result_t.to_dict()

    with _stage("rank"):
        ranking, rank_model = _run_ranking(digests, pairs, opts)
        model_mod.save_model(rank_model, models_dir / "ranking_model.json")
        report["ranking"] = ranking.to_dict()

    with _stage("analyze"):
        analysis_report = _analyze(digests, pairs, samples, opts)
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
        with _stage(args.command):
            return args.func(Options(args))
    except BanEvasionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
