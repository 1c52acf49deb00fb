"""Command-line surface for the toolkit.

Subcommands: generate | ingest | extract-pairs | match | featurize |
train | evaluate | rank | analyze | reproduce.

The option table is the one place where an option is declared: ``OPTIONS``
gives each option's type and help text, and ``COMMANDS`` lists each command's
options; the parser, each command's casts and the config keys come from them.
``resolve`` fills each option the running command declares once, before
the command runs: explicit flag > environment variable (``BANEVASION_<NAME>``)
> config file (flat ``key = value`` lines via --config; a key no command
reads is rejected), cast by the flag's own type. A bad value names its
variable or ``file:line``. An option nothing sets stays ``None`` and is not
passed on, so the library's own default holds. ``resolve`` checks each value
whose option ``matching.OPTION_BOUNDS`` bounds as it reads it, in the
command's option order; each command then builds its other library inputs
(generator and model configs, text resources), which check their own values,
before it opens an input file. An option its task ignores is checked too.
All outputs are byte-identical given identical inputs, seeds and BLAS thread
count (OpenBLAS orders the model layer's sums by thread count at some
shapes); nothing embeds wall-clock time. The feature, text, model, evaluation
and analysis layers are imported inside the commands that use them, so
generate, ingest, extract-pairs and match load no numpy. Commands that read
no revision field (``ingest`` without ``--out-dir``, ``extract-pairs`` and
``match``) load the corpus with ``keep_revisions=False``: every revision line
is still parsed and checked, but only the per-account counts are kept.
``generate`` writes each account's lines as it is drawn and builds no
``Corpus``.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING

from . import corpus as corpus_mod
from . import matching as matching_mod
from . import pairing as pairing_mod
from .corpus import SynthConfig
from .errors import (
    BanEvasionError,
    InvalidConfigError,
    PipelineError,
    RecordParseError,
    ReferentialIntegrityError,
)

if TYPE_CHECKING:
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


def _load_config_file(path: str | None, keys: frozenset[str]) -> dict[str, tuple[int, str]]:
    """The ``key = value`` lines of ``path`` as ``{key: (line, value)}``; each
    key must be in ``keys`` and on one line only."""
    if not path:
        return {}
    values: dict[str, tuple[int, str]] = {}
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
            if key in values:
                reason = f"key {key!r} already set at line {values[key][0]}"
                raise RecordParseError(path, lineno, reason)
            values[key] = (lineno, value.strip())
    return values


def _cast(cast, text: str, source: str):
    try:
        return cast(text)
    except ValueError as exc:
        raise BanEvasionError(f"{source}: {exc}") from exc


def resolve(args: argparse.Namespace) -> argparse.Namespace:
    """The options the running command declares, each one the command line
    left unset taken from ``BANEVASION_<NAME>``, else from the --config file,
    else ``None``. ``--cap``/``--k-edits`` on the command line need task 2.
    Each value of an option in ``matching.OPTION_BOUNDS`` is checked as it is
    read, so no command opens an input before its bounded options pass."""
    task = getattr(args, "task", None)
    for name in ("cap", "k_edits"):
        if task not in (None, "2") and getattr(args, name, None) is not None:
            raise InvalidConfigError(name, f"applies only to --task 2, not --task {task}")
    file_values = _load_config_file(args.config, args.config_keys)
    spec = {}
    for name, cast in args.options.items():
        value, env_name = getattr(args, name), ENV_PREFIX + name.upper()
        if value is None and env_name in os.environ:
            value = _cast(cast, os.environ[env_name], env_name)
        elif value is None and name in file_values:
            lineno, text = file_values[name]
            value = _cast(cast, text, f"{args.config}:{lineno}")
        if value is not None and name in matching_mod.OPTION_BOUNDS:
            matching_mod.check_options(**{name: value})
        spec[name] = value
    return argparse.Namespace(**spec)


def _given(opts: argparse.Namespace, **params: str) -> dict:
    """``{parameter: value}`` of each option ``params`` names that is set; the
    library's own default holds for the rest."""
    return {
        param: getattr(opts, name)
        for param, name in params.items()
        if getattr(opts, name, None) is not None
    }


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


_SYNTH_OPTIONS = {"n_groups": "groups", "n_benign": "benign", "n_nonevading_malicious": "malicious"}


def _synth_config(opts) -> SynthConfig:
    """The generator's config of ``opts``, checked."""
    config = SynthConfig(**_given(
        opts, **{f.name: _SYNTH_OPTIONS.get(f.name, f.name) for f in fields(SynthConfig)}
    ))
    config.validate()
    return config


def _text_resources(opts) -> dict:
    """The lexicons and embedding provider that ``opts`` names, as ``Digests`` keywords."""
    from . import textstats as textstats_mod

    loaders = {
        "lexicon": textstats_mod.load_lexicon,
        "sentiment_lexicon": textstats_mod.load_sentiment_lexicon,
        "provider": textstats_mod.get_provider,
    }
    given = _given(opts, lexicon="lexicon", sentiment_lexicon="sentiment_lexicon",
                   provider="embedding_provider")
    return {k: loaders[k](v) for k, v in given.items()}


def _train_config(opts) -> TrainConfig:
    from .model import TrainConfig

    return TrainConfig(**_given(opts, l2_lambda="l2", max_epochs="max_epochs"))


def _harness_options(opts, **params: str) -> dict:
    """The ``train_config``, and where set ``train_fraction`` and the options
    ``params`` names, of a task or ranking run."""
    return {"train_config": _train_config(opts),
            **_given(opts, train_fraction="train_fraction", **params)}


def _load_corpus(opts, keep_revisions: bool = True):
    if not (opts.accounts and opts.revisions and opts.records):
        raise BanEvasionError("--accounts, --revisions, and --records are required")
    return corpus_mod.load_corpus(opts.accounts, opts.revisions, opts.records, keep_revisions)


def _match_options(opts) -> dict:
    """``Task.match``'s window, cap and seed, where ``opts`` sets them."""
    given = _given(opts, cap="cap", seed="seed")
    if opts.window_days is not None:
        given["window_seconds"] = int(opts.window_days * corpus_mod.DAY_SECONDS)
    return given


def _extract(corpus):
    groups = pairing_mod.merge_groups(corpus)
    all_pairs = pairing_mod.extract_evasion_pairs(groups, corpus)
    return groups, all_pairs, pairing_mod.first_pair_per_group(all_pairs, corpus)


def _pairs_from_file_or_corpus(opts, corpus):
    """The ``--pairs`` file as given (each pair checked against the corpus),
    or else the first extracted pair per group."""
    if opts.pairs:
        return corpus_mod.load_pairs(opts.pairs, corpus)
    return _extract(corpus)[2]


# ---------------------------------------------------------------------------
# subcommands


def _corpus_paths(out_dir: Path) -> list[Path]:
    """The accounts, revisions and records files of a corpus directory, created."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return [out_dir / f"{name}.jsonl" for name in ("accounts", "revisions", "records")]


def cmd_generate(opts) -> int:
    synth = _synth_config(opts)
    out_dir = Path(opts.out_dir)
    # each account is written as it is drawn: the corpus is never held whole
    counts = corpus_mod.write_synthetic(
        synth, *_corpus_paths(out_dir), out_dir / "truth_pairs.jsonl"
    )
    print("generated {} accounts, {} revisions, {} records, {} true pairs -> {}".format(
        *counts, out_dir
    ))
    return 0


def cmd_ingest(opts) -> int:
    corpus = _load_corpus(opts, keep_revisions=bool(opts.out_dir))
    if opts.out_dir:
        corpus_mod.save_corpus(corpus, *_corpus_paths(Path(opts.out_dir)))
    print(
        f"accounts={len(corpus.accounts)} revisions={sum(corpus.revision_counts.values())} "
        f"records={len(corpus.sockpuppet_records)}"
    )
    return 0


def cmd_extract_pairs(opts) -> int:
    corpus = _load_corpus(opts, keep_revisions=False)
    groups, all_pairs, first_pairs = _extract(corpus)
    out_dir = Path(opts.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_mod.save_groups(groups, out_dir / "groups.jsonl")
    corpus_mod.save_pairs(all_pairs, out_dir / "all_pairs.jsonl")
    corpus_mod.save_pairs(first_pairs, out_dir / "evasion_pairs.jsonl")
    print(
        f"groups={len(groups)} pairs={len(all_pairs)} first_pairs={len(first_pairs)}"
    )
    return 0


def cmd_match(opts) -> int:
    task = matching_mod.TASKS[opts.task]
    match_options = _match_options(opts)
    corpus = _load_corpus(opts, keep_revisions=False)
    samples = task.match(corpus, _pairs_from_file_or_corpus(opts, corpus), **match_options)
    count = matching_mod.write_samples(samples, opts.out)
    print(f"wrote {count} samples -> {opts.out}")
    return 0


def cmd_featurize(opts) -> int:
    from .evaluation import sample_matrix
    from .features import Digests, write_feature_matrix

    task = matching_mod.TASKS[opts.task]
    resources = _text_resources(opts)
    corpus = _load_corpus(opts)
    path = opts.samples
    samples = matching_mod.read_samples(path)
    for lineno, s in enumerate(samples, start=1):
        if s.task != task.name:
            reason = f"task {s.task!r} does not match --task {task.number} ({task.name})"
            raise RecordParseError(path, lineno, reason)
    # a file of another task is named as such before any of its ids; a pair
    # task's row needs its parent's ban, as an evasion pair does
    for lineno, s in enumerate(samples, start=1):
        for account_id, role in ((s.parent_id, "sample parent"), (s.other_id, "sample other")):
            if account_id not in corpus.accounts_by_id:
                raise ReferentialIntegrityError(account_id, role, path, lineno)
        if task.name != matching_mod.TASK1 and corpus.account(s.parent_id).ban_time is None:
            raise RecordParseError(path, lineno, f"parent {s.parent_id!r} was never banned")
    # the rows in ``temporal_order``, as ``evaluate`` fits them: ``train --rfe``
    # holds out the trailing rows, the latest anchors, to choose its features
    ordered, names, X, labels = sample_matrix(
        task, samples, Digests(corpus, **resources), **_given(opts, k_edits="k_edits")
    )
    ids = [f"{s.parent_id}|{s.other_id}" for s in ordered]
    write_feature_matrix(opts.out, ids, labels, names, X)
    print(f"wrote {len(X)} rows -> {opts.out}")
    return 0


def cmd_train(opts) -> int:
    from .features import read_feature_matrix
    from .model import rfe, save_model, train

    config = _train_config(opts)
    _, labels, names, X = read_feature_matrix(opts.features)
    if opts.rfe:
        fitted, _ = rfe(X, labels, config, feature_names=names)
        log.info("rfe selected %d/%d features", len(fitted.feature_names), len(names))
    else:
        fitted = train(X, labels, config, names)
    save_model(fitted, opts.out)
    print(f"wrote model ({len(fitted.feature_names)} features) -> {opts.out}")
    return 0


def cmd_evaluate(opts) -> int:
    from .evaluation import run_task, write_report
    from .features import Digests
    from .model import save_model

    task = matching_mod.TASKS[opts.task]
    match_options = _match_options(opts)
    task_options = _harness_options(opts, k_edits="k_edits", use_rfe="rfe")
    resources = _text_resources(opts)
    corpus = _load_corpus(opts)
    samples = list(task.match(corpus, _pairs_from_file_or_corpus(opts, corpus), **match_options))
    report, fitted = run_task(task, samples, Digests(corpus, **resources), **task_options)
    out_dir = Path(opts.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"task{task.number}"
    save_model(fitted, out_dir / f"{name}_model.json")
    write_report(report, out_dir / f"{name}_report.json", out_dir / f"{name}_report.txt")
    print(f"{name} auc={report['auc']:.4f} -> {out_dir}")
    return 0


def cmd_rank(opts) -> int:
    from .evaluation import run_ranking, write_report
    from .features import Digests
    from .model import save_model

    ranking_options = _harness_options(opts, max_candidates="max_candidates")
    resources = _text_resources(opts)
    corpus = _load_corpus(opts)
    pairs = _pairs_from_file_or_corpus(opts, corpus)
    report, fitted = run_ranking(Digests(corpus, **resources), pairs, **ranking_options)
    out_dir = Path(opts.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(fitted, out_dir / "ranking_model.json")
    write_report(report, out_dir / "ranking_report.json", out_dir / "ranking_report.txt")
    print(f"ranking mrr={report['mrr']:.4f} -> {out_dir}")
    return 0


def cmd_analyze(opts) -> int:
    from .analysis import characterize, write_analysis
    from .features import Digests

    match_options = _match_options(opts)
    resources = _text_resources(opts)
    corpus = _load_corpus(opts)
    pairs = _pairs_from_file_or_corpus(opts, corpus)
    task1, task3 = (list(matching_mod.TASKS[n].match(corpus, pairs, **match_options))
                    for n in "13")
    report = characterize(Digests(corpus, **resources), pairs, task1, task3,
                          **_given(opts, outlier_days="outlier_days"))
    out_dir = Path(opts.out_dir)
    write_analysis(report, out_dir)
    print(f"analysis -> {out_dir}")
    return 0


def cmd_reproduce(opts) -> int:
    from .analysis import characterize, write_analysis
    from .evaluation import run_ranking, run_task, write_report
    from .features import Digests
    from .model import save_model

    out_dir = Path(opts.out_dir)
    # every library input is built and every option checked before anything is written
    synth = _synth_config(opts)
    resources = _text_resources(opts)
    match_options = _match_options(opts)
    task_options = _harness_options(opts, k_edits="k_edits", use_rfe="rfe")
    ranking_options = _harness_options(opts, max_candidates="max_candidates")
    analysis_options = _given(opts, outlier_days="outlier_days")

    with _stage("generate"):
        result = corpus_mod.generate_synthetic(synth)
        corpus = result.corpus
        corpus_mod.save_corpus(corpus, *_corpus_paths(out_dir / "corpus"))
        corpus_mod.save_pairs(result.true_pairs, out_dir / "corpus" / "truth_pairs.jsonl")

    with _stage("extract-pairs"):
        groups, all_pairs, pairs = _extract(corpus)
        pairs_dir = out_dir / "pairs"
        pairs_dir.mkdir(parents=True, exist_ok=True)
        corpus_mod.save_pairs(all_pairs, pairs_dir / "all_pairs.jsonl")
        corpus_mod.save_pairs(pairs, pairs_dir / "evasion_pairs.jsonl")

    report: dict = {
        "seed": synth.seed,
        "synth_config": {k: v for k, v in asdict(synth).items() if k != "seed"},
        "corpus": {
            "accounts": len(corpus.accounts),
            "revisions": sum(corpus.revision_counts.values()),
            "records": len(corpus.sockpuppet_records),
        },
        "pairing": {
            "groups": len(groups),
            "pairs": len(all_pairs),
            "first_pairs": len(pairs),
        },
    }

    digests = Digests(corpus, **resources)
    models_dir = out_dir / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    # each task is matched once; analyze reuses the task-1 and task-3 samples
    samples = {}
    for task in matching_mod.TASKS.values():
        name = f"task{task.number}"
        with _stage(f"evaluate-{name}"):
            samples[task.number] = list(task.match(corpus, pairs, **match_options))
            report[name], fitted = run_task(task, samples[task.number], digests, **task_options)
            save_model(fitted, models_dir / f"{name}_model.json")

    with _stage("rank"):
        report["ranking"], rank_model = run_ranking(digests, pairs, **ranking_options)
        save_model(rank_model, models_dir / "ranking_model.json")

    with _stage("analyze"):
        analysis_report = characterize(digests, pairs, samples["1"], samples["3"],
                                       **analysis_options)
        write_analysis(analysis_report, out_dir / "reports")

    with _stage("report"):
        write_report(report, out_dir / "report.json", out_dir / "report.txt")
    print(
        "reproduce done: "
        f"task1={report['task1']['auc']:.4f} "
        f"task2={report['task2']['auc']:.4f} "
        f"task3={report['task3']['auc']:.4f} "
        f"mrr={report['ranking']['mrr']:.4f} -> {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# the option table

# Every option, declared once as ``name: (type, help)``: the flag is ``--name``
# with ``-`` for ``_``, the environment variable ``BANEVASION_NAME`` and the
# config key ``name``. A ``bool`` option is a switch, read by ``_as_bool`` from
# the environment or a config file; ``TASKS`` takes its keys.
OPTIONS = {
    "config": (str, "flat key = value config file"),
    "seed": (int, "seed of the generator and of task-2 cap sampling"),
    "groups": (int, "sockpuppet groups to generate"),
    "benign": (int, "benign accounts to generate"),
    "malicious": (int, "banned accounts that do not evade"),
    "evasion_rate": (float, "share of groups whose child is created after the parent's ban"),
    "username_mutation_rate": (float, "chance that a child's username changes each character"),
    "page_overlap": (float, "how much a child edits its parent's pages"),
    "vocab_reuse": (float, "how much a child reuses its parent's words"),
    "idle_gap_days": (float, "mean days between a parent's ban and its child's creation"),
    "activity_contrast": (float, "how far evaders' activity departs from the baseline"),
    "malicious_text_rate": (float, "rate of flagged words in malicious accounts' text"),
    "accounts": (str, "accounts file (JSON lines)"),
    "revisions": (str, "revisions file (JSON lines)"),
    "records": (str, "sockpuppet records file (JSON lines)"),
    "lexicon": (str, "category lexicon file (default: built-in)"),
    "sentiment_lexicon": (str, "sentiment lexicon file (default: built-in)"),
    "embedding_provider": (str, "'trigram' or 'file:/path' (default: trigram)"),
    "l2": (float, "L2 penalty weight"),
    "max_epochs": (int, "cap on the Newton steps of a fit"),
    "rfe": (bool, "select features by recursive elimination before the final fit"),
    "task": (matching_mod.TASKS, "1 prediction, 2 early detection or 3 ban-time detection"),
    "pairs": (str, "evasion pairs file (default: the first extracted pair per group)"),
    "out": (str, "output file"),
    "out_dir": (str, "output directory"),
    "samples": (str, "matched samples file"),
    "features": (str, "feature matrix file"),
    "train_fraction": (float, "share of parents, earliest first, that the model trains on"),
    "window_days": (float, "days from the anchor time within which controls match"),
    "cap": (int, "most task-2 negatives per pair"),
    "k_edits": (int, "first revisions of the other account that task 2 reads"),
    "max_candidates": (int, "candidate parents ranked per child"),
    "outlier_days": (float, "analysis gaps longer than this many days are left out"),
}

_CORPUS = ("accounts", "revisions", "records")
_SYNTH = ("groups", "benign", "malicious", "evasion_rate", "username_mutation_rate",
          "page_overlap", "vocab_reuse", "idle_gap_days", "activity_contrast",
          "malicious_text_rate")
_TEXT = ("lexicon", "sentiment_lexicon", "embedding_provider")
_MODEL = ("l2", "max_epochs")

# Each command as ``name: (summary, function, options)``, its options in the
# order ``resolve`` casts them; a trailing ``!`` marks a required one.
COMMANDS = {
    "generate": ("write a seeded synthetic corpus", cmd_generate, ("seed", *_SYNTH, "out_dir!")),
    "ingest": ("validate corpus files and report counts", cmd_ingest, (*_CORPUS, "out_dir")),
    "extract-pairs": ("merge groups and extract evasion pairs", cmd_extract_pairs,
                      (*_CORPUS, "out_dir!")),
    "match": ("build matched negative samples for one task", cmd_match,
              ("seed", *_CORPUS, "task!", "pairs", "out!", "window_days", "cap")),
    "featurize": ("turn samples into a feature matrix", cmd_featurize,
                  (*_CORPUS, *_TEXT, "task!", "samples!", "out!", "k_edits")),
    "train": ("fit the classifier on a feature matrix", cmd_train,
              (*_MODEL, "rfe", "features!", "out!")),
    "evaluate": ("run one task harness end to end", cmd_evaluate,
                 ("seed", *_CORPUS, *_TEXT, *_MODEL, "rfe", "task!", "pairs", "out_dir!",
                  "train_fraction", "window_days", "cap", "k_edits")),
    "rank": ("parent attribution ranking harness", cmd_rank,
             (*_CORPUS, *_TEXT, *_MODEL, "pairs", "out_dir!", "train_fraction",
              "max_candidates")),
    "analyze": ("descriptive characterization report", cmd_analyze,
                (*_CORPUS, *_TEXT, "pairs", "out_dir!", "window_days", "outlier_days")),
    "reproduce": ("full pipeline on a synthetic corpus", cmd_reproduce,
                  ("seed", *_SYNTH, *_TEXT, *_MODEL, "rfe", "out_dir!", "train_fraction",
                   "max_candidates", "k_edits", "cap", "window_days", "outlier_days")),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of ``COMMANDS``. A --config file may set any option, even one
    the running command ignores, so one file can serve every stage."""
    parser = argparse.ArgumentParser(
        prog="banevasion",
        description="Pair, detect, and attribute ban-evasion accounts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, func, names) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        casts = {}
        for entry in ("config", *names):
            name = entry.rstrip("!")
            kind, text = OPTIONS[name]
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                casts[name] = _as_bool
                p.add_argument(flag, action="store_true", default=None, help=text)
            else:
                choices = list(kind) if isinstance(kind, dict) else None
                casts[name] = str if choices else kind
                p.add_argument(flag, type=casts[name], choices=choices,
                               required=entry.endswith("!"), help=text)
        del casts["config"]
        p.set_defaults(func=func, options=casts)
    parser.set_defaults(config_keys=frozenset(OPTIONS) - {"config"})
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _stage(args.command):
            return args.func(resolve(args))
    except BanEvasionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
