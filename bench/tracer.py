"""Run one ``banevasion`` CLI command in-process with every layer traced.

Usage::

    python3 bench/tracer.py --stats STATS.json --spans SPANS.jsonl -- <cli args>

The tracer wraps the public functions of the package's layers from
outside: each name is replaced in every ``banevasion`` module that holds
it (``features`` imports ``tokenize`` by name, so wrapping
``textstats.tokenize`` alone would miss those calls), and methods are
wrapped on their class. No program file is changed. A name that no
longer exists is reported as absent.

Each call of a spanned function records a span (name, start, end, parent
span) in memory; the spans are written out when the command ends. The
hot leaf functions (``LEAVES``) run hundreds of thousands of times per
command, so they are aggregated into counters instead of spans; their
time is still subtracted from the enclosing span's self time.

The stats file holds, per traced name: calls, inclusive seconds, self
seconds and, where a key is defined, the number of distinct inputs; plus
the computed work counts in ``COUNTS``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

# Traced names, as "<module>.<name>" or "<module>.<Class>.<method>".
TRACED = (
    "cli.main",
    "corpus.generate_synthetic",
    "corpus.save_corpus",
    "corpus.load_corpus",
    "corpus.save_pairs",
    "corpus.load_pairs",
    "pairing.merge_groups",
    "pairing.extract_evasion_pairs",
    "pairing.first_pair_per_group",
    "matching.prepare_malicious_pool",
    "matching.prepare_benign_pool",
    "matching.match_task1",
    "matching.match_task2",
    "matching.match_task3",
    "matching.build_candidate_sets",
    "matching.write_account_samples",
    "matching.write_pair_samples",
    "matching.read_account_samples",
    "matching.read_pair_samples",
    "textstats.tokenize",
    "textstats.liwc_profile",
    "textstats.Lexicon.categories_of",
    "textstats.embed",
    "textstats.HashedTrigramProvider.embed_text",
    "textstats.ExternalVectorProvider.embed_text",
    "textstats.sentiment",
    "textstats.normalized_levenshtein",
    "textstats.builtin_lexicon",
    "textstats.builtin_sentiment_lexicon",
    "features.pair_features",
    "features.account_features",
    "features.write_feature_matrix",
    "features.read_feature_matrix",
    "model.train",
    "model.loss_and_gradient",
    "model.rfe",
    "model.save_model",
    "evaluation.run_task1",
    "evaluation.run_task2",
    "evaluation.run_task3",
    "evaluation.run_ranking",
    "evaluation.rank_candidates",
    "evaluation.roc_auc",
    "evaluation.write_report",
    "analysis.characterize",
    "analysis.welch_test",
    "analysis.write_tables",
)

# Both embedding providers report under one name.
ALIASES = {
    "textstats.HashedTrigramProvider.embed_text": "textstats.embed_text",
    "textstats.ExternalVectorProvider.embed_text": "textstats.embed_text",
}

LEAVES = frozenset({
    "textstats.tokenize",
    "textstats.Lexicon.categories_of",
    "textstats.embed_text",
    "textstats.sentiment",
    "textstats.normalized_levenshtein",
    "model.loss_and_gradient",
})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Distinct-input keys: the input a cache in that layer would be keyed on.
DISTINCT = {
    "textstats.tokenize": lambda a, k: hash(_arg(a, k, 0, "text")),
    "textstats.Lexicon.categories_of": lambda a, k: _arg(a, k, 1, "token"),
    "textstats.embed_text": lambda a, k: hash(_arg(a, k, 1, "text")),
}

# Computed work counts: derived from arguments, results and file sizes.
COUNTS = (
    "corpus.bytes_read",
    "corpus.bytes_written",
    "matching.pool_comparisons",
    "matching.samples",
    "matching.candidate_scans",
    "matching.candidate_sets",
    "matching.candidates",
    "features.account_sides",
    "features.account_sides.distinct",
)


def _file_bytes(args, kwargs) -> int:
    total = 0
    for value in (*args, *kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
            total += os.path.getsize(value)
    return total


def _count_read(tracer, args, kwargs, result):
    tracer.counts["corpus.bytes_read"] += _file_bytes(args, kwargs)


def _count_written(tracer, args, kwargs, result):
    tracer.counts["corpus.bytes_written"] += _file_bytes(args, kwargs)


def _count_match(tracer, args, kwargs, result):
    # anchors (parents or pairs) x pool: every anchor scans the whole pool
    tracer.counts["matching.pool_comparisons"] += len(args[0]) * len(args[1])
    tracer.counts["matching.samples"] += len(result)


def _count_candidates(tracer, args, kwargs, result):
    # children x banned parents: every child filters the whole parent list
    tracer.counts["matching.candidate_scans"] += len(args[0]) * len(args[1])
    tracer.counts["matching.candidate_sets"] += len(result)
    tracer.counts["matching.candidates"] += sum(len(s.candidate_parent_ids) for s in result)


def _count_sides(tracer, args, kwargs, result):
    # the parent side uses all its edits, the other side its first k_limit
    parent, other, config = args[0], args[2], args[4]
    tracer.side_keys.add((parent.account_id, None))
    tracer.side_keys.add((other.account_id, config.k_limit))
    tracer.counts["features.account_sides"] += 2
    tracer.counts["features.account_sides.distinct"] = len(tracer.side_keys)


AFTER = {
    "corpus.load_corpus": _count_read,
    "corpus.load_pairs": _count_read,
    "corpus.save_corpus": _count_written,
    "corpus.save_pairs": _count_written,
    "matching.match_task1": _count_match,
    "matching.match_task2": _count_match,
    "matching.match_task3": _count_match,
    "matching.build_candidate_sets": _count_candidates,
    "features.pair_features": _count_sides,
}

# A counter whose function's arguments changed shape is skipped, not fatal.
COUNTER_ERRORS = (IndexError, KeyError, TypeError, AttributeError)


class Tracer:
    """In-memory span recorder with per-name aggregates and work counts."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[list] = []  # open spans: [start, child_seconds, span_index]
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self_seconds]
        self.distinct: dict[str, set] = {}
        self.side_keys: set = set()
        self.counts = dict.fromkeys(COUNTS, 0)
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self.depth: dict[str, int] = {}

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        uncounted = self.uncounted
        key_of = DISTINCT.get(name)
        seen = self.distinct.setdefault(name, set()) if key_of else None

        if name in LEAVES:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed
                    if stack:
                        stack[-1][1] += elapsed
                    if key_of is not None:
                        try:
                            seen.add(key_of(args, kwargs))
                        except COUNTER_ERRORS:
                            uncounted.add(name)

            return leaf

        spans = self.spans
        depth = self.depth
        after = AFTER.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            outermost = not depth.get(name)
            depth[name] = depth.get(name, 0) + 1
            frame = [clock(), 0.0, len(spans)]
            spans.append(None)  # reserved so children can name this span as parent
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                elapsed = end - frame[0]
                spans[frame[2]] = (name, frame[0], end, parent)
                stat[0] += 1
                if outermost:
                    stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                try:
                    after(self, args, kwargs, result)
                except COUNTER_ERRORS:
                    uncounted.add(name)
            return result

        return spanned

    def install(self, package: str = "banevasion") -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for traced in TRACED:
            module_name, *path = traced.split(".")
            try:
                owner = importlib.import_module(f"{package}.{module_name}")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.absent.append(traced)
                continue
            wrapper = self.wrap(ALIASES.get(traced, traced), original)
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def report(self) -> dict:
        return {
            "absent": self.absent,
            "uncounted": sorted(self.uncounted),
            "layers": {
                name: {
                    "calls": calls,
                    "s": seconds,
                    "self_s": self_seconds,
                    **({"distinct": len(self.distinct[name])} if name in self.distinct else {}),
                }
                for name, (calls, seconds, self_seconds) in sorted(self.stats.items())
            },
            "counts": self.counts,
        }

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, help="aggregate JSON output")
    parser.add_argument("--spans", required=True, help="span JSON-lines output")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from banevasion import cli

    tracer = Tracer()
    tracer.install()
    exit_code = cli.main(cli_args)
    tracer.write_spans(Path(args.spans))
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(), fh, indent=1, sort_keys=True)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
