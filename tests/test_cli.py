from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import banevasion
from banevasion import corpus as corpus_mod
from banevasion import features as features_mod
from banevasion import matching as matching_mod
from banevasion import pairing as pairing_mod
from banevasion.cli import COMMANDS, build_parser, main
from banevasion.corpus import DAY_SECONDS, WEEK_SECONDS, SynthConfig, load_corpus
from banevasion.evaluation import temporal_order
from banevasion.matching import OPTION_BOUNDS, TASKS, write_samples
from banevasion.model import load_model, model_bytes
from banevasion.pairing import extract_evasion_pairs, first_pair_per_group, merge_groups
from banevasion.textstats import text_hash

from conftest import account, corpus_of, record


def tree_digest(root: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


GEN_FLAGS = ["--groups", "8", "--benign", "40", "--malicious", "20"]

# one out-of-range value per bounded CLI option, for each (command, option)
# pair that ``COMMANDS`` and ``OPTION_BOUNDS`` give
BAD_VALUES = {"cap": "0", "k_edits": "0", "max_candidates": "0", "train_fraction": "1",
              "outlier_days": "nan", "window_days": "nan"}
BOUNDED_OPTIONS = [
    (command, name)
    for command, (_, _, entries) in COMMANDS.items()
    for name in (entry.rstrip("!") for entry in entries)
    if name in OPTION_BOUNDS
]


class TestGenerate:
    def test_twice_identical_trees(self, tmp_path):
        for name in ("one", "two"):
            assert main(["generate", "--out-dir", str(tmp_path / name), "--seed", "7", *GEN_FLAGS]) == 0
        assert tree_digest(tmp_path / "one") == tree_digest(tmp_path / "two")

    def test_seed_changes_tree(self, tmp_path):
        main(["generate", "--out-dir", str(tmp_path / "a"), "--seed", "1", *GEN_FLAGS])
        main(["generate", "--out-dir", str(tmp_path / "b"), "--seed", "2", *GEN_FLAGS])
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")

    def test_env_var_supplies_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BANEVASION_SEED", "7")
        main(["generate", "--out-dir", str(tmp_path / "env"), *GEN_FLAGS])
        monkeypatch.delenv("BANEVASION_SEED")
        main(["generate", "--out-dir", str(tmp_path / "flag"), "--seed", "7", *GEN_FLAGS])
        assert tree_digest(tmp_path / "env") == tree_digest(tmp_path / "flag")

    def test_flag_beats_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seed = 1\ngroups = 8\nbenign = 40\nmalicious = 20\n")
        main(["generate", "--out-dir", str(tmp_path / "cfg"), "--config", str(config), "--seed", "7"])
        main(["generate", "--out-dir", str(tmp_path / "flag"), "--seed", "7", *GEN_FLAGS])
        assert tree_digest(tmp_path / "cfg") == tree_digest(tmp_path / "flag")

    def test_defaults_are_synth_config_defaults(self, tmp_path):
        assert main(["generate", "--out-dir", str(tmp_path / "cli")]) == 0
        result = corpus_mod.generate_synthetic(SynthConfig())
        library = tmp_path / "library"
        library.mkdir()
        corpus_mod.save_corpus(
            result.corpus, *(library / f"{n}.jsonl" for n in ("accounts", "revisions", "records"))
        )
        corpus_mod.save_pairs(result.true_pairs, library / "truth_pairs.jsonl")
        assert tree_digest(tmp_path / "cli") == tree_digest(library)

    def test_generate_builds_no_corpus(self, tmp_path, monkeypatch):
        def refused(*args):
            raise AssertionError("a Corpus was built")

        monkeypatch.setattr(corpus_mod.Corpus, "__post_init__", refused)
        assert main(["generate", "--out-dir", str(tmp_path), "--seed", "7", *GEN_FLAGS]) == 0
        assert (tmp_path / "revisions.jsonl").stat().st_size > 0

    def test_too_many_accounts_rejected_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["generate", "--benign", "1000000", "--out-dir", str(out)]) == 1
        assert "invalid config field 'n_benign'" in capsys.readouterr().err
        assert not out.exists()


class TestRepeatedParent:
    def test_match_task1_counts_a_parent_named_twice_once(self, tmp_path):
        corpus_dir, pairs_dir = tmp_path / "corpus", tmp_path / "pairs"
        assert main(["generate", "--out-dir", str(corpus_dir), "--seed", "7"]) == 0
        names = ("accounts", "revisions", "records")
        flags = [f for n in names for f in (f"--{n}", str(corpus_dir / f"{n}.jsonl"))]
        assert main(["extract-pairs", *flags, "--out-dir", str(pairs_dir)]) == 0

        # a second pair for the first parent, to an account no pair names
        extracted = pairs_dir / "evasion_pairs.jsonl"
        lines = extracted.read_text().splitlines()
        parent_id = json.loads(lines[0])["parent_id"]
        named = {v for line in lines for k, v in json.loads(line).items() if k != "group_id"}
        corpus = load_corpus(*(corpus_dir / f"{n}.jsonl" for n in names))
        ban = corpus.account(parent_id).ban_time
        child_id = next(
            a.account_id for a in corpus.accounts
            if a.creation_time > ban and a.account_id not in named
        )
        repeated = tmp_path / "repeated.jsonl"
        extra = json.dumps({"parent_id": parent_id, "child_id": child_id})
        repeated.write_text("\n".join([*lines, extra]) + "\n")

        for name, path in (("once", extracted), ("repeated", repeated)):
            out = tmp_path / f"{name}.tsv"
            assert main(["match", "--task", "1", *flags, "--pairs", str(path), "--out", str(out)]) == 0
        once = (tmp_path / "once.tsv").read_bytes()
        assert once.count(f"\t{parent_id}\t{parent_id}\tpositive\n".encode()) == 1
        assert (tmp_path / "repeated.tsv").read_bytes() == once


class TestUsageErrors:
    def test_unknown_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--no-such-flag"])
        assert exc.value.code != 0

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0

    def test_missing_required_inputs(self, tmp_path):
        assert main(["extract-pairs", "--out-dir", str(tmp_path)]) == 1

    @staticmethod
    def missing_corpus(tmp_path):
        return [f for n in ("accounts", "revisions", "records")
                for f in (f"--{n}", str(tmp_path / "missing" / f"{n}.jsonl"))]

    @pytest.mark.parametrize(
        "command, flags, name",
        [
            ("analyze", ["--outlier-days", "-5"], "outlier_days"),
            ("analyze", ["--window-days", "-1"], "window_days"),
            ("evaluate", ["--task", "1", "--train-fraction", "1"], "train_fraction"),
            ("evaluate", ["--task", "1", "--l2", "nan"], "l2"),
            ("evaluate", ["--task", "2", "--cap", "0"], "cap"),
            ("rank", ["--max-candidates", "0"], "max_candidates"),
            ("rank", ["--embedding-provider", "bogus"], "embedding_provider"),
            ("featurize", ["--task", "2", "--k-edits", "0"], "k_edits"),
            ("match", ["--task", "2", "--cap", "0"], "cap"),
            ("match", ["--task", "1", "--window-days", "-1"], "window_days"),
        ],
        ids=["analyze-outlier_days", "analyze-window_days", "evaluate-train_fraction",
             "evaluate-l2", "evaluate-cap", "rank-max_candidates", "rank-embedding_provider",
             "featurize-k_edits", "match-cap", "match-window_days"],
    )
    def test_bad_option_rejected_before_any_input_is_read(
        self, tmp_path, capsys, command, flags, name
    ):
        out = str(tmp_path / "out")
        outputs = {
            "match": ["--out", out],
            "featurize": ["--samples", str(tmp_path / "missing" / "samples.tsv"), "--out", out],
        }.get(command, ["--out-dir", out])
        assert main([command, *self.missing_corpus(tmp_path), *flags, *outputs]) == 1
        err = capsys.readouterr().err
        assert f"invalid config field '{name}" in err
        assert "No such file" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, name", BOUNDED_OPTIONS, ids=[f"{c}-{n}" for c, n in BOUNDED_OPTIONS]
    )
    def test_every_bounded_option_rejected_before_any_input_is_read(
        self, tmp_path, capsys, command, name
    ):
        out = tmp_path / "out"
        paths = {"out": out, "out_dir": out, "samples": tmp_path / "missing" / "samples.tsv"}
        argv = [command, "--" + name.replace("_", "-"), BAD_VALUES[name]]
        for entry in COMMANDS[command][2]:
            option = entry.rstrip("!")
            if option == "accounts":
                argv += self.missing_corpus(tmp_path)
            elif option == "task":
                argv += ["--task", "2" if name in ("cap", "k_edits") else "1"]
            elif option in paths:
                argv += ["--" + option.replace("_", "-"), str(paths[option])]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"invalid config field '{name}'" in err
        assert "No such file" not in err
        assert not out.exists()

    def test_count_from_environment_checked_where_its_task_ignores_it(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("BANEVASION_CAP", "0")
        out = tmp_path / "out.tsv"
        flags = [*self.missing_corpus(tmp_path), "--task", "1", "--out", str(out)]
        assert main(["match", *flags]) == 1
        assert "invalid config field 'cap': must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_corpus_file_is_pipeline_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code = main([
            "ingest", "--accounts", str(bad), "--revisions", str(bad), "--records", str(bad),
        ])
        assert code == 1
        assert "ingest" in capsys.readouterr().err

    def test_config_line_without_equals_names_file_and_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("seed = 1\ngroups 8\n")
        code = main(["generate", "--out-dir", str(tmp_path / "out"), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: stage 'generate' failed: {config}:2: expected key = value" in err

    @pytest.mark.parametrize("key", ["l2_lamda", "learning_rate", "all_rounds"])
    def test_config_key_no_command_reads_names_file_and_line(self, tmp_path, capsys, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"seed = 1\n\n{key} = 5\n")
        code = main(["generate", "--out-dir", str(tmp_path / "out"), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: stage 'generate' failed: {config}:3: no command reads key '{key}'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("second", ["seed = 2", "seed=1"])
    def test_config_key_set_twice_names_both_lines(self, tmp_path, capsys, second):
        config = tmp_path / "run.cfg"
        config.write_text(f"seed = 1\n\n{second}\n")
        code = main(["generate", "--out-dir", str(tmp_path / "out"), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"failed: {config}:3: key 'seed' already set at line 1" in err
        assert not (tmp_path / "out").exists()

    def test_config_key_of_another_command_accepted(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("l2 = 5\nwindow-days = 3\n")
        main(["generate", "--out-dir", str(tmp_path / "cfg"), "--config", str(config),
              "--seed", "7", *GEN_FLAGS])
        main(["generate", "--out-dir", str(tmp_path / "flag"), "--seed", "7", *GEN_FLAGS])
        assert tree_digest(tmp_path / "cfg") == tree_digest(tmp_path / "flag")

    def test_bad_environment_value_names_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BANEVASION_SEED", "abc")
        assert main(["generate", "--out-dir", str(tmp_path / "out"), *GEN_FLAGS]) == 1
        err = capsys.readouterr().err
        assert "error: stage 'generate' failed: BANEVASION_SEED: invalid literal for int()" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, line", [("generate", "seed = x"), ("train", "rfe = maybe")], ids=["seed", "rfe"]
    )
    def test_bad_config_value_names_file_and_line(self, tmp_path, capsys, command, line):
        config = tmp_path / "run.cfg"
        config.write_text(f"{line}\n")
        args = {
            "generate": ["--out-dir", str(tmp_path / "out")],
            "train": ["--features", str(tmp_path / "f.tsv"), "--out", str(tmp_path / "m.json")],
        }[command]
        assert main([command, *args, "--config", str(config)]) == 1
        assert f"error: stage '{command}' failed: {config}:1: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, required", [
        ("ingest", []),
        ("extract-pairs", ["--out-dir", "out"]),
        ("featurize", ["--task", "1", "--samples", "s.tsv", "--out", "f.tsv"]),
        ("train", ["--features", "f.tsv", "--out", "m.json"]),
        ("rank", ["--out-dir", "out"]),
        ("analyze", ["--out-dir", "out"]),
    ])
    def test_seed_refused_where_nothing_reads_it(self, capsys, command, required):
        with pytest.raises(SystemExit) as exc:
            main([command, *required, "--seed", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    def test_rank_rfe_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--out-dir", str(tmp_path), "--rfe"])
        assert exc.value.code == 2

    def test_learning_rate_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--features", str(tmp_path / "f.tsv"), "--out", str(tmp_path / "m.json"),
                  "--learning-rate", "0.1"])
        assert exc.value.code != 0

    def test_missing_config_file_is_stage_error(self, tmp_path, capsys):
        config = tmp_path / "absent.cfg"
        code = main(["generate", "--out-dir", str(tmp_path / "out"), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: stage 'generate' failed:" in err
        assert str(config) in err

    def test_train_on_corrupt_matrix_names_file_and_line(self, tmp_path, capsys):
        features = tmp_path / "features.tsv"
        features.write_text("sample_id\tlabel\tf1\ns1\t1\t0.5\ns2\t0\n")
        code = main(["train", "--features", str(features), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert f"error: stage 'train' failed: {features}:3: " in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_train_on_non_finite_matrix_names_file_and_line(self, tmp_path, capsys, value):
        features = tmp_path / "features.tsv"
        features.write_text(f"sample_id\tlabel\tf1\ns1\t1\t0.5\ns2\t0\t{value}\n")
        code = main(["train", "--features", str(features), "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: stage 'train' failed: {features}:3: f1 is not finite" in err

    def test_interrupt_in_stage_propagates(self, tmp_path, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(corpus_mod, "write_synthetic", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["generate", "--out-dir", str(tmp_path), *GEN_FLAGS])


# Each command's options in the order ``resolve`` casts them: flag, ":" cast,
# "!" where required and "{...}" the choices. A change to any of them is a
# change to the CLI surface.
SURFACE = {
    "generate": "--seed:int --groups:int --benign:int --malicious:int --evasion-rate:float "
                "--username-mutation-rate:float --page-overlap:float --vocab-reuse:float "
                "--idle-gap-days:float --activity-contrast:float --malicious-text-rate:float "
                "--out-dir:str!",
    "ingest": "--accounts:str --revisions:str --records:str --out-dir:str",
    "extract-pairs": "--accounts:str --revisions:str --records:str --out-dir:str!",
    "match": "--seed:int --accounts:str --revisions:str --records:str --task:str!{1,2,3} "
             "--pairs:str --out:str! --window-days:float --cap:int",
    "featurize": "--accounts:str --revisions:str --records:str --lexicon:str "
                 "--sentiment-lexicon:str --embedding-provider:str --task:str!{1,2,3} "
                 "--samples:str! --out:str! --k-edits:int",
    "train": "--l2:float --max-epochs:int --rfe:_as_bool --features:str! --out:str!",
    "evaluate": "--seed:int --accounts:str --revisions:str --records:str --lexicon:str "
                "--sentiment-lexicon:str --embedding-provider:str --l2:float --max-epochs:int "
                "--rfe:_as_bool --task:str!{1,2,3} --pairs:str --out-dir:str! "
                "--train-fraction:float --window-days:float --cap:int --k-edits:int",
    "rank": "--accounts:str --revisions:str --records:str --lexicon:str --sentiment-lexicon:str "
            "--embedding-provider:str --l2:float --max-epochs:int --pairs:str --out-dir:str! "
            "--train-fraction:float --max-candidates:int",
    "analyze": "--accounts:str --revisions:str --records:str --lexicon:str "
               "--sentiment-lexicon:str --embedding-provider:str --pairs:str --out-dir:str! "
               "--window-days:float --outlier-days:float",
    "reproduce": "--seed:int --groups:int --benign:int --malicious:int --evasion-rate:float "
                 "--username-mutation-rate:float --page-overlap:float --vocab-reuse:float "
                 "--idle-gap-days:float --activity-contrast:float --malicious-text-rate:float "
                 "--lexicon:str --sentiment-lexicon:str --embedding-provider:str --l2:float "
                 "--max-epochs:int --rfe:_as_bool --out-dir:str! --train-fraction:float "
                 "--max-candidates:int --k-edits:int --cap:int --window-days:float "
                 "--outlier-days:float",
}


class TestSurface:
    @staticmethod
    def commands():
        parser = build_parser()
        # argparse keeps the subcommand parsers on its private action list only
        sub = next(a for a in parser._actions if a.dest == "command")
        return parser, sub.choices

    def test_each_command_declares_its_options(self):
        _, commands = self.commands()
        assert list(commands) == list(SURFACE)
        for name, command in commands.items():
            casts = command.get_default("options")
            actions = [a for a in command._actions if a.dest not in ("help", "config")]
            assert list(casts) == [a.dest for a in actions], name
            got = " ".join(
                f"{a.option_strings[0]}:{casts[a.dest].__name__}{'!' if a.required else ''}"
                + ("{%s}" % ",".join(a.choices) if a.choices else "")
                for a in actions
            )
            assert got == SURFACE[name], name

    def test_config_keys_are_every_option(self):
        parser, _ = self.commands()
        keys = {flag.split(":")[0][2:].replace("-", "_")
                for options in SURFACE.values() for flag in options.split()}
        assert len(keys) == 32
        assert parser.get_default("config_keys") == keys

    @pytest.mark.parametrize("command", list(SURFACE))
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out


class TestStageChaining:
    @pytest.fixture()
    def corpus_dir(self, tmp_path):
        out = tmp_path / "corpus"
        main(["generate", "--out-dir", str(out), "--seed", "3",
              "--groups", "10", "--benign", "80", "--malicious", "40"])
        return out

    def corpus_flags(self, corpus_dir):
        return [
            "--accounts", str(corpus_dir / "accounts.jsonl"),
            "--revisions", str(corpus_dir / "revisions.jsonl"),
            "--records", str(corpus_dir / "records.jsonl"),
        ]

    def test_ingest_round_trip_is_canonical(self, corpus_dir, tmp_path):
        """The generated files, and the same files with every line order
        reversed, are written back as the generated files."""
        names = ("accounts.jsonl", "revisions.jsonl", "records.jsonl")
        lines = {name: (corpus_dir / name).read_bytes().splitlines(keepends=True) for name in names}
        # stable sorts keep exact ties in input order, so a reversed input
        # gives the canonical files only when no two revisions tie
        keys = [(r["account_id"], r["timestamp"], r["page_id"])
                for r in map(json.loads, lines["revisions.jsonl"])]
        assert len(set(keys)) == len(keys)
        reversed_dir = tmp_path / "reversed"
        reversed_dir.mkdir()
        for name in names:
            (reversed_dir / name).write_bytes(b"".join(reversed(lines[name])))
        for source in (corpus_dir, reversed_dir):
            out = tmp_path / f"canon-{source.name}"
            assert main(["ingest", *self.corpus_flags(source), "--out-dir", str(out)]) == 0
            for name in names:
                assert (out / name).read_bytes() == (corpus_dir / name).read_bytes()

    @pytest.mark.parametrize("command", ["match", "evaluate", "rank", "analyze"])
    def test_given_pairs_merge_no_groups(self, corpus_dir, tmp_path, monkeypatch, command):
        def merging(*args):
            raise AssertionError(f"{command} --pairs merged groups")

        monkeypatch.setattr(pairing_mod, "merge_groups", merging)
        task = ["--task", "1"] if command in ("match", "evaluate") else []
        out = ["--out", str(tmp_path / "s.tsv")] if command == "match" else [
            "--out-dir", str(tmp_path / "out")]
        pairs = ["--pairs", str(corpus_dir / "truth_pairs.jsonl")]
        assert main([command, *self.corpus_flags(corpus_dir), *task, *pairs, *out]) == 0

    def test_evaluate_task1_needs_a_vector_for_every_text(self, corpus_dir, tmp_path, capsys):
        """Every digest embeds its account's texts, so account rows need them too."""
        truth = corpus_dir / "truth_pairs.jsonl"
        parent = json.loads(truth.read_text().splitlines()[0])["parent_id"]
        lines = (corpus_dir / "revisions.jsonl").read_text().splitlines()
        revisions = [json.loads(line) for line in lines]
        missing = next(
            r["added_text"] for r in revisions if r["account_id"] == parent and r["added_text"]
        )
        texts = sorted({r["added_text"] for r in revisions} - {missing})
        vectors = tmp_path / "vectors.tsv"
        vectors.write_text("".join(f"{text_hash(text)}\t1.0,0.5\n" for text in texts))
        assert main(["evaluate", *self.corpus_flags(corpus_dir), "--task", "1",
                     "--pairs", str(truth), "--embedding-provider", f"file:{vectors}",
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{vectors}: no precomputed vector for text hash {text_hash(missing)}" in err

    def test_extract_match_featurize_train(self, corpus_dir, tmp_path):
        flags = self.corpus_flags(corpus_dir)
        pairs_dir = tmp_path / "pairs"
        assert main(["extract-pairs", *flags, "--out-dir", str(pairs_dir)]) == 0
        extracted = pairs_dir / "evasion_pairs.jsonl"
        assert extracted.exists()
        truth = {
            (o["parent_id"], o["child_id"])
            for o in map(json.loads, (corpus_dir / "truth_pairs.jsonl").read_text().splitlines())
        }
        got = {
            (o["parent_id"], o["child_id"])
            for o in map(json.loads, extracted.read_text().splitlines())
        }
        assert got == truth

        samples = tmp_path / "task3.tsv"
        assert main([
            "match", *flags, "--task", "3", "--pairs", str(extracted), "--out", str(samples),
        ]) == 0
        features = tmp_path / "task3_features.tsv"
        assert main([
            "featurize", *flags, "--task", "3", "--samples", str(samples), "--out", str(features),
        ]) == 0
        model_path = tmp_path / "model.json"
        assert main(["train", "--features", str(features), "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        assert doc["format"] == "banevasion-logistic/1"
        assert len(doc["weights"]) == len(doc["feature_names"])

    def test_train_rfe_keeps_an_ordered_subset_of_the_header(self, corpus_dir, tmp_path):
        flags = self.corpus_flags(corpus_dir)
        samples, features, model_path = (tmp_path / n for n in ("s.tsv", "f.tsv", "m.json"))
        assert main(["match", *flags, "--task", "3", "--out", str(samples)]) == 0
        assert main([
            "featurize", *flags, "--task", "3", "--samples", str(samples), "--out", str(features),
        ]) == 0
        assert main(["train", "--rfe", "--features", str(features), "--out", str(model_path)]) == 0
        _, _, header, _ = features_mod.read_feature_matrix(features)
        model = load_model(model_path)
        in_header = iter(header)
        assert all(name in in_header for name in model.feature_names)  # in header order
        assert 0 < len(model.feature_names) < len(header)
        assert model_bytes(model) == model_path.read_bytes()

    def test_rfe_switch_from_environment_or_config_file(
        self, corpus_dir, tmp_path, monkeypatch
    ):
        flags = self.corpus_flags(corpus_dir)
        samples, features = tmp_path / "s.tsv", tmp_path / "f.tsv"
        assert main(["match", *flags, "--task", "3", "--out", str(samples)]) == 0
        assert main([
            "featurize", *flags, "--task", "3", "--samples", str(samples), "--out", str(features),
        ]) == 0

        def train(name, *args):
            out = tmp_path / f"{name}.json"
            assert main(["train", "--features", str(features), "--out", str(out), *args]) == 0
            return out.read_bytes()

        def configured(name, line):
            config = tmp_path / f"{name}.cfg"
            config.write_text(f"{line}\n")
            return train(name, "--config", str(config))

        flag, unset = train("flag", "--rfe"), train("unset")
        assert flag != unset
        assert configured("yes", "rfe = yes") == flag
        assert configured("no", "rfe = no") == unset
        monkeypatch.setenv("BANEVASION_RFE", "yes")
        assert train("env-yes") == flag
        monkeypatch.setenv("BANEVASION_RFE", "no")
        assert train("env-no") == unset

    @pytest.mark.parametrize(
        "task, window, child_ban_columns",
        [("1", WEEK_SECONDS, False), ("2", DAY_SECONDS, False), ("3", WEEK_SECONDS, True)],
        ids=["task1", "task2", "task3"],
    )
    def test_match_and_featurize_follow_task_defaults(
        self, corpus_dir, tmp_path, task, window, child_ban_columns
    ):
        flags = self.corpus_flags(corpus_dir)
        samples = tmp_path / "samples.tsv"
        assert main(["match", *flags, "--task", task, "--out", str(samples)]) == 0

        corpus = load_corpus(
            *(corpus_dir / f"{name}.jsonl" for name in ("accounts", "revisions", "records"))
        )
        groups = merge_groups(corpus)
        pairs = first_pair_per_group(extract_evasion_pairs(groups, corpus), corpus)
        write_samples(TASKS[task].match(corpus, pairs, window), tmp_path / "expected.tsv")
        assert samples.read_bytes() == (tmp_path / "expected.tsv").read_bytes()

        features = tmp_path / "features.tsv"
        assert main([
            "featurize", *flags, "--task", task, "--samples", str(samples), "--out", str(features),
        ]) == 0
        header = features.read_text().split("\n", 1)[0].split("\t")
        assert any(n.startswith("child_banned_") for n in header) == child_ban_columns

    @pytest.mark.parametrize("task", ["1", "2", "3"])
    def test_featurize_rows_follow_temporal_order(self, corpus_dir, tmp_path, task):
        flags = self.corpus_flags(corpus_dir)
        samples, features = tmp_path / "samples.tsv", tmp_path / "features.tsv"
        assert main(["match", *flags, "--task", task, "--out", str(samples)]) == 0
        assert main([
            "featurize", *flags, "--task", task, "--samples", str(samples), "--out", str(features),
        ]) == 0
        corpus = load_corpus(
            *(corpus_dir / f"{name}.jsonl" for name in ("accounts", "revisions", "records"))
        )
        in_file = matching_mod.read_samples(samples)
        ordered = temporal_order(in_file, corpus)
        assert ordered != in_file
        ids, labels, _, _ = features_mod.read_feature_matrix(features)
        assert list(ids) == [f"{s.parent_id}|{s.other_id}" for s in ordered]
        assert list(labels) == [s.label for s in ordered]

    def test_featurize_rejects_samples_of_another_task(self, corpus_dir, tmp_path, capsys):
        samples = tmp_path / "samples.tsv"
        samples.write_text(
            "early_detection\ta\tb\tpositive\nbantime_detection\ta\tc\tnegative\n"
        )
        code = main([
            "featurize", *self.corpus_flags(corpus_dir), "--task", "2",
            "--samples", str(samples), "--out", str(tmp_path / "features.tsv"),
        ])
        assert code == 1
        assert f"{samples}:2: task 'bantime_detection'" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["parent", "other"])
    def test_featurize_rejects_unknown_account_at_line(
        self, corpus_dir, tmp_path, capsys, column
    ):
        flags = [*self.corpus_flags(corpus_dir), "--task", "3"]
        samples = tmp_path / "samples.tsv"
        assert main(["match", *flags, "--out", str(samples)]) == 0
        lines = samples.read_text().splitlines(keepends=True)
        task, parent_id, other_id, label = lines[1].rstrip("\n").split("\t")
        ids = ["nobody", other_id] if column == "parent" else [parent_id, "nobody"]
        lines[1] = "\t".join([task, *ids, label]) + "\n"
        samples.write_text("".join(lines))
        features = tmp_path / "features.tsv"
        code = main(["featurize", *flags, "--samples", str(samples), "--out", str(features)])
        assert code == 1
        assert (
            f"error: stage 'featurize' failed: {samples}:2: "
            f"unknown account id 'nobody' (sample {column})"
        ) in capsys.readouterr().err
        assert not features.exists()

    @pytest.mark.parametrize("task", ["1", "2", "3"])
    def test_featurize_rejects_never_banned_parent_at_line(
        self, corpus_dir, tmp_path, capsys, task
    ):
        flags = [*self.corpus_flags(corpus_dir), "--task", task]
        samples = tmp_path / "samples.tsv"
        assert main(["match", *flags, "--out", str(samples)]) == 0
        lines = samples.read_text().splitlines()
        name, _, other_id, _ = lines[0].split("\t")
        corpus = load_corpus(*flags[1:6:2], keep_revisions=False)
        never_banned = next(a.account_id for a in corpus.accounts if a.ban_time is None)
        line = f"{name}\t{never_banned}\t{other_id}\tnegative"
        samples.write_text("\n".join([*lines, line]) + "\n")
        features = tmp_path / "features.tsv"
        code = main(["featurize", *flags, "--samples", str(samples), "--out", str(features)])
        if task == "1":
            # a task-1 row describes the other account alone
            assert code == 0
            return
        assert code == 1
        assert (
            f"error: stage 'featurize' failed: {samples}:{len(lines) + 1}: "
            f"parent {never_banned!r} was never banned"
        ) in capsys.readouterr().err
        assert not features.exists()

    def test_active_child_has_no_success_verdict(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        assert main(["generate", "--groups", "12", "--seed", "7",
                     "--out-dir", str(corpus_dir)]) == 0
        flags = self.corpus_flags(corpus_dir)
        pairs = [json.loads(line) for line in
                 (corpus_dir / "truth_pairs.jsonl").read_text().splitlines()]
        # the last pair's child replaced by a never-banned account created after
        # its parent's ban and named by no pair
        corpus = load_corpus(*flags[1::2], keep_revisions=False)
        named = {p[key] for p in pairs for key in ("parent_id", "child_id")}
        ban = corpus.account(pairs[-1]["parent_id"]).ban_time
        pairs[-1]["child_id"] = next(
            a.account_id for a in corpus.accounts
            if a.ban_time is None and a.creation_time > ban and a.account_id not in named
        )
        path = tmp_path / "active.jsonl"
        path.write_text("".join(json.dumps(p) + "\n" for p in pairs))
        out = tmp_path / "out"
        for command in (["evaluate", "--task", "3"], ["rank"], ["analyze"]):
            assert main([*command, *flags, "--pairs", str(path), "--out-dir", str(out)]) == 0
        success = json.loads((out / "analysis.json").read_text())["success"]
        assert success["successful"] + success["unsuccessful"] == len(pairs) - 1

    @pytest.mark.parametrize(
        "command, task, flag",
        [
            ("match", "1", "--cap"),
            ("match", "3", "--cap"),
            ("featurize", "1", "--k-edits"),
            ("featurize", "3", "--k-edits"),
        ],
    )
    def test_task2_flag_rejected_for_other_tasks(
        self, corpus_dir, tmp_path, capsys, command, task, flag
    ):
        flags = [*self.corpus_flags(corpus_dir), "--task", task]
        if command == "featurize":
            samples = tmp_path / "samples.tsv"
            assert main(["match", *flags, "--out", str(samples)]) == 0
            flags += ["--samples", str(samples)]
        code = main([command, *flags, "--out", str(tmp_path / "out.tsv"), flag, "5"])
        assert code == 1
        name = flag[2:].replace("-", "_")
        assert f"'{name}': applies only to --task 2, not --task {task}" in capsys.readouterr().err
        assert not (tmp_path / "out.tsv").exists()

    def test_task2_flag_from_environment_accepted_for_other_tasks(
        self, corpus_dir, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("BANEVASION_CAP", "5")
        assert main([
            "match", *self.corpus_flags(corpus_dir), "--task", "1",
            "--out", str(tmp_path / "out.tsv"),
        ]) == 0

    def test_pairs_file_taken_as_given(self, corpus_dir, tmp_path, monkeypatch):
        flags = self.corpus_flags(corpus_dir)
        assert main(["extract-pairs", *flags, "--out-dir", str(tmp_path / "pairs")]) == 0
        pairs = tmp_path / "pairs" / "evasion_pairs.jsonl"
        expected = tmp_path / "expected.tsv"
        assert main(["match", *flags, "--task", "3", "--out", str(expected)]) == 0

        def extraction(*args):
            raise AssertionError("pair extraction ran although --pairs was given")

        monkeypatch.setattr(pairing_mod, "extract_evasion_pairs", extraction)
        monkeypatch.setattr(pairing_mod, "first_pair_per_group", extraction)
        samples = tmp_path / "samples.tsv"
        assert main([
            "match", *flags, "--task", "3", "--pairs", str(pairs), "--out", str(samples),
        ]) == 0
        assert samples.read_bytes() == expected.read_bytes()

    def test_reversed_pair_rejected_at_file_and_line(self, corpus_dir, tmp_path, capsys):
        flags = self.corpus_flags(corpus_dir)
        assert main(["extract-pairs", *flags, "--out-dir", str(tmp_path / "pairs")]) == 0
        lines = (tmp_path / "pairs" / "evasion_pairs.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        reversed_pair = {"parent_id": first["child_id"], "child_id": first["parent_id"]}
        pairs = tmp_path / "reversed.jsonl"
        pairs.write_text("\n".join([lines[1], json.dumps(reversed_pair)]) + "\n")
        samples = tmp_path / "samples.tsv"
        code = main(["match", *flags, "--task", "1", "--pairs", str(pairs), "--out", str(samples)])
        assert code == 1
        assert (
            f"error: stage 'match' failed: {pairs}:2: child {first['parent_id']!r} "
            f"was not created after the ban of {first['child_id']!r}"
        ) in capsys.readouterr().err
        assert not samples.exists()

    def test_repeated_child_rejected_at_file_and_line(self, corpus_dir, tmp_path, capsys):
        flags = self.corpus_flags(corpus_dir)
        assert main(["extract-pairs", *flags, "--out-dir", str(tmp_path / "pairs")]) == 0
        lines = (tmp_path / "pairs" / "evasion_pairs.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        parent_id, child_id = first["parent_id"], first["child_id"]
        # a second parent for the first child, banned before it was created
        corpus = load_corpus(*flags[1::2])
        creation = corpus.account(child_id).creation_time
        other = next(
            a.account_id for a in corpus.accounts
            if a.ban_time is not None and a.ban_time < creation and a.account_id != parent_id
        )
        pairs = tmp_path / "repeated.jsonl"
        extra = json.dumps({"parent_id": other, "child_id": child_id})
        pairs.write_text("\n".join([*lines, extra]) + "\n")
        out = tmp_path / "rank"
        assert main(["rank", *flags, "--pairs", str(pairs), "--out-dir", str(out)]) == 1
        assert (
            f"error: stage 'rank' failed: {pairs}:{len(lines) + 1}: "
            f"child {child_id!r} is named by an earlier pair"
        ) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k_edits", ["0", "-1"])
    @pytest.mark.parametrize("command", ["featurize", "evaluate"])
    def test_k_edits_below_one_rejected(self, corpus_dir, tmp_path, capsys, command, k_edits):
        flags = [*self.corpus_flags(corpus_dir), "--task", "2"]
        out = tmp_path / "out"
        if command == "featurize":
            samples = tmp_path / "samples.tsv"
            assert main(["match", *flags, "--out", str(samples)]) == 0
            flags += ["--samples", str(samples), "--out", str(out)]
        else:
            flags += ["--out-dir", str(out)]
        assert main([command, *flags, "--k-edits", k_edits]) == 1
        assert "invalid config field 'k_edits': must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, field",
        [
            ("match", ["--task", "1", "--window-days", "nan"], "window_days"),
            ("match", ["--task", "1", "--window-days", "-1"], "window_days"),
            ("match", ["--task", "1", "--window-days", "1e305"], "window_days"),
            ("analyze", ["--outlier-days", "nan"], "outlier_days"),
            ("analyze", ["--outlier-days", "-5"], "outlier_days"),
            ("rank", ["--max-candidates", "0"], "max_candidates"),
        ],
        ids=["window_days-nan", "window_days-negative", "window_days-overflow",
             "outlier_days-nan", "outlier_days-negative", "max_candidates-0"],
    )
    def test_out_of_range_option_named(self, corpus_dir, tmp_path, capsys, command, flags, field):
        out = tmp_path / "out"
        out_flag = "--out" if command == "match" else "--out-dir"
        assert main([command, *self.corpus_flags(corpus_dir), *flags, out_flag, str(out)]) == 1
        assert f"invalid config field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_rejects_nan_l2(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(["evaluate", *self.corpus_flags(corpus_dir), "--task", "1",
                     "--out-dir", str(out), "--l2", "nan"])
        assert code == 1
        assert "l2_lambda" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_and_rank(self, corpus_dir, tmp_path):
        flags = self.corpus_flags(corpus_dir)
        out = tmp_path / "eval"
        assert main(["evaluate", *flags, "--task", "1", "--out-dir", str(out)]) == 0
        report = json.loads((out / "task1_report.json").read_text())
        assert 0.0 <= report["auc"] <= 1.0
        assert main(["rank", *flags, "--out-dir", str(out)]) == 0
        ranking = json.loads((out / "ranking_report.json").read_text())
        assert 0.0 < ranking["mrr"] <= 1.0


def test_stage_commands_load_no_numpy(tmp_path):
    """Importing the CLI and running every stage up to ``match`` leaves numpy unloaded."""
    script = textwrap.dedent("""
        import sys
        from pathlib import Path

        import banevasion.cli

        assert "numpy" not in sys.modules, "import banevasion.cli loaded numpy"
        out = Path(sys.argv[1])
        corpus = [f"--{name}={out / 'corpus' / name}.jsonl"
                  for name in ("accounts", "revisions", "records")]
        pairs = out / "pairs"
        commands = [
            ["generate", "--out-dir", str(out / "corpus"), "--groups", "6",
             "--benign", "30", "--malicious", "15"],
            ["ingest", *corpus],
            ["extract-pairs", *corpus, "--out-dir", str(pairs)],
        ] + [
            ["match", "--task", task, *corpus, "--pairs", str(pairs / "evasion_pairs.jsonl"),
             "--out", str(out / f"task{task}.tsv")]
            for task in "123"
        ]
        for argv in commands:
            assert banevasion.cli.main(argv) == 0, argv
            assert "numpy" not in sys.modules, f"{argv[0]} loaded numpy"
    """)
    src = str(Path(banevasion.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    for task in "123":
        assert (tmp_path / f"task{task}.tsv").stat().st_size > 0


class TestExtractPairs:
    """One group of three accounts that evade in sequence: b is created after
    a's ban and banned, c is created after b's ban."""

    @pytest.fixture()
    def flags(self, tmp_path):
        corpus = corpus_of(
            [account("a", 0, ban=100), account("b", 200, ban=300), account("c", 400)],
            records=[record("a", "b", "c")],
        )
        names = ("accounts", "revisions", "records")
        corpus_mod.save_corpus(corpus, *(tmp_path / f"{n}.jsonl" for n in names))
        return [f for n in names for f in (f"--{n}", str(tmp_path / f"{n}.jsonl"))]

    def test_non_ascii_ids_written_unescaped(self, tmp_path):
        corpus = corpus_of(
            [account("é1", 0, ban=100), account("b", 200, ban=300)], records=[record("é1", "b")]
        )
        names = ("accounts", "revisions", "records")
        corpus_mod.save_corpus(corpus, *(tmp_path / f"{n}.jsonl" for n in names))
        flags = [f for n in names for f in (f"--{n}", str(tmp_path / f"{n}.jsonl"))]
        out = tmp_path / "pairs"
        assert main(["extract-pairs", *flags, "--out-dir", str(out)]) == 0
        groups = (out / "groups.jsonl").read_text(encoding="utf-8")
        assert groups == '{"group_id":0,"master_id":"é1","member_ids":["b","é1"]}\n'
        pairs = (out / "evasion_pairs.jsonl").read_text(encoding="utf-8")
        assert pairs == '{"child_id":"b","group_id":0,"parent_id":"é1"}\n'

    def test_first_pair_only_by_default(self, tmp_path, flags):
        out = tmp_path / "pairs"
        assert main(["extract-pairs", *flags, "--out-dir", str(out)]) == 0
        kept = [json.loads(line) for line in (out / "evasion_pairs.jsonl").read_text().splitlines()]
        assert [(o["parent_id"], o["child_id"]) for o in kept] == [("a", "b")]
        assert (out / "all_pairs.jsonl").read_text().count("\n") == 2


class TestReproduce:
    def test_reproduce_smoke_and_idempotence(self, tmp_path):
        args = ["--seed", "7", "--groups", "12", "--benign", "120", "--malicious", "60"]
        for name in ("r1", "r2"):
            assert main(["reproduce", "--out-dir", str(tmp_path / name), *args]) == 0
        assert tree_digest(tmp_path / "r1") == tree_digest(tmp_path / "r2")

        report = json.loads((tmp_path / "r1" / "report.json").read_text())
        for task in ("task1", "task2", "task3"):
            assert 0.0 <= report[task]["auc"] <= 1.0
        assert "fragmented_auc" in report["task3"]
        assert set(report["ranking"]["recall_at"]) == {"1", "3", "5"}
        analysis = json.loads((tmp_path / "r1" / "reports" / "analysis.json").read_text())
        assert "overlaps" in analysis and "activity" in analysis
        tables_dir = tmp_path / "r1" / "reports" / "tables"
        assert (tables_dir / "account_durations.csv").exists()
        assert (tmp_path / "r1" / "report.txt").read_text().startswith("evaluation report")

    @pytest.mark.parametrize("option, value", [("window_days", "2"), ("outlier_days", "8")])
    def test_option_from_flag_environment_or_config_file(
        self, tmp_path, monkeypatch, option, value
    ):
        args = ["--seed", "7", "--groups", "12", "--benign", "120", "--malicious", "60"]
        flag = "--" + option.replace("_", "-")
        assert main(["reproduce", "--out-dir", str(tmp_path / "default"), *args]) == 0
        assert main(["reproduce", "--out-dir", str(tmp_path / "flag"), *args, flag, value]) == 0
        monkeypatch.setenv(f"BANEVASION_{option.upper()}", value)
        assert main(["reproduce", "--out-dir", str(tmp_path / "env"), *args]) == 0
        monkeypatch.delenv(f"BANEVASION_{option.upper()}")
        config = tmp_path / "run.cfg"
        config.write_text(f"{option} = {value}\n")
        assert main(["reproduce", "--out-dir", str(tmp_path / "cfg"), "--config", str(config),
                     *args]) == 0
        trees = {name: tree_digest(tmp_path / name) for name in ("default", "flag", "env", "cfg")}
        assert trees["flag"] == trees["env"] == trees["cfg"] != trees["default"]

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--outlier-days", "-5"], "invalid config field 'outlier_days'"),
            (["--window-days", "-1"], "invalid config field 'window_days'"),
            (["--window-days", "1e305"], "invalid config field 'window_days'"),
            (["--idle-gap-days", "1e305"], "invalid config field 'idle_gap_days'"),
            (["--idle-gap-days", "1e-9"], "invalid config field 'idle_gap_days'"),
            (["--benign", "1000000"], "invalid config field 'n_benign'"),
            (["--max-candidates", "0"], "invalid config field 'max_candidates'"),
            (["--cap", "0"], "invalid config field 'cap'"),
            (["--k-edits", "0"], "invalid config field 'k_edits'"),
            (["--train-fraction", "1"], "invalid config field 'train_fraction'"),
            (["--train-fraction", "0"], "invalid config field 'train_fraction'"),
            (["--l2", "nan"], "invalid config field 'l2_lambda'"),
            (["--embedding-provider", "bogus"], "invalid config field 'embedding_provider'"),
            (["--lexicon", "{missing}"], "{missing}"),
        ],
        ids=["outlier_days", "window_days", "window_days-overflow", "idle_gap_days-overflow",
             "idle_gap_days-zero-seconds", "n_benign-past-a999999",
             "max_candidates", "cap", "k_edits", "train_fraction", "train_fraction-0", "l2",
             "embedding_provider", "lexicon"],
    )
    def test_bad_option_rejected_before_any_output(self, tmp_path, capsys, flags, named):
        missing = str(tmp_path / "missing.txt")
        out = tmp_path / "out"
        flags = [f.format(missing=missing) for f in flags]
        assert main(["reproduce", "--groups", "12", *flags, "--out-dir", str(out)]) == 1
        assert named.format(missing=missing) in capsys.readouterr().err
        assert not out.exists()

    def test_bounded_option_checked_before_the_generator_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["reproduce", "--groups", "12", "--benign", "1000000", "--cap", "0"]
        assert main([*argv, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "invalid config field 'cap': must be >= 1" in err
        assert "n_benign" not in err
        assert not out.exists()

    def test_reproduce_builds_each_digest_once(self, tmp_path, monkeypatch):
        built = Counter()
        real = features_mod.account_digest

        def counting(account, revisions, config):
            built[(account.account_id, len(revisions))] += 1
            return real(account, revisions, config)

        monkeypatch.setattr(features_mod, "account_digest", counting)
        args = ["--seed", "7", "--groups", "12", "--benign", "120", "--malicious", "60"]
        assert main(["reproduce", "--out-dir", str(tmp_path), *args]) == 0
        assert built and set(built.values()) == {1}

    def test_reproduce_does_not_depend_on_the_hash_seed(self, tmp_path):
        # set and frozenset iteration follows the hash seed, which every
        # in-process test shares
        src = str(Path(banevasion.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = "import sys; from banevasion.cli import main; sys.exit(main(sys.argv[1:]))"
        for hash_seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", script, "reproduce", "--seed", "7", "--groups", "12",
                 "--out-dir", str(tmp_path / hash_seed)],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        assert len(tree_digest(tmp_path / "0")) > 10
        assert tree_digest(tmp_path / "0") == tree_digest(tmp_path / "1")

    def test_reproduce_matches_each_task_once(self, tmp_path, monkeypatch):
        matched = Counter()
        real = matching_mod.Task.match

        def counting(task, *args, **kwargs):
            matched[task.number] += 1
            return real(task, *args, **kwargs)

        monkeypatch.setattr(matching_mod.Task, "match", counting)
        args = ["--seed", "7", "--groups", "12", "--benign", "120", "--malicious", "60"]
        assert main(["reproduce", "--out-dir", str(tmp_path), *args]) == 0
        assert matched == {"1": 1, "2": 1, "3": 1}

    def test_reproduce_equals_its_stage_commands(self, tmp_path):
        run, stages = tmp_path / "run", tmp_path / "stages"
        args = ["--seed", "7", "--groups", "12", "--benign", "120", "--malicious", "60"]
        assert main(["reproduce", "--out-dir", str(run), *args]) == 0
        names = ("accounts", "revisions", "records")
        flags = [f for n in names for f in (f"--{n}", str(run / "corpus" / f"{n}.jsonl"))]
        for task in ("1", "2", "3"):
            assert main(["evaluate", *flags, "--task", task, "--out-dir", str(stages),
                         "--seed", "7"]) == 0
        assert main(["rank", *flags, "--out-dir", str(stages)]) == 0
        assert main(["analyze", *flags, "--out-dir", str(stages / "reports")]) == 0

        report = json.loads((run / "report.json").read_text())
        for name in ("task1", "task2", "task3", "ranking"):
            model = f"{name}_model.json"
            assert (run / "models" / model).read_bytes() == (stages / model).read_bytes()
            assert report[name] == json.loads((stages / f"{name}_report.json").read_text())
        assert tree_digest(run / "reports") == tree_digest(stages / "reports")


def shuffled_lines(name, lines, rng):
    rng.shuffle(lines)
    return lines


def renamed_ids(name, lines, rng):
    """Every account id prefixed with ``x``, a map that keeps their order."""
    rows = [json.loads(line) for line in lines]
    for row in rows:
        if "account_id" in row:
            row["account_id"] = "x" + row["account_id"]
        if "member_ids" in row:
            row["member_ids"] = ["x" + m for m in row["member_ids"]]
    return [json.dumps(row) + "\n" for row in rows]


def silent_accounts(name, lines, rng):
    """50 never-banned accounts without revisions, each id right after an
    existing one."""
    if name != "accounts":
        return lines
    rows = [json.loads(line) for line in lines]
    silent = [
        {**row, "account_id": row["account_id"] + "~", "username": row["username"] + "~",
         "ban_time": None}
        for row in rows[:: len(rows) // 50][:50]
    ]
    return [json.dumps(row) + "\n" for row in sorted(rows + silent, key=lambda r: r["account_id"])]


def repeated_record(name, lines, rng):
    """The first sockpuppet record appended again, its members reversed."""
    if name != "records":
        return lines
    row = json.loads(lines[0])
    return [*lines, json.dumps({"member_ids": row["member_ids"][::-1]}) + "\n"]


PAIR_FILES = {f"pairs/{name}.jsonl" for name in ("all_pairs", "evasion_pairs", "groups")}
SAMPLE_FILES = {f"samples/task{task}.tsv" for task in "123"}
# the corpus files each transform changes; the others change all three
CHANGED_FILES = {silent_accounts: {"accounts"}, repeated_record: {"records"}}


@pytest.mark.parametrize("transform",
                         [shuffled_lines, renamed_ids, silent_accounts, repeated_record],
                         ids=lambda transform: transform.__name__)
def test_shuffled_corpus_lines_give_identical_outputs(tmp_path, transform):
    """Every stage that reads a corpus writes the same bytes when the lines of
    its three files come in another order, when every account id gains a
    prefix (the pair and sample files then differ by that prefix alone), when
    accounts that never edit and are never banned join (``match`` loads no
    revisions, so its task-2 pool counts them), or when a record comes
    twice."""
    original, changed = tmp_path / "original", tmp_path / "changed"
    assert main(["generate", "--seed", "7", "--groups", "12", "--out-dir", str(original)]) == 0
    # task 2's cap sampler seeds on the positive's id: a rename keeps its
    # samples only while no anchor has more candidates than the cap
    corpus = load_corpus(*(original / f"{n}.jsonl" for n in ("accounts", "revisions", "records")))
    pairs = first_pair_per_group(extract_evasion_pairs(merge_groups(corpus), corpus), corpus)
    candidates = Counter()
    anchor = None
    for s in TASKS["2"].match(corpus, pairs, cap=10**9):
        if s.label:
            anchor = (s.parent_id, s.other_id)
        else:
            candidates[anchor] += 1
    assert max(candidates.values()) <= matching_mod.DEFAULT_TASK2_CAP
    changed.mkdir()
    names = ("accounts", "revisions", "records")
    rng = random.Random(3)
    for name in names:
        lines = (original / f"{name}.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        path = changed / f"{name}.jsonl"
        path.write_text("".join(transform(name, lines, rng)), encoding="utf-8")
        changed_files = CHANGED_FILES.get(transform, names)
        assert (path.read_bytes() != (original / f"{name}.jsonl").read_bytes()) == (
            name in changed_files
        )
    for corpus_dir in (original, changed):
        flags = [f for n in names for f in (f"--{n}", str(corpus_dir / f"{n}.jsonl"))]
        out = tmp_path / "out" / corpus_dir.name
        assert main(["extract-pairs", *flags, "--out-dir", str(out / "pairs")]) == 0
        (out / "samples").mkdir()
        for task in "123":
            assert main(["match", *flags, "--task", task,
                         "--out", str(out / "samples" / f"task{task}.tsv")]) == 0
            assert main(["evaluate", *flags, "--task", task, "--out-dir", str(out / "eval")]) == 0
        assert main(["rank", *flags, "--out-dir", str(out / "eval")]) == 0
        assert main(["analyze", *flags, "--out-dir", str(out / "analysis")]) == 0
    if transform is silent_accounts:
        task2 = (tmp_path / "out" / "changed" / "samples" / "task2.tsv").read_text(encoding="utf-8")
        assert "negative" in task2 and "~" not in task2
    if transform is renamed_ids:
        for name, prefixed in [*((n, '"x') for n in PAIR_FILES), *((n, "\tx") for n in SAMPLE_FILES)]:
            path = tmp_path / "out" / "changed" / name
            text = path.read_text(encoding="utf-8")
            assert prefixed in text
            path.write_text(text.replace(prefixed, prefixed[:-1]), encoding="utf-8")
    trees = [tree_digest(tmp_path / "out" / name) for name in ("original", "changed")]
    assert len(trees[0]) == 24 and PAIR_FILES | SAMPLE_FILES <= set(trees[0])
    assert trees[0] == trees[1]
