from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from banevasion import corpus as corpus_mod
from banevasion import features as features_mod
from banevasion import matching as matching_mod
from banevasion import pairing as pairing_mod
from banevasion.cli import main
from banevasion.corpus import DAY_SECONDS, WEEK_SECONDS, load_corpus
from banevasion.matching import (
    match_task1,
    match_task2,
    match_task3,
    prepare_benign_pool,
    prepare_malicious_pool,
    write_samples,
)
from banevasion.pairing import extract_evasion_pairs, first_pair_per_group, merge_groups


def tree_digest(root: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


GEN_FLAGS = ["--groups", "8", "--benign", "40", "--malicious", "20"]


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

    @pytest.mark.parametrize("key", ["l2_lamda", "learning_rate"])
    def test_config_key_no_command_reads_names_file_and_line(self, tmp_path, capsys, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"seed = 1\n\n{key} = 5\n")
        code = main(["generate", "--out-dir", str(tmp_path / "out"), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: stage 'generate' failed: {config}:3: no command reads key '{key}'" in err
        assert not (tmp_path / "out").exists()

    def test_config_key_of_another_command_accepted(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("l2 = 5\nwindow-days = 3\n")
        main(["generate", "--out-dir", str(tmp_path / "cfg"), "--config", str(config),
              "--seed", "7", *GEN_FLAGS])
        main(["generate", "--out-dir", str(tmp_path / "flag"), "--seed", "7", *GEN_FLAGS])
        assert tree_digest(tmp_path / "cfg") == tree_digest(tmp_path / "flag")

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
        def interrupted(config):
            raise KeyboardInterrupt

        monkeypatch.setattr(corpus_mod, "generate_synthetic", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["generate", "--out-dir", str(tmp_path), *GEN_FLAGS])


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
        out = tmp_path / "canon"
        assert main(["ingest", *self.corpus_flags(corpus_dir), "--out-dir", str(out)]) == 0
        for name in ("accounts.jsonl", "revisions.jsonl", "records.jsonl"):
            assert (out / name).read_bytes() == (corpus_dir / name).read_bytes()

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
        groups = merge_groups(corpus.sockpuppet_records, corpus)
        pairs = first_pair_per_group(extract_evasion_pairs(groups, corpus), corpus)
        if task == "1":
            parents = [corpus.account(p.parent_id) for p in pairs]
            expected = match_task1(parents, prepare_malicious_pool(corpus, groups), window)
        elif task == "2":
            expected = match_task2(pairs, prepare_benign_pool(corpus), corpus, window)
        else:
            expected = match_task3(pairs, prepare_malicious_pool(corpus, groups), corpus, window)
        write_samples(expected, tmp_path / "expected.tsv")
        assert samples.read_bytes() == (tmp_path / "expected.tsv").read_bytes()

        features = tmp_path / "features.tsv"
        assert main([
            "featurize", *flags, "--task", task, "--samples", str(samples), "--out", str(features),
        ]) == 0
        header = features.read_text().split("\n", 1)[0].split("\t")
        assert any(n.startswith("child_banned_") for n in header) == child_ban_columns

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

    def test_evaluate_and_rank(self, corpus_dir, tmp_path):
        flags = self.corpus_flags(corpus_dir)
        out = tmp_path / "eval"
        assert main(["evaluate", *flags, "--task", "1", "--out-dir", str(out)]) == 0
        report = json.loads((out / "task1_report.json").read_text())
        assert 0.0 <= report["auc"] <= 1.0
        assert main(["rank", *flags, "--out-dir", str(out)]) == 0
        ranking = json.loads((out / "ranking_report.json").read_text())
        assert 0.0 < ranking["mrr"] <= 1.0


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
        flags += ["--seed", "7"]
        for task in ("1", "2", "3"):
            assert main(["evaluate", *flags, "--task", task, "--out-dir", str(stages)]) == 0
        assert main(["rank", *flags, "--out-dir", str(stages)]) == 0
        assert main(["analyze", *flags, "--out-dir", str(stages / "reports")]) == 0

        report = json.loads((run / "report.json").read_text())
        for name in ("task1", "task2", "task3", "ranking"):
            model = f"{name}_model.json"
            assert (run / "models" / model).read_bytes() == (stages / model).read_bytes()
            assert report[name] == json.loads((stages / f"{name}_report.json").read_text())
        assert tree_digest(run / "reports") == tree_digest(stages / "reports")
