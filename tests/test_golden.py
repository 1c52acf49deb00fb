"""Byte pins for the corpus writer and reader, the three matchers, the
candidate sets and the three tasks' feature matrices.

A 200-group seed-7 corpus goes through generate -> save_corpus -> load_corpus
-> match 1/2/3 (task 2 also with a binding cap) -> build_candidate_sets, and
each task's samples are featurized (task 2 over the first 3 edits, without
child-ban fields) and written by ``write_feature_matrix``. The SHA-256 of
every file written must equal the constants below. The stage pins were
recorded from the scan-based matchers and the list-building reader that the
sorted indexes and the streaming reader replaced, the feature pins from the
per-trigram hashing loop and the unmemoized lexicon scan that the memoized
text layer replaced, so any changed output byte fails here.

The generator is also pinned away from its default knobs: at the low-signal
knobs of the benchmark's ``lowsignal-2x-rfe`` workload, and with an
``evasion_rate`` below 1, so the concurrent-group branch draws too. Those pins
were recorded from the generator that drew through ``random.Random.choice``,
``randint`` and ``randrange``, before its draws were inlined. The ``generate``
command, which writes each account as it is drawn and builds no corpus, must
write those bytes too, and the stage pin's three corpus files.

The characterization is pinned too: ``analyze`` over a seeded corpus writes
``analysis.json`` and one CSV per plot-ready table, and their SHA-256 must
equal the constants below. Those pins were recorded from the report layer
that built each contrast family's Welch tests by hand and kept the
inter-account gap on two paths. No model output reaches these files, so they
do not depend on the BLAS thread count.

The temporal split is pinned by value: the split keys of ``reproduce``'s
task and ranking reports at seed 7, with default knobs and on the 2x corpus
at the low-signal knobs. They were recorded from the harnesses that cut the
ranking's pair list and ordered each task's rows on their own. The pin holds
no AUC, MRR or model weight, so it does not depend on the BLAS thread count.

The report schema is pinned by key: the sorted key paths of ``reproduce``'s
``report.json`` at seed 7, with default knobs and with ``--rfe``. They were
recorded from the harnesses that built each result as a dataclass and
converted it to the written dict. The pin holds no value, so it does not
depend on the BLAS thread count either.

The model file is pinned by bytes: ``model_bytes`` of ``train`` and of
``rfe`` on a seeded 80 x 6 matrix. They were recorded from the fit layer
whose ``TrainConfig`` carried the tolerance and the class weighting and
whose model kept its standardization in a separate record. At this shape
the bytes are the same under ``OPENBLAS_NUM_THREADS`` 1, 2 and 4 and unset.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from banevasion.cli import main
from banevasion.corpus import SynthConfig, generate_synthetic, load_corpus, save_corpus, save_pairs
from banevasion.features import Digests, task_vectors, write_feature_matrix
from banevasion.matching import TASKS, build_candidate_sets, write_samples
from banevasion.model import model_bytes, rfe, train
from banevasion.pairing import extract_evasion_pairs, first_pair_per_group, merge_groups

GOLDEN_SHA256 = {
    "accounts.jsonl": "4eb76dfd997974c38a86a6df2b2a87397898b055935d07dabc1e953abda1e48e",
    "candidates.tsv": "53fd82c8b2d5a017068a85f4de567b4f714e3a52d9fde77084074207b496ded2",
    "features1.tsv": "8924adac5194fb00d4645ae6ad6f45ad60f6ce5714cbae5b27eba187f329438d",
    "features2.tsv": "f4d4403e54af3b6daf84b5ce636d0323c2930a9eb31131b4d16626bb776491ea",
    "features3.tsv": "498d7580740aeced7616fe61ba5325d8f8f17759dd7a42bddcb828afebde03b0",
    "pairs.jsonl": "6e536a738a466abdcdd389a09d9750c31e26d11b1c65d07ad9b6d6fba36c7def",
    "records.jsonl": "a29f6df8429888ab54fc441093ec59b3aa8e124aadcdacc57928e7bf8e03e399",
    "revisions.jsonl": "ec1f34413aaa25f81c27112b3f20acb93d7b6ba70856d3c46355253a4a6b79e3",
    "task1.tsv": "add02d376949d27d674068585509a5466d1fc031c098d0274d281420e5bf8863",
    "task2.tsv": "5278c1245d3775d42e731e8870724db98ae30e21e0aa82d545d212dc3e87997b",
    "task2_cap3.tsv": "9dc3076a88e2267f6598eceed722ed77dbef2c36e4b5758b847fd2008a19fa34",
    "task3.tsv": "a7898a29cf745586ebc098725a8a435df629e96079e1b4d1300a75cb8f773b9c",
}


GENERATOR_SHA256 = {
    "lowsignal": {
        "accounts.jsonl": "52220b5465669c33ba719e22add534eb831731d55e22dd88af82fb8dacc5334a",
        "pairs.jsonl": "1895146ad78c9db7799d2b9dea6ef6f1fa057bdae54a9398909acbd290cea251",
        "records.jsonl": "47c096b3781c331bf462e90d18ba5bd381e67427c63aebeba56305145bc72bf2",
        "revisions.jsonl": "6b85351d48ab9e6b4038f63899046c708e5f800ed3bbaf904db00658285340c3",
    },
    "partial_evasion": {
        "accounts.jsonl": "76101b2a9d81fc90409e2bf8b7d83f597ef5be5652df137c420d8fe328ab9b37",
        "pairs.jsonl": "1268c017424958d0ca9c5119e8887e263ad2bdb41c65a64307d9b6c886971399",
        "records.jsonl": "e6312f6a8160dc87e3adce8b3f1c7958b0e7a4f01c63df525d108d6b43988015",
        "revisions.jsonl": "84d5429e107aaea2a0ddeb28433ed88d0c24b6b80e29ffe04e74265086cdc88c",
    },
}

CHARACTERIZATION_SHA256 = {
    "default": {
        "analysis.json": "de3ad96af38a3d91ef1c7316e1864a9863fc78e3d26420d1c60b32c0489636b4",
        "tables/account_durations.csv": "0b4f58aba837e37d84d9d9511af5d083882185a9625e37fd6f740cf00700579d",
        "tables/inter_account_durations.csv": "8104e3fcb89760b47331983179f152ab40bbe1e7e743991ab4985f902a6e67f0",
        "tables/page_overlap_vs_gap.csv": "150f1cfa119f32ee2b53eea9a53f363b41cb6a1edfe7111913e6670683733f38",
        "tables/username_distance_vs_gap.csv": "805aba3aede96eddc1fba9fbddbeaefffd22334d1f06ac2282f81895d969dd30",
    },
    "partial_evasion": {
        "analysis.json": "d9239a2762c48fdd9378c3eb1377f273ae5870db59398a561ade2c67aeff7812",
        "tables/account_durations.csv": "31e297ac841ffcbb4e5f55a6d79755eeb7ecec5bd3a66a28e5ea772a1a456c05",
        "tables/inter_account_durations.csv": "8932668447b3f61a5dd2a1a54b4fe55d5f78a708a1aca77c1e486f8167ee38ef",
        "tables/page_overlap_vs_gap.csv": "43c85d9a51e93d769504f1fc87b74a9822c5a4c51dbaf35a5513034642416e6a",
        "tables/username_distance_vs_gap.csv": "34f0840e8ef3d047b3699de63714c13059393ebeb5fecba76a03b40b12293cd5",
    },
}

GENERATOR_CONFIGS = {
    "lowsignal": SynthConfig(
        n_groups=120, n_benign=1200, n_nonevading_malicious=600, page_overlap=0.1,
        vocab_reuse=0.1, activity_contrast=0.2, username_mutation_rate=0.0,
        malicious_text_rate=0.05, seed=8,
    ),
    "partial_evasion": SynthConfig(
        n_groups=120, n_benign=300, n_nonevading_malicious=150, evasion_rate=0.5, seed=3
    ),
}


SPLIT_KEYS = {
    "task": ("n_train", "n_test", "n_train_pos", "n_test_pos", "split_boundary"),
    "ranking": ("n_train_children", "n_test_children", "mean_candidates"),
}

SPLIT_PINS = {
    "default": {
        "task1": (511, 108, 48, 12, 1626578134),
        "task2": (210, 27, 54, 6, 1628898166),
        "task3": (560, 56, 54, 6, 1628898166),
        "ranking": (54, 6, 31.166666666666668),
    },
    "lowsignal_2x": {
        "task1": (2162, 485, 96, 24, 1623832794),
        "task2": (775, 62, 108, 12, 1627730400),
        "task3": (2378, 286, 108, 12, 1627730400),
        "ranking": (108, 12, 41.925),
    },
}

SPLIT_FLAGS = {
    "default": (),
    "lowsignal_2x": (
        "--groups", "120", "--benign", "1200", "--malicious", "600", "--page-overlap", "0.1",
        "--vocab-reuse", "0.1", "--activity-contrast", "0.2", "--username-mutation-rate", "0",
        "--malicious-text-rate", "0.05",
    ),
}

_TASK_KEYS = ("auc", "n_test", "n_test_pos", "n_train", "n_train_pos", "split_boundary", "task")
_DEFAULT_KEY_PATHS = (
    "corpus", "corpus.accounts", "corpus.records", "corpus.revisions",
    "pairing", "pairing.first_pairs", "pairing.groups", "pairing.pairs",
    "ranking", "ranking.mean_candidates", "ranking.mrr", "ranking.n_test_children",
    "ranking.n_train_children", "ranking.recall_at", "ranking.recall_at.1",
    "ranking.recall_at.3", "ranking.recall_at.5",
    "seed", "synth_config", "synth_config.activity_contrast", "synth_config.evasion_rate",
    "synth_config.idle_gap_days", "synth_config.malicious_text_rate", "synth_config.n_benign",
    "synth_config.n_groups", "synth_config.n_nonevading_malicious", "synth_config.page_overlap",
    "synth_config.username_mutation_rate", "synth_config.vocab_reuse",
    *(f"task{n}{key}" for n in "123" for key in ("", *(f".{k}" for k in _TASK_KEYS))),
    "task3.fragmented_auc", "task3.fragmented_auc.errors", "task3.fragmented_auc.successful",
    "task3.fragmented_auc.unsuccessful",
)

REPORT_KEY_PATHS = {
    "default": sorted(_DEFAULT_KEY_PATHS),
    "rfe": sorted((*_DEFAULT_KEY_PATHS, *(f"task{n}.selected_features" for n in "123"))),
}

REPORT_FLAGS = {"default": (), "rfe": ("--rfe",)}

MODEL_SHA256 = {
    "train": "9e128f6689449169f7a04ae70e8aea2cc64c2dfc139b34bcabe01560047d0d85",
    "rfe": "838c659121177f96075b261140bf0b8cfc4564ea0094814ff0f69aee21bce7ef",
}


STAGE_CONFIG = SynthConfig(n_groups=200, n_benign=2000, n_nonevading_malicious=1000, seed=7)
CORPUS_FILES = ("accounts.jsonl", "revisions.jsonl", "records.jsonl")


def write_stage_outputs(out):
    synth = generate_synthetic(STAGE_CONFIG)
    paths = [out / name for name in CORPUS_FILES]
    save_corpus(synth.corpus, *paths)
    corpus = load_corpus(*paths)
    assert corpus == synth.corpus

    groups = merge_groups(corpus)
    pairs = first_pair_per_group(extract_evasion_pairs(groups, corpus), corpus)
    save_pairs(pairs, out / "pairs.jsonl")
    digests = Digests(corpus)
    for number, task in TASKS.items():
        samples = list(task.match(corpus, pairs, task.window_seconds, seed=7))
        write_samples(samples, out / f"task{number}.tsv")
        names, X = task_vectors(task, samples, digests, k_edits=3)
        ids = [f"{s.parent_id}|{s.other_id}" for s in samples]
        labels = [s.label for s in samples]
        write_feature_matrix(out / f"features{number}.tsv", ids, labels, names, X)
    task2 = TASKS["2"]
    capped = task2.match(corpus, pairs, 3 * task2.window_seconds, cap=3, seed=7)
    write_samples(capped, out / "task2_cap3.tsv")

    with open(out / "candidates.tsv", "w", encoding="utf-8") as fh:
        for cs in build_candidate_sets(pairs, corpus, max_candidates=10):
            fh.write("\t".join((cs.child_id, cs.true_parent_id, *cs.candidate_parent_ids)) + "\n")


def sha256s(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_stage_outputs_match_recorded_bytes(tmp_path):
    write_stage_outputs(tmp_path)
    assert sha256s(tmp_path) == GOLDEN_SHA256


@pytest.mark.parametrize("name", sorted(GENERATOR_CONFIGS))
def test_generator_matches_recorded_bytes(tmp_path, name):
    synth = generate_synthetic(GENERATOR_CONFIGS[name])
    files = ("accounts.jsonl", "revisions.jsonl", "records.jsonl")
    save_corpus(synth.corpus, *(tmp_path / f for f in files))
    save_pairs(synth.true_pairs, tmp_path / "pairs.jsonl")
    assert sha256s(tmp_path) == GENERATOR_SHA256[name]


def generate_flags(config: SynthConfig) -> list[str]:
    names = {"n_groups": "groups", "n_benign": "benign", "n_nonevading_malicious": "malicious"}
    return [
        flag for key, value in asdict(config).items()
        for flag in (f"--{names.get(key, key).replace('_', '-')}", repr(value))
    ]


@pytest.mark.parametrize("name", [*sorted(GENERATOR_CONFIGS), "stage"])
def test_generate_command_matches_recorded_bytes(tmp_path, name):
    """The ``generate`` command, which writes each account as it is drawn,
    writes the bytes pinned for the corpus built in memory and saved."""
    config = GENERATOR_CONFIGS.get(name, STAGE_CONFIG)
    assert main(["generate", *generate_flags(config), "--out-dir", str(tmp_path)]) == 0
    truth = tmp_path / "truth_pairs.jsonl"
    if name == "stage":
        # the stage pin's pairs file holds the extracted first pairs
        truth.unlink()
        expected = {f: GOLDEN_SHA256[f] for f in CORPUS_FILES}
    else:
        truth.rename(tmp_path / "pairs.jsonl")
        expected = GENERATOR_SHA256[name]
    assert sha256s(tmp_path) == expected


@pytest.mark.parametrize("name", sorted(CHARACTERIZATION_SHA256))
def test_characterization_matches_recorded_bytes(tmp_path, name):
    config = GENERATOR_CONFIGS.get(name, SynthConfig(seed=7))
    names = ("accounts", "revisions", "records")
    paths = [tmp_path / f"{n}.jsonl" for n in names]
    save_corpus(generate_synthetic(config).corpus, *paths)
    out = tmp_path / "analysis"
    flags = [f for n, path in zip(names, paths) for f in (f"--{n}", str(path))]
    assert main(["analyze", *flags, "--out-dir", str(out)]) == 0
    written = {"analysis.json": (out / "analysis.json").read_bytes()}
    written.update((f"tables/{p.name}", p.read_bytes()) for p in sorted((out / "tables").iterdir()))
    assert {k: hashlib.sha256(v).hexdigest() for k, v in written.items()} == (
        CHARACTERIZATION_SHA256[name]
    )


@pytest.mark.parametrize("name", sorted(SPLIT_PINS))
def test_split_counts_match_recorded_values(tmp_path, name):
    assert main(["reproduce", "--seed", "7", *SPLIT_FLAGS[name], "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    split = {
        part: tuple(report[part][k] for k in SPLIT_KEYS["ranking" if part == "ranking" else "task"])
        for part in SPLIT_PINS[name]
    }
    assert split == SPLIT_PINS[name]


def key_paths(doc: dict, prefix: str = "") -> list[str]:
    """Every key of ``doc`` at every depth, as a dotted path."""
    paths = []
    for key, value in doc.items():
        paths.append(prefix + key)
        if isinstance(value, dict):
            paths += key_paths(value, f"{prefix}{key}.")
    return paths


@pytest.mark.parametrize("name", sorted(REPORT_KEY_PATHS))
def test_report_key_paths_match_recorded_schema(tmp_path, name):
    args = ["reproduce", "--seed", "7", *REPORT_FLAGS[name], "--out-dir", str(tmp_path)]
    assert main(args) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert sorted(key_paths(report)) == REPORT_KEY_PATHS[name]


def test_model_bytes_match_recorded_pins():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(80, 6))
    y = (X[:, 0] - X[:, 1] + rng.normal(size=80) > 0).astype(int)
    models = {"train": train(X, y), "rfe": rfe(X, y)[0]}
    assert {k: hashlib.sha256(model_bytes(m)).hexdigest() for k, m in models.items()} == (
        MODEL_SHA256
    )
