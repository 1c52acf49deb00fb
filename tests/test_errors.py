"""Each kind of failure raises its one class, wherever it is detected."""

from __future__ import annotations

import json

import numpy as np
import pytest

from banevasion.analysis import (
    characterize,
    regularized_incomplete_beta,
    student_t_two_sided_p,
)
from banevasion.errors import (
    InvalidConfigError,
    InvalidInputError,
    LeakageError,
    MismatchError,
    RecordParseError,
)
from banevasion.evaluation import (
    _assert_no_leakage,
    fragmented_auc,
    recall_at_k,
    roc_auc,
    run_ranking,
)
from banevasion.features import Digests, pair_vectors
from banevasion.matching import (
    NEGATIVE,
    TASK1,
    TASKS,
    LabeledSample,
    check_options,
)
from banevasion.model import TrainConfig, load_model, rfe, train
from banevasion.pairing import EvasionPair, classify_success
from banevasion.textstats import get_provider

from conftest import account, corpus_of, record

# p was banned and evaded as c; neither c nor the outsider u was ever banned
CORPUS = corpus_of(
    [account("p", 0, ban=100), account("c", 200), account("u", 10)], records=[record("p", "c")]
)
PAIR = EvasionPair("p", "c", 0)


@pytest.mark.parametrize(
    "call, account_id",
    [
        (lambda: pair_vectors(Digests(CORPUS), [("c", "p")]), "c"),
        # the success verdict and the tasks take the pair rules: a never-banned
        # parent is named as in a pairs file (a never-banned child is only
        # undecided)
        (lambda: classify_success([EvasionPair("u", "c", 1)], CORPUS), "u"),
        *((lambda t=t: t.match(CORPUS, [PAIR, EvasionPair("u", "c", 1)]), "u")
          for t in TASKS.values()),
    ],
    ids=["pair_vectors_parent", "classify_success",
         "task1_parent", "task2_parent", "task3_parent"],
)
def test_never_banned_account_named(call, account_id):
    with pytest.raises(RecordParseError) as err:
        call()
    assert type(err.value) is RecordParseError
    assert (err.value.path, err.value.line_number) == (None, None)
    assert str(err.value) == f"parent {account_id!r} was never banned"


@pytest.mark.parametrize(
    "field, call",
    [
        ("cap", lambda: TASKS["2"].match(CORPUS, [PAIR], cap=0)),
        ("l2_lambda", lambda: TrainConfig(l2_lambda=float("nan"))),
        ("max_epochs", lambda: TrainConfig(max_epochs=0)),
        ("train_fraction", lambda: run_ranking(Digests(CORPUS), [PAIR], train_fraction=1.0)),
        ("embedding_provider", lambda: get_provider("bogus")),
        ("k", lambda: recall_at_k([1], 0)),
        ("k_edits", lambda: pair_vectors(Digests(CORPUS), [], k_edits=0)),
        ("max_candidates", lambda: run_ranking(Digests(CORPUS), [PAIR], max_candidates=0)),
        ("outlier_days", lambda: characterize(Digests(CORPUS), [PAIR], outlier_days=-5.0)),
        ("a", lambda: regularized_incomplete_beta(0.0, 1.0, 0.5)),
        ("b", lambda: regularized_incomplete_beta(1.0, -1.0, 0.5)),
        ("x", lambda: regularized_incomplete_beta(1.0, 1.0, 1.5)),
        ("df", lambda: student_t_two_sided_p(1.0, 0.0)),
        pytest.param("train_fraction",
                     lambda: run_ranking(Digests(CORPUS), [PAIR], train_fraction=0.0),
                     id="train_fraction-0"),
    ],
)
def test_out_of_range_option_is_invalid_config(field, call):
    with pytest.raises(InvalidConfigError) as err:
        call()
    assert err.value.field == field
    assert isinstance(err.value, ValueError)
    assert str(err.value).startswith(f"invalid config field {field!r}: ")


@pytest.mark.parametrize("name", ["train_fraction", "outlier_days", "window_days",
                                  "window_seconds"])
def test_nan_fails_every_float_bound(name):
    # a bound written as a reject test, such as ``v < 0``, would let NaN through
    with pytest.raises(InvalidConfigError) as err:
        check_options(**{name: float("nan")})
    assert err.value.field == name


@pytest.mark.parametrize(
    "call",
    [
        lambda: roc_auc([0.1, 0.2], [1]),
        lambda: fragmented_auc([0.1, 0.2], [1, 0], [True, False]),
    ],
    ids=["roc_auc", "fragmented_auc"],
)
def test_misaligned_inputs_are_mismatch(call):
    with pytest.raises(MismatchError) as err:
        call()
    assert isinstance(err.value, ValueError)


DAY_BEFORE = -24 * 3600


@pytest.mark.parametrize(
    "call",
    [
        # with no pairs at all: the window is checked before any anchor is read
        *(lambda t=t: t.match(CORPUS, [], window_seconds=DAY_BEFORE) for t in TASKS.values()),
        *(lambda t=t: t.match(CORPUS, [PAIR], DAY_BEFORE) for t in TASKS.values()),
    ],
    ids=["match_task1", "match_task2", "match_task3", "task1", "task2", "task3"],
)
def test_negative_window_is_invalid_config(call):
    with pytest.raises(InvalidConfigError) as err:
        call()
    assert err.value.field == "window_seconds"


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "call",
    [
        lambda tmp: train(np.ones(4), np.array([0, 1, 0, 1])),
        lambda tmp: train(np.ones((4, 1)), np.array([0, 2, 0, 2])),
        lambda tmp: rfe(np.ones((4, 1)), np.array([0, 1, 0, 1])),
        lambda tmp: load_model(_write(tmp / "model.json", '{"format": "other"}')),
    ],
    ids=["train_matrix_shape", "train_labels", "rfe_one_feature", "load_model_format"],
)
def test_malformed_input_is_invalid_input(call, tmp_path):
    with pytest.raises(InvalidInputError) as err:
        call(tmp_path)
    assert isinstance(err.value, ValueError)


def test_leakage_across_split_is_leakage_error():
    shared = LabeledSample("p", "m", NEGATIVE, TASK1)
    with pytest.raises(LeakageError, match="'m'") as err:
        _assert_no_leakage([shared], [shared._replace(parent_id="q")])
    assert isinstance(err.value, RuntimeError)


GOOD_MODEL = {
    "format": "banevasion-logistic/1", "feature_names": ["a", "b"], "weights": [0.5, -0.25],
    "bias": 0.125, "means": [1.0, 2.0], "stds": [1.0, 0.0],
    "config": {"class_weighting": "inverse-frequency", "l2_lambda": 1.0, "max_epochs": 2000,
               "tolerance": 1e-08},
}


def _model_text(config=(), **fields):
    return json.dumps({**GOOD_MODEL, **fields, "config": {**GOOD_MODEL["config"], **dict(config)}})


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"format": "banevasion-logistic/1",', "not JSON"),
        (_model_text(feature_names=["a", "a"]), "key 'feature_names'"),
        (_model_text(feature_names=["a", 2]), "key 'feature_names'"),
        (_model_text(weights=["0.5", -0.25]), "key 'weights'"),
        (_model_text(weights=[float("nan"), -0.25]), "key 'weights'"),
        (_model_text(stds=[True, 0.0]), "key 'stds'"),
        (_model_text(means=[1.0]), "key 'means'"),
        (_model_text(bias="0.125"), "key 'bias'"),
        (_model_text(config={"momentum": 0.9}), "key 'config.momentum'"),
        (json.dumps({**GOOD_MODEL, "config": {"l2_lambda": 1.0}}), "key 'config.max_epochs'"),
        (_model_text(config={"max_epochs": 0}), "invalid config field 'max_epochs'"),
        (_model_text(config={"tolerance": "1e-08"}), "key 'config.tolerance'"),
        (_model_text(config={"class_weighting": "none"}), "key 'config.class_weighting'"),
    ],
    ids=["json", "names_repeated", "names_not_strings", "weights_string", "weights_nan",
         "stds_bool", "means_short", "bias_string", "config_unknown", "config_missing",
         "config_range", "config_tolerance",
         "config_class_weighting"],
)
def test_malformed_model_file_names_path_and_key(tmp_path, text, named):
    path = _write(tmp_path / "model.json", text)
    with pytest.raises(InvalidInputError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: {named}")

