"""Each kind of failure raises its one class, wherever it is detected."""

from __future__ import annotations

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
    MissingBanTimeError,
)
from banevasion.evaluation import (
    SplitSpec,
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
)
from banevasion.model import TrainConfig, load_model, rfe, train
from banevasion.pairing import EvasionPair, SockpuppetGroup, classify_success, temporal_successor
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
        (lambda: temporal_successor(
            CORPUS.account("c"), SockpuppetGroup(0, frozenset({"p", "c"}), "p"), CORPUS), "c"),
        (lambda: pair_vectors(Digests(CORPUS), [("c", "p")]), "c"),
        (lambda: classify_success([PAIR], CORPUS), "c"),
        *((lambda t=t: t.match(CORPUS, [], [PAIR, EvasionPair("u", "c", 1)]), "u")
          for t in TASKS.values()),
    ],
    ids=["temporal_successor", "pair_vectors_parent", "classify_success",
         "task1_parent", "task2_parent", "task3_parent"],
)
def test_never_banned_account_named(call, account_id):
    with pytest.raises(MissingBanTimeError) as err:
        call()
    assert err.value.account_id == account_id
    assert str(err.value) == f"account {account_id!r} has no ban time"


@pytest.mark.parametrize(
    "field, call",
    [
        ("cap", lambda: TASKS["2"].match(CORPUS, [], [PAIR], cap=0)),
        ("l2_lambda", lambda: TrainConfig(l2_lambda=float("nan"))),
        ("max_epochs", lambda: TrainConfig(max_epochs=0)),
        ("tolerance", lambda: TrainConfig(tolerance=0.0)),
        ("class_weighting", lambda: TrainConfig(class_weighting="balanced")),
        ("train_fraction", lambda: SplitSpec(1.0)),
        ("embedding_provider", lambda: get_provider("bogus")),
        ("validation_fraction",
         lambda: rfe(np.ones((4, 2)), np.array([0, 1, 0, 1]), validation_fraction=1.0)),
        ("k", lambda: recall_at_k([1], 0)),
        ("k_edits", lambda: pair_vectors(Digests(CORPUS), [], k_limit=0)),
        ("max_candidates", lambda: run_ranking(Digests(CORPUS), [PAIR], max_candidates=0)),
        ("outlier_days", lambda: characterize(Digests(CORPUS), [PAIR], outlier_days=-5.0)),
        ("a", lambda: regularized_incomplete_beta(0.0, 1.0, 0.5)),
        ("b", lambda: regularized_incomplete_beta(1.0, -1.0, 0.5)),
        ("x", lambda: regularized_incomplete_beta(1.0, 1.0, 1.5)),
        ("df", lambda: student_t_two_sided_p(1.0, 0.0)),
    ],
)
def test_out_of_range_option_is_invalid_config(field, call):
    with pytest.raises(InvalidConfigError) as err:
        call()
    assert err.value.field == field
    assert isinstance(err.value, ValueError)
    assert str(err.value).startswith(f"invalid config field {field!r}: ")


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
        *(lambda t=t: t.match(CORPUS, [], [], window_seconds=DAY_BEFORE) for t in TASKS.values()),
        *(lambda t=t: t.match(CORPUS, [], [PAIR], DAY_BEFORE) for t in TASKS.values()),
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
