"""Each kind of failure raises its one class, wherever it is detected."""

from __future__ import annotations

import numpy as np
import pytest

from banevasion.analysis import characterize
from banevasion.errors import InvalidConfigError, MismatchError, MissingBanTimeError
from banevasion.evaluation import SplitSpec, fragmented_auc, recall_at_k, roc_auc, run_ranking
from banevasion.features import Digests, pair_vectors
from banevasion.matching import match_task2, match_task3
from banevasion.model import TrainConfig, rfe
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
        (lambda: match_task3([PAIR], [CORPUS.account("u")], CORPUS), "u"),
        (lambda: classify_success([PAIR], CORPUS), "c"),
    ],
    ids=["temporal_successor", "pair_vectors_parent", "match_task3_pool", "classify_success"],
)
def test_never_banned_account_named(call, account_id):
    with pytest.raises(MissingBanTimeError) as err:
        call()
    assert err.value.account_id == account_id
    assert str(err.value) == f"account {account_id!r} has no ban time"


@pytest.mark.parametrize(
    "field, call",
    [
        ("cap", lambda: match_task2([PAIR], [], CORPUS, cap=0)),
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
