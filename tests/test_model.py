from __future__ import annotations

import json

import numpy as np
import pytest

from banevasion.errors import (
    FeatureNameMismatchError,
    NonFiniteFeatureError,
    SingleClassInputError,
)
from banevasion.features import FeatureVector
from banevasion.model import (
    LogisticModel,
    StandardizationStats,
    TrainConfig,
    _sample_weights,
    fit_standardization,
    load_model,
    loss_and_gradient,
    model_bytes,
    predict_proba,
    rfe,
    save_model,
    train,
)


def finite_difference_gradient(w, b, X, y, l2, sw, h=1e-6):
    grad_w = np.zeros_like(w)
    for i in range(w.size):
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        lu, _, _ = loss_and_gradient(up, b, X, y, l2, sw)
        ld, _, _ = loss_and_gradient(down, b, X, y, l2, sw)
        grad_w[i] = (lu - ld) / (2 * h)
    lu, _, _ = loss_and_gradient(w, b + h, X, y, l2, sw)
    ld, _, _ = loss_and_gradient(w, b - h, X, y, l2, sw)
    return grad_w, (lu - ld) / (2 * h)


def random_problems(count):
    """Seeded fits: d up to 25, columns scaled 0.1-100x, l2 > 0, both weightings."""
    rng = np.random.default_rng(2024)
    for _ in range(count):
        yield random_problem(rng)


def random_problem(rng):
    n, d = int(rng.integers(30, 300)), int(rng.integers(1, 26))
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0, size=d)
    beta = rng.normal(size=d) * rng.uniform(0.0, 2.0)
    y = ((X / X.std(axis=0)) @ beta + rng.logistic(size=n) > 0).astype(int)
    y[:2] = (0, 1)
    config = TrainConfig(
        l2_lambda=float(10 ** rng.uniform(-3, 1)),
        class_weighting=("none", "inverse-frequency")[int(rng.integers(2))],
    )
    return X, y, config


def loss_terms(model, X, y):
    """The penalized loss and gradient (over w, then b) at the model's weights."""
    sw = _sample_weights(np.asarray(y, dtype=float), model.config.class_weighting)
    loss, grad_w, grad_b = loss_and_gradient(
        model.weights, model.bias, model.stats.apply(X), y, model.config.l2_lambda, sw
    )
    return loss, np.append(grad_w, grad_b)


def descent_reference(X, y, config, learning_rate=0.1):
    """The loss reached by full-batch gradient descent with step halving, the
    solver ``train`` used before Newton's method, kept as written then."""
    Xs = fit_standardization(X).apply(X)
    y = np.asarray(y, dtype=float)
    sw = _sample_weights(y, config.class_weighting)
    w = np.zeros(X.shape[1])
    b = 0.0
    lr = learning_rate
    loss, grad_w, grad_b = loss_and_gradient(w, b, Xs, y, config.l2_lambda, sw)
    for _ in range(config.max_epochs):
        while True:
            w_new = w - lr * grad_w
            b_new = b - lr * grad_b
            new_loss, new_gw, new_gb = loss_and_gradient(
                w_new, b_new, Xs, y, config.l2_lambda, sw
            )
            if new_loss <= loss or lr < 1e-12:
                break
            lr *= 0.5
        improvement = loss - new_loss
        w, b, grad_w, grad_b = w_new, b_new, new_gw, new_gb
        loss = new_loss
        if improvement < config.tolerance:
            break
    return loss


def separable_toy():
    X = np.array([[1.0], [1.2], [0.8], [-1.0], [-1.2], [-0.8]])
    y = np.array([1, 1, 1, 0, 0, 0])
    return X, y


class TestStandardization:
    def test_zero_variance_column_centered_only(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        stats = fit_standardization(X)
        out = stats.apply(X)
        assert np.allclose(out[:, 1], 0.0)
        assert np.allclose(out[:, 0].mean(), 0.0)
        assert np.allclose(out[:, 0].std(), 1.0)


class TestTrain:
    def test_separable_sign_and_accuracy(self):
        X, y = separable_toy()
        model = train(X, y, TrainConfig(l2_lambda=0.0))
        assert model.weights[0] > 0
        preds = (model.predict_proba_matrix(X, model.feature_names) >= 0.5).astype(int)
        assert np.array_equal(preds, y)

    def test_huge_regularization_shrinks_to_prior(self):
        X, y = separable_toy()
        model = train(X, y, TrainConfig(l2_lambda=1e6, class_weighting="none"))
        assert abs(model.weights[0]) < 1e-3
        probs = model.predict_proba_matrix(X, model.feature_names)
        assert np.allclose(probs, 0.5, atol=1e-3)

    def test_single_class_rejected(self):
        X = np.ones((4, 2))
        with pytest.raises(SingleClassInputError):
            train(X, np.ones(4))

    def test_non_finite_rejected(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(NonFiniteFeatureError):
            train(X, np.array([0, 1]))

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 5))
        y = (rng.random(40) < 0.4).astype(int)
        a = train(X, y, TrainConfig())
        b = train(X, y, TrainConfig())
        assert model_bytes(a) == model_bytes(b)

    def test_loss_non_increasing_on_toy(self):
        X, y = separable_toy()
        stats = fit_standardization(X)
        Xs = stats.apply(X)
        sw = np.ones(y.size)
        losses = []
        for epochs in range(1, 40):
            model = train(X, y, TrainConfig(l2_lambda=0.0,
                                            max_epochs=epochs, tolerance=1e-300,
                                            class_weighting="none"))
            loss, _, _ = loss_and_gradient(model.weights, model.bias, Xs, y, 0.0, sw)
            losses.append(loss)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_overshooting_step_retried(self):
        # on these outlying rows the seventh Newton step overshoots: kept
        # as solved, it would raise the loss from 0.23 to 8.4
        X = np.array([[-5.0, -2.0], [6.0, 0.0], [-6.0, -129.0], [-244.0, 1.0], [6.0, -1.0]])
        y = np.array([0, 1, 0, 0, 0])
        Xs = fit_standardization(X).apply(X)
        losses = []
        for epochs in range(1, 12):
            model = train(X, y, TrainConfig(l2_lambda=0.0, max_epochs=epochs,
                                            class_weighting="none"))
            losses.append(loss_and_gradient(model.weights, model.bias, Xs, y, 0.0,
                                            np.ones(y.size))[0])
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 0.2

    def test_singular_hessian_without_penalty(self):
        # a constant column standardizes to zeros: its Hessian row is zero
        X, y = separable_toy()
        X = np.column_stack([X, np.full(y.size, 3.0)])
        model = train(X, y, TrainConfig(l2_lambda=0.0))
        assert np.isfinite(model.weights).all() and model.weights[1] == 0.0
        preds = (model.predict_proba_matrix(X, model.feature_names) >= 0.5).astype(int)
        assert np.array_equal(preds, y)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_max_epochs_below_one_rejected(self, epochs):
        with pytest.raises(ValueError, match="max_epochs"):
            TrainConfig(max_epochs=epochs)

    def test_kkt_oracle(self):
        # the penalized gradient vanishes at the returned weights
        for X, y, config in random_problems(300):
            _, grad = loss_terms(train(X, y, config), X, y)
            assert np.linalg.norm(grad) <= 1e-9

    def test_loss_at_most_descent_reference(self):
        for X, y, config in random_problems(100):
            loss, _ = loss_terms(train(X, y, config), X, y)
            assert loss <= descent_reference(X, y, config)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
        base = train(X, y, TrainConfig())
        for alpha in (4.0, 3.0):
            scaled = X.copy()
            scaled[:, 2] *= alpha
            other = train(scaled, y, TrainConfig())
            probe = rng.normal(size=(10, 4))
            probe_scaled = probe.copy()
            probe_scaled[:, 2] *= alpha
            p_base = base.predict_proba_matrix(probe, base.feature_names)
            p_other = other.predict_proba_matrix(probe_scaled, other.feature_names)
            assert np.allclose(p_base, p_other, atol=1e-6)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            n, d = rng.integers(4, 12), rng.integers(2, 6)
            X = rng.normal(size=(n, d))
            y = (rng.random(n) < 0.5).astype(float)
            if y.sum() in (0, n):
                y[0] = 1 - y[0]
            w = rng.normal(size=d)
            b = float(rng.normal())
            sw = rng.uniform(0.5, 2.0, size=n)
            l2 = float(rng.uniform(0, 2))
            _, gw, gb = loss_and_gradient(w, b, X, y, l2, sw)
            num_gw, num_gb = finite_difference_gradient(w, b, X, y, l2, sw)
            denom = np.maximum(np.abs(gw), 1e-8)
            assert np.max(np.abs(gw - num_gw) / denom) < 1e-5
            assert abs(gb - num_gb) / max(abs(gb), 1e-8) < 1e-5


class TestPredict:
    def make_model(self, weights, bias):
        d = len(weights)
        stats = StandardizationStats(np.zeros(d), np.ones(d))
        return LogisticModel(
            tuple(f"f{i}" for i in range(d)), np.array(weights, dtype=float),
            bias, stats, TrainConfig(),
        )

    def test_zero_model_gives_half(self):
        model = self.make_model([0.0], 0.0)
        assert predict_proba(model, FeatureVector(("f0",), np.array([3.0]))) == 0.5

    def test_bias_monotone_to_one(self):
        previous = 0.5
        for bias in (1.0, 5.0, 20.0, 80.0):
            model = self.make_model([0.0], bias)
            p = predict_proba(model, FeatureVector(("f0",), np.array([0.0])))
            assert p > previous or p == 1.0
            previous = p
        assert previous == pytest.approx(1.0)

    def test_sigmoid_of_two(self):
        model = self.make_model([1.0], 0.0)
        p = predict_proba(model, FeatureVector(("f0",), np.array([2.0])))
        assert p == pytest.approx(0.8807970779778823, abs=1e-12)

    def test_name_mismatch(self):
        model = self.make_model([1.0], 0.0)
        with pytest.raises(FeatureNameMismatchError):
            predict_proba(model, FeatureVector(("wrong",), np.array([1.0])))


class TestRfe:
    def planted_data(self, seed, n=400):
        rng = np.random.default_rng(seed)
        signal = rng.normal(size=n)
        noise = rng.normal(size=n)
        y = (signal + 0.2 * rng.normal(size=n) > 0).astype(int)
        X = np.column_stack([signal, noise])
        return X, y

    def test_noise_feature_eliminated_first(self):
        for seed in range(5):
            X, y = self.planted_data(seed)
            selected, model, history = rfe(
                X, y, TrainConfig(), feature_names=("signal", "noise")
            )
            # first elimination happens after the full fit: round 2 must be signal-only
            assert history[1][0] == ("signal",)
            assert "signal" in selected

    def test_both_informative_beats_singletons(self):
        rng = np.random.default_rng(11)
        n = 600
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        y = ((a + b) > 0).astype(int)
        X = np.column_stack([a, b])
        selected, _, history = rfe(X, y, TrainConfig(), feature_names=("a", "b"))
        aucs = {names: auc for names, auc in history}
        best = max(aucs.values())
        assert aucs[selected] == best
        assert best >= max(auc for names, auc in history if len(names) == 1) - 1e-12

    def test_all_noise_selects_near_chance(self):
        rng = np.random.default_rng(42)
        n = 2000
        X = rng.normal(size=(n, 6))
        y = (rng.random(n) < 0.5).astype(int)
        selected, _, history = rfe(
            X, y, TrainConfig(), validation_fraction=0.3,
            feature_names=tuple(f"n{i}" for i in range(6)),
        )
        best_auc = max(auc for _, auc in history)
        assert 0.4 <= best_auc <= 0.6

    def test_tie_prefers_smaller_subset(self):
        # constant (zero-variance) features keep weight 0, so every subset
        # containing the signal scores identically and the smallest wins
        rng = np.random.default_rng(3)
        informative = rng.normal(size=200)
        y = (informative > 0).astype(int)
        X = np.column_stack([informative, np.ones(200), np.ones(200)])
        selected, _, history = rfe(X, y, TrainConfig(), feature_names=("s", "c1", "c2"))
        assert selected == ("s",)
        # tie among |w|=0 columns drops the later name first
        assert history[1][0] == ("s", "c1")

    def test_needs_two_features(self):
        with pytest.raises(ValueError):
            rfe(np.ones((10, 1)), np.array([0, 1] * 5))


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 3))
        y = (X[:, 1] > 0).astype(int)
        model = train(X, y, TrainConfig(), ("a", "b", "c"))
        path = tmp_path / "model.json"
        save_model(model, path)
        reloaded = load_model(path)
        assert reloaded.feature_names == model.feature_names
        assert np.array_equal(reloaded.weights, model.weights)
        assert reloaded.bias == model.bias
        assert np.array_equal(reloaded.stats.means, model.stats.means)
        assert model_bytes(reloaded) == model_bytes(model)

    def test_loads_file_with_legacy_seed_config(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "format": "banevasion-logistic/1",
            "feature_names": ["a", "b"],
            "weights": [0.5, -0.25],
            "bias": 0.125,
            "means": [1.0, 2.0],
            "stds": [1.0, 0.0],
            "config": {
                "class_weighting": "inverse-frequency", "l2_lambda": 1.0,
                "learning_rate": 0.1, "max_epochs": 2000, "seed": 7,
                "tolerance": 1e-08,
            },
        }))
        model = load_model(path)
        assert model.config == TrainConfig()
        assert model.feature_names == ("a", "b")
        assert model.weights.tolist() == [0.5, -0.25]
        assert "seed" not in json.loads(model_bytes(model))["config"]
