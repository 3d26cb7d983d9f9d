import json
import math
import re

import numpy as np
import pytest

from pressmat import mtnet
from pressmat.mtnet import (
    TrainConfig,
    fit_bmi_class_head,
    forward,
    hidden_activations,
    load_model,
    predict_bmi_class,
    save_model,
    train,
)


def loss_subject(probs: np.ndarray, true_identity: int) -> float:
    """Per-sample cross-entropy on a one-hot target: -log p[target], floored."""
    return -math.log(max(float(probs[true_identity]), mtnet.LOG_EPS))


def loss_bmi(estimate: float, true_bmi: float) -> float:
    """Per-sample half squared error."""
    d = true_bmi - estimate
    return 0.5 * d * d


def batch_loss_grad(model, features, identities, bmi, weight_decay=mtnet.WEIGHT_DECAY):
    """The training objective and its gradient at the model's parameters."""
    xn = (np.atleast_2d(features) - model.norm_mean) / model.norm_std
    y_idx = mtnet._identity_indices(model.subject_ids, identities)
    theta = mtnet._pack(model.weights, model.biases)
    dims = mtnet._layer_dims(model.n_features, model.n_subjects)
    return mtnet._batch_loss_grad(theta, dims, xn, y_idx, np.asarray(bmi, dtype=float),
                                  weight_decay)


def random_model(n=8, F=14, M=5, seed=42):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, F))
    subjects = np.array([f"P{i % M}" for i in range(n)])
    bmi = rng.uniform(18, 35, size=n)
    cfg = TrainConfig(max_iterations=1, seed=seed)
    return train(X, subjects, bmi, cfg), X, subjects, bmi


class TestForward:
    def test_zero_network_uniform_probs_zero_bmi(self):
        model, X, *_ = random_model(M=13, n=13)
        for w in model.weights:
            w[:] = 0.0
        for b in model.biases:
            b[:] = 0.0
        out = forward(model, X)
        np.testing.assert_allclose(out.identity_probs, 1.0 / 13.0, atol=1e-12)
        np.testing.assert_allclose(out.bmi_estimate, 0.0, atol=1e-12)

    def test_probs_sum_to_one(self):
        model, X, *_ = random_model()
        out = forward(model, X)
        np.testing.assert_allclose(out.identity_probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out.identity_probs >= 0)
        assert out.bmi_class is None  # no class head fitted

    def test_logit_shift_invariance(self):
        model, X, *_ = random_model()
        out1 = forward(model, X)
        model.biases[-2][:] += 123.456  # constant shift on identity logits
        out2 = forward(model, X)
        np.testing.assert_allclose(out1.identity_probs, out2.identity_probs, atol=1e-12)

    def test_dimension_mismatch(self):
        model, X, *_ = random_model(F=14)
        with pytest.raises(ValueError):
            forward(model, X[:, :10])


class TestLosses:
    def test_loss_subject_uniform(self):
        ce, _ = mtnet._cross_entropy(np.zeros((1, 13)), np.array([4]))
        assert ce == pytest.approx(math.log(13))
        assert loss_subject(np.full(13, 1.0 / 13.0), 4) == pytest.approx(math.log(13))

    def test_loss_subject_perfect_and_half(self):
        ce, dlogits = mtnet._cross_entropy(np.array([[0.0, 0.0, 800.0, 0.0, 0.0]]),
                                           np.array([2]))
        assert ce == 0.0
        np.testing.assert_allclose(dlogits, 0.0, atol=2 * mtnet.LOG_EPS)
        ce, dlogits = mtnet._cross_entropy(np.zeros((2, 2)), np.array([0, 1]))
        assert ce == pytest.approx(math.log(2))
        np.testing.assert_allclose(dlogits, [[-0.25, 0.25], [0.25, -0.25]])

    def test_loss_subject_clamps_zero(self):
        ce, _ = mtnet._cross_entropy(np.array([[0.0, -800.0]]), np.array([1]))
        assert ce == pytest.approx(-math.log(mtnet.LOG_EPS))
        assert loss_subject(np.array([1.0, 0.0]), 1) == pytest.approx(-math.log(1e-12))

    def test_loss_bmi(self):
        # the BMI term is the mean half squared error of the BMI head
        model, X, subjects, _ = random_model()
        est = forward(model, X).bmi_estimate
        offsets = np.array([0.0, 2.0, -7.0, 0.0, 1.0, 0.0, 0.0, 3.0])
        exact, _ = batch_loss_grad(model, X, subjects, est, weight_decay=0.0)
        shifted, _ = batch_loss_grad(model, X, subjects, est + offsets, weight_decay=0.0)
        assert shifted - exact == pytest.approx(0.5 * (offsets**2).mean(), rel=1e-9)
        assert loss_bmi(20.0, 22.0) == pytest.approx(2.0)

    def test_batch_loss_matches_per_sample_oracle(self):
        model, X, subjects, bmi = random_model(n=12, M=4)
        # push subject P3's logit far down so its probability falls under LOG_EPS
        model.biases[-2][3] -= 80.0
        out = forward(model, X)
        p3 = out.identity_probs[subjects == "P3", 3]
        assert len(p3) and np.all(p3 < mtnet.LOG_EPS)
        idx = mtnet._identity_indices(model.subject_ids, subjects)
        per_sample = [loss_subject(out.identity_probs[i], idx[i])
                      + loss_bmi(out.bmi_estimate[i], bmi[i]) for i in range(len(X))]
        decay = 1e-3 * sum(float((w * w).sum()) for w in model.weights)
        loss, _ = batch_loss_grad(model, X, subjects, bmi, weight_decay=1e-3)
        assert loss == pytest.approx(math.fsum(per_sample) / len(X) + decay, rel=1e-12)

    def test_loss_total_perfect_zero_decay(self):
        model, X, subjects, bmi = random_model()
        out = forward(model, X)
        # build a batch the model predicts perfectly: use its own outputs
        pred_sid = np.array(model.subject_ids)[out.identity_probs.argmax(1)]
        total, _ = batch_loss_grad(model, X, pred_sid, out.bmi_estimate, weight_decay=0.0)
        ce_floor = -np.log(out.identity_probs.max(axis=1)).mean()
        assert total == pytest.approx(ce_floor, abs=1e-12)

    def test_loss_total_decay_term(self):
        model, X, subjects, bmi = random_model()
        base, _ = batch_loss_grad(model, X, subjects, bmi, weight_decay=1e-4)
        sq = sum(float((w * w).sum()) for w in model.weights)
        no_decay, _ = batch_loss_grad(model, X, subjects, bmi, weight_decay=0.0)
        assert base - no_decay == pytest.approx(1e-4 * sq, rel=1e-9)

    def test_duplicated_batch_same_gradient(self):
        model, X, subjects, bmi = random_model()
        _, g1 = batch_loss_grad(model, X, subjects, bmi)
        _, g2 = batch_loss_grad(
            model,
            np.vstack([X, X]),
            np.concatenate([subjects, subjects]),
            np.concatenate([bmi, bmi]),
        )
        np.testing.assert_allclose(g1, g2, atol=1e-12)


class TestGradient:
    def test_matches_finite_differences(self):
        model, X, subjects, bmi = random_model(n=8, F=14, M=5, seed=7)
        xn = (X - model.norm_mean) / model.norm_std
        y = mtnet._identity_indices(model.subject_ids, subjects)
        dims = mtnet._layer_dims(14, 5)
        theta = mtnet._pack(model.weights, model.biases)

        def fun(t):
            return mtnet._batch_loss_grad(t, dims, xn, y, bmi, 1e-4)

        _, g = fun(theta)
        rng = np.random.default_rng(0)
        h = 1e-5
        for i in rng.choice(len(theta), size=50, replace=False):
            tp = theta.copy(); tp[i] += h
            tm = theta.copy(); tm[i] -= h
            fd = (fun(tp)[0] - fun(tm)[0]) / (2 * h)
            rel = abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-12)
            assert rel < 1e-4

    def test_zero_loss_configuration_leaves_decay_gradient(self):
        # with zero weight decay and an exactly-fit batch, gradient of the BMI
        # head bias is the mean residual = 0; check the decay-only identity
        model, X, subjects, bmi = random_model()
        theta = mtnet._pack(model.weights, model.biases)
        dims = mtnet._layer_dims(14, 5)
        xn = (X - model.norm_mean) / model.norm_std
        y = mtnet._identity_indices(model.subject_ids, subjects)
        _, g_with = mtnet._batch_loss_grad(theta, dims, xn, y, bmi, 1e-3)
        _, g_without = mtnet._batch_loss_grad(theta, dims, xn, y, bmi, 0.0)
        decay_grad = g_with - g_without
        w_flat = np.concatenate([w.ravel() for w in model.weights])
        expected = np.concatenate([2e-3 * w_flat, np.zeros(len(theta) - len(w_flat))])
        np.testing.assert_allclose(decay_grad, expected, atol=1e-12)


class TestTraining:
    def test_separable_two_subjects(self):
        rng = np.random.default_rng(3)
        X = np.vstack([
            rng.normal(loc=-2.0, scale=0.3, size=(10, 4)),
            rng.normal(loc=+2.0, scale=0.3, size=(10, 4)),
        ])
        subjects = np.array(["A"] * 10 + ["B"] * 10)
        bmi = np.where(subjects == "A", 20.0, 30.0)
        model = train(X, subjects, bmi, TrainConfig(max_iterations=200, seed=0))
        out = forward(model, X)
        pred = np.array(model.subject_ids)[out.identity_probs.argmax(1)]
        assert (pred == subjects).mean() == 1.0

    def test_affine_bmi_recovered(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(40, 1))
        bmi = 24.0 + 6.0 * x[:, 0]
        # Identity follows the input, so the two heads do not compete over noise labels.
        subjects = np.where(x[:, 0] > 0, "A", "B")
        model = train(x, subjects, bmi, TrainConfig(max_iterations=400, seed=1))
        pred = forward(model, x).bmi_estimate
        ss_res = ((bmi - pred) ** 2).sum()
        ss_tot = ((bmi - bmi.mean()) ** 2).sum()
        assert 1 - ss_res / ss_tot > 0.999

    def test_bit_identical_given_seed(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 6))
        subjects = np.array(["A", "B", "C"] * 4)
        bmi = rng.uniform(18, 35, size=12)
        cfg = TrainConfig(max_iterations=40, seed=9)
        m1 = train(X, subjects, bmi, cfg)
        m2 = train(X, subjects, bmi, cfg)
        for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
            assert np.array_equal(a, b)

    def test_single_subject_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((4, 3)), ["A"] * 4, np.full(4, 22.0), TrainConfig())

    def test_normalization_round_trip(self):
        # the stored statistics z-score the training rows and map them back
        model, X, *_ = random_model()
        xn = (X - model.norm_mean) / model.norm_std
        np.testing.assert_allclose(xn.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(xn.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(xn * model.norm_std + model.norm_mean, X, atol=1e-12)


class TestBmiClassHead:
    def _trained(self):
        rng = np.random.default_rng(8)
        X = np.vstack([rng.normal(loc=3 * k, scale=0.4, size=(12, 3)) for k in range(5)])
        subjects = np.array(sum(([f"P{k}"] * 12 for k in range(5)), []))
        bmi = np.repeat([18.0, 22.0, 26.0, 30.0, 34.0], 12)
        model = train(X, subjects, bmi, TrainConfig(max_iterations=150, seed=3))
        labels = np.repeat(np.arange(5), 12)
        return model, X, labels

    def test_separable_reaches_full_accuracy(self):
        model, X, labels = self._trained()
        fit_bmi_class_head(model, X, labels)
        pred = predict_bmi_class(model, X)
        assert (pred == labels).mean() == 1.0

    def test_missing_class_named(self):
        model, X, labels = self._trained()
        bad = labels.copy()
        bad[bad == 3] = 2
        with pytest.raises(ValueError, match="class 3"):
            fit_bmi_class_head(model, X, bad)

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(500, 4))
        subjects = np.array(["A", "B"] * 250)
        bmi = rng.uniform(18, 35, 500)
        model = train(X, subjects, bmi, TrainConfig(max_iterations=30, seed=4))
        labels = rng.integers(0, 5, size=500)
        fit_bmi_class_head(model, X, labels, max_iterations=300)
        acc = (predict_bmi_class(model, X) == labels).mean()
        assert 0.1 <= acc <= 0.35

    def test_activations_shape(self):
        model, X, _ = self._trained()
        h = hidden_activations(model, X)
        assert h.shape == (len(X), 256)
        assert np.all(np.abs(h) <= 1.0)

    def test_head_competitive_with_bmi_thresholding(self):
        # clusters are BMI quantile bands; the logistic head should be within
        # 2 points of simply thresholding the (accurate) BMI head output
        rng = np.random.default_rng(14)
        n = 300
        x = rng.uniform(-1, 1, size=(n, 3))
        bmi = 26.0 + 8.0 * x[:, 0] + 0.5 * x[:, 1]
        subjects = np.array(["A", "B"] * (n // 2))
        model = train(x, subjects, bmi, TrainConfig(max_iterations=300, seed=5))
        edges = np.quantile(bmi, [0.2, 0.4, 0.6, 0.8])
        labels = np.digitize(bmi, edges)
        fit_bmi_class_head(model, x, labels, max_iterations=500)
        head_acc = (predict_bmi_class(model, x) == labels).mean()
        threshold_acc = (np.digitize(forward(model, x).bmi_estimate, edges) == labels).mean()
        assert head_acc >= threshold_acc - 0.02


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model, X, subjects, bmi = random_model()
        model.feature_mask = (True,) * 14
        labels = np.array([i % 5 for i in range(len(X))])
        fit_bmi_class_head(model, X, labels, max_iterations=50)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path)
        out1 = forward(model, X)
        out2 = forward(loaded, X)
        np.testing.assert_array_equal(out1.identity_probs, out2.identity_probs)
        np.testing.assert_array_equal(out1.bmi_estimate, out2.bmi_estimate)
        np.testing.assert_array_equal(
            predict_bmi_class(model, X), predict_bmi_class(loaded, X)
        )
        # forward's class argmax against the head applied to the trunk output
        h = hidden_activations(model, X)
        expected = (h @ model.class_head.weight + model.class_head.bias).argmax(axis=1)
        np.testing.assert_array_equal(out1.bmi_class, expected)
        np.testing.assert_array_equal(out2.bmi_class, predict_bmi_class(loaded, X))
        assert loaded.feature_mask == model.feature_mask

    # The training constants that a version 2 file's config held.
    V2_CONFIG = {"weight_decay": 1e-4, "lbfgs_memory": 10, "grad_tol": 1e-6, "loss_tol": 1e-10}

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_version_file_rejected(self, tmp_path, version):
        model, *_ = random_model()
        path = tmp_path / "model.json"
        save_model(model, str(path))
        doc = json.loads(path.read_text())
        assert doc["version"] == 3
        assert doc["config"] == {"max_iterations": 1, "seed": 42}
        doc["version"] = version
        doc["config"].update(self.V2_CONFIG)
        if version == 1:  # also an optimizer choice, a learning rate and grid_meta
            doc["config"].update(optimizer="lbfgs", learning_rate=0.01)
            doc["grid_meta"] = None
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"unsupported model version {version}"):
            load_model(str(path))

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(hidden_sizes=[7]), r"hidden sizes \[7\] are not"),
        (lambda doc: (doc["weights"].pop(0), doc["biases"].pop(0)),
         "shapes do not chain from 14 features"),
        (lambda doc: doc["weights"].reverse(), "shapes do not chain"),
        (lambda doc: doc["biases"][2].pop(), "shapes do not chain"),
        (lambda doc: [row.pop() for row in doc["class_head"]["weight"]], "shapes do not chain"),
    ], ids=["hidden_sizes", "first_layer_removed", "layers_reversed", "short_bias",
            "class_head_narrowed"])
    def test_malformed_network_rejected_with_path(self, tmp_path, edit, message):
        model, X, *_ = random_model()
        fit_bmi_class_head(model, X, np.arange(len(X)) % 5, max_iterations=1)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"model\.json: .*{message}"):
            load_model(str(path))

    @pytest.mark.parametrize("std", [0.0, -1.0, float("inf"), float("nan")])
    def test_non_positive_or_non_finite_norm_std_rejected_with_path(self, tmp_path, std):
        model, *_ = random_model()
        model.norm_std[3] = std
        path = tmp_path / "model.json"
        save_model(model, str(path))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*norm_std must hold"):
            load_model(str(path))

    def test_repeated_subject_ids_rejected_with_path(self, tmp_path):
        model, *_ = random_model()
        model.subject_ids = ("P0", "P1", "P0", "P3", "P4")
        path = tmp_path / "model.json"
        save_model(model, str(path))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*repeat an id"):
            load_model(str(path))
