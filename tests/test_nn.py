import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nn_gradient_check import gradient_check
from reference_loaders import model_arrays, outcome, reference_load_model
from tableqa import harness, typerec
from tableqa.cli import main
from tableqa.errors import (
    DimensionMismatch,
    EmptyData,
    LabelOutOfRange,
    UntrainedModel,
)
from tableqa.nn import (
    MlpModel,
    MlpSpec,
    OutputHead,
    TrainConfig,
    _BN_EPS,
    _BN_MOMENTUM,
    _backprop,
    _forward,
    _validate_data,
    dump_model,
    init_model,
    load_model,
    parse_model,
    predict_batch,
    save_model,
    softmax,
    train,
    upsample_positives,
)

BIN = OutputHead.BINARY2
SOFT7 = OutputHead.SOFTMAX7


def blob_data(n_per_class=40, seed=4):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label, center in [(0, (-2.0, -2.0)), (1, (2.0, 2.0))]:
        pts = rng.normal(loc=center, scale=0.5, size=(n_per_class, 2))
        xs.extend(pts)
        ys.extend([label] * n_per_class)
    return [(x, y) for x, y in zip(xs, ys)]


def train_mode_gradients(model, x, y):
    """One training-mode _forward/_backprop pass: probs, the batch-norm
    layers' batch means and variances, and the gradients in
    ``parameter_arrays`` order."""
    widths = model.spec.hidden
    means, variances = [np.empty(w) for w in widths], [np.empty(w) for w in widths]
    probs, cache = _forward(model, x, means, variances)
    grads = [np.empty_like(a) for _, a in model.parameter_arrays()]
    _backprop(model, probs, np.eye(model.spec.output.n_classes)[y], cache, grads)
    return probs, means, variances, grads


def forward(model, x):
    """Inference probabilities for one input vector."""
    return predict_batch(model, np.asarray(x)[None, :])[0]


def accuracy(model, data):
    x = np.array([np.asarray(v) for v, _ in data])
    y = np.array([t for _, t in data])
    preds = predict_batch(model, x).argmax(axis=1)
    return float((preds == y).mean())


class TestForward:
    def test_all_zero_parameters_give_uniform_output(self):
        spec = MlpSpec(input_dim=3, hidden=(4,), output=SOFT7)
        model = init_model(spec, seed=0)
        for w in model.weights:
            w[:] = 0.0
        out = forward(model, np.array([1.0, -2.0, 3.0]))
        assert np.allclose(out, np.full(7, 1 / 7))

    def test_single_linear_layer_identity_weights(self):
        spec = MlpSpec(input_dim=2, hidden=(), output=BIN)
        model = init_model(spec, seed=0)
        model.weights[0] = np.eye(2)
        model.biases[0] = np.zeros(2)
        out = forward(model, np.zeros(2))
        assert np.allclose(out, [0.5, 0.5])

    def test_hand_computed_two_two_two(self):
        spec = MlpSpec(input_dim=2, hidden=(2,), output=BIN)
        model = init_model(spec, seed=0)
        model.weights[0] = np.array([[1.0, -1.0], [0.5, 2.0]])
        model.biases[0] = np.array([0.1, -0.2])
        model.weights[1] = np.array([[0.3, -0.3], [0.2, 0.1]])
        model.biases[1] = np.array([0.0, 0.5])
        # by hand: z0 = [2.1, 2.8]; a fresh batch norm (running mean 0,
        # variance 1, gamma 1, beta 0) scales it by s, relu leaves it
        # logits = [(0.63 + 0.56) s, (-0.63 + 0.28) s + 0.5]
        s = 1.0 / math.sqrt(1.0 + 1e-5)
        e0, e1 = math.exp(1.19 * s), math.exp(-0.35 * s + 0.5)
        expected = [e0 / (e0 + e1), e1 / (e0 + e1)]
        out = forward(model, np.array([1.0, 2.0]))
        assert np.allclose(out, expected, atol=1e-12)

    def test_hand_computed_with_batchnorm_running_stats(self):
        spec = MlpSpec(input_dim=2, hidden=(2,), output=BIN)
        model = init_model(spec, seed=0)
        model.weights[0] = np.array([[1.0, -1.0], [0.5, 2.0]])
        model.biases[0] = np.array([0.1, -0.2])
        model.weights[1] = np.array([[1.0, 0.0], [0.0, 1.0]])
        model.biases[1] = np.zeros(2)
        bn = model.batchnorms[0]
        bn.gamma = np.array([2.0, 1.0])
        bn.beta = np.array([0.0, 1.0])
        bn.running_mean = np.array([1.0, 2.0])
        bn.running_var = np.array([4.0, 0.25])
        z = [2.1, 2.8]
        h = [
            max(0.0, (z[0] - 1.0) / math.sqrt(4.0 + 1e-5) * 2.0 + 0.0),
            max(0.0, (z[1] - 2.0) / math.sqrt(0.25 + 1e-5) * 1.0 + 1.0),
        ]
        e0, e1 = math.exp(h[0]), math.exp(h[1])
        expected = [e0 / (e0 + e1), e1 / (e0 + e1)]
        out = forward(model, np.array([1.0, 2.0]))
        assert np.allclose(out, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        model = init_model(MlpSpec(2, (2,), BIN), seed=0)
        with pytest.raises(DimensionMismatch):
            predict_batch(model, np.zeros((1, 3)))

    def test_softmax_normalized_on_random_vectors(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            # normalization holds even for wild scales
            v = rng.normal(scale=rng.uniform(0.1, 50), size=rng.integers(2, 9))
            assert abs(softmax(v).sum() - 1.0) < 1e-9
        for _ in range(300):
            # strict openness needs logit gaps below the float64 saturation point
            v = rng.normal(scale=rng.uniform(0.1, 3), size=rng.integers(2, 9))
            p = softmax(v)
            assert np.all(p > 0) and np.all(p < 1)


class TestTrain:
    def test_separable_blobs(self):
        data = blob_data()
        cfg = TrainConfig(learning_rate=0.05, epochs=200, seed=1, batch_size=16)
        model = train(MlpSpec(2, (8,), BIN), data, cfg)
        assert accuracy(model, data) >= 0.95

    def test_zero_epochs_returns_initialization(self):
        data = blob_data(n_per_class=5)
        cfg = TrainConfig(epochs=0, seed=9)
        model = train(MlpSpec(2, (4,), BIN), data, cfg)
        init = init_model(MlpSpec(2, (4,), BIN), seed=9)
        for a, b in zip(model.weights, init.weights):
            assert np.array_equal(a, b)

    def test_same_seed_bit_identical(self):
        data = blob_data(n_per_class=10)
        cfg = TrainConfig(epochs=20, seed=7)
        m1 = train(MlpSpec(2, (4,), BIN), data, cfg)
        m2 = train(MlpSpec(2, (4,), BIN), data, cfg)
        assert dump_model(m1) == dump_model(m2)

    def test_loss_non_increasing_full_batch_small_lr(self):
        data = blob_data(n_per_class=20)
        cfg = TrainConfig(learning_rate=0.01, epochs=60, seed=3,
                          batch_size=len(data))
        model = train(MlpSpec(2, (6,), BIN), data, cfg)
        losses = model.loss_history
        assert len(losses) == 60
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-6

    def test_empty_data_rejected(self):
        with pytest.raises(EmptyData):
            train(MlpSpec(2, (2,), BIN), [], TrainConfig())

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            train(MlpSpec(2, (2,), BIN), [(np.zeros(2), 2)], TrainConfig())

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            train(MlpSpec(2, (2,), BIN), [(np.zeros(3), 0)], TrainConfig())

    @pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0, -0.1])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        # a nan or inf step trains an all-nan model that load_model rejects
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)


class TestGradientCheck:
    def batch(self, dim, n_classes, n=3, seed=0):
        rng = np.random.default_rng(seed)
        return [(rng.normal(size=dim), int(rng.integers(0, n_classes)))
                for _ in range(n)]

    def test_select_architecture(self):
        spec = MlpSpec(25, (32, 16, 8), BIN)
        err = gradient_check(spec, self.batch(25, 2), epsilon=1e-5, seed=0)
        assert err < 1e-4

    def test_column_type_architecture(self):
        spec = MlpSpec(9, (32, 32), SOFT7)
        err = gradient_check(spec, self.batch(9, 7), epsilon=1e-5, seed=1)
        assert err < 1e-4

    def test_small_select_head(self):
        spec = MlpSpec(25, (16,), BIN)
        err = gradient_check(spec, self.batch(25, 2), epsilon=1e-5, seed=4)
        assert err < 1e-4

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            gradient_check(MlpSpec(2, (2,), BIN), self.batch(2, 2), epsilon=0.5)

    def test_zero_loss_point_has_vanishing_gradients(self):
        # logits pinned far into the correct class: loss ~ 0, gradients ~ 0
        spec = MlpSpec(2, (), BIN)
        model = init_model(spec, seed=0)
        model.weights[0] = np.array([[40.0, -40.0], [40.0, -40.0]])
        model.biases[0] = np.zeros(2)
        x = np.array([[1.0, 1.0]])
        y = np.array([0])
        _, _, _, (grad_w0, grad_b0) = train_mode_gradients(model, x, y)
        assert np.all(np.abs(grad_w0) < 1e-12)
        assert np.all(np.abs(grad_b0) < 1e-12)

    def test_constant_input_rows_give_no_first_layer_gradient(self):
        spec = MlpSpec(2, (3,), BIN)
        model = init_model(spec, seed=5)
        model.batchnorms[0].beta[:] = 1.0     # every hidden unit passes relu
        const = np.array([2.0, -0.5])
        x = np.tile(const, (4, 1))
        y = np.array([0, 1, 0, 1])
        grad_w0, grad_b0, _, _, _, grad_beta0 = train_mode_gradients(model, x, y)[3]
        # the gradient reaches the batch norm, whose batch mean absorbs any
        # change the first layer could make to identical rows
        assert np.abs(grad_beta0).max() > 1e-3
        assert np.abs(grad_w0).max() < 1e-12
        assert np.abs(grad_b0).max() < 1e-12


class TestUpsample:
    def test_imbalanced_corpus_counts(self):
        data = [(i, 1) for i in range(273)] + [(i, 0) for i in range(1773)]
        up = upsample_positives(data, factor=6)
        assert sum(1 for _, y in up if y == 1) == 1638
        assert sum(1 for _, y in up if y == 0) == 1773

    def test_factor_one_is_identity_multiset(self):
        data = [(1, 1), (2, 0), (3, 1)]
        up = upsample_positives(data, factor=1)
        assert sorted(up) == sorted(data)

    def test_small_arithmetic(self):
        data = [(1, 1), (2, 1), (3, 0), (4, 0), (5, 0)]
        up = upsample_positives(data, factor=3)
        assert sum(1 for _, y in up if y == 1) == 6
        assert sum(1 for _, y in up if y == 0) == 3

    def test_shuffle_is_seeded(self):
        data = [(i, i % 2) for i in range(20)]
        assert upsample_positives(data, 2, seed=5) == upsample_positives(data, 2, seed=5)
        assert upsample_positives(data, 2, seed=5) != upsample_positives(data, 2, seed=6)

    def test_non_binary_rejected(self):
        with pytest.raises(LabelOutOfRange):
            upsample_positives([(1, 3)], factor=2)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        data = blob_data(n_per_class=8)
        model = train(MlpSpec(2, (4, 3), BIN), data,
                      TrainConfig(epochs=15, seed=2))
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.spec == model.spec
        for (n1, a1), (n2, a2) in zip(model.parameter_arrays(),
                                      loaded.parameter_arrays()):
            assert n1 == n2
            assert np.array_equal(a1, a2)
        for bn1, bn2 in zip(model.batchnorms, loaded.batchnorms):
            assert np.array_equal(bn1.running_mean, bn2.running_mean)
            assert np.array_equal(bn1.running_var, bn2.running_var)

    def test_dump_is_loadable_text(self):
        model = init_model(MlpSpec(3, (2,), SOFT7), seed=0)
        text = dump_model(model)
        assert text.startswith("tableqa-mlp v1\n")
        again = parse_model(text)
        assert dump_model(again) == text

    def test_inference_identical_after_round_trip(self, tmp_path):
        data = blob_data(n_per_class=8)
        model = train(MlpSpec(2, (4,), BIN), data, TrainConfig(epochs=10, seed=6))
        save_model(model, tmp_path / "m.model")
        loaded = load_model(tmp_path / "m.model")
        x = np.array([0.3, -1.2])
        assert np.array_equal(forward(model, x), forward(loaded, x))


# ---------------------------------------------------------------------------
# Reference: the per-array SGD step that train replaced, kept verbatim
# (names prefixed) so the flat-buffer step can be held to its exact output.
# ---------------------------------------------------------------------------

def reference_forward_train(model: MlpModel, x: np.ndarray, update_running: bool):
    """Training-mode forward pass; returns probs and the backprop cache."""
    cache = {"inputs": [], "pre_bn": [], "bn": [], "pre_relu": []}
    h = x
    for i in range(model.n_hidden):
        cache["inputs"].append(h)
        z = h @ model.weights[i] + model.biases[i]
        cache["pre_bn"].append(z)
        bn = model.batchnorms[i]
        mu = z.mean(axis=0)
        var = z.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        z_hat = (z - mu) * inv_std
        cache["bn"].append((mu, var, inv_std, z_hat))
        if update_running:
            bn.running_mean = _BN_MOMENTUM * bn.running_mean + (1 - _BN_MOMENTUM) * mu
            bn.running_var = _BN_MOMENTUM * bn.running_var + (1 - _BN_MOMENTUM) * var
        z = bn.gamma * z_hat + bn.beta
        cache["pre_relu"].append(z)
        h = np.maximum(z, 0.0)
    cache["inputs"].append(h)
    logits = h @ model.weights[-1] + model.biases[-1]
    return softmax(logits), cache


def reference_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.clip(picked, 1e-300, None))))


def reference_backward(model: MlpModel, probs, labels, cache):
    """Gradients of mean cross-entropy wrt every trainable array."""
    n = len(labels)
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    grads_bn = [None] * model.n_hidden

    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n

    grads_w[-1] = cache["inputs"][-1].T @ d_logits
    grads_b[-1] = d_logits.sum(axis=0)
    d_h = d_logits @ model.weights[-1].T

    for i in reversed(range(model.n_hidden)):
        d_z = d_h * (cache["pre_relu"][i] > 0)
        mu, var, inv_std, z_hat = cache["bn"][i]
        bn = model.batchnorms[i]
        d_gamma = (d_z * z_hat).sum(axis=0)
        d_beta = d_z.sum(axis=0)
        z_centered = cache["pre_bn"][i] - mu
        d_zhat = d_z * bn.gamma
        d_var = (d_zhat * z_centered).sum(axis=0) * -0.5 * inv_std**3
        d_mu = -(d_zhat.sum(axis=0)) * inv_std \
            + d_var * (-2.0 / n) * z_centered.sum(axis=0)
        d_z = d_zhat * inv_std + d_var * 2.0 * z_centered / n + d_mu / n
        grads_bn[i] = (d_gamma, d_beta)
        grads_w[i] = cache["inputs"][i].T @ d_z
        grads_b[i] = d_z.sum(axis=0)
        if i > 0:
            d_h = d_z @ model.weights[i].T
    return grads_w, grads_b, grads_bn


def _validate_data(spec: MlpSpec, data):
    if not data:
        raise EmptyData("training data is empty")
    n_classes = spec.output.n_classes
    for x, y in data:
        if len(x) != spec.input_dim:
            raise DimensionMismatch(
                f"example has dimension {len(x)}, expected {spec.input_dim}"
            )
        if not (0 <= int(y) < n_classes):
            raise LabelOutOfRange(f"label {y} outside [0, {n_classes})")


def reference_train(spec: MlpSpec, data, cfg: TrainConfig) -> MlpModel:
    """Seeded mini-batch SGD on softmax cross-entropy."""
    _validate_data(spec, data)
    x_all = np.array([np.asarray(x, dtype=np.float64) for x, _ in data])
    y_all = np.array([int(y) for _, y in data])

    model = init_model(spec, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    n = len(data)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, yb = x_all[idx], y_all[idx]
            probs, cache = reference_forward_train(model, xb, update_running=True)
            epoch_loss += reference_cross_entropy(probs, yb)
            n_batches += 1
            grads_w, grads_b, grads_bn = reference_backward(model, probs, yb, cache)
            for i in range(len(model.weights)):
                model.weights[i] -= cfg.learning_rate * grads_w[i]
                model.biases[i] -= cfg.learning_rate * grads_b[i]
            for i, g in enumerate(grads_bn):
                model.batchnorms[i].gamma -= cfg.learning_rate * g[0]
                model.batchnorms[i].beta -= cfg.learning_rate * g[1]
        model.loss_history.append(epoch_loss / max(n_batches, 1))
    return model


def random_training_case(head, input_dim, hidden, n, seed):
    rng = np.random.default_rng(seed)
    spec = MlpSpec(input_dim, hidden, head)
    data = [(rng.normal(scale=2.0, size=input_dim),
             int(rng.integers(0, head.n_classes))) for _ in range(n)]
    return spec, data


class TestMatchesReferenceTraining:
    @settings(max_examples=200, deadline=None)
    @given(head=st.sampled_from([BIN, SOFT7]),
           input_dim=st.integers(1, 6),
           hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
           n=st.integers(1, 20),
           batch_size=st.integers(1, 24),
           epochs=st.integers(0, 3),
           learning_rate=st.sampled_from([0.01, 0.1, 0.5]),
           seed=st.integers(0, 2**16))
    # the last batch holds one example
    @example(head=BIN, input_dim=3, hidden=(4, 3), n=9,
             batch_size=4, epochs=3, learning_rate=0.1, seed=1)
    # one batch covers every example
    @example(head=SOFT7, input_dim=2, hidden=(5, 4, 3), n=6,
             batch_size=8, epochs=2, learning_rate=0.5, seed=2)
    @example(head=BIN, input_dim=4, hidden=(3,), n=5,
             batch_size=2, epochs=0, learning_rate=0.01, seed=3)
    def test_generated_cases(self, head, input_dim, hidden, n,
                             batch_size, epochs, learning_rate, seed):
        spec, data = random_training_case(head, input_dim, hidden, n, seed)
        cfg = TrainConfig(learning_rate=learning_rate, epochs=epochs, seed=seed,
                          batch_size=batch_size)
        model, expected = train(spec, data, cfg), reference_train(spec, data, cfg)
        assert dump_model(model) == dump_model(expected)
        assert model.loss_history == expected.loss_history

    def test_seed7_fixture_models(self, cli_workspace, fixtures_dir, tmp_path,
                                  monkeypatch):
        # the fixture workspace was trained by train; retrain each MLP task
        # through the CLI with the reference step and compare the files
        monkeypatch.setattr(harness, "train", reference_train)
        monkeypatch.setattr(typerec, "train", reference_train)
        fx = str(fixtures_dir)
        inputs = {
            "column-type": ["--labels", f"{fx}/column_labels.txt"],
            "select": ["--manifest", f"{fx}/manifest.txt",
                       "--embeddings", f"{fx}/pipeline.vec"],
            "where": ["--manifest", f"{fx}/manifest.txt",
                      "--embeddings", f"{fx}/pipeline.vec"],
        }
        for task, args in inputs.items():
            out = tmp_path / f"{task}.model"
            assert main(["train", "--task", task, "--workspace", str(cli_workspace),
                         "--seed", "7", "--out", str(out)] + args) == 0
            expected = (cli_workspace / "models" / f"{task}.model").read_bytes()
            assert out.read_bytes() == expected


class TestGradientEntryPoints:
    def test_backward_matches_reference(self):
        model = init_model(MlpSpec(4, (5, 3), BIN), seed=3)
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(6, 4)), rng.integers(0, 2, size=6)
        probs, means, variances, got = train_mode_gradients(model, x, y)
        ref_probs, ref_cache = reference_forward_train(model, x, False)
        assert np.array_equal(probs, ref_probs)
        # the batch statistics the running blend consumes
        ref_stats = [bn[:2] for bn in ref_cache["bn"]]
        assert len(means) == len(variances) == len(ref_stats)
        for mu, var, (ref_mu, ref_var) in zip(means, variances, ref_stats):
            assert np.array_equal(mu, ref_mu)
            assert np.array_equal(var, ref_var)
        grads_w, grads_b, grads_bn = reference_backward(model, ref_probs, y,
                                                        ref_cache)
        # parameter_arrays order: W0, b0, W1, b1, ..., bn0.gamma, bn0.beta, ...
        want = [g for pair in zip(grads_w, grads_b) for g in pair] \
            + [g for pair in grads_bn for g in pair]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestModelFileErrors:
    def text(self):
        data = blob_data(n_per_class=4)
        return dump_model(train(MlpSpec(2, (3,), BIN), data,
                                TrainConfig(epochs=2, seed=1)))

    def parse_error(self, text):
        with pytest.raises(UntrainedModel) as info:
            parse_model(text, "m.model")
        return str(info.value)

    def test_truncated_values(self):
        lines = self.text().splitlines()
        lines[2] = lines[2].rsplit(" ", 1)[0]
        assert self.parse_error("\n".join(lines)).startswith("m.model:3: array W0")

    def test_truncated_file(self):
        lines = self.text().splitlines()
        message = self.parse_error("\n".join(lines[:5]) + "\n")
        assert message.startswith("m.model:5: missing 'end'")

    def test_missing_array(self):
        lines = self.text().splitlines()
        del lines[4]
        assert "missing array W1" in self.parse_error("\n".join(lines))

    def test_non_finite_values(self):
        for bad in ("nan", "inf", "-inf"):
            lines = self.text().splitlines()
            parts = lines[3].split(" ")
            parts[3] = bad
            lines[3] = " ".join(parts)
            message = self.parse_error("\n".join(lines))
            assert message == "m.model:4: array b0 has a non-finite value"

    @pytest.mark.parametrize("spec_line", [
        "spec 2", "spec x 3 binary2 1", "spec 2 3 softmax9 1", "spec 2 3 binary2 2",
        "spec 0 3 binary2 1", "array W0 2,3 0 0 0 0 0 0",
    ])
    def test_malformed_spec_line(self, spec_line):
        lines = self.text().splitlines()
        lines[1] = spec_line
        assert self.parse_error("\n".join(lines)).startswith("m.model:2: ")

    def test_wrong_shape_and_unknown_array(self):
        lines = self.text().splitlines()
        lines[2] = lines[2].replace("W0 2,3", "W0 3,2", 1)
        assert "shape 3,2, expected 2,3" in self.parse_error("\n".join(lines))
        lines = self.text().splitlines()
        lines[2] = lines[2].replace("W0", "W9", 1)
        assert "unexpected array 'W9'" in self.parse_error("\n".join(lines))

    def test_batchnorm_flag_zero_rejected(self):
        lines = self.text().splitlines()
        assert lines[1] == "spec 2 3 binary2 1"
        lines[1] = "spec 2 3 binary2 0"
        message = self.parse_error("\n".join(lines))
        assert message == "m.model:2: batchnorm flag must be 1, got '0'"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_or_names_its_line(self, cli_workspace, tmp_path_factory,
                                                  mutate, data):
        # the seed-7 fixture SELECT model: truncated, or one character
        # substituted, deleted or inserted
        text = (cli_workspace / "models" / "select.model").read_text(encoding="utf-8")
        path = tmp_path_factory.getbasetemp() / "mutated-select.model"
        path.write_text(mutate(data, text), encoding="utf-8")
        try:
            load_model(path)
        except UntrainedModel as exc:
            assert re.match(re.escape(f"{path}:") + r"\d+: ", str(exc)), str(exc)

    def test_huge_spec_names_the_first_array_that_disagrees(self, cli_workspace):
        # a spec is checked against the file's arrays, never allocated
        lines = (cli_workspace / "models" / "where.model").read_text().splitlines()
        assert lines[1] == "spec 77 32,16,8 binary2 1"
        lines[1] = "spec 77 32000000000,16,8 binary2 1"
        message = self.parse_error("\n".join(lines))
        assert message == ("m.model:3: array W0 has shape 77,32, "
                           "expected 77,32000000000")

    def test_load_model_names_the_file(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("tableqa-mlp v1\n")
        with pytest.raises(UntrainedModel, match=f"{path}:2: "):
            load_model(path)


class TestMatchesReferenceLoader:
    # the model built from the file's own arrays: the same arrays and errors
    # as the reference, which overwrites a random model of the file's spec

    @pytest.mark.parametrize("task", ["column-type", "select", "where"])
    def test_fixture_models(self, cli_workspace, task):
        path = cli_workspace / "models" / f"{task}.model"
        got, want = load_model(path), reference_load_model(path)
        assert got.spec == want.spec
        assert model_arrays(got) == model_arrays(want)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_model_loads_alike_or_fails_alike(self, cli_workspace,
                                                      tmp_path_factory, mutate,
                                                      data):
        text = (cli_workspace / "models" / "select.model").read_text(encoding="utf-8")
        path = tmp_path_factory.getbasetemp() / "mutated-whole-select.model"
        path.write_text(mutate(data, text), encoding="utf-8")
        got, want = outcome(load_model, path), outcome(reference_load_model, path)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.spec == want.spec
            assert model_arrays(got) == model_arrays(want)
