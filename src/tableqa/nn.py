"""Minimal feed-forward network core shared by the three classifiers.

MLP with ReLU hidden layers separated by batch normalization, a softmax
output head, cross-entropy loss and plain SGD, all in numpy float64.
Training is fully seed-deterministic: initialization, shuffling and
batch-norm statistics derive from the seed, so identical runs produce
bit-identical models.

A model is one float64 vector that holds every array of its model file
in file order (``array_layout``); its weights, biases and batch-norm
arrays are views into that vector, which ``train`` updates in place and
``dump_model`` writes out.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyData,
    LabelOutOfRange,
    UntrainedModel,
)
from .textproc import read_text, write_if_changed

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.9


class OutputHead(enum.Enum):
    BINARY2 = ("binary2", 2)
    SOFTMAX7 = ("softmax7", 7)

    def __init__(self, label: str, n_classes: int):
        self.label = label
        self.n_classes = n_classes

    @classmethod
    def from_label(cls, label: str) -> "OutputHead":
        for head in cls:
            if head.label == label:
                return head
        raise ValueError(f"unknown output head {label!r}")


@dataclass(frozen=True)
class MlpSpec:
    input_dim: int
    hidden: tuple[int, ...]
    output: OutputHead

    def __post_init__(self):
        if self.input_dim < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("all layer sizes must be >= 1")
        object.__setattr__(self, "hidden", tuple(self.hidden))

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        sizes = [self.input_dim, *self.hidden, self.output.n_classes]
        return list(zip(sizes[:-1], sizes[1:]))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 300
    seed: int = 0
    batch_size: int = 32

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and positive: {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


def array_layout(spec: MlpSpec) -> list[tuple[str, tuple[int, ...]]]:
    """The name and shape of every array of a model of ``spec``, in file
    order: each layer's weights and bias, each hidden layer's batch-norm
    scale and shift (the trainable arrays), then every hidden layer's
    running mean, then every hidden layer's running variance."""
    layout = []
    for i, (fan_in, fan_out) in enumerate(spec.layer_dims):
        layout += [(f"W{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))]
    for i, h in enumerate(spec.hidden):
        layout += [(f"bn{i}.gamma", (h,)), (f"bn{i}.beta", (h,))]
    for part in ("mean", "var"):
        layout += [(f"bn{i}.{part}", (h,)) for i, h in enumerate(spec.hidden)]
    return layout


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views into ``flat`` with the given shapes."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


def _split_parameters(spec: MlpSpec, views):
    """(weights, biases, gammas, betas) from a list in trainable file order."""
    n_layers = len(spec.layer_dims)
    head, bn = views[:2 * n_layers], views[2 * n_layers:]
    return head[0::2], head[1::2], bn[0::2], bn[1::2]


@dataclass
class MlpModel:
    """A network of ``spec`` held in one float64 vector: ``flat`` holds
    every array of its model file in file order (``array_layout``), and
    ``weights``, ``biases`` and ``batchnorms`` are views into it."""

    spec: MlpSpec
    flat: np.ndarray
    loss_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        views = [a for _, a in self.arrays()]
        n_trainable = len(views) - 2 * self.n_hidden
        self.weights, self.biases, gammas, betas = _split_parameters(
            self.spec, views[:n_trainable])
        stats = views[n_trainable:]
        self.batchnorms = [BatchNormParams(*arrays) for arrays in zip(
            gammas, betas, stats[:self.n_hidden], stats[self.n_hidden:])]

    @property
    def n_hidden(self) -> int:
        return len(self.spec.hidden)

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """Named views of every array of the model file, in file order."""
        layout = array_layout(self.spec)
        return list(zip([name for name, _ in layout],
                        _views(self.flat, [shape for _, shape in layout])))

    def parameter_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Named views of every trainable array, in file order."""
        arrays = self.arrays()
        return arrays[:len(arrays) - 2 * self.n_hidden]


def init_model(spec: MlpSpec, seed: int) -> MlpModel:
    # weights uniform +-sqrt(6 / (fan_in + fan_out)); batch-norm scales and
    # running variances one; biases, shifts and running means zero
    rng = np.random.default_rng(seed)
    model = MlpModel(spec, np.zeros(sum(
        math.prod(shape) for _, shape in array_layout(spec))))
    for w, (fan_in, fan_out) in zip(model.weights, spec.layer_dims):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    for bn in model.batchnorms:
        bn.gamma[...] = bn.running_var[...] = 1.0
    return model


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def predict_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Inference probabilities for a (..., input_dim) array, such as a
    (batch, input_dim) matrix or a stack of them."""
    h = np.asarray(x, dtype=np.float64)
    if h.shape[-1:] != (model.spec.input_dim,):
        raise DimensionMismatch(
            f"expected (..., {model.spec.input_dim}), got {h.shape}"
        )
    for i, bn in enumerate(model.batchnorms):
        z = h @ model.weights[i] + model.biases[i]
        z = bn.gamma * (z - bn.running_mean) / np.sqrt(bn.running_var + _BN_EPS) \
            + bn.beta
        h = np.maximum(z, 0.0)
    logits = h @ model.weights[-1] + model.biases[-1]
    return softmax(logits)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------
#
# One forward/backward implementation serves train and the gradient check in
# tests/nn_gradient_check.py. train updates the model's vector in place: its
# trainable prefix and running-statistics suffix take gradients and batch
# statistics from a second vector of the same layout, so an SGD step updates
# all parameters and running statistics in a handful of numpy calls. The
# float64 operations on each element are those of the plain formulation
# (numpy's mean and var are add.reduce over the rows divided by the row
# count), so trained models are bit-identical to it.

_add_reduce = np.add.reduce


def _blend_running(running, batch) -> None:
    """running <- momentum * running + (1 - momentum) * batch; scales batch too."""
    running *= _BN_MOMENTUM
    batch *= 1 - _BN_MOMENTUM
    running += batch


def _forward(model: MlpModel, x: np.ndarray, means, variances):
    """Training-mode forward pass; returns probs and the backprop cache.

    Each batch-norm layer's batch mean and variance are written into
    ``means[i]`` and ``variances[i]``.
    """
    m = x.shape[0]
    layers = []
    h = x
    for i, bn in enumerate(model.batchnorms):
        z = h @ model.weights[i]
        z += model.biases[i]
        mu = np.divide(_add_reduce(z, 0), m, out=means[i])
        centered = z - mu
        var = np.divide(_add_reduce(np.square(centered), 0), m, out=variances[i])
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        z_hat = centered * inv_std
        z = bn.gamma * z_hat
        z += bn.beta
        layers.append((h, z, centered, inv_std, z_hat))
        h = np.maximum(z, 0.0)
    logits = h @ model.weights[-1]
    logits += model.biases[-1]
    return softmax(logits), (layers, h)


def _backprop(model: MlpModel, probs, onehot, cache, grads) -> None:
    """Gradients of mean cross-entropy, written into ``grads``.

    ``grads`` holds one array per trainable array, in
    ``MlpModel.parameter_arrays`` order.
    """
    n = probs.shape[0]
    layers, h_last = cache
    g_w, g_b, g_gamma, g_beta = _split_parameters(model.spec, grads)

    d_logits = probs - onehot
    d_logits /= n
    np.matmul(h_last.T, d_logits, out=g_w[-1])
    _add_reduce(d_logits, 0, out=g_b[-1])
    d_h = d_logits @ model.weights[-1].T

    for i in reversed(range(model.n_hidden)):
        h_in, pre_relu, centered, inv_std, z_hat = layers[i]
        d_z = d_h * (pre_relu > 0)
        _add_reduce(d_z * z_hat, 0, out=g_gamma[i])
        _add_reduce(d_z, 0, out=g_beta[i])
        d_zhat = d_z * model.batchnorms[i].gamma
        d_var = _add_reduce(d_zhat * centered, 0) * -0.5 * inv_std**3
        d_mu = -_add_reduce(d_zhat, 0) * inv_std \
            + d_var * (-2.0 / n) * _add_reduce(centered, 0)
        d_z = d_zhat * inv_std + d_var * 2.0 * centered / n + d_mu / n
        np.matmul(h_in.T, d_z, out=g_w[i])
        _add_reduce(d_z, 0, out=g_b[i])
        if i > 0:
            d_h = d_z @ model.weights[i].T


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


def train(spec: MlpSpec, data, cfg: TrainConfig) -> MlpModel:
    """Seeded mini-batch SGD on softmax cross-entropy."""
    _validate_data(spec, data)
    x_all = np.array([np.asarray(x, dtype=np.float64) for x, _ in data])
    y_all = np.array([int(y) for _, y in data])
    n, size = len(data), cfg.batch_size
    n_classes = spec.output.n_classes
    onehot_all = np.eye(n_classes)[y_all]
    # flat index of each example's label within its batch's probs
    label_offsets = np.arange(n) % size * n_classes
    starts = range(0, n, size)

    model = init_model(spec, cfg.seed)
    step = MlpModel(spec, np.empty_like(model.flat))   # gradients, batch stats
    n_params = sum(a.size for _, a in model.parameter_arrays())
    params, running = model.flat[:n_params], model.flat[n_params:]
    grads, batch_stats = step.flat[:n_params], step.flat[n_params:]
    grad_views = [a for _, a in step.parameter_arrays()]
    means = [bn.running_mean for bn in step.batchnorms]
    variances = [bn.running_var for bn in step.batchnorms]

    x_epoch, onehot_epoch = np.empty_like(x_all), np.empty_like(onehot_all)
    picks, picked = np.empty_like(y_all), np.empty(n)
    rng = np.random.default_rng(cfg.seed + 1)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        np.take(x_all, order, axis=0, out=x_epoch)
        np.take(onehot_all, order, axis=0, out=onehot_epoch)
        np.add(label_offsets, y_all[order], out=picks)
        for start in starts:
            stop = start + size
            probs, cache = _forward(model, x_epoch[start:stop], means, variances)
            np.take(probs, picks[start:stop], out=picked[start:stop])
            _backprop(model, probs, onehot_epoch[start:stop], cache, grad_views)
            grads *= cfg.learning_rate
            params -= grads
            _blend_running(running, batch_stats)
        log_picked = np.log(np.clip(picked, 1e-300, None))
        epoch_loss = 0.0
        for start in starts:
            batch = log_picked[start:start + size]
            epoch_loss += float(-(_add_reduce(batch) / batch.size))
        model.loss_history.append(epoch_loss / len(starts))
    return model


def upsample_positives(data, factor: int, seed: int = 0):
    """Duplicate positive (label 1) examples so they appear factor times.

    Negatives are untouched; the combined list is reshuffled with the seed.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    for _, y in data:
        if int(y) not in (0, 1):
            raise LabelOutOfRange(f"upsampling expects binary labels, got {y}")
    out = []
    for x, y in data:
        out.extend([(x, y)] * (factor if int(y) == 1 else 1))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(out))
    return [out[i] for i in order]


# ---------------------------------------------------------------------------
# Serialization: versioned line-oriented text, byte-stable for a given model
# ---------------------------------------------------------------------------

_MAGIC = "tableqa-mlp v1"


def format_arrays(arrays) -> list[str]:
    """An `array <name> <shape> <values>` line per named array, then `end`."""
    return [
        f"array {name} {','.join(str(s) for s in array.shape)} "
        + " ".join(repr(float(v)) for v in array.reshape(-1))
        for name, array in arrays
    ] + ["end"]


def parse_arrays(lines: list[str], start: int, shapes: dict, source: str) -> dict:
    """The arrays named in ``shapes`` (name -> shape tuple), read from the
    ``format_arrays`` lines at ``lines[start:]``; errors name ``source:line``."""
    arrays = {}
    for lineno, line in enumerate(lines[start:], start=start + 1):
        where = f"{source}:{lineno}"
        if line == "end":
            break
        parts = line.split(" ", 3)
        if len(parts) != 4 or parts[0] != "array":
            raise UntrainedModel(
                f"{where}: expected 'array <name> <shape> <values>', got {line[:40]!r}"
            )
        _, name, shape_s, values_s = parts
        if name not in shapes or name in arrays:
            raise UntrainedModel(f"{where}: unexpected array {name!r}")
        shape = shapes[name]
        expected = ",".join(str(d) for d in shape)
        if shape_s != expected:
            raise UntrainedModel(
                f"{where}: array {name} has shape {shape_s}, expected {expected}"
            )
        fields = values_s.split()
        try:
            values = np.array(fields, dtype=np.float64)
        except ValueError:
            # float() words the error, naming the first value it rejects
            try:
                values = np.array([float(v) for v in fields])
            except ValueError as exc:
                raise UntrainedModel(f"{where}: array {name}: {exc}") from None
        size = math.prod(shape)
        if values.size != size:
            raise UntrainedModel(
                f"{where}: array {name} of shape {shape_s} needs {size} "
                f"values, got {values.size}"
            )
        if not np.isfinite(values).all():
            raise UntrainedModel(f"{where}: array {name} has a non-finite value")
        arrays[name] = values.reshape(shape)
    else:
        raise UntrainedModel(f"{source}:{len(lines)}: missing 'end' line (truncated file?)")
    missing = [name for name in shapes if name not in arrays]
    if missing:
        raise UntrainedModel(f"{source}:{lineno}: missing array {missing[0]}")
    return arrays


def spec_line(spec: MlpSpec) -> str:
    """Line 2 of a model file of ``spec``."""
    hidden = ",".join(str(h) for h in spec.hidden)
    return f"spec {spec.input_dim} {hidden or '-'} {spec.output.label} 1"


def dump_model(model: MlpModel) -> str:
    lines = [_MAGIC, spec_line(model.spec), *format_arrays(model.arrays())]
    return "\n".join(lines) + "\n"


def save_model(model: MlpModel, path) -> None:
    write_if_changed(path, dump_model(model))


def _parse_spec(line: str, where: str) -> MlpSpec:
    parts = line.split()
    if len(parts) != 5 or parts[0] != "spec":
        raise UntrainedModel(
            f"{where}: expected 'spec <input_dim> <hidden> <head> <batchnorm>',"
            f" got {line[:40]!r}"
        )
    try:
        hidden = tuple(int(h) for h in parts[2].split(",")) if parts[2] != "-" else ()
        if parts[4] != "1":
            raise ValueError(f"batchnorm flag must be 1, got {parts[4]!r}")
        return MlpSpec(input_dim=int(parts[1]), hidden=hidden,
                       output=OutputHead.from_label(parts[3]))
    except ValueError as exc:
        raise UntrainedModel(f"{where}: {exc}") from None


def parse_model(text: str, source: str = "<model>") -> MlpModel:
    """Model from ``dump_model`` text; errors name ``source:line``."""
    lines = text.splitlines()
    if not lines or lines[0] != _MAGIC:
        raise UntrainedModel(f"{source}:1: not a {_MAGIC} model file")
    spec = _parse_spec(lines[1] if len(lines) > 1 else "", f"{source}:2")
    layout = array_layout(spec)
    arrays = parse_arrays(lines, 2, dict(layout), source)
    return MlpModel(spec, np.concatenate(
        [arrays[name].reshape(-1) for name, _ in layout]))


def load_model(path) -> MlpModel:
    return parse_model(read_text(path), str(path))
