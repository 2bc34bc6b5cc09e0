"""Finite-difference check of ``tableqa.nn``'s analytic gradients.

The check runs the package's own training-mode ``_forward`` and
``_backprop`` on a freshly initialized model and compares every gradient
with a central difference of the mean cross-entropy, which is computed
here without the backprop cache.
"""

import numpy as np

from tableqa.nn import (
    _BN_EPS,
    MlpModel,
    MlpSpec,
    _backprop,
    _forward,
    _validate_data,
    init_model,
)

_add_reduce = np.add.reduce


def _hidden_activation(model: MlpModel, i: int, h: np.ndarray) -> np.ndarray:
    # training-mode hidden layer i without the backprop cache
    z = h @ model.weights[i]
    z += model.biases[i]
    bn = model.batchnorms[i]
    m = z.shape[0]
    z -= _add_reduce(z, 0) / m
    z /= np.sqrt(_add_reduce(np.square(z), 0) / m + _BN_EPS)
    z *= bn.gamma
    z += bn.beta
    return np.maximum(z, 0.0)


def _loss_on_batch(model: MlpModel, h: np.ndarray, y: np.ndarray,
                   first: int = 0) -> float:
    # mean cross-entropy of a training-mode forward pass that enters hidden
    # layer ``first`` (the output layer when it is n_hidden) with input h;
    # log-sum-exp form keeps the finite-difference loop numerically stable
    for i in range(first, model.n_hidden):
        h = _hidden_activation(model, i, h)
    logits = h @ model.weights[-1]
    logits += model.biases[-1]
    shift = np.maximum.reduce(logits, 1)
    lse = np.log(_add_reduce(np.exp(logits - shift[:, None]), 1))
    lse += shift
    return float(_add_reduce(lse - logits[np.arange(len(y)), y]) / len(y))


def gradient_check(spec: MlpSpec, data, epsilon: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks every trainable parameter of a freshly initialized model on the
    given batch, in training mode so batch-norm statistics are exercised.
    When both gradients are below 1e-6 in magnitude the parameter counts as
    agreeing: along loss-flat directions (a hidden bias is absorbed by the
    following batch norm) the finite difference is pure roundoff noise.
    """
    if not (0 < epsilon <= 1e-2):
        raise ValueError("epsilon must be in (0, 1e-2]")
    _validate_data(spec, data)
    x = np.array([np.asarray(v, dtype=np.float64) for v, _ in data])
    y = np.array([int(t) for _, t in data])
    model = init_model(spec, seed)

    probs, cache = _forward(model, x, [np.empty(w) for w in spec.hidden],
                            [np.empty(w) for w in spec.hidden])
    analytic = [np.empty_like(a) for _, a in model.parameter_arrays()]
    _backprop(model, probs, np.eye(spec.output.n_classes)[y], cache, analytic)
    # W_i, b_i and bn_i belong to layer i; perturbing them leaves the
    # activations entering layer i as they are, so those are computed once
    layers = [i // 2 for i in range(2 * len(model.weights))] \
        + [i // 2 for i in range(2 * len(model.batchnorms))]

    worst = 0.0
    for (_, array), grad, layer in zip(model.parameter_arrays(), analytic, layers):
        h = x
        for i in range(layer):
            h = _hidden_activation(model, i, h)
        flat = array.reshape(-1)
        grad_flat = grad.reshape(-1)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + epsilon
            loss_plus = _loss_on_batch(model, h, y, layer)
            flat[j] = original - epsilon
            loss_minus = _loss_on_batch(model, h, y, layer)
            flat[j] = original
            numeric = (loss_plus - loss_minus) / (2 * epsilon)
            denom = max(abs(grad_flat[j]), abs(numeric))
            if denom < 1e-6:
                continue
            worst = max(worst, abs(grad_flat[j] - numeric) / denom)
    return worst
