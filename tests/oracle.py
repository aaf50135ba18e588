"""Per-model reference for the cohort kernels of hetfed.nn, the
confidence formulas that hetfed.reweight.confidence_step combines,
FedAvg's size-weighted aggregate, and the average precision of one row of
scores.

One model at a time, written from the documented parameter layout and the
loss formulas: forward pass, cross-entropy, symmetric and mixture-KL
losses, their logit gradients, backpropagation and an SGD step. It uses
only public hetfed names (the guard in test_oracle.py checks this), so a
fault in a private nn helper cannot hide on both sides of a comparison.

The gradient path repeats the kernels' order of floating-point operations,
so tests compare a cohort against it bit for bit. The loss values take
their softmax from an independent log-sum-exp; they exist to be
differentiated numerically. The confidence formulas (label quality,
learning efficiency, the two confidence variants, quality normalization
and confidence weights) work elementwise, on scalars or arrays alike.
The aggregate weights each client by its shard size, which
hetfed.protocol.fedavg_aggregate can leave out because a run gives every
client one shard size. The average precision takes one predictor's
scores at a time, in the order of floating-point operations that
hetfed.metrics.pr_auc keeps for each row of a stack.
"""

from dataclasses import dataclass

import numpy as np

from hetfed import nn
from hetfed.errors import ConfigError
from hetfed.reweight import QUALITY_MEAN_FLOOR


def one_hot(labels: np.ndarray, class_count: int) -> np.ndarray:
    """The float one-hot rows (N, class_count) of a label vector."""
    out = np.zeros((labels.size, class_count))
    out[np.arange(labels.size), labels] = 1.0
    return out


def layers(params: nn.ModelParams) -> list:
    """(weights (fan_in, fan_out), biases (fan_out,)) per layer, read from
    the flat layer-major layout: each layer's weights, C order, then its
    biases."""
    out = []
    offset = 0
    for fan_in, fan_out in params.layer_dims:
        w = params.values[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        out.append((w, params.values[offset : offset + fan_out]))
        offset += fan_out
    return out


def forward(params: nn.ModelParams, x: np.ndarray):
    """Each layer's input activations plus the logits, and each layer's
    pre-activations."""
    activations, pre = [x], []
    h = x
    weights = layers(params)
    for idx, (w, b) in enumerate(weights):
        a = h @ w
        a += b
        pre.append(a)
        h = a if idx == len(weights) - 1 else np.maximum(a, 0.0)
        activations.append(h)
    return activations, pre


def logits(params: nn.ModelParams, x: np.ndarray) -> np.ndarray:
    return forward(params, x)[0][-1]


def _log_softmax(z: np.ndarray, tau: float) -> np.ndarray:
    s = z / tau
    top = s.max(axis=-1, keepdims=True)
    return s - top - np.log(np.exp(s - top).sum(axis=-1, keepdims=True))


def _floored_log(t: np.ndarray, floor: float) -> np.ndarray:
    """log t, floored at floor; an exact zero gives floor."""
    positive = t > 0
    return np.where(positive, np.maximum(np.log(np.where(positive, t, 1.0)), floor), floor)


@dataclass(frozen=True)
class CrossEntropy:
    """Mean cross-entropy against fixed (possibly soft) target rows (N, C)."""

    targets: np.ndarray

    def value(self, z: np.ndarray) -> float:
        q = np.exp(_log_softmax(z, 1.0))
        return float(-(self.targets * np.log(np.maximum(q, 1e-12))).sum(axis=-1).mean())

    def gradient(self, z: np.ndarray) -> np.ndarray:
        q = nn.softmax_t(z, 1.0)
        mass = self.targets.sum(axis=-1, keepdims=True)
        return (q * mass - self.targets) / len(z)


@dataclass(frozen=True)
class Symmetric:
    """Mean lam * CE + gamma * RCE against fixed target rows (N, C), where
    RCE = -sum(q * log t) with log t floored at floor."""

    targets: np.ndarray
    lam: float
    gamma: float
    floor: float

    def value(self, z: np.ndarray) -> float:
        q = np.exp(_log_softmax(z, 1.0))
        ce = -(self.targets * np.log(np.maximum(q, 1e-12))).sum(axis=-1)
        rce = -(q * _floored_log(self.targets, self.floor)).sum(axis=-1)
        return float((self.lam * ce + self.gamma * rce).mean())

    def gradient(self, z: np.ndarray) -> np.ndarray:
        q = nn.softmax_t(z, 1.0)
        t = self.targets
        log_t = _floored_log(t, self.floor)
        ce_grad = q * t.sum(axis=-1, keepdims=True) - t
        rce_grad = -q * (log_t - (q * log_t).sum(axis=-1, keepdims=True))
        return (self.lam * ce_grad + self.gamma * rce_grad) / len(z)


@dataclass(frozen=True)
class MixtureKl:
    """Mean over rows of sum_j w_j KL(p_j || softmax(z / tau)), for fixed
    peer distributions p (J, N, C) and weights w (J,)."""

    peers: np.ndarray
    weights: np.ndarray
    tau: float

    def value(self, z: np.ndarray) -> float:
        log_q = _log_softmax(z, self.tau)
        p = self.peers
        log_p = np.log(np.where(p > 0, p, 1.0))
        kl = (p * (log_p - np.maximum(log_q, np.log(1e-12)))).sum(axis=-1)  # (J, N)
        return float(self.weights @ kl.mean(axis=-1))

    def gradient(self, z: np.ndarray) -> np.ndarray:
        # d/dz of the loss is (sum_j w_j * softmax(z / tau) - sum_j w_j p_j) / (tau N).
        mixture = np.einsum("j,jnc->nc", self.weights, self.peers)
        mass = self.weights.sum()
        return (mass * nn.softmax_t(z, self.tau) - mixture) / (self.tau * len(z))


def backward(params: nn.ModelParams, x: np.ndarray, loss) -> np.ndarray:
    """Flat gradient of loss.value(logits(params, x)) w.r.t. every parameter."""
    activations, pre = forward(params, x)
    delta = loss.gradient(activations[-1])
    weights = layers(params)
    grads = []
    for idx in range(len(weights) - 1, -1, -1):
        grads = [(activations[idx].T @ delta).ravel(), delta.sum(axis=0)] + grads
        if idx > 0:
            delta = (delta @ weights[idx][0].T) * (pre[idx - 1] > 0)
    return np.concatenate(grads)


def sgd_step(params: nn.ModelParams, grad: np.ndarray, lr: float) -> nn.ModelParams:
    return nn.ModelParams(params.layer_dims, params.values - lr * grad)


def descend(params: nn.ModelParams, x: np.ndarray, loss, lr: float, steps: int):
    """steps full-batch descent steps on one fixed loss."""
    for _ in range(steps):
        params = sgd_step(params, backward(params, x, loss), lr)
    return params


# -- confidence formulas ------------------------------------------------------


def label_quality(mean_sl):
    """Reciprocal of the mean symmetric loss, elementwise; a near-zero mean maps to 1e9."""
    sl = np.asarray(mean_sl, dtype=np.float64)
    return np.where(sl <= QUALITY_MEAN_FLOOR, 1e9, 1.0 / np.maximum(sl, QUALITY_MEAN_FLOOR))


def learning_efficiency(delta_sl, update_ratio):
    """Loss improvement discounted by normalized parameter movement, elementwise."""
    ratio = np.asarray(update_ratio, dtype=np.float64)
    if np.any(ratio < 0):
        raise ConfigError("update ratio must be non-negative")
    return np.asarray(delta_sl, dtype=np.float64) / (ratio + 1.0)


def client_confidence_eccr(q_norm, p):
    q = np.asarray(q_norm, dtype=np.float64)
    if np.any(q < 0):
        raise ConfigError("normalized quality must be non-negative")
    return q * p


def client_confidence_ccr(q_norm, delta_sl):
    q = np.asarray(q_norm, dtype=np.float64)
    if np.any(q < 0):
        raise ConfigError("normalized quality must be non-negative")
    return q * delta_sl


def normalize_quality(qualities) -> np.ndarray:
    q = np.asarray(qualities, dtype=np.float64)
    total = q.sum()
    if total <= 0:
        raise ConfigError("quality values must have a positive sum")
    return q / total


@dataclass(frozen=True)
class WeightResult:
    weights: np.ndarray
    clamp_events: int


def uniform_weights(k: int) -> np.ndarray:
    if k < 1:
        raise ConfigError("need at least one client")
    return np.full(k, 1.0 / k)


def confidence_weights(f, eta_conf: float) -> WeightResult:
    """Confidence scores -> normalized collaboration weights.

    Raw weight per client is 1/(K-1) + eta * F_k / sum|F|; negative raws
    are clamped at zero (and counted) before the final normalization.
    All-zero confidence falls back to uniform weights.
    """
    scores = np.asarray(f, dtype=np.float64)
    k = scores.size
    if k < 2:
        raise ConfigError("confidence weighting needs at least two clients")
    if not np.all(np.isfinite(scores)):
        raise ConfigError("confidence scores must be finite")
    denom = np.abs(scores).sum()
    if denom <= 0:
        return WeightResult(uniform_weights(k), 0)
    raw = 1.0 / (k - 1) + eta_conf * scores / denom
    clamped = int((raw < 0).sum())
    raw = np.maximum(raw, 0.0)
    total = raw.sum()
    if total <= 0:
        return WeightResult(uniform_weights(k), clamped)
    return WeightResult(raw / total, clamped)


# -- aggregation --------------------------------------------------------------


def fedavg_aggregate(rows: np.ndarray, sizes) -> np.ndarray:
    """Size-weighted mean of the rows of an (n, P) parameter stack,
    folded in row order; returns the (P,) values."""
    weights = np.asarray(sizes, dtype=np.float64)
    weights = weights / weights.sum()
    total = np.zeros_like(rows[0])
    for row, w in zip(rows, weights):
        total = total + w * row
    return total


# -- ranking ------------------------------------------------------------------


def pr_auc(scores, labels) -> float | None:
    """Average precision of one row of scores over the descending-score
    step curve, tied scores entering at one threshold; None with zero
    positives."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    n_pos = int(y.sum())
    if n_pos == 0:
        return None
    order = np.argsort(-s, kind="stable")  # the order inside a tie is immaterial
    s_ord, y_ord = s[order], y[order]
    boundaries = np.flatnonzero(np.r_[s_ord[1:] != s_ord[:-1], True])
    tp = np.cumsum(y_ord)[boundaries]
    precision = tp / (boundaries + 1.0)
    recall = tp / n_pos
    return float((np.diff(np.r_[0.0, recall]) * precision).sum())
