"""Label refinement and confidence-based client reweighting.

This module holds the round-by-round mathematics of the robust strategy:
the epoch schedule that mixes model predictions into noisy labels, the
label-quality / learning-efficiency statistics each client reports, the
two confidence variants built from them, and the normalization of
confidences into collaboration weights. confidence_step is the whole
per-round confidence policy over (K,) client columns; the formulas it is
built from work elementwise, on scalars or arrays alike. The weights
enter distillation through nn.mixture_spec.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

QUALITY_MEAN_FLOOR = 1e-9

REWEIGHT_MODES = ("none", "ccr", "eccr")


@dataclass(frozen=True)
class DlrSchedule:
    """Epoch schedule for mixing predictions into the noisy labels.

    The mix weight is t / (zeta * total_epochs + t): zero at epoch zero and
    strictly below 1 / (zeta + 1) for t <= total_epochs.
    """

    zeta: float
    total_epochs: int

    def __post_init__(self):
        if self.zeta <= 0:
            raise ConfigError("zeta must be positive")
        if self.total_epochs < 1:
            raise ConfigError("total_epochs must be positive")


def dlr_weight(t_c: int, sched: DlrSchedule) -> float:
    if t_c < 0:
        raise ConfigError(f"epoch index must be non-negative, got {t_c}")
    return t_c / (sched.zeta * sched.total_epochs + t_c)


def dlr_refine(noisy_onehot, pred, s: float) -> np.ndarray:
    """Convex mix (1 - s) * noisy + s * pred of two stacks of distributions
    (a one-hot mask and a softmax), row by row."""
    if not 0.0 <= s < 1.0:
        raise ConfigError(f"mix weight must lie in [0, 1), got {s}")
    return (1.0 - s) * noisy_onehot + s * pred


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


def confidence_step(mode: str, prev_sl, cur_sl, update_ratio, eta_conf: float):
    """One round's confidence statistics and collaboration weights.

    prev_sl and cur_sl are each client's mean shard SL at the previous and
    the latest evaluation, and update_ratio is how far its parameters moved
    in between, relative to their older norm; all are (K,), in client id
    order. Returns (q, p, f, weights, clamp_events): label quality,
    learning efficiency, confidence (CCR: normalized quality x SL drop;
    ECCR: normalized quality x efficiency), weights and clamp count.
    Under mode "none", or with one client, f is None and the weights are
    uniform.
    """
    if mode not in REWEIGHT_MODES:
        raise ConfigError(f"unknown reweight mode {mode!r}")
    cur = np.asarray(cur_sl, dtype=np.float64)
    delta = np.asarray(prev_sl, dtype=np.float64) - cur
    q = label_quality(cur)
    p = learning_efficiency(delta, update_ratio)
    if mode == "none" or q.size < 2:
        return q, p, None, uniform_weights(q.size), 0
    q_norm = normalize_quality(q)
    if mode == "eccr":
        f = client_confidence_eccr(q_norm, p)
    else:
        f = client_confidence_ccr(q_norm, delta)
    result = confidence_weights(f, eta_conf)
    return q, p, f, result.weights, result.clamp_events
