"""Label refinement and confidence-based client reweighting.

This module holds the round-by-round mathematics of the robust strategy:
the epoch schedule that mixes model predictions into noisy labels, the
label-quality / learning-efficiency statistics each client reports, the
two confidence variants built from them, and the normalization of
confidences into collaboration weights. The weighted distillation loss
these weights enter is nn.ConsensusKlSpec.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

QUALITY_MEAN_FLOOR = 1e-9


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


def _check_probs(arr: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ConfigError(f"{name} must be finite")
    if a.min() < -1e-9 or a.max() > 1 + 1e-9:
        raise ConfigError(f"{name} entries must lie in [0, 1]")
    sums = a.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > 1e-6:
        raise ConfigError(f"{name} rows must sum to 1")
    return a


def dlr_refine(noisy_onehot, pred, s: float) -> np.ndarray:
    """Convex mix (1 - s) * noisy + s * pred; valid rows in, valid rows out."""
    if not 0.0 <= s < 1.0:
        raise ConfigError(f"mix weight must lie in [0, 1), got {s}")
    a = _check_probs(noisy_onehot, "noisy labels")
    b = _check_probs(pred, "predictions")
    if a.shape != b.shape:
        raise ConfigError(f"shape mismatch: {a.shape} vs {b.shape}")
    return (1.0 - s) * a + s * b


def label_quality(mean_sl: float) -> float:
    """Reciprocal of the mean symmetric loss; a near-zero mean maps to 1e9."""
    if mean_sl <= QUALITY_MEAN_FLOOR:
        return 1e9
    return 1.0 / mean_sl


def learning_efficiency(delta_sl: float, update_ratio: float) -> float:
    """Loss improvement discounted by normalized parameter movement."""
    if update_ratio < 0:
        raise ConfigError("update ratio must be non-negative")
    return delta_sl / (update_ratio + 1.0)


def client_confidence_eccr(q_norm: float, p: float) -> float:
    if q_norm < 0:
        raise ConfigError("normalized quality must be non-negative")
    return q_norm * p


def client_confidence_ccr(q_norm: float, delta_sl: float) -> float:
    if q_norm < 0:
        raise ConfigError("normalized quality must be non-negative")
    return q_norm * delta_sl


def normalize_quality(qualities) -> np.ndarray:
    q = np.asarray(qualities, dtype=np.float64)
    total = q.sum()
    if total <= 0:
        raise ConfigError("quality values must have a positive sum")
    return q / total


@dataclass(frozen=True)
class ConfidenceReport:
    """Per-client statistics uploaded each round: raw label quality, the
    efficiency score, and the two raw ingredients behind the efficiency
    score."""

    client_id: int
    q: float
    p: float
    delta_sl: float
    update_ratio: float


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
