"""Label refinement and confidence-based client reweighting.

This module holds the round-by-round mathematics of the robust strategy:
the epoch schedule that mixes model predictions into noisy labels, and
confidence_step, the whole per-round confidence policy over (K,) client
columns: the label-quality and learning-efficiency statistics each
client reports, the two confidence variants built from them, and their
normalization into collaboration weights. tests/oracle.py holds each of
those formulas on its own, which confidence_step is checked against bit
for bit. The weights enter distillation through nn.mixture_spec.
"""

import numpy as np

from .errors import ConfigError

QUALITY_MEAN_FLOOR = 1e-9

REWEIGHT_MODES = ("none", "ccr", "eccr")


def dlr_weight(t_c: int, zeta: float, total_epochs: int) -> float:
    """The weight of epoch t_c in the schedule that mixes predictions into
    the noisy labels: t / (zeta * total_epochs + t), zero at epoch zero
    and strictly below 1 / (zeta + 1) for t <= total_epochs."""
    if zeta <= 0:
        raise ConfigError("zeta must be positive")
    if total_epochs < 1:
        raise ConfigError("total_epochs must be positive")
    if t_c < 0:
        raise ConfigError(f"epoch index must be non-negative, got {t_c}")
    return t_c / (zeta * total_epochs + t_c)


def dlr_refine(noisy_onehot, pred, s: float) -> np.ndarray:
    """Convex mix (1 - s) * noisy + s * pred of two stacks of distributions
    (a one-hot mask and a softmax), row by row."""
    if not 0.0 <= s < 1.0:
        raise ConfigError(f"mix weight must lie in [0, 1), got {s}")
    return (1.0 - s) * noisy_onehot + s * pred


def confidence_step(mode: str, prev_sl, cur_sl, update_ratio, eta_conf: float):
    """One round's confidence statistics and collaboration weights.

    prev_sl and cur_sl are each client's mean shard SL at the previous and
    the latest evaluation, and update_ratio is how far its parameters moved
    in between, relative to their older norm; all are (K,), in client id
    order. Returns (q, p, f, weights, clamp_events):

    * q, label quality: the reciprocal of the mean SL, 1e9 at or below
      QUALITY_MEAN_FLOOR;
    * p, learning efficiency: the SL drop over (update ratio + 1);
    * f, confidence: the normalized quality times the SL drop (ccr) or
      times the efficiency (eccr);
    * weights: 1/(K-1) + eta_conf * f / sum|f| per client, negative raw
      weights clamped at zero (and counted in clamp_events), normalized.

    Under mode "none", or with one client, f is None and the weights are
    uniform; so they are when every f is zero or every raw weight clamps.
    """
    if mode not in REWEIGHT_MODES:
        raise ConfigError(f"unknown reweight mode {mode!r}")
    cur = np.asarray(cur_sl, dtype=np.float64)
    delta = np.asarray(prev_sl, dtype=np.float64) - cur
    ratio = np.asarray(update_ratio, dtype=np.float64)
    if np.any(ratio < 0):
        raise ConfigError("update ratio must be non-negative")
    q = np.where(cur <= QUALITY_MEAN_FLOOR, 1e9, 1.0 / np.maximum(cur, QUALITY_MEAN_FLOOR))
    p = delta / (ratio + 1.0)
    k = q.size
    uniform = np.full(k, 1.0 / k)
    if mode == "none" or k < 2:
        return q, p, None, uniform, 0
    f = q / q.sum() * (p if mode == "eccr" else delta)
    if not np.all(np.isfinite(f)):
        raise ConfigError("confidence scores must be finite")
    denom = np.abs(f).sum()
    if denom <= 0:
        return q, p, f, uniform, 0
    raw = 1.0 / (k - 1) + eta_conf * f / denom
    clamp_events = int((raw < 0).sum())
    raw = np.maximum(raw, 0.0)
    total = raw.sum()
    return q, p, f, raw / total if total > 0 else uniform, clamp_events
