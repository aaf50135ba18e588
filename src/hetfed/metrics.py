"""Evaluation metrics: accuracy and ranking AUCs.

roc_auc uses the rank-sum (Mann-Whitney) formulation with ties counted as
one half, which coincides with trapezoidal ROC integration. pr_auc is
average precision over the descending-score step curve. Metrics that are
undefined for a label set (single class, missing positives) return None
rather than a fabricated value; a NaN score has no rank, so the AUCs
raise ConfigError on one (+-inf rank as usual).
The AUCs rank each row with one sort: of packed uint64 keys, which carry
the positive flags, when no score is negative (probabilities never are),
else by argsort.
accuracy, roc_auc, pr_auc and multiclass_roc_auc also score a stack of K
predictors against one label vector in one call, one value per predictor.
A caller that scores many predictions against one label vector builds its
OneVsRest split once and passes it in place of the labels.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def accuracy(pred_labels, clean_labels):
    """Share of predictions equal to the labels; pred_labels may be (K, N)."""
    pred = np.asarray(pred_labels)
    clean = np.asarray(clean_labels)
    if pred.shape[-1:] != clean.shape or clean.ndim != 1 or clean.size == 0:
        raise ConfigError("accuracy needs two equal-length non-empty label vectors")
    return (pred == clean).mean(axis=-1)


def _sorted_rows(values: np.ndarray, positive) -> tuple:
    """Each row of float64 values (..., n) in ascending order, with
    positive (broadcast to values) carried along: (ordered, flags), both
    (rows, n), where neighbours in ordered are equal exactly where the
    sorted values are.

    When no value is negative, as for probabilities, one sort of packed
    uint64 keys does the work of an argsort: a non-negative double's bits
    order like its value, so each key is those bits shifted left by one,
    which also drops the sign of -0.0, with the flag in bit 0; ordered is
    then the keys without their flags. Otherwise values are ranked by
    argsort. NaN has no rank and raises.
    """
    n = values.shape[-1]
    rows = values.size // n
    low = values.min()
    if np.isnan(low):
        raise ConfigError("scores must not be NaN")
    if low >= 0:
        keys = np.empty(values.shape, dtype=np.uint64)
        np.left_shift(values.view(np.uint64), 1, out=keys)
        keys |= positive
        keys.sort(axis=-1)
        keys = keys.reshape(rows, n)
        return keys >> 1, keys & 1
    order = np.argsort(values, axis=-1).reshape(rows, n)
    order += (np.arange(rows) * n)[:, np.newaxis]  # positions in the flattened rows
    flags = np.broadcast_to(positive, values.shape).reshape(-1)[order]
    return np.ascontiguousarray(values).reshape(-1)[order], flags


def _positive_rank_sums(values: np.ndarray, positive) -> np.ndarray:
    """Per row of float64 values (..., n), the sum of the 1-based ranks of
    the entries that positive (broadcast to values) flags, tied values
    sharing their average rank.

    Read straight from the sorted order: a flagged entry at sorted position
    i adds i + 1, and each run of tied values then moves its flagged
    entries to the run's average rank. Every term is a half-integer, so
    every sum is exact in any order, and the order of entries inside a
    run does not matter.
    """
    ordered, flags = _sorted_rows(values, positive)
    rows, n = ordered.shape
    sums = flags @ np.arange(1.0, n + 1)
    tied = np.zeros(ordered.shape, dtype=bool)  # equal to the entry before it
    np.equal(ordered[:, 1:], ordered[:, :-1], out=tied[:, 1:])
    tied = tied.ravel()
    if tied.any():
        member = tied.copy()
        member[:-1] |= tied[1:]
        members = np.flatnonzero(member)
        opens = np.flatnonzero(~tied[members])  # every run opens on an untied entry
        lengths = np.diff(opens, append=members.size)
        # The run's average rank less each member's own rank i + 1.
        shift = np.repeat(members[opens] + (lengths - 1) / 2, lengths) - members
        sums += np.bincount(members // n, weights=flags.ravel()[members] * shift, minlength=rows)
    return sums.reshape(values.shape[:-1])


def _mann_whitney(pos_rank_sum, n_pos, n_neg):
    """AUC from the rank sum of the positives (Mann-Whitney U / n_pos n_neg)."""
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_auc(scores, labels):
    """P(random positive outranks random negative), ties counted 1/2.

    scores may be (K, N), one row per predictor. Returns None when only
    one class is present.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape[-1:] != y.shape or y.ndim != 1 or s.ndim > 2:
        raise ConfigError("scores and labels must be equal-length vectors")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    return _mann_whitney(_positive_rank_sums(s, pos), n_pos, n_neg)


def pr_auc(scores, labels):
    """Average precision over the descending-score step curve.

    scores may be (K, N), one row per predictor. Tied scores enter at one
    threshold. Returns None with zero positives.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    if s.shape[-1:] != y.shape or y.ndim != 1 or s.ndim > 2:
        raise ConfigError("scores and labels must be equal-length vectors")
    n_pos = int(y.sum())
    if n_pos == 0:
        return None
    ordered, flags = _sorted_rows(s, y)
    ordered, tp = ordered[:, ::-1], np.cumsum(flags[:, ::-1], axis=-1)  # descending
    last = np.c_[ordered[:, 1:] != ordered[:, :-1], np.ones(len(ordered), bool)]  # thresholds
    counts = last.sum(axis=-1)
    ap = np.empty(len(counts))
    # numpy sums a row pairwise, in a tree that its length fixes: the rows
    # of one threshold count are summed as one stack.
    for m in np.unique(counts):
        rows = np.flatnonzero(counts == m)
        at = np.nonzero(last[rows])
        hits = tp[rows][at].reshape(-1, m)
        precision = hits / (at[1].reshape(-1, m) + 1.0)
        ap[rows] = (np.diff(hits / n_pos, axis=-1, prepend=0.0) * precision).sum(axis=-1)
    return ap if s.ndim == 2 else float(ap[0])


@dataclass(frozen=True)
class OneVsRest:
    """A label vector split one class against the rest: the (C, N) mask of
    each class's positives and the (C,) positive and negative counts.
    defined is False when some class has no positive or no negative."""

    positive: np.ndarray
    n_pos: np.ndarray
    n_neg: np.ndarray
    defined: bool

    @classmethod
    def of(cls, labels, classes: int) -> "OneVsRest":
        y = np.asarray(labels)
        positive = y == np.arange(classes)[:, np.newaxis]
        n_pos = positive.sum(axis=-1)
        n_neg = y.size - n_pos
        return cls(positive, n_pos, n_neg, bool(np.all(n_pos > 0) and np.all(n_neg > 0)))


def multiclass_roc_auc(prob_matrix, labels):
    """Unweighted macro mean of one-vs-rest roc_auc per class.

    All classes are ranked in one pass over the (C, N) score matrix, or
    over (K, C, N) for a (K, N, C) stack of K predictors' probabilities.
    labels is the label vector or its OneVsRest split. Returns None when
    any class has no example in the labels.
    """
    probs = np.asarray(prob_matrix, dtype=np.float64)
    split = labels
    if not isinstance(split, OneVsRest) and np.ndim(split) == 1 and probs.ndim:
        split = OneVsRest.of(split, probs.shape[-1])
    if (
        probs.ndim not in (2, 3)
        or not isinstance(split, OneVsRest)
        or split.positive.shape != (probs.shape[-1], probs.shape[-2])
    ):
        raise ConfigError("probability matrix rows must match label count")
    if not split.defined:
        return None
    rank_sums = _positive_rank_sums(np.swapaxes(probs, -1, -2), split.positive)
    return np.mean(_mann_whitney(rank_sums, split.n_pos, split.n_neg), axis=-1)
