import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from hetfed import harness, metrics, nn
from hetfed.errors import ConfigError


def pairwise_auc_oracle(scores, labels):
    """Count correctly ordered positive/negative pairs, ties worth 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y != 1]
    if not pos or not neg:
        return None
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def step_curve_ap_oracle(scores, labels):
    """Walk distinct thresholds in descending order, summing P * dR."""
    n_pos = sum(labels)
    if n_pos == 0:
        return None
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        retrieved = [(s, y) for s, y in zip(scores, labels) if s >= t]
        tp = sum(y for _, y in retrieved)
        precision = tp / len(retrieved)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def tie_loop_average_ranks(values):
    """Reference 1-D ranks: one Python pass per tie group of a sorted copy."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    bounds = np.r_[starts, values.size]
    ranks_sorted = np.empty(values.size)
    for s, e in zip(bounds[:-1], bounds[1:]):
        ranks_sorted[s:e] = 0.5 * (s + e - 1) + 1.0
    ranks = np.empty(values.size)
    ranks[order] = ranks_sorted
    return ranks


def softmax_rows(rng, shape):
    return nn.softmax_t(3 * rng.normal(size=shape), 1.0)


RANK_INPUTS = {
    "continuous": lambda rng, shape: rng.normal(size=shape),
    "integer": lambda rng, shape: rng.integers(0, 4, size=shape).astype(float),
    "rounded": lambda rng, shape: np.round(rng.normal(size=shape), 1),
    "all_equal": lambda rng, shape: np.full(shape, 0.25),
    "softmax": softmax_rows,
    "signed_zeros": lambda rng, shape: rng.choice([-0.0, 0.0, 0.5, 2.0], size=shape),
    "subnormal": lambda rng, shape: rng.choice(
        [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300], size=shape
    ),
    "with_inf": lambda rng, shape: np.where(rng.random(shape) < 0.3, np.inf, rng.random(shape)),
    "tied_softmax": lambda rng, shape: np.round(softmax_rows(rng, shape), 1),
}


def rank_sums_oracle(values, positive):
    """Per-row sums of the tie-loop average ranks of the flagged entries."""
    ranks = np.apply_along_axis(tie_loop_average_ranks, -1, values)
    return np.where(positive, ranks, 0.0).sum(axis=-1)


def assert_both_paths_match_oracle(values, positive):
    """Rank sums of values and of -values, bitwise against the oracle.

    Non-negative values take the packed-key sort and any negative one the
    argsort, so each input with a non-zero entry drives both paths.
    """
    for signed in (values, -values):
        expected = rank_sums_oracle(signed, positive)
        actual = metrics._positive_rank_sums(signed, positive)
        assert actual.tobytes() == np.asarray(expected, dtype=np.float64).tobytes()


class TestAverageRanks:
    """metrics._positive_rank_sums against sums of the tie-loop ranks."""

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(RANK_INPUTS)),
           st.integers(1, 60))
    @settings(max_examples=80)
    def test_vector_equals_tie_loop_oracle(self, seed, kind, n):
        rng = np.random.default_rng(seed)
        values = RANK_INPUTS[kind](rng, n)
        positive = rng.random(n) < 0.5
        expected = rank_sums_oracle(values, positive)
        assert np.array_equal(metrics._positive_rank_sums(values, positive), expected)
        assert_both_paths_match_oracle(values, positive)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(RANK_INPUTS)),
           st.integers(1, 6), st.integers(1, 40))
    @settings(max_examples=80)
    def test_matrix_rows_equal_tie_loop_oracle(self, seed, kind, rows, n):
        rng = np.random.default_rng(seed)
        values = RANK_INPUTS[kind](rng, (rows, n))
        for positive in (rng.random((rows, n)) < 0.5, rng.random(n) < 0.5):
            expected = rank_sums_oracle(values, positive)
            assert np.array_equal(metrics._positive_rank_sums(values, positive), expected)
            assert_both_paths_match_oracle(values, positive)

    @pytest.mark.parametrize("n", [1, 2, 37])
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(RANK_INPUTS)),
           st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=40)
    def test_stacks_with_shared_flags_equal_tie_loop_oracle(self, n, seed, kind, k, c):
        """(K, C, N) score stacks against one (C, N) flag matrix, as
        multiclass_roc_auc ranks them; the rows are the classes' score
        columns of K (K, N, C) predictors, so not contiguous."""
        rng = np.random.default_rng(seed)
        values = np.swapaxes(RANK_INPUTS[kind](rng, (k, n, c)), -1, -2)
        assert_both_paths_match_oracle(values, rng.random((c, n)) < 0.5)

    def test_length_one(self):
        assert np.array_equal(metrics._positive_rank_sums(np.array([3.0]), [True]), 1.0)
        assert np.array_equal(metrics._positive_rank_sums(np.zeros((3, 1)), [True]), np.ones(3))


class TestAccuracy:
    def test_perfect(self):
        assert metrics.accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_disjoint(self):
        assert metrics.accuracy([1, 0], [0, 1]) == 0.0

    def test_counted(self):
        assert metrics.accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75

    def test_mismatch_raises(self):
        with pytest.raises(ConfigError):
            metrics.accuracy([0, 1], [0, 1, 2])

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        pred = rng.integers(0, 4, size=n)
        clean = rng.integers(0, 4, size=n)
        perm = rng.permutation(n)
        assert metrics.accuracy(pred, clean) == metrics.accuracy(pred[perm], clean[perm])


class TestRocAuc:
    def test_perfectly_separated(self):
        assert metrics.roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert metrics.roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_hand_case(self):
        assert metrics.roc_auc([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0]) == 0.75

    def test_single_class_absent(self):
        assert metrics.roc_auc([0.1, 0.2], [1, 1]) is None
        assert metrics.roc_auc([0.1, 0.2], [0, 0]) is None

    @pytest.mark.parametrize("scores", [
        [np.nan, 0.2, 0.1, 0.3], [[0.9, 0.2, 0.1, 0.3], [0.9, -0.2, np.nan, 0.3]],
    ])
    def test_nan_scores_raise(self, scores):
        with pytest.raises(ConfigError, match="NaN"):
            metrics.roc_auc(scores, [1, 0, 1, 0])

    def test_infinite_scores_rank(self):
        scores = [np.inf, -np.inf, 0.5, np.inf, -np.inf, 0.0]
        labels = [1, 0, 1, 0, 1, 0]
        assert metrics.roc_auc(scores, labels) == pairwise_auc_oracle(scores, labels)
        assert metrics.roc_auc(np.abs(scores), labels) == pairwise_auc_oracle(
            np.abs(scores).tolist(), labels
        )

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60)
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
        labels = rng.integers(0, 2, size=n)
        expected = pairwise_auc_oracle(scores.tolist(), labels.tolist())
        actual = metrics.roc_auc(scores, labels)
        if expected is None:
            assert actual is None
        else:
            assert actual == pytest.approx(expected, abs=1e-9)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30)
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        scores = rng.normal(size=n)
        labels = np.r_[1, 0, rng.integers(0, 2, size=n - 2)]
        base = metrics.roc_auc(scores, labels)
        assert metrics.roc_auc(2 * scores + 1, labels) == pytest.approx(base, abs=1e-12)
        assert metrics.roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30)
    def test_flip_complements_without_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        scores = rng.permutation(n).astype(float)  # distinct scores
        labels = np.r_[1, 0, rng.integers(0, 2, size=n - 2)]
        a = metrics.roc_auc(scores, labels)
        b = metrics.roc_auc(-scores, labels)
        assert a + b == pytest.approx(1.0, abs=1e-12)


class TestPrAuc:
    def test_perfect_ranking(self):
        assert metrics.pr_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_ranked_last(self):
        assert metrics.pr_auc([0.9, 0.8, 0.7, 0.1], [0, 0, 0, 1]) == 0.25

    def test_trivially_separated_pair(self):
        assert metrics.pr_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_no_positives(self):
        assert metrics.pr_auc([0.4, 0.5], [0, 0]) is None

    @pytest.mark.parametrize("scores", [[np.nan, 0.2, 0.1, 0.3], [0.9, -0.2, np.nan, 0.3]])
    def test_nan_scores_raise(self, scores):
        with pytest.raises(ConfigError, match="NaN"):
            metrics.pr_auc(scores, [1, 0, 1, 0])

    @pytest.mark.parametrize("scores", [
        [np.inf, -np.inf, 0.5, np.inf, -np.inf, 0.0], [np.inf, 0.0, 0.5, np.inf, -0.0, 0.5],
    ])
    def test_infinite_scores_rank(self, scores):
        labels = [1, 0, 1, 0, 1, 1]
        assert metrics.pr_auc(scores, labels) == pytest.approx(
            step_curve_ap_oracle(scores, labels), abs=1e-12
        )

    def test_constant_scores_give_prevalence(self):
        assert metrics.pr_auc([0.3] * 10, [1, 1, 0, 0, 0, 0, 0, 0, 0, 1]) == pytest.approx(0.3)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60)
    def test_matches_step_curve_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        scores = np.round(rng.normal(size=n), 2)
        labels = rng.integers(0, 2, size=n)
        expected = step_curve_ap_oracle(scores.tolist(), labels.tolist())
        actual = metrics.pr_auc(scores, labels)
        if expected is None:
            assert actual is None
        else:
            assert actual == pytest.approx(expected, abs=1e-9)
            assert 0.0 < actual <= 1.0


# Stacks of score rows (K, N) for the stacked average precision.
PR_STACKS = {
    "random": lambda rng, k, n: rng.random((k, n)),
    "tied": lambda rng, k, n: np.round(rng.random((k, n)), int(rng.integers(1, 3))),
    "saturated": lambda rng, k, n: rng.choice([0.0, 1.0, 0.5], size=(k, n)),
    "all_equal": lambda rng, k, n: np.full((k, n), 0.25),
    "rows_equal": lambda rng, k, n: np.broadcast_to(np.round(rng.random(n), 1), (k, n)),
    "signed": lambda rng, k, n: np.round(rng.normal(size=(k, n)), 1),
}


class TestPrAucStack:
    """A stack of rows scores in one call, each row with the bits of the
    per-row reference; rows with different threshold counts mix."""

    @pytest.mark.parametrize("kind", list(PR_STACKS))
    @pytest.mark.parametrize("n", [2, 9, 40, 300])
    def test_rows_match_the_row_oracle_bit_for_bit(self, kind, n):
        rng = np.random.default_rng(n)
        scores = PR_STACKS[kind](rng, 7, n)
        labels = np.r_[1, rng.integers(0, 2, size=n - 1)]
        stacked = metrics.pr_auc(scores, labels)
        expected = np.array([oracle.pr_auc(row, labels) for row in scores])
        assert stacked.shape == (7,)
        assert stacked.tobytes() == expected.tobytes()
        assert metrics.pr_auc(scores[3], labels) == expected[3]

    def test_no_positive_gives_none(self):
        assert metrics.pr_auc(np.random.default_rng(0).random((3, 5)), [0] * 5) is None

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_wrong_shapes_raise(self, shape):
        with pytest.raises(ConfigError, match="equal-length"):
            metrics.pr_auc(np.zeros(shape), [1, 0, 1, 0])


class TestMulticlassRocAuc:
    def test_perfect_one_hot(self):
        probs = np.eye(3)[[0, 1, 2, 0]]
        assert metrics.multiclass_roc_auc(probs, [0, 1, 2, 0]) == 1.0

    def test_uniform_probs(self):
        probs = np.full((6, 3), 1 / 3)
        assert metrics.multiclass_roc_auc(probs, [0, 1, 2, 0, 1, 2]) == 0.5

    def test_missing_class(self):
        probs = np.full((4, 3), 1 / 3)
        assert metrics.multiclass_roc_auc(probs, [0, 1, 0, 1]) is None

    @pytest.mark.parametrize("shape", [(6, 3), (2, 6, 3)])
    def test_nan_scores_raise(self, shape):
        probs = np.full(shape, 1 / 3)
        probs[..., -1, 2] = np.nan
        with pytest.raises(ConfigError, match="NaN"):
            metrics.multiclass_roc_auc(probs, [0, 1, 2, 0, 1, 2])

    def test_matches_per_class_oracle(self):
        rng = np.random.default_rng(123)
        probs = rng.dirichlet(np.ones(3), size=6)
        labels = np.array([0, 1, 2, 0, 1, 2])
        per_class = [
            pairwise_auc_oracle(probs[:, c].tolist(), (labels == c).astype(int).tolist())
            for c in range(3)
        ]
        assert metrics.multiclass_roc_auc(probs, labels) == pytest.approx(
            np.mean(per_class), abs=1e-12
        )


    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60)
    def test_tied_scores_match_per_class_oracle(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(3, 6))
        n = int(rng.integers(c, 40))
        probs = np.round(rng.dirichlet(np.ones(c), size=n), 1)  # rounding forces ties
        labels = np.r_[np.arange(c), rng.integers(0, c, size=n - c)]
        expected = np.mean([
            pairwise_auc_oracle(probs[:, k].tolist(), (labels == k).astype(int).tolist())
            for k in range(c)
        ])
        assert metrics.multiclass_roc_auc(probs, labels) == pytest.approx(expected, abs=1e-12)


class TestOneVsRest:
    """A label vector's split, built once, scores as the labels do."""

    @pytest.mark.parametrize("classes", [3, 4, 10])
    def test_split_gives_the_labels_bits(self, classes):
        rng = np.random.default_rng(classes)
        labels = np.r_[np.arange(classes), rng.integers(0, classes, size=60)]
        split = metrics.OneVsRest.of(labels, classes)
        assert split.defined and split.n_pos.sum() == labels.size
        for shape in [(labels.size, classes), (3, labels.size, classes)]:
            probs = np.round(softmax_rows(rng, shape), 2)  # rounding forces ties
            expected = metrics.multiclass_roc_auc(probs, labels)
            assert np.asarray(metrics.multiclass_roc_auc(probs, split)).tobytes() == \
                np.asarray(expected).tobytes()

    def test_missing_class_and_wrong_shape(self):
        split = metrics.OneVsRest.of([0, 1, 0, 1], 3)
        assert not split.defined
        assert metrics.multiclass_roc_auc(np.full((4, 3), 1 / 3), split) is None
        with pytest.raises(ConfigError, match="rows must match"):
            metrics.multiclass_roc_auc(np.full((5, 3), 1 / 3), split)
        with pytest.raises(ConfigError, match="rows must match"):
            metrics.multiclass_roc_auc(np.full((4, 2), 1 / 2), split)


def summarized_avg(tmp_path, accuracies) -> float:
    """The avg column harness.summarize gives a run with these final accuracies."""
    run = tmp_path / "run"
    run.mkdir()
    resolved = {
        "strategy": "local_only", "seed": 0,
        "flags": {"hfl": False, "sl": False, "dlr": False, "reweight": "none"},
        "data": {"noise": {"kind": "none", "rate": 0.0}},
    }
    (run / harness.CONFIG_FILE).write_text(json.dumps(resolved))
    lines = [{"round": 1, "client": c, "accuracy": acc} for c, acc in enumerate(accuracies)]
    (run / harness.ROUNDS_FILE).write_text("".join(json.dumps(x) + "\n" for x in lines))
    (row,) = harness.summarize([run], tmp_path / "summary.csv")
    return row["avg"]


class TestEvalResult:
    """The unweighted client mean of a round's accuracies, as summarize reports it."""

    def test_average_is_client_mean(self, tmp_path):
        assert summarized_avg(tmp_path, [0.8, 0.6]) == pytest.approx(0.7, abs=1e-12)

    def test_four_client_average(self, tmp_path):
        avg = summarized_avg(tmp_path, [0.80, 0.82, 0.74, 0.80])
        assert avg == pytest.approx(0.79, abs=1e-12)
