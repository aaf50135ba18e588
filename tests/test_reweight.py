import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import kl_div
from hetfed import nn, reweight
from hetfed.errors import ConfigError


class TestDlrWeight:
    def test_zero_epoch(self):
        assert reweight.dlr_weight(0, zeta=10.0, total_epochs=40) == 0.0

    def test_half_at_zeta_t(self):
        assert reweight.dlr_weight(10, zeta=2.0, total_epochs=5) == 0.5

    def test_table_schedule_value(self):
        assert reweight.dlr_weight(40, zeta=10.0, total_epochs=40) == pytest.approx(
            40 / 440, abs=1e-15
        )

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigError):
            reweight.dlr_weight(-1, zeta=1.0, total_epochs=10)

    @pytest.mark.parametrize("zeta, total, message", [
        (0.0, 10, "zeta must be positive"),
        (-1.0, 10, "zeta must be positive"),
        (1.0, 0, "total_epochs must be positive"),
    ])
    def test_schedule_shape_rejected(self, zeta, total, message):
        with pytest.raises(ConfigError, match=message):
            reweight.dlr_weight(1, zeta, total)

    @given(st.floats(0.1, 50), st.integers(1, 200))
    @settings(max_examples=60)
    def test_monotone_and_bounded(self, zeta, total):
        values = [reweight.dlr_weight(t, zeta, total) for t in range(total + 1)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[0] == 0.0
        assert values[-1] <= 1.0 / (zeta + 1.0) + 1e-12


class TestDlrRefine:
    def test_zero_mix_returns_noisy(self):
        noisy = oracle.one_hot(np.array([1]), 3)[0]
        pred = np.array([0.2, 0.5, 0.3])
        assert np.array_equal(reweight.dlr_refine(noisy, pred, 0.0), noisy)

    def test_hand_case(self):
        noisy = np.array([1.0, 0.0])
        pred = np.array([0.5, 0.5])
        assert np.allclose(reweight.dlr_refine(noisy, pred, 0.5), [0.75, 0.25], atol=0)

    def test_fixed_point(self):
        dist = np.array([0.3, 0.7])
        for s in (0.0, 0.25, 0.9):
            assert np.allclose(reweight.dlr_refine(dist, dist, s), dist, atol=1e-15)

    def test_invalid_mix_weight(self):
        dist = np.array([0.5, 0.5])
        with pytest.raises(ConfigError):
            reweight.dlr_refine(dist, dist, 1.0)
        with pytest.raises(ConfigError):
            reweight.dlr_refine(dist, dist, -0.1)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60)
    def test_output_is_distribution(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 8))
        noisy = oracle.one_hot(rng.integers(0, c, size=4), c)
        pred = rng.dirichlet(np.ones(c), size=4)
        out = reweight.dlr_refine(noisy, pred, float(rng.random() * 0.999))
        assert np.all(out >= 0) and np.all(out <= 1)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)


class TestQualityAndEfficiency:
    def test_reciprocal_of_mean(self):
        assert oracle.label_quality(2.0) == 0.5
        assert oracle.label_quality(np.mean([1.0, 3.0])) == 0.5

    def test_perfect_fit_guard(self):
        assert oracle.label_quality(0.0) == 1e9
        assert oracle.label_quality(1e-10) == 1e9

    def test_efficiency_hand_case(self):
        assert oracle.learning_efficiency(0.5, 0.25) == pytest.approx(0.4)

    def test_unit_denominator(self):
        assert oracle.learning_efficiency(0.3, 0.0) == 0.3

    def test_no_progress(self):
        assert oracle.learning_efficiency(0.0, 1.7) == 0.0


class TestConfidence:
    def test_eccr_product(self):
        assert oracle.client_confidence_eccr(0.25, 0.4) == pytest.approx(0.1)
        assert oracle.client_confidence_eccr(0.3, 0.0) == 0.0
        assert oracle.client_confidence_eccr(1.0, 0.77) == 0.77

    def test_ccr_product(self):
        assert oracle.client_confidence_ccr(0.25, 0.5) == pytest.approx(0.125)
        assert oracle.client_confidence_ccr(0.4, 0.0) == 0.0

    def test_ccr_equals_eccr_with_zero_update_ratio(self):
        q_norm, delta = 0.37, 0.82
        p = oracle.learning_efficiency(delta, 0.0)
        assert oracle.client_confidence_ccr(q_norm, delta) == \
            oracle.client_confidence_eccr(q_norm, p)


def per_client_step(mode, prev_sl, cur_sl, ratio, eta):
    """The confidence step client by client, from the scalar formulas."""
    q = [float(oracle.label_quality(float(c))) for c in cur_sl]
    delta = [float(a) - float(c) for a, c in zip(prev_sl, cur_sl)]
    p = [float(oracle.learning_efficiency(d, float(r))) for d, r in zip(delta, ratio)]
    if mode == "none" or len(q) < 2:
        return q, p, None, [1.0 / len(q)] * len(q), 0
    q_norm = oracle.normalize_quality(q)
    if mode == "eccr":
        f = [float(oracle.client_confidence_eccr(float(n), pk)) for n, pk in zip(q_norm, p)]
    else:
        f = [float(oracle.client_confidence_ccr(float(n), d)) for n, d in zip(q_norm, delta)]
    result = oracle.confidence_weights(np.array(f), eta)
    return q, p, f, result.weights.tolist(), result.clamp_events


class TestConfidenceStep:
    def check(self, mode, prev_sl, cur_sl, ratio, eta=1.2):
        q, p, f, weights, clamps = reweight.confidence_step(mode, prev_sl, cur_sl, ratio, eta)
        expected = per_client_step(mode, prev_sl, cur_sl, ratio, eta)
        # Lists of Python floats compare bit for bit (up to the sign of zero).
        got = (q.tolist(), p.tolist(), None if f is None else f.tolist(), weights.tolist(), clamps)
        assert got == expected
        assert [np.array(a).tobytes() for a in got[:2]] == [np.array(a).tobytes() for a in expected[:2]]
        return got

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200)
    def test_matches_per_client_formulas(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 12))
        cur = rng.exponential(size=k)
        prev = cur + rng.normal(scale=0.3, size=k)
        ratio = np.where(rng.random(k) < 0.2, 0.0, rng.exponential(size=k))
        mode = ("none", "ccr", "eccr")[int(rng.integers(3))]
        self.check(mode, prev, cur, ratio, float(rng.uniform(0.1, 10.0)))

    @pytest.mark.parametrize("mode", ["none", "ccr", "eccr"])
    def test_uniform_without_confidence(self, mode):
        # reweight none, and a single client under any mode
        k = 1 if mode != "none" else 4
        q, p, f, weights, clamps = self.check(mode, np.full(k, 0.9), np.full(k, 0.7), np.zeros(k))
        assert f is None and weights == [1.0 / k] * k and clamps == 0

    def test_all_zero_confidence_is_uniform(self):
        sl = np.array([0.4, 0.8, 1.3])
        _, _, f, weights, clamps = self.check("eccr", sl, sl, np.array([0.1, 0.0, 2.0]))
        assert f == [0.0, 0.0, 0.0] and weights == [1 / 3] * 3 and clamps == 0

    def test_negative_raw_weight_is_clamped(self):
        prev = np.array([0.5, 2.0, 0.61, 0.7])
        cur = np.array([0.6, 0.5, 0.6, 0.6])
        _, _, _, weights, clamps = self.check("ccr", prev, cur, np.full(4, 0.5), eta=8.0)
        assert clamps == 1 and weights[0] == 0.0

    @pytest.mark.parametrize("mode", ["ccr", "eccr"])
    def test_loss_at_the_quality_floor(self, mode):
        floor = reweight.QUALITY_MEAN_FLOOR
        cur = np.array([0.0, floor, 2 * floor, 0.5])
        q, *_ = self.check(mode, cur + 0.1, cur, np.full(4, 0.25))
        assert q[:2] == [1e9, 1e9] and q[2] == 1.0 / (2 * floor)


class TestConfidenceWeights:
    def test_equal_scores_give_uniform(self):
        result = oracle.confidence_weights(np.full(4, 0.7), 1.2)
        assert np.allclose(result.weights, 0.25, atol=1e-12)
        assert result.clamp_events == 0

    def test_hand_case_two_clients(self):
        result = oracle.confidence_weights(np.array([1.0, 0.0]), 1.0)
        assert np.allclose(result.weights, [2 / 3, 1 / 3], atol=1e-12)

    def test_all_zero_falls_back_to_uniform(self):
        result = oracle.confidence_weights(np.zeros(5), 1.2)
        assert np.allclose(result.weights, 0.2, atol=0)

    def test_negative_scores_clamped_and_counted(self):
        result = oracle.confidence_weights(np.array([5.0, -5.0, 0.1]), 2.0)
        assert result.clamp_events == 1
        assert np.all(result.weights >= 0)
        assert result.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=6)
        perm = rng.permutation(6)
        w = oracle.confidence_weights(f, 1.2).weights
        wp = oracle.confidence_weights(f[perm], 1.2).weights
        assert np.allclose(wp, w[perm], atol=1e-15)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100)
    def test_sum_to_one_and_argmax_tracks_scores(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 12))
        f = rng.normal(size=k)
        result = oracle.confidence_weights(f, 1.2)
        assert result.weights.sum() == pytest.approx(1.0, abs=1e-9)
        raw = 1 / (k - 1) + 1.2 * f / np.abs(f).sum()
        if np.all(raw > 0):
            assert result.weights.argmax() == f.argmax()


def collaborative_loss(logits, own: int, weights, tau: float) -> float:
    """Client own's distillation loss: its KL to every other client's logits."""
    peers = np.arange(len(logits)) != own
    loss = oracle.MixtureKl(nn.softmax_t(logits[peers], tau), np.asarray(weights)[peers], tau)
    return loss.value(logits[own])


class TestCollaborativeLoss:
    def test_zero_when_all_agree(self):
        logits = np.random.default_rng(0).normal(size=(5, 3))
        shares = np.stack([logits] * 4)
        w = np.full(4, 0.25)
        assert collaborative_loss(shares, 0, w, 4.0) == pytest.approx(0.0, abs=1e-9)

    def test_two_client_reduction_to_kl(self):
        shares = np.random.default_rng(1).normal(size=(2, 1, 4))
        w = np.array([1.0, 1.0])  # uniform over the post-exclusion peer set
        loss = collaborative_loss(shares, 0, w, 4.0)
        peer = nn.softmax_t(shares[1][0], 4.0)
        own = nn.softmax_t(shares[0][0], 4.0)
        assert loss == pytest.approx(kl_div(peer, own), abs=1e-12)

    def test_temperature_cancellation(self):
        tau = 4.0
        shares = np.random.default_rng(2).normal(size=(3, 6, 5))
        w = np.array([0.2, 0.3, 0.5])
        a = collaborative_loss(shares * tau, 1, w, tau)
        b = collaborative_loss(shares, 1, w, 1.0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            shares = rng.normal(size=(4, 3, 3))
            w = rng.dirichlet(np.ones(4))
            assert collaborative_loss(shares, 2, w, 4.0) >= 0.0

    def test_shape_mismatch(self):
        # A model distilled on 3 public rows towards peers' logits on 4.
        cohort = nn.Cohort.of([nn.init_params(((2, 2),), 0)])
        peers = nn.softmax_t(np.zeros((1, 4, 2)), 1.0)
        spec = nn.mixture_spec(peers, np.array([0.5]), 1.0)
        with pytest.raises(ConfigError):
            nn.cohort_distill(cohort, np.zeros((3, 2)), spec, 1, 0.1)


class TestQualityNormalization:
    def test_normalizes_to_unit_sum(self):
        q = oracle.normalize_quality([1.0, 3.0])
        assert np.allclose(q, [0.25, 0.75], atol=0)

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ConfigError):
            oracle.normalize_quality([0.0, 0.0])
