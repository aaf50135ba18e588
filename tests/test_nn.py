import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import kl_div
from hetfed import nn
from hetfed.errors import ConfigError, NumericError


def random_net(rng, max_width=6, depth_choices=(1, 2, 3)):
    depth = rng.choice(depth_choices)
    widths = [int(rng.integers(2, max_width + 1)) for _ in range(depth + 1)]
    dims = tuple(zip(widths[:-1], widths[1:]))
    params = nn.init_params(dims, int(rng.integers(1 << 30)))
    return dims, params


def central_diff(params, x, loss, idx, eps=1e-5):
    up = params.values.copy()
    up[idx] += eps
    dn = params.values.copy()
    dn[idx] -= eps
    lu = loss.value(oracle.logits(nn.ModelParams(params.layer_dims, up), x))
    ld = loss.value(oracle.logits(nn.ModelParams(params.layer_dims, dn), x))
    return (lu - ld) / (2 * eps)


def on_kink(params, x):
    """Whether a hidden pre-activation lies within 1e-3 of the ReLU kink,
    where central differences are invalid."""
    _, pre = oracle.forward(params, x)
    return any(np.abs(p).min() < 1e-3 for p in pre[:-1])


def forward(params, x):
    """The logits of one model, run as a one-model cohort."""
    return nn.Cohort.of([params]).forward(x)[0]


class TestForward:
    def test_zero_params_give_zero_logits(self):
        dims = ((3, 4), (4, 2))
        params = nn.ModelParams(dims, np.zeros(nn.param_count(dims)))
        logits = forward(params, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.all(logits == 0.0)

    def test_identity_single_layer(self):
        dims = ((3, 3),)
        values = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
        params = nn.ModelParams(dims, values)
        logits = forward(params, np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(logits, [[1.0, 2.0, 3.0]], atol=0)

    def test_matches_straight_line_matmul_oracle(self):
        # Independent oracle: unpack the flat vector by hand and multiply.
        rng = np.random.default_rng(0)
        dims = ((3, 5), (5, 2))
        params = nn.init_params(dims, 0)
        x = rng.normal(size=(4, 3))
        w1 = params.values[:15].reshape(3, 5)
        b1 = params.values[15:20]
        w2 = params.values[20:30].reshape(5, 2)
        b2 = params.values[30:32]
        hidden = np.maximum(x @ w1 + b1, 0.0)
        expected = hidden @ w2 + b2
        assert np.allclose(forward(params, x), expected, atol=1e-12, rtol=0)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(7)
        dims, params = random_net(rng)
        x = rng.normal(size=(8, dims[0][0]))
        a = forward(params, x)
        b = forward(params, x)
        assert a.tobytes() == b.tobytes()

    def test_dimension_mismatch_raises(self):
        params = nn.init_params(((3, 2),), 0)
        with pytest.raises(ConfigError):
            forward(params, np.zeros((2, 4)))


def reduction_softmax(logits, tau):
    """The softmax as one reduction along the class axis: max shift, exp,
    then division by e.sum(axis=-1, keepdims=True)."""
    scaled = np.asarray(logits, dtype=np.float64) / tau
    scaled -= scaled.max(axis=-1, keepdims=True)
    e = np.exp(scaled, out=scaled)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def logit_layouts(rng, shape):
    """Logits of one shape laid out three ways: contiguous, every other
    row and class of a larger array, and with the class axis outermost."""
    yield rng.normal(size=shape) * 5
    doubled = tuple(2 * n for n in shape)
    yield (rng.normal(size=doubled) * 5)[tuple(slice(None, None, 2) for _ in shape)]
    yield np.moveaxis(rng.normal(size=shape[-1:] + shape[:-1]) * 5, 0, -1)


class TestSoftmax:
    @pytest.mark.parametrize("classes", [1, 2, 3, 7, 8, 9, 10, 17])
    @pytest.mark.parametrize("lead", [(33,), (4, 13)])
    def test_bits_match_a_reduction_along_the_class_axis(self, classes, lead):
        rng = np.random.default_rng(classes)
        for logits in logit_layouts(rng, (*lead, classes)):
            for tau in (1.0, 4.0):
                probs = nn.softmax_t(logits, tau)
                assert probs.tobytes() == reduction_softmax(logits, tau).tobytes()

    @pytest.mark.parametrize("classes", [1, 2, 3, 7, 8, 9, 17])
    def test_class_major_logits_keep_the_row_major_bits(self, classes):
        logits = np.random.default_rng(classes).normal(size=(4, 13, classes)) * 5
        for tau in (1.0, 4.0):
            major = nn.softmax_t(np.ascontiguousarray(logits.transpose(0, 2, 1)), tau, axis=1)
            assert major.flags.c_contiguous
            assert major.transpose(0, 2, 1).tobytes() == nn.softmax_t(logits, tau).tobytes()

    @pytest.mark.parametrize("axis", [-1, 1])
    def test_input_is_not_written(self, axis):
        z = np.random.default_rng(2).normal(size=(4, 3, 13)) * 5
        z[0, 0, :4] = -0.0
        before = z.copy()
        for tau in (1.0, 4.0):
            probs = nn.softmax_t(z, tau, axis=axis)
            assert z.tobytes() == before.tobytes() and not np.shares_memory(probs, z)
        # At tau 1.0 no quotient is taken; z / 1.0 has the bits of z.
        rows = nn.softmax_t(np.moveaxis(z, axis, -1), 1.0)
        assert rows.tobytes() == reduction_softmax(np.moveaxis(z, axis, -1), 1.0).tobytes()

    def test_uniform_on_equal_logits(self):
        assert np.allclose(nn.softmax_t(np.zeros(3), 1.0), 1 / 3)

    def test_hand_case(self):
        probs = nn.softmax_t(np.array([np.log(2.0), 0.0]), 1.0)
        assert np.allclose(probs, [2 / 3, 1 / 3], atol=1e-12)

    def test_large_temperature_flattens(self):
        probs = nn.softmax_t(np.array([3.0, -1.0, 0.5]), 1e6)
        assert np.allclose(probs, 1 / 3, atol=1e-5)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            nn.softmax_t(np.array([np.inf, 0.0]), 1.0)
        with pytest.raises(ConfigError):
            nn.softmax_t(np.zeros(2), 0.0)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(0.1, 10.0))
    def test_sums_to_one_and_permutation_equivariant(self, logits, tau):
        z = np.asarray(logits)
        probs = nn.softmax_t(z, tau)
        assert abs(probs.sum() - 1.0) < 1e-9
        perm = np.random.default_rng(0).permutation(len(logits))
        assert np.allclose(nn.softmax_t(z[perm], tau), probs[perm], rtol=0, atol=1e-15)


# The symmetric loss with one of its two terms switched off.
CE_ONLY = nn.Hyperparams(lam=1.0, gamma=0.0)
RCE_ONLY = nn.Hyperparams(lam=0.0, gamma=1.0)


class TestLosses:
    def test_ce_perfect_prediction(self):
        onehot = oracle.one_hot(np.array([2]), 4)[0]
        assert nn.sl_loss(onehot, onehot, CE_ONLY) < 1e-9

    def test_ce_uniform_vs_onehot(self):
        target = oracle.one_hot(np.array([0]), 10)[0]
        assert nn.sl_loss(np.full(10, 0.1), target, CE_ONLY) == pytest.approx(np.log(10), abs=1e-12)

    def test_ce_soft(self):
        assert nn.sl_loss([0.5, 0.5], [0.5, 0.5], CE_ONLY) == pytest.approx(np.log(2), abs=1e-12)

    def test_rce_matching_onehot(self):
        onehot = oracle.one_hot(np.array([1]), 3)[0]
        assert nn.sl_loss(onehot, onehot, RCE_ONLY) == 0.0

    def test_rce_uniform_pred(self):
        target = oracle.one_hot(np.array([5]), 10)[0]
        assert nn.sl_loss(np.full(10, 0.1), target, RCE_ONLY) == pytest.approx(3.6, abs=1e-12)

    def test_rce_disjoint_onehots(self):
        pred = oracle.one_hot(np.array([0]), 4)[0]
        target = oracle.one_hot(np.array([2]), 4)[0]
        assert nn.sl_loss(pred, target, RCE_ONLY) == pytest.approx(4.0, abs=1e-12)

    def test_sl_table_values(self):
        h = nn.Hyperparams()
        target = oracle.one_hot(np.array([0]), 10)[0]
        expected = 0.4 * np.log(10) + 0.9 * 3.6
        assert nn.sl_loss(np.full(10, 0.1), target, h) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(4.161034, abs=1e-6)

    def test_sl_zero_on_match(self):
        h = nn.Hyperparams()
        onehot = oracle.one_hot(np.array([3]), 5)[0]
        assert nn.sl_loss(onehot, onehot, h) == 0.0

    def test_gamma_zero_reduces_to_ce(self):
        h = nn.Hyperparams(lam=0.7, gamma=0.0)
        rng = np.random.default_rng(3)
        pred = rng.dirichlet(np.ones(6))
        target = oracle.one_hot(np.array([4]), 6)[0]
        assert nn.sl_loss(pred, target, h) == pytest.approx(0.7 * nn.sl_loss(pred, target, CE_ONLY), abs=0)

    def test_sl_rows_are_single_row_losses(self):
        rng = np.random.default_rng(4)
        pred = rng.dirichlet(np.ones(5), size=7)
        target = oracle.one_hot(rng.integers(0, 5, size=7), 5)
        h = nn.Hyperparams()
        rows = nn.sl_loss(pred, target, h)
        assert rows.shape == (7,)
        assert rows.tolist() == [nn.sl_loss(p, t, h) for p, t in zip(pred, target)]

    def test_single_distribution_gives_a_scalar(self):
        pred, target = np.array([0.2, 0.5, 0.3]), np.array([0.0, 1.0, 0.0])
        loss = nn.sl_loss(pred, target, nn.Hyperparams())
        assert isinstance(loss, np.float64)
        assert loss == nn.sl_loss(pred[np.newaxis], target[np.newaxis], nn.Hyperparams())[0]

    @pytest.mark.parametrize("classes", [1, 2, 3, 7, 8, 9])
    def test_sl_keeps_the_bits_of_sums_along_the_class_axis(self, classes):
        rng = np.random.default_rng(classes)
        pred = nn.softmax_t(rng.normal(size=(5, 30, classes)) * 4, 1.0)
        target = rng.dirichlet(np.ones(classes), size=(5, 30))
        target[rng.random(target.shape) < 0.3] = 0.0
        target[0, 0] = -0.0
        pred[0, 1] = target[0, 1] = 0.0  # every term of both sums is -0.0
        h = nn.Hyperparams()
        ce = -(target * np.log(np.maximum(pred, nn.PROB_FLOOR))).sum(axis=-1)
        rce = -(pred * oracle._floored_log(target, h.rce_log_floor)).sum(axis=-1)
        expected = h.lam * ce + h.gamma * rce
        assert nn.sl_loss(pred, target, h).tobytes() == expected.tobytes()

    def test_floored_log_keeps_the_oracle_bits(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        special = [0.0, -0.0, tiny, 3 * tiny, np.finfo(np.float64).tiny, 1e-300, np.exp(-4.0),
                   0.5, 1.0, 2.0, 1e308, np.inf, -1.0, -tiny, -np.inf, np.nan, -np.nan]
        x = np.r_[special, np.random.default_rng(3).normal(size=200) * 2]
        for floor in (-4.0, -1e-3, -800.0):
            with np.errstate(all="raise"):
                assert nn._floored_log(x, floor).tobytes() == oracle._floored_log(x, floor).tobytes()

    def test_kl_zero_for_identical(self):
        assert kl_div([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-12)
        logits = np.random.default_rng(5).normal(size=(4, 3))
        loss = oracle.MixtureKl(nn.softmax_t(logits[np.newaxis], 2.0), np.ones(1), 2.0)
        assert loss.value(logits) == pytest.approx(0.0, abs=1e-12)

    def test_kl_hand_cases(self):
        # The oracle on hand cases; no finite logits give the first one.
        assert kl_div([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-12)
        expected = 0.5 * np.log(2) + 0.5 * np.log(2 / 3)
        assert kl_div([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected, abs=1e-12)
        # The KL loss on logits whose softmax gives the second case.
        loss = oracle.MixtureKl(nn.softmax_t(np.zeros((1, 1, 2)), 1.0), np.ones(1), 1.0)
        own = np.log([[0.25, 0.75]])
        assert loss.value(own) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            nn.sl_loss([0.5, 0.5], [1.0, 0.0, 0.0], nn.Hyperparams())
        # Distilling a 2-class model towards 3-class peers.
        cohort = nn.Cohort.of([nn.init_params(((2, 2),), 0)])
        spec = nn.mixture_spec(np.full((1, 1, 3), 1 / 3), np.ones(1), 1.0)
        with pytest.raises(ConfigError, match="do not match logits"):
            nn.cohort_distill(cohort, np.zeros((1, 2)), spec, 1, 0.1)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60)
    def test_kl_nonnegative_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 8))
        own, peer = rng.normal(size=(2, 1, c)) * 3
        loss = oracle.MixtureKl(nn.softmax_t(peer[np.newaxis], 1.0), np.ones(1), 1.0).value(own)
        assert loss >= 0.0
        reference = kl_div(nn.softmax_t(peer[0], 1.0), nn.softmax_t(own[0], 1.0))
        assert loss == pytest.approx(reference, abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40)
    def test_sl_nonnegative_for_onehot_targets(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 8))
        pred = rng.dirichlet(np.ones(c))
        target = oracle.one_hot(np.array([int(rng.integers(c))]), c)[0]
        assert nn.sl_loss(pred, target, nn.Hyperparams()) >= 0.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40)
    def test_sl_continuous_in_predictions(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 8))
        h = nn.Hyperparams()
        a = rng.dirichlet(np.ones(c))
        b = rng.dirichlet(np.ones(c))
        target = oracle.one_hot(np.array([int(rng.integers(c))]), c)[0]
        t = float(rng.random())
        step = 1e-9
        near = nn.sl_loss((1 - t) * a + t * b, target, h)
        far = nn.sl_loss((1 - t - step) * a + (t + step) * b, target, h)
        assert abs(near - far) < 1e-5


# One full-batch step at this rate moves each model by -lr times its gradient.
STEP = nn.Hyperparams(lr=1.0)


def step_gradients(models, cohort):
    """Each model's gradient, read off the cohort the models were stepped
    in: (before - after) / lr."""
    return [(p.values - q.values) / STEP.lr for p, q in zip(models, cohort.models())]


def epoch_gradients(models, x, targets, symmetric):
    """The gradients of one nn.cohort_sgd_epoch step of the models as one
    cohort, on (K, S, d) rows x with batch_size S."""
    cohort = nn.Cohort.of(models)
    nn.cohort_sgd_epoch(cohort, x, targets, in_order(x), x.shape[1], STEP, symmetric)
    return step_gradients(models, cohort)


def in_order(x):
    """Each model's rows of x (K, S, d), flattened to rows, in their order."""
    k, size = x.shape[:2]
    return size * np.arange(k)[:, np.newaxis] + np.arange(size)


def kernel_models(rng, d, c):
    """Two or three blocks of one or two models each, d features in and c
    classes out, over at least two architectures."""
    while True:
        models = []
        for _ in range(int(rng.integers(2, 4))):
            depth = int(rng.integers(1, 4))
            widths = [d, *(int(rng.integers(2, 7)) for _ in range(depth - 1)), c]
            dims = tuple(zip(widths[:-1], widths[1:]))
            models += [nn.init_params(dims, int(rng.integers(1 << 30)))
                       for _ in range(int(rng.integers(1, 3)))]
        if len({m.layer_dims for m in models}) >= 2:
            return models


class TestBackward:
    """The gradients the epoch kernels step by, read off one full-batch step."""

    def test_stationary_at_perfect_fit(self):
        # Saturated logits + matching one-hot target: gradient collapses.
        dims = ((2, 2),)
        values = np.concatenate([np.array([[60.0, -60.0], [-60.0, 60.0]]).ravel(), np.zeros(2)])
        params = nn.ModelParams(dims, values)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        targets = oracle.one_hot(np.array([0, 1]), 2)
        (grad,) = epoch_gradients([params], x[np.newaxis], targets[np.newaxis], False)
        assert np.linalg.norm(grad) < 1e-6

    def test_duplicated_rows_leave_mean_gradient_unchanged(self):
        rng = np.random.default_rng(11)
        dims, params = random_net(rng)
        n, c = 5, dims[-1][1]
        x = rng.normal(size=(n, dims[0][0]))
        targets = oracle.one_hot(rng.integers(0, c, size=n), c)
        (g1,) = epoch_gradients([params], x[np.newaxis], targets[np.newaxis], True)
        doubled = np.vstack([targets, targets])[np.newaxis]
        (g2,) = epoch_gradients([params], np.vstack([x, x])[np.newaxis], doubled, True)
        assert np.allclose(g1, g2, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("loss_kind", ["ce", "sl", "kl"])
    def test_matches_finite_differences(self, loss_kind):
        """nn.cohort_sgd_epoch (ce, sl) and nn.cohort_distill (kl) against
        central differences of the oracle's loss, model by model."""
        rng = np.random.default_rng(42)
        done = 0
        while done < 12:
            d, c, n = (int(v) for v in rng.integers(2, 7, size=3))
            models = kernel_models(rng, d, c)
            k = len(models)
            x = rng.normal(size=(n, d) if loss_kind == "kl" else (k, n, d))
            rows = [x] * k if loss_kind == "kl" else list(x)
            if any(on_kink(params, xk) for params, xk in zip(models, rows)):
                continue
            done += 1
            if loss_kind == "kl":
                peers = nn.softmax_t(rng.normal(size=(k, n, c)), 4.0)
                w = rng.dirichlet(np.ones(k))
                own = rng.permutation(k)
                cohort = nn.Cohort.of(models)
                nn.cohort_distill(cohort, x, nn.mixture_spec(peers, w, 4.0, own), 1, STEP.lr)
                grads = step_gradients(models, cohort)
                losses = [oracle.MixtureKl(peers[np.arange(k) != j], w[np.arange(k) != j], 4.0)
                          for j in own]
            elif loss_kind == "ce":
                targets = oracle.one_hot(rng.integers(0, c, size=k * n), c).reshape(k, n, c)
                grads = epoch_gradients(models, x, targets, False)
                losses = [oracle.CrossEntropy(t) for t in targets]
            else:
                targets = rng.dirichlet(np.ones(c), size=(k, n))
                grads = epoch_gradients(models, x, targets, True)
                losses = [oracle.Symmetric(t, STEP.lam, STEP.gamma, STEP.rce_log_floor)
                          for t in targets]
            for params, grad, xk, loss in zip(models, grads, rows, losses):
                size = params.values.size
                for idx in rng.choice(size, size=min(10, size), replace=False):
                    fd = central_diff(params, xk, loss, idx)
                    rel = abs(grad[idx] - fd) / max(abs(fd), abs(grad[idx]), 1e-6)
                    assert rel < 1e-4


class TestBiasGradient:
    """A bias gradient has the bits of np.add.reduce(delta, axis=-2)."""

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 7, 12, 32, 128])
    def test_bias_gradients_match_a_row_reduction(self, width):
        rng = np.random.default_rng(width)
        for k, n in ((1, 1), (3, 7), (20, 32), (6, 500), (2, 1500)):
            dims = ((5, width),)
            values = rng.normal(size=(k + 2) * nn.param_count(dims))
            layers = nn._layer_views(values.reshape(k + 2, -1)[:k], dims)
            delta = rng.normal(size=(k + 2, n, width)) * 10.0 ** rng.integers(-5, 300, (1, n, 1))
            delta[rng.random(delta.shape) < 0.1] = -0.0
            delta[k, :, 0] = -0.0  # a column of -0.0 alone sums to -0.0
            delta = delta[1:k + 1]  # a row slice of a larger stack
            grad = np.full((k, nn.param_count(dims) + 3), np.nan)
            grads = nn._layer_views(grad[:, 1:-2], dims)  # gb views a gradient buffer
            assert not grads[0][1].flags.c_contiguous or k == 1
            for x in (rng.normal(size=(n, 5)), rng.normal(size=(k, n, 5))):
                nn._backprop(layers, [x], delta, grads)
                expected = np.add.reduce(delta, axis=-2)
                assert grads[0][1].tobytes() == np.ascontiguousarray(expected).tobytes()
        assert not np.isnan(grad[:, 1:-2]).any() and np.isnan(grad[:, [0, -2, -1]]).all()


class TestSgd:
    """The oracle's descent step, which the bitwise cohort tests replay."""

    def test_zero_step(self):
        params = nn.init_params(((2, 2),), 5)
        after = oracle.sgd_step(params, np.ones(params.values.size), 0.0)
        assert np.array_equal(after.values, params.values)

    def test_hand_case(self):
        dims = ((1, 1),)
        params = nn.ModelParams(dims, np.array([1.0, 2.0]))
        after = oracle.sgd_step(params, np.array([1.0, -1.0]), 0.5)
        assert np.allclose(after.values, [0.5, 2.5], atol=0)

    def test_two_steps_compose(self):
        params = nn.init_params(((2, 3),), 9)
        rng = np.random.default_rng(1)
        g1 = rng.normal(size=params.values.size)
        g2 = rng.normal(size=params.values.size)
        stepped = oracle.sgd_step(oracle.sgd_step(params, g1, 0.1), g2, 0.1)
        combined = oracle.sgd_step(params, g1 + g2, 0.1)
        assert np.allclose(stepped.values, combined.values, atol=1e-12, rtol=0)


class TestModelParams:
    def test_length_validated(self):
        with pytest.raises(ConfigError):
            nn.ModelParams(((2, 3),), np.zeros(5))

    def test_values_frozen(self):
        params = nn.init_params(((2, 2),), 0)
        with pytest.raises(ValueError):
            params.values[0] = 1.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            nn.ModelParams(((1, 1),), np.array([np.nan, 0.0]))


class TestStackedKernels:
    """K models stacked on a leading axis must give each model its lone bits."""

    K = 5

    def test_forward_shared_and_stacked_batches(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dims, _ = random_net(rng, max_width=12, depth_choices=(1, 2, 3))
            models = [nn.init_params(dims, int(rng.integers(1 << 30))) for _ in range(self.K)]
            cohort = nn.Cohort.of(models)
            shared = rng.normal(size=(int(rng.integers(1, 40)), dims[0][0]))
            own = rng.normal(size=(self.K, int(rng.integers(1, 40)), dims[0][0]))
            for batch, pick in ((shared, lambda k: shared), (own, lambda k: own[k])):
                out = cohort.forward(batch)
                for k, params in enumerate(models):
                    assert out[k].tobytes() == oracle.logits(params, pick(k)).tobytes()

    def test_mixture_leaves_out_own_row(self):
        rng = np.random.default_rng(5)
        for k_total in (1, 2, 5, 9, 17, 100):
            peers = nn.softmax_t(rng.normal(size=(k_total, 20, 3)), 4.0)
            w = rng.dirichlet(np.ones(k_total))
            w[rng.random(k_total) < 0.2] = 0.0  # clamped weights stay in the sums
            own = rng.permutation(k_total)[: min(k_total, 7)]
            spec = nn.mixture_spec(peers, w, 4.0, own)
            for row, k in enumerate(own):
                mask = np.arange(k_total) != k
                alone = nn.mixture_spec(peers[mask], w[mask], 4.0)
                assert spec.mixture[row].tobytes() == alone.mixture.tobytes()
                assert spec.mass[row, 0, 0] == alone.mass

    def test_stacked_shapes_validated(self):
        dims = ((2, 3),)
        with pytest.raises(ConfigError):
            nn.ModelParams(dims, np.zeros((2, 9)))  # a stack of models is a Cohort
        with pytest.raises(ConfigError):
            nn.Cohort((dims,), (2,), np.zeros(17))
        cohort = nn.Cohort((dims,), (2,), np.zeros(18))
        assert cohort.stacks[0].shape == (2, 9)
        for batch in (np.zeros((2, 4, 3)), np.zeros((3, 4, 2)), np.zeros(2)):
            with pytest.raises(ConfigError):
                cohort.forward(batch)

    def test_nonfinite_softmax_names_the_first_stacked_row(self):
        z = np.zeros((4, 3, 2))
        z[3, 0, 0] = np.inf
        z[1, 2, 1] = np.nan
        with pytest.raises(NumericError) as caught:
            nn.softmax_t(z, 1.0)
        assert caught.value.rows[0] == 1
        with pytest.raises(NumericError) as caught:
            nn.softmax_t(z[1], 1.0)
        assert caught.value.rows == []


class TestCohortKernels:
    """Blocks of several architectures, stepped together in one buffer, must
    give every model the bits of the oracle's backward and SGD step run on
    it alone."""

    def _cohort(self, rng, d=3, c=4):
        models = []
        for _ in range(int(rng.integers(1, 4))):
            hidden = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(1, 3)))]
            widths = [d, *hidden, c]
            dims = tuple(zip(widths[:-1], widths[1:]))
            models += [nn.init_params(dims, int(rng.integers(1 << 30)))
                       for _ in range(int(rng.integers(1, 4)))]
        return nn.Cohort.of(models)

    def test_sgd_epoch_matches_backward_steps(self):
        rng = np.random.default_rng(7)
        h = nn.Hyperparams(lr=0.05)
        for _ in range(10):
            cohort = self._cohort(rng)
            k = len(cohort)
            size, batch = int(rng.integers(1, 50)), int(rng.integers(1, 17))
            x = rng.normal(size=(k, size, 3))
            targets = rng.dirichlet(np.ones(4), size=(k, size))
            for symmetric in (False, True):
                stepped = cohort.copy()
                assert nn.cohort_sgd_epoch(stepped, x, targets, in_order(x), batch, h,
                                           symmetric) is None
                for row, (params, new) in enumerate(zip(cohort.models(), stepped.models())):
                    for start in range(0, size, batch):
                        t = targets[row, start : start + batch]
                        loss = (oracle.Symmetric(t, h.lam, h.gamma, h.rce_log_floor)
                                if symmetric else oracle.CrossEntropy(t))
                        grad = oracle.backward(params, x[row, start : start + batch], loss)
                        params = oracle.sgd_step(params, grad, h.lr)
                    assert new.layer_dims == params.layer_dims
                    assert new.values.tobytes() == params.values.tobytes()

    def test_sgd_epoch_takes_each_models_rows_in_its_order(self):
        """Batches gathered by each model's order, with the loss chosen per
        model, step it as the oracle steps it on its rows shuffled before."""
        rng = np.random.default_rng(11)
        h = nn.Hyperparams(lr=0.05)
        for _ in range(10):
            cohort = self._cohort(rng)
            k = len(cohort)
            size, batch = int(rng.integers(1, 50)), int(rng.integers(1, 17))
            x = rng.normal(size=(k, size, 3))
            labels = rng.integers(0, 4, size=(k, size))
            onehot = labels[..., np.newaxis] == np.arange(4)
            perms = np.stack([rng.permutation(size) for _ in range(k)])
            order = size * np.arange(k)[:, np.newaxis] + perms
            symmetric = rng.random(k) < 0.5
            for targets in (onehot, rng.dirichlet(np.ones(4), size=(k, size))):
                stepped = cohort.copy()
                nn.cohort_sgd_epoch(stepped, x, targets, order, batch, h, symmetric)
                for row, (params, new) in enumerate(zip(cohort.models(), stepped.models())):
                    xs = x[row, perms[row]]
                    ts = targets[row, perms[row]].astype(np.float64)
                    for start in range(0, size, batch):
                        t = ts[start : start + batch]
                        loss = (oracle.Symmetric(t, h.lam, h.gamma, h.rce_log_floor)
                                if symmetric[row] else oracle.CrossEntropy(t))
                        grad = oracle.backward(params, xs[start : start + batch], loss)
                        params = oracle.sgd_step(params, grad, h.lr)
                    assert new.values.tobytes() == params.values.tobytes()

    def test_put_writes_gathered_rows_back(self):
        rng = np.random.default_rng(12)
        cohort = self._cohort(rng)
        while len(cohort) < 3 or len(cohort.dims) < 2:
            cohort = self._cohort(rng)
        rows = np.sort(rng.choice(len(cohort), size=len(cohort) - 1, replace=False))
        part = cohort.gather(rows)
        part.values += 1.0
        before = cohort.models()
        cohort.put(rows, part)
        after = cohort.models()
        for row in range(len(cohort)):
            moved = before[row].values + (1.0 if row in rows else 0.0)
            assert after[row].values.tobytes() == moved.tobytes()

    def test_distill_matches_backward_steps(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            cohort = self._cohort(rng)
            k = len(cohort)
            x = rng.normal(size=(int(rng.integers(1, 30)), 3))
            peers = nn.softmax_t(rng.normal(size=(k, len(x), 4)), 4.0)
            w = rng.dirichlet(np.ones(k))
            own = rng.permutation(k)  # rows in block order leave out any peer
            spec = nn.mixture_spec(peers, w, 4.0, own)
            stepped = cohort.copy()
            assert nn.cohort_distill(stepped, x, spec, 3, 0.1) is None
            for row, (params, new) in enumerate(zip(cohort.models(), stepped.models())):
                keep = np.arange(k) != own[row]
                params = oracle.descend(params, x, oracle.MixtureKl(peers[keep], w[keep], 4.0), 0.1, 3)
                assert new.values.tobytes() == params.values.tobytes()

    def test_distill_from_a_kept_forward_keeps_the_bits(self):
        rng = np.random.default_rng(11)
        for steps in (0, 1, 2, 3):
            cohort = self._cohort(rng)
            x = rng.normal(size=(int(rng.integers(1, 30)), 3))
            peers = nn.softmax_t(rng.normal(size=(3, len(x), 4)), 4.0)
            spec = nn.mixture_spec(peers, rng.dirichlet(np.ones(3)), 4.0)
            fresh, kept = cohort.copy(), cohort.copy()
            logits, inputs = kept.forward(x, keep=True)
            assert logits.tobytes() == kept.forward(x).tobytes() and len(inputs) == len(kept.dims)
            nn.cohort_distill(fresh, x, spec, steps, 0.1)
            nn.cohort_distill(kept, x, spec, steps, 0.1, (logits, inputs))
            assert kept.values.tobytes() == fresh.values.tobytes()

    def test_class_major_forward_is_the_transposed_forward(self):
        rng = np.random.default_rng(12)
        cohort = self._cohort(rng)
        while len(cohort.dims) < 2 or min(cohort.counts) < 2:
            cohort = self._cohort(rng)
        lo, hi = 1, cohort.counts[0] + 1  # cuts the first and second blocks
        part = cohort.take(lo, hi)
        shared = rng.normal(size=(17, 3))
        for batch in (shared, rng.normal(size=(len(part), 17, 3))):
            planes = part.forward(batch, classes_first=True)
            assert planes.flags.c_contiguous and planes.shape == (len(part), 4, 17)
            assert planes.tobytes() == np.ascontiguousarray(
                part.forward(batch).transpose(0, 2, 1)).tobytes()

    def test_forward_rows_follow_the_blocks(self):
        rng = np.random.default_rng(9)
        cohort = self._cohort(rng)
        x = rng.normal(size=(12, 3))
        logits = cohort.forward(x)
        for row, params in enumerate(cohort.models()):
            assert logits[row].tobytes() == oracle.logits(params, x).tobytes()

    def test_block_errors_name_the_block_rows(self):
        cohort = nn.Cohort((((3, 2),), ((2, 2),)), (2, 1), np.zeros(22))
        with pytest.raises(ConfigError, match="model expects 2") as caught:
            cohort.forward(np.zeros((4, 3)))
        assert caught.value.rows == [2]
        logits = np.zeros((3, 2, 2))
        logits[[0, 2], 0, 1] = np.nan
        with pytest.raises(NumericError) as caught:
            nn.softmax_t(logits, 1.0)
        assert caught.value.rows == [0, 2]
        cohort = nn.Cohort((((3, 2),), ((3, 3), (3, 2))), (2, 1), np.zeros(36))
        cohort.stacks[1][0, 3] = np.inf
        spec = nn.mixture_spec(np.full((1, 4, 2), 0.5), np.ones(1), 1.0)
        with pytest.raises(ConfigError, match="must be finite") as caught:
            nn.cohort_distill(cohort, np.zeros((4, 3)), spec, 0, 0.1)
        assert caught.value.rows == [2]

    def test_a_range_of_rows_is_a_view(self):
        rng = np.random.default_rng(10)
        cohort = self._cohort(rng)
        while len(cohort) < 3 or len(cohort.dims) < 2:
            cohort = self._cohort(rng)
        for lo in range(len(cohort)):
            for hi in range(lo + 1, len(cohort) + 1):
                part = cohort.take(lo, hi)
                assert np.shares_memory(part.values, cohort.values)
                expected = cohort.models()[lo:hi]
                assert [(p.layer_dims, p.values.tobytes()) for p in part.models()] == [
                    (p.layer_dims, p.values.tobytes()) for p in expected
                ]
                gathered = cohort.gather(np.arange(lo, hi))
                assert not np.shares_memory(gathered.values, cohort.values)
                assert gathered.values.tobytes() == part.values.tobytes()
                assert (gathered.dims, gathered.counts) == (part.dims, part.counts)
        x = rng.normal(size=(len(cohort), 6, 3))
        targets = rng.dirichlet(np.ones(4), size=(len(cohort), 6))
        whole = cohort.copy()
        h = nn.Hyperparams(lr=0.05)
        order = in_order(x)
        nn.cohort_sgd_epoch(whole, x, targets, order, 4, h, True)
        for lo, hi in ((0, 1), (1, len(cohort))):
            nn.cohort_sgd_epoch(cohort.take(lo, hi), x, targets, order[lo:hi], 4, h, True)
        assert whole.values.tobytes() == cohort.values.tobytes()
