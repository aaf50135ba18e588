"""Dense neural-network kernel.

Forward/backward passes for small multilayer perceptrons (hidden ReLU,
linear output), tempered softmax, and the loss family used by every
training strategy: cross-entropy, reverse cross-entropy, their weighted
symmetric combination, and KL divergence against fixed peer distributions.

A ModelParams is one model, frozen: how a client's model is initialised,
averaged and handed back when a run ends. A Cohort holds many models, of
one or more architectures, in one writable buffer: each architecture's
models form a block whose (k, P) values run their matmuls as one stack,
and the blocks' rows follow each other on one client axis.
cohort_sgd_epoch and cohort_distill step a cohort in place. Each block
runs its own matmuls; the softmax, its finite check and the logit
gradient then run once over the whole cohort's logits, which are
elementwise or row-wise along the class axis, so every model gets the
bits it would get alone: numpy hands every (rows, fan_in) x (fan_in,
fan_out) slice of a stack to the same BLAS call and reduces each row
alike. tests/oracle.py is the per-model reference they are checked
against. The hot passes skip numpy's short inner loop per row: softmax_t, the
losses and the target gradients reduce over the class axis by whole
class planes (elementwise maxima and, for 2 to 7 classes, adds), with the
bits of a reduction along that axis; a bias gradient is an einsum over
the rows, with np.add.reduce's bits but at width 1; and evaluation's
forward writes class-major logits, adding the last bias on whole planes.
A forward that keeps its layer inputs serves cohort_distill's first step.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError, stacked_rows

PROB_FLOOR = 1e-12

LayerDims = tuple[tuple[int, int], ...]


def param_count(layer_dims: Sequence[tuple[int, int]]) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in layer_dims)


def _layer_views(values: np.ndarray, dims: LayerDims) -> tuple:
    """(weights (..., fan_in, fan_out), biases (..., fan_out)) views of values per layer."""
    lead = values.shape[:-1]
    layers = []
    offset = 0
    for fan_in, fan_out in dims:
        w = values[..., offset : offset + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        offset += fan_in * fan_out
        layers.append((w, values[..., offset : offset + fan_out]))
        offset += fan_out
    return tuple(layers)


@dataclass(frozen=True)
class ModelParams:
    """One model: a flat, read-only float64 parameter vector plus the layer
    shapes that interpret it.

    Layout is layer-major: weights (fan_in x fan_out, C order) then biases
    for layer 0, then layer 1, and so on. Training steps models as rows of
    a Cohort, whose buffer holds each model's vector in this layout.
    """

    layer_dims: LayerDims
    values: np.ndarray

    def __post_init__(self):
        dims = tuple((int(i), int(o)) for i, o in self.layer_dims)
        if not dims:
            raise ConfigError("model needs at least one layer")
        for (_, out_prev), (in_next, _) in zip(dims[:-1], dims[1:]):
            if out_prev != in_next:
                raise ConfigError(f"layer shapes do not chain: {dims}")
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.shape != (param_count(dims),):
            raise ConfigError(f"expected {param_count(dims)} parameter values, got {values.shape}")
        if not np.isfinite(values).all():
            raise ConfigError("parameter values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "values", values)

@dataclass(frozen=True)
class Hyperparams:
    """Training constants shared by the loss family and the protocols.

    lam/gamma weight the symmetric loss terms, temperature only applies to
    the collaborative distillation loss, zeta shapes the label-refinement
    schedule, eta_conf scales confidence reweighting, and rce_log_floor is
    the clamp substituted for log(0) in the reverse term.
    """

    lam: float = 0.4
    gamma: float = 0.9
    temperature: float = 4.0
    lr: float = 0.001
    zeta: float = 10.0
    eta_conf: float = 1.2
    rce_log_floor: float = -4.0

    def __post_init__(self):
        if self.lam < 0 or self.gamma < 0 or self.eta_conf < 0:
            raise ConfigError("loss and confidence weights must be non-negative")
        if self.temperature <= 0 or self.lr <= 0 or self.zeta <= 0:
            raise ConfigError("temperature, lr and zeta must be positive")
        if self.rce_log_floor >= 0:
            raise ConfigError("rce_log_floor must be strictly negative")


def init_params(layer_dims: Sequence[tuple[int, int]], seed) -> ModelParams:
    """Fan-based uniform weight init, zero biases, from a dedicated stream."""
    rng = np.random.default_rng(seed)
    chunks = []
    for fan_in, fan_out in layer_dims:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-limit, limit, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return ModelParams(tuple(layer_dims), np.concatenate(chunks))


def _check_features(x: np.ndarray, dims: LayerDims) -> None:
    if x.shape[-1] != dims[0][0]:
        raise ConfigError(f"batch has {x.shape[-1]} features, model expects {dims[0][0]}")


def _forward(layers, x: np.ndarray, out=None) -> list:
    """Every layer's input activations plus the logits, written into out if
    given (on a view of class planes, the bias adds along rows, not classes).

    The ReLU runs in place, so no pre-activation is kept: a hidden unit's
    pre-activation is positive exactly where its activation is.
    """
    activations = [x]
    h = x
    last = len(layers) - 1
    for idx, (w, b) in enumerate(layers):
        h = h @ w
        if idx == last and out is not None:
            out[...] = h
            h = out
        h += b[..., np.newaxis, :]
        if idx != last:
            np.maximum(h, 0.0, out=h)
        activations.append(h)
    return activations


# A diverging model overflows in its forward and backward passes; the
# next softmax_t reports it as a NumericError.
_OVERFLOW_IS_CAUGHT_LATER = dict(over="ignore", invalid="ignore")


def softmax_t(logits: np.ndarray, tau: float, axis: int = -1) -> np.ndarray:
    """Temperature softmax over the class axis, max-shifted for stability.

    Its bits are those of the plain formula: subtract the row max, exp,
    divide by e.sum(axis=-1). Class-major logits, (K, C, N) with axis=1,
    get the bits of their row-major (K, N, C) copy; logits are not written.
    """
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    z = np.asarray(logits, dtype=np.float64)
    finite = np.isfinite(z)
    if not finite.all():
        rows = [] if z.ndim < 3 else np.flatnonzero(~finite.reshape(len(z), -1).all(axis=-1))
        raise NumericError("softmax input contains non-finite values", rows=rows)
    scaled = z if tau == 1.0 else z / tau  # z / 1.0 has the bits of z
    lead = (slice(None),) * (axis % z.ndim)  # class plane c is scaled[lead + (c,)]
    # Whole class planes: a max is exact in any order.
    top = scaled[lead + (0,)]
    for c in range(1, scaled.shape[axis]):
        top = np.maximum(top, scaled[lead + (c,)])
    e = np.subtract(scaled, top[lead + (np.newaxis,)], out=None if scaled is z else scaled)
    np.exp(e, out=e)
    e /= _class_sum(e, axis)[lead + (np.newaxis,)]
    return e


def _class_sum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """a.sum(axis=axis) with the bits of a sum along a last axis. numpy adds below 8 terms
    one after another, as the class planes are added here, without its short inner loop
    per row; more go to numpy, over a copy with the classes last if they are not."""
    lead = (slice(None),) * (axis % a.ndim)
    if not 1 < a.shape[axis] < 8:
        rows = a if len(lead) == a.ndim - 1 else np.ascontiguousarray(np.moveaxis(a, axis, -1))
        return rows.sum(axis=-1)
    total = a[lead + (0,)] + 0.0  # numpy starts from +0.0: a row of -0.0 sums to +0.0
    for c in range(1, a.shape[axis]):
        total += a[lead + (c,)]
    return total


def _check_pair(pred, target) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ConfigError(f"distribution shapes differ: {p.shape} vs {t.shape}")
    return p, t


@np.errstate(divide="ignore")
def _floored_log(x: np.ndarray, floor: float) -> np.ndarray:
    # Clamp convention: log(v) is floored at `floor`, so entries below
    # exp(floor), and zeros, negatives and NaN (as log 0), score the same.
    return np.maximum(np.log(np.where(x > 0, x, 0.0)), floor)


def _ce(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-row cross entropy -sum(target * log pred), pred clamped at 1e-12."""
    return -_class_sum(target * np.log(np.maximum(pred, PROB_FLOOR)))


def sl_loss(pred, target, h: Hyperparams):
    """Symmetric loss lam * CE + gamma * RCE per row of distributions (N x C).

    RCE is the reverse cross entropy -sum(pred * log* target) with the log
    floored at h.rce_log_floor. A single distribution gives a scalar.
    """
    p, t = _check_pair(pred, target)
    rce = -_class_sum(p * _floored_log(t, h.rce_log_floor))
    return h.lam * _ce(p, t) + h.gamma * rce


@dataclass(frozen=True)
class MixtureKlSpec:
    """Mean weighted KL from fixed peer distributions to the model's output.

    mixture (N, C) is sum_j w_j softmax_t(peer_j, tau) and mass is sum_j w_j;
    they are all the gradient needs of the peers. For a stack of K models
    mixture is (K, N, C) and mass (K, 1, 1).
    """

    mixture: np.ndarray
    mass: float | np.ndarray
    tau: float


def mixture_spec(peer_probs, peer_weights, tau: float, own=None) -> MixtureKlSpec:
    """Distillation target from tempered peer distributions (J, N, C), weights (J,).

    With own (K,), the target is stacked for K models, the k-th of which
    leaves peer own[k] (itself) out: all K mixtures come from one einsum
    over a weight matrix with a zero at (k, own[k]).
    """
    p = np.asarray(peer_probs, dtype=np.float64)
    w = np.asarray(peer_weights, dtype=np.float64)
    if p.ndim != 3:
        raise ConfigError(f"peer distributions must be J x N x C, got {p.shape}")
    if w.shape != (p.shape[0],):
        raise ConfigError("one weight per peer required")
    if own is None:
        return MixtureKlSpec(np.einsum("j,jnc->nc", w, p), w.sum(), tau)
    keep = np.arange(w.size) != np.asarray(own)[:, np.newaxis]
    # Summing the kept weights alone, in peer order, gives each mass the
    # bits of a sum over that model's peers; a zero in the sum would not.
    mass = np.broadcast_to(w, keep.shape)[keep].reshape(len(keep), -1).sum(axis=-1)
    mixture = np.einsum("kj,jnc->knc", np.where(keep, w, 0.0), p)
    return MixtureKlSpec(mixture, mass[:, np.newaxis, np.newaxis], tau)


def _target_gradient(q, targets, symmetric, h: Hyperparams):
    """d(mean loss)/d(logits) against fixed target rows (K, n, C), from the
    models' softmax q: the symmetric loss for the models where symmetric
    (K,) holds, else cross-entropy. The mean is over rows."""
    rows = q.shape[-2]
    ce_grad = q * _class_sum(targets)[..., np.newaxis] - targets
    if not symmetric.any():
        return ce_grad / rows
    log_targets = _floored_log(targets, h.rce_log_floor)
    rce_grad = -q * (log_targets - _class_sum(q * log_targets)[..., np.newaxis])
    sl_grad = (h.lam * ce_grad + h.gamma * rce_grad) / rows
    if symmetric.all():
        return sl_grad
    return np.where(symmetric[:, np.newaxis, np.newaxis], sl_grad, ce_grad / rows)


def _mixture_gradient(logits: np.ndarray, spec: MixtureKlSpec) -> np.ndarray:
    """d(mean loss)/d(logits) against a fixed peer mixture; the mean is over rows."""
    if spec.mixture.shape not in (logits.shape, logits.shape[1:]):
        raise ConfigError(
            f"peer distributions {spec.mixture.shape} do not match logits {logits.shape}"
        )
    grad = softmax_t(logits, spec.tau)
    grad *= spec.mass
    grad -= spec.mixture
    grad /= spec.tau * logits.shape[-2]
    return grad


def _backprop(layers, activations, delta, grads) -> None:
    """Each layer's (weight, bias) gradient for the logit gradient delta,
    written into that layer's views in grads; see the module note."""
    for idx in range(len(layers) - 1, -1, -1):
        gw, gb = grads[idx]
        np.matmul(activations[idx].swapaxes(-1, -2), delta, out=gw)
        if gb.shape[-1] == 1:
            np.add.reduce(delta, axis=-2, out=gb)
        else:
            np.einsum("...nc->...c", delta, out=gb)
        if idx > 0:
            delta = delta @ layers[idx][0].swapaxes(-1, -2)
            delta *= activations[idx] > 0


# -- cohorts: many models in one writable buffer ----------------------------


class Cohort:
    """Models of one or more architectures in one writable buffer.

    Rows run block by block: block b holds counts[b] models with layer
    shapes dims[b], and its (k_b, P_b) values, stacks[b], follow block
    b-1's in `values`. A range of rows is therefore a range of the buffer;
    take() returns it as a cohort that views it. cohort_sgd_epoch and
    cohort_distill step a cohort in place.
    """

    def __init__(self, dims, counts, values: np.ndarray):
        self.dims = tuple(dims)
        self.counts = tuple(counts)
        sizes = [k * param_count(layer_dims) for layer_dims, k in zip(self.dims, self.counts)]
        if values.shape != (sum(sizes),):
            raise ConfigError(f"expected {sum(sizes)} parameter values, got {values.shape}")
        self.values = values
        self.stacks, self.rows, self._layers = [], [], []
        start = row = 0
        for layer_dims, k, size in zip(self.dims, self.counts, sizes):
            stack = values[start : start + size].reshape(k, -1)
            self.stacks.append(stack)
            self.rows.append(slice(row, row + k))
            self._layers.append(_layer_views(stack, layer_dims))
            start += size
            row += k

    @classmethod
    def of(cls, models) -> "Cohort":
        """The models in order, each run of one architecture forming a block."""
        dims, counts = [], []
        for model in models:
            if dims and dims[-1] == model.layer_dims:
                counts[-1] += 1
            else:
                dims.append(model.layer_dims)
                counts.append(1)
        return cls(dims, counts, np.concatenate([model.values for model in models]))

    def __len__(self) -> int:
        return self.rows[-1].stop

    def take(self, lo: int, hi: int) -> "Cohort":
        """Rows lo to hi - 1, viewing this cohort's buffer."""
        dims, counts, spans = [], [], []
        start = 0
        for layer_dims, rows, stack in zip(self.dims, self.rows, self.stacks):
            a, b = max(lo, rows.start), min(hi, rows.stop)
            if a < b:
                dims.append(layer_dims)
                counts.append(b - a)
                width = stack.shape[1]
                spans.append((start + (a - rows.start) * width, start + (b - rows.start) * width))
            start += stack.size
        return Cohort(dims, counts, self.values[spans[0][0] : spans[-1][1]])

    def gather(self, rows) -> "Cohort":
        """A copy of the rows at ascending positions `rows`."""
        rows = np.asarray(rows)
        dims, counts, parts = [], [], []
        for layer_dims, span, stack in zip(self.dims, self.rows, self.stacks):
            mine = rows[(rows >= span.start) & (rows < span.stop)] - span.start
            if mine.size:
                dims.append(layer_dims)
                counts.append(mine.size)
                parts.append(stack[mine].ravel())
        return Cohort(dims, counts, np.concatenate(parts))

    def put(self, rows, part: "Cohort") -> None:
        """Write part, a gather() of the rows at ascending positions `rows`,
        back into those rows."""
        stacks = iter(part.stacks)
        for span, stack in zip(self.rows, self.stacks):
            mine = rows[(rows >= span.start) & (rows < span.stop)] - span.start
            if mine.size:
                stack[mine] = next(stacks)

    def copy(self) -> "Cohort":
        return Cohort(self.dims, self.counts, self.values.copy())

    def models(self) -> list[ModelParams]:
        """Every row as a ModelParams of its own, in row order."""
        return [
            ModelParams(layer_dims, values.copy())
            for layer_dims, stack in zip(self.dims, self.stacks)
            for values in stack
        ]

    @np.errstate(**_OVERFLOW_IS_CAUGHT_LATER)
    def forward(self, batch, keep: bool = False, classes_first: bool = False):
        """Logits (K, N, C), rows in block order, or (K, C, N) with classes_first.

        batch is one (N, d) matrix shared by all K models or a (K, N, d) stack.
        With keep, returns (logits, each block's layer inputs) for cohort_distill.
        """
        logits, inputs = self._pass(self._checked(batch), keep, classes_first)
        return (logits, inputs) if keep else logits

    def _checked(self, batch) -> np.ndarray:
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim not in (2, 3) or (x.ndim == 3 and len(x) != len(self)):
            raise ConfigError(f"batch must be a 2-D feature matrix or a stack of {len(self)}")
        for layer_dims, rows in zip(self.dims, self.rows):
            with stacked_rows(rows):
                _check_features(x, layer_dims)
        return x

    def _pass(self, x: np.ndarray, keep: bool = True, classes_first: bool = False):
        """The cohort's logits (K, n, C), or with classes_first (K, C, n)
        written block by block in place, and, if keep, each block's layer
        inputs for backprop."""
        planes = np.empty((len(self), self.dims[0][-1][1], x.shape[-2])) if classes_first else None
        logits, caches = [], []
        for layers, rows in zip(self._layers, self.rows):
            out = None if planes is None else planes[rows].swapaxes(-1, -2)
            *inputs, block_logits = _forward(layers, x if x.ndim == 2 else x[rows], out)
            logits.append(block_logits)
            if keep:
                caches.append(inputs)
        if planes is not None:
            return planes, caches
        return (logits[0] if len(logits) == 1 else np.concatenate(logits)), caches

    def _descend(self, x: np.ndarray, gradient, grad: "Cohort", lr: float, done=None) -> None:
        """One descent step on batch x: gradient(logits) is the loss's logit
        gradient, backpropagated block by block into grad, from done if given
        (a kept forward of x at these parameters). The arrays the step makes
        are freed when it returns, before a next step's exist."""
        logits, caches = done or self._pass(x)
        delta = gradient(logits)
        del logits
        for layers, grads, rows, activations in zip(
            self._layers, grad._layers, self.rows, caches
        ):
            _backprop(layers, activations, delta[rows], grads)
        self.values -= lr * grad.values

    def _check_finite(self) -> None:
        if np.isfinite(self.values).all():
            return
        for stack, rows in zip(self.stacks, self.rows):
            if not np.isfinite(stack).all():
                with stacked_rows(rows):
                    raise ConfigError("parameter values must be finite")


@np.errstate(**_OVERFLOW_IS_CAUGHT_LATER)
def cohort_sgd_epoch(
    cohort: Cohort, x, targets, order, batch_size: int, h: Hyperparams, symmetric
) -> None:
    """One epoch of minibatch SGD of a cohort, in place.

    x (..., d) and targets (..., C), a float or bool stack, are read as
    tables of rows, their leading axes flattened. Row k trains on its rows
    order[k] of both, for order (K, S), in consecutive batches of
    batch_size: each step gathers every model's batch with one np.take
    per table. The loss is the mean symmetric loss (lam, gamma,
    rce_log_floor of h) for the models where symmetric, one bool or (K,)
    bools, holds, else cross-entropy, at learning rate h.lr. The input is
    checked once; the parameters are checked to be finite at its end.
    """
    xs = cohort._checked(np.reshape(x, (-1, np.shape(x)[-1])))
    ts = np.reshape(targets, (-1, np.shape(targets)[-1]))
    grad = Cohort(cohort.dims, cohort.counts, np.empty_like(cohort.values))
    symmetric = np.broadcast_to(symmetric, (len(cohort),))
    for lo in range(0, order.shape[1], batch_size):
        batch = order[:, lo : lo + batch_size].astype(np.intp, copy=False)
        t = np.take(ts, batch, axis=0).astype(np.float64, copy=False)
        cohort._descend(
            np.take(xs, batch, axis=0),
            lambda z: _target_gradient(softmax_t(z, 1.0), t, symmetric, h), grad, h.lr,
        )
    cohort._check_finite()


@np.errstate(**_OVERFLOW_IS_CAUGHT_LATER)
def cohort_distill(
    cohort: Cohort, x, spec: MixtureKlSpec, steps: int, lr: float, done=None
) -> None:
    """steps full-batch descent steps of a cohort, in place, on one shared
    batch x (N, d) against a fixed peer mixture stacked in row order; the
    first starts from done, cohort.forward(x, keep=True), if given."""
    x = cohort._checked(x)
    grad = Cohort(cohort.dims, cohort.counts, np.empty_like(cohort.values))
    for _ in range(steps):
        cohort._descend(x, lambda z: _mixture_gradient(z, spec), grad, lr, done)
        done = None
    cohort._check_finite()
