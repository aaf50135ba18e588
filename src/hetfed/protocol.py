"""Round-based federation engine.

A single controller owns all aggregation state and drives synchronous
rounds, counting the messages a deployment of the round would exchange.
Clients are plain state records; their per-round work (training,
inference, logit computation) touches only their own model, shard and RNG
stream. Every client's shard holds the same number of rows, so the
controller stacks all clients in one group and keeps their models in one
nn.Cohort, built once and stepped in place by every phase: each
architecture's models run their matmuls as one stack (a block), and the
softmax and the loss gradient run once over the logits of every block. A
phase runs the group in chunks of consecutive rows, each a view of the
group's cohort. Every client gets the bits it would get alone. FedAvg
folds its participants' rows in ascending client id, which pins the
floating-point reduction order and makes whole runs bit-reproducible for
a fixed seed.

Four strategies are implemented:

* ``local_only``   -- independent training, no communication.
* ``fedavg``       -- parameter averaging over homogeneous models.
* ``hetero_distill`` -- logit averaging on a public set, KL refinement.
* ``rhfl`` family  -- confidence-weighted distillation with symmetric-loss
  training and optional label refinement, over an ablation flag lattice
  (hfl / sl / dlr / reweight) that also expresses every ablation row.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import metrics, nn, reweight
from .data import Dataset, NoisyDataset
from .errors import ConfigError, NumericError, ProtocolError

STRATEGIES = (
    "local_only",
    "fedavg",
    "hetero_distill",
    "rhfl",
    "rhfl_plus_ccr",
    "rhfl_plus_eccr",
)


@dataclass(frozen=True)
class AblationFlags:
    """Component switches mirroring the ablation grid columns."""

    hfl: bool = False
    sl: bool = False
    dlr: bool = False
    reweight: str = "none"

    def __post_init__(self):
        if self.reweight not in reweight.REWEIGHT_MODES:
            raise ConfigError(f"unknown reweight mode {self.reweight!r}")


STRATEGY_FLAGS = {
    "local_only": AblationFlags(),
    "fedavg": AblationFlags(),
    "hetero_distill": AblationFlags(hfl=True),
    "rhfl": AblationFlags(hfl=True, sl=True, dlr=False, reweight="ccr"),
    "rhfl_plus_ccr": AblationFlags(hfl=True, sl=True, dlr=True, reweight="ccr"),
    "rhfl_plus_eccr": AblationFlags(hfl=True, sl=True, dlr=True, reweight="eccr"),
}

# Strategies whose rounds read no flag; their presets only record what they do.
FIXED_FLAG_STRATEGIES = ("fedavg", "hetero_distill")


def resolve_flags(strategy: str, overrides: dict | None = None) -> AblationFlags:
    """Strategy presets overlaid with any explicit flag overrides.

    A fedavg or hetero_distill override must equal the preset (as every
    echoed config's does), since those strategies would ignore it.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    preset = STRATEGY_FLAGS[strategy]
    if not overrides:
        return preset
    unknown = set(overrides) - {"hfl", "sl", "dlr", "reweight"}
    if unknown:
        raise ConfigError(f"unknown ablation flags: {sorted(unknown)}")
    flags = replace(preset, **overrides)
    if strategy in FIXED_FLAG_STRATEGIES:
        for name, value in overrides.items():
            if value != getattr(preset, name):
                raise ConfigError(
                    f"strategy {strategy!r} ignores flags: flags.{name}={json.dumps(value)} "
                    f"differs from its preset {json.dumps(getattr(preset, name))}"
                )
    return flags


@dataclass(frozen=True)
class StrategyConfig:
    strategy: str
    rounds: int
    local_epochs: int
    collab_epochs: int
    batch_size: int
    hyperparams: nn.Hyperparams
    flags: AblationFlags
    participation: float = 1.0

    def __post_init__(self):
        resolve_flags(self.strategy, asdict(self.flags))
        if self.rounds < 0 or self.local_epochs < 0 or self.collab_epochs < 0:
            raise ConfigError("round and epoch counts must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if not 0.0 < self.participation <= 1.0:
            raise ConfigError("participation must lie in (0, 1]")


@dataclass
class ClientState:
    """Everything one client owns: model, shard, RNG stream.

    During a run the model lives in the controller's cohort; Controller.run
    writes it back here when the run ends.
    """

    client_id: int
    params: nn.ModelParams
    shard: NoisyDataset
    rng: np.random.Generator

    @property
    def arch(self):
        return self.params.layer_dims


@dataclass(frozen=True)
class ClientRoundStats:
    client_id: int
    accuracy: float
    roc_auc: float | None
    pr_auc: float | None
    mean_sl_loss: float
    q: float | None = None
    p: float | None = None
    f: float | None = None
    weight: float | None = None


@dataclass(frozen=True)
class RoundRecord:
    round_idx: int
    clients: tuple[ClientRoundStats, ...]
    clamp_events: int = 0


@dataclass
class RunResult:
    records: list[RoundRecord]
    messages: int
    round_seconds: list[float]
    phase_seconds: list[dict[str, float]]  # per round, seconds per phase


# Bytes a chunk of clients may hold in its working set: small enough to
# keep peak memory near that of one big client, large enough to spread
# numpy's per-call cost over many small ones.
_CHUNK_BYTES = 1 << 21


@dataclass
class ClientGroup:
    """Clients whose shards share one size, stacked on a row axis.

    `cohort` holds their models, one block per architecture in the order
    in which the architectures first appear. The shard features (K, S, d),
    the noisy one-hot labels (K, S, C) and `clients` follow its rows;
    index maps each row to its client's position in the controller's id
    order. `evaluated` is the latest evaluation's shard losses (K,) and a
    copy of the cohort they were taken at, which the next confidence
    upload reuses; `history` is the one before it.
    """

    clients: list[ClientState]
    index: np.ndarray
    cohort: nn.Cohort
    features: np.ndarray
    onehot: np.ndarray
    evaluated: tuple | None = None
    history: tuple | None = None

    @classmethod
    def stack(cls, clients, index) -> "ClientGroup":
        sizes = sorted({c.shard.size for c in clients})
        if len(sizes) > 1:
            raise ConfigError(f"client shards must share one size, got sizes {sizes}")
        by_arch: dict[tuple, list] = {}
        for client, pos in zip(clients, index):
            by_arch.setdefault(client.arch, []).append((client, pos))
        rows = [row for members in by_arch.values() for row in members]
        clients = [client for client, _ in rows]
        classes = clients[0].shard.base.class_count
        return cls(
            clients,
            np.array([pos for _, pos in rows]),
            nn.Cohort.of([c.params for c in clients]),
            np.stack([c.shard.base.features for c in clients]),
            np.stack([nn.one_hot(c.shard.noisy_labels, classes) for c in clients]),
        )

    def take(self, lo: int, hi: int) -> "ClientGroup":
        """Rows lo to hi - 1, whose cohort views this group's: stepping it
        steps these clients' models here."""
        rows = slice(lo, hi)
        return ClientGroup(
            self.clients[rows], self.index[rows], self.cohort.take(lo, hi),
            self.features[rows], self.onehot[rows],
        )

    def gather(self, rows: np.ndarray) -> "ClientGroup":
        """A copy of the rows at ascending positions `rows`."""
        return ClientGroup(
            [self.clients[i] for i in rows], self.index[rows], self.cohort.gather(rows),
            self.features[rows], self.onehot[rows],
        )


def _working_width(dims) -> int:
    """Values per row that a forward and backward pass hold at once: each
    layer's input activations, pre-activations and deltas."""
    return sum(fan_in + 2 * fan_out for fan_in, fan_out in dims)


def _by_chunk(group: ClientGroup, rows: int, fn) -> list:
    """fn(part) over consecutive, even row ranges of the group.

    A chunk holds as many clients as keep its working set, rows x the
    widest block's working width, near _CHUNK_BYTES; a group that fits
    is its own chunk. The rows an error names are moved from the chunk's
    row axis to the group's.
    """
    per_client = 8 * rows * max(_working_width(dims) for dims in group.cohort.dims)
    k = len(group.clients)
    chunks = -(-k // max(1, _CHUNK_BYTES // per_client))
    if chunks == 1:
        return [fn(group)]
    step = -(-k // chunks)
    out = []
    for lo in range(0, k, step):
        try:
            out.append(fn(group.take(lo, lo + step)))
        except (ConfigError, NumericError, ProtocolError) as exc:
            if getattr(exc, "rows", None):
                exc.rows = [row + lo for row in exc.rows]
            raise
    return out


def fedavg_aggregate(rows: np.ndarray, sizes) -> np.ndarray:
    """Size-weighted mean of the rows of an (n, P) parameter stack,
    folded in row order; returns the (P,) values."""
    if not len(rows) or len(rows) != len(sizes):
        raise ProtocolError("one size per parameter vector required")
    weights = np.asarray(sizes, dtype=np.float64)
    if np.any(weights <= 0):
        raise ProtocolError("aggregation sizes must be positive")
    weights = weights / weights.sum()
    total = np.zeros_like(rows[0])
    for row, w in zip(rows, weights):
        total = total + w * row
    return total


def private_training(
    group: ClientGroup,
    cfg: StrategyConfig,
    epochs: int,
    use_sl: bool,
    dlr_sched: reweight.DlrSchedule | None,
    epoch_base: int,
) -> None:
    """Minibatch SGD epochs of every client of the group on its own noisy shard.

    Each client draws its batch order from its own RNG stream; the group
    steps through the batches in lockstep. When a refinement schedule is
    given, each epoch rebuilds its soft targets from the current
    predictions before any gradient step; targets then stay fixed for the
    epoch.
    """
    size = group.features.shape[1]
    hp = cfg.hyperparams

    def train(part: ClientGroup) -> None:
        clients = np.arange(len(part.clients))[:, np.newaxis]
        for epoch in range(epochs):
            if dlr_sched is not None:
                s = reweight.dlr_weight(epoch_base + epoch + 1, dlr_sched)
                preds = nn.softmax_t(part.cohort.forward(part.features), 1.0)
                targets = reweight.dlr_refine(part.onehot, preds, s)
            else:
                targets = part.onehot
            # Each epoch's shuffled shards, so every batch is a plain slice.
            perms = np.stack([c.rng.permutation(size) for c in part.clients])
            x, targets = part.features[clients, perms], targets[clients, perms]
            nn.cohort_sgd_epoch(part.cohort, x, targets, cfg.batch_size, hp, use_sl)

    _by_chunk(group, size, train)


def collaborative_training(
    group: ClientGroup,
    public: Dataset,
    peer_probs: np.ndarray,
    peer_weights: np.ndarray,
    cfg: StrategyConfig,
    leave_out_own: bool = False,
) -> None:
    """Full-batch descent of every client of the group on its weighted KL
    alignment loss; peers fixed.

    peer_probs are the peers' tempered public-set distributions (J, N, C)
    and peer_weights (J,) their weights; each client's mixture is formed
    once for all collaborative epochs. With leave_out_own the peers are the
    run's clients in id order, and each client leaves its own row out.
    """
    if len(peer_probs) == int(leave_out_own):  # no peers but, maybe, itself
        return
    hp = cfg.hyperparams

    def distill(part: ClientGroup) -> None:
        own = part.index if leave_out_own else None
        spec = nn.mixture_spec(peer_probs, peer_weights, hp.temperature, own)
        nn.cohort_distill(part.cohort, public.features, spec, cfg.collab_epochs, hp.lr)

    _by_chunk(group, public.size, distill)


def evaluate_client(group: ClientGroup, test: Dataset, hp: nn.Hyperparams) -> tuple:
    """Clean-test metrics plus the shard's mean symmetric loss, as columns.

    Returns (accuracy, roc_auc, pr_auc, mean_sl), each (K,) over the
    group's clients in group order. roc_auc is None when the test split
    misses a class; pr_auc is None unless the task is binary and the test
    split holds a positive.
    """

    def evaluate(part: ClientGroup) -> tuple:
        probs = nn.softmax_t(part.cohort.forward(test.features), 1.0)
        acc = metrics.accuracy(probs.argmax(axis=-1), test.labels)
        pr = None
        if test.class_count == 2:
            roc = metrics.roc_auc(probs[..., 1], test.labels)
            scores = [metrics.pr_auc(s, test.labels == 1) for s in probs[..., 1]]
            if scores[0] is not None:
                pr = np.array(scores)
        else:
            roc = metrics.multiclass_roc_auc(probs, test.labels)
        shard = nn.softmax_t(part.cohort.forward(part.features), 1.0)
        sl = nn.sl_loss(shard, part.onehot, hp).mean(axis=-1)
        return acc, roc, pr, sl

    rows = max(test.size, group.features.shape[1])
    chunks = _by_chunk(group, rows, evaluate)
    return tuple(None if col[0] is None else np.concatenate(col) for col in zip(*chunks))


def _row_norms(values: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a (K, P) stack.

    A stacked (1, P) @ (P, 1) matmul takes BLAS's dot per row, as
    np.linalg.norm does, so each norm has the bits of that client's alone;
    an einsum sums in another order.
    """
    return np.sqrt(values[:, np.newaxis, :] @ values[:, :, np.newaxis]).ravel()


class Controller:
    """Synchronous round orchestrator; owns aggregation and the message count.

    The clients, sorted by id, are stacked once into one group; the shards
    of all clients must share one size.
    """

    def __init__(
        self,
        clients: list[ClientState],
        cfg: StrategyConfig,
        test: Dataset,
        public: Dataset | None = None,
        sampler_seed=0,
    ):
        if not clients:
            raise ConfigError("at least one client required")
        self.clients = sorted(clients, key=lambda c: c.client_id)
        ids = [c.client_id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise ConfigError("client ids must be unique")
        self.cfg = cfg
        self.test = test
        self.public = public
        self.messages = 0
        self._sampler = np.random.default_rng(sampler_seed)
        if cfg.flags.hfl and public is None:
            raise ConfigError(f"strategy {cfg.strategy!r} requires a public dataset")
        if cfg.strategy == "fedavg":
            archs = {c.arch for c in self.clients}
            if len(archs) > 1:
                raise ConfigError("fedavg requires a homogeneous architecture")
        if cfg.flags.dlr and cfg.rounds * cfg.local_epochs > 0:
            self.dlr_sched = reweight.DlrSchedule(
                cfg.hyperparams.zeta, cfg.rounds * cfg.local_epochs
            )
        else:
            self.dlr_sched = None
        self.group = ClientGroup.stack(self.clients, np.arange(len(self.clients)))
        self._phase_seconds: dict[str, float] = {}  # the current round's

    # -- plumbing ---------------------------------------------------------

    def _in_phase(self, phase: str, round_idx: int, fn, group: ClientGroup | None = None):
        """fn(group), by default the controller's, timed into the round's
        phase seconds; errors name round, client and phase.

        A NumericError names the lowest client id among its non-finite
        rows; an error raised in one block's work names that block's
        clients, and any other error every client of the group.
        """
        group = self.group if group is None else group
        with self._timed(phase):
            try:
                return fn(group)
            except (ConfigError, NumericError, ProtocolError) as exc:
                rows = getattr(exc, "rows", None) or range(len(group.clients))
                ids = sorted(group.clients[row].client_id for row in rows)
                if isinstance(exc, NumericError) and exc.rows:
                    ids = ids[:1]
                who = f"client {ids[0]}" if len(ids) == 1 else f"clients {ids}"
                raise type(exc)(f"round {round_idx}, {who}, phase {phase}: {exc}") from exc

    @contextmanager
    def _timed(self, phase: str):
        """Time the block into the round's phase seconds; a block that
        raises is not counted."""
        started = time.perf_counter()
        yield
        seconds = self._phase_seconds
        seconds[phase] = seconds.get(phase, 0.0) + time.perf_counter() - started

    def _by_client(self, columns: tuple) -> list:
        """The group's (K, ...) result columns in client id order; a column
        returned as None stays None."""
        out = []
        for part in columns:
            column = None
            if part is not None:
                column = np.empty(part.shape)
                column[self.group.index] = part
            out.append(column)
        return out

    def _public_logits(self, phase: str, round_idx: int) -> np.ndarray:
        """Every client's logits on the public set (K, N, C), in id order."""
        x = self.public.features

        def forward(group: ClientGroup):
            chunks = _by_chunk(group, len(x), lambda part: part.cohort.forward(x))
            return (np.concatenate(chunks),)

        (logits,) = self._in_phase(phase, round_idx, lambda g: self._by_client(forward(g)))
        return logits

    # -- evaluation -------------------------------------------------------

    def _eval_round(self, round_idx: int, confidence: tuple | None = None) -> RoundRecord:
        """Evaluate every client and record the round.

        confidence is the round's reweight.confidence_step result, if the
        round had a confidence step.
        """
        hp = self.cfg.hyperparams

        def evaluate(group: ClientGroup):
            columns = evaluate_client(group, self.test, hp)
            group.evaluated = columns[3], group.cohort.copy()
            return columns

        columns = self._in_phase("eval", round_idx, lambda g: self._by_client(evaluate(g)))
        self.messages += len(self.clients)  # one report per client
        with self._timed("eval"):
            *weighting, clamp_events = confidence or (None, None, None, None, 0)
            k = len(self.clients)
            rows = zip(*(
                [None] * k if column is None else column.tolist()
                for column in columns + weighting
            ))
            stats = tuple(
                ClientRoundStats(c.client_id, *row) for c, row in zip(self.clients, rows)
            )
            return RoundRecord(round_idx, stats, clamp_events)

    # -- strategy rounds --------------------------------------------------

    def _round_fedavg(self, round_idx: int):
        cfg = self.cfg
        group = self.group
        k = len(self.clients)
        self.messages += k  # the global model to every client
        if cfg.participation < 1.0:
            count = max(1, int(round(cfg.participation * k)))
            chosen = np.sort(self._sampler.choice(k, size=count, replace=False))
        else:
            chosen = np.arange(k)
        # One architecture, one block: the rows run in client id order.
        part = group.gather(np.flatnonzero(np.isin(group.index, chosen)))
        part.cohort.stacks[0][:] = group.cohort.stacks[0][0]  # the lowest client id's
        self._in_phase(
            "fedavg", round_idx,
            lambda g: private_training(g, cfg, cfg.local_epochs, use_sl=False,
                                       dlr_sched=None, epoch_base=0),
            part,
        )
        self.messages += len(part.clients)
        sizes = [client.shard.size for client in part.clients]
        group.cohort.stacks[0][:] = fedavg_aggregate(part.cohort.stacks[0], sizes)

    def _round_hetero(self, round_idx: int):
        cfg = self.cfg
        logits = self._public_logits("hetero_share", round_idx)
        # Every client shares its logits; the server shares the average back.
        self.messages += 2 * len(self.clients)

        with self._timed("distill"):
            consensus = logits.mean(axis=0)
            peer = nn.softmax_t(consensus[np.newaxis], cfg.hyperparams.temperature)
        weight = np.ones(1)
        self._in_phase(
            "distill", round_idx,
            lambda g: collaborative_training(g, self.public, peer, weight, cfg),
        )
        self._in_phase(
            "private", round_idx,
            lambda g: private_training(g, cfg, cfg.local_epochs, use_sl=False,
                                       dlr_sched=None, epoch_base=0),
        )

    def _round_lattice(self, round_idx: int) -> tuple | None:
        """local_only and the rhfl family share this flag-driven round.

        Returns the round's confidence step, or None with hfl off.
        """
        cfg = self.cfg
        flags = cfg.flags
        confidence = None

        if flags.hfl:
            hp = cfg.hyperparams

            def phase1(group: ClientGroup):
                # The previous evaluation already took the shard loss of
                # these very parameters.
                (prev_sl, hist), (cur_sl, cur) = group.history, group.evaluated
                if not np.array_equal(cur.values, group.cohort.values):
                    raise ProtocolError("parameters changed after the last evaluation")
                group.history = group.evaluated
                pairs = list(zip(cur.stacks, hist.stacks))
                moved = np.concatenate([_row_norms(c - h) for c, h in pairs])
                base = np.concatenate([_row_norms(h) for _, h in pairs])
                ratio = np.divide(moved, base, out=np.zeros_like(base), where=base > 0)
                return prev_sl, cur_sl, ratio

            prev_sl, cur_sl, ratio = self._in_phase(
                "phase1", round_idx, lambda g: self._by_client(phase1(g))
            )
            logits = self._public_logits("phase1", round_idx)
            with self._timed("phase1"):
                confidence = reweight.confidence_step(
                    flags.reweight, prev_sl, cur_sl, ratio, hp.eta_conf
                )
            weights = confidence[3]
            # Each client uploads its report and its logits; the server
            # broadcasts the weights.
            self.messages += 3 * len(self.clients)

            # Each peer is softmaxed once; every client mixes all but itself.
            with self._timed("distill"):
                peer_probs = nn.softmax_t(logits, hp.temperature)
            self._in_phase(
                "distill", round_idx,
                lambda g: collaborative_training(
                    g, self.public, peer_probs, weights, cfg, leave_out_own=True
                ),
            )

        epoch_base = (round_idx - 1) * cfg.local_epochs
        self._in_phase(
            "private", round_idx,
            lambda g: private_training(
                g, cfg, cfg.local_epochs,
                use_sl=flags.sl, dlr_sched=self.dlr_sched, epoch_base=epoch_base,
            ),
        )
        return confidence

    # -- top level ---------------------------------------------------------

    def run(self) -> RunResult:
        started = time.perf_counter()
        self._phase_seconds = {}
        records = [self._eval_round(0)]
        self.group.history = self.group.evaluated
        seconds = [time.perf_counter() - started]
        phases = [self._phase_seconds]
        for round_idx in range(1, self.cfg.rounds + 1):
            started = time.perf_counter()
            self._phase_seconds = {}
            confidence = None
            if self.cfg.strategy == "fedavg":
                self._round_fedavg(round_idx)
            elif self.cfg.strategy == "hetero_distill":
                self._round_hetero(round_idx)
            else:
                confidence = self._round_lattice(round_idx)
            records.append(self._eval_round(round_idx, confidence))
            seconds.append(time.perf_counter() - started)
            phases.append(self._phase_seconds)
        for client, params in zip(self.group.clients, self.group.cohort.models()):
            client.params = params
        return RunResult(records, self.messages, seconds, phases)


def run_federation(
    clients: list[ClientState],
    cfg: StrategyConfig,
    test: Dataset,
    public: Dataset | None = None,
    sampler_seed=0,
) -> RunResult:
    return Controller(clients, cfg, test, public, sampler_seed).run()
