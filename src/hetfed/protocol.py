"""Round-based federation engine.

A single controller owns all aggregation state and drives synchronous
rounds over an in-memory message channel. Clients are plain state records;
their per-round work (training, inference, logit computation) touches only
their own state and RNG stream, so rounds may fan the work out to a thread
pool without changing any result. The controller folds uploads in
ascending client id, which pins the floating-point reduction order and
makes whole runs bit-reproducible for a fixed seed.

Four strategies are implemented:

* ``local_only``   -- independent training, no communication.
* ``fedavg``       -- parameter averaging over homogeneous models.
* ``hetero_distill`` -- logit averaging on a public set, KL refinement.
* ``rhfl`` family  -- confidence-weighted distillation with symmetric-loss
  training and optional label refinement, over an ablation flag lattice
  (hfl / sl / dlr / reweight) that also expresses every ablation row.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics, nn, reweight
from .data import Dataset, NoisyDataset
from .errors import ConfigError, NumericError, ProtocolError

MESSAGE_KINDS = (
    "model_upload",
    "logit_share",
    "confidence_upload",
    "weight_broadcast",
    "model_broadcast",
    "eval_report",
)

STRATEGIES = (
    "local_only",
    "fedavg",
    "hetero_distill",
    "rhfl",
    "rhfl_plus_ccr",
    "rhfl_plus_eccr",
)

REWEIGHT_MODES = ("none", "ccr", "eccr")


@dataclass(frozen=True)
class AblationFlags:
    """Component switches mirroring the ablation grid columns."""

    hfl: bool = False
    sl: bool = False
    dlr: bool = False
    reweight: str = "none"

    def __post_init__(self):
        if self.reweight not in REWEIGHT_MODES:
            raise ConfigError(f"unknown reweight mode {self.reweight!r}")


STRATEGY_FLAGS = {
    "local_only": AblationFlags(),
    "fedavg": AblationFlags(),
    "hetero_distill": AblationFlags(hfl=True),
    "rhfl": AblationFlags(hfl=True, sl=True, dlr=False, reweight="ccr"),
    "rhfl_plus_ccr": AblationFlags(hfl=True, sl=True, dlr=True, reweight="ccr"),
    "rhfl_plus_eccr": AblationFlags(hfl=True, sl=True, dlr=True, reweight="eccr"),
}


def resolve_flags(strategy: str, overrides: dict | None = None) -> AblationFlags:
    """Strategy presets overlaid with any explicit flag overrides."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    flags = STRATEGY_FLAGS[strategy]
    if overrides:
        unknown = set(overrides) - {"hfl", "sl", "dlr", "reweight"}
        if unknown:
            raise ConfigError(f"unknown ablation flags: {sorted(unknown)}")
        flags = replace(flags, **overrides)
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
    fail_round: int | None = None
    fail_client: int | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.rounds < 0 or self.local_epochs < 0 or self.collab_epochs < 0:
            raise ConfigError("round and epoch counts must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if not 0.0 < self.participation <= 1.0:
            raise ConfigError("participation must lie in (0, 1]")


@dataclass(frozen=True)
class RoundMessage:
    kind: str
    round_idx: int
    sender: int | None
    payload: object = None

    def __post_init__(self):
        if self.kind not in MESSAGE_KINDS:
            raise ConfigError(f"unknown message kind {self.kind!r}")


class MessageLog:
    """Ordered trace of every message the controller sent or accepted."""

    def __init__(self):
        self.entries: list[tuple[int, int, str, int | None]] = []

    def record(self, msg: RoundMessage):
        self.entries.append((len(self.entries), msg.round_idx, msg.kind, msg.sender))


@dataclass
class TrainHistory:
    """A model and its mean symmetric loss on the client's noisy shard."""

    mean_sl: float
    params: nn.ModelParams


@dataclass
class ClientState:
    """Everything one client owns: model, shard, RNG stream, history.

    `evaluated` is the shard loss of the latest evaluation, which the next
    round's confidence upload reuses; `history` is the one before it.
    """

    client_id: int
    params: nn.ModelParams
    shard: NoisyDataset
    rng: np.random.Generator
    history: TrainHistory | None = None
    evaluated: TrainHistory | None = None

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
    messages: MessageLog
    round_seconds: list[float] = field(default_factory=list)


def fedavg_aggregate(params_list, sizes) -> nn.ModelParams:
    """Size-weighted elementwise mean of homogeneous parameter vectors."""
    if not params_list or len(params_list) != len(sizes):
        raise ProtocolError("one size per parameter vector required")
    dims = params_list[0].layer_dims
    for p in params_list[1:]:
        if p.layer_dims != dims:
            raise ProtocolError(f"heterogeneous shapes in aggregation: {p.layer_dims} vs {dims}")
    weights = np.asarray(sizes, dtype=np.float64)
    if np.any(weights <= 0):
        raise ProtocolError("aggregation sizes must be positive")
    weights = weights / weights.sum()
    total = np.zeros_like(params_list[0].values)
    for p, w in zip(params_list, weights):
        total = total + w * p.values
    return nn.ModelParams(dims, total)


def _shard_onehot(shard: NoisyDataset) -> np.ndarray:
    return nn.one_hot(shard.noisy_labels, shard.base.class_count)


def private_training(
    client: ClientState,
    cfg: StrategyConfig,
    epochs: int,
    use_sl: bool,
    dlr_sched: reweight.DlrSchedule | None,
    epoch_base: int,
) -> None:
    """Minibatch SGD epochs on the client's own noisy shard.

    When a refinement schedule is given, each epoch rebuilds its soft
    targets from the current predictions before any gradient step; targets
    then stay fixed for the epoch.
    """
    shard = client.shard
    x = shard.base.features
    onehot = _shard_onehot(shard)
    hp = cfg.hyperparams
    for epoch in range(epochs):
        if dlr_sched is not None:
            s = reweight.dlr_weight(epoch_base + epoch + 1, dlr_sched)
            preds = nn.softmax_t(nn.mlp_forward(client.params, x), 1.0)
            targets = reweight.dlr_refine(onehot, preds, s)
        else:
            targets = onehot
        perm = client.rng.permutation(shard.size)
        for start in range(0, shard.size, cfg.batch_size):
            batch_idx = perm[start : start + cfg.batch_size]
            batch_targets = targets[batch_idx]
            if use_sl:
                spec = nn.SymmetricLossSpec(
                    batch_targets, hp.lam, hp.gamma, hp.rce_log_floor
                )
            else:
                spec = nn.CrossEntropySpec(batch_targets)
            grad = nn.backward(client.params, x[batch_idx], spec)
            client.params = nn.sgd_step(client.params, grad, hp.lr)


def collaborative_training(
    client: ClientState,
    public: Dataset,
    peer_probs: np.ndarray,
    peer_weights: np.ndarray,
    cfg: StrategyConfig,
) -> None:
    """Full-batch descent on the weighted KL alignment loss; peers fixed.

    peer_probs are the peers' tempered public-set distributions (J, N, C);
    their weighted mixture is formed once for all collaborative epochs.
    """
    if peer_probs.shape[0] == 0:
        return
    spec = nn.mixture_spec(peer_probs, peer_weights, cfg.hyperparams.temperature)
    for _ in range(cfg.collab_epochs):
        grad = nn.backward(client.params, public.features, spec)
        client.params = nn.sgd_step(client.params, grad, cfg.hyperparams.lr)


def mean_shard_sl(client: ClientState, hp: nn.Hyperparams) -> float:
    """Mean symmetric loss of the current model on the client's noisy shard."""
    probs = nn.softmax_t(nn.mlp_forward(client.params, client.shard.base.features), 1.0)
    losses = nn.sl_loss_rows(probs, _shard_onehot(client.shard), hp)
    return float(losses.mean())


def evaluate_client(client: ClientState, test: Dataset, hp: nn.Hyperparams):
    """Clean-test metrics plus the shard's mean symmetric loss."""
    probs = nn.softmax_t(nn.mlp_forward(client.params, test.features), 1.0)
    pred = probs.argmax(axis=1)
    acc = metrics.accuracy(pred, test.labels)
    if test.class_count == 2:
        roc = metrics.roc_auc(probs[:, 1], test.labels)
        pr = metrics.pr_auc(probs[:, 1], test.labels == 1)
    else:
        roc = metrics.multiclass_roc_auc(probs, test.labels)
        pr = None
    return acc, roc, pr, mean_shard_sl(client, hp)


class Controller:
    """Synchronous round orchestrator; owns aggregation and the message log."""

    def __init__(
        self,
        clients: list[ClientState],
        cfg: StrategyConfig,
        test: Dataset,
        public: Dataset | None = None,
        jobs: int = 1,
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
        self.jobs = max(1, jobs)
        self.log = MessageLog()
        self._sampler = np.random.default_rng(sampler_seed)
        needs_public = cfg.strategy == "hetero_distill" or (
            cfg.strategy not in ("local_only", "fedavg") and cfg.flags.hfl
        )
        if needs_public and public is None:
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

    # -- plumbing ---------------------------------------------------------

    def _map_clients(self, phase: str, round_idx: int, fn, subset=None):
        """fn over the clients in id order; errors name round, client and phase."""
        targets = self.clients if subset is None else subset

        def call(client: ClientState):
            try:
                return fn(client)
            except (ConfigError, NumericError, ProtocolError) as exc:
                raise type(exc)(
                    f"round {round_idx}, client {client.client_id}, phase {phase}: {exc}"
                ) from exc

        if self.jobs == 1 or len(targets) == 1:
            return [call(c) for c in targets]
        with ThreadPoolExecutor(max_workers=self.jobs) as pool:
            return list(pool.map(call, targets))

    def _receive(self, msg: RoundMessage, expected_round: int):
        if msg.round_idx != expected_round:
            raise ProtocolError(
                f"stale {msg.kind} from client {msg.sender}: "
                f"round {msg.round_idx}, expected {expected_round}"
            )
        self.log.record(msg)
        return msg.payload

    def _broadcast(self, kind: str, round_idx: int):
        for _ in self.clients:
            self.log.record(RoundMessage(kind, round_idx, None))

    def _check_failure(self, round_idx: int):
        if self.cfg.fail_round == round_idx and self.cfg.fail_client is not None:
            raise ProtocolError(
                f"client {self.cfg.fail_client} failed during round {round_idx}; "
                "round aborted without aggregation"
            )

    # -- evaluation -------------------------------------------------------

    def _eval_round(self, round_idx: int, extras=None, clamp_events: int = 0) -> RoundRecord:
        hp = self.cfg.hyperparams
        results = self._map_clients(
            "eval", round_idx, lambda c: evaluate_client(c, self.test, hp)
        )
        stats = []
        for client, (acc, roc, pr, sl) in zip(self.clients, results):
            client.evaluated = TrainHistory(sl, client.params)
            self._receive(
                RoundMessage("eval_report", round_idx, client.client_id), round_idx
            )
            extra = (extras or {}).get(client.client_id, {})
            stats.append(
                ClientRoundStats(
                    client.client_id,
                    acc,
                    roc,
                    pr,
                    sl,
                    extra.get("q"),
                    extra.get("p"),
                    extra.get("f"),
                    extra.get("weight"),
                )
            )
        return RoundRecord(round_idx, tuple(stats), clamp_events)

    # -- strategy rounds --------------------------------------------------

    def _round_fedavg(self, round_idx: int):
        cfg = self.cfg
        global_params = self.clients[0].params
        self._broadcast("model_broadcast", round_idx)
        for client in self.clients:
            client.params = global_params
        if cfg.participation < 1.0:
            count = max(1, int(round(cfg.participation * len(self.clients))))
            chosen = sorted(
                self._sampler.choice(len(self.clients), size=count, replace=False)
            )
            selected = [self.clients[i] for i in chosen]
        else:
            selected = self.clients

        def work(client: ClientState):
            private_training(client, cfg, cfg.local_epochs, use_sl=False,
                             dlr_sched=None, epoch_base=0)
            return RoundMessage(
                "model_upload", round_idx, client.client_id,
                (client.params, client.shard.size),
            )

        uploads = self._map_clients("fedavg", round_idx, work, selected)
        payloads = [self._receive(msg, round_idx) for msg in uploads]
        aggregated = fedavg_aggregate([p for p, _ in payloads], [s for _, s in payloads])
        for client in self.clients:
            client.params = aggregated

    def _round_hetero(self, round_idx: int):
        cfg = self.cfg

        def share(client: ClientState):
            logits = nn.mlp_forward(client.params, self.public.features)
            return RoundMessage("logit_share", round_idx, client.client_id, logits)

        uploads = self._map_clients("hetero_share", round_idx, share)
        all_logits = np.stack([self._receive(m, round_idx) for m in uploads])
        consensus = all_logits.mean(axis=0)
        # Server shares the averaged knowledge back as a logit share.
        for _ in self.clients:
            self.log.record(RoundMessage("logit_share", round_idx, None))

        peer = nn.softmax_t(consensus[np.newaxis], cfg.hyperparams.temperature)
        weight = np.ones(1)
        self._map_clients(
            "distill", round_idx,
            lambda c: collaborative_training(c, self.public, peer, weight, cfg),
        )
        self._map_clients(
            "private", round_idx,
            lambda c: private_training(c, cfg, cfg.local_epochs, use_sl=False,
                                       dlr_sched=None, epoch_base=0),
        )

    def _round_lattice(self, round_idx: int):
        """local_only and the rhfl family share this flag-driven round."""
        cfg = self.cfg
        flags = cfg.flags
        extras: dict[int, dict] = {}
        clamp_events = 0

        if flags.hfl:
            hp = cfg.hyperparams

            def phase1(client: ClientState):
                # The previous evaluation already took the shard loss of
                # these very parameters.
                hist, cur = client.history, client.evaluated
                if cur.params is not client.params:
                    raise ProtocolError("parameters changed after the last evaluation")
                delta = hist.mean_sl - cur.mean_sl
                base_norm = float(np.linalg.norm(hist.params.values))
                moved = float(np.linalg.norm(cur.params.values - hist.params.values))
                ratio = moved / base_norm if base_norm > 0 else 0.0
                client.history = cur
                report = reweight.ConfidenceReport(
                    client.client_id,
                    q=reweight.label_quality(cur.mean_sl),
                    p=reweight.learning_efficiency(delta, ratio),
                    f=None,
                    delta_sl=delta,
                    update_ratio=ratio,
                )
                logits = nn.mlp_forward(client.params, self.public.features)
                return (
                    RoundMessage("confidence_upload", round_idx, client.client_id, report),
                    RoundMessage(
                        "logit_share", round_idx, client.client_id,
                        reweight.LogitShare(client.client_id, logits),
                    ),
                )

            uploads = self._map_clients("phase1", round_idx, phase1)
            reports = []
            shares = []
            for conf_msg, logit_msg in uploads:
                reports.append(self._receive(conf_msg, round_idx))
                shares.append(self._receive(logit_msg, round_idx))

            qualities = np.array([r.q for r in reports])
            q_norm = reweight.normalize_quality(qualities)
            k = len(self.clients)
            f_scores: list[float | None]
            if flags.reweight == "none" or k < 2:
                weights = reweight.uniform_weights(k)
                f_scores = [None] * k
            else:
                if flags.reweight == "eccr":
                    f_scores = [
                        reweight.client_confidence_eccr(qn, r.p)
                        for qn, r in zip(q_norm, reports)
                    ]
                else:
                    f_scores = [
                        reweight.client_confidence_ccr(qn, r.delta_sl)
                        for qn, r in zip(q_norm, reports)
                    ]
                result = reweight.confidence_weights(np.array(f_scores), hp.eta_conf)
                weights = result.weights
                clamp_events = result.clamp_events
            self._broadcast("weight_broadcast", round_idx)

            # Each peer is softmaxed once; clients take their peers' slices.
            peer_probs = nn.softmax_t(
                np.stack([s.logits for s in shares]), hp.temperature
            )
            for idx, client in enumerate(self.clients):
                extras[client.client_id] = {
                    "q": float(qualities[idx]),
                    "p": float(reports[idx].p),
                    "f": None if f_scores[idx] is None else float(f_scores[idx]),
                    "weight": float(weights[idx]),
                }

            index = {c.client_id: i for i, c in enumerate(self.clients)}

            def phase2(client: ClientState):
                mask = np.arange(k) != index[client.client_id]
                collaborative_training(
                    client, self.public, peer_probs[mask], weights[mask], cfg
                )

            self._map_clients("distill", round_idx, phase2)

        epoch_base = (round_idx - 1) * cfg.local_epochs

        def phase3(client: ClientState):
            private_training(
                client, cfg, cfg.local_epochs,
                use_sl=flags.sl, dlr_sched=self.dlr_sched, epoch_base=epoch_base,
            )

        self._map_clients("private", round_idx, phase3)
        return extras, clamp_events

    # -- top level ---------------------------------------------------------

    def run(self) -> RunResult:
        result = RunResult([], self.log)
        started = time.perf_counter()
        result.records.append(self._eval_round(0))
        for client in self.clients:
            client.history = client.evaluated
        result.round_seconds.append(time.perf_counter() - started)
        for round_idx in range(1, self.cfg.rounds + 1):
            started = time.perf_counter()
            self._check_failure(round_idx)
            extras, clamps = {}, 0
            if self.cfg.strategy == "fedavg":
                self._round_fedavg(round_idx)
            elif self.cfg.strategy == "hetero_distill":
                self._round_hetero(round_idx)
            else:
                extras, clamps = self._round_lattice(round_idx)
            result.records.append(self._eval_round(round_idx, extras, clamps))
            result.round_seconds.append(time.perf_counter() - started)
        return result


def run_federation(
    clients: list[ClientState],
    cfg: StrategyConfig,
    test: Dataset,
    public: Dataset | None = None,
    jobs: int = 1,
    sampler_seed=0,
) -> RunResult:
    return Controller(clients, cfg, test, public, jobs, sampler_seed).run()
