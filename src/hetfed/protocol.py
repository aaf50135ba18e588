"""Round-based federation engine.

A single controller owns all aggregation state and drives synchronous
rounds, counting the messages a deployment of the round would exchange.
Clients are plain state records; their per-round work (training,
inference, logit computation) touches only their own model, shard and RNG
stream. One controller may run several runs (cells) at once, such as a
sweep's cells that differ in strategy, ablation flags, client count or
label noise: every client belongs to one cell, exchanges logits, weights
and consensus only with its own cell's clients, and each cell keeps its
own flags, records and message count. The controller takes the clients'
shards as stacks, (K, S, d) features and (K, S) noisy labels, so it
holds all clients in one group and keeps their models in one nn.Cohort,
built once and stepped in place by every phase: each architecture's
models run their matmuls as one stack (a block), and the softmax and the
loss gradient run once over the logits of every block. Private SGD steps
the whole group in lockstep, each client on its own batch rows; forward
passes over whole shards or the public set, and distillation, run the
group in chunks of consecutive rows, each a view of the group's cohort.
Public-set work runs over the clients of hfl cells only, on a copy of
their models that is written back. Every client gets the bits it would
get alone. FedAvg folds its participants' rows in ascending client id,
which pins the floating-point reduction order and makes whole runs
bit-reproducible for a fixed seed.

Four strategies are implemented:

* ``local_only``   -- independent training, no communication.
* ``fedavg``       -- parameter averaging over homogeneous models.
* ``hetero_distill`` -- logit averaging on a public set, KL refinement.
* ``rhfl`` family  -- confidence-weighted distillation with symmetric-loss
  training and optional label refinement, over an ablation flag lattice
  (hfl / sl / dlr / reweight) that also expresses every ablation row.
"""

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import metrics, nn, reweight
from .data import Dataset
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
    """One client's model and RNG stream; its shard is its row of the
    shard stacks that the controller is given.

    During a run the model lives in the controller's cohort; Controller.run
    writes it back here when the run ends. cell is the run the client
    belongs to when one controller runs several.
    """

    client_id: int
    params: nn.ModelParams
    rng: np.random.Generator
    cell: int = 0

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
    """One cell's records and message count, and the timings of the
    federation that ran it. total_seconds and minor_faults, which include
    building the worlds, and batch_runs, the names of the federation's
    cells, are left for the caller that built them to fill in."""

    records: list[RoundRecord]
    messages: int
    round_seconds: list[float]
    phase_seconds: list[dict[str, float]]  # per round, seconds per phase
    total_seconds: float = 0.0
    minor_faults: int = 0
    batch_runs: list[str] = field(default_factory=list)


# Bytes a chunk of clients may hold in its working set: small enough to
# keep peak memory near that of one big client, large enough to spread
# numpy's per-call cost over many small ones.
_CHUNK_BYTES = 6 << 20


@dataclass
class ClientGroup:
    """Clients stacked on a row axis, and the shard stacks they train on.

    `cohort` holds their models, one block per architecture in the order
    in which the architectures first appear, and `clients` follow its
    rows. Row r holds the client at position shard[r] of the controller's
    order, whose shard is row shard[r] of the features (N, S, d) and of
    the noisy labels' one-hot mask (N, S, C), kept as bool (an eighth of
    float64's memory) and read as 0.0 and 1.0; groups taken or gathered
    from this one share both stacks. `evaluated` is the latest
    evaluation's shard losses (K,) and a copy of the cohort they were
    taken at, which the next confidence upload reuses; `history` is the
    one before it.
    """

    clients: list[ClientState]
    cohort: nn.Cohort
    shard: np.ndarray
    features: np.ndarray
    onehot: np.ndarray
    evaluated: tuple | None = None
    history: tuple | None = None

    @classmethod
    def stack(cls, clients, features, labels, classes: int) -> "ClientGroup":
        """The clients as a group in block order. Row k of the shard
        features (K, S, d) and noisy labels (K, S) is clients[k]'s; the
        group reads the features in place."""
        by_arch: dict[tuple, list] = {}
        for row, client in enumerate(clients):
            by_arch.setdefault(client.arch, []).append(row)
        rows = np.array([row for members in by_arch.values() for row in members])
        clients = [clients[row] for row in rows]
        return cls(
            clients,
            nn.Cohort.of([c.params for c in clients]),
            rows,
            features,
            labels[..., np.newaxis] == np.arange(classes),
        )

    def take(self, lo: int, hi: int) -> "ClientGroup":
        """Rows lo to hi - 1, whose cohort views this group's: stepping it
        steps these clients' models here."""
        rows = slice(lo, hi)
        return ClientGroup(
            self.clients[rows], self.cohort.take(lo, hi), self.shard[rows], self.features,
            self.onehot,
        )

    def gather(self, rows: np.ndarray) -> "ClientGroup":
        """The rows at ascending positions `rows`, with a copy of their models."""
        return ClientGroup(
            [self.clients[i] for i in rows], self.cohort.gather(rows), self.shard[rows],
            self.features, self.onehot,
        )


def _working_width(dims) -> int:
    """Values per row that a forward and backward pass hold at once: each
    layer's input activations, its outputs and their deltas."""
    return sum(fan_in + 2 * fan_out for fan_in, fan_out in dims)


def _chunk_bounds(cohort: nn.Cohort, rows: int) -> list:
    """Consecutive row ranges (lo, hi) whose working sets, rows x each client's own block's
    working width, stay within _CHUNK_BYTES unless they hold one client. The fewest chunks
    that fill up to the budget in row order set the count; each then fills to an even share."""
    costs = np.repeat([8 * rows * _working_width(dims) for dims in cohort.dims], cohort.counts)
    ends = np.cumsum(costs)

    def fill(share) -> list:
        bounds = [(0, 0)]
        while (lo := bounds[-1][1]) < len(ends):
            hi = min(np.searchsorted(ends, ends[lo] - costs[lo] + share) + 1,
                     np.searchsorted(ends, ends[lo] - costs[lo] + _CHUNK_BYTES, "right"))
            bounds.append((lo, max(lo + 1, int(hi))))
        return bounds[1:]

    return fill(-(-ends[-1] // len(fill(_CHUNK_BYTES))))


def _by_chunk(group: ClientGroup, rows: int, fn, origin=None) -> list:
    """fn(part) over the group's chunks, a group that fits being its own. The rows an error
    names are moved from the chunk's row axis to the group's, then to origin's rows if
    given (a gathered group's rows in the group it came from)."""
    bounds = _chunk_bounds(group.cohort, rows)
    out = []
    for lo, hi in bounds:
        try:
            out.append(fn(group if len(bounds) == 1 else group.take(lo, hi)))
        except (ConfigError, NumericError, ProtocolError) as exc:
            if getattr(exc, "rows", None):
                exc.rows = [row + lo for row in exc.rows]
                if origin is not None:
                    exc.rows = np.asarray(origin)[exc.rows].tolist()
            raise
    return out


def fedavg_aggregate(rows: np.ndarray) -> np.ndarray:
    """Mean of the rows of an (n, P) parameter stack, each weighted 1 / n
    and folded in row order; returns the (P,) values. Every shard holds
    one shard size, so this is the size-weighted mean."""
    weight = 1 / len(rows)
    total = np.zeros_like(rows[0])
    for row in rows:
        total = total + weight * row
    return total


def private_training(
    group: ClientGroup,
    cfg: StrategyConfig,
    sl=False,
    dlr=False,
    epochs_done: int = 0,
) -> None:
    """cfg.local_epochs of minibatch SGD of every client of the group on
    its own noisy shard.

    sl and dlr are one bool for every client or (K,) bools in the group's
    row order: which clients train on the symmetric loss rather than
    cross-entropy, and which on refined labels. Each client draws its batch
    order from its own RNG stream; the whole group steps through the
    batches in lockstep. Refined targets are rebuilt from the current
    predictions before each epoch's first step, chunk by chunk of the
    refined clients, and then stay fixed for the epoch; the others train
    on their one-hot labels. The refinement schedule spans the run's
    rounds x local epochs, of which epochs_done are past.
    """
    k, size, epochs = len(group.clients), group.features.shape[1], cfg.local_epochs
    refine = np.broadcast_to(dlr, (k,)) & (epochs > 0)
    refined = np.flatnonzero(refine)
    targets = group.onehot
    if refined.size:
        targets = np.empty(group.onehot.shape)
        plain = group.shard[~refine]
        targets[plain] = group.onehot[plain]
    # The smallest index type that holds every row of the stacks.
    order = np.empty((k, size), dtype=np.min_scalar_type(group.features.shape[0] * size))
    for epoch in range(epochs):
        if refined.size:
            total = cfg.rounds * epochs
            s = reweight.dlr_weight(epochs_done + epoch + 1, cfg.hyperparams.zeta, total)
            _refine(group, refined, s, targets)
        # Each client's rows of the stacks flattened to rows, in the order
        # of the draws of client.rng.permutation(size).
        order[:] = size * group.shard[:, np.newaxis] + np.arange(size)
        for row, client in zip(order, group.clients):
            client.rng.shuffle(row)
        nn.cohort_sgd_epoch(
            group.cohort, group.features, targets, order, cfg.batch_size, cfg.hyperparams, sl
        )


def _refine(group: ClientGroup, refined: np.ndarray, s: float, targets: np.ndarray) -> None:
    """Write the refined targets, at mix weight s, of the group's rows
    `refined` (ascending) into their shards' rows of targets (N, S, C), a
    chunk of clients at a time."""

    def refine(part: ClientGroup) -> None:
        preds = nn.softmax_t(part.cohort.forward(part.features[part.shard]), 1.0)
        targets[part.shard] = reweight.dlr_refine(part.onehot[part.shard], preds, s)

    part = group if refined.size == len(group.clients) else group.gather(refined)
    _by_chunk(part, group.features.shape[1], refine, refined)


def collaborative_training(
    group: ClientGroup, public: Dataset, target: nn.MixtureKlSpec, cfg: StrategyConfig,
    passes: list | None = None,
) -> None:
    """Full-batch descent of every client of the group on its weighted KL
    alignment loss against a fixed peer mixture.

    target is one mixture (N, C) for every client, or a stack (K', N, C)
    whose row p is for the client at position p of the controller's order
    (group.shard); each client's mixture is formed once for all
    collaborative epochs. passes, if given, are the group's kept public
    forwards at these parameters, one per chunk, popped in chunk order.
    """
    hp = cfg.hyperparams

    def distill(part: ClientGroup) -> None:
        spec = target
        if target.mixture.ndim == 3:
            spec = nn.MixtureKlSpec(
                target.mixture[part.shard], target.mass[part.shard], target.tau
            )
        done = passes.pop(0) if passes else None
        nn.cohort_distill(part.cohort, public.features, spec, cfg.collab_epochs, hp.lr, done)

    _by_chunk(group, public.size, distill)


def evaluate_client(
    group: ClientGroup, test: Dataset, classes: metrics.OneVsRest, hp: nn.Hyperparams
) -> tuple:
    """Clean-test metrics plus the shard's mean symmetric loss, as columns.

    classes is the test labels' one-vs-rest split. Returns (accuracy,
    roc_auc, pr_auc, mean_sl), each (K,) over the group's clients in group
    order. roc_auc is None when the test split misses a class; pr_auc is
    None unless the task is binary and the test split holds a positive.
    """

    def evaluate(part: ClientGroup) -> tuple:
        # Class-major (k, C, N): every class plane is contiguous.
        probs = nn.softmax_t(part.cohort.forward(test.features, classes_first=True), 1.0, axis=1)
        acc = metrics.accuracy(_class_argmax(probs), test.labels)
        if test.class_count == 2:
            scores = probs[:, 1]
            roc, pr = metrics.roc_auc(scores, test.labels), metrics.pr_auc(scores, test.labels == 1)
        else:
            roc, pr = metrics.multiclass_roc_auc(probs.transpose(0, 2, 1), classes), None
        shard = nn.softmax_t(part.cohort.forward(part.features[part.shard]), 1.0)
        sl = nn.sl_loss(shard, part.onehot[part.shard], hp).mean(axis=-1)
        return acc, roc, pr, sl

    chunks = _by_chunk(group, max(test.size, group.features.shape[1]), evaluate)
    return tuple(None if col[0] is None else np.concatenate(col) for col in zip(*chunks))


def _class_argmax(probs: np.ndarray) -> np.ndarray:
    """probs.argmax(axis=1) of a class-major (K, C, N) stack by whole class
    planes: class c takes the rows where it beats every class before it,
    so the first of equal maxima wins, and as c exceeds every earlier
    winner, a max records it (a masked write is far slower)."""
    best, top = np.zeros(probs.shape[::2], np.min_scalar_type(probs.shape[1] - 1)), probs[:, 0]
    for c in range(1, probs.shape[1]):
        np.maximum(best, (probs[:, c] > top) * best.dtype.type(c), out=best)
        top = np.maximum(top, probs[:, c])
    return best


def _row_norms(values: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a (K, P) stack.

    A stacked (1, P) @ (P, 1) matmul takes BLAS's dot per row, as
    np.linalg.norm does, so each norm has the bits of that client's alone;
    an einsum sums in another order.
    """
    return np.sqrt(values[:, np.newaxis, :] @ values[:, :, np.newaxis]).ravel()


class Controller:
    """Synchronous round orchestrator; owns aggregation and the message count.

    The clients come in ascending (cell, id) order, and row k of the shard
    stacks, features (K, S, d) and noisy labels (K, S), is clients[k]'s.
    They are stacked once into one group. Each cell's clients hold
    consecutive positions of that order, the slices in `cells`. cfg is one
    StrategyConfig for every cell or a list of one per cell, which may
    differ only in strategy and flags; `strategies` and `flags` hold them
    per cell. A round's confidence step, peer mixtures, consensus, records
    and message counts are each cell's own. Public logits and distillation
    run over the clients of hfl cells only, and private SGD over every
    client, each with its cell's loss and targets. fedavg runs one cell.
    """

    def __init__(
        self,
        clients: list[ClientState],
        features: np.ndarray,
        labels: np.ndarray,
        cfg: StrategyConfig | list[StrategyConfig],
        test: Dataset,
        public: Dataset | None = None,
        sampler_seed=0,
    ):
        if not clients:
            raise ConfigError("at least one client required")
        if features.ndim != 3 or features.shape[:2] != labels.shape or len(labels) != len(clients):
            raise ConfigError(
                f"shard stacks must be (K, S, d) features and (K, S) labels for K = "
                f"{len(clients)} clients, got {features.shape} and {labels.shape}"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= test.class_count):
            raise ConfigError(f"shard labels must lie in [0, {test.class_count})")
        self.clients = list(clients)
        keys = [(c.cell, c.client_id) for c in self.clients]
        if keys != sorted(set(keys)):
            raise ConfigError("clients must come in ascending (cell, id) order, ids unique")
        sizes = [len(list(run)) for _, run in itertools.groupby(cell for cell, _ in keys)]
        ends = np.cumsum(sizes).tolist()
        self.cells = [slice(end - size, end) for end, size in zip(ends, sizes)]
        self._cell_sizes = np.array(sizes)
        cfgs = list(cfg) if isinstance(cfg, (list, tuple)) else [cfg] * len(self.cells)
        if len(cfgs) != len(self.cells):
            raise ConfigError(f"{len(cfgs)} strategy configs for {len(self.cells)} cells")
        self.cfg = cfg = cfgs[0]
        if any(replace(c, strategy=cfg.strategy, flags=cfg.flags) != cfg for c in cfgs):
            raise ConfigError("the cells' strategy configs may differ only in strategy and flags")
        self.strategies = [c.strategy for c in cfgs]
        self.flags = [c.flags for c in cfgs]
        self.test = test
        self.test_classes = metrics.OneVsRest.of(test.labels, test.class_count)
        self.public = public
        self.messages = np.zeros(len(self.cells), dtype=np.int64)  # per cell
        self._sampler = np.random.default_rng(sampler_seed)
        for c in cfgs:
            if c.flags.hfl and public is None:
                raise ConfigError(f"strategy {c.strategy!r} requires a public dataset")
        if "fedavg" in self.strategies:
            archs = {c.arch for c in self.clients}
            if len(archs) > 1:
                raise ConfigError("fedavg requires a homogeneous architecture")
            if len(self.cells) > 1:
                raise ConfigError("fedavg runs one cell at a time")
        self.group = ClientGroup.stack(self.clients, features, labels, test.class_count)
        # Each row's cell, and the private-training flags of its cell.
        self._row_cell = np.repeat(np.arange(len(self.cells)), sizes)[self.group.shard]
        self._sl = np.array([f.sl for f in self.flags])[self._row_cell]
        self._dlr = np.array([f.dlr for f in self.flags])[self._row_cell]
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
                column[self.group.shard] = part
            out.append(column)
        return out

    def _part(self, cells: list) -> tuple:
        """The group's rows of the given cells' clients and those clients
        as a group: the controller's own when that is all of them, else
        one gathered from it, whose models are a copy."""
        rows = np.flatnonzero(np.isin(self._row_cell, cells))
        return rows, self.group if rows.size == len(self.clients) else self.group.gather(rows)

    def _public_logits(self, part: ClientGroup, round_idx: int) -> tuple:
        """The part's clients' logits on the public set, written into their rows of a
        (K, N, C) stack in the controller's order, and each chunk's kept forward."""
        x = self.public.features
        logits = np.empty((len(self.clients), len(x), self.test.class_count))

        def forward(chunk: ClientGroup) -> tuple:
            kept = chunk.cohort.forward(x, keep=True)
            logits[chunk.shard] = kept[0]
            return kept

        passes = self._in_phase("phase1", round_idx, lambda g: _by_chunk(g, len(x), forward), part)
        return logits, passes

    def _stacked(self, specs: dict) -> nn.MixtureKlSpec:
        """Distillation targets per cell as one target: a lone cell's as
        it is, else each cell's mixture and mass written into its clients'
        rows of a stack in the controller's order."""
        if len(self.cells) == 1:
            return specs[0]
        first = next(iter(specs.values()))
        mixture = np.empty((len(self.clients), *first.mixture.shape[-2:]))
        mass = np.empty((len(self.clients), 1, 1))
        for c, spec in specs.items():
            mixture[self.cells[c]] = spec.mixture
            mass[self.cells[c]] = spec.mass
        return nn.MixtureKlSpec(mixture, mass, first.tau)

    # -- evaluation -------------------------------------------------------

    def _eval_round(self, round_idx: int, steps: list | None = None) -> list[RoundRecord]:
        """Evaluate every client and record the round, one record per cell.

        steps holds each cell's confidence step, (q, p, f, weights) columns
        and a clamp count, or None for a cell that took none.
        """
        hp = self.cfg.hyperparams

        def evaluate(group: ClientGroup):
            columns = evaluate_client(group, self.test, self.test_classes, hp)
            group.evaluated = columns[3], group.cohort.copy()
            return columns

        columns = self._in_phase("eval", round_idx, lambda g: self._by_client(evaluate(g)))
        self.messages += self._cell_sizes  # one report per client
        with self._timed("eval"):
            k = len(self.clients)
            rows = list(zip(*([None] * k if col is None else col.tolist() for col in columns)))
            records = []
            for cell, step in zip(self.cells, steps or [None] * len(self.cells)):
                *weighting, clamp_events = step or (None, None, None, None, 0)
                size = cell.stop - cell.start
                more = zip(*([None] * size if col is None else col.tolist() for col in weighting))
                records.append(RoundRecord(round_idx, tuple(
                    ClientRoundStats(c.client_id, *row, *extra)
                    for c, row, extra in zip(self.clients[cell], rows[cell], more)
                ), clamp_events))
            return records

    # -- strategy rounds --------------------------------------------------

    def _round_fedavg(self, round_idx: int):
        cfg = self.cfg
        group = self.group
        k = len(self.clients)
        self.messages += k  # the global model to every client (one cell)
        if cfg.participation < 1.0:
            count = max(1, int(round(cfg.participation * k)))
            chosen = np.sort(self._sampler.choice(k, size=count, replace=False))
        else:
            chosen = np.arange(k)
        # One architecture, one block: the rows run in client id order.
        part = group.gather(np.flatnonzero(np.isin(group.shard, chosen)))
        part.cohort.stacks[0][:] = group.cohort.stacks[0][0]  # the lowest client id's
        self._in_phase("fedavg", round_idx, lambda g: private_training(g, cfg), part)
        self.messages += len(part.clients)
        group.cohort.stacks[0][:] = fedavg_aggregate(part.cohort.stacks[0])

    def _round(self, round_idx: int) -> list:
        """Every strategy's round but fedavg's, each cell's per its flags:
        the hfl cells' exchange, then every client's training on its own
        shard. Returns each cell's confidence step, or None for a cell
        without one."""
        cfg = self.cfg
        steps = self._share(round_idx)
        done = (round_idx - 1) * cfg.local_epochs
        self._in_phase(
            "private", round_idx,
            lambda g: private_training(g, cfg, self._sl, self._dlr, done),
        )
        return steps

    def _share(self, round_idx: int) -> list:
        """The hfl cells' exchange of public logits and distillation.

        A hetero_distill cell distills towards the consensus of its
        clients' logits, their own included, with mass 1. Any other hfl
        cell takes a confidence step, and each of its clients distills
        towards its cell's other clients, weighted. Returns each cell's
        confidence step, or None.
        """
        hp = self.cfg.hyperparams
        steps = [None] * len(self.cells)
        hfl = [c for c, flags in enumerate(self.flags) if flags.hfl]
        weighted = [c for c in hfl if self.strategies[c] != "hetero_distill"]
        if not hfl:
            return steps

        if weighted:
            def phase1(group: ClientGroup) -> None:
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
                columns = self._by_client((prev_sl, cur_sl, ratio))
                for c in weighted:
                    args = [column[self.cells[c]] for column in columns]
                    steps[c] = reweight.confidence_step(self.flags[c].reweight, *args, hp.eta_conf)

            self._in_phase("phase1", round_idx, phase1)
        rows, part = self._part(hfl)
        logits, passes = self._public_logits(part, round_idx)
        # Each client uploads its logits, and in a weighted cell its report
        # too; the server sends back the consensus or the weights.
        per_client = [3 if c in weighted else 2 for c in hfl]
        self.messages[hfl] += np.array(per_client) * self._cell_sizes[hfl]

        def mixtures(group: ClientGroup) -> dict:
            tau = hp.temperature
            specs = {}
            try:
                for c in hfl:
                    size = self._cell_sizes[c]
                    if c not in weighted:
                        consensus = logits[self.cells[c]].mean(axis=0)[np.newaxis]
                        specs[c] = nn.mixture_spec(nn.softmax_t(consensus, tau), np.ones(1), tau)
                    elif size > 1:
                        # Each peer is softmaxed once; every client mixes all
                        # of its cell's peers but itself.
                        peers = nn.softmax_t(logits[self.cells[c]], tau)
                        specs[c] = nn.mixture_spec(peers, steps[c][3], tau, np.arange(size))
            except NumericError as exc:  # name the clients whose logits are non-finite
                exc.rows = [r for r in rows if not np.isfinite(logits[group.shard[r]]).all()]
                raise
            return specs

        specs = self._in_phase("distill", round_idx, mixtures)
        del logits
        if specs:
            if len(specs) < len(hfl):
                rows, part = self._part(list(specs))
                passes = None  # phase 1's passes are of another part
            target = self._stacked(specs)
            del specs
            self._in_phase(
                "distill", round_idx,
                lambda g: collaborative_training(g, self.public, target, self.cfg, passes), part,
            )
            if part is not self.group:
                self.group.cohort.put(rows, part.cohort)
        return steps

    # -- top level ---------------------------------------------------------

    def run(self) -> list[RunResult]:
        """Every round; one RunResult per cell, in cell order."""
        started = time.perf_counter()
        self._phase_seconds = {}
        records = [[record] for record in self._eval_round(0)]
        self.group.history = self.group.evaluated
        seconds = [time.perf_counter() - started]
        phases = [self._phase_seconds]
        for round_idx in range(1, self.cfg.rounds + 1):
            started = time.perf_counter()
            self._phase_seconds = {}
            steps = None
            if self.strategies[0] == "fedavg":
                self._round_fedavg(round_idx)
            else:
                steps = self._round(round_idx)
            for cell_records, record in zip(records, self._eval_round(round_idx, steps)):
                cell_records.append(record)
            seconds.append(time.perf_counter() - started)
            phases.append(self._phase_seconds)
        for client, params in zip(self.group.clients, self.group.cohort.models()):
            client.params = params
        return [
            RunResult(cell_records, int(messages), seconds, phases)
            for cell_records, messages in zip(records, self.messages)
        ]


def run_federation(
    clients: list[ClientState],
    features: np.ndarray,
    labels: np.ndarray,
    cfg: StrategyConfig | list[StrategyConfig],
    test: Dataset,
    public: Dataset | None = None,
    sampler_seed=0,
) -> list[RunResult]:
    """Run the clients' federation on their shards, row k of the features
    (K, S, d) and noisy labels (K, S) being clients[k]'s: one RunResult
    per cell, in cell order. cfg is one StrategyConfig or one per cell."""
    controller = Controller(clients, features, labels, cfg, test, public, sampler_seed)
    del features, labels  # the group holds the features; a caller's temporary labels are freed
    return controller.run()
