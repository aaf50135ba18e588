"""Experiment harness: config -> world -> run -> files.

Each run writes into a content-addressed directory (a hash of the resolved
config names it), so repeating a finished cell is a no-op unless the code
or a data file it read has changed since (see _done_text). Files are
written into a hidden sibling first, which is renamed into place once
finished, so a crashed or killed run never leaves a directory that looks
done; discover_runs skips hidden directories. Per-round
per-client records go to ``rounds.jsonl``; together with the echoed config
and ``run_meta.json`` these files are byte-identical across re-runs of the
same resolved config. Wall-clock timings live in a separate
``timing.json`` precisely so that everything else can stay deterministic.
"""

import csv
import functools
import hashlib
import itertools
import json
import os
import resource
import shutil
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as datahub
from . import nn, protocol
from .config import ExperimentConfig, apply_overrides
from .errors import ConfigError

# Stream tags keep every consumer of the experiment seed independent.
_S_BLOBS, _S_TEST, _S_PUBLIC, _S_PARTITION, _S_RATES, _S_NOISE, _S_INIT, _S_TRAIN, _S_SAMPLER = range(1, 10)

ROUNDS_FILE = "rounds.jsonl"
CONFIG_FILE = "resolved_config.json"
META_FILE = "run_meta.json"
TIMING_FILE = "timing.json"
DONE_FILE = "DONE"

GRID_ALIASES = {
    "strategy": "strategy",
    "noise_type": "data.noise.kind",
    "mu": "data.noise.rate",
    "seed": "seed",
    "flags": "flags",
}


@dataclass
class World:
    """A run's clients, their shards as stacks whose row k is client k's
    (features (K, S, d), noisy labels (K, S) and the mask of the labels
    the noise flipped (K, S)), and the shared public and test sets; a
    batch's worlds keep only the clients, flipped and rates."""

    clients: list[protocol.ClientState]
    features: np.ndarray
    labels: np.ndarray
    flipped: np.ndarray
    public: datahub.Dataset | None
    test: datahub.Dataset
    noise_rates: list[float]


def random_noise_assignment(k: int, lo: float, hi: float, seed) -> np.ndarray:
    """Per-client noise rates drawn uniformly from [lo, hi]."""
    rng = np.random.default_rng(seed)
    return lo + (hi - lo) * rng.random(k)


def _hash_constants(value: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash constant and the count after it, as uint32."""
    consts = itertools.accumulate(range(count), lambda c, _: c * mult & 0xFFFFFFFF, initial=value)
    return np.array(list(consts), np.uint32)


def _hashmix(value, consts):
    """SeedSequence's hashmix of value under each successive pair of consts."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x, y):
    mixed = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return mixed ^ (mixed >> 16)


def stream_seeds(prefixes, count: int) -> list[list["_Seed"]]:
    """For each prefix of non-negative ints and each k < count, a seed
    from which np.random.default_rng starts the stream that
    default_rng((*prefix, k)) starts: NumPy's SeedSequence hash (NEP 19),
    run once over all the streams as uint32 arrays."""
    words = [  # each int as 32-bit words, least significant first
        [n >> s & 0xFFFFFFFF for n in prefix for s in range(0, max(n.bit_length(), 1), 32)]
        for prefix in prefixes
    ]
    width = max(4, *(len(w) + 1 for w in words))
    entropy = np.zeros((len(words), count, width), np.uint32)
    for row, w in enumerate(words):
        entropy[row, :, : len(w)] = w
        entropy[row, :, len(w)] = np.arange(count)
    lengths = np.array([len(w) + 1 for w in words])[:, np.newaxis, np.newaxis]
    consts = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * width)
    pool = _hashmix(entropy[..., :4], consts[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(pool[..., src, np.newaxis], consts[4 + 3 * src : 8 + 3 * src])
        pool[..., dst] = _mix(pool[..., dst], hashed)
    for src in range(4, width):  # words past the pool; shorter keys stop early
        mixed = _mix(pool, _hashmix(entropy[..., src, np.newaxis], consts[4 * src : 4 * src + 5]))
        pool = np.where(src < lengths, mixed, pool)
    state = _hashmix(pool[..., [0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(0x8B51F9DD, 0x58F38DED, 8))
    state = state.astype(np.uint64)
    # PCG64 reads each stream's four uint64 seed words straight from memory.
    seeds = np.ascontiguousarray(state[..., 0::2] | state[..., 1::2] << 32)
    return [[_Seed(words) for words in row] for row in seeds]


@dataclass(eq=False)
class _Seed(np.random.bit_generator.ISeedSequence):
    """One stream's PCG64 seed words, handed to PCG64 (which asks for
    four uint64 words) as its SeedSequence would hand them."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _base_dataset(cfg: ExperimentConfig, seed) -> datahub.Dataset:
    d = cfg.data
    if d["source"] == "blobs":
        return datahub.gen_blobs(d["classes"], d["dims"], d["per_class"], d["spread"], seed)
    if d["source"] == "idx":
        if not d["idx_images"] or not d["idx_labels"]:
            raise ConfigError("idx source needs data.idx_images and data.idx_labels")
        return datahub.load_idx(d["idx_images"], d["idx_labels"], d["classes"])
    if not d["csv_path"]:
        raise ConfigError("csv source needs data.csv_path")
    return datahub.load_csv(d["csv_path"], d["classes"])


def build_world(cfg: ExperimentConfig) -> World:
    """Assemble disjoint test/public/private pools and the client fleet."""
    return build_worlds([cfg])[0]


def build_worlds(cfgs: list[ExperimentConfig]) -> list[World]:
    """Each config's world; the configs differ at most as _batch_key
    allows. The base dataset and the test split are built once, the public
    split once for the hfl configs, and one partition per pool and client
    count; one stream_seeds pass seeds every stream of every world. Client
    k takes architecture k of the list, cycling, and its initial
    parameters from its own stream; under fedavg every client takes them
    from one shared stream, so all start from one global model."""
    d, seed = cfgs[0].data, cfgs[0].seed  # all but clients and noise are shared
    # Row 0 holds the world streams (seed, tag); rows 1-3 the client streams.
    seeds = stream_seeds([(seed,), (seed, _S_NOISE), (seed, _S_INIT), (seed, _S_TRAIN)],
                         max(_S_INIT + 1, *(cfg.data["clients"] for cfg in cfgs)))
    base = _base_dataset(cfgs[0], seeds[0][_S_BLOBS])
    for cfg in cfgs:
        if cfg.federation.flags.hfl and d["n_public"] < 1:
            raise ConfigError(f"strategy {cfg.federation.strategy!r} distills over a public "
                              "dataset; set data.n_public >= 1")
        n_public, clients = d["n_public"] * cfg.federation.flags.hfl, cfg.data["clients"]
        needed = d["test_size"] + n_public + clients * d["shard_size"]
        if needed > base.size:
            raise ConfigError(
                f"dataset has {base.size} samples but the split needs {needed} (test "
                f"{d['test_size']} + public {n_public} + shards {clients}x{d['shard_size']})"
            )
    test, rest = datahub.random_split(base, d["test_size"], seeds[0][_S_TEST])
    pools = {False: (None, rest)}  # hfl -> (public, private pool)
    if any(cfg.federation.flags.hfl for cfg in cfgs):
        pools[True] = datahub.random_split(rest, d["n_public"], seeds[0][_S_PUBLIC])
    shards = {}  # (hfl, clients) -> the pool's shard features and clean labels
    widths = [(base.features.shape[1], *h, base.class_count) for h in cfgs[0].hidden_layers]
    dims = [tuple(zip(w[:-1], w[1:])) for w in widths]
    worlds = []
    for cfg in cfgs:
        hfl, clients, noise = cfg.federation.flags.hfl, cfg.data["clients"], cfg.data["noise"]
        public, pool = pools[hfl]
        if (hfl, clients) not in shards:
            rows = datahub.partition(pool, d["scheme"], clients, d["shard_size"],
                                     seeds[0][_S_PARTITION], d["concentration"])
            shards[hfl, clients] = pool.features[rows], pool.labels[rows]
        features, clean = shards[hfl, clients]
        rate = noise["rate"] if noise["random_range"] is None else random_noise_assignment(
            clients, *noise["random_range"], seeds[0][_S_RATES])
        labels, flipped = datahub.apply_noise(
            clean, base.class_count, noise["kind"], rate, seeds[1][:clients]
        )
        init = [seeds[0][_S_INIT]] * clients if cfg.federation.strategy == "fedavg" else seeds[2]
        fleet = []
        for k in range(clients):
            params = nn.init_params(dims[k % len(dims)], init[k])
            fleet.append(protocol.ClientState(k, params, np.random.default_rng(seeds[3][k])))
        rates = np.broadcast_to(rate, clients).astype(float).tolist()
        worlds.append(World(fleet, features, labels, flipped, public, test, rates))
    return worlds


def _build_cells(cfgs: list[ExperimentConfig]) -> tuple[list[World], dict]:
    """Each config's world, its clients in the cell at its position, and
    the federation's features, labels, test and public sets: a lone
    world's own, or a batch's stacks pooled world by world and first sets,
    which its worlds let go of (run_meta.json reads none of them)."""
    worlds = [build_world(cfgs[0])] if len(cfgs) == 1 else build_worlds(cfgs)
    if len(worlds) == 1:
        return worlds, {f: getattr(worlds[0], f) for f in ("features", "labels", "test", "public")}
    pooled = {f: np.concatenate([getattr(w, f) for w in worlds]) for f in ("features", "labels")}
    pooled["test"] = worlds[0].test
    pooled["public"] = next((w.public for w in worlds if w.public is not None), None)
    for cell, world in enumerate(worlds):
        for client in world.clients:
            client.cell = cell
        world.features = world.labels = world.test = world.public = None
    return worlds, pooled


def _federate(cfgs: list[ExperimentConfig]) -> list[tuple]:
    """Build each config's world and run them all as one federation, each
    world a cell; the configs may differ only as _batch_key allows.
    Returns each cell's (result, world); every result carries the seconds
    and minor page faults of the whole computation and the run-directory
    names of the federation's cells."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    started = time.perf_counter()
    worlds, pooled = _build_cells(cfgs)
    results = protocol.run_federation(
        [client for w in worlds for client in w.clients],
        pooled.pop("features"),
        pooled.pop("labels"),
        [c.federation for c in cfgs],
        pooled["test"],
        pooled["public"],
        sampler_seed=(cfgs[0].seed, _S_SAMPLER),
    )
    seconds = time.perf_counter() - started
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    names = [c.run_name for c in cfgs]
    for result in results:
        result.total_seconds, result.minor_faults, result.batch_runs = seconds, faults, names
    return list(zip(results, worlds))


def run_experiment(cfg: ExperimentConfig):
    """Build the world and execute the configured federation run."""
    [(result, world)] = _federate([cfg])
    return result, world


def _world_meta(world: World) -> dict:
    """What run_meta.json records of a run's world."""
    return {
        "clients": len(world.clients),
        "noise_rates": world.noise_rates,
        "flip_fractions": world.flipped.mean(axis=1).tolist(),
        "hidden_layers": [list(map(list, c.arch)) for c in world.clients],
    }


def _alone(cfg: ExperimentConfig):
    """One cell's (result, world meta), computed on its own."""
    result, world = run_experiment(cfg)
    return result, _world_meta(world)


class _Batch:
    """Sweep cells whose configs share a _batch_key, computed as one
    federation on the first call for any of them: every cell's world
    equals the one it builds alone, and its clients form one cell of the
    federation, with its own strategy and flags. Each call hands out, and
    forgets, one cell's (result, world meta); a cell waiting for its turn
    holds no world. If the federation raises, every cell runs alone
    instead, so each fails or succeeds exactly as it would alone."""

    def __init__(self, cfgs: list[ExperimentConfig]):
        self.cfgs = cfgs
        self.results: dict | None = None  # id(cfg) -> (result, world meta)

    def __call__(self, cfg: ExperimentConfig):
        if self.results is None:
            try:
                self.results = {
                    id(c): (result, _world_meta(world))
                    for c, (result, world) in zip(self.cfgs, _federate(self.cfgs))
                }
            except Exception as exc:
                warnings.warn(
                    f"a batch of {len(self.cfgs)} sweep cells failed ({type(exc).__name__}: "
                    f"{exc}); running each alone",
                    RuntimeWarning, stacklevel=2,
                )
                self.results = {}
        if id(cfg) in self.results:
            return self.results.pop(id(cfg))
        return _alone(cfg)


def _batch_key(cfg: ExperimentConfig) -> str | None:
    """Equal for configs that may share one federation: they differ only
    in strategy, flags, client count and noise (kind, rate and random
    range). None for a config that runs alone: fedavg, whose sampler and
    aggregate are a single run's."""
    if cfg.federation.strategy == "fedavg":
        return None
    doc = {k: v for k, v in cfg.echoed.items() if k not in ("strategy", "flags")}
    doc["data"] = {k: v for k, v in doc["data"].items() if k not in ("clients", "noise")}
    return json.dumps(doc, sort_keys=True)


# A rounds.jsonl line as json.dumps writes its dict. str.format spells a float as repr,
# as json does, but None and non-finite floats as Python does: those are respelled.
_ROUND_LINE = ('{{"round": {}, "client": {}, "accuracy": {}, "roc_auc": {}, "pr_auc": {}, '
               '"mean_sl_loss": {}, "q": {}, "p": {}, "f": {}, "weight": {}, '
               '"clamp_events": {}}}\n')
_RESPELL = {": None": ": null", ": nan": ": NaN", ": inf": ": Infinity", ": -inf": ": -Infinity"}


def _round_lines(result: protocol.RunResult) -> str:
    """rounds.jsonl's text: one line per round and client."""
    text = "".join(
        _ROUND_LINE.format(r.round_idx, s.client_id, s.accuracy, s.roc_auc, s.pr_auc,
                           s.mean_sl_loss, s.q, s.p, s.f, s.weight, r.clamp_events)
        for r in result.records for s in r.clients
    )
    for python, json_text in _RESPELL.items():
        text = text.replace(python, json_text)
    return text


@functools.cache
def _source_digest() -> str:
    """SHA-256 over hetfed's module sources, each one's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@functools.cache
def _file_digest(path: str, mtime_ns: int, size: int) -> str:
    """SHA-256 of a file's bytes, hashed once per process for each path,
    modification time and size, so a file edited in place is hashed anew."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _done_text(cfg: ExperimentConfig) -> str:
    """DONE's text: the config's digest, then a SHA-256 over the source
    digest and the digest of every data file the cell reads."""
    d = cfg.data
    h = hashlib.sha256(_source_digest().encode())
    for key in {"csv": ["csv_path"], "idx": ["idx_images", "idx_labels"]}.get(d["source"], []):
        stat = os.stat(d[key])
        h.update(_file_digest(os.path.realpath(d[key]), stat.st_mtime_ns, stat.st_size).encode())
    return f"{cfg.digest}\n{h.hexdigest()}\n"


def _finished(cfg: ExperimentConfig, out_dir) -> tuple[Path, bool]:
    """The run directory of a config and whether it holds the finished run.

    A DONE that names another config, code or data file is stale: it is
    removed, so the directory no longer looks finished, and the run
    directory is named on stderr."""
    run_dir = Path(out_dir) / cfg.run_name
    done = run_dir / DONE_FILE
    if not done.exists():
        return run_dir, False
    try:
        if done.read_text() == _done_text(cfg):
            return run_dir, True
    except OSError:  # a data file the cell read is gone or unreadable
        pass
    done.unlink()
    print(f"stale: {run_dir}", file=sys.stderr)
    return run_dir, False


def _write_json(path: Path, doc: dict) -> None:
    """doc as indented JSON with sorted keys, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def execute_run(cfg: ExperimentConfig, out_dir, compute=None) -> Path:
    """Run one cell into its content-addressed directory; skip if finished.

    compute(cfg) gives the cell's result and the run_meta.json fields that
    describe its world: computed alone unless given, or by a sweep's batch.
    """
    run_dir, finished = _finished(cfg, out_dir)
    if finished:
        return run_dir
    partial = run_dir.with_name(f".{run_dir.name}.partial")
    shutil.rmtree(partial, ignore_errors=True)
    result, world_meta = (compute or _alone)(cfg)
    partial.mkdir(parents=True)
    try:
        (partial / ROUNDS_FILE).write_text(_round_lines(result))
        _write_json(partial / CONFIG_FILE, cfg.echoed)
        meta = {
            "config_hash": cfg.digest,
            "rounds": cfg.federation.rounds,
            "strategy": cfg.federation.strategy,
            "flags": cfg.echoed["flags"],
            "noise_kind": cfg.data["noise"]["kind"],
            "messages": result.messages,
            **world_meta,
        }
        _write_json(partial / META_FILE, meta)
        # Timings are the one deliberately non-deterministic artifact.
        _write_json(partial / TIMING_FILE, {
            "total_seconds": result.total_seconds,
            "round_seconds": result.round_seconds,
            "phase_seconds": result.phase_seconds,
            "minor_faults": result.minor_faults,
            "batch_cells": len(result.batch_runs),
            "batch_runs": result.batch_runs,
        })
        (partial / DONE_FILE).write_text(_done_text(cfg))
        shutil.rmtree(run_dir, ignore_errors=True)
        os.replace(partial, run_dir)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    return run_dir


def expand_grid(grid: dict) -> list[dict]:
    """Cartesian product of grid axes -> list of {dotted_key: value} cells."""
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("grid must be a non-empty object of axes")
    axes = []
    for key in sorted(grid):
        values = grid[key]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid axis {key!r} must be a non-empty list")
        dotted = GRID_ALIASES.get(key, key)
        # Two axes that set one key would keep only the later axis's values.
        for other, (seen, _) in zip(sorted(grid), axes):
            if f"{dotted}.".startswith(f"{seen}.") or f"{seen}.".startswith(f"{dotted}."):
                raise ConfigError(
                    f"grid axes {other!r} and {key!r} both set {max(seen, dotted, key=len)!r}")
        axes.append((dotted, values))
    cells = [{}]
    for key, values in axes:
        cells = [{**cell, key: value} for cell in cells for value in values]
    return cells


@dataclass
class SweepOutcome:
    run_dirs: list[Path]
    failures: dict[str, str]


def _computes(cfgs: list, out_dir) -> list:
    """Per config, whether its cell is finished, and what execute_run
    computes an unfinished one with: a batch shared by the unfinished
    configs that share a _batch_key with others, else None (alone). A None
    config is a cell that failed to resolve. Each cell's DONE is read once,
    here."""
    finished = [cfg is not None and _finished(cfg, out_dir)[1] for cfg in cfgs]
    groups: dict[str, dict[str, ExperimentConfig]] = {}
    for cfg, done in zip(cfgs, finished):
        key = None if cfg is None or done else _batch_key(cfg)
        if key is not None:
            groups.setdefault(key, {}).setdefault(cfg.run_name, cfg)
    batches = {}
    for members in groups.values():
        if len(members) > 1:
            batch = _Batch(list(members.values()))
            batches.update((id(cfg), batch) for cfg in batch.cfgs)
    return [(done, batches.get(id(cfg))) for cfg, done in zip(cfgs, finished)]


def run_sweep(base_resolved: dict, grid: dict, out_dir) -> SweepOutcome:
    """Execute every grid cell in order; failures are recorded, not fatal.

    Unfinished cells that differ only in strategy, flags, client count
    and noise run as one federation (see _Batch); fedavg cells run alone.
    Each cell still writes its own run directory, in grid order.
    """
    cells = expand_grid(grid)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outcome = SweepOutcome([], {})

    def fail(cell, exc):
        outcome.failures[json.dumps(cell, sort_keys=True)] = f"{type(exc).__name__}: {exc}"

    cfgs = []
    for cell in cells:
        try:
            doc = apply_overrides(base_resolved, cell.items(), "<grid>")
            cfgs.append(ExperimentConfig.from_dict(doc))
        except Exception as exc:  # cell failures must not kill the sweep
            cfgs.append(None)
            fail(cell, exc)
    for cell, cfg, (finished, compute) in zip(cells, cfgs, _computes(cfgs, out_dir)):
        if cfg is None:
            continue
        if finished:
            outcome.run_dirs.append(out_dir / cfg.run_name)
            continue
        try:
            outcome.run_dirs.append(execute_run(cfg, out_dir, compute))
        except Exception as exc:
            fail(cell, exc)
    report = {
        "cells": len(cells),
        "failed": sorted(outcome.failures),
        "errors": outcome.failures,
    }
    _write_json(out_dir / "sweep_report.json", report)
    return outcome


def _load_run(run_dir: Path):
    rounds_path = run_dir / ROUNDS_FILE
    config_path = run_dir / CONFIG_FILE
    if not rounds_path.exists() or not config_path.exists():
        return None
    with open(config_path) as fh:
        resolved = json.load(fh)
    per_round: dict[int, dict[int, dict]] = {}
    with open(rounds_path) as fh:
        for line in fh:
            rec = json.loads(line)
            per_round.setdefault(rec["round"], {})[rec["client"]] = rec
    return resolved, per_round


def discover_runs(roots) -> list[Path]:
    found = []
    for root in roots:
        root = Path(root)
        if (root / ROUNDS_FILE).exists():
            found.append(root)
            continue
        if root.is_dir():
            found.extend(sorted(
                p.parent for p in root.glob(f"*/{ROUNDS_FILE}")
                if not p.parent.name.startswith(".")
            ))
    return found


def summarize(run_dirs, out_path, which: str = "final") -> list[dict]:
    """Final (or best) per-client accuracy table across runs, as CSV.

    One row per run and metric variant; the ``avg`` column is the
    unweighted client mean.
    """
    if which not in ("final", "best", "both"):
        raise ConfigError("which must be final, best, or both")
    run_dirs = [Path(p) for p in run_dirs]
    if not run_dirs:
        raise ConfigError("no run directories given")
    variants = ("final", "best") if which == "both" else (which,)
    rows, missing = [], []
    max_clients = 0
    for run_dir in run_dirs:
        loaded = _load_run(run_dir)
        if loaded is None:
            missing.append(str(run_dir))
            continue
        resolved, per_round = loaded
        client_ids = sorted({c for recs in per_round.values() for c in recs})
        max_clients = max(max_clients, len(client_ids))
        accs = {r: [recs[c]["accuracy"] for c in client_ids] for r, recs in per_round.items()}
        means = {r: float(np.mean(a)) for r, a in accs.items()}
        picked = {"final": max(means), "best": max(means, key=lambda r: (means[r], -r))}
        noise = resolved["data"]["noise"]
        for variant in variants:
            round_idx = picked[variant]
            rows.append({
                "run": run_dir.name,
                "strategy": resolved["strategy"],
                "hfl": resolved["flags"]["hfl"],
                "sl": resolved["flags"]["sl"],
                "dlr": resolved["flags"]["dlr"],
                "reweight": resolved["flags"]["reweight"],
                "noise_kind": noise["kind"],
                "noise_rate": noise["rate"],
                "seed": resolved["seed"],
                "metric": f"{variant}_round_accuracy",
                "round": round_idx,
                "avg": means[round_idx],
                **{f"theta_{pos}": acc for pos, acc in enumerate(accs[round_idx], start=1)},
            })
    if missing:
        raise ConfigError(f"missing logs for cells: {missing}")

    fields = [
        "run", "strategy", "hfl", "sl", "dlr", "reweight", "noise_kind",
        "noise_rate", "seed", "metric", "round",
    ] + [f"theta_{i}" for i in range(1, max_clients + 1)] + ["avg"]
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return rows


def ablation_rows() -> list[dict]:
    """The six component rows of the ablation grid, as flag documents."""
    return [
        {"hfl": False, "sl": False, "dlr": False, "reweight": "none"},
        {"hfl": True, "sl": False, "dlr": False, "reweight": "none"},
        {"hfl": False, "sl": True, "dlr": False, "reweight": "none"},
        {"hfl": True, "sl": True, "dlr": False, "reweight": "none"},
        {"hfl": True, "sl": True, "dlr": True, "reweight": "none"},
        {"hfl": True, "sl": True, "dlr": True, "reweight": "eccr"},
    ]
