"""Experiment harness: config -> world -> run -> files.

Each run writes into a content-addressed directory (a hash of the resolved
config names it), so repeating a finished cell is a no-op. Files are
written into a hidden sibling first, which is renamed into place once
finished, so a crashed or killed run never leaves a directory that looks
done; discover_runs skips hidden directories. Per-round
per-client records go to ``rounds.jsonl``; together with the echoed config
and ``run_meta.json`` these files are byte-identical across re-runs of the
same resolved config. Wall-clock timings live in a separate
``timing.json`` precisely so that everything else can stay deterministic.
"""

import csv
import hashlib
import json
import os
import resource
import shutil
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as datahub
from . import nn, protocol
from .config import ExperimentConfig, apply_overrides, echo_config
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


def _base_dataset(cfg: ExperimentConfig) -> datahub.Dataset:
    d = cfg.data
    if d["source"] == "blobs":
        seed = (cfg.seed, _S_BLOBS)
        return datahub.gen_blobs(d["classes"], d["dims"], d["per_class"], d["spread"], seed)
    if d["source"] == "idx":
        if not d["idx_images"] or not d["idx_labels"]:
            raise ConfigError("idx source needs data.idx_images and data.idx_labels")
        return datahub.load_idx(d["idx_images"], d["idx_labels"], d["classes"])
    if not d["csv_path"]:
        raise ConfigError("csv source needs data.csv_path")
    return datahub.load_csv(d["csv_path"], d["classes"])


def _layer_dims(base: datahub.Dataset, hidden: tuple[int, ...]):
    widths = (base.features.shape[1], *hidden, base.class_count)
    return tuple(zip(widths[:-1], widths[1:]))


def build_world(cfg: ExperimentConfig) -> World:
    """Assemble disjoint test/public/private pools and the client fleet.

    Client k takes architecture k of the list, cycling, and its initial
    parameters from its own stream; under fedavg every client takes them
    from one shared stream, so all start from one global model."""
    d = cfg.data
    base = _base_dataset(cfg)
    strategy = cfg.federation.strategy
    needs_public = cfg.federation.flags.hfl
    if needs_public and d["n_public"] < 1:
        raise ConfigError(
            f"strategy {strategy!r} distills over a public dataset; set data.n_public >= 1"
        )
    n_public = d["n_public"] if needs_public else 0
    needed = d["test_size"] + n_public + d["clients"] * d["shard_size"]
    if needed > base.size:
        raise ConfigError(
            f"dataset has {base.size} samples but the split needs {needed} (test "
            f"{d['test_size']} + public {n_public} + shards {d['clients']}x{d['shard_size']})"
        )
    test, rest = datahub.random_split(base, d["test_size"], (cfg.seed, _S_TEST))
    if needs_public:
        public, rest = datahub.random_split(rest, n_public, (cfg.seed, _S_PUBLIC))
    else:
        public = None
    shards = datahub.partition(
        rest, d["scheme"], d["clients"], d["shard_size"], (cfg.seed, _S_PARTITION),
        d["concentration"],
    )
    features = rest.features[shards]
    clean = rest.labels[shards]

    noise = d["noise"]
    if noise["random_range"] is not None:
        lo, hi = noise["random_range"]
        rates = random_noise_assignment(d["clients"], lo, hi, (cfg.seed, _S_RATES)).tolist()
    else:
        rates = [noise["rate"]] * d["clients"]

    hidden = cfg.hidden_layers
    labels = np.empty_like(clean)
    flipped = np.empty(clean.shape, dtype=bool)
    clients = []
    for k in range(d["clients"]):
        labels[k], flipped[k] = datahub.apply_noise(
            clean[k], base.class_count, noise["kind"], rates[k], (cfg.seed, _S_NOISE, k)
        )
        init = (cfg.seed, _S_INIT) if strategy == "fedavg" else (cfg.seed, _S_INIT, k)
        params = nn.init_params(_layer_dims(base, hidden[k % len(hidden)]), init)
        rng = np.random.default_rng((cfg.seed, _S_TRAIN, k))
        clients.append(protocol.ClientState(k, params, rng))
    return World(clients, features, labels, flipped, public, test, [float(r) for r in rates])


def _build_cells(cfgs: list[ExperimentConfig]) -> tuple[list[World], dict]:
    """Each config's world, its clients in the cell at its position, and
    the federation's features, labels, test and public sets: a lone
    world's own, or a batch's stacks pooled world by world and first sets,
    which its worlds let go of (run_meta.json reads none of them)."""
    worlds, pooled, row = [], {}, 0
    total = sum(cfg.data["clients"] for cfg in cfgs)
    for cell, cfg in enumerate(cfgs):
        world = build_world(cfg)
        for client in world.clients:
            client.cell = cell
        worlds.append(world)
        if len(cfgs) == 1:
            return worlds, {f: getattr(world, f) for f in ("features", "labels", "test", "public")}
        for name in ("features", "labels"):
            stack = getattr(world, name)
            if name not in pooled:
                pooled[name] = np.empty((total, *stack.shape[1:]), stack.dtype)
            pooled[name][row : row + len(stack)] = stack
            setattr(world, name, None)
        for name in ("test", "public"):
            if pooled.get(name) is None:
                pooled[name] = getattr(world, name)
            setattr(world, name, None)
        row += len(world.clients)
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
    names = [run_dir_name(echo_config(c)) for c in cfgs]
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
    federation on the first call for any of them: every cell's world is
    built as for a run alone, and its clients form one cell of the
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
    doc = echo_config(cfg)
    del doc["strategy"], doc["flags"], doc["data"]["clients"], doc["data"]["noise"]
    return json.dumps(doc, sort_keys=True)


def config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def run_dir_name(resolved: dict) -> str:
    noise = resolved["data"]["noise"]
    rate = noise["rate"] if noise["random_range"] is None else "rand"
    return (
        f"{resolved['strategy']}_{noise['kind']}{rate}_s{resolved['seed']}"
        f"_{config_hash(resolved)}"
    )


def _round_lines(result: protocol.RunResult):
    for record in result.records:
        for stats in record.clients:
            yield {
                "round": record.round_idx,
                "client": stats.client_id,
                "accuracy": stats.accuracy,
                "roc_auc": stats.roc_auc,
                "pr_auc": stats.pr_auc,
                "mean_sl_loss": stats.mean_sl_loss,
                "q": stats.q,
                "p": stats.p,
                "f": stats.f,
                "weight": stats.weight,
                "clamp_events": record.clamp_events,
            }


def _finished(resolved: dict, out_dir) -> tuple[Path, bool]:
    """The run directory of a resolved config and whether it holds the
    finished run."""
    run_dir = Path(out_dir) / run_dir_name(resolved)
    done = run_dir / DONE_FILE
    return run_dir, done.exists() and done.read_text().strip() == config_hash(resolved)


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
    resolved = echo_config(cfg)
    run_dir, finished = _finished(resolved, out_dir)
    if finished:
        return run_dir
    digest = config_hash(resolved)
    partial = run_dir.with_name(f".{run_dir.name}.partial")
    shutil.rmtree(partial, ignore_errors=True)
    result, world_meta = (compute or _alone)(cfg)
    partial.mkdir(parents=True)
    try:
        with open(partial / ROUNDS_FILE, "w") as fh:
            for line in _round_lines(result):
                fh.write(json.dumps(line) + "\n")
        _write_json(partial / CONFIG_FILE, resolved)
        meta = {
            "config_hash": digest,
            "rounds": cfg.federation.rounds,
            "strategy": cfg.federation.strategy,
            "flags": resolved["flags"],
            "noise_kind": resolved["data"]["noise"]["kind"],
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
            "batch_cells": result.cells,
            "batch_runs": result.batch_runs,
        })
        (partial / DONE_FILE).write_text(digest + "\n")
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
        axes.append((GRID_ALIASES.get(key, key), values))
    cells = [{}]
    for key, values in axes:
        cells = [{**cell, key: value} for cell in cells for value in values]
    return cells


@dataclass
class SweepOutcome:
    run_dirs: list[Path]
    failures: dict[str, str]


def _computes(cfgs: list, out_dir) -> list:
    """Per config, what execute_run computes it with: a batch shared by the
    unfinished configs that share a _batch_key with others, else
    None (alone). A None config is a cell that failed to resolve."""
    groups: dict[str, dict[str, ExperimentConfig]] = {}
    for cfg in cfgs:
        key = None if cfg is None else _batch_key(cfg)
        if key is None:
            continue
        run_dir, finished = _finished(echo_config(cfg), out_dir)
        if not finished:
            groups.setdefault(key, {}).setdefault(run_dir.name, cfg)
    batches = {}
    for members in groups.values():
        if len(members) > 1:
            batch = _Batch(list(members.values()))
            batches.update((id(cfg), batch) for cfg in batch.cfgs)
    return [batches.get(id(cfg)) for cfg in cfgs]


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
            doc = apply_overrides(json.loads(json.dumps(base_resolved)), cell.items(), "<grid>")
            cfgs.append(ExperimentConfig.from_dict(doc))
        except Exception as exc:  # cell failures must not kill the sweep
            cfgs.append(None)
            fail(cell, exc)
    for cell, cfg, compute in zip(cells, cfgs, _computes(cfgs, out_dir)):
        if cfg is None:
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
    missing = [str(p) for p in run_dirs if _load_run(p) is None]
    if missing:
        raise ConfigError(f"missing logs for cells: {missing}")

    variants = ("final", "best") if which == "both" else (which,)
    rows = []
    max_clients = 0
    for run_dir in run_dirs:
        resolved, per_round = _load_run(run_dir)
        client_ids = sorted({c for recs in per_round.values() for c in recs})
        max_clients = max(max_clients, len(client_ids))

        def row_for(round_idx: int, variant: str):
            recs = per_round[round_idx]
            accs = {c: recs[c]["accuracy"] for c in client_ids}
            avg = float(np.mean(list(accs.values())))
            noise = resolved["data"]["noise"]
            row = {
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
                "avg": avg,
            }
            for pos, c in enumerate(client_ids, start=1):
                row[f"theta_{pos}"] = accs[c]
            return row

        final_round = max(per_round)
        for variant in variants:
            if variant == "final":
                rows.append(row_for(final_round, "final"))
            else:
                best_round = max(
                    sorted(per_round),
                    key=lambda r: (np.mean([per_round[r][c]["accuracy"] for c in client_ids]), -r),
                )
                rows.append(row_for(best_round, "best"))

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
