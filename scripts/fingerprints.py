#!/usr/bin/env python3
"""Output fingerprints of a fixed list of runs, for comparing two checkouts.

Prints one line per run directory, ``<sha256>  <label>``: the hash of its
rounds.jsonl, run_meta.json and resolved_config.json, in that order. A
sweep adds one line for its sweep_report.json. timing.json is left out; it
is the one file that differs between runs. The list covers the
benchmark's workload inputs at seeds 0 and 1, configs/base.json under
every cell of configs/comparison_grid.json, the six ablation rows, and
configs/base.json variants that reach other code: 8 clients over 4
repeating architectures, fedavg at participation 0.5, a binary task,
one client, label-skew shards, random per-client noise rates with
eta_conf 8, which clamps 16 confidence weights over 10 of its 20 rounds,
and seed 2**64 + 3, whose seed spans three 32-bit words of entropy.
The random-noise grid sweeps those random rates over noise kind x
{rhfl_plus_ccr, rhfl_plus_eccr}, so that the per-cell confidence steps
and clamp counts of a sweep batch are fingerprinted too: in each batch
the symmetric cell clamps in 10 rounds and the pairflip cell in one.
The mixed grid crosses four strategies with 1, 3 and 8 clients (200-row
shards, 5 rounds), so that cells of differing strategies and client
counts that share one federation are fingerprinted as well. The last
grid is scripts/run_random_noise.py's at its defaults and seed 0:
local_only, rhfl_plus_ccr and rhfl_plus_eccr over 10 clients with
symmetric noise rates drawn from [0, 0.5]. The csv grid reads a file
that the script writes from a fixed seed: a binary task of 3,000 rows
and 8 features whose 15% positives are shifted by +0.8, run as
local_only and rhfl_plus_eccr over 4 x 300 shards of [12] clients,
without noise, for 10 rounds; its two cells share one parse of the file.

It imports hetfed from the path, so two checkouts compare with

    PYTHONPATH=src python3 scripts/fingerprints.py > new.txt
    PYTHONPATH=/other/checkout/src python3 scripts/fingerprints.py > old.txt
    diff old.txt new.txt
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from hetfed import cli, harness
from hetfed.config import ExperimentConfig, apply_overrides, parse_config

ROOT = Path(__file__).resolve().parent.parent
BASE = ROOT / "configs" / "base.json"
GRID = json.loads((ROOT / "configs" / "comparison_grid.json").read_text())
RUN_FILES = (harness.ROUNDS_FILE, harness.META_FILE, harness.CONFIG_FILE)

sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402

VARIANTS = {
    "repeating_archs_8": ["data.clients=8", "data.shard_size=200"],
    "fedavg_half": ["strategy=fedavg", "participation=0.5", "archs.hidden_layers=[[16]]"],
    "binary": ["data.classes=2", "data.per_class=1200"],
    "single_client": ["data.clients=1"],
    "label_skew": ["data.scheme=\"label-skew\"", "data.concentration=0.5"],
    "random_noise_eta8": [
        "data.noise.kind=\"symmetric\"", "data.noise.random_range=[0.2,0.6]",
        "hyperparams.eta_conf=8",
    ],
    "seed_2_64_plus_3": [f"seed={2**64 + 3}"],
}
RANDOM_NOISE_GRID = {
    "strategy": ["rhfl_plus_ccr", "rhfl_plus_eccr"],
    "noise_type": ["pairflip", "symmetric"],
}
CSV_FILE = "imbalanced.csv"  # relative, so that the resolved config is the same in any directory
CSV_OVERRIDES = [
    "data.source=csv", f"data.csv_path={CSV_FILE}", "data.classes=2", "data.clients=4",
    "data.shard_size=300", "data.noise.kind=none", "data.noise.rate=0",
    "archs.hidden_layers=[[12]]", "rounds=10",
]
MIXED_GRID = {
    "strategy": ["local_only", "hetero_distill", "rhfl", "rhfl_plus_eccr"],
    "data.clients": [1, 3, 8],
}


def _dotted(doc: dict, prefix: str = "") -> list:
    """A nested override document as (dotted key, value) pairs."""
    items = []
    for key, value in doc.items():
        if isinstance(value, dict):
            items += _dotted(value, f"{prefix}{key}.")
        else:
            items.append((f"{prefix}{key}", value))
    return items


def _digest(paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        sha.update(path.read_bytes())
    return sha.hexdigest()


def write_imbalanced_csv(path) -> None:
    """A binary CSV of 3,000 rows of 8 standard normal features, in which
    the 450 positive rows (15%) are shifted by +0.8 in every feature."""
    rng = np.random.default_rng(2)
    labels = rng.permutation(3000) < 450
    features = rng.standard_normal((3000, 8)) + 0.8 * labels[:, np.newaxis]
    lines = ["label," + ",".join(f"f{j}" for j in range(8))]
    lines += [f"{y:d}," + ",".join(f"{v:.6f}" for v in row) for y, row in zip(labels, features)]
    Path(path).write_text("\n".join(lines) + "\n")


def cases():
    """(label, resolved config, grid or None) for every fingerprinted case."""
    base = parse_config([BASE])
    for name in ("sweep_desk", "fleet100", "train_wide"):
        workload = WORKLOADS[name]
        for seed in (0, 1):
            doc = apply_overrides(base, [*_dotted(workload.overrides), ("seed", seed)], name)
            grid = None
            if workload.grid is not None:
                grid = {**json.loads((ROOT / workload.grid).read_text()), "seed": [seed]}
            yield f"{name}_s{seed}", doc, grid
    yield "base_grid", base, GRID
    yield "ablation", base, {"flags": harness.ablation_rows()}
    for label, overrides in VARIANTS.items():
        yield label, parse_config([BASE], overrides), None
    random_noise = ["data.noise.random_range=[0.2,0.6]", "hyperparams.eta_conf=8"]
    yield "random_noise_grid", parse_config([BASE], random_noise), RANDOM_NOISE_GRID
    mixed = ["rounds=5", "data.shard_size=200"]
    yield "mixed_grid", parse_config([BASE], mixed), MIXED_GRID
    script = [
        "rounds=20", "data.clients=10", "data.shard_size=150", "data.per_class=800",
        "data.noise.kind=symmetric", "data.noise.random_range=[0.0,0.5]",
    ]
    yield "random_noise_script", parse_config([BASE], script), {
        "strategy": ["local_only", "rhfl_plus_ccr", "rhfl_plus_eccr"], "seed": [0],
    }
    yield "csv_grid", parse_config([BASE], CSV_OVERRIDES), {
        "strategy": ["local_only", "rhfl_plus_eccr"],
    }


def main() -> int:
    cli.keep_heap()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        write_imbalanced_csv(CSV_FILE)
        for label, doc, grid in cases():
            out = Path(tmp) / label
            if grid is None:
                run_dirs = [harness.execute_run(ExperimentConfig.from_dict(doc), out)]
            else:
                outcome = harness.run_sweep(doc, grid, out)
                run_dirs = outcome.run_dirs
                print(f"{_digest([out / 'sweep_report.json'])}  {label}/sweep_report.json")
            for run_dir in run_dirs:
                print(f"{_digest(run_dir / f for f in RUN_FILES)}  {label}/{run_dir.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
