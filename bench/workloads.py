"""The benchmark's workloads and the config files each one generates.

A workload is a base config from ``configs/`` plus fixed overrides, and
for the sweep a grid. The workload seed becomes the
experiment seed; the program only ever sees the generated files.
"""

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict
    grid: str | None = None
    base: str = "configs/base.json"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_desk",
            why=(
                "the paper's comparison table as users run it: 20 cells of 4 "
                "heterogeneous clients, evaluation-bound, 20 worlds and run directories"
            ),
            # Rounds are cut from 20 so one sweep takes a few seconds.
            overrides={"rounds": 5},
            grid="configs/comparison_grid.json",
        ),
        Workload(
            name="fleet100",
            why=(
                "100 homogeneous clients in one architecture group: per-client "
                "dispatch, K^2 distillation and 1,800 AUC calls per run"
            ),
            overrides={
                "strategy": "rhfl_plus_eccr",
                "rounds": 5,
                "local_epochs": 1,
                "hyperparams": {"lr": 0.1},
                "data": {
                    "per_class": 2500, "clients": 100, "shard_size": 60,
                    "n_public": 100, "test_size": 500,
                },
                "archs": {"hidden_layers": [[12]]},
            },
        ),
        Workload(
            name="train_wide",
            why=(
                "8 wide heterogeneous clients on 1,500-row shards: private SGD "
                "bound, barely touched by eval vectorising or fleet batching"
            ),
            overrides={
                "strategy": "rhfl_plus_eccr",
                "rounds": 10,
                "local_epochs": 3,
                "data": {
                    "classes": 10, "dims": 32, "spread": 0.2, "per_class": 1300,
                    "clients": 8, "shard_size": 1500, "n_public": 200,
                    "test_size": 200, "noise": {"kind": "symmetric", "rate": 0.3},
                },
                "archs": {"hidden_layers": [[64], [96, 48], [128], [32, 32]]},
            },
        ),
    )
}


def _merge(base: dict, overlay: dict) -> dict:
    out = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


@dataclass(frozen=True)
class Inputs:
    config: Path
    grid: Path | None
    doc: dict
    cells: list  # per cell, the (dotted key, value) overrides the sweep applies

    @property
    def client_rounds(self) -> int:
        return self.doc["data"]["clients"] * self.doc["rounds"]

    def argv(self, out_dir, jobs: int) -> list[str]:
        if self.grid is None:
            return ["run", "--config", str(self.config), "--out", str(out_dir), "--jobs", str(jobs)]
        return [
            "sweep", "--config", str(self.config), "--grid", str(self.grid),
            "--out", str(out_dir), "--jobs", str(jobs),
        ]


def generate(workload: Workload, seed: int, root: Path, dest: Path, expand_grid) -> Inputs:
    """Write the workload's config (and grid) for ``seed`` under ``dest``.

    ``expand_grid`` is the package's grid expansion, so the cells used to
    time set-up are the ones the sweep runs.
    """
    dest.mkdir(parents=True, exist_ok=True)
    doc = _merge(json.loads((root / workload.base).read_text()), workload.overrides)
    doc["seed"] = seed
    config = dest / "config.json"
    config.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if workload.grid is None:
        return Inputs(config, None, doc, [[]])
    grid_doc = json.loads((root / workload.grid).read_text())
    grid_doc["seed"] = [seed]
    grid = dest / "grid.json"
    grid.write_text(json.dumps(grid_doc, indent=2, sort_keys=True) + "\n")
    cells = [sorted(cell.items()) for cell in expand_grid(grid_doc)]
    return Inputs(config, grid, doc, cells)
