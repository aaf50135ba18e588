#!/usr/bin/env python3
"""Scaling test: the same homogeneous-fleet run at growing client counts.

The client counts are one sweep axis, so every count's cell runs in one
federation: each fleet is a cell of one architecture group, stepped as
stacked kernels rather than one client at a time.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from hetfed import cli, harness
from hetfed.config import parse_config


BASE = Path(__file__).resolve().parent.parent / "configs" / "base.json"


def main() -> int:
    cli.keep_heap()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", action="append", metavar="FILE",
                        help="config files, merged in order (default: configs/base.json)")
    parser.add_argument("--out", default="runs/scaling")
    parser.add_argument("--clients", type=int, nargs="+", default=[10, 25, 50, 100])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--shard-size", type=int, default=60)
    args = parser.parse_args()
    configs = args.config or [BASE]

    overrides = [
        f"rounds={args.rounds}",
        "local_epochs=2",
        "hyperparams.lr=0.1",
        f"data.shard_size={args.shard_size}",
        "data.per_class=2500",
        "data.n_public=100",
        "data.test_size=500",
        "archs.hidden_layers=[[12]]",
    ]
    resolved = parse_config(configs, overrides)
    outcome = harness.run_sweep(resolved, {"data.clients": args.clients}, args.out)
    for run_dir in outcome.run_dirs:
        k = json.loads((run_dir / harness.CONFIG_FILE).read_text())["data"]["clients"]
        with open(run_dir / harness.ROUNDS_FILE) as fh:
            records = [json.loads(line) for line in fh]
        accs = [r["accuracy"] for r in records if r["round"] == args.rounds]
        print(f"K={k:<4} mean acc {np.mean(accs):.4f} "
              f"(min {min(accs):.4f}, max {max(accs):.4f}) -> {run_dir}")
    for cell, error in sorted(outcome.failures.items()):
        print(f"FAILED {cell}: {error}", file=sys.stderr)
    return 1 if outcome.failures else 0


if __name__ == "__main__":
    sys.exit(main())
