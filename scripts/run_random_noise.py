#!/usr/bin/env python3
"""Random per-client noise rates: collaboration vs. training alone.

Every client draws its own symmetric noise rate uniformly from [0, 0.5],
then the confidence-reweighted strategies are compared against the
local-only baseline on final mean accuracy and ROC AUC. The strategies
and seeds are one sweep grid, so each seed's three cells run as one
federation.
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
    parser.add_argument("--out", default="runs/random_noise")
    parser.add_argument("--clients", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args()
    configs = args.config or [BASE]

    overrides = [
        f"rounds={args.rounds}",
        f"data.clients={args.clients}",
        "data.shard_size=150",
        "data.per_class=800",
        "data.noise.kind=symmetric",
        "data.noise.random_range=[0.0,0.5]",
    ]
    strategies = ["local_only", "rhfl_plus_ccr", "rhfl_plus_eccr"]
    grid = {"strategy": strategies, "seed": args.seeds}
    # Each cell sets its own strategy and seed; the base takes the first of
    # each only so that a config naming neither still resolves.
    base = parse_config(configs, overrides + [f"{k}={v[0]}" for k, v in grid.items()])
    outcome = harness.run_sweep(base, grid, args.out)
    if outcome.failures:
        for label, error in sorted(outcome.failures.items()):
            print(f"FAILED {label}: {error}", file=sys.stderr)
        return 1
    runs = {}
    for run_dir in outcome.run_dirs:
        resolved = json.loads((run_dir / harness.CONFIG_FILE).read_text())
        runs[resolved["strategy"], resolved["seed"]] = run_dir
    for strategy in strategies:
        accs, aucs = [], []
        for seed in args.seeds:
            run_dir = runs[strategy, seed]
            with open(run_dir / harness.ROUNDS_FILE) as fh:
                final = [r for r in map(json.loads, fh) if r["round"] == args.rounds]
            accs.append(np.mean([r["accuracy"] for r in final]))
            aucs.append(np.mean([r["roc_auc"] for r in final if r["roc_auc"] is not None]))
            if strategy == "local_only" and seed == args.seeds[0]:
                with open(run_dir / harness.META_FILE) as fh:
                    noise_rates = json.load(fh)["noise_rates"]
                rates = ", ".join(f"{r:.3f}" for r in noise_rates)
                print(f"per-client noise rates (seed {seed}): [{rates}]")
        print(f"{strategy:<16} acc {np.mean(accs):.4f}  roc_auc {np.mean(aucs):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
