#!/usr/bin/env python3
"""Component ablation at desk scale.

Runs the six-component flag lattice (none, hfl, sl, hfl+sl, hfl+sl+dlr,
full) against both noise types at the requested rates, then writes the
familiar ablation table as CSV: one row per cell with per-client final
accuracy and the client average.
"""

import argparse
import sys
from pathlib import Path

from hetfed import cli, harness
from hetfed.config import parse_config


BASE = Path(__file__).resolve().parent.parent / "configs" / "base.json"


def main() -> int:
    cli.keep_heap()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", action="append", metavar="FILE",
                        help="config files, merged in order (default: configs/base.json)")
    parser.add_argument("--out", default="runs/ablation")
    parser.add_argument("--rates", type=float, nargs="+", default=[0.1, 0.2])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args()
    configs = args.config or [BASE]

    base = parse_config(configs)
    grid = {
        "flags": harness.ablation_rows(),
        "noise_type": ["pairflip", "symmetric"],
        "mu": args.rates,
        "seed": args.seeds,
    }
    outcome = harness.run_sweep(base, grid, args.out)
    if outcome.failures:
        for label, error in sorted(outcome.failures.items()):
            print(f"FAILED {label}: {error}", file=sys.stderr)
        return 1
    rows = harness.summarize(outcome.run_dirs, f"{args.out}/summary.csv")
    print(f"{len(rows)} cells -> {args.out}/summary.csv")
    for row in sorted(rows, key=lambda r: (r["noise_kind"], r["noise_rate"],
                                           r["hfl"], r["sl"], r["dlr"], r["reweight"])):
        flags = "".join("x" if row[k] else "." for k in ("hfl", "sl", "dlr"))
        flags += row["reweight"][0] if row["reweight"] != "none" else "."
        print(f"  [{flags}] {row['noise_kind']:<9} mu={row['noise_rate']:<4} "
              f"avg={row['avg']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
