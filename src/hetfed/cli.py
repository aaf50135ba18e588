"""Command-line experiment driver.

Subcommands::

    hetfed run --config base.json [--config overlay.json] [--set k=v]... --out DIR
    hetfed sweep --config base.json --grid grid.json --out DIR
    hetfed summarize --runs DIR [--runs DIR]... --format csv [--out FILE]

Exit codes: 0 all cells succeeded, 1 any run failure, 2 configuration error.
The environment variable HETFED_SEED supplies a seed when no config file
or override sets one.
"""

import argparse
import ctypes
import sys

from . import harness
from .config import load_config, parse_config, read_json
from .errors import ConfigError, IngestError

# glibc's mallopt parameter numbers, from <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_heap() -> None:
    """Make freed memory stay in this process's heap for reuse.

    A group is processed in chunks whose arrays are a few hundred KB each.
    Under glibc's dynamic thresholds, depending on where long-lived
    objects sit in the heap, the memory a chunk frees can go back to the
    kernel after every chunk, and the next chunk faults the same pages in
    again. This serves allocations up to 32 MiB from the heap and trims it
    only when 256 MiB lie free at its top. The cost: memory a run frees
    stays with the process until it exits.

    Measured: removing only the call in main() moved fleet100's run_s
    (bench/run.py --seconds 10, 2 vCPUs, 6 alternated pairs) from
    0.163-0.190 s to 0.224-0.256 s in one set and from 0.186-0.206 s to
    0.245-0.306 s in another; the policy won every pair.

    The policy is process-wide, so entry points call this, not the
    library. Where the C library has no ``mallopt`` it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hetfed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one experiment")
    run.add_argument("--config", action="append", default=[], metavar="FILE",
                     help="config file; repeat to layer overlays")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     dest="overrides", help="override a dotted config key")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--jobs", type=int, default=1,
                     help="accepted, no effect: clients run as one stacked cohort")

    sweep = sub.add_parser("sweep", help="run a grid of experiments")
    sweep.add_argument("--config", action="append", default=[], metavar="FILE")
    sweep.add_argument("--set", action="append", default=[], dest="overrides")
    sweep.add_argument("--grid", required=True, help="JSON file of axis lists")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="accepted, no effect: cells run one after another")

    summ = sub.add_parser("summarize", help="tabulate finished runs")
    summ.add_argument("--runs", action="append", required=True, metavar="DIR",
                      help="run directory or a directory of runs")
    summ.add_argument("--format", choices=["csv"], default="csv")
    summ.add_argument("--out", default=None, help="output file (default: <runs>/summary.csv)")
    summ.add_argument("--which", choices=["final", "best", "both"], default="final")
    return parser


def _cmd_run(args) -> int:
    if not args.config:
        raise ConfigError("at least one --config file is required")
    cfg = load_config(args.config, args.overrides)
    run_dir = harness.execute_run(cfg, args.out)
    print(run_dir)
    return 0


def _cmd_sweep(args) -> int:
    if not args.config:
        raise ConfigError("at least one --config file is required")
    resolved = parse_config(args.config, args.overrides)
    outcome = harness.run_sweep(resolved, read_json(args.grid, "grid file"), args.out)
    for run_dir in outcome.run_dirs:
        print(run_dir)
    if outcome.failures:
        for label, error in sorted(outcome.failures.items()):
            print(f"FAILED {label}: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_summarize(args) -> int:
    run_dirs = harness.discover_runs(args.runs)
    out_path = args.out or (str(args.runs[0]).rstrip("/") + "/summary.csv")
    harness.summarize(run_dirs, out_path, which=args.which)
    print(out_path)
    return 0


def main(argv=None) -> int:
    keep_heap()
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "summarize": _cmd_summarize}
    try:
        return handlers[args.command](args)
    except (ConfigError, IngestError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # run failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
