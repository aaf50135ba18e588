#!/usr/bin/env python3
"""hetfed benchmark: whole-run timings per workload, or a traced run.

Run from the repository root:

    python3 bench/run.py --workload fleet100 --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer ones. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record (every timing's median, tail percentile and sample count,
the seed and the machine facts) goes to ``.bench_out/`` under the root,
next to the traced spans. The command exits non-zero when any run fails
or any output differs from the reference run.
"""

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# Files whose bytes the determinism contract pins for a fixed resolved config.
CHECKED_FILES = ("rounds.jsonl", "run_meta.json", "resolved_config.json")
SETUP_SAMPLES = 5
SETUP_PER_REP = 5
# Timed runs use one worker thread and one BLAS thread: on a small shared
# host, runs with more threads than that measure the host's scheduler and
# the interpreter lock more than the program. The cell and client pools are
# still run, untimed, by the determinism check at CHECK_JOBS workers.
TIMED_JOBS = 1
CHECK_JOBS = 2
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "client_rounds_per_s": "1/s",
    "sweep_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "final_acc": "share",
}

MODULE_SHARES = tuple(f"share.{m}" for m in tracing.TRACED_MODULES)

PER_LAYER_UNITS = {
    "metrics.roc_auc.calls": "count",
    "metrics.roc_auc.scores": "count",
    "metrics.roc_auc.s": "s",
    "metrics.multiclass_roc_auc.calls": "count",
    "metrics.multiclass_roc_auc.s": "s",
    "protocol.evaluate_client.calls": "count",
    "protocol.evaluate_client.s": "s",
    "nn.backward.calls": "count",
    "nn.backward.rows": "count",
    "nn.backward.s": "s",
    "nn.sgd_step.calls": "count",
    "nn.sgd_step.s": "s",
    "nn.softmax_t.calls": "count",
    "nn.softmax_t.s": "s",
    "protocol.private_training.calls": "count",
    "protocol.private_training.s": "s",
    "reweight.dlr_refine.calls": "count",
    "reweight.dlr_refine.rows": "count",
    "reweight.dlr_refine.s": "s",
    "nn.weighted_kl_alignment.calls": "count",
    "nn.weighted_kl_alignment.peers": "count",
    "nn.weighted_kl_alignment.s": "s",
    "protocol.collaborative_training.calls": "count",
    "protocol.collaborative_training.s": "s",
    "protocol.controller_other.s": "s",
    "protocol.client_concurrency": "ratio",
    "protocol.eval_share": "share",
    "protocol.private_share": "share",
    "protocol.distill_share": "share",
    "protocol.other_share": "share",
    "nn.mlp_forward.calls": "count",
    "nn.mlp_forward.rows": "count",
    "nn.mlp_forward.s": "s",
    "nn.mlp_forward.repeat_ratio": "share",
    "config.parse_config.s": "s",
    "data.gen_blobs.s": "s",
    "data.random_split.s": "s",
    "data.partition.s": "s",
    "data.apply_noise.s": "s",
    "harness.build_world.s": "s",
    "harness.write_s": "s",
    "harness.bytes_written": "B",
    "harness.sweep_overhead_s": "s",
    "cli.main.s": "s",
    **{name: "share" for name in MODULE_SHARES},
    "trace.overhead_s": "s",
}


# Direct children of run_federation that make up each protocol phase.
PHASES = {
    "protocol.eval_share": "protocol.evaluate_client",
    "protocol.private_share": "protocol.private_training",
    "protocol.distill_share": "protocol.collaborative_training",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def load_package():
    """Import hetfed from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    needed = {src / "hetfed" / "__init__.py"} | {
        ROOT / name for w in WORKLOADS.values() for name in (w.base, w.grid) if name
    }
    missing = sorted(str(p.relative_to(ROOT)) for p in needed if not p.is_file())
    if missing:
        raise BenchError(f"checkout lacks {', '.join(missing)}")
    sys.path.insert(0, str(src))
    import hetfed
    from hetfed import cli, config, harness

    if Path(hetfed.__file__).resolve().parent != (src / "hetfed").resolve():
        raise BenchError(f"imported hetfed from {hetfed.__file__}, not {src}")
    return cli, config, harness


# -- machine facts --------------------------------------------------------------


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_facts() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = _blas_threads()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ
        },
        "git_commit": _git_commit(),
        "load": (
            f"closed loop from one process: each repetition starts when the last ends; "
            f"{TIMED_JOBS} worker thread with {threads} BLAS thread(s) on {nproc} CPU(s); "
            f"the untimed determinism check runs {CHECK_JOBS} workers"
        ),
    }


# -- one repetition -------------------------------------------------------------


class Rep:
    """One invocation of the command: its wall time, per-run times and outputs."""

    def __init__(self, wall, run_s, rc, out_dir):
        self.wall = wall
        self.run_s = run_s
        self.rc = rc
        self.digests = {}
        self.bytes_written = 0
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                self.bytes_written += path.stat().st_size
        for run_dir in sorted(p.parent for p in out_dir.glob(f"*/{CHECKED_FILES[0]}")):
            h = hashlib.sha256()
            for name in CHECKED_FILES:
                h.update((run_dir / name).read_bytes() if (run_dir / name).is_file() else b"-")
            self.digests[run_dir.name] = h.hexdigest()


def invoke(cli, inputs, out_dir: Path, jobs: int, tracer) -> Rep:
    """Run the CLI once into a fresh directory; ``tracer`` is installed already."""
    first = len(tracer.spans)
    quiet = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(quiet):
        rc = cli.main(inputs.argv(out_dir, jobs))
    wall = time.perf_counter() - started
    return Rep(wall, tracer.durations(tracing.RUN_SPAN, first), rc, out_dir)


def mismatches(digests: dict, reference: dict) -> int:
    return sum(digests.get(n) != reference.get(n) for n in set(digests) | set(reference))


def check_reference(out_dir: Path, inputs, expected_cells: int) -> tuple[list[str], float]:
    """Structural checks on the reference run; returns problems and final accuracy."""
    problems = []
    run_dirs = sorted(p.parent for p in out_dir.glob("*/rounds.jsonl"))
    if len(run_dirs) != expected_cells:
        problems.append(f"{len(run_dirs)} run directories, expected {expected_cells}")
    doc = inputs.doc
    classes = doc["data"]["classes"]
    finals = []
    for run_dir in run_dirs:
        if not (run_dir / "DONE").is_file():
            problems.append(f"{run_dir.name}: no DONE marker")
        lines = [json.loads(x) for x in (run_dir / "rounds.jsonl").read_text().splitlines()]
        expected = doc["data"]["clients"] * (doc["rounds"] + 1)
        if len(lines) != expected:
            problems.append(f"{run_dir.name}: {len(lines)} round records, expected {expected}")
        if not lines:
            continue
        last = max(rec["round"] for rec in lines)
        acc = statistics.fmean(rec["accuracy"] for rec in lines if rec["round"] == last)
        if not acc > 1.0 / classes:
            problems.append(f"{run_dir.name}: final accuracy {acc:.3f} is at chance")
        finals.append(acc)
    return problems, statistics.fmean(finals) if finals else float("nan")


# -- statistics -------------------------------------------------------------------


def summary(samples, unit: str) -> dict:
    """Median, and for timings the highest percentile with >= 10 samples beyond it."""
    values = sorted(samples)
    n = len(values)
    out = {"value": statistics.median(values) if values else 0.0, "unit": unit, "n": n}
    if unit == "s":
        for p in TAIL_PERCENTILES:
            rank = math.ceil(round(p * n / 100.0, 9))  # nearest rank, 1-based
            if n - rank >= 10:
                out[f"p{p:g}"] = values[rank - 1]
                break
    return out


def measure_setup(config, harness, inputs, count: int) -> list[float]:
    """``count`` timings of config resolution plus world build of every cell."""
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        for cell in inputs.cells:
            cfg = config.ExperimentConfig.from_dict(config.parse_config([inputs.config], cell))
            harness.build_world(cfg)
        samples.append(time.perf_counter() - started)
    return samples


def outside_runs(spans, lo: int, hi: int) -> float:
    """Command wall time not covered by any of its ``execute_run`` spans."""
    runs = [(s.start, s.end) for s in spans[lo:hi] if s.name == tracing.RUN_SPAN]
    return sum(
        (s.end - s.start) - tracing.covered(runs, s.start, s.end)
        for s in spans[lo:hi] if s.name == "cli.main"
    )


def layer_metrics(tracer, selfs, lo: int, hi: int, rep: Rep) -> tuple[dict, dict]:
    """The per-layer metrics of one traced repetition, spans[lo:hi], and its span totals."""
    spans = tracer.spans
    tot = tracing.layer_totals(spans, selfs, lo, hi)
    children, wall = tracing.child_totals(spans, "protocol.run_federation", lo, hi)
    busy = sum(children.values())
    all_self = sum(row["s"] for row in tot.values())

    def get(span, key):
        return tot.get(span, {}).get(key, 0.0)

    # Phases as fractions of the federation's busy thread-seconds: its direct
    # children plus its own self time (phase-1 uploads, weights, message log).
    federation = busy + get("protocol.run_federation", "s")
    phases = {
        name: sum(v for child, v in children.items() if child == span) / federation
        for name, span in PHASES.items()
    }
    phases["protocol.other_share"] = 1.0 - sum(phases.values())

    special = {
        "protocol.controller_other.s": get("protocol.run_federation", "s"),
        "protocol.client_concurrency": busy / wall if wall else 0.0,
        "nn.mlp_forward.repeat_ratio": (
            get("nn.mlp_forward", "repeat") / get("nn.mlp_forward", "calls")
            if get("nn.mlp_forward", "calls") else 0.0
        ),
        "harness.write_s": get("harness.execute_run", "wall") - get("harness.run_experiment", "wall"),
        "harness.bytes_written": rep.bytes_written,
        "harness.sweep_overhead_s": outside_runs(spans, lo, hi),
        **phases,
    }
    for name in MODULE_SHARES:
        module = name.split(".", 1)[1]
        special[name] = sum(
            row["s"] for span, row in tot.items() if span.split(".", 1)[0] == module
        ) / all_self
    out = {}
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            continue
        if name in special:
            out[name] = float(special[name])
        else:
            span, key = name.rsplit(".", 1)
            out[name] = float(get(span, key))
    return out, tot


# -- main -----------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(args) -> tuple[dict, int]:
    # numpy reads the BLAS thread count when load_package first imports it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    cli, config, harness = load_package()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        inputs = generate(workload, args.seed, ROOT, work / "inputs", harness.expand_grid)
        return _measure(args, workload, inputs, work, tag, cli, config, harness)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, workload, inputs, work, tag, cli, config, harness):
    cells = len(inputs.cells)
    counter = itertools.count()

    def once(tracer, jobs=TIMED_JOBS):
        out_dir = work / f"rep{next(counter)}"
        return invoke(cli, inputs, out_dir, jobs, tracer), out_dir

    # Set-up is sampled between repetitions too, so it sees the same machine
    # state over the run as the timed runs do; the first sample warms up.
    setup = []
    if args.trace == 0:
        setup = measure_setup(config, harness, inputs, SETUP_SAMPLES + 1)[1:]

    # Determinism check, untimed, which also warms up: a run with worker
    # pools must write the same bytes as the timed single-worker runs.
    timer = tracing.Tracer(only={tracing.RUN_SPAN})
    with timer:
        ref, ref_dir = once(timer, jobs=CHECK_JOBS)
    problems, final_acc = check_reference(ref_dir, inputs, cells)
    if ref.rc != 0:
        problems.append(f"jobs={CHECK_JOBS} run exited {ref.rc}")
    shutil.rmtree(ref_dir)
    attempted, failed = cells, (cells if problems else 0)

    untraced, traced, first = [], [], None

    def timed(tracer, into):
        nonlocal attempted, failed, first
        lo = len(tracer.spans)
        gc.collect()
        with tracer:
            rep, out_dir = once(tracer)
        shutil.rmtree(out_dir)
        if first is None:
            first = rep.digests
            bad = mismatches(rep.digests, ref.digests)
            if bad:
                problems.append(f"{bad} cell(s) differ between jobs={TIMED_JOBS} and jobs={CHECK_JOBS}")
            failed += bad
        bad = cells if rep.rc != 0 else mismatches(rep.digests, first)
        if bad:
            problems.append(f"repetition {len(into)}: {bad} cell(s) failed or differ")
        attempted += cells
        failed += bad
        into.append((rep, lo, len(tracer.spans)))

    # Traced repetitions alternate with untraced ones, so that both see the
    # same machine and their difference is the tracing overhead.
    tracer = tracing.Tracer()
    before = tracing.module_snapshot()
    deadline = time.perf_counter() + args.seconds
    while not untraced or time.perf_counter() < deadline:
        timed(timer, untraced)
        if args.trace:
            timed(tracer, traced)
        else:
            setup.extend(measure_setup(config, harness, inputs, SETUP_PER_REP))
    if tracing.module_snapshot() != before:
        problems.append("tracing left a hetfed function wrapped")

    result = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds}
    # One sample per repetition: its mean time per run (per cell of a sweep).
    run_s = [statistics.fmean(rep.run_s) for rep, _, _ in untraced]
    if args.trace == 0:
        sweeps = [rep.wall for rep, _, _ in untraced]
        samples = {
            "run_s": run_s,
            "setup_s": setup,
            "client_rounds_per_s": [inputs.client_rounds / t for t in run_s],
            "sweep_s": sweeps,
            "cells_per_s": [cells / t for t in sweeps],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
            "final_acc": [final_acc],
        }
        metrics = {name: summary(samples[name], unit) for name, unit in END_TO_END_UNITS.items()}
        layers = None
    else:
        selfs = tracing.self_times(tracer.spans)
        per_rep, layers = [], None
        for rep, lo, hi in traced:
            values, totals = layer_metrics(tracer, selfs, lo, hi, rep)
            per_rep.append(values)
            layers = layers or totals
        traced_run_s = [statistics.fmean(rep.run_s) for rep, _, _ in traced]
        metrics = {
            name: summary([values[name] for values in per_rep], unit)
            for name, unit in PER_LAYER_UNITS.items() if name != "trace.overhead_s"
        }
        traced_median = summary(traced_run_s, "s")["value"]
        untraced_median = summary(run_s, "s")["value"]
        metrics["trace.overhead_s"] = {
            "value": traced_median - untraced_median, "unit": "s", "n": len(traced_run_s),
            "traced_run_s": traced_median, "untraced_run_s": untraced_median,
        }
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            for sid, span in enumerate(tracer.spans):
                fh.write(json.dumps(span.as_dict(sid)) + "\n")

    result.update({
        "machine": machine_facts(),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems,
        "layers": layers,
    })
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result, (1 if failed or problems else 0)


def report(result: dict) -> None:
    m = result["machine"]
    print(f"hetfed benchmark: workload={result['workload']} seed={result['seed']} "
          f"trace={result['trace']} seconds={result['seconds']:g}")
    print(f"  why: {result['why']}")
    print(f"  machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"blas={m['blas']} blas_threads={m['blas_threads']} commit={m['git_commit']}")
    print(f"  load: {m['load']}")
    print(f"  {'metric':<40} {'unit':<6} {'median':>12} {'tail':>18} {'n':>5}")
    rows = dict(result["metrics"])
    rows["failed_share"] = {"value": result["failed_share"], "unit": "share",
                            "n": result["attempted"]}
    for name, stat in rows.items():
        tail = next((f"{k}={v:.6g}" for k, v in stat.items() if k.startswith("p")), "-")
        print(f"  {name:<40} {stat['unit']:<6} {stat['value']:>12.6g} {tail:>18} {stat['n']:>5}")
    if result["layers"]:
        total = sum(row["s"] for row in result["layers"].values())
        print("  self time by span, first traced repetition:")
        for name, row in sorted(result["layers"].items(), key=lambda kv: -kv[1]["s"])[:15]:
            print(f"    {name:<38} calls={int(row['calls']):>7} self={row['s']:.4f}s "
                  f"({100 * row['s'] / total:.1f}%)")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, code = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(result)
    line = {
        "correct": code == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": stat["value"], "unit": stat["unit"]}
            for name, stat in result["metrics"].items()
        },
    }
    print(json.dumps(line))
    return code


if __name__ == "__main__":
    sys.exit(main())
