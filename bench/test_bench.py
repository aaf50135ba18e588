"""Tests of the benchmark itself: tracing must not change the program.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, generate  # noqa: E402

cli, config, harness = run.load_package()

TINY = Workload(
    name="tiny",
    why="test",
    overrides={
        "strategy": "rhfl_plus_eccr",
        "rounds": 2,
        "data": {"per_class": 200, "clients": 3, "shard_size": 60,
                 "n_public": 30, "test_size": 60},
    },
)


def _run(inputs, out_dir, tracer):
    # With worker pools, so that spans handed to pool threads are covered.
    rep = run.invoke(cli, inputs, out_dir, run.CHECK_JOBS, tracer)
    assert rep.rc == 0
    return rep


def test_traced_run_keeps_outputs_and_restores_every_function(tmp_path):
    inputs = generate(TINY, 3, run.ROOT, tmp_path / "in", harness.expand_grid)
    with tracing.Tracer(only={tracing.RUN_SPAN}) as timer:
        plain = _run(inputs, tmp_path / "plain", timer)
    before = tracing.module_snapshot()
    tracer = tracing.Tracer()
    with tracer:
        assert tracing.module_snapshot() != before
        traced = _run(inputs, tmp_path / "traced", tracer)
    assert tracing.module_snapshot() == before
    assert plain.digests and traced.digests == plain.digests
    assert len(plain.run_s) == len(traced.run_s) == 1

    names = {s.name for s in tracer.spans}
    assert {"cli.main", "harness.build_world", "protocol.run_federation",
            "protocol.evaluate_client", "metrics.multiclass_roc_auc"} <= names
    # Client work runs in pool threads but still hangs under the run.
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    fed = next(i for i, s in enumerate(tracer.spans) if s.name == "protocol.run_federation")
    assert any(s.parent == fed and s.name == "protocol.evaluate_client" for s in tracer.spans)


def test_tracer_restores_after_an_exception():
    before = tracing.module_snapshot()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert tracing.module_snapshot() == before


def _span(name, start, end, parent):
    span = tracing.Span(name, parent, 0, {})
    span.start, span.end = start, end
    return span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("run", 0.0, 10.0, None),
        _span("a", 1.0, 3.0, 0),   # two overlapping children, as from two threads
        _span("b", 2.0, 5.0, 0),
        _span("c", 2.5, 3.5, 2),
        _span("d", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10.0 - 4.0 - 1.0, 2.0, 2.0, 1.0, 3.0])
    totals = tracing.layer_totals(spans, selfs, 0, len(spans))
    assert totals["run"] == {"calls": 1, "s": pytest.approx(5.0), "wall": 10.0}


def test_inputs_come_from_the_seed_only(tmp_path):
    for name, workload in WORKLOADS.items():
        a = generate(workload, 7, run.ROOT, tmp_path / f"{name}a", harness.expand_grid)
        b = generate(workload, 7, run.ROOT, tmp_path / f"{name}b", harness.expand_grid)
        c = generate(workload, 8, run.ROOT, tmp_path / f"{name}c", harness.expand_grid)
        assert a.config.read_bytes() == b.config.read_bytes() != c.config.read_bytes()
        assert a.doc["seed"] == 7 and c.doc["seed"] == 8
        config.ExperimentConfig.from_dict(config.parse_config([a.config], a.cells[0]))
    sweep = generate(WORKLOADS["sweep_desk"], 7, run.ROOT, tmp_path / "s", harness.expand_grid)
    assert len(sweep.cells) == 20
    assert all(dict(cell)["seed"] == 7 for cell in sweep.cells)


def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_summary_reports_the_tail_with_ten_samples_beyond_it():
    stat = run.summary([float(i) for i in range(1, 101)], "s")
    assert stat["value"] == 50.5 and stat["n"] == 100 and stat["p90"] == 90.0
    assert "p50" not in run.summary([1.0] * 19, "s")
    assert set(run.summary([2.0], "1/s")) == {"value", "unit", "n"}
