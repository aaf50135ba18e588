"""Sweep cells that differ only in strategy, flags, client count and noise
run as one federation.

Each such cell must write the bytes it writes when run alone, fail as it
fails alone, and a rerun must recompute only what is missing.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hetfed import data, harness, protocol
from hetfed.config import ExperimentConfig, apply_overrides, parse_config
from hetfed.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
BASE = ROOT / "configs" / "base.json"
GRID = json.loads((ROOT / "configs" / "comparison_grid.json").read_text())
CHECKED = (harness.ROUNDS_FILE, harness.META_FILE, harness.CONFIG_FILE)


def base(*overrides):
    return parse_config([BASE], ["rounds=2", *overrides])


def cell_configs(doc, grid):
    return [
        ExperimentConfig.from_dict(apply_overrides(doc, cell.items(), "<grid>"))
        for cell in harness.expand_grid(grid)
    ]


def files(run_dir):
    return {name: (run_dir / name).read_bytes() for name in CHECKED}


def timing(run_dir):
    return json.loads((run_dir / harness.TIMING_FILE).read_text())


def alone(monkeypatch):
    """Make every sweep cell run on its own, as before batching."""
    monkeypatch.setattr(harness, "_batch_key", lambda cfg: None)


@pytest.fixture
def federations(monkeypatch):
    """The cell count of every federation run, in call order."""
    calls = []
    run = protocol.run_federation

    def counted(clients, *args, **kwargs):
        calls.append(len({c.cell for c in clients}))
        return run(clients, *args, **kwargs)

    monkeypatch.setattr(protocol, "run_federation", counted)
    return calls


class TestBatchMatchesAlone:
    VARIANTS = {
        "plain": [],
        "one_client_per_chunk": [],
        # At this learning rate confidence weights clamp by round 3.
        "random_rates_clamped": [
            "rounds=3", "hyperparams.lr=0.5",
            "data.noise.random_range=[0.2,0.6]", "hyperparams.eta_conf=8",
        ],
    }

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_every_cell_writes_its_solo_bytes(self, tmp_path, monkeypatch, federations,
                                              variant, seed):
        if variant == "one_client_per_chunk":
            monkeypatch.setattr(protocol, "_CHUNK_BYTES", 1)  # chunks cut blocks and cells
        doc = base(*self.VARIANTS[variant])
        grid = {**GRID, "seed": [seed]}
        outcome = harness.run_sweep(doc, grid, tmp_path / "batched")
        assert not outcome.failures
        assert federations == [20]
        names = [d.name for d in outcome.run_dirs]
        clamps = {}  # per strategy, each cell's clamp counts
        for cfg, run_dir in zip(cell_configs(doc, grid), outcome.run_dirs):
            solo = harness.execute_run(cfg, tmp_path / "alone")
            assert solo.name == run_dir.name
            assert files(run_dir) == files(solo)
            assert timing(run_dir)["batch_cells"] == 20 and timing(solo)["batch_cells"] == 1
            assert timing(run_dir)["batch_runs"] == names
            assert timing(solo)["batch_runs"] == [solo.name]
            records = [json.loads(line) for line in (run_dir / harness.ROUNDS_FILE).open()]
            assert sorted({r["client"] for r in records}) == [0, 1, 2, 3]
            counts = tuple(r["clamp_events"] for r in records)
            clamps.setdefault(cfg.federation.strategy, set()).add(counts)
        if variant == "random_rates_clamped":
            # Cells of one batch count their own clamps.
            assert any(len(counts) > 1 for counts in clamps.values())

    def test_batch_cells_share_the_batch_timing(self, tmp_path):
        grid = {"strategy": ["local_only"], "noise_type": ["pairflip", "symmetric"], "mu": [0.1]}
        outcome = harness.run_sweep(base(), grid, tmp_path)
        first, second = (timing(run_dir) for run_dir in outcome.run_dirs)
        assert first == second
        assert first["batch_cells"] == 2 and first["total_seconds"] > 0
        assert first["batch_runs"] == [d.name for d in outcome.run_dirs]


class TestMixedBatches:
    """Cells of differing strategies, ablation flags, client counts and
    noise share one federation and still write their solo bytes."""

    GRIDS = {
        "strategies_and_clients": {
            "strategy": ["local_only", "hetero_distill", "rhfl", "rhfl_plus_ccr",
                         "rhfl_plus_eccr"],
            "data.clients": [1, 3, 4],
        },
        "ablation_rows_and_clients": {
            "flags": harness.ablation_rows(),
            "data.clients": [2, 4],
            "noise_type": ["symmetric"],
        },
        "strategies_and_random_rates": {
            "strategy": ["local_only", "hetero_distill", "rhfl_plus_eccr"],
            "data.noise.random_range": [None, [0.2, 0.6]],
            "data.clients": [3, 4],
        },
    }

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("chunk", ["whole", "one_client_per_chunk"])
    @pytest.mark.parametrize("grid_name", list(GRIDS))
    def test_every_cell_writes_its_solo_bytes(self, tmp_path, monkeypatch, federations,
                                              grid_name, chunk, seed):
        if chunk == "one_client_per_chunk":
            monkeypatch.setattr(protocol, "_CHUNK_BYTES", 1)
        doc = base()
        grid = {**self.GRIDS[grid_name], "seed": [seed]}
        cfgs = cell_configs(doc, grid)
        outcome = harness.run_sweep(doc, grid, tmp_path / "batched")
        assert not outcome.failures and len(outcome.run_dirs) == len(cfgs)
        assert federations == [len(cfgs)]
        for cfg, run_dir in zip(cfgs, outcome.run_dirs):
            solo = harness.execute_run(cfg, tmp_path / "alone")
            assert solo.name == run_dir.name
            assert files(run_dir) == files(solo)
            assert timing(run_dir)["batch_cells"] == len(cfgs)


    def test_one_client_weighted_cell_recomputes_the_public_forward(
        self, tmp_path, monkeypatch, federations
    ):
        """A weighted cell of one client gets no mixture, so its batch distills
        a part gathered without it, which forwards the public set afresh."""
        kept = []
        train = protocol.collaborative_training

        def spied(group, public, target, cfg, passes=None):
            kept.append(passes is not None)
            return train(group, public, target, cfg, passes)

        monkeypatch.setattr(protocol, "collaborative_training", spied)
        doc = base()
        grid = {"strategy": ["hetero_distill", "rhfl_plus_eccr"], "data.clients": [1, 3],
                "seed": [0]}
        cfgs = cell_configs(doc, grid)
        outcome = harness.run_sweep(doc, grid, tmp_path / "batched")
        assert not outcome.failures and federations == [len(cfgs)]
        assert kept == [False, False]  # one distillation per round, recomputed
        for cfg, run_dir in zip(cfgs, outcome.run_dirs):
            solo = harness.execute_run(cfg, tmp_path / "alone")
            assert files(run_dir) == files(solo)
        assert kept[2:] == [True] * 6  # alone, three cells distill from phase 1's forward


class TestChunkBudget:
    """The chunk budget moves no byte: a mixed-architecture batch writes
    the same files with one client per chunk, at the default budget and
    with the whole group in one chunk."""

    def test_every_budget_writes_the_same_bytes(self, tmp_path, monkeypatch):
        doc = base()
        grid = {**TestMixedBatches.GRIDS["strategies_and_clients"], "seed": [0]}
        written = []
        for budget in (1, protocol._CHUNK_BYTES, 1 << 40):
            monkeypatch.setattr(protocol, "_CHUNK_BYTES", budget)
            outcome = harness.run_sweep(doc, grid, tmp_path / str(budget))
            assert not outcome.failures
            written.append([files(run_dir) for run_dir in outcome.run_dirs])
        assert written[0] == written[1] == written[2]


class TestBatchWorlds:
    """A batch builds its shared parts once, and every cell's world equals
    the world its config builds alone."""

    GRID = {
        "strategy": ["local_only", "rhfl_plus_eccr"],  # without and with a public split
        "data.clients": [1, 3, 8],
        "noise_type": ["pairflip", "symmetric"],
        "data.noise.random_range": [None, [0.2, 0.6]],
    }

    @pytest.mark.parametrize("seed", [0, 2**64 + 3])
    def test_every_cell_world_equals_its_world_alone(self, seed):
        cfgs = cell_configs(base("data.shard_size=200", f"seed={seed}"), self.GRID)
        worlds, pooled = harness._build_cells(cfgs)
        assert len(worlds) == len(cfgs) == 24
        row = 0
        for cell, (cfg, world) in enumerate(zip(cfgs, worlds)):
            solo = harness.build_world(cfg)
            rows = slice(row, row + len(solo.clients))
            assert np.array_equal(pooled["features"][rows], solo.features)
            assert np.array_equal(pooled["labels"][rows], solo.labels)
            assert np.array_equal(world.flipped, solo.flipped)
            assert world.noise_rates == solo.noise_rates
            assert np.array_equal(pooled["test"].features, solo.test.features)
            assert np.array_equal(pooled["test"].labels, solo.test.labels)
            if solo.public is not None:
                assert np.array_equal(pooled["public"].features, solo.public.features)
                assert np.array_equal(pooled["public"].labels, solo.public.labels)
            assert len(world.clients) == len(solo.clients)
            for client, alone_client in zip(world.clients, solo.clients):
                assert client.cell == cell and client.client_id == alone_client.client_id
                assert client.params.layer_dims == alone_client.params.layer_dims
                assert client.params.values.tobytes() == alone_client.params.values.tobytes()
                assert client.rng.bit_generator.state == alone_client.rng.bit_generator.state
            row = rows.stop
        assert row == len(pooled["features"]) == len(pooled["labels"])

    def test_csv_source_is_parsed_once_per_batch(self, tmp_path, monkeypatch, federations):
        blobs = data.gen_blobs(3, 2, 800, 0.55, seed=5)
        path = tmp_path / "blobs.csv"
        rows = zip(blobs.labels.tolist(), blobs.features.tolist())
        path.write_text("label,f0,f1\n" + "".join(f"{y},{a!r},{b!r}\n" for y, (a, b) in rows))
        parsed = []
        load_csv = data.load_csv

        def counted(*args):
            parsed.append(args)
            return load_csv(*args)

        monkeypatch.setattr(data, "load_csv", counted)
        doc = base("data.source=csv", f"data.csv_path={json.dumps(str(path))}")
        grid = {"strategy": ["local_only", "rhfl_plus_eccr"], "noise_type": ["pairflip", "symmetric"]}
        outcome = harness.run_sweep(doc, grid, tmp_path / "batched")
        assert not outcome.failures and len(outcome.run_dirs) == 4
        assert federations == [4] and len(parsed) == 1
        for cfg, run_dir in zip(cell_configs(doc, grid), outcome.run_dirs):
            assert files(harness.execute_run(cfg, tmp_path / "alone")) == files(run_dir)
        assert len(parsed) == 5


class TestWhatBatches:
    def test_comparison_grid_is_one_federation_per_seed(self, tmp_path, federations):
        outcome = harness.run_sweep(base("rounds=1"), {**GRID, "seed": [0, 1]}, tmp_path)
        assert not outcome.failures and len(outcome.run_dirs) == 40
        assert federations == [20, 20]

    def test_fedavg_runs_alone_and_seeds_apart(self, tmp_path, federations):
        grid = {
            "strategy": ["fedavg", "local_only"],
            "noise_type": ["pairflip", "symmetric"],
            "mu": [0.1],
            "seed": [0, 1],
            "archs.hidden_layers": [[[16]]],
        }
        outcome = harness.run_sweep(base(), grid, tmp_path)
        assert not outcome.failures
        cells = {
            (t["batch_cells"], json.loads((d / harness.CONFIG_FILE).read_text())["strategy"])
            for d in outcome.run_dirs for t in [timing(d)]
        }
        assert cells == {(1, "fedavg"), (2, "local_only")}
        assert sorted(federations) == [1, 1, 1, 1, 2, 2]

    def test_ablation_grid_runs_as_one_federation(self, tmp_path, federations):
        grid = {
            "flags": harness.ablation_rows(),
            "noise_type": ["pairflip", "symmetric"],
            "mu": [0.1, 0.2],
        }
        outcome = harness.run_sweep(base("rounds=1"), grid, tmp_path)
        assert not outcome.failures and len(outcome.run_dirs) == 24
        assert federations == [24]

    def test_fedavg_federation_takes_one_cell(self):
        cfg = ExperimentConfig.from_dict(base("strategy=fedavg", "archs.hidden_layers=[[16]]"))
        worlds = [harness.build_world(cfg), harness.build_world(cfg)]
        for client in worlds[1].clients:
            client.cell = 1
        with pytest.raises(ConfigError, match="fedavg runs one cell at a time"):
            protocol.run_federation(
                worlds[0].clients + worlds[1].clients,
                np.concatenate([w.features for w in worlds]),
                np.concatenate([w.labels for w in worlds]),
                cfg.federation, worlds[0].test,
            )


class TestFailuresAndReruns:
    GRID = {
        "strategy": ["local_only", "rhfl_plus_eccr"],
        "noise_type": ["pairflip", "symmetric"],
        "mu": [0.1, 0.2],
    }

    def sweep(self, out):
        outcome = harness.run_sweep(base(), self.GRID, out)
        report = (out / "sweep_report.json").read_bytes()
        return outcome, {d.name: files(d) for d in outcome.run_dirs}, report

    def test_failing_cell_fails_as_alone_and_spares_its_batch(self, tmp_path, monkeypatch):
        apply_noise = data.apply_noise

        def flaky(labels, classes, kind, rate, seed):
            if kind == "symmetric" and rate == 0.2:
                raise ConfigError("no symmetric noise at 0.2 today")
            return apply_noise(labels, classes, kind, rate, seed)

        monkeypatch.setattr(data, "apply_noise", flaky)
        with pytest.warns(RuntimeWarning, match="batch of 8 sweep cells failed .ConfigError"):
            batched, batched_files, batched_report = self.sweep(tmp_path / "batched")
        alone(monkeypatch)
        solo, solo_files, solo_report = self.sweep(tmp_path / "alone")
        assert len(batched_files) == 6 and batched_files == solo_files
        assert batched_report == solo_report
        assert batched.failures == solo.failures
        assert len(batched.failures) == 2
        assert all(e.startswith("ConfigError: no symmetric noise") for e in batched.failures.values())

    def test_mixed_batch_failure_reruns_its_cells_with_their_solo_errors(
        self, tmp_path, monkeypatch, federations
    ):
        # Seven clients' shards do not fit in the dataset: those cells fail.
        grid = {"strategy": ["local_only", "rhfl_plus_eccr"], "data.clients": [4, 7]}
        with pytest.warns(RuntimeWarning, match="batch of 4 sweep cells failed .ConfigError"):
            batched = harness.run_sweep(base(), grid, tmp_path / "batched")
        assert federations == [1, 1]
        alone(monkeypatch)
        solo = harness.run_sweep(base(), grid, tmp_path / "alone")
        assert len(batched.failures) == 2
        assert batched.failures == solo.failures
        assert all("dataset has 2400 samples" in e for e in batched.failures.values())
        assert [files(d) for d in batched.run_dirs] == [files(d) for d in solo.run_dirs]
        assert (tmp_path / "batched" / "sweep_report.json").read_bytes() == \
            (tmp_path / "alone" / "sweep_report.json").read_bytes()

    def test_batch_only_failure_reruns_every_cell_alone(self, tmp_path, monkeypatch, federations):
        run = protocol.run_federation

        def single_cells_only(clients, *args, **kwargs):
            if len({c.cell for c in clients}) > 1:
                raise protocol.ProtocolError("batches are broken")
            return run(clients, *args, **kwargs)

        monkeypatch.setattr(protocol, "run_federation", single_cells_only)
        with pytest.warns(RuntimeWarning, match="batches are broken.; running each alone"):
            batched, batched_files, batched_report = self.sweep(tmp_path / "batched")
        alone(monkeypatch)
        _, solo_files, solo_report = self.sweep(tmp_path / "alone")
        assert not batched.failures
        assert batched_files == solo_files and batched_report == solo_report
        assert all(timing(d)["batch_cells"] == 1 for d in batched.run_dirs)

    def test_rerun_recomputes_only_the_missing_cell(self, tmp_path, federations):
        out = tmp_path / "sweep"
        outcome, first, _ = self.sweep(out)
        assert federations == [8]
        stamps = {d.name: (d / harness.ROUNDS_FILE).stat().st_mtime_ns for d in outcome.run_dirs}
        gone = outcome.run_dirs[3]
        for path in gone.iterdir():
            path.unlink()
        gone.rmdir()
        federations.clear()
        rerun, again, _ = self.sweep(out)
        assert federations == [1]
        assert again == first and rerun.run_dirs == outcome.run_dirs
        for run_dir in rerun.run_dirs:
            if run_dir != gone:
                assert (run_dir / harness.ROUNDS_FILE).stat().st_mtime_ns == stamps[run_dir.name]
        assert timing(gone)["batch_cells"] == 1

    def test_finished_sweep_starts_no_federation(self, tmp_path, federations):
        out = tmp_path / "sweep"
        self.sweep(out)
        federations.clear()
        self.sweep(out)
        assert federations == []


class TestCellIdentity:
    GRID = {"strategy": ["local_only", "rhfl"], "mu": [0, 0.1], "seed": [0]}

    def test_run_name_and_digest_name_the_cell_everywhere(self, tmp_path):
        doc = base("rounds=1")
        outcome = harness.run_sweep(doc, self.GRID, tmp_path)
        cfgs = cell_configs(doc, self.GRID)
        assert [d.name for d in outcome.run_dirs] == [cfg.run_name for cfg in cfgs]
        for cfg, run_dir in zip(cfgs, outcome.run_dirs):
            assert (run_dir / harness.DONE_FILE).read_text() == cfg.digest + "\n"
            meta = json.loads((run_dir / harness.META_FILE).read_text())
            assert meta["config_hash"] == cfg.digest
            assert json.loads((run_dir / harness.CONFIG_FILE).read_text()) == cfg.echoed

    def test_sweep_leaves_its_base_document_unchanged(self, tmp_path):
        doc = base("rounds=1")
        before = json.dumps(doc, sort_keys=True)
        harness.run_sweep(doc, self.GRID, tmp_path)
        assert json.dumps(doc, sort_keys=True) == before

    def test_batch_key_leaves_the_echoed_document_unchanged(self):
        for cfg in cell_configs(base(), self.GRID):
            before = json.dumps(cfg.echoed, sort_keys=True)
            assert harness._batch_key(cfg) is not None
            assert json.dumps(cfg.echoed, sort_keys=True) == before
