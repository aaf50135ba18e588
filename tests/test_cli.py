import csv
import json
import os
import platform
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from conftest import small_doc
from hetfed import harness
from hetfed.cli import main
from hetfed.config import ExperimentConfig, load_config, parse_config
from hetfed.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent


def write_cfg(tmp_path, name="cfg.json", **overrides):
    doc = small_doc(**overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rounds(run_dir):
    return (run_dir / harness.ROUNDS_FILE).read_bytes()


class TestRunCommand:
    def test_run_writes_expected_files(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "runs"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        run_dir = next(out.iterdir())
        for name in (harness.ROUNDS_FILE, harness.CONFIG_FILE,
                     harness.META_FILE, harness.TIMING_FILE, harness.DONE_FILE):
            assert (run_dir / name).exists()
        lines = [json.loads(l) for l in (run_dir / harness.ROUNDS_FILE).read_text().splitlines()]
        assert {l["round"] for l in lines} == {0, 1, 2}
        assert {l["client"] for l in lines} == {0, 1}

    def test_rerun_is_idempotent_and_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "runs")
        main(["run", "--config", cfg, "--out", out])
        run_dir = next((tmp_path / "runs").iterdir())
        first = read_rounds(run_dir)
        stamp = (run_dir / harness.ROUNDS_FILE).stat().st_mtime_ns
        main(["run", "--config", cfg, "--out", out])
        assert read_rounds(run_dir) == first
        assert (run_dir / harness.ROUNDS_FILE).stat().st_mtime_ns == stamp  # skipped

    def test_fresh_rerun_reproduces_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path)
        main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b")])
        dir_a = next((tmp_path / "a").iterdir())
        dir_b = next((tmp_path / "b").iterdir())
        assert read_rounds(dir_a) == read_rounds(dir_b)
        assert (dir_a / harness.CONFIG_FILE).read_bytes() == (dir_b / harness.CONFIG_FILE).read_bytes()
        assert (dir_a / harness.META_FILE).read_bytes() == (dir_b / harness.META_FILE).read_bytes()

    def test_resolved_config_closure(self, tmp_path):
        """Feeding the echoed config back reproduces the identical run."""
        cfg = write_cfg(tmp_path, strategy="rhfl_plus_eccr")
        main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        dir_a = next((tmp_path / "a").iterdir())
        echoed = dir_a / harness.CONFIG_FILE
        main(["run", "--config", str(echoed), "--out", str(tmp_path / "b")])
        dir_b = next((tmp_path / "b").iterdir())
        assert dir_a.name == dir_b.name  # same content hash
        assert read_rounds(dir_a) == read_rounds(dir_b)

    def test_noise_rate_flag_overrides_file(self, tmp_path):
        cfg = write_cfg(tmp_path, data={"noise": {"rate": 0.1}})
        main(["run", "--config", cfg, "--out", str(tmp_path / "r"),
              "--set", "data.noise.rate=0.2"])
        run_dir = next((tmp_path / "r").iterdir())
        resolved = json.loads((run_dir / harness.CONFIG_FILE).read_text())
        assert resolved["data"]["noise"]["rate"] == 0.2

    def test_noise_rate_flag_is_gone(self, tmp_path, capsys):
        """--set data.noise.rate=X is the one way to set the rate."""
        cfg = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as caught:
            main(["run", "--config", cfg, "--out", str(tmp_path / "r"), "--noise-rate", "0.2"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --noise-rate 0.2" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 0}))  # missing strategy
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "strategy" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}"])
    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys, content):
        """A directory, or a file that is not UTF-8 text, is named and exits 2."""
        bad = tmp_path / "bad.json"
        bad.mkdir() if content is None else bad.write_bytes(content)
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config file {bad} cannot be read: ")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("override", [
        "seed=null",
        "archs.hidden_layers=[[0]]",
        'archs.hidden_layers=[["a"]]',
        'data.noise.random_range=["a",0.1]',
    ])
    def test_invalid_values_are_config_errors(self, tmp_path, capsys, override):
        cfg = write_cfg(tmp_path)
        argv = ["run", "--config", cfg, "--set", override, "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not (tmp_path / "x").exists()

    def test_random_noise_range_needs_a_flipping_kind(self, tmp_path, capsys):
        """Per-client noise rates need a kind that flips labels, so that
        run_meta.json's noise_kind names the noise the run applied."""
        cfg = write_cfg(tmp_path)
        argv = ["run", "--config", cfg, "--set", 'data.noise.kind="none"',
                "--set", "data.noise.random_range=[0.3,0.5]", "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "random_range" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is set through glibc's mallopt")
    def test_repeated_runs_reuse_the_heap(self, tmp_path):
        """A run in a process that ran it before faults in almost no new pages.

        The policy is process-wide, so the runs go in a process of their own.
        Without it, whether a run re-faults depends on where long-lived
        objects sit in the heap, so the policy is also checked directly:
        24 MiB of 3 MiB blocks, freed and asked for again, come back without
        faults. (numpy asks for huge pages only from 4 MiB up.)
        """
        cfg = write_cfg(
            tmp_path, strategy="rhfl_plus_eccr", rounds=1, hyperparams={"lr": 0.1},
            data={"per_class": 2500, "clients": 40, "shard_size": 60,
                  "n_public": 100, "test_size": 500},
            archs={"hidden_layers": [[12]]},
        )
        script = textwrap.dedent("""
            import json, resource, sys
            from pathlib import Path
            import numpy as np
            from hetfed.cli import main
            cfg, out = sys.argv[1], Path(sys.argv[2])
            for rep in range(3):
                assert main(["run", "--config", cfg, "--out", str(out / str(rep))]) == 0
            timing = next((out / "2").iterdir()) / "timing.json"
            blocks = [np.ones(3 << 17) for _ in range(8)]
            del blocks
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            blocks = [np.ones(3 << 17) for _ in range(8)]
            block = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            print(json.loads(timing.read_text())["minor_faults"], block)
        """)
        done = subprocess.run(
            [sys.executable, "-c", script, cfg, str(tmp_path / "runs")],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        run_faults, block_faults = map(int, done.stdout.split()[-2:])
        assert run_faults < 200
        assert block_faults < 200

    @pytest.mark.parametrize("config", [{"scheme": "iid-sized"}, {"scheme": "sized"}])
    def test_config_schemes_are_iid_equal_and_label_skew(self, tmp_path, capsys, config):
        cfg = write_cfg(tmp_path, data=config)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "'data.scheme'" in err and "['iid-equal', 'label-skew']" in err
        assert not (tmp_path / "x").exists()

    def test_diverged_run_names_where_it_failed(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, strategy="rhfl_plus_eccr")
        argv = ["run", "--config", cfg, "--set", "hyperparams.lr=1e100",
                "--out", str(tmp_path / "x")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "error: NumericError: round 1, client 0, phase private: softmax" in err
        assert harness.discover_runs([tmp_path / "x"]) == []

    def test_failed_write_leaves_no_run(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_dict(parse_config([], small_doc(strategy="local_only").items()))
        out = tmp_path / "runs"
        # A killed run's leftovers: hidden, so never discovered, and cleared on rerun.
        stale = out / f".{cfg.run_name}.partial"
        stale.mkdir(parents=True)
        (stale / harness.ROUNDS_FILE).write_text("{}\n")
        assert harness.discover_runs([out]) == []

        def fail(*args, **kwargs):
            raise OSError("disk full")

        # rounds.jsonl is written before the first json.dump call.
        monkeypatch.setattr(harness.json, "dump", fail)
        with pytest.raises(OSError, match="disk full"):
            harness.execute_run(cfg, out)
        assert harness.discover_runs([out]) == []
        assert list(out.iterdir()) == []

        monkeypatch.undo()
        run_dir = harness.execute_run(cfg, out)
        assert harness.discover_runs([out]) == [run_dir]
        assert [p.name for p in out.iterdir()] == [run_dir.name]

    @pytest.mark.parametrize("strategy, flags", [
        ("hetero_distill", ["flags.sl=true", "flags.dlr=true", 'flags.reweight="eccr"']),
        ("fedavg", ["flags.sl=true"]),
        ("fedavg", ["flags.hfl=true"]),
    ])
    def test_ignored_flag_overrides_are_rejected(self, tmp_path, capsys, strategy, flags):
        cfg = write_cfg(tmp_path, strategy=strategy)
        argv = ["run", "--config", cfg, "--out", str(tmp_path / "x")]
        for item in flags:
            argv += ["--set", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"strategy {strategy!r} ignores flags: {flags[0]} differs from its preset" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("strategy", ["fedavg", "hetero_distill"])
    def test_echoed_preset_flags_rerun_in_place(self, tmp_path, strategy):
        cfg = write_cfg(tmp_path, strategy=strategy)
        out = tmp_path / "runs"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        (run_dir,) = out.iterdir()
        stamp = (run_dir / harness.DONE_FILE).stat().st_mtime_ns
        echoed = tmp_path / "echoed.json"
        echoed.write_bytes((run_dir / harness.CONFIG_FILE).read_bytes())
        assert main(["run", "--config", str(echoed), "--out", str(out)]) == 0
        assert list(out.iterdir()) == [run_dir]
        assert (run_dir / harness.DONE_FILE).stat().st_mtime_ns == stamp  # skipped

    def test_jobs_flag_does_not_change_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, strategy="rhfl_plus_ccr",
                        data={"clients": 3, "shard_size": 30})
        main(["run", "--config", cfg, "--out", str(tmp_path / "j1"), "--jobs", "1"])
        main(["run", "--config", cfg, "--out", str(tmp_path / "j4"), "--jobs", "4"])
        a = next((tmp_path / "j1").iterdir())
        b = next((tmp_path / "j4").iterdir())
        assert read_rounds(a) == read_rounds(b)


class TestSweepCommand:
    def grid(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "strategy": ["local_only", "rhfl_plus_ccr"],
            "noise_type": ["pairflip"],
            "mu": [0.1, 0.2],
            "seed": [0],
        }))
        return str(path)

    def test_sweep_executes_cartesian_product(self, tmp_path):
        cfg = write_cfg(tmp_path, rounds=1)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--grid", self.grid(tmp_path),
                     "--out", str(out)]) == 0
        run_dirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(run_dirs) == 4
        report = json.loads((out / "sweep_report.json").read_text())
        assert report["cells"] == 4 and not report["failed"]

    def test_finished_sweep_skips_recomputation(self, tmp_path):
        cfg = write_cfg(tmp_path, rounds=1)
        out = tmp_path / "sweep"
        main(["sweep", "--config", cfg, "--grid", self.grid(tmp_path), "--out", str(out)])
        stamps = {
            p.name: (p / harness.ROUNDS_FILE).stat().st_mtime_ns
            for p in out.iterdir() if p.is_dir()
        }
        main(["sweep", "--config", cfg, "--grid", self.grid(tmp_path), "--out", str(out)])
        for p in out.iterdir():
            if p.is_dir():
                assert (p / harness.ROUNDS_FILE).stat().st_mtime_ns == stamps[p.name]

    def test_failing_cell_recorded_and_exit_one(self, tmp_path):
        cfg = write_cfg(tmp_path, rounds=1)
        grid = tmp_path / "grid.json"
        # second cell requests more samples than the dataset holds
        grid.write_text(json.dumps({"data.shard_size": [40, 100000]}))
        code = main(["sweep", "--config", cfg, "--grid", str(grid),
                     "--out", str(tmp_path / "s")])
        assert code == 1
        report = json.loads((tmp_path / "s" / "sweep_report.json").read_text())
        assert len(report["failed"]) == 1
        assert len([p for p in (tmp_path / "s").iterdir() if p.is_dir()]) == 1

    @pytest.mark.parametrize("option", ["--config", "--grid"])
    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}"])
    def test_unreadable_file_is_a_config_error(self, tmp_path, capsys, option, content):
        """A directory, or a file that is not UTF-8 text, is named and exits 2."""
        files = {"--config": write_cfg(tmp_path, rounds=1), "--grid": self.grid(tmp_path)}
        bad = tmp_path / "bad.json"
        bad.mkdir() if content is None else bad.write_bytes(content)
        files[option] = str(bad)
        out = tmp_path / "s"
        argv = ["sweep", "--config", files["--config"], "--grid", files["--grid"], "--out", str(out)]
        assert main(argv) == 2
        what = {"--config": "config file", "--grid": "grid file"}[option]
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {what} {bad} cannot be read: ")
        assert not out.exists()

    @pytest.mark.parametrize("axes, named", [
        ({"mu": [0.1, 0.2], "data.noise.rate": [0.3]}, "'data.noise.rate' and 'mu'"),
        ({"flags": [{"sl": True}], "flags.sl": [False]}, "'flags' and 'flags.sl'"),
    ])
    def test_overlapping_axes_are_a_config_error(self, tmp_path, capsys, axes, named):
        """Two axes that set one key would run only one axis's values."""
        cfg = write_cfg(tmp_path, rounds=1)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(axes))
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--grid", str(grid), "--out", str(out)]) == 2
        assert f"grid axes {named} both set" in capsys.readouterr().err
        assert not out.exists()

    def test_int_in_a_float_key_names_one_run(self, tmp_path):
        """A grid's 0 and a --set override's 0 for the noise rate are one
        experiment, so they share one run directory."""
        cfg = write_cfg(tmp_path, rounds=1)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"mu": [0]}))
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--grid", str(grid), "--out", str(out)]) == 0
        [run_dir] = [p for p in out.iterdir() if p.is_dir()]
        assert "_pairflip0.0_" in run_dir.name
        echoed = json.loads((run_dir / harness.CONFIG_FILE).read_text())
        assert repr(echoed["data"]["noise"]["rate"]) == "0.0"
        stamp = (run_dir / harness.ROUNDS_FILE).stat().st_mtime_ns
        argv = ["run", "--config", cfg, "--set", "data.noise.rate=0", "--out", str(out)]
        assert main(argv) == 0
        assert [p for p in out.iterdir() if p.is_dir()] == [run_dir]
        assert (run_dir / harness.ROUNDS_FILE).stat().st_mtime_ns == stamp  # skipped

    def test_grid_flags_axis(self, tmp_path):
        cfg = write_cfg(tmp_path, rounds=1, strategy="rhfl_plus_eccr")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"flags": harness.ablation_rows()[:2]}))
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--grid", str(grid), "--out", str(out)]) == 0
        assert len([p for p in out.iterdir() if p.is_dir()]) == 2

    def test_mixed_architecture_fedavg_cell_reports_its_error(self, tmp_path, capsys):
        """The fleet is built as for any strategy; the controller rejects it."""
        archs = {"hidden_layers": [[8], [12]]}
        cfg = write_cfg(tmp_path, rounds=1, archs=archs)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"strategy": ["fedavg", "local_only"]}))
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--grid", str(grid), "--out", str(out)]) == 1
        report = json.loads((out / "sweep_report.json").read_text())
        assert list(report["errors"].values()) == [
            "ConfigError: fedavg requires a homogeneous architecture"
        ]
        assert [p.name.startswith("local_only_") for p in out.iterdir() if p.is_dir()] == [True]

        cfg = write_cfg(tmp_path, name="fedavg.json", strategy="fedavg", archs=archs)
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "fedavg requires a homogeneous architecture" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()  # no run directory, not even a partial one


class TestSummarizeCommand:
    def test_summary_layout_and_average(self, tmp_path):
        cfg = write_cfg(tmp_path, rounds=1, data={"clients": 4, "shard_size": 20})
        out = tmp_path / "runs"
        main(["run", "--config", cfg, "--out", str(out)])
        assert main(["summarize", "--runs", str(out), "--format", "csv"]) == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        for col in ("strategy", "hfl", "sl", "dlr", "reweight",
                    "noise_kind", "noise_rate", "metric", "avg"):
            assert col in row
        thetas = [float(row[f"theta_{i}"]) for i in range(1, 5)]
        assert float(row["avg"]) == pytest.approx(sum(thetas) / 4, abs=1e-12)
        assert row["metric"] == "final_round_accuracy"

    def test_both_variants(self, tmp_path):
        cfg = write_cfg(tmp_path, rounds=2)
        out = tmp_path / "runs"
        main(["run", "--config", cfg, "--out", str(out)])
        main(["summarize", "--runs", str(out), "--which", "both",
              "--out", str(tmp_path / "s.csv")])
        with open(tmp_path / "s.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["metric"] for r in rows} == {
            "final_round_accuracy", "best_round_accuracy"
        }

    def test_missing_runs_error(self, tmp_path):
        with pytest.raises(ConfigError, match="missing logs"):
            harness.summarize([tmp_path / "nope"], tmp_path / "s.csv")

    def test_each_run_is_loaded_once(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, rounds=2)
        out = tmp_path / "runs"
        main(["run", "--config", cfg, "--out", str(out)])
        main(["run", "--config", cfg, "--set", "seed=1", "--out", str(out)])
        loads = []
        load = harness._load_run
        monkeypatch.setattr(harness, "_load_run", lambda d: loads.append(d) or load(d))
        rows = harness.summarize(harness.discover_runs([out]), tmp_path / "s.csv", "both")
        assert len(rows) == 4 and len(loads) == 2

    def test_missing_run_among_finished_ones_writes_nothing(self, tmp_path):
        cfg = write_cfg(tmp_path, rounds=1)
        out = tmp_path / "runs"
        main(["run", "--config", cfg, "--out", str(out)])
        run_dirs = [*harness.discover_runs([out]), tmp_path / "nope"]
        with pytest.raises(ConfigError, match=r"missing logs for cells: \['.*nope'\]"):
            harness.summarize(run_dirs, tmp_path / "s.csv")
        assert not (tmp_path / "s.csv").exists()

    def test_empty_run_set_is_config_error(self, tmp_path, capsys):
        assert main(["summarize", "--runs", str(tmp_path / "void")]) == 2


class TestFileSources:
    def test_idx_source_runs_end_to_end(self, tmp_path):
        from test_data import write_idx_pair
        import numpy as np

        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(300, 3, 3)).astype(np.uint8)
        labels = rng.integers(0, 3, size=300).astype(np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        cfg = write_cfg(
            tmp_path, rounds=1,
            data={"source": "idx", "idx_images": img, "idx_labels": lbl,
                  "clients": 2, "shard_size": 60, "n_public": 30, "test_size": 80},
            archs={"hidden_layers": [[6]]},
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0

    def _idx_cfg(self, tmp_path, labels):
        from test_data import write_idx_pair
        import numpy as np

        images = np.random.default_rng(0).integers(0, 256, size=(len(labels), 3, 3))
        img, lbl = write_idx_pair(tmp_path, images, labels)
        return write_cfg(
            tmp_path, rounds=1,
            data={"source": "idx", "idx_images": img, "idx_labels": lbl, "classes": 3,
                  "clients": 2, "shard_size": 60, "n_public": 30, "test_size": 80},
            archs={"hidden_layers": [[6]]},
        )

    def test_idx_labels_missing_the_top_class_keep_every_output(self, tmp_path):
        cfg = self._idx_cfg(tmp_path, [0, 1] * 150)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        meta = json.loads((run_dir / harness.META_FILE).read_text())
        assert meta["hidden_layers"] == [[[9, 6], [6, 3]]] * 2

    def test_idx_label_outside_classes_names_its_byte(self, tmp_path, capsys):
        cfg = self._idx_cfg(tmp_path, [0, 1, 2] * 99 + [3, 0, 1])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert "label 3 >= 3 at item 297 (byte 305)" in err

    def test_missing_idx_label_file_is_a_config_error(self, tmp_path, capsys):
        cfg = self._idx_cfg(tmp_path, [0, 1, 2] * 100)
        missing = tmp_path / "absent-labels.idx"
        argv = ["run", "--config", cfg, "--set", f'data.idx_labels="{missing}"',
                "--out", str(tmp_path / "runs")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {missing}: cannot read: ")
        assert "No such file or directory" in err
        assert not (tmp_path / "runs").exists()

    def test_missing_csv_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--config", str(ROOT / "configs" / "base.json"),
                "--set", "data.source=csv", "--set", 'data.csv_path="missing.csv"',
                "--out", "o"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: missing.csv: cannot read: ")
        assert "No such file or directory" in err
        assert not (tmp_path / "o").exists()

    def test_non_utf8_csv_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        raw = "label,f0,f1\n0,0.5,0.25\n1,0.75,caf".encode() + b"\xe9\n"
        (tmp_path / "latin1.csv").write_bytes(raw)
        argv = ["run", "--config", str(ROOT / "configs" / "base.json"),
                "--set", "data.source=csv", "--set", 'data.csv_path="latin1.csv"',
                "--out", "o"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: latin1.csv: byte {raw.index(0xE9)}: not valid UTF-8\n"
        assert not (tmp_path / "o").exists()

    def test_imbalanced_binary_world_ranks_above_chance(self, tmp_path, monkeypatch):
        """The fingerprinted CSV world, 15% positives shifted by +0.8 in
        every feature. Its features are centred on ingest; scaled to
        [0, 1] only, rhfl_plus_eccr ranked the classes backwards (a mean
        final ROC AUC of 0.10)."""
        monkeypatch.syspath_prepend(str(ROOT / "scripts"))
        import fingerprints

        monkeypatch.chdir(tmp_path)
        fingerprints.write_imbalanced_csv(fingerprints.CSV_FILE)
        cfg = load_config([ROOT / "configs" / "base.json"],
                          [*fingerprints.CSV_OVERRIDES, "strategy=rhfl_plus_eccr"])
        run_dir = harness.execute_run(cfg, tmp_path / "runs")
        lines = [json.loads(l) for l in (run_dir / harness.ROUNDS_FILE).read_text().splitlines()]
        final = [l["roc_auc"] for l in lines if l["round"] == 10]
        assert len(final) == 4 and sum(final) / 4 > 0.5

    def test_csv_source_runs_end_to_end(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(1)
        rows = ["label,f0,f1"]
        for _ in range(200):
            rows.append(f"{rng.integers(0, 2)},{rng.normal():.5f},{rng.normal():.5f}")
        csv_path = tmp_path / "toy.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        cfg = write_cfg(
            tmp_path, rounds=1, strategy="local_only",
            data={"source": "csv", "csv_path": str(csv_path), "classes": 2,
                  "clients": 2, "shard_size": 50, "n_public": 0, "test_size": 60},
            archs={"hidden_layers": [[4]]},
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        lines = [json.loads(l) for l in
                 (run_dir / harness.ROUNDS_FILE).read_text().splitlines()]
        # binary task: both AUC metrics are defined
        assert all(l["roc_auc"] is not None and l["pr_auc"] is not None for l in lines)


class TestRoundsWriter:
    """rounds.jsonl holds, line by line, json.dumps of each record's dict."""

    def test_lines_are_json_dumps_of_the_records(self):
        from hetfed.protocol import ClientRoundStats, RoundRecord, RunResult

        values = [None, 0, 7, 0.0, -0.0, 1e-17, 1e16, 0.1, -2.5, 1 / 3,
                  float("nan"), float("inf"), float("-inf")]
        records = []
        for r in range(len(values)):
            stats = tuple(
                ClientRoundStats(c, *(values[(r + c + i) % len(values)] for i in range(8)))
                for c in range(3)
            )
            records.append(RoundRecord(r, stats, clamp_events=r % 3))
        text = harness._round_lines(RunResult(records, 0, [], []))
        expected = [
            json.dumps({"round": record.round_idx, "client": s.client_id, "accuracy": s.accuracy,
                        "roc_auc": s.roc_auc, "pr_auc": s.pr_auc, "mean_sl_loss": s.mean_sl_loss,
                        "q": s.q, "p": s.p, "f": s.f, "weight": s.weight,
                        "clamp_events": record.clamp_events})
            for record in records for s in record.clients
        ]
        assert text.endswith("\n")
        assert text.splitlines() == expected


class TestGridExpansion:
    def test_single_cell(self):
        assert harness.expand_grid({"seed": [0]}) == [{"seed": 0}]

    def test_table_shaped_grid_has_twelve_cells(self):
        cells = harness.expand_grid({
            "flags": harness.ablation_rows(),
            "noise_type": ["pairflip", "symmetric"],
        })
        assert len(cells) == 12

    def test_axis_aliases_map_to_config_paths(self):
        cells = harness.expand_grid({"mu": [0.1], "noise_type": ["symmetric"]})
        assert cells == [{"data.noise.rate": 0.1, "data.noise.kind": "symmetric"}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            harness.expand_grid({"seed": []})

    @pytest.mark.parametrize("axes", [
        {"mu": [0.1], "data.noise.rate": [0.3]},
        {"noise_type": ["symmetric"], "data.noise": [{"rate": 0.1}]},
        {"flags": [{"sl": True}], "flags.sl": [False]},
    ])
    def test_axes_that_set_one_key_are_rejected(self, axes):
        with pytest.raises(ConfigError, match="grid axes .* both set"):
            harness.expand_grid(axes)

    def test_axes_sharing_only_a_name_prefix_are_kept(self):
        cells = harness.expand_grid({"data.noise.rate": [0.1], "data.noise.random_range": [None]})
        assert cells == [{"data.noise.rate": 0.1, "data.noise.random_range": None}]


class TestRandomNoiseAssignment:
    def test_degenerate_range(self):
        rates = harness.random_noise_assignment(5, 0.2, 0.2, seed=0)
        assert all(r == 0.2 for r in rates)

    def test_same_seed_same_vector(self):
        a = harness.random_noise_assignment(10, 0.0, 0.5, seed=3)
        b = harness.random_noise_assignment(10, 0.0, 0.5, seed=3)
        assert a.tolist() == b.tolist()

    def test_draws_in_range_and_calibrated(self):
        import numpy as np

        means = []
        for seed in range(1000):
            draws = harness.random_noise_assignment(10, 0.0, 0.5, seed=seed)
            assert np.all((draws >= 0.0) & (draws <= 0.5))
            means.append(draws.mean())
        assert abs(np.mean(means) - 0.25) < 0.01

    def test_rates_recorded_in_run_meta(self, tmp_path):
        doc = small_doc(rounds=1,
                        data={"noise": {"kind": "symmetric", "rate": 0.0,
                                        "random_range": [0.0, 0.5]}})
        cfg = ExperimentConfig.from_dict(parse_config([], doc.items()))
        run_dir = harness.execute_run(cfg, tmp_path / "runs")
        meta = json.loads((run_dir / harness.META_FILE).read_text())
        assert len(meta["noise_rates"]) == 2
        assert all(0.0 <= r <= 0.5 for r in meta["noise_rates"])
        assert meta["noise_rates"] != [0.0, 0.0]


class TestScripts:
    def test_default_config_is_found_from_any_directory(self, tmp_path):
        """The scripts default to the repository's configs/base.json, and a
        --config given replaces that default rather than layering over it."""
        script = ROOT / "scripts" / "run_scaling.py"
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        (tmp_path / "own.json").write_text(json.dumps({"seed": 3, "strategy": "local_only"}))
        for extra, prefix in (([], "rhfl_plus_eccr_pairflip0.2_s0_"),
                              (["--config", "own.json"], "local_only_none0.0_s3_")):
            out = tmp_path / prefix
            done = subprocess.run(
                [sys.executable, str(script), "--clients", "2", "--rounds", "1",
                 "--out", out.name, *extra],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            runs = [run for run in out.iterdir() if run.name != "sweep_report.json"]
            assert [run.name.startswith(prefix) for run in runs] == [True]

    def test_random_noise_cells_match_each_cell_run_alone(self, tmp_path):
        """The script sweeps strategy x seed, so each seed's three cells run
        as one federation; every cell's files are those of the cell run
        alone, as the script ran each cell before it swept them."""
        script = ROOT / "scripts" / "run_random_noise.py"
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        done = subprocess.run(
            [sys.executable, str(script), "--clients", "2", "--rounds", "1",
             "--seeds", "0", "1", "--out", "out"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        strategies = ["local_only", "rhfl_plus_ccr", "rhfl_plus_eccr"]
        assert lines[0].startswith("per-client noise rates (seed 0): [")
        assert [line.split()[0] for line in lines[1:]] == strategies
        overrides = [
            "rounds=1", "data.clients=2", "data.shard_size=150", "data.per_class=800",
            "data.noise.kind=symmetric", "data.noise.random_range=[0.0,0.5]",
        ]
        base = ROOT / "configs" / "base.json"
        runs = sorted(p.name for p in (tmp_path / "out").iterdir() if p.is_dir())
        alone = []
        for strategy in strategies:
            for seed in (0, 1):
                cfg = ExperimentConfig.from_dict(
                    parse_config([base], overrides + [f"strategy={strategy}", f"seed={seed}"])
                )
                alone.append(harness.execute_run(cfg, tmp_path / "alone"))
        assert runs == sorted(run.name for run in alone)
        for run in alone:
            batched = tmp_path / "out" / run.name
            timing = json.loads((batched / harness.TIMING_FILE).read_text())
            assert timing["batch_cells"] == 3
            for name in (harness.ROUNDS_FILE, harness.CONFIG_FILE, harness.META_FILE,
                         harness.DONE_FILE):
                assert (batched / name).read_bytes() == (run / name).read_bytes()
