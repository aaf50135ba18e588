import json

import pytest

from hetfed.config import (
    ExperimentConfig,
    SEED_ENV_VAR,
    apply_overrides,
    load_config,
    parse_config,
    parse_set_override,
)
from hetfed.errors import ConfigError


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLayering:
    def test_later_file_overrides_earlier(self, tmp_path):
        base = write(tmp_path, "base.json",
                     {"seed": 0, "strategy": "local_only",
                      "hyperparams": {"lr": 0.001}})
        overlay = write(tmp_path, "overlay.json", {"hyperparams": {"lr": 0.0001}})
        resolved = parse_config([base, overlay])
        assert resolved["hyperparams"]["lr"] == 0.0001
        assert resolved["hyperparams"]["gamma"] == 0.9  # untouched default

    def test_cli_override_beats_files(self, tmp_path):
        base = write(tmp_path, "base.json",
                     {"seed": 0, "strategy": "local_only",
                      "data": {"noise": {"kind": "pairflip", "rate": 0.1}}})
        resolved = parse_config([base], overrides=["data.noise.rate=0.2"])
        assert resolved["data"]["noise"]["rate"] == 0.2

    def test_missing_strategy_named(self, tmp_path):
        base = write(tmp_path, "base.json", {"seed": 0})
        with pytest.raises(ConfigError, match="strategy"):
            parse_config([base])

    def test_unknown_key_names_key_and_file(self, tmp_path):
        base = write(tmp_path, "base.json",
                     {"seed": 0, "strategy": "local_only", "bogus": 1})
        with pytest.raises(ConfigError, match=r"bogus.*base\.json"):
            parse_config([base])

    def test_unknown_nested_key(self, tmp_path):
        base = write(tmp_path, "base.json",
                     {"seed": 0, "strategy": "local_only",
                      "data": {"noise": {"kindd": "pairflip"}}})
        with pytest.raises(ConfigError, match="data.noise.kindd"):
            parse_config([base])

    def test_type_mismatch_rejected(self, tmp_path):
        base = write(tmp_path, "base.json",
                     {"seed": "zero", "strategy": "local_only"})
        with pytest.raises(ConfigError, match="seed"):
            parse_config([base])

    def test_bad_choice_rejected(self, tmp_path):
        base = write(tmp_path, "base.json", {"seed": 0, "strategy": "sgd"})
        with pytest.raises(ConfigError, match="strategy"):
            parse_config([base])

    def test_env_seed_is_lowest_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "7")
        base = write(tmp_path, "base.json", {"strategy": "local_only"})
        assert parse_config([base])["seed"] == 7
        with_seed = write(tmp_path, "seeded.json",
                          {"seed": 3, "strategy": "local_only"})
        assert parse_config([with_seed])["seed"] == 3


class TestOverrides:
    def test_int_in_a_float_key_becomes_a_float(self):
        """However a document is resolved, a float key holds a float, so one
        experiment echoes, hashes and names its run one way."""
        base = parse_config([], {"seed": 0, "strategy": "local_only"}.items())
        for doc in (apply_overrides(base, [("data.noise.rate", 0)], "<grid>"),
                    apply_overrides(base, [("data", {"noise": {"rate": 0}})], "<grid>"),
                    parse_config([], [*base.items(), ("data.noise.rate", 0)])):
            assert repr(doc["data"]["noise"]["rate"]) == "0.0"
        assert repr(base["data"]["noise"]["rate"]) == "0.0"
        assert apply_overrides(base, [("rounds", 3)], "<grid>")["rounds"] == 3

    def test_input_document_is_not_changed(self):
        base = parse_config([], {"seed": 0, "strategy": "local_only"}.items())
        before = json.dumps(base, sort_keys=True)
        apply_overrides(base, [("data.noise.rate", 0), ("data", {"clients": 3})], "<grid>")
        assert json.dumps(base, sort_keys=True) == before


class TestOverrideParsing:
    def test_json_values(self):
        assert parse_set_override("rounds=5") == ("rounds", 5)
        assert parse_set_override("flags.hfl=true") == ("flags.hfl", True)
        assert parse_set_override("data.noise.rate=0.25") == ("data.noise.rate", 0.25)
        key, value = parse_set_override("archs.hidden_layers=[[4],[8]]")
        assert value == [[4], [8]]

    def test_bare_strings(self):
        assert parse_set_override("strategy=fedavg") == ("strategy", "fedavg")

    def test_malformed(self):
        with pytest.raises(ConfigError):
            parse_set_override("no-equals-sign")


class TestExperimentConfig:
    def test_strategy_presets_fill_flags(self):
        cfg = ExperimentConfig.from_dict(
            parse_config([], {"seed": 0, "strategy": "rhfl_plus_ccr"}.items())
        )
        assert cfg.federation.flags.hfl and cfg.federation.flags.sl and cfg.federation.flags.dlr
        assert cfg.federation.flags.reweight == "ccr"

    def test_explicit_flags_override_presets(self):
        cfg = ExperimentConfig.from_dict(
            parse_config([], {"seed": 0, "strategy": "rhfl_plus_eccr",
                              "flags": {"dlr": False}}.items())
        )
        assert cfg.federation.flags.dlr is False
        assert cfg.federation.flags.reweight == "eccr"

    def test_echo_contains_resolved_flags(self):
        cfg = ExperimentConfig.from_dict(
            parse_config([], {"seed": 0, "strategy": "rhfl"}.items())
        )
        doc = cfg.echoed
        assert doc["flags"] == {"hfl": True, "sl": True, "dlr": False, "reweight": "ccr"}

    def test_echo_round_trips(self, tmp_path):
        base = write(tmp_path, "base.json",
                     {"seed": 5, "strategy": "rhfl_plus_eccr", "rounds": 3})
        cfg = load_config([base])
        echoed = write(tmp_path, "echo.json", cfg.echoed)
        cfg2 = load_config([echoed])
        assert cfg2.echoed == cfg.echoed

    def test_invalid_noise_range(self):
        with pytest.raises(ConfigError, match="range"):
            ExperimentConfig.from_dict(
                parse_config([], {"seed": 0, "strategy": "local_only",
                                  "data": {"noise": {"random_range": [0.5, 0.1]}}}.items())
            )

    def test_architecture_without_hidden_layer(self):
        cfg = ExperimentConfig.from_dict(
            parse_config([], {"seed": 0, "strategy": "local_only",
                              "archs": {"hidden_layers": [[]]}}.items())
        )
        assert cfg.hidden_layers == ((),)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(["/no/such/file.json"])

    def test_identity_is_worked_out_once(self):
        cfg = ExperimentConfig.from_dict(
            parse_config([], {"seed": 3, "strategy": "rhfl", "data.noise.kind": "symmetric",
                              "data.noise.rate": 0.2}.items())
        )
        assert cfg.echoed is cfg.echoed and cfg.digest is cfg.digest
        assert cfg.run_name == f"rhfl_symmetric0.2_s3_{cfg.digest}"
        assert len(cfg.digest) == 12 and int(cfg.digest, 16) >= 0
