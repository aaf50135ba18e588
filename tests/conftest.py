import numpy as np

from hetfed.config import ExperimentConfig, parse_config


def small_doc(**overrides) -> dict:
    """A fast desk-scale config document; overrides are deep-merged."""
    doc = {
        "seed": 0,
        "strategy": "local_only",
        "rounds": 2,
        "local_epochs": 1,
        "collab_epochs": 1,
        "batch_size": 16,
        "hyperparams": {"lr": 0.05},
        "data": {
            "classes": 3,
            "dims": 2,
            "per_class": 120,
            "spread": 0.5,
            "clients": 2,
            "shard_size": 40,
            "n_public": 20,
            "test_size": 60,
            "noise": {"kind": "pairflip", "rate": 0.2},
        },
        "archs": {"hidden_layers": [[8]]},
    }

    def merge(base, extra):
        for key, value in extra.items():
            if isinstance(value, dict) and isinstance(base.get(key), dict):
                merge(base[key], value)
            else:
                base[key] = value

    merge(doc, overrides)
    return doc


def small_cfg(**overrides) -> ExperimentConfig:
    return ExperimentConfig.from_dict(parse_config([], small_doc(**overrides).items()))


def kl_div(p, q) -> float:
    """Oracle KL(p || q) of two distributions, q clamped at 1e-12, 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    q = np.maximum(np.asarray(q, dtype=np.float64), 1e-12)
    if p.shape != q.shape:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    return float(sum(pi * (np.log(pi) - np.log(qi)) for pi, qi in zip(p, q) if pi > 0))


def record_dicts(result):
    """The lines the JSONL writer writes of RoundRecords."""
    from hetfed.harness import _round_lines

    return _round_lines(result).splitlines()
