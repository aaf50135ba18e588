"""Streams seeded from one stream_seeds pass start exactly where NumPy's
own seeding, np.random.default_rng(key), starts them, and a world built
from them equals one built stream by stream."""

from pathlib import Path

import numpy as np
import pytest

from hetfed import data, harness, nn
from hetfed.config import ExperimentConfig, parse_config

ROOT = Path(__file__).resolve().parent.parent
BASE = ROOT / "configs" / "base.json"
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3]
# The experiment seed's stream tags, as documented in the README.
BLOBS, TEST, PUBLIC, PARTITION, RATES, NOISE, INIT, TRAIN = range(1, 9)


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_start_as_default_rng(seed):
    prefixes = [(seed, tag) for tag in range(1, 10)] + [(seed,)]
    seeds = harness.stream_seeds(prefixes, 300)
    assert [len(row) for row in seeds] == [300] * 10
    for prefix, row in zip(prefixes, seeds):
        for k, stream in enumerate(row):
            ours, ref = np.random.default_rng(stream), np.random.default_rng((*prefix, k))
            assert ours.bit_generator.state == ref.bit_generator.state, (*prefix, k)
            assert ours.random() == ref.random()
            assert ours.integers(1 << 62) == ref.integers(1 << 62)


def test_each_generator_is_fresh():
    [[seed]] = harness.stream_seeds([(3, TRAIN)], 1)
    first, second = np.random.default_rng(seed), np.random.default_rng(seed)
    assert first.random() == second.random()
    assert first.bit_generator.state == second.bit_generator.state


def reference_world(cfg: ExperimentConfig):
    """The world's (features, labels, flipped, rates, params, rng) per
    client, seeding every stream with its own np.random.default_rng."""
    d, seed = cfg.data, cfg.seed
    base = data.gen_blobs(d["classes"], d["dims"], d["per_class"], d["spread"], (seed, BLOBS))
    _, rest = data.random_split(base, d["test_size"], (seed, TEST))
    if cfg.federation.flags.hfl:
        _, rest = data.random_split(rest, d["n_public"], (seed, PUBLIC))
    shards = data.partition(
        rest, d["scheme"], d["clients"], d["shard_size"], (seed, PARTITION), d["concentration"]
    )
    noise = d["noise"]
    rates = [noise["rate"]] * d["clients"]
    if noise["random_range"] is not None:
        lo, hi = noise["random_range"]
        rates = (lo + (hi - lo) * np.random.default_rng((seed, RATES)).random(d["clients"])).tolist()
    fedavg = cfg.federation.strategy == "fedavg"
    for k, rows in enumerate(shards):
        labels, flipped = data.apply_noise(
            rest.labels[rows], base.class_count, noise["kind"], rates[k], (seed, NOISE, k)
        )
        hidden = cfg.hidden_layers[k % len(cfg.hidden_layers)]
        widths = (d["dims"], *hidden, d["classes"])
        params = nn.init_params(
            tuple(zip(widths[:-1], widths[1:])), (seed, INIT) if fedavg else (seed, INIT, k)
        )
        yield (rest.features[rows], labels, flipped, rates[k], params,
               np.random.default_rng((seed, TRAIN, k)))


WORLDS = {
    "fleet100": [
        "strategy=rhfl_plus_eccr", "data.per_class=2500", "data.clients=100",
        "data.shard_size=60", "data.n_public=100", "data.test_size=500",
        "archs.hidden_layers=[[12]]",
    ],
    "fedavg": ["strategy=fedavg", "archs.hidden_layers=[[16]]"],
    "symmetric_random_rates": [
        "strategy=local_only", "data.noise.kind=symmetric", "data.noise.random_range=[0.2,0.6]",
    ],
}


@pytest.mark.parametrize("seed", [0, 2**64 + 3])
@pytest.mark.parametrize("name", list(WORLDS))
def test_world_equals_the_per_client_reference(name, seed):
    cfg = ExperimentConfig.from_dict(parse_config([BASE], [*WORLDS[name], f"seed={seed}"]))
    world = harness.build_world(cfg)
    reference = list(reference_world(cfg))
    assert len(world.clients) == len(reference) == cfg.data["clients"]
    for k, (client, (features, labels, flipped, rate, params, rng)) in enumerate(
        zip(world.clients, reference)
    ):
        assert client.client_id == k
        assert np.array_equal(world.features[k], features)
        assert np.array_equal(world.labels[k], labels)
        assert np.array_equal(world.flipped[k], flipped)
        assert world.noise_rates[k] == rate
        assert client.params.layer_dims == params.layer_dims
        assert client.params.values.tobytes() == params.values.tobytes()
        assert client.rng.bit_generator.state == rng.bit_generator.state
