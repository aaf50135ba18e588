"""Layered experiment configuration.

Configs are JSON documents merged in order (base, then dataset overlays,
then command-line ``key=value`` overrides); later sources win per key.
Every key is checked against a schema as soon as its source is read, so
error messages can name both the offending key and where it came from.
The fully resolved document is echoed into each run directory and can be
fed back in unchanged to reproduce the run.
"""

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from functools import cached_property

from . import nn
from .data import NOISE_KINDS, PARTITION_SCHEMES
from .errors import ConfigError
from .protocol import STRATEGIES, StrategyConfig, resolve_flags
from .reweight import REWEIGHT_MODES

SEED_ENV_VAR = "HETFED_SEED"

DATA_SOURCES = ("blobs", "idx", "csv")

_MISSING = object()


@dataclass(frozen=True)
class _Field:
    kind: type | tuple
    default: object = _MISSING
    required: bool = False
    choices: tuple | None = None


# Leaf types are checked loosely: ints are accepted where floats are
# expected, and None is allowed whenever the default is None.
SCHEMA = {
    "seed": _Field(int, required=True),
    "strategy": _Field(str, required=True, choices=STRATEGIES),
    "rounds": _Field(int, 10),
    "local_epochs": _Field(int, 1),
    "collab_epochs": _Field(int, 1),
    "batch_size": _Field(int, 32),
    "participation": _Field(float, 1.0),
    "hyperparams": {
        "lambda": _Field(float, 0.4),
        "gamma": _Field(float, 0.9),
        "temperature": _Field(float, 4.0),
        "lr": _Field(float, 0.001),
        "zeta": _Field(float, 10.0),
        "eta_conf": _Field(float, 1.2),
        "rce_log_floor": _Field(float, -4.0),
    },
    "flags": {
        "hfl": _Field(bool, None),
        "sl": _Field(bool, None),
        "dlr": _Field(bool, None),
        "reweight": _Field(str, None, choices=REWEIGHT_MODES),
    },
    "data": {
        "source": _Field(str, "blobs", choices=DATA_SOURCES),
        "classes": _Field(int, 3),
        "dims": _Field(int, 2),
        "per_class": _Field(int, 800),
        "spread": _Field(float, 0.55),
        "idx_images": _Field(str, None),
        "idx_labels": _Field(str, None),
        "csv_path": _Field(str, None),
        "clients": _Field(int, 4),
        "shard_size": _Field(int, 400),
        "scheme": _Field(str, "iid-equal", choices=PARTITION_SCHEMES),
        "concentration": _Field(float, None),
        "n_public": _Field(int, 150),
        "test_size": _Field(int, 600),
        "noise": {
            "kind": _Field(str, "none", choices=NOISE_KINDS),
            "rate": _Field(float, 0.0),
            "random_range": _Field(list, None),
        },
    },
    "archs": {
        "hidden_layers": _Field(list, ((16,), (24,), (32,), (8,))),
    },
}


def _checked(doc: dict, schema: dict, source: str, path: str = "") -> dict:
    """A copy of doc, its keys checked against the schema, its leaves as _check_leaf gives them."""
    out = {}
    for key, value in doc.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown key {here!r} in {source}")
        node = schema[key]
        if isinstance(node, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"key {here!r} in {source} must be an object")
            out[key] = _checked(value, node, source, here)
        else:
            out[key] = _check_leaf(value, node, here, source)
    return out


def _check_leaf(value, field: _Field, path: str, source: str):
    """value checked, as a float where a float is expected and as a list where a list is."""
    if value is None:
        if field.default is None:
            return None
        raise ConfigError(f"key {path!r} in {source} may not be null")
    kind = field.kind
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is list and isinstance(value, tuple):
        value = list(value)
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"key {path!r} in {source} must be an integer")
    if not isinstance(value, kind):
        raise ConfigError(
            f"key {path!r} in {source} must be {getattr(kind, '__name__', kind)}"
        )
    if field.choices is not None and value not in field.choices:
        raise ConfigError(
            f"key {path!r} in {source} must be one of {list(field.choices)}"
        )
    return value


def _deep_merge(base: dict, overlay: dict) -> dict:
    out = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _fill_defaults(doc: dict, schema: dict, path: str = "") -> dict:
    out = {}
    for key, node in schema.items():
        here = f"{path}.{key}" if path else key
        if isinstance(node, dict):
            out[key] = _fill_defaults(doc.get(key, {}), node, here)
        elif key in doc:
            out[key] = doc[key]
        elif node.required:
            raise ConfigError(f"missing required key {here!r}")
        else:
            default = node.default
            if isinstance(default, tuple):
                default = json.loads(json.dumps([list(v) for v in default]))
            out[key] = default
    return out


def parse_set_override(item: str) -> tuple[str, object]:
    """Parse one ``dotted.key=value`` override; value is JSON when it parses."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} must look like key=value")
    key, raw = item.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"override {item!r} has an empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _nest(dotted: str, value) -> dict:
    parts = dotted.split(".")
    doc: dict = {parts[-1]: value}
    for part in reversed(parts[:-1]):
        doc = {part: doc}
    return doc


def apply_overrides(doc: dict, items, source: str) -> dict:
    """doc with every override merged in, in order; doc itself is not changed.

    An item is a ``dotted.key=value`` string or a (dotted key, value) pair.
    Each key is checked against the schema, and errors name `source`.
    """
    for item in items:
        key, value = parse_set_override(item) if isinstance(item, str) else item
        doc = _deep_merge(doc, _checked(_nest(key, value), SCHEMA, source))
    return doc


def read_json(path, what: str):
    """The JSON document in the file at path; errors name it `what` (say, "grid file")."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} {path} cannot be read: {exc}") from None


def parse_config(paths, overrides=()) -> dict:
    """Merge config files in order, apply overrides, and resolve defaults.

    Returns the fully resolved plain-dict document (the form that is
    hashed, echoed to the run directory, and accepted back as input).
    """
    merged: dict = {}
    for path in paths:
        doc = read_json(path, "config file")
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        merged = _deep_merge(merged, _checked(doc, SCHEMA, str(path)))
    merged = apply_overrides(merged, overrides, "<cli>")
    if "seed" not in merged and SEED_ENV_VAR in os.environ:
        try:
            merged["seed"] = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from None
    return _fill_defaults(merged, SCHEMA)


@dataclass(frozen=True)
class ExperimentConfig:
    """A resolved document, checked, as a run reads it. data is the
    document's data section, with the noise rate as a float and its random
    range as a (lo, hi) pair of floats or None."""

    seed: int
    federation: StrategyConfig
    data: dict
    hidden_layers: tuple[tuple[int, ...], ...]
    resolved: dict

    @staticmethod
    def from_dict(resolved: dict) -> "ExperimentConfig":
        hp_doc = resolved["hyperparams"]
        hp = nn.Hyperparams(
            lam=hp_doc["lambda"],
            gamma=hp_doc["gamma"],
            temperature=hp_doc["temperature"],
            lr=hp_doc["lr"],
            zeta=hp_doc["zeta"],
            eta_conf=hp_doc["eta_conf"],
            rce_log_floor=hp_doc["rce_log_floor"],
        )
        flag_doc = {k: v for k, v in resolved["flags"].items() if v is not None}
        flags = resolve_flags(resolved["strategy"], flag_doc)
        noise_doc = resolved["data"]["noise"]
        rng_range = noise_doc["random_range"]
        if rng_range is not None:
            if len(rng_range) != 2 or not all(
                isinstance(r, (int, float)) and not isinstance(r, bool) for r in rng_range
            ):
                raise ConfigError("noise.random_range must be [lo, hi]")
            lo, hi = float(rng_range[0]), float(rng_range[1])
            if not 0.0 <= lo <= hi <= 1.0:
                raise ConfigError(f"invalid noise range [{lo}, {hi}]")
            if noise_doc["kind"] == "none":
                raise ConfigError(
                    "noise.random_range needs noise.kind symmetric or pairflip, not none"
                )
            rng_range = (lo, hi)
        noise = {**noise_doc, "rate": float(noise_doc["rate"]), "random_range": rng_range}
        data = {**resolved["data"], "noise": noise}
        hidden = resolved["archs"]["hidden_layers"]
        if not hidden:
            raise ConfigError("archs.hidden_layers must list at least one architecture")
        for layer in hidden:
            if not isinstance(layer, (list, tuple)) or not all(
                isinstance(w, int) and not isinstance(w, bool) and w > 0 for w in layer
            ):
                raise ConfigError(
                    f"archs.hidden_layers entry {layer!r} must be a list of positive integer widths"
                )
        hidden = tuple(tuple(layer) for layer in hidden)
        if resolved["seed"] < 0:
            raise ConfigError("seed must be non-negative")
        federation = StrategyConfig(
            strategy=resolved["strategy"],
            rounds=resolved["rounds"],
            local_epochs=resolved["local_epochs"],
            collab_epochs=resolved["collab_epochs"],
            batch_size=resolved["batch_size"],
            hyperparams=hp,
            flags=flags,
            participation=resolved["participation"],
        )
        return ExperimentConfig(resolved["seed"], federation, data, hidden, resolved)

    @cached_property
    def echoed(self) -> dict:
        """resolved_config.json: a copy of resolved, flags made explicit. Shared; do not change."""
        doc = json.loads(json.dumps(self.resolved))
        doc["flags"] = asdict(self.federation.flags)
        return doc

    @cached_property
    def digest(self) -> str:
        """The first 12 hex digits of the SHA-256 of echoed as compact JSON, keys sorted."""
        blob = json.dumps(self.echoed, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    @cached_property
    def run_name(self) -> str:
        """The run directory's name, spelled from the echoed document."""
        doc = self.echoed
        noise = doc["data"]["noise"]
        rate = noise["rate"] if noise["random_range"] is None else "rand"
        return f"{doc['strategy']}_{noise['kind']}{rate}_s{doc['seed']}_{self.digest}"


def load_config(paths, overrides=()) -> ExperimentConfig:
    return ExperimentConfig.from_dict(parse_config(paths, overrides))
