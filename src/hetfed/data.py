"""Dataset construction, ingestion, partitioning, and label-noise injection.

Datasets are immutable once built (arrays are frozen), so every phase
reads the test set and the public pool without copying them. A partition
gives each client's shard as a row of indices into one pool, and noise
injection maps one client's labels to its noisy labels and the mask of
the ones it flipped.
"""

import csv
import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IngestError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

NOISE_KINDS = ("symmetric", "pairflip", "none")
PARTITION_SCHEMES = ("iid-equal", "label-skew")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with integer class labels in [0, class_count)."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or labels.ndim != 1 or feats.shape[0] != labels.size:
            raise ConfigError("features must be N x d with one label per row")
        if feats.shape[0] == 0:
            raise ConfigError("dataset must be non-empty")
        if not np.all(np.isfinite(feats)):
            raise ConfigError("features must be finite")
        if labels.min() < 0 or labels.max() >= self.class_count:
            raise ConfigError(f"labels must lie in [0, {self.class_count})")
        object.__setattr__(self, "features", _freeze(feats))
        object.__setattr__(self, "labels", _freeze(labels))

    @property
    def size(self) -> int:
        return self.labels.size

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.class_count)


def gen_blobs(classes: int, dims: int, per_class: int, spread: float, seed) -> Dataset:
    """Gaussian clusters, one per class, on a deterministic layout.

    Centroids sit on the simplex vertices when dims >= classes, on the unit
    circle in the first two coordinates when dims >= 2, and evenly spaced
    on a line for dims == 1.
    """
    if classes < 2:
        raise ConfigError("need at least two classes")
    if per_class < 1 or dims < 1:
        raise ConfigError("per_class and dims must be positive")
    if spread < 0:
        raise ConfigError("spread must be non-negative")
    centroids = np.zeros((classes, dims))
    if dims >= classes:
        centroids[np.arange(classes), np.arange(classes)] = 1.0
    elif dims >= 2:
        angles = 2.0 * np.pi * np.arange(classes) / classes
        centroids[:, 0] = np.cos(angles)
        centroids[:, 1] = np.sin(angles)
    else:
        centroids[:, 0] = np.linspace(-1.0, 1.0, classes)
    rng = np.random.default_rng(seed)
    features = np.empty((classes * per_class, dims))
    labels = np.repeat(np.arange(classes), per_class)
    for c in range(classes):
        block = slice(c * per_class, (c + 1) * per_class)
        features[block] = centroids[c] + spread * rng.standard_normal((per_class, dims))
    return Dataset(features, labels, classes)


def _read_exact(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IngestError(f"{path}: cannot read: {exc.strerror or exc}") from None


def load_idx(images_path: str, labels_path: str, class_count: int) -> Dataset:
    """Load a big-endian IDX image/label file pair; pixels scaled to [0, 1],
    then centred on each pixel's mean over the file.

    Labels must lie in [0, class_count); the error for one that does not
    names its byte offset in the label file.
    """
    raw = _read_exact(images_path)
    if len(raw) < 16:
        raise IngestError(f"{images_path}: truncated header at byte {len(raw)}")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise IngestError(f"{images_path}: bad magic 0x{magic:08x} at byte 0")
    expected = 16 + count * rows * cols
    if len(raw) < expected:
        raise IngestError(
            f"{images_path}: truncated payload at byte {len(raw)}, expected {expected}"
        )
    features = (
        np.frombuffer(raw, dtype=np.uint8, count=count * rows * cols, offset=16)
        .reshape(count, rows * cols)
        .astype(np.float64)
        / 255.0
    )

    raw_l = _read_exact(labels_path)
    if len(raw_l) < 8:
        raise IngestError(f"{labels_path}: truncated header at byte {len(raw_l)}")
    magic_l, count_l = struct.unpack(">II", raw_l[:8])
    if magic_l != IDX_LABEL_MAGIC:
        raise IngestError(f"{labels_path}: bad magic 0x{magic_l:08x} at byte 0")
    if len(raw_l) < 8 + count_l:
        raise IngestError(
            f"{labels_path}: truncated payload at byte {len(raw_l)}, expected {8 + count_l}"
        )
    labels = np.frombuffer(raw_l, dtype=np.uint8, count=count_l, offset=8).astype(np.int64)
    if count != count_l:
        raise IngestError(
            f"image count {count} does not match label count {count_l}"
        )
    bad = np.flatnonzero(labels >= class_count)
    if bad.size:
        raise IngestError(
            f"{labels_path}: label {labels[bad[0]]} >= {class_count} at item {bad[0]} "
            f"(byte {8 + bad[0]})"
        )
    return Dataset(features - features.mean(axis=0), labels, class_count)


def load_csv(path: str, class_count: int) -> Dataset:
    """Load `label,f0,f1,...` rows; features min-max scaled per column,
    then centred on the column's mean over the file."""
    try:
        reader = csv.reader(io.StringIO(_read_exact(path).decode(), newline=""))
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: byte {exc.start}: not valid UTF-8") from None
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError(f"{path}: empty file") from None
    width = len(header) - 1
    expected = ["label"] + [f"f{i}" for i in range(width)]
    if [h.strip() for h in header] != expected:
        raise IngestError(f"{path}: line 1: header must be {','.join(expected)}")
    rows = []
    labels = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width + 1:
            raise IngestError(f"{path}: line {lineno}: expected {width + 1} fields")
        try:
            label = int(row[0])
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise IngestError(f"{path}: line {lineno}: {exc}") from None
        bad = [field for field, v in zip(row[1:], values) if not math.isfinite(v)]
        if bad:
            raise IngestError(f"{path}: line {lineno}: feature {bad[0]!r} is not finite")
        if not 0 <= label < class_count:
            raise IngestError(
                f"{path}: line {lineno}: label {label} outside [0, {class_count})"
            )
        labels.append(label)
        rows.append(values)
    if not rows:
        raise IngestError(f"{path}: no data rows")
    features = np.asarray(rows, dtype=np.float64)
    lo, hi = features.min(axis=0), features.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
    j = int(np.argmin(np.isfinite(span)))  # the first column whose span overflows, if any
    if not np.isfinite(span[j]):
        raise IngestError(f"{path}: column f{j} spans {lo[j]:g} to {hi[j]:g}, too wide to scale")
    span[span == 0] = 1.0
    features = (features - lo) / span
    return Dataset(features - features.mean(axis=0), np.asarray(labels), class_count)


def partition(
    ds: Dataset, scheme: str, clients: int, shard_size: int, seed, concentration=None
) -> np.ndarray:
    """Each client's disjoint shard of shard_size rows, as a (clients,
    shard_size) array whose row k holds client k's row indices, ascending.
    label-skew draws each client's class mix from a Dirichlet of the given
    concentration."""
    if scheme not in PARTITION_SCHEMES:
        raise ConfigError(f"unknown partition scheme {scheme!r}")
    if clients < 1:
        raise ConfigError("client_count must be at least 1")
    if shard_size < 1:
        raise ConfigError("shard_size must be at least 1")
    if scheme == "label-skew" and (concentration is None or concentration <= 0):
        raise ConfigError("label-skew requires a positive concentration")
    rng = np.random.default_rng(seed)
    n = ds.size
    k, size = clients, shard_size
    if k * size > n:
        raise ConfigError(f"requested {k * size} samples but dataset has {n}")

    if scheme == "iid-equal":
        return np.sort(rng.permutation(n)[: k * size].reshape(k, size), axis=1)

    # label-skew: each client draws a Dirichlet class mix and fills its
    # quota from per-class pools, spilling to whatever classes remain.
    pools = [rng.permutation(np.flatnonzero(ds.labels == c)).tolist() for c in range(ds.class_count)]
    shards = np.empty((k, size), dtype=np.int64)
    for shard in shards:
        mix = rng.dirichlet(np.full(ds.class_count, concentration))
        want = np.floor(mix * size).astype(int)
        remainder = size - want.sum()
        if remainder:
            extra = np.argsort(-(mix * size - want), kind="mergesort")[:remainder]
            want[extra] += 1
        taken = []
        for c in range(ds.class_count):
            grab = min(want[c], len(pools[c]))
            taken.extend(pools[c][:grab])
            del pools[c][:grab]
        deficit = size - len(taken)
        while deficit > 0:
            richest = max(range(ds.class_count), key=lambda c: len(pools[c]))
            if not pools[richest]:
                raise ConfigError("not enough samples to honor the partition sizes")
            grab = min(deficit, len(pools[richest]))
            taken.extend(pools[richest][:grab])
            del pools[richest][:grab]
            deficit -= grab
        shard[:] = np.sort(taken)
    return shards


def apply_noise(labels: np.ndarray, class_count: int, kind: str, rate, seed):
    """One client's labels, or a (K, S) stack of them with seed[k] and
    rate or rate[k] for row k -> (noisy labels, mask of the flipped ones).

    Each label flips with probability rate: to a uniform other class
    (symmetric) or to the next class, cyclically (pairflip). A row draws
    its flips, then (symmetric) its offsets; kind "none" keeps every label
    and draws nothing.
    """
    if kind not in NOISE_KINDS:
        raise ConfigError(f"unknown noise kind {kind!r}")
    rates = np.asarray(rate, dtype=np.float64).reshape(-1, 1)
    if not np.all((0.0 <= rates) & (rates <= 1.0)):
        raise ConfigError(f"noise rate must lie in [0, 1], got {rate}")
    if kind == "none":
        return labels.copy(), np.zeros(labels.shape, dtype=bool)
    if class_count < 2:
        raise ConfigError(f"{kind} noise needs at least two classes")
    stack, seeds = (labels, seed) if labels.ndim == 2 else (labels[np.newaxis], [seed])
    draws = np.empty(stack.shape)
    shift = np.ones(stack.shape, dtype=np.int64) if kind == "symmetric" else 1
    for row, rng in zip(range(len(stack)), map(np.random.default_rng, seeds), strict=True):
        rng.random(out=draws[row])
        if kind == "symmetric":
            shift[row] = rng.integers(1, class_count, size=stack.shape[1])
    flip = draws < rates
    noisy = np.where(flip, (stack + shift) % class_count, stack)
    return noisy.reshape(labels.shape), flip.reshape(labels.shape)


def random_split(ds: Dataset, take: int, seed) -> tuple[Dataset, Dataset | None]:
    """Uniform sample without replacement plus the disjoint remainder."""
    if take <= 0:
        raise ConfigError("split size must be positive")
    if take > ds.size:
        raise ConfigError(f"cannot take {take} samples from {ds.size}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.size)
    taken = ds.subset(perm[:take])
    rest = ds.subset(np.sort(perm[take:])) if take < ds.size else None
    return taken, rest
