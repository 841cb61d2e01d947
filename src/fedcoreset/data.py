"""Synthetic datasets, non-IID client partitioning, and noise injectors,
with the ``DatasetConfig`` and ``NoiseSpec`` groups that drive them.

Every operation is a pure function of its explicit inputs and an integer
seed: calling it twice with the same arguments returns bitwise-identical
arrays.  Injectors return new objects and record ground truth in
``clean_flags`` so downstream metrics can measure how much corruption a
selection algorithm avoided.

Sample counts derived from a ratio use round-half-away-from-zero
(``round_half_away``) so that counts are reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "Dataset",
    "ClientChunk",
    "DatasetConfig",
    "NoiseSpec",
    "NOISE_KINDS",
    "round_half_away",
    "make_blobs",
    "split_train_val_test",
    "dirichlet_partition",
    "inject_closed_set",
    "inject_open_set",
    "inject_attribute",
    "load_dataset_csv",
]

NOISE_KINDS = ("none", "closed_set", "open_set", "attribute")

CENTER_LOW, CENTER_HIGH = -10.0, 10.0  # blob centers drawn uniform in this box


def round_half_away(x: float) -> int:
    """Round with ties going away from zero: 0.5 -> 1, 1.5 -> 2, 2.5 -> 3."""
    if x >= 0:
        return int(math.floor(x + 0.5))
    return -int(math.floor(-x + 0.5))


@dataclass(frozen=True)
class Dataset:
    """A feature matrix with integer class labels.

    ``n == 0`` is permitted (splits and skewed partitions can legitimately
    produce empty datasets); the round engine and the pre-flight keep them
    from the operations that need rows.
    """

    features: np.ndarray  # [n, d] float64
    labels: np.ndarray  # [n] int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if labels.shape != feats.shape[:1]:
            raise ValueError("labels must be a vector aligned with features")
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d [n, d] matrix")
        if feats.shape[1] < 1:
            raise ValueError("feature dimension must be positive")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite values")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """The rows at ``indices``, a vector."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)


@dataclass(frozen=True)
class ClientChunk:
    """One client's private shard plus ground-truth corruption flags."""

    dataset: Dataset
    clean_flags: np.ndarray  # [n] bool, True = untouched by injectors
    client_id: int

    def __post_init__(self) -> None:
        flags = np.ascontiguousarray(np.asarray(self.clean_flags, dtype=bool))
        object.__setattr__(self, "clean_flags", flags)
        if flags.shape != (self.dataset.n,):
            raise ValueError("clean_flags must have one entry per sample")
        if self.client_id < 0:
            raise ValueError("client_id must be non-negative")

    @property
    def n(self) -> int:
        return self.dataset.n


def _fresh_chunk(ds: Dataset, client_id: int) -> ClientChunk:
    return ClientChunk(ds, np.ones(ds.n, dtype=bool), client_id)


@dataclass(frozen=True)
class DatasetConfig:
    """Where the data comes from: Gaussian blobs or a CSV file.

    The blob fields are checked whatever ``kind`` is, so every
    ``DatasetConfig`` can build its blobs.
    """

    kind: str = "blobs"  # blobs | csv
    num_blobs: int = 10
    dim: int = 10
    stds: tuple[float, ...] = ()  # empty -> linspace(1, 8, num_blobs)
    samples_per_blob: int = 500
    csv_path: str = ""

    def resolved_stds(self) -> np.ndarray:
        if self.stds:
            return np.asarray(self.stds, dtype=np.float64)
        return np.linspace(1.0, 8.0, self.num_blobs)

    def __post_init__(self) -> None:
        if self.kind not in ("blobs", "csv"):
            raise ConfigurationError(f"dataset.kind must be blobs or csv, got {self.kind!r}")
        if self.kind == "csv" and not self.csv_path:
            raise ConfigurationError("dataset.csv_path is required when dataset.kind = csv")
        if self.num_blobs < 1:
            raise ConfigurationError("dataset.num_blobs must be >= 1")
        if self.dim < 1:
            raise ConfigurationError("dataset.dim must be >= 1")
        if self.samples_per_blob < 1:
            raise ConfigurationError("dataset.samples_per_blob must be >= 1")
        if self.stds and len(self.stds) != self.num_blobs:
            raise ConfigurationError(
                "dataset.stds must have one entry per blob "
                f"({len(self.stds)} given for {self.num_blobs} blobs)"
            )
        # nan and inf pass the sign check, so reject them first
        if not all(math.isfinite(std) for std in self.stds):
            raise ConfigurationError(f"dataset.stds must be finite, got {self.stds}")
        if any(std < 0 for std in self.stds):
            raise ConfigurationError("dataset.stds must be non-negative")


@dataclass(frozen=True)
class NoiseSpec:
    """Which injector to run and how hard.

    ``severity`` only applies to attribute noise (the std of the additive
    Gaussian feature corruption).
    """

    kind: str = "none"
    ratio: float = 0.0
    severity: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ConfigurationError(
                f"noise.kind must be one of {NOISE_KINDS}, got {self.kind!r}"
            )
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigurationError(f"noise.ratio must be in [0, 1], got {self.ratio}")
        if not math.isfinite(self.severity):
            raise ConfigurationError(f"noise.severity must be finite, got {self.severity}")
        if self.severity < 0.0:
            raise ConfigurationError(
                f"noise.severity must be non-negative, got {self.severity}"
            )


def make_blobs(dc: DatasetConfig, seed: int) -> Dataset:
    """Isotropic Gaussian blobs, one class per blob.

    Centers are drawn uniformly in [-10, 10]^dim from ``seed``; blob ``j``
    then contributes ``samples_per_blob`` points N(center_j, stds[j]^2 I)
    labeled ``j``.
    """
    stds = dc.resolved_stds()
    rng = np.random.default_rng(seed)
    centers = rng.uniform(CENTER_LOW, CENTER_HIGH, size=(dc.num_blobs, dc.dim))
    parts = []
    for j in range(dc.num_blobs):
        noise = rng.standard_normal(size=(dc.samples_per_blob, dc.dim))
        parts.append(centers[j] + stds[j] * noise)
    features = np.concatenate(parts, axis=0)
    labels = np.repeat(np.arange(dc.num_blobs, dtype=np.int64), dc.samples_per_blob)
    return Dataset(features, labels, dc.num_blobs)


def split_train_val_test(
    ds: Dataset, val_frac: float, test_frac: float, seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint stratified split into (train, val, test).

    Per class, ``round_half_away(frac * n_class)`` samples go to test and
    val respectively; the rest stay in train, so split sizes are within
    one sample per class of the requested fractions, which
    ``ExperimentConfig`` keeps non-negative and summing below 1.
    """
    rng = np.random.default_rng(seed)
    train_idx, val_idx, test_idx = [], [], []
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        rng.shuffle(idx)
        n_c = idx.size
        n_test = round_half_away(test_frac * n_c)
        n_val = round_half_away(val_frac * n_c)
        test_idx.append(idx[:n_test])
        val_idx.append(idx[n_test : n_test + n_val])
        train_idx.append(idx[n_test + n_val :])

    def gather(parts: list[np.ndarray]) -> Dataset:
        idx = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        return ds.subset(idx)

    return gather(train_idx), gather(val_idx), gather(test_idx)


def dirichlet_partition(
    ds: Dataset, num_clients: int, alpha: float, seed: int
) -> list[ClientChunk]:
    """Split ``ds`` across clients with Dirichlet(alpha) class proportions.

    For each class a proportion vector over clients is sampled from a
    symmetric Dirichlet; smaller alpha yields more skew.  Chunk sizes sum
    to ``ds.n`` exactly.  A client may end up with zero samples; downstream
    code must tolerate empty chunks.  ``ExperimentConfig`` keeps
    ``num_clients >= 1`` and ``alpha > 0``.
    """
    rng = np.random.default_rng(seed)
    per_client: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        rng.shuffle(idx)
        props = rng.dirichlet(np.full(num_clients, alpha))
        # cumulative-floor boundaries preserve the class total exactly
        bounds = np.floor(np.cumsum(props)[:-1] * idx.size).astype(np.int64)
        for i, part in enumerate(np.split(idx, bounds)):
            per_client[i].append(part)

    chunks = []
    for i in range(num_clients):
        idx = (
            np.concatenate(per_client[i])
            if per_client[i]
            else np.empty(0, dtype=np.int64)
        )
        chunks.append(_fresh_chunk(ds.subset(idx), i))
    return chunks


def inject_closed_set(chunk: ClientChunk, noise: NoiseSpec, seed: int) -> ClientChunk:
    """Flip the labels of round(ratio * n) samples to a uniform other class."""
    if noise.ratio == 0.0 or chunk.n == 0:
        return chunk
    num_classes = chunk.dataset.num_classes
    if num_classes < 2:
        raise ConfigurationError("closed-set noise needs at least two classes")

    rng = np.random.default_rng(seed)
    k = round_half_away(noise.ratio * chunk.n)
    flip = rng.choice(chunk.n, size=k, replace=False)
    labels = chunk.dataset.labels.copy()
    # uniform over the other num_classes - 1 labels
    draw = rng.integers(0, num_classes - 1, size=k)
    labels[flip] = draw + (draw >= labels[flip])
    flags = chunk.clean_flags.copy()
    flags[flip] = False
    ds = Dataset(chunk.dataset.features, labels, num_classes)
    return ClientChunk(ds, flags, chunk.client_id)


def inject_open_set(
    train_chunks: list[ClientChunk],
    test: Dataset,
    val: Dataset,
    noise: NoiseSpec,
    seed: int,
) -> tuple[list[ClientChunk], Dataset, Dataset, np.ndarray]:
    """Mark ceil(ratio * |Y|) classes irrelevant and shrink the task.

    Training samples of removed classes keep their features but get a
    uniformly random surviving label (and clean_flags False); test and val
    are filtered to surviving classes.  All labels are remapped into the
    compact range [0, |Y'|).  Returns the new chunks, test, val and the
    original ids of the surviving classes; all share ``test.num_classes``.
    """
    num_classes = test.num_classes

    # rounded first, so a product like 0.07 * 100 = 7.000000000000001 is 7
    n_remove = math.ceil(round(noise.ratio * num_classes, 9))
    if n_remove == 0:
        return train_chunks, test, val, np.arange(num_classes, dtype=np.int64)
    if n_remove >= num_classes:
        raise ConfigurationError(
            f"open-set ratio {noise.ratio} removes all {num_classes} classes"
        )

    rng = np.random.default_rng(seed)
    removed = rng.choice(num_classes, size=n_remove, replace=False)
    kept = np.setdiff1d(np.arange(num_classes), removed)
    remap = np.full(num_classes, -1, dtype=np.int64)
    remap[kept] = np.arange(kept.size)

    new_chunks = []
    for chunk in train_chunks:
        labels = chunk.dataset.labels
        noisy = ~np.isin(labels, kept)
        new_labels = np.where(noisy, 0, remap[labels])
        n_noisy = int(noisy.sum())
        if n_noisy:
            new_labels[noisy] = rng.integers(0, kept.size, size=n_noisy)
        flags = chunk.clean_flags & ~noisy
        ds = Dataset(chunk.dataset.features, new_labels, int(kept.size))
        new_chunks.append(ClientChunk(ds, flags, chunk.client_id))

    def filter_remap(part: Dataset) -> Dataset:
        keep_mask = np.isin(part.labels, kept)
        return Dataset(
            part.features[keep_mask], remap[part.labels[keep_mask]], int(kept.size)
        )

    return new_chunks, filter_remap(test), filter_remap(val), kept.astype(np.int64)


def inject_attribute(chunk: ClientChunk, noise: NoiseSpec, seed: int) -> ClientChunk:
    """Add severity * N(0, I) to the features of round(ratio * n) samples."""
    if noise.ratio == 0.0 or chunk.n == 0:
        return chunk

    rng = np.random.default_rng(seed)
    k = round_half_away(noise.ratio * chunk.n)
    hit = rng.choice(chunk.n, size=k, replace=False)
    features = chunk.dataset.features.copy()
    features[hit] += noise.severity * rng.standard_normal(size=(k, chunk.dataset.dim))
    flags = chunk.clean_flags.copy()
    flags[hit] = False
    ds = Dataset(features, chunk.dataset.labels, chunk.dataset.num_classes)
    return ClientChunk(ds, flags, chunk.client_id)


def load_dataset_csv(path: str) -> Dataset:
    """Read a dataset from CSV with header ``f0..f{d-1},label``, one class
    per label up to the largest; header, row, label and ``Dataset`` errors
    name the file, and every row must be as wide as the header."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if not header or header[-1] != "label":
            raise ValueError(f"{path}: expected trailing 'label' column")
        try:
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if rows.size == 0:
        raise ValueError(f"{path}: no data rows")
    if rows.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {rows.shape[1]} columns, the header {len(header)}")
    features = rows[:, :-1]
    labels = rows[:, -1]
    if not np.all(np.isfinite(labels) & (labels == np.round(labels))):
        raise ValueError(f"{path}: labels must be integers")
    labels = labels.astype(np.int64)
    try:
        return Dataset(features, labels, int(labels.max()) + 1)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
