"""Hand-built data worlds with exactly controlled chunk sizes, for tests
that check counter arithmetic, blobs built from loose values, and CSV
files of a dataset."""

import numpy as np

from fedcoreset.data import ClientChunk, Dataset, DatasetConfig, make_blobs
from fedcoreset.federation import Prepared
from fedcoreset.metrics import dataset_fingerprint


def blobs(num_blobs, dim, stds, samples_per_blob, seed):
    """``make_blobs`` of the blob config with these fields."""
    dc = DatasetConfig(num_blobs=num_blobs, dim=dim, stds=tuple(map(float, stds)), samples_per_blob=samples_per_blob)
    return make_blobs(dc, seed)


def write_csv(ds: Dataset, path) -> None:
    """``ds`` as CSV with header ``f0..f{d-1},label``; the features are
    written with 17 significant digits, so they read back exactly."""
    header = ",".join([f"f{j}" for j in range(ds.dim)] + ["label"])
    table = np.column_stack([ds.features, ds.labels])
    fmt = ["%.17g"] * ds.dim + ["%d"]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")


def balanced_world(num_clients=10, per_class_per_client=10, dim=6, num_classes=10, seed=0):
    """Prepared world where every client holds exactly
    per_class_per_client samples of every class, plus balanced val/test."""
    per_blob = per_class_per_client * num_clients + 20
    ds = blobs(num_classes, dim, np.ones(num_classes), per_blob, seed=seed)
    rng = np.random.default_rng(seed + 1)
    chunk_idx: list[list[int]] = [[] for _ in range(num_clients)]
    val_idx, test_idx = [], []
    for c in range(num_classes):
        idx = np.flatnonzero(ds.labels == c)
        rng.shuffle(idx)
        val_idx.extend(idx[:10])
        test_idx.extend(idx[10:20])
        rest = idx[20:]
        for i in range(num_clients):
            chunk_idx[i].extend(rest[i * per_class_per_client : (i + 1) * per_class_per_client])
    chunks = [
        ClientChunk(ds.subset(np.array(ix)), np.ones(len(ix), dtype=bool)) for ix in chunk_idx
    ]
    val, test = ds.subset(np.array(val_idx)), ds.subset(np.array(test_idx))
    return Prepared(
        chunks=chunks,
        val=val,
        test=test,
        fingerprint=dataset_fingerprint(chunks, val, test),
    )


def sized_world(sizes, num_classes=4, dim=5, seed=0):
    """Prepared world where client i holds exactly ``sizes[i]`` samples (0
    allowed), about a quarter of them flagged noisy, plus 10 validation and
    10 test samples of every class."""
    per_blob = -(-sum(sizes) // num_classes) + 20
    ds = blobs(num_classes, dim, np.ones(num_classes), per_blob, seed=seed)
    rng = np.random.default_rng(seed + 1)
    val_idx, test_idx, rest = [], [], []
    for c in range(num_classes):
        idx = rng.permutation(np.flatnonzero(ds.labels == c))
        val_idx.extend(idx[:10])
        test_idx.extend(idx[10:20])
        rest.extend(idx[20:])
    rest = rng.permutation(rest)
    bounds = np.cumsum([0, *sizes])
    chunks = [
        ClientChunk(ds.subset(rest[a:b]), rng.random(b - a) >= 0.25)
        for a, b in zip(bounds, bounds[1:])
    ]
    val, test = ds.subset(np.array(val_idx)), ds.subset(np.array(test_idx))
    return Prepared(
        chunks=chunks,
        val=val,
        test=test,
        fingerprint=dataset_fingerprint(chunks, val, test),
    )
