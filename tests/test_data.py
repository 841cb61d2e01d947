import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcoreset.data import (
    ClientChunk,
    Dataset,
    DatasetConfig,
    NoiseSpec,
    dirichlet_partition,
    inject_attribute,
    inject_closed_set,
    inject_open_set,
    load_dataset_csv,
    round_half_away,
    split_train_val_test,
)
from fedcoreset.errors import ConfigurationError
from worldgen import blobs, write_csv


def chunk_of(ds: Dataset) -> ClientChunk:
    return ClientChunk(ds, np.ones(ds.n, dtype=bool))


def row_multiset(ds: Dataset) -> list[tuple]:
    return sorted(map(tuple, np.column_stack([ds.features, ds.labels]).tolist()))


class TestDatasetSubset:
    def test_subset_is_the_gathered_rows(self):
        ds = blobs(3, 4, [1, 2, 3], 10, seed=0)
        idx = np.array([5, 0, 29, 5, 12])
        sub = ds.subset(idx)
        assert np.array_equal(sub.features, ds.features[idx])
        assert np.array_equal(sub.labels, ds.labels[idx])
        assert sub.num_classes == ds.num_classes
        assert sub.features.flags.c_contiguous and sub.labels.flags.c_contiguous
        assert sub.features.dtype == np.float64 and sub.labels.dtype == np.int64
        empty = ds.subset([])
        assert empty.n == 0 and empty.dim == ds.dim

    def test_construction_still_checks(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[0.0, np.nan]]), np.array([0]), 1)
        with pytest.raises(ValueError, match="vector"):
            blobs(2, 2, [1, 1], 3, seed=0).subset(np.zeros((2, 1), dtype=int))


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_half_away(0.5) == 1
        assert round_half_away(1.5) == 2
        assert round_half_away(2.5) == 3
        assert round_half_away(-0.5) == -1
        assert round_half_away(0.49) == 0
        assert round_half_away(4.0) == 4


class TestMakeBlobs:
    def test_benchmark_shape(self):
        ds = blobs(10, 10, np.linspace(1, 8, 10), 500, seed=0)
        assert ds.n == 5000
        assert ds.dim == 10
        assert ds.num_classes == 10
        assert np.array_equal(np.unique(ds.labels), np.arange(10))

    def test_zero_variance_collapses_to_centers(self):
        ds = blobs(2, 2, [0.0, 0.0], 5, seed=1)
        for c in range(2):
            rows = ds.features[ds.labels == c]
            assert np.all(rows == rows[0])

    def test_same_seed_bitwise_identical(self):
        a = blobs(3, 4, [1, 2, 3], 10, seed=7)
        b = blobs(3, 4, [1, 2, 3], 10, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            DatasetConfig(dim=0)
        with pytest.raises(ConfigurationError):
            DatasetConfig(num_blobs=2, stds=(1.0,))

    def test_blob_fields_checked_for_csv_kind(self):
        with pytest.raises(ConfigurationError, match="num_blobs"):
            DatasetConfig(kind="csv", csv_path="data.csv", num_blobs=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_config_groups_reject_non_finite_when_built(bad):
    # built directly, without an ExperimentConfig around them
    with pytest.raises(ConfigurationError, match=r"^dataset\.stds must be finite"):
        DatasetConfig(num_blobs=2, stds=(bad, 1.0))
    with pytest.raises(ConfigurationError, match=r"^noise\.severity must be finite"):
        NoiseSpec("attribute", 0.3, bad)
    with pytest.raises(ConfigurationError, match=r"^noise\.ratio must be in \[0, 1\]"):
        NoiseSpec("attribute", bad, 1.0)


class TestSplit:
    def test_zero_fractions_identity(self):
        ds = blobs(3, 2, [1, 1, 1], 20, seed=0)
        train, val, test = split_train_val_test(ds, 0.0, 0.0, seed=1)
        assert row_multiset(train) == row_multiset(ds)
        assert val.n == 0 and test.n == 0

    def test_fifteen_percent_test(self):
        ds = blobs(10, 3, np.ones(10), 100, seed=0)
        _, _, test = split_train_val_test(ds, 0.0, 0.15, seed=2)
        assert abs(test.n - 150) <= ds.num_classes

    def test_partition_property(self):
        ds = blobs(4, 2, np.ones(4), 25, seed=3)
        train, val, test = split_train_val_test(ds, 0.2, 0.3, seed=4)
        combined = row_multiset(train) + row_multiset(val) + row_multiset(test)
        assert sorted(combined) == row_multiset(ds)
        assert train.n + val.n + test.n == ds.n

    def test_stratified_val_covers_all_classes(self):
        ds = blobs(10, 2, np.ones(10), 50, seed=5)
        _, val, _ = split_train_val_test(ds, 0.1, 0.15, seed=6)
        assert set(np.unique(val.labels)) == set(range(10))


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        ds = blobs(3, 2, np.ones(3), 30, seed=0)
        chunks = dirichlet_partition(ds, 1, 0.4, seed=1)
        assert len(chunks) == 1
        assert row_multiset(chunks[0].dataset) == row_multiset(ds)
        assert chunks[0].clean_flags.all()

    def test_high_alpha_splits_evenly(self):
        # one class, 100 samples, alpha -> inf: each of 2 clients ~50
        ds = Dataset(np.random.default_rng(0).normal(size=(100, 2)), np.zeros(100, dtype=int), 1)
        sizes = []
        for seed in range(100):
            chunks = dirichlet_partition(ds, 2, 1e6, seed=seed)
            sizes.append(chunks[0].n)
            assert abs(chunks[0].n - 50) <= 5
        assert abs(np.mean(sizes) - 50) <= 1

    def test_low_alpha_skews(self):
        ds = blobs(10, 2, np.ones(10), 100, seed=2)
        chunks = dirichlet_partition(ds, 10, 0.4, seed=3)
        shares = []
        for c in chunks:
            if c.n == 0:
                continue
            counts = np.bincount(c.dataset.labels, minlength=10)
            shares.append(counts.max() / c.n)
        # with alpha=0.4 most clients are dominated by a few classes;
        # the uniform share would be 0.1
        assert np.mean(shares) > 0.25

    def test_partition_completeness(self):
        ds = blobs(5, 3, np.ones(5), 40, seed=4)
        chunks = dirichlet_partition(ds, 7, 0.4, seed=5)
        assert sum(c.n for c in chunks) == ds.n
        combined = []
        for c in chunks:
            combined.extend(row_multiset(c.dataset))
        assert sorted(combined) == row_multiset(ds)


class TestClosedSet:
    def test_ratio_zero_is_identity(self):
        chunk = chunk_of(blobs(3, 2, np.ones(3), 10, seed=0))
        out = inject_closed_set(chunk, NoiseSpec("closed_set", 0.0), seed=1)
        assert out.clean_flags.all()
        assert np.array_equal(out.dataset.labels, chunk.dataset.labels)

    def test_ratio_one_binary_toggles_everything(self):
        chunk = chunk_of(blobs(2, 2, [1, 1], 10, seed=0))
        out = inject_closed_set(chunk, NoiseSpec("closed_set", 1.0), seed=1)
        assert not out.clean_flags.any()
        assert np.array_equal(out.dataset.labels, 1 - chunk.dataset.labels)

    def test_exact_flip_count(self):
        ds = blobs(5, 2, np.ones(5), 2, seed=0)  # n = 10
        chunk = chunk_of(ds)
        out = inject_closed_set(chunk, NoiseSpec("closed_set", 0.4), seed=2)
        flipped = ~out.clean_flags
        assert flipped.sum() == 4
        assert np.all(out.dataset.labels[flipped] != chunk.dataset.labels[flipped])
        assert np.array_equal(out.dataset.features, chunk.dataset.features)

    def test_single_class_rejected(self):
        ds = Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int), 1)
        with pytest.raises(ConfigurationError):
            inject_closed_set(chunk_of(ds), NoiseSpec("closed_set", 0.5), seed=0)

    @given(ratio=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bookkeeping_and_validity(self, ratio, seed):
        chunk = chunk_of(blobs(4, 2, np.ones(4), 8, seed=11))
        out = inject_closed_set(chunk, NoiseSpec("closed_set", ratio), seed=seed)
        k = round_half_away(ratio * chunk.n)
        assert (~out.clean_flags).sum() == k
        changed = out.dataset.labels != chunk.dataset.labels
        assert np.array_equal(changed, ~out.clean_flags)


class TestOpenSet:
    def make_world(self, seed=0):
        ds = blobs(10, 3, np.ones(10), 30, seed=seed)
        train, val, test = split_train_val_test(ds, 0.1, 0.15, seed=seed + 1)
        chunks = dirichlet_partition(train, 4, 0.4, seed=seed + 2)
        return chunks, test, val

    def test_ratio_zero_identity(self):
        chunks, test, val = self.make_world()
        out_chunks, out_test, out_val, kept = inject_open_set(chunks, test, val, NoiseSpec("open_set", 0.0), seed=3)
        assert out_chunks is chunks and out_test is test and out_val is val
        assert np.array_equal(kept, np.arange(10))

    def test_forty_percent_removes_four(self):
        chunks, test, val = self.make_world()
        out_chunks, out_test, out_val, kept = inject_open_set(chunks, test, val, NoiseSpec("open_set", 0.4), seed=4)
        assert kept.size == 6
        for part in [out_test, out_val] + [c.dataset for c in out_chunks]:
            assert part.num_classes == 6
            if part.n:
                assert part.labels.max() < 6
        # every sample of a removed class is flagged noisy, count matches
        for before, after in zip(chunks, out_chunks):
            removed_mask = ~np.isin(before.dataset.labels, kept)
            assert np.array_equal(~after.clean_flags, removed_mask)

    def test_test_set_filtered(self):
        chunks, test, val = self.make_world()
        _, out_test, _, kept = inject_open_set(chunks, test, val, NoiseSpec("open_set", 0.4), seed=5)
        # remapped test labels correspond only to kept original classes
        assert out_test.n == int(np.isin(test.labels, kept).sum())

    @pytest.mark.parametrize("ratio, classes, removed", [(0.07, 100, 7), (0.14, 100, 14), (0.4, 10, 4)])
    def test_removed_count_is_ceiling_of_rounded_product(self, ratio, classes, removed):
        # 0.07 * 100 is 7.000000000000001 in floating point
        ds = blobs(classes, 2, np.ones(classes), 4, seed=7)
        train, val, test = split_train_val_test(ds, 0.25, 0.25, seed=8)
        chunks = dirichlet_partition(train, 2, 1.0, seed=9)
        _, _, _, kept = inject_open_set(chunks, test, val, NoiseSpec("open_set", ratio), seed=10)
        assert kept.size == classes - removed

    def test_removing_all_classes_rejected(self):
        chunks, test, val = self.make_world()
        with pytest.raises(ConfigurationError):
            inject_open_set(chunks, test, val, NoiseSpec("open_set", 1.0), seed=6)


class TestAttribute:
    def test_zero_severity_keeps_features(self):
        chunk = chunk_of(blobs(2, 3, [1, 1], 10, seed=0))
        out = inject_attribute(chunk, NoiseSpec("attribute", 0.5, 0.0), seed=1)
        assert np.array_equal(out.dataset.features, chunk.dataset.features)
        assert (~out.clean_flags).sum() == 10

    def test_ratio_zero_identity(self):
        chunk = chunk_of(blobs(2, 3, [1, 1], 10, seed=0))
        out = inject_attribute(chunk, NoiseSpec("attribute", 0.0, 5.0), seed=1)
        assert out.clean_flags.all()

    def test_variance_inflation(self):
        # std-1 blobs corrupted with severity 10 -> per-coordinate variance ~ 101
        ds = blobs(1, 5, [1.0], 4000, seed=2)
        out = inject_attribute(chunk_of(ds), NoiseSpec("attribute", 1.0, 10.0), seed=3)
        var = out.dataset.features.var(axis=0).mean()
        assert abs(var - 101.0) / 101.0 < 0.20

    def test_exact_corruption_count(self):
        chunk = chunk_of(blobs(2, 2, [1, 1], 15, seed=0))  # n = 30
        out = inject_attribute(chunk, NoiseSpec("attribute", 0.3, 1.0), seed=4)
        assert (~out.clean_flags).sum() == round_half_away(0.3 * 30)
        assert np.array_equal(out.dataset.labels, chunk.dataset.labels)


class TestDeterminism:
    @pytest.mark.parametrize("op", ["closed", "attribute"])
    def test_injectors_deterministic(self, op):
        chunk = chunk_of(blobs(4, 3, np.ones(4), 20, seed=0))
        if op == "closed":
            a = inject_closed_set(chunk, NoiseSpec("closed_set", 0.3), seed=9)
            b = inject_closed_set(chunk, NoiseSpec("closed_set", 0.3), seed=9)
        else:
            a = inject_attribute(chunk, NoiseSpec("attribute", 0.3, 2.0), seed=9)
            b = inject_attribute(chunk, NoiseSpec("attribute", 0.3, 2.0), seed=9)
        assert np.array_equal(a.dataset.labels, b.dataset.labels)
        assert np.array_equal(a.dataset.features, b.dataset.features)
        assert np.array_equal(a.clean_flags, b.clean_flags)

    def test_partition_deterministic(self):
        ds = blobs(3, 2, np.ones(3), 30, seed=0)
        a = dirichlet_partition(ds, 5, 0.4, seed=10)
        b = dirichlet_partition(ds, 5, 0.4, seed=10)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.dataset.features, cb.dataset.features)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = blobs(3, 4, [1, 2, 3], 10, seed=0)
        path = str(tmp_path / "ds.csv")
        write_csv(ds, path)
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header == "f0,f1,f2,f3,label"
        back = load_dataset_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.num_classes == ds.num_classes

    @pytest.mark.parametrize("label", ["1.7", "nan"])
    def test_non_integral_label_rejected(self, tmp_path, label):
        path = tmp_path / "ds.csv"
        path.write_text(f"f0,label\n0.5,0\n0.25,{label}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="ds.csv: labels must be integers"):
            load_dataset_csv(str(path))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("f0,label\n0.5,0\nnan,1\n", "features contain non-finite values"),
            ("f0,label\n0.5,0\n0.25,-1\n", "labels must lie in [0, num_classes)"),
            ("label\n0\n1\n", "feature dimension must be positive"),
            ("f0,label\n0.5,-1\n", "num_classes must be positive"),
            ("f0,f1,label\n1.0,0\n2.0,1\n", "rows have 2 columns, the header 3"),
            ("f0,label\n1.0,2.0,0\n", "rows have 3 columns, the header 2"),
        ],
        ids=[
            "nan_feature",
            "negative_label",
            "no_feature_column",
            "no_class",
            "rows_narrower_than_header",
            "rows_wider_than_header",
        ],
    )
    def test_rejected_rows_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "ds.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_dataset_csv(str(path))


class TestNoiseSpec:
    def test_validation(self):
        NoiseSpec("closed_set", 0.4)
        with pytest.raises(ConfigurationError):
            NoiseSpec("bogus", 0.1)
        with pytest.raises(ConfigurationError):
            NoiseSpec("closed_set", 1.5)
        with pytest.raises(ConfigurationError):
            NoiseSpec("attribute", 0.1, severity=-1.0)
