import csv
import json

import numpy as np
import pytest

from fedcoreset.data import ClientChunk, Dataset, NoiseSpec, inject_closed_set
from fedcoreset.federation import CostLedger
from fedcoreset.metrics import (
    ROUND_LOG_HEADER,
    SCHEMA_VERSION,
    RoundMetrics,
    coreset_composition,
    dataset_fingerprint,
    write_round_log,
    write_summary,
)
from fedcoreset.model import ARCHS, ModelConfig, evaluate_accuracy, init_params
from reference import reference_predictions
from worldgen import blobs


def zero_params(input_dim, num_classes):
    p = init_params(ModelConfig("softmax_regression"), input_dim, num_classes, seed=0)
    return p.with_values(np.zeros_like(p.values))


def oracle_cases(arch, rng):
    """Parameters by name: random, logits near 1e3, exact ties, NaN and
    overflowing.  The overflow cases set every hidden unit to tanh(1e3) = 1
    and are read on positive features, so each overflowing logit is
    infinite whatever order its terms are added in."""
    base = init_params(ModelConfig(arch, hidden_dim=7), 10, 10, seed=0)

    def drawn(scale=1.0):
        return base.with_values(rng.normal(scale=scale, size=base.values.size))

    def filled(value):
        return base.with_values(np.full(base.values.size, value))

    def saturated(p):
        hidden = p.blocks()[0]
        if hidden is not None:
            hidden[:, :-1] = 0.0
            hidden[:, -1] = 1e3
        return p

    cases = {
        "random": drawn(3.0),
        "logits_1e3": drawn(300.0),
        "zero_ties": filled(0.0),
        "all_nan": filled(np.nan),
        "all_inf": saturated(filled(1e308)),
        "nan_class_3": drawn(),
        "nan_first_param": drawn(),
        "plus_inf_class_1": saturated(drawn()),
        "minus_inf_class_0": saturated(drawn()),
    }
    cases["nan_class_3"].blocks()[1][3, 0] = np.nan
    cases["nan_first_param"].values[0] = np.nan
    cases["plus_inf_class_1"].blocks()[1][:2, :-1] = [[-1e308], [1e308]]
    cases["minus_inf_class_0"].blocks()[1][0, :-1] = -1e308
    return cases


class TestAccuracy:
    def test_constant_predictor_on_balanced_binary(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(100, 3)), np.repeat([0, 1], 50), 2)
        # zero params -> uniform probabilities -> argmax ties to class 0
        assert evaluate_accuracy(zero_params(3, 2), ds) == 0.5

    def test_perfect_separation(self):
        ds = Dataset(np.eye(3), np.arange(3), 3)
        p = zero_params(3, 3)
        p.blocks()[1][:, :3] = 30.0 * np.eye(3)
        assert evaluate_accuracy(p, ds) == 1.0

    def test_permutation_invariant(self):
        ds = blobs(3, 4, np.ones(3), 20, seed=1)
        p = init_params(ModelConfig("softmax_regression"), 4, 3, seed=2)
        rng = np.random.default_rng(3)
        perm = rng.permutation(ds.n)
        shuffled = Dataset(ds.features[perm], ds.labels[perm], 3)
        assert evaluate_accuracy(p, ds) == evaluate_accuracy(p, shuffled)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_predictions_match_softmax_oracle(self, arch):
        # labelled with the oracle's predictions, a set scores 1.0 exactly
        # when every prediction agrees
        rng = np.random.default_rng(5)
        x = np.abs(rng.normal(size=(200, 10))) + 0.1
        for name, params in oracle_cases(arch, rng).items():
            with np.errstate(over="ignore", invalid="ignore"):
                expect = reference_predictions(params, x)
                got = evaluate_accuracy(params, Dataset(x, expect, 10))
            if name in ("zero_ties", "all_nan", "all_inf"):
                assert np.all(expect == 0), name
            assert got == 1.0, name


class TestComposition:
    def test_all_clean_chunk(self):
        ds = blobs(2, 2, [1, 1], 10, seed=0)
        chunk = ClientChunk(ds, np.ones(ds.n, dtype=bool), 0)
        assert coreset_composition([(np.array([0, 3, 7]), chunk)]) == 1.0

    def test_empty_coreset_is_vacuously_clean(self):
        ds = blobs(2, 2, [1, 1], 10, seed=0)
        chunk = ClientChunk(ds, np.zeros(ds.n, dtype=bool), 0)
        assert coreset_composition([(np.empty(0, dtype=np.int64), chunk)]) == 1.0

    def test_counts_clean_flags(self):
        ds = blobs(4, 2, np.ones(4), 25, seed=1)
        chunk = ClientChunk(ds, np.ones(ds.n, dtype=bool), 0)
        noisy = inject_closed_set(chunk, NoiseSpec("closed_set", 0.4), seed=2)
        idx = np.arange(noisy.n)
        assert coreset_composition([(idx, noisy)]) == pytest.approx(
            noisy.clean_flags.mean()
        )

    def test_pools_over_pairs(self):
        ds = blobs(2, 2, [1, 1], 10, seed=0)
        flags = np.ones(ds.n, dtype=bool)
        flags[:3] = False
        one = ClientChunk(ds, flags, 0)
        two = ClientChunk(ds, np.ones(ds.n, dtype=bool), 1)
        pairs = [
            (np.array([0, 1, 2, 5]), one),  # 1 of 4 clean
            (np.empty(0, dtype=np.int64), one),
            (np.array([4, 9]), two),  # 2 of 2 clean
        ]
        # pooled 3/6, not the mean 0.625 of the per-pair fractions
        assert coreset_composition(pairs) == 0.5
        assert coreset_composition([]) == 1.0


def series_of(n, with_fraction=True):
    out = []
    ledger = CostLedger()
    for t in range(n):
        ledger.per_sample_grad_evals += 10
        ledger.sgd_sample_visits += 100
        ledger.params_broadcast += 110
        ledger.grads_broadcast += 11
        ledger.update_uploads += 110
        out.append(
            RoundMetrics(
                round=t,
                test_accuracy=0.1 + 0.8 * t / max(n, 1),
                mean_train_loss=2.302585093 / (t + 1),
                coreset_clean_fraction=(0.6 + 0.01 * t) if with_fraction else None,
                ledger_snapshot=ledger.snapshot(),
            )
        )
    return out


def read_log(path):
    """The round log's rows as dicts of numbers, None for an empty cell."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = [{k: float(v) if v else None for k, v in row.items()} for row in reader]
    assert reader.fieldnames == ROUND_LOG_HEADER.split(",")
    return rows


class TestRoundLog:
    def test_empty_series_header_only(self, tmp_path):
        path = str(tmp_path / "log.csv")
        write_round_log(path, [])
        with open(path, encoding="utf-8") as fh:
            content = fh.read()
        assert content == ROUND_LOG_HEADER + "\n"

    def test_row_count_and_rounds_increasing(self, tmp_path):
        path = str(tmp_path / "log.csv")
        write_round_log(path, series_of(7))
        rows = read_log(path)
        assert len(rows) == 7
        assert [r["round"] for r in rows] == list(range(7))

    def test_round_trip_fidelity(self, tmp_path):
        path = str(tmp_path / "log.csv")
        series = series_of(5)
        write_round_log(path, series)
        rows = read_log(path)
        for rm, row in zip(series, rows):
            assert abs(row["test_accuracy"] - rm.test_accuracy) <= 1e-9
            assert abs(row["coreset_clean_fraction"] - rm.coreset_clean_fraction) <= 1e-9
            # 9 significant digits: loss-scale values round-trip to ~1e-8
            assert abs(row["mean_train_loss"] - rm.mean_train_loss) <= 1e-8 * max(
                1.0, abs(rm.mean_train_loss)
            )
            assert row["grad_evals"] == rm.ledger_snapshot.per_sample_grad_evals
            assert row["sgd_visits"] == rm.ledger_snapshot.sgd_sample_visits

    def test_optional_fraction_blank(self, tmp_path):
        path = str(tmp_path / "log.csv")
        write_round_log(path, series_of(3, with_fraction=False))
        rows = read_log(path)
        assert all(r["coreset_clean_fraction"] is None for r in rows)

    def test_io_error_names_path(self, tmp_path):
        bogus = str(tmp_path / "no" / "such" / "dir" / "log.csv")
        with pytest.raises(OSError, match="log.csv"):
            write_round_log(bogus, [])


class TestSummary:
    def manifest(self):
        return {
            "config": {"rounds": 3},
            "version": "0.1.0",
            "seed": 7,
            "dataset_fingerprint": "ab" * 32,
        }

    def test_schema_version_present(self, tmp_path):
        path = str(tmp_path / "summary.json")
        write_summary(path, self.manifest(), {"gcfl": {"final_accuracy": 0.9}})
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["manifest"]["seed"] == 7

    def test_three_arm_summary_has_three_entries(self, tmp_path):
        path = str(tmp_path / "summary.json")
        arms = {
            "fedavg": {"final_accuracy": 0.5},
            "gcfl": {"final_accuracy": 0.8},
            "skyline": {"final_accuracy": 0.9},
        }
        write_summary(path, self.manifest(), arms, {"compute_cost_ratio_gcfl_vs_fedavg": 0.2})
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert len(payload["arms"]) == 3
        assert payload["comparisons"]["compute_cost_ratio_gcfl_vs_fedavg"] == 0.2


class TestFingerprint:
    def test_sensitive_to_any_field(self):
        ds = blobs(2, 2, [1, 1], 10, seed=0)
        chunk = ClientChunk(ds, np.ones(ds.n, dtype=bool), 0)
        base = dataset_fingerprint([chunk], ds, ds)
        flipped = ClientChunk(ds, np.zeros(ds.n, dtype=bool), 0)
        assert dataset_fingerprint([flipped], ds, ds) != base
        other = blobs(2, 2, [1, 1], 10, seed=1)
        assert dataset_fingerprint([chunk], other, ds) != base

    def test_validation_ranges(self):
        with pytest.raises(ValueError):
            RoundMetrics(0, 1.5, 0.0, None, CostLedger())
        with pytest.raises(ValueError):
            RoundMetrics(0, 0.5, 0.0, -0.2, CostLedger())
