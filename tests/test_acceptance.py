"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  The empirical margins (0.05 accuracy, 0.10 clean
fraction) were frozen after a 20-seed calibration pilot, ``fedcoreset sweep
--param seed --values $(seq -s, 0 19)`` on the blob benchmark flags (README,
"Experiments"); the learning rates of the blob benchmark live in
fedcoreset.presets.
"""

from itertools import combinations

import numpy as np
import pytest

from fedcoreset.config import DatasetConfig, ExperimentConfig
from fedcoreset.coreset import omp_select
from fedcoreset.data import Dataset
from fedcoreset.federation import (
    Algo,
    aggregate,
    compute_cost_ratio,
    prepare_experiment,
    run_training,
)
from fedcoreset.model import (
    ModelConfig,
    init_params,
    labelwise_validation_grads,
    last_layer_grad_stack,
    loss,
    sgd_epochs,
)
from fedcoreset.seeding import derive_seed
from worldgen import balanced_world, blobs

ACCURACY_MARGIN = 0.05  # gcfl over fedavg, mean of 5 seeds
CLEAN_FRACTION_MARGIN = 0.10  # gcfl coreset over random coreset
SEEDS = (0, 1, 2, 3, 4)  # the seeds of the benchmark_runs fixture (conftest.py)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


class TestCriterion1BenchmarkOrdering:
    def test_ordering_with_margin(self, benchmark_runs):
        acc = {
            kind: np.mean([benchmark_runs[s][kind].final_accuracy for s in SEEDS])
            for kind in ("fedavg", "gcfl", "skyline")
        }
        ok = acc["skyline"] >= acc["gcfl"] and acc["gcfl"] >= acc["fedavg"] + ACCURACY_MARGIN
        report(
            "criterion 1: skyline >= gcfl >= fedavg + 0.05 (5-seed means)",
            ok,
            f"fedavg={acc['fedavg']:.3f} gcfl={acc['gcfl']:.3f} skyline={acc['skyline']:.3f}",
        )

    def test_runtime_budget(self, benchmark_runs):
        elapsed = benchmark_runs["elapsed"]
        report(
            "criterion 1: runtime under 2 minutes",
            elapsed < 120.0,
            f"{elapsed:.1f}s for 5 seeds x 4 arms",
        )


class TestCriterion2CoresetComposition:
    def test_clean_fraction_margin(self, benchmark_runs):
        def final_fraction(kind):
            return np.mean(
                [benchmark_runs[s][kind].rounds[-1].coreset_clean_fraction for s in SEEDS]
            )

        gcfl, rand = final_fraction("gcfl"), final_fraction("random")
        ok = gcfl >= rand + CLEAN_FRACTION_MARGIN
        report(
            "criterion 2: gcfl clean fraction >= random + 0.10",
            ok,
            f"gcfl={gcfl:.3f} random={rand:.3f} (random expected near 0.60)",
        )


class TestCriterion3ComputeRatio:
    def test_exact_counter_ratio(self):
        # balanced 100-sample clients make round(0.1 * n_i) exact
        prepared = balanced_world(num_clients=10, per_class_per_client=10)
        cfg = ExperimentConfig(
            dataset=DatasetConfig(num_blobs=10, dim=6, samples_per_blob=120),
            num_clients=10,
            rounds=20,
            refresh_period=10,
            budget_fraction=0.1,
            local_epochs=1,
            local_lr=0.1,
            global_lr=1.0,
        )
        gcfl = run_training(cfg, Algo("gcfl"), prepared)
        fedavg = run_training(cfg, Algo("fedavg"), prepared)
        ratio = compute_cost_ratio(gcfl.ledger, fedavg.ledger)
        report(
            "criterion 3: compute_cost_ratio(gcfl, fedavg) == 0.2 exactly",
            ratio == 0.2,
            f"ratio={ratio!r} (sgd={gcfl.ledger.sgd_sample_visits}, "
            f"sel={gcfl.ledger.per_sample_grad_evals}, "
            f"fedavg={fedavg.ledger.sgd_sample_visits})",
        )


class TestCriterion4CommunicationOverhead:
    def test_amortized_overhead_and_broadcast_size(self):
        num_classes, dim, k, rounds, m = 10, 10, 10, 20, 4
        prepared = balanced_world(
            num_clients=m, per_class_per_client=10, dim=dim, num_classes=num_classes
        )
        cfg = ExperimentConfig(
            dataset=DatasetConfig(num_blobs=num_classes, dim=dim, samples_per_blob=60),
            num_clients=m,
            rounds=rounds,
            refresh_period=k,
            budget_fraction=0.1,
            local_lr=0.1,
            global_lr=1.0,
        )
        result = run_training(cfg, Algo("gcfl"), prepared)
        led = result.ledger
        h1 = dim + 1  # softmax regression: penultimate width = input dim
        theta_size = num_classes * h1  # 110
        refreshes = 1 + (rounds - 1) // k
        amortized = led.grads_broadcast / (rounds * m)
        ok = (
            led.grads_broadcast == refreshes * m * num_classes * h1
            and amortized == num_classes * h1 / k
            and led.params_broadcast == rounds * m * theta_size
        )
        report(
            "criterion 4: amortized extra broadcast = |Y|(h+1)/K values",
            ok,
            f"amortized={amortized:g} values/round/client vs |theta|={theta_size} "
            f"({100 * amortized / theta_size:.0f}% relative)",
        )

    def test_labelwise_broadcast_equals_plain_size(self):
        ds = blobs(10, 10, np.ones(10), 30, seed=0)
        params = init_params(ModelConfig("softmax_regression"), 10, 10, seed=1)
        rows = labelwise_validation_grads(params, ds)
        labelwise_size = sum(r.size for r in rows.values())
        plain_size = last_layer_grad_stack(params, ds)[0].size
        report(
            "criterion 4: label-wise broadcast equals plain last-layer size",
            labelwise_size == plain_size,
            f"{labelwise_size} == {plain_size}",
        )


class TestCriterion5OmpSuite:
    def test_residual_monotonicity_1000_instances(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(5, 30))
            d = int(rng.integers(3, 12))
            budget = int(rng.integers(1, min(n, 10) + 1))
            cands = rng.normal(size=(n, d))
            target = rng.normal(size=d)
            cs = omp_select(cands, target, budget=budget, lam=0.0)
            norms = cs.residual_norms
            for a, b in zip(norms, norms[1:]):
                worst = max(worst, b - a)
        report(
            "criterion 5: residual-norm monotonicity on 1000 random instances",
            worst <= 1e-10,
            f"max increase {worst:.2e}",
        )

    def test_exact_recovery_of_planted_subsets(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        failures = 0
        for _ in range(100):
            n, d = 12, 16
            k = int(rng.integers(1, 6))
            basis, _ = np.linalg.qr(rng.normal(size=(d, n)))
            cands = basis.T[:n]
            support = rng.choice(n, size=k, replace=False)
            coeffs = rng.uniform(0.5, 2.0, size=k)
            target = coeffs @ cands[support]
            cs = omp_select(cands, target, budget=k, lam=0.0)
            if set(cs.indices) != set(support):
                failures += 1
                continue
            got = {int(i): w for i, w in zip(cs.indices, cs.weights)}
            worst = max(worst, max(abs(got[int(i)] - c) for i, c in zip(support, coeffs)))
        report(
            "criterion 5: exact recovery of orthogonal planted subsets",
            failures == 0 and worst <= 1e-8,
            f"{failures} support misses, worst coefficient error {worst:.2e}",
        )

    def test_weight_solve_matches_ridge_oracle(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for lam in (0.0, 0.1, 0.5):
            for _ in range(100):
                cands = rng.normal(size=(15, 6))
                target = rng.normal(size=6)
                cs = omp_select(cands, target, budget=5, lam=lam)
                cols = cands[cs.indices].T
                k = cols.shape[1]
                if lam > 0:
                    aug = np.vstack([cols, np.sqrt(lam) * np.eye(k)])
                    rhs = np.concatenate([target, np.zeros(k)])
                else:
                    aug, rhs = cols, target
                oracle, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
                oracle = np.maximum(oracle, 0.0)
                worst = max(worst, float(np.abs(cs.weights - oracle).max()))
        report(
            "criterion 5: weights match ridge least-squares oracle on support",
            worst <= 1e-8,
            f"worst deviation {worst:.2e}",
        )

    def test_greedy_against_exhaustive_enumeration(self):
        def weighted_error(cols, target, lam):
            k = cols.shape[1]
            aug = np.vstack([cols, np.sqrt(lam) * np.eye(k)]) if lam > 0 else cols
            rhs = np.concatenate([target, np.zeros(k)]) if lam > 0 else target
            w, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
            return lam * float(w @ w) + float(np.sum((cols @ w - target) ** 2))

        rng = np.random.default_rng(3)
        violations = 0
        for lam in (0.0, 0.1):
            for _ in range(100):
                n = int(rng.integers(4, 9))
                budget = int(rng.integers(1, 4))
                cands = rng.normal(size=(n, 4))
                target = rng.normal(size=4)
                cs = omp_select(cands, target, budget=budget, lam=lam)
                greedy = weighted_error(cands[cs.indices].T, target, lam)
                best = min(
                    weighted_error(cands[list(sub)].T, target, lam)
                    for kk in range(1, budget + 1)
                    for sub in combinations(range(n), kk)
                )
                if greedy < best - 1e-9:
                    violations += 1
        report(
            "criterion 5: greedy error >= exhaustive best-subset error (n<=8, b<=3)",
            violations == 0,
            f"{violations} violations over 200 instances",
        )


class TestCriterion6GradientSuite:
    def test_finite_difference_oracle_100_cases(self):
        step = 1e-5
        worst = 0.0
        rng = np.random.default_rng(4)
        for arch, hidden in (("softmax_regression", 0), ("one_hidden", 7)):
            model = ModelConfig(arch, hidden_dim=hidden)
            for case in range(50):
                ds = Dataset(
                    rng.normal(size=(1, 8)), rng.integers(0, 5, size=1), 5
                )
                params = init_params(model, 8, 5, seed=int(rng.integers(1 << 30)))
                params.values[:] = rng.normal(scale=0.6, size=params.values.size)
                analytic = last_layer_grad_stack(params, ds)[0]
                fd = np.zeros(analytic.shape)
                for i in range(fd.size):
                    hi = params.with_values(params.values.copy())
                    lo = params.with_values(params.values.copy())
                    hi.blocks()[1].flat[i] += step
                    lo.blocks()[1].flat[i] -= step
                    fd.flat[i] = (loss(hi, ds) - loss(lo, ds)) / (2 * step)
                denom = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-12)
                worst = max(worst, float(np.abs(analytic - fd).max() / denom))
        report(
            "criterion 6: analytic vs central-difference gradients (100 cases)",
            worst < 1e-5,
            f"max relative error {worst:.2e}",
        )


class TestCriterion7ProtocolSuite:
    def test_aggregation_permutation_invariance(self):
        rng = np.random.default_rng(5)
        p0 = init_params(ModelConfig("softmax_regression"), 4, 3, seed=0).with_values(rng.normal(size=15))
        deltas = rng.normal(size=(9, 15))
        base = aggregate(p0, deltas, 0.7).values
        exact = all(
            np.array_equal(base, aggregate(p0, deltas[rng.permutation(9)], 0.7).values)
            for _ in range(20)
        )
        report("criterion 7: aggregation permutation invariance (exact)", exact)

    def test_single_client_fedavg_equals_centralized(self):
        cfg = ExperimentConfig(
            dataset=DatasetConfig(num_blobs=4, dim=4, samples_per_blob=40),
            num_clients=1,
            rounds=10,
            local_epochs=1,
            local_lr=0.1,
            global_lr=1.0,
            batch_size=10_000,
            val_frac=0.1,
            test_frac=0.2,
            seed=6,
        )
        prepared = prepare_experiment(cfg)
        fed = run_training(cfg, Algo("fedavg"), prepared)
        theta = init_params(
            ModelConfig("softmax_regression"),
            prepared.test.dim,
            prepared.test.num_classes,
            derive_seed(cfg.seed, "init"),
        )
        ds = prepared.chunks[0].dataset
        for t in range(cfg.rounds):
            (values,) = sgd_epochs(
                theta, [ds], epochs=1, lr=0.1, batch_size=10_000,
                seeds=[derive_seed(cfg.seed, "client", 0, "round", t)],
            )
            theta = theta.with_values(values)
        gap = float(np.abs(fed.final_params.values - theta.values).max())
        report(
            "criterion 7: single-client fedavg == centralized SGD (<=1e-12)",
            gap <= 1e-12,
            f"max deviation {gap:.2e} over 10 rounds",
        )

    def test_full_run_determinism_byte_identical_csvs(self, tmp_path):
        from fedcoreset.cli import main

        cfg_text = """
[experiment]
num_clients = 4
rounds = 3
refresh_period = 2
budget_fraction = 0.25
local_lr = 0.1
global_lr = 1.0
arms = fedavg, gcfl
seed = 9

[dataset]
num_blobs = 4
dim = 4
samples_per_blob = 40

[noise]
kind = closed_set
ratio = 0.4
"""
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(cfg_text, encoding="utf-8")
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(["run", "--config", str(cfg_path), "--output_dir", str(out1)]) == 0
        assert main(["run", "--config", str(cfg_path), "--output_dir", str(out2)]) == 0
        same = all(
            (out1 / name).read_bytes() == (out2 / name).read_bytes()
            for name in ("fedavg.csv", "gcfl.csv")
        )
        report("criterion 7: byte-identical CSVs across two invocations", same)

    def test_coreset_refresh_count(self):
        prepared = balanced_world(num_clients=3, per_class_per_client=4, num_classes=5)
        n_total = sum(c.n for c in prepared.chunks)
        ok = True
        details = []
        for rounds, k in [(10, 1), (10, 3), (10, 10), (7, 2), (1, 5)]:
            cfg = ExperimentConfig(
                dataset=DatasetConfig(num_blobs=5, dim=6, samples_per_blob=32),
                num_clients=3,
                rounds=rounds,
                refresh_period=k,
                budget_fraction=0.25,
                local_lr=0.1,
                global_lr=1.0,
            )
            result = run_training(cfg, Algo("gcfl"), prepared)
            events = result.ledger.per_sample_grad_evals // n_total
            expect = 1 + (rounds - 1) // k
            ok &= events == expect
            details.append(f"T={rounds},K={k}: {events}=={expect}")
        report("criterion 7: refresh count = 1 + floor((T-1)/K)", ok, "; ".join(details))


class TestCriterion8PrivacySurface:
    def test_client_boundary_carries_only_gradient_rows(self, monkeypatch):
        import fedcoreset.federation as federation

        cfg = ExperimentConfig(
            dataset=DatasetConfig(num_blobs=4, dim=4, samples_per_blob=40),
            num_clients=3,
            rounds=2,
            refresh_period=1,
            budget_fraction=0.3,
            local_lr=0.1,
            global_lr=1.0,
            seed=10,
        )
        prepared = prepare_experiment(cfg)
        captured = []
        real = federation.labelwise_omp_select

        def spy(chunks, params, server_rows, budgets, **knobs):
            captured.append(server_rows)
            return real(chunks, params, server_rows, budgets, **knobs)

        monkeypatch.setattr(federation, "labelwise_omp_select", spy)
        run_training(cfg, Algo("gcfl"), prepared)

        h1 = prepared.test.dim + 1
        ok = bool(captured)
        for rows in captured:
            ok &= isinstance(rows, dict)
            for row in rows.values():
                ok &= isinstance(row, np.ndarray) and row.shape == (h1,)
                ok &= not np.shares_memory(row, prepared.val.features)
                ok &= not np.shares_memory(row, prepared.val.labels)
        report(
            "criterion 8: only gradient rows cross the server->client boundary",
            ok,
            f"{len(captured)} selection calls inspected",
        )

    def test_client_reachable_signatures_exclude_datasets(self):
        import inspect

        from fedcoreset.coreset import labelwise_omp_select, omp_select
        from fedcoreset.federation import client_update

        offenders = []
        for fn in (labelwise_omp_select, omp_select, client_update):
            for name, param in inspect.signature(fn).parameters.items():
                if "Dataset" in str(param.annotation):
                    offenders.append(f"{fn.__name__}({name})")
        report(
            "criterion 8: client-reachable operations accept no Dataset",
            not offenders,
            ", ".join(offenders) or "signatures clean",
        )
