import inspect
import tempfile
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fedcoreset.cli as cli
import fedcoreset.federation as federation
import fedcoreset.model as model_module
from fedcoreset.config import DatasetConfig, ExperimentConfig, ModelConfig
from fedcoreset.data import NOISE_KINDS, ClientChunk, NoiseSpec
from fedcoreset.errors import ConfigurationError
from fedcoreset.metrics import write_round_log
from fedcoreset.federation import (
    Algo,
    CostLedger,
    aggregate,
    client_update,
    compute_cost_ratio,
    parse_algo,
    prepare_experiment,
    run_training,
)
from fedcoreset.model import (
    ARCHS,
    ParamVector,
    PlanCache,
    init_params,
    last_layer_grad_stack,
    loss,
    sgd_epochs,
)
from fedcoreset.seeding import derive_seed, spawn_rng
from worldgen import balanced_world, blobs, sized_world


def tiny_cfg(**kw) -> ExperimentConfig:
    base = dict(
        dataset=DatasetConfig(num_blobs=4, dim=4, stds=(), samples_per_blob=40),
        num_clients=4,
        rounds=3,
        refresh_period=2,
        budget_fraction=0.2,
        local_epochs=1,
        local_lr=0.1,
        global_lr=1.0,
        dirichlet_alpha=0.4,
        val_frac=0.1,
        test_frac=0.2,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestAlgo:
    def test_parse_arms(self):
        assert parse_algo("gcfl") == Algo("gcfl")
        assert parse_algo("fedprox:0.5") == Algo("fedprox", mu=0.5)
        assert parse_algo("fedprox").mu == pytest.approx(0.1)

    def test_bare_fedprox_arm_matches_its_token(self):
        assert Algo("fedprox") == parse_algo("fedprox")
        with pytest.raises(ConfigurationError):
            parse_algo("gcfl:3")
        with pytest.raises(ConfigurationError, match="does not take an argument"):
            parse_algo("gcfl:")
        with pytest.raises(ConfigurationError, match="bad fedprox mu"):
            parse_algo("fedprox:")
        with pytest.raises(ConfigurationError):
            parse_algo("adaboost")


class TestClientUpdate:
    def make_chunk(self, n=20):
        ds = blobs(4, 5, np.ones(4), n // 4, seed=0)
        return ClientChunk(ds, np.ones(ds.n, dtype=bool), 0)

    def test_zero_epochs_zero_delta(self):
        chunk = self.make_chunk()
        cfg = tiny_cfg(local_epochs=0, batch_size=8)
        theta = init_params(ModelConfig("softmax_regression"), 5, 4, seed=1)
        (delta,) = client_update([chunk], theta, [np.arange(chunk.n)], cfg, seeds=[0])
        assert np.all(delta == 0.0)

    def test_single_full_batch_step_identity(self):
        chunk = self.make_chunk()
        cfg = tiny_cfg(local_lr=0.05, batch_size=chunk.n)
        theta = init_params(ModelConfig("softmax_regression"), 5, 4, seed=2)
        idx = np.arange(chunk.n)
        (delta,) = client_update([chunk], theta, [idx], cfg, seeds=[0])
        grad = last_layer_grad_stack(theta, chunk.dataset).mean(axis=0).ravel()
        assert np.allclose(delta, -0.05 * grad, atol=1e-12)

    def test_prox_vanishes_at_anchor(self):
        chunk = self.make_chunk()
        cfg = tiny_cfg(local_lr=0.05, batch_size=chunk.n)
        theta = init_params(ModelConfig("softmax_regression"), 5, 4, seed=3)
        idx = np.arange(chunk.n)
        (plain,) = client_update([chunk], theta, [idx], cfg, seeds=[0])
        (proxed,) = client_update([chunk], theta, [idx], cfg, seeds=[0], mu=5.0)
        # one step from the anchor itself: prox gradient mu*(theta-anchor)=0
        assert np.allclose(plain, proxed, atol=1e-12)

    def test_prox_two_full_batch_epochs_exact(self):
        chunk = self.make_chunk()
        lr, mu = 0.05, 2.0
        cfg = tiny_cfg(local_epochs=2, local_lr=lr, batch_size=chunk.n)
        theta0 = init_params(ModelConfig("softmax_regression"), 5, 4, seed=6)
        (delta,) = client_update([chunk], theta0, [np.arange(chunk.n)], cfg, seeds=[0], mu=mu)

        def grad(values):
            params = theta0.with_values(values)
            return last_layer_grad_stack(params, chunk.dataset).mean(axis=0).ravel()

        theta1 = theta0.values - lr * grad(theta0.values)
        theta2 = theta1 - lr * (grad(theta1) + mu * (theta1 - theta0.values))
        assert np.allclose(delta, theta2 - theta0.values, rtol=0, atol=1e-12)


class TestAggregate:
    def make_params(self, values):
        return init_params(ModelConfig("softmax_regression"), 1, 1, seed=0).with_values(np.asarray(values, dtype=float))

    def test_zero_deltas_keep_params(self):
        params = self.make_params([1.0, 2.0])
        out = aggregate(params, np.zeros((1, 2)), 1.0)
        assert np.array_equal(out.values, [1.0, 2.0])

    def test_arithmetic_example(self):
        params = self.make_params([1.0, 1.0])
        deltas = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = aggregate(params, deltas, 1.0)
        assert np.array_equal(out.values, [1.5, 1.5])

    @given(seed=st.integers(0, 1000), n=st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance_exact(self, seed, n):
        rng = np.random.default_rng(seed)
        p0 = init_params(ModelConfig("softmax_regression"), 3, 1, seed=0).with_values(rng.normal(size=4))
        deltas = rng.normal(size=(n, 4))
        out1 = aggregate(p0, deltas, 1.0)
        out2 = aggregate(p0, deltas[rng.permutation(n)], 1.0)
        assert np.array_equal(out1.values, out2.values)

    def test_length_mismatch_rejected(self):
        params = self.make_params([1.0, 2.0])
        with pytest.raises(ValueError):
            aggregate(params, np.zeros((1, 3)), 1.0)


# few distinct values, so leading columns tie often; includes the floats
# whose comparisons are special: signed zeros, infinities and NaN
ORDER_POOL = (0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan)


@st.composite
def delta_stacks(draw):
    """m x P stacks whose first ``lead`` columns come from ORDER_POOL and the
    rest from all floats, NaN and infinities included."""
    m = draw(st.integers(1, 100))
    p = draw(st.integers(1, 9))
    lead = draw(st.integers(0, p))
    pooled = draw(hnp.arrays(np.float64, (m, lead), elements=st.sampled_from(ORDER_POOL)))
    free = draw(hnp.arrays(np.float64, (m, p - lead), elements=st.floats() | st.sampled_from(ORDER_POOL)))
    return np.hstack([pooled, free])


class TestCanonicalOrder:
    """aggregate's order must be exactly np.lexsort over all P columns, so
    its mean is bitwise that of the full-lexsort reference."""

    @staticmethod
    def check(stack):
        params = ParamVector(np.zeros(stack.shape[1]), ((1, stack.shape[1]),))
        full = np.lexsort(stack.T[::-1])
        assert np.array_equal(federation._canonical_order(stack), full)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, huge sums
            reference = params.values + 0.5 * stack[full].mean(axis=0)
            out = aggregate(params, stack, 0.5).values
        assert out.tobytes() == reference.tobytes()

    @given(stack=delta_stacks())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_lexsort(self, stack):
        self.check(stack)

    def test_all_zero_leading_column(self):
        # a constant input feature leaves column 0 of every delta at 0.0
        rng = np.random.default_rng(0)
        stack = rng.normal(size=(10, 6))
        stack[:, 0] = 0.0
        stack[::2, 0] = -0.0
        self.check(stack)

    def test_ties_broken_at_column_two_or_later(self):
        rng = np.random.default_rng(1)
        for col in (2, 3, 5):
            stack = rng.normal(size=(12, 7))
            stack[:, :col] = rng.choice([0.0, 1.0], size=(12, 1))
            self.check(stack)

    def test_rows_identical_in_every_column(self):
        rng = np.random.default_rng(2)
        stack = rng.normal(size=(8, 5))
        stack[5] = stack[1]
        self.check(stack)
        stack[:] = stack[1]
        self.check(stack)

    def test_distinct_leading_column_skips_lexsort(self, monkeypatch):
        stack = np.random.default_rng(3).normal(size=(10, 3914))

        def full_sort(keys):
            raise AssertionError("lexsort ran on a stack with a distinct column 0")

        monkeypatch.setattr(np, "lexsort", full_sort)
        assert np.array_equal(
            federation._canonical_order(stack), np.argsort(stack[:, 0], kind="stable")
        )

    def test_tie_takes_one_full_lexsort(self, monkeypatch):
        # all-zero deltas (local_epochs = 0) tie in every column: one
        # lexsort over all P keys, as aggregate ran before the argsort path
        stack = np.zeros((10, 3914))
        widths = []
        full_sort = np.lexsort

        def counting_sort(keys):
            widths.append(len(keys))
            return full_sort(keys)

        monkeypatch.setattr(np, "lexsort", counting_sort)
        assert np.array_equal(federation._canonical_order(stack), np.arange(10))
        assert widths == [3914]


class TestRunRound:
    def test_skyline_trains_only_on_clean(self, monkeypatch):
        cfg = tiny_cfg(noise=NoiseSpec("closed_set", 0.4))
        prepared = prepare_experiment(cfg)
        seen: list[np.ndarray] = []
        real = federation.client_update

        def spy(chunks, theta, indices, *args, **kw):
            seen.extend((chunk.clean_flags, np.asarray(idx)) for chunk, idx in zip(chunks, indices))
            return real(chunks, theta, indices, *args, **kw)

        monkeypatch.setattr(federation, "client_update", spy)
        run_training(cfg, Algo("skyline"), prepared)
        assert seen
        for flags, idx in seen:
            assert flags[idx].all()

    @pytest.mark.parametrize("kind", ["fedavg", "gcfl"])
    def test_param_vectors_built_do_not_grow_with_clients(self, kind, monkeypatch):
        # the round's client models and deltas are rows of one array; only
        # the global model is a ParamVector
        prepared = balanced_world(num_clients=8, per_class_per_client=5, num_classes=4)
        params = init_params(ModelConfig("one_hidden", hidden_dim=5), 6, 4, seed=0)
        built = []
        post_init = ParamVector.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        counts = {}
        for m in (2, 8):
            cfg = tiny_cfg(num_clients=8, clients_per_round=m, batch_size=4)
            train_rows = [
                federation._round0_rows(Algo(kind), c, federation._client_budget(c, cfg.budget_fraction), 0)
                for c in prepared.chunks
            ]
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(ParamVector, "__post_init__", counting)
                federation.run_round(params, prepared, train_rows, Algo(kind), cfg, 0, CostLedger())
            counts[m] = len(built)
        assert counts[2] == counts[8]

    @staticmethod
    def first_round(kind, cfg, prepared, params):
        algo = Algo(kind)
        train_rows = [
            federation._round0_rows(algo, c, federation._client_budget(c, cfg.budget_fraction), 0)
            for c in prepared.chunks
        ]
        return federation.run_round(params, prepared, train_rows, algo, cfg, 0, CostLedger())

    @pytest.mark.parametrize("kind", federation.ALGO_KINDS)
    def test_round_leaves_its_input_params_bit_equal(self, kind):
        # what lets an idle round return its input parameters themselves
        model = ModelConfig("one_hidden", hidden_dim=5)
        cfg = tiny_cfg(noise=NoiseSpec("closed_set", 0.3), model=model)
        prepared = prepare_experiment(cfg)
        params = init_params(cfg.model, prepared.test.dim, prepared.test.num_classes, seed=0)
        before = params.values.tobytes()
        new, _ = self.first_round(kind, cfg, prepared, params)
        assert params.values.tobytes() == before
        assert new.values.tobytes() != before

    @pytest.mark.parametrize("kind", ["gcfl", "random", "facility_location"])
    def test_round_where_no_client_trains_returns_its_input(self, kind):
        # every budget rounds to 0, so no sampled client has a row to train on
        cfg = tiny_cfg(budget_fraction=0.001)
        prepared = prepare_experiment(cfg)
        params = init_params(cfg.model, prepared.test.dim, prepared.test.num_classes, seed=0)
        new, rm = self.first_round(kind, cfg, prepared, params)
        assert np.array_equal(new.values, params.values)
        assert rm.ledger_snapshot.update_uploads == 0

    def test_gcfl_refresh_never_builds_the_full_grad_stack(self, monkeypatch):
        import fedcoreset.coreset
        import fedcoreset.model

        def full_stack(*args):
            raise AssertionError("the server rows built the [n, C, h+1] gradient stack")

        for module in (fedcoreset.model, fedcoreset.coreset):
            monkeypatch.setattr(module, "last_layer_grad_stack", full_stack)
        for arch in ARCHS:
            cfg = tiny_cfg(model=ModelConfig(arch, hidden_dim=5), rounds=3, refresh_period=1)
            result = run_training(cfg, Algo("gcfl"))
            assert result.ledger.grads_broadcast > 0

    def test_gcfl_refresh_counter_k1_vs_k10(self):
        prepared = balanced_world(num_clients=4, per_class_per_client=5, num_classes=4)
        n_total = sum(c.n for c in prepared.chunks)
        evals = {}
        for k in (1, 10):
            cfg = tiny_cfg(num_clients=4, rounds=10, refresh_period=k, budget_fraction=0.25)
            result = run_training(cfg, Algo("gcfl"), prepared)
            evals[k] = result.ledger.per_sample_grad_evals
        assert evals[1] == 10 * n_total
        assert evals[10] == 1 * n_total

    def test_refresh_cadence_formula(self):
        prepared = balanced_world(num_clients=3, per_class_per_client=4, num_classes=5)
        n_total = sum(c.n for c in prepared.chunks)
        for rounds, k in [(7, 3), (9, 4), (12, 12), (5, 1)]:
            cfg = tiny_cfg(num_clients=3, rounds=rounds, refresh_period=k, budget_fraction=0.25)
            result = run_training(cfg, Algo("gcfl"), prepared)
            expected_events = 1 + (rounds - 1) // k
            assert result.ledger.per_sample_grad_evals == expected_events * n_total


class TestSingleClientEquivalence:
    def test_fedavg_equals_centralized_sgd(self):
        cfg = tiny_cfg(
            num_clients=1,
            clients_per_round=1,
            rounds=10,
            local_epochs=1,
            local_lr=0.1,
            global_lr=1.0,
            batch_size=10_000,  # full batch
        )
        prepared = prepare_experiment(cfg)
        fed = run_training(cfg, Algo("fedavg"), prepared)

        theta = init_params(
            ModelConfig("softmax_regression"), prepared.test.dim, prepared.test.num_classes, derive_seed(cfg.seed, "init")
        )
        ds = prepared.chunks[0].dataset
        for t in range(cfg.rounds):
            (values,) = sgd_epochs(
                theta, [ds], epochs=1, lr=0.1, batch_size=10_000,
                seeds=[derive_seed(cfg.seed, "client", 0, "round", t)],
            )
            theta = theta.with_values(values)
        assert np.abs(fed.final_params.values - theta.values).max() <= 1e-12


class TestRunTraining:
    def test_zero_rounds(self):
        cfg = tiny_cfg(rounds=0)
        result = run_training(cfg, Algo("fedavg"))
        assert result.rounds == []
        expect = init_params(ModelConfig("softmax_regression"), 4, 4, derive_seed(cfg.seed, "init"))
        assert np.array_equal(result.final_params.values, expect.values)

    def test_bitwise_deterministic(self):
        cfg = tiny_cfg(noise=NoiseSpec("closed_set", 0.3), rounds=4)
        a = run_training(cfg, Algo("gcfl"))
        b = run_training(cfg, Algo("gcfl"))
        assert np.array_equal(a.final_params.values, b.final_params.values)
        for ra, rb in zip(a.rounds, b.rounds):
            assert ra.test_accuracy == rb.test_accuracy
            assert ra.mean_train_loss == rb.mean_train_loss
            assert ra.coreset_clean_fraction == rb.coreset_clean_fraction

    def test_rounds_strictly_increasing_and_complete(self):
        cfg = tiny_cfg(rounds=5)
        result = run_training(cfg, Algo("fedavg"))
        assert [rm.round for rm in result.rounds] == list(range(5))

    def test_clean_fraction_only_for_coreset_algos(self):
        cfg = tiny_cfg(rounds=2)
        assert all(
            rm.coreset_clean_fraction is None
            for rm in run_training(cfg, Algo("fedavg")).rounds
        )
        assert all(
            rm.coreset_clean_fraction is not None
            for rm in run_training(cfg, Algo("random")).rounds
        )

    def test_ledger_counters_monotone(self):
        cfg = tiny_cfg(rounds=6, refresh_period=2)
        result = run_training(cfg, Algo("gcfl"))
        snaps = [rm.ledger_snapshot for rm in result.rounds]
        for a, b in zip(snaps, snaps[1:]):
            assert b.per_sample_grad_evals >= a.per_sample_grad_evals
            assert b.sgd_sample_visits >= a.sgd_sample_visits
            assert b.params_broadcast >= a.params_broadcast
            assert b.grads_broadcast >= a.grads_broadcast
            assert b.update_uploads >= a.update_uploads

    def test_zero_sample_clients_do_not_crash(self):
        # alpha small enough that some client very likely gets nothing
        cfg = tiny_cfg(num_clients=8, dirichlet_alpha=0.05, rounds=2)
        for kind in ("fedavg", "gcfl", "skyline", "random", "facility_location"):
            result = run_training(cfg, Algo(kind))
            assert len(result.rounds) == 2


    def test_non_finite_parameters_stop_the_arm(self):
        cfg = tiny_cfg(local_lr=1e300, global_lr=1e10, rounds=5, fine_tune_epochs=1)
        result = run_training(cfg, Algo("fedavg"))
        assert result.diverged_round == len(result.rounds) - 1
        assert not np.isfinite(result.final_params.values).all()
        assert result.fine_tuned_accuracy is None
        assert run_training(tiny_cfg(rounds=5), Algo("fedavg")).diverged_round is None


class TestKeptPlan:
    """``run_training`` keeps the lock-step plan of local SGD from round to
    round; that must change no bit, and no plan may outlive the rounds or
    sit under a selection."""

    # 12 clients of uneven sizes: one empty, two whose budgets round to 0
    # at a 10% budget (3 and 1 samples), sizes on both sides of the batch
    SIZES = (0, 3, 41, 26, 7, 64, 33, 1, 18, 50, 12, 9)

    @staticmethod
    def world_cfg(**kw):
        base = dict(num_clients=12, rounds=5, refresh_period=2, local_epochs=2, batch_size=8,
                    budget_fraction=0.1, fine_tune_epochs=1)
        return tiny_cfg(**{**base, **kw})

    @staticmethod
    def arm(cfg, algo, prepared, path, monkeypatch, rebuild):
        """Run one arm, the plan kept or rebuilt every round; returns its
        round-log bytes, final-parameter bytes, fine-tuned accuracy and the
        number of plans built."""
        built = []
        real = model_module.lockstep_plan

        def counting(*args):
            built.append(1)
            return real(*args)

        class Rebuilding(PlanCache):
            def get(self, *args):
                self.clear()
                return super().get(*args)

        with monkeypatch.context() as patch:
            patch.setattr(model_module, "lockstep_plan", counting)
            if rebuild:
                patch.setattr(federation, "PlanCache", Rebuilding)
            result = run_training(cfg, algo, prepared)
        write_round_log(str(path), result.rounds)
        return (path.read_bytes(), result.final_params.values.tobytes(),
                result.fine_tuned_accuracy), len(built)

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("m", [None, 5])
    @pytest.mark.parametrize("kind", federation.ALGO_KINDS)
    def test_kept_plan_equals_one_rebuilt_every_round(self, kind, m, arch, tmp_path, monkeypatch):
        prepared = sized_world(self.SIZES, dim=4)
        cfg = self.world_cfg(clients_per_round=m, model=ModelConfig(arch, hidden_dim=3))
        algo = parse_algo("fedprox:0.5") if kind == "fedprox" else Algo(kind)
        kept, kept_builds = self.arm(cfg, algo, prepared, tmp_path / "kept.csv", monkeypatch, False)
        rebuilt, builds = self.arm(cfg, algo, prepared, tmp_path / "rebuilt.csv", monkeypatch, True)
        assert kept == rebuilt
        # the fine-tune builds one plan on each side; at m = N the rows
        # change only on a gcfl refresh (rounds 0, 2 and 4)
        assert builds == cfg.rounds + 1
        if m is None:
            assert kept_builds == (1 + 3 if kind == "gcfl" else 1 + 1)
        else:
            assert kept_builds <= builds

    @pytest.mark.parametrize("kind, m", [("gcfl", None), ("fedavg", 5)])
    def test_one_plan_at_a_time_none_under_selection_or_after_the_arm(self, kind, m, monkeypatch):
        prepared = sized_world(self.SIZES, dim=4)
        cfg = self.world_cfg(rounds=6, clients_per_round=m)
        plans, alive_at_build, alive_at_selection = [], [], []
        real_build, real_select = model_module.lockstep_plan, federation.labelwise_omp_select

        def alive():
            return sum(ref() is not None for ref in plans)

        def build(*args):
            alive_at_build.append(alive())
            plan = real_build(*args)
            plans.append(weakref.ref(plan))
            return plan

        def select(*args, **kw):
            alive_at_selection.append(alive())
            return real_select(*args, **kw)

        monkeypatch.setattr(model_module, "lockstep_plan", build)
        monkeypatch.setattr(federation, "labelwise_omp_select", select)
        result = run_training(cfg, Algo(kind), prepared)
        # the last build is the fine-tune's, after the rounds
        assert len(plans) >= 4 and alive_at_build == [0] * len(plans)
        # gcfl refreshes at rounds 0, 2 and 4, each but the first after
        # rounds that built a plan
        assert alive_at_selection == ([0, 0, 0] if kind == "gcfl" else [])
        assert alive() == 0 and result.rounds


class TestOneHiddenArchitecture:
    def test_gcfl_runs_with_hidden_layer(self):
        from fedcoreset.config import ModelConfig

        cfg = tiny_cfg(
            rounds=4,
            refresh_period=2,
            model=ModelConfig(arch="one_hidden", hidden_dim=6),
            noise=NoiseSpec("closed_set", 0.3),
        )
        result = run_training(cfg, Algo("gcfl"))
        assert len(result.rounds) == 4
        # broadcast rows sized by the hidden width, not the input width
        num_classes, h1 = 4, 6 + 1
        refreshes = 2  # rounds 0 and 2
        assert result.ledger.grads_broadcast == refreshes * 4 * num_classes * h1
        # whole model is larger than its softmax layer here
        assert result.final_params.values.size > num_classes * h1


class TestNoisePathsEndToEnd:
    def test_open_set_shrinks_task_and_runs(self):
        cfg = tiny_cfg(
            dataset=DatasetConfig(num_blobs=5, dim=4, stds=(), samples_per_blob=40),
            noise=NoiseSpec("open_set", 0.4),
            rounds=3,
            refresh_period=2,
        )
        prepared = prepare_experiment(cfg)
        assert prepared.test.num_classes == 3  # ceil(0.4 * 5) = 2 classes removed
        assert set(prepared.val.labels.tolist()) <= set(range(3))
        for kind in ("gcfl", "fedavg", "skyline"):
            result = run_training(cfg, Algo(kind), prepared)
            assert len(result.rounds) == 3
            assert result.final_params.blocks()[1].shape[0] == 3

    def test_attribute_noise_runs_with_flags(self):
        cfg = tiny_cfg(noise=NoiseSpec("attribute", 0.5, severity=5.0), rounds=2)
        prepared = prepare_experiment(cfg)
        corrupted = sum(int((~c.clean_flags).sum()) for c in prepared.chunks)
        assert corrupted > 0
        result = run_training(cfg, Algo("gcfl"), prepared)
        assert result.rounds[-1].coreset_clean_fraction is not None

    @pytest.mark.parametrize("kind", ["closed_set", "attribute", "open_set"])
    def test_zero_ratio_builds_the_noiseless_world(self, kind):
        clean = prepare_experiment(tiny_cfg())
        zero = prepare_experiment(tiny_cfg(noise=NoiseSpec(kind, 0.0, severity=5.0)))
        assert zero.fingerprint == clean.fingerprint
        assert zero.test.num_classes == clean.test.num_classes

    def test_fine_tuned_accuracy_reported(self):
        cfg = tiny_cfg(noise=NoiseSpec("closed_set", 0.4), rounds=3, fine_tune_epochs=20)
        result = run_training(cfg, Algo("fedavg"))
        assert result.fine_tuned_accuracy is not None
        assert 0.0 <= result.fine_tuned_accuracy <= 1.0
        untuned = run_training(replace(cfg, fine_tune_epochs=0), Algo("fedavg"))
        assert untuned.fine_tuned_accuracy is None


class TestFinalAccuracy:
    @pytest.mark.parametrize("rounds, fine_tune, calls", [(3, 0, 3), (3, 5, 4), (0, 0, 1)])
    def test_test_set_evaluated_once_a_round(self, rounds, fine_tune, calls, monkeypatch):
        evaluated, evaluate = [], federation.evaluate_accuracy

        def spy(params, test):
            evaluated.append(evaluate(params, test))
            return evaluated[-1]

        monkeypatch.setattr(federation, "evaluate_accuracy", spy)
        result = run_training(tiny_cfg(rounds=rounds, fine_tune_epochs=fine_tune), Algo("fedavg"))
        assert len(evaluated) == calls
        assert result.final_accuracy == evaluated[rounds - 1 if rounds else 0]


class TestFineTune:
    """Server fine-tuning is ``sgd_epochs`` on the validation split."""

    def test_zero_epochs_identity(self):
        prepared = prepare_experiment(tiny_cfg())
        p = init_params(ModelConfig("softmax_regression"), 4, 4, seed=0)
        (out,) = sgd_epochs(p, [prepared.val], epochs=0, lr=0.1, batch_size=32, seeds=[0])
        assert np.array_equal(out, p.values)

    def test_loss_non_increasing_on_val(self):
        prepared = prepare_experiment(tiny_cfg())
        p = init_params(ModelConfig("softmax_regression"), 4, 4, seed=1)
        before = loss(p, prepared.val)
        (tuned,) = sgd_epochs(p, [prepared.val], epochs=50, lr=0.05, batch_size=32, seeds=[2])
        assert loss(p.with_values(tuned), prepared.val) <= before


class TestCostRatio:
    def run_pair(self, rounds, k, prepared, budget_fraction=0.1):
        cfg = tiny_cfg(
            num_clients=len(prepared.chunks),
            rounds=rounds,
            refresh_period=k,
            budget_fraction=budget_fraction,
        )
        gcfl = run_training(cfg, Algo("gcfl"), prepared)
        fedavg = run_training(cfg, Algo("fedavg"), prepared)
        return compute_cost_ratio(gcfl.ledger, fedavg.ledger)

    def test_exact_closed_form(self):
        # b=10%, K=10, E=1, balanced 100-sample clients: 0.1 sgd + 0.1
        # amortized selection = 0.2 exactly
        prepared = balanced_world(num_clients=10, per_class_per_client=10)
        assert self.run_pair(20, 10, prepared) == pytest.approx(0.2, abs=0)

    def test_strictly_decreasing_in_k(self):
        prepared = balanced_world(num_clients=5, per_class_per_client=10)
        ratios = [self.run_pair(20, k, prepared) for k in (5, 10, 20)]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_full_budget_never_refreshed_costs_one_plus_selection(self):
        # b=100% and K > T: identical sgd cost plus one initial selection
        prepared = balanced_world(num_clients=4, per_class_per_client=5, num_classes=5)
        rounds = 10
        ratio = self.run_pair(rounds, k=1000, prepared=prepared, budget_fraction=1.0)
        assert ratio == pytest.approx(1.0 + 1.0 / rounds, abs=0)


class TestCommunicationAccounting:
    def test_per_refresh_broadcast_size_and_amortized_overhead(self):
        prepared = balanced_world(num_clients=4, per_class_per_client=10,
                                  dim=10, num_classes=10)
        rounds, k = 20, 10
        cfg = tiny_cfg(num_clients=4, rounds=rounds, refresh_period=k,
                       budget_fraction=0.1)
        result = run_training(cfg, Algo("gcfl"), prepared)
        led = result.ledger
        c, h = 10, 10
        theta_size = c * (h + 1)  # softmax regression: whole model
        refreshes = 1 + (rounds - 1) // k
        assert led.grads_broadcast == refreshes * 4 * c * (h + 1)
        assert led.params_broadcast == rounds * 4 * theta_size
        # amortized extra values per round per client
        amortized = led.grads_broadcast / (rounds * 4)
        assert amortized == c * (h + 1) / k


class TestPrivacySurface:
    def test_selection_sees_only_gradient_rows(self, monkeypatch):
        cfg = tiny_cfg(rounds=2, refresh_period=1)
        prepared = prepare_experiment(cfg)
        captured = []
        real = federation.labelwise_omp_select

        def spy(chunks, params, server_rows, budgets, **knobs):
            captured.append(server_rows)
            return real(chunks, params, server_rows, budgets, **knobs)

        monkeypatch.setattr(federation, "labelwise_omp_select", spy)
        run_training(cfg, Algo("gcfl"), prepared)
        assert captured
        h1 = prepared.test.dim + 1
        for rows in captured:
            assert isinstance(rows, dict)
            for c, row in rows.items():
                assert isinstance(row, np.ndarray) and row.shape == (h1,)
                # the broadcast must not alias the validation set's memory
                assert not np.shares_memory(row, prepared.val.features)
                assert not np.shares_memory(row, prepared.val.labels)

    def test_client_side_signatures_take_no_dataset(self):
        from fedcoreset.coreset import labelwise_omp_select, omp_select

        for fn in (labelwise_omp_select, omp_select, client_update):
            for name, param in inspect.signature(fn).parameters.items():
                ann = str(param.annotation)
                assert "Dataset" not in ann, f"{fn.__name__}({name}) exposes a Dataset"
        chunks = inspect.signature(labelwise_omp_select).parameters["chunks"]
        assert chunks.annotation == "Sequence[ClientChunk]"


@st.composite
def small_experiments(draw):
    """A small valid config drawn over every arm, noise kind and model."""
    num_clients = draw(st.integers(1, 4))
    arms = draw(st.lists(st.sampled_from(federation.ALGO_KINDS), min_size=1, max_size=3,
                         unique=True))
    return ExperimentConfig(
        dataset=DatasetConfig(num_blobs=draw(st.integers(2, 4)), dim=draw(st.integers(1, 4)),
                              samples_per_blob=draw(st.integers(6, 20))),
        noise=NoiseSpec(draw(st.sampled_from(NOISE_KINDS)),
                        draw(st.sampled_from((0.0, 0.2, 0.5))), 0.5),
        model=ModelConfig(draw(st.sampled_from(ARCHS)), 3),
        num_clients=num_clients,
        clients_per_round=draw(st.one_of(st.none(), st.integers(1, num_clients))),
        rounds=draw(st.integers(0, 4)),
        refresh_period=draw(st.integers(1, 3)),
        budget_fraction=draw(st.sampled_from((0.05, 0.3, 1.0))),
        local_epochs=draw(st.integers(0, 2)),
        local_lr=0.1,
        global_lr=1.0,
        lam=draw(st.sampled_from((0.0, 0.5))),
        dirichlet_alpha=draw(st.sampled_from((0.1, 1.0, 100.0))),
        batch_size=draw(st.integers(1, 16)),
        arms=tuple(parse_algo(kind) for kind in arms),
        val_frac=draw(st.sampled_from((0.0, 0.1, 0.3))),
        test_frac=draw(st.sampled_from((0.1, 0.2))),
        seed=draw(st.integers(0, 10_000)),
        fine_tune_epochs=draw(st.integers(0, 1)),
    )


class TestProtocolProperties:
    # derandomized: the same 25 configs on every run keep tier-1 reproducible
    @given(cfg=small_experiments())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_every_arm_completes_with_ledger_identities(self, cfg):
        try:
            prepared = prepare_experiment(cfg)
        except ConfigurationError:
            return  # rejected before round 0: allowed
        n_clients = len(prepared.chunks)
        m = cfg.clients_per_round or n_clients
        for algo in cfg.arms:
            result = run_training(cfg, algo, prepared)
            size = result.final_params.values.size
            before = CostLedger()
            for rm in result.rounds:
                now = rm.ledger_snapshot
                refresh = algo.kind == "gcfl" and rm.round % cfg.refresh_period == 0
                assert now.params_broadcast - before.params_broadcast == m * size
                uploads = now.update_uploads - before.update_uploads
                assert uploads % size == 0 and uploads <= m * size
                visits = now.sgd_sample_visits - before.sgd_sample_visits
                if uploads == 0:
                    assert visits == 0
                if algo.kind in ("fedavg", "fedprox"):
                    rng = spawn_rng(cfg.seed, "sample", rm.round)
                    sampled = rng.choice(n_clients, size=m, replace=False)
                    chunk_sizes = sum(prepared.chunks[cid].n for cid in sampled)
                    assert visits == cfg.local_epochs * chunk_sizes
                if not refresh:
                    assert now.per_sample_grad_evals == before.per_sample_grad_evals
                    assert now.grads_broadcast == before.grads_broadcast
                before = now
            assert len(result.rounds) == cfg.rounds

    def test_kernels_get_only_inputs_the_engine_guarantees(self):
        """The kernels do not check their inputs: the config, the pre-flight
        and the round engine guarantee them.  Every such precondition holds
        at every kernel call of a whole ``cli.run`` of every arm kind, each
        kernel is called, and the configs reach the cases the engine keeps
        from the kernels: a sampled empty chunk, and a sampled non-empty
        client of a coreset arm whose budget rounds to 0."""
        reached = {"sampled empty chunk": 0, "zero-budget client": 0}
        calls = Counter()

        def nonempty(params, ds):
            assert ds.n > 0

        def labelwise(chunks, params, server_rows, budgets, *, lam):
            assert len(budgets) == len(chunks) and min(budgets, default=1) >= 1
            for chunk in chunks:
                assert np.isin(chunk.dataset.labels, list(server_rows)).any()

        def round0_coreset(chunk, budget, *seed):
            assert budget >= 1 and chunk.n >= 1

        def aggregate_(params, deltas, global_lr):
            assert len(deltas) and deltas.shape[1] == params.values.size

        def sgd(params, datasets, epochs, lr, batch_size, seeds, mu=0.0, indices=None, cache=None):
            rows = [ds.n for ds in datasets] if indices is None else [len(i) for i in indices]
            assert len(seeds) == len(rows) == len(datasets) and all(rows)

        real_composition = federation.coreset_composition

        def composition(pairs):
            calls["coreset_composition"] += 1
            pairs = list(pairs)  # a generator: read it once
            for indices, chunk in pairs:
                assert ((indices >= 0) & (indices < chunk.n)).all()
            return real_composition(pairs)

        def open_set(chunks, test, val, noise, seed):
            parts = [chunk.dataset for chunk in chunks] + [val]
            assert all(part.num_classes == test.num_classes for part in parts)

        def cost_ratio(ledger, fedavg):
            assert fedavg.sgd_sample_visits > 0

        def counted(params, prepared, train_rows, algo, cfg, t, ledger, cache=None):
            chunks = prepared.chunks
            m = cfg.clients_per_round or len(chunks)
            sampled = spawn_rng(cfg.seed, "sample", t).choice(len(chunks), size=m, replace=False)
            reached["sampled empty chunk"] += any(chunks[cid].n == 0 for cid in sampled)
            budgets = [federation._client_budget(chunks[cid], cfg.budget_fraction)
                       for cid in sampled if chunks[cid].n]
            reached["zero-budget client"] += algo.uses_coreset and min(budgets, default=1) < 1

        def check_calls(patch, module, name, check):
            real = getattr(module, name)

            def call(*args, **kwargs):
                calls[name] += 1
                check(*args, **kwargs)
                return real(*args, **kwargs)

            patch.setattr(module, name, call)

        checks = {
            "loss": nonempty,
            "evaluate_accuracy": nonempty,
            "labelwise_validation_grads": nonempty,
            "labelwise_omp_select": labelwise,
            "random_select": round0_coreset,
            "facility_location_select": round0_coreset,
            "aggregate": aggregate_,
            "sgd_epochs": sgd,
            "inject_open_set": open_set,
            "run_round": counted,
        }

        every_arm = tuple(Algo(kind) for kind in federation.ALGO_KINDS)
        # whether 25 draws hold both cases turns on Hypothesis's draws, so one
        # world pins them: chunks of 5, 0, 1 and 12 samples with 5% budgets,
        # and round 1 samples clients 1 and 2, so no coreset-arm client trains
        edge = ExperimentConfig(
            dataset=DatasetConfig(num_blobs=3, dim=2, samples_per_blob=12),
            noise=NoiseSpec("closed_set", 0.2), num_clients=4, clients_per_round=2,
            rounds=2, refresh_period=1, budget_fraction=0.05, dirichlet_alpha=0.1,
            batch_size=4, val_frac=0.3, test_frac=0.2, seed=6, fine_tune_epochs=1,
        )

        @given(cfg=small_experiments())
        @example(cfg=edge)
        @settings(max_examples=25, deadline=None, derandomize=True)
        def every_call_keeps_the_contracts(cfg):
            with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as out:
                for name, check in checks.items():
                    check_calls(patch, federation, name, check)
                check_calls(patch, cli, "compute_cost_ratio", cost_ratio)
                patch.setattr(federation, "coreset_composition", composition)
                try:
                    assert cli.run(replace(cfg, arms=every_arm, output_dir=out)) == 0
                except ConfigurationError:
                    pass  # rejected before round 0: allowed

        every_call_keeps_the_contracts()
        assert all(reached.values()), reached
        kernels = [*checks, "compute_cost_ratio", "coreset_composition"]
        assert all(calls[name] for name in kernels), calls
