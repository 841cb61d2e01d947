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
import fedcoreset.coreset as coreset_module
import fedcoreset.federation as federation
import fedcoreset.model as model_module
import fedcoreset.scoring as scoring_module
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
    sgd_epochs,
)
from fedcoreset.scoring import loss
from fedcoreset.seeding import client_seed_words, derive_seed, seed_words, spawn_rng
from reference import reference_run
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
        return ClientChunk(ds, np.ones(ds.n, dtype=bool))

    def test_zero_epochs_zero_delta(self):
        chunk = self.make_chunk()
        cfg = tiny_cfg(local_epochs=0, batch_size=8)
        theta = init_params(ModelConfig("softmax_regression"), 5, 4, seed=1)
        (delta,) = client_update([chunk], theta, [np.arange(chunk.n)], cfg, seeds=seed_words([0]),
                                 mu=0.0, cache=PlanCache())
        assert np.all(delta == 0.0)

    def test_single_full_batch_step_identity(self):
        chunk = self.make_chunk()
        cfg = tiny_cfg(local_lr=0.05, batch_size=chunk.n)
        theta = init_params(ModelConfig("softmax_regression"), 5, 4, seed=2)
        idx = np.arange(chunk.n)
        (delta,) = client_update([chunk], theta, [idx], cfg, seeds=seed_words([0]), mu=0.0,
                                 cache=PlanCache())
        grad = last_layer_grad_stack(theta, chunk.dataset).mean(axis=0).ravel()
        assert np.allclose(delta, -0.05 * grad, atol=1e-12)

    def test_prox_vanishes_at_anchor(self):
        chunk = self.make_chunk()
        cfg = tiny_cfg(local_lr=0.05, batch_size=chunk.n)
        theta = init_params(ModelConfig("softmax_regression"), 5, 4, seed=3)
        idx = np.arange(chunk.n)
        (plain,) = client_update([chunk], theta, [idx], cfg, seeds=seed_words([0]), mu=0.0,
                                 cache=PlanCache())
        (proxed,) = client_update([chunk], theta, [idx], cfg, seeds=seed_words([0]), mu=5.0,
                                  cache=PlanCache())
        # one step from the anchor itself: prox gradient mu*(theta-anchor)=0
        assert np.allclose(plain, proxed, atol=1e-12)

    def test_prox_two_full_batch_epochs_exact(self):
        chunk = self.make_chunk()
        lr, mu = 0.05, 2.0
        cfg = tiny_cfg(local_epochs=2, local_lr=lr, batch_size=chunk.n)
        theta0 = init_params(ModelConfig("softmax_regression"), 5, 4, seed=6)
        rows = [np.arange(chunk.n)]
        (delta,) = client_update([chunk], theta0, rows, cfg, seeds=seed_words([0]), mu=mu,
                                 cache=PlanCache())

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
            args = self.round_state(Algo(kind), cfg, prepared)
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(ParamVector, "__post_init__", counting)
                federation.run_round(params, prepared, *args)
            counts[m] = len(built)
        assert counts[2] == counts[8]

    @staticmethod
    def round_state(algo, cfg, prepared, t=0):
        """The arguments after ``prepared`` that ``run_training`` hands
        ``run_round`` for round ``t`` of a fresh arm."""
        chunks = prepared.chunks
        train_rows = [
            federation._round0_rows(
                algo, c, chunk, federation._client_budget(chunk, cfg.budget_fraction), 0
            )
            for c, chunk in enumerate(chunks)
        ]
        clean = np.array([np.count_nonzero(ch.clean_flags[r]) for ch, r in zip(chunks, train_rows)])
        sampled = federation._sample(cfg, len(chunks), t)
        words = client_seed_words(cfg.seed, sampled, np.full(len(sampled), t))
        return train_rows, clean, algo, cfg, t, CostLedger(), sampled, words, PlanCache()

    @classmethod
    def first_round(cls, kind, cfg, prepared, params):
        return federation.run_round(params, prepared, *cls.round_state(Algo(kind), cfg, prepared))

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

    @pytest.mark.parametrize("m", [None, 2])
    def test_train_loss_is_one_call_a_round(self, m, monkeypatch):
        """A round scores all its sampled non-empty chunks, in sampled order,
        and then the test set with one ``loss`` call, which keeps their
        scoring plan in the arm's cache and builds it only in a round whose
        scored chunks differ from the last; a round that samples only
        empty chunks scores the test set alone and logs a NaN loss."""
        prepared = sized_world((0, 9, 0, 1, 0, 40))
        cfg = tiny_cfg(num_clients=6, clients_per_round=m, rounds=12)
        scored: list[list] = []
        built: list[int] = []
        real_round, real_loss = federation.run_round, federation.loss
        real_plan = scoring_module.scoring_plan

        def round_(*args, **kw):
            scored.append([])
            return real_round(*args, **kw)

        def loss_(params, datasets, test, *, cache):
            out = real_loss(params, datasets, test, cache=cache)
            scored[-1].append((list(datasets), test, cache.plans["scoring"]))
            return out

        def plan_(datasets, test):
            built.append(len(scored) - 1)
            return real_plan(datasets, test)

        monkeypatch.setattr(federation, "run_round", round_)
        monkeypatch.setattr(federation, "loss", loss_)
        monkeypatch.setattr(scoring_module, "scoring_plan", plan_)
        result = run_training(cfg, Algo("fedavg"), prepared)
        changed = []
        for t, calls in enumerate(scored):
            sampled = range(6) if m is None else sorted(
                spawn_rng(cfg.seed, "sample", t).choice(6, size=m, replace=False))
            want = [prepared.chunks[cid].dataset for cid in sampled if prepared.chunks[cid].n]
            (datasets, test, plan), = calls
            assert list(map(id, datasets)) == list(map(id, want)) and test is prepared.test
            assert plan.sizes.tolist() == [ds.n for ds in want] and plan.test is test
            assert np.isnan(result.rounds[t].mean_train_loss) == (not want)
            if t == 0 or list(map(id, datasets)) != list(map(id, scored[t - 1][0][0])):
                changed.append(t)
        assert len(scored) == cfg.rounds and built == changed
        assert any(calls[0][0] for calls in scored)
        assert m is None or not all(calls[0][0] for calls in scored)

    def test_full_participation_draws_no_sample(self, monkeypatch):
        """Under full participation the sampled clients are all of them, the
        sorted draw of all N, so the round draws no sample stream and logs
        the rounds the drawing reference does; a partial round still draws."""
        prepared = sized_world((5, 0, 13, 40, 22))
        streams = []
        real = federation.spawn_rng

        def spy(*key):
            streams.append(key[1])
            return real(*key)

        monkeypatch.setattr(federation, "spawn_rng", spy)
        for m in (None, 5):
            cfg = tiny_cfg(num_clients=5, clients_per_round=m, rounds=4, refresh_period=1)
            for kind in ("gcfl", "fedavg"):
                got = run_training(cfg, Algo(kind), prepared)
                assert got.rounds == reference_run(cfg, Algo(kind), prepared).rounds
        assert "sample" not in streams
        run_training(tiny_cfg(num_clients=5, clients_per_round=4), Algo("fedavg"), prepared)
        assert streams.count("sample") == 3

    def test_gcfl_refresh_never_builds_the_full_grad_stack(self, monkeypatch):
        import fedcoreset.coreset
        import fedcoreset.model

        def full_stack(*args):
            raise AssertionError("the server rows built the [n, C, h+1] gradient stack")

        for module in (fedcoreset.model, fedcoreset.coreset):
            monkeypatch.setattr(module, "last_layer_grad_stack", full_stack)
        for arch in ARCHS:
            cfg = tiny_cfg(model=ModelConfig(arch, hidden_dim=5), rounds=3, refresh_period=1)
            result = run_training(cfg, Algo("gcfl"), prepare_experiment(cfg))
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
                seeds=seed_words([derive_seed(cfg.seed, "client", 0, "round", t)]),
                mu=0.0, indices=[np.arange(ds.n)], cache=PlanCache(),
            )
            theta = theta.with_values(values)
        assert np.abs(fed.final_params.values - theta.values).max() <= 1e-12


class TestRunTraining:
    def test_zero_rounds(self):
        cfg = tiny_cfg(rounds=0)
        result = run_training(cfg, Algo("fedavg"), prepare_experiment(cfg))
        assert result.rounds == []
        expect = init_params(ModelConfig("softmax_regression"), 4, 4, derive_seed(cfg.seed, "init"))
        assert np.array_equal(result.final_params.values, expect.values)

    def test_bitwise_deterministic(self):
        cfg = tiny_cfg(noise=NoiseSpec("closed_set", 0.3), rounds=4)
        a = run_training(cfg, Algo("gcfl"), prepare_experiment(cfg))
        b = run_training(cfg, Algo("gcfl"), prepare_experiment(cfg))
        assert np.array_equal(a.final_params.values, b.final_params.values)
        for ra, rb in zip(a.rounds, b.rounds):
            assert ra.test_accuracy == rb.test_accuracy
            assert ra.mean_train_loss == rb.mean_train_loss
            assert ra.coreset_clean_fraction == rb.coreset_clean_fraction

    def test_rounds_strictly_increasing_and_complete(self):
        cfg = tiny_cfg(rounds=5)
        result = run_training(cfg, Algo("fedavg"), prepare_experiment(cfg))
        assert [rm.round for rm in result.rounds] == list(range(5))

    def test_clean_fraction_only_for_coreset_algos(self):
        cfg = tiny_cfg(rounds=2)
        assert all(
            rm.coreset_clean_fraction is None
            for rm in run_training(cfg, Algo("fedavg"), prepare_experiment(cfg)).rounds
        )
        assert all(
            rm.coreset_clean_fraction is not None
            for rm in run_training(cfg, Algo("random"), prepare_experiment(cfg)).rounds
        )

    def test_ledger_counters_monotone(self):
        cfg = tiny_cfg(rounds=6, refresh_period=2)
        result = run_training(cfg, Algo("gcfl"), prepare_experiment(cfg))
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
            result = run_training(cfg, Algo(kind), prepare_experiment(cfg))
            assert len(result.rounds) == 2


    @pytest.mark.parametrize("num_clients, rounds", [(4, 3), (300, 8), (1100, 2)])
    def test_client_seed_words_come_in_bounded_blocks(self, num_clients, rounds, monkeypatch):
        # every round's sampled clients' words once, in order, and no block
        # holds more than SEED_BLOCK streams unless one round's clients alone
        # are more
        blocks = []
        real = federation.client_seed_words

        def spy(master, clients, span):
            every, ts = np.broadcast_arrays(clients, span)
            assert every.size <= max(federation.SEED_BLOCK, num_clients)
            blocks.append((every.ravel().tolist(), ts.ravel().tolist()))
            return real(master, clients, span)

        monkeypatch.setattr(federation, "client_seed_words", spy)
        cfg = tiny_cfg(num_clients=num_clients, rounds=rounds, local_epochs=0)
        run_training(cfg, Algo("fedavg"), prepare_experiment(cfg))
        pairs = [pair for clients, span in blocks for pair in zip(span, clients)]
        assert pairs == [(t, c) for t in range(rounds) for c in range(num_clients)]
        assert len(blocks) == -(-rounds // max(1, federation.SEED_BLOCK // num_clients))

    @pytest.mark.parametrize("m", [None, 3])
    def test_trainees_get_their_streams_words(self, m, monkeypatch):
        """Only the sampled clients' streams are hashed, and every trainee's
        words are its entry of the grid of every client's words in every
        round; under partial participation a block holds SEED_BLOCK // m
        rounds."""
        hashed, trained = [], []
        real_words, real_update = federation.client_seed_words, federation.client_update

        def words_(master, clients, span):
            hashed.append(np.broadcast(clients, span).size)
            return real_words(master, clients, span)

        def update_(chunks, theta, indices, cfg, *, seeds, mu, cache):
            trained.append((list(map(id, chunks)), seeds.copy()))
            return real_update(chunks, theta, indices, cfg, seeds=seeds, mu=mu, cache=cache)

        monkeypatch.setattr(federation, "client_seed_words", words_)
        monkeypatch.setattr(federation, "client_update", update_)
        monkeypatch.setattr(federation, "SEED_BLOCK", 7)
        cfg = tiny_cfg(num_clients=8, clients_per_round=m, rounds=6, dirichlet_alpha=0.1)
        prepared = prepare_experiment(cfg)
        run_training(cfg, Algo("fedavg"), prepared)
        grid = client_seed_words(cfg.seed, np.arange(8), np.arange(cfg.rounds)[:, None])
        position = {id(chunk): c for c, chunk in enumerate(prepared.chunks)}
        assert len(trained) == cfg.rounds
        for t, (chunks, seeds) in enumerate(trained):
            assert np.array_equal(seeds, grid[t, [position[c] for c in chunks]])
        per_block = max(1, 7 // (m or 8))
        assert sum(hashed) == cfg.rounds * (m or 8)
        assert len(hashed) == -(-cfg.rounds // per_block)

    def test_non_finite_parameters_stop_the_arm(self):
        cfg = tiny_cfg(local_lr=1e300, global_lr=1e10, rounds=5, fine_tune_epochs=1)
        result = run_training(cfg, Algo("fedavg"), prepare_experiment(cfg))
        assert result.diverged_round == len(result.rounds) - 1
        assert not np.isfinite(result.final_params.values).all()
        assert result.fine_tuned_accuracy is None
        cfg = tiny_cfg(rounds=5)
        assert run_training(cfg, Algo("fedavg"), prepare_experiment(cfg)).diverged_round is None

    @pytest.mark.parametrize("rounds", [0, 2])
    def test_a_diverged_fine_tune_reports_no_accuracy(self, rounds):
        """A fine-tune that leaves a non-finite parameter is flagged and
        gives no accuracy, the reference agreeing, and numpy's warnings stay
        silent as in the rounds (tier-1 turns a RuntimeWarning into an
        error); the rounds, at E = 0 here, stand."""
        cfg = tiny_cfg(rounds=rounds, local_epochs=0, local_lr=1e308, fine_tune_epochs=3)
        prepared = prepare_experiment(cfg)
        result = run_training(cfg, Algo("fedavg"), prepared)
        want = reference_run(cfg, Algo("fedavg"), prepared)
        assert result.fine_tune_diverged and result.fine_tuned_accuracy is None
        assert want.fine_tune_diverged and want.fine_tuned_accuracy is None
        assert result.diverged_round is None and len(result.rounds) == rounds
        assert np.isfinite(result.final_params.values).all()
        tame = replace(cfg, local_lr=0.1)
        tuned = run_training(tame, Algo("fedavg"), prepared)
        assert not tuned.fine_tune_diverged and tuned.fine_tuned_accuracy is not None


class TestKeptPlan:
    """``run_training`` keeps the lock-step plan of local SGD, the scoring
    plan and the selection plan from round to round; that must change no
    bit, and no lock-step plan may outlive the rounds or sit under a
    selection."""

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
        """Run one arm, the plans kept or rebuilt at every call; returns its
        round-log bytes, final-parameter bytes, fine-tuned accuracy and the
        numbers of lock-step, scoring and selection plans built."""
        built = Counter()
        real_lockstep, real_scoring = model_module.lockstep_plan, scoring_module.scoring_plan
        real_selection = coreset_module.selection_plan

        def lockstep(*args):
            built["lockstep"] += 1
            return real_lockstep(*args)

        def scoring(*args):
            built["scoring"] += 1
            return real_scoring(*args)

        def selection(*args):
            built["selection"] += 1
            return real_selection(*args)

        class Rebuilding(PlanCache):
            def keep(self, *args, **kw):
                self.clear()
                return super().keep(*args, **kw)

        with monkeypatch.context() as patch:
            patch.setattr(model_module, "lockstep_plan", lockstep)
            patch.setattr(scoring_module, "scoring_plan", scoring)
            patch.setattr(coreset_module, "selection_plan", selection)
            if rebuild:
                patch.setattr(federation, "PlanCache", Rebuilding)
            result = run_training(cfg, algo, prepared)
        write_round_log(str(path), result.rounds)
        return (path.read_bytes(), result.final_params.values.tobytes(),
                result.fine_tuned_accuracy), built

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
        # gcfl refreshes at rounds 0, 2 and 4; the fine-tune builds one
        # lock-step plan and its accuracy one scoring plan on each side
        refreshes = 3 if kind == "gcfl" else 0
        assert builds == Counter(
            lockstep=cfg.rounds + 1, scoring=cfg.rounds + 1, selection=refreshes)
        if m is None:
            # the rows change only on a gcfl refresh, which drops only the
            # lock-step plan, and the scored and selecting chunks never:
            # round 0's lock-step plan or each refresh's, then the fine-tune's
            assert kept_builds == Counter(
                lockstep=(refreshes or 1) + 1, scoring=2, selection=min(refreshes, 1))
        else:
            for plan in ("lockstep", "scoring", "selection"):
                assert kept_builds[plan] <= builds[plan]

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("m", [None, 5])
    @pytest.mark.parametrize("kind", ["gcfl", "fedavg"])
    def test_each_plan_is_built_inside_its_kernels_call(self, kind, m, arch, monkeypatch):
        """Each kernel keys its own plan: every lock-step plan is built
        inside an ``sgd_epochs`` call, every scoring plan inside a ``loss``
        call and every selection plan inside a ``labelwise_omp_select``
        call, the fine-tune's and its accuracy's included, so each build
        falls in the span of the kernel the benchmark names."""
        prepared = sized_world(self.SIZES, dim=4)
        cfg = self.world_cfg(clients_per_round=m, model=ModelConfig(arch, hidden_dim=3))
        owners = {"lockstep": "sgd_epochs", "scoring": "loss", "selection": "labelwise_omp_select"}
        open_calls: list[str] = []
        builds: list[tuple[str, tuple]] = []

        def kernel(name, real):
            def call(*args, **kw):
                open_calls.append(name)
                try:
                    return real(*args, **kw)
                finally:
                    open_calls.pop()
            return call

        def builder(plan, real):
            def build(*args):
                builds.append((plan, tuple(open_calls)))
                return real(*args)
            return build

        for name in owners.values():
            monkeypatch.setattr(federation, name, kernel(name, getattr(federation, name)))
        # evaluate_accuracy's own call
        monkeypatch.setattr(scoring_module, "loss", kernel("loss", scoring_module.loss))
        for module, name, plan in ((model_module, "lockstep_plan", "lockstep"),
                                   (scoring_module, "scoring_plan", "scoring"),
                                   (coreset_module, "selection_plan", "selection")):
            monkeypatch.setattr(module, name, builder(plan, getattr(module, name)))
        run_training(cfg, Algo(kind), prepared)
        plans = {"lockstep", "scoring"} | ({"selection"} if kind == "gcfl" else set())
        assert {plan for plan, _ in builds} == plans
        assert all(calls == (owners[plan],) for plan, calls in builds), builds

    @pytest.mark.parametrize("period", [1, 2])
    @pytest.mark.parametrize("m", [None, 5])
    def test_one_selection_call_a_refresh_round_builds_its_plan(self, m, period, monkeypatch):
        """A gcfl run calls ``federation.labelwise_omp_select`` once per
        refresh round, the call the benchmark's span counts, and builds its
        selection plan inside that call: once per arm at m = N."""
        prepared = sized_world(self.SIZES, dim=4)
        cfg = self.world_cfg(rounds=6, refresh_period=period, clients_per_round=m)
        rounds, calls, built_inside, selecting = [], [], [], [False]
        real_round, real_select = federation.run_round, federation.labelwise_omp_select
        real_plan = coreset_module.selection_plan

        def round_(*args):
            rounds.append(args[6])
            return real_round(*args)

        def select(*args, **kw):
            calls.append(rounds[-1])
            selecting[0] = True
            try:
                return real_select(*args, **kw)
            finally:
                selecting[0] = False

        def plan(*args):
            built_inside.append(selecting[0])
            return real_plan(*args)

        monkeypatch.setattr(federation, "run_round", round_)
        monkeypatch.setattr(federation, "labelwise_omp_select", select)
        monkeypatch.setattr(coreset_module, "selection_plan", plan)
        run_training(cfg, Algo("gcfl"), prepared)
        assert calls == list(range(0, cfg.rounds, period))
        assert built_inside and all(built_inside)
        assert m is not None or len(built_inside) == 1

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
        result = run_training(cfg, Algo("gcfl"), prepare_experiment(cfg))
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
        result = run_training(cfg, Algo("fedavg"), prepare_experiment(cfg))
        assert result.fine_tuned_accuracy is not None
        assert 0.0 <= result.fine_tuned_accuracy <= 1.0
        untuned_cfg = replace(cfg, fine_tune_epochs=0)
        untuned = run_training(untuned_cfg, Algo("fedavg"), prepare_experiment(untuned_cfg))
        assert untuned.fine_tuned_accuracy is None


class TestCleanFraction:
    """A coreset arm's round logs the clean share of its sampled clients'
    training rows, pooled over the clients, from per-client counts kept
    beside the rows."""

    @staticmethod
    def fractions(cfg, prepared, kind="random"):
        rows = [
            federation._round0_rows(
                Algo(kind), c, chunk, federation._client_budget(chunk, cfg.budget_fraction),
                cfg.seed,
            )
            for c, chunk in enumerate(prepared.chunks)
        ]
        got = [rm.coreset_clean_fraction for rm in run_training(cfg, Algo(kind), prepared).rounds]
        return got, rows

    def test_all_clean_chunks(self):
        prepared = balanced_world(num_clients=4, per_class_per_client=5, num_classes=4)
        got, _ = self.fractions(tiny_cfg(num_clients=4, budget_fraction=0.5), prepared)
        assert got == [1.0] * 3

    def test_no_picked_row_is_vacuously_clean(self):
        prepared = sized_world((5, 0, 9, 12))
        got, rows = self.fractions(tiny_cfg(num_clients=4, budget_fraction=0.01), prepared)
        assert not any(r.size for r in rows) and got == [1.0] * 3

    def test_counts_clean_flags(self):
        prepared = sized_world((30,))
        got, (rows,) = self.fractions(tiny_cfg(num_clients=1, budget_fraction=0.8), prepared)
        flags = prepared.chunks[0].clean_flags[rows]
        assert 0 < flags.sum() < flags.size
        assert got == [flags.sum() / flags.size] * 3

    def test_pools_over_clients(self):
        # the pooled share of the sampled clients' rows, not the mean of the
        # clients' shares
        prepared = sized_world((40, 7, 0, 19, 25))
        cfg = tiny_cfg(num_clients=5, clients_per_round=3, budget_fraction=0.5, rounds=6)
        got, rows = self.fractions(cfg, prepared)
        for t, frac in enumerate(got):
            sampled = federation._sample(cfg, 5, t)
            clean = sum(int(prepared.chunks[c].clean_flags[rows[c]].sum()) for c in sampled)
            assert frac == clean / sum(rows[c].size for c in sampled)
        shares = [prepared.chunks[c].clean_flags[rows[c]].mean() for c in (0, 1, 3, 4)]
        assert got[0] != np.mean(shares[: len(got)])


class TestFinalAccuracy:
    @pytest.mark.parametrize("rounds, fine_tune, calls", [(3, 0, 3), (3, 5, 4), (0, 0, 1)])
    def test_test_set_evaluated_once_a_round(self, rounds, fine_tune, calls, monkeypatch):
        # a round's accuracy comes from its one scoring pass; the fine-tuned
        # model, or an arm without rounds, is evaluated on its own
        evaluated = []
        real_loss, real_evaluate = federation.loss, federation.evaluate_accuracy

        def loss_(*args, **kw):
            out = real_loss(*args, **kw)
            evaluated.append(out[1])
            return out

        def evaluate_(params, test):
            evaluated.append(real_evaluate(params, test))
            return evaluated[-1]

        monkeypatch.setattr(federation, "loss", loss_)
        monkeypatch.setattr(federation, "evaluate_accuracy", evaluate_)
        cfg = tiny_cfg(rounds=rounds, fine_tune_epochs=fine_tune)
        result = run_training(cfg, Algo("fedavg"), prepare_experiment(cfg))
        assert len(evaluated) == calls
        assert result.final_accuracy == evaluated[rounds - 1 if rounds else 0]
        assert [rm.test_accuracy for rm in result.rounds] == evaluated[:rounds]


class TestFineTune:
    """Server fine-tuning is ``sgd_epochs`` on the validation split."""

    @staticmethod
    def tune(params, val, epochs, lr, seed):
        """The fine-tune's call: every validation row, no FedProx pull."""
        (tuned,) = sgd_epochs(params, [val], epochs=epochs, lr=lr, batch_size=32,
                              seeds=seed_words([seed]), mu=0.0, indices=[np.arange(val.n)],
                              cache=PlanCache())
        return tuned

    def test_zero_epochs_identity(self):
        prepared = prepare_experiment(tiny_cfg())
        p = init_params(ModelConfig("softmax_regression"), 4, 4, seed=0)
        out = self.tune(p, prepared.val, epochs=0, lr=0.1, seed=0)
        assert np.array_equal(out, p.values)

    def test_loss_non_increasing_on_val(self):
        prepared = prepare_experiment(tiny_cfg())
        p = init_params(ModelConfig("softmax_regression"), 4, 4, seed=1)
        cache = PlanCache()
        before = loss(p, [prepared.val], prepared.test, cache=cache)[0]
        tuned = self.tune(p, prepared.val, epochs=50, lr=0.05, seed=2)
        assert loss(p.with_values(tuned), [prepared.val], prepared.test, cache=cache)[0] <= before


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

    def test_round_kernels_take_every_argument(self):
        """One calling convention: no parameter of a round kernel has a
        default, so every caller passes the arm's cache and every input."""
        from fedcoreset.coreset import labelwise_omp_select

        kernels = (sgd_epochs, model_module.lockstep_plan, loss, labelwise_omp_select,
                   client_update, federation.run_round)
        for fn in kernels:
            for name, param in inspect.signature(fn).parameters.items():
                assert param.default is inspect.Parameter.empty, f"{fn.__name__}({name})"

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
        client of a coreset arm whose budget rounds to 0.  Nor are the
        package's own results re-checked where they are built: the same
        calls assert their invariants (coresets, round metrics, the
        aggregate's layout, the prepared chunks, the SGD seed words)."""
        reached = {"sampled empty chunk": 0, "zero-budget client": 0}
        calls = Counter()

        def nonempty(params, ds):
            assert ds.n > 0

        def scored(params, datasets, test, *, cache):
            assert isinstance(cache, PlanCache)
            assert test.n > 0 and all(ds.n > 0 for ds in datasets)

        def labelwise(chunks, params, server_rows, budgets, *, lam, cache):
            assert isinstance(cache, PlanCache)
            assert len(budgets) == len(chunks) and min(budgets, default=1) >= 1
            for chunk in chunks:
                assert np.isin(chunk.dataset.labels, list(server_rows)).any()

        def round0_coreset(chunk, budget, *seed):
            assert 1 <= budget <= chunk.n

        def aggregate_(params, deltas, global_lr):
            assert len(deltas) and deltas.shape[1] == params.values.size

        def sgd(params, datasets, epochs, lr, batch_size, seeds, *, mu, indices, cache):
            assert isinstance(cache, PlanCache)
            rows = [len(i) for i in indices]
            assert rows and all(rows) and len(rows) == len(datasets)
            assert np.shape(seeds) == (len(rows), 4)

        def open_set(chunks, test, val, noise, seed):
            parts = [chunk.dataset for chunk in chunks] + [val]
            assert all(part.num_classes == test.num_classes for part in parts)

        def cost_ratio(ledger, fedavg):
            assert fedavg.sgd_sample_visits > 0

        def counted(params, prepared, train_rows, clean_counts, algo, cfg, t, ledger, sampled,
                    client_words, cache):
            chunks = prepared.chunks
            assert client_words.shape == (len(sampled), 4)
            assert clean_counts.tolist() == [
                np.count_nonzero(chunk.clean_flags[rows]) for chunk, rows in zip(chunks, train_rows)
            ]
            reached["sampled empty chunk"] += any(chunks[cid].n == 0 for cid in sampled)
            budgets = [federation._client_budget(chunks[cid], cfg.budget_fraction)
                       for cid in sampled if chunks[cid].n]
            reached["zero-budget client"] += algo.uses_coreset and min(budgets, default=1) < 1

        def coreset(cs, chunk):
            idx = cs.indices
            assert np.unique(idx).size == idx.size and ((idx >= 0) & (idx < chunk.n)).all()
            assert cs.weights.shape == idx.shape and (cs.weights >= 0).all()

        def selected(coresets, chunks, *inputs, **knobs):
            assert len(coresets) == len(chunks)
            for cs, chunk in zip(coresets, chunks):
                coreset(cs, chunk)

        def round0_selected(cs, chunk, *inputs):
            coreset(cs, chunk)

        def aggregated(new, params, deltas, global_lr):
            assert new.layout == params.layout
            assert new.values.size == sum(rows * cols for rows, cols in new.layout)

        def metered(out, *inputs, **knobs):
            _, rm = out
            assert 0.0 <= rm.test_accuracy <= 1.0
            frac = rm.coreset_clean_fraction
            assert frac is None or 0.0 <= frac <= 1.0

        def prepared_world(prepared, cfg):
            for chunk in prepared.chunks:
                assert chunk.clean_flags.shape == (chunk.n,)

        def check_calls(patch, module, name, check, result=None):
            real = getattr(module, name)

            def call(*args, **kwargs):
                calls[name] += 1
                check(*args, **kwargs)
                out = real(*args, **kwargs)
                if result is not None:
                    result(out, *args, **kwargs)
                return out

            patch.setattr(module, name, call)

        checks = {
            "loss": scored,
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
        results = {
            "labelwise_omp_select": selected,
            "random_select": round0_selected,
            "facility_location_select": round0_selected,
            "aggregate": aggregated,
            "run_round": metered,
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
                    check_calls(patch, federation, name, check, results.get(name))
                check_calls(patch, cli, "compute_cost_ratio", cost_ratio)
                check_calls(patch, cli, "prepare_experiment", lambda cfg: None, prepared_world)
                try:
                    assert cli.run(replace(cfg, arms=every_arm, output_dir=out)) == 0
                except ConfigurationError:
                    pass  # rejected before round 0: allowed

        every_call_keeps_the_contracts()
        assert all(reached.values()), reached
        kernels = [*checks, "compute_cost_ratio", "prepare_experiment"]
        assert all(calls[name] for name in kernels), calls
