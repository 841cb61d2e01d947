import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedcoreset.model as model_module
import fedcoreset.scoring as scoring_module
from fedcoreset.data import Dataset
from fedcoreset.errors import ConfigurationError
from fedcoreset.model import (
    ARCHS,
    ModelConfig,
    ParamVector,
    PlanCache,
    _blocks,
    _sgd_step,
    init_params,
    labelwise_validation_grads,
    last_layer_grad_stack,
    lockstep_plan,
    own_class_grads,
    sgd_epochs,
)
from fedcoreset.scoring import loss
from fedcoreset.seeding import seed_words
from reference import (
    class_major_loss,
    class_mean_rows,
    own_class_rows,
    reference_loss,
    reference_sgd,
)
from worldgen import blobs

# (model, input_dim, num_classes), the leading arguments of init_params
SOFTMAX = (ModelConfig("softmax_regression"), 10, 10)
HIDDEN = (ModelConfig("one_hidden", hidden_dim=7), 10, 10)


def random_dataset(n, dim, num_classes, seed):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.normal(size=(n, dim)), rng.integers(0, num_classes, size=n), num_classes
    )


def mean_loss(params: ParamVector, *datasets: Dataset) -> float:
    """The mean loss of ``datasets`` from the one scoring pass, the first
    standing in as its test set."""
    return loss(params, datasets, datasets[0], cache=PlanCache())[0]


def sgd(params: ParamVector, datasets, **knobs) -> np.ndarray:
    """``sgd_epochs`` on every row of each dataset, without a FedProx pull
    and with a fresh plan cache, unless ``knobs`` names them."""
    rows = [np.arange(ds.n) for ds in datasets]
    knobs = {"mu": 0.0, "indices": rows, "cache": PlanCache(), **knobs}
    return sgd_epochs(params, datasets, **knobs)


def fd_last_layer_grad(params: ParamVector, ds: Dataset, step=1e-5) -> np.ndarray:
    """Central finite differences of the mean loss w.r.t. last-layer params."""
    grad = np.zeros(params.blocks()[1].shape)
    for i in range(grad.size):
        plus = params.with_values(params.values.copy())
        plus.blocks()[1].flat[i] += step
        minus = params.with_values(params.values.copy())
        minus.blocks()[1].flat[i] -= step
        grad.flat[i] = (mean_loss(plus, ds) - mean_loss(minus, ds)) / (2 * step)
    return grad


class TestInit:
    def test_same_seed_identical(self):
        a = init_params(*SOFTMAX, seed=3)
        b = init_params(*SOFTMAX, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_softmax_param_count(self):
        p = init_params(*SOFTMAX, seed=0)
        assert p.values.size == 10 * 11
        hidden, out = p.blocks()
        assert hidden is None and out.shape == (10, 11)
        assert np.shares_memory(out, p.values)

    def test_hidden_layout(self):
        p = init_params(*HIDDEN, seed=0)
        assert p.values.size == 7 * 11 + 10 * 8
        hidden, out = p.blocks()
        assert hidden.shape == (7, 11)
        assert out.shape == (10, 7 + 1)  # penultimate width 7
        # the hidden block first, then the output block, as views
        hidden[...] = 1.0
        out[...] = 2.0
        assert np.array_equal(p.values, np.repeat([1.0, 2.0], [77, 80]))

    @pytest.mark.parametrize("spec", [SOFTMAX, HIDDEN])
    def test_biases_zero(self, spec):
        p = init_params(*spec, seed=1)
        for block in p.blocks():
            assert block is None or np.all(block[:, -1] == 0.0)

    def test_bad_spec(self):
        with pytest.raises(ConfigurationError):
            ModelConfig("resnet")
        with pytest.raises(ConfigurationError):
            ModelConfig("one_hidden", hidden_dim=0)


class TestLoss:
    def test_uniform_predictor_ln_k(self):
        ds = random_dataset(50, 10, 10, seed=0)
        p = init_params(*SOFTMAX, seed=0)
        zeros = p.with_values(np.zeros_like(p.values))
        assert mean_loss(zeros, ds) == pytest.approx(np.log(10), abs=1e-12)

    def test_large_margin_drives_loss_to_zero(self):
        # logits with margin 20 at the true class
        ds = Dataset(np.eye(4), np.arange(4), 4)
        p = init_params(ModelConfig("softmax_regression"), 4, 4, seed=0)
        p = p.with_values(np.zeros_like(p.values))
        p.blocks()[1][:, :4] = 20.0 * np.eye(4)
        assert mean_loss(p, ds) < 1e-3

    def test_mean_of_per_sample_losses(self):
        ds = random_dataset(16, 10, 10, seed=1)
        p = init_params(*SOFTMAX, seed=2)
        singles = [mean_loss(p, ds.subset([i])) for i in range(ds.n)]
        assert mean_loss(p, ds) == pytest.approx(np.mean(singles), rel=1e-12)

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize(
        "n, classes, scale",
        [(64, 10, 0.5), (64, 10, 3.0), (64, 10, 300.0), (1, 10, 3.0), (17, 1, 3.0)],
        ids=["params_0.5", "params_3", "logits_1e3", "one_sample", "one_class"],
    )
    def test_matches_sample_major_oracle(self, arch, n, classes, scale):
        # each sample's class sum is added in another order, which moves its
        # log by up to about `classes` ulps of 1; the other terms keep a
        # relative 1e-15
        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(40)
        for case in range(20):
            ds = random_dataset(n, 10, classes, seed=400 + case)
            p = init_params(ModelConfig(arch, hidden_dim=7), 10, classes, seed=case)
            p.values[:] = rng.normal(scale=scale, size=p.values.size)
            expect = reference_loss(p, ds)
            assert abs(mean_loss(p, ds) - expect) <= 1e-15 * abs(expect) + classes * eps

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("block", [None, 100], ids=["default_bound", "bound_100"])
    @pytest.mark.parametrize(
        "sizes",
        [(1,), (37,), (8600,), (1, 2, 1, 99, 1, 716, 1, 3000, 8600, 5, 1, 250, 4096, *[1] * 12)],
        ids=["one_row", "one_dataset", "largest_chunk", "round"],
    )
    def test_one_pass_equals_the_lone_passes(self, arch, block, sizes, monkeypatch):
        """Datasets held in arrays of their own: their loss is bit for bit
        the size-weighted mean of each dataset's lone class-major pass, and
        so is each dataset's mean (the weighting hides an ulp of a small
        dataset's), at 10 classes (where numpy sums a lone row's classes
        pairwise) and h = 64 on dim 50.  The passes take consecutive groups
        of at most the row bound, or one larger dataset alone."""
        if block is not None:
            monkeypatch.setattr(scoring_module, "LOSS_BLOCK", block)
        bound = scoring_module.LOSS_BLOCK
        groups, means = [], []
        one_pass = scoring_module._pass_means

        def spy(z, p):
            got = one_pass(z, p)
            if got:  # not a pass of the test set alone
                groups.append([len(x) for x, _ in p.parts[: len(got)]])
            means.extend(got)
            return got

        monkeypatch.setattr(scoring_module, "_pass_means", spy)
        rng = np.random.default_rng(len(sizes))
        p = init_params(ModelConfig(arch, hidden_dim=64), 50, 10, seed=len(sizes))
        p.values[:] = rng.normal(scale=0.3, size=p.values.size)
        datasets = [random_dataset(n, 50, 10, seed=i) for i, n in enumerate(sizes)]
        lone = [class_major_loss(p, ds) for ds in datasets]
        assert mean_loss(p, *datasets) == np.average(lone, weights=sizes)
        assert means == lone
        assert [n for group in groups for n in group] == list(sizes)
        assert all(sum(group) <= bound or len(group) == 1 for group in groups)
        # no two neighbouring groups would fit in one
        assert all(sum(a) + b[0] > bound for a, b in zip(groups, groups[1:]))


class TestSoftmax:
    @pytest.mark.parametrize("spec", [SOFTMAX, HIDDEN])
    def test_probabilities_normalized(self, spec):
        rng = np.random.default_rng(4)
        ds = random_dataset(64, 10, 10, seed=5)
        p = init_params(*spec, seed=6)
        p.values[:] = rng.normal(scale=3.0, size=p.values.size)
        # the bias column of a sample's gradient rows is softmax - one-hot
        probs = last_layer_grad_stack(p, ds)[:, :, -1]
        probs[np.arange(ds.n), ds.labels] += 1.0
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)


class TestLastLayerGrads:
    def test_near_one_hot_gives_near_zero_grad(self):
        ds = Dataset(np.eye(4)[:1], np.array([0]), 4)
        p = init_params(ModelConfig("softmax_regression"), 4, 4, seed=0)
        p.values[:] = 0.0
        p.blocks()[1][:, :4] = 50.0 * np.eye(4)
        g = last_layer_grad_stack(p, ds)[0]
        assert np.linalg.norm(g) < 1e-8

    @pytest.mark.parametrize("spec", [SOFTMAX, HIDDEN])
    def test_finite_difference_oracle(self, spec):
        # 10 random (params, sample) pairs per architecture here; the
        # acceptance suite runs the full 100-case sweep
        rng = np.random.default_rng(7)
        for case in range(10):
            ds = random_dataset(1, 10, 10, seed=100 + case)
            p = init_params(*spec, seed=200 + case)
            p.values[:] = rng.normal(scale=0.5, size=p.values.size)
            analytic = last_layer_grad_stack(p, ds)[0]
            fd = fd_last_layer_grad(p, ds)
            denom = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-12)
            assert np.abs(analytic - fd).max() / denom < 1e-5

    def test_mean_equals_average_of_per_sample(self):
        ds = random_dataset(12, 10, 10, seed=8)
        p = init_params(*SOFTMAX, seed=9)
        # each sample's gradient computed on its own takes another BLAS path,
        # so the batched mean may differ from their average in the last bit
        singles = np.stack([last_layer_grad_stack(p, ds.subset([i]))[0] for i in range(ds.n)])
        mean = last_layer_grad_stack(p, ds).mean(axis=0)
        assert np.allclose(mean, singles.mean(axis=0), rtol=0, atol=1e-15)

    def test_single_sample_mean_is_that_sample(self):
        ds = random_dataset(1, 10, 10, seed=10)
        p = init_params(*SOFTMAX, seed=11)
        stack = last_layer_grad_stack(p, ds)
        assert np.array_equal(stack.mean(axis=0), stack[0])

    def test_duplicated_dataset_same_mean(self):
        ds = random_dataset(6, 10, 10, seed=12)
        doubled = Dataset(
            np.concatenate([ds.features, ds.features]),
            np.concatenate([ds.labels, ds.labels]),
            ds.num_classes,
        )
        p = init_params(*SOFTMAX, seed=13)
        a = last_layer_grad_stack(p, ds).mean(axis=0)
        b = last_layer_grad_stack(p, doubled).mean(axis=0)
        assert np.allclose(a, b, atol=1e-15)

    @pytest.mark.parametrize("spec", [SOFTMAX, HIDDEN], ids=["softmax_regression", "one_hidden"])
    def test_own_class_rows_are_the_stack_entries(self, spec):
        # labels drawn from 0..7 of 10 classes, so classes 8 and 9 hold no sample
        rng = np.random.default_rng(21)
        for case in range(5):
            ds = Dataset(rng.normal(size=(40, 10)), rng.integers(0, 8, size=40), 10)
            p = init_params(*spec, seed=300 + case)
            p.values[:] = rng.normal(scale=0.5, size=p.values.size)
            rows = own_class_grads(p, ds)
            stack = last_layer_grad_stack(p, ds)
            assert rows.shape == (ds.n, stack.shape[2])
            assert np.array_equal(rows, stack[np.arange(ds.n), ds.labels])

    def test_own_class_rows_hold_one_logits_temporary(self):
        """The softmax runs in place in the logits and the rows are written
        straight into the result, so the peak is the [n, h+1] result, one
        [n, C] logits array and a few length-n vectors, where three [n, C]
        arrays and a copy of the [n, h+1] activations were alive before."""
        model, dim, classes = SOFTMAX
        n = 4000
        ds = random_dataset(n, dim, classes, seed=22)
        p = init_params(model, dim, classes, seed=23)
        own_class_grads(p, ds)  # numpy's lazy set-up is not counted
        tracemalloc.start()
        try:
            own_class_grads(p, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * (dim + 1 + classes + 4), peak / (8 * n)


class TestGradientRowBits:
    """The gradient rows selection matches, against the test-side 2-D
    forward pass bit for bit, at the benchmarks' shapes: chunks of about
    100 to 6,700 rows, 10 classes, softmax regression on 10 features and
    one hidden layer of 64 on 50."""

    @pytest.mark.parametrize("arch, dim", [("softmax_regression", 10), ("one_hidden", 50)])
    @pytest.mark.parametrize("n", [99, 716, 2048, 6724])
    def test_rows_equal_the_oracle(self, arch, dim, n):
        ds = random_dataset(n, dim, 10, seed=n)
        p = init_params(ModelConfig(arch, hidden_dim=64), dim, 10, seed=n)
        p.values[:] = np.random.default_rng(n).normal(scale=0.3, size=p.values.size)
        assert np.array_equal(own_class_grads(p, ds), own_class_rows(p, ds))
        got, want = labelwise_validation_grads(p, ds), class_mean_rows(p, ds)
        assert got.keys() == want.keys()
        for c in want:
            assert np.array_equal(got[c], want[c])


class TestLabelwiseGrads:
    def test_single_class_val(self):
        ds = random_dataset(8, 10, 10, seed=14)
        only = Dataset(ds.features, np.full(8, 3), 10)
        p = init_params(*SOFTMAX, seed=15)
        rows = labelwise_validation_grads(p, only)
        assert set(rows) == {3}
        assert rows[3].shape == (11,)

    def test_total_size_matches_full_broadcast(self):
        ds = blobs(10, 10, np.ones(10), 20, seed=16)
        p = init_params(*SOFTMAX, seed=17)
        rows = labelwise_validation_grads(p, ds)
        total = sum(r.size for r in rows.values())
        assert total == 10 * 11
        assert total == last_layer_grad_stack(p, ds)[0].size

    @pytest.mark.parametrize("arch", ARCHS)
    def test_row_equals_class_filtered_mean(self, arch):
        ds = blobs(5, 10, np.ones(5), 12, seed=18)
        p = init_params(ModelConfig(arch, hidden_dim=7), 10, 5, seed=19)
        rows = labelwise_validation_grads(p, ds)
        for c in range(5):
            class_ds = ds.subset(np.flatnonzero(ds.labels == c))
            expect = last_layer_grad_stack(p, class_ds).mean(axis=0)[c]
            assert np.array_equal(rows[c], expect)


class TestSgd:
    def test_zero_epochs_identity(self):
        ds = random_dataset(10, 10, 10, seed=20)
        p = init_params(*SOFTMAX, seed=21)
        (out,) = sgd(p, [ds], epochs=0, lr=0.1, batch_size=4, seeds=seed_words([0]))
        assert np.array_equal(out, p.values)

    def test_single_full_batch_step_matches_gradient(self):
        # for softmax regression the whole model is the last layer, so one
        # full-batch step must equal theta - lr * mean last-layer gradient
        ds = random_dataset(20, 10, 10, seed=22)
        p = init_params(*SOFTMAX, seed=23)
        (out,) = sgd(p, [ds], epochs=1, lr=0.05, batch_size=ds.n, seeds=seed_words([0]))
        expect = p.values - 0.05 * last_layer_grad_stack(p, ds).mean(axis=0).ravel()
        assert np.allclose(out, expect, atol=1e-12)

    def test_descent_on_blobs(self):
        ds = blobs(3, 4, [0.5, 0.5, 0.5], 30, seed=24)
        p = init_params(ModelConfig("softmax_regression"), 4, 3, seed=25)
        before = mean_loss(p, ds)
        (out,) = sgd(p, [ds], epochs=200, lr=0.1, batch_size=32, seeds=seed_words([1]))
        after = mean_loss(p.with_values(out), ds)
        assert after < 0.5 * before

    def test_deterministic(self):
        ds = random_dataset(25, 10, 10, seed=26)
        p = init_params(*HIDDEN, seed=27)
        (a,) = sgd(p, [ds], epochs=3, lr=0.1, batch_size=8, seeds=seed_words([5]))
        (b,) = sgd(p, [ds], epochs=3, lr=0.1, batch_size=8, seeds=seed_words([5]))
        assert np.array_equal(a, b)

    def test_prox_pulls_toward_anchor(self):
        # the anchor is the starting point
        ds = random_dataset(30, 10, 10, seed=28)
        p = init_params(*SOFTMAX, seed=29)
        start = p.values.copy()
        (plain,) = sgd(p, [ds], epochs=5, lr=0.2, batch_size=8, seeds=seed_words([6]))
        (proxed,) = sgd(p, [ds], epochs=5, lr=0.2, batch_size=8, seeds=seed_words([6]),
                               mu=2.0)
        assert np.array_equal(p.values, start)
        assert np.linalg.norm(proxed - start) < np.linalg.norm(plain - start)

    def test_one_hidden_trains(self):
        ds = blobs(3, 4, [0.5] * 3, 30, seed=32)
        p = init_params(ModelConfig("one_hidden", hidden_dim=8), 4, 3, seed=33)
        (out,) = sgd(p, [ds], epochs=100, lr=0.2, batch_size=16, seeds=seed_words([7]))
        assert mean_loss(p.with_values(out), ds) < 0.5 * mean_loss(p, ds)


@st.composite
def lockstep_cases(draw):
    """Clients of unequal sizes around the batch size: n = 1, n < B, and
    n mod B equal to 0, to 1 and to other values."""
    batch = draw(st.integers(1, 8))
    sizes = st.one_of(
        st.just(1),
        st.integers(1, batch),
        st.integers(1, 4).map(lambda k: k * batch),
        st.integers(1, 4).map(lambda k: k * batch + 1),
        st.integers(1, 40),
    )
    return dict(
        arch=draw(st.sampled_from(ARCHS)),
        dim=draw(st.integers(1, 5)),
        classes=draw(st.integers(1, 4)),
        sizes=draw(st.lists(sizes, min_size=1, max_size=6)),
        batch=batch,
        epochs=draw(st.integers(1, 3)),
        mu=draw(st.sampled_from((0.0, 0.05, 1.5))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestLockstepSgd:
    @settings(max_examples=150, deadline=None)
    @given(case=lockstep_cases())
    def test_each_client_equals_its_lone_run(self, case):
        rng = np.random.default_rng(case["seed"])
        model = ModelConfig(case["arch"], hidden_dim=3)
        p = init_params(model, case["dim"], case["classes"], seed=case["seed"])
        datasets = [random_dataset(n, case["dim"], case["classes"], seed=int(s))
                    for n, s in zip(case["sizes"], rng.integers(0, 2**32, len(case["sizes"])))]
        seeds = [int(s) for s in rng.integers(0, 2**63, len(datasets))]
        knobs = dict(epochs=case["epochs"], lr=0.1, batch_size=case["batch"], mu=case["mu"])
        trained = sgd(p, datasets, seeds=seed_words(seeds), **knobs)
        assert len(trained) == len(datasets)
        for ds, seed, theta in zip(datasets, seeds, trained):
            assert np.array_equal(theta, reference_sgd(p, ds, seed=seed, **knobs))

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("dim", [10, 50])
    @pytest.mark.parametrize("mu", [0.0, 0.1])
    def test_benchmark_shapes_equal_lone_runs(self, arch, dim, mu):
        # BLAS picks its kernels by shape, so replay the benchmarks' shapes:
        # C = 10, B = 32, h = 64, and partial last batches of 1, 2, 3, 5, 31
        # and 0 rows
        sizes = (1, 34, 67, 165, 63, 128, 33, 31)
        p = init_params(ModelConfig(arch, hidden_dim=64), dim, 10, seed=dim)
        datasets = [random_dataset(n, dim, 10, seed=i) for i, n in enumerate(sizes)]
        seeds = [1000 + i for i in range(len(sizes))]
        knobs = dict(epochs=2, lr=0.3, batch_size=32, mu=mu)
        trained = sgd(p, datasets, seeds=seed_words(seeds), **knobs)
        for ds, seed, theta in zip(datasets, seeds, trained):
            assert np.array_equal(theta, reference_sgd(p, ds, seed=seed, **knobs))

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("batch", [6, 32])
    def test_fused_tail_step_equals_lone_runs(self, arch, batch):
        # one run per residue mod the batch size, 0, 1, b - 1 and all
        # between, with 0 to 2 full batches besides: each epoch's one tail
        # step fuses partial batches of every size
        sizes = [r + (r % 3) * batch for r in range(1, batch)] + [batch, 2 * batch]
        p = init_params(ModelConfig(arch, hidden_dim=64), 10, 10, seed=batch)
        datasets = [random_dataset(n, 10, 10, seed=i) for i, n in enumerate(sizes)]
        seeds = [50 + i for i in range(len(sizes))]
        knobs = dict(epochs=2, lr=0.3, batch_size=batch, mu=0.5)
        trained = sgd(p, datasets, seeds=seed_words(seeds), **knobs)
        for ds, seed, theta in zip(datasets, seeds, trained):
            (alone,) = sgd(p, [ds], seeds=seed_words([seed]), **knobs)
            assert np.array_equal(theta, alone)
            assert np.array_equal(theta, reference_sgd(p, ds, seed=seed, **knobs))

    @pytest.mark.parametrize("arch, dim", [("softmax_regression", 10), ("one_hidden", 50)])
    @pytest.mark.parametrize("mu", [0.0, 0.1])
    def test_stacked_and_span_steps_agree(self, arch, dim, mu):
        """The step kernel's one split: c models on equal batches step bit
        for bit alike through the stacked products and through one row
        span per model, at the benchmarks' shapes (C = 10, B = 32, h =
        64)."""
        c, b, classes = 10, 32, 10
        rng = np.random.default_rng(dim)
        p = init_params(ModelConfig(arch, hidden_dim=64), dim, classes, seed=dim)
        stack = p.values + rng.normal(scale=0.3, size=(c, p.values.size))
        x1 = np.concatenate([rng.normal(size=(c, b, dim)), np.ones((c, b, 1))], axis=2)
        y = rng.integers(0, classes, size=(c, b))
        hot = np.arange(c * b) * classes
        spans = [(i, slice(i * b, (i + 1) * b)) for i in range(c)]
        stacked = [None if w is None else w.copy() for w in _blocks(stack, p.layout)]
        split = [None if w is None else w.copy() for w in stacked]
        for _ in range(2):
            _sgd_step(*stacked, ..., p.blocks(), x1, y, hot, 0.3, mu)
            _sgd_step(*split, np.arange(c), p.blocks(), x1.reshape(c * b, -1), y.reshape(-1),
                      hot, 0.3, mu, spans)
        for got, want in zip(split, stacked):
            assert (got is None and want is None) or np.array_equal(got, want)

    def test_kept_plan_step_holds_no_parameter_copy(self):
        """Peak memory of a call on a kept plan, 10 hidden runs each with a
        partial last batch, at mu 0.1.  The partial batches' update copies
        one layer of their models out and back at a time: the peak is
        about 4.0 times the [runs, P] stack of models, where a step that
        copied their whole parameters would reach about 5.1 times."""
        sizes = (33, 45, 57, 70, 81, 95, 100, 109, 115, 120)
        datasets = [random_dataset(n, 50, 10, seed=i) for i, n in enumerate(sizes)]
        p = init_params(ModelConfig("one_hidden", hidden_dim=64), 50, 10, seed=0)
        knobs = dict(epochs=2, lr=0.1, batch_size=32, seeds=seed_words(list(range(10))),
                     mu=0.1, cache=PlanCache())
        sgd(p, datasets, **knobs)  # builds the kept plan; numpy's lazy set-up
        tracemalloc.start()
        try:
            sgd(p, datasets, **knobs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stack = 8 * len(sizes) * p.values.size
        assert peak < 4.6 * stack, peak / stack

    def test_tail_step_peaks_no_higher_than_the_stacked_steps(self, monkeypatch):
        """Peak memory in each step of a kept-plan call, 10 hidden runs each
        with a partial last batch, at mu 0.1.  The partial batches' step
        makes the FedProx pull in the copy of their models' layer it reads,
        so it peaks no higher than the stacked steps (about 960 against
        1,025 KiB; holding the copy and the pull at once reads 1,214)."""
        sizes = (33, 45, 57, 70, 81, 95, 100, 109, 115, 120)
        datasets = [random_dataset(n, 50, 10, seed=i) for i, n in enumerate(sizes)]
        p = init_params(ModelConfig("one_hidden", hidden_dim=64), 50, 10, seed=0)
        knobs = dict(epochs=2, lr=0.1, batch_size=32, seeds=seed_words(list(range(10))),
                     mu=0.1, cache=PlanCache())
        sgd(p, datasets, **knobs)  # builds the kept plan; numpy's lazy set-up
        peaks = {"stacked": 0, "tail": 0}
        step = model_module._sgd_step

        def measured(*args):
            tracemalloc.reset_peak()
            step(*args)
            kind = "stacked" if args[2] is ... else "tail"
            peaks[kind] = max(peaks[kind], tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(model_module, "_sgd_step", measured)
        tracemalloc.start()
        try:
            sgd(p, datasets, **knobs)
        finally:
            tracemalloc.stop()
        assert 0 < peaks["tail"] <= peaks["stacked"], peaks

    @pytest.mark.parametrize("arch", ARCHS)
    def test_inputs_untouched(self, arch):
        p = init_params(ModelConfig(arch, hidden_dim=5), 4, 3, seed=1)
        datasets = [random_dataset(n, 4, 3, seed=n) for n in (9, 1, 16, 5)]
        before = p.values.tobytes(), [(ds.features.tobytes(), ds.labels.tobytes()) for ds in datasets]
        sgd(p, datasets, epochs=2, lr=0.3, batch_size=4, seeds=seed_words([1, 2, 3, 4]),
                   mu=0.5)
        after = p.values.tobytes(), [(ds.features.tobytes(), ds.labels.tobytes()) for ds in datasets]
        assert after == before

    def test_indices_train_on_those_rows(self):
        datasets = [random_dataset(n, 4, 3, seed=n) for n in (40, 7, 23)]
        rng = np.random.default_rng(0)
        indices = [rng.permutation(ds.n)[: ds.n // 2 + 1] for ds in datasets]
        p = init_params(ModelConfig("one_hidden", hidden_dim=5), 4, 3, seed=2)
        knobs = dict(epochs=2, lr=0.3, batch_size=4, seeds=seed_words([1, 2, 3]), mu=0.1)
        got = sgd(p, datasets, indices=indices, **knobs)
        want = sgd(p, [ds.subset(idx) for ds, idx in zip(datasets, indices)], **knobs)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("epochs", [0, 2])
    def test_returns_one_stack_in_input_order(self, arch, epochs):
        # sizes in no order of their full-batch counts, so the lock-step
        # stack order differs from the input order
        p = init_params(ModelConfig(arch, hidden_dim=5), 4, 3, seed=3)
        datasets = [random_dataset(n, 4, 3, seed=n) for n in (3, 17, 9, 26)]
        seeds = [4, 5, 6, 7]
        knobs = dict(epochs=epochs, lr=0.3, batch_size=4)
        got = sgd(p, datasets, seeds=seed_words(seeds), **knobs)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.shape == (4, p.values.size) and got.flags.c_contiguous
        for row, ds, seed in zip(got, datasets, seeds):
            (alone,) = sgd(p, [ds], seeds=seed_words([seed]), **knobs)
            assert np.array_equal(row, alone)
            assert np.array_equal(row, reference_sgd(p, ds, seed=seed, **knobs))


class TestPlanCache:
    def setup_method(self):
        self.params = init_params(ModelConfig("one_hidden", hidden_dim=5), 4, 3, seed=8)
        self.datasets = [random_dataset(n, 4, 3, seed=n) for n in (21, 6, 13)]
        self.knobs = dict(epochs=2, lr=0.3, mu=0.1)

    def train(self, indices, seeds, cache=None, datasets=None, batch_size=4):
        return sgd_epochs(self.params, datasets or self.datasets, seeds=seed_words(seeds),
                          indices=indices, cache=cache or PlanCache(), batch_size=batch_size,
                          **self.knobs)

    def test_kept_plan_serves_calls_on_the_same_rows(self):
        cache = PlanCache()
        indices = [np.arange(ds.n)[::2] for ds in self.datasets]
        self.train(indices, [1, 2, 3], cache)
        plan = cache.plans["lockstep"]
        for seeds in ([1, 2, 3], [4, 5, 6]):
            got = self.train(list(indices), seeds, cache, list(self.datasets))
            assert np.array_equal(got, self.train(indices, seeds))
            assert cache.plans["lockstep"] is plan

    def test_new_rows_or_batch_size_build_a_new_plan(self):
        cache = PlanCache()
        rows = [np.arange(ds.n)[1::2] for ds in self.datasets]
        self.train(rows, [1, 2, 3], cache)
        # index vectors are compared by identity, not value
        for change in (
            lambda: ([idx.copy() for idx in rows], self.datasets),
            lambda: ([rows[0], np.arange(5), rows[2]], self.datasets),
            lambda: (rows[:2], self.datasets[:2]),
            lambda: (rows[::-1], self.datasets[::-1]),
        ):
            plan = cache.plans["lockstep"]
            indices, datasets = change()
            seeds = [7, 8, 9][: len(indices)]
            got = self.train(indices, seeds, cache, datasets)
            assert cache.plans["lockstep"] is not plan
            assert np.array_equal(got, self.train(indices, seeds, datasets=datasets))
        plan = cache.plans["lockstep"]
        self.train(indices, seeds, cache, datasets, batch_size=5)
        assert cache.plans["lockstep"] is not plan

    def test_plan_owns_its_rows(self):
        plan = lockstep_plan(self.datasets, 4, [np.arange(ds.n) for ds in self.datasets])
        for ds in self.datasets:
            assert not np.shares_memory(plan.table, ds.features)
            assert not np.shares_memory(plan.labels, ds.labels)
        assert np.array_equal(plan.table[:, -1], np.ones(sum(ds.n for ds in self.datasets)))

    def test_keep_compares_same_by_identity_and_equal_by_value(self):
        """A slot's plan is kept while its ``same`` objects are the very
        ones and its ``equal`` values equal; otherwise the kept plan is
        dropped before the new one is built, and other slots are left be."""

        class Plan:  # weakly referable
            pass

        cache, built = PlanCache(), []

        def build():
            assert all(ref() is None for ref in built)  # the kept plan is gone
            plan = Plan()
            built.append(weakref.ref(plan))
            return plan

        rows, other = np.arange(3), cache.keep("other", Plan)
        kept = cache.keep("slot", build, same=(rows,), equal=((1, 2),))
        assert cache.keep("slot", build, same=(rows,), equal=(tuple([1, 2]),)) is kept
        del kept
        for same, equal in (((rows,), ((1, 3),)), ((rows.copy(),), ((1, 3),))):
            cache.keep("slot", build, same=same, equal=equal)
        assert len(built) == 3 and cache.plans["other"] is other
        cache.drop("slot")
        assert "slot" not in cache.plans and cache.plans["other"] is other

    def test_clear_drops_the_plan(self):
        cache = PlanCache()
        self.train([np.arange(ds.n) for ds in self.datasets], [1, 2, 3], cache)
        ref = weakref.ref(cache.plans["lockstep"])
        cache.keep("other", lambda: [1])
        cache.clear()
        assert not cache.plans and ref() is None