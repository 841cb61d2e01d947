import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcoreset import coreset
from fedcoreset.coreset import (
    Coreset,
    facility_location_select,
    labelwise_omp_select,
    omp_select,
    random_select,
)
from fedcoreset.data import ClientChunk, Dataset, NoiseSpec, dirichlet_partition, inject_closed_set
from fedcoreset.model import (
    ModelConfig,
    init_params,
    labelwise_validation_grads,
    last_layer_grad_stack,
)
from reference import reference_facility_greedy, reference_labelwise
from worldgen import blobs


def chunk_of(ds: Dataset, client_id: int = 0) -> ClientChunk:
    return ClientChunk(ds, np.ones(ds.n, dtype=bool), client_id)


def select_one(chunk, params, server_rows, budget, lam) -> Coreset:
    """``labelwise_omp_select`` of a round with this one client."""
    (cs,) = labelwise_omp_select([chunk], params, server_rows, [budget], lam=lam)
    return cs


def ridge_solution(columns: np.ndarray, target: np.ndarray, lam: float) -> np.ndarray:
    """Independent unclipped ridge LS solve on the augmented system."""
    d, k = columns.shape
    aug = np.vstack([columns, np.sqrt(lam) * np.eye(k)]) if lam > 0 else columns
    rhs = np.concatenate([target, np.zeros(k)]) if lam > 0 else target
    w, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    return w


def ridge_weights_oracle(columns: np.ndarray, target: np.ndarray, lam: float) -> np.ndarray:
    """The ridge solution, clipped to nonnegative weights."""
    return np.maximum(ridge_solution(columns, target, lam), 0.0)


def weighted_error(columns: np.ndarray, target: np.ndarray, lam: float) -> float:
    """min_w lam*||w||^2 + ||columns@w - target||^2 (unclipped optimum)."""
    w = ridge_solution(columns, target, lam)
    return lam * float(w @ w) + float(np.sum((columns @ w - target) ** 2))


def reference_greedy(cands: np.ndarray, target: np.ndarray, budget: int, lam: float) -> list[int]:
    """Support of the plain greedy: a k x k normal-equation solve by lstsq per step."""
    selected: list[int] = []
    residual = target
    while len(selected) < min(budget, len(cands)) and np.linalg.norm(residual) > 0:
        dist = np.linalg.norm(cands - residual, axis=1)
        dist[selected] = np.inf
        selected.append(int(np.argmin(dist)))
        cols = cands[selected].T
        gram = cols.T @ cols + lam * np.eye(len(selected))
        w, *_ = np.linalg.lstsq(gram, cols.T @ target, rcond=None)
        residual = target - cols @ w
    return selected


class TestOmpHandExamples:
    def test_target_equals_a_candidate(self):
        cs = omp_select([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                        np.array([1.0, 0.0]), budget=1, lam=0.0)
        assert list(cs.indices) == [0]
        assert cs.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert cs.residual_norms[-1] == pytest.approx(0.0, abs=1e-12)

    def test_greedy_prefers_nearest_and_stops_at_tol(self):
        cands = [np.array([2.0, 0.0]), np.array([0.0, 2.0]), np.array([1.0, 1.0])]
        cs = omp_select(cands, np.array([1.0, 1.0]), budget=1, lam=0.0)
        assert list(cs.indices) == [2]
        assert cs.weights[0] == pytest.approx(1.0, abs=1e-10)

    def test_zero_target_returns_empty(self):
        cs = omp_select([np.array([1.0, 0.0])], np.zeros(2), budget=1, lam=0.0)
        assert cs.size == 0

    def test_duplicate_rows_with_tiny_lambda(self):
        # lam far below the gram's rounding leaves the normal equations of
        # the two copies exactly singular
        cands = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -5.0, 0.0],
                          [0.0, 0.0, -5.0]])
        cs = omp_select(cands, np.array([3.0, 1.0, 0.0]), budget=3, lam=1e-20)
        assert list(cs.indices) == [0, 1, 3]
        assert np.abs(cs.weights - [1.5, 1.5, 0.0]).max() < 1e-12

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            omp_select([], np.array([1.0]), budget=1, lam=0.5)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            omp_select([np.array([1.0, 0.0])], np.array([1.0, 0.0, 0.0]), budget=1,
                       lam=0.5)


class TestOmpVsExhaustive:
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_greedy_never_beats_best_subset(self, lam):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n, d, budget = 8, 4, 3
            cands = rng.normal(size=(n, d))
            target = rng.normal(size=d)
            cs = omp_select(cands, target, budget=budget, lam=lam)
            greedy_err = weighted_error(cands[cs.indices].T, target, lam)
            best = min(
                weighted_error(cands[list(sub)].T, target, lam)
                for k in range(1, budget + 1)
                for sub in combinations(range(n), k)
            )
            assert greedy_err >= best - 1e-9

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
    def test_weights_match_ridge_oracle_on_support(self, lam):
        rng = np.random.default_rng(7)
        for trial in range(25):
            cands = rng.normal(size=(12, 5))
            target = rng.normal(size=5)
            cs = omp_select(cands, target, budget=4, lam=lam)
            oracle = ridge_weights_oracle(cands[cs.indices].T, target, lam)
            assert np.abs(cs.weights - oracle).max() < 1e-8


class TestOmpSupportWiderThanGradient:
    """Budgets of 2d-3d, so the ridge solve crosses from k x k to d x d."""

    @pytest.mark.parametrize("lam", [0.1, 0.5])
    def test_matches_reference_greedy_and_ridge_oracle(self, lam):
        rng = np.random.default_rng(11)
        for trial in range(25):
            d = 4
            cands = rng.normal(size=(30, d))
            target = rng.normal(size=d)
            budget = int(rng.integers(2 * d, 3 * d + 1))
            cs = omp_select(cands, target, budget=budget, lam=lam)
            assert list(cs.indices) == reference_greedy(cands, target, budget, lam)
            oracle = ridge_weights_oracle(cands[cs.indices].T, target, lam)
            assert np.abs(cs.weights - oracle).max() < 1e-8


class TestOmpProperties:
    def test_residual_monotone_at_lam_zero(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            cands = rng.normal(size=(20, 8))
            target = rng.normal(size=8)
            cs = omp_select(cands, target, budget=6, lam=0.0)
            norms = cs.residual_norms
            assert all(norms[i + 1] <= norms[i] + 1e-10 for i in range(len(norms) - 1))

    @given(
        seed=st.integers(0, 10_000),
        budget=st.integers(1, 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_budget_law_and_determinism(self, seed, budget):
        rng = np.random.default_rng(seed)
        cands = rng.normal(size=(9, 5))
        target = rng.normal(size=5)
        a = omp_select(cands, target, budget=budget, lam=0.5)
        b = omp_select(cands, target, budget=budget, lam=0.5)
        assert a.size <= budget
        assert np.unique(a.indices).size == a.size
        assert np.all(a.weights >= 0)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)

    def test_scale_equivariance_at_lam_zero(self):
        rng = np.random.default_rng(3)
        cands = rng.normal(size=(15, 6))
        target = rng.normal(size=6)
        a = omp_select(cands, target, budget=5, lam=0.0)
        b = omp_select(37.5 * cands, 37.5 * target, budget=5, lam=0.0)
        assert np.array_equal(a.indices, b.indices)

    def test_tie_break_lowest_index(self):
        cands = [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        for lam in (0.0, 0.5):
            cs = omp_select(cands, np.array([2.0, 0.0]), budget=1, lam=lam)
            assert list(cs.indices) == [0]

    def test_tie_break_lowest_index_once_support_exceeds_dim(self):
        # Three copies of one row, nearest to the residual of the first solve
        # with k = 3 > d = 2: the lowest copy must be the 4th pick.
        lam, prefix = 0.5, 3
        rng = np.random.default_rng(24)
        base = rng.normal(size=(10, 2))
        target = 3.0 * rng.normal(size=2)
        first = omp_select(base, target, prefix, lam=lam)
        support = base[first.indices].T
        copy = target - support @ ridge_solution(support, target, lam)
        cands = np.insert(base, [1, 4, 10], copy, axis=0)
        copies = [1, 5, 12]
        before = omp_select(cands, target, prefix, lam=lam)
        assert before.size == prefix and not set(before.indices) & set(copies)

        cs = omp_select(cands, target, prefix + 1, lam=lam)
        assert list(cs.indices[:prefix]) == list(before.indices)
        assert list(cs.indices[prefix:]) == copies[:1]


class TestLabelwise:
    def setup_method(self):
        self.ds = blobs(5, 6, np.ones(5), 30, seed=0)
        self.chunk = chunk_of(self.ds)
        self.params = init_params(ModelConfig("softmax_regression"), 6, 5, seed=1)

    def rows(self, classes=range(5)):
        rng = np.random.default_rng(9)
        return {c: rng.normal(size=7) for c in classes}

    def test_single_class_client_gets_whole_budget(self):
        only = Dataset(self.ds.features[:20], np.full(20, 2), 5)
        chunk = chunk_of(only)
        cs = select_one(chunk, self.params, self.rows(), budget=8, lam=0.0)
        assert cs.size == 8
        assert set(chunk.dataset.labels[cs.indices]) == {2}

    def test_budget_split_remainder_to_largest(self):
        # counts: class 0 -> 40, class 1 -> 35, classes 2..4 -> 25 each
        labels = np.concatenate([
            np.zeros(40), np.ones(35), np.full(25, 2), np.full(25, 3), np.full(25, 4),
        ]).astype(int)
        rng = np.random.default_rng(5)
        chunk = chunk_of(Dataset(rng.normal(size=(150, 6)), labels, 5))
        cs = select_one(chunk, self.params, self.rows(), budget=12, lam=0.0)
        classes, counts = np.unique(chunk.dataset.labels[cs.indices], return_counts=True)
        sizes = dict(zip(classes.tolist(), counts.tolist()))
        assert sizes == {0: 3, 1: 3, 2: 2, 3: 2, 4: 2}
        assert cs.size == 12

    def test_candidate_rows_are_single_class_sized(self):
        rows = self.rows()
        assert all(r.size == 6 + 1 for r in rows.values())
        assert 6 + 1 < 5 * (6 + 1)

    def test_missing_server_class_budget_redistributed(self):
        rows = self.rows(classes=[0, 1])  # server only broadcasts 2 of 5 classes
        cs = select_one(self.chunk, self.params, rows, budget=10, lam=0.0)
        assert set(self.chunk.dataset.labels[cs.indices]) <= {0, 1}
        assert cs.size == 10

    def test_per_class_budgets_sum_to_total(self):
        cs = select_one(self.chunk, self.params, self.rows(), budget=13, lam=0.5)
        labels = self.chunk.dataset.labels[cs.indices]
        assert np.bincount(labels, minlength=5).sum() == cs.size
        assert cs.size <= 13
        # selections land inside their own class: one block per class, in order
        assert np.all(np.diff(labels) >= 0)

    def test_residual_norms_are_the_per_class_traces_in_class_order(self):
        # budget 13 over 5 classes: class 0..2 get 3, classes 3, 4 get 2
        cs = select_one(self.chunk, self.params, self.rows(), budget=13, lam=0.5)
        stack = last_layer_grad_stack(self.params, self.ds)
        labels = self.ds.labels
        expected = []
        for c, share in enumerate([3, 3, 3, 2, 2]):
            local = np.flatnonzero(labels == c)
            sub = omp_select(stack[local, c, :], self.rows()[c], share, lam=0.5)
            expected.extend(sub.residual_norms)
        assert cs.residual_norms == tuple(expected)
        assert len(cs.residual_norms) == cs.size  # one pick per re-solve


class TestLabelwiseLockstep:
    """The batched label-wise kernel against one ``reference_omp`` loop per
    class, on random candidate rows put in place of the model's own-class
    rows: equal supports, weights and residual traces within 1e-12, and a
    per-class fit that never gets worse.  At lam = 0 that is the residual
    norm; at lam > 0 it is the ridge objective lam ||w||^2 + ||r||^2, as
    the residual norm alone can rise."""

    KINDS = ("gaussian", "rounded", "duplicated", "zero_share", "few_candidates",
             "zero_residual", "lam_zero", "singular", "dominant")

    @staticmethod
    def make_case(rng: np.random.Generator, kind: str, d: int | None = None):
        """(rows, labels, server_rows, budget, lam) of one random chunk, with
        rows of length ``d`` (drawn from 3-12 if not given)."""
        classes = int(rng.integers(2, 6))
        d = int(rng.integers(3, 13)) if d is None else d
        sizes = rng.integers(1, 40, size=classes)
        if kind == "dominant":
            sizes[rng.integers(classes)] = rng.integers(200, 400)
        if kind == "few_candidates":
            sizes[rng.integers(classes)] = rng.integers(1, 3)
        if kind == "singular":
            sizes[0] = 4
        labels = np.repeat(np.arange(classes), sizes)
        rng.shuffle(labels)
        rows = rng.normal(size=(len(labels), d))
        targets = {c: 2.0 * rng.normal(size=d) for c in range(classes)}
        budget = int(rng.integers(classes, 3 * classes * d + 1))
        lam = float(rng.choice([0.1, 0.5]))
        first = np.flatnonzero(labels == 0)
        if kind == "rounded":  # exact ties of distinct rows at the first pick
            rows = np.round(rows)
            targets = {c: np.round(t) for c, t in targets.items()}
        elif kind == "duplicated":
            protos = rng.normal(size=(max(1, len(labels) // 6), d))
            rows = protos[rng.integers(0, len(protos), len(labels))]
        elif kind == "zero_share":
            budget = int(rng.integers(1, classes))
        elif kind == "few_candidates":
            budget = classes * int(rng.integers(4, 12))
        elif kind == "zero_residual":
            # class 0 fits its target exactly with its first pick at lam = 0
            lam = 0.0
            rows[first] += 10.0
            rows[first[0]] = np.eye(d)[0]
            targets[0] = 2.0 * np.eye(d)[0]
            budget = classes * int(rng.integers(2, 8))
        elif kind == "lam_zero":
            lam = 0.0
        elif kind == "singular":
            # two copies of a row: their 2 x 2 system at lam = 1e-20 is
            # exactly singular, in a step shared with the other classes
            lam = 1e-20
            rows[first] = np.vstack([np.eye(d)[0], np.eye(d)[0],
                                     -5.0 * np.eye(d)[1], -5.0 * np.eye(d)[2]])
            targets[0] = np.eye(d)[0] * 3.0 + np.eye(d)[1]
            budget = classes * 3
        return rows, labels, targets, budget, lam

    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_per_class_reference(self, kind, monkeypatch):
        rng = np.random.default_rng(self.KINDS.index(kind))
        solve_ridge = coreset._solve_ridge
        fallbacks = []

        def spy(columns, target, lam):
            fallbacks.append(lam)
            return solve_ridge(columns, target, lam)

        seen_zero = False
        for _ in range(40):
            rows, labels, targets, budget, lam = self.make_case(rng, kind)
            n, classes = len(labels), len(targets)
            chunk = chunk_of(Dataset(rng.normal(size=(n, 2)), labels, classes))
            params = init_params(ModelConfig("softmax_regression"), 2, classes, seed=0)
            monkeypatch.setattr(coreset, "own_class_grads", lambda p, ds: rows)
            monkeypatch.setattr(coreset, "_solve_ridge", spy)
            cs = select_one(chunk, params, targets, budget, lam)
            monkeypatch.setattr(coreset, "_solve_ridge", solve_ridge)
            ref = reference_labelwise(rows, labels, targets, budget, lam)

            assert np.array_equal(cs.indices, ref.indices), (kind, budget)
            assert np.abs(cs.weights - ref.weights).max(initial=0.0) <= 1e-12
            gap = np.subtract(cs.residual_norms, ref.residual_norms)
            assert np.abs(gap).max(initial=0.0) <= 1e-12
            picked, counts = np.unique(labels[cs.indices], return_counts=True)
            cuts = np.cumsum(counts)[:-1]
            traces = np.split(np.asarray(cs.residual_norms), cuts)
            for c, support, trace in zip(picked, np.split(cs.indices, cuts), traces):
                fits = trace if lam == 0 else [
                    weighted_error(rows[support[:k]].T, targets[c], lam)
                    for k in range(1, len(support) + 1)
                ]
                assert np.all(np.diff(fits) <= 1e-10), (kind, fits)
            if kind == "zero_residual":
                zero = [t for c, t in zip(picked, traces) if c == 0]
                seen_zero |= bool(zero) and zero[0].tolist() == [0.0] and counts.max() > 1
        if kind == "zero_residual":
            assert seen_zero
        if kind == "singular":
            assert 1e-20 in fallbacks
        if kind == "lam_zero":
            assert fallbacks and set(fallbacks) == {0.0}

    def test_stacked_solve_is_solve_ridge_bit_for_bit(self):
        """What the weights' equality rests on: numpy runs a stacked matmul
        or solve one system at a time, as the unstacked call does, on both
        sides of the k = d switch."""
        rng = np.random.default_rng(26)
        for d in (2, 5, 11):
            for k in (1, d, d + 1, 3 * d):
                supports = rng.normal(size=(4, k, d))
                targets = rng.normal(size=(4, d))
                stacked = coreset._solve_stacked(supports, targets, 0.5)
                for support, target, w in zip(supports, targets, stacked):
                    assert np.array_equal(w, coreset._solve_ridge(support.T, target, 0.5)), (d, k)


class TestRoundWide:
    """One selection call for all the clients of a round: each client's
    coreset is that client's ``reference_labelwise`` (supports equal,
    weights and residual traces within 1e-12), the same bits whichever
    clients are selected with it, and the packed stacks cost about the
    real candidate rows in memory however skewed the classes are."""

    KINDS = TestLabelwiseLockstep.KINDS + ("shared_rows",)

    @staticmethod
    def make_round(rng: np.random.Generator, kind: str):
        """([(rows, labels, budget)] of 1-5 clients, server_rows, lam).

        Every client's case is ``make_case`` of ``kind`` at one shared row
        length; the server rows are the first case's, then the other cases'
        for classes the first lacks.  ``shared_rows``: the later clients hold
        copies of rows and labels of the first client."""
        d = int(rng.integers(3, 13))
        base = "gaussian" if kind == "shared_rows" else kind
        cases = [TestLabelwiseLockstep.make_case(rng, base, d) for _ in range(rng.integers(1, 6))]
        clients = [(rows, labels, budget) for rows, labels, _, budget, _ in cases]
        if kind == "shared_rows":
            rows, labels, _ = clients[0]
            for i in range(1, len(clients)):
                take = rng.permutation(len(labels))[: rng.integers(1, len(labels) + 1)]
                clients[i] = (rows[take], labels[take], clients[i][2])
        server_rows: dict[int, np.ndarray] = {}
        for case in cases:
            for c, row in case[2].items():
                server_rows.setdefault(c, row)
        return clients, server_rows, cases[0][4]

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_client_equals_its_reference(self, kind, monkeypatch):
        rng = np.random.default_rng(100 + self.KINDS.index(kind))
        for _ in range(15):
            clients, server_rows, lam = self.make_round(rng, kind)
            classes = len(server_rows)
            chunks = [
                chunk_of(Dataset(rng.normal(size=(len(labels), 2)), labels, classes), i)
                for i, (_, labels, _) in enumerate(clients)
            ]
            rows_of = {id(chunk.dataset): rows for chunk, (rows, _, _) in zip(chunks, clients)}
            monkeypatch.setattr(coreset, "own_class_grads", lambda p, ds: rows_of[id(ds)])
            params = init_params(ModelConfig("softmax_regression"), 2, classes, seed=0)
            budgets = [budget for _, _, budget in clients]
            got = labelwise_omp_select(chunks, params, server_rows, budgets, lam=lam)
            assert len(got) == len(chunks)
            for (rows, labels, budget), cs in zip(clients, got):
                ref = reference_labelwise(rows, labels, server_rows, budget, lam)
                assert np.array_equal(cs.indices, ref.indices), (kind, budget)
                assert np.abs(cs.weights - ref.weights).max(initial=0.0) <= 1e-12
                gap = np.subtract(cs.residual_norms, ref.residual_norms)
                assert np.abs(gap).max(initial=0.0) <= 1e-12

    @staticmethod
    def world(seed: int):
        """Six skewed Dirichlet(0.3) chunks, model parameters and the
        server's rows of one refresh round."""
        rng = np.random.default_rng(seed)
        ds = blobs(6, 5, np.ones(6), 90, seed=seed)
        order = rng.permutation(ds.n)
        chunks = [c for c in dirichlet_partition(ds.subset(order[60:]), 6, 0.3, seed) if c.n >= 5]
        params = init_params(ModelConfig("softmax_regression"), 5, 6, seed=seed)
        params.values[:] = rng.normal(scale=0.5, size=params.values.size)
        server_rows = labelwise_validation_grads(params, ds.subset(order[:60]))
        budgets = [max(1, round(0.2 * c.n)) for c in chunks]
        return chunks, params, server_rows, budgets

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_client_bits_do_not_depend_on_the_others(self, lam):
        rng = np.random.default_rng(31)
        for seed in range(3):
            chunks, params, server_rows, budgets = self.world(seed)
            whole = labelwise_omp_select(chunks, params, server_rows, budgets, lam=lam)
            for _ in range(6):
                some = rng.permutation(len(chunks))[: rng.integers(1, len(chunks) + 1)]
                part = labelwise_omp_select([chunks[i] for i in some], params, server_rows,
                                            [budgets[i] for i in some], lam=lam)
                for i, cs in zip(some, part):
                    assert np.array_equal(cs.indices, whole[i].indices)
                    assert np.array_equal(cs.weights, whole[i].weights)
                    assert cs.residual_norms == whole[i].residual_norms

    def test_budget_per_chunk_and_empty_rounds(self):
        chunks, params, server_rows, budgets = self.world(0)
        assert labelwise_omp_select([], params, server_rows, [], lam=0.5) == []
        zero = {c: np.zeros_like(row) for c, row in server_rows.items()}
        (cs,) = labelwise_omp_select(chunks[:1], params, zero, budgets[:1], lam=0.5)
        assert cs.size == 0 and cs.residual_norms == ()

    def test_peak_memory_near_the_real_candidate_rows(self):
        """Each client holds 1,200 samples of one class and 2 of each of the
        nine others.  A [classes, largest class, h+1] stack per client, padding
        every class to the largest, would hold ten times the client's rows
        (about 2.1 MB a client with its copy, against 0.43 MB of real rows for
        all four).  The selector must hold the real rows in packed stacks at
        most 1.25 times as large, a value per row for the cached norms and one
        for a stack's scores, the support buffer and one client's gradient rows
        and logits at a time."""
        classes, dim, clients = 10, 10, 4
        rng = np.random.default_rng(32)
        chunks = []
        for i in range(clients):
            labels = np.concatenate([np.full(1200, i), np.repeat(np.arange(classes), 2)])
            ds = Dataset(rng.normal(size=(len(labels), dim)), labels, classes)
            chunks.append(chunk_of(ds, i))
        params = init_params(ModelConfig("softmax_regression"), dim, classes, seed=33)
        server_rows = {c: rng.normal(size=dim + 1) for c in range(classes)}
        budgets = [round(0.1 * c.n) for c in chunks]
        rows = sum(c.n for c in chunks)
        packed = 1.25 * 8 * rows * (dim + 1 + 2)
        support = 8 * clients * classes * max(budgets) * (dim + 1)
        client = 8 * chunks[0].n * (dim + 1 + classes)
        # a first call, so numpy's lazy imports (np.unique loads numpy.ma) are
        # not counted
        labelwise_omp_select(chunks[:1], params, server_rows, budgets[:1], lam=0.5)
        tracemalloc.start()
        try:
            labelwise_omp_select(chunks, params, server_rows, budgets, lam=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        real = 8 * rows * (dim + 1)
        assert peak < packed + support + 2 * client, peak / real


class TestRandomSelect:
    def test_full_budget_selects_everything(self):
        chunk = chunk_of(blobs(3, 2, np.ones(3), 10, seed=0))
        cs = random_select(chunk, budget=30, seed=1)
        assert set(cs.indices) == set(range(30))
        assert np.all(cs.weights == 1.0)

    def test_clean_fraction_matches_noise_level(self):
        chunk = chunk_of(blobs(4, 2, np.ones(4), 50, seed=2))
        noisy = inject_closed_set(chunk, NoiseSpec("closed_set", 0.4), seed=3)
        fracs = [
            noisy.clean_flags[random_select(noisy, 40, seed=s).indices].mean()
            for s in range(200)
        ]
        assert abs(np.mean(fracs) - 0.60) < 0.05

    def test_deterministic(self):
        chunk = chunk_of(blobs(2, 2, [1, 1], 20, seed=4))
        a = random_select(chunk, 10, seed=5)
        b = random_select(chunk, 10, seed=5)
        assert np.array_equal(a.indices, b.indices)

    def test_empty_chunk_gives_empty_coreset(self):
        ds = blobs(2, 2, [1, 1], 5, seed=0)
        empty = ClientChunk(ds.subset([]), np.ones(0, dtype=bool), 0)
        assert random_select(empty, 3, seed=0).size == 0


class TestFacilityLocation:
    @staticmethod
    def coverage(sim: np.ndarray, subset) -> float:
        if not subset:
            return 0.0
        return float(sim[:, list(subset)].max(axis=1).sum())

    @staticmethod
    def sim_matrix(feats: np.ndarray) -> np.ndarray:
        unit = feats / np.maximum(np.linalg.norm(feats, axis=1), 1e-300)[:, None]
        return 0.5 * (1.0 + unit @ unit.T)

    def test_two_identical_points(self):
        ds = Dataset(np.array([[1.0, 2.0], [1.0, 2.0]]), np.zeros(2, dtype=int), 1)
        cs = facility_location_select(chunk_of(ds), budget=1)
        assert cs.size == 1
        assert cs.weights[0] == 2.0

    def test_marginal_gains_non_increasing(self):
        rng = np.random.default_rng(6)
        ds = Dataset(rng.normal(size=(40, 5)), np.zeros(40, dtype=int), 1)
        sim = self.sim_matrix(ds.features)
        cs = facility_location_select(chunk_of(ds), budget=8)
        gains = []
        covered = 0.0
        chosen: list[int] = []
        for j in cs.indices:
            chosen.append(int(j))
            new = self.coverage(sim, chosen)
            gains.append(new - covered)
            covered = new
        assert all(gains[i + 1] <= gains[i] + 1e-9 for i in range(len(gains) - 1))

    def test_greedy_within_1_minus_1_over_e_of_opt(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            ds = Dataset(rng.normal(size=(10, 4)), np.zeros(10, dtype=int), 1)
            sim = self.sim_matrix(ds.features)
            budget = 3
            cs = facility_location_select(chunk_of(ds), budget=budget)
            greedy_val = self.coverage(sim, list(cs.indices))
            opt = max(
                self.coverage(sim, sub) for sub in combinations(range(10), budget)
            )
            assert greedy_val >= (1 - 1 / np.e) * opt - 1e-9

    def test_weights_are_cluster_sizes(self):
        rng = np.random.default_rng(10)
        ds = Dataset(rng.normal(size=(25, 3)), np.zeros(25, dtype=int), 1)
        cs = facility_location_select(chunk_of(ds), budget=5)
        assert cs.weights.sum() == 25

    FEATURE_KINDS = ("gaussian", "rounded", "duplicated", "zero_rows")

    @staticmethod
    def tie_heavy_features(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
        d = int(rng.integers(1, 6))
        feats = rng.normal(size=(n, d))
        if kind == "rounded":  # few distinct directions: exact gain ties
            feats = np.round(feats)
        elif kind == "duplicated":
            protos = rng.normal(size=(max(1, n // 5), d))
            feats = protos[rng.integers(0, len(protos), n)]
        elif kind == "zero_rows":
            feats = np.round(2 * feats) / 2
            feats[rng.random(n) < 0.2] = 0.0
        return feats

    @pytest.mark.parametrize("kind", FEATURE_KINDS)
    def test_lazy_equals_dense_greedy(self, kind, monkeypatch):
        """Indices and weights equal the dense greedy's bit for bit on 75
        random chunks per kind: n in [1, 400], budget in [1, n + 2]."""
        sizes: list[int] = []
        helper = coreset._column_coverage

        def recording(sim, best, cols):
            sizes.append(len(cols))
            return helper(sim, best, cols)

        monkeypatch.setattr(coreset, "_column_coverage", recording)
        rng = np.random.default_rng(self.FEATURE_KINDS.index(kind))
        for _ in range(75):
            n = int(rng.integers(1, 401))
            budget = int(rng.integers(1, n + 3))
            feats = self.tie_heavy_features(rng, n, kind)
            ds = Dataset(feats, np.zeros(n, dtype=int), 1)
            cs = facility_location_select(chunk_of(ds), budget=budget)
            indices, weights = reference_facility_greedy(feats, budget)
            assert np.array_equal(cs.indices, indices), (n, budget)
            assert np.array_equal(cs.weights, weights), (n, budget)
        # some step computed a single gain, the case a plain row sum gets wrong
        assert 1 in sizes

    def test_exactness_premises(self):
        """What the lazy greedy's bit-for-bit equality rests on: the gram
        matrix is exactly symmetric, and both the column helper and the
        row-slab pass add each column in the dense reduction's order, for any
        number of columns and any slab height."""
        rng = np.random.default_rng(12)
        for n in (1, 2, 17, 100, 400):
            feats = np.round(rng.normal(size=(n, 4)), 1)
            feats[rng.random(n) < 0.1] = 0.0
            unit = feats / np.maximum(np.linalg.norm(feats, axis=1), 1e-300)[:, None]
            gram = unit @ unit.T
            assert np.array_equal(gram, gram.T), n
            sim = 0.5 * (1.0 + gram)
            picks = rng.choice(n, size=min(n, 5), replace=False)
            best = sim[:, picks].max(axis=1)
            dense = np.maximum(sim, best[:, None]).sum(axis=0)
            for block in (1, 7, 64, 256):
                assert np.array_equal(coreset._coverage(sim, best, block), dense), (n, block)
            for k in [k for k in (1, 2, 17, n) if k <= n]:
                cols = rng.choice(n, size=k, replace=False)
                assert np.array_equal(coreset._column_coverage(sim, best, cols), dense[cols]), (n, k)

    def test_peak_memory_near_one_similarity_matrix(self):
        """The selector holds one n x n similarity matrix, not a second n x n
        temporary for the gains (which would make the peak about 2 x 8 n^2)."""
        n = 1000
        feats = np.random.default_rng(13).normal(size=(n, 10))
        chunk = chunk_of(Dataset(feats, np.zeros(n, dtype=int), 1))
        tracemalloc.start()
        try:
            facility_location_select(chunk, budget=n // 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * 8 * n * n, peak / (8 * n * n)

    def test_column_coverage_holds_one_buffer(self):
        """A lazy step's column gains take one k x n buffer of gathered rows,
        not separate arrays for the maximum and the running sums (about
        2 x 8 k n)."""
        n, k = 976, 244
        feats = np.random.default_rng(14).normal(size=(n, 10))
        unit = feats / np.linalg.norm(feats, axis=1)[:, None]
        sim = 0.5 * (1.0 + unit @ unit.T)
        best = np.maximum(sim[:, 3], sim[:, 70])
        cols = np.arange(0, n, n // k)
        tracemalloc.start()
        try:
            coreset._column_coverage(sim, best, cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * k * n, peak / (8 * k * n)


class TestValidation:
    def test_coreset_invariants(self):
        with pytest.raises(ValueError):
            Coreset(np.array([1, 1]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Coreset(np.array([0]), np.array([-0.5]))
        with pytest.raises(ValueError):
            Coreset(np.array([0, 1]), np.array([1.0]))
