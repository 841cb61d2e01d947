"""Test oracles, and a whole-run reference engine built from them.

Each oracle is the plain, one-thing-at-a-time form of a package kernel: a
2-D sample-major forward pass per model, one client's SGD batch by batch,
one matching pursuit per class, the dense facility-location greedy, and
aggregation by a full ``np.lexsort``.  None of them calls the package's
forward pass or its layout reader: :func:`unpack` reads a layout on its
own.  :func:`reference_run` strings them into the round engine as a loop
over clients, so a whole arm run can be compared with ``run_training``:
the round metrics, the fine-tuned accuracy and the final-parameter bytes.
"""

from dataclasses import replace

import numpy as np

from fedcoreset import coreset
from fedcoreset.coreset import Coreset
from fedcoreset.data import Dataset, round_half_away
from fedcoreset.federation import CostLedger, TrainingResult
from fedcoreset.metrics import RoundMetrics
from fedcoreset.model import ParamVector, init_params
from fedcoreset.seeding import derive_seed, spawn_rng


def unpack(params: ParamVector) -> tuple[np.ndarray | None, np.ndarray]:
    """``(hidden or None, output)`` weight matrices, bias in the last column,
    read off ``params.layout`` (the blocks' shapes in storage order)."""
    shapes = params.layout
    sizes = [rows * cols for rows, cols in shapes]
    out = params.values[sum(sizes[:-1]) :].reshape(shapes[-1])
    hidden = params.values[: sizes[0]].reshape(shapes[0]) if len(shapes) == 2 else None
    return hidden, out


def forward(params: ParamVector, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(act, logits)`` of the samples ``x``, sample-major: the penultimate
    activations ``[n, h]`` and the logits ``[n, classes]``."""
    hidden, out = unpack(params)
    act = x if hidden is None else np.tanh(x @ hidden[:, :-1].T + hidden[:, -1])
    return act, act @ out[:, :-1].T + out[:, -1]


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of sample-major logits."""
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_loss(params: ParamVector, ds: Dataset) -> float:
    """Mean cross-entropy from sample-major ``[n, classes]`` logits: the
    oracle for the class-major ``loss``, equal up to rounding."""
    z = forward(params, ds.features)[1]
    zmax = z.max(axis=1)
    logsumexp = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    return float(np.mean(logsumexp - z[np.arange(ds.n), ds.labels]))


def class_major_logits(params: ParamVector, x: np.ndarray) -> np.ndarray:
    """The class-major ``[classes, n]`` logits of the samples ``x``, each
    layer one product over all of them."""
    hidden, out = unpack(params)
    act = x.T
    if hidden is not None:
        act = np.tanh(hidden[:, :-1] @ x.T + hidden[:, -1:])
    return out[:, :-1] @ act + out[:, -1:]


def class_major_loss(params: ParamVector, ds: Dataset) -> float:
    """Mean cross-entropy from class-major ``[classes, n]`` logits, in the
    order of operations the round log's train loss is recorded with, so
    equal to ``loss`` on ``ds`` alone bit for bit."""
    z = class_major_logits(params, ds.features)
    zmax = z.max(axis=0)
    logsumexp = np.log(np.exp(z - zmax).sum(axis=0)) + zmax
    return float((logsumexp - z[ds.labels, np.arange(ds.n)]).mean())


def reference_predictions(params: ParamVector, x: np.ndarray) -> np.ndarray:
    """Argmax of the sample-major softmax: the oracle for evaluate_accuracy."""
    return np.argmax(softmax(forward(params, x)[1]), axis=1)


def own_class_rows(params: ParamVector, ds: Dataset) -> np.ndarray:
    """Each sample's output-layer gradient row of its own class, [n, h+1]:
    (softmax(z)_y - 1) * [h(x); 1]."""
    act, z = forward(params, ds.features)
    own = softmax(z)[np.arange(ds.n), ds.labels] - 1.0
    return np.concatenate([own[:, None] * act, own[:, None]], axis=1)


def class_mean_rows(params: ParamVector, ds: Dataset) -> dict[int, np.ndarray]:
    """The mean own-class row of each class present in ``ds``: the server's
    label-wise broadcast."""
    rows = own_class_rows(params, ds)
    return {int(c): rows[ds.labels == c].mean(axis=0) for c in np.unique(ds.labels)}


def reference_grad(params: ParamVector, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy gradient of one batch, flattened to layout order."""
    n = x.shape[0]
    hidden, out = unpack(params)
    act, z = forward(params, x)
    delta = softmax(z)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    g_out = delta.T @ np.concatenate([act, np.ones((n, 1))], axis=1)
    if hidden is None:
        return g_out.ravel()
    d_z1 = (delta @ out[:, :-1]) * (1.0 - act * act)
    g_hid = d_z1.T @ np.concatenate([x, np.ones((n, 1))], axis=1)
    return np.concatenate([g_hid.ravel(), g_out.ravel()])


def reference_sgd(params, ds, epochs, lr, batch_size, seed, mu=0.0) -> np.ndarray:
    """One client's local SGD, batch by batch: the oracle for the
    lock-step ``sgd_epochs``."""
    rng = np.random.default_rng(seed)
    theta = params.values.copy()
    for _ in range(epochs):
        order = rng.permutation(ds.n)
        for start in range(0, ds.n, batch_size):
            batch = order[start : start + batch_size]
            grad = reference_grad(params.with_values(theta), ds.features[batch], ds.labels[batch])
            if mu:
                grad = grad + mu * (theta - params.values)
            theta = theta - lr * grad
    return theta


def reference_omp(cands: np.ndarray, target: np.ndarray, budget: int, lam: float) -> Coreset:
    """Matching pursuit on one class as a plain loop: each step computes the
    distance ||c - r|| itself, picks its first minimum and re-solves the
    ridge weights with ``_solve_ridge``."""
    selected: list[int] = []
    weights = np.empty(0)
    residual = target
    norm = float(np.linalg.norm(residual))
    norms: list[float] = []
    while len(selected) < min(budget, len(cands)) and norm > 0:
        dist = np.linalg.norm(cands - residual, axis=1)
        dist[selected] = np.inf
        selected.append(int(np.argmin(dist)))
        columns = cands[selected].T
        weights = coreset._solve_ridge(columns, target, lam)
        residual = target - columns @ weights
        norm = float(np.linalg.norm(residual))
        norms.append(norm)
    return Coreset(selected, np.maximum(weights, 0.0), residual_norms=tuple(norms))


def reference_labelwise(rows, labels, server_rows, budget, lam) -> Coreset:
    """Label-wise selection as one ``reference_omp`` per shared class over
    the own-class candidate ``rows``, concatenated in class order."""
    shared = sorted(set(labels.tolist()) & set(server_rows))
    shares = coreset._split_budget(budget, {c: int((labels == c).sum()) for c in shared})
    parts = []
    for c in shared:
        if shares[c]:
            local = np.flatnonzero(labels == c)
            sub = reference_omp(rows[local], server_rows[c], shares[c], lam)
            parts.append(Coreset(local[sub.indices], sub.weights, sub.residual_norms))
    return Coreset(
        np.concatenate([p.indices for p in parts] or [np.empty(0)]),
        np.concatenate([p.weights for p in parts] or [np.empty(0)]),
        residual_norms=sum((p.residual_norms for p in parts), ()),
    )


def reference_facility_greedy(feats: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The dense facility-location greedy: every candidate's gain over the
    whole similarity matrix at every pick, argmax ties to the lowest index;
    weights are cluster sizes, earliest pick winning ties."""
    n = len(feats)
    norms = np.linalg.norm(feats, axis=1)
    unit = feats / np.maximum(norms, 1e-300)[:, None]
    sim = 0.5 * (1.0 + unit @ unit.T)
    size = min(budget, n)
    selected: list[int] = []
    best = np.zeros(n)
    for _ in range(size):
        gains = np.maximum(sim, best[:, None]).sum(axis=0) - best.sum()
        gains[selected] = -np.inf
        j = int(np.argmax(gains))
        selected.append(j)
        best = np.maximum(best, sim[:, j])
    rep = np.argmax(sim[:, selected], axis=1)
    weights = np.bincount(rep, minlength=size).astype(np.float64)
    return np.asarray(selected, dtype=np.int64), weights


def reference_accuracy(params: ParamVector, test: Dataset) -> float:
    """The fraction of ``test`` that :func:`reference_predictions` gets right."""
    return float(np.mean(reference_predictions(params, test.features) == test.labels))


def _round0_rows(kind, c, chunk, budget, seed) -> np.ndarray:
    if kind in ("fedavg", "fedprox"):
        return np.arange(chunk.n)
    if kind == "skyline":
        return np.flatnonzero(chunk.clean_flags)
    if budget < 1:
        return np.empty(0, dtype=np.int64)
    if kind == "facility_location":
        return reference_facility_greedy(chunk.dataset.features, budget)[0]
    rng = np.random.default_rng(derive_seed(seed, "coreset0", c))
    return np.sort(rng.choice(chunk.n, size=min(budget, chunk.n), replace=False))


def chunk_losses(params: ParamVector, chunks, sampled) -> list[float]:
    """The loss of each sampled non-empty chunk, in sampled order, each
    scored alone (:func:`class_major_loss`)."""
    return [class_major_loss(params, chunks[c].dataset) for c in sampled if chunks[c].n]


def _train_loss(params: ParamVector, chunks, sampled) -> float:
    """The sample-weighted mean of :func:`chunk_losses`, NaN without any."""
    losses = chunk_losses(params, chunks, sampled)
    if not losses:
        return float("nan")
    return float(np.average(losses, weights=[chunks[c].n for c in sampled if chunks[c].n]))


def _clean_fraction(rows, chunks) -> float:
    picked = sum(r.size for r in rows)
    clean = sum(int(chunk.clean_flags[r].sum()) for r, chunk in zip(rows, chunks))
    return clean / picked if picked else 1.0


def reference_run(cfg, algo, prepared) -> TrainingResult:
    """One arm of ``cfg`` on the world ``prepared``, client by client.

    Each round samples its clients; on a gcfl refresh the server broadcasts
    its class-mean own-class rows and every sampled client with a budget
    re-selects by :func:`reference_labelwise`; each client with rows trains
    alone (:func:`reference_sgd`); the deltas are averaged in full-lexsort
    order; and the round is scored with :func:`_train_loss` on the
    sampled chunks and :func:`reference_accuracy` on the test set.  The
    ledger counts as the engine's does, and the run stops after a round
    that leaves a non-finite parameter.  A fine-tune that leaves one
    records no accuracy but ``fine_tune_diverged``.
    """
    chunks, test = prepared.chunks, prepared.test
    m = cfg.clients_per_round or len(chunks)
    params = init_params(cfg.model, test.dim, test.num_classes, derive_seed(cfg.seed, "init"))
    size = params.values.size
    budgets = [round_half_away(cfg.budget_fraction * chunk.n) for chunk in chunks]
    rows = [_round0_rows(algo.kind, c, chunks[c], b, cfg.seed) for c, b in enumerate(budgets)]
    mu = algo.mu if algo.kind == "fedprox" else 0.0
    ledger, series, diverged = CostLedger(), [], None
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.rounds):
            rng = spawn_rng(cfg.seed, "sample", t)
            sampled = np.sort(rng.choice(len(chunks), size=m, replace=False))
            if algo.kind == "gcfl" and t % cfg.refresh_period == 0:
                server = class_mean_rows(params, prepared.val)
                ledger.grads_broadcast += m * sum(r.size for r in server.values())
                for cid in sampled:
                    if budgets[cid] >= 1:
                        ds = chunks[cid].dataset
                        ledger.per_sample_grad_evals += ds.n
                        cands = own_class_rows(params, ds)
                        rows[cid] = reference_labelwise(
                            cands, ds.labels, server, budgets[cid], cfg.lam
                        ).indices
            ledger.params_broadcast += m * size
            trainees = [cid for cid in sampled if rows[cid].size]
            ledger.sgd_sample_visits += cfg.local_epochs * sum(rows[cid].size for cid in trainees)
            ledger.update_uploads += len(trainees) * size
            deltas = [
                reference_sgd(
                    params, chunks[cid].dataset.subset(rows[cid]), cfg.local_epochs, cfg.local_lr,
                    cfg.batch_size, derive_seed(cfg.seed, "client", int(cid), "round", t), mu,
                ) - params.values
                for cid in trainees
            ]
            if deltas:
                stack = np.stack(deltas)
                mean = stack[np.lexsort(stack.T[::-1])].mean(axis=0)
                params = params.with_values(params.values + cfg.global_lr * mean)

            picked = [chunks[cid] for cid in sampled]
            clean_frac = None
            if algo.uses_coreset:
                clean_frac = _clean_fraction([rows[cid] for cid in sampled], picked)
            loss = _train_loss(params, chunks, sampled)
            accuracy = reference_accuracy(params, test)
            series.append(RoundMetrics(t, accuracy, loss, clean_frac, replace(ledger)))
            if not np.isfinite(params.values).all():
                diverged = t
                break

    final_accuracy = series[-1].test_accuracy if series else reference_accuracy(params, test)
    result = TrainingResult(series, params, final_accuracy, ledger, diverged_round=diverged)
    if cfg.fine_tune_epochs > 0 and diverged is None:
        with np.errstate(over="ignore", invalid="ignore"):
            tuned = reference_sgd(
                params, prepared.val, cfg.fine_tune_epochs, cfg.local_lr, cfg.batch_size,
                derive_seed(cfg.seed, "finetune"),
            )
            if np.isfinite(tuned).all():
                result.fine_tuned_accuracy = reference_accuracy(params.with_values(tuned), test)
            else:
                result.fine_tune_diverged = True
    return result
