"""The federated protocol engine.

One round: the server samples m of N clients and broadcasts the current
parameters; on refresh rounds (t % K == 0) the gcfl arm additionally
broadcasts per-class validation gradient rows and the sampled clients
re-select their coresets by gradient matching, all of them in one call of
:func:`~fedcoreset.coreset.labelwise_omp_select`, each client's coreset bit
for bit the one it would select alone.  Clients train locally for E
epochs on their training rows, upload parameter deltas, and the server
applies the global-rate mean.  All compute and traffic is metered in a
:class:`CostLedger`.
A run keeps one int64 row vector per client, the indices of the chunk rows
it trains on: the whole chunk for fedavg and fedprox, the clean rows for
skyline, and the current coreset's indices for the coreset arms (a refresh
stores the new ones); coreset weights steer selection only.
A round's client models and deltas travel as one ``[m, P]`` float64 array
from :func:`~fedcoreset.model.sgd_epochs` through :func:`client_update`
to :func:`aggregate`, one client per row; only the global model is a
:class:`~fedcoreset.model.ParamVector`.

Scheduling independence: every client draws from a private RNG stream
keyed by (run seed, client id, round), and deltas are aggregated in a
canonical order, so results do not depend on the order clients run in.
A round's clients train in lock-step, one stacked SGD step for all the
clients whose next batch is full (:func:`~fedcoreset.model.sgd_epochs`),
and each client's arithmetic is unchanged bit for bit from training it
alone.  Each client's training rows are gathered from its chunk straight
into the one row table the lock-step steps index, so a round copies them
once.
The canonical order is that of ``np.lexsort`` over all P values of each
delta (the first value the primary key), but it is read off the first
value with one stable argsort, O(m log m) for m deltas.  Only where
two deltas tie there (equal values, 0.0 against -0.0 included) or one
holds a NaN is the full O(m P log m) lexsort taken.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .coreset import facility_location_select, labelwise_omp_select, random_select
from .data import (
    ClientChunk,
    Dataset,
    dirichlet_partition,
    inject_attribute,
    inject_closed_set,
    inject_open_set,
    load_dataset_csv,
    make_blobs,
    round_half_away,
    split_train_val_test,
)
from .errors import ConfigurationError
from .metrics import RoundMetrics, coreset_composition, dataset_fingerprint
from .model import ParamVector, evaluate_accuracy, init_params, labelwise_validation_grads
from .model import loss, sgd_epochs
from .seeding import derive_seed, spawn_rng

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = [
    "ALGO_KINDS",
    "CORESET_KINDS",
    "Algo",
    "parse_algo",
    "CostLedger",
    "TrainingResult",
    "Prepared",
    "prepare_experiment",
    "client_update",
    "aggregate",
    "run_round",
    "run_training",
    "compute_cost_ratio",
]

ALGO_KINDS = ("gcfl", "fedavg", "fedprox", "skyline", "random", "facility_location")
CORESET_KINDS = ("gcfl", "random", "facility_location")

DEFAULT_FEDPROX_MU = 0.1


@dataclass(frozen=True)
class Algo:
    """An algorithm arm.  ``mu`` is the fedprox proximal coefficient."""

    kind: str
    mu: float = DEFAULT_FEDPROX_MU

    def __post_init__(self) -> None:
        if self.kind not in ALGO_KINDS:
            raise ConfigurationError(f"algo must be one of {ALGO_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.mu < float("inf"):
            raise ConfigurationError("fedprox mu must be finite and non-negative")

    @property
    def uses_coreset(self) -> bool:
        return self.kind in CORESET_KINDS

    @property
    def label(self) -> str:
        if self.kind == "fedprox":
            return f"fedprox_mu{self.mu:g}"
        return self.kind


def parse_algo(token: str) -> Algo:
    """Parse an arm token like ``gcfl`` or ``fedprox:0.5``."""
    name, sep, arg = token.strip().partition(":")
    name = name.strip()
    if name == "fedprox" and sep:
        try:
            mu = float(arg)
        except ValueError:
            raise ConfigurationError(f"bad fedprox mu in arm {token!r}") from None
        return Algo("fedprox", mu=mu)
    if sep:
        raise ConfigurationError(f"arm {token!r} does not take an argument")
    return Algo(name)


@dataclass
class CostLedger:
    """Deterministic compute and traffic counters.

    ``per_sample_grad_evals`` counts client-side last-layer gradient
    evaluations spent on coreset selection; server-side validation
    gradients are not client compute and are not metered here.  Broadcast
    and upload counters are in units of real values sent.
    """

    per_sample_grad_evals: int = 0
    sgd_sample_visits: int = 0
    params_broadcast: int = 0
    grads_broadcast: int = 0
    update_uploads: int = 0

    def snapshot(self) -> "CostLedger":
        return replace(self)


@dataclass(frozen=True)
class Prepared:
    """One realized (noisy) data world, shared by every arm of a run.  The
    model's input and class counts are ``test.dim`` and ``test.num_classes``."""

    chunks: list[ClientChunk]
    val: Dataset
    test: Dataset
    fingerprint: str


@dataclass
class TrainingResult:
    rounds: list[RoundMetrics]
    final_params: ParamVector
    final_accuracy: float
    ledger: CostLedger
    fine_tuned_accuracy: float | None = None
    diverged_round: int | None = None  # the round a non-finite model stopped the run at


def client_update(
    chunks: Sequence[ClientChunk],
    theta_t: ParamVector,
    train_indices: Sequence[np.ndarray],
    cfg: "ExperimentConfig",
    *,
    seeds: Sequence[int],
    mu: float = 0.0,
) -> np.ndarray:
    """For each client, E = cfg.local_epochs epochs of local SGD from
    theta_t on the indexed subset of its chunk at rate cfg.local_lr, with a
    FedProx pull of strength mu toward theta_t; returns the deltas
    theta' - theta_t as the rows of one ``[clients, P]`` array, in the order
    of ``chunks``.  The clients train in lock-step (:func:`sgd_epochs`),
    each bit for bit as if alone, on non-empty index vectors; the indexed
    rows are gathered straight into its row table, so a round holds one
    copy of its training rows."""
    trained = sgd_epochs(
        theta_t,
        [chunk.dataset for chunk in chunks],
        epochs=cfg.local_epochs,
        lr=cfg.local_lr,
        batch_size=cfg.batch_size,
        seeds=seeds,
        mu=mu,
        indices=train_indices,
    )
    trained -= theta_t.values
    return trained


def _canonical_order(stack: np.ndarray) -> np.ndarray:
    """The order ``np.lexsort`` gives the rows of ``stack`` (column 0 the
    primary key).

    Rows are sorted stably on column 0.  If the sorted values there all
    differ, no later column can change the order, so that is lexsort's.  On
    any tie (values that compare equal, 0.0 and -0.0 included) or any NaN
    in column 0 the full lexsort over all P columns is taken instead.
    """
    lead = stack[:, 0]
    order = np.argsort(lead, kind="stable")
    ranked = lead[order]
    if np.isnan(ranked).any() or not (ranked[1:] != ranked[:-1]).all():
        order = np.lexsort(stack.T[::-1])
    return order


def aggregate(params: ParamVector, deltas: np.ndarray, global_lr: float) -> ParamVector:
    """params + global_lr * mean(deltas), for the ``[m, P]`` deltas of one
    round, one client's per row.

    The rows are summed in a canonical order, the lexicographic order of
    their values (``np.lexsort`` with column 0 the primary key), so the
    result is bitwise independent of how the caller ordered them.  The
    order is read off column 0 with one stable argsort, O(m log m) for m
    deltas; only when two deltas tie in column 0 or one holds a NaN there
    is the O(m P log m) lexsort over all P columns taken (see
    :func:`_canonical_order`).  The rows are gathered once, already in that
    order.  ``run_round`` calls it only when some client trained.
    """
    mean = deltas[_canonical_order(deltas)].mean(axis=0)
    return params.with_values(params.values + global_lr * mean)


def _client_budget(chunk: ClientChunk, budget_fraction: float) -> int:
    return round_half_away(budget_fraction * chunk.n)


def _round0_rows(algo: Algo, chunk: ClientChunk, budget: int, master_seed: int) -> np.ndarray:
    """The rows of ``chunk`` a client trains on from round 0: all of them
    for fedavg and fedprox, the clean ones for skyline, and otherwise its
    round-0 coreset, random for gcfl and the random baseline and feature
    driven for facility location.  A coreset arm's client with a budget
    below 1, as an empty chunk's is, gets no rows."""
    if algo.kind in ("fedavg", "fedprox"):
        return np.arange(chunk.n, dtype=np.int64)
    if algo.kind == "skyline":
        return np.flatnonzero(chunk.clean_flags)
    if budget < 1:
        return np.empty(0, dtype=np.int64)
    if algo.kind == "facility_location":
        return facility_location_select(chunk, budget).indices
    seed = derive_seed(master_seed, "coreset0", chunk.client_id)
    return random_select(chunk, budget, seed).indices


def run_round(
    params: ParamVector,
    prepared: Prepared,
    train_rows: list[np.ndarray],
    algo: Algo,
    cfg: "ExperimentConfig",
    round_index: int,
    ledger: CostLedger,
) -> tuple[ParamVector, RoundMetrics]:
    """Execute one communication round from the global parameters and
    return the new parameters plus that round's metrics.

    ``train_rows`` holds, for each chunk of ``prepared``, the int64 indices
    of the rows that client trains on; a gcfl refresh round replaces the
    selecting clients' entries in place with their coresets' indices.
    ``prepared`` is the world of ``cfg``, so it has ``num_clients >=
    clients_per_round`` chunks.
    """
    chunks = prepared.chunks
    n_clients = len(chunks)
    m = cfg.clients_per_round or n_clients
    rng = spawn_rng(cfg.seed, "sample", round_index)
    sampled = np.sort(rng.choice(n_clients, size=m, replace=False))
    theta_size = params.values.size

    if algo.kind == "gcfl" and round_index % cfg.refresh_period == 0:
        rows = labelwise_validation_grads(params, prepared.val)
        ledger.grads_broadcast += len(sampled) * sum(r.size for r in rows.values())
        budgets = {cid: _client_budget(chunks[cid], cfg.budget_fraction) for cid in sampled}
        selecting = [cid for cid in sampled if budgets[cid] >= 1]
        ledger.per_sample_grad_evals += sum(chunks[cid].n for cid in selecting)
        selected = labelwise_omp_select(
            [chunks[cid] for cid in selecting],
            params,
            rows,
            [budgets[cid] for cid in selecting],
            lam=cfg.lam,
        )
        for cid, cs in zip(selecting, selected):
            train_rows[cid] = cs.indices

    ledger.params_broadcast += len(sampled) * theta_size
    # a client with nothing to train on sits this round out
    trainees = [cid for cid in sampled if train_rows[cid].size]
    ledger.sgd_sample_visits += cfg.local_epochs * sum(train_rows[cid].size for cid in trainees)
    ledger.update_uploads += len(trainees) * theta_size
    deltas = client_update(
        [chunks[cid] for cid in trainees],
        params,
        [train_rows[cid] for cid in trainees],
        cfg,
        seeds=[derive_seed(cfg.seed, "client", int(cid), "round", round_index) for cid in trainees],
        mu=algo.mu if algo.kind == "fedprox" else 0.0,
    )

    # nothing modifies a ParamVector in place, so an idle round can return its input
    new_params = aggregate(params, deltas, cfg.global_lr) if trainees else params

    losses, weights = [], []
    for cid in sampled:
        chunk = chunks[cid]
        if chunk.n:
            losses.append(loss(new_params, chunk.dataset))
            weights.append(chunk.n)
    mean_loss = float(np.average(losses, weights=weights)) if losses else float("nan")

    clean_frac = None
    if algo.uses_coreset:
        clean_frac = coreset_composition((train_rows[cid], chunks[cid]) for cid in sampled)

    rm = RoundMetrics(
        round=round_index,
        test_accuracy=evaluate_accuracy(new_params, prepared.test),
        mean_train_loss=mean_loss,
        coreset_clean_fraction=clean_frac,
        ledger_snapshot=ledger.snapshot(),
    )
    return new_params, rm


def prepare_experiment(cfg: "ExperimentConfig") -> Prepared:
    """Synthesize, split, partition and corrupt one data world from cfg.seed."""
    if cfg.dataset.kind == "blobs":
        ds = make_blobs(cfg.dataset, derive_seed(cfg.seed, "dataset"))
    else:
        ds = load_dataset_csv(cfg.dataset.csv_path)

    train, val, test = split_train_val_test(
        ds, cfg.val_frac, cfg.test_frac, derive_seed(cfg.seed, "split")
    )
    chunks = dirichlet_partition(
        train, cfg.num_clients, cfg.dirichlet_alpha, derive_seed(cfg.seed, "partition")
    )

    # each injector returns its input unchanged at ratio 0
    noise = cfg.noise
    if noise.kind == "open_set":
        chunks, test, val, _ = inject_open_set(
            chunks, test, val, noise, derive_seed(cfg.seed, "noise")
        )
    elif noise.kind != "none":
        inject = inject_closed_set if noise.kind == "closed_set" else inject_attribute
        chunks = [inject(c, noise, derive_seed(cfg.seed, "noise", c.client_id)) for c in chunks]

    _check_prepared(cfg, chunks, val, test)
    return Prepared(
        chunks=chunks,
        val=val,
        test=test,
        fingerprint=dataset_fingerprint(chunks, val, test),
    )


def _check_prepared(
    cfg: "ExperimentConfig", chunks: list[ClientChunk], val: Dataset, test: Dataset
) -> None:
    """Reject, before any arm runs, a realized world that some arm of cfg
    would fail on mid-run.  Checks the realized splits, not the fractions:
    a small fraction of a small class rounds to zero samples."""
    if test.n == 0:
        raise ConfigurationError("the test set is empty: raise test_frac")
    refreshes = cfg.rounds > 0 and any(algo.kind == "gcfl" for algo in cfg.arms)
    if val.n == 0 and (refreshes or cfg.fine_tune_epochs > 0):
        user = "gcfl selection" if refreshes else "fine_tune_epochs > 0"
        raise ConfigurationError(
            f"the validation set is empty, but {user} needs it: raise val_frac"
        )
    if refreshes:
        in_val = np.zeros(val.num_classes, dtype=bool)
        in_val[val.labels] = True
        for chunk in chunks:
            budget = _client_budget(chunk, cfg.budget_fraction)
            if budget >= 1 and not in_val[chunk.dataset.labels].any():
                raise ConfigurationError(
                    f"client {chunk.client_id} shares no class with the validation "
                    "set, so gcfl cannot select its coreset: raise val_frac"
                )


def run_training(
    cfg: "ExperimentConfig", algo: Algo, prepared: Prepared | None = None
) -> TrainingResult:
    """Run T rounds of one algorithm arm, fully determined by cfg.seed.

    The arm stops after the first round whose aggregated parameters hold a
    non-finite value, records it as ``diverged_round`` and skips the
    fine-tune: a diverged model's accuracy is not a result."""
    if prepared is None:
        prepared = prepare_experiment(cfg)

    params = init_params(
        cfg.model, prepared.test.dim, prepared.test.num_classes, derive_seed(cfg.seed, "init")
    )
    train_rows = [
        _round0_rows(algo, chunk, _client_budget(chunk, cfg.budget_fraction), cfg.seed)
        for chunk in prepared.chunks
    ]
    ledger = CostLedger()

    series: list[RoundMetrics] = []
    diverged_round = None
    with np.errstate(over="ignore", invalid="ignore"):  # the guard reports a blow-up
        for t in range(cfg.rounds):
            params, rm = run_round(params, prepared, train_rows, algo, cfg, t, ledger)
            series.append(rm)
            if not np.isfinite(params.values).all():
                diverged_round = t
                break

    # the last round's metrics already hold the accuracy of these parameters
    if series:
        final_accuracy = series[-1].test_accuracy
    else:
        final_accuracy = evaluate_accuracy(params, prepared.test)
    result = TrainingResult(
        rounds=series,
        final_params=params,
        final_accuracy=final_accuracy,
        ledger=ledger,
        diverged_round=diverged_round,
    )
    if cfg.fine_tune_epochs > 0 and diverged_round is None:
        # post-hoc SGD on the server's validation data
        (tuned,) = sgd_epochs(
            params,
            [prepared.val],
            epochs=cfg.fine_tune_epochs,
            lr=cfg.local_lr,
            batch_size=cfg.batch_size,
            seeds=[derive_seed(cfg.seed, "finetune")],
        )
        result.fine_tuned_accuracy = evaluate_accuracy(params.with_values(tuned), prepared.test)
    return result


def compute_cost_ratio(ledger_gcfl: CostLedger, ledger_fedavg: CostLedger) -> float:
    """Client compute of the coreset arm relative to plain federated
    averaging: (sgd visits + selection gradient evals) / fedavg sgd visits,
    for a fedavg ledger with visits (``cli.run`` checks)."""
    numer = ledger_gcfl.sgd_sample_visits + ledger_gcfl.per_sample_grad_evals
    return numer / ledger_fedavg.sgd_sample_visits
