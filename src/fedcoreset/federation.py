"""The federated protocol engine.

One round: the server samples m of N clients and broadcasts the current
parameters; on refresh rounds (t % K == 0) the gcfl arm additionally
broadcasts per-class validation gradient rows and the sampled clients
re-select their coresets by gradient matching, all of them in one call of
:func:`~fedcoreset.coreset.labelwise_omp_select`, each client's coreset bit
for bit the one it would select alone; the call's selection plan, which
holds what no parameter changes, is kept while the selecting clients stay
the same, so under full participation an arm builds it once.  Clients
train locally for E epochs on their training rows, upload parameter
deltas, and the server applies the global-rate mean.  One :func:`~fedcoreset.scoring.loss` call
scores the round: the mean train loss of all the sampled non-empty chunks
and the test accuracy, from one class-major pass over a scoring plan that
the arm keeps while the sampled chunks stay the same; each chunk takes its
own product, so its mean keeps the bits of scoring it alone.  Under full
participation the sampled clients are all N, what the sorted draw of all
of them gives, and no sample stream is drawn.  All compute and traffic is
metered in a :class:`CostLedger`.
A run keeps one int64 row vector per client, the indices of the chunk rows
it trains on: the whole chunk for fedavg and fedprox, the clean rows for
skyline, and the current coreset's indices for the coreset arms (a refresh
stores the new ones), and beside them how many of those rows are clean, so
a round's clean fraction sums counts; coreset weights steer selection only.
A round's client models and deltas travel as one ``[m, P]`` float64 array
from :func:`~fedcoreset.model.sgd_epochs` through :func:`client_update`
to :func:`aggregate`, one client per row; only the global model is a
:class:`~fedcoreset.model.ParamVector`.

A client is its chunk's position in ``Prepared.chunks``: client c's noise,
round-0 coreset and SGD streams are keyed by c.
Scheduling independence: every client draws from a private RNG stream
keyed by (run seed, client, round), and deltas are aggregated in a
canonical order, so results do not depend on the order clients run in.
Client c's stream in round t is ``default_rng(derive_seed(seed, "client",
c, "round", t))``; :func:`run_training` draws the sampled clients of a
block of rounds, about ``SEED_BLOCK`` streams, and computes the PCG64 seed
words of just their streams in one vectorized pass
(:func:`~fedcoreset.seeding.client_seed_words`), and :func:`run_round`
hands the trainees their rows, so no arm derives a key per client and
round.
A round's clients train in lock-step (:func:`~fedcoreset.model.sgd_epochs`),
one SGD step for all the clients whose next batch is full and one for
their partial last batches, both taken by the one step kernel, and each
client's arithmetic is unchanged bit for bit from training it alone.  Each
client's training rows are gathered from its chunk straight into the row
table of the round's lock-step plan.  :func:`run_training` keeps the plan
from round to round in a :class:`~fedcoreset.model.PlanCache`, so the rows
are copied again only when the round's trainees or one of their row vectors
change: on a gcfl refresh, and each round under partial participation.  A
refresh drops only the lock-step plan before the selection runs, as that
plan's rows change and no copy of rows may sit under the selector's
memory; the scoring plan holds views of the chunks' rows, not copies, and
the selection never reads it.  The arm drops every plan when its rounds
end.
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
from .metrics import RoundMetrics, dataset_fingerprint
from .model import ParamVector, PlanCache, init_params, labelwise_validation_grads, sgd_epochs
from .scoring import evaluate_accuracy, loss, scoring_plan
from .seeding import client_seed_words, derive_seed, seed_words, spawn_rng

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

# client streams seeded per vectorized pass (run_training): enough for the
# pass to pay, few enough that its arrays stay small
SEED_BLOCK = 1024


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
    seeds: np.ndarray,
    mu: float,
    cache: PlanCache,
) -> np.ndarray:
    """For each client, E = cfg.local_epochs epochs of local SGD from
    theta_t on the indexed subset of its chunk at rate cfg.local_lr, with a
    FedProx pull of strength mu toward theta_t; returns the deltas
    theta' - theta_t as the rows of one ``[clients, P]`` array, in the order
    of ``chunks``.  ``seeds`` holds each client's PCG64 seed words, one
    ``[4]`` uint64 row per chunk (see :mod:`~fedcoreset.seeding`).
    The clients train in lock-step (:func:`sgd_epochs`),
    each bit for bit as if alone, on non-empty index vectors; the indexed
    rows are gathered straight into the row table of its plan, which
    ``cache`` keeps for the next call on the same rows."""
    trained = sgd_epochs(
        theta_t,
        [chunk.dataset for chunk in chunks],
        epochs=cfg.local_epochs,
        lr=cfg.local_lr,
        batch_size=cfg.batch_size,
        seeds=seeds,
        mu=mu,
        indices=train_indices,
        cache=cache,
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


def _round0_rows(algo: Algo, c: int, chunk: ClientChunk, budget: int, seed: int) -> np.ndarray:
    """The rows of ``chunk`` that client ``c`` (its position) trains on
    from round 0: all of them for fedavg and fedprox, the clean ones for
    skyline, and otherwise its round-0 coreset, random for gcfl and the
    random baseline and feature driven for facility location.  A coreset
    arm's client with a budget below 1, as an empty chunk's is, gets no rows."""
    if algo.kind in ("fedavg", "fedprox"):
        return np.arange(chunk.n, dtype=np.int64)
    if algo.kind == "skyline":
        return np.flatnonzero(chunk.clean_flags)
    if budget < 1:
        return np.empty(0, dtype=np.int64)
    if algo.kind == "facility_location":
        return facility_location_select(chunk, budget).indices
    return random_select(chunk, budget, derive_seed(seed, "coreset0", c)).indices


def _sample(cfg: "ExperimentConfig", n_clients: int, round_index: int) -> np.ndarray:
    """The sorted positions of the clients round ``round_index`` samples:
    all N under full participation, what the sorted draw of all of them
    gives, without drawing a sample stream."""
    m = cfg.clients_per_round or n_clients
    if m == n_clients:
        return np.arange(n_clients)
    rng = spawn_rng(cfg.seed, "sample", round_index)
    return np.sort(rng.choice(n_clients, size=m, replace=False))


def run_round(
    params: ParamVector,
    prepared: Prepared,
    train_rows: list[np.ndarray],
    clean_counts: np.ndarray,
    algo: Algo,
    cfg: "ExperimentConfig",
    round_index: int,
    ledger: CostLedger,
    sampled: np.ndarray,
    client_words: np.ndarray,
    cache: PlanCache,
) -> tuple[ParamVector, RoundMetrics]:
    """Execute one communication round from the global parameters and
    return the new parameters plus that round's metrics.

    ``sampled`` holds the round's clients, ``_sample(cfg, num_clients,
    round_index)``, and ``client_words[i]`` the PCG64 seed words of client
    ``sampled[i]``'s SGD stream in this round,
    ``client_seed_words(cfg.seed, sampled[i], round_index)``; the trainees
    draw theirs.

    ``train_rows`` holds, for each chunk of ``prepared``, the int64 indices
    of the rows that client trains on, and ``clean_counts`` how many of them
    are clean; a gcfl refresh round replaces the selecting clients' entries
    of both in place.  ``prepared`` is the world of ``cfg``.  ``cache``
    keeps the local SGD's lock-step plan, the scoring plan and the selection
    plan for the next round (see :func:`client_update`,
    :func:`~fedcoreset.scoring.loss` and
    :func:`~fedcoreset.coreset.labelwise_omp_select`); a refresh round drops
    the lock-step plan before the selection runs.
    """
    chunks = prepared.chunks
    theta_size = params.values.size

    if algo.kind == "gcfl" and round_index % cfg.refresh_period == 0:
        cache.drop("lockstep")  # its rows change, and no row copy may sit under the selector
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
            cache=cache,
        )
        for cid, cs in zip(selecting, selected):
            train_rows[cid] = cs.indices
            clean_counts[cid] = np.count_nonzero(chunks[cid].clean_flags[cs.indices])

    ledger.params_broadcast += len(sampled) * theta_size
    # a client with nothing to train on sits this round out
    sizes = [train_rows[cid].size for cid in sampled]
    trainees = [cid for cid, size in zip(sampled, sizes) if size]
    picked = sum(sizes)
    ledger.sgd_sample_visits += cfg.local_epochs * picked
    ledger.update_uploads += len(trainees) * theta_size
    deltas = client_update(
        [chunks[cid] for cid in trainees],
        params,
        [train_rows[cid] for cid in trainees],
        cfg,
        seeds=client_words[np.flatnonzero(sizes)],
        mu=algo.mu if algo.kind == "fedprox" else 0.0,
        cache=cache,
    )

    # nothing modifies a ParamVector in place, so an idle round can return its input
    new_params = aggregate(params, deltas, cfg.global_lr) if trainees else params

    scored = [chunks[cid].dataset for cid in sampled if chunks[cid].n]
    plan = cache.keep("scoring", lambda: scoring_plan(scored, prepared.test),
                      same=(*scored, prepared.test))
    mean_loss, accuracy = loss(new_params, plan)

    clean_frac = None
    if algo.uses_coreset:
        clean = int(clean_counts[sampled].sum())
        clean_frac = clean / picked if picked else 1.0

    rm = RoundMetrics(
        round=round_index,
        test_accuracy=accuracy,
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
    del ds  # the splits are copies: the whole set need not sit under the partition
    chunks = dirichlet_partition(
        train, cfg.num_clients, cfg.dirichlet_alpha, derive_seed(cfg.seed, "partition")
    )
    del train  # the chunks' rows are the partition's client-major table

    # each injector returns its input unchanged at ratio 0
    noise = cfg.noise
    if noise.kind == "open_set":
        chunks, test, val, _ = inject_open_set(
            chunks, test, val, noise, derive_seed(cfg.seed, "noise")
        )
    elif noise.kind != "none":
        inject = inject_closed_set if noise.kind == "closed_set" else inject_attribute
        for c, chunk in enumerate(chunks):
            noisy = inject(chunk, noise, derive_seed(cfg.seed, "noise", c))
            rows = chunk.dataset.features
            if noisy.dataset.features is not rows:
                # attribute noise: its rows go back into the partition's
                # table, so each row is held once; an empty chunk keeps its
                # zero-row view of the table, which would otherwise stay
                # alive beside the noisy copies
                rows[...] = noisy.dataset.features
                noisy = ClientChunk(replace(noisy.dataset, features=rows), noisy.clean_flags)
            chunks[c] = noisy

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
        for c, chunk in enumerate(chunks):
            budget = _client_budget(chunk, cfg.budget_fraction)
            if budget >= 1 and not in_val[chunk.dataset.labels].any():
                raise ConfigurationError(
                    f"client {c} shares no class with the validation "
                    "set, so gcfl cannot select its coreset: raise val_frac"
                )


def run_training(cfg: "ExperimentConfig", algo: Algo, prepared: Prepared) -> TrainingResult:
    """Run T rounds of one algorithm arm on ``prepared``, the world of cfg
    (:func:`prepare_experiment`), fully determined by cfg.seed.

    The arm stops after the first round whose aggregated parameters hold a
    non-finite value, records it as ``diverged_round`` and skips the
    fine-tune: a diverged model's accuracy is not a result.  The rounds
    share one :class:`~fedcoreset.model.PlanCache`, so local SGD copies its
    training rows only in rounds where they change, the scoring plan is
    rebuilt only when the sampled chunks change and the selection plan only
    when the selecting chunks do; it is emptied when the rounds end.  The
    sampled clients and their seed words are drawn a block of rounds at a
    time, ``max(1, SEED_BLOCK // clients_per_round)`` rounds, so their
    memory does not grow with the rounds, and only the sampled clients'
    streams are hashed."""
    params = init_params(
        cfg.model, prepared.test.dim, prepared.test.num_classes, derive_seed(cfg.seed, "init")
    )
    chunks = prepared.chunks
    train_rows = [
        _round0_rows(algo, c, chunk, _client_budget(chunk, cfg.budget_fraction), cfg.seed)
        for c, chunk in enumerate(chunks)
    ]
    clean_counts = np.array(
        [np.count_nonzero(chunk.clean_flags[rows]) for chunk, rows in zip(chunks, train_rows)],
        dtype=np.int64,
    )
    ledger = CostLedger()
    cache = PlanCache()

    series: list[RoundMetrics] = []
    diverged_round = None
    n_clients = len(chunks)
    block = max(1, SEED_BLOCK // (cfg.clients_per_round or n_clients))
    with np.errstate(over="ignore", invalid="ignore"):  # the guard reports a blow-up
        for t in range(cfg.rounds):
            if t % block == 0:
                rounds = np.arange(t, min(t + block, cfg.rounds))
                samples = np.array([_sample(cfg, n_clients, r) for r in rounds.tolist()])
                words = client_seed_words(cfg.seed, samples, rounds[:, None])
            params, rm = run_round(
                params, prepared, train_rows, clean_counts, algo, cfg, t, ledger,
                samples[t % block], words[t % block], cache,
            )
            series.append(rm)
            if not np.isfinite(params.values).all():
                diverged_round = t
                break
    cache.clear()

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
            seeds=seed_words([derive_seed(cfg.seed, "finetune")]),
        )
        result.fine_tuned_accuracy = evaluate_accuracy(params.with_values(tuned), prepared.test)
    return result


def compute_cost_ratio(ledger_gcfl: CostLedger, ledger_fedavg: CostLedger) -> float:
    """Client compute of the coreset arm relative to plain federated
    averaging: (sgd visits + selection gradient evals) / fedavg sgd visits,
    for a fedavg ledger with visits (``cli.run`` checks)."""
    numer = ledger_gcfl.sgd_sample_visits + ledger_gcfl.per_sample_grad_evals
    return numer / ledger_fedavg.sgd_sample_visits
