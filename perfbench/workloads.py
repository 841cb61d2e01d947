"""The benchmark's workloads: generated ``ExperimentConfig``s for ``cli.run``.

Every workload is a closed loop: one process runs one ``cli.run`` with its
rounds back to back, and the next run starts only after it ends.  A
benchmark run with ``--seed s`` uses the experiment seeds ``3s``, ``3s+1``
and ``3s+2`` (so ``--seed 0`` is the paper's seeds 0-2).  Summing over
three data realizations keeps the seed-to-seed swing of the Dirichlet
partition from dominating the timings.
"""

from __future__ import annotations

from dataclasses import replace

from fedcoreset.config import ModelConfig
from fedcoreset.federation import Algo, prepare_experiment
from fedcoreset.presets import blob_benchmark_config

SEEDS_PER_RUN = 3


def experiment_seeds(bench_seed: int) -> list[int]:
    return [SEEDS_PER_RUN * bench_seed + i for i in range(SEEDS_PER_RUN)]


def _blob(seed: int, out: str):
    # The paper's headline experiment, frozen: small chunks (99-716 samples)
    # and batch 32, so it is bound by per-batch Python overhead.
    return blob_benchmark_config(seed=seed, output_dir=out)


def _scale(seed: int, out: str):
    # 37.5k training samples, chunks up to ~6.7k: label-wise matching pursuit
    # dominates the gcfl arm, and fedavg runs the model layer BLAS-bound.
    base = blob_benchmark_config(seed=seed, output_dir=out)
    return replace(
        base,
        dataset=replace(base.dataset, samples_per_blob=5000),
        rounds=10,
        refresh_period=5,
        arms=(Algo("gcfl"), Algo("fedavg")),
    )


def _hidden(seed: int, out: str):
    # P = 64*51 + 10*65 = 3914 parameters, so aggregation's lexsort matters;
    # also covers hidden-layer backprop, partial participation and fedprox.
    base = blob_benchmark_config(seed=seed, output_dir=out)
    return replace(
        base,
        dataset=replace(base.dataset, dim=50, samples_per_blob=500),
        model=ModelConfig(arch="one_hidden", hidden_dim=64),
        num_clients=50,
        clients_per_round=10,
        rounds=50,
        arms=(Algo("fedavg"), Algo("fedprox", mu=0.1), Algo("gcfl")),
    )


def _facility(seed: int, out: str):
    # The round-0 O(b*n^2) facility-location greedy with its n x n similarity
    # matrix.  A near-IID partition (alpha=100) gives every client ~975
    # samples, so the cubic cost and peak memory do not swing with the
    # partition seed the way Dirichlet(0.4) chunk sizes make them.  The gcfl
    # and fedavg arms are there for the arm metrics and the cost ratio.
    base = blob_benchmark_config(seed=seed, output_dir=out)
    return replace(
        base,
        dataset=replace(base.dataset, samples_per_blob=1300),
        dirichlet_alpha=100.0,
        rounds=5,
        arms=(Algo("facility_location"), Algo("gcfl"), Algo("fedavg")),
    )


WORKLOADS = {
    "blob": _blob,
    "scale": _scale,
    "hidden": _hidden,
    "facility": _facility,
}


def make_config(workload: str, seed: int, out: str):
    """The validated config of one workload at one experiment seed."""
    cfg = WORKLOADS[workload](seed, out)
    cfg.validate()
    return cfg


def data_shape(cfg) -> tuple[list[int], int]:
    """(client chunk sizes, classes in the validation set) of cfg's data world.

    The correctness check needs both; they depend on the config alone.
    """
    world = prepare_experiment(cfg)
    return [c.n for c in world.chunks], len(set(world.val.labels.tolist()))
