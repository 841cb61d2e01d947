"""Frozen per-round logs.

``tests/golden/blob_seed0_<arm>.csv`` is the ``write_round_log`` output of
the seed-0 blob benchmark run of each arm, and
``tests/golden/hidden_seed0_<arm>.csv`` that of a five-round run of the
``hidden`` benchmark shape (``one_hidden`` h=64, dim 50, 10 of 50 clients a
round), so both architectures are covered; its ``fedprox`` arm (mu = 0.1) is
the one golden that takes the proximal branch of the SGD step.
``tests/golden/sparse_seed3_gcfl.csv`` is an eight-round gcfl run at
lambda = 0 (the per-class least-squares weight solve) on 30 small
Dirichlet(0.1) chunks, 12 of them a round and a refresh every second
round, so refresh rounds sample empty clients and clients whose budget
rounds to zero next to clients that select.
``tests/golden/<noise>_seed0_<arm>.csv`` are six-round runs of every arm
kind, 5 of 12 Dirichlet(0.1) clients a round and a refresh every second
round, on a world with 30% open-set noise and on one with 30% attribute
noise (severity 6); they are the goldens that run the facility-location
arm, and clients of one and two samples (budget zero) are sampled.  A refactor
must reproduce every byte; only a deliberate behaviour change may rewrite
these files, and its change note must say so.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from fedcoreset.data import NoiseSpec
from fedcoreset.federation import Algo, prepare_experiment, run_training
from fedcoreset.metrics import write_round_log
from fedcoreset.model import ModelConfig
from fedcoreset.presets import BLOB_BENCHMARK_ARMS, blob_benchmark_config

GOLDEN = Path(__file__).parent / "golden"
HIDDEN_ARMS = (Algo("fedavg"), Algo("gcfl"), Algo("fedprox", mu=0.1))
NOISY_ARMS = (
    Algo("fedavg"),
    Algo("fedprox", mu=0.1),
    Algo("skyline"),
    Algo("random"),
    Algo("facility_location"),
    Algo("gcfl"),
)
NOISY_WORLDS = {
    "open_set": NoiseSpec("open_set", 0.3),
    "attribute": NoiseSpec("attribute", 0.3, severity=6.0),
}


def hidden_config():
    base = blob_benchmark_config(seed=0)
    return replace(
        base,
        dataset=replace(base.dataset, dim=50, samples_per_blob=500),
        model=ModelConfig(arch="one_hidden", hidden_dim=64),
        num_clients=50,
        clients_per_round=10,
        rounds=5,
        arms=HIDDEN_ARMS,
    )


def sparse_config():
    base = blob_benchmark_config(seed=3)
    return replace(
        base,
        dataset=replace(base.dataset, samples_per_blob=60),
        num_clients=30,
        clients_per_round=12,
        dirichlet_alpha=0.1,
        budget_fraction=0.3,
        rounds=8,
        refresh_period=2,
        lam=0.0,
        arms=(Algo("gcfl"),),
    )


def noisy_config(noise: str):
    base = blob_benchmark_config(seed=0)
    return replace(
        base,
        dataset=replace(base.dataset, samples_per_blob=80),
        num_clients=12,
        clients_per_round=5,
        dirichlet_alpha=0.1,
        rounds=6,
        refresh_period=2,
        noise=NOISY_WORLDS[noise],
        arms=NOISY_ARMS,
    )


@pytest.fixture(scope="module")
def hidden_runs():
    cfg = hidden_config()
    prepared = prepare_experiment(cfg)
    return {algo.label: run_training(cfg, algo, prepared) for algo in cfg.arms}


@pytest.mark.parametrize("arm", [a.label for a in BLOB_BENCHMARK_ARMS])
def test_blob_round_log_matches_golden(benchmark_runs, arm, tmp_path):
    path = tmp_path / f"{arm}.csv"
    write_round_log(str(path), benchmark_runs[0][arm].rounds)
    assert path.read_bytes() == (GOLDEN / f"blob_seed0_{arm}.csv").read_bytes()


@pytest.mark.parametrize("arm", [a.label for a in HIDDEN_ARMS])
def test_hidden_round_log_matches_golden(hidden_runs, arm, tmp_path):
    path = tmp_path / f"{arm}.csv"
    write_round_log(str(path), hidden_runs[arm].rounds)
    assert path.read_bytes() == (GOLDEN / f"hidden_seed0_{arm}.csv").read_bytes()


def test_sparse_lam_zero_round_log_matches_golden(tmp_path):
    cfg = sparse_config()
    result = run_training(cfg, cfg.arms[0], prepare_experiment(cfg))
    path = tmp_path / "gcfl.csv"
    write_round_log(str(path), result.rounds)
    assert path.read_bytes() == (GOLDEN / "sparse_seed3_gcfl.csv").read_bytes()


@pytest.mark.parametrize("noise", list(NOISY_WORLDS))
def test_noisy_world_round_logs_match_golden(noise, tmp_path):
    cfg = noisy_config(noise)
    prepared = prepare_experiment(cfg)
    for algo in cfg.arms:
        path = tmp_path / f"{algo.label}.csv"
        write_round_log(str(path), run_training(cfg, algo, prepared).rounds)
        golden = GOLDEN / f"{noise}_seed0_{algo.label}.csv"
        assert path.read_bytes() == golden.read_bytes(), algo.label
