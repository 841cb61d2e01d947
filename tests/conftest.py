import time

import pytest

from fedcoreset.federation import prepare_experiment, run_training
from fedcoreset.presets import blob_benchmark_config

BENCHMARK_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="session")
def benchmark_runs():
    """5 seeds x {fedavg, gcfl, skyline, random} of the blob benchmark,
    keyed by seed then arm kind; ``"elapsed"`` holds the wall time.

    Session-scoped so the acceptance criteria and the golden round logs
    share one set of runs."""
    start = time.monotonic()
    runs = {}
    for seed in BENCHMARK_SEEDS:
        cfg = blob_benchmark_config(seed=seed)
        prepared = prepare_experiment(cfg)
        runs[seed] = {
            algo.kind: run_training(cfg, algo, prepared) for algo in cfg.arms
        }
    runs["elapsed"] = time.monotonic() - start
    return runs
