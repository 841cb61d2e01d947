"""Canned experiment configurations.

``blob_benchmark_config`` is the blob benchmark the acceptance suite and
``perfbench`` run.  The defaults of :class:`ExperimentConfig` give ten
Gaussian blobs in R^10 with standard deviations spanning 1 to 8, a 15% test
split, ten clients under a Dirichlet(0.4) partition, softmax regression,
T=100 rounds with m=N, E=1, a 10% coreset budget and K=10 refresh period;
the benchmark adds 40% closed-set label flips, four arms and the learning
rates (local 0.3, global 1.0), which were calibrated once with a 20-seed
pilot and frozen.  On the command line it is the default config with the
flags ``--local_lr 0.3 --global_lr 1.0 --noise.kind closed_set
--noise.ratio 0.4 --arms fedavg,gcfl,skyline,random``; the pilot is
``fedcoreset sweep --param seed --values $(seq -s, 0 19)`` with those flags
(README, "Experiments").
"""

from __future__ import annotations

from .config import ExperimentConfig
from .data import NoiseSpec
from .federation import Algo

__all__ = ["blob_benchmark_config", "BLOB_BENCHMARK_ARMS"]

BLOB_BENCHMARK_ARMS = (Algo("fedavg"), Algo("gcfl"), Algo("skyline"), Algo("random"))


def blob_benchmark_config(
    seed: int = 0, output_dir: str = "runs/blob_benchmark"
) -> ExperimentConfig:
    return ExperimentConfig(
        local_lr=0.3,
        global_lr=1.0,
        noise=NoiseSpec("closed_set", 0.4),
        arms=BLOB_BENCHMARK_ARMS,
        seed=seed,
        output_dir=output_dir,
    )
