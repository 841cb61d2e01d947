"""Deterministic simulator for coreset-based federated learning.

Clients hold noisy, non-IID shards of a synthetic dataset; the server
guides each client's coreset selection by broadcasting per-class
validation-gradient rows of the softmax layer, and aggregates the clients'
local updates.  Baselines (fedavg, fedprox, skyline, random and
facility-location coresets) run on the same realized data for paired
comparison, with all compute and traffic metered by deterministic counters.
"""

from .config import (
    DatasetConfig,
    ExperimentConfig,
    ModelConfig,
    parse_config,
)
from .coreset import (
    Coreset,
    facility_location_select,
    labelwise_omp_select,
    omp_select,
    random_select,
)
from .data import (
    ClientChunk,
    Dataset,
    NoiseSpec,
    dirichlet_partition,
    inject_attribute,
    inject_closed_set,
    inject_open_set,
    load_dataset_csv,
    make_blobs,
    split_train_val_test,
)
from .errors import ConfigurationError
from .federation import (
    Algo,
    CostLedger,
    TrainingResult,
    aggregate,
    client_update,
    compute_cost_ratio,
    prepare_experiment,
    run_round,
    run_training,
)
from .metrics import (
    RoundMetrics,
    coreset_composition,
    evaluate_accuracy,
    write_round_log,
    write_summary,
)
from .model import (
    ParamVector,
    init_params,
    labelwise_validation_grads,
    loss,
    sgd_epochs,
)

__version__ = "0.1.0"
