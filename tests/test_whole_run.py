"""Whole arm runs of the round engine against ``reference.reference_run``,
the engine written client by client on the test oracles: the round
metrics bit for bit (so the round logs byte for byte), the final
accuracies, and the final-parameter bytes."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fedcoreset.config import DatasetConfig, ExperimentConfig, ModelConfig
from fedcoreset.data import NOISE_KINDS, NoiseSpec
from fedcoreset.errors import ConfigurationError
from fedcoreset.federation import ALGO_KINDS, Algo, prepare_experiment, run_training
from fedcoreset.model import ARCHS
from reference import reference_run

OTHER_ARMS = tuple(kind for kind in ALGO_KINDS if kind != "gcfl")


@st.composite
def run_configs(draw):
    """A small valid config weighted toward gcfl selection: gcfl is always
    an arm, with at least one round, a refresh period of 1 to 3 and mostly
    skewed Dirichlet partitions, beside up to two other arms.  Some worlds
    have 8 or more classes, where numpy sums a sample's classes pairwise
    rather than in order, so a change to that order shows."""
    num_clients = draw(st.integers(1, 8))
    others = draw(st.lists(st.sampled_from(OTHER_ARMS), max_size=2, unique=True))
    arms = [Algo("gcfl")] + [
        Algo(kind, mu=draw(st.sampled_from((0.1, 0.5, 2.0)))) for kind in others
    ]
    return ExperimentConfig(
        dataset=DatasetConfig(num_blobs=draw(st.one_of(st.integers(2, 5), st.integers(8, 12))),
                              dim=draw(st.integers(1, 5)),
                              samples_per_blob=draw(st.integers(8, 60))),
        noise=NoiseSpec(draw(st.sampled_from(NOISE_KINDS)),
                        draw(st.sampled_from((0.0, 0.2, 0.5))), 0.5),
        model=ModelConfig(draw(st.sampled_from(ARCHS)), draw(st.integers(1, 5))),
        num_clients=num_clients,
        clients_per_round=draw(st.one_of(st.none(), st.integers(1, num_clients))),
        rounds=draw(st.integers(1, 5)),
        refresh_period=draw(st.integers(1, 3)),
        budget_fraction=draw(st.sampled_from((0.05, 0.2, 0.5, 1.0))),
        local_epochs=draw(st.sampled_from((1, 2, 0))),
        local_lr=draw(st.sampled_from((0.05, 0.3))),
        global_lr=draw(st.sampled_from((0.5, 1.0))),
        lam=draw(st.sampled_from((0.0, 0.5, 2.0))),
        dirichlet_alpha=draw(st.sampled_from((0.05, 0.1, 0.3, 1.0, 100.0))),
        batch_size=draw(st.sampled_from((1, 3, 7, 32))),
        arms=tuple(arms),
        val_frac=draw(st.sampled_from((0.1, 0.3))),
        test_frac=draw(st.sampled_from((0.1, 0.2))),
        seed=draw(st.integers(0, 10_000)),
        fine_tune_epochs=draw(st.integers(0, 1)),
    )


def metric_bits(result):
    """Every round-log field of ``result``, with floats as their exact hex."""
    def bits(value):
        return None if value is None else float(value).hex()

    return [
        (rm.round, bits(rm.test_accuracy), bits(rm.mean_train_loss),
         bits(rm.coreset_clean_fraction), rm.ledger_snapshot)
        for rm in result.rounds
    ]


def check_config(cfg):
    try:
        prepared = prepare_experiment(cfg)
    except ConfigurationError:
        assume(False)  # rejected before round 0: the engine never runs it
    for algo in cfg.arms:
        got = run_training(cfg, algo, prepared)
        want = reference_run(cfg, algo, prepared)
        label = algo.label
        assert metric_bits(got) == metric_bits(want), label
        assert got.final_params.values.tobytes() == want.final_params.values.tobytes(), label
        assert got.final_accuracy == want.final_accuracy, label
        assert got.fine_tuned_accuracy == want.fine_tuned_accuracy, label
        assert got.fine_tune_diverged == want.fine_tune_diverged, label
        assert got.diverged_round == want.diverged_round, label
        assert got.ledger == want.ledger, label


class TestWholeRun:
    # derandomized: the same configs on every run keep tier-1 reproducible
    @given(cfg=run_configs())
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_engine_equals_reference(self, cfg):
        check_config(cfg)

    @pytest.mark.slow
    @given(cfg=run_configs())
    @settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_engine_equals_reference_many(self, cfg):
        check_config(cfg)
