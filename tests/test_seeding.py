import numpy as np

from fedcoreset.seeding import derive_seed, spawn_rng


def test_same_tags_same_stream():
    a = spawn_rng(7, "client", 3, "round", 5).standard_normal(4)
    b = spawn_rng(7, "client", 3, "round", 5).standard_normal(4)
    assert (a == b).all()


def test_different_tags_different_streams():
    a = spawn_rng(7, "client", 3, "round", 5).standard_normal(4)
    b = spawn_rng(7, "client", 3, "round", 6).standard_normal(4)
    c = spawn_rng(8, "client", 3, "round", 5).standard_normal(4)
    assert not (a == b).all()
    assert not (a == c).all()


def test_string_and_int_tags_do_not_collide():
    assert derive_seed(0, "5") != derive_seed(0, 5)


def test_derive_seed_stable():
    # frozen values: the fan-out is part of the reproducibility contract
    assert derive_seed(0, "dataset") == derive_seed(0, "dataset")
    assert derive_seed(42, "client", 1, "round", 2) == derive_seed(42, "client", 1, "round", 2)


def test_numpy_and_python_int_tags_keep_their_own_seeds():
    # repr tells the two apart, so they name different substreams, though
    # they compare and hash equal: the memo must not hand one the other's
    python_int, numpy_int = 17226571596288210046, 12761920981498353551
    derive_seed.cache_clear()
    assert derive_seed(0, "client", 3) == python_int
    assert derive_seed(0, "client", np.int64(3)) == numpy_int
    derive_seed.cache_clear()
    assert derive_seed(0, "client", np.int64(3)) == numpy_int
    assert derive_seed(0, "client", 3) == python_int


def test_memo_serves_every_arm_of_a_run(tmp_path):
    # 42 clients x 100 rounds at m = N: one arm derives 4,200 client keys,
    # more than a 4,096-entry LRU would hold, so a bounded memo would give
    # the second arm no hits
    from fedcoreset import cli
    from fedcoreset.config import DatasetConfig, ExperimentConfig
    from fedcoreset.federation import parse_algo

    def run(*arms):
        cfg = ExperimentConfig(
            dataset=DatasetConfig(num_blobs=2, dim=2, samples_per_blob=300),
            num_clients=42, rounds=100, local_epochs=0, dirichlet_alpha=100.0,
            arms=tuple(map(parse_algo, arms)), output_dir=str(tmp_path / "-".join(arms)),
        )
        assert cli.run(cfg) == 0
        return derive_seed.cache_info()

    alone = run("fedavg")
    assert alone.misses > 42 * 100 > 4096
    # run clears the memo first, so the pair's fedavg misses every key again
    # (uncleared, it would hit them all), and fedprox, which derives the
    # same client keys, hits every one
    pair = run("fedavg", "fedprox")
    assert pair.misses == alone.misses
    assert 42 * 100 <= pair.hits < alone.misses
