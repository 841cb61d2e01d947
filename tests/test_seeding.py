import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcoreset.seeding import client_seed_words, derive_seed, seed_words, spawn_rng, words_rngs


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
    # they compare and hash equal
    python_int, numpy_int = 17226571596288210046, 12761920981498353551
    assert derive_seed(0, "client", 3) == python_int
    assert derive_seed(0, "client", np.int64(3)) == numpy_int
    assert derive_seed(0, "client", np.int64(3)) == numpy_int
    assert derive_seed(0, "client", 3) == python_int


def rng_words(seed):
    """The PCG64 seed words of ``np.random.default_rng(seed)``."""
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


@settings(max_examples=60, deadline=None)
@given(
    master=st.one_of(st.sampled_from((0, 2**32 - 1, 2**32, 2**64 + 5)),
                     st.integers(0, 2**64), st.integers(0, 2**200)),
    clients=st.integers(1, 6),
    first=st.one_of(st.just(0), st.integers(0, 10**6)),
    rounds=st.integers(1, 4),
)
def test_client_words_are_the_seed_sequence_words(master, clients, first, rounds):
    words = client_seed_words(master, clients, range(first, first + rounds))
    assert words.dtype == np.uint64 and words.shape == (rounds, clients, 4)
    assert words.flags.c_contiguous
    for j, t in enumerate(range(first, first + rounds)):
        for c in range(clients):
            want = rng_words(derive_seed(master, "client", c, "round", t))
            assert np.array_equal(words[j, c], want), (master, c, t)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.one_of(st.sampled_from((0, 1, 2**32 - 1, 2**32, 2**64 - 1)),
                                st.integers(0, 2**64 - 1)), max_size=5))
def test_seed_words_are_the_default_rng_words(seeds):
    words = seed_words(seeds)
    assert words.shape == (len(seeds), 4)
    for row, seed in zip(words, seeds):
        assert np.array_equal(row, rng_words(seed)), seed


def test_word_generators_draw_the_default_rng_streams():
    seeds = [0, 7, 2**32, derive_seed(3, "client", 0, "round", 0)]
    for rng, seed in zip(words_rngs(seed_words(seeds)), seeds):
        want = np.random.default_rng(seed)
        assert np.array_equal(rng.permutation(50), want.permutation(50))
        assert rng.random() == want.random()


@pytest.mark.parametrize("width", [3, 5])
def test_word_rows_of_another_width_are_rejected(width):
    # PCG64 reads four words from a row's buffer: three would read past it, five drop one
    with pytest.raises(ValueError):
        words_rngs(np.zeros((2, width), dtype=np.uint64))
