"""Deterministic seed fan-out.

A single master seed is expanded into independent named substreams
(dataset synthesis, partitioning, noise, per-client per-round SGD, client
sampling, ...) so that changing one knob, e.g. the number of rounds, never
perturbs the draws of an earlier stage.  The derivation is
``SeedSequence(master, spawn_key=crc32(tag) per tag)``, which NumPy
guarantees stable across platforms and versions.

Client c's SGD stream in round t is ``default_rng(derive_seed(master,
"client", c, "round", t))``.  An arm needs one per client and round, so
:func:`client_seed_words` runs numpy's ``SeedSequence`` hash for a block of
rounds at once, as uint32 array arithmetic over the two hashings (the
spawn-keyed one and ``default_rng``'s own), and returns each stream's PCG64
seed words; :func:`words_rngs` builds generators from such words in about
2 µs each, the streams of ``default_rng`` bit for bit.  A bare int seed
becomes words through :func:`seed_words`.
"""

from __future__ import annotations

import functools
import zlib
from collections.abc import Sequence

import numpy as np

__all__ = ["derive_seed", "spawn_rng", "seed_words", "client_seed_words", "words_rngs"]

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool of four
# uint32 words, hash constants and multipliers
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _spawn_key(tags: tuple[int | str, ...]) -> tuple[int, ...]:
    return tuple(zlib.crc32(repr(t).encode("utf-8")) for t in tags)


def spawn_rng(master_seed: int, *tags: int | str) -> np.random.Generator:
    """Generator for the substream named by ``tags`` under ``master_seed``."""
    ss = np.random.SeedSequence(master_seed, spawn_key=_spawn_key(tags))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(master_seed: int, *tags: int | str) -> int:
    """Integer seed for the substream, for operations that take a bare seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=_spawn_key(tags))
    return int(ss.generate_state(1, np.uint64)[0])


def _consts(const: int, mult: int, n: int, ndim: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The xor and multiply constants of the next ``n`` hash steps from the
    hash constant ``const``, each step multiplying it by ``mult``, as uint32
    columns that broadcast over ``ndim - 1`` trailing axes; and the hash
    constant after them."""
    seq = [const]
    for _ in range(n):
        seq.append(seq[-1] * mult & _MASK)
    cols = np.array(seq, dtype=np.uint32).reshape((n + 1,) + (1,) * (ndim - 1))
    return cols[:-1], cols[1:], seq[-1]


def _pool(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence.mix_entropy`` over uint32 arrays: ``entropy`` lists
    the entropy words, each an array broadcast over the seeds, and the
    result stacks the four pool words, ``[4, *seeds]``.  The hash steps
    that numpy runs one word at a time with successive constants run here
    on stacked words, and every operand is an array, as uint32 scalar
    arithmetic warns on the wrap-around the hash relies on."""
    const = _INIT_A

    def hashmix(values: np.ndarray, n: int) -> np.ndarray:
        """``n`` successive hashmix steps, step i on ``values[i]`` (or on
        ``values[0]`` for all of them when it has one row)."""
        nonlocal const
        xor, mult, const = _consts(const, _MULT_A, n, values.ndim)
        values = values ^ xor
        values *= mult
        values ^= values >> 16
        return values

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = x * _MIX_L - y * _MIX_R
        out ^= out >> 16
        return out

    ndim = max(word.ndim for word in entropy)
    entropy = [word.reshape((1,) * (ndim - word.ndim) + word.shape) for word in entropy]
    fill = entropy[:_POOL] + [np.zeros((1,) * ndim, dtype=np.uint32)] * (_POOL - len(entropy))
    pool = hashmix(np.stack(np.broadcast_arrays(*fill)), _POOL)
    # numpy's pool[dst] = mix(pool[dst], hashmix(pool[src])) for each dst
    # but src, in order; pool[src] stays fixed meanwhile
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src : src + 1], _POOL - 1))
    for word in entropy[_POOL:]:
        pool = mix(pool, hashmix(word[None], _POOL))
    return pool


def _state(pool: np.ndarray, words: int) -> np.ndarray:
    """``SeedSequence.generate_state(words // 2, np.uint64)`` of the
    ``[4, *seeds]`` pool as ``[words, *seeds]`` uint32, the low word of each
    uint64 first."""
    xor, mult, _ = _consts(_INIT_B, _MULT_B, words, pool.ndim)
    state = pool[[i % _POOL for i in range(words)]] ^ xor
    state *= mult
    state ^= state >> 16
    return state


def _rng_words(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The PCG64 seed words ``SeedSequence(s).generate_state(4, np.uint64)``
    that ``default_rng(s)`` seeds with, for ``s = lo + hi * 2**32``, as a
    C-contiguous uint64 array of shape ``lo.shape + (4,)``.  ``s`` has one
    uint32 word when ``hi`` is 0, and a missing word hashes as a word 0
    does, so every ``s`` takes the same path."""
    state = np.moveaxis(_state(_pool([lo, hi]), 2 * 4), 0, -1)
    # as numpy does: pairs of little-endian uint32, low word first
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def seed_words(seeds: Sequence[int]) -> np.ndarray:
    """``[len(seeds), 4]`` uint64: row i the PCG64 seed words of
    ``np.random.default_rng(seeds[i])``, for seeds in [0, 2**64)."""
    s = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    return _rng_words((s & _MASK).astype(np.uint32), (s >> 32).astype(np.uint32))


def client_seed_words(master_seed: int, clients: np.ndarray, rounds: np.ndarray) -> np.ndarray:
    """``[*shape, 4]`` uint64 over the broadcast shape of the non-negative
    int arrays ``clients`` and ``rounds``: each entry the PCG64 seed words
    of client ``clients[i]``'s stream in round ``rounds[i]``,
    ``default_rng(derive_seed(master_seed, "client", clients[i], "round",
    rounds[i]))``.  So ``client_seed_words(s, np.arange(N), np.arange(T)[:,
    None])`` is ``[T, N, 4]``, every client's stream in every round.

    One vectorized pass, whose memory and time grow with the number of
    seeds; its fixed cost is that of some ten ``default_rng`` calls, so it
    pays on blocks of many seeds."""
    # SeedSequence's uint32 words of the master, least significant first,
    # zero-padded to the pool size as it pads them beside a spawn key
    master = int(master_seed)
    run = [
        np.array([master >> shift & _MASK], dtype=np.uint32)
        for shift in range(0, max(32 * _POOL, master.bit_length()), 32)
    ]

    def crc(values):
        """Each value's spawn-key word, hashed once per int in their range."""
        values = np.asarray(values, dtype=np.int64)
        low = int(values.min())
        keys = np.array(_spawn_key(range(low, int(values.max()) + 1)), dtype=np.uint32)
        return keys[values - low]

    tag = [np.array(_spawn_key((name,)), dtype=np.uint32) for name in ("client", "round")]
    lo, hi = _state(_pool(run + [tag[0], crc(clients), tag[1], crc(rounds)]), 2)
    return _rng_words(lo, hi)


@functools.cache
def _words_source() -> type:
    """A stand-in for ``SeedSequence`` that hands PCG64 precomputed seed
    words.  Made on first use, so importing the package does not import
    ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words  # PCG64 asks for its four uint64 words alone

    return Words


def words_rngs(words: np.ndarray) -> list[np.random.Generator]:
    """One PCG64 generator per row of the ``[n, 4]`` uint64 seed words
    (:func:`seed_words`, :func:`client_seed_words`), each the generator of
    ``default_rng`` on the seed the row was derived from.  PCG64 reads four
    words from each row's buffer, so rows of another width raise ``ValueError``."""
    words = np.ascontiguousarray(words, dtype=np.uint64).reshape(len(words), 4)
    source, pcg64, generator = _words_source(), np.random.PCG64, np.random.Generator
    return [generator(pcg64(source(row))) for row in words]
