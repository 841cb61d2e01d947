"""Deterministic seed fan-out.

A single master seed is expanded into independent named substreams
(dataset synthesis, partitioning, noise, per-client per-round SGD, client
sampling, ...) so that changing one knob, e.g. the number of rounds, never
perturbs the draws of an earlier stage.  The derivation is
``SeedSequence(master, spawn_key=crc32(tag) per tag)``, which NumPy
guarantees stable across platforms and versions.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

__all__ = ["derive_seed", "spawn_rng"]


def _spawn_key(tags: tuple[int | str, ...]) -> tuple[int, ...]:
    return tuple(zlib.crc32(repr(t).encode("utf-8")) for t in tags)


def spawn_rng(master_seed: int, *tags: int | str) -> np.random.Generator:
    """Generator for the substream named by ``tags`` under ``master_seed``."""
    ss = np.random.SeedSequence(master_seed, spawn_key=_spawn_key(tags))
    return np.random.Generator(np.random.PCG64(ss))


@functools.lru_cache(maxsize=None, typed=True)
def derive_seed(master_seed: int, *tags: int | str) -> int:
    """Integer seed for the substream, for operations that take a bare seed.

    Memoised without a bound, as the arms of a run derive the same keys (a
    bounded LRU gives a later arm no hits once an arm derives more keys
    than it holds); ``cli.run`` clears the memo as it starts, so it holds
    one run's keys.  The cache is typed because ``repr`` tells ``3`` from
    ``np.int64(3)`` (so their seeds differ) while ``==`` and ``hash`` do
    not.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=_spawn_key(tags))
    return int(ss.generate_state(1, np.uint64)[0])
