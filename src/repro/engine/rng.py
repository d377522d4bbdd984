"""Deterministic randomness plumbing for the simulation engine.

Every stochastic entry point in the library takes either an integer seed
or a ``numpy.random.Generator``.  This module centralises the conversion
and the derivation of independent child streams, so that

* a single seed reproduces an entire experiment (sweeps, repetitions,
  multiple processes) bit-for-bit, and
* parallel repetitions use *statistically independent* streams derived
  through :class:`numpy.random.SeedSequence` spawning rather than ad-hoc
  seed arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "RandomSource",
    "as_generator",
    "spawn_generators",
    "replica_seed_sequences",
    "per_replica_generators",
    "derive_seed",
]

#: Anything accepted where randomness is needed.
RandomSource = Union[int, np.random.Generator, np.random.SeedSequence, None]


def as_generator(source: RandomSource) -> np.random.Generator:
    """Normalise ``source`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh OS-entropy generator (only sensible for
    interactive exploration; tests and experiments should pass seeds).
    """
    if isinstance(source, np.random.Generator):
        return source
    if isinstance(source, np.random.SeedSequence):
        return np.random.default_rng(source)
    if source is None:
        return np.random.default_rng()
    if isinstance(source, (int, np.integer)):
        if source < 0:
            raise ValueError("integer seeds must be non-negative")
        return np.random.default_rng(int(source))
    raise TypeError(f"cannot build a Generator from {type(source).__name__}")


def replica_seed_sequences(source: RandomSource, count: int) -> list:
    """Derive ``count`` independent child :class:`~numpy.random.SeedSequence`\\ s.

    This is the derivation underlying :func:`spawn_generators`, exposed so
    per-replica engines can derive replica ``i``'s stream up front, the
    same one the sequential reference path hands replica ``i``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if isinstance(source, np.random.Generator):
        seed_seq = source.bit_generator.seed_seq
        if seed_seq is None:  # pragma: no cover - exotic bit generators
            seed_seq = np.random.SeedSequence(int(source.integers(2**63)))
        return seed_seq.spawn(count)
    if isinstance(source, np.random.SeedSequence):
        return source.spawn(count)
    return np.random.SeedSequence(
        int(source) if source is not None else None
    ).spawn(count)


def spawn_generators(source: RandomSource, count: int) -> list:
    """Derive ``count`` independent child generators from ``source``.

    Child streams are produced with ``SeedSequence.spawn``, which guarantees
    independence regardless of how many children are drawn.  When handed an
    existing ``Generator`` we spawn from its bit generator's seed sequence,
    so repeated calls hand out fresh, non-overlapping streams.
    """
    return [
        np.random.default_rng(child)
        for child in replica_seed_sequences(source, count)
    ]


def per_replica_generators(source: RandomSource, count: int) -> list:
    """One generator per replica: ``count`` children spawned from ``source``.

    The per-replica stream contract in one place — the same derivation as
    :func:`spawn_generators`, so replica ``i`` gets the same stream on
    every engine.
    """
    return spawn_generators(source, count)


def derive_seed(source: RandomSource, stream: int) -> int:
    """A stable 63-bit integer seed for stream index ``stream``.

    Useful when an API boundary (e.g. a subprocess or a benchmark fixture)
    wants plain integers instead of generator objects.
    """
    if stream < 0:
        raise ValueError("stream index must be non-negative")
    if isinstance(source, np.random.Generator):
        base = source.bit_generator.seed_seq
        seq = base if base is not None else np.random.SeedSequence()
    elif isinstance(source, np.random.SeedSequence):
        seq = source
    else:
        seq = np.random.SeedSequence(int(source) if source is not None else None)
    child = seq.spawn(stream + 1)[stream]
    return int(child.generate_state(1, dtype=np.uint64)[0] >> 1)
