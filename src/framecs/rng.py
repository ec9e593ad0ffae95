"""Deterministic random number generation.

Every random draw in the package goes through a Philox counter-based
generator keyed by ``(seed, stream)``.  Philox output is fixed across
platforms and numpy versions, which makes all seeded artifacts
bit-reproducible.

Stream splitting convention: a master ``seed`` plus an integer ``stream``
index form the 128-bit Philox key directly, so independent substreams
(per trial, per pulse, per noise draw) are obtained as
``make_rng(seed, stream=k)`` without any state shared between them.
Because Philox is counter-based, many draws can also share one stream
at fixed offsets: ``bit_generator.advance(k)`` skips 4k 64-bit words, so
a bulk read and a read after ``advance`` return the same values.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "split_seed"]

_MASK64 = (1 << 64) - 1


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a Generator for the given (seed, stream) pair."""
    key = [int(seed) & _MASK64, int(stream) & _MASK64]
    return np.random.Generator(np.random.Philox(key=key))


def split_seed(seed: int, stream: int) -> int:
    """Derive a child seed for components that take a plain integer seed.

    Uses one Philox draw from the (seed, stream) key so children never
    collide with the parent stream.
    """
    return int(make_rng(seed, stream).integers(0, _MASK64, dtype=np.uint64))
