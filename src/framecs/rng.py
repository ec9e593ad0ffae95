"""Deterministic random number generation.

Every random draw in the package goes through a Philox counter-based
generator keyed by ``(seed, stream)``.  Philox output is fixed across
platforms and numpy versions, which makes all seeded artifacts
bit-reproducible.

Stream splitting convention: a master ``seed`` plus an integer ``stream``
index form the 128-bit Philox key directly, so independent substreams
(per trial, per pulse, per noise draw) are obtained as
``make_rng(seed, stream=k)`` without any state shared between them.
Loops over many substreams re-key one generator with ``rekey`` instead
of building a Generator per stream (a full state reset costs about a
third of a construction).
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "rekey", "split_seed"]

_MASK64 = (1 << 64) - 1


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a Generator for the given (seed, stream) pair."""
    key = [int(seed) & _MASK64, int(stream) & _MASK64]
    return np.random.Generator(np.random.Philox(key=key))


def rekey(rng: np.random.Generator, seed: int, stream: int = 0) -> np.random.Generator:
    """Reset a Philox Generator to the start of the (seed, stream) substream.

    Afterwards ``rng`` draws exactly what ``make_rng(seed, stream)`` would.
    The whole state is replaced, including the buffered outputs and the
    cached 32-bit half, so nothing drawn before carries over.  Returns
    ``rng``.
    """
    # Philox turns make_rng's key list into words by np.asarray and a
    # cast to uint64; the same steps here give the same key.
    key = np.asarray([int(seed) & _MASK64, int(stream) & _MASK64]).astype(np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def split_seed(seed: int, stream: int) -> int:
    """Derive a child seed for components that take a plain integer seed.

    Uses one Philox draw from the (seed, stream) key so children never
    collide with the parent stream.
    """
    return int(make_rng(seed, stream).integers(0, _MASK64, dtype=np.uint64))
