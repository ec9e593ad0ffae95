import numpy as np
import pytest

from framecs.rng import make_rng

PAIRS = [
    (0, 0),
    (7, 12345),
    (5, 2**63),  # stream at the top bit of the key word
    (-1, 2**63 + 5),  # negative seed, masked to 2**64 - 1
    (2**64 + 7, 3),  # seed wider than the key word, masked to 7
]


@pytest.mark.parametrize("seed, stream", PAIRS)
def test_advance_reproduces_a_bulk_read(seed, stream):
    # advance(k) skips 4k 64-bit words, one per double drawn by random()
    bulk = make_rng(seed, stream).random((6, 8))
    for row in (0, 1, 5):
        rng = make_rng(seed, stream)
        rng.bit_generator.advance(row * 8 // 4)
        assert np.array_equal(rng.random(8), bulk[row])
