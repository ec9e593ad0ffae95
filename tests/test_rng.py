import numpy as np
import pytest

from framecs.rng import make_rng, rekey

PAIRS = [
    (0, 0),
    (7, 12345),
    (5, 2**63),  # stream at the top bit of the key word
    (-1, 2**63 + 5),  # negative seed, masked to 2**64 - 1
    (2**64 + 7, 3),  # seed wider than the key word, masked to 7
]


def _draws(rng, first):
    # Full-range words first, which show a stale buffered 64-bit word or
    # cached 32-bit half; a rejection sampler such as choice may skip one.
    if first == "raw":
        lead = rng.bit_generator.random_raw(5)
    else:
        lead = rng.integers(0, 2**32, size=3, dtype=np.uint32)
    return [
        lead,
        rng.choice(256, size=4, replace=False),
        rng.standard_normal(8),
        rng.integers(0, 10, size=3, dtype=np.uint32),  # leaves a cached half
        rng.random(5),
    ]


@pytest.mark.parametrize("first", ["raw", "uint32"])
@pytest.mark.parametrize("seed, stream", PAIRS)
def test_rekey_reproduces_make_rng(seed, stream, first):
    rng = make_rng(99, 1)
    _draws(rng, first)  # leave a buffered word and a cached half behind
    assert rekey(rng, seed, stream) is rng
    for got, want in zip(_draws(rng, first), _draws(make_rng(seed, stream), first)):
        assert np.array_equal(got, want)


def test_rekey_walks_consecutive_streams():
    rng = make_rng(0)
    for t in range(50):
        rekey(rng, 3, t)
        got = (rng.random(2), rng.choice(64, size=3, replace=False))
        fresh = make_rng(3, t)
        want = (fresh.random(2), fresh.choice(64, size=3, replace=False))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
