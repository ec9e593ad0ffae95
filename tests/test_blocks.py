"""The block contract: apply and adjoint take a (dim,) vector or a (dim, k)
block, for every dictionary and sensing kind."""

import math

import numpy as np
import pytest

from framecs.frames import (
    build_concat,
    build_gabor,
    build_identity,
    build_oversampled_dft,
    from_matrix,
    tighten,
)
from framecs import linops
from framecs.linops import LinearOperator, gram
from framecs.rng import make_rng
from framecs.sensing import bernoulli_sensing, gaussian_sensing, subsampled_dft_sign


def _complex_matrix(rows, cols, seed):
    rng = make_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


OPERATORS = {
    "gabor-fast": lambda: build_gabor(64, 8.0, 8, 1 / 32),
    "gabor-padded": lambda: build_gabor(60, 6.0, 4, 1 / 8),
    "gabor-ramp": lambda: build_gabor(30, 4.0, 3, 0.3),  # 1/b is not an integer
    "dft": lambda: build_oversampled_dft(16, 3),
    "concat": lambda: build_concat(
        build_identity(16), build_oversampled_dft(16, 1), 1 / math.sqrt(2)
    ),
    "identity": lambda: build_identity(12),
    "from_matrix": lambda: from_matrix(_complex_matrix(10, 25, 3)),
    "tighten": lambda: tighten(build_gabor(32, 4.0, 4, 1 / 8)),
    "gaussian": lambda: gaussian_sensing(20, 64, seed=3),
    "bernoulli": lambda: bernoulli_sensing(20, 64, seed=3),
    "subsampled_dft": lambda: subsampled_dft_sign(20, 64, seed=3),
}
KINDS = list(OPERATORS)


def _dims(op, method):
    return (op.in_dim, op.out_dim) if method == "apply" else (op.out_dim, op.in_dim)


@pytest.mark.parametrize("method", ["apply", "adjoint"])
@pytest.mark.parametrize("kind", KINDS)
def test_block_matches_columns_in_one_call(kind, method):
    op = OPERATORS[kind]()
    dim, out_dim = _dims(op, method)
    X = _complex_matrix(dim, 7, 11)
    # the operator's own callable sees the whole block once: no fallback
    name = "_apply" if method == "apply" else "_adjoint"
    inner, seen = getattr(op, name), []
    setattr(op, name, lambda x: seen.append(x.shape) or inner(x))
    block = getattr(op, method)(X)
    assert seen == [(dim, 7)]
    assert block.shape == (out_dim, 7)
    cols = np.stack([getattr(op, method)(X[:, j]) for j in range(7)], axis=1)
    assert np.max(np.abs(block - cols)) <= 1e-12 * np.max(np.abs(cols))


@pytest.mark.parametrize("method", ["apply", "adjoint"])
@pytest.mark.parametrize("kind", KINDS)
def test_single_column_block_is_the_vector_bit_for_bit(kind, method):
    op = OPERATORS[kind]()
    dim, out_dim = _dims(op, method)
    x = _complex_matrix(dim, 1, 12)
    block = getattr(op, method)(x)
    assert block.shape == (out_dim, 1)
    assert np.array_equal(block[:, 0], getattr(op, method)(x[:, 0]))


@pytest.mark.parametrize("kind", KINDS)
def test_identity_block_reproduces_dense(kind):
    op = OPERATORS[kind]()
    M = op.dense()  # one apply per basis vector, or the stored matrix
    block = op.apply(np.eye(op.in_dim))
    assert np.max(np.abs(block - M)) <= 1e-12 * np.max(np.abs(M))


@pytest.mark.parametrize("kind", KINDS)
def test_other_shapes_are_rejected_naming_the_accepted_ones(kind):
    op = OPERATORS[kind]()
    n_in, n_out = op.in_dim, op.out_dim
    bad = [
        ("apply", np.zeros((n_in, 2, 1)), n_in),
        ("apply", np.zeros((n_in + 1, 2)), n_in),
        ("apply", np.zeros(n_in + 1), n_in),
        ("adjoint", np.zeros((n_out, 1, 3)), n_out),
        ("adjoint", np.zeros((n_out - 1, 2)), n_out),
    ]
    for method, x, dim in bad:
        with pytest.raises(ValueError) as err:
            getattr(op, method)(x)
        msg = str(err.value)
        assert f"({dim},) vector or a ({dim}, k) block" in msg, msg
        assert str(x.shape) in msg


def test_wrong_shaped_block_result_raises_naming_the_expected_shape():
    # apply drops a row of the block; adjoint hands back its transpose
    op = LinearOperator(5, 5, lambda x: x[:4], lambda y: y.T)
    X = _complex_matrix(5, 3, 13)
    for method, got in (("apply", (4, 3)), ("adjoint", (3, 5))):
        with pytest.raises(ValueError) as err:
            getattr(op, method)(X)
        msg = str(err.value)
        assert f"must return shape (5, 3), got {got}" in msg, msg


@pytest.mark.parametrize("kind", KINDS)
def test_gram_matches_the_dense_product(kind):
    op = OPERATORS[kind]()
    M = op.dense()
    ref = M @ M.conj().T
    G = gram(op)
    assert G.shape == (op.out_dim, op.out_dim)
    assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_gaussian_gram_is_real_and_the_chunked_product():
    A = gaussian_sensing(30, 600, seed=4)
    M = A.dense()
    assert M.dtype == np.float64
    ref = np.zeros((30, 30))
    for j in range(0, 600, 256):
        C = np.ascontiguousarray(M[:, j : j + 256])
        ref += C @ C.T
    G = gram(A)
    assert G.dtype == np.float64
    assert np.array_equal(G, ref)


def test_gram_blocks_stay_within_the_budget(monkeypatch):
    D = build_gabor(64, 8.0, 8, 1 / 32)
    widths = []
    inner = D._adjoint
    D._adjoint = lambda y: widths.append(y.shape[1]) or inner(y)
    monkeypatch.setattr(linops, "BLOCK_BYTES", 16 * D.n * 5)
    G = gram(D)
    assert widths == [5] * 12 + [4]
    M = D.dense()
    assert np.max(np.abs(G - M @ M.conj().T)) <= 1e-12
