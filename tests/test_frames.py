import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecs.frames import (
    Dictionary,
    build_concat,
    build_gabor,
    build_identity,
    build_oversampled_dft,
    coherence,
    frame_bounds,
    from_matrix,
    gram_pnorm_factor,
    tighten,
)
from framecs.linops import adjoint_mismatch
from framecs.rng import make_rng


def random_unit_pair(rng, n):
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return f, np.linalg.norm(f)


class TestOversampledDft:
    def test_c1_is_unitary_dft(self):
        D = build_oversampled_dft(4, 1)
        M = D.dense()
        assert np.linalg.norm(M @ M.conj().T - np.eye(4), "fro") <= 1e-12
        # entries match exp(-2 pi i k t / n)/sqrt(n)
        t, k = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        expected = np.exp(-2j * np.pi * k * t / 4) / 2.0
        assert np.allclose(M, expected, atol=1e-14)

    def test_c2_atom_norms_and_tightness(self):
        D = build_oversampled_dft(4, 2)
        M = D.dense()
        assert M.shape == (4, 8)
        assert np.allclose(np.linalg.norm(M, axis=0), 1 / math.sqrt(2), atol=1e-13)
        assert np.linalg.norm(M @ M.conj().T - np.eye(4), "fro") <= 1e-12

    def test_adjacent_atom_coherence_dirichlet(self):
        n, c = 16, 4
        D = build_oversampled_dft(n, c)
        M = D.dense()
        d0, d1 = M[:, 0], M[:, 1]
        mu = abs(np.vdot(d0, d1)) / (np.linalg.norm(d0) * np.linalg.norm(d1))
        # |sum_t e^{2 pi i t/(cn)}| / n is a Dirichlet kernel ratio
        dirichlet = abs(math.sin(math.pi * n / (c * n)) / math.sin(math.pi / (c * n))) / n
        assert mu > 0.9
        assert mu == pytest.approx(dirichlet, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_oversampled_dft(0, 1)
        with pytest.raises(ValueError):
            build_oversampled_dft(4, 0)

    def test_dense_cap_blocks_export_not_use(self):
        D = build_oversampled_dft(64, 2)
        with pytest.raises(ValueError, match="cap"):
            D.dense(cap=100)
        x = np.zeros(128, dtype=complex)
        x[0] = 1.0
        assert np.isfinite(D.apply(x)).all()


class TestGabor:
    def test_flat_window_reduces_to_dft(self):
        D = build_gabor(8, math.inf, 8, 1 / 8)
        assert D.d == 8
        A, B = frame_bounds(D)
        assert B / A == pytest.approx(1.0, abs=1e-10)
        M = D.dense()
        # atoms e^{2 pi i k t / 8}/sqrt(8): conjugate of DFT columns
        F = build_oversampled_dft(8, 1).dense()
        assert np.allclose(M, F.conj(), atol=1e-12)

    def test_frame_bounds_match_dense_eig(self):
        D = build_gabor(64, 4.0, 4, 1 / 16)
        assert D.d == 256
        M = D.dense()
        eig = np.linalg.eigvalsh(M @ M.conj().T)
        A, B = frame_bounds(D)
        assert 0 < A <= B
        assert A == pytest.approx(eig[0], rel=1e-9)
        assert B == pytest.approx(eig[-1], rel=1e-9)

    def test_atoms_unit_norm(self):
        M = build_gabor(64, 4.0, 4, 1 / 16).dense()
        assert np.allclose(np.linalg.norm(M, axis=0), 1.0, atol=1e-12)

    def test_tighten_gabor(self):
        D = build_gabor(64, 4.0, 4, 1 / 16)
        T = tighten(D)
        A, B = frame_bounds(T)
        assert B / A == pytest.approx(1.0, abs=1e-8)

    def test_undersampled_grid_rejected(self):
        with pytest.raises(ValueError, match="undersampled"):
            build_gabor(64, 4.0, 8, 1 / 4)

    def test_fast_path_matches_dense(self):
        rng = make_rng(10)
        for n, sigma, a, b in [(64, 4.0, 4, 1 / 16), (60, 6.0, 4, 1 / 8)]:
            D = build_gabor(n, sigma, a, b)
            M = D.dense()
            x = rng.standard_normal(D.d) + 1j * rng.standard_normal(D.d)
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.linalg.norm(D.apply(x) - M @ x) <= 1e-10 * np.linalg.norm(x)
            assert np.linalg.norm(D.adjoint(f) - M.conj().T @ f) <= 1e-10 * np.linalg.norm(f)


def offset_grid_tables(n, sigma, a, b):
    """Gabor window tables built the old way, from the full n x n_time
    offset grid: ({name: table}, gnorm), the fast path's w_qap and w_qpa
    when 1/b is an integer, else the dense path's windows."""
    n_time = math.ceil(n / a)
    t = np.arange(n)
    offsets = (t[:, None] - a * np.arange(n_time)[None, :]) % n
    offsets = np.where(offsets > n / 2, offsets - n, offsets).astype(float)
    if math.isinf(sigma):
        windows = np.ones_like(offsets)
    else:
        windows = np.exp(-(offsets**2) / (2.0 * sigma**2))
    gnorm = math.sqrt(float(np.sum(windows[:, 0] ** 2)))
    q = round(1 / b)
    if abs(1 / b - q) >= 1e-12:
        return {"windows": windows}, gnorm
    pad = (-n) % q
    w3 = np.vstack([windows, np.zeros((pad, n_time))]) if pad else windows
    w3 = w3.reshape(-1, q, n_time)
    return {
        "w_qap": np.ascontiguousarray(w3.transpose(1, 0, 2)),
        "w_qpa": np.ascontiguousarray(w3.transpose(1, 2, 0)),
    }, gnorm


LATTICES = [
    (64, 8.0, 8, 1 / 32),
    (60, 6.0, 4, 1 / 8),  # padded: Q does not divide n
    (64, math.inf, 8, 1 / 8),
    (30, 4.0, 3, 0.3),  # 1/b is not an integer: dense ramps
    (33, 2.5, 5, 1 / 6),
    (2048, 16.0, 8, 1 / 64),
]


class TestGaborWindowTables:
    @pytest.mark.parametrize("n, sigma, a, b", LATTICES)
    def test_tables_match_the_offset_grid_bit_for_bit(self, n, sigma, a, b):
        D = build_gabor(n, sigma, a, b)
        ref, gnorm = offset_grid_tables(n, sigma, a, b)
        held = {
            **inspect.getclosurevars(D._apply).nonlocals,
            **inspect.getclosurevars(D._adjoint).nonlocals,
        }
        assert held["gnorm"] == gnorm
        for name, table in ref.items():
            assert held[name].flags.c_contiguous
            assert np.array_equal(held[name], table), name

    def test_build_peak_is_two_tables(self):
        n, a = 2048, 8
        table = 8 * n * (n // a)  # bytes of one float64 n x n_time table
        tracemalloc.start()
        try:
            build_gabor(n, 16.0, a, 1 / 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * table, peak / table


class TestConcat:
    def test_identity_plus_fourier_is_tight(self):
        D = build_concat(
            build_identity(4), build_oversampled_dft(4, 1), 1 / math.sqrt(2)
        )
        M = D.dense()
        assert np.linalg.norm(M @ M.conj().T - np.eye(4), "fro") <= 1e-12
        assert D.tight

    def test_duplicated_identity(self):
        D = build_concat(build_identity(4), build_identity(4), 1 / math.sqrt(2))
        assert D.tight
        assert coherence(D) == pytest.approx(1.0)

    def test_adjoint_on_e1_by_hand(self):
        D = build_concat(
            build_identity(4), build_oversampled_dft(4, 1), 1 / math.sqrt(2)
        )
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        c = D.adjoint(e1)
        assert np.allclose(c[:4], e1 / math.sqrt(2), atol=1e-14)
        # DFT columns all equal 1/2 at t=0, conjugated by the adjoint
        F = build_oversampled_dft(4, 1).dense()
        assert np.allclose(c[4:], np.conj(F[0, :]) / math.sqrt(2), atol=1e-14)
        assert np.allclose(c[4:], 0.5 / math.sqrt(2), atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            build_concat(build_identity(4), build_identity(8))


class TestTighten:
    def test_tight_input_is_fixed_point(self):
        D = build_oversampled_dft(8, 2)
        T = tighten(D)
        assert np.linalg.norm(T.dense() - D.dense()) <= 1e-10

    def test_scaled_orthobasis(self):
        D = from_matrix(2.0 * np.eye(4))
        T = tighten(D)
        assert np.allclose(T.dense(), np.eye(4), atol=1e-12)

    def test_rank_deficient_rejected(self):
        M = np.zeros((4, 4))
        M[:2, :2] = np.eye(2)
        with pytest.raises(ValueError, match="not a frame"):
            tighten(from_matrix(M))

    def test_gabor_input_left_unmaterialized(self):
        D = build_gabor(64, 4.0, 4, 1 / 16)
        tighten(D)
        assert D._dense_cache is None


class TestFrameBounds:
    def test_unitary(self):
        A, B = frame_bounds(build_oversampled_dft(8, 1))
        assert A == pytest.approx(1.0, abs=1e-10)
        assert B == pytest.approx(1.0, abs=1e-10)

    def test_concat_tight(self):
        D = build_concat(
            build_identity(4), build_oversampled_dft(4, 1), 1 / math.sqrt(2)
        )
        A, B = frame_bounds(D)
        assert (A, B) == pytest.approx((1.0, 1.0), abs=1e-10)

    def test_identity_plus_double_identity(self):
        D = build_concat(build_identity(4), from_matrix(2.0 * np.eye(4)), 1.0)
        A, B = frame_bounds(D)
        assert (A, B) == pytest.approx((5.0, 5.0), abs=1e-10)

    def test_power_branch_matches_dense_eig(self):
        # dense_limit below n forces the power branch, whose 500-step cap
        # binds on this frame.
        D = build_gabor(256, 8.0, 8, 1 / 32)
        M = D.dense()
        eig = np.linalg.eigvalsh(M @ M.conj().T)
        A, B = frame_bounds(D, dense_limit=16)
        assert A == pytest.approx(eig[0], rel=1e-3)
        assert B == pytest.approx(eig[-1], rel=1e-3)

    @pytest.mark.parametrize(
        "n, sigma, a, b", [(64, 4.0, 4, 1 / 16), (60, 6.0, 4, 1 / 8)]
    )
    def test_unmaterialized_frame_takes_n_operator_pairs(self, n, sigma, a, b):
        M = build_gabor(n, sigma, a, b).dense()
        eig = np.linalg.eigvalsh(M @ M.conj().T)
        D = build_gabor(n, sigma, a, b)
        # columns through each map, whether passed one by one or in blocks
        columns = {"apply": 0, "adjoint": 0}

        def counted(name, fn):
            def call(v):
                columns[name] += 1 if v.ndim == 1 else v.shape[1]
                return fn(v)

            return call

        C = Dictionary(
            D.n, D.d, counted("apply", D.apply), counted("adjoint", D.adjoint),
            D.kind, D.tight,
        )
        A, B = frame_bounds(C)
        assert columns == {"apply": n, "adjoint": n}
        assert C._dense_cache is None and D._dense_cache is None
        assert A == pytest.approx(eig[0], rel=1e-12)
        assert B == pytest.approx(eig[-1], rel=1e-12)

    def test_cache_returns_the_requested_branch(self):
        # The dense and power branches differ in the fifth digit here, so a
        # cached result from one branch must not answer a call for the other.
        def fresh():
            return build_gabor(256, 8.0, 8, 1 / 32)

        exact, power = frame_bounds(fresh()), frame_bounds(fresh(), dense_limit=16)
        assert exact != power
        D = fresh()
        assert frame_bounds(D) == exact
        assert frame_bounds(D, dense_limit=16) == power
        D = fresh()
        assert frame_bounds(D, dense_limit=16) == power
        assert frame_bounds(D) == exact


class TestCoherence:
    def test_identity_zero(self):
        assert coherence(build_identity(5)) == 0.0

    def test_duplicate_columns_one(self):
        M = np.ones((3, 1))
        assert coherence(np.hstack([M, M])) == pytest.approx(1.0)

    def test_identity_fourier_half(self):
        M = np.hstack([np.eye(4), build_oversampled_dft(4, 1).dense()])
        assert coherence(M) == pytest.approx(0.5, abs=1e-12)

    def test_zero_column_rejected(self):
        M = np.eye(3).astype(complex)
        M[:, 1] = 0.0
        with pytest.raises(ValueError, match="zero column"):
            coherence(M)

    @given(st.integers(min_value=-8, max_value=8))
    def test_scale_invariance_power_of_two(self, k):
        rng = make_rng(77)
        M = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        alpha = 2.0**k
        assert coherence(alpha * M) == coherence(M)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25)
    def test_scale_invariance_general(self, alpha):
        rng = make_rng(78)
        M = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        assert coherence(alpha * M) == pytest.approx(coherence(M), rel=1e-12)


class TestGramPnormFactor:
    def test_orthonormal_is_one(self):
        for p in (0.25, 0.5, 1.0):
            assert gram_pnorm_factor(build_identity(8), p) == pytest.approx(
                1.0, abs=1e-12
            )
        # fp dirt in a dense orthonormal Gram is amplified by small p, so
        # the DFT case only pins down the moderate exponents
        D = build_oversampled_dft(8, 1)
        for p in (0.5, 1.0):
            assert gram_pnorm_factor(D, p) == pytest.approx(1.0, abs=1e-7)

    def test_identity_fourier_exact(self):
        D = build_concat(
            build_identity(4), build_oversampled_dft(4, 1), 1 / math.sqrt(2)
        )
        assert gram_pnorm_factor(D, 1.0) == pytest.approx(1.5, abs=1e-12)

    def test_p_validation(self):
        D = build_identity(4)
        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                gram_pnorm_factor(D, bad)

    def test_bound_on_random_sparse_vectors(self):
        D = build_concat(
            build_identity(8), build_oversampled_dft(8, 1), 1 / math.sqrt(2)
        )
        G = D.dense().conj().T @ D.dense()
        rng = make_rng(5)
        for trial in range(100):
            p = 0.5 if trial % 2 else 1.0
            factor = gram_pnorm_factor(D, p)
            x = np.zeros(16, dtype=complex)
            support = rng.choice(16, size=4, replace=False)
            x[support] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            lhs = np.sum(np.abs(G @ x) ** p) ** (1 / p)
            rhs = factor * np.sum(np.abs(x) ** p) ** (1 / p)
            assert lhs <= rhs * (1 + 1e-12)


ALL_CONSTRUCTORS = [
    lambda: build_identity(12),
    lambda: build_oversampled_dft(12, 3),
    lambda: build_gabor(32, 3.0, 4, 1 / 8),
    lambda: build_concat(
        build_identity(16), build_oversampled_dft(16, 1), 1 / math.sqrt(2)
    ),
    lambda: tighten(build_gabor(32, 3.0, 4, 1 / 8)),
]


@pytest.mark.parametrize("ctor", ALL_CONSTRUCTORS)
def test_adjoint_consistency_200_pairs(ctor):
    D = ctor()
    assert adjoint_mismatch(D, make_rng(123, stream=D.d), trials=200) <= 1e-10


@pytest.mark.parametrize(
    "ctor",
    [
        lambda: build_oversampled_dft(16, 2),
        lambda: build_concat(
            build_identity(16), build_oversampled_dft(16, 1), 1 / math.sqrt(2)
        ),
        lambda: tighten(build_gabor(32, 3.0, 4, 1 / 8)),
    ],
)
def test_tight_constructors_parseval_100(ctor):
    D = ctor()
    rng = make_rng(9, stream=D.d)
    for _ in range(100):
        f, norm = random_unit_pair(rng, D.n)
        assert np.linalg.norm(D.apply(D.adjoint(f)) - f) <= 1e-8 * norm
