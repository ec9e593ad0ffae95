import itertools
import math
import tracemalloc

import numpy as np
import pytest

from framecs.linops import adjoint_mismatch
from framecs.rng import make_rng
from framecs.sensing import (
    bernoulli_sensing,
    from_descriptor,
    gaussian_sensing,
    measure,
    noise_bound,
    subsampled_dft_sign,
)


class TestGaussian:
    def test_seed_determinism(self):
        a = gaussian_sensing(4, 6, seed=7).dense()
        b = gaussian_sensing(4, 6, seed=7).dense()
        assert np.array_equal(a, b)
        c = gaussian_sensing(4, 6, seed=8).dense()
        assert not np.array_equal(a, c)

    def test_energy_preservation_monte_carlo(self):
        # E||Av||^2 = ||v||^2 for unit v, averaged over 2000 fresh draws
        m, n = 20, 50
        rng = make_rng(100)
        v = rng.standard_normal(n)
        v = v / np.linalg.norm(v)
        ratios = [
            float(np.linalg.norm(gaussian_sensing(m, n, seed=t).apply(v)) ** 2)
            for t in range(2000)
        ]
        assert 0.97 <= np.mean(ratios) <= 1.03

    def test_entry_variance(self):
        A = gaussian_sensing(20, 5000, seed=3).dense().real
        assert A.size == 100_000
        assert abs(np.var(A) * 20 - 1.0) <= 0.05
        assert abs(np.mean(A)) <= 0.01

    def test_adjoint_and_linearity(self):
        A = gaussian_sensing(6, 10, seed=1)
        rng = make_rng(2)
        assert adjoint_mismatch(A, rng, trials=50) <= 1e-10
        u = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        lhs = A.apply(2.5 * u + (1 - 2j) * v)
        rhs = 2.5 * A.apply(u) + (1 - 2j) * A.apply(v)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (np.linalg.norm(lhs) + 1)

    def test_matrix_is_stored_once_as_float64(self):
        m, n = 400, 8192
        table = 8 * m * n  # bytes of one float64 m x n matrix
        tracemalloc.start()
        try:
            A = gaussian_sensing(m, n, seed=5)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one matrix, which the adjoint reads through a transposed view;
        # the scaling runs in place, so the build never holds a second one
        assert retained <= 1.1 * table, retained / table
        assert peak <= 1.1 * table, peak / table
        M = A.dense()
        assert M.dtype == np.float64 and M.shape == (m, n)
        assert M is A.dense()
        assert bernoulli_sensing(3, 5, seed=1).dense().dtype == np.float64

    def test_in_place_scaling_is_bit_identical(self):
        m, n, seed = 7, 13, 3
        M = gaussian_sensing(m, n, seed).dense()
        assert np.array_equal(M, make_rng(seed).standard_normal((m, n)) / math.sqrt(m))


class TestBernoulli:
    def test_in_place_build_is_bit_identical(self):
        m, n, seed = 7, 13, 3
        ints = make_rng(seed).integers(0, 2, size=(m, n))
        M = bernoulli_sensing(m, n, seed).dense()
        assert np.array_equal(M, (2.0 * ints - 1.0) / math.sqrt(m))

    def test_entry_magnitudes_exact(self):
        m = 9
        A = bernoulli_sensing(m, 17, seed=5).dense().real
        assert np.all(np.abs(np.abs(A) - 1 / math.sqrt(m)) == 0.0)

    def test_energy_preservation(self):
        m, n = 20, 50
        rng = make_rng(101)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        ratios = [
            float(np.linalg.norm(bernoulli_sensing(m, n, seed=t).apply(v)) ** 2)
            for t in range(2000)
        ]
        assert 0.97 <= np.mean(ratios) <= 1.03

    def test_determinism(self):
        assert np.array_equal(
            bernoulli_sensing(4, 4, seed=11).dense(),
            bernoulli_sensing(4, 4, seed=11).dense(),
        )


class TestSubsampledDftSign:
    def test_full_sampling_is_isometry(self):
        A = subsampled_dft_sign(16, 16, seed=2)
        rng = make_rng(3)
        for _ in range(10):
            v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            assert abs(np.linalg.norm(A.apply(v)) - np.linalg.norm(v)) <= 1e-12 * (
                np.linalg.norm(v)
            )

    @pytest.mark.parametrize("m,n", [(7, 16), (20, 64)])
    def test_matches_dense_materialization(self, m, n):
        A = subsampled_dft_sign(m, n, seed=4)
        M = A.dense()
        rng = make_rng(5)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        assert np.linalg.norm(A.apply(v) - M @ v) <= 1e-10
        assert np.linalg.norm(A.adjoint(y) - M.conj().T @ y) <= 1e-10
        assert np.linalg.norm(A.adjoint(A.apply(v)) - M.conj().T @ (M @ v)) <= 1e-10

    def test_row_average_isotropy_exact(self):
        # averaging ||Av||^2 over every m-subset of rows (signs fixed)
        # recovers ||v||^2 exactly: the sqrt(n/m) scaling is what makes
        # the uniform row sampling unbiased
        n, m = 8, 2
        signs = subsampled_dft_sign(m, n, seed=9).signs
        F = np.fft.fft(np.eye(n)) / math.sqrt(n)
        B = F @ np.diag(signs)
        rng = make_rng(10)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        total = 0.0
        subsets = list(itertools.combinations(range(n), m))
        for rows in subsets:
            A_dense = math.sqrt(n / m) * B[list(rows), :]
            total += float(np.linalg.norm(A_dense @ v) ** 2)
        assert total / len(subsets) == pytest.approx(
            float(np.linalg.norm(v) ** 2), rel=1e-12
        )

    def test_m_exceeding_n_rejected(self):
        with pytest.raises(ValueError, match="cannot exceed"):
            subsampled_dft_sign(17, 16, seed=0)

    def test_adjoint(self):
        A = subsampled_dft_sign(5, 12, seed=6)
        assert adjoint_mismatch(A, make_rng(7), trials=50) <= 1e-10


class TestMeasure:
    def test_zero_noise_exact(self):
        A = gaussian_sensing(5, 8, seed=1)
        f = make_rng(2).standard_normal(8) + 0j
        y, noise_norm = measure(A, f, 0.0, seed=3)
        assert noise_norm == 0.0
        assert np.array_equal(y, A.apply(f))

    def test_noise_energy(self):
        m, sigma = 40, 0.7
        A = gaussian_sensing(m, 10, seed=1)
        f = np.zeros(10, dtype=complex)
        norms = [measure(A, f, sigma, seed=t).noise_norm ** 2 for t in range(1000)]
        assert abs(np.mean(norms) / (m * sigma**2) - 1.0) <= 0.05

    def test_complex_noise_for_complex_operator(self):
        A = subsampled_dft_sign(8, 8, seed=1)
        f = np.ones(8, dtype=complex)
        y, _ = measure(A, f, 0.5, seed=2)
        assert np.max(np.abs(y.imag)) > 0.0

    def test_real_noise_for_real_data(self):
        A = gaussian_sensing(8, 8, seed=1)
        f = np.ones(8, dtype=complex)
        y, _ = measure(A, f, 0.5, seed=2)
        assert np.max(np.abs(y.imag)) == 0.0

    def test_determinism(self):
        A = gaussian_sensing(5, 8, seed=1)
        f = make_rng(4).standard_normal(8) + 0j
        y1, n1 = measure(A, f, 0.3, seed=9)
        y2, n2 = measure(A, f, 0.3, seed=9)
        assert np.array_equal(y1, y2) and n1 == n2

    def test_negative_sigma_rejected(self):
        A = gaussian_sensing(5, 8, seed=1)
        with pytest.raises(ValueError):
            measure(A, np.zeros(8), -0.1, seed=0)


def test_descriptor_round_trip():
    for ctor in (gaussian_sensing, bernoulli_sensing, subsampled_dft_sign):
        A = ctor(6, 12, seed=42)
        B = from_descriptor(A.descriptor())
        assert np.array_equal(A.dense(), B.dense())
    with pytest.raises(ValueError, match="unknown sensing kind"):
        from_descriptor({"kind": "nope", "m": 2, "n": 3, "seed": 0})


def test_noise_bound_formula():
    assert noise_bound(100, 0.5) == pytest.approx(
        math.sqrt(100 + 2 * math.sqrt(200)) * 0.5
    )
