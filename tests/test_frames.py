import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecs.certify import _is_tight
from framecs.frames import (
    _GEMM_TABLE_BYTES,
    Dictionary,
    _zak_maps,
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
from framecs.linops import LinearOperator, adjoint_mismatch, gram
from framecs.rng import make_rng
from oracles import gabor_atoms, gabor_window


def random_unit_pair(rng, n):
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return f, np.linalg.norm(f)


def plain(D):
    """D's maps in a Dictionary without its lattice bounds entry, so
    frame_bounds takes the dense or power branch."""
    return Dictionary(D.n, D.d, D.apply, D.adjoint, D.kind, D.tight)


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
    offset grid: ({name: table}, gnorm), the fast path's w_qap when 1/b is
    an integer, else the dense path's windows."""
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
    return {"w_qap": np.ascontiguousarray(w3.transpose(1, 0, 2))}, gnorm


def zak_table_by_its_sum(n, sigma, a, q):
    """H[w, rho, tau] = sum_gamma g((gamma q + tau - rho a) mod n)
    e^{2 pi i w gamma / N} / (||g|| N), N = n/q, summed term by term."""
    g = gabor_window(n, sigma)
    N = n // q
    w, rho, tau = np.meshgrid(
        np.arange(N), np.arange(q // a), np.arange(q), indexing="ij"
    )
    H = np.zeros(w.shape, dtype=complex)
    for gamma in range(N):
        H += g[(gamma * q + tau - rho * a) % n] * np.exp(2j * np.pi * w * gamma / N)
    return H / (math.sqrt(float(np.sum(g**2))) * N)


def closure_vars(D):
    return {
        **inspect.getclosurevars(D._apply).nonlocals,
        **inspect.getclosurevars(D._adjoint).nonlocals,
    }


def window_path(D):
    """Which Gabor path D's maps run: "zak", "gemm" or "ramps"."""
    held = closure_vars(D)
    return "zak" if "H" in held else "gemm" if "w_qap" in held else "ramps"


LATTICES = [
    (64, 8.0, 8, 1 / 32),
    (60, 6.0, 4, 1 / 8),  # padded: Q does not divide n
    (64, math.inf, 8, 1 / 8),
    (30, 4.0, 3, 0.3),  # 1/b is not an integer: dense ramps
    (33, 2.5, 5, 1 / 6),
    (2048, 16.0, 8, 1 / 64),  # a 4 MiB GEMM table: Zak-domain maps
]

# The benchmark's lattices and the path each must take.
BENCHMARK_LATTICES = [
    ((256, 8.0, 8, 1 / 32), "gemm"),  # noise, 64 KiB table
    ((1024, 16.0, 8, 1 / 64), "gemm"),  # radar and certify's frame bounds, 1 MiB
    ((64, 8.0, 8, 1 / 32), "gemm"),  # certify's Monte Carlo frame, 4 KiB
    ((8192, 16.0, 8, 1 / 64), "zak"),  # fullsize, 64 MiB
]


class TestGaborWindowTables:
    @pytest.mark.parametrize("n, sigma, a, b", LATTICES)
    def test_tables_match_the_offset_grid_bit_for_bit(self, n, sigma, a, b):
        """GEMM and ramp tables equal the offset grid's bit for bit, and
        the GEMM adjoint reads w_qap itself; a Zak-side table equals its
        defining sum."""
        D = build_gabor(n, sigma, a, b)
        held = closure_vars(D)
        if window_path(D) == "zak":
            q = round(1 / b)
            ref = zak_table_by_its_sum(n, sigma, a, q)
            assert held["H"].shape == (n // q, q // a, q)
            assert np.max(np.abs(held["H"] - ref)) <= 1e-13 * np.max(np.abs(ref))
            return
        ref, gnorm = offset_grid_tables(n, sigma, a, b)
        assert held["gnorm"] == gnorm
        for name, table in ref.items():
            assert held[name].flags.c_contiguous
            assert np.array_equal(held[name], table), name
        if window_path(D) == "gemm":
            assert np.shares_memory(held["w_qpa"], held["w_qap"])

    def test_build_peak_is_one_table(self):
        # the largest benchmark lattice on the GEMM side
        n, a = 1024, 8
        table = 8 * n * (n // a)  # bytes of one float64 n x n_time table
        tracemalloc.start()
        try:
            D = build_gabor(n, 16.0, a, 1 / 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert window_path(D) == "gemm"
        assert peak <= 1.5 * table, peak / table

    def test_zak_build_peak_stays_small(self):
        # one GEMM table would take 64 MiB here
        tracemalloc.start()
        try:
            D = build_gabor(8192, 16.0, 8, 1 / 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert window_path(D) == "zak"
        assert peak <= 8 * 2**20, peak / 2**20

    @pytest.mark.parametrize("lattice, path", BENCHMARK_LATTICES)
    def test_benchmark_lattices_take_their_paths(self, lattice, path):
        n, _, a, _ = lattice
        assert (8 * n * math.ceil(n / a) > _GEMM_TABLE_BYTES) == (path == "zak")
        assert window_path(build_gabor(*lattice)) == path

    @pytest.mark.parametrize("n, sigma, a, b", [
        (2000, 16.0, 8, 1 / 64),  # Q does not divide n, 4 MB table
        (1536, 8.0, 3, 1 / 64),  # a does not divide Q, 6 MiB table
    ])
    def test_other_lattices_keep_the_gemm_path_at_any_size(self, n, sigma, a, b):
        assert 8 * n * math.ceil(n / a) > _GEMM_TABLE_BYTES
        assert window_path(build_gabor(n, sigma, a, b)) == "gemm"


def sampled_atoms(D, n, sigma, a, b, count):
    """(ks, M[:, ks]): every atom of D, or `count` of them drawn at random
    with the first and last among them, from the atom formula."""
    if count >= D.d:
        ks = np.arange(D.d)
    else:
        ks = np.unique(np.r_[0, D.d - 1, make_rng(31, D.d).choice(D.d, count)])
    return ks, gabor_atoms(n, sigma, a, b, ks)


class TestGaborAtoms:
    """D and D* of every Gabor path against columns built from the atom
    formula g((t - k2 a) mod n) e^{2 pi i k1 b t} / ||g||, not from D."""

    @pytest.mark.parametrize(
        "n, sigma, a, b", LATTICES + [(8192, 16.0, 8, 1 / 64)]
    )
    def test_maps_match_the_atom_formula(self, n, sigma, a, b):
        D = build_gabor(n, sigma, a, b)
        ks, M = sampled_atoms(D, n, sigma, a, b, 48)
        rng = make_rng(32, n)
        # unit vectors, one at a time and as one identity block
        E = np.zeros((D.d, ks.size), dtype=complex)
        E[ks, np.arange(ks.size)] = 1.0
        for j in (0, ks.size // 2, ks.size - 1):
            col = D.apply(E[:, j])
            assert np.linalg.norm(col - M[:, j]) <= 1e-12 * np.linalg.norm(M[:, j])
        cols = D.apply(E)
        assert np.max(np.abs(cols - M)) <= 1e-12 * np.max(np.abs(M))
        # random blocks on the sampled columns
        X = np.zeros((D.d, 3), dtype=complex)
        X[ks] = rng.standard_normal((ks.size, 3)) + 1j * rng.standard_normal((ks.size, 3))
        ref = M @ X[ks]
        assert np.linalg.norm(D.apply(X) - ref) <= 1e-12 * np.linalg.norm(ref)
        # the adjoint through the same atoms, for a vector and a block
        F = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        ref = M.conj().T @ F
        assert np.linalg.norm(D.adjoint(F)[ks] - ref) <= 1e-12 * np.linalg.norm(ref)
        got = D.adjoint(F[:, 0])[ks]
        assert np.linalg.norm(got - ref[:, 0]) <= 1e-12 * np.linalg.norm(ref[:, 0])


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
        D = plain(build_gabor(256, 8.0, 8, 1 / 32))
        M = D.dense()
        eig = np.linalg.eigvalsh(M @ M.conj().T)
        A, B = frame_bounds(D, dense_limit=16)
        assert D._bounds_cache[0] == "power"
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
            return plain(build_gabor(256, 8.0, 8, 1 / 32))

        exact, power = frame_bounds(fresh()), frame_bounds(fresh(), dense_limit=16)
        assert exact != power
        D = fresh()
        assert frame_bounds(D) == exact
        assert frame_bounds(D, dense_limit=16) == power
        D = fresh()
        assert frame_bounds(D, dense_limit=16) == power
        assert frame_bounds(D) == exact

    def test_lattice_entry_answers_both_branches(self):
        D = build_gabor(256, 8.0, 8, 1 / 32)
        branch, bounds = D._bounds_cache
        assert branch == "lattice"
        assert frame_bounds(D) == bounds
        assert frame_bounds(D, dense_limit=16) == bounds
        assert D._bounds_cache == ("lattice", bounds)
        assert bounds == pytest.approx(frame_bounds(plain(D)), rel=1e-13)


@st.composite
def dividing_lattices(draw):
    """(n, a, Q) with a | Q | n and n <= 256."""
    a = draw(st.integers(1, 8))
    q = a * draw(st.integers(1, 8))
    return q * draw(st.integers(1, 256 // q)), a, q


class TestZakMaps:
    @given(dividing_lattices(), st.one_of(st.floats(0.5, 40.0), st.just(math.inf)))
    @settings(max_examples=40, deadline=None)
    def test_zak_maps_equal_the_gemm_maps(self, lattice, sigma):
        n, a, q = lattice
        D = build_gabor(n, sigma, a, 1 / q)
        assert window_path(D) == "gemm"
        g = gabor_window(n, sigma)
        apply, adjoint = _zak_maps(g, math.sqrt(float(np.sum(g**2))), a, q)
        rng = make_rng(33, n)
        for fn, ref, dim in ((apply, D.apply, D.d), (adjoint, D.adjoint, n)):
            for shape in ((dim,), (dim, 3)):
                v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                want = ref(v)
                assert np.linalg.norm(fn(v) - want) <= 1e-13 * np.linalg.norm(want)
            # a (dim, 1) block gives the vector's bits
            v = rng.standard_normal((dim, 1)) + 1j * rng.standard_normal((dim, 1))
            assert np.array_equal(fn(v)[:, 0], fn(v[:, 0]))
        op = LinearOperator(D.d, n, apply, adjoint)
        assert adjoint_mismatch(op, rng, trials=4) <= 1e-10


def lattice_reference(D):
    """Extreme eigenvalues of the dense S = D D* of D's maps."""
    eig = np.linalg.eigvalsh(gram(plain(D)))
    return eig[0], eig[-1]


class TestLatticeBounds:
    @pytest.mark.parametrize("n, sigma, a, b", [
        (1024, 16.0, 8, 1 / 64),  # radar, and certify's frame bounds
        (256, 8.0, 8, 1 / 32),  # noise
        (64, 8.0, 8, 1 / 32),  # certify's Monte Carlo frame
        (8, math.inf, 8, 1 / 8),
        (64, 4.0, 4, 1 / 16),
        (96, 5.0, 3, 1 / 12),
    ])
    def test_bounds_match_the_dense_eigensolve(self, n, sigma, a, b):
        D = build_gabor(n, sigma, a, b)
        branch, (A, B) = D._bounds_cache
        assert branch == "lattice"
        ref_a, ref_b = lattice_reference(D)
        assert A == pytest.approx(ref_a, rel=1e-13)
        assert B == pytest.approx(ref_b, rel=1e-13)

    @given(dividing_lattices(), st.one_of(st.floats(0.5, 40.0), st.just(math.inf)))
    @settings(max_examples=40, deadline=None)
    def test_bounds_on_every_dividing_lattice(self, lattice, sigma):
        n, a, q = lattice
        D = build_gabor(n, sigma, a, 1 / q)
        branch, (A, B) = D._bounds_cache
        assert branch == "lattice"
        ref_a, ref_b = lattice_reference(D)
        assert abs(A - ref_a) <= 1e-12 * ref_b
        assert abs(B - ref_b) <= 1e-12 * ref_b

    @pytest.mark.parametrize("n, sigma, a, b", [
        (60, 6.0, 4, 1 / 8),  # Q does not divide n: padded tables
        (48, 4.0, 3, 1 / 8),  # a does not divide Q
        (40, 4.0, 4, 3 / 20),  # 1/b = 20/3 is not an integer
    ])
    def test_other_lattices_keep_the_dense_and_power_branches(self, n, sigma, a, b):
        D = build_gabor(n, sigma, a, b)
        assert D._bounds_cache is None and not D.tight
        ref_a, ref_b = lattice_reference(D)
        A, B = frame_bounds(D)
        assert D._bounds_cache[0] == "dense"
        assert (A, B) == pytest.approx((ref_a, ref_b), rel=1e-12)
        frame_bounds(D, dense_limit=1)
        assert D._bounds_cache[0] == "power"

    def test_tight_flag_follows_the_lattice_bounds(self):
        flat = build_gabor(8, math.inf, 8, 1 / 8)
        radar = build_gabor(1024, 16.0, 8, 1 / 64)
        assert flat.tight and not radar.tight
        # the flag agrees with the numerical probe verify_error_bound uses
        assert _is_tight(flat) and not _is_tight(radar)


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
