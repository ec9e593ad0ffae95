import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from framecs import frames, linops
from framecs.certify import drip_exact_small
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
    range_projector,
    tighten,
)
from framecs.linops import LinearOperator, adjoint_mismatch, gram
from framecs.rng import make_rng
from framecs.scenarios import DICTIONARIES, ExperimentConfig
from framecs.sensing import gaussian_sensing
from oracles import gabor_atoms, gabor_frame_operator, gabor_window


def random_unit_pair(rng, n):
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return f, np.linalg.norm(f)


def plain(D):
    """D's maps in a Dictionary with no recorded bounds (and not marked
    tight), so frame_bounds computes them densely."""
    return Dictionary(D.n, D.d, D.apply, D.adjoint, D.kind)


def tracer_proxy(D):
    """D's maps in a Dictionary built as perfbench's tracer builds its
    proxies: positional fields, then both caches copied over."""
    out = Dictionary(D.n, D.d, D.apply, D.adjoint, D.kind, D.tight)
    out._dense_cache = D._dense_cache
    out._bounds_cache = D._bounds_cache
    return out


def counting(D):
    """(C, columns): D's maps in a Dictionary without its bounds entry,
    and the number of columns that have gone through each of C's maps,
    whether passed one by one or in blocks."""
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
    return C, columns


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

    @pytest.mark.parametrize("c", [2.5, 1.5, math.nan, math.inf])
    def test_non_integer_oversampling_rejected(self, c):
        # int(2.5) would silently build c = 2
        with pytest.raises(ValueError, match="oversampling factor c must be"):
            build_oversampled_dft(16, c)

    def test_dense_cap_blocks_export_not_use(self, monkeypatch):
        D = build_oversampled_dft(64, 2)
        monkeypatch.setattr(linops, "MATERIALIZATION_CAP", 100)
        with pytest.raises(ValueError, match="cap of 100 entries"):
            D.dense()
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

    @pytest.mark.parametrize("sigma", [0.0, -2.0, -math.inf, math.nan])
    def test_sigma_that_is_not_positive_rejected(self, sigma):
        # sigma = 0 gave a NaN window and sigma = -2 the sigma = 2 window
        with pytest.raises(ValueError, match="window sigma must be > 0"):
            build_gabor(64, sigma, 4, 1 / 16)

    @pytest.mark.parametrize("a", [2.5, 4.5])
    def test_non_integer_time_step_rejected(self, a):
        # int(2.5) would silently build a = 2
        with pytest.raises(ValueError, match="time step a must be an integer"):
            build_gabor(64, 4.0, a, 1 / 16)

    @pytest.mark.parametrize("n, sigma, a, b", [
        (60, 6.0, 4, 1 / 8),  # Q does not divide n
        (48, 4.0, 3, 1 / 8),  # a does not divide Q
        (40, 4.0, 4, 3 / 20),  # 1/b = 20/3 is not an integer
        (2000, 16.0, 8, 1 / 64),  # Q does not divide n, above the GEMM table limit
        (1536, 8.0, 3, 1 / 64),  # a does not divide Q, above the GEMM table limit
    ])
    def test_other_lattices_are_rejected(self, n, sigma, a, b):
        with pytest.raises(ValueError, match="does not divide") as exc:
            build_gabor(n, sigma, a, b)
        assert f"n = {n}, a = {a}, 1/b = {1 / b:.12g}" in str(exc.value)

    @pytest.mark.parametrize(
        "n, sigma, a, b", [(8192, 16.0, 256, 1 / 2048), (256, 1.0, 32, 1 / 64)]
    )
    def test_lattice_that_is_not_a_frame_rejected(self, n, sigma, a, b):
        # a | Q | n, but the window is too narrow for the time step: the
        # lattice bounds give A <= 1e-12 B
        with pytest.raises(ValueError, match="not a frame"):
            build_gabor(n, sigma, a, b)

    def test_fast_path_matches_dense(self):
        rng = make_rng(10)
        for n, sigma, a, b in [(64, 4.0, 4, 1 / 16), (96, 5.0, 3, 1 / 12)]:
            D = build_gabor(n, sigma, a, b)
            M = D.dense()
            x = rng.standard_normal(D.d) + 1j * rng.standard_normal(D.d)
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.linalg.norm(D.apply(x) - M @ x) <= 1e-10 * np.linalg.norm(x)
            assert np.linalg.norm(D.adjoint(f) - M.conj().T @ f) <= 1e-10 * np.linalg.norm(f)


def offset_grid_tables(n, sigma, a, b):
    """The GEMM window table w_qap built the old way, from the full
    n x n_time offset grid: (w_qap, gnorm)."""
    n_time = n // a
    t = np.arange(n)
    offsets = (t[:, None] - a * np.arange(n_time)[None, :]) % n
    offsets = np.where(offsets > n / 2, offsets - n, offsets).astype(float)
    if math.isinf(sigma):
        windows = np.ones_like(offsets)
    else:
        windows = np.exp(-(offsets**2) / (2.0 * sigma**2))
    gnorm = math.sqrt(float(np.sum(windows[:, 0] ** 2)))
    w3 = windows.reshape(-1, round(1 / b), n_time)
    return np.ascontiguousarray(w3.transpose(1, 0, 2)), gnorm


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
    """Which Gabor path D's maps run: "zak" or "gemm"."""
    return "zak" if "H" in closure_vars(D) else "gemm"


LATTICES = [
    (64, 8.0, 8, 1 / 32),
    (96, 5.0, 3, 1 / 12),  # odd a
    (64, math.inf, 8, 1 / 64),  # a flat window is a frame only with Q = n
    (45, 3.0, 3, 1 / 9),  # odd a, Q and n
    (60, 4.0, 5, 1 / 15),  # odd a and Q
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
        """A GEMM table equals the offset grid's bit for bit, and the GEMM
        adjoint reads w_qap itself; a Zak-side table equals its defining
        sum."""
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
        assert held["w_qap"].flags.c_contiguous
        assert np.array_equal(held["w_qap"], ref)
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

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_scale_that_is_not_positive_and_finite_rejected(self, scale):
        # NaN and inf pass `scale <= 0` and would build a D whose apply
        # returns NaN
        with pytest.raises(ValueError, match=f"got {scale!r}"):
            build_concat(build_identity(4), build_identity(4), scale)


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

    def test_refused_above_the_dense_limit(self, monkeypatch):
        D = build_gabor(64, 4.0, 4, 1 / 16)
        monkeypatch.setattr(frames, "DENSE_BOUNDS_LIMIT", 16)
        with pytest.raises(ValueError) as exc:
            tighten(D)
        assert str(exc.value) == (
            "dense frame operator of n = 64 exceeds DENSE_BOUNDS_LIMIT (16)"
        )

    def test_gabor_input_left_unmaterialized(self):
        # S = D D* takes n columns through each map; materializing D
        # would take d = 256 more through apply
        C, columns = counting(build_gabor(64, 4.0, 4, 1 / 16))
        tighten(C)
        assert columns == {"apply": 64, "adjoint": 64}


class TestFromMatrix:
    @pytest.mark.parametrize("n, d", [(10, 25), (256, 1024), (64, 200)])
    def test_adjoint_matches_the_conjugate_transpose_bit_for_bit(self, n, d):
        rng = make_rng(40, n)
        M = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        D = from_matrix(M)
        for shape in [(n,), (n, 3), (n, 1)]:
            f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert np.array_equal(D.adjoint(f), M.conj().T @ f)

    def test_build_keeps_no_copy_of_the_matrix(self):
        rng = make_rng(41)
        M = rng.standard_normal((256, 1024)) + 1j * rng.standard_normal((256, 1024))
        tracemalloc.start()
        try:
            D = from_matrix(M)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert D.dense() is M
        assert retained < 0.05 * M.nbytes, retained / M.nbytes

    def test_tightness_is_measured_in_column_chunks(self):
        # M M* at once would hold a 16 MiB conjugated copy of M
        rng = make_rng(42)
        M = rng.standard_normal((256, 4096)) + 1j * rng.standard_normal((256, 4096))
        tracemalloc.start()
        try:
            D = from_matrix(M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not D.tight
        assert peak < 5 * 2**20, peak / 2**20


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

    def test_refused_above_the_dense_limit(self, monkeypatch):
        # no recorded bounds: a non-tight concatenation
        D = build_concat(build_gabor(64, 4.0, 4, 1 / 16), build_oversampled_dft(64))
        monkeypatch.setattr(frames, "DENSE_BOUNDS_LIMIT", 63)
        with pytest.raises(ValueError) as exc:
            frame_bounds(D)
        assert str(exc.value) == (
            "dense frame operator of n = 64 exceeds DENSE_BOUNDS_LIMIT (63)"
        )
        monkeypatch.setattr(frames, "DENSE_BOUNDS_LIMIT", 64)
        assert frame_bounds(D) == frame_bounds(plain(D))

    @pytest.mark.parametrize(
        "n, sigma, a, b", [(64, 4.0, 4, 1 / 16), (96, 5.0, 3, 1 / 12)]
    )
    def test_unmaterialized_frame_takes_n_operator_pairs(self, n, sigma, a, b):
        M = build_gabor(n, sigma, a, b).dense()
        eig = np.linalg.eigvalsh(M @ M.conj().T)
        C, columns = counting(build_gabor(n, sigma, a, b))
        A, B = frame_bounds(C)
        assert columns == {"apply": n, "adjoint": n}
        assert A == pytest.approx(eig[0], rel=1e-12)
        assert B == pytest.approx(eig[-1], rel=1e-12)

    def test_lattice_entry_answers_both_branches(self, monkeypatch):
        D = build_gabor(256, 8.0, 8, 1 / 32)
        bounds = D._bounds_cache
        assert frame_bounds(D) == bounds
        assert bounds == pytest.approx(frame_bounds(plain(D)), rel=1e-13)
        monkeypatch.setattr(frames, "DENSE_BOUNDS_LIMIT", 16)
        assert frame_bounds(D) == bounds
        assert D._bounds_cache is bounds


# name -> (a builder of the dictionary, whether it is tight): every scenario
# dictionary kind at n = 64, and the other constructors' outputs
RECORDED_BOUNDS_CASES = {
    **{kind: (lambda build=build: build(64, ExperimentConfig()), kind != "gabor")
       for kind, build in DICTIONARIES.items()},
    "tighten-gabor": (lambda: tighten(build_gabor(64, 4.0, 4, 1 / 16)), True),
    "from-matrix-tight": (
        lambda: from_matrix(np.linalg.qr(make_rng(43).standard_normal((16, 16)))[0]),
        True),
    "from-matrix": (
        lambda: from_matrix(make_rng(44).standard_normal((16, 80)).view(complex)),
        False),
    "concat-gabor-dft": (lambda: build_concat(build_gabor(64, 4.0, 4, 1 / 16),
                                              build_oversampled_dft(64)), False),
}


@pytest.mark.parametrize("name", RECORDED_BOUNDS_CASES)
def test_recorded_bounds_are_exact(name):
    """frame_bounds agrees with a dense eigensolve of a copy with no
    recorded bounds, a tight dictionary records exactly (1, 1), and a
    proxy built as the tracer builds one answers the same."""
    build, tight = RECORDED_BOUNDS_CASES[name]
    D = build()
    assert D.tight == tight
    A, B = frame_bounds(D)
    eig = np.linalg.eigvalsh(gram(plain(D)))
    assert A == pytest.approx(eig[0], rel=1e-12)
    assert B == pytest.approx(eig[-1], rel=1e-12)
    if tight:
        assert (A, B) == (1.0, 1.0)
    assert frame_bounds(tracer_proxy(D)) == (A, B)


class TestRangeProjector:
    @pytest.mark.parametrize(
        "name", [*DICTIONARIES, "tighten-gabor", "from-matrix-tight"]
    )
    def test_recorded_bounds_give_the_identity_unapplied(self, name):
        D = RECORDED_BOUNDS_CASES[name][0]()
        C, columns = counting(D)
        C._bounds_cache = D._bounds_cache
        assert C._bounds_cache is not None
        v = make_rng(45, D.n).standard_normal(D.n) + 0j
        assert np.array_equal(range_projector(C)(v), v)
        assert columns == {"apply": 0, "adjoint": 0}

    @pytest.mark.parametrize(
        "n, d, rank", [(16, 40, 6), (32, 24, 10), (64, 64, 30), (128, 200, 50)]
    )
    def test_rank_deficient_matches_the_svd_projector(self, n, d, rank):
        rng = make_rng(46, n)
        left = rng.standard_normal((n, 2 * rank)).view(complex)
        M = left @ rng.standard_normal((rank, 2 * d)).view(complex)
        u, sv, _ = np.linalg.svd(M)
        assert sv[rank] <= 1e-13 * sv[0] < sv[rank - 1]
        ref = u[:, :rank] @ u[:, :rank].conj().T
        got = range_projector(from_matrix(M))(np.eye(n, dtype=complex))
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_full_rank_concatenation_is_the_identity(self):
        D = build_concat(build_gabor(64, 4.0, 4, 1 / 16), build_oversampled_dft(64))
        assert D._bounds_cache is None and not D.tight
        v = make_rng(47).standard_normal(64) + 0j
        assert np.array_equal(range_projector(D)(v), v)

    def test_refused_above_the_dense_limit(self, monkeypatch):
        D = build_concat(build_gabor(64, 4.0, 4, 1 / 16), build_oversampled_dft(64))
        monkeypatch.setattr(frames, "DENSE_BOUNDS_LIMIT", 63)
        with pytest.raises(ValueError) as exc:
            range_projector(D)
        assert str(exc.value) == (
            "dense frame operator of n = 64 exceeds DENSE_BOUNDS_LIMIT (63)"
        )


@pytest.mark.parametrize("earlier", ["dense", "drip_exact_small"])
def test_results_do_not_depend_on_earlier_calls(earlier):
    """frame_bounds, gram and tighten give the same bits on a fresh D and
    on one that has been materialized before, since dense() keeps its
    matrix out of the stored one that gram and tighten read, and
    frame_bounds writes nothing on D."""

    def build():
        # a concatenation: no stored matrix, no exact bounds, not tight
        return build_concat(build_gabor(64, 4.0, 4, 1 / 16), build_oversampled_dft(64))

    def results(D):
        return frame_bounds(D), gram(D), tighten(D).dense()

    fresh = results(build())
    D = build()
    if earlier == "dense":
        D.dense()
    else:
        drip_exact_small(gaussian_sensing(8, 64, seed=5), D, 1)
    again = results(D)
    assert again[0] == fresh[0]
    assert np.array_equal(again[1], fresh[1])
    assert np.array_equal(again[2], fresh[2])
    assert D._dense_cache is None and D._bounds_cache is None


@st.composite
def dividing_lattices(draw):
    """(n, a, Q) with a | Q | n and n <= 256."""
    a = draw(st.integers(1, 8))
    q = a * draw(st.integers(1, 8))
    return q * draw(st.integers(1, 256 // q)), a, q


@st.composite
def non_dividing_lattices(draw):
    """(n, a, b) with a*b <= 1 and n <= 256 that do not divide: 1/b is an
    integer Q with a not dividing Q or Q not dividing n, or 1/b is not an
    integer."""
    n, a = draw(st.integers(1, 256)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        q = draw(st.integers(a, 64))
        assume(q % a or n % q)
        return n, a, 1 / q
    b = draw(st.floats(1 / 64, 1 / a))
    assume(abs(1 / b - round(1 / b)) >= 1e-12)
    return n, a, b


@given(non_dividing_lattices())
@settings(max_examples=60, deadline=None)
def test_lattices_that_do_not_divide_are_rejected(lattice):
    n, a, b = lattice
    with pytest.raises(ValueError, match="does not divide"):
        build_gabor(n, 8.0, a, b)


def zak_maps_before_in_place(g, gnorm, a, q):
    """_zak_maps as first written: 2-D DFTs by ifftn/fftn and a D* that
    conjugates the whole table on each call."""
    n = g.size
    N, R = n // q, q // a
    gamma = q * np.arange(N)[:, None, None]
    H = np.fft.ifft(
        g[(gamma + np.arange(q) - a * np.arange(R)[:, None]) % n], axis=0, norm="forward"
    ) / (gnorm * N)

    def apply(x):
        cols = x.shape[1:]
        X = np.fft.ifftn(x.reshape(N, R, q, *cols), axes=(0, 2), norm="forward")
        y = (H.reshape(N, R, q, *(1,) * len(cols)) * X).sum(axis=1)
        return np.fft.fft(y, axis=0).reshape(n, *cols)

    def adjoint(f):
        cols = f.shape[1:]
        F = np.fft.ifft(f.reshape(N, 1, q, *cols), axis=0, norm="forward")
        Hc = H.conj().reshape(N, R, q, *(1,) * len(cols))
        return np.fft.fftn(Hc * F, axes=(0, 2)).reshape(n * R, *cols)

    return apply, adjoint


class TestZakMaps:
    @pytest.mark.parametrize("n, sigma, a, q", [
        (8192, 16.0, 8, 64),  # fullsize
        (8192, 72.2, 64, 512),
        (2048, 16.0, 8, 64),
        (1024, 16.0, 8, 64),  # radar
        (45, math.inf, 3, 9),
    ])
    def test_in_place_maps_equal_the_ifftn_fftn_maps_bit_for_bit(self, n, sigma, a, q):
        g = gabor_window(n, sigma)
        gnorm = math.sqrt(float(np.sum(g**2)))
        maps = _zak_maps(g, gnorm, a, q)
        refs = zak_maps_before_in_place(g, gnorm, a, q)
        rng = make_rng(34, n)
        for fn, ref, dim in zip(maps, refs, (n * (q // a), n)):
            for shape in ((dim,), (dim, 3)):
                v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                kept = v.copy()
                assert np.array_equal(fn(v), ref(v))
                assert np.array_equal(v, kept)  # the operand is not written

    @given(dividing_lattices(), st.one_of(st.floats(0.5, 40.0), st.just(math.inf)))
    @settings(max_examples=40, deadline=None)
    def test_zak_maps_equal_the_gemm_maps(self, lattice, sigma):
        n, a, q = lattice
        try:
            D = build_gabor(n, sigma, a, 1 / q)
        except ValueError as exc:
            # not a frame, so there are no GEMM maps to compare with;
            # test_bounds_on_every_dividing_lattice checks the rejection
            assert "not a frame" in str(exc)
            reject()
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
        A, B = D._bounds_cache
        ref_a, ref_b = lattice_reference(D)
        assert A == pytest.approx(ref_a, rel=1e-13)
        assert B == pytest.approx(ref_b, rel=1e-13)

    @given(dividing_lattices(), st.one_of(st.floats(0.5, 40.0), st.just(math.inf)))
    @settings(max_examples=40, deadline=None)
    def test_bounds_on_every_dividing_lattice(self, lattice, sigma):
        n, a, q = lattice
        try:
            D = build_gabor(n, sigma, a, 1 / q)
        except ValueError as exc:
            # rejected: the frame operator is singular to the build's 1e-12
            assert "not a frame" in str(exc)
            eig = np.linalg.eigvalsh(gabor_frame_operator(n, sigma, a, q))
            assert eig[0] <= 2e-12 * eig[-1]
            return
        A, B = D._bounds_cache
        ref_a, ref_b = lattice_reference(D)
        assert abs(A - ref_a) <= 1e-12 * ref_b
        assert abs(B - ref_b) <= 1e-12 * ref_b

    def test_tight_flag_follows_the_lattice_bounds(self):
        flat = build_gabor(8, math.inf, 8, 1 / 8)  # the unitary DFT: bounds (1, 1)
        radar = build_gabor(1024, 16.0, 8, 1 / 64)  # bounds (7.707, 8.293)
        # A = B = 8: D D* = 8 I, tight in the loose sense but not Parseval
        scaled = build_gabor(64, math.inf, 8, 1 / 64)
        assert flat.tight and not radar.tight and not scaled.tight
        assert scaled._bounds_cache == pytest.approx((8.0, 8.0), rel=1e-13)
        # the flag agrees with D D* = I on the dense frame operator
        for D, tight in ((flat, True), (radar, False), (scaled, False)):
            defect = np.max(np.abs(gram(plain(D)) - np.eye(D.n)))
            assert (defect <= 1e-12) == tight

    @given(dividing_lattices(), st.one_of(st.floats(0.5, 40.0), st.just(math.inf)))
    @example((8, 8, 8), math.inf)  # tight
    @example((64, 8, 64), math.inf)  # A = B = 8
    @settings(max_examples=40, deadline=None)
    def test_tight_exactly_when_both_bounds_are_one(self, lattice, sigma):
        n, a, q = lattice
        try:
            D = build_gabor(n, sigma, a, 1 / q)
        except ValueError as exc:
            assert "not a frame" in str(exc)
            reject()
        A, B = D._bounds_cache
        assert D.tight == (max(abs(A - 1.0), abs(B - 1.0)) <= 1e-12)
        if D.tight:
            rng = make_rng(34, n)
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.linalg.norm(D.apply(D.adjoint(f)) - f) <= 1e-12 * np.linalg.norm(f)


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
