import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecs.frames import (
    build_concat,
    build_identity,
    build_oversampled_dft,
    from_matrix,
)
from framecs.rng import make_rng
from framecs.sensing import SensingOperator, gaussian_sensing, measure
from framecs.signals import Signal, dirac_comb, metrics
from framecs.solvers import (
    SolverConfig,
    l1_analysis,
    l1_synthesis,
    lemma_audit,
    operator_norm_estimate,
    reweight_weights,
    reweighted_l1_analysis,
    soft_threshold,
    split_analysis,
)

from oracles import analysis_lp_vertex_oracle, synthesis_lp_vertex_oracle


def identity_sensing(n):
    return SensingOperator(
        n, n, lambda v: v.copy(), lambda v: v.copy(), "dense", 0, False
    )


def random_orthogonal(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


TIGHT_CFG = SolverConfig(max_iter=40000, tol_rel=1e-10, over_relaxation=1.8)


class TestProxPrimitives:
    def test_soft_threshold_real(self):
        out = soft_threshold(np.array([3.0, -1.0]), 1.0)
        assert np.allclose(out, [2.0, 0.0])

    @given(st.floats(0, 2 * math.pi))
    def test_soft_threshold_preserves_phase(self, theta):
        v = np.array([2.0 * np.exp(1j * theta)])
        out = soft_threshold(v, 0.5)
        assert abs(out[0] - 1.5 * np.exp(1j * theta)) <= 1e-12

    def test_soft_threshold_weights(self):
        out = soft_threshold(np.array([3.0, 3.0]), 1.0, weights=np.array([1.0, 2.0]))
        assert np.allclose(out, [2.0, 1.0])
        with pytest.raises(ValueError):
            soft_threshold(np.array([1.0]), -0.5)


class TestOperatorNorm:
    def test_scaled_identity(self):
        est = operator_norm_estimate(
            (lambda v: 3.0 * v, lambda v: 3.0 * v, 10), iters=50
        )
        assert est == pytest.approx(3.0, abs=1e-6)

    def test_unitary(self):
        F = build_oversampled_dft(16, 1)
        est = operator_norm_estimate(F, iters=50)
        assert est == pytest.approx(1.0, abs=1e-6)

    def test_random_dense_matches_svd(self):
        rng = make_rng(12)
        M = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        top = np.linalg.svd(M, compute_uv=False)[0]
        est = operator_norm_estimate(
            (lambda v: M @ v, lambda y: M.conj().T @ y, 10), iters=500
        )
        assert est == pytest.approx(top, rel=1e-4)


class TestL1Analysis:
    def test_identity_constraint_pins_solution(self):
        n = 8
        y = np.array([1.0, -2.0, 0, 0, 3.0, 0, 0, 0], dtype=complex)
        rep = l1_analysis(identity_sensing(n), build_identity(n), y, 0.0,
                          cfg=TIGHT_CFG)
        assert rep.converged
        assert np.linalg.norm(rep.f_hat.samples - y) <= 1e-8

    def test_dirac_comb_exact_recovery(self):
        n = 64
        D = build_concat(
            build_identity(n), build_oversampled_dft(n, 1), 1 / math.sqrt(2)
        )
        f = dirac_comb(n)
        A = gaussian_sensing(32, n, seed=11)
        y, _ = measure(A, f.samples, 0.0, seed=0)
        cfg = SolverConfig(over_relaxation=1.8)
        rep = l1_analysis(A, D, y, 0.0, cfg=cfg)
        assert rep.converged
        assert metrics(rep.f_hat, f)["relative_error"] <= 1e-4
        # minimizer audit: the truth is feasible, so the solver objective
        # cannot exceed it beyond the relative tolerance
        truth_obj = float(np.sum(np.abs(D.adjoint(f.samples))))
        assert rep.objective <= truth_obj * (1 + cfg.tol_rel)

    def test_one_sparse_brute_force(self):
        n, m = 8, 6
        I = build_identity(n)
        A = gaussian_sensing(m, n, seed=3)
        f = np.zeros(n, dtype=complex)
        f[3] = 1.0
        y, _ = measure(A, f, 0.0, seed=0)
        rep = l1_analysis(A, I, y, 0.0, cfg=TIGHT_CFG)
        assert np.linalg.norm(rep.f_hat.samples - f) <= 1e-6
        obj, _ = analysis_lp_vertex_oracle(A.dense().real, np.eye(n), y.real)
        assert rep.objective == pytest.approx(obj, abs=1e-6)

    def test_non_convergence_is_reported_not_raised(self):
        n = 16
        D = build_concat(
            build_identity(n), build_oversampled_dft(n, 1), 1 / math.sqrt(2)
        )
        A = gaussian_sensing(8, n, seed=2)
        y, _ = measure(A, dirac_comb(n).samples, 0.0, seed=0)
        rep = l1_analysis(A, D, y, 0.0, cfg=SolverConfig(max_iter=5))
        assert not rep.converged
        assert rep.iterations == 5

    def test_input_validation(self):
        A = gaussian_sensing(4, 8, seed=0)
        D = build_identity(6)
        with pytest.raises(ValueError, match="dimension mismatch"):
            l1_analysis(A, D, np.zeros(4), 0.0)
        with pytest.raises(ValueError, match="eps"):
            l1_analysis(A, build_identity(8), np.zeros(4), -1.0)
        with pytest.raises(ValueError, match="length m"):
            l1_analysis(A, build_identity(8), np.zeros(5), 0.0)

    def test_history_recorded_when_requested(self):
        n = 8
        y = np.ones(n, dtype=complex)
        cfg = SolverConfig(max_iter=200, history=True)
        rep = l1_analysis(identity_sensing(n), build_identity(n), y, 0.0,
                          cfg=cfg)
        assert rep.history is not None
        assert len(rep.history) == rep.iterations
        obj, feas = rep.history[-1]
        assert obj == pytest.approx(rep.objective, rel=1e-9)
        assert feas == pytest.approx(rep.feasibility, rel=1e-6, abs=1e-12)

    def test_explicit_tol_feas_honored(self):
        n, m = 16, 8
        D = build_oversampled_dft(n, 1)
        A = gaussian_sensing(m, n, seed=5)
        y, _ = measure(A, make_rng(0).standard_normal(n) + 0j, 0.0, seed=0)
        cfg = SolverConfig(max_iter=20000, tol_feas=1e-3, tol_rel=1e-4)
        rep = l1_analysis(A, D, y, 0.0, cfg=cfg)
        assert rep.converged
        assert rep.feasibility <= 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(tol_rel=0.0)
        with pytest.raises(ValueError):
            SolverConfig(over_relaxation=2.0)
        with pytest.raises(ValueError):
            SolverConfig(step_ratio=0.0)

    def test_feasibility_within_slack_when_converged(self):
        n, m = 32, 20
        D = build_oversampled_dft(n, 2)
        A = gaussian_sensing(m, n, seed=8)
        f = make_rng(1).standard_normal(n) + 0j
        y, znorm = measure(A, f, 0.1, seed=5)
        cfg = SolverConfig(max_iter=20000, over_relaxation=1.8)
        rep = l1_analysis(A, D, y, znorm, cfg=cfg)
        assert rep.converged
        tol_feas = 1e-6 * np.linalg.norm(y)
        assert rep.feasibility <= znorm + tol_feas


class TestReweighted:
    def test_single_round_reduces_to_plain(self):
        n, m = 36, 18
        D = build_oversampled_dft(n, 2)
        A = gaussian_sensing(m, n, seed=4)
        y, znorm = measure(A, dirac_comb(n).samples, 0.05, seed=6)
        cfg = SolverConfig(max_iter=3000)
        a = l1_analysis(A, D, y, znorm, cfg=cfg)
        b = reweighted_l1_analysis(A, D, y, znorm, rw_iters=1, cfg=cfg)
        assert np.array_equal(a.f_hat.samples, b.f_hat.samples)
        assert a.iterations == b.iterations

    def test_zero_coefficient_weight_is_inverse_delta(self):
        mags = np.array([0.0, 2.0, 1.0, 0.5, 0.0])
        w, delta = reweight_weights(mags, s=2)
        assert delta == pytest.approx(0.1 * 1.0)
        assert w[0] == pytest.approx(1.0 / delta)
        assert w[4] == pytest.approx(1.0 / delta)

    def test_all_zero_coefficients(self):
        w, delta = reweight_weights(np.zeros(4), s=2)
        assert delta == 1.0
        assert np.allclose(w, 1.0)

    def test_rw_iters_validation(self):
        A = gaussian_sensing(4, 8, seed=0)
        with pytest.raises(ValueError):
            reweighted_l1_analysis(A, build_identity(8), np.zeros(4), 0.0,
                                   rw_iters=0)


class TestL1Synthesis:
    def test_identity_dictionary_matches_analysis(self):
        n, m = 8, 6
        I = build_identity(n)
        A = gaussian_sensing(m, n, seed=3)
        f = np.zeros(n, dtype=complex)
        f[3] = 1.0
        y, _ = measure(A, f, 0.0, seed=0)
        ra = l1_analysis(A, I, y, 0.0, cfg=TIGHT_CFG)
        rs, xh = l1_synthesis(A, I, y, 0.0, cfg=TIGHT_CFG)
        assert np.linalg.norm(ra.f_hat.samples - rs.f_hat.samples) <= 1e-6
        assert np.allclose(rs.f_hat.samples, xh, atol=1e-12)

    def test_duplicated_columns_signal_still_unique(self):
        # x is ambiguous across duplicated atoms, f = Dx is not
        n, m = 8, 6
        M = np.hstack([np.eye(n), np.eye(n)])
        D = from_matrix(M / math.sqrt(2.0))
        A = gaussian_sensing(m, n, seed=13)
        f = np.zeros(n, dtype=complex)
        f[2] = 1.5
        y, _ = measure(A, f, 0.0, seed=0)
        rep, xh = l1_synthesis(A, D, y, 0.0, cfg=TIGHT_CFG)
        assert np.linalg.norm(rep.f_hat.samples - f) <= 1e-5

    def test_against_vertex_oracle(self):
        n, m, d = 8, 5, 12
        rng = make_rng(31)
        q, _ = np.linalg.qr(rng.standard_normal((d, n)))
        D = from_matrix(q.T)  # tight rows
        A = gaussian_sensing(m, n, seed=17)
        x0 = np.zeros(d)
        x0[[1, 7]] = [1.0, -0.5]
        y = A.apply((q.T @ x0).astype(complex))
        rep, xh = l1_synthesis(A, D, y.real + 0j, 0.0, cfg=TIGHT_CFG)
        obj, _ = synthesis_lp_vertex_oracle(A.dense().real @ q.T, y.real)
        assert rep.objective == pytest.approx(obj, abs=1e-5)


class TestSplitAnalysis:
    def test_orthogonal_component_stays_empty(self):
        # D2 spans coordinates the signal never touches; its share of the
        # reconstruction should vanish
        n, m = 16, 12
        h = n // 2
        D1 = from_matrix(np.eye(n)[:, :h])
        D2 = from_matrix(np.eye(n)[:, h:])
        f = np.zeros(n, dtype=complex)
        f[[1, 4]] = [1.0, -2.0]
        A = gaussian_sensing(m, n, seed=19)
        y, _ = measure(A, f, 0.0, seed=0)
        rep, f1, f2 = split_analysis(A, D1, D2, y, 0.0, cfg=TIGHT_CFG)
        assert np.linalg.norm(f2.samples) <= 1e-5
        assert np.linalg.norm(rep.f_hat.samples - f) <= 1e-5

    def test_degenerate_split_matches_analysis_objective(self):
        n, m = 16, 10
        D = build_oversampled_dft(n, 1)
        A = gaussian_sensing(m, n, seed=23)
        f = make_rng(3).standard_normal(n) + 0j
        y, _ = measure(A, f, 0.0, seed=0)
        ra = l1_analysis(A, D, y, 0.0, cfg=TIGHT_CFG)
        rs, _, _ = split_analysis(A, D, D, y, 0.0, cfg=TIGHT_CFG)
        assert rs.objective == pytest.approx(ra.objective, rel=1e-5, abs=1e-7)

    def test_spikes_plus_sines(self):
        n, m = 32, 24
        I = build_identity(n)
        F = build_oversampled_dft(n, 1)
        f = np.zeros(n, dtype=complex)
        f[5] = 1.0
        f += 1.5 * F.dense()[:, 7]
        A = gaussian_sensing(m, n, seed=21)
        y, _ = measure(A, f, 0.0, seed=0)
        cfg = SolverConfig(max_iter=20000, over_relaxation=1.8)
        rep, _, _ = split_analysis(A, I, F, y, 0.0, cfg=cfg)
        rel = np.linalg.norm(rep.f_hat.samples - f) / np.linalg.norm(f)
        assert rel <= 1e-3
        # cross-check against synthesis over the stacked dictionary
        C = build_concat(I, F, 1.0)
        rsyn, _ = l1_synthesis(A, C, y, 0.0, cfg=cfg)
        assert rep.objective == pytest.approx(rsyn.objective, rel=1e-4)

    def test_dimension_validation(self):
        A = gaussian_sensing(4, 8, seed=0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            split_analysis(A, build_identity(8), build_identity(6), np.zeros(4), 0.0)


class TestLemmaAudit:
    def test_exact_recovery_slacks(self):
        n = 16
        D = build_concat(
            build_identity(n), build_oversampled_dft(n, 1), 1 / math.sqrt(2)
        )
        A = gaussian_sensing(12, n, seed=3)
        f = dirac_comb(n)
        audit = lemma_audit(A, D, f.samples, f.samples, eps=0.0, s=8)
        assert audit.tube_norm == 0.0
        assert audit.cone_slack <= 0.0
        assert audit.tail_lhs == 0.0

    def test_tube_and_cone_on_noisy_solve(self):
        n, m = 64, 32
        D = build_concat(
            build_identity(n), build_oversampled_dft(n, 1), 1 / math.sqrt(2)
        )
        f = dirac_comb(n)
        A = gaussian_sensing(m, n, seed=29)
        y, znorm = measure(A, f.samples, 0.05, seed=7)
        cfg = SolverConfig(max_iter=20000, over_relaxation=1.8)
        rep = l1_analysis(A, D, y, znorm, cfg=cfg, reference=f, audit_s=16)
        assert rep.converged
        diag = rep.diagnostics
        tol_feas = 1e-6 * np.linalg.norm(y)
        assert diag.tube_norm <= 2 * znorm + 2 * tol_feas
        cf = D.adjoint(f.samples)
        assert diag.cone_slack <= cfg.tol_rel * np.sum(np.abs(cf))
        assert diag.tail_lhs <= diag.tail_rhs + 1e-12

    def test_block_partition_matches_proof(self):
        # tail blocks: sizes M in decreasing coefficient order, T1 skipped
        rng = make_rng(41)
        n, d = 12, 24
        q, _ = np.linalg.qr(rng.standard_normal((d, n)))
        D = from_matrix(q.T)
        A = gaussian_sensing(6, n, seed=1)
        ft = rng.standard_normal(n) + 0j
        fh = ft + 0.1 * (rng.standard_normal(n) + 0j)
        s, M = 3, 6
        audit = lemma_audit(A, D, ft, fh, eps=0.0, s=s, block_size=M)
        ch = D.adjoint(ft - fh)
        cf = D.adjoint(ft)
        t0 = np.argsort(-np.abs(cf), kind="stable")[:s]
        t0c = np.setdiff1d(np.arange(d), t0)
        tail_sorted = t0c[np.argsort(-np.abs(ch[t0c]), kind="stable")]
        lhs = sum(
            np.linalg.norm(ch[tail_sorted[i : i + M]])
            for i in range(M, tail_sorted.size, M)
        )
        assert audit.tail_lhs == pytest.approx(lhs, rel=1e-12)
        eta = 2 * np.sum(np.abs(cf[t0c])) / math.sqrt(s)
        assert audit.eta == pytest.approx(eta, rel=1e-12)
        assert audit.tail_rhs == pytest.approx(
            math.sqrt(s / M) * (np.linalg.norm(ch[t0]) + eta), rel=1e-12
        )


class TestEngineVsOracleTiny:
    def test_analysis_random_tight_frame(self):
        rng = make_rng(55)
        n, d, m = 6, 10, 4
        q, _ = np.linalg.qr(rng.standard_normal((d, n)))
        Dt = q  # analysis operator rows
        D = from_matrix(q.T)
        A = gaussian_sensing(m, n, seed=77)
        f = rng.standard_normal(n)
        y = A.apply(f.astype(complex))
        rep = l1_analysis(A, D, y, 0.0, cfg=TIGHT_CFG)
        assert rep.converged
        obj, _ = analysis_lp_vertex_oracle(A.dense().real, q, y.real)
        assert rep.objective == pytest.approx(obj, abs=1e-5)

    def test_analysis_concat_real(self):
        rng = make_rng(56)
        n, m = 6, 4
        H = random_orthogonal(n, rng)
        M = np.hstack([np.eye(n), H]) / math.sqrt(2)
        D = from_matrix(M)
        A = gaussian_sensing(m, n, seed=78)
        f = np.zeros(n)
        f[2] = 1.0
        y = A.apply(f.astype(complex))
        rep = l1_analysis(A, D, y, 0.0, cfg=TIGHT_CFG)
        obj, _ = analysis_lp_vertex_oracle(A.dense().real, M.T.real, y.real)
        assert rep.objective == pytest.approx(obj, abs=1e-5)
