import dataclasses
import math

import numpy as np
import pytest

import framecs.frames as frames
from framecs.frames import (
    Dictionary,
    build_concat,
    build_gabor,
    build_identity,
    build_oversampled_dft,
    frame_bounds,
    from_matrix,
    tighten,
)
from framecs.linops import power_iteration
from framecs.rng import make_rng, split_seed
from framecs.sensing import (
    SensingOperator,
    bernoulli_sensing,
    gaussian_sensing,
    measure,
    subsampled_dft_sign,
)
from framecs.signals import Signal, dirac_comb, metrics
import framecs.solvers as solvers
from framecs.solvers import (
    SolverConfig,
    _Constraint,
    _op_norm,
    _sensing_gram,
    l1_analysis,
    l1_synthesis,
    lemma_audit,
    reweight_weights,
    reweighted_l1_analysis,
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


def operator_norm(apply, adjoint, dim, iters):
    """||K|| from the power iteration on K*K, started as the engine does."""
    lam = power_iteration(
        lambda v: adjoint(apply(v)), dim, make_rng(0, stream=0x9090), iters
    )
    return math.sqrt(lam)


class TestOperatorNorm:
    def test_scaled_identity(self):
        est = operator_norm(lambda v: 3.0 * v, lambda v: 3.0 * v, 10, iters=50)
        assert est == pytest.approx(3.0, abs=1e-6)

    def test_unitary(self):
        F = build_oversampled_dft(16, 1)
        est = operator_norm(F.apply, F.adjoint, F.in_dim, iters=50)
        assert est == pytest.approx(1.0, abs=1e-6)

    def test_random_dense_matches_svd(self):
        rng = make_rng(12)
        M = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        top = np.linalg.svd(M, compute_uv=False)[0]
        est = operator_norm(lambda v: M @ v, lambda y: M.conj().T @ y, 10, iters=500)
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

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    @pytest.mark.parametrize("program", [l1_analysis, l1_synthesis])
    def test_non_finite_eps_rejected(self, program, eps):
        A = gaussian_sensing(4, 8, seed=0)
        with pytest.raises(ValueError, match="eps must be finite and >= 0"):
            program(A, build_identity(8), np.ones(4), eps)

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


PROGRAMS = {
    "analysis": lambda A, D, y, eps, cfg: l1_analysis(A, D, y, eps, cfg=cfg),
    "reweighted": lambda A, D, y, eps, cfg: reweighted_l1_analysis(
        A, D, y, eps, cfg=cfg
    ),
    "synthesis": lambda A, D, y, eps, cfg: l1_synthesis(A, D, y, eps, cfg=cfg)[0],
    "split": lambda A, D, y, eps, cfg: split_analysis(
        A, D, build_identity(A.n), y, eps, cfg=cfg
    )[0],
}


@pytest.mark.parametrize("method", sorted(PROGRAMS))
def test_reported_feasibility_is_the_constraint_residual(method):
    # the engine tracks ||A f - y|| incrementally; the report must still
    # agree with the residual of the returned signal
    n, m = 32, 20
    D = build_oversampled_dft(n, 2)
    A = gaussian_sensing(m, n, seed=8)
    y, znorm = measure(A, make_rng(1).standard_normal(n) + 0j, 0.1, seed=5)
    cfg = SolverConfig(max_iter=2000, over_relaxation=1.8)
    rep = PROGRAMS[method](A, D, y, znorm, cfg)
    assert rep.method == method
    residual = np.linalg.norm(A.apply(rep.f_hat.samples) - y)
    assert abs(rep.feasibility - residual) <= 1e-10 * np.linalg.norm(y)


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
        audit = lemma_audit(A, D, f.samples, f.samples, s=8)
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
        audit = lemma_audit(A, D, ft, fh, s=s, block_size=M)
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

    @pytest.mark.parametrize("block_size", [0, -2])
    def test_block_size_below_one_is_rejected(self, block_size):
        D = build_identity(8)
        A = gaussian_sensing(4, 8, seed=1)
        f = np.ones(8, complex)
        with pytest.raises(ValueError, match="block_size must be >= 1"):
            lemma_audit(A, D, f, f, s=2, block_size=block_size)


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


# ---------------------------------------------------------------------------
# the engine: exact projection, feasible iterates, certified stop

SENSING = {
    "gaussian": gaussian_sensing,
    "bernoulli": bernoulli_sensing,
    "dft": subsampled_dft_sign,
}


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("max_iter", [1, 5, 200])
@pytest.mark.parametrize("kind", sorted(SENSING))
@pytest.mark.parametrize("method", sorted(PROGRAMS))
def test_every_iterate_is_feasible(method, kind, max_iter, noisy, monkeypatch):
    # the primal prox is the projection onto the constraint, so a solve
    # stopped at any iteration returns a feasible signal
    n, m = 32, 20
    A = SENSING[kind](m, n, seed=8)
    D = build_oversampled_dft(n, 2)
    y, znorm = measure(A, make_rng(1).standard_normal(n) + 0j,
                       0.1 if noisy else 0.0, seed=5)
    # the misfit each projection keeps for the duality gap is M x - y
    # applied directly
    defects = []
    project = _Constraint.project

    def checked(con, z):
        x = project(con, z)
        defects.append(float(np.linalg.norm(con.misfit() - (con.apply(x) - con.y))))
        return x

    monkeypatch.setattr(_Constraint, "project", checked)
    cfg = SolverConfig(max_iter=max_iter, over_relaxation=1.8)
    rep = PROGRAMS[method](A, D, y, znorm, cfg)
    assert rep.feasibility <= znorm + 1e-12 * np.linalg.norm(y)
    assert defects and max(defects) <= 1e-12 * np.linalg.norm(y)


def counting(D, keep_bounds):
    """A Dictionary that counts the columns through D's maps; with
    keep_bounds it carries D's bounds entry, as perfbench's proxy does."""
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
    if keep_bounds:
        C._bounds_cache = D._bounds_cache
    return C, columns


class TestStepNorm:
    def test_lattice_gabor_solve_skips_the_power_steps(self):
        D = build_gabor(64, 4.0, 4, 1 / 16)
        A = gaussian_sensing(24, 64, seed=3)
        y, _ = measure(A, make_rng(2).standard_normal(64) + 0j, 0.0, seed=1)
        # the power steps _op_norm takes without the lattice entry
        P, power = counting(D, keep_bounds=False)
        _op_norm(P)
        steps = power["apply"]
        assert steps > 0 and power == {"apply": steps, "adjoint": steps}
        cfg = SolverConfig(max_iter=4, tol_rel=1e-15)
        used = {}
        for keep in (True, False):
            C, used[keep] = counting(D, keep)
            assert l1_analysis(A, C, y, 0.0, cfg=cfg).iterations == 4
        # one application of K = D* and of K* = D per iteration, plus the start
        assert used[True] == {"apply": 5, "adjoint": 5}
        assert used[False] == {"apply": 5 + steps, "adjoint": 5 + steps}

    def test_norm_is_the_root_of_the_upper_frame_bound(self):
        D = build_gabor(1024, 16.0, 8, 1 / 64)
        assert _op_norm(D) == math.sqrt(frame_bounds(D)[1])
        assert _op_norm(D) ** 2 == pytest.approx(frame_bounds(D)[1], rel=4e-16)

    def test_off_lattice_solve_ignores_earlier_frame_bounds(self, monkeypatch):
        A = gaussian_sensing(24, 64, seed=4)
        y, _ = measure(A, make_rng(3).standard_normal(64) + 0j, 0.0, seed=1)
        cfg = SolverConfig(max_iter=300, over_relaxation=1.8)
        reports = []
        for limit in (None, 4096, 1):
            # a concatenation carries no lattice entry, and is not tight
            D = build_concat(build_gabor(64, 4.0, 4, 1 / 16), build_oversampled_dft(64))
            assert D._bounds_cache is None
            if limit is not None:
                with monkeypatch.context() as patch:
                    patch.setattr(frames, "DENSE_BOUNDS_LIMIT", limit)
                    frame_bounds(D)
            reports.append(l1_analysis(A, D, y, 0.0, cfg=cfg))
        first = reports[0]
        for rep in reports[1:]:
            assert np.array_equal(rep.f_hat.samples, first.f_hat.samples)
            assert (rep.objective, rep.feasibility, rep.iterations, rep.converged) == (
                first.objective, first.feasibility, first.iterations, first.converged
            )


def schedule_instance():
    """A 4-sparse Gabor signal at n = 64 from 24 noisy Gaussian measurements."""
    D = build_gabor(64, 4.0, 4, 1 / 16)
    A = gaussian_sensing(24, 64, seed=2)
    rng = make_rng(2)
    x = np.zeros(D.d, dtype=complex)
    support = rng.choice(D.d, 4, replace=False)
    x[support] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    f = D.apply(x)
    y, znorm = measure(A, f, 0.05, seed=12)
    return A, D, f, y, znorm


class TestRoundSchedule:
    """Reweighting rounds before the last stop at _ROUND_TOL * tol_rel; the
    last round, which the report certifies, runs at tol_rel."""

    CFG = SolverConfig(max_iter=20000, tol_rel=1e-6, over_relaxation=1.8)

    def test_intermediate_rounds_run_at_the_loose_tolerance(self, monkeypatch):
        seen = []

        def spy(n, K, K_adj, norm_k, weights, con, cfg, **warm_start):
            seen.append(cfg.tol_rel)
            return pdhg(n, K, K_adj, norm_k, weights, con, cfg, **warm_start)

        pdhg = solvers._pdhg
        monkeypatch.setattr(solvers, "_pdhg", spy)
        A, D, _, y, znorm = schedule_instance()
        cfg = dataclasses.replace(self.CFG, max_iter=5)
        reweighted_l1_analysis(A, D, y, znorm, rw_iters=3, cfg=cfg)
        assert seen == [10 * cfg.tol_rel, 10 * cfg.tol_rel, cfg.tol_rel]
        seen.clear()
        l1_analysis(A, D, y, znorm, cfg=cfg)
        assert seen == [cfg.tol_rel]

    def test_a_capped_earlier_round_is_reported(self, monkeypatch):
        # the last round converges, but round 1 stopped at max_iter, so
        # the solve as a whole did not meet its tolerances
        seen = []

        def capped(n, K, K_adj, norm_k, weights, con, cfg, **warm_start):
            if not seen:
                cfg = dataclasses.replace(cfg, max_iter=3)
            res = pdhg(n, K, K_adj, norm_k, weights, con, cfg, **warm_start)
            seen.append(res.converged)
            return res

        pdhg = solvers._pdhg
        monkeypatch.setattr(solvers, "_pdhg", capped)
        A, D, _, y, znorm = schedule_instance()
        rep = reweighted_l1_analysis(A, D, y, znorm, cfg=self.CFG)
        assert seen == [False, True, True]
        assert not rep.converged

    def test_single_round_equals_plain_field_for_field(self):
        A, D, f, y, znorm = schedule_instance()
        cfg = dataclasses.replace(self.CFG, history=True)
        a = l1_analysis(A, D, y, znorm, cfg=cfg, reference=f)
        b = reweighted_l1_analysis(A, D, y, znorm, rw_iters=1, cfg=cfg, reference=f)
        assert (a.method, b.method) == ("analysis", "reweighted")
        assert np.array_equal(a.f_hat.samples, b.f_hat.samples)
        for field in dataclasses.fields(a):
            if field.name not in ("method", "f_hat"):
                assert getattr(a, field.name) == getattr(b, field.name), field.name

    @pytest.fixture(scope="class")
    def loose_and_tight(self):
        """(report, D.adjoint columns) of a 3-round solve as scheduled and
        with every round at tol_rel."""
        A, D, f, y, znorm = schedule_instance()
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            for factor in (solvers._ROUND_TOL, 1):
                mp.setattr(solvers, "_ROUND_TOL", factor)
                C, columns = counting(D, keep_bounds=True)
                rep = reweighted_l1_analysis(A, C, y, znorm, cfg=self.CFG)
                runs.append((rep, columns["adjoint"]))
        return f, runs

    def test_output_stays_within_tolerance_of_the_all_tight_schedule(
        self, loose_and_tight
    ):
        f, [(loose, _), (tight, _)] = loose_and_tight
        assert loose.converged and tight.converged
        gap = np.linalg.norm(loose.f_hat.samples - tight.f_hat.samples)
        assert gap <= 1e-4 * np.linalg.norm(f)

    def test_loose_rounds_save_adjoint_calls(self, loose_and_tight):
        _, [(_, loose), (_, tight)] = loose_and_tight
        assert loose <= 0.8 * tight


def dense_projection(M, y, eps, z):
    """argmin ||x - z|| s.t. ||M x - y|| <= eps from dense algebra: the
    least-norm correction for eps = 0, else x(mu) solving
    (I + mu M*M) x = z + mu M*y with mu found by bisection."""
    if eps == 0.0:
        return z - np.linalg.pinv(M) @ (M @ z - y)
    if np.linalg.norm(M @ z - y) <= eps:
        return z
    Mh = M.conj().T
    n = M.shape[1]

    def x_of(mu):
        return np.linalg.solve(np.eye(n) + mu * Mh @ M, z + mu * Mh @ y)

    lo, hi = 0.0, 1.0
    while np.linalg.norm(M @ x_of(hi) - y) > eps:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(M @ x_of(mid) - y) > eps:
            lo = mid
        else:
            hi = mid
    return x_of(hi)


@pytest.mark.parametrize("eps_frac", [0.0, 0.3])
@pytest.mark.parametrize("kind,m,n", [
    ("gaussian", 12, 30), ("bernoulli", 12, 30), ("dft", 12, 30),
    ("gaussian", 12, 8),  # rank 8 < m: A A* is singular
])
def test_projection_matches_dense_reference(kind, m, n, eps_frac):
    rng = make_rng(61)
    A = SENSING[kind](m, n, seed=9)
    # y = A f + noise inside range(A) for the singular case
    y = A.apply(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if m <= n:
        y = y + rng.standard_normal(m)
    z = 3.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    eps = eps_frac * float(np.linalg.norm(A.apply(z) - y))
    con = _Constraint(A, y, eps, SolverConfig())
    ref = dense_projection(A.dense(), y, eps, z)
    assert np.linalg.norm(con.project(z) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_subsampled_dft_gram_is_the_closed_form():
    A = subsampled_dft_sign(24, 64, seed=3)
    M = A.dense()
    assert _sensing_gram(A) == 64 / 24
    assert np.allclose(M @ M.conj().T, (64 / 24) * np.eye(24), rtol=0, atol=1e-12)


def test_infeasible_constraint_raises_before_iterating():
    n, m = 8, 12  # rank(A) = 8 < m, so most y are out of range(A)
    A = gaussian_sensing(m, n, seed=split_seed(5, 0))
    y = make_rng(4).standard_normal(m) + 0j
    M = A.dense()
    dist = float(np.linalg.norm(y - M @ np.linalg.lstsq(M, y, rcond=None)[0]))
    with pytest.raises(ValueError) as exc:
        l1_analysis(A, build_identity(n), y, 0.0)
    assert f"{dist:.6g}" in str(exc.value) and "eps = 0" in str(exc.value)
    # a y inside range(A) pins the solution
    f = make_rng(5).standard_normal(n) + 0j
    y_in = A.apply(f)
    rep = l1_analysis(A, build_identity(n), y_in, 0.0, cfg=TIGHT_CFG)
    assert rep.converged
    assert np.linalg.norm(rep.f_hat.samples - f) <= 1e-10 * np.linalg.norm(f)


def oracle_instances():
    """Tiny real eps = 0 instances with exact LP optima: (solve, optimum)."""
    out = []
    for t in range(6):
        rng = make_rng(710, stream=t)
        n, m = 6 + t % 3, 3 + t % 3
        q, _ = np.linalg.qr(rng.standard_normal((n + 4, n)))
        Dt = q if t % 2 else np.vstack([np.eye(n), q[:n].T]) / math.sqrt(2)
        A = gaussian_sensing(m, n, seed=split_seed(711, t))
        f = np.zeros(n)
        f[rng.choice(n, size=2, replace=False)] = rng.standard_normal(2)
        y = A.apply(f + 0j).real + 0j
        D = from_matrix(Dt.T.astype(complex))
        obj, _ = analysis_lp_vertex_oracle(A.dense().real, Dt, y.real)
        out.append(
            (lambda cfg, A=A, D=D, y=y: l1_analysis(A, D, y, 0.0, cfg=cfg), obj)
        )
    for t in range(3):
        rng = make_rng(810, stream=t)
        n, m, d = 6 + t, 4 + t % 2, 12
        q, _ = np.linalg.qr(rng.standard_normal((d, n)))
        A = gaussian_sensing(m, n, seed=split_seed(811, t))
        x0 = np.zeros(d)
        x0[rng.choice(d, size=2, replace=False)] = rng.standard_normal(2)
        y = A.apply((q.T @ x0).astype(complex)).real + 0j
        D = from_matrix(q.T.astype(complex))
        obj, _ = synthesis_lp_vertex_oracle(A.dense().real @ q.T, y.real)
        out.append(
            (lambda cfg, A=A, D=D, y=y: l1_synthesis(A, D, y, 0.0, cfg=cfg)[0], obj)
        )
    return out


@pytest.mark.parametrize("case", range(9))
def test_converged_objective_is_within_tol_of_the_oracle(case):
    # converged=True is a measured optimality test: the objective is
    # within tol_rel of the exact optimum, not merely stalled
    solve, optimum = oracle_instances()[case]
    cfg = SolverConfig(max_iter=40000, tol_rel=1e-6, over_relaxation=1.8,
                       step_ratio=0.25)
    rep = solve(cfg)
    assert rep.converged
    assert abs(rep.objective - optimum) <= cfg.tol_rel * optimum


# ---------------------------------------------------------------------------
# real data in real arithmetic


def _gabor_zak(monkeypatch):
    # a zero table budget sends every a | Q | n lattice to the Zak maps
    monkeypatch.setattr(frames, "_GEMM_TABLE_BYTES", 0)
    return build_gabor(32, 4.0, 4, 1 / 8)


def _real_matrix(n):
    # the identity beside first differences: a real frame of 2n atoms
    diff = np.eye(n) - np.roll(np.eye(n), 1, axis=0)
    return from_matrix(np.hstack([np.eye(n), diff]))


# Dictionaries whose atoms are closed under complex conjugation: D p is
# real for a conjugate-symmetric p, so the analysis programs run a real x.
CLOSED = {
    "gabor-gemm": lambda mp: build_gabor(32, 4.0, 4, 1 / 8),
    "gabor-zak": _gabor_zak,
    "dft": lambda mp: build_oversampled_dft(32, 2),
    "identity": lambda mp: build_identity(32),
    "real-matrix": lambda mp: _real_matrix(32),
    "concat": lambda mp: build_concat(
        build_identity(32), build_oversampled_dft(32, 1), 1 / math.sqrt(2)
    ),
    "tightened": lambda mp: tighten(build_gabor(32, 4.0, 4, 1 / 8)),
}
# D p is far from real: a complex matrix has no conjugate atoms.
NOT_CLOSED = {
    "complex-matrix": lambda: from_matrix(
        make_rng(32).standard_normal((32, 48))
        + 1j * make_rng(33).standard_normal((32, 48))
    ),
}
REAL_CFG = SolverConfig(max_iter=5000, tol_rel=1e-6, over_relaxation=1.8)


def real_instance(n, noisy):
    """Real Gaussian measurements of a real 3-sparse signal: (A, y, eps)."""
    A = gaussian_sensing(16, n, seed=21)
    f = np.zeros(n)
    f[[3, 11, 20]] = [1.0, -2.0, 0.5]
    y, znorm = measure(A, f, 0.05 if noisy else 0.0, seed=23)
    return A, y, znorm


def primal_dtypes(monkeypatch):
    """Records the dtype of every engine run's primal."""
    seen = []

    def spy(*args, **kw):
        res = pdhg(*args, **kw)
        seen.append(res.x.dtype)
        return res

    pdhg = solvers._pdhg
    monkeypatch.setattr(solvers, "_pdhg", spy)
    return seen


def both_paths(monkeypatch, solve):
    """solve() as dispatched and with the real path switched off."""
    seen = primal_dtypes(monkeypatch)
    auto = solve()
    dispatched = list(seen)
    monkeypatch.setattr(solvers, "_real_data", lambda A, y: False)
    forced = solve()
    return auto, forced, dispatched


@pytest.mark.parametrize("rounds", [1, 2])
@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("kind", sorted(CLOSED))
def test_closed_dictionaries_run_real_and_match_the_complex_path(
    kind, noisy, rounds, monkeypatch
):
    D = CLOSED[kind](monkeypatch)
    A, y, eps = real_instance(D.n, noisy)
    auto, forced, dispatched = both_paths(
        monkeypatch,
        lambda: reweighted_l1_analysis(A, D, y, eps, rw_iters=rounds, cfg=REAL_CFG),
    )
    assert dispatched == [np.float64] * rounds
    assert (auto.iterations, auto.converged) == (forced.iterations, forced.converged)
    assert auto.converged
    f, g = auto.f_hat.samples, forced.f_hat.samples
    assert np.all(f.imag == 0.0)
    assert np.linalg.norm(f - g) <= 1e-12 * np.linalg.norm(g)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("kind", sorted(NOT_CLOSED))
def test_other_dictionaries_restart_complex_bit_for_bit(kind, noisy, monkeypatch):
    D = NOT_CLOSED[kind]()
    A, y, eps = real_instance(D.n, noisy)
    cfg = dataclasses.replace(REAL_CFG, max_iter=300, history=True)
    auto, forced, dispatched = both_paths(
        monkeypatch, lambda: reweighted_l1_analysis(A, D, y, eps, rw_iters=2, cfg=cfg)
    )
    # the real attempt stops at its first D p and never returns
    assert dispatched == [np.complex128] * 2
    assert np.array_equal(auto.f_hat.samples, forced.f_hat.samples)
    for field in dataclasses.fields(auto):
        if field.name != "f_hat":
            assert getattr(auto, field.name) == getattr(forced, field.name), field.name


@pytest.mark.parametrize("case", ["complex-y", "subsampled-dft"])
def test_complex_data_stays_complex(case, monkeypatch):
    D = build_gabor(32, 4.0, 4, 1 / 8)
    if case == "complex-y":
        A, y, eps = real_instance(32, noisy=True)
        y = y + 0.01j * make_rng(24).standard_normal(y.size)
    else:
        A = subsampled_dft_sign(16, 32, seed=21)
        y, eps = measure(A, make_rng(22).standard_normal(32), 0.05, seed=23)
    seen = primal_dtypes(monkeypatch)
    rep = l1_analysis(A, D, y, eps, cfg=REAL_CFG)
    assert seen == [np.complex128]
    assert rep.converged
