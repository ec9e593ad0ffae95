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
from framecs.solvers import (
    SolverConfig,
    _Constraint,
    _sensing_gram,
    l1_analysis,
    l1_synthesis,
    lemma_audit,
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
def test_every_iterate_is_feasible(method, kind, max_iter, noisy):
    # the primal prox is the projection onto the constraint, so a solve
    # stopped at any iteration returns a feasible signal
    n, m = 32, 20
    A = SENSING[kind](m, n, seed=8)
    D = build_oversampled_dft(n, 2)
    y, znorm = measure(A, make_rng(1).standard_normal(n) + 0j,
                       0.1 if noisy else 0.0, seed=5)
    cfg = SolverConfig(max_iter=max_iter, over_relaxation=1.8)
    rep = PROGRAMS[method](A, D, y, znorm, cfg)
    assert rep.feasibility <= znorm + 1e-12 * np.linalg.norm(y)


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
