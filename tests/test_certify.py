import itertools
import math

import numpy as np
import pytest

from framecs import certify
from framecs.certify import (
    concentration_check,
    drip_exact_small,
    drip_monte_carlo,
    theorem_constants,
    theorem_constants_from_delta,
    verify_error_bound,
)
from framecs.frames import (
    build_concat,
    build_gabor,
    build_identity,
    build_oversampled_dft,
    from_matrix,
    tighten,
)
from framecs.rng import make_rng, split_seed
from framecs.sensing import SensingOperator, gaussian_sensing, subsampled_dft_sign
from framecs.signals import dirac_comb
from framecs.solvers import SolverConfig, l1_analysis


def diag_operator(values):
    # (v * x.T).T scales rows, so a (n, k) block works for every k,
    # k = n included, where v * x would scale columns instead
    v = np.asarray(values, dtype=complex)
    return SensingOperator(
        len(v), len(v), lambda x: (v * x.T).T, lambda y: (np.conj(v) * y.T).T,
        "dense", 0, bool(np.iscomplexobj(values)),
    )


def pinned_instance():
    n = 8
    D = build_concat(build_identity(n), build_oversampled_dft(n, 1),
                     1 / math.sqrt(2))
    A = gaussian_sensing(6, n, seed=7)
    return A, D


# first verified output of the exact enumerator on the pinned instance;
# guards against regressions in the orthonormalization or SVD path
PINNED_DELTA_2 = 1.1812042546837898


class TestDripMonteCarlo:
    def test_unitary_operator_gives_zero(self):
        A = subsampled_dft_sign(8, 8, seed=1)
        _, D = pinned_instance()
        est = drip_monte_carlo(A, D, s=2, trials=100, seed=3)
        assert est.delta_hat <= 1e-12

    def test_scaled_identity_ratio(self):
        A = diag_operator(np.full(8, math.sqrt(1.2)))
        _, D = pinned_instance()
        est = drip_monte_carlo(A, D, s=2, trials=500, seed=3)
        assert est.delta_hat == pytest.approx(0.2, abs=1e-9)

    def test_below_exact_oracle(self):
        A, D = pinned_instance()
        mc = drip_monte_carlo(A, D, s=2, trials=10_000, seed=42)
        exact = drip_exact_small(A, D, s=2)
        assert mc.delta_hat <= exact.delta_hat + 1e-10

    def test_deterministic_and_monotone_in_trials(self):
        A, D = pinned_instance()
        a = drip_monte_carlo(A, D, s=2, trials=10, seed=5)
        b = drip_monte_carlo(A, D, s=2, trials=10, seed=5)
        assert a.delta_hat == b.delta_hat
        big = drip_monte_carlo(A, D, s=2, trials=200, seed=5)
        assert big.delta_hat >= a.delta_hat  # max over a superset of trials

    def test_ratio_scale_covariance(self):
        A, D = pinned_instance()
        est1 = drip_monte_carlo(A, D, s=2, trials=50, seed=9, details=True)
        A2 = gaussian_sensing(6, 8, seed=7)  # same matrix, then scaled
        scaled = SensingOperator(
            6, 8, lambda v: 2.0 * A2.apply(v), lambda y: 2.0 * A2.adjoint(y),
            "dense", 7, False,
        )
        est2 = drip_monte_carlo(scaled, D, s=2, trials=50, seed=9, details=True)
        assert np.allclose(np.asarray(est2.details),
                           4.0 * np.asarray(est1.details), rtol=1e-12)

    def test_validation(self):
        A, D = pinned_instance()
        with pytest.raises(ValueError):
            drip_monte_carlo(A, D, s=0, trials=10, seed=1)
        with pytest.raises(ValueError):
            drip_monte_carlo(A, D, s=2, trials=0, seed=1)


class TestDripExact:
    def test_diagonal_analytic(self):
        A = diag_operator([1.0, 0.5])
        I2 = build_identity(2)
        assert drip_exact_small(A, I2, 1).delta_hat == pytest.approx(0.75)
        assert drip_exact_small(A, I2, 2).delta_hat == pytest.approx(0.75)

    def test_unitary_square_dictionary(self):
        A = subsampled_dft_sign(8, 8, seed=2)
        D = build_oversampled_dft(8, 1)
        est = drip_exact_small(A, D, s=8)
        assert est.delta_hat <= 1e-10

    def test_pinned_regression_value(self):
        A, D = pinned_instance()
        est = drip_exact_small(A, D, s=2)
        assert est.trials == math.comb(16, 2)
        assert est.delta_hat == pytest.approx(PINNED_DELTA_2, rel=1e-9)

    def test_monotone_in_s(self):
        A, D = pinned_instance()
        deltas = [drip_exact_small(A, D, s).delta_hat for s in (1, 2, 3)]
        assert deltas[0] <= deltas[1] <= deltas[2]

    def test_enumeration_cap(self):
        A, D = pinned_instance()
        with pytest.raises(ValueError, match="monte_carlo"):
            drip_exact_small(A, D, s=8, cap=1000)

    def test_scale_covariance_via_details(self):
        A, D = pinned_instance()
        base = drip_exact_small(A, D, s=2, details=True)
        alpha = 2.0
        scaled_op = SensingOperator(
            6, 8, lambda v: alpha * A.apply(v), lambda y: alpha * A.adjoint(y),
            "dense", 7, False,
        )
        scaled = drip_exact_small(scaled_op, D, s=2)
        expected = max(
            max(alpha**2 * smax - 1.0, 1.0 - alpha**2 * smin)
            for smin, smax in base.details
        )
        assert scaled.delta_hat == pytest.approx(expected, rel=1e-10)

    def test_dependent_atoms_handled_by_subspace(self):
        # duplicated atoms: the span, not the atom count, defines the bound
        M = np.eye(3)[:, [0, 0, 1]]
        D = from_matrix(M)
        A = diag_operator([1.0, 0.7, 0.7])
        est = drip_exact_small(A, D, s=2)
        # worst 2-subset spans at most {e0, e1}: sigma_min^2 = 0.49
        assert est.delta_hat == pytest.approx(1 - 0.49, rel=1e-12)


def per_trial_ratios(A, D, s, trials, seed):
    """Monte Carlo ratios one trial at a time, each from make_rng(seed, t),
    redrawing v = 0; also how many trials needed a redraw."""
    ratios, redrawn = [], 0
    for t in range(trials):
        rng = make_rng(seed, t)
        for draw in range(64):
            support = rng.choice(D.d, size=s, replace=False)
            x = np.zeros(D.d, dtype=complex)
            x[support] = rng.standard_normal(s) + 1j * rng.standard_normal(s)
            v = D.apply(x)
            if np.linalg.norm(v) > 0.0:
                break
        redrawn += draw > 0
        ratios.append(np.linalg.norm(A.apply(v)) ** 2 / np.linalg.norm(v) ** 2)
    return np.array(ratios), redrawn


def per_support_extremes(A, D, s):
    """Exact enumeration one support at a time: (smin^2, smax^2) of each
    support of nonzero rank, in itertools.combinations order."""
    M, Adense = D.dense(), A.dense()
    out = []
    for support in itertools.combinations(range(D.d), s):
        cols = M[:, list(support)]
        u, sv, _ = np.linalg.svd(cols, full_matrices=False)
        basis = u[:, sv > max(cols.shape) * np.finfo(float).eps * sv[0]]
        if basis.shape[1] == 0:
            continue
        sub_sv = np.linalg.svd(Adense @ basis, compute_uv=False)
        out.append((float(sub_sv[-1] ** 2), float(sub_sv[0] ** 2)))
    return out


def degenerate_dictionary():
    """6 x 8 frame whose atom 3 repeats atom 1 and whose atom 5 is zero."""
    M = make_rng(21).standard_normal((6, 8)) + 0j
    M[:, 3] = M[:, 1]
    M[:, 5] = 0.0
    return from_matrix(M)


class TestDripMonteCarloBlocks:
    @pytest.mark.parametrize("budget", [None, 4 * 16 * (16 + 8 + 6)])
    def test_matches_per_trial_reference(self, monkeypatch, budget):
        # budget: the module's, or 4 trials per block (10 = 4 + 4 + 2)
        if budget is not None:
            monkeypatch.setattr(certify, "BLOCK_BYTES", budget)
        A, D = pinned_instance()
        est = drip_monte_carlo(A, D, s=2, trials=10, seed=5, details=True)
        ref, _ = per_trial_ratios(A, D, 2, 10, 5)
        assert np.allclose(est.details, ref, rtol=1e-12, atol=0.0)
        assert est.delta_hat == pytest.approx(np.max(np.abs(ref - 1.0)), rel=1e-12)
        assert est.trials == 10

    def test_gabor_matches_per_trial_reference(self):
        D = build_gabor(64, 8.0, 8, 1 / 32)
        A = gaussian_sensing(32, 64, seed=1)
        est = drip_monte_carlo(A, D, s=4, trials=300, seed=1, details=True)
        ref, _ = per_trial_ratios(A, D, 4, 300, 1)
        assert np.allclose(est.details, ref, rtol=1e-12, atol=0.0)

    def test_ratio_does_not_depend_on_block_position(self, monkeypatch):
        # 4 trials per block: each run ends on a block of 1 to 4 trials
        D = build_gabor(64, 8.0, 8, 1 / 32)
        A = gaussian_sensing(32, 64, seed=1)
        monkeypatch.setattr(certify, "BLOCK_BYTES", 4 * 16 * (256 + 64 + 32))
        full = drip_monte_carlo(A, D, s=4, trials=12, seed=8, details=True)
        for trials in range(1, 12):
            part = drip_monte_carlo(A, D, s=4, trials=trials, seed=8, details=True)
            assert part.details == full.details[:trials]

    def test_zero_atom_forces_the_redraw_path(self):
        D = degenerate_dictionary()
        A = gaussian_sensing(4, 6, seed=2)
        est = drip_monte_carlo(A, D, s=1, trials=40, seed=3, details=True)
        ref, redrawn = per_trial_ratios(A, D, 1, 40, 3)
        assert redrawn > 0
        assert np.allclose(est.details, ref, rtol=1e-12, atol=0.0)
        assert est.delta_hat == pytest.approx(np.max(np.abs(ref - 1.0)), rel=1e-12)


class TestDripExactChunks:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [None, 5])
    def test_degenerate_atoms_match_per_support_reference(self, monkeypatch, s, chunk):
        # C(8, s) = 8, 28, 56 supports: none a multiple of 5
        D = degenerate_dictionary()
        A = gaussian_sensing(4, 6, seed=2)
        if chunk is not None:
            monkeypatch.setattr(certify, "BLOCK_BYTES", chunk * 16 * s * (2 * 6 + 4))
        est = drip_exact_small(A, D, s, details=True)
        ref = per_support_extremes(A, D, s)
        assert est.trials == len(ref)
        assert est.details == ref
        assert est.delta_hat == max(max(hi - 1.0, 1.0 - lo) for lo, hi in ref)

    def test_zero_atom_support_is_skipped(self):
        D = degenerate_dictionary()
        A = gaussian_sensing(4, 6, seed=2)
        assert drip_exact_small(A, D, 1).trials == 7

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pinned_instance_matches_per_support_reference(self, monkeypatch, s):
        monkeypatch.setattr(certify, "BLOCK_BYTES", 7 * 16 * s * (2 * 8 + 6))
        A, D = pinned_instance()
        est = drip_exact_small(A, D, s, details=True)
        ref = per_support_extremes(A, D, s)
        assert est.trials == len(ref) == math.comb(16, s)
        assert est.details == ref
        assert est.delta_hat == max(max(hi - 1.0, 1.0 - lo) for lo, hi in ref)

    def test_certify_workload_instance_bit_for_bit(self):
        # the benchmark's identity + DFT instance; one of its 496 supports
        # squares differently as an array than as a scalar
        D = build_concat(build_identity(16), build_oversampled_dft(16, 1),
                         1 / math.sqrt(2))
        A = gaussian_sensing(12, 16, seed=split_seed(1, 1))
        est = drip_exact_small(A, D, 2, details=True)
        assert est.details == per_support_extremes(A, D, 2)

    def test_enumeration_cap_message(self):
        A, D = pinned_instance()
        with pytest.raises(ValueError) as err:
            drip_exact_small(A, D, s=8, cap=1000)
        assert str(err.value) == (
            "C(16,8) = 12870 supports exceed the enumeration cap (1000); "
            "use drip_monte_carlo instead"
        )


class TestConcentration:
    def test_unitary_family_never_fails(self):
        rate = concentration_check(
            lambda seed: subsampled_dft_sign(16, 16, seed=seed),
            np.ones(16), delta=0.1, trials=200, seed=3,
        )
        assert rate == 0.0

    def test_gaussian_tail(self):
        rate = concentration_check(
            lambda seed: gaussian_sensing(100, 200, seed=seed),
            make_rng(8).standard_normal(200), delta=0.5, trials=1000, seed=11,
        )
        assert rate <= 0.01

    def test_failure_rate_non_increasing_in_m(self):
        v = make_rng(9).standard_normal(50)
        rates = [
            concentration_check(
                lambda seed, m=m: gaussian_sensing(m, 50, seed=seed),
                v, delta=0.5, trials=1000, seed=13,
            )
            for m in (25, 50, 100)
        ]
        assert rates[0] >= rates[1] >= rates[2]


class TestTheoremConstants:
    def test_paper_half_delta(self):
        rep = theorem_constants_from_delta(0.5)
        assert rep.valid
        assert rep.C0 == pytest.approx(61.9374, abs=1e-3)
        assert rep.C1 == pytest.approx(28.3319, abs=1e-3)

    def test_paper_quarter_delta(self):
        rep = theorem_constants_from_delta(0.25)
        assert rep.C0 == pytest.approx(10.2310, abs=1e-3)
        assert rep.C1 == pytest.approx(7.3271, abs=1e-3)

    def test_degenerate_isometry_invalid(self):
        rep = theorem_constants_from_delta(0.99)
        assert not rep.valid
        assert not math.isfinite(rep.C0)

    def test_monotone_in_delta(self):
        k1 = [theorem_constants_from_delta(d).K1 for d in (0.1, 0.3, 0.5)]
        assert k1[0] > k1[1] > k1[2]
        # each delta decreases K1 independently
        base = theorem_constants(0.3, 0.3, 0.5, 0.1, 1 / 6)
        up_sm = theorem_constants(0.4, 0.3, 0.5, 0.1, 1 / 6)
        up_m = theorem_constants(0.3, 0.4, 0.5, 0.1, 1 / 6)
        assert up_sm.K1 < base.K1
        assert up_m.K1 < base.K1

    def test_negative_inner_sqrt_diagnosed(self):
        rep = theorem_constants(0.1, 0.1, c1=3.0, c2=0.1, rho=1 / 6)
        assert not rep.valid
        assert "choose smaller" in rep.diagnostic
        assert math.isnan(rep.K1)

    def test_derived_k2_variant_flips_sign(self):
        verbatim = theorem_constants_from_delta(0.5)
        derived = theorem_constants_from_delta(0.5, k2_variant="derived")
        cross = math.sqrt((1 / 6) * 1.5)
        assert derived.K2 - verbatim.K2 == pytest.approx(2 * cross, rel=1e-12)
        assert derived.K2 > verbatim.K2

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem_constants(1.0, 0.5, 0.5, 0.1, 1 / 6)
        with pytest.raises(ValueError):
            theorem_constants(0.5, 0.5, -1.0, 0.1, 1 / 6)
        with pytest.raises(ValueError):
            theorem_constants(0.5, 0.5, 0.5, 0.1, 1 / 6, k2_variant="wat")


class TestVerifyErrorBound:
    def test_exact_recovery_holds(self):
        D = build_oversampled_dft(16, 2)
        f = make_rng(3).standard_normal(16) + 0j
        check = verify_error_bound(f, f, D, s=4, eps=0.1, C0=62.0, C1=30.0)
        assert check.lhs == 0.0
        assert check.holds
        assert check.tight_frame

    def test_dirac_comb_noiseless(self):
        # s = 2 sqrt(n) makes the tail vanish: rhs = 0, so the solver error
        # itself must be (numerically) zero
        n = 64
        D = build_concat(build_identity(n), build_oversampled_dft(n, 1),
                         1 / math.sqrt(2))
        f = dirac_comb(n)
        A = gaussian_sensing(32, n, seed=11)
        y = A.apply(f.samples)
        rep = l1_analysis(A, D, y, 0.0, cfg=SolverConfig(over_relaxation=1.8))
        check = verify_error_bound(f.samples, rep.f_hat.samples, D, s=16,
                                   eps=0.0, C0=62.0, C1=30.0)
        assert check.rhs <= 1e-10
        assert check.lhs <= 1e-4 * np.linalg.norm(f.samples)

    def test_non_tight_flagged_but_computed(self):
        D = build_gabor(32, 3.0, 4, 1 / 8)
        f = make_rng(5).standard_normal(32) + 0j
        check = verify_error_bound(f, f, D, s=4, eps=0.1, C0=62.0, C1=30.0)
        assert not check.tight_frame
        assert check.lhs == 0.0 and check.holds

    def test_validation(self):
        D = build_identity(4)
        with pytest.raises(ValueError):
            verify_error_bound(np.ones(4), np.ones(4), D, s=0, eps=0.0,
                               C0=62.0, C1=30.0)
