import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framecs import certify, sensing
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

    def test_ratio_scale_covariance(self, monkeypatch):
        A, D = pinned_instance()
        ratios = spy_ratios(monkeypatch)
        drip_monte_carlo(A, D, s=2, trials=50, seed=9)
        base = list(ratios)
        A2 = gaussian_sensing(6, 8, seed=7)  # same matrix, then scaled
        scaled = SensingOperator(
            6, 8, lambda v: 2.0 * A2.apply(v), lambda y: 2.0 * A2.adjoint(y),
            "dense", 7, False,
        )
        ratios.clear()
        drip_monte_carlo(scaled, D, s=2, trials=50, seed=9)
        assert len(base) == 50
        assert np.allclose(ratios, 4.0 * np.asarray(base), rtol=1e-12)

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

    def test_enumeration_cap(self, monkeypatch):
        A, D = pinned_instance()
        monkeypatch.setattr(certify, "ENUMERATION_CAP", 1000)
        with pytest.raises(ValueError, match="monte_carlo"):
            drip_exact_small(A, D, s=8)

    def test_scale_covariance_via_per_support_reference(self):
        A, D = pinned_instance()
        base = per_support_extremes(A, D, 2)
        alpha = 2.0
        scaled_op = SensingOperator(
            6, 8, lambda v: alpha * A.apply(v), lambda y: alpha * A.adjoint(y),
            "dense", 7, False,
        )
        scaled = drip_exact_small(scaled_op, D, s=2)
        expected = max(
            max(alpha**2 * smax - 1.0, 1.0 - alpha**2 * smin)
            for smin, smax in base
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
    """Monte Carlo ratios one trial at a time under the draw contract:
    trial t reads K = 4*ceil(3s/4) uniforms after advance(t*K//4) on the
    (seed, MC_STREAM) stream, takes its support by Floyd's algorithm and
    its coefficients by Box-Muller, and is skipped when v = 0; also how
    many trials were skipped."""
    K = 4 * math.ceil(3 * s / 4)
    ratios, skipped = [], 0
    for t in range(trials):
        rng = make_rng(seed, certify.MC_STREAM)
        rng.bit_generator.advance(t * K // 4)
        u = rng.random(K)
        support = []
        for i, j in enumerate(range(D.d - s, D.d)):
            r = math.floor(u[i] * (j + 1))
            support.append(j if r in support else r)
        x = np.zeros(D.d, dtype=complex)
        for k, u1, u2 in zip(support, u[s:2 * s], u[2 * s:3 * s]):
            x[k] = cmath.rect(math.sqrt(-2.0 * math.log1p(-u1)), 2.0 * math.pi * u2)
        v = D.apply(x)
        if np.linalg.norm(v) == 0.0:
            skipped += 1
            continue
        ratios.append(np.linalg.norm(A.apply(v)) ** 2 / np.linalg.norm(v) ** 2)
    return np.array(ratios), skipped


def spy_ratios(monkeypatch):
    """Spy on the Monte Carlo's scoring: a list that collects the ratio of
    each trial with v != 0, in trial order."""
    ratios = []
    inner = certify._ratios

    def spy(*args):
        r = inner(*args)
        ratios.extend(r.tolist())
        return r

    monkeypatch.setattr(certify, "_ratios", spy)
    return ratios


def per_support_extremes(A, D, s):
    """Exact enumeration one support at a time: (smin^2, smax^2) of each
    support of nonzero rank, in itertools.combinations order.  The basis
    is the rank leading left singular vectors, sliced as the enumeration
    slices them."""
    M, Adense = D.dense(), A.dense()
    out = []
    for support in itertools.combinations(range(D.d), s):
        cols = M[:, list(support)]
        u, sv, _ = np.linalg.svd(cols, full_matrices=False)
        rank = int(np.sum(sv > max(cols.shape) * np.finfo(float).eps * sv[0]))
        if rank == 0:
            continue
        basis = u[:, :rank]
        sub_sv = np.linalg.svd(Adense @ basis, compute_uv=False)
        out.append((float(sub_sv[-1] ** 2), float(sub_sv[0] ** 2)))
    return out


def unscreened_extremes(A, D, s):
    """(smin^2, smax^2) of each support of nonzero rank, in
    itertools.combinations order, from drip_exact_small's SVD stage with
    a screen that prunes nothing."""
    seen = []
    inner = certify._subspace_extremes

    def spy(cols, *args):
        rank, smin2, smax2 = inner(cols, *args)
        kept = rank > 0
        seen.extend(zip(smin2[kept].tolist(), smax2[kept].tolist()))
        return rank, smin2, smax2

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certify, "_subspace_extremes", spy)
        patch.setattr(certify, "_screen",
                      lambda P, G, floor: (np.empty(0, dtype=np.intp), floor))
        drip_exact_small(A, D, s)
    return seen


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
        ratios = spy_ratios(monkeypatch)
        est = drip_monte_carlo(A, D, s=2, trials=10, seed=5)
        ref, _ = per_trial_ratios(A, D, 2, 10, 5)
        assert np.allclose(ratios, ref, rtol=1e-12, atol=0.0)
        assert est.delta_hat == pytest.approx(np.max(np.abs(ref - 1.0)), rel=1e-12)
        assert est.trials == 10

    def test_gabor_matches_per_trial_reference(self, monkeypatch):
        D = build_gabor(64, 8.0, 8, 1 / 32)
        A = gaussian_sensing(32, 64, seed=1)
        ratios = spy_ratios(monkeypatch)
        est = drip_monte_carlo(A, D, s=4, trials=300, seed=1)
        ref, _ = per_trial_ratios(A, D, 4, 300, 1)
        assert np.allclose(ratios, ref, rtol=1e-12, atol=0.0)
        assert est.delta_hat == max(abs(r - 1.0) for r in ratios)

    def test_ratio_does_not_depend_on_block_position(self, monkeypatch):
        # 4 trials per block: each run ends on a block of 1 to 4 trials
        D = build_gabor(64, 8.0, 8, 1 / 32)
        A = gaussian_sensing(32, 64, seed=1)
        monkeypatch.setattr(certify, "BLOCK_BYTES", 4 * 16 * (256 + 64 + 32))
        ratios = spy_ratios(monkeypatch)
        drip_monte_carlo(A, D, s=4, trials=12, seed=8)
        full = list(ratios)
        for trials in range(1, 12):
            ratios.clear()
            drip_monte_carlo(A, D, s=4, trials=trials, seed=8)
            assert ratios == full[:trials]

    def test_ratios_do_not_depend_on_the_block_budget(self, monkeypatch):
        # the module's budget, then 4 and 1 trials per block (and per chunk
        # of draws at the smallest budget)
        D = build_gabor(64, 8.0, 8, 1 / 32)
        A = gaussian_sensing(32, 64, seed=1)
        ratios = spy_ratios(monkeypatch)
        runs = []
        for budget in (None, 4 * 16 * (256 + 64 + 32), 1):
            if budget is not None:
                monkeypatch.setattr(certify, "BLOCK_BYTES", budget)
            ratios.clear()
            drip_monte_carlo(A, D, s=4, trials=50, seed=2)
            runs.append(list(ratios))
        for run in runs[1:]:
            assert np.allclose(run, runs[0], rtol=1e-12, atol=0.0)

    def test_trial_zero_reads_other_words_than_gaussian_sensing(self, monkeypatch):
        # the Monte Carlo and the sensing matrix take the same seed in the
        # certify workload and in `framecs certify drip-mc`
        keys = {"sensing": [], "certify": []}
        for module in (sensing, certify):
            def recording(seed, stream=0, name=module.__name__.split(".")[-1]):
                rng = make_rng(seed, stream)
                keys[name].append(tuple(rng.bit_generator.state["state"]["key"]))
                return rng
            monkeypatch.setattr(module, "make_rng", recording)
        A = gaussian_sensing(6, 8, seed=1)
        drip_monte_carlo(A, pinned_instance()[1], s=2, trials=10, seed=1)
        assert keys["sensing"] and keys["certify"]
        assert not set(keys["sensing"]) & set(keys["certify"])

    def test_zero_v_trials_are_skipped(self, monkeypatch):
        # trials that draw the zero atom 5 score nothing and are not counted,
        # as drip_exact_small skips supports of rank 0
        D = degenerate_dictionary()
        A = gaussian_sensing(4, 6, seed=2)
        ratios = spy_ratios(monkeypatch)
        est = drip_monte_carlo(A, D, s=1, trials=40, seed=3)
        ref, skipped = per_trial_ratios(A, D, 1, 40, 3)
        assert skipped > 0
        assert est.trials == 40 - skipped == len(ratios)
        assert np.allclose(ratios, ref, rtol=1e-12, atol=0.0)
        assert est.delta_hat == pytest.approx(np.max(np.abs(ref - 1.0)), rel=1e-12)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_zero_dictionary_scores_no_trial(self, s):
        # every v is 0: both estimators report (0.0, 0), and nothing raises
        D = from_matrix(np.zeros((4, 6), dtype=complex))
        A = gaussian_sensing(3, 4, seed=1)
        mc = drip_monte_carlo(A, D, s, trials=10, seed=1)
        exact = drip_exact_small(A, D, s)
        assert (mc.delta_hat, mc.trials) == (exact.delta_hat, exact.trials) == (0.0, 0)


class TestDripSampler:
    def test_supports_are_uniform(self):
        # chi-square over all C(6, 2) = 15 supports; the bound is the upper
        # 1e-6 quantile of chi^2 with 14 degrees of freedom, where
        # exp(-x/2) sum_{i<7} (x/2)^i / i! = 1e-6
        trials = 30_000
        support, _ = certify._draw_trials(make_rng(17, certify.MC_STREAM), trials, 6, 2)
        pairs = [tuple(sorted(row)) for row in support.tolist()]
        cells = list(itertools.combinations(range(6), 2))
        assert set(pairs) <= set(cells)
        counts = np.array([pairs.count(c) for c in cells])
        expected = trials / len(cells)
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 <= 54.635, chi2

    def test_coefficient_moments(self):
        # z = x + iy with x, y iid N(0, 1): E z = 0 (each part has standard
        # error 1/sqrt(N)) and E|z|^2 = 2 (|z|^2 is chi^2_2, variance 4)
        _, coef = certify._draw_trials(make_rng(18, certify.MC_STREAM), 20_000, 64, 4)
        z = coef.ravel()
        se = 1.0 / math.sqrt(z.size)
        assert abs(z.mean().real) <= 5 * se
        assert abs(z.mean().imag) <= 5 * se
        assert abs(np.mean(np.abs(z) ** 2) - 2.0) <= 5 * 2.0 * se


class TestDripExactChunks:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [None, 5])
    def test_degenerate_atoms_match_per_support_reference(self, monkeypatch, s, chunk):
        # C(8, s) = 8, 28, 56 supports: none a multiple of 5
        D = degenerate_dictionary()
        A = gaussian_sensing(4, 6, seed=2)
        if chunk is not None:
            monkeypatch.setattr(certify, "BLOCK_BYTES", chunk * 16 * s * (2 * 6 + 4))
        ref = per_support_extremes(A, D, s)
        est = drip_exact_small(A, D, s)
        assert est.trials == len(ref)
        assert est.delta_hat == reference_delta(ref)
        assert unscreened_extremes(A, D, s) == ref

    def test_zero_atom_support_is_skipped(self):
        D = degenerate_dictionary()
        A = gaussian_sensing(4, 6, seed=2)
        assert drip_exact_small(A, D, 1).trials == 7

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pinned_instance_matches_per_support_reference(self, monkeypatch, s):
        monkeypatch.setattr(certify, "BLOCK_BYTES", 7 * 16 * s * (2 * 8 + 6))
        A, D = pinned_instance()
        est = drip_exact_small(A, D, s)
        ref = per_support_extremes(A, D, s)
        assert est.trials == len(ref) == math.comb(16, s)
        assert est.delta_hat == reference_delta(ref)
        assert unscreened_extremes(A, D, s) == ref

    def test_certify_workload_instance_bit_for_bit(self):
        # the benchmark's identity + DFT instance; one of its 496 supports
        # squares differently as an array than as a scalar
        D = build_concat(build_identity(16), build_oversampled_dft(16, 1),
                         1 / math.sqrt(2))
        A = gaussian_sensing(12, 16, seed=split_seed(1, 1))
        assert unscreened_extremes(A, D, 2) == per_support_extremes(A, D, 2)

    def test_enumeration_cap_message(self, monkeypatch):
        A, D = pinned_instance()
        monkeypatch.setattr(certify, "ENUMERATION_CAP", 1000)
        with pytest.raises(ValueError) as err:
            drip_exact_small(A, D, s=8)
        assert str(err.value) == (
            "C(16,8) = 12870 supports exceed the enumeration cap (1000); "
            "use drip_monte_carlo instead"
        )


def concat_instance(seed=1):
    """The certify workload's identity + DFT instance at ``seed``."""
    D = build_concat(build_identity(16), build_oversampled_dft(16, 1),
                     1 / math.sqrt(2))
    return gaussian_sensing(12, 16, seed=split_seed(seed, 1)), D


# (delta_hat, trials) of the certify workload's exact calls, s = 1-4
WORKLOAD_VALUES = {
    1: [(0.7726285827710118, 32), (1.5284279258776805, 496),
        (2.0037139373616566, 4960), (2.3883479873261897, 35960)],
    2: [(1.1082297356034236, 32), (1.724702897018449, 496),
        (1.9783752562454335, 4960), (2.1735100337808624, 35960)],
    3: [(1.2017512278903606, 32), (1.4527662383331972, 496),
        (1.7535973916579355, 4960), (2.0061289439208134, 35960)],
}


def reference_delta(ref):
    return max(max(hi - 1.0, 1.0 - lo) for lo, hi in ref)


def count_svd_supports(monkeypatch):
    """Spy on the SVD stage: a list that collects the stack size of each call."""
    sizes = []
    inner = certify._subspace_extremes

    def spy(cols, *args):
        sizes.append(len(cols))
        return inner(cols, *args)

    monkeypatch.setattr(certify, "_subspace_extremes", spy)
    return sizes


def m1_instance():
    """A screen_instances draw (n = 4, d = 2, s = 2, seed 0, scale 30) with
    one measurement: a masked copy of the basis, u[:, mask], rounds A times
    it differently from the enumeration's u[:, :rank] in the last bit."""
    rng = make_rng(0, 1)
    M = 30.0 * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    return gaussian_sensing(1, 4, seed=0), from_matrix(M), 2


@st.composite
def screen_instances(draw):
    """Small from_matrix dictionaries with zero and near-duplicate atoms,
    a Gaussian A and s <= 5."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 9))
    s = draw(st.integers(1, min(5, d)))
    m = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = make_rng(seed, 1)
    M = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    M *= draw(st.sampled_from([1e-3, 1.0, 30.0]))
    for i, j in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)),
                              max_size=3)):
        M[:, j] = M[:, i] + 1e-9 * rng.standard_normal(n)
    for j in draw(st.sets(st.integers(0, d - 1), max_size=3)):
        M[:, j] = 0.0
    return gaussian_sensing(m, n, seed=seed), from_matrix(M), s


@st.composite
def guarded_pencils(draw):
    """Hermitian pencils (P, G), s <= 5, with lambda_min/lambda_max(P) >=
    SCREEN_GUARD, as the screen's guard ensures, and G = c P + noise: far
    from, near or at a multiple of P (sigma ~ 0, where sigma^2 = t2/s -
    mu^2 cancels)."""
    s = draw(st.integers(1, 5))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)), 2)
    Z = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
    Q = np.linalg.qr(Z)[0]
    p = 10.0 ** rng.uniform(-3.0, 0.0, s)
    p[0] = 1.0
    if draw(st.booleans()):
        p[-1] = certify.SCREEN_GUARD
    P = (Q * p) @ Q.conj().T * 10.0 ** draw(st.floats(-3.0, 2.0))
    H = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
    noise = draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-6, 1.0]))
    G = draw(st.floats(0.1, 10.0)) * (P + noise * np.linalg.norm(P) * H)
    return (P + P.conj().T) / 2, (G + G.conj().T) / 2


class TestDripExactScreen:
    """The screened enumeration against every support's SVD."""

    @pytest.mark.parametrize("case, s", [
        ("pinned", 1), ("pinned", 2), ("pinned", 3),
        ("degenerate", 1), ("degenerate", 2), ("degenerate", 3),
        ("dft", 2), ("dft", 3), ("gabor", 2),
    ])
    def test_matches_per_support_reference(self, case, s):
        A, D = {
            "pinned": pinned_instance,
            "degenerate": lambda: (gaussian_sensing(4, 6, seed=2), degenerate_dictionary()),
            "dft": lambda: (gaussian_sensing(6, 8, seed=3), build_oversampled_dft(8, 4)),
            "gabor": lambda: (gaussian_sensing(10, 16, seed=4),
                              build_gabor(16, 2.0, 2, 1 / 8)),
        }[case]()
        est = drip_exact_small(A, D, s)
        ref = per_support_extremes(A, D, s)
        assert est.trials == len(ref)
        assert est.delta_hat == reference_delta(ref)
        if case == "degenerate" and s == 1:
            assert est.trials == 7

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_certify_workload_instance(self, monkeypatch, s):
        A, D = concat_instance()
        ref = per_support_extremes(A, D, s)
        assert len(ref) == math.comb(32, s)
        # the module's budget, then 5 supports a chunk
        for budget in (certify.BLOCK_BYTES, 5 * 128 * (s * s + 1)):
            monkeypatch.setattr(certify, "BLOCK_BYTES", budget)
            est = drip_exact_small(A, D, s)
            assert est.trials == len(ref)
            assert est.delta_hat == reference_delta(ref)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_certify_workload_values_are_pinned(self, seed):
        A, D = concat_instance(seed)
        got = [(est.delta_hat, est.trials)
               for est in (drip_exact_small(A, D, s) for s in (1, 2, 3, 4))]
        assert got == WORKLOAD_VALUES[seed]

    def test_few_four_atom_supports_reach_the_svds(self, monkeypatch):
        # the trace bounds prune all but a few supports before the SVDs
        sizes = count_svd_supports(monkeypatch)
        A, D = concat_instance()
        est = drip_exact_small(A, D, 4)
        assert est.trials == math.comb(32, 4)
        assert 0 < sum(sizes) < 0.01 * math.comb(32, 4)

    def test_one_atom_supports_form_no_gram_matrix(self):
        # a d x d Gram would take 16 d^2 bytes (6.4 GB)
        d = 20_000
        rng = make_rng(23)
        D = from_matrix(rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d)))
        A = gaussian_sensing(3, 4, seed=5)
        tracemalloc.start()
        try:
            est = drip_exact_small(A, D, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.trials == d
        assert peak < 16 * d**2 / 1000, peak

    @given(guarded_pencils())
    @settings(max_examples=300, deadline=None)
    def test_trace_bounds_hold_the_estimate(self, pencil):
        # the pencil's defect, from the eigenvalues of L^-1 G L^-H with
        # P = L L^H, lies in [lb - slack, ub + slack]
        P, G = pencil
        Linv = np.linalg.inv(np.linalg.cholesky(P))
        lam = np.linalg.eigvalsh(Linv @ G @ Linv.conj().T)
        v = max(lam[-1] - 1.0, 1.0 - lam[0])
        lb, ub, slack = certify._bracket(P[None], G[None])
        assert lb[0] - slack[0] <= v <= ub[0] + slack[0]

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(-5.0, 0.0))
    @settings(max_examples=300, deadline=None)
    def test_guard_bounds_the_condition_number(self, s, seed, low):
        # Hermitian P > 0 with eigenvalues in [10^low, 1], the smallest at
        # 10^low: the guard passes only lam_min/lam_max > SCREEN_GUARD, and
        # it passes every P that det(P / tr P) > SCREEN_GUARD did
        rng = make_rng(seed, 3)
        Q = np.linalg.qr(rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)))[0]
        p = 10.0 ** rng.uniform(low, 0.0, s)
        p[0] = 10.0**low
        P = (Q * p) @ Q.conj().T
        P = (P + P.conj().T) / 2
        lam = np.linalg.eigvalsh(P)
        passed = certify._guarded(P[None])[0]
        if passed:
            assert lam[0] > certify.SCREEN_GUARD * lam[-1]
        if np.linalg.det(P / np.trace(P).real).real > certify.SCREEN_GUARD:
            assert passed
        if low > -0.1:
            assert passed

    def test_few_supports_reach_the_svds(self, monkeypatch):
        # at s = 5 and up the guard must still admit well-conditioned P,
        # whose det(P / tr P) cannot exceed s^-s
        sizes = count_svd_supports(monkeypatch)
        for (A, D), s in ((concat_instance(), 3), (pinned_instance(), 5)):
            count = math.comb(D.d, s)
            sizes.clear()
            screened = drip_exact_small(A, D, s)
            assert 0 < sum(sizes) < count / 2
            ref = per_support_extremes(A, D, s)
            assert (screened.delta_hat, screened.trials) == (reference_delta(ref), len(ref))

    def test_rejected_supports_reach_the_svds(self, monkeypatch):
        # the 7 pairs with the zero atom 5 and the pair (1, 3) of copies
        # fail the guard; each still has rank >= 1, so all 28 count
        A, D = gaussian_sensing(4, 6, seed=2), degenerate_dictionary()
        sizes = count_svd_supports(monkeypatch)
        est = drip_exact_small(A, D, 2)
        assert sum(sizes) >= 8
        assert est.trials == 28

    @given(screen_instances())
    @example(m1_instance())
    @settings(max_examples=60, deadline=None)
    def test_screen_matches_the_full_enumeration(self, instance):
        A, D, s = instance
        screened = drip_exact_small(A, D, s)
        full = unscreened_extremes(A, D, s)
        assert per_support_extremes(A, D, s) == full
        assert screened.delta_hat == (reference_delta(full) if full else 0.0)
        assert screened.trials == len(full)


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

    @pytest.mark.parametrize("delta", [-1.0, -1e-9, math.nan, math.inf])
    def test_meaningless_delta_is_rejected_before_the_first_draw(self, delta):
        drawn = []

        def factory(seed):
            drawn.append(seed)
            return gaussian_sensing(6, 8, seed=seed)

        with pytest.raises(ValueError, match="delta must be finite and >= 0"):
            concentration_check(factory, np.ones(8), delta, trials=5, seed=1)
        assert drawn == []

    def test_delta_above_one_fails_only_above(self):
        # (1 - delta) ||v||^2 < 0 <= ||Av||^2, so only the upper side can fail
        rate = concentration_check(
            lambda seed: gaussian_sensing(2, 8, seed=seed), np.ones(8),
            delta=1.5, trials=200, seed=4)
        assert 0.0 < rate < 1.0


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
