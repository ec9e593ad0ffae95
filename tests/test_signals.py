import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framecs.frames import build_concat, build_identity, build_oversampled_dft
from framecs.rng import make_rng
from framecs.signals import (
    PulseParams,
    Signal,
    best_s_term,
    compressible_signal,
    dirac_comb,
    metrics,
    radar_pulse_train,
    trapezoid_envelope,
)


class TestRadarPulseTrain:
    def test_rectangular_degenerate(self):
        p = PulseParams(num_pulses=1, duration=16, rise_fall=0, f_lo=0.1,
                        f_hi=0.1, seed=3)
        f = radar_pulse_train(64, p)
        on = np.abs(f.samples) > 0
        assert on.sum() == 16
        # a flat envelope: the samples are the carrier's real part
        t = np.flatnonzero(on)
        assert np.allclose(f.samples[on], np.cos(2 * np.pi * 0.1 * t), atol=1e-12)

    def test_envelope_regenerated_pointwise(self):
        # a zero-frequency carrier, so the samples are the envelope itself
        p = PulseParams(num_pulses=1, duration=40, rise_fall=8, f_lo=0.0,
                        f_hi=0.0, seed=11)
        f = radar_pulse_train(128, p)
        mags = np.abs(f.samples)
        # env[0] = 0, so the first visible sample is one step into the ramp
        start = int(np.flatnonzero(mags)[0])
        env = trapezoid_envelope(40, 8)
        assert np.allclose(mags[start : start + 39], env[1:], atol=1e-12)
        ramp = env[:8]
        assert np.allclose(np.diff(ramp), 1.0 / 8, atol=1e-12)
        assert np.all(env[8:32] == 1.0)

    def test_paper_scale_instance(self):
        p = PulseParams(num_pulses=6, duration=1000, rise_fall=100,
                        f_lo=0.01, f_hi=0.5, seed=1)
        f = radar_pulse_train(8192, p, sample_rate=5e9)
        assert f.n == 8192
        assert np.all(np.isfinite(f.samples))
        assert np.linalg.norm(f.samples) > 0
        assert f.sample_rate == 5e9

    def test_real_output_flag(self):
        p = PulseParams(num_pulses=2, duration=32, rise_fall=4, seed=5)
        f = radar_pulse_train(64, p)
        assert np.max(np.abs(f.samples.imag)) == 0.0

    def test_infeasible_params(self):
        with pytest.raises(ValueError, match="duration"):
            radar_pulse_train(32, PulseParams(num_pulses=1, duration=64,
                                              rise_fall=4, seed=0))
        with pytest.raises(ValueError, match="rise_fall"):
            PulseParams(num_pulses=1, duration=10, rise_fall=6, seed=0)
        with pytest.raises(ValueError, match="^duration must be >= 1$"):
            PulseParams(num_pulses=1, duration=0, rise_fall=0, seed=0)
        with pytest.raises(ValueError, match="f_lo"):
            PulseParams(num_pulses=1, duration=10, rise_fall=2, f_lo=0.4,
                        f_hi=0.2, seed=0)

    def test_determinism(self):
        p = PulseParams(num_pulses=3, duration=32, rise_fall=4, seed=17)
        a = radar_pulse_train(128, p)
        b = radar_pulse_train(128, p)
        assert np.array_equal(a.samples, b.samples)


class TestDiracComb:
    def test_n16_positions(self):
        f = dirac_comb(16)
        assert np.flatnonzero(f.samples).tolist() == [0, 4, 8, 12]
        assert np.count_nonzero(f.samples) == 4
        assert np.all(f.samples[::4] == 1.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="perfect square"):
            dirac_comb(15)

    def test_analysis_sparsity_identity_n16(self):
        n = 16
        D = build_concat(
            build_identity(n), build_oversampled_dft(n, 1), 1 / math.sqrt(2)
        )
        f = dirac_comb(n)
        c = D.adjoint(f.samples)
        nz = np.abs(c) > 1e-10
        assert nz.sum() == 2 * 4
        s = 2 * 4
        tail = np.sort(np.abs(c))[::-1][s:]
        assert np.sum(tail) <= 1e-10

    def test_sparsity_identity_all_squares_up_to_400(self):
        for r in range(1, 21):
            n = r * r
            D = build_concat(
                build_identity(n), build_oversampled_dft(n, 1), 1 / math.sqrt(2)
            )
            c = D.adjoint(dirac_comb(n).samples)
            assert int(np.sum(np.abs(c) > 1e-9)) == 2 * r


class TestCompressible:
    def test_sorted_magnitudes_exact(self):
        D = build_oversampled_dft(16, 2)
        x, f = compressible_signal(D, q=1.3, seed=4)
        mags = np.sort(np.abs(x))[::-1]
        expected = np.arange(1, 33, dtype=float) ** -1.3
        assert np.allclose(mags, expected, rtol=1e-13)

    def test_extreme_decay_is_single_spike(self):
        D = build_oversampled_dft(16, 1)
        x, _ = compressible_signal(D, q=10.0, seed=4)
        mags = np.sort(np.abs(x))[::-1]
        assert mags[1] / mags[0] == pytest.approx(2.0**-10, rel=1e-12)

    def test_tail_matches_analytic_partial_sum(self):
        D = build_oversampled_dft(32, 1)
        q, s = 2.0, 5
        x, _ = compressible_signal(D, q=q, seed=9)
        tail = np.sum(np.abs(x - best_s_term(x, s)))
        analytic = sum(k**-q for k in range(s + 1, 33))
        assert tail == pytest.approx(analytic, abs=1e-12)

    def test_synthesis_consistency(self):
        D = build_oversampled_dft(16, 2)
        x, f = compressible_signal(D, q=1.0, seed=2)
        assert np.allclose(f.samples, D.apply(x), atol=1e-12)

    def test_q_validation(self):
        with pytest.raises(ValueError):
            compressible_signal(build_identity(4), q=0.0, seed=0)


class TestBestSTerm:
    def test_basic(self):
        x = np.array([3.0, -1.0, 2.0])
        assert best_s_term(x, 2).tolist() == [3.0, 0.0, 2.0]

    def test_edge_cases(self):
        x = np.array([1.0, -2.0])
        assert best_s_term(x, 0).tolist() == [0.0, 0.0]
        assert best_s_term(x, 2).tolist() == [1.0, -2.0]
        assert best_s_term(x, 5).tolist() == [1.0, -2.0]
        with pytest.raises(ValueError):
            best_s_term(x, -1)

    def test_tie_break_lowest_index(self):
        x = np.array([1.0, 1.0, 1.0])
        assert best_s_term(x, 2).tolist() == [1.0, 1.0, 0.0]

    def test_minimizer_property_brute_force(self):
        # the kept support must beat every other size-s support in l2
        rng = make_rng(21)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        s = 2
        kept = best_s_term(x, s)
        err = np.linalg.norm(x - kept)
        for support in itertools.combinations(range(6), s):
            u = np.zeros(6, dtype=complex)
            u[list(support)] = x[list(support)]
            assert err <= np.linalg.norm(x - u) + 1e-12

    @given(
        hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=12),
            elements=st.floats(-100, 100, allow_nan=False),
        ),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=80)
    def test_idempotent_and_support_monotone(self, x, s):
        a = best_s_term(x, s)
        assert np.array_equal(best_s_term(a, s), a)
        b = best_s_term(x, s + 1)
        sup_a = set(np.flatnonzero(a).tolist())
        sup_b = set(np.flatnonzero(b).tolist())
        assert sup_a <= sup_b


class TestMetrics:
    def test_exact_recovery_zeros(self):
        f = np.array([1.0, 2.0, -1.0])
        m = metrics(f, f)
        assert m["relative_error"] == 0.0
        assert m["rmse"] == 0.0
        assert m["linf"] == 0.0

    def test_zero_estimate(self):
        f = np.array([3.0, 4.0])
        assert metrics(np.zeros(2), f)["relative_error"] == pytest.approx(1.0)

    def test_orthogonal_pair(self):
        m = metrics(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert m["relative_error"] == pytest.approx(math.sqrt(2))
        assert m["rmse"] == pytest.approx(1.0)
        assert m["linf"] == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero reference"):
            metrics(np.ones(3), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            metrics(np.ones(3), np.ones(4))


class TestSignalType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Signal(np.array([]))
        with pytest.raises(ValueError):
            Signal(np.array([np.inf, 1.0]))

    def test_metadata(self):
        s = Signal(np.ones(4), sample_rate=5e9, label="x")
        assert s.n == 4 and s.sample_rate == 5e9 and s.label == "x"
