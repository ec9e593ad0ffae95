"""The scenario registry: its seed streams, its trial loop, and the copies
of its instances that live outside it.

perfbench/workloads.py keeps its own radar and noise instances.  The
agreement tests read them without editing them, importing the benchmark
modules the way perfbench/test_perfbench.py imports src/.
"""

import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from framecs import cli, scenarios
from framecs.rng import split_seed
from framecs.scenarios import (
    EXPERIMENTS,
    ExperimentConfig,
    build_dictionary,
    build_signal,
    default_config,
    solve_trials,
    solver_config,
    trial_measure,
    trial_sensing,
    trial_signal,
)
from framecs.sensing import gaussian_sensing, measure
from framecs.signals import PulseParams
from framecs.solvers import (SolverConfig, l1_analysis, l1_synthesis,
                             reweighted_l1_analysis)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def assert_same_instance(f, A, y, eps, expected):
    f2, A2, y2, eps2 = expected
    assert f.samples.tobytes() == f2.samples.tobytes()
    assert A.dense().tobytes() == A2.dense().tobytes()
    assert y.tobytes() == y2.tobytes()
    assert eps == eps2


def cell(cfg, D, t, li):
    """Trial t's (f, A, y, eps) at level index li from the scenario builders."""
    f, A = trial_signal(cfg, D, t), trial_sensing(cfg, t)
    return (f, A, *trial_measure(cfg, A, f, t, li))


def pulses_of(cfg):
    return PulseParams(num_pulses=cfg.pulses, duration=cfg.duration,
                       rise_fall=cfg.rise_fall, f_lo=cfg.f_lo, f_hi=cfg.f_hi)


class TestPerfbenchCopies:
    def test_radar_trial_0_is_the_scenario_trial(self):
        cfg = default_config("radar")
        inputs = workloads.Radar().setup(1, tracing.NoTrace())
        (prob,) = inputs["probs"]
        D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
        assert_same_instance(prob.f, prob.A, prob.y, prob.eps, cell(cfg, D, 0, 0))

    def test_noise_cells_are_the_scenario_trials(self):
        cfg = default_config("noise-curve")
        size = workloads.NoiseSize()
        inputs = workloads.Noise().setup(1, tracing.NoTrace())
        D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
        assert len(inputs["probs"]) == len(size.cells) == 5
        for (t, li), prob in zip(size.cells, inputs["probs"]):
            assert_same_instance(prob.f, prob.A, prob.y, prob.eps,
                                 cell(cfg, D, t, li))

    @pytest.mark.parametrize("name, size", [
        ("radar", workloads.RadarSize()), ("noise-curve", workloads.NoiseSize()),
    ])
    def test_lattice_and_solver_settings_agree(self, name, size):
        cfg = default_config(name)
        assert cfg.dict_kind == "gabor"
        assert (size.n, size.m) == (cfg.n, cfg.m)
        assert (size.window_sigma, size.a, size.b) == (
            cfg.gabor_sigma, cfg.gabor_a, cfg.gabor_b)
        assert size.pulses == pulses_of(cfg)
        assert size.cfg == solver_config(cfg)


class TestAcceptanceConfigs:
    """The acceptance batches build from these defaults, and their
    criteria are calibrated on the instances they give; moving a value
    here moves the acceptance instances."""

    def test_radar(self):
        cfg = default_config("radar")
        assert (cfg.n, cfg.m, cfg.trials, cfg.seed, cfg.rw_iters) == (1024, 120, 10, 1, 3)
        assert (cfg.dict_kind, cfg.signal, cfg.sigmas) == ("gabor", "radar", (0.0,))
        assert (cfg.gabor_sigma, cfg.gabor_a, cfg.gabor_b) == (16.0, 8, 1 / 64)
        assert pulses_of(cfg) == PulseParams(num_pulses=3, duration=128, rise_fall=32,
                                             f_lo=0.05, f_hi=0.45)
        assert solver_config(cfg) == SolverConfig(
            max_iter=6000, tol_rel=1e-5, over_relaxation=1.8, step_ratio=0.25)

    def test_noise_curve(self):
        cfg = default_config("noise-curve")
        assert (cfg.n, cfg.m, cfg.trials, cfg.seed, cfg.rw_iters) == (256, 100, 5, 1, 3)
        assert (cfg.dict_kind, cfg.signal) == ("gabor", "radar")
        assert cfg.sigmas == (0.02, 0.05, 0.1, 0.15, 0.25)
        assert (cfg.gabor_sigma, cfg.gabor_a, cfg.gabor_b) == (8.0, 8, 1 / 32)
        assert pulses_of(cfg) == PulseParams(num_pulses=1, duration=96, rise_fall=24,
                                             f_lo=0.05, f_hi=0.45)
        assert solver_config(cfg) == SolverConfig(
            max_iter=6000, tol_rel=1e-5, over_relaxation=1.8, step_ratio=0.25)

    def test_dirac_comb(self):
        cfg = default_config("dirac-comb")
        assert (cfg.n, cfg.m, cfg.trials) == (64, 32, 10)
        assert (cfg.dict_kind, cfg.signal) == ("concat-if", "dirac")
        assert solver_config(cfg) == SolverConfig(
            max_iter=20000, tol_rel=1e-6, over_relaxation=1.8, step_ratio=0.25)


class TestTrial:
    def test_stream_offsets(self):
        assert (scenarios.SIGNAL_STREAM, scenarios.SENSING_STREAM,
                scenarios.NOISE_STREAM) == (0, 10_000, 20_000)
        assert (scenarios.RECOVER_SIGNAL_STREAM, scenarios.RECOVER_SENSING_STREAM,
                scenarios.RECOVER_NOISE_STREAM) == (1, 2, 3)

    @pytest.mark.parametrize("t, li", [(0, 0), (2, 1), (1, 2)])
    def test_streams_and_relative_noise(self, t, li):
        cfg = ExperimentConfig(n=64, m=24, trials=3, seed=7, sigmas=(0.05, 0.1, 0.2),
                               dict_kind="concat-if", duration=32, rise_fall=8)
        D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
        f, A, y, eps = cell(cfg, D, t, li)
        f2 = build_signal("radar", 64, D, cfg, split_seed(7, t))
        A2 = gaussian_sensing(24, 64, split_seed(7, 10_000 + t))
        sigma = cfg.sigmas[li] * float(np.linalg.norm(A2.apply(f2.samples))) / math.sqrt(24)
        y2, eps2 = measure(A2, f2.samples, sigma, split_seed(7, 20_000 + li * 3 + t))
        assert_same_instance(f, A, y, eps, (f2, A2, y2, eps2))
        assert eps > 0.0
        assert float(np.linalg.norm(y - A.apply(f.samples))) == pytest.approx(eps)

    def test_noiseless(self):
        cfg = default_config("method-comparison")
        D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
        f, A, y, eps = cell(cfg, D, 1, 0)
        # the default level 0.0 is the noiseless measurement
        assert cfg.sigmas == (0.0,)
        assert eps == 0.0
        assert y.tobytes() == A.apply(f.samples).tobytes()


class TestSolveTrials:
    CFG = ExperimentConfig(n=32, m=16, trials=2, seed=5, sigmas=(0.0, 0.05, 0.1),
                           dict_kind="concat-if", duration=16, rise_fall=4,
                           max_iter=300, rw_iters=2)

    def test_builds_each_trial_once_and_measures_each_level(self, monkeypatch):
        built = []

        def counting(m, n, seed):
            built.append(seed)
            return gaussian_sensing(m, n, seed)

        monkeypatch.setattr(scenarios, "gaussian_sensing", counting)
        cfg = self.CFG
        D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
        records = solve_trials(cfg, D, ("analysis",))
        assert built == [split_seed(5, 10_000), split_seed(5, 10_001)]
        assert [(r.t, r.level) for r in records] == [
            (t, level) for t in range(2) for level in cfg.sigmas]
        for li in range(3):
            assert [r.t for r in records[li::3]] == [0, 1]
        for r in records:
            assert r.A is records[3 * r.t].A and r.f is records[3 * r.t].f
            li = cfg.sigmas.index(r.level)
            _, _, y, eps = cell(cfg, D, r.t, li)
            assert (r.y.tobytes(), r.eps) == (y.tobytes(), eps)

    def test_reports_are_the_solvers_under_the_scenario_settings(self):
        cfg = replace(self.CFG, trials=1, sigmas=(0.05,))
        D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
        (rec,) = solve_trials(cfg, D, ("analysis", "reweighted", "synthesis"))
        scfg = solver_config(cfg)
        expected = {
            "analysis": l1_analysis(rec.A, D, rec.y, rec.eps, cfg=scfg),
            "reweighted": reweighted_l1_analysis(rec.A, D, rec.y, rec.eps,
                                                 rw_iters=2, cfg=scfg),
            "synthesis": l1_synthesis(rec.A, D, rec.y, rec.eps, cfg=scfg)[0],
        }
        assert list(rec.reports) == list(expected)
        for name, rep in rec.reports.items():
            assert rep.f_hat.samples.tobytes() == expected[name].f_hat.samples.tobytes()
            assert rep.iterations == expected[name].iterations

    def test_unknown_method_is_rejected(self):
        cfg = replace(self.CFG, trials=1, sigmas=(0.0,))
        D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
        with pytest.raises(ValueError, match="unknown method 'split'"):
            solve_trials(cfg, D, ("split",))


class TestLevelRule:
    @pytest.mark.parametrize("level", [-0.1, math.inf, math.nan])
    def test_levels_are_finite_and_nonnegative(self, level):
        with pytest.raises(ValueError, match="noise-curve: noise levels must be "
                           "finite and >= 0, got sigmas = 0.1,"):
            ExperimentConfig(sigmas=(0.1, level))

    @pytest.mark.parametrize("name", scenarios.SOLVING)
    def test_solving_experiments_need_a_level(self, name):
        with pytest.raises(ValueError, match=f"{name} needs a noise level; "
                           "sigmas is empty"):
            replace(default_config(name), sigmas=())

    @pytest.mark.parametrize("name", ["radar", "dirac-comb", "method-comparison"])
    def test_level_free_tables_take_exactly_one_level(self, name):
        with pytest.raises(ValueError, match=f"{name} takes exactly one noise "
                           "level .*, got sigmas = 0.1,0.2"):
            replace(default_config(name), sigmas=(0.1, 0.2))
        assert replace(default_config(name), sigmas=(0.3,)).sigmas == (0.3,)

    @pytest.mark.parametrize("name", ["constants", "coefficient-decay"])
    def test_experiments_that_do_not_solve_take_any_count(self, name):
        assert replace(default_config(name), sigmas=()).sigmas == ()


def test_every_experiment_has_a_runner_and_defaults():
    assert tuple(cli._RUNNERS) == EXPERIMENTS
    names = {f.name for f in fields(ExperimentConfig)}
    for overrides in scenarios.DEFAULTS.values():
        assert set(overrides) <= names
