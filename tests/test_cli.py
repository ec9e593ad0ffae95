import argparse
import json
import math
import io
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecs import scenarios
from framecs.cli import build_parser, main, parse_config, serialize_config
from framecs.scenarios import (DICTIONARIES, METHODS, SENSING, SIGNALS,
                               ExperimentConfig, build_dictionary, default_config)
from framecs.certify import ENUMERATION_CAP, drip_exact_small
from framecs.frames import build_concat, build_identity, build_oversampled_dft
from framecs.io import report_to_json, signal_to_csv
from framecs.sensing import (bernoulli_sensing, gaussian_sensing, measure,
                             subsampled_dft_sign)
from framecs.signals import Signal, dirac_comb, metrics
from framecs.solvers import (SolverConfig, l1_analysis, l1_synthesis,
                             reweighted_l1_analysis, split_analysis)
from framecs.rng import make_rng, split_seed


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRecover:
    def test_dirac_comb_exact_recovery(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["recover", "--method", "analysis", "--dict", "concat-if",
             "--n", "64", "--m", "32", "--signal", "dirac", "--eps", "0",
             "--seed", "4", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["relative_error"] <= 1e-4
        assert rep["converged"] is True
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "recovered.csv").exists()

    def test_mismatched_signal_file_exits_1(self, tmp_path, capsys):
        sig = Signal(make_rng(0).standard_normal(16) + 0j)
        path = tmp_path / "sig.csv"
        path.write_text(signal_to_csv(sig))
        code, _, err = run_cli(
            ["recover", "--method", "analysis", "--dict", "identity",
             "--n", "32", "--m", "8", "--signal", str(path),
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1
        assert "mismatch" in err and "16" in err and "32" in err

    @pytest.mark.parametrize("audit_s", ["0", "-1"])
    def test_audit_s_below_one_exits_1_before_solving(
        self, tmp_path, capsys, audit_s
    ):
        code, out, err = run_cli(
            ["recover", "--method", "analysis", "--dict", "identity",
             "--n", "16", "--m", "8", "--audit-s", audit_s,
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert f"framecs: error: --audit-s must be >= 1, got {audit_s}" in err
        assert not (tmp_path / "o").exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["recover", "--method", "analysis", "--dict", "concat-if",
                "--n", "36", "--m", "20", "--signal", "dirac",
                "--sigma", "0.05", "--seed", "9"]
        code1, out1, _ = run_cli(args + ["--out", str(tmp_path / "a")], capsys)
        code2, out2, _ = run_cli(args + ["--out", str(tmp_path / "b")], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        for name in ("report.json", "recovered.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_non_convergence_exits_2(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["recover", "--method", "analysis", "--dict", "concat-if",
             "--n", "64", "--m", "32", "--signal", "dirac", "--eps", "0",
             "--max-iter", "5", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert json.loads(out)["converged"] is False

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["recover", "--method", "bogus", "--n", "8", "--m", "4"])
        assert exc.value.code == 1

    def test_unknown_dictionary_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["recover", "--method", "analysis", "--dict", "wavelet",
             "--n", "8", "--m", "4", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "dictionary" in err

    def test_history_flag_writes_trace(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["recover", "--method", "analysis", "--dict", "identity",
             "--n", "16", "--m", "8", "--signal", "dirac", "--eps", "0",
             "--history", "--max-iter", "500", "--out", str(tmp_path)],
            capsys,
        )
        assert code in (0, 2)
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert lines[0] == "# iteration,objective,feasibility"
        assert len(lines) >= 2

    def test_percentile_eps_rule(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["recover", "--method", "analysis", "--dict", "concat-if",
             "--n", "36", "--m", "24", "--signal", "dirac", "--sigma", "0.1",
             "--eps-rule", "percentile", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["eps"] == pytest.approx(
            math.sqrt(24 + 2 * math.sqrt(48)) * 0.1
        )

    def test_synthesis_and_split_paths(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["recover", "--method", "synthesis", "--dict", "concat-if",
             "--n", "16", "--m", "12", "--signal", "dirac", "--eps", "0",
             "--out", str(tmp_path / "syn")],
            capsys,
        )
        assert code == 0 and json.loads(out)["method"] == "synthesis"
        code, out, _ = run_cli(
            ["recover", "--method", "split", "--dict", "identity",
             "--dict2", "dft", "--n", "16", "--m", "12", "--signal", "dirac",
             "--eps", "0", "--out", str(tmp_path / "spl")],
            capsys,
        )
        assert code == 0 and json.loads(out)["method"] == "split"


    def test_oversampling_zero_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["recover", "--method", "analysis", "--dict", "dft",
             "--oversampling", "0", "--n", "16", "--m", "8",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "oversampling factor c must be >= 1" in err
        assert not (tmp_path / "report.json").exists()

    def test_gabor_lattice_that_is_not_a_frame_exits_1(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["recover", "--method", "analysis", "--dict", "gabor",
             "--gabor-sigma", "1", "--gabor-a", "32", "--gabor-b", "0.015625",
             "--n", "256", "--m", "32", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "not a frame" in err
        assert not (tmp_path / "report.json").exists()

    def test_gabor_sigma_zero_exits_1(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["recover", "--method", "analysis", "--dict", "gabor",
             "--gabor-sigma", "0", "--n", "64", "--m", "32",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "window sigma must be > 0" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("a, b, n", [("2", "0.3", "64"), ("3", "0.125", "64")])
    def test_gabor_lattice_that_does_not_divide_exits_1(self, a, b, n, tmp_path, capsys):
        code, out, err = run_cli(
            ["recover", "--method", "analysis", "--dict", "gabor",
             "--gabor-a", a, "--gabor-b", b, "--n", n, "--m", "32",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "does not divide" in err
        assert f"n = {n}, a = {a}, 1/b = " in err
        assert not (tmp_path / "report.json").exists()


class TestExperimentCommand:
    def test_constants_contains_paper_rows(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["experiment", "constants", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        rows = {}
        for line in (tmp_path / "constants.csv").read_text().splitlines():
            if line.startswith("#"):
                continue
            delta, c0, c1 = (float(p) for p in line.split(","))
            rows[delta] = (c0, c1)
        assert rows[0.25][0] == pytest.approx(10.23, abs=0.05)
        assert rows[0.25][1] == pytest.approx(7.33, abs=0.01)
        assert rows[0.5][0] == pytest.approx(61.94, abs=0.1)

    def test_noise_curve_zero_sigma_recovers(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["experiment", "noise-curve", "--n", "64", "--m", "32",
             "--dict", "concat-if", "--signal", "dirac", "--sigmas", "0",
             "--trials", "1", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        header, line = (tmp_path / "noise_curve.csv").read_text().splitlines()
        assert header == (
            "# sigma_rel,err_plain,err_rw,converged_plain,converged_rw"
        )
        sigma_rel, err_plain, err_rw, conv_plain, conv_rw = line.split(",")
        assert float(sigma_rel) == 0.0
        assert float(err_plain) <= 1e-3
        assert float(err_rw) <= 1e-3
        # converged counts out of --trials 1
        assert (conv_plain, conv_rw) == ("1", "1")

    def test_unknown_experiment_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "zeta"])
        assert exc.value.code == 1

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["experiment", "dirac-comb", "--n", "36", "--m", "20",
                "--trials", "2"]
        run_cli(args + ["--out", str(tmp_path / "a")], capsys)
        run_cli(args + ["--out", str(tmp_path / "b")], capsys)
        for name in ("config.txt", "dirac_comb.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("experiment = dirac-comb\nn = 36\nm = 20\ntrials = 3\n")
        code, _, _ = run_cli(
            ["experiment", "dirac-comb", "--config", str(cfg_path),
             "--trials", "1", "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 0
        text = (tmp_path / "o" / "config.txt").read_text()
        assert "trials = 1" in text and "n = 36" in text

    @pytest.mark.parametrize("name", ["radar", "dirac-comb", "method-comparison"])
    def test_level_free_experiment_rejects_two_levels_before_writing(
        self, name, tmp_path, capsys
    ):
        out = tmp_path / "o"
        out.mkdir()
        code, stdout, err = run_cli(
            ["experiment", name, "--sigmas", "0.1,0.2", "--out", str(out)], capsys
        )
        assert code == 1 and stdout == ""
        assert (f"framecs: error: {name} takes exactly one noise level (its tables "
                "have no level column), got sigmas = 0.1,0.2") in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("name", ["noise-curve", "radar"])
    def test_empty_sigmas_exits_1(self, name, tmp_path, capsys):
        code, _, err = run_cli(
            ["experiment", name, "--sigmas", "", "--out", str(tmp_path / "o")], capsys
        )
        assert code == 1
        assert f"framecs: error: {name} needs a noise level; sigmas is empty" in err
        assert not (tmp_path / "o").exists()

    def test_empty_sigmas_config_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("sigmas =\n")
        code, _, err = run_cli(
            ["experiment", "radar", "--config", str(cfg), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1
        assert "radar needs a noise level; sigmas is empty" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sigmas", ["-0.1", "0.1,nan", "inf"])
    def test_bad_level_exits_1_before_writing(self, sigmas, tmp_path, capsys):
        code, _, err = run_cli(
            ["experiment", "noise-curve", f"--sigmas={sigmas}",
             "--out", str(tmp_path / "o")], capsys,
        )
        assert code == 1
        assert ("framecs: error: noise-curve: noise levels must be finite and "
                ">= 0") in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, config", [
        (["--n", "0"], None),
        (["--m", "0"], None),
        (["--rw-iters", "0"], None),
        (["--max-iter", "0"], None),
        (["--dict", "foo"], None),
        ([], "gabor_b = 0.03\n"),
    ])
    def test_failed_experiment_writes_nothing(self, argv, config, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        if config is not None:
            (tmp_path / "cfg.txt").write_text(config)
            argv = [*argv, "--config", str(tmp_path / "cfg.txt")]
        code, stdout, err = run_cli(
            ["experiment", "noise-curve", "--trials", "1", *argv, "--out", str(out)],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert err.startswith("framecs: error: ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("name, flag, kind, message", [
        ("radar", "--signal", "dirca",
         "unknown signal kind 'dirca'; choose dirac, compressible, radar"),
        ("noise-curve", "--dict", "wavelet",
         "unknown dictionary kind 'wavelet'; choose identity, dft, concat-if, gabor"),
    ])
    def test_unknown_kind_exits_1_before_writing(
        self, name, flag, kind, message, tmp_path, capsys
    ):
        out = tmp_path / "o"
        out.mkdir()
        code, stdout, err = run_cli(
            ["experiment", name, flag, kind, "--out", str(out)], capsys)
        assert code == 1 and stdout == ""
        assert err == f"framecs: error: {message}\n"
        assert list(out.iterdir()) == []

    def test_malformed_sigmas_names_the_key(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["experiment", "noise-curve", "--sigmas", "0.1,,0.2",
             "--out", str(tmp_path / "o")], capsys,
        )
        assert code == 1
        assert err == ("framecs: error: sigmas = 0.1,,0.2: could not convert "
                       "string to float: ''\n")
        assert not (tmp_path / "o").exists()

    def test_malformed_config_value_names_its_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = abc\n")
        code, _, err = run_cli(
            ["experiment", "dirac-comb", "--config", str(cfg),
             "--out", str(tmp_path / "o")], capsys,
        )
        assert code == 1
        assert err == ("framecs: error: config line 1: n = abc: invalid literal "
                       "for int() with base 10: 'abc'\n")
        assert not (tmp_path / "o").exists()

    def test_dirac_comb_solves_at_its_level(self, tmp_path, capsys):
        args = ["experiment", "dirac-comb", "--n", "36", "--m", "20", "--trials", "2"]
        assert run_cli(args + ["--out", str(tmp_path / "a")], capsys)[0] == 0
        assert run_cli(args + ["--sigmas", "0.5", "--out", str(tmp_path / "b")],
                       capsys)[0] == 0
        assert "sigmas = 0.0\n" in (tmp_path / "a" / "config.txt").read_text()
        assert "sigmas = 0.5\n" in (tmp_path / "b" / "config.txt").read_text()
        noiseless, noisy = (
            [ln.split(",") for ln in (tmp_path / d / "dirac_comb.csv").read_text()
             .splitlines()[1:]] for d in "ab")
        assert len(noiseless) == len(noisy) == 2
        for quiet, loud in zip(noiseless, noisy):
            assert float(quiet[1]) <= 1e-3 < float(loud[1])

    def test_config_oversampling_zero_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("oversampling = 0\n")
        code, _, err = run_cli(
            ["experiment", "method-comparison", "--config", str(cfg),
             "--n", "16", "--m", "8", "--trials", "1",
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1
        assert "oversampling factor c must be >= 1" in err

    def test_sparsity_flag_is_rejected(self, tmp_path, capsys):
        # no experiment reads a sparsity level; --s is not an experiment flag
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "dirac-comb", "--s", "3", "--out", str(tmp_path)])
        assert exc.value.code == 1

    def test_sparsity_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("s = 3\n")
        code, _, err = run_cli(
            ["experiment", "dirac-comb", "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1
        assert "unknown key 's'" in err

    def test_step_ratio_config_key_is_rejected(self, tmp_path, capsys):
        # every experiment starts at SolverConfig's default; no key sets it
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("step_ratio = 0.25\n")
        code, _, err = run_cli(
            ["experiment", "dirac-comb", "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1
        assert "unknown key 'step_ratio'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", [["--se", "3"], ["--rw", "2"]])
    def test_flag_prefixes_are_rejected(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "radar", *flag, "--out", str(tmp_path)])
        assert exc.value.code == 1
        assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err
        args = build_parser().parse_args(
            ["experiment", "radar", "--seed", "3", "--rw-iters", "2"])
        assert (args.seed, args.rw_iters) == (3, 2)

    def test_coefficient_decay_honours_signal(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["experiment", "coefficient-decay", "--n", "256", "--signal", "dirac",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        cfg = default_config("coefficient-decay")
        D = build_dictionary(cfg.dict_kind, 256, cfg)
        expected = np.sort(np.abs(D.adjoint(dirac_comb(256).samples)))[::-1]
        mags = [
            float(ln.split(",")[1])
            for ln in (tmp_path / "coefficient_decay.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert mags == [float(v) for v in expected]

    def test_radar_emits_time_freq_and_summary(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["experiment", "radar", "--n", "256", "--m", "64", "--trials", "1",
             "--max-iter", "400", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        for name in ("radar_summary.csv", "radar_time.csv", "radar_freq.csv"):
            text = (tmp_path / name).read_text()
            assert text.startswith("# ")
        time_lines = (tmp_path / "radar_time.csv").read_text().splitlines()
        assert len(time_lines) == 1 + 256
        assert len(time_lines[1].split(",")) == 7
        header, row = (tmp_path / "radar_summary.csv").read_text().splitlines()
        assert header == (
            "# trial,rmse_plain,rmse_rw,rel_plain,rel_rw,converged_plain,"
            "converged_rw,iterations_plain,iterations_rw"
        )
        conv = row.split(",")[5:7]
        iters = [int(v) for v in row.split(",")[7:]]
        assert set(conv) <= {"0", "1"}
        assert all(1 <= it <= 400 for it in iters)

    def test_coefficient_decay_sorted(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["experiment", "coefficient-decay", "--n", "256",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        mags = [
            float(ln.split(",")[1])
            for ln in (tmp_path / "coefficient_decay.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert mags == sorted(mags, reverse=True)
        assert len(mags) == 2048  # 8x oversampling at n=256

    def test_method_comparison_columns(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["experiment", "method-comparison", "--n", "32", "--m", "20",
             "--trials", "2", "--max-iter", "2000", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        lines = (tmp_path / "method_comparison.csv").read_text().splitlines()
        assert lines[0] == (
            "# trial,err_analysis,err_reweighted,err_synthesis,"
            "converged_analysis,converged_reweighted,converged_synthesis,"
            "iterations_analysis,iterations_reweighted,iterations_synthesis"
        )
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert set(fields[4:7]) <= {"0", "1"}
            assert all(1 <= int(v) <= 2000 for v in fields[7:])


class TestCertifyCommand:
    def test_coherence_prints_half(self, capsys):
        code, out, _ = run_cli(
            ["certify", "coherence", "--dict", "concat-if", "--n", "4"], capsys
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.5, abs=1e-12)

    def test_drip_exact_matches_pinned_value(self, capsys):
        code, out, _ = run_cli(
            ["certify", "drip-exact", "--dict", "concat-if", "--n", "8",
             "--m", "6", "--seed", "7", "--s", "2"],
            capsys,
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(1.1812042546837898, rel=1e-9)

    @pytest.mark.parametrize(
        "flag, ctor",
        [("fourier", subsampled_dft_sign), ("bernoulli", bernoulli_sensing)],
    )
    def test_drip_exact_sensing_kinds(self, flag, ctor, capsys):
        code, out, _ = run_cli(
            ["certify", "drip-exact", "--dict", "concat-if", "--n", "8",
             "--m", "6", "--seed", "7", "--s", "2", "--sensing", flag],
            capsys,
        )
        assert code == 0
        D = build_concat(
            build_identity(8), build_oversampled_dft(8, 1), 1 / math.sqrt(2)
        )
        expected = drip_exact_small(ctor(6, 8, 7), D, 2).delta_hat
        assert float(out.splitlines()[1].split(",")[1]) == expected

    def test_drip_mc_monotone_in_trials(self, capsys):
        base = ["certify", "drip-mc", "--dict", "concat-if", "--n", "8",
                "--m", "6", "--seed", "7", "--s", "2"]
        _, out_small, _ = run_cli(base + ["--trials", "10"], capsys)
        _, out_big, _ = run_cli(base + ["--trials", "10000"], capsys)
        small = float(out_small.splitlines()[1].split(",")[1])
        big = float(out_big.splitlines()[1].split(",")[1])
        assert big >= small

    def test_drip_exact_cap_exits_2(self, capsys):
        code, _, err = run_cli(
            ["certify", "drip-exact", "--dict", "dft", "--oversampling", "4",
             "--n", "64", "--m", "16", "--s", "6"],
            capsys,
        )
        assert code == 2
        assert "use drip_monte_carlo instead" in err

    def test_drip_exact_over_the_cap_writes_no_csv(self, capsys):
        # concat-if at n = 32: d = 64 and C(64, 6) = 74,974,368 supports;
        # s = 2 fits under the cap, but no row of the CSV may be written
        code, out, err = run_cli(
            ["certify", "drip-exact", "--dict", "concat-if", "--n", "32",
             "--m", "16", "--seed", "3", "--s", "2,6"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"framecs: error: C(64,6) = 74974368 supports exceed the enumeration "
            f"cap ({ENUMERATION_CAP}); use drip_monte_carlo instead\n"
        )

    def test_oversampling_zero_exits_1(self, capsys):
        code, out, err = run_cli(
            ["certify", "drip-exact", "--dict", "dft", "--n", "8", "--m", "6",
             "--s", "2", "--oversampling", "0"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "oversampling factor c must be >= 1" in err

    def test_concentration_rate(self, capsys):
        code, out, _ = run_cli(
            ["certify", "concentration", "--n", "50", "--m", "100",
             "--delta", "0.5", "--trials", "200", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert 0.0 <= float(out.strip()) <= 0.05


class TestConfigRoundTrip:
    def test_serialize_parse_identity(self):
        cfg = default_config("radar")
        text = serialize_config(cfg)
        back = parse_config(text)
        assert back == cfg
        assert serialize_config(back) == text

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(Exception, match="unknown key"):
            parse_config("wibble = 3\n")

    def test_parse_rejects_bad_lines(self):
        with pytest.raises(Exception, match="key = value"):
            parse_config("just some text\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# hello\n\nexperiment = constants\n")
        assert cfg.experiment == "constants"
        assert cfg == default_config("constants")

    def test_serialized_config_has_no_step_ratio(self):
        assert "step_ratio" not in serialize_config(default_config("radar"))

    def test_all_experiments_have_defaults(self):
        for name in ("radar", "dirac-comb", "noise-curve", "constants",
                     "coefficient-decay", "method-comparison"):
            cfg = default_config(name)
            assert isinstance(cfg, ExperimentConfig)
            back = parse_config(serialize_config(cfg))
            assert back == cfg
            # no shipped config may name a lattice build_gabor rejects
            build_dictionary(cfg.dict_kind, cfg.n, cfg)


def readme_commands():
    """Each `framecs ...` command of the README's CLI block, with its
    backslash continuations joined, as arguments after the program name."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln, comments=True)[1:] for ln in lines
            if ln.startswith("framecs ")]


def subcommand_choices(command, dest):
    """The argparse choices of `command`'s option stored in `dest`."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    (action,) = [a for a in sub.choices[command]._actions if a.dest == dest]
    return action.choices


class TestKindTables:
    def test_choices_are_the_table_keys(self):
        assert subcommand_choices("recover", "method") == list(METHODS)
        assert subcommand_choices("recover", "sensing") == list(SENSING)
        assert subcommand_choices("certify", "sensing") == list(SENSING)

    def test_every_readme_kind_is_in_its_table(self):
        tables = {"dict": DICTIONARIES, "dict2": DICTIONARIES,
                  "dict_kind": DICTIONARIES, "signal": SIGNALS,
                  "sensing": SENSING, "method": METHODS}
        named = set()
        for argv in readme_commands():
            args = vars(build_parser().parse_args(argv))
            for dest, table in tables.items():
                if args.get(dest) is not None:
                    assert args[dest] in table, (argv, dest)
                    named.add(args[dest])
        assert {"concat-if", "gabor", "dirac", "radar", "analysis",
                "reweighted"} <= named

    @pytest.mark.parametrize("method", list(METHODS))
    def test_recover_report_is_the_programs(self, method, tmp_path, capsys):
        n, m, seed = 16, 12, 3
        run_cli(["recover", "--method", method, "--dict", "concat-if",
                 "--dict2", "dft", "--n", str(n), "--m", str(m), "--signal", "dirac",
                 "--sigma", "0.05", "--rw-iters", "2", "--max-iter", "300",
                 "--seed", str(seed), "--out", str(tmp_path)], capsys)
        D = build_concat(
            build_identity(n), build_oversampled_dft(n, 1), 1 / math.sqrt(2))
        A = gaussian_sensing(m, n, split_seed(seed, 2))
        f = dirac_comb(n)
        y, eps = measure(A, f.samples, 0.05, split_seed(seed, 3))
        kw = dict(cfg=SolverConfig(max_iter=300, tol_rel=1e-6, over_relaxation=1.8),
                  reference=f, audit_s=2 * math.isqrt(n))
        report = {
            "analysis": lambda: l1_analysis(A, D, y, eps, **kw),
            "reweighted": lambda: reweighted_l1_analysis(A, D, y, eps, 2, **kw),
            "synthesis": lambda: l1_synthesis(A, D, y, eps, **kw)[0],
            "split": lambda: split_analysis(
                A, D, build_oversampled_dft(n, 1), y, eps, **kw)[0],
        }[method]()
        rel = metrics(report.f_hat, f)["relative_error"]
        assert report.method == method
        assert (tmp_path / "report.json").read_bytes() == report_to_json(
            report, relative_error=rel).encode()


class TestReadmeCli:
    def test_every_command_parses(self):
        commands = readme_commands()
        assert {argv[0] for argv in commands} == {"recover", "experiment", "certify"}
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: framecs {shlex.join(argv)}")

    @pytest.mark.parametrize("argv", [
        argv for argv in readme_commands()
        if argv[0] == "certify" or argv[:2] == ["experiment", "constants"]
    ], ids=shlex.join)
    def test_certify_and_constants_commands_run(self, argv, tmp_path, capsys):
        if "--out" in argv:
            argv = argv.copy()
            argv[argv.index("--out") + 1] = str(tmp_path)
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err


# Each subcommand's flags as the parser declares them: option (or
# positional) -> (dest, default, choices, required).  Scripts and README
# commands rely on these names and defaults.
FLAG_SURFACE = {
    "recover": {
        "--method": ("method", None, ["analysis", "reweighted", "synthesis", "split"],
                     True),
        "--dict": ("dict", "concat-if", None, False),
        "--oversampling": ("oversampling", None, None, False),
        "--gabor-sigma": ("gabor_sigma", 8.0, None, False),
        "--gabor-a": ("gabor_a", 8, None, False),
        "--gabor-b": ("gabor_b", 0.03125, None, False),
        "--dict2": ("dict2", "dft", None, False),
        "--n": ("n", None, None, True),
        "--m": ("m", None, None, True),
        "--signal": ("signal", "dirac", None, False),
        "--sensing": ("sensing", "gaussian", ["gaussian", "bernoulli", "fourier"], False),
        "--sigma": ("sigma", 0.0, None, False),
        "--eps": ("eps", None, None, False),
        "--eps-rule": ("eps_rule", "realized", ["realized", "percentile"], False),
        "--rw-iters": ("rw_iters", 3, None, False),
        "--seed": ("seed", 1, None, False),
        "--audit-s": ("audit_s", None, None, False),
        "--pulses": ("pulses", 3, None, False),
        "--duration": ("duration", 128, None, False),
        "--rise-fall": ("rise_fall", 32, None, False),
        "--f-lo": ("f_lo", 0.05, None, False),
        "--f-hi": ("f_hi", 0.45, None, False),
        "--q-decay": ("q_decay", 1.5, None, False),
        "--max-iter": ("max_iter", 20000, None, False),
        "--tol-rel": ("tol_rel", 1e-06, None, False),
        "--over-relaxation": ("over_relaxation", 1.8, None, False),
        "--history": ("history", False, None, False),
        "--out": ("out", None, None, False),
    },
    "experiment": {
        "name": ("name", None, ["radar", "dirac-comb", "noise-curve", "constants",
                                "coefficient-decay", "method-comparison"], True),
        "--config": ("config", None, None, False),
        **{f"--{key.replace('_', '-')}": (key, None, None, False) for key in (
            "n", "m", "trials", "seed", "rw_iters", "sigmas", "max_iter",
            "oversampling", "signal", "out")},
        "--dict": ("dict_kind", None, None, False),
    },
    "certify": {
        "what": ("what", None, ["coherence", "drip-mc", "drip-exact", "concentration"],
                 True),
        "--dict": ("dict", "concat-if", None, False),
        "--oversampling": ("oversampling", None, None, False),
        "--gabor-sigma": ("gabor_sigma", 8.0, None, False),
        "--gabor-a": ("gabor_a", 8, None, False),
        "--gabor-b": ("gabor_b", 0.03125, None, False),
        "--n": ("n", None, None, True),
        "--m": ("m", None, None, False),
        "--s": ("s", "2", None, False),
        "--trials": ("trials", 1000, None, False),
        "--delta": ("delta", 0.5, None, False),
        "--seed": ("seed", 1, None, False),
        "--sensing": ("sensing", "gaussian", ["gaussian", "bernoulli", "fourier"], False),
    },
}

# the config file's keys, in config.txt order
CONFIG_KEYS = [
    "experiment", "n", "m", "oversampling", "sigmas", "trials", "rw_iters", "seed",
    "output_dir", "dict_kind", "signal", "gabor_sigma", "gabor_a", "gabor_b",
    "pulses", "duration", "rise_fall", "f_lo", "f_hi", "q_decay", "max_iter",
    "tol_rel", "over_relaxation",
]


class TestFlagSurface:
    @pytest.mark.parametrize("command", list(FLAG_SURFACE))
    def test_flags_keep_their_names_dests_and_defaults(self, command):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        surface = {
            (a.option_strings[0] if a.option_strings else a.dest):
            (a.dest, a.default, None if a.choices is None else list(a.choices),
             a.required)
            for a in sub.choices[command]._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert surface == FLAG_SURFACE[command]
        # 8 == 8.0, so the default's type is pinned too
        assert {k: type(v[1]) for k, v in surface.items()} == {
            k: type(v[1]) for k, v in FLAG_SURFACE[command].items()}

    def test_config_keys(self):
        assert [f.name for f in fields(ExperimentConfig)] == CONFIG_KEYS


@pytest.fixture
def builder_calls(monkeypatch):
    """The kinds every DICTIONARIES, SIGNALS and SENSING builder (and the
    trials' Gaussian A) is called with, in call order."""
    calls = []

    def spy(kind, build):
        return lambda *a: calls.append(kind) or build(*a)

    for table in (scenarios.DICTIONARIES, scenarios.SENSING):
        for kind, build in list(table.items()):
            monkeypatch.setitem(table, kind, spy(kind, build))
    for kind, sk in list(scenarios.SIGNALS.items()):
        monkeypatch.setitem(scenarios.SIGNALS, kind, sk._replace(build=spy(kind, sk.build)))
    monkeypatch.setattr(scenarios, "gaussian_sensing",
                        spy("trial gaussian", scenarios.gaussian_sensing))
    return calls


RECOVER = ["recover", "--method", "analysis", "--n", "16", "--m", "8"]


class TestChecksRunBeforeAnyBuilder:
    @pytest.mark.parametrize("argv, message", [
        (["experiment", "radar", "--rw-iters", "0", "--trials", "1"],
         "--rw-iters must be >= 1, got 0"),
        ([*RECOVER, "--rw-iters", "0"], "--rw-iters must be >= 1, got 0"),
        ([*RECOVER, "--audit-s", "0"], "--audit-s must be >= 1, got 0"),
        ([*RECOVER, "--sigma", "-1"], "--sigma must be finite and >= 0, got -1.0"),
        ([*RECOVER, "--sigma", "nan"], "--sigma must be finite and >= 0, got nan"),
        ([*RECOVER, "--sigma", "inf"], "--sigma must be finite and >= 0, got inf"),
        ([*RECOVER, "--eps", "nan"], "--eps must be finite and >= 0, got nan"),
        ([*RECOVER, "--eps", "inf"], "--eps must be finite and >= 0, got inf"),
        ([*RECOVER, "--max-iter", "0"], "max_iter must be >= 1"),
        ([*RECOVER, "--tol-rel", "0"], "tol_rel must be > 0"),
        ([*RECOVER, "--over-relaxation", "2"], "over_relaxation must lie in [1, 2)"),
        (["certify", "drip-mc", "--n", "8", "--m", "6", "--s", "2,,3"],
         "s = 2,,3: invalid literal for int() with base 10: ''"),
        (["certify", "drip-mc", "--n", "8"], "certify drip-mc requires --m"),
        ([*RECOVER, "--signal", "."], "signal file not found: ."),
        (["experiment", "constants", "--config", "."], "config file not found: ."),
    ])
    def test_exits_1_before_building(self, argv, message, builder_calls, tmp_path,
                                     capsys):
        if argv[0] != "certify":
            argv = [*argv, "--out", str(tmp_path / "o")]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"framecs: error: {message}\n"
        assert builder_calls == []
        assert not (tmp_path / "o").exists()

    def test_the_spy_sees_the_builders(self, builder_calls, tmp_path, capsys):
        code, _, _ = run_cli([*RECOVER, "--dict", "identity", "--max-iter", "5",
                              "--out", str(tmp_path)], capsys)
        assert code == 2
        assert builder_calls == ["identity", "gaussian", "dirac"]

    def test_comma_separated_sparsities_keep_their_spaces(self, capsys):
        base = ["certify", "drip-exact", "--n", "8", "--m", "6", "--seed", "7"]
        assert run_cli([*base, "--s", " 2, 3"], capsys)[1] == run_cli(
            [*base, "--s", "2,3"], capsys)[1]


# flag values drawn around each setting's domain edges; sizes stay tiny
_COUNTS = st.integers(-1, 3).map(str)
_LEVELS = st.sampled_from(["-1", "0", "0.05", "1.5", "nan", "inf"])
_KINDS = st.sampled_from(["identity", "dft", "concat-if", "gabor", "wavelet"])
_SIZES = {"--n": st.sampled_from(["0", "4", "8", "16"]),
          "--m": st.sampled_from(["0", "3", "6"])}
_FLAGS = {
    "recover": {
        "--dict": _KINDS, "--dict2": _KINDS, "--oversampling": _COUNTS,
        "--signal": st.sampled_from(["dirac", "compressible", "radar", "no/such.csv"]),
        "--sensing": st.sampled_from(["gaussian", "bernoulli", "fourier"]),
        "--sigma": _LEVELS, "--eps": _LEVELS,
        "--eps-rule": st.sampled_from(["realized", "percentile"]),
        "--rw-iters": _COUNTS, "--audit-s": _COUNTS,
        "--duration": st.sampled_from(["2", "4", "32"]),
        "--rise-fall": st.sampled_from(["0", "1", "3"]),
        "--tol-rel": st.sampled_from(["0", "1e-3", "nan"]),
        "--over-relaxation": st.sampled_from(["0.5", "1.8", "2"]),
        "--history": st.none(),
    },
    "experiment": {
        "--trials": _COUNTS, "--rw-iters": _COUNTS, "--oversampling": _COUNTS,
        "--sigmas": st.sampled_from(["", "0", "0.1,0.2", "-1", "nan", "0.1,,2"]),
        "--dict": _KINDS,
        "--signal": st.sampled_from(["dirac", "compressible", "radar", "dirca"]),
    },
    "certify": {
        "--dict": _KINDS, "--oversampling": _COUNTS,
        "--s": st.sampled_from(["0", "1", "1,2", "2,,3", " 2, 3", ""]),
        "--trials": st.sampled_from(["0", "1", "20"]),
        "--delta": _LEVELS,
        "--sensing": st.sampled_from(["gaussian", "bernoulli", "fourier"]),
    },
}
_HEADS = {
    "recover": st.sampled_from(list(METHODS)).map(lambda m: ["--method", m]),
    "experiment": st.sampled_from(list(scenarios.EXPERIMENTS)).map(lambda e: [e]),
    "certify": st.sampled_from(scenarios.SETTINGS["what"].choices).map(lambda w: [w]),
}


@st.composite
def command_lines(draw):
    """A subcommand with a few drawn flags, at tiny sizes and a small
    iteration cap; recover always gets --n and --m, certify --n."""
    command = draw(st.sampled_from(list(_FLAGS)))
    flags = {**_FLAGS[command], **_SIZES}
    argv = [command, *draw(_HEADS[command])]
    if command != "certify":
        argv.append("--max-iter=30")
    required = {"recover": ["--n", "--m"], "experiment": [], "certify": ["--n"]}[command]
    names = draw(st.sets(st.sampled_from(sorted(flags)), max_size=6)) | set(required)
    for name in sorted(names):
        value = draw(flags[name])
        argv += [name] if value is None else [f"{name}={value}"]
    return argv


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


class TestEveryFlagSet:
    """Whatever the flags, a run either exits 1 having written nothing, or
    exits 0 or 2 with its outputs."""

    @given(command_lines())
    @settings(max_examples=60, deadline=None)
    def test_exit_code_and_outputs_agree(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            if argv[0] != "certify":
                argv = [*argv, "--out", str(out)]
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's own usage errors
                    code = exc.code
            written = sorted(p.name for p in out.iterdir()) if out.exists() else []
            if code == 1:
                assert (written, stdout.getvalue()) == ([], "")
                return
            assert code in (0, 2), (argv, stderr.getvalue())
            if argv[0] == "recover":
                assert {"report.json", "recovered.csv"} <= set(written)
                assert ("history.csv" in written) == ("--history" in argv)
                report = _strict_json((out / "report.json").read_text())
                assert report["converged"] is (code == 0)
            elif argv[0] == "experiment":
                assert code == 0 and "config.txt" in written and len(written) >= 2
                assert sorted(stdout.getvalue().splitlines()) == [
                    str(out / name) for name in written]
            else:
                assert written == []
                assert bool(stdout.getvalue()) == (code == 0)
