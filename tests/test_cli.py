import json
import math

import numpy as np
import pytest

from framecs.cli import (
    ExperimentConfig,
    default_config,
    main,
    parse_config,
    serialize_config,
)
from framecs.certify import drip_exact_small
from framecs.frames import build_concat, build_identity, build_oversampled_dft
from framecs.io import signal_to_csv
from framecs.sensing import bernoulli_sensing, subsampled_dft_sign
from framecs.signals import Signal
from framecs.rng import make_rng


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
        line = [
            ln for ln in (tmp_path / "noise_curve.csv").read_text().splitlines()
            if not ln.startswith("#")
        ][0]
        sigma_rel, err_plain, err_rw = (float(p) for p in line.split(","))
        assert sigma_rel == 0.0
        assert err_plain <= 1e-3
        assert err_rw <= 1e-3

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
        assert lines[0] == "# trial,err_analysis,err_reweighted,err_synthesis"
        assert len(lines) == 3


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
        assert "drip-mc" in err

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

    def test_all_experiments_have_defaults(self):
        for name in ("radar", "dirac-comb", "noise-curve", "constants",
                     "coefficient-decay", "method-comparison"):
            cfg = default_config(name)
            assert isinstance(cfg, ExperimentConfig)
            back = parse_config(serialize_config(cfg))
            assert back == cfg
