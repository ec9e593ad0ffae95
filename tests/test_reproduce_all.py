import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_all.py"
spec = importlib.util.spec_from_file_location("reproduce_all", SCRIPT)
reproduce_all = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reproduce_all)


def test_unknown_names_exit_1_before_anything_runs(tmp_path, capsys):
    code = reproduce_all.run(["--out", str(tmp_path), "--only", "constants,zeta,eta"])
    assert code == 1
    out = capsys.readouterr()
    assert "unknown experiment(s): zeta, eta; choose from radar," in out.err
    assert out.out == ""
    assert list(tmp_path.iterdir()) == []


def test_known_names_run(tmp_path, capsys):
    assert reproduce_all.run(["--out", str(tmp_path), "--only", "constants"]) == 0
    assert (tmp_path / "constants" / "constants.csv").exists()
    assert "constants: exit 0" in capsys.readouterr().out


def test_a_solving_experiment_runs(tmp_path, capsys):
    assert reproduce_all.run(["--out", str(tmp_path), "--only", "dirac-comb"]) == 0
    assert "dirac-comb: exit 0" in capsys.readouterr().out
    table = tmp_path / "dirac-comb" / "dirac_comb.csv"
    header, *rows = table.read_text().splitlines()
    assert header == "# trial,relative_error,iterations,converged"
    assert [int(row.split(",")[0]) for row in rows] == list(range(10))
    config = (tmp_path / "dirac-comb" / "config.txt").read_text().splitlines()
    assert "sigmas = 0.0" in config
