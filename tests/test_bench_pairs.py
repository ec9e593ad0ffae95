import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(wall, setup, rss, correct=True, failed=0):
    return {
        "correct": correct, "attempted": 4, "failed": failed,
        "metrics": {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        },
    }


def test_table_of_canned_pairs():
    pairs = [
        (result(1.40, 0.0030, 41.7), result(0.60, 0.0031, 42.3)),
        (result(1.20, 0.0028, 41.7), result(0.70, 0.0027, 42.4)),
        (result(1.30, 0.0029, 41.8), result(1.30, 0.0025, 42.2)),
    ]
    assert bench_pairs.rows("certify", pairs) == [
        "| certify (3) | `setup_s` | 2.90 ms (2.85-2.95) | 2.70 ms (2.60-2.90) | 2/3 |",
        "| certify (3) | `wall_s` | 1.30 s (1.25-1.35) | 0.70 s (0.65-1.00) | 2/3 |",
        "| certify (3) | `peak_rss_mb` | 41.70 (41.70-41.75) | 42.30 (42.25-42.35) | 0/3 |",
    ]


def test_one_pair_has_no_spread():
    rows = bench_pairs.rows("noise", [(result(2.0, 0.5, 40.0), result(1.0, 0.5, 40.0))])
    assert rows[1] == "| noise (1) | `wall_s` | 2.00 s (2.00-2.00) | 1.00 s (1.00-1.00) | 1/1 |"


def fake_checkout(root, name, res, log):
    """A directory whose perfbench/run.py logs its call and prints ``res``."""
    bench = root / name / "perfbench"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text(
        "import sys\n"
        f"open({str(log)!r}, 'a').write({name!r} + ' ' + ' '.join(sys.argv[1:]) + '\\n')\n"
        f"print('# metrics')\nprint({json.dumps(json.dumps(res))})\n"
    )
    return root / name


@pytest.mark.parametrize("change, code", [
    (result(1.0, 0.002, 40.0), 0),
    (result(1.0, 0.002, 40.0, correct=False, failed=1), 1),
])
def test_main_alternates_and_fails_on_a_bad_run(tmp_path, capsys, change, code):
    log = tmp_path / "calls.log"
    parent = fake_checkout(tmp_path, "parent", result(2.0, 0.002, 40.0), log)
    changed = fake_checkout(tmp_path, "change", change, log)
    assert bench_pairs.main(
        [str(parent), str(changed), "--workload", "certify", "--pairs", "3", "--seed", "7"]
    ) == code
    calls = log.read_text().splitlines()
    assert [c.split()[0] for c in calls] == [
        "parent", "change", "change", "parent", "parent", "change"
    ]
    assert all(c.split()[1:] == ["--workload", "certify", "--seed", "7"] for c in calls)
    out = capsys.readouterr().out
    if code == 0:
        assert "| certify (3) | `wall_s` | 2.00 s (2.00-2.00) | 1.00 s (1.00-1.00) | 3/3 |" in out
    else:
        assert out == ""


def test_main_runs_each_listed_workload_and_prints_one_table(monkeypatch, capsys):
    calls = []

    def run_once(checkout, workload, seed):
        calls.append((checkout.name, workload))
        if (checkout.name, workload, len(calls)) == ("change", "certify", 7):
            return None, "exit 1: boom"
        wall = {"parent": 2.0, "change": 1.0}[checkout.name]
        return result(wall, 0.002, 40.0), ""

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    code = bench_pairs.main(
        ["parent", "change", "--workload", "radar,certify", "--pairs", "2"]
    )
    assert code == 1
    assert calls == [
        ("parent", "radar"), ("change", "radar"), ("change", "radar"), ("parent", "radar"),
        ("parent", "certify"), ("change", "certify"), ("change", "certify"),
        ("parent", "certify"),
    ]
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == bench_pairs.HEADER.splitlines()
    # the failed run leaves certify one complete pair
    assert [line.split(" | ")[0:2] for line in lines[2:]] == [
        ["| radar (2)", "`setup_s`"], ["| radar (2)", "`wall_s`"],
        ["| radar (2)", "`peak_rss_mb`"], ["| certify (1)", "`setup_s`"],
        ["| certify (1)", "`wall_s`"], ["| certify (1)", "`peak_rss_mb`"],
    ]
    assert "| radar (2) | `wall_s` | 2.00 s (2.00-2.00) | 1.00 s (1.00-1.00) | 2/2 |" in lines


LIMITS = {
    "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25},
    "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
    "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
}


def test_over_bound_flags_each_metric_worse_than_its_bound():
    # medians: setup 3.0 -> 4.0 ms (+33 %), wall 1.1 -> 1.3 s (+18 %),
    # rss 40.0 -> 44.5 MiB (+11 %)
    pairs = [
        (result(1.00, 0.0030, 40.0), result(1.20, 0.0040, 44.5)),
        (result(1.10, 0.0030, 40.0), result(1.30, 0.0039, 44.6)),
        (result(1.20, 0.0030, 40.0), result(1.40, 0.0041, 43.0)),
    ]
    assert bench_pairs.over_bound("certify", pairs, LIMITS) == [
        "over bound: certify `setup_s` change median 0.004 is worse than parent "
        "median 0.003 by more than 25%",
        "over bound: certify `peak_rss_mb` change median 44.5 is worse than parent "
        "median 40 by more than 10%",
    ]
    # the same medians are no regression where higher is better
    higher = {name: dict(limit, better="higher") for name, limit in LIMITS.items()}
    assert bench_pairs.over_bound("certify", pairs, higher) == []
    # nor from the change's side: the parent is worse on every metric
    swapped = [(c, p) for p, c in pairs]
    assert bench_pairs.over_bound("certify", swapped, LIMITS) == []


def test_main_reads_the_bounds_of_the_change_checkout(tmp_path, monkeypatch, capsys):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": list(LIMITS.values())}))

    def run_once(checkout, workload, seed):
        wall = {"parent": 1.0, "change": 2.0}[checkout.name]
        return result(wall, 0.002, 40.0), ""

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    code = bench_pairs.main(
        [str(tmp_path / "parent"), str(change), "--workload", "radar,noise", "--pairs", "2"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 2 + 2 * 3
    assert [line for line in captured.err.splitlines() if line.startswith("over bound:")] == [
        f"over bound: {w} `wall_s` change median 2 is worse than parent median 1 "
        "by more than 25%"
        for w in ("radar", "noise")
    ]
