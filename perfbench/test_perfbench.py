"""Self-tests of the benchmark code.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from framecs.certify import drip_exact_small  # noqa: E402
from framecs.frames import build_concat, build_gabor, build_identity, build_oversampled_dft  # noqa: E402
from framecs.sensing import gaussian_sensing  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The end-to-end metrics each workload prints by name, beyond the ones
# every workload reports in its result line.
WORKLOAD_METRICS = {
    "radar": ["solve_s.p50", "converged_frac", "rel_error.p50", "rel_error.max"],
    "noise": ["solve_s.p50", "converged_frac", "rel_error.p50", "rel_error.max"],
    "certify": ["drip_mc.trials_per_s", "drip_exact.supports_per_s", "frame_bounds_s"],
    "fullsize": ["solve_s.p50", "rel_error.p50"],
}
LAYER_TABLE = [
    "frames.build_s", "frames.apply.us_p50", "frames.adjoint.us_p50", "frames.busy_s",
    "sensing.build_s", "sensing.measure_s", "sensing.adjoint.us_p50", "sensing.busy_s",
    "solvers.self_s", "solvers.self_us_per_step", "solvers.iterations.sum",
    "solvers.feas_excess.max", "certify.drip_mc.self_s", "certify.drip_exact.self_s",
    "certify.frame_bounds.self_s", "signals.build_s", "signals.metrics_s",
    "io.report_to_json.us_p50", "io.signal_to_csv.us_p50", "trace.overhead_frac",
]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if trace == 0:
            assert got["value"] > 0
    # Every metric the workload defines is printed by name, unit and direction.
    table = {ln.split()[0]: ln.split()[1:] for ln in lines if ln.startswith("  ")}
    names = WORKLOAD_METRICS[name] if trace == 0 else LAYER_TABLE
    for metric in names:
        assert metric in table, metric
        assert table[metric][2] in ("lower", "higher", "closer"), table[metric]


def test_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "radar", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_proxy_returns_identical_outputs_and_exact_counts():
    D = build_gabor(64, 8.0, 8, 1 / 32)
    A = gaussian_sensing(20, 64, seed=5)
    tr = tracing.Tracer()
    Dp, Ap = tr.dictionary(D), tr.sensing(A)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(D.d) + 1j * rng.standard_normal(D.d)
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    with tr.span("solvers.fake", call=True):
        for _ in range(3):
            assert np.array_equal(Dp.apply(x), D.apply(x))
        for _ in range(2):
            assert np.array_equal(Dp.adjoint(f), D.adjoint(f))
        for _ in range(4):
            assert np.array_equal(Ap.apply(f), A.apply(f))
        assert np.array_equal(Ap.adjoint(A.apply(f)), A.adjoint(A.apply(f)))
    layers = tracing.layer_metrics(tr)
    assert layers["frames.apply.calls"] == 3
    assert layers["frames.adjoint.calls"] == 2
    assert layers["sensing.apply.calls"] == 4
    assert layers["sensing.adjoint.calls"] == 1
    assert layers["frames.busy_s"] > 0 and layers["sensing.busy_s"] > 0
    # the solve's self time is its span minus the operator calls inside it
    (name, start, end, _, _), = [s for s in tr.spans if s[0] == "solvers.fake"]
    total = layers["frames.busy_s"] + layers["sensing.busy_s"] + layers["solvers.self_s"]
    assert total == pytest.approx(end - start, rel=1e-9)
    assert {s[4] for s in tr.spans} == {0}


def test_proxy_keeps_dense_paths_bit_identical():
    D = build_concat(build_identity(8), build_oversampled_dft(8, 1), 1 / math.sqrt(2))
    A = gaussian_sensing(6, 8, seed=7)
    tr = tracing.Tracer()
    Dp, Ap = tr.dictionary(D), tr.sensing(A)
    for s in (1, 2):
        assert drip_exact_small(Ap, Dp, s).delta_hat == drip_exact_small(A, D, s).delta_hat
    # A's matrix comes from its construction, so dense() applies nothing;
    # D's dense() applies D once per column, once (then it is cached).
    layers = tracing.layer_metrics(tr)
    assert layers["sensing.apply.calls"] == 0
    assert layers["frames.apply.calls"] == D.d


def test_self_time_on_a_hand_built_tree():
    # 0: [0, 10] with children 1: [1, 3], 2: [2, 5] (overlapping 1) and
    # 3: [8, 12] (running past its parent); 4: [3, 4] is a child of 2.
    start = [0.0, 1.0, 2.0, 8.0, 3.0, 20.0]
    end = [10.0, 3.0, 5.0, 12.0, 4.0, 21.0]
    parent = [-1, 0, 0, 0, 2, -1]
    own = tracing.self_times(start, end, parent)
    # 0 loses [1, 5] and [8, 10]; 2 loses [3, 4]; leaves keep everything
    assert own.tolist() == [4.0, 2.0, 2.0, 4.0, 1.0, 1.0]


def test_checks_flag_bad_outputs():
    cert = workloads.Certify()
    mc = workloads.Op("concat/mc/s=2", "drip_mc", 0.1, key=(0.9, 10),
                      info={"s": 2, "delta_hat": 0.9})
    ex1 = workloads.Op("concat/exact/s=1", "drip_exact", 0.1, key=(0.8, 16),
                       info={"s": 1, "delta_hat": 0.8})
    ex2 = workloads.Op("concat/exact/s=2", "drip_exact", 0.1, key=(0.5, 120),
                       info={"s": 2, "delta_hat": 0.5})
    fb = workloads.Op("frame_bounds", "frame_bounds", 0.1, key=(2.0, 1.0))
    cert.check({}, [mc, ex1, ex2, fb])
    assert mc.problems and ex2.problems and fb.problems and not ex1.problems
