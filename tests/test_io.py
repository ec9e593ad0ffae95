import json

import numpy as np
import pytest

from framecs.io import (
    report_to_json,
    signal_from_csv,
    signal_to_csv,
    table_to_csv,
)
from framecs.rng import make_rng
from framecs.sensing import gaussian_sensing, measure
from framecs.frames import build_identity
from framecs.signals import Signal
from framecs.solvers import SolverConfig, l1_analysis


def test_signal_round_trip():
    rng = make_rng(1)
    s = Signal(rng.standard_normal(9) + 1j * rng.standard_normal(9),
               sample_rate=5e9)
    text = signal_to_csv(s)
    back = signal_from_csv(text)
    assert np.array_equal(back.samples, s.samples)
    assert back.sample_rate == 5e9
    assert text.splitlines()[0] == "# n=9 sample_rate=5000000000.0"


def test_signal_round_trip_no_rate():
    s = Signal(np.array([1.0 + 2.0j, -0.5]))
    back = signal_from_csv(signal_to_csv(s))
    assert back.sample_rate is None
    assert np.array_equal(back.samples, s.samples)


def test_signal_header_required():
    with pytest.raises(ValueError, match="header"):
        signal_from_csv("1.0,2.0\n")


def test_signal_length_mismatch_detected():
    bad = "# n=3 sample_rate=none\n1.0,0.0\n"
    with pytest.raises(ValueError, match="n=3"):
        signal_from_csv(bad)


def test_report_json_field_order():
    n = 6
    A = gaussian_sensing(4, n, seed=1)
    D = build_identity(n)
    f = np.zeros(n, dtype=complex)
    f[1] = 1.0
    y, _ = measure(A, f, 0.0, seed=0)
    rep = l1_analysis(A, D, y, 0.0, cfg=SolverConfig(max_iter=2000),
                      reference=f, audit_s=1)
    text = report_to_json(rep, relative_error=0.0)
    keys = list(json.loads(text).keys())
    assert keys == [
        "method", "n", "d", "m", "eps", "objective", "feasibility",
        "iterations", "converged", "cone_slack", "tube_norm",
        "relative_error",
    ]
    # serialization is reproducible byte for byte
    assert text == report_to_json(rep, relative_error=0.0)


def test_table_single_hash_header():
    text = table_to_csv("a,b", [(1, 0.5), (2, 0.25)])
    lines = text.splitlines()
    assert lines[0] == "# a,b"
    assert lines[1] == "1,0.5"
    assert sum(1 for ln in lines if ln.startswith("#")) == 1


def test_history_csv():
    from framecs.io import history_to_csv

    n = 6
    A = gaussian_sensing(4, n, seed=1)
    D = build_identity(n)
    y, _ = measure(A, np.ones(n, dtype=complex), 0.0, seed=0)
    rep = l1_analysis(A, D, y, 0.0, cfg=SolverConfig(max_iter=50, history=True))
    text = history_to_csv(rep)
    lines = text.splitlines()
    assert lines[0] == "# iteration,objective,feasibility"
    assert len(lines) == 1 + rep.iterations
    rep_no_hist = l1_analysis(A, D, y, 0.0, cfg=SolverConfig(max_iter=50))
    with pytest.raises(ValueError, match="history"):
        history_to_csv(rep_no_hist)
