"""framecs benchmark: one workload per process, closed loop.

    python3 perfbench/run.py --workload radar --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
Workloads and metrics are declared in ``BENCHMARK.json`` beside ``src/``.

--trace 0  Set-up is repeated (at least three times, and until a second of
           set-up has been timed) and its median reported.  The fixed
           batch then runs, and runs again on a fresh set-up while the
           next batch still fits in --seconds.  Reruns must reproduce the
           first batch's outputs bit for bit.
--trace 1  Runs the batch once untraced and once traced (every operator
           wrapped in a recording proxy, spans around every library call)
           and requires identical outputs.  Prints the per-layer metrics
           and ``trace.overhead_frac`` = traced / untraced wall - 1.

Every metric is printed by name with its unit and direction; the last
line of stdout is the JSON result.  A fuller record (environment,
every metric, every operation) goes to ``perfbench/out/``, and the traced
run's spans to a ``.npz`` beside it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 1000


def _environment(seed: int, workload) -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "seed": seed,
        "caches": _caches(),
        "operands_computed": workload.operands(),
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for ln in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if ln.endswith(" " + name):
                return ln.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _caches() -> dict:
    """Data and unified cache sizes of cpu0, by level."""
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (idx / "type").read_text().strip()
            if kind == "Instruction":
                continue
            out[f"L{(idx / 'level').read_text().strip()}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return out


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finish_batch(wl, inputs, ops) -> None:
    wl.check(inputs, ops)
    for op in ops:
        op.out = None


def _compare(reference, ops, what: str) -> None:
    """Mark every op whose outputs differ from the reference batch's."""
    if len(reference) != len(ops):
        for op in ops:
            op.problems.append(f"{what}: batch has {len(ops)} ops, expected {len(reference)}")
        return
    for ref, op in zip(reference, ops):
        if repr(ref.key) != repr(op.key):
            op.problems.append(f"{what}: {op.key} differs from {ref.key}")


def run_untraced(wl, seed: int, seconds: float, notrace):
    setup_s: list[float] = []

    def setup():
        start = time.perf_counter()
        inputs = wl.setup(seed, notrace)
        setup_s.append(time.perf_counter() - start)
        return inputs

    inputs = None
    while len(setup_s) < SETUP_MIN_REPS or (
        sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPS
    ):
        inputs = None  # free the previous build first: peak memory is one build
        inputs = setup()
    walls: list[float] = []
    batches = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        ops = wl.run(inputs, notrace)
        walls.append(time.perf_counter() - start)
        _finish_batch(wl, inputs, ops)
        if batches:
            _compare(batches[0], ops, "rerun")
        batches.append(ops)
        inputs = None
        next_end = time.perf_counter() - begin + statistics.median(walls) + statistics.median(setup_s)
        if next_end > seconds:
            break
        inputs = setup()
    return setup_s, walls, batches


def run_traced(wl, seed: int, notrace, tracer):
    inputs = wl.setup(seed, notrace)
    start = time.perf_counter()
    untraced_ops = wl.run(inputs, notrace)
    untraced_wall = time.perf_counter() - start
    _finish_batch(wl, inputs, untraced_ops)
    inputs = None
    inputs = wl.setup(seed, tracer)
    start = time.perf_counter()
    traced_ops = wl.run(inputs, tracer)
    traced_wall = time.perf_counter() - start
    _finish_batch(wl, inputs, traced_ops)
    _compare(untraced_ops, traced_ops, "traced run")
    return untraced_wall, traced_wall, untraced_ops, traced_ops


def _fmt_row(name, value, unit, better, n=None) -> str:
    count = f"  n={n}" if n is not None else ""
    return f"  {name:<30} {value:>16.8g} {unit:<6} {better + ' is better':<16}{count}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "framecs" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"error: run from a framecs checkout; {SRC / 'framecs'} or "
                         f"{spec_path} is missing\n")
        return 2
    spec = json.loads(spec_path.read_text())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose "
                         f"{', '.join(workloads.WORKLOADS)}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    env = _environment(args.seed, wl)
    print(f"# framecs benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={seconds:g} trace={args.trace}")
    print("# environment " + json.dumps(env))

    notrace = tracing.NoTrace()
    all_metrics: dict[str, tuple] = {}
    if args.trace == 0:
        setup_s, walls, batches = run_untraced(wl, args.seed, seconds, notrace)
        ops = [op for batch in batches for op in batch]
        all_metrics["setup_s"] = (statistics.median(setup_s), "s", "lower", len(setup_s))
        all_metrics["wall_s"] = (statistics.median(walls), "s", "lower", len(walls))
        all_metrics["peak_rss_mb"] = (_peak_rss_mib(), "MiB", "lower", None)
        all_metrics.update(wl.metrics(ops, batches[0]))
        declared = spec["end_to_end"]
    else:
        tracer = tracing.Tracer()
        untraced_wall, traced_wall, untraced_ops, traced_ops = run_traced(
            wl, args.seed, notrace, tracer
        )
        ops = untraced_ops + traced_ops
        layers = tracing.layer_metrics(tracer)
        layers["solvers.iterations.sum"] = sum(o.info.get("iterations", 0) for o in traced_ops)
        layers["solvers.feas_excess.max"] = max(
            [o.info["feas_excess"] for o in traced_ops if "feas_excess" in o.info] or [0.0]
        )
        layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        if layers["solvers.solve_s"] > 0:
            # frames + sensing busy time plus solver self time, against the
            # traced solve time; the remainder is operator time outside solves
            layers["trace.accounted_frac"] = (
                layers["frames.busy_s"] + layers["sensing.busy_s"] + layers["solvers.self_s"]
            ) / layers["solvers.solve_s"]
        units = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        for name, value in layers.items():
            unit, better = units.get(name, _layer_unit(name))
            all_metrics[name] = (value, unit, better, None)
        declared = spec["per_layer"]
        tracer.save(OUT / f"{wl.name}-seed{args.seed}-spans.npz")

    print("# metrics (those declared in BENCHMARK.json are in the result line)")
    for name, (value, unit, better, n) in all_metrics.items():
        print(_fmt_row(name, value, unit, better, n))
    print("# operations")
    for op in ops:
        status = "ok" if not op.problems else "FAILED: " + "; ".join(op.problems)
        facts = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in op.info.items())
        print(f"  {op.label:<28} {op.seconds:9.4f}s  {facts}  {status}")

    failed = sum(1 for op in ops if op.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": all_metrics[m["name"]][0], "unit": m["unit"]}
            for m in declared
        },
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "environment": env,
        "metrics": {k: {"value": v[0], "unit": v[1], "better": v[2], "n": v[3]}
                    for k, v in all_metrics.items()},
        "operations": [{"label": o.label, "kind": o.kind, "seconds": o.seconds,
                        "info": o.info, "problems": o.problems} for o in ops],
        "result": result,
    }
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n"
    )
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> tuple[str, str]:
    """Unit and direction of a per-layer metric not in BENCHMARK.json."""
    if name.endswith(".calls") or name.endswith(".sum"):
        return "count", "lower"
    if name.endswith("us_p50") or name.endswith("us_per_step"):
        return "us", "lower"
    if name.endswith("_s"):
        return "s", "lower"
    if name == "trace.accounted_frac":
        return "ratio", "closer to 1"
    return "ratio", "lower"


if __name__ == "__main__":
    sys.exit(main())
