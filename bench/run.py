#!/usr/bin/env python3
"""Benchmark of the latres library and CLI, run in process from source.

    python3 bench/run.py --workload scan_grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # all four, every gate

Workloads: scan_grid, mode_pipeline, cli_requests, time_domain (see
bench/README.md).  A run sets up the workload, repeats its fixed input set
("one pass") while the next pass still fits in --seconds, then checks the
last pass's outputs with the workload's correctness gates.

With --trace 0 the run reports the end-to-end metrics: setup_s (median of
five fresh interpreters that import latres.cli and write and read the
generated configs), pass_s (median per pass) and peak_rss_mb.  Both times
are at the reference speed of bench/meter.py, which takes out the drift of
the host's speed.
With --trace 1 it measures untraced passes for half of --seconds and traced
passes for the other half, and reports the per-layer metrics of the traced
passes plus trace.overhead_frac.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when every operation and gate
passed, 1 when one failed, and 2 when the benchmark could not run.
"""

import os

# BLAS threads x the CLI's default scan threads (one per CPU) must stay
# within the CPU count, so BLAS runs single-threaded.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from meter import REF_PROBE_S, Meter, probe_median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("scan_grid", "mode_pipeline", "cli_requests",
                  "time_domain")
SETUP_REPEATS = 5
# reference probes before and after each timed set-up
SETUP_PROBES = 5
# workload figures: the headline number of each workload, reported with
# the per-layer metrics (0 on the workloads they do not apply to)
FIGURE_UNITS = {"scan_points_per_s": "points/s", "modes_s": "s",
                "resonance_s": "s", "request_p50_ms": "ms",
                "request_p99_ms": "ms", "request_count": "count",
                "rk4_steps_per_s": "steps/s",
                "fail_frac": "ratio", "raw_wall_s": "s",
                "ref_probe_ms": "ms"}
COUNTER_UNITS = {"scattering.scan.solved_frac": "ratio",
                 "scattering.scan.near_singular_rows": "count",
                 "dtn.solve_truncated.M_max": "count"}


def machine_record():
    import numpy
    import scipy
    from workloads import ScanGrid

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '?')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "scan_threads": ScanGrid.THREADS}


def setup_probe(name, seed, workdir):
    """Body of one set-up measurement, run in a fresh interpreter."""
    from workloads import WORKLOADS

    WORKLOADS[name](seed, workdir)
    print("ready", flush=True)


def time_setup(name, seed, workdir):
    """Seconds from spawning a fresh interpreter until it is ready, at the
    reference speed measured by probes just before and after."""
    workdir.mkdir(parents=True)
    before = probe_median(SETUP_PROBES)
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed),
            "--workdir", str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        rc = proc.wait(timeout=60)
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {rc}")
    after = probe_median(SETUP_PROBES)
    return elapsed * 2.0 * REF_PROBE_S / (before + after)


@dataclass
class Pass:
    """One timed pass: its outputs and the meter that timed it."""

    out: dict
    meter: Meter

    def __post_init__(self):
        self.op_seconds = self.meter.scaled()
        self.seconds = sum(self.op_seconds)


def measure(workload, seconds, warm_up=True):
    """Run passes while the next one still fits in `seconds` (at least one).

    A warm-up pass runs first, untimed, if `warm_up`.  Returns [Pass].
    """
    if warm_up:
        workload.run_pass(Meter())
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        meter = Meter()
        passes.append(Pass(workload.run_pass(meter), meter.finish()))
        t1 = time.perf_counter()
        if t1 + (t1 - t0) > deadline:
            return passes


def figures(workload, passes, attempted, failed):
    """Every workload figure, 0 where it does not apply to the workload."""
    fig = {name: (0.0, unit) for name, unit in FIGURE_UNITS.items()}
    fig.update(workload.figures(passes))
    fig["fail_frac"] = (failed / attempted, "ratio")
    fig["raw_wall_s"] = (statistics.median(p.meter.wall for p in passes),
                         "s")
    fig["ref_probe_ms"] = (1e3 * statistics.median(
        x for p in passes for x in p.meter.probes), "ms")
    return fig


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS
    from tracer import Tracer, layer_stats

    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup = []
        if not trace:
            setup = [time_setup(name, seed, workdir / f"setup{i}")
                     for i in range(SETUP_REPEATS)]
        workload = WORKLOADS[name](seed, workdir)
        if trace:
            untraced = measure(workload, seconds / 2.0)
            tracer = Tracer()
            tracer.install()
            try:
                passes = measure(workload, seconds / 2.0, warm_up=False)
            finally:
                tracer.uninstall()
        else:
            passes = measure(workload, seconds)
        last = passes[-1].out
        gates = workload.gates(last)
        counters = (workload.counters(last)
                    if hasattr(workload, "counters") else {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    ops = [op for p in passes for op in p.out["ops"]]
    if trace:
        ops += [op for p in untraced for op in p.out["ops"]]
    attempted = len(ops) + len(gates)
    failed = sum(not ok for _, ok, _ in ops) + sum(not ok for _, ok, _ in
                                                    gates)
    fig = figures(workload, untraced if trace else passes, attempted, failed)

    if trace:
        metrics = layer_stats(tracer.spans, tracer.outcomes, len(passes))
        for key, unit in COUNTER_UNITS.items():
            metrics[key] = counters.get(key, (0, unit))
        for key, value in fig.items():
            metrics[f"workload.{key}"] = value
        metrics["trace.overhead_frac"] = (
            statistics.median(p.seconds for p in passes)
            / statistics.median(p.seconds for p in untraced) - 1.0, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (statistics.median(p.seconds for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }

    print(f"workload {name}  seed {seed}  passes {len(passes)}"
          + (f" traced, {len(untraced)} untraced" if trace else "")
          + f"  machine {json.dumps(machine_record(), sort_keys=True)}")
    print("  pass seconds at reference speed (raw wall): "
          + " ".join(f"{p.seconds:.3f} ({p.meter.wall:.3f})"
                     for p in (untraced if trace else []) + passes))
    if setup:
        print("  set-up seconds at reference speed: "
              + " ".join(f"{x:.3f}" for x in setup))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<48} {value:>16.6g} {unit}")
    if not trace:
        for key, (value, unit) in fig.items():
            if value or key == "fail_frac":
                print(f"  {key:<48} {value:>16.6g} {unit}  (figure)")
    for gate, ok, detail in gates:
        print(f"  gate {gate:<38} {'PASS' if ok else 'FAIL'}  {detail}")
    for op, ok, detail in ops:
        if not ok:
            print(f"  op {op} FAILED: {detail}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(seed, seconds, trace):
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        rc = max(rc, proc.returncode)
        try:
            doc = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            merged["failed"] += 1
            continue
        merged["correct"] &= doc["correct"]
        merged["attempted"] += doc["attempted"]
        merged["failed"] += doc["failed"]
        for key, value in doc["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    merged["attempted"] = max(merged["attempted"], 1)
    print(json.dumps(merged), flush=True)
    return rc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "latres" / "__init__.py").is_file():
        print(f"bench: no latres sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed, Path(args.workdir))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
