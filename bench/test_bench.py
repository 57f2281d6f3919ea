"""Tests of the benchmark itself: gates fail on perturbed outputs, metrics
are printed with their units, and the tracer restores what it wraps.

Run from the repository root:  python3 -m pytest bench
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import latres.guided  # noqa: E402
import latres.scattering  # noqa: E402
import latres.structure  # noqa: E402
import meter  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from latres.timedomain import evolve, gaussian_pulse  # noqa: E402


def failing(gates):
    return {name for name, ok, _ in gates if not ok}


# ---------------------------------------------------------------------------
# scan_grid gates
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scan_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("scan") / "scan.csv"
    config = path.parent / "fixture1.json"
    wl.write_and_read_config(config, wl.FIXTURE1)
    rc, _, _ = wl.call_cli(["scan", "--config", str(config),
                            "--kappa-grid=-0.5,0.5,3",
                            "--omega-grid=0.5,3.5,31", "--out", str(path)])
    assert rc == 0
    return path.read_text()


def _scan_gates(text, rows=93):
    return wl.scan_gates("g", wl.FIXTURE1, text, rows,
                         np.random.default_rng(0), cross_points=93)


def _edit_rows(text, edit):
    lines = text.strip().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        out.append(",".join(edit(fields)))
    return "\n".join(out) + "\n"


def _solved(fields):
    return fields[2] != "nan" and fields[5] == ""


def test_scan_gates_pass_on_program_output(scan_text):
    assert failing(_scan_gates(scan_text)) == set()


def test_scan_gate_catches_changed_transmission(scan_text):
    def edit(f):
        if _solved(f):
            f[2] = repr(float(f[2]) * (1 + 1e-6))
        return f
    assert {"g.T2_plus_R2", "g.dtn_cross_check"} <= failing(
        _scan_gates(_edit_rows(scan_text, edit)))


def test_scan_dtn_gate_catches_balanced_error(scan_text):
    # rotate (T, R) so that T^2 + R^2 = 1 still holds: only the
    # independent DtN oracle can tell
    def edit(f):
        if _solved(f):
            a = math.atan2(float(f[3]), float(f[2])) + 1e-6
            f[2], f[3] = repr(math.cos(a)), repr(math.sin(a))
        return f
    assert failing(_scan_gates(_edit_rows(scan_text, edit))) == {
        "g.dtn_cross_check"}


def test_scan_gate_catches_energy_residual(scan_text):
    def edit(f):
        if _solved(f):
            f[4] = "1e-9"
        return f
    assert failing(_scan_gates(_edit_rows(scan_text, edit))) == {
        "g.energy_residual"}


def test_scan_gate_catches_unflagged_refusal_and_lost_rows(scan_text):
    def edit(f):
        if f[5] == "incident_not_propagating":
            f[5] = ""
        return f
    edited = _edit_rows(scan_text, edit)
    assert "g.refusals_flagged" in failing(_scan_gates(edited))
    truncated = "\n".join(scan_text.splitlines()[:-1]) + "\n"
    assert "g.rows" in failing(_scan_gates(truncated))


# ---------------------------------------------------------------------------
# mode_pipeline gates
# ---------------------------------------------------------------------------

def _mode_outputs():
    mode = SimpleNamespace(kappa0=wl.MODE1_KAPPA, omega0=wl.MODE1_OMEGA,
                           region_size=1)
    robust = SimpleNamespace(kappa0=0.3, omega0=0.76, region_size=0)
    n3 = SimpleNamespace(kappa0=0.0, omega0=wl.N3_OMEGA, region_size=1)
    fit = SimpleNamespace(slope=wl.MODE1_SLOPE,
                          curvature=complex(wl.MODE1_CURV_RE,
                                            wl.MODE1_CURV_IM))
    return {"modes": [mode, robust], "n3_modes": [n3], "fit": fit,
            "branch": SimpleNamespace(sqrt_slope=0.5)}


def test_mode_gates_pass_on_frozen_values():
    assert failing(wl.mode_gates(_mode_outputs())) == set()


@pytest.mark.parametrize("perturb, gate", [
    (lambda o: setattr(o["modes"][0], "kappa0", wl.MODE1_KAPPA + 2e-9),
     "mode.location"),
    (lambda o: setattr(o["modes"][1], "region_size", 1), "mode.location"),
    (lambda o: o["modes"].pop(0), "mode.location"),
    (lambda o: setattr(o["fit"], "slope", wl.MODE1_SLOPE * (1 + 2e-8)),
     "mode.dispersion_slope"),
    (lambda o: setattr(o["fit"], "curvature", complex(
        wl.MODE1_CURV_RE, wl.MODE1_CURV_IM * (1 + 2e-4))),
     "mode.dispersion_curvature"),
    (lambda o: setattr(o["n3_modes"][0], "omega0", wl.N3_OMEGA + 2e-9),
     "mode.n3_antisymmetric"),
    (lambda o: setattr(o["branch"], "sqrt_slope", 0.56),
     "mode.branch_sqrt_slope"),
])
def test_mode_gate_catches_perturbation(perturb, gate):
    out = _mode_outputs()
    perturb(out)
    assert failing(wl.mode_gates(out)) == {gate}


# ---------------------------------------------------------------------------
# cli_requests gates
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def request_run(tmp_path_factory):
    config = tmp_path_factory.mktemp("req") / "fixture1.json"
    wl.write_and_read_config(config, wl.FIXTURE1)
    base = ["--config", str(config)]
    requests = [
        (["scatter", *base, "--kappa=0.2", "--omega=1.5"], 0,
         "scatter-fourier.json", None),
        (["scatter", *base, "--kappa=0.2", "--omega=1.5", "--method=dtn"],
         0, "scatter-dtn.json", None),
        (["scatter", *base, "--kappa=0", "--omega=4"], 2, "error.json",
         "ThresholdError"),
        (["bifurcate", *base, *wl.README_BIFURCATE[1:]], 2, "error.json",
         wl.README_BIFURCATE_MESSAGE),
    ]
    results = [wl.call_cli(argv) for argv, *_ in requests]
    return requests, results, wl._schema_validators()


def test_request_gates_pass_on_program_output(request_run):
    assert failing(wl.request_gates(*request_run)) == set()


def test_readme_bifurcate_example_keeps_documented_outcome(request_run):
    _, results, _ = request_run
    rc, _, err = results[3]
    assert rc == 2
    assert json.loads(err.strip().splitlines()[-1])["message"].startswith(
        wl.README_BIFURCATE_MESSAGE)


def test_request_gate_catches_exit_code(request_run):
    requests, results, validators = request_run
    results = list(results)
    results[2] = (0,) + results[2][1:]
    assert failing(wl.request_gates(requests, results, validators)) == {
        "requests.exit_codes"}


def test_request_gate_catches_schema_violation(request_run):
    requests, results, validators = request_run
    doc = json.loads(results[0][1])
    del doc["T"]
    results = [(0, json.dumps(doc), "")] + results[1:]
    assert failing(wl.request_gates(requests, results, validators)) == {
        "requests.schemas"}


def test_request_gate_catches_missing_message(request_run):
    requests, results, validators = request_run
    rc, out, err = results[3]
    results = results[:3] + [(rc, out, err.replace("1.03", "1.02"))]
    assert failing(wl.request_gates(requests, results, validators)) == {
        "requests.error_messages"}


# ---------------------------------------------------------------------------
# time_domain gates
# ---------------------------------------------------------------------------

def test_evolution_gates():
    st = gaussian_pulse(wl.FIXTURE1, 20, 0.1, center=-5.0, width=3.0,
                        symmetry="antisymmetric")
    res = evolve(wl.FIXTURE1, st, 0.01, 50, record_every=10)
    assert failing(wl.evolution_gates("a", res, st.norm(), True)) == set()

    leaked = dataclasses.replace(
        res, waveguide_energy=res.waveguide_energy + 1e-20 * st.norm() ** 2)
    assert failing(wl.evolution_gates("a", leaked, st.norm(), True)) == {
        "a.decoupled"}
    drifted = dataclasses.replace(res, norms=res.norms * np.linspace(
        1.0, 1.0 + 2e-4, len(res.norms)))
    assert failing(wl.evolution_gates("a", drifted, st.norm(), True)) == {
        "a.norm_drift"}
    assert failing(wl.evolution_gates("a", res, st.norm(), False)) == {
        "a.coupled"}


def test_chained_evolutions_join_to_one_record():
    st = gaussian_pulse(wl.FIXTURE1, 20, 0.1, center=-5.0, width=3.0)
    whole = evolve(wl.FIXTURE1, st, 0.01, 60, record_every=10)
    parts = [evolve(wl.FIXTURE1, st, 0.01, 20, record_every=10)]
    for _ in range(2):
        parts.append(evolve(wl.FIXTURE1, parts[-1].state, 0.01, 20,
                            record_every=10))
    joined = wl.join_evolutions(parts)
    for field in ("times", "norms", "waveguide_energy"):
        np.testing.assert_allclose(getattr(joined, field),
                                   getattr(whole, field), rtol=1e-12)
    np.testing.assert_allclose(joined.state.u, whole.state.u, rtol=1e-12)


# ---------------------------------------------------------------------------
# meter
# ---------------------------------------------------------------------------

def test_meter_scales_by_probe_median_and_probes_by_time(monkeypatch):
    probe_s = iter([1.0, 3.0, 2.0, 2.0, 2.0, 9.0])
    monkeypatch.setattr(meter, "reference_probe", lambda: next(probe_s))
    m = meter.Meter()                        # probe 1.0
    m(lambda: None)                          # too short to probe after
    m(time.sleep, 2.5 * meter.PROBE_EVERY_S)  # then probes 3.0 and 2.0
    m.finish()                               # probe 2.0
    assert m.probes == [1.0, 3.0, 2.0, 2.0]
    assert m.scaled() == [dt * meter.REF_PROBE_S / 2.0 for dt in m.ops]
    assert m.wall == sum(m.ops)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_counts_inner_calls_and_restores():
    originals = (latres.scattering.solve_scattering,
                 latres.structure.classify_harmonics,
                 latres.guided.EigenvalueTracker.value)
    t = tracer.Tracer()
    t.install()
    try:
        assert latres.scattering.solve_scattering is not originals[0]
        latres.scattering.solve_scattering(
            wl.FIXTURE1, latres.structure.BlochPoint(0.2, 1.5))
    finally:
        t.uninstall()
    assert (latres.scattering.solve_scattering,
            latres.structure.classify_harmonics,
            latres.guided.EigenvalueTracker.value) == originals
    stats = tracer.layer_stats(t.spans, t.outcomes, 1)
    assert stats["scattering.solve_scattering.calls"][0] == 1
    # the inner classification is bound in the scattering module
    assert stats["structure.classify_harmonics.calls"][0] == 1
    assert 0 < stats["scattering.solve_scattering.self_s"][0] < (
        stats["scattering.solve_scattering.us_per_call"][0] * 1e-6)
    assert list(stats) == tracer.per_layer_names()


def test_self_time_is_cpu_time_minus_children():
    # [name, wall start, wall end, CPU start, CPU end, parent]
    parent = ["scattering.solve_scattering", 0.0, 9.0, 0.0, 5.0, None]
    spans = [["structure.classify_harmonics", 1.0, 2.0, 1.0, 2.0, parent],
             ["structure.classify_harmonics", 3.0, 4.0, 2.5, 3.0, parent],
             parent]
    stats = tracer.layer_stats(spans, {}, 1)
    assert stats["scattering.solve_scattering.self_s"][0] == 3.5
    assert stats["structure.classify_harmonics.us_per_call"][0] == 7.5e5


# ---------------------------------------------------------------------------
# the command: metrics with units, and refusal outside a checkout
# ---------------------------------------------------------------------------

def _run(args, cwd=ROOT, root=ROOT):
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"),
                                        ("1", "per_layer")])
def test_every_metric_printed_with_unit(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(["--workload", "time_domain", "--seed", "3", "--seconds",
                 "0.5", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "scan_grid", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
