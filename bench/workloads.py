"""The four benchmark workloads: seeded inputs, one timed pass, and gates.

Each workload is a closed loop with a single client in one process.  Its
constructor is the set-up: it generates the inputs from the seed, writes the
structure configs and reads them back.  `run_pass(meter)` runs the fixed
input set once through the public API or `latres.cli.main`, each operation
through the `meter.Meter`, and returns the outputs; `gates(outputs)` checks
them and runs outside the timed section.  `figures(passes)` gives the
workload's own figures from the timed passes (`run.Pass`), and
`counters(outputs)`, where present, counts flags in the outputs.

A gate is `(name, ok, detail)`.  The gate functions take plain outputs
(CSV text, result objects, exit codes and documents), so the benchmark's
tests can feed them perturbed outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

# timed passes call the package through module attributes, so that the
# traced run's wrappers (bound on the latres modules) see every call
from latres import cli, guided, resonance, timedomain
from latres.structure import BlochPoint, StructureParams, classify_harmonics
from latres.dtn import cross_validate, solve_truncated
from latres.timedomain import LatticeState, gaussian_pulse

# the README / tests fixture: embedded traveling mode near (0.0617, 0.979)
FIXTURE1 = StructureParams(N=2, masses=[2.0, 1.0], springs=[1.0, 1.0],
                           gammas=[1.0, 7.0])
# mirror-symmetric N=3 structure with an antisymmetric standing mode
FIXTURE_N3 = StructureParams(N=3, masses=[1.0, 2.0, 2.0],
                             springs=[1.0, 1.0, 1.0], gammas=[1.0, 1.0, 1.0])
GAMMA0_STAR = 1.0296335133904082

# frozen values from tests/test_guided.py and its tolerances
MODE1_KAPPA = 0.06167366437892
MODE1_OMEGA = 0.97916666666667
MODE1_SLOPE = 0.32989868701667
MODE1_CURV_RE = 2.637894301650
MODE1_CURV_IM = 0.072210750373
N3_OMEGA = 1.1914657677046268

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def random_structure(rng, N, complex_gamma):
    masses = rng.uniform(0.5, 2.0, N)
    springs = rng.uniform(0.5, 2.0, N)
    gammas = rng.uniform(0.5, 3.0, N).astype(complex)
    if complex_gamma:
        gammas = gammas + 1j * rng.uniform(0.2, 1.0, N)
    return StructureParams(N=N, masses=masses, springs=springs, gammas=gammas)


def write_and_read_config(path, params):
    """Write a structure config as the CLI expects it, then load it back."""
    Path(path).write_text(json.dumps(params.to_dict()))
    return StructureParams.from_json(str(path))


def call_cli(argv):
    """One in-process `latres` request: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def quantile(values, q):
    """Nearest-rank quantile (q in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# scan_grid
# ---------------------------------------------------------------------------

def parse_scan_csv(text):
    lines = text.strip().splitlines()
    if lines[0] != "kappa,omega,T,R,energy_residual,flags":
        raise ValueError(f"unexpected scan header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        k, w, T, R, res, flags = line.split(",")
        rows.append((float(k), float(w), float(T), float(R), float(res),
                     flags))
    return rows


def incident_flux(params, kappa, omega):
    """Flux sin(2 pi theta_0) of unit left incidence on order 0."""
    hs = classify_harmonics(params, BlochPoint(kappa, omega))
    return math.sin(2.0 * math.pi * hs.harmonics[0].theta.real)


def dtn_transmission(params, kappa, omega):
    """|b_plus| on order 0 read off the truncated DtN solution at m = +M."""
    trunc = solve_truncated(params, BlochPoint(kappa, omega))
    hs = classify_harmonics(params, BlochPoint(kappa, omega))
    n = np.arange(params.N)
    phi0, theta0 = hs.phi[0], hs.theta[0]
    coef = np.mean(trunc.u[-2] * np.exp(-2j * np.pi * phi0 * n))
    return float(abs(coef * np.exp(-2j * np.pi * theta0 * trunc.M)))


def scan_gates(label, params, text, expected_rows, rng, cross_points=4):
    """Gates on one scan CSV: shape, flags, energy balance, DtN agreement."""
    rows = parse_scan_csv(text)
    gates = [(f"{label}.rows", len(rows) == expected_rows,
              f"{len(rows)} rows, expected {expected_rows}")]

    bad_flags = [r for r in rows if math.isnan(r[2]) != (
        r[5] in ("threshold", "incident_not_propagating"))]
    gates.append((f"{label}.refusals_flagged", not bad_flags,
                  f"{len(bad_flags)} rows with NaN/flag mismatch"))

    solved = [r for r in rows if not math.isnan(r[2])]
    worst = max((r[4] / incident_flux(params, r[0], r[1]) for r in solved),
                default=0.0)
    gates.append((f"{label}.energy_residual", worst <= 1e-12,
                  f"max relative residual {worst:.2e} (limit 1e-12)"))

    single = [r for r in solved if "multi_prop_flux_weighted" not in r[5]]
    worst = max((abs(r[2] ** 2 + r[3] ** 2 - 1.0) for r in single),
                default=0.0)
    gates.append((f"{label}.T2_plus_R2", worst <= 1e-10,
                  f"max |T^2+R^2-1| {worst:.2e} over {len(single)} "
                  "single-propagating rows (limit 1e-10)"))

    # a seeded subsample re-solved by the independent DtN oracle; slowly
    # decaying evanescent orders would need a strip wider than the cap
    eligible = []
    for r in single:
        hs = classify_harmonics(params, BlochPoint(r[0], r[1]))
        taus = [h.theta.imag for h in hs.harmonics if h.theta.imag > 0]
        if not taus or min(taus) >= 0.02:
            eligible.append(r)
    picks = rng.choice(len(eligible), size=min(cross_points, len(eligible)),
                       replace=False)
    worst_field = worst_t = 0.0
    for i in picks:
        k, w, T = eligible[i][:3]
        worst_field = max(worst_field,
                          cross_validate(params, BlochPoint(k, w)))
        worst_t = max(worst_t, abs(dtn_transmission(params, k, w) - T))
    ok = len(picks) > 0 and worst_field <= 1e-8 and worst_t <= 1e-8
    gates.append((f"{label}.dtn_cross_check", ok,
                  f"{len(picks)} points: field diff {worst_field:.2e}, "
                  f"|T - T_dtn| {worst_t:.2e} (limit 1e-8)"))
    return gates


class ScanGrid:
    """`latres scan` through cli.main on fixture 1 and a generated N=8."""

    name = "scan_grid"
    # kappa rows per request: short requests for the meter to probe between
    ROWS_PER_REQUEST = 2
    # one scan thread: two threads contend for the interpreter lock, and on
    # a 2-vCPU host their wall time swings with the scheduler
    THREADS = 1

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        self.gate_rng_seed = [seed, 11]
        # every fifth kappa row of the README grid, offset by the seed, with
        # all 301 omegas of the README grid
        lo = -0.5 + 0.01 * (seed % 5)
        # (label, params, [request argv], [chunk csv], rows)
        self.jobs = []
        for label, params, kappas, wgrid in (
                ("fixture1", FIXTURE1, np.linspace(lo, lo + 0.95, 20),
                 (0.5, 3.5, 301)),
                ("n8", random_structure(rng, 8, True),
                 np.linspace(-0.5, 0.5, 11), (0.5, 7.5, 41))):
            config = workdir / f"{label}.json"
            params = write_and_read_config(config, params)
            requests, csvs = [], []
            for i in range(0, len(kappas), self.ROWS_PER_REQUEST):
                rows = [float(k) for k in
                        kappas[i:i + self.ROWS_PER_REQUEST]]
                csvs.append(workdir / f"{label}.{i}.csv")
                requests.append([
                    "scan", "--config", str(config),
                    f"--kappa-grid={rows[0]!r},{rows[-1]!r},{len(rows)}",
                    "--omega-grid={!r},{!r},{}".format(*wgrid),
                    "--out", str(csvs[-1]), f"--threads={self.THREADS}"])
            self.jobs.append((label, params, requests, csvs,
                              len(kappas) * wgrid[2]))

    def run_pass(self, meter):
        ops = []
        for label, _, requests, _, _ in self.jobs:
            for argv in requests:
                rc, _, err = meter(call_cli, argv)
                ops.append((f"scan {label}", rc == 0, err.strip()[-200:]))
        return {"ops": ops}

    def figures(self, passes):
        """Grid points written per second, over the median pass."""
        points = sum(job[-1] for job in self.jobs)
        return {"scan_points_per_s": (
            points / float(np.median([p.seconds for p in passes])),
            "points/s")}

    @staticmethod
    def csv_text(csvs):
        """The chunk CSVs of one scan joined under a single header."""
        texts = [path.read_text().strip().splitlines() for path in csvs]
        return "\n".join(texts[0] + [r for t in texts[1:] for r in t[1:]])

    def gates(self, outputs):
        rng = np.random.default_rng(self.gate_rng_seed)
        gates = []
        for label, params, _, csvs, rows in self.jobs:
            gates.extend(scan_gates(label, params, self.csv_text(csvs), rows,
                                    rng))
        return gates

    def counters(self, outputs):
        """Row counts read from the CSV flags of the last pass."""
        attempted = solved = near_singular = 0
        for job in self.jobs:
            for r in parse_scan_csv(self.csv_text(job[3])):
                attempted += 1
                solved += not math.isnan(r[2])
                near_singular += "near_singular" in r[5]
        return {"scattering.scan.solved_frac": (solved / attempted, "ratio"),
                "scattering.scan.near_singular_rows": (near_singular,
                                                       "count")}


# ---------------------------------------------------------------------------
# mode_pipeline
# ---------------------------------------------------------------------------

def mode_gates(out):
    """Gates on the embedded-mode pipeline's outputs."""
    gates = []
    embedded = [m for m in out["modes"] if m.region_size == 1]
    ok = (len(embedded) == 1
          and abs(embedded[0].kappa0 - MODE1_KAPPA) <= 1e-9
          and abs(embedded[0].omega0 - MODE1_OMEGA) <= 1e-9)
    detail = f"{len(embedded)} embedded mode(s)"
    if embedded:
        detail += (f", kappa0={embedded[0].kappa0!r}, "
                   f"omega0={embedded[0].omega0!r}")
    gates.append(("mode.location", ok, detail + " (limit 1e-9)"))

    fit = out["fit"]
    rel = abs(fit.slope - MODE1_SLOPE) / MODE1_SLOPE
    gates.append(("mode.dispersion_slope", rel <= 1e-8,
                  f"slope={fit.slope!r}, relative error {rel:.1e} "
                  "(limit 1e-8)"))
    re_rel = abs(fit.curvature.real - MODE1_CURV_RE) / MODE1_CURV_RE
    im_rel = abs(fit.curvature.imag - MODE1_CURV_IM) / MODE1_CURV_IM
    gates.append(("mode.dispersion_curvature", re_rel <= 1e-6
                  and im_rel <= 1e-4,
                  f"curvature={fit.curvature!r}, relative errors "
                  f"{re_rel:.1e} (limit 1e-6), {im_rel:.1e} (limit 1e-4)"))

    n3 = out["n3_modes"]
    ok = (len(n3) == 1 and n3[0].kappa0 == 0.0
          and abs(n3[0].omega0 - N3_OMEGA) <= 1e-9)
    gates.append(("mode.n3_antisymmetric", ok,
                  f"{len(n3)} mode(s)"
                  + (f", (kappa0, omega0)=({n3[0].kappa0!r}, "
                     f"{n3[0].omega0!r})" if n3 else "") + " (limit 1e-9)"))

    slope = out["branch"].sqrt_slope
    gates.append(("mode.branch_sqrt_slope", abs(slope - 0.5) <= 0.05,
                  f"sqrt_slope={slope!r} (0.5 +- 0.05)"))
    return gates


class ModePipeline:
    """Modes, dispersion, anomaly, enhancement and branch on fixture 1."""

    name = "mode_pipeline"

    # the criterion-01 window; density 60 resolves exactly one embedded mode
    WINDOW = (-0.5, 0.5, 0.7, 1.25)
    DENSITY = 60
    N3_WINDOW = (-0.05, 0.05, 1.1, 1.3)
    N3_DENSITY = 40
    # fixed peak/dip samples: the root search's cost depends on kt, so a
    # seeded choice would move the pass time with the seed
    PEAK_DIP_KT = np.array([-0.006, -0.002, 0.002, 0.006])

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        self.params = write_and_read_config(workdir / "fixture1.json",
                                            FIXTURE1)
        self.n3 = write_and_read_config(workdir / "n3.json", FIXTURE_N3)
        self.gamma0_values = sorted(
            GAMMA0_STAR - 10.0 ** rng.uniform(-7.0, -4.0, 6))
        self.enhance_kts = np.sort(10.0 ** rng.uniform(-4.0, -2.0, 9))

    def run_pass(self, meter):
        modes = meter(guided.find_guided_modes, self.params, self.WINDOW,
                      density=self.DENSITY)
        n3_modes = meter(guided.find_guided_modes, self.n3, self.N3_WINDOW,
                         density=self.N3_DENSITY)
        mode = next(m for m in modes if m.region_size == 1)
        fit = meter(guided.continue_and_fit_dispersion, self.params, mode)
        curves = meter(resonance.peak_dip_curves, self.params, mode, fit,
                       kt_samples=self.PEAK_DIP_KT)
        meter(resonance.fit_anomaly, self.params, mode, fit, curves)
        meter(resonance.enhancement_scan, self.params, mode, fit,
              self.enhance_kts)
        branch = meter(resonance.trace_branch, self.params,
                       self.gamma0_values, gamma0_bracket=(0.8, 1.3))
        return {"ops": [(name, True, "") for name in (
                    "find_guided_modes", "find_guided_modes n3",
                    "continue_and_fit_dispersion", "peak_dip_curves",
                    "fit_anomaly", "enhancement_scan", "trace_branch")],
                "modes": modes, "n3_modes": n3_modes, "fit": fit,
                "branch": branch}

    def figures(self, passes):
        """The two mode searches, and the rest of the pass (medians)."""
        return {"modes_s": (float(np.median(
                    [sum(p.op_seconds[:2]) for p in passes])), "s"),
                "resonance_s": (float(np.median(
                    [sum(p.op_seconds[2:]) for p in passes])), "s")}

    def gates(self, outputs):
        return mode_gates(outputs)


# ---------------------------------------------------------------------------
# cli_requests
# ---------------------------------------------------------------------------

# The README `bifurcate` example asks for gamma0 = 1.03 > gamma0* ~ 1.029634,
# where no branch point exists; its documented outcome today is exit 2.
README_BIFURCATE = ["bifurcate", "--gamma0-min=1.0", "--gamma0-max=1.03"]
README_BIFURCATE_MESSAGE = "no branch point for gamma0=1.03"


def _schema_validators():
    import jsonschema
    from referencing import Registry, Resource

    resources, schemas = [], {}
    for path in SCHEMA_DIR.glob("*.json"):
        doc = json.loads(path.read_text())
        resources.append((doc["$id"], Resource.from_contents(doc)))
        schemas[path.name] = doc
    registry = Registry().with_resources(resources)
    return {name: jsonschema.Draft202012Validator(doc, registry=registry)
            for name, doc in schemas.items()}


def request_gates(requests, results, validators):
    """Exit codes as expected, and every JSON document valid by its schema.

    `requests[i]` is (argv, expected exit code, schema name or None,
    expected stderr fragment or None); `results[i]` is (rc, stdout, stderr).
    """
    wrong_rc, invalid, missing = [], [], []
    for (argv, want_rc, schema, fragment), (rc, out, err) in zip(requests,
                                                                 results):
        if rc != want_rc:
            wrong_rc.append(f"{' '.join(argv[:1] + argv[3:])}: {rc}")
        if fragment is not None and fragment not in err:
            missing.append(" ".join(argv[:1] + argv[3:]))
        if schema is None:
            continue
        text = err if schema == "error.json" else out
        try:
            doc = json.loads(text.strip().splitlines()[-1] if schema ==
                             "error.json" else text)
            errors = list(validators[schema].iter_errors(doc))
        except (ValueError, IndexError) as exc:
            errors = [exc]
        if errors:
            invalid.append(f"{argv[0]} ({schema}): {errors[0]}")
    return [
        ("requests.exit_codes", not wrong_rc and len(results) == len(requests),
         f"{len(wrong_rc)} unexpected of {len(results)}"
         + (f"; first: {wrong_rc[0]}" if wrong_rc else "")),
        ("requests.schemas", not invalid,
         f"{len(invalid)} invalid documents"
         + (f"; first: {invalid[0][:160]}" if invalid else "")),
        ("requests.error_messages", not missing,
         f"{len(missing)} requests without their documented message"),
    ]


class CliRequests:
    """Single seeded requests through cli.main on N in {2, 3, 5, 8}."""

    name = "cli_requests"

    SCATTER_PER_CONFIG = 20
    DTN_PER_CONFIG = 6
    GRIDS_PER_CONFIG = 2

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        self.validators = _schema_validators()
        fixture = workdir / "fixture1.json"
        write_and_read_config(fixture, FIXTURE1)
        configs = []
        for N in (2, 3, 5, 8):
            for complex_gamma in (False, True):
                path = workdir / f"n{N}{'c' if complex_gamma else 'r'}.json"
                params = write_and_read_config(
                    path, random_structure(rng, N, complex_gamma))
                configs.append((str(path), params))

        reqs = []
        for path, params in configs:
            base = ["--config", path]
            for _ in range(self.SCATTER_PER_CONFIG):
                k, w = self._point(rng, params, min_tau=0.0)
                reqs.append((["scatter", *base, f"--kappa={k!r}",
                              f"--omega={w!r}"], 0,
                             "scatter-fourier.json", None))
            for _ in range(self.DTN_PER_CONFIG):
                k, w = self._point(rng, params, min_tau=0.05)
                reqs.append((["scatter", *base, f"--kappa={k!r}",
                              f"--omega={w!r}", "--method=dtn"], 0,
                             "scatter-dtn.json", None))
            for _ in range(self.GRIDS_PER_CONFIG):
                reqs.append((["bands", *base, "--kappa-grid=-0.5,0.5,21"],
                             0, None, None))
                reqs.append((["regions", *base, "--kappa-grid=-0.5,0.5,21",
                              "--omega-grid=0,8,21"], 0, None, None))
        # documented exit-2 outcomes: a threshold point (chi_0 = -1 at
        # kappa=0, omega=4 for every N) and incidence on an evanescent order
        for path, _ in configs[::4]:
            reqs.append((["scatter", "--config", path, "--kappa=0",
                          "--omega=4"], 2, "error.json", "ThresholdError"))
            reqs.append((["scatter", "--config", path, "--kappa=0.5",
                          "--omega=0.05"], 2, "error.json", "non-propagating"))
        for vseed in rng.integers(0, 2 ** 31, 2):
            reqs.append((["validate", "--config", str(fixture),
                          f"--seed={int(vseed)}"], 0, None, None))
        reqs.append((["bifurcate", "--config", str(fixture),
                      *README_BIFURCATE[1:]], 2, "error.json",
                     README_BIFURCATE_MESSAGE))
        order = rng.permutation(len(reqs))
        self.requests = [reqs[i] for i in order]

    @staticmethod
    def _point(rng, params, min_tau):
        """A real point where order 0 propagates, off thresholds."""
        while True:
            k = float(rng.uniform(-0.5, 0.5))
            w = float(rng.uniform(0.05, 7.95))
            hs = classify_harmonics(params, BlochPoint(k, w))
            if 0 not in hs.propagating or hs.has_threshold:
                continue
            taus = [h.theta.imag for h in hs.harmonics if h.theta.imag > 0]
            if taus and min(taus) < max(min_tau, 1e-6):
                continue
            return k, w

    def run_pass(self, meter):
        results, ops = [], []
        for argv, want_rc, _, _ in self.requests:
            rc, out, err = meter(call_cli, argv)
            results.append((rc, out, err))
            ops.append((argv[0], rc == want_rc, err.strip()[-200:]))
        return {"ops": ops, "results": results}

    def figures(self, passes):
        lat = [x for p in passes for x in p.op_seconds]
        return {"request_p50_ms": (quantile(lat, 0.5) * 1e3, "ms"),
                "request_p99_ms": (quantile(lat, 0.99) * 1e3, "ms"),
                "request_count": (len(lat), "count")}

    def gates(self, outputs):
        return request_gates(self.requests, outputs["results"],
                             self.validators)

    def counters(self, outputs):
        ms = [json.loads(out)["M"] for (argv, *_), (rc, out, _) in
              zip(self.requests, outputs["results"])
              if "--method=dtn" in argv and rc == 0]
        return {"dtn.solve_truncated.M_max": (max(ms, default=0), "count")}


# ---------------------------------------------------------------------------
# time_domain
# ---------------------------------------------------------------------------

def join_evolutions(parts):
    """One EvolutionResult from consecutive `evolve` calls."""
    return timedomain.EvolutionResult(
        state=parts[-1].state,
        times=np.concatenate([parts[0].times[:1]]
                             + [p.times[1:] for p in parts]),
        norms=np.concatenate([parts[0].norms[:1]]
                             + [p.norms[1:] for p in parts]),
        waveguide_energy=np.concatenate(
            [parts[0].waveguide_energy[:1]]
            + [p.waveguide_energy[1:] for p in parts]))


def evolution_gates(label, result, norm0, antisymmetric):
    """Norm conservation, and chain decoupling for antisymmetric pulses."""
    drift = result.norm_drift / norm0
    gates = [(f"{label}.norm_drift", drift <= 1e-4,
              f"relative drift {drift:.2e} (limit 1e-4)")]
    chain = math.sqrt(float(np.max(result.waveguide_energy))) / norm0
    if antisymmetric:
        gates.append((f"{label}.decoupled", chain <= 1e-12,
                      f"max |z| / norm {chain:.1e} (limit 1e-12)"))
    else:
        gates.append((f"{label}.coupled", chain > 1e-6,
                      f"max |z| / norm {chain:.1e} (must exceed 1e-6)"))
    return gates


class TimeDomain:
    """RK4 evolution of symmetric and antisymmetric pulses."""

    name = "time_domain"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 4])
        params1 = write_and_read_config(workdir / "fixture1.json", FIXTURE1)
        params8 = write_and_read_config(workdir / "n8.json",
                                        random_structure(rng, 8, True))
        # (label, params, mx, steps, steps per call, centre, width): the
        # README settings, and a wide strip whose pulse starts on the
        # coupling line
        setups = [("n2", params1, 80, 2000, 100, -40.0, 10.0),
                  ("n8", params8, 400, 300, 30, -50.0, 25.0)]
        self.runs = []
        for label, params, mx, steps, chunk, centre, width in setups:
            kappa = float(rng.uniform(-0.3, 0.3))
            theta = float(rng.uniform(0.2, 0.3))
            for sym in ("symmetric", "antisymmetric"):
                st = gaussian_pulse(params, mx, kappa, center=centre,
                                    width=width, theta=theta, symmetry=sym)
                nrm = st.norm()
                st = LatticeState(z=st.z / nrm, u=st.u / nrm, kappa=kappa)
                self.runs.append((f"{label}.{sym}", params, st, steps,
                                  chunk))
        self.dt = 0.01

    def run_pass(self, meter):
        """Each evolution as a chain of `evolve` calls of `chunk` steps, so
        that the meter can probe between them."""
        results = []
        for _, params, st, steps, chunk in self.runs:
            parts = []
            for _ in range(steps // chunk):
                parts.append(meter(timedomain.evolve, params, st, self.dt,
                                   chunk, record_every=10))
                st = parts[-1].state
            results.append(join_evolutions(parts))
        return {"ops": [(run[0], True, "") for run in self.runs],
                "results": results}

    def figures(self, passes):
        """RK4 steps per second, over the median pass."""
        steps = sum(run[3] for run in self.runs)
        return {"rk4_steps_per_s": (
            steps / float(np.median([p.seconds for p in passes])),
            "steps/s")}

    def gates(self, outputs):
        gates = []
        for (label, _, st, *_), res in zip(self.runs,
                                           outputs["results"]):
            gates.extend(evolution_gates(label, res, st.norm(),
                                         label.endswith("antisymmetric")))
        return gates


WORKLOADS = {w.name: w for w in (ScanGrid, ModePipeline, CliRequests,
                                 TimeDomain)}
