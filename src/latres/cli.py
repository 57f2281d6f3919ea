"""Command-line entry point: every operation as a subcommand.

Structure parameters are read from a JSON config; results are emitted as CSV
(fixed column orders, 17 significant digits) or JSON.  Output is fully
deterministic for a given config and seed.  The LATRES_LOG environment
variable selects the logging level (DEBUG/INFO/WARNING/...).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .structure import (BlochPoint, StructureParams, _complex,
                        classify_harmonics, region_diagram, waveguide_bands)
from .scattering import IncidentField, _scan_rows, solve_scattering
from .dtn import cross_validate, solve_truncated
from .guided import continue_and_fit_dispersion, find_guided_modes
from .resonance import (enhancement_scan, fit_anomaly, model_vs_direct,
                        trace_branch)
from .timedomain import LatticeState, evolve, gaussian_pulse
from .discrete import green_identity_field, identity_residuals

FMT = "%.17g"


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w"), True


def _emit(path, lines):
    """Write the lines (at least one), each ended by a newline, in one
    write."""
    fh, close = _open_out(path)
    try:
        fh.write("\n".join(lines) + "\n")
    finally:
        if close:
            fh.close()


def _csv(path, header, rows):
    """Write tuple rows under header: numbers as FMT, strings (the scan
    flags) as they are, each column typed by the first row."""
    rows = list(rows)
    fmt = ",".join("%s" if isinstance(v, str) else FMT
                   for v in (rows[0] if rows else ()))
    _emit(path, [header] + [fmt % row for row in rows])


def _grid_csv(path, header, kappa_grid, omega_grid, fmt, rows):
    """Write a kappa-major grid under header, the bytes `_csv` writes for
    its rows (kappa, omega, *point).  rows gives each kappa row's columns,
    one list over omega_grid per field of a point, formatted by fmt.  Each
    omega is formatted once, into a cell template, and each kappa row is
    one format call on a flat tuple of its cells."""
    cells = [FMT % w + "," + fmt for w in omega_grid]
    lines = [header]
    # strict: rows run to their end, where a scan writes its DEBUG line
    for kap, columns in zip(kappa_grid, rows, strict=True):
        if not cells:
            continue
        prefix = FMT % kap + ","
        k = len(columns)
        flat = [None] * (k * len(cells))
        for j, column in enumerate(columns):
            flat[j::k] = column
        lines.append((prefix + ("\n" + prefix).join(cells)) % tuple(flat))
    _emit(path, lines)


def _finite(value: float, flag: str) -> float:
    """value, refused with a ValueError naming flag unless it is finite."""
    if not np.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {value}")
    return value


def _grid(spec: str, flag: str) -> np.ndarray:
    """Parse 'min,max,num' into a linspace; both bounds must be finite."""
    lo, hi, num = spec.split(",")
    return np.linspace(_finite(float(lo), f"{flag} bounds"),
                       _finite(float(hi), f"{flag} bounds"), int(num))


def _params(args) -> StructureParams:
    if not args.config:
        raise ValueError("a --config JSON file with the structure is required")
    return StructureParams.from_json(args.config)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_regions(args):
    params = _params(args)
    diagram = region_diagram(params, _grid(args.kappa_grid, "--kappa-grid"),
                             _grid(args.omega_grid, "--omega-grid"))
    _grid_csv(args.out, "kappa,omega,num_propagating", diagram.kappa_grid,
              diagram.omega_grid, FMT,
              ((row,) for row in diagram.counts.tolist()))
    return 0


def cmd_bands(args):
    params = _params(args)
    _csv(args.out, "kappa," + ",".join(f"band_{j}" for j in range(params.N)),
         ((kap, *waveguide_bands(params, kap))
          for kap in _grid(args.kappa_grid, "--kappa-grid")))
    return 0


def _amplitudes(spec, N, flag):
    """Parse a JSON list of at most N incident amplitudes, zero-padded to N."""
    values = json.loads(spec) if spec else []
    if not isinstance(values, list) or len(values) > N:
        raise ValueError(f"{flag} must be a JSON list of at most N={N} "
                         f"amplitudes, got {spec}")
    amp = np.zeros(N, dtype=complex)
    try:
        amp[:len(values)] = [_complex(v) for v in values]
    except TypeError as exc:
        raise ValueError(f"{flag} entries must be numbers or {{re, im}} "
                         f"objects, got {spec}") from exc
    return amp


def _incident_from_args(args, N):
    if args.a_inc:
        a = _amplitudes(args.a_inc, N, "--a-inc")
    else:
        a = IncidentField.unit_left(N, args.order).a_inc
    return IncidentField(a, _amplitudes(args.b_inc, N, "--b-inc"))


def _cnum(z) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def cmd_scatter(args):
    params = _params(args)
    point = BlochPoint(_finite(args.kappa, "--kappa"),
                       _finite(args.omega, "--omega"))
    incident = _incident_from_args(args, params.N)
    if args.method == "dtn":
        trunc = solve_truncated(params, point, incident, args.M)
        doc = {
            "method": "dtn",
            "M": trunc.M,
            "z": [_cnum(v) for v in trunc.z],
            "u_m0": [_cnum(v) for v in trunc.u[trunc.M + 1]],
            "linear_residual": trunc.residual,
        }
    else:
        sol = solve_scattering(params, point, incident)
        doc = {
            "method": "fourier",
            "a_minus": [_cnum(v) for v in sol.a_minus],
            "b_plus": [_cnum(v) for v in sol.b_plus],
            "c": [_cnum(v) for v in sol.c],
            "T": sol.T,
            "R": sol.R,
            "energy_residual": sol.energy_residual,
            "condition": sol.condition,
            "flags": list(sol.flags),
        }
    _emit(args.out, [json.dumps(doc, indent=2, sort_keys=True)])
    return 0


def cmd_scan(args):
    params = _params(args)
    kappas = _grid(args.kappa_grid, "--kappa-grid")
    omegas = _grid(args.omega_grid, "--omega-grid")
    _grid_csv(args.out, "kappa,omega,T,R,energy_residual,flags", kappas,
              omegas, f"{FMT},{FMT},{FMT},%s",
              _scan_rows(params, kappas, omegas, args.order))
    return 0


def _mode_doc(mode):
    return {
        "kappa0": mode.kappa0,
        "omega0": mode.omega0,
        "sigma_min": mode.sigma,
        "num_propagating": mode.region_size,
        "null_vector": [
            {"kind": kind, "order": order, **_cnum(v)}
            for (kind, order), v in zip(mode.null_labels, mode.null_vector)],
    }


def cmd_guided(args):
    params = _params(args)
    window = tuple(float(x) for x in args.window.split(","))
    modes = find_guided_modes(params, window, density=args.density,
                              tol=args.tol)
    _emit(args.out, [json.dumps([_mode_doc(m) for m in modes], indent=2,
                                sort_keys=True)])
    return 0


def _locate_mode(params, args):
    window = tuple(float(x) for x in args.window.split(","))
    modes = find_guided_modes(params, window, density=args.density)
    if not modes:
        raise ValueError("no guided mode found in the window")
    if not 0 <= args.mode_index < len(modes):
        raise ValueError(f"mode index {args.mode_index} out of range "
                         f"({len(modes)} found)")
    return modes[args.mode_index]


def cmd_dispersion(args):
    params = _params(args)
    _finite(args.radius, "--radius")
    mode = _locate_mode(params, args)
    fit = continue_and_fit_dispersion(params, mode, radius=args.radius)
    _csv(args.out, "kappa,re_omega,im_omega",
         ((mode.kappa0 + kt, om.real, om.imag) for kt, om in fit.samples))
    meta = {
        "kappa0": fit.kappa0, "omega0": fit.omega0,
        "linear_coefficient": fit.slope,
        "quadratic_coefficient": _cnum(fit.curvature),
        "sign_convention": "omega = omega0 - linear*kt - quadratic*kt^2",
        "fit_residual": fit.fit_residual,
    }
    print(json.dumps(meta, sort_keys=True), file=sys.stderr)
    return 0


def cmd_anomaly(args):
    params = _params(args)
    mode = _locate_mode(params, args)
    dfit = continue_and_fit_dispersion(params, mode)
    afit = fit_anomaly(params, mode, dfit)
    rows = model_vs_direct(params, afit, (-0.003, -0.002, -0.001, 0.001,
                                          0.002, 0.003), 11)
    _csv(args.out, "kappa,omega,T_direct,T_approx", map(tuple, rows))
    meta = {
        "kappa0": afit.kappa0, "omega0": afit.omega0,
        "linear_coefficient": afit.slope,
        "quadratic_coefficient": _cnum(afit.curvature),
        "peak_curvature": afit.peak_curvature,
        "dip_curvature": afit.dip_curvature,
        "t_background": afit.t_bg,
        "r_background": afit.r_bg,
        "background_slope": afit.bg_slope,
        "eta": afit.eta,
        "ordering_sign": afit.ordering_sign,
        "sign_convention": "omega = omega0 - linear*kt - quadratic*kt^2",
    }
    print(json.dumps(meta, sort_keys=True), file=sys.stderr)
    return 0


def cmd_bifurcate(args):
    params = _params(args)
    grid = np.linspace(args.gamma0_min, args.gamma0_max, args.num)
    if len(np.unique(grid)) < 2:
        raise ValueError("bifurcate fits the square-root law to at least two "
                         "distinct gamma0 values: give --num >= 2 and "
                         "--gamma0-min != --gamma0-max")
    branch = trace_branch(params, list(grid))
    _csv(args.out, "gamma0,kappa0,omega0", branch.samples)
    meta = {
        "gamma0_star": branch.gamma0_star,
        "omega0_star": branch.omega0_star,
        "sqrt_slope": branch.sqrt_slope,
        "g_curvature_sign": branch.g_curvature_sign,
    }
    print(json.dumps(meta, sort_keys=True), file=sys.stderr)
    return 0


def cmd_enhance(args):
    params = _params(args)
    _finite(args.kt_min, "--kt-min")
    _finite(args.kt_max, "--kt-max")
    if not (args.kt_min > 0.0 and args.kt_max > 0.0):
        raise ValueError(f"enhance samples kt on a log scale: --kt-min and "
                         f"--kt-max must be > 0, got {args.kt_min} and "
                         f"{args.kt_max}")
    if args.num < 1:
        raise ValueError(f"enhance needs --num >= 1 kt samples, got "
                         f"{args.num}")
    mode = _locate_mode(params, args)
    fit = continue_and_fit_dispersion(params, mode)
    kts = np.logspace(np.log10(args.kt_min), np.log10(args.kt_max), args.num)
    rows = enhancement_scan(params, mode, fit, kts)
    _csv(args.out, "kappa_tilde,omega_opt,amplitude", rows)
    return 0


def _init_state(path, N, kappa) -> LatticeState:
    """The --init-file state: lists z (N entries) and u (rows of N entries)."""
    if not path:
        raise ValueError("--init file requires --init-file")
    with open(path) as fh:
        doc = json.load(fh)
    try:
        z = [_complex(v) for v in doc["z"]]
        u = [[_complex(v) for v in row] for row in doc["u"]]
    except (KeyError, TypeError) as exc:
        raise ValueError("--init-file must hold lists z and u of numbers or "
                         f"{{re, im}} objects: {exc}") from exc
    if len(z) != N:
        raise ValueError(f"--init-file z must have N={N} entries, "
                         f"got {len(z)}")
    return LatticeState(z=np.array(z, dtype=complex),
                        u=np.array(u, dtype=complex), kappa=kappa)


def cmd_evolve(args):
    params = _params(args)
    _finite(args.kappa, "--kappa")
    if args.init == "file":
        state = _init_state(args.init_file, params.N, args.kappa)
    else:
        # the pulse width is mx / 8
        if args.mx < 1:
            raise ValueError(f"--mx must be >= 1 for a pulse, got {args.mx}")
        state = gaussian_pulse(params, args.mx, args.kappa,
                               center=-args.mx / 2.0, width=args.mx / 8.0,
                               symmetry=args.init)
    result = evolve(params, state, args.dt, args.steps,
                    record_every=args.record_every)
    _csv(args.out, "t,norm,waveguide_energy",
         zip(result.times, result.norms, result.waveguide_energy))
    return 0


def _random_point(params, rng, omega_range, accept):
    """A random real point with a propagating order, off every threshold.

    Draws kappa in [-1/2, 1/2] and omega in omega_range until the point's
    harmonics pass accept; returns the point and its harmonics.
    """
    while True:
        point = BlochPoint(rng.uniform(-0.5, 0.5), rng.uniform(*omega_range))
        hs = classify_harmonics(params, point)
        if hs.propagating and not hs.has_threshold and accept(hs):
            return point, hs


def cmd_validate(args):
    params = _params(args)
    rng = np.random.default_rng(args.seed)
    checks = []

    def record(name, value, limit):
        ok = value <= limit
        checks.append((name, value, limit, ok))

    def scattered(count):
        for _ in range(count):
            point, hs = _random_point(params, rng, (0.05, 7.95),
                                      lambda hs: True)
            a = np.zeros(params.N, dtype=complex)
            b = np.zeros(params.N, dtype=complex)
            for l in hs.propagating:
                a[l] = rng.standard_normal() + 1j * rng.standard_normal()
                b[l] = rng.standard_normal() + 1j * rng.standard_normal()
            yield solve_scattering(params, point, IncidentField(a, b))

    # conservation on random points with random propagating incidence
    record("energy_conservation", max(
        sol.energy_residual / sol.incident_flux for sol in scattered(50)),
        1e-12)

    # cross-oracle on a few points with order 0 propagating and no slowly
    # decaying order
    def resolved(hs):
        taus = hs.theta.imag[~(hs.propagating_mask | hs.threshold_mask)]
        return hs.propagating_mask[0] and not (taus < 0.08).any()

    record("cross_oracle", max(
        cross_validate(params, _random_point(params, rng, (0.3, 7.7),
                                             resolved)[0])
        for _ in range(5)), 1e-8)

    # discrete identities on random fields
    v = rng.standard_normal((7, 6)) + 1j * rng.standard_normal((7, 6))
    w = rng.standard_normal((7, 6)) + 1j * rng.standard_normal((7, 6))
    res = identity_residuals(v, w)
    record("discrete_identities", max(res.values()), 1e-12)

    # Green identity of the strip operator on computed fields
    record("green_identity_field",
           max(green_identity_field(sol, 6) for sol in scattered(3)), 1e-12)

    width = max(len(c[0]) for c in checks)
    failed = False
    for name, value, limit, ok in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {value:12.3e}  (limit {limit:.0e})  {status}")
        failed = failed or not ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The latres parser, built once per process: every parse_args call
    returns a fresh Namespace, and no default is a mutable object."""
    ap = argparse.ArgumentParser(
        prog="latres",
        description="Scattering, guided modes, and resonances of a periodic "
                    "waveguide coupled to a 2D lattice.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="structure JSON path")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--threads", type=int,
                       default=os.cpu_count() or 1,
                       help="accepted for compatibility; has no effect on "
                            "results or speed")

    p = sub.add_parser("regions", help="propagating-order count diagram")
    common(p)
    p.add_argument("--kappa-grid", default="-0.5,0.5,101")
    p.add_argument("--omega-grid", default="0,8,101")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("bands", help="chain band structure over kappa")
    common(p)
    p.add_argument("--kappa-grid", default="-0.5,0.5,101")
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("scatter", help="solve one scattering point")
    common(p)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--method", choices=("fourier", "dtn"), default="fourier")
    p.add_argument("--M", type=int, help="truncation half-width for dtn")
    p.add_argument("--order", type=int, default=0,
                   help="incident order for default unit left incidence")
    p.add_argument("--a-inc", help="JSON list of left incident amplitudes")
    p.add_argument("--b-inc", help="JSON list of right incident amplitudes")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("scan", help="transmission over a grid")
    common(p)
    p.add_argument("--kappa-grid", required=True)
    p.add_argument("--omega-grid", required=True)
    p.add_argument("--order", type=int, default=0)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("guided", help="locate guided modes in a window")
    common(p)
    p.add_argument("--window", required=True,
                   help="kappa_min,kappa_max,omega_min,omega_max")
    p.add_argument("--density", type=int, default=400,
                   help="kappa rows of the crossing search")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_guided)

    for name, fn in (("dispersion", cmd_dispersion), ("anomaly", cmd_anomaly),
                     ("enhance", cmd_enhance)):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--window", required=True)
        p.add_argument("--density", type=int, default=400,
                       help="kappa rows of the crossing search")
        p.add_argument("--mode-index", type=int, default=0)
        if name == "dispersion":
            p.add_argument("--radius", type=float, default=0.004)
        if name == "enhance":
            p.add_argument("--kt-min", type=float, default=1e-4)
            p.add_argument("--kt-max", type=float, default=1e-2)
            p.add_argument("--num", type=int, default=9)
        p.set_defaults(func=fn)

    p = sub.add_parser("bifurcate", help="critical coupling and mode branch")
    common(p)
    p.add_argument("--gamma0-min", type=float, required=True)
    p.add_argument("--gamma0-max", type=float, required=True)
    p.add_argument("--num", type=int, default=8)
    p.set_defaults(func=cmd_bifurcate)

    p = sub.add_parser("evolve", help="time-domain integration")
    common(p)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--mx", type=int, default=60)
    p.add_argument("--record-every", type=int, default=10)
    p.add_argument("--init", choices=("antisymmetric", "symmetric", "file"),
                   default="symmetric")
    p.add_argument("--init-file", help="JSON state for --init file")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("validate", help="cross-oracle and conservation suite")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("LATRES_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RuntimeError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
