"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

Each test prints a single `criterion NN: PASS/FAIL` line (visible with
pytest -s or in captured output on failure) and then asserts.  Two criteria
are expected to fail against their published targets; the measured values are
printed so the discrepancy is inspectable:

* criterion 01 -- the located mode sits at kappa0 = 0.0616737, which agrees
  with a 40-digit mpmath root of the 1D equation h(kappa) = Im d omega_gm /
  d kappa = 0, with K written out in mpmath and omega_gm the zero of det K:
  kappa0 = 0.061673664378923471537460100518, omega0 = 47/48 to 40 digits.
  It is 7.4e-5 from the printed target 0.0616, outside the 5e-5 gate (the
  frequency passes).  The printed omega0 = 0.9792 is the rounded value of
  0.9791667; rounded the same way, kappa0 would print as 0.0617.  Whether the published kappa0 was truncated,
  computed less precisely or belongs to a slightly different model is open.
* criterion 08 -- the background amplitude at the mode is t0 = 0.2883, not
  0.3143.  Three routes agree on the measured value: the direct solve
  |T(kappa0, omega0)| = 0.2883064, the quadratic background fit 0.2883064,
  and the identity Re(curvature) = r0^2*peak_curv + t0^2*dip_curv, whose
  residual is 8e-5 with t0 = 0.2883 and 4.2e-3 with the target.  Every
  other sub-check of the criterion passes.  This shows the program is
  self-consistent, not which definition of t0 the published value belongs
  to.

Criterion 10 checks the enhancement law: the optimally detuned chain
amplitude scales like |Im omega_gm(kappa0 + kt)|^(-1/2).  On real kappa
Im omega_gm <= 0, so Im omega_gm ~ -Im(curvature)*kt^2 and the amplitude
grows like 1/kt wherever Im(curvature) != 0 (the traveling mode).  At the
critical coupling the embedded pair merges at kappa = 0, Im(curvature) = 0,
the decay is quartic and the amplitude grows like 1/kt^2.  Each slope is
asserted together with its premise on Im(curvature).
"""

import time

import numpy as np
import pytest

from latres.structure import (BlochPoint, StructureParams, ThresholdError,
                              classify_harmonics, propagating_count)
from latres.scattering import IncidentField, solve_scattering
from latres.dtn import cross_validate, default_truncation
from latres.guided import find_guided_modes, sigma_min
from latres.resonance import (approx_error_sup, enhancement_scan,
                              find_bifurcation, fit_anomaly, peak_dip_curves,
                              trace_branch)
from latres.timedomain import (LatticeState, antisymmetrize, evolve,
                               gaussian_pulse)
from latres.discrete import (identity_residuals, product_rule_residuals,
                             telescoping_residual)


def _report(num, ok, detail, budget, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status}  ({detail})  [{elapsed:.1f}s]")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_guided_mode_pair(fixture1):
    t0 = time.time()
    modes = find_guided_modes(fixture1, (-0.5, 0.5, 0.7, 1.25), density=400)
    # keep the embedded modes (one propagating order); below the light cone
    # the search also picks up the robust dispersion branch
    modes = [m for m in modes if m.region_size == 1]
    ok = len(modes) == 1
    detail = f"{len(modes)} embedded mode(s)"
    if ok:
        m = modes[0]
        dk = abs(m.kappa0 - 0.0616)
        dw = abs(m.omega0 - 0.9792)
        ok = dk <= 5e-5 and dw <= 5e-5
        detail = (f"kappa0={m.kappa0:.7f} |dk|={dk:.2e}, "
                  f"omega0={m.omega0:.7f} |dw|={dw:.2e}")
    _report(1, ok, detail, 30, time.time() - t0)


def test_criterion_02_nonexistence(uniform_coupling):
    t0 = time.time()
    kappas = np.linspace(-0.5, 0.5, 200)
    omegas = np.linspace(0.05, 7.95, 200)
    worst = np.inf
    for kap in kappas:
        for om in omegas:
            if propagating_count(uniform_coupling, kap, om) != 1:
                continue
            try:
                worst = min(worst, sigma_min(uniform_coupling,
                                             BlochPoint(kap, om)))
            except ThresholdError:
                continue
    ok = worst > 1e-3
    _report(2, ok, f"min sigma over single-propagating region = {worst:.4f}",
            60, time.time() - t0)


def test_criterion_03_n3_antisymmetric_mode(n3_params):
    t0 = time.time()
    modes = find_guided_modes(n3_params, (-0.05, 0.05, 1.1, 1.3), density=80)
    ok = len(modes) == 1
    detail = f"{len(modes)} mode(s)"
    if ok:
        m = modes[0]
        c = m.c / np.max(np.abs(m.c))
        ok = (m.kappa0 == 0.0 and abs(m.omega0 - 1.191465768) <= 1e-6
              and abs(c[0]) <= 1e-10 and abs(c[1] + c[2]) <= 1e-8)
        detail = (f"kappa0={m.kappa0}, omega0={m.omega0:.9f}, "
                  f"|c0|={abs(c[0]):.1e}, |c1+c2|={abs(c[1] + c[2]):.1e}")
    _report(3, ok, detail, 30, time.time() - t0)


def test_criterion_04_bifurcation(fixture1):
    t0 = time.time()
    g_star, om_star = find_bifurcation(fixture1, (0.8, 1.3))
    gvals = [g_star - d for d in np.logspace(-7, -4, 6)] + [1.029533513]
    branch = trace_branch(fixture1, gvals, gamma0_bracket=(0.8, 1.3))
    sample = {round(s[0], 12): s for s in branch.samples}[
        round(1.029533513, 12)]
    ok = (abs(g_star - 1.029633513) <= 1e-6
          and abs(om_star - 0.9778859328) <= 1e-6
          and abs(sample[1] - 0.003564296929) <= 1e-6
          and abs(sample[2] - 0.9778903229) <= 1e-7
          and abs(branch.sqrt_slope - 0.5) <= 0.05)
    _report(4, ok,
            f"gamma0*={g_star:.9f}, omega0*={om_star:.10f}, "
            f"kappa0={sample[1]:.9f}, sqrt slope={branch.sqrt_slope:.4f}",
            60, time.time() - t0)


def test_criterion_05_conservation(fixture1):
    t0 = time.time()
    rng = np.random.default_rng(20260823)
    worst = 0.0
    done = 0
    while done < 10000:
        kap = rng.uniform(-0.5, 0.5)
        om = rng.uniform(0.05, 7.95)
        try:
            hs = classify_harmonics(fixture1, BlochPoint(kap, om))
        except ThresholdError:
            continue
        if not hs.propagating or hs.has_threshold:
            continue
        a = np.zeros(2, dtype=complex)
        b = np.zeros(2, dtype=complex)
        for l in hs.propagating:
            a[l] = rng.standard_normal() + 1j * rng.standard_normal()
            b[l] = rng.standard_normal() + 1j * rng.standard_normal()
        sol = solve_scattering(fixture1, BlochPoint(kap, om),
                               IncidentField(a, b))
        worst = max(worst, sol.energy_residual / sol.incident_flux)
        done += 1
    ok = worst <= 1e-12
    _report(5, ok, f"max relative energy residual = {worst:.2e} over 10^4",
            60, time.time() - t0)


def test_criterion_06_cross_oracle(fixture1):
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    done = 0
    while done < 100:
        kap = rng.uniform(-0.5, 0.5)
        om = rng.uniform(0.1, 7.9)
        try:
            hs = classify_harmonics(fixture1, BlochPoint(kap, om))
        except ThresholdError:
            continue
        if 0 not in hs.propagating or hs.has_threshold:
            continue
        taus = [h.theta.imag for h in hs.harmonics if h.theta.imag > 0]
        if taus and min(taus) < 0.02:
            continue  # decay-rule M would exceed the width cap
        M = default_truncation(hs)
        worst = max(worst, cross_validate(fixture1, BlochPoint(kap, om), M=M))
        done += 1
    ladder = [cross_validate(fixture1, BlochPoint(0.2, 1.5), M=M)
              for M in (5, 10, 25)]
    # the boundary map is exact per harmonic, so the ladder sits at the
    # roundoff floor; accept strict decrease or floor-level agreement
    floor_ok = all(d <= 1e-12 for d in ladder)
    mono_ok = ladder[0] >= ladder[1] >= ladder[2]
    ok = worst <= 1e-8 and (floor_ok or mono_ok)
    _report(6, ok,
            f"max discrepancy = {worst:.2e} over 100 pts; "
            f"ladder = {[f'{d:.1e}' for d in ladder]}",
            120, time.time() - t0)


def test_criterion_07_exact_peaks_dips(fixture1, mode1, fit1):
    t0 = time.time()
    kts = np.concatenate([np.linspace(-0.005, -0.001, 5),
                          np.linspace(0.001, 0.005, 5)])
    curves = peak_dip_curves(fixture1, mode1, fit1, kt_samples=kts)
    signs = np.sign(curves.omega_a - curves.omega_b)
    # extrapolate the cubic fits back to kt=0
    pa = np.polyfit(np.concatenate([[0.0], curves.kt]),
                    np.concatenate([[mode1.omega0], curves.omega_a]), 3)
    pb = np.polyfit(np.concatenate([[0.0], curves.kt]),
                    np.concatenate([[mode1.omega0], curves.omega_b]), 3)
    at0 = abs(np.polyval(pa, 0.0) - np.polyval(pb, 0.0))
    ok = (np.min(curves.t_at_peak) >= 1 - 1e-6
          and np.max(curves.t_at_dip) <= 1e-6
          and at0 <= 1e-8
          and np.all(signs == signs[0]))
    _report(7, ok,
            f"min T(peak)={np.min(curves.t_at_peak):.9f}, "
            f"max T(dip)={np.max(curves.t_at_dip):.1e}, "
            f"|omega_a(k0)-omega_b(k0)|={at0:.1e}, ordering={signs[0]:+.0f}",
            60, time.time() - t0)


def test_criterion_08_anomaly_fit(fixture1, mode1, fit1):
    t0 = time.time()
    afit = fit_anomaly(fixture1, mode1, fit1)
    # reflection background measured independently of the transmission one
    from latres.resonance import _row_pairs
    wt = np.linspace(-0.004, 0.004, 33)
    wt = wt[np.abs(wt) > 1e-6]
    Rs = np.abs(_row_pairs(fixture1, mode1.kappa0, mode1.omega0 + wt)[0])
    r0 = float(np.polyfit(wt, Rs, 2)[2])
    t_ok = abs(afit.t_bg - 0.3142988) <= 1e-2 * 0.3142988
    r_ok = abs(r0 - 0.94932) <= 1e-2 * 0.94932
    sum_ok = abs(r0 ** 2 + afit.t_bg ** 2 - 1.0) <= 1e-4
    e_full = approx_error_sup(fixture1, afit, 0.004)
    e_half = approx_error_sup(fixture1, afit, 0.002)
    halving_ok = 0.35 <= e_half / e_full <= 0.65
    ok = t_ok and r_ok and sum_ok and halving_ok
    _report(8, ok,
            f"t0={afit.t_bg:.7f} (target 0.3142988), r0={r0:.5f} "
            f"(target 0.94932), r0^2+t0^2-1={r0**2 + afit.t_bg**2 - 1:.1e}, "
            f"error ratio={e_half / e_full:.3f}",
            120, time.time() - t0)


def test_criterion_09_dispersion_coefficients(fit1, bif_fit):
    t0 = time.time()
    max_im = max(max(om.imag for _, om in fit.samples)
                 for fit in (fit1, bif_fit))
    ok = (abs(bif_fit.slope) <= 1e-8
          and abs(fit1.slope) > 1e-3
          and max_im <= 1e-12)
    _report(9, ok,
            f"standing-mode linear coef = {bif_fit.slope:.1e}, "
            f"traveling-mode linear coef = {fit1.slope:.4f}, "
            f"max Im omega = {max_im:.1e}",
            60, time.time() - t0)


def test_criterion_10_enhancement(fixture1, mode1, fit1,
                                  bif_params, bif_mode, bif_fit):
    # the amplitude scales like |Im omega_gm(kappa0 + kt)|^(-1/2): 1/kt where
    # Im(curvature) != 0 (quadratic decay), 1/kt^2 at the critical coupling,
    # where Im(curvature) = 0 and the decay is quartic
    t0 = time.time()
    kts = np.logspace(-4, -2, 9)
    slopes = []
    for params, mode, fit in ((fixture1, mode1, fit1),
                              (bif_params, bif_mode, bif_fit)):
        rows = enhancement_scan(params, mode, fit, kts)
        A = np.array([r[2] for r in rows])
        slopes.append(float(np.polyfit(np.log(kts), np.log(A), 1)[0]))
    ok = (fit1.curvature.imag > 1e-3 and abs(slopes[0] + 1.0) <= 0.05
          and abs(bif_fit.curvature.imag) <= 1e-6
          and abs(slopes[1] + 2.0) <= 0.05)
    _report(10, ok,
            f"log-log slopes: traveling mode = {slopes[0]:.4f} "
            f"(target -1 +- 0.05, Im curvature = {fit1.curvature.imag:.1e}), "
            f"critical coupling = {slopes[1]:.4f} "
            f"(target -2 +- 0.05, Im curvature = {bif_fit.curvature.imag:.1e})",
            60, time.time() - t0)


def test_criterion_11_time_domain(fixture1):
    t0 = time.time()
    sym = gaussian_pulse(fixture1, mx=40, kappa=0.1, center=-8.0, width=4.0,
                         symmetry="symmetric")
    nrm = sym.norm()
    sym = LatticeState(z=sym.z / nrm, u=sym.u / nrm, kappa=sym.kappa)
    res_sym = evolve(fixture1, sym, dt=0.002, steps=1000, record_every=100)
    anti = antisymmetrize(gaussian_pulse(fixture1, mx=40, kappa=0.1,
                                         center=-8.0, width=4.0,
                                         symmetry="antisymmetric"))
    res_anti = evolve(fixture1, anti, dt=0.01, steps=400, record_every=20)
    max_z = float(np.sqrt(np.max(res_anti.waveguide_energy)))
    wg = float(np.max(res_sym.waveguide_energy))
    ok = (res_sym.norm_drift <= 1e-8 and max_z <= 1e-12 and wg > 1e-6)
    _report(11, ok,
            f"norm drift = {res_sym.norm_drift:.2e}, "
            f"antisymmetric max|z| = {max_z:.1e}, "
            f"symmetric chain energy = {wg:.2e}",
            60, time.time() - t0)


def test_criterion_12_discrete_identities():
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        w = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        masses = rng.uniform(0.5, 2.0, 7)
        springs = rng.uniform(0.5, 2.0, 7)
        res = identity_residuals(v, w, masses, springs)
        worst = max(worst, max(res.values()))
        worst = max(worst, max(product_rule_residuals(v[0], w[0]).values()))
        worst = max(worst, telescoping_residual(v[0]))
    ok = worst <= 1e-12
    _report(12, ok, f"max identity residual = {worst:.2e} over 100 fields",
            10, time.time() - t0)
