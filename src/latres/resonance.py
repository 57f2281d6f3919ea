"""Transmission anomalies: peak/dip curves, local fits, enhancement, bifurcation.

Near a guided mode the transmission swings between exactly 0 and 1 along two
real-analytic frequency curves omega_a(kappa) (peak) and omega_b(kappa) (dip)
that emanate from (kappa0, omega0).  Their quadratic expansions, together
with the complex dispersion curve and a smooth background, reproduce the full
anomaly through a closed-form approximation.  The chain amplitude at the
optimally detuned frequency scales like |Im omega_gm(kappa0 + kt)|^(-1/2):
it diverges like 1/kt when Im(curvature) != 0, and like 1/kt^2 at the
critical coupling, where Im(curvature) = 0 and the decay is quartic in kt.
That coupling, and the mode branch born there, are traced on the chain
kernel K for any N.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .structure import BlochPoint, StructureParams
from .scattering import IncidentField, solve_row, solve_scattering
from .guided import (EPS, ConvergenceError, DispersionFit, GuidedMode,
                     _continued_h, _h_slope, _sigma_min_row)

# step limit of the peak/dip secant, and the |f| it must reach by then
SECANT_STEPS = 60
SECANT_F_BOUND = 1e-8
# peak/dip root search: modulus-grid points, zoom levels, secant stop |f|
ROOT_GRID_PTS = 81
ROOT_ZOOMS = 6
ROOT_F_TOL = 1e-13
# half-width of the peak/dip search window in units of |curvature| kt^2
PEAK_DIP_WINDOW_SCALE = 10.0
# approx_error_sup: kt samples, omega samples, window half-width scale
ERROR_SUP_KT = 6
ERROR_SUP_OMEGA = 25
ERROR_SUP_WINDOW_SCALE = 8.0
# critical-coupling secant: second point, stop step, step limit; the
# largest branch kappa0
GAMMA_STEP = 1e-3
GAMMA_TOL = 1e-9
GAMMA_STEPS = 30
BRANCH_KAPPA_MAX = 0.2

log = logging.getLogger("latres")


def _outgoing_pair(params, kappa, omega, order=0):
    """Complex reflection and transmission coefficients (a_minus, b_plus)."""
    sol = solve_scattering(params, BlochPoint(kappa, omega),
                           IncidentField.unit_left(params.N, order))
    return sol.a_minus[order], sol.b_plus[order]


def _row_pairs(params, kappa, omegas, order=0):
    """(a_minus, b_plus) on one order over real omegas at one kappa.

    One row solve; a refused point raises the single-point solver's error.
    """
    row = solve_row(params, kappa, omegas, order, strict=True)
    return row.a_minus[:, order], row.b_plus[:, order]


def _window_root(params, kappa, center, halfw, which, order=0):
    """Zero of the reflection ('a') or transmission ('b') coefficient in omega.

    The resonance is much narrower than the search window (its width scales
    with Im(curvature) * kt^2), so a naive Newton from the window center jumps
    to remote roots.  Instead: iteratively zoom a coarse modulus grid onto the
    minimum, then polish with an unclamped complex-secant Newton and demand
    the root lands back on the real axis inside the window.  The secant
    stops when |f| < ROOT_F_TOL or its step is at roundoff,
    |step| <= 4 eps |omega| (f cannot get much below its roundoff, 1e-12 to
    2e-9 on fixture 1); if SECANT_STEPS steps pass with |f| still above
    SECANT_F_BOUND it raises ConvergenceError.  A DEBUG line on the `latres`
    logger gives the root, its secant step count and the last |f|.
    """
    idx = 0 if which == "a" else 1
    c, h = center, halfw
    for _ in range(ROOT_ZOOMS):
        ws = np.linspace(c - h, c + h, ROOT_GRID_PTS)
        vals = np.abs(_row_pairs(params, kappa, ws, order)[idx])
        i = int(np.argmin(vals))
        c, h = ws[i], 2.2 * (ws[1] - ws[0])
        if vals[i] < 1e-3:
            break
    om, steps = complex(c), 0
    for _ in range(SECANT_STEPS):
        f = _outgoing_pair(params, kappa, om, order)[idx]
        if abs(f) < ROOT_F_TOL:
            break
        hs = 1e-10 * (1.0 + abs(om))
        f2 = _outgoing_pair(params, kappa, om + hs, order)[idx]
        step = f / ((f2 - f) / hs)
        om = om - step
        steps += 1
        if abs(step) <= 4.0 * EPS * abs(om):
            break
    else:
        if abs(f) > SECANT_F_BOUND:
            raise ConvergenceError(
                f"secant for omega_{which} at kappa={kappa} stopped after "
                f"{SECANT_STEPS} steps with |f| = {abs(f):.2e}")
    if log.isEnabledFor(logging.DEBUG):
        log.debug("window root omega_%s at kappa %.15g: omega %.15g, %d "
                  "secant steps, last |f| %.2e", which, kappa, om.real, steps,
                  abs(f))
    if abs(om.imag) > 1e-8:
        raise RuntimeError(f"root left the real axis: Im omega = {om.imag}")
    if abs(om.real - center) > 4.0 * halfw:
        raise RuntimeError("root escaped the search window")
    return float(om.real)


@dataclass(frozen=True)
class PeakDipCurves:
    """Sampled peak (T=1) and dip (T=0) frequency curves around a mode."""

    kappa0: float
    omega0: float
    kt: np.ndarray
    omega_a: np.ndarray
    omega_b: np.ndarray
    t_at_peak: np.ndarray
    t_at_dip: np.ndarray


def peak_dip_curves(params: StructureParams, mode: GuidedMode,
                    fit: DispersionFit, kt_samples=None) -> PeakDipCurves:
    """Root-find omega_a (reflection zero) and omega_b (transmission zero).

    The search window for each kt is centered on the continued dispersion
    curve's real part, half-width PEAK_DIP_WINDOW_SCALE |curvature| kt^2.
    """
    if kt_samples is None:
        kt_samples = np.concatenate([np.linspace(-0.006, -0.00075, 8),
                                     np.linspace(0.00075, 0.006, 8)])
    kt_samples = np.asarray(kt_samples, dtype=float)
    oa, ob, tpk, tdp = [], [], [], []
    for kt in kt_samples:
        center = mode.omega0 - fit.slope * kt - fit.curvature.real * kt ** 2
        halfw = max(PEAK_DIP_WINDOW_SCALE * abs(fit.curvature) * kt ** 2,
                    1e-9)
        wa = _window_root(params, mode.kappa0 + kt, center, halfw, "a")
        wb = _window_root(params, mode.kappa0 + kt, center, halfw, "b")
        oa.append(wa)
        ob.append(wb)
        tpk.append(abs(_outgoing_pair(params, mode.kappa0 + kt, wa)[1]))
        tdp.append(abs(_outgoing_pair(params, mode.kappa0 + kt, wb)[1]))
    return PeakDipCurves(kappa0=mode.kappa0, omega0=mode.omega0,
                         kt=kt_samples, omega_a=np.array(oa),
                         omega_b=np.array(ob), t_at_peak=np.array(tpk),
                         t_at_dip=np.array(tdp))


@dataclass(frozen=True)
class AnomalyFit:
    """All coefficients of the local transmission model around a mode.

    slope/curvature come from the dispersion fit; peak_curvature and
    dip_curvature from cubic fits of the peak/dip curves (their shared linear
    coefficient must equal -slope); t_bg is the background transmission at
    kappa0 extrapolated to omega0 with r_bg = sqrt(1 - t_bg^2); bg_slope is
    the linear frequency coefficient of the background; eta is the background
    parameter of the two-sided model fitted globally over the window.
    """

    kappa0: float
    omega0: float
    slope: float
    curvature: complex
    peak_curvature: float
    dip_curvature: float
    peak_linear: float
    dip_linear: float
    t_bg: float
    r_bg: float
    bg_slope: float
    eta: float
    ordering_sign: int


def fit_anomaly(params: StructureParams, mode: GuidedMode, fit: DispersionFit,
                curves: PeakDipCurves = None) -> AnomalyFit:
    """Extract the anomaly coefficients from direct solves around the mode."""
    from scipy.optimize import least_squares

    if curves is None:
        curves = peak_dip_curves(params, mode, fit)
    kk = np.concatenate([[0.0], curves.kt])
    aa = np.concatenate([[mode.omega0], curves.omega_a])
    bb = np.concatenate([[mode.omega0], curves.omega_b])
    pa = np.polyfit(kk, aa, 3)
    pb = np.polyfit(kk, bb, 3)
    peak_curv, dip_curv = -pa[1], -pb[1]
    peak_lin, dip_lin = -pa[2], -pb[2]
    signs = np.sign(curves.omega_a - curves.omega_b)
    ordering = int(signs[0]) if np.all(signs == signs[0]) else 0

    # background transmission at kappa0: quadratic fit in the detuning,
    # excluding the resonance point itself
    wt = np.linspace(-0.004, 0.004, 33)
    wt = wt[np.abs(wt) > 1e-6]
    Ts = np.abs(_row_pairs(params, mode.kappa0, mode.omega0 + wt)[1])
    p = np.polyfit(wt, Ts, 2)
    t_bg = float(p[2])
    r_bg = float(np.sqrt(max(0.0, 1.0 - t_bg ** 2)))
    bg_slope = float(p[1] / t_bg) if t_bg != 0 else 0.0

    # two-sided model fitted over the whole anomaly window
    data = []
    for kt in (-0.006, -0.004, -0.002, 0.002, 0.004, 0.006):
        ws = -fit.slope * kt + np.linspace(-12 * abs(fit.curvature) * kt ** 2,
                                           12 * abs(fit.curvature) * kt ** 2, 40)
        Ts = np.abs(_row_pairs(params, mode.kappa0 + kt, mode.omega0 + ws)[1])
        data.append(np.column_stack([np.full(len(ws), kt), ws, Ts]))
    data = np.concatenate(data)

    kt, w, T = data.T
    lin = w + fit.slope * kt

    def model(p_):
        """The model's |T| on the data and its Jacobian in p_.

        With q = num / den = |T|^2 and den = rest + num,
        dq = (rest dnum - num drest) / den^2 and d|T| = dq / (2 |T|).
        """
        t0, eta, r2_, t2_ = p_
        dip, peak, bg = lin + t2_ * kt ** 2, lin + r2_ * kt ** 2, 1 + eta * w
        num = t0 ** 2 * dip ** 2 * bg ** 2
        rest = (1 - t0 ** 2) * peak ** 2
        den = rest + num
        T_ = np.sqrt(num / den)
        jac = np.column_stack([
            2 * t0 * dip ** 2 * bg ** 2 * peak ** 2,
            rest * t0 ** 2 * dip ** 2 * 2 * bg * w,
            -num * (1 - t0 ** 2) * 2 * peak * kt ** 2,
            rest * t0 ** 2 * bg ** 2 * 2 * dip * kt ** 2,
        ]) / (2 * T_ * den ** 2)[:, None]
        return T_, jac

    res = least_squares(
        lambda p_: model(p_)[0] - T, [max(t_bg, 0.1), bg_slope,
                                       peak_curv.real, dip_curv.real],
        jac=lambda p_: model(p_)[1], method="lm", xtol=1e-15, ftol=1e-15,
        gtol=1e-15)
    # the fit stops once the cost no longer resolves a step, which on
    # fixture 1 leaves eta 3e-8 short (the Jacobian's condition number is
    # about 2500 there); plain Gauss-Newton steps drive the gradient itself
    # to roundoff
    p_ = res.x
    for _ in range(10):
        T_, jac = model(p_)
        step = np.linalg.lstsq(jac, T - T_, rcond=None)[0]
        p_ = p_ + step
        if np.max(np.abs(step)) <= 4.0 * EPS * np.max(np.abs(p_)):
            break
    eta = float(p_[1])

    return AnomalyFit(
        kappa0=mode.kappa0, omega0=mode.omega0, slope=fit.slope,
        curvature=fit.curvature, peak_curvature=float(peak_curv),
        dip_curvature=float(dip_curv), peak_linear=float(peak_lin),
        dip_linear=float(dip_lin), t_bg=t_bg, r_bg=r_bg, bg_slope=bg_slope,
        eta=eta, ordering_sign=ordering)


def approx_transmission(fit: AnomalyFit, kt, wt, variant: str = "one_sided"):
    """Closed-form local transmission model.

    one_sided: T = t_bg |wt + slope*kt + dip_curvature*kt^2|
                   / |wt + slope*kt + curvature*kt^2| * |1 + bg_slope*wt|.
    two_sided: the energy-balanced form with both peak and dip quadratics and
    the eta background.
    """
    kt = np.asarray(kt, dtype=float)
    wt = np.asarray(wt, dtype=float)
    num_lin = wt + fit.slope * kt
    if variant == "one_sided":
        num = np.abs(num_lin + fit.dip_curvature * kt ** 2)
        den = np.abs(num_lin + fit.curvature * kt ** 2)
        out = np.where(den == 0.0, fit.t_bg,
                       fit.t_bg * np.divide(num, np.where(den == 0, 1.0, den))
                       * np.abs(1.0 + fit.bg_slope * wt))
        return out if out.ndim else float(out)
    if variant == "two_sided":
        num = (fit.t_bg ** 2 * np.abs(num_lin + fit.dip_curvature * kt ** 2) ** 2
               * np.abs(1.0 + fit.eta * wt) ** 2)
        den = (fit.r_bg ** 2 * np.abs(num_lin + fit.peak_curvature * kt ** 2) ** 2
               + num)
        out = np.where(den == 0.0, fit.t_bg, np.sqrt(np.divide(
            num, np.where(den == 0, 1.0, den))))
        return out if out.ndim else float(out)
    raise ValueError(f"unknown variant {variant!r}")


def approx_error_sup(params: StructureParams, fit: AnomalyFit,
                     kt_max: float, variant: str = "two_sided") -> float:
    """Sup of |T_model - T_direct| over the anomaly window of half-width kt_max."""
    worst = 0.0
    for kt in np.linspace(-kt_max, kt_max, ERROR_SUP_KT):
        if abs(kt) < 0.05 * kt_max:
            continue
        half = ERROR_SUP_WINDOW_SCALE * abs(fit.curvature) * kt ** 2
        ws = -fit.slope * kt + np.linspace(-half, half, ERROR_SUP_OMEGA)
        t_direct = np.abs(_row_pairs(params, fit.kappa0 + kt,
                                     fit.omega0 + ws)[1])
        t_model = approx_transmission(fit, kt, ws, variant)
        worst = max(worst, float(np.max(np.abs(t_model - t_direct))))
    return worst


def enhancement_scan(params: StructureParams, mode: GuidedMode,
                     fit: DispersionFit, kt_list):
    """Chain amplitude at the optimally detuned frequency for each kt.

    Returns rows (kt, omega_opt, amplitude) with amplitude the root sum of
    squares of the chain coefficients under unit left incidence.  The
    amplitude scales like |Im omega_gm(kappa0 + kt)|^(-1/2): like 1/kt when
    Im(fit.curvature) != 0, and like 1/kt^2 at the critical coupling, where
    Im(fit.curvature) = 0 and Im omega_gm decays quartically.
    """
    rows = []
    for kt in kt_list:
        om_opt = mode.omega0 - fit.slope * kt - fit.curvature.real * kt ** 2
        # direct solve even when K is badly conditioned: at the optimal
        # detuning the system sits close to the dispersion curve by design,
        # and the least-squares fallback would suppress the resonant response
        sol = solve_scattering(params, BlochPoint(mode.kappa0 + kt, om_opt),
                               IncidentField.unit_left(params.N),
                               cond_limit=np.inf)
        rows.append((float(kt), float(om_opt),
                     float(np.sqrt(np.sum(np.abs(sol.c) ** 2)))))
    return rows


@dataclass(frozen=True)
class BifurcationBranch:
    """The guided-mode branch near the critical coupling gamma0*."""

    gamma0_star: float
    omega0_star: float
    samples: tuple          # (gamma0, kappa0 >= 0, omega0)
    sqrt_slope: float       # log-log slope of kappa0 vs (gamma0* - gamma0)
    g_curvature_sign: int


def _critical_coupling(params, gamma0_bracket):
    """gamma0*, omega_gm(0)'s point there, d h'(0)/d gamma0, solve count.

    gamma0* is the root of Im(curvature) = -h'(0)/2 in gamma0 = gammas[0],
    found by a secant from the bracket midpoint (omega starts at sigma_min's
    minimum at kappa = 0) and a point GAMMA_STEP above; each gamma0
    continues omega_gm(0) from the last.
    """
    lo, hi = gamma0_bracket
    omegas = np.linspace(0.05, 3.95, 160)
    sigma = _sigma_min_row(params.replace_gamma(0, (lo + hi) / 2), 0.0, omegas)
    point, solves = (0.0, complex(omegas[np.argmin(sigma)]), 0.0, None), 0

    def h_prime(g0):
        nonlocal point, solves
        h, solved = _continued_h(params.replace_gamma(0, g0), point)
        h(0.0)
        f = _h_slope(h, 0.0)
        point, solves = solved[0], solves + len(solved)
        return f

    g_old, g = (lo + hi) / 2, (lo + hi) / 2 + GAMMA_STEP
    f_old, f = h_prime(g_old), h_prime(g)
    for _ in range(GAMMA_STEPS):
        slope = (f - f_old) / (g - g_old)
        g_old, f_old = g, f
        g -= f / slope
        f = h_prime(g)
        if abs(g - g_old) <= GAMMA_TOL:
            break
    else:
        raise ConvergenceError(f"critical-coupling secant did not converge "
                               f"in {GAMMA_STEPS} steps")
    if not (lo <= g <= hi):
        raise RuntimeError(
            f"bifurcation root gamma0={g} escaped bracket {gamma0_bracket}")
    return g, point, slope, solves


def find_bifurcation(params: StructureParams, gamma0_bracket):
    """(gamma0*, omega0*): the coupling gammas[0] where the mode pair is born.

    For any N, gamma0* is the root of Im(curvature) of omega_gm(0) on the
    chain kernel K, and omega0* = Re omega_gm(0) there.
    """
    g_star, point, _, _ = _critical_coupling(params, gamma0_bracket)
    return g_star, point[1].real


def trace_branch(params: StructureParams, gamma0_values,
                 gamma0_bracket=None) -> BifurcationBranch:
    """Follow the mode pair from the bifurcation point away in gammas[0].

    The branch lies on the side g_curvature_sign = -sign(d Im(curvature) /
    d gamma0) of gamma0*; a gamma0 on the other side, or with no root below
    BRANCH_KAPPA_MAX, raises RuntimeError.  Outwards from gamma0*, each
    kappa0 is the root on kappa > 0 of h = Im d omega_gm / d kappa (h(0) = 0),
    continued from the last, bracketed by (1e-6, 1e-3) with its top doubled
    until h changes sign, then around the square-root law; the law is fitted
    on a log-log scale.  A DEBUG line on the `latres` logger gives gamma0*,
    omega0*, |Im omega_gm(0)|, d Im(curvature) / d gamma0, the tracker solve
    count and each (gamma0, kappa0, |Im omega_gm(kappa0)|, h'(kappa0)).
    """
    from scipy.optimize import brentq

    if gamma0_bracket is None:
        gmin = min(gamma0_values)
        gamma0_bracket = (gmin - 0.5, max(gamma0_values) + 0.5)
    g_star, star, h_prime_slope, solves = _critical_coupling(params,
                                                             gamma0_bracket)
    sign = int(np.sign(h_prime_slope))  # d Im(curvature) = -d h'(0) / 2
    point, samples, certificates = star, [], []
    for g0 in sorted(gamma0_values, reverse=(sign < 0)):
        if np.sign(g0 - g_star) != sign:
            raise RuntimeError(f"no branch point for gamma0={g0}: the branch "
                               f"lies on the other side of gamma0*={g_star}")
        h, solved = _continued_h(params.replace_gamma(0, g0), point)
        lo, hi = 1e-6, 1e-3
        if samples:  # within 2x of the square-root law from the last one
            g1, k1, _ = samples[-1]
            guess = k1 * np.sqrt((g0 - g_star) / (g1 - g_star))
            lo, hi = guess / 2.0, guess * 2.0
        h_lo, h_hi = h(lo), h(hi)
        while h_lo * h_hi > 0.0:
            hi *= 2.0
            if hi > BRANCH_KAPPA_MAX:
                raise RuntimeError(f"no branch point for gamma0={g0} below "
                                   f"kappa={BRANCH_KAPPA_MAX}")
            h_hi = h(hi)
        kap0 = brentq(h, lo, hi, xtol=1e-13)
        h(kap0)
        point = solved[-1]
        samples.append((float(g0), float(kap0), float(point[1].real)))
        if log.isEnabledFor(logging.DEBUG):  # h' costs two more solves
            certificates.append((g0, kap0, abs(point[1].imag),
                                 _h_slope(h, kap0)))
        solves += len(solved)
    gs = np.array([s[0] for s in samples])
    ks = np.array([s[1] for s in samples])
    dist = np.abs(g_star - gs)
    if len(samples) >= 2:
        slope = float(np.polyfit(np.log(dist), np.log(ks), 1)[0])
    else:
        slope = float("nan")
    log.debug("bifurcation branch: gamma0* %.15g, omega0* %.15g, "
              "|Im omega_gm(0)| %.2g, d Im(curvature)/d gamma0 %.6g, %d "
              "tracker solves, samples (gamma0, kappa0, |Im omega_gm|, h') "
              "[%s]", g_star, star[1].real, abs(star[1].imag),
              -h_prime_slope / 2.0, solves, "; ".join(
                  "(%.15g, %.15g, %.2g, %.6g)" % c for c in certificates))
    return BifurcationBranch(gamma0_star=g_star, omega0_star=star[1].real,
                             samples=tuple(samples), sqrt_slope=slope,
                             g_curvature_sign=sign)
