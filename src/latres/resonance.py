"""Transmission anomalies: peak/dip curves, local fits, enhancement, bifurcation.

Near a guided mode the transmission swings between exactly 0 and 1 along two
real-analytic frequency curves omega_a(kappa) (peak) and omega_b(kappa) (dip)
that emanate from (kappa0, omega0), where eigenvalues of two Hermitian
matrices built from the chain kernel cross zero (`guided._crossings`, see
`peak_dip_curves`).  Their quadratic expansions, together with the complex
dispersion curve and a smooth background, reproduce the full anomaly through
a closed-form approximation.  The chain amplitude at the optimally detuned
frequency scales like |Im omega_gm(kappa0 + kt)|^(-1/2): it diverges like
1/kt when Im(curvature) != 0, and like 1/kt^2 at the critical coupling,
where Im(curvature) = 0 and the decay is quartic in kt.  That coupling and
the mode branch born there are traced on the chain kernel K for any N.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .structure import (BlochPoint, StructureParams, ThresholdError, _classify,
                        _thresholds)
from .scattering import (IncidentField, NonPropagatingIncidenceError,
                         _fourier, solve_row, solve_scattering)
from .guided import (ConvergenceError, DispersionFit, GuidedMode,
                     _circle_finish, _crossings, _taylor)

# approx_error_sup: kt samples, omega samples; the half-width scale of the
# model-versus-direct window
ERROR_SUP_KT = 6
ERROR_SUP_OMEGA = 25
WINDOW_SCALE = 8.0
# critical-coupling secant: second point, stop on its next step, step
# limit
GAMMA_STEP = 1e-3
GAMMA_TOL = 1e-9
GAMMA_STEPS = 30
# the bound on the branch's secant error |h''| |dk dk2| / (2 |h'|), the
# truncation error its circle step leaves, not kappa0's accuracy: h carries
# roundoff of a few 1e-16, and |h'(kappa0)| ~ 4 |Im c2| at kappa = 0 falls
# like gamma0* - gamma0.  Against a 30-digit root kappa0 was 1.5e-10 off on
# fixture 1 at gamma0* - 1e-7 and 6.4e-11 at 3e-7, and 1.6e-8 on an N = 3
# structure at 1e-7, where h' is 1.8e-8.
BRANCH_XTOL = 1e-10

log = logging.getLogger("latres")


def _row_pairs(params, kappa, omegas):
    """Order 0's (a_minus, b_plus) over real omegas at one kappa.

    One row solve; a refused point raises the single-point solver's error.
    """
    row = solve_row(params, kappa, omegas, strict=True)
    return row.a_minus[:, 0], row.b_plus[:, 0]


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

    With order 0 the only propagating order, K_t = K + w w^H / (N s_0),
    w = gamma * P[:, 0], is `_chain_kernel`'s K_H.  By the matrix
    determinant lemma and Sherman-Morrison, t_0 = det K_t / det K and
    r_0 = g / (N s_0 - g) with g = w^H K_t^-1 w, so T = 0 where K_t is
    singular, and T = 1 where det [[K_t, w], [w^H, 0]] = -det K_t g =
    -||w||^2 det K_c vanishes, K_c = Q^H K_t Q with Q an orthonormal basis
    of w's complement.  Both are zero crossings of eigenvalues that rise
    with slope at least 1, solved for every kt at once by `_crossings`: one
    call on K_t for omega_b, one with Q for omega_a.  Each kt's row is the
    threshold region that holds its centre, omega0 - slope kt -
    Re(curvature) kt^2, and takes the crossing nearest that centre.  A
    centre on a threshold or where order 0 is not the only propagating
    order, and a region without a crossing, are refused.  A DEBUG line on
    the `latres` logger gives the kt rows, the crossings solved for each
    curve, the most Newton steps and the largest |root - centre|.
    """
    if kt_samples is None:
        kt_samples = np.concatenate([np.linspace(-0.006, -0.00075, 8),
                                     np.linspace(0.00075, 0.006, 8)])
    kt = np.asarray(kt_samples, dtype=float)
    N, kappa = params.N, mode.kappa0 + kt
    centre = mode.omega0 - fit.slope * kt - fit.curvature.real * kt ** 2
    _, _, prop, thr = _classify(N, kappa, centre)
    bad = thr.any(axis=-1) | ~prop[:, 0] | (prop.sum(axis=-1) > 1)
    if bad.any():
        i = int(np.argmax(bad))
        at = f"(kappa={kappa[i]}, omega={centre[i]})"
        if thr[i].any():
            raise ThresholdError(f"harmonic on a threshold curve at {at}")
        error = ValueError if prop[i, 0] else NonPropagatingIncidenceError
        raise error(f"T = 1 and T = 0 need order 0 to be the only "
                    f"propagating order; orders {np.flatnonzero(prop[i])} "
                    f"propagate at {at}")
    t = _thresholds(N, kappa)
    lo = np.where(t < centre[:, None], t, -np.inf).max(axis=1, keepdims=True)
    hi = np.where(t > centre[:, None], t, np.inf).min(axis=1, keepdims=True)
    w = params.gammas * _fourier.__wrapped__(N, kappa)[0][..., 0]
    roots, counts, steps = {}, [], 0
    for which, Q in (("a", np.linalg.svd(w[..., None])[0][..., 1:]),
                     ("b", None)):
        _, cross = _crossings(params, kappa, lo, hi, Q)
        gap = np.abs(cross["omega"] - centre[cross["row"]])
        order = np.lexsort((gap, cross["row"]))
        rows, first = np.unique(cross["row"][order], return_index=True)
        missing = np.setdiff1d(np.arange(len(kt)), rows)
        if missing.size:
            i = missing[0]
            raise RuntimeError(f"omega_{which}: no zero crossing at "
                               f"kappa={kappa[i]} in the threshold region "
                               f"({lo[i, 0]}, {hi[i, 0]})")
        roots[which] = cross["omega"][order[first]]
        counts.append(len(gap))
        steps = max(steps, cross["steps"].max(initial=0))
    log.debug("peak/dip curves: %d kt rows, %d omega_a and %d omega_b "
              "crossings solved, at most %d Newton steps, max |root - centre| "
              "%.2e", len(kt), *counts, steps, np.abs(np.stack(
                  [roots["a"], roots["b"]]) - centre).max(initial=0.0))
    t_ab = np.reshape([np.abs(_row_pairs(params, k, [wa, wb])[1])
                       for k, wa, wb in zip(kappa, roots["a"], roots["b"])],
                      (-1, 2))
    return PeakDipCurves(kappa0=mode.kappa0, omega0=mode.omega0, kt=kt,
                         omega_a=roots["a"], omega_b=roots["b"],
                         t_at_peak=t_ab[:, 0], t_at_dip=t_ab[:, 1])


@dataclass(frozen=True)
class AnomalyFit:
    """All coefficients of the local transmission model around a mode.

    slope/curvature come from the dispersion fit; peak_curvature and
    dip_curvature from cubic fits of the peak/dip curves, the zero crossings
    of K_c = Q^H K_t Q and K_t (see `peak_dip_curves`; their shared linear
    coefficient must equal -slope); t_bg is the background transmission at
    kappa0 extrapolated to omega0 with r_bg = sqrt(1 - t_bg^2); bg_slope is
    the background's relative linear frequency coefficient, d log|T| / d wt;
    eta is the background parameter of `approx_transmission`,
    bg_slope / r_bg^2 (0 where r_bg = 0), at which the model's own relative
    slope at kt = 0, wt = 0, r_bg^2 eta, is bg_slope.
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
    """Extract the anomaly coefficients around the mode.

    The peak and dip curvatures are cubic fits of curves (solved here when
    not given); the background comes from one row solve at kappa0.  A DEBUG
    line on the `latres` logger gives t_bg, bg_slope, eta, the ordering and
    the residual of the identity Re(curvature) = r_bg^2 peak_curvature +
    t_bg^2 dip_curvature.
    """
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

    # the model's relative slope at kt = 0, w = 0 is r_bg^2 eta
    eta = bg_slope / r_bg ** 2 if r_bg != 0 else 0.0
    log.debug("anomaly fit: t_bg %.7g, bg_slope %.6g, eta %.6g, ordering "
              "%+d, Re(curvature) - r_bg^2 peak - t_bg^2 dip %.2e", t_bg,
              bg_slope, eta, ordering, fit.curvature.real - r_bg ** 2
              * peak_curv - t_bg ** 2 * dip_curv)

    return AnomalyFit(
        kappa0=mode.kappa0, omega0=mode.omega0, slope=fit.slope,
        curvature=fit.curvature, peak_curvature=float(peak_curv),
        dip_curvature=float(dip_curv), peak_linear=float(peak_lin),
        dip_linear=float(dip_lin), t_bg=t_bg, r_bg=r_bg, bg_slope=bg_slope,
        eta=eta, ordering_sign=ordering)


def approx_transmission(fit: AnomalyFit, kt, wt):
    """Closed-form local transmission model: the energy-balanced two-sided form.

    T^2 = t_bg^2 dip^2 (1 + eta*wt)^2
          / (r_bg^2 peak^2 + t_bg^2 dip^2 (1 + eta*wt)^2),
    with dip = wt + slope*kt + dip_curvature*kt^2 and peak the same with
    peak_curvature; T = t_bg where both vanish.
    """
    kt = np.asarray(kt, dtype=float)
    wt = np.asarray(wt, dtype=float)
    num_lin = wt + fit.slope * kt
    num = (fit.t_bg ** 2 * np.abs(num_lin + fit.dip_curvature * kt ** 2) ** 2
           * np.abs(1.0 + fit.eta * wt) ** 2)
    den = (fit.r_bg ** 2 * np.abs(num_lin + fit.peak_curvature * kt ** 2) ** 2
           + num)
    out = np.where(den == 0.0, fit.t_bg, np.sqrt(np.divide(
        num, np.where(den == 0, 1.0, den))))
    return out if out.ndim else float(out)


def model_vs_direct(params: StructureParams, fit: AnomalyFit, kts,
                    n_omega: int) -> np.ndarray:
    """Rows (kappa, omega, T_direct, T_approx) across the anomaly window.

    Each kt gets one row solve at kappa0 + kt over n_omega frequencies
    omega0 + wt, wt within WINDOW_SCALE |curvature| kt^2 of the line
    wt = -slope kt, and the closed-form model at the same points.
    """
    rows = []
    for kt in kts:
        half = WINDOW_SCALE * abs(fit.curvature) * kt ** 2
        ws = -fit.slope * kt + np.linspace(-half, half, n_omega)
        row = solve_row(params, fit.kappa0 + kt, fit.omega0 + ws, strict=True)
        rows.append(np.column_stack([np.full(n_omega, fit.kappa0 + kt),
                                     row.omega, row.T,
                                     approx_transmission(fit, kt, ws)]))
    return np.concatenate(rows)


def approx_error_sup(params: StructureParams, fit: AnomalyFit,
                     kt_max: float) -> float:
    """Sup of |T_model - T_direct| over the anomaly window of half-width
    kt_max."""
    rows = model_vs_direct(params, fit, np.linspace(-kt_max, kt_max,
                                                    ERROR_SUP_KT),
                           ERROR_SUP_OMEGA)
    return float(np.abs(rows[:, 3] - rows[:, 2]).max())


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
    """gamma0*, omega_gm(0)'s point there, d h'(0)/d gamma0, the circle's
    Taylor coefficients c_k of omega_gm(kappa) at gamma0*, the secant's
    steps, the points solved and the most Newton steps.

    gamma0* is the root in gamma0 = gammas[0] of h'(0) = 2 Im c2 (c2 =
    -curvature at kappa = 0), by a secant from the bracket midpoint and a
    point GAMMA_STEP above, stopped where its next step is at most GAMMA_TOL
    (2e-13 on fixture 1).  Each gamma0 is one `_taylor` stack of kappa = 0
    and its circle, seeded from the last gamma0's kappa = 0 point (omega_gm,
    slope, eigenvector), the first two in one from the crossing of K_H's
    eigenvalues at kappa = 0, omega in [0.05, 3.95], with the smallest q.
    """
    lo, hi = gamma0_bracket
    _, cross = _crossings(params.replace_gamma(0, (lo + hi) / 2), [0.0],
                          0.05, 3.95)
    q = np.where(cross["nprop"] > 0, cross["q"], np.inf)
    if not np.isfinite(q).any():
        raise RuntimeError("no crossing of K_H with a propagating order at "
                           "kappa = 0 to start the critical coupling from")
    point = (complex(cross["omega"][np.argmin(q)]), 0.0, None)
    solves, most, row = 0, 0, None

    def h_prime(g0):  # at each gamma0 in g0; the last one's point and circle
        nonlocal point, row, solves, most
        gam = np.tile(params.gammas, (len(g0), 1))
        gam[:, 0] = g0
        om, slope, vec = (None if x is None else np.array([x] * len(g0))
                          for x in point)
        c, om, slope, vec, steps = _taylor(params, np.zeros(len(g0)), om,
                                           slope, vec, gam, offsets=[0.0])
        point, row = (om[-1, 0], slope[-1, 0], vec[-1, 0]), c[-1]
        solves, most = solves + steps.size, max(most, steps.max())
        return 2.0 * c[:, 2].imag

    g_old, g = (lo + hi) / 2, (lo + hi) / 2 + GAMMA_STEP
    f_old, f = h_prime([g_old, g])
    for n in range(GAMMA_STEPS + 1):
        slope = (f - f_old) / (g - g_old)
        if abs(f / slope) <= GAMMA_TOL:
            break
        g_old, f_old = g, f
        g -= f / slope
        f, = h_prime([g])
    else:
        raise ConvergenceError(f"critical-coupling secant did not converge "
                               f"in {GAMMA_STEPS} steps")
    if not (lo <= g <= hi):
        raise RuntimeError(
            f"bifurcation root gamma0={g} escaped bracket {gamma0_bracket}")
    return g, point, slope, row, n, solves, most


def find_bifurcation(params: StructureParams, gamma0_bracket):
    """(gamma0*, omega0*): the coupling gammas[0] where the mode pair is born.

    For any N, gamma0* is the root of Im(curvature) of omega_gm(0) on the
    chain kernel K, and omega0* = Re omega_gm(0) there.
    """
    g_star, point, *_ = _critical_coupling(params, gamma0_bracket)
    return g_star, point[0].real


def trace_branch(params: StructureParams, gamma0_values,
                 gamma0_bracket=None) -> BifurcationBranch:
    """Follow the mode pair from the bifurcation point away in gammas[0].

    The branch lies on the side g_curvature_sign = -sign(d Im(curvature) /
    d gamma0) of gamma0*; a gamma0 on the other side raises RuntimeError
    before any branch solve.  kappa0 > 0 is the root of h = Im d omega_gm /
    d kappa where Im omega_gm peaks.  At gamma0* h = 2 Im c2 kappa + 4 Im c4
    kappa^3 + ... (omega_gm is even there), so kappa0 ~ A sqrt|gamma0* -
    gamma0| with A = sqrt(|d h'(0) / d gamma0| / (4 |Im c4|)), from the
    gamma0 secant's slope and its last circle.  Every gamma0 takes one
    `_taylor` circle around that prediction, in one stack seeded from
    gamma0*'s polynomial sum c_k kappa^k and eigenvector, and
    `guided._circle_finish` to BRANCH_XTOL; where that finds no root,
    RuntimeError names the first such gamma0 outwards from gamma0*.  The
    square-root law is fitted on a log-log scale.  kappa0's error, h's
    roundoff over |h'(kappa0)| ~ 4 |Im c2|, grows as gamma0 -> gamma0*.  A
    DEBUG line on the `latres` logger gives gamma0*, omega0*, |Im
    omega_gm(0)| and Im c2 there, d Im(curvature) / d gamma0, A, the gamma0
    secant's steps, the points solved, the most Newton steps and each
    (gamma0, kappa0, |Im omega_gm(kappa0)|, h'(kappa0), |kappa_hat -
    kappa0|).
    """
    if gamma0_bracket is None:
        gamma0_bracket = (min(gamma0_values) - 0.5, max(gamma0_values) + 0.5)
    g_star, star, h_prime_slope, c, secant, solves, most = (
        _critical_coupling(params, gamma0_bracket))
    sign = int(np.sign(h_prime_slope))  # d Im(curvature) = -d h'(0) / 2
    outwards = sorted(gamma0_values, reverse=(sign < 0))
    for g0 in outwards:
        if np.sign(g0 - g_star) != sign:
            raise RuntimeError(f"no branch point for gamma0={g0}: the branch "
                               f"lies on the other side of gamma0*={g_star}")
    n = len(outwards)
    gam = np.tile(params.gammas, (n, 1))
    gam[:, 0] = outwards
    dist = np.abs(g_star - np.array(outwards, dtype=float))
    A = np.sqrt(abs(h_prime_slope) / (4.0 * abs(c[4].imag)))
    centre, vec = A * np.sqrt(dist), np.tile(star[2], (n, 1))
    P = np.polynomial.polynomial
    try:
        circle, *_, steps = _taylor(params, centre, P.polyval(centre, c),
                                    P.polyval(centre, P.polyder(c)), vec, gam)
    except (ConvergenceError, ThresholdError) as err:
        circle, *_, steps = err.solved
    kl, wl, h1, gap, rounds = _circle_finish(params, centre, circle, vec,
                                             BRANCH_XTOL, gam)
    for s in [steps] + rounds:
        solves, most = solves + s.size, max(most, s.max(initial=0))
    if np.isnan(kl).any():
        i = int(np.argmax(np.isnan(kl)))
        raise RuntimeError(f"no branch point for gamma0={outwards[i]}: h has "
                           f"no root where Im omega_gm peaks on the circle "
                           f"around kappa={centre[i]}, or its step failed")
    samples = tuple((float(g0), float(k), float(w.real))
                    for g0, k, w in zip(outwards, kl, wl))
    slope = (float(np.polyfit(np.log(dist), np.log(kl), 1)[0]) if n >= 2
             else float("nan"))
    log.debug("bifurcation branch: gamma0* %.15g, omega0* %.15g, "
              "|Im omega_gm(0)| %.2g, Im c2 %.2e, d Im(curvature)/d gamma0 "
              "%.6g, prefactor A %.8g, %d gamma0 secant steps, %d points "
              "solved, at most %d Newton steps, samples (gamma0, kappa0, "
              "|Im omega_gm|, h', |kappa_hat - kappa0|) [%s]", g_star,
              star[0].real, abs(star[0].imag), c[2].imag,
              -h_prime_slope / 2.0, A, secant, solves, most,
              "; ".join("(%.15g, %.15g, %.2g, %.6g, %.2g)" % s for s in zip(
                  outwards, kl, np.abs(wl.imag), h1, gap)))
    return BifurcationBranch(gamma0_star=g_star, omega0_star=star[0].real,
                             samples=samples, sqrt_slope=slope,
                             g_curvature_sign=sign)
