"""Anomaly curves, local fits, enhancement law, and the coupling bifurcation."""

import dataclasses
import logging
import re
import warnings

import numpy as np
import pytest

from latres import BlochPoint, StructureParams, guided, resonance
from latres.guided import (EigenvalueTracker, continue_and_fit_dispersion,
                           find_guided_modes)
from latres.scattering import (NonPropagatingIncidenceError, _chain_kernel,
                               solve_scattering)
from latres.structure import ThresholdError, _classify, _thresholds
from latres.resonance import (approx_error_sup, approx_transmission,
                              enhancement_scan, find_bifurcation, fit_anomaly,
                              peak_dip_curves, trace_branch)
from oracles import branch_bracketed, guided_mode_criteria_n2

GAMMA0_STAR = 1.0296335133904082
# an N = 3 structure whose mode pair is born at gamma0* = 0.7208130
N3_BRANCH = StructureParams(N=3, masses=[2.0, 1.0, 1.0],
                            springs=[1.0, 1.0, 1.0], gammas=[0.7, 7.0, 7.0])
# the benchmark's seed-0 branch couplings on fixture 1
BENCH_GAMMAS = (1.0296271473759782, 1.0296319015821522, 1.0296325566015647,
                1.0296332409316922, 1.0296332915931812, 1.029633338618303)

# omega_a and omega_b on fixture 1 at kt = -0.006, -0.002, 0.002, 0.006, as
# a complex secant run to its 60-step cap found them; brentq on the
# determinants of K_t and K_c, and now the zero-crossing solve of
# `guided._crossings`, reproduce them to 1e-14
FROZEN_KT = (-0.006, -0.002, 0.002, 0.006)
FROZEN_OMEGA_A = (0.9810502611590445, 0.97981582358711, 0.9784962326859492,
                  0.9770915808182997)
FROZEN_OMEGA_B = (0.9810587878445012, 0.9798168363818331, 0.97849731300084,
                  0.9771019304784208)


@pytest.fixture(scope="module")
def curves1(fixture1, mode1, fit1):
    kts = np.concatenate([np.linspace(-0.006, -0.001, 5),
                          np.linspace(0.001, 0.006, 5)])
    return peak_dip_curves(fixture1, mode1, fit1, kt_samples=kts)


@pytest.fixture(scope="module")
def anomaly1(fixture1, mode1, fit1, curves1):
    return fit_anomaly(fixture1, mode1, fit1, curves1)


def test_peaks_reach_one_dips_reach_zero(curves1):
    assert np.min(curves1.t_at_peak) >= 1.0 - 1e-6
    assert np.max(curves1.t_at_dip) <= 1e-6


def test_peak_dip_ordering_constant(curves1):
    signs = np.sign(curves1.omega_a - curves1.omega_b)
    assert np.all(signs == signs[0])


def test_curves_collapse_to_mode_frequency(curves1, mode1):
    # both curves extrapolate through (kappa0, omega0): the cubic fits in the
    # anomaly fit share their constant term with omega0 by construction, and
    # the sampled curves approach omega0 as kt -> 0
    i = np.argmin(np.abs(curves1.kt))
    assert abs(curves1.omega_a[i] - mode1.omega0) < 5e-3
    assert abs(curves1.omega_b[i] - mode1.omega0) < 5e-3


def test_anomaly_frozen_coefficients(anomaly1):
    assert anomaly1.peak_curvature == pytest.approx(2.65960376789, rel=1e-4)
    assert anomaly1.dip_curvature == pytest.approx(2.39746039458, rel=1e-4)
    # both curves share the linear detuning coefficient of the dispersion
    assert anomaly1.peak_linear == pytest.approx(anomaly1.slope, abs=1e-6)
    assert anomaly1.dip_linear == pytest.approx(anomaly1.slope, abs=1e-6)
    assert anomaly1.ordering_sign in (-1, 1)


def test_background_energy_balance(anomaly1):
    assert anomaly1.t_bg == pytest.approx(0.2883064, abs=1e-4)
    assert anomaly1.r_bg ** 2 + anomaly1.t_bg ** 2 == pytest.approx(1.0,
                                                                    abs=1e-12)
    assert anomaly1.bg_slope == pytest.approx(0.76995, abs=1e-3)


def _center(mode, fit, kt):
    """Where `peak_dip_curves` looks for both roots at kt."""
    return mode.omega0 - fit.slope * kt - fit.curvature.real * kt ** 2


def _aimed(mode, fit, kappa, omega):
    """mode and fit moved so that the centre at kt = 0 is (kappa, omega)."""
    return (dataclasses.replace(mode, kappa0=kappa, omega0=omega),
            dataclasses.replace(fit, slope=0.0, curvature=0j))


def _counted(monkeypatch, name):
    """The arguments of each call of resonance.<name> from here on."""
    calls, fn = [], getattr(resonance, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(resonance, name, counted)
    return calls


def test_peak_dip_curves_frozen_roots(fixture1, mode1, fit1, monkeypatch):
    # the root search needs no scattering solve: solve_row runs once per kt,
    # for t at the two roots
    rows, points = (_counted(monkeypatch, name)
                    for name in ("solve_row", "solve_scattering"))
    curves = peak_dip_curves(fixture1, mode1, fit1, kt_samples=FROZEN_KT)
    assert np.max(np.abs(curves.omega_a - FROZEN_OMEGA_A)) <= 1e-14
    assert np.max(np.abs(curves.omega_b - FROZEN_OMEGA_B)) <= 1e-14
    assert points == []
    assert [(kappa, list(omegas)) for _, kappa, omegas in rows] == [
        (mode1.kappa0 + kt, [a, b]) for kt, a, b in
        zip(FROZEN_KT, curves.omega_a, curves.omega_b)]


@pytest.mark.parametrize("count", [0, 1, 4, 16])
def test_peak_dip_curves_two_crossing_solves(fixture1, mode1, fit1,
                                             monkeypatch, count):
    # every kt is solved in one stacked call per curve
    calls = _counted(monkeypatch, "_crossings")
    curves = peak_dip_curves(fixture1, mode1, fit1,
                             kt_samples=np.linspace(0.001, 0.006, count))
    assert len(calls) == 2
    assert curves.omega_a.shape == curves.t_at_dip.shape == (count,)


def test_peak_dip_curves_near_the_mode(fixture1, mode1, fit1):
    # as kt -> 0 the two roots meet at omega0; both still sit within the
    # quadratic term of the curve's real part
    kts = (0.0, 1e-9, -1e-7, 1e-6)
    curves = peak_dip_curves(fixture1, mode1, fit1, kt_samples=kts)
    for kt, a, b in zip(kts, curves.omega_a, curves.omega_b):
        center = _center(mode1, fit1, kt)
        for got in (a, b):
            assert abs(got - center) <= 4.0 * abs(fit1.curvature) * kt ** 2 \
                + 1e-15


def test_peak_dip_curves_logs_one_line(fixture1, mode1, fit1, caplog):
    caplog.set_level(logging.DEBUG, logger="latres")
    curves = peak_dip_curves(fixture1, mode1, fit1, kt_samples=FROZEN_KT)
    lines = [r.getMessage() for r in caplog.records if r.name == "latres"]
    assert len(lines) == 1
    head, tail = lines[0].split(" Newton steps, ")
    assert head.startswith("peak/dip curves: 4 kt rows, 4 omega_a and 4 "
                           "omega_b crossings solved, at most ")
    assert int(head.rsplit(" ", 1)[1]) >= 1
    center = _center(mode1, fit1, np.array(FROZEN_KT))
    gap = np.abs(np.stack([curves.omega_a, curves.omega_b]) - center).max()
    assert tail == f"max |root - centre| {gap:.2e}"


def test_window_root_identities():
    # at real (kappa, omega) with order 0 the only propagating order,
    # K_t = K + w w^H / (N s_0), w = gamma * P[:, 0], is Hermitian,
    # t_0 = det K_t / det K and r_0 = g / (N s_0 - g), g = w^H K_t^-1 w
    rng = np.random.default_rng(2011)
    for N in range(1, 9):
        params = StructureParams(
            N=N, masses=rng.uniform(0.5, 2.0, N),
            springs=rng.uniform(0.5, 2.0, N),
            gammas=rng.uniform(0.5, 3.0, N) + 1j * rng.uniform(-1.0, 1.0, N))
        found = 0
        while found < 5:
            kappa, omega = rng.uniform(-0.5, 0.5), rng.uniform(0.0, 8.0)
            phi, theta, prop, thr = _classify(N, kappa, omega)
            if thr.any() or prop.tolist() != [True] + [False] * (N - 1):
                continue
            found += 1
            K, P, _, s, *_ = _chain_kernel(params, kappa, omega, theta)
            w = params.gammas * P[:, 0]
            K_t = K + np.outer(w, w.conj()) / (N * s[0])
            assert (np.max(np.abs(K_t - K_t.conj().T))
                    <= 1e-11 * np.max(np.abs(K_t)))
            sol = solve_scattering(params, BlochPoint(kappa, omega))
            t0, r0 = sol.b_plus[0], sol.a_minus[0]
            assert abs(t0 - np.linalg.det(K_t) / np.linalg.det(K)) <= 1e-13
            g = w.conj() @ np.linalg.solve(K_t, w)
            assert abs(r0 - g / (N * s[0] - g)) <= 1e-13


def test_peak_dip_curves_n3_complex_coupling():
    # the N = 3 complex-coupling standing mode of test_guided
    g1 = 1.1 - 0.4j
    params = StructureParams(N=3, masses=[1.5, 2.0, 2.0],
                             springs=[1.2, 0.7, 1.2],
                             gammas=[0.8 + 0.3j, g1, g1])
    modes = find_guided_modes(params, (-0.05, 0.05, 0.6, 1.35), density=40)
    assert len(modes) == 1
    fit = continue_and_fit_dispersion(params, modes[0])
    curves = peak_dip_curves(params, modes[0], fit, kt_samples=FROZEN_KT)
    want_a = (0.9150630554038091, 0.9153037807217475, 0.9153037807217475,
              0.9150630554038092)
    want_b = (0.9151053758969963, 0.9153084865857709, 0.9153084865857708,
              0.9151053758969963)
    assert np.max(np.abs(curves.omega_a - want_a)) <= 1e-14
    assert np.max(np.abs(curves.omega_b - want_b)) <= 1e-14
    assert np.min(curves.t_at_peak) >= 1.0 - 1e-9
    assert np.max(curves.t_at_dip) <= 1e-9


def test_peak_dip_curves_refuses_two_propagating_orders(fixture1, mode1,
                                                        fit1, monkeypatch):
    # at kappa = 0.3, omega = 4 both orders of fixture 1 propagate; the
    # refusal comes before any crossing solve
    phi, theta, prop, thr = _classify(2, 0.3, 4.0)
    assert prop.all() and not thr.any()
    calls = _counted(monkeypatch, "_crossings")
    with pytest.raises(ValueError, match="only propagating order") as exc:
        peak_dip_curves(fixture1, *_aimed(mode1, fit1, 0.3, 4.0), [0.0])
    assert not isinstance(exc.value, NonPropagatingIncidenceError)
    assert calls == []


@pytest.mark.parametrize("kappa, omega, error", [
    (0.0, 4.0, ThresholdError), (0.5, 0.05, NonPropagatingIncidenceError)])
def test_peak_dip_curves_refuses_centre(fixture1, mode1, fit1, monkeypatch,
                                        kappa, omega, error):
    # a centre on a threshold (chi_0 = -1 at kappa = 0, omega = 4) and one
    # where order 0 decays are refused before any crossing solve
    calls = _counted(monkeypatch, "_crossings")
    with pytest.raises(error):
        peak_dip_curves(fixture1, *_aimed(mode1, fit1, kappa, omega), [0.0])
    assert calls == []


def test_peak_dip_curves_refuses_without_a_crossing(fixture1, mode1, fit1):
    # at kappa = 0.4 order 0 alone propagates between the first two
    # thresholds, 2 -+ 2 cos 0.4 pi, and neither matrix crosses 0 there
    phi, theta, prop, thr = _classify(2, 0.4, 2.0)
    assert prop.tolist() == [True, False] and not thr.any()
    lo, hi = np.sort(_thresholds(2, 0.4))[:2]
    with pytest.raises(RuntimeError, match=re.escape(
            f"omega_a: no zero crossing at kappa=0.4 in the threshold region "
            f"({lo}, {hi})")):
        peak_dip_curves(fixture1, *_aimed(mode1, fit1, 0.4, 2.0), [0.0])


def test_eta_stable_under_one_ulp(fixture1, mode1, fit1, curves1,
                                  anomaly1, monkeypatch):
    pairs = resonance._row_pairs

    def nudged(*args, **kwargs):
        a, b = pairs(*args, **kwargs)
        return a, (np.nextafter(b.real, np.inf)
                   + 1j * np.nextafter(b.imag, np.inf))

    monkeypatch.setattr(resonance, "_row_pairs", nudged)
    moved = fit_anomaly(fixture1, mode1, fit1, curves1)
    assert abs(moved.eta - anomaly1.eta) < 1e-9


def test_fit_anomaly_solves_one_row(fixture1, mode1, fit1, curves1,
                                    monkeypatch):
    calls = []
    pairs = resonance._row_pairs

    def counted(*args, **kwargs):
        calls.append(args)
        return pairs(*args, **kwargs)

    monkeypatch.setattr(resonance, "_row_pairs", counted)
    fit_anomaly(fixture1, mode1, fit1, curves1)
    assert len(calls) == 1


def test_model_background_slope_is_measured_slope(anomaly1):
    # at kt = 0 the model's slope in wt at the mode is t_bg * bg_slope
    d = 1e-7
    slope = (approx_transmission(anomaly1, 0.0, d)
             - approx_transmission(anomaly1, 0.0, -d)) / (2.0 * d)
    assert slope == pytest.approx(anomaly1.t_bg * anomaly1.bg_slope,
                                  rel=1e-6)
    assert anomaly1.eta == anomaly1.bg_slope / anomaly1.r_bg ** 2


def test_fit_anomaly_logs_one_line(fixture1, mode1, fit1, curves1, caplog):
    caplog.set_level(logging.DEBUG, logger="latres")
    a = fit_anomaly(fixture1, mode1, fit1, curves1)
    lines = [r.getMessage() for r in caplog.records if r.name == "latres"]
    residual = (fit1.curvature.real - a.r_bg ** 2 * a.peak_curvature
                - a.t_bg ** 2 * a.dip_curvature)
    assert abs(residual) < 1e-3
    assert lines == [f"anomaly fit: t_bg {a.t_bg:.7g}, bg_slope "
                     f"{a.bg_slope:.6g}, eta {a.eta:.6g}, ordering "
                     f"{a.ordering_sign:+d}, Re(curvature) - r_bg^2 peak - "
                     f"t_bg^2 dip {residual:.2e}"]


def test_approx_transmission_limits(anomaly1):
    # T = 1 on the peak curve and T = 0 on the dip curve
    for kt in (-0.004, -0.001, 0.002, 0.005):
        lin = -anomaly1.slope * kt
        peak = approx_transmission(anomaly1, kt,
                                   lin - anomaly1.peak_curvature * kt ** 2)
        dip = approx_transmission(anomaly1, kt,
                                  lin - anomaly1.dip_curvature * kt ** 2)
        assert abs(peak - 1.0) <= 1e-12
        assert dip <= 1e-12
    # at the mode both quadratics vanish and the model returns t_bg
    assert approx_transmission(anomaly1, 0.0, 0.0) == anomaly1.t_bg
    # a grid across the anomaly: wt runs over +-4 |curvature| kt^2 around
    # the line wt = -slope kt
    kt = np.linspace(-0.006, 0.006, 25)[:, None]
    wt = -anomaly1.slope * kt + np.linspace(-1.0, 1.0, 81) * (
        4.0 * abs(anomaly1.curvature) * kt ** 2)
    T = approx_transmission(anomaly1, kt, wt)
    assert T.shape == (25, 81)
    assert np.all((0.0 <= T) & (T <= 1.0))


def test_model_error_halves_with_window(fixture1, anomaly1):
    e_full = approx_error_sup(fixture1, anomaly1, 0.004)
    e_half = approx_error_sup(fixture1, anomaly1, 0.002)
    ratio = e_half / e_full
    assert 0.35 <= ratio <= 0.65


def test_enhancement_inverse_law_fixture1(fixture1, mode1, fit1):
    kts = np.logspace(-4, -2, 9)
    rows = enhancement_scan(fixture1, mode1, fit1, kts)
    A = np.array([r[2] for r in rows])
    slope = np.polyfit(np.log(kts), np.log(A), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_enhancement_inverse_square_at_critical_coupling(bif_params, bif_mode,
                                                         bif_fit):
    # at the exact critical coupling the quadratic decay coefficient of the
    # dispersion has zero imaginary part (the standing mode decouples from
    # radiation to higher order), so the amplitude at the optimally detuned
    # frequency grows like 1/kt^2 rather than 1/kt
    kts = np.logspace(-3, -2, 5)
    rows = enhancement_scan(bif_params, bif_mode, bif_fit, kts)
    A = np.array([r[2] for r in rows])
    assert np.max(np.abs(A * kts ** 2 - 0.5046)) < 5e-3
    slope = np.polyfit(np.log(kts), np.log(A), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.05)


def test_bifurcation_point(fixture1):
    g_star, om_star = find_bifurcation(fixture1, (0.8, 1.3))
    assert g_star == pytest.approx(GAMMA0_STAR, abs=1e-9)
    assert om_star == pytest.approx(0.9778859327860293, abs=1e-9)


def test_branch_square_root_law(fixture1):
    g_star, _ = find_bifurcation(fixture1, (0.8, 1.3))
    gvals = [g_star - d for d in np.logspace(-7, -4, 6)]
    branch = trace_branch(fixture1, gvals, gamma0_bracket=(0.8, 1.3))
    assert branch.sqrt_slope == pytest.approx(0.5, abs=0.05)
    assert branch.g_curvature_sign == -1
    # branch samples sit below the critical coupling with kappa0 increasing
    # as gamma0 moves away from it
    gs = np.array([s[0] for s in branch.samples])
    ks = np.array([s[1] for s in branch.samples])
    order = np.argsort(g_star - gs)
    assert np.all(np.diff(ks[order]) > 0)


def test_branch_matches_printed_sample(fixture1):
    branch = trace_branch(fixture1, [1.029533513], gamma0_bracket=(0.8, 1.3))
    g0, kap0, om0 = branch.samples[0]
    assert kap0 == pytest.approx(0.003564296929, abs=1e-6)
    assert om0 == pytest.approx(0.9778903229, abs=1e-7)


def test_branch_raises_no_warning(fixture1):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        branch = trace_branch(fixture1, BENCH_GAMMAS,
                              gamma0_bracket=(0.8, 1.3))
    assert len(branch.samples) == len(BENCH_GAMMAS)


def test_branch_solves_n2_criteria(fixture1):
    # the explicit N=2 criteria are an independent oracle for the chain
    # kernel route: both complex residuals vanish at gamma0* and on the branch
    branch = trace_branch(fixture1, BENCH_GAMMAS, gamma0_bracket=(0.8, 1.3))
    points = [(branch.gamma0_star, 0.0, branch.omega0_star)]
    points += list(branch.samples)
    for g0, kap0, om0 in points:
        c1, c2 = guided_mode_criteria_n2(fixture1.replace_gamma(0, g0), kap0,
                                         om0)
        assert abs(c1) <= 1e-9 and abs(c2) <= 1e-9


def test_branch_n3():
    params, bracket = N3_BRANCH, (0.5, 0.95)
    g_star, om_star = find_bifurcation(params, bracket)
    assert g_star == pytest.approx(0.7208130, abs=1e-6)
    assert om_star == pytest.approx(0.9264065, abs=1e-6)
    window = (-0.1, 0.1, om_star - 0.03, om_star + 0.03)
    assert find_guided_modes(params.replace_gamma(0, g_star + 1e-3), window,
                             density=60) == []
    modes = find_guided_modes(params.replace_gamma(0, g_star - 1e-3), window,
                              density=60)
    assert len(modes) == 1
    branch = trace_branch(params, [g_star - 1e-3], gamma0_bracket=bracket)
    _, kap0, om0 = branch.samples[0]
    assert kap0 == pytest.approx(modes[0].kappa0, abs=1e-8)
    assert om0 == pytest.approx(modes[0].omega0, abs=1e-8)
    branch = trace_branch(params, [g_star - d for d in np.logspace(-7, -4, 6)],
                          gamma0_bracket=bracket)
    assert branch.sqrt_slope == pytest.approx(0.5, abs=0.05)
    with pytest.raises(RuntimeError, match="^no branch point for gamma0="):
        trace_branch(params, [g_star + 1e-3], gamma0_bracket=bracket)


def test_branch_logs_certificates(fixture1, caplog):
    caplog.set_level(logging.DEBUG, logger="latres")
    branch = trace_branch(fixture1, BENCH_GAMMAS[:2],
                          gamma0_bracket=(0.8, 1.3))
    lines = [r.getMessage() for r in caplog.records if r.name == "latres"]
    assert len(lines) == 1
    assert lines[0].startswith(
        f"bifurcation branch: gamma0* {branch.gamma0_star:.15g}, omega0* "
        f"{branch.omega0_star:.15g}, |Im omega_gm(0)| ")
    # Im c2 at gamma0* is roundoff, and the secant takes a few gamma0 steps
    # after its first two; each sample's gap |kappa_hat - kappa0| lies well
    # inside the circle
    im_c2, secant, samples = re.search(
        r", Im c2 (\S+), d Im\(curvature\)/d gamma0 \S+, prefactor A \S+, "
        r"(\d+) gamma0 secant steps, \d+ points solved, at most \d+ Newton "
        r"steps, samples \(gamma0, kappa0, \|Im omega_gm\|, h', \|kappa_hat "
        r"- kappa0\|\) \[(.*)\]$", lines[0]).groups()
    assert abs(float(im_c2)) <= 1e-12 and 1 <= int(secant) <= 10
    gaps = [float(s.split(", ")[-1]) for s in samples[1:-1].split("); (")]
    assert len(gaps) == 2 and max(gaps) <= 1e-6
    for g0, kap0, _ in branch.samples:
        assert f"({g0:.15g}, {kap0:.15g}, " in lines[0]


def test_branch_prefactor(fixture1, caplog):
    # the square-root law with its predicted prefactor, A = 0.3563984 from
    # the gamma0 secant's slope and c4 at gamma0* (0.35642086 from a wider
    # secant): A's own error, about 7e-5, dominates the gap this close to
    # gamma0*
    caplog.set_level(logging.DEBUG, logger="latres")
    dist = np.logspace(-7, -5, 5)
    branch = trace_branch(fixture1, GAMMA0_STAR - dist,
                          gamma0_bracket=(0.8, 1.3))
    A = float(re.search(r", prefactor A (\S+),",
                        caplog.records[-1].getMessage()).group(1))
    g_star = branch.gamma0_star
    for g0, kap0, _ in branch.samples:
        assert abs(kap0 / (A * np.sqrt(g_star - g0)) - 1.0) <= 2e-4


@pytest.mark.parametrize("which", ["bench", "bench seed 2", "criterion 04",
                                   "README grid", "n3 near", "n3 log-spaced"])
def test_branch_matches_bracketed_oracle(fixture1, which):
    # the circle step against the bracket and secant on h / kappa in kappa^2
    # (`oracles.branch_bracketed`): kappa0 agrees to a few eps / |h'| where
    # h' is small (h carries roundoff of about 1e-16), omega0 to that times
    # |d omega_gm / d kappa| < 1, plus 1e-12.  On the bench's seed-2 set h
    # is at roundoff at both solves of one gamma0, where a plain secant
    # step put kappa0 2.9e-9 off
    g_star = find_bifurcation(fixture1, (0.8, 1.3))[0]
    g3 = find_bifurcation(N3_BRANCH, (0.5, 0.95))[0]
    seed2 = GAMMA0_STAR - 10.0 ** np.random.default_rng([2, 2]).uniform(
        -7.0, -4.0, 6)
    params, gammas, bracket = {
        "bench": (fixture1, BENCH_GAMMAS, (0.8, 1.3)),
        "bench seed 2": (fixture1, sorted(seed2), (0.8, 1.3)),
        "criterion 04": (fixture1, [g_star - d for d in np.logspace(
            -7, -4, 6)] + [1.029533513], (0.8, 1.3)),
        "README grid": (fixture1, np.linspace(1.0, 1.029, 8), None),
        "n3 near": (N3_BRANCH, [g3 - 1e-3], (0.5, 0.95)),
        "n3 log-spaced": (N3_BRANCH, [g3 - d for d in np.logspace(-7, -4, 6)],
                          (0.5, 0.95))}[which]
    branch = trace_branch(params, gammas, gamma0_bracket=bracket)
    samples, h_prime = branch_bracketed(params, gammas, bracket or (
        min(gammas) - 0.5, max(gammas) + 0.5))
    for (g0, kap0, om0), (g_ref, kap_ref, om_ref), hp in zip(
            branch.samples, samples, h_prime):
        gate = max(1e-12, 2e-15 / abs(hp))
        assert g0 == g_ref
        assert abs(kap0 - kap_ref) <= gate
        assert abs(om0 - om_ref) <= 1e-12 + gate


def test_each_kappa_solved_once(fixture1, n3_params, monkeypatch):
    # within one mode search no kappa is solved twice: the bracket ends,
    # kappa = 0 and each root's point are read back from the solves already
    # made (the first window's +-kappa candidates share no kappa; in the
    # second a candidate lies at kappa = 0, where the standing mode is);
    # neither the searches nor the branch make a tracker solve
    solved, tracker = [], []
    omega_gm = guided._omega_gm

    def recording(params, kappa, omega_seed, vref, gammas=None):
        solved.extend(kappa)
        return omega_gm(params, kappa, omega_seed, vref, gammas)

    monkeypatch.setattr(guided, "_omega_gm", recording)
    monkeypatch.setattr(EigenvalueTracker, "solve_omega",
                        lambda *args: tracker.append(args))
    for params, window, density in (
            (fixture1, (-0.5, 0.5, 0.7, 1.25), 60),
            (n3_params, (-0.05, 0.05, 1.1, 1.3), 41)):
        solved.clear()
        modes = find_guided_modes(params, window, density=density)
        assert modes and len(solved) > 0
        assert len(set(solved)) == len(solved)
    assert [m.kappa0 for m in modes] == [0.0] and 0.0 in solved
    trace_branch(fixture1, BENCH_GAMMAS[:3], gamma0_bracket=(0.8, 1.3))
    assert tracker == []


def test_omega_gm_per_point_gammas_equal_own_solves(fixture1):
    # stacks with per-point couplings, kappa in {-delta, 0, delta} at two
    # gamma0 without a reference, and kappa in {1e-6, 1e-3} at every bench
    # gamma0 from gamma0*'s kappa = 0 point: each point ends where its own
    # solve on its structure does, in as many steps
    _, (om0, slope0, vec0), *_ = resonance._critical_coupling(fixture1,
                                                              (0.8, 1.3))
    d, n = 1e-6, len(BENCH_GAMMAS)
    stacks = [(np.tile([-d, 0.0, d], 2), np.repeat([1.05, 1.051], 3), None),
              (np.repeat([1e-6, 1e-3], n), np.tile(BENCH_GAMMAS, 2),
               np.repeat(vec0[None], 2 * n, axis=0))]
    for kap, g0, vref in stacks:
        gammas = np.tile(fixture1.gammas, (len(kap), 1))
        gammas[:, 0] = g0
        seed = om0 + slope0 * kap
        om, slope, vec, steps = guided._omega_gm(fixture1, kap, seed, vref,
                                                 gammas)
        for j in range(len(kap)):
            one = guided._omega_gm(fixture1.replace_gamma(0, g0[j]),
                                   kap[j:j + 1], seed[j:j + 1],
                                   None if vref is None else vref[j:j + 1])
            assert abs(one[0][0] - om[j]) <= 1e-14
            assert abs(one[1][0] - slope[j]) <= 1e-14
            assert abs(abs(one[2][0].conj() @ vec[j]) - 1.0) <= 1e-12
            assert one[3][0] == steps[j]


def test_branch_refuses_wrong_side(fixture1, monkeypatch):
    # gamma0 above gamma0* is refused before any branch solve
    def solve(*args, **kwargs):
        raise AssertionError("a branch solve ran")

    g_star, _ = find_bifurcation(fixture1, (0.8, 1.3))
    monkeypatch.setattr(guided, "_omega_gm", solve)
    monkeypatch.setattr(resonance, "_critical_coupling",
                        lambda params, bracket: (
                            g_star, None, -1.0,
                            np.zeros(guided.TAYLOR_POINTS, dtype=complex), 0,
                            0, 0))
    with pytest.raises(RuntimeError, match=re.escape(
            f"no branch point for gamma0=1.03: the branch lies on the other "
            f"side of gamma0*={g_star}")):
        trace_branch(fixture1, [1.02, 1.03], gamma0_bracket=(0.8, 1.3))


def test_branch_refuses_circle_without_root(fixture1, monkeypatch):
    # where the circle holds no root of h the gamma0 is refused; with the
    # two outer circles emptied the message names the first outwards
    circle_root = guided._circle_root

    def lose_outer(c):
        t, *rest = circle_root(c)
        t[1:] = np.nan
        return (t, *rest)

    monkeypatch.setattr(guided, "_circle_root", lose_outer)
    with pytest.raises(RuntimeError, match=re.escape(
            "no branch point for gamma0=1.029533513: ")):
        trace_branch(fixture1, [1.0294, 1.029533513, GAMMA0_STAR - 1e-7],
                     gamma0_bracket=(0.8, 1.3))
