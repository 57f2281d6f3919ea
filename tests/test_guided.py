"""Guided-mode location, explicit N=2 criteria, and dispersion continuation."""

import logging
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.optimize import brentq

import latres.scattering
from latres import guided
from latres.structure import (BlochPoint, StructureParams, _classify,
                              _classify_off_threshold, _thresholds,
                              propagating_count, waveguide_bands)
from latres.scattering import _chain_kernel, _fourier, scan_transmission
from latres.guided import (PROBE_OFFSET, EigenvalueTracker, _crossings,
                           continue_and_fit_dispersion, find_guided_modes,
                           sigma_min)
from oracles import guided_mode_criteria_n2

MODE1_KAPPA = 0.06167366437892
MODE1_OMEGA = 0.97916666666667


def test_mode1_location(mode1):
    assert mode1.kappa0 == pytest.approx(MODE1_KAPPA, abs=1e-10)
    assert mode1.omega0 == pytest.approx(MODE1_OMEGA, abs=1e-10)
    assert mode1.sigma < 1e-12
    assert mode1.region_size == 1


def test_sigma_min_small_only_at_mode(fixture1, mode1):
    at_mode = sigma_min(fixture1, BlochPoint(mode1.kappa0, mode1.omega0))
    nearby = sigma_min(fixture1, BlochPoint(mode1.kappa0 + 0.01,
                                            mode1.omega0))
    assert at_mode < 1e-12
    assert nearby > 1e-4


def test_criteria_vanish_at_mode(fixture1, mode1):
    c1, c2 = guided_mode_criteria_n2(fixture1, mode1.kappa0, mode1.omega0)
    assert abs(c1) < 1e-10
    assert abs(c2) < 1e-10
    c1, c2 = guided_mode_criteria_n2(fixture1, mode1.kappa0 + 0.02,
                                     mode1.omega0)
    assert abs(c1) + abs(c2) > 1e-3


def test_criteria_require_n2(n3_params):
    with pytest.raises(ValueError):
        guided_mode_criteria_n2(n3_params, 0.0, 1.0)


def test_no_mode_for_uniform_coupling(uniform_coupling):
    modes = find_guided_modes(uniform_coupling, (0.0, 0.3, 0.7, 1.2),
                              density=60)
    assert modes == []


def test_mode_null_vector_solves_homogeneous(fixture1, mode1):
    # the chain part of the null vector is nonzero (the mode lives in the
    # waveguide) and the reduced system maps the vector to ~0
    assert np.linalg.norm(mode1.c) > 0.1 * np.linalg.norm(mode1.null_vector)
    assert mode1.sigma < 1e-12


def test_n3_antisymmetric_mode(n3_params):
    modes = find_guided_modes(n3_params, (-0.05, 0.05, 1.1, 1.3), density=80)
    assert len(modes) == 1
    mode = modes[0]
    assert mode.kappa0 == 0.0
    assert mode.omega0 == pytest.approx(1.1914657677046268, abs=1e-9)
    c = mode.c
    c = c / np.max(np.abs(c))
    assert abs(c[0]) <= 1e-10
    assert abs(c[1] + c[2]) <= 1e-8


def test_eigenvalue_zero_at_mode(fixture1, mode1):
    # the tracked eigenvalue is one of the N x N chain kernel's
    tracker = EigenvalueTracker(fixture1)
    assert abs(tracker.value(mode1.kappa0, mode1.omega0)) < 1e-10
    assert tracker.eigenvector().shape == (fixture1.N,)


def test_tracker_newton_recovers_mode_frequency(fixture1, mode1):
    tracker = EigenvalueTracker(fixture1)
    tracker.value(mode1.kappa0, mode1.omega0)
    om = tracker.solve_omega(mode1.kappa0, mode1.omega0 + 1e-4)
    assert abs(om - mode1.omega0) < 1e-10


def test_dispersion_fit_frozen_coefficients(fit1):
    assert fit1.slope == pytest.approx(0.32989868701667, rel=1e-8)
    assert fit1.curvature.real == pytest.approx(2.637894301650, rel=1e-6)
    assert fit1.curvature.imag == pytest.approx(0.072210750373, rel=1e-4)
    assert fit1.fit_residual < 1e-10
    assert abs(fit1.slope_imag) < 1e-8


@pytest.mark.parametrize("gammas, window", [
    ([1.0, 7.0], (0.02, 0.11, 0.93, 1.02)),
    ([1.0, 5.0], (0.2, 0.3, 0.9, 1.0))])
def test_dispersion_slope_matches_exact_slope(gammas, window):
    # the fitted slope against -d omega_gm / d kappa = d_kappa / d_omega from
    # the tracker's exact derivatives at (kappa0, omega_gm)
    params = StructureParams(2, [2.0, 1.0], [1.0, 1.0], gammas)
    mode, = find_guided_modes(params, window, density=80)
    tracker = EigenvalueTracker(params)
    tracker.solve_omega(mode.kappa0, mode.omega0)
    exact = tracker.d_kappa / tracker.d_omega
    fit = continue_and_fit_dispersion(params, mode)
    assert fit.slope == pytest.approx(exact.real, rel=1e-11)
    assert abs(fit.slope_imag) < 1e-10


def test_dispersion_stays_in_lower_half_plane(fit1, bif_fit):
    for fit in (fit1, bif_fit):
        assert fit.max_im_omega <= 1e-12
        assert fit.curvature.imag >= 0.0


def test_bifurcation_fixture_dispersion_is_even(bif_fit):
    assert abs(bif_fit.slope) <= 1e-8
    assert bif_fit.curvature.real == pytest.approx(2.766832117691, rel=1e-6)


def test_bifurcation_mode_is_standing(bif_mode):
    assert bif_mode.kappa0 == 0.0
    assert bif_mode.omega0 == pytest.approx(0.9778859327860294, abs=1e-9)


def _row_with_thresholds(params, kappa, omegas):
    """omegas plus the frequencies where some order of the row sits exactly
    on a threshold curve, sorted."""
    cos = np.cos(2 * np.pi * (kappa + np.arange(params.N)) / params.N)
    edges = np.concatenate([4.0 - 2.0 * (1.0 + cos), 4.0 - 2.0 * (cos - 1.0)])
    inside = (edges > omegas[0]) & (edges < omegas[-1])
    return np.sort(np.concatenate([omegas, edges[inside]]))


def test_rows_split_into_chunks_match(fixture1, monkeypatch):
    # a chunk limit far below one row's stack must leave every scan row bit
    # for bit as the unsplit run
    kappas = np.linspace(-0.5, 0.5, 5)
    omegas = _row_with_thresholds(fixture1, 0.0, np.linspace(0.5, 4.5, 61))

    def run():
        rows = scan_transmission(fixture1, kappas, omegas)
        numbers = np.array([r[:5] for r in rows], dtype=float)
        return numbers.tobytes(), [r[5] for r in rows]

    whole = run()
    monkeypatch.setattr(latres.scattering, "STACK_BYTES", 1000)
    assert run() == whole


def test_mode_search_split_into_chunks_match(fixture1, n3_params,
                                             monkeypatch):
    # with a chunk limit of about one point per stack the crossing search
    # returns the same modes, bit for bit: criterion 01's window at the
    # benchmark's density (the embedded pair, the robust branch and two
    # regions on some rows) and the N = 3 standing mode
    def run():
        found = []
        for params, window, density in (
                (fixture1, (-0.5, 0.5, 0.7, 1.25), 60),
                (n3_params, (-0.05, 0.05, 1.1, 1.3), 40)):
            for m in find_guided_modes(params, window, density=density):
                found.append((m.kappa0, m.omega0, m.sigma, m.im_omega,
                              m.min_eigenvalue, m.h_prime,
                              m.null_vector.tobytes()))
        return found

    whole = run()
    monkeypatch.setattr(latres.scattering, "STACK_BYTES", 1000)
    assert run() == whole
    assert len(whole) > 2


def test_mode_search_logs_counts(fixture1, caplog):
    caplog.set_level(logging.DEBUG, logger="latres")
    modes = find_guided_modes(fixture1, (0.02, 0.11, 0.93, 1.02), density=30)
    lines = [r.getMessage() for r in caplog.records if r.name == "latres"]
    assert len(lines) == 1
    assert lines[0].startswith("guided-mode search: 30 kappa rows, 30 regions "
                               "probed, 30 crossings solved, at most ")
    assert " Newton steps, 1 candidates, 0 rejected, 0 merged as " \
        "duplicates, " in lines[0]
    assert lines[0].endswith(f", {len(modes)} modes")
    m = modes[0]
    assert (f"certificates [({m.kappa0:.15g}, {m.omega0:.15g}): "
            f"|Im omega_gm| {m.im_omega:.2g}, min|eig K| "
            f"{m.min_eigenvalue:.2g}, h' {m.h_prime:.6g}, "
            f"sigma_min {m.sigma:.2g}]") in lines[0]


_unit = st.floats(0.5, 2.0)


@st.composite
def _hermitian_cases(draw):
    """A structure with N in 1..8 and complex couplings, a real kappa and
    real omegas at least 1e-6 from every threshold."""
    N = draw(st.integers(1, 8))
    gammas = [complex(draw(st.floats(0.5, 3.0)), draw(st.floats(-1.0, 1.0)))
              for _ in range(N)]
    params = StructureParams(N, draw(st.lists(_unit, min_size=N, max_size=N)),
                             draw(st.lists(_unit, min_size=N, max_size=N)),
                             gammas)
    kappa = draw(st.floats(-0.5, 0.5))
    omegas = np.array(draw(st.lists(st.floats(-0.5, 8.5), min_size=1,
                                    max_size=4)))
    gap = np.abs(omegas[:, None] - _thresholds(N, kappa)).min(axis=-1)
    assume(gap.min() >= 1e-6)
    return params, kappa, omegas


@given(_hermitian_cases())
def test_hermitian_kernel_property(case):
    # K_H = K + sum_{l in P} w_l w_l^H / (N s_l) is Hermitian and
    # dK_H / d omega - I is positive semidefinite at real points; on the
    # whole spectrum at kappa every threshold region holds as many crossings
    # as the inertia of K_H at its ends counts, each a zero of an eigenvalue
    # of K_H
    params, kappa, omegas = case
    _, theta, prop = _classify_off_threshold(params.N, kappa, omegas)
    K_H, P, _, s, dK_H, _ = _chain_kernel(params, kappa, omegas, theta, prop)
    dK_H = dK_H()
    W = params.gammas[:, None] * P * prop[..., None, :]
    scale = np.maximum(1.0, np.abs(K_H).max(axis=(-2, -1)))
    K = _chain_kernel(params, kappa, omegas, theta)[0]
    assert np.all(np.abs(K_H - (W / (params.N * s[..., None, :]))
                         @ W.conj().swapaxes(-1, -2) - K).max(axis=(-2, -1))
                  <= 1e-13 * scale)
    assert np.all(np.abs(K_H - K_H.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
                  <= 1e-13 * scale)
    assert np.all(np.linalg.eigvalsh(dK_H - np.eye(params.N)).min(axis=-1)
                  >= -1e-12 * np.abs(dK_H).max(axis=(-2, -1)))
    assert np.array_equal(prop, _classify(params.N, kappa, omegas)[2])
    assert np.array_equal(W != 0, np.broadcast_to(prop[..., None, :],
                                                  W.shape))

    # the same for Q^H K_H Q, Q spanning the complement of gamma * P[:, 0]
    # (the peak curve's matrix)
    w = params.gammas * _fourier(params.N, kappa)[0][:, 0]
    ends = np.concatenate([[-np.inf], np.sort(_thresholds(params.N, kappa)),
                           [np.inf]])
    for Q in (None, np.linalg.svd(w[:, None])[0][:, 1:]):
        def eigenvalues(x):
            _, theta, prop = _classify_off_threshold(params.N, kappa, x)
            K = _chain_kernel(params, kappa, x, theta, prop)[0]
            return np.linalg.eigvalsh(K if Q is None else Q.conj().T @ K @ Q)

        _, cross = _crossings(params, [kappa], -0.5, 8.5,
                              None if Q is None else Q[None])
        for a, b in zip(ends[:-1], ends[1:]):
            lo, hi = max(a + PROBE_OFFSET, -0.5), min(b - PROBE_OFFSET, 8.5)
            if lo >= hi:
                continue
            neg = [np.sum(eigenvalues(x) < 0.0) for x in (lo, hi)]
            roots = cross["omega"][(cross["omega"] > lo)
                                   & (cross["omega"] < hi)]
            assert len(roots) == neg[0] - neg[1]
            for x in roots:
                lam = eigenvalues(x)
                assert np.abs(lam).min() <= 1e-11 * max(1.0,
                                                        np.abs(lam).max())


def _kernel(params, kappa, omega):
    """_chain_kernel at a point off the thresholds."""
    _, theta, _ = _classify_off_threshold(params.N, kappa, omega)
    return _chain_kernel(params, kappa, omega, theta)


def _differences(f, x, h=1e-5):
    """Fourth-order central difference of f at x from four points."""
    return (8.0 * (f(x + h) - f(x - h)) - (f(x + 2 * h) - f(x - 2 * h))) / (
        12.0 * h)


@pytest.mark.parametrize("complex_gamma", [False, True])
@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_kernel_derivatives_match_differences(N, complex_gamma):
    rng = np.random.default_rng([N, complex_gamma])
    gammas = rng.uniform(0.5, 3.0, N) + 1j * complex_gamma * rng.uniform(
        0.2, 1.0, N)
    params = StructureParams(N=N, masses=rng.uniform(0.5, 2.0, N),
                             springs=rng.uniform(0.5, 2.0, N), gammas=gammas)
    checked = 0
    for kap in (0.13, -0.31):
        for om in (0.9, 1.7, 2.9, 5.3):
            chi = (4.0 - om) / 2.0 - np.cos(2 * np.pi * (kap + np.arange(N))
                                            / N)
            if np.min(np.abs(np.abs(chi) - 1.0)) < 0.05:
                continue  # the differences would straddle a threshold
            for omega in (om, om - 0.01j):
                K_om, K_kap = (d() for d in _kernel(params, kap, omega)[4:])
                want_om = _differences(
                    lambda w: _kernel(params, kap, w)[0], omega)
                want_kap = _differences(
                    lambda k: _kernel(params, k, omega)[0], kap)
                for got, want in ((K_om, want_om), (K_kap, want_kap)):
                    assert (np.max(np.abs(got - want))
                            <= 1e-8 * np.max(np.abs(want)))
                checked += 2
    assert checked >= 8


def test_mode_search_raises_no_warning(fixture1):
    # criterion 01's window at the benchmark's density
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        modes = find_guided_modes(fixture1, (-0.5, 0.5, 0.7, 1.25),
                                  density=60)
    assert [m.region_size for m in modes].count(1) == 1


def test_robust_branch_one_entry_per_row(fixture1):
    # every kappa row that holds a crossing without a propagating order (the
    # robust branch) gives one entry; the +-kappa rows merge
    kappas = np.linspace(-0.5, 0.5, 60)
    _, cross = _crossings(fixture1, kappas, 0.7, 1.25)
    rows = np.abs(kappas[np.unique(cross["row"][cross["nprop"] == 0])])
    robust = [m.kappa0 for m in find_guided_modes(
        fixture1, (-0.5, 0.5, 0.7, 1.25), density=60) if m.region_size == 0]
    assert len(robust) >= 2
    assert np.allclose(sorted(robust), np.unique(rows.round(12)), atol=1e-12)


def test_robust_branch_needs_no_tracker(fixture1, monkeypatch):
    # a candidate without a propagating order is a root of K already (K =
    # K_H there): the tracker runs only while candidates with one are
    # polished, and the robust-branch entries certify Im omega_gm = 0
    polishing, calls = [], []
    polish, solve = guided._polish, EigenvalueTracker.solve_omega

    def polish_(params, kappa, omega, reach):
        polishing.append(propagating_count(params, kappa, omega))
        try:
            return polish(params, kappa, omega, reach)
        finally:
            polishing.pop()

    def solve_(self, kappa, omega_seed):
        calls.append(polishing[-1] if polishing else None)
        return solve(self, kappa, omega_seed)

    monkeypatch.setattr(guided, "_polish", polish_)
    monkeypatch.setattr(EigenvalueTracker, "solve_omega", solve_)
    modes = find_guided_modes(fixture1, (-0.5, 0.5, 0.7, 1.25), density=60)
    assert calls and all(n is not None and n > 0 for n in calls)
    robust = [m for m in modes if m.region_size == 0]
    assert robust
    assert all(m.im_omega == 0.0 and m.h_prime == 0.0 for m in robust)


def test_decoupled_standing_mode(decoupled):
    # with gamma = 0, W = 0 and every crossing meets W^H v = 0 (q = 0), so
    # the chain's band value 3 at kappa = 0 is found as a standing mode
    modes = find_guided_modes(decoupled, (-0.1, 0.1, 2.9, 3.1), density=40)
    assert [(m.kappa0, m.region_size) for m in modes] == [(0.0, 1)]
    assert abs(modes[0].omega0 - 3.0) <= 1e-12


def test_mode1_certificate(mode1, fit1):
    # h'(kappa0) = -2 Im(curvature): the eigenvalue derivatives against the
    # polynomial fit of the continued dispersion curve
    assert mode1.im_omega <= 1e-14
    assert mode1.min_eigenvalue <= 1e-12
    assert mode1.h_prime == pytest.approx(-2.0 * fit1.curvature.imag,
                                          rel=1e-6)


def _assert_standing(mode):
    assert mode.kappa0 == 0.0
    assert mode.region_size == 1
    assert mode.im_omega <= 1e-13 * mode.omega0
    assert mode.min_eigenvalue <= 1e-12
    assert mode.sigma <= 1e-12
    assert mode.h_prime < 0.0  # Im omega_gm peaks at kappa = 0
    # antisymmetric under n -> -n: c_l = -c_{N-l}, c_0 = 0
    c = mode.c / np.max(np.abs(mode.c))
    assert np.max(np.abs(c + np.roll(c[::-1], 1))) <= 1e-8


def test_standing_mode_n3_complex_coupling_matches_chain_oracle():
    # mirror symmetry n -> -n (M1 = M2, k0 = k2, gamma1 = gamma2): the
    # antisymmetric chain vector v = (0, 1, -1) has the band value
    # lambda_a = (k0 + 2 k1) / M1 at kappa = 0, and it only meets the
    # antisymmetric, evanescent orders l = 1, 2, which share
    # chi = (5 - omega) / 2 and s = -2 sqrt(chi^2 - 1).  So K v = 0 reduces
    # to omega - lambda_a = |gamma1|^2 / s.
    g1 = 1.1 - 0.4j
    params = StructureParams(N=3, masses=[1.5, 2.0, 2.0],
                             springs=[1.2, 0.7, 1.2],
                             gammas=[0.8 + 0.3j, g1, g1])
    lam_a = (1.2 + 2 * 0.7) / 2.0
    assert np.min(np.abs(waveguide_bands(params, 0.0) - lam_a)) <= 1e-14
    want = brentq(lambda w: w - lam_a + abs(g1) ** 2 / (
        2.0 * np.sqrt(((5.0 - w) / 2.0) ** 2 - 1.0)), 0.1, lam_a,
                  xtol=1e-15)
    modes = find_guided_modes(params, (-0.05, 0.05, 0.6, 1.35), density=40)
    assert len(modes) == 1
    _assert_standing(modes[0])
    assert abs(modes[0].omega0 - want) <= 1e-12


def test_standing_mode_n5_complex_coupling():
    params = StructureParams(
        N=5, masses=[1.0, 2.5, 3.0, 3.0, 2.5], springs=[0.9, 1.3, 0.8, 1.3, 0.9],
        gammas=[1.2 + 0.2j, 0.7 - 0.5j, 1.4 + 0.6j, 1.4 + 0.6j, 0.7 - 0.5j])
    modes = find_guided_modes(params, (-0.05, 0.05, 0.2, 1.35), density=40)
    assert len(modes) == 1
    _assert_standing(modes[0])


def test_fold_needs_a_mode_at_minus_kappa0(fixture1):
    # without mirror symmetry (complex couplings, unequal masses) a mode at
    # kappa0 < 0 has no partner at -kappa0, so it keeps its sign; every
    # entry, with its null vector and order count, is a mode where reported
    params = StructureParams(N=3, masses=[1.5, 2.0, 1.0],
                             springs=[1.2, 0.7, 1.9],
                             gammas=[0.8 + 0.3j, 2.0 - 1.0j, 1.0 + 0.5j])
    kmin, kmax, wmin, wmax = window = (-0.45, -0.25, 0.2, 0.6)
    inside = find_guided_modes(params, window, density=10)
    assert len(inside) == 8
    assert all(kmin <= m.kappa0 <= kmax and wmin <= m.omega0 <= wmax
               for m in inside)
    whole = find_guided_modes(params, (-0.5, 0.5, wmin, wmax), density=10)
    assert any(m.kappa0 < 0.0 for m in whole)
    for m in inside + whole:
        B, labels = guided._reduced_homogeneous(params, m.kappa0, m.omega0)
        assert m.sigma == sigma_min(params, BlochPoint(m.kappa0, m.omega0))
        assert m.sigma <= 1e-8
        assert tuple(labels) == m.null_labels
        assert np.linalg.norm(B @ m.null_vector) <= 1e-8 * np.linalg.norm(B)
        assert m.region_size == propagating_count(params, m.kappa0, m.omega0)
    # with real couplings -kappa0 is a mode too, and the entry is folded
    folded = find_guided_modes(fixture1, (-0.2, -0.01, 0.93, 1.02))
    assert [round(m.kappa0, 7) for m in folded] == [0.0616737]


@pytest.mark.parametrize("radius", [0.0, -0.004, float("nan")])
def test_dispersion_refuses_radius(fixture1, mode1, radius):
    with pytest.raises(ValueError, match="radius must be > 0"):
        continue_and_fit_dispersion(fixture1, mode1, radius=radius)


@pytest.mark.parametrize("window, density", [
    ((0.11, 0.02, 0.93, 1.02), 30),
    ((0.02, 0.11, 1.02, 0.93), 30),
    ((0.02, 0.02, 0.93, 1.02), 30),
    ((0.02, 0.11, 0.93, 1.02), 1),
])
def test_mode_search_refuses_empty_window_and_density(fixture1, monkeypatch,
                                                      window, density):
    def solved(*args, **kwargs):
        raise AssertionError("a crossing solve ran")

    monkeypatch.setattr(guided, "_crossings", solved)
    with pytest.raises(ValueError, match="the mode search needs kappa_min < "
                       "kappa_max, omega_min < omega_max and density >= 2"):
        find_guided_modes(fixture1, window, density=density)


def test_dispersion_continues_once_and_logs(fixture1, mode1, caplog,
                                            monkeypatch):
    made = []

    def tracker(params):
        made.append(params)
        return EigenvalueTracker(params)

    monkeypatch.setattr(guided, "EigenvalueTracker", tracker)
    caplog.set_level(logging.DEBUG, logger="latres")
    fit = continue_and_fit_dispersion(fixture1, mode1)
    # one tracker, `_continued_h`'s: the mode and 10 kt on each side
    assert len(made) == 1
    assert fit.samples[10] == (0.0, complex(mode1.omega0))
    lines = [r.getMessage() for r in caplog.records if r.name == "latres"]
    assert lines == [f"dispersion fit: 21 samples, 21 tracker solves, fit "
                     f"residual {fit.fit_residual:.2e}, Im slope "
                     f"{fit.slope_imag:.2e}"]
