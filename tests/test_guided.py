"""Guided-mode location, explicit N=2 criteria, and dispersion continuation."""

import logging
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.optimize import brentq

import latres.scattering
from latres import guided
from latres.structure import (BlochPoint, StructureParams, _classify,
                              _classify_off_threshold, _thresholds,
                              propagating_count, waveguide_band_matrix,
                              waveguide_bands)
from latres.scattering import (_KappaStage, _chain_kernel, _fourier,
                               scan_transmission)
from latres.guided import (PROBE_OFFSET, ConvergenceError, EigenvalueTracker,
                           _crossings, _omega_gm, continue_and_fit_dispersion,
                           find_guided_modes, sigma_min)
from oracles import guided_mode_criteria_n2, reduced_homogeneous

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


def test_mode_null_vector_solves_homogeneous(fixture1, n3_params):
    # every mode's null vector, found on the N x N chain kernel, solves the
    # 3N Fourier system without incidence or propagating outgoing columns;
    # its chain part is nonzero (the mode lives in the waveguide), it has
    # unit norm and its largest c entry is real and positive
    for params, window, density in (
            (fixture1, (-0.5, 0.5, 0.7, 1.25), 60),
            (n3_params, (-0.05, 0.05, 1.1, 1.3), 40)):
        modes = find_guided_modes(params, window, density=density)
        assert modes
        for m in modes:
            B, labels = reduced_homogeneous(params, m.kappa0, m.omega0)
            assert tuple(labels) == m.null_labels
            assert (np.linalg.norm(B @ m.null_vector)
                    <= 1e-8 * np.linalg.norm(B))
            assert m.sigma < 1e-12
            assert np.linalg.norm(m.null_vector) == pytest.approx(1.0,
                                                                  abs=1e-15)
            assert np.linalg.norm(m.c) > 0.1
            big = m.c[np.argmax(np.abs(m.c))]
            assert big.real > 0.0 and abs(big.imag) <= 1e-15 * big.real


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
    tracker.value(mode.kappa0, tracker.solve_omega(mode.kappa0, mode.omega0))
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


def test_crossings_build_kappa_stage_per_block(fixture1, monkeypatch):
    # a chunk limit of one row's kappa stage makes the crossing search build
    # the stage on one kappa row at a time, never on every row, and find
    # every crossing as the unsplit search does, omega and q within roundoff
    # (numpy's elementwise functions may round by an array's length)
    sizes = []

    class Recording(_KappaStage):
        def __init__(self, params, kappa, gammas=None):
            sizes.append(np.size(kappa))
            super().__init__(params, kappa, gammas)

    def search():
        return _crossings(fixture1, np.linspace(-0.5, 0.5, 60), 0.7, 1.25)

    whole = search()
    monkeypatch.setattr(latres.scattering, "STACK_BYTES", 5 * 16 * 2 * 2)
    monkeypatch.setattr(guided, "_KappaStage", Recording)
    split = search()
    assert len(sizes) == 60 and max(sizes) == 1
    assert split[0] == whole[0] and len(whole[1]["omega"]) > 2
    for key, value in whole[1].items():
        assert np.allclose(split[1][key], value, rtol=1e-15, atol=1e-16)
        assert key in ("omega", "q") or np.array_equal(split[1][key], value)


def test_mode_search_logs_counts(fixture1, caplog, monkeypatch):
    rounds = []
    omega_gm = guided._omega_gm

    def recording(params, kappa, omega_seed, vref, gammas=None):
        rounds.append(len(kappa))
        return omega_gm(params, kappa, omega_seed, vref, gammas)

    monkeypatch.setattr(guided, "_omega_gm", recording)
    caplog.set_level(logging.DEBUG, logger="latres")
    modes = find_guided_modes(fixture1, (0.02, 0.11, 0.93, 1.02), density=30)
    lines = [r.getMessage() for r in caplog.records if r.name == "latres"]
    assert len(lines) == 1
    assert lines[0].startswith("guided-mode search: 30 kappa rows, 30 regions "
                               "probed, 30 crossings solved, at most ")
    # the polish's rounds: the candidate, its first bracket's two ends in
    # one, the secant's iterates and the h' circle in one
    assert rounds[:2] == [1, 2] and rounds[-1] == guided.TAYLOR_POINTS
    assert (f" Newton steps, 1 candidates, 0 rejected, 0 merged as "
            f"duplicates, {len(rounds)} polish rounds solving {sum(rounds)} "
            f"points, certificates [") in lines[0]
    assert lines[0].endswith(f", {len(modes)} modes")
    m = modes[0]
    assert (f"certificates [({m.kappa0:.15g}, {m.omega0:.15g}): "
            f"|Im omega_gm| {m.im_omega:.2g}, min|eig K| "
            f"{m.min_eigenvalue:.2g}, h' {m.h_prime:.6g}, "
            f"sigma_min {m.sigma:.2g}]") in lines[0]


@pytest.mark.parametrize("N", range(1, 9))
def test_kernel_on_kappa_arrays_equals_scalar_calls(N):
    # a kappa stage built on an array, and each of its rows, gives entry by
    # entry the scalar call's band matrix and kernel, derivatives included,
    # bit for bit
    rng = np.random.default_rng([N, 8])
    params = StructureParams(N=N, masses=rng.uniform(0.5, 3.0, N),
                             springs=rng.uniform(0.5, 2.0, N),
                             gammas=rng.uniform(0.5, 3.0, N)
                             + 1j * rng.uniform(-1.0, 1.0, N))
    kap = rng.uniform(-0.5, 0.5, 6)
    om = rng.uniform(0.3, 7.0, 6) - 1j * rng.uniform(0.0, 0.01, 6)
    theta = _classify(N, kap, om)[1]
    A = waveguide_band_matrix(params, kap)
    stage = _KappaStage(params, kap)

    def evaluated(kernel):
        return kernel[:4] + (kernel[4](), kernel[5]())

    stacked = evaluated(stage.at(om, theta))
    for j, k in enumerate(kap.tolist()):
        assert np.array_equal(A[j], waveguide_band_matrix(params, k))
        one = evaluated(_chain_kernel(params, k, complex(om[j]), theta[j]))
        row = evaluated(stage.rows([j]).at(om[[j]], theta[[j]]))
        for got, from_row, want in zip(stacked, row, one):
            assert np.array_equal(got[j], want)
            assert np.array_equal(from_row[0], want)


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
    # K_H there): only candidates with one are solved for omega_gm (each
    # starts at the candidate, without a reference eigenvector), and the
    # robust-branch entries certify Im omega_gm = 0
    starts = []
    omega_gm = guided._omega_gm

    def recording(params, kappa, omega_seed, vref, gammas=None):
        if vref is None:
            starts.extend(zip(kappa, omega_seed))
        return omega_gm(params, kappa, omega_seed, vref, gammas)

    monkeypatch.setattr(guided, "_omega_gm", recording)
    modes = find_guided_modes(fixture1, (-0.5, 0.5, 0.7, 1.25), density=60)
    assert starts and all(propagating_count(fixture1, k, w.real) > 0
                          for k, w in starts)
    robust = [m for m in modes if m.region_size == 0]
    assert robust
    assert all(m.im_omega == 0.0 and m.h_prime == 0.0 for m in robust)


def test_lost_track_rejects_one_candidate(fixture1, monkeypatch, caplog):
    # criterion 01's window at density 60 polishes one +-kappa pair in one
    # stack; when the kappa < 0 candidate loses its track there, it alone
    # is rejected, and the pair's mode is still reported from kappa > 0
    window = (-0.5, 0.5, 0.7, 1.25)
    caplog.set_level(logging.DEBUG, logger="latres")

    def search():
        caplog.clear()
        modes = find_guided_modes(fixture1, window, density=60)
        line, = [r.getMessage() for r in caplog.records if r.name == "latres"]
        return modes, re.search(r", (\d+) rejected, (\d+) merged ", line)

    want, counts = search()
    tracked, lost_at = guided._tracked_eigenvalue, []

    def losing(stage, omega, vref):
        lost = np.broadcast_to(stage.kappa, omega.shape) < 0.0
        if vref is not None and len(omega) > 1 and lost.any():
            lost_at.append(len(omega))
            error = ConvergenceError("lost eigenvalue track")
            error.points = lost
            raise error
        return tracked(stage, omega, vref)

    monkeypatch.setattr(guided, "_tracked_eigenvalue", losing)
    got, got_counts = search()
    assert lost_at == [2]
    # the lost candidate is counted as rejected, not as its pair's duplicate
    assert (int(got_counts[1]), int(got_counts[2])) == (
        int(counts[1]) + 1, int(counts[2]) - 1)
    assert [(m.null_labels, m.region_size) for m in got] == [
        (m.null_labels, m.region_size) for m in want]
    assert all(abs(a.kappa0 - b.kappa0) <= 1e-12
               and abs(a.omega0 - b.omega0) <= 1e-12 for a, b in zip(got, want))


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
        B, labels = reduced_homogeneous(params, m.kappa0, m.omega0)
        assert m.sigma == sigma_min(params, BlochPoint(m.kappa0, m.omega0))
        assert m.sigma <= 1e-8
        assert tuple(labels) == m.null_labels
        assert np.linalg.norm(B @ m.null_vector) <= 1e-8 * np.linalg.norm(B)
        assert m.region_size == propagating_count(params, m.kappa0, m.omega0)
    # with real couplings -kappa0 is a mode too, and the entry is folded
    folded = find_guided_modes(fixture1, (-0.2, -0.01, 0.93, 1.02))
    assert [round(m.kappa0, 7) for m in folded] == [0.0616737]


@pytest.mark.parametrize("case", ["fixture1", "n3", "n3_complex",
                                  "n3_standing"])
def test_stacked_certificates_match_per_mode_functions(fixture1, n3_params,
                                                       case):
    # a search certifies all its modes in stacked calls; each mode's fields
    # equal the per-mode functions at the point reported within 1e-12.
    # fixture 1 folds kappa0 < 0 and has the robust branch, the complex N = 3
    # structure keeps kappa0 < 0, and the last one has a standing mode with
    # a propagating order next to robust-branch entries on one side
    params, window = {
        "fixture1": (fixture1, (-0.5, 0.5, 0.7, 1.25)),
        "n3": (n3_params, (-0.5, 0.5, 0.3, 6.0)),
        "n3_complex": (StructureParams(
            N=3, masses=[1.5, 2.0, 1.0], springs=[1.2, 0.7, 1.9],
            gammas=[0.8 + 0.3j, 2.0 - 1.0j, 1.0 + 0.5j]),
            (-0.5, 0.5, 0.2, 0.6)),
        "n3_standing": (StructureParams(
            N=3, masses=[1.5, 2.0, 2.0], springs=[1.2, 0.7, 1.2],
            gammas=[0.8 + 0.3j, 1.1 - 0.4j, 1.1 - 0.4j]),
            (-0.5, 0.5, 0.2, 6.0))}[case]
    modes = find_guided_modes(params, window, density=60)
    assert len(modes) >= 2
    for m in modes:
        point = BlochPoint(m.kappa0, m.omega0)
        assert abs(m.sigma - sigma_min(params, point)) <= 1e-12
        lam = EigenvalueTracker(params).value(m.kappa0, m.omega0)
        assert abs(m.min_eigenvalue - abs(lam)) <= 1e-12
        assert m.region_size == propagating_count(params, m.kappa0, m.omega0)
        vec, labels = guided.null_vector(params, point)
        assert tuple(labels) == m.null_labels
        assert np.max(np.abs(m.null_vector - vec)) <= 1e-12


@pytest.mark.parametrize("radius", [0.0, -0.004, float("nan"),
                                    float("inf")])
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


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_mode_search_refuses_tol(fixture1, monkeypatch, tol):
    def solved(*args, **kwargs):
        raise AssertionError("a crossing solve ran")

    monkeypatch.setattr(guided, "_crossings", solved)
    with pytest.raises(ValueError, match=f"the mode search needs a finite "
                       f"tol > 0, got {tol}"):
        find_guided_modes(fixture1, (0.02, 0.11, 0.93, 1.02), density=30,
                          tol=tol)


def test_dispersion_continues_once_and_logs(fixture1, mode1, caplog,
                                            monkeypatch):
    calls = []

    def omega_gm(params, kappa, omega_seed, vref, gammas=None):
        out = omega_gm_(params, kappa, omega_seed, vref, gammas)
        calls.append((len(kappa), out[3].max()))
        return out

    omega_gm_ = guided._omega_gm
    monkeypatch.setattr(guided, "_omega_gm", omega_gm)
    caplog.set_level(logging.DEBUG, logger="latres")
    fit = continue_and_fit_dispersion(fixture1, mode1)
    # two stacked solves: the mode, then the Taylor circle and 10 kt on each
    # side, all from its tangent
    M = guided.TAYLOR_POINTS
    assert [n for n, _ in calls] == [1, M + 20]
    assert fit.samples[10] == (0.0, complex(mode1.omega0))
    lines = [r.getMessage() for r in caplog.records if r.name == "latres"]
    assert len(lines) == 1
    assert re.fullmatch(
        rf"dispersion fit: 21 samples, {M + 21} points solved, at most "
        rf"{max(s for _, s in calls)} Newton steps \((\d+) on the circle of "
        rf"{M} points\), Taylor-vs-samples residual "
        rf"{fit.fit_residual:.2e}, \|Im c1\| {abs(fit.slope_imag):.2e}",
        lines[0])
    assert 1 <= int(re.fullmatch(r".*\((\d+) on.*", lines[0])[1]) <= 4
    assert fit.fit_residual <= 1e-15


def test_omega_gm_stack_equals_single_points(fixture1, mode1, fit1):
    # the dispersion samples, solved as one stack and one point at a time
    kts = np.array([kt for kt, _ in fit1.samples if kt != 0.0])
    om0, slope0, vec0, _ = _omega_gm(fixture1, [mode1.kappa0],
                                     [mode1.omega0], None)
    args = (mode1.kappa0 + kts, om0 + slope0 * kts)
    om, slope, vec, steps = _omega_gm(fixture1, *args,
                                      np.repeat(vec0, len(kts), axis=0))
    for j in range(len(kts)):
        one = _omega_gm(fixture1, [args[0][j]], [args[1][j]], vec0)
        assert abs(one[0][0] - om[j]) <= 1e-14
        assert abs(one[1][0] - slope[j]) <= 1e-14
        assert abs(abs(one[2][0].conj() @ vec[j]) - 1.0) <= 1e-12
        assert one[3][0] == steps[j]
    assert np.abs(om - np.array([w for kt, w in fit1.samples
                                 if kt != 0.0])).max() <= 1e-14


def test_taylor_coefficients_do_not_depend_on_radius(fixture1, mode1,
                                                     bif_params, monkeypatch):
    # c1 and c2 from circles of radius 1e-2 and 3e-2 agree, on fixture 1's
    # mode and on the N = 3 complex-coupling standing mode
    g1 = 1.1 - 0.4j
    n3 = StructureParams(N=3, masses=[1.5, 2.0, 2.0], springs=[1.2, 0.7, 1.2],
                         gammas=[0.8 + 0.3j, g1, g1])
    mode3, = find_guided_modes(n3, (-0.05, 0.05, 0.6, 1.35), density=40)
    for params, mode in ((fixture1, mode1), (n3, mode3)):
        point = _omega_gm(params, [mode.kappa0], [mode.omega0], None)[:3]
        c = []
        for r in (1e-2, 3e-2):
            monkeypatch.setattr(guided, "TAYLOR_RADIUS", r)
            c.append(guided._taylor(params, [mode.kappa0], *point)[0][0, 1:3])
        assert np.abs(c[0] - c[1]).max() <= 1e-11
    # a stack of points with their own couplings gives each point's own
    # circle: fixture 1's mode, and kappa = 0 at gamma0* and above it
    monkeypatch.undo()
    kap = np.array([mode1.kappa0, 0.0, 0.0])
    g0 = [1.0, bif_params.gammas[0].real, 1.05]
    om, slope = np.array([mode1.omega0, 0.9779, 0.98]) + 0j, np.zeros(3)
    gammas = np.tile(fixture1.gammas, (3, 1))
    gammas[:, 0] = g0
    c = guided._taylor(fixture1, kap, om, slope, None, gammas)[0]
    scale = 1e-14 / guided.TAYLOR_RADIUS ** np.arange(guided.TAYLOR_POINTS)
    for j in range(3):
        own = guided._taylor(fixture1.replace_gamma(0, g0[j]), kap[j:j + 1],
                             om[j:j + 1], slope[j:j + 1], None)[0][0]
        assert np.all(np.abs(own - c[j]) <= scale)


def test_omega_gm_stops_point_by_point(fixture1, mode1):
    # a converged seed stops after its first step while a far one goes on,
    # and each ends where it would alone
    kap = mode1.kappa0
    om0, slope0, vec0, steps0 = _omega_gm(fixture1, [kap], [mode1.omega0],
                                          None)
    assert steps0[0] == 1  # omega0 is a root already
    om, slope, _, steps = _omega_gm(fixture1, [kap, kap],
                                    [om0[0], om0[0] + 1e-3],
                                    np.repeat(vec0, 2, axis=0))
    assert steps[0] == 1 and steps[1] > 1
    assert np.abs(om - om0[0]).max() <= 1e-14
    assert np.abs(slope - slope0[0]).max() <= 1e-14
    # the far seed alone takes as many steps
    assert _omega_gm(fixture1, [kap], [om0[0] + 1e-3], vec0)[3][0] == steps[1]


def test_omega_gm_lost_track_names_kappa(n3_params):
    # a reference that mixes every eigenvector about equally overlaps none of
    # them by OVERLAP_MIN
    kap, om = 0.02, 1.19 - 1e-3j
    _, theta, _ = _classify_off_threshold(3, kap, om)
    V = np.linalg.eig(_chain_kernel(n3_params, kap, om, theta)[0])[1]
    vref = V.sum(axis=1) / np.linalg.norm(V.sum(axis=1))
    assert np.abs(vref.conj() @ V).max() < guided.OVERLAP_MIN
    with pytest.raises(ConvergenceError, match=r"^lost eigenvalue track at "
                       r"\(kappa=0.02, omega=\(1.19-0.001j\)\): best overlap"):
        _omega_gm(n3_params, [0.3, kap], [1.19, om],
                  np.array([V[:, 0], vref]))
