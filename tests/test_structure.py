"""Harmonic classification, bands, and region counting."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import latres.structure
from latres.scattering import (IncidentField, reconstruct_field,
                               solve_scattering)
from latres.structure import (BlochPoint, StructureParams, ambient_dispersion,
                              classify_harmonics, propagating_count,
                              region_diagram, strip_operator,
                              waveguide_band_matrix, waveguide_bands,
                              _classify)
from oracles import classify_complex_point
import oracles

TWO_PI = 2.0 * np.pi


def test_params_validation():
    with pytest.raises(ValueError):
        StructureParams(N=2, masses=[1.0], springs=[1.0, 1.0], gammas=[1, 1])
    with pytest.raises(ValueError):
        StructureParams(N=2, masses=[1.0, -1.0], springs=[1.0, 1.0],
                        gammas=[1, 1])
    with pytest.raises(ValueError):
        StructureParams(N=2, masses=[1.0, 1.0], springs=[0.0, 1.0],
                        gammas=[1, 1])


def test_params_json_roundtrip(tmp_path, fixture1):
    doc = fixture1.to_dict()
    p = StructureParams.from_dict(doc)
    assert p.N == fixture1.N
    assert np.allclose(p.masses, fixture1.masses)
    assert np.allclose(p.gammas, fixture1.gammas)
    # complex couplings via {"re", "im"} objects
    doc["gammas"][0] = {"re": 1.5, "im": -0.25}
    p = StructureParams.from_dict(doc)
    assert p.gammas[0] == 1.5 - 0.25j


def test_ambient_dispersion_range():
    th = np.linspace(0, 0.5, 101)
    ph = np.linspace(0, 0.5, 101)
    w = ambient_dispersion(th[:, None], ph[None, :])
    assert w.min() == pytest.approx(0.0)
    assert w.max() == pytest.approx(8.0)
    assert ambient_dispersion(0.25, 0.25) == pytest.approx(4.0)


def test_classification_kinds(fixture1):
    hs = classify_harmonics(fixture1, BlochPoint(0.2, 1.5))
    kinds = [h.kind for h in hs.harmonics]
    assert kinds == ["propagating", "evanescent"]
    assert hs.propagating == (0,)
    # order 0 exponent matches the closed form acos(chi)/2pi
    chi0 = (4.0 - 1.5) / 2.0 - np.cos(2 * np.pi * 0.1)
    assert hs.theta[0] == pytest.approx(np.arccos(chi0) / (2 * np.pi))
    # the evanescent exponent reproduces the dispersion relation
    for h in hs.harmonics:
        w = ambient_dispersion(h.theta, h.phi)
        assert abs(w - 1.5) < 1e-12


def test_band_edge_evanescent_class(fixture1):
    # high frequency: chi < -1 for some order puts Re theta at 1/2
    hs = classify_harmonics(fixture1, BlochPoint(0.1, 7.5))
    kinds = {h.kind for h in hs.harmonics}
    assert "band-edge-evanescent" in kinds
    for h in hs.harmonics:
        if h.kind == "band-edge-evanescent":
            assert h.theta.real == pytest.approx(0.5)
            assert h.theta.imag > 0
            w = ambient_dispersion(h.theta, h.phi)
            assert abs(w - 7.5) < 1e-12


def test_threshold_flagging(fixture1):
    # at (kappa, omega) = (0, 4) both orders sit exactly on threshold curves:
    # chi_0 = -1 and chi_1 = +1
    hs = classify_harmonics(fixture1, BlochPoint(0.0, 4.0))
    assert hs.has_threshold
    assert all(h.kind == "linear-threshold" for h in hs.harmonics)


def test_harmonic_sets_compare_by_identity(n3_params):
    # the fields are arrays, so a set is equal only to itself and hashable
    pt = BlochPoint(0.13, 2.9)
    hs = classify_harmonics(n3_params, pt)
    assert hs == hs and hs != classify_harmonics(n3_params, pt)
    assert len({hs, hs}) == 1


def test_complex_omega_continuation_sign_law(fixture1):
    # continued propagating order must move into the matching half plane
    hs = classify_harmonics(fixture1, BlochPoint(0.2, 1.5 - 1e-4j))
    th = hs.theta[0]
    lhs = np.sin(2 * np.pi * th.real) * 2.0 * np.sinh(2 * np.pi * th.imag)
    assert abs(lhs - (-1e-4)) < 1e-8
    w = ambient_dispersion(th, hs.phi[0])
    assert abs(w - (1.5 - 1e-4j)) < 1e-10


@pytest.mark.parametrize("structure, kappa, omega", [
    ("fixture1", 0.2, 1.5), ("fixture1", 0.1, 7.5), ("n3_params", 0.13, 2.9)])
def test_complex_omega_keeps_kinds(request, structure, kappa, omega):
    # slightly below the real axis every order keeps its real-omega kind;
    # at the N = 3 point the evanescent order's Re theta sits just below 1
    params = request.getfixturevalue(structure)
    real = classify_harmonics(params, BlochPoint(kappa, omega))
    cont = classify_harmonics(params, BlochPoint(kappa, omega - 1e-4j))
    assert ([h.kind for h in cont.harmonics]
            == [h.kind for h in real.harmonics])
    assert cont.propagating == real.propagating
    assert not cont.has_threshold


@pytest.mark.parametrize("N", [1, 2, 3, 8])
def test_single_point_matches_row_at_thresholds(N):
    # a seeded row with every order's two threshold frequencies in it: each
    # point classifies exactly as its row entry
    rng = np.random.default_rng(N)
    params = StructureParams(N, np.ones(N), np.ones(N), np.ones(N))
    for kappa in rng.uniform(-0.5, 0.5, 3):
        cos = np.cos(TWO_PI * (kappa + np.arange(N)) / N)
        omegas = np.concatenate([rng.uniform(0.0, 8.0, 20),
                                 2.0 - 2.0 * cos, 6.0 - 2.0 * cos])
        phi, theta, prop, thr = _classify(N, kappa, omegas)
        assert thr.sum() >= 2 * N
        for j, om in enumerate(omegas):
            hs = classify_harmonics(params, BlochPoint(kappa, om))
            assert np.all(hs.phi == phi)
            assert np.all(hs.theta == theta[j])
            assert hs.propagating == tuple(np.flatnonzero(prop[j]))
            assert [h.kind == "linear-threshold" for h in hs.harmonics] == (
                thr[j].tolist())


def test_waveguide_bands_hermitian_and_range(fixture1):
    for kap in (0.0, 0.17, 0.5):
        B = waveguide_band_matrix(fixture1, kap)
        assert np.allclose(B, B.conj().T)
        bands = waveguide_bands(fixture1, kap)
        assert np.all(np.diff(bands) >= 0)
        assert np.all(bands >= -1e-12)
    # kappa=0 bottom band is the zero (translation) mode of the free chain
    assert waveguide_bands(fixture1, 0.0)[0] == pytest.approx(0.0, abs=1e-12)


def test_bands_frozen_value(fixture1):
    bands = waveguide_bands(fixture1, 0.3)
    assert bands[0] == pytest.approx(0.5299572145389398, rel=1e-12)
    assert bands[1] == pytest.approx(2.47004278546106, rel=1e-12)


def test_region_diagram_counts(fixture1):
    kg = np.linspace(-0.5, 0.5, 21)
    wg = np.linspace(0.1, 7.9, 41)
    diag = region_diagram(fixture1, kg, wg)
    assert diag.counts.shape == (21, 41)
    for i, kap in enumerate(kg):
        for j, om in enumerate(wg):
            if not diag.threshold_mask[i, j]:
                assert diag.counts[i, j] == propagating_count(fixture1, kap, om)
    assert diag.counts.max() <= fixture1.N


def test_region_diagram_counts_match_classifier(n3_params):
    # every point, thresholds included: orders 1e-10 from a threshold are
    # classified linear-threshold and not counted as propagating
    kg = np.linspace(-0.5, 0.5, 11)
    cos = np.cos(TWO_PI * (kg[3] + np.arange(3)) / 3)
    edges = np.concatenate([4.0 - 2.0 * (1.0 + cos), 4.0 - 2.0 * (cos - 1.0)])
    wg = np.sort(np.concatenate([np.linspace(0.1, 7.9, 27),
                                 edges + 1e-10, edges - 1e-10]))
    diag = region_diagram(n3_params, kg, wg)
    near = 0
    for i, kap in enumerate(kg):
        chi = ((4.0 - wg[:, None]) / 2.0
               - np.cos(TWO_PI * (kap + np.arange(3)) / 3))
        inside = np.sum(np.abs(chi) < 1.0, axis=1)
        for j, om in enumerate(wg):
            assert diag.counts[i, j] == propagating_count(n3_params, kap, om)
            assert diag.threshold_mask[i, j] == classify_harmonics(
                n3_params, BlochPoint(kap, om)).has_threshold
            near += int(diag.counts[i, j] < inside[j])
    assert near > 0


def test_classify_phi_ladder():
    phi, theta, prop, thr = _classify(4, 0.3, 2.0)
    assert np.allclose(phi, (0.3 + np.arange(4)) / 4.0)
    assert theta.shape == prop.shape == thr.shape == (4,)


@pytest.mark.parametrize("N", [1, 3, 8])
def test_generator_matches_fourier_solution(N):
    # a Fourier solution sampled on the strip satisfies H s = omega s in
    # every row whose stencil stays inside the strip, that is all but the
    # wall rows m = +-mx; complex gamma tells gamma from conj(gamma), and
    # N > 1 tells the Bloch twist from its inverse
    rng = np.random.default_rng(N)
    params = StructureParams(
        N, rng.uniform(0.5, 2.0, N), rng.uniform(0.5, 2.0, N),
        rng.uniform(0.2, 3.0, N) * np.exp(1j * rng.uniform(-np.pi, np.pi, N)))
    mx = 6
    for _ in range(4):
        while True:
            point = BlochPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 7.95))
            hs = classify_harmonics(params, point)
            if hs.propagating and not hs.has_threshold:
                break
        sol = solve_scattering(params, point,
                               IncidentField.unit_left(N, hs.propagating[0]))
        u, z = reconstruct_field(sol, np.arange(-mx, mx + 1)[:, None],
                                 np.arange(N))
        s = np.concatenate([z, u.ravel()])
        H = strip_operator(params, point.kappa.real, mx)
        assert H.shape == (len(s), len(s))
        res = H @ s - point.omega * s
        off_walls = np.r_[0:N, 2 * N:len(s) - N]
        assert np.max(np.abs(res[off_walls])) <= 1e-12


_complex_points = st.tuples(
    st.integers(1, 8), st.floats(-0.5, 0.5), st.floats(-0.1, 0.1),
    st.floats(0.0, 8.0), st.floats(-0.5, 0.5), st.integers(0, 4))


@given(_complex_points)
def test_complex_classify_matches_order_loop(case):
    # the array branch against the order-by-order loop it replaced, bit for
    # bit: a scalar point (complex kappa or complex omega), then a row of
    # n + 1 points whose kappa and omega are spread around it
    N, k_re, k_im, w_re, w_im, n = case
    kappa, omega = complex(k_re, k_im), complex(w_re, w_im)
    assume(kappa.imag or omega.imag)
    if not kappa.imag:
        kappa = kappa.real
    got = _classify(N, kappa, omega)
    want = classify_complex_point(N, kappa, omega)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    kappas = kappa + np.linspace(0.0, 0.3, n + 1)
    omegas = omega + np.linspace(0.0, 2.0, n + 1) * (1.0 - 0.01j)
    phi, theta, prop, thr = _classify(N, kappas, omegas)
    assert not thr.any()
    for j in range(n + 1):
        _, th, pr, _ = classify_complex_point(N, kappas[j], omegas[j])
        assert np.array_equal(theta[j], th)
        assert np.array_equal(prop[j], pr)


class _OtherSheet:
    """numpy, with arccos continued onto the other sheet: every continued
    propagating order then has Im theta of the wrong sign."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def arccos(x):
        return np.conj(np.arccos(x))


def test_sign_law_violation_raises(monkeypatch):
    monkeypatch.setattr(latres.structure, "np", _OtherSheet())
    monkeypatch.setattr(oracles, "np", _OtherSheet())
    # order 0 propagates at (0.06, 0.97); Im omega is -0.01
    with pytest.raises(ValueError) as want:
        classify_complex_point(2, 0.06, 0.97 - 0.01j)
    with pytest.raises(ValueError, match="^branch-continuation sign law "
                       "violated at order 0: ") as got:
        _classify(2, 0.06, 0.97 - 0.01j)
    assert str(got.value) == str(want.value)
    # in a row, the first point that breaks it is named
    with pytest.raises(ValueError, match="at order 0: .* vs Im omega = -0.02"):
        _classify(2, np.array([0.06, 0.06]), np.array([0.97, 0.97 - 0.02j]))
    # at complex kappa the law is not checked
    _classify(2, 0.06 + 0.01j, 0.97 - 0.01j)
