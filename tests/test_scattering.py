"""Fourier scattering solver: frozen values, conservation, field residuals."""

import json
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import latres.scattering
from latres.cli import main
from latres.structure import (BlochPoint, StructureParams, ThresholdError,
                              _classify, _classify_off_threshold,
                              ambient_dispersion, classify_harmonics)
from latres.scattering import (CERTIFY_SHARE, COND_LIMIT, IncidentField,
                               NonPropagatingIncidenceError, _chain_kernel,
                               _condition, _solve_stack, column_flux,
                               reconstruct_field, scan_transmission,
                               solve_row, solve_scattering)
from oracles import assemble_system, lattice_residual, solve_stack_svd

POINT = BlochPoint(0.2, 1.5)
EPS = np.finfo(float).eps
MODE1_KAPPA = 0.06167366437892
MODE1_OMEGA = 0.97916666666667


def test_assembled_shapes(fixture1):
    sys_ = assemble_system(fixture1, POINT, IncidentField.unit_left(2))
    assert sys_.B.shape == (6, 6)
    assert sys_.F.shape == (6,)
    assert sys_.harmonics.propagating == (0,)


def test_chain_kernel_matches_full_system():
    # solve_scattering works on the N x N chain kernel K; the 3N x 3N Fourier
    # system it was reduced from is the reference.  N = 1 puts both wrap
    # entries of the chain stencil on one site; the last draws per N take a
    # complex kappa, where P^-1 is not P^H / N.
    rng = np.random.default_rng(2011)
    worst, solved = 0.0, set()
    for N in range(1, 9):
        for draw in range(6):
            gammas = rng.uniform(0.2, 3.0, N)
            if draw % 2:
                gammas = gammas * np.exp(1j * rng.uniform(-np.pi, np.pi, N))
            params = StructureParams(N, rng.uniform(0.5, 2.0, N),
                                     rng.uniform(0.5, 2.0, N), gammas)
            while True:
                point = BlochPoint(rng.uniform(-0.5, 0.5)
                                   + 0.05j * (draw >= 4),
                                   rng.uniform(0.05, 7.95))
                hs = classify_harmonics(params, point)
                if hs.propagating and not hs.has_threshold:
                    break
            for side in ("left", "right"):
                amp = np.zeros(N, dtype=complex)
                amp[list(hs.propagating)] = (
                    rng.standard_normal(len(hs.propagating))
                    + 1j * rng.standard_normal(len(hs.propagating)))
                zero = np.zeros(N, dtype=complex)
                incident = (IncidentField(amp, zero) if side == "left"
                            else IncidentField(zero, amp))
                sol = solve_scattering(params, point, incident)
                ref = assemble_system(params, point, incident)
                X = np.linalg.solve(ref.B, ref.F)
                got = np.concatenate([sol.a_minus, sol.b_plus, sol.c])
                worst = max(worst, float(np.max(np.abs(got - X))))
                solved.add((N, side, draw % 2, draw >= 4))
    assert len(solved) == 8 * 2 * 2 * 2
    assert worst <= 1e-11


def test_complex_kappa_continues_theta(fixture1):
    # at complex kappa every order's theta is continued from the real point,
    # so the orders keep the ambient dispersion and the field solves the
    # lattice equation off the coupling line
    sol = solve_scattering(fixture1, BlochPoint(0.2 + 0.05j, 1.5))
    hs = sol.harmonics
    assert np.max(np.abs(ambient_dispersion(hs.theta, hs.phi) - 1.5)) <= 1e-13
    for m in (-4, -2, -1, 1, 2, 5):
        for n in range(-1, 4):
            assert lattice_residual(sol, m, n) <= 1e-12
    assert sol.flags == ("complex_point",)


_unit = st.floats(0.5, 2.0)
_amplitude = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                allow_infinity=False)


@st.composite
def _scattering_cases(draw):
    """A structure with N in 1..8 and complex couplings, a real point off the
    thresholds with a propagating order, and random incidence from both
    sides on the propagating orders."""
    N = draw(st.integers(1, 8))
    params = StructureParams(
        N, draw(st.lists(_unit, min_size=N, max_size=N)),
        draw(st.lists(_unit, min_size=N, max_size=N)),
        draw(st.lists(_amplitude, min_size=N, max_size=N)))
    point = BlochPoint(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.05, 7.95)))
    hs = classify_harmonics(params, point)
    assume(hs.propagating and not hs.has_threshold)
    a, b = (np.where(hs.propagating_mask, draw(st.lists(
        _amplitude, min_size=N, max_size=N)), 0.0) for _ in "ab")
    return params, point, hs, IncidentField(a, b)


@settings(max_examples=60)
@given(_scattering_cases())
def test_point_solve_properties(case):
    params, point, hs, incident = case
    # the 3N x 3N Fourier system is the independent reference
    sol = solve_scattering(params, point, incident)
    ref = assemble_system(params, point, incident)
    X = np.linalg.solve(ref.B, ref.F)
    got = np.concatenate([sol.a_minus, sol.b_plus, sol.c])
    assert np.max(np.abs(got - X)) <= 1e-11
    assert sol.energy_residual <= 1e-12 * sol.incident_flux
    # a point is a row of one: a 5-point row through it gives the same numbers
    order = hs.propagating[0]
    one = solve_scattering(params, point, IncidentField.unit_left(params.N,
                                                                 order))
    row = solve_row(params, point.kappa,
                    point.omega + np.array([-0.02, -0.01, 0.0, 0.01, 0.02]),
                    order)
    assert row.flags[2] == ";".join(one.flags)
    for got, want in ((row.a_minus[2], one.a_minus), (row.b_plus[2], one.b_plus),
                      (row.c[2], one.c), (row.T[2], one.T), (row.R[2], one.R),
                      (row.energy_residual[2], one.energy_residual)):
        assert np.max(np.abs(got - want)) <= 1e-13


@st.composite
def _near_threshold_cases(draw):
    """A structure as in _scattering_cases and a real point where one order
    l has |chi_l| - 1 = +-g, g in [1e-9, 1e-6] (chi_l = (4 - omega) / 2 -
    cos 2 pi phi_l), with unit left incidence on a propagating order.

    g's exponent stops short of -9, so that roundoff in omega (about 1e-15)
    cannot carry the gap under THRESHOLD_TOL = 1e-9.
    """
    N = draw(st.integers(1, 8))
    params = StructureParams(
        N, draw(st.lists(_unit, min_size=N, max_size=N)),
        draw(st.lists(_unit, min_size=N, max_size=N)),
        draw(st.lists(_amplitude, min_size=N, max_size=N)))
    kappa, l = draw(st.floats(-0.5, 0.5)), draw(st.integers(0, N - 1))
    delta = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(
        st.floats(-8.999, -6.0))
    sign = draw(st.sampled_from((-1.0, 1.0)))
    omega = 4.0 - 2.0 * (sign * (1.0 + delta)
                         + np.cos(2.0 * np.pi * (kappa + l) / N))
    point = BlochPoint(kappa, omega)
    hs = classify_harmonics(params, point)
    assume(hs.propagating)
    return params, point, hs, l, delta


@settings(max_examples=60)
@given(_near_threshold_cases())
def test_near_threshold_properties(case):
    params, point, hs, l, delta = case
    # within 1e-6 of a threshold the point is still solved, and order l
    # propagates exactly when |chi_l| < 1
    assert not hs.has_threshold
    assert hs.propagating_mask[l] == (delta < 0.0)
    order = hs.propagating[0]
    one = solve_scattering(params, point, IncidentField.unit_left(params.N,
                                                                 order))
    row = solve_row(params, point.kappa, [point.omega], order)
    assert row.flags[0] == ";".join(one.flags)
    for got, want in ((row.a_minus[0], one.a_minus), (row.b_plus[0], one.b_plus),
                      (row.c[0], one.c), (row.T[0], one.T), (row.R[0], one.R),
                      (row.energy_residual[0], one.energy_residual)):
        assert np.all(got == want)
    # K's condition number grows about like g^(-1/2) here; a seeded sweep of
    # 3000 such points gave energy residuals of at most 1.9e-11 of the
    # incident flux (median 2e-15, the worst at condition 1.1e6), above the
    # 1e-12 gate used away from the thresholds
    assert one.energy_residual <= 1e-10 * one.incident_flux


@st.composite
def _kernel_cases(draw):
    """A structure with N in 1..8 and complex couplings, a real kappa and up
    to six real omegas off the thresholds."""
    N = draw(st.integers(1, 8))
    params = StructureParams(
        N, draw(st.lists(_unit, min_size=N, max_size=N)),
        draw(st.lists(_unit, min_size=N, max_size=N)),
        draw(st.lists(_amplitude, min_size=N, max_size=N)))
    kappa = draw(st.floats(-0.5, 0.5))
    omegas = np.array(draw(st.lists(st.floats(0.05, 7.95), min_size=1,
                                    max_size=6)))
    try:
        _, theta, prop = _classify_off_threshold(N, kappa, omegas)
    except ThresholdError:
        assume(False)
    return params, kappa, omegas, theta, prop


@settings(max_examples=60)
@given(_kernel_cases())
def test_shared_coupling_matches_stacked_build(case):
    # at scalar kappa every point shares U and the coupling sums are one 2-D
    # product; kappa repeated per point builds U per point and takes the
    # stacked product.  K, K_H and both derivatives agree to roundoff.
    params, kappa, omegas, theta, prop = case
    for mask in (None, prop):
        shared = _chain_kernel(params, kappa, omegas, theta, mask)
        stacked = _chain_kernel(params, np.full(len(omegas), kappa), omegas,
                                theta, mask)
        for a, b in ((shared[0], stacked[0]),
                     (shared[4](), stacked[4]()), (shared[5](), stacked[5]())):
            scale = np.abs(b).max(axis=(-2, -1))
            assert np.all(np.abs(a - b).max(axis=(-2, -1)) <= 1e-14 * scale)


def test_frozen_solution_values(fixture1):
    sol = solve_scattering(fixture1, POINT)
    assert sol.T == pytest.approx(0.3776283265443278, abs=1e-13)
    assert sol.R == pytest.approx(0.925957259808103, abs=1e-13)
    assert sol.a_minus[0] == pytest.approx(
        -0.8573968469913306 - 0.34966769047290536j, abs=1e-12)
    assert sol.b_plus[0] == pytest.approx(
        0.14260315300866935 - 0.3496676904729053j, abs=1e-12)
    assert sol.c[0] == pytest.approx(
        0.16764957417194712 - 0.4110823510747128j, abs=1e-12)
    assert sol.c[1] == pytest.approx(
        0.014311328437585065 - 0.035091854961057094j, abs=1e-12)
    assert sol.energy_residual < 1e-14
    assert sol.flags == ()


def test_energy_conservation_unitarity(fixture1):
    sol = solve_scattering(fixture1, POINT)
    assert sol.T ** 2 + sol.R ** 2 == pytest.approx(1.0, abs=1e-13)


def test_right_incidence_same_transmission(fixture1):
    # with incidence from the right the transmitted wave exits to the left,
    # i.e. on the a_minus coefficient (reported as R)
    left = solve_scattering(fixture1, POINT, IncidentField.unit_left(2))
    right = solve_scattering(fixture1, POINT, IncidentField.unit_right(2))
    assert right.R == pytest.approx(left.T, abs=1e-12)


def test_lattice_equation_residual(fixture1):
    sol = solve_scattering(fixture1, POINT)
    for m, n in ((-4, 0), (-2, 1), (1, 0), (3, 1), (6, 5)):
        assert lattice_residual(sol, m, n) < 1e-12


def test_reconstructed_field_pseudo_periodic(fixture1):
    sol = solve_scattering(fixture1, POINT)
    n = np.arange(2)
    u0, z0 = reconstruct_field(sol, -3, n)
    u2, z2 = reconstruct_field(sol, -3, n + 2)
    tw = np.exp(2j * np.pi * 0.2)
    assert np.max(np.abs(u2 - tw * u0)) < 1e-12
    assert np.max(np.abs(z2 - tw * z0)) < 1e-12


def test_column_flux_independent_of_m(fixture1):
    sol = solve_scattering(fixture1, POINT)
    fluxes = [column_flux(sol, m) for m in (-5, -2, 1, 4, 9)]
    assert np.max(np.abs(np.diff(fluxes))) < 1e-12


def test_incident_on_evanescent_order_rejected(fixture1):
    # at this point order 1 is evanescent: incidence on it is unphysical
    with pytest.raises(NonPropagatingIncidenceError, match="non-propagating"):
        solve_scattering(fixture1, POINT, IncidentField.unit_left(2, order=1))


def test_threshold_point_rejected(fixture1):
    with pytest.raises(ThresholdError):
        solve_scattering(fixture1, BlochPoint(0.0, 4.0))


def test_multi_propagating_flux_weighted(fixture1):
    point = BlochPoint(0.1, 4.05)
    hs = classify_harmonics(fixture1, point)
    assert len(hs.propagating) == 2
    sol = solve_scattering(fixture1, point)
    assert "multi_prop_flux_weighted" in sol.flags
    # flux-weighted T, R still satisfy energy balance
    assert sol.T ** 2 + sol.R ** 2 == pytest.approx(1.0, abs=1e-12)


def test_random_incidence_conservation(fixture1, rng):
    for _ in range(50):
        kap = rng.uniform(-0.5, 0.5)
        om = rng.uniform(0.1, 7.9)
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
        assert sol.energy_residual <= 1e-12 * sol.incident_flux


def test_near_singular_flagged_at_mode(fixture1, mode1):
    sol = solve_scattering(
        fixture1, BlochPoint(mode1.kappa0, mode1.omega0))
    assert "near_singular" in sol.flags
    assert sol.condition > 1e12
    # a complex point keeps the core's near-singular flag
    for eps, flags in ((1e-13, ("near_singular", "complex_point")),
                       (1e-10, ("complex_point",))):
        sol = solve_scattering(
            fixture1, BlochPoint(mode1.kappa0, complex(mode1.omega0, -eps)))
        assert sol.flags == flags


def _stack_with_sigma_min(rng, N, sigma_min):
    """One K = U diag(sigma) V^H per entry of sigma_min, with sigma from 1
    down to it (just 1 at N = 1) and seeded random unitary U and V."""
    K = []
    for smin in sigma_min:
        U, V = (np.linalg.qr(rng.standard_normal((N, N))
                             + 1j * rng.standard_normal((N, N)))[0]
                for _ in range(2))
        K.append((U * np.geomspace(1.0, smin, N)) @ V.conj().T)
    return np.array(K)


def _assert_z_matches(z, z_oracle):
    err = np.linalg.norm(z - z_oracle, axis=-1)
    assert (err <= 1e-13 * np.linalg.norm(z_oracle, axis=-1)).all()


def test_solve_stack_matches_svd_oracle():
    # members on both sides of cond = 1e12: the LU solve certifies those
    # whose bound ||K||_F ||K^-1||_F is under CERTIFY_SHARE * COND_LIMIT and
    # keeps the bound, and only the others take the SVD; the flags, z and
    # the other members' condition numbers must be the SVD route's
    rng = np.random.default_rng(31)
    sigma_min = [1.0, 1e-4, 1e-10, 3e-12, 1.2e-12, 1.01e-12, 0.99e-12, 8e-13,
                 1e-14, 1e-17]
    for N in (1, 2, 3, 8):
        K = _stack_with_sigma_min(rng, N, rng.permutation(sigma_min))
        rhs = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        z, cond, near = _solve_stack(K, rhs, COND_LIMIT, True)
        z_o, cond_o, near_o = solve_stack_svd(K, rhs, COND_LIMIT)
        assert (near == near_o).all()
        bound = (np.linalg.norm(K, axis=(1, 2))
                 * np.linalg.norm(np.linalg.inv(K), axis=(1, 2)))
        certified = bound <= CERTIFY_SHARE * COND_LIMIT  # no member near it
        assert (cond[~certified] == cond_o[~certified]).all()
        assert (_condition(K[certified]) == cond_o[certified]).all()
        # at least cond_2, but for the rounding of K^-1 and of the SVD (at
        # N = 1 both are 1, and the bound may read 1 - eps / 2)
        exact = cond_o[certified]
        assert (exact * (1.0 - N * EPS * exact) <= cond[certified]).all()
        assert (cond[certified] <= CERTIFY_SHARE * COND_LIMIT).all()
        # the bound is at most N cond_2, so these are always certified
        assert certified[cond_o <= 1e10].all()
        _assert_z_matches(z, z_o)
        if N > 1:  # certified, SVD'd under the limit, and near members
            assert (certified.any() and (~certified & ~near).any()
                    and near.any())
        # a row of one takes the SVD: its condition number is always exact;
        # one member of a longer row is certified as in the whole stack
        for i in range(len(K)):
            z1, cond1, near1 = _solve_stack(K[i:i + 1], rhs, COND_LIMIT,
                                            False)
            assert cond1[0] == cond_o[i] and near1[0] == near_o[i]
            _assert_z_matches(z1, z_o[i:i + 1])
            z1, cond1, near1 = _solve_stack(K[i:i + 1], rhs, COND_LIMIT,
                                            True)
            assert cond1[0] == cond[i] and near1[0] == near[i]


def test_solve_stack_exactly_singular_member():
    # an exact zero pivot makes the stacked LU solve raise for the whole
    # stack: the singular member is still flagged, with condition inf, and
    # its neighbours are solved as the SVD route solves them
    rng = np.random.default_rng(32)
    for N in (1, 2, 3, 8):
        K = _stack_with_sigma_min(rng, N, [1.0, 1.0, 1e-6, 1e-14])
        K[1, -1, :] = K[1, :, -1] = 0.0
        rhs = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        z, cond, near = _solve_stack(K, rhs, COND_LIMIT, True)
        z_o, cond_o, near_o = solve_stack_svd(K, rhs, COND_LIMIT)
        assert near[1] and cond[1] == np.inf
        assert (near == near_o).all() and (cond == cond_o).all()
        _assert_z_matches(z, z_o)


def test_scan_rows_and_sentinels(fixture1):
    rows = scan_transmission(fixture1, [0.2], [1.5])
    kap, om, T, R, resid, flags = rows[0]
    assert T == pytest.approx(0.3776283265443278, abs=1e-12)
    # at (0, 4) both orders sit on threshold curves
    rows = scan_transmission(fixture1, [0.0], [4.0])
    assert rows[0][5] == "threshold"
    assert np.isnan(rows[0][2])
    # a point where order 0 does not propagate
    rows = scan_transmission(fixture1, [0.2], [7.9])
    assert rows[0][5] == "incident_not_propagating"


def test_scan_raises_other_value_errors():
    # only non-propagating incidence becomes a sentinel row; a NaN coupling
    # makes the solve itself fail, and that failure reaches the caller
    params = StructureParams(N=2, masses=[2.0, 1.0], springs=[1.0, 1.0],
                             gammas=[np.nan, 7.0])
    with pytest.raises(ValueError) as exc:
        scan_transmission(params, [0.2], [1.5])
    assert not isinstance(exc.value, NonPropagatingIncidenceError)
    with pytest.raises(ValueError, match="incident order 2 outside 0..1"):
        scan_transmission(params, [0.2], [1.5], incident_order=2)


def _point_rows(params, kappa_grid, omega_grid, order=0):
    """The scan rows, one solve_scattering call per point."""
    incident = IncidentField.unit_left(params.N, order)
    rows = []
    for kap in kappa_grid:
        for om in omega_grid:
            try:
                sol = solve_scattering(params, BlochPoint(kap, om), incident)
            except ThresholdError:
                rows.append((np.nan, np.nan, np.nan, "threshold"))
                continue
            except NonPropagatingIncidenceError:
                rows.append((np.nan, np.nan, np.nan,
                             "incident_not_propagating"))
                continue
            rows.append((sol.T, sol.R, sol.energy_residual,
                         ";".join(sol.flags)))
    return rows


def _assert_rows_match(params, kappa_grid, omega_grid, order=0):
    """scan_transmission (one stacked solve per kappa row) against point
    solves: T, R and residual within 1e-12, identical flags."""
    rows = scan_transmission(params, kappa_grid, omega_grid, order)
    ref = _point_rows(params, kappa_grid, omega_grid, order)
    assert len(rows) == len(ref)
    for row, want in zip(rows, ref):
        assert row[5] == want[3]
        got, exp = np.array(row[2:5]), np.array(want[:3])
        assert np.array_equal(np.isnan(got), np.isnan(exp))
        ok = ~np.isnan(exp)
        assert np.all(np.abs(got[ok] - exp[ok]) <= 1e-12)
    return {flag for row in rows for flag in row[5].split(";")}


def test_scan_rows_match_point_solves():
    # seeded structures, N = 1..8, real and complex couplings; every row
    # carries the exact threshold frequencies of two of its orders, so it
    # crosses thresholds, and spans the multi-propagating band and points
    # where the incident order does not propagate
    rng = np.random.default_rng(44)
    flags, orders = set(), set()
    for N in range(1, 9):
        for complex_gamma in (False, True):
            gammas = rng.uniform(0.2, 3.0, N)
            if complex_gamma:
                gammas = gammas * np.exp(1j * rng.uniform(-np.pi, np.pi, N))
            params = StructureParams(N, rng.uniform(0.5, 2.0, N),
                                     rng.uniform(0.5, 2.0, N), gammas)
            kap = rng.uniform(-0.5, 0.5)
            cos = np.cos(2 * np.pi * (kap + np.arange(N)) / N)
            omegas = np.sort(np.concatenate([
                np.linspace(0.05, 7.95, 60),
                4.0 - 2.0 * (1.0 + cos[:2]), 4.0 - 2.0 * (-1.0 + cos[:2])]))
            order = int(rng.integers(N))
            orders.add(order)
            flags |= _assert_rows_match(params, [kap, -kap], omegas, order)
    assert {"threshold", "incident_not_propagating",
            "multi_prop_flux_weighted", ""} <= flags
    assert max(orders) > 0


def test_scan_row_through_guided_mode(fixture1):
    # the row at the embedded mode's kappa contains its frequency exactly:
    # K is singular to working precision there, so that point takes the
    # least-squares path while the rest of the row is solved stacked
    omegas = np.sort(np.append(np.linspace(0.9, 1.05, 31), MODE1_OMEGA))
    flags = _assert_rows_match(fixture1, [MODE1_KAPPA], omegas)
    assert "near_singular" in flags
    rows = scan_transmission(fixture1, [MODE1_KAPPA], omegas)
    assert [r[5] for r in rows].count("near_singular") == 1


def test_row_condition_is_exact_or_a_bound(fixture1):
    # at every solved point of a row, condition is cond_2(K) of an SVD where
    # it exceeds CERTIFY_SHARE * COND_LIMIT, and elsewhere lies in
    # [cond_2(K), CERTIFY_SHARE * COND_LIMIT] (but for rounding, as in the
    # stack test); near_singular is the SVD's decision.  The row closes in
    # on the mode geometrically, so its points lie on both sides of both
    # limits, and its last point is refused.
    offsets = np.geomspace(1e-16, 1e-2, 43)
    omegas = np.sort(np.concatenate([MODE1_OMEGA - offsets, [MODE1_OMEGA],
                                     MODE1_OMEGA + offsets, [7.9]]))
    row = solve_row(fixture1, MODE1_KAPPA, omegas)
    ok = ~np.isnan(row.T)
    K = _chain_kernel(fixture1, MODE1_KAPPA, omegas[ok],
                      _classify(2, MODE1_KAPPA, omegas[ok])[1])[0]
    exact, cond = _condition(K), row.condition[ok]
    svd = cond > CERTIFY_SHARE * COND_LIMIT
    assert (cond[svd] == exact[svd]).all()
    assert (exact[~svd] * (1.0 - 2 * EPS * exact[~svd]) <= cond[~svd]).all()
    near = np.array(["near_singular" in f for f in row.flags])
    assert (near[ok] == (exact > COND_LIMIT)).all()
    assert svd.sum() > near.sum() > 0 and (~svd).any()
    assert ok[:-1].all() and np.isnan(row.condition[-1])


def test_row_certifies_a_one_point_chunk(fixture1, monkeypatch):
    # a row of five points split into chunks of two ends in a chunk of one,
    # which is certified as its neighbours are (the bound, no SVD): every
    # number of the row is the unsplit row's, bit for bit; a row of one
    # still reports the exact cond_2
    omegas = np.linspace(1.2, 1.6, 5)
    whole = solve_row(fixture1, 0.2, omegas)
    monkeypatch.setattr(latres.scattering, "STACK_BYTES",
                        2 * 16 * fixture1.N ** 2)
    assert [len(range(5)[c]) for c in latres.scattering._chunks(
        5, 16 * fixture1.N ** 2)] == [2, 2, 1]
    split = solve_row(fixture1, 0.2, omegas)
    for name in ("a_minus", "b_plus", "c", "T", "R", "condition"):
        assert getattr(split, name).tobytes() == getattr(whole, name).tobytes()
    assert split.flags == whole.flags
    K = _chain_kernel(fixture1, 0.2, omegas, _classify(2, 0.2, omegas)[1])[0]
    assert (split.condition > _condition(K)).all()
    one = solve_row(fixture1, 0.2, omegas[-1:])
    assert one.condition[0] == _condition(K[-1:])[0]


def test_scan_empty_omega_grid(tmp_path, fixture1):
    config = tmp_path / "structure.json"
    config.write_text(json.dumps(fixture1.to_dict()))
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(config), "--out", str(out),
                 "--kappa-grid=0,0.5,3", "--omega-grid=1,2,0"]) == 0
    assert out.read_text() == "kappa,omega,T,R,energy_residual,flags\n"


def test_scan_logs_counts(fixture1, caplog):
    # one solved point, the near-singular mode point, a threshold point and
    # a point where order 0 does not propagate
    caplog.set_level(logging.DEBUG, logger="latres")
    scan_transmission(fixture1, [MODE1_KAPPA], [1.5, MODE1_OMEGA, 7.9])
    scan_transmission(fixture1, [0.0], [4.0])
    # a row whose every point the solve certifies, without an SVD: the line
    # reads the largest of the row's bounds, each at least the condition
    # number of np.linalg.cond
    omegas = np.linspace(1.2, 3.0, 7)
    row = solve_row(fixture1, 0.2, omegas)
    # the row keeps no stack of K (3-D)
    assert all(np.ndim(a) < 3 for a in vars(row).values()
               if isinstance(a, np.ndarray))
    K = _chain_kernel(fixture1, 0.2, omegas,
                      _classify_off_threshold(2, 0.2, omegas)[1])[0]
    assert (row.condition >= np.linalg.cond(K)).all()
    scan_transmission(fixture1, [0.2], omegas)
    lines = [r.getMessage() for r in caplog.records if r.name == "latres"]
    assert len(lines) == 3
    worst = "worst condition (bound at certified points) "
    assert lines[0].startswith(
        "scan: 2 points solved, 0 threshold, 1 incident not propagating, "
        "1 near_singular, " + worst)
    assert float(lines[0].rsplit(" ", 1)[1]) > 1e12
    assert lines[1] == ("scan: 0 points solved, 1 threshold, 0 incident not "
                        "propagating, 0 near_singular, " + worst + "nan")
    assert lines[2] == ("scan: 7 points solved, 0 threshold, 0 incident not "
                        "propagating, 0 near_singular, " + worst
                        + f"{row.condition.max():.3g}")


def test_scan_csv_unchanged_by_debug_log(tmp_path, fixture1, monkeypatch,
                                         capsys):
    config = tmp_path / "structure.json"
    config.write_text(json.dumps(fixture1.to_dict()))
    texts = []
    for level in ("WARNING", "DEBUG"):
        monkeypatch.setenv("LATRES_LOG", level)
        out = tmp_path / f"{level}.csv"
        assert main(["scan", "--config", str(config), "--out", str(out),
                     "--kappa-grid=0,0.5,3", "--omega-grid=0.5,3.5,7"]) == 0
        texts.append(out.read_text())
        assert capsys.readouterr().out == ""
    assert texts[0] == texts[1]
