"""Truncated-strip solver with the outgoing boundary map."""

import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latres.structure import (BlochPoint, StructureParams, ThresholdError,
                              classify_harmonics)
from latres.scattering import IncidentField, solve_scattering, reconstruct_field
from latres.dtn import (cross_validate, default_truncation, dtn_apply,
                        dtn_matrix, dtn_multipliers, solve_truncated)

from oracles import truncated_system

POINT = BlochPoint(0.2, 1.5)


def test_multipliers_match_exponents(fixture1):
    hs = classify_harmonics(fixture1, POINT)
    mult = dtn_multipliers(hs)
    assert np.allclose(mult, 1.0 - np.exp(2j * np.pi * hs.theta))
    # propagating order: |e^{2 pi i theta}| = 1; evanescent: inside unit disk
    assert abs(np.exp(2j * np.pi * hs.theta[0])) == pytest.approx(1.0)
    assert abs(np.exp(2j * np.pi * hs.theta[1])) < 1.0


def test_apply_diagonalizes_harmonics(fixture1):
    hs = classify_harmonics(fixture1, POINT)
    n = np.arange(2)
    for l, h in enumerate(hs.harmonics):
        trace = np.exp(2j * np.pi * h.phi * n)
        out = dtn_apply(hs, trace)
        mult = 1.0 - np.exp(2j * np.pi * h.theta)
        assert np.max(np.abs(out - mult * trace)) < 1e-12


def test_matrix_matches_apply(fixture1, rng):
    hs = classify_harmonics(fixture1, POINT)
    T = dtn_matrix(hs)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert np.max(np.abs(T @ v - dtn_apply(hs, v))) < 1e-12


def test_default_truncation_decay_rule(fixture1):
    hs = classify_harmonics(fixture1, POINT)
    M = default_truncation(hs)
    tau = min(h.theta.imag for h in hs.harmonics if h.theta.imag > 0)
    assert np.exp(-2 * np.pi * tau * M) < 1e-10
    assert np.exp(-2 * np.pi * tau * (M - 1)) >= 1e-10


def test_truncated_solution_residual(fixture1):
    trunc = solve_truncated(fixture1, POINT, M=8)
    assert trunc.u.shape == (2 * 8 + 3, 2)
    assert trunc.residual < 1e-12


def test_cross_validation_at_floor(fixture1):
    # the boundary map is exact per harmonic, so the two solvers agree to
    # roundoff at every truncation width
    for M in (5, 10, 25):
        assert cross_validate(fixture1, POINT, M=M) < 1e-12


def test_cross_validation_right_incidence(fixture1):
    err = cross_validate(fixture1, POINT, IncidentField.unit_right(2), M=10)
    assert err < 1e-12


@pytest.mark.parametrize("N", [1, 3, 8])
def test_cross_validation_complex_coupling(N):
    # complex gamma tells the coupling from its conjugate; N = 1 puts both
    # wraps of the lattice stencil on one site
    rng = np.random.default_rng(100 + N)
    params = StructureParams(
        N, rng.uniform(0.5, 2.0, N), rng.uniform(0.5, 2.0, N),
        rng.uniform(0.2, 3.0, N) * np.exp(1j * rng.uniform(-np.pi, np.pi, N)))
    checked = 0
    while checked < 3:
        point = BlochPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 7.7))
        hs = classify_harmonics(params, point)
        taus = [h.theta.imag for h in hs.harmonics if h.theta.imag > 0]
        if (0 not in hs.propagating or hs.has_threshold
                or min(taus, default=1.0) < 0.05):
            continue
        for incident in (IncidentField.unit_left(N),
                         IncidentField.unit_right(N)):
            assert cross_validate(params, point, incident) < 1e-11
        checked += 1


@pytest.mark.parametrize("complex_gamma", [False, True])
@pytest.mark.parametrize("N", [1, 2, 3, 8])
def test_banded_solve_matches_sparse_oracle(N, complex_gamma):
    """(z, u) solve `oracles.truncated_system`, the sparse assembly from
    `strip_operator`, and equal its SuperLU solution.

    Gates: the normwise backward error max|A X - F| / (||A||_inf max|X|
    + max|F|) and the distance to spsolve's X relative to its max are each
    at most 1e-12, for left, right and two-sided incidence at M = 2, 3 and
    the default width.
    """
    from scipy.sparse.linalg import spsolve

    rng = np.random.default_rng([N, complex_gamma])
    gammas = rng.uniform(0.2, 3.0, N)
    if complex_gamma:
        gammas = gammas * np.exp(1j * rng.uniform(-np.pi, np.pi, N))
    params = StructureParams(N, rng.uniform(0.5, 2.0, N),
                             rng.uniform(0.5, 2.0, N), gammas)
    checked = 0
    while checked < 2:
        point = BlochPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 7.7))
        hs = classify_harmonics(params, point)
        taus = hs.theta.imag[~hs.propagating_mask]
        if 0 not in hs.propagating or hs.has_threshold or (taus < 0.05).any():
            continue
        prop = hs.propagating_mask
        amps = [rng.standard_normal(N) + 1j * rng.standard_normal(N)
                for _ in range(2)]
        both = IncidentField(*(np.where(prop, a, 0.0) for a in amps))
        for incident in (IncidentField.unit_left(N),
                         IncidentField.unit_right(N), both):
            for M in (2, 3, None):
                trunc = solve_truncated(params, point, incident, M)
                A, F, width = truncated_system(params, point, incident, M)
                assert trunc.M == width
                X = np.r_[trunc.z, trunc.u.ravel()]
                scale = (abs(A).sum(axis=1).max() * np.max(np.abs(X))
                         + np.max(np.abs(F)))
                assert np.max(np.abs(A @ X - F)) <= 1e-12 * scale
                assert np.max(np.abs(trunc.residual_vector - (A @ X - F))
                              ) <= 1e-14 * scale
                ref = spsolve(A, F)
                assert np.max(np.abs(X - ref)) <= 1e-12 * np.max(np.abs(ref))
        checked += 1


_unit = st.floats(0.5, 2.0)


@st.composite
def _resolved_cases(draw):
    """A structure with N in 1..8 and complex couplings, and a real point
    where order 0 propagates and no decaying order has Im theta < 0.08 (the
    points `latres validate` cross-checks)."""
    N = draw(st.integers(1, 8))
    params = StructureParams(
        N, draw(st.lists(_unit, min_size=N, max_size=N)),
        draw(st.lists(_unit, min_size=N, max_size=N)),
        draw(st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                         allow_infinity=False),
                      min_size=N, max_size=N)))
    point = BlochPoint(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.3, 7.7)))
    hs = classify_harmonics(params, point)
    taus = hs.theta.imag[~(hs.propagating_mask | hs.threshold_mask)]
    assume(hs.propagating_mask[0] and not hs.has_threshold
           and not (taus < 0.08).any())
    return params, point


@settings(max_examples=60)
@given(_resolved_cases())
def test_cross_validate_property(case):
    # the Fourier and DtN solvers agree within the gate `validate` uses
    assert cross_validate(*case) <= 1e-8


def test_truncated_matches_fourier_chain(fixture1):
    trunc = solve_truncated(fixture1, POINT, M=12)
    four = solve_scattering(fixture1, POINT)
    _, z_ref = reconstruct_field(four, 0, np.arange(2))
    assert np.max(np.abs(trunc.z - z_ref)) < 1e-12


def test_minimum_width_enforced(fixture1):
    with pytest.raises(ValueError):
        solve_truncated(fixture1, POINT, M=1)


def test_threshold_rejected(fixture1):
    with pytest.raises(ThresholdError):
        solve_truncated(fixture1, BlochPoint(0.0, 4.0))


def test_solve_logs_size_and_residual(fixture1, caplog):
    caplog.set_level(logging.DEBUG, logger="latres")
    trunc = solve_truncated(fixture1, POINT, M=8)
    lines = [r.getMessage() for r in caplog.records if r.name == "latres"]
    assert len(lines) == 1
    assert lines[0].startswith("solve_truncated: M=8, 40 unknowns, residual ")
    assert float(lines[0].rsplit(" ", 1)[1]) == pytest.approx(
        trunc.residual, rel=1e-3)
