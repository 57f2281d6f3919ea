"""Time integration: Hermiticity, norm conservation, symmetry decoupling."""

import logging

import numpy as np
import pytest

from latres.structure import StructureParams, strip_operator
from latres.timedomain import (LatticeState, antisymmetrize, apply_omega,
                               evolve, gaussian_pulse, rk4_step)


def test_state_validation():
    with pytest.raises(ValueError):
        LatticeState(z=np.zeros(2), u=np.zeros((4, 2)), kappa=0.0)  # even rows
    with pytest.raises(ValueError):
        LatticeState(z=np.zeros(3), u=np.zeros((5, 2)), kappa=0.0)  # N mismatch


def test_generator_is_hermitian(fixture1):
    # entrywise, on fixture 1 and on an N = 3 structure with complex gamma
    n3 = StructureParams(3, [1.0, 2.0, 1.5], [1.0, 0.7, 1.3],
                         [1.0, 2.0 - 1.0j, 0.5j])
    for params in (fixture1, n3):
        for kappa in (0.0, 0.23):
            H = strip_operator(params, kappa, 10)
            assert abs(H - H.conj().T).max() <= 1e-15


def test_rk4_norm_drift(fixture1):
    state = gaussian_pulse(fixture1, mx=40, kappa=0.1, center=-20.0,
                           width=5.0, symmetry="symmetric")
    nrm = state.norm()
    state = LatticeState(z=state.z / nrm, u=state.u / nrm, kappa=state.kappa)
    result = evolve(fixture1, state, dt=0.002, steps=1000, record_every=100)
    assert result.norm_drift <= 1e-8


def test_rk4_fourth_order_convergence(fixture1):
    state = gaussian_pulse(fixture1, mx=12, kappa=0.0, center=-6.0,
                           width=2.0, symmetry="symmetric")
    # reference with a very small step
    ref = state
    for _ in range(64):
        ref = rk4_step(fixture1, ref, 1.0 / 64)
    errs = []
    for steps in (4, 8):
        s = state
        for _ in range(steps):
            s = rk4_step(fixture1, s, 1.0 / steps)
        errs.append(np.max(np.abs(s.u - ref.u)))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.5


def test_antisymmetric_data_never_excites_chain(fixture1):
    state = gaussian_pulse(fixture1, mx=30, kappa=0.05, center=-12.0,
                           width=4.0, symmetry="antisymmetric")
    state = antisymmetrize(state)
    assert np.max(np.abs(state.u[state.mx])) < 1e-14   # vanishes on the line
    result = evolve(fixture1, state, dt=0.01, steps=400, record_every=20)
    assert np.max(result.waveguide_energy) <= 1e-24
    assert np.max(np.abs(result.state.z)) <= 1e-12


def test_symmetric_pulse_excites_chain(fixture1):
    state = gaussian_pulse(fixture1, mx=30, kappa=0.05, center=-12.0,
                           width=4.0, symmetry="symmetric")
    result = evolve(fixture1, state, dt=0.01, steps=400, record_every=20)
    assert np.max(result.waveguide_energy) > 1e-6


def test_antisymmetrize_projector(fixture1, rng):
    u = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
    state = LatticeState(z=np.zeros(2), u=u, kappa=0.0)
    anti = antisymmetrize(state)
    assert np.max(np.abs(anti.u + anti.u[::-1])) < 1e-14
    assert np.max(np.abs(antisymmetrize(anti).u - anti.u)) < 1e-14


def test_evolution_records_times(fixture1):
    state = gaussian_pulse(fixture1, mx=10, kappa=0.0, center=-5.0,
                           width=2.0, symmetry="symmetric")
    result = evolve(fixture1, state, dt=0.01, steps=50, record_every=10)
    assert result.times[0] == 0.0
    assert result.times[-1] == pytest.approx(0.5)
    assert len(result.norms) == len(result.times)


def test_apply_omega_matches_quadratic_form(fixture1, rng):
    # <s, H s> is real for a Hermitian generator
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    u = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    state = LatticeState(z=z, u=u, kappa=0.17)
    hz, hu = apply_omega(fixture1, state)
    q = np.vdot(z, hz) + np.vdot(u.ravel(), hu.ravel())
    assert abs(q.imag) < 1e-12


def test_evolve_logs_steps_and_drift(fixture1, caplog):
    caplog.set_level(logging.DEBUG, logger="latres")
    state = gaussian_pulse(fixture1, mx=10, kappa=0.1, center=-5.0,
                           width=2.0)
    result = evolve(fixture1, state, dt=0.01, steps=30, record_every=10)
    lines = [r.getMessage() for r in caplog.records if r.name == "latres"]
    assert len(lines) == 1
    assert lines[0].startswith("evolve: 30 steps of dt 0.01, 44 unknowns, "
                               "max relative norm drift ")
    assert float(lines[0].rsplit(" ", 1)[1]) == pytest.approx(
        result.norm_drift / result.norms[0], rel=1e-3)
