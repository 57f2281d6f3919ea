"""Time integration: Hermiticity, norm conservation, symmetry decoupling."""

import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from latres import timedomain
from latres.structure import StructureParams, strip_operator
from latres.timedomain import (LatticeState, _stepper, antisymmetrize,
                               apply_omega, evolve, gaussian_pulse, rk4_step)
from oracles import rk4_stages

# N = 1 at kappa = 0: the chain block is 0 and the lattice block 2
N1 = StructureParams(1, [1.0], [1.0], [0.7])
N8 = StructureParams(8, list(np.linspace(1.0, 2.0, 8)), [1.0] * 8,
                     list(np.linspace(0.5, 3.0, 8)))


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


def _sector_generator(params, kappa, mx, sector):
    """H on a parity sector, dense, from the whole strip's H: the rows of
    the sector's entries, on the columns that the mirror maps them to."""
    H = strip_operator(params, kappa, mx).toarray()
    N = params.N
    site = N + np.arange((2 * mx + 1) * N).reshape(2 * mx + 1, N)
    if sector == "both":
        return H
    if sector == "even":
        keep = np.r_[np.arange(N), site[mx:].ravel()]
        embed = H[:, keep].copy()
        embed[:, 2 * N:] += H[:, site[:mx][::-1].ravel()]
    else:
        keep = site[mx + 1:].ravel()
        embed = H[:, keep] - H[:, site[:mx][::-1].ravel()]
    return embed[keep]


@pytest.mark.parametrize("params", [N1, StructureParams(
    2, [2.0, 1.0], [1.0, 0.5], [1.0, 7.0j]), StructureParams(
    3, [1.0, 2.0, 1.5], [1.0, 0.7, 1.3], [1.0, 2.0 - 1.0j, 0.5j]), N8],
    ids=["N1", "N2", "N3", "N8"])
def test_kernel_is_the_amplification_polynomial(params):
    # entrywise, on unit vectors: small mx is where the dense rows at the
    # chain and at the walls overlap; at mx = 0 every state is even
    dt, rng = 0.1, np.random.default_rng(2)
    for kappa in (0.0, 0.31):
        for mx in (0, 1, 2, 3, 5, 9, 40):
            for parity, sector in (("even", "even"), ("odd", "odd"),
                                   ("general", "both"))[:3 if mx else 1]:
                state = _parity_state(params, kappa, mx, parity, rng)
                s, got_sector, step, _ = _stepper(params, state, dt)
                assert got_sector == sector
                A = -1j * dt * _sector_generator(params, kappa, mx, sector)
                expected = sum(np.linalg.matrix_power(A, k) / f
                               for k, f in enumerate((1, 1, 2, 6, 24)))
                got = np.empty_like(expected)
                for j in range(len(s)):
                    s[:] = 0.0
                    s[j] = 1.0
                    step()
                    got[:, j] = s
                assert np.max(np.abs(got - expected)) <= 1e-14, (
                    kappa, mx, sector)


def _parity_state(params, kappa, mx, parity, rng):
    """A random state that is even or odd in m, or neither ('general')."""
    shape = (2 * mx + 1, params.N)
    z = rng.standard_normal(params.N) + 1j * rng.standard_normal(params.N)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if parity == "even":
        u = u + u[::-1]
    elif parity == "odd":
        z, u = np.zeros_like(z), u - u[::-1]
    return LatticeState(z=z, u=u, kappa=kappa)


@st.composite
def strips(draw):
    """A random structure with complex couplings, a kappa and a strip."""
    N = draw(st.integers(1, 8))
    pos = st.lists(st.floats(0.5, 3.0), min_size=N, max_size=N)
    parts = st.floats(-3.0, 3.0)
    gammas = [complex(draw(parts), draw(parts)) for _ in range(N)]
    params = StructureParams(N, draw(pos), draw(pos), gammas)
    kappa = draw(st.just(0.0) | st.floats(-0.5, 0.5))
    return params, kappa, draw(st.integers(0, 6))


@given(strip=strips(), dt=st.floats(0.001, 0.01), steps=st.integers(1, 4),
       parity=st.sampled_from(["general", "even", "odd"]),
       seed=st.integers(0, 2**32))
@example(strip=(N1, 0.0, 3), dt=0.01, steps=2, parity="even", seed=0)
@example(strip=(N1, 0.0, 3), dt=0.01, steps=2, parity="odd", seed=0)
@example(strip=(N1, 0.0, 0), dt=0.01, steps=2, parity="general", seed=0)
def test_factored_step_matches_four_stages(strip, dt, steps, parity, seed):
    # evolve, on a parity sector or on the whole strip, against the oracle's
    # four-stage step on the whole strip; rk4_step takes the same path
    params, kappa, mx = strip
    state = _parity_state(params, kappa, mx, parity,
                          np.random.default_rng(seed))
    H = strip_operator(params, kappa, mx)
    ref = np.concatenate([state.z, state.u.ravel()])
    for _ in range(steps):
        ref = rk4_stages(H, ref, dt)
    result = evolve(params, state, dt, steps)
    got = np.concatenate([result.state.z, result.state.u.ravel()])
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert result.norms[-1] == pytest.approx(np.linalg.norm(ref), rel=1e-13)
    for _ in range(steps):
        state = rk4_step(params, state, dt)
    assert np.array_equal(state.z, result.state.z)
    assert np.array_equal(state.u, result.state.u)


@pytest.mark.parametrize("parity", ["even", "odd", "general"])
def test_chained_evolutions_equal_one_call(fixture1, parity):
    # every state splits and rebuilds exactly, so a run cut into calls, or
    # a call of no steps, repeats the one long call bit for bit
    state = _parity_state(fixture1, 0.1, 20, parity,
                          np.random.default_rng(5))
    still = evolve(fixture1, state, 0.01, 0).state
    assert np.array_equal(still.z, state.z)
    assert np.array_equal(still.u, state.u)
    whole = evolve(fixture1, state, 0.01, 60, record_every=10)
    parts = [evolve(fixture1, state, 0.01, 20, record_every=10)]
    for _ in range(2):
        parts.append(evolve(fixture1, parts[-1].state, 0.01, 20,
                            record_every=10))
    for field in ("times", "norms", "waveguide_energy"):
        joined = np.concatenate([getattr(p, field)[1:] for p in parts])
        assert np.array_equal(joined, getattr(whole, field)[1:])
    assert np.array_equal(parts[-1].state.z, whole.state.z)
    assert np.array_equal(parts[-1].state.u, whole.state.u)


@pytest.mark.parametrize("parity", ["even", "odd", "general"])
def test_wide_strip_matches_four_stages(parity):
    # at mx = 40 the dense rows at z, at u_0 and at the walls are apart, and
    # on the whole strip z's row is not next to u_0's
    state = _parity_state(N8, 0.13, 40, parity, np.random.default_rng(8))
    H = strip_operator(N8, 0.13, 40)
    ref = np.concatenate([state.z, state.u.ravel()])
    for _ in range(50):
        ref = rk4_stages(H, ref, 0.01)
    result = evolve(N8, state, 0.01, 50, record_every=10)
    got = np.concatenate([result.state.z, result.state.u.ravel()])
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_long_pulse_matches_four_stages(fixture1):
    # the benchmark's N = 2 run: a normalised pulse on mx = 80, 2000 steps
    # in calls of 100
    state = gaussian_pulse(fixture1, 80, 0.17, center=-40.0, width=10.0,
                           theta=0.23)
    state = replace(state, z=state.z / state.norm(), u=state.u / state.norm())
    H = strip_operator(fixture1, 0.17, 80)
    ref = np.concatenate([state.z, state.u.ravel()])
    for _ in range(2000):
        ref = rk4_stages(H, ref, 0.01)
    for _ in range(20):
        state = evolve(fixture1, state, 0.01, 100, record_every=10).state
    got = np.concatenate([state.z, state.u.ravel()])
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_evolve_steps_the_sector_of_the_state(fixture1, caplog):
    # a state of pure parity steps its half strip, any other the whole
    # strip; at mx = 0 there is no odd sector, so every state is even
    caplog.set_level(logging.DEBUG, logger="latres")
    rng = np.random.default_rng(3)
    for parity in ("even", "odd", "general"):
        evolve(fixture1, _parity_state(fixture1, 0.2, 5, parity, rng),
               0.01, 5)
    # odd in u but z != 0: both parities
    odd = _parity_state(fixture1, 0.2, 5, "odd", rng)
    evolve(fixture1, replace(odd, z=np.ones(2)), 0.01, 5)
    evolve(fixture1, _parity_state(fixture1, 0.2, 0, "general", rng),
           0.01, 5)
    zero = LatticeState(z=np.zeros(2), u=np.zeros((1, 2)), kappa=0.2)
    result = evolve(fixture1, zero, 0.01, 5)
    assert not result.state.u.any() and not result.norms.any()
    lines = [r.getMessage() for r in caplog.records if r.name == "latres"]
    assert [line.split(", ")[1:3] for line in lines] == [
        ["sectors even", "14 of 24 unknowns stepped"],
        ["sectors odd", "10 of 24 unknowns stepped"],
        ["sectors both", "24 of 24 unknowns stepped"],
        ["sectors both", "24 of 24 unknowns stepped"],
        ["sectors even", "4 of 4 unknowns stepped"],
        ["sectors even", "4 of 4 unknowns stepped"]]


@pytest.mark.parametrize("dt", [np.nan, np.inf])
def test_evolve_refuses_nonfinite_dt(fixture1, dt):
    state = gaussian_pulse(fixture1, mx=10, kappa=0.0, center=-5.0,
                           width=2.0)
    with pytest.raises(ValueError, match="dt must be finite"):
        evolve(fixture1, state, dt=dt, steps=20)


def test_evolve_refuses_nonfinite_state(fixture1):
    u = np.zeros((5, 2), dtype=complex)
    u[1, 0] = np.nan
    state = LatticeState(z=np.zeros(2), u=u, kappa=0.0)
    with pytest.raises(ValueError, match="initial state must be finite"):
        evolve(fixture1, state, dt=0.01, steps=20)


@pytest.mark.parametrize("kappa", [np.nan, np.inf])
def test_evolve_refuses_nonfinite_kappa(fixture1, kappa):
    # refused before H is built, not blamed on dt after a NaN norm
    state = replace(gaussian_pulse(fixture1, mx=10, kappa=0.0, center=-5.0,
                                   width=2.0), kappa=kappa)
    with pytest.raises(ValueError, match=f"kappa must be finite, got {kappa}"):
        evolve(fixture1, state, dt=0.01, steps=20)


def test_evolve_refuses_overflow(fixture1):
    # the only recorded norm is NaN: a drift that no comparison catches,
    # and numpy's overflow warnings would be errors here
    state = gaussian_pulse(fixture1, mx=10, kappa=0.0, center=-5.0,
                           width=2.0)
    with pytest.raises(RuntimeError, match="norm drift nan exceeds"):
        evolve(fixture1, state, dt=2.0, steps=400, record_every=1000)


def test_evolve_stops_soon_after_overflow(fixture1, monkeypatch):
    # the state stops being finite at step 79 of 400 with no record before
    # step 400: the check every FINITE_EVERY = 16 steps ends the run at 80
    applied = []
    stepper = timedomain._stepper

    def counted_stepper(*args):
        s, sector, step, dense = stepper(*args)

        def counted():
            applied.append(1)
            step()
        return s, sector, counted, dense

    monkeypatch.setattr(timedomain, "_stepper", counted_stepper)
    state = gaussian_pulse(fixture1, mx=10, kappa=0.0, center=-5.0,
                           width=2.0)
    with pytest.raises(RuntimeError, match="norm drift nan exceeds"):
        evolve(fixture1, state, dt=2.0, steps=400, record_every=1000)
    assert len(applied) == 80


def test_antisymmetric_data_never_excites_chain(fixture1):
    state = gaussian_pulse(fixture1, mx=30, kappa=0.05, center=-12.0,
                           width=4.0, symmetry="antisymmetric")
    state = antisymmetrize(state)
    assert not state.u[state.mx].any()   # vanishes on the line
    # only the odd sector is stepped: z stays exactly 0, and the state
    # exactly antisymmetric
    result = evolve(fixture1, state, dt=0.01, steps=400, record_every=20)
    assert not result.waveguide_energy.any() and not result.state.z.any()
    u = result.state.u
    assert not u[state.mx].any() and np.array_equal(u, -u[::-1])


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
    evolve(N8, gaussian_pulse(N8, mx=10, kappa=0.1, center=-5.0, width=2.0),
           dt=0.01, steps=3)
    lines = [r.getMessage() for r in caplog.records if r.name == "latres"]
    assert len(lines) == 2
    # the even sector has 12 rows, and a step takes rows 0-4 and 9-11 dense
    assert lines[0].startswith("evolve: 30 steps of dt 0.01, sectors even, "
                               "24 of 44 unknowns stepped, 1 block product "
                               "and 16 dense rows per step, max relative "
                               "norm drift ")
    assert float(lines[0].rsplit(" ", 1)[1]) == pytest.approx(
        result.norm_drift / result.norms[0], rel=1e-3)
    assert lines[1].startswith("evolve: 3 steps of dt 0.01, sectors even, "
                               "96 of 176 unknowns stepped, 1 block product "
                               "and 64 dense rows per step, max relative "
                               "norm drift ")


@pytest.mark.parametrize("width", [0.0, -1.0])
def test_gaussian_pulse_refuses_width(fixture1, width):
    with pytest.raises(ValueError, match="pulse width must be > 0"):
        gaussian_pulse(fixture1, mx=10, kappa=0.0, center=-5.0, width=width)


def test_gaussian_pulse_refuses_negative_mx(fixture1):
    with pytest.raises(ValueError, match="pulse mx must be >= 0, got -3"):
        gaussian_pulse(fixture1, mx=-3, kappa=0.0, center=-5.0, width=2.0)


@pytest.mark.parametrize("kwargs", [{"kappa": np.inf}, {"center": np.nan},
                                    {"theta": -np.inf}])
def test_gaussian_pulse_refuses_nonfinite(fixture1, kwargs):
    # refused before numpy warns on the non-finite carrier
    args = dict(kappa=0.0, center=-5.0, width=2.0, theta=0.25) | kwargs
    with pytest.raises(ValueError, match="must be finite"):
        gaussian_pulse(fixture1, mx=10, **args)
