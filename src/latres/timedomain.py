"""Explicit time integration of the coupled chain-lattice dynamics.

The state s = (z, u) evolves by ds/dt = -i H s, where H is the sparse
`structure.strip_operator`: chain, lattice stencil and coupling along m = 0
on the strip |m| <= Mx, closed with zero-Dirichlet walls at m = +-Mx and a
Bloch-twisted wrap in n.  That keeps H exactly Hermitian, so norm
conservation is limited only by the integrator.  `evolve` builds H once;
`rk4_step` and `apply_omega` build it per call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .structure import StructureParams, strip_operator

log = logging.getLogger("latres")

# largest relative norm drift `evolve` accepts
DRIFT_LIMIT = 1e-4


@dataclass(frozen=True)
class LatticeState:
    """Chain amplitudes z (length N) and strip field u on [-Mx, Mx] x [0, N-1]."""

    z: np.ndarray
    u: np.ndarray
    kappa: float
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=complex))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=complex))
        if self.u.ndim != 2 or self.u.shape[0] % 2 != 1:
            raise ValueError("u must be 2-d with an odd number of rows")
        if self.u.shape[1] != len(self.z):
            raise ValueError("u and z disagree on the period N")

    @property
    def mx(self) -> int:
        return (self.u.shape[0] - 1) // 2

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.z) ** 2)
                             + np.sum(np.abs(self.u) ** 2)))

    def waveguide_energy(self) -> float:
        return float(np.sum(np.abs(self.z) ** 2))


def _flat(state: LatticeState) -> np.ndarray:
    return np.concatenate([state.z, state.u.ravel()])


def _unflat(state: LatticeState, s: np.ndarray, t: float) -> LatticeState:
    N = len(state.z)
    return replace(state, z=s[:N], u=s[N:].reshape(state.u.shape), t=t)


def apply_omega(params: StructureParams, state: LatticeState):
    """The Hermitian generator applied to a state: (H1 z + G u, G* z + H2 u)."""
    hs = strip_operator(params, state.kappa, state.mx) @ _flat(state)
    return hs[:len(state.z)], hs[len(state.z):].reshape(state.u.shape)


def _rk4(H, s, dt):
    """One classical Runge-Kutta step of ds/dt = -i H s on a flat vector."""
    k1 = -1j * (H @ s)
    k2 = -1j * (H @ (s + 0.5 * dt * k1))
    k3 = -1j * (H @ (s + 0.5 * dt * k2))
    k4 = -1j * (H @ (s + dt * k3))
    return s + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_step(params: StructureParams, state: LatticeState,
             dt: float) -> LatticeState:
    """One classical Runge-Kutta step of ds/dt = -i H s."""
    H = strip_operator(params, state.kappa, state.mx)
    return _unflat(state, _rk4(H, _flat(state), dt), state.t + dt)


@dataclass(frozen=True)
class EvolutionResult:
    state: LatticeState
    times: np.ndarray
    norms: np.ndarray
    waveguide_energy: np.ndarray

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - self.norms[0])))


def evolve(params: StructureParams, state: LatticeState, dt: float,
           steps: int, record_every: int = 1) -> EvolutionResult:
    """Integrate for `steps` RK4 steps, recording norm and chain energy.

    Raises RuntimeError once the norm drifts by more than DRIFT_LIMIT
    relative to max(1, initial norm).
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    H = strip_operator(params, state.kappa, state.mx)
    s, t = _flat(state), state.t
    times = [state.t]
    norms = [state.norm()]
    wg = [state.waveguide_energy()]
    for i in range(steps):
        s = _rk4(H, s, dt)
        t = t + dt
        if (i + 1) % record_every == 0 or i + 1 == steps:
            state = _unflat(state, s, t)
            times.append(state.t)
            norms.append(state.norm())
            wg.append(state.waveguide_energy())
            if abs(norms[-1] - norms[0]) > DRIFT_LIMIT * max(1.0, norms[0]):
                raise RuntimeError(
                    f"norm drift {abs(norms[-1] - norms[0]):.3e} exceeds "
                    f"{DRIFT_LIMIT}; reduce dt")
    result = EvolutionResult(state=state, times=np.array(times),
                             norms=np.array(norms),
                             waveguide_energy=np.array(wg))
    log.debug("evolve: %d steps of dt %g, %d unknowns, max relative norm "
              "drift %.3e", steps, dt, len(s),
              result.norm_drift / (norms[0] or 1.0))
    return result


def antisymmetrize(state: LatticeState) -> LatticeState:
    """Project u onto the m-antisymmetric subspace (u_{-m,n} = -u_{mn})."""
    u = 0.5 * (state.u - state.u[::-1])
    return replace(state, u=u)


def gaussian_pulse(params: StructureParams, mx: int, kappa: float,
                   center: float, width: float, theta: float = 0.25,
                   symmetry: str = "symmetric") -> LatticeState:
    """A localized wavepacket on the strip with z = 0.

    The envelope is a Gaussian in m centered at `center`, modulated by a
    plane-wave carrier e^{2 pi i theta m}; symmetry 'antisymmetric' makes
    u_{mn} = -u_{-m,n} (so the coupling line value vanishes), 'symmetric'
    mirrors the pulse evenly.  A width <= 0 raises ValueError.
    """
    if not width > 0.0:
        raise ValueError(f"pulse width must be > 0, got {width}")
    m = np.arange(-mx, mx + 1, dtype=float)
    env = np.exp(-((m - center) / width) ** 2) * np.exp(2j * np.pi * theta * m)
    if symmetry == "antisymmetric":
        prof = env - env[::-1]
    elif symmetry == "symmetric":
        prof = env + env[::-1]
    else:
        raise ValueError("symmetry must be 'symmetric' or 'antisymmetric'")
    n = np.arange(params.N)
    trans = np.exp(2j * np.pi * kappa * n / params.N)
    u = np.outer(prof, trans)
    return LatticeState(z=np.zeros(params.N, dtype=complex), u=u, kappa=kappa)
