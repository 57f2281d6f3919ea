"""Explicit time integration of the coupled chain-lattice dynamics.

The state s = (z, u) evolves by ds/dt = -i H s, with H the operator of
`structure.strip_blocks`: chain, lattice stencil and coupling along m = 0 on
the strip |m| <= Mx, zero-Dirichlet walls beyond m = +-Mx and a
Bloch-twisted wrap in n.  H is Hermitian, so norm conservation is limited
only by the integrator.

H commutes with the mirror m -> -m.  A state even in m (u_-m = u_m) is
stepped as z and its rows m >= 0, one odd in m (z = 0, u_-m = -u_m, which
never reaches the chain) as its rows m >= 1: a pulse of pure parity, as
`gaussian_pulse` makes, steps about half the unknowns.  Any other state is
stepped whole, as splitting it would round every mirror pair.  Every vector
holds the state's own entries, so every state splits and rebuilds exactly.

One classical RK4 step is s <- p(A) s with A = -i dt H and
p(x) = 1 + x + x^2/2 + x^3/6 + x^4/24.  `_stepper` applies p(A) with numpy
alone, for every N and sector: one block-Toeplitz product in m, and dense
rows of p(A) near the chain and the walls.  `evolve` builds it once per
call; `rk4_step` takes the same path for one step, and `apply_omega` builds
the CSR H of `structure.strip_operator` per call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .structure import StructureParams, strip_blocks, strip_operator

log = logging.getLogger("latres")

# largest relative norm drift `evolve` accepts; steps between its checks
# that the state is finite, besides the recorded steps
DRIFT_LIMIT = 1e-4
FINITE_EVERY = 16


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


def apply_omega(params: StructureParams, state: LatticeState):
    """The Hermitian generator applied to a state: (H1 z + G u, G* z + H2 u)."""
    hs = strip_operator(params, state.kappa, state.mx) @ _flat(state)
    return hs[:len(state.z)], hs[len(state.z):].reshape(state.u.shape)


def _split(state: LatticeState):
    """The vector `evolve` steps for a state, and the sector it holds.

    A state of pure parity is stepped on its sector alone: 'even' is
    (z, u_0, ..., u_Mx) for u_-m = u_m, and 'odd' is (u_1, ..., u_Mx) for
    z = 0 and u_-m = -u_m.  A state with both parts nonzero is stepped on
    the whole strip as (z, u), sector 'both'.  Either way the vector holds
    the state's own entries, so the split and `_join` are exact.  The zero
    state, and every state at mx = 0, is even.
    """
    mx = state.mx
    up, um = state.u[mx:], state.u[mx::-1]
    if np.array_equal(up, um):
        return np.concatenate([state.z, up.ravel()]), "even"
    if not state.z.any() and np.array_equal(up, -um):
        return up[1:].ravel(), "odd"
    return _flat(state), "both"


def _join(state: LatticeState, s: np.ndarray, sector: str,
          t: float) -> LatticeState:
    """The state that s holds at time t, the inverse of `_split`."""
    N, mx = len(state.z), state.mx
    # a copy, so that the state does not hold the whole vector
    z = np.zeros(N, dtype=complex) if sector == "odd" else s[:N].copy()
    if sector == "both":
        return replace(state, z=z, u=s[N:].reshape(state.u.shape), t=t)
    u = np.zeros_like(state.u)
    if sector == "even":
        half = s[N:].reshape(mx + 1, N)
        u[mx:], u[:mx] = half, half[:0:-1]
    else:
        half = s.reshape(mx, N)
        u[mx + 1:], u[:mx] = half, -half[::-1]
    return replace(state, z=z, u=u, t=t)


def _norm(s: np.ndarray, sector: str, N: int) -> float:
    """The full state's norm from the vector `_split` made: in a sector,
    z and u_0 count once and every row m >= 1 twice (for u_m and u_-m)."""
    once = {"even": 2 * N, "odd": 0, "both": len(s)}[sector]
    return float(np.sqrt(np.vdot(s[:once], s[:once]).real
                         + 2.0 * np.vdot(s[once:], s[once:]).real))


def _rows_of_p(blocks, dt: float, run):
    """The block rows `ball` within four steps of H of the block rows `run`,
    for H as `strip_blocks` gives it, and the rows of p(-i dt H) at `run` on
    them, dense: every path of p from `run` stays in `ball`."""
    rows, cols, kinds, palette = blocks
    N = palette.shape[1]
    ball = np.zeros(rows.max() + 1, dtype=bool)
    ball[run] = True
    for _ in range(4):
        ball[cols[ball[rows]]] = True
    # A on the rows of ball, and Horner's rule for p on its rows at run
    at, keep, n = np.cumsum(ball) - 1, ball[rows] & ball[cols], ball.sum()
    A = np.zeros((n, N, n, N), dtype=complex)
    A[at[rows[keep]], :, at[cols[keep]], :] = palette[kinds[keep]]
    A = -1j * dt * A.reshape(n * N, n * N)
    at = (N * at[run][:, None] + np.arange(N)).ravel()
    V = A[at] * 0.25
    for k in (3, 2, 1):
        V[np.arange(len(at)), at] += 1.0
        V = (V @ A) * (1.0 / k)
    V[np.arange(len(at)), at] += 1.0
    return np.flatnonzero(ball), V


def _stepper(params: StructureParams, state: LatticeState, dt: float):
    """The vector s that steps a state, its sector (see `_split`), the
    function that steps s in place, s <- p(A) s with A = -i dt H, and how
    many entries of s a step takes from dense rows of p(A).

    Away from the chain and the walls, row m of p(A) s is T_-4 s_m-4 + ...
    + T_4 s_m+4, the blocks T_j being row 4 of p(A) on nine lattice rows.
    s is the rows of a buffer with four zero rows at each end; a step
    copies every row's nine-row window, as reals, into one (rows, 18 N)
    array and multiplies it by the stacked T_j into s.  The rows within
    four steps of z, u_0 or a wall (the first five and last three, and
    u_-3..u_3 on the whole strip) then take their dense rows of p(A).
    """
    vec, sector = _split(state)
    N, mx = params.N, state.mx
    blocks = strip_blocks(params, state.kappa, mx, sector)
    T = _rows_of_p(strip_blocks(params, state.kappa, 9, "odd"), dt, [4])[1].T
    # the block product in real arithmetic, which BLAS runs faster
    stack = np.stack([np.stack([T.real, T.imag], -1),
                      np.stack([-T.imag, T.real], -1)], 1).reshape(18 * N, -1)
    r = np.arange(len(vec) // N)
    fix = np.flatnonzero((r < 5) | (r >= len(r) - 3)
                         | (sector == "both") & (np.abs(r - mx - 1) <= 3))
    # each run's dense rows, on its own ball, as one block-diagonal P
    parts = [_rows_of_p(blocks, dt, run)
             for run in np.split(fix, np.flatnonzero(np.diff(fix) > 1) + 1)]
    near = np.concatenate([ball for ball, _ in parts])
    P = np.zeros((len(fix) * N, len(near) * N), dtype=complex)
    i = j = 0
    for _, V in parts:
        P[i:i + V.shape[0], j:j + V.shape[1]] = V
        i, j = i + V.shape[0], j + V.shape[1]
    fix, near = ((N * x[:, None] + np.arange(N)).ravel() for x in (fix, near))

    buf = np.zeros((len(r) + 8, 2 * N))
    grid = buf[4:-4]
    s = grid.view(complex).reshape(-1)
    s[:] = vec
    window = np.empty((len(r), 18 * N))
    windows = np.lib.stride_tricks.as_strided(buf, window.shape, buf.strides)

    def step():
        old = s[near]
        np.copyto(window, windows)
        np.matmul(window, stack, out=grid)
        s[fix] = P @ old

    return s, sector, step, len(fix)


def rk4_step(params: StructureParams, state: LatticeState,
             dt: float) -> LatticeState:
    """One classical Runge-Kutta step of ds/dt = -i H s."""
    s, sector, step, _ = _stepper(params, state, dt)
    step()
    return _join(state, s, sector, state.t + dt)


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

    A state of pure parity is stepped on its sector alone, any other on
    the whole strip (see the module docstring).
    A non-finite dt, kappa or initial state raises ValueError.
    RuntimeError is raised once a recorded norm drifts by more than
    DRIFT_LIMIT relative to max(1, initial norm), or is not finite; every
    FINITE_EVERY steps the state is checked to be finite as well, and one
    that is not is treated as a record there, so a run that overflows stops
    within FINITE_EVERY steps.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    if not np.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    if not np.isfinite(state.kappa):
        raise ValueError(f"kappa must be finite, got {state.kappa}")
    if not (np.isfinite(state.z).all() and np.isfinite(state.u).all()):
        raise ValueError("the initial state must be finite")
    N, t = len(state.z), state.t
    s, sector, step, dense = _stepper(params, state, dt)

    def chain_energy(s):
        return 0.0 if sector == "odd" else float(np.vdot(s[:N], s[:N]).real)

    times = [t]
    norms = [_norm(s, sector, N)]
    wg = [chain_energy(s)]
    # a state that overflows ends in the RuntimeError below, not in warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            step()
            t = t + dt
            # a non-finite state's norm fails the drift test below
            if ((i + 1) % record_every and i + 1 < steps
                    and ((i + 1) % FINITE_EVERY or np.isfinite(s).all())):
                continue
            times.append(t)
            norms.append(_norm(s, sector, N))
            wg.append(chain_energy(s))
            drift = abs(norms[-1] - norms[0])
            if not drift <= DRIFT_LIMIT * max(1.0, norms[0]):
                raise RuntimeError(f"norm drift {drift:.3e} exceeds "
                                   f"{DRIFT_LIMIT}; reduce dt")
    result = EvolutionResult(state=_join(state, s, sector, t),
                             times=np.array(times), norms=np.array(norms),
                             waveguide_energy=np.array(wg))
    log.debug("evolve: %d steps of dt %g, sectors %s, %d of %d unknowns "
              "stepped, 1 block product and %d dense rows per step, max "
              "relative norm drift %.3e", steps, dt, sector, len(s),
              N + state.u.size, dense, result.norm_drift / (norms[0] or 1.0))
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
    mirrors the pulse evenly.  A negative mx, a width <= 0, or a kappa,
    center or theta that is not finite, raises ValueError.
    """
    if mx < 0:
        raise ValueError(f"pulse mx must be >= 0, got {mx}")
    if not width > 0.0:
        raise ValueError(f"pulse width must be > 0, got {width}")
    if not np.isfinite([kappa, center, theta]).all():
        raise ValueError(f"pulse kappa, center and theta must be finite, "
                         f"got {kappa}, {center} and {theta}")
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
