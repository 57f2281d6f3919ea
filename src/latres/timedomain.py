"""Explicit time integration of the coupled chain-lattice dynamics.

The state s = (z, u) evolves by ds/dt = -i H s, where H is the sparse
`structure.strip_operator`: chain, lattice stencil and coupling along m = 0
on the strip |m| <= Mx, closed with zero-Dirichlet walls at m = +-Mx and a
Bloch-twisted wrap in n.  That keeps H exactly Hermitian, so norm
conservation is limited only by the integrator.

H commutes with the mirror m -> -m, so the dynamics splits into two parity
sectors that never mix.  A state even in m (u_-m = u_m) is fixed by z and
its rows m >= 0; one odd in m (z = 0, u_-m = -u_m) by its rows m >= 1, and
never reaches the chain, since u_0 = 0.  `_sector_operator` restricts H to
either sector by index arithmetic on its CSR arrays, so a pulse of pure
parity, as `gaussian_pulse` makes, steps about half the unknowns.  A state
of neither parity is stepped on the whole strip with H itself, as it is:
splitting it would cost a second operator and round every mirror pair.
Each vector holds the state's own entries, so every state splits and
rebuilds exactly.

For this linear system one classical RK4 step is s <- p(A) s with
A = -i dt H and p(x) = 1 + x + x^2/2 + x^3/6 + x^4/24, the RK4
amplification polynomial.  `_rk4_factors` writes p(A) as the product of
four sparse factors A - r_k I over the roots r_k of p, on the sparsity
pattern of the operator stepped.  For N <= 2 `_stepper` multiplies them
into one CSR matrix P = p(A): the two n-hops of a site then land on one
site (n + 1 = n - 1 mod N), so P stores no more entries than the four
factors together, and a step is one sparse matvec, one call where the
factors take four, with no more multiply-adds.  For N >= 3 the hops fan
out and P would store more, so a step stays four matvecs.  Either way a
step does no other array work.  `evolve` builds H, the operator it steps
and its step matrices once per call and rebuilds the full state once, at
the end; `rk4_step` takes the same path for one step, and `apply_omega`
builds H per call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .structure import StructureParams, strip_operator

log = logging.getLogger("latres")

# largest relative norm drift `evolve` accepts; steps between its checks
# that the state is finite, besides the recorded steps
DRIFT_LIMIT = 1e-4
FINITE_EVERY = 16

# the roots r_k of p(x) = 1 + x + x^2/2 + x^3/6 + x^4/24 = (1/24) prod (x - r_k)
_RK4_ROOTS = (complex(-0.27055576893229455, 2.5047759043624347),
              complex(-0.27055576893229455, -2.5047759043624347),
              complex(-1.7294442310677054, 0.8889743761218658),
              complex(-1.7294442310677054, -0.8889743761218658))


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


def _sector_operator(H, N: int, mx: int, sector: str):
    """H restricted to the 'even' or 'odd' sector of the strip, in CSR.

    Index arithmetic on H's CSR arrays.  The even operator keeps the rows
    of z and of m >= 0 and folds the column of u_-m onto that of u_m, so row
    m = 0 holds -2 at m = 1.  The odd operator keeps the rows m >= 1, whose
    columns all lie at m >= 0, and drops the column m = 0, where u_0 = 0.
    """
    import scipy.sparse as sp

    rows = np.repeat(np.arange(H.shape[0]), np.diff(H.indptr))
    cols = H.indices
    first = (mx + 2) * N          # the index of u_1,0 in H, and the even size
    if sector == "even":
        # each index's even coordinate: z as it is, u_mn at N (|m| + 1) + n
        site = np.arange(H.shape[0]) - N
        fold = np.where(site < 0, site + N,
                        N * (np.abs(site // N - mx) + 1) + site % N)
        keep = (rows < N) | (rows >= first - N)
        r, c, dim = fold[rows[keep]], fold[cols[keep]], first
    else:
        keep = (rows >= first) & (cols >= first)
        r, c, dim = rows[keep] - first, cols[keep] - first, mx * N
    # the kept entries stay in row order, so they are CSR arrays already;
    # only the even fold's rows m = 0 hold unsorted and repeated columns
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=dim))])
    S = sp.csr_matrix((H.data[keep], c, indptr), shape=(dim, dim))
    S.sum_duplicates()
    return S


def _stored_diagonal(H):
    """H with every diagonal entry stored, and their positions in its data.

    H must be in canonical CSR form, as `strip_operator` and
    `_sector_operator` return it; a diagonal entry it does not store is
    added as an explicit zero.
    """
    import scipy.sparse as sp

    dim = H.shape[0]
    rows = np.repeat(np.arange(dim), np.diff(H.indptr))
    if np.count_nonzero(H.indices == rows) < dim:
        # the COO -> CSR conversion sums the added zeros into stored entries
        d = np.arange(dim)
        H = sp.csr_matrix((np.concatenate([H.data, np.zeros(dim)]),
                           (np.concatenate([rows, d]),
                            np.concatenate([H.indices, d]))), shape=H.shape)
        rows = np.repeat(d, np.diff(H.indptr))
    return H, np.flatnonzero(H.indices == rows)


def _rk4_factors(H, dt):
    """Four CSR factors B_k of one RK4 step: s <- B_4 B_3 B_2 B_1 s.

    B_k = -i dt H - r_k I, with the 1/24 of p folded into B_1.  The factors
    share the index arrays of H (with its whole diagonal stored) and differ
    only in their data.
    """
    import scipy.sparse as sp

    H, diag = _stored_diagonal(H)
    factors = []
    for r in _RK4_ROOTS:
        data = (-1j * dt) * H.data
        data[diag] -= r
        factors.append(sp.csr_matrix((data, H.indices, H.indptr),
                                     shape=H.shape))
    factors[0].data /= 24.0
    return factors


def _stepper(params: StructureParams, state: LatticeState, dt: float):
    """The vector s that steps a state, its sector (see `_split`), and the
    CSR matrices that one RK4 step applies to s in turn.

    They are built on the sector operator, or on H itself for a state of
    both parities.  For N <= 2 they are one matrix, the product
    P = B_4 B_3 B_2 B_1 of the RK4 factors, which stores no more entries
    than the factors do; for N >= 3 they are the four factors.
    """
    s, sector = _split(state)
    H = strip_operator(params, state.kappa, state.mx)
    if sector != "both":
        H = _sector_operator(H, len(state.z), state.mx, sector)
    factors = _rk4_factors(H, dt)
    if len(state.z) <= 2:
        factors = [factors[3] @ factors[2] @ factors[1] @ factors[0]]
    return s, sector, factors


def rk4_step(params: StructureParams, state: LatticeState,
             dt: float) -> LatticeState:
    """One classical Runge-Kutta step of ds/dt = -i H s."""
    s, sector, factors = _stepper(params, state, dt)
    for B in factors:
        s = B @ s
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
    s, sector, factors = _stepper(params, state, dt)

    def chain_energy(s):
        return 0.0 if sector == "odd" else float(np.vdot(s[:N], s[:N]).real)

    times = [t]
    norms = [_norm(s, sector, N)]
    wg = [chain_energy(s)]
    # a state that overflows ends in the RuntimeError below, not in warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            for B in factors:
                s = B @ s
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
              "stepped, %d matvec%s per step, max relative norm drift %.3e",
              steps, dt, sector, len(s), N + state.u.size, len(factors),
              "" if len(factors) == 1 else "s",
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
