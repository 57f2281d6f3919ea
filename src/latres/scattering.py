"""Frequency-domain scattering by the coupled chain: assembly and solve.

The total field is expanded in Fourier orders on each side of the coupling
line m = 0, u_{mn} = sum_l (incoming + outgoing) e^{2 pi i (theta_l m + phi_l n)},
and the chain displacement z_n = sum_l c_l e^{2 pi i phi_l n}.  Matching the
two expansions at m = 0, the m = 0 lattice equation, and the chain equation at
n = 0..N-1 yields a 3N x 3N linear system for the outgoing coefficients
(a_minus, b_plus) and the chain coefficients c (`assemble_system`).
Eliminating the continuity and m = 0 lattice rows by hand leaves the N x N
chain system K(kappa, omega) z = gamma * u_inc that `solve_scattering` solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .structure import (LINEAR_THRESHOLD, BlochPoint, HarmonicSet,
                        StructureParams, ThresholdError, _harmonic_arrays,
                        classify_harmonics, waveguide_band_matrix)

TWO_PI = 2.0 * np.pi


def _unit_amplitudes(N, order):
    """Unit amplitude on one order, which must be one of 0..N-1."""
    if not 0 <= order < N:
        raise ValueError(f"incident order {order} outside 0..{N - 1}")
    amp = np.zeros(N, dtype=complex)
    amp[order] = 1.0
    return amp


@dataclass(frozen=True)
class IncidentField:
    """Incoming amplitudes per order: a_inc from the left, b_inc from the right.

    Amplitudes should be nonzero only on propagating orders; full-length
    arrays are accepted and validated at solve time.
    """

    a_inc: np.ndarray
    b_inc: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a_inc", np.asarray(self.a_inc, dtype=complex))
        object.__setattr__(self, "b_inc", np.asarray(self.b_inc, dtype=complex))

    @staticmethod
    def unit_left(N: int, order: int = 0) -> "IncidentField":
        return IncidentField(_unit_amplitudes(N, order),
                             np.zeros(N, dtype=complex))

    @staticmethod
    def unit_right(N: int, order: int = 0) -> "IncidentField":
        return IncidentField(np.zeros(N, dtype=complex),
                             _unit_amplitudes(N, order))

    @staticmethod
    def none(N: int) -> "IncidentField":
        z = np.zeros(N, dtype=complex)
        return IncidentField(z, z.copy())

    def scaled(self, alpha: complex) -> "IncidentField":
        return IncidentField(alpha * self.a_inc, alpha * self.b_inc)


@dataclass(frozen=True)
class ScatteringSystem:
    """The assembled linear system B X = F.

    Unknown ordering: (a_minus_0..a_minus_{N-1}, b_plus_0.., c_0..).
    Row ordering: continuity at m=0 (n=0..N-1), the m=0 lattice equation,
    then the chain equation.
    """

    B: np.ndarray
    F: np.ndarray
    harmonics: HarmonicSet


class NonPropagatingIncidenceError(ValueError):
    """Incident amplitude on an order that does not propagate."""


def _harmonics_off_threshold(N, kappa, omega):
    """_harmonic_arrays, refusing points where an order sits on a threshold."""
    phi, theta, kinds, prop = _harmonic_arrays(N, kappa, omega)
    if LINEAR_THRESHOLD in kinds:
        raise ThresholdError(
            f"harmonic on a threshold curve at (kappa={kappa}, omega={omega})")
    return phi, theta, kinds, prop


def _chain_kernel(params, kappa, omega, phi, theta):
    """The reduced chain matrix K, P, P^-1 and s = 2i sin 2 pi theta.

    K = omega - A(kappa) - diag(gamma) P diag(1/s) P^-1 diag(conj gamma), with
    A the chain's band matrix, P[n, l] = e^{2 pi i phi_l n} and, as the phi_l
    differ by l/N, P^-1[l, n] = e^{-2 pi i phi_l n} / N (P^H / N if kappa is real).
    """
    N = params.N
    P = np.exp(2j * np.pi * np.outer(np.arange(N), phi))
    Pinv = np.exp(-2j * np.pi * np.outer(phi, np.arange(N))) / N
    s = 2j * np.sin(TWO_PI * theta)
    gam = params.gammas
    K = (omega * np.eye(N) - waveguide_band_matrix(params, kappa)
         - (gam[:, None] * P / s) @ (Pinv * np.conj(gam)))
    return K, P, Pinv, s


def _assemble(params, kappa, omega, a_full, b_full):
    """Assemble the 3N system; returns (B, F, prop)."""
    N = params.N
    phi, theta, _, prop = _harmonics_off_threshold(N, kappa, omega)
    P = np.exp(2j * np.pi * np.outer(np.arange(N), phi))
    E = np.exp(2j * np.pi * theta)
    gam = params.gammas

    B = np.zeros((3 * N, 3 * N), dtype=complex)
    F = np.zeros(3 * N, dtype=complex)

    # (i) continuity of the two expansions at m = 0
    B[:N, :N] = P
    B[:N, N:2 * N] = -P
    F[:N] = P @ (b_full - a_full)

    # (ii) lattice equation on the coupling line m = 0, with u at m = -1 from
    # the left expansion and m = +1 from the right expansion
    B[N:2 * N, :N] = P * E[None, :]
    B[N:2 * N, N:2 * N] = -P / E[None, :]
    B[N:2 * N, 2 * N:] = -np.conj(gam)[:, None] * P
    F[N:2 * N] = P @ (b_full * E) - P @ (a_full / E)

    # (iii) chain equation (omega - A) z = gamma u at m = 0
    B[2 * N:, 2 * N:] = (omega * np.eye(N)
                         - waveguide_band_matrix(params, kappa)) @ P
    B[2 * N:, N:2 * N] = -gam[:, None] * P
    F[2 * N:] = gam * (P @ b_full)

    return B, F, prop


def assemble_system(params: StructureParams, point: BlochPoint,
                    incident: IncidentField = None) -> ScatteringSystem:
    """Build the 3N x 3N system at a Bloch point (the reference for K)."""
    if incident is None:
        incident = IncidentField.none(params.N)
    B, F, _ = _assemble(params, point.kappa, point.omega,
                        incident.a_inc, incident.b_inc)
    hs = classify_harmonics(params, point)
    return ScatteringSystem(B=B, F=F, harmonics=hs)


@dataclass(frozen=True)
class ScatteringSolution:
    """Outgoing and chain coefficients plus energy bookkeeping."""

    params: StructureParams
    point: BlochPoint
    incident: IncidentField
    harmonics: HarmonicSet
    a_minus: np.ndarray
    b_plus: np.ndarray
    c: np.ndarray
    T: float
    R: float
    energy_residual: float
    incident_flux: float
    condition: float
    flags: tuple = field(default=())


def _flux_quantities(theta, prop, a_inc, b_inc, a_minus, b_plus):
    """Per-order flux sums; conservation residual per the flux identity."""
    s = np.sin(TWO_PI * np.real(theta[prop]))
    inc = np.sum((np.abs(a_inc[prop]) ** 2 + np.abs(b_inc[prop]) ** 2) * s)
    out_t = np.sum(np.abs(b_plus[prop]) ** 2 * s)
    out_r = np.sum(np.abs(a_minus[prop]) ** 2 * s)
    resid = abs(np.sum(
        ((np.abs(b_plus[prop]) ** 2 + np.abs(a_minus[prop]) ** 2)
         - (np.abs(a_inc[prop]) ** 2 + np.abs(b_inc[prop]) ** 2)) * s))
    return inc, out_t, out_r, resid


def solve_scattering(params: StructureParams, point: BlochPoint,
                     incident: IncidentField = None,
                     cond_limit: float = 1e12) -> ScatteringSolution:
    """Solve the N x N chain system K z = gamma * u_inc and recover T, R.

    The outgoing coefficients follow from z through the common trace U:
    a_minus = U - a_inc, b_plus = U - b_inc, and c = P^-1 z.  In the
    single-propagating regime with unit left incidence, T = |b_plus| and
    R = |a_minus| on the propagating order.  With several propagating
    orders, T and R are flux-weighted aggregates (flagged in the output).
    `condition` is the 2-norm condition number of K; when it exceeds
    cond_limit (at guided-mode parameters) a minimum-norm least-squares
    solution is returned and flagged.
    """
    N = params.N
    if incident is None:
        incident = IncidentField.unit_left(N)
    hs = classify_harmonics(params, point)
    if hs.has_threshold:
        raise ThresholdError(f"harmonic on a threshold curve at "
                             f"(kappa={point.kappa}, omega={point.omega})")
    theta, prop = hs.theta, np.array(hs.propagating, dtype=int)
    if point.is_real:
        bad = [l for l in range(N) if l not in prop
               and (incident.a_inc[l] != 0 or incident.b_inc[l] != 0)]
        if bad:
            raise NonPropagatingIncidenceError(
                f"incident amplitude on non-propagating order(s) {bad}")

    K, P, Pinv, s = _chain_kernel(params, point.kappa, point.omega, hs.phi,
                                  theta)
    u_inc = incident.a_inc + incident.b_inc
    rhs = params.gammas * (P @ u_inc)
    sv = np.linalg.svd(K, compute_uv=False)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    flags = []
    if cond > cond_limit:
        z, *_ = np.linalg.lstsq(K, rhs, rcond=1e-12)
        flags.append("near_singular")
    else:
        z = np.linalg.solve(K, rhs)
    U = u_inc + Pinv @ (np.conj(params.gammas) * z) / s
    a_minus, b_plus, c = U - incident.a_inc, U - incident.b_inc, Pinv @ z

    if point.is_real and len(prop) > 0:
        inc, out_t, out_r, resid = _flux_quantities(
            theta, prop, incident.a_inc, incident.b_inc, a_minus, b_plus)
        if len(prop) == 1:
            T, R = float(np.abs(b_plus[prop[0]])), float(np.abs(a_minus[prop[0]]))
        else:
            T = float(np.sqrt(out_t / inc)) if inc > 0 else 0.0
            R = float(np.sqrt(out_r / inc)) if inc > 0 else 0.0
            flags.append("multi_prop_flux_weighted")
    else:
        inc, resid = 0.0, 0.0
        T = R = float("nan")
        if not point.is_real:
            flags.append("complex_point")

    return ScatteringSolution(
        params=params, point=point, incident=incident, harmonics=hs,
        a_minus=a_minus, b_plus=b_plus, c=c, T=T, R=R,
        energy_residual=float(resid), incident_flux=float(inc),
        condition=float(cond), flags=tuple(flags))


def reconstruct_field(sol: ScatteringSolution, m, n):
    """Evaluate (u_mn, z_n) from the expansions; left for m<=0, right for m>=0."""
    phi = sol.harmonics.phi
    theta = sol.harmonics.theta
    m = np.asarray(m)
    ey = np.exp(2j * np.pi * np.multiply.outer(np.asarray(n), phi))
    ep = np.exp(2j * np.pi * np.multiply.outer(m, theta))
    em = np.exp(-2j * np.pi * np.multiply.outer(m, theta))
    left = (sol.incident.a_inc * ep + sol.a_minus * em)
    right = (sol.b_plus * ep + sol.incident.b_inc * em)
    coef = np.where((m <= 0)[..., None] if m.ndim else (m <= 0), left, right)
    u = np.sum(coef * ey, axis=-1)
    z = ey @ sol.c
    return u, z


def lattice_residual(sol: ScatteringSolution, m: int, n: int) -> float:
    """Residual of the bulk lattice equation at an interior site (m != 0)."""
    omega = sol.point.omega
    u_c, _ = reconstruct_field(sol, m, n)
    stencil = sum(reconstruct_field(sol, m + dm, n + dn)[0]
                  for dm, dn in ((1, 0), (-1, 0), (0, 1), (0, -1)))
    return abs(omega * u_c - (4.0 * u_c - stencil))


def column_flux(sol: ScatteringSolution, m: int) -> float:
    """Discrete energy flux Im(sum_n conj(u) u_x) through column m.

    For a solution of the scattering problem this is independent of m
    (what flows in flows out plus what the chain radiates is balanced).
    """
    n = np.arange(sol.params.N)
    u0, _ = reconstruct_field(sol, m, n)
    u1, _ = reconstruct_field(sol, m + 1, n)
    return float(np.imag(np.sum(np.conj(u0) * (u1 - u0))))


def scan_transmission(params: StructureParams, kappa_grid, omega_grid,
                      incident_order: int = 0):
    """T, R, and the conservation residual over a (kappa, omega) grid.

    Yields rows (kappa, omega, T, R, energy_residual, flags); threshold
    points are skipped in place with a 'threshold' sentinel flag and NaNs,
    and points where the incident order does not propagate with an
    'incident_not_propagating' one.  Any other error reaches the caller.
    """
    incident = IncidentField.unit_left(params.N, incident_order)
    rows = []
    for kap in np.asarray(kappa_grid, dtype=float):
        for om in np.asarray(omega_grid, dtype=float):
            try:
                sol = solve_scattering(params, BlochPoint(kap, om), incident)
            except ThresholdError:
                rows.append((kap, om, np.nan, np.nan, np.nan, "threshold"))
                continue
            except NonPropagatingIncidenceError:
                rows.append((kap, om, np.nan, np.nan, np.nan,
                             "incident_not_propagating"))
                continue
            rows.append((kap, om, sol.T, sol.R, sol.energy_residual,
                         ";".join(sol.flags)))
    return rows
