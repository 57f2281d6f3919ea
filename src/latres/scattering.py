"""Frequency-domain scattering by the coupled chain: assembly and solve.

The total field is expanded in Fourier orders on each side of the coupling
line m = 0, u_{mn} = sum_l (incoming + outgoing) e^{2 pi i (theta_l m + phi_l n)},
and the chain displacement z_n = sum_l c_l e^{2 pi i phi_l n}.  Matching the
two expansions at m = 0, the m = 0 lattice equation, and the chain equation at
n = 0..N-1 yields a 3N x 3N linear system for the outgoing coefficients
(a_minus, b_plus) and the chain coefficients c (`assemble_system`).
Eliminating the continuity and m = 0 lattice rows by hand leaves the N x N
chain system K(kappa, omega) z = gamma * u_inc that `solve_scattering` solves.

Grids are solved one kappa row at a time (`solve_row`, which
`scan_transmission` calls once per row): P and P^-1 depend on kappa only, so
K is stacked over the row's frequencies by broadcasting, one stacked SVD gives
the condition numbers and one stacked solve the well-conditioned members.
The kernel, assembly and flux helpers broadcast over leading batch axes, and
the single-point solver uses the same helpers.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .structure import (BlochPoint, HarmonicSet, StructureParams,
                        ThresholdError, _classify, _classify_off_threshold,
                        classify_harmonics, waveguide_band_matrix)

TWO_PI = 2.0 * np.pi

log = logging.getLogger("latres")

# A row is solved in chunks of at most this many bytes of stacked matrices,
# so that its memory stays bounded however many frequencies it has.
STACK_BYTES = 64 * 2 ** 20

# condition number of K above which a solve falls back to least squares
COND_LIMIT = 1e12

# flags of the points a row refuses (NaN results)
THRESHOLD = "threshold"
NOT_PROPAGATING = "incident_not_propagating"


def _chunks(count, item_bytes):
    """Slices of range(count), each holding at most STACK_BYTES of items."""
    step = max(1, STACK_BYTES // item_bytes)
    return [slice(i, i + step) for i in range(0, count, step)]


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


def _fourier(phi):
    """P[n, l] = e^{2 pi i phi_l n} and, as the phi_l differ by l/N, its
    inverse P^-1[l, n] = e^{-2 pi i phi_l n} / N (P^H / N if kappa is real)."""
    n = np.arange(len(phi))
    return (np.exp(2j * np.pi * (n[:, None] * phi)),
            np.exp(-2j * np.pi * (phi[:, None] * n)) / len(phi))


def _chain_kernel(params, kappa, omega, phi, theta):
    """The reduced chain matrix K, P, P^-1 and s = 2i sin 2 pi theta.

    K = omega - A(kappa) - diag(gamma) P diag(1/s) P^-1 diag(conj gamma), with
    A the chain's band matrix and P, P^-1 from `_fourier`.  omega may carry
    leading batch axes, theta then has shape omega.shape + (N,) and K shape
    omega.shape + (N, N); P and P^-1 depend on kappa only.
    """
    N = params.N
    P, Pinv = _fourier(phi)
    s = 2j * np.sin(TWO_PI * theta)
    gam = params.gammas
    K = (np.asarray(omega)[..., None, None] * np.eye(N)
         - waveguide_band_matrix(params, kappa)
         - (gam[:, None] * P / s[..., None, :]) @ (Pinv * np.conj(gam)))
    return K, P, Pinv, s


def _chain_kernel_derivatives(params, kappa, omega):
    """K at one point, its exact K_omega, and a function that forms K_kappa.

    With X = P diag(1/s) P^-1, K = omega - A - diag(gamma) X diag(conj gamma).
    The ambient dispersion omega = 4 - 2 cos 2 pi theta - 2 cos 2 pi phi
    gives d theta / d omega = 1 / (4 pi sin 2 pi theta), so
    ds/d omega = i cot 2 pi theta, and at fixed omega
    ds/d kappa = -(ds/d omega) 4 pi sin(2 pi phi) / N.  P' = 2 pi i D P and
    (P^-1)' = -2 pi i P^-1 D with D = diag(n / N).  A' comes from the wrap
    entries, the only ones that depend on kappa: they carry e^{+-2 pi i kappa},
    so A' = pi (A(kappa + 1/4) - A(kappa - 1/4)).
    K_kappa, the costly part, is formed only when asked for.
    """
    N = params.N
    phi, theta, _ = _classify_off_threshold(N, kappa, omega)
    K, P, Pinv, s = _chain_kernel(params, kappa, omega, phi, theta)
    gam = params.gammas
    s_om = 1j / np.tan(TWO_PI * theta)
    outer = gam[:, None] * np.conj(gam)
    K_om = np.eye(N) + outer * ((P * (s_om / s ** 2)) @ Pinv)

    def K_kappa():
        s_kap = -s_om * 4.0 * np.pi * np.sin(TWO_PI * phi) / N
        X = (P / s) @ Pinv
        D = np.arange(N)[:, None] / N
        A_kap = np.pi * (waveguide_band_matrix(params, kappa + 0.25)
                         - waveguide_band_matrix(params, kappa - 0.25))
        return -A_kap - outer * (2j * np.pi * (D * X - X * D.T)
                                 - (P * (s_kap / s ** 2)) @ Pinv)

    return K, K_om, K_kappa


def _solve_stack(K, rhs, cond_limit):
    """Solve a stack of chain systems K z = rhs; returns (z, cond, near).

    One stacked SVD gives the 2-norm condition numbers.  Members at or under
    cond_limit share one stacked solve; the others (near a guided mode) get a
    minimum-norm least-squares solution each, since one exactly singular
    member would make the stacked solve raise for the whole stack.
    """
    sv = np.linalg.svd(K, compute_uv=False)
    cond = np.divide(sv[:, 0], sv[:, -1], out=np.full(len(sv), np.inf),
                     where=sv[:, -1] > 0)
    near = cond > cond_limit
    if not near.any():
        return np.linalg.solve(K, rhs[..., None])[..., 0], cond, near
    z = np.empty(rhs.shape, dtype=complex)
    well = ~near
    if well.any():
        z[well] = np.linalg.solve(K[well], rhs[well][..., None])[..., 0]
    for i in np.flatnonzero(near):
        z[i] = np.linalg.lstsq(K[i], rhs[i], rcond=1e-12)[0]
    return z, cond, near


def _outgoing(Pinv, s, gammas, a_inc, b_inc, z):
    """(a_minus, b_plus) from the chain solution z, over any batch axes.

    Both follow from the common trace U = u_inc + P^-1 (conj(gamma) z) / s:
    a_minus = U - a_inc and b_plus = U - b_inc.
    """
    U = (a_inc + b_inc
         + (Pinv @ (np.conj(gammas) * z)[..., None])[..., 0] / s)
    return U - a_inc, U - b_inc


def _assemble(params, kappa, omega, phi, theta):
    """The 3N x 3N matrix B of the Fourier system (see ScatteringSystem).

    omega may carry leading batch axes, theta then has shape
    omega.shape + (N,) and B shape omega.shape + (3N, 3N).
    """
    N = params.N
    omega = np.asarray(omega)
    P, _ = _fourier(phi)
    E = np.exp(2j * np.pi * theta)[..., None, :]
    gam = params.gammas

    B = np.zeros(omega.shape + (3 * N, 3 * N), dtype=complex)

    # (i) continuity of the two expansions at m = 0
    B[..., :N, :N] = P
    B[..., :N, N:2 * N] = -P

    # (ii) lattice equation on the coupling line m = 0, with u at m = -1 from
    # the left expansion and m = +1 from the right expansion
    B[..., N:2 * N, :N] = P * E
    B[..., N:2 * N, N:2 * N] = -P / E
    B[..., N:2 * N, 2 * N:] = -np.conj(gam)[:, None] * P

    # (iii) chain equation (omega - A) z = gamma u at m = 0
    B[..., 2 * N:, 2 * N:] = (omega[..., None, None] * np.eye(N)
                              - waveguide_band_matrix(params, kappa)) @ P
    B[..., 2 * N:, N:2 * N] = -gam[:, None] * P
    return B


def assemble_system(params: StructureParams, point: BlochPoint,
                    incident: IncidentField = None) -> ScatteringSystem:
    """Build the 3N x 3N system at a Bloch point (the reference for K)."""
    N = params.N
    if incident is None:
        incident = IncidentField.none(N)
    phi, theta, _ = _classify_off_threshold(N, point.kappa, point.omega)
    B = _assemble(params, point.kappa, point.omega, phi, theta)
    P, _ = _fourier(phi)
    E = np.exp(2j * np.pi * theta)
    a, b = incident.a_inc, incident.b_inc
    F = np.concatenate([P @ (b - a), P @ (b * E) - P @ (a / E),
                        params.gammas * (P @ b)])
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
    """Flux sums over the orders in the mask prop (last axis, any batch axes).

    Returns the incident, transmitted and reflected fluxes and the
    conservation residual per the flux identity.
    """
    s = np.where(prop, np.sin(TWO_PI * np.real(theta)), 0.0)
    inc_o = np.abs(a_inc) ** 2 + np.abs(b_inc) ** 2
    out_t, out_r = np.abs(b_plus) ** 2, np.abs(a_minus) ** 2
    return ((inc_o * s).sum(axis=-1), (out_t * s).sum(axis=-1),
            (out_r * s).sum(axis=-1),
            np.abs((((out_t + out_r) - inc_o) * s).sum(axis=-1)))


def solve_scattering(params: StructureParams, point: BlochPoint,
                     incident: IncidentField = None,
                     cond_limit: float = COND_LIMIT) -> ScatteringSolution:
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
    mask = np.zeros(N, dtype=bool)
    mask[prop] = True
    if point.is_real:
        bad = np.flatnonzero(((incident.a_inc != 0) | (incident.b_inc != 0))
                             & ~mask).tolist()
        if bad:
            raise NonPropagatingIncidenceError(
                f"incident amplitude on non-propagating order(s) {bad}")

    K, P, Pinv, s = _chain_kernel(params, point.kappa, point.omega, hs.phi,
                                  theta)
    rhs = params.gammas * (P @ (incident.a_inc + incident.b_inc))
    z, cond, near = _solve_stack(K[None], rhs[None], cond_limit)
    z, cond = z[0], cond[0]
    flags = ["near_singular"] if near[0] else []
    a_minus, b_plus = _outgoing(Pinv, s, params.gammas, incident.a_inc,
                                incident.b_inc, z)
    c = Pinv @ z

    if point.is_real and len(prop) > 0:
        inc, out_t, out_r, resid = _flux_quantities(
            theta, mask, incident.a_inc, incident.b_inc, a_minus, b_plus)
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


@dataclass(frozen=True)
class ScatteringRow:
    """Unit left incidence on one order at one real kappa, over real omegas.

    Every array runs over `omega`; a_minus and b_plus have a trailing order
    axis.  `flags` holds each point's scan flags; refused points (flag
    `threshold` or `incident_not_propagating`) carry NaN in every array.
    """

    kappa: float
    omega: np.ndarray
    a_minus: np.ndarray
    b_plus: np.ndarray
    T: np.ndarray
    R: np.ndarray
    energy_residual: np.ndarray
    condition: np.ndarray
    flags: tuple


# flags of a row point, indexed by 2 * multi_prop + near_singular for solved
# points and by 4 / 5 for the two refusals
_ROW_FLAGS = ("", "near_singular", "multi_prop_flux_weighted",
              "near_singular;multi_prop_flux_weighted", THRESHOLD,
              NOT_PROPAGATING)


def solve_row(params: StructureParams, kappa: float, omega_grid,
              incident_order: int = 0, strict: bool = False) -> ScatteringRow:
    """`solve_scattering` with unit left incidence over a row of real omegas.

    The numbers equal the single-point solver's, point by point.  The row is
    classified at once; K is stacked over the solvable points by
    broadcasting, one stacked SVD gives the condition numbers and one
    stacked solve handles the members at or under COND_LIMIT; the rest get
    least-squares solutions and the `near_singular` flag.  Rows with more
    than STACK_BYTES of K are solved in chunks.  Points on a threshold or
    where the incident order does not propagate are refused with a flag, or,
    if strict, the first of them raises the single-point solver's error.
    """
    N = params.N
    incident = IncidentField.unit_left(N, incident_order)
    omega = np.asarray(omega_grid, dtype=float)
    phi, theta, prop, thr = _classify(N, kappa, omega)
    thr = thr.any(axis=-1)
    ok = ~thr & prop[:, incident_order]
    if strict and not ok.all():
        i = int(np.argmin(ok))
        if thr[i]:
            raise ThresholdError(f"harmonic on a threshold curve at "
                                 f"(kappa={kappa}, omega={omega[i]})")
        raise NonPropagatingIncidenceError(
            f"incident amplitude on non-propagating order(s) "
            f"[{incident_order}]")

    W = len(omega)
    a_minus = np.full((W, N), np.nan, dtype=complex)
    b_plus = a_minus.copy()
    cond = np.full(W, np.nan)
    near = np.zeros(W, dtype=bool)
    idx = np.flatnonzero(ok)
    for part in _chunks(len(idx), 16 * N * N):
        i = idx[part]
        K, P, Pinv, s = _chain_kernel(params, kappa, omega[i], phi, theta[i])
        rhs = params.gammas * (P @ (incident.a_inc + incident.b_inc))
        z, cond[i], near[i] = _solve_stack(
            K, np.broadcast_to(rhs, (len(i), N)), COND_LIMIT)
        a_minus[i], b_plus[i] = _outgoing(Pinv, s, params.gammas,
                                          incident.a_inc, incident.b_inc, z)

    # unit incidence on a propagating order: inc > 0, and with one
    # propagating order that order is the incident one
    multi = prop.sum(axis=-1) > 1
    inc, out_t, out_r, res = _flux_quantities(
        theta[ok], prop[ok], incident.a_inc, incident.b_inc, a_minus[ok],
        b_plus[ok])
    T, R, resid = np.full((3, W), np.nan)
    T[ok] = np.where(multi[ok], np.sqrt(out_t / inc),
                     np.abs(b_plus[ok, incident_order]))
    R[ok] = np.where(multi[ok], np.sqrt(out_r / inc),
                     np.abs(a_minus[ok, incident_order]))
    resid[ok] = res
    flag = np.where(thr, 4, np.where(ok, near + 2 * multi, 5))
    return ScatteringRow(kappa=kappa, omega=omega, a_minus=a_minus,
                         b_plus=b_plus, T=T, R=R, energy_residual=resid,
                         condition=cond,
                         flags=tuple(_ROW_FLAGS[f] for f in flag.tolist()))


def scan_transmission(params: StructureParams, kappa_grid, omega_grid,
                      incident_order: int = 0):
    """T, R, and the conservation residual over a (kappa, omega) grid.

    One `solve_row` call, that is one stacked solve, per kappa row.  Yields
    rows (kappa, omega, T, R, energy_residual, flags); threshold points are
    skipped in place with a 'threshold' sentinel flag and NaNs, and points
    where the incident order does not propagate with an
    'incident_not_propagating' one.  Any other error reaches the caller.
    A DEBUG line on the `latres` logger counts the points solved and
    refused, the `near_singular` ones and the worst condition number.
    """
    _unit_amplitudes(params.N, incident_order)
    omega = np.asarray(omega_grid, dtype=float)
    rows, counts, worst = [], Counter(), np.nan
    for kap in np.asarray(kappa_grid, dtype=float):
        row = solve_row(params, kap, omega, incident_order)
        rows.extend(zip([kap] * len(omega), omega.tolist(), row.T.tolist(),
                        row.R.tolist(), row.energy_residual.tolist(),
                        row.flags))
        counts.update(row.flags)
        worst = np.fmax.reduce(row.condition, initial=worst)  # skips NaN
    refused = counts[THRESHOLD] + counts[NOT_PROPAGATING]
    log.debug("scan: %d points solved, %d threshold, %d incident not "
              "propagating, %d near_singular, worst condition %.3g",
              len(rows) - refused, counts[THRESHOLD], counts[NOT_PROPAGATING],
              sum(n for f, n in counts.items() if "near_singular" in f), worst)
    return rows
