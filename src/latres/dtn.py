"""Truncated-strip solver closed by the Dirichlet-to-Neumann boundary map.

A second, independent discretization of the same scattering problem: unknowns
are the field values on the strip |m| <= M (plus one halo column on each
side) and the chain amplitudes z_n.  Outgoing radiation is imposed exactly
through the per-order multiplier (1 - e^{2 pi i theta_l}) acting on boundary
traces, so the truncation error is zero per harmonic and the solver serves as
a cross-validation oracle for the Fourier solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .structure import (BlochPoint, HarmonicSet, StructureParams,
                        classify_harmonics, waveguide_band_matrix)
from .scattering import (IncidentField, reconstruct_field, solve_scattering)

TWO_PI = 2.0 * np.pi


def dtn_multipliers(harmonics: HarmonicSet) -> np.ndarray:
    """Per-order symbols (1 - e^{2 pi i theta_l}) of the boundary map."""
    return 1.0 - np.exp(2j * np.pi * harmonics.theta)


def dtn_apply(harmonics: HarmonicSet, trace: np.ndarray,
              kappa: float = None) -> np.ndarray:
    """Apply the boundary map to a length-N trace.

    Unwind the Bloch twist so the trace is plain-periodic, take the discrete
    Fourier transform, multiply order l by (1 - e^{2 pi i theta_l}), and
    transform back.
    """
    trace = np.asarray(trace, dtype=complex)
    N = len(trace)
    if kappa is None:
        kappa = np.real(harmonics.point.kappa)
    n = np.arange(N)
    twist = np.exp(2j * np.pi * kappa * n / N)
    vhat = np.fft.fft(trace / twist) / N   # coefficients of e^{2 pi i l n / N}
    vhat *= dtn_multipliers(harmonics)
    return np.fft.ifft(vhat) * N * twist


def dtn_matrix(harmonics: HarmonicSet, kappa: float = None) -> np.ndarray:
    """Dense N x N matrix of the boundary map in the site basis."""
    N = len(harmonics.harmonics)
    out = np.zeros((N, N), dtype=complex)
    for j in range(N):
        e = np.zeros(N, dtype=complex)
        e[j] = 1.0
        out[:, j] = dtn_apply(harmonics, e, kappa)
    return out


def default_truncation(harmonics: HarmonicSet, tol: float = 1e-10,
                       max_width: int = 200) -> int:
    """Half-width M such that the slowest evanescent order decays below tol.

    e^{-2 pi tau_min M} < tol with tau_min the smallest Im(theta) among
    non-propagating orders; when every order propagates any M works (the
    boundary map is exact per harmonic) and a small default is returned.
    """
    taus = [h.theta.imag for h in harmonics.harmonics
            if h.kind in ("evanescent", "band-edge-evanescent")]
    if not taus:
        return 8
    tau_min = min(taus)
    M = int(np.ceil(np.log(1.0 / tol) / (TWO_PI * tau_min)))
    return max(2, min(M, max_width))


@dataclass(frozen=True)
class TruncatedSolution:
    """Field on the strip plus chain amplitudes from the truncated solve."""

    params: StructureParams
    point: BlochPoint
    incident: IncidentField
    M: int
    m_values: np.ndarray   # -M-1 .. M+1 including halo columns
    u: np.ndarray          # shape (2M+3, N)
    z: np.ndarray
    residual_vector: np.ndarray

    @property
    def residual(self) -> float:
        return float(np.max(np.abs(self.residual_vector)))


def solve_truncated(params: StructureParams, point: BlochPoint,
                    incident: IncidentField = None,
                    M: int = None) -> TruncatedSolution:
    """Solve the truncated scattering problem with DtN closure at m = -+M.

    Rows: the bulk lattice equation for |m| <= M (with the chain coupling on
    m = 0), the chain equation, and one boundary row per site of each
    boundary column, (u_halo - u_boundary) + (boundary map on the trace)
    = the matching normal-difference data of the incident field, which per
    propagating order reduces to -2i sin(2 pi theta_l) times its boundary
    value.
    """
    N = params.N
    if incident is None:
        incident = IncidentField.unit_left(N)
    hs = classify_harmonics(params, point)
    if hs.has_threshold:
        raise ValueError("cannot truncate on a threshold curve")
    if M is None:
        M = default_truncation(hs)
    if M < 2:
        raise ValueError("truncation half-width M must be >= 2")

    kappa = np.real(point.kappa)
    omega = point.omega
    phi, theta, prop = hs.phi, hs.theta, list(hs.propagating)

    ms = np.arange(-M - 1, M + 2)
    nu = len(ms) * N
    dim = nu + N
    tw = np.exp(2j * np.pi * kappa)

    def uid(m, n):
        return (m + M + 1) * N + n

    rows, cols, vals = [], [], []
    F = np.zeros(dim, dtype=complex)

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    r = 0
    # bulk lattice equation omega u = (coupling) + Omega2 u for |m| <= M
    for m in range(-M, M + 1):
        for n in range(N):
            add(r, uid(m, n), omega - 4.0)
            add(r, uid(m - 1, n), 1.0)
            add(r, uid(m + 1, n), 1.0)
            if n + 1 < N:
                add(r, uid(m, n + 1), 1.0)
            else:
                add(r, uid(m, 0), tw)
            if n - 1 >= 0:
                add(r, uid(m, n - 1), 1.0)
            else:
                add(r, uid(m, N - 1), 1.0 / tw)
            if m == 0:
                add(r, nu + n, -np.conj(params.gammas[n]))
            r += 1
    # chain equation (omega - A) z = gamma u at m = 0
    chain = omega * np.eye(N) - waveguide_band_matrix(params, kappa)
    for n in range(N):
        for n2 in np.flatnonzero(chain[n]):
            add(r, nu + n2, chain[n, n2])
        add(r, uid(0, n), -params.gammas[n])
        r += 1
    # DtN boundary rows at m = -M (halo -M-1, incidence from the left) and
    # m = +M (halo M+1, incidence from the right)
    Tmat = dtn_matrix(hs, kappa)
    for side, amp in ((-1, incident.a_inc), (+1, incident.b_inc)):
        bm = side * M
        for n in range(N):
            add(r, uid(bm + side, n), 1.0)
            add(r, uid(bm, n), -1.0)
            for n2 in range(N):
                add(r, uid(bm, n2), Tmat[n, n2])
            if prop:
                F[r] = np.sum([
                    -2j * np.sin(TWO_PI * theta[l]) * amp[l]
                    * np.exp(-2j * np.pi * theta[l] * M)
                    * np.exp(2j * np.pi * phi[l] * n)
                    for l in prop])
            r += 1
    assert r == dim, (r, dim)

    A = sp.csc_matrix((vals, (rows, cols)), shape=(dim, dim))
    X = spla.spsolve(A, F)
    return TruncatedSolution(params=params, point=point, incident=incident,
                             M=M, m_values=ms, u=X[:nu].reshape(len(ms), N),
                             z=X[nu:], residual_vector=A @ X - F)


def cross_validate(params: StructureParams, point: BlochPoint,
                   incident: IncidentField = None, M: int = None) -> float:
    """Max pointwise |difference| between the Fourier and truncated solvers."""
    if incident is None:
        incident = IncidentField.unit_left(params.N)
    trunc = solve_truncated(params, point, incident, M)
    four = solve_scattering(params, point, incident)
    n = np.arange(params.N)
    err = 0.0
    for i, m in enumerate(trunc.m_values):
        u_ref, _ = reconstruct_field(four, int(m), n)
        err = max(err, float(np.max(np.abs(trunc.u[i] - u_ref))))
    _, z_ref = reconstruct_field(four, 0, n)
    err = max(err, float(np.max(np.abs(trunc.z - z_ref))))
    return err


def variational_residual(trunc: TruncatedSolution, num_tests: int = 8,
                         seed: int = 0) -> float:
    """Worst bilinear pairing |<test, A x - F>| over random unit test vectors.

    The weak form of the truncated problem is equivalent to the assembled
    system, so its executable content is that every test-field pairing with
    the discrete residual vanishes.
    """
    rng = np.random.default_rng(seed)
    res = trunc.residual_vector
    worst = 0.0
    for _ in range(num_tests):
        v = rng.standard_normal(len(res)) + 1j * rng.standard_normal(len(res))
        v /= np.linalg.norm(v)
        worst = max(worst, abs(np.vdot(v, res)))
    return worst
