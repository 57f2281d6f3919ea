"""Truncated-strip solver closed by the Dirichlet-to-Neumann boundary map.

A second, independent discretization of the same scattering problem: the
system is omega - H, with H the `structure.strip_operator` of |m| <= M + 1
that the time-domain integrator also uses, and its halo rows m = +-(M + 1)
replaced by boundary rows.  These impose outgoing radiation exactly through
the per-order multiplier (1 - e^{2 pi i theta_l}) acting on boundary traces,
so the truncation error is zero per harmonic and the solver serves as a
cross-validation oracle for the Fourier solver.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .structure import (BlochPoint, HarmonicSet, StructureParams,
                        ThresholdError, classify_harmonics, strip_operator)
from .scattering import (IncidentField, reconstruct_field, solve_scattering)

TWO_PI = 2.0 * np.pi
# default_truncation: the decay the slowest evanescent order must reach over
# the half-width, and the largest half-width
TRUNCATION_TOL = 1e-10
TRUNCATION_MAX = 200

log = logging.getLogger("latres")


def dtn_multipliers(harmonics: HarmonicSet) -> np.ndarray:
    """Per-order symbols (1 - e^{2 pi i theta_l}) of the boundary map."""
    return 1.0 - np.exp(2j * np.pi * harmonics.theta)


def dtn_apply(harmonics: HarmonicSet, trace: np.ndarray) -> np.ndarray:
    """Apply the boundary map to a length-N trace (or to each along the last
    axis).

    Unwind the Bloch twist so the trace is plain-periodic, take the discrete
    Fourier transform, multiply order l by (1 - e^{2 pi i theta_l}), and
    transform back.
    """
    trace = np.asarray(trace, dtype=complex)
    N = trace.shape[-1]
    kappa = np.real(harmonics.point.kappa)
    n = np.arange(N)
    twist = np.exp(2j * np.pi * kappa * n / N)
    vhat = np.fft.fft(trace / twist) / N   # coefficients of e^{2 pi i l n / N}
    vhat *= dtn_multipliers(harmonics)
    return np.fft.ifft(vhat) * N * twist


def dtn_matrix(harmonics: HarmonicSet) -> np.ndarray:
    """Dense N x N matrix of the boundary map in the site basis."""
    return dtn_apply(harmonics, np.eye(len(harmonics.phi))).T


def default_truncation(harmonics: HarmonicSet) -> int:
    """Half-width M such that the slowest evanescent order decays below
    TRUNCATION_TOL, at most TRUNCATION_MAX.

    e^{-2 pi tau_min M} < TRUNCATION_TOL with tau_min the smallest Im(theta)
    among non-propagating orders; when every order propagates any M works (the
    boundary map is exact per harmonic) and a small default is returned.
    """
    taus = harmonics.theta.imag[~(harmonics.propagating_mask
                                  | harmonics.threshold_mask)]
    if not taus.size:
        return 8
    M = int(np.ceil(np.log(1.0 / TRUNCATION_TOL) / (TWO_PI * taus.min())))
    return max(2, min(M, TRUNCATION_MAX))


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

    Rows: (omega - H) s = 0 on the chain and on |m| <= M, with H the
    `strip_operator` of |m| <= M + 1, and in place of each halo row one
    boundary row, (u_halo - u_boundary) + (boundary map on the trace)
    = the matching normal-difference data of the incident field, which per
    propagating order reduces to -2i sin(2 pi theta_l) times its boundary
    value.  Raises ThresholdError on a threshold curve and ValueError for
    M < 2, both before scipy loads.
    """
    N = params.N
    if incident is None:
        incident = IncidentField.unit_left(N)
    hs = classify_harmonics(params, point)
    if hs.has_threshold:
        raise ThresholdError("cannot truncate on a threshold curve")
    if M is None:
        M = default_truncation(hs)
    if M < 2:
        raise ValueError("truncation half-width M must be >= 2")
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    phi, theta, prop = hs.phi, hs.theta, list(hs.propagating)

    H = strip_operator(params, np.real(point.kappa), M + 1).tocoo()
    dim = H.shape[0]
    site = N + np.arange(dim - N).reshape(2 * M + 3, N)
    bulk = np.r_[0:N, site[1:-1].ravel()]   # the chain and |m| <= M
    keep = np.isin(H.row, bulk)
    rows, cols = [H.row[keep], bulk], [H.col[keep], bulk]
    vals = [-H.data[keep], np.full(len(bulk), point.omega)]

    # DtN boundary rows in the halo rows m = -M-1 (incidence from the left,
    # trace at m = -M) and m = M+1 (incidence from the right, trace at m = M)
    Tmat = dtn_matrix(hs)
    waves = np.exp(2j * np.pi * np.outer(phi[prop], np.arange(N)))
    F = np.zeros(dim, dtype=complex)
    for h, b, amp in ((site[0], site[1], incident.a_inc),
                      (site[-1], site[-2], incident.b_inc)):
        rows += [h, h, np.repeat(h, N)]
        cols += [h, b, np.tile(b, N)]
        vals += [np.ones(N), -np.ones(N), Tmat.ravel()]
        F[h] = (-2j * np.sin(TWO_PI * theta[prop]) * amp[prop]
                * np.exp(-2j * np.pi * theta[prop] * M)) @ waves

    A = sp.csc_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(dim, dim))
    X = spla.spsolve(A, F)
    trunc = TruncatedSolution(params=params, point=point, incident=incident,
                              M=M, m_values=np.arange(-M - 1, M + 2),
                              u=X[N:].reshape(2 * M + 3, N), z=X[:N],
                              residual_vector=A @ X - F)
    log.debug("solve_truncated: M=%d, %d unknowns, residual %.3e", M, dim,
              trunc.residual)
    return trunc


def cross_validate(params: StructureParams, point: BlochPoint,
                   incident: IncidentField = None, M: int = None) -> float:
    """Max pointwise |difference| between the Fourier and truncated solvers."""
    if incident is None:
        incident = IncidentField.unit_left(params.N)
    trunc = solve_truncated(params, point, incident, M)
    four = solve_scattering(params, point, incident)
    u_ref, z_ref = reconstruct_field(four, trunc.m_values[:, None],
                                     np.arange(params.N))
    return float(max(np.max(np.abs(trunc.u - u_ref)),
                     np.max(np.abs(trunc.z - z_ref))))
