"""Truncated-strip solver closed by the Dirichlet-to-Neumann boundary map.

A second, independent discretization of the same scattering problem, in
the site basis: the system is omega - H, with H the generator of the chain
coupled to the strip |m| <= M + 1 as `structure.strip_blocks` lays it out
(the blocks the time-domain integrator also steps with), and its halo rows
m = +-(M + 1) replaced by boundary rows.  These impose outgoing radiation
exactly through the per-order multiplier (1 - e^{2 pi i theta_l}) acting on
boundary traces, so the truncation error is zero per harmonic and the
solver serves as a cross-validation oracle for the Fourier solver.  With
the unknowns ordered by m, and the chain's sites interleaved with those of
m = 0, the system is a band of half-width 2N, which LAPACK's banded LU
solves in one call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .structure import (BlochPoint, HarmonicSet, StructureParams,
                        ThresholdError, _block_entries,
                        classify_harmonics, strip_blocks)
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
    `strip_blocks` generator of |m| <= M + 1, and in place of each halo row
    one boundary row, (u_halo - u_boundary) + (boundary map on the trace)
    = the matching normal-difference data of the incident field, which per
    propagating order reduces to -2i sin(2 pi theta_l) times its boundary
    value.  The rows are expanded block by block into scalar entries, which
    fill LAPACK band storage (unknowns ordered u_{-M-1}, ..., u_{-1}, then
    u_0 and z site by site, then u_1, ..., u_{M+1}) for one `zgbsv` call
    and give the residual A X - F.  Raises ThresholdError on a threshold
    curve and ValueError for M < 2, both before scipy loads, and
    np.linalg.LinAlgError (a ValueError) when the band factor is exactly
    singular.
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
    from scipy.linalg.lapack import zgbsv

    # omega - H block by block: -palette off the diagonal blocks and
    # omega I - palette (kind + 6) on them; each halo row h takes I (kind 12)
    # on its own block and the boundary map minus I (kind 13) on the trace
    # block next to it, h = u_{-M-1} with u_{-M} and h = u_{M+1} with u_M
    rows, cols, kinds, palette = strip_blocks(params, np.real(point.kappa),
                                              M + 1)
    eye = np.eye(N)
    palette = np.concatenate([-palette, point.omega * eye - palette,
                              [eye, dtn_matrix(hs) - eye]])
    halo, top = 1, 2 * M + 3
    bulk = (rows != halo) & (rows != top)
    kinds = np.concatenate([(kinds + 6 * (rows == cols))[bulk], [12, 13] * 2])
    rows = np.concatenate([rows[bulk], [halo, halo, top, top]])
    cols = np.concatenate([cols[bulk], [halo, halo + 1, top, top - 1]])
    row, col, val = _block_entries(rows, cols, kinds, palette, palette != 0)

    # the boundary rows' data: per propagating order -2i sin(2 pi theta_l)
    # times the incident wave's value at the trace
    dim = N * (2 * M + 4)
    F = np.zeros(dim, dtype=complex)
    prop, theta = hs.propagating_mask, hs.theta[hs.propagating_mask]
    waves = (-2j * np.sin(TWO_PI * theta) * np.exp(-2j * np.pi * theta * M)
             )[:, None] * np.exp(2j * np.pi * np.outer(hs.phi[prop],
                                                       np.arange(N)))
    F[N * halo:N * halo + N] = incident.a_inc[prop] @ waves
    F[N * top:] = incident.b_inc[prop] @ waves

    # pos: natural index (z, u_{-M-1}, ..., u_{M+1}) -> band order, the rows
    # m < 0, then u_0 and z site by site, then the rows m > 0
    site = np.arange(N)
    pos = np.arange(dim) - N
    pos[N * (M + 3):] += N
    pos[N * (M + 2) + site] = N * (M + 1) + 2 * site
    pos[site] = N * (M + 1) + 2 * site + 1
    # both widths come to 2N, from u_0 to u_1; in Fortran order zgbsv
    # factors ab in place instead of on a copy
    r, c = pos[row], pos[col]
    kl, ku = int(np.max(r - c)), int(np.max(c - r))
    ab = np.zeros((2 * kl + ku + 1, dim), dtype=complex, order="F")
    ab[kl + ku + r - c, c] = val
    rhs = np.empty(dim, dtype=complex)
    rhs[pos] = F
    _, _, x, info = zgbsv(kl, ku, ab, rhs, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"truncated system singular at (kappa={point.kappa}, "
            f"omega={point.omega}), M={M}")
    X = x[pos]
    AX = val * X[col]
    residual = (np.bincount(row, AX.real, dim)
                + 1j * np.bincount(row, AX.imag, dim) - F)
    trunc = TruncatedSolution(params=params, point=point, incident=incident,
                              M=M, m_values=np.arange(-M - 1, M + 2),
                              u=X[N:].reshape(2 * M + 3, N), z=X[:N],
                              residual_vector=residual)
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
