"""Independent references the tests hold the solvers to.

None of these runs in a production path; each restates the problem in a
form the solvers do not use:

- `assemble_system`: the 3N x 3N Fourier system before its reduction to the
  N x N chain kernel K;
- `lattice_residual`: the bulk lattice equation on a reconstructed field;
- `guided_mode_criteria_n2`: the closed-form N = 2 guided-mode criteria;
- `rk4_stages`: one classical RK4 step of ds/dt = -i H s in its four-stage
  form, where `timedomain` applies the factored amplification polynomial.
"""

from dataclasses import dataclass

import numpy as np

from latres.scattering import (IncidentField, ScatteringSolution, _assemble,
                               _fourier, reconstruct_field)
from latres.structure import (BlochPoint, HarmonicSet, StructureParams,
                              _classify_off_threshold, classify_harmonics)


@dataclass(frozen=True)
class ScatteringSystem:
    """The assembled linear system B X = F, ordered as `_assemble`'s B."""

    B: np.ndarray
    F: np.ndarray
    harmonics: HarmonicSet


def assemble_system(params: StructureParams, point: BlochPoint,
                    incident: IncidentField) -> ScatteringSystem:
    """Build the 3N x 3N system at a Bloch point (the reference for K)."""
    _, theta, _ = _classify_off_threshold(params.N, point.kappa,
                                          point.omega)
    B = _assemble(params, point.kappa, point.omega, theta)
    P, _ = _fourier(params.N, point.kappa)
    E = np.exp(2j * np.pi * theta)
    a, b = incident.a_inc, incident.b_inc
    F = np.concatenate([P @ (b - a), P @ (b * E) - P @ (a / E),
                        params.gammas * (P @ b)])
    return ScatteringSystem(B=B, F=F,
                            harmonics=classify_harmonics(params, point))


def lattice_residual(sol: ScatteringSolution, m: int, n: int) -> float:
    """Residual of the bulk lattice equation at an interior site (m != 0)."""
    omega = sol.point.omega
    u_c, _ = reconstruct_field(sol, m, n)
    stencil = sum(reconstruct_field(sol, m + dm, n + dn)[0]
                  for dm, dn in ((1, 0), (-1, 0), (0, 1), (0, -1)))
    return abs(omega * u_c - (4.0 * u_c - stencil))


def guided_mode_criteria_n2(params: StructureParams, kappa: float,
                            omega: float):
    """The two complex residuals whose common zero marks an N=2 guided mode.

    Valid in the single-propagating region where the second order is
    evanescent; there sin(2 pi theta_1) = i sqrt(chi_1^2 - 1) with
    chi_1 = 2 - omega/2 + cos(pi kappa).
    """
    if params.N != 2:
        raise ValueError("criteria are specific to period N=2")
    g0, g1 = params.gammas
    g0c, g1c = np.conj(g0), np.conj(g1)
    M0, M1 = params.masses
    k0, k1 = params.springs
    chi1 = 2.0 - omega / 2.0 + np.cos(np.pi * kappa)
    s = 1j * np.sqrt(chi1 ** 2 - 1.0 + 0j)
    c1 = ((g1c - g0c) / (g0c + g1c)
          * ((k0 + k1) * (1 / M1 - 1 / M0)
             + 2j * np.sin(np.pi * kappa) / np.sqrt(M0 * M1) * (k0 - k1))
          - g0c * g1c * (g0 + g1) / ((g0c + g1c) * 1j * s)
          + 2 * omega
          + (k0 + k1) * (-1 / M0 - 1 / M1 - 2 * np.cos(np.pi * kappa) / np.sqrt(M0 * M1)))
    c2 = ((g1c - g0c) / (g0c + g1c)
          * (2 * omega + (k0 + k1) * (2 * np.cos(np.pi * kappa) / np.sqrt(M0 * M1)
                                      - 1 / M0 - 1 / M1))
          + g0c * g1c * (g1 - g0) / ((g0c + g1c) * 1j * s)
          + (k0 + k1) * (1 / M1 - 1 / M0)
          + 2j * np.sin(np.pi * kappa) * (k1 - k0) / np.sqrt(M0 * M1))
    return c1, c2


def rk4_stages(H, s, dt):
    """One classical Runge-Kutta step of ds/dt = -i H s on a flat vector."""
    k1 = -1j * (H @ s)
    k2 = -1j * (H @ (s + 0.5 * dt * k1))
    k3 = -1j * (H @ (s + 0.5 * dt * k2))
    k4 = -1j * (H @ (s + dt * k3))
    return s + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
