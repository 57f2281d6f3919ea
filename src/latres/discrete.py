"""Discrete summation identities as self-checks on the solver's operators.

Product rules, telescoping, summation by parts and the divergence theorem
hold for any lattice arrays.  The two Green identities take their operator
from the solver itself: the chain identity applies `waveguide_band_matrix`,
the lattice identity applies the 5-point block of `strip_operator`, so a
wrong stencil in either fails its check.  `green_identity_field` checks
`strip_operator` against a computed scattering field, where the identity's
imaginary part is the energy balance between two columns.
"""

from __future__ import annotations

import numpy as np

from .scattering import ScatteringSolution, reconstruct_field
from .structure import StructureParams, strip_operator, waveguide_band_matrix


def product_rule_residuals(v: np.ndarray, w: np.ndarray) -> dict:
    """Pointwise residuals of the four discrete product rules.

    (vw)_x = v_x w+ + v w_x = v_x w + v+ w_x, and the backward analogues.
    """
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    vw = v * w
    fx = lambda a: a[1:] - a[:-1]
    return {
        "forward_a": np.max(np.abs(fx(vw) - (fx(v) * w[1:] + v[:-1] * fx(w)))),
        "forward_b": np.max(np.abs(fx(vw) - (fx(v) * w[:-1] + v[1:] * fx(w)))),
        "backward_a": np.max(np.abs(fx(vw) - (fx(v) * w[:-1] + v[1:] * fx(w)))),
        "backward_b": np.max(np.abs(fx(vw) - (fx(v) * w[1:] + v[:-1] * fx(w)))),
    }


def telescoping_residual(v: np.ndarray) -> float:
    """|sum of forward differences - endpoint difference| (fundamental theorem)."""
    v = np.asarray(v, dtype=complex)
    return abs(np.sum(v[1:] - v[:-1]) - (v[-1] - v[0]))


def summation_by_parts_1d_residual(v: np.ndarray, w: np.ndarray) -> float:
    """Residual of the 1D summation-by-parts identity on the full window.

    sum_{m=m1+1}^{m2} [(backward-diff v)_m w_m + v_{m-1} (backward-diff w)_m]
        = v_{m2} w_{m2} - v_{m1} w_{m1}.
    """
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    dv = v[1:] - v[:-1]
    dw = w[1:] - w[:-1]
    lhs = np.sum(dv * w[1:]) + np.sum(v[:-1] * dw)
    rhs = v[-1] * w[-1] - v[0] * w[0]
    return abs(lhs - rhs)


def divergence_theorem_residual(f1: np.ndarray, f2: np.ndarray) -> float:
    """Residual of the rectangular discrete divergence theorem.

    The fields are given on [m1, m2] x [n1, n2]; the sum of the backward
    divergence over the interior [m1+1, m2] x [n1+1, n2] must equal the
    boundary sums of F1 and F2.
    """
    f1 = np.asarray(f1, dtype=complex)
    f2 = np.asarray(f2, dtype=complex)
    div = (f1[1:, 1:] - f1[:-1, 1:]) + (f2[1:, 1:] - f2[1:, :-1])
    lhs = np.sum(div)
    rhs = np.sum(f1[-1, 1:] - f1[0, 1:]) + np.sum(f2[1:, -1] - f2[1:, 0])
    return abs(lhs - rhs)


def green_identity_residual(v: np.ndarray, u: np.ndarray) -> float:
    """Residual of the 2D summation-by-parts (Green) identity.

    sum_R (v Delta u) = boundary flux sums of v u_x and v u_y minus
    sum_R (grad- v . grad- u), on the interior of the supplied rectangle.
    Delta u is -(H u) with H the `strip_operator` of an uncoupled unit chain
    at kappa = 0, whose lattice block is 4 u minus the four neighbours; on
    the interior neither its walls nor its n-wrap are reached.
    """
    v = np.asarray(v, dtype=complex)
    u = np.asarray(u, dtype=complex)
    rows, cols = u.shape
    # an even row count gets one zero row below, outside every stencil used
    strip = np.vstack([u, np.zeros((1 - rows % 2, cols))])
    chain = StructureParams(cols, np.ones(cols), np.ones(cols),
                            np.zeros(cols))
    hs = strip_operator(chain, 0.0, rows // 2) @ np.concatenate(
        [np.zeros(cols), strip.ravel()])
    lap = -hs[cols:].reshape(strip.shape)[1:rows - 1, 1:-1]
    lhs = np.sum(v[1:-1, 1:-1] * lap)
    ux = u[1:, :] - u[:-1, :]   # (u_x)_{mn} = u_{m+1,n} - u_{mn}
    uy = u[:, 1:] - u[:, :-1]
    # boundary terms: (v u_x) at m2 and m1, summed over n in [n1+1, n2]
    bx = np.sum(v[-2, 1:-1] * ux[-1, 1:-1] - v[0, 1:-1] * ux[0, 1:-1])
    by = np.sum(v[1:-1, -2] * uy[1:-1, -1] - v[1:-1, 0] * uy[1:-1, 0])
    dvx = v[1:, :] - v[:-1, :]  # backward diff sampled at the upper index
    dvy = v[:, 1:] - v[:, :-1]
    grad = np.sum(dvx[:-1, 1:-1] * ux[:-1, 1:-1]) + \
        np.sum(dvy[1:-1, :-1] * uy[1:-1, :-1])
    rhs = bx + by - grad
    return abs(lhs - rhs)


def waveguide_green_residual(z: np.ndarray, masses: np.ndarray,
                             springs: np.ndarray) -> float:
    """Residual of the chain summation-by-parts formula on a window.

    With zeta_n = z_n / sqrt(M_n) and the chain operator A of
    `waveguide_band_matrix`, one has

    sum_{n=n1}^{n2} conj(z)_n (A z)_n
        = -k_{n2} conj(zeta)_{n2} (zeta_{n2+1} - zeta_{n2})
          + k_{n1-1} conj(zeta)_{n1} (zeta_{n1} - zeta_{n1-1})
          + sum_{n=n1}^{n2-1} k_n |zeta_{n+1} - zeta_n|^2.

    The arrays z, masses, springs are given on [n1-1, n2+1] (one-cell halo).
    A is the band matrix of this window as a chain of period L = len(z) at
    kappa = 0; its wrap entries touch only the halo rows 0 and L-1.
    """
    z = np.asarray(z, dtype=complex)
    M = np.asarray(masses, dtype=float)
    k = np.asarray(springs, dtype=float)
    if not (len(z) == len(M) == len(k)) or len(z) < 3:
        raise ValueError("need arrays of equal length >= 3 (window plus halo)")
    A = waveguide_band_matrix(StructureParams(len(z), M, k, np.zeros(len(z))),
                              0.0)
    lhs = np.sum(np.conj(z[1:-1]) * (A @ z)[1:-1])
    zeta = z / np.sqrt(M)
    d = zeta[1:] - zeta[:-1]    # d_n = zeta_{n+1} - zeta_n
    bonds = np.sum(k[1:-2] * np.conj(d[1:-1]) * d[1:-1])
    rhs = -k[-2] * np.conj(zeta[-2]) * d[-1] \
        + k[0] * np.conj(zeta[1]) * d[0] + bonds
    return abs(lhs - rhs)


def green_identity_field(sol: ScatteringSolution, mx: int) -> float:
    """Green identity of `strip_operator` on a computed scattering field.

    With s = (z, u on rows -mx..mx) and H = strip_operator(params, kappa,
    mx), whose zero walls drop the hops to rows -+(mx + 1),

    s^H (omega - H) s = -sum_n conj(u_{mx,n}) u_{mx+1,n}
                        - sum_n conj(u_{-mx,n}) u_{-mx-1,n}.

    Im of the right side is column_flux(-mx - 1) - column_flux(mx), the
    strip's energy balance.  The full complex value is compared: at real
    omega, Im of the left side is 0 for any Hermitian H, wrong or not.
    Returns |lhs - rhs| / ||s||^2.
    """
    m = np.arange(-mx - 1, mx + 2)
    u, z = reconstruct_field(sol, m[:, None], np.arange(sol.params.N))
    s = np.concatenate([z, u[1:-1].ravel()])
    H = strip_operator(sol.params, sol.point.kappa, mx)
    lhs = np.vdot(s, sol.point.omega * s - H @ s)
    rhs = -np.vdot(u[-2], u[-1]) - np.vdot(u[1], u[0])
    return float(abs(lhs - rhs) / np.vdot(s, s).real)


def identity_residuals(v2d: np.ndarray, w2d: np.ndarray,
                       masses: np.ndarray = None,
                       springs: np.ndarray = None) -> dict:
    """Evaluate every summation identity on the supplied rectangle.

    Returns a dict of named residuals; the 1D identities use row 0 of the
    rectangles, the waveguide identity uses optional masses/springs (defaults
    to a uniform chain).
    """
    v2d = np.asarray(v2d, dtype=complex)
    w2d = np.asarray(w2d, dtype=complex)
    n = v2d.shape[1]
    if masses is None:
        masses = np.ones(n)
    if springs is None:
        springs = np.ones(n)
    return {
        "summation_by_parts_1d": summation_by_parts_1d_residual(v2d[0], w2d[0]),
        "divergence_theorem": divergence_theorem_residual(v2d, w2d),
        "green_identity": green_identity_residual(v2d, w2d),
        "waveguide_green": waveguide_green_residual(v2d[0], masses, springs),
    }
