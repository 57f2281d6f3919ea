"""Independent references the tests hold the solvers to.

None of these runs in a production path; each restates the problem in a
form the solvers do not use:

- `assemble_system`: the 3N x 3N Fourier system before its reduction to the
  N x N chain kernel K;
- `reduced_homogeneous`: that system without incidence or its propagating
  outgoing columns, which a guided mode's null vector solves;
- `solve_stack_svd`: a stack of chain systems K z = rhs with every
  member's condition number from a stacked SVD, where
  `scattering._solve_stack` takes an SVD only of the members its LU solve
  cannot certify;
- `lattice_residual`: the bulk lattice equation on a reconstructed field;
- `guided_mode_criteria_n2`: the closed-form N = 2 guided-mode criteria;
- `truncated_system`: the DtN-closed truncated strip as a sparse matrix
  built from `strip_operator`, where `dtn.solve_truncated` expands
  `strip_blocks` into LAPACK band storage;
- `rk4_stages`: one classical RK4 step of ds/dt = -i H s in its four-stage
  form, where `timedomain` applies the amplification polynomial as one
  block-Toeplitz product and dense rows near the chain and the walls;
- `classify_complex_point`: the harmonics at one complex point, order by
  order, where `structure._classify` works on whole arrays;
- `chain_kernel_mp`, `omega_gm_mp` and `taylor_mp`: the chain kernel K in
  mpmath, omega_gm as a root of det K by Newton's method, and the Taylor
  coefficients of omega_gm from a Cauchy circle, at any precision.
"""

from dataclasses import dataclass

import numpy as np

from latres.scattering import (IncidentField, ScatteringSolution, _fourier,
                               reconstruct_field)
from latres.dtn import default_truncation, dtn_matrix
from latres.structure import (BlochPoint, HarmonicSet, StructureParams,
                              _classify_off_threshold, classify_harmonics,
                              strip_operator, waveguide_band_matrix)


def _assemble(params, kappa, omega, theta):
    """The 3N x 3N matrix B of the Fourier system.

    Unknowns (columns): a_minus_0..a_minus_{N-1}, b_plus_0.., c_0..; rows:
    continuity at m = 0 (n = 0..N-1), the m = 0 lattice equation, then the
    chain equation.  omega may carry leading batch axes, theta then has shape
    omega.shape + (N,) and B shape omega.shape + (3N, 3N).
    """
    N = params.N
    omega = np.asarray(omega)
    P, _ = _fourier(N, kappa)
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


def reduced_homogeneous(params, kappa, omega):
    """The homogeneous 3N system without its propagating outgoing columns.

    omega may carry leading batch axes, as in `_assemble`, where every
    point has the same propagating orders (else ValueError).  Returns the
    3N x (3N - 2 |P|) matrices and the label (kind, order) of each kept
    column: the evanescent a_minus, the evanescent b_plus, then every c.
    """
    N = params.N
    _, theta, prop = _classify_off_threshold(N, kappa, omega)
    prop = prop.reshape(-1, N)
    if (prop != prop[0]).any():
        raise ValueError("the points differ in their propagating orders")
    evanescent = np.flatnonzero(~prop[0]).tolist()
    labels = ([("a_minus", l) for l in evanescent]
              + [("b_plus", l) for l in evanescent]
              + [("c", l) for l in range(N)])
    offset = {"a_minus": 0, "b_plus": N, "c": 2 * N}
    cols = [offset[kind] + l for kind, l in labels]
    return _assemble(params, kappa, omega, theta)[..., cols], labels


def solve_stack_svd(K, rhs, cond_limit):
    """(z, cond, near) for a stack of K z = rhs: one stacked SVD gives every
    2-norm condition number (inf at an exactly singular member); members at
    or under cond_limit share one stacked solve, the others get a
    minimum-norm least-squares solution each."""
    sv = np.linalg.svd(K, compute_uv=False)
    cond = np.divide(sv[:, 0], sv[:, -1], out=np.full(len(sv), np.inf),
                     where=sv[:, -1] > 0)
    near = cond > cond_limit
    z = np.empty(K.shape[:-1], dtype=complex)
    well = ~near
    if well.any():
        z[well] = np.linalg.solve(K[well], rhs[None, :, None])[..., 0]
    for i in np.flatnonzero(near):
        z[i] = np.linalg.lstsq(K[i], rhs, rcond=1e-12)[0]
    return z, cond, near


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


def truncated_system(params: StructureParams, point: BlochPoint,
                     incident: IncidentField, M: int = None):
    """(A, F, M) of `dtn.solve_truncated`'s system on (z, u.ravel()), u rows
    m = -M-1..M+1: A the CSC matrix of omega - H on the chain and |m| <= M,
    H the `strip_operator` of |m| <= M + 1, with each halo row replaced by
    I on the halo and the boundary map minus I on the trace next to it;
    M defaults to `default_truncation`."""
    import scipy.sparse as sp

    N = params.N
    hs = classify_harmonics(params, point)
    if M is None:
        M = default_truncation(hs)
    phi, theta, prop = hs.phi, hs.theta, list(hs.propagating)
    H = strip_operator(params, np.real(point.kappa), M + 1).tocoo()
    dim = H.shape[0]
    site = N + np.arange(dim - N).reshape(2 * M + 3, N)
    bulk = np.r_[0:N, site[1:-1].ravel()]   # the chain and |m| <= M
    keep = np.isin(H.row, bulk)
    rows, cols = [H.row[keep], bulk], [H.col[keep], bulk]
    vals = [-H.data[keep], np.full(len(bulk), point.omega)]
    Tmat = dtn_matrix(hs)
    waves = np.exp(2j * np.pi * np.outer(phi[prop], np.arange(N)))
    F = np.zeros(dim, dtype=complex)
    for h, b, amp in ((site[0], site[1], incident.a_inc),
                      (site[-1], site[-2], incident.b_inc)):
        rows += [h, h, np.repeat(h, N)]
        cols += [h, b, np.tile(b, N)]
        vals += [np.ones(N), -np.ones(N), Tmat.ravel()]
        F[h] = (-2j * np.sin(2 * np.pi * theta[prop]) * amp[prop]
                * np.exp(-2j * np.pi * theta[prop] * M)) @ waves
    A = sp.csc_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(dim, dim))
    return A, F, M


def rk4_stages(H, s, dt):
    """One classical Runge-Kutta step of ds/dt = -i H s on a flat vector."""
    k1 = -1j * (H @ s)
    k2 = -1j * (H @ (s + 0.5 * dt * k1))
    k3 = -1j * (H @ (s + 0.5 * dt * k2))
    k4 = -1j * (H @ (s + dt * k3))
    return s + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def classify_complex_point(N, kappa, omega):
    """_classify's complex branch at one point, one order at a time.

    kappa and omega are scalars, at least one with a nonzero imaginary
    part; returns (phi, theta, prop, thr) as `structure._classify` does.
    """
    phi = (np.asarray(kappa)[..., None] + np.arange(N)) / N
    real_kappa = np.imag(kappa) == 0.0
    omega = complex(omega)
    chi = (4.0 - omega) / 2.0 - np.cos(2.0 * np.pi * phi)
    chi_re = (4.0 - omega.real) / 2.0 - np.cos(2.0 * np.pi * np.real(phi))
    theta = np.zeros(N, dtype=complex)
    prop = np.zeros(N, dtype=bool)
    for l in range(N):
        p = np.arccos(chi[l] + 0j) / (2.0 * np.pi)
        if -1.0 < chi_re[l] < 1.0:
            theta[l], prop[l] = p, True
            lhs = (np.sin(2.0 * np.pi * p.real) * 2.0
                   * np.sinh(2.0 * np.pi * p.imag))
            if real_kappa and abs(lhs - omega.imag) > 1e-8 * (1.0 + abs(omega)):
                raise ValueError(
                    f"branch-continuation sign law violated at order {l}: "
                    f"{lhs} vs Im omega = {omega.imag}")
        else:
            cand = p if np.imag(p) > 0 else -p
            theta[l] = cand - np.floor(np.real(cand))
    return phi, theta, prop, np.zeros(N, dtype=bool)


def chain_kernel_mp(params, kappa, omega):
    """K(kappa, omega) as an mpmath matrix at the working precision.

    kappa and omega may be complex.  Each order is continued as
    `structure._classify` continues it: principal arccos where
    |Re chi| < 1 at Re phi, otherwise the sign of theta with Im theta > 0.
    K = omega - A(kappa) - sum_l w_l u_l / s_l with w_l = gamma P[:, l],
    u_l = P^-1[l, :] conj(gamma), s_l = 2i sin 2 pi theta_l.
    """
    import mpmath as mp

    N = params.N
    kappa, omega = mp.mpc(kappa), mp.mpc(omega)
    two_pi = 2 * mp.pi
    masses = [mp.mpf(float(x)) for x in params.masses]
    springs = [mp.mpf(float(x)) for x in params.springs]
    gam = [mp.mpc(complex(g)) for g in params.gammas]
    phi = [(kappa + l) / N for l in range(N)]
    s = []
    for f in phi:
        chi = (4 - omega) / 2 - mp.cos(two_pi * f)
        chi_re = (4 - omega.real) / 2 - mp.cos(two_pi * f.real)
        p = mp.acos(chi) / two_pi
        if not -1 < chi_re < 1:
            p = p if p.imag > 0 else -p
            p -= mp.floor(p.real)
        s.append(2j * mp.sin(two_pi * p))
    A = mp.matrix(N, N)
    for n in range(N):
        up = (n + 1) % N
        c = -springs[n] / mp.sqrt(masses[n] * masses[up])
        wrap = mp.exp(1j * two_pi * kappa) if up == 0 else 1
        A[n, n] += (springs[n] + springs[n - 1]) / masses[n]
        A[n, up] += c * wrap
        A[up, n] += c / wrap
    K = mp.matrix(N, N)
    for n in range(N):
        for m in range(N):
            K[n, m] = (omega if n == m else 0) - A[n, m] - sum(
                gam[n] * mp.exp(1j * two_pi * phi[l] * n)
                * mp.exp(-1j * two_pi * phi[l] * m) / N * mp.conj(gam[m])
                / s[l] for l in range(N))
    return K


def omega_gm_mp(params, kappa, omega_seed):
    """The zero of det K(kappa, .) that Newton's method reaches from the
    seed, checked to the working precision."""
    import mpmath as mp

    def det(w):
        return mp.det(chain_kernel_mp(params, kappa, w))

    return mp.findroot(det, mp.mpc(omega_seed), solver="newton")


def taylor_mp(params, kappa0, seed, r=1e-2, M=16):
    """Taylor coefficients c_k of omega_gm(kappa0 + z), k < M.

    c_k = (1/M) sum_j omega_gm(kappa0 + r e^{2 pi i j/M}) e^{-2 pi i jk/M}
    / r^k, each point by `omega_gm_mp` from seed(z); the error is about
    |c_{k+M}| r^M.  The circle must not reach a singularity of omega_gm.
    """
    import mpmath as mp

    r = mp.mpf(r)
    z = [r * mp.expjpi(mp.mpf(2 * j) / M) for j in range(M)]
    f = [omega_gm_mp(params, kappa0 + zj, seed(complex(zj))) for zj in z]
    return [sum(fj * mp.expjpi(-mp.mpf(2 * j * k) / M)
                for j, fj in enumerate(f)) / (M * r ** k) for k in range(M)]
