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
- `polish_bracketed`: a guided mode's kappa0 by growing a bracket on h = Im
  d omega_gm / d kappa and a secant in it, where `guided._polish` takes the
  root of h's Taylor polynomial on one circle around the candidate.
- `branch_bracketed`: the bifurcation branch's kappa0 by the same kind of
  bracket and a secant on h / kappa in kappa^2, where
  `resonance.trace_branch` takes it from one circle around the square-root
  law's prediction.
"""

from dataclasses import dataclass

import numpy as np

from latres import guided, resonance
from latres.scattering import (IncidentField, ScatteringSolution, _fourier,
                               reconstruct_field)
from latres.dtn import default_truncation, dtn_matrix
from latres.structure import (BlochPoint, HarmonicSet, StructureParams,
                              ThresholdError, _classify_off_threshold,
                              classify_harmonics, strip_operator,
                              waveguide_band_matrix)


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


def polish_bracketed(params, kappa, omega, reach):
    """`guided._polish` by bracket and secant alone, without the circle.

    The bracket starts at kappa +- reach and, while h = Im d omega_gm /
    d kappa keeps one sign on it, steps towards rising Im omega_gm by a
    doubling reach, at most GROW_STEPS times; |h| <= H_FLOOR has no sign to
    trust.  Once it holds kappa = 0, a standing mode there (|Im omega_gm(0)|
    at roundoff) gives kappa0 = 0.0, or else the bracket keeps the
    candidate's side.  The candidate's point then replaces the end with its
    sign of h where it lies inside with |h| > H_FLOOR, `_bracketed_secant`
    stops at a kappa step of POLISH_XTOL, and a circle at each root gives
    h' = 2 Im c2.  A failed solve, its circle's included, rejects its
    candidate.  Returns what `_polish` returns, the circle's gaps all NaN.
    """
    n = len(kappa)
    # each candidate's points (kappa, omega_gm, slope, eigenvector) at itself,
    # kappa = 0, its bracket ends and the secant's last iterate; omega_gm is
    # NaN where none is solved
    C, Z, LO, HI, NEW = range(5)
    pts = np.full((n, 5, 3 + params.N), np.nan, dtype=complex)
    solved = []  # the points of each _omega_gm round

    def put(i, slot, kap, seed, vref):
        solved.append(len(kap))
        try:
            om, slope, vec, _ = guided._omega_gm(params, kap, seed, vref)
        except (guided.ConvergenceError, ThresholdError) as err:
            om, slope, vec, _ = err.solved  # NaN where a point failed
        pts[i, slot] = np.column_stack([kap, om, slope, vec])

    def solve(i, slot, kap):
        """Candidates i at kap into slot(s), from their nearest solved one."""
        slot = np.broadcast_to(slot, i.shape)
        k = np.where(np.isnan(pts[i, :, 1]), np.nan, pts[i, :, 0].real)
        near = pts[i, np.nanargmin(np.abs(k - kap[:, None]), axis=1)]
        pts[i, slot] = near  # read back where kap is solved already
        new = near[:, 0].real != kap
        if new.any():
            k1, w1, s1 = near[new, :3].T
            put(i[new], slot[new], kap[new], w1 + s1 * (kap[new] - k1.real),
                near[new, 3:])

    put(np.arange(n), C, kappa, omega + 0j, None)
    pts[:, LO, 0], pts[:, HI, 0] = kappa - reach, kappa + reach
    live, secant = ~np.isnan(pts[:, C, 1]), np.zeros(n, dtype=bool)
    step, root = np.full(n, reach), np.full(n, np.nan)
    for _ in range(guided.GROW_STEPS + 1):
        # kappa = 0 is tried once, when the bracket first holds it
        z = np.flatnonzero(live & (pts[:, LO, 0].real < 0.0)
                           & (pts[:, HI, 0].real > 0.0)
                           & np.isnan(pts[:, Z, 1]))
        solve(z, Z, np.zeros(len(z)))
        om = pts[z, Z, 1]
        standing = abs(om.imag) <= guided.STANDING_IM_TOL * abs(om)
        root[z[standing]], live[z] = 0.0, ~standing & ~np.isnan(om)
        side = z[live[z]]
        end = np.where(kappa[side] >= 0.0, LO, HI)
        pts[side, end] = np.nan
        pts[side, end, 0] = (np.where(end == LO, reach, -reach)
                             * guided.SIDE_OFFSET)
        # both ends, seeded from the candidate or kappa = 0, in one stack
        i, end = np.nonzero(live[:, None] & np.isnan(pts[:, LO:HI + 1, 1]))
        solve(i, LO + end, pts[i, LO + end, 0].real)
        h_lo, h_hi = pts[:, LO, 2].imag, pts[:, HI, 2].imag
        # a failed solve (NaN) rejects its candidate too
        floor = ~(np.minimum(abs(h_lo), abs(h_hi)) > guided.H_FLOOR)
        secant |= live & ~floor & (h_lo * h_hi < 0.0)
        live &= ~floor & ~secant
        step[live] *= 2.0
        up, down = live & (h_hi > 0.0), live & ~(h_hi > 0.0)
        pts[up, LO], pts[down, HI] = pts[up, HI], pts[down, LO]
        pts[up, HI, 0] += step[up]
        pts[down, LO, 0] -= step[down]
        pts[up, HI, 1] = pts[down, LO, 1] = np.nan
    b = np.flatnonzero(secant)
    # the candidate's own point replaces the end with its sign of h
    kc, hc = pts[b, C, 0].real, pts[b, C, 2].imag
    inner = ((pts[b, LO, 0].real < kc) & (kc < pts[b, HI, 0].real)
             & (abs(hc) > guided.H_FLOOR))
    end = np.where(np.sign(hc) == np.sign(pts[b, LO, 2].imag), LO, HI)
    pts[b[inner], end[inner]] = pts[b[inner], C]
    h_lo = pts[b, LO, 2].imag

    def h(j, x):
        """h at x for brackets j, each iterate kept at the end it replaces."""
        i = b[j]
        solve(i, NEW, x)
        new = pts[i, NEW]
        left = np.sign(new[:, 2].imag) == np.sign(h_lo[j])
        pts[i[left], LO], pts[i[~left], HI] = new[left], new[~left]
        return new[:, 2].imag

    x, left = guided._bracketed_secant(
        h, pts[b, LO, 0].real, pts[b, HI, 0].real, h_lo, pts[b, HI, 2].imag,
        lambda x, y: np.abs(x - y) <= guided.POLISH_XTOL)
    root[b] = np.where(np.isnan(pts[b, NEW, 1]), np.nan, x)
    root[b[left]] = np.nan
    at = pts[np.arange(n), np.where(root == 0.0, Z, NEW)]
    found = ~np.isnan(root)
    h_prime = np.full(n, np.nan)
    if found.any():
        solved.append(guided.TAYLOR_POINTS * int(found.sum()))
        try:
            c = guided._taylor(params, root[found], *at[found, 1:3].T,
                        at[found, 3:])[0]
        except (guided.ConvergenceError, ThresholdError) as err:
            c = err.solved[0]
        h_prime[found] = 2.0 * c[:, 2].imag
    return (np.where(np.isnan(h_prime), np.nan, root), at[:, 1], h_prime,
            np.full(n, np.nan), solved)


def branch_bracketed(params, gamma0_values, gamma0_bracket):
    """`resonance.trace_branch`'s samples by bracket and secant alone.

    From `resonance._critical_coupling`'s gamma0* (the gamma0 given lie on
    the branch's side), every gamma0 is solved at once, kappa0 the root on
    kappa > 0 of h = Im d omega_gm / d kappa, each `_omega_gm` call over
    the gamma0 still active and each point continued along the tangent of
    its last solve (the first from gamma0*'s kappa = 0 point).  The bracket
    (1e-6, 1e-3) doubles its top, point by point, until h changes sign; a
    top past 0.2 raises RuntimeError.  `guided._bracketed_secant` then
    runs on h / kappa in u = kappa^2, nearly linear there, until its kappa
    step is at most `resonance.BRANCH_XTOL`, and a circle at each root gives
    h' = 2 Im c2.  Returns the samples (gamma0, kappa0, omega0) outwards from
    gamma0* and h'(kappa0).
    """
    g_star, star, h_prime_slope, *_ = resonance._critical_coupling(
        params, gamma0_bracket)
    outwards = sorted(gamma0_values, reverse=bool(h_prime_slope < 0))
    n = len(outwards)
    gam = np.tile(params.gammas, (n, 1))
    gam[:, 0] = outwards
    # each point's last solve: kappa, omega_gm, its slope, eigenvector
    kl, wl = np.zeros(n), np.full(n, star[0])
    sl, vl = np.full(n, star[1]), np.repeat(star[2][None], n, axis=0)

    def h_over_kappa(idx, kap):
        """h(kappa) / kappa at points idx, each continued from its last."""
        om, slope, vec, _ = guided._omega_gm(
            params, kap, wl[idx] + sl[idx] * (kap - kl[idx]), vl[idx],
            gam[idx])
        kl[idx], wl[idx], sl[idx], vl[idx] = kap, om, slope, vec
        return slope.imag / kap

    every = np.arange(n)
    lo, hi = np.full(n, 1e-6), np.full(n, 1e-3)
    g_lo, g_hi = h_over_kappa(every, lo), h_over_kappa(every, hi)
    grow = np.flatnonzero(g_lo * g_hi > 0.0)
    while grow.size:
        lo[grow], g_lo[grow] = hi[grow], g_hi[grow]
        hi[grow] *= 2.0
        over = grow[hi[grow] > 0.2]
        if over.size:
            raise RuntimeError(f"no branch point for gamma0={outwards[over[0]]}"
                               f" below kappa=0.2")
        g_hi[grow] = h_over_kappa(grow, hi[grow])
        grow = grow[g_lo[grow] * g_hi[grow] > 0.0]
    _, left = guided._bracketed_secant(
        lambda i, u: h_over_kappa(i, np.sqrt(u)), lo ** 2, hi ** 2, g_lo,
        g_hi, lambda u, v: (np.abs(np.sqrt(u) - np.sqrt(v))
                            <= resonance.BRANCH_XTOL))
    if left.size:
        raise guided.ConvergenceError(
            f"branch secant did not converge for gamma0={outwards[left[0]]}")
    c = guided._taylor(params, kl, wl, sl, vl, gam)[0]
    return (tuple((float(g0), float(k), float(w.real))
                  for g0, k, w in zip(outwards, kl, wl)), 2.0 * c[:, 2].imag)
