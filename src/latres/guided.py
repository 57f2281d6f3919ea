"""Guided-mode location and dispersion fitting.

A guided mode is a sourceless solution whose propagating coefficients all
vanish: an isolated real pair (kappa0, omega0) where a chain field z has
K_H z = 0 and W^H z = 0, with K_H the chain kernel without the propagating
orders' terms and W their w_l (`scattering._chain_kernel`).  `sigma_min`
certifies a mode and `null_vector` gives its field, both from one SVD of
[K_H; W^H].  `find_guided_modes` takes its candidates from the zero
crossings of K_H's eigenvalues, which Sylvester's inertia counts in each
threshold region.  Around a mode the zero of the tracked eigenvalue of the
N x N chain kernel K(kappa, omega) is a complex dispersion curve
omega_gm(kappa), solved only by `_omega_gm`: stacked Newton in complex
omega at many real or complex kappa (and couplings) at once.  Its Taylor
coefficients come only from Cauchy circles in complex kappa (`_taylor`):
the dispersion slope and curvature, h' = 2 Im c2 and, in `resonance`, the
critical coupling.  `_polish` takes kappa0 where h(kappa) = Im d omega_gm /
d kappa vanishes and Im omega_gm peaks at 0; the real zero of det K there is
degenerate (the curve only touches the real plane), so it is not solved.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .structure import (BlochPoint, StructureParams, ThresholdError,
                        _classify, _classify_off_threshold, _thresholds)
from .scattering import _KappaStage, _chain_kernel, _chunks

TWO_PI = 2.0 * np.pi
EPS = np.finfo(float).eps
# |Im omega_gm(0)| / |omega_gm(0)| at or below which kappa = 0 holds a
# standing mode
STANDING_IM_TOL = 1e-13
# where the bracket starts, as a fraction of its reach, on the candidate's
# side of kappa = 0 once kappa = 0 is refused (h(0) = 0 for mirror-symmetric
# structures)
SIDE_OFFSET = 1e-6
# bracket growth steps before a candidate is given up
GROW_STEPS = 4
# |h| at or below which its sign is roundoff (h vanishes where K is
# Hermitian)
H_FLOOR = 1e-12
# how far inside its thresholds a region is probed; |chi| - 1 moves half as
# far, well outside THRESHOLD_TOL
PROBE_OFFSET = 1e-7
# eigenvector overlap below which the tracker reports a lost track
OVERLAP_MIN = 0.7
# the tracker's and the crossings' Newton: |lambda| stop (relative to
# max(1, ||K_H||) for the crossings), step limit
NEWTON_TOL = 1e-13
NEWTON_STEPS = 80
# the bracketed secant's step limit (bisection alone takes a bracket of 32
# to 1e-15 in 55 steps), and the polish's stop on a kappa step
SECANT_STEPS = 60
POLISH_XTOL = 4e-15
# `_taylor`'s Cauchy circles: radius in kappa and points.  c_k carries
# roundoff of about eps |omega| / R^k and aliasing of about |c_(k+M)| R^M,
# (R / rho)^M relative for a singularity rho away: at R = 3e-2 a mode of
# gammas (1, 5) with rho near 0.08 takes 2e-9 into c1
TAYLOR_RADIUS = 1e-2
TAYLOR_POINTS = 16
# kt samples on each side of kappa0 in the dispersion CSV
DISPERSION_SAMPLES = 10

log = logging.getLogger("latres")


class ConvergenceError(RuntimeError):
    """An iteration ran out of steps before meeting its stopping test."""


def _certificate(params, kappa, omega):
    """M = [K_H; W^H] at real points, with P^-1, s and the propagating mask.

    Column l of W is w_l = gamma * P[:, l] on a propagating order and 0 on
    the others, so M z = 0 says K_H z = 0 and that z radiates into no
    propagating order; the zero rows of W^H change no singular value.
    omega may be a scalar or 1-D, M then has shape omega.shape + (2N, N).
    """
    _, theta, prop = _classify_off_threshold(params.N, kappa, omega)
    K_H, P, Pinv, s, _, _ = _chain_kernel(params, kappa, omega, theta, prop)
    W = params.gammas[:, None] * P * prop[..., None, :]
    return (np.concatenate([K_H, W.conj().swapaxes(-1, -2)], axis=-2), Pinv,
            s, prop)


def _sigma(params, kappa, omega):
    """`sigma_min` at the points of `_certificate`, in one stacked SVD."""
    s = np.linalg.svd(_certificate(params, kappa, omega)[0], compute_uv=False)
    return s[..., -1] / s[..., 0]


def sigma_min(params: StructureParams, point: BlochPoint) -> float:
    """sigma_min / sigma_max of [K_H; W^H] (`_certificate`).

    It vanishes exactly at a guided mode: a chain field z with K_H z = 0
    and w_l^H z = 0 on every propagating order l.
    """
    return float(_sigma(params, point.kappa, point.omega))


def null_vector(params: StructureParams, point: BlochPoint):
    """The mode's coefficients (evanescent a_minus, b_plus, then c) and labels.

    z is the last right singular vector of [K_H; W^H]; c = P^-1 z, and on
    each evanescent order a_minus = b_plus = (P^-1 (conj(gamma) z))_l / s_l,
    `_solve_chain`'s trace without incidence (the propagating ones are 0
    and left out).  The vector has unit 2-norm, and its c entry of largest
    modulus (the first on a tie) is real and positive.
    """
    return _null_vectors(params, point.kappa, np.array([point.omega]))[0]


def _null_vectors(params, kappa, omega):
    """`null_vector` at the points (kappa, omega) of `_certificate`, omega
    1-D, from one stacked SVD: a list of (vector, labels)."""
    M, Pinv, s, prop = _certificate(params, kappa, omega)
    z = np.linalg.svd(M)[2][:, -1].conj()
    traces = (Pinv @ (np.conj(params.gammas) * z)[..., None])[..., 0] / s
    cs = (Pinv @ z[..., None])[..., 0]
    vectors = []
    for trace, c, evanescent in zip(traces, cs, ~prop):
        vec = np.concatenate([trace[evanescent], trace[evanescent], c])
        vec *= np.conj(c[np.argmax(np.abs(c))])
        orders = np.flatnonzero(evanescent).tolist()
        labels = ([("a_minus", l) for l in orders]
                  + [("b_plus", l) for l in orders]
                  + [("c", l) for l in range(params.N)])
        vectors.append((vec / np.linalg.norm(vec), labels))
    return vectors


@dataclass(frozen=True)
class GuidedMode:
    """An isolated real (kappa0, omega0) with its confined field profile."""

    kappa0: float
    omega0: float
    # sigma_min at (kappa0, omega0): roundoff at a mode
    sigma: float
    null_vector: np.ndarray
    null_labels: tuple
    region_size: int
    # certificate: |Im omega_gm(kappa0)|, the smallest |eigenvalue| of K at
    # (kappa0, omega0), and h'(kappa0) with h = Im d omega_gm / d kappa
    # (0 on the robust branch, where the modes form a curve)
    im_omega: float = float("nan")
    min_eigenvalue: float = float("nan")
    h_prime: float = float("nan")

    @property
    def c(self) -> np.ndarray:
        """Chain coefficients of the null vector."""
        idx = [i for i, (kind, _) in enumerate(self.null_labels) if kind == "c"]
        return self.null_vector[idx]


def _bracketed_secant(f, a, b, fa, fb, close):
    """Roots of f in many brackets (a, b) at once, by an active-set secant.

    f(i, x) gives f at x for the brackets i (indices into a), fa and fb its
    values at the ends, of opposite signs.  Each bracket steps along the
    secant through its last two iterates (first its ends), bisecting where
    that step would leave the bracket, and keeps the sign change, until
    close(x, x_last) holds or f is 0 or NaN.  Returns each bracket's last
    iterate and the brackets still active after SECANT_STEPS steps.
    """
    a, b = a.copy(), b.copy()
    x1, f1, x2, f2 = a.copy(), fa.copy(), b.copy(), fb.copy()
    i = np.arange(len(a))
    for _ in range(SECANT_STEPS):
        if not i.size:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            x = x2[i] - f2[i] * (x2[i] - x1[i]) / (f2[i] - f1[i])
        x = np.where((a[i] < x) & (x < b[i]), x, (a[i] + b[i]) / 2.0)
        fx = f(i, x)
        left = np.sign(fx) == np.sign(fa[i])
        a[i], b[i] = np.where(left, x, a[i]), np.where(left, b[i], x)
        done = close(x, x2[i]) | (fx == 0) | np.isnan(fx)
        x1[i], f1[i], x2[i], f2[i] = x2[i], f2[i], x, fx
        i = i[~done]
    return x2, i


def _taylor(params, kappa0, omega0, slope0, vec0, gammas=None, offsets=()):
    """Taylor coefficients c_k of omega_gm(kappa0 + z) at real points kappa0.

    c_k = (1/M) sum_j omega_gm(kappa0 + R e^{2 pi i j/M}) e^{-2 pi i jk/M}
    / R^k, the FFT of each point's Cauchy circle (R = TAYLOR_RADIUS, M =
    TAYLOR_POINTS; Lyness & Moler 1967).  One `_omega_gm` call solves every
    circle and each point's real kappa0 + offsets, seeded along the tangent
    omega0 + slope0 z from eigenvector vec0 (or None), with couplings gammas
    (points x N) where given.  Returns c (points x M), omega_gm, slope and
    eigenvector at the offsets (points x offsets) and the Newton steps; a
    failed solve raises its error, solved holding these (NaN where failed).
    """
    M, n = TAYLOR_POINTS, len(kappa0)
    z = np.concatenate([TAYLOR_RADIUS * np.exp(1j * TWO_PI / M * np.arange(M)),
                        offsets])
    at, dz, error = np.repeat(np.arange(n), len(z)), np.tile(z, n), None
    try:
        out = _omega_gm(params, np.asarray(kappa0)[at] + dz,
                        omega0[at] + slope0[at] * dz,
                        None if vec0 is None else vec0[at],
                        None if gammas is None else gammas[at])
    except (ConvergenceError, ThresholdError) as err:
        error, out = err, err.solved
    om, slope, vec, steps = (x.reshape((n, len(z)) + x.shape[1:]) for x in out)
    c = np.fft.fft(om[:, :M], axis=-1) / M / TAYLOR_RADIUS ** np.arange(M)
    out = (c, om[:, M:], slope[:, M:], vec[:, M:], steps)
    if error is not None:
        error.solved = out
        raise error
    return out


def _polish(params, kappa, omega, reach):
    """The modes that candidates (kappa, omega) point to, all at once.

    Each candidate has a propagating order (one without lies on the robust
    branch and is a mode already).  Returns kappa0 (NaN where a candidate
    leads to no mode), omega_gm(kappa0), h'(kappa0) = 2 Im c2 (`_taylor`)
    and the points each `_omega_gm` round solved.  kappa0 is a root of h =
    Im d omega_gm / d kappa.  The bracket starts at kappa +- reach and, while
    h keeps one sign on it, steps towards rising Im omega_gm by a doubling
    reach, at most GROW_STEPS times; |h| <= H_FLOOR has no sign to trust.
    Once it holds kappa = 0, a standing mode there (|Im omega_gm(0)| at
    roundoff) gives kappa0 = 0.0, or else the bracket keeps the candidate's
    side.  The candidate's point then replaces the end with its sign of h
    where it lies inside with |h| > H_FLOOR, and `_bracketed_secant` stops
    at a kappa step of POLISH_XTOL, h's roundoff over |h'| on fixture 1.
    Each round is one `_omega_gm` call over the candidates still active
    (both ends of a first bracket in one, every root's circle in the last),
    the first from the candidate's omega and the smallest |eigenvalue|, the
    others along the tangent of the nearest point solved: the candidate,
    kappa = 0 or a bracket end, read back where it is the kappa asked for.
    A failed solve, its circle's included, rejects its candidate.
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
            om, slope, vec, _ = _omega_gm(params, kap, seed, vref)
        except (ConvergenceError, ThresholdError) as err:
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
    for _ in range(GROW_STEPS + 1):
        # kappa = 0 is tried once, when the bracket first holds it
        z = np.flatnonzero(live & (pts[:, LO, 0].real < 0.0)
                           & (pts[:, HI, 0].real > 0.0)
                           & np.isnan(pts[:, Z, 1]))
        solve(z, Z, np.zeros(len(z)))
        om = pts[z, Z, 1]
        standing = abs(om.imag) <= STANDING_IM_TOL * abs(om)
        root[z[standing]], live[z] = 0.0, ~standing & ~np.isnan(om)
        side = z[live[z]]
        end = np.where(kappa[side] >= 0.0, LO, HI)
        pts[side, end] = np.nan
        pts[side, end, 0] = np.where(end == LO, reach, -reach) * SIDE_OFFSET
        # both ends, seeded from the candidate or kappa = 0, in one stack
        i, end = np.nonzero(live[:, None] & np.isnan(pts[:, LO:HI + 1, 1]))
        solve(i, LO + end, pts[i, LO + end, 0].real)
        h_lo, h_hi = pts[:, LO, 2].imag, pts[:, HI, 2].imag
        # a failed solve (NaN) rejects its candidate too
        floor = ~(np.minimum(abs(h_lo), abs(h_hi)) > H_FLOOR)
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
             & (abs(hc) > H_FLOOR))
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

    x, left = _bracketed_secant(h, pts[b, LO, 0].real, pts[b, HI, 0].real,
                                h_lo, pts[b, HI, 2].imag,
                                lambda x, y: np.abs(x - y) <= POLISH_XTOL)
    root[b] = np.where(np.isnan(pts[b, NEW, 1]), np.nan, x)
    root[b[left]] = np.nan
    at = pts[np.arange(n), np.where(root == 0.0, Z, NEW)]
    found = ~np.isnan(root)
    h_prime = np.full(n, np.nan)
    if found.any():
        solved.append(TAYLOR_POINTS * int(found.sum()))
        try:
            c = _taylor(params, root[found], *at[found, 1:3].T,
                        at[found, 3:])[0]
        except (ConvergenceError, ThresholdError) as err:
            c = err.solved[0]
        h_prime[found] = 2.0 * c[:, 2].imag
    return (np.where(np.isnan(h_prime), np.nan, root), at[:, 1], h_prime,
            solved)


def _crossings(params, kappas, wmin, wmax, Q=None):
    """Every zero crossing of K_H's eigenvalues on kappa rows in [wmin, wmax].

    wmin and wmax may be columns, one entry per row.  Given Q (rows x N x
    (N - 1), orthonormal columns per row), K_H stands for Q^H K_H Q and its
    omega-derivative for Q^H K_H' Q, which is I plus a PSD matrix too.  In a
    threshold region each sorted eigenvalue lambda_j of K_H rises, so it
    crosses 0 once exactly when j lies between the counts of negative
    eigenvalues (Sylvester's inertia) at the region's ends, probed
    PROBE_OFFSET inside.  One active-set loop of Newton steps on lambda_j,
    slope v^H K_H' v (Hellmann-Feynman), solves them all, bisecting where a
    step would leave the bracket or not halve the last step, until
    |lambda_j| <= NEWTON_TOL max(1, ||K_H||) or the step is at most
    4 eps |omega|; stacks go in STACK_BYTES chunks, rows in blocks whose
    `_KappaStage` fits in it.  Returns the regions
    probed and, per crossing: row, region (each order's state, 0 below its
    band, 1 in it, 2 above, as base-3 digits), j, nprop, omega, q =
    ||W^H Q v|| / ||W|| (0 if W = 0, where W^H v = 0 holds) and its Newton
    steps.
    """
    N = params.N
    kappas = np.asarray(kappas, dtype=float)
    blocks = _chunks(len(kappas), 5 * 16 * N * N)  # K's kappa stage per row
    if len(blocks) > 1:
        w = [np.broadcast_to(x, (len(kappas), 1)) for x in (wmin, wmax)]
        parts = [_crossings(params, kappas[b], w[0][b], w[1][b],
                            None if Q is None else Q[b]) for b in blocks]
        cross = {k: np.concatenate([c[k] + (b.start if k == "row" else 0)
                                    for b, (_, c) in zip(blocks, parts)])
                 for k in parts[0][1]}
        return sum(p for p, _ in parts), cross
    thr = _thresholds(N, kappas)
    ends = np.sort(thr, axis=-1)
    edge = np.full((len(kappas), 1), np.inf)
    lo = np.maximum(np.concatenate([-edge, ends], axis=1) + PROBE_OFFSET, wmin)
    hi = np.minimum(np.concatenate([ends, edge], axis=1) - PROBE_OFFSET, wmax)
    row, reg = np.nonzero(lo < hi)
    lo, hi = lo[row, reg], hi[row, reg]
    mid = (lo + hi)[:, None] / 2.0
    state = (mid > thr[row, :N]).astype(int) + (mid > thr[row, N:])

    def compress(M, rows):
        """M, or Q^H M Q with the Q of each point's row."""
        if Q is None:
            return M
        B = Q[rows]
        return B.conj().swapaxes(-1, -2) @ M @ B

    # the bytes of one point's stacked matrices: K_H, dK_H, W, A, P, ...
    item = 8 * 16 * N * N
    stage = _KappaStage(params, kappas).rows  # each point takes its row's
    neg = np.empty((len(row), 2), dtype=int)
    for part in _chunks(len(row), 2 * item)[:len(row)]:  # none if no region
        kap, om = kappas[row[part], None], np.column_stack([lo[part],
                                                            hi[part]])
        _, theta, prop = _classify_off_threshold(N, kap, om)
        K_H = stage(row[part, None]).at(om, theta, prop)[0]
        neg[part] = np.sum(np.linalg.eigvalsh(compress(K_H, row[part, None]))
                           < 0.0, axis=-1)
    count = np.maximum(neg[:, 0] - neg[:, 1], 0)
    at = np.repeat(np.arange(len(row)), count)
    j = neg[at, 1] + np.arange(len(at)) - np.repeat(np.cumsum(count) - count,
                                                    count)
    r, a, b = row[at], lo[at], hi[at]  # r: each crossing's row
    kap = kappas[r]
    om, dx = (a + b) / 2.0, b - a
    q, steps = np.zeros(len(at)), np.zeros(len(at), dtype=int)
    active = np.arange(len(at))
    for _ in range(NEWTON_STEPS):
        if not active.size:
            break
        steps[active] += 1
        done = np.empty(active.size, dtype=bool)
        for part in _chunks(active.size, item):
            p = active[part]
            _, theta, prop = _classify_off_threshold(N, kap[p], om[p])
            rows = stage(r[p])
            K_H, _, _, _, dK_H, _ = rows.at(om[p], theta, prop)
            W = rows.gP * prop[:, None, :]
            lam, V = np.linalg.eigh(compress(K_H, r[p]))
            f, v = lam[np.arange(len(p)), j[p]], V[np.arange(len(p)), :, j[p]]
            a[p] = np.where(f < 0.0, om[p], a[p])
            b[p] = np.where(f > 0.0, om[p], b[p])
            step = f / np.einsum("pi,pik,pk->p", v.conj(),
                                 compress(dK_H(), r[p]), v).real
            if Q is not None:
                v = np.einsum("pik,pk->pi", Q[r[p]], v)
            # a converged step is taken even where it rounds onto the bracket
            small = ((np.abs(f) <= NEWTON_TOL * np.maximum(
                          1.0, np.abs(lam).max(axis=-1)))
                     | (np.abs(step) <= 4.0 * EPS * np.abs(om[p])))
            bisect = ~small & ((om[p] - step <= a[p]) | (om[p] - step >= b[p])
                               | (np.abs(step) > 0.5 * dx[p]))
            dx[p] = np.where(bisect, (b[p] - a[p]) / 2.0, np.abs(step))
            om[p] = np.where(bisect, (a[p] + b[p]) / 2.0, om[p] - step)
            norm = np.linalg.norm(W, axis=(-2, -1))
            q[p] = np.divide(np.linalg.norm(np.einsum(
                "pil,pi->pl", W.conj(), v), axis=-1), norm,
                out=np.zeros(len(p)), where=norm > 0.0)
            done[part] = small | (dx[p] <= 4.0 * EPS * np.abs(om[p]))
        active = active[~done]
    if active.size:
        raise ConvergenceError(
            f"crossing Newton did not converge at kappa={kap[active[0]]}: "
            f"{active.size} crossings left after {NEWTON_STEPS} steps")
    return len(row), {"row": r, "j": j, "omega": om, "q": q,
                      "region": (state @ 3 ** np.arange(N))[at],
                      "nprop": np.sum(state == 1, axis=-1)[at], "steps": steps}


def find_guided_modes(params: StructureParams, window, density: int = 400,
                      tol: float = 1e-8):
    """Polish the candidates among K_H's zero crossings on density kappa rows.

    window = (kappa_min, kappa_max, omega_min, omega_max), with each min
    below its max, density >= 2 and tol a finite number > 0; otherwise
    ValueError is raised before any solve.  The crossings from `_crossings`
    are linked along kappa into branches by region and eigenvalue index;
    the candidates are the points of a branch with a propagating order where
    q = ||W^H v|| / ||W|| (0 at a mode) is no larger than at its neighbours,
    and every point without one.  Those with a propagating order are
    polished together on omega_gm (`_polish`, its bracket starting two row
    steps out).  The others lie on the robust branch, a curve of modes where
    K = K_H, so each is a mode as solved, with Im omega_gm = 0 and h' = 0.
    A mode is kept when (kappa0, Re omega_gm) lies in the window and
    sigma_min there falls below tol; the others are rejected.  A mode at
    kappa0 < 0 is reported at -kappa0 when sigma_min there falls below tol
    too (as for mirror-symmetric structures, such as those with real
    couplings), and keeps its sign otherwise; duplicates are then merged.
    The window applies before that fold, so a folded mode can lie outside
    it.  Each mode carries its certificate at the point reported: |Im
    omega_gm(kappa0)|, the smallest |eigenvalue| of K, h'(kappa0) and
    sigma_min, each one call stacked over the modes.  A DEBUG line on the
    `latres` logger counts the kappa rows, regions probed, crossings solved
    and their most Newton steps, the candidates, those rejected or merged,
    the polish's `_omega_gm` rounds and points, and the modes, and lists
    each mode's certificate.
    """
    kmin, kmax, wmin, wmax = window
    if not (kmin < kmax and wmin < wmax and density >= 2):
        raise ValueError(f"the mode search needs kappa_min < kappa_max, "
                         f"omega_min < omega_max and density >= 2, got "
                         f"window {tuple(window)} and density {density}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"the mode search needs a finite tol > 0, got {tol}")
    kappas = np.linspace(kmin, kmax, density)
    probed, cross = _crossings(params, kappas, wmin, wmax)
    branch = cross["region"] * params.N + cross["j"]
    order = np.lexsort((cross["row"], branch))
    branch, q = branch[order], cross["q"][order]
    pick = cross["nprop"][order] == 0
    pick[1:-1] |= ((branch[1:-1] == branch[:-2]) & (branch[1:-1] == branch[2:])
                   & (q[1:-1] <= q[:-2]) & (q[1:-1] <= q[2:]))
    pick = order[pick]
    pick = pick[np.lexsort((cross["omega"][pick], cross["row"][pick]))]
    roots = kappas[cross["row"][pick]]
    om_gms = cross["omega"][pick] + 0j
    h_primes, rounds = np.zeros(len(pick)), []
    # a candidate with a propagating order is polished, the others are modes
    polish = cross["nprop"][pick] > 0
    if polish.any():
        reach = 2.0 * (kmax - kmin) / (density - 1)
        roots[polish], om_gms[polish], h_primes[polish], rounds = _polish(
            params, roots[polish], cross["omega"][pick][polish], reach)
    # the certificates: each is one stacked call over the candidates
    om0s = om_gms.real
    sig = np.full(len(pick), np.inf)
    inside = ((kmin <= roots) & (roots <= kmax)  # False if NaN
              & (wmin <= om0s) & (om0s <= wmax))
    sig[inside] = _sigma(params, roots[inside], om0s[inside])
    kept = sig <= tol
    rejected = len(pick) - int(kept.sum())
    kap0s, om0s, om_gms, h_primes, sig = (
        x[kept] for x in (roots, om0s, om_gms, h_primes, sig))
    # fold onto -kappa0 where that is a mode too
    neg = np.flatnonzero(kap0s < 0.0)
    if neg.size:
        flipped = _sigma(params, -kap0s[neg], om0s[neg])
        neg, flipped = neg[flipped <= tol], flipped[flipped <= tol]
        kap0s[neg], sig[neg] = -kap0s[neg], flipped
    unique, seen = [], []
    for i, (kap0, om0) in enumerate(zip(kap0s.tolist(), om0s.tolist())):
        if not any(abs(kap0 - a) < 1e-6 and abs(om0 - b) < 1e-6
                   for a, b in seen):
            unique.append(i)
            seen.append((kap0, om0))
    kap0s, om0s, om_gms, h_primes, sig = (
        x[unique] for x in (kap0s, om0s, om_gms, h_primes, sig))
    # without a reference the smallest |eigenvalue| of K is taken
    lam = _tracked_eigenvalue(_KappaStage(params, kap0s), om0s, None)[0]
    counts = _classify(params.N, kap0s, om0s)[2].sum(axis=-1)
    modes = [GuidedMode(
        kappa0=float(kap0s[i]), omega0=float(om0s[i]), sigma=float(sig[i]),
        null_vector=vec, null_labels=tuple(labels),
        region_size=int(counts[i]), im_omega=float(abs(om_gms[i].imag)),
        min_eigenvalue=float(abs(lam[i])), h_prime=float(h_primes[i]))
        for i, (vec, labels) in enumerate(_null_vectors(params, kap0s, om0s))]
    modes.sort(key=lambda m: (m.kappa0, m.omega0))
    certificates = "; ".join(
        f"({m.kappa0:.15g}, {m.omega0:.15g}): |Im omega_gm| {m.im_omega:.2g}"
        f", min|eig K| {m.min_eigenvalue:.2g}, h' {m.h_prime:.6g}, "
        f"sigma_min {m.sigma:.2g}" for m in modes)
    log.debug("guided-mode search: %d kappa rows, %d regions probed, %d "
              "crossings solved, at most %d Newton steps, %d candidates, %d "
              "rejected, %d merged as duplicates, %d polish rounds solving "
              "%d points, certificates [%s], %d modes", density, probed,
              len(cross["omega"]), cross["steps"].max(initial=0), len(pick),
              rejected, len(pick) - rejected - len(modes), len(rounds),
              sum(rounds), certificates, len(modes))
    return modes


def _tracked_eigenvalue(stage, omega, vref):
    """K's tracked eigenvalue at points (kappa, omega), omega 1-D.

    stage is `_chain_kernel`'s kappa stage (with each point's couplings,
    where they differ) at one kappa for every point or one per point; vref
    (points x N) holds each point's reference eigenvector, or is None to take
    the smallest |eigenvalue|.  One stacked omega stage and eig take the
    eigenvalue lambda whose unit eigenvector overlaps the reference most;
    below OVERLAP_MIN, ConvergenceError naming kappa is raised, its points
    masking those points (as ThresholdError's do).  Returns lambda, the right
    and left eigenvectors v (columns) and y (rows) with y v = 1, and
    `_chain_kernel`'s K_omega and K_kappa: d lambda = y K' v.
    """
    _, theta, _ = _classify_off_threshold(stage.params.N, stage.kappa, omega)
    K, _, _, _, K_om, K_kap = stage.at(omega, theta)
    lam, V = np.linalg.eig(K)  # unit eigenvectors
    at = np.arange(len(lam))
    if vref is None:
        i = np.argmin(np.abs(lam), axis=-1)
    else:
        ov = np.abs(vref[:, None, :].conj() @ V)[:, 0]
        i = np.argmax(ov, axis=-1)
        lost = ov[at, i] < OVERLAP_MIN
        if lost.any():
            p = np.argmax(lost)
            error = ConvergenceError(
                f"lost eigenvalue track at (kappa="
                f"{np.broadcast_to(stage.kappa, omega.shape)[p]}, omega="
                f"{omega[p]}): best overlap {ov[p, i[p]]:.3f}")
            error.points = lost
            raise error
    # row i of V^-1
    y = np.linalg.solve(V.swapaxes(-1, -2),
                        np.eye(K.shape[-1])[i, :, None]).swapaxes(-1, -2)
    return lam[at, i], V[at, :, i, None], y, K_om, K_kap


def _omega_gm(params, kappa, omega_seed, vref, gammas=None):
    """omega_gm at many kappa at once: Newton on K's tracked eigenvalue.

    kappa (real or complex) and omega_seed are 1-D, one point per entry;
    vref is as in `_tracked_eigenvalue`, gammas (points x N) replaces
    params.gammas.  Each step moves omega by lambda / (y K_omega v) on one
    kappa stage's rows at the points still active, each tracking its
    eigenvector from its last step.  A point stops after the step at which
    |lambda| < NEWTON_TOL or the step is at roundoff, |step| <= 4 eps
    |omega|.  Returns omega_gm, d omega_gm / d kappa = -lambda_kappa /
    lambda_omega and the unit eigenvector, both at the last point before the
    stopping step, and each point's steps.  A point on a threshold, one whose
    track is lost and one still active after NEWTON_STEPS steps fails: it
    stops with NaN results while the others go on, and the first failure's
    error is raised at the end, with solved holding every point's results.
    """
    kappa = np.asarray(kappa)
    n_pts = len(kappa)
    om, slope = np.full((2, n_pts), np.nan, dtype=complex)
    vec = np.full((n_pts, params.N), np.nan, dtype=complex)
    steps = np.zeros(n_pts, dtype=int)
    # the active points: their index, kappa stage, omega, eigenvector
    idx, w = np.arange(n_pts), np.array(omega_seed, dtype=complex)
    stage = _KappaStage(params, kappa, gammas)
    v_ref = None if vref is None else np.asarray(vref)

    def keep(active):
        nonlocal idx, stage, w, v_ref
        idx, stage, w = idx[active], stage.rows(active), w[active]
        v_ref = None if v_ref is None else v_ref[active]

    error, n = None, 0
    while idx.size and n < NEWTON_STEPS:
        try:
            f, v, y, K_om, K_kap = _tracked_eigenvalue(stage, w, v_ref)
        except (ConvergenceError, ThresholdError) as err:
            # the failed points stop; the step is taken again without them
            error = error or err
            keep(~err.points)
            continue
        n += 1
        d_om = (y @ K_om() @ v)[:, 0, 0]
        step = f / d_om
        w = w - step
        v_ref = v[..., 0]
        done = ((np.abs(f) < NEWTON_TOL)
                | (np.abs(step) <= 4.0 * EPS * np.abs(w)))
        if done.any():
            j = idx[done]
            om[j], vec[j], steps[j] = w[done], v_ref[done], n
            lam_kap = (y[done] @ K_kap()[done] @ v[done])[:, 0, 0]
            slope[j] = -lam_kap / d_om[done]
            keep(~done)
    if idx.size:
        error = error or ConvergenceError(
            f"eigenvalue Newton did not converge at kappa={stage.kappa[0]}:"
            f" {idx.size} points left after {NEWTON_STEPS} steps")
    if error is not None:
        error.solved = om, slope, vec, steps
        raise error
    return om, slope, vec, steps


class EigenvalueTracker:
    """Follow the smallest-magnitude eigenvalue of the chain kernel K.

    Eigenvalues are matched between calls by eigenvector overlap, so the
    tracked branch does not swap near its zero.  `value` leaves the exact
    derivatives d lambda = y K' v (y v = 1) in d_omega and d_kappa, which
    forms K_kappa when read; `solve_omega` leaves d omega_gm / d kappa in
    slope.  The library calls neither; the class serves the benchmark's
    tracer and the tests.
    """

    def __init__(self, params: StructureParams):
        self.params = params
        self._vref = self.d_omega = self.slope = None

    def _reference(self):
        return None if self._vref is None else self._vref[None]

    def value(self, kappa, omega):
        lam, self._v, self._y, K_om, self._K_kappa = _tracked_eigenvalue(
            _KappaStage(self.params, kappa), np.array([omega]),
            self._reference())
        self._vref = self._v[0, :, 0]
        self.d_omega = (self._y @ K_om() @ self._v)[0, 0, 0]
        return lam[0]

    @property
    def d_kappa(self):
        return (self._y @ self._K_kappa() @ self._v)[0, 0, 0]

    def eigenvector(self):
        return self._vref

    def solve_omega(self, kappa, omega_seed):
        """omega_gm at kappa from omega_seed by `_omega_gm`, tracking the
        last call's eigenvector (or the smallest |eigenvalue|); then holds
        the solve's, with its d omega_gm / d kappa in slope."""
        om, slope, vec, _ = _omega_gm(self.params, [kappa], [omega_seed],
                                      self._reference())
        self._vref, self.slope = vec[0], complex(slope[0])
        return complex(om[0])


@dataclass(frozen=True)
class DispersionFit:
    """Local expansion omega_gm(kappa0 + kt) = omega0 - slope*kt - curvature*kt^2.

    slope is real (slope_imag must vanish); Im(curvature) >= 0: the
    continued curve stays in the closed lower half plane.
    """

    kappa0: float
    omega0: float
    slope: float
    curvature: complex
    fit_window: float
    fit_residual: float
    slope_imag: float
    max_im_omega: float
    samples: tuple  # ((kt, omega), ...)


def continue_and_fit_dispersion(params: StructureParams, mode: GuidedMode,
                                radius: float = 0.004) -> DispersionFit:
    """Continue the eigenvalue zero to complex omega on both sides of kappa0.

    The slope and curvature are -c1 and -c2, the Taylor coefficients of
    omega_gm at kappa0 from one Cauchy circle (`_taylor`).  The same
    `_omega_gm` call, seeded along the tangent at the mode (solved first,
    from omega0), solves the samples at real kappa = kappa0 + kt for
    DISPERSION_SAMPLES kt on each side out to radius; the kt = 0 sample is
    the mode itself, (0, omega0).  fit_residual is the largest gap between
    the Taylor polynomial and the samples.  A radius outside (0, inf) raises
    ValueError.  A DEBUG line on the `latres` logger gives the samples, the
    points solved, the most Newton steps (and those on the circle, with its
    points), the Taylor-vs-samples residual and |Im c1|.
    """
    if not (radius > 0.0 and np.isfinite(radius)):
        raise ValueError(f"dispersion fit radius must be > 0 and finite, got "
                         f"{radius}")
    kt = np.linspace(0.0, radius, DISPERSION_SAMPLES + 1)[1:]
    kt = np.concatenate([-kt[::-1], [0.0], kt])
    mid = DISPERSION_SAMPLES  # the mode itself, (0, omega0)
    om0, slope0, vec0, steps0 = _omega_gm(params, [mode.kappa0],
                                          [mode.omega0], None)
    c, om, _, _, steps = _taylor(params, [mode.kappa0], om0, slope0, vec0,
                                 offsets=np.delete(kt, mid))
    om = np.insert(om[0], mid, mode.omega0)
    slope, curvature = -c[0, 1], -c[0, 2]
    fit_res = float(np.max(np.abs(np.polyval(c[0, ::-1], kt) - om)))
    log.debug("dispersion fit: %d samples, %d points solved, at most %d "
              "Newton steps (%d on the circle of %d points), "
              "Taylor-vs-samples residual %.2e, |Im c1| %.2e", len(kt),
              1 + steps.size, max(steps0.max(), steps.max()),
              steps[0, :TAYLOR_POINTS].max(), TAYLOR_POINTS, fit_res,
              abs(slope.imag))
    if abs(slope.imag) > 1e-8:
        raise RuntimeError(
            f"dispersion linear coefficient has imaginary part {slope.imag}")
    return DispersionFit(
        kappa0=mode.kappa0, omega0=mode.omega0, slope=float(slope.real),
        curvature=complex(curvature), fit_window=float(radius),
        fit_residual=fit_res, slope_imag=float(slope.imag),
        max_im_omega=float(np.max(om.imag)),
        samples=tuple(zip(kt.tolist(), om.tolist())))
