"""Guided-mode location and dispersion fitting.

A guided mode is a sourceless solution whose propagating coefficients all
vanish: an isolated real pair (kappa0, omega0) where the homogeneous 3N
system, restricted to the evanescent and chain unknowns, becomes singular;
equivalently K_H z = 0 and W^H z = 0, with K_H the chain kernel without
the propagating orders' terms and W their w_l (`scattering._chain_kernel`).
`find_guided_modes` takes its candidates from the zero crossings of K_H's
eigenvalues, which Sylvester's inertia counts in each threshold region.
Around such a pair the zero set of the tracked eigenvalue of the N x N chain
kernel K(kappa, omega) defines a complex dispersion curve omega_gm(kappa)
whose local quadratic expansion drives every resonance quantity downstream.
Candidates are polished on that curve with the exact derivatives K_omega
and K_kappa: Newton in complex omega finds omega_gm(kappa), and a bracketed
root of h(kappa) = Im d omega_gm / d kappa, where Im omega_gm reaches its
maximum, 0, gives kappa0.  The real zero of det K is degenerate (the curve
only touches the real plane), so it is not solved for directly.  The same
h (`_continued_h`) locates the coupling bifurcation in `resonance`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .structure import (BlochPoint, StructureParams, ThresholdError,
                        _classify_off_threshold, _thresholds,
                        propagating_count)
from .scattering import _assemble, _chain_kernel, _chunks

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
# max(1, ||K_H||) for the crossings), step limit; the kappa step of h'
NEWTON_TOL = 1e-13
NEWTON_STEPS = 80
H_SLOPE_DELTA = 1e-6
# kt samples on each side of kappa0 and polynomial degree of the dispersion
# fit; the samples are symmetric in kt, so an even degree would let the first
# unmodelled odd term leak into the slope
DISPERSION_SAMPLES = 10
DISPERSION_DEGREE = 5

log = logging.getLogger("latres")


class ConvergenceError(RuntimeError):
    """An iteration ran out of steps before meeting its stopping test."""


def _reduced_homogeneous(params, kappa, omega):
    """The homogeneous 3N system without its propagating outgoing columns.

    Returns the 3N x (3N - 2 |P|) matrix and the label (kind, order) of each
    kept column: the evanescent a_minus, the evanescent b_plus, then every c.
    """
    N = params.N
    _, theta, prop = _classify_off_threshold(N, kappa, omega)
    labels = ([("a_minus", l) for l in range(N) if not prop[l]]
              + [("b_plus", l) for l in range(N) if not prop[l]]
              + [("c", l) for l in range(N)])
    offset = {"a_minus": 0, "b_plus": N, "c": 2 * N}
    cols = [offset[kind] + l for kind, l in labels]
    return _assemble(params, kappa, omega, theta)[:, cols], labels


def sigma_min(params: StructureParams, point: BlochPoint) -> float:
    """Normalized smallest singular value of the reduced homogeneous system.

    The columns of the propagating outgoing coefficients are deleted (their
    amplitudes are forced to zero), leaving an overdetermined
    3N x (3N - 2 |P|) matrix; the ratio of its smallest to largest singular
    value vanishes exactly at a guided mode.
    """
    B, _ = _reduced_homogeneous(params, point.kappa, point.omega)
    s = np.linalg.svd(B, compute_uv=False)
    return float(s[-1] / s[0])


def null_vector(params: StructureParams, point: BlochPoint):
    """Reduced null vector (evanescent a_minus, b_plus, then c) at a mode."""
    B, labels = _reduced_homogeneous(params, point.kappa, point.omega)
    _, _, Vh = np.linalg.svd(B)
    return Vh[-1].conj(), labels


@dataclass(frozen=True)
class GuidedMode:
    """An isolated real (kappa0, omega0) with its confined field profile."""

    kappa0: float
    omega0: float
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


def _polish(params, kappa, omega, reach):
    """The mode a candidate (kappa, omega) points to.

    The candidate has a propagating order (one without lies on the robust
    branch and is a mode already).  Returns (kappa0, omega_gm(kappa0),
    h'(kappa0)), with omega_gm complex, or None when the candidate leads to
    no mode.  kappa0 is a root of h(kappa) = Im d omega_gm / d kappa, where
    Im omega_gm peaks, continued from the candidate (`_continued_h`).  The
    bracket starts at kappa +- reach and, while h keeps one sign on it,
    steps towards rising Im omega_gm, by a reach that doubles each time, at
    most GROW_STEPS times; an end where |h| <= H_FLOOR has no sign to trust.
    Once the bracket holds kappa = 0, a standing mode there
    (|Im omega_gm(0)| at roundoff) is taken; if there is none, the bracket
    keeps only the candidate's side of kappa = 0.
    """
    from scipy.optimize import brentq

    h, solved = _continued_h(params, (kappa, complex(omega), 0.0, None))
    h(kappa)  # omega_gm at the candidate seeds the bracket ends
    lo, hi = kappa - reach, kappa + reach
    step, tried_zero = reach, False
    for _ in range(GROW_STEPS + 1):
        if lo < 0.0 < hi and not tried_zero:
            tried_zero = True
            h(0.0)
            om = solved[0.0][1]
            if abs(om.imag) <= STANDING_IM_TOL * abs(om):
                return 0.0, om, _h_slope(h, 0.0)
            if kappa >= 0.0:
                lo = SIDE_OFFSET * reach
            else:
                hi = -SIDE_OFFSET * reach
        if min(abs(h(lo)), abs(h(hi))) <= H_FLOOR:
            return None
        if h(lo) * h(hi) < 0.0:
            kap0 = brentq(h, lo, hi, xtol=1e-15)
            h(kap0)
            return kap0, solved[kap0][1], _h_slope(h, kap0)
        step *= 2.0
        if h(hi) > 0.0:
            lo, hi = hi, hi + step
        else:
            lo, hi = lo - step, lo
    return None


def _h_slope(h, kappa):
    """h'(kappa) by a central difference."""
    return (h(kappa + H_SLOPE_DELTA) - h(kappa - H_SLOPE_DELTA)) / (
        2.0 * H_SLOPE_DELTA)


def _continued_h(params, start):
    """h(kappa) = Im d omega_gm / d kappa on one structure, and its points.

    Points are (kappa, omega_gm, d omega_gm / d kappa, eigenvector), held in
    a dict by kappa: each kappa is solved once, and h answers a solved kappa
    from it.  Each solve continues from the nearest point solved so far
    along its tangent, the first from start (of any structure; eigenvector
    None: the smallest).
    """
    tracker, solved = EigenvalueTracker(params), {}

    def h(kappa):
        if kappa not in solved:
            k1, om1, slope1, v1 = min(solved.values() or [start],
                                      key=lambda p: abs(p[0] - kappa))
            tracker.reset(v1)
            om = tracker.solve_omega(kappa, om1 + slope1 * (kappa - k1))
            solved[kappa] = (kappa, om, -tracker.d_kappa / tracker.d_omega,
                             tracker.eigenvector())
        return solved[kappa][2].imag

    return h, solved


def _crossings(params, kappas, wmin, wmax, Q=None):
    """Every zero crossing of K_H's eigenvalues on kappa rows in [wmin, wmax].

    wmin and wmax may be columns, one entry per row.  Given Q (rows x N x
    (N - 1), orthonormal columns per row), K_H stands for Q^H K_H Q and its
    omega-derivative for Q^H K_H' Q, which is I plus a PSD matrix too.  In a
    threshold region each sorted eigenvalue lambda_j of K_H rises, so it
    crosses 0 at most once, and does when j lies between the counts of
    negative eigenvalues (Sylvester's inertia) at the region's ends, probed
    PROBE_OFFSET inside.  All crossings are then solved in one active-set
    loop of Newton steps on lambda_j with the slope v^H K_H' v
    (Hellmann-Feynman), bisecting the bracket where a step would leave it or
    not halve the last step, until |lambda_j| <= NEWTON_TOL max(1, ||K_H||)
    or the step is at most 4 eps |omega|; stacks go in STACK_BYTES chunks.
    Returns the regions probed and, per crossing: row, region (each order's
    state, 0 below its band, 1 in it, 2 above, as base-3 digits), j, nprop,
    omega, q = ||W^H Q v|| / ||W|| (0 if W = 0, where W^H v = 0 holds) and
    its Newton steps.
    """
    N = params.N
    kappas = np.asarray(kappas, dtype=float)
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
    neg = np.empty((len(row), 2), dtype=int)
    for part in _chunks(len(row), 2 * item)[:len(row)]:  # none if no region
        kap, om = kappas[row[part], None], np.column_stack([lo[part],
                                                            hi[part]])
        _, theta, prop = _classify_off_threshold(N, kap, om)
        K_H = _chain_kernel(params, kap, om, theta, prop)[0]
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
            K_H, P, _, _, dK_H, _ = _chain_kernel(params, kap[p], om[p],
                                                  theta, prop)
            W = params.gammas[:, None] * P * prop[:, None, :]
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
    below its max, and density >= 2; otherwise ValueError is raised before
    any solve.  The crossings from `_crossings` are linked along kappa into
    branches by region and eigenvalue index; the candidates are the points
    of a branch with a propagating order where q = ||W^H v|| / ||W|| (0 at a
    mode) is no larger than at its neighbours, and every point without one.
    Those with a propagating order are polished on the chain kernel K with
    its exact derivatives (`_polish`): Newton in complex omega follows the
    zero omega_gm(kappa) of K's tracked eigenvalue, and a bracketed root of
    h(kappa) = Im d omega_gm / d kappa within two row steps of the candidate
    gives kappa0 (at kappa = 0 a standing mode is tried first).  The others
    lie on the robust branch, a curve of modes where K = K_H, so each is a
    mode as solved, with Im omega_gm = 0 and h' = 0.  A mode is kept when
    (kappa0, Re omega_gm) lies in the window and sigma_min there falls below
    tol; candidates whose polish fails or ends elsewhere are rejected.
    A mode at kappa0 < 0 is reported at -kappa0 when sigma_min there falls
    below tol too (as it does for mirror-symmetric structures, such as those
    with real couplings), and keeps its sign otherwise; duplicates are then
    merged.  The window applies before that fold, so a folded mode can lie
    outside it.  Each mode carries its certificate at the point reported:
    |Im omega_gm(kappa0)|, the smallest |eigenvalue| of K, h'(kappa0) and
    sigma_min.  A DEBUG line on the `latres` logger counts the kappa rows,
    regions probed, crossings solved and their most Newton steps, the
    candidates, those rejected or merged, and the modes, and lists each
    mode's certificate.
    """
    kmin, kmax, wmin, wmax = window
    if not (kmin < kmax and wmin < wmax and density >= 2):
        raise ValueError(f"the mode search needs kappa_min < kappa_max, "
                         f"omega_min < omega_max and density >= 2, got "
                         f"window {tuple(window)} and density {density}")
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
    candidates = zip(kappas[cross["row"][pick]], cross["omega"][pick],
                     cross["nprop"][pick])

    reach = 2.0 * (kmax - kmin) / (density - 1)
    modes = []
    seen = []
    rejected = 0
    for kap, om, nprop in candidates:
        try:
            found = (_polish(params, kap, om, reach) if nprop
                     else (kap, om, 0.0))
        except (ConvergenceError, ThresholdError):
            found = None
        sig = np.inf
        if found is not None:
            kap0, om_gm, h_prime = found
            om0 = om_gm.real
            if kmin <= kap0 <= kmax and wmin <= om0 <= wmax:
                sig = sigma_min(params, BlochPoint(kap0, om0))
        if sig > tol:
            rejected += 1
            continue
        if kap0 < 0.0:  # fold onto -kappa0 where that is a mode too
            flipped = sigma_min(params, BlochPoint(-kap0, om0))
            if flipped <= tol:
                kap0, sig = -kap0, flipped
        if any(abs(kap0 - a) < 1e-6 and abs(om0 - b) < 1e-6 for a, b in seen):
            continue
        seen.append((kap0, om0))
        vec, labels = null_vector(params, BlochPoint(kap0, om0))
        # a tracker without a reference takes the smallest |eigenvalue| of K
        lam = EigenvalueTracker(params).value(kap0, om0)
        modes.append(GuidedMode(
            kappa0=float(kap0), omega0=float(om0), sigma=float(sig),
            null_vector=vec, null_labels=tuple(labels),
            region_size=propagating_count(params, kap0, om0),
            im_omega=float(abs(om_gm.imag)),
            min_eigenvalue=float(abs(lam)),
            h_prime=float(h_prime)))
    modes.sort(key=lambda m: (m.kappa0, m.omega0))
    certificates = "; ".join(
        f"({m.kappa0:.15g}, {m.omega0:.15g}): |Im omega_gm| {m.im_omega:.2g}"
        f", min|eig K| {m.min_eigenvalue:.2g}, h' {m.h_prime:.6g}, "
        f"sigma_min {m.sigma:.2g}" for m in modes)
    log.debug("guided-mode search: %d kappa rows, %d regions probed, %d "
              "crossings solved, at most %d Newton steps, %d candidates, %d "
              "rejected, %d merged as duplicates, certificates [%s], %d "
              "modes", density, probed, len(cross["omega"]),
              cross["steps"].max(initial=0), len(pick), rejected,
              len(pick) - rejected - len(modes), certificates, len(modes))
    return modes


class EigenvalueTracker:
    """Follow the smallest-magnitude eigenvalue of the chain kernel K.

    Eigenvalues are matched between calls by eigenvector overlap rather than
    magnitude sorting, so the tracked branch does not swap near its zero.
    Each `value` call also leaves the eigenvalue's exact derivatives in
    d_omega and d_kappa: d lambda = y K' v with v the right eigenvector and
    y the left one, normalised so that y v = 1.  d_kappa forms K_kappa when
    it is read.
    """

    def __init__(self, params: StructureParams):
        self.params = params
        self._vref = None
        self.d_omega = None

    def reset(self, vref=None):
        """Forget the tracked eigenvector, or track the one closest to vref."""
        self._vref = vref

    def value(self, kappa, omega):
        _, theta, _ = _classify_off_threshold(self.params.N, kappa, omega)
        K, _, _, _, K_om, self._K_kappa = _chain_kernel(self.params, kappa,
                                                        omega, theta)
        w, V = np.linalg.eig(K)
        if self._vref is None:
            i = int(np.argmin(np.abs(w)))
        else:
            ov = np.abs(self._vref.conj() @ V)
            i = int(np.argmax(ov))
            if ov[i] < OVERLAP_MIN * np.linalg.norm(V[:, i]):
                raise ConvergenceError(
                    f"lost eigenvalue track at (kappa={kappa}, omega={omega}): "
                    f"best overlap {ov[i]:.3f}")
        v = V[:, i]
        # row i of V^-1
        y = np.linalg.solve(V.T, np.eye(len(w))[i])
        self._vref = v / np.linalg.norm(v)
        self.d_omega = y @ K_om() @ v
        self._y, self._v = y, v
        return w[i]

    @property
    def d_kappa(self):
        return self._y @ self._K_kappa() @ self._v

    def eigenvector(self):
        return self._vref

    def solve_omega(self, kappa, omega_seed):
        """Newton in omega for a zero of the tracked eigenvalue.

        The step is lambda / (d lambda / d omega), with the exact derivative.
        Stops after the step at which |lambda| < NEWTON_TOL or the step is at
        roundoff, |step| <= 4 eps |omega|; d_omega, d_kappa and the tracked
        eigenvector are then those of the last point before that step.
        Raises ConvergenceError after NEWTON_STEPS steps.
        """
        om = complex(omega_seed)
        for _ in range(NEWTON_STEPS):
            val = self.value(kappa, om)
            step = val / self.d_omega
            om = om - step
            if abs(val) < NEWTON_TOL or abs(step) <= 4.0 * EPS * abs(om):
                return om
        raise ConvergenceError(
            f"eigenvalue Newton did not converge at kappa={kappa}: "
            f"|lambda| = {abs(val):.2e} after {NEWTON_STEPS} steps")


@dataclass(frozen=True)
class DispersionFit:
    """Local expansion omega_gm(kappa0 + kt) = omega0 - slope*kt - curvature*kt^2.

    slope is real (its fitted imaginary part must vanish); Im(curvature) >= 0,
    equivalently the continued curve stays in the closed lower half plane.
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

    Solves omega_gm at real kappa = kappa0 + kt for DISPERSION_SAMPLES kt
    on each side out to radius, marching outward from kappa0 along
    `_continued_h`'s continuation, then least-squares fits a polynomial of
    degree DISPERSION_DEGREE in kt and reads the linear and quadratic
    coefficients; the kt = 0 sample is the mode itself, (0, omega0).  A
    radius <= 0 raises ValueError.  A DEBUG line on the `latres` logger
    gives the samples, the tracker solves, the fit residual and the
    imaginary part of the slope.
    """
    if not radius > 0.0:
        raise ValueError(f"dispersion fit radius must be > 0, got {radius}")
    kts = np.linspace(0.0, radius, DISPERSION_SAMPLES + 1)[1:]
    h, solved = _continued_h(params, (mode.kappa0, complex(mode.omega0), 0.0,
                                      None))
    h(mode.kappa0)  # the tangent at the mode seeds both sides
    pts = [(0.0, complex(mode.omega0))]
    for kt in np.concatenate([kts, -kts]):
        h(mode.kappa0 + kt)
        pts.append((float(kt), solved[mode.kappa0 + kt][1]))
    pts.sort()
    kk = np.array([p[0] for p in pts])
    oo = np.array([p[1] for p in pts])
    V = np.vander(kk, DISPERSION_DEGREE + 1, increasing=True)
    coef, res, *_ = np.linalg.lstsq(V, oo, rcond=None)
    slope = -coef[1]
    curvature = -coef[2]
    fit_res = float(np.max(np.abs(V @ coef - oo)))
    log.debug("dispersion fit: %d samples, %d tracker solves, fit residual "
              "%.2e, Im slope %.2e", len(pts), len(solved), fit_res,
              slope.imag)
    if abs(slope.imag) > 1e-8:
        raise RuntimeError(
            f"dispersion linear coefficient has imaginary part {slope.imag}")
    return DispersionFit(
        kappa0=mode.kappa0, omega0=mode.omega0, slope=float(slope.real),
        curvature=complex(curvature), fit_window=float(radius),
        fit_residual=fit_res, slope_imag=float(slope.imag),
        max_im_omega=float(np.max(oo.imag)), samples=tuple(pts))
