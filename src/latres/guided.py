"""Guided-mode location and dispersion fitting.

A guided mode is a sourceless solution whose propagating coefficients all
vanish: an isolated real pair (kappa0, omega0) where the homogeneous 3N
system, restricted to the evanescent and chain unknowns, becomes singular.
`find_guided_modes` detects candidates on a coarse sigma_min grid, evaluated
one kappa row at a time: the 3N system is assembled for the whole row at
once, its points grouped by propagating set (which fixes the deleted
columns) and each group takes one stacked SVD.
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
                        _classify, _classify_off_threshold, propagating_count)
from .scattering import _assemble, _chain_kernel_derivatives, _chunks

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
# sigma_min below which a local minimum of the coarse grid is a candidate
COARSE_TOL = 0.05
# eigenvector overlap below which the tracker reports a lost track
OVERLAP_MIN = 0.7
# the tracker's Newton: |lambda| stop, step limit; the kappa step of h'
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


def _kept_columns(N, prop):
    """Labels and indices of the 3N system's columns kept for the mask prop.

    Kept are the evanescent a_minus, the evanescent b_plus, then every c;
    each label is (kind, order).
    """
    labels = ([("a_minus", l) for l in range(N) if not prop[l]]
              + [("b_plus", l) for l in range(N) if not prop[l]]
              + [("c", l) for l in range(N)])
    offset = {"a_minus": 0, "b_plus": N, "c": 2 * N}
    return labels, [offset[kind] + l for kind, l in labels]


def _reduced_homogeneous(params, kappa, omega):
    """The homogeneous 3N system without its propagating outgoing columns.

    Returns the 3N x (3N - 2 |P|) matrix and the label of each kept column.
    """
    phi, theta, prop = _classify_off_threshold(params.N, kappa, omega)
    labels, cols = _kept_columns(params.N, prop)
    return _assemble(params, kappa, omega, phi, theta)[:, cols], labels


def _sigma_min_row(params, kappa, omegas):
    """sigma_min at one real kappa over real omegas; inf at thresholds.

    The 3N system is assembled for the row at once (in chunks of at most
    STACK_BYTES); its points are grouped by propagating set, which fixes
    the deleted columns, and each group takes one stacked SVD.
    """
    N = params.N
    phi, theta, prop, thr = _classify(N, kappa, omegas)
    # the propagating set of each point as a bit pattern; -1 at thresholds
    key = np.where(thr.any(axis=-1), -1, prop @ (1 << np.arange(N)))
    sigma = np.full(len(omegas), np.inf)
    for part in _chunks(len(omegas), 16 * 9 * N * N):
        B = _assemble(params, kappa, omegas[part], phi, theta[part])
        for k in np.unique(key[part]):
            if k < 0:
                continue
            members = np.flatnonzero(key[part] == k)
            _, cols = _kept_columns(N, prop[part.start + members[0]])
            sv = np.linalg.svd(B[members][..., cols], compute_uv=False)
            sigma[part.start + members] = sv[:, -1] / sv[:, 0]
    return sigma


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
    """The mode a coarse-grid candidate (kappa, omega) points to.

    Returns (kappa0, omega_gm(kappa0), h'(kappa0)), with omega_gm complex,
    or None when the candidate leads to no mode.  Without a propagating
    order K is Hermitian and its zero set is a curve (the robust branch):
    only omega is solved, at the candidate's kappa, and h' = 0.  Otherwise
    kappa0 is a root of h(kappa) = Im d omega_gm / d kappa, where
    Im omega_gm peaks, continued from the candidate (`_continued_h`).  The
    bracket starts at kappa +- reach and, while h keeps one sign on it,
    steps towards rising Im omega_gm, by a reach that doubles each time, at
    most GROW_STEPS times; an end where |h| <= H_FLOOR has no sign to trust.
    Once the bracket holds kappa = 0, a standing mode there
    (|Im omega_gm(0)| at roundoff) is taken; if there is none, the bracket
    keeps only the candidate's side of kappa = 0.
    """
    from scipy.optimize import brentq

    if propagating_count(params, kappa, omega) == 0:
        return kappa, EigenvalueTracker(params).solve_omega(kappa, omega), 0.0
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


def find_guided_modes(params: StructureParams, window, density: int = 400,
                      tol: float = 1e-8):
    """Scan sigma_min over a window and polish its deep local minima.

    window = (kappa_min, kappa_max, omega_min, omega_max).  The coarse
    density x density grid takes one stacked sigma_min evaluation per kappa
    row; its local minima below COARSE_TOL are the candidates.  Each is
    polished on the chain kernel K with its exact derivatives: Newton in
    complex omega follows the zero omega_gm(kappa) of K's tracked
    eigenvalue, and a bracketed root of h(kappa) = Im d omega_gm / d kappa
    within two grid steps of the candidate gives kappa0 (at kappa = 0 a
    standing mode is tried first).  Candidates without a propagating order
    lie on the robust branch, a curve of modes, and are solved in omega at
    their grid kappa.  A polished mode is kept when (kappa0, Re omega_gm)
    lies in the window and sigma_min there falls below tol; candidates
    whose polish fails or ends elsewhere are rejected.  +-kappa duplicates
    are then merged (the representative has kappa0 >= 0).  Each mode
    carries its certificate: |Im omega_gm(kappa0)|, the smallest
    |eigenvalue| of K, h'(kappa0) and sigma_min.  A DEBUG line on the
    `latres` logger counts the grid and threshold points, the candidates,
    those rejected or merged, and the modes, and lists each mode's
    certificate.
    """
    kmin, kmax, wmin, wmax = window
    kappas = np.linspace(kmin, kmax, density)
    omegas = np.linspace(wmin, wmax, density)
    grid = np.empty((density, density))
    for i, kap in enumerate(kappas):
        grid[i] = _sigma_min_row(params, kap, omegas)

    candidates = []
    interior = grid[1:-1, 1:-1]
    is_min = np.ones_like(interior, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            is_min &= interior <= grid[1 + di:density - 1 + di,
                                       1 + dj:density - 1 + dj]
    ii, jj = np.where(is_min & (interior < COARSE_TOL))
    for i, j in zip(ii + 1, jj + 1):
        candidates.append((kappas[i], omegas[j]))

    reach = 2.0 * (kmax - kmin) / max(density - 1, 1)
    modes = []
    seen = []
    rejected = 0
    for kap, om in candidates:
        try:
            found = _polish(params, kap, om, reach)
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
        kap0 = abs(kap0)  # +-kappa representative
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
    log.debug("guided-mode search: %d grid points, %d threshold, %d "
              "candidates, %d rejected, %d merged as duplicates, "
              "certificates [%s], %d modes", grid.size,
              int(np.sum(np.isinf(grid))), len(candidates), rejected,
              len(candidates) - rejected - len(modes), certificates,
              len(modes))
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
        K, K_om, self._K_kappa = _chain_kernel_derivatives(self.params,
                                                           kappa, omega)
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
        self.d_omega = y @ K_om @ v
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

    Newton-solves the tracked eigenvalue for complex omega at real
    kappa = kappa0 + kt at DISPERSION_SAMPLES points out to radius, marching
    outward in both directions, then least-squares fits a polynomial of
    degree DISPERSION_DEGREE in kt and reads the linear and quadratic
    coefficients.
    """
    kts = np.linspace(0.0, radius, DISPERSION_SAMPLES + 1)[1:]
    pts = [(0.0, complex(mode.omega0))]
    for sgn in (1.0, -1.0):
        tracker = EigenvalueTracker(params)
        tracker.value(mode.kappa0, mode.omega0)  # seed the eigenvector
        om_prev = complex(mode.omega0)
        for kt in sgn * kts:
            om_prev = tracker.solve_omega(mode.kappa0 + kt, om_prev)
            pts.append((float(kt), om_prev))
    pts.sort()
    kk = np.array([p[0] for p in pts])
    oo = np.array([p[1] for p in pts])
    V = np.vander(kk, DISPERSION_DEGREE + 1, increasing=True)
    coef, res, *_ = np.linalg.lstsq(V, oo, rcond=None)
    slope = -coef[1]
    curvature = -coef[2]
    fit_res = float(np.max(np.abs(V @ coef - oo)))
    if abs(slope.imag) > 1e-8:
        raise RuntimeError(
            f"dispersion linear coefficient has imaginary part {slope.imag}")
    return DispersionFit(
        kappa0=mode.kappa0, omega0=mode.omega0, slope=float(slope.real),
        curvature=complex(curvature), fit_window=float(radius),
        fit_residual=fit_res, slope_imag=float(slope.imag),
        max_im_omega=float(np.max(oo.imag)), samples=tuple(pts))
