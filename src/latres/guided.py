"""Guided-mode location, the explicit N=2 criteria, and dispersion fitting.

A guided mode is a sourceless solution whose propagating coefficients all
vanish: an isolated real pair (kappa0, omega0) where the homogeneous 3N
system, restricted to the evanescent and chain unknowns, becomes singular.
`find_guided_modes` evaluates sigma_min on its coarse grid one kappa row at
a time: the 3N system is assembled for the whole row at once, its points
grouped by propagating set (which fixes the deleted columns) and each group
takes one stacked SVD.
Around such a pair the zero set of the tracked eigenvalue of the N x N chain
kernel K(kappa, omega) defines a complex dispersion curve omega_gm(kappa)
whose local quadratic expansion drives every resonance quantity downstream.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import fsolve, minimize

from .structure import (BlochPoint, StructureParams, _classify_real,
                        _harmonic_arrays)
from .scattering import (_assemble, _chain_kernel, _chunks,
                         _harmonics_off_threshold)

TWO_PI = 2.0 * np.pi

log = logging.getLogger("latres")


def _kept_columns(N, prop):
    """Labels and indices of the 3N system's columns kept for the set prop.

    Kept are the evanescent a_minus, the evanescent b_plus, then every c;
    each label is (kind, order).
    """
    labels = ([("a_minus", l) for l in range(N) if l not in prop]
              + [("b_plus", l) for l in range(N) if l not in prop]
              + [("c", l) for l in range(N)])
    offset = {"a_minus": 0, "b_plus": N, "c": 2 * N}
    return labels, [offset[kind] + l for kind, l in labels]


def _reduced_homogeneous(params, kappa, omega):
    """The homogeneous 3N system without its propagating outgoing columns.

    Returns the 3N x (3N - 2 |P|) matrix and the label of each kept column.
    """
    phi, theta, _, prop = _harmonics_off_threshold(params.N, kappa, omega)
    labels, cols = _kept_columns(params.N, set(prop.tolist()))
    return _assemble(params, kappa, omega, phi, theta)[:, cols], labels


def _sigma_min_row(params, kappa, omegas):
    """sigma_min at one real kappa over real omegas; inf at thresholds.

    The 3N system is assembled for the row at once (in chunks of at most
    STACK_BYTES); its points are grouped by propagating set, which fixes
    the deleted columns, and each group takes one stacked SVD.
    """
    N = params.N
    phi = (kappa + np.arange(N)) / N
    theta, prop, thr = _classify_real(phi, omegas)
    # the propagating set of each point as a bit pattern; -1 at thresholds
    key = np.where(thr.any(axis=-1), -1, prop @ (1 << np.arange(N)))
    sigma = np.full(len(omegas), np.inf)
    for part in _chunks(len(omegas), 16 * 9 * N * N):
        B = _assemble(params, kappa, omegas[part], phi, theta[part])
        for k in np.unique(key[part]):
            if k < 0:
                continue
            members = np.flatnonzero(key[part] == k)
            _, cols = _kept_columns(N, {l for l in range(N) if k >> l & 1})
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

    @property
    def c(self) -> np.ndarray:
        """Chain coefficients of the null vector."""
        idx = [i for i, (kind, _) in enumerate(self.null_labels) if kind == "c"]
        return self.null_vector[idx]


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


def find_guided_modes(params: StructureParams, window, density: int = 400,
                      tol: float = 1e-8, coarse_tol: float = 0.05):
    """Scan sigma_min over a window and polish its deep local minima.

    window = (kappa_min, kappa_max, omega_min, omega_max).  The coarse
    density x density grid takes one stacked sigma_min evaluation per kappa
    row.  Grid local minima below coarse_tol are refined by Nelder-Mead;
    candidates whose refined sigma_min falls below tol are kept, then
    +-kappa duplicates are merged (the representative has kappa0 >= 0).
    A DEBUG line on the `latres` logger counts the grid and threshold
    points, the candidates, those rejected by tol or merged, and the modes.
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
    ii, jj = np.where(is_min & (interior < coarse_tol))
    for i, j in zip(ii + 1, jj + 1):
        candidates.append((kappas[i], omegas[j]))

    modes = []
    seen = []
    rejected = 0
    for kap, om in candidates:
        f = lambda x: sigma_min(params, BlochPoint(x[0], x[1]))
        res = minimize(f, [kap, om], method="Nelder-Mead",
                       options=dict(xatol=1e-13, fatol=1e-16, maxiter=2000))
        kap0, om0 = res.x
        sig = res.fun
        if params.N == 2 and sig < 1e-4:
            # polish against the explicit criteria when they apply; fsolve
            # grumbles once the residual hits roundoff, which is the goal here
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    root = fsolve(
                        lambda x: [np.real(v) for v in
                                   guided_mode_criteria_n2(params, x[0], x[1])],
                        [kap0, om0], xtol=1e-14)
                trial = sigma_min(params, BlochPoint(root[0], root[1]))
                if trial < sig:
                    kap0, om0, sig = root[0], root[1], trial
            except (ValueError, FloatingPointError):
                pass
        if sig > tol:
            rejected += 1
            continue
        if abs(kap0) < 1e-7:
            # below the +-kappa merge scale: a symmetric standing mode
            kap0 = 0.0
        kap0 = abs(kap0)  # +-kappa representative
        if any(abs(kap0 - a) < 1e-6 and abs(om0 - b) < 1e-6 for a, b in seen):
            continue
        seen.append((kap0, om0))
        vec, labels = null_vector(params, BlochPoint(kap0, om0))
        _, _, _, prop = _harmonic_arrays(params.N, kap0, om0)
        modes.append(GuidedMode(kappa0=float(kap0), omega0=float(om0),
                                sigma=float(sig), null_vector=vec,
                                null_labels=tuple(labels),
                                region_size=len(prop)))
    modes.sort(key=lambda m: (m.kappa0, m.omega0))
    log.debug("guided-mode search: %d grid points, %d threshold, %d "
              "candidates, %d rejected by tol, %d merged as duplicates, "
              "%d modes", grid.size, int(np.sum(np.isinf(grid))),
              len(candidates), rejected, len(candidates) - rejected
              - len(modes), len(modes))
    return modes


class EigenvalueTracker:
    """Follow the smallest-magnitude eigenvalue of the chain kernel K.

    Eigenvalues are matched between calls by eigenvector overlap rather than
    magnitude sorting, so the tracked branch does not swap near its zero.
    """

    def __init__(self, params: StructureParams, overlap_min: float = 0.7):
        self.params = params
        self.overlap_min = overlap_min
        self._vref = None

    def reset(self):
        self._vref = None

    def value(self, kappa, omega):
        phi, theta, _, _ = _harmonics_off_threshold(self.params.N, kappa, omega)
        K, *_ = _chain_kernel(self.params, kappa, omega, phi, theta)
        w, V = np.linalg.eig(K)
        if self._vref is None:
            i = int(np.argmin(np.abs(w)))
        else:
            ov = np.abs(self._vref.conj() @ V)
            i = int(np.argmax(ov))
            if ov[i] < self.overlap_min * np.linalg.norm(V[:, i]):
                raise RuntimeError(
                    f"lost eigenvalue track at (kappa={kappa}, omega={omega}): "
                    f"best overlap {ov[i]:.3f}")
        self._vref = V[:, i] / np.linalg.norm(V[:, i])
        return w[i]

    def eigenvector(self):
        return self._vref

    def solve_omega(self, kappa, omega_seed, tol: float = 1e-13,
                    max_iter: int = 80):
        """Newton in complex omega for a zero of the tracked eigenvalue."""
        om = complex(omega_seed)
        for _ in range(max_iter):
            val = self.value(kappa, om)
            if abs(val) < tol:
                return om
            h = 1e-7 * (1.0 + abs(om))
            val2 = self.value(kappa, om + h)
            om = om - val / ((val2 - val) / h)
        raise RuntimeError(f"eigenvalue Newton did not converge at kappa={kappa}")


def eigenvalue_ell(params: StructureParams, point: BlochPoint,
                   tracker: EigenvalueTracker = None) -> complex:
    """Smallest-magnitude eigenvalue of the N x N chain kernel K at a point."""
    if tracker is None:
        tracker = EigenvalueTracker(params)
    return tracker.value(point.kappa, point.omega)


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
                                radius: float = 0.004, num: int = 10,
                                degree: int = 4) -> DispersionFit:
    """Continue the eigenvalue zero to complex omega on both sides of kappa0.

    Newton-solves the tracked eigenvalue for complex omega at real
    kappa = kappa0 + kt, marching outward in both directions, then
    least-squares fits a degree-`degree` polynomial in kt and reads the
    linear and quadratic coefficients.
    """
    kts = np.linspace(0.0, radius, num + 1)[1:]
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
    V = np.vander(kk, degree + 1, increasing=True)
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
