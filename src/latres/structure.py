"""Structure definition, harmonic classification, and band/region diagrams.

The physical system is a one-dimensional mass-spring chain (period N in the
transverse index n) coupled along the line m = 0 of a two-dimensional square
lattice.  Fields are pseudo-periodic in n with Bloch wavenumber kappa and
time-harmonic with frequency omega.  Everything downstream builds on the
per-order exponents (phi_l, theta_l) computed here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

TWO_PI = 2.0 * np.pi

# harmonic classes
PROPAGATING = "propagating"
EVANESCENT = "evanescent"
BAND_EDGE_EVANESCENT = "band-edge-evanescent"
LINEAR_THRESHOLD = "linear-threshold"

# |chi| within this of 1 classifies an order as a threshold
THRESHOLD_TOL = 1e-9


class ThresholdError(ValueError):
    """Raised when an operation cannot proceed on a threshold curve."""


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _complex(v) -> complex:
    """A JSON number (not a bool), or an object {re, im} of numbers with im
    defaulting to 0; anything else raises TypeError."""
    if _is_number(v):
        return complex(v)
    if (isinstance(v, dict) and "re" in v and set(v) <= {"re", "im"}
            and all(map(_is_number, v.values()))):
        return complex(v["re"], v.get("im", 0.0))
    raise TypeError(f"not a number or {{re, im}} object: {v!r}")


@dataclass(frozen=True)
class StructureParams:
    """Periodic waveguide structure: period, masses, springs, couplings.

    masses and springs are positive reals of length N; gammas are the
    (possibly complex) constants coupling chain site n to lattice site (0, n).
    """

    N: int
    masses: np.ndarray
    springs: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "masses", np.asarray(self.masses, dtype=float))
        object.__setattr__(self, "springs", np.asarray(self.springs, dtype=float))
        object.__setattr__(self, "gammas", np.asarray(self.gammas, dtype=complex))
        if self.N < 1:
            raise ValueError("period N must be >= 1")
        for name in ("masses", "springs", "gammas"):
            if getattr(self, name).shape != (self.N,):
                raise ValueError(f"{name} must have length exactly N={self.N}")
        if np.any(self.masses <= 0):
            raise ValueError("all masses must be positive")
        if np.any(self.springs <= 0):
            raise ValueError("all spring constants must be positive")

    def replace_gamma(self, index: int, value: complex) -> "StructureParams":
        """Return a copy with gammas[index] replaced (used by branch tracing)."""
        g = self.gammas.copy()
        g[index] = value
        return StructureParams(self.N, self.masses, self.springs, g)

    @staticmethod
    def from_dict(doc: dict) -> "StructureParams":
        """Parameters from a config document; ValueError if it is malformed.

        The document is an object with exactly the keys N (an integer),
        masses and springs (lists of numbers) and gammas; each gamma is a
        number or an object {re, im} with im optional.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"structure config must be a JSON object, "
                             f"got {type(doc).__name__}")
        keys = ("N", "masses", "springs", "gammas")
        missing = [k for k in keys if k not in doc]
        if missing:
            raise ValueError(f"structure config lacks {', '.join(missing)}")
        unknown = [k for k in doc if k not in keys]
        if unknown:
            raise ValueError(f"structure config has unknown keys {unknown}")
        N = doc["N"]
        if not _is_number(N) or N % 1:
            raise ValueError(f"N must be an integer, got {N!r}")
        for key in ("masses", "springs"):
            values = doc[key]
            if not isinstance(values, list) or not all(map(_is_number, values)):
                raise ValueError(f"{key} must be a list of numbers")
        try:
            gammas = [_complex(g) for g in doc["gammas"]]
        except TypeError as exc:
            raise ValueError(f"gammas must be a list of numbers or {{re, im}} "
                             f"objects: {exc}") from exc
        return StructureParams(
            N=int(N),
            masses=np.array(doc["masses"], dtype=float),
            springs=np.array(doc["springs"], dtype=float),
            gammas=np.array(gammas, dtype=complex),
        )

    @staticmethod
    def from_json(path: str) -> "StructureParams":
        with open(path) as fh:
            return StructureParams.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        def enc(g: complex):
            return g.real if g.imag == 0 else {"re": g.real, "im": g.imag}

        return {
            "N": self.N,
            "masses": self.masses.tolist(),
            "springs": self.springs.tolist(),
            "gammas": [enc(g) for g in self.gammas],
        }


@dataclass(frozen=True)
class BlochPoint:
    """A (kappa, omega) pair; complex omega is allowed for continuation."""

    kappa: complex
    omega: complex

    @property
    def is_real(self) -> bool:
        return self.kappa.imag == 0.0 and self.omega.imag == 0.0


@dataclass(frozen=True)
class Harmonic:
    """One Fourier order: transverse exponent phi, normal exponent theta."""

    order: int
    phi: float
    theta: complex
    kind: str


@dataclass(frozen=True, eq=False)
class HarmonicSet:
    """All N harmonics at a Bloch point: `_classify`'s exponents phi and
    theta and its masks of the propagating and the threshold orders."""

    point: BlochPoint
    phi: np.ndarray
    theta: np.ndarray
    propagating_mask: np.ndarray
    threshold_mask: np.ndarray

    @property
    def harmonics(self) -> tuple:
        # a decaying order has Re theta near 0 (or 1) when chi > 0, near 1/2
        # when chi < 0
        return tuple(
            Harmonic(order=l, phi=ph, theta=th,
                     kind=LINEAR_THRESHOLD if t else PROPAGATING if p
                     else BAND_EDGE_EVANESCENT if 0.25 < th.real < 0.75
                     else EVANESCENT)
            for l, (ph, th, p, t) in enumerate(zip(
                self.phi.tolist(), self.theta.tolist(),
                self.propagating_mask.tolist(), self.threshold_mask.tolist())))

    @property
    def propagating(self) -> tuple:
        return tuple(np.flatnonzero(self.propagating_mask))

    @property
    def has_threshold(self) -> bool:
        return bool(self.threshold_mask.any())


def ambient_dispersion(theta, phi):
    """Frequency of the plane wave e^{2 pi i (theta m + phi n)} on the lattice."""
    return 4.0 - 2.0 * np.cos(TWO_PI * theta) - 2.0 * np.cos(TWO_PI * phi)


def _classify(N, kappa, omega):
    """Exponents and classes of the N orders at kappa and omega.

    Returns (phi, theta, prop, thr) with phi_l = (kappa + l) / N and theta,
    prop and thr of shape omega.shape + (N,), prop and thr the masks of the
    propagating and the threshold orders.  Real omega may be a scalar or an
    array, and real kappa an array of omega's shape too (phi then gets that
    shape + (N,)): an order within THRESHOLD_TOL of chi = +-1 is a threshold,
    theta = 0 or 1/2; an order with |chi| < 1 propagates,
    theta = arccos(chi) / 2 pi; the others decay,
    theta = (0 if chi > 0, else 1/2) + i arccosh|chi| / 2 pi.  Where kappa
    or omega holds a nonzero imaginary part (scalars or arrays broadcasting
    against each other) every point is complex: theta is continued from the
    real point's branch along a straight path, no order is a threshold, and
    at each point of real kappa each continued propagating order is checked
    against the sign law.
    """
    phi = (np.asarray(kappa)[..., None] + np.arange(N)) / N
    cos = np.cos(TWO_PI * phi)
    complex_phi = np.iscomplexobj(phi) and phi.imag.any()
    if complex_phi or np.iscomplexobj(omega) and np.any(np.imag(omega)):
        # The principal arccos already continues the propagating branch; for
        # decaying orders pick the sign that keeps the field bounded.
        omega = np.asarray(omega)[..., None]
        chi = (4.0 - omega) / 2.0 - cos
        chi_re = ((4.0 - omega.real) / 2.0 - np.cos(TWO_PI * phi.real)
                  if complex_phi else chi.real)
        p = np.arccos(chi) / TWO_PI
        prop = np.abs(chi_re) < 1.0
        cand = np.where(p.imag > 0, p, -p)
        theta = np.where(prop, p, cand - np.floor(cand.real))
        # the imaginary part of the ambient dispersion with real phi:
        # sin(2 pi Re theta) 2 sinh(2 pi Im theta) = Im omega, so a continued
        # order has sign(Im theta) = sign(Im omega)
        lhs = np.sin(TWO_PI * p.real) * 2.0 * np.sinh(TWO_PI * p.imag)
        bad = prop & (np.abs(lhs - omega.imag) > 1e-8 * (1.0 + np.abs(omega)))
        if complex_phi:
            bad &= phi.imag == 0.0
        if bad.any():
            at = np.unravel_index(np.argmax(bad), bad.shape)
            im = np.broadcast_to(omega.imag, bad.shape)[at]
            raise ValueError(
                f"branch-continuation sign law violated at order {at[-1]}: "
                f"{lhs[at]} vs Im omega = {im}")
        return phi, theta, prop, np.zeros(prop.shape, dtype=bool)

    chi = (np.asarray((4.0 - omega) / 2.0)[..., None] - cos).real
    mag = np.abs(chi)
    # exact for |chi| in [1/2, 2], so that gap <= -tol is |chi| < 1 off the
    # thresholds
    gap = mag - 1.0
    thr = np.abs(gap) < THRESHOLD_TOL
    prop = gap <= -THRESHOLD_TOL
    # arccos(+-1) / 2 pi is exactly 0 or 1/2, and arccosh(1) is 0
    theta = (np.arccos(np.where(prop, chi, np.sign(chi))) / TWO_PI
             + 1j * (np.arccosh(np.where(gap < THRESHOLD_TOL, 1.0, mag))
                     / TWO_PI))
    return phi, theta, prop, thr


def _thresholds(N, kappa):
    """The frequencies 2 - 2 cos 2 pi phi_l, then 6 - 2 cos 2 pi phi_l, where
    chi_l = +-1 at real kappa; shape kappa.shape + (2N,)."""
    c = 2.0 * np.cos(TWO_PI * ((np.asarray(kappa)[..., None] + np.arange(N))
                               / N))
    return np.concatenate([2.0 - c, 6.0 - c], axis=-1)


def _classify_off_threshold(N, kappa, omega):
    """_classify, refusing the points when an order is a threshold; the
    error's points mask those with one."""
    phi, theta, prop, thr = _classify(N, kappa, omega)
    if thr.any():
        error = ThresholdError(
            f"harmonic on a threshold curve at (kappa={kappa}, omega={omega})")
        error.points = thr.any(axis=-1)
        raise error
    return phi, theta, prop


def classify_harmonics(params: StructureParams,
                       point: BlochPoint) -> HarmonicSet:
    """Classify the N Fourier orders at a Bloch point.

    Orders within THRESHOLD_TOL of a threshold are flagged (not silently
    classified); callers that cannot handle thresholds should check
    HarmonicSet.has_threshold or catch ThresholdError from assembly.
    """
    kappa = point.kappa if point.kappa.imag else point.kappa.real
    return HarmonicSet(point, *_classify(params.N, kappa, point.omega))


def waveguide_band_matrix(params: StructureParams, kappa) -> np.ndarray:
    """The N x N Hermitian Floquet matrix of the isolated chain at kappa.

    Row n reads ((k_n + k_{n-1})/M_n) z_n - (k_n/sqrt(M_n M_{n+1})) z_{n+1}
    - (k_{n-1}/sqrt(M_n M_{n-1})) z_{n-1}, with wrap-around entries picking up
    the Bloch factor e^{+-2 pi i kappa}.  A numpy array kappa gives one
    matrix per entry, of shape kappa.shape + (N, N), each equal to the
    scalar call.
    """
    N = params.N
    # Python floats: their arithmetic is numpy's, without its per-scalar cost
    M, k = params.masses.tolist(), params.springs.tolist()
    # kappa's axes last, so that B[n, m] is an entry at scalar kappa
    shape = getattr(kappa, "shape", ())
    B = np.zeros((N, N) + shape, dtype=complex)
    for n in range(N):
        up = (n + 1) % N
        c = -k[n] / math.sqrt(M[n] * M[up])  # coupling of sites n and n + 1
        wrap = np.exp(2j * np.pi * kappa) if up == 0 else 1.0
        B[n, n] += (k[n] + k[n - 1]) / M[n]
        B[n, up] += c * wrap
        B[up, n] += c / wrap
    return np.moveaxis(B, (0, 1), (-2, -1)) if shape else B


def strip_blocks(params: StructureParams, kappa: float, mx: int,
                 sector: str = "both"):
    """H of the chain coupled to the strip |m| <= mx, as N x N blocks.

    Returns (rows, cols, kinds, palette): block (rows[i], cols[i]) is
    palette[kinds[i]], every other block zero.  The palette: the chain block
    `waveguide_band_matrix`, diag(gamma) (chain row n from lattice site
    (0, n)), diag(conj gamma), the lattice block (4 minus the n-neighbours,
    e^{+-2 pi i kappa} across the wrap), -I and -2 I.  Block rows: 'both'
    is (z, u_-mx, ..., u_mx), zero beyond the walls; 'even' is (z, u_0, ...,
    u_mx) for u_-m = u_m, so u_0 hops to u_1 with -2 I; 'odd' is (u_1, ...,
    u_mx) for z = 0 and u_-m = -u_m.
    """
    N = params.N
    n = np.arange(N)
    up = (n + 1) % N
    # the hop from (m, n) to (m, n + 1) picks up the twist on the wrap
    hop = np.where(n == N - 1, np.exp(2j * np.pi * kappa), 1.0)
    # -0.0 adds nothing, not even the sign of a zero
    lattice = np.full((N, N), complex(-0.0, -0.0))
    lattice[n, n] += 4.0
    lattice[n, up] += -hop
    lattice[up, n] += -1.0 / hop
    gamma = np.diag(params.gammas)
    palette = np.stack([waveguide_band_matrix(params, kappa), gamma,
                        gamma.conj(), lattice, -np.eye(N), -2.0 * np.eye(N)])
    dim = {"both": 2 * mx + 2, "even": mx + 2, "odd": mx}[sector]
    lat = np.arange(sector != "odd", dim)
    rows, cols = [lat, lat[1:], lat[:-1]], [lat, lat[:-1], lat[1:]]
    kinds = [3 + 0 * lat, 4 + 0 * lat[1:], 4 + 0 * lat[1:]]
    if sector != "odd":
        u0 = 1 if sector == "even" else mx + 1
        rows, cols = rows + [[0, 0, u0]], cols + [[0, u0, 0]]
        kinds.append([0, 1, 2])
        if sector == "even" and mx:
            kinds[2][0] = 5
    return (np.concatenate(rows), np.concatenate(cols),
            np.concatenate(kinds), palette)


def _block_entries(rows, cols, kinds, palette, stored):
    """Scalar triplets (row, col, value) of a block matrix in `strip_blocks`
    form: block b contributes the entries of palette[kinds[b]] that
    stored[kinds[b]] marks, block by block in the order of the list."""
    N = palette.shape[-1]
    # each kind's stored entries (k, i, j); block b takes its kind's in turn
    k, i, j = np.nonzero(stored)
    count = np.bincount(k, minlength=len(palette))[kinds]
    b = np.repeat(np.arange(len(kinds)), count)
    e = np.arange(len(b)) + np.repeat(
        np.searchsorted(k, kinds) - np.cumsum(count) + count, count)
    return (N * rows[b] + i[e], N * cols[b] + j[e],
            palette[k[e], i[e], j[e]])


def strip_operator(params: StructureParams, kappa: float,
                   mx: int) -> sp.csr_matrix:
    """The Hermitian generator H of the chain coupled to the strip |m| <= mx.

    H acts on s = (z, u.ravel()) with u of shape (2 mx + 1, N), rows
    m = -mx..mx: the CSR form of `strip_blocks` on the whole strip.  It
    stores the chain block's nonzero entries and the whole diagonal of
    every other block.
    """
    import scipy.sparse as sp

    N = params.N
    rows, cols, kinds, palette = strip_blocks(params, kappa, mx)
    # blocks row by row, which the CSR conversion sorts fastest
    order = np.lexsort((cols, rows))
    rows, cols, kinds = rows[order], cols[order], kinds[order]
    stored = palette != 0
    stored[1:] |= np.eye(N, dtype=bool)
    row, col, val = _block_entries(rows, cols, kinds, palette, stored)
    dim = N * (2 * mx + 2)
    return sp.csr_matrix((val, (row, col)), shape=(dim, dim))


def waveguide_bands(params: StructureParams, kappa: float) -> np.ndarray:
    """Sorted real eigenvalues of the chain's Floquet matrix at kappa."""
    return np.sort(np.linalg.eigvalsh(waveguide_band_matrix(params, kappa)))


@dataclass(frozen=True)
class RegionDiagram:
    """|P| (number of propagating orders) on a (kappa, omega) grid."""

    kappa_grid: np.ndarray
    omega_grid: np.ndarray
    counts: np.ndarray  # shape (len(kappa_grid), len(omega_grid))
    threshold_mask: np.ndarray = field(default=None)


def region_diagram(params: StructureParams, kappa_grid, omega_grid) -> RegionDiagram:
    """Count propagating orders at every grid point, one kappa row at a time.

    Orders within the classifier's threshold tolerance count as thresholds,
    not as propagating, exactly as in `propagating_count`.
    """
    kappa_grid = np.asarray(kappa_grid, dtype=float)
    omega_grid = np.asarray(omega_grid, dtype=float)
    counts = np.zeros((len(kappa_grid), len(omega_grid)), dtype=int)
    thresh = np.zeros_like(counts, dtype=bool)
    for i, kap in enumerate(kappa_grid):
        _, _, prop, thr = _classify(params.N, kap, omega_grid)
        counts[i] = prop.sum(axis=-1)
        thresh[i] = thr.any(axis=-1)
    return RegionDiagram(kappa_grid, omega_grid, counts, thresh)


def propagating_count(params: StructureParams, kappa: float, omega: float) -> int:
    """|P| at a single real point."""
    return int(_classify(params.N, kappa, omega)[2].sum())
