"""Structure definition, harmonic classification, and band/region diagrams.

The physical system is a one-dimensional mass-spring chain (period N in the
transverse index n) coupled along the line m = 0 of a two-dimensional square
lattice.  Fields are pseudo-periodic in n with Bloch wavenumber kappa and
time-harmonic with frequency omega.  Everything downstream builds on the
per-order exponents (phi_l, theta_l) computed here.
"""

from __future__ import annotations

import json
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


@dataclass(frozen=True)
class HarmonicSet:
    """All N harmonics at a Bloch point plus the set of propagating orders."""

    point: BlochPoint
    harmonics: tuple
    propagating: tuple

    @property
    def phi(self) -> np.ndarray:
        return np.array([h.phi for h in self.harmonics])

    @property
    def theta(self) -> np.ndarray:
        return np.array([h.theta for h in self.harmonics], dtype=complex)

    @property
    def has_threshold(self) -> bool:
        return any(h.kind == LINEAR_THRESHOLD for h in self.harmonics)


def ambient_dispersion(theta, phi):
    """Frequency of the plane wave e^{2 pi i (theta m + phi n)} on the lattice."""
    return 4.0 - 2.0 * np.cos(TWO_PI * theta) - 2.0 * np.cos(TWO_PI * phi)


def _classify(N, kappa, omega):
    """Exponents and classes of the N orders at kappa and omega.

    Returns (phi, theta, prop, thr) with phi_l = (kappa + l) / N and theta,
    prop and thr of shape omega.shape + (N,), prop and thr the masks of the
    propagating and the threshold orders.  Real omega may be a scalar or an
    array: an order within THRESHOLD_TOL of chi = +-1 is a threshold,
    theta = 0 or 1/2; an order with |chi| < 1 propagates,
    theta = arccos(chi) / 2 pi; the others decay,
    theta = (0 if chi > 0, else 1/2) + i arccosh|chi| / 2 pi.  Complex
    omega must be a scalar (a Python complex or numpy.complex128); theta is
    then continued from the real-omega branch along a straight path in
    omega, no order is a threshold, and each continued propagating order is
    checked against the sign law.
    """
    phi = (kappa + np.arange(N)) / N
    if isinstance(omega, complex) and omega.imag != 0.0:
        # The principal arccos already continues the propagating branch; for
        # decaying orders pick the sign that keeps the field bounded.
        chi = (4.0 - omega) / 2.0 - np.cos(TWO_PI * phi)
        chi_re = (4.0 - omega.real) / 2.0 - np.cos(TWO_PI * np.real(phi))
        theta = np.zeros(N, dtype=complex)
        prop = np.zeros(N, dtype=bool)
        for l in range(N):
            p = np.arccos(chi[l] + 0j) / TWO_PI
            if -1.0 < chi_re[l] < 1.0:
                theta[l], prop[l] = p, True
                # the imaginary part of the ambient dispersion with real phi:
                # sin(2 pi Re theta) 2 sinh(2 pi Im theta) = Im omega, so a
                # continued order has sign(Im theta) = sign(Im omega)
                lhs = np.sin(TWO_PI * p.real) * 2.0 * np.sinh(TWO_PI * p.imag)
                if abs(lhs - omega.imag) > 1e-8 * (1.0 + abs(omega)):
                    raise ValueError(
                        f"branch-continuation sign law violated at order {l}: "
                        f"{lhs} vs Im omega = {omega.imag}")
            else:
                cand = p if np.imag(p) > 0 else -p
                theta[l] = cand - np.floor(np.real(cand))
        return phi, theta, prop, np.zeros(N, dtype=bool)

    chi = np.real(np.subtract.outer((4.0 - omega) / 2.0,
                                    np.cos(TWO_PI * phi)))
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


def _classify_off_threshold(N, kappa, omega):
    """_classify at one point, refusing it when an order is a threshold."""
    phi, theta, prop, thr = _classify(N, kappa, omega)
    if thr.any():
        raise ThresholdError(
            f"harmonic on a threshold curve at (kappa={kappa}, omega={omega})")
    return phi, theta, prop


def classify_harmonics(params: StructureParams,
                       point: BlochPoint) -> HarmonicSet:
    """Classify the N Fourier orders at a Bloch point.

    Orders within THRESHOLD_TOL of a threshold are flagged (not silently
    classified); callers that cannot handle thresholds should check
    HarmonicSet.has_threshold or catch ThresholdError from assembly.
    """
    kappa = point.kappa if point.kappa.imag else point.kappa.real
    phi, theta, prop, thr = _classify(params.N, kappa, point.omega)
    # a decaying order has Re theta near 0 (or 1) when chi > 0, near 1/2
    # when chi < 0
    kinds = [LINEAR_THRESHOLD if t else PROPAGATING if p
             else BAND_EDGE_EVANESCENT if 0.25 < th.real < 0.75
             else EVANESCENT
             for th, p, t in zip(theta.tolist(), prop.tolist(), thr.tolist())]
    harms = tuple(
        Harmonic(order=l, phi=phi[l], theta=theta[l], kind=kinds[l])
        for l in range(params.N)
    )
    return HarmonicSet(point=point, harmonics=harms,
                       propagating=tuple(prop.nonzero()[0]))


def waveguide_band_matrix(params: StructureParams, kappa: float) -> np.ndarray:
    """The N x N Hermitian Floquet matrix of the isolated chain at kappa.

    Row n reads ((k_n + k_{n-1})/M_n) z_n - (k_n/sqrt(M_n M_{n+1})) z_{n+1}
    - (k_{n-1}/sqrt(M_n M_{n-1})) z_{n-1}, with wrap-around entries picking up
    the Bloch factor e^{+-2 pi i kappa}.
    """
    N = params.N
    M, k = params.masses, params.springs
    B = np.zeros((N, N), dtype=complex)
    for n in range(N):
        up = (n + 1) % N
        c = -k[n] / np.sqrt(M[n] * M[up])  # coupling of sites n and n + 1
        wrap = np.exp(2j * np.pi * kappa) if up == 0 else 1.0
        B[n, n] += (k[n] + k[n - 1]) / M[n]
        B[n, up] += c * wrap
        B[up, n] += c / wrap
    return B


def strip_operator(params: StructureParams, kappa: float,
                   mx: int) -> sp.csr_matrix:
    """The Hermitian generator H of the chain coupled to the strip |m| <= mx.

    H acts on s = (z, u.ravel()) with u of shape (2 mx + 1, N), rows
    m = -mx..mx, and zero Dirichlet data beyond them.  The chain block is
    `waveguide_band_matrix`; the lattice block is 4 u minus the four
    neighbours, with the factor e^{+-2 pi i kappa} across the n-wrap; the
    coupling feeds gamma_n u_{0n} into chain row n and conj(gamma_n) z_n
    into lattice site (0, n).
    """
    import scipy.sparse as sp

    N = params.N
    n = np.arange(N)
    site = N + np.arange((2 * mx + 1) * N).reshape(2 * mx + 1, N)
    nxt = site[:, (n + 1) % N]
    # the hop from (m, n) to (m, n + 1) picks up the twist on the wrap
    hop = np.where(n == N - 1, np.exp(2j * np.pi * kappa), 1.0)
    chain = waveguide_band_matrix(params, kappa)
    cr, cc = np.nonzero(chain)
    blocks = [(cr, cc, chain[cr, cc]), (n, site[mx], params.gammas),
              (site[mx], n, np.conj(params.gammas)), (site, site, 4.0),
              (site[1:], site[:-1], -1.0), (site[:-1], site[1:], -1.0),
              (site, nxt, -hop), (nxt, site, -1.0 / hop)]
    rows, cols, vals = (np.concatenate(
        [np.broadcast_to(b[k], b[0].shape).ravel() for b in blocks])
        for k in range(3))
    dim = N + site.size
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


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
