"""Frequency-domain scattering by the coupled chain: assembly and solve.

The total field is expanded in Fourier orders on each side of the coupling
line m = 0, u_{mn} = sum_l (incoming + outgoing) e^{2 pi i (theta_l m + phi_l n)},
and the chain displacement z_n = sum_l c_l e^{2 pi i phi_l n}.  Matching the
two expansions at m = 0, the m = 0 lattice equation, and the chain equation at
n = 0..N-1 yields a 3N x 3N linear system for the outgoing coefficients
(a_minus, b_plus) and the chain coefficients c.  Its matrix, `_assemble`,
serves only `guided.sigma_min` and `guided.null_vector`, which check a mode
and give its field.  Eliminating the continuity and m = 0 lattice rows by
hand leaves the N x N chain system K(kappa, omega) z = gamma * (P u_inc).
`_chain_kernel` is the one builder of K: it also gives K_H, K without the
propagating orders' terms, on which modes are found, and the exact
derivatives K_omega and K_kappa that the eigenvalue tracker follows.

Every solve takes one path, `_solve_chain`, over a row of frequencies at one
kappa: P and P^-1 depend on kappa only, so K is stacked over the row by
broadcasting, one stacked SVD gives the condition numbers and one stacked
solve the well-conditioned members, and the refusals and the T/R and flux
rules act on the whole row.  `solve_row` (which `scan_transmission` calls
once per kappa row) runs it with unit left incidence and `solve_scattering`
on a row of one point, so the two agree point by point by construction.
"""

from __future__ import annotations

import functools
import logging
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from .structure import (BlochPoint, HarmonicSet, StructureParams,
                        ThresholdError, _classify, classify_harmonics,
                        waveguide_band_matrix)

TWO_PI = 2.0 * np.pi

log = logging.getLogger("latres")

# A row is solved in chunks of at most this many bytes of stacked matrices,
# so that its memory stays bounded however many frequencies it has.
STACK_BYTES = 64 * 2 ** 20

# condition number of K above which a solve falls back to least squares
COND_LIMIT = 1e12

# flags of the points a row refuses (NaN results)
THRESHOLD = "threshold"
NOT_PROPAGATING = "incident_not_propagating"


def _chunks(count, item_bytes):
    """Slices of range(count), each holding at most STACK_BYTES of items;
    one (empty) slice when count is 0."""
    step = max(1, STACK_BYTES // item_bytes)
    return [slice(i, i + step) for i in range(0, max(count, 1), step)]


def _unit_amplitudes(N, order):
    """Unit amplitude on one order, which must be one of 0..N-1."""
    if not 0 <= order < N:
        raise ValueError(f"incident order {order} outside 0..{N - 1}")
    amp = np.zeros(N, dtype=complex)
    amp[order] = 1.0
    return amp


@dataclass(frozen=True)
class IncidentField:
    """Incoming amplitudes per order: a_inc from the left, b_inc from the right.

    Amplitudes should be nonzero only on propagating orders; full-length
    arrays are accepted and validated at solve time.
    """

    a_inc: np.ndarray
    b_inc: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a_inc", np.asarray(self.a_inc, dtype=complex))
        object.__setattr__(self, "b_inc", np.asarray(self.b_inc, dtype=complex))

    @staticmethod
    def unit_left(N: int, order: int = 0) -> "IncidentField":
        return IncidentField(_unit_amplitudes(N, order),
                             np.zeros(N, dtype=complex))

    @staticmethod
    def unit_right(N: int, order: int = 0) -> "IncidentField":
        return IncidentField(np.zeros(N, dtype=complex),
                             _unit_amplitudes(N, order))


class NonPropagatingIncidenceError(ValueError):
    """Incident amplitude on an order that does not propagate."""


@functools.lru_cache(maxsize=64)  # a tracker asks for one kappa many times
def _fourier(N, kappa):
    """P[n, l] = e^{2 pi i phi_l n}, phi_l = (kappa + l) / N, and, as the phi_l
    differ by l/N, its inverse P^-1[l, n] = e^{-2 pi i phi_l n} / N (P^H / N
    if kappa is real); read-only, as callers share them."""
    phi = (kappa + np.arange(N)) / N
    n = np.arange(N)
    P = np.exp(2j * np.pi * (n[:, None] * phi))
    Pinv = np.exp(-2j * np.pi * (phi[:, None] * n)) / N
    P.flags.writeable = Pinv.flags.writeable = False
    return P, Pinv


def _chain_kernel(params, kappa, omega, theta, prop=None):
    """The reduced chain matrix K, P, P^-1, s and its exact derivatives.

    K = omega - A(kappa) - sum_l w_l u_l / s_l, with A the chain's band
    matrix, w_l = gamma * P[:, l], u_l = P^-1[l, :] * conj(gamma) (w_l^H / N
    at real kappa), s_l = 2i sin 2 pi theta_l and P, P^-1 from `_fourier`.
    omega may carry leading batch axes, theta then has shape omega.shape +
    (N,) and K shape omega.shape + (N, N).  kappa is a scalar (complex for
    the tracker), or a real array broadcasting against omega, one point per
    entry, with A, P and P^-1 built once per distinct kappa.  Where the mask
    prop (theta's shape) is given, its orders' terms are dropped: with the
    propagating orders this is K_H, K without their radiation, Hermitian at
    real points as s_l is real on a decaying order.
    Returns (K, P, P^-1, s, K_omega, K_kappa); the last two form the exact
    derivatives of the kept terms when called.  The ambient dispersion
    omega = 4 - 2 cos 2 pi theta - 2 cos 2 pi phi gives
    ds/d omega = i cot 2 pi theta, so K_omega = I + sum_l (s_l' / s_l^2)
    w_l u_l, with s_l' / s_l^2 > 0 on a decaying order (each eigenvalue of
    K_H rises with slope at least 1), and at fixed omega
    ds/d kappa = -(ds/d omega) 4 pi sin(2 pi phi) / N.  P' = 2 pi i D P and
    (P^-1)' = -2 pi i P^-1 D with D = diag(n / N).  A' comes from the wrap
    entries, the only ones that depend on kappa: they carry e^{+-2 pi i kappa},
    so A' = pi (A(kappa + 1/4) - A(kappa - 1/4)).
    """
    N, gam = params.N, params.gammas

    def per_kappa(f):
        """The N x N matrices f(kappa) returns, each at every point; at an
        array kappa, f runs once per distinct kappa."""
        if not np.ndim(kappa):
            return f(kappa)
        rows = {}  # each distinct kappa and its index
        at = [rows.setdefault(k, len(rows)) for k in kappa.ravel().tolist()]
        return np.array(list(zip(*map(f, rows))))[:, at].reshape(
            (-1,) + kappa.shape + (N, N))

    A, P, Pinv = per_kappa(lambda k: (waveguide_band_matrix(params, k),
                                      *_fourier(N, k)))
    s = 2j * np.sin(TWO_PI * theta)
    Ws = gam[:, None] * P / s[..., None, :]
    if prop is not None:
        Ws = np.where(prop[..., None, :], 0.0, Ws)
    U = Pinv * np.conj(gam)
    Y = Ws @ U  # the coupling sum
    K = np.asarray(omega)[..., None, None] * np.eye(N) - A - Y

    def Ws_ds():  # the w_l s_l' / s_l^2, s' = ds / d omega = i cot 2 pi theta
        return Ws * (1j / np.tan(TWO_PI * theta) / s)[..., None, :]

    def K_kappa():
        n = np.arange(N)
        (A_kap,) = per_kappa(lambda k: [np.pi * (
            waveguide_band_matrix(params, k + 0.25)
            - waveguide_band_matrix(params, k - 0.25))])
        sin_phi = np.sin(TWO_PI * (np.add.outer(kappa, n) / N))
        return (-A_kap - 2j * np.pi * Y * (np.subtract.outer(n, n) / N)
                - (Ws_ds() * (4.0 * np.pi / N * sin_phi)[..., None, :]) @ U)

    return K, P, Pinv, s, lambda: np.eye(N) + Ws_ds() @ U, K_kappa


def _solve_stack(K, rhs, cond_limit):
    """Solve a stack of chain systems K z = rhs, one rhs for all members;
    returns (z, cond, near).

    One stacked SVD gives the 2-norm condition numbers.  Members at or under
    cond_limit share one stacked solve; the others (near a guided mode) get a
    minimum-norm least-squares solution each, since one exactly singular
    member would make the stacked solve raise for the whole stack.
    """
    sv = np.linalg.svd(K, compute_uv=False)
    cond = np.divide(sv[:, 0], sv[:, -1], out=np.full(len(sv), np.inf),
                     where=sv[:, -1] > 0)
    near = cond > cond_limit
    b = rhs[None, :, None]  # NumPy 1.x reads a 1-D b as a stack of vectors
    if not near.any():
        return np.linalg.solve(K, b)[..., 0], cond, near
    z = np.empty(K.shape[:-1], dtype=complex)
    well = ~near
    if well.any():
        z[well] = np.linalg.solve(K[well], b)[..., 0]
    for i in np.flatnonzero(near):
        z[i] = np.linalg.lstsq(K[i], rhs, rcond=1e-12)[0]
    return z, cond, near


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
class ScatteringSolution:
    """Outgoing and chain coefficients plus energy bookkeeping."""

    params: StructureParams
    point: BlochPoint
    incident: IncidentField
    harmonics: HarmonicSet
    a_minus: np.ndarray
    b_plus: np.ndarray
    c: np.ndarray
    T: float
    R: float
    energy_residual: float
    incident_flux: float
    condition: float
    flags: tuple = field(default=())


def _spread(ok, x):
    """x, given at the points of the mask ok, over the row; NaN elsewhere."""
    out = np.full(ok.shape + x.shape[1:], np.nan, dtype=x.dtype)
    out[ok] = x
    return out


def _solve_chain(params, kappa, omega, classified, incident, cond_limit,
                 strict=False):
    """The chain system K z = gamma * (P u_inc) at kappa over the 1-D omega.

    classified is `_classify`'s output for the row.  A point on a threshold,
    or with incident amplitude on an order that does not propagate there,
    is refused: flagged with NaN results, or, if strict, the first refused
    point raises ThresholdError or NonPropagatingIncidenceError.  K is
    stacked over the other points and solved by `_solve_stack`.  Both
    outgoing amplitudes follow from the common trace
    U = u_inc + P^-1 (conj(gamma) z) / s: a_minus = U - a_inc and
    b_plus = U - b_inc; and c = P^-1 z.  The fluxes are sums over the
    propagating orders weighted by sin 2 pi theta, and the energy residual
    is |outgoing - incident flux|.  With one propagating order,
    T = |b_plus| and R = |a_minus| on that order; with several, T and R are
    flux-weighted (0 without incident flux) and flagged; with none they are
    NaN.
    """
    N, gam = params.N, params.gammas
    _, theta, prop, thr = classified
    a_inc, b_inc = incident.a_inc, incident.b_inc
    om = omega
    bad = thr | (((a_inc != 0) | (b_inc != 0)) > prop)
    refused = bad.any()
    if refused:
        ok = ~bad.any(axis=-1)
        if strict:
            i = int(np.argmin(ok))
            if thr[i].any():
                raise ThresholdError(f"harmonic on a threshold curve at "
                                     f"(kappa={kappa}, omega={omega[i]})")
            raise NonPropagatingIncidenceError(
                f"incident amplitude on non-propagating order(s) "
                f"{np.flatnonzero(bad[i]).tolist()}")
        om, theta, prop = om[ok], theta[ok], prop[ok]

    u_inc = a_inc + b_inc
    K, P, Pinv, s, *_ = _chain_kernel(params, kappa, om, theta)
    z, cond, near = _solve_stack(K, gam * (P @ u_inc), cond_limit)
    U = u_inc + (Pinv @ (np.conj(gam) * z)[..., None])[..., 0] / s
    a_minus, b_plus = U - a_inc, U - b_inc
    c = z @ Pinv.T

    weight = np.where(prop, np.sin(TWO_PI * theta.real), 0.0)
    inc_o = np.abs(a_inc) ** 2 + np.abs(b_inc) ** 2
    amp = np.abs([b_plus, a_minus])
    out = amp ** 2
    inc = (inc_o * weight).sum(axis=-1)
    resid = np.abs(((out[0] + out[1] - inc_o) * weight).sum(axis=-1))
    # the moduli on the one propagating order: fmax skips the NaN put on
    # the other orders, and is NaN where no order propagates
    TR = np.fmax.reduce(np.where(prop, amp, np.nan), axis=-1)
    multi = prop.sum(axis=-1) > 1
    if multi.any():
        TR = np.where(multi, np.sqrt(np.divide(
            (out * weight).sum(axis=-1), inc, out=np.zeros(TR.shape),
            where=inc > 0)), TR)
    T, R = TR
    flag = near + 2 * multi
    if refused:
        a_minus, b_plus, c, T, R, inc, resid, cond = (
            _spread(ok, x) for x in (a_minus, b_plus, c, T, R, inc, resid,
                                     cond))
        solved, flag = flag, np.where(thr.any(axis=-1), 4, 5)
        flag[ok] = solved
    return ScatteringRow(kappa=kappa, omega=omega, a_minus=a_minus,
                         b_plus=b_plus, c=c, T=T, R=R, energy_residual=resid,
                         incident_flux=inc, condition=cond,
                         flags=tuple(map(_ROW_FLAGS.__getitem__,
                                         flag.tolist())))


def solve_scattering(params: StructureParams, point: BlochPoint,
                     incident: IncidentField = None,
                     cond_limit: float = COND_LIMIT) -> ScatteringSolution:
    """Solve the N x N chain system K z = gamma * (P u_inc) at one point.

    The point is classified once and solved as a row of one by
    `_solve_chain`, which holds the refusals and the T/R rules.
    `condition` is the 2-norm condition number of K; above cond_limit (at
    guided-mode parameters) the solution is the minimum-norm least-squares
    one, flagged `near_singular`.  A complex point takes incidence on any
    order, has T = R = NaN and no flux balance, and is flagged
    `complex_point`.
    """
    N = params.N
    if incident is None:
        incident = IncidentField.unit_left(N)
    hs = classify_harmonics(params, point)
    real = point.is_real
    prop = hs.propagating_mask
    if not real:  # no incidence is refused; T, R and the fluxes are reset
        prop = prop | (incident.a_inc != 0) | (incident.b_inc != 0)
    row = _solve_chain(params, point.kappa, np.array([point.omega]),
                       (hs.phi, hs.theta[None], prop[None],
                        hs.threshold_mask[None]),
                       incident, cond_limit, strict=True)
    if real:
        T, R = float(row.T[0]), float(row.R[0])
        inc, resid = row.incident_flux[0], row.energy_residual[0]
        flags = tuple(filter(None, row.flags[0].split(";")))
    else:
        T = R = float("nan")
        inc = resid = 0.0
        flags = (("near_singular",) * row.flags[0].startswith("near_singular")
                 + ("complex_point",))
    return ScatteringSolution(
        params=params, point=point, incident=incident, harmonics=hs,
        a_minus=row.a_minus[0], b_plus=row.b_plus[0], c=row.c[0], T=T, R=R,
        energy_residual=float(resid), incident_flux=float(inc),
        condition=float(row.condition[0]), flags=flags)


def reconstruct_field(sol: ScatteringSolution, m, n):
    """Evaluate (u_mn, z_n) from the expansions; left for m<=0, right for m>=0."""
    phi = sol.harmonics.phi
    theta = sol.harmonics.theta
    m = np.asarray(m)
    ey = np.exp(2j * np.pi * np.multiply.outer(np.asarray(n), phi))
    ep = np.exp(2j * np.pi * np.multiply.outer(m, theta))
    em = np.exp(-2j * np.pi * np.multiply.outer(m, theta))
    left = (sol.incident.a_inc * ep + sol.a_minus * em)
    right = (sol.b_plus * ep + sol.incident.b_inc * em)
    coef = np.where((m <= 0)[..., None] if m.ndim else (m <= 0), left, right)
    u = np.sum(coef * ey, axis=-1)
    z = ey @ sol.c
    return u, z


def column_flux(sol: ScatteringSolution, m: int) -> float:
    """Discrete energy flux Im(sum_n conj(u) u_x) through column m.

    For a solution of the scattering problem this is independent of m
    (what flows in flows out plus what the chain radiates is balanced).
    """
    n = np.arange(sol.params.N)
    u0, _ = reconstruct_field(sol, m, n)
    u1, _ = reconstruct_field(sol, m + 1, n)
    return float(np.imag(np.sum(np.conj(u0) * (u1 - u0))))


@dataclass(frozen=True)
class ScatteringRow:
    """Chain solves at one kappa over a row of frequencies, one incidence.

    Every array runs over `omega`; a_minus, b_plus and c have a trailing
    order axis.  `flags` holds each point's scan flags; refused points (flag
    `threshold` or `incident_not_propagating`) carry NaN in every array.
    """

    kappa: float
    omega: np.ndarray
    a_minus: np.ndarray
    b_plus: np.ndarray
    c: np.ndarray
    T: np.ndarray
    R: np.ndarray
    energy_residual: np.ndarray
    incident_flux: np.ndarray
    condition: np.ndarray
    flags: tuple


# flags of a row point, indexed by 2 * multi_prop + near_singular for solved
# points and by 4 / 5 for the two refusals
_ROW_FLAGS = ("", "near_singular", "multi_prop_flux_weighted",
              "near_singular;multi_prop_flux_weighted", THRESHOLD,
              NOT_PROPAGATING)


def solve_row(params: StructureParams, kappa: float, omega_grid,
              incident_order: int = 0, strict: bool = False) -> ScatteringRow:
    """Unit left incidence on one order over a row of real omegas.

    The row is classified at once and solved by `_solve_chain`, the path
    `solve_scattering` takes on a row of one point, so the numbers equal
    the single-point solver's by construction.  Rows with more than
    STACK_BYTES of K are solved in chunks.  Points on a threshold or where
    the incident order does not propagate are refused with a flag, or, if
    strict, the first of them raises the single-point solver's error.
    """
    N = params.N
    incident = IncidentField.unit_left(N, incident_order)
    omega = np.asarray(omega_grid, dtype=float)
    phi, theta, prop, thr = _classify(N, kappa, omega)
    rows = [_solve_chain(params, kappa, omega[part],
                         (phi, theta[part], prop[part], thr[part]), incident,
                         COND_LIMIT, strict)
            for part in _chunks(len(omega), 16 * N * N)]
    if len(rows) == 1:
        return rows[0]
    # join the chunks' per-point arrays, the fields between omega and flags
    arrays = (np.concatenate([getattr(r, f.name) for r in rows])
              for f in fields(ScatteringRow)[2:-1])
    return ScatteringRow(kappa, omega, *arrays,
                         sum((r.flags for r in rows), ()))


def scan_transmission(params: StructureParams, kappa_grid, omega_grid,
                      incident_order: int = 0):
    """T, R, and the conservation residual over a (kappa, omega) grid.

    One `solve_row` call, that is one stacked solve, per kappa row.  Yields
    rows (kappa, omega, T, R, energy_residual, flags); threshold points are
    skipped in place with a 'threshold' sentinel flag and NaNs, and points
    where the incident order does not propagate with an
    'incident_not_propagating' one.  Any other error reaches the caller.
    A DEBUG line on the `latres` logger counts the points solved and
    refused, the `near_singular` ones and the worst condition number.
    """
    _unit_amplitudes(params.N, incident_order)
    omega = np.asarray(omega_grid, dtype=float)
    rows, counts, worst = [], Counter(), np.nan
    for kap in np.asarray(kappa_grid, dtype=float):
        row = solve_row(params, kap, omega, incident_order)
        rows.extend(zip([kap] * len(omega), omega.tolist(), row.T.tolist(),
                        row.R.tolist(), row.energy_residual.tolist(),
                        row.flags))
        counts.update(row.flags)
        worst = np.fmax.reduce(row.condition, initial=worst)  # skips NaN
    refused = counts[THRESHOLD] + counts[NOT_PROPAGATING]
    log.debug("scan: %d points solved, %d threshold, %d incident not "
              "propagating, %d near_singular, worst condition %.3g",
              len(rows) - refused, counts[THRESHOLD], counts[NOT_PROPAGATING],
              sum(n for f, n in counts.items() if "near_singular" in f), worst)
    return rows
