"""The mode numbers against K written in mpmath (`oracles.taylor_mp`).

Every frozen mode value elsewhere in the suite was computed by the program
itself; here omega_gm is a root of det K at 30 digits and its Taylor
coefficients come from a Cauchy circle of radius 1e-2 with 16 points, whose
aliasing error (r / R)^16 is far below the gates (the nearest threshold of
fixture 1 lies about 0.25 away in kappa).  The program reads its slope and
curvature off the same kind of circle in double precision
(`guided._taylor`), whose roundoff in c2 is a few 1e-13.  The first gates
were set before the tests first ran; the curvature and gamma0* gates were
tightened to 1e-12 once the degree-5 fit (about 5e-9 off on fixture 1,
4.9e-8 on N = 3) and the central difference in gamma0* (3.0e-11) gave way to
the circles:

- fixture 1 at the program's kappa0: slope within 1e-10, curvature within
  1e-12, omega0 within 1e-12, and the root of h = Im c1, one Newton step
  from the program's kappa0, within 1e-12 of it;
- the 30-digit kappa0 and omega0 = 47/48 quoted for criterion 01
  (`test_acceptance.py`) within 1e-20;
- `find_bifurcation`'s gamma0* within 1e-12 of the root of Im c2 at
  kappa = 0, from a secant through gamma0 = GAMMA0_STAR -+ 1e-9
  (`bif_params`);
- `trace_branch`'s kappa0 on fixture 1 at gamma0* - 1e-7, from one circle
  around the square-root law's prediction, within 5e-10 of the root of
  h = Im c1, one Newton step from it (1.5e-10 measured: h carries a few
  1e-16 of roundoff and h' is only 4.9e-7 there);
- the N = 3 complex-coupling standing mode (the structure of
  `test_guided.test_standing_mode_n3_complex_coupling_matches_chain_oracle`,
  kappa0 = 0 from the polish's standing-mode test): omega0 within 1e-12,
  |Im c1| = |h(0)| within 1e-12, slope within 1e-10 and curvature within
  1e-12 absolute.  The nearest threshold lies about 0.9 away in omega
  (omega = 0 at kappa = 0), so the circle sees no singularity.
"""

import pytest

from latres import StructureParams
from latres.guided import continue_and_fit_dispersion, find_guided_modes
from latres.resonance import find_bifurcation, trace_branch
from oracles import taylor_mp

mp = pytest.importorskip("mpmath")


@pytest.fixture(autouse=True)
def digits():
    with mp.workdps(30):
        yield


def _seed(omega0, fit):
    """omega_gm near the mode from the program's fitted expansion."""
    return lambda z: omega0 - fit.slope * z - fit.curvature * z * z


def test_dispersion_coefficients_match_oracle(fixture1, mode1, fit1):
    c = taylor_mp(fixture1, mode1.kappa0, _seed(mode1.omega0, fit1))
    assert abs(complex(-c[1]) - fit1.slope) <= 1e-10
    assert abs(complex(-c[2]) - fit1.curvature) <= 1e-12
    assert abs(c[0].real - mode1.omega0) <= 1e-12
    # h(kappa) = Im c1(kappa) and h' = 2 Im c2: one Newton step
    dk = -c[1].imag / (2 * c[2].imag)
    assert abs(dk) <= 1e-12
    root = mp.mpf(mode1.kappa0) + dk
    assert abs(root - mp.mpf("0.061673664378923471537460100518")) <= 1e-20
    omega0 = (c[0] + c[1] * dk + c[2] * dk ** 2).real
    assert abs(omega0 - mp.mpf(47) / 48) <= 1e-20


def test_critical_coupling_matches_oracle(fixture1, bif_params, bif_mode,
                                         bif_fit):
    seed = _seed(bif_mode.omega0, bif_fit)
    g_frozen = bif_params.gammas[0].real
    points = []
    for g0 in (g_frozen - 1e-9, g_frozen + 1e-9):
        c = taylor_mp(fixture1.replace_gamma(0, g0), 0.0, seed)
        points.append((mp.mpf(g0), c[2].imag))  # -Im(curvature)
    (g1, f1), (g2, f2) = points
    g_star = g1 - f1 * (g2 - g1) / (f2 - f1)
    assert abs(find_bifurcation(fixture1, (0.8, 1.3))[0] - g_star) <= 1e-12


def test_branch_point_matches_oracle(fixture1, bif_mode, bif_fit):
    bracket = (0.8, 1.3)
    g_star = find_bifurcation(fixture1, bracket)[0]
    branch = trace_branch(fixture1, [g_star - 1e-7], gamma0_bracket=bracket)
    g0, kappa0, _ = branch.samples[0]
    seed = _seed(bif_mode.omega0, bif_fit)
    c = taylor_mp(fixture1.replace_gamma(0, g0), kappa0,
                  lambda z: seed(kappa0 + z))
    # one Newton step on h = Im c1, h' = 2 Im c2, to the 30-digit root
    assert abs(c[1].imag / (2 * c[2].imag)) <= 5e-10


def test_n3_complex_coupling_matches_oracle():
    g1 = 1.1 - 0.4j
    params = StructureParams(N=3, masses=[1.5, 2.0, 2.0],
                             springs=[1.2, 0.7, 1.2],
                             gammas=[0.8 + 0.3j, g1, g1])
    mode, = find_guided_modes(params, (-0.05, 0.05, 0.6, 1.35), density=40)
    assert mode.kappa0 == 0.0
    fit = continue_and_fit_dispersion(params, mode)
    c = taylor_mp(params, mode.kappa0, _seed(mode.omega0, fit))
    assert abs(complex(c[0]) - mode.omega0) <= 1e-12
    assert abs(c[1].imag) <= 1e-12
    assert abs(complex(-c[1]) - fit.slope) <= 1e-10
    assert abs(complex(-c[2]) - fit.curvature) <= 1e-12
