"""The mode numbers against K written in mpmath (`oracles.taylor_mp`).

Every frozen mode value elsewhere in the suite was computed by the program
itself; here omega_gm is a root of det K at 30 digits and its Taylor
coefficients come from a Cauchy circle of radius 1e-2 with 16 points, whose
aliasing error (r / R)^16 is far below the gates (the nearest threshold of
fixture 1 lies about 0.25 away in kappa).  The gates were set before the
tests first ran:

- fixture 1 at the program's kappa0: slope within 1e-10, curvature within
  1e-8 (the degree-5 fit of 21 samples is off by about 5e-9), omega0 within
  1e-12, and the root of h = Im c1, one Newton step from the program's
  kappa0, within 1e-12 of it;
- the 30-digit kappa0 and omega0 = 47/48 quoted for criterion 01
  (`test_acceptance.py`) within 1e-20;
- `find_bifurcation`'s gamma0* within 1e-10 of the root of Im c2 at
  kappa = 0, from a secant through gamma0 = GAMMA0_STAR -+ 1e-9
  (`bif_params`).
"""

import pytest

from latres.resonance import find_bifurcation
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
    assert abs(complex(-c[2]) - fit1.curvature) <= 1e-8
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
    assert abs(find_bifurcation(fixture1, (0.8, 1.3))[0] - g_star) <= 1e-10
