"""The summation identities on random fields, and on the solver's operators."""

import numpy as np
import pytest
import scipy.sparse as sp

from latres import discrete
from latres.discrete import (divergence_theorem_residual,
                             green_identity_field, green_identity_residual,
                             identity_residuals, product_rule_residuals,
                             summation_by_parts_1d_residual,
                             telescoping_residual, waveguide_green_residual)
from latres.scattering import IncidentField, solve_scattering
from latres.structure import (BlochPoint, StructureParams, classify_harmonics,
                              strip_operator, waveguide_band_matrix)


def _rand2(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_product_rules_random(rng):
    for _ in range(100):
        v = _rand2(rng, 11)
        w = _rand2(rng, 11)
        res = product_rule_residuals(v, w)
        assert max(res.values()) < 1e-12


def test_telescoping_and_sbp_random(rng):
    for _ in range(100):
        v = _rand2(rng, 13)
        w = _rand2(rng, 13)
        assert telescoping_residual(v) < 1e-12
        assert summation_by_parts_1d_residual(v, w) < 1e-12


def test_divergence_and_green_random(rng):
    for _ in range(100):
        f1 = _rand2(rng, (6, 7))
        f2 = _rand2(rng, (6, 7))
        assert divergence_theorem_residual(f1, f2) < 1e-12
        assert green_identity_residual(f1, f2) < 1e-12


def test_waveguide_green_random(rng):
    for _ in range(50):
        z = _rand2(rng, 9)
        masses = rng.uniform(0.5, 3.0, 9)
        springs = rng.uniform(0.5, 3.0, 9)
        assert waveguide_green_residual(z, masses, springs) < 1e-12
    with pytest.raises(ValueError):
        waveguide_green_residual(z[:2], masses[:2], springs[:2])


def test_identity_bundle(rng):
    v = _rand2(rng, (8, 8))
    w = _rand2(rng, (8, 8))
    res = identity_residuals(v, w)
    assert set(res) == {"summation_by_parts_1d", "divergence_theorem",
                        "green_identity", "waveguide_green"}
    assert max(res.values()) < 1e-12


def test_scaled_band_diagonal_fails_chain_identity(rng, monkeypatch):
    def scaled(params, kappa):
        B = waveguide_band_matrix(params, kappa)
        return B + 0.1 * np.diag(np.diag(B))

    z = _rand2(rng, 9)
    masses = rng.uniform(0.5, 3.0, 9)
    springs = rng.uniform(0.5, 3.0, 9)
    assert waveguide_green_residual(z, masses, springs) < 1e-12
    monkeypatch.setattr(discrete, "waveguide_band_matrix", scaled)
    assert waveguide_green_residual(z, masses, springs) > 1e-12


def test_wrong_lattice_diagonal_fails_green_identity(rng, monkeypatch):
    def shifted(params, kappa, mx):
        H = strip_operator(params, kappa, mx)
        lattice = np.r_[np.zeros(params.N), np.ones(H.shape[0] - params.N)]
        return H + 1e-3 * sp.diags(lattice)

    v = _rand2(rng, (7, 6))
    u = _rand2(rng, (7, 6))
    assert green_identity_residual(v, u) < 1e-12
    monkeypatch.setattr(discrete, "strip_operator", shifted)
    assert green_identity_residual(v, u) > 1e-12


def _random_solution(rng, N):
    """A scattering solution on a random structure with complex couplings.

    Random left incidence on the propagating orders, at a point off every
    threshold with kappa away from 0 and 1/2, where the Bloch twist and its
    inverse differ.
    """
    params = StructureParams(N, rng.uniform(0.5, 2.0, N),
                             rng.uniform(0.5, 2.0, N),
                             _rand2(rng, N))
    while True:
        point = BlochPoint(rng.uniform(0.05, 0.45), rng.uniform(0.05, 7.95))
        hs = classify_harmonics(params, point)
        if hs.propagating and not hs.has_threshold:
            break
    a = np.zeros(N, dtype=complex)
    a[list(hs.propagating)] = _rand2(rng, len(hs.propagating))
    return solve_scattering(params, point,
                            IncidentField(a, np.zeros(N, dtype=complex)))


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
def test_green_identity_field_on_solutions(rng, N):
    for _ in range(3):
        assert green_identity_field(_random_solution(rng, N), 6) < 1e-12


@pytest.mark.parametrize("N", [2, 3, 8])
def test_flipped_twist_fails_green_identity_field(rng, N, monkeypatch):
    sols = [_random_solution(rng, N) for _ in range(3)]
    assert max(green_identity_field(sol, 6) for sol in sols) < 1e-12
    monkeypatch.setattr(discrete, "strip_operator",
                        lambda params, kappa, mx:
                        strip_operator(params, -kappa, mx))
    assert min(green_identity_field(sol, 6) for sol in sols) > 1e-12
