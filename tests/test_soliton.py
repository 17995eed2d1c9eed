"""Tests for the kink background and the four local spinor solutions."""

import cmath
import math

import numpy as np
import pytest

from kinkdirac import (
    DegenerateGammaError,
    DomainError,
    Family,
    SolitonBackground,
    SpectralPoint,
    build_solution,
    eval_u,
    kink_profile,
    map_to_z,
    topological_charge,
    v_from_u,
    wronskian,
)
from kinkdirac.oracle import IntegrationConfig, integrate_u


# ---------------------------------------------------------------------------
# Background
# ---------------------------------------------------------------------------


def test_profile_at_origin():
    bg = SolitonBackground(M=1.5, K=1.5, beta=1.0)
    assert kink_profile(bg, 0.0) == pytest.approx(-math.pi / 2, abs=1e-15)


def test_profile_limits_and_monotonicity():
    bg = SolitonBackground(M=1.5, K=1.5, beta=1.0)
    assert kink_profile(bg, -1e3) == pytest.approx(0.0, abs=1e-12)
    assert kink_profile(bg, 1e3) == pytest.approx(-math.pi, abs=1e-12)
    xs = np.linspace(-3, 3, 101)
    phis = [kink_profile(bg, x) for x in xs]
    assert all(b < a for a, b in zip(phis, phis[1:]))


def test_topological_charges_are_half_integral():
    kink = SolitonBackground(M=1.5, K=1.5, beta=1.0)
    anti = SolitonBackground(M=1.5, K=-1.5, beta=1.0)
    assert topological_charge(kink) == pytest.approx(-0.5, abs=1e-12)
    assert topological_charge(anti) == pytest.approx(0.5, abs=1e-12)


def test_background_validation():
    with pytest.raises(DomainError):
        SolitonBackground(M=-1.0, K=1.0, beta=1.0)
    with pytest.raises(DomainError):
        SolitonBackground(M=1.0, K=2.0, beta=1.0)
    with pytest.raises(DomainError):
        SolitonBackground(M=1.0, K=1.0, beta=0.0)


def test_dispersion_enforced(bg5):
    sp = SpectralPoint.scattering(bg5, 2.5)
    assert sp.E == pytest.approx(math.sqrt(31.25), rel=1e-15)
    sp.check_dispersion(bg5)
    with pytest.raises(DomainError):
        SpectralPoint(E=5.0, k=2.5).check_dispersion(bg5)
    b = SpectralPoint.bound(bg5, 4.0)
    assert b.k == pytest.approx(3j)
    b.check_dispersion(bg5)


# ---------------------------------------------------------------------------
# Coordinate maps
# ---------------------------------------------------------------------------


def test_map_values_at_origin(bg5):
    assert map_to_z(Family.U1_FIRST, bg5, 0.0) == pytest.approx((1 + 1j) / 2)
    assert map_to_z(Family.U2_FIRST, bg5, 0.0) == pytest.approx((1 - 1j) / 2)


def test_map_limits(bg5):
    assert map_to_z(Family.U1_FIRST, bg5, 1e3) == 0
    assert map_to_z(Family.U1_FIRST, bg5, -1e3) == 1
    assert map_to_z(Family.U2_FIRST, bg5, -1e3) == 0
    assert map_to_z(Family.U2_FIRST, bg5, 1e3) == 1


def test_map_half_planes(bg5):
    for x in np.linspace(-2, 2, 41):
        assert map_to_z(Family.U1_FIRST, bg5, x).imag >= 0
        assert map_to_z(Family.U2_FIRST, bg5, x).imag <= 0


# ---------------------------------------------------------------------------
# Local solutions: parameters
# ---------------------------------------------------------------------------


def test_u1_first_params(bg5, sp25):
    sol = build_solution(Family.U1_FIRST, bg5, sp25)
    p = sol.params
    E = sp25.E
    assert p.a == 0.5
    assert abs(p.q - 1j * (E + 2.5) / 5.0) < 1e-15
    assert p.alpha == -1
    assert p.beta == 0
    assert abs(p.gamma - (1 - 0.5j)) < 1e-15
    assert abs(p.delta - (1 + 0.5j)) < 1e-15


def test_u2_first_gamma_conjugate_delta(bg5, sp25):
    sol = build_solution(Family.U2_FIRST, bg5, sp25)
    assert sol.params.gamma == sol.params.delta.conjugate()


def test_u2_second_shifted_q(bg5, sp25):
    sol = build_solution(Family.U2_SECOND, bg5, sp25)
    E, k, K = sp25.E, 2.5, 5.0
    expected = -1j * (2 * E - k) / (2 * K) - k * k / (2 * K * K)
    assert abs(sol.params.q - expected) < 1e-14
    assert abs(sol.z_power - (-0.5j)) < 1e-15  # -ik/K


def test_build_second_solution_rejects_k_zero(bg5):
    sp = SpectralPoint.scattering(bg5, 0.0)
    with pytest.raises(DegenerateGammaError):
        build_solution(Family.U2_SECOND, bg5, sp)


# ---------------------------------------------------------------------------
# Local solutions: asymptotics and residuals
# ---------------------------------------------------------------------------


def _plane_wave_ratio(sol, x):
    u, _ = eval_u(sol, x)
    return u / cmath.exp(1j * sol.spectral.k * x)


def test_u1_first_transmitted_asymptotics(bg5, sp25):
    sol = build_solution(Family.U1_FIRST, bg5, sp25)
    x = 30.0 / (2 * bg5.K)
    assert abs(_plane_wave_ratio(sol, x) - cmath.exp(math.pi * 2.5 / 20)) < 1e-10


def test_u2_first_incident_asymptotics(bg5, sp25):
    sol = build_solution(Family.U2_FIRST, bg5, sp25)
    x = -30.0 / (2 * bg5.K)
    assert abs(_plane_wave_ratio(sol, x) - cmath.exp(-math.pi * 2.5 / 20)) < 1e-10


def test_u2_second_reflected_asymptotics(bg5, sp25):
    # The second U2 solution carries the e^{-ikx} (reflected) wave with
    # amplitude e^{-3 pi k / 4K} as x -> -inf.
    sol = build_solution(Family.U2_SECOND, bg5, sp25)
    x = -30.0 / (2 * bg5.K)
    u, _ = eval_u(sol, x)
    target = cmath.exp(-3 * math.pi * 2.5 / 20) * cmath.exp(-1j * 2.5 * x)
    assert abs(u - target) < 1e-10 * abs(target)


def test_antikink_asymptotics(bg5_anti):
    sp = SpectralPoint.scattering(bg5_anti, 2.5)
    sol = build_solution(Family.U1_FIRST, bg5_anti, sp)
    x = 30.0 / (2 * bg5_anti.K)  # transmitted side is x -> -inf for K < 0
    assert abs(_plane_wave_ratio(sol, x) - cmath.exp(math.pi * 2.5 / (4 * bg5_anti.K))) < 1e-10


def test_each_family_satisfies_u1x_equation(bg5, sp25):
    # Compare the analytic chain-rule evaluation against a direct x-space
    # integration of the second-order equation started from eval_u data.
    for family in (Family.U1_FIRST, Family.U2_FIRST, Family.U2_SECOND):
        sol = build_solution(family, bg5, sp25)
        sgn = 1.0 if family.is_u1 else -1.0
        x0, x1 = sgn * 0.1, sgn * 0.6
        u0, du0 = eval_u(sol, x0)
        cfg = IntegrationConfig(x_start=x0, x_end=x1, rel_tol=1e-12, abs_tol=1e-14)
        traj = integrate_u(bg5, sp25, cfg, u0, du0, x_eval=[x0, x1])
        u1, du1 = eval_u(sol, x1)
        assert abs(traj.u[-1] - u1) <= 1e-9 * abs(u1)
        assert abs(traj.du[-1] - du1) <= 1e-9 * abs(du1)


def test_u2_basis_wronskian_bounded_away_from_zero(bg5):
    for kk in (0.1, 0.5, 1.0, 2.0, 5.0):
        sp = SpectralPoint.scattering(bg5, kk * bg5.K)
        s2 = build_solution(Family.U2_FIRST, bg5, sp)
        s2b = build_solution(Family.U2_SECOND, bg5, sp)
        w = wronskian(eval_u(s2, 0.0), eval_u(s2b, 0.0))
        # Abel's identity gives |W| = 2k e^{-pi k/K} exactly; check the bound
        # and the closed form.
        k = kk * bg5.K
        closed_form = 2 * k * math.exp(-math.pi * k / bg5.K)
        assert abs(w) > 0.5 * closed_form
        assert abs(abs(w) - closed_form) < 1e-9 * abs(w)


# ---------------------------------------------------------------------------
# Lower component v
# ---------------------------------------------------------------------------


def test_v_forms_mutually_consistent(bg5, sp25):
    # The x-space form and the Heun-variable form (ratio^2 = 1/(4(z-1/2)^2))
    # must agree for both families.
    x = 0.3
    for family in (Family.U1_FIRST, Family.U2_FIRST, Family.U2_SECOND):
        sol = build_solution(family, bg5, sp25)
        u, du = eval_u(sol, x)
        vx = v_from_u(u, du, bg5, sp25, x)
        w = map_to_z(family, bg5, x) - 0.5
        vz = (1j / (4.0 * bg5.M * w * w)) * (sp25.E * u - 1j * du)
        assert abs(vx - vz) <= 1e-9 * abs(vx)


def test_v_asymptotic_ratio(bg5, sp25):
    # As x -> +inf the transmitted wave has v/u -> i(E + k)/M.
    sol = build_solution(Family.U1_FIRST, bg5, sp25)
    x = 30.0 / (2 * bg5.K)
    u, du = eval_u(sol, x)
    v = v_from_u(u, du, bg5, sp25, x)
    assert abs(v / u - 1j * (sp25.E + 2.5) / bg5.M) < 1e-10


def test_bound_continuation_v_decays(bg5):
    sp = SpectralPoint.bound(bg5, 4.0)
    sol = build_solution(Family.U1_FIRST, bg5, sp)
    kappa = 3.0
    xs = [1.0, 1.5, 2.0]
    vs = [abs(v_from_u(*eval_u(sol, x), bg5, sp, x)) for x in xs]
    for (xa, va), (xb, vb) in zip(zip(xs, vs), zip(xs[1:], vs[1:])):
        expected = math.exp(-kappa * (xb - xa))
        assert vb / va == pytest.approx(expected, rel=1e-2)
