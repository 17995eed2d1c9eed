"""Tests for the kink background and the four local spinor solutions."""

import cmath
import functools
import math

import numpy as np
import pytest

from kinkdirac.errors import DegenerateGammaError, DomainError
from kinkdirac.oracle import integrate_u
from kinkdirac.scattering import match_coefficients, matched_u, wronskian
from kinkdirac.soliton import (
    Family,
    SolitonBackground,
    SpectralPoint,
    build_solution,
    eval_u,
    kink_profile,
    log_z,
    map_to_z,
    ratio_squared,
    v_from_u,
)


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
    SpectralPoint(E=sp.E / 5.0, k=0.5).check_dispersion()
    with pytest.raises(DomainError):
        SpectralPoint(E=1.0, k=0.5).check_dispersion()
    b = SpectralPoint.bound(0.8)
    assert b.k == pytest.approx(0.6j)
    b.check_dispersion()


# ---------------------------------------------------------------------------
# Coordinate maps, in y = Mx
# ---------------------------------------------------------------------------


def test_map_values_at_origin():
    assert map_to_z(Family.U1_FIRST, 0.0) == pytest.approx((1 + 1j) / 2)
    assert map_to_z(Family.U2_FIRST, 0.0) == pytest.approx((1 - 1j) / 2)


def test_map_limits():
    far = 5e3  # s = 2y = +1e4
    assert map_to_z(Family.U1_FIRST, far) == 0
    assert map_to_z(Family.U1_FIRST, -far) == 1
    assert map_to_z(Family.U2_FIRST, -far) == 0
    assert map_to_z(Family.U2_FIRST, far) == 1
    assert ratio_squared(far) == ratio_squared(-far) == 1
    # A y array across s = 0 out to |s| = 800, where e^{-|s|} underflows:
    # each element is the one-point call bit for bit.
    s = np.geomspace(1e-3, 800.0, 60)
    ys = np.concatenate([-s[::-1], [0.0], s]) / 2.0
    maps = [functools.partial(f, family) for f in (map_to_z, log_z) for family in Family]
    for f in maps + [ratio_squared]:
        batch = f(ys)
        one = [f(y) for y in ys.tolist()]
        assert all(type(v) is complex for v in one)
        assert batch.shape == ys.shape and batch.tolist() == one


def test_map_half_planes():
    for y in np.linspace(-10, 10, 41):
        assert map_to_z(Family.U1_FIRST, y).imag >= 0
        assert map_to_z(Family.U2_FIRST, y).imag <= 0


def _scalar_maps(s):
    """z1, z2, log z1, log z2 and the squared ratio at s = 2y, one branch pair
    per family on Python numbers: the reference for the array forms."""
    if s <= 0:
        z1, log1 = 1 / (1 - 1j * math.exp(s)), -cmath.log(1 - 1j * math.exp(s))
        z2, log2 = math.exp(s) / (math.exp(s) + 1j), s - 1j * math.pi / 2 - cmath.log(1 - 1j * math.exp(s))
        r = (math.exp(s) + 1j) / (math.exp(s) - 1j)
    else:
        z1, log1 = math.exp(-s) / (math.exp(-s) - 1j), -s + 1j * math.pi / 2 - cmath.log(1 + 1j * math.exp(-s))
        z2, log2 = 1 / (1 + 1j * math.exp(-s)), -cmath.log(1 + 1j * math.exp(-s))
        r = (1 + 1j * math.exp(-s)) / (1 - 1j * math.exp(-s))
    return z1, z2, log1, log2, r * r


def test_maps_equal_their_scalar_forms():
    # numpy's exp and complex division may round differently from Python's,
    # and ratio_squared is 1/(2 z2 - 1)^2 here: a few units in the last place.
    s = np.geomspace(1e-3, 800.0, 60)
    ys = np.concatenate([-s[::-1], [0.0], s]) / 2.0
    arrays = (map_to_z(Family.U1_FIRST, ys), map_to_z(Family.U2_FIRST, ys),
              log_z(Family.U1_FIRST, ys), log_z(Family.U2_FIRST, ys), ratio_squared(ys))
    for y, *values in zip(ys.tolist(), *arrays):
        for value, ref in zip(values, _scalar_maps(2.0 * y)):
            assert abs(value - ref) <= 8 * np.finfo(float).eps * abs(ref), (y, value, ref)


# ---------------------------------------------------------------------------
# Local solutions: parameters (E and k in units of M)
# ---------------------------------------------------------------------------


def test_u1_first_params(sp05):
    sol = build_solution(Family.U1_FIRST, sp05)
    p = sol.params
    E = sp05.E
    assert p.a == 0.5
    assert abs(p.q - 1j * (E + 0.5)) < 1e-15
    assert p.alpha == -1
    assert p.beta == 0
    assert abs(p.gamma - (1 - 0.5j)) < 1e-15
    assert abs(p.delta - (1 + 0.5j)) < 1e-15


def test_u2_first_gamma_conjugate_delta(sp05):
    sol = build_solution(Family.U2_FIRST, sp05)
    assert sol.params.gamma == sol.params.delta.conjugate()


def test_u2_second_shifted_q(sp05):
    sol = build_solution(Family.U2_SECOND, sp05)
    E, k = sp05.E, 0.5
    expected = -1j * (2 * E - k) / 2 - k * k / 2
    assert abs(sol.params.q - expected) < 1e-14
    assert abs(sol.z_power - (-0.5j)) < 1e-15  # -ik/M


def test_build_second_solution_rejects_k_zero():
    with pytest.raises(DegenerateGammaError):
        build_solution(Family.U2_SECOND, SpectralPoint(E=1.0, k=0.0))


# ---------------------------------------------------------------------------
# Local solutions: asymptotics and residuals
# ---------------------------------------------------------------------------


def _plane_wave_ratio(sol, y):
    u, _ = eval_u(sol, y)
    return u / cmath.exp(1j * sol.spectral.k * y)


def test_u1_first_transmitted_asymptotics(sp05):
    sol = build_solution(Family.U1_FIRST, sp05)
    assert abs(_plane_wave_ratio(sol, 15.0) - cmath.exp(math.pi * 0.5 / 4)) < 1e-10


def test_u2_first_incident_asymptotics(sp05):
    sol = build_solution(Family.U2_FIRST, sp05)
    assert abs(_plane_wave_ratio(sol, -15.0) - cmath.exp(-math.pi * 0.5 / 4)) < 1e-10


def test_u2_second_reflected_asymptotics(sp05):
    # The second U2 solution carries the e^{-iky} (reflected) wave with
    # amplitude e^{-3 pi k / 4} as y -> -inf.
    sol = build_solution(Family.U2_SECOND, sp05)
    y = -15.0
    u, _ = eval_u(sol, y)
    target = cmath.exp(-3 * math.pi * 0.5 / 4) * cmath.exp(-0.5j * y)
    assert abs(u - target) < 1e-10 * abs(target)


def test_antikink_asymptotics(bg5_anti):
    # The charge-conjugate image of the kink's u1 is the antikink's
    # transmitted wave e^{pi k/4K} e^{ikx}, on the side x -> -inf for K < 0.
    sp = SpectralPoint.scattering(bg5_anti, 2.5)
    data = match_coefficients(bg5_anti, sp)
    x = 30.0 / (2 * bg5_anti.K)
    u, _ = matched_u(data, x)
    ratio = u / cmath.exp(1j * 2.5 * x)
    assert abs(ratio - cmath.exp(math.pi * 2.5 / (4 * bg5_anti.K))) < 1e-10


def test_each_family_satisfies_u1x_equation(sp05):
    # Compare the analytic chain-rule evaluation against a direct integration
    # of the second-order equation in y (the oracle at M = 1) started from
    # eval_u data.
    unit = SolitonBackground(M=1.0, K=1.0)
    for family in (Family.U1_FIRST, Family.U2_FIRST, Family.U2_SECOND):
        sol = build_solution(family, sp05)
        sgn = 1.0 if family.is_u1 else -1.0
        y0, y1 = sgn * 0.5, sgn * 3.0
        u0, du0 = eval_u(sol, y0)
        _, u, du = integrate_u(unit, sp05, y0, y1, u0, du0, x_eval=[y0, y1],
                               rel_tol=1e-12, abs_tol=1e-14)
        u1, du1 = eval_u(sol, y1)
        assert abs(u[-1] - u1) <= 1e-9 * abs(u1)
        assert abs(du[-1] - du1) <= 1e-9 * abs(du1)


def test_u2_basis_wronskian_bounded_away_from_zero():
    for k in (0.1, 0.5, 1.0, 2.0, 5.0):
        sp = SpectralPoint(E=math.hypot(1.0, k), k=k)
        s2 = build_solution(Family.U2_FIRST, sp)
        s2b = build_solution(Family.U2_SECOND, sp)
        w = wronskian(eval_u(s2, 0.0), eval_u(s2b, 0.0))
        # Abel's identity gives |W| = 2k e^{-pi k} exactly (units of M); check
        # the bound and the closed form.
        closed_form = 2 * k * math.exp(-math.pi * k)
        assert abs(w) > 0.5 * closed_form
        assert abs(abs(w) - closed_form) < 1e-9 * abs(w)


# ---------------------------------------------------------------------------
# Lower component v
# ---------------------------------------------------------------------------


def test_v_forms_mutually_consistent(sp05):
    # The y-space form and the Heun-variable form (ratio^2 = 1/(4(z-1/2)^2))
    # must agree for both families.
    y = 1.5
    for family in (Family.U1_FIRST, Family.U2_FIRST, Family.U2_SECOND):
        sol = build_solution(family, sp05)
        u, du = eval_u(sol, y)
        vy = v_from_u(u, du, sp05, y)
        w = map_to_z(family, y) - 0.5
        vz = (1j / (4.0 * w * w)) * (sp05.E * u - 1j * du)
        assert abs(vy - vz) <= 1e-9 * abs(vy)


def test_v_asymptotic_ratio(sp05):
    # As y -> +inf the transmitted wave has v/u -> i(E + k) (units of M).
    sol = build_solution(Family.U1_FIRST, sp05)
    y = 15.0
    u, du = eval_u(sol, y)
    v = v_from_u(u, du, sp05, y)
    assert abs(v / u - 1j * (sp05.E + 0.5)) < 1e-10


def test_bound_continuation_v_decays():
    sp = SpectralPoint.bound(0.8)
    sol = build_solution(Family.U1_FIRST, sp)
    kappa = 0.6
    ys = [5.0, 7.5, 10.0]
    vs = [abs(v_from_u(*eval_u(sol, y), sp, y)) for y in ys]
    for (ya, va), (yb, vb) in zip(zip(ys, vs), zip(ys[1:], vs[1:])):
        expected = math.exp(-kappa * (yb - ya))
        assert vb / va == pytest.approx(expected, rel=1e-2)
