"""Tests for Wronskian matching, transmission/reflection, and phase shifts."""

import cmath
import math

import numpy as np
import pytest

from kinkdirac import (
    DegenerateBasisError,
    Family,
    KinkDiracError,
    SolitonBackground,
    SpectralPoint,
    build_solution,
    eval_u,
    match_coefficients,
    matched_u,
    unwrap_sweep,
    v_from_u,
    wronskian,
)


# ---------------------------------------------------------------------------
# Wronskian basics
# ---------------------------------------------------------------------------


def test_wronskian_of_identical_pair_is_zero():
    assert wronskian((1.3 + 0.2j, 0.7j), (1.3 + 0.2j, 0.7j)) == 0


def test_wronskian_of_plane_waves():
    # W(e^{ikx}, e^{-ikx}) = -2ik, independent of x.
    k = 1.7
    for x in (0.0, 0.4, -1.1):
        f = (cmath.exp(1j * k * x), 1j * k * cmath.exp(1j * k * x))
        g = (cmath.exp(-1j * k * x), -1j * k * cmath.exp(-1j * k * x))
        assert abs(wronskian(f, g) - (-2j * k)) < 1e-14


def test_basis_wronskian_matches_abel_closed_form():
    # Abel's identity applied to u'' - 4iK sech(2Kx) u' + ... = 0 gives
    # W(x) = W(-inf) exp(int 4iK sech) with W(-inf) = -2ik e^{-pi k/K},
    # hence W(0) = -2ik e^{-pi k/K} e^{i pi} = 2ik e^{-pi k/K}.  It holds on
    # the bound continuation k = i kappa too, where c1_bound_indicator uses
    # it; there the numerical W loses digits toward E = 0, where u2_first
    # degenerates.
    for K in (5.0, -5.0):
        bg = SolitonBackground(M=5.0, K=K)
        cases = [(SpectralPoint.scattering(bg, f * bg.M), 1e-10)
                 for f in (1e-3, 0.1, 0.5, 1.4, 10.0)]
        cases += [(SpectralPoint.bound(bg, f * bg.M), 1e-9)
                  for f in (-0.95, -0.5, -0.1, 0.1, 0.5, 0.95)]
        for sp, rel in cases:
            s2 = build_solution(Family.U2_FIRST, bg, sp)
            s2b = build_solution(Family.U2_SECOND, bg, sp)
            w = wronskian(eval_u(s2, 0.0), eval_u(s2b, 0.0))
            expected = 2j * sp.k * cmath.exp(-math.pi * sp.k / bg.K)
            assert abs(w - expected) < rel * abs(expected), (sp, w, expected)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def test_matching_reproduces_u1_at_matching_point(bg5, sp25):
    data = match_coefficients(bg5, sp25)
    sol1 = build_solution(Family.U1_FIRST, bg5, sp25)
    sol2 = build_solution(Family.U2_FIRST, bg5, sp25)
    sol2b = build_solution(Family.U2_SECOND, bg5, sp25)
    u1, du1 = eval_u(sol1, 0.0)
    u2, du2 = eval_u(sol2, 0.0)
    u2b, du2b = eval_u(sol2b, 0.0)
    assert abs(data.c1 * u2 + data.c2 * u2b - u1) <= 1e-10 * abs(u1)
    assert abs(data.c1 * du2 + data.c2 * du2b - du1) <= 1e-10 * abs(du1)


def test_matched_families_agree_on_extended_overlap(bg5, sp25):
    data = match_coefficients(bg5, sp25)
    sol1 = build_solution(Family.U1_FIRST, bg5, sp25)
    sol2 = build_solution(Family.U2_FIRST, bg5, sp25)
    sol2b = build_solution(Family.U2_SECOND, bg5, sp25)
    for x in np.linspace(-0.1, 0.1, 9):
        u1, _ = eval_u(sol1, x)
        u2, _ = eval_u(sol2, x)
        u2b, _ = eval_u(sol2b, x)
        assert abs(data.c1 * u2 + data.c2 * u2b - u1) <= 1e-6 * abs(u1)


def test_matching_point_invariance(bg5, sp25):
    ref = match_coefficients(bg5, sp25, x0=0.0)
    for x0 in (-0.2, -0.1, 0.1, 0.2):
        data = match_coefficients(bg5, sp25, x0=x0 / bg5.K)
        assert abs(data.c1 - ref.c1) <= 1e-6 * abs(ref.c1)
        assert abs(data.c2 - ref.c2) <= 1e-6 * abs(ref.c2)


def test_reference_point_coefficients(bg5, sp25):
    # Values cross-checked against direct numerical integration of the
    # governing equation (see test_oracle.py for the independent pipeline).
    data = match_coefficients(bg5, sp25)
    assert abs(data.c1 - (1.218763720154363 - 1.980574563923863j)) < 1e-10
    assert abs(data.c2 - 2.743348165882686j) < 1e-9


def test_unitarity_over_k_values(bg5):
    for k in (0.5, 1.0, 2.5, 5.0, 10.0):
        sp = SpectralPoint.scattering(bg5, k)
        data = match_coefficients(bg5, sp)
        assert abs(data.T + data.R - 1.0) < 1e-10


def test_transmission_grows_with_k(bg5):
    Ts = []
    for k in (0.5, 1.0, 2.5, 5.0, 10.0):
        sp = SpectralPoint.scattering(bg5, k)
        Ts.append(match_coefficients(bg5, sp).T)
    assert all(b > a for a, b in zip(Ts, Ts[1:]))
    assert Ts[-1] > 0.99


def test_phase_shift_definition(bg5, sp25):
    data = match_coefficients(bg5, sp25)
    assert data.delta == pytest.approx(-cmath.phase(data.c1), abs=1e-15)


def test_tiny_k_raises(bg5):
    sp = SpectralPoint.scattering(bg5, 1e-18)
    with pytest.raises(KinkDiracError):
        match_coefficients(bg5, sp)


def test_degenerate_basis_message_names_threshold_used(bg5):
    sp = SpectralPoint.scattering(bg5, 1e-11)
    with pytest.raises(DegenerateBasisError, match="below 1e-10 of the solution scale"):
        match_coefficients(bg5, sp)


# ---------------------------------------------------------------------------
# Matched wavefunction and spinor asymptotics
# ---------------------------------------------------------------------------


def test_matched_u_continuous_at_origin(bg5, sp25):
    data = match_coefficients(bg5, sp25)
    left, dleft = matched_u(data, -1e-9)
    right, dright = matched_u(data, 1e-9)
    assert abs(left - right) < 1e-6 * abs(left)
    assert abs(dleft - dright) < 1e-6 * abs(dleft)


def test_reflected_spinor_ratio(bg5, sp25):
    # Splitting the incident-side solution into e^{ikx} and e^{-ikx} parts,
    # the lower components satisfy
    # (v_ref / v_in) / (u_ref / u_in) -> (E - k) / (E + k) as x -> -inf.
    k, E = 2.5, sp25.E
    s = -30.0
    x = s / (2 * bg5.K)
    data = match_coefficients(bg5, sp25)
    sol2 = build_solution(Family.U2_FIRST, bg5, sp25)
    sol2b = build_solution(Family.U2_SECOND, bg5, sp25)
    u_in, du_in = eval_u(sol2, x)
    u_rf, du_rf = eval_u(sol2b, x)
    v_in = v_from_u(u_in, du_in, bg5, sp25, x)
    v_rf = v_from_u(u_rf, du_rf, bg5, sp25, x)
    ratio = (data.c2 * v_rf / (data.c1 * v_in)) / (data.c2 * u_rf / (data.c1 * u_in))
    assert abs(ratio - (E - k) / (E + k)) < 1e-4
    # And each piece individually approaches its free-spinor ratio.
    assert abs(v_in / u_in - 1j * (E + k) / bg5.M) < 1e-4
    assert abs(v_rf / u_rf - 1j * (E - k) / bg5.M) < 1e-4


def test_matched_u_equals_components(bg5, sp25):
    # matched_u evaluates the basis match_coefficients kept: u1 on the
    # transmitted side, c1 u2 + c2 u2b on the incident side.
    data = match_coefficients(bg5, sp25)
    sol1, sol2, sol2b = data.basis
    assert [s.family for s in data.basis] == [Family.U1_FIRST, Family.U2_FIRST, Family.U2_SECOND]
    assert matched_u(data, 0.4) == eval_u(sol1, 0.4)
    (ua, dua), (ub, dub) = eval_u(sol2, -0.7), eval_u(sol2b, -0.7)
    u, du = matched_u(data, -0.7)
    assert u == data.c1 * ua + data.c2 * ub and du == data.c1 * dua + data.c2 * dub
    assert abs(v_from_u(u, du, bg5, sp25, -0.7)) > 0


@pytest.mark.parametrize("K", [5.0, -5.0])
def test_matched_u_continuous_at_nonzero_matching_point(K):
    # Matched at x0 = 0.1/|K|, u and u' agree across x0 once the smooth change
    # over 2 eps (u' and u'' from the governing equation, O(eps^2) left) is
    # taken out.
    bg = SolitonBackground(M=5.0, K=K)
    sp = SpectralPoint.scattering(bg, 2.5)
    x0, eps = 0.1 / abs(K), 1e-9
    data = match_coefficients(bg, sp, x0=x0)
    uL, duL = matched_u(data, x0 - eps)
    uR, duR = matched_u(data, x0 + eps)
    sech = 1.0 / math.cosh(2.0 * K * (x0 - eps))
    dduL = 4j * K * sech * duL - (sp.E ** 2 - bg.M ** 2 + 4.0 * sp.E * K * sech) * uL
    assert abs(uR - (uL + 2 * eps * duL)) <= 1e-9 * abs(uR)
    assert abs(duR - (duL + 2 * eps * dduL)) <= 1e-9 * abs(duR)


# ---------------------------------------------------------------------------
# Phase-shift sweeps
# ---------------------------------------------------------------------------


def test_unwrap_sweep_is_continuous(bg5):
    ks = np.geomspace(0.05, 50.0, 40)
    _, deltas, _ = unwrap_sweep(bg5, ks)
    jumps = np.abs(np.diff(deltas))
    assert jumps.max() < math.pi / 2


def test_unwrap_sweep_monotone_decreasing(bg5):
    ks = np.geomspace(0.05, 50.0, 40)
    _, deltas, _ = unwrap_sweep(bg5, ks)
    assert all(b < a + 1e-12 for a, b in zip(deltas, deltas[1:]))


def test_unwrap_sweep_high_k_limit(bg5):
    ks = np.geomspace(0.05, 200.0, 48)
    _, deltas, _ = unwrap_sweep(bg5, ks)
    # Phase shift vanishes at high momentum (branch is anchored there).
    assert abs(deltas[-1]) < 0.05
