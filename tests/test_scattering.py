"""Tests for Wronskian matching, transmission/reflection, and phase shifts."""

import cmath
import math
import sys

import numpy as np
import pytest

from kinkdirac.errors import DegenerateBasisError, KinkDiracError
from kinkdirac.scattering import match_coefficients, matched_u, sweep, wronskian
from kinkdirac.soliton import (
    Family,
    SolitonBackground,
    SpectralPoint,
    build_solution,
    eval_u,
    ratio_squared,
    v_from_u,
)

# The unit mass: its SpectralPoint.scattering points are the core's (E/M, k/M).
UNIT = SolitonBackground(M=1.0, K=1.0)


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
    # Abel's identity applied to u'' - 4i sech(2y) u' + ... = 0 (units of M)
    # gives W(y) = W(-inf) exp(int 4i sech) with W(-inf) = -2ik e^{-pi k},
    # hence W(0) = -2ik e^{-pi k} e^{i pi} = 2ik e^{-pi k}, on both energy
    # branches.  It holds on the bound continuation k = i kappa too, where
    # c1_bound_indicator uses it; there the numerical W loses digits toward
    # E = 0, where u2_first degenerates.
    cases = [(SpectralPoint.scattering(UNIT, f, branch), 1e-10)
             for f in (1e-3, 0.1, 0.5, 1.4, 10.0) for branch in ("positive", "negative")]
    cases += [(SpectralPoint.bound(f), 1e-9) for f in (-0.95, -0.5, -0.1, 0.1, 0.5, 0.95)]
    for sp, rel in cases:
        s2 = build_solution(Family.U2_FIRST, sp)
        s2b = build_solution(Family.U2_SECOND, sp)
        w = wronskian(eval_u(s2, 0.0), eval_u(s2b, 0.0))
        expected = 2j * sp.k * cmath.exp(-math.pi * sp.k)
        assert abs(w - expected) < rel * abs(expected), (sp, w, expected)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def test_matching_reproduces_u1_at_matching_point(bg5, sp25):
    data = match_coefficients(bg5, sp25)
    sol1, sol2, sol2b = data.basis
    u1, du1 = eval_u(sol1, 0.0)
    u2, du2 = eval_u(sol2, 0.0)
    u2b, du2b = eval_u(sol2b, 0.0)
    assert abs(data.c1 * u2 + data.c2 * u2b - u1) <= 1e-10 * abs(u1)
    assert abs(data.c1 * du2 + data.c2 * du2b - du1) <= 1e-10 * abs(du1)


def test_matched_families_agree_on_extended_overlap(bg5, sp25):
    data = match_coefficients(bg5, sp25)
    sol1, sol2, sol2b = data.basis
    for y in np.linspace(-0.5, 0.5, 9):
        u1, _ = eval_u(sol1, y)
        u2, _ = eval_u(sol2, y)
        u2b, _ = eval_u(sol2b, y)
        assert abs(data.c1 * u2 + data.c2 * u2b - u1) <= 1e-6 * abs(u1)


def test_matching_point_invariance(bg5, bg5_anti, sp25):
    ref = match_coefficients(bg5, sp25, x0=0.0)
    x0s = np.array([-0.2, -0.1, 0.1, 0.2]) / bg5.K
    for x0 in x0s.tolist():
        data = match_coefficients(bg5, sp25, x0=x0)
        assert abs(data.c1 - ref.c1) <= 1e-6 * abs(ref.c1)
        assert abs(data.c2 - ref.c2) <= 1e-6 * abs(ref.c2)
    # An array of matching points at one (E, k) is one eval_u batch per local
    # solution, for the kink and for its image.
    for bg in (bg5, bg5_anti):
        batch = match_coefficients(bg, sp25, x0=x0s)
        for i, x0 in enumerate(x0s.tolist()):
            one = match_coefficients(bg, sp25, x0=x0)
            assert abs(batch.c1[i] - one.c1) <= 1e-10 * abs(one.c1)
            assert abs(batch.c2[i] - one.c2) <= 1e-10 * abs(one.c2)


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


@pytest.mark.parametrize("kk", [35.0, 45.0, 50.0])
def test_antikink_negative_branch_unitary_at_large_k(kk):
    # The antikink's negative branch is the image of the kink's positive
    # branch, so r keeps the kink's damping gauge factor e^{-pi k/2M}.
    for M in (1.0, 3.0):
        bg = SolitonBackground(M=M, K=-M)
        data = match_coefficients(bg, SpectralPoint.scattering(bg, kk * M, "negative"))
        assert abs(data.T + data.R - 1.0) <= 1e-10


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
    left, vleft = matched_u(data, -1e-9)
    right, vright = matched_u(data, 1e-9)
    assert abs(left - right) < 1e-6 * abs(left)
    assert abs(vleft - vright) < 1e-6 * abs(vleft)


def test_reflected_spinor_ratio(bg5, sp25):
    # Splitting the incident-side solution into e^{ikx} and e^{-ikx} parts,
    # the lower components satisfy
    # (v_ref / v_in) / (u_ref / u_in) -> (E - k) / (E + k) as x -> -inf.
    # In units of M, at y = Mx = -15.
    data = match_coefficients(bg5, sp25)
    _, sol2, sol2b = data.basis
    sp = sol2.spectral
    k, E, y = sp.k, sp.E, -15.0
    u_in, du_in = eval_u(sol2, y)
    u_rf, du_rf = eval_u(sol2b, y)
    v_in = v_from_u(u_in, du_in, sp, y)
    v_rf = v_from_u(u_rf, du_rf, sp, y)
    ratio = (data.c2 * v_rf / (data.c1 * v_in)) / (data.c2 * u_rf / (data.c1 * u_in))
    assert abs(ratio - (E - k) / (E + k)) < 1e-4
    # And each piece individually approaches its free-spinor ratio.
    assert abs(v_in / u_in - 1j * (E + k)) < 1e-4
    assert abs(v_rf / u_rf - 1j * (E - k)) < 1e-4


def test_matched_u_equals_components(bg5, sp25):
    # matched_u evaluates the basis match_coefficients kept, at y = Mx: u1 on
    # the transmitted side, c1 u2 + c2 u2b on the incident side, and v from
    # (u, du/dy).
    data = match_coefficients(bg5, sp25)
    sol1, sol2, sol2b = data.basis
    sp = sol1.spectral
    assert [s.family for s in data.basis] == [Family.U1_FIRST, Family.U2_FIRST, Family.U2_SECOND]
    assert matched_u(data, 0.4) == (eval_u(sol1, 2.0)[0], v_from_u(*eval_u(sol1, 2.0), sp, 2.0))
    (ua, dua), (ub, dub) = eval_u(sol2, -3.5), eval_u(sol2b, -3.5)
    u, v = matched_u(data, -0.7)
    assert u == data.c1 * ua + data.c2 * ub
    assert v == v_from_u(u, data.c1 * dua + data.c2 * dub, sp, -3.5) and abs(v) > 0


@pytest.mark.parametrize("K", [5.0, -5.0])
def test_matched_u_continuous_at_nonzero_matching_point(K):
    # Matched at x0 = 0.1/|K|, u and v agree across x0 once the smooth change
    # over 2 eps (u' and v' from the Dirac system, O(eps^2) left) is taken out:
    # u' = -i E u + M v / r2 and v' = i E v + M r2 u, with r2 = -e^{2i beta phi}
    # the kink's ratio_squared at Kx.
    bg = SolitonBackground(M=5.0, K=K)
    sp = SpectralPoint.scattering(bg, 2.5)
    x0, eps = 0.1 / abs(K), 1e-9
    data = match_coefficients(bg, sp, x0=x0)
    uL, vL = matched_u(data, x0 - eps)
    uR, vR = matched_u(data, x0 + eps)
    r2 = ratio_squared(K * (x0 - eps))
    duL = -1j * sp.E * uL + bg.M * vL / r2
    dvL = 1j * sp.E * vL + bg.M * r2 * uL
    assert abs(uR - (uL + 2 * eps * duL)) <= 1e-9 * abs(uR)
    assert abs(vR - (vL + 2 * eps * dvL)) <= 1e-9 * abs(vR)


# ---------------------------------------------------------------------------
# Phase-shift sweeps
# ---------------------------------------------------------------------------


def test_sweep_is_continuous(bg5):
    ks = np.geomspace(0.05, 50.0, 40)
    _, data = sweep(bg5, ks)
    jumps = np.abs(np.diff(data.delta))
    assert jumps.max() < math.pi / 2


def test_sweep_monotone_decreasing(bg5):
    ks = np.geomspace(0.05, 50.0, 40)
    _, data = sweep(bg5, ks)
    deltas = data.delta.tolist()
    assert all(b < a + 1e-12 for a, b in zip(deltas, deltas[1:]))


def test_sweep_high_k_limit(bg5):
    ks = np.geomspace(0.05, 200.0, 48)
    _, data = sweep(bg5, ks)
    # The phase shift vanishes at high momentum.
    assert abs(data.delta[-1]) < 0.05


@pytest.mark.parametrize("K", [5.0, -5.0])
def test_sweep_rejects_a_phase_beyond_three_quarters_pi(K, monkeypatch):
    # Levinson's theorem keeps |delta| <= pi/2 on both branches; a match that
    # returns delta = pi somewhere has lost c1's phase, and the sweep names
    # the stage and the first such k/M.
    import dataclasses

    from kinkdirac import scattering

    bg = SolitonBackground(M=5.0, K=K)
    match = scattering._match

    def at_pi(sp, y0):  # the kink's match, in units of M
        data = match(sp, y0)
        return dataclasses.replace(data, delta=np.where(sp.k.real > 2.0, math.pi, data.delta))

    monkeypatch.setattr(scattering, "_match", at_pi)
    with pytest.raises(KinkDiracError, match=r"^sweep: \|delta\| = 3\.14 exceeds 3 pi/4 at "
                                             r"k/M = 4 \(M = 5\.0\)"):
        sweep(bg, [1.0, 20.0, 5.0, 40.0])
    assert sweep(bg, [1.0, 5.0, 10.0])[0] == [1.0, 5.0, 10.0]


@pytest.mark.parametrize("K", [5.0, -5.0])
def test_both_branch_sweep_equals_one_branch_sweeps(K):
    # With a tuple of branches, one batch holds every branch's rows, branch
    # after branch, each row bit for bit the row of its one-branch sweep.
    from kinkdirac.scattering import log_grid

    bg = SolitonBackground(M=5.0, K=K)
    ks = log_grid(5e-3, 100.0, 48) + [1e-2, 2e-2]
    branches = ("positive", "negative")
    grid, data = sweep(bg, ks, branches)
    n = len(grid)
    for i, branch in enumerate(branches):
        one_grid, one = sweep(bg, ks, branch)
        assert one_grid == grid
        for name in ("c1", "c2", "t", "r", "delta"):
            assert np.array_equal(getattr(data, name)[i * n:(i + 1) * n], getattr(one, name)), name


@pytest.mark.parametrize("K", [5.0, -5.0])
def test_sweep_builds_no_per_row_objects(K, monkeypatch):
    # A sweep is one batch from match to output: the number of Heun parameter
    # sets it builds does not grow with the number of momenta.
    from kinkdirac import heun

    bg = SolitonBackground(M=5.0, K=K)
    built = []
    init = heun.HeunParams.__post_init__
    monkeypatch.setattr(heun.HeunParams, "__post_init__", lambda p: built.append(p) or init(p))
    counts = []
    for n in (16, 256):
        built.clear()
        ks, data = sweep(bg, np.geomspace(5e-3, 250.0, n))
        assert len(ks) == data.c1.size == n
        counts.append(len(built))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("M", [1.0, 5.0])
@pytest.mark.parametrize("branch", ["positive", "negative"])
def test_batched_match_equals_per_family_evaluation(M, branch, monkeypatch):
    # A batched match evaluates its three local solutions as one Heun batch
    # at z2(0) (u1_first through its conjugate set).  Against one batch per
    # family it is the same bit for bit, up to k = 50 M.
    from kinkdirac import scattering
    from kinkdirac.scattering import _match, log_grid

    bg = SolitonBackground(M=M, K=M)
    ks = np.array(log_grid(1e-3 * M, 50.0 * M, 256))
    sp = SpectralPoint.scattering(bg, ks, branch)
    sp = SpectralPoint(E=sp.E / M, k=ks / M)
    joint = _match(sp, 0.0)
    monkeypatch.setattr(scattering, "eval_u_at_origin", lambda *sols: [eval_u(s, 0.0) for s in sols])
    alone = _match(sp, 0.0)
    for name in ("c1", "c2", "t", "r", "delta"):
        assert np.array_equal(getattr(joint, name), getattr(alone, name)), name
    assert np.max(abs(abs(joint.t) ** 2 + abs(joint.r) ** 2 - 1.0)) <= 1e-8


@pytest.mark.parametrize("M", [1.0, 5.0])
@pytest.mark.parametrize("branch", ["positive", "negative"])
def test_batched_match_agrees_with_one_point_match(M, branch):
    # A batch runs its Taylor steps in blocks of terms, one point on Python
    # numbers, with different rounding: over the default sweep grid they
    # agree to rounding, which term growth amplifies above k/M = 30.
    from kinkdirac.scattering import log_grid

    bg = SolitonBackground(M=M, K=M)
    ks = log_grid(1e-3 * M, 50.0 * M, 64)
    batch = sweep(bg, ks, branch)[1]
    for i, k in enumerate(ks):
        one = match_coefficients(bg, SpectralPoint.scattering(bg, k, branch))
        bound = 1e-11 if k < 30.0 * M else 1e-8
        assert abs(batch.c1[i] - one.c1) <= bound * abs(one.c1), k
        assert abs(batch.T[i] - one.T) <= bound, k
        assert abs(math.remainder(batch.delta[i] - one.delta, 2 * math.pi)) <= bound, k


@pytest.mark.parametrize("branch", ["positive", "negative"])
def test_match_element_alone_equals_its_batch_value(branch):
    # An element that stops adding series terms zeroes its own new
    # coefficients, a Taylor step takes its partial sum at its own stopping
    # term, and the shared powers z^n and t^m are computed alike for every
    # width, so no element's rounding depends on when its batch mates stop.
    from kinkdirac.scattering import _match, log_grid

    sp = SpectralPoint.scattering(UNIT, np.array(log_grid(1e-3, 50.0, 256)), branch)
    batch = _match(sp, 0.0)
    for i in range(sp.k.size):
        one = _match(SpectralPoint(E=sp.E[i:i + 1], k=sp.k[i:i + 1]), 0.0)
        assert one.c1[0] == batch.c1[i] and one.c2[0] == batch.c2[i], sp.k[i]


@pytest.mark.parametrize("j", [-1000, -20, 0, 3, 1000])
def test_mass_is_a_unit(j):
    # The core solves in units of M, and M = 2^j scales exactly, so every
    # dimensionless output at M = 2^j is the M = 1 output bit for bit, out to
    # M = 2^+-1000, where M^2 would under- or overflow: sweeps and one-point
    # matches on both signs and both branches, and E_n/M and kappa/M.  Only a
    # level whose E_n is below the smallest normal double (the zero mode at
    # M = 2^-1000) keeps fewer bits.
    from kinkdirac.scattering import log_grid
    from kinkdirac.spectrum import find_bound_states

    M = math.ldexp(1.0, j)
    ks = log_grid(1e-3, 50.0, 16)
    names = ("c1", "c2", "t", "r", "delta")
    for sign in (1.0, -1.0):
        bg, unit = SolitonBackground(M=M, K=sign * M), SolitonBackground(M=1.0, K=sign)
        for branch in ("positive", "negative"):
            scaled, ref = sweep(bg, [M * k for k in ks], branch)[1], sweep(unit, ks, branch)[1]
            for name in names:
                assert np.array_equal(getattr(scaled, name), getattr(ref, name)), (sign, branch, name)
            for k in (0.3, 2.0, 8.0):
                one = match_coefficients(bg, SpectralPoint.scattering(bg, M * k, branch))
                ref = match_coefficients(unit, SpectralPoint.scattering(unit, k, branch))
                assert [getattr(one, n) for n in names] == [getattr(ref, n) for n in names]
        levels, ref = find_bound_states(bg), find_bound_states(unit)
        assert [(b.kappa / M, b.residual) for b in levels] == [(b.kappa, b.residual) for b in ref]
        for b, b_ref in zip(levels, ref):
            if abs(b.E_n) >= sys.float_info.min:
                assert b.E_n / M == b_ref.E_n
            else:
                assert abs(b.E_n / M - b_ref.E_n) <= math.ldexp(1.0, -1074) / M
