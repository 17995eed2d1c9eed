"""Tests for bound-state search and the Levinson sum rule."""

import cmath
import math

import numpy as np
import pytest

from kinkdirac import spectrum
from kinkdirac.errors import KinkDiracError
from kinkdirac.scattering import match_coefficients
from kinkdirac.soliton import Family, SolitonBackground, SpectralPoint, build_solution, eval_u
from kinkdirac.spectrum import c1_bound_indicator, find_bound_states, levinson_check

# Discrete spectrum of the reference kink, confirmed independently by a
# shooting search on the directly integrated equation (see test_oracle.py).
E_MASSIVE_OVER_M = 4.231807015500819 / 5.0


def test_kappa_at_threshold_energies():
    # In units of M.
    assert SpectralPoint.bound(0.0).k == pytest.approx(1j)
    sp = SpectralPoint.bound(0.8)
    assert sp.k == pytest.approx(0.6j)


def test_kink_spectrum(bg5):
    states = find_bound_states(bg5)
    energies = sorted(s.E_n for s in states)
    assert len(energies) == 2
    assert abs(energies[0]) <= 1e-6 * bg5.M
    assert energies[1] == pytest.approx(E_MASSIVE_OVER_M * bg5.M, abs=1e-6 * bg5.M)


def test_kink_has_no_negative_root(bg5):
    states = find_bound_states(bg5)
    assert all(s.E_n > -1e-6 * bg5.M for s in states)


def test_antikink_spectrum_mirrors_kink(bg5, bg5_anti):
    kink = sorted(s.E_n for s in find_bound_states(bg5))
    anti = sorted(s.E_n for s in find_bound_states(bg5_anti))
    assert len(anti) == 2
    for e_k, e_a in zip(kink, sorted(-e for e in anti)):
        assert abs(e_k - e_a) <= 1e-6 * bg5.M


def test_combined_spectrum_symmetric_under_charge_conjugation(bg5, bg5_anti):
    union = sorted(
        [s.E_n for s in find_bound_states(bg5)]
        + [s.E_n for s in find_bound_states(bg5_anti)]
    )
    mirrored = sorted(-e for e in union)
    for a, b in zip(union, mirrored):
        assert abs(a - b) <= 2e-6 * bg5.M


def test_bound_state_residuals_small(bg5):
    for s in find_bound_states(bg5):
        assert s.residual <= 1e-6
        assert s.kappa == pytest.approx(math.sqrt(bg5.M**2 - s.E_n**2), rel=1e-9)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_root_above_tol_root_is_an_error(sign):
    # A certified root is never dropped for its residual: where |c1| there
    # misses tol_root, find_bound_states raises, naming E and M.
    bg = SolitonBackground(M=5.0, K=sign * 5.0)
    with pytest.raises(KinkDiracError, match=r"^find_bound_states: at the root E = \S+ "
                                             r"\(M = 5\.0\) \|c1\| is .* above 1e-20$"):
        find_bound_states(bg, tol_root=1e-20)


def test_massive_bound_state_decays():
    # In units of M: kappa/M and y = Mx.
    E = E_MASSIVE_OVER_M
    sp = SpectralPoint.bound(E)
    sol = build_solution(Family.U1_FIRST, sp)
    kappa = math.sqrt(1.0 - E**2)
    ys = np.linspace(3.0, 6.0, 7)
    us = np.array([abs(eval_u(sol, y)[0]) for y in ys])
    ref = us[0] * np.exp(-0.9 * kappa * (ys - ys[0]))
    assert np.all(us <= ref + 1e-300)


def test_indicator_vanishes_only_at_roots():
    Es = np.linspace(-0.95, 0.95, 24)
    vals = np.array([abs(c1_bound_indicator(E)) for E in Es])
    roots = (0.0, E_MASSIVE_OVER_M)
    for E, v in zip(Es, vals):
        near_root = min(abs(E - r) for r in roots) < 0.1
        if not near_root:
            assert v > 1e-3


def test_indicator_linear_near_zero_mode():
    # The indicator has a simple zero at E = 0: |c1| ~ const * |E|.
    slopes = [abs(c1_bound_indicator(E)) / abs(E) for E in (1e-3, 1e-4, 1e-5)]
    assert max(slopes) / min(slopes) < 1.01


def test_levinson_sum_rule(bg5):
    report = levinson_check(bg5, find_bound_states(bg5), k_min=1e-3 * bg5.M)
    assert report.n_b == 1  # strictly positive-energy states only
    jump = report.delta_at_zero - report.delta_at_infinity
    assert abs(jump - math.pi * (report.n_b - 0.5)) < 0.05 * math.pi
    assert report.discrepancy < 0.05 * math.pi


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_levinson_extrapolates_delta_at_infinity(sign):
    # delta(inf) from delta = delta_inf + b2 u^2 + b3 u^3 + b4 u^4, u = M/k,
    # through the four largest momenta: with the grid's top at 20 M the sum
    # rule holds to 5.1e-6 on both branches, where delta(20 M) alone is 3.7e-3
    # and 4.2e-3 off.
    bg = SolitonBackground(M=5.0, K=sign * 5.0)
    report = levinson_check(bg, find_bound_states(bg), k_min=1e-3 * bg.M)
    assert report.discrepancy <= 1e-5
    assert report.discrepancy_negative <= 1e-5


@pytest.mark.parametrize("M", [2.15e-5, 1.0, 5.0, 9.2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_levinson_counts_both_branches(M, sign):
    # Each branch's phase jump counts the levels of its own sign; the zero
    # mode, at E = 0, enters neither count.  The kink has n_+ = 1, n_- = 0,
    # the antikink the reverse, and n_+ - n_- is the spectral asymmetry.
    bg = SolitonBackground(M=M, K=sign * M)
    bound = find_bound_states(bg)
    report = levinson_check(bg, bound, k_min=1e-3 * M)
    n_plus = sum(1 for b in bound if b.E_n > 1e-9 * M)
    n_minus = sum(1 for b in bound if b.E_n < -1e-9 * M)
    expected = (1, 0) if sign > 0 else (0, 1)
    assert (report.n_plus, report.n_minus) == (n_plus, n_minus) == expected
    assert (report.n_b, report.n_b_negative) == expected
    assert report.n_plus - report.n_minus == sign  # the spectral asymmetry
    assert max(report.discrepancy, report.discrepancy_negative) <= 1e-5


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_levinson_sweeps_both_branches_as_one_batch(sign, monkeypatch):
    # The default grid, 48 momenta to LEVINSON_K_TOP M plus {2, 4} k_min, is
    # matched on both branches as one batch, with no k above 20 M.
    from kinkdirac import scattering

    # The kink's match sees k/M; the antikink's is its image's.
    bg = SolitonBackground(M=5.0, K=sign * 5.0)
    bound = find_bound_states(bg)
    batches = []
    match = scattering._match
    monkeypatch.setattr(scattering, "_match",
                        lambda sp, y0: batches.append(sp) or match(sp, y0))
    levinson_check(bg, bound, k_min=1e-3 * bg.M)
    assert len(batches) == 1
    for sp in batches:
        assert sp.k.size == 2 * 50 and np.all(sp.k.imag == 0)
        assert sp.k.real.max() == spectrum.LEVINSON_K_TOP == 20.0
        assert np.sum(sp.E > 0) == np.sum(sp.E < 0) == 50


def test_batched_indicator_equals_per_family_evaluation(monkeypatch):
    # A batch's u1_first joins u2_second's Heun batch through its conjugate
    # set; on the bound continuation (|k| < M) that is bit for bit one batch
    # per family.
    Es = np.array([-1.0 + 1e-3 + (2.0 - 2e-3) * i / 63 for i in range(64)])
    joint = c1_bound_indicator(Es)
    monkeypatch.setattr(spectrum, "eval_u_at_origin", lambda *sols: [eval_u(s, 0.0) for s in sols])
    assert np.array_equal(joint, c1_bound_indicator(Es))


def test_levinson_light_fermion():
    bg = SolitonBackground(M=2.15e-5, K=2.15e-5, beta=1.0)
    report = levinson_check(bg, find_bound_states(bg), k_min=1e-3 * bg.M)
    jump = report.delta_at_zero - report.delta_at_infinity
    assert abs(jump - math.pi / 2) < 0.05 * math.pi


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_indicator_is_real_up_to_known_phase(sign):
    # c1 = e^{i pi (kappa/2M - 1)} f(E) with f real, measured against the
    # scale of the terms of W(u1_first, u2_second).  The antikink's c1 on its
    # bound continuation k = -i kappa is the image e^{-pi k/M} conj c1_k of the
    # kink's at -E; match_coefficients must agree with it wherever its
    # numerical basis is usable (u2_first degenerates at E = 0).
    # The indicator is in units of M; match_coefficients takes E = M e.
    bg = SolitonBackground(M=5.0, K=sign * 5.0)
    for E in np.linspace(-0.999, 0.999, 21):
        sp = SpectralPoint.bound(sign * E)
        p1 = eval_u(build_solution(Family.U1_FIRST, sp), 0.0)
        p2b = eval_u(build_solution(Family.U2_SECOND, sp), 0.0)
        scale = (abs(p1[0]) * abs(p2b[1]) + abs(p2b[0]) * abs(p1[1])) / (2.0 * abs(sp.k))
        kappa = math.sqrt(1.0 - E**2)
        c1 = c1_bound_indicator(sign * E)
        if sign < 0:
            k = -1j * kappa
            c1 = cmath.exp(-math.pi * k) * c1.conjugate()
            if E != 0.0:
                matched = match_coefficients(bg, SpectralPoint(E=bg.M * E, k=bg.M * k)).c1
                assert abs(matched - c1) <= 1e-9 * scale
        f = c1 * cmath.exp(-1j * math.pi * (kappa / 2 - 1))
        assert abs(f.imag) <= 1e-9 * scale


def test_indicator_at_zero_mode_vanishes():
    # E = 0 is an ordinary point of the indicator: no degenerate factor enters.
    # The antikink's zero mode is the kink's at -0 = 0.
    assert abs(c1_bound_indicator(0.0)) <= 1e-12


def test_indicator_rejects_complex_c1(monkeypatch):
    monkeypatch.setattr(spectrum, "IMAG_TOL", 0.0)
    with pytest.raises(KinkDiracError, match=r"c1_bound_indicator: at E/M = 0\.3 .* of the Wronskian term scale"):
        c1_bound_indicator(0.3)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_spectrum_roots_are_sign_changes(sign):
    # The zero mode is a computed root like the massive level.
    bg = SolitonBackground(M=5.0, K=sign * 5.0)
    zero, massive = sorted(find_bound_states(bg), key=lambda s: abs(s.E_n))
    assert abs(zero.E_n) <= 1e-12 * bg.M
    assert massive.E_n == pytest.approx(sign * 4.231807015500819, abs=1e-9 * bg.M)
    for s in (zero, massive):
        assert 0.0 < s.residual <= 1e-6


def test_scan_is_one_batch_per_family(bg5, monkeypatch):
    # The 32 Chebyshev nodes are evaluated as 1 batched call of 64 sets
    # (u1_first's conjugate and u2_second); each root's residual adds one
    # one-energy c1, 2 calls per root.
    from kinkdirac import heun, soliton

    shapes = []
    heun_eval = heun.heun_eval

    def counting(params, z):
        shapes.append(np.shape(params.q))
        return heun_eval(params, z)

    monkeypatch.setattr(soliton, "heun_eval", counting)
    assert len(find_bound_states(bg5)) == 2
    assert shapes == [(2 * spectrum.CHEB_NODES,)] + [()] * 4


def test_indicator_batch_evaluates_both_families(monkeypatch):
    # On the bound continuation u1_first's conjugate set is not u2_second's,
    # so 32 energies are one heun_eval of 64 sets.
    from kinkdirac import heun, soliton

    shapes = []
    heun_eval = heun.heun_eval
    monkeypatch.setattr(soliton, "heun_eval",
                        lambda params, z: shapes.append(params.q.shape) or heun_eval(params, z))
    c1_bound_indicator(np.linspace(-0.9, 0.9, 32))
    assert shapes == [(64,)]


def test_indicator_element_alone_equals_its_batch_value():
    # No element's value depends on the elements that share its batch.
    Es = np.linspace(-0.999, 0.999, 64)
    batch = c1_bound_indicator(Es)
    for i in range(Es.size):
        assert c1_bound_indicator(Es[i:i + 1])[0] == batch[i]


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("M", [1.0, 9.2])
def test_root_count_matches_an_independent_sign_scan(M, sign):
    # 512 energies of the real indicator, one batch, inside the edge margin:
    # its sign changes bracket exactly the levels, one per bracket.  The
    # antikink's levels are checked through the mirror E_n -> -E_n.
    # The indicator scans E/M; the levels are compared in units of M.
    bg = SolitonBackground(M=M, K=sign * M)
    kink_levels = sorted(sign * s.E_n / M for s in find_bound_states(bg))
    Es = np.linspace(-1.0 + 2e-6, 1.0 - 2e-6, 512)
    f = (c1_bound_indicator(Es) * spectrum._real_phase(Es)).real
    brackets = [(a, b) for a, b, fa, fb in zip(Es, Es[1:], f, f[1:]) if fa * fb <= 0]
    assert len(brackets) == len(kink_levels) == 2
    for (a, b), E_n in zip(brackets, kink_levels):
        assert a <= E_n <= b


def test_too_few_chebyshev_nodes_fail_certification(bg5, monkeypatch):
    # At 16 nodes the trailing coefficients are about 6e-7 of the largest.
    monkeypatch.setattr(spectrum, "CHEB_NODES", 16)
    with pytest.raises(KinkDiracError, match=r"^find_bound_states: at M = 5\.0 the trailing"):
        find_bound_states(bg5)


@pytest.mark.parametrize("M", [2.15e-5, 1.0, 9.2])
def test_zero_mode_in_closed_form(M):
    # At E = 0 the Riccati equation for w = u'/u has the solution
    # w = M (-tanh 2Mx + i sech 2Mx), so u0 = sqrt(sech 2Mx) e^{i arctan e^{2Mx}}
    # (Jackiw and Rebbi, Phys. Rev. D 13, 3398, 1976).  u1_first at E = 0 is
    # u0 up to a constant (in y = Mx, where u'/u = M du/dy), and the computed
    # level is E = 0.
    bg = SolitonBackground(M=M, K=M)
    xs = np.linspace(-4.0 / M, 4.0 / M, 81)
    u, du = eval_u(build_solution(Family.U1_FIRST, SpectralPoint.bound(0.0)), M * xs)
    s = 2.0 * M * xs
    ratio = u / (np.sqrt(1.0 / np.cosh(s)) * np.exp(1j * np.arctan(np.exp(s))))
    assert np.max(abs(ratio / ratio[40] - 1.0)) <= 1e-10
    assert np.max(abs(M * du / u - M * (-np.tanh(s) + 1j / np.cosh(s)))) <= 1e-10 * M
    zero = min(find_bound_states(bg), key=lambda b: abs(b.E_n))
    assert abs(zero.E_n) <= 1e-12 * M
