"""Tests for the direct-integration oracle and residual diagnostics."""

import math

import numpy as np
import pytest

from kinkdirac.errors import FitError
from kinkdirac.oracle import (
    TAIL_WINDOW,
    _fit_tail,
    extract_scattering,
    integrate_u,
    oracle_scattering,
    residuals,
)
from kinkdirac.scattering import match_coefficients, matched_u
from kinkdirac.soliton import Family, SpectralPoint, build_solution, eval_u


# ---------------------------------------------------------------------------
# Free-propagation double: the oracle on a detached background
# ---------------------------------------------------------------------------


def test_free_double_reports_trivial_scattering(bg5, sp25):
    c1, c2 = oracle_scattering(bg5, sp25, coupling_scale=0.0)
    assert abs(c1 - 1.0) < 1e-9
    assert abs(c2) < 1e-9


def test_tail_fit_recovers_planted_amplitudes():
    k = 2.5
    x = np.linspace(3.0, 4.0, 64)
    A, B = 0.7 - 0.2j, 0.1 + 0.4j
    u = A * np.exp(1j * k * x) + B * np.exp(-1j * k * x)
    A_fit, B_fit, resid = _fit_tail(x, u, k)
    assert abs(A_fit - A) < 1e-12
    assert abs(B_fit - B) < 1e-12
    assert resid < 1e-12


def test_extract_scattering_rejects_contaminated_tail(bg5, sp25):
    # A trajectory whose tails are not pure plane waves must be rejected,
    # not silently fitted.
    x_plus = TAIL_WINDOW[1] / (2.0 * bg5.K)
    xs = np.concatenate([np.linspace(-x_plus, -0.8 * x_plus, 64),
                         np.linspace(0.8 * x_plus, x_plus, 64)])
    u = np.exp(1j * 2.5 * xs) * (1.0 + 1e-3 * xs)
    with pytest.raises(FitError):
        extract_scattering(xs, u, bg5, sp25)


# ---------------------------------------------------------------------------
# Oracle vs Wronskian matching
# ---------------------------------------------------------------------------


def test_oracle_agrees_with_matching(bg5, sp25):
    data = match_coefficients(bg5, sp25)
    c1, c2 = oracle_scattering(bg5, sp25)
    assert abs(c1 - data.c1) <= 1e-6 * abs(data.c1)
    assert abs(c2 - data.c2) <= 1e-6 * abs(data.c2)


def test_oracle_agreement_across_momenta(bg5):
    for k in (0.5, 2.5, 10.0):
        sp = SpectralPoint.scattering(bg5, k)
        data = match_coefficients(bg5, sp)
        c1, c2 = oracle_scattering(bg5, sp)
        assert abs(c1 - data.c1) <= 1e-6 * abs(data.c1)
        assert abs(c2 - data.c2) <= 1e-6 * max(abs(data.c2), abs(data.c1))


@pytest.mark.parametrize("branch", ["positive", "negative"])
def test_antikink_map_agrees_with_direct_oracle(bg5_anti, branch):
    # The oracle integrates the K < 0 equation itself, so it checks the
    # charge-conjugation map match_coefficients applies to the antikink.  c2
    # is compared only where the oracle's tail fit resolves it (k <= M).
    for kk in (0.1, 1.0, 10.0):
        sp = SpectralPoint.scattering(bg5_anti, kk * bg5_anti.M, branch)
        data = match_coefficients(bg5_anti, sp)
        c1, c2 = oracle_scattering(bg5_anti, sp)
        assert abs(data.c1 - c1) <= 1e-8 * abs(c1)
        if kk <= 1.0:
            assert abs(data.c2 - c2) <= 1e-8 * abs(c2)


def test_integrator_convergence_is_monotone(bg5, sp25):
    # Tightening the tolerances moves the oracle towards the matched value.
    data = match_coefficients(bg5, sp25)
    errs = []
    for rel_tol in (1e-7, 1e-9, 1e-11):
        c1, _ = oracle_scattering(bg5, sp25, rel_tol=rel_tol, abs_tol=rel_tol * 1e-2)
        errs.append(abs(c1 - data.c1))
    assert errs[2] < errs[1] < errs[0]


def test_integration_from_heun_initial_data(bg5, sp25):
    # Seed the integrator with eval_u data on the transmitted side and carry
    # it across the kink; it must land on the matched combination.  eval_u
    # takes y = Mx and returns du/dy.
    data = match_coefficients(bg5, sp25)
    x0, x1 = 6.0 / bg5.K, -6.0 / bg5.K
    u0, du0 = eval_u(data.basis[0], 6.0)
    _, u, _ = integrate_u(bg5, sp25, x0, x1, u0, bg5.M * du0, x_eval=[x0, x1], rel_tol=1e-12,
                          abs_tol=1e-14)
    u_exp, _ = matched_u(data, x1)
    assert abs(u[-1] - u_exp) <= 1e-6 * abs(u_exp)


def test_bound_state_decay_both_directions(bg5):
    # At the massive bound energy the u1 branch decays to the right and the
    # matched continuation decays to the left.
    # u1 from the core, in units of M; the oracle runs in x.
    E = 4.231807015500819
    sol1 = build_solution(Family.U1_FIRST, SpectralPoint.bound(E / bg5.M))
    kappa = math.sqrt(bg5.M**2 - E**2)
    u0, du0 = eval_u(sol1, 0.5 * bg5.M)
    xs, u, _ = integrate_u(bg5, SpectralPoint(E=E, k=1j * kappa), 0.5, 2.0, u0, bg5.M * du0,
                           x_eval=np.linspace(0.5, 2.0, 7), rel_tol=1e-12, abs_tol=1e-16)
    mags = np.abs(u)
    for (xa, ua), (xb, ub) in zip(zip(xs, mags), zip(xs[1:], mags[1:])):
        assert ub / ua == pytest.approx(math.exp(-kappa * (xb - xa)), rel=5e-2)


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------


def _matched_grid(bg, sp, n):
    xs = np.linspace(-2.0, 2.0, n)
    u = np.empty(n, dtype=complex)
    v = np.empty(n, dtype=complex)
    data = match_coefficients(bg, sp)
    for i, x in enumerate(xs):
        u[i], v[i] = matched_u(data, x)
    return xs, u, v


def test_residuals_small_on_reference_grid(bg5, sp25):
    xs, u, v = _matched_grid(bg5, sp25, 401)
    report = residuals(xs, u, v, bg5, sp25)
    assert report.max_rel_residual <= 1e-6


def test_residuals_detect_perturbation(bg5, sp25):
    xs, u, v = _matched_grid(bg5, sp25, 401)
    u_bad = u * (1.0 + 1e-3 * xs)
    report = residuals(xs, u_bad, v, bg5, sp25)
    assert report.max_rel_residual >= 1e-4


def test_residuals_converge_under_grid_refinement(bg5, sp25):
    xs1, u1, v1 = _matched_grid(bg5, sp25, 401)
    xs2, u2, v2 = _matched_grid(bg5, sp25, 801)
    r1 = residuals(xs1, u1, v1, bg5, sp25).max_rel_residual
    r2 = residuals(xs2, u2, v2, bg5, sp25).max_rel_residual
    assert r2 < 2.0 * r1  # stencil truncation error must not grow on refinement
