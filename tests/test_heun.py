"""Unit tests for the Heun-function core: series, second solution, continuation."""

import cmath
import importlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinkdirac import (
    ContinuationPath,
    DegenerateGammaError,
    DomainError,
    HeunParams,
    PathError,
    heun_continue,
    heun_second_solution,
    heun_series,
    integrate_heun,
    recurrence_coeffs,
    second_solution_params,
)
from kinkdirac.heun import default_path


def ur1_params(M=5.0, K=5.0, k=2.5) -> HeunParams:
    E = math.sqrt(M * M + k * k)
    kk = k / K
    return HeunParams(a=0.5, q=1j * (E + k) / K, alpha=-1, beta=0,
                      gamma=1 - 1j * kk, delta=1 + 1j * kk)


def uright12_params(M=5.0, K=5.0, k=2.5) -> HeunParams:
    E = math.sqrt(M * M + k * k)
    kk = k / K
    return HeunParams(a=0.5, q=-1j * (E + k) / K, alpha=-1, beta=0,
                      gamma=1 + 1j * kk, delta=1 - 1j * kk)


# ---------------------------------------------------------------------------
# Construction & recurrence
# ---------------------------------------------------------------------------


def test_fuchs_relation_fixed_at_construction():
    p = ur1_params()
    assert p.epsilon == p.alpha + p.beta + 1 - p.gamma - p.delta
    assert p.epsilon == pytest.approx(-2.0)


def test_singular_a_rejected():
    with pytest.raises(DomainError):
        HeunParams(a=0.0, q=1, alpha=1, beta=1, gamma=1.5, delta=1)
    with pytest.raises(DomainError):
        HeunParams(a=1.0, q=1, alpha=1, beta=1, gamma=1.5, delta=1)


def test_recurrence_R1_vanishes_for_alpha_minus_one():
    p = ur1_params()
    R, _, _ = recurrence_coeffs(p, 1)
    assert R == 0  # (1 + alpha)(1 + beta) = 0 * 1


def test_recurrence_Q0_vanishes():
    p = uright12_params()
    _, _, Q = recurrence_coeffs(p, 0)
    assert Q == 0  # factor n = 0


def test_recurrence_P1_matches_independent_evaluation():
    # Re-evaluate P_1 = -q - (gamma)(1 + a) - (a delta + epsilon) from scratch.
    p = ur1_params()
    _, P1, _ = recurrence_coeffs(p, 1)
    expected = -p.q - 1 * (1 - 1 + p.gamma) * (1 + p.a) - 1 * (p.a * p.delta + p.epsilon)
    assert P1 == expected
    # And fully numerically, without reusing the dataclass fields:
    E, k, K = math.sqrt(31.25), 2.5, 5.0
    q = 1j * (E + k) / K
    ga, de, eps = 1 - 0.5j, 1 + 0.5j, -2.0 + 0j
    assert abs(P1 - (-q - ga * 1.5 - (0.5 * de + eps))) < 1e-15


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


def test_series_normalization_and_slope_random_params():
    rng = np.random.default_rng(20260823)
    for _ in range(50):
        re = rng.uniform(-2, 2, size=6)
        im = rng.uniform(-2, 2, size=6)
        a = complex(re[0], im[0])
        if abs(a) < 0.3 or abs(a - 1) < 0.1 or abs(a) > 3:
            a = 0.5 + 0.4j
        ga = complex(re[4], im[4])
        if abs(ga - round(ga.real)) < 0.05:
            ga += 0.3
        p = HeunParams(a=a, q=complex(re[1], im[1]), alpha=complex(re[2], im[2]),
                       beta=complex(re[3], im[3]), gamma=ga, delta=complex(re[5], im[5]))
        value, deriv, _ = heun_series(p, 0.0)
        assert value == 1.0
        slope = p.q / (p.a * p.gamma)
        assert abs(deriv - slope) <= 1e-12 * abs(slope)


def test_series_trivial_constant_solution():
    # q = 0 and alpha*beta = 0 force h_n = 0 for n >= 1.
    p = HeunParams(a=0.7 + 0.2j, q=0, alpha=0, beta=2, gamma=1.3, delta=0.4)
    value, deriv, state = heun_series(p, 0.3 + 0.2j)
    assert value == 1.0
    assert deriv == 0.0
    assert state.truncated


def test_series_recurrence_residual_of_stored_coefficients(sp25, bg5):
    p = ur1_params()
    _, _, state = heun_series(p, 0.35j)
    h = state.coefficients
    assert h[0] == 1.0
    for n in range(1, len(h) - 1):
        R, _, _ = recurrence_coeffs(p, n - 1)
        _, P, _ = recurrence_coeffs(p, n)
        _, _, Q = recurrence_coeffs(p, n + 1)
        resid = abs(R * h[n - 1] + P * h[n] + Q * h[n + 1])
        assert resid <= 1e-12 * max(abs(h[n - 1]), abs(h[n]), abs(h[n + 1]))


def test_series_outside_disk_rejected():
    p = ur1_params()
    with pytest.raises(DomainError):
        heun_series(p, 0.48)  # disk margin is 0.9 * 0.5 = 0.45


def test_series_vs_ode_integration_ur1():
    p = ur1_params()
    v, _, _ = heun_series(p, 0.2)
    v_ode, _ = integrate_heun(p, [0.2])
    assert abs(v - v_ode) <= 1e-8 * abs(v_ode)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_series_vs_ode_random_property(seed):
    rng = np.random.default_rng(seed)
    a = complex(rng.uniform(0.4, 2.0), rng.uniform(-1.0, 1.0))
    if abs(a - 1) < 0.2:
        a += 0.5j
    ga = complex(rng.uniform(0.3, 1.8), rng.uniform(-1.0, 1.0))
    if abs(ga - round(ga.real)) < 0.05:
        ga += 0.2
    p = HeunParams(a=a, q=complex(*rng.uniform(-1.5, 1.5, 2)),
                   alpha=complex(*rng.uniform(-1.5, 1.5, 2)),
                   beta=complex(*rng.uniform(-1.5, 1.5, 2)),
                   gamma=ga, delta=complex(*rng.uniform(-1.5, 1.5, 2)))
    r = 0.4 * min(abs(a), 1.0) * rng.uniform(0.2, 1.0)
    z = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    v, _, _ = heun_series(p, z)
    v_ode, _ = integrate_heun(p, [z])
    assert abs(v - v_ode) <= 1e-8 * max(abs(v_ode), 1.0)


def test_polynomial_truncation_detected():
    # alpha = -1 truncates at degree 1 when h_2 = 0, i.e. when
    # R_0 + P_1 h_1 = 0 with h_1 = q/(a gamma): a quadratic in q.
    a, be, ga, de = 0.5, 2.0, 1.3 + 0.2j, 0.7
    al = -1.0
    eps = al + be + 1 - ga - de
    # h_2 = 0  <=>  al*be + (-q - ga*(1+a) - (a*de+eps)) * q/(a*ga) = 0
    c2 = -1.0 / (a * ga)
    c1 = -(ga * (1 + a) + (a * de + eps)) / (a * ga)
    c0 = al * be
    q = np.roots([c2, c1, c0])[0]
    p = HeunParams(a=a, q=q, alpha=al, beta=be, gamma=ga, delta=de)
    z = 0.3 + 0.1j
    value, deriv, state = heun_series(p, z)
    assert state.truncated
    h1 = q / (a * ga)
    assert abs(value - (1 + h1 * z)) < 1e-14 * abs(value)
    assert abs(deriv - h1) < 1e-14 * abs(h1)


def test_generic_scattering_series_is_infinite():
    _, _, state = heun_series(ur1_params(), 0.2)
    assert not state.truncated
    assert state.n_used > 10


# ---------------------------------------------------------------------------
# Second solution
# ---------------------------------------------------------------------------


def test_second_solution_is_definitional_composition():
    p = ur1_params()  # gamma = 1 - 0.5i, k/K = 0.5
    z = 0.1
    v, dv = heun_second_solution(p, z)
    shifted = second_solution_params(p)
    hs, dhs, _ = heun_series(shifted, z)
    w = z ** (1 - p.gamma)
    assert abs(v - w * hs) < 1e-13 * abs(v)
    assert abs(dv - w * (dhs + (1 - p.gamma) / z * hs)) < 1e-12 * abs(dv)


def test_second_solution_shifted_accessory_parameter():
    # For the uright12 parameter set the shifted q must equal the closed form
    # -i(2E - k)/(2K) - k^2/(2K^2).
    M = K = 5.0
    k = 2.5
    E = math.sqrt(M * M + k * k)
    p = uright12_params(M, K, k)
    shifted = second_solution_params(p)
    expected = -1j * (2 * E - k) / (2 * K) - k * k / (2 * K * K)
    assert abs(shifted.q - expected) < 1e-14
    # Exponent bookkeeping of the shifted set.
    kk = k / K
    assert abs(shifted.alpha - (-1 - 1j * kk)) < 1e-15
    assert abs(shifted.beta - (-1j * kk)) < 1e-15
    assert abs(shifted.gamma - (1 - 1j * kk)) < 1e-15
    assert abs(shifted.delta - (1 - 1j * kk)) < 1e-15


def test_first_and_second_solutions_independent():
    p = ur1_params()
    z = 0.1
    v1, d1, _ = heun_series(p, z)
    v2, d2 = heun_second_solution(p, z)
    wronskian = v1 * d2 - v2 * d1
    assert abs(wronskian) > 1e-3


def test_degenerate_gamma_rejected():
    p = HeunParams(a=0.5, q=1.0, alpha=-1, beta=0, gamma=1.0, delta=1.0)
    with pytest.raises(DegenerateGammaError):
        heun_second_solution(p, 0.1)


def test_second_solution_continuous_through_gamma_zero():
    # Only gamma = 1 degenerates the second solution; at gamma = 0 it is
    # z Hl[gamma = 2], the limit of its neighbours.
    def second(gamma):
        p = HeunParams(a=0.5, q=0.3 + 0.1j, alpha=-1, beta=0, gamma=gamma, delta=1.2)
        return heun_second_solution(p, 0.1 + 0.05j)

    v0, d0 = second(0.0)
    for g in (1e-6, -1e-6):
        v, d = second(g)
        assert abs(v - v0) <= 1e-5 * abs(v0)
        assert abs(d - d0) <= 1e-5 * abs(d0)


@pytest.mark.parametrize("gamma", [2.0, 3.0])
def test_second_solution_error_names_stage_and_caller_gamma(gamma):
    # The shifted series would have gamma = 0 or -1; the error must name the
    # second solution and the gamma the caller passed.
    p = HeunParams(a=0.5, q=0.3, alpha=-1, beta=0, gamma=gamma, delta=0.8)
    with pytest.raises(DegenerateGammaError,
                       match=rf"^heun_second_solution: gamma = \({gamma:g}\+0j\)"):
        heun_second_solution(p, 0.1 + 0.1j)


def test_second_solution_singular_at_zero():
    with pytest.raises(DomainError):
        heun_second_solution(ur1_params(), 0.0)


# ---------------------------------------------------------------------------
# Continuation
# ---------------------------------------------------------------------------


def test_continuation_agrees_with_series_on_overlap():
    p = ur1_params()
    z = 0.3 + 0.2j  # inside the disk but past the series-dispatch radius
    v_series, d_series, _ = heun_series(p, z)
    path = ContinuationPath((0.1 * z / abs(z), z), 0.05)
    v_cont, d_cont = heun_continue(p, z, path)
    assert abs(v_cont - v_series) <= 1e-12 * abs(v_series)
    assert abs(d_cont - d_series) <= 1e-11 * abs(d_series)


def test_continuation_matches_ode_at_matching_point():
    # z = (1+i)/2 has |z| ~ 0.707, outside the convergence disk.
    p = ur1_params()
    z = 0.5 + 0.5j
    v, _ = heun_continue(p, z)
    path = default_path(p, z)
    v_ode, _ = integrate_heun(p, path.waypoints)
    assert abs(v - v_ode) <= 1e-8 * abs(v_ode)


def test_continuation_matches_ode_uright12():
    p = uright12_params()
    z = 0.5 - 0.5j
    v, _ = heun_continue(p, z)
    v_ode, _ = integrate_heun(p, default_path(p, z).waypoints)
    assert abs(v - v_ode) <= 1e-8 * abs(v_ode)


@pytest.mark.parametrize("z", [0.5 + 0.5j, 0.5 - 0.5j])
def test_second_solution_continues_beyond_disk(z):
    p = ur1_params()
    v, _ = heun_second_solution(p, z)
    shifted = second_solution_params(p)
    h_ode, _ = integrate_heun(shifted, default_path(shifted, z).waypoints)
    v_ode = cmath.exp((1 - p.gamma) * cmath.log(z)) * h_ode
    assert abs(v - v_ode) <= 1e-8 * abs(v_ode)


def test_path_independence_of_homotopic_paths():
    p = ur1_params()
    z = 0.5 + 0.5j
    pa = ContinuationPath((0.2j, 0.2 + 0.6j, z), 0.08)
    pb = ContinuationPath((0.2 * z / abs(z), -0.2 + 0.4j, z), 0.08)
    va, _ = heun_continue(p, z, pa)
    vb, _ = heun_continue(p, z, pb)
    assert abs(va - vb) <= 1e-8 * abs(va)


def test_path_crossing_cut_rejected():
    p = ur1_params()
    # From the upper to the lower half-plane across the real axis right of a.
    path = ContinuationPath((0.2, 0.8 + 0.3j, 0.8 - 0.3j), 0.05)
    with pytest.raises(PathError):
        heun_continue(p, 0.8 - 0.3j, path)


def test_path_clearance_enforced():
    p = ur1_params()
    path = ContinuationPath((0.2, 0.5 + 1e-6j, 0.8 + 0.3j), 0.05)
    with pytest.raises(PathError):
        heun_continue(p, 0.8 + 0.3j, path)


def test_default_path_detours_near_singular_targets():
    # A target close to z = 1 on the upper side: straight from the start point
    # would pass near a = 1/2.
    p = ur1_params()
    z = 0.97 + 0.02j
    path = default_path(p, z)
    path.validate(p)
    v, _ = heun_continue(p, z, path)
    v_ode, _ = integrate_heun(p, path.waypoints)
    assert abs(v - v_ode) <= 1e-7 * abs(v_ode)


def test_pipeline_evaluates_at_one_tolerance():
    # The evaluation accuracy is heun.TOL, fixed in one place: no public
    # function of the pipeline layers takes a tol argument.
    for layer in ("heun", "soliton", "scattering", "spectrum"):
        mod = importlib.import_module(f"kinkdirac.{layer}")
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                assert "tol" not in inspect.signature(fn).parameters, f"{layer}.{name}"
