"""Unit tests for the Heun-function core: series, second solution, continuation."""

import cmath
import importlib
import inspect
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinkdirac import heun
from kinkdirac.errors import (ConvergenceError, DegenerateGammaError, DomainError, KinkDiracError,
                              PathError)
from kinkdirac.heun import (
    HeunParams,
    default_path,
    heun_eval,
    heun_series,
    recurrence_coeffs,
    second_solution_params,
    taylor_step,
)
from kinkdirac.oracle import integrate_heun
from kinkdirac.soliton import (Family, SolitonBackground, SpectralPoint, build_solution, eval_u,
                               map_to_z)

# The unit mass: its SpectralPoint.scattering points are the core's (E/M, k/M).
UNIT = SolitonBackground(M=1.0, K=1.0)


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


def second_solution(p: HeunParams, z: complex):
    """z^(1-gamma) Hl[shifted](z) and its derivative, Hl[shifted] from heun_eval."""
    h, dh = heun_eval(second_solution_params(p), z)
    power = 1 - p.gamma
    w = cmath.exp(power * cmath.log(z))
    return w * h, w * (dh + power / z * h)


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
        value, deriv = heun_series(p, 0.0)
        assert value == 1.0
        slope = p.q / (p.a * p.gamma)
        assert abs(deriv - slope) <= 1e-12 * abs(slope)


def test_series_trivial_constant_solution():
    # q = 0 and alpha*beta = 0 force h_n = 0 for n >= 1.
    p = HeunParams(a=0.7 + 0.2j, q=0, alpha=0, beta=2, gamma=1.3, delta=0.4)
    value, deriv = heun_series(p, 0.3 + 0.2j)
    assert value == 1.0
    assert deriv == 0.0


def _recurrence_coefficients(p, n_terms):
    """h_0 .. h_{n_terms - 1} of Hl from R_{n-1} h_{n-1} + P_n h_n + Q_{n+1} h_{n+1} = 0, h_0 = 1."""
    h = [1.0 + 0j]
    for n in range(n_terms - 1):
        R = recurrence_coeffs(p, n - 1)[0] * h[n - 1] if n else 0j
        h.append(-(R + recurrence_coeffs(p, n)[1] * h[n]) / recurrence_coeffs(p, n + 1)[2])
    return h


def test_series_sums_the_recurrence():
    p, z = ur1_params(), 0.35j
    h = _recurrence_coefficients(p, 200)
    value, deriv = heun_series(p, z)
    assert abs(value - sum(c * z**n for n, c in enumerate(h))) <= 1e-12 * abs(value)
    assert abs(deriv - sum(n * c * z ** (n - 1) for n, c in enumerate(h) if n)) <= 1e-12 * abs(deriv)


def test_series_outside_disk_rejected():
    p = ur1_params()
    with pytest.raises(DomainError):
        heun_series(p, 0.48)  # disk margin is 0.9 * 0.5 = 0.45


def test_series_vs_ode_integration_ur1():
    p = ur1_params()
    v, _ = heun_series(p, 0.2)
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
    v, _ = heun_series(p, z)
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
    value, deriv = heun_series(p, z)
    h1 = q / (a * ga)
    assert abs(value - (1 + h1 * z)) < 1e-14 * abs(value)
    assert abs(deriv - h1) < 1e-14 * abs(h1)
    # In a batch the polynomial element stops at the same term as alone, while
    # its neighbour sums its infinite series.
    qs = np.array([q + 0.5, q, q - 0.5j])
    batch = HeunParams(a=a, q=qs, alpha=al, beta=be, gamma=ga, delta=de)
    values, derivs = heun_series(batch, z)
    assert abs(values[1] - (1 + h1 * z)) < 1e-14 * abs(values[1])
    assert abs(derivs[1] - h1) < 1e-14 * abs(h1)
    for i in (0, 2):
        alone, d_alone = heun_series(HeunParams(a=a, q=qs[i], alpha=al, beta=be, gamma=ga, delta=de), z)
        assert abs(values[i] - alone) <= 1e-14 * abs(alone)
        assert abs(derivs[i] - d_alone) <= 1e-14 * abs(d_alone)


def test_exact_heun_polynomial_stays_exact():
    # At E = 0 on the bound continuation the U1 set has q = -1, gamma = 2,
    # delta = 0: R_0 = R_1 = P_1 = 0, so Hl = 1 - z with every further
    # coefficient an exact zero, and the sum needs no cut to stay exact.
    p = build_solution(Family.U1_FIRST, SpectralPoint.bound(0.0)).params
    for z in (0.1, 0.3 + 0.2j, -0.2 - 0.35j, 0.4j):
        assert heun_series(p, z) == (1 - z, -1)


def test_generic_scattering_series_is_infinite():
    # Its terms beyond degree 10 still count at z = 0.2: it is not cut to a polynomial.
    p, z = ur1_params(), 0.2
    degree_10 = sum(c * z**n for n, c in enumerate(_recurrence_coefficients(p, 11)))
    value, _ = heun_series(p, z)
    assert abs(value - degree_10) > 1e-12 * abs(value)


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------

_parts = st.floats(min_value=-2.0, max_value=2.0)
_cplx = st.builds(complex, _parts, _parts)
# gamma with Re > 0 keeps clear of the degenerate non-positive integers.
_gamma = st.builds(complex, st.floats(min_value=0.1, max_value=2.0), _parts)


def _points(r_min):
    """The matching points z = 1/2 +- i/2, or z inside the series disk."""
    return st.one_of(
        st.sampled_from([0.5 + 0.5j, 0.5 - 0.5j]),
        st.builds(cmath.rect, st.floats(min_value=r_min, max_value=0.44),
                  st.floats(min_value=-math.pi, max_value=math.pi)),
    )


def _assert_each_equals_alone(batch_out, alone_outs):
    for i, (v, d) in enumerate(alone_outs):
        scale = max(abs(v), abs(d))
        assert abs(batch_out[0][i] - v) <= 1e-12 * scale
        assert abs(batch_out[1][i] - d) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_cplx, _cplx, _cplx, _gamma, _cplx), min_size=1, max_size=6), _points(0.0))
def test_batch_elements_equal_their_own_evaluation(sets, z):
    # a = 1/2 as in the kink problem; every element of a batch is its own
    # scalar heun_eval to 1e-12, inside the series disk and at z = 1/2 +- i/2.
    q, al, be, ga, de = (np.array(col) for col in zip(*sets))
    out = heun_eval(HeunParams(a=0.5, q=q, alpha=al, beta=be, gamma=ga, delta=de), z)
    _assert_each_equals_alone(out, [heun_eval(HeunParams(0.5, *row), z) for row in sets])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=1e-3, max_value=10.0), st.sampled_from([1.0, -1.0])),
                min_size=1, max_size=6),
       st.sampled_from([1.0, -1.0]), _points(0.01))
def test_batch_second_solution_equals_its_own_evaluation(points, family, z):
    # Hl[shifted] of kink parameter sets (M = K = 1) at k/M <= 10: beyond
    # that the second solution at the matching point is subdominant and its
    # value noise.
    k = np.array([p[0] for p in points])
    E = np.array([p[1] for p in points]) * np.hypot(1.0, k)

    def params(k, E):
        return HeunParams(a=0.5, q=family * 1j * (E + k), alpha=-1, beta=0,
                          gamma=1 - family * 1j * k, delta=1 + family * 1j * k)

    out = heun_eval(second_solution_params(params(k, E)), z)
    _assert_each_equals_alone(out, [heun_eval(second_solution_params(params(*kE)), z)
                                    for kE in zip(k.tolist(), E.tolist())])


def test_series_z_batch_broadcasts_against_a_parameter_batch():
    # A (4, 1) z batch against 3 parameter sets: each of the 12 elements
    # stops where it would alone.
    sets = [(0.3 + 0.1j, -1, 0, 1.2, 0.8), (2j, 0.5, 1.5, 1 - 1j, 1 + 1j), (-1.5, -1, 0, 0.7, 0.3)]
    q, al, be, ga, de = (np.array(col) for col in zip(*sets))
    zs = np.array([[0.0], [0.1j], [0.2 - 0.1j], [-0.4]])
    values, derivs = heun_series(HeunParams(a=0.5, q=q, alpha=al, beta=be, gamma=ga, delta=de), zs)
    assert values.shape == derivs.shape == (4, 3)
    for i, z in enumerate(zs[:, 0].tolist()):
        _assert_each_equals_alone((values[i], derivs[i]),
                                  [heun_series(HeunParams(0.5, *row), z) for row in sets])


@pytest.mark.parametrize("kind", ["real", "imaginary"])
def test_conjugate_parameters_give_the_conjugate_function(kind):
    # Hl(conj p, conj z) = conj Hl(p, z) bit for bit: the recurrence and the
    # Taylor coefficients are polynomials with real coefficients, and the
    # singularities, the cut [a, inf) and so the path are mirror images.
    # First- and second-solution kink sets at the matching point z = 1/2 + i/2,
    # on Python numbers and as one batch.
    if kind == "real":
        sp = SpectralPoint.scattering(UNIT, np.array([1e-3, 0.5, 2.0, 10.0, 30.0, 50.0]))
    else:
        sp = SpectralPoint.bound(np.linspace(-0.99, 0.99, 6))
    names = ("q", "alpha", "beta", "gamma", "delta")
    z = 0.5 + 0.5j
    for family in Family:
        p = build_solution(family, sp).params
        cols = [np.broadcast_to(getattr(p, name), sp.k.shape) for name in names]
        h, dh = heun_eval(HeunParams(0.5, *cols), z)
        h_c, dh_c = heun_eval(HeunParams(0.5, *(np.conjugate(c) for c in cols)), z.conjugate())
        assert np.array_equal(h_c, h.conjugate()) and np.array_equal(dh_c, dh.conjugate())
        for row in zip(*(c.tolist() for c in cols)):
            h, dh = heun_eval(HeunParams(0.5, *row), z)
            h_c, dh_c = heun_eval(HeunParams(0.5, *(v.conjugate() for v in row)), z.conjugate())
            assert (h_c, dh_c) == (h.conjugate(), dh.conjugate())


@pytest.mark.parametrize("k", [0.05, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("branch", ["positive", "negative"])
def test_x_batch_equals_pointwise_evaluation(k, branch):
    # Each family over its side of the match at x = 0, the x a trace
    # evaluates it at, through the series-disk edge (|z| = 0.225 at
    # |2Kx| = 1.47): one series batch plus one Taylor chain against the
    # one-point path per x.  At k/M = 10 the two differ by 8e-12 at x = 0,
    # where the one-point path is 6e-12 off a 40-digit reference and the
    # chain 2e-12.
    sp = SpectralPoint.scattering(UNIT, k, branch)
    for family in Family:
        sol = build_solution(family, sp)
        xs = np.linspace(0.0, 2.0, 33) * (1.0 if family.is_u1 else -1.0)
        u, du = eval_u(sol, xs)
        for i, x in enumerate(xs.tolist()):
            u_x, du_x = eval_u(sol, x)
            scale = max(abs(u_x), abs(du_x))
            assert abs(u[i] - u_x) <= 1e-11 * scale
            assert abs(du[i] - du_x) <= 1e-11 * scale


def _x_batch(sol, xs, M):
    """(x, u, du/dy) of eval_u at y = Mx over the widest xs[|Mx| <= X],
    X = 10, 8, 6, 4, that returns: near z = 1 a Taylor step may fail to
    converge."""
    for X in (10.0, 8.0, 6.0, 4.0):
        x = xs[abs(M * xs) <= X]
        try:
            return (x, *eval_u(sol, M * x))
        except KinkDiracError:
            pass
    return xs[:0], xs[:0], xs[:0]


@pytest.mark.parametrize("M", [1.0, 5.0])
def test_one_point_eval_u_equals_the_x_batch(M):
    # A batch of x steps along the arc |z - 1/2| = 1/2 from target to target;
    # one x right of a = 1/2 (toward z = 1) goes through the matching point.
    # All three families at k/M in {0.05, 0.5, 2, 10} on both branches and at
    # bound E in {0, +-M/2}, x in [-10/M, 10/M]: 1e-10 for |Mx| <= 3 and 1e-7
    # beyond, where u1_first's Hl = 1 - z at E = 0 cancels digits as z -> 1.
    # Near z = 1 either call may raise a typed error; nothing else.
    # The core takes y = Mx and (E, k) in units of M.
    points = [SpectralPoint.scattering(UNIT, k, branch)
              for k in (0.05, 0.5, 2.0, 10.0) for branch in ("positive", "negative")]
    points += [SpectralPoint.bound(E) for E in (0.0, 0.5, -0.5)]
    xs = np.linspace(-10.0, 10.0, 41) / M
    compared = 0
    for sp, family in itertools.product(points, Family):
        try:
            sol = build_solution(family, sp)
        except KinkDiracError:
            continue
        for x, u, du in zip(*_x_batch(sol, xs, M)):
            try:
                u_x, du_x = eval_u(sol, float(M * x))
            except KinkDiracError:
                continue
            bound = (1e-10 if abs(M * x) <= 3 else 1e-7) * max(abs(u_x), abs(du_x))
            assert abs(u - u_x) <= bound and abs(du - du_x) <= bound, (family, sp, x)
            compared += 1
    assert compared >= 1000


@pytest.mark.parametrize("M", [1.0, 5.0])
def test_x_batch_through_targets_tied_in_abs_z(M):
    # Within about 1e-8 of z = 1 (here y = Mx <= -9.5) |z| rounds to 1.0.  The
    # chain still orders those targets toward z = 1, by |1 - z|, so it never
    # runs out and back, and each target is its one-point value.
    sol = build_solution(Family.U1_FIRST, SpectralPoint.scattering(UNIT, 0.05))
    ys = M * (np.linspace(-10.0, 10.0, 41) / M)
    assert abs(map_to_z(sol.family, ys[:2])).tolist() == [1.0, 1.0]
    u, du = eval_u(sol, ys)
    for i, y in enumerate(ys.tolist()):
        u_y, du_y = eval_u(sol, y)
        scale = max(abs(u_y), abs(du_y))
        assert abs(u[i] - u_y) <= 1e-10 * scale and abs(du[i] - du_y) <= 1e-10 * scale, y


@pytest.mark.parametrize("M", [1.0, 5.0])
def test_one_point_zero_mode_in_closed_form(M):
    # u1_first at E = 0 is the zero mode u0 = sqrt(sech 2Mx) e^{i arctan e^{2Mx}}
    # up to a constant (test_spectrum), also one x at a time: on x < 0 its
    # z lies right of a = 1/2 and within e^{2Mx} of z = 1.
    sol = build_solution(Family.U1_FIRST, SpectralPoint.bound(0.0))
    xs = np.linspace(-6.0, 6.0, 49) / M
    u = np.array([eval_u(sol, M * x)[0] for x in xs.tolist()])
    s = 2.0 * M * xs
    ratio = u / (np.sqrt(1.0 / np.cosh(s)) * np.exp(1j * np.arctan(np.exp(s))))
    assert np.max(abs(ratio / ratio[24] - 1.0)) <= 1e-11


def test_z_batch_equals_pointwise_evaluation(monkeypatch):
    # Along the arc z = 1/(1 + i e^-s) of the U2 frame through the disk edge
    # to the matching point, in scrambled order and with a repeated target:
    # the chain steps outward only.
    p = ur1_params()
    zs = 1.0 / (1.0 + 1j * np.exp(-np.array([-0.5, -3.0, 0.0, -1.0, -2.0, 0.0, -0.25, -1.4])))
    steps = []
    taylor_step = heun.taylor_step

    def recording(params, z0, value, deriv, z1):
        steps.append(abs(z1))
        return taylor_step(params, z0, value, deriv, z1)

    monkeypatch.setattr(heun, "taylor_step", recording)
    values, derivs = heun_eval(p, zs)
    assert len(steps) >= 4 and steps == sorted(steps)
    monkeypatch.undo()
    _assert_each_equals_alone((values, derivs), [heun_eval(p, z) for z in zs.tolist()])


@pytest.mark.parametrize("zs", [[[0.5 + 0.5j, 0.6 + 0.5j]], [[0.1j, 0.6 + 0.5j], [0.2, 0.5 + 0.5j]]])
def test_z_batch_of_any_shape_equals_its_flat_batch(zs):
    # A 2-D target array, with continued targets alone or next to series
    # ones, is its flat batch in the target array's shape.
    p, zs = ur1_params(), np.array(zs)
    values, derivs = heun_eval(p, zs)
    flat_values, flat_derivs = heun_eval(p, zs.ravel())
    assert values.shape == derivs.shape == zs.shape
    assert np.array_equal(values.ravel(), flat_values) and np.array_equal(derivs.ravel(), flat_derivs)


def test_target_batch_chain_is_validated_as_one_path():
    # |z| ties keep the given order, so the chain runs from 0.8 + 0.3i
    # straight down across the cut [1/2, inf).
    p = ur1_params()
    with pytest.raises(PathError, match=r"^segment \(0\.8\+0\.3j\) -> \(0\.8-0\.3j\) crosses the "
                                        r"branch cut"):
        heun_eval(p, np.array([0.8 + 0.3j, 0.8 - 0.3j]))
    with pytest.raises(ValueError, match="one parameter set"):
        heun_eval(HeunParams(a=0.5, q=np.array([0.1, 0.2]), alpha=-1, beta=0, gamma=1.2, delta=0.8),
                  np.array([0.6 + 0.3j]))


# ---------------------------------------------------------------------------
# Second solution
# ---------------------------------------------------------------------------


def test_second_solution_is_definitional_composition():
    # eval_u's u2_second is amp e^{iky} z^(1-gamma) Hl[shifted](z), and its
    # y-derivative the chain rule through dz/dy = 2 z (1 - z), at a z inside
    # the series disk: z = 1/(1 + 7i), |z| = 0.14.  In units of M.
    sol = build_solution(Family.U2_SECOND, SpectralPoint.scattering(UNIT, 0.5))
    p = uright12_params()  # gamma = 1 + 0.5i, k/M = 0.5
    y = -math.log(7.0) / 2.0
    z = map_to_z(Family.U2_SECOND, y)
    u, du = eval_u(sol, y)
    hs, dhs = heun_series(second_solution_params(p), z)
    w = sol.amp * cmath.exp(0.5j * y) * z ** (1 - p.gamma)
    assert abs(u - w * hs) < 1e-13 * abs(u)
    dz = 2.0 * z * (1 - z)
    assert abs(du - (0.5j + (1 - p.gamma) * dz / z) * w * hs - w * dhs * dz) < 1e-12 * abs(du)


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
    v1, d1 = heun_series(p, z)
    v2, d2 = second_solution(p, z)
    wronskian = v1 * d2 - v2 * d1
    assert abs(wronskian) > 1e-3


def test_degenerate_gamma_rejected():
    p = HeunParams(a=0.5, q=1.0, alpha=-1, beta=0, gamma=1.0, delta=1.0)
    with pytest.raises(DegenerateGammaError):
        second_solution_params(p)
    # A batch fails on its one degenerate element, named with its parameters.
    batch = HeunParams(a=0.5, q=np.array([1.0, 2.0, 3.0]), alpha=-1, beta=0,
                       gamma=np.array([1.5, 1.0, 0.5 + 1j]), delta=1.0)
    with pytest.raises(DegenerateGammaError, match=r"^second_solution_params: gamma = \(1\+0j\) .*"
                                                   r"q=\(2\+0j\)"):
        second_solution_params(batch)
    batch = HeunParams(a=0.5, q=np.array([1.0, 2.0]), alpha=-1, beta=0,
                       gamma=np.array([0.5, -1.0]), delta=1.0)
    with pytest.raises(DegenerateGammaError, match=r"^heun_series: gamma = \(-1\+0j\) .*q=\(2\+0j\)"):
        heun_series(batch, 0.1)


def test_batch_convergence_error_names_the_slow_element(monkeypatch):
    # The large-q element needs more Taylor terms than the budget allows.
    monkeypatch.setattr(heun, "N_MAX_TAYLOR", 40)
    batch = HeunParams(a=0.5, q=np.array([0.3, 40j]), alpha=-1, beta=0, gamma=1.2, delta=0.8)
    with pytest.raises(ConvergenceError, match=r"^taylor_step: .*q=40j"):
        heun_eval(batch, 0.5 + 0.5j)
    # At the default budget k/M = 180 does not converge and 0.001 does.  In
    # either order the error names 180: the stopped element's coefficients
    # are zeroed, so they never reach inf * 0 = nan, and numpy does not warn.
    monkeypatch.undo()
    for ks in ([0.001, 180.0], [180.0, 0.001]):
        sol = build_solution(Family.U1_FIRST, SpectralPoint.scattering(UNIT, np.array(ks)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConvergenceError, match=r"^taylor_step: .*gamma=\(1-180j\)"):
                eval_u(sol, 0.0)


@pytest.mark.parametrize("M", [1.0, 5.0])
def test_compacted_batch_equals_each_element_alone(M, monkeypatch):
    # A Taylor step drops its stopped elements once at most half are live;
    # each element still gives the bits it gives as a batch of one.  The
    # batch is the one a sweep of the default 64 momenta, k/M in [1e-3, 50],
    # on both energy branches evaluates.
    from kinkdirac import soliton
    from kinkdirac.scattering import log_grid, sweep

    calls = []
    monkeypatch.setattr(soliton, "heun_eval", lambda params, z: calls.append((params, z)) or
                        heun_eval(params, z))
    sweep(SolitonBackground(M=M, K=M), log_grid(1e-3 * M, 50.0 * M, 64), ("positive", "negative"))
    [(params, z)] = calls
    assert params.q.shape == (2 * 2 * 64,)
    masks, flatnonzero = [], np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: masks.append(a.size) or flatnonzero(a))
    value, deriv = heun_eval(params, z)
    monkeypatch.undo()
    assert max(masks) == params.q.size  # the first compaction keeps live elements of all
    for i in range(params.q.size):
        one = HeunParams(params.a, *(np.broadcast_to(getattr(params, name), params.q.shape)[i:i + 1]
                                     for name in ("q", "alpha", "beta", "gamma", "delta")))
        (v,), (d,) = heun_eval(one, z)
        assert (value[i], deriv[i]) == (v, d), i


def test_convergence_error_after_compaction_names_the_element(monkeypatch):
    # 16 easy sets stop early and are compacted away; the hard one, last in
    # the batch, is named with its own parameters.
    monkeypatch.setattr(heun, "N_MAX_TAYLOR", 60)
    q = np.append(np.linspace(0.1, 0.4, 16), 100j)
    gamma = np.append(np.full(16, 1.2), 1.3)
    batch = HeunParams(a=0.5, q=q, alpha=-1, beta=0, gamma=gamma, delta=0.8)
    with pytest.raises(ConvergenceError, match=r"^taylor_step: .*q=100j, .*gamma=\(1\.3\+0j\)"):
        heun_eval(batch, 0.5 + 0.5j)


def test_batch_honours_the_taylor_term_cap_exactly(monkeypatch):
    # The cap cuts the last block of terms.  The one-set loop counts the
    # terms each element needs; under a cap of exactly that many (not a
    # multiple of the block size) the batch stops there with its uncapped
    # bits, and one term fewer names the element that needs it.
    z0, z1 = 0.2 + 0.2j, 0.35 + 0.35j

    def params(q):
        return HeunParams(a=0.5, q=q, alpha=-1, beta=0, gamma=1.2, delta=0.8)

    def needed(q):  # the least cap under which the one-set loop converges
        for cap in itertools.count(1):
            monkeypatch.setattr(heun, "N_MAX_TAYLOR", cap)
            try:
                taylor_step(params(q), z0, 1.0 + 0j, 0j, z1)
                return cap
            except ConvergenceError:
                pass

    def step(*qs):
        start = np.ones(len(qs), complex), np.zeros(len(qs), complex)
        return taylor_step(params(np.array(qs)), z0, *start, z1)

    easy, hard = needed(0.3), needed(40j)
    assert easy < hard - 1
    assert all(cap % heun.TAYLOR_BLOCK not in (0, 1) for cap in (easy, hard))
    monkeypatch.undo()
    free = step(0.3, 40j)
    for cap, qs in ((easy, [0.3]), (hard, [0.3, 40j])):
        monkeypatch.setattr(heun, "N_MAX_TAYLOR", cap)
        capped = step(*qs)
        assert all(np.array_equal(v, w[:len(qs)]) for v, w in zip(capped, free))
    monkeypatch.setattr(heun, "N_MAX_TAYLOR", hard - 1)
    with pytest.raises(ConvergenceError, match=rf"^taylor_step: .* within {hard - 1} terms .*q=40j"):
        step(0.3, 40j)


def test_second_solution_continuous_through_gamma_zero():
    # Only gamma = 1 degenerates the second solution; at gamma = 0 it is
    # z Hl[gamma = 2], the limit of its neighbours.
    def second(gamma):
        p = HeunParams(a=0.5, q=0.3 + 0.1j, alpha=-1, beta=0, gamma=gamma, delta=1.2)
        return second_solution(p, 0.1 + 0.05j)

    v0, d0 = second(0.0)
    for g in (1e-6, -1e-6):
        v, d = second(g)
        assert abs(v - v0) <= 1e-5 * abs(v0)
        assert abs(d - d0) <= 1e-5 * abs(d0)


@pytest.mark.parametrize("gamma", [2.0, 3.0])
def test_second_solution_error_names_stage_and_caller_gamma(gamma):
    # The shifted series would have gamma = 0 or -1; the error must name the
    # second solution's stage and the gamma the caller passed.
    p = HeunParams(a=0.5, q=0.3, alpha=-1, beta=0, gamma=gamma, delta=0.8)
    with pytest.raises(DegenerateGammaError,
                       match=rf"^second_solution_params: gamma = \({gamma:g}\+0j\)"):
        second_solution_params(p)


# ---------------------------------------------------------------------------
# Continuation
# ---------------------------------------------------------------------------


def test_continuation_agrees_with_series_on_overlap():
    p = ur1_params()
    z = 0.3 + 0.2j  # inside the disk but past the series-dispatch radius
    v_series, d_series = heun_series(p, z)
    v_cont, d_cont = heun_eval(p, z)
    assert abs(v_cont - v_series) <= 1e-12 * abs(v_series)
    assert abs(d_cont - d_series) <= 1e-11 * abs(d_series)


def test_continuation_matches_ode_at_matching_point():
    # z = (1+i)/2 has |z| ~ 0.707, outside the convergence disk.
    p = ur1_params()
    z = 0.5 + 0.5j
    v, _ = heun_eval(p, z)
    v_ode = integrate_heun(p, default_path(p, z))[0][-1]
    assert abs(v - v_ode) <= 1e-8 * abs(v_ode)


def test_continuation_matches_ode_uright12():
    p = uright12_params()
    z = 0.5 - 0.5j
    v, _ = heun_eval(p, z)
    v_ode = integrate_heun(p, default_path(p, z))[0][-1]
    assert abs(v - v_ode) <= 1e-8 * abs(v_ode)


@pytest.mark.parametrize("z", [0.5 + 0.5j, 0.5 - 0.5j])
def test_second_solution_continues_beyond_disk(z):
    shifted = second_solution_params(ur1_params())
    h, _ = heun_eval(shifted, z)
    h_ode = integrate_heun(shifted, default_path(shifted, z))[0][-1]
    assert abs(h - h_ode) <= 1e-8 * abs(h_ode)


def test_path_independence_of_homotopic_paths():
    # A target batch steps through its inner targets on the way to z, so
    # these reach z by three homotopic polylines.
    p = ur1_params()
    z = 0.5 + 0.5j
    v, _ = heun_eval(p, z)
    for via in (0.2 + 0.6j, -0.2 + 0.4j):
        values, _ = heun_eval(p, np.array([z, via]))
        assert abs(values[0] - v) <= 1e-8 * abs(v)


def test_path_crossing_cut_rejected():
    # From the upper to the lower half-plane across the real axis right of a.
    p = ur1_params()
    with pytest.raises(PathError, match=r"^segment \(0\.6\+0\.1j\) -> \(0\.9-0\.2j\) crosses the "
                                        r"branch cut"):
        heun_eval(p, np.array([0.9 - 0.2j, 0.6 + 0.1j]))


def test_path_clearance_enforced():
    # Every target is 0.2 from a = 1/2, but the segment between them passes
    # within 0.05 of it.
    p = ur1_params()
    with pytest.raises(PathError, match=r"^segment \(0\.3\+0\.05j\) -> \(0\.7\+0\.05j\) comes "
                                        r"closer than 0\.1 to a singularity"):
        heun_eval(p, np.array([0.7 + 0.05j, 0.3 + 0.05j]))


def test_default_path_detours_near_singular_targets():
    # A target close to z = 1 is reached through the matching point w on its
    # side of the real axis, on w's own path: straight from the disk, it would
    # pass near a = 1/2.  A target not right of a, as w, is one straight segment.
    p = ur1_params()
    for z, w in ((0.97 + 0.02j, 0.5 + 0.5j), (0.97 - 0.02j, 0.5 - 0.5j)):
        path = default_path(p, z)
        assert default_path(p, w) == (0.225 * w / abs(w), w) and path == default_path(p, w) + (z,)
        v, _ = heun_eval(p, z)
        v_ode = integrate_heun(p, path)[0][-1]
        assert abs(v - v_ode) <= 1e-7 * abs(v_ode)


@pytest.mark.parametrize("z,text", [(1.0, r"\(1\+0j\)"), (0.5, r"\(0\.5\+0j\)")])
def test_singular_target_raises_path_error(z, text):
    # z = 1 and z = a: no path reaches a singular point.
    p = ur1_params()
    for target in (z, np.array([0.1j, z])):
        with pytest.raises(PathError, match=rf"^continuation target {text} is a singular point"):
            heun_eval(p, target)


@pytest.mark.parametrize("z", [1 / (1 + 1j * math.exp(1.0)), 0.97 + 0.02j])
def test_one_target_batch_is_the_scalar_call(z):
    # One routine builds the chain for one target and many: a batch of one
    # takes the same path, through the matching point right of a, to the same bits.
    p = ur1_params()
    value, deriv = heun_eval(p, np.array([z]))
    assert (value[0], deriv[0]) == heun_eval(p, z)


def test_non_finite_z_raises_domain_error():
    p = ur1_params()
    for bad in (complex("nan"), complex("inf"), complex(0.1, float("-inf"))):
        with pytest.raises(DomainError, match=r"^heun_eval: non-finite z"):
            heun_eval(p, bad)
        with pytest.raises(DomainError, match=r"^heun_series: non-finite z"):
            heun_series(p, bad)
    with pytest.raises(DomainError, match=r"^heun_eval: non-finite z = \(nan\+0j\)"):
        heun_eval(p, np.array([0.1, 0.5 + 0.5j, complex("nan")]))
    with pytest.raises(DomainError, match=r"^heun_series: non-finite z = \(inf\+0j\)"):
        heun_series(p, np.array([0.1, complex("inf")]))


@pytest.mark.parametrize("a,z", [(2.0, 1.5 + 0.3j), (0.5 + 0.4j, 0.6 + 0.8j), (-0.5, -0.8 + 0.1j)])
def test_continuation_needs_real_a_between_0_and_1(a, z):
    # The cut check assumes the cut [a, +inf) covers z = 1, which holds only
    # for a real a in (0, 1); elsewhere two admissible paths can disagree.
    p = HeunParams(a=a, q=0.3, alpha=-1, beta=0, gamma=1.2, delta=0.8)
    with pytest.raises(DomainError, match=r"^heun_eval: .*real a in \(0, 1\).*a = "):
        heun_eval(p, z)
    with pytest.raises(DomainError, match=r"^heun_eval: .*real a in \(0, 1\)"):
        heun_eval(p, np.array([0.1j, z]))
    # Series-only calls take any a.
    inner = 0.2 * p.radius * z / abs(z)
    assert heun_eval(p, inner) == heun_series(p, inner)


def test_pipeline_evaluates_at_one_tolerance():
    # The evaluation accuracy is heun.TOL, fixed in one place: no public
    # function of the pipeline layers takes a tol argument.
    for layer in ("heun", "soliton", "scattering", "spectrum"):
        mod = importlib.import_module(f"kinkdirac.{layer}")
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                assert "tol" not in inspect.signature(fn).parameters, f"{layer}.{name}"
