"""Local Heun function evaluation.

Implements the power series of the local Heun function Hl (normalized so that
Hl(0) = 1), the second local solution z^(1-gamma) * Hl(shifted parameters),
and analytic continuation of (Hl, Hl') to the cut plane by chained Taylor
re-expansion of the defining ODE

    H'' + (gamma/z + delta/(z-1) + epsilon/(z-a)) H'
        + (alpha*beta*z - q) / (z (z-1) (z-a)) H = 0,

with epsilon fixed by the Fuchs relation epsilon = alpha+beta+1-gamma-delta
(so z = infinity stays a regular singular point).  The principal branch is
used for all fractional powers; the branch cut runs along the real axis from
a to +infinity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import (
    ConvergenceError,
    DegenerateGammaError,
    DomainError,
    PathError,
)

# Hard cap on the number of power-series terms.
N_MAX_SERIES = 10_000
# Term cap for a single Taylor re-expansion step during continuation.
N_MAX_TAYLOR = 1_200
# Refuse direct series evaluation beyond this fraction of the convergence radius.
DISK_MARGIN = 0.9
# Each continuation step moves at most this fraction of the distance to the
# nearest singularity.
STEP_FRACTION = 0.5
# Required clearance of a default continuation path from {0, 1, a} (absolute,
# reduced adaptively when the target itself sits close to a singularity).
MIN_CLEARANCE = 0.1
# |gamma - nearest integer| below this counts as that integer (degenerate case).
GAMMA_INTEGER_TOL = 1e-13
# Series and Taylor sums stop after three consecutive terms below TOL times
# the partial sum: the one accuracy the whole pipeline evaluates at.
TOL = 1e-13

_TINY = 1e-300


def _is_finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass(frozen=True)
class HeunParams:
    """The six Heun parameters plus the derived epsilon (Fuchs relation)."""

    a: complex
    q: complex
    alpha: complex
    beta: complex
    gamma: complex
    delta: complex
    epsilon: complex = field(init=False)

    def __post_init__(self):
        for name in ("a", "q", "alpha", "beta", "gamma", "delta"):
            v = complex(getattr(self, name))
            if not _is_finite(v):
                raise DomainError(f"non-finite Heun parameter {name} = {v}")
            object.__setattr__(self, name, v)
        if self.a == 0 or self.a == 1:
            raise DomainError(f"third singularity a = {self.a} must avoid 0 and 1")
        eps = self.alpha + self.beta + 1 - self.gamma - self.delta
        object.__setattr__(self, "epsilon", eps)

    @property
    def singularities(self) -> tuple[complex, complex, complex]:
        return (0j, 1 + 0j, self.a)

    @property
    def radius(self) -> float:
        """Radius of convergence of the series about z = 0."""
        return min(abs(self.a), 1.0)


@dataclass(frozen=True)
class SeriesState:
    """Coefficients and diagnostics of one power-series evaluation."""

    coefficients: tuple[complex, ...]
    n_used: int
    truncated: bool


def recurrence_coeffs(params: HeunParams, n: int) -> tuple[complex, complex, complex]:
    """Three-term recurrence coefficients (R_n, P_n, Q_n).

    The series coefficients h_n of Hl satisfy
    R_{n-1} h_{n-1} + P_n h_n + Q_{n+1} h_{n+1} = 0 with h_0 = 1, h_{-1} = 0.
    """
    if n < 0:
        raise ValueError("recurrence index n must be >= 0")
    a, q = params.a, params.q
    al, be, ga, de, eps = params.alpha, params.beta, params.gamma, params.delta, params.epsilon
    R = (n + al) * (n + be)
    P = -q - n * (n - 1 + ga) * (1 + a) - n * (a * de + eps)
    Q = a * n * (n - 1 + ga)
    return R, P, Q


def check_gamma_nondegenerate(params: HeunParams, second: bool = False) -> None:
    """Raise DegenerateGammaError where gamma makes the requested solution
    degenerate.

    The series recurrence divides by Q_{n+1} = a (n+1)(n+gamma), so gamma at a
    non-positive integer makes some Q vanish.  The second solution
    z^(1-gamma) Hl[shifted] coincides with the first at gamma = 1 (equal
    exponents, the logarithmic case), and at gamma = 2, 3, ... its shifted
    series has gamma = 0, -1, ...
    """
    g = params.gamma
    nearest = round(g.real)
    if (nearest >= 1 if second else nearest <= 0) and abs(g - nearest) < GAMMA_INTEGER_TOL:
        stage = "heun_second_solution" if second else "heun_series"
        raise DegenerateGammaError(
            f"{stage}: gamma = {g} is within {GAMMA_INTEGER_TOL} of the degenerate value {nearest}"
        )


def heun_series(params: HeunParams, z: complex):
    """Evaluate (Hl(z), Hl'(z)) by the defining power series about z = 0.

    Returns (value, derivative, SeriesState).  Converged when three
    consecutive terms fall below TOL * |partial sum|.
    """
    z = complex(z)
    rad = params.radius
    if abs(z) > DISK_MARGIN * rad:
        raise DomainError(
            f"|z| = {abs(z):.6g} exceeds {DISK_MARGIN} * min(|a|, 1) = {DISK_MARGIN * rad:.6g}"
        )
    check_gamma_nondegenerate(params)

    coeffs = [1.0 + 0j]
    h_prev, h_cur = 0j, 1.0 + 0j
    value = 1.0 + 0j
    deriv = 0j
    zn = 1.0 + 0j  # z**n
    streak = 0
    truncated = False
    # R_{n-1}, R_n and P_n carried forward; each term needs one new call.
    R_prev = 0j
    R_n, P_n, _ = recurrence_coeffs(params, 0)
    for n in range(N_MAX_SERIES):
        R_next, P_next, Q_next = recurrence_coeffs(params, n + 1)
        h_next = -(R_prev * h_prev + P_n * h_cur) / Q_next
        if R_n == 0 and abs(h_next) < 1e-12 * max(
            abs(h_cur), abs(h_prev), 1e-300
        ):
            # Polynomial case: h_{n+1} = 0 (to rounding) with alpha or beta = -n
            # kills the whole tail of the recurrence.
            coeffs.append(0j)
            return value, deriv, SeriesState(tuple(coeffs), n + 1, True)
        coeffs.append(h_next)
        term = h_next * zn * z
        value += term
        deriv += (n + 1) * h_next * zn
        zn *= z
        if abs(term) < TOL * max(abs(value), _TINY):
            streak += 1
            if streak >= 3:
                return value, deriv, SeriesState(tuple(coeffs), n + 1, truncated)
        else:
            streak = 0
        h_prev, h_cur = h_cur, h_next
        R_prev, R_n, P_n = R_n, R_next, P_next
    raise ConvergenceError(
        f"Heun series did not converge within {N_MAX_SERIES} terms at z = {z}"
    )


def second_solution_params(params: HeunParams) -> HeunParams:
    """Parameter set of the second local solution z^(1-gamma) Hl[shifted](z).

    Shift: q -> q + (epsilon + delta*a)(1 - gamma), alpha -> alpha - gamma + 1,
    beta -> beta - gamma + 1, gamma -> 2 - gamma, delta unchanged.
    """
    a, q = params.a, params.q
    ga = params.gamma
    q_s = q + (params.epsilon + params.delta * a) * (1 - ga)
    return HeunParams(
        a=a,
        q=q_s,
        alpha=params.alpha - ga + 1,
        beta=params.beta - ga + 1,
        gamma=2 - ga,
        delta=params.delta,
    )


def heun_second_solution(params: HeunParams, z: complex):
    """Second local solution z^(1-gamma) Hl[shifted](z) and its derivative.

    Hl[shifted] comes from heun_eval, so it is continued beyond the series
    disk like the first solution; z^(1-gamma) is the principal branch.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("second solution is singular (fractional power) at z = 0")
    check_gamma_nondegenerate(params, second=True)
    h, dh = heun_eval(second_solution_params(params), z)
    power = 1 - params.gamma
    w = cmath.exp(power * cmath.log(z))
    value = w * h
    deriv = w * (dh + power / z * h)
    return value, deriv


# ---------------------------------------------------------------------------
# Analytic continuation
# ---------------------------------------------------------------------------


def _seg_point_distance(p: complex, q: complex, s: complex) -> float:
    """Distance from point s to the segment [p, q]."""
    d = q - p
    L2 = abs(d) ** 2
    if L2 == 0:
        return abs(s - p)
    t = ((s - p) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return abs(s - (p + t * d))


def _segment_clearance(p: complex, q: complex, sings) -> float:
    return min(_seg_point_distance(p, q, s) for s in sings)


def _segment_crosses_cut(p: complex, q: complex, a: complex) -> bool:
    """Does the segment [p, q] cross the branch cut [Re(a), +inf) on the real axis?"""
    cut_start = a.real
    for end in (p, q):
        if end.imag == 0 and end.real >= cut_start:
            return True
    if p.imag == 0 or q.imag == 0:
        return False
    if (p.imag > 0) == (q.imag > 0):
        return False
    t = p.imag / (p.imag - q.imag)
    x_cross = p.real + t * (q.real - p.real)
    return x_cross >= cut_start - 1e-15


def _path_fault(params: HeunParams, waypoints, clearance: float) -> str | None:
    """Why the polyline through waypoints is not an admissible continuation
    path, or None: every segment keeps clearance from {0, 1, a} and none
    crosses the cut [a, +inf)."""
    for p, q in zip(waypoints, waypoints[1:]):
        if _segment_clearance(p, q, params.singularities) < clearance * (1 - 1e-12):
            return f"segment {p} -> {q} comes closer than {clearance:.3g} to a singularity"
        if _segment_crosses_cut(p, q, params.a):
            return f"segment {p} -> {q} crosses the branch cut [a, +inf)"
    return None


@dataclass(frozen=True)
class ContinuationPath:
    """Piecewise-linear continuation path through the cut plane."""

    waypoints: tuple[complex, ...]
    min_singularity_distance: float

    def __post_init__(self):
        object.__setattr__(self, "waypoints", tuple(complex(w) for w in self.waypoints))
        if len(self.waypoints) < 1:
            raise PathError("a continuation path needs at least one waypoint")

    def validate(self, params: HeunParams) -> None:
        fault = _path_fault(params, self.waypoints, self.min_singularity_distance)
        if fault is not None:
            raise PathError(fault)


def default_path(params: HeunParams, z_target: complex) -> ContinuationPath:
    """Straight segment from a point inside the series disk, or a two-segment
    perpendicular detour when the straight segment lacks clearance."""
    z_target = complex(z_target)
    sings = params.singularities
    rad = params.radius
    r0 = 0.5 * DISK_MARGIN * rad
    if abs(z_target) <= r0:
        return ContinuationPath((z_target,), min(abs(z_target - s) for s in sings))
    z0 = r0 * z_target / abs(z_target)
    d_target = min(abs(z_target - s) for s in sings)
    d_start = min(abs(z0 - s) for s in sings)
    if d_target == 0:
        raise PathError(f"continuation target {z_target} is a singular point")
    required = min(MIN_CLEARANCE, 0.5 * d_target, 0.5 * d_start)

    def candidates():
        yield (z0, z_target)
        # Two-segment detour through a perpendicular offset of the midpoint,
        # preferring the half-plane of the target (never toward the cut).
        direction = (z_target - z0) / abs(z_target - z0)
        perp = 1j * direction
        sign_pref = 1.0 if z_target.imag >= 0 else -1.0
        if (perp * sign_pref).imag < 0:
            sign_pref = -sign_pref
        mid = 0.5 * (z0 + z_target)
        span = abs(z_target - z0)
        for sign in (sign_pref, -sign_pref):
            for frac in (0.3, 0.5, 0.8, 1.2):
                yield (z0, mid + sign * perp * frac * span, z_target)

    for pts in candidates():
        if _path_fault(params, pts, required) is None:
            clear = min(_segment_clearance(p, q, sings) for p, q in zip(pts, pts[1:]))
            return ContinuationPath(pts, min(required, clear))
    raise PathError(f"no admissible default path from {z0} to {z_target}")


def taylor_step(params: HeunParams, z0: complex, value: complex, deriv: complex, z1: complex):
    """Advance the solution (value, deriv) at z0 to z1 by local Taylor expansion.

    Coefficients follow from the ODE in polynomial form A u'' + B u' + C u = 0
    with A = z(z-1)(z-a), B = gamma(z-1)(z-a) + delta z(z-a) + epsilon z(z-1),
    C = alpha beta z - q, re-expanded about z0.
    """
    a = params.a
    ga, de, eps = params.gamma, params.delta, params.epsilon
    al, be, q = params.alpha, params.beta, params.q
    # A(z) about z0.
    A = (
        z0 * (z0 - 1) * (z0 - a),
        3 * z0 * z0 - 2 * (1 + a) * z0 + a,
        3 * z0 - (1 + a),
        1.0 + 0j,
    )
    # B(z) = b2 z^2 + b1 z + b0 about z0.
    b2 = ga + de + eps
    b1 = -(ga * (1 + a) + de * a + eps)
    b0 = ga * a
    B = (b2 * z0 * z0 + b1 * z0 + b0, 2 * b2 * z0 + b1, b2)
    C = (al * be * z0 - q, al * be)
    if A[0] == 0:
        raise PathError(f"Taylor expansion point {z0} is a singularity")

    t = z1 - z0
    c = [value, deriv]
    val = c[0] + c[1] * t
    dv = c[1]
    tn = t  # t**(m+1) entering iteration m
    streak = 0
    for m in range(N_MAX_TAYLOR):
        s = 0j
        for j in range(1, min(3, m) + 1):
            s += A[j] * (m - j + 2) * (m - j + 1) * c[m - j + 2]
        for j in range(0, min(2, m) + 1):
            s += B[j] * (m - j + 1) * c[m - j + 1]
        for j in range(0, min(1, m) + 1):
            s += C[j] * c[m - j]
        c_new = -s / (A[0] * (m + 2) * (m + 1))
        c.append(c_new)
        tn *= t  # now t**(m+2)
        term = c_new * tn
        val += term
        dv += (m + 2) * c_new * (tn / t) if t != 0 else 0j
        if abs(term) < TOL * max(abs(val), _TINY):
            streak += 1
            if streak >= 3:
                return val, dv
        else:
            streak = 0
    raise ConvergenceError(
        f"Taylor re-expansion failed to converge from {z0} to {z1} "
        f"within {N_MAX_TAYLOR} terms"
    )


def heun_continue(params: HeunParams, z_target: complex, path: ContinuationPath | None = None):
    """Analytic continuation of (Hl, Hl') to z_target along a path.

    The path's first waypoint must lie inside the series disk; each segment is
    traversed by Taylor steps no longer than STEP_FRACTION times the distance
    to the nearest singularity.  A caller-supplied path is validated first.
    """
    z_target = complex(z_target)
    if path is None:
        path = default_path(params, z_target)
    else:
        path.validate(params)
    sings = params.singularities
    start = path.waypoints[0]
    if abs(start) > DISK_MARGIN * params.radius:
        raise DomainError(
            f"path start {start} lies outside the series disk of radius "
            f"{DISK_MARGIN * params.radius:.6g}"
        )
    value, deriv, _ = heun_series(params, start)
    zc = start
    targets = list(path.waypoints[1:])
    if not targets or targets[-1] != z_target:
        targets.append(z_target)
    for w_end in targets:
        guard = 0
        while zc != w_end:
            d = min(abs(zc - s) for s in sings)
            step = STEP_FRACTION * d
            if step < 1e-14:
                raise PathError(f"continuation stalled near singularity at z = {zc}")
            rem = w_end - zc
            z_next = w_end if abs(rem) <= step else zc + rem / abs(rem) * step
            value, deriv = taylor_step(params, zc, value, deriv, z_next)
            zc = z_next
            guard += 1
            if guard > 10_000:
                raise PathError(f"continuation exceeded the step budget toward {w_end}")
    return value, deriv


def heun_eval(params: HeunParams, z: complex):
    """Evaluate (Hl(z), Hl'(z)) anywhere in the cut plane.

    Uses the power series deep inside the convergence disk and chained Taylor
    continuation elsewhere.
    """
    z = complex(z)
    if abs(z) <= 0.5 * DISK_MARGIN * params.radius:
        value, deriv, _ = heun_series(params, z)
        return value, deriv
    return heun_continue(params, z)
