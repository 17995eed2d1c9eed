"""Local Heun function evaluation.

Implements the power series of the local Heun function Hl (normalized so that
Hl(0) = 1), the parameter set of the second local solution z^(1-gamma)
Hl[shifted] (its power is applied by the caller), and analytic continuation
of (Hl, Hl') to the cut plane by chained Taylor re-expansion of the defining
ODE

    H'' + (gamma/z + delta/(z-1) + epsilon/(z-a)) H'
        + (alpha*beta*z - q) / (z (z-1) (z-a)) H = 0,

with epsilon fixed by the Fuchs relation epsilon = alpha+beta+1-gamma-delta
(so z = infinity stays a regular singular point).  The principal branch is
used for all fractional powers; the branch cut runs along the real axis from
a to +infinity.

Each function takes one parameter set or a batch: any of q, alpha, beta,
gamma, delta a 1-D numpy array.  A batch shares a and z, so the path and its
steps.  An element stops adding terms where it would stop alone:
heun_series runs its loop once over all elements and zeroes a stopped
element's new coefficients; taylor_step runs blocks of TAYLOR_BLOCK terms
and takes each element's value from its partial sum at its own stopping
term.  Every operation acts per element, so a batch element equals its
one-element batch bit for bit.  One set stays on Python complex arithmetic,
which equals the batch value to rounding.
heun_series and heun_eval also take a numpy array of z.  heun_eval reaches
the targets beyond the series dispatch radius by one Taylor chain on one
fixed rule: default_path to the target farthest from z = 1, through
w = a(1 +- i) if that target lies right of a, then straight through the
others in order of decreasing |1 - z|.  It validates that polyline once.
Of the package it imports only kinkdirac.errors.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

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
# A batched Taylor step runs its recurrence in blocks of this many terms.
TAYLOR_BLOCK = 16
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

# numpy's names for the same functions on Python numbers.
_ONE = SimpleNamespace(all=bool, any=bool, maximum=max, exp=cmath.exp, sqrt=cmath.sqrt,
                       angle=cmath.phase, hypot=math.hypot, isfinite=cmath.isfinite,
                       asarray=lambda v, dtype: dtype(v))
# numpy's own, with all and any reducing at half the cost of np.all and np.any.
_NP = SimpleNamespace(**{**{name: getattr(np, name) for name in vars(_ONE)},
                         "all": functools.partial(np.logical_and.reduce, axis=None),
                         "any": functools.partial(np.logical_or.reduce, axis=None)})


def _xp(*values):
    """_NP if any value is a numpy array (a batch), else _ONE: the one type
    check.  Stopping and error tests ask through it whether they hold for
    all (or any) elements."""
    for v in values:
        if isinstance(v, np.ndarray):
            return _NP
    return _ONE


def _first_failure(ok, *values):
    """The values, as Python numbers, at the first element where ok fails."""
    i = np.flatnonzero(np.logical_not(ok))[0]
    return [np.broadcast_to(v, np.shape(ok)).flat[i].item() for v in values]


def _element(params: HeunParams, ok) -> HeunParams:
    """The parameter set of the first element where ok fails, for error messages."""
    return HeunParams(params.a, *_first_failure(ok, params.q, params.alpha, params.beta,
                                                params.gamma, params.delta))


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
    _ops: object = field(init=False, repr=False, compare=False)  # _xp of this set or batch

    def __post_init__(self):
        xp = _xp(self.q, self.alpha, self.beta, self.gamma, self.delta)
        object.__setattr__(self, "_ops", xp)
        for name in ("a", "q", "alpha", "beta", "gamma", "delta"):
            v = complex(self.a) if name == "a" else xp.asarray(getattr(self, name), complex)
            if not xp.all(xp.isfinite(v)):
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


def _check_gamma(params: HeunParams, stage: str, positive: bool) -> None:
    """Raise DegenerateGammaError naming stage where gamma lies within
    GAMMA_INTEGER_TOL of a positive integer (positive) or of a non-positive one."""
    g = params.gamma
    nearest = (g.real + 0.5) // 1
    ok = ((nearest > 0) != positive) | (abs(g - nearest) >= GAMMA_INTEGER_TOL)
    if not params._ops.all(ok):
        g, nearest = _first_failure(ok, g, nearest)
        raise DegenerateGammaError(
            f"{stage}: gamma = {g} is within {GAMMA_INTEGER_TOL} of the degenerate value "
            f"{nearest:.0f} ({_element(params, ok)})"
        )


def heun_series(params: HeunParams, z: complex):
    """Evaluate (Hl(z), Hl'(z)) by the defining power series about z = 0.

    Returns (value, derivative).  Converged when three consecutive terms fall
    below TOL * |partial sum|; each element of a batch, of parameters or of z
    (a numpy array, broadcast against them), adds no terms after that, and the
    sum ends when every element has.  An exact Heun polynomial (R_n = 0 and
    h_{n+1} = 0) needs no cut: its zero terms end the sum.
    """
    z, ops = (z.astype(complex), _NP) if isinstance(z, np.ndarray) else (complex(z), params._ops)
    if not ops.all(ops.isfinite(z)):
        raise DomainError(f"heun_series: non-finite z = {_first_failure(ops.isfinite(z), z)[0]}")
    rad = params.radius
    if ops.any(abs(z) > DISK_MARGIN * rad):
        raise DomainError(
            f"|z| = {np.max(abs(z)):.6g} exceeds {DISK_MARGIN} * min(|a|, 1) = {DISK_MARGIN * rad:.6g}"
        )
    _check_gamma(params, "heun_series", positive=False)  # the recurrence divides by n + gamma
    every, some, maximum = ops.all, ops.any, ops.maximum

    h_prev, h_cur = 0j, 1.0 + 0j
    value = 1.0 + 0j
    deriv = 0j
    zn = 1.0 + 0j  # z**n
    streak, live = 0, True  # live is False for the elements that have stopped
    # R_{n-1}, R_n and P_n carried forward; each term needs one new call.
    R_prev = 0j
    R_n, P_n, _ = recurrence_coeffs(params, 0)
    for n in range(N_MAX_SERIES):
        R_next, P_next, Q_next = recurrence_coeffs(params, n + 1)
        h_next = -(R_prev * h_prev + P_n * h_cur) / Q_next
        h_add = h_next if live is True else h_next * live
        term = h_add * zn * z
        value += term
        deriv = deriv + (n + 1) * h_add * zn  # not +=: a z batch may widen it
        zn *= z
        streak = (streak + 1) * (abs(term) < TOL * maximum(abs(value), _TINY))
        if some(streak >= 3):
            if every(streak >= 3):
                return value, deriv
            live = streak < 3
        h_prev, h_cur = h_cur, h_next
        R_prev, R_n, P_n = R_n, R_next, P_next
    raise ConvergenceError(
        f"heun_series: no convergence within {N_MAX_SERIES} terms at "
        f"z = {_first_failure(streak >= 3, z)[0]} for {_element(params, streak >= 3)}"
    )


def second_solution_params(params: HeunParams) -> HeunParams:
    """Parameter set of the second local solution z^(1-gamma) Hl[shifted](z).

    Shift: q -> q + (epsilon + delta*a)(1 - gamma), alpha -> alpha - gamma + 1,
    beta -> beta - gamma + 1, gamma -> 2 - gamma, delta unchanged.  Raises
    DegenerateGammaError, naming the gamma passed in, where the second solution
    degenerates: it coincides with the first at gamma = 1 (equal exponents, the
    logarithmic case), and at gamma = 2, 3, ... its shifted series has
    gamma = 0, -1, ...
    """
    _check_gamma(params, "second_solution_params", positive=True)
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


def _clearance(params: HeunParams, points) -> float:
    """The clearance a path through points keeps from {0, 1, a}: MIN_CLEARANCE,
    reduced to half the least distance of a point from one of them."""
    return min(MIN_CLEARANCE, 0.5 * np.abs(np.subtract.outer(points, params.singularities)).min())


def default_path(params: HeunParams, z_target: complex) -> tuple[complex, ...]:
    """Waypoints to z_target on one fixed rule: a target right of a is reached
    through w = a(1 +- i) on its side of the real axis (for a = 1/2 the
    matching point), so no chord runs close past a toward z = 1.  The path
    leaves the series disk at r0 = DISK_MARGIN/2 times its radius on the ray
    toward its first waypoint and is straight from there."""
    z_target = complex(z_target)
    if z_target in params.singularities:
        raise PathError(f"continuation target {z_target} is a singular point")
    waypoints = (z_target,)
    if z_target.real > params.a.real:
        waypoints = (params.a * (1 + 1j if z_target.imag >= 0 else 1 - 1j), z_target)
    first = waypoints[0]
    return (0.5 * DISK_MARGIN * params.radius * first / abs(first),) + waypoints


def _expansion(params: HeunParams, z0: complex):
    """The ODE in polynomial form A u'' + B u' + C u = 0 re-expanded about z0:
    A = z(z-1)(z-a), B = gamma(z-1)(z-a) + delta z(z-a) + epsilon z(z-1),
    C = alpha beta z - q, each as its Taylor coefficients (lowest first)."""
    a = params.a
    ga, de, eps = params.gamma, params.delta, params.epsilon
    A = (z0 * (z0 - 1) * (z0 - a), 3 * z0 * z0 - 2 * (1 + a) * z0 + a, 3 * z0 - (1 + a), 1.0 + 0j)
    if A[0] == 0:
        raise PathError(f"Taylor expansion point {z0} is a singularity")
    b2 = ga + de + eps
    b1 = -(ga * (1 + a) + de * a + eps)
    b0 = ga * a
    B = (b2 * z0 * z0 + b1 * z0 + b0, 2 * b2 * z0 + b1, b2)
    C = (params.alpha * params.beta * z0 - params.q, params.alpha * params.beta)
    return A, B, C


# A diverging element overflows to inf or nan and fails its stopping test, as
# on Python numbers, which do not warn either.
@np.errstate(over="ignore", invalid="ignore")
def taylor_step(params: HeunParams, z0: complex, value: complex, deriv: complex, z1: complex):
    """Advance the solution (value, deriv) at z0 to z1 by local Taylor expansion.

    The coefficients follow from the ODE's A, B, C about z0 (_expansion); the
    sum stops after three consecutive terms below TOL times the partial sum,
    within N_MAX_TAYLOR terms.  One parameter set runs a loop on Python
    numbers, a batch runs blocks of TAYLOR_BLOCK terms (_taylor_blocks): a
    three-term update per term, the sums, stopping tests and dropping of
    stopped elements once per block.  Each element stops at its own term.
    """
    A, B, C = _expansion(params, z0)
    if params._ops is not _ONE:
        return _taylor_blocks(params, A, B, C, z0, value, deriv, z1)
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
        streak = (streak + 1) * (abs(term) < TOL * max(abs(val), _TINY))
        if streak >= 3:
            return val, dv
    raise ConvergenceError(
        f"taylor_step: no convergence from {z0} to {z1} within {N_MAX_TAYLOR} terms for {params}"
    )


def _taylor_blocks(params: HeunParams, A, B, C, z0, value, deriv, z1):
    """taylor_step over a batch, TAYLOR_BLOCK terms at a time.

    c_{m+2} = U_m c_{m+1} + V_m c_m + W_m c_{m-1}: a block computes its
    weights as 2-D arrays (terms x elements), then only this update per
    term.  Once per block it forms the partial sums (each element's terms
    added in order; np.cumsum took 2-7 times as long), tests them term by
    term and drops the stopped elements, whose (value, deriv) are the
    partial sums at their stopping term.  Every operation acts per element,
    so an element gives the bits it gives as a batch of one.
    """
    t, n = z1 - z0, value.size
    whole = np.empty((2, n), complex)  # every element's (value, deriv)
    index = np.arange(n)  # the batch positions still carried
    coeffs = np.array([np.broadcast_to(v, (n,)) for v in (*B, *C)])  # B0, B1, B2, C0, C1
    c3 = np.array([np.zeros(n, complex), value, deriv])  # c_{m-1}, c_m, c_{m+1} entering term m
    sums = np.array([value + deriv * t, deriv])  # the partial sums of (value, deriv)
    small = np.zeros((2, n), bool)  # the stopping test at the last two terms
    tn = t  # t**(m+1) entering term m
    # Each block's weights (W, V, U), terms and coefficients are views of one
    # workspace: fresh arrays of that size cost ~1400 page faults a sweep.
    work = np.empty((TAYLOR_BLOCK + 3, 6, n), complex)
    for m0 in range(0, N_MAX_TAYLOR, TAYLOR_BLOCK):
        m = np.arange(m0, min(m0 + TAYLOR_BLOCK, N_MAX_TAYLOR))[:, None]
        r1 = -1 / (A[0] * (m + 2))
        r2 = r1 / (m + 1)
        b0, b1, b2, c0, c1 = coeffs
        block = work[:m.size + 3, :, :index.size]
        W, V, U, c = block[:-3, 0], block[:-3, 1], block[:-3, 2], block[:, 5]
        np.multiply(b2, m - 1, out=W)
        W += (m - 1) * (m - 2)  # A[3] = 1
        W += c1
        W *= r2
        np.multiply(b1, m, out=V)
        V += A[2] * (m * (m - 1))
        V += c0
        V *= r2
        np.add(b0, A[1] * m, out=U)
        U *= r1
        c[:3] = c3
        for i, w in enumerate(block[:-3, :3]):  # W, V, U in the order of c
            p = w * c[i:i + 3]
            np.add(p[0] + p[1], p[2], out=c[i + 3])
        powers = [tn]
        for _ in range(m.size):
            powers.append(powers[-1] * t)
        tn = powers[-1]
        powers = np.array(powers)
        factors = np.array([powers[1:], (m[:, 0] + 2) * powers[:-1]]).T  # of (value, deriv)
        partial = np.multiply(factors[:, :, None], c[3:, None], out=block[:-3, 3:5])
        size = abs(partial[:, 0])  # of the terms, which become the partial sums in place
        for term in partial:  # each element adds its terms in order
            sums = np.add(sums, term, out=term)
        sums, c3 = sums.copy(), c[-3:]
        small = np.concatenate([small, size < TOL * np.maximum(abs(partial[:, 0]), _TINY)])
        three = small[2:] & small[1:-1] & small[:-2]  # three consecutive small terms end at each
        small = small[-2:]
        stop = np.logical_or.reduce(three, axis=0)
        if stop.any():
            done = np.flatnonzero(stop)
            whole[:, index[done]] = partial[three[:, done].argmax(axis=0), :, done].T
            if done.size == index.size:
                return whole[0], whole[1]
            keep = np.flatnonzero(~stop)
            index, coeffs, sums, small = index[keep], coeffs[:, keep], sums[:, keep], small[:, keep]
            c3 = c3[:, keep]
    stopped = ~np.isin(np.arange(n), index)
    raise ConvergenceError(
        f"taylor_step: no convergence from {z0} to {z1} within {N_MAX_TAYLOR} terms "
        f"for {_element(params, stopped)}"
    )


def _chain(params: HeunParams, start: complex, targets):
    """Yield (Hl, Hl') at each target: the series at start, then Taylor steps."""
    sings = params.singularities
    value, deriv = heun_series(params, start)
    zc = start
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
        yield value, deriv


def heun_eval(params: HeunParams, z):
    """Evaluate (Hl(z), Hl'(z)) anywhere in the cut plane.

    z is one point, or a numpy array of targets (of any shape, which the
    results take) for one parameter set.  The targets within r0 =
    DISK_MARGIN/2 times the series radius are one series call.  The others
    are one Taylor chain: along default_path to the one farthest from z = 1,
    then straight from target to target in order of decreasing |1 - z| (on
    the maps' arc the order of |z|, whose values tie at 1.0 near z = 1).
    That polyline is validated once: no segment crosses the cut, and each
    keeps MIN_CLEARANCE from {0, 1, a}, or half the least distance of the
    disk point or a target from them if that is less.  The cut [a, +inf) covers
    z = 1 too only for a real a in (0, 1), so continuation needs such an a.
    """
    zs = np.ravel(z).astype(complex)
    if not np.isfinite(zs).all():
        raise DomainError(f"heun_eval: non-finite z = {_first_failure(np.isfinite(zs), zs)[0]}")
    if isinstance(z, np.ndarray) and params._ops is not _ONE:
        raise ValueError("a batch of targets takes one parameter set")
    inner = abs(zs) <= 0.5 * DISK_MARGIN * params.radius
    outer = np.flatnonzero(~inner)[np.argsort(-abs(1.0 - zs[~inner]), kind="stable")]
    if outer.size:
        if params.a.imag != 0 or not 0 < params.a.real < 1:
            raise DomainError(f"heun_eval: continuation beyond the series disk needs a real a in "
                              f"(0, 1), where the cut [a, +inf) covers z = 1; a = {params.a}")
        targets = zs[outer].tolist()
        chain = default_path(params, targets[0]) + tuple(targets[1:])
        fault = _path_fault(params, chain, _clearance(params, [chain[0]] + targets))
        if fault is not None:
            raise PathError(fault)
        reached = list(_chain(params, chain[0], chain[1:]))[-len(targets):]
    if not isinstance(z, np.ndarray):
        return reached[0] if outer.size else heun_series(params, complex(z))
    value, deriv = np.empty((2,) + zs.shape, complex)
    if inner.any():
        value[inner], deriv[inner] = heun_series(params, zs[inner])
    if outer.size:
        value[outer], deriv[outer] = np.array(reached).T
    return value.reshape(np.shape(z)), deriv.reshape(np.shape(z))
