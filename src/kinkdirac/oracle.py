"""Independent validation pipeline.

Everything here deliberately avoids the Heun machinery: the second-order
equation

    u'' - 4iK sech(2Kx) u' + (E^2 - M^2 + 4EK sech(2Kx)) u = 0

is integrated directly in x with plane-wave boundary data, the scattering
coefficients are recovered from least-squares tail fits, and pointwise
residuals of the governing equations are measured by high-order finite
differences.  Agreement with the Wronskian-matched Heun pipeline is the
central correctness check of the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, StepFailure
from .heun import HeunParams
from .soliton import SolitonBackground, SpectralPoint, ratio_squared

# Asymptotic fit window in the scaled coordinate s = 2Kx: sech(s) < 1e-10 there.
TAIL_WINDOW = (25.0, 35.0)


@dataclass(frozen=True)
class ResidualReport:
    """Worst relative residual of the governing equations over a sample grid."""

    max_rel_residual: float
    worst_x: float
    samples: int


def _sech(s: float) -> float:
    e = math.exp(-abs(s))
    return 2.0 * e / (1.0 + e * e)


def integrate_u(bg: SolitonBackground, sp: SpectralPoint, x_start: float, x_end: float,
                u_init: complex, du_init: complex, x_eval=None, coupling_scale: float = 1.0,
                rel_tol: float = 1e-11, abs_tol: float = 1e-13):
    """Integrate the second-order u-equation from x_start to x_end (DOP853)
    and return the sampled solution as arrays (x, u, du).

    coupling_scale multiplies the sech terms; 0 detaches the kink entirely
    (free-propagation test double).
    """
    from scipy.integrate import solve_ivp  # here, so importing the CLI loads no scipy

    if x_start == x_end:
        raise ValueError("x_start and x_end must differ")
    if rel_tol <= 0 or abs_tol <= 0:
        raise ValueError("tolerances must be positive")
    K, E, M = bg.K, sp.E, bg.M
    c2 = E * E - M * M

    def rhs(x, y):
        sech = coupling_scale * _sech(2.0 * K * x)
        u, du = y[0], y[1]
        ddu = 4j * K * sech * du - (c2 + 4.0 * E * K * sech) * u
        return [du, ddu]

    t_eval = None if x_eval is None else np.asarray(x_eval, dtype=float)
    sol = solve_ivp(
        rhs,
        (x_start, x_end),
        [complex(u_init), complex(du_init)],
        method="DOP853",
        rtol=rel_tol,
        atol=abs_tol,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise StepFailure(f"direct integration failed: {sol.message}")
    return sol.t, sol.y[0], sol.y[1]


def _fit_tail(x: np.ndarray, u: np.ndarray, k: complex):
    """Least-squares amplitudes (A, B, residual) of u ~ A e^{ikx} + B e^{-ikx}."""
    ep = np.exp(1j * k * x)
    em = np.exp(-1j * k * x)
    design = np.column_stack([ep, em])
    coef, *_ = np.linalg.lstsq(design, u, rcond=None)
    resid = np.max(np.abs(design @ coef - u)) / max(np.max(np.abs(u)), 1e-300)
    return coef[0], coef[1], float(resid)


def extract_scattering(x: np.ndarray, u: np.ndarray, bg: SolitonBackground,
                       sp: SpectralPoint, kink_gauge: bool = True):
    """Recover (c1, c2) from the asymptotic tails of a sampled solution u(x).

    The samples must span |2Kx| >= 30 on both sides; the transmitted side
    (s -> +inf, where the transmitted wave is a pure e^{ikx}) normalizes the
    amplitudes.  With transmitted amplitude 1,

        u(x) -> c1 e^{-pi k/2K} e^{ikx} + c2 e^{-pi k/K} e^{-ikx}   (s -> -inf).

    kink_gauge=False skips the e^{pi k/2K} gauge factors (use together with a
    detached coupling, where free propagation must report c1 = 1, c2 = 0).
    """
    K, k = bg.K, sp.k
    s = 2.0 * K * x
    lo, hi = TAIL_WINDOW
    right = (s >= lo) & (s <= hi)
    left = (s <= -lo) & (s >= -hi)
    if np.count_nonzero(right) < 8 or np.count_nonzero(left) < 8:
        raise FitError("samples do not cover both tail windows |2Kx| in [25, 35]")
    A_r, B_r, res_r = _fit_tail(x[right], u[right], k)
    A_l, B_l, res_l = _fit_tail(x[left], u[left], k)
    if max(res_r, res_l) > 1e-4:
        raise FitError(f"tail fit residual {max(res_r, res_l):.3g} exceeds 1e-4")
    half = math.pi * k / (2.0 * K) if kink_gauge else 0.0
    c1 = (A_l / A_r) * cmath.exp(half)
    c2 = (B_l / A_r) * cmath.exp(2.0 * half)
    return c1, c2


def oracle_scattering(
    bg: SolitonBackground,
    sp: SpectralPoint,
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-13,
    coupling_scale: float = 1.0,
):
    """End-to-end oracle (c1, c2): integrate from the transmitted tail across
    the kink and fit both tails."""
    K = bg.K
    x_plus = TAIL_WINDOW[1] / (2.0 * K)   # s = +35 side (transmitted)
    x_minus = -x_plus                      # s = -35 side (incident/reflected)
    n_tail = 64
    s_right = np.linspace(TAIL_WINDOW[0], TAIL_WINDOW[1], n_tail)
    s_left = -s_right
    xs = np.concatenate([s_right / (2.0 * K), s_left / (2.0 * K)])
    order = np.argsort(xs) if x_plus < x_minus else np.argsort(-xs)
    xs = xs[order]
    u0 = cmath.exp(1j * sp.k * x_plus)
    du0 = 1j * sp.k * u0
    x, u, _ = integrate_u(bg, sp, x_plus, x_minus, u0, du0, x_eval=xs,
                          coupling_scale=coupling_scale, rel_tol=rel_tol, abs_tol=abs_tol)
    return extract_scattering(x, u, bg, sp, kink_gauge=(coupling_scale != 0))


# ---------------------------------------------------------------------------
# Heun-equation oracle (direct complex-path integration of the canonical ODE)
# ---------------------------------------------------------------------------


def integrate_heun(params: HeunParams, waypoints, rel_tol: float = 1e-12, abs_tol: float = 1e-14):
    """Integrate the Heun ODE for (Hl, Hl') along straight segments through
    waypoints, starting from series-free initial data near z = 0, and return
    (Hl, Hl') at every waypoint as two arrays (two numbers for one waypoint).

    The start value uses the first four exact series coefficients at a point
    of modulus ~1e-3, so the truncation error (~|h4| 1e-12) is negligible at
    the 1e-8 comparison level.
    """
    from scipy.integrate import solve_ivp

    a, q = params.a, params.q
    al, be, ga, de, eps = params.alpha, params.beta, params.gamma, params.delta, params.epsilon
    pts = [complex(w) for w in waypoints]
    direction = pts[0] / abs(pts[0])
    z0 = 1e-3 * params.radius * direction
    # h1..h3 from the closed-form three-term recurrence.
    h = [1.0 + 0j]
    h.append(q / (a * ga))
    for n in (1, 2):
        R = (n - 1 + al) * (n - 1 + be)
        P = -q - n * (n - 1 + ga) * (1 + a) - n * (a * de + eps)
        Q = a * (n + 1) * (n + ga)
        h.append(-(R * h[n - 1] + P * h[n]) / Q)
    H0 = h[0] + h[1] * z0 + h[2] * z0**2 + h[3] * z0**3
    dH0 = h[1] + 2 * h[2] * z0 + 3 * h[3] * z0**2

    def rhs_factory(z_a, z_b):
        dz = z_b - z_a

        def rhs(t, y):
            z = z_a + t * dz
            A = z * (z - 1) * (z - a)
            B = ga * (z - 1) * (z - a) + de * z * (z - a) + eps * z * (z - 1)
            C = al * be * z - q
            H, dH = y[0], y[1]
            return [dH * dz, (-(B * dH + C * H) / A) * dz]

        return rhs

    y, reached = [H0, dH0], []
    for z_a, z_b in zip([z0] + pts, pts):
        if z_a != z_b:
            sol = solve_ivp(rhs_factory(z_a, z_b), (0.0, 1.0), y,
                            method="DOP853", rtol=rel_tol, atol=abs_tol)
            if not sol.success:
                raise StepFailure(f"Heun ODE oracle failed on segment to {z_b}: {sol.message}")
            y = [sol.y[0][-1], sol.y[1][-1]]
        reached.append(y)
    H, dH = np.array(reached).T
    return (H, dH) if len(H) > 1 else (H[0], dH[0])


# ---------------------------------------------------------------------------
# Finite-difference residuals of the governing equations
# ---------------------------------------------------------------------------

# 9-point central stencils (8th order).  The kink core varies on the scale
# 1/(2K); at the reference grid (401 points on [-2, 2] with K = 5) a 4th-order
# stencil leaves ~1e-4 truncation error and a 6th-order one ~3e-6, both above
# the 1e-6 residual target, so the checker uses 8th order (~5e-8 there).
_D1 = np.array([3.0, -32.0, 168.0, -672.0, 0.0, 672.0, -168.0, 32.0, -3.0]) / 840.0
_D2 = np.array([-9.0, 128.0, -1008.0, 8064.0, -14350.0, 8064.0, -1008.0, 128.0, -9.0]) / 5040.0
_MARGIN = 4


def _fd(values: np.ndarray, h: float, stencil: np.ndarray, power: int) -> np.ndarray:
    """Central finite difference on the interior of a uniform grid."""
    n = len(values)
    width = len(stencil)
    m = n - width + 1
    out = np.zeros(m, dtype=complex)
    for j, w in enumerate(stencil):
        if w != 0:
            out += w * values[j : j + m]
    return out / h**power


def residuals(x, u, v, bg: SolitonBackground, sp: SpectralPoint) -> ResidualReport:
    """Worst relative residual of the first-order Dirac system and of the
    second-order u-equation on a uniform grid (9-point central stencils).

    First-order system:
        -E u + i u' + i M e^{-2 i beta phi} v = 0
         E v + i v' + i M e^{+2 i beta phi} u = 0
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if len(x) < 9:
        raise ValueError("need at least 9 grid points for 9-point stencils")
    h = x[1] - x[0]
    if np.max(np.abs(np.diff(x) - h)) > 1e-9 * abs(h):
        raise ValueError("residuals requires a uniform x-grid")
    K, E, M = bg.K, sp.E, bg.M
    xi = x[_MARGIN:-_MARGIN]
    ui = u[_MARGIN:-_MARGIN]
    vi = v[_MARGIN:-_MARGIN]
    du = _fd(u, h, _D1, 1)
    ddu = _fd(u, h, _D2, 2)
    dv = _fd(v, h, _D1, 1)
    phase = -ratio_squared(K * xi)  # e^{2 i beta phi}: the kink's at Kx, K = +-M
    sech = np.array([_sech(2.0 * K * xx) for xx in xi])

    res1 = -E * ui + 1j * du + 1j * M * vi / phase
    res2 = E * vi + 1j * dv + 1j * M * phase * ui
    scale1 = np.abs(E * ui) + np.abs(du) + M * np.abs(vi) + 1e-300
    scale2 = np.abs(E * vi) + np.abs(dv) + M * np.abs(ui) + 1e-300

    coef0 = (E * E - M * M) + 4.0 * E * K * sech
    res3 = ddu - 4j * K * sech * du + coef0 * ui
    scale3 = np.abs(ddu) + np.abs(4.0 * K * sech * du) + np.abs(coef0 * ui) + 1e-300

    rel = np.maximum(np.abs(res1) / scale1, np.abs(res2) / scale2)
    rel = np.maximum(rel, np.abs(res3) / scale3)
    worst = int(np.argmax(rel))
    return ResidualReport(
        max_rel_residual=float(rel[worst]), worst_x=float(xi[worst]), samples=len(xi)
    )

