"""Bound states and Levinson's theorem.

Bound energies are the real zeros of c1(E, i kappa), in units of M with
kappa = sqrt(1 - E^2): at a zero the transmitted-frame solution loses its
growing component on the incident side and decays in both tails.  Two
identities make them the roots of one real function of E:

- Abel's identity fixes the matching denominator in closed form,
  W(u2_first, u2_second)|_{y=0} = 2ik e^{-pi k}, so c1 needs only u1_first
  and u2_second.  u2_first, the only factor that degenerates at E = 0 (its
  gamma is 0 there), is never built.
- c1(E) = e^{i pi (kappa/2 - 1)} f(E) with f real, and with E = cos theta
  sin theta f(E) is analytic on [0, pi]: one Chebyshev interpolant in theta.

find_bound_states scales the kink's levels by M and, for the antikink, flips
their sign.  Levinson's theorem on each energy branch ties the threshold
phase jump to the count n_+ (n_-) of levels with E_n > 0 (E_n < 0), the zero
mode in neither: delta_+-(0) - delta_+-(inf) = +-pi (n_+- - 1/2).  delta(inf)
is fitted to a sweep's top, up to LEVINSON_K_TOP = 20 M, as delta_inf +
b2 u^2 + b3 u^3 + b4 u^4 with u = M/k: both sum rules hold to 5.1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, KinkDiracError
from .heun import _first_failure, _xp
from .scattering import log_grid, sweep, wronskian
from .soliton import (Family, SolitonBackground, SpectralPoint, build_solution, eval_u,
                      eval_u_at_origin)

# Keep away from the continuum edge |E| = M where kappa -> 0.
EDGE_MARGIN = 1e-6
# Chebyshev nodes in theta, E = M cos theta (from 40 on, the outermost are inside EDGE_MARGIN).
CHEB_NODES = 32
# Largest trailing coefficient accepted, relative to the largest (32 nodes: 1.7e-13).
CHEB_TAIL_TOL = 1e-11
# Largest |Im(c1 e^{-i pi (kappa/2M - 1)})| accepted, relative to the scale of
# the Wronskian's terms; above it the real part means nothing.
IMAG_TOL = 1e-9
LEVINSON_K_TOP, ZERO_MODE_TOL = 20.0, 1e-9  # over M: Levinson sweep top; zero-mode |E_n| bound


@dataclass(frozen=True)
class BoundState:
    """One bound level: energy, decay constant, root residual, and index.

    residual is |c1(E_n)| over the median |c1| at the Chebyshev nodes, the
    quantity find_bound_states compares with tol_root.
    """

    E_n: float
    kappa: float
    residual: float
    index: int


@dataclass(frozen=True)
class LevinsonReport:
    """Threshold phase jumps versus the bound-state counts n_b: the unsuffixed
    fields are the positive branch's; n_plus, n_minus are the jumps' own counts."""

    delta_at_zero: float
    delta_at_infinity: float
    n_b: int
    discrepancy: float
    jump_negative: float
    n_b_negative: int
    discrepancy_negative: float
    n_plus: int
    n_minus: int


def _real_phase(E: float) -> complex:
    """e^{-i pi (kappa/2 - 1)}, kappa = sqrt(1 - E^2): turns c1 at energy E (in
    units of M) into a real number."""
    kappa = _xp(E).sqrt(1.0 - E * E)
    return _xp(E).exp(-1j * math.pi * (kappa / 2.0 - 1.0))


def c1_bound_indicator(E: float) -> complex:
    """c1 of the kink on the bound continuation k = i sqrt(1 - E^2), at each E,
    in units of M.

    c1 = W(u1_first, u2_second) / (2ik e^{-pi k}) at y0 = 0; an array of E
    evaluates both solutions as one Heun batch (eval_u_at_origin).  Raises
    KinkDiracError when c1 is not e^{i pi (kappa/2 - 1)} times a real number
    to IMAG_TOL of the Wronskian term scale.
    """
    xp, ok = _xp(E), abs(E) < 1.0 - EDGE_MARGIN
    if not xp.all(ok):
        E = _first_failure(ok, E)[0]
        raise DomainError(f"|E/M| = {abs(E)} too close to the continuum edge 1 (kappa -> 0)")
    sp = SpectralPoint.bound(E)
    sols = build_solution(Family.U1_FIRST, sp), build_solution(Family.U2_SECOND, sp)
    batch = isinstance(sp.k, np.ndarray)
    p1, p2b = eval_u_at_origin(*sols) if batch else (eval_u(sol, 0.0) for sol in sols)
    w_den = 2j * sp.k * xp.exp(-math.pi * sp.k)
    c1 = wronskian(p1, p2b) / w_den
    scale = (abs(p1[0]) * abs(p2b[1]) + abs(p2b[0]) * abs(p1[1])) / abs(w_den)
    ratio = abs((c1 * _real_phase(E)).imag) / scale
    if not xp.all(ratio <= IMAG_TOL):
        E, ratio = _first_failure(ratio <= IMAG_TOL, E, ratio)
        raise KinkDiracError(
            f"c1_bound_indicator: at E/M = {E!r} the imaginary part of the real "
            f"indicator is {ratio:.3g} of the Wronskian term scale, above {IMAG_TOL:.0e}"
        )
    return c1


def find_bound_states(bg: SolitonBackground, tol_root: float = 1e-6) -> list[BoundState]:
    """Bound levels as the roots of c1 on (-M, M): the real roots, by the colleague
    matrix (Boyd, SIAM J. Numer. Anal. 40, 1666, 2002), of the real indicator's
    interpolant at CHEB_NODES Chebyshev nodes in theta, one batch; its trailing
    coefficients certify the root count.  A root where |c1| exceeds tol_root
    times the median |c1| over the nodes raises KinkDiracError.  The kink is
    solved in units of M; the antikink's levels are the kink's with
    E_n -> -E_n, in ascending order.
    """
    from numpy.polynomial.chebyshev import chebroots  # here: it costs import time

    M, n, sign = bg.M, CHEB_NODES, math.copysign(1.0, bg.K)
    angles = (np.arange(n) + 0.5) * math.pi / n
    theta = 0.5 * math.pi * (1.0 + np.cos(angles))  # first-kind nodes mapped to (0, pi)
    Es = np.cos(theta)
    c1 = c1_bound_indicator(Es)
    g = (np.sin(theta) * c1 * _real_phase(Es)).real
    coeffs = np.cos(np.outer(np.arange(n), angles)) @ g * (2.0 / n)
    coeffs[0] *= 0.5
    tail = np.max(abs(coeffs[-2:])) / np.max(abs(coeffs))
    if not tail <= CHEB_TAIL_TOL:
        raise KinkDiracError(f"find_bound_states: at M = {M} the trailing coefficients of the "
                             f"{n}-node Chebyshev interpolant are {tail:.3g} of its largest, "
                             f"above {CHEB_TAIL_TOL:.0e}")
    # Real roots; the complex ones keep at least 0.2 from the real axis.
    levels = [math.cos(0.5 * math.pi * (1.0 + t.real)) for t in chebroots(coeffs)
              if abs(t.imag) <= 1e-8 and abs(t.real) < 1.0]
    median = float(np.median(abs(c1)))
    out: list[BoundState] = []
    for E_n in sorted(sign * E for E in levels if abs(E) < 1.0 - EDGE_MARGIN):
        residual = abs(c1_bound_indicator(sign * E_n)) / median
        if not residual <= tol_root:
            raise KinkDiracError(f"find_bound_states: at the root E = {M * E_n!r} (M = {M}) |c1| "
                                 f"is {residual:.3g} of its median over the nodes, above "
                                 f"{tol_root:.3g}")
        out.append(BoundState(M * E_n, M * math.sqrt(1.0 - E_n * E_n), residual, len(out)))
    return out


def levinson_check(
    bg: SolitonBackground,
    bound: list[BoundState],
    k_min: float,
    samples: int = 48,
) -> LevinsonReport:
    """Levinson's theorem on both energy branches, swept as one batch over
    samples log-spaced momenta from k_min to LEVINSON_K_TOP M plus {2, 4} k_min,
    checked against the given bound states (as find_bound_states returns them).
    delta(0) is Richardson-extrapolated from {1, 2, 4} k_min (the matching basis
    degenerates at k = 0), delta(inf) fitted through the four largest momenta.
    """
    M = bg.M
    if not (0 < k_min < LEVINSON_K_TOP * M):
        raise ValueError(f"need 0 < k_min < {LEVINSON_K_TOP:g} M")
    grid, data = sweep(bg, log_grid(k_min, LEVINSON_K_TOP * M, samples)
                       + [2.0 * k_min, 4.0 * k_min], ("positive", "negative"))
    d = data.delta.reshape(2, -1)
    d1, d2, d4 = (d[:, grid.index(k)] for k in (k_min, 2.0 * k_min, 4.0 * k_min))
    delta0 = (8.0 * d1 - 6.0 * d2 + d4) / 3.0  # delta0 + a k + b k^2 at {k, 2k, 4k}
    u = M / np.array(grid[-4:])[:, None]
    delta_inf = np.linalg.solve(u ** [0, 2, 3, 4], d[:, -4:].T)[0]
    jump, jump_neg = (delta0 - delta_inf).tolist()
    n_b, n_b_neg = (sum(1 for b in bound if sign * b.E_n > ZERO_MODE_TOL * M) for sign in (1, -1))
    return LevinsonReport(float(delta0[0]), float(delta_inf[0]), n_b,
                          abs(jump - math.pi * (n_b - 0.5)), jump_neg, n_b_neg,
                          abs(jump_neg + math.pi * (n_b_neg - 0.5)),
                          round(jump / math.pi + 0.5), round(0.5 - jump_neg / math.pi))
