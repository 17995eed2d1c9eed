"""Bound states and Levinson's theorem.

Bound energies are the real zeros of c1(E, i kappa) with kappa = sqrt(M^2-E^2):
at a zero the transmitted-frame solution loses its growing component on the
incident side and decays in both tails.  Two identities make them plain sign
changes of one real function of E:

- Abel's identity fixes the matching denominator in closed form,
  W(u2_first, u2_second)|_{x=0} = 2ik e^{-pi k/K}, so c1 needs only u1_first
  and u2_second.  u2_first, the only factor that degenerates at E = 0 (its
  gamma is 0 there), is never built.
- c1(E) = e^{i pi (kappa/2M - 1)} f(E) with f real, so the roots are the sign
  changes of f(E) = Re(c1 e^{-i pi (kappa/2M - 1)}), the zero mode included.

Levinson's theorem ties the phase shift at threshold to the number of
strictly bound states in the channel,

    delta(0) - delta(inf) = pi (n_b - 1/2).
"""

from __future__ import annotations

import cmath
import functools
import math
import statistics
from dataclasses import dataclass

from scipy.optimize import brentq

from .errors import DomainError, KinkDiracError
from .scattering import unwrap_sweep, wronskian
from .soliton import Family, SolitonBackground, SpectralPoint, build_solution, eval_u

# Keep away from the continuum edge |E| = M where kappa -> 0.
EDGE_MARGIN = 1e-6
# Energies E/M where find_bound_states samples the sign of the real indicator:
# (-1, 1) less a 1e-3 margin at each continuum edge.
SCAN_POINTS = 64
SCAN_GRID = tuple(-1.0 + 1e-3 + (2.0 - 2e-3) * i / (SCAN_POINTS - 1) for i in range(SCAN_POINTS))
# Largest |Im(c1 e^{-i pi (kappa/2M - 1)})| accepted, relative to the scale of
# the Wronskian's terms; above it the sign of the real part means nothing.
IMAG_TOL = 1e-9


@dataclass(frozen=True)
class BoundState:
    """One bound level: energy, decay constant, root residual, and index.

    residual is |c1(E_n)| over the median |c1| of the scan grid, the
    quantity find_bound_states compares with tol_root.
    """

    E_n: float
    kappa: float
    residual: float
    index: int


@dataclass(frozen=True)
class LevinsonReport:
    """Threshold phase jump versus the bound-state count."""

    delta_at_zero: float
    delta_at_infinity: float
    n_b: int
    discrepancy: float


def _real_phase(bg: SolitonBackground, E: float) -> complex:
    """e^{-i pi (kappa/2M - 1)}: turns c1 at energy E into a real number."""
    kappa = math.sqrt(bg.M * bg.M - E * E)
    return cmath.exp(-1j * math.pi * (kappa / (2.0 * bg.M) - 1.0))


def c1_bound_indicator(bg: SolitonBackground, E: float) -> complex:
    """c1 on the bound continuation k = i sqrt(M^2 - E^2) sign(K).

    c1 = W(u1_first, u2_second) / (2ik e^{-pi k/K}) at x0 = 0.  Raises
    KinkDiracError when c1 is not e^{i pi (kappa/2M - 1)} times a real number
    to IMAG_TOL of the Wronskian term scale.
    """
    if abs(E) >= bg.M * (1.0 - EDGE_MARGIN):
        raise DomainError(
            f"|E| = {abs(E)} too close to the continuum edge M = {bg.M} (kappa -> 0)"
        )
    sp = SpectralPoint.bound(bg, E)
    p1 = eval_u(build_solution(Family.U1_FIRST, bg, sp), 0.0)
    p2b = eval_u(build_solution(Family.U2_SECOND, bg, sp), 0.0)
    w_den = 2j * sp.k * cmath.exp(-math.pi * sp.k / bg.K)
    c1 = wronskian(p1, p2b) / w_den
    scale = (abs(p1[0]) * abs(p2b[1]) + abs(p2b[0]) * abs(p1[1])) / abs(w_den)
    ratio = abs((c1 * _real_phase(bg, E)).imag) / scale
    if ratio > IMAG_TOL:
        raise KinkDiracError(
            f"c1_bound_indicator: at E = {E!r} (M = {bg.M}, K = {bg.K}) the imaginary "
            f"part of the real indicator is {ratio:.3g} of the Wronskian term scale, "
            f"above {IMAG_TOL:.0e}"
        )
    return c1


def find_bound_states(bg: SolitonBackground, tol_root: float | None = None) -> list[BoundState]:
    """Bound levels as the roots of c1 on (-M, M).

    Every sign change of the real indicator over SCAN_GRID is refined by
    Brent's method.  Acceptance is scale-free: a root is kept when |c1| there
    is at most tol_root (default 1e-6) times the median |c1| over the grid.
    """
    M = bg.M
    c1 = functools.cache(lambda E: c1_bound_indicator(bg, E))

    def f(E: float) -> float:
        return (c1(E) * _real_phase(bg, E)).real

    Es = [g * M for g in SCAN_GRID]
    fs = [f(E) for E in Es]
    median = statistics.median(abs(c1(E)) for E in Es)
    accept = tol_root if tol_root is not None else 1e-6
    out: list[BoundState] = []
    for (a, fa), (b, fb) in zip(zip(Es, fs), zip(Es[1:], fs[1:])):
        if fa * fb < 0 or fb == 0:
            # Brent returns a point it evaluated, so the residual is cached.
            E_n = brentq(f, a, b, xtol=1e-13 * M)
            residual = abs(c1(E_n)) / median
            if residual <= accept:
                out.append(BoundState(
                    E_n=E_n, kappa=math.sqrt(M * M - E_n * E_n),
                    residual=residual, index=len(out),
                ))
    return out


def levinson_check(
    bg: SolitonBackground,
    bound: list[BoundState],
    k_min: float,
    k_max: float,
    samples: int = 48,
) -> LevinsonReport:
    """Phase-shift sweep checked against Levinson's theorem for the given
    bound states (as returned by find_bound_states).

    delta(0) is Richardson-extrapolated from the three smallest momenta
    {k_min, 2 k_min, 4 k_min} (the matching basis degenerates at k = 0);
    delta(k_max) stands in for delta(inf); n_b counts strictly positive bound
    energies.
    """
    if not (0 < k_min < k_max):
        raise ValueError("need 0 < k_min < k_max")
    ks = set()
    ratio = (k_max / k_min) ** (1.0 / (samples - 1))
    k = k_min
    for _ in range(samples):
        ks.add(min(k, k_max))
        k *= ratio
    ks.update((k_min, 2.0 * k_min, 4.0 * k_min, k_max))
    grid, deltas, _ = unwrap_sweep(bg, sorted(ks))
    by_k = dict(zip(grid, deltas))
    # Richardson on delta(k) = delta0 + a k + b k^2 at {k, 2k, 4k}.
    d1, d2, d4 = by_k[k_min], by_k[2.0 * k_min], by_k[4.0 * k_min]
    delta0 = (8.0 * d1 - 6.0 * d2 + d4) / 3.0
    delta_inf = by_k[max(grid)]
    n_b = sum(1 for b in bound if b.E_n > 0.01 * bg.M)
    discrepancy = abs((delta0 - delta_inf) - math.pi * (n_b - 0.5))
    return LevinsonReport(
        delta_at_zero=delta0, delta_at_infinity=delta_inf, n_b=n_b, discrepancy=discrepancy
    )
