"""Bound states and Levinson's theorem.

Bound energies are the real zeros of c1(E, i kappa) with kappa = sqrt(M^2-E^2):
at a zero the transmitted-frame solution loses its growing component on the
incident side and decays in both tails.  Levinson's theorem ties the phase
shift at threshold to the number of strictly bound states in the channel,

    delta(0) - delta(inf) = pi (n_b - 1/2).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .errors import DegenerateGammaError, DomainError
from .scattering import match_coefficients, unwrap_sweep
from .soliton import SolitonBackground, SpectralPoint

# Half-width (in units of M) of the sliver around E = 0 where gamma of the U2
# frame degenerates numerically (gamma - 1 ~ -E^2 / 2M^2); inside it c1 is
# treated as exactly 0, which is its continuous limit.
DEGENERATE_SLIVER = 1e-4
# Keep away from the continuum edge |E| = M where kappa -> 0.
EDGE_MARGIN = 1e-6
# Grid minima below this multiple of the median |c1| become root candidates.
CANDIDATE_FACTOR = 0.25


@dataclass(frozen=True)
class BoundState:
    """One bound level: energy, decay constant, root residual, and index."""

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


def c1_bound_indicator(bg: SolitonBackground, E: float, tol: float = 1e-13) -> complex:
    """c1 evaluated on the bound continuation k = i sqrt(M^2 - E^2)."""
    if abs(E) >= bg.M * (1.0 - EDGE_MARGIN):
        raise DomainError(
            f"|E| = {abs(E)} too close to the continuum edge M = {bg.M} (kappa -> 0)"
        )
    sp = SpectralPoint.bound(bg, E)
    # basis_threshold=0: near E = 0 the u2 basis degenerates together with c1's
    # zero; the Wronskian ratio stays accurate enough for root localization
    # well below the scattering-mode guard.
    return match_coefficients(bg, sp, 0.0, tol, basis_threshold=0.0).c1


def _indicator_abs(bg: SolitonBackground, E: float, tol: float) -> float:
    """|c1(E)| with the degenerate sliver around E = 0 mapped to its limit 0."""
    if abs(E) < DEGENERATE_SLIVER * bg.M:
        try:
            return abs(c1_bound_indicator(bg, E, tol))
        except DegenerateGammaError:
            return 0.0
    return abs(c1_bound_indicator(bg, E, tol))


def _golden_minimize(f, lo: float, hi: float, xtol: float):
    """Golden-section minimization; returns (x_min, f_min)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = c if fc < fd else d
    return x, min(fc, fd)


def _secant_polish(bg: SolitonBackground, E0: float, E1: float, tol: float, max_iter: int = 12):
    """Secant iteration on the complex c1 projected onto real E.

    Returns (E, |c1|) of the best iterate, or None when evaluation fails.
    """
    try:
        f0 = c1_bound_indicator(bg, E0, tol)
        f1 = c1_bound_indicator(bg, E1, tol)
    except (DegenerateGammaError, DomainError):
        return None
    best = (E1, abs(f1)) if abs(f1) < abs(f0) else (E0, abs(f0))
    for _ in range(max_iter):
        df = f1 - f0
        if df == 0:
            break
        E2 = E1 - (f1 * (E1 - E0) / df).real
        if not math.isfinite(E2) or abs(E2) >= bg.M * (1.0 - EDGE_MARGIN):
            break
        try:
            f2 = c1_bound_indicator(bg, E2, tol)
        except (DegenerateGammaError, DomainError):
            break
        if abs(f2) < best[1]:
            best = (E2, abs(f2))
        if abs(E2 - E1) < 1e-13 * bg.M:
            break
        E0, f0, E1, f1 = E1, f1, E2, f2
    return best


def find_bound_states(
    bg: SolitonBackground,
    grid_points: int = 512,
    tol_root: float | None = None,
    tol: float = 1e-13,
) -> list[BoundState]:
    """Scan |c1(E)| on (-M, M), refine the local minima, return accepted roots.

    Acceptance is scale-free: residual |c1| below tol_root times the median
    |c1| over the scan grid (tol_root defaults to 1e-6).
    """
    if grid_points < 32:
        raise ValueError("grid_points must be >= 32")
    M = bg.M
    eps = 1e-3 * M
    n = grid_points
    Es = [-M + eps + (2.0 * (M - eps)) * i / (n - 1) for i in range(n)]
    vals = [_indicator_abs(bg, E, tol) for E in Es]
    med = statistics.median(vals)
    threshold = CANDIDATE_FACTOR * med
    accept = (tol_root if tol_root is not None else 1e-6) * med

    roots: list[tuple[float, float]] = []
    for i in range(1, n - 1):
        if vals[i] >= threshold:
            continue
        if vals[i] > vals[i - 1] or vals[i] > vals[i + 1]:
            continue
        lo, hi = Es[i - 1], Es[i + 1]
        E_min, f_min = _golden_minimize(
            lambda E: _indicator_abs(bg, E, tol), lo, hi, xtol=1e-8 * M
        )
        polished = _secant_polish(bg, E_min - 1e-6 * M, E_min + 1e-6 * M, tol)
        if polished is not None and polished[1] < f_min:
            E_min, f_min = polished
        if abs(E_min) < DEGENERATE_SLIVER * M and f_min <= accept:
            # The zero mode: c1 ~ gamma(E) * g(E) vanishes quadratically; the
            # minimizer lands inside the degenerate sliver, i.e. at E = 0 to
            # far better than the sliver width.  Report the symmetric point.
            E_min = 0.0 if f_min == 0.0 else E_min
        if f_min <= accept:
            if not any(abs(E_min - r[0]) < 1e-3 * M for r in roots):
                roots.append((E_min, f_min))
    roots.sort()
    out = []
    for idx, (E_n, res) in enumerate(roots):
        kappa = math.sqrt(max(M * M - E_n * E_n, 0.0))
        out.append(BoundState(E_n=E_n, kappa=kappa, residual=res, index=idx))
    return out


def levinson_check(
    bg: SolitonBackground,
    bound: list[BoundState],
    k_min: float,
    k_max: float,
    samples: int = 48,
    tol: float = 1e-13,
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
    grid, deltas, _ = unwrap_sweep(bg, sorted(ks), tol)
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
