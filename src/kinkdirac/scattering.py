"""Wronskian matching and scattering observables.

The transmitted solution u1 (pure e^{ikx} as x -> +inf, analytic about z1 = 0)
is matched at x = x0 against the incident/reflected basis (u2_first,
u2_second) of the other local frame:

    c1 = W(u1, u2_second) / W(u2_first, u2_second) |_{x0}
    c2 = -W(u1, u2_first) / W(u2_first, u2_second) |_{x0}

with W(f, g) = f g' - g f'.  Asymptotically (x -> -inf)

    u1 -> c1 e^{-pi k/4K} e^{ikx} + c2 e^{-3 pi k/4K} e^{-ikx},

so with the transmitted amplitude e^{pi k/4K} the flux-normalized amplitudes

    t = e^{pi k/2K} / c1,
    r = sqrt((E - k)/(E + k)) * (c2 / c1) * e^{-pi k/2K}

satisfy |t|^2 + |r|^2 = 1 (the sqrt weight carries the v-component of the
reflected current, conserved |u|^2 - |v|^2).  The phase shift is
delta_u = delta_v = -arg c1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import DegenerateBasisError
from .soliton import (
    Family,
    LocalSolution,
    SolitonBackground,
    SpectralPoint,
    build_solution,
    eval_u,
)


@dataclass(frozen=True)
class ScatteringData:
    """Matching coefficients and derived scattering observables at one (E, k),
    with the (u1_first, u2_first, u2_second) basis they were matched in."""

    c1: complex
    c2: complex
    t: complex
    r: complex
    delta: float
    x0: float
    basis: tuple[LocalSolution, LocalSolution, LocalSolution] = field(repr=False)

    @property
    def T(self) -> float:
        return abs(self.t) ** 2

    @property
    def R(self) -> float:
        return abs(self.r) ** 2


def wronskian(f_pair, g_pair) -> complex:
    """W(f, g) = f g' - g f' from (value, derivative) pairs at a common x."""
    f, df = f_pair
    g, dg = g_pair
    return f * dg - g * df


# Relative threshold below which the (u2_first, u2_second) basis counts as degenerate.
BASIS_THRESHOLD = 1e-10


def match_coefficients(
    bg: SolitonBackground,
    sp: SpectralPoint,
    x0: float = 0.0,
) -> ScatteringData:
    """Match u1 against the u2 basis at x0 and return the scattering data.

    Works for real k (scattering) and for the bound continuation k = i kappa;
    t, r, delta are only physically meaningful for real k.  The denominator
    W(u2_first, u2_second) is taken numerically, not from its closed form
    (spectrum.c1_bound_indicator): its rounding errors cancel against the
    numerator's in c1 and c2, which keeps unitarity at large k/M.
    """
    basis = (
        build_solution(Family.U1_FIRST, bg, sp),
        build_solution(Family.U2_FIRST, bg, sp),
        build_solution(Family.U2_SECOND, bg, sp),
    )
    p1, p2, p2b = (eval_u(sol, x0) for sol in basis)
    w_den = wronskian(p2, p2b)
    scale = abs(p2[0]) * abs(p2b[1]) + abs(p2b[0]) * abs(p2[1])
    if abs(w_den) < BASIS_THRESHOLD * scale:
        raise DegenerateBasisError(
            f"|W(u2_first, u2_second)| = {abs(w_den):.3g} is below "
            f"{BASIS_THRESHOLD:.0e} of the solution scale {scale:.3g} (k too close to 0?)"
        )
    c1 = wronskian(p1, p2b) / w_den
    c2 = -wronskian(p1, p2) / w_den
    half = math.pi / (2.0 * bg.K)
    t = cmath.exp(half * sp.k) / c1
    r = cmath.sqrt((sp.E - sp.k) / (sp.E + sp.k)) * (c2 / c1) * cmath.exp(-half * sp.k)
    delta = -cmath.phase(c1)
    return ScatteringData(c1=c1, c2=c2, t=t, r=r, delta=delta, x0=x0, basis=basis)


def matched_u(data: ScatteringData, x: float):
    """The globally matched solution: the transmitted frame u1 on its side of
    x0 (x >= x0 for the kink, x <= x0 for the antikink), c1 u2 + c2 u2b on the
    other."""
    sol1, sol2, sol2b = data.basis
    if sol1.background.K * (x - data.x0) >= 0:
        return eval_u(sol1, x)
    u_a, du_a = eval_u(sol2, x)
    u_b, du_b = eval_u(sol2b, x)
    return data.c1 * u_a + data.c2 * u_b, data.c1 * du_a + data.c2 * du_b


# ---------------------------------------------------------------------------
# Phase-shift sweeps with continuous unwrapping
# ---------------------------------------------------------------------------


# Refine the sweep grid where adjacent raw phases jump by at least pi/2, adding
# at most this many extra momenta per sweep.
MAX_REFINE = 400


def _wrap(angle: float) -> float:
    """Map an angle difference into (-pi, pi]."""
    return -((-angle + math.pi) % (2.0 * math.pi) - math.pi)


def unwrap_sweep(bg: SolitonBackground, ks, branch: str = "positive"):
    """Compute ScatteringData over a k-grid on one energy branch, with
    continuously unwrapped delta.

    The phase branch is anchored at the largest k (where delta is nearest 0, the
    Levinson reference) and propagated downward by nearest-branch selection.
    Where adjacent raw phases still jump by >= pi/2 the grid is refined (the
    extra samples steer the unwrapping but are dropped from the output).

    Returns (requested_ks, unwrapped_deltas, data_by_k).
    """

    def match(k: float) -> ScatteringData:
        return match_coefficients(bg, SpectralPoint.scattering(bg, k, branch))

    requested = sorted(set(float(k) for k in ks))
    grid = list(requested)
    data = {k: match(k) for k in grid}
    budget = MAX_REFINE
    while budget > 0:
        inserted = False
        i = 0
        while i < len(grid) - 1 and budget > 0:
            d = _wrap(data[grid[i + 1]].delta - data[grid[i]].delta)
            if abs(d) >= math.pi / 2:
                mid = math.sqrt(grid[i] * grid[i + 1])
                if mid not in data and grid[i + 1] - grid[i] > 1e-12 * grid[i + 1]:
                    data[mid] = match(mid)
                    grid.insert(i + 1, mid)
                    inserted = True
                    budget -= 1
                    continue
            i += 1
        if not inserted:
            break
    # Anchor at the largest k, propagate the branch downward.
    unwrapped = {grid[-1]: data[grid[-1]].delta}
    for i in range(len(grid) - 2, -1, -1):
        raw = data[grid[i]].delta
        ref = unwrapped[grid[i + 1]]
        n = round((ref - raw) / (2.0 * math.pi))
        unwrapped[grid[i]] = raw + 2.0 * math.pi * n
    deltas = [unwrapped[k] for k in requested]
    return requested, deltas, {k: data[k] for k in requested}
