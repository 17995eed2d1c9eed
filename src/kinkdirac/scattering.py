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

Antikink = charge-conjugate kink: only K = +M is solved.  The antikink at
(E, k) is the image of the kink at (-E, conj k) (subscript k) under
(u, v)(x) = lam (conj v_k(-x), -conj u_k(-x)), lam = i M e^{-pi k/2M} / (k - E),
which maps incident, reflected and transmitted waves onto themselves, so

    c1 = e^{-pi k/M} conj c1_k,   c2 = e^{-2 pi k/M} (E + k)/(E - k) conj c2_k,
    t = conj t_k,   r = conj r_k,   delta = -delta_k,   x0 -> -x0,   E_n -> -E_n.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBasisError, KinkDiracError
from .heun import _first_failure, _xp
from .soliton import (Family, LocalSolution, SolitonBackground, SpectralPoint, build_solution,
                      eval_u, eval_u_at_origin, ratio_squared, v_from_u)


@dataclass(frozen=True)
class ScatteringData:
    """Matching coefficients and derived scattering observables at one (E, k),
    or numpy arrays of them over a batch (as sweep returns), with the
    kink's (u1_first, u2_first, u2_second) basis they were matched in and, for
    the antikink, the kink data they are the image of."""

    c1: complex
    c2: complex
    t: complex
    r: complex
    delta: float
    x0: float
    basis: tuple[LocalSolution, LocalSolution, LocalSolution] = field(repr=False)
    kink: ScatteringData | None = field(default=None, repr=False)

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
    t, r, delta are only physically meaningful for real k.  At one (E, k), x0
    may be a numpy array of matching points: one eval_u batch per local
    solution.  The antikink is the charge-conjugate image of the kink matched
    at (-E, conj k, -x0).
    """
    return _match(bg, sp, x0)


def _conjugate(kink: ScatteringData) -> ScatteringData:
    """The antikink's ScatteringData as the image of the kink's at (-E, conj k, -x0),
    at one point or for a batch."""
    bg, sp = kink.basis[0].background, kink.basis[0].spectral
    E, k = -sp.E, sp.k.conjugate()
    f = _xp(k).exp(-math.pi * k / bg.M)
    return ScatteringData(f * kink.c1.conjugate(), f * f * (E + k) / (E - k) * kink.c2.conjugate(),
                          kink.t.conjugate(), kink.r.conjugate(), -kink.delta, -kink.x0,
                          kink.basis, kink)


def _match(bg: SolitonBackground, sp: SpectralPoint, x0: float) -> ScatteringData:
    """match_coefficients at one (E, k) or, with E and k arrays, at a batch of
    them (sweep): at x0 = 0 one Heun batch for all three local solutions
    of the kink (eval_u_at_origin).  W(u2_first, u2_second) is numerical, not
    the closed form of spectrum.c1_bound_indicator: its rounding cancels
    against the numerator's in c1 and c2, which keeps unitarity at large k/M."""
    if bg.K < 0:
        return _conjugate(_match(bg.kink, SpectralPoint(E=-sp.E, k=sp.k.conjugate()), -x0))
    basis = (
        build_solution(Family.U1_FIRST, bg, sp),
        build_solution(Family.U2_FIRST, bg, sp),
        build_solution(Family.U2_SECOND, bg, sp),
    )
    batch = isinstance(sp.k, np.ndarray) and x0 == 0
    p1, p2, p2b = eval_u_at_origin(*basis) if batch else (eval_u(sol, x0) for sol in basis)
    w_den = wronskian(p2, p2b)
    scale = abs(p2[0]) * abs(p2b[1]) + abs(p2b[0]) * abs(p2[1])
    xp, ok = _xp(w_den), abs(w_den) >= BASIS_THRESHOLD * scale
    if not xp.all(ok):
        w, scale, k = _first_failure(ok, abs(w_den), scale, sp.k)
        raise DegenerateBasisError(
            f"|W(u2_first, u2_second)| = {w:.3g} is below {BASIS_THRESHOLD:.0e} of the "
            f"solution scale {scale:.3g} at k = {k.real:.6g} (k too close to 0?)"
        )
    c1 = wronskian(p1, p2b) / w_den
    c2 = -wronskian(p1, p2) / w_den
    half = math.pi / (2.0 * bg.K)
    t = xp.exp(half * sp.k) / c1
    r = xp.sqrt((sp.E - sp.k) / (sp.E + sp.k)) * (c2 / c1) * xp.exp(-half * sp.k)
    delta = -xp.angle(c1)
    return ScatteringData(c1=c1, c2=c2, t=t, r=r, delta=delta, x0=x0, basis=basis)


def matched_u(data: ScatteringData, x: float):
    """The globally matched solution (u, u'): the transmitted frame u1 on its
    side of x0 (x >= x0 for the kink, x <= x0 for the antikink), c1 u2 + c2 u2b
    on the other.  For the antikink, (u, v) is the image of the kink's at -x and
    u' = -i E u + M conj(ratio_squared(bg, x)) v follows from its Dirac system.
    x may be a numpy array: one eval_u batch per local solution."""
    kink, x_k = (data, x) if data.kink is None else (data.kink, -x)
    sol1, sol2, sol2b = kink.basis

    def incident(x):
        (u_a, du_a), (u_b, du_b) = eval_u(sol2, x), eval_u(sol2b, x)
        return kink.c1 * u_a + kink.c2 * u_b, kink.c1 * du_a + kink.c2 * du_b

    right = x_k >= kink.x0
    if isinstance(x_k, np.ndarray):
        u, du = np.empty((2,) + x_k.shape, complex)
        u[right], du[right] = eval_u(sol1, x_k[right])
        u[~right], du[~right] = incident(x_k[~right])
    else:
        u, du = eval_u(sol1, x_k) if right else incident(x_k)
    if kink is data:
        return u, du
    bg, sp = sol1.background, sol1.spectral
    [(u, v)] = conjugate_spinor(kink, (u, v_from_u(u, du, bg, sp, x_k)))
    return u, 1j * sp.E * u + bg.M * ratio_squared(bg, x_k).conjugate() * v


def conjugate_spinor(kink: ScatteringData, *pairs):
    """The antikink's (u, v)(x) = lam (conj v_k, -conj u_k) for each of the
    kink's (u_k, v_k)(-x) pairs, where kink is the antikink's ScatteringData.kink."""
    bg, sp = kink.basis[0].background, kink.basis[0].spectral
    k = sp.k.conjugate()
    lam = 1j * bg.M * cmath.exp(-math.pi * k / (2.0 * bg.M)) / (k + sp.E)
    return [(lam * v.conjugate(), -lam * u.conjugate()) for u, v in pairs]


# ---------------------------------------------------------------------------
# Phase-shift sweeps
# ---------------------------------------------------------------------------


# Largest |delta| a sweep returns.  Levinson's theorem bounds the principal
# value -arg c1 by pi/2 on each branch, so it never wraps; beyond this bound
# the match has lost c1's phase.
DELTA_BOUND = 0.75 * math.pi


def log_grid(k_min: float, k_max: float, n: int) -> list[float]:
    """n log-spaced momenta from k_min, the last exactly k_max."""
    ratio = (k_max / k_min) ** (1.0 / (n - 1))
    return [k_min * ratio**i for i in range(n - 1)] + [k_max]


def sweep(bg: SolitonBackground, ks, branch: str | tuple[str, ...] = "positive"):
    """ScatteringData over a k-grid on one energy branch, or on each of a tuple
    of them, as one batched match; delta is data.delta = -arg c1.

    Returns (ks, data): ks sorted and distinct, and data the batch's arrays,
    aligned with ks, the rows of a tuple of branches branch after branch.
    Raises KinkDiracError where |delta| exceeds DELTA_BOUND.
    """
    branches = (branch,) if isinstance(branch, str) else tuple(branch)
    ks = sorted(set(float(k) for k in ks))
    k = np.tile(ks, len(branches))
    E = np.concatenate([SpectralPoint.scattering(bg, np.array(ks), b).E for b in branches])
    data = _match(bg, SpectralPoint(E=E, k=k), 0.0)
    ok = abs(data.delta) <= DELTA_BOUND
    if not ok.all():
        delta, k_bad = _first_failure(ok, data.delta, k)
        raise KinkDiracError(f"sweep: |delta| = {abs(delta):.3g} exceeds 3 pi/4 at "
                             f"k/M = {k_bad / bg.M:.6g} (M = {bg.M}); the match lost c1's phase")
    return ks, data
