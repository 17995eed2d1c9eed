"""Wronskian matching and scattering observables.

The core (_match) solves the kink in units of M: E, k stand for E/M, k/M and
y = Mx.  The transmitted solution u1 (pure e^{iky} as y -> +inf, analytic
about z1 = 0) is matched at y0 against the incident/reflected basis
(u2_first, u2_second) of the other local frame:

    c1 = W(u1, u2_second) / W(u2_first, u2_second) |_{y0}
    c2 = -W(u1, u2_first) / W(u2_first, u2_second) |_{y0}

with W(f, g) = f g' - g f'.  Asymptotically (y -> -inf)

    u1 -> c1 e^{-pi k/4} e^{iky} + c2 e^{-3 pi k/4} e^{-iky},

so with the transmitted amplitude e^{pi k/4} the flux-normalized amplitudes

    t = e^{pi k/2} / c1,
    r = sqrt((E - k)/(E + k)) * (c2 / c1) * e^{-pi k/2}

satisfy |t|^2 + |r|^2 = 1 (the sqrt weight carries the v-component of the
reflected current, conserved |u|^2 - |v|^2).  The phase shift is
delta_u = delta_v = -arg c1.

M and the antikink enter only at the entry points: match_coefficients,
matched_u, trace and sweep divide (E, k) by M and multiply x by M.  The
antikink at (E, k) is the charge-conjugate image of the kink at (-E, conj k)
(subscript k) under
(u, v)(x) = lam (conj v_k(-x), -conj u_k(-x)), lam = i M e^{-pi k/2M} / (k - E),
which maps incident, reflected and transmitted waves onto themselves, so

    c1 = e^{-pi k/M} conj c1_k,   c2 = e^{-2 pi k/M} (E + k)/(E - k) conj c2_k,
    t = conj t_k,   r = conj r_k,   delta = -delta_k,   x0 -> -x0,   E_n -> -E_n.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBasisError, KinkDiracError
from .heun import _first_failure, _xp
from .soliton import (Family, LocalSolution, SolitonBackground, SpectralPoint, build_solution,
                      eval_u, eval_u_at_origin, v_from_u)


@dataclass(frozen=True)
class ScatteringData:
    """Matching coefficients and derived scattering observables at one (E, k),
    or numpy arrays of them over a batch (as sweep returns), with the kink's
    (u1_first, u2_first, u2_second) basis they were matched in at y0 = M x0
    (field x0), the unit M and, for the antikink, the kink data they are the
    image of."""

    c1: complex
    c2: complex
    t: complex
    r: complex
    delta: float
    x0: float
    basis: tuple[LocalSolution, LocalSolution, LocalSolution] = field(repr=False)
    kink: ScatteringData | None = field(default=None, repr=False)
    M: float = 1.0

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
    solution.  The kink is matched at (E/M, k/M, M x0), the antikink as the
    charge-conjugate image of the kink matched at (-E/M, conj k/M, -M x0).
    """
    return _solve(bg, SpectralPoint(E=sp.E / bg.M, k=sp.k / bg.M), bg.M * x0)


def _solve(bg: SolitonBackground, sp: SpectralPoint, y0: float) -> ScatteringData:
    """The match at (E, k) in units of M and y0 = M x0, or at a batch of (E, k):
    the kink's, or the antikink's as the image of the kink's at (-E, conj k, -y0)."""
    if bg.K > 0:
        data = _match(sp, y0)
    else:
        data = _conjugate(_match(SpectralPoint(E=-sp.E, k=sp.k.conjugate()), -y0))
    return dataclasses.replace(data, M=bg.M)


def _conjugate(kink: ScatteringData) -> ScatteringData:
    """The antikink's ScatteringData as the image of the kink's at (-E, conj k, -x0),
    at one point or for a batch."""
    sp = kink.basis[0].spectral
    E, k = -sp.E, sp.k.conjugate()
    f = _xp(k).exp(-math.pi * k)
    return ScatteringData(f * kink.c1.conjugate(), f * f * (E + k) / (E - k) * kink.c2.conjugate(),
                          kink.t.conjugate(), kink.r.conjugate(), -kink.delta, -kink.x0,
                          kink.basis, kink)


def _match(sp: SpectralPoint, y0: float) -> ScatteringData:
    """The kink's match at (E, k) in units of M and y0 = M x0, or, with E and k
    arrays, at a batch of them (sweep): at y0 = 0 one Heun batch for all three
    local solutions (eval_u_at_origin).  W(u2_first, u2_second) is numerical,
    not the closed form of spectrum.c1_bound_indicator: its rounding cancels
    against the numerator's in c1 and c2, which keeps unitarity at large k/M."""
    basis = tuple(build_solution(family, sp) for family in Family)
    batch = isinstance(sp.k, np.ndarray) and y0 == 0
    p1, p2, p2b = eval_u_at_origin(*basis) if batch else (eval_u(sol, y0) for sol in basis)
    w_den = wronskian(p2, p2b)
    scale = abs(p2[0]) * abs(p2b[1]) + abs(p2b[0]) * abs(p2[1])
    xp, ok = _xp(w_den), abs(w_den) >= BASIS_THRESHOLD * scale
    if not xp.all(ok):
        w, scale, k = _first_failure(ok, abs(w_den), scale, sp.k)
        raise DegenerateBasisError(
            f"|W(u2_first, u2_second)| = {w:.3g} is below {BASIS_THRESHOLD:.0e} of the "
            f"solution scale {scale:.3g} at k/M = {k.real:.6g} (k too close to 0?)"
        )
    c1 = wronskian(p1, p2b) / w_den
    c2 = -wronskian(p1, p2) / w_den
    half = math.pi / 2.0
    t = xp.exp(half * sp.k) / c1
    r = xp.sqrt((sp.E - sp.k) / (sp.E + sp.k)) * (c2 / c1) * xp.exp(-half * sp.k)
    delta = -xp.angle(c1)
    return ScatteringData(c1=c1, c2=c2, t=t, r=r, delta=delta, x0=y0, basis=basis)


def matched_u(data: ScatteringData, x):
    """The globally matched spinor (u, v) at x: the transmitted frame u1 on its
    side of x0 (x >= x0 for the kink, x <= x0 for the antikink), c1 u2 + c2 u2b
    on the other, evaluated in y = Mx.  For the antikink it is the image of
    the kink's at -x.  x may be a numpy array: one eval_u batch per local
    solution."""
    kink = data.kink or data
    y = data.M * x if kink is data else data.M * -x
    sol1, sol2, sol2b = kink.basis

    def incident(y):
        (u_a, du_a), (u_b, du_b) = eval_u(sol2, y), eval_u(sol2b, y)
        return kink.c1 * u_a + kink.c2 * u_b, kink.c1 * du_a + kink.c2 * du_b

    right = y >= kink.x0
    if isinstance(y, np.ndarray):
        u, du = np.empty((2,) + y.shape, complex)
        u[right], du[right] = eval_u(sol1, y[right])
        u[~right], du[~right] = incident(y[~right])
    else:
        u, du = eval_u(sol1, y) if right else incident(y)
    spinor = (u, v_from_u(u, du, sol1.spectral, y))
    return spinor if kink is data else conjugate_spinor(kink, spinor)[0]


def trace(data: ScatteringData, n: int):
    """(x, waves): n points from |Mx| = 5 on the incident side to x = 0, then n
    from 0 to |Mx| = 5 on the transmitted side, and waves u, v and their
    incident and reflected parts c1 u2, c2 u2b (NaN on the transmitted side);
    one eval_u batch per local solution.  The antikink's are the kink's at -x."""
    kink = data.kink or data
    sol1, sol2, sol2b = kink.basis
    sp = sol1.spectral
    # Sampling y = 0 from both sides ("or 0.0" turns -0.0 into 0.0).
    y_inc = np.array([-5.0 * (1.0 - i / (n - 1)) or 0.0 for i in range(n)])
    y_tr = np.array([5.0 * i / (n - 1) for i in range(n)])
    (ua, dua), (ub, dub), (u1, du1) = eval_u(sol2, y_inc), eval_u(sol2b, y_inc), eval_u(sol1, y_tr)
    u_inc, du_inc, u_ref, du_ref = kink.c1 * ua, kink.c1 * dua, kink.c2 * ub, kink.c2 * dub
    y = np.concatenate([y_inc, y_tr])
    u = np.concatenate([(u_inc + u_ref)[:-1], u1[:1], u1])  # y = 0 is u1's side of the match
    v = v_from_u(u, np.concatenate([(du_inc + du_ref)[:-1], du1[:1], du1]), sp, y)
    nan = np.full(n, complex(math.nan, math.nan))
    v_inc, v_ref = (np.concatenate([v_from_u(w, dw, sp, y_inc), nan])
                    for w, dw in ((u_inc, du_inc), (u_ref, du_ref)))
    u_inc, u_ref = np.concatenate([u_inc, nan]), np.concatenate([u_ref, nan])
    if kink is not data:
        y = -y + 0.0  # + 0.0 turns -0.0 into 0.0
        (u, v), (u_inc, v_inc), (u_ref, v_ref) = conjugate_spinor(
            kink, (u, v), (u_inc, v_inc), (u_ref, v_ref))
    return y / data.M, {"u": u, "v": v, "u_inc": u_inc, "u_ref": u_ref, "v_inc": v_inc, "v_ref": v_ref}


def conjugate_spinor(kink: ScatteringData, *pairs):
    """The antikink's (u, v)(y) = lam (conj v_k, -conj u_k) for each of the
    kink's (u_k, v_k)(-y) pairs, where kink is the antikink's ScatteringData.kink."""
    sp = kink.basis[0].spectral
    k = sp.k.conjugate()
    lam = 1j * cmath.exp(-math.pi * k / 2.0) / (k + sp.E)
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
    # Real division: numpy divides a complex array by M through 1/M.
    data = _solve(bg, SpectralPoint(E=E / bg.M, k=k / bg.M), 0.0)
    ok = abs(data.delta) <= DELTA_BOUND
    if not ok.all():
        delta, k_bad = _first_failure(ok, data.delta, k)
        raise KinkDiracError(f"sweep: |delta| = {abs(delta):.3g} exceeds 3 pi/4 at "
                             f"k/M = {k_bad / bg.M:.6g} (M = {bg.M}); the match lost c1's phase")
    return ks, data
