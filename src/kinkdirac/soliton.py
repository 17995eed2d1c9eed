"""Kink background and the local Dirac spinor solutions.

The background is the sine-Gordon kink phi(x) = -(2/beta) arctan(e^{2Kx}) with
K = +M (kink) or K = -M (antikink).  The upper spinor component u obeys

    u'' - 4iK sech(2Kx) u' + (E^2 - M^2 + 4EK sech(2Kx)) u = 0,

which maps onto the Heun equation under z = 1/(1 - i e^{2Kx}) (U1 family,
analytic about the transmitted side) or z = 1/(1 + i e^{-2Kx}) (U2 family,
analytic about the incident side).  The lower component follows algebraically,

    v(x) = (i/M) ((1 + i e^{-2Kx}) / (1 - i e^{-2Kx}))^2 (E u - i u').

The coordinate maps are numpy expressions over one x or a whole array of x,
written in t = +-2Kx through e^{-|t|}, so nothing overflows at large |x|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .heun import HeunParams, _first_failure, _xp, heun_eval, second_solution_params

HALF = 0.5 + 0j  # the third Heun singularity for this background
# Largest |E^2 - M^2 - k^2| accepted, relative to max(|E^2|, |M^2 + k^2|, M^2).
DISPERSION_TOL = 1e-10


class Family(Enum):
    """The three local spinor building blocks of the Wronskian match."""

    U1_FIRST = "u1_first"    # transmitted wave, analytic about z1 = 0 (x -> +inf side)
    U2_FIRST = "u2_first"    # incident wave, analytic about z2 = 0 (x -> -inf side)
    U2_SECOND = "u2_second"  # reflected wave, second solution of the U2 problem

    @property
    def is_u1(self) -> bool:
        return self is Family.U1_FIRST


@dataclass(frozen=True)
class SolitonBackground:
    """Physical parameters of the kink: bare mass M, kink scale K = +/-M, coupling beta."""

    M: float
    K: float
    beta: float = 1.0

    def __post_init__(self):
        if not (self.M > 0):
            raise DomainError(f"mass M must be positive, got {self.M}")
        if abs(abs(self.K) - self.M) > 1e-12 * self.M:
            raise DomainError(f"kink scale must satisfy |K| = M, got K = {self.K}, M = {self.M}")
        if self.beta == 0:
            raise DomainError("coupling beta must be nonzero")

    @property
    def kink(self) -> SolitonBackground:
        """The kink K = +M of this mass and coupling (self for a kink)."""
        return self if self.K > 0 else SolitonBackground(M=self.M, K=self.M, beta=self.beta)

    def check_kink(self, stage: str) -> None:
        """Raise DomainError naming the stage unless this is the kink: local
        solutions are built for K = +M only, the antikink is its image."""
        if self.K < 0:
            raise DomainError(f"{stage}: local solutions are built for the kink K = +M only, "
                              f"got K = {self.K}; antikink results are mapped from the kink at -E")


@dataclass(frozen=True)
class SpectralPoint:
    """Energy/momentum pair on the dispersion relation E^2 = M^2 + k^2.

    k is real for scattering states; k = i*kappa (kappa > 0) for the
    bound-state continuation.  E and k are numpy arrays for a batch.
    """

    E: float
    k: complex

    def __post_init__(self):
        xp = _xp(self.E, self.k)
        object.__setattr__(self, "E", xp.asarray(self.E, float))
        object.__setattr__(self, "k", xp.asarray(self.k, complex))

    @classmethod
    def scattering(cls, bg: SolitonBackground, k: float, branch: str = "positive"):
        E = _xp(k).hypot(bg.M, k)
        if branch == "negative":
            E = -E
        elif branch != "positive":
            raise ValueError(f"unknown energy branch {branch!r}")
        return cls(E=E, k=k)

    @classmethod
    def bound(cls, bg: SolitonBackground, E: float):
        """Bound continuation k = i kappa, kappa = sqrt(M^2 - E^2), of the kink:
        e^{ikx} decays on the transmitted side x -> +inf, so zeros of c1 are
        genuine two-sided decaying states."""
        bg.check_kink("SpectralPoint.bound")
        xp, ok = _xp(E), abs(E) < bg.M
        if not xp.all(ok):
            E = _first_failure(ok, E)[0]
            raise DomainError(f"bound energy must satisfy |E| < M, got E = {E}, M = {bg.M}")
        return cls(E=E, k=1j * xp.sqrt(bg.M * bg.M - E * E))

    def check_dispersion(self, bg: SolitonBackground) -> None:
        lhs = self.E * self.E
        rhs = bg.M * bg.M + self.k * self.k
        xp = _xp(lhs, rhs)
        scale = xp.maximum(xp.maximum(abs(lhs), abs(rhs)), bg.M * bg.M)
        ok = abs(lhs - rhs) <= DISPERSION_TOL * scale
        if not xp.all(ok):
            E, k = _first_failure(ok, self.E, self.k)
            raise DomainError(f"(E, k) = ({E}, {k}) violates E^2 = M^2 + k^2 for M = {bg.M}")


@dataclass(frozen=True)
class LocalSolution:
    """One local spinor building block: Heun parameters plus x-space prefactor.

    The prefactor is amp * e^{ikx} * z^{z_power}; z_power = 0 for the first
    solutions and 1 - gamma(base) for U2_SECOND.
    """

    family: Family
    params: HeunParams
    background: SolitonBackground
    spectral: SpectralPoint
    amp: complex
    z_power: complex


def kink_profile(bg: SolitonBackground, x: float) -> float:
    """Kink profile phi(x) = -(2/beta) arctan(e^{2Kx})."""
    s = 2.0 * bg.K * x
    if s > 350.0:
        arc = 0.5 * math.pi
    else:
        arc = math.atan(math.exp(s))
    return -(2.0 / bg.beta) * arc


# ---------------------------------------------------------------------------
# Coordinate maps (stable in both tails)
# ---------------------------------------------------------------------------


def _rate(family: Family, bg: SolitonBackground) -> float:
    """dt/dx of the variable t the maps below are written in: 2K for U2, -2K for U1."""
    return -2.0 * bg.K if family.is_u1 else 2.0 * bg.K


def _map(family: Family, bg: SolitonBackground, x):
    """(t, j, e) for z = 1/(1 + j e^{-t}): U2's map at t = 2Kx, j = i, and U1's,
    the same map at t = -2Kx with i -> -i; e = e^{-|t|} <= 1 serves both tails.
    One point runs as an array of one, so it rounds as an element of a batch."""
    t = _rate(family, bg) * np.atleast_1d(x)
    return t, (-1j if family.is_u1 else 1j), np.exp(-abs(t))


def _like(x, v):
    """v, computed on np.atleast_1d(x), as x came: a Python complex for one point."""
    return v if isinstance(x, np.ndarray) else complex(v[0])


def map_to_z(family: Family, bg: SolitonBackground, x):
    """Heun argument of the given family at coordinate x (a float or an array).

    U1: z = 1/(1 - i e^{2Kx}); U2: z = 1/(1 + i e^{-2Kx}).  1/(1 + j e) for
    t >= 0 and e/(e + j) below, so neither tail overflows; the limits 0 and 1
    are reached exactly once e underflows.
    """
    t, j, e = _map(family, bg, x)
    return _like(x, np.where(t >= 0, 1.0 / (1.0 + j * e), e / (e + j)))


def log_z(family: Family, bg: SolitonBackground, x):
    """Principal log of map_to_z, computed without evaluating z in the tails."""
    t, j, e = _map(family, bg, x)
    return _like(x, np.where(t >= 0, -np.log(1.0 + j * e), t - j * (math.pi / 2) - np.log(1.0 - j * e)))


def _dlogz_dx(family: Family, bg: SolitonBackground, z):
    """d(log z)/dx through z itself: dt/dx (1 - z); dz/dx is z times it."""
    return _rate(family, bg) * (1.0 - z)


def ratio_squared(bg: SolitonBackground, x):
    """((1 + i e^{-2Kx}) / (1 - i e^{-2Kx}))^2 = 1/(2 z2 - 1)^2, since the two
    factors are 1/z2 and 2 - 1/z2 for U2's z2; unit modulus, stable in both tails."""
    w = 2.0 * np.atleast_1d(map_to_z(Family.U2_FIRST, bg, x)) - 1.0
    return _like(x, 1.0 / (w * w))


# ---------------------------------------------------------------------------
# Local solutions
# ---------------------------------------------------------------------------


def _base_params(family: Family, bg: SolitonBackground, sp: SpectralPoint) -> HeunParams:
    kk = sp.k / bg.K
    if family.is_u1:
        return HeunParams(
            a=HALF, q=1j * (sp.E + sp.k) / bg.K, alpha=-1, beta=0,
            gamma=1 - 1j * kk, delta=1 + 1j * kk,
        )
    return HeunParams(
        a=HALF, q=-1j * (sp.E + sp.k) / bg.K, alpha=-1, beta=0,
        gamma=1 + 1j * kk, delta=1 - 1j * kk,
    )


def build_solution(family: Family, bg: SolitonBackground, sp: SpectralPoint) -> LocalSolution:
    """Assemble the LocalSolution for one of the three families of the kink."""
    bg.check_kink("build_solution")
    sp.check_dispersion(bg)
    base = _base_params(family, bg, sp)
    quarter = math.pi * sp.k / (4.0 * bg.K)
    power = quarter if family.is_u1 else -quarter
    xp, ok = _xp(power), power.real < 709.78  # e^709.78 is about the largest double
    if not xp.all(ok):
        raise DomainError(f"build_solution: gauge factor e^(+-pi k/4K) overflows at "
                          f"k/M = {abs(_first_failure(ok, sp.k)[0]) / bg.M:.6g}")
    amp = xp.exp(power)
    if family is Family.U2_SECOND:
        params = second_solution_params(base)
        z_power = 1 - base.gamma  # -i k/K
    else:
        params = base
        z_power = 0j
    return LocalSolution(
        family=family, params=params,
        background=bg, spectral=sp, amp=amp, z_power=z_power,
    )


def eval_u(sol: LocalSolution, x: float):
    """Upper spinor component u(x) and its x-derivative for one local solution.

    u = amp * e^{ikx} * z^{z_power} * Hl(z) with the appropriate parameter set;
    the derivative uses the analytic chain rule through the map x -> z.  x may
    be a numpy array for one spectral point: one heun_eval batch.
    """
    bg = sol.background
    bg.check_kink("eval_u")
    z = map_to_z(sol.family, bg, x)
    return _u_from_heun(sol, x, z, *heun_eval(sol.params, z))


def eval_u_at_origin(*sols: LocalSolution):
    """eval_u(sol, 0.0) for several local solutions of one spectral batch, from one
    heun_eval batch at z2(0) = 1/(1 + i) = conj z1(0).  Hl(conj p, conj z) =
    conj Hl(p, z) (the recurrence is real, the cut [a, inf) lies on the real axis),
    so a U1 set joins the batch conjugated and its (Hl, Hl') is conjugated back.
    Each distinct set joins once (exact array equality): for real k the
    conjugated U1 set is U2_FIRST's, and both read one (Hl, Hl')."""
    bg, n = sols[0].background, sols[0].spectral.k.size
    bg.check_kink("eval_u_at_origin")
    flips = [np.conjugate if sol.family.is_u1 else np.asarray for sol in sols]
    sets = [[f(np.broadcast_to(getattr(sol.params, name), n))
             for name in ("q", "alpha", "beta", "gamma", "delta")] for f, sol in zip(flips, sols)]
    first = [next(i for i, t in enumerate(sets) if all(map(np.array_equal, s, t))) for s in sets]
    rows, pick = np.unique(first, return_inverse=True)  # the distinct sets; each solution's row
    stacked = HeunParams(HALF, *map(np.concatenate, zip(*(sets[i] for i in rows))))
    h, dh = (v.reshape(-1, n)[pick] for v in heun_eval(stacked, map_to_z(Family.U2_FIRST, bg, 0.0)))
    return [_u_from_heun(sol, 0.0, map_to_z(sol.family, bg, 0.0), f(h_i), f(dh_i))
            for f, sol, h_i, dh_i in zip(flips, sols, h, dh)]


def _u_from_heun(sol: LocalSolution, x: float, z: complex, h: complex, dh: complex):
    """(u, u') at x from (Hl, Hl') at z = map_to_z(x): prefactor and chain rule."""
    bg, sp = sol.background, sol.spectral
    log_pref = 1j * sp.k * x
    if sol.family is Family.U2_SECOND:
        log_pref = log_pref + sol.z_power * log_z(sol.family, bg, x)
    pref = sol.amp * _xp(log_pref).exp(log_pref)
    u = pref * h
    dlogz = _dlogz_dx(sol.family, bg, z)
    du = (1j * sp.k + sol.z_power * dlogz) * u + pref * dh * (z * dlogz)
    return u, du


def v_from_u(u: complex, du: complex, bg: SolitonBackground, sp: SpectralPoint, x: float) -> complex:
    """Lower component from (u, u'): v = (i/M) ratio^2 (E u - i u')."""
    return (1j / bg.M) * ratio_squared(bg, x) * (sp.E * u - 1j * du)

