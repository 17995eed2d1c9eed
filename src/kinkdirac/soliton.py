"""Kink background and the local Dirac spinor solutions, in units of M.

The background is the sine-Gordon kink phi(x) = -(2/beta) arctan(e^{2Kx}) with
K = +M (kink) or K = -M (antikink).  beta cancels and M is a unit, so the core
solves the kink in y = Mx, with E and k standing for E/M and k/M:

    u'' - 4i sech(2y) u' + (E^2 - 1 + 4E sech(2y)) u = 0    (' = d/dy),

which maps onto the Heun equation under z = 1/(1 - i e^{2y}) (U1 family,
analytic about the transmitted side) or z = 1/(1 + i e^{-2y}) (U2 family,
analytic about the incident side).  The lower component follows algebraically,

    v(y) = i ((1 + i e^{-2y}) / (1 - i e^{-2y}))^2 (E u - i u').

The coordinate maps are numpy expressions over one y or a whole array of y,
written in t = +-2y through e^{-|t|}, so nothing overflows at large |y|.
SolitonBackground belongs to the entry points in scattering and spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .heun import HeunParams, _first_failure, _xp, heun_eval, second_solution_params

HALF = 0.5 + 0j  # the third Heun singularity for this background
# Largest |E^2 - 1 - k^2| accepted (E, k in units of M), relative to
# max(|E^2|, |1 + k^2|, 1).
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


@dataclass(frozen=True)
class SpectralPoint:
    """Energy/momentum pair on E^2 = M^2 + k^2: (E/M, k/M) in the core.

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
    def bound(cls, E: float):
        """Bound continuation k = i kappa, kappa = sqrt(1 - E^2) (units of M):
        e^{iky} decays on the transmitted side y -> +inf, so zeros of c1 are
        genuine two-sided decaying states."""
        return cls(E=E, k=1j * _xp(E).sqrt(1.0 - E * E))

    def check_dispersion(self) -> None:
        """Raise DomainError unless (E, k), in units of M, satisfies E^2 = 1 + k^2."""
        lhs = self.E * self.E
        rhs = 1.0 + self.k * self.k
        xp = _xp(lhs, rhs)
        scale = xp.maximum(xp.maximum(abs(lhs), abs(rhs)), 1.0)
        ok = abs(lhs - rhs) <= DISPERSION_TOL * scale
        if not xp.all(ok):
            E, k = _first_failure(ok, self.E, self.k)
            raise DomainError(f"(E/M, k/M) = ({E}, {k}) violates (E/M)^2 = 1 + (k/M)^2")


@dataclass(frozen=True)
class LocalSolution:
    """One local spinor building block: Heun parameters plus y-space prefactor.

    The prefactor is amp * e^{iky} * z^{z_power}; z_power = 0 for the first
    solutions and 1 - gamma(base) for U2_SECOND.
    """

    family: Family
    params: HeunParams
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
# Coordinate maps (stable in both tails), in y = Mx
# ---------------------------------------------------------------------------


def _map(family: Family, y):
    """(t, j, e) for z = 1/(1 + j e^{-t}): U2's map at t = 2y, j = i, and U1's,
    the same map at t = -2y with i -> -i; e = e^{-|t|} <= 1 serves both tails.
    One point runs as an array of one, so it rounds as an element of a batch."""
    t = (-2.0 if family.is_u1 else 2.0) * np.atleast_1d(y)
    return t, (-1j if family.is_u1 else 1j), np.exp(-abs(t))


def _like(y, v):
    """v, computed on np.atleast_1d(y), as y came: a Python complex for one point."""
    return v if isinstance(y, np.ndarray) else complex(v[0])


def map_to_z(family: Family, y):
    """Heun argument of the given family at y = Mx (a float or an array).

    U1: z = 1/(1 - i e^{2y}); U2: z = 1/(1 + i e^{-2y}).  1/(1 + j e) for
    t >= 0 and e/(e + j) below, so neither tail overflows; the limits 0 and 1
    are reached exactly once e underflows.
    """
    t, j, e = _map(family, y)
    return _like(y, np.where(t >= 0, 1.0 / (1.0 + j * e), e / (e + j)))


def log_z(family: Family, y):
    """Principal log of map_to_z, computed without evaluating z in the tails."""
    t, j, e = _map(family, y)
    return _like(y, np.where(t >= 0, -np.log(1.0 + j * e), t - j * (math.pi / 2) - np.log(1.0 - j * e)))


def ratio_squared(y):
    """((1 + i e^{-2y}) / (1 - i e^{-2y}))^2 = 1/(2 z2 - 1)^2, since the two
    factors are 1/z2 and 2 - 1/z2 for U2's z2; unit modulus, stable in both tails."""
    w = 2.0 * np.atleast_1d(map_to_z(Family.U2_FIRST, y)) - 1.0
    return _like(y, 1.0 / (w * w))


# ---------------------------------------------------------------------------
# Local solutions
# ---------------------------------------------------------------------------


def _base_params(family: Family, sp: SpectralPoint) -> HeunParams:
    if family.is_u1:
        return HeunParams(
            a=HALF, q=1j * (sp.E + sp.k), alpha=-1, beta=0,
            gamma=1 - 1j * sp.k, delta=1 + 1j * sp.k,
        )
    return HeunParams(
        a=HALF, q=-1j * (sp.E + sp.k), alpha=-1, beta=0,
        gamma=1 + 1j * sp.k, delta=1 - 1j * sp.k,
    )


def build_solution(family: Family, sp: SpectralPoint) -> LocalSolution:
    """Assemble the LocalSolution for one of the three families of the kink."""
    sp.check_dispersion()
    base = _base_params(family, sp)
    quarter = math.pi * sp.k / 4.0
    power = quarter if family.is_u1 else -quarter
    xp, ok = _xp(power), power.real < 709.78  # e^709.78 is about the largest double
    if not xp.all(ok):
        raise DomainError(f"build_solution: gauge factor e^(+-pi k/4M) overflows at "
                          f"k/M = {abs(_first_failure(ok, sp.k)[0]):.6g}")
    amp = xp.exp(power)
    if family is Family.U2_SECOND:
        params = second_solution_params(base)
        z_power = 1 - base.gamma  # -i k/M
    else:
        params = base
        z_power = 0j
    return LocalSolution(family=family, params=params, spectral=sp, amp=amp, z_power=z_power)


def eval_u(sol: LocalSolution, y: float):
    """Upper spinor component u(y) and its y-derivative for one local solution.

    u = amp * e^{iky} * z^{z_power} * Hl(z) with the appropriate parameter set;
    the derivative uses the analytic chain rule through the map y -> z.  y may
    be a numpy array for one spectral point: one heun_eval batch.
    """
    z = map_to_z(sol.family, y)
    return _u_from_heun(sol, y, z, *heun_eval(sol.params, z))


def eval_u_at_origin(*sols: LocalSolution):
    """eval_u(sol, 0.0) for several local solutions of one spectral batch, from one
    heun_eval batch at z2(0) = 1/(1 + i) = conj z1(0).  Hl(conj p, conj z) =
    conj Hl(p, z) (the recurrence is real, the cut [a, inf) lies on the real axis),
    so a U1 set joins the batch conjugated and its (Hl, Hl') is conjugated back.
    Each distinct set joins once (exact array equality): for real k the
    conjugated U1 set is U2_FIRST's, and both read one (Hl, Hl')."""
    n = sols[0].spectral.k.size
    flips = [np.conjugate if sol.family.is_u1 else np.asarray for sol in sols]
    sets = [[f(np.broadcast_to(getattr(sol.params, name), n))
             for name in ("q", "alpha", "beta", "gamma", "delta")] for f, sol in zip(flips, sols)]
    first = [next(i for i, t in enumerate(sets) if all(map(np.array_equal, s, t))) for s in sets]
    rows, pick = np.unique(first, return_inverse=True)  # the distinct sets; each solution's row
    stacked = HeunParams(HALF, *map(np.concatenate, zip(*(sets[i] for i in rows))))
    h, dh = (v.reshape(-1, n)[pick] for v in heun_eval(stacked, map_to_z(Family.U2_FIRST, 0.0)))
    return [_u_from_heun(sol, 0.0, map_to_z(sol.family, 0.0), f(h_i), f(dh_i))
            for f, sol, h_i, dh_i in zip(flips, sols, h, dh)]


def _u_from_heun(sol: LocalSolution, y: float, z: complex, h: complex, dh: complex):
    """(u, u') at y from (Hl, Hl') at z = map_to_z(y): prefactor and chain rule."""
    sp = sol.spectral
    log_pref = 1j * sp.k * y
    if sol.family is Family.U2_SECOND:
        log_pref = log_pref + sol.z_power * log_z(sol.family, y)
    pref = sol.amp * _xp(log_pref).exp(log_pref)
    u = pref * h
    dlogz = (-2.0 if sol.family.is_u1 else 2.0) * (1.0 - z)  # d(log z)/dy = dt/dy (1 - z)
    du = (1j * sp.k + sol.z_power * dlogz) * u + pref * dh * (z * dlogz)
    return u, du


def v_from_u(u: complex, du: complex, sp: SpectralPoint, y: float) -> complex:
    """Lower component from (u, du/dy), in units of M: v = i ratio^2 (E u - i u')."""
    return 1j * ratio_squared(y) * (sp.E * u - 1j * du)
