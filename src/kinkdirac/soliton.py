"""Kink background and the local Dirac spinor solutions.

The background is the sine-Gordon kink phi(x) = -(2/beta) arctan(e^{2Kx}) with
K = +M (kink) or K = -M (antikink).  The upper spinor component u obeys

    u'' - 4iK sech(2Kx) u' + (E^2 - M^2 + 4EK sech(2Kx)) u = 0,

which maps onto the Heun equation under z = 1/(1 - i e^{2Kx}) (U1 family,
analytic about the transmitted side) or z = 1/(1 + i e^{-2Kx}) (U2 family,
analytic about the incident side).  The lower component follows algebraically,

    v(x) = (i/M) ((1 + i e^{-2Kx}) / (1 - i e^{-2Kx}))^2 (E u - i u').

All evaluations are written in the scaled variable s = 2Kx with explicit
asymptotically stable forms, so nothing overflows at large |x|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import DomainError
from .heun import (
    HeunParams,
    check_gamma_nondegenerate,
    heun_eval,
    second_solution_params,
)

HALF = 0.5 + 0j  # the third Heun singularity for this background


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
    def is_kink(self) -> bool:
        return self.K > 0


@dataclass(frozen=True)
class SpectralPoint:
    """Energy/momentum pair on the dispersion relation E^2 = M^2 + k^2.

    k is real for scattering states; k = i*kappa (kappa > 0) for the
    bound-state continuation.
    """

    E: float
    k: complex

    def __post_init__(self):
        object.__setattr__(self, "E", float(self.E))
        object.__setattr__(self, "k", complex(self.k))

    @classmethod
    def scattering(cls, bg: SolitonBackground, k: float, branch: str = "positive"):
        E = math.hypot(bg.M, k)
        if branch == "negative":
            E = -E
        elif branch != "positive":
            raise ValueError(f"unknown energy branch {branch!r}")
        return cls(E=E, k=complex(k))

    @classmethod
    def bound(cls, bg: SolitonBackground, E: float):
        """Bound continuation k = i kappa sign(K), kappa = sqrt(M^2 - E^2).

        The sign makes e^{ikx} decay on the side where the transmitted-frame
        Heun argument tends to 0 (x -> +inf for the kink, x -> -inf for the
        antikink), so zeros of c1 are genuine two-sided decaying states.
        """
        if abs(E) >= bg.M:
            raise DomainError(f"bound energy must satisfy |E| < M, got E = {E}, M = {bg.M}")
        kappa = math.sqrt(bg.M * bg.M - E * E)
        sign = 1.0 if bg.K > 0 else -1.0
        return cls(E=E, k=1j * kappa * sign)

    def check_dispersion(self, bg: SolitonBackground, tol: float = 1e-10) -> None:
        lhs = self.E * self.E
        rhs = bg.M * bg.M + self.k * self.k
        scale = max(abs(lhs), abs(rhs), bg.M * bg.M)
        if abs(lhs - rhs) > tol * scale:
            raise DomainError(
                f"(E, k) = ({self.E}, {self.k}) violates E^2 = M^2 + k^2 for M = {bg.M}"
            )


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


def topological_charge(bg: SolitonBackground) -> float:
    """(beta / 2 pi) (phi(+inf) - phi(-inf)): +1/2 for the kink, -1/2 for the antikink."""
    return (bg.beta / (2.0 * math.pi)) * (kink_profile(bg, 1e6 / bg.M) - kink_profile(bg, -1e6 / bg.M))


# ---------------------------------------------------------------------------
# Coordinate maps (stable in both tails)
# ---------------------------------------------------------------------------


def map_to_z(family: Family, bg: SolitonBackground, x: float) -> complex:
    """Heun argument of the given family at coordinate x.

    U1: z = 1/(1 - i e^{2Kx}); U2: z = 1/(1 + i e^{-2Kx}).
    Written so that neither tail overflows; the limits 0 and 1 are reached
    exactly once the exponential underflows.
    """
    s = 2.0 * bg.K * x
    if family.is_u1:
        if s <= 0:
            return 1.0 / (1.0 - 1j * math.exp(s))
        es = math.exp(-s)
        return es / (es - 1j)
    if s >= 0:
        return 1.0 / (1.0 + 1j * math.exp(-s))
    es = math.exp(s)
    return es / (es + 1j)


def log_z(family: Family, bg: SolitonBackground, x: float) -> complex:
    """Principal log of map_to_z, computed without evaluating z in the tails."""
    s = 2.0 * bg.K * x
    if family.is_u1:
        if s <= 0:
            return -cmath.log(1.0 - 1j * math.exp(s))
        return -s + 1j * (math.pi / 2) - cmath.log(1.0 + 1j * math.exp(-s))
    if s >= 0:
        return -cmath.log(1.0 + 1j * math.exp(-s))
    return s - 1j * (math.pi / 2) - cmath.log(1.0 - 1j * math.exp(s))


def dz_dx(family: Family, bg: SolitonBackground, z: complex) -> complex:
    """dz/dx expressed through z itself: +/- 2K z (z - 1)."""
    sign = 1.0 if family.is_u1 else -1.0
    return sign * 2.0 * bg.K * z * (z - 1.0)


def _dlogz_dx(family: Family, bg: SolitonBackground, z: complex) -> complex:
    sign = 1.0 if family.is_u1 else -1.0
    return sign * 2.0 * bg.K * (z - 1.0)


def ratio_squared(bg: SolitonBackground, x: float) -> complex:
    """((1 + i e^{-2Kx}) / (1 - i e^{-2Kx}))^2, stable in both tails (unit modulus)."""
    s = 2.0 * bg.K * x
    if s >= 0:
        es = math.exp(-s)
        r = (1.0 + 1j * es) / (1.0 - 1j * es)
    else:
        es = math.exp(s)
        r = (es + 1j) / (es - 1j)
    return r * r


def ansatz_phase(bg: SolitonBackground, x: float) -> complex:
    """e^{2 i beta phi(x)} = -ratio_squared(x)."""
    return -ratio_squared(bg, x)


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
    """Assemble the LocalSolution for one of the three families."""
    sp.check_dispersion(bg)
    base = _base_params(family, bg, sp)
    quarter = math.pi * sp.k / (4.0 * bg.K)
    try:
        amp = cmath.exp(quarter) if family.is_u1 else cmath.exp(-quarter)
    except OverflowError:
        raise DomainError(
            f"build_solution: gauge factor e^(+-pi k/4K) overflows at k/M = {abs(sp.k) / bg.M:.6g}"
        ) from None
    if family is Family.U2_SECOND:
        check_gamma_nondegenerate(base, second=True)
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
    the derivative uses the analytic chain rule through the map x -> z.
    """
    bg, sp = sol.background, sol.spectral
    z = map_to_z(sol.family, bg, x)
    h, dh = heun_eval(sol.params, z)
    log_pref = 1j * sp.k * x
    if sol.z_power != 0:
        log_pref = log_pref + sol.z_power * log_z(sol.family, bg, x)
    pref = sol.amp * cmath.exp(log_pref)
    u = pref * h
    dlog = 1j * sp.k + sol.z_power * _dlogz_dx(sol.family, bg, z)
    du = dlog * u + pref * dh * dz_dx(sol.family, bg, z)
    return u, du


def v_from_u(u: complex, du: complex, bg: SolitonBackground, sp: SpectralPoint, x: float) -> complex:
    """Lower component from (u, u'): v = (i/M) ratio^2 (E u - i u')."""
    return (1j / bg.M) * ratio_squared(bg, x) * (sp.E * u - 1j * du)

