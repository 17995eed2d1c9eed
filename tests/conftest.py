import math

import pytest

from kinkdirac.soliton import SolitonBackground, SpectralPoint


@pytest.fixture(scope="session")
def bg5() -> SolitonBackground:
    """Reference kink background: M = K = 5, beta = 1."""
    return SolitonBackground(M=5.0, K=5.0, beta=1.0)


@pytest.fixture(scope="session")
def bg5_anti() -> SolitonBackground:
    return SolitonBackground(M=5.0, K=-5.0, beta=1.0)


@pytest.fixture(scope="session")
def sp25(bg5) -> SpectralPoint:
    """Reference scattering point: k = 2.5, E = +sqrt(31.25)."""
    return SpectralPoint.scattering(bg5, 2.5)


@pytest.fixture(scope="session")
def sp05() -> SpectralPoint:
    """The reference point in units of M, as the core takes it: k/M = 1/2, E/M = +sqrt(5)/2."""
    return SpectralPoint(E=math.sqrt(1.25), k=0.5)


def rel(a, b) -> float:
    """Relative difference |a - b| / max(|a|, |b|)."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


@pytest.fixture(scope="session")
def reldiff():
    return rel


@pytest.fixture(scope="session")
def E25() -> float:
    return math.sqrt(31.25)
