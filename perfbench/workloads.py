"""Seeded request streams for the three benchmark workloads.

Each request is the argv of one `kinkdirac` CLI invocation plus the
parameters the output checks need.  The program sees only the argv; the
seed never reaches it.  The same (workload, seed) always yields the same
stream.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

WORKLOADS = ("sweep", "spectrum", "trace")
# Each stream cycles through its (sign, branch) mix in blocks of this many
# requests; a run that ends on a block boundary gives every mix equal shares.
BLOCK = {"sweep": 4, "spectrum": 2, "trace": 4}

SIGNS = ("kink", "antikink")
BRANCHES = ("positive", "negative")

# sweep: 256 log-spaced momenta from a k_min/M window to a k_max/M window,
# both inside the CLI default range [1e-3, 50].
SWEEP_SAMPLES = 256
SWEEP_K_MIN = (1e-3, 2e-3)
SWEEP_K_MAX = (40.0, 50.0)
# Rows per sweep request that are checked against the direct-integration
# oracle, drawn from the rows with k <= SWEEP_ORACLE_K_MAX * M: the oracle's
# cost grows with k (about 1 s per row at k = 45 M against 0.03 s below M).
# Every row, up to k_max, gets the unitarity check.
SWEEP_ORACLE_ROWS = 2
SWEEP_ORACLE_K_MAX = 10.0
# trace: scatter traces at k/M in this window; every VALIDATE_EVERY-th request
# is a `validate` run instead.  At 1 in 64 the validate runs stay well inside
# the ten slowest requests of a run, so request_tail_s never straddles the two
# request kinds.
TRACE_K = (0.05, 2.0)
TRACE_SAMPLES = 201
VALIDATE_EVERY = 64
# Mass scale for every workload; observables depend only on k/M.
M_RANGE = (1.0, 10.0)


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its output check needs to know."""

    argv: tuple[str, ...]
    command: str
    M: float
    K_sign: str
    E_branch: str = "positive"
    k: float | None = None
    k_min: float | None = None
    k_max: float | None = None
    oracle_rows: tuple[int, ...] = ()


def _num(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _combos(rng: random.Random):
    """Endless (sign, branch) pairs in shuffled blocks of four, so kink and
    antikink and both energy branches get equal shares."""
    while True:
        block = list(itertools.product(SIGNS, BRANCHES))
        rng.shuffle(block)
        yield from block


def _sweep(rng: random.Random):
    for sign, branch in _combos(rng):
        M = rng.uniform(*M_RANGE)
        k_min = M * rng.uniform(*SWEEP_K_MIN)
        k_max = M * rng.uniform(*SWEEP_K_MAX)
        # Row i of the CLI's grid is k_min * (k_max / k_min) ** (i / (samples - 1)).
        last = int((SWEEP_SAMPLES - 1) * math.log(SWEEP_ORACLE_K_MAX * M / k_min)
                   / math.log(k_max / k_min))
        rows = tuple(sorted(rng.sample(range(last + 1), SWEEP_ORACLE_ROWS)))
        argv = (
            "phase-sweep", "--M", _num(M), "--K-sign", sign, "--E-branch", branch,
            "--k-min", _num(k_min), "--k-max", _num(k_max),
            "--samples", str(SWEEP_SAMPLES),
        )
        yield Request(argv, "phase-sweep", M, sign, branch, k_min=k_min, k_max=k_max,
                      oracle_rows=rows)


def _spectrum(rng: random.Random):
    first = rng.randrange(2)
    for i in itertools.count():
        sign = SIGNS[(first + i) % 2]
        M = rng.uniform(*M_RANGE)
        yield Request(("bound-states", "--M", _num(M), "--K-sign", sign),
                      "bound-states", M, sign)


def _trace(rng: random.Random):
    combos = _combos(rng)
    for i in itertools.count():
        sign, branch = next(combos)
        M = rng.uniform(*M_RANGE)
        k = M * _log_uniform(rng, *TRACE_K)
        common = ("--M", _num(M), "--K-sign", sign, "--E-branch", branch, "--k", _num(k))
        if i % VALIDATE_EVERY == VALIDATE_EVERY - 1:
            yield Request(("validate",) + common, "validate", M, sign, branch, k=k)
        else:
            argv = ("scatter",) + common + ("--samples", str(TRACE_SAMPLES))
            yield Request(argv, "scatter", M, sign, branch, k=k)


_STREAMS = {"sweep": _sweep, "spectrum": _spectrum, "trace": _trace}


def requests(workload: str, seed: int):
    """Endless, reproducible request stream of one workload."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))


def first_requests(workload: str, seed: int, n: int) -> list[Request]:
    return list(itertools.islice(requests(workload, seed), n))
