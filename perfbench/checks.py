"""Output checks: each request's printed CSV against independent references.

Every check returns the worst relative error it measured (None when the check
is pass/fail only) or raises CheckFailed.  The gates are the repository's
existing accuracy bounds.  The checks run outside the timed region.
"""

from __future__ import annotations

import math

from kinkdirac.errors import KinkDiracError
from kinkdirac.oracle import oracle_scattering, residuals
from kinkdirac.soliton import SolitonBackground, SpectralPoint

from workloads import Request

UNITARITY_GATE = 1e-6
ORACLE_C1_GATE = 1e-6
RESIDUAL_GATE = 1e-6
# Nonzero bound level of the kink channel in units of M; the antikink has the
# mirror image.  The zero mode is the Jackiw-Rebbi state at E = 0.
BOUND_LEVEL = 0.8463614
BOUND_GATE = 1e-6
LEVINSON_GATE = 0.05 * math.pi


class CheckFailed(Exception):
    """A printed output missed its gate or had the wrong shape."""


def parse_csv(text: str):
    """(rows as dicts of strings, check lines as dicts of strings)."""
    lines = text.splitlines()
    if not lines:
        raise CheckFailed("empty output")
    header = lines[0].split(",")
    rows, notes = [], []
    for line in lines[1:]:
        if line.startswith("# check "):
            notes.append(dict(item.split("=", 1) for item in line[len("# check "):].split()))
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise CheckFailed(f"row has {len(fields)} fields, header has {len(header)}")
        rows.append(dict(zip(header, fields)))
    return rows, notes


def background(req: Request) -> SolitonBackground:
    return SolitonBackground(M=req.M, K=req.M if req.K_sign == "kink" else -req.M)


def _energy(req: Request, k: float) -> float:
    E = math.hypot(req.M, k)
    return E if req.E_branch == "positive" else -E


def check_sweep(req: Request, text: str) -> float:
    """|T + R - 1| on every row; oracle c1 at the printed (E, k) of the seeded rows."""
    rows, _ = parse_csv(text)
    if len(rows) != int(req.argv[req.argv.index("--samples") + 1]):
        raise CheckFailed(f"expected one row per requested k, got {len(rows)}")
    worst = 0.0
    for row in rows:
        err = abs(float(row["T"]) + float(row["R"]) - 1.0)
        if not err <= UNITARITY_GATE:
            raise CheckFailed(f"|T + R - 1| = {err:.3g} at k = {row['k']}")
        worst = max(worst, err)
    bg = background(req)
    for i in req.oracle_rows:
        row = rows[i]
        k, E = float(row["k"]), float(row["E"])
        if abs(E - _energy(req, k)) > 1e-12 * abs(E):
            raise CheckFailed(f"printed E = {E} is off the requested branch at k = {k}")
        c1 = complex(float(row["re_c1"]), float(row["im_c1"]))
        c1_ref, _ = oracle_scattering(bg, SpectralPoint(E=E, k=k))
        err = abs(c1 - c1_ref) / abs(c1_ref)
        if not err <= ORACLE_C1_GATE:
            raise CheckFailed(f"c1 differs from the oracle by {err:.3g} (relative) at "
                              f"E = {E}, k = {k}")
        worst = max(worst, err)
    return worst


def check_bound_states(req: Request, text: str) -> float:
    """Energies {0, +-0.8463614 M} within 1e-6 M, and Levinson's sum rule
    recomputed from the printed phase shifts and bound-state count."""
    rows, notes = parse_csv(text)
    M = req.M
    sign = 1.0 if req.K_sign == "kink" else -1.0
    expected = sorted([0.0, sign * BOUND_LEVEL * M])
    energies = sorted(float(r["E"]) for r in rows)
    if len(energies) != len(expected):
        raise CheckFailed(f"expected energies {expected}, got {energies}")
    worst = 0.0
    for E, E_ref in zip(energies, expected):
        err = abs(E - E_ref) / M
        if not err <= BOUND_GATE:
            raise CheckFailed(f"bound energy {E} misses {E_ref} by {err:.3g} M")
        worst = max(worst, err)
    lev = [n for n in notes if n.get("name") == "levinson"]
    if len(lev) != 1:
        raise CheckFailed("no Levinson check line")
    lev = lev[0]
    n_b = int(lev["n_b"])
    if n_b != sum(1 for E in energies if E > 0.01 * M):
        raise CheckFailed(f"Levinson n_b = {n_b} disagrees with the printed energies")
    jump = float(lev["delta_at_zero"]) - float(lev["delta_at_infinity"])
    discrepancy = abs(jump - math.pi * (n_b - 0.5))
    if not discrepancy <= LEVINSON_GATE or lev["passed"] != "true":
        raise CheckFailed(f"Levinson discrepancy {discrepancy:.3g} (printed passed="
                          f"{lev['passed']})")
    return worst


def check_scatter(req: Request, text: str) -> float:
    """Governing-equation residuals of the printed (u, v) traces on the
    uniform grid left after dropping the duplicated x = 0 row."""
    rows, _ = parse_csv(text)
    n = 2 * int(req.argv[req.argv.index("--samples") + 1])
    if len(rows) != n:
        raise CheckFailed(f"expected {n} rows, got {len(rows)}")
    points = {}
    for row in rows:
        x = float(row["x"])
        point = (complex(float(row["re_u"]), float(row["im_u"])),
                 complex(float(row["re_v"]), float(row["im_v"])))
        if x in points and points[x] != point:
            raise CheckFailed(f"the two rows at x = {x} differ")
        points[x] = point
    xs = sorted(points)
    if len(xs) != n - 1:
        raise CheckFailed(f"expected one duplicated x, got {n - len(xs)}")
    sp = SpectralPoint(E=_energy(req, req.k), k=req.k)
    try:
        rep = residuals(xs, [points[x][0] for x in xs], [points[x][1] for x in xs],
                        background(req), sp)
    except ValueError as exc:
        raise CheckFailed(str(exc)) from exc
    if not rep.max_rel_residual <= RESIDUAL_GATE:
        raise CheckFailed(f"relative residual {rep.max_rel_residual:.3g} at x = {rep.worst_x}")
    return rep.max_rel_residual


def check_validate(req: Request, text: str) -> None:
    """Every check of `validate` passed."""
    rows, _ = parse_csv(text)
    failed = [r["name"] for r in rows if r["passed"] != "true"]
    if not rows or failed:
        raise CheckFailed(f"validate checks failed: {failed or 'none printed'}")


CHECKS = {
    "phase-sweep": check_sweep,
    "bound-states": check_bound_states,
    "scatter": check_scatter,
    "validate": check_validate,
}


def check(req: Request, exit_code: int, text: str) -> float | None:
    """Check one request's exit code and output; returns its worst relative error."""
    if exit_code != 0:
        raise CheckFailed(f"exit code {exit_code}")
    try:
        return CHECKS[req.command](req, text)
    except (KeyError, ValueError, IndexError, KinkDiracError) as exc:
        raise CheckFailed(f"{type(exc).__name__}: {exc}") from exc


def known_defect(req: Request) -> str | None:
    """The documented defect a failure of this request belongs to, if any.

    `phase-sweep --E-branch negative` prints E < 0 next to c1, T and R of the
    positive branch (`unwrap_sweep` always builds the positive-branch point).
    Once the branch is honoured, the antikink's negative branch loses
    unitarity from k/M ~ 28 (ROADMAP open item 4).  Both failures still count
    as failed requests.
    """
    if req.command == "phase-sweep" and req.E_branch == "negative":
        return "known defect: phase-sweep --E-branch negative prints the positive branch's c1, T, R"
    return None

