"""Command-line interface: sweeps, wavefunction dumps, spectra, validation.

Subcommands
-----------
profile       kink profile (x, phi) samples
scatter       matched wavefunction traces around x = 0 at one momentum
phase-sweep   (k, E, c1, c2, T, R, delta) over a momentum grid
bound-states  bound levels plus the Levinson report
validate      cross-check suite (oracle vs Heun pipeline); exit 1 on failure

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 numerical failure.
Output is CSV (17 significant digits, fixed column order) or JSON with the
top-level shape {config, records, checks}.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import KinkDiracError
from .heun import heun_eval, heun_series
from .oracle import integrate_heun, oracle_scattering, residuals
from .scattering import log_grid, match_coefficients, matched_u, sweep, trace
from .soliton import SolitonBackground, SpectralPoint, kink_profile
from .spectrum import LEVINSON_K_TOP, find_bound_states, levinson_check


@dataclass
class RunConfig:
    """Resolved run parameters shared by all subcommands."""

    M: float
    K_sign: str
    beta: float
    k: float
    k_min: float
    k_max: float
    samples: int
    E_branch: str
    tol_continuation: float
    tol_root: float
    output_format: str
    output_path: str | None
    degrees: bool

    def __post_init__(self):
        for name in ("M", "beta", "k", "k_min", "k_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"--{name.replace('_', '-')} must be finite, got {getattr(self, name)}")
        if not self.M > 0:
            raise ValueError(f"--M must be positive, got {self.M}")
        if not (self.k_min > 0 and self.k_max > 0):
            raise ValueError("need k_min > 0 and k_max > 0")
        if self.samples < 2:
            raise ValueError("samples must be >= 2")
        for name in ("tol_continuation", "tol_root"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")

    @property
    def background(self) -> SolitonBackground:
        K = self.M if self.K_sign == "kink" else -self.M
        return SolitonBackground(M=self.M, K=K, beta=self.beta)

    def angle(self, radians: float) -> float:
        return math.degrees(radians) if self.degrees else radians


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


@functools.cache
def _line_format(types) -> str:
    """%-format of a CSV line of these cell types; "%.17g" % v == format(v, ".17g")."""
    return ",".join("%.17g" if issubclass(t, float) else "%s" for t in types)


def _csv_line(cells) -> str:
    """One CSV line of cells, its float cells through one "%.17g" operation."""
    types = tuple(map(type, cells))
    if bool in types:
        cells = [_fmt(v) if type(v) is bool else v for v in cells]
    return _line_format(types) % tuple(cells)


def _emit(cfg: RunConfig, columns, records, checks=None) -> None:
    """Write records (list of dicts) as CSV or JSON to cfg.output_path/stdout."""
    checks = checks or []
    if cfg.output_format == "json":
        payload = {
            "config": asdict(cfg),
            "records": records,
            "checks": checks,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [_csv_line([rec[c] for c in columns]) for rec in records]
        for chk in checks:
            lines.append(
                "# check "
                + " ".join(f"{key}={_fmt(val)}" for key, val in sorted(chk.items()))
            )
        text = "\n".join(lines) + "\n"
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_profile(cfg: RunConfig) -> int:
    bg = cfg.background
    half = 4.0 / bg.M
    n = cfg.samples
    records = []
    for i in range(n):
        x = -half + 2.0 * half * i / (n - 1)
        records.append({"x": x, "phi": kink_profile(bg, x)})
    _emit(cfg, ["x", "phi"], records)
    return 0


def cmd_scatter(cfg: RunConfig) -> int:
    bg, n = cfg.background, cfg.samples
    x, waves = trace(match_coefficients(bg, SpectralPoint.scattering(bg, cfg.k, cfg.E_branch)), n)
    columns = ["x", "side"] + [f"{part}_{name}" for name in waves for part in ("re", "im")]
    cells = [x.tolist(), ["incident"] * n + ["transmitted"] * n]
    cells += [part.tolist() for w in waves.values() for part in (w.real, w.imag)]
    _emit(cfg, columns, [dict(zip(columns, row)) for row in zip(*cells)])
    return 0


def cmd_phase_sweep(cfg: RunConfig) -> int:
    bg = cfg.background
    ks, d = sweep(bg, log_grid(cfg.k_min, cfg.k_max, cfg.samples), cfg.E_branch)
    sign = -1.0 if cfg.E_branch == "negative" else 1.0  # E as SpectralPoint.scattering has it
    records = [
        {
            "k": k, "E": sign * math.hypot(bg.M, k),
            "re_c1": c1.real, "im_c1": c1.imag,
            "re_c2": c2.real, "im_c2": c2.imag,
            "T": abs(t) ** 2, "R": abs(r) ** 2,  # Python abs: numpy rounds differently
            "delta": cfg.angle(delta),
        }
        for k, c1, c2, t, r, delta in zip(ks, *(v.tolist() for v in (d.c1, d.c2, d.t, d.r, d.delta)))
    ]
    columns = ["k", "E", "re_c1", "im_c1", "re_c2", "im_c2", "T", "R", "delta"]
    _emit(cfg, columns, records)
    return 0


def cmd_bound_states(cfg: RunConfig) -> int:
    bg = cfg.background
    states = find_bound_states(bg, tol_root=cfg.tol_root)
    report = levinson_check(bg, states, cfg.k_min, samples=min(cfg.samples, 48))
    records = [{"index": b.index, "E": b.E_n, "kappa": b.kappa, "residual": b.residual}
               for b in states]
    checks = [
        {
            "name": "levinson",
            "delta_at_zero": cfg.angle(report.delta_at_zero),
            "delta_at_infinity": cfg.angle(report.delta_at_infinity),
            "n_b": report.n_b,
            "value": report.discrepancy,
            "tolerance": 0.05 * math.pi,
            "passed": max(report.discrepancy, report.discrepancy_negative) <= 0.05 * math.pi
            and (report.n_plus, report.n_minus) == (report.n_b, report.n_b_negative),
            "jump_negative": cfg.angle(report.jump_negative),
            "n_plus": report.n_plus,
            "n_minus": report.n_minus,
            "asymmetry": report.n_plus - report.n_minus,
        }
    ]
    _emit(cfg, ["index", "E", "kappa", "residual"], records, checks)
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    bg = cfg.background
    sp = SpectralPoint.scattering(bg, cfg.k, cfg.E_branch)
    checks = []

    def add(name: str, value: float, tolerance: float) -> None:
        checks.append(
            {"name": name, "value": value, "tolerance": tolerance,
             "passed": bool(value <= tolerance)}
        )

    data = match_coefficients(bg, sp)
    params = data.basis[0].params
    # Series inside the disk and continuation beyond it vs one direct ODE run through both.
    ode, _ = integrate_heun(params, [0.2, 0.5 + 0.5j])
    for name, (hv, _), ho in (("series_vs_ode", heun_series(params, 0.2), ode[0]),
                              ("continuation_vs_ode", heun_eval(params, 0.5 + 0.5j), ode[1])):
        add(name, abs(hv - ho) / abs(ho), cfg.tol_continuation)
    # Oracle agreement of the matching coefficients.
    c1o, c2o = oracle_scattering(bg, sp)
    add("oracle_c1", abs(data.c1 - c1o) / abs(c1o), 1e-6)
    add("oracle_c2", abs(data.c2 - c2o) / abs(c2o), 1e-6)
    # Unitarity at --k and across a small sweep on the requested branch.
    _, swept = sweep(bg, [frac * bg.M for frac in (0.1, 0.2, 0.5, 1.0, 2.0)], cfg.E_branch)
    add("unitarity", max(abs(swept.T + swept.R - 1.0).tolist() + [abs(data.T + data.R - 1.0)]), 1e-6)
    # Matching-point invariance: four more points, as one batch, against x0 = 0.
    c1s = match_coefficients(bg, sp, np.array([-0.2, -0.1, 0.1, 0.2]) / bg.M).c1
    add("matching_invariance", float(np.max(abs(c1s - data.c1))) / abs(data.c1), 1e-6)
    # Governing-equation residuals of the matched solution, on at least 401
    # points with k h <= 1/4: the 9-point stencil's error grows as (k h)^8.
    half_x = 10.0 / (2.0 * bg.M)
    n_pts = 1 + max(400, math.ceil(40.0 * cfg.k / bg.M))
    xs = np.array([-half_x + 2.0 * half_x * i / (n_pts - 1) for i in range(n_pts)])
    us, vs = matched_u(data, xs)
    rep = residuals(xs, us, vs, bg, sp)
    add("governing_residuals", rep.max_rel_residual, 1e-6)

    # The check entries are the records (CSV rows), mirrored in the JSON
    # "checks" field so consumers of either format find them.
    _emit(cfg, ["name", "value", "tolerance", "passed"], checks,
          checks=checks if cfg.output_format == "json" else None)
    return 0 if all(c["passed"] for c in checks) else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


# Option values argparse must not read as option names: every negative number
# float() reads (-1e-3, -inf), where argparse knows only -1 and -.5.
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp._negative_number_matcher = _NEGATIVE_NUMBER
    sp.add_argument("--M", type=float, default=None, help="bare fermion mass (default 5; profile: 1.5)")
    sp.add_argument("--K-sign", choices=("kink", "antikink"), default="kink", dest="K_sign")
    sp.add_argument("--beta", type=float, default=1.0, help="coupling beta")
    sp.add_argument("--k", type=float, default=None, help="momentum (default 0.5*M)")
    sp.add_argument("--k-min", type=float, default=None, help="sweep lower momentum (default 1e-3*M)")
    sp.add_argument("--k-max", type=float, default=None, help="phase-sweep upper momentum (default 50*M)")
    sp.add_argument("--samples", type=int, default=None, help="sample count (command-specific default)")
    sp.add_argument("--E-branch", choices=("positive", "negative"), default="positive", dest="E_branch")
    sp.add_argument("--tol-continuation", type=float, default=1e-8)
    sp.add_argument("--tol-root", type=float, default=1e-6)
    sp.add_argument("--format", choices=("csv", "json"), default="csv", dest="output_format")
    sp.add_argument("--out", default=None, dest="output_path", help="output path (default stdout)")
    sp.add_argument("--degrees", action="store_true", help="report phase shifts in degrees")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinkdirac",
        description="Dirac fermion scattering and bound states on a sine-Gordon kink "
        "via local Heun functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("profile", "scatter", "phase-sweep", "bound-states", "validate"):
        _add_common(sub.add_parser(name))
    return parser


_DEFAULT_SAMPLES = {
    "profile": 201,
    "scatter": 201,
    "phase-sweep": 64,
    "bound-states": 48,
    "validate": 64,
}


def _resolve_config(args) -> RunConfig:
    M = args.M if args.M is not None else (1.5 if args.command == "profile" else 5.0)
    return RunConfig(
        M=M,
        K_sign=args.K_sign,
        beta=args.beta,
        k=args.k if args.k is not None else 0.5 * M,
        k_min=args.k_min if args.k_min is not None else 1e-3 * M,
        k_max=args.k_max if args.k_max is not None else 50.0 * M,
        samples=args.samples if args.samples is not None else _DEFAULT_SAMPLES[args.command],
        E_branch=args.E_branch,
        tol_continuation=args.tol_continuation,
        tol_root=args.tol_root,
        output_format=args.output_format,
        output_path=args.output_path,
        degrees=args.degrees,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        # The top of the momentum range each command sweeps; the others read no k range.
        top = {"phase-sweep": cfg.k_max, "bound-states": LEVINSON_K_TOP * cfg.M}.get(args.command)
        if top is not None and not cfg.k_min < top:
            raise ValueError(f"{args.command} needs k_min < {top:g}")
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    try:
        if args.command == "profile":
            return cmd_profile(cfg)
        if args.command == "scatter":
            return cmd_scatter(cfg)
        if args.command == "phase-sweep":
            return cmd_phase_sweep(cfg)
        if args.command == "bound-states":
            return cmd_bound_states(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
        parser.error(f"unknown command {args.command!r}")
    except KinkDiracError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
