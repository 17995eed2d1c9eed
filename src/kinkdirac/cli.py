"""Command-line interface: sweeps, wavefunction dumps, spectra, validation.

Subcommands
-----------
profile       kink profile (x, phi) samples
scatter       matched wavefunction traces around x = 0 at one momentum
phase-sweep   (k, E, c1, c2, T, R, delta) over a momentum grid
bound-states  bound levels plus the Levinson report
validate      cross-check suite (oracle vs Heun pipeline); exit 1 on failure
heun-eval     debug access to the Heun evaluator

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 numerical failure.
Output is CSV (17 significant digits, fixed column order) or JSON with the
top-level shape {config, records, checks}.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

from .errors import KinkDiracError
from .heun import HeunParams, heun_eval, heun_second_solution, heun_series, recurrence_coeffs
from .oracle import integrate_heun, oracle_scattering, residuals
from .scattering import match_coefficients, matched_u, unwrap_sweep
from .soliton import (
    Family,
    SolitonBackground,
    SpectralPoint,
    build_solution,
    eval_u,
    kink_profile,
    v_from_u,
)
from .spectrum import find_bound_states, levinson_check


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
    tol_series: float
    tol_continuation: float
    tol_root: float
    output_format: str
    output_path: str | None
    degrees: bool

    def __post_init__(self):
        if self.k_min <= 0 or self.k_min >= self.k_max:
            raise ValueError("need 0 < k_min < k_max")
        if self.samples < 2:
            raise ValueError("samples must be >= 2")
        for name in ("tol_series", "tol_continuation", "tol_root"):
            if getattr(self, name) <= 0:
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
        for rec in records:
            lines.append(",".join(_fmt(rec[c]) for c in columns))
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
    half = 4.0 / abs(bg.K)
    n = cfg.samples
    records = []
    for i in range(n):
        x = -half + 2.0 * half * i / (n - 1)
        records.append({"x": x, "phi": kink_profile(bg, x)})
    _emit(cfg, ["x", "phi"], records)
    return 0


def cmd_scatter(cfg: RunConfig) -> int:
    bg = cfg.background
    sp = SpectralPoint.scattering(bg, cfg.k, cfg.E_branch)
    data = match_coefficients(bg, sp)
    _, sol2, sol2b = data.basis
    x_max = 10.0 / (2.0 * abs(bg.K))
    n = cfg.samples
    trans_sign = 1.0 if bg.K > 0 else -1.0

    def row(x: float, side: str) -> dict:
        if side == "incident":
            ua, dua = eval_u(sol2, x)
            ub, dub = eval_u(sol2b, x)
            u_inc, du_inc = data.c1 * ua, data.c1 * dua
            u_ref, du_ref = data.c2 * ub, data.c2 * dub
            v_inc = v_from_u(u_inc, du_inc, bg, sp, x)
            v_ref = v_from_u(u_ref, du_ref, bg, sp, x)
            # x = 0 belongs to the transmitted side of the match, where u is u1.
            u, du = matched_u(data, x) if x == 0 else (u_inc + u_ref, du_inc + du_ref)
        else:
            u, du = matched_u(data, x)
            u_inc = u_ref = v_inc = v_ref = complex(math.nan, math.nan)
        v = v_from_u(u, du, bg, sp, x)
        return {
            "x": x,
            "side": side,
            "re_u": u.real, "im_u": u.imag,
            "re_v": v.real, "im_v": v.imag,
            "re_u_inc": u_inc.real, "im_u_inc": u_inc.imag,
            "re_u_ref": u_ref.real, "im_u_ref": u_ref.imag,
            "re_v_inc": v_inc.real, "im_v_inc": v_inc.imag,
            "re_v_ref": v_ref.real, "im_v_ref": v_ref.imag,
        }

    records = []
    # Incident/reflected side first (x of opposite sign to the transmitted side),
    # sampling x = 0 from both sides.
    for i in range(n):
        x = -trans_sign * x_max * (1.0 - i / (n - 1))
        records.append(row(x if x != 0 else 0.0, "incident"))
    for i in range(n):
        x = trans_sign * x_max * i / (n - 1)
        records.append(row(x if x != 0 else 0.0, "transmitted"))
    columns = [
        "x", "side", "re_u", "im_u", "re_v", "im_v",
        "re_u_inc", "im_u_inc", "re_u_ref", "im_u_ref",
        "re_v_inc", "im_v_inc", "re_v_ref", "im_v_ref",
    ]
    _emit(cfg, columns, records)
    return 0


def _k_grid(cfg: RunConfig):
    ratio = (cfg.k_max / cfg.k_min) ** (1.0 / (cfg.samples - 1))
    ks = [cfg.k_min * ratio**i for i in range(cfg.samples)]
    ks[-1] = cfg.k_max
    return ks


def cmd_phase_sweep(cfg: RunConfig) -> int:
    bg = cfg.background
    ks, deltas, data = unwrap_sweep(bg, _k_grid(cfg), cfg.E_branch)
    records = []
    for k, delta in zip(ks, deltas):
        d = data[k]
        sp = SpectralPoint.scattering(bg, k, cfg.E_branch)
        records.append(
            {
                "k": k, "E": sp.E,
                "re_c1": d.c1.real, "im_c1": d.c1.imag,
                "re_c2": d.c2.real, "im_c2": d.c2.imag,
                "T": d.T, "R": d.R,
                "delta": cfg.angle(delta),
            }
        )
    columns = ["k", "E", "re_c1", "im_c1", "re_c2", "im_c2", "T", "R", "delta"]
    _emit(cfg, columns, records)
    return 0


def cmd_bound_states(cfg: RunConfig) -> int:
    bg = cfg.background
    states = find_bound_states(bg, tol_root=cfg.tol_root)
    report = levinson_check(bg, states, cfg.k_min, cfg.k_max, samples=min(cfg.samples, 48))
    records = [
        {"index": b.index, "E": b.E_n, "kappa": b.kappa, "residual": b.residual}
        for b in states
    ]
    checks = [
        {
            "name": "levinson",
            "delta_at_zero": cfg.angle(report.delta_at_zero),
            "delta_at_infinity": cfg.angle(report.delta_at_infinity),
            "n_b": report.n_b,
            "value": report.discrepancy,
            "tolerance": 0.05 * math.pi,
            "passed": report.discrepancy <= 0.05 * math.pi,
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

    params = build_solution(Family.U1_FIRST, bg, sp).params
    # Series normalization and slope at z = 0.
    v0, d0, _ = heun_series(params, 0.0)
    add("series_normalization", abs(v0 - 1.0), cfg.tol_series)
    slope = params.q / (params.a * params.gamma)
    add("series_slope", abs(d0 - slope) / abs(slope), cfg.tol_series)
    # Recurrence residual of the stored coefficients at a generic point.
    _, _, state = heun_series(params, 0.2)
    worst = 0.0
    h = state.coefficients
    for n in range(1, len(h) - 1):
        R, _, _ = recurrence_coeffs(params, n - 1)
        _, P, _ = recurrence_coeffs(params, n)
        _, _, Q = recurrence_coeffs(params, n + 1)
        num = abs(R * h[n - 1] + P * h[n] + Q * h[n + 1])
        den = max(abs(h[n - 1]), abs(h[n]), abs(h[n + 1]), 1e-300)
        worst = max(worst, num / den)
    add("recurrence_residual", worst, cfg.tol_series)
    # Continuation vs direct complex ODE integration.
    z_t = 0.5 + 0.5j
    hv, _ = heun_eval(params, z_t)
    ho, _ = integrate_heun(params, [z_t])
    add("continuation_vs_ode", abs(hv - ho) / abs(ho), cfg.tol_continuation)
    # Oracle agreement of the matching coefficients.
    data = match_coefficients(bg, sp)
    c1o, c2o = oracle_scattering(bg, sp)
    add("oracle_c1", abs(data.c1 - c1o) / abs(c1o), 1e-6)
    add("oracle_c2", abs(data.c2 - c2o) / abs(c2o), 1e-6)
    # Unitarity across a small sweep.
    worst_u = 0.0
    for frac in (0.1, 0.2, 0.5, 1.0, 2.0):
        d = match_coefficients(bg, SpectralPoint.scattering(bg, frac * bg.M))
        worst_u = max(worst_u, abs(d.T + d.R - 1.0))
    add("unitarity", worst_u, 1e-6)
    # Matching-point invariance.
    c1s = [
        match_coefficients(bg, sp, x0 / abs(bg.K)).c1
        for x0 in (-0.2, -0.1, 0.0, 0.1, 0.2)
    ]
    spread = max(abs(c - c1s[2]) for c in c1s) / abs(c1s[2])
    add("matching_invariance", spread, 1e-6)
    # Governing-equation residuals of the matched solution.
    half_x = 10.0 / (2.0 * abs(bg.K))
    n_pts = 401
    xs = [-half_x + 2.0 * half_x * i / (n_pts - 1) for i in range(n_pts)]
    pairs = [matched_u(data, x) for x in xs]
    us = [p[0] for p in pairs]
    vs = [v_from_u(u, du, bg, sp, x) for (u, du), x in zip(pairs, xs)]
    rep = residuals(xs, us, vs, bg, sp)
    add("governing_residuals", rep.max_rel_residual, 1e-6)
    # Bound-state root residuals (scale-free).
    states = find_bound_states(bg, tol_root=cfg.tol_root)
    add("bound_root_residual", max((b.residual for b in states), default=math.inf), cfg.tol_root)

    # Emit the check entries as the records (CSV rows) and mirror them in the
    # JSON "checks" field so consumers of either format find them.
    if cfg.output_format == "json":
        _emit(cfg, ["name", "value", "tolerance", "passed"], checks, checks=checks)
    else:
        _emit(cfg, ["name", "value", "tolerance", "passed"], checks, checks=None)
    return 0 if all(c["passed"] for c in checks) else 1


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc


def cmd_heun_eval(cfg: RunConfig, args) -> int:
    params = HeunParams(
        a=args.a, q=args.q, alpha=args.alpha, beta=args.beta_heun,
        gamma=args.gamma, delta=args.delta,
    )
    if args.second:
        value, deriv = heun_second_solution(params, args.z)
    else:
        value, deriv = heun_eval(params, args.z)
    records = [
        {
            "re_z": args.z.real, "im_z": args.z.imag,
            "re_value": value.real, "im_value": value.imag,
            "re_derivative": deriv.real, "im_derivative": deriv.imag,
        }
    ]
    _emit(cfg, ["re_z", "im_z", "re_value", "im_value", "re_derivative", "im_derivative"], records)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--M", type=float, default=None, help="bare fermion mass (default 5; profile: 1.5)")
    sp.add_argument("--K-sign", choices=("kink", "antikink"), default="kink", dest="K_sign")
    sp.add_argument("--beta", type=float, default=1.0, help="coupling beta")
    sp.add_argument("--k", type=float, default=None, help="momentum (default 0.5*M)")
    sp.add_argument("--k-min", type=float, default=None, help="sweep lower momentum (default 1e-3*M)")
    sp.add_argument("--k-max", type=float, default=None, help="sweep upper momentum (default 50*M)")
    sp.add_argument("--samples", type=int, default=None, help="sample count (command-specific default)")
    sp.add_argument("--E-branch", choices=("positive", "negative"), default="positive", dest="E_branch")
    sp.add_argument("--tol-series", type=float, default=1e-12)
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
    he = sub.add_parser("heun-eval", help="debug access to the Heun evaluator")
    _add_common(he)
    he.add_argument("--a", type=_complex_arg, default=0.5 + 0j)
    he.add_argument("--q", type=_complex_arg, required=True)
    he.add_argument("--alpha", type=_complex_arg, required=True)
    he.add_argument("--beta-heun", type=_complex_arg, required=True, dest="beta_heun")
    he.add_argument("--gamma", type=_complex_arg, required=True)
    he.add_argument("--delta", type=_complex_arg, required=True)
    he.add_argument("--z", type=_complex_arg, required=True)
    he.add_argument("--second", action="store_true", help="evaluate the second local solution")
    return parser


_DEFAULT_SAMPLES = {
    "profile": 201,
    "scatter": 201,
    "phase-sweep": 64,
    "bound-states": 48,
    "validate": 64,
    "heun-eval": 2,
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
        tol_series=args.tol_series,
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
        if args.command == "heun-eval":
            return cmd_heun_eval(cfg, args)
        parser.error(f"unknown command {args.command!r}")
    except KinkDiracError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
