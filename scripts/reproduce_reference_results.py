#!/usr/bin/env python3
"""Reproduce the headline results of the reference kink configuration.

Runs the full pipeline at M = K = 5, beta = 1 and prints:
  * matching coefficients, transmission/reflection, and the phase shift at
    k = 2.5 (the figure-trace configuration), cross-checked against the
    direct-integration oracle;
  * the bound spectrum of the kink and the antikink;
  * the Levinson sum-rule check for a light fermion (M = 2.15e-5).

Usage: python scripts/reproduce_reference_results.py [--out-dir DIR]

With --out-dir the scattering traces and phase-shift sweep are also written
as CSV via the CLI (equivalent to `kinkdirac scatter ...` / `kinkdirac
phase-sweep ...`).
"""

import argparse
import math
import sys
from pathlib import Path

from kinkdirac.cli import main as cli_main
from kinkdirac.oracle import oracle_scattering
from kinkdirac.scattering import match_coefficients
from kinkdirac.soliton import SolitonBackground, SpectralPoint
from kinkdirac.spectrum import find_bound_states, levinson_check


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=None,
                    help="also write scatter/phase-sweep CSV files here")
    args = ap.parse_args()

    bg = SolitonBackground(M=5.0, K=5.0, beta=1.0)
    sp = SpectralPoint.scattering(bg, 2.5)

    print("== Scattering at M = K = 5, k = 2.5, E = +sqrt(31.25) ==")
    data = match_coefficients(bg, sp)
    print(f"  c1    = {data.c1:.15g}")
    print(f"  c2    = {data.c2:.15g}")
    print(f"  T     = {data.T:.15g}")
    print(f"  R     = {data.R:.15g}")
    print(f"  T+R-1 = {data.T + data.R - 1:.3e}")
    print(f"  delta = {data.delta:.15g} rad")
    c1o, c2o = oracle_scattering(bg, sp)
    print(f"  oracle rel err: c1 {abs(c1o - data.c1) / abs(c1o):.2e}, "
          f"c2 {abs(c2o - data.c2) / abs(c2o):.2e}")

    print("\n== Bound spectra ==")
    for label, background in (("kink", bg),
                              ("antikink", SolitonBackground(M=5.0, K=-5.0, beta=1.0))):
        states = find_bound_states(background)
        energies = ", ".join(f"{s.E_n:+.12g}" for s in sorted(states, key=lambda s: s.E_n))
        print(f"  {label:9s}: E in {{{energies}}}")

    print("\n== Levinson sum rule (light fermion, M = 2.15e-5) ==")
    light = SolitonBackground(M=2.15e-5, K=2.15e-5, beta=1.0)
    rep = levinson_check(light, find_bound_states(light), k_min=1e-3 * light.M)
    jump = rep.delta_at_zero - rep.delta_at_infinity
    print(f"  positive branch: delta(0+) - delta(inf) = {jump / math.pi:.5f} pi "
          f"(expected {rep.n_b - 0.5:.1f} pi, n_+ = {rep.n_b})")
    print(f"  negative branch: delta(0+) - delta(inf) = {rep.jump_negative / math.pi:.5f} pi "
          f"(expected {0.5 - rep.n_b_negative:.1f} pi, n_- = {rep.n_b_negative})")
    print(f"  n_+ - n_- from the phase jumps = {rep.n_plus - rep.n_minus}")
    print(f"  discrepancy = {rep.discrepancy:.2e} and {rep.discrepancy_negative:.2e} rad")

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        scatter_csv = args.out_dir / "scatter_M5_k2.5.csv"
        sweep_csv = args.out_dir / "phase_sweep_M5.csv"
        cli_main(["scatter", "--M", "5", "--k", "2.5", "--samples", "201",
                  "--out", str(scatter_csv)])
        cli_main(["phase-sweep", "--M", "5", "--k-min", "0.25", "--k-max", "50",
                  "--samples", "64", "--out", str(sweep_csv)])
        print(f"\nWrote {scatter_csv} and {sweep_csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
