"""Acceptance suite: nine end-to-end criteria for the full pipeline.

Each test prints a single PASS/FAIL line (run pytest with -s or read the
captured output) and then asserts.  Criterion 7 includes a negative-energy
sub-assertion that the kink spectrum computed here does not support; it is
asserted as stated and documents its failure honestly rather than being
weakened to pass (see the project decision ledger).
"""

import cmath
import csv
import math
import time

import numpy as np
import pytest

from kinkdirac.cli import main as cli_main
from kinkdirac.heun import HeunParams, heun_eval, heun_series
from kinkdirac.oracle import integrate_heun, oracle_scattering, residuals
from kinkdirac.scattering import match_coefficients, matched_u
from kinkdirac.soliton import SolitonBackground, SpectralPoint
from kinkdirac.spectrum import find_bound_states, levinson_check


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")


def _ur1_params(M=5.0, K=5.0, k=2.5):
    E = math.sqrt(M * M + k * k)
    return HeunParams(
        a=0.5,
        q=1j * (E + k) / K,
        alpha=-1.0,
        beta=0.0,
        gamma=1.0 - 1j * k / K,
        delta=1.0 + 1j * k / K,
    )


def test_criterion_1_heun_normalization_and_slope():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    worst = 0.0
    ok = True
    for _ in range(50):
        a = complex(rng.uniform(1.5, 4.0), rng.uniform(-1.0, 1.0))
        q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        beta = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        gamma = complex(rng.uniform(0.5, 2.5), rng.uniform(-1, 1))
        delta = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        params = HeunParams(a=a, q=q, alpha=alpha, beta=beta, gamma=gamma, delta=delta)
        value, deriv = heun_series(params, 0.0)
        slope = q / (a * gamma)
        if value != 1.0:
            ok = False
        worst = max(worst, abs(deriv - slope) / abs(slope))
    elapsed = time.perf_counter() - t0
    ok = ok and worst <= 1e-12 and elapsed < 1.0
    _report("criterion 1 (normalization/slope)", ok,
            f"worst slope err {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_triple_agreement():
    t0 = time.perf_counter()
    params = _ur1_params()
    z = 0.5 + 0.5j
    v_chain, d_chain = heun_eval(params, z)       # series + chained re-expansion
    v_ode, d_ode = integrate_heun(params, [z])    # direct complex ODE integration
    v_series, _ = heun_series(params, 0.2)        # series reference inside the disk
    v_chain_inner, _ = heun_eval(params, 0.2)
    err_outer = abs(v_chain - v_ode) / abs(v_ode)
    err_inner = abs(v_series - v_chain_inner) / abs(v_series)
    derr = abs(d_chain - d_ode) / abs(d_ode)
    elapsed = time.perf_counter() - t0
    ok = err_outer <= 1e-8 and err_inner <= 1e-12 and derr <= 1e-7 and elapsed < 1.0
    _report("criterion 2 (series/continuation/ODE)", ok,
            f"value err {err_outer:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_3_oracle_equivalence(bg5):
    t0 = time.perf_counter()
    worst = 0.0
    for k in np.geomspace(0.25, 10.0, 10):
        sp = SpectralPoint.scattering(bg5, float(k))
        data = match_coefficients(bg5, sp)
        c1, c2 = oracle_scattering(bg5, sp)
        worst = max(worst, abs(c1 - data.c1) / abs(c1))
        worst = max(worst, abs(c2 - data.c2) / max(abs(c2), abs(c1)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    _report("criterion 3 (oracle equivalence)", ok,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_4_matching_smoothness_and_invariance(bg5, sp25):
    t0 = time.perf_counter()
    data = match_coefficients(bg5, sp25)
    # Continuity of value and slope at x = 0 (matched by construction): v
    # carries the slope, v = (i/M) ratio^2 (E u - i u').
    eps = 1e-12
    uL, vL = matched_u(data, -eps)
    uR, vR = matched_u(data, +eps)
    cont = max(abs(uL - uR) / abs(uR), abs(vL - vR) / abs(vR))
    # Agreement on the overlap strip |x| <= 0.1, at y = Mx.
    overlap = 0.0
    from kinkdirac.soliton import eval_u
    sol1, sol2, sol2b = data.basis
    for y in np.linspace(-0.1, 0.1, 11) * bg5.M:
        u1, _ = eval_u(sol1, y)
        u2, _ = eval_u(sol2, y)
        u2b, _ = eval_u(sol2b, y)
        overlap = max(overlap, abs(data.c1 * u2 + data.c2 * u2b - u1) / abs(u1))
    # Matching-point invariance.
    c1s = [match_coefficients(bg5, sp25, x0 / bg5.K).c1
           for x0 in (-0.2, -0.1, 0.0, 0.1, 0.2)]
    spread = max(abs(c - c1s[2]) for c in c1s) / abs(c1s[2])
    elapsed = time.perf_counter() - t0
    ok = cont <= 1e-10 and overlap <= 1e-6 and spread <= 1e-6 and elapsed < 10.0
    _report("criterion 4 (matching smoothness/invariance)", ok,
            f"cont {cont:.1e}, overlap {overlap:.1e}, spread {spread:.1e}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_governing_residuals(bg5, sp25):
    t0 = time.perf_counter()
    data = match_coefficients(bg5, sp25)
    xs = np.linspace(-2.0, 2.0, 401)
    us = np.empty(401, dtype=complex)
    vs = np.empty(401, dtype=complex)
    for i, x in enumerate(xs):
        us[i], vs[i] = matched_u(data, x)
    report = residuals(xs, us, vs, bg5, sp25)
    elapsed = time.perf_counter() - t0
    ok = report.max_rel_residual <= 1e-6 and elapsed < 5.0
    _report("criterion 5 (governing residuals)", ok,
            f"max rel residual {report.max_rel_residual:.2e} at x={report.worst_x:.3f}, {elapsed:.1f}s")
    assert ok


def test_criterion_6_unitarity(bg5):
    t0 = time.perf_counter()
    worst = 0.0
    for k in np.geomspace(0.25, 10.0, 10):
        data = match_coefficients(bg5, SpectralPoint.scattering(bg5, float(k)))
        worst = max(worst, abs(data.T + data.R - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    _report("criterion 6 (unitarity)", ok,
            f"worst |T+R-1| {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_7_bound_states(bg5):
    t0 = time.perf_counter()
    states = find_bound_states(bg5)
    energies = sorted(s.E_n for s in states)
    has_zero = any(abs(e) <= 1e-6 * bg5.M for e in energies)
    has_plus = any(abs(e - 0.8 * bg5.M) <= 0.05 * bg5.M for e in energies)
    has_minus = any(abs(e + 0.8 * bg5.M) <= 0.05 * bg5.M for e in energies)
    elapsed = time.perf_counter() - t0
    ok = has_zero and has_plus and has_minus and elapsed < 60.0
    _report(
        "criterion 7 (bound states)", ok,
        f"E = {['%+.6f' % e for e in energies]}, zero={has_zero}, "
        f"+0.8M={has_plus}, -0.8M={has_minus}, {elapsed:.1f}s",
    )
    # The -0.8M root belongs to the charge-conjugate (antikink) channel: the
    # kink spectrum computed here is {0, +0.846M} and its mirror appears only
    # for K = -M.  The assertion is kept as stated and fails honestly; the
    # decision ledger records the analysis.
    assert ok


def test_criterion_8_levinson():
    t0 = time.perf_counter()
    bg = SolitonBackground(M=2.15e-5, K=2.15e-5, beta=1.0)
    report = levinson_check(bg, find_bound_states(bg), k_min=1e-3 * bg.M)
    jump = report.delta_at_zero - report.delta_at_infinity
    elapsed = time.perf_counter() - t0
    ok = (abs(jump - math.pi / 2) <= 0.05 * math.pi
          and report.n_b == 1 and elapsed < 60.0)
    _report("criterion 8 (Levinson)", ok,
            f"jump {jump / math.pi:.4f} pi, n_b={report.n_b}, {elapsed:.1f}s")
    assert ok


def test_criterion_9_figure_traces(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "scatter.csv"
    code = cli_main([
        "scatter", "--M", "5", "--beta", "1", "--k", "2.5",
        "--E-branch", "positive", "--samples", "101", "--out", str(out),
    ])
    rows = list(csv.DictReader(
        r for r in out.read_text().splitlines() if not r.startswith("#")
    ))
    inc0 = next(r for r in rows if r["side"] == "incident" and float(r["x"]) == 0.0)
    tra0 = next(r for r in rows if r["side"] == "transmitted" and float(r["x"]) == 0.0)
    gap = max(
        abs(float(inc0[c]) - float(tra0[c]))
        for c in ("re_u", "im_u", "re_v", "im_v")
    )
    elapsed = time.perf_counter() - t0
    ok = code == 0 and len(rows) == 202 and gap < 1e-6 and elapsed < 10.0
    _report("criterion 9 (figure traces)", ok,
            f"x=0 gap {gap:.2e}, {elapsed:.1f}s")
    assert ok
