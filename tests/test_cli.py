"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import cmath
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kinkdirac
from kinkdirac import cli
from kinkdirac.cli import _csv_line, _fmt, build_parser, main
from kinkdirac.oracle import integrate_heun, residuals
from kinkdirac.scattering import match_coefficients, sweep
from kinkdirac.soliton import SolitonBackground, SpectralPoint, eval_u


def run_csv(argv, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    text = out.read_text()
    rows = [r for r in text.splitlines() if not r.startswith("# check")]
    checks = [r for r in text.splitlines() if r.startswith("# check")]
    parsed = list(csv.DictReader(rows))
    return code, parsed, checks, text


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_importing_the_cli_loads_no_scipy(tmp_path):
    # Only the oracle imports scipy, where it integrates; importing the CLI
    # and running bound-states and phase-sweep never load it.  The package
    # itself re-exports nothing, so importing heun loads only what heun uses.
    env = dict(os.environ, PYTHONPATH=str(Path(kinkdirac.__file__).parents[1]))

    def fresh(code):
        loaded = "loaded = lambda top: sorted(m for m in sys.modules if m.split('.')[0] == top)\n"
        return subprocess.run([sys.executable, "-c", "import sys\n" + loaded + code], env=env,
                              capture_output=True, text=True, check=True).stdout.split("\n")

    out = fresh(
        "from kinkdirac.cli import main\n"
        "print(loaded('kinkdirac')); print(loaded('scipy'))\n"
        f"main(['bound-states', '--out', {str(tmp_path / 'b.csv')!r}])\n"
        f"main(['phase-sweep', '--samples', '16', '--out', {str(tmp_path / 'p.csv')!r}])\n"
        "print(loaded('scipy'))\n"
    )
    modules = ["cli", "errors", "heun", "oracle", "scattering", "soliton", "spectrum"]
    assert out[0] == str(["kinkdirac"] + [f"kinkdirac.{m}" for m in modules])
    assert out[1:] == ["[]", "[]", ""]
    assert (tmp_path / "b.csv").read_text().count("\n") > 2
    out = fresh("import kinkdirac.heun\nprint(loaded('kinkdirac'))\n")
    assert out[0] == str(["kinkdirac", "kinkdirac.errors", "kinkdirac.heun"])


def test_csv_line_writes_each_cell_as_fmt_does():
    cells = [0.1, -0.0, math.nan, -math.inf, math.inf, 1e-300, np.float64(2.5e-7), 3,
             True, False, "incident", "a%s,b", -123456789.123456789]
    assert _csv_line(cells) == ",".join(_fmt(v) for v in cells)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


def test_profile_header_and_center(tmp_path):
    code, rows, _, _ = run_csv(["profile", "--samples", "201"], tmp_path)
    assert code == 0
    assert len(rows) == 201
    assert list(rows[0].keys()) == ["x", "phi"]
    mid = rows[100]
    assert float(mid["x"]) == pytest.approx(0.0, abs=1e-15)
    assert float(mid["phi"]) == pytest.approx(-math.pi / 2, abs=1e-12)


def test_profile_monotone(tmp_path):
    code, rows, _, _ = run_csv(["profile", "--samples", "101"], tmp_path)
    phis = [float(r["phi"]) for r in rows]
    assert all(b < a for a, b in zip(phis, phis[1:]))


def test_profile_json_matches_csv(tmp_path):
    _, rows, _, _ = run_csv(["profile", "--samples", "11"], tmp_path)
    code, payload = run_json(["profile", "--samples", "11"], tmp_path)
    assert code == 0
    assert set(payload) == {"config", "records", "checks"}
    assert len(payload["records"]) == 11
    for csv_row, js_row in zip(rows, payload["records"]):
        assert float(csv_row["phi"]) == js_row["phi"]


def test_seventeen_digit_round_trip(tmp_path):
    _, rows, _, _ = run_csv(["profile", "--samples", "11"], tmp_path)
    _, payload = run_json(["profile", "--samples", "11"], tmp_path)
    for csv_row, js_row in zip(rows, payload["records"]):
        # .17g CSV text must round-trip to the exact binary double.
        assert float(csv_row["x"]) == js_row["x"]
        assert float(csv_row["phi"]) == js_row["phi"]


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------


def test_scatter_shape_and_continuity(tmp_path):
    for sign in ("kink", "antikink"):
        code, rows, _, _ = run_csv(
            ["scatter", "--M", "5", "--k", "2.5", "--samples", "51", "--K-sign", sign], tmp_path
        )
        assert code == 0
        assert len(rows) == 102
        sides = {r["side"] for r in rows}
        assert sides == {"incident", "transmitted"}
        # Both sides sample x = 0; the matched solution must agree there.
        inc0 = next(r for r in rows if r["side"] == "incident" and float(r["x"]) == 0.0)
        tra0 = next(r for r in rows if r["side"] == "transmitted" and float(r["x"]) == 0.0)
        for col in ("re_u", "im_u", "re_v", "im_v"):
            assert float(inc0[col]) == pytest.approx(float(tra0[col]), abs=1e-9)


def test_scatter_incident_decomposition(tmp_path):
    for sign in ("kink", "antikink"):
        code, rows, _, _ = run_csv(
            ["scatter", "--M", "5", "--k", "2.5", "--samples", "21", "--K-sign", sign], tmp_path
        )
        for r in rows:
            if r["side"] != "incident":
                assert math.isnan(float(r["re_u_inc"]))
                continue
            u = float(r["re_u"]) + 1j * float(r["im_u"])
            parts = (
                float(r["re_u_inc"]) + 1j * float(r["im_u_inc"])
                + float(r["re_u_ref"]) + 1j * float(r["im_u_ref"])
            )
            assert abs(u - parts) <= 1e-9 * max(abs(u), 1.0)


@pytest.mark.parametrize("branch", ["positive", "negative"])
@pytest.mark.parametrize("sign", ["kink", "antikink"])
def test_scatter_traces_solve_the_dirac_system(tmp_path, sign, branch):
    # The printed (u, v) on the uniform grid left after dropping the
    # duplicated x = 0 row, checked by the finite-difference residuals of the
    # directly written K = +-M system.
    code, rows, _, _ = run_csv(["scatter", "--M", "5", "--k", "2.5", "--samples", "201",
                                "--K-sign", sign, "--E-branch", branch], tmp_path)
    assert code == 0
    points = {float(r["x"]): (complex(float(r["re_u"]), float(r["im_u"])),
                              complex(float(r["re_v"]), float(r["im_v"]))) for r in rows}
    xs = sorted(points)
    assert len(xs) == 401
    bg = SolitonBackground(M=5.0, K=5.0 if sign == "kink" else -5.0)
    rep = residuals(xs, [points[x][0] for x in xs], [points[x][1] for x in xs],
                    bg, SpectralPoint.scattering(bg, 2.5, branch))
    assert rep.max_rel_residual <= 1e-6


def test_scatter_evaluates_each_local_solution_once_per_row(tmp_path, monkeypatch):
    # 3 one-point calls for the match, then one batch per local solution: u2
    # and u2b over the 21 incident x, u1 over the 21 transmitted x (x = 0
    # included, which the incident side prints as well).
    from kinkdirac import scattering

    calls = []

    def counting(sol, x):
        calls.append((sol.family.value, np.shape(x)))
        return eval_u(sol, x)

    monkeypatch.setattr(scattering, "eval_u", counting)
    code, rows, _, _ = run_csv(["scatter", "--M", "5", "--k", "2.5", "--samples", "21"], tmp_path)
    assert code == 0 and len(rows) == 42
    assert calls == [("u1_first", ()), ("u2_first", ()), ("u2_second", ()),
                     ("u2_first", (21,)), ("u2_second", (21,)), ("u1_first", (21,))]


# ---------------------------------------------------------------------------
# phase-sweep
# ---------------------------------------------------------------------------


def test_phase_sweep_continuous_and_unitary(tmp_path):
    code, rows, _, _ = run_csv(
        ["phase-sweep", "--M", "5", "--k-min", "0.25", "--k-max", "50",
         "--samples", "32"], tmp_path
    )
    assert code == 0
    deltas = [float(r["delta"]) for r in rows]
    assert max(abs(b - a) for a, b in zip(deltas, deltas[1:])) < math.pi / 2
    for r in rows:
        assert float(r["T"]) + float(r["R"]) == pytest.approx(1.0, abs=1e-8)


def test_phase_sweep_deterministic(tmp_path):
    argv = ["phase-sweep", "--M", "5", "--k-min", "0.25", "--k-max", "50",
            "--samples", "16"]
    _, _, _, text1 = run_csv(argv, tmp_path, "a.csv")
    _, _, _, text2 = run_csv(argv, tmp_path, "b.csv")
    assert text1 == text2


def test_phase_sweep_negative_branch(tmp_path):
    # Every row must carry the negative-branch c1, T and R next to its E < 0.
    code, rows, _, _ = run_csv(
        ["phase-sweep", "--M", "5", "--E-branch", "negative", "--k-min", "2.5",
         "--k-max", "50", "--samples", "4"], tmp_path
    )
    assert code == 0
    # The sweep evaluates its grid as one batch, which rounds differently from
    # the one-point match: equal to 1e-12, where the positive branch's c1 and T
    # differ at O(1).
    bg = SolitonBackground(M=5.0, K=5.0)
    for r in rows:
        ref = match_coefficients(bg, SpectralPoint.scattering(bg, float(r["k"]), "negative"))
        assert float(r["E"]) < 0
        assert abs(float(r["re_c1"]) + 1j * float(r["im_c1"]) - ref.c1) <= 1e-12 * abs(ref.c1)
        assert float(r["T"]) == pytest.approx(ref.T, rel=1e-12)
    assert float(rows[0]["T"]) == pytest.approx(0.0045010843, abs=1e-10)


def test_phase_sweep_evaluates_each_family_once(tmp_path, monkeypatch):
    # The 256 momenta of the three families are one Heun batch: 1 heun_eval
    # call and 4 Taylor steps (one call per family and momentum before
    # batching: 768 and 3072; one batch per family: 3 and 12).  For real k
    # u1_first's conjugate set is u2_first's, so the batch holds 2 * 256 sets.
    from kinkdirac import heun, soliton

    evals, steps = [], []
    heun_eval, taylor_step = heun.heun_eval, heun.taylor_step

    def counting_eval(params, z):
        evals.append(params.q.shape)
        return heun_eval(params, z)

    def counting_step(*args):
        steps.append(args[1])
        return taylor_step(*args)

    monkeypatch.setattr(soliton, "heun_eval", counting_eval)
    monkeypatch.setattr(heun, "taylor_step", counting_step)
    code, rows, _, _ = run_csv(["phase-sweep", "--samples", "256"], tmp_path)
    assert code == 0 and len(rows) == 256
    assert evals == [(2 * 256,)]
    assert len(steps) == 4


@pytest.mark.parametrize("M", ["1", "5"])
def test_phase_sweep_unitary_up_to_k_max(tmp_path, M):
    # Every row up to the default k_max = 50 M, where the matched solutions
    # lose the most digits, kink and antikink, both energy branches.
    for sign in ("kink", "antikink"):
        for branch in ("positive", "negative"):
            code, rows, _, _ = run_csv(
                ["phase-sweep", "--M", M, "--K-sign", sign, "--E-branch", branch,
                 "--k-min", str(1e-3 * float(M)), "--k-max", str(50 * float(M)),
                 "--samples", "256"], tmp_path)
            assert code == 0 and len(rows) == 256
            assert max(abs(float(r["T"]) + float(r["R"]) - 1.0) for r in rows) <= 1e-8


@pytest.mark.parametrize("branch", ["positive", "negative"])
def test_antikink_phase_sweep_is_the_mapped_kink(tmp_path, branch):
    # Antikink rows are the charge-conjugate images of the kink rows on the
    # other branch: T, R and delta exactly, c1 and c2 by the map's factors.
    other = "negative" if branch == "positive" else "positive"
    argv = ["phase-sweep", "--M", "5", "--k-min", "0.25", "--k-max", "50", "--samples", "16"]
    _, anti, _, _ = run_csv(argv + ["--K-sign", "antikink", "--E-branch", branch], tmp_path, "a.csv")
    _, kink, _, _ = run_csv(argv + ["--E-branch", other], tmp_path, "k.csv")
    assert len(anti) == len(kink) == 16
    for a, b in zip(anti, kink):
        k, E = float(a["k"]), float(a["E"])
        assert float(b["k"]) == k and float(b["E"]) == -E
        for col in ("T", "R"):
            assert float(a[col]) == float(b[col])
        assert float(a["delta"]) == -float(b["delta"])
        c1 = complex(float(a["re_c1"]), float(a["im_c1"]))
        c2 = complex(float(a["re_c2"]), float(a["im_c2"]))
        c1_k = complex(float(b["re_c1"]), float(b["im_c1"]))
        c2_k = complex(float(b["re_c2"]), float(b["im_c2"]))
        # In units of M, as the map is applied: (E + k)/(E - k) cancels digits
        # as (k/M)^2, so the physical E and k would round differently.
        e, kk = E / 5.0, k / 5.0
        mapped_c1 = math.exp(-math.pi * kk) * c1_k.conjugate()
        mapped_c2 = math.exp(-2.0 * math.pi * kk) * (e + kk) / (e - kk) * c2_k.conjugate()
        assert abs(c1 - mapped_c1) <= 1e-14 * abs(c1)
        assert abs(c2 - mapped_c2) <= 1e-14 * abs(c2)


def test_phase_sweep_degrees(tmp_path):
    argv = ["phase-sweep", "--M", "5", "--k-min", "0.25", "--k-max", "50",
            "--samples", "8"]
    _, rows_rad, _, _ = run_csv(argv, tmp_path, "rad.csv")
    _, rows_deg, _, _ = run_csv(argv + ["--degrees"], tmp_path, "deg.csv")
    for rr, rd in zip(rows_rad, rows_deg):
        assert float(rd["delta"]) == pytest.approx(
            math.degrees(float(rr["delta"])), rel=1e-12
        )


# ---------------------------------------------------------------------------
# bound-states
# ---------------------------------------------------------------------------


def test_bound_states_output(tmp_path):
    # The antikink's levels are the kink's, negated, so it has no strictly
    # positive level.
    for sign, flip, n_b in (("kink", 1.0, 1), ("antikink", -1.0, 0)):
        code, payload = run_json(["bound-states", "--M", "5", "--K-sign", sign], tmp_path)
        assert code == 0
        energies = sorted(flip * r["E"] for r in payload["records"])
        assert len(energies) == 2
        assert abs(energies[0]) < 1e-6 * 5.0
        assert energies[1] == pytest.approx(4.231807015500819, abs=1e-6 * 5.0)
        lev = payload["checks"][0]
        assert lev["name"] == "levinson"
        assert lev["n_b"] == n_b
        assert lev["passed"] is True


def test_bound_states_with_four_samples_passes(tmp_path):
    # Four momenta to 20 M plus {2, 4} k_min: both branches still count
    # their levels and meet the 0.05 pi gate.
    for sign, counts in (("kink", (1, 0)), ("antikink", (0, 1))):
        _, payload = run_json(["bound-states", "--M", "5", "--K-sign", sign,
                               "--samples", "4"], tmp_path)
        lev = payload["checks"][0]
        assert (lev["n_plus"], lev["n_minus"]) == counts and lev["passed"] is True


def test_bound_states_levinson_line_reads_both_branches(tmp_path):
    # The positive-branch keys keep their meaning; the negative branch's jump,
    # the phase counts and their asymmetry are new keys, with the same values
    # in CSV (no value holds a space) and JSON.
    _, _, checks, _ = run_csv(["bound-states", "--M", "5", "--K-sign", "antikink"], tmp_path)
    [line] = checks
    cells = dict(cell.split("=") for cell in line.split()[2:])
    _, payload = run_json(["bound-states", "--M", "5", "--K-sign", "antikink"], tmp_path)
    lev = payload["checks"][0]
    assert set(cells) == set(lev) == {
        "name", "delta_at_zero", "delta_at_infinity", "n_b", "value", "tolerance", "passed",
        "jump_negative", "n_plus", "n_minus", "asymmetry"}
    assert all(cells[key] == _fmt(value) for key, value in lev.items())
    assert (lev["n_b"], lev["n_plus"], lev["n_minus"], lev["asymmetry"]) == (0, 0, 1, -1)
    assert abs(lev["jump_negative"] + 0.5 * math.pi) <= 1e-5
    assert abs(lev["delta_at_zero"] - lev["delta_at_infinity"] + 0.5 * math.pi) <= 1e-5


def test_bound_states_rejects_k_min_above_the_levinson_grid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound-states", "--M", "5", "--k-min", "100"])
    assert exc.value.code == 2


def test_k_range_is_checked_only_where_the_command_reads_it(capsys):
    # Only phase-sweep reads k_max; bound-states reads k_min, below 20 M.
    for argv in (["bound-states", "--M", "5"], ["scatter", "--samples", "21"], ["validate"]):
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--k-max", "0.001"]) == 0
        assert capsys.readouterr().out == plain
    for argv in (["phase-sweep", "--k-min", "2", "--k-max", "1"],
                 ["bound-states", "--M", "5", "--k-min", "200"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_passes(tmp_path):
    for sign in ("kink", "antikink"):
        for branch in ("positive", "negative"):
            code, payload = run_json(
                ["validate", "--M", "5", "--K-sign", sign, "--E-branch", branch], tmp_path
            )
            assert code == 0
            assert payload["checks"]
            assert all(c["passed"] for c in payload["checks"])


def test_validate_integrates_the_heun_ode_once(tmp_path, monkeypatch):
    # One DOP853 run through z = 0.2 and (1+i)/2 serves both ODE comparisons.
    from kinkdirac import cli

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return integrate_heun(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate_heun", counted)
    code, payload = run_json(["validate", "--M", "5"], tmp_path)
    assert code == 0 and calls == [[0.2, 0.5 + 0.5j]]
    names = [c["name"] for c in payload["checks"]]
    assert "series_vs_ode" in names and "continuation_vs_ode" in names


def test_validate_unitarity_sweeps_the_requested_branch(tmp_path):
    # The unitarity check is the largest |T + R - 1| of the match at --k and
    # of the sweep matcher at k/M = 0.1, 0.2, 0.5, 1, 2 on the branch validate
    # was given.
    for sign, K in (("kink", 5.0), ("antikink", -5.0)):
        _, payload = run_json(["validate", "--M", "5", "--K-sign", sign,
                               "--E-branch", "negative"], tmp_path)
        value = next(c["value"] for c in payload["checks"] if c["name"] == "unitarity")
        bg = SolitonBackground(M=5.0, K=K)
        _, data = sweep(bg, [f * 5.0 for f in (0.1, 0.2, 0.5, 1.0, 2.0)], "negative")
        at_k = match_coefficients(bg, SpectralPoint.scattering(bg, 2.5, "negative"))
        assert value == max(abs(data.T + data.R - 1.0).tolist() + [abs(at_k.T + at_k.R - 1.0)])


@pytest.mark.parametrize("k,passed", [("50", True), ("60", False)])
def test_validate_unitarity_reads_k(k, passed, tmp_path, monkeypatch):
    # |T + R - 1| at --k is 3.9e-12 at 50 M and 5.0e-5 at 60 M, where term
    # growth has eaten the digits; the row says so, and every row is still
    # printed.  (The oracle, 1 s a call up here, is stubbed out: it fails
    # its own rows either way.)
    monkeypatch.setattr(cli, "oracle_scattering", lambda bg, sp: (1.0, 1.0))
    code, payload = run_json(["validate", "--M", "1", "--k", k], tmp_path)
    checks = {c["name"]: c for c in payload["checks"]}
    assert code == 1 and list(checks) == list(_VALIDATE_FAULTS)
    assert checks["unitarity"]["passed"] is passed


def test_validate_detects_injected_failure(tmp_path):
    # An impossibly tight continuation tolerance must flip the check red and
    # produce a validation-failure exit code.
    code, payload = run_json(
        ["validate", "--M", "5", "--tol-continuation", "1e-15"], tmp_path
    )
    assert code == 1
    assert any(not c["passed"] for c in payload["checks"])


FAULT = 1.0 + 1e-4  # a relative error above every validate bound
# For each validate check: the cli binding it reads, and a fault in that
# binding's result (given the result and the call's arguments).
_VALIDATE_FAULTS = {
    "series_vs_ode": ("heun_series", lambda out, *args: (out[0] * FAULT, out[1])),
    "continuation_vs_ode": ("heun_eval", lambda out, *args: (out[0] * FAULT, out[1])),
    "oracle_c1": ("oracle_scattering", lambda out, *args: (out[0] * FAULT, out[1])),
    "oracle_c2": ("oracle_scattering", lambda out, *args: (out[0], out[1] * FAULT)),
    "unitarity": ("sweep", lambda out, *args: (out[0], dataclasses.replace(
        out[1], t=out[1].t * FAULT))),
    "matching_invariance": ("match_coefficients", lambda d, bg, sp, x0=0.0: dataclasses.replace(
        d, c1=d.c1 * FAULT) if isinstance(x0, np.ndarray) else d),
    "governing_residuals": ("matched_u", lambda out, *args: (out[0], out[1] * FAULT)),
}


@pytest.mark.parametrize("check", list(_VALIDATE_FAULTS))
def test_each_validate_check_fails_on_its_fault(check, tmp_path, monkeypatch):
    # A 1e-4 relative fault in what one check compares flips that check, and
    # only it, red; the list is every check validate prints.
    attr, fault = _VALIDATE_FAULTS[check]
    fn = getattr(cli, attr)
    monkeypatch.setattr(cli, attr, lambda *args: fault(fn(*args), *args))
    code, payload = run_json(["validate", "--M", "5"], tmp_path)
    assert [c["name"] for c in payload["checks"]] == list(_VALIDATE_FAULTS)
    assert code == 1 and [c["name"] for c in payload["checks"] if not c["passed"]] == [check]


def test_governing_residuals_resolve_large_k(tmp_path):
    # The residual grid keeps k h <= 1/4, so at k = 20 M the 9-point stencil
    # resolves the trace (2.99e-8; 7.1e-6 on a fixed 401 points).  Only the
    # real-axis oracle's c2 fails there: it cannot resolve the weak reflection.
    code, payload = run_json(["validate", "--M", "1", "--k", "20"], tmp_path)
    checks = {c["name"]: c for c in payload["checks"]}
    assert code == 1 and [n for n, c in checks.items() if not c["passed"]] == ["oracle_c2"]
    assert checks["governing_residuals"]["value"] <= 1e-7


def test_governing_residuals_fail_at_tiny_k(tmp_path):
    # At k = 1e-5 M the incident-side sum c1 u2 + c2 u2b cancels about 5
    # digits; the finite-difference residual sees that loss (1.2e-5), and so
    # should the check.
    code, payload = run_json(["validate", "--M", "1", "--k", "1e-5"], tmp_path)
    failed = [c["name"] for c in payload["checks"] if not c["passed"]]
    assert code == 1 and failed == ["governing_residuals"]


def test_validate_json_schema(tmp_path):
    _, payload = run_json(["validate", "--M", "5"], tmp_path)
    for chk in payload["checks"]:
        assert {"name", "value", "tolerance", "passed"} <= set(chk)


# ---------------------------------------------------------------------------
# Parsing and error handling
# ---------------------------------------------------------------------------


def test_documented_commands_are_the_parsers():
    # The cli module docstring and the README usage block list exactly the
    # subcommands build_parser accepts.
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    doc = cli.__doc__.split("-----------\n", 1)[1].split("\n\n", 1)[0]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    usage = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    assert [line.split()[0] for line in doc.splitlines()] == list(sub.choices)
    assert [line.split()[1] for line in usage.splitlines()
            if line.startswith("kinkdirac ")] == list(sub.choices)


def test_heun_eval_is_no_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["heun-eval", "--z", "0.5"])
    assert exc.value.code == 2


def test_exponent_form_option_value(capsys):
    # argparse reads -1 and -.5 as values; -1e-3 and -inf must be values too.
    assert main(["profile", "--beta", "-1e-3", "--samples", "5"]) == 0
    joined = capsys.readouterr().out
    assert main(["profile", "--beta=-1e-3", "--samples", "5"]) == 0
    assert capsys.readouterr().out == joined and joined.count("\n") == 6
    with pytest.raises(SystemExit) as exc:
        main(["scatter", "--k", "-inf"])
    assert exc.value.code == 2
    assert "--k must be finite, got -inf" in capsys.readouterr().err


def test_main_calls_are_independent(tmp_path):
    # Each call's options are its own: nothing carries over from the last call.
    _, antikink = run_json(["bound-states", "--M", "5", "--K-sign", "antikink", "--degrees"],
                           tmp_path, "a.json")
    _, kink = run_json(["bound-states", "--M", "5"], tmp_path, "k.json")
    assert antikink["config"]["K_sign"] == "antikink" and antikink["config"]["degrees"] is True
    assert kink["config"]["K_sign"] == "kink" and kink["config"]["degrees"] is False
    assert kink["records"][1]["E"] == -antikink["records"][0]["E"] > 0
    assert (kink["checks"][0]["n_plus"], antikink["checks"][0]["n_plus"]) == (1, 0)


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scatter", "--format", "xml"])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command,flag", [
    ("bound-states", "--tol-root"), ("validate", "--tol-continuation"),
    ("phase-sweep", "--k-min"), ("phase-sweep", "--k-max"),
])
def test_nan_parameter_exits_2(command, flag, capsys):
    # NaN fails every comparison, so each check must accept only what is valid.
    with pytest.raises(SystemExit) as exc:
        main([command, "--M", "5", flag, "nan"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command,flag,value", [
    ("phase-sweep", "--k-max", "inf"), ("phase-sweep", "--k-min", "inf"),
    ("scatter", "--k", "inf"), ("scatter", "--k", "-inf"), ("scatter", "--M", "inf"),
    ("bound-states", "--M", "nan"), ("profile", "--beta", "inf"), ("profile", "--beta", "nan"),
    ("phase-sweep", "--beta", "-inf"),
])
def test_non_finite_parameter_is_a_usage_error(command, flag, value, capsys):
    # Not a numerical failure (exit 3) of the dispersion check downstream.
    with pytest.raises(SystemExit) as exc:
        main([command, f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"{flag} must be finite, got {float(value)}" in capsys.readouterr().err


def test_non_finite_beta_writes_no_json(tmp_path, capsys):
    # json.dumps would write the invalid token Infinity into "config".
    out = tmp_path / "p.json"
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--beta", "inf", "--format", "json", "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()
    assert "--beta must be finite, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-5", "0"])
def test_non_positive_mass_is_a_usage_error(value, capsys):
    # Named as --M, not as the k range derived from it.
    with pytest.raises(SystemExit) as exc:
        main(["scatter", f"--M={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--M must be positive, got {float(value)}" in err and "k_min" not in err


@pytest.mark.parametrize("argv", [
    ["bound-states", "--M", "1e-300"],
    ["bound-states", "--M", "1e300"],
    ["scatter", "--M", "1e300", "--k", "1e300", "--samples", "21"],
    ["phase-sweep", "--M", "1e-300", "--samples", "16"],
    ["phase-sweep", "--M", "1e300", "--samples", "16"],
])
def test_extreme_mass_prints_the_unit_mass_output_rescaled(argv, tmp_path):
    # M is a unit: at M = 1e+-300, where M^2 under- or overflows, a command
    # prints the M = 1 output with x scaled by 1/M and k, E, kappa by M, and
    # numpy warns of nothing.  The two agree to the spread rounding k/M leaves
    # (5.9e-7 of |c1| at k/M = 50, where eps times the term growth is 4e-7;
    # at most 5.5e-13 up to k/M = 6).  c2 is compared up to k/M = 10: beyond,
    # its digits go as e^{pi k/M} grows (5e-5 at k/M = 12, all above 14), at
    # every M alike.
    M = float(argv[2])
    unit = [a if a != argv[2] else "1" for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, rows, checks, _ = run_csv(argv, tmp_path, "m.csv")
    code_1, rows_1, checks_1, _ = run_csv(unit, tmp_path, "one.csv")
    assert code == code_1 == 0 and len(rows) == len(rows_1) > 0
    assert len(checks) == len(checks_1) and ("passed=true" in "".join(checks)) == bool(checks)

    def values(row, M):
        """The row's numbers in units of M, each re_/im_ pair as one complex."""
        scale = {"x": 1.0 / M, "k": M, "E": M, "kappa": M}
        out = {c: float(v) / scale.get(c, 1.0) for c, v in row.items() if c != "side"}
        for c in [c[3:] for c in out if c.startswith("re_")]:
            out[c] = complex(out.pop("re_" + c), out.pop("im_" + c))
        if out.get("k", 0.0) > 10.0:
            del out["c2"]
        return out

    for row, row_1 in zip(rows, rows_1):
        assert row.get("side") == row_1.get("side")
        got, ref = values(row, M), values(row_1, 1.0)
        assert got.keys() == ref.keys()
        for col, value in got.items():
            assert (cmath.isnan(value) and cmath.isnan(ref[col])
                    or abs(value - ref[col]) <= 1e-6 * max(1.0, abs(ref[col]))), (col, value, ref[col])


def test_bound_root_above_tol_root_exits_3(tmp_path, capsys):
    # A certified root whose |c1| misses --tol-root is a numerical failure
    # naming E and M, not a level dropped from the output.
    assert main(["bound-states", "--M", "5", "--tol-root", "1e-20", "--out",
                 str(tmp_path / "b.csv")]) == 3
    assert re.search(r"find_bound_states: at the root E = \S+ \(M = 5\.0\)",
                     capsys.readouterr().err)


def test_numerical_failure_exits_3(tmp_path, capsys):
    # k = 0 degenerates the second local solution: a numerical failure, not
    # a usage error, named with its stage and gamma.
    assert main(["scatter", "--M", "5", "--k", "0", "--out",
                 str(tmp_path / "x.csv")]) == 3
    assert "second_solution_params: gamma = (1+0j)" in capsys.readouterr().err


def test_overflowing_momentum_exits_3(tmp_path, capsys):
    # e^(pi k/4K) overflows a double at k/M = 1000: a typed numerical failure.
    assert main(["scatter", "--M", "1", "--k", "1000", "--out",
                 str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert "build_solution" in err and "k/M = 1000" in err
