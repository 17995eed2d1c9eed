"""End-to-end tests of the command-line interface (in-process)."""

import csv
import json
import math

import pytest

from kinkdirac import SolitonBackground, SpectralPoint, eval_u, match_coefficients
from kinkdirac.cli import main


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
    code, rows, _, _ = run_csv(
        ["scatter", "--M", "5", "--k", "2.5", "--samples", "51"], tmp_path
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
    code, rows, _, _ = run_csv(
        ["scatter", "--M", "5", "--k", "2.5", "--samples", "21"], tmp_path
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


def test_scatter_evaluates_each_local_solution_once_per_row(tmp_path, monkeypatch):
    # 3 for the match, 2 per incident row (3 at x = 0, which prints u1), and
    # 1 per transmitted row.
    from kinkdirac import cli, scattering

    calls = []

    def counting(sol, x):
        calls.append(x)
        return eval_u(sol, x)

    monkeypatch.setattr(cli, "eval_u", counting)
    monkeypatch.setattr(scattering, "eval_u", counting)
    code, rows, _, _ = run_csv(["scatter", "--M", "5", "--k", "2.5", "--samples", "21"], tmp_path)
    assert code == 0 and len(rows) == 42
    assert len(calls) == 3 + (2 * 20 + 3) + 21


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
    bg = SolitonBackground(M=5.0, K=5.0)
    for r in rows:
        ref = match_coefficients(bg, SpectralPoint.scattering(bg, float(r["k"]), "negative"))
        assert float(r["E"]) < 0
        assert float(r["re_c1"]) + 1j * float(r["im_c1"]) == ref.c1
        assert float(r["T"]) == ref.T
    assert float(rows[0]["T"]) == pytest.approx(0.0045010843, abs=1e-10)


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
    code, payload = run_json(["bound-states", "--M", "5"], tmp_path)
    assert code == 0
    energies = sorted(r["E"] for r in payload["records"])
    assert len(energies) == 2
    assert abs(energies[0]) < 1e-6 * 5.0
    assert energies[1] == pytest.approx(4.231807015500819, abs=1e-6 * 5.0)
    lev = payload["checks"][0]
    assert lev["name"] == "levinson"
    assert lev["n_b"] == 1
    assert lev["passed"] is True


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_passes(tmp_path):
    code, payload = run_json(["validate", "--M", "5"], tmp_path)
    assert code == 0
    assert payload["checks"]
    assert all(c["passed"] for c in payload["checks"])


def test_validate_detects_injected_failure(tmp_path):
    # An impossibly tight continuation tolerance must flip the check red and
    # produce a validation-failure exit code.
    code, payload = run_json(
        ["validate", "--M", "5", "--tol-continuation", "1e-15"], tmp_path
    )
    assert code == 1
    assert any(not c["passed"] for c in payload["checks"])


def test_validate_json_schema(tmp_path):
    _, payload = run_json(["validate", "--M", "5"], tmp_path)
    for chk in payload["checks"]:
        assert {"name", "value", "tolerance", "passed"} <= set(chk)


# ---------------------------------------------------------------------------
# heun-eval and error handling
# ---------------------------------------------------------------------------


def test_heun_eval_at_origin(tmp_path):
    code, payload = run_json(
        ["heun-eval", "--a", "0.5", "--q", "0.3", "--alpha", "-1",
         "--beta-heun", "0", "--gamma", "1.2", "--delta", "0.8",
         "--z", "0.0"], tmp_path
    )
    assert code == 0
    rec = payload["records"][0]
    assert rec["re_value"] == 1.0 and rec["im_value"] == 0.0


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scatter", "--format", "xml"])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_numerical_failure_exits_3(tmp_path):
    # k = 0 degenerates the second local solution: a numerical failure, not
    # a usage error.
    assert main(["scatter", "--M", "5", "--k", "0", "--out",
                 str(tmp_path / "x.csv")]) == 3


@pytest.mark.parametrize("gamma", ["2", "3"])
def test_degenerate_second_solution_names_its_stage(tmp_path, capsys, gamma):
    assert main(["heun-eval", "--second", "--gamma", gamma, "--q", "0.3", "--alpha", "-1",
                 "--beta-heun", "0", "--delta", "0.8", "--z", "0.1+0.1j",
                 "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert f"heun_second_solution: gamma = ({gamma}+0j)" in err


def test_overflowing_momentum_exits_3(tmp_path, capsys):
    # e^(pi k/4K) overflows a double at k/M = 1000: a typed numerical failure.
    assert main(["scatter", "--M", "1", "--k", "1000", "--out",
                 str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert "build_solution" in err and "k/M = 1000" in err
