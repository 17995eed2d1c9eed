"""Tests of the benchmark itself: reproducible inputs, metric names that match
BENCHMARK.json, and output checks that reject corrupted records.

Run from the repository root:  python3 -m pytest perfbench
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
from kinkdirac import cli  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def names(group):
    return {m["name"] for m in SPEC[group]}


def output(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def replace_field(text: str, row: int, column: str, value: str) -> str:
    """Set one CSV field; row 0 is the first record after the header."""
    lines = text.splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    fields[header.index(column)] = value
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def sweep_request(branch="positive", samples=16):
    M = 2.0
    argv = ("phase-sweep", "--M", repr(M), "--K-sign", "kink", "--E-branch", branch,
            "--k-min", repr(0.3 * M), "--k-max", repr(3.0 * M), "--samples", str(samples))
    return workloads.Request(argv, "phase-sweep", M, "kink", branch, k_min=0.3 * M,
                             k_max=3.0 * M, oracle_rows=(2, 9))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    first = [r.argv for r in workloads.first_requests(workload, 3, 80)]
    assert first == [r.argv for r in workloads.first_requests(workload, 3, 80)]
    assert first != [r.argv for r in workloads.first_requests(workload, 4, 80)]


def test_sweep_shares_and_distinct_points():
    reqs = workloads.first_requests("sweep", 5, 64)
    combos = [(r.K_sign, r.E_branch) for r in reqs]
    assert all(combos.count(c) == 16 for c in set(combos)) and len(set(combos)) == 4
    assert len({(r.M, r.k_min, r.k_max) for r in reqs}) == len(reqs)
    for r in reqs:
        assert 1e-3 <= r.k_min / r.M <= 2e-3 and 40 <= r.k_max / r.M <= 50
        ratio = (r.k_max / r.k_min) ** (1 / (workloads.SWEEP_SAMPLES - 1))
        assert all(r.k_min * ratio**i <= 10 * r.M for i in r.oracle_rows)


def test_trace_mix():
    reqs = workloads.first_requests("trace", 5, 2 * workloads.VALIDATE_EVERY)
    assert [r.command for r in reqs].count("validate") == 2
    assert all(0.05 <= r.k / r.M <= 2.0 for r in reqs)


# ---------------------------------------------------------------------------
# Metric names
# ---------------------------------------------------------------------------


def test_end_to_end_names_match_spec():
    outcomes = [run.Outcome(0.1 * i, 1e-9, None) for i in range(1, 21)]
    assert set(run.end_to_end(0.8, outcomes, 80.0, 1.0)) == names("end_to_end")


def test_per_layer_names_match_spec():
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        recorder.request = 0
        output(["scatter", "--M", "2", "--k", "1", "--samples", "11"])
    values = run.per_layer(recorder.spans, dict.fromkeys(tracing.LAYERS, 0.01), 0.1)
    assert set(values) == names("per_layer")


def test_printed_metrics_match_spec():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace", "--seed", "1",
         "--seconds", "0.5", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.HERE).glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# Tracing and derived numbers
# ---------------------------------------------------------------------------


def test_tracing_patches_every_binding_and_restores():
    import kinkdirac.scattering as scattering
    import kinkdirac.soliton as soliton

    original = soliton.heun_eval
    argv = ["scatter", "--M", "3", "--k", "2", "--samples", "21", "--K-sign", "antikink"]
    plain = output(argv)
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        assert soliton.heun_eval is not original
        assert scattering.eval_u is soliton.eval_u and hasattr(soliton.eval_u, "__wrapped__")
        traced = output(argv)
    assert soliton.heun_eval is original and traced == plain
    spans = recorder.spans
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    values = tracing.layer_metrics(spans)
    assert values["scattering.matched_u.calls"] == 42
    assert values["scattering.match_coefficients.calls"] == 1
    main_duration = spans[0][2] - spans[0][1]
    total_self = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert total_self <= main_duration * (1 + 1e-9)


def test_traced_counts_repeat_for_a_seed():
    def counts():
        recorder = tracing.Recorder()
        with tracing.installed(recorder):
            for i, req in enumerate(workloads.first_requests("trace", 9, 3)):
                recorder.request = i
                output(req.argv)
        return {k: v for k, v in tracing.layer_metrics(recorder.spans).items()
                if not k.endswith(".self_s")}

    first = counts()
    assert first == counts() and first["heun.heun_eval.calls"] > 0


def test_self_time_subtracts_children():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0, None),
        ("heun.heun_eval", 1.0, 5.0, 0, 0, None),
        ("heun.heun_continue", 2.0, 4.0, 1, 0, None),
        ("heun.taylor_step", 2.5, 3.0, 2, 0, None),
        ("heun.heun_eval", 6.0, 7.0, 0, 0, None),
        ("heun.heun_series", 6.0, 6.5, 4, 0, None),
    ]
    values = tracing.layer_metrics(spans)
    assert values["cli.main.self_s"] == pytest.approx(5.0)
    assert values["heun.heun_continue.self_s"] == pytest.approx(1.5)
    assert values["heun.series_only_frac"] == pytest.approx(0.5)
    assert values["heun.steps_per_continue"] == pytest.approx(1.0)


def test_tail_leaves_ten_requests_beyond():
    for n in (16, 20, 57, 208):
        p, value = run.tail(list(range(n)))
        assert sum(1 for t in range(n) if t > value) >= 10
        assert p == 100 * (n - 10) // n


def test_import_times_exclude_nested_package_modules():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     kinkdirac.heun",
        "import time:       700 |        700 |       scipy.integrate",
        "import time:        50 |        750 |     kinkdirac.oracle",
        "import time:        10 |        860 |   kinkdirac",
        "import time:        20 |        880 | kinkdirac.cli",
    ])
    got = run.layer_import_s(log)
    assert got == pytest.approx({"heun": 1e-4, "oracle": 7.5e-4, "cli": 2e-5})


# ---------------------------------------------------------------------------
# Output checks reject corrupted records
# ---------------------------------------------------------------------------


def test_sweep_check_rejects_corruption():
    req = sweep_request()
    text = output(req.argv)
    assert checks.check(req, 0, text) < 1e-6
    row = req.oracle_rows[0]
    rows, _ = checks.parse_csv(text)
    flipped = replace_field(text, row, "re_c1", repr(-float(rows[row]["re_c1"])))
    flipped = replace_field(flipped, row, "im_c1", repr(-float(rows[row]["im_c1"])))
    with pytest.raises(checks.CheckFailed, match="oracle"):
        checks.check(req, 0, flipped)
    off = replace_field(text, 5, "T", repr(float(rows[5]["T"]) + 1e-3))
    with pytest.raises(checks.CheckFailed, match="T \\+ R"):
        checks.check(req, 0, off)
    with pytest.raises(checks.CheckFailed, match="exit code"):
        checks.check(req, 3, text)


def test_sweep_check_catches_the_negative_branch_defect():
    req = sweep_request("negative")
    with pytest.raises(checks.CheckFailed, match="oracle"):
        checks.check(req, 0, output(req.argv))
    assert checks.known_defect(req) and not checks.known_defect(sweep_request())


@pytest.mark.parametrize("sign", ["kink", "antikink"])
def test_bound_state_check_rejects_shifted_energy(sign):
    req = workloads.Request(("bound-states", "--M", "2.0", "--K-sign", sign),
                            "bound-states", 2.0, sign)
    text = output(req.argv)
    assert checks.check(req, 0, text) <= 1e-6
    rows, _ = checks.parse_csv(text)
    i = max(range(len(rows)), key=lambda j: abs(float(rows[j]["E"])))
    shifted = replace_field(text, i, "E", repr(float(rows[i]["E"]) + 1e-5 * 2.0))
    with pytest.raises(checks.CheckFailed, match="misses"):
        checks.check(req, 0, shifted)
    lev = text.replace("n_b=1", "n_b=0") if sign == "kink" else text.replace("n_b=0", "n_b=1")
    with pytest.raises(checks.CheckFailed, match="Levinson"):
        checks.check(req, 0, lev)


def test_scatter_check_rejects_perturbed_trace():
    req = workloads.first_requests("trace", 2, 1)[0]
    text = output(req.argv)
    assert checks.check(req, 0, text) <= 1e-6
    rows, _ = checks.parse_csv(text)
    bumped = replace_field(text, 300, "re_u", repr(float(rows[300]["re_u"]) * (1 + 1e-4)))
    with pytest.raises(checks.CheckFailed, match="residual"):
        checks.check(req, 0, bumped)


def test_validate_check_rejects_a_failed_check():
    req = workloads.first_requests("trace", 2, workloads.VALIDATE_EVERY)[-1]
    assert req.command == "validate"
    text = output(req.argv)
    assert checks.check(req, 0, text) is None
    with pytest.raises(checks.CheckFailed, match="unitarity"):
        checks.check(req, 0, replace_field(text, 6, "passed", "false"))
