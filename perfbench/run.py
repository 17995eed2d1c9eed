#!/usr/bin/env python3
"""kinkdirac benchmark: closed-loop CLI requests, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload {sweep,spectrum,trace} --seed N \
        --seconds S --trace {0,1}

One process, one client, one thread: each request calls
`kinkdirac.cli.main(argv)` in-process with stdout captured, and the next
request starts when the previous one returns.  After a warm-up request the
loop runs until S seconds of request time and at least MIN_REQUESTS requests
have passed, and ends on a whole block of the workload's request mix.  Each
output is checked against independent references outside the timed region
(see checks.py).  `setup_s` is measured in fresh interpreters.  After every
request a fixed calibration loop is timed; the request times are scaled by
the machine speed it measured (reference 1.0), and the unscaled values are
printed above the result.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same loop, then
replays its first TRACE_REQUESTS[workload] requests twice each, once with
every layer wrapped (see tracing.py), writes the spans to perfbench/out/, and
prints the per-layer metrics; its counts repeat exactly for a given seed.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
A request fails if it raises, exits non-zero or misses an output gate.
`correct` is false when a request fails for any reason other than the known
defect named in checks.known_defect; those failures still count in `failed`.
"""

import os

# Pin BLAS pools before numpy loads: one thread, matching the closed loop.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Enough requests for request_tail_s to exist (ten beyond it) on the slowest
# workload; `spectrum` reaches it in about 25 s.
MIN_REQUESTS = 16
# Requests replayed under tracing: a fixed count, so span counts repeat.
TRACE_REQUESTS = {"sweep": 12, "spectrum": 4, "trace": 64}
# Fresh-interpreter set-up samples: at least SETUP_MIN, more while the
# quartile spread exceeds SETUP_STEADY of the median, at most SETUP_MAX.
SETUP_MIN, SETUP_MAX, SETUP_STEADY = 5, 7, 0.05
# The calibration loop took a median CALIBRATION_REF_S on a 2-core Intel Xeon
# with Python 3.11; request times are reported scaled to that speed.
# Other tenants of a shared host change its speed by +-20 % within minutes,
# and the scaling takes most of that out of the run-to-run spread.
# After each request it runs for about CALIBRATION_SHARE of the request time.
CALIBRATION_STEPS = 20_000
CALIBRATION_REF_S = 0.005
CALIBRATION_SHARE = 0.03
SETUP_CODE = "import time, kinkdirac.cli; print(time.monotonic())"


@dataclass
class Outcome:
    elapsed: float
    error: float | None   # worst relative error the check measured
    failure: str | None   # why the request failed, None if it passed


def spread(values) -> float:
    """Quartile distance over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def layer_import_s(importtime_log: str) -> dict[str, float]:
    """Each layer's import time from a `-X importtime` log, excluding the
    nested imports of other kinkdirac modules (so `cli` does not absorb the
    package and `oracle` keeps the scipy it pulls in first)."""
    out = {}
    pending = []  # (depth, name, cumulative s, kinkdirac time nested inside)
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        name = field.strip()
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        cum = int(cumulative) * 1e-6
        nested = 0.0
        while pending and pending[-1][0] > depth:
            _, child, child_cum, child_nested = pending.pop()
            nested += child_cum if child.startswith("kinkdirac") else child_nested
        if name.startswith("kinkdirac.") and name[len("kinkdirac."):] in tracing.LAYERS:
            out[name[len("kinkdirac."):]] = cum - nested
        pending.append((depth, name, cum, nested))
    return out


def measure_setup(importtime: bool):
    """Median time from a fresh interpreter until kinkdirac.cli is imported,
    and with importtime the median import time of each layer."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", SETUP_CODE]

    def once():
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        return float(proc.stdout.split()[-1]) - start, proc.stderr

    once()  # writes the bytecode caches
    samples, imports = [], defaultdict(list)
    while len(samples) < SETUP_MIN or (len(samples) < SETUP_MAX
                                       and spread(samples) > SETUP_STEADY):
        elapsed, stderr = once()
        samples.append(elapsed)
        for layer, seconds in layer_import_s(stderr).items():
            imports[layer].append(seconds)
    import_s = {layer: statistics.median(v) for layer, v in imports.items()}
    return statistics.median(samples), import_s, len(samples)


def execute(cli, argv):
    """Run one CLI request in-process; (seconds, exit code, stdout, exception)."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a request that raises is a failed request
        code, raised = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue(), raised


def calibration_loop() -> complex:
    """A fixed pure-Python complex recurrence that does not touch kinkdirac:
    the same kind of interpreter work as the series and Taylor loops."""
    prev, cur, out = 1 + 0j, 0.5j, []
    for _ in range(CALIBRATION_STEPS):
        prev, cur = cur, (0.6 + 0.3j) * cur + (-0.2 + 0.1j) * prev + 0.1
        out.append(cur)
    return out[-1]


def timed_calibration() -> float:
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def closed_loop(cli, checks, stream, seconds: float, min_requests: int, block: int):
    """Run requests back to back until `seconds` of request time and
    `min_requests` requests, ending on a whole `block`; check each output
    after its timer stops, then time the calibration loop."""
    reqs, outcomes, calibration = [], [], []
    timed = 0.0
    while timed < seconds or len(outcomes) < min_requests or len(outcomes) % block:
        req = next(stream)
        elapsed, code, text, raised = execute(cli, req.argv)
        timed += elapsed
        try:
            if raised:
                raise checks.CheckFailed(raised)
            outcomes.append(Outcome(elapsed, checks.check(req, code, text), None))
        except checks.CheckFailed as exc:
            outcomes.append(Outcome(elapsed, None, str(exc)))
        reqs.append(req)
        runs = max(1, round(CALIBRATION_SHARE * elapsed / CALIBRATION_REF_S))
        calibration.extend(timed_calibration() for _ in range(runs))
    return reqs, outcomes, calibration


def tail(times):
    """(percentile, value): the highest whole percentile with at least ten
    requests beyond it, by nearest rank."""
    n = len(times)
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(times)[max(math.ceil(p * n / 100), 1) - 1]


def end_to_end(setup_s: float, outcomes, peak_rss_mb: float, speed: float) -> dict[str, float]:
    """End-to-end metrics.  Request times are multiplied by `speed`, the
    machine's speed relative to the reference as the calibration loop measured
    it during the run.  `setup_s` stays unscaled: it runs in child processes,
    and scaling it widened its spread."""
    times = [o.elapsed * speed for o in outcomes]
    errors = [o.error for o in outcomes if o.error is not None]
    return {
        "setup_s": setup_s,
        "request_p50_s": statistics.median(times),
        "request_tail_s": tail(times)[1],
        "requests_per_s": len(times) / sum(times),
        "passed_frac": sum(1 for o in outcomes if not o.failure) / len(outcomes),
        # An error of exactly 0 reads as 16 digits, the float64 limit.
        "accuracy_digits": -math.log10(max(max(errors, default=0.0), 1e-16)),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(spans, import_s: dict[str, float], overhead: float) -> dict[str, float]:
    values = tracing.layer_metrics(spans)
    for layer in tracing.LAYERS:
        values[f"{layer}.import_s"] = import_s[layer]
    values["tracing_overhead_frac"] = overhead
    return values


def metadata(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    sources = sorted((SRC / "kinkdirac").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += sum(1 for line in data.decode().splitlines() if line.strip())
    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
    return {
        "workload": workload, "seed": seed, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpu": cpu, "git_commit": commit, "src_sha256": digest.hexdigest(),
        "src_nonblank_lines": lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kinkdirac closed-loop CLI benchmark")
    ap.add_argument("--workload", required=True, choices=("sweep", "spectrum", "trace"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kinkdirac" / "__init__.py").is_file():
        print(f"no kinkdirac sources under {SRC}", file=sys.stderr)
        return 2
    setup_s, import_s, setup_n = measure_setup(importtime=bool(args.trace))

    sys.path.insert(0, str(SRC))
    import kinkdirac.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"kinkdirac was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks

    execute(cli, workloads.first_requests(args.workload, args.seed, 1)[0].argv)  # warm-up
    n_trace = TRACE_REQUESTS[args.workload] if args.trace else 0
    reqs, outcomes, calibration = closed_loop(
        cli, checks, workloads.requests(args.workload, args.seed), args.seconds,
        max(MIN_REQUESTS, n_trace), workloads.BLOCK[args.workload])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    times = [o.elapsed for o in outcomes]
    failures = [(r, o) for r, o in zip(reqs, outcomes) if o.failure]
    kinds = Counter(checks.known_defect(r) or f"unexpected: {o.failure}" for r, o in failures)
    correct = all(checks.known_defect(r) for r, _ in failures)

    print(f"workload {args.workload}, seed {args.seed}: {len(outcomes)} requests, "
          f"{sum(times):.3f} s of request time after one warm-up request")
    print(f"request_tail_s is p{tail(times)[0]} of {len(times)} requests")
    print(f"setup_s is the median of {setup_n} fresh interpreters")
    speed = CALIBRATION_REF_S / statistics.median(calibration)
    print(f"calibration: speed {speed:.4f} of reference; unscaled "
          f"request_p50_s {statistics.median(times):.4f}, "
          f"request_tail_s {tail(times)[1]:.4f}, requests_per_s {len(times) / sum(times):.4f}")
    for kind, count in sorted(kinds.items()):
        print(f"failed: {count} x {kind}")

    if args.trace:
        # Each request runs untraced and traced back to back, alternating which
        # goes first, so machine-speed drift cancels out of the overhead.
        recorder = tracing.Recorder()
        seconds = {False: 0.0, True: 0.0}
        for i, req in enumerate(reqs[:n_trace]):
            recorder.request = i
            texts = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                with tracing.installed(recorder) if traced else contextlib.nullcontext():
                    elapsed, _, texts[traced], _ = execute(cli, req.argv)
                seconds[traced] += elapsed
            if texts[True] != texts[False]:
                print(f"traced output differs from untraced: {req.argv}", file=sys.stderr)
                return 1
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}.csv"
        recorder.write(span_file)
        print(f"traced {n_trace} requests, {len(recorder.spans)} spans written to "
              f"{span_file.relative_to(ROOT)}")
        values = per_layer(recorder.spans, import_s, seconds[True] / seconds[False] - 1.0)
    else:
        values = end_to_end(setup_s, outcomes, peak_rss_mb, speed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print("meta " + json.dumps(metadata(args.workload, args.seed), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
