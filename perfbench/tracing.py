"""Span tracing around the package's layers, from outside the package.

`installed(recorder)` wraps the public functions of each layer module and
patches every module namespace that holds one of them (a name imported with
`from .x import f` is a separate binding), then restores the originals.
Spans (name, start, end, parent, request id, note) stay in memory until the
run ends.  Nothing under src/ changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("heun", "soliton", "scattering", "spectrum", "oracle", "cli")

# O(1) arithmetic helpers called inside the inner loops of traced functions.
# A span costs about as much as their work, so their time stays in the caller's
# self time.  `cli` is traced at its entry point only: its self time is then the
# request time outside every library span (parsing, formatting, output).
UNTRACED = {
    "heun.recurrence_coeffs", "heun.check_gamma_nondegenerate", "heun.second_solution_params",
    "soliton.map_to_z", "soliton.log_z", "soliton.dz_dx", "soliton.ratio_squared",
    "soliton.ansatz_phase", "soliton.v_from_u", "soliton.v_from_u_zform",
    "soliton.kink_profile", "scattering.wronskian",
}


def _match_key(args, kwargs, result):
    bg, sp = args[0], args[1]
    k = sp.k / bg.M
    return (bg.K > 0, float(f"{sp.E / bg.M:.12g}"),
            float(f"{k.real:.12g}"), float(f"{k.imag:.12g}"))


# Small facts some spans keep, for ratios measured where the work happens.
NOTES = {
    "scattering.match_coefficients": _match_key,
    "scattering.unwrap_sweep": lambda args, kwargs, result: len(result[0]),
    "spectrum.find_bound_states": lambda args, kwargs, result: len(result),
}


class Recorder:
    """In-memory span store for one traced run."""

    def __init__(self):
        self.spans = []   # (name, start, end, parent index or -1, request id, note)
        self.stack = [-1]
        self.request = -1

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.request, None)
            if note is not None:
                spans[sid] = (name, start, end, parent, self.request, note(args, kwargs, result))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,name,start,end,parent,request\n")
            for sid, (name, start, end, parent, request, _) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{request}\n")


def _targets():
    """(qualified name, function) for every traced function of every layer."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"kinkdirac.{layer}")
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or name in UNTRACED):
                continue
            if layer == "cli" and attr != "main":
                continue
            out.append((name, obj))
    return out


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Route every binding of a traced function through the recorder."""
    wrappers = {id(fn): (fn, recorder.wrap(name, fn)) for name, fn in _targets()}
    patched = []
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "kinkdirac" or n.startswith("kinkdirac."))]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                setattr(mod, attr, wrappers[id(obj)][1])
                patched.append((mod, attr, obj))
    try:
        yield
    finally:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts, self times and ratios from a finished span list.

    A span's self time is its duration minus the time its child spans cover.
    Times and counts are totals over the traced requests.
    """
    calls = Counter()
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    for sid, (name, start, end, _, _, _) in enumerate(spans):
        self_s[name] += (end - start) - child[sid]

    continued = {parent for name, _, _, parent, _, _ in spans if name == "heun.heun_continue"}
    series_only = sum(1 for sid, s in enumerate(spans)
                      if s[0] == "heun.heun_eval" and sid not in continued)
    match_keys = [s[5] for s in spans if s[0] == "scattering.match_coefficients"]
    sweep_ids = {sid for sid, s in enumerate(spans) if s[0] == "scattering.unwrap_sweep"}
    sweep_matches = sum(1 for s in spans
                        if s[0] == "scattering.match_coefficients" and s[3] in sweep_ids)
    requested_k = sum(spans[sid][5] for sid in sweep_ids)
    roots = sum(s[5] for s in spans if s[0] == "spectrum.find_bound_states")

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("heun.taylor_step", "heun.heun_continue", "heun.heun_series", "heun.heun_eval",
                 "soliton.build_solution", "soliton.eval_u", "scattering.matched_u",
                 "scattering.match_coefficients", "spectrum.c1_bound_indicator"):
        m[f"{name}.calls"] = calls[name]
    for name in ("heun.taylor_step", "heun.heun_continue", "heun.heun_series",
                 "heun.default_path", "soliton.build_solution", "soliton.eval_u",
                 "scattering.matched_u", "cli.main", "scattering.match_coefficients",
                 "scattering.unwrap_sweep", "spectrum.c1_bound_indicator",
                 "spectrum.find_bound_states", "spectrum.levinson_check",
                 "oracle.oracle_scattering", "oracle.integrate_heun", "oracle.residuals"):
        m[f"{name}.self_s"] = self_s[name]
    m["heun.steps_per_continue"] = ratio(calls["heun.taylor_step"], calls["heun.heun_continue"])
    m["heun.series_only_frac"] = ratio(series_only, calls["heun.heun_eval"])
    m["scattering.match_coefficients.distinct_frac"] = ratio(len(set(match_keys)),
                                                             len(match_keys))
    m["scattering.refine_ratio"] = ratio(requested_k, sweep_matches)
    m["spectrum.roots_per_c1"] = ratio(roots, calls["spectrum.c1_bound_indicator"])
    return m
