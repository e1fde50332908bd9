"""Spans around the public functions of each colecole layer, and the
per-layer metrics computed from them.

The library binds names with ``from .x import y``, so each function is
wrapped in the namespace that calls it (``WRAPPED``).  A span is
``(name, parent, start, end, info)``: ``parent`` is the index of the span
that was open when this one began (-1 for the root), the times are
``time.perf_counter`` readings, and ``info`` holds the counts read from the
call's arguments or result.  Spans stay in memory and are written once, when
the run ends.  A span's self time is its duration minus that of its children.

A wrapped name that a later version of the library no longer has is skipped
and listed as missing; the metrics built on it then read 0 and the run still
passes.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from typing import Callable

WRAPPED = {
    "colecole.stepper": (
        "frac_deriv_current",
        "solve_spd",
        "curl_h",
        "curl_e",
        "inner_e",
        "sample_vec",
        "sample_scalar",
        "sftr_weights",
        "fbdf2_weights",
        "shift_combine",
    ),
    "colecole.energy": (
        "step",
        "discrete_energy",
        "dissipation_residual",
        "varpi_weights",
        "cumulative_weights",
    ),
    "colecole.manufactured": ("step", "error_norms"),
    "colecole.cli": ("run_decay_experiment", "convergence_table"),
}

BYTES_PER_VALUE = 8  # float64 dofs


def _step_info(args, result):
    return [result.n, result.config.n_steps]


def _history_info(args, result):
    state, p_new = args[0], args[1]
    return [len(state.p_history), p_new.ex.size + p_new.ey.size]


def _solve_info(args, result):
    return result[1]


INFO = {
    "energy.step": _step_info,
    "manufactured.step": _step_info,
    "stepper.frac_deriv_current": _history_info,
    "stepper.solve_spd": _solve_info,
}

# Layer that owns each span's self time.  The experiment loops count with
# the module that holds them: run_decay_experiment lives in energy,
# convergence_table in manufactured.
LAYER_OF = {
    "cli.main": "cli",
    "cli.run_decay_experiment": "energy",
    "cli.convergence_table": "manufactured",
    "energy.step": "stepper.step",
    "manufactured.step": "stepper.step",
    "stepper.frac_deriv_current": "stepper.history",
    "stepper.solve_spd": "stepper.solve",
    "stepper.curl_h": "mesh",
    "stepper.curl_e": "mesh",
    "stepper.inner_e": "mesh",
    "stepper.sample_vec": "manufactured",
    "stepper.sample_scalar": "manufactured",
    "manufactured.error_norms": "manufactured",
    "energy.discrete_energy": "energy",
    "energy.dissipation_residual": "energy",
    "stepper.sftr_weights": "weights",
    "stepper.fbdf2_weights": "weights",
    "stepper.shift_combine": "weights",
    "energy.varpi_weights": "weights",
    "energy.cumulative_weights": "weights",
}

WEIGHTS = {n for n, layer in LAYER_OF.items() if layer == "weights"}
STEPS = {"energy.step", "manufactured.step"}
CURLS = {"stepper.curl_h", "stepper.curl_e"}
SAMPLES = {"stepper.sample_vec", "stepper.sample_scalar"}
ENERGY_CALLS = {"energy.discrete_energy", "energy.dissipation_residual"}

# name -> unit of every metric ``layer_metrics`` returns
UNITS = {
    "weights.calls": "count",
    "weights.s": "s",
    "stepper.step.calls": "count",
    "stepper.step.self_s": "s",
    "stepper.step.ms_p50": "ms",
    "stepper.step.ms_p90": "ms",
    "stepper.step.late_over_early": "ratio",
    "stepper.history.calls": "count",
    "stepper.history.s": "s",
    "stepper.history.gb_computed": "GB",
    "stepper.history.gbps_computed": "GB/s",
    "stepper.history_bytes": "B",
    "stepper.history_over_llc": "ratio",
    "stepper.solve.calls": "count",
    "stepper.solve.s": "s",
    "stepper.solve.self_s": "s",
    "stepper.cg_iters.mean": "count",
    "stepper.cg_iters.max": "count",
    "mesh.curl.calls": "count",
    "mesh.curl.s": "s",
    "mesh.inner.calls": "count",
    "mesh.inner.s": "s",
    "energy.calls": "count",
    "energy.self_s": "s",
    "manufactured.sample.calls": "count",
    "manufactured.sample.s": "s",
    "manufactured.error_norms.s": "s",
    "cli.self_s": "s",
}


class Tracer:
    """In-memory span recorder that wraps module attributes."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, open_ = self.spans, self._open
        info = INFO.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, open_[-1] if open_ else -1, clock(), 0.0, None]
            open_.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                open_.pop()
            if info is not None:
                try:
                    rec[4] = info(args, result)
                except (AttributeError, TypeError, IndexError):
                    pass
            return result

        return traced

    def install(self) -> None:
        for module_name, attrs in WRAPPED.items():
            module = importlib.import_module(module_name)
            short = module_name.rsplit(".", 1)[-1]
            for attr in attrs:
                name = f"{short}.{attr}"
                if hasattr(module, attr):
                    setattr(module, attr, self.wrap(name, getattr(module, attr)))
                else:
                    self.missing.append(name)

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "missing": self.missing, "spans": rows}, fh)


def load(path) -> tuple[list[list], list[str]]:
    """Spans and missing names as written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names = doc["names"]
    return [[names[r[0]], r[1], r[2], r[3], r[4]] for r in doc["spans"]], doc["missing"]


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def layer_split(spans: list[list]) -> dict[str, float]:
    """Self seconds per layer; they sum to the root span's duration."""
    split: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        layer = LAYER_OF.get(s[0], s[0])
        split[layer] = split.get(layer, 0.0) + own
    return split


def _quantile(xs: list[float], q: float) -> float:
    if not xs:
        return 0.0
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _late_over_early(steps: list[list]) -> float:
    """Mean duration of the last tenth of steps over the first tenth, each
    tenth taken per CLI run and pooled over the runs of a sweep."""
    early, late = [], []
    for s in steps:
        if s[4] is None:
            continue
        n, total = s[4]
        tenth = max(1, total // 10)
        if n <= tenth:
            early.append(s[3] - s[2])
        if n > total - tenth:
            late.append(s[3] - s[2])
    if not early or not late:
        return 0.0
    return statistics.fmean(late) / statistics.fmean(early)


def layer_metrics(spans: list[list], llc_bytes: int | None) -> dict[str, float]:
    """Per-layer metrics of one traced run (see ``UNITS``)."""
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)
    split = layer_split(spans)

    def pick(names) -> list[list]:
        return [s for n in names for s in by_name.get(n, [])]

    def total(group: list[list]) -> float:
        return sum(s[3] - s[2] for s in group)

    steps = sorted(pick(STEPS), key=lambda s: s[2])
    step_ms = [1e3 * (s[3] - s[2]) for s in steps]
    hist = pick(["stepper.frac_deriv_current"])
    hist_info = [s[4] for s in hist if s[4] is not None]
    hist_s = total(hist)
    hist_gb = sum(k * dofs for k, dofs in hist_info) * BYTES_PER_VALUE / 1e9
    hist_bytes = max((k * dofs for k, dofs in hist_info), default=0) * BYTES_PER_VALUE
    solves = pick(["stepper.solve_spd"])
    iters = [s[4] for s in solves if s[4] is not None]
    curls, inners = pick(CURLS), pick(["stepper.inner_e"])
    samples = pick(SAMPLES)
    return {
        "weights.calls": len(pick(WEIGHTS)),
        "weights.s": total(pick(WEIGHTS)),
        "stepper.step.calls": len(steps),
        "stepper.step.self_s": split.get("stepper.step", 0.0),
        "stepper.step.ms_p50": _quantile(step_ms, 0.5),
        "stepper.step.ms_p90": _quantile(step_ms, 0.9),
        "stepper.step.late_over_early": _late_over_early(steps),
        "stepper.history.calls": len(hist),
        "stepper.history.s": hist_s,
        "stepper.history.gb_computed": hist_gb,
        "stepper.history.gbps_computed": hist_gb / hist_s if hist_s > 0 else 0.0,
        "stepper.history_bytes": hist_bytes,
        "stepper.history_over_llc": hist_bytes / llc_bytes if llc_bytes else 0.0,
        "stepper.solve.calls": len(solves),
        "stepper.solve.s": total(solves),
        "stepper.solve.self_s": split.get("stepper.solve", 0.0),
        "stepper.cg_iters.mean": statistics.fmean(iters) if iters else 0.0,
        "stepper.cg_iters.max": max(iters, default=0),
        "mesh.curl.calls": len(curls),
        "mesh.curl.s": total(curls),
        "mesh.inner.calls": len(inners),
        "mesh.inner.s": total(inners),
        "energy.calls": len(pick(ENERGY_CALLS)),
        "energy.self_s": split.get("energy", 0.0),
        "manufactured.sample.calls": len(samples),
        "manufactured.sample.s": total(samples),
        "manufactured.error_norms.s": total(pick(["manufactured.error_norms"])),
        "cli.self_s": split.get("cli", 0.0),
    }
