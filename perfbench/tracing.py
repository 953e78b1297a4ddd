"""In-memory span tracer placed around the softdeepc layer boundaries.

Each boundary is a public callable, replaced at the name its caller looks
it up (a module global or a class attribute). The replacement records one
span per call and returns the call's own result untouched, so a traced run
does the same arithmetic as an untraced one. A span is
``[name, start_ns, end_ns, parent, step, counters]``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``step`` the control step it
belongs to (-1 outside the closed loop). Each ``DeePCController.compute``
call opens a new step; the plant step, observation, angle logging and log
append that follow it belong to the same step.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

# (module or class path inside softdeepc, attribute, span name)
BOUNDARIES = [
    ("experiments", "collect_dataset", "experiments.collect"),
    ("experiments", "build_controller", "experiments.build"),
    ("experiments", "build_hankel", "hankel.build"),
    ("experiments", "partition_past_future", "hankel.build"),
    ("experiments", "numerical_rank", "hankel.rank"),
    ("reduction", "numerical_rank", "hankel.rank"),
    ("experiments", "factorize_and_condense", "reduction.factorize"),
    ("experiments", "assemble", "controller.assemble"),
    ("qp.QpSolver", "__init__", "qp.init"),
    ("controller.DeePCController", "compute", "controller.compute"),
    ("controller", "step", "controller.step"),
    ("qp.QpSolver", "solve", "qp.solve"),
    ("plants.SoftArmPlant", "step", "plants.step"),
    ("controller.DeePCController", "observe", "controller.observe"),
    ("experiments", "cc_inverse", "kinematics.inverse"),
    ("runlog.RunLog", "append", "runlog.append"),
]

STEP_OPENER = "controller.compute"


def _counters(name: str, result) -> dict | None:
    """Counts read off a boundary's return value, where the layer reports any."""
    if name == "qp.solve":
        return {"iterations": int(result.iterations), "status": result.status,
                "kkt_residual": float(result.kkt_residual)}
    if name == "reduction.factorize":
        return {"rank_used": int(result.rank_used)}
    if name == "experiments.build":
        template = result.template
        return {"rank_used": int(template.n_g) if template.condensed else 0}
    return None


def _resolve(package, path: str):
    owner = package
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    """Records spans while installed; restores every wrapped name on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._steps = 0   # control steps opened so far
        self.step = -1    # step that new spans belong to

    def _enter(self, name: str) -> int:
        if name == STEP_OPENER:
            self.step = self._steps
            self._steps += 1
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.step, None])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _exit(self, index: int, counters: dict | None = None) -> None:
        self._open.pop()
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[5] = counters

    @contextlib.contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself, around a phase it drives.

        Spans after the region belong to no control step until the next
        ``compute``.
        """
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)
            self.step = -1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(index)
                raise
            self._exit(index, _counters(name, result))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, package):
        saved = []
        try:
            for path, attribute, name in BOUNDARIES:
                owner = _resolve(package, path)
                original = owner.__dict__[attribute] if isinstance(owner, type) \
                    else getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(name, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _duration_ns(span) -> int:
    return span[2] - span[1]


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part its direct children cover."""
    own = [_duration_ns(s) for s in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= _duration_ns(span)
    return own


def _ancestor(spans, index: int, name: str) -> int:
    """Index of the nearest enclosing span called ``name``, or -1."""
    parent = spans[index][3]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent


def _per_region(spans, region: str, name: str, value) -> list:
    """Sum ``value(span)`` over the ``name`` spans inside each ``region`` span."""
    totals = {i: 0 for i, s in enumerate(spans) if s[0] == region}
    for i, span in enumerate(spans):
        if span[0] == name:
            owner = _ancestor(spans, i, region)
            if owner >= 0:
                totals[owner] += value(span)
    return list(totals.values())


def self_time_table(spans) -> list[dict]:
    """Per span name: calls, total time and self time, largest self time first."""
    own = self_times_ns(spans)
    rows: dict[str, dict] = {}
    for i, span in enumerate(spans):
        row = rows.setdefault(span[0], {"layer": span[0], "calls": 0,
                                        "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += _duration_ns(span) / 1e6
        row["self_ms"] += own[i] / 1e6
    return sorted(rows.values(), key=lambda r: -r["self_ms"])


def layer_metrics(spans, tail_pct: float) -> dict:
    """The per-layer metrics, each as ``{"value": ..., "unit": ...}``.

    Build metrics are medians over the traced ``bench.setup`` regions (one
    build each); loop metrics pool every control step of the traced
    ``bench.episode`` regions.
    """
    own = self_times_ns(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def durations(name, in_loop=False):
        return np.array([_duration_ns(spans[i]) for i in by_name.get(name, [])
                         if not in_loop or spans[i][4] >= 0], dtype=float)

    def per_setup(name, value=_duration_ns):
        return float(np.median(_per_region(spans, "bench.setup", name, value)))

    solves = [spans[i] for i in by_name.get("qp.solve", []) if spans[i][4] >= 0]
    solve_ms = np.array([_duration_ns(s) for s in solves], dtype=float) / 1e6
    iterations = np.array([s[5]["iterations"] for s in solves], dtype=float)
    optimal = sum(s[5]["status"] == "optimal" for s in solves)
    compute_ns = durations("controller.compute", in_loop=True).sum()
    step_self = np.array([own[i] for i in by_name.get("controller.step", [])
                          if spans[i][4] >= 0], dtype=float)
    episode_self = sum(own[i] for i in by_name.get("bench.episode", []))
    loop_steps = len(step_self)
    builds = [spans[i] for i in by_name.get("experiments.build", [])
              if _ancestor(spans, i, "bench.setup") >= 0]
    collect_steps = _per_region(spans, "experiments.collect", "plants.step", lambda s: 1)

    def metric(value, unit):
        return {"value": float(value), "unit": unit}

    return {
        "qp.solve_ms_p50": metric(np.median(solve_ms), "ms"),
        "qp.solve_ms_tail": metric(np.percentile(solve_ms, tail_pct), "ms"),
        "qp.solve_share": metric(solve_ms.sum() * 1e6 / compute_ns, "ratio"),
        "qp.iterations_mean": metric(iterations.mean(), "count"),
        "qp.iterations_max": metric(iterations.max(), "count"),
        "qp.optimal_share": metric(optimal / len(solves), "ratio"),
        "qp.kkt_residual_max": metric(max(s[5]["kkt_residual"] for s in solves), "ratio"),
        "qp.init_s": metric(per_setup("qp.init") / 1e9, "s"),
        "controller.assemble_s": metric(per_setup("controller.assemble") / 1e9, "s"),
        "controller.step_self_ms": metric(np.median(step_self) / 1e6, "ms"),
        "controller.observe_us": metric(
            np.median(durations("controller.observe", in_loop=True)) / 1e3, "us"),
        "reduction.s": metric(per_setup("reduction.factorize") / 1e9, "s"),
        "reduction.svd_calls": metric(per_setup("reduction.factorize", lambda s: 1), "count"),
        "reduction.rank_used": metric(np.median([b[5]["rank_used"] for b in builds]), "count"),
        "hankel.build_s": metric(per_setup("hankel.build") / 1e9, "s"),
        "hankel.rank_calls": metric(per_setup("hankel.rank", lambda s: 1), "count"),
        "hankel.rank_s": metric(per_setup("hankel.rank") / 1e9, "s"),
        "experiments.collect_s": metric(np.median(durations("experiments.collect")) / 1e9, "s"),
        "plants.collect_steps": metric(np.median(collect_steps), "count"),
        "plants.step_us": metric(np.median(durations("plants.step", in_loop=True)) / 1e3, "us"),
        "kinematics.inverse_us": metric(
            np.median(durations("kinematics.inverse", in_loop=True)) / 1e3, "us"),
        "runlog.append_us": metric(
            np.median(durations("runlog.append", in_loop=True)) / 1e3, "us"),
        "experiments.loop_self_ms": metric(episode_self / loop_steps / 1e6, "ms"),
    }
