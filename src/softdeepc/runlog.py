"""Run logging, tracking metrics, and deterministic file export.

A closed-loop run produces one :class:`RunLog`: per-step references, applied
inputs, measured tips, derived arm angles, and solver diagnostics, plus the
config snapshot and seed that produced it. Exports are plain text written
with fixed float formatting so that re-running the same seed reproduces the
same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .hankel import TrajectoryDataset

RUN_CSV_HEADER = (
    "step,time_s,ref_x,ref_y,ref_z,y_x,y_y,y_z,u_1,u_2,u_3,"
    "phi_b_deg,gamma_g_deg,status,objective,solve_ms"
)


@dataclass(frozen=True)
class StageSpec:
    """One fixed-point stage: a bending/gyration target held for a duration."""

    phi_deg: float
    gamma_deg: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("stage duration must be at least 1 step")

    @property
    def phi(self) -> float:
        return math.radians(self.phi_deg)

    @property
    def gamma(self) -> float:
        return math.radians(self.gamma_deg)


@dataclass
class RunLog:
    """Accumulated record of one closed-loop run."""

    controller: str
    task: str
    seed: int
    config: dict = field(default_factory=dict)
    warmup_steps: int = 0
    stages: list = field(default_factory=list)  # dicts: start, steps, refs

    times: list = field(default_factory=list)
    references: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    phi_deg: list = field(default_factory=list)
    gamma_deg: list = field(default_factory=list)
    statuses: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    solve_ms: list = field(default_factory=list)

    def append(
        self,
        time_s: float,
        reference,
        output,
        applied_input,
        phi_b_deg: float,
        gamma_g_deg: float,
        status: str,
        objective: float,
        solve_time_ms: float,
    ) -> None:
        if self.times and time_s <= self.times[-1]:
            raise ValueError(
                f"timestamps must be strictly increasing: {time_s} after {self.times[-1]}"
            )
        self.times.append(float(time_s))
        self.references.append(np.asarray(reference, dtype=float).reshape(3).copy())
        self.outputs.append(np.asarray(output, dtype=float).reshape(3).copy())
        self.inputs.append(np.asarray(applied_input, dtype=float).reshape(3).copy())
        self.phi_deg.append(float(phi_b_deg))
        self.gamma_deg.append(float(gamma_g_deg))
        self.statuses.append(str(status))
        self.objectives.append(float(objective))
        self.solve_ms.append(float(solve_time_ms))

    def __len__(self) -> int:
        return len(self.times)

    def reference_array(self) -> np.ndarray:
        return np.asarray(self.references, dtype=float).reshape(len(self), 3)

    def output_array(self) -> np.ndarray:
        return np.asarray(self.outputs, dtype=float).reshape(len(self), 3)

    def input_array(self) -> np.ndarray:
        return np.asarray(self.inputs, dtype=float).reshape(len(self), 3)

    def mark_stage(self, start: int, steps: int, phi_deg: float, gamma_deg: float) -> None:
        self.stages.append(
            {
                "start": int(start),
                "steps": int(steps),
                "phi_ref_deg": float(phi_deg),
                "gamma_ref_deg": float(gamma_deg),
            }
        )


def _wrapped_angle_error_deg(measured_deg, target_deg):
    delta = np.asarray(measured_deg, dtype=float) - float(target_deg)
    return np.abs((delta + 180.0) % 360.0 - 180.0)


def compute_metrics(
    log: RunLog,
    reference: np.ndarray | None = None,
    band_deg: float = 2.0,
) -> dict:
    """Tracking metrics for a run.

    RMSE and max error are Euclidean tip errors in mm, computed after the
    warm-up window recorded on the log. Per-stage settling uses the bending
    angle against ``band_deg``: the bending angle carries the tip distance,
    while the gyration angle is ill-conditioned near straight configurations.
    """
    steps = len(log)
    if steps == 0:
        raise ValueError("cannot compute metrics for an empty log")
    refs = log.reference_array() if reference is None else np.asarray(reference, float)
    if refs.shape != (steps, 3):
        raise ValueError(
            f"reference shape {refs.shape} does not match log length {steps}"
        )
    outputs = log.output_array()
    err = np.linalg.norm(outputs - refs, axis=1)
    warmup = min(max(int(log.warmup_steps), 0), steps - 1)
    tail = err[warmup:]
    solve = np.asarray(log.solve_ms, dtype=float)[warmup:]

    metrics = {
        "steps": steps,
        "warmup_steps": warmup,
        "rmse_mm": float(np.sqrt(np.mean(tail**2))),
        "max_error_mm": float(np.max(tail)),
        "mean_solve_time_ms": float(np.mean(solve)),
        "stages": [],
    }

    phi_meas = np.asarray(log.phi_deg, dtype=float)
    gamma_meas = np.asarray(log.gamma_deg, dtype=float)
    for stage in log.stages:
        start, count = stage["start"], stage["steps"]
        if start < 0 or start + count > steps:
            raise ValueError(f"stage {stage} lies outside the log")
        sl = slice(start, start + count)
        quarter = max(1, count // 4)
        tail_sl = slice(start + count - quarter, start + count)
        phi_err = _wrapped_angle_error_deg(phi_meas[sl], stage["phi_ref_deg"])
        gamma_err = _wrapped_angle_error_deg(gamma_meas[sl], stage["gamma_ref_deg"])
        # settle on the bending angle: first step from which the error stays
        # inside the band for the remainder of the stage
        inside = phi_err <= band_deg
        settled = count  # sentinel: never settled
        for k in range(count - 1, -1, -1):
            if not inside[k]:
                break
            settled = k
        stage_err = err[sl]
        metrics["stages"].append(
            {
                "phi_ref_deg": stage["phi_ref_deg"],
                "gamma_ref_deg": stage["gamma_ref_deg"],
                "start": start,
                "steps": count,
                "steady_state_error_mm": float(np.mean(stage_err[-quarter:])),
                "settling_steps": int(settled),
                "phi_err_deg": float(np.mean(phi_err[tail_sl.start - start :])),
                "gamma_err_deg": float(np.mean(gamma_err[tail_sl.start - start :])),
                "band_deg": band_deg,
            }
        )
    return metrics


def _fmt(value: float, spec: str = ".12g") -> str:
    return format(float(value), spec)


def _run_csv_text(log: RunLog) -> str:
    lines = [RUN_CSV_HEADER]
    for k in range(len(log)):
        ref = log.references[k]
        out = log.outputs[k]
        u = log.inputs[k]
        lines.append(
            ",".join(
                [
                    str(k),
                    _fmt(log.times[k]),
                    _fmt(ref[0]),
                    _fmt(ref[1]),
                    _fmt(ref[2]),
                    _fmt(out[0]),
                    _fmt(out[1]),
                    _fmt(out[2]),
                    _fmt(u[0]),
                    _fmt(u[1]),
                    _fmt(u[2]),
                    _fmt(log.phi_deg[k]),
                    _fmt(log.gamma_deg[k]),
                    log.statuses[k],
                    _fmt(log.objectives[k]),
                    _fmt(log.solve_ms[k]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _trajectory_svg_text(log: RunLog) -> str:
    """Hand-rolled x-y projection: reference path and measured path."""
    refs = log.reference_array()
    outs = log.output_array()
    pts = np.vstack([refs[:, :2], outs[:, :2]])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    size, margin = 420.0, 30.0
    scale = (size - 2 * margin) / float(span.max())

    def project(xy):
        px = margin + (xy[0] - lo[0]) * scale
        py = size - margin - (xy[1] - lo[1]) * scale  # y up
        return f"{px:.2f},{py:.2f}"

    ref_path = " ".join(project(p) for p in refs[:, :2])
    out_path = " ".join(project(p) for p in outs[:, :2])
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">\n'
        f'<rect width="100%" height="100%" fill="white"/>\n'
        f'<polyline points="{ref_path}" fill="none" stroke="#888" '
        f'stroke-width="1.5" stroke-dasharray="5 4"/>\n'
        f'<polyline points="{out_path}" fill="none" stroke="#1565c0" '
        f'stroke-width="1.5"/>\n'
        f'<text x="{margin:.0f}" y="20" font-size="13" fill="#444">'
        f"x-y tip trajectory ({log.controller}, {log.task}); dashed = reference</text>\n"
        f"</svg>\n"
    )


def export_run(log: RunLog, out_dir: str | Path, write_svg: bool = False) -> dict:
    """Write run.csv, metrics.json, and optionally trajectory.svg.

    Returns the metrics dict. Re-exporting the same log produces byte
    identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.csv").write_text(_run_csv_text(log))
    metrics = compute_metrics(log)
    payload = {
        "controller": log.controller,
        "task": log.task,
        "seed": log.seed,
        "metrics": metrics,
        "config": log.config,
    }
    (out / "metrics.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if write_svg:
        (out / "trajectory.svg").write_text(_trajectory_svg_text(log))
    return metrics


def save_dataset(path: str | Path, dataset: TrajectoryDataset) -> None:
    """Write a collected trajectory as CSV with round-trip exact floats."""
    m = dataset.inputs.shape[1]
    p = dataset.outputs.shape[1]
    u_cols = [f"u_{i + 1}" for i in range(m)]
    y_cols = ["y_x", "y_y", "y_z"] if p == 3 else [f"y_{i + 1}" for i in range(p)]
    lines = ["step," + ",".join(u_cols + y_cols)]
    for k in range(dataset.length):
        row = [str(k)]
        row += [_fmt(v, ".17g") for v in dataset.inputs[k]]
        row += [_fmt(v, ".17g") for v in dataset.outputs[k]]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_dataset(path: str | Path) -> TrajectoryDataset:
    """Read a dataset CSV written by :func:`save_dataset`."""
    text = Path(path).read_text().rstrip().splitlines()
    if not text:
        raise ValueError(f"{path}: empty dataset file")
    header = text[0].split(",")
    if header[0] != "step":
        raise ValueError(f"{path}: expected a 'step' first column, got {header[0]!r}")
    m = sum(1 for name in header if name.startswith("u_"))
    p = len(header) - 1 - m
    if m < 1 or p < 1:
        raise ValueError(f"{path}: header {header} lacks input or output columns")
    if len(text) < 2:
        raise ValueError(f"{path}: no samples after the header line")
    rows = []
    for number, line in enumerate(text[1:], start=2):
        cells = line.split(",")
        try:
            if len(cells) != len(header):
                raise ValueError(f"inconsistent column count ({len(cells)} cells, "
                                 f"the header has {len(header)})")
            rows.append([float(v) for v in cells[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from None
    data = np.array(rows)
    try:
        return TrajectoryDataset(inputs=data[:, :m], outputs=data[:, m:])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
