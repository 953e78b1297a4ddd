"""Flat key = value configuration for the experiment harness.

One file drives everything: controller weights, arm geometry, plant
disturbances, the dither that collects the data, and task definitions. The
format is plain text, one ``key = value`` per line, with ``#`` comments. A
shipped ``default.cfg`` lists every key with its default so a run is
reproducible from the config file plus a seed alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Every tunable of the harness, flattened to unique scalar keys."""

    # controller
    t_ini: int = 20
    horizon: int = 30
    q_weight: float = 10.0
    r_weight: float = 0.002
    lambda_g: float = 300.0
    lambda_y: float = 1000.0
    u_lower: float = 0.0
    u_upper: float = 90.0
    use_reduction: bool = True
    reduction_energy: float = 0.999
    reduction_rank: int = -1  # -1 condenses without loss, 0 by the energy rule

    # arm geometry
    segment_length: float = 90.0
    cable_offset: float = 10.0
    u_to_length_gain: float = 0.25

    # plant dynamics and disturbances
    tau: float = 0.15
    dt: float = 0.05
    gravity_sag: float = 0.06
    stiffness_eps: float = 0.08
    noise_std: float = 0.3

    # excitation for data collection
    dataset_steps: int = 1500
    dither_halfwidth: float = 8.0
    dither_hold: int = 12
    n_est: int = 10

    # tasks
    stages: str = "20:0:200, 40:60:200, 60:120:200"
    circle_radius: float = 25.0
    circle_waypoints: int = 1200
    circle_laps: int = 2

    # runtime
    timing_enabled: bool = True

    def __post_init__(self):
        if self.t_ini < 1 or self.horizon < 1:
            raise ValueError("t_ini and horizon must be positive")
        if self.dt <= 0 or self.tau <= 0:
            raise ValueError("dt and tau must be positive")
        if not self.u_lower < self.u_upper:
            raise ValueError("u_lower must be below u_upper")
        if not 0.0 < self.reduction_energy <= 1.0:
            raise ValueError("reduction_energy must lie in (0, 1]")
        if self.reduction_rank < -1:
            raise ValueError("reduction_rank must be -1, 0 or a positive rank")
        if self.dataset_steps < 1:
            raise ValueError("dataset_steps must be positive")
        if self.dither_halfwidth <= 0:
            raise ValueError("dither_halfwidth must be positive")
        if self.dither_hold < 1:
            raise ValueError("dither_hold must be positive")
        if self.n_est < 0:
            raise ValueError("n_est must be >= 0: the excitation order is at "
                             "least t_ini + horizon")

    def pe_order(self) -> int:
        """Excitation order the collected data must satisfy."""
        return self.t_ini + self.horizon + self.n_est

    def stage_list(self) -> list[tuple[float, float, int]]:
        """Parse the stages string into (phi_deg, gamma_deg, steps) triplets."""
        return parse_stage_string(self.stages)

    def snapshot(self) -> dict:
        """All settings as plain JSON-serializable values."""
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and math.isinf(value):
                value = "inf" if value > 0 else "-inf"
            out[field.name] = value
        return out


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def parse_stage_string(text: str) -> list[tuple[float, float, int]]:
    """Parse ``phi:gamma:steps`` triplets separated by commas."""
    stages = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"stage {chunk!r} is not of the form phi_deg:gamma_deg:steps"
            )
        phi_deg, gamma_deg = float(parts[0]), float(parts[1])
        steps = int(parts[2])
        if steps < 1:
            raise ValueError(f"stage {chunk!r} has a non-positive duration")
        stages.append((phi_deg, gamma_deg, steps))
    if not stages:
        raise ValueError("stage list is empty")
    return stages


def _cast(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind in ("bool", bool):
        return _parse_bool(raw)
    if kind in ("int", int):
        return int(raw)
    if kind in ("float", float):
        return float(raw)  # accepts inf / -inf spellings
    return raw


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Apply ``key = value`` lines on top of ``base`` (or the defaults)."""
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            overrides[key] = _cast(key, raw.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    source = base if base is not None else ExperimentConfig()
    return dataclasses.replace(source, **overrides)


def load_config(path: str | Path | None = None) -> ExperimentConfig:
    """Load a config file, or return the defaults when ``path`` is None."""
    if path is None:
        return ExperimentConfig()
    text = Path(path).read_text()
    return parse_config_text(text)


def default_config_path() -> Path:
    """Location of the shipped default.cfg (every key at its default)."""
    return Path(resources.files("softdeepc").joinpath("default.cfg"))
