"""Closed-loop experiments on the simulated soft arm.

Ties the package together: collect excitation data on the plant, assemble a
data-driven controller (optionally condensed), run fixed-point or
circle-tracking tasks against either that controller or the geometric
baseline, and log everything for metric computation and export. The run loop
itself is controller-agnostic: a policy is just a callable producing the next
input and its diagnostics.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from .baseline import BaselineController, baseline_control
from .config import ExperimentConfig
from .controller import DeePCConfig, DeePCController, assemble
from .hankel import (
    HankelPartition,
    TrajectoryDataset,
    _Made,
    is_persistently_exciting,
    numerical_rank,
    partition_past_future,
    singular_value_rank,
    stacked_hankel,
)

# build_hankel is not called here, but stays importable under this name:
# the benchmark tracer wraps it.
from .hankel import build_hankel  # noqa: F401
from .kinematics import ArmGeometry, cc_forward, cc_inverse
from .plants import DisturbanceConfig, SoftArmPlant
from .reduction import condense_stack, factorize_and_condense, select_rank
from .runlog import RunLog, StageSpec, compute_metrics


def build_geometry(cfg: ExperimentConfig) -> ArmGeometry:
    return ArmGeometry(
        segment_length=cfg.segment_length,
        cable_offset=cfg.cable_offset,
        u_to_length_gain=cfg.u_to_length_gain,
    )


def build_plant(cfg: ExperimentConfig, seed: int, disturbed: bool = True) -> SoftArmPlant:
    disturbances = (
        DisturbanceConfig(
            gravity_sag=cfg.gravity_sag,
            stiffness_eps=cfg.stiffness_eps,
            noise_std=cfg.noise_std,
        )
        if disturbed
        else DisturbanceConfig.none()
    )
    return SoftArmPlant(
        geometry=build_geometry(cfg),
        tau=cfg.tau,
        dt=cfg.dt,
        disturbances=disturbances,
        seed=seed,
    )


def _stage_dither_centers(cfg: ExperimentConfig, task: str) -> list[tuple[np.ndarray, int]]:
    """Excitation centers (nominal command, dwell steps) for a task.

    The dither hovers around the geometric commands for the operating points
    the task will visit: the stage targets for fixed-point regulation, a
    sampling of the circle for trajectory tracking. Data collected this way
    is locally informative exactly where the closed loop will operate.
    """
    geometry = build_geometry(cfg)
    base = BaselineController(geometry, u_lower=cfg.u_lower, u_upper=cfg.u_upper)
    T = cfg.dataset_steps
    if task == "circle":
        n_sections = max(T // cfg.dither_hold, 1)
        waypoints = circle_waypoints(cfg.circle_radius, n_sections, 1, geometry)
        centers = [np.asarray(baseline_control(w, base).u, dtype=float) for w in waypoints]
    else:
        tips = [
            cc_forward(math.radians(phi), math.radians(gamma), geometry.segment_length)
            for phi, gamma, _steps in cfg.stage_list()
        ]
        centers = [np.asarray(baseline_control(t, base).u, dtype=float) for t in tips]
    per = T // len(centers)
    if per < 1:
        raise ValueError(
            f"dataset_steps {T} too short for {len(centers)} excitation sections"
        )
    steps = [per] * len(centers)
    steps[-1] += T - per * len(centers)
    return list(zip(centers, steps))


def collect_dataset(
    cfg: ExperimentConfig,
    seed: int = 0,
    disturbed: bool = True,
    task: str = "fixed_point",
) -> TrajectoryDataset:
    """Drive the plant open loop with a persistently exciting signal.

    One continuous run of uniform dither, within the actuation range, around
    each of the task's operating points in turn (_stage_dither_centers).
    Section i draws from its own generator, seeded seed + 7 i.
    """
    hw = cfg.dither_halfwidth
    inputs = []
    for i, (center, steps) in enumerate(_stage_dither_centers(cfg, task)):
        rng = np.random.default_rng(seed + 7 * i)
        inputs.append(rng.uniform(np.clip(center - hw, cfg.u_lower, None),
                                  np.clip(center + hw, None, cfg.u_upper),
                                  size=(steps, 3)))
    inputs = np.vstack(inputs)
    exciting, rank = is_persistently_exciting(inputs, cfg.pe_order())
    if not exciting:
        raise ValueError(
            f"dither excitation failed the order-{cfg.pe_order()} richness check "
            f"(rank {rank}); widen dither_halfwidth or lengthen dataset_steps"
        )
    plant = build_plant(cfg, seed=seed, disturbed=disturbed)
    return TrajectoryDataset(inputs=inputs, outputs=plant.run(inputs))


def _raise_rank_until_feasible(partition, energy_fraction):
    """Energy-rule condensation at the smallest rank that keeps the input rows full.

    The receding-horizon equality pins the condensed past-input rows to the
    live input history, and the future rows meet actuation boxes; both stay
    feasible for every possible history only if the condensed input block has
    full row rank. The energy rule alone can truncate below that, so the rank
    is raised to the smallest value restoring it (the rank choice is an
    empirical control-performance knob; an explicit override wins).

    The stack is factorized once: the rank-r condensation is the first r
    columns of the full one, and the stack's numerical rank comes from the
    same singular values.
    """
    shape = partition.matrix.shape
    full = factorize_and_condense(partition, r=min(shape))
    s = full.singular_values
    stack_rank = singular_value_rank(s, shape)
    m_rows = partition.input_dim * partition.depth
    target = min(m_rows, partition.columns)

    def condense(r):
        return dataclasses.replace(full, matrix=full.matrix[:, :r])

    def input_rank(r):
        return numerical_rank(full.matrix[:m_rows, :r])

    r = min(select_rank(s, energy_fraction), stack_rank)
    if input_rank(r) >= target:
        return condense(r)
    lo = max(r + 1, target)
    hi = stack_rank
    if hi < lo or input_rank(hi) < target:
        return condense(hi)  # data itself cannot span the inputs; keep the closest
    while lo < hi:
        mid = (lo + hi) // 2
        if input_rank(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return condense(hi)


def _data_matrix(cfg: ExperimentConfig, dataset: TrajectoryDataset) -> HankelPartition:
    """The controller's data: the raw partition, or a condensation of it.

    The stack [Hu; Hy] is written once, and only one wrapper holds it: the
    lossless condensation (the default) factors it in place, and the other
    paths take partition_past_future's stack as the matrix without a copy.
    The raw stack is freed on return unless it is the data itself.
    """
    depth = cfg.t_ini + cfg.horizon
    m, p = dataset.input_dim, dataset.output_dim
    # min(stack.shape): a rank from there on truncates nothing
    if cfg.use_reduction and not 0 <= cfg.reduction_rank < min(
            depth * (m + p), dataset.length - depth + 1):
        stack = _Made(stacked_hankel(dataset, depth))
        return condense_stack(stack, m, p, cfg.t_ini, cfg.horizon)
    partition = partition_past_future(dataset, cfg.t_ini, cfg.horizon)
    if not cfg.use_reduction:
        return partition
    if cfg.reduction_rank == 0:
        return _raise_rank_until_feasible(partition, cfg.reduction_energy)
    return factorize_and_condense(partition, r=cfg.reduction_rank)


def build_controller(cfg: ExperimentConfig, dataset: TrajectoryDataset) -> DeePCController:
    """Assemble the data-driven controller from a collected trajectory.

    Commanded inputs are boxed to the envelope the data actually visited:
    the model has no evidence beyond it, and extrapolated commands excite
    unmodeled gain errors.
    """
    # the data matrix is made in a call of its own, so no raw stack that
    # the data does not use is alive while assemble runs
    data = _data_matrix(cfg, dataset)
    u_hi = np.minimum(dataset.inputs.max(axis=0), cfg.u_upper)
    control_cfg = DeePCConfig(
        t_ini=cfg.t_ini,
        horizon=cfg.horizon,
        Q=cfg.q_weight,
        R=cfg.r_weight,
        lambda_g=cfg.lambda_g,
        lambda_y=cfg.lambda_y,
        u_lower=cfg.u_lower,
        u_upper=u_hi,
    )
    return DeePCController(assemble(control_cfg, data))


def _bisect(f, lo: float, hi: float) -> float:
    """A root of f in [lo, hi], where f changes sign, to adjacent floats.

    Returns the end of the last bracket with the smaller |f|.
    """
    f_lo, f_hi = f(lo), f(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


def circle_bending(radius: float, L: float) -> float:
    """Bending angle whose tip circle has the given radius.

    The radial reach rho(phi) = L (1 - cos phi)/phi grows from 0, peaks near
    phi = 2.03 rad, then shrinks; the smallest solution is returned. Radii
    beyond the peak reach are unreachable.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if radius == 0.0:
        return 0.0

    def rho(phi):
        return L * (1.0 - math.cos(phi)) / phi - radius

    # peak of rho: phi cos(phi) + ... monotone rise ends at the root of
    # phi*sin(phi) - (1 - cos(phi)); bracket the peak conservatively
    phi_peak = _bisect(
        lambda t: t * math.sin(t) - (1.0 - math.cos(t)), 1.0, math.pi - 1e-9
    )
    reach = L * (1.0 - math.cos(phi_peak)) / phi_peak
    if radius > reach:
        raise ValueError(
            f"circle radius {radius:.6g} mm exceeds the arm's radial reach "
            f"{reach:.6g} mm: unreachable"
        )
    return _bisect(rho, 1e-12, phi_peak)


def circle_waypoints(
    radius: float, n_waypoints: int, laps: int, geometry: ArmGeometry
) -> np.ndarray:
    """Tip waypoints tracing the circle, one per control step."""
    if n_waypoints < 1:
        raise ValueError("n_waypoints must be positive")
    if laps < 1:
        raise ValueError("laps must be positive")
    L = geometry.segment_length
    phi_c = circle_bending(radius, L)
    z_c = L if phi_c == 0.0 else L * math.sin(phi_c) / phi_c
    theta = 2.0 * math.pi * np.arange(n_waypoints) / n_waypoints
    lap = np.column_stack(
        [radius * np.cos(theta), radius * np.sin(theta), np.full(n_waypoints, z_c)]
    )
    return np.tile(lap, (laps, 1))


def _log_angles(tip, L: float) -> tuple[float, float]:
    inv = cc_inverse(tip, L)
    return math.degrees(inv.phi_b), math.degrees(inv.gamma_g)


def _run_loop(
    cfg: ExperimentConfig,
    plant: SoftArmPlant,
    refs: np.ndarray,
    policy,
    log: RunLog,
) -> RunLog:
    """Shared closed-loop driver: any policy(k) -> (u, status, objective)."""
    L = plant.geometry.segment_length
    timing = cfg.timing_enabled
    for k in range(len(refs)):
        t0 = time.perf_counter() if timing else 0.0
        u, status, objective = policy(k)
        solve_ms = (time.perf_counter() - t0) * 1e3 if timing else 0.0
        tip = plant.step(u)
        policy.observe(u, tip)
        phi_deg, gamma_deg = _log_angles(tip, L)
        log.append(
            time_s=k * cfg.dt,
            reference=refs[k],
            output=tip,
            applied_input=u,
            phi_b_deg=phi_deg,
            gamma_g_deg=gamma_deg,
            status=status,
            objective=objective,
            solve_time_ms=solve_ms,
        )
    return log


class _DeePCPolicy:
    """Receding-horizon policy over a precomputed reference sequence.

    A constant window repeats the current reference across the horizon (used
    for fixed-point stages); a sliding window previews upcoming waypoints and
    holds the last one at the end of the sequence.
    """

    def __init__(self, controller: DeePCController, refs: np.ndarray, horizon: int,
                 constant_window: bool = False):
        self.controller = controller
        self.refs = refs
        self.horizon = horizon
        self.constant_window = constant_window

    def window(self, k: int) -> np.ndarray:
        if self.constant_window:
            return np.tile(self.refs[k], (self.horizon, 1))
        idx = np.minimum(np.arange(k, k + self.horizon), len(self.refs) - 1)
        return self.refs[idx]

    def __call__(self, k: int):
        u0, result, fell_back = self.controller.compute(self.window(k))
        status = "fallback" if fell_back else result.solution.status
        return u0, status, result.objective

    def observe(self, u, tip):
        self.controller.observe(u, tip)


class _BaselinePolicy:
    """Open-loop geometric policy: invert the current reference point."""

    def __init__(self, controller: BaselineController, refs: np.ndarray):
        self.controller = controller
        self.refs = refs

    def __call__(self, k: int):
        cmd = baseline_control(self.refs[k], self.controller)
        return cmd.u, "open_loop", float("nan")

    def observe(self, u, tip):
        pass


def _prime_deepc(controller: DeePCController, plant: SoftArmPlant, t_ini: int, prime_u):
    """Fill the controller history by driving the plant with fixed inputs."""
    inputs = np.tile(np.asarray(prime_u, dtype=float).reshape(3), (t_ini, 1))
    controller.prime(inputs, plant.run(inputs))


def _make_policy(
    cfg: ExperimentConfig,
    kind: str,
    plant: SoftArmPlant,
    refs: np.ndarray,
    dataset: TrajectoryDataset | None,
    prime_u,
    constant_window: bool,
    task: str,
):
    if kind == "deepc":
        if dataset is None:
            dataset = collect_dataset(cfg, seed=0, task=task)
        controller = build_controller(cfg, dataset)
        _prime_deepc(controller, plant, cfg.t_ini, prime_u)
        return _DeePCPolicy(controller, refs, cfg.horizon, constant_window)
    if kind == "baseline":
        base = BaselineController(
            geometry=plant.geometry, u_lower=cfg.u_lower, u_upper=cfg.u_upper
        )
        # settle the plant through the same priming phase as the data-driven run
        plant.run(np.tile(np.asarray(prime_u, dtype=float).reshape(3), (cfg.t_ini, 1)))
        return _BaselinePolicy(base, refs)
    raise ValueError(f"unknown controller kind {kind!r}; use 'deepc' or 'baseline'")


def run_fixed_point(
    cfg: ExperimentConfig,
    controller: str = "deepc",
    seed: int = 1,
    dataset: TrajectoryDataset | None = None,
    stages: list[StageSpec] | None = None,
    disturbed: bool = True,
) -> RunLog:
    """Hold a sequence of bending/gyration targets, one stage at a time.

    Angle targets become tip references through the forward curvature map;
    the reference window is constant within a stage. The run starts from
    rest: the plant is driven with zero input for t_ini steps to fill the
    controller history before logging begins.
    """
    if stages is None:
        stages = [StageSpec(*triple) for triple in cfg.stage_list()]
    geometry = build_geometry(cfg)
    refs = []
    for stage in stages:
        tip = cc_forward(stage.phi, stage.gamma, geometry.segment_length)
        refs.append(np.tile(tip, (stage.steps, 1)))
    refs = np.vstack(refs)

    plant = build_plant(cfg, seed=seed, disturbed=disturbed)
    policy = _make_policy(cfg, controller, plant, refs, dataset,
                          prime_u=np.zeros(3), constant_window=True,
                          task="fixed_point")

    log = RunLog(
        controller=controller,
        task="fixed_point",
        seed=seed,
        config=cfg.snapshot(),
        warmup_steps=cfg.t_ini,
    )
    start = 0
    for stage in stages:
        log.mark_stage(start, stage.steps, stage.phi_deg, stage.gamma_deg)
        start += stage.steps
    return _run_loop(cfg, plant, refs, policy, log)


def run_circle(
    cfg: ExperimentConfig,
    controller: str = "deepc",
    seed: int = 1,
    dataset: TrajectoryDataset | None = None,
    radius: float | None = None,
    n_waypoints: int | None = None,
    laps: int | None = None,
    disturbed: bool = True,
) -> RunLog:
    """Trace a planar circle of tip waypoints at the circle's natural height.

    The z plane is derived from the curvature model: the bending angle that
    reaches the requested radius fixes the tip height. Unreachable radii fail
    before the run starts. The controller sees a sliding window of upcoming
    waypoints, holding the final waypoint at the end; priming drives toward
    the first waypoint with the geometric command.
    """
    radius = cfg.circle_radius if radius is None else radius
    n_waypoints = cfg.circle_waypoints if n_waypoints is None else n_waypoints
    laps = cfg.circle_laps if laps is None else laps
    geometry = build_geometry(cfg)
    refs = circle_waypoints(radius, n_waypoints, laps, geometry)

    plant = build_plant(cfg, seed=seed, disturbed=disturbed)
    base = BaselineController(geometry=geometry, u_lower=cfg.u_lower, u_upper=cfg.u_upper)
    prime_u = baseline_control(refs[0], base).u
    policy = _make_policy(cfg, controller, plant, refs, dataset,
                          prime_u=prime_u, constant_window=False,
                          task="circle")

    log = RunLog(
        controller=controller,
        task="circle",
        seed=seed,
        config=cfg.snapshot(),
        warmup_steps=cfg.t_ini,
    )
    return _run_loop(cfg, plant, refs, policy, log)


def compare_controllers(
    cfg: ExperimentConfig,
    task: str = "fixed_point",
    seed: int = 1,
    dataset: TrajectoryDataset | None = None,
    disturbed: bool = True,
) -> dict:
    """Run both controllers on the same task and seed; side-by-side metrics.

    Both runs see the same plant noise sequence (same seed, fresh plant), so
    differences come from the controllers alone.
    """
    if task == "fixed_point":
        runner = run_fixed_point
    elif task == "circle":
        runner = run_circle
    else:
        raise ValueError(f"unknown task {task!r}; use 'fixed_point' or 'circle'")
    if dataset is None:
        dataset = collect_dataset(cfg, seed=0, task=task)
    logs = {}
    metrics = {}
    for kind in ("deepc", "baseline"):
        logs[kind] = runner(cfg, controller=kind, seed=seed, dataset=dataset,
                            disturbed=disturbed)
        metrics[kind] = compute_metrics(logs[kind])
    return {"logs": logs, "metrics": metrics, "table": comparison_table(metrics)}


def comparison_table(metrics: dict) -> str:
    """Fixed-width side-by-side text table of the shared scalar metrics."""
    kinds = list(metrics)
    rows = [("metric", *kinds)]
    for key in ("rmse_mm", "max_error_mm", "mean_solve_time_ms"):
        rows.append((key, *(f"{metrics[k][key]:.4f}" for k in kinds)))
    n_stages = min(len(metrics[k]["stages"]) for k in kinds)
    for i in range(n_stages):
        label = "stage{}_steady_state_mm".format(i + 1)
        rows.append(
            (label, *(f"{metrics[k]['stages'][i]['steady_state_error_mm']:.4f}"
                      for k in kinds))
        )
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)
