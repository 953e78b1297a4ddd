"""The benchmark's workloads: which config each runs, and how its output is checked.

Every workload is a closed loop: one controller waits for each
``compute`` before the plant steps, with no concurrency. A run's inputs are
a dataset collected from its dataset seed and its plant-noise seed. One
episode is a call of ``run_fixed_point`` or ``run_circle`` that builds the
controller from that dataset and draws plant noise from that seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
import traceback
from dataclasses import dataclass

import numpy as np

from softdeepc import experiments
from softdeepc.config import ExperimentConfig
from softdeepc.runlog import RunLog, StageSpec, compute_metrics

# Criterion 5: final-quarter mean errors per fixed-point stage (degrees).
STAGE_BEND_DEG = 2.0
STAGE_DIRECTION_DEG = 5.0
# Criterion 6: DeePC circle RMSE over the geometric baseline's, same seed.
CIRCLE_RATIO = 0.5

TAIL_REPEATS = 3  # episodes a run always makes; the tail takes each step's best of them

# Shrunken inputs for the smoke test: a short dataset and a few steps per
# episode, enough to run every code path of every workload.
SMOKE = {"dataset_steps": 400, "stages": "20:0:15, 40:60:15",
         "circle_waypoints": 30, "circle_laps": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    task: str                       # "fixed_point" or "circle"
    overrides: dict = dataclasses.field(default_factory=dict)
    stage_check: bool = False       # criterion-5 stage bounds
    baseline_check: bool = False    # criterion-6 ratio to the geometric baseline

    def config(self, smoke: bool = False) -> ExperimentConfig:
        cfg = dataclasses.replace(ExperimentConfig(), **self.overrides)
        return dataclasses.replace(cfg, **SMOKE) if smoke else cfg


WORKLOADS = {
    w.name: w
    for w in [
        # Shipped rank-220 config: the active set barely moves inside a
        # stage, and the stage switches make the latency tail.
        Workload(name="fixed_point", task="fixed_point", stage_check=True),
        # No condensation: dense n=1451 ADMM dominates the step and the
        # QpSolver factorization the set-up. 70 steps with one stage switch,
        # because at about 0.17 s a step the 600-step episode takes 100 s;
        # at about 12 s an episode, a run makes four.
        Workload(name="raw_hankel", task="fixed_point",
                 overrides={"use_reduction": False, "stages": "20:0:35, 40:60:35"}),
        # Rank from the energy rule: the only workload whose set-up runs the
        # rank search. Its RMSE swings with the dataset, so it does not hold
        # a bound across seeds.
        Workload(name="energy_rule", task="fixed_point",
                 overrides={"reduction_rank": 0}),
        # Two-lap circle: the active set shifts every step, and plant,
        # kinematics and logging weigh most. It fails criterion 6 on some
        # datasets.
        Workload(name="circle", task="circle", baseline_check=True),
    ]
}


# The workloads BENCHMARK.json lists, and the ones `--workload all` runs.
GATED = ("fixed_point", "raw_hankel")


def planned_steps(cfg: ExperimentConfig, task: str) -> int:
    """Control steps one episode attempts."""
    if task == "circle":
        return cfg.circle_waypoints * cfg.circle_laps
    return sum(steps for _phi, _gamma, steps in cfg.stage_list())


def set_up(cfg: ExperimentConfig, task: str, dataset_seed: int):
    """The timed set-up: collect the dataset and build the controller from it."""
    dataset = experiments.collect_dataset(cfg, seed=dataset_seed, task=task)
    experiments.build_controller(cfg, dataset)
    return dataset


def run_episode(cfg: ExperimentConfig, task: str, plant_seed: int, dataset,
                controller: str = "deepc") -> RunLog:
    runner = experiments.run_circle if task == "circle" else experiments.run_fixed_point
    return runner(cfg, controller=controller, seed=plant_seed, dataset=dataset)


def warm_up(cfg: ExperimentConfig, plant_seed: int, dataset) -> None:
    """A few closed-loop steps, so lazy imports and first-call costs are paid."""
    experiments.run_fixed_point(cfg, seed=plant_seed, dataset=dataset,
                                stages=[StageSpec(20.0, 0.0, 5)])


def step_failures(cfg: ExperimentConfig, log: RunLog) -> np.ndarray:
    """Per step: the solve fell back, or an input or output is non-finite or
    an input leaves the actuation box (criterion 4)."""
    u = log.input_array()
    y = log.output_array()
    return (
        (np.asarray(log.statuses) != "optimal")
        | ~np.isfinite(u).all(axis=1)
        | ~np.isfinite(y).all(axis=1)
        | (u < cfg.u_lower).any(axis=1)
        | (u > cfg.u_upper).any(axis=1)
    )


def episode_failures(workload: Workload, log: RunLog,
                     baseline_rmse: float | None) -> list[str]:
    """Reasons the whole episode fails its workload's task criterion."""
    metrics = compute_metrics(log)
    reasons = []
    if workload.stage_check:
        for i, stage in enumerate(metrics["stages"], start=1):
            if not (stage["phi_err_deg"] <= STAGE_BEND_DEG
                    and stage["gamma_err_deg"] <= STAGE_DIRECTION_DEG):
                reasons.append(
                    f"stage {i} errors (bend {stage['phi_err_deg']:.3f}, direction "
                    f"{stage['gamma_err_deg']:.3f}) deg exceed "
                    f"({STAGE_BEND_DEG}, {STAGE_DIRECTION_DEG})")
    if workload.baseline_check and not metrics["rmse_mm"] <= CIRCLE_RATIO * baseline_rmse:
        reasons.append(
            f"circle RMSE {metrics['rmse_mm']:.4f} mm exceeds {CIRCLE_RATIO} x "
            f"baseline {baseline_rmse:.4f} mm")
    return reasons


@contextlib.contextmanager
def timed_builds(times: list):
    """Time each build_controller call, so an episode splits into build and loop."""
    original = experiments.build_controller

    def build_controller(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - t0)

    experiments.build_controller = build_controller
    try:
        yield
    finally:
        experiments.build_controller = original


class Episodes:
    """The closed-loop episodes of one run: latencies, loop time, failures, RMSE.

    Every episode of a run plays the same inputs and must give exactly the
    outputs of the first. The median latency and the rate pool every step
    of every episode. The tail takes each step's best latency over the
    first TAIL_REPEATS episodes: the step does the same work each time, so
    that drops the stalls the host adds at random and keeps the steps that
    are slow because of what they compute.
    """

    def __init__(self, workload, cfg):
        self.workload = workload
        self.cfg = cfg
        self.planned = planned_steps(cfg, workload.task)
        self.latencies_ms = []   # one array per completed episode
        self.loop_s = 0.0        # loop wall time of the completed episodes
        self.steps = 0
        self.episodes = 0
        self.attempted = 0
        self.failed = 0
        self.misses = 0
        self.outputs = None      # outputs of the first completed episode
        self.rmse = None
        self.problems = []

    def prepare(self, dataset_seed: int, plant_seed: int):
        """The run's inputs: its plant seed, its dataset, and the baseline RMSE
        where a check needs it."""
        dataset = experiments.collect_dataset(self.cfg, seed=dataset_seed,
                                              task=self.workload.task)
        baseline_rmse = None
        if self.workload.baseline_check:
            baseline_rmse = compute_metrics(run_episode(
                self.cfg, self.workload.task, plant_seed, dataset,
                controller="baseline"))["rmse_mm"]
        return plant_seed, dataset, baseline_rmse

    def run(self, plant_seed: int, dataset, baseline_rmse) -> None:
        """Run and check one episode."""
        self.episodes += 1
        builds = []
        t0 = time.perf_counter()
        try:
            with timed_builds(builds):
                log = run_episode(self.cfg, self.workload.task, plant_seed, dataset)
        except Exception:  # counted, not fatal: every step of the episode failed
            self.problems.append("episode raised: " + traceback.format_exc(limit=3))
            self.attempted += self.planned
            self.failed += self.planned
            self.misses += self.planned
            return
        loop_s = time.perf_counter() - t0 - sum(builds)

        latency = np.asarray(log.solve_ms, dtype=float)
        failed = step_failures(self.cfg, log)
        if failed.any():
            self.problems.append(f"{int(failed.sum())} steps fell back, left the "
                                 "actuation box or were not finite")
        reasons = episode_failures(self.workload, log, baseline_rmse)
        outputs = log.output_array()
        if self.outputs is None:
            self.outputs = outputs
            self.rmse = compute_metrics(log)["rmse_mm"]
        elif not np.array_equal(self.outputs, outputs):
            reasons.append(f"episode {self.episodes} gave other outputs than the first")
        if reasons:
            self.problems.extend(reasons)
            failed[:] = True
        missing = self.planned - len(log)
        self.latencies_ms.append(latency)
        self.loop_s += loop_s
        self.steps += len(log)
        self.attempted += self.planned
        self.failed += int(failed.sum()) + missing
        self.misses += int(((latency > self.cfg.dt * 1e3) | failed).sum()) + missing

    def summary(self, tail_pct: float) -> dict:
        """The run's timings, its RMSE and its failure rates."""
        if not self.latencies_ms:
            raise RuntimeError("no episode completed:\n" + "\n".join(self.problems))
        complete = [x for x in self.latencies_ms if len(x) == self.planned]
        best = np.min(complete[:TAIL_REPEATS], axis=0) if complete else self.latencies_ms[0]
        return {
            "steps_per_s": self.steps / self.loop_s,
            "step_ms_p50": float(np.median(np.concatenate(self.latencies_ms))),
            "step_ms_tail": float(np.percentile(best, tail_pct)),
            "rmse_mm": self.rmse,
            "deadline_miss_frac": self.misses / self.attempted,
            "fallback_frac": self.failed / self.attempted,
        }
