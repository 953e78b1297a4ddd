"""Tests for data collection, controller assembly, and closed-loop runs.

Everything here runs on a shrunk configuration (short history, short
horizon, small dataset, few stage steps) so the whole module stays fast;
the full-size defaults are exercised by the acceptance suite.
"""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import arm_step_reference

from softdeepc import controller as controller_module
from softdeepc import experiments
from softdeepc.config import ExperimentConfig
from softdeepc.excitation import ExcitationSpec, generate_excitation
from softdeepc.experiments import (
    build_controller,
    build_geometry,
    build_plant,
    circle_bending,
    circle_waypoints,
    collect_dataset,
    compare_controllers,
    run_circle,
    run_fixed_point,
)
from softdeepc.hankel import is_persistently_exciting, partition_past_future
from softdeepc.reduction import condense_lossless
from softdeepc.runlog import StageSpec, export_run


def small_cfg(**overrides):
    base = dict(
        t_ini=6,
        horizon=8,
        n_est=4,
        dataset_steps=400,
        reduction_rank=60,
        stages="15:0:25, 30:90:25",
        circle_waypoints=40,
        circle_laps=1,
        timing_enabled=False,
    )
    base.update(overrides)
    return dataclasses.replace(ExperimentConfig(), **base)


class TestCollect:
    def test_same_seed_reproduces_dataset(self):
        cfg = small_cfg()
        a = collect_dataset(cfg, seed=5)
        b = collect_dataset(cfg, seed=5)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.outputs, b.outputs)

    def test_seed_changes_dataset(self):
        cfg = small_cfg()
        a = collect_dataset(cfg, seed=5)
        b = collect_dataset(cfg, seed=6)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_composite_dither_is_persistently_exciting(self):
        cfg = small_cfg()
        dataset = collect_dataset(cfg, seed=0)
        exciting, _rank = is_persistently_exciting(dataset.inputs, cfg.pe_order())
        assert exciting

    def test_dither_stays_inside_actuation_range(self):
        cfg = small_cfg()
        dataset = collect_dataset(cfg, seed=2)
        assert dataset.inputs.min() >= cfg.u_lower
        assert dataset.inputs.max() <= cfg.u_upper

    def test_dither_hugs_each_stage_command(self):
        # within one section the excitation spans at most the dither width
        cfg = small_cfg()
        dataset = collect_dataset(cfg, seed=0)
        n_stages = len(cfg.stage_list())
        per = cfg.dataset_steps // n_stages
        for i in range(n_stages):
            stop = (i + 1) * per if i < n_stages - 1 else cfg.dataset_steps
            section = dataset.inputs[i * per : stop]
            spread = section.max(axis=0) - section.min(axis=0)
            assert np.all(spread <= 2.0 * cfg.dither_halfwidth + 1e-12)

    def test_task_selects_different_operating_points(self):
        cfg = small_cfg()
        fixed = collect_dataset(cfg, seed=0, task="fixed_point")
        circle = collect_dataset(cfg, seed=0, task="circle")
        assert not np.array_equal(fixed.inputs, circle.inputs)

    def test_dataset_too_short_for_sections(self):
        cfg = small_cfg(dataset_steps=1)  # two stage sections need >= 2
        with pytest.raises(ValueError, match="too short"):
            collect_dataset(cfg, seed=0)

    def test_short_data_fails_richness_check(self):
        # 64 samples give a depth-18 Hankel only 47 columns: rank cannot
        # reach the 54 rows the order demands
        cfg = small_cfg(dataset_steps=64)
        with pytest.raises(ValueError, match="lengthen dataset_steps"):
            collect_dataset(cfg, seed=0)


def collect_reference(cfg, seed, task):
    """Excitation section by section, then the plant one period at a time.

    The inputs come from one uniform_random ExcitationSpec per operating
    point, seeded as the collection describes, and the outputs from the
    numpy per-period reference plant.
    """
    hw = cfg.dither_halfwidth
    sections = []
    for i, (center, steps) in enumerate(experiments._stage_dither_centers(cfg, task)):
        spec = ExcitationSpec(
            kind="uniform_random",
            amp_lower=np.clip(center - hw, cfg.u_lower, None).tolist(),
            amp_upper=np.clip(center + hw, None, cfg.u_upper).tolist(),
            total_steps=steps, seed=seed + 7 * i,
        )
        sections.append(generate_excitation(spec, pe_order=None, channels=3))
    inputs = np.vstack(sections)
    plant = build_plant(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    lag = np.full(3, plant.geometry.segment_length)
    outputs = []
    for u in inputs:
        lag, _phi, _gamma, tip = arm_step_reference(
            lag, u, plant.dt, plant.geometry, plant.tau, plant.disturbances, rng)
        outputs.append(tip)
    return inputs, np.array(outputs)


class TestCollectReference:
    @pytest.mark.parametrize("task", ["fixed_point", "circle"],
                             ids=["stage_dither-fixed_point", "stage_dither-circle"])
    def test_dataset_matches_per_period_reference(self, task):
        cfg = small_cfg()
        dataset = collect_dataset(cfg, seed=3, task=task)
        inputs, outputs = collect_reference(cfg, 3, task)
        np.testing.assert_array_equal(dataset.inputs, inputs)
        np.testing.assert_allclose(dataset.outputs, outputs, rtol=0.0, atol=1e-12)


class TestBuildController:
    def test_input_box_clipped_to_data_envelope(self):
        cfg = small_cfg()
        dataset = collect_dataset(cfg, seed=0)
        controller = build_controller(cfg, dataset)
        expected_hi = np.minimum(dataset.inputs.max(axis=0), cfg.u_upper)
        np.testing.assert_allclose(controller.template.u_upper, expected_hi)
        np.testing.assert_allclose(controller.template.u_lower, np.full(3, cfg.u_lower))

    def test_explicit_rank_sets_generator_dimension(self):
        cfg = small_cfg(reduction_rank=50)
        dataset = collect_dataset(cfg, seed=0)
        controller = build_controller(cfg, dataset)
        assert controller.template.Uf.shape[1] == 50

    def test_oversized_rank_clamped_to_data(self):
        cfg = small_cfg(reduction_rank=10_000)
        dataset = collect_dataset(cfg, seed=0)
        controller = build_controller(cfg, dataset)
        depth = cfg.t_ini + cfg.horizon
        columns = dataset.length - depth + 1
        stack_rows = 2 * 3 * depth
        assert controller.template.Uf.shape[1] == min(stack_rows, columns)

    def test_default_condenses_without_loss_and_without_svd(self, monkeypatch):
        # the default holds for any window: here 84 rows, not the shipped 300
        cfg = small_cfg(reduction_rank=ExperimentConfig().reduction_rank)
        dataset = collect_dataset(cfg, seed=0)
        partition = partition_past_future(dataset, cfg.t_ini, cfg.horizon)
        shapes = []
        svd = np.linalg.svd

        def recorded_svd(matrix, *args, **kwargs):
            shapes.append(matrix.shape)
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        tpl = build_controller(cfg, dataset).template
        stack = np.vstack([tpl.Up, tpl.Uf, tpl.Yp, tpl.Yf])
        assert tpl.condensed and stack.shape == (6 * partition.depth, 6 * partition.depth)
        # the QR condenses and the Gram certificates prove the ranks: no SVD
        assert shapes == []
        np.testing.assert_array_equal(stack, condense_lossless(partition).matrix)

    def test_default_build_holds_one_stack(self):
        # the stack [Hu; Hy] (300 x 1451 doubles here, 3.48 MB) is written
        # once and condensed in place, so the build peaks at about 1.25
        # stacks above its start: the stack and the triangle the QR returns.
        # Separate Hankels, their stack and the QR's own copies peaked at
        # about 3.0 stacks.
        cfg = ExperimentConfig()
        dataset = collect_dataset(cfg, seed=0)
        depth = cfg.t_ini + cfg.horizon
        stack_bytes = 6 * depth * (dataset.length - depth + 1) * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            build_controller(cfg, dataset)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * stack_bytes

    @pytest.mark.parametrize("rank", [84, 10_000])
    def test_rank_from_the_row_count_up_is_lossless(self, rank):
        dataset = collect_dataset(small_cfg(), seed=0)
        lossless = build_controller(small_cfg(reduction_rank=-1), dataset).template
        tpl = build_controller(small_cfg(reduction_rank=rank), dataset).template
        for block in ("Up", "Uf", "Yp", "Yf"):
            np.testing.assert_array_equal(getattr(tpl, block), getattr(lossless, block))

    def test_no_reduction_keeps_raw_columns(self):
        cfg = small_cfg(use_reduction=False)
        dataset = collect_dataset(cfg, seed=0)
        controller = build_controller(cfg, dataset)
        depth = cfg.t_ini + cfg.horizon
        assert controller.template.Uf.shape[1] == dataset.length - depth + 1

    def test_energy_rule_keeps_input_rows_feasible(self):
        # rank 0 delegates to the energy rule plus the feasibility floor:
        # the condensed input block must keep full row rank so the history
        # equality has a solution for every reachable input sequence
        cfg = small_cfg(reduction_rank=0, reduction_energy=0.9)
        dataset = collect_dataset(cfg, seed=0)
        controller = build_controller(cfg, dataset)
        Up_Uf = np.vstack([controller.template.Up, controller.template.Uf])
        m_rows = 3 * (cfg.t_ini + cfg.horizon)
        assert np.linalg.matrix_rank(Up_Uf) == m_rows

    def test_energy_rule_factorizes_once_at_smallest_feasible_rank(self, monkeypatch):
        cfg = small_cfg(reduction_rank=0, reduction_energy=0.9)
        dataset = collect_dataset(cfg, seed=0)
        calls = []
        real = experiments.factorize_and_condense

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "factorize_and_condense", counted)
        controller = build_controller(cfg, dataset)
        assert len(calls) == 1
        # an independent factorization one rank lower loses the input rows
        partition = partition_past_future(dataset, cfg.t_ini, cfg.horizon)
        r = controller.template.n_g
        lower = real(partition, r=r - 1)
        m_rows = 3 * partition.depth
        assert np.linalg.matrix_rank(np.vstack([lower.Up, lower.Uf])) < m_rows
        np.testing.assert_allclose(controller.template.Uf, real(partition, r=r).Uf,
                                   rtol=0, atol=0)


class TestCircleGeometry:
    def test_zero_radius_is_straight(self):
        assert circle_bending(0.0, 100.0) == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            circle_bending(-1.0, 100.0)

    def test_bending_angle_inverts_radial_reach(self):
        L = 100.0
        for radius in (5.0, 25.0, 50.0, 70.0):
            phi = circle_bending(radius, L)
            assert L * (1.0 - math.cos(phi)) / phi == pytest.approx(radius, abs=1e-9)

    def test_unreachable_radius_rejected(self):
        # the radial reach of a 100 mm constant-curvature segment peaks
        # near 72.5 mm; beyond that no bending angle exists
        with pytest.raises(ValueError, match="unreachable"):
            circle_bending(80.0, 100.0)

    def test_waypoints_lie_on_the_circle(self):
        cfg = small_cfg()
        geometry = build_geometry(cfg)
        pts = circle_waypoints(25.0, 24, 1, geometry)
        assert pts.shape == (24, 3)
        np.testing.assert_allclose(np.hypot(pts[:, 0], pts[:, 1]), 25.0)
        # constant height consistent with the bending angle
        phi = circle_bending(25.0, geometry.segment_length)
        z = geometry.segment_length * math.sin(phi) / phi
        np.testing.assert_allclose(pts[:, 2], z)

    def test_laps_tile_the_lap(self):
        geometry = build_geometry(small_cfg())
        one = circle_waypoints(20.0, 10, 1, geometry)
        three = circle_waypoints(20.0, 10, 3, geometry)
        assert three.shape == (30, 3)
        np.testing.assert_array_equal(three, np.tile(one, (3, 1)))

    def test_waypoint_count_validated(self):
        geometry = build_geometry(small_cfg())
        with pytest.raises(ValueError, match="n_waypoints"):
            circle_waypoints(20.0, 0, 1, geometry)
        with pytest.raises(ValueError, match="laps"):
            circle_waypoints(20.0, 10, 0, geometry)


class TestImportFootprint:
    def test_package_import_leaves_out_scipy_optimize(self):
        # circle_bending bisects on its own; scipy.optimize would pull in
        # scipy's sparse, spatial and special modules on every import
        src = str(Path(experiments.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, softdeepc; "
                "print([m for m in sys.modules if m.startswith('scipy.optimize')])")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
        assert run.stdout.strip() == "[]"


class TestClosedLoopRuns:
    def test_fixed_point_log_structure(self):
        cfg = small_cfg()
        log = run_fixed_point(cfg, controller="baseline", seed=1)
        stage_steps = [s for _, _, s in cfg.stage_list()]
        assert len(log) == sum(stage_steps)
        assert log.warmup_steps == cfg.t_ini
        assert log.task == "fixed_point"
        assert [s["steps"] for s in log.stages] == stage_steps
        assert log.stages[1]["start"] == stage_steps[0]
        assert set(log.statuses) == {"open_loop"}

    def test_custom_stage_list(self):
        cfg = small_cfg()
        log = run_fixed_point(
            cfg, controller="baseline", seed=1, stages=[StageSpec(10.0, 0.0, 7)]
        )
        assert len(log) == 7
        assert log.stages[0]["phi_ref_deg"] == 10.0

    def test_circle_references_match_waypoints(self):
        cfg = small_cfg()
        log = run_circle(cfg, controller="baseline", seed=1)
        expected = circle_waypoints(
            cfg.circle_radius, cfg.circle_waypoints, cfg.circle_laps, build_geometry(cfg)
        )
        assert len(log) == cfg.circle_waypoints * cfg.circle_laps
        np.testing.assert_allclose(log.reference_array(), expected)

    def test_deepc_run_is_deterministic(self):
        cfg = small_cfg()
        dataset = collect_dataset(cfg, seed=0)
        a = run_fixed_point(cfg, controller="deepc", seed=3, dataset=dataset)
        b = run_fixed_point(cfg, controller="deepc", seed=3, dataset=dataset)
        np.testing.assert_array_equal(a.input_array(), b.input_array())
        np.testing.assert_array_equal(a.output_array(), b.output_array())
        assert a.statuses == b.statuses
        assert a.statuses and set(a.statuses) <= {"optimal", "fallback"}

    def test_applied_inputs_respect_data_envelope(self):
        cfg = small_cfg()
        dataset = collect_dataset(cfg, seed=0)
        log = run_fixed_point(cfg, controller="deepc", seed=3, dataset=dataset)
        u = log.input_array()
        hi = np.minimum(dataset.inputs.max(axis=0), cfg.u_upper)
        assert np.all(u >= cfg.u_lower - 1e-9)
        assert np.all(u <= hi + 1e-9)

    def test_unknown_controller_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown controller kind"):
            run_fixed_point(small_cfg(), controller="pid", seed=1)

    def test_export_does_not_read_solver_sweeps(self, tmp_path, monkeypatch):
        # the step result carries the solver's sweep count; the exported
        # bytes must not change with it
        cfg = small_cfg()
        dataset = collect_dataset(cfg, seed=0)
        real_step = controller_module.step
        sweeps = []

        def run(name):
            log = run_fixed_point(cfg, controller="deepc", seed=3, dataset=dataset)
            export_run(log, tmp_path / name)
            return [(tmp_path / name / f).read_bytes() for f in ("run.csv", "metrics.json")]

        def recording_step(*args, **kwargs):
            result = real_step(*args, **kwargs)
            sol = result.solution
            sweeps.append(sol.sweeps)
            return dataclasses.replace(
                result, solution=dataclasses.replace(sol, sweeps=sol.sweeps + 10**6))

        plain = run("plain")
        monkeypatch.setattr(controller_module, "step", recording_step)
        assert run("altered") == plain
        assert len(sweeps) == 50 and max(sweeps) > 0


class TestCompare:
    def test_side_by_side_structure(self):
        cfg = small_cfg()
        result = compare_controllers(cfg, task="fixed_point", seed=2)
        assert set(result) == {"logs", "metrics", "table"}
        assert set(result["metrics"]) == {"deepc", "baseline"}
        for kind in ("deepc", "baseline"):
            assert result["metrics"][kind]["steps"] == len(result["logs"][kind])
        table = result["table"]
        assert "rmse_mm" in table and "deepc" in table and "baseline" in table
        # one header, three scalar rows, one row per stage
        assert len(table.splitlines()) == 4 + len(cfg.stage_list())

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            compare_controllers(small_cfg(), task="spiral", seed=1)
