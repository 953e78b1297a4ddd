"""Acceptance suite: eight end-to-end checks, one printed verdict line each.

The first three criteria exercise the data-driven control core on LTI
plants against independent oracles (explicit simulation, a model-based MPC
solved by scipy, dense SVD). The remaining five run the soft-arm harness
end to end: actuation-range satisfaction, fixed-point regulation on the
disturbed simulator, circle-tracking superiority over the geometric
baseline, kinematics round-trips, and bit-exact determinism of repeated
runs. Every test prints a single ``criterion N (...): PASS/FAIL`` summary
line with the measured numbers, then asserts.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from oracles import collect_lti_dataset, model_mpc, random_minimal_lti, rollout

from softdeepc.config import ExperimentConfig
from softdeepc.controller import DeePCConfig, assemble, step
from softdeepc.excitation import ExcitationSpec, generate_excitation
from softdeepc.hankel import (
    TrajectoryDataset,
    is_persistently_exciting,
    numerical_rank,
    partition_past_future,
    representability_residual,
)
from softdeepc.kinematics import ArmGeometry, cable_lengths, cc_forward, cc_inverse
from softdeepc.plants import LtiPlant
from softdeepc.reduction import factorize_and_condense
from softdeepc.experiments import run_circle, run_fixed_point
from softdeepc.runlog import compute_metrics, export_run


def _report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------
# Shared soft-arm runs. Module-scoped so the constraint criterion can audit
# the applied inputs of every closed-loop run the suite performs.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def regulation_run():
    """Disturbed fixed-point run at the shipped defaults, with wall time."""
    cfg = ExperimentConfig()
    t0 = time.perf_counter()
    log = run_fixed_point(cfg, controller="deepc", seed=1)
    wall = time.perf_counter() - t0
    return cfg, log, wall


@pytest.fixture(scope="module")
def circle_runs():
    """Two-lap circle runs: DeePC and baseline disturbed, baseline nominal."""
    cfg = ExperimentConfig()
    return {
        "deepc": run_circle(cfg, controller="deepc", seed=1),
        "baseline": run_circle(cfg, controller="baseline", seed=1),
        "baseline_nominal": run_circle(cfg, controller="baseline", seed=1,
                                       disturbed=False),
    }


@pytest.fixture(scope="module")
def replica_exports(tmp_path_factory):
    """The regulation run repeated twice with per-step timing disabled.

    Timing is the one wall-clock quantity in the log; disabling it makes
    the exported CSV a pure function of config and seed.
    """
    cfg = dataclasses.replace(ExperimentConfig(), timing_enabled=False)
    logs = []
    dirs = []
    for replica in range(2):
        log = run_fixed_point(cfg, controller="deepc", seed=1)
        out = tmp_path_factory.mktemp(f"replica{replica}")
        export_run(log, out)
        logs.append(log)
        dirs.append(out)
    return logs, dirs


# ---------------------------------------------------------------------------
# Criterion 1: any trajectory of the data-generating plant is representable
# by the Hankel columns; trajectories of a different plant are not.
# ---------------------------------------------------------------------------


def test_representability_separates_true_and_mismatched_plants(capsys):
    t0 = time.perf_counter()
    depth = 10
    valid_max = 0.0
    mismatch_min = np.inf
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        A, B, C, D = random_minimal_lti(rng, n, m, p)
        order = n + depth
        spec = ExcitationSpec(kind="ramp_and_hold", amp_lower=-1.0,
                              amp_upper=1.0, ramp_steps=3, hold_steps=4,
                              total_steps=200, seed=int(rng.integers(0, 2**31)))
        u_d = generate_excitation(spec, pe_order=order, channels=m)
        exciting, _ = is_persistently_exciting(u_d, order)
        assert exciting
        y_d, _ = rollout(A, B, C, D, u_d)
        data = TrajectoryDataset(u_d, y_d)
        # five fresh trajectories of the same plant, five from a different
        # plant of the same dimensions; normalized so residuals compare
        # across plants on one scale
        for _ in range(5):
            x0 = rng.standard_normal(n)
            u_t = rng.uniform(-1, 1, size=(depth, m))
            y_t, _ = rollout(A, B, C, D, u_t, x0=x0)
            scale = np.linalg.norm(np.concatenate([u_t.ravel(), y_t.ravel()]))
            res = representability_residual(data, u_t / scale, y_t / scale)
            valid_max = max(valid_max, res)
        for _ in range(5):
            A2, B2, C2, D2 = random_minimal_lti(rng, n, m, p)
            x0 = rng.standard_normal(n)
            u_t = rng.uniform(-1, 1, size=(depth, m))
            y_t, _ = rollout(A2, B2, C2, D2, u_t, x0=x0)
            scale = np.linalg.norm(np.concatenate([u_t.ravel(), y_t.ravel()]))
            res = representability_residual(data, u_t / scale, y_t / scale)
            mismatch_min = min(mismatch_min, res)
    wall = time.perf_counter() - t0
    ok = valid_max <= 1e-8 and mismatch_min > 1e-3 and wall <= 30.0
    _report(capsys,
            f"criterion 1 (trajectory representability): {_verdict(ok)}  "
            f"valid max {valid_max:.2e} <= 1e-8, "
            f"mismatch min {mismatch_min:.2e} > 1e-3, {wall:.1f}s <= 30s")
    assert valid_max <= 1e-8
    assert mismatch_min > 1e-3
    assert wall <= 30.0


# ---------------------------------------------------------------------------
# Criterion 2: with noiseless data, no regularization, and hard history
# consistency, the first data-driven input equals a model-based MPC's.
# ---------------------------------------------------------------------------


def test_first_input_matches_model_based_mpc(capsys):
    rng = np.random.default_rng(42)
    A, B, C, D = random_minimal_lti(rng, 3, 2, 2)
    u_d, y_d = collect_lti_dataset(A, B, C, D, rng, 260)
    t_ini, horizon = 4, 10
    part = partition_past_future(TrajectoryDataset(u_d, y_d), t_ini, horizon)
    cfg = DeePCConfig(t_ini=t_ini, horizon=horizon, Q=1.0, R=0.05,
                      lambda_g=0.0, lambda_y=np.inf,
                      u_lower=-1.0, u_upper=1.0)
    template = assemble(cfg, part)
    worst = 0.0
    for _ in range(50):
        x0 = rng.standard_normal(3)
        u_h = rng.uniform(-1, 1, size=(t_ini, 2))
        y_h, x_now = rollout(A, B, C, D, u_h, x0=x0)
        history = template.make_history()
        for u, y in zip(u_h, y_h):
            history.push(u, y)
        refs = 0.5 * rng.standard_normal((horizon, 2))
        result = step(template, history, refs)
        assert result.solution.status == "optimal"
        u_mpc = model_mpc(A, B, C, D, x_now, np.eye(2), 0.05 * np.eye(2),
                          refs, -1.0, 1.0)
        worst = max(worst, float(np.max(np.abs(result.optimal_inputs[0] - u_mpc[0]))))
    ok = worst <= 1e-6
    _report(capsys,
            f"criterion 2 (model-based MPC equivalence): {_verdict(ok)}  "
            f"worst first-input difference {worst:.2e} <= 1e-6 over 50 cases")
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# Criterion 3: condensing the Hankel pair through its SVD is exact at the
# numerical rank, and the 99.9%-energy rank keeps closed-loop tracking
# while cutting per-step solve time.
# ---------------------------------------------------------------------------


def _rotation_block(radius: float, angle: float) -> np.ndarray:
    return radius * np.array([[math.cos(angle), -math.sin(angle)],
                              [math.sin(angle), math.cos(angle)]])


def test_svd_condensation_exact_then_fast_at_energy_rank(capsys):
    # A plant whose every mode keeps contributing: two lightly damped
    # rotation blocks with orthonormal input and output maps. All four
    # state directions then carry comparable singular-value energy, so the
    # energy rule keeps the full signal subspace and truncates only the
    # measurement-noise floor.
    t_ini, horizon = 10, 20
    depth = t_ini + horizon
    A = np.zeros((4, 4))
    A[:2, :2] = _rotation_block(0.9, 0.5)
    A[2:, 2:] = _rotation_block(0.9, 1.4)
    rng = np.random.default_rng(12)
    B = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    C = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
    D = np.zeros((2, 2))
    LtiPlant(A, B, C, D)  # asserts controllability and observability

    data_rng = np.random.default_rng(105)
    u_d = data_rng.standard_normal((1030, 2))
    y_clean, _ = rollout(A, B, C, D, u_d)
    noise_std = 0.04
    y_noisy = y_clean + noise_std * np.random.default_rng(7).standard_normal(y_clean.shape)

    cfg = DeePCConfig(t_ini=t_ini, horizon=horizon, Q=1.0, R=1e-3,
                      lambda_g=80.0, lambda_y=100.0,
                      u_lower=-5.0, u_upper=5.0)

    # part A: noiseless data, condensed at the numerical rank, first
    # inputs must match the uncondensed problem
    part_clean = partition_past_future(TrajectoryDataset(u_d, y_clean), t_ini, horizon)
    assert part_clean.columns >= 1000
    rank_exact = numerical_rank(part_clean.matrix)
    template_full_clean = assemble(cfg, part_clean)
    template_exact = assemble(cfg, factorize_and_condense(part_clean, r=rank_exact))
    case_rng = np.random.default_rng(17)
    worst_exact = 0.0
    for _ in range(10):
        x0 = case_rng.standard_normal(4)
        u_h = case_rng.uniform(-1, 1, size=(t_ini, 2))
        y_h, _ = rollout(A, B, C, D, u_h, x0=x0)
        refs = 0.8 * case_rng.standard_normal((horizon, 2))
        firsts = []
        for template in (template_full_clean, template_exact):
            history = template.make_history()
            for u, y in zip(u_h, y_h):
                history.push(u, y)
            result = step(template, history, refs)
            assert result.solution.status == "optimal"
            firsts.append(result.optimal_inputs[0])
        worst_exact = max(worst_exact, float(np.max(np.abs(firsts[0] - firsts[1]))))

    # part B: noisy data, rank picked by the 99.9% energy rule, closed-loop
    # circle tracking and per-step solve times for full vs condensed
    part = partition_past_future(TrajectoryDataset(u_d, y_noisy), t_ini, horizon)
    condensed = factorize_and_condense(part, energy_fraction=0.999)
    template_full = assemble(cfg, part)
    template_small = assemble(cfg, condensed)

    steps = 50
    theta = 2.0 * np.pi * np.arange(steps + horizon) / steps
    ref_seq = np.column_stack([np.cos(theta), np.sin(theta)])

    def closed_loop(template):
        noise_rng = np.random.default_rng(9)
        plant = LtiPlant(A, B, C, D)
        history = template.make_history()
        for _ in range(t_ini):
            y = plant.step(np.zeros(2)) + noise_std * noise_rng.standard_normal(2)
            history.push(np.zeros(2), y)
        errs = []
        solve_times = []
        for k in range(steps):
            t1 = time.perf_counter()
            result = step(template, history, ref_seq[k:k + horizon])
            solve_times.append(time.perf_counter() - t1)
            u0 = np.clip(result.optimal_inputs[0], -5.0, 5.0)
            y = plant.step(u0) + noise_std * noise_rng.standard_normal(2)
            history.push(u0, y)
            errs.append(np.linalg.norm(y - ref_seq[k]))
        errs = np.asarray(errs)
        return float(np.sqrt(np.mean(errs**2))), float(np.mean(solve_times))

    rmse_full, time_full = closed_loop(template_full)
    rmse_small, time_small = closed_loop(template_small)
    ratio = rmse_small / rmse_full
    speedup = time_full / time_small

    ok = (worst_exact <= 1e-6 and ratio <= 1.1 and speedup >= 3.0
          and part.columns >= 1000)
    _report(capsys,
            f"criterion 3 (SVD condensation): {_verdict(ok)}  "
            f"exact-rank diff {worst_exact:.2e} <= 1e-6 (r={rank_exact}); "
            f"energy rank {condensed.rank_used} of {part.columns} columns: "
            f"RMSE ratio {ratio:.3f} <= 1.1, solve speedup {speedup:.1f}x >= 3x")
    assert part.columns >= 1000
    assert worst_exact <= 1e-6
    assert ratio <= 1.1
    assert speedup >= 3.0


# ---------------------------------------------------------------------------
# Criterion 4: every input the soft-arm runs actually applied stays inside
# the actuation range.
# ---------------------------------------------------------------------------


def test_applied_inputs_stay_inside_actuation_range(capsys, regulation_run,
                                                    circle_runs, replica_exports):
    cfg, regulation_log, _ = regulation_run
    replica_logs, _ = replica_exports
    logs = [regulation_log, *circle_runs.values(), *replica_logs]
    low = min(float(log.input_array().min()) for log in logs)
    high = max(float(log.input_array().max()) for log in logs)
    total = sum(len(log) for log in logs)
    violations = sum(int(np.sum((log.input_array() < cfg.u_lower)
                                | (log.input_array() > cfg.u_upper)))
                     for log in logs)
    ok = violations == 0 and low >= cfg.u_lower and high <= cfg.u_upper
    _report(capsys,
            f"criterion 4 (actuation range): {_verdict(ok)}  "
            f"{total * 3} applied values over {len(logs)} runs inside "
            f"[{cfg.u_lower:g}, {cfg.u_upper:g}] "
            f"(observed [{low:.2f}, {high:.2f}]), {violations} violations")
    assert violations == 0
    assert low >= cfg.u_lower
    assert high <= cfg.u_upper


# ---------------------------------------------------------------------------
# Criterion 5: fixed-point regulation on the disturbed simulator reaches
# every staged target within tight final-quarter error bands.
# ---------------------------------------------------------------------------


def test_fixed_point_regulation_hits_stage_targets(capsys, regulation_run):
    cfg, log, wall = regulation_run
    # the shipped defaults are the staged-regulation settings this
    # criterion is defined at; guard against silent drift
    assert cfg.t_ini == 20 and cfg.horizon == 30
    assert cfg.q_weight == 10.0 and cfg.r_weight == 2e-3
    assert cfg.lambda_g == 300.0 and cfg.lambda_y == 1000.0
    stages = cfg.stage_list()
    assert [(s[0], s[1]) for s in stages] == [(20.0, 0.0), (40.0, 60.0),
                                              (60.0, 120.0)]
    assert all(s[2] <= 200 for s in stages)

    metrics = compute_metrics(log)
    phi_errs = [s["phi_err_deg"] for s in metrics["stages"]]
    gamma_errs = [s["gamma_err_deg"] for s in metrics["stages"]]
    ok = (all(e <= 2.0 for e in phi_errs)
          and all(e <= 5.0 for e in gamma_errs)
          and wall <= 60.0)
    pairs = ", ".join(f"({p:.2f}, {g:.2f})" for p, g in zip(phi_errs, gamma_errs))
    _report(capsys,
            f"criterion 5 (fixed-point regulation): {_verdict(ok)}  "
            f"final-quarter (bend, direction) errors deg {pairs} "
            f"within (2, 5); wall {wall:.1f}s <= 60s")
    for e in phi_errs:
        assert e <= 2.0
    for e in gamma_errs:
        assert e <= 5.0
    assert wall <= 60.0


# ---------------------------------------------------------------------------
# Criterion 6: on the disturbed simulator the data-driven controller halves
# the circle-tracking RMSE of the geometric baseline, while the baseline
# itself is accurate on the nominal simulator (the gap is model mismatch,
# not a crippled baseline).
# ---------------------------------------------------------------------------


def test_circle_tracking_beats_geometric_baseline(capsys, circle_runs):
    rmse_deepc = compute_metrics(circle_runs["deepc"])["rmse_mm"]
    rmse_base = compute_metrics(circle_runs["baseline"])["rmse_mm"]
    rmse_nominal = compute_metrics(circle_runs["baseline_nominal"])["rmse_mm"]
    ratio = rmse_deepc / rmse_base
    ok = ratio <= 0.5 and rmse_nominal <= 0.5
    _report(capsys,
            f"criterion 6 (circle tracking): {_verdict(ok)}  "
            f"disturbed RMSE {rmse_deepc:.3f} mm vs baseline {rmse_base:.3f} mm "
            f"(ratio {ratio:.3f} <= 0.5); nominal baseline "
            f"{rmse_nominal:.3f} mm <= 0.5 mm")
    assert ratio <= 0.5
    assert rmse_nominal <= 0.5


# ---------------------------------------------------------------------------
# Criterion 7: curvature kinematics round-trip to nanoradian accuracy and
# the cable-length map matches a direct curvature-form evaluation.
# ---------------------------------------------------------------------------


def test_kinematics_round_trip_and_cable_model(capsys):
    rng = np.random.default_rng(2024)
    worst_angle = 0.0
    for _ in range(10_000):
        phi = rng.uniform(1e-3, 3.0)
        gamma = rng.uniform(-math.pi, math.pi)
        recovered = cc_inverse(cc_forward(phi, gamma))
        gamma_err = abs((recovered.gamma_g - gamma + math.pi) % (2.0 * math.pi)
                        - math.pi)
        worst_angle = max(worst_angle, abs(recovered.phi_b - phi), gamma_err)

    # independent evaluation through the curvature: kappa = phi / L, cable
    # offset d_i = a * cos(gamma - theta_i), length L * (1 - kappa * d_i)
    geom = ArmGeometry()
    stations = np.asarray(geom.cable_angles)
    worst_len = 0.0
    for phi in np.linspace(1e-3, 3.0, 50):
        for gamma in np.linspace(-math.pi, math.pi, 20, endpoint=False):
            kappa = phi / geom.segment_length
            d = geom.cable_offset * np.cos(gamma - stations)
            expected = geom.segment_length * (1.0 - kappa * d)
            got = cable_lengths(phi, gamma, geom)
            worst_len = max(worst_len, float(np.max(np.abs(got - expected))))

    ok = worst_angle <= 1e-9 and worst_len <= 1e-12
    _report(capsys,
            f"criterion 7 (kinematics oracles): {_verdict(ok)}  "
            f"10000-point round-trip max error {worst_angle:.2e} rad <= 1e-9; "
            f"1000-point cable-length mismatch {worst_len:.2e} mm <= 1e-12")
    assert worst_angle <= 1e-9
    assert worst_len <= 1e-12


# ---------------------------------------------------------------------------
# Criterion 8: the same configuration and seed produce bit-identical run
# exports.
# ---------------------------------------------------------------------------


def test_repeated_run_is_bit_identical(capsys, replica_exports):
    _, (first, second) = replica_exports
    csv_a = (first / "run.csv").read_bytes()
    csv_b = (second / "run.csv").read_bytes()
    metrics_a = (first / "metrics.json").read_bytes()
    metrics_b = (second / "metrics.json").read_bytes()
    ok = csv_a == csv_b and metrics_a == metrics_b
    _report(capsys,
            f"criterion 8 (determinism): {_verdict(ok)}  "
            f"repeated regulation run exports byte-identical CSV "
            f"({len(csv_a)} bytes) and metrics ({len(metrics_a)} bytes)")
    assert csv_a == csv_b
    assert metrics_a == metrics_b
