"""Tests for the soft-arm surrogate plant and the generic LTI plant."""

import math
import warnings

import numpy as np
import pytest
from oracles import arm_step_reference

from softdeepc.kinematics import ArmGeometry, cc_forward
from softdeepc.plants import (
    ArmState,
    DisturbanceConfig,
    LtiPlant,
    SoftArmPlant,
    arm_sim_run,
)


def run_plant(plant, u, steps):
    tip = None
    for _ in range(steps):
        tip = plant.step(u)
    return tip


class TestDisturbanceConfig:
    def test_defaults(self):
        cfg = DisturbanceConfig()
        assert cfg.gravity_sag == 0.06
        assert cfg.stiffness_eps == 0.08
        assert cfg.noise_std == 0.3

    def test_none_is_nominal(self):
        cfg = DisturbanceConfig.none()
        assert cfg.gravity_sag == 0.0
        assert cfg.stiffness_eps == 0.0
        assert cfg.noise_std == 0.0

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise_std"):
            DisturbanceConfig(noise_std=-0.1)


class TestArmState:
    def test_rest(self):
        state = ArmState.rest(ArmGeometry())
        assert state.phi_b == 0.0
        np.testing.assert_allclose(state.lag_lengths, [90.0] * 3)

    def test_gamma_wrapped(self):
        state = ArmState(phi_b=0.5, gamma_g=-1.0, lag_lengths=[90.0] * 3)
        assert 0.0 <= state.gamma_g < 2 * math.pi
        assert state.gamma_g == pytest.approx(2 * math.pi - 1.0)

    def test_phi_range_enforced(self):
        with pytest.raises(ValueError, match="phi_b"):
            ArmState(phi_b=math.pi, gamma_g=0.0, lag_lengths=[90.0] * 3)


class TestSoftArmNominal:
    def make_plant(self, **kw):
        kw.setdefault("disturbances", DisturbanceConfig.none())
        kw.setdefault("seed", 0)
        return SoftArmPlant(**kw)

    def test_rest_configuration(self):
        # u = 0 held for >= 10 tau settles at the straight-arm tip
        plant = self.make_plant()
        steps = int(10 * plant.tau / plant.dt) + 5
        tip = run_plant(plant, np.zeros(3), steps)
        np.testing.assert_allclose(tip, [0.0, 0.0, 90.0], atol=1e-9)

    def test_single_cable_stays_in_its_plane(self):
        plant = self.make_plant()
        tip = run_plant(plant, [40.0, 0.0, 0.0], 200)
        # cable 1 sits at azimuth 0: tip y component vanishes, x > 0
        assert tip[1] == pytest.approx(0.0, abs=1e-9)
        assert tip[0] > 1.0

    def test_steady_state_matches_geometry(self):
        # after settling, tip equals the forward map of the commanded lengths
        geom = ArmGeometry()
        plant = self.make_plant(geometry=geom)
        u = np.array([30.0, 10.0, 0.0])
        tip = run_plant(plant, u, 400)
        from softdeepc.kinematics import bending_from_lengths

        l_cmd = geom.segment_length - geom.u_to_length_gain * u
        phi, gamma = bending_from_lengths(l_cmd, geom)
        np.testing.assert_allclose(tip, cc_forward(phi, gamma, 90.0), atol=1e-6)

    def test_lag_time_constant(self):
        # one step from rest moves exactly (1 - exp(-dt/tau)) of the way
        plant = self.make_plant()
        u = np.array([20.0, 0.0, 0.0])
        plant.step(u)
        l_cmd = 90.0 - 0.25 * 20.0
        expected = l_cmd + (90.0 - l_cmd) * math.exp(-plant.dt / plant.tau)
        assert plant.state.lag_lengths[0] == pytest.approx(expected, rel=1e-12)

    def test_out_of_range_input_clamped_with_warning(self):
        plant = self.make_plant()
        with pytest.warns(UserWarning, match="clamped"):
            plant.step([120.0, -5.0, 0.0])
        # equivalent to stepping the clamped input
        other = self.make_plant()
        other.step([90.0, 0.0, 0.0])
        np.testing.assert_allclose(plant.state.lag_lengths,
                                   other.state.lag_lengths)


class TestSoftArmDisturbed:
    def test_determinism(self):
        a = SoftArmPlant(seed=42)
        b = SoftArmPlant(seed=42)
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.uniform(0, 90, 3)
            np.testing.assert_array_equal(a.step(u), b.step(u))

    def test_different_seeds_differ(self):
        a = SoftArmPlant(seed=1)
        b = SoftArmPlant(seed=2)
        ta = run_plant(a, [30.0, 5.0, 0.0], 10)
        tb = run_plant(b, [30.0, 5.0, 0.0], 10)
        assert np.any(ta != tb)

    def test_reset_restores_noise_sequence(self):
        plant = SoftArmPlant(seed=7)
        first = [plant.step([25.0, 0.0, 10.0]).copy() for _ in range(20)]
        plant.reset()
        second = [plant.step([25.0, 0.0, 10.0]).copy() for _ in range(20)]
        np.testing.assert_array_equal(np.array(first), np.array(second))

    def test_disturbances_shift_steady_state(self):
        # regression pin: disturbed steady tip differs from nominal prediction
        nominal = SoftArmPlant(disturbances=DisturbanceConfig.none(), seed=0)
        disturbed = SoftArmPlant(
            disturbances=DisturbanceConfig(gravity_sag=0.06, stiffness_eps=0.08,
                                           noise_std=0.0),
            seed=0,
        )
        u = [45.0, 15.0, 0.0]
        t_nom = run_plant(nominal, u, 300)
        t_dis = run_plant(disturbed, u, 300)
        gap = np.linalg.norm(t_nom - t_dis)
        assert gap > 1.0  # visible model violation

    def test_sag_increases_bending(self):
        base = SoftArmPlant(disturbances=DisturbanceConfig.none(), seed=0)
        sagged = SoftArmPlant(
            disturbances=DisturbanceConfig(gravity_sag=0.1, stiffness_eps=0.0,
                                           noise_std=0.0),
            seed=0,
        )
        u = [40.0, 0.0, 0.0]
        run_plant(base, u, 300)
        run_plant(sagged, u, 300)
        assert sagged.state.phi_b > base.state.phi_b

    def test_functional_step_matches_class(self):
        geom = ArmGeometry()
        dist = DisturbanceConfig(noise_std=0.0)
        plant = SoftArmPlant(geometry=geom, disturbances=dist, seed=3)
        state = ArmState.rest(geom)
        rng = np.random.default_rng(3)
        for _ in range(30):
            u = [12.0, 4.0, 30.0]
            tip_class = plant.step(u)
            state, tip_func = arm_sim_run(state, [u], plant.dt, geom, plant.tau,
                                          dist, rng)
            np.testing.assert_array_equal(tip_func, [tip_class])


def disturbed_plant(seed=5):
    dist = DisturbanceConfig(gravity_sag=0.06, stiffness_eps=0.08, noise_std=0.3)
    return SoftArmPlant(disturbances=dist, seed=seed)


def assert_same_plant(a, b):
    """Same state and same position in the noise stream, bit for bit."""
    assert a.state.phi_b == b.state.phi_b
    assert a.state.gamma_g == b.state.gamma_g
    assert a.state.time == b.state.time
    np.testing.assert_array_equal(a.state.lag_lengths, b.state.lag_lengths)
    np.testing.assert_array_equal(a.rng.normal(size=4), b.rng.normal(size=4))


class TestRollout:
    """SoftArmPlant.run applies a whole input sequence in one rollout."""

    def test_run_equals_stepping_bitwise(self):
        inputs = np.random.default_rng(0).uniform(0.0, 90.0, (200, 3))
        batch, stepped = disturbed_plant(), disturbed_plant()
        tips = batch.run(inputs)
        one_by_one = np.array([stepped.step(u) for u in inputs])
        assert tips.shape == (200, 3)
        np.testing.assert_array_equal(tips, one_by_one)
        assert_same_plant(batch, stepped)
        # time advances by repeated + dt, as one step per period does
        t = 0.0
        for _ in range(200):
            t += batch.dt
        assert batch.state.time == t

    def test_out_of_box_batch_warns_once_and_clamps(self):
        inputs = np.random.default_rng(2).uniform(-20.0, 110.0, (40, 3))
        clamped = np.clip(inputs, 0.0, 90.0)
        batch, stepped = disturbed_plant(), disturbed_plant()
        with pytest.warns(UserWarning, match="clamped") as record:
            tips = batch.run(inputs)
        assert len(record) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = np.array([stepped.step(u) for u in clamped])
        np.testing.assert_array_equal(tips, expected)
        assert_same_plant(batch, stepped)

    def test_empty_batch_touches_nothing(self):
        plant, fresh = disturbed_plant(), disturbed_plant()
        plant.step([10.0, 20.0, 30.0])
        fresh.step([10.0, 20.0, 30.0])
        state = plant.state
        tips = plant.run(np.empty((0, 3)))
        assert tips.shape == (0, 3)
        assert plant.state is state
        assert_same_plant(plant, fresh)

    @pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 4), (1, 3, 1), ()])
    def test_inputs_must_be_rows_of_three(self, shape):
        plant = disturbed_plant()
        with pytest.raises(ValueError, match=r"\(T, 3\)"):
            plant.run(np.zeros(shape))

    def test_noise_drawn_once_equals_draws_of_three(self):
        # the rollout draws the noise of T periods at once; that must be the
        # stream the per-period draws of the same generator would give
        batch = np.random.default_rng(11).normal(0.0, 0.3, size=(50, 3))
        rng = np.random.default_rng(11)
        rows = np.array([rng.normal(0.0, 0.3, size=3) for _ in range(50)])
        np.testing.assert_array_equal(batch, rows)

    def test_matches_per_period_reference(self):
        # the numpy per-period form of the plant, with its own bending inverse
        plant = disturbed_plant(seed=9)
        inputs = np.random.default_rng(3).uniform(-5.0, 95.0, (300, 3))
        with pytest.warns(UserWarning, match="clamped"):
            tips = plant.run(inputs)
        rng = np.random.default_rng(9)
        lag = np.full(3, plant.geometry.segment_length)
        for k, u in enumerate(inputs):
            lag, phi, gamma, tip = arm_step_reference(
                lag, u, plant.dt, plant.geometry, plant.tau, plant.disturbances, rng)
            np.testing.assert_allclose(tips[k], tip, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(plant.state.lag_lengths, lag)
        assert plant.state.phi_b == pytest.approx(phi, abs=1e-14)
        assert plant.state.gamma_g == pytest.approx(gamma, abs=1e-14)


class TestLtiPlant:
    def test_scalar_step(self):
        plant = LtiPlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], x0=[2.0])
        y = plant.step([0.0])
        assert y[0] == 2.0
        assert plant.x[0] == 1.0

    def test_feedthrough(self):
        plant = LtiPlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[2.0]], x0=[0.0])
        y = plant.step([3.0])
        assert y[0] == 6.0

    def test_rollout_matches_matrix_power_form(self):
        rng = np.random.default_rng(11)
        n, m, p = 4, 2, 3
        A = rng.standard_normal((n, n))
        A *= 0.85 / max(abs(np.linalg.eigvals(A)))
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        D = rng.standard_normal((p, m))
        x0 = rng.standard_normal(n)
        plant = LtiPlant(A, B, C, D, x0=x0)
        u_seq = rng.standard_normal((100, m))
        ys = np.array([plant.step(u) for u in u_seq])
        # closed form x(t) = A^t x0 + sum_k A^(t-1-k) B u(k)
        for t in (0, 1, 7, 50, 99):
            xt = np.linalg.matrix_power(A, t) @ x0
            for k in range(t):
                xt = xt + np.linalg.matrix_power(A, t - 1 - k) @ B @ u_seq[k]
            np.testing.assert_allclose(ys[t], C @ xt + D @ u_seq[t], atol=1e-9)

    def test_minimality_enforced(self):
        # uncontrollable second state
        A = np.diag([0.5, 0.5])
        B = np.array([[1.0], [0.0]])
        C = np.array([[1.0, 1.0]])
        with pytest.raises(ValueError, match="controllable"):
            LtiPlant(A, B, C)
        # unobservable second state (distinct eigenvalues keep (A,B) controllable)
        A2 = np.diag([0.5, 0.3])
        B2 = np.array([[1.0], [1.0]])
        C2 = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError, match="observable"):
            LtiPlant(A2, B2, C2)
        # opt-out accepted
        LtiPlant(A, B, C, require_minimal=False)

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="square"):
            LtiPlant(A=np.zeros((2, 3)), B=np.zeros((2, 1)), C=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="B has"):
            LtiPlant(A=np.eye(2), B=np.zeros((3, 1)), C=np.zeros((1, 2)))

    def test_step_measures_pre_update_state(self):
        plant = LtiPlant(A=[[0.9]], B=[[1.0]], C=[[2.0]], x0=[1.0])
        y = plant.step([0.5])
        assert y[0] == 2.0
        # x advanced to 0.9 * 1 + 0.5
        assert plant.step([0.0])[0] == pytest.approx(2.8)
