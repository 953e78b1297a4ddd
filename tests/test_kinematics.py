"""Tests for constant-curvature kinematics and cable-length geometry."""

import math

import numpy as np
import pytest
from oracles import bending_lstsq

from softdeepc.kinematics import (
    ArmGeometry,
    bending_from_lengths,
    cable_lengths,
    cc_forward,
    cc_inverse,
)


def kappa_form_lengths(phi_b, gamma_g, geom):
    """Cable lengths via the curvature relations directly (oracle).

    Backbone curvature kappa_b = phi_b / L; cable i bends at curvature
    kappa_ci with 1/kappa_b = 1/kappa_ci + d_i, and its length is
    l_i = (kappa_b / kappa_ci) * L.
    """
    L = geom.segment_length
    if phi_b == 0.0:
        return np.full(3, L)
    kappa_b = phi_b / L
    out = []
    for theta in geom.cable_angles:
        d = geom.cable_offset * math.cos(gamma_g - theta)
        kappa_ci = 1.0 / (1.0 / kappa_b - d)
        out.append((kappa_b / kappa_ci) * L)
    return np.array(out)


class TestArmGeometry:
    def test_defaults_valid(self):
        geom = ArmGeometry()
        assert geom.segment_length == 90.0
        assert geom.cable_offset == 10.0

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValueError, match="spaced"):
            ArmGeometry(cable_angles=(0.0, 1.0, 2.0))

    def test_rotated_stations_accepted(self):
        ArmGeometry(cable_angles=(0.5, 0.5 + 2 * math.pi / 3, 0.5 + 4 * math.pi / 3))

    def test_positive_dimensions_required(self):
        with pytest.raises(ValueError, match="segment_length"):
            ArmGeometry(segment_length=0.0)
        with pytest.raises(ValueError, match="cable_offset"):
            ArmGeometry(cable_offset=-1.0)
        with pytest.raises(ValueError, match="gain"):
            ArmGeometry(u_to_length_gain=0.0)


class TestForward:
    def test_straight_arm(self):
        np.testing.assert_allclose(cc_forward(0.0, 0.0, 90.0), [0.0, 0.0, 90.0])
        np.testing.assert_allclose(cc_forward(0.0, 2.5, 90.0), [0.0, 0.0, 90.0])

    def test_quarter_circle(self):
        # phi = pi/2: rho = z = 90 * (2/pi) = 180/pi
        tip = cc_forward(math.pi / 2, 0.0, 90.0)
        np.testing.assert_allclose(tip, [180.0 / math.pi, 0.0, 180.0 / math.pi],
                                   rtol=1e-12)

    def test_azimuth_rotates_xy(self):
        t0 = cc_forward(0.8, 0.0, 90.0)
        t1 = cc_forward(0.8, math.pi / 2, 90.0)
        assert t1[0] == pytest.approx(0.0, abs=1e-12)
        assert t1[1] == pytest.approx(t0[0], rel=1e-12)
        assert t1[2] == pytest.approx(t0[2], rel=1e-12)

    def test_continuity_at_zero(self):
        limit = cc_forward(0.0, 0.3, 90.0)
        near = cc_forward(1e-8, 0.3, 90.0)
        assert np.linalg.norm(near - limit) <= 1e-6

    def test_series_matches_direct_formula(self):
        # just above the series cutoff both branches agree tightly
        for phi in (1.1e-7, 1e-6, 1e-4):
            L = 90.0
            rho = L * (1 - math.cos(phi)) / phi
            z = L * math.sin(phi) / phi
            tip = cc_forward(phi, 0.0, L)
            np.testing.assert_allclose(tip, [rho, 0.0, z], atol=1e-9)

    def test_chord_never_exceeds_arc(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            phi = rng.uniform(0.0, math.pi * 0.999)
            gamma = rng.uniform(0.0, 2 * math.pi)
            assert np.linalg.norm(cc_forward(phi, gamma, 90.0)) <= 90.0 + 1e-9

    def test_phi_range_enforced(self):
        with pytest.raises(ValueError, match="phi_b"):
            cc_forward(-0.1, 0.0, 90.0)
        with pytest.raises(ValueError, match="phi_b"):
            cc_forward(math.pi, 0.0, 90.0)


class TestInverse:
    def test_straight_arm_convention(self):
        res = cc_inverse([0.0, 0.0, 90.0], 90.0)
        assert res.phi_b == pytest.approx(0.0, abs=1e-12)
        assert res.gamma_g == 0.0
        assert not res.projected

    def test_forward_oracle_single(self):
        tip = cc_forward(1.0, 2.0, 90.0)
        res = cc_inverse(tip, 90.0)
        assert res.phi_b == pytest.approx(1.0, abs=1e-9)
        assert res.gamma_g == pytest.approx(2.0, abs=1e-9)
        assert res.residual <= 1e-9

    def test_round_trip_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            phi = rng.uniform(1e-6, math.pi * 0.98)
            gamma = rng.uniform(-math.pi, math.pi)
            res = cc_inverse(cc_forward(phi, gamma, 90.0), 90.0)
            assert abs(res.phi_b - phi) <= 1e-9
            # compare azimuth on the circle
            dg = (res.gamma_g - gamma + math.pi) % (2 * math.pi) - math.pi
            assert abs(dg) <= 1e-9
            assert not res.projected

    def test_unreachable_raises(self):
        with pytest.raises(ValueError, match="unreachable"):
            cc_inverse([0.0, 0.0, 200.0], 90.0)

    def test_noise_level_overshoot_tolerated(self):
        # measurement noise can push a tip slightly outside the reachable
        # ball; that must degrade to a flagged projection, not an error
        res = cc_inverse([0.5, -0.2, 90.3], 90.0)
        assert res.projected
        assert res.phi_b < 0.02

    def test_off_surface_point_flagged(self):
        tip = cc_forward(0.7, 0.4, 90.0)
        res = cc_inverse(tip * 0.9, 90.0)  # pulled inside the surface
        assert res.projected
        assert res.residual > 1e-3

    def test_noisy_point_small_residual(self):
        rng = np.random.default_rng(3)
        tip = cc_forward(0.9, 1.1, 90.0) + rng.normal(0, 0.1, 3)
        res = cc_inverse(tip, 90.0)
        # projection stays close to the true angles for small perturbations
        assert abs(res.phi_b - 0.9) < 0.05
        assert abs(res.gamma_g - 1.1) < 0.05
        assert res.residual < 0.5


class TestCableLengths:
    def test_straight_arm(self):
        geom = ArmGeometry()
        np.testing.assert_allclose(cable_lengths(0.0, 0.0, geom), [90.0] * 3)

    def test_direct_evaluation(self):
        # l_1 = 90 - (pi/3)*10 at gamma aligned with cable 1
        geom = ArmGeometry()
        lengths = cable_lengths(math.pi / 3, 0.0, geom)
        assert lengths[0] == pytest.approx(90.0 - math.pi / 3 * 10.0, rel=1e-12)

    def test_matches_curvature_form_oracle(self):
        # the simplified l = L - phi*d must equal the two-relation form
        geom = ArmGeometry()
        rng = np.random.default_rng(5)
        for _ in range(100):
            phi = rng.uniform(0.0, 2.5)
            gamma = rng.uniform(0.0, 2 * math.pi)
            simple = cable_lengths(phi, gamma, geom)
            oracle = kappa_form_lengths(phi, gamma, geom)
            np.testing.assert_allclose(simple, oracle, rtol=1e-12, atol=1e-12)

    def test_third_turn_permutes_cables(self):
        geom = ArmGeometry()
        base = cable_lengths(0.9, 0.7, geom)
        turned = cable_lengths(0.9, 0.7 + 2 * math.pi / 3, geom)
        np.testing.assert_allclose(turned, base[[2, 0, 1]], rtol=1e-12)

    def test_lengths_sum_invariant(self):
        # cosine offsets sum to zero, so total cable length is constant
        geom = ArmGeometry()
        rng = np.random.default_rng(7)
        for _ in range(50):
            lengths = cable_lengths(rng.uniform(0, 3), rng.uniform(0, 7), geom)
            assert np.sum(lengths) == pytest.approx(3 * 90.0, abs=1e-9)


class TestBendingFromLengths:
    def test_round_trip(self):
        geom = ArmGeometry()
        rng = np.random.default_rng(9)
        for _ in range(200):
            phi = rng.uniform(1e-6, 3.0)
            gamma = rng.uniform(0.0, 2 * math.pi)
            lengths = cable_lengths(phi, gamma, geom)
            phi2, gamma2 = bending_from_lengths(lengths, geom)
            assert phi2 == pytest.approx(phi, abs=1e-12)
            dg = (gamma2 - gamma + math.pi) % (2 * math.pi) - math.pi
            assert abs(dg) <= 1e-12

    def test_common_mode_invariance(self):
        # equal pretension on all cables leaves the bending state unchanged
        geom = ArmGeometry()
        lengths = cable_lengths(1.2, 2.2, geom)
        base = bending_from_lengths(lengths, geom)
        shifted = bending_from_lengths(lengths - 4.5, geom)
        assert shifted[0] == pytest.approx(base[0], abs=1e-12)
        assert shifted[1] == pytest.approx(base[1], abs=1e-12)

    def test_straight_lengths(self):
        geom = ArmGeometry()
        phi, gamma = bending_from_lengths([90.0, 90.0, 90.0], geom)
        assert phi == 0.0
        assert gamma == 0.0

    @pytest.mark.parametrize("angles", [None, (0.3, 0.3 + 2 * math.pi / 3,
                                               0.3 + 4 * math.pi / 3)])
    def test_matches_least_squares_normal_equations(self, angles):
        geom = ArmGeometry() if angles is None else ArmGeometry(cable_angles=angles)
        rng = np.random.default_rng(4)
        for _ in range(500):
            lengths = rng.uniform(60.0, 100.0, 3)
            phi_ref, gamma_ref = bending_lstsq(lengths, geom)
            for form in (lengths, tuple(lengths.tolist()), lengths.tolist()):
                phi, gamma = bending_from_lengths(form, geom)
                assert type(phi) is float and type(gamma) is float
                assert abs(phi - phi_ref) <= 1e-14
                dg = (gamma - gamma_ref + math.pi) % (2 * math.pi) - math.pi
                assert abs(dg) <= 1e-14

