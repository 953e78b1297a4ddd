"""Constant-curvature kinematics for a single-segment cable-driven arm.

The arm bends as a circular arc of backbone length L: bending angle phi_b
(total arc angle, radians) and bending direction gamma_g (azimuth of the
bending plane). Tip position in mm:

    rho = L * (1 - cos(phi_b)) / phi_b
    z   = L * sin(phi_b) / phi_b
    tip = (rho * cos(gamma_g), rho * sin(gamma_g), z)

Three cables at angular stations theta_i (120 degrees apart, radius a from
the backbone) shorten with bending. Combining the curvature relation
1/kappa_b = 1/kappa_ci + d_i with arc length l_i = (kappa_b/kappa_ci) * L
and the signed offset d_i = a*cos(gamma_g - theta_i) collapses to

    l_i = L - phi_b * a * cos(gamma_g - theta_i)
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ArmGeometry",
    "CcInverse",
    "cc_forward",
    "cc_inverse",
    "cable_lengths",
    "bending_from_lengths",
]

_PHI_SERIES_CUTOFF = 1e-7
_PHI_MAX = math.pi * (1.0 - 1e-12)


@dataclass(frozen=True)
class ArmGeometry:
    """Segment length, cable pitch radius, cable stations, actuation gain.

    u_to_length_gain converts one actuation unit into mm of commanded cable
    shortening, so u in [0, 90] spans a stroke of 90 * gain mm.
    """

    segment_length: float = 90.0
    cable_offset: float = 10.0
    cable_angles: tuple[float, float, float] = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
    u_to_length_gain: float = 0.25

    def __post_init__(self):
        if self.segment_length <= 0:
            raise ValueError(f"segment_length must be positive, got {self.segment_length}")
        if self.cable_offset <= 0:
            raise ValueError(f"cable_offset must be positive, got {self.cable_offset}")
        if self.u_to_length_gain <= 0:
            raise ValueError(f"u_to_length_gain must be positive, got {self.u_to_length_gain}")
        ang = np.asarray(self.cable_angles, dtype=float)
        if ang.shape != (3,):
            raise ValueError("cable_angles must hold exactly three stations")
        # stations must sit 120 degrees apart (in cyclic order)
        spacing = np.sort(np.mod(ang - ang[0], 2.0 * math.pi))
        expected = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
        if np.max(np.abs(spacing - expected)) > 1e-12:
            raise ValueError("cable_angles must be spaced 2*pi/3 apart")
        object.__setattr__(self, "cable_angles", tuple(float(a) for a in ang))
        # (cos, sin) of each station for bending_from_lengths; not a field,
        # so eq, hash and repr ignore it
        object.__setattr__(self, "_stations", tuple(
            (math.cos(a), math.sin(a)) for a in self.cable_angles))


def _check_phi(phi_b: float) -> float:
    phi_b = float(phi_b)
    if not 0.0 <= phi_b < math.pi:
        raise ValueError(f"phi_b must lie in [0, pi), got {phi_b}")
    return phi_b


def cc_forward(phi_b: float, gamma_g: float, L: float = 90.0) -> np.ndarray:
    """Tip position (x, y, z) in mm for arc angle phi_b and azimuth gamma_g."""
    phi_b = _check_phi(phi_b)
    if phi_b < _PHI_SERIES_CUTOFF:
        # series of (1-cos)/phi and sin/phi, accurate to O(phi^4)
        rho = L * (phi_b / 2.0 - phi_b**3 / 24.0)
        z = L * (1.0 - phi_b**2 / 6.0)
    else:
        rho = L * (1.0 - math.cos(phi_b)) / phi_b
        z = L * math.sin(phi_b) / phi_b
    return np.array([rho * math.cos(gamma_g), rho * math.sin(gamma_g), z])


class CcInverse(NamedTuple):
    """Inverse kinematics result; projected marks an off-surface input."""

    phi_b: float
    gamma_g: float
    residual: float
    projected: bool


def cc_inverse(tip, L: float = 90.0, tol: float = 1e-6) -> CcInverse:
    """Recover (phi_b, gamma_g) from a tip position.

    On the reachable surface the identity (1 - cos(phi))/sin(phi) = rho/z
    = tan(phi/2) gives the exact closed form phi = 2*atan2(rho, z). Points
    off the surface (noisy measurements) are projected radially onto the
    arc-tip curve in their vertical plane; residual is the mm distance to
    cc_forward at the recovered angles, and projected flags residual > tol.

    gamma_g is 0 by convention on the z axis. The chord of an arc is never
    longer than the arc, so tips with norm well beyond L (10% margin, which
    admits noisy measurements near the shell) are rejected as unreachable.
    """
    tip = np.asarray(tip, dtype=float).reshape(3)
    x, y, z = tip
    norm = float(np.linalg.norm(tip))
    if norm > 1.1 * L:
        raise ValueError(
            f"tip norm {norm:.6g} mm exceeds segment length {L:.6g} mm: unreachable"
        )
    rho = math.hypot(x, y)
    gamma_g = math.atan2(y, x) if rho > 1e-12 else 0.0
    # solves (1 - cos(phi))/sin(phi) = rho/z on [0, pi)
    phi_b = 2.0 * math.atan2(rho, z)
    if not phi_b < math.pi:
        phi_b = _PHI_MAX
    phi_b = min(max(phi_b, 0.0), _PHI_MAX)
    residual = float(np.linalg.norm(cc_forward(phi_b, gamma_g, L) - tip))
    return CcInverse(phi_b=phi_b, gamma_g=gamma_g, residual=residual,
                     projected=residual > tol)


def cable_lengths(phi_b: float, gamma_g: float, geom: ArmGeometry) -> np.ndarray:
    """Cable lengths (l_1, l_2, l_3) in mm at the given bending state."""
    phi_b = _check_phi(phi_b)
    theta = np.asarray(geom.cable_angles)
    d = geom.cable_offset * np.cos(gamma_g - theta)
    return geom.segment_length - phi_b * d


def bending_from_lengths(lengths, geom: ArmGeometry) -> tuple[float, float]:
    """Least-squares inverse of cable_lengths: lengths -> (phi_b, gamma_g).

    Writing (L - l_i)/a = phi*cos(gamma - theta_i) = c1*cos(theta_i) +
    c2*sin(theta_i) makes the system linear in c = (phi*cos(gamma),
    phi*sin(gamma)); with stations 120 degrees apart the normal matrix is
    (3/2)*I, so c = (2/3) * M^T * delta. Adding a common offset to all
    three lengths does not change the result (the station cosines and
    sines each sum to zero), which is what lets pretensioned commands
    reproduce the same bending.

    lengths is any sequence of three floats; the arithmetic is on Python
    floats, since the plant calls this once per control period.
    """
    l1, l2, l3 = lengths
    L = geom.segment_length
    a = geom.cable_offset
    d1 = (L - l1) / a
    d2 = (L - l2) / a
    d3 = (L - l3) / a
    (k1, s1), (k2, s2), (k3, s3) = geom._stations
    c1 = (2.0 / 3.0) * (k1 * d1 + k2 * d2 + k3 * d3)
    c2 = (2.0 / 3.0) * (s1 * d1 + s2 * d2 + s3 * d3)
    phi_b = math.hypot(c1, c2)
    gamma_g = math.atan2(c2, c1) if phi_b > 1e-12 else 0.0
    if gamma_g < 0.0:
        gamma_g += 2.0 * math.pi
    return min(phi_b, _PHI_MAX), gamma_g
