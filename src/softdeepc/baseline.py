"""Open-loop geometric baseline: constant-curvature inversion to cable commands.

Target tip -> (phi_b, gamma_g) -> cable lengths -> actuation. Cables can
only pull, so commands are nonnegative; a bending state whose slackest
cable would need negative tension is realized by pretensioning all three
cables equally. Equal pretension shifts every cable length by the same
amount, which the arm's bending is invariant to (the length-to-bending
inversion only sees differences between cables), so the minimal shift that
makes every command nonnegative reproduces the commanded bending exactly
while keeping the slackest cable at zero.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kinematics import ArmGeometry, cable_lengths, cc_inverse

__all__ = ["BaselineController", "BaselineCommand", "baseline_control"]

U_MIN = 0.0
U_MAX = 90.0


class BaselineCommand(NamedTuple):
    """Actuation triple plus diagnostics of the geometric inversion."""

    u: np.ndarray
    phi_b: float
    gamma_g: float
    projected: bool   # target was off the reachable surface
    saturated: bool   # a command hit the actuation limits after pretension


@dataclass(frozen=True)
class BaselineController:
    geometry: ArmGeometry
    u_lower: float = U_MIN
    u_upper: float = U_MAX

    def __post_init__(self):
        if not self.u_lower < self.u_upper:
            raise ValueError("u_lower must be < u_upper")


def baseline_control(target_tip, ctrl: BaselineController) -> BaselineCommand:
    """Cable commands for a target tip position; open loop, no feedback.

    u_i = (L - l_i)/gain can be negative for the cable on the outside of
    the bend; the minimal equal pretension making all commands nonnegative
    is added (slackest cable lands exactly on the lower bound), then the
    result clamps to the actuation range.
    """
    geom = ctrl.geometry
    inv = cc_inverse(target_tip, geom.segment_length)
    lengths = cable_lengths(inv.phi_b, inv.gamma_g, geom)
    u = (geom.segment_length - lengths) / geom.u_to_length_gain
    u = u + max(0.0, ctrl.u_lower - np.min(u))
    saturated = bool(np.any(u > ctrl.u_upper + 1e-12))
    u = np.clip(u, ctrl.u_lower, ctrl.u_upper)
    return BaselineCommand(u=u, phi_b=inv.phi_b, gamma_g=inv.gamma_g,
                           projected=inv.projected, saturated=saturated)
