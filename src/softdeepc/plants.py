"""Simulated plants: the nonlinear soft-arm surrogate and a generic LTI system.

The soft arm is the closed-loop testbed. Each control period: commanded
cable lengths (from the actuation u) pass through a first-order lag, the
lagged lengths invert to a nominal bending state, configurable
curvature-model violations (gravity sag, direction-dependent stiffness)
distort that state, and the measured tip is the constant-curvature forward
map of the distorted state plus Gaussian sensor noise.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kinematics import ArmGeometry, bending_from_lengths, cc_forward

__all__ = [
    "DisturbanceConfig",
    "ArmState",
    "SoftArmPlant",
    "arm_sim_step",
    "LtiPlant",
]

U_MIN = 0.0
U_MAX = 90.0


@dataclass(frozen=True)
class DisturbanceConfig:
    """Curvature-model violations of the surrogate plant.

    gravity_sag: extra bending (rad) scaled by sin(phi_b), mimicking sag
        that grows as the arm leans over.
    stiffness_eps: relative bending gain modulation with cos(3*gamma_g),
        mimicking the three-fold asymmetry of the cable layout.
    noise_std: per-axis tip measurement noise, mm.
    """

    gravity_sag: float = 0.06
    stiffness_eps: float = 0.08
    noise_std: float = 0.3

    def __post_init__(self):
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")

    @classmethod
    def none(cls) -> "DisturbanceConfig":
        """Nominal plant: the constant-curvature model is exact."""
        return cls(gravity_sag=0.0, stiffness_eps=0.0, noise_std=0.0)


@dataclass(frozen=True)
class ArmState:
    """Physical arm configuration between control periods.

    phi_b/gamma_g are the (disturbed) bending state most recently realized;
    lag_lengths are the three internal cable lengths of the actuation lag.
    """

    phi_b: float
    gamma_g: float
    lag_lengths: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.phi_b < math.pi:
            raise ValueError(f"phi_b must lie in [0, pi), got {self.phi_b}")
        gamma = float(np.mod(self.gamma_g, 2.0 * math.pi))
        object.__setattr__(self, "gamma_g", gamma)
        lengths = np.asarray(self.lag_lengths, dtype=float).reshape(3).copy()
        lengths.flags.writeable = False
        object.__setattr__(self, "lag_lengths", lengths)

    @classmethod
    def rest(cls, geom: ArmGeometry) -> "ArmState":
        return cls(phi_b=0.0, gamma_g=0.0,
                   lag_lengths=np.full(3, geom.segment_length), time=0.0)


def arm_sim_step(state: ArmState, u, dt: float, geom: ArmGeometry, tau: float,
                 disturbances: DisturbanceConfig,
                 rng: np.random.Generator) -> tuple[ArmState, np.ndarray]:
    """Advance the surrogate arm one control period; returns (state, tip).

    Deterministic for a given rng state. Inputs outside [0, 90] clamp with
    a warning; clamping is the only saturation behavior.
    """
    u = np.asarray(u, dtype=float).reshape(3)
    if np.any(u < U_MIN - 1e-12) or np.any(u > U_MAX + 1e-12):
        warnings.warn(
            f"actuation {u} outside [{U_MIN}, {U_MAX}] clamped", stacklevel=2
        )
    u = np.clip(u, U_MIN, U_MAX)

    l_cmd = geom.segment_length - geom.u_to_length_gain * u
    # exact discretization of  l' = (l_cmd - l)/tau  over one period
    decay = math.exp(-dt / tau)
    l_new = l_cmd + (state.lag_lengths - l_cmd) * decay

    phi_nom, gamma = bending_from_lengths(l_new, geom)
    sagged = phi_nom + disturbances.gravity_sag * math.sin(phi_nom)
    phi_dist = sagged * (1.0 + disturbances.stiffness_eps * math.cos(3.0 * gamma))
    phi_dist = min(max(phi_dist, 0.0), math.pi * (1.0 - 1e-12))

    tip = cc_forward(phi_dist, gamma, geom.segment_length)
    if disturbances.noise_std > 0.0:
        tip = tip + rng.normal(0.0, disturbances.noise_std, size=3)

    new_state = ArmState(phi_b=phi_dist, gamma_g=gamma, lag_lengths=l_new,
                         time=state.time + dt)
    return new_state, tip


class SoftArmPlant:
    """Single-owner stateful wrapper around arm_sim_step."""

    def __init__(self, geometry: ArmGeometry | None = None, tau: float = 0.15,
                 dt: float = 0.05,
                 disturbances: DisturbanceConfig | None = None,
                 seed: int = 0):
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.geometry = geometry if geometry is not None else ArmGeometry()
        self.tau = float(tau)
        self.dt = float(dt)
        self.disturbances = (disturbances if disturbances is not None
                             else DisturbanceConfig())
        self._seed = seed
        self.rng = np.random.default_rng(seed)
        self.state = ArmState.rest(self.geometry)

    @property
    def input_dim(self) -> int:
        return 3

    @property
    def output_dim(self) -> int:
        return 3

    def step(self, u) -> np.ndarray:
        """Apply u for one period; returns the measured tip (mm)."""
        self.state, tip = arm_sim_step(self.state, u, self.dt, self.geometry,
                                       self.tau, self.disturbances, self.rng)
        return tip

    def reset(self, seed: int | None = None):
        """Return to rest; reseeding restores the exact noise sequence."""
        if seed is not None:
            self._seed = seed
        self.rng = np.random.default_rng(self._seed)
        self.state = ArmState.rest(self.geometry)


class LtiPlant:
    """Discrete-time x(t+1) = A x + B u, y = C x + D u with internal state."""

    def __init__(self, A, B, C, D=None, x0=None, require_minimal: bool = True):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        self.C = np.atleast_2d(np.asarray(C, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise ValueError(f"B has {self.B.shape[0]} rows, expected {n}")
        if self.C.shape[1] != n:
            raise ValueError(f"C has {self.C.shape[1]} columns, expected {n}")
        m = self.B.shape[1]
        p = self.C.shape[0]
        self.D = (np.zeros((p, m)) if D is None
                  else np.atleast_2d(np.asarray(D, dtype=float)))
        if self.D.shape != (p, m):
            raise ValueError(f"D must be ({p}, {m}), got {self.D.shape}")
        self.x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(n)
        if require_minimal:
            if not self.is_controllable():
                raise ValueError("(A, B) is not controllable")
            if not self.is_observable():
                raise ValueError("(A, C) is not observable")

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]

    @property
    def output_dim(self) -> int:
        return self.C.shape[0]

    def _reachability_rank(self, A, B) -> int:
        n = A.shape[0]
        blocks = [B]
        for _ in range(n - 1):
            blocks.append(A @ blocks[-1])
        return int(np.linalg.matrix_rank(np.hstack(blocks)))

    def is_controllable(self) -> bool:
        return self._reachability_rank(self.A, self.B) == self.state_dim

    def is_observable(self) -> bool:
        return self._reachability_rank(self.A.T, self.C.T) == self.state_dim

    def step(self, u) -> np.ndarray:
        """Measure y = C x + D u with the pre-update state, then advance x."""
        u = np.asarray(u, dtype=float).reshape(self.input_dim)
        y = self.C @ self.x + self.D @ u
        self.x = self.A @ self.x + self.B @ u
        return y

    def reset(self, x0=None):
        self.x = (np.zeros(self.state_dim) if x0 is None
                  else np.asarray(x0, dtype=float).reshape(self.state_dim))

