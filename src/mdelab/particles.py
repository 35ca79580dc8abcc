"""Coupled particle systems and their empirical-measure bridge to the
lattice scheme.

The dynamics is the symmetric pairwise system

    dx_i/dt = (1/m) sum_j phi(x_j - x_i)      (self term included),

integrated with a classical fixed-step 4th-order scheme on the read-only
(m, d) float64 array of a ParticleState's positions. The velocities
are kernels.interaction_field (unit weights) divided by m, the field the
interaction PVF lifts; its sums are exact, so relabeling particles
permutes the computed trajectory bit-for-bit. The mean-field comparison
runs the interaction vector field on the lattice from the same empirical
initial measure and reports the Wasserstein gap over time; the reference
integrator steps at one tenth of the lattice time step so its own error
stays negligible against the O(1/N) being measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import SAMPLE_FRACTIONS
from .errors import NumericalError, ValidationError
from .kernels import KernelSpec, interaction_field
from .las import interpolate, las_solve
from .measure import (DiscreteMeasure, _ArrayFields, _build, _check_schema,
                      _number, _readonly, as_rows, radius)
from .pvf import interaction_pvf
from .transport import wasserstein

REFERENCE_SUBSTEPS = 10  # reference dt_ode = lattice dt / 10


@dataclass(frozen=True, eq=False)
class ParticleState(_ArrayFields):
    """Particle positions, a read-only float64 array of shape (m, d)."""

    positions: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        if len(self.positions) < 1:
            raise ValidationError("need at least one particle",
                                  field="positions")

    @property
    def m(self) -> int:
        return len(self.positions)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def radius(self) -> float:
        return radius(self.positions)


def make_state(positions, time: float = 0.0) -> ParticleState:
    rows = as_rows(list(positions), what="positions")
    return ParticleState(positions=_readonly(rows), time=float(time))


def state_from_dict(doc: dict) -> ParticleState:
    if not isinstance(doc, dict) or "positions" not in doc:
        raise ValidationError("particle document needs 'positions'",
                              field="positions")
    _check_schema(doc, "particle")
    state = make_state(doc["positions"])
    if "dim" in doc and _number(doc["dim"], "dim", True) != state.dim:
        raise ValidationError(
            f"declared dim {doc['dim']} != positions dim {state.dim}",
            field="dim")
    return state


def _velocities(positions: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    m = len(positions)
    return interaction_field(kernel, positions, np.ones(m)) / m


def integrate(state0: ParticleState, kernel: KernelSpec, horizon: float,
              dt_ode: float) -> list[ParticleState]:
    """Fixed-step RK4 trajectory, states at every substep including t=0."""
    if not dt_ode > 0:
        raise ValidationError("dt_ode must be positive", field="dt_ode")
    if not horizon > 0:
        raise ValidationError("horizon must be positive", field="horizon")
    steps = max(1, round(horizon / dt_ode))
    h = horizon / steps
    states = [state0]
    pos = state0.positions
    for j in range(1, steps + 1):
        # a blow-up overflows here; the isfinite check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = _velocities(pos, kernel)
            k2 = _velocities(pos + 0.5 * h * k1, kernel)
            k3 = _velocities(pos + 0.5 * h * k2, kernel)
            k4 = _velocities(pos + h * k3, kernel)
            pos = pos + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(pos).all():
            raise NumericalError(
                f"particle integration blew up at t={state0.time + j * h!r}")
        states.append(ParticleState(positions=_readonly(pos),
                                    time=state0.time + j * h))
    return states


def empirical(state: ParticleState) -> DiscreteMeasure:
    """Equal-mass atom per particle; coincident particles merge."""
    return _build(as_rows(state.positions), np.full(state.m, 1.0 / state.m))


def meanfield_compare(state0: ParticleState, kernel: KernelSpec,
                      n_param: int, horizon: float,
                      sample_fractions=SAMPLE_FRACTIONS,
                      ) -> list[tuple[float, float]]:
    """W(empirical particle flow, lattice run of the interaction field)
    at sampled times; both start from empirical(state0)."""
    mu0 = empirical(state0)
    spec = interaction_pvf(kernel)
    traj = las_solve(mu0, spec, n_param, horizon)
    dt_ode = traj.config.dt / REFERENCE_SUBSTEPS
    states = integrate(state0, kernel, horizon, dt_ode)
    h = horizon / (len(states) - 1)
    gaps = []
    for fr in sample_fractions:
        idx = min(round(fr * horizon / h), len(states) - 1)
        t = min(states[idx].time, traj.end_time)
        gap = wasserstein(empirical(states[idx]),
                          interpolate(traj, t)).distance
        gaps.append((states[idx].time, gap))
    return gaps


def permute_state(state: ParticleState, perm) -> ParticleState:
    perm = list(perm)
    if sorted(perm) != list(range(state.m)):
        raise ValidationError("not a permutation of the particle labels",
                              field="perm")
    return ParticleState(positions=_readonly(state.positions[perm]),
                         time=state.time)


def stability_rate(kernel: KernelSpec, radius: float) -> float:
    """Exponential rate for the two-trajectory stability bound.

    Matched-pair analysis gives d/dt mean|x_i - y_i| <= 2 L_phi(R) times
    the mean, with the factor 2 collapsing to the spectral rate for the
    linear kernel (its flow expands mean-zero deviations at exactly the
    rate parameter)."""
    if kernel.name == "linear":
        return kernel.lipschitz_on(radius)
    return 2.0 * kernel.lipschitz_on(radius)


def stability_check(state_a: ParticleState, state_b: ParticleState,
                    kernel: KernelSpec, horizon: float, dt_ode: float,
                    rate: float | None = None) -> bool:
    """W(empirical_a(t), empirical_b(t)) <= exp(rate*t) * W at t=0 along
    the integrated trajectories."""
    traj_a = integrate(state_a, kernel, horizon, dt_ode)
    traj_b = integrate(state_b, kernel, horizon, dt_ode)
    if rate is None:
        reach = max(max(s.radius() for s in traj_a),
                    max(s.radius() for s in traj_b))
        rate = stability_rate(kernel, reach)
    w0 = wasserstein(empirical(state_a), empirical(state_b)).distance
    for sa, sb in zip(traj_a, traj_b):
        gap = wasserstein(empirical(sa), empirical(sb)).distance
        t = sa.time - state_a.time
        if gap > math.exp(rate * t) * w0 * (1.0 + 1e-9) + 1e-12:
            return False
    return True
