"""Lattice evolution scheme for measure-valued dynamics.

One parameter N sets every resolution: time step 1/N, velocity step 1/N,
space step 1/N^2 (their product, the space a velocity cell covers in
one time step). Measures live on the grid Z^n / N^2 inside the box
[-N, N]^n, stored as int64 coordinates (N <= 208,063). A solve carries
the int64 coordinate rows, the float64 masses, the positions rows / N^2
and their radius from step to step, and fixes a constant PVF's fiber
once (pvf._fiber). A step lifts the positions into (source index,
velocity, mass) arrays, floors the velocities to cells k = floor(v * N)
in floats (_bin_velocity, the only floor; a fiber's cells once, at the
first step), shifts rows[index] + k and merges coincident atoms
(measure._merge). Each step's LatticeMeasure keeps the merged int64
rows and float64 masses, frozen in place, and a restart or las_step
reads them back with no conversion. Runs replay bit-for-bit, but they
are not exact rational arithmetic: a float product can land just below
an integer and floor one cell lower.

A solve also carries one fact (unit) from each mass check to the next:
the masses are positive with a math.fsum of exactly 1.0. A one-to-one
lift skips its check under the fact (pvf.lift), a step never checks its
merged masses (_step), and the trajectory is bit for bit that of a
solve that checks every lift and step. The binning's check sets the
fact; a restart (which checks its rows' box and width), las_step and
any renormalisation start without it.

This module is the one home of the paper's a-priori estimates and of
the lattice clock: support_envelope, exp(C t)(R + 1), and
Trajectory.time_lipschitz, C exp(C T)(R + 1); Trajectory.step_at, the
step of a time, and end_time, the time of the last step. A run refuses
to start when the envelope at T exceeds N, and stops when a step's
support radius passes it, which catches misdeclared sublinearity
constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoxOverflowError, SupportBoundError, ValidationError
from .measure import (DiscreteMeasure, LatticeMeasure, LiftedMeasure,
                      _build, _lattice, _lattice_box, _lattice_rows, _merge,
                      as_rows, radius, support_radius)
from .pvf import PvfSpec, _fiber, _lift, lift, sublinear_constant

_STEP_COUNT_SNAP = 1e-9  # floor(N*T) guard against 39.999... artifacts


@dataclass(frozen=True)
class LatticeConfig:
    n_param: int
    horizon: float

    def __post_init__(self):
        if self.n_param < 1 or self.n_param != int(self.n_param):
            raise ValidationError("N must be a positive integer",
                                  field="n_param")
        if not self.horizon > 0:
            raise ValidationError("horizon must be positive",
                                  field="horizon")

    @property
    def dt(self) -> float:
        return 1.0 / self.n_param

    @property
    def dv(self) -> float:
        return 1.0 / self.n_param

    @property
    def dx(self) -> float:
        return 1.0 / self.n_param ** 2

    @property
    def step_count(self) -> int:
        return int(math.floor(self.n_param * self.horizon + _STEP_COUNT_SNAP))


@dataclass(frozen=True)
class Trajectory:
    config: LatticeConfig
    steps: tuple[LatticeMeasure, ...]
    pvf: PvfSpec
    initial_radius: float  # radius of the pre-binning initial measure
    sublinear_c: float  # C of the a-priori bounds (pvf.sublinear_constant)

    @property
    def dim(self) -> int:
        return self.steps[0].dim

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(i / self.config.n_param for i in range(len(self.steps)))

    @property
    def end_time(self) -> float:
        return (len(self.steps) - 1) / self.config.n_param

    def step_at(self, t: float) -> int:
        """The step at or before time t: floor(t N), snapped across 1e-12
        and capped at the last step."""
        return min(int(math.floor(t * self.config.n_param + 1e-12)),
                   len(self.steps) - 1)

    def reach(self, ell: int | None = None) -> float:
        """support_envelope at step ell, or at the horizon T."""
        c, r0, config = self.sublinear_c, self.initial_radius, self.config
        if ell is None:
            return support_envelope(c, r0, config.horizon)
        return support_envelope(c, r0, ell, config.dt)

    @property
    def time_lipschitz(self) -> float:
        """C exp(C T)(R + 1): W(mu(t), mu(s)) <= it |t - s| up to T."""
        c, r0 = self.sublinear_c, self.initial_radius
        return c * math.exp(c * self.config.horizon) * (r0 + 1.0)


def support_envelope(c: float, radius0: float, t: float, dt: float = 1.0
                     ) -> float:
    """The a-priori support radius exp(C t)(R + 1) at the time t dt: a
    step index and the step, as C ell dt (not C (ell dt), which rounds
    otherwise), or a time and 1.0."""
    return math.exp(c * t * dt) * (radius0 + 1.0)


def ax_discretize(mu: DiscreteMeasure, n_param: int) -> LatticeMeasure:
    """Bin atoms to the space lattice: componentwise floor to multiples
    of 1/N^2 (half-open cells, boundary to the lower cell)."""
    rows, masses, _ = _binned(mu, n_param)
    return _lattice(n_param, mu.dim, rows, masses)


def _binned(mu: DiscreteMeasure, n_param: int
            ) -> tuple[np.ndarray, np.ndarray, bool]:
    """ax_discretize's int64 rows and float64 masses, and whether the
    masses sum to exactly 1.0 (_lattice_rows)."""
    if n_param < 1:
        raise ValidationError("N must be >= 1", field="n_param")
    outside = (mu.positions < -n_param) | (mu.positions >= n_param)
    if outside.any():
        raise ValidationError(
            f"support reaches {mu.positions[outside][0].item()!r}, outside "
            f"[-N, N) with N={n_param}; increase N", field="n_param")
    return _lattice_rows(n_param, mu.dim,
                         np.floor(mu.positions * n_param ** 2), mu.masses)


def _bin_velocity(vel: np.ndarray, n_param: int) -> np.ndarray:
    """Floor a (count, dim) velocity array to int64 cells floor(v * N)."""
    binned = np.floor(vel * n_param)
    if (np.abs(binned) > n_param ** 2).any():
        raise BoxOverflowError(
            f"velocity {vel.flat[np.abs(binned).argmax()].item()!r} outside "
            f"the box [-N, N) with N={n_param}; the sublinearity envelope "
            "does not fit this lattice")
    return binned.astype(np.int64)


def av_discretize(v: LiftedMeasure, n_param: int) -> LiftedMeasure:
    """Floor velocities to multiples of 1/N; positions untouched."""
    cells = _bin_velocity(v.velocities, n_param) / n_param
    return _build(v.positions, v.masses, cells)


def _step(rows: np.ndarray, masses, positions: np.ndarray, max_x: float,
          n_param: int, spec: PvfSpec, unit: bool = False, fixed=None
          ) -> tuple[np.ndarray, np.ndarray, bool, tuple]:
    """One recursion step on arrays: lift the positions rows / N^2 (of
    radius max_x), bin the velocity array, shift each source row by its
    integer cells (dt * v = k / N^2), merge once. unit: the masses are
    known to be positive with a math.fsum of exactly 1.0. fixed: None at
    a solve's first step, then (pvf._fiber, the fiber's distinct cells).
    Returns the next int64 rows, float64 masses, unit and fixed.

    The merged masses are not checked: the lift has just checked (or,
    under unit, passed on) the masses the merge sums, so the check could
    not raise. A merge that joins no rows only permutes them, and fsum
    does not depend on order; one that joins rows drops the fact, and
    the next lift checks them, the same bits as a check here."""
    fiber, cells = fixed or (_fiber(spec, rows.shape[1]), None)
    index, velocities, masses, unit = _lift(spec, positions, masses,
                                            n_param, unit, max_x, fiber)
    if fiber is None:
        shifted = rows[index] + _bin_velocity(velocities, n_param)
    else:
        cells = _bin_velocity(fiber[2], n_param) if cells is None else cells
        shifted = (rows[:, None] + cells).reshape(len(index), -1)
    try:
        shifted = _lattice_box(n_param, rows.shape[1], shifted)
    except ValidationError as exc:
        raise BoxOverflowError(
            f"step left the lattice box [-N, N]^n with N={n_param}: {exc}; "
            "support growth exceeded the a-priori radius bound") from exc
    keys, merged = _merge(shifted, masses)
    return keys, merged, unit and len(keys) == len(shifted), (fiber, cells)


def las_step(mu_ell: LatticeMeasure, spec: PvfSpec) -> LatticeMeasure:
    """One recursion step of a lattice measure (the step las_solve runs)."""
    n, rows = mu_ell.n_param, mu_ell.coords.array
    rows, masses = _step(rows, mu_ell.masses, rows / n ** 2,
                         mu_ell.support_radius(), n, spec)[:2]
    return _lattice(n, mu_ell.dim, rows, masses)


def las_solve(mu0: DiscreteMeasure | LatticeMeasure, spec: PvfSpec,
              n_param: int, horizon: float) -> Trajectory:
    """Run floor(N*T) steps from the binned initial measure.

    Accepts a LatticeMeasure to continue a previous run exactly (the
    concatenation identity then holds bit-for-bit). Refuses up front
    when the support envelope at T exceeds N, and aborts if any step's
    support radius exceeds its envelope.
    """
    config = LatticeConfig(n_param=n_param, horizon=horizon)
    if isinstance(mu0, LatticeMeasure):
        if mu0.n_param != n_param:
            raise ValidationError(
                f"initial lattice measure has N={mu0.n_param}, "
                f"run wants N={n_param}", field="n_param")
        start = mu0
        rows = _lattice_box(n_param, mu0.dim, mu0.coords.array)
        masses = mu0.masses
        unit = False  # no check of this run has summed these masses
    else:
        rows, masses, unit = _binned(mu0, n_param)
        start = _lattice(n_param, mu0.dim, rows, masses)
    positions = rows / n_param ** 2
    reach = radius(positions)
    # a fresh run bounds its support by the radius before binning
    radius0 = reach if start is mu0 else support_radius(mu0)
    c_sub = sublinear_constant(spec, start.dim)
    envelope = support_envelope(c_sub, radius0, horizon)
    if envelope > n_param:
        raise ValidationError(
            f"N={n_param} too small: the support envelope "
            f"exp(C*T)*(R+1) = {envelope!r} exceeds N "
            f"(C={c_sub!r}, R={radius0!r}, T={horizon!r})",
            field="n_param")
    steps, fixed = [start], None
    for ell in range(1, config.step_count + 1):
        rows, masses, unit, fixed = _step(rows, masses, positions, reach,
                                          n_param, spec, unit, fixed)
        positions = rows / n_param ** 2
        bound = support_envelope(c_sub, radius0, ell, config.dt)
        reach = radius(positions)
        if reach > bound * (1.0 + 1e-12):
            raise SupportBoundError(
                f"step {ell}: support radius {reach!r} exceeds the "
                f"a-priori bound {bound!r}; the declared sublinearity "
                f"constant C={c_sub!r} is too small for this field")
        steps.append(_lattice(n_param, start.dim, rows, masses))
    return Trajectory(config=config, steps=tuple(steps), pvf=spec,
                      initial_radius=radius0, sublinear_c=c_sub)


def interpolate(traj: Trajectory, t: float) -> DiscreteMeasure:
    """Measure at any time: between steps, atoms move along their binned
    velocities, x_i + s * v_j for the within-step offset s."""
    n = traj.config.n_param
    if not (0.0 <= t <= traj.end_time + 1e-12):
        raise ValidationError(
            f"t={t!r} outside [0, {traj.end_time!r}]", field="t")
    ell = traj.step_at(t)
    s = t - ell / n
    base = traj.steps[ell]
    if s <= 0.0 or ell == len(traj.steps) - 1:
        return base.to_measure()
    positions = base.position_rows()
    index, velocities, masses, _ = lift(traj.pvf, positions, base.masses,
                                        n_hint=n)
    moved = positions[index] + s * (_bin_velocity(velocities, n) / n)
    return _build(as_rows(moved, traj.dim), masses)
