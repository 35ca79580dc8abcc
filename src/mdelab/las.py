"""Lattice evolution scheme for measure-valued dynamics.

One parameter N sets every resolution: time step 1/N, velocity step 1/N,
space step 1/N^2 (their product, the space a velocity cell covers in
one time step). Measures live on the grid Z^n / N^2 inside the box
[-N, N]^n, stored as int64 coordinates (N <= 208,063). A solve carries
three arrays from step to step: the int64 coordinate rows, the float64
masses and the positions rows / N^2. That one numpy division per step
serves both the step's support-radius check and the next step's lift.
A step lifts the positions into (source index, velocity, mass) arrays,
floors the velocities to cells k = floor(v * N) in floats
(_bin_velocity, the only floor), shifts rows[index] + k and merges
coincident atoms in the one array merge of every measure builder. Each
step's LatticeMeasure, whose fields are tuples (see measure.py), is
built from the merged arrays once; las_step runs the same step on one
LatticeMeasure. Runs replay bit-for-bit, but they are not exact
rational arithmetic: a float product can land just below an integer and
floor one cell lower.

A solve also carries one fact (unit) from each mass check to the next:
the masses are positive and their math.fsum is exactly 1.0. The
binning's check establishes it or not; a restart from a LatticeMeasure
starts without it. Each skip below is one whose result the fact
decides, so every trajectory is bit for bit the one of a solve that
checks every lift and every step:
- the one-to-one kinds (ode_lift, one_sided_ode, interaction) lift atom
  i to one velocity with its own mass, so their (index, velocity) keys
  are sorted and distinct: the lift's merge would be the identity and
  does not run, for any masses. Under the fact the lift's renormalising
  check would return the masses unchanged, so it does not run either
  (pvf.lift);
- a step merge that returns as many rows as it got permutes its masses,
  and fsum, correctly rounded, does not depend on order; when the
  lift's masses carry the fact, the step's check cannot fail and does
  not run (measure._lattice_rows). A merge that joins rows is checked,
  because its rounded group sums can move the total.
Any check that runs sets the fact to its own finding; a renormalisation
clears it. las_step starts each step without it.

A run checks two a-priori bounds and fails loudly when either breaks:
the box must satisfy exp(C*T)*(R+1) <= N before starting (refusing, not
clipping), and every step's support radius must stay under
exp(C*l*dt)*(R+1), which catches misdeclared sublinearity constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoxOverflowError, SupportBoundError, ValidationError
from .measure import (DiscreteMeasure, LatticeMeasure, LiftedMeasure,
                      _build, _lattice, _lattice_rows, as_rows, radius,
                      support_radius)
from .pvf import PvfSpec, lift, sublinear_constant

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

    @property
    def dim(self) -> int:
        return self.steps[0].dim

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(i / self.config.n_param for i in range(len(self.steps)))


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
    return _lattice_rows(n_param, np.floor(mu.positions * n_param ** 2),
                         mu.masses)


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


def _step(rows: np.ndarray, masses, positions: np.ndarray, n_param: int,
          spec: PvfSpec, unit: bool = False
          ) -> tuple[np.ndarray, np.ndarray, bool]:
    """One recursion step on arrays: lift the positions rows / N^2, bin
    the velocity array, shift each source row by its integer cells
    (dt * v = k / N^2), merge once. unit states that masses are known to
    be positive with a math.fsum of exactly 1.0. Returns the checked
    int64 rows and float64 masses of the next step, and the same fact
    about them (_lattice_rows)."""
    index, velocities, masses, unit = lift(spec, positions, masses,
                                           n_hint=n_param, unit=unit)
    shifted = rows[index] + _bin_velocity(velocities, n_param)
    try:
        return _lattice_rows(n_param, shifted, masses, unit=unit)
    except ValidationError as exc:
        raise BoxOverflowError(
            f"step left the lattice box [-N, N]^n with N={n_param}: {exc}; "
            "support growth exceeded the a-priori radius bound") from exc


def las_step(mu_ell: LatticeMeasure, spec: PvfSpec) -> LatticeMeasure:
    """One recursion step of a lattice measure (the step las_solve runs)."""
    n = mu_ell.n_param
    rows = np.array(mu_ell.coords, dtype=np.int64)
    rows, masses, _ = _step(rows, mu_ell.masses, rows / n ** 2, n, spec)
    return _lattice(n, mu_ell.dim, rows, masses)


def las_solve(mu0: DiscreteMeasure | LatticeMeasure, spec: PvfSpec,
              n_param: int, horizon: float) -> Trajectory:
    """Run floor(N*T) steps from the binned initial measure.

    Accepts a LatticeMeasure to continue a previous run exactly (the
    concatenation identity then holds bit-for-bit). Refuses up front
    when exp(C*T)*(R+1) > N, and aborts if any step's support radius
    exceeds exp(C*l*dt)*(R+1).
    """
    config = LatticeConfig(n_param=n_param, horizon=horizon)
    if isinstance(mu0, LatticeMeasure):
        if mu0.n_param != n_param:
            raise ValidationError(
                f"initial lattice measure has N={mu0.n_param}, "
                f"run wants N={n_param}", field="n_param")
        start = mu0
        rows, masses = np.array(mu0.coords, dtype=np.int64), mu0.masses
        unit = False  # no check of this run has summed these masses
    else:
        rows, masses, unit = _binned(mu0, n_param)
        start = _lattice(n_param, mu0.dim, rows, masses)
    positions = rows / n_param ** 2
    # a fresh run bounds its support by the radius before binning
    radius0 = radius(positions) if start is mu0 else support_radius(mu0)
    c_sub = sublinear_constant(spec, start.dim)
    envelope = math.exp(c_sub * horizon) * (radius0 + 1.0)
    if envelope > n_param:
        raise ValidationError(
            f"N={n_param} too small: the support envelope "
            f"exp(C*T)*(R+1) = {envelope!r} exceeds N "
            f"(C={c_sub!r}, R={radius0!r}, T={horizon!r})",
            field="n_param")
    steps = [start]
    for ell in range(1, config.step_count + 1):
        rows, masses, unit = _step(rows, masses, positions, n_param, spec,
                                   unit)
        positions = rows / n_param ** 2
        bound = math.exp(c_sub * ell * config.dt) * (radius0 + 1.0)
        reach = radius(positions)
        if reach > bound * (1.0 + 1e-12):
            raise SupportBoundError(
                f"step {ell}: support radius {reach!r} exceeds the "
                f"a-priori bound {bound!r}; the declared sublinearity "
                f"constant C={c_sub!r} is too small for this field")
        steps.append(_lattice(n_param, start.dim, rows, masses))
    return Trajectory(config=config, steps=tuple(steps), pvf=spec,
                      initial_radius=radius0)


def interpolate(traj: Trajectory, t: float) -> DiscreteMeasure:
    """Measure at any time: between steps, atoms move along their binned
    velocities, x_i + s * v_j for the within-step offset s."""
    n = traj.config.n_param
    last = len(traj.steps) - 1
    if not (0.0 <= t <= last / n + 1e-12):
        raise ValidationError(
            f"t={t!r} outside [0, {last / n!r}]", field="t")
    ell = min(int(math.floor(t * n + 1e-12)), last)
    s = t - ell / n
    base = traj.steps[ell]
    if s <= 0.0 or ell == last:
        return base.to_measure()
    positions = base.position_rows()
    index, velocities, masses, _ = lift(traj.pvf, positions, base.masses,
                                        n_hint=n)
    moved = positions[index] + s * (_bin_velocity(velocities, n) / n)
    return _build(as_rows(moved, traj.dim), masses)
