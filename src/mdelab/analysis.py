"""Verification instruments for measure-valued dynamics.

Everything here measures, it never steers: weak-form residuals against
smooth compactly supported bumps, closed-form reference solutions for
the cataloged vector fields, convergence studies over a grid of lattice
resolutions, and semigroup and stability checks. The 1D monotone
fiber-cost evaluator is in fiber_metric, beside the LP it bounds.

Error accounting is explicit: oracles for absolutely continuous
solutions are discretized with M atoms (default 200) and carry an
oracle floor of order (support length)/M which callers add to their
tolerances, rather than burying it in slack factors.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ValidationError
from .las import Trajectory, ax_discretize, interpolate, las_solve
from .measure import DiscreteMeasure, _build, as_rows, dirac, make_measure, \
    push_forward, support_radius, uniform_1d
from .pvf import PvfSpec, VelocityField, _horner, lift, sublinear_constant
from .transport import wasserstein

ORACLE_ATOMS_DEFAULT = 200
SAMPLE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


# ---------------------------------------------------------------------------
# smooth compactly supported test functions

@dataclass(frozen=True)
class TestFunction:
    """Bump f(x) = exp(1 - 1/(1 - |x-c|^2/r^2)) inside B(c, r), 0 outside."""

    __test__ = False  # not a pytest class, despite the name

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValidationError(
                f"bump radius must be finite and > 0, got {self.radius!r}",
                field="radius")

    def value(self, x) -> float:
        u = math.fsum((a - b) ** 2 for a, b in
                      zip(x, self.center)) / self.radius ** 2
        if u >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - u))

    def grad(self, x) -> tuple[float, ...]:
        u = math.fsum((a - b) ** 2 for a, b in
                      zip(x, self.center)) / self.radius ** 2
        if u >= 1.0:
            return (0.0,) * len(self.center)
        f = math.exp(1.0 - 1.0 / (1.0 - u))
        scale = -f / (1.0 - u) ** 2 * (2.0 / self.radius ** 2)
        return tuple(scale * (a - b) for a, b in zip(x, self.center))


def bump_family(dim: int, reach: float, count: int = 5) -> list[TestFunction]:
    """Bumps covering the ball B(0, reach): centers spread along the
    first axis, radius wide enough that the family sees every point."""
    radius = 1.2 * reach
    family = []
    for k in range(count):
        offset = (k - (count - 1) / 2) * 0.4 * reach
        center = (offset,) + (0.0,) * (dim - 1)
        family.append(TestFunction(center=center, radius=radius))
    return family


def trajectory_reach(traj: Trajectory) -> float:
    c = sublinear_constant(traj.pvf, traj.dim)
    return math.exp(c * traj.config.horizon) * (traj.initial_radius + 1.0)


# ---------------------------------------------------------------------------
# weak-form residuals

@dataclass(frozen=True)
class StationaryFlow:
    """Constant-in-time candidate solution, for closed-form cases."""

    measure: DiscreteMeasure
    pvf: PvfSpec


def _measure_at(flow, t: float) -> DiscreteMeasure:
    if isinstance(flow, StationaryFlow):
        return flow.measure
    return interpolate(flow, t)


def _time_grid(flow, t: float) -> list[float]:
    if isinstance(flow, StationaryFlow):
        return [t * k / 8.0 for k in range(9)] if t > 0 else [0.0]
    n = flow.config.n_param
    last_step = min(int(math.floor(t * n + 1e-12)), len(flow.steps) - 1)
    nodes = [ell / n for ell in range(last_step + 1)]
    if t > nodes[-1] + 1e-15:
        nodes.append(t)
    return nodes


def _trapezoid(nodes: list[float], values: list[float]) -> float:
    return math.fsum(0.5 * (values[i] + values[i + 1]) *
                     (nodes[i + 1] - nodes[i])
                     for i in range(len(nodes) - 1))


def _lifted_arrays(flow, mu: DiscreteMeasure) -> tuple[np.ndarray, ...]:
    """The flow's PVF at mu as position, velocity and mass arrays. A
    trajectory's PVF is lifted with its own N, as las_step lifts it."""
    n_hint = None if isinstance(flow, StationaryFlow) else flow.config.n_param
    index, velocities, masses = lift(flow.pvf, mu.positions, mu.masses,
                                     n_hint)
    return mu.positions[index], velocities, masses


def _lifted_flux(pos, vel, w, f: TestFunction) -> float:
    """Integral of grad(f)(x) . v against _lifted_arrays, vectorized."""
    d = pos - np.asarray(f.center, dtype=float)
    u = (d * d).sum(axis=1) / f.radius ** 2
    inside = u < 1.0
    if not inside.any():
        return 0.0
    scale = np.zeros(len(u))
    ui = u[inside]
    scale[inside] = (-np.exp(1.0 - 1.0 / (1.0 - ui)) / (1.0 - ui) ** 2
                     * (2.0 / f.radius ** 2))
    return float(np.sum(w * scale * (d * vel).sum(axis=1)))


def _mean(f: TestFunction, mu: DiscreteMeasure) -> float:
    return math.fsum(m * f.value(p) for p, m in
                     zip(mu.positions.tolist(), mu.masses.tolist()))


def _residuals(flow, family, t: float, a_coeffs=(1.0,)) -> list[float]:
    """Residual of each test function f of the family against the
    space-time test a(s) f(x) of distributional_residual, a the
    polynomial a_coeffs. The field is evaluated once per time node and
    shared across the family; int f dmu(s) is taken where a'(s) != 0."""
    if isinstance(flow, Trajectory):
        horizon = (len(flow.steps) - 1) / flow.config.n_param
        if t > horizon + 1e-12:
            raise ValidationError(
                f"t={t!r} beyond trajectory horizon {horizon!r}", field="t")
    mu_start = _measure_at(flow, 0.0)
    for f in family:
        if len(f.center) != mu_start.dim:
            raise ValidationError(
                f"test function center {f.center!r} is not a point of "
                f"the flow's {mu_start.dim}D space", field="center")
    a_coeffs = tuple(float(c) for c in a_coeffs)
    da = tuple(i * c for i, c in enumerate(a_coeffs))[1:] or (0.0,)
    nodes = _time_grid(flow, t)
    measures = [_measure_at(flow, s) for s in nodes]
    lifteds = [_lifted_arrays(flow, mu) for mu in measures]
    weights = [(_horner(da, s), _horner(a_coeffs, s)) for s in nodes]
    mu_end = _measure_at(flow, t)
    residuals = []
    for f in family:
        integrand = []
        for (slope, a), mu, lifted in zip(weights, measures, lifteds):
            flux = a * _lifted_flux(*lifted, f)
            integrand.append(flux if slope == 0.0 else
                             slope * _mean(f, mu) + flux)
        lhs = _horner(a_coeffs, t) * _mean(f, mu_end)
        rhs = (_horner(a_coeffs, 0.0) * _mean(f, mu_start)
               + _trapezoid(nodes, integrand))
        residuals.append(abs(lhs - rhs))
    return residuals


def weak_residual(flow, f: TestFunction, t: float) -> float:
    """|int f dmu(t) - int f dmu(0) - int_0^t int grad(f).v dV[mu(s)] ds|,
    space integrals exact atomic sums, time integral trapezoidal on the
    flow's step grid."""
    return _residuals(flow, [f], t)[0]


def distributional_residual(flow, f: TestFunction,
                            a_coeffs, t: float) -> float:
    """Residual for the separable space-time test g(s, x) = a(s) f(x)
    with a a polynomial: a(t) int f dmu(t) - a(0) int f dmu(0)
    - int_0^t [a'(s) int f dmu(s) + a(s) flux(s)] ds."""
    return _residuals(flow, [f], t, a_coeffs)[0]


def max_family_residual(flow, t: float, reach: float | None = None) -> float:
    if isinstance(flow, StationaryFlow):
        dim = flow.measure.dim
        if reach is None:
            reach = support_radius(flow.measure) + 1.0
    else:
        dim = flow.dim
        if reach is None:
            reach = trajectory_reach(flow)
    return max(0.0, *_residuals(flow, bump_family(dim, reach), t))


# ---------------------------------------------------------------------------
# closed-form oracles

def _ode_flow_map(field: VelocityField, t: float):
    def flow(pos):
        if t == 0.0:
            return pos
        sol = solve_ivp(lambda _, y: list(field(tuple(y))),
                        (0.0, t), list(pos),
                        method="RK45", rtol=1e-10, atol=1e-12,
                        dense_output=False)
        if not sol.success:
            raise ValidationError(f"reference ODE integration failed: "
                                  f"{sol.message}")
        return tuple(float(c) for c in sol.y[:, -1])
    return flow


def _collapse_map(t: float):
    def flow(pos):
        out = []
        for c in pos:
            root = math.sqrt(abs(c))
            if t >= 2.0 * root:
                out.append(0.0)
            else:
                out.append(math.copysign((root - 0.5 * t) ** 2, c))
        return tuple(out)
    return flow


def oracle(name: str, params: dict, t: float) -> DiscreteMeasure:
    """Closed-form solution measures; absolutely continuous ones are
    returned as M-atom midpoint discretizations (params['atoms'],
    default 200)."""
    if t < 0:
        raise ValidationError("oracle time must be >= 0", field="t")
    atoms = int(params.get("atoms", ORACLE_ATOMS_DEFAULT))
    if name == "median_split_delta":
        x0 = float(params["x0"])
        if t == 0.0:
            return dirac(x0)
        return make_measure([(x0 - t, 0.5), (x0 + t, 0.5)])
    if name == "median_split_uniform":
        a, b = float(params["a"]), float(params["b"])
        mid = 0.5 * (a + b)
        k = max(1, atoms // 2)
        halves = [lo + (np.arange(k) + 0.5) * ((hi - lo) / k)
                  for lo, hi in ((a - t, mid - t), (mid + t, b + t))]
        return _build(as_rows(np.concatenate(halves)), np.full(2 * k, 0.5 / k))
    if name == "constant_drift":
        mu0, fiber = params["mu0"], params["fiber"]
        weighted = (np.array([p for _, p in fiber], dtype=float)[:, None]
                    * as_rows([vel for vel, _ in fiber], mu0.dim, "velocity"))
        vbar = np.array([math.fsum(col) for col in weighted.T.tolist()])
        images = as_rows(mu0.positions + t * vbar, mu0.dim, "image")
        return _build(images, mu0.masses, check=False)
    if name == "ode_flow":
        return push_forward(params["mu0"], _ode_flow_map(params["field"], t))
    if name == "phi_linear":
        if t == 0.0:
            return dirac(0.0)
        return uniform_1d(-0.5 * t, 0.5 * t, atoms)
    if name == "one_sided_collapse":
        return push_forward(params["mu0"], _collapse_map(t))
    raise ValidationError(f"unknown oracle {name!r}", field="name")


# ---------------------------------------------------------------------------
# convergence studies

@dataclass(frozen=True)
class ConvergenceReport:
    entries: tuple[tuple[int, float, float], ...]  # (N, error, runtime s)
    slope: float | None

    @property
    def errors(self) -> dict[int, float]:
        return {n: err for n, err, _ in self.entries}


def _study_one(spec: PvfSpec, mu0: DiscreteMeasure, oracle_ref,
               horizon: float, n: int) -> tuple[int, float, float]:
    name, params = oracle_ref
    t0 = time.perf_counter()
    traj = las_solve(mu0, spec, n, horizon)
    err = max(
        wasserstein(interpolate(traj, fr * horizon),
                    oracle(name, params, fr * horizon)).distance
        for fr in SAMPLE_FRACTIONS)
    return n, err, time.perf_counter() - t0


def convergence_study(spec: PvfSpec, mu0: DiscreteMeasure, oracle_ref,
                      horizon: float, n_grid) -> ConvergenceReport:
    """Max-over-time W error against the oracle at each N, with a
    log-log least-squares slope when three or more grid points exist."""
    rows = [_study_one(spec, mu0, oracle_ref, horizon, n)
            for n in sorted(int(n) for n in n_grid)]
    slope = None
    if len(rows) >= 3 and all(err > 0.0 for _, err, _ in rows):
        xs = [math.log(n) for n, _, _ in rows]
        ys = [math.log(err) for _, err, _ in rows]
        xbar = math.fsum(xs) / len(xs)
        ybar = math.fsum(ys) / len(ys)
        num = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        den = math.fsum((x - xbar) ** 2 for x in xs)
        slope = -num / den  # positive slope = error decays like N^-slope
    return ConvergenceReport(entries=tuple(rows), slope=slope)


# ---------------------------------------------------------------------------
# semigroup / stability / support checks

def semigroup_check(spec: PvfSpec, mu0: DiscreteMeasure, n: int,
                    s: float, t: float) -> float:
    """W between the (s+t)-run endpoint and the two-leg run endpoint;
    the recursion is deterministic, so this must be exactly 0. Equal
    endpoints return 0.0 at once; only a mismatch solves the W LP."""
    for label, val in (("s", s), ("t", t)):
        if abs(val * n - round(val * n)) > 1e-9:
            raise ValidationError(
                f"{label}={val!r} is not a multiple of 1/N", field=label)
    if s + t <= 0:
        return 0.0
    full = las_solve(mu0, spec, n, s + t).steps[-1]
    mid = (las_solve(mu0, spec, n, s).steps[-1] if s > 0
           else ax_discretize(mu0, n))
    end = (las_solve(mid, spec, n, t).steps[-1] if t > 0 else mid)
    if (full.coords, full.masses) == (end.coords, end.masses):
        return 0.0
    return wasserstein(full.to_measure(), end.to_measure()).distance


def gronwall_check(spec: PvfSpec, mu0: DiscreteMeasure,
                   nu0: DiscreteMeasure, n: int, horizon: float,
                   k_const: float) -> bool:
    """Two runs stay within exp(K l dt)(W(mu0,nu0) + dx + dt/K) of each
    other at every step."""
    if not k_const > 0:
        raise ValidationError("K must be positive", field="k_const")
    w0 = wasserstein(mu0, nu0).distance
    traj_mu = las_solve(mu0, spec, n, horizon)
    traj_nu = las_solve(nu0, spec, n, horizon)
    dt = traj_mu.config.dt
    budget0 = w0 + 1.0 / n ** 2 + dt / k_const
    for ell, (a, b) in enumerate(zip(traj_mu.steps, traj_nu.steps)):
        gap = wasserstein(a.to_measure(), b.to_measure()).distance
        bound = math.exp(k_const * ell * dt) * budget0
        if gap > bound * (1.0 + 1e-9) + 1e-12:
            return False
    return True


def support_bound_check(traj: Trajectory) -> bool:
    """Re-verify every step's radius against exp(C l dt)(R+1)."""
    c = sublinear_constant(traj.pvf, traj.dim)
    r0 = traj.initial_radius
    dt = traj.config.dt
    return all(
        step.support_radius() <= math.exp(c * ell * dt) * (r0 + 1.0)
        * (1.0 + 1e-12)
        for ell, step in enumerate(traj.steps))


def time_lipschitz_check(traj: Trajectory, times) -> bool:
    """W(mu(t), mu(s)) <= C exp(CT)(R+1)|t-s| over all sampled pairs."""
    c = sublinear_constant(traj.pvf, traj.dim)
    rate = c * math.exp(c * traj.config.horizon) * (traj.initial_radius + 1.0)
    times = [float(t) for t in times]
    measures = [interpolate(traj, t) for t in times]
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            gap = wasserstein(measures[i], measures[j]).distance
            if gap > rate * abs(times[i] - times[j]) + 1e-12:
                return False
    return True


def step_displacement_check(traj: Trajectory) -> bool:
    """Consecutive steps move at most C exp(CT)(R+1) dt apart."""
    c = sublinear_constant(traj.pvf, traj.dim)
    limit = (c * math.exp(c * traj.config.horizon)
             * (traj.initial_radius + 1.0) * traj.config.dt)
    return all(
        wasserstein(a.to_measure(), b.to_measure()).distance
        <= limit * (1.0 + 1e-9) + 1e-15
        for a, b in zip(traj.steps, traj.steps[1:]))


def uniqueness_proxy(spec: PvfSpec, mu0: DiscreteMeasure, oracle_ref,
                     horizon: float, n: int, tol: float) -> bool:
    """Oracle agreement at both N and 2N certifies a single limit point
    for this initial datum at the stated tolerance."""
    report = convergence_study(spec, mu0, oracle_ref, horizon, [n, 2 * n])
    return all(err <= tol for _, err, _ in report.entries)
