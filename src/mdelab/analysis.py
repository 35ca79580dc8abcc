"""Verification instruments for measure-valued dynamics.

Everything here measures, it never steers: weak-form residuals against
smooth compactly supported bumps, closed-form reference solutions for
the cataloged vector fields, convergence studies over a grid of lattice
resolutions, semigroup and stability checks, and a monotone-coupling
evaluator for one-dimensional fiber costs.

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
from .fiber_metric import FiberCostKind
from .las import Trajectory, ax_discretize, interpolate, las_solve
from .measure import DiscreteMeasure, LiftedMeasure, dirac, make_measure, \
    push_forward, support_radius, uniform_1d
from .pvf import PvfSpec, VelocityField, evaluate, sublinear_constant
from .transport import _northwest, wasserstein

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


def _lifted_flux(lifted: LiftedMeasure, f: TestFunction) -> float:
    """Integral of grad(f)(x) . v against one lifted measure, as a
    vectorized scan (the per-atom python loop dominated residual audits)."""
    pos = np.asarray(lifted.positions, dtype=float)
    d = pos - np.asarray(f.center, dtype=float)
    u = (d * d).sum(axis=1) / f.radius ** 2
    inside = u < 1.0
    if not inside.any():
        return 0.0
    scale = np.zeros(len(u))
    ui = u[inside]
    scale[inside] = (-np.exp(1.0 - 1.0 / (1.0 - ui)) / (1.0 - ui) ** 2
                     * (2.0 / f.radius ** 2))
    vel = np.asarray(lifted.velocities, dtype=float)
    w = np.asarray(lifted.masses, dtype=float)
    return float(np.sum(w * scale * (d * vel).sum(axis=1)))


def _mean(f: TestFunction, mu: DiscreteMeasure) -> float:
    return math.fsum(m * f.value(p) for p, m in mu.atoms())


def _residuals(flow, family, t: float) -> list[float]:
    """Weak residual of each test function in the family; the field is
    evaluated once per time node and shared across the family."""
    if isinstance(flow, Trajectory):
        horizon = (len(flow.steps) - 1) / flow.config.n_param
        if t > horizon + 1e-12:
            raise ValidationError(
                f"t={t!r} beyond trajectory horizon {horizon!r}", field="t")
    nodes = _time_grid(flow, t)
    lifteds = [evaluate(flow.pvf, _measure_at(flow, s)) for s in nodes]
    mu_start = _measure_at(flow, 0.0)
    mu_end = _measure_at(flow, t)
    residuals = []
    for f in family:
        fluxes = [_lifted_flux(lifted, f) for lifted in lifteds]
        rhs = _mean(f, mu_start) + _trapezoid(nodes, fluxes)
        residuals.append(abs(_mean(f, mu_end) - rhs))
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
    a_coeffs = tuple(float(c) for c in a_coeffs)
    da = tuple(i * c for i, c in enumerate(a_coeffs))[1:] or (0.0,)

    def poly(cs, s):
        acc = 0.0
        for c in reversed(cs):
            acc = acc * s + c
        return acc

    nodes = _time_grid(flow, t)
    integrand = []
    for s in nodes:
        mu_s = _measure_at(flow, s)
        integrand.append(poly(da, s) * _mean(f, mu_s) +
                         poly(a_coeffs, s) *
                         _lifted_flux(evaluate(flow.pvf, mu_s), f))
    lhs = poly(a_coeffs, t) * _mean(f, _measure_at(flow, t))
    rhs = (poly(a_coeffs, 0.0) * _mean(f, _measure_at(flow, 0.0)) +
           _trapezoid(nodes, integrand))
    return abs(lhs - rhs)


def max_family_residual(flow, t: float, reach: float | None = None) -> float:
    if isinstance(flow, StationaryFlow):
        dim = flow.measure.dim
        if reach is None:
            reach = support_radius(flow.measure).radius + 1.0
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
        rows = []
        for lo, hi in ((a - t, mid - t), (mid + t, b + t)):
            width = (hi - lo) / k
            rows.extend(((lo + (i + 0.5) * width,), 0.5 / k)
                        for i in range(k))
        return make_measure(rows, dim=1)
    if name == "constant_drift":
        mu0 = params["mu0"]
        fiber = params["fiber"]
        dim = mu0.dim
        vbar = tuple(
            math.fsum(p * ((vel,) if isinstance(vel, (int, float))
                           else tuple(vel))[c] for vel, p in fiber)
            for c in range(dim))
        return push_forward(
            mu0, lambda x: tuple(xc + t * vc for xc, vc in zip(x, vbar)))
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
    the recursion is deterministic, so this must be exactly 0."""
    for label, val in (("s", s), ("t", t)):
        if abs(val * n - round(val * n)) > 1e-9:
            raise ValidationError(
                f"{label}={val!r} is not a multiple of 1/N", field=label)
    if s + t <= 0:
        return 0.0
    full = (las_solve(mu0, spec, n, s + t).steps[-1] if s + t > 0
            else ax_discretize(mu0, n))
    mid = (las_solve(mu0, spec, n, s).steps[-1] if s > 0
           else ax_discretize(mu0, n))
    end = (las_solve(mid, spec, n, t).steps[-1] if t > 0 else mid)
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


# ---------------------------------------------------------------------------
# monotone evaluator for 1D fiber costs

def monotone_fiber_cost_1d(v1: LiftedMeasure, v2: LiftedMeasure,
                           kind: FiberCostKind = FiberCostKind.FIBER,
                           ) -> float:
    """Fiber cost under the quantile coupling that is monotone in
    position, and within tied positions monotone in velocity. An upper
    bound for the constrained LP optimum in general; equal to it when
    the monotone plan is the unique optimal base plan."""
    if v1.dim != 1 or v2.dim != 1:
        raise ValidationError("monotone evaluator is one-dimensional only",
                              field="dim")
    if not isinstance(kind, FiberCostKind):
        kind = FiberCostKind(kind)
    # atoms are already sorted by (position, velocity)
    terms = []
    for i, j, frag in _northwest(v1.masses, v2.masses):
        x = v1.positions[i][0]
        y = v2.positions[j][0]
        v = v1.velocities[i][0]
        w = v2.velocities[j][0]
        if kind is FiberCostKind.FIBER:
            cost = abs(v - w)
        elif kind is FiberCostKind.COMBINED:
            cost = abs(x - y) + abs(v - w)
        else:
            cost = 0.0 if x == y else (v - w) * math.copysign(1.0, x - y)
        terms.append(frag * cost)
    return math.fsum(terms)
