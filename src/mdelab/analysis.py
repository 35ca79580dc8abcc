"""Verification instruments for measure-valued dynamics.

Everything here measures, it never steers: weak-form residuals against
smooth compactly supported bumps, closed-form reference solutions for
the cataloged vector fields, convergence studies over a grid of lattice
resolutions, and semigroup and stability checks. The 1D monotone
fiber-cost evaluator is in fiber_metric, beside the LP it bounds.

A bump test function is a (center, radius) record. The residuals take
a whole bump family per time node in one array pass: s = |x-c|^2/r^2
over the (F, m, d) gaps, the kernels' cutoff of s for the means.

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

from .errors import ValidationError
from .las import Trajectory, ax_discretize, interpolate, las_solve
from .kernels import _bump
from .measure import DiscreteMeasure, _build, as_rows, dirac, exact_row_sums, \
    make_measure, push_forward, squared_norms, support_radius, uniform_1d
from .pvf import PvfSpec, VelocityField, _horner, lift
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
        if not 1e-150 < self.radius < 1e150:  # r^2, 2/r^2 stay normal
            raise ValidationError(f"bump radius must lie in (1e-150, 1e150), "
                                  f"got {self.radius!r}", field="radius")


def bump_family(dim: int, reach: float, count: int = 5) -> list[TestFunction]:
    """Bumps covering the ball B(0, reach): centers spread along the
    first axis, radius wide enough that the family sees every point."""
    return [TestFunction(center=((k - (count - 1) / 2) * 0.4 * reach,)
                         + (0.0,) * (dim - 1), radius=1.2 * reach)
            for k in range(count)]


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
    nodes = list(flow.times[:flow.step_at(t) + 1])
    if t > nodes[-1] + 1e-15:
        nodes.append(t)
    return nodes


def _bump_pass(centers, r2, positions) -> tuple[np.ndarray, np.ndarray]:
    """The gaps x - c (F, m, d) of the m atoms from the F centers, and
    s = |x - c|^2 / r^2 (F, m); an s past the float range is inf."""
    gaps = positions[None, :, :] - centers[:, None, :]
    try:
        sums = squared_norms(gaps.reshape(-1, positions.shape[1]))
    except OverflowError:
        raise ValidationError("|x - c|^2 overflows for a test function "
                              "center", field="center") from None
    with np.errstate(over="ignore"):
        return gaps, sums.reshape(gaps.shape[:2]) / r2[:, None]


def _means(s, masses) -> np.ndarray:
    """int f dmu of every bump, each one exact math.fsum."""
    return exact_row_sums(masses * _bump(s))


def _fluxes(flow, mu, gaps, s, r2) -> np.ndarray:
    """int grad(f).v dV[mu] of every bump, the atoms' gaps and s taken
    by lift's source index; a trajectory lifts with its N, as las_step."""
    n_hint = None if isinstance(flow, StationaryFlow) else flow.config.n_param
    index, velocities, weights, _ = lift(flow.pvf, mu.positions, mu.masses,
                                         n_hint)
    u = s.take(index, axis=1)
    inside = u < 1.0
    scale = np.zeros(u.shape)
    rest = 1.0 - u[inside]
    scale[inside] = -np.exp(1.0 - 1.0 / rest) / rest ** 2
    scale *= (2.0 / r2)[:, None]
    dots = (gaps.take(index, axis=1) * velocities).sum(axis=2)
    return (weights * scale * dots).sum(axis=1)


def _residuals(flow, family, t: float, a_coeffs=(1.0,)) -> list[float]:
    """Residual of each test function f of the family against the
    space-time test a(s) f(x) of distributional_residual, a the
    polynomial a_coeffs. One pass per time node evaluates the whole
    family, one pass in all for a stationary flow; int f dmu(s) is
    taken where a'(s) != 0."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValidationError(f"residual time must be finite and >= 0, "
                              f"got {t!r}", field="t")
    if isinstance(flow, Trajectory):
        if t > flow.end_time + 1e-12:
            raise ValidationError(f"t={t!r} beyond trajectory horizon "
                                  f"{flow.end_time!r}", field="t")
    mu_start, mu_end = _measure_at(flow, 0.0), _measure_at(flow, t)
    for f in family:
        if len(f.center) != mu_start.dim or not all(map(math.isfinite,
                                                         f.center)):
            raise ValidationError(
                f"test function center {f.center!r} is not a finite point "
                f"of the flow's {mu_start.dim}D space", field="center")
    centers = np.array([f.center for f in family], dtype=float)
    r2 = np.square([f.radius for f in family])
    a_coeffs = tuple(float(c) for c in a_coeffs)
    da = tuple(i * c for i, c in enumerate(a_coeffs))[1:] or (0.0,)
    nodes = _time_grid(flow, t)
    stationary = isinstance(flow, StationaryFlow)
    if stationary:
        # every node carries the one measure: one lift, one family pass
        gaps, s = _bump_pass(centers, r2, mu_start.positions)
        stationary_fluxes = _fluxes(flow, mu_start, gaps, s, r2)
        mean_start = mean_end = _means(s, mu_start.masses)
    else:
        mean_start, mean_end = (
            _means(_bump_pass(centers, r2, mu.positions)[1], mu.masses)
            for mu in (mu_start, mu_end))
    integrand = []
    for node in nodes:
        slope = _horner(da, node)
        if stationary:
            fluxes, means = stationary_fluxes, mean_start
        else:
            mu = _measure_at(flow, node)
            gaps, s = _bump_pass(centers, r2, mu.positions)
            fluxes = _fluxes(flow, mu, gaps, s, r2)
            means = None if slope == 0.0 else _means(s, mu.masses)
        flux = _horner(a_coeffs, node) * fluxes
        integrand.append(flux if slope == 0.0 else slope * means + flux)
    # the trapezoid rule on the nodes, one exact fsum per bump
    v = np.array(integrand)
    terms = 0.5 * (v[:-1] + v[1:]) * np.diff(nodes)[:, None]
    lhs = _horner(a_coeffs, t) * mean_end
    rhs = _horner(a_coeffs, 0.0) * mean_start + exact_row_sums(terms.T)
    return np.abs(lhs - rhs).tolist()


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
    mu0 = _measure_at(flow, 0.0)
    if reach is None:
        reach = (support_radius(mu0) + 1.0 if isinstance(flow, StationaryFlow)
                 else flow.reach())
    return max(0.0, *_residuals(flow, bump_family(mu0.dim, reach), t))


# ---------------------------------------------------------------------------
# closed-form oracles

def _ode_flow_map(field: VelocityField, t: float):
    from scipy.integrate import solve_ivp  # loaded on first use

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
        vbar = exact_row_sums(weighted.T)
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


def _study_one(spec: PvfSpec, mu0: DiscreteMeasure, references,
               horizon: float, n: int) -> tuple[int, float, float]:
    t0 = time.perf_counter()
    traj = las_solve(mu0, spec, n, horizon)
    err = max(
        wasserstein(interpolate(traj, fr * horizon), reference).distance
        for fr, reference in zip(SAMPLE_FRACTIONS, references))
    return n, err, time.perf_counter() - t0


def convergence_study(spec: PvfSpec, mu0: DiscreteMeasure, oracle_ref,
                      horizon: float, n_grid) -> ConvergenceReport:
    """Max-over-time W error against the oracle at each N, with a
    log-log least-squares slope when three or more grid points exist.

    The oracle depends on t alone, so it is evaluated once per sample
    time and shared by every N; an entry's runtime is the lattice solve
    and its W errors, without the oracle."""
    name, params = oracle_ref
    references = [oracle(name, params, fr * horizon)
                  for fr in SAMPLE_FRACTIONS]
    rows = [_study_one(spec, mu0, references, horizon, n)
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
    if full == end:
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
    """Re-verify every step's radius against its envelope (las)."""
    return all(step.support_radius() <= traj.reach(ell) * (1.0 + 1e-12)
               for ell, step in enumerate(traj.steps))


def time_lipschitz_check(traj: Trajectory, times) -> bool:
    """W(mu(t), mu(s)) <= traj.time_lipschitz |t-s| on sampled pairs."""
    rate = traj.time_lipschitz
    times = [float(t) for t in times]
    measures = [interpolate(traj, t) for t in times]
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            gap = wasserstein(measures[i], measures[j]).distance
            if gap > rate * abs(times[i] - times[j]) + 1e-12:
                return False
    return True


def step_displacement_check(traj: Trajectory) -> bool:
    """Consecutive steps move at most traj.time_lipschitz dt apart."""
    limit = traj.time_lipschitz * traj.config.dt
    return all(
        wasserstein(a.to_measure(), b.to_measure()).distance
        <= limit * (1.0 + 1e-9) + 1e-15
        for a, b in zip(traj.steps, traj.steps[1:]))

