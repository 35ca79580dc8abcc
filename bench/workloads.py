"""The benchmark's workloads: seeded inputs, the calls of one round, and
the checks on every call's output.

A workload is built once per process from its seed. Its round is a fixed
list of operations; each operation calls public mdelab functions and
carries named checks, each paired with a perturbation that the check
self-test feeds it. Inputs come from the benchmark's own
``random.Random`` stream, never from ``mdelab.rng``.

Every call goes through a module attribute at call time (``mdelab.X``,
``cli.run``), so the tracer's rebinding of those attributes sees it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import mdelab
import mdelab.cli as cli

from checks import (CheckFailed, assignment_w1, check_marginals, close,
                    dense_lp_w1, monotone_fiber_cost, require, uniform_atoms,
                    w1_1d)

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECIPE_DIR = ROOT / "scripts" / "recipes"


@dataclass
class Op:
    """One call of a round. ``collect`` turns the raw return value into
    the value that is checked and compared across rounds; it runs
    outside the timed span."""

    name: str
    call: Callable[[], Any]
    checks: dict[str, Callable[[Any], None]]
    perturb: dict[str, Callable[[Any], Any]]
    collect: Callable[[Any], Any] = field(default=lambda raw: raw)


# ---------------------------------------------------------------------------
# lattice_evolution

def _positions(step) -> np.ndarray:
    coords = np.array([c[0] for c in step.coords], dtype=np.int64)
    return coords / float(step.n_param ** 2)


def _check_masses(traj) -> None:
    for ell, step in enumerate(traj.steps):
        require(all(m > 0.0 for m in step.masses),
                f"step {ell}: non-positive mass")
        total = math.fsum(step.masses)
        require(abs(total - 1.0) <= 1e-12,
                f"step {ell}: masses sum to {total!r}")


def _check_radius(traj, c_sub: float, radius0: float) -> None:
    n = traj.config.n_param
    for ell, step in enumerate(traj.steps):
        bound = math.exp(c_sub * ell / n) * (radius0 + 1.0)
        radius = max(math.hypot(*c) for c in step.coords) / n ** 2
        require(radius <= bound * (1.0 + 1e-12),
                f"step {ell}: radius {radius!r} above bound {bound!r}")


def _check_closed_form(traj, law: Callable[[float], tuple], what: str) -> None:
    """Every step within 3/N in W1 of the closed-form law at its time."""
    n = traj.config.n_param
    for ell, step in enumerate(traj.steps):
        x, w = law(ell / n)
        gap = w1_1d(_positions(step), step.masses, x, w)
        require(gap <= 3.0 / n,
                f"{what}: step {ell} is {gap!r} from the closed form, "
                f"above 3/N = {3.0 / n!r}")


def _with_step(traj, ell: int, **changes):
    steps = list(traj.steps)
    steps[ell] = dataclasses.replace(steps[ell], **changes)
    return dataclasses.replace(traj, steps=tuple(steps))


def _mass_moved(traj):
    """Move a quarter of the first atom's mass onto the last atom, at
    the last step that has two atoms or more (the total is unchanged)."""
    ell = max(i for i, s in enumerate(traj.steps) if s.atom_count > 1)
    return _with_step(traj, ell,
                      masses=_measure_mass_moved(traj.steps[ell]).masses)


def _mass_added(traj):
    ell = len(traj.steps) // 2
    masses = list(traj.steps[ell].masses)
    masses[0] += 1e-6
    return _with_step(traj, ell, masses=tuple(masses))


def _atom_pushed_out(traj):
    ell = len(traj.steps) - 1
    coords = list(traj.steps[ell].coords)
    n = traj.config.n_param
    coords[-1] = (coords[-1][0] + 2 * n ** 3,) + coords[-1][1:]
    return _with_step(traj, ell, coords=tuple(coords))


def _step_shifted(traj):
    """Translate the last step by 4/N, beyond the 3/N closed-form window."""
    ell = len(traj.steps) - 1
    n = traj.config.n_param
    coords = tuple((c[0] + 4 * n,) + c[1:] for c in traj.steps[ell].coords)
    return _with_step(traj, ell, coords=coords)


def _measure_mass_moved(mu):
    masses = list(mu.masses)
    moved = 0.25 * masses[0]
    masses[0] -= moved
    masses[-1] += moved
    return dataclasses.replace(mu, masses=tuple(masses))


def _random_atoms(rng: random.Random, count: int, lo: float, hi: float):
    xs = [rng.uniform(lo, hi) for _ in range(count)]
    weights = [rng.uniform(0.2, 1.0) for _ in range(count)]
    total = math.fsum(weights)
    return xs, [w / total for w in weights]


def _trajectory_checks(c_sub: float, radius0: float):
    """The checks every lattice run gets, with their perturbations."""
    checks = {"masses": _check_masses,
              "radius_bound": lambda t: _check_radius(t, c_sub, radius0)}
    perturb = {"masses": _mass_added, "radius_bound": _atom_pushed_out}
    return checks, perturb


def _on_trajectory(checks: dict, perturb: dict):
    """Adapt trajectory checks to a (trajectory, interpolated) result."""
    def check(fn):
        return lambda r: fn(r[0])

    def perturbation(fn):
        return lambda r: (fn(r[0]), r[1])

    return ({k: check(fn) for k, fn in checks.items()},
            {k: perturbation(fn) for k, fn in perturb.items()})


def lattice_evolution(seed: int) -> list[Op]:
    rng = random.Random(f"lattice_evolution/{seed}")
    ops = []

    # two-speed constant field from a point: the binomial law, exactly
    n_two = 200
    x0 = rng.uniform(-0.5, 0.5)
    two_times = [(rng.randint(1, n_two - 2) + rng.uniform(0.1, 0.9)) / n_two
                 for _ in range(2)]
    two_speed = mdelab.constant_pvf([(-1.0, 0.5), (1.0, 0.5)])
    start = mdelab.dirac(x0)

    def run_two_speed():
        traj = mdelab.las_solve(start, two_speed, n_two, 1.0)
        return traj, tuple(mdelab.interpolate(traj, t) for t in two_times)

    c0 = _exact_floor(x0, n_two)

    def binomial(result):
        traj, _ = result
        for ell, step in enumerate(traj.steps):
            want = [c0 + (2 * j - ell) * n_two for j in range(ell + 1)]
            require([c[0] for c in step.coords] == want,
                    f"step {ell}: atoms off the binomial lattice")
            for j, m in enumerate(step.masses):
                law = math.comb(ell, j) / 2 ** ell
                require(abs(m - law) <= 1e-12 * law,
                        f"step {ell}, atom {j}: mass {m!r}, law {law!r}")

    def interpolated_binomial(result):
        _, measures = result
        for t, mu in zip(two_times, measures):
            ell = math.floor(t * n_two)
            s = t - ell / n_two
            want = sorted(
                ((c0 + (2 * j - ell) * n_two) / n_two ** 2 + sign * s,
                 math.comb(ell, j) / 2 ** (ell + 1))
                for j in range(ell + 1) for sign in (-1.0, 1.0))
            require(mu.atom_count == len(want),
                    f"t={t!r}: {mu.atom_count} atoms, want {len(want)}")
            for (p, m), (x, law) in zip(mu.atoms(), want):
                require(abs(p[0] - x) <= 1e-12 and abs(m - law) <= 1e-12 * law,
                        f"t={t!r}: atom ({p[0]!r}, {m!r}), "
                        f"want ({x!r}, {law!r})")

    checks, perturb = _on_trajectory(*_trajectory_checks(1.0, abs(x0)))
    checks.update(binomial=binomial,
                  interpolated_binomial=interpolated_binomial)
    perturb["binomial"] = lambda r: (_mass_moved(r[0]), r[1])
    perturb["interpolated_binomial"] = lambda r: (
        r[0], (_measure_mass_moved(r[1][0]),) + r[1][1:])
    ops.append(Op("two_speed", run_two_speed, checks, perturb))

    # median split of a uniform interval: two translated halves
    n_med = 160
    atoms_med = 200
    a = rng.uniform(-0.6, -0.4)
    b = a + rng.uniform(0.8, 1.0)
    med_time = (rng.randint(1, n_med - 2) + rng.uniform(0.1, 0.9)) / n_med
    uniform = mdelab.uniform_1d(a, b, atoms_med)
    median = mdelab.median_split_pvf()
    x_uni = a + (np.arange(atoms_med) + 0.5) * ((b - a) / atoms_med)
    w_uni = np.full(atoms_med, 1.0 / atoms_med)
    shift = np.where(np.arange(atoms_med) < atoms_med // 2, -1.0, 1.0)

    def run_median():
        traj = mdelab.las_solve(uniform, median, n_med, 1.0)
        return traj, mdelab.interpolate(traj, med_time)

    split_law = lambda t: (x_uni + shift * t, w_uni)

    def median_closed_form(result):
        _check_closed_form(result[0], split_law, "median split")

    def median_interpolated(result):
        mu = result[1]
        x, w = split_law(med_time)
        gap = w1_1d([p[0] for p in mu.positions], mu.masses, x, w)
        require(gap <= 3.0 / n_med,
                f"interpolation at t={med_time!r} is {gap!r} from the "
                "closed form")

    checks, perturb = _on_trajectory(
        *_trajectory_checks(1.0, max(abs(a), abs(b))))
    checks.update(closed_form=median_closed_form,
                  interpolated_closed_form=median_interpolated)
    perturb["closed_form"] = lambda r: (_step_shifted(r[0]), r[1])
    perturb["interpolated_closed_form"] = lambda r: (r[0], dataclasses.replace(
        r[1], positions=tuple((p[0] + 4.0 / n_med,) for p in r[1].positions)))
    ops.append(Op("median_split", run_median, checks, perturb))

    # rank-speed diffusion phi(r) = r - 1/2 from a point: uniform on
    # [x1 - t/2, x1 + t/2]. The field is not drawn from the seed: the
    # atom count, and so the cost, swings by a factor of four with it.
    n_phi = 40
    x1 = rng.uniform(-0.5, 0.5)
    slope, offset = 1.0, -0.5
    phi = mdelab.phi_diffusion_pvf(mdelab.linear_field(slope, offset))
    point = mdelab.dirac(x1)

    def run_phi():
        return mdelab.las_solve(point, phi, n_phi, 1.0)

    def phi_law(t):
        if t == 0.0:
            return np.array([x1]), np.array([1.0])
        return uniform_atoms(x1 + offset * t, x1 + (slope + offset) * t)

    checks, perturb = _trajectory_checks(
        max(abs(offset), abs(slope + offset)), abs(x1))
    checks["closed_form"] = lambda r: _check_closed_form(r, phi_law,
                                                         "phi diffusion")
    perturb["closed_form"] = _step_shifted
    ops.append(Op("phi_diffusion", run_phi, checks, perturb))

    # deterministic lift of v = -x: the exponential flow
    n_ode = 200
    xs_ode, ws_ode = _random_atoms(rng, 100, -1.0, 1.0)
    cloud = mdelab.make_measure([((x,), w) for x, w in zip(xs_ode, ws_ode)])
    decay = mdelab.ode_lift_pvf(mdelab.linear_field(-1.0))

    def run_ode():
        return mdelab.las_solve(cloud, decay, n_ode, 1.0)

    ode_law = lambda t: (np.asarray(xs_ode) * math.exp(-t), ws_ode)
    checks, perturb = _trajectory_checks(1.0, max(map(abs, xs_ode)))
    checks["closed_form"] = lambda r: _check_closed_form(r, ode_law,
                                                         "ode lift")
    perturb["closed_form"] = _step_shifted
    ops.append(Op("ode_lift", run_ode, checks, perturb))

    # one-sided square-root drift: finite-time collapse onto the origin
    n_one = 100
    xs_one, ws_one = _random_atoms(rng, 100, -1.0, 1.0)
    cloud_one = mdelab.make_measure(
        [((x,), w) for x, w in zip(xs_one, ws_one)])
    one_sided = mdelab.one_sided_ode_pvf()
    roots = np.sqrt(np.abs(xs_one))
    signs = np.sign(xs_one)

    def run_one_sided():
        return mdelab.las_solve(cloud_one, one_sided, n_one, 1.0)

    collapse_law = lambda t: (
        signs * np.maximum(roots - 0.5 * t, 0.0) ** 2, ws_one)
    checks, perturb = _trajectory_checks(0.5, max(map(abs, xs_one)))
    checks["closed_form"] = lambda r: _check_closed_form(r, collapse_law,
                                                         "one-sided drift")
    perturb["closed_form"] = _step_shifted
    ops.append(Op("one_sided_ode", run_one_sided, checks, perturb))

    # pairwise interaction with a seeded bump-alignment kernel
    n_int = 20
    reach = rng.uniform(0.8, 1.2)
    kernel = mdelab.make_kernel("bump_alignment", range=reach)
    xs_int, ws_int = _random_atoms(rng, 100, -1.0, 1.0)
    rows_int = [((x,), w) for x, w in zip(xs_int, ws_int)]
    crowd = mdelab.make_measure(rows_int)
    interaction = mdelab.interaction_pvf(kernel)
    shuffled = list(rows_int)
    rng.shuffle(shuffled)

    def run_interaction():
        return mdelab.las_solve(crowd, interaction, n_int, 1.0)

    def shuffle_invariant(traj):
        again = mdelab.las_solve(mdelab.make_measure(shuffled), interaction,
                                 n_int, 1.0)
        require(again.steps[-1] == traj.steps[-1],
                "last step changes when the initial atoms are shuffled")

    # sup |phi| = reach * max_u u exp(1 - 1/(1 - u^2)) on [0, 1)
    u = np.linspace(0.0, 1.0, 20001)[:-1]
    c_int = reach * float(np.max(u * np.exp(1.0 - 1.0 / (1.0 - u * u))))
    checks, perturb = _trajectory_checks(c_int, max(map(abs, xs_int)))
    checks["shuffle_invariant"] = shuffle_invariant
    perturb["shuffle_invariant"] = _mass_moved
    ops.append(Op("interaction", run_interaction, checks, perturb))
    return ops


def _exact_floor(x: float, n: int) -> int:
    """floor(x * N^2) of the exact binary value of x."""
    num, den = x.as_integer_ratio()
    return (num * n * n) // den


# ---------------------------------------------------------------------------
# transport_lp

def _measure(points: np.ndarray, weights: np.ndarray):
    return mdelab.make_measure(
        [(tuple(float(c) for c in p), float(w))
         for p, w in zip(points, weights)])


def _plan_checks(mu, nu, reference: Callable[[], float], rel: float):
    """Distance against an independent reference, plus the plan's
    marginals, cost and vertex size."""

    def distance(res):
        close(res.distance, reference(), rel, "distance vs reference")

    def plan(res):
        entries = res.plan.entries
        check_marginals(entries, np.asarray(mu.masses), np.asarray(nu.masses),
                        1e-12, "plan")
        cost = math.fsum(w * math.dist(mu.positions[i], nu.positions[k])
                         for i, k, w in entries)
        close(cost, res.distance, 1e-12, "plan cost vs distance")
        require(len(entries) <= mu.atom_count + nu.atom_count - 1,
                f"plan has {len(entries)} entries, more than a vertex")

    def shifted(res):
        return dataclasses.replace(res, distance=res.distance + 1e-6)

    def mass_moved(res):
        return dataclasses.replace(
            res, plan=_split_first_entry(res.plan, nu.atom_count))

    return ({"distance": distance, "plan": plan},
            {"distance": shifted, "plan": mass_moved})


def _split_first_entry(plan, cols: int):
    """Move half of a plan's first entry to the next column, which
    breaks the column marginals."""
    entries = list(plan.entries)
    i, k, w = entries[0]
    entries[0] = (i, k, 0.5 * w)
    entries.append((i, (k + 1) % cols, 0.5 * w))
    return dataclasses.replace(plan, entries=tuple(entries))


def _wasserstein_op(name, mu, nu, reference, rel) -> Op:
    checks, perturb = _plan_checks(mu, nu, reference, rel)
    return Op(name, lambda: mdelab.wasserstein(mu, nu), checks, perturb)


def _fiber_op(name: str, rng: random.Random, atoms: int) -> Op:
    sides = []
    for _ in range(2):
        x = np.array([rng.uniform(-1.0, 1.0) for _ in range(atoms)])
        freq = rng.uniform(2.0, 4.0)
        v = np.sin(freq * x) + np.array(
            [rng.gauss(0.0, 0.1) for _ in range(atoms)])
        sides.append((x, v, np.full(atoms, 1.0 / atoms)))
    v1, v2 = (mdelab.make_lifted([((float(a),), (float(b),), float(m))
                                  for a, b, m in zip(*s)]) for s in sides)
    (x1, u1, m1), (x2, u2, m2) = sides
    vel_w1 = w1_1d(u1, m1, u2, m2)
    base_w1 = w1_1d(x1, m1, x2, m2)
    monotone = monotone_fiber_cost(x1, u1, m1, x2, u2, m2)

    def fiber_of(plan) -> float:
        return math.fsum(w * abs(v1.velocities[a][0] - v2.velocities[b][0])
                         for a, b, w in plan.entries)

    def marginals(res):
        check_marginals(res[1].entries, np.asarray(v1.masses),
                        np.asarray(v2.masses), 1e-12, "lifted plan")

    def value_is_plan_cost(res):
        close(res[0], fiber_of(res[1]), 1e-9, "value vs plan fiber cost")

    def bounds(res):
        require(vel_w1 - 1e-9 <= res[0] <= monotone + 1e-9,
                f"value {res[0]!r} outside [W1 of velocities {vel_w1!r}, "
                f"monotone coupling {monotone!r}]")

    def base_optimal(res):
        cost = math.fsum(w * abs(v1.positions[a][0] - v2.positions[b][0])
                         for a, b, w in res[1].entries)
        # the LP relaxes base optimality by 1e-7 (1 + W1) and solves to a
        # feasibility tolerance of 1e-10 per constraint row
        require(cost <= base_w1 + 1e-7 * (1.0 + base_w1) + 1e-9,
                f"plan's base cost {cost!r} above W1 {base_w1!r}")

    def crossing(res):
        # reverse the pairing: anti-monotone in position
        value, plan = res
        entries = tuple((a, v2.atom_count - 1 - b, w)
                        for a, b, w in plan.entries)
        return value, dataclasses.replace(plan, entries=entries)

    checks = {"marginals": marginals, "value_is_plan_cost": value_is_plan_cost,
              "bounds": bounds, "base_optimal": base_optimal}
    perturb = {"marginals": lambda r: (
                   r[0], _split_first_entry(r[1], v2.atom_count)),
               "value_is_plan_cost": lambda r: (r[0] + 1e-6, r[1]),
               "bounds": lambda r: (vel_w1 - 1e-6, r[1]),
               "base_optimal": crossing}
    return Op(name, lambda: mdelab.constrained_fiber_cost(v1, v2),
              checks, perturb)


def _equal_mass_op(name: str, rng: random.Random, m: int) -> Op:
    p, q = _cloud(rng, m), _cloud(rng, m)
    w = np.full(m, 1.0 / m)
    return _wasserstein_op(name, _measure(p, w), _measure(q, w),
                           lambda: assignment_w1(p, q), 1e-12)


def _cloud(rng: random.Random, m: int) -> np.ndarray:
    return np.array([[rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
                     for _ in range(m)])


def transport_lp(seed: int) -> list[Op]:
    rng = random.Random(f"transport_lp/{seed}")
    ops = []
    for m, count in EQUAL_MASS_SIZES:
        ops += [_equal_mass_op(f"equal_2d_m{m}_{j}", rng, m)
                for j in range(count)]
    for (m, n), count in UNEQUAL_MASS_SIZES:
        for j in range(count):
            p, q = _cloud(rng, m), _cloud(rng, n)
            wp = np.array([rng.uniform(0.2, 1.0) for _ in range(m)])
            wq = np.array([rng.uniform(0.2, 1.0) for _ in range(n)])
            mu, nu = _measure(p, wp / wp.sum()), _measure(q, wq / wq.sum())
            # the reference LP sees the masses as the program holds them
            ops.append(_wasserstein_op(
                f"unequal_2d_{m}x{n}_{j}", mu, nu,
                lambda mu=mu, nu=nu: dense_lp_w1(
                    np.asarray(mu.positions), np.asarray(mu.masses),
                    np.asarray(nu.positions), np.asarray(nu.masses)), 1e-8))
    for j in range(LARGE_1D_PAIRS):
        xa = np.array([rng.gauss(0.0, 1.0) for _ in range(10_000)])
        xb = np.array([rng.gauss(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5))
                       for _ in range(7_000)])
        mu = _measure(xa[:, None], np.full(len(xa), 1.0 / len(xa)))
        nu = _measure(xb[:, None], np.full(len(xb), 1.0 / len(xb)))
        ops.append(_wasserstein_op(
            f"large_1d_{j}", mu, nu,
            lambda mu=mu, nu=nu: w1_1d(
                [p[0] for p in mu.positions], mu.masses,
                [p[0] for p in nu.positions], nu.masses), 1e-10))
    ops += [_fiber_op(f"fiber_m{FIBER_ATOMS}_{j}", rng, FIBER_ATOMS)
            for j in range(FIBER_INSTANCES)]
    # The largest sizes are single instances whose cost swings by half
    # from one random draw to the next; drawn from the seed they would
    # swamp round_p50_s, so they come from a fixed stream instead.
    anchors = random.Random("transport_lp/anchors")
    ops.append(_equal_mass_op("anchor_equal_2d_m32", anchors, 32))
    ops.append(_equal_mass_op("anchor_equal_2d_m40", anchors, 40))
    ops.append(_fiber_op("anchor_fiber_m200", anchors, 200))
    return ops


# (size, instances) drawn from the seed: many mid-size instances, since
# the simplex's pivot count, and so its time, varies by a third from one
# random instance to the next and only the sum over many is steady
EQUAL_MASS_SIZES = ((12, 16), (16, 16), (24, 2))
UNEQUAL_MASS_SIZES = (((24, 20), 6), ((32, 28), 4))
LARGE_1D_PAIRS = 2
FIBER_ATOMS = 100
FIBER_INSTANCES = 3


# ---------------------------------------------------------------------------
# recipe_audit

def _csv(text: bytes) -> list[dict]:
    lines = text.decode("utf-8").strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _recipe_doc(path: pathlib.Path,
                outdir: pathlib.Path) -> tuple[dict, pathlib.Path]:
    """Resolve a recipe's input paths relative to the recipe file and
    send its output to outdir, as scripts/reproduce.py does."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    options = dict(doc.get("options", {}))
    for key in ("pvf", "init", "kernel", "oracle"):
        if key in options:
            options[key] = str((path.parent / options[key]).resolve())
    if "inputs" in options:
        options["inputs"] = [str((path.parent / p).resolve())
                             for p in options["inputs"]]
    suffix = ".txt" if doc["subcommand"] in ("dist", "fiber-dist") else ".csv"
    out = outdir / (path.stem + suffix)
    options["out"] = str(out)
    doc["options"] = options
    return doc, out


def _byte_flip(old: bytes, new: bytes):
    return lambda text: text.replace(old, new, 1)


def _slope_at_least(low: float):
    def check(text):
        slope = float(_csv(text)[0]["slope"])
        require(slope >= low, f"slope {slope!r} below {low}")
    return check


def _errors(text) -> list[tuple[int, float]]:
    return [(int(r["N"]), float(r["error"])) for r in _csv(text)]


def _decay_rate(text) -> float:
    errors = _errors(text)
    (n1, e1), (n2, e2) = errors[0], errors[-1]
    return math.log(e1 / e2) / math.log(n2 / n1)


def _two_spike(text):
    rows = _csv(text)
    n = 10
    by_step: dict[int, list] = {}
    for r in rows:
        by_step.setdefault(round(float(r["t"]) * n), []).append(
            (float(r["x_1"]), float(r["mass"])))
    require(sorted(by_step) == list(range(n + 1)), "missing steps")
    require(by_step[0] == [(0.0, 1.0)], "step 0 is not the point at 0")
    for ell in range(1, n + 1):
        require(by_step[ell] == [(-ell / n, 0.5), (ell / n, 0.5)],
                f"step {ell}: {by_step[ell]} is not half at -t, half at +t")


def _triangle(text):
    values = [float(v) for v in text.split()]
    require(len(values) == 3 and all(
        abs(v - want) <= 1e-6 for v, want in zip(values, (1.0, 1.0, 3.0))),
        f"fiber triangle prints {values}, want 1, 1, 3")


def _stationary(text):
    residuals = [float(r["residual"]) for r in _csv(text)]
    require(residuals and all(r == 0.0 for r in residuals),
            f"stationary residuals {residuals} are not all 0")


def _selfchecks(text):
    rows = _csv(text)
    require(len(rows) == 4 and all(
        r["pass"] == "true" and float(r["margin"]) >= 0.0 for r in rows),
        f"self-checks did not all pass: {rows}")


def _gap_within(n: int, gaps) -> None:
    for t, gap in gaps:
        require(0.0 <= gap <= 10.0 / n,
                f"mean-field gap {gap!r} at t={t!r} above 10/N = {10.0 / n!r}")


def _mean_field_pair(text):
    _gap_within(24, [(float(r["t"]), float(r["gap"])) for r in _csv(text)])


def _concentration(text):
    rate = _decay_rate(text)
    require(0.4 <= rate <= 0.6, f"error decays like N^-{rate!r}, want N^-1/2")


def _sqrt_collapse(text):
    errors = _errors(text)
    require(all(e <= 1.0 / n for n, e in errors)
            and errors[-1][1] < errors[0][1],
            f"collapse errors {errors} not below 1/N and falling")


# recipe stem -> (check name, check, perturbation of the output bytes);
# each check is the property its recipe's description states
RECIPE_CHECKS = {
    "concentration-constant-field": (
        "rate_half", _concentration,
        _byte_flip(b"\n100,0.0", b"\n100,0.0000")),
    "exponential-decay-lift": (
        "first_order", _slope_at_least(0.8), _byte_flip(b",1.0", b",0.7")),
    "fiber-triangle-violation": (
        "prints_1_1_3", _triangle, _byte_flip(b"1\n", b"1.000002\n")),
    "mean-field-pair": (
        "gap_within_10_over_n", _mean_field_pair,
        _byte_flip(b",0.0", b",0.5")),
    "sqrt-collapse": (
        "collapses", _sqrt_collapse, _byte_flip(b"\n100,0.00", b"\n100,0.05")),
    "stationary-residual": (
        "residual_zero", _stationary, _byte_flip(b",0\n", b",1e-300\n")),
    "transport-selfcheck": (
        "all_pass", _selfchecks, _byte_flip(b"true", b"false")),
    "two-spike-split": (
        "spikes_at_plus_minus_t", _two_spike,
        _byte_flip(b",0.5\n", b",0.5000001\n")),
    "uniform-split-convergence": (
        "slope_at_least_0.8", _slope_at_least(0.8),
        _byte_flip(b",1.9", b",0.7")),
}


def read_output(out: pathlib.Path) -> bytes:
    """The bytes a CLI run wrote; compared across rounds byte for byte."""
    return out.read_bytes()


def recipe_audit(seed: int, outdir: pathlib.Path) -> list[Op]:
    rng = random.Random(f"recipe_audit/{seed}")
    paths = sorted(RECIPE_DIR.glob("*.json"))
    require(sorted(p.stem for p in paths) == sorted(RECIPE_CHECKS),
            f"shipped recipes {[p.stem for p in paths]} differ from the "
            "ones the benchmark checks")
    ops = []
    for path in paths:
        name, check, perturbation = RECIPE_CHECKS[path.stem]

        def run_recipe(path=path):
            doc, out = _recipe_doc(path, outdir)
            cli.run(cli.recipe_to_config(doc))
            return out

        ops.append(Op(path.stem, run_recipe, {name: check},
                      {name: perturbation}, collect=read_output))

    n_mf = 12
    state = mdelab.make_state(
        [rng.uniform(-1.0, 1.0) for _ in range(MEAN_FIELD_PARTICLES)])
    kernel = mdelab.make_kernel("bounded_attraction")

    def run_mean_field():
        return mdelab.meanfield_compare(state, kernel, n_mf, 1.0)

    ops.append(Op("meanfield_compare", run_mean_field,
                  {"gap_within_10_over_n": lambda g: _gap_within(n_mf, g)},
                  {"gap_within_10_over_n":
                   lambda g: g[:-1] + [(g[-1][0], g[-1][1] + 10.0 / n_mf)]}))
    return ops


MEAN_FIELD_PARTICLES = 24

WORKLOADS = {
    "lattice_evolution": lambda seed, outdir: lattice_evolution(seed),
    "transport_lp": lambda seed, outdir: transport_lp(seed),
    "recipe_audit": recipe_audit,
}


def check(op: Op, value) -> list[str]:
    """Run every check of op on value; return the failure messages."""
    failures = []
    for name, fn in op.checks.items():
        try:
            fn(value)
        except (CheckFailed, ValueError, KeyError, IndexError) as exc:
            # a malformed output fails its check rather than the benchmark
            failures.append(f"{op.name}/{name}: {exc!r}")
    return failures
