"""Acceptance gate: thirteen numbered criteria, one verdict line each.

Every criterion records its PASS/FAIL line (printed in the terminal
summary by conftest) before asserting, so a red criterion still shows up
in the report. Lattice runs shared between criteria are memoized; the
stated runtime budgets apply to each criterion's own marginal work.
"""

import math
import time

from conftest import acceptance_report

from mdelab import (
    FiberCostKind,
    SplitMix64,
    add_fields,
    constant_pvf,
    constrained_fiber_cost,
    convergence_study,
    dirac,
    evaluate,
    fiber_convolution,
    gronwall_check,
    integrate,
    interpolate,
    las_solve,
    make_kernel,
    make_lifted,
    make_measure,
    make_state,
    max_family_residual,
    meanfield_compare,
    median_split_pvf,
    monotone_fiber_cost_1d,
    ode_lift_pvf,
    one_sided_ode_pvf,
    oracle,
    permute_state,
    run_all_checks,
    scalar_action,
    scale_field,
    semigroup_check,
    support_bound_check,
    support_radius,
    time_lipschitz_check,
    uniform_1d,
    wasserstein,
)
from mdelab.analysis import SAMPLE_FRACTIONS, StationaryFlow
from mdelab.pvf import linear_field

from _constructions import MIXED_5, RUN_TABLE, variance_sin_pair

_solved: dict[tuple[str, int], object] = {}


def _traj(key: str, n: int):
    if (key, n) not in _solved:
        spec, mu0, _, horizon = RUN_TABLE[key]
        _solved[(key, n)] = las_solve(mu0, spec, n, horizon)
    return _solved[(key, n)]


def _all_runs():
    for key, (_, _, grid, _) in RUN_TABLE.items():
        for n in grid:
            yield key, n, _traj(key, n)


def _note(num: int, ok: bool, label: str, detail: str = "") -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f"  [{detail}]"
    acceptance_report.append((num, line))


def test_criterion_01_median_split_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (10, 40, 160):
        traj = _traj("median-delta", n)
        for t in (0.25, 0.5, 1.0):
            gap = wasserstein(interpolate(traj, t),
                              oracle("median_split_delta", {"x0": 0.0},
                                     t)).distance
            worst = max(worst, gap - 3.0 / n)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0 and elapsed < 1.0
    _note(1, ok, "median split from a point matches the two-spike flow, "
                 "W <= 3/N for N in {10,40,160}",
          f"worst margin {worst:+.2e}, {elapsed:.2f}s")
    assert worst <= 0.0
    assert elapsed < 1.0


def test_criterion_02_uniform_split_convergence():
    t0 = time.perf_counter()
    report = convergence_study(
        median_split_pvf(), uniform_1d(0.0, 1.0, 200),
        ("median_split_uniform", {"a": 0.0, "b": 1.0, "atoms": 200}),
        1.0, (20, 40, 80, 160))
    elapsed = time.perf_counter() - t0
    slope_ok = report.slope is not None and report.slope >= 0.8
    tail_ok = report.errors[160] <= 0.02
    ok = slope_ok and tail_ok and elapsed < 30.0
    _note(2, ok, "uniform-interval split converges at first order, "
                 "slope >= 0.8 and error(160) <= 0.02",
          f"slope {report.slope:.2f}, error(160) {report.errors[160]:.2e}, "
          f"{elapsed:.1f}s")
    assert slope_ok, report
    assert tail_ok, report
    assert elapsed < 30.0


def test_criterion_03_zero_mean_constant_concentration():
    t0 = time.perf_counter()
    gaps = {}
    for n in (25, 100, 400):
        traj = _traj("constant-pm1", n)
        gaps[n] = wasserstein(interpolate(traj, 1.0), dirac(0.0)).distance
    elapsed = time.perf_counter() - t0
    ok = all(gaps[n] <= 2.0 / math.sqrt(n) for n in gaps) and elapsed < 10.0
    _note(3, ok, "zero-mean two-speed field keeps the point mass "
                 "concentrated, W <= 2/sqrt(N)",
          "gaps " + ", ".join(f"{n}:{g:.3f}" for n, g in gaps.items())
          + f", {elapsed:.1f}s")
    for n, gap in gaps.items():
        assert gap <= 2.0 / math.sqrt(n), (n, gap)
    assert elapsed < 10.0


def test_criterion_04_ode_lift_tracks_the_flow():
    t0 = time.perf_counter()
    results = []
    for key, mu0 in (("ode-decay", dirac(1.0)),
                     ("ode-decay-mixed", MIXED_5)):
        for n in (20, 80):
            traj = _traj(key, n)
            ref = oracle("ode_flow", {"mu0": mu0,
                                      "field": linear_field(-1.0)}, 1.0)
            gap = wasserstein(interpolate(traj, 1.0), ref).distance
            results.append((key, n, gap, gap <= 5.0 / n))
    elapsed = time.perf_counter() - t0
    ok = all(r[3] for r in results) and elapsed < 5.0
    _note(4, ok, "lifted ODE v(x)=-x tracks the exponential flow, "
                 "W(1) <= 5/N for N in {20,80}, point and 5-atom data",
          ", ".join(f"{k}@{n}:{g:.4f}" for k, n, g, _ in results)
          + f", {elapsed:.1f}s")
    for key, n, gap, fine in results:
        assert fine, (key, n, gap)
    assert elapsed < 5.0


def _witness_triple():
    v1 = make_lifted([((0.0, 0.0), (1.0, 0.0), 0.5),
                      ((1.0, 0.0), (3.0, 0.0), 0.5)])
    v2 = make_lifted([((0.0, 1.0), (1.0, 0.0), 0.5),
                      ((1.0, -1.0), (3.0, 0.0), 0.5)])
    v3 = make_lifted([((1.0, 1.0), (1.0, 0.0), 0.5),
                      ((0.0, -1.0), (3.0, 0.0), 0.5)])
    return v1, v2, v3


def test_criterion_05_combined_cost_breaks_the_triangle_inequality():
    t0 = time.perf_counter()
    v1, v2, v3 = _witness_triple()
    d12 = constrained_fiber_cost(v1, v2, FiberCostKind.COMBINED)[0]
    d23 = constrained_fiber_cost(v2, v3, FiberCostKind.COMBINED)[0]
    d13 = constrained_fiber_cost(v1, v3, FiberCostKind.COMBINED)[0]
    elapsed = time.perf_counter() - t0
    values_ok = (abs(d12 - 1.0) <= 1e-6 and abs(d23 - 1.0) <= 1e-6
                 and abs(d13 - 3.0) <= 1e-6)
    ok = values_ok and elapsed < 1.0
    _note(5, ok, "combined fiber cost on the three-witness family returns "
                 "1, 1, 3 (triangle inequality fails)",
          f"{d12:.7f}, {d23:.7f}, {d13:.7f}, {elapsed:.2f}s")
    assert values_ok, (d12, d23, d13)
    assert elapsed < 1.0


def test_criterion_06_variance_sine_pair():
    t0 = time.perf_counter()
    v1, v2, mu, nu = variance_sin_pair(1, 2000)
    base = wasserstein(mu, nu).distance
    mono = monotone_fiber_cost_1d(v1, v2, FiberCostKind.FIBER)
    base_ok = abs(base - 1.0 / 24) <= 0.02 * (1.0 / 24)
    mono_ok = abs(mono - 4.0 / math.pi) <= 0.05 * (4.0 / math.pi)

    w1, w2, _, _ = variance_sin_pair(1, 40)
    lp = constrained_fiber_cost(w1, w2, FiberCostKind.FIBER)[0]
    small_mono = monotone_fiber_cost_1d(w1, w2, FiberCostKind.FIBER)
    agree_ok = abs(lp - small_mono) <= 0.10 * small_mono
    elapsed = time.perf_counter() - t0

    ok = base_ok and mono_ok and agree_ok and elapsed < 60.0
    _note(6, ok, "variance-frequency sine pair: base W = 1/24 (2%), "
                 "monotone fiber cost = 4/pi (5%), LP agrees with the "
                 "monotone evaluator at M=40 (10%)",
          f"base {base:.6f}, monotone {mono:.6f}, M=40 LP {lp:.4f} vs "
          f"monotone {small_mono:.4f}, {elapsed:.1f}s; the base optimum at "
          f"M=40 is degenerate (every rightward matching of the shifted "
          f"grid attains W = 1/24), so the LP finds genuinely cheaper "
          f"fiber pairings than the monotone plan and the 10% agreement "
          f"clause is unattainable by an exact solver")
    assert base_ok, base
    assert mono_ok, mono
    assert elapsed < 60.0
    assert agree_ok, (lp, small_mono)


def test_criterion_07_fiber_monoid_morphism():
    t0 = time.perf_counter()
    gen = SplitMix64(0xC7)
    worst = 0.0
    for _ in range(20):
        k = gen.randint(2, 5)
        mu = make_measure([(gen.uniform(-2.0, 2.0), 1.0 / k)
                           for _ in range(k)])
        f1 = linear_field(gen.uniform(-1.0, 1.0), gen.uniform(-1.0, 1.0))
        f2 = linear_field(gen.uniform(-1.0, 1.0), gen.uniform(-1.0, 1.0))
        conv = fiber_convolution(evaluate(ode_lift_pvf(f1), mu),
                                 evaluate(ode_lift_pvf(f2), mu))
        direct = evaluate(ode_lift_pvf(add_fields(f1, f2)), mu)
        assert conv.positions.tolist() == direct.positions.tolist()
        for (va,), (vb,), ma, mb in zip(conv.velocities, direct.velocities,
                                        conv.masses, direct.masses):
            worst = max(worst, abs(va - vb), abs(ma - mb))
        for lam in (-2.0, 0.0, 0.5):
            scaled = scalar_action(lam, evaluate(ode_lift_pvf(f1), mu))
            target = evaluate(ode_lift_pvf(scale_field(lam, f1)), mu)
            assert scaled.positions.tolist() == target.positions.tolist()
            for (va,), (vb,), ma, mb in zip(
                    scaled.velocities, target.velocities,
                    scaled.masses, target.masses):
                worst = max(worst, abs(va - vb), abs(ma - mb))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _note(7, ok, "velocity-field sums convolve and scalars act: 20 seeded "
                 "instances atom-for-atom within 1e-12",
          f"worst deviation {worst:.1e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_08_weak_residual():
    t0 = time.perf_counter()
    stationary_worst = 0.0
    for spec in (median_split_pvf(), constant_pvf([(1.0, 0.5), (-1.0, 0.5)])):
        flow = StationaryFlow(dirac(0.0), spec)
        for fr in SAMPLE_FRACTIONS:
            stationary_worst = max(stationary_worst,
                                   max_family_residual(flow, fr))
    run_worst = []
    for key, n, traj in _all_runs():
        horizon = (len(traj.steps) - 1) * traj.config.dt
        res = max(max_family_residual(traj, fr * horizon)
                  for fr in SAMPLE_FRACTIONS)
        run_worst.append((key, n, res, res <= 10.0 / n))
    elapsed = time.perf_counter() - t0
    stationary_ok = stationary_worst <= 1e-14
    runs_ok = all(r[3] for r in run_worst)
    ok = stationary_ok and runs_ok and elapsed < 10.0
    top = max(run_worst, key=lambda r: r[2] * r[1])
    _note(8, ok, "weak-form residual: stationary point mass exact to "
                 "1e-14, every criteria-1..4 run within 10/N",
          f"stationary {stationary_worst:.1e}, tightest run "
          f"{top[0]}@N={top[1]} residual {top[2]:.2e} vs {10.0 / top[1]:.2e}"
          f", {elapsed:.1f}s")
    assert stationary_ok, stationary_worst
    for key, n, res, fine in run_worst:
        assert fine, (key, n, res)
    assert elapsed < 10.0


def test_criterion_09_semigroup_and_gronwall():
    t0 = time.perf_counter()
    leg_gaps = [
        semigroup_check(median_split_pvf(), dirac(0.0), 10, 0.5, 0.5),
        semigroup_check(ode_lift_pvf(linear_field(-1.0)), dirac(1.0),
                        20, 0.25, 0.75),
    ]
    gronwall_ok = all(
        gronwall_check(ode_lift_pvf(linear_field(-1.0)), dirac(0.5),
                       dirac(1.0), n, 1.0, 1.0)
        for n in (20, 80))
    elapsed = time.perf_counter() - t0
    semigroup_ok = all(g == 0.0 for g in leg_gaps)
    ok = semigroup_ok and gronwall_ok and elapsed < 5.0
    _note(9, ok, "restart concatenation is exact (semigroup gap 0) and "
                 "two-run drift obeys the exponential envelope with K=1",
          f"leg gaps {leg_gaps}, envelope "
          f"{'held' if gronwall_ok else 'violated'}, {elapsed:.1f}s")
    assert semigroup_ok, leg_gaps
    assert gronwall_ok
    assert elapsed < 5.0


def test_criterion_10_support_and_time_lipschitz_bounds():
    t0 = time.perf_counter()
    failures = []
    for key, n, traj in _all_runs():
        horizon = (len(traj.steps) - 1) * traj.config.dt
        times = [fr * horizon for fr in SAMPLE_FRACTIONS]
        if not support_bound_check(traj):
            failures.append((key, n, "support"))
        if not time_lipschitz_check(traj, times):
            failures.append((key, n, "time-lipschitz"))
    elapsed = time.perf_counter() - t0
    ok = not failures
    _note(10, ok, "per-step support envelope and time-Lipschitz bound "
                  "hold on every criteria-1..4 run",
          (f"{len(list(_all_runs()))} runs audited, {elapsed:.1f}s"
           if ok else f"violations: {failures}"))
    assert not failures, failures


def test_criterion_11_mean_field_correspondence():
    t0 = time.perf_counter()
    kern = make_kernel("linear", rate=1.0, sublinear_c=1.25)
    state = make_state([0.0, 2.0])
    max_gap = {}
    for n in (20, 40, 80):
        max_gap[n] = max(g for _, g in meanfield_compare(state, kern, n, 1.0))
    bound_ok = all(max_gap[n] <= 10.0 / n for n in (20, 80))
    ratios = [max_gap[40] / max_gap[20], max_gap[80] / max_gap[40]]
    halving_ok = all(0.3 <= r <= 0.8 for r in ratios)

    gen = SplitMix64(0xACC)
    perm_ok = True
    for _ in range(3):
        positions = [(gen.uniform(-2.0, 2.0),) for _ in range(5)]
        perm = list(range(5))
        gen.shuffle(perm)
        plain = integrate(make_state(positions), kern, 0.5, 0.05)
        relabeled = integrate(permute_state(make_state(positions), perm),
                              kern, 0.5, 0.05)
        for s, r in zip(plain, relabeled):
            if permute_state(s, perm).positions.tolist() != r.positions.tolist():
                perm_ok = False
    elapsed = time.perf_counter() - t0
    ok = bound_ok and halving_ok and perm_ok and elapsed < 20.0
    _note(11, ok, "two-particle linear system matches its lattice "
                  "mean-field run (gap <= 10/N, first-order halving, "
                  "relabeling bit-exact)",
          f"max gaps {max_gap[20]:.4f}/{max_gap[40]:.4f}/{max_gap[80]:.4f}, "
          f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}, {elapsed:.1f}s")
    assert bound_ok, max_gap
    assert halving_ok, ratios
    assert perm_ok
    assert elapsed < 20.0


def test_criterion_12_one_sided_concentration():
    t0 = time.perf_counter()
    mu0 = uniform_1d(-1.0, 1.0, 100)
    traj = las_solve(mu0, one_sided_ode_pvf(), 200, 2.0)
    gaps = {}
    for t in (0.5, 1.0, 2.0):
        ref = oracle("one_sided_collapse", {"mu0": mu0}, t)
        gaps[t] = wasserstein(interpolate(traj, t), ref).distance
    radius = support_radius(interpolate(traj, 2.0))
    elapsed = time.perf_counter() - t0
    gaps_ok = all(g <= 0.05 for g in gaps.values())
    collapse_ok = radius <= 0.05
    ok = gaps_ok and collapse_ok and elapsed < 30.0
    _note(12, ok, "square-root inward drift collapses a uniform cloud onto "
                  "the origin along its characteristics",
          f"gaps {gaps[0.5]:.4f}/{gaps[1.0]:.4f}/{gaps[2.0]:.4f}, radius(2) "
          f"{radius:.4f}, {elapsed:.1f}s; note: characteristics place full "
          f"collapse of radius-1 data at t = 2*sqrt(1) = 2, not at t = 1 "
          f"as sometimes stated; the derived oracle is authoritative here")
    assert gaps_ok, gaps
    assert collapse_ok, radius
    assert elapsed < 30.0


def test_criterion_13_transport_engine_self_consistency():
    t0 = time.perf_counter()
    results = run_all_checks(seed=0x5EEDED, instances=100)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed < 30.0
    _note(13, ok, "transport engine self-checks (metric axioms, 1D fast "
                  "path, brute force, dual feasibility) all pass",
          ", ".join(f"{r.name}:{r.margin:.1e}" for r in results)
          + f", {elapsed:.1f}s")
    for r in results:
        assert r.passed, r
    assert elapsed < 30.0
