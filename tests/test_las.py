"""Lattice scheme: discretizers, the recursion, interpolation, guards.

Evolution is deterministic (integer lattice coordinates, integer
shifts, the field evaluated at the same float positions every run), so
several tests assert bit-for-bit equality rather than tolerances.
Tolerances appear only where real-coordinate output is compared against
closed forms.
"""

import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdelab import las, measure, pvf
from mdelab import (
    BoxOverflowError,
    LatticeConfig,
    LatticeMeasure,
    SublinearityError,
    SupportBoundError,
    ValidationError,
    ax_discretize,
    av_discretize,
    constant_pvf,
    dirac,
    evaluate,
    interaction_pvf,
    interpolate,
    las_solve,
    las_step,
    linear_field,
    make_kernel,
    make_lattice_measure,
    make_lifted,
    make_measure,
    median_split_pvf,
    ode_lift_pvf,
    one_sided_ode_pvf,
    phi_diffusion_pvf,
    uniform_1d,
    wasserstein,
)
from mdelab.las import _bin_velocity
from mdelab.measure import MAX_LATTICE_N, _check_masses, _merge, as_rows
from mdelab.pvf import _raw_atoms


class TestConfig:
    def test_resolutions(self):
        cfg = LatticeConfig(n_param=4, horizon=1.0)
        assert cfg.dt == 0.25
        assert cfg.dv == 0.25
        assert cfg.dx == 0.0625
        assert cfg.dx == cfg.dt * cfg.dv
        assert cfg.step_count == 4

    def test_step_count_snaps_float_noise(self):
        # 10 * 0.3 = 2.9999999999999996 in floats; the count is still 3
        assert LatticeConfig(n_param=10, horizon=0.3).step_count == 3
        assert LatticeConfig(n_param=10, horizon=0.29).step_count == 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            LatticeConfig(n_param=0, horizon=1.0)
        with pytest.raises(ValidationError):
            LatticeConfig(n_param=5, horizon=0.0)


class TestSpaceBinning:
    def test_lattice_point_is_fixed(self):
        out = ax_discretize(dirac(0.25), 2)
        assert out.coords == ((1,),)

    def test_floor_to_lower_cell(self):
        out = ax_discretize(dirac(0.1), 2)
        assert out.coords == ((0,),)
        err = wasserstein(out.to_measure(), dirac(0.1)).distance
        assert err == pytest.approx(0.1)
        assert err <= 0.25

    def test_cells_merge(self):
        mu = make_measure([(0.01, 0.5), (0.02, 0.5)])
        out = ax_discretize(mu, 2)
        assert out.coords == ((0,),)
        assert out.masses.tolist() == [1.0]

    def test_support_outside_box(self):
        with pytest.raises(ValidationError):
            ax_discretize(dirac(2.0), 2)    # [-N, N) is half-open
        with pytest.raises(ValidationError):
            ax_discretize(dirac(-2.5), 2)

    @given(st.lists(st.floats(-0.99, 0.99, allow_nan=False, width=64),
                    min_size=1, max_size=5, unique=True),
           st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_binning_error_within_one_cell(self, pos, n):
        mu = make_measure([(p, 1.0 / len(pos)) for p in pos])
        err = wasserstein(ax_discretize(mu, n).to_measure(), mu).distance
        assert err <= 1.0 / n ** 2 + 1e-12


class TestVelocityBinning:
    def test_lattice_velocities_unchanged(self):
        v = make_lifted([(0.0, 0.5, 0.6), (0.25, -1.5, 0.4)])
        assert av_discretize(v, 2) == v

    def test_floor(self):
        v = make_lifted([(0.0, 0.7, 1.0)])
        assert av_discretize(v, 2).velocities == ((0.5,),)

    def test_velocity_outside_box(self):
        v = make_lifted([(0.0, 3.0, 1.0)])
        with pytest.raises(BoxOverflowError):
            av_discretize(v, 2)


class TestStep:
    def test_constant_lattice_velocity_is_rigid_shift(self):
        spec = constant_pvf([(0.5, 1.0)])
        mu = ax_discretize(make_measure([(0.0, 0.5), (0.25, 0.5)]), 2)
        out = las_step(mu, spec)
        # dt * 0.5 = 0.25 = 1 lattice cell at N=2
        assert out.coords == ((1,), (2,))
        assert out.masses.tolist() == [0.5, 0.5]

    def test_median_split_from_origin(self):
        out = las_step(ax_discretize(dirac(0.0), 5), median_split_pvf())
        # speeds +-1 shift by N cells = dt in real units
        assert out.coords == ((-5,), (5,))
        assert out.masses.tolist() == [0.5, 0.5]

    def test_zero_field_is_identity(self):
        mu = ax_discretize(make_measure([(-0.5, 0.25), (0.75, 0.75)]), 3)
        assert las_step(mu, ode_lift_pvf(linear_field(0.0, 0.0))) == mu

    def test_mass_conserved_and_coords_integral(self):
        mu = ax_discretize(make_measure([(0.1, 0.3), (0.6, 0.7)]), 4)
        out = las_step(mu, median_split_pvf())
        assert math.fsum(out.masses) == pytest.approx(1.0, abs=1e-12)
        assert all(isinstance(c, int) for cv in out.coords for c in cv)

    def test_shift_out_of_coordinate_box(self):
        mu = ax_discretize(dirac(1.75), 2)      # coord 7, bound N^3 = 8
        spec = constant_pvf([(1.5, 1.0)])       # k = 3 cells
        with pytest.raises(BoxOverflowError):
            las_step(mu, spec)

    def test_int64_shift_at_the_largest_n(self):
        n = MAX_LATTICE_N
        spec = constant_pvf([(float(n), 1.0)])  # k = N^2 cells, the box edge
        mu = make_lattice_measure(n, 1, [((n ** 3 - n ** 2,), 1.0)])
        out = las_step(mu, spec)
        assert out.coords == ((n ** 3,),)
        with pytest.raises(BoxOverflowError):   # N^3 + N^2 still fits int64
            las_step(out, spec)

    def test_n_above_the_lattice_cap_is_refused(self):
        with pytest.raises(ValidationError):
            las_solve(dirac(0.0), median_split_pvf(), MAX_LATTICE_N + 1, 1.0)


def step_from_evaluate(mu, spec):
    """las_step assembled from the public evaluate output: each lifted
    position mapped back to its lattice coordinate, velocity floored."""
    n = mu.n_param
    base = mu.to_measure()
    coord_of = dict(zip(map(tuple, base.positions.tolist()), mu.coords))
    return make_lattice_measure(n, mu.dim, [
        (tuple(c + math.floor(v * n)
               for c, v in zip(coord_of[tuple(pos.tolist())], vel)), m)
        for pos, vel, m in evaluate(spec, base, n_hint=n).atoms()])


class TestStepMatchesEvaluate:
    def test_renormalised_lifts(self):
        # the step masses drift an ulp off 1, so some lifts renormalise
        spec = constant_pvf([(-1.0, 0.5), (1.0, 0.5)])
        traj = las_solve(dirac(0.1), spec, 200, 1.0)
        assert sum(math.fsum(mu.masses) != 1.0 for mu in traj.steps) >= 1
        for prev, nxt in zip(traj.steps, traj.steps[1:]):
            assert nxt == step_from_evaluate(prev, spec)

    def test_merged_fibers(self):
        # constant phi: every atom's 40 sub-atoms merge into one fiber
        spec = phi_diffusion_pvf(linear_field(0.0, 0.5))
        traj = las_solve(uniform_1d(-0.5, 0.5, 5), spec, 40, 1.0)
        for prev, nxt in zip(traj.steps, traj.steps[1:]):
            lifted = evaluate(spec, prev.to_measure(), n_hint=40)
            assert lifted.atom_count == prev.atom_count
            assert nxt == step_from_evaluate(prev, spec)

    @pytest.mark.parametrize("spec", [
        ode_lift_pvf(linear_field(-1.0)),
        interaction_pvf(make_kernel("bump_alignment", range=0.5)),
    ], ids=["ode_lift", "bump_alignment"])
    def test_planar_cloud(self, spec):
        rng = random.Random(20)
        weights = [rng.uniform(0.2, 1.0) for _ in range(40)]
        mu0 = make_measure([((rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)),
                             w / math.fsum(weights)) for w in weights])
        traj = las_solve(mu0, spec, 20, 1.0)
        assert traj.dim == 2 and traj.steps[-1].atom_count > 1
        for prev, nxt in zip(traj.steps, traj.steps[1:]):
            assert nxt == step_from_evaluate(prev, spec)


def _cloud(seed, count, dim):
    rng = random.Random(seed)
    weights = [rng.uniform(0.2, 1.0) for _ in range(count)]
    return make_measure([(tuple(rng.uniform(-0.9, 0.9) for _ in range(dim)),
                          w / math.fsum(weights)) for w in weights])


def _bits(steps):
    return [(mu.n_param, mu.dim, mu.coords, [m.hex() for m in mu.masses])
            for mu in steps]


@pytest.mark.parametrize("mu0, spec, n", [
    (dirac(0.1), constant_pvf([(-1.0, 0.5), (1.0, 0.5)]), 40),
    # unsorted, with a repeated velocity, so the lift has to merge
    (_cloud(1, 12, 1), constant_pvf([(0.5, 0.25), (-0.25, 0.25),
                                      (0.5, 0.5)]), 20),
    (_cloud(2, 15, 1), median_split_pvf(), 20),
    (_cloud(3, 6, 1), phi_diffusion_pvf(linear_field(1.0, -0.5)), 20),
    (_cloud(4, 20, 1), ode_lift_pvf(linear_field(-1.0)), 20),
    (_cloud(5, 20, 1), one_sided_ode_pvf(), 20),
    (_cloud(6, 20, 1), interaction_pvf(make_kernel("bounded_attraction")),
     20),
    (_cloud(7, 20, 2), ode_lift_pvf(linear_field(-1.0)), 20),
    (_cloud(8, 20, 2), interaction_pvf(make_kernel("bump_alignment",
                                                   range=0.5)), 20),
], ids=["constant", "constant_unsorted", "median_split", "phi_diffusion",
        "ode_lift", "one_sided_ode", "interaction", "ode_lift_2d",
        "interaction_2d"])
def test_solve_is_the_chain_of_public_steps(mu0, spec, n):
    whole = las_solve(mu0, spec, n, 1.0)
    chain = [whole.steps[0]]
    for _ in range(n):
        chain.append(las_step(chain[-1], spec))
    assert _bits(whole.steps) == _bits(chain)
    # a continuation from a LatticeMeasure concatenates bit for bit
    first = las_solve(mu0, spec, n, 0.5)
    second = las_solve(first.steps[-1], spec, n, 0.5)
    assert _bits(first.steps + second.steps[1:]) == _bits(whole.steps)
    assert second.initial_radius == first.steps[-1].support_radius()


def reference_solve(mu0, spec, n, horizon):
    """las_solve as the loop that checks the masses at every lift and at
    every step: each lift merges its (index, velocity) keys and
    renormalises, each step merges and checks. Returns the _bits of its
    steps."""
    if isinstance(mu0, LatticeMeasure):
        rows = np.array(mu0.coords, dtype=np.int64)
        masses = np.array(mu0.masses)
    else:
        rows, masses = _merge(
            np.floor(mu0.positions * n ** 2).astype(np.int64), mu0.masses)
        masses, _ = _check_masses(masses, renormalize=False)
    steps = [(rows, masses)]
    for _ in range(LatticeConfig(n, horizon).step_count):
        index, velocities, sub = _raw_atoms(spec, rows / n ** 2, masses, n)
        keys, sub = _merge(np.column_stack(
            [index, as_rows(velocities, rows.shape[1], "velocity")]), sub)
        sub, _ = _check_masses(sub, renormalize=True)
        cells = np.floor(keys[:, 1:] * n).astype(np.int64)
        rows, masses = _merge(rows[keys[:, 0].astype(np.int64)] + cells, sub)
        masses, _ = _check_masses(masses, renormalize=False)
        steps.append((rows, masses))
    return [(n, rows.shape[1], tuple(map(tuple, rows.tolist())),
             [m.hex() for m in masses.tolist()]) for rows, masses in steps]


# one spec per kind (two for constant: one whose lift has to merge), each
# with a C that keeps exp(C)(R + 1) <= N for R <= 0.9 sqrt(2) and N >= 7
SOLVE_SPECS = {
    "constant": constant_pvf([(-1.0, 0.5), (1.0, 0.5)]),
    "constant_merging": constant_pvf([(0.5, 0.25), (-0.25, 0.25),
                                      (0.5, 0.5)]),
    "median_split": median_split_pvf(),
    "phi_diffusion": phi_diffusion_pvf(linear_field(1.0, -0.5)),
    "ode_lift": ode_lift_pvf(linear_field(-1.0)),
    "one_sided_ode": one_sided_ode_pvf(),
    "interaction": interaction_pvf(make_kernel("bounded_attraction")),
    "bump_alignment": interaction_pvf(make_kernel("bump_alignment",
                                                  range=0.5)),
}
ONE_D_ONLY = ("constant", "constant_merging", "median_split",
              "phi_diffusion")


@st.composite
def solve_cases(draw):
    name = draw(st.sampled_from(sorted(SOLVE_SPECS)))
    dim = 1 if name in ONE_D_ONLY else draw(st.integers(1, 2))
    point = st.tuples(*[st.floats(-0.9, 0.9, allow_nan=False)] * dim)
    pos = draw(st.lists(point, min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(pos),
                            max_size=len(pos)))
    total = math.fsum(weights)
    mu0 = make_measure([(p, w / total) for p, w in zip(pos, weights)],
                       dim=dim)
    return SOLVE_SPECS[name], mu0, draw(st.integers(7, 16))


@given(solve_cases(), st.sampled_from([0.0, 2.0 ** -40, -(2.0 ** -45)]))
@settings(max_examples=120, deadline=None)
def test_solve_matches_the_loop_that_checks_every_mass(case, drift):
    spec, mu0, n = case
    whole = las_solve(mu0, spec, n, 1.0)
    assert _bits(whole.steps) == reference_solve(mu0, spec, n, 1.0)
    # a restart from a LatticeMeasure, its masses off 1 by the drift
    mid = whole.steps[n // 2]
    restart = make_lattice_measure(n, mid.dim, [
        (c, m * (1.0 + drift)) for c, m in zip(mid.coords, mid.masses)])
    again = las_solve(restart, spec, n, 0.5)
    assert _bits(again.steps) == reference_solve(restart, spec, n, 0.5)


@pytest.mark.parametrize("name, seed, n", [("ode_lift", 19, 9),
                                           ("one_sided_ode", 0, 7),
                                           ("bump_alignment", 42, 7)])
def test_a_join_that_moves_the_sum_is_checked_and_renormalised(name, seed,
                                                               n):
    # a step joins atoms into masses whose fsum misses 1.0, so that step
    # must be checked and the next lift must renormalise
    mu0 = _cloud(seed, 8, 1)
    traj = las_solve(mu0, SOLVE_SPECS[name], n, 1.0)
    assert any(b.atom_count < a.atom_count and math.fsum(b.masses) != 1.0
               for a, b in zip(traj.steps, traj.steps[1:-1]))
    assert _bits(traj.steps) == reference_solve(mu0, SOLVE_SPECS[name], n,
                                                1.0)


def test_a_start_off_one_is_renormalised_by_its_first_lift():
    n = 10
    start = make_lattice_measure(n, 1, [((-50,), 0.25), ((20,), 0.25),
                                        ((70,), 0.5 - 2.0 ** -40)])
    assert math.fsum(start.masses) == 1.0 - 2.0 ** -40
    spec = ode_lift_pvf(linear_field(-1.0))
    traj = las_solve(start, spec, n, 1.0)
    assert _bits(traj.steps) == reference_solve(start, spec, n, 1.0)
    assert all(mu.atom_count == 3 for mu in traj.steps)
    assert traj.steps[1].masses.tolist() != start.masses.tolist()
    assert math.fsum(traj.steps[1].masses) == 1.0


def test_a_solve_without_collisions_checks_no_mass_after_its_first_step(
        monkeypatch):
    mu0 = make_measure([(-0.8, 0.1), (-0.3, 0.2), (0.2, 0.3), (0.7, 0.4)])
    spec = ode_lift_pvf(linear_field(-1.0))
    checks = []

    def counted(masses, renormalize):
        checks.append(renormalize)
        return _check_masses(masses, renormalize)

    monkeypatch.setattr(measure, "_check_masses", counted)
    monkeypatch.setattr(pvf, "_check_masses", counted)
    traj = las_solve(mu0, spec, 20, 1.0)
    assert all(mu.atom_count == 4 for mu in traj.steps)  # no collision
    assert math.fsum(traj.steps[0].masses) == 1.0
    assert checks == [False]  # the binning's, before the first step
    # a restart knows nothing of its masses: its first lift checks them
    checks.clear()
    las_solve(traj.steps[-1], spec, 20, 1.0)
    assert checks == [True]


def test_a_joining_solve_checks_its_masses_once_per_step(monkeypatch):
    # the +-1 field from a point joins rows at every step, so the lift
    # merges and checks each step; the merge after the shift is not
    # checked again. The digest was taken from the solver while each
    # step also checked its merged masses.
    mu0, spec = dirac(0.0), constant_pvf([(-1.0, 0.5), (1.0, 0.5)])
    checks = []

    def counted(masses, renormalize):
        checks.append(renormalize)
        return _check_masses(masses, renormalize)

    monkeypatch.setattr(measure, "_check_masses", counted)
    monkeypatch.setattr(pvf, "_check_masses", counted)
    traj = las_solve(mu0, spec, 400, 1.0)
    assert checks == [False] + [True] * 400  # the binning's, then the lifts'
    assert [mu.atom_count for mu in traj.steps] == list(range(1, 402))
    text = repr([(mu.n_param, mu.dim, mu.coords,
                  [m.hex() for m in mu.masses.tolist()])
                 for mu in traj.steps])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7c2ceb8b3c8413143760e26313c4e99858b799fb0eb9f87063fff48672fdab55")


# merges per step: the step's own, and the lift's only where its kind can
# join rows (phi_diffusion, a fiber with a repeated velocity)
MERGES_PER_STEP = {"constant": 1, "constant_merging": 2, "median_split": 1,
                   "phi_diffusion": 2, "ode_lift": 1, "one_sided_ode": 1,
                   "interaction": 1, "bump_alignment": 1}


@pytest.mark.parametrize("name", sorted(MERGES_PER_STEP))
def test_a_lift_merges_only_where_its_kind_can_join_rows(monkeypatch, name):
    merges = []

    def counted(keys, masses):
        merges.append(len(keys))
        return _merge(keys, masses)

    monkeypatch.setattr(las, "_merge", counted)
    monkeypatch.setattr(pvf, "_merge", counted)
    traj = las_solve(_cloud(2, 15, 1), SOLVE_SPECS[name], 20, 1.0)
    assert len(traj.steps) == 21
    assert len(merges) == 20 * MERGES_PER_STEP[name]


def test_a_constant_solve_floors_its_fiber_once(monkeypatch):
    floors = []

    def counted(velocities, n_param):
        floors.append(len(velocities))
        return _bin_velocity(velocities, n_param)

    monkeypatch.setattr(las, "_bin_velocity", counted)
    for name in ("constant", "constant_merging"):
        floors.clear()
        traj = las_solve(_cloud(1, 12, 1), SOLVE_SPECS[name], 20, 1.0)
        assert floors == [2]  # the fiber's two distinct velocities
        floors.clear()
        las_solve(traj.steps[10], SOLVE_SPECS[name], 20, 0.5)
        assert floors == [2]
    floors.clear()
    las_solve(_cloud(1, 12, 1), SOLVE_SPECS["ode_lift"], 20, 1.0)
    assert len(floors) == 20  # a field's velocities, at every step


@pytest.mark.parametrize("mu0, spec, n, first_lift", [
    (make_measure([(-0.5, 0.625), (0.1, 0.25), (0.6, 0.125)]),
     median_split_pvf(), 10, [(0, -1.0), (0, 1.0), (1, 1.0), (2, 1.0)]),
    (make_measure([(-0.5, 0.125), (0.1, 0.25), (0.6, 0.625)]),
     median_split_pvf(), 10, [(0, -1.0), (1, -1.0), (2, -1.0), (2, 1.0)]),
    # 0.3 + 0.2 is exactly 1/2: the -1 copy of the split atom has mass 0
    # and is dropped
    (make_measure([(-0.6, 0.3), (-0.1, 0.2), (0.4, 0.5)]),
     median_split_pvf(), 10, [(0, -1.0), (1, -1.0), (2, 1.0)]),
    (_cloud(9, 10, 1), constant_pvf([(0.75, 0.1), (-0.5, 0.3), (0.75, 0.2),
                                     (0.0, 0.15), (-0.5, 0.25)]), 12,
     [(0, -0.5), (0, 0.0), (0, 0.75)]),
    (_cloud(10, 10, 2), constant_pvf([((0.5, -0.25), 0.2),
                                      ((-0.5, 0.5), 0.3),
                                      ((0.5, -0.5), 0.1),
                                      ((-0.5, -0.25), 0.4)]), 10,
     [(0, -0.5, -0.25), (0, -0.5, 0.5), (0, 0.5, -0.5), (0, 0.5, -0.25)]),
], ids=["split_on_first", "split_on_last", "split_tie",
        "constant_unsorted_repeated", "constant_2d_unsorted"])
def test_edge_cases_match_the_loop_that_checks_every_mass(mu0, spec, n,
                                                          first_lift):
    index, velocities, _, _ = pvf.lift(spec, mu0.positions, mu0.masses, n)
    rows = np.column_stack([index, velocities]).tolist()
    assert [tuple(r) for r in rows[:len(first_lift)]] == first_lift
    whole = las_solve(mu0, spec, n, 1.0)
    assert _bits(whole.steps) == reference_solve(mu0, spec, n, 1.0)
    mid = whole.steps[n // 2]
    assert _bits(las_solve(mid, spec, n, 0.5).steps) == reference_solve(
        mid, spec, n, 0.5)


def test_lattice_rows_must_be_dim_wide():
    with pytest.raises(ValidationError) as info:
        make_lattice_measure(4, 3, [((1, 2), 1.0)])
    assert info.value.field == "dim"
    with pytest.raises(ValidationError) as info:
        make_lattice_measure(4, 2, [((1, 2), 0.5), ((3,), 0.5)])
    assert info.value.field == "dim"
    # a restart reads rows that no builder checked against dim
    start = make_lattice_measure(4, 2, [((1, 2), 0.5), ((3, -1), 0.5)])
    spec = ode_lift_pvf(linear_field(0.0, 0.25))
    las_solve(start, spec, 4, 0.5)
    for bad in (dataclasses.replace(start, dim=3),
                dataclasses.replace(start, coords=((1,), (3,)))):
        with pytest.raises(ValidationError) as info:
            las_solve(bad, spec, 4, 0.5)
        assert info.value.field == "dim"


class TestSolve:
    def test_median_split_walk_is_exact(self):
        traj = las_solve(dirac(0.0), median_split_pvf(), 10, 1.0)
        assert len(traj.steps) == 11
        final = traj.steps[-1].to_measure()
        assert final.atoms() == [((-1.0,), 0.5), ((1.0,), 0.5)]

    def test_partial_step_horizon_truncates(self):
        traj = las_solve(dirac(0.0), median_split_pvf(), 4, 0.9)
        assert len(traj.steps) == 4             # floor(3.6) = 3 steps
        assert traj.steps[-1].to_measure().positions.tolist() == [[-0.75],
                                                                  [0.75]]

    def test_constant_drift_accumulates_floored_speed(self):
        traj = las_solve(dirac(0.0), ode_lift_pvf(linear_field(0.0, 0.7)),
                         20, 1.0)
        (pos,), = traj.steps[-1].to_measure().positions,
        # every step adds floor(0.7*N)/N * dt = 0.7 exactly at N=20
        assert pos[0] == pytest.approx(0.7, abs=1 / 20 + 1 / 400)

    def test_concatenation_is_bitwise(self):
        spec = median_split_pvf()
        whole = las_solve(dirac(0.0), spec, 8, 1.0)
        first = las_solve(dirac(0.0), spec, 8, 0.5)
        second = las_solve(first.steps[-1], spec, 8, 0.5)
        assert first.steps + second.steps[1:] == whole.steps

    def test_lattice_restart_requires_same_n(self):
        first = las_solve(dirac(0.0), median_split_pvf(), 8, 0.5)
        with pytest.raises(ValidationError):
            las_solve(first.steps[-1], median_split_pvf(), 9, 0.5)

    def test_feasibility_refusal(self):
        # envelope e^{C*T}(R+1) = e > N = 2
        with pytest.raises(ValidationError):
            las_solve(dirac(0.0), ode_lift_pvf(linear_field(1.0)), 2, 1.0)

    def test_support_guard_catches_quantization_drift(self):
        # a tiny negative constant speed bins to a full -1/N velocity
        # cell each step, so the support outgrows the declared envelope
        spec = ode_lift_pvf(linear_field(0.0, -1e-9))
        with pytest.raises(SupportBoundError):
            las_solve(dirac(0.0), spec, 3, 10.0)

    def test_sublinearity_is_checked_at_the_current_radius(self):
        # C(1 + |x|) falls below the speed 1 once the atom passes x = 1:
        # the lift of step 7 sees x = 0.9
        spec = constant_pvf([(-1.0, 1.0)], sublinear_c=0.5)
        assert len(las_solve(dirac(1.5), spec, 10, 0.6).steps) == 7
        with pytest.raises(SublinearityError, match="= 0.95 "):
            las_solve(dirac(1.5), spec, 10, 0.7)
        # the first lift sees the binned start, 0.99 and not 0.999
        with pytest.raises(SublinearityError, match="= 0.997"):
            las_solve(dirac(0.999), constant_pvf([(1.0, 1.0)],
                                                 sublinear_c=0.50125), 10, 1.0)
        # the first lift fails on C before its fiber is floored to cells
        # that leave the box
        with pytest.raises(SublinearityError):
            las_solve(dirac(0.0), constant_pvf([(5.0, 1.0)], sublinear_c=0.1),
                      2, 1.0)

    def test_times_and_dim(self):
        traj = las_solve(dirac(0.0), median_split_pvf(), 5, 1.0)
        assert traj.times == tuple(i / 5 for i in range(6))
        assert traj.dim == 1
        assert traj.initial_radius == 0.0


class TestInterpolate:
    def test_step_times_match_stored_steps(self):
        traj = las_solve(dirac(0.0), median_split_pvf(), 5, 1.0)
        for i, step in enumerate(traj.steps):
            assert interpolate(traj, i / 5) == step.to_measure()

    def test_median_split_half_step(self):
        traj = las_solve(dirac(0.0), median_split_pvf(), 5, 1.0)
        mid = interpolate(traj, 0.1)            # dt/2
        assert mid.atoms() == [((-0.1,), 0.5), ((0.1,), 0.5)]

    def test_affine_between_steps(self):
        spec = constant_pvf([(0.5, 1.0)])
        traj = las_solve(dirac(0.0), spec, 4, 1.0)
        t_lo, t_hi = 0.25, 0.5
        lo = interpolate(traj, t_lo).positions[0][0]
        hi = interpolate(traj, t_hi).positions[0][0]
        for lam in (0.25, 0.5, 0.75):
            t = (1 - lam) * t_lo + lam * t_hi
            got = interpolate(traj, t).positions[0][0]
            assert got == pytest.approx((1 - lam) * lo + lam * hi, abs=1e-12)

    def test_out_of_range(self):
        traj = las_solve(dirac(0.0), median_split_pvf(), 5, 1.0)
        with pytest.raises(ValidationError):
            interpolate(traj, 1.2)
        with pytest.raises(ValidationError):
            interpolate(traj, -0.1)


mass_lists = st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4)


@given(st.lists(st.floats(-0.9, 0.9, allow_nan=False, width=64),
                min_size=1, max_size=4, unique=True),
       mass_lists, st.integers(5, 9))
@settings(max_examples=25, deadline=None)
def test_runs_conserve_mass_and_respect_displacement_bound(pos, masses, n):
    masses = (masses * len(pos))[:len(pos)]
    total = math.fsum(masses)
    mu0 = make_measure([(p, m / total) for p, m in zip(pos, masses)])
    traj = las_solve(mu0, median_split_pvf(), n, 0.6)
    r0 = traj.initial_radius
    rate = 1.0 * math.exp(1.0 * 0.6) * (r0 + 1.0)   # C e^{CT}(R+1)
    for prev, nxt in zip(traj.steps, traj.steps[1:]):
        assert math.fsum(nxt.masses) == pytest.approx(1.0, abs=1e-12)
        gap = wasserstein(prev.to_measure(), nxt.to_measure()).distance
        assert gap <= rate / n + 1e-12
