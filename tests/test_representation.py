"""The one array representation of measures and particle states.

Every builder returns read-only float64 arrays: positions (and
velocities) of shape (count, dim), masses of shape (count,); a lattice
measure holds its coordinates as one read-only (count, dim) int64 array
behind a row view that reads as tuples of ints. Objects compare by
value, field by field, so a copy whose fields are tuples compares
equal, and neither the objects nor their array rows can be hashed.
The pinned hex values below were computed before the fields became
arrays, at the sites where tuple rows were concatenated with `+`,
compared with `==` or used as dict and set keys.
"""

import dataclasses
import gc
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import mdelab as m
from mdelab import selfcheck


def _cloud(seed, count=5, dim=2):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 1.0, count)
    return m.make_measure(zip(rng.uniform(-1.0, 1.0, (count, dim)),
                              weights / weights.sum()))


def _lifted_pair(seed):
    """Two 2D lifted measures, two fibers per base point, sharing two of
    their four base points."""
    rng = np.random.default_rng(seed)
    shared = rng.uniform(-1.0, 1.0, (2, 2))
    sides = []
    for _ in range(2):
        base = np.vstack([shared, rng.uniform(-1.0, 1.0, (2, 2))])
        rows = [(p, rng.uniform(-1.0, 1.0, 2), rng.uniform(0.2, 1.0))
                for p in base for _ in range(2)]
        total = math.fsum(w for _, _, w in rows)
        sides.append(m.make_lifted([(p, v, w / total) for p, v, w in rows]))
    return sides


TWO_SPEEDS = m.constant_pvf([((1.0, 0.0), 0.5), ((0.0, -1.0), 0.5)])
STATE = [(0.1, -0.4), (1.2, 0.3), (-0.7, 0.9)]


def _interpolated():
    traj = m.las_solve(_cloud(1, count=3), TWO_SPEEDS, 10, 0.5)
    return m.interpolate(traj, 0.23)


BUILDERS = {
    "make_measure": lambda: _cloud(1),
    "uniform_1d": lambda: m.uniform_1d(-1.0, 1.0, 7),
    "push_forward": lambda: m.push_forward(
        _cloud(1), lambda x: (abs(x[0]), x[1])),
    "base_marginal": lambda: m.base_marginal(_lifted_pair(3)[0]),
    "to_measure": lambda: m.make_lattice_measure(
        4, 2, [((3, -5), 0.25), ((0, 2), 0.75)]).to_measure(),
    "interpolate": _interpolated,
    "evaluate": lambda: m.evaluate(TWO_SPEEDS, _cloud(1)),
    "av_discretize": lambda: m.av_discretize(
        m.evaluate(TWO_SPEEDS, _cloud(1)), 7),
    "empirical": lambda: m.empirical(m.make_state(STATE)),
    "make_lifted": lambda: _lifted_pair(3)[0],
    "fiber_convolution": lambda: m.fiber_convolution(
        *[m.evaluate(TWO_SPEEDS, _cloud(1))] * 2),
    "scalar_action": lambda: m.scalar_action(-2.0, _lifted_pair(3)[0]),
    "neutral_element": lambda: m.neutral_element(_cloud(1)),
    "oracle": lambda: m.oracle("constant_drift", {
        "mu0": _cloud(1), "fiber": [((1.0, 0.0), 0.5), ((0.0, 2.0), 0.5)]},
        0.5),
    "integrate": lambda: m.integrate(
        m.make_state(STATE), m.make_kernel("bounded_attraction"), 0.3,
        0.1)[-1],
    "make_lattice_measure": lambda: m.make_lattice_measure(
        4, 2, [((3, -5), 0.25), ((0, 2), 0.75)]),
    "las_solve": lambda: m.las_solve(_cloud(1, count=3), TWO_SPEEDS, 10,
                                     0.5).steps[-1],
}


def _array_fields(obj) -> dict:
    """The array fields by name, a lattice's coords as its int64 array."""
    found = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
             if f.name in ("positions", "velocities", "masses", "coords")}
    if "coords" in found:
        found["coords"] = found["coords"].array
    return found


def _moved(obj):
    """A copy with a quarter of the first atom's mass on the last atom;
    a particle state, which has no masses, gets its first particle moved
    to the last one's position instead."""
    if hasattr(obj, "masses"):
        masses = obj.masses.copy()
        masses[[0, -1]] += (-0.25 * masses[0], 0.25 * masses[0])
        return dataclasses.replace(obj, masses=masses)
    positions = obj.positions.copy()
    positions[0] = positions[-1]
    return dataclasses.replace(obj, positions=positions)


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_builders_make_read_only_arrays_compared_by_value(build):
    obj = build()
    fields = _array_fields(obj)
    lattice = "coords" in fields
    count, dim = fields["coords" if lattice else "positions"].shape
    assert count >= 2 and dim == (1 if build is BUILDERS["uniform_1d"] else 2)
    for name, values in fields.items():
        assert type(values) is np.ndarray and values.dtype == (
            np.int64 if name == "coords" else np.float64)
        assert values.shape == ((count,) if name == "masses" else (count, dim))
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0
    with pytest.raises(TypeError):
        hash(obj)
    with pytest.raises(TypeError):
        hash(obj.coords if lattice else obj.positions[0])

    again = build()
    assert again is not obj and again == obj and not again != obj
    assert _moved(obj) != obj and not _moved(obj) == obj
    # the kind of copy the benchmark perturbs: tuple fields, same values
    as_tuples = dataclasses.replace(obj, **{
        name: tuple(map(tuple, values.tolist())) if values.ndim == 2
        else tuple(values.tolist()) for name, values in fields.items()})
    assert as_tuples == obj and obj == as_tuples
    assert obj != tuple(fields.values())


def test_lattice_rows_read_as_tuples_of_ints():
    step = BUILDERS["las_solve"]()
    rows = list(step.coords)
    assert len(rows) == step.atom_count >= 2
    assert all(type(row) is tuple and len(row) == 2
               and all(type(c) is int for c in row) for row in rows)
    assert rows == [tuple(row) for row in step.coords.array.tolist()]
    assert step.coords[0] == rows[0] and step.coords[-1] == rows[-1]
    assert step.coords[1:] == tuple(rows[1:])
    assert step.coords == tuple(rows) and repr(step.coords) == repr(
        tuple(rows))
    assert np.array_equal(np.asarray(step.coords), step.coords.array)


def test_lattice_copies_compare_by_value():
    # the copies the benchmark makes: dataclasses.replace with tuples,
    # and a row moved as (c[0] + k,) + c[1:]
    step = BUILDERS["las_solve"]()
    same = dataclasses.replace(step, coords=tuple(step.coords),
                               masses=tuple(step.masses.tolist()))
    assert same == step and same.coords == step.coords
    assert same.coords.array.dtype == np.int64
    assert not same.coords.array.flags.writeable
    assert not same.masses.flags.writeable
    for k in (1, -3):
        rows = list(step.coords)
        rows[-1] = (rows[-1][0] + k,) + rows[-1][1:]
        moved = dataclasses.replace(step, coords=tuple(rows))
        assert moved != step and moved.coords != step.coords
        assert moved.coords.array[-1, 0] == step.coords.array[-1, 0] + k
    with pytest.raises(TypeError):
        hash(step)
    with pytest.raises(TypeError):
        hash(step.coords)


def test_a_trajectory_holds_its_steps_as_arrays():
    # the +-1 field from a point: step ell has ell + 1 atoms, 20,301 in
    # all, which as 16-byte array rows make under 0.4 MiB
    spec = m.constant_pvf([(-1.0, 0.5), (1.0, 0.5)])
    m.las_solve(m.dirac(0.1), spec, 20, 1.0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = m.las_solve(m.dirac(0.1), spec, 200, 1.0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(step.atom_count for step in traj.steps) == 201 * 202 // 2
    assert held <= 2 ** 20


def test_rows_add_as_vectors():
    mu = _cloud(1)
    assert (mu.positions[0] + mu.positions[1]).shape == (2,)
    lifted = _lifted_pair(3)[0]
    for p, v, _ in lifted.atoms():
        assert (p + v).tolist() == [p[0] + v[0], p[1] + v[1]]


def test_mass_at_matches_whole_rows():
    mu = m.make_measure([((0.5, -1.0), 0.25), ((0.5, 1.0), 0.75)])
    assert mu.mass_at((0.5, 1.0)) == 0.75
    assert mu.mass_at(mu.positions[0]) == 0.25
    assert mu.mass_at((1.0, 0.5)) == 0.0
    assert mu.mass_at((0.5, 0.0)) == 0.0


def test_former_tuple_sites_give_the_same_floats():
    # tangent_wasserstein joined p + v; the one-sided integrand compared
    # rows with ==; induced_base_plan, fiber_convolution and kr_dual_gap
    # keyed dicts and sets on rows; the McShane anchors were
    # mu.positions + nu.positions. The one-sided value, the base plan and
    # the gap were re-pinned when the nD simplex began to start from the
    # least-cost basis, each within 1e-12 of its old value.
    v1, v2 = _lifted_pair(12)
    assert m.tangent_wasserstein(v1, v2).hex() == "0x1.085aba3693331p+0"
    value, plan = m.constrained_fiber_cost(v1, v2, m.FiberCostKind.ONE_SIDED)
    assert value.hex() == "-0x1.932a2508c2e2ap-2"
    base = m.induced_base_plan(plan, v1, v2)
    assert len(plan.entries) == 16 and len(base.entries) == 8
    assert base.cost.hex() == "0x1.b50fe0705a05fp-2"
    assert [w.hex() for _, _, w in base.entries] == [
        "0x1.94fc0a678440bp-3", "0x1.a3ad34ecaff96p-23",
        "0x1.0a8493c2f87d8p-3", "0x1.9f1e89fb589d2p-3",
        "0x1.d2c5b54c5e6a4p-4", "0x1.56ff505d809f7p-7",
        "0x1.394955a3749fcp-4", "0x1.12f4a190cae38p-2"]
    conv = m.fiber_convolution(v1, m.scalar_action(-0.5, v1))
    digest = hashlib.sha256(json.dumps(m.lifted_to_dict(conv)).encode())
    assert digest.hexdigest()[:16] == "b0455344ea975147"
    gap = m.kr_dual_gap(m.base_marginal(v1), m.base_marginal(v2),
                        [lambda x: x[0], lambda x: math.dist(x, (0.5, 0.5))])
    assert gap.hex() == "0x1.813dc23ee9109p-2"
    margin = selfcheck.check_dual_feasibility(seed=12, instances=20).margin
    assert margin.hex() == "0x1.2bd84965827e0p-2"


def _equal_mass_lifted(seed, count=6):
    """A 1D lifted measure of count atoms of mass 1/count each."""
    rng = np.random.default_rng(seed)
    return m.make_lifted([((x,), (v,), 1.0 / count) for x, v in
                          zip(rng.uniform(-1.0, 1.0, count),
                              rng.uniform(-1.0, 1.0, count))])


def _induced():
    v1, v2 = _lifted_pair(12)
    return m.induced_base_plan(m.constrained_fiber_cost(v1, v2)[1], v1, v2)


# one plan from each producer of plan columns
PLANS = {
    "monotone_1d": lambda: m.wasserstein(
        m.make_measure([(-0.5, 0.25), (0.1, 0.5), (0.9, 0.25)]),
        m.make_measure([(-0.2, 0.6), (0.4, 0.4)])).plan,
    "assignment": lambda: m.wasserstein(
        *[m.make_measure(zip(_cloud(seed, count=4).positions, [0.25] * 4))
          for seed in (2, 3)]).plan,
    "simplex": lambda: m.wasserstein(_cloud(4), _cloud(5, count=4)).plan,
    "fiber_assignment": lambda: m.constrained_fiber_cost(
        _equal_mass_lifted(6), _equal_mass_lifted(7))[1],
    "fiber_lp": lambda: m.constrained_fiber_cost(*_lifted_pair(3))[1],
    "induced_base_plan": _induced,
}


@pytest.mark.parametrize("build", PLANS.values(), ids=PLANS.keys())
def test_plan_entries_are_read_only_columns(build):
    plan = build()
    columns = plan.entries.columns
    assert [c.dtype for c in columns] == [np.int64, np.int64, np.float64]
    rows = list(plan.entries)
    assert len(rows) >= 2
    for column in columns:
        assert type(column) is np.ndarray and column.shape == (len(rows),)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
    assert all(type(i) is int and type(k) is int and type(w) is float
               for i, k, w in rows)
    assert rows == sorted(rows) and all(w > 0.0 for _, _, w in rows)
    assert plan.entries == tuple(rows) and plan.entries[0] == rows[0]
    assert plan.entries[1:] == tuple(rows[1:])

    # a tuple-form replace becomes new read-only columns of equal value
    same = dataclasses.replace(plan, entries=tuple(rows))
    assert isinstance(same.entries, m.ArrayRows)
    assert [c.dtype for c in same.entries.columns] == [
        np.int64, np.int64, np.float64]
    assert not any(c.flags.writeable for c in same.entries.columns)
    assert same == plan and repr(same) == repr(plan)

    # a perturbed entry, in its weight or in an index, compares unequal
    i, k, w = rows[0]
    for entry in ((i, k, 0.5 * w), (i, k + 1, w), (i + 1, k, w)):
        moved = dataclasses.replace(plan, entries=(entry,) + tuple(rows[1:]))
        assert moved != plan and moved.entries != plan.entries
    with pytest.raises(TypeError):
        hash(plan)
    with pytest.raises(TypeError):
        hash(plan.entries)
