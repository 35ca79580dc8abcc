"""Exact-transport engine tests.

The simplex path is cross-checked three ways: against the 1D monotone
coupling, against brute-force enumeration over permutation couplings,
and against hand-derived instances frozen below. The assignment regime
(m vs m atoms of one bit-equal mass) is cross-checked against the
simplex and against an independent assignment on a numpy cost matrix.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mdelab import (
    TransportPlan,
    ValidationError,
    dirac,
    kr_dual_gap,
    make_measure,
    plan_is_optimal,
    validate_plan,
    wasserstein,
)
from mdelab.transport import _cost_matrix


def test_two_diracs():
    assert wasserstein(dirac(0.0), dirac(3.5)).distance == 3.5
    assert wasserstein(dirac((0.0, 0.0)), dirac((3.0, 4.0))).distance == 5.0


def test_planar_pair_unique_plan():
    mu = make_measure([((0.0, 0.0), 0.5), ((1.0, 0.0), 0.5)])
    nu = make_measure([((0.0, 1.0), 0.5), ((1.0, -1.0), 0.5)])
    result = wasserstein(mu, nu)
    assert result.distance == pytest.approx(1.0, abs=1e-12)
    # the only optimum pairs each point with its vertical neighbor
    assert sorted(result.plan.entries) == [(0, 0, 0.5), (1, 1, 0.5)]


def test_disjoint_equal_mass_pairs():
    # both perfect matchings cost 2, enumerated by hand
    mu = make_measure([(0.0, 0.5), (1.0, 0.5)])
    nu = make_measure([(2.0, 0.5), (3.0, 0.5)])
    assert wasserstein(mu, nu).distance == pytest.approx(2.0, abs=1e-12)


def test_identical_measures_have_zero_distance():
    mu = make_measure([(0.25, 0.3), (1.5, 0.7)])
    res = wasserstein(mu, mu)
    assert res.distance == 0.0


def test_dimension_mismatch():
    with pytest.raises(ValidationError):
        wasserstein(dirac(0.0), dirac((0.0, 0.0)))


def test_plan_validation_catches_tampering():
    mu = make_measure([(0.0, 0.5), (1.0, 0.5)])
    nu = make_measure([(2.0, 1.0)])
    plan = wasserstein(mu, nu).plan
    validate_plan(plan, mu, nu)
    bad = TransportPlan(rows=plan.rows, cols=plan.cols,
                        entries=((0, 0, 0.75), (1, 0, 0.25)),
                        cost=plan.cost)
    with pytest.raises(ValidationError):
        validate_plan(bad, mu, nu)


def test_vertex_plan_is_sparse():
    mu = make_measure([((float(i), 0.0), 1 / 7) for i in range(7)])
    nu = make_measure([((float(k) + 0.3, 1.0), 1 / 5) for k in range(5)])
    plan = wasserstein(mu, nu).plan
    assert len(plan.entries) <= 7 + 5 - 1


def test_plan_is_optimal_flags_crossings():
    mu = make_measure([(0.0, 0.5), (2.0, 0.5)])
    identity = TransportPlan(rows=2, cols=2,
                             entries=((0, 0, 0.5), (1, 1, 0.5)), cost=0.0)
    crossing = TransportPlan(rows=2, cols=2,
                             entries=((0, 1, 0.5), (1, 0, 0.5)), cost=2.0)
    assert plan_is_optimal(identity, mu, mu)
    assert not plan_is_optimal(crossing, mu, mu)


class TestDualGap:
    def test_optimal_witness_closes_the_gap(self):
        gap = kr_dual_gap(dirac(0.0), dirac(1.0), [lambda x: x[0]])
        assert abs(gap) <= 1e-10

    def test_equal_measures(self):
        mu = make_measure([(0.0, 0.5), (1.0, 0.5)])
        assert kr_dual_gap(mu, mu, [lambda x: math.sin(x[0])]) == 0.0

    def test_flat_witness_leaves_full_gap(self):
        mu = make_measure([(0.0, 0.5), (2.0, 0.5)])
        gap = kr_dual_gap(mu, dirac(1.0), [lambda x: 0.0])
        assert gap == pytest.approx(1.0, abs=1e-12)

    def test_lipschitz_violation_rejected(self):
        with pytest.raises(ValidationError):
            kr_dual_gap(dirac(0.0), dirac(1.0), [lambda x: 2.0 * x[0]])


coords = st.floats(min_value=-20, max_value=20, allow_nan=False, width=64)
weights = st.floats(min_value=0.05, max_value=1.0)


@st.composite
def random_measure(draw, dim, max_atoms):
    k = draw(st.integers(1, max_atoms))
    raw = [(tuple(draw(coords) for _ in range(dim)), draw(weights))
           for _ in range(k)]
    total = math.fsum(w for _, w in raw)
    return make_measure([(p, w / total) for p, w in raw], dim=dim)


@given(random_measure(1, 12), random_measure(1, 12))
@settings(max_examples=60, deadline=None)
def test_monotone_equals_simplex_in_1d(mu, nu):
    fast = wasserstein(mu, nu, method="monotone").distance
    lp = wasserstein(mu, nu, method="simplex").distance
    assert abs(fast - lp) <= 1e-9


@given(random_measure(2, 5), random_measure(2, 5), random_measure(2, 5))
@settings(max_examples=30, deadline=None)
def test_metric_axioms(mu, nu, sigma):
    w_mn = wasserstein(mu, nu).distance
    assert abs(w_mn - wasserstein(nu, mu).distance) <= 1e-10
    assert wasserstein(mu, mu).distance == 0.0
    w_ns = wasserstein(nu, sigma).distance
    w_ms = wasserstein(mu, sigma).distance
    assert w_ms <= w_mn + w_ns + 1e-9


@given(st.integers(2, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_equal_mass_instances_match_brute_force(k, data):
    mass = 1.0 / k
    mu = make_measure([(tuple(data.draw(coords) for _ in range(2)), mass)
                       for _ in range(k)], dim=2)
    nu = make_measure([(tuple(data.draw(coords) for _ in range(2)), mass)
                       for _ in range(k)], dim=2)
    assume(len(mu.positions) == k and len(nu.positions) == k)
    best = min(
        math.fsum(math.dist(mu.positions[i], nu.positions[perm[i]])
                  for i in range(k)) / k
        for perm in itertools.permutations(range(k)))
    assert wasserstein(mu, nu).distance == pytest.approx(best, abs=1e-10)


@given(random_measure(1, 6), random_measure(1, 6))
@settings(max_examples=40, deadline=None)
def test_dual_feasibility(mu, nu):
    anchors = np.concatenate([mu.positions, nu.positions])

    def cone(a):
        return lambda x: math.dist(x, a)

    gap = kr_dual_gap(mu, nu, [cone(a) for a in anchors])
    assert gap >= -1e-10


def test_deterministic_plans():
    mu = make_measure([((0.0, 0.0), 0.4), ((1.0, 1.0), 0.6)])
    nu = make_measure([((0.5, 0.0), 0.7), ((1.5, 1.0), 0.3)])
    first = wasserstein(mu, nu)
    second = wasserstein(mu, nu)
    assert first.distance == second.distance
    assert first.plan.entries == second.plan.entries


def _planar_cloud(rng, masses):
    return make_measure([((rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)), w)
                         for w in masses], dim=2)


def _independent_assignment_w1(mu, nu):
    p = np.asarray(mu.positions)
    q = np.asarray(nu.positions)
    cost = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / len(p)


@pytest.mark.parametrize("m", [3, 12, 40])
def test_assignment_regime_matches_simplex(m):
    rng = np.random.default_rng(m)
    mu = _planar_cloud(rng, [1.0 / m] * m)
    nu = _planar_cloud(rng, [1.0 / m] * m)
    auto = wasserstein(mu, nu)
    forced = wasserstein(mu, nu, method="simplex")
    assert auto.distance == pytest.approx(forced.distance, rel=1e-12)
    # a permutation plan: one entry per row, each carrying the full mass
    assert len(auto.plan.entries) == m
    assert all(w == 1.0 / m for _, _, w in auto.plan.entries)
    assert sorted(k for _, k, _ in auto.plan.entries) == list(range(m))
    validate_plan(auto.plan, mu, nu)


@pytest.mark.parametrize("m", [200, 237])
def test_assignment_regime_at_scale(m):
    # at m = 237 the m masses 1/m do not fsum to 1, so the measure is
    # renormalised; its masses must stay bit-equal for the assignment
    rng = np.random.default_rng(m)
    mu = _planar_cloud(rng, [1.0 / m] * m)
    nu = _planar_cloud(rng, [1.0 / m] * m)
    assert len(set(mu.masses)) == 1 and len(set(nu.masses)) == 1
    result = wasserstein(mu, nu)
    assert result.distance == pytest.approx(
        _independent_assignment_w1(mu, nu), rel=1e-12)
    validate_plan(result.plan, mu, nu)


def test_masses_an_ulp_apart_take_the_simplex():
    m = 12
    masses = [1.0 / m] * m
    masses[0] = math.nextafter(masses[0], 1.0)
    total = math.fsum(masses)
    rng = np.random.default_rng(12)
    mu = _planar_cloud(rng, [w / total for w in masses])
    nu = _planar_cloud(rng, [1.0 / m] * m)
    assert len(set(mu.masses)) > 1
    auto = wasserstein(mu, nu)
    # the simplex is deterministic: the same plan means the same solver
    assert auto.plan == wasserstein(mu, nu, method="simplex").plan
    assert auto.distance == pytest.approx(
        _independent_assignment_w1(mu, nu), rel=1e-12)


def test_simplex_terminates_on_a_degenerate_grid():
    # every mass 1/36 and many tied costs: most pivots are degenerate
    grid = [(float(i), float(j)) for i in range(6) for j in range(6)]
    mu = make_measure([(p, 1 / 36) for p in grid], dim=2)
    nu = make_measure([((x + 1.0, y + 0.5), 1 / 36) for x, y in grid], dim=2)
    forced = wasserstein(mu, nu, method="simplex")
    validate_plan(forced.plan, mu, nu)
    assert len(forced.plan.entries) <= 36 + 36 - 1
    assert forced.distance == pytest.approx(
        _independent_assignment_w1(mu, nu), rel=1e-12)
    assert forced.distance == pytest.approx(wasserstein(mu, nu).distance,
                                            rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cost_matrix_is_math_dist_bit_for_bit(dim):
    # the matrix is math.hypot of array differences; math.dist per pair
    # of Python rows is the reference, over 300 decades and signed zeros
    rng = np.random.default_rng(dim)
    scale = 10.0 ** rng.integers(-150, 150, (30, 1))
    rows = np.vstack([rng.normal(size=(30, dim)) * scale,
                      np.full((2, dim), -0.0)])
    cols = np.vstack([rows[:5], rng.normal(size=(20, dim)) * scale[:20]])
    want = [[math.dist(p, q).hex() for q in cols.tolist()]
            for p in rows.tolist()]
    got = _cost_matrix(rows, cols).tolist()
    assert [[v.hex() for v in row] for row in got] == want
