"""Constrained fiber costs, the combined-cost triple, and the monoid ops.

The frozen triple below is the canonical witness that the combined cost
is not a metric: the three pairwise values are 1, 1, 3, so the triangle
inequality fails by a full unit. Each value was re-derived by hand: the
base optimum is unique in every pair, which pins the fiber pairing.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdelab import (
    FiberCostKind,
    ValidationError,
    base_marginal,
    constrained_fiber_cost,
    fiber_convolution,
    induced_base_plan,
    make_lifted,
    make_measure,
    neutral_element,
    plan_is_optimal,
    scalar_action,
    tangent_wasserstein,
    validate_lifted_plan,
    wasserstein,
    wt_bound_check,
)
from mdelab.fiber_metric import _one_sided_cost, _round_to_polytope


def witness_triple():
    v1 = make_lifted([((0.0, 0.0), (1.0, 0.0), 0.5),
                      ((1.0, 0.0), (3.0, 0.0), 0.5)])
    v2 = make_lifted([((0.0, 1.0), (1.0, 0.0), 0.5),
                      ((1.0, -1.0), (3.0, 0.0), 0.5)])
    v3 = make_lifted([((1.0, 1.0), (1.0, 0.0), 0.5),
                      ((0.0, -1.0), (3.0, 0.0), 0.5)])
    return v1, v2, v3


def test_combined_cost_triple():
    v1, v2, v3 = witness_triple()
    d12, _ = constrained_fiber_cost(v1, v2, FiberCostKind.COMBINED)
    d23, _ = constrained_fiber_cost(v2, v3, FiberCostKind.COMBINED)
    d13, _ = constrained_fiber_cost(v1, v3, FiberCostKind.COMBINED)
    assert d12 == pytest.approx(1.0, abs=1e-6)
    assert d23 == pytest.approx(1.0, abs=1e-6)
    assert d13 == pytest.approx(3.0, abs=1e-6)
    # the whole point: 3 > 1 + 1, no triangle inequality
    assert d13 > d12 + d23 + 0.5


def test_polytope_repair_restores_exact_marginals():
    rng = np.random.default_rng(11)
    exact = rng.uniform(0.5, 1.5, (7, 5)) * (rng.random((7, 5)) < 0.6)
    exact /= exact.sum()
    r, c = exact.sum(axis=1), exact.sum(axis=0)
    # the exact coupling pushed off by about 1e-8, with empty cells
    # driven negative, as an LP's feasibility tolerance leaves it
    flow = exact + rng.uniform(-1e-8, 1e-8, exact.shape)
    assert (flow < 0.0).any()
    assert np.abs(flow.sum(axis=1) - r).max() > 1e-9
    assert np.abs(flow.sum(axis=0) - c).max() > 1e-9
    repaired = _round_to_polytope(flow.copy(), r, c)
    assert (repaired >= 0.0).all()
    assert np.abs(repaired.sum(axis=1) - r).max() <= 1e-12
    assert np.abs(repaired.sum(axis=0) - c).max() <= 1e-12
    assert np.abs(repaired - exact).max() <= 1e-7


INTEGRANDS = {
    FiberCostKind.FIBER: lambda x, v, y, w: math.dist(v, w),
    FiberCostKind.COMBINED:
        lambda x, v, y, w: math.dist(x, y) + math.dist(v, w),
    FiberCostKind.ONE_SIDED: lambda x, v, y, w: _one_sided_cost(v, w, x, y),
}


@pytest.mark.parametrize("kind", list(FiberCostKind), ids=lambda k: k.value)
def test_value_is_the_cost_of_the_returned_plan(kind):
    rng = np.random.default_rng(40)

    def sine_lifted():
        xs = rng.uniform(-1.0, 1.0, 30)
        ms = rng.uniform(0.2, 1.0, 30)
        return make_lifted([(x, math.sin(3.0 * x), m / ms.sum())
                            for x, m in zip(xs, ms)])

    for _ in range(4):
        v1, v2 = sine_lifted(), sine_lifted()
        value, plan = constrained_fiber_cost(v1, v2, kind)
        a1, a2 = v1.atoms(), v2.atoms()
        assert value == math.fsum(
            w * INTEGRANDS[kind](*a1[a][:2], *a2[b][:2])
            for a, b, w in plan.entries)


def test_self_cost_is_zero():
    v = make_lifted([(0.0, 1.0, 0.25), (0.0, -1.0, 0.25), (2.0, 0.5, 0.5)])
    for kind in FiberCostKind:
        value, plan = constrained_fiber_cost(v, v, kind)
        # LP termination noise sits near the 1e-7 budget slack
        assert abs(value) <= 1e-6
        validate_lifted_plan(plan, v, v)


def test_constant_fiber_shift_is_forced():
    mu = make_measure([(0.0, 0.25), (1.0, 0.5), (3.0, 0.25)])
    va = make_lifted([(p, (0.0,), w) for p, w in mu.atoms()])
    vb = make_lifted([(p, (2.5,), w) for p, w in mu.atoms()])
    value, _ = constrained_fiber_cost(va, vb, FiberCostKind.FIBER)
    assert value == pytest.approx(2.5, abs=1e-6)


def test_one_sided_vanishes_on_matched_points():
    # equal bases couple identically, and the x = y convention zeroes
    # the integrand even though the velocities differ
    mu = make_measure([(0.0, 0.5), (1.0, 0.5)])
    va = make_lifted([(p, (1.0,), w) for p, w in mu.atoms()])
    vb = make_lifted([(p, (-1.0,), w) for p, w in mu.atoms()])
    value, _ = constrained_fiber_cost(va, vb, FiberCostKind.ONE_SIDED)
    assert abs(value) <= 1e-6


def test_plan_projects_to_an_optimal_base_plan():
    v1, v2, _ = witness_triple()
    _, plan = constrained_fiber_cost(v1, v2, FiberCostKind.FIBER)
    base = induced_base_plan(plan, v1, v2)
    assert plan_is_optimal(base, base_marginal(v1), base_marginal(v2))


def test_coupling_size_guard():
    big = make_lifted([((float(i),), (0.0,), 1 / 501) for i in range(501)])
    with pytest.raises(ValidationError):
        constrained_fiber_cost(big, big, FiberCostKind.FIBER)


def test_tangent_wasserstein_is_plain_transport_on_pairs():
    va = make_lifted([(0.0, 0.0, 1.0)])
    vb = make_lifted([(3.0, 4.0, 1.0)])
    assert tangent_wasserstein(va, vb) == pytest.approx(5.0)


def test_wt_bound_on_the_triple():
    v1, v2, v3 = witness_triple()
    assert wt_bound_check(v1, v2)
    assert wt_bound_check(v2, v3)
    assert wt_bound_check(v1, v3)
    assert wt_bound_check(v1, v1)


class TestConvolution:
    def test_neutral_element(self):
        v = make_lifted([(0.0, 1.0, 0.25), (0.0, -1.0, 0.25),
                         (2.0, 0.5, 0.5)])
        neutral = neutral_element(base_marginal(v))
        assert fiber_convolution(v, neutral) == v
        assert fiber_convolution(neutral, v) == v

    def test_deterministic_fibers_add(self):
        mu = make_measure([(0.0, 0.5), (2.0, 0.5)])
        va = make_lifted([(p, (p[0] + 1.0,), w) for p, w in mu.atoms()])
        vb = make_lifted([(p, (2.0 * p[0],), w) for p, w in mu.atoms()])
        out = fiber_convolution(va, vb)
        expect = make_lifted([(p, (3.0 * p[0] + 1.0,), w)
                              for p, w in mu.atoms()])
        assert out == expect

    def test_symmetric_pair_self_convolution(self):
        # (1/2, 1/2) on +-1 convolved with itself: four sum pairs
        v = make_lifted([(0.0, 1.0, 0.5), (0.0, -1.0, 0.5)])
        out = fiber_convolution(v, v)
        assert out.atoms() == [((0.0,), (-2.0,), 0.25),
                               ((0.0,), (0.0,), 0.5),
                               ((0.0,), (2.0,), 0.25)]

    def test_base_mismatch_rejected(self):
        va = make_lifted([(0.0, 1.0, 1.0)])
        vb = make_lifted([(1.0, 1.0, 1.0)])
        with pytest.raises(ValidationError):
            fiber_convolution(va, vb)


class TestScalarAction:
    def test_zero_collapses_fibers(self):
        v = make_lifted([(0.0, 1.0, 0.5), (0.0, -1.0, 0.5)])
        assert scalar_action(0.0, v) == neutral_element(base_marginal(v))

    def test_identity(self):
        v = make_lifted([(0.0, 1.5, 0.5), (1.0, -0.5, 0.5)])
        assert scalar_action(1.0, v) == v

    def test_scaling_velocities(self):
        v = make_lifted([(0.0, 1.5, 1.0)])
        assert scalar_action(-2.0, v).velocities == ((-3.0,),)


vel = st.floats(min_value=-3, max_value=3, allow_nan=False, width=64)
pos = st.floats(min_value=-5, max_value=5, allow_nan=False, width=64)
weight = st.floats(min_value=0.05, max_value=1.0)


@st.composite
def lifted_measures(draw, max_atoms=4):
    k = draw(st.integers(1, max_atoms))
    raw = [((draw(pos),), (draw(vel),), draw(weight)) for _ in range(k)]
    total = math.fsum(w for _, _, w in raw)
    return make_lifted([(p, v, w / total) for p, v, w in raw])


@given(lifted_measures(), lifted_measures())
@settings(max_examples=25, deadline=None)
# equal bases (W* = 0): the fiber plan spends the 1e-7 slack on its base
# cost, so the tangent W = 1 exceeds fiber cost + W* = 0.9999999
@example(va=make_lifted([((0.0,), (0.0,), 0.5), ((1.0,), (1.0,), 0.5)]),
         vb=make_lifted([((0.0,), (1.0,), 0.5), ((1.0,), (0.0,), 0.5)]))
def test_wt_bound_property(va, vb):
    assert wt_bound_check(va, vb)


@given(lifted_measures(), lifted_measures())
@settings(max_examples=25, deadline=None)
def test_one_sided_never_exceeds_fiber_cost(va, vb):
    one_sided, _ = constrained_fiber_cost(va, vb, FiberCostKind.ONE_SIDED)
    fiber, _ = constrained_fiber_cost(va, vb, FiberCostKind.FIBER)
    assert one_sided <= fiber + 1e-9


@given(lifted_measures())
@settings(max_examples=25, deadline=None)
def test_combined_dominates_base_distance(va):
    vb = scalar_action(0.5, va)
    combined, _ = constrained_fiber_cost(va, vb, FiberCostKind.COMBINED)
    base_w = wasserstein(base_marginal(va), base_marginal(vb)).distance
    assert combined >= base_w - 1e-9


@st.composite
def shared_base_fibers(draw):
    mu = make_measure([(-1.0, 0.25), (0.5, 0.75)])

    def lift():
        rows = []
        for p, w in mu.atoms():
            k = draw(st.integers(1, 3))
            weights = [draw(weight) for _ in range(k)]
            total = math.fsum(weights)
            rows.extend((p, (draw(vel),), w * wi / total) for wi in weights)
        return make_lifted(rows)

    return lift(), lift(), lift()


@given(shared_base_fibers())
@example((make_lifted([(0.5, 2.0, 1.0)]),
          make_lifted([(0.5, 0.0, 0.5), (0.5, 2.2e-16, 0.5)]),
          make_lifted([(0.5, -1.0, 1.0)])))
@settings(max_examples=25, deadline=None)
def test_convolution_is_commutative_and_associative(triple):
    va, vb, vc = triple
    ab = fiber_convolution(va, vb)
    ba = fiber_convolution(vb, va)
    assert ab.positions == ba.positions
    for x, y in zip(ab.velocities, ba.velocities):
        assert x == pytest.approx(y, abs=1e-12)
    for x, y in zip(ab.masses, ba.masses):
        assert x == pytest.approx(y, abs=1e-12)
    left = fiber_convolution(ab, vc)
    right = fiber_convolution(va, fiber_convolution(vb, vc))
    assert left.positions == right.positions
    for x, y in zip(left.velocities, right.velocities):
        assert x == pytest.approx(y, abs=1e-10)
    for x, y in zip(left.masses, right.masses):
        assert x == pytest.approx(y, abs=1e-10)
