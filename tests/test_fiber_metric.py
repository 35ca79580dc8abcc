"""Constrained fiber costs, the combined-cost triple, and the monoid ops.

The frozen triple below is the canonical witness that the combined cost
is not a metric: the three pairwise values are 1, 1, 3, so the triangle
inequality fails by a full unit. Each value was re-derived by hand: the
base optimum is unique in every pair, which pins the fiber pairing.
"""

import hashlib
import itertools
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from _constructions import variance_sin_pair

from mdelab import (
    FiberCostKind,
    NumericalError,
    ValidationError,
    base_marginal,
    constrained_fiber_cost,
    fiber_convolution,
    induced_base_plan,
    make_lifted,
    make_measure,
    monotone_fiber_cost_1d,
    neutral_element,
    plan_is_optimal,
    scalar_action,
    tangent_wasserstein,
    validate_lifted_plan,
    wasserstein,
    wt_bound_check,
)
from mdelab import fiber_metric
from mdelab.fiber_metric import _band_cells, _round_to_polytope
from mdelab.transport import _equal_masses


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
    # the full band: every row may use every column
    repaired = _round_to_polytope(flow.ravel(), np.zeros(7, np.int64),
                                  np.full(7, 5), r, c).reshape(7, 5)
    assert (repaired >= 0.0).all()
    assert np.abs(repaired.sum(axis=1) - r).max() <= 1e-12
    assert np.abs(repaired.sum(axis=0) - c).max() <= 1e-12
    assert np.abs(repaired - exact).max() <= 1e-7


def _staircase_plan():
    # a band whose row ranges are nondecreasing at both ends, and an
    # exact coupling on it
    lo = np.array([0, 0, 1, 2, 2, 4])
    hi = np.array([2, 3, 4, 4, 5, 6])
    rng = np.random.default_rng(12)
    band = rng.uniform(0.5, 1.5, int((hi - lo).sum()))
    band /= band.sum()
    rows, cols = _band_cells(lo, hi)
    assert rows.tolist() == [i for i in range(6) for _ in range(lo[i], hi[i])]
    return lo, hi, band, rows, cols


def test_polytope_repair_fills_inside_the_band():
    lo, hi, exact, rows, cols = _staircase_plan()
    r, c = np.bincount(rows, exact), np.bincount(cols, exact)
    flow = exact.copy()
    # two short cells inside the band, plus a spurious negative entry
    flow[[1, 9]] -= 1e-9
    flow[4] = -1e-9
    repaired = _round_to_polytope(flow, lo, hi, r, c)
    assert (repaired >= 0.0).all()
    assert np.abs(np.bincount(rows, repaired) - r).max() <= 1e-12
    assert np.abs(np.bincount(cols, repaired) - c).max() <= 1e-12
    assert np.abs(repaired - exact).max() <= 1e-7


def test_polytope_repair_refuses_a_deficit_outside_the_band():
    lo, hi, exact, rows, cols = _staircase_plan()
    r, c = np.bincount(rows, exact), np.bincount(cols, exact)
    flow = exact.copy()
    # alternate -1e-9 and +1e-9 along a path of cells from (0, 1) to
    # (5, 5): only row 0 and column 5 end up short, and row 0 cannot
    # reach column 5
    flow[[1, 3, 4, 8, 9, 11, 12, 13, 14]] += 1e-9 * np.array(
        [-1, 1, -1, 1, -1, 1, -1, 1, -1])
    with pytest.raises(NumericalError):
        _round_to_polytope(flow, lo, hi, r, c)


def _one_sided_cost(x, v, y, w) -> float:
    if x == y:
        return 0.0
    num = math.fsum((vc - wc) * (xc - yc)
                    for vc, wc, xc, yc in zip(v, w, x, y))
    return num / math.dist(x, y)


# the fiber integrands pair by pair, in scalar math: the reference for
# the program's array integrand
INTEGRANDS = {
    FiberCostKind.FIBER: lambda x, v, y, w: math.dist(v, w),
    FiberCostKind.COMBINED:
        lambda x, v, y, w: math.dist(x, y) + math.dist(v, w),
    FiberCostKind.ONE_SIDED: _one_sided_cost,
}


def _seeded_lifted(rng, count, dim, base=None):
    """count atoms with uniform velocities and masses; their positions
    are uniform, or drawn from the rows of base, so that two measures
    on one base share base points."""
    pos = (rng.uniform(-1.0, 1.0, (count, dim)) if base is None
           else base[rng.integers(0, len(base), count)])
    vel = rng.uniform(-1.0, 1.0, (count, dim))
    ms = rng.uniform(0.2, 1.0, count)
    return make_lifted(list(zip(map(tuple, pos.tolist()),
                                map(tuple, vel.tolist()),
                                (ms / ms.sum()).tolist())))


def _seeded_pairs(seed, dims):
    rng = np.random.default_rng(seed)
    pairs = []
    for dim in dims:
        for m, n in ((3, 4), (6, 5), (1, 4), (8, 8)):
            pairs.append((_seeded_lifted(rng, m, dim),
                          _seeded_lifted(rng, n, dim)))
        # quarter-grid base points, shared: cells with x = y, and in 1D
        # ties that make the optimal base plan degenerate
        base = rng.integers(-2, 3, (4, dim)) * 0.25
        for m, n in ((5, 6), (7, 7)):
            pairs.append((_seeded_lifted(rng, m, dim, base),
                          _seeded_lifted(rng, n, dim, base)))
    return pairs


@pytest.mark.parametrize("kind", list(FiberCostKind), ids=lambda k: k.value)
def test_value_is_the_cost_of_the_returned_plan(kind):
    rng = np.random.default_rng(40)

    def sine_lifted():
        xs = rng.uniform(-1.0, 1.0, 30)
        ms = rng.uniform(0.2, 1.0, 30)
        return make_lifted([(x, math.sin(3.0 * x), m / ms.sum())
                            for x, m in zip(xs, ms)])

    pairs = [(sine_lifted(), sine_lifted()) for _ in range(4)]
    for v1, v2 in pairs + _seeded_pairs(41, (2, 3)):
        value, plan = constrained_fiber_cost(v1, v2, kind)
        a1, a2 = ([*zip(v.positions.tolist(), v.velocities.tolist())]
                  for v in (v1, v2))
        assert value == math.fsum(
            w * INTEGRANDS[kind](*a1[a], *a2[b])
            for a, b, w in plan.entries)


def test_costs_are_pinned():
    # every kind on 18 seeded pairs, six in each of 1D, 2D and 3D, two
    # of each six on shared base points. The digest was taken when the
    # nD simplex began to start from the least-cost basis; any change to
    # a value, an entry, a base or fiber cost, the allowed pairs or the
    # degeneracy flag changes it.
    results = []
    for v1, v2 in _seeded_pairs(1515, (1, 2, 3)):
        for kind in FiberCostKind:
            value, plan = constrained_fiber_cost(v1, v2, kind)
            results.append((value, plan.entries, plan.base_cost,
                            plan.fiber_cost, plan.allowed_pairs,
                            plan.degenerate_base))
    assert len(results) == 54
    text = repr(results)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fdaa5c95398cd4a9088b42b7ba5f4e00d59c328ff5fe45348b014ea968a97e6d")


def test_self_cost_is_zero():
    v = make_lifted([(0.0, 1.0, 0.25), (0.0, -1.0, 0.25), (2.0, 0.5, 0.5)])
    for kind in FiberCostKind:
        value, plan = constrained_fiber_cost(v, v, kind)
        assert abs(value) <= 1e-12
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
    # planar plans: every pair is an LP variable, degeneracy not judged
    assert plan.allowed_pairs == 4
    assert plan.degenerate_base is None


def test_coupling_size_guard():
    # 501 planar atoms against themselves: 251,001 LP variables
    planar = make_lifted([((float(i), 0.0), (0.0, 0.0), 1 / 501)
                          for i in range(501)])
    with pytest.raises(ValidationError):
        constrained_fiber_cost(planar, planar, FiberCostKind.FIBER)
    # a grid against its translate by one step: every rightward pair is
    # on the optimal face, 710 * 711 / 2 + 709 = 253,114 allowed pairs.
    # The refusal comes before anything of size M*M' is allocated.
    m = 710
    grid = make_lifted([((float(i),), (0.0,), 1 / m) for i in range(m)])
    shifted = make_lifted([((float(i + 1),), (1.0,), 1 / m)
                           for i in range(m)])
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="253114"):
            constrained_fiber_cost(grid, shifted, FiberCostKind.FIBER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * m


def test_size_guard_counts_allowed_pairs():
    # in 1D only x = y is allowed against itself: 501 LP variables
    big = make_lifted([((float(i),), (0.0,), 1 / 501) for i in range(501)])
    value, plan = constrained_fiber_cost(big, big, FiberCostKind.FIBER)
    assert value == 0.0
    assert plan.allowed_pairs == 501
    assert plan.degenerate_base is False


def test_degenerate_sine_pair_is_flagged():
    w1, w2, _, _ = variance_sin_pair(1, 40)
    _, plan = constrained_fiber_cost(w1, w2, FiberCostKind.FIBER)
    assert plan.degenerate_base is True
    assert plan.allowed_pairs > 40 + 40 - 1


def _crossing_sign(xs, ys, t):
    """F_mu - F_nu at t, in units of the common atom mass."""
    return sum(x <= t for x in xs) - sum(y <= t for y in ys)


def _is_allowed(x, y, xs, ys):
    # integer positions: every gap between support points in (x, y)
    # holds a half-integer
    if x == y:
        return True
    sign = 1 if x < y else -1
    lo, hi = sorted((x, y))
    return all(sign * _crossing_sign(xs, ys, t + 0.5) > 0
               for t in range(int(lo), int(hi)))


def _seeded_pair(seed):
    """Two lists of k (position, velocity) atoms, integer positions."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    return tuple([(float(p), float(rng.uniform(-1, 1)))
                  for p in rng.integers(0, 5, k)] for _ in range(2))


# five atoms of mass 1/5 a side: a running float sum of the signed
# masses reads 5.6e-17, not 0, on the gap (1, 2) where F_mu = F_nu; read
# as a sign, it would allow the pairs from 0 to 3
FLOAT_TIE = ([(0.0, 0.0), (0.0, 0.1), (0.0, 0.2), (2.0, 5.0), (2.0, 5.1)],
             [(1.0, 5.0), (1.0, 5.1), (1.0, 5.2), (3.0, 0.0), (3.0, 0.1)])


@pytest.mark.parametrize(
    "pair", [_seeded_pair(seed) for seed in range(12)] + [FLOAT_TIE],
    ids=[f"seed{seed}" for seed in range(12)] + ["float_tie"])
def test_face_lp_matches_brute_force_over_optimal_matchings(pair):
    k = len(pair[0])
    xs, ys = ([x for x, _ in side] for side in pair)
    va, vb = (make_lifted([((x,), (v,), 1.0 / k) for x, v in side])
              for side in pair)
    a1, a2 = va.atoms(), vb.atoms()
    # integer base costs: ties between matchings are exact
    base = {perm: sum(abs(a1[i][0][0] - a2[j][0][0])
                      for i, j in enumerate(perm))
            for perm in itertools.permutations(range(k))}
    optimal = [perm for perm, cost in base.items()
               if cost == min(base.values())]
    base_plans = {frozenset(Counter((a1[i][0][0], a2[j][0][0])
                                    for i, j in enumerate(perm)).items())
                  for perm in optimal}
    w = wasserstein(base_marginal(va), base_marginal(vb)).distance
    for kind in FiberCostKind:
        value, plan = constrained_fiber_cost(va, vb, kind)
        best = min(math.fsum(INTEGRANDS[kind](*a1[i][:2], *a2[j][:2]) / k
                             for i, j in enumerate(perm))
                   for perm in optimal)
        assert abs(value - best) <= 1e-12
        assert plan.allowed_pairs == sum(_is_allowed(x, y, xs, ys)
                                         for x in xs for y in ys)
        for a, b, _ in plan.entries:
            assert _is_allowed(a1[a][0][0], a2[b][0][0], xs, ys)
        assert abs(plan.base_cost - w) <= 1e-12 * (1.0 + w)
        assert plan.degenerate_base is (len(base_plans) > 1)
        validate_lifted_plan(plan, va, vb)


def _equal_mass_lifted(rng, count, base):
    """count atoms of mass 1/count on positions drawn from base, with
    uniform velocities."""
    pos = base[rng.integers(0, len(base), count)]
    vel = rng.uniform(-1.0, 1.0, count)
    return make_lifted([((p,), (v,), 1.0 / count)
                        for p, v in zip(pos.tolist(), vel.tolist())])


def _equal_mass_pairs(seed):
    """Seeded 1D pairs of 1-60 atoms a side, one common mass: free
    positions, a few base points carrying several velocities each, and
    quarter-grid bases, where the optimal base plan is degenerate."""
    rng = np.random.default_rng(seed)
    pairs = []
    for count in (1, 2, 3, 7, 20, 60):
        for base in (rng.uniform(-1.0, 1.0, 2 * count),
                     rng.uniform(-1.0, 1.0, 3),
                     rng.integers(-2, 3, 5) * 0.25):
            pairs.append((_equal_mass_lifted(rng, count, base),
                          _equal_mass_lifted(rng, count, base)))
    return pairs


class _LinprogCalled(Exception):
    pass


def _no_linprog(*args, **kwargs):
    raise _LinprogCalled


def test_equal_mass_1d_pairs_solve_no_lp(monkeypatch):
    monkeypatch.setattr(scipy.optimize, "linprog", _no_linprog)
    pairs = _equal_mass_pairs(1717)
    degenerate = 0
    for va, vb in pairs:
        assert _equal_masses(va, vb)
        w = wasserstein(base_marginal(va), base_marginal(vb)).distance
        for kind in FiberCostKind:
            value, plan = constrained_fiber_cost(va, vb, kind)
            validate_lifted_plan(plan, va, vb, tol=0.0)
            assert abs(plan.base_cost - w) <= 1e-12 * (1.0 + w)
            # the monotone plan lies on the optimal face
            assert value <= monotone_fiber_cost_1d(va, vb, kind) + 1e-12
        degenerate += plan.degenerate_base
    assert 0 < degenerate < len(pairs)


def test_other_pairs_reach_the_lp(monkeypatch):
    monkeypatch.setattr(scipy.optimize, "linprog", _no_linprog)
    rng = np.random.default_rng(1718)
    base = rng.uniform(-1.0, 1.0, 6)
    equal = _equal_mass_lifted(rng, 5, base)
    pairs = [
        # unequal masses, m = m'
        (_seeded_lifted(rng, 5, 1), _seeded_lifted(rng, 5, 1)),
        # one common mass on each side, m != m'
        (_equal_mass_lifted(rng, 4, base), equal),
        # equal masses, 2D
        (make_lifted([((0.0, 0.0), (1.0, 0.0), 0.5),
                      ((1.0, 0.0), (3.0, 0.0), 0.5)]),
         make_lifted([((0.0, 1.0), (1.0, 0.0), 0.5),
                      ((1.0, -1.0), (3.0, 0.0), 0.5)])),
    ]
    for va, vb in pairs:
        for kind in FiberCostKind:
            with pytest.raises(_LinprogCalled):
                constrained_fiber_cost(va, vb, kind)


def test_a_failed_assignment_is_a_typed_error(monkeypatch):
    # a band on which every atom of v1 may only use atom 0 of v2: no
    # permutation is finite
    va = make_lifted([(float(i), 0.0, 1 / 3) for i in range(3)])
    monkeypatch.setattr(fiber_metric, "_face_band", lambda v1, v2: (
        np.zeros(3, np.int64), np.ones(3, np.int64), False))
    with pytest.raises(NumericalError, match=r"3 x 3 .* 3 allowed pairs"):
        constrained_fiber_cost(va, va, FiberCostKind.FIBER)


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
# equal bases (W* = 0): a plan that spent base-cost slack to lower its
# fiber cost would put the tangent W = 1 above fiber cost + W*
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
def equal_mass_pairs(draw):
    """Two 1D lifted measures of k atoms of mass 1/k: quarter-grid or
    free positions, distinct velocities per measure. The velocities lie
    on a grid of step 1/16, so two matchings that differ in value differ
    by far more than the reference LP's feasibility tolerance; on free
    floats HiGHS can stop at a vertex 1e-11 above the optimum."""
    k = draw(st.integers(1, 7))
    grid = draw(st.booleans())
    position = (st.integers(-4, 4).map(lambda i: i * 0.25) if grid
                else pos)
    velocity = st.integers(-48, 48).map(lambda i: i / 16.0)

    def side():
        ps = draw(st.lists(position, min_size=k, max_size=k))
        vs = draw(st.lists(velocity, min_size=k, max_size=k, unique=True))
        return make_lifted([((p,), (v,), 1.0 / k) for p, v in zip(ps, vs)])

    return side(), side()


@given(equal_mass_pairs(), st.sampled_from(list(FiberCostKind)))
@settings(max_examples=60, deadline=None)
@example(pair=tuple(make_lifted([((x,), (v,), 0.2) for x, v in side])
                    for side in FLOAT_TIE), kind=FiberCostKind.ONE_SIDED)
def test_assignment_matches_an_lp_on_the_band(pair, kind):
    va, vb = pair
    k = va.atom_count
    with mock.patch.object(scipy.optimize, "linprog", _no_linprog):
        value, plan = constrained_fiber_cost(va, vb, kind)
    # the reference: scipy's LP on the same allowed pairs, priced by the
    # scalar integrands
    lo, hi, _ = fiber_metric._face_band(va, vb)
    rows, cols = _band_cells(lo, hi)
    a1, a2 = va.atoms(), vb.atoms()
    objective = [INTEGRANDS[kind](*a1[a][:2], *a2[b][:2])
                 for a, b in zip(rows.tolist(), cols.tolist())]
    n = len(rows)
    a_eq = np.zeros((2 * k, n))
    a_eq[rows, np.arange(n)] = 1.0
    a_eq[k + cols, np.arange(n)] = 1.0
    res = linprog(objective, A_eq=a_eq, b_eq=np.full(2 * k, 1.0 / k),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    assert abs(value - res.fun) <= 1e-12 * (1.0 + abs(value))
    # a permutation, every weight the common mass, so both marginals
    # are exact
    assert sorted(a for a, _, _ in plan.entries) == list(range(k))
    assert sorted(b for _, b, _ in plan.entries) == list(range(k))
    assert {w for _, _, w in plan.entries} == {va.masses[0]}
    assert plan.allowed_pairs == n
    w = wasserstein(base_marginal(va), base_marginal(vb)).distance
    assert plan.base_cost <= w + 1e-12 * (1.0 + w)


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
    assert ab.positions.tolist() == ba.positions.tolist()
    for x, y in zip(ab.velocities, ba.velocities):
        assert x == pytest.approx(y, abs=1e-12)
    for x, y in zip(ab.masses, ba.masses):
        assert x == pytest.approx(y, abs=1e-12)
    left = fiber_convolution(ab, vc)
    right = fiber_convolution(va, fiber_convolution(vb, vc))
    assert left.positions.tolist() == right.positions.tolist()
    for x, y in zip(left.velocities, right.velocities):
        assert x == pytest.approx(y, abs=1e-10)
    for x, y in zip(left.masses, right.masses):
        assert x == pytest.approx(y, abs=1e-10)
