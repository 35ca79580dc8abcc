"""Exact-transport engine tests.

The simplex path is cross-checked three ways: against the 1D monotone
coupling, against brute-force enumeration over permutation couplings,
and against hand-derived instances frozen below. The assignment regime
(m vs m atoms of one bit-equal mass) is cross-checked against the
simplex and against an independent assignment on a numpy cost matrix.
The simplex's starting bases are checked against plain loops: the 1D
start against the northwest loop it used to run, the nD start against a
least-cost loop. Its kept basis tree is checked against a breadth-first
recompute from row 0, and a digest pins 54 seeded plans of every
solver; another pins the plans and pivot counts of 224 forced-simplex
instances, and HiGHS solves the nD instances of both again. The sweep
is checked float for float against a single-loop reference.
"""

import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog

from mdelab import (
    TransportPlan,
    ValidationError,
    dirac,
    kr_dual_gap,
    make_measure,
    plan_is_optimal,
    transport,
    validate_plan,
    wasserstein,
)
from mdelab.cli import main
from mdelab.measure import measure_to_dict
from mdelab.transport import (PLAN_TOL, _check_coupling, _cost_matrix,
                              _northwest, _plan_cost, _Simplex)


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
    # only "auto" and "simplex" name a solver; 1D "auto" is the monotone one
    for method in ("monotone", "lp"):
        with pytest.raises(ValidationError) as info:
            wasserstein(dirac(0.0), dirac(1.0), method=method)
        assert info.value.field == "method"


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


def _entry_loop_check(plan, row_masses, col_masses, tol, what):
    """The loop over plan entries that _check_coupling ran before plans
    held their entries as columns."""
    if plan.rows != len(row_masses) or plan.cols != len(col_masses):
        raise ValidationError(f"{what} shape does not match the measures")
    row_sums = [0.0] * plan.rows
    col_sums = [0.0] * plan.cols
    for i, k, w in plan.entries:
        if not (0 <= i < plan.rows and 0 <= k < plan.cols):
            raise ValidationError(f"{what} index ({i},{k}) out of range")
        if not w > 0.0:
            raise ValidationError(f"{what} weights must be positive")
        row_sums[i] += w
        col_sums[k] += w
    for side, sums, masses in (("row", row_sums, row_masses.tolist()),
                               ("column", col_sums, col_masses.tolist())):
        for i, (total, m) in enumerate(zip(sums, masses)):
            if abs(total - m) > tol:
                raise ValidationError(
                    f"{what} {side} {i} mass {total!r} != {m!r}")


def _check_message(check, plan, mu, nu, tol):
    try:
        check(plan, mu.masses, nu.masses, tol, "plan")
    except ValidationError as exc:
        return str(exc)
    return None


def test_coupling_check_is_the_entry_loop():
    # every single fault and pairs of faults, in both orders, at each
    # entry of a simplex plan: the column check raises what the loop did
    rng = np.random.default_rng(8)
    mu = make_measure(zip(rng.uniform(-1.0, 1.0, (6, 2)),
                          np.full(6, 1.0 / 6)))
    nu = make_measure(zip(rng.uniform(-1.0, 1.0, (5, 2)),
                          rng.dirichlet(np.ones(5))))
    plan = wasserstein(mu, nu).plan
    rows = list(plan.entries)

    def faults(i, k, w):
        return [(i, k, w), (-1, k, w), (6, k, w), (i, 5, w), (i, -2, w),
                (i, (k + 1) % 5, w), (i, k, 0.0), (i, k, -w),
                (i, k, math.nan), (i, k, math.inf), (i, k, w * (1.0 + 1e-9)),
                (i, k, w + 1e-11), (i, k, 2 * w), (-1, k, 0.0),
                (i, 5, math.nan)]

    cases = [rows, rows[:-1], rows + [(0, 0, 1e-12)]]
    for j, entry in enumerate(rows):
        for fault in faults(*entry):
            cases.append(rows[:j] + [fault] + rows[j + 1:])
        for a, b in itertools.product(faults(*entry)[1:], repeat=2):
            if j + 1 < len(rows):
                cases.append(rows[:j] + [a, b] + rows[j + 2:])
    seen = set()
    for entries in cases:
        bad = dataclasses.replace(plan, entries=tuple(entries))
        for tol in (PLAN_TOL, 0.0):
            want = _check_message(_entry_loop_check, bad, mu, nu, tol)
            assert _check_message(_check_coupling, bad, mu, nu, tol) == want
            seen.add(want and want.split()[1])
    assert seen == {None, "index", "weights", "row", "column"}
    for shape in ((6, 4), (5, 5)):
        bad = dataclasses.replace(plan, rows=shape[0], cols=shape[1])
        assert "shape" in _check_message(_check_coupling, bad, mu, nu, 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_plan_cost_is_the_fsum_of_weighted_distances(dim):
    # random entries, a few and a few thousand (the row-sum tree's size)
    rng = np.random.default_rng(dim)
    mu = make_measure(zip(rng.uniform(-1.0, 1.0, (40, dim)),
                          np.full(40, 1.0 / 40)))
    nu = make_measure(zip(rng.uniform(-3.0, 3.0, (30, dim)),
                          np.full(30, 1.0 / 30)))
    p, q = mu.positions.tolist(), nu.positions.tolist()
    for count in (1, 7, 3000):
        entries = tuple(zip(rng.integers(0, 40, count).tolist(),
                            rng.integers(0, 30, count).tolist(),
                            rng.exponential(1e-3, count).tolist()))
        plan = TransportPlan(rows=40, cols=30, entries=entries, cost=0.0)
        want = math.fsum(w * math.dist(p[i], q[k]) for i, k, w in entries)
        assert _plan_cost(plan.entries, mu, nu).hex() == want.hex()


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

    def test_lipschitz_violation_names_the_first_pair(self):
        # witness 1 breaks the bound on atoms (0, 3) and (1, 2) of the
        # sorted union; a loop over a, then b > a, meets (0, 3) first,
        # a loop over b, then a < b, would meet (1, 2)
        values = {(-1.5, -2.0): 1.0, (-1.5, 1.0): 0.5, (-1.5, 2.0): -1.5,
                  (-1.0, -1.0): -1.0}
        mu = make_measure([((-1.5, -2.0), 0.5), ((-1.5, 2.0), 0.5)])
        nu = make_measure([((-1.5, 1.0), 0.5), ((-1.0, -1.0), 0.5)])
        with pytest.raises(ValidationError) as caught:
            kr_dual_gap(mu, nu, [lambda x: 0.0, lambda x: values[x]])
        assert str(caught.value) == (
            "witness 1 is not 1-Lipschitz on the atoms: |f(-1.5, -2.0) - "
            "f(-1.0, -1.0)| = 2.0 > 1.118033988749895")
        assert caught.value.field == "witnesses[1]"


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
    fast = wasserstein(mu, nu).distance
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


@pytest.mark.parametrize("method", ["auto", "simplex"])
@pytest.mark.parametrize("dim", [2, 3])
def test_distance_is_symmetric_and_zero_on_itself(dim, method):
    # generic pairs: random positions and unequal random masses. W must
    # not depend on which measure gives the rows, to the last bit
    rng = np.random.default_rng(77 + dim)
    for _ in range(40):
        m, n = rng.integers(1, 16, 2).tolist()
        mu, nu = _pinned_cloud(rng, m, dim), _pinned_cloud(rng, n, dim)
        assert (wasserstein(mu, nu, method).distance
                == wasserstein(nu, mu, method).distance)
        assert wasserstein(mu, mu, method).distance == 0.0


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


@st.composite
def grid_measure(draw, dim, max_atoms):
    # positions on multiples of 1/4 and masses in {1, 2, 3, 4}/total:
    # tied costs and degenerate pivots
    k = draw(st.integers(1, max_atoms))
    raw = [(tuple(0.25 * draw(st.integers(-4, 4)) for _ in range(dim)),
            draw(st.integers(1, 4))) for _ in range(k)]
    total = sum(w for _, w in raw)
    return make_measure([(p, w / total) for p, w in raw], dim=dim)


def _bfs_duals(cells, m, n, cost):
    """Duals from scratch: breadth-first from row 0 over the basic cells,
    u_i = c_ik - v_k and v_k = c_ik - u_i. The oracle for the tree."""
    adj = [[] for _ in range(m + n)]
    for i, k in cells:
        adj[i].append(m + k)
        adj[m + k].append(i)
    dual = [None] * (m + n)
    dual[0] = 0.0
    queue = [0]
    for a in queue:
        for b in adj[a]:
            if dual[b] is None:
                i, k = (a, b - m) if a < m else (b, a - m)
                dual[b] = cost[i][k] - dual[a]
                queue.append(b)
    return dual


def _northwest_basis(src, tgt):
    """The simplex's starting basis as its own northwest loop built it
    before it took the shared sweep: every step advances one index, so
    there are exactly m + n - 1 cells, and when both masses run out
    together a zero cell is kept. The oracle for the starting basis."""
    src, tgt = list(src), list(tgt)
    m, n = len(src), len(tgt)
    flow = {}
    i = k = 0
    while True:
        delta = min(src[i], tgt[k])
        flow[(i, k)] = delta
        src[i] -= delta
        tgt[k] -= delta
        if i == m - 1 and k == n - 1:
            return flow
        if i == m - 1:
            k += 1
        elif k == n - 1:
            i += 1
        elif src[i] == 0.0 and tgt[k] > 0.0:
            i += 1
        elif tgt[k] == 0.0 and src[i] > 0.0:
            k += 1
        else:
            i += 1


@st.composite
def basis_masses(draw):
    # 1 to 9 equal, quarter-grid or random masses, normalised; then the
    # last mass moves a few ulps, so the two totals can differ slightly
    k = draw(st.integers(1, 9))
    raw = draw(st.one_of(
        st.just([1.0] * k),
        st.lists(st.sampled_from([1.0, 2.0, 3.0, 4.0]),
                 min_size=k, max_size=k),
        st.lists(weights, min_size=k, max_size=k)))
    total = math.fsum(raw)
    masses = [w / total for w in raw]
    toward = draw(st.sampled_from([0.0, 1.0]))
    for _ in range(draw(st.integers(0, 3))):
        masses[-1] = math.nextafter(masses[-1], toward)
    return masses


@given(basis_masses(), basis_masses())
@settings(max_examples=200, deadline=None)
# both masses run out together at (0, 0), (1, 1), and at (0, 1) and
# (1, 3); the column total an ulp short, and an ulp over; the rows run
# out at column 1 of 3, and the columns at row 1 of 3
@example([0.5, 0.5], [0.5, 0.5])
@example([0.5, 0.5], [0.25, 0.25, 0.25, 0.25])
@example([0.5, 0.5], [0.5, math.nextafter(0.5, 0.0)])
@example([0.25, 0.25, 0.5], [0.5, math.nextafter(0.5, 1.0)])
@example([0.5, 0.5 - 2**-40], [0.5, 0.5 - 2**-40, 2**-40])
@example([0.5, 0.5 - 2**-40, 2**-40], [0.5, 0.5 - 2**-40])
def test_starting_basis_is_the_northwest_loop(src, tgt):
    solver = _Simplex(np.zeros((len(src), len(tgt))), src, tgt,
                      least_cost=False)
    assert solver.flow == _northwest_basis(src, tgt)
    assert len(solver.flow) == len(src) + len(tgt) - 1


def _least_cost_reference(cost, src, tgt):
    """The least-cost start as a plain loop over the cells sorted by
    (cost, i, k): ship the open row's or column's remainder, whichever
    is smaller, and close that line (the row on a tie); the last open
    row closes columns, the last open column closes rows, and the last
    cell ships what is left, never below 0. The oracle for the start."""
    src, tgt = list(src), list(tgt)
    m, n = len(src), len(tgt)
    rows, cols = set(range(m)), set(range(n))
    flow = {}
    for _, i, k in sorted((cost[i][k], i, k)
                          for i in range(m) for k in range(n)):
        if i not in rows or k not in cols:
            continue
        if len(rows) == 1 and len(cols) == 1:
            flow[(i, k)] = max(min(src[i], tgt[k]), 0.0)
            return flow
        if len(rows) == 1 or (len(cols) > 1 and src[i] > tgt[k]):
            delta = tgt[k]
            cols.remove(k)
        else:
            delta = src[i]
            rows.remove(i)
        flow[(i, k)] = delta
        src[i] -= delta
        tgt[k] -= delta


def _is_spanning_tree(cells, m, n):
    """m + n - 1 cells that join all m rows and n columns."""
    reached, frontier = {0}, [0]
    for a in frontier:
        for i, k in cells:
            for x, y in ((i, m + k), (m + k, i)):
                if x == a and y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return len(cells) == m + n - 1 and len(reached) == m + n


@st.composite
def least_cost_case(draw):
    # basis_masses on both sides and a random, a tied or an all-zero
    # cost matrix
    src, tgt = draw(basis_masses()), draw(basis_masses())
    entry = draw(st.sampled_from([
        st.floats(0.0, 3.0), st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.just(0.0)]))
    cost = [[draw(entry) for _ in tgt] for _ in src]
    return src, tgt, cost


@given(least_cost_case())
@settings(max_examples=200, deadline=None)
# both masses run out together at the first cell; a tie at the last
# row, which ships the column's 0.25 and keeps column 0 at 0 for the
# last cell; a tie at the last column, as 0.6 - 0.4 falls an ulp short
# of 0.2 and column 1 closes first
@example(([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 2.0]]))
@example(([0.25, 0.75], [0.25, 0.5, 0.25],
          [[0.0, 9.0, 9.0], [9.0, 1.0, 2.0]]))
@example(([0.4, 0.2, 0.4], [0.4, 0.6], [[1.0, 0.0], [3.0, 0.0], [2.0, 0.0]]))
def test_starting_basis_is_the_least_cost_loop(case):
    src, tgt, cost = case
    solver = _Simplex(np.array(cost), src, tgt, least_cost=True)
    # the same cells in the same order with the same floats, zeros too
    assert repr(solver.flow) == repr(_least_cost_reference(cost, src, tgt))
    assert _is_spanning_tree(solver.flow, len(src), len(tgt))


def _sweep_reference(src, tgt, band=None):
    """The sweep as a single loop over moves, before its inner loop per
    source: the oracle for _northwest's lists, float for float."""
    src = list(src)
    tgt = list(tgt)
    m, n = len(src), len(tgt)
    lo, hi = band if band is not None else ([0] * m, [n] * m)
    rows, cols, deltas = [], [], []
    i, k, top = 0, lo[0], hi[0]
    while True:
        if k < top:
            s, t = src[i], tgt[k]
            rows.append(i)
            cols.append(k)
            if s > t:
                deltas.append(t)
                src[i] = s - t
                k += 1
                continue
            deltas.append(s)
            if s == t:
                k += 1
            else:
                tgt[k] = t - s
        i += 1
        if i == m or k == n:
            return rows, cols, deltas
        k, top = max(k, lo[i]), hi[i]


@st.composite
def sweep_masses(draw):
    # basis_masses with some entries zeroed, as the marginal repair's
    # deficits are
    masses = draw(basis_masses())
    for j in draw(st.sets(st.integers(0, len(masses) - 1))):
        masses[j] = 0.0
    return masses


@st.composite
def sweep_case(draw):
    # two mass lists and, half the time, a band (lo, hi) of nondecreasing
    # ends in [0, n] with lo <= hi, as _face_band gives them
    src = draw(st.one_of(basis_masses(), sweep_masses()))
    tgt = draw(st.one_of(basis_masses(), sweep_masses()))
    if not draw(st.booleans()):
        return src, tgt, None
    m, n = len(src), len(tgt)
    ends = st.lists(st.integers(0, n), min_size=m, max_size=m).map(sorted)
    lo, hi = draw(ends), draw(ends)
    return src, tgt, (lo, [max(a, b) for a, b in zip(lo, hi)])


@given(sweep_case())
@settings(max_examples=300, deadline=None)
# equal totals; column total an ulp short; zero masses on both sides;
# a band that skips targets, strands a source and ends before n
@example(([0.5, 0.5], [0.25, 0.25, 0.5], None))
@example(([0.5, 0.5], [0.5, math.nextafter(0.5, 0.0)], None))
@example(([0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5], None))
@example(([0.25, 0.25, 0.5], [0.5, 0.0, 0.5], ([0, 2, 2], [1, 2, 3])))
@example(([0.5, 0.5], [0.25, 0.25, 0.5], ([1, 1], [2, 2])))
def test_sweep_matches_the_single_loop(case):
    src, tgt, band = case
    assert repr(_northwest(src, tgt, band)) == repr(
        _sweep_reference(src, tgt, band))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_simplex_tree_invariants(data):
    dim = data.draw(st.integers(1, 3))
    draw_measure = st.one_of(random_measure(dim, 10), grid_measure(dim, 10))
    mu, nu = data.draw(draw_measure), data.draw(draw_measure)
    solver = _Simplex(_cost_matrix(mu.positions, nu.positions),
                      mu.masses.tolist(), nu.masses.tolist(),
                      least_cost=dim > 1)  # the start wasserstein takes
    solver.solve()
    m, n = solver.m, solver.n
    assert solver.parent[0] == -1 and solver.depth[0] == 0
    for node in range(1, m + n):
        up = solver.parent[node]
        assert solver.depth[node] == solver.depth[up] + 1
        for _ in range(m + n):  # row 0 within m + n steps
            if up == 0:
                break
            up = solver.parent[up]
        assert up == 0
    edges = {solver._cell(a, solver.parent[a]) for a in range(1, m + n)}
    assert edges == set(solver.flow) and len(edges) == m + n - 1
    oracle = _bfs_duals(solver.flow, m, n, solver.cost.tolist())
    assert [d.hex() for d in solver.dual] == [d.hex() for d in oracle]


def test_pivot_budget_error_names_its_work(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(9)
    files = []
    for name, count in (("mu", 6), ("nu", 7)):
        path = tmp_path / f"{name}.json"
        cloud = _planar_cloud(rng, [1.0 / count] * count)
        path.write_text(json.dumps(measure_to_dict(cloud)), encoding="utf-8")
        files.append(str(path))
    hangs = _count_pivots(monkeypatch)
    assert main(["dist", *files]) == 0
    capsys.readouterr()
    pivots = len(hangs) - 1
    assert pivots > 1
    # a budget of exactly the pivots needed is enough, one fewer is not
    for budget, code in ((pivots, 0), (pivots - 1, 3), (1, 3)):
        monkeypatch.setattr(transport, "_pivot_budget", lambda m, n: budget)
        assert main(["dist", *files]) == code
        if code == 0:
            capsys.readouterr()
            continue
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "numerical"
        assert err["message"] == (
            f"transportation simplex on m x n = 6 x 7 cells: {budget} "
            f"pivots done of a budget of {budget}, and the basis is still "
            f"not optimal")


def _pinned_masses(rng, count, grid):
    raw = (rng.integers(1, 5, count).astype(float) if grid
           else rng.uniform(0.2, 1.0, count))
    return (raw / raw.sum()).tolist()


def _pinned_cloud(rng, count, dim, grid=False, masses=None):
    # grid clouds sit on multiples of 1/4 with masses in {1, 2, 3, 4}/total:
    # coincident atoms merge, and costs and masses tie often
    pos = (rng.integers(-4, 5, (count, dim)) * 0.25 if grid
           else rng.uniform(-1.0, 1.0, (count, dim)))
    masses = masses or _pinned_masses(rng, count, grid)
    return make_measure(list(zip(map(tuple, pos.tolist()), masses)), dim=dim)


def _pinned_instances():
    """The (mu, nu, method) of the 54 pinned plans, in order."""
    rng = np.random.default_rng(1414)
    cases = []
    for dim in (1, 2, 3):
        for m, n in ((2, 3), (5, 4), (9, 12), (17, 14), (1, 6), (7, 1)):
            mu, nu = _pinned_cloud(rng, m, dim), _pinned_cloud(rng, n, dim)
            cases.append((mu, nu, "simplex"))
        for m, n in ((6, 6), (12, 10), (20, 23), (1, 5), (8, 1)):
            mu = _pinned_cloud(rng, m, dim, grid=True)
            nu = _pinned_cloud(rng, n, dim, grid=True)
            cases.append((mu, nu, "simplex"))
        for m in (4, 11, 25):
            mu = _pinned_cloud(rng, m, dim, masses=[1.0 / m] * m)
            nu = _pinned_cloud(rng, m, dim, masses=[1.0 / m] * m)
            cases.append((mu, nu, "simplex"))
    for m, n in ((3, 5), (40, 33), (1, 9), (9, 1), (200, 150)):
        mu, nu = _pinned_cloud(rng, m, 1), _pinned_cloud(rng, n, 1)
        cases.append((mu, nu, "auto"))
        mu = _pinned_cloud(rng, m, 1, grid=True)
        nu = _pinned_cloud(rng, n, 1, grid=True)
        cases.append((mu, nu, "auto"))
    for m in (5, 64):
        mu = _pinned_cloud(rng, m, 1, masses=[1.0 / m] * m)
        nu = _pinned_cloud(rng, m, 1, masses=[1.0 / m] * m)
        cases.append((mu, nu, "auto"))
    return cases


def _pinned_plans():
    return [wasserstein(mu, nu, method=method).plan
            for mu, nu, method in _pinned_instances()]


def test_plans_are_pinned():
    # 54 seeded plans: the forced simplex in 1D-3D on unequal, quarter-grid
    # and equal masses, 1 x n and m x 1 shapes, and 1D monotone plans. The
    # digest was taken when the nD simplex began to start from the
    # least-cost basis (the 1D plans are those of the first digest, taken
    # before the rewrite to a kept basis tree and a flat sweep); any
    # change to a pivot, an entry or a cost changes it.
    plans = _pinned_plans()
    assert len(plans) == 54
    text = repr([(plan.entries, plan.cost) for plan in plans])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8af407b08dc7d8dfc7efb4016564459c748deb892a3f02d967506bc0ac9dc8d5")


def _simplex_pairs():
    """224 seeded 2D pairs for the forced simplex: random, quarter-grid
    and equal masses in turn."""
    rng = np.random.default_rng(2121)
    for j in range(224):
        m, n = rng.integers(1, 19, 2).tolist()
        if j % 4 == 3:  # equal masses, which auto would send elsewhere
            mu = _pinned_cloud(rng, m, 2, masses=[1.0 / m] * m)
            nu = _pinned_cloud(rng, m, 2, masses=[1.0 / m] * m)
        else:  # every other grid pair has coincident atoms and ties
            grid = j % 4 == 1
            mu = _pinned_cloud(rng, m, 2, grid=grid)
            nu = _pinned_cloud(rng, n, 2, grid=grid)
        yield mu, nu


def _count_pivots(monkeypatch):
    """A list that gets one entry per _hang: the start hangs the whole
    tree once, and every pivot re-hangs one subtree."""
    hangs = []
    hang = _Simplex._hang
    monkeypatch.setattr(_Simplex, "_hang",
                        lambda self, *a: hangs.append(a) or hang(self, *a))
    return hangs


def _simplex_runs(monkeypatch):
    """The _simplex_pairs through the forced simplex: each plan's
    entries with weights by .hex(), its cost by .hex(), and its pivot
    count (one _hang per pivot after the one that hangs the start)."""
    hangs = _count_pivots(monkeypatch)
    runs = []
    for mu, nu in _simplex_pairs():
        before = len(hangs)
        plan = wasserstein(mu, nu, method="simplex").plan
        runs.append((tuple((i, k, w.hex()) for i, k, w in plan.entries),
                     plan.cost.hex(), len(hangs) - before - 1))
    return runs


def test_simplex_pivots_are_pinned(monkeypatch):
    # The digest was taken when the nD simplex began to start from the
    # least-cost basis: every entry, cost and pivot count must stay
    # bit-identical. The start halved the pivots of the first 200 pairs
    # (3559 to 1810), so the loop runs on to 224 pairs to keep the bar.
    runs = _simplex_runs(monkeypatch)
    assert sum(pivots for *_, pivots in runs) > 2000
    text = repr(runs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4bfd1541462428a18c9d74100feb093d9549d399c6d2a452a1bbefe517fb7aa7")


def _lp_distance(mu, nu):
    """W by scipy's HiGHS on the transportation LP over the same cost
    matrix: one variable per cell, one equality per row and column."""
    m, n = mu.atom_count, nu.atom_count
    a_eq = np.vstack([np.kron(np.eye(m), np.ones(n)),
                      np.kron(np.ones(m), np.eye(n))])
    res = linprog(_cost_matrix(mu.positions, nu.positions).ravel(),
                  A_eq=a_eq, b_eq=np.concatenate([mu.masses, nu.masses]),
                  method="highs")
    assert res.status == 0
    return res.fun


def test_pinned_nd_plans_match_an_lp():
    # the nD instances behind the two digests above, solved again by an
    # independent LP: the pins hold optimal vertices, not merely the
    # floats some pivot order gave
    nd = [(mu, nu, method) for mu, nu, method in _pinned_instances()
          if mu.dim > 1]
    nd += [(mu, nu, "simplex") for mu, nu in _simplex_pairs()]
    assert len(nd) == 28 + 224
    for mu, nu, method in nd:
        plan = wasserstein(mu, nu, method=method).plan
        assert abs(plan.cost - _lp_distance(mu, nu)) <= 1e-12 * (
            1.0 + plan.cost)
        assert len(plan.entries) <= mu.atom_count + nu.atom_count - 1


def _roadmap_cloud(seed, count):
    # positions uniform in [-0.9, 0.9]^2, masses uniform in [0.5, 1.5],
    # normalised: the seeded 2D clouds of the transport scaling table
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-0.9, 0.9, (count, 2))
    raw = rng.uniform(0.5, 1.5, count)
    return make_measure(list(zip(map(tuple, pos.tolist()),
                                 (raw / raw.sum()).tolist())), dim=2)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_least_cost_start_keeps_pivots_low(seed, monkeypatch):
    # 100 x 103 unequal masses: the least-cost start takes 177-245
    # pivots, the cost-blind northwest start 487-545. A bar of
    # 1.5 (m + n) catches a return to a start that ignores the costs.
    hangs = _count_pivots(monkeypatch)
    mu, nu = _roadmap_cloud(seed, 100), _roadmap_cloud(seed + 100, 103)
    wasserstein(mu, nu)
    assert len(hangs) - 1 <= 1.5 * (100 + 103)
