"""Constrained fiber costs between lifted measures, and the fiber monoid.

The headline quantity is the two-stage optimum: a linear program over
lifted couplings whose induced base plan is an optimal base
(Wasserstein) plan, minimizing a selectable fiber integrand.

In 1D stage 2 is exact. For the cost |x - y| a coupling is optimal if
and only if the mass crossing each point z moves in the direction of
sign(F_mu - F_nu)(z) only, and not at all where F_mu = F_nu
(Santambrogio, OT for Applied Mathematicians, 2.2 and 3.1). The optimal
base plans are therefore exactly the couplings supported on the allowed
pairs (see _face_band). Stage 2 has three regimes, chosen by the input
alone:

- 1D, m atoms a side, every mass bit-equal: an assignment. The face is
  then a bipartite transportation polytope whose vertices are
  permutations (Birkhoff-von Neumann; the incidence matrix is totally
  unimodular), so a cheapest permutation on the allowed pairs is an
  optimal vertex. linear_sum_assignment (Jonker-Volgenant shortest
  augmenting paths) finds one, with the pairs off the face priced at
  inf, and its marginals are exact. The dense m x m cost matrix is held
  to MAX_COUPLING_VARS cells.
- 1D, any other pair: a HiGHS LP with one variable per allowed pair, no
  budget row and no slack, repaired to exact marginals.
- nD: stage 2 first solves the base W*, then relaxes base optimality to
  "base cost <= W* + 1e-7*(1+W*)" over all pairs; the reverse
  inequality holds automatically, so the feasible region is the
  near-optimal-plan polytope.

One array integrand (_integrand) prices the cells of every regime and
the moves of the 1D monotone plan that monotone_fiber_cost_1d evaluates.
A plan's entries are the kept cells' row, column and flow arrays, as
read-only int64, int64 and float64 columns behind the row view of
transport plans (transport._Coupling); induced_base_plan sums them per
base cell with np.bincount, in entry order, into a TransportPlan's.
The one_sided integrand <v-w, x-y>/|x-y| is defined as 0 when x = y.
The two-stage value need not satisfy the triangle inequality; that is a
feature of the quantity, not a solver defect, and tests assert a
violating triple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericalError, ValidationError
from .measure import (ArrayRows, DiscreteMeasure, LiftedMeasure, _build,
                      _group_sums, as_rows, base_marginal, exact_row_sums,
                      norms)
from .transport import (TransportPlan, _check_coupling, _Coupling,
                        _equal_masses, _monotone_moves, _northwest,
                        _plan_cost, _plan_entries, wasserstein)

BASE_OPT_REL_TOL = 1e-7      # nD stage-2 constraint slack: W* + 1e-7*(1+W*)
MARGINAL_TOL = 1e-10
MAX_COUPLING_VARS = 250_000  # stage-2 refusal threshold, in LP variables
_SUM_MERGE_TOL = 2.0 ** -42  # fiber sums this close merge (1024 ulps of 1)
_ENTRY_FLOOR = 1e-14         # LP vertex entries below this are noise


class FiberCostKind(Enum):
    FIBER = "fiber"           # |v - w|
    COMBINED = "combined"     # |x - y| + |v - w|
    ONE_SIDED = "one_sided"   # <v - w, x - y> / |x - y|, 0 at x = y


@dataclass(frozen=True)
class LiftedPlan(_Coupling):
    """Coupling of two lifted measures, entries (a, b, weight) where a
    indexes an (x, v) atom of the first measure and b a (y, w) atom of
    the second, as read-only int64, int64 and float64 columns in (a, b)
    order (transport._Coupling). Plans compare by value and are
    unhashable.

    allowed_pairs counts the atom pairs stage 2 could use: the
    pairs on the optimal face in 1D, rows*cols in nD. degenerate_base
    (1D; None in nD) is true when the optimal base plan is not unique,
    that is when the allowed pairs of base points outnumber the
    m + m' - 1 entries of the monotone plan (m + m' - b when they split
    the m + m' base points into b independent blocks).
    """

    rows: int
    cols: int
    entries: ArrayRows
    base_cost: float
    fiber_cost: float
    allowed_pairs: int
    degenerate_base: bool | None

    __hash__ = None


def validate_lifted_plan(plan: LiftedPlan, v1: LiftedMeasure,
                         v2: LiftedMeasure,
                         tol: float = MARGINAL_TOL) -> None:
    _check_coupling(plan, v1.masses, v2.masses, tol, "lifted plan")


def induced_base_plan(plan: LiftedPlan, v1: LiftedMeasure,
                      v2: LiftedMeasure) -> TransportPlan:
    """Project a lifted coupling to the base: weights summed over fibers."""
    mu = base_marginal(v1)
    nu = base_marginal(v2)
    a, b, w = plan.entries.columns
    cells = _base_groups(v1)[2][a] * nu.atom_count + _base_groups(v2)[2][b]
    # bincount adds each cell's weights in entry order, as a running sum
    cells, inverse = np.unique(cells, return_inverse=True)
    rows, cols = np.divmod(cells, nu.atom_count)
    entries = _plan_entries(rows, cols, np.bincount(inverse, w))
    return TransportPlan(rows=mu.atom_count, cols=nu.atom_count,
                         entries=entries, cost=_plan_cost(entries, mu, nu))


def _band_cells(lo: np.ndarray, hi: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index of each cell of a band, row-major: row i
    holds columns lo[i] .. hi[i]-1."""
    counts = hi - lo
    row_of = np.repeat(np.arange(len(lo)), counts)
    starts = np.cumsum(counts) - counts
    col_of = lo[row_of] + np.arange(len(row_of)) - starts[row_of]
    return row_of, col_of


def _round_to_polytope(flow: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                       r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Repair an approximately-feasible coupling to exact marginals.

    flow holds the cells of the band (lo, hi) row-major (_band_cells).
    The LP solver only meets its own feasibility tolerance; the plan
    contract promises 1e-10. Scale overfull rows, then overfull
    columns, then fill the remaining deficit by a northwest sweep that
    stays in the band, so a plan on the optimal face stays there. Costs
    move by O(deficit * max distance). A deficit the sweep cannot place
    raises NumericalError; HiGHS vertex plans leave deficits of an ulp
    or two, which the sweep places or which stay far below the contract.
    """
    row_of, col_of = _band_cells(lo, hi)
    flow = np.maximum(flow, 0.0)
    for index, target in ((row_of, r), (col_of, c)):
        sums = np.bincount(index, flow, len(target))
        over = sums > target
        if over.any():
            scale = np.ones(len(target))
            scale[over] = target[over] / sums[over]
            flow *= scale[index]
    err_r = np.maximum(r - np.bincount(row_of, flow, len(r)), 0.0)
    err_c = np.maximum(c - np.bincount(col_of, flow, len(c)), 0.0)
    starts = np.cumsum(hi - lo) - (hi - lo)
    a, b, step = _northwest(err_r.tolist(), err_c.tolist(),
                            (lo.tolist(), hi.tolist()))
    a, b = np.array(a, dtype=np.intp), np.array(b, dtype=np.intp)
    flow[starts[a] + b - lo[a]] += step  # a sweep visits each cell once
    left = max(np.abs(r - np.bincount(row_of, flow, len(r))).max(),
               np.abs(c - np.bincount(col_of, flow, len(c))).max())
    if left > MARGINAL_TOL:
        raise NumericalError(
            f"marginal repair left a deficit of {left:.3g} that no "
            f"allowed pair can carry")
    return flow


def _face_band(v1: LiftedMeasure, v2: LiftedMeasure,
               ) -> tuple[np.ndarray, np.ndarray, bool]:
    """The allowed pairs of a 1D pair as a band (lo, hi): atom a of v1
    may couple with atoms lo[a] .. hi[a]-1 of v2 in a lifted plan whose
    base plan is optimal. Also returns degenerate_base (see LiftedPlan).

    Pair (x, y) is allowed when x = y, when x < y and D = F_mu - F_nu
    > 0 on every gap between consecutive support points in [x, y), or
    when x > y and D < 0 on every gap in [y, x). D is summed exactly:
    every float mass is a dyadic rational, an integer once scaled by the
    largest denominator, so a tie D = 0 stays a tie where a float
    running sum can read 5.6e-17. Both ends of the range are
    nondecreasing in a, since the atoms are sorted by position.
    """
    x1 = v1.positions[:, 0]
    x2 = v2.positions[:, 0]
    z = np.union1d(x1, x2)
    pos = np.concatenate([x1, x2])
    order = np.argsort(pos, kind="stable")
    terms = np.concatenate([v1.masses, np.negative(v2.masses)])[order]
    ratios = [m.as_integer_ratio() for m in terms.tolist()]
    scale = max(den for _, den in ratios)
    running = list(itertools.accumulate(num * (scale // den)
                                        for num, den in ratios))
    cuts = np.searchsorted(pos[order], z[:-1], side="right")
    d = np.array([(running[cut - 1] > 0) - (running[cut - 1] < 0)
                  for cut in cuts])
    # from support point p, mass may move right up to the first gap at
    # or after p that D does not cross rightward, and left down to the
    # last gap before p that D does not cross leftward
    gaps = np.arange(len(d))
    stop_right = np.append(gaps[d <= 0], len(z) - 1)
    stop_left = np.insert(gaps[d >= 0] + 1, 0, 0)

    def band(rows: np.ndarray, cols: np.ndarray,
             ) -> tuple[np.ndarray, np.ndarray]:
        p = np.searchsorted(z, rows)
        right = stop_right[np.searchsorted(stop_right, p)]
        left = stop_left[np.searchsorted(stop_left, p, side="right") - 1]
        return (np.searchsorted(cols, z[left], side="left"),
                np.searchsorted(cols, z[right], side="right"))

    lo, hi = band(x1, x2)
    # the optimal base plan is unique exactly when the allowed base pairs
    # form a forest: one tree per block of base points they connect
    base1, base2 = np.unique(x1), np.unique(x2)
    base_lo, base_hi = band(base1, base2)
    blocks = 1 + np.count_nonzero(base_lo[1:] >= base_hi[:-1])
    degenerate = bool((base_hi - base_lo).sum()
                      > len(base1) + len(base2) - blocks)
    return lo, hi, degenerate


def _integrand(v1: LiftedMeasure, v2: LiftedMeasure, row_of: np.ndarray,
               col_of: np.ndarray, kind: FiberCostKind,
               ) -> tuple[np.ndarray, np.ndarray]:
    """(base distance, integrand of the kind) on the cells (row_of[j],
    col_of[j]). Distances are math.dist's, and <v - w, x - y> is the
    math.fsum of each cell's products (measure.exact_row_sums)."""
    gap = v1.positions[row_of] - v2.positions[col_of]
    dv = v1.velocities[row_of] - v2.velocities[col_of]
    base_dist = norms(gap)
    if kind is FiberCostKind.FIBER:
        return base_dist, norms(dv)
    if kind is FiberCostKind.COMBINED:
        return base_dist, base_dist + norms(dv)
    dot = exact_row_sums(dv * gap)
    objective = np.zeros(len(dot))
    np.divide(dot, base_dist, out=objective, where=base_dist > 0.0)
    return base_dist, objective


def constrained_fiber_cost(v1: LiftedMeasure, v2: LiftedMeasure,
                           kind: FiberCostKind = FiberCostKind.FIBER,
                           ) -> tuple[float, LiftedPlan]:
    """LP optimum of the selected cost over lifted couplings whose base
    projection is an optimal base plan.

    In 1D stage 2 runs on the exact optimal face, the allowed pairs of
    _face_band, with no budget row and no slack. Two m-atom measures
    whose masses are all bit-equal, with m*m <= MAX_COUPLING_VARS, give
    an assignment problem: a cheapest permutation on the face, exact
    marginals, base cost W1 up to rounding. Other 1D pairs solve a
    HiGHS LP on the face, so the base cost is W1 up to the marginal
    repair. In nD the LP runs over all pairs with base optimality
    relaxed to base cost <= W* + 1e-7*(1+W*). Every regime may use at
    most MAX_COUPLING_VARS pairs.

    Returns (value, plan), value the selected cost of the plan;
    it is >= 0 for fiber and combined kinds, one_sided may be negative.
    """
    if v1.dim != v2.dim:
        raise ValidationError(
            f"dimension mismatch: {v1.dim} vs {v2.dim}", field="dim")
    if not isinstance(kind, FiberCostKind):
        kind = FiberCostKind(kind)
    rows = v1.atom_count
    cols = v2.atom_count
    if v1.dim == 1:
        lo, hi, degenerate = _face_band(v1, v2)
    else:
        lo, hi = np.zeros(rows, np.int64), np.full(rows, cols)
        degenerate = None
    n_vars = int((hi - lo).sum())
    if n_vars > MAX_COUPLING_VARS:
        raise ValidationError(
            f"stage-2 LP would need {n_vars} coupling variables "
            f"(limit {MAX_COUPLING_VARS}); reduce the atom counts",
            field="atoms")
    row_of, col_of = _band_cells(lo, hi)
    base_dist, objective = _integrand(v1, v2, row_of, col_of, kind)
    if (v1.dim == 1 and rows * cols <= MAX_COUPLING_VARS
            and _equal_masses(v1, v2)):
        flow = _assignment_flow(v1.masses, lo, hi, row_of, col_of, objective)
    else:
        flow = _lp_flow(v1, v2, lo, hi, row_of, col_of, base_dist, objective)
    keep = np.flatnonzero(flow > _ENTRY_FLOOR)
    a, b, kept = row_of[keep], col_of[keep], flow[keep]
    moved = v1.velocities[a] - v2.velocities[b]
    plan = LiftedPlan(rows=rows, cols=cols,
                      entries=_plan_entries(a, b, kept),
                      base_cost=float(exact_row_sums(kept * base_dist[keep])),
                      fiber_cost=float(exact_row_sums(kept * norms(moved))),
                      allowed_pairs=n_vars, degenerate_base=degenerate)
    return float(exact_row_sums(kept * objective[keep])), plan


def _assignment_flow(masses: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     row_of: np.ndarray, col_of: np.ndarray,
                     objective: np.ndarray) -> np.ndarray:
    """Stage 2 of an m vs m pair with one common mass: a cheapest
    permutation on the band (lo, hi), each atom's mass on its matched
    cell of the row-major band. Cells off the band cost inf, so the
    match stays on the optimal face, and its marginals are exact."""
    from scipy.optimize import linear_sum_assignment  # loaded on first use
    cost = np.full((len(lo), len(lo)), np.inf)
    cost[row_of, col_of] = objective
    try:
        match = linear_sum_assignment(cost)[1]
    except ValueError:
        raise NumericalError(
            f"no permutation of the {len(lo)} x {len(lo)} pair lies on "
            f"its {len(row_of)} allowed pairs") from None
    starts = np.cumsum(hi - lo) - (hi - lo)
    flow = np.zeros(len(row_of))
    flow[starts + match - lo] = masses
    return flow


def _lp_flow(v1: LiftedMeasure, v2: LiftedMeasure, lo: np.ndarray,
             hi: np.ndarray, row_of: np.ndarray, col_of: np.ndarray,
             base_dist: np.ndarray, objective: np.ndarray) -> np.ndarray:
    """Stage 2 as a HiGHS LP over the band (lo, hi), one variable per
    cell, repaired to exact marginals. In nD a budget row keeps the
    base cost within BASE_OPT_REL_TOL of W*."""
    import scipy.sparse as sp  # loaded on first use
    from scipy.optimize import linprog
    options = {"primal_feasibility_tolerance": 1e-10,
               "dual_feasibility_tolerance": 1e-10}
    if v1.dim == 1:
        # presolve removes nothing from a transportation LP, and takes
        # about 40% of the solve at a few thousand variables
        lp_args = {"options": {**options, "presolve": False}}
    else:
        w_star = wasserstein(base_marginal(v1), base_marginal(v2)).distance
        lp_args = {"A_ub": base_dist.reshape(1, -1),
                   "b_ub": [w_star + BASE_OPT_REL_TOL * (1.0 + w_star)],
                   "options": options}

    # marginal equalities: one row per atom of each measure
    rows, n_vars = v1.atom_count, len(row_of)
    a_eq = sp.csr_matrix(
        (np.ones(2 * n_vars),
         (np.concatenate([row_of, rows + col_of]),
          np.tile(np.arange(n_vars), 2))),
        shape=(rows + v2.atom_count, n_vars))
    res = linprog(c=objective, A_eq=a_eq,
                  b_eq=np.concatenate([v1.masses, v2.masses]),
                  bounds=(0, None), method="highs-ds", **lp_args)
    if res.status != 0:
        raise NumericalError(
            f"constrained fiber LP failed (status {res.status}): {res.message}")
    return _round_to_polytope(res.x, lo, hi, v1.masses, v2.masses)


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
    rows, cols, deltas = _monotone_moves(v1.masses, v2.masses)
    _, cost = _integrand(v1, v2, rows, cols, kind)
    return float(exact_row_sums(deltas * cost))


def tangent_wasserstein(v1: LiftedMeasure, v2: LiftedMeasure) -> float:
    """Plain Wasserstein distance treating (x, v) atoms as points of R^2n."""
    flat1, flat2 = (_build(np.hstack([v.positions, v.velocities]), v.masses)
                    for v in (v1, v2))
    return wasserstein(flat1, flat2).distance


def wt_bound_check(v1: LiftedMeasure, v2: LiftedMeasure) -> bool:
    """Tangent-space W <= fiber cost + base cost of the constrained
    fiber plan, within 1e-8.

    The plan's tangent cost is at most that sum, since
    sqrt(a^2 + b^2) <= a + b. In 1D stage 2 is exact and the plan's
    base cost is W1 up to rounding for an equal-mass assignment, and up
    to the marginal repair for the LP on the face. In nD the base W* is
    not the right side: the relaxed LP may spend the stage-2 slack
    1e-7*(1+W*) on its base cost to lower its fiber cost.
    """
    w_tangent = tangent_wasserstein(v1, v2)
    fiber_val, plan = constrained_fiber_cost(v1, v2, FiberCostKind.FIBER)
    return w_tangent <= fiber_val + plan.base_cost + 1e-8


def _base_groups(v: LiftedMeasure) -> tuple[np.ndarray, ...]:
    """The base points of v, their masses (the fsum over each fiber, as
    base_marginal sums them) and the base point index of every atom. The
    atoms are sorted by position, so each fiber is one run of atoms."""
    new = np.concatenate(([True], (v.positions[1:] != v.positions[:-1])
                          .any(axis=1)))
    return v.positions[new], _group_sums(v.masses, new), np.cumsum(new) - 1


def fiber_convolution(v1: LiftedMeasure, v2: LiftedMeasure) -> LiftedMeasure:
    """Per-base-point convolution of the conditional fiber distributions.

    Requires identical base marginals (positions and masses within
    1e-10). At base atom x with mass m, fibers {(v, w1)} and {(w, w2)}
    combine to atoms (x, v+w) with weight w1*(w2/m); with the right-hand
    neutral element mu (x) delta_0 the ratio w2/m is exactly 1, so v1's
    weights survive unchanged whenever the shared base masses agree
    bit-for-bit.

    Float addition is not associative: (v+w)+u and v+(w+u) can land
    ulps apart. One sweep over each base point's sums, sorted by
    (velocity, weight), joins each sum to its predecessor's atom when
    all coordinates agree within the absolute _SUM_MERGE_TOL; an atom
    keeps its first velocity and the fsum of its weights. So regrouping
    a product does not split an atom, and the neutral element is exact
    for fibers whose velocities are further apart than the tolerance.
    It is absolute because a tolerance relative to the summands differs
    between the two groupings of a product, and sums whose gap falls
    between the two would merge in one only. Above about 1e3 (2^10) two
    ulps exceed it, and such sums can still split.
    """
    if v1.dim != v2.dim:
        raise ValidationError(
            f"dimension mismatch: {v1.dim} vs {v2.dim}", field="dim")
    base1, mass1, group1 = _base_groups(v1)
    base2, mass2, group2 = _base_groups(v2)
    if len(mass1) != len(mass2):
        raise ValidationError(
            "base marginals differ: "
            f"{len(mass1)} vs {len(mass2)} base atoms", field="base")
    for p1, p2, m1, m2 in zip(base1.tolist(), base2.tolist(),
                              mass1.tolist(), mass2.tolist()):
        if math.dist(p1, p2) > MARGINAL_TOL or abs(m1 - m2) > MARGINAL_TOL:
            raise ValidationError(
                f"base marginals differ at {tuple(p1)} vs {tuple(p2)}",
                field="base")
    # every atom of v1 pairs with the atoms of v2 at its base point
    starts = np.searchsorted(group2, np.arange(len(mass2) + 1))
    row_of, col_of = _band_cells(starts[group1], starts[group1 + 1])
    group = group1[row_of]
    velocities = v1.velocities[row_of] + v2.velocities[col_of]
    weights = v1.masses[row_of] * (v2.masses[col_of] / mass1[group])
    order = np.lexsort((weights, *velocities.T[::-1], group))
    group, velocities = group[order], velocities[order]
    gaps = np.abs(np.diff(velocities, axis=0)) > _SUM_MERGE_TOL
    new = np.concatenate(([True], (group[1:] != group[:-1])
                          | gaps.any(axis=1)))
    return _build(base1[group[new]], _group_sums(weights[order], new),
                  as_rows(velocities[new], v1.dim, what="velocity"))


def scalar_action(lam: float, v: LiftedMeasure) -> LiftedMeasure:
    """Scale every fiber velocity by lam; merge newly coincident atoms."""
    return _build(v.positions, v.masses,
                  as_rows(float(lam) * v.velocities, v.dim, what="velocity"))


def neutral_element(mu: DiscreteMeasure) -> LiftedMeasure:
    """mu tensor delta_0: the identity for fiber_convolution."""
    return _build(mu.positions, mu.masses, np.zeros_like(mu.positions))
