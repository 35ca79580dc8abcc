"""Constrained fiber costs between lifted measures, and the fiber monoid.

The headline quantity is the two-stage optimum: first the base
Wasserstein distance W* between the position marginals, then a linear
program over lifted couplings whose induced base plan is (near-)optimal,
minimizing a selectable fiber integrand. The base-optimality equality is
relaxed to "base cost <= W* + 1e-7*(1+W*)"; the reverse inequality holds
automatically, so the feasible region is the near-optimal-plan polytope.

The one_sided integrand <v-w, x-y>/|x-y| is defined as 0 when x = y.
The two-stage value need not satisfy the triangle inequality; that is a
feature of the quantity, not a solver defect, and tests assert a
violating triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import NumericalError, ValidationError
from .measure import (DiscreteMeasure, LiftedMeasure, base_marginal,
                      make_lifted, make_measure)
from .transport import (TransportPlan, _check_coupling, _northwest,
                        _plan_cost, wasserstein)

BASE_OPT_REL_TOL = 1e-7      # stage-2 constraint slack: W* + 1e-7*(1+W*)
MARGINAL_TOL = 1e-10
MAX_COUPLING_VARS = 250_000  # dense stage-2 refusal threshold
_SUM_MERGE_TOL = 2.0 ** -42  # fiber sums this close merge (1024 ulps of 1)
_ENTRY_FLOOR = 1e-14         # LP vertex entries below this are noise


class FiberCostKind(Enum):
    FIBER = "fiber"           # |v - w|
    COMBINED = "combined"     # |x - y| + |v - w|
    ONE_SIDED = "one_sided"   # <v - w, x - y> / |x - y|, 0 at x = y


@dataclass(frozen=True)
class LiftedPlan:
    """Coupling of two lifted measures, entries (a, b, weight) where a
    indexes an (x, v) atom of the first measure and b a (y, w) atom of
    the second."""

    rows: int
    cols: int
    entries: tuple[tuple[int, int, float], ...]
    base_cost: float
    fiber_cost: float


def validate_lifted_plan(plan: LiftedPlan, v1: LiftedMeasure,
                         v2: LiftedMeasure,
                         tol: float = MARGINAL_TOL) -> None:
    _check_coupling(plan, v1.masses, v2.masses, tol, "lifted plan")


def induced_base_plan(plan: LiftedPlan, v1: LiftedMeasure,
                      v2: LiftedMeasure) -> TransportPlan:
    """Project a lifted coupling to the base: weights summed over fibers."""
    mu = base_marginal(v1)
    nu = base_marginal(v2)
    row_of = {p: i for i, p in enumerate(mu.positions)}
    col_of = {p: k for k, p in enumerate(nu.positions)}
    acc: dict[tuple[int, int], float] = {}
    for a, b, w in plan.entries:
        key = (row_of[v1.positions[a]], col_of[v2.positions[b]])
        acc[key] = acc.get(key, 0.0) + w
    entries = tuple(sorted((i, k, w) for (i, k), w in acc.items()))
    return TransportPlan(rows=mu.atom_count, cols=nu.atom_count,
                         entries=entries, cost=_plan_cost(entries, mu, nu))


def _round_to_polytope(flow: np.ndarray, r: np.ndarray,
                       c: np.ndarray) -> np.ndarray:
    """Repair an approximately-feasible coupling to exact marginals.

    The LP solver only meets its own feasibility tolerance (~1e-7); the
    plan contract promises 1e-10. Scale overfull rows, then overfull
    columns, then fill the remaining deficit greedily. Costs move by
    O(deficit * max distance), far below the budget scale.
    """
    flow = np.maximum(flow, 0.0)
    row_sums = flow.sum(axis=1)
    over = row_sums > r
    if over.any():
        flow[over] *= (r[over] / row_sums[over])[:, None]
    col_sums = flow.sum(axis=0)
    over = col_sums > c
    if over.any():
        flow[:, over] *= c[over] / col_sums[over]
    err_r = np.maximum(r - flow.sum(axis=1), 0.0)
    err_c = np.maximum(c - flow.sum(axis=0), 0.0)
    for a, b, step in _northwest(err_r.tolist(), err_c.tolist()):
        flow[a, b] += step
    return flow


def _one_sided_cost(v, w, x, y) -> float:
    if x == y:
        return 0.0
    num = math.fsum((vc - wc) * (xc - yc)
                    for vc, wc, xc, yc in zip(v, w, x, y))
    return num / math.dist(x, y)


def constrained_fiber_cost(v1: LiftedMeasure, v2: LiftedMeasure,
                           kind: FiberCostKind = FiberCostKind.FIBER,
                           ) -> tuple[float, LiftedPlan]:
    """Exact LP optimum of the selected cost over lifted couplings whose
    base projection is an optimal base plan (within the relative slack).

    Returns (value, plan), value the selected cost of the repaired plan;
    it is >= 0 for fiber and combined kinds, one_sided may be negative.
    """
    if v1.dim != v2.dim:
        raise ValidationError(
            f"dimension mismatch: {v1.dim} vs {v2.dim}", field="dim")
    if not isinstance(kind, FiberCostKind):
        kind = FiberCostKind(kind)
    rows = v1.atom_count
    cols = v2.atom_count
    if rows * cols > MAX_COUPLING_VARS:
        raise ValidationError(
            f"stage-2 LP would need {rows * cols} coupling variables "
            f"(limit {MAX_COUPLING_VARS}); reduce the atom counts",
            field="atoms")

    w_star = wasserstein(base_marginal(v1), base_marginal(v2)).distance
    budget = w_star + BASE_OPT_REL_TOL * (1.0 + w_star)

    base_dist = np.empty((rows, cols))
    objective = np.empty((rows, cols))
    for a, (x, v, _) in enumerate(v1.atoms()):
        for b, (y, w, _) in enumerate(v2.atoms()):
            d = math.dist(x, y)
            base_dist[a, b] = d
            if kind is FiberCostKind.FIBER:
                objective[a, b] = math.dist(v, w)
            elif kind is FiberCostKind.COMBINED:
                objective[a, b] = d + math.dist(v, w)
            else:
                objective[a, b] = _one_sided_cost(v, w, x, y)

    # marginal equalities: one row per atom of each measure
    n_vars = rows * cols
    data = np.ones(2 * n_vars)
    row_idx = np.empty(2 * n_vars, dtype=np.int64)
    col_idx = np.empty(2 * n_vars, dtype=np.int64)
    flat = np.arange(n_vars, dtype=np.int64)
    row_idx[:n_vars] = flat // cols
    col_idx[:n_vars] = flat
    row_idx[n_vars:] = rows + flat % cols
    col_idx[n_vars:] = flat
    a_eq = sp.csr_matrix((data, (row_idx, col_idx)),
                         shape=(rows + cols, n_vars))
    b_eq = np.concatenate([np.asarray(v1.masses), np.asarray(v2.masses)])

    res = linprog(c=objective.ravel(),
                  A_ub=base_dist.reshape(1, -1), b_ub=[budget],
                  A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise NumericalError(
            f"constrained fiber LP failed (status {res.status}): {res.message}")

    flow = _round_to_polytope(res.x.reshape(rows, cols),
                              np.asarray(v1.masses), np.asarray(v2.masses))
    entries = tuple((int(a), int(b), float(flow[a, b]))
                    for a, b in np.argwhere(flow > _ENTRY_FLOOR))
    base_cost = math.fsum(w * base_dist[a, b] for a, b, w in entries)
    fiber_cost = math.fsum(
        w * math.dist(v1.velocities[a], v2.velocities[b])
        for a, b, w in entries)
    plan = LiftedPlan(rows=rows, cols=cols, entries=entries,
                      base_cost=base_cost, fiber_cost=fiber_cost)
    return math.fsum(w * objective[a, b] for a, b, w in entries), plan


def tangent_wasserstein(v1: LiftedMeasure, v2: LiftedMeasure) -> float:
    """Plain Wasserstein distance treating (x, v) atoms as points of R^2n."""
    flat1 = make_measure([(p + v, m) for p, v, m in v1.atoms()],
                         dim=2 * v1.dim)
    flat2 = make_measure([(p + v, m) for p, v, m in v2.atoms()],
                         dim=2 * v2.dim)
    return wasserstein(flat1, flat2).distance


def wt_bound_check(v1: LiftedMeasure, v2: LiftedMeasure) -> bool:
    """Tangent-space W <= fiber cost + base cost of the constrained
    fiber plan, within 1e-8.

    The plan's tangent cost is at most that sum, since
    sqrt(a^2 + b^2) <= a + b. The base W* is not the right side: the
    plan may spend the stage-2 slack 1e-7*(1+W*) on its base cost to
    lower its fiber cost.
    """
    w_tangent = tangent_wasserstein(v1, v2)
    fiber_val, plan = constrained_fiber_cost(v1, v2, FiberCostKind.FIBER)
    return w_tangent <= fiber_val + plan.base_cost + 1e-8


def _base_groups(v: LiftedMeasure) -> list[tuple[tuple[float, ...], float,
                                                 list[tuple[tuple[float, ...], float]]]]:
    """Group lifted atoms by base position: (position, mass, fiber atoms)."""
    groups: dict[tuple[float, ...], list[tuple[tuple[float, ...], float]]] = {}
    for p, vel, m in v.atoms():
        groups.setdefault(p, []).append((vel, m))
    out = []
    for p in sorted(groups):
        fibers = groups[p]
        out.append((p, math.fsum(m for _, m in fibers), fibers))
    return out


def _merge_fiber_sums(sums: list[tuple[tuple[float, ...], float]],
                      ) -> list[tuple[tuple[float, ...], float]]:
    """Merge (velocity, weight) sums at one base point.

    Float addition is not associative: (v+w)+u and v+(w+u) can land
    ulps apart. One sweep over the sorted sums joins each sum to its
    predecessor's group when all coordinates agree within the absolute
    _SUM_MERGE_TOL; a group keeps its first velocity and the fsum of its
    weights. The tolerance is absolute because a tolerance relative to
    the summands differs between the two groupings of a product, and
    sums whose gap falls between the two would merge in one only.
    """
    groups: list[tuple[tuple[float, ...], list[float]]] = []
    prev: tuple[float, ...] = ()
    for vel, weight in sorted(sums):
        if groups and all(abs(a - b) <= _SUM_MERGE_TOL
                          for a, b in zip(vel, prev)):
            groups[-1][1].append(weight)
        else:
            groups.append((vel, [weight]))
        prev = vel
    return [(vel, math.fsum(weights)) for vel, weights in groups]


def fiber_convolution(v1: LiftedMeasure, v2: LiftedMeasure) -> LiftedMeasure:
    """Per-base-point convolution of the conditional fiber distributions.

    Requires identical base marginals (positions and masses within
    1e-10). At base atom x with mass m, fibers {(v, w1)} and {(w, w2)}
    combine to atoms (x, v+w) with weight w1*(w2/m); with the right-hand
    neutral element mu (x) delta_0 the ratio w2/m is exactly 1, so v1's
    weights survive unchanged whenever the shared base masses agree
    bit-for-bit. Sums within _SUM_MERGE_TOL of each other merge into one
    atom (see _merge_fiber_sums), so regrouping a product does not split
    an atom; the neutral element is exact for fibers whose velocities
    are further apart than that.
    """
    if v1.dim != v2.dim:
        raise ValidationError(
            f"dimension mismatch: {v1.dim} vs {v2.dim}", field="dim")
    g1 = _base_groups(v1)
    g2 = _base_groups(v2)
    if len(g1) != len(g2):
        raise ValidationError(
            "base marginals differ: "
            f"{len(g1)} vs {len(g2)} base atoms", field="base")
    out = []
    for (p1, m1, fib1), (p2, m2, fib2) in zip(g1, g2):
        if math.dist(p1, p2) > MARGINAL_TOL or abs(m1 - m2) > MARGINAL_TOL:
            raise ValidationError(
                f"base marginals differ at {p1} vs {p2}", field="base")
        sums = [(tuple(a + b for a, b in zip(vel1, vel2)), w1 * (w2 / m1))
                for vel1, w1 in fib1 for vel2, w2 in fib2]
        out.extend((p1, vel, weight)
                   for vel, weight in _merge_fiber_sums(sums))
    return make_lifted(out, dim=v1.dim)


def scalar_action(lam: float, v: LiftedMeasure) -> LiftedMeasure:
    """Scale every fiber velocity by lam; merge newly coincident atoms."""
    lam = float(lam)
    return make_lifted(
        [(p, tuple(lam * c for c in vel), m) for p, vel, m in v.atoms()],
        dim=v.dim)


def neutral_element(mu: DiscreteMeasure) -> LiftedMeasure:
    """mu tensor delta_0: the identity for fiber_convolution."""
    zero = (0.0,) * mu.dim
    return make_lifted([(p, zero, m) for p, m in mu.atoms()], dim=mu.dim)
