"""Exact discrete optimal transport between atomic measures.

Distance is the transportation LP optimum with Euclidean ground cost
|x - y|. One-dimensional instances take the monotone (sorted quantile)
coupling; everything else runs a transportation simplex: northwest
corner start, tree duals, Bland's rule for both the entering and the
leaving variable, so every pivot sequence terminates. The returned plan
is a vertex of the transportation polytope (at most rows+cols-1 entries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .measure import DiscreteMeasure

PLAN_TOL = 1e-10          # marginal and cost-consistency tolerance
OPT_REL_TOL = 1e-7        # plan_is_optimal: cost <= W + 1e-7*(1+W)
_PIVOT_TOL_SCALE = 1e-11  # entering threshold: 1e-11*(1+max|C|)


@dataclass(frozen=True)
class TransportPlan:
    rows: int
    cols: int
    entries: tuple[tuple[int, int, float], ...]  # (i, k, weight), weight > 0
    cost: float


@dataclass(frozen=True)
class WassersteinResult:
    distance: float
    plan: TransportPlan


def _plan_cost(entries, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    return math.fsum(w * math.dist(mu.positions[i], nu.positions[k])
                     for i, k, w in entries)


def _check_coupling(plan, row_masses: Sequence[float],
                    col_masses: Sequence[float], tol: float,
                    what: str) -> None:
    """Check a coupling's shape, indices, positivity and both marginals."""
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
    for side, sums, masses in (("row", row_sums, row_masses),
                               ("column", col_sums, col_masses)):
        for i, (total, m) in enumerate(zip(sums, masses)):
            if abs(total - m) > tol:
                raise ValidationError(
                    f"{what} {side} {i} mass {total!r} != {m!r}")


def validate_plan(plan: TransportPlan, mu: DiscreteMeasure,
                  nu: DiscreteMeasure, tol: float = PLAN_TOL) -> None:
    """Check marginals, positivity, and recorded-vs-recomputed cost."""
    _check_coupling(plan, mu.masses, nu.masses, tol, "plan")
    recomputed = _plan_cost(plan.entries, mu, nu)
    if abs(recomputed - plan.cost) > tol * (1.0 + abs(recomputed)):
        raise ValidationError(
            f"plan cost {plan.cost!r} != recomputed {recomputed!r}")


def _northwest(src: Sequence[float], tgt: Sequence[float]):
    """Northwest-corner sweep over two mass lists: yields (i, k, delta)
    as the monotone (quantile) coupling moves delta from source i to
    target k, until either list runs out. Zero masses give zero moves."""
    src = list(src)
    tgt = list(tgt)
    i = k = 0
    while i < len(src) and k < len(tgt):
        delta = min(src[i], tgt[k])
        yield i, k, delta
        if src[i] == tgt[k]:
            i += 1
            k += 1
        elif src[i] < tgt[k]:
            tgt[k] -= src[i]
            i += 1
        else:
            src[i] -= tgt[k]
            k += 1


def _monotone_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    # positions are already sorted lexicographically = numerically in 1D
    entries = tuple(_northwest(mu.masses, nu.masses))
    cost = math.fsum(delta * abs(mu.positions[i][0] - nu.positions[k][0])
                     for i, k, delta in entries)
    return TransportPlan(rows=mu.atom_count, cols=nu.atom_count,
                         entries=entries, cost=cost)


class _Simplex:
    """Transportation simplex state: basis tree, flows, duals."""

    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure):
        self.m = mu.atom_count
        self.n = nu.atom_count
        self.cost = np.array(
            [[math.dist(p, q) for q in nu.positions] for p in mu.positions],
            dtype=float)
        self.tol = _PIVOT_TOL_SCALE * (1.0 + float(self.cost.max(initial=0.0)))
        self.flow: dict[tuple[int, int], float] = {}
        self.row_adj: list[set[int]] = [set() for _ in range(self.m)]
        self.col_adj: list[set[int]] = [set() for _ in range(self.n)]
        self._northwest(list(mu.masses), list(nu.masses))

    def _add(self, i: int, k: int, w: float) -> None:
        self.flow[(i, k)] = w
        self.row_adj[i].add(k)
        self.col_adj[k].add(i)

    def _drop(self, i: int, k: int) -> None:
        del self.flow[(i, k)]
        self.row_adj[i].discard(k)
        self.col_adj[k].discard(i)

    def _northwest(self, src: list[float], tgt: list[float]) -> None:
        # exactly m+n-1 basic cells: every step advances one index
        i = k = 0
        while True:
            delta = min(src[i], tgt[k])
            self._add(i, k, delta)
            src[i] -= delta
            tgt[k] -= delta
            if i == self.m - 1 and k == self.n - 1:
                break
            if i == self.m - 1:
                k += 1
            elif k == self.n - 1:
                i += 1
            elif src[i] == 0.0 and tgt[k] > 0.0:
                i += 1
            elif tgt[k] == 0.0 and src[i] > 0.0:
                k += 1
            else:
                i += 1  # simultaneous exhaustion keeps a zero basic cell

    def _duals(self) -> tuple[np.ndarray, np.ndarray]:
        u = np.full(self.m, np.nan)
        v = np.full(self.n, np.nan)
        u[0] = 0.0
        stack: list[tuple[bool, int]] = [(True, 0)]
        while stack:
            is_row, idx = stack.pop()
            if is_row:
                for k in self.row_adj[idx]:
                    if math.isnan(v[k]):
                        v[k] = self.cost[idx, k] - u[idx]
                        stack.append((False, k))
            else:
                for i in self.col_adj[idx]:
                    if math.isnan(u[i]):
                        u[i] = self.cost[i, idx] - v[idx]
                        stack.append((True, i))
        if np.isnan(u).any() or np.isnan(v).any():
            raise NumericalError("transport basis lost connectivity")
        return u, v

    def _cycle(self, enter_i: int, enter_k: int) -> list[tuple[int, int]]:
        """Unique basis-tree path from column enter_k back to row enter_i."""
        parent: dict[tuple[bool, int], tuple[bool, int]] = {}
        start = (False, enter_k)
        goal = (True, enter_i)
        frontier = [start]
        seen = {start}
        while frontier:
            nxt = []
            for node in frontier:
                is_row, idx = node
                neighbors = (self.row_adj[idx] if is_row
                             else self.col_adj[idx])
                for other in neighbors:
                    child = (not is_row, other)
                    if child in seen:
                        continue
                    seen.add(child)
                    parent[child] = node
                    if child == goal:
                        nxt = []
                        frontier = []
                        break
                    nxt.append(child)
                else:
                    continue
                break
            else:
                frontier = nxt
        path_nodes = [goal]
        while path_nodes[-1] != start:
            path_nodes.append(parent[path_nodes[-1]])
        cells = [(enter_i, enter_k)]
        for a, b in zip(path_nodes, path_nodes[1:]):
            (a_row, a_idx), (b_row, b_idx) = a, b
            cells.append((a_idx, b_idx) if a_row else (b_idx, a_idx))
        return cells

    def solve(self) -> None:
        max_pivots = 200000 + 200 * (self.m + self.n) ** 2
        for _ in range(max_pivots):
            u, v = self._duals()
            reduced = self.cost - u[:, None] - v[None, :]
            negative = np.argwhere(reduced < -self.tol)
            if negative.size == 0:
                return
            enter_i, enter_k = map(int, negative[0])  # first in lex order
            cycle = self._cycle(enter_i, enter_k)
            donors = cycle[1::2]
            theta = min(self.flow[c] for c in donors)
            leaving = min(c for c in donors if self.flow[c] == theta)
            self._add(enter_i, enter_k, 0.0)
            for pos, cell in enumerate(cycle):
                self.flow[cell] += theta if pos % 2 == 0 else -theta
            self._drop(*leaving)
        raise NumericalError("transportation simplex exceeded pivot budget")

    def plan(self) -> TransportPlan:
        entries = tuple(sorted((i, k, w) for (i, k), w in self.flow.items()
                               if w > 0.0))
        cost = math.fsum(w * self.cost[i, k] for i, k, w in entries)
        return TransportPlan(rows=self.m, cols=self.n,
                             entries=entries, cost=cost)


def wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure,
                method: str = "auto") -> WassersteinResult:
    """Distance and one optimal plan. Exact LP optimum, vertex plan.

    method: "auto" (1D monotone fast path, simplex otherwise),
    "monotone" (1D only), or "simplex" (any dimension).
    """
    if mu.dim != nu.dim:
        raise ValidationError(
            f"dimension mismatch: {mu.dim} vs {nu.dim}", field="dim")
    if method not in ("auto", "monotone", "simplex"):
        raise ValidationError(f"unknown method {method!r}", field="method")
    if method == "monotone" and mu.dim != 1:
        raise ValidationError("monotone coupling needs 1D measures",
                              field="method")
    if mu.dim == 1 and method != "simplex":
        plan = _monotone_1d(mu, nu)
    else:
        solver = _Simplex(mu, nu)
        solver.solve()
        plan = solver.plan()
    return WassersteinResult(distance=plan.cost, plan=plan)


def kr_dual_gap(mu: DiscreteMeasure, nu: DiscreteMeasure,
                witnesses: Sequence[Callable]) -> float:
    """W(mu, nu) minus the best Kantorovich-Rubinstein lower bound
    sup_f ∫f d(mu - nu) over the supplied witness functions.

    Each witness must be 1-Lipschitz on the union of the atom sets
    (checked pairwise); the gap is always >= -1e-10 and hits 0 exactly
    when some witness is dual-optimal.
    """
    if mu.dim != nu.dim:
        raise ValidationError(
            f"dimension mismatch: {mu.dim} vs {nu.dim}", field="dim")
    if not witnesses:
        raise ValidationError("need at least one witness", field="witnesses")
    points = sorted(set(mu.positions) | set(nu.positions))
    signed = {p: 0.0 for p in points}
    for p, m in mu.atoms():
        signed[p] += m
    for p, m in nu.atoms():
        signed[p] -= m
    best = -math.inf
    for idx, f in enumerate(witnesses):
        values = [float(f(p)) for p in points]
        for a in range(len(points)):
            for b in range(a + 1, len(points)):
                d = math.dist(points[a], points[b])
                # absolute epsilon absorbs rounding on near-coincident atoms
                if abs(values[a] - values[b]) > d * (1.0 + 1e-9) + 1e-12:
                    raise ValidationError(
                        f"witness {idx} is not 1-Lipschitz on the atoms: "
                        f"|f{points[a]} - f{points[b]}| = "
                        f"{abs(values[a] - values[b])!r} > {d!r}",
                        field=f"witnesses[{idx}]")
        # -f is a witness whenever f is, so orientation is irrelevant
        best = max(best,
                   abs(math.fsum(values[a] * signed[points[a]]
                                 for a in range(len(points)))))
    return wasserstein(mu, nu).distance - best


def plan_is_optimal(plan: TransportPlan, mu: DiscreteMeasure,
                    nu: DiscreteMeasure) -> bool:
    """True iff the plan's cost is within 1e-7*(1+W) of the optimum W."""
    validate_plan(plan, mu, nu)
    w = wasserstein(mu, nu).distance
    return plan.cost <= w + OPT_REL_TOL * (1.0 + w)
