"""Exact discrete optimal transport between atomic measures.

Distance is the transportation LP optimum with Euclidean ground cost
|x - y|. The solver is chosen by a property of the input:

- one-dimensional instances take the monotone (sorted quantile)
  coupling, the northwest-corner sweep, priced by one exact_row_sums of
  the moves times the gaps. Below _ARRAY_SWEEP_ATOMS atoms in all it is
  a scalar loop with one inner loop per source, the source's remainder
  in a local. From there it runs in arrays (_array_sweep), move for
  move and float for float: the sweep's one remainder is a running sum
  of +source and -target masses, which np.cumsum forms left to right as
  the loop does; an order of the atoms predicted from the two sides'
  running totals is the sweep's own when every target enters where
  that sum is > 0 and every source where it is <= 0; near ties are
  swapped and checked again, and a pair where no swap mends the first
  one (a binomial tail's masses, too small to move the running totals)
  takes the scalar loop whole;
- m vs m atoms whose masses are all bit-equal are an assignment
  problem: by Birkhoff-von Neumann an optimal permutation is an optimal
  vertex, so `scipy.optimize.linear_sum_assignment` on the cost matrix
  gives an exact plan with m entries;
- everything else runs a transportation simplex. In 2D and up it
  starts from the least-cost basis. It takes the cells by ascending
  cost, ties in row-major order, and skips a cell whose row or column
  is closed. A cell ships min(s, d) of its row's remainder s and its
  column's d, and the line that ran out closes: the row on a tie, the
  column staying open at 0 for a later zero cell. The last open row
  ships d and closes the column, the last open column ships s and
  closes the row, and the last cell ships min(s, d), at least 0. Each
  cell before the last closes one line, so the m + n - 1 cells form a
  spanning tree. Rows and columns are treated alike but on exact ties,
  so a transposed instance starts from the transposed basis. In 1D it
  starts from the sweep's moves, with a zero cell after each move where
  both masses run out together and zero cells from the last move on to
  the last cell. That staircase is already the optimal monotone
  coupling, so the simplex only certifies it.

  It keeps the basis tree (rows and columns as nodes, basic cells as
  edges) between pivots as parent pointers from row 0, with depths and
  duals. The entering cell's cycle is the two paths up to the common
  ancestor, and only the subtree that the leaving cell cuts off hangs
  again and gets new duals. A dual is cost minus its parent's, fixed by
  the unique path from row 0, so each is the float a recompute of the
  whole tree gives. It enters the cell with the most negative reduced
  cost (Dantzig's rule, first in lex order among ties), except after a
  degenerate pivot (theta = 0), where it enters the first negative cell
  in lex order (Bland's rule); the leaving cell is always Bland's. A
  cycle of bases leaves the cost unchanged, so each of its pivots is
  degenerate and follows a degenerate pivot: all of them run under
  Bland's rule, which cannot cycle. Every pivot sequence therefore
  terminates.

  A pivot prices every cell into one reused buffer as (cost - u) - v,
  and the entering rule's own reduction (argmin for Dantzig, argmax of
  the negative mask for Bland) also decides optimality: the basis is
  optimal when the cell it picks is not negative. The cycle is walked
  as the two tree paths, whose cells alternate giving and taking mass
  from either end: each changes by one subtraction or addition of
  theta.

Every returned plan is a vertex of the transportation polytope (at most
rows+cols-1 entries). Its entries are three read-only columns, int64 i,
int64 k and float64 w, in (i, k) order, behind a measure.ArrayRows view
that reads as (i, k, w) tuples of Python numbers. The solvers fill them
and keep no tuple per entry: the sweep from its move arrays, the
assignment from linear_sum_assignment's index arrays with the masses as
w, the simplex from its basic cells, sorted as (i, k, w) triples.
validate_plan reads the columns: the cost as one exact_row_sums of
w * |x_i - y_k|, the marginals by np.bincount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .measure import ArrayRows, DiscreteMeasure, _merge, exact_row_sums, norms

PLAN_TOL = 1e-10          # marginal and cost-consistency tolerance
OPT_REL_TOL = 1e-7        # plan_is_optimal: cost <= W + 1e-7*(1+W)
_PIVOT_TOL_SCALE = 1e-11  # entering threshold: 1e-11*(1+max|C|)
# _monotone_moves takes the array pass from _ARRAY_SWEEP_ATOMS atoms in
# all: from there it beats the scalar sweep on equal and random masses
# (BENCH_31.json, crossover); no pair of 250-20,000 atoms a side, equal
# or random masses, needed more than _SWAP_PASSES repair pass (measured)
_ARRAY_SWEEP_ATOMS, _SWAP_PASSES = 500, 1


def _plan_entries(i: np.ndarray, k: np.ndarray, w: np.ndarray) -> ArrayRows:
    """The (i, k, weight) entry view of a plan over the int64, int64 and
    float64 arrays i, k and w, frozen in place: arrays the caller made,
    or read-only ones."""
    for column in (i, k, w):
        column.setflags(write=False)
    return ArrayRows((i, k, w))


class _Coupling:
    """The entries field of a plan dataclass: an ArrayRows over
    read-only int64, int64 and float64 columns (_plan_entries). Entries
    given as (i, k, w) rows (a dataclasses.replace with a tuple, say)
    become new columns; no check runs."""

    def __post_init__(self):
        if not isinstance(self.entries, ArrayRows):
            i, k, w = list(zip(*self.entries)) or [(), (), ()]
            object.__setattr__(self, "entries", _plan_entries(
                np.array(i, np.int64), np.array(k, np.int64),
                np.array(w, np.float64)))


@dataclass(frozen=True)
class TransportPlan(_Coupling):
    """A coupling of two measures: entries (i, k, weight), weight > 0,
    in (i, k) order, as read-only columns (_Coupling). Plans compare by
    value and are unhashable."""

    rows: int
    cols: int
    entries: ArrayRows
    cost: float

    __hash__ = None


@dataclass(frozen=True)
class WassersteinResult:
    distance: float
    plan: TransportPlan


def _plan_cost(entries: ArrayRows, mu: DiscreteMeasure,
               nu: DiscreteMeasure) -> float:
    """The math.fsum of w * math.dist(x_i, y_k) over the entries, bit for
    bit (norms, exact_row_sums)."""
    i, k, w = entries.columns
    return float(exact_row_sums(w * norms(mu.positions[i] - nu.positions[k])))


def _check_coupling(plan, row_masses: np.ndarray, col_masses: np.ndarray,
                    tol: float, what: str) -> None:
    """Check a coupling's shape, indices, positivity and both marginals.
    The first bad entry names the fault, an index out of range before a
    weight that is not positive. np.bincount adds each marginal in entry
    order, the running sums of a loop over the entries."""
    if plan.rows != len(row_masses) or plan.cols != len(col_masses):
        raise ValidationError(f"{what} shape does not match the measures")
    i, k, w = plan.entries.columns
    outside = (i < 0) | (i >= plan.rows) | (k < 0) | (k >= plan.cols)
    bad = outside | ~(w > 0.0)
    if bad.any():
        j = int(bad.argmax())
        if outside[j]:
            raise ValidationError(f"{what} index ({i[j]},{k[j]}) out of range")
        raise ValidationError(f"{what} weights must be positive")
    for side, index, masses in (("row", i, row_masses),
                                ("column", k, col_masses)):
        sums = np.bincount(index, w, len(masses))
        off = np.abs(sums - masses) > tol
        if off.any():
            j = int(off.argmax())
            raise ValidationError(
                f"{what} {side} {j} mass {sums[j].item()!r} != "
                f"{masses[j].item()!r}")


def validate_plan(plan: TransportPlan, mu: DiscreteMeasure,
                  nu: DiscreteMeasure, tol: float = PLAN_TOL) -> None:
    """Check marginals, positivity, and recorded-vs-recomputed cost."""
    _check_coupling(plan, mu.masses, nu.masses, tol, "plan")
    recomputed = _plan_cost(plan.entries, mu, nu)
    if abs(recomputed - plan.cost) > tol * (1.0 + abs(recomputed)):
        raise ValidationError(
            f"plan cost {plan.cost!r} != recomputed {recomputed!r}")


def _northwest(src: Sequence[float], tgt: Sequence[float],
               band: tuple[Sequence[int], Sequence[int]] | None = None,
               ) -> tuple[list[int], list[int], list[float]]:
    """Northwest-corner sweep over two mass lists: the monotone
    (quantile) coupling as lists (rows, cols, deltas), move j carrying
    deltas[j] from source rows[j] to target cols[j], until either list
    runs out. Zero masses give zero moves.

    With band = (lo, hi), both nondecreasing, source i may only move to
    targets in [lo[i], hi[i]): the sweep skips targets below lo[i] and
    leaves source i at hi[i], and mass no such move can carry stays.

    One inner loop per source, which holds that source's remainder s: a
    move carries t, what target k still takes, while s > t, then s.
    """
    tgt = list(tgt)
    n = len(tgt)
    lo, hi = band if band is not None else (None, None)
    rows, cols, deltas = [], [], []
    row, col, move = rows.append, cols.append, deltas.append
    k, top = 0, n  # top: hi of the current source
    for i, s in enumerate(src):
        if lo is not None:
            k, top = max(k, lo[i]), hi[i]
        while k < top:
            t = tgt[k]
            row(i)
            col(k)
            if s > t:
                move(t)
                s = s - t
                k += 1
                continue
            move(s)
            if s == t:
                k += 1
            else:
                tgt[k] = t - s
            break
        if k == n:
            break
    return rows, cols, deltas


def _sweep_arrays(src: list[float], tgt: list[float],
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_northwest's moves over two mass lists as int64, int64 and float64
    arrays."""
    rows, cols, deltas = _northwest(src, tgt)
    size = len(rows)  # fromiter with a count fills the arrays in one pass
    return (np.fromiter(rows, np.int64, size),
            np.fromiter(cols, np.int64, size),
            np.fromiter(deltas, np.float64, size))


def _array_sweep(src: np.ndarray, tgt: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unbanded sweep's moves (_northwest) over two mass arrays as
    int64, int64 and float64 arrays, float for float, in array passes.

    The sweep holds one remainder at a time: the current source's s
    while D > 0, the current target's t = -D while D < 0, where D is the
    running sum of +source and -target masses in the order they enter.
    np.cumsum adds left to right, so it forms the floats the sweep does:
    s - t is D - t, and t - s is -(D + s), as rounding to nearest is
    symmetric in sign. An atom is predicted to enter at the running
    total of the masses before it on its side, the source first on a
    tie (one searchsorted); a running total of positive masses never
    falls, so each target gets its own slot. Event j is the sweep's own
    when it is a target exactly where the D before it is > 0: by
    induction an order that passes at every event is the sweep's, up to
    the first event whose wanted side is used up, where the sweep ends.
    A mismatch is a near tie of the two running totals. Each of at most
    _SWAP_PASSES repair passes swaps every mismatch with its next event
    when that is of the other side, and checks again. A pair whose first
    mismatch no pass mends, such as a binomial tail whose masses are too
    small to move the running totals, goes to the scalar sweep whole, as
    does a mass that is not positive (which no measure has), since a
    zero mass gives a zero move that D misses.
    """
    m, n = len(src), len(tgt)
    if not (src.min() > 0.0 and tgt.min() > 0.0):
        return _sweep_arrays(src.tolist(), tgt.tolist())
    src_at, tgt_at = np.zeros(m), np.zeros(n)  # the total before each atom
    np.cumsum(src[:-1], out=src_at[1:])
    np.cumsum(tgt[:-1], out=tgt_at[1:])
    is_tgt = np.zeros(m + n, bool)
    before = np.searchsorted(src_at, tgt_at, side="right")  # per target
    is_tgt[np.arange(n) + before] = True
    signed = np.empty(m + n)
    signed[is_tgt] = -tgt
    signed[~is_tgt] = src
    prev = np.zeros(m + n)  # prev[j]: D before event j
    for done in range(_SWAP_PASSES + 1):
        np.cumsum(signed[:-1], out=prev[1:])
        want_tgt = prev > 0.0
        bad = is_tgt != want_tgt
        end = int(bad.argmax())
        if not bad[end]:
            end = m + n
            break
        tgts = int(np.count_nonzero(is_tgt[:end]))
        if tgts == n if want_tgt[end] else end - tgts == m:
            break  # the wanted side is used up: the sweep ends here
        # swap each mismatch with its next event when that is of the
        # other side. No two swapped pairs overlap: a source that came
        # at D > 0 leaves D > 0, where a next target is no mismatch, and
        # a target that came at D <= 0 leaves D < 0.
        swap = bad[:-1] & (is_tgt[:-1] != is_tgt[1:])
        if done == _SWAP_PASSES or end == m + n - 1 or not swap[end]:
            return _sweep_arrays(src.tolist(), tgt.tolist())
        j = np.flatnonzero(swap)
        is_tgt[j], is_tgt[j + 1] = is_tgt[j + 1], is_tgt[j]
        signed[j], signed[j + 1] = signed[j + 1], signed[j]
    # a move at each target event, and at each source event after D < 0
    moved = np.flatnonzero(is_tgt[:end] | (prev[:end] < 0.0))
    k = np.cumsum(is_tgt[:end], dtype=np.int64)[moved]
    i = moved - k
    k -= 1
    w = np.minimum(np.abs(prev[moved]), np.abs(signed[moved]))
    return i, k, w


def _monotone_moves(src: np.ndarray, tgt: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unbanded sweep's moves over two measures' masses as int64,
    int64 and float64 arrays: the scalar sweep below _ARRAY_SWEEP_ATOMS
    atoms in all, the array pass (_array_sweep) from there."""
    if len(src) + len(tgt) < _ARRAY_SWEEP_ATOMS:
        return _sweep_arrays(src.tolist(), tgt.tolist())
    return _array_sweep(src, tgt)


def _monotone_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    # positions are already sorted lexicographically = numerically in 1D
    i, k, w = _monotone_moves(mu.masses, nu.masses)
    gaps = np.abs(mu.positions[i, 0] - nu.positions[k, 0])
    return TransportPlan(rows=mu.atom_count, cols=nu.atom_count,
                         entries=_plan_entries(i, k, w),
                         cost=float(exact_row_sums(w * gaps)))


def _cost_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Ground costs |x - y| between two arrays of coordinate rows, the
    math.dist that _plan_cost prices them by."""
    diffs = rows[:, None, :] - cols[None, :, :]
    return norms(diffs.reshape(-1, rows.shape[1])).reshape(diffs.shape[:2])


def _equal_masses(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """m vs m atoms, every mass of both measures bit-equal."""
    return (mu.atom_count == nu.atom_count
            and len(set(mu.masses.tolist() + nu.masses.tolist())) == 1)


def _assignment(cost: np.ndarray, masses: np.ndarray) -> TransportPlan:
    """Optimal permutation plan of two equal-mass measures: source i
    sends its whole mass, masses[i], one common value, to one target.
    The masses are the plan's weight column."""
    from scipy.optimize import linear_sum_assignment  # loaded on first use
    rows, cols = linear_sum_assignment(cost)  # rows is 0 .. m-1
    return TransportPlan(rows=len(rows), cols=len(rows),
                         entries=_plan_entries(rows, cols, masses),
                         cost=float(exact_row_sums(masses * cost[rows, cols])))


def _pivot_budget(m: int, n: int) -> int:
    """Pivots the transportation simplex may take on an m x n instance."""
    return 200000 + 200 * (m + n) ** 2


class _Simplex:
    """Transportation simplex state: flows of the basic cells, and their
    spanning tree over nodes 0..m-1 (rows) and m..m+n-1 (columns),
    rooted at row 0, as parent pointers with depths and duals."""

    def __init__(self, cost: np.ndarray, row_masses: Sequence[float],
                 col_masses: Sequence[float], least_cost: bool):
        self.m, self.n = cost.shape
        self.cost = cost
        self.c = cost.tolist()
        self.tol = _PIVOT_TOL_SCALE * (1.0 + float(self.cost.max(initial=0.0)))
        self.flow: dict[tuple[int, int], float] = {}
        self.adj: list[set[int]] = [set() for _ in range(self.m + self.n)]
        if least_cost:
            self._least_cost_start(row_masses, col_masses)
        else:
            last_i = last_k = -2  # the previous move's cell
            for i, k, w in zip(*_northwest(row_masses, col_masses)):
                if i == last_i + 1 and k == last_k + 1:
                    self._add(i, k - 1, 0.0)
                self._add(i, k, w)
                last_i, last_k = i, k
            for r in range(i + 1, self.m):
                self._add(r, k, 0.0)
            for c in range(k + 1, self.n):
                self._add(i, c, 0.0)
        self.parent = [-1] * (self.m + self.n)
        self.depth = [0] * (self.m + self.n)
        self.dual = [0.0] * (self.m + self.n)  # u = dual[:m], v = dual[m:]
        self._hang(0, -1)

    def _least_cost_start(self, src: Sequence[float],
                          tgt: Sequence[float]) -> None:
        """Add the least-cost starting basis (see the module docstring)
        with the remainders of the open rows and columns in src and tgt,
        None once a line is closed."""
        src, tgt = list(src), list(tgt)
        rows_left, cols_left = self.m, self.n
        for flat in np.argsort(self.cost, axis=None, kind="stable").tolist():
            i, k = divmod(flat, self.n)
            s, d = src[i], tgt[k]
            if s is None or d is None:
                continue
            if rows_left == cols_left == 1:  # the last cell
                self._add(i, k, max(min(s, d), 0.0))
                return
            if cols_left == 1 or (rows_left > 1 and s <= d):
                self._add(i, k, s)  # the row closes
                src[i], tgt[k], rows_left = None, d - s, rows_left - 1
            else:
                self._add(i, k, d)  # the column closes
                src[i], tgt[k], cols_left = s - d, None, cols_left - 1

    def _add(self, i: int, k: int, w: float) -> None:
        self.flow[(i, k)] = w
        self.adj[i].add(self.m + k)
        self.adj[self.m + k].add(i)

    def _drop(self, i: int, k: int) -> None:
        del self.flow[(i, k)]
        self.adj[i].discard(self.m + k)
        self.adj[self.m + k].discard(i)

    def _cell(self, a: int, b: int) -> tuple[int, int]:
        """The cell of the tree edge between nodes a and b."""
        return (a, b - self.m) if a < self.m else (b, a - self.m)

    def _hang(self, top: int, parent: int) -> None:
        """Hang the subtree of node top from parent (-1: top is the
        root) and set the parents, depths and duals in it."""
        m, c, adj = self.m, self.c, self.adj
        up, depth, dual = self.parent, self.depth, self.dual
        up[top] = parent
        reached = [top]
        for a in reached:  # breadth first: the loop reads what it appends
            p = up[a]
            if p >= 0:
                depth[a] = depth[p] + 1
                dual[a] = (c[a][p - m] if a < m else c[p][a - m]) - dual[p]
            for b in adj[a]:
                if b != p:
                    up[b] = a
                    reached.append(b)

    def solve(self) -> None:
        m, n, cost, tol = self.m, self.n, self.cost, self.tol
        flow, up, depth = self.flow, self.parent, self.depth
        budget = _pivot_budget(m, n)
        # pricing buffers: the duals as an array, u and v as views of
        # it, and the reduced costs (cost - u) - v, written in place
        dual = np.empty(m + n)
        u, v = dual[:m, None], dual[None, m:]
        reduced = np.empty_like(cost)
        bland = False  # Bland's entering rule right after a degenerate pivot
        for done in range(budget + 1):
            dual[:] = self.dual
            np.subtract(cost, u, out=reduced)
            np.subtract(reduced, v, out=reduced)
            # Bland: first negative cell in lex order; Dantzig: most
            # negative cell, first in lex order among ties. If the rule's
            # cell is not negative, no cell is: the basis is optimal.
            flat = int((reduced < -tol).argmax() if bland
                       else reduced.argmin())
            if not reduced.item(flat) < -tol:
                return
            if done == budget:
                raise NumericalError(
                    f"transportation simplex on m x n = {m} x {n} "
                    f"cells: {done} pivots done of a budget of {budget}, "
                    f"and the basis is still not optimal")
            enter_i, enter_k = divmod(flat, n)
            # the tree paths from row enter_i and from column enter_k up
            # to their common ancestor close the entering cell's cycle;
            # on each, the cells 1st, 3rd, ... from its end give mass.
            # A path cell is _cell of the edge, written out
            a, b = enter_i, m + enter_k
            row_path, col_path = [], []
            while a != b:
                if depth[a] >= depth[b]:
                    p = up[a]
                    row_path.append((a, p - m) if a < m else (p, a - m))
                    a = p
                else:
                    p = up[b]
                    col_path.append((b, p - m) if b < m else (p, b - m))
                    b = p
            donors = row_path[::2] + col_path[::2]
            theta = min([flow[cell] for cell in donors])
            bland = theta == 0.0
            leaving = min([cell for cell in donors if flow[cell] == theta])
            self._add(enter_i, enter_k, theta)
            for cell in donors:
                flow[cell] -= theta
            for cell in row_path[1::2] + col_path[1::2]:
                flow[cell] += theta
            self._drop(*leaving)
            # the leaving cell cuts off the subtree holding the entering
            # endpoint on its side of the cycle; it hangs from the other
            ends = (enter_i, m + enter_k)
            self._hang(*(ends if leaving in row_path else ends[::-1]))

    def plan(self) -> TransportPlan:
        """The basic cells that carry mass, in (i, k) order, priced by
        the math.fsum of w * cost over the cost matrix's own floats."""
        c = self.c
        cells = sorted((i, k, w) for (i, k), w in self.flow.items()
                       if w > 0.0)
        cost = math.fsum([w * c[i][k] for i, k, w in cells])
        i, k, w = zip(*cells)
        count = len(cells)
        return TransportPlan(rows=self.m, cols=self.n, cost=cost,
                             entries=_plan_entries(
                                 np.fromiter(i, np.int64, count),
                                 np.fromiter(k, np.int64, count),
                                 np.fromiter(w, np.float64, count)))


def wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure,
                method: str = "auto") -> WassersteinResult:
    """Distance and one optimal plan. Exact LP optimum, vertex plan.

    method: "auto" picks the solver by regime: the monotone coupling in
    1D, an optimal assignment when both measures have m atoms of one
    bit-equal mass, the transportation simplex otherwise. "simplex"
    forces the simplex in any dimension.
    """
    if mu.dim != nu.dim:
        raise ValidationError(
            f"dimension mismatch: {mu.dim} vs {nu.dim}", field="dim")
    if method not in ("auto", "simplex"):
        raise ValidationError(f"unknown method {method!r}", field="method")
    if mu.dim == 1 and method != "simplex":
        plan = _monotone_1d(mu, nu)
    elif method == "auto" and _equal_masses(mu, nu):
        plan = _assignment(_cost_matrix(mu.positions, nu.positions),
                           mu.masses)
    else:
        solver = _Simplex(_cost_matrix(mu.positions, nu.positions),
                          mu.masses.tolist(), nu.masses.tolist(),
                          least_cost=mu.dim > 1)
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
    # the union of both supports, sorted, with mu's minus nu's mass
    rows, signed = _merge(np.concatenate([mu.positions, nu.positions]),
                          np.concatenate([mu.masses, -nu.masses]))
    points = list(map(tuple, rows.tolist()))
    signed = signed.tolist()
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
        best = max(best, abs(math.fsum(v * m for v, m in zip(values, signed))))
    return wasserstein(mu, nu).distance - best


def plan_is_optimal(plan: TransportPlan, mu: DiscreteMeasure,
                    nu: DiscreteMeasure) -> bool:
    """True iff the plan's cost is within 1e-7*(1+W) of the optimum W."""
    validate_plan(plan, mu, nu)
    w = wasserstein(mu, nu).distance
    return plan.cost <= w + OPT_REL_TOL * (1.0 + w)
