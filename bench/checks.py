"""Reference computations the benchmark checks mdelab against.

Nothing here calls mdelab: every reference is computed from the
generated inputs with numpy, scipy or exact integer arithmetic, so a
check compares the program with an independent computation or with a
property the method must have, never with a stored copy of its output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog


class CheckFailed(Exception):
    """An operation's output failed one of its checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(got: float, want: float, rel: float, what: str) -> None:
    require(abs(got - want) <= rel * (1.0 + abs(want)),
            f"{what}: got {got!r}, want {want!r} (tolerance {rel:g})")


def w1_1d(xa, wa, xb, wb) -> float:
    """W1 of two 1D atomic measures as the integral of |F_a - F_b|."""
    pts = np.concatenate([np.asarray(xa, float), np.asarray(xb, float)])
    signed = np.concatenate([np.asarray(wa, float), -np.asarray(wb, float)])
    order = np.argsort(pts, kind="stable")
    cdf = np.cumsum(signed[order])
    return float(np.sum(np.abs(cdf[:-1]) * np.diff(pts[order])))


def uniform_atoms(lo: float, hi: float, count: int = 4096):
    """Midpoint atoms of the uniform law on [lo, hi]; their W1 distance
    to the law itself is (hi - lo) / (4 * count)."""
    x = lo + (np.arange(count) + 0.5) * ((hi - lo) / count)
    return x, np.full(count, 1.0 / count)


def assignment_w1(p: np.ndarray, q: np.ndarray) -> float:
    """W1 of two equal-count, equal-mass measures by optimal assignment."""
    cost = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return math.fsum(cost[rows, cols]) / len(p)


def dense_lp_w1(p: np.ndarray, wp: np.ndarray, q: np.ndarray,
                wq: np.ndarray) -> float:
    """W1 of two atomic measures by a dense transportation LP (HiGHS)."""
    m, n = len(p), len(q)
    cost = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for k in range(n):
        a_eq[m + k, k::n] = 1.0
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([wp, wq]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    require(res.status == 0, f"reference LP failed: {res.message}")
    return float(res.fun)


def monotone_fiber_cost(x1, v1, w1, x2, v2, w2) -> float:
    """Fiber cost |v - w| of the coupling that is monotone in position
    and, within a position, in velocity (a feasible stage-2 plan in 1D)."""
    o1 = np.lexsort((v1, x1))
    o2 = np.lexsort((v2, x2))
    c1 = np.cumsum(np.asarray(w1, float)[o1])
    c2 = np.cumsum(np.asarray(w2, float)[o2])
    cuts = np.union1d(c1, c2)
    cuts = cuts[cuts < min(c1[-1], c2[-1])]
    lo = np.concatenate([[0.0], cuts])
    hi = np.concatenate([cuts, [min(c1[-1], c2[-1])]])
    mid = 0.5 * (lo + hi)
    a = np.minimum(np.searchsorted(c1, mid), len(c1) - 1)
    b = np.minimum(np.searchsorted(c2, mid), len(c2) - 1)
    va = np.asarray(v1, float)[o1][a]
    vb = np.asarray(v2, float)[o2][b]
    return float(np.sum((hi - lo) * np.abs(va - vb)))


def check_marginals(entries, wa, wb, tol: float, what: str) -> None:
    """A coupling's weights are positive and its marginals are (wa, wb).

    entries: (row, col, weight) triples.
    """
    rows = np.zeros(len(wa))
    cols = np.zeros(len(wb))
    for i, k, w in entries:
        require(w > 0.0, f"{what}: non-positive plan weight {w!r}")
        rows[i] += w
        cols[k] += w
    worst = max(np.max(np.abs(rows - wa)), np.max(np.abs(cols - wb)))
    require(worst <= tol, f"{what}: marginal off by {worst!r}")
