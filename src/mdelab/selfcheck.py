"""Seeded self-consistency checks for the transport engine.

Four check families, each run over a batch of reproducible random
instances (the seed fixes every instance, so a failure replays on any
machine):

  metric_axioms      symmetry / identity / triangle inequality
  fast_path_vs_lp    1D monotone coupling agrees with the simplex
  brute_force_small  the transport optimum equals the permutation
                     minimum on equal-mass instances with at most 4
                     atoms; in 2D these take the assignment regime
  dual_feasibility   lower bounds from 1-Lipschitz witnesses never
                     exceed the primal value

The CLI `check` subcommand and the acceptance suite both run this
registry. Margins are reported as tolerance minus worst observed
violation, so any negative margin is a failure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .measure import DiscreteMeasure, make_measure
from .rng import SplitMix64
from .transport import kr_dual_gap, wasserstein

DEFAULT_SEED = 0x5EEDED
DEFAULT_INSTANCES = 100

SYMMETRY_TOL = 1e-10
IDENTITY_TOL = 1e-10
TRIANGLE_TOL = 1e-9
FAST_PATH_TOL = 1e-9
BRUTE_FORCE_TOL = 1e-10
DUAL_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float


def _random_measure(rng: SplitMix64, dim: int, max_atoms: int,
                    ) -> DiscreteMeasure:
    count = rng.randint(1, max_atoms)
    atoms = []
    for _ in range(count):
        pos = tuple(4.0 * rng.uniform() - 2.0 for _ in range(dim))
        atoms.append((pos, 0.1 + 0.9 * rng.uniform()))
    total = math.fsum(m for _, m in atoms)
    return make_measure([(p, m / total) for p, m in atoms], dim=dim)


def check_metric_axioms(seed: int = DEFAULT_SEED,
                        instances: int = DEFAULT_INSTANCES) -> CheckResult:
    rng = SplitMix64(seed)
    margin = math.inf
    passed = True
    for trial in range(instances):
        dim = 1 + trial % 2
        mu = _random_measure(rng, dim, 8)
        nu = _random_measure(rng, dim, 8)
        sigma = _random_measure(rng, dim, 8)
        w_mn = wasserstein(mu, nu).distance
        w_nm = wasserstein(nu, mu).distance
        margin = min(margin, SYMMETRY_TOL - abs(w_mn - w_nm))
        margin = min(margin, IDENTITY_TOL - wasserstein(mu, mu).distance)
        if not w_mn > 0.0:  # distinct random supports, so W must be > 0
            passed = False
            margin = min(margin, -1.0)
        w_ns = wasserstein(nu, sigma).distance
        w_ms = wasserstein(mu, sigma).distance
        margin = min(margin, w_mn + w_ns + TRIANGLE_TOL - w_ms)
    return CheckResult("metric_axioms", passed and margin >= 0.0, margin)


def check_fast_path_vs_lp(seed: int = DEFAULT_SEED,
                          instances: int = DEFAULT_INSTANCES) -> CheckResult:
    rng = SplitMix64(seed + 1)
    margin = math.inf
    for _ in range(instances):
        atoms = rng.randint(2, 30)
        mu = _random_measure(rng, 1, atoms)
        nu = _random_measure(rng, 1, atoms)
        fast = wasserstein(mu, nu).distance
        lp = wasserstein(mu, nu, method="simplex").distance
        margin = min(margin, FAST_PATH_TOL - abs(fast - lp))
    return CheckResult("fast_path_vs_lp", margin >= 0.0, margin)


def _brute_force_equal_mass(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    p, q = mu.positions.tolist(), nu.positions.tolist()
    k = len(p)
    best = math.inf
    for perm in itertools.permutations(range(k)):
        cost = math.fsum(math.dist(p[i], q[perm[i]]) for i in range(k)) / k
        best = min(best, cost)
    return best


def check_brute_force_small(seed: int = DEFAULT_SEED,
                            instances: int = DEFAULT_INSTANCES) -> CheckResult:
    rng = SplitMix64(seed + 2)
    margin = math.inf
    for trial in range(instances):
        dim = 1 + trial % 2
        k = rng.randint(2, 4)
        mass = 1.0 / k
        mu = make_measure(
            [(tuple(4.0 * rng.uniform() - 2.0 for _ in range(dim)), mass)
             for _ in range(k)], dim=dim)
        nu = make_measure(
            [(tuple(4.0 * rng.uniform() - 2.0 for _ in range(dim)), mass)
             for _ in range(k)], dim=dim)
        lp = wasserstein(mu, nu).distance
        brute = _brute_force_equal_mass(mu, nu)
        margin = min(margin, BRUTE_FORCE_TOL - abs(lp - brute))
    return CheckResult("brute_force_small", margin >= 0.0, margin)


def _mcshane_witness(rng: SplitMix64, anchors):
    """1-Lipschitz by construction: lower envelope of cones over anchors."""
    values = [2.0 * rng.uniform() - 1.0 for _ in anchors]
    frozen = tuple((tuple(a), v) for a, v in zip(anchors, values))

    def witness(x):
        return min(v + math.dist(x, a) for a, v in frozen)

    return witness


def check_dual_feasibility(seed: int = DEFAULT_SEED,
                           instances: int = DEFAULT_INSTANCES) -> CheckResult:
    rng = SplitMix64(seed + 3)
    margin = math.inf
    for trial in range(instances):
        dim = 1 + trial % 2
        mu = _random_measure(rng, dim, 6)
        nu = _random_measure(rng, dim, 6)
        anchors = np.concatenate([mu.positions, nu.positions]).tolist()
        witnesses = [_mcshane_witness(rng, anchors) for _ in range(3)]
        gap = kr_dual_gap(mu, nu, witnesses)
        margin = min(margin, gap + DUAL_TOL)
    return CheckResult("dual_feasibility", margin >= 0.0, margin)


CHECKS = (
    ("metric_axioms", check_metric_axioms),
    ("fast_path_vs_lp", check_fast_path_vs_lp),
    ("brute_force_small", check_brute_force_small),
    ("dual_feasibility", check_dual_feasibility),
)


def run_all_checks(seed: int = DEFAULT_SEED,
                   instances: int = DEFAULT_INSTANCES) -> list[CheckResult]:
    if instances < 1:  # no instance has no violation, so every check passes
        raise ValidationError("instances must be >= 1", field="instances")
    return [fn(seed=seed, instances=instances) for _, fn in CHECKS]
