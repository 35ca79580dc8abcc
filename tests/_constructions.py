"""Shared test constructions.

variance_sin_pair builds the canonical pair of lifted measures whose
monotone fiber cost approaches 4/pi while the plain base distance is
exactly 1/(24 m^2): uniform mass on [0, 1/m] as M midpoint atoms, its
translate by 1/(24 m^2), and on each the velocity x -> sin(2 pi x / Var)
with Var the variance of that discrete measure. Under the monotone
(shift) coupling the fiber integrand is |sin - sin(. + half period)| =
2|sin|, whose mean is 4/pi.

RUN_TABLE holds the lattice runs of acceptance criteria 1-4 as (PVF,
initial measure, N grid, horizon); criteria 8-10 audit them again, and
the residual pin of test_analysis.py runs each at its coarsest N.
"""

import math

from mdelab import (DiscreteMeasure, LiftedMeasure, constant_pvf, dirac,
                    make_lifted, make_measure, median_split_pvf, ode_lift_pvf,
                    uniform_1d)
from mdelab.pvf import linear_field


def _variance(mu: DiscreteMeasure) -> float:
    mean = math.fsum(m * p[0] for p, m in mu.atoms())
    return math.fsum(m * (p[0] - mean) ** 2 for p, m in mu.atoms())


def variance_sin_lift(mu: DiscreteMeasure) -> LiftedMeasure:
    freq = 2.0 * math.pi / _variance(mu)
    return make_lifted([(p, (math.sin(freq * p[0]),), m)
                        for p, m in mu.atoms()])


def variance_sin_pair(m: int, big_m: int):
    """Returns (V[mu], V[mu'], mu, mu') at scale m with big_m atoms."""
    shift = 1.0 / (24.0 * m * m)
    width = 1.0 / (big_m * m)
    pos = [(j + 0.5) * width for j in range(big_m)]
    w = 1.0 / big_m
    mu = make_measure([(p, w) for p in pos])
    nu = make_measure([(p + shift, w) for p in pos])
    return variance_sin_lift(mu), variance_sin_lift(nu), mu, nu


MIXED_5 = make_measure([(-1.0, 0.2), (-0.25, 0.15), (0.3, 0.3),
                        (0.8, 0.1), (1.5, 0.25)])

RUN_TABLE = {
    "median-delta": (median_split_pvf(), dirac(0.0), (10, 40, 160), 1.0),
    "median-uniform": (median_split_pvf(), uniform_1d(0.0, 1.0, 200),
                       (20, 40, 80, 160), 1.0),
    "constant-pm1": (constant_pvf([(1.0, 0.5), (-1.0, 0.5)]),
                     dirac(0.0), (25, 100, 400), 1.0),
    "ode-decay": (ode_lift_pvf(linear_field(-1.0)), dirac(1.0),
                  (20, 80), 1.0),
    "ode-decay-mixed": (ode_lift_pvf(linear_field(-1.0)), MIXED_5,
                        (20, 80), 1.0),
}
