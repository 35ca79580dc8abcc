"""Verification instruments: residuals, oracles, studies, checks.

Closed-form reference values here were derived independently of the
implementation (hand integration of the characteristic ODEs, binomial
concentration for the splitting recursion) and frozen before the module
was written.
"""

import dataclasses
import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _constructions import RUN_TABLE, variance_sin_pair

import mdelab.analysis as analysis
from mdelab.kernels import _bump
from mdelab import (
    ConvergenceReport,
    FiberCostKind,
    LatticeMeasure,
    StationaryFlow,
    TestFunction,
    ValidationError,
    bump_family,
    constant_pvf,
    constrained_fiber_cost,
    convergence_study,
    dirac,
    distributional_residual,
    evaluate,
    gronwall_check,
    interaction_pvf,
    las_solve,
    linear_field,
    make_kernel,
    make_lattice_measure,
    make_lifted,
    make_measure,
    max_family_residual,
    median_split_pvf,
    monotone_fiber_cost_1d,
    ode_lift_pvf,
    oracle,
    phi_diffusion_pvf,
    poly_field,
    push_forward,
    semigroup_check,
    step_displacement_check,
    support_bound_check,
    time_lipschitz_check,
    uniform_1d,
    wasserstein,
    weak_residual,
)


def _value(f, x):
    """f(x) by the scalar bump formula, one point at a time: |x-c|^2 is
    an fsum of squares taken by multiplication, which rounds correctly
    (libm's pow(y, 2), which y ** 2 calls, misrounds about 1 argument
    in 1,000)."""
    assert len(x) == len(f.center)
    u = (math.fsum((a - b) * (a - b) for a, b in zip(x, f.center))
         / (f.radius * f.radius))
    if u >= 1.0:
        return 0.0
    return math.exp(1.0 - 1.0 / (1.0 - u))


def _grad(f, x):
    """grad f(x) by the scalar formula, squared as _value squares."""
    assert len(x) == len(f.center)
    r2 = f.radius * f.radius
    u = math.fsum((a - b) * (a - b) for a, b in zip(x, f.center)) / r2
    if u >= 1.0:
        return (0.0,) * len(f.center)
    scale = -_value(f, x) / (1.0 - u) ** 2 * (2.0 / r2)
    return tuple(scale * (a - b) for a, b in zip(x, f.center))


def _family_means(family, positions, masses):
    """int f dmu of every bump of the family by the residuals' pass."""
    centers = np.array([f.center for f in family])
    r2 = np.square([f.radius for f in family])
    s = analysis._bump_pass(centers, r2, np.asarray(positions, float))[1]
    return analysis._means(s, np.asarray(masses, float)).tolist()


def _family_fluxes(flow, family):
    """int grad(f).v dV[mu] of every bump by the residuals' pass."""
    centers = np.array([f.center for f in family])
    r2 = np.square([f.radius for f in family])
    gaps, s = analysis._bump_pass(centers, r2, flow.measure.positions)
    return analysis._fluxes(flow, flow.measure, gaps, s, r2).tolist()


class TestBumps:
    def test_value_at_center_and_outside(self):
        f = TestFunction(center=(0.0,), radius=1.0)
        assert _value(f, (0.0,)) == 1.0
        assert _value(f, (1.0,)) == 0.0
        assert _value(f, (2.0,)) == 0.0
        assert 0.0 < _value(f, (0.5,)) < 1.0
        # a mean against a Dirac mass is the value at its point
        points = [(0.0,), (1.0,), (2.0,), (0.5,), (-0.25,)]
        for x in points:
            assert _family_means([f], [x], [1.0]) == [_value(f, x)]

    def test_gradient_matches_finite_differences(self):
        f = TestFunction(center=(0.25, -0.5), radius=1.5)
        h = 1e-6
        for x in [(0.0, 0.0), (0.5, -1.0), (-0.3, 0.2), (1.0, -0.4)]:
            g = _grad(f, x)
            for c in range(2):
                lo = list(x)
                hi = list(x)
                lo[c] -= h
                hi[c] += h
                fd = (_value(f, tuple(hi)) - _value(f, tuple(lo))) / (2 * h)
                assert g[c] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_flux_of_a_unit_drift_is_the_gradient(self):
        # a Dirac mass moving at unit speed along each axis in turn:
        # the flux is that component of grad f
        f = TestFunction(center=(0.25, -0.5), radius=1.5)
        x = (0.5, -1.0)
        for axis in range(2):
            drift = tuple(float(c == axis) for c in range(2))
            flow = StationaryFlow(make_measure([(x, 1.0)]),
                                  constant_pvf([(drift, 1.0)]))
            assert _family_fluxes(flow, [f])[0] == pytest.approx(
                _grad(f, x)[axis], rel=1e-12, abs=1e-15)

    # past (1e-150, 1e150), r^2 or 2/r^2 leaves the normal floats, and
    # inf / inf or 0 / 0 would give NaN
    @pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan,
                                        1e150, 1e155, 1e-150, 1e-170])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValidationError) as info:
            TestFunction(center=(0.0,), radius=radius)
        assert info.value.field == "radius"

    def test_gradient_vanishes_outside(self):
        f = TestFunction(center=(0.0,), radius=1.0)
        assert _grad(f, (1.5,)) == (0.0,)
        flow = StationaryFlow(dirac(1.5), constant_pvf([(1.0, 1.0)]))
        assert _family_fluxes(flow, [f]) == [0.0]

    def test_family_covers_the_reach_ball(self):
        fam = bump_family(1, 2.0)
        assert len(fam) == 5
        for probe in (-2.0, -1.0, 0.0, 1.5, 2.0):
            assert any(_value(f, (probe,)) > 0.0 for f in fam)
            assert max(_family_means(fam, [(probe,)], [1.0])) > 0.0


def _old_bump(u):
    """The kernels' cutoff as it took |z| / range before it took the
    square: exp(1 - 1/(1 - u^2)) on |u| < 1, elementwise."""
    out = np.zeros_like(u)
    inside = ~(np.abs(u) >= 1.0)
    arg = 1.0 - 1.0 / (1.0 - u[inside] * u[inside])
    out[inside] = list(map(math.exp, arg.tolist()))
    return out


_EDGE_ARGUMENTS = [1.0, -1.0, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), 0.0,
                   -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                   math.inf, -math.inf, math.nan]


def test_squared_bump_argument_is_bit_identical_at_the_edges():
    # |u| >= 1 <=> u*u >= 1 for every float, and NaN stays NaN, which
    # the particle integrator's blow-up check needs
    u = np.array(_EDGE_ARGUMENTS)
    with np.errstate(over="ignore"):
        got = _bump(u * u)
    assert [v.hex() for v in got.tolist()] == [
        v.hex() for v in _old_bump(u).tolist()]
    assert got[0] == got[1] == 0.0 and math.isnan(got[-1])
    assert got[4] == got[5] == got[6] == 1.0


@given(st.lists(st.floats(), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_squared_bump_argument_is_bit_identical(values):
    u = np.array(values)
    with np.errstate(over="ignore"):  # u*u = inf is outside, as |u| is
        s = u * u
    assert [v.hex() for v in _bump(s).tolist()] == [
        v.hex() for v in _old_bump(u).tolist()]


_unit = st.floats(-3.0, 3.0)
_dyadic = st.sampled_from([0.0, 0.5, -0.75, 1.25, -2.0])


@st.composite
def _bump_scene(draw):
    """A bump family and atoms in 1D-3D: free points, points exactly on
    a sphere (dyadic center and radius, so u == 1), subnormal gaps from
    a center at the origin, and centers far from every atom."""
    dim = draw(st.integers(1, 3))
    family, points = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["free", "sphere", "origin", "far"]))
        if kind == "far":
            center = tuple(draw(st.sampled_from([1e150, -1e150, 1e30]))
                           for _ in range(dim))
        elif kind == "free":
            center = tuple(draw(_unit) for _ in range(dim))
        elif kind == "origin":
            center = (0.0,) * dim
        else:
            center = tuple(draw(_dyadic) for _ in range(dim))
        radius = draw(st.sampled_from([0.5, 1.0, 2.25]) if kind == "sphere"
                      else st.floats(0.1, 4.0))
        family.append(TestFunction(center=center, radius=radius))
        if kind == "sphere":
            axis = draw(st.integers(0, dim - 1))
            sign = draw(st.sampled_from([1.0, -1.0]))
            points.append(tuple(c + sign * radius * (k == axis)
                                for k, c in enumerate(center)))
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            points.append(tuple(draw(_unit) for _ in range(dim)))
        else:
            points.append(tuple(draw(st.floats(-1e-307, 1e-307))
                                for _ in range(dim)))
    points = points or [(0.0,) * dim]
    masses = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(points),
                           max_size=len(points)))
    return family, points, masses


@given(_bump_scene())
@settings(max_examples=150, deadline=None)
def test_family_means_are_the_scalar_sums_bit_for_bit(scene):
    family, points, masses = scene
    want = [math.fsum(m * _value(f, x) for x, m in zip(points, masses))
            for f in family]
    got = _family_means(family, points, masses)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_a_point_on_the_sphere_has_value_zero():
    f = TestFunction(center=(0.5, -0.75), radius=2.25)
    on_sphere = [(2.75, -0.75), (0.5, 1.5), (-1.75, -0.75)]
    assert _family_means([f], on_sphere, [1.0, 1.0, 1.0]) == [0.0]


@st.composite
def _stationary_scene(draw):
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(1, 6))
    points = [tuple(draw(_unit) for _ in range(dim)) for _ in range(count)]
    weights = draw(st.lists(st.floats(0.5, 1.5), min_size=count,
                            max_size=count))
    fiber = [tuple(draw(st.floats(-1.0, 1.0)) for _ in range(dim))
             for _ in range(draw(st.integers(1, 3)))]
    mu = make_measure([(p, w / math.fsum(weights))
                       for p, w in zip(points, weights)])
    flow = StationaryFlow(mu, constant_pvf(
        [(v, 1.0 / len(fiber)) for v in fiber]))
    family = [TestFunction(center=tuple(draw(_unit) for _ in range(dim)),
                           radius=draw(st.floats(0.5, 3.0)))
              for _ in range(draw(st.integers(1, 4)))]
    return flow, family


@given(_stationary_scene())
@settings(max_examples=60, deadline=None)
def test_family_fluxes_match_the_scalar_gradient(scene):
    flow, family = scene
    lifted = evaluate(flow.pvf, flow.measure)
    atoms = list(zip(lifted.positions.tolist(), lifted.velocities.tolist(),
                     lifted.masses.tolist()))
    want = [math.fsum(w * math.fsum(g * c for g, c in zip(_grad(f, x), v))
                      for x, v, w in atoms) for f in family]
    got = _family_fluxes(flow, family)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.fixture(scope="module")
def decay_traj():
    return las_solve(make_measure([(-0.5, 0.25), (0.3, 0.75)]),
                     ode_lift_pvf(linear_field(-1.0)), 10, 1.0)


_weights = st.sampled_from([(1.0,), (1.0, 2.0), (0.5, 1.0, -2.0)])


@given(_stationary_scene(), st.floats(0.0, 1.0), _weights)
@settings(max_examples=40, deadline=None)
def test_a_family_member_residual_is_its_residual_alone(scene, t, a):
    flow, family = scene
    together = analysis._residuals(flow, family, t, a)
    alone = [distributional_residual(flow, f, a, t) for f in family]
    assert [v.hex() for v in together] == [v.hex() for v in alone]


@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 3.0)),
                min_size=1, max_size=4), st.floats(0.0, 1.0), _weights)
@settings(max_examples=30, deadline=None)
def test_a_family_member_residual_is_its_residual_alone_on_a_run(
        decay_traj, bumps, t, a):
    family = [TestFunction(center=(c,), radius=r) for c, r in bumps]
    together = analysis._residuals(decay_traj, family, t, a)
    alone = [distributional_residual(decay_traj, f, a, t) for f in family]
    assert [v.hex() for v in together] == [v.hex() for v in alone]


class TestOracles:
    def test_median_split_delta(self):
        out = oracle("median_split_delta", {"x0": 0.0}, 1.0)
        assert out.atoms() == [((-1.0,), 0.5), ((1.0,), 0.5)]
        assert oracle("median_split_delta", {"x0": 2.5}, 0.0) == dirac(2.5)

    def test_median_split_uniform_at_zero_matches_uniform(self):
        out = oracle("median_split_uniform", {"a": 0.0, "b": 1.0}, 0.0)
        # same midpoint grid up to summation order in the two halves
        assert wasserstein(out, uniform_1d(0.0, 1.0, 200)).distance <= 1e-13

    def test_median_split_uniform_halves_translate(self):
        out = oracle("median_split_uniform",
                     {"a": 0.0, "b": 1.0, "atoms": 40}, 0.25)
        left = [p[0] for p, _ in out.atoms() if p[0] < 0.25]
        right = [p[0] for p, _ in out.atoms() if p[0] > 0.25]
        assert len(left) == len(right) == 20
        assert min(left) == pytest.approx(-0.25 + 0.0125)
        assert max(right) == pytest.approx(1.25 - 0.0125)
        assert math.fsum(m for _, m in out.atoms()) == pytest.approx(1.0)

    def test_constant_drift_zero_mean_is_stationary(self):
        mu0 = make_measure([(0.0, 0.5), (1.0, 0.5)])
        out = oracle("constant_drift",
                     {"mu0": mu0, "fiber": [(1.0, 0.5), (-1.0, 0.5)]}, 7.0)
        assert out == mu0

    def test_constant_drift_translates_at_the_mean(self):
        out = oracle("constant_drift",
                     {"mu0": dirac(1.0), "fiber": [(2.0, 1.0)]}, 0.75)
        assert out == dirac(2.5)

    def test_ode_flow_exponential_decay(self):
        out = oracle("ode_flow",
                     {"mu0": dirac(1.0), "field": linear_field(-1.0)}, 1.0)
        assert out.positions[0][0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_ode_flow_multiple_atoms(self):
        mu0 = make_measure([(-1.0, 0.25), (0.5, 0.75)])
        out = oracle("ode_flow",
                     {"mu0": mu0, "field": linear_field(-1.0)}, 0.5)
        want = push_forward(mu0, lambda x: (x[0] * math.exp(-0.5),))
        for got, exp in zip(out.positions, want.positions):
            assert got[0] == pytest.approx(exp[0], abs=1e-9)

    def test_phi_linear_spreads_uniformly(self):
        assert oracle("phi_linear", {}, 0.0) == dirac(0.0)
        out = oracle("phi_linear", {"atoms": 50}, 0.5)
        assert out == uniform_1d(-0.25, 0.25, 50)

    def test_one_sided_collapse_characteristics(self):
        assert oracle("one_sided_collapse",
                      {"mu0": dirac(1.0)}, 2.0) == dirac(0.0)
        out = oracle("one_sided_collapse", {"mu0": dirac(1.0)}, 1.0)
        assert out.positions[0][0] == pytest.approx(0.25)
        out = oracle("one_sided_collapse", {"mu0": dirac(-4.0)}, 2.0)
        assert out.positions[0][0] == pytest.approx(-1.0)
        # once collapsed, stays at the origin
        assert oracle("one_sided_collapse",
                      {"mu0": dirac(1.0)}, 5.0) == dirac(0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            oracle("fourier_modes", {}, 1.0)
        with pytest.raises(ValidationError):
            oracle("phi_linear", {}, -0.5)


class TestWeakResidual:
    def test_stationary_dirac_under_symmetric_splitting(self):
        flow = StationaryFlow(measure=dirac(0.0),
                              pvf=constant_pvf([(1.0, 0.5), (-1.0, 0.5)]))
        for f in bump_family(1, 1.5):
            assert weak_residual(flow, f, 1.0) == 0.0

    def test_stationary_dirac_under_median_split(self):
        flow = StationaryFlow(measure=dirac(0.0), pvf=median_split_pvf())
        assert max_family_residual(flow, 1.0) == 0.0

    def test_a_stationary_flow_is_lifted_once(self, monkeypatch):
        # 9 time nodes carry the one measure: one lift serves them all
        calls, real_lift = [], analysis.lift

        def counting_lift(*args):
            calls.append(args)
            return real_lift(*args)

        monkeypatch.setattr(analysis, "lift", counting_lift)
        flow = StationaryFlow(uniform_1d(0.0, 1.0, 200), median_split_pvf())
        for a in ((1.0,), (0.5, 1.0, -2.0)):
            calls.clear()
            analysis._residuals(flow, bump_family(1, 2.0), 1.0, a)
            assert len(calls) == 1
        calls.clear()
        max_family_residual(flow, 1.0)
        assert len(calls) == 1

    def test_unit_drift_trajectory_residual(self):
        traj = las_solve(dirac(0.0), ode_lift_pvf(linear_field(0.0, 1.0)),
                         25, 1.0)
        f = TestFunction(center=(0.5,), radius=2.0)
        assert weak_residual(traj, f, 1.0) <= 5.0 / 25

    def test_beyond_horizon(self):
        traj = las_solve(dirac(0.0), median_split_pvf(), 10, 0.5)
        f = TestFunction(center=(0.0,), radius=3.0)
        for residual in (lambda: weak_residual(traj, f, 0.9),
                         lambda: distributional_residual(traj, f, (1.0, 2.0),
                                                         0.9)):
            with pytest.raises(ValidationError,
                               match="beyond trajectory horizon") as info:
                residual()
            assert info.value.field == "t"

    @pytest.mark.parametrize("t", [-0.5, math.nan, math.inf, -math.inf])
    def test_time_must_be_finite_and_nonnegative(self, t):
        # a stationary flow used to give 0.0 here: max(0.0, nan) is 0.0
        f = TestFunction(center=(0.0,), radius=1.5)
        for flow in (las_solve(dirac(0.0), median_split_pvf(), 10, 1.0),
                     StationaryFlow(dirac(0.0), median_split_pvf())):
            for residual in (lambda: weak_residual(flow, f, t),
                             lambda: distributional_residual(
                                 flow, f, (1.0, 2.0), t),
                             lambda: max_family_residual(flow, t)):
                with pytest.raises(ValidationError) as info:
                    residual()
                assert info.value.field == "t"

    @pytest.mark.parametrize("center", [(math.nan,), (math.inf,),
                                        (-math.inf,)])
    def test_center_must_be_finite(self, center):
        traj = las_solve(dirac(0.0), median_split_pvf(), 10, 1.0)
        f = TestFunction(center=center, radius=1.0)
        for residual in (lambda: weak_residual(traj, f, 1.0),
                         lambda: distributional_residual(traj, f, (1.0, 2.0),
                                                         1.0)):
            with pytest.raises(ValidationError) as info:
                residual()
            assert info.value.field == "center"

    def test_a_far_center_sees_no_atom(self):
        # |x - c|^2 = 1e400 overflows to inf >= 1: the bump vanishes on
        # every atom, so the residual is exactly 0
        traj = las_solve(dirac(0.0), median_split_pvf(), 10, 1.0)
        f = TestFunction(center=(1e200,), radius=1.5)
        assert weak_residual(traj, f, 1.0) == 0.0
        assert distributional_residual(traj, f, (0.5, 1.0, -2.0), 1.0) == 0.0

    def test_an_overflowing_sum_of_squares_is_a_typed_error(self):
        # each square 1e308 is finite, their sum is not: fsum raises
        flow = StationaryFlow(make_measure([((0.0, 0.0), 1.0)]),
                              constant_pvf([((1.0, 0.0), 1.0)]))
        f = TestFunction(center=(1e154, 1e154), radius=1.0)
        with pytest.raises(ValidationError) as info:
            weak_residual(flow, f, 1.0)
        assert info.value.field == "center"

    def test_center_must_have_the_flow_dimension(self):
        # a 2D bump on a 1D flow: zipping the coordinates would drop the
        # 5.0 and give the residual of the 1D bump at 0.3
        traj = las_solve(dirac(0.0), constant_pvf([(1.0, 0.5), (-1.0, 0.5)]),
                         10, 1.0)
        f = TestFunction(center=(0.3, 5.0), radius=1.0)
        for residual in (lambda: weak_residual(traj, f, 1.0),
                         lambda: distributional_residual(traj, f, (1.0, 2.0),
                                                         1.0)):
            with pytest.raises(ValidationError) as info:
                residual()
            assert info.value.field == "center"

    def test_family_residual_shrinks_as_n_doubles(self):
        r20 = max_family_residual(
            las_solve(dirac(0.0), median_split_pvf(), 20, 1.0), 1.0)
        r40 = max_family_residual(
            las_solve(dirac(0.0), median_split_pvf(), 40, 1.0), 1.0)
        assert r40 <= 1.5 * r20
        assert r20 < 1e-3

    def test_phi_diffusion_is_audited_with_the_trajectory_n(self):
        # without sub_atoms, a lattice step splits each atom into N
        # sub-atoms; the audit must lift with that N, not the default 16
        phi = poly_field([-0.5, 0.0, 1.0])
        runs = [las_solve(dirac(0.0), phi_diffusion_pvf(
                    phi, sub_atoms=sub, sublinear_c=1.0), 40, 1.0)
                for sub in (None, 40)]
        assert runs[0].steps == runs[1].steps
        f = TestFunction(center=(0.0,), radius=1.5)
        implicit, declared = ([max_family_residual(traj, 1.0),
                               weak_residual(traj, f, 1.0),
                               distributional_residual(traj, f, (1.0, 2.0),
                                                       1.0)]
                              for traj in runs)
        assert implicit == declared
        assert implicit[0] == pytest.approx(0.0071146, abs=1e-7)


class TestDistributionalResidual:
    def test_constant_weight_reduces_to_plain_residual(self):
        traj = las_solve(dirac(0.0), median_split_pvf(), 10, 1.0)
        f = TestFunction(center=(0.0,), radius=3.0)
        plain = weak_residual(traj, f, 1.0)
        assert distributional_residual(traj, f, (1.0,), 1.0) == \
            pytest.approx(plain, abs=1e-15)

    def test_linear_weight_on_a_stationary_flow(self):
        flow = StationaryFlow(measure=dirac(0.0),
                              pvf=constant_pvf([(1.0, 0.5), (-1.0, 0.5)]))
        f = TestFunction(center=(0.0,), radius=1.0)
        assert distributional_residual(flow, f, (1.0, 2.0), 1.0) <= 1e-12

    def test_quadratic_weight_on_a_trajectory(self):
        traj = las_solve(dirac(0.0), median_split_pvf(), 40, 1.0)
        f = TestFunction(center=(0.0,), radius=3.0)
        assert distributional_residual(traj, f, (0.5, 1.0, -2.0), 1.0) < 0.01


def test_residuals_are_pinned():
    # the three residuals on the stationary flows and the lattice runs
    # that criterion 8 audits (each run at its coarsest N), at grid and
    # off-grid times, with constant, linear and quadratic weights. The
    # digest was taken before distributional_residual shared the node
    # loop of the other two; any change to a value changes it.
    f = TestFunction(center=(0.0,), radius=1.5)
    flows = [StationaryFlow(dirac(0.0), spec) for spec in
             (median_split_pvf(), constant_pvf([(1.0, 0.5), (-1.0, 0.5)]))]
    flows += [las_solve(mu0, spec, grid[0], horizon)
              for spec, mu0, grid, horizon in RUN_TABLE.values()]
    values = []
    for flow in flows:
        for t in (0.0, 0.125, 0.3, 0.5, 0.75, 1.0):
            values += [max_family_residual(flow, t), weak_residual(flow, f, t)]
            values += [distributional_residual(flow, f, a, t) for a in
                       ((1.0,), (1.0, 2.0), (0.5, 1.0, -2.0))]
    assert len(values) == 210
    assert hashlib.sha256(repr(values).encode()).hexdigest() == (
        "266ab4d365899f755c151334a6125c2eee548649757459fe49e5e7ad8b94048a")


def _planar_cloud(seed, count):
    """count atoms uniform in [-0.9, 0.9]^2, masses uniform in [0.5, 1.5]
    and then normalised."""
    rng = random.Random(seed)
    points = [(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
              for _ in range(count)]
    masses = [rng.uniform(0.5, 1.5) for _ in range(count)]
    total = math.fsum(masses)
    return make_measure([(p, m / total) for p, m in zip(points, masses)])


def test_planar_residuals_are_pinned():
    # the three residuals on 2D flows at grid and off-grid times, with
    # constant, linear and quadratic weights: a stationary constant PVF,
    # an ode_lift run of v = -x and a bump_alignment interaction run.
    # The digest was taken before the family pass evaluated every bump
    # in one array pass per time node.
    f = TestFunction(center=(0.1, -0.2), radius=1.5)
    flows = [
        StationaryFlow(_planar_cloud(3, 12), constant_pvf(
            [((1.0, 0.5), 0.25), ((-0.5, 0.25), 0.75)])),
        las_solve(_planar_cloud(5, 20), ode_lift_pvf(linear_field(-1.0)),
                  20, 1.0),
        las_solve(_planar_cloud(7, 6), interaction_pvf(
            make_kernel("bump_alignment", range=1.0)), 10, 1.0),
    ]
    values = []
    for flow in flows:
        for t in (0.0, 0.3, 0.55, 1.0):
            values += [max_family_residual(flow, t), weak_residual(flow, f, t)]
            values += [distributional_residual(flow, f, a, t) for a in
                       ((1.0,), (1.0, 2.0), (0.5, 1.0, -2.0))]
    assert len(values) == 60
    assert hashlib.sha256(repr(values).encode()).hexdigest() == (
        "72fd72e075b71246f0b0845bc62a347c0f90a6f7f128b7aedfacd53682205013")


class TestConvergence:
    def test_median_split_is_exact(self):
        report = convergence_study(
            median_split_pvf(), dirac(0.0),
            ("median_split_delta", {"x0": 0.0}), 1.0, [10, 20, 40])
        for n, err in report.errors.items():
            assert err <= 3.0 / n
        assert report.slope is None    # exact: zero errors carry no slope

    def test_ode_lift_first_order(self):
        report = convergence_study(
            ode_lift_pvf(linear_field(-1.0)), dirac(1.0),
            ("ode_flow", {"mu0": dirac(1.0), "field": linear_field(-1.0)}),
            1.0, [10, 20, 40])
        assert report.slope is not None and report.slope >= 0.8
        assert report.errors[10] == pytest.approx(0.0478794, abs=1e-4)
        assert all(rt >= 0.0 for _, _, rt in report.entries)

    def test_splitting_concentration_rate(self):
        report = convergence_study(
            constant_pvf([(1.0, 0.5), (-1.0, 0.5)]), dirac(0.0),
            ("constant_drift",
             {"mu0": dirac(0.0), "fiber": [(1.0, 0.5), (-1.0, 0.5)]}),
            1.0, [100])
        assert report.errors[100] <= 2.0 / math.sqrt(100)

    def test_report_shape(self):
        report = ConvergenceReport(entries=((10, 0.1, 0.0), (20, 0.05, 0.0)),
                                   slope=None)
        assert report.errors == {10: 0.1, 20: 0.05}


class TestSemigroup:
    def test_zero_first_leg(self):
        assert semigroup_check(median_split_pvf(), dirac(0.0),
                               10, 0.0, 0.5) == 0.0

    def test_median_split_halves(self):
        assert semigroup_check(median_split_pvf(), dirac(0.0),
                               10, 0.5, 0.5) == 0.0

    def test_ode_lift_quarters(self):
        assert semigroup_check(ode_lift_pvf(linear_field(-1.0)), dirac(1.0),
                               20, 0.25, 0.75) == 0.0

    def test_alignment_required(self):
        with pytest.raises(ValidationError):
            semigroup_check(median_split_pvf(), dirac(0.0), 10, 0.33, 0.5)

    def test_agreeing_legs_solve_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("semigroup_check solved a W LP")
        monkeypatch.setattr(analysis, "wasserstein", no_lp)
        assert semigroup_check(median_split_pvf(), uniform_1d(-0.5, 0.5, 7),
                               10, 0.3, 0.4) == 0.0
        assert semigroup_check(ode_lift_pvf(linear_field(-1.0)), dirac(1.0),
                               20, 0.25, 0.75) == 0.0

    def test_empty_legs_are_zero(self):
        assert semigroup_check(median_split_pvf(), dirac(0.0),
                               10, 0.0, 0.0) == 0.0

    def test_a_mismatched_leg_is_measured(self, monkeypatch):
        # the leg that restarts from the midpoint ends one lattice cell
        # (1/N^2) to the right, so the LP measures exactly that shift
        real = analysis.las_solve

        def shifted_second_leg(mu0, spec, n, horizon):
            traj = real(mu0, spec, n, horizon)
            if not isinstance(mu0, LatticeMeasure):
                return traj
            last = traj.steps[-1]
            moved = make_lattice_measure(n, 1, [
                ((c[0] + 1,), m) for c, m in zip(last.coords, last.masses)])
            return dataclasses.replace(traj, steps=traj.steps[:-1] + (moved,))

        monkeypatch.setattr(analysis, "las_solve", shifted_second_leg)
        gap = semigroup_check(ode_lift_pvf(linear_field(-1.0)), dirac(1.0),
                              10, 0.5, 0.5)
        assert gap == pytest.approx(1.0 / 100, rel=1e-9)


class TestStability:
    def test_identical_initial_data(self):
        assert gronwall_check(median_split_pvf(), dirac(0.0), dirac(0.0),
                              20, 1.0, 1.0)

    def test_contractive_ode_lift(self):
        assert gronwall_check(ode_lift_pvf(linear_field(-1.0)),
                              dirac(0.5), dirac(1.0), 20, 1.0, 1.0)

    def test_median_split_lattice_aligned_pair(self):
        assert gronwall_check(median_split_pvf(), dirac(0.0), dirac(0.25),
                              20, 1.0, 1.0)

    def test_growth_faster_than_k_is_rejected(self):
        # v = x separates the pair like e^t, which K = 1 covers and
        # smaller K do not
        spec = ode_lift_pvf(linear_field(1.0))
        assert gronwall_check(spec, dirac(0.0), dirac(0.5), 400, 1.0, 1.0)
        for k_const in (0.5, 0.1):
            assert not gronwall_check(spec, dirac(0.0), dirac(0.5), 400,
                                      1.0, k_const)

    @pytest.mark.parametrize("n", [100, 400])
    def test_exponential_separation_keeps_its_closed_form_margin(self, n):
        # v = x leaves the atom at 0 in place and moves the one at 0.5 by
        # c <- c + floor(c / N), so W(t) is its position, and the floor
        # bounds give 0 <= 0.5 e^t - W(t) <= (0.25 t e^t + e^t - 1) / N,
        # under the K = 1 envelope e^t (W0 + dx + dt / K)
        spec = ode_lift_pvf(linear_field(1.0))
        runs = [las_solve(dirac(x), spec, n, 1.0) for x in (0.0, 0.5)]
        for ell in (n // 2, n):
            t = ell / n
            w = wasserstein(runs[0].steps[ell].to_measure(),
                            runs[1].steps[ell].to_measure()).distance
            growth = math.exp(t)
            assert 0.0 <= 0.5 * growth - w <= (
                0.25 * t * growth + growth - 1.0) / n
            assert w <= growth * (0.5 + 1.0 / n ** 2 + 1.0 / n)

    def test_k_must_be_positive(self):
        with pytest.raises(ValidationError):
            gronwall_check(median_split_pvf(), dirac(0.0), dirac(0.25),
                           20, 1.0, 0.0)


@pytest.fixture(scope="module")
def median_traj():
    return las_solve(dirac(0.0), median_split_pvf(), 20, 1.0)


@pytest.fixture(scope="module")
def ode_traj():
    return las_solve(dirac(1.0), ode_lift_pvf(linear_field(-1.0)), 20, 1.0)


class TestTrajectoryChecks:
    def test_support_bound(self, median_traj, ode_traj):
        assert support_bound_check(median_traj)
        assert support_bound_check(ode_traj)

    def test_time_lipschitz(self, median_traj, ode_traj):
        times = [0.0, 0.1, 0.25, 0.55, 0.8, 1.0]
        assert time_lipschitz_check(median_traj, times)
        assert time_lipschitz_check(ode_traj, times)

    def test_step_displacement(self, median_traj, ode_traj):
        assert step_displacement_check(median_traj)
        assert step_displacement_check(ode_traj)

    def test_an_understated_c_is_rejected(self):
        # v = x from a uniform cloud: the audits re-derive their bounds
        # from traj.sublinear_c, and C / 10 is too small for all three
        # while C / 2 still holds
        traj = las_solve(uniform_1d(-1.0, 1.0, 20),
                         ode_lift_pvf(linear_field(1.0)), 40, 1.0)
        times = [k / 10 for k in range(11)]
        for scale, holds in ((0.5, True), (0.1, False)):
            audited = dataclasses.replace(
                traj, sublinear_c=traj.sublinear_c * scale)
            assert support_bound_check(audited) is holds
            assert time_lipschitz_check(audited, times) is holds
            assert step_displacement_check(audited) is holds


class TestMonotoneFiberCost:
    def test_self_cost_vanishes(self):
        v = make_lifted([(0.0, 1.0, 0.25), (0.5, -1.0, 0.25),
                         (2.0, 0.5, 0.5)])
        for kind in FiberCostKind:
            assert monotone_fiber_cost_1d(v, v, kind) == 0.0

    def test_rejects_planar_input(self):
        v = make_lifted([((0.0, 0.0), (1.0, 0.0), 1.0)])
        with pytest.raises(ValidationError):
            monotone_fiber_cost_1d(v, v)

    def test_variance_sin_pair_frozen_values(self):
        v1, v2, mu, nu = variance_sin_pair(1, 2000)
        assert wasserstein(mu, nu).distance == pytest.approx(1.0 / 24,
                                                             abs=1e-12)
        mono = monotone_fiber_cost_1d(v1, v2, FiberCostKind.FIBER)
        target = 4.0 / math.pi
        assert mono == pytest.approx(target, rel=5e-2)   # contracted bound
        assert mono == pytest.approx(1.2732476, abs=1e-6)  # frozen regression

    @pytest.mark.parametrize("seed", [4, 18, 27, 28, 31, 57])
    def test_agrees_with_lp_on_unique_optimum_instances(self, seed):
        rng = random.Random(seed)
        k = rng.choice([3, 4, 5, 6])
        pos1 = sorted(rng.uniform(0, 3) for _ in range(k))
        pos2 = sorted(rng.uniform(0, 3) for _ in range(k))
        va = make_lifted([((p,), (rng.uniform(-1, 1),), 1.0 / k)
                          for p in pos1])
        vb = make_lifted([((p,), (rng.uniform(-1, 1),), 1.0 / k)
                          for p in pos2])
        # certify the unique base optimum by brute force: the monotone
        # pairing must beat every other permutation by a real margin
        costs = sorted(
            math.fsum(abs(va.positions[i][0] - vb.positions[j][0]) / k
                      for i, j in enumerate(perm))
            for perm in itertools.permutations(range(k)))
        assert costs[1] - costs[0] >= 0.05
        mono = monotone_fiber_cost_1d(va, vb, FiberCostKind.FIBER)
        lp, plan = constrained_fiber_cost(va, vb, FiberCostKind.FIBER)
        assert mono == pytest.approx(lp, abs=1e-6)
        assert plan.degenerate_base is False


vel = st.floats(min_value=-2, max_value=2, allow_nan=False, width=64)
pos = st.floats(min_value=-3, max_value=3, allow_nan=False, width=64)


@st.composite
def lifted_1d(draw):
    k = draw(st.integers(1, 5))
    raw = [((draw(pos),), (draw(vel),), 1.0) for _ in range(k)]
    return make_lifted([(p, v, 1.0 / len(raw)) for p, v, _ in raw])


@given(lifted_1d(), lifted_1d(), st.sampled_from(list(FiberCostKind)))
@settings(max_examples=30, deadline=None)
def test_monotone_upper_bounds_the_lp(va, vb, kind):
    mono = monotone_fiber_cost_1d(va, vb, kind)
    lp, _ = constrained_fiber_cost(va, vb, kind)
    assert mono >= lp - 1e-9
