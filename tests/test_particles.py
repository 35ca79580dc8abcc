"""Coupled particle systems, empirical measures, and the mean-field bridge."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdelab import (
    dirac,
    empirical,
    evaluate,
    integrate,
    interaction_pvf,
    make_kernel,
    make_measure,
    make_state,
    meanfield_compare,
    permute_state,
    stability_check,
    stability_rate,
    state_from_dict,
    wasserstein,
)
from mdelab.errors import NumericalError, ValidationError


class TestStateConstruction:
    def test_scalars_promote_to_1d_vectors(self):
        state = make_state([0, 2])
        assert state.positions.tolist() == [[0.0], [2.0]]
        assert state.m == 2
        assert state.dim == 1

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            make_state([(0.0, 1.0), (2.0,)])

    def test_empty_state_rejected(self):
        with pytest.raises(ValidationError):
            make_state([])

    def test_non_finite_coordinate_rejected(self):
        with pytest.raises(ValidationError):
            make_state([0.0, math.inf])

    def test_radius_is_largest_norm(self):
        state = make_state([(3.0, 4.0), (1.0, 0.0)])
        assert state.radius() == 5.0

    def test_from_dict_with_matching_dim(self):
        state = state_from_dict({"dim": 2, "positions": [[0, 1], [2, 3]]})
        assert state.dim == 2
        assert state.positions.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    def test_from_dict_dim_mismatch(self):
        with pytest.raises(ValidationError):
            state_from_dict({"dim": 3, "positions": [[0, 1]]})

    def test_from_dict_requires_positions(self):
        with pytest.raises(ValidationError):
            state_from_dict({"dim": 1})


class TestIntegrate:
    def test_zero_kernel_keeps_particles_frozen(self):
        state = make_state([(0.25, -1.0), (2.0, 0.5)])
        states = integrate(state, make_kernel("zero"), 1.0, 0.1)
        assert len(states) == 11
        for s in states:
            assert s.positions.tolist() == state.positions.tolist()

    def test_step_count_snaps_to_horizon(self):
        # dt_ode is a hint: 1.0 / 0.3 rounds to 3 equal steps
        states = integrate(make_state([0.0]), make_kernel("zero"), 1.0, 0.3)
        assert len(states) == 4
        assert states[1].time == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert states[-1].time == pytest.approx(1.0, abs=1e-12)

    def test_linear_pair_follows_the_closed_form(self):
        # phi(z) = -z feeds on the j-to-i difference, so the pair repels:
        # the gap g solves g' = g and the midpoint stays put.
        kern = make_kernel("linear", rate=1.0)
        states = integrate(make_state([0.0, 2.0]), kern, 1.0, 1e-3)
        for s in states:
            t = s.time
            lo, hi = s.positions[0][0], s.positions[1][0]
            assert lo == pytest.approx(1.0 - math.exp(t), abs=1e-10)
            assert hi == pytest.approx(1.0 + math.exp(t), abs=1e-10)
            assert (lo + hi) / 2.0 == pytest.approx(1.0, abs=1e-12)

    def test_bounded_kernel_respects_speed_limit(self):
        state = make_state([(0.0, 0.5), (1.0, -0.25), (0.75, 2.0)])
        kern = make_kernel("bounded_attraction")
        speed = kern.bound_on(10.0)
        for s in integrate(state, kern, 2.0, 0.05):
            assert s.radius() <= state.radius() + s.time * speed * (1 + 1e-9) + 1e-12

    def test_dt_must_be_positive(self):
        with pytest.raises(ValidationError):
            integrate(make_state([0.0]), make_kernel("zero"), 1.0, 0.0)

    def test_blowup_raises_numerical_error(self):
        # stiff repulsion amplifies the gap past float range mid-run
        kern = make_kernel("linear", rate=2000.0)
        with pytest.raises(NumericalError):
            integrate(make_state([0.0, 2.0]), kern, 1.0, 0.01)

    def test_permuting_labels_permutes_the_trajectory_bitwise(self):
        positions = [(0.1, -0.4), (1.2, 0.3), (-0.7, 0.9), (0.5, 0.5), (2.0, -1.1)]
        perm = [3, 0, 4, 1, 2]
        kern = make_kernel("bounded_attraction")
        plain = integrate(make_state(positions), kern, 1.0, 0.1)
        relabeled = integrate(permute_state(make_state(positions), perm),
                              kern, 1.0, 0.1)
        for s, r in zip(plain, relabeled):
            assert (permute_state(s, perm).positions.tolist()
                    == r.positions.tolist())

    def test_permute_rejects_non_permutations(self):
        state = make_state([0.0, 1.0, 2.0])
        with pytest.raises(ValidationError):
            permute_state(state, [0, 0, 2])


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    m=st.integers(min_value=2, max_value=4),
    dim=st.integers(min_value=1, max_value=2),
)
def test_permutation_equivariance_property(data, m, dim):
    coords = st.floats(min_value=-2.0, max_value=2.0,
                       allow_nan=False, allow_infinity=False)
    positions = data.draw(st.lists(
        st.tuples(*([coords] * dim)), min_size=m, max_size=m))
    perm = data.draw(st.permutations(range(m)))
    kern = make_kernel("bounded_attraction")
    plain = integrate(make_state(positions), kern, 0.3, 0.1)
    relabeled = integrate(permute_state(make_state(positions), list(perm)),
                          kern, 0.3, 0.1)
    for s, r in zip(plain, relabeled):
        assert (permute_state(s, list(perm)).positions.tolist()
                == r.positions.tolist())


class TestEmpirical:
    def test_single_particle_is_a_dirac(self):
        assert empirical(make_state([(1.5, -0.5)])) == dirac((1.5, -0.5))

    def test_pair_gives_two_half_atoms(self):
        mu = empirical(make_state([0.0, 2.0]))
        assert mu == make_measure([(0.0, 0.5), (2.0, 0.5)])

    def test_coincident_particles_merge(self):
        assert empirical(make_state([1.0, 1.0])) == dirac(1.0)


def test_interaction_field_matches_the_pairwise_sums():
    # velocities of the lifted interaction field on an empirical measure
    # must equal the per-particle mean of kernel values
    state = make_state([(0.0, 0.5), (1.0, -0.25), (0.75, 2.0), (-1.5, 0.125)])
    kern = make_kernel("bounded_attraction")
    lifted = evaluate(interaction_pvf(kern), empirical(state))
    by_position = dict(zip(map(tuple, lifted.positions.tolist()),
                           lifted.velocities.tolist()))
    for xi in map(tuple, state.positions.tolist()):
        terms = [kern.phi_array(xj - np.array(xi))
                 for xj in state.positions]
        want = tuple(math.fsum(t[c] for t in terms) / state.m
                     for c in range(state.dim))
        got = by_position[xi]
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


class TestMeanfieldCompare:
    def test_zero_kernel_gap_is_pure_binning(self):
        # both flows are stationary, so the gap is the initial floor
        # quantization, at most one spatial cell
        gaps = meanfield_compare(make_state([1.0 / 3.0, 1.7]),
                                 make_kernel("zero"), 10, 1.0)
        assert len(gaps) == 5
        for _, gap in gaps:
            assert gap <= 1.0 / 10 ** 2 + 1e-12

    def test_linear_pair_gap_is_first_order(self):
        kern = make_kernel("linear", rate=1.0, sublinear_c=1.25)
        gaps = meanfield_compare(make_state([0.0, 2.0]), kern, 30, 1.0)
        assert gaps[0][1] <= 1.0 / 30 ** 2 + 1e-12
        for t, gap in gaps:
            assert gap <= 10.0 / 30

    def test_doubling_n_roughly_halves_the_gap(self):
        kern = make_kernel("linear", rate=1.0, sublinear_c=1.25)
        state = make_state([0.0, 2.0])
        coarse = max(g for _, g in meanfield_compare(state, kern, 12, 1.0))
        fine = max(g for _, g in meanfield_compare(state, kern, 24, 1.0))
        assert 0.3 <= fine / coarse <= 0.8

    def test_sample_times_span_the_horizon(self):
        gaps = meanfield_compare(make_state([0.5]), make_kernel("zero"), 5, 2.0)
        times = [t for t, _ in gaps]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(2.0, abs=1e-9)
        assert times == sorted(times)


class TestStability:
    def test_zero_kernel_gap_is_constant(self):
        assert stability_check(make_state([0.0, 2.0]), make_state([0.5, 2.5]),
                               make_kernel("zero"), 1.0, 0.05)

    def test_linear_translate_pair(self):
        # a uniform translate is invariant under the centered linear flow
        assert stability_check(make_state([0.0, 2.0]), make_state([0.5, 2.5]),
                               make_kernel("linear", rate=0.5), 1.0, 0.05)

    def test_linear_mean_zero_deviation_saturates_the_rate(self):
        assert stability_check(make_state([0.0, 2.0]), make_state([-0.1, 2.1]),
                               make_kernel("linear", rate=0.5), 1.0, 0.05)

    def test_zero_rate_override_fails_on_expanding_pair(self):
        assert not stability_check(
            make_state([0.0, 2.0]), make_state([-0.1, 2.1]),
            make_kernel("linear", rate=0.5), 1.0, 0.05, rate=0.0)

    def test_bounded_kernel_pair(self):
        assert stability_check(make_state([0.0, 1.5]), make_state([0.2, 1.1]),
                               make_kernel("bounded_attraction"), 2.0, 0.05)

    def test_rate_table(self):
        assert stability_rate(make_kernel("linear", rate=0.5), 3.0) == 0.5
        assert stability_rate(make_kernel("zero"), 3.0) == 0.0
        bounded = make_kernel("bounded_attraction")
        assert stability_rate(bounded, 3.0) == 2.0 * bounded.lipschitz_on(3.0)


@settings(max_examples=25, deadline=None)
@given(
    xs=st.lists(st.floats(min_value=-1.5, max_value=1.5,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=4),
    ys=st.lists(st.floats(min_value=-1.5, max_value=1.5,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=4),
)
def test_stability_bound_property(xs, ys):
    k = min(len(xs), len(ys))
    assert stability_check(make_state(xs[:k]), make_state(ys[:k]),
                           make_kernel("bounded_attraction"), 0.5, 0.1)


def test_empirical_flow_conserves_mass_and_support():
    state = make_state([(0.3, 0.1), (-0.8, 0.4), (0.0, -1.0)])
    kern = make_kernel("bounded_attraction")
    speed = kern.bound_on(5.0)
    for s in integrate(state, kern, 1.0, 0.1):
        mu = empirical(s)
        assert math.fsum(mu.masses) == pytest.approx(1.0, abs=1e-12)
        for p in mu.positions:
            assert math.hypot(*p) <= state.radius() + s.time * speed + 1e-9


def test_meanfield_agrees_with_direct_wasserstein():
    # recompute one sampled gap by hand to pin the reporting convention
    state = make_state([0.0, 2.0])
    kern = make_kernel("linear", rate=1.0, sublinear_c=1.25)
    gaps = meanfield_compare(state, kern, 24, 1.0)
    t_end, reported = gaps[-1]
    fine = integrate(state, kern, 1.0, 1e-3)
    closed = empirical(fine[-1])
    from mdelab import interpolate, las_solve
    traj = las_solve(empirical(state), interaction_pvf(kern), 24, 1.0)
    direct = wasserstein(closed, interpolate(traj, min(t_end, 1.0))).distance
    assert reported == pytest.approx(direct, abs=1e-6)
