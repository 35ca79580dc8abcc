"""PVF catalog: velocity fields, the six kinds, the growth bound, JSON."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdelab import (
    PVF_KINDS,
    SublinearityError,
    ValidationError,
    base_marginal,
    check_h1,
    constant_pvf,
    dirac,
    evaluate,
    fiber_convolution,
    field_from_dict,
    field_to_dict,
    interaction_pvf,
    las_solve,
    linear_field,
    make_kernel,
    make_lifted,
    make_measure,
    median_split_pvf,
    ode_lift_pvf,
    one_sided_ode_pvf,
    phi_diffusion_pvf,
    poly_field,
    pvf_from_dict,
    pvf_to_dict,
    add_fields,
    scale_field,
    sgn_sqrt_field,
    sinusoidal_field,
    sublinear_constant,
)


class TestVelocityFields:
    def test_linear(self):
        f = linear_field(2.0, 3.0)
        assert f((1.0,)) == (5.0,)
        assert f((1.0, -1.0)) == (5.0, 1.0)     # offset broadcasts
        g = linear_field(0.0, (1.0, 2.0))
        assert g((0.0, 0.0)) == (1.0, 2.0)
        with pytest.raises(ValidationError):
            g((0.0, 0.0, 0.0))

    def test_sgn_sqrt(self):
        f = sgn_sqrt_field()
        assert f((4.0,)) == (-2.0,)
        assert f((-1.0,)) == (1.0,)
        assert f((0.0,)) == (0.0,)

    def test_sinusoidal(self):
        f = sinusoidal_field(2.0, math.pi)
        assert f((0.5,))[0] == pytest.approx(2.0)

    def test_poly(self):
        f = poly_field([0.5, -1.0, 0.25])
        assert f((2.0,)) == (-0.5,)
        g = poly_field([[1.0], [0.0, 2.0]])
        assert g((3.0, 3.0)) == (1.0, 6.0)

    def test_field_algebra(self):
        s = add_fields(linear_field(1.0, 1.0), poly_field([0.0, 0.0, 1.0]))
        assert s((2.0,)) == (7.0,)              # 2 + 1 + 4
        d = scale_field(-2.0, linear_field(1.0, 0.5))
        assert d((3.0,)) == (-7.0,)
        with pytest.raises(ValidationError):
            add_fields(sgn_sqrt_field(), linear_field(1.0))

    def test_default_c(self):
        assert linear_field(2.0, 3.0).default_c(1) == 3.0
        assert linear_field(-4.0, 1.0).default_c(1) == 4.0
        assert sgn_sqrt_field().default_c(1) == pytest.approx(0.5)
        assert sinusoidal_field(2.0, 1.0).default_c(4) == pytest.approx(4.0)
        assert poly_field([1.0, 2.0]).default_c(1) == 2.0
        assert poly_field([0.0, 0.0, 1.0]).default_c(1) is None

    def test_json_round_trip(self):
        for f in (linear_field(1.5, (0.0, 2.0)), sgn_sqrt_field(),
                  sinusoidal_field(0.5, 3.0, 0.25),
                  poly_field([[1.0, 0.0, 2.0]])):
            assert field_from_dict(field_to_dict(f)) == f
        with pytest.raises(ValidationError):
            field_from_dict({"name": "tanh"})


class TestMedianSplit:
    def test_single_dirac_splits_evenly(self):
        out = evaluate(median_split_pvf(), dirac(3.0))
        assert out.atoms() == [((3.0,), (-1.0,), 0.5), ((3.0,), (1.0,), 0.5)]

    def test_generic_split_point(self):
        mu = make_measure([(0.0, 0.3), (1.0, 0.3), (2.0, 0.4)])
        out = evaluate(median_split_pvf(), mu)
        assert out.atoms() == [
            ((0.0,), (-1.0,), 0.3),
            ((1.0,), (-1.0,), pytest.approx(0.2)),
            ((1.0,), (1.0,), pytest.approx(0.1)),
            ((2.0,), (1.0,), 0.4),
        ]

    def test_exact_half_tie_sends_upper_atom_right(self):
        # F hits 1/2 exactly at the first atom, so the split point is the
        # second atom and its mass all moves right
        mu = make_measure([(0.0, 0.5), (1.0, 0.5)])
        out = evaluate(median_split_pvf(), mu)
        assert out.atoms() == [((0.0,), (-1.0,), 0.5), ((1.0,), (1.0,), 0.5)]

    def test_near_tie_snaps_to_half(self):
        mu = make_measure([(0.0, 0.5 + 4e-13), (1.0, 0.5 - 4e-13)])
        out = evaluate(median_split_pvf(), mu)
        vels = [v for _, v, _ in out.atoms()]
        assert vels == [(-1.0,), (1.0,)]

    def test_rejects_planar_input(self):
        with pytest.raises(ValidationError):
            evaluate(median_split_pvf(), dirac((0.0, 0.0)))


class TestConstant:
    def test_product_structure(self):
        spec = constant_pvf([(1.0, 0.5), (-1.0, 0.5)])
        mu = make_measure([(0.0, 0.25), (2.0, 0.75)])
        out = evaluate(spec, mu)
        assert out.atoms() == [
            ((0.0,), (-1.0,), 0.125), ((0.0,), (1.0,), 0.125),
            ((2.0,), (-1.0,), 0.375), ((2.0,), (1.0,), 0.375),
        ]

    def test_probability_validation(self):
        with pytest.raises(ValidationError):
            constant_pvf([(1.0, 0.6), (-1.0, 0.6)])
        with pytest.raises(ValidationError):
            constant_pvf([(1.0, 1.0), (-1.0, -0.0)])
        with pytest.raises(ValidationError):
            constant_pvf([])


class TestPhiDiffusion:
    def test_rank_midpoints_on_a_dirac(self):
        spec = phi_diffusion_pvf(linear_field(1.0), sub_atoms=4)
        out = evaluate(spec, dirac(0.0))
        assert out.atoms() == [
            ((0.0,), (0.125,), 0.25), ((0.0,), (0.375,), 0.25),
            ((0.0,), (0.625,), 0.25), ((0.0,), (0.875,), 0.25),
        ]

    def test_ranks_continue_across_atoms(self):
        spec = phi_diffusion_pvf(linear_field(1.0), sub_atoms=2)
        mu = make_measure([(0.0, 0.5), (1.0, 0.5)])
        out = evaluate(spec, mu)
        vels = [v[0] for _, v, _ in out.atoms()]
        assert vels == [0.125, 0.375, 0.625, 0.875]

    def test_n_hint_feeds_default_subdivision(self):
        spec = phi_diffusion_pvf(linear_field(1.0))
        assert evaluate(spec, dirac(0.0), n_hint=3).atom_count == 3
        assert evaluate(spec, dirac(0.0)).atom_count == 16

    def test_rejects_planar_input(self):
        with pytest.raises(ValidationError):
            evaluate(phi_diffusion_pvf(linear_field(1.0)),
                     dirac((0.0, 0.0)))

    @given(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
           st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_monotone_phi_gives_sorted_velocities(self, masses, k):
        total = math.fsum(masses)
        mu = make_measure([(float(i), m / total)
                           for i, m in enumerate(masses)])
        out = evaluate(phi_diffusion_pvf(linear_field(1.0), sub_atoms=k), mu)
        vels = [v[0] for _, v, _ in out.atoms()]
        assert vels == sorted(vels)
        assert all(0.0 < v < 1.0 for v in vels)


class TestInteraction:
    def test_pair_under_negative_identity_kernel(self):
        spec = interaction_pvf(make_kernel("linear", rate=1.0))
        mu = make_measure([(0.0, 0.5), (2.0, 0.5)])
        out = evaluate(spec, mu)
        assert out.atoms() == [((0.0,), (-1.0,), 0.5),
                               ((2.0,), (1.0,), 0.5)]

    def test_atom_order_cannot_matter(self):
        spec = interaction_pvf(make_kernel("bounded_attraction"))
        rows = [((0.0, 1.0), 0.25), ((1.0, 0.0), 0.25), ((-1.0, -1.0), 0.5)]
        a = evaluate(spec, make_measure(rows))
        b = evaluate(spec, make_measure(list(reversed(rows))))
        assert a == b

    def test_self_term_contributes_phi_zero(self):
        spec = interaction_pvf(make_kernel("linear", rate=1.0))
        out = evaluate(spec, dirac(5.0))
        assert out.atoms() == [((5.0,), (0.0,), 1.0)]


def test_one_sided_ode_velocities():
    out = evaluate(one_sided_ode_pvf(),
                   make_measure([(-4.0, 0.5), (1.0, 0.5)]))
    assert out.atoms() == [((-4.0,), (2.0,), 0.5), ((1.0,), (-1.0,), 0.5)]


class TestGrowthBound:
    def test_constant_all_speeds_bounded(self):
        spec = constant_pvf([(3.0, 0.5), (-3.0, 0.5)])
        assert check_h1(spec, dirac(100.0))
        assert sublinear_constant(spec, 1) == 3.0

    def test_median_split_unit_constant(self):
        assert sublinear_constant(median_split_pvf(), 1) == 1.0
        assert check_h1(median_split_pvf(), dirac(0.0))

    def test_quadratic_with_false_declaration(self):
        spec = ode_lift_pvf(poly_field([0.0, 0.0, 1.0]), sublinear_c=1.0)
        assert not check_h1(spec, dirac(5.0))       # 25 > 1*(1+5)
        assert check_h1(spec, dirac(0.5))
        with pytest.raises(SublinearityError):
            evaluate(spec, dirac(5.0))

    def test_quadratic_needs_a_declaration(self):
        spec = ode_lift_pvf(poly_field([0.0, 0.0, 1.0]))
        with pytest.raises(ValidationError):
            sublinear_constant(spec, 1)

    def test_phi_diffusion_probes_its_sup(self):
        spec = phi_diffusion_pvf(sinusoidal_field(2.0, math.pi))
        c = sublinear_constant(spec, 1)
        assert 2.0 < c < 2.1


positions = st.lists(
    st.floats(min_value=-3, max_value=3, allow_nan=False, width=64),
    min_size=1, max_size=6, unique=True)


@st.composite
def measures_1d(draw):
    pos = draw(positions)
    masses = [draw(st.floats(0.05, 1.0)) for _ in pos]
    total = math.fsum(masses)
    return make_measure([(p, m / total) for p, m in zip(pos, masses)])


SPECS = [
    ode_lift_pvf(linear_field(-1.0, 0.5)),
    constant_pvf([(1.0, 0.25), (0.0, 0.5), (-1.0, 0.25)]),
    median_split_pvf(),
    phi_diffusion_pvf(linear_field(1.0), sub_atoms=3),
    interaction_pvf(make_kernel("bounded_attraction")),
    one_sided_ode_pvf(),
]


@given(measures_1d(), st.sampled_from(SPECS))
@settings(max_examples=60, deadline=None)
def test_base_marginal_is_preserved(mu, spec):
    lifted = evaluate(spec, mu)
    back = base_marginal(lifted)
    assert back.positions == mu.positions
    for got, want in zip(back.masses, mu.masses):
        assert got == pytest.approx(want, abs=1e-12)


# every kind, plus a constant phi whose sub-atoms merge into one fiber
CANONICAL = [pytest.param(spec, id=spec.kind) for spec in SPECS] + [
    pytest.param(phi_diffusion_pvf(linear_field(0.0, 0.5), sub_atoms=3),
                 id="phi_diffusion_merging")]


@pytest.mark.parametrize("spec", CANONICAL)
@given(mu=measures_1d())
@settings(max_examples=20, deadline=None)
def test_evaluate_is_canonical(spec, mu):
    lifted = evaluate(spec, mu)
    assert lifted == make_lifted(lifted.atoms(), dim=mu.dim)


@pytest.mark.parametrize("spec", CANONICAL)
def test_evaluate_renormalises_as_make_lifted(spec):
    # step 78 of this run holds masses whose sum is an ulp off 1
    traj = las_solve(dirac(0.1), constant_pvf([(-1.0, 0.5), (1.0, 0.5)]),
                     200, 0.4)
    mu = traj.steps[78].to_measure()
    assert math.fsum(mu.masses) != 1.0
    lifted = evaluate(spec, mu)
    assert math.fsum(lifted.masses) == 1.0
    assert lifted == make_lifted(lifted.atoms(), dim=mu.dim)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_sum_field_matches_fiber_convolution(seed):
    import random
    rng = random.Random(seed)
    f1 = linear_field(rng.uniform(-2, 2), rng.uniform(-1, 1))
    f2 = poly_field([rng.uniform(-1, 1), rng.uniform(-1, 1)])
    mu = make_measure([(rng.uniform(-3, 3), 0.25) for _ in range(4)])
    try:
        direct = evaluate(ode_lift_pvf(add_fields(f1, f2)), mu)
    except ValidationError:
        return
    conv = fiber_convolution(evaluate(ode_lift_pvf(f1), mu),
                             evaluate(ode_lift_pvf(f2), mu))
    assert direct.positions == conv.positions
    for a, b in zip(direct.velocities, conv.velocities):
        assert a[0] == pytest.approx(b[0], abs=1e-12)
    for a, b in zip(direct.masses, conv.masses):
        assert a == pytest.approx(b, abs=1e-12)


def test_specs_cover_every_kind():
    assert sorted(spec.kind for spec in SPECS) == sorted(PVF_KINDS)


class TestJson:
    @pytest.mark.parametrize("spec", SPECS)
    def test_round_trip(self, spec):
        assert pvf_from_dict(pvf_to_dict(spec)) == spec

    def test_declared_c_survives(self):
        spec = interaction_pvf(make_kernel("linear", rate=1.0),
                               sublinear_c=1.25)
        assert pvf_from_dict(pvf_to_dict(spec)) == spec

    def test_malformed(self):
        with pytest.raises(ValidationError):
            pvf_from_dict({"params": {}})
        with pytest.raises(ValidationError):
            pvf_from_dict({"kind": "teleport"})
        with pytest.raises(ValidationError):
            pvf_from_dict({"kind": "ode_lift", "params": {}})
        with pytest.raises(ValidationError):
            pvf_from_dict({"kind": "constant", "params": {}})
