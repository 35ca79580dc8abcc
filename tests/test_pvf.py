"""PVF catalog: velocity fields, the five kinds, the growth bound, JSON."""

import hashlib
import math
import random

import numpy as np
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
from mdelab.kernels import interaction_field
from mdelab.measure import _check_masses, _merge, as_rows, neumaier_prefix
from mdelab.pvf import DEFAULT_SUB_ATOMS, MEDIAN_TIE_TOL, lift


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


# one spec per kind, and the one-sided drift, an ode_lift of sgn_sqrt
NAMED_SPECS = {
    "ode_lift": ode_lift_pvf(linear_field(-1.0, 0.5)),
    "constant": constant_pvf([(1.0, 0.25), (0.0, 0.5), (-1.0, 0.25)]),
    "median_split": median_split_pvf(),
    "phi_diffusion": phi_diffusion_pvf(linear_field(1.0), sub_atoms=3),
    "interaction": interaction_pvf(make_kernel("bounded_attraction")),
    "one_sided_ode": one_sided_ode_pvf(),
}
SPECS = list(NAMED_SPECS.values())


@given(measures_1d(), st.sampled_from(SPECS))
@settings(max_examples=60, deadline=None)
def test_base_marginal_is_preserved(mu, spec):
    lifted = evaluate(spec, mu)
    back = base_marginal(lifted)
    assert back.positions.tolist() == mu.positions.tolist()
    for got, want in zip(back.masses, mu.masses):
        assert got == pytest.approx(want, abs=1e-12)


# every kind, plus a constant phi whose sub-atoms merge into one fiber
CANONICAL = [pytest.param(spec, id=name)
             for name, spec in NAMED_SPECS.items()] + [
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
    assert direct.positions.tolist() == conv.positions.tolist()
    for a, b in zip(direct.velocities, conv.velocities):
        assert a[0] == pytest.approx(b[0], abs=1e-12)
    for a, b in zip(direct.masses, conv.masses):
        assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# the array lift against the per-atom tuple formulas it replaced

def reference_field(f, x):
    """The field at one position, component by component in floats."""
    n = len(x)
    if f.name == "sgn_sqrt":
        return tuple(-math.copysign(math.sqrt(abs(c)), c) if c != 0.0
                     else 0.0 for c in x)
    if f.name == "sinusoidal":
        return tuple(f.amplitude * math.sin(f.frequency * c + f.phase)
                     for c in x)
    out = []
    for xc, comp in zip(x, f.coeffs if len(f.coeffs) == n else f.coeffs * n):
        acc = 0.0
        for c in reversed(comp):
            acc = acc * xc + c
        out.append(acc)
    return tuple(out)


def reference_neumaier_prefix(values):
    """Neumaier's compensated running sums, one add at a time."""
    prefix = []
    s = comp = 0.0
    for v in values:
        t = s + v
        if abs(s) >= abs(v):
            comp += (s - t) + v
        else:
            comp += (v - t) + s
        s = t
        prefix.append(s + comp)
    return prefix


# signed values over 600 decades, signed zeros and subnormals; 60 terms
# of at most 1e300 cannot overflow
spread = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0),
                   st.integers(-300, 300))
summands = st.floats(-1e300, 1e300) | spread | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0])


@given(st.lists(summands, min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_neumaier_prefix_is_the_scalar_loop_bit_for_bit(values):
    prefix = neumaier_prefix(values)
    assert prefix.dtype == np.float64
    assert [v.hex() for v in prefix.tolist()] == [
        v.hex() for v in reference_neumaier_prefix(values)]


def reference_raw_atoms(spec, mu, n_hint):
    """(source index, velocity tuple, mass) per lifted atom, one atom at
    a time."""
    if spec.kind == "ode_lift":
        return [(i, reference_field(spec.field, pos), mass)
                for i, (pos, mass) in enumerate(mu.atoms())]
    if spec.kind == "constant":
        return [(i, vel, mass * p) for i, mass in enumerate(mu.masses)
                for vel, p in spec.fiber]
    prefix = reference_neumaier_prefix(mu.masses.tolist())
    out = []
    if spec.kind == "median_split":
        split = next(i for i, f in enumerate(prefix)
                     if f > 0.5 + MEDIAN_TIE_TOL)
        f_before = prefix[split - 1] if split > 0 else 0.0
        if abs(f_before - 0.5) <= MEDIAN_TIE_TOL:
            f_before = 0.5
        for i, mass in enumerate(mu.masses):
            if i != split:
                out.append((i, (-1.0 if i < split else 1.0,), mass))
                continue
            if 0.5 - f_before > 0.0:
                out.append((i, (-1.0,), 0.5 - f_before))
            if prefix[split] - 0.5 > 0.0:
                out.append((i, (1.0,), prefix[split] - 0.5))
        return out
    if spec.kind == "phi_diffusion":
        k = spec.sub_atoms or n_hint or DEFAULT_SUB_ATOMS
        f_lo = 0.0
        for i, (mass, f_hi) in enumerate(zip(mu.masses, prefix)):
            for r in range(1, k + 1):
                rank = f_lo + (r - 0.5) * mass / k
                out.append((i, reference_field(spec.field, (rank,)), mass / k))
            f_lo = f_hi
        return out
    field = interaction_field(spec.kernel, mu.positions, mu.masses)
    return [(i, tuple(vel), mass) for i, (vel, mass)
            in enumerate(zip(field.tolist(), mu.masses))]


def hexes(rows):
    return [[float.hex(float(c)) for c in row] for row in rows]


coefficient = st.floats(-4.0, 4.0, allow_nan=False)


def fields(dim):
    vector = st.tuples(*[coefficient] * dim)
    return st.one_of(
        st.builds(linear_field, coefficient, vector),
        st.just(sgn_sqrt_field()),
        st.builds(sinusoidal_field, coefficient, coefficient, coefficient),
        st.lists(coefficient, min_size=1, max_size=4).map(
            lambda cs: poly_field([cs] * dim)))


def constant_specs(dim):
    atom = st.tuples(st.tuples(*[coefficient] * dim), st.floats(0.05, 1.0))
    return st.lists(atom, min_size=1, max_size=4).map(lambda fiber: (
        constant_pvf([(v, p / math.fsum(q for _, q in fiber))
                      for v, p in fiber])))


KERNELS = [make_kernel("linear", rate=0.5), make_kernel("bounded_attraction"),
           make_kernel("bump_alignment", range=1.5)]
# kind -> (dimensions it allows, specs with drawn parameters); the
# declared C keeps drawn polynomials and amplitudes inside the bound
LIFT_CASES = {
    "ode_lift": ((1, 2), lambda dim: fields(dim).map(
        lambda f: ode_lift_pvf(f, sublinear_c=1e3))),
    "constant": ((1, 2), constant_specs),
    "median_split": ((1,), lambda dim: st.just(median_split_pvf())),
    "phi_diffusion": ((1,), lambda dim: st.builds(
        phi_diffusion_pvf, fields(1), st.none() | st.integers(1, 7),
        st.just(1e3))),
    "interaction": ((1, 2), lambda dim: st.sampled_from(KERNELS).map(
        interaction_pvf)),
    "one_sided_ode": ((1, 2), lambda dim: st.just(one_sided_ode_pvf())),
}


@st.composite
def measures(draw, dim):
    point = st.tuples(*[st.floats(-3.0, 3.0, allow_nan=False)] * dim)
    pos = draw(st.lists(point, min_size=1, max_size=6, unique=True))
    masses = [draw(st.floats(0.05, 1.0)) for _ in pos]
    total = math.fsum(masses)
    return make_measure([(p, m / total) for p, m in zip(pos, masses)],
                        dim=dim)


@pytest.mark.parametrize("kind,dim", [
    pytest.param(kind, dim, id=f"{kind}-{dim}d")
    for kind, (dims, _) in LIFT_CASES.items() for dim in dims])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_array_lift_matches_the_per_atom_formulas(kind, dim, data):
    spec = data.draw(LIFT_CASES[kind][1](dim), label="spec")
    mu = data.draw(measures(dim), label="mu")
    n_hint = data.draw(st.none() | st.integers(1, 7), label="n_hint")
    index, velocities, masses = zip(*reference_raw_atoms(spec, mu, n_hint))
    keys, want = _merge(np.column_stack(
        [index, as_rows(velocities, dim, what="velocity")]), masses)
    want, want_unit = _check_masses(want, renormalize=True)
    index, velocities, masses, unit = lift(spec, mu.positions, mu.masses,
                                           n_hint)
    assert index.tolist() == keys[:, 0].astype(int).tolist()
    assert hexes(velocities.tolist()) == hexes(keys[:, 1:].tolist())
    assert hexes([masses.tolist()]) == hexes([want])
    assert unit == want_unit
    assert not unit or math.fsum(masses.tolist()) == 1.0
    # a caller that knows its masses sum to exactly 1.0 gets the same lift
    if math.fsum(mu.masses.tolist()) == 1.0:
        again = lift(spec, mu.positions, mu.masses, n_hint, unit=True)
        assert again[0].tolist() == index.tolist()
        assert hexes(again[1].tolist()) == hexes(velocities.tolist())
        assert hexes([again[2].tolist()]) == hexes([masses.tolist()])
        assert again[3] == unit


def test_phi_diffusion_ranks_keep_their_operation_order():
    # each rank is f_lo + (r - 0.5) * mass / k; reassociating it as
    # mass / k * (r - 0.5) moves about one rank in nine by an ulp, which
    # the identity phi passes straight to the velocities
    rng = random.Random(5)
    masses = [rng.uniform(0.05, 1.0) for _ in range(40)]
    total = math.fsum(masses)
    mu = make_measure([(float(i), m / total) for i, m in enumerate(masses)])
    spec = phi_diffusion_pvf(linear_field(1.0), sub_atoms=7)
    want = [vel for _, vel, _ in reference_raw_atoms(spec, mu, None)]
    _, velocities, _, _ = lift(spec, mu.positions, mu.masses)
    assert hexes(velocities.tolist()) == hexes(want)


@given(st.integers(1, 2).flatmap(lambda dim: st.tuples(fields(dim),
                                                      measures(dim))))
@settings(max_examples=60, deadline=None)
def test_field_rows_match_the_per_atom_formulas(case):
    field, mu = case
    rows = hexes(field.rows(np.array(mu.positions)).tolist())
    assert rows == hexes(reference_field(field, p) for p in mu.positions)
    assert rows == hexes(map(field, mu.positions))
    if mu.dim == 1:
        # phi_diffusion's C probes phi at the ranks k / 2000 in one call
        top = max(abs(reference_field(field, (k / 2000.0,))[0])
                  for k in range(2001))
        assert (sublinear_constant(phi_diffusion_pvf(field), 1)
                == 1.02 * top + 1e-12)


def test_specs_cover_every_kind():
    assert sorted({spec.kind for spec in SPECS}) == sorted(PVF_KINDS)
    assert sorted(LIFT_CASES) == sorted(PVF_KINDS + ("one_sided_ode",))


class TestJson:
    @pytest.mark.parametrize("spec", SPECS)
    def test_round_trip(self, spec):
        assert pvf_from_dict(pvf_to_dict(spec)) == spec

    def test_declared_c_survives(self):
        spec = interaction_pvf(make_kernel("linear", rate=1.0),
                               sublinear_c=1.25)
        assert pvf_from_dict(pvf_to_dict(spec)) == spec

    @pytest.mark.parametrize("kind, constructor, default", [
        ("median_split", median_split_pvf, 1.0),
        ("one_sided_ode", one_sided_ode_pvf, 0.5)])
    def test_declared_c_is_kept_by_the_fixed_laws(self, kind, constructor,
                                                  default):
        doc = {"kind": kind, "params": {"sublinear_c": 0.1}}
        loaded = pvf_from_dict(doc)
        assert loaded == constructor(sublinear_c=0.1)
        assert loaded.declared_c == 0.1
        assert sublinear_constant(loaded, 1) == 0.1
        assert pvf_from_dict(pvf_to_dict(loaded)) == loaded
        assert sublinear_constant(pvf_from_dict({"kind": kind}), 1) == default

    def test_a_declared_c_sizes_the_median_split_run(self):
        doc = {"kind": "median_split", "params": {"sublinear_c": 0.5}}
        # speeds +-1 exceed 0.5 (1 + |x|) near the origin
        with pytest.raises(SublinearityError):
            las_solve(dirac(0.0), pvf_from_dict(doc), 10, 1.0)
        # exp(3)(0 + 1) > 10: the box is sized by the declared C
        doc["params"]["sublinear_c"] = 3.0
        with pytest.raises(ValidationError):
            las_solve(dirac(0.0), pvf_from_dict(doc), 10, 1.0)
        assert las_solve(dirac(0.0), median_split_pvf(), 10,
                         1.0).steps[-1].atom_count == 2

    def test_malformed(self):
        with pytest.raises(ValidationError):
            pvf_from_dict({"params": {}})
        with pytest.raises(ValidationError):
            pvf_from_dict({"kind": "teleport"})
        with pytest.raises(ValidationError):
            pvf_from_dict({"kind": "ode_lift", "params": {}})
        with pytest.raises(ValidationError):
            pvf_from_dict({"kind": "constant", "params": {}})


# ---------------------------------------------------------------------------
# retired names: a "linear" field is a degree-1 poly field, "one_sided_ode"
# an ode_lift of sgn_sqrt; documents that use them still load

def _linear_doc(a, b):
    return {"kind": "ode_lift",
            "params": {"field": {"name": "linear", "a": a, "b": b}}}


# (document, the constructor's spec, dim, digest of its lattice run); the
# digests were recorded while linear fields and the one-sided kind still
# had code paths of their own, so they pin the two to the same bits
RETIRED = {
    "linear-1d": (_linear_doc(-1.0, 0.25),
                  ode_lift_pvf(linear_field(-1.0, 0.25)), 1,
                  "67489ada95f17a07"),
    "linear-2d-broadcast": (_linear_doc(-0.5, 0.25),
                            ode_lift_pvf(linear_field(-0.5, 0.25)), 2,
                            "35d25ebd821d3999"),
    "linear-2d": (_linear_doc(0.75, [0.5, -0.25]),
                  ode_lift_pvf(linear_field(0.75, (0.5, -0.25))), 2,
                  "746c31f6de8b4123"),
    "linear-phi": ({"kind": "phi_diffusion", "params": {
        "phi": {"name": "linear", "a": 1.0, "b": -0.5}}},
        phi_diffusion_pvf(linear_field(1.0, -0.5)), 1, "8a1a716bfc99261c"),
    "one_sided_ode-1d": ({"kind": "one_sided_ode"}, one_sided_ode_pvf(), 1,
                         "9c5264763d6c6ebe"),
    "one_sided_ode-2d": ({"kind": "one_sided_ode"}, one_sided_ode_pvf(), 2,
                         "b706e4169c4ea733"),
}


def _lattice_digest(traj):
    bits = [(mu.n_param, mu.dim, mu.coords, [m.hex() for m in mu.masses])
            for mu in traj.steps]
    return hashlib.sha256(repr(bits).encode()).hexdigest()[:16]


def _cloud(seed, count, dim):
    rng = random.Random(seed)
    weights = [rng.uniform(0.2, 1.0) for _ in range(count)]
    return make_measure([(tuple(rng.uniform(-0.9, 0.9) for _ in range(dim)),
                          w / math.fsum(weights)) for w in weights])


@pytest.mark.parametrize("seed, name", list(enumerate(RETIRED, start=30)),
                         ids=list(RETIRED))
def test_retired_names_load_as_their_constructors(seed, name):
    doc, spec, dim, digest = RETIRED[name]
    loaded = pvf_from_dict(doc)
    assert loaded == spec
    assert loaded.kind in PVF_KINDS
    traj = las_solve(_cloud(seed, 12, dim), loaded, 16, 1.0)
    assert _lattice_digest(traj) == digest


def test_linear_field_is_a_degree_one_poly():
    assert linear_field(2.0, (3.0, -1.0)) == poly_field([[3.0, 2.0],
                                                         [-1.0, 2.0]])
    assert field_to_dict(linear_field(-1.0)) == {"name": "poly",
                                                 "coeffs": [[0.0, -1.0]]}
    assert one_sided_ode_pvf() == ode_lift_pvf(sgn_sqrt_field())


@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(
    coefficient, st.sampled_from([1, dim]).flatmap(
        lambda width: st.lists(coefficient, min_size=width,
                               max_size=width)),
    measures(dim))))
@settings(max_examples=100, deadline=None)
def test_affine_lift_is_a_x_plus_b(case):
    a, b, mu = case
    _, velocities, _, _ = lift(ode_lift_pvf(linear_field(a, b),
                                            sublinear_c=1e3),
                               mu.positions, mu.masses)
    # v = a x + b as one numpy expression, offset broadcast over columns
    want = as_rows(a * mu.positions + np.array(b), mu.dim, "velocity")
    assert hexes(velocities.tolist()) == hexes(want.tolist())
