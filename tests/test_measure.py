import contextlib
import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mdelab.measure as measure
from mdelab.measure import (MAX_LATTICE_N, _build, _check_masses,
                            _increasing, _merge, as_rows, exact_row_sums,
                            radius)
from mdelab import (
    DiscreteMeasure,
    ValidationError,
    base_marginal,
    dirac,
    lifted_from_dict,
    lifted_to_dict,
    make_lattice_measure,
    make_lifted,
    make_measure,
    measure_from_dict,
    measure_to_dict,
    push_forward,
    support_radius,
    uniform_1d,
)


def test_scalar_positions_promote_to_1d():
    mu = make_measure([(0.5, 1.0)])
    assert mu.dim == 1
    assert mu.positions == ((0.5,),)


def test_coincident_atoms_merge():
    mu = make_measure([(1.0, 0.25), (1.0, 0.25), (0.0, 0.5)])
    assert len(mu.masses) == 2
    assert mu.mass_at(1.0) == 0.5


def test_atoms_sorted_lexicographically():
    mu = make_measure([((1.0, 0.0), 0.5), ((0.0, 2.0), 0.25),
                       ((0.0, 1.0), 0.25)])
    assert mu.positions.tolist() == [[0.0, 1.0], [0.0, 2.0], [1.0, 0.0]]


def test_mass_must_be_positive():
    with pytest.raises(ValidationError):
        make_measure([(0.0, 1.5), (1.0, -0.5)])


def test_mass_total_window():
    # within 1e-9 the masses renormalize, beyond they are rejected
    mu = make_measure([(0.0, 0.5 + 2e-10), (1.0, 0.5)])
    assert math.fsum(mu.masses) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValidationError):
        make_measure([(0.0, 0.6), (1.0, 0.5)])


def test_dirac_and_support():
    mu = dirac((3.0, -4.0))
    assert mu.masses == (1.0,)
    assert support_radius(mu) == 5.0


def test_uniform_midpoint_atoms():
    mu = uniform_1d(0.0, 1.0, 4)
    assert mu.positions.tolist() == [[0.125], [0.375], [0.625], [0.875]]
    assert all(mass == 0.25 for mass in mu.masses)


def test_push_forward_merges_images():
    mu = make_measure([(-1.0, 0.5), (1.0, 0.5)])
    nu = push_forward(mu, lambda x: (abs(x[0]),))
    assert nu.atoms() == [((1.0,), 1.0)]


def test_mean():
    mu = make_measure([(0.0, 0.5), (2.0, 0.5)])
    assert mu.mean() == (1.0,)


class TestLattice:
    def test_positions_are_cells_over_n_squared(self):
        lat = make_lattice_measure(5, 1, [((7,), 1.0)])
        assert lat.to_measure().positions == ((7 / 25,),)

    def test_coordinate_box_enforced(self):
        make_lattice_measure(3, 1, [((27,), 1.0)])  # |c| = N^3 allowed
        with pytest.raises(ValidationError):
            make_lattice_measure(3, 1, [((28,), 1.0)])

    def test_support_radius_in_spatial_units(self):
        lat = make_lattice_measure(4, 2, [((3, -4), 1.0)])
        assert lat.support_radius() == 5 / 16

    def test_n_above_the_lattice_cap_is_refused(self):
        # coordinates reach N^3, and 208,064^3 > 2^53 is not exact in float64
        with pytest.raises(ValidationError) as err:
            make_lattice_measure(MAX_LATTICE_N + 1, 1, [((0,), 1.0)])
        assert err.value.field == "n_param"
        n = MAX_LATTICE_N
        lat = make_lattice_measure(n, 1, [((-n ** 3,), 1.0)])
        assert lat.coords == ((-n ** 3,),)
        assert type(lat.coords[0][0]) is int

    def test_positions_are_one_exact_division_at_the_cap(self):
        # N^3 <= 2^53, so the int64 coordinates and N^2 are exact floats
        # and numpy's division rounds as Python's c / N**2 does
        n = MAX_LATTICE_N
        rng = random.Random(3)
        edge = [s * (n ** 3 - d) for s in (1, -1) for d in range(400)]
        coords = edge + [rng.randint(-n ** 3, n ** 3) for _ in range(800)]
        cells = [((c, coords[-1 - i]), 1 / len(coords))
                 for i, c in enumerate(coords)]
        lat = make_lattice_measure(n, 2, cells)
        want = [tuple(c / n ** 2 for c in cv) for cv in lat.coords]
        got = lat.position_rows().tolist()
        assert [[v.hex() for v in row] for row in got] == [
            [v.hex() for v in row] for row in want]
        # to_measure merges and sorts the float rows; these are distinct
        assert lat.to_measure().positions.tolist() == sorted(map(list, want))
        # at the int64 limit N = 2,097,151 this division rounds differently
        old_n, c = 2_097_151, 5_575_819_387_313_679_072
        assert (np.array([c]) / old_n ** 2)[0] != c / old_n ** 2

    def test_to_measure_merges_the_rows_that_round_together_at_the_cap(self):
        # distinct coordinates N^3 - d round to 318 distinct positions;
        # each becomes one atom with the math.fsum of its group's masses
        n = MAX_LATTICE_N
        weights = [1 + d % 3 for d in range(400)]
        total = sum(weights)
        lat = make_lattice_measure(n, 1, [((n ** 3 - d,), w / total)
                                          for d, w in enumerate(weights)])
        groups = {}
        for (c,), m in zip(lat.coords, lat.masses):
            groups.setdefault(c / n ** 2, []).append(m)
        mu = lat.to_measure()
        assert (lat.atom_count, mu.atom_count, len(groups)) == (400, 318, 318)
        assert mu.positions[:, 0].tolist() == sorted(groups)
        assert [m.hex() for m in mu.masses.tolist()] == [
            math.fsum(groups[x]).hex() for x in sorted(groups)]
        for x, rows in groups.items():
            assert mu.mass_at(x) == math.fsum(rows)
        assert math.fsum(mu.masses.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_coordinates_beyond_int64_are_a_box_error(self):
        with pytest.raises(ValidationError) as err:
            make_lattice_measure(3, 1, [((2 ** 70,), 1.0)])
        assert err.value.field == "coords"


class TestRows:
    def test_scalars_promote_and_negative_zero_canonicalises(self):
        rows = as_rows([-0.0, 2], what="image")
        assert rows.shape == (2, 1)
        assert math.copysign(1.0, rows[0, 0]) == 1.0

    @pytest.mark.parametrize("values, dim", [
        ([(1.0, 2.0), (1.0,)], None),        # ragged
        ([(1.0, 2.0)], 1),                   # wrong length
        ([()], None),                        # empty vector
        ([(1.0, math.inf)], None),           # non-finite
    ])
    def test_bad_batches_raise_with_the_field(self, values, dim):
        with pytest.raises(ValidationError) as err:
            as_rows(values, dim, what="velocity")
        assert err.value.field == "velocity"


def reference_merge(rows, masses):
    """The dict merge: group by exact key, sort the keys, fsum a group."""
    groups = {}
    for row, mass in zip(rows, masses):
        groups.setdefault(tuple(row), []).append(mass)
    merged = sorted((key, ms[0] if len(ms) == 1 else math.fsum(ms))
                    for key, ms in groups.items())
    return [key for key, _ in merged], [m for _, m in merged]


def key_rows(dim):
    ints = st.tuples(*[st.integers(-3, 3)] * dim)
    floats = st.tuples(*[st.sampled_from([-0.0, 0.0, 0.1, -2.5, 1e-300,
                                          3.0])] * dim)
    return st.one_of(st.lists(ints, min_size=1, max_size=12),
                     st.lists(floats, min_size=1, max_size=12))


def sorted_key_rows(dim):
    """Rows already sorted and distinct, which _merge returns without a
    lexsort. Rows that differ only in the sign of a zero are equal to
    set(), as to the merge, so one of them is kept."""
    return key_rows(dim).map(lambda rows: sorted(set(rows)))


@given(st.sampled_from([1, 2]).flatmap(key_rows)
       | st.sampled_from([1, 2, 3]).flatmap(sorted_key_rows), st.data())
@settings(max_examples=300, deadline=None)
def test_array_merge_matches_the_dict_merge_bit_for_bit(rows, data):
    # masses over 600 decades, and signed zeros, whose pair sum fsum
    # gives as 0.0 where IEEE gives -0.0 + -0.0 = -0.0
    masses = data.draw(st.lists(
        st.floats(1e-12, 1.0) | st.floats(1e-300, 1e300)
        | st.sampled_from([0.1, 0.2, 0.3, 1e-17, 0.0, -0.0]),
        min_size=len(rows), max_size=len(rows)))
    keys, merged = _merge(np.array(rows), masses)
    want_keys, want_masses = reference_merge(rows, masses)
    # repr tells -0.0 from 0.0 and an int from a float
    assert repr([tuple(k) for k in keys.tolist()]) == repr(want_keys)
    assert [m.hex() for m in merged] == [m.hex() for m in want_masses]


@pytest.mark.parametrize("rows, increasing", [
    ([(-0.0, 1.0), (0.0, 2.0)], True),    # a tie defers to the next column
    ([(-0.0,), (0.0,)], False),           # equal rows, signed zeros
    ([(0.0, 1.0), (-0.0, 1.0)], False),
    ([(1.0, math.nan), (2.0, 0.0)], True),
    ([(math.nan,), (1.0,)], False),
    ([(1, 5), (1, 5)], False),
    ([(1, 5), (2, -7), (2, -6)], True),
])
def test_sorted_rows_are_decided_conservatively(rows, increasing):
    assert _increasing(np.array(rows)) is increasing


@pytest.mark.parametrize("rows", [[(0.5,), (1.0,)], [(1.0,), (0.5,)]],
                         ids=["sorted", "unsorted"])
@pytest.mark.parametrize("lifted", [False, True], ids=["measure", "lifted"])
def test_build_freezes_no_array_the_caller_holds(rows, lifted):
    positions, masses = np.array(rows), np.array([0.25, 0.75])
    velocities = np.zeros_like(positions) if lifted else None
    mu = _build(positions, masses, velocities)
    held = [positions, masses] + ([velocities] if lifted else [])
    assert all(array.flags.writeable for array in held)
    assert not any(getattr(mu, f).flags.writeable
                   for f in ("positions", "masses"))
    keys, merged = _merge(positions, masses)
    assert not np.shares_memory(keys, positions)
    assert not np.shares_memory(merged, masses)


def test_pair_groups_sum_to_the_fsum_of_each_group():
    # groups of 1, 2, 3 and 7 rows with masses spread over 600 decades,
    # plus pairs that cancel exactly or are signed zeros
    rng = np.random.default_rng(11)
    sizes = [1, 2, 3, 7] * 40
    rows = [(float(g),) for g, size in enumerate(sizes) for _ in range(size)]
    masses = (10.0 ** rng.uniform(-300, 300, len(rows))).tolist()
    for pair in [(1.5, -1.5), (-0.0, -0.0), (0.0, -0.0), (1e-320, 1e-320)]:
        rows += [(len(rows) + 1e6,)] * 2
        masses += list(pair)
    order = rng.permutation(len(rows)).tolist()
    rows = [rows[i] for i in order]
    masses = [masses[i] for i in order]
    keys, merged = _merge(np.array(rows), masses)
    want_keys, want_masses = reference_merge(rows, masses)
    assert [tuple(k) for k in keys.tolist()] == want_keys
    assert [m.hex() for m in merged] == [m.hex() for m in want_masses]


@pytest.mark.parametrize("masses, error", [
    ((1e308, 1e308), OverflowError),      # fsum's intermediate overflow
    ((math.inf, -math.inf), ValueError),  # fsum's -inf + inf
])
def test_coincident_masses_fail_as_fsum_does(masses, error):
    with pytest.raises(error):
        make_measure([((0.5,), m) for m in masses])


@pytest.mark.parametrize("masses, renormalize, unit", [
    ([0.25, 0.75], False, True),
    ([0.25, 0.75], True, True),
    ([0.5, 0.5 - 2.0 ** -40], False, False),
    ([0.5, 0.5 - 2.0 ** -40], True, False),   # divided and nudged
    ([1 / 237] * 237, True, False),           # equal masses stay equal
])
def test_mass_check_knows_a_unit_sum_only_of_the_masses_it_summed(
        masses, renormalize, unit):
    # unit: the returned masses are positive and their fsum is exactly 1.0
    masses = np.array(masses)
    out, got = _check_masses(masses, renormalize)
    assert got is unit
    assert (out is masses) == (unit or not renormalize)
    assert not unit or math.fsum(out.tolist()) == 1.0


@pytest.mark.parametrize("masses", [[0.0, 1.0], [1.0, -0.0], [1.5, -0.5],
                                    [math.nan, 1.0], [1.0, math.nan]])
def test_mass_check_refuses_a_mass_that_is_not_positive(masses):
    with pytest.raises(ValidationError, match="positive and finite"):
        _check_masses(np.array(masses), renormalize=True)


@pytest.mark.parametrize("dim", [1, 2])
def test_radius_is_the_largest_hypot(dim):
    rng = np.random.default_rng(dim)
    rows = rng.normal(size=(40, dim)) * 10.0 ** rng.integers(-150, 150,
                                                              (40, 1))
    for case in (rows, -rows, np.full((3, dim), -0.0), rows[:1]):
        got = radius(case)
        assert type(got) is float
        assert got.hex() == max(map(math.hypot, *case.T.tolist())).hex()


class TestLifted:
    def test_merge_on_position_velocity_pairs(self):
        v = make_lifted([(0.0, 1.0, 0.25), (0.0, 1.0, 0.25),
                         (0.0, -1.0, 0.5)])
        assert len(v.masses) == 2
        assert v.max_speed() == 1.0

    def test_base_marginal_sums_fibers(self):
        v = make_lifted([(0.0, 1.0, 0.25), (0.0, -1.0, 0.25),
                         (1.0, 0.0, 0.5)])
        mu = base_marginal(v)
        assert mu.atoms() == [((0.0,), 0.5), ((1.0,), 0.5)]


# JSON formats

def test_measure_json_round_trip():
    mu = make_measure([((0.0, 1.0), 0.5), ((2.0, -1.0), 0.5)])
    doc = measure_to_dict(mu)
    assert doc["schema"] == 1
    assert measure_from_dict(json.loads(json.dumps(doc))) == mu


def test_measure_from_dirac_doc():
    mu = measure_from_dict({"schema": 1, "dirac": [1.0, 2.0]})
    assert mu == dirac((1.0, 2.0))


def test_measure_from_uniform_doc():
    mu = measure_from_dict({"uniform": {"a": 0.0, "b": 1.0, "atoms": 10}})
    assert mu == uniform_1d(0.0, 1.0, 10)


def test_lifted_json_round_trip():
    v = make_lifted([((0.0,), (1.0,), 0.5), ((1.0,), (-2.0,), 0.5)])
    assert lifted_from_dict(lifted_to_dict(v)) == v


def test_malformed_doc_names_field():
    with pytest.raises(ValidationError) as err:
        measure_from_dict({"atoms": [[0.0, 1.0]]})
    assert err.value.field == "dim"


finite = st.floats(min_value=-50, max_value=50, allow_nan=False,
                   width=64).map(lambda x: x + 0.0)
masses = st.floats(min_value=0.01, max_value=1.0)


@st.composite
def measures(draw, dim=1, max_atoms=6):
    count = draw(st.integers(1, max_atoms))
    raw = [(tuple(draw(finite) for _ in range(dim)), draw(masses))
           for _ in range(count)]
    total = math.fsum(w for _, w in raw)
    return make_measure([(p, w / total) for p, w in raw], dim=dim)


@given(measures(dim=2))
@settings(max_examples=50, deadline=None)
def test_atom_order_never_affects_the_measure(mu: DiscreteMeasure):
    reversed_atoms = list(mu.atoms())[::-1]
    again = make_measure(reversed_atoms, dim=mu.dim)
    assert again == mu


@given(measures())
@settings(max_examples=50, deadline=None)
def test_total_mass_is_one(mu):
    assert abs(math.fsum(mu.masses) - 1.0) <= 1e-9


def _fsum_rows(rows):
    """[math.fsum(r) for r in rows] as hex strings, or the exception type
    the first raising row raises."""
    try:
        return [math.fsum(r).hex() for r in rows]
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _tree_always():
    """Patch exact_row_sums onto its tree path, whatever the size."""
    return mock.patch.multiple(measure, TREE_FIXED=0, TREE_PER_LEVEL=0)


def _tree_rows(rows):
    """exact_row_sums on the tree path, as _fsum_rows reports."""
    with _tree_always():
        try:
            return [v.hex() for v in exact_row_sums(np.array(rows)).tolist()]
        except (OverflowError, ValueError) as exc:
            return type(exc)


# entries over 2^+-600 and every special float: subnormals, signed zeros,
# the largest finite floats (whose partial sums overflow), +-inf and NaN
_wide = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-600, 600))
_special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022,
                            1.5, 1e308, -1e308, math.inf, -math.inf,
                            math.nan])
_entry = st.one_of(_wide, _special, st.floats())


def _nearly_cancelling(half):
    """A row of half and its negation, each negated entry nudged by at
    most one ulp toward zero or away from it, or not at all."""
    return half + [-math.nextafter(x, s * math.inf)
                   if math.isfinite(x) and s else -x
                   for x, s in zip(half, [0, 1, -1] * len(half))]


def _near_tie(n):
    """Rows of n >= 3 entries whose exact sum lies within b of a tie
    between two floats: a root s = m 2^e (ulp 2^e), half an ulp toward
    the tie, pairs +-c of multiples of 2^e, and terms d of at most one
    ulp of that half. Every add of s, the half and the c is exact but
    the one at the tie, whose error is the half; a big entry absorbs the
    d it meets as its error. So the error sum adds the d one by one to
    the half, and its plain adds can round across the tie though the
    exact sum does not: only b tells the two apart. Shuffled, so the
    tree pairs the entries in every order. A seeded Random draws them:
    Hypothesis's own draws favour zeros, which cross no tie."""
    pairs = (n - 3) // 4

    def row(rnd):
        e, m = rnd.randint(-60, 60), rnd.randrange(2 ** 52, 2 ** 53 - 2 ** 50)
        cs = [rnd.randrange(-2 ** 45, 2 ** 45) for _ in range(pairs)]
        entries = ([math.ldexp(rnd.choice([1, -1]) * m, e),
                    math.ldexp(rnd.choice([1, -1]), e - 1)]
                   + [math.ldexp(c, e) for c in cs + [-c for c in cs]]
                   + [math.ldexp(rnd.randint(-2 ** 11, 2 ** 11), e - 64)
                      for _ in range(n - 2 - 2 * pairs)])  # |d| <= 2^(e-53)
        rnd.shuffle(entries)
        return entries
    return st.randoms(use_true_random=False).map(row)


_row_sets = st.one_of(
    st.integers(1, 3).flatmap(lambda r: st.integers(1, 32).flatmap(
        lambda n: st.lists(st.one_of(
            st.lists(_entry, min_size=n, max_size=n),
            st.lists(_wide, min_size=(n + 1) // 2, max_size=(n + 1) // 2).map(
                lambda h: _nearly_cancelling(h)[:n])),
            min_size=r, max_size=r))),
    st.integers(3, 32).flatmap(
        lambda n: st.lists(_near_tie(n), min_size=1, max_size=3)))


@given(_row_sets)
@settings(max_examples=60, deadline=None)
# the error sum err = fl(1 + 2^-53 + 2^-53) = 1 misses 2^-52, which
# decides the tie 2^53 + 1: a bound b below half an ulp of 1 keeps it
@example([[2.0 ** 53, 1.0, 2.0 ** -53, 2.0 ** -53]])
# fsum overflows on 1e308 + 1e308; the tree adds 1e308 - 1e308 first
@example([[1e308, 1e308, -1e308, -1e308]])
# a tie in one binade, which no bound decides: fsum does
@example([[1.0 + 2.0 ** -51, 1.5, 1.5]])
# rows of zeros have b = 0, so the tree decides them: fsum gives 0.0
@example([[-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]])
def test_exact_row_sums_is_fsum_bit_for_bit(rows):
    want = _fsum_rows(rows)
    assert _tree_rows(rows) == want
    try:
        got = [v.hex() for v in exact_row_sums(np.array(rows)).tolist()]
    except (OverflowError, ValueError) as exc:
        got = type(exc)
    assert got == want


@pytest.mark.parametrize("tree", [False, True])
def test_exact_row_sums_keeps_the_shape_of_the_rows(tree):
    a = np.arange(24.0).reshape(2, 3, 4)
    with _tree_always() if tree else contextlib.nullcontext():
        assert exact_row_sums(a).tolist() == [
            [math.fsum(r) for r in plane] for plane in a.tolist()]
        assert exact_row_sums(a.transpose(2, 0, 1)).tolist() == [
            [math.fsum(a[i, :, k].tolist()) for i in range(2)]
            for k in range(4)]
    # rows of no entry are under every tree size: fsum([]) is 0.0
    assert exact_row_sums(np.zeros((3, 0))).tolist() == [0.0] * 3
