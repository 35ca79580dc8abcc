"""Interaction kernel catalog: values, declared envelopes, selfcheck."""

import hashlib
import importlib
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdelab.kernels as kernels
import mdelab.measure as measure
from mdelab import (
    ValidationError,
    interaction_field,
    interaction_pvf,
    kernel_from_dict,
    kernel_selfcheck,
    kernel_to_dict,
    las_solve,
    make_kernel,
    make_measure,
)


def test_zero_kernel():
    k = make_kernel("zero")
    assert k.phi_array(np.array([3.0, -4.0])).tolist() == [0.0, 0.0]
    assert k.bound_on(10.0) == 0.0
    assert k.lipschitz_on(10.0) == 0.0
    assert k.sublinear_default() == 0.0


def test_linear_kernel():
    k = make_kernel("linear", rate=0.5)
    assert k.phi_array(np.array([2.0])).tolist() == [-1.0]
    assert k.phi_array(np.array([0.0, -4.0])).tolist() == [0.0, 2.0]
    assert k.bound_on(3.0) == pytest.approx(3.0)   # 0.5 * 2 * 3
    assert k.lipschitz_on(3.0) == pytest.approx(0.5)
    assert k.sublinear_default() == pytest.approx(1.0)


def test_bounded_attraction_kernel():
    k = make_kernel("bounded_attraction")
    assert k.phi_array(np.array([1.0])).tolist() == [-0.5]
    assert k.phi_array(np.array([0.0])).tolist() == [0.0]
    # |z|/(1+|z|^2) peaks at 1/2 when |z| = 1
    assert k.bound_on(50.0) == pytest.approx(0.5)
    assert k.sublinear_default() == pytest.approx(0.5)
    assert math.hypot(*k.phi_array(np.array([100.0, 0.0]))) < 0.011


def test_bump_alignment_kernel():
    k = make_kernel("bump_alignment", range=1.0)
    assert k.phi_array(np.array([1.0])).tolist() == [0.0]
    assert k.phi_array(np.array([2.5, 0.0])).tolist() == [0.0, 0.0]
    expected = -0.5 * math.exp(1.0 - 1.0 / (1.0 - 0.25))
    assert k.phi_array(np.array([0.5]))[0] == pytest.approx(expected,
                                                            rel=1e-12)


@pytest.mark.parametrize("z", [(0.5,), (3.0, -4.0), (0.25, 0.5, -0.5)])
def test_phi_is_phi_array_of_one_argument(z):
    # no program path calls phi; the benchmark's tracer hooks it by name
    for k in KERNELS:
        assert k.phi(z) == tuple(k.phi_array(np.array(z)).tolist())


def test_sublinear_override():
    k = make_kernel("linear", rate=1.0, sublinear_c=1.25)
    assert k.sublinear_default() == 1.25


def test_make_kernel_validation():
    with pytest.raises(ValidationError):
        make_kernel("gravity")
    with pytest.raises(ValidationError):
        make_kernel("linear")                   # missing rate
    with pytest.raises(ValidationError):
        make_kernel("zero", rate=1.0)           # unexpected param
    with pytest.raises(ValidationError):
        make_kernel("bump_alignment")           # missing range


PROBES_1D = [(x / 4.0,) for x in range(-8, 9)]
# keep |z| <= 2*radius: the declared envelopes only cover that ball
PROBES_2D = [(x / 2.0, y / 2.0) for x in range(-4, 5) for y in range(-4, 5)
             if math.hypot(x / 2.0, y / 2.0) <= 2.0]


KERNELS = [
    make_kernel("zero"),
    make_kernel("linear", rate=0.7),
    make_kernel("bounded_attraction"),
    make_kernel("bump_alignment", range=1.5),
]


@pytest.mark.parametrize("kernel", KERNELS)
def test_selfcheck_declared_envelopes(kernel):
    kernel_selfcheck(kernel, radius=1.0, probes=PROBES_1D)
    kernel_selfcheck(kernel, radius=1.0, probes=PROBES_2D)
    kernel_selfcheck(kernel, radius=1.0, probes=[])


def test_selfcheck_catches_out_of_range_probe():
    k = make_kernel("linear", rate=1.0)
    # probe outside |z| <= 2*radius violates the declared bound
    with pytest.raises(ValidationError):
        kernel_selfcheck(k, radius=1.0, probes=[(0.0,), (5.0,)])


def test_json_round_trip():
    k = make_kernel("bump_alignment", range=2.0, sublinear_c=0.9)
    doc = kernel_to_dict(k)
    assert doc["name"] == "bump_alignment"
    assert doc["range"] == 2.0
    assert doc["sublinear_c"] == 0.9
    assert kernel_from_dict(doc) == k
    assert kernel_from_dict({"name": "zero"}) == make_kernel("zero")
    with pytest.raises(ValidationError):
        kernel_from_dict({"range": 2.0})


coord = st.floats(min_value=-2, max_value=2, allow_nan=False, width=64)


@given(st.tuples(coord), st.tuples(coord))
@settings(max_examples=50, deadline=None)
def test_bounded_attraction_lipschitz_property(za, zb):
    k = make_kernel("bounded_attraction")
    lip = k.lipschitz_on(1.0)
    dz = math.dist(za, zb)
    dv = math.dist(k.phi_array(np.array(za)), k.phi_array(np.array(zb)))
    assert dv <= lip * dz * (1.0 + 1e-9) + 1e-12


def _phi_reference(kernel, z):
    """phi(z) by its per-pair formula in math, written apart from phi_array."""
    params = dict(kernel.params)
    if kernel.name == "zero":
        return [0.0] * len(z)
    if kernel.name == "linear":
        return [-params["rate"] * c for c in z]
    if kernel.name == "bounded_attraction":
        scale = 1.0 + math.fsum(c * c for c in z)
        return [-c / scale for c in z]
    u = math.hypot(*z) / params["range"]
    bump = math.exp(1.0 - 1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0
    return [-c * bump for c in z]


def _pairwise_field(kernel, positions, weights):
    # reference: one phi per pair, each component summed by fsum
    out = []
    for xi in positions:
        terms = [[w * c for c in _phi_reference(
                    kernel, [a - b for a, b in zip(xj, xi)])]
                 for xj, w in zip(positions, weights)]
        out.append([math.fsum(t[c] for t in terms)
                    for c in range(len(xi))])
    return out


def _hex_rows(rows):
    return [[c.hex() for c in row] for row in rows]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("unit", [False, True], ids=["weighted", "unit"])
def test_interaction_field_matches_pairwise_reference(kernel, dim, unit):
    rng = np.random.default_rng(100 * dim + len(kernel.name))
    for _ in range(10):
        m = int(rng.integers(1, 9))
        positions = [tuple(rng.normal(0.0, 1.0, dim).tolist())
                     for _ in range(m)]
        weights = [1.0] * m if unit else rng.random(m).tolist()
        got = interaction_field(kernel, positions, weights)
        assert got.shape == (m, dim)
        # bitwise: compare the float bit patterns, not values
        assert (_hex_rows(got.tolist())
                == _hex_rows(_pairwise_field(kernel, positions, weights)))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("dim, m", [(1, 1), (1, 120), (2, 70), (3, 50)])
def test_interaction_field_matches_pairwise_reference_past_the_crossovers(
        kernel, dim, m):
    # m = 1 sums by fsum, the rest on exact_row_sums' tree (m^2 d from
    # 1152 on); the bump pairs at every m. Points repeat: x_j - x_i = 0
    rng = np.random.default_rng(7 * m + dim)
    positions = rng.uniform(-1.0, 1.0, (m, dim))
    positions[m // 2:m // 2 + 3] = positions[0]
    weights = rng.random(m)
    got = interaction_field(kernel, positions, weights)
    assert (_hex_rows(got.tolist()) == _hex_rows(
        _pairwise_field(kernel, positions.tolist(), weights.tolist())))


# coordinates from 1e-150 to 1e150 in size: no squared difference
# overflows, so every d <= 2 pair takes the IEEE add and d = 1 takes abs
wide = st.one_of(st.just(0.0), st.floats(1e-150, 1e150),
                 st.floats(-1e150, -1e-150))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("dim", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_interaction_field_matches_the_math_reference_over_wide_magnitudes(
        kernel, dim, data):
    m = data.draw(st.integers(1, 6))
    positions = data.draw(st.lists(st.tuples(*[wide] * dim),
                                   min_size=m, max_size=m))
    weights = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=m,
                                 max_size=m))
    got = interaction_field(kernel, positions, weights)
    assert (_hex_rows(got.tolist())
            == _hex_rows(_pairwise_field(kernel, positions, weights)))


def test_bounded_attraction_overflow_still_raises_in_2d():
    # |z|^2 = 2e308 overflows: fsum raises where the IEEE add gives inf
    k = make_kernel("bounded_attraction")
    with pytest.raises(OverflowError):
        k.phi_array(np.array([1e154, 1e154]))
    with pytest.raises(OverflowError):
        interaction_field(k, [(0.0, 0.0), (1e154, -1e154)], [0.5, 0.5])
    # and inside a cloud past the crossovers
    cloud = np.random.default_rng(60).uniform(-1.0, 1.0, (60, 2))
    cloud[37] = (1e154, -1e154)
    with pytest.raises(OverflowError):
        interaction_field(k, cloud, np.full(60, 1.0 / 60))


@pytest.mark.parametrize("positions, weights, field", [
    ([(0.0,), (1.0,), (2.0,)], [0.5], "weights"),          # broadcast
    ([(0.0,), (1.0,), (2.0,)], [0.5, 0.5], "weights"),
    ([(0.0,), (1.0,), (2.0,)], [[0.2, 0.3, 0.5]], "weights"),
    ([0.0, 1.0, 2.0], [0.2, 0.3, 0.5], "positions"),       # flat 1D list
    ([[(0.0,)]], [1.0], "positions"),
])
def test_interaction_field_checks_its_shapes(positions, weights, field):
    with pytest.raises(ValidationError) as info:
        interaction_field(make_kernel("bounded_attraction"), positions,
                          weights)
    assert info.value.field == field


def _pinned_clouds():
    """Seeded normal clouds in 1D, 2D and 3D, the last point on the
    first, each with drawn and with unit weights; the sizes run from one
    point past every crossover of interaction_field."""
    rng = np.random.default_rng(19)
    for dim, sizes in ((1, (1, 2, 24, 60, 130, 160)), (2, (2, 24, 50, 100)),
                       (3, (2, 24, 50, 100))):
        for m in sizes:
            x = rng.normal(0.0, 1.0, (m, dim))
            x[-1] = x[0]
            yield x, rng.random(m)
            yield x, np.ones(m)


def test_interaction_fields_are_pinned():
    # every kernel on every pinned cloud, by float.hex; the digest was
    # taken when each component was one math.fsum over all m points
    values = [c.hex() for kernel in KERNELS
              for x, w in _pinned_clouds()
              for c in interaction_field(kernel, x, w).ravel().tolist()]
    assert len(values) == 4 * 2 * (377 + 2 * 176 + 3 * 176)
    assert hashlib.sha256(" ".join(values).encode()).hexdigest() == (
        "117356a7c984670b6a5b3e76de733df14d5089e6ec0bc243aa68b32f2b45e570")


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_interaction_field_permutes_with_its_inputs(kernel):
    rng = np.random.default_rng(11)
    positions = rng.normal(0.0, 1.0, (9, 2))
    weights = rng.random(9)
    perm = rng.permutation(9)
    plain = interaction_field(kernel, positions, weights)
    relabeled = interaction_field(kernel, positions[perm], weights[perm])
    assert plain[perm].tobytes() == relabeled.tobytes()


class _CountingMath:
    """The math module as a module sees it, counting fsum, hypot and exp
    calls."""

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        fn = getattr(math, name)
        if name not in ("fsum", "hypot", "exp"):
            return fn

        def counted(*args):
            self.calls[name] += 1
            return fn(*args)
        return counted


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_1d_interaction_field_makes_no_per_pair_math_call(kernel,
                                                          monkeypatch):
    counting = _CountingMath()
    for module in ("mdelab.kernels", "mdelab.measure"):
        monkeypatch.setattr(importlib.import_module(module), "math", counting)
    m = 50
    positions = np.linspace(-1.5, 1.5, m)[:, None]
    interaction_field(kernel, positions, np.full(m, 1.0 / m))
    # the m * d row sums are fsum calls; no pair may make one
    assert counting.calls["fsum"] <= m * 1
    assert counting.calls["hypot"] == 0


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_2d_interaction_field_calls_math_once_per_unordered_pair(kernel,
                                                                 monkeypatch):
    counting = _CountingMath()
    for module in ("mdelab.kernels", "mdelab.measure"):
        monkeypatch.setattr(importlib.import_module(module), "math", counting)
    m = 40
    positions = np.random.default_rng(40).uniform(-1.0, 1.0, (m, 2))
    interaction_field(kernel, positions, np.full(m, 1.0 / m))
    # the row sums take the tree, which sends back to fsum only a row
    # whose sum is at a tie between two floats (one of these 80), never
    # a pair; the bump's |z| and exp run once per pair i <= j
    assert counting.calls["fsum"] <= 1
    per_pair = m * (m + 1) // 2 if kernel.name == "bump_alignment" else 0
    assert counting.calls["hypot"] == per_pair
    assert counting.calls["exp"] <= per_pair


def test_seeded_interaction_solve_sends_few_rows_back_to_fsum(monkeypatch):
    # an interaction solve as the lattice_evolution benchmark runs one:
    # 100 atoms uniform on [-1, 1], masses from U[0.2, 1], a bump kernel
    # with range from U[0.8, 1.2], N = 20. The tree decides every row but
    # the sums within a bump-tail term (1.7e-101) of a tie between two
    # floats: 2 of the 1,900 rows, which fsum decides
    rng = random.Random(7)
    reach = rng.uniform(0.8, 1.2)
    xs = [rng.uniform(-1.0, 1.0) for _ in range(100)]
    ws = [rng.uniform(0.2, 1.0) for _ in range(100)]
    mu = make_measure([((x,), w / math.fsum(ws)) for x, w in zip(xs, ws)])
    counting = _CountingMath()
    monkeypatch.setattr(measure, "math", counting)
    seen = Counter()

    def counted(a):
        before = counting.calls["fsum"]
        sums = measure.exact_row_sums(a)
        seen["rows"] += sums.size
        seen["fsum"] += counting.calls["fsum"] - before
        return sums

    monkeypatch.setattr(kernels, "exact_row_sums", counted)
    las_solve(mu, interaction_pvf(make_kernel("bump_alignment", range=reach)),
              20, 1.0)
    assert seen["rows"] >= 20 * 90
    assert seen["fsum"] <= seen["rows"] // 500
