"""Interaction kernel catalog: values, declared envelopes, selfcheck."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdelab import (
    ValidationError,
    interaction_field,
    kernel_from_dict,
    kernel_selfcheck,
    kernel_to_dict,
    make_kernel,
)


def test_zero_kernel():
    k = make_kernel("zero")
    assert k.phi((3.0, -4.0)) == (0.0, 0.0)
    assert k.bound_on(10.0) == 0.0
    assert k.lipschitz_on(10.0) == 0.0
    assert k.sublinear_default() == 0.0


def test_linear_kernel():
    k = make_kernel("linear", rate=0.5)
    assert k.phi((2.0,)) == (-1.0,)
    assert k.phi((0.0, -4.0)) == (0.0, 2.0)
    assert k.bound_on(3.0) == pytest.approx(3.0)   # 0.5 * 2 * 3
    assert k.lipschitz_on(3.0) == pytest.approx(0.5)
    assert k.sublinear_default() == pytest.approx(1.0)


def test_bounded_attraction_kernel():
    k = make_kernel("bounded_attraction")
    assert k.phi((1.0,)) == (-0.5,)
    assert k.phi((0.0,)) == (0.0,)
    # |z|/(1+|z|^2) peaks at 1/2 when |z| = 1
    assert k.bound_on(50.0) == pytest.approx(0.5)
    assert k.sublinear_default() == pytest.approx(0.5)
    assert math.hypot(*k.phi((100.0, 0.0))) < 0.011


def test_bump_alignment_kernel():
    k = make_kernel("bump_alignment", range=1.0)
    assert k.phi((1.0,)) == (0.0,)
    assert k.phi((2.5, 0.0)) == (0.0, 0.0)
    expected = -0.5 * math.exp(1.0 - 1.0 / (1.0 - 0.25))
    assert k.phi((0.5,))[0] == pytest.approx(expected, rel=1e-12)


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
    dv = math.dist(k.phi(za), k.phi(zb))
    assert dv <= lip * dz * (1.0 + 1e-9) + 1e-12


def _pairwise_field(kernel, positions, weights):
    # reference: one phi call per pair, each component summed by fsum
    out = []
    for xi in positions:
        terms = [[w * c for c in kernel.phi(tuple(a - b for a, b
                                                   in zip(xj, xi)))]
                 for xj, w in zip(positions, weights)]
        out.append([math.fsum(t[c] for t in terms)
                    for c in range(len(xi))])
    return out


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
        assert ([[c.hex() for c in row] for row in got.tolist()]
                == [[c.hex() for c in row] for row in
                    _pairwise_field(kernel, positions, weights)])


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_interaction_field_permutes_with_its_inputs(kernel):
    rng = np.random.default_rng(11)
    positions = rng.normal(0.0, 1.0, (9, 2))
    weights = rng.random(9)
    perm = rng.permutation(9)
    plain = interaction_field(kernel, positions, weights)
    relabeled = interaction_field(kernel, positions[perm], weights[perm])
    assert plain[perm].tobytes() == relabeled.tobytes()
