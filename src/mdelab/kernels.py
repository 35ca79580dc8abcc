"""Interaction kernels phi: R^n -> R^n and interaction_field, the map
x_i -> sum_j w_j phi(x_j - x_i) that both the particle integrator and the
interaction-type probability vector field call. Each of its components
is the math.fsum of its m terms, and |z|^2 the fsum of its squares, as
measure.py sums them, so relabelling the points permutes the field bit
for bit. Every kernel is odd, and x_i - x_j is exactly -(x_j - x_i), so
phi of one is the exact negation of phi of the other, save the sign of
a zero, which no sum sees: the bump kernel evaluates phi once per
unordered pair and mirrors it.

Each kernel ships declared envelopes: a bound valid for arguments
|z| <= 2R (differences of points in a ball of radius R), a Lipschitz
constant on that range, and a sublinearity constant C such that the
induced velocity field satisfies max |v| <= C(1 + max |x|). Declared
values are checked against probe evaluations by kernel_selfcheck; they
may overestimate but never undercut the true envelope.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .measure import (_check_schema, _number, _readonly, exact_row_sums,
                      norms, squared_norms)

_KERNEL_PARAMS = {"zero": (), "linear": ("rate",),
                  "bounded_attraction": (), "bump_alignment": ("range",)}


def _bump(s: np.ndarray) -> np.ndarray:
    """The smooth cutoff exp(1 - 1/(1-s)) of s = u^2 on s < 1, 0 on
    s >= 1, elementwise in math.exp; NaN stays NaN. Bumps share it."""
    out = np.zeros_like(s)
    inside = ~(s >= 1.0)
    arg = 1.0 - 1.0 / (1.0 - s[inside])
    out[inside] = np.fromiter(map(math.exp, arg.tolist()), float, len(arg))
    return out


@dataclass(frozen=True)
class KernelSpec:
    name: str
    params: tuple[tuple[str, float], ...] = ()
    # optional override for the interaction PVF's sublinearity constant
    sublinear_c: float | None = field(default=None)

    def __post_init__(self):
        if self.name not in _KERNEL_PARAMS:
            raise ValidationError(
                f"unknown kernel {self.name!r}; expected one of "
                f"{tuple(_KERNEL_PARAMS)}", field="name")

    def _p(self, key: str) -> float:
        for k, v in self.params:
            if k == key:
                return v
        raise ValidationError(f"kernel {self.name} missing param {key!r}",
                              field=key)

    def phi(self, z: tuple[float, ...]) -> tuple[float, ...]:
        # phi_array of one z as a tuple: bench/tracing.py hooks it by name
        return tuple(self.phi_array(np.asarray(z, dtype=float)).tolist())

    def phi_array(self, z: np.ndarray) -> np.ndarray:
        """phi over the last axis of an (..., d) float array, each pair
        rounded as its per-pair formula in math is: |z|^2 is
        measure.squared_norms, |z| is measure.norms (math.hypot, abs for
        d = 1, as hypot is) and the bump is math's exp."""
        if self.name == "zero":
            return np.zeros_like(z)
        if self.name == "linear":
            return -self._p("rate") * z
        rows = z.reshape(math.prod(z.shape[:-1]), z.shape[-1])
        if self.name == "bounded_attraction":
            sums = squared_norms(rows)
            return (-rows / (1.0 + sums)[:, None]).reshape(z.shape)
        u = norms(rows) / self._p("range")
        s = np.square(np.minimum(u, 2.0))  # u >= 1 is outside: no overflow
        return (-rows * _bump(s)[:, None]).reshape(z.shape)

    def bound_on(self, radius: float) -> float:
        """sup |phi(z)| over |z| <= 2*radius."""
        if self.name == "zero":
            return 0.0
        if self.name == "linear":
            return self._p("rate") * 2.0 * radius
        if self.name == "bounded_attraction":
            return 0.5
        r = self._p("range")  # bump_alignment
        s = min(2.0 * radius, r) * np.arange(401.0) / 400.0
        return float(np.max(s * _bump(np.square(s / r))))

    def lipschitz_on(self, radius: float) -> float:
        """Lipschitz constant of phi on |z| <= 2*radius (declared)."""
        if self.name == "zero":
            return 0.0
        if self.name == "linear":
            return self._p("rate")
        if self.name == "bounded_attraction":
            return 1.0
        r = self._p("range")  # bump_alignment
        # probe |d/ds (s*bump(s/r))| radially; x1.5 headroom covers
        # the off-radial Jacobian directions
        grid = r * np.arange(801.0) / 800.0
        profile = grid * _bump(np.square(grid / r))
        deriv = np.abs(np.diff(profile)) / (r / 800.0)
        return 1.5 * max(float(np.max(deriv)), 1.0)

    def sublinear_default(self) -> float:
        """C with |sum_j m_j phi(x_j - x_i)| <= C(1 + max|x|) for any
        probability-weighted point set."""
        if self.sublinear_c is not None:
            return self.sublinear_c
        if self.name == "zero":
            return 0.0
        if self.name == "linear":
            return 2.0 * self._p("rate")
        if self.name == "bounded_attraction":
            return 0.5
        # bump_alignment: phi vanishes past |z| = range; the global bound
        return self.bound_on(self._p("range"))


def make_kernel(name: str, sublinear_c: float | None = None,
                **params: float) -> KernelSpec:
    if name not in _KERNEL_PARAMS:
        raise ValidationError(
            f"unknown kernel {name!r}; expected one of "
            f"{tuple(_KERNEL_PARAMS)}", field="name")
    needed = _KERNEL_PARAMS[name]
    for key in needed:
        if key not in params:
            raise ValidationError(f"kernel {name} needs param {key!r}",
                                  field=key)
    extra = set(params) - set(needed)
    if extra:
        raise ValidationError(
            f"kernel {name} got unknown params {sorted(extra)}",
            field=sorted(extra)[0])
    items = tuple(sorted((k, _number(v, k)) for k, v in params.items()))
    return KernelSpec(name=name, params=items, sublinear_c=sublinear_c)


def kernel_from_dict(doc: dict) -> KernelSpec:
    if not isinstance(doc, dict) or "name" not in doc:
        raise ValidationError("kernel document needs a 'name'", field="name")
    _check_schema(doc, "kernel")
    params = {k: v for k, v in doc.items()
              if k not in ("name", "schema", "sublinear_c")}
    c = doc.get("sublinear_c")
    c = None if c is None else _number(c, "sublinear_c")
    return make_kernel(doc["name"], sublinear_c=c, **params)


def kernel_to_dict(kernel: KernelSpec) -> dict:
    doc: dict = {"schema": 1, "name": kernel.name}
    doc.update({k: v for k, v in kernel.params})
    if kernel.sublinear_c is not None:
        doc["sublinear_c"] = kernel.sublinear_c
    return doc


def kernel_selfcheck(kernel: KernelSpec, radius: float,
                     probes: list[tuple[float, ...]]) -> None:
    """Verify declared envelopes against probe points with |z| <= 2*radius.

    Raises ValidationError when a probe value exceeds the declared bound
    or a probe pair exceeds the declared Lipschitz constant.
    """
    bound = kernel.bound_on(radius) * (1.0 + 1e-9) + 1e-12
    lip = kernel.lipschitz_on(radius) * (1.0 + 1e-9) + 1e-12
    if not probes:
        return
    values = kernel.phi_array(np.array(probes, dtype=float)).tolist()
    for z, val in zip(probes, values):
        if math.hypot(*val) > bound:
            raise ValidationError(
                f"kernel {kernel.name}: |phi({z})| = {math.hypot(*val)!r} "
                f"exceeds declared bound {bound!r}")
    for a in range(len(probes)):
        for b in range(a + 1, len(probes)):
            dz = math.dist(probes[a], probes[b])
            if dz == 0.0:
                continue
            dv = math.dist(values[a], values[b])
            if dv > lip * dz:
                raise ValidationError(
                    f"kernel {kernel.name}: Lipschitz quotient {dv / dz!r} "
                    f"exceeds declared {lip!r}")


@functools.lru_cache(maxsize=4)
def _pairs(m: int) -> tuple[np.ndarray, ...]:
    """The pairs i <= j of m points, as read-only index arrays: i, j and
    the flat positions i m + j and j m + i in an (m, m) array. Cached:
    building them costs about 50 of the 400 us of an m = 91 field, and a
    lattice solve keeps its m from step to step while no atoms merge."""
    lo, hi = np.triu_indices(m)
    return tuple(map(_readonly, (lo, hi, lo * m + hi, hi * m + lo)))


def interaction_field(kernel: KernelSpec, positions, weights) -> np.ndarray:
    """Row i is sum_j w_j phi(x_j - x_i) for the (m, d) positions and m
    weights, each component the math.fsum of its m terms
    (measure.exact_row_sums). A shape other than (m, d) positions and m
    weights raises ValidationError."""
    x = np.asarray(positions, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.ndim != 2 or not x.shape[1]:
        raise ValidationError(f"positions need shape (m, d), got {x.shape}",
                              field="positions")
    if w.shape != x.shape[:1]:
        raise ValidationError(f"{len(x)} positions need {len(x)} weights, "
                              f"got shape {w.shape}", field="weights")
    # terms[j, i] = w_j phi(x_j - x_i): the sum over j runs along the
    # first axis, which exact_row_sums reads without a transpose copy
    m, d = x.shape
    if kernel.name != "bump_alignment":
        terms = w[:, None, None] * kernel.phi_array(x[:, None] - x)
    else:
        # the one kernel whose phi calls math per pair (exp, and hypot
        # for d >= 2) runs once per pair i <= j; for the others the
        # mirror's scatter costs more than the half of phi it saves
        lo, hi, upper, lower = _pairs(m)
        phi = kernel.phi_array(np.take(x, hi, 0) - np.take(x, lo, 0))
        terms = np.empty((m, m, d))
        flat = terms.reshape(m * m, d)
        flat[upper] = -(np.take(w, lo)[:, None] * phi)
        flat[lower] = np.take(w, hi)[:, None] * phi
    return exact_row_sums(terms.transpose(1, 2, 0))
