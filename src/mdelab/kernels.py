"""Interaction kernels phi: R^n -> R^n and interaction_field, the map
x_i -> sum_j w_j phi(x_j - x_i) that both the particle integrator and the
interaction-type probability vector field call. Each of its components
is one exact math.fsum, so relabelling the points permutes it bit for bit.

Each kernel ships declared envelopes: a bound valid for arguments
|z| <= 2R (differences of points in a ball of radius R), a Lipschitz
constant on that range, and a sublinearity constant C such that the
induced velocity field satisfies max |v| <= C(1 + max |x|). Declared
values are checked against probe evaluations by kernel_selfcheck; they
may overestimate but never undercut the true envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

_KERNEL_NAMES = ("zero", "linear", "bounded_attraction", "bump_alignment")


def _bump(u: np.ndarray) -> np.ndarray:
    # smooth cutoff exp(1 - 1/(1-u^2)) on |u| < 1, elementwise
    out = np.zeros_like(u)
    inside = ~(np.abs(u) >= 1.0)
    arg = 1.0 - 1.0 / (1.0 - u[inside] * u[inside])
    out[inside] = list(map(math.exp, arg.tolist()))
    return out


@dataclass(frozen=True)
class KernelSpec:
    name: str
    params: tuple[tuple[str, float], ...] = ()
    # optional override for the interaction PVF's sublinearity constant
    sublinear_c: float | None = field(default=None)

    def _p(self, key: str) -> float:
        for k, v in self.params:
            if k == key:
                return v
        raise ValidationError(f"kernel {self.name} missing param {key!r}",
                              field=key)

    def phi(self, z: tuple[float, ...]) -> tuple[float, ...]:
        return tuple(self.phi_array(np.asarray(z, dtype=float)).tolist())

    def phi_array(self, z: np.ndarray) -> np.ndarray:
        """phi over the last axis of an (..., d) float array; exp and hypot
        go through math, whose last bits numpy's do not always match."""
        if self.name == "zero":
            return np.zeros_like(z)
        if self.name == "linear":
            return -self._p("rate") * z
        rows = z.reshape(math.prod(z.shape[:-1]), z.shape[-1])
        if self.name == "bounded_attraction":
            scale = 1.0 + np.array(
                [math.fsum(r) for r in (rows * rows).tolist()])
            return (-rows / scale[:, None]).reshape(z.shape)
        if self.name == "bump_alignment":
            u = (np.array([math.hypot(*r) for r in rows.tolist()])
                 / self._p("range"))
            return (-rows * _bump(u)[:, None]).reshape(z.shape)
        raise ValidationError(f"unknown kernel {self.name!r}", field="name")

    def bound_on(self, radius: float) -> float:
        """sup |phi(z)| over |z| <= 2*radius."""
        if self.name == "zero":
            return 0.0
        if self.name == "linear":
            return self._p("rate") * 2.0 * radius
        if self.name == "bounded_attraction":
            return 0.5
        if self.name == "bump_alignment":
            r = self._p("range")
            s = min(2.0 * radius, r) * np.arange(401.0) / 400.0
            return float(np.max(s * _bump(s / r)))
        raise ValidationError(f"unknown kernel {self.name!r}", field="name")

    def lipschitz_on(self, radius: float) -> float:
        """Lipschitz constant of phi on |z| <= 2*radius (declared)."""
        if self.name == "zero":
            return 0.0
        if self.name == "linear":
            return self._p("rate")
        if self.name == "bounded_attraction":
            return 1.0
        if self.name == "bump_alignment":
            r = self._p("range")
            # probe |d/ds (s*bump(s/r))| radially; x1.5 headroom covers
            # the off-radial Jacobian directions
            grid = r * np.arange(801.0) / 800.0
            deriv = np.abs(np.diff(grid * _bump(grid / r))) / (r / 800.0)
            return 1.5 * max(float(np.max(deriv)), 1.0)
        raise ValidationError(f"unknown kernel {self.name!r}", field="name")

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
        if self.name == "bump_alignment":
            # phi vanishes beyond |z| = range, so the global bound works
            return self.bound_on(self._p("range"))
        raise ValidationError(f"unknown kernel {self.name!r}", field="name")


def make_kernel(name: str, sublinear_c: float | None = None,
                **params: float) -> KernelSpec:
    if name not in _KERNEL_NAMES:
        raise ValidationError(
            f"unknown kernel {name!r}; expected one of {_KERNEL_NAMES}",
            field="name")
    needed = {"zero": (), "linear": ("rate",),
              "bounded_attraction": (), "bump_alignment": ("range",)}[name]
    for key in needed:
        if key not in params:
            raise ValidationError(f"kernel {name} needs param {key!r}",
                                  field=key)
    extra = set(params) - set(needed)
    if extra:
        raise ValidationError(
            f"kernel {name} got unknown params {sorted(extra)}",
            field=sorted(extra)[0])
    items = tuple(sorted((k, float(v)) for k, v in params.items()))
    return KernelSpec(name=name, params=items, sublinear_c=sublinear_c)


def kernel_from_dict(doc: dict) -> KernelSpec:
    if not isinstance(doc, dict) or "name" not in doc:
        raise ValidationError("kernel document needs a 'name'", field="name")
    params = {k: v for k, v in doc.items()
              if k not in ("name", "schema", "sublinear_c")}
    c = doc.get("sublinear_c")
    return make_kernel(doc["name"], sublinear_c=None if c is None else float(c),
                       **params)


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


def interaction_field(kernel: KernelSpec, positions, weights) -> np.ndarray:
    """Row i is sum_j w_j phi(x_j - x_i) for the (m, d) positions and m
    weights, each component summed exactly by math.fsum."""
    x = np.asarray(positions, dtype=float)
    w = np.asarray(weights, dtype=float)
    terms = w[:, None] * kernel.phi_array(x[None, :, :] - x[:, None, :])
    columns = terms.transpose(0, 2, 1).reshape(-1, len(x))
    sums = map(math.fsum, columns.tolist())
    return np.fromiter(sums, float, count=x.size).reshape(x.shape)
