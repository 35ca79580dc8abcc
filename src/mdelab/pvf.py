"""Probability vector fields: measure in, lifted measure out.

Every kind keeps the defining marginal property by construction (output
atoms sit at input positions, per-position masses add up to the input
mass) and carries a sublinearity constant C with

    max |v| over output atoms <= C * (1 + max |x| over input atoms),

validated on every evaluation. The lattice solver uses the same C to
size its box a priori, so a misdeclared constant fails loudly instead of
silently clipping support.

The interaction kind lifts atom i to kernels.interaction_field with the
masses as weights, the exact sums the particle integrator also calls.

Velocity fields are named built-ins (sgn_sqrt, sinusoidal, polynomial
coefficients; an affine field is a degree-1 polynomial), never injected
code, so run configurations stay reproducible. The one-sided drift
v = -sgn(x)sqrt|x| is the ODE lift of sgn_sqrt. Fiber distributions
produced at a single atom are rescaled to the atom's mass: conditional
distributions are probability measures, and the tensor-style output
then has the input as its base marginal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SublinearityError, ValidationError
from .kernels import (KernelSpec, interaction_field, kernel_from_dict,
                      kernel_to_dict)
from .measure import (MASS_SUM_TOL, DiscreteMeasure, LiftedMeasure, _build,
                      _check_masses, _check_schema, _merge, _number, as_rows,
                      neumaier_prefix, radius)

PVF_KINDS = ("ode_lift", "constant", "median_split", "phi_diffusion",
             "interaction")

MEDIAN_TIE_TOL = 1e-12   # cumulative masses this close to 1/2 count as 1/2
DEFAULT_SUB_ATOMS = 16   # phi_diffusion fallback outside a lattice run
_H1_SLACK = 1e-12


# ---------------------------------------------------------------------------
# velocity fields

def _horner(coeffs: tuple[float, ...], x):
    """sum_i coeffs[i] x^i by Horner's rule, for a float or an array."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class VelocityField:
    """Named map x -> v(x), applied componentwise except where noted."""

    name: str  # sgn_sqrt | sinusoidal | poly
    amplitude: float = 1.0
    frequency: float = 1.0
    phase: float = 0.0
    coeffs: tuple[tuple[float, ...], ...] = ((0.0,),)

    def __call__(self, x: tuple[float, ...]) -> tuple[float, ...]:
        return tuple(self.rows(np.array([x], dtype=float))[0].tolist())

    def rows(self, x: np.ndarray) -> np.ndarray:
        """The field on every row of an (m, n) float array. sin goes
        through math, whose last bits numpy's does not always match."""
        n = x.shape[1]
        if self.name == "sgn_sqrt":
            return 0.0 - np.copysign(np.sqrt(np.abs(x)), x)
        if self.name == "sinusoidal":
            arg = self.frequency * x + self.phase
            sines = np.array(list(map(math.sin, arg.ravel().tolist())))
            return self.amplitude * sines.reshape(x.shape)
        if self.name == "poly":
            cs = self.coeffs if len(self.coeffs) == n else self.coeffs * n
            if len(cs) != n:
                raise ValidationError(
                    f"poly field has {len(self.coeffs)} component "
                    f"polynomials, position has {n} components",
                    field="coeffs")
            out = np.empty_like(x)
            for j, comp in enumerate(cs):
                out[:, j] = _horner(comp, x[:, j])
            return out
        raise ValidationError(f"unknown field {self.name!r}", field="name")

    def default_c(self, dim: int) -> float | None:
        """Sublinearity constant when derivable; None for e.g. high-degree
        polynomials, where the caller must declare one."""
        if self.name == "sgn_sqrt":
            # sum_c sqrt|x_c| <= sqrt(n)|x|, so |v| <= n^(1/4) sqrt|x|
            return 0.5 * dim ** 0.25
        if self.name == "sinusoidal":
            return abs(self.amplitude) * math.sqrt(dim)
        if self.name == "poly":
            degree = max((len(c) - 1 for c in self.coeffs), default=0)
            if degree >= 2 and any(any(cc != 0.0 for cc in c[2:])
                                   for c in self.coeffs):
                return None
            slope = max((abs(c[1]) if len(c) > 1 else 0.0)
                        for c in self.coeffs)
            offsets = [c[0] if c else 0.0 for c in self.coeffs]
            if len(offsets) == 1:
                offsets = offsets * dim
            return max(slope, math.hypot(*offsets))
        raise ValidationError(f"unknown field {self.name!r}", field="name")


def _numbers(values, field: str) -> tuple[float, ...]:
    """A number or a list of numbers as a tuple of floats (_number)."""
    if isinstance(values, (list, tuple, np.ndarray)):
        return tuple(_number(v, field) for v in values)
    return (_number(values, field),)


def linear_field(a: float, b=0.0) -> VelocityField:
    """v(x) = a x + b as the poly field with components (b_j, a); an
    offset of length 1 broadcasts over the position's components."""
    a = _number(a, "a")
    return VelocityField(name="poly",
                         coeffs=tuple((bc, a) for bc in _numbers(b, "b")))


def sgn_sqrt_field() -> VelocityField:
    return VelocityField(name="sgn_sqrt")


def sinusoidal_field(amplitude: float, frequency: float,
                     phase: float = 0.0) -> VelocityField:
    return VelocityField(name="sinusoidal",
                         amplitude=_number(amplitude, "amplitude"),
                         frequency=_number(frequency, "frequency"),
                         phase=_number(phase, "phase"))


def poly_field(coeffs) -> VelocityField:
    if not isinstance(coeffs, (list, tuple)) or (
            coeffs and not isinstance(coeffs[0], (list, tuple))):
        coeffs = [coeffs]
    return VelocityField(name="poly", coeffs=tuple(_numbers(comp, "coeffs")
                                                   for comp in coeffs))


def add_fields(f1: VelocityField, f2: VelocityField) -> VelocityField:
    """Pointwise sum, available for polynomial-representable fields."""
    p1, p2 = _poly_coeffs(f1), _poly_coeffs(f2)
    n = max(len(p1), len(p2))
    c1 = p1 if len(p1) == n else p1 * n
    c2 = p2 if len(p2) == n else p2 * n
    summed = []
    for a, b in zip(c1, c2):
        width = max(len(a), len(b))
        a = a + (0.0,) * (width - len(a))
        b = b + (0.0,) * (width - len(b))
        summed.append(tuple(x + y for x, y in zip(a, b)))
    return VelocityField(name="poly", coeffs=tuple(summed))


def scale_field(lam: float, f: VelocityField) -> VelocityField:
    return VelocityField(
        name="poly",
        coeffs=tuple(tuple(lam * c for c in comp)
                     for comp in _poly_coeffs(f)))


def _poly_coeffs(f: VelocityField) -> tuple[tuple[float, ...], ...]:
    if f.name != "poly":
        raise ValidationError(
            f"field {f.name} has no polynomial form", field="name")
    return f.coeffs


def field_from_dict(doc: dict) -> VelocityField:
    if not isinstance(doc, dict):
        raise ValidationError("field document must be a JSON object",
                              field="field")
    _check_schema(doc, "field")
    name = doc.get("name")
    if name == "linear":
        return linear_field(doc.get("a", 0.0), doc.get("b", 0.0))
    if name == "sgn_sqrt":
        return sgn_sqrt_field()
    if name == "sinusoidal":
        return sinusoidal_field(doc.get("amplitude", 1.0),
                                doc.get("frequency", 1.0),
                                doc.get("phase", 0.0))
    if name == "poly":
        if "coeffs" not in doc:
            raise ValidationError("poly field needs coeffs", field="coeffs")
        return poly_field(doc["coeffs"])
    raise ValidationError(f"unknown field name {name!r}", field="name")


def field_to_dict(f: VelocityField) -> dict:
    if f.name == "sgn_sqrt":
        return {"name": "sgn_sqrt"}
    if f.name == "sinusoidal":
        return {"name": "sinusoidal", "amplitude": f.amplitude,
                "frequency": f.frequency, "phase": f.phase}
    return {"name": "poly", "coeffs": [list(c) for c in f.coeffs]}


# ---------------------------------------------------------------------------
# PVF specifications

@dataclass(frozen=True)
class PvfSpec:
    kind: str
    field: VelocityField | None = None  # ode_lift's v, phi_diffusion's phi
    fiber: tuple[tuple[tuple[float, ...], float], ...] | None = None
    sub_atoms: int | None = None
    kernel: KernelSpec | None = None
    declared_c: float | None = None


def ode_lift_pvf(field: VelocityField,
                 sublinear_c: float | None = None) -> PvfSpec:
    return PvfSpec(kind="ode_lift", field=field, declared_c=sublinear_c)


def constant_pvf(fiber, sublinear_c: float | None = None) -> PvfSpec:
    """fiber: iterable of (velocity, probability); probabilities sum to 1."""
    rows = []
    for vel, p in fiber:
        p = _number(p, "fiber")
        if not p > 0:
            raise ValidationError("fiber probabilities must be positive",
                                  field="fiber")
        rows.append((_numbers(vel, "fiber"), p))
    if not rows:
        raise ValidationError("constant PVF needs a nonempty fiber",
                              field="fiber")
    total = math.fsum(p for _, p in rows)
    if abs(total - 1.0) > MASS_SUM_TOL:
        raise ValidationError(
            f"fiber probabilities sum to {total!r}", field="fiber")
    return PvfSpec(kind="constant", fiber=tuple(rows),
                   declared_c=sublinear_c)


def median_split_pvf(sublinear_c: float | None = None) -> PvfSpec:
    # every speed is +-1, so C = 1 is declared unless given, not derived
    return PvfSpec(kind="median_split",
                   declared_c=1.0 if sublinear_c is None else sublinear_c)


def phi_diffusion_pvf(phi: VelocityField, sub_atoms: int | None = None,
                      sublinear_c: float | None = None) -> PvfSpec:
    if sub_atoms is not None and sub_atoms < 1:
        raise ValidationError("sub_atoms must be >= 1", field="sub_atoms")
    return PvfSpec(kind="phi_diffusion", field=phi, sub_atoms=sub_atoms,
                   declared_c=sublinear_c)


def interaction_pvf(kernel: KernelSpec,
                    sublinear_c: float | None = None) -> PvfSpec:
    return PvfSpec(kind="interaction", kernel=kernel,
                   declared_c=sublinear_c)


def one_sided_ode_pvf(sublinear_c: float | None = None) -> PvfSpec:
    """The one-sided drift v = -sgn(x)sqrt|x| as an ODE lift."""
    return ode_lift_pvf(sgn_sqrt_field(), sublinear_c=sublinear_c)


@functools.lru_cache
def sublinear_constant(spec: PvfSpec, dim: int) -> float:
    """The C for box sizing and validation, memoised per (spec, dim)."""
    if spec.declared_c is not None:
        return spec.declared_c
    if spec.kind == "ode_lift":
        c = spec.field.default_c(dim)
        if c is None:
            raise ValidationError(
                "this velocity field needs an explicit sublinearity "
                "constant", field="sublinear_c")
        return c
    if spec.kind == "constant":
        return max(math.hypot(*vel) for vel, _ in spec.fiber)
    if spec.kind == "phi_diffusion":
        # rank-speed phi lives on [0,1]; probe its sup there
        top = np.abs(spec.field.rows(np.arange(2001)[:, None] / 2000.0)).max()
        return 1.02 * float(top) + 1e-12
    if spec.kind == "interaction":
        return spec.kernel.sublinear_default()
    raise ValidationError(f"unknown PVF kind {spec.kind!r}", field="kind")


def _fiber(spec: PvfSpec, dim: int) -> tuple | None:
    """A constant PVF's fiber, checked once per solve: velocity rows in
    lexicographic order, probabilities, distinct rows and max speed."""
    if spec.kind != "constant":
        return None
    rows = as_rows([vel for vel, _ in spec.fiber], dim, "velocity")
    order = np.lexsort(rows.T[::-1])
    rows, probs = rows[order], np.array([p for _, p in spec.fiber])[order]
    new = np.append(True, (rows[1:] != rows[:-1]).any(axis=1))
    return rows, probs, rows[new], radius(rows)


def _raw_atoms(spec: PvfSpec, positions: np.ndarray, masses: np.ndarray,
               n_hint: int | None, fiber: tuple | None = None) -> tuple:
    """The unmerged lifted atoms as (source index, velocity rows, mass)
    arrays, in (index, velocity) order for every kind but phi_diffusion."""
    m, dim = positions.shape
    index = np.arange(m)
    if spec.kind == "ode_lift":
        return index, spec.field.rows(positions), masses
    if spec.kind == "constant":
        rows, probs = (fiber or _fiber(spec, dim))[:2]
        return (np.repeat(index, len(probs)), np.tile(rows, (m, 1)),
                (masses[:, None] * probs).ravel())
    if spec.kind in ("median_split", "phi_diffusion") and dim != 1:
        raise ValidationError(f"{spec.kind} is one-dimensional only",
                              field="dim")
    if spec.kind == "median_split":
        # -1 before the atom where F passes 1/2, +1 after; it splits at 1/2
        prefix = neumaier_prefix(masses)
        split = int(np.argmax(prefix > 0.5 + MEDIAN_TIE_TOL))
        f_before = prefix[split - 1] if split > 0 else 0.0
        if abs(f_before - 0.5) <= MEDIAN_TIE_TOL:
            f_before = 0.5
        index = np.concatenate((index[:split + 1], index[split:]))
        velocities = np.repeat([-1.0, 1.0], [split + 1, m - split])
        masses = np.concatenate((masses[:split], [0.5 - f_before,
                                 prefix[split] - 0.5], masses[split + 1:]))
        keep = masses > 0.0
        return index[keep], velocities[keep, None], masses[keep]
    if spec.kind == "phi_diffusion":
        # k sub-atoms of mass/k per atom, at the midpoints of its ranks
        k = spec.sub_atoms or n_hint or DEFAULT_SUB_ATOMS
        f_lo = np.append(0.0, neumaier_prefix(masses)[:-1])
        ranks = f_lo[:, None] + (np.arange(1, k + 1) - 0.5) * masses[:, None] / k
        return (np.repeat(index, k), spec.field.rows(ranks.reshape(-1, 1)),
                np.repeat(masses / k, k))
    if spec.kind == "interaction":
        return index, interaction_field(spec.kernel, positions, masses), masses
    raise ValidationError(f"unknown PVF kind {spec.kind!r}", field="kind")


def lift(spec: PvfSpec, positions, masses, n_hint: int | None = None, *,
         unit: bool = False
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Apply the PVF to atoms given as (m, n) float positions and m masses:
    the merged lifted atoms as arrays of source index, velocity rows and
    masses in (index, velocity) order, masses renormalised as make_lifted
    does, and whether the lifted masses are known to be positive with a
    math.fsum of exactly 1.0 (measure._check_masses). n_hint feeds
    phi_diffusion's default sub-atom count (the lattice solver passes its
    N). unit states that the caller knows this of masses: a one-to-one
    kind then passes them on unchecked, as the check would return them
    unchanged. Only phi_diffusion and a fiber with a repeated velocity
    merge; the other kinds build their atoms in order. Raises
    SublinearityError when C fails."""
    return _lift(spec, positions, masses, n_hint, unit, radius(positions),
                 _fiber(spec, positions.shape[1]))


def _lift(spec: PvfSpec, positions: np.ndarray, masses, n_hint: int | None,
          unit: bool, max_x: float, fiber: tuple | None) -> tuple:
    """lift, given radius(positions) and _fiber(spec, dim)."""
    index, velocities, sub = _raw_atoms(
        spec, positions, np.asarray(masses, dtype=float), n_hint, fiber)
    if spec.kind not in ("constant", "median_split"):
        velocities = as_rows(velocities, positions.shape[1], "velocity")
    if spec.kind == "phi_diffusion" or (fiber is not None
                                        and len(fiber[2]) < len(fiber[0])):
        keys, sub = _merge(np.column_stack([index, velocities]), sub)
        index, velocities = keys[:, 0].astype(np.int64), keys[:, 1:]
    if not (unit and spec.kind in ("ode_lift", "interaction")):
        sub, unit = _check_masses(sub, renormalize=True)
    c = sublinear_constant(spec, positions.shape[1])
    max_v = radius(velocities) if fiber is None else fiber[3]
    if max_v > c * (1.0 + max_x) * (1.0 + _H1_SLACK) + _H1_SLACK:
        raise SublinearityError(
            f"{spec.kind} PVF: max speed {max_v!r} exceeds "
            f"C(1+max|x|) = {c * (1.0 + max_x)!r} with declared C={c!r}")
    return index, velocities, sub, unit


def evaluate(spec: PvfSpec, mu: DiscreteMeasure,
             n_hint: int | None = None) -> LiftedMeasure:
    """lift with each atom's source position attached. mu's positions
    are sorted and distinct, so this is the canonical LiftedMeasure."""
    index, velocities, masses, _ = lift(spec, mu.positions, mu.masses,
                                        n_hint)
    return _build(mu.positions[index], masses, velocities, check=False,
                  merge=False)


def check_h1(spec: PvfSpec, mu: DiscreteMeasure) -> bool:
    """Evaluate and test the sublinearity bound without raising."""
    try:
        evaluate(spec, mu)
    except SublinearityError:
        return False
    return True


# ---------------------------------------------------------------------------
# JSON round trip: {"kind": ..., "params": {...}}

def _fiber_rows(rows) -> list[tuple[tuple[float, ...], float]]:
    """A document's fiber, rows [velocity..., probability], as (velocity,
    probability) pairs of floats; anything else raises ValidationError."""
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and len(row) > 1 for row in rows)):
        raise ValidationError("fiber rows must be [velocity..., "
                              "probability] lists", field="fiber")
    return [(_numbers(row[:-1], "fiber"), _number(row[-1], "fiber"))
            for row in rows]


def pvf_from_dict(doc: dict) -> PvfSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValidationError("PVF document needs a 'kind'", field="kind")
    _check_schema(doc, "PVF")
    kind = doc["kind"]
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError("PVF params must be a JSON object",
                              field="params")
    c = params.get("sublinear_c")
    c = None if c is None else _number(c, "sublinear_c")
    if kind == "ode_lift":
        if "field" not in params:
            raise ValidationError("ode_lift needs params.field",
                                  field="field")
        return ode_lift_pvf(field_from_dict(params["field"]), sublinear_c=c)
    if kind == "constant":
        if "fiber" not in params:
            raise ValidationError("constant needs params.fiber",
                                  field="fiber")
        return constant_pvf(_fiber_rows(params["fiber"]), sublinear_c=c)
    if kind == "median_split":
        return median_split_pvf(sublinear_c=c)
    if kind == "phi_diffusion":
        if "phi" not in params:
            raise ValidationError("phi_diffusion needs params.phi",
                                  field="phi")
        sub = params.get("sub_atoms")
        return phi_diffusion_pvf(field_from_dict(params["phi"]),
                                 sub_atoms=None if sub is None
                                 else _number(sub, "sub_atoms", True),
                                 sublinear_c=c)
    if kind == "interaction":
        if "kernel" not in params:
            raise ValidationError("interaction needs params.kernel",
                                  field="kernel")
        return interaction_pvf(kernel_from_dict(params["kernel"]),
                               sublinear_c=c)
    if kind == "one_sided_ode":
        return one_sided_ode_pvf(sublinear_c=c)
    raise ValidationError(f"unknown PVF kind {kind!r}", field="kind")


def pvf_to_dict(spec: PvfSpec) -> dict:
    params: dict = {}
    if spec.kind == "ode_lift":
        params["field"] = field_to_dict(spec.field)
    elif spec.kind == "constant":
        params["fiber"] = [list(vel) + [p] for vel, p in spec.fiber]
    elif spec.kind == "phi_diffusion":
        params["phi"] = field_to_dict(spec.field)
        if spec.sub_atoms is not None:
            params["sub_atoms"] = spec.sub_atoms
    elif spec.kind == "interaction":
        params["kernel"] = kernel_to_dict(spec.kernel)
    if spec.declared_c is not None:
        params["sublinear_c"] = spec.declared_c
    return {"schema": 1, "kind": spec.kind, "params": params}
