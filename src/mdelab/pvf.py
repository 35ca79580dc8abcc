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

Velocity fields are named built-ins (linear, sgn_sqrt, sinusoidal,
polynomial coefficients), never injected code, so run configurations
stay reproducible. Fiber distributions produced at a single atom are
rescaled to the atom's mass: conditional distributions are probability
measures, and the tensor-style output then has the input as its base
marginal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import SublinearityError, ValidationError
from .kernels import (KernelSpec, interaction_field, kernel_from_dict,
                      kernel_to_dict)
from .measure import (DiscreteMeasure, LiftedMeasure, Velocity, _check_masses,
                      _merge, as_vector, neumaier_prefix)

PVF_KINDS = ("ode_lift", "constant", "median_split", "phi_diffusion",
             "interaction", "one_sided_ode")

MEDIAN_TIE_TOL = 1e-12   # cumulative masses this close to 1/2 count as 1/2
DEFAULT_SUB_ATOMS = 16   # phi_diffusion fallback outside a lattice run
_H1_SLACK = 1e-12


# ---------------------------------------------------------------------------
# velocity fields

def _horner(coeffs: tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class VelocityField:
    """Named map x -> v(x), applied componentwise except where noted."""

    name: str  # linear | sgn_sqrt | sinusoidal | poly
    a: float = 0.0                 # linear slope
    b: tuple[float, ...] = (0.0,)  # linear offset (broadcast if length 1)
    amplitude: float = 1.0
    frequency: float = 1.0
    phase: float = 0.0
    coeffs: tuple[tuple[float, ...], ...] = ((0.0,),)

    def __call__(self, x: tuple[float, ...]) -> tuple[float, ...]:
        n = len(x)
        if self.name == "linear":
            b = self.b if len(self.b) == n else self.b * n
            if len(b) != n:
                raise ValidationError(
                    f"linear field offset has length {len(self.b)}, "
                    f"position has {n}", field="b")
            return tuple(self.a * c + bc for c, bc in zip(x, b))
        if self.name == "sgn_sqrt":
            return tuple(-math.copysign(math.sqrt(abs(c)), c) if c != 0.0
                         else 0.0 for c in x)
        if self.name == "sinusoidal":
            return tuple(self.amplitude *
                         math.sin(self.frequency * c + self.phase) for c in x)
        if self.name == "poly":
            cs = self.coeffs if len(self.coeffs) == n else self.coeffs * n
            if len(cs) != n:
                raise ValidationError(
                    f"poly field has {len(self.coeffs)} component "
                    f"polynomials, position has {n} components",
                    field="coeffs")
            return tuple(_horner(comp, xc) for xc, comp in zip(x, cs))
        raise ValidationError(f"unknown field {self.name!r}", field="name")

    def default_c(self, dim: int) -> float | None:
        """Sublinearity constant when derivable; None for e.g. high-degree
        polynomials, where the caller must declare one."""
        if self.name == "linear":
            b = self.b if len(self.b) == dim else self.b * dim
            return max(abs(self.a), math.hypot(*b))
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


def linear_field(a: float, b=0.0) -> VelocityField:
    bt = (float(b),) if isinstance(b, (int, float)) else tuple(
        float(c) for c in b)
    return VelocityField(name="linear", a=float(a), b=bt)


def sgn_sqrt_field() -> VelocityField:
    return VelocityField(name="sgn_sqrt")


def sinusoidal_field(amplitude: float, frequency: float,
                     phase: float = 0.0) -> VelocityField:
    return VelocityField(name="sinusoidal", amplitude=float(amplitude),
                         frequency=float(frequency), phase=float(phase))


def poly_field(coeffs) -> VelocityField:
    if coeffs and isinstance(coeffs[0], (int, float)):
        coeffs = [coeffs]
    return VelocityField(
        name="poly",
        coeffs=tuple(tuple(float(c) for c in comp) for comp in coeffs))


def add_fields(f1: VelocityField, f2: VelocityField) -> VelocityField:
    """Pointwise sum, available for polynomial-representable fields."""
    p1, p2 = (_as_poly(f1), _as_poly(f2))
    n = max(len(p1.coeffs), len(p2.coeffs))
    c1 = p1.coeffs if len(p1.coeffs) == n else p1.coeffs * n
    c2 = p2.coeffs if len(p2.coeffs) == n else p2.coeffs * n
    summed = []
    for a, b in zip(c1, c2):
        width = max(len(a), len(b))
        a = a + (0.0,) * (width - len(a))
        b = b + (0.0,) * (width - len(b))
        summed.append(tuple(x + y for x, y in zip(a, b)))
    return VelocityField(name="poly", coeffs=tuple(summed))


def scale_field(lam: float, f: VelocityField) -> VelocityField:
    p = _as_poly(f)
    return VelocityField(
        name="poly",
        coeffs=tuple(tuple(lam * c for c in comp) for comp in p.coeffs))


def _as_poly(f: VelocityField) -> VelocityField:
    if f.name == "poly":
        return f
    if f.name == "linear":
        return VelocityField(name="poly",
                             coeffs=tuple((bc, f.a) for bc in f.b))
    raise ValidationError(
        f"field {f.name} has no polynomial form", field="name")


def field_from_dict(doc: dict) -> VelocityField:
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
    if f.name == "linear":
        return {"name": "linear", "a": f.a, "b": list(f.b)}
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
    field: VelocityField | None = None
    fiber: tuple[tuple[tuple[float, ...], float], ...] | None = None
    phi: VelocityField | None = None
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
        vt = (float(vel),) if isinstance(vel, (int, float)) else tuple(
            float(c) for c in vel)
        if not p > 0:
            raise ValidationError("fiber probabilities must be positive",
                                  field="fiber")
        rows.append((vt, float(p)))
    if not rows:
        raise ValidationError("constant PVF needs a nonempty fiber",
                              field="fiber")
    total = math.fsum(p for _, p in rows)
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(
            f"fiber probabilities sum to {total!r}", field="fiber")
    return PvfSpec(kind="constant", fiber=tuple(rows),
                   declared_c=sublinear_c)


def median_split_pvf() -> PvfSpec:
    return PvfSpec(kind="median_split", declared_c=1.0)


def phi_diffusion_pvf(phi: VelocityField, sub_atoms: int | None = None,
                      sublinear_c: float | None = None) -> PvfSpec:
    if sub_atoms is not None and sub_atoms < 1:
        raise ValidationError("sub_atoms must be >= 1", field="sub_atoms")
    return PvfSpec(kind="phi_diffusion", phi=phi, sub_atoms=sub_atoms,
                   declared_c=sublinear_c)


def interaction_pvf(kernel: KernelSpec,
                    sublinear_c: float | None = None) -> PvfSpec:
    return PvfSpec(kind="interaction", kernel=kernel,
                   declared_c=sublinear_c)


def one_sided_ode_pvf() -> PvfSpec:
    return PvfSpec(kind="one_sided_ode", field=sgn_sqrt_field())


@functools.lru_cache
def sublinear_constant(spec: PvfSpec, dim: int) -> float:
    """The C for box sizing and validation, memoised per (spec, dim)."""
    if spec.declared_c is not None:
        return spec.declared_c
    if spec.kind in ("ode_lift", "one_sided_ode"):
        c = spec.field.default_c(dim)
        if c is None:
            raise ValidationError(
                "this velocity field needs an explicit sublinearity "
                "constant", field="sublinear_c")
        return c
    if spec.kind == "constant":
        return max(math.hypot(*vel) for vel, _ in spec.fiber)
    if spec.kind == "median_split":
        return 1.0
    if spec.kind == "phi_diffusion":
        # rank-speed phi lives on [0,1]; probe its sup there
        top = max(abs(spec.phi((k / 2000.0,))[0]) for k in range(2001))
        return 1.02 * top + 1e-12
    if spec.kind == "interaction":
        return spec.kernel.sublinear_default()
    raise ValidationError(f"unknown PVF kind {spec.kind!r}", field="kind")


def _median_split_atoms(mu: DiscreteMeasure) -> list[tuple]:
    prefix = neumaier_prefix(mu.masses)
    split = next(i for i, f in enumerate(prefix)
                 if f > 0.5 + MEDIAN_TIE_TOL)
    f_before = prefix[split - 1] if split > 0 else 0.0
    if abs(f_before - 0.5) <= MEDIAN_TIE_TOL:
        f_before = 0.5
    out = []
    for i, mass in enumerate(mu.masses):
        if i < split:
            out.append((i, (-1.0,), mass))
        elif i > split:
            out.append((i, (1.0,), mass))
        else:
            up = prefix[split] - 0.5
            down = 0.5 - f_before
            if down > 0.0:
                out.append((i, (-1.0,), down))
            if up > 0.0:
                out.append((i, (1.0,), up))
    return out


def _phi_diffusion_atoms(mu: DiscreteMeasure, phi: VelocityField,
                         k: int) -> list[tuple]:
    prefix = neumaier_prefix(mu.masses)
    out = []
    f_lo = 0.0
    for i, (mass, f_hi) in enumerate(zip(mu.masses, prefix)):
        for r in range(1, k + 1):
            rank = f_lo + (r - 0.5) * mass / k
            out.append((i, phi((rank,)), mass / k))
        f_lo = f_hi
    return out


def _raw_atoms(spec: PvfSpec, mu: DiscreteMeasure,
               n_hint: int | None) -> list[tuple]:
    if spec.kind in ("ode_lift", "one_sided_ode"):
        return [(i, spec.field(pos), mass)
                for i, (pos, mass) in enumerate(mu.atoms())]
    if spec.kind == "constant":
        return [(i, vel, mass * p) for i, mass in enumerate(mu.masses)
                for vel, p in spec.fiber]
    if spec.kind in ("median_split", "phi_diffusion") and mu.dim != 1:
        raise ValidationError(f"{spec.kind} is one-dimensional only",
                              field="dim")
    if spec.kind == "median_split":
        return _median_split_atoms(mu)
    if spec.kind == "phi_diffusion":
        k = spec.sub_atoms or n_hint or DEFAULT_SUB_ATOMS
        return _phi_diffusion_atoms(mu, spec.phi, k)
    if spec.kind == "interaction":
        field = interaction_field(spec.kernel, mu.positions, mu.masses)
        return [(i, vel, mass) for i, (vel, mass)
                in enumerate(zip(field.tolist(), mu.masses))]
    raise ValidationError(f"unknown PVF kind {spec.kind!r}", field="kind")


def lift(spec: PvfSpec, mu: DiscreteMeasure, n_hint: int | None = None
         ) -> list[tuple[int, Velocity, float]]:
    """Apply the PVF: merged (source atom index, velocity, mass) triples
    in (index, velocity) order, masses renormalised as make_lifted does.
    n_hint feeds phi_diffusion's default sub-atom count (the lattice
    solver passes its N). Raises SublinearityError when C fails here."""
    keys, masses = _merge(((i, as_vector(vel, mu.dim, what="velocity")),
                           float(mass))
                          for i, vel, mass in _raw_atoms(spec, mu, n_hint))
    masses = _check_masses(masses, renormalize=True)
    c = sublinear_constant(spec, mu.dim)
    max_x = max(math.hypot(*p) for p in mu.positions)
    max_v = max(math.hypot(*v) for _, v in keys)
    if max_v > c * (1.0 + max_x) * (1.0 + _H1_SLACK) + _H1_SLACK:
        raise SublinearityError(
            f"{spec.kind} PVF: max speed {max_v!r} exceeds "
            f"C(1+max|x|) = {c * (1.0 + max_x)!r} with declared C={c!r}")
    return [(i, v, m) for (i, v), m in zip(keys, masses)]


def evaluate(spec: PvfSpec, mu: DiscreteMeasure,
             n_hint: int | None = None) -> LiftedMeasure:
    """lift with each atom's source position attached. mu's positions
    are sorted and distinct, so this is the canonical LiftedMeasure."""
    index, velocities, masses = zip(*lift(spec, mu, n_hint))
    return LiftedMeasure(dim=mu.dim, velocities=velocities, masses=masses,
                         positions=tuple(mu.positions[i] for i in index))


def check_h1(spec: PvfSpec, mu: DiscreteMeasure) -> bool:
    """Evaluate and test the sublinearity bound without raising."""
    try:
        evaluate(spec, mu)
    except SublinearityError:
        return False
    return True


# ---------------------------------------------------------------------------
# JSON round trip: {"kind": ..., "params": {...}}

def pvf_from_dict(doc: dict) -> PvfSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValidationError("PVF document needs a 'kind'", field="kind")
    kind = doc["kind"]
    params = doc.get("params", {})
    c = params.get("sublinear_c")
    c = None if c is None else float(c)
    if kind == "ode_lift":
        if "field" not in params:
            raise ValidationError("ode_lift needs params.field",
                                  field="field")
        return ode_lift_pvf(field_from_dict(params["field"]), sublinear_c=c)
    if kind == "constant":
        if "fiber" not in params:
            raise ValidationError("constant needs params.fiber",
                                  field="fiber")
        return constant_pvf([(row[:-1] if len(row) > 2 else row[0], row[-1])
                             for row in params["fiber"]], sublinear_c=c)
    if kind == "median_split":
        return median_split_pvf()
    if kind == "phi_diffusion":
        if "phi" not in params:
            raise ValidationError("phi_diffusion needs params.phi",
                                  field="phi")
        sub = params.get("sub_atoms")
        return phi_diffusion_pvf(field_from_dict(params["phi"]),
                                 sub_atoms=None if sub is None else int(sub),
                                 sublinear_c=c)
    if kind == "interaction":
        if "kernel" not in params:
            raise ValidationError("interaction needs params.kernel",
                                  field="kernel")
        return interaction_pvf(kernel_from_dict(params["kernel"]),
                               sublinear_c=c)
    if kind == "one_sided_ode":
        return one_sided_ode_pvf()
    raise ValidationError(f"unknown PVF kind {kind!r}", field="kind")


def pvf_to_dict(spec: PvfSpec) -> dict:
    params: dict = {}
    if spec.kind in ("ode_lift",):
        params["field"] = field_to_dict(spec.field)
    elif spec.kind == "constant":
        params["fiber"] = [list(vel) + [p] for vel, p in spec.fiber]
    elif spec.kind == "phi_diffusion":
        params["phi"] = field_to_dict(spec.phi)
        if spec.sub_atoms is not None:
            params["sub_atoms"] = spec.sub_atoms
    elif spec.kind == "interaction":
        params["kernel"] = kernel_to_dict(spec.kernel)
    if spec.declared_c is not None:
        params["sublinear_c"] = spec.declared_c
    return {"schema": 1, "kind": spec.kind, "params": params}
