"""Atomic probability measures on R^n and on its tangent bundle.

All measure types are immutable, store atoms in lexicographic position
order, and merge coincident atoms by exact coordinate equality. Lattice
measures keep integer coordinates (position = coords / N^2) that a step
shifts by whole cells, so lattice runs replay bit-for-bit; they are not
exact rational arithmetic, since the field is evaluated in floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import ValidationError

MASS_SUM_TOL = 1e-9       # construction-time renormalization window
MASS_INVARIANT_TOL = 1e-12

Position = tuple[float, ...]
Velocity = tuple[float, ...]


def as_vector(x, dim: int | None = None, what: str = "position") -> tuple[float, ...]:
    """Coerce a scalar or sequence to a float tuple, checking length."""
    if isinstance(x, (int, float)):
        vec = (float(x) + 0.0,)
    else:
        vec = tuple(float(c) + 0.0 for c in x)  # +0.0 canonicalizes -0.0
    if not vec:
        raise ValidationError(f"empty {what} vector", field=what)
    if dim is not None and len(vec) != dim:
        raise ValidationError(
            f"{what} has length {len(vec)}, expected {dim}", field=what)
    for c in vec:
        if not math.isfinite(c):
            raise ValidationError(f"non-finite {what} coordinate", field=what)
    return vec


def neumaier_prefix(values: Sequence[float]) -> list[float]:
    """Compensated running sums; error per entry stays at one ulp."""
    prefix = []
    s = 0.0
    comp = 0.0
    for v in values:
        t = s + v
        if abs(s) >= abs(v):
            comp += (s - t) + v
        else:
            comp += (v - t) + s
        s = t
        prefix.append(s + comp)
    return prefix


def _merge(pairs: Iterable[tuple[tuple, float]]) -> tuple[tuple, tuple]:
    """Sum masses over exactly-equal keys; return the keys in
    lexicographic order and their masses, as two tuples.

    Group-then-fsum so the merged mass of a group depends only on the
    input order of its members, not on interleaving with other groups.
    """
    acc: dict[tuple, list[float]] = {}
    for key, mass in pairs:
        acc.setdefault(key, []).append(mass)
    merged = sorted((key, masses[0] if len(masses) == 1 else math.fsum(masses))
                    for key, masses in acc.items())
    return tuple(k for k, _ in merged), tuple(m for _, m in merged)


def _check_masses(masses: Sequence[float], renormalize: bool) -> tuple:
    for m in masses:
        if not (m > 0.0) or not math.isfinite(m):
            raise ValidationError("atom mass must be positive and finite",
                                  field="mass")
    total = math.fsum(masses)
    if abs(total - 1.0) > MASS_SUM_TOL:
        raise ValidationError(
            f"masses sum to {total!r}, more than {MASS_SUM_TOL} from 1",
            field="mass")
    out = list(masses)
    if renormalize and total != 1.0:
        if all(m == out[0] for m in out):
            # keep equal masses bit-equal; a rebuild takes this branch again
            return (1.0 / len(out),) * len(out)
        out = [m / total for m in out]
        # The divided masses can still sum an ulp off 1, and a measure
        # rebuilt from its own atoms would then divide again and drift.
        # Nudge the largest mass until the compensated total is exact.
        for _ in range(4):
            residual = 1.0 - math.fsum(out)
            if residual == 0.0:
                break
            j = max(range(len(out)), key=out.__getitem__)
            nudged = out[j] + residual
            if nudged == out[j] or not nudged > 0.0:
                break
            out[j] = nudged
    return tuple(out)


@dataclass(frozen=True)
class CompactSupportInfo:
    radius: float


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite convex combination of Dirac atoms on R^dim."""

    dim: int
    positions: tuple[Position, ...]
    masses: tuple[float, ...]

    @property
    def atom_count(self) -> int:
        return len(self.positions)

    def atoms(self) -> list[tuple[Position, float]]:
        return list(zip(self.positions, self.masses))

    def mass_at(self, position) -> float:
        pos = as_vector(position, self.dim)
        for p, m in self.atoms():
            if p == pos:
                return m
        return 0.0

    def mean(self) -> tuple[float, ...]:
        return tuple(
            math.fsum(m * p[c] for p, m in self.atoms())
            for c in range(self.dim))


def make_measure(atoms: Iterable[tuple], dim: int | None = None) -> DiscreteMeasure:
    """Build a DiscreteMeasure from (position, mass) pairs.

    Coincident positions merge by mass addition; the total mass must be
    within 1e-9 of 1 and is silently renormalized inside that window.
    """
    pairs = []
    for pos, mass in atoms:
        vec = as_vector(pos, dim)
        if dim is None:
            dim = len(vec)
        pairs.append((vec, float(mass)))
    if not pairs:
        raise ValidationError("measure needs at least one atom", field="atoms")
    positions, masses = _merge(pairs)
    return DiscreteMeasure(dim=dim, positions=positions,
                           masses=_check_masses(masses, renormalize=True))


def dirac(position) -> DiscreteMeasure:
    return make_measure([(position, 1.0)])


def uniform_1d(a: float, b: float, atoms: int) -> DiscreteMeasure:
    """M equal-mass atoms at midpoints of M equal subintervals of [a, b]."""
    if atoms < 1:
        raise ValidationError("uniform generator needs atoms >= 1",
                              field="atoms")
    if not b > a:
        raise ValidationError("uniform generator needs b > a", field="b")
    width = (b - a) / atoms
    mass = 1.0 / atoms
    return make_measure(
        [(a + (k + 0.5) * width, mass) for k in range(atoms)])


def push_forward(mu: DiscreteMeasure,
                 fmap: Callable) -> DiscreteMeasure:
    """Image measure: atoms moved through fmap, coincident images merged."""
    moved = []
    for pos, mass in mu.atoms():
        image = fmap(pos)
        moved.append((as_vector(image, mu.dim, what="image"), mass))
    positions, masses = _merge(moved)
    return DiscreteMeasure(dim=mu.dim, positions=positions, masses=masses)


def support_radius(mu: DiscreteMeasure) -> CompactSupportInfo:
    radius = max(math.hypot(*p) for p in mu.positions)
    return CompactSupportInfo(radius=radius)


@dataclass(frozen=True)
class LatticeMeasure:
    """Atoms on the grid Z^dim / N^2, stored as integer coordinate vectors."""

    n_param: int
    dim: int
    coords: tuple[tuple[int, ...], ...]
    masses: tuple[float, ...]

    @property
    def atom_count(self) -> int:
        return len(self.coords)

    def to_measure(self) -> DiscreteMeasure:
        scale = self.n_param ** 2
        positions = tuple(tuple(c / scale for c in cv) for cv in self.coords)
        return DiscreteMeasure(dim=self.dim, positions=positions,
                               masses=self.masses)

    def support_radius(self) -> float:
        scale = self.n_param ** 2
        return max(math.hypot(*(c / scale for c in cv)) for cv in self.coords)


def make_lattice_measure(n_param: int, dim: int,
                         cells: Iterable[tuple[tuple[int, ...], float]]) -> LatticeMeasure:
    cells = list(cells)
    if not cells:
        raise ValidationError("lattice measure needs at least one atom",
                              field="atoms")
    coords, masses = _merge(cells)
    bound = n_param ** 3
    for cv in coords:
        if any(abs(c) > bound for c in cv):
            raise ValidationError(
                f"lattice coordinate outside [-N^3, N^3] = [-{bound}, {bound}]",
                field="coords")
    return LatticeMeasure(n_param=n_param, dim=dim, coords=coords,
                          masses=_check_masses(masses, renormalize=False))


@dataclass(frozen=True)
class LiftedMeasure:
    """Atomic measure on the tangent bundle: (position, velocity, mass)."""

    dim: int
    positions: tuple[Position, ...]
    velocities: tuple[Velocity, ...]
    masses: tuple[float, ...]

    @property
    def atom_count(self) -> int:
        return len(self.positions)

    def atoms(self) -> list[tuple[Position, Velocity, float]]:
        return list(zip(self.positions, self.velocities, self.masses))

    def max_speed(self) -> float:
        return max(math.hypot(*v) for v in self.velocities)


def make_lifted(atoms: Iterable[tuple], dim: int | None = None) -> LiftedMeasure:
    """Build a LiftedMeasure from (position, velocity, mass) triples."""
    pairs = []
    for pos, vel, mass in atoms:
        pvec = as_vector(pos, dim)
        if dim is None:
            dim = len(pvec)
        vvec = as_vector(vel, dim, what="velocity")
        pairs.append(((pvec, vvec), float(mass)))
    if not pairs:
        raise ValidationError("lifted measure needs at least one atom",
                              field="atoms")
    keys, masses = _merge(pairs)
    return LiftedMeasure(dim=dim, positions=tuple(p for p, _ in keys),
                         velocities=tuple(v for _, v in keys),
                         masses=_check_masses(masses, renormalize=True))


def base_marginal(lifted: LiftedMeasure) -> DiscreteMeasure:
    """Project (x, v, m) atoms to x, summing masses over velocities."""
    positions, masses = _merge(zip(lifted.positions, lifted.masses))
    return DiscreteMeasure(dim=lifted.dim, positions=positions, masses=masses)


# ---------------------------------------------------------------------------
# JSON schemas ("schema": 1 accepted and emitted everywhere)

def _check_schema(doc: dict, what: str) -> None:
    if doc.get("schema", 1) != 1:
        raise ValidationError(f"unsupported {what} schema {doc['schema']!r}",
                              field="schema")


def measure_from_dict(doc: dict) -> DiscreteMeasure:
    if not isinstance(doc, dict):
        raise ValidationError("measure document must be a JSON object")
    _check_schema(doc, "measure")
    if "dirac" in doc:
        return dirac(doc["dirac"])
    if "uniform" in doc:
        gen = doc["uniform"]
        try:
            return uniform_1d(float(gen["a"]), float(gen["b"]),
                              int(gen["atoms"]))
        except KeyError as exc:
            raise ValidationError(f"uniform generator missing {exc.args[0]!r}",
                                  field=f"uniform.{exc.args[0]}") from exc
    try:
        dim = int(doc["dim"])
        rows = doc["atoms"]
    except KeyError as exc:
        raise ValidationError(f"measure document missing {exc.args[0]!r}",
                              field=exc.args[0]) from exc
    atoms = []
    for idx, row in enumerate(rows):
        if len(row) != dim + 1:
            raise ValidationError(
                f"atom row {idx} has {len(row)} entries, expected dim+1={dim + 1}",
                field=f"atoms[{idx}]")
        atoms.append((tuple(row[:dim]), row[dim]))
    return make_measure(atoms, dim=dim)


def measure_to_dict(mu: DiscreteMeasure) -> dict:
    return {"schema": 1, "dim": mu.dim,
            "atoms": [list(p) + [m] for p, m in mu.atoms()]}


def lifted_from_dict(doc: dict) -> LiftedMeasure:
    if not isinstance(doc, dict):
        raise ValidationError("lifted measure document must be a JSON object")
    _check_schema(doc, "lifted measure")
    try:
        dim = int(doc["dim"])
        rows = doc["atoms"]
    except KeyError as exc:
        raise ValidationError(f"lifted document missing {exc.args[0]!r}",
                              field=exc.args[0]) from exc
    atoms = []
    for idx, row in enumerate(rows):
        if len(row) != 2 * dim + 1:
            raise ValidationError(
                f"lifted atom row {idx} has {len(row)} entries, "
                f"expected 2*dim+1={2 * dim + 1}",
                field=f"atoms[{idx}]")
        atoms.append((tuple(row[:dim]), tuple(row[dim:2 * dim]), row[2 * dim]))
    return make_lifted(atoms, dim=dim)


def lifted_to_dict(lifted: LiftedMeasure) -> dict:
    return {"schema": 1, "dim": lifted.dim,
            "atoms": [list(p) + list(v) + [m] for p, v, m in lifted.atoms()]}


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}",
                              field=path) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}",
                              field=path) from exc
