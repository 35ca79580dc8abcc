"""Atomic probability measures on R^n and on its tangent bundle.

All measure types are immutable and store atoms in lexicographic
position order. Every builder checks its coordinates as one array and
merges coincident atoms by exact equality in one array merge (_merge).
Lattice measures keep int64 coordinates |coords| <= N^3; their positions
are coords / N^2 in one numpy division, of exact floats for N <= 208,063
(N^3 <= 2^53), so it rounds as Python's c / N**2 does. A step shifts the
coordinates by whole cells, so lattice runs replay bit-for-bit; they are
not exact rational arithmetic, since the field is evaluated in floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ValidationError

MASS_SUM_TOL = 1e-9       # construction-time renormalization window
MAX_LATTICE_N = 208_063  # largest N with N^3 <= 2^53 (exact in float64)

Position = tuple[float, ...]
Velocity = tuple[float, ...]


def as_rows(values: Sequence, dim: int | None = None,
            what: str = "position") -> np.ndarray:
    """Check a batch of coordinate vectors in one call: a finite float
    array of shape (count, dim), scalars promoted to length-1 rows."""
    try:
        rows = np.array(values, dtype=float)
    except ValueError as exc:  # ragged or non-numeric rows
        raise ValidationError(f"{what} rows must be numeric, of one length",
                              field=what) from exc
    if rows.ndim == 1:
        rows = rows[:, None]
    if rows.ndim != 2 or rows.shape[1] == 0 or dim not in (None, rows.shape[1]):
        raise ValidationError(f"{what} rows need {dim} entries, got shape "
                              f"{rows.shape}", field=what)
    if not np.isfinite(rows).all():
        raise ValidationError(f"non-finite {what} coordinate", field=what)
    return rows + 0.0  # +0.0 canonicalizes -0.0


def _tuples(rows: np.ndarray) -> tuple:
    """Array rows as the tuples of Python numbers the measure fields hold."""
    return tuple(map(tuple, rows.tolist()))


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


def _merge(keys: np.ndarray, masses) -> tuple[np.ndarray, list[float]]:
    """Sum masses over exactly-equal key rows; return the distinct rows
    in lexicographic order and their masses. A group of one keeps its
    mass, a larger one gets the math.fsum of its members: exactly
    rounded, so independent of their order. A pair's one IEEE add is that
    same sum, so all pairs take one vectorised add; fsum keeps the rest."""
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    masses = np.asarray(masses, dtype=float)[order]
    new = np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1)))
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], len(masses))
    merged = masses[starts]
    pairs = ends - starts == 2
    with np.errstate(over="ignore", invalid="ignore"):  # fsum raises there
        merged[pairs] += masses[starts[pairs] + 1]
    exact = np.isfinite(merged) & (merged != 0.0)  # fsum: -0.0 + -0.0 is 0.0
    for g in np.flatnonzero((ends - starts > 2) | pairs & ~exact).tolist():
        merged[g] = math.fsum(masses[starts[g]:ends[g]].tolist())
    return keys[starts], merged.tolist()


def _check_masses(masses: Sequence[float], renormalize: bool) -> tuple:
    total = math.fsum(masses) if min(masses) > 0.0 else math.nan
    if not math.isfinite(total):
        raise ValidationError("atom mass must be positive and finite",
                              field="mass")
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
        pos, = _tuples(as_rows([position], self.dim))
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
    atoms = list(atoms)
    if not atoms:
        raise ValidationError("measure needs at least one atom", field="atoms")
    positions, masses = zip(*atoms)
    keys, masses = _merge(as_rows(positions, dim), masses)
    return DiscreteMeasure(dim=keys.shape[1], positions=_tuples(keys),
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
    images = as_rows([fmap(pos) for pos in mu.positions], mu.dim, "image")
    keys, masses = _merge(images, mu.masses)
    return DiscreteMeasure(dim=mu.dim, positions=_tuples(keys),
                           masses=tuple(masses))


def radius(rows) -> float:
    """The largest row norm by math.hypot; in 1D abs, as hypot(x) is."""
    rows = np.asarray(rows, dtype=float)
    return (float(np.abs(rows).max()) if rows.shape[1] == 1
            else max(map(math.hypot, *rows.T.tolist())))


def support_radius(mu: DiscreteMeasure) -> float:
    return radius(mu.positions)


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

    def position_rows(self) -> np.ndarray:
        """The (count, dim) float positions coords / N^2, one division."""
        return np.array(self.coords, dtype=np.int64) / self.n_param ** 2

    def to_measure(self) -> DiscreteMeasure:
        return DiscreteMeasure(dim=self.dim,
                               positions=_tuples(self.position_rows()),
                               masses=self.masses)

    def support_radius(self) -> float:
        return radius(self.position_rows())


def make_lattice_measure(n_param: int, dim: int,
                         cells: Iterable[tuple[tuple[int, ...], float]]) -> LatticeMeasure:
    cells = list(cells)
    if not cells:
        raise ValidationError("lattice measure needs at least one atom",
                              field="atoms")
    coords, masses = zip(*cells)
    return _lattice(n_param, dim, coords, masses)


def _lattice(n_param: int, dim: int, coords, masses) -> LatticeMeasure:
    """The lattice builder on integer coordinate rows (an int64 array or
    anything that converts to one): check N and the box [-N^3, N^3]^dim,
    merge coincident rows, check the masses."""
    if n_param > MAX_LATTICE_N:
        raise ValidationError(f"N={n_param} above {MAX_LATTICE_N}: "
                              "coordinates up to N^3 must be exact floats",
                              field="n_param")
    bound = n_param ** 3
    try:
        rows = np.asarray(coords, dtype=np.int64)
        inside = (np.abs(rows) <= bound).all()
    except OverflowError:
        inside = False
    if not inside:
        raise ValidationError(
            f"lattice coordinate outside [-N^3, N^3] = [-{bound}, {bound}]",
            field="coords")
    keys, masses = _merge(rows, masses)
    return LatticeMeasure(n_param=n_param, dim=dim, coords=_tuples(keys),
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
        return radius(self.velocities)


def make_lifted(atoms: Iterable[tuple], dim: int | None = None) -> LiftedMeasure:
    """Build a LiftedMeasure from (position, velocity, mass) triples."""
    atoms = list(atoms)
    if not atoms:
        raise ValidationError("lifted measure needs at least one atom",
                              field="atoms")
    positions, velocities, masses = zip(*atoms)
    positions = as_rows(positions, dim)
    dim = positions.shape[1]
    velocities = as_rows(velocities, dim, what="velocity")
    keys, masses = _merge(np.hstack([positions, velocities]), masses)
    return LiftedMeasure(dim=dim, positions=_tuples(keys[:, :dim]),
                         velocities=_tuples(keys[:, dim:]),
                         masses=_check_masses(masses, renormalize=True))


def base_marginal(lifted: LiftedMeasure) -> DiscreteMeasure:
    """Project (x, v, m) atoms to x, summing masses over velocities."""
    keys, masses = _merge(np.array(lifted.positions), lifted.masses)
    return DiscreteMeasure(dim=lifted.dim, positions=_tuples(keys),
                           masses=tuple(masses))


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
    table = as_rows(rows, dim + 1, what="atoms")
    return make_measure(zip(table[:, :dim], table[:, dim]), dim=dim)


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
    table = as_rows(rows, 2 * dim + 1, what="atoms")
    return make_lifted(zip(table[:, :dim], table[:, dim:-1], table[:, -1]),
                       dim=dim)


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
