"""Atomic probability measures on R^n and on its tangent bundle.

DiscreteMeasure and LiftedMeasure hold read-only float64 arrays, rows
(count, dim) in lexicographic order and masses (count,), made once by
one array builder (_build) that merges exactly-equal rows (_merge).
Rows are arrays: `+` adds them, they are unhashable, and measures
compare by value, and a merge of rows already sorted and distinct skips
its lexsort. LatticeMeasure holds its int64 coordinates |coords| <= N^3
as one read-only (count, dim) array and its masses as a read-only
float64 array; positions coords / N^2 are one numpy division, rounded as
Python's c / N**2 is for N <= 208,063 (N^3 <= 2^53). A step shifts
coordinates by whole cells, so lattice runs replay bit-for-bit. The
lattice solver's merged arrays become a step's fields as they are
(_lattice), with no copy. Its coords field is an ArrayRows view, the
row view that transport plans share: it iterates, indexes, compares
and prints as a tuple of tuples of Python ints, made only when read, so
a row perturbed as (c[0] + k,) + c[1:] is a new row and not a broadcast
over an array row. A merge whose sorted rows are all distinct (the
common case of a lattice step, where no atoms collide) returns the
permuted arrays without group sums; a lattice step does not check the
merged masses again (see las.py). LatticeMeasure.to_measure merges too:
near the largest N distinct coordinates can round to one float. This
module alone decides where numpy may stand in for math.fsum
(exact_row_sums, _pair_sums).
"""

from __future__ import annotations

import collections.abc
import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ValidationError

MASS_SUM_TOL = 1e-9       # construction-time renormalization window
MAX_LATTICE_N = 208_063  # largest N with N^3 <= 2^53 (exact in float64)
# exact_row_sums: the TwoSum tree of L levels costs about as much as
# math.fsum on TREE_FIXED + TREE_PER_LEVEL * L entries (measured)
TREE_FIXED, TREE_PER_LEVEL = 512, 128


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


def _readonly(array: np.ndarray) -> np.ndarray:
    """Mark an array the caller owns as read-only and return it."""
    array.setflags(write=False)
    return array


def _frozen(values, dtype) -> np.ndarray:
    """values as a read-only array of dtype: values itself when it is
    one already, else a new array."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and not values.flags.writeable):
        return values
    return _readonly(np.array(values, dtype=dtype))


def neumaier_prefix(values: Sequence[float]) -> np.ndarray:
    """Compensated running sums; error per entry stays at one ulp.
    Neumaier's loop as two sequential cumsums (add.accumulate adds left
    to right): the running sums s, then the running sum of each add's
    rounding error, taken against the larger operand."""
    v = np.asarray(values, dtype=float)
    s = np.cumsum(v)
    prev = np.concatenate(([0.0], s[:-1]))
    errors = np.where(np.abs(prev) >= np.abs(v), (prev - s) + v,
                      (v - s) + prev)
    return s + np.cumsum(errors)


def _two_sum_tree(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum an (n, ...) array, n >= 2, over its first axis by a pairwise
    tree of error-free TwoSums (Knuth, TAOCP vol. 2, 4.2.2): each level
    adds the first half of its slabs to the last half, an odd middle slab
    waiting a level. Returns the root s and the plain sum err of the adds'
    rounding errors, which each slot of a buffer of the first level's
    width accumulates before one final sum; the exact sum is s plus the
    exact sum of those errors. Every sum the tree or err forms is of a
    subset of the entries or of the errors."""
    s, err = cols, None
    while len(s) > 1:
        n, half = len(s), len(s) // 2
        x, y = s[:half], s[n - half:]
        t = x + y
        z = t - x
        e = (x - (t - z)) + (y - z)
        if err is None:
            err = e
        else:
            err[:half] += e
        s = np.concatenate((t, s[half:n - half])) if n % 2 else t
    return s[0], err.sum(0)


def exact_row_sums(a: np.ndarray) -> np.ndarray:
    """The math.fsum of every row a[..., :] of a float array, bit for bit:
    [math.fsum(r) for r in a] for a 2D a, as an array of shape a.shape[:-1].

    For one row of n entries, let u = 2^-53, L = ceil(log2 n) levels and
    A = fl(sum |a|). Arrays under TREE_FIXED + TREE_PER_LEVEL L entries
    take fsum itself. Larger ones move the rows' entries to the first
    axis (a copy unless a is the transposed view of an array laid out
    that way) and take the TwoSum tree (_two_sum_tree):

    1. Each of the tree's adds errs by at most u times its operands'
       magnitudes, and a level's magnitudes grow by at most 1 + u, so the
       errors e sum in magnitude to at most u L (1 + u)^L sum|a|, and A
       (at most n adds) is within gamma_n of sum|a|: sum|e| <= u (L + 1) A.
    2. err, summed with at most n adds, is within gamma_n sum|e| of the
       exact error sum E. With u |err| more for the rounding of err -+ b,
       b = (n + 2)(L + 2) u^2 A covers both, plus 2^-1074 for the
       product's underflow when A > 0 (a row of zeros has E = 0), so
       fl(err - b) <= E <= fl(err + b). Rounding is monotone: when
       fl(s + fl(err - b)) == fl(s + fl(err + b)), that is the correctly
       rounded sum fsum returns.
    3. + 0.0, since fsum never returns -0.0.
    4. Every other row goes to fsum: rows left undecided (a sum at or
       within b of a tie between two floats), rows that are not finite,
       and rows whose A reaches 2^1000. Below that no partial sum of
       fsum's can overflow; above it the tree, adding in another order,
       could return a finite sum where fsum raises OverflowError."""
    shape, n = a.shape[:-1], a.shape[-1]
    if n < 2:  # fsum of [x] is x + 0.0 for every float x, of [] 0.0
        return a.sum(-1) + 0.0
    if a.size < TREE_FIXED + TREE_PER_LEVEL * (n - 1).bit_length():
        if a.ndim == 1:
            return np.float64(math.fsum(a.tolist()))
        rows = a.reshape(-1, n).tolist()
        sums = np.fromiter(map(math.fsum, rows), float, len(rows))
        return sums.reshape(shape)
    cols = np.ascontiguousarray(a.transpose(-1, *range(a.ndim - 1)))
    cols = cols.reshape(n, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.abs(cols).sum(0)
        s, err = _two_sum_tree(cols)
        levels = (n - 1).bit_length()
        b = (n + 2) * (levels + 2) * 2.0 ** -106 * total
        b[total > 0.0] += 2.0 ** -1074
        sums = s + (err - b) + 0.0
        undecided = (sums != s + (err + b)) | ~(total < 2.0 ** 1000)
    for k in np.flatnonzero(undecided).tolist():
        sums[k] = math.fsum(cols[:, k].tolist())
    return sums.reshape(shape)


def _pair_sums(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The math.fsum of every pair (x[k], y[k]), under the caller's
    np.errstate: one IEEE add, rounded as fsum rounds, + 0.0 as fsum
    never returns -0.0; fsum itself where the add is not finite."""
    sums = x + y + 0.0
    if not np.isfinite(sums).all():
        for k in np.flatnonzero(~np.isfinite(sums)).tolist():
            sums[k] = math.fsum((x[k], y[k]))
    return sums


def _group_sums(masses: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The sum of each run of masses, a run starting wherever new is
    True. A run of one keeps its mass, a longer one gets the math.fsum
    of its members: exactly rounded, so independent of their order.
    Pairs take _pair_sums, longer runs fsum."""
    starts = np.flatnonzero(new)
    sizes = np.append(starts[1:], len(masses)) - starts
    merged, pairs = masses[starts], sizes == 2
    with np.errstate(over="ignore", invalid="ignore"):
        merged[pairs] = _pair_sums(merged[pairs], masses[starts[pairs] + 1])
    for g in np.flatnonzero(sizes > 2).tolist() if sizes.max() > 2 else ():
        merged[g] = math.fsum(masses[starts[g]:starts[g] + sizes[g]].tolist())
    return merged


def _increasing(keys: np.ndarray) -> bool:
    """Whether every key row is lexicographically below the next, decided
    one vectorised pass per column, last column first. A tie in a column
    defers to the columns after it; -0.0 against 0.0 in the deciding
    column, or a NaN, reads as out of order."""
    before, after = keys[:-1], keys[1:]
    below = before[:, -1] < after[:, -1]
    for j in range(keys.shape[1] - 2, -1, -1):
        below = np.where(before[:, j] == after[:, j], below,
                         before[:, j] < after[:, j])
    return bool(below.all())


def _merge(keys: np.ndarray, masses) -> tuple[np.ndarray, np.ndarray]:
    """Sum masses over exactly-equal key rows (_group_sums); return the
    distinct rows in lexicographic order and their masses, as new arrays.
    Rows already sorted and distinct (_increasing) skip the lexsort: that
    is the lexsort's own result, every group a single row. Sorted rows
    that are all distinct skip the group sums: a group of one keeps its
    mass. Either way a merge that returns as many rows as it got returns
    a permutation of its masses."""
    if _increasing(keys):
        return keys.copy(), np.array(masses, dtype=float)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    masses = np.asarray(masses, dtype=float)[order]
    new = np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1)))
    if new.all():
        return keys, masses
    return keys[new], _group_sums(masses, new)


def _check_masses(masses: np.ndarray, renormalize: bool
                  ) -> tuple[np.ndarray, bool]:
    """Check that masses are positive and finite and that their
    math.fsum is within MASS_SUM_TOL of 1; renormalize them if asked and
    that sum is not exactly 1.0. Returns the masses and whether they are
    known to be positive with a math.fsum of exactly 1.0 (unit): true
    when the returned masses are the ones checked and summed to 1.0,
    false after a renormalisation, whose sum may still miss 1.0."""
    out = masses.tolist()
    total = math.fsum(out) if masses.min() > 0.0 else math.nan
    if not math.isfinite(total):
        raise ValidationError("atom mass must be positive and finite",
                              field="mass")
    if abs(total - 1.0) > MASS_SUM_TOL:
        raise ValidationError(
            f"masses sum to {total!r}, more than {MASS_SUM_TOL} from 1",
            field="mass")
    if not renormalize or total == 1.0:
        return masses, total == 1.0
    if all(m == out[0] for m in out):
        # keep equal masses bit-equal; a rebuild takes this branch again
        return np.full(len(out), 1.0 / len(out)), False
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
    return np.array(out), False


class _ArrayFields:
    """Atoms (or particles) as array rows. Equality is by value, every
    field by np.array_equal, so a copy with tuple fields compares equal;
    like its arrays, the object is unhashable."""

    @property
    def atom_count(self) -> int:
        return len(self.positions)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass(frozen=True, eq=False)
class DiscreteMeasure(_ArrayFields):
    """Finite convex combination of Dirac atoms on R^dim."""

    dim: int
    positions: np.ndarray
    masses: np.ndarray

    def atoms(self) -> list[tuple[np.ndarray, float]]:
        return list(zip(self.positions, self.masses))

    def mass_at(self, position) -> float:
        """The math.fsum of the masses of every row at position."""
        hit = (self.positions == as_rows([position], self.dim)).all(axis=1)
        return math.fsum(self.masses[hit].tolist())

    def mean(self) -> tuple[float, ...]:
        weighted = self.masses[:, None] * self.positions
        return tuple(exact_row_sums(weighted.T).tolist())


def _build(positions: np.ndarray, masses, velocities: np.ndarray | None = None,
           check: bool = True, merge: bool = True,
           ) -> DiscreteMeasure | LiftedMeasure:
    """The array builder of DiscreteMeasure and, given velocities, of
    LiftedMeasure. It owns the rows it gets (checked by as_rows), merges
    exactly-equal rows unless they are sorted and distinct already (not
    merge), checks and renormalizes the masses of a new measure (check),
    and freezes every field."""
    dim = positions.shape[1]
    keys = (positions if velocities is None
            else np.hstack([positions, velocities]))
    if merge:
        keys, masses = _merge(keys, masses)
    else:
        masses = np.array(masses, dtype=float)
    if check:
        masses, _ = _check_masses(masses, renormalize=True)
    _readonly(keys)
    if velocities is None:
        return DiscreteMeasure(dim=dim, positions=keys,
                               masses=_readonly(masses))
    return LiftedMeasure(dim=dim, positions=keys[:, :dim],
                         velocities=keys[:, dim:], masses=_readonly(masses))


def make_measure(atoms: Iterable[tuple], dim: int | None = None) -> DiscreteMeasure:
    """Build a DiscreteMeasure from (position, mass) pairs.

    Coincident positions merge by mass addition; the total mass must be
    within 1e-9 of 1 and is silently renormalized inside that window.
    """
    atoms = list(atoms)
    if not atoms:
        raise ValidationError("measure needs at least one atom", field="atoms")
    positions, masses = zip(*atoms)
    return _build(as_rows(positions, dim), masses)


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
    return _build(as_rows(a + (np.arange(atoms) + 0.5) * width),
                  np.full(atoms, 1.0 / atoms))


def push_forward(mu: DiscreteMeasure,
                 fmap: Callable) -> DiscreteMeasure:
    """Image measure: atoms moved through fmap, coincident images merged.
    fmap gets each position as a list of floats."""
    images = as_rows([fmap(pos) for pos in mu.positions.tolist()], mu.dim,
                     "image")
    return _build(images, mu.masses, check=False)


def norms(rows: np.ndarray) -> np.ndarray:
    """math.hypot of every row; in 1D abs, as hypot(x) is. Of a row of
    differences x - y it is math.dist(x, y), bit for bit."""
    return (np.abs(rows[:, 0]) if rows.shape[1] == 1 else
            np.fromiter(map(math.hypot, *rows.T.tolist()), float, len(rows)))


def squared_norms(rows: np.ndarray) -> np.ndarray:
    """math.fsum of the squares of each row: the square itself for d = 1
    (never -0.0), _pair_sums for d = 2, exact_row_sums from d = 3."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.square(rows)
        if rows.shape[1] == 2:
            return _pair_sums(squares[:, 0], squares[:, 1])
    return squares[:, 0] if rows.shape[1] == 1 else exact_row_sums(squares)


def radius(rows: np.ndarray) -> float:
    """The largest row norm (norms)."""
    return float(norms(rows).max())


def support_radius(mu: DiscreteMeasure) -> float:
    return radius(mu.positions)


class ArrayRows(collections.abc.Sequence):
    """A table kept as read-only array columns (.columns: a tuple of 1D
    arrays of one length, or a 2D array whose rows are the columns) that
    iterates, indexes, compares and prints as the tuple of row tuples of
    Python numbers it stands for. Those tuples are made when they are
    read (one tolist per column and one zip) and not kept. A lattice
    measure's coords are the transposed (count, dim) int64 array, .array;
    a transport plan's entries are the columns i, k and w. Equal to
    another ArrayRows with equal columns or to a tuple of rows with the
    same values; unhashable, like its arrays."""

    __slots__ = ("columns",)
    __hash__ = None

    def __init__(self, columns):
        self.columns = columns

    @property
    def array(self) -> np.ndarray:
        """The (count, width) array of the rows: a view when the columns
        are one 2D array, else a new array of their common dtype."""
        return np.transpose(self.columns)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return zip(*map(np.ndarray.tolist, self.columns))

    def __getitem__(self, index):
        cut = [column[index] for column in self.columns]
        if cut[0].ndim:  # a slice or an index array: its rows
            return tuple(ArrayRows(cut))
        return tuple(value.item() for value in cut)

    def __eq__(self, other):
        if isinstance(other, ArrayRows):
            return (len(self.columns) == len(other.columns)
                    and all(map(np.array_equal, self.columns, other.columns)))
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.array, dtype=dtype, copy=copy)


@dataclass(frozen=True, eq=False)
class LatticeMeasure(_ArrayFields):
    """Atoms on the grid Z^dim / N^2: integer coordinate rows (coords, an
    ArrayRows over a read-only (count, dim) int64 array) and read-only
    float64 masses. Other sequences given as fields (a
    dataclasses.replace with tuples, say) become new arrays of those
    dtypes; no check runs."""

    n_param: int
    dim: int
    coords: ArrayRows
    masses: np.ndarray

    def __post_init__(self):
        if not isinstance(self.coords, ArrayRows):
            object.__setattr__(self, "coords",
                               ArrayRows(_frozen(self.coords, np.int64).T))
        object.__setattr__(self, "masses", _frozen(self.masses, np.float64))

    @property
    def atom_count(self) -> int:
        return len(self.masses)

    def position_rows(self) -> np.ndarray:
        """The (count, dim) float positions coords / N^2, one division."""
        return self.coords.array / self.n_param ** 2

    def to_measure(self) -> DiscreteMeasure:
        """The atoms at their float positions coords / N^2. Near the
        largest N distinct coordinates can round to one float, so the
        rows go through the merge: such rows become one atom with the
        math.fsum of their masses, and sorted distinct rows (every
        smaller N) pass through bit for bit."""
        return _build(self.position_rows(), self.masses, check=False)

    def support_radius(self) -> float:
        return radius(self.position_rows())


def make_lattice_measure(n_param: int, dim: int,
                         cells: Iterable[tuple[tuple[int, ...], float]]) -> LatticeMeasure:
    cells = list(cells)
    if not cells:
        raise ValidationError("lattice measure needs at least one atom",
                              field="atoms")
    coords, masses = zip(*cells)
    rows, masses, _ = _lattice_rows(n_param, dim, coords, masses)
    return _lattice(n_param, dim, rows, masses)


def _lattice_box(n_param: int, dim: int, coords) -> np.ndarray:
    """Integer coordinate rows (an int64 array or anything that converts
    to one) as an int64 array of shape (count, dim), checked: N at most
    MAX_LATTICE_N, rows dim wide, every coordinate in the box
    [-N^3, N^3]. A failed check raises ValidationError naming n_param,
    dim or coords."""
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
    except ValueError as exc:  # ragged rows
        raise ValidationError(f"lattice coordinate rows need {dim} entries",
                              field="dim") from exc
    if not inside:
        raise ValidationError(
            f"lattice coordinate outside [-N^3, N^3] = [-{bound}, {bound}]",
            field="coords")
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise ValidationError(f"lattice coordinate rows need {dim} entries, "
                              f"got shape {rows.shape}", field="dim")
    return rows


def _lattice_rows(n_param: int, dim: int, coords, masses
                  ) -> tuple[np.ndarray, np.ndarray, bool]:
    """The lattice builder on integer coordinate rows: check them
    (_lattice_box), merge coincident rows, check the masses. Returns the
    int64 rows and float64 masses, new arrays, that _lattice turns into
    a measure, and whether those masses are known to be positive with a
    math.fsum of exactly 1.0 (_check_masses)."""
    keys, merged = _merge(_lattice_box(n_param, dim, coords), masses)
    merged, unit = _check_masses(merged, renormalize=False)
    return keys, merged, unit


def _lattice(n_param: int, dim: int, rows: np.ndarray,
             masses: np.ndarray) -> LatticeMeasure:
    """The LatticeMeasure of the new arrays that _lattice_rows returns,
    frozen in place and kept without a copy."""
    return LatticeMeasure(n_param=n_param, dim=dim, coords=_readonly(rows),
                          masses=_readonly(masses))


@dataclass(frozen=True, eq=False)
class LiftedMeasure(_ArrayFields):
    """Atomic measure on the tangent bundle: (position, velocity, mass)."""

    dim: int
    positions: np.ndarray
    velocities: np.ndarray
    masses: np.ndarray

    def atoms(self) -> list[tuple[np.ndarray, np.ndarray, float]]:
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
    velocities = as_rows(velocities, positions.shape[1], what="velocity")
    return _build(positions, masses, velocities)


def base_marginal(lifted: LiftedMeasure) -> DiscreteMeasure:
    """Project (x, v, m) atoms to x, summing masses over velocities."""
    return _build(lifted.positions, lifted.masses, check=False)


# ---------------------------------------------------------------------------
# JSON schemas ("schema": 1 accepted and emitted everywhere)

def _check_schema(doc: dict, what: str) -> None:
    if doc.get("schema", 1) != 1:
        raise ValidationError(f"unsupported {what} schema {doc['schema']!r}",
                              field="schema")


def _number(value, field: str, integer: bool = False) -> float | int:
    """A document's number as a float, or as an int if integer. A string,
    a bool, null, NaN, inf, or a fraction where an integer is due raises
    ValidationError naming field."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and not (integer and value % 1)):
        return int(value) if integer else float(value)
    kind = "an integer" if integer else "a finite number"
    raise ValidationError(f"{field} must be {kind}, got {value!r}",
                          field=field)


def measure_from_dict(doc: dict) -> DiscreteMeasure:
    if not isinstance(doc, dict):
        raise ValidationError("measure document must be a JSON object")
    _check_schema(doc, "measure")
    if "dirac" in doc:
        return dirac(doc["dirac"])
    if "uniform" in doc:
        gen = doc["uniform"]
        if not isinstance(gen, dict):
            raise ValidationError("uniform generator must be a JSON object",
                                  field="uniform")
        try:
            return uniform_1d(_number(gen["a"], "uniform.a"),
                              _number(gen["b"], "uniform.b"),
                              _number(gen["atoms"], "uniform.atoms", True))
        except KeyError as exc:
            raise ValidationError(f"uniform generator missing {exc.args[0]!r}",
                                  field=f"uniform.{exc.args[0]}") from exc
    try:
        dim = _number(doc["dim"], "dim", integer=True)
        rows = doc["atoms"]
    except KeyError as exc:
        raise ValidationError(f"measure document missing {exc.args[0]!r}",
                              field=exc.args[0]) from exc
    table = as_rows(rows, dim + 1, what="atoms")
    return make_measure(zip(table[:, :dim], table[:, dim]), dim=dim)


def measure_to_dict(mu: DiscreteMeasure) -> dict:
    return {"schema": 1, "dim": mu.dim,
            "atoms": np.column_stack([mu.positions, mu.masses]).tolist()}


def lifted_from_dict(doc: dict) -> LiftedMeasure:
    if not isinstance(doc, dict):
        raise ValidationError("lifted measure document must be a JSON object")
    _check_schema(doc, "lifted measure")
    try:
        dim = _number(doc["dim"], "dim", integer=True)
        rows = doc["atoms"]
    except KeyError as exc:
        raise ValidationError(f"lifted document missing {exc.args[0]!r}",
                              field=exc.args[0]) from exc
    table = as_rows(rows, 2 * dim + 1, what="atoms")
    return make_lifted(zip(table[:, :dim], table[:, dim:-1], table[:, -1]),
                       dim=dim)


def lifted_to_dict(lifted: LiftedMeasure) -> dict:
    return {"schema": 1, "dim": lifted.dim,
            "atoms": np.column_stack([lifted.positions, lifted.velocities,
                                      lifted.masses]).tolist()}


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
