"""Filtered simplicial complexes, sublevel slices, and boundary operators.

Each dimension k is an n_k x (k+1) int64 array of ascending vertex ids, rows
in lexicographic order, with a parallel float array of filtration values, so a
sublevel slice is just an index array per dimension. Validation finds every
simplex's faces once and keeps them as a face table of row indices into
dimension k-1; a slice's boundary matrix is that table restricted to the
slice's rows and renumbered. `simplices(k)` hands the rows out as tuples. All
orientation bookkeeping uses the ascending-vertex convention, which makes
inclusion maps between slices sign-free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from ._files import write_json, write_text
from .errors import (
    ClosureError,
    DimensionError,
    InputError,
    LineageError,
    MonotonicityError,
    ParseError,
)

Simplex = tuple[int, ...]


def _tuples(rows: np.ndarray) -> list[Simplex]:
    return list(map(tuple, rows.tolist()))


def _find_rows(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Row index of each query in a lexicographically sorted, duplicate-free
    table, or -1 where it is absent.

    One stable lexsort merges table and queries, so a table row sorts ahead of
    the queries equal to it and each query takes the index of its group's first
    row. Only comparisons are made, so any int64 vertex ids are exact.
    """
    both = np.concatenate([table, queries])
    order = np.lexsort(both[:, ::-1].T)
    ranked = both[order]
    starts = np.ones(len(both), dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    leader = order[starts][np.cumsum(starts) - 1]
    is_query = order >= len(table)
    out = np.empty(len(queries), dtype=np.int64)
    out[order[is_query] - len(table)] = np.where(leader < len(table), leader, -1)[is_query]
    return out


class FilteredComplex:
    """A finite simplicial complex with one filtration value per simplex.

    Invariants enforced at construction: rows sorted and duplicate-free,
    closed under faces, filtration value of a simplex is at least the value of
    every face, vertices carry value 0. The face table `_faces[k]` has entry
    (j, c) = row in dimension k-1 of simplex j's face omitting v_(k-c); each
    of its rows ascends.
    """

    def __init__(
        self,
        simplices_by_dim: dict[int, Sequence[Sequence[int]] | np.ndarray],
        values_by_dim: dict[int, Sequence[float] | np.ndarray],
        points: np.ndarray | None = None,
    ):
        self._simplices: dict[int, np.ndarray] = {}
        self._values: dict[int, np.ndarray] = {}
        for k in sorted(simplices_by_dim):
            rows = np.asarray(simplices_by_dim[k], dtype=np.int64).reshape(-1, k + 1)
            vals = np.asarray(values_by_dim[k], dtype=float)
            if len(rows) != len(vals):
                raise InputError(f"dimension {k}: {len(rows)} simplices but {len(vals)} values")
            order = np.lexsort(rows[:, ::-1].T)
            rows, vals = rows[order], vals[order]
            dup = np.flatnonzero(np.all(rows[1:] == rows[:-1], axis=1))
            if len(dup):
                raise InputError(f"duplicate simplex {rows[dup[0]].tolist()} in input")
            self._simplices[k] = rows
            self._values[k] = vals
        self.points = points
        self._faces: dict[int, np.ndarray] = {}
        self._validate()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_simplices(
        cls,
        simplices: Iterable[Sequence[int]],
        values: Iterable[float],
        points: np.ndarray | None = None,
    ) -> "FilteredComplex":
        """Build a complex from parallel simplex/value sequences.

        Vertices may be omitted; any vertex referenced by a higher simplex is
        implied with filtration value 0.
        """
        by_dim: dict[int, list[Sequence[int]]] = {}
        val_by_dim: dict[int, list[float]] = {}
        for raw, v in zip(simplices, values):
            if len(raw) == 0:
                raise ParseError("empty simplex in input")
            by_dim.setdefault(len(raw) - 1, []).append(raw)
            val_by_dim.setdefault(len(raw) - 1, []).append(v)

        try:
            arrays = {k: np.asarray(by_dim[k], dtype=np.int64).reshape(-1, k + 1) for k in by_dim}
        except OverflowError:
            raise ParseError("vertex ids must fit in a signed 64-bit integer") from None
        for rows in arrays.values():
            bad = np.flatnonzero(np.any(rows[:, 1:] <= rows[:, :-1], axis=1))
            if len(bad):
                raise ParseError(
                    f"simplex {rows[bad[0]].tolist()} is not a strictly ascending vertex list"
                )

        # Imply any vertex mentioned only as part of a higher simplex.
        present = arrays.get(0, np.zeros((0, 1), dtype=np.int64))
        mentioned = np.concatenate([present.ravel(), *(rows.ravel() for rows in arrays.values())])
        implied = np.setdiff1d(mentioned, present)
        if len(implied):
            arrays[0] = np.concatenate([present, implied[:, None]])
            val_by_dim[0] = [*val_by_dim.get(0, []), *[0.0] * len(implied)]
        return cls(arrays, val_by_dim, points=points)

    def _validate(self) -> None:
        if 0 in self._values and len(self._values[0]) and np.any(self._values[0] != 0.0):
            bad = int(np.argmax(self._values[0] != 0.0))
            raise MonotonicityError(
                f"vertex {self._simplices[0][bad][0]} carries nonzero filtration value "
                f"{self._values[0][bad]}"
            )
        for k in self.dims():
            if k == 0:
                continue
            simps = self._simplices[k]
            vals = self._values[k]
            below = self._simplices.get(k - 1, np.zeros((0, k), dtype=np.int64))
            # column c omits v_(k-c)
            omit = [np.delete(simps, k - c, axis=1) for c in range(k + 1)]
            faces = _find_rows(below, np.concatenate(omit)).reshape(k + 1, -1).T
            missing = faces < 0
            face_vals = np.append(self.values(k - 1), -np.inf)[faces]
            bad = missing | (face_vals > vals[:, None])
            if bad.any():
                # report the first defect in simplex order, omitting v_0 first
                j, i = divmod(int(np.argmax(bad[:, ::-1])), k + 1)
                c = k - i
                s, face = simps[j].tolist(), omit[c][j].tolist()
                if missing[j, c]:
                    raise ClosureError(f"simplex {s} present but its face {face} is missing")
                raise MonotonicityError(
                    f"simplex {s} has value {vals[j]} but its face "
                    f"{face} has larger value {face_vals[j, c]}"
                )
            self._faces[k] = faces

    # -- queries -----------------------------------------------------------

    @property
    def dim(self) -> int:
        """Largest simplex dimension present."""
        return max(self._simplices) if self._simplices else -1

    def dims(self) -> list[int]:
        return sorted(self._simplices)

    def simplices(self, k: int) -> list[Simplex]:
        return _tuples(self._simplices.get(k, np.zeros((0, k + 1), dtype=np.int64)))

    def values(self, k: int) -> np.ndarray:
        return self._values.get(k, np.zeros(0))

    def n_simplices(self, k: int) -> int:
        return len(self._simplices.get(k, ()))

    @property
    def max_value(self) -> float:
        vals = [v.max() for v in self._values.values() if len(v)]
        return float(max(vals)) if vals else 0.0

    def distinct_values(self) -> np.ndarray:
        """All distinct filtration values, ascending."""
        if not self._values:
            return np.zeros(0)
        return np.unique(np.concatenate([v for v in self._values.values()]))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        simplices = []
        values = []
        for k in sorted(self._simplices):
            simplices.extend(self._simplices[k].tolist())
            values.extend(self._values[k].tolist())
        out = {"simplices": simplices, "values": values}
        if self.points is not None:
            out["points"] = [[float(c) for c in row] for row in self.points]
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, FilteredComplex):
            return NotImplemented
        if self.dims() != other.dims():
            return False
        return all(
            np.array_equal(self._simplices[k], other._simplices[k])
            and np.array_equal(self._values[k], other._values[k])
            for k in self._simplices
        )


def sublevel(fc: FilteredComplex, t: float) -> "ComplexSlice":
    """All simplices with filtration value <= t, as a slice of the parent.

    Face-closure of the slice is inherited from filtration monotonicity.
    """
    t = float(t)
    if not np.isfinite(t):
        raise InputError(f"threshold must be finite, got {t}")
    indices = {
        k: np.flatnonzero(fc.values(k) <= t) for k in fc.dims()
    }
    return ComplexSlice(parent=fc, t=t, indices=indices)


@dataclass
class ComplexSlice:
    """A sublevel set of a parent complex, stored as per-dimension ascending
    index arrays into the parent's simplex rows (parent order preserved)."""

    parent: FilteredComplex
    t: float
    indices: dict[int, np.ndarray]

    def n_simplices(self, k: int) -> int:
        return len(self.indices.get(k, ()))

    def simplices(self, k: int) -> list[Simplex]:
        if k not in self.indices:
            return []
        return _tuples(self.parent._simplices[k][self.indices[k]])

    def values(self, k: int) -> np.ndarray:
        return self.parent.values(k)[self.indices.get(k, np.zeros(0, dtype=int))]


@dataclass(frozen=True)
class SparseSignMatrix:
    """Signed incidence matrix in coordinate form, entries sorted by column
    then row. Values are exactly +1/-1; arithmetic stays in integers."""

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    signs: np.ndarray

    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "SparseSignMatrix":
        """The n_rows x n_cols matrix with no entries."""
        none = np.zeros(0, dtype=np.int64)
        return cls(n_rows=n_rows, n_cols=n_cols, rows=none, cols=none, signs=none)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.int64)
        out[self.rows, self.cols] = self.signs
        return out

    def to_csc(self) -> sp.csc_matrix:
        return sp.csc_matrix(
            (self.signs.astype(np.int64), (self.rows, self.cols)),
            shape=(self.n_rows, self.n_cols),
        )

    @property
    def nnz(self) -> int:
        return len(self.signs)

    def write_csv(self, path) -> None:
        """Coordinate triplets as row,col,sign with a header line."""
        lines = ["row,col,sign"]
        for r, c, s in zip(self.rows, self.cols, self.signs):
            lines.append(f"{int(r)},{int(c)},{int(s)}")
        write_text(path, "\n".join(lines) + "\n")


def boundary_matrix(sl: ComplexSlice, k: int) -> SparseSignMatrix:
    """Boundary operator from dimension-k chains to (k-1)-chains.

    Column j holds the faces of the j-th k-simplex [v0 < ... < vk]; the face
    omitting v_i gets sign (-1)^i. k = 0 yields the empty matrix with zero
    rows, matching the convention that vertex boundaries vanish.
    """
    if k < 0 or k > max(sl.parent.dim, 0):
        raise DimensionError(
            f"boundary dimension {k} outside range 0..{max(sl.parent.dim, 0)}"
        )
    n_cols = sl.n_simplices(k)
    if k == 0:
        return SparseSignMatrix.empty(0, n_cols)
    below = sl.indices.get(k - 1, np.zeros(0, dtype=np.int64))
    faces = sl.parent._faces[k][sl.indices.get(k, np.zeros(0, dtype=np.int64))]
    rows = np.searchsorted(below, faces)
    missing = np.append(below, -1)[rows] != faces
    if missing.any():
        # report the first defect in column order, omitting v_0 first
        j, i = divmod(int(np.argmax(missing[:, ::-1])), k + 1)
        s = sl.simplices(k)[j]
        raise ClosureError(
            f"simplex {list(s)} in slice but its face {list(s[:i] + s[i + 1:])} is not"
        )
    # the face table lists each simplex's faces omitting v_k, ..., v_0, which
    # are ascending rows, so entries come out sorted by column then row
    return SparseSignMatrix(
        n_rows=len(below),
        n_cols=n_cols,
        rows=rows.ravel(),
        cols=np.repeat(np.arange(n_cols, dtype=np.int64), k + 1),
        signs=np.tile((-1) ** np.arange(k, -1, -1, dtype=np.int64), n_cols),
    )


@dataclass(frozen=True)
class IndexMap:
    """Index translation for dimension-k simplices from a smaller slice into
    a larger one; realizes the inclusion by zero padding."""

    k: int
    src_size: int
    dst_size: int
    idx: np.ndarray

    def extend(self, v: np.ndarray) -> np.ndarray:
        """Zero-pad a chain on the source slice to the destination slice."""
        v = np.asarray(v)
        if v.shape[0] != self.src_size:
            raise DimensionError(
                f"vector of length {v.shape[0]} does not match source size {self.src_size}"
            )
        out = np.zeros((self.dst_size,) + v.shape[1:], dtype=float)
        out[self.idx] = v
        return out

    def compose(self, outer: "IndexMap") -> "IndexMap":
        """outer after self: source of self into destination of outer."""
        if self.dst_size != outer.src_size or self.k != outer.k:
            raise LineageError("index maps do not compose")
        return IndexMap(
            k=self.k,
            src_size=self.src_size,
            dst_size=outer.dst_size,
            idx=outer.idx[self.idx],
        )


def inclusion_map(small: ComplexSlice, large: ComplexSlice, k: int) -> IndexMap:
    """Positions of the smaller slice's k-simplices inside the larger slice.

    Both slices must come from the same parent complex with t <= t'; the map
    is strictly increasing because both slices preserve parent order.
    """
    if small.parent is not large.parent:
        raise LineageError("slices do not share a parent complex")
    if small.t > large.t:
        raise LineageError(
            f"inclusion requires source threshold <= destination ({small.t} > {large.t})"
        )
    a = small.indices.get(k, np.zeros(0, dtype=int))
    b = large.indices.get(k, np.zeros(0, dtype=int))
    pos = np.searchsorted(b, a)
    if np.any(pos >= len(b)) or (len(a) and np.any(b[pos] != a)):
        raise LineageError("source slice contains simplices missing from destination")
    return IndexMap(k=k, src_size=len(a), dst_size=len(b), idx=pos.astype(np.int64))


# -- JSON import/export ----------------------------------------------------


def write_complex_json(fc: FilteredComplex, path) -> None:
    write_json(path, fc.to_json_dict())


def read_complex_json(path) -> FilteredComplex:
    """Parse a complex from JSON; validates closure and monotonicity."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(data, dict) or "simplices" not in data or "values" not in data:
        raise ParseError(f"{path}: expected an object with 'simplices' and 'values'")
    simplices = data["simplices"]
    values = data["values"]
    if len(simplices) != len(values):
        raise ParseError(
            f"{path}: {len(simplices)} simplices but {len(values)} values"
        )
    points = None
    if data.get("points") is not None:
        points = np.asarray(data["points"], dtype=float)
        if points.ndim != 2:
            raise ParseError(f"{path}: 'points' must be a list of coordinate rows")
    return FilteredComplex.from_simplices(simplices, values, points=points)
