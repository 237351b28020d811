"""Point cloud ingestion, 2D Delaunay triangulation, circumradius filtrations.

The triangulation is incremental insertion with cavity retriangulation. The
enclosing construction uses three symbolic vertices at infinity, so predicates
involving them are evaluated as limits rather than with huge finite
coordinates. Near-degenerate predicate values (within a relative band of
1e-12) are resolved by a deterministic index-based perturbation of the
paraboloid lifting: lower point ids are lifted infinitesimally lower, which in
particular breaks cocircular ties toward the diagonal through the smallest
vertex id.

The triangles live in numpy arrays: an insertion is one vectorised scan of
all of them plus Python work on its cavity, so the triangulation is quadratic.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .complexes import FilteredComplex, read_complex_json
from .errors import (
    DegeneracyError,
    DimensionError,
    DuplicatePointError,
    InputError,
    ParseError,
)

logger = logging.getLogger(__name__)

EPS_BAND = 1e-12  # relative half-width of the predicate tie band

# Directions of the three vertices at infinity, counterclockwise. The angular
# offset keeps them away from the coordinate axes.
_IDEAL_ANGLES = (1.9, 1.9 + 2.0 * math.pi / 3.0, 1.9 + 4.0 * math.pi / 3.0)
IDEAL_DIRS = tuple((math.cos(a), math.sin(a)) for a in _IDEAL_ANGLES)


# -- point clouds ------------------------------------------------------------


@dataclass(frozen=True)
class PointCloud:
    """Fixed point set with implicit ids 0..n-1 given by row order."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] not in (2, 3):
            raise DimensionError(
                f"point array must be n x 2 or n x 3, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            bad = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
            raise ParseError(f"point {bad} has a non-finite coordinate")
        seen: dict[tuple, int] = {}
        for i, row in enumerate(pts):
            key = tuple(row)
            if key in seen:
                raise DuplicatePointError(
                    f"points {seen[key]} and {i} are identical: {list(row)}"
                )
            seen[key] = i
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)


def load_point_cloud(path) -> PointCloud:
    """Read a headerless CSV of 2D or 3D coordinates, one point per row."""
    rows: list[list[float]] = []
    dim = None
    try:
        fh = open(path)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip().lstrip("﻿")
            if not line:
                continue
            fields = line.split(",")
            if len(fields) not in (2, 3):
                raise ParseError(
                    f"{path}:{lineno}: expected 2 or 3 comma-separated values, "
                    f"got {len(fields)}"
                )
            try:
                vals = [float(f) for f in fields]
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric field in {line!r}") from None
            if not all(math.isfinite(v) for v in vals):
                raise ParseError(f"{path}:{lineno}: non-finite coordinate in {line!r}")
            if dim is None:
                dim = len(vals)
            elif len(vals) != dim:
                raise DimensionError(
                    f"{path}:{lineno}: row has {len(vals)} coordinates, "
                    f"earlier rows have {dim}"
                )
            rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no points found")
    return PointCloud(np.asarray(rows, dtype=float))


def save_point_cloud(points: np.ndarray, path) -> None:
    """Write a headerless coordinate CSV; floats use shortest round-trip form."""
    lines = [",".join(repr(float(c)) for c in row) for row in np.asarray(points)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- predicates --------------------------------------------------------------


def _orient_parts(ax, ay, bx, by, cx, cy):
    t1 = (bx - ax) * (cy - ay)
    t2 = (by - ay) * (cx - ax)
    return t1 - t2, abs(t1) + abs(t2)


def orient_sign(pa, pb, pc) -> int:
    """Sign of the ccw orientation of three points; 0 within the tie band."""
    det, mag = _orient_parts(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1])
    if det > EPS_BAND * mag:
        return 1
    if det < -EPS_BAND * mag:
        return -1
    return 0


def _cross_sign(ux, uy, wx, wy) -> int:
    t1 = ux * wy
    t2 = uy * wx
    det = t1 - t2
    mag = abs(t1) + abs(t2)
    if det > EPS_BAND * mag:
        return 1
    if det < -EPS_BAND * mag:
        return -1
    return 0


def _incircle_parts(a, b, c, p):
    """Translated 3x3 lifted determinant and its magnitude estimate.

    Positive means p strictly inside the circumcircle of ccw triangle (a,b,c).
    """
    ax, ay = a[0] - p[0], a[1] - p[1]
    bx, by = b[0] - p[0], b[1] - p[1]
    cx, cy = c[0] - p[0], c[1] - p[1]
    za = ax * ax + ay * ay
    zb = bx * bx + by * by
    zc = cx * cx + cy * cy
    det = ax * (by * zc - cy * zb) - ay * (bx * zc - cx * zb) + za * (bx * cy - cx * by)
    mag = (
        abs(ax) * (abs(by * zc) + abs(cy * zb))
        + abs(ay) * (abs(bx * zc) + abs(cx * zb))
        + abs(za) * (abs(bx * cy) + abs(cx * by))
    )
    return det, mag


# slot states of _Triangulator: 1 + the number of ideal vertices, or dead
_DEAD, _FINITE, _ONE_IDEAL, _MULTI_IDEAL = 0, 1, 2, 3


class _Triangulator:
    """Incremental Delaunay of a fixed 2D point set.

    Triangles are ccw vertex triples; ids -1, -2, -3 denote the three
    vertices at infinity (directions IDEAL_DIRS[0..2]). Slot i of the growable
    arrays holds triangle verts[i], its state and, in column xy[:, i], the
    coordinates of its finite vertices a, b, c (of a one-ideal triangle, its
    finite edge a -> b as `_incircle` rotates it). Each insertion scans all
    slots once, kills the cavity's slots and appends the new triangles, so
    the whole triangulation stays quadratic.
    """

    def __init__(self, pts: np.ndarray):
        self.pts = pts
        self.verts = np.array([(-1, -2, -3)], dtype=np.int64)
        self.state = np.array([_MULTI_IDEAL], dtype=np.int8)
        self.xy = np.zeros((6, 1))  # ax, ay, bx, by, cx, cy
        self.size = 1
        self.ties = 0  # in-band evaluations settled by the scalar predicates
        self.compactions = 0

    # id -> ideal direction index
    @staticmethod
    def _ideal(v: int) -> int:
        return -v - 1

    # -- tie-broken predicates ----------------------------------------

    def _incircle_finite(self, tri, pid, p) -> bool:
        a, b, c = tri
        det, mag = _incircle_parts(self.pts[a], self.pts[b], self.pts[c], p)
        band = EPS_BAND * mag
        if det > band:
            return True
        if det < -band:
            return False
        # Index-based perturbation: the z coordinate of the paraboloid lift
        # of point i is lowered by eps^(i+1). The perturbed determinant sign
        # is decided by the cofactor of the smallest id with nonzero
        # orientation cofactor.
        pa, pb, pc = self.pts[a], self.pts[b], self.pts[c]
        cands = sorted(
            [
                (a, +1, (pb, pc, p)),
                (b, -1, (pa, pc, p)),
                (c, +1, (pa, pb, p)),
                (pid, -1, (pa, pb, pc)),
            ]
        )
        for _, parity, (x, y, z) in cands:
            s = parity * orient_sign(x, y, z)
            if s:
                return s < 0
        return False

    def _incircle_one_ideal(self, a, b, ideal, pid, p) -> bool:
        """Triangle (a, b, infinity): the limiting circumdisk is the open
        half-plane left of the directed edge a -> b."""
        pa, pb = self.pts[a], self.pts[b]
        o = orient_sign(pa, pb, p)
        if o:
            return o > 0
        dcx, dcy = IDEAL_DIRS[ideal]
        # Second-order term of the determinant in the distance to infinity.
        ax, ay = pa[0] - p[0], pa[1] - p[1]
        bx, by = pb[0] - p[0], pb[1] - p[1]
        a2 = ax * ax + ay * ay
        b2 = bx * bx + by * by
        t1 = dcx * (ay * b2 - by * a2)
        t2 = dcy * (ax * b2 - bx * a2)
        tv = t1 - t2
        mag = abs(t1) + abs(t2)
        if tv > EPS_BAND * mag:
            return True
        if tv < -EPS_BAND * mag:
            return False
        # Index perturbation at leading order in the distance to infinity.
        cands = sorted(
            [
                (a, _cross_sign(dcx, dcy, p[0] - pb[0], p[1] - pb[1])),
                (b, -_cross_sign(dcx, dcy, p[0] - pa[0], p[1] - pa[1])),
                (pid, -_cross_sign(pb[0] - pa[0], pb[1] - pa[1], dcx, dcy)),
            ]
        )
        for _, s in cands:
            if s:
                return s < 0
        return False

    def _incircle_two_ideal(self, a, iu, iv, pid, p) -> bool:
        """Triangle (a, infinity_u, infinity_v): the limiting circumdisk is
        the open half-plane through a spanned by the chord direction v - u."""
        pa = self.pts[a]
        ux, uy = IDEAL_DIRS[iu]
        vx, vy = IDEAL_DIRS[iv]
        s = _cross_sign(pa[0] - p[0], pa[1] - p[1], ux - vx, uy - vy)
        if s:
            return s > 0
        c2 = _cross_sign(ux, uy, vx, vy)
        if pid < a:
            return c2 > 0
        return c2 < 0

    def _incircle(self, tri, pid, p) -> bool:
        ideals = [v for v in tri if v < 0]
        if not ideals:
            return self._incircle_finite(tri, pid, p)
        if len(ideals) == 3:
            return True
        # Rotate cyclically (parity preserving) into canonical positions.
        t = list(tri)
        if len(ideals) == 1:
            while t[2] >= 0:
                t = [t[1], t[2], t[0]]
            return self._incircle_one_ideal(t[0], t[1], self._ideal(t[2]), pid, p)
        while t[0] < 0:
            t = [t[1], t[2], t[0]]
        return self._incircle_two_ideal(
            t[0], self._ideal(t[1]), self._ideal(t[2]), pid, p
        )

    # -- insertion ----------------------------------------------------

    def insert(self, pid: int) -> None:
        p = self.pts[pid]
        px, py = p
        state, xy = self.state[:self.size], self.xy[:, :self.size]
        # _incircle_parts on every slot; only finite slots use the result
        ax, ay, bx, by, cx, cy = xy - np.concatenate((p, p, p))[:, None]
        za = ax ** 2 + ay ** 2
        zb = bx ** 2 + by ** 2
        zc = cx ** 2 + cy ** 2
        byzc, cyzb, bxzc, cxzb, bxcy, cxby = by * zc, cy * zb, bx * zc, cx * zb, bx * cy, cx * by
        det = ax * (byzc - cyzb) - ay * (bxzc - cxzb) + za * (bxcy - cxby)
        mag = (
            np.abs(ax) * (np.abs(byzc) + np.abs(cyzb))
            + np.abs(ay) * (np.abs(bxzc) + np.abs(cxzb))
            + za * (np.abs(bxcy) + np.abs(cxby))
        )
        band = EPS_BAND * mag
        finite = state == _FINITE
        bad = finite & (det > band)
        ties = np.flatnonzero(finite & (np.abs(det) <= band))
        # orient_sign(a, b, p) on the finite edge of each one-ideal slot
        one = np.flatnonzero(state == _ONE_IDEAL)
        ex, ey, fx, fy = xy[:4, one]
        t1 = (fx - ex) * (py - ey)
        t2 = (fy - ey) * (px - ex)
        odet = t1 - t2
        oband = EPS_BAND * (np.abs(t1) + np.abs(t2))
        bad[one] = odet > oband
        one_ties = one[np.abs(odet) <= oband]
        self.ties += len(ties) + len(one_ties)
        scalar = np.concatenate([ties, one_ties, np.flatnonzero(state == _MULTI_IDEAL)])
        for i, tri in zip(scalar.tolist(), self.verts[scalar].tolist()):
            bad[i] = self._incircle(tuple(tri), pid, p)

        cavity_idx = np.flatnonzero(bad)
        if not len(cavity_idx):
            raise DegeneracyError(f"point {pid} could not be located in the triangulation")
        cavity = self.verts[cavity_idx].tolist()
        state[cavity_idx] = _DEAD
        edges = [e for a, b, c in cavity for e in ((a, b), (b, c), (c, a))]
        dead_edges = set(edges)
        self._append([(u, v, pid) for u, v in edges if (v, u) not in dead_edges])

    def _append(self, tris: list[tuple[int, int, int]]) -> None:
        """Store triangles (u, v, w) whose last vertex is finite."""
        k = len(tris)
        if self.size + k > len(self.state):
            self._compact(k)
        coords = []
        for u, v, w in tris:
            a, b = (v, w) if u < 0 else (w, u) if v < 0 else (u, v)
            coords.append((a if a >= 0 else w, b, w))  # unused entries repeat w
        s, self.size = self.size, self.size + k
        self.verts[s:s + k] = tris
        self.state[s:s + k] = [_FINITE + (u < 0) + (v < 0) for u, v, _ in tris]
        self.xy[:, s:s + k] = self.pts[coords].reshape(k, 6).T

    def _compact(self, extra: int) -> None:
        """Move the live slots to the front, growing so that half stays free."""
        live = np.flatnonzero(self.state[:self.size] != _DEAD)
        cap = max(len(self.state), 2 * (len(live) + extra))
        old = self.verts[live], self.state[live], self.xy[:, live]
        self.verts = np.zeros((cap, 3), dtype=np.int64)
        self.state = np.zeros(cap, dtype=np.int8)
        self.xy = np.zeros((6, cap))
        self.size = m = len(live)
        self.verts[:m], self.state[:m], self.xy[:, :m] = old
        self.compactions += 1

    def finite_triangles(self) -> list[tuple[int, int, int]]:
        n = self.size
        tris = np.sort(self.verts[:n][self.state[:n] == _FINITE], axis=1)
        return sorted(set(map(tuple, tris.tolist())))


@dataclass(frozen=True)
class Triangulation:
    """Delaunay triangulation: simplices as ascending vertex-id tuples."""

    points: np.ndarray
    edges: list[tuple[int, int]]
    triangles: list[tuple[int, int, int]]


def delaunay_2d(cloud: PointCloud) -> Triangulation:
    """Delaunay triangulation of a 2D cloud by incremental insertion.

    Cocircular ties are broken deterministically by the index perturbation,
    which selects the diagonal through the smallest vertex id.
    """
    if cloud.dim != 2:
        raise DimensionError(f"triangulation requires 2D points, got {cloud.dim}D")
    pts = cloud.points
    n = len(pts)
    if n < 3:
        raise DegeneracyError(f"triangulation requires at least 3 points, got {n}")
    if _all_collinear(pts):
        raise DegeneracyError("input points are collinear")

    tr = _Triangulator(pts)
    for pid in range(n):
        tr.insert(pid)
    triangles = tr.finite_triangles()

    covered = np.zeros(n, dtype=bool)
    for t in triangles:
        covered[list(t)] = True
    if not covered.all():
        missing = int(np.flatnonzero(~covered)[0])
        raise DegeneracyError(f"point {missing} is not covered by any triangle")

    edges = sorted({(t[i], t[j]) for t in triangles for i, j in ((0, 1), (0, 2), (1, 2))})
    logger.debug(
        "delaunay_2d: %d points, %d triangles, %d tie-band evaluations, %d compactions",
        n, len(triangles), tr.ties, tr.compactions,
    )
    return Triangulation(points=pts, edges=edges, triangles=triangles)


def _all_collinear(pts: np.ndarray) -> bool:
    base = pts[0]
    ref = None
    for i in range(1, len(pts)):
        if ref is None:
            ref = i
            continue
        if orient_sign(base, pts[ref], pts[i]) != 0:
            return False
    return True


# -- circumradius and filtration ---------------------------------------------


def circumradius(vertices) -> float:
    """Radius of the sphere through all given points (their circumsphere).

    Accepts k+1 affinely independent points in dimension d with k <= d. For
    an obtuse triangle this is the radius of the circle through all three
    vertices, which exceeds half the longest edge.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2:
        raise DimensionError("vertices must be a 2D array of coordinates")
    m, d = v.shape
    if d not in (2, 3):
        raise DimensionError(f"supported ambient dimensions are 2 and 3, got {d}")
    if m > d + 1:
        raise DimensionError(
            f"{m} vertices cannot be affinely independent in dimension {d}"
        )
    if m == 1:
        return 0.0
    u = v[1:] - v[0]
    gram = u @ u.T
    norms = np.sqrt(np.diag(gram))
    thresh = (EPS_BAND * float(np.prod(norms))) ** 2
    if float(np.linalg.det(gram)) <= thresh:
        raise DegeneracyError(
            f"circumradius of affinely dependent vertices {v.tolist()}"
        )
    x = np.linalg.solve(2.0 * gram, np.diag(gram))
    center = x @ u
    return float(np.linalg.norm(center))


def filtration_values(tri: Triangulation) -> FilteredComplex:
    """Assign each simplex its circumradius, then enforce monotonicity by
    raising every simplex to the maximum over its faces. Vertices enter at 0."""
    pts = tri.points
    simplices: list[tuple[int, ...]] = [(i,) for i in range(len(pts))]
    values: list[float] = [0.0] * len(pts)

    edge_val: dict[tuple[int, int], float] = {}
    for e in tri.edges:
        r = float(np.linalg.norm(pts[e[0]] - pts[e[1]]) / 2.0)
        edge_val[e] = r
        simplices.append(e)
        values.append(r)

    for t in tri.triangles:
        r = circumradius(pts[list(t)])
        faces = ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
        r = max(r, max(edge_val[f] for f in faces))
        simplices.append(t)
        values.append(r)

    return FilteredComplex.from_simplices(simplices, values, points=pts)


def import_complex(path) -> FilteredComplex:
    """Load a filtered complex from JSON, validating closure and monotonicity."""
    return read_complex_json(path)
