"""Point cloud ingestion, 2D Delaunay triangulation, circumradius filtrations.

The triangulation comes from Qhull (scipy.spatial.Delaunay) when one
vectorised pass over its output, with the same predicates and tie band as
below, proves it the unique Delaunay triangulation. That takes O(n log n)
and covers point sets in general position.

Otherwise (cocircular or collinear points, or any predicate value inside the
band) it is incremental insertion with cavity retriangulation. The outside
of the convex hull is covered by ghost triangles (a, b, -1), one per hull
edge, that share a single ghost vertex -1. A ghost's circumdisk is the open
half-plane beyond its edge, so it conflicts with a point strictly outside the
edge's line or strictly inside the edge itself. Near-degenerate predicate
values (within a relative band of 1e-12) are resolved by a deterministic
index-based perturbation of the paraboloid lifting (Edelsbrunner & Muecke,
ACM TOG 1990): lower point ids are lifted infinitesimally lower, which in
particular breaks cocircular ties toward the diagonal through the smallest
vertex id. Its triangles live in numpy arrays: an insertion is one vectorised
scan of all of them plus Python work on its cavity, so this path is quadratic.
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
    """Read a headerless CSV of 2D or 3D coordinates, one point per row.

    Blank lines and everything after a ``#`` are skipped; errors name the
    line of the file.
    """
    rows: list[list[float]] = []
    dim = None
    try:
        fh = open(path)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip().lstrip("﻿")
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


# slot states of _Triangulator
_DEAD, _FINITE, _GHOST = 0, 1, 2


class _Triangulator:
    """Incremental Delaunay of a fixed 2D point set.

    Triangles are ccw vertex triples. Id -1 is the ghost vertex: the ghost
    triangle (a, b, -1) covers the outside of the hull edge a -> b, whose
    triangle lies to its right. Slot i of the growable arrays holds triangle
    verts[i], its state and, in column xy[:, i], the coordinates of its
    vertices a, b, c (a ghost's c is the last point, id -1, and is never
    read). Each insertion scans all slots once, kills the cavity's slots and
    appends the new triangles, so the whole triangulation stays quadratic.
    """

    def __init__(self, pts: np.ndarray, seed: tuple[int, int, int]):
        self.pts = pts
        self.verts = np.zeros((0, 3), dtype=np.int64)
        self.state = np.zeros(0, dtype=np.int8)
        self.xy = np.zeros((6, 0))  # ax, ay, bx, by, cx, cy
        self.size = 0
        self.ties = 0  # in-band evaluations settled by a tie rule
        self.compactions = 0
        a, b, c = seed
        self._append([(a, b, c), (b, a, -1), (c, b, -1), (a, c, -1)])

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
        # A ghost (a, b, -1) conflicts when orient_sign(a, b, p) > 0 or, in
        # the tie band, when p lies strictly between a and b.
        ghost = np.flatnonzero(state == _GHOST)
        ex, ey, fx, fy = xy[:4, ghost]
        t1 = (fx - ex) * (py - ey)
        t2 = (fy - ey) * (px - ex)
        odet = t1 - t2
        oband = EPS_BAND * (np.abs(t1) + np.abs(t2))
        on_line = np.abs(odet) <= oband
        between = ((px - ex) * (fx - ex) + (py - ey) * (fy - ey) > 0) & (
            (px - fx) * (ex - fx) + (py - fy) * (ey - fy) > 0
        )
        bad[ghost] = (odet > oband) | (on_line & between)
        self.ties += len(ties) + int(on_line.sum())
        for i, tri in zip(ties.tolist(), self.verts[ties].tolist()):
            bad[i] = self._incircle_finite(tri, pid, p)

        cavity_idx = np.flatnonzero(bad)
        if not len(cavity_idx):
            raise DegeneracyError(f"point {pid} could not be located in the triangulation")
        cavity = self.verts[cavity_idx].tolist()
        state[cavity_idx] = _DEAD
        edges = [e for a, b, c in cavity for e in ((a, b), (b, c), (c, a))]
        dead_edges = set(edges)
        # new triangles (u, v, pid), rotated so that the ghost vertex comes last
        self._append([
            (v, pid, u) if u < 0 else (pid, u, v) if v < 0 else (u, v, pid)
            for u, v in edges
            if (v, u) not in dead_edges
        ])

    def _append(self, tris: list[tuple[int, int, int]]) -> None:
        """Store ccw triangles whose ghost vertex, if any, comes last."""
        k = len(tris)
        if self.size + k > len(self.state):
            self._compact(k)
        s, self.size = self.size, self.size + k
        self.verts[s:s + k] = tris
        self.state[s:s + k] = [_GHOST if w < 0 else _FINITE for _, _, w in tris]
        self.xy[:, s:s + k] = self.pts[self.verts[s:s + k]].reshape(k, 6).T

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

    def hull_edges(self) -> int:
        return int(np.count_nonzero(self.state[:self.size] == _GHOST))


def _certified_qhull(pts: np.ndarray):
    """Qhull's triangles, if one pass proves them the unique Delaunay triangulation.

    Returns ``(ccw triangles, hull edge count, None)`` when every check holds,
    else ``(None, 0, (check, count))`` naming the first check that failed and
    how many of its items failed it:

    1. ``qhull``: Qhull raised no error and every point is a triangle vertex;
    2. ``orientation``: no triangle's orientation lies in the tie band;
    3. ``incircle``: every interior edge is held reversed by its neighbour,
       and the neighbour's far vertex is strictly outside the circumcircle;
    4. ``hull``: the edges without a neighbour form one ccw cycle that turns
       strictly left at every vertex and winds once.

    Outside the band a value's float sign is its exact sign. By checks 2-4
    the triangles are positive and their boundary is one convex polygon
    traversed once, so they tile that polygon without overlap, and by check 1
    it is the convex hull of all the points. A tiling whose interior edges
    are all strictly locally Delaunay has strictly empty circumcircles, so it
    is the unique Delaunay triangulation.
    """
    from scipy.spatial import Delaunay, QhullError  # 0.1 s to import; paid here only

    n = len(pts)
    try:
        # Qhull's tolerances are absolute, so give it the cloud centred; the
        # checks below read the original coordinates
        dt = Delaunay(pts - (pts.min(axis=0) + pts.max(axis=0)) / 2)
    except QhullError:
        return None, 0, ("qhull", n)
    tris, nb = dt.simplices.astype(np.int64), dt.neighbors.astype(np.int64)
    # Qhull's "coplanar" points, left out for precision, are among these
    unused = n - np.count_nonzero(np.bincount(tris.ravel(), minlength=n))
    if unused:
        return None, 0, ("qhull", unused)

    x, y = pts[tris, 0].T, pts[tris, 1].T
    det, mag = _orient_parts(x[0], y[0], x[1], y[1], x[2], y[2])
    flat = np.abs(det) <= EPS_BAND * mag
    if flat.any():
        return None, 0, ("orientation", int(flat.sum()))
    # turn clockwise rows ccw; neighbour i stays opposite vertex i
    cw = det < 0
    tris[cw], nb[cw] = tris[cw][:, [0, 2, 1]], nb[cw][:, [0, 2, 1]]
    # the edge opposite vertex i runs nxt[:, i] -> prv[:, i] around its triangle
    nxt, prv = np.roll(tris, -1, axis=1), np.roll(tris, -2, axis=1)

    t, i = np.nonzero(nb >= 0)
    j = nb[t, i]
    u, w = nxt[t, i], prv[t, i]
    held = (nxt[j] == w[:, None]) & (prv[j] == u[:, None])
    k = held.argmax(axis=1)
    det, mag = _incircle_parts(*(pts[tris[t, c]].T for c in range(3)), pts[tris[j, k]].T)
    bad = ~held.any(axis=1) | (nb[j, k] != t) | (det >= -EPS_BAND * mag)
    if bad.any():
        pairs = np.unique(np.minimum(t, j)[bad] * len(tris) + np.maximum(t, j)[bad])
        return None, 0, ("incircle", len(pairs))

    t, i = np.nonzero(nb < 0)
    u, w = nxt[t, i], prv[t, i]
    h = len(u)
    starts = np.full(n, -1)
    starts[u] = np.arange(h)
    if not np.array_equal(np.unique(u), np.sort(w)):  # one edge out of, one into each vertex
        return None, 0, ("hull", h)
    after = starts[w]
    det, mag = _orient_parts(*pts[u].T, *pts[w].T, *pts[w[after]].T)
    concave = det <= EPS_BAND * mag
    if concave.any():
        return None, 0, ("hull", int(concave.sum()))
    # With every turn strictly left, an edge's direction leaves the lower
    # half-plane for the upper one once per revolution of each cycle. The
    # signs of rounded differences are exact.
    dx, dy = (pts[w] - pts[u]).T
    lower = (dy < 0) | ((dy == 0) & (dx < 0))
    if np.count_nonzero(lower & ~lower[after]) != 1:
        return None, 0, ("hull", h)
    return tris, h, None


@dataclass(frozen=True)
class Triangulation:
    """Delaunay triangulation: simplices as ascending vertex-id tuples."""

    points: np.ndarray
    edges: list[tuple[int, int]]
    triangles: list[tuple[int, int, int]]


def _incremental(pts: np.ndarray) -> _Triangulator:
    """Insert every point in id order, starting from points 0, 1 and the
    first point off their line."""
    n = len(pts)
    third = next((i for i in range(2, n) if orient_sign(pts[0], pts[1], pts[i])), None)
    if third is None:
        raise DegeneracyError("input points are collinear")
    a, b = (0, 1) if orient_sign(pts[0], pts[1], pts[third]) > 0 else (1, 0)
    tr = _Triangulator(pts, (a, b, third))
    for pid in range(2, n):
        if pid != third:
            tr.insert(pid)
    return tr


def delaunay_2d(cloud: PointCloud) -> Triangulation:
    """Delaunay triangulation of a 2D cloud.

    Qhull (``scipy.spatial.Delaunay``) triangulates first, and its triangles
    are kept only when ``_certified_qhull`` proves them the unique Delaunay
    triangulation; the tests check that the incremental code returns the same
    triangles there. Otherwise (cocircular or collinear points, or values
    within the tie band) incremental insertion runs, and the index
    perturbation breaks ties: a cocircular quadrilateral takes the diagonal
    through its smallest vertex id. The DEBUG log line names the path and,
    on a fallback, the first certificate check that failed.
    """
    if cloud.dim != 2:
        raise DimensionError(f"triangulation requires 2D points, got {cloud.dim}D")
    pts = cloud.points
    n = len(pts)
    if n < 3:
        raise DegeneracyError(f"triangulation requires at least 3 points, got {n}")
    tris, hull, failed = _certified_qhull(pts)
    if failed is None:
        # every value of the certificate lies outside the tie band
        path, ties, compactions = "qhull", 0, 0
    else:
        tr = _incremental(pts)
        tris = np.asarray(tr.finite_triangles(), dtype=np.int64).reshape(-1, 3)
        hull, ties, compactions = tr.hull_edges(), tr.ties, tr.compactions
        path = "incremental (certificate check %s failed for %d)" % failed

    tris = np.sort(tris, axis=1)
    tris = tris[np.lexsort(tris.T[::-1])]
    covered = np.zeros(n, dtype=bool)
    covered[tris] = True
    if not covered.all():
        missing = int(np.flatnonzero(~covered)[0])
        raise DegeneracyError(f"point {missing} is not covered by any triangle")
    # ids are below n, so the keys a*n + b are exact and ascend with (a, b)
    keys = np.unique(tris[:, [0, 0, 1]] * n + tris[:, [1, 2, 2]])
    edges = np.column_stack(np.divmod(keys, n))
    logger.debug(
        "delaunay_2d: path=%s, %d points, %d triangles, %d hull edges, "
        "%d tie-band evaluations, %d compactions",
        path, n, len(tris), hull, ties, compactions,
    )
    return Triangulation(
        points=pts,
        edges=list(map(tuple, edges.tolist())),
        triangles=list(map(tuple, tris.tolist())),
    )


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
    return float(_circumradii(v[None])[0])


def _circumradii(v: np.ndarray) -> np.ndarray:
    """Circumradii of a (T, m, d) stack of simplices with 2 <= m <= d + 1.

    The arithmetic is stacked matrix products, which round as the per-simplex
    products do; einsum or norm(axis=...) would not.
    """
    u = v[:, 1:] - v[:, :1]
    gram = u @ u.transpose(0, 2, 1)
    diag = np.diagonal(gram, axis1=1, axis2=2)
    thresh = (EPS_BAND * np.prod(np.sqrt(diag), axis=1)) ** 2
    flat = np.linalg.det(gram) <= thresh
    if flat.any():
        raise DegeneracyError(
            f"circumradius of affinely dependent vertices {v[np.argmax(flat)].tolist()}"
        )
    x = np.linalg.solve(2.0 * gram, diag[..., None])[..., 0]
    c = (x[:, None, :] @ u)[:, 0]
    return np.sqrt((c[:, None, :] @ c[:, :, None])[:, 0, 0])


def filtration_values(tri: Triangulation) -> FilteredComplex:
    """Assign each simplex its circumradius, then enforce monotonicity by
    raising every triangle to the maximum over its edges. Vertices enter at 0."""
    pts = tri.points
    n = len(pts)
    edges = np.asarray(tri.edges, dtype=np.int64).reshape(-1, 2)
    tris = np.asarray(tri.triangles, dtype=np.int64).reshape(-1, 3)
    edge_r = _circumradii(pts[edges])
    # each triangle's edges (a, b), (a, c), (b, c); ids are below n, so the
    # keys a*n + b are exact and ascend with the sorted edge list
    pairs = tris[:, [0, 0, 1]] * n + tris[:, [1, 2, 2]]
    faces = np.searchsorted(edges[:, 0] * n + edges[:, 1], pairs)
    tri_r = np.maximum(_circumradii(pts[tris]), edge_r[faces].max(axis=1))
    return FilteredComplex(
        {0: np.arange(n)[:, None], 1: edges, 2: tris},
        {0: np.zeros(n), 1: edge_r, 2: tri_r},
        points=pts,
    )


def import_complex(path) -> FilteredComplex:
    """Load a filtered complex from JSON, validating closure and monotonicity."""
    return read_complex_json(path)
