"""Point cloud ingestion, 2D Delaunay triangulation, circumradius filtrations.

The triangulation starts from one of the exact convex hull: Qhull's
(scipy.spatial.Delaunay) when one vectorised pass shows it valid, else a
lexicographic sweep. Lawson flips then make every interior edge locally
Delaunay. The predicates are exact: a float value outside a relative band of
1e-12 has the exact sign, and a value inside it, or one near overflow or
underflow, is evaluated on integers.
Exact ties (cocircular points) are broken by an index-based perturbation of
the paraboloid lifting (Edelsbrunner & Muecke, ACM TOG 1990), which takes the
diagonal through the smallest vertex id. On points in general position
Qhull's triangles need no flip, and no Python loop runs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._files import fmt_float, write_text
from .complexes import FilteredComplex, read_complex_json
from .errors import (
    DegeneracyError,
    DimensionError,
    DuplicatePointError,
    InputError,
    ParseError,
)

logger = logging.getLogger(__name__)

EPS_BAND = 1e-12  # relative half-width of the predicates' float filter


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
        # a stable sort puts each repeat right after an equal row of lower id
        order = np.lexsort(pts.T[::-1])
        repeats = order[1:][(pts[order[1:]] == pts[order[:-1]]).all(axis=1)]
        if len(repeats):
            i = int(repeats.min())
            first = int(np.flatnonzero((pts == pts[i]).all(axis=1))[0])
            raise DuplicatePointError(
                f"points {first} and {i} are identical: {list(pts[i])}"
            )
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
    lines = [",".join(fmt_float(c) for c in row) for row in np.asarray(points)]
    write_text(path, "\n".join(lines) + "\n")


# -- predicates --------------------------------------------------------------


def _orient_parts(a, b, c):
    """Orientation determinant of (a, b, c), positive when ccw, and its
    magnitude estimate."""
    t1 = (b[0] - a[0]) * (c[1] - a[1])
    t2 = (b[1] - a[1]) * (c[0] - a[0])
    return t1 - t2, abs(t1) + abs(t2)


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


def _dyadic(points) -> tuple[list[list[int]], int]:
    """The points' coordinates times one common power of two, as exact
    Python integers, and that power of two."""
    ratios = [float(c).as_integer_ratio() for p in points for c in p]
    scale = max([den for _, den in ratios])
    ints = [num * (scale // den) for num, den in ratios]
    d = len(points[0])
    return [ints[i:i + d] for i in range(0, len(ints), d)], scale


def _sure(det, mag):
    """Where the float sign of a determinant is exact, for floats or arrays.

    The rounding error of either determinant is below 2e-15 of its
    magnitude estimate unless a product overflows, which makes the values
    infinite or NaN, or underflows, which is ruled out above 1e-278.
    """
    return (abs(det) > EPS_BAND * mag) & (EPS_BAND * mag > 1e-290)


def _sign(parts, *points) -> tuple[int, bool]:
    """Exact sign of ``parts(*points)``'s determinant, and whether it took
    exact arithmetic: where the float sign is not sure, the determinant is
    evaluated on dyadic integers, and scaling every coordinate by one
    positive number keeps its sign."""
    det, mag = parts(*points)
    exact = not _sure(det, mag)
    if exact:
        det = parts(*_dyadic(points)[0])[0]
    return int(det > 0) - int(det < 0), exact


def orient_sign(pa, pb, pc) -> int:
    """Exact sign of the ccw orientation of three points."""
    return _sign(_orient_parts, pa, pb, pc)[0]


# -- Delaunay triangulation --------------------------------------------------


class _Mesh:
    """Ccw triangles over a point set, and exact predicates on its points.

    ``third[u, v]`` is the third vertex w of the triangle (u, v, w), so each
    triangle is stored under its three directed edges and an interior edge
    u-v lies between ``third[u, v]`` and ``third[v, u]``. ``exact`` counts the
    predicate evaluations that took exact arithmetic.

    Qhull and the vectorised float filters read ``unit``, the coordinates
    times the power of two that brings the largest into [0.5, 1), so that no
    product overflows at any scale of the cloud. Signs do not change under
    it, and exact evaluations read the coordinates as given.
    """

    def __init__(self, xy: np.ndarray):
        self.xy = xy
        self.pts = xy.tolist()
        self.unit = np.ldexp(xy, -np.frexp(np.abs(xy).max())[1])
        self.third: dict[tuple[int, int], int] = {}
        self.exact = self.flips = 0

    def sign(self, parts, *ids) -> int:
        s, exact = _sign(parts, *[self.pts[i] for i in ids])
        self.exact += exact
        return s

    def signs(self, parts, *ids: np.ndarray) -> np.ndarray:
        """``sign`` over arrays of ids, with the float filter in one pass."""
        det, mag = parts(*(self.unit[i].T for i in ids))
        out = np.sign(det)
        for k in np.flatnonzero(~_sure(det, mag)).tolist():
            out[k] = self.sign(parts, *(int(i[k]) for i in ids))
        return out

    def inside(self, a, b, c, d) -> bool:
        """Whether point d lies inside the circumcircle of ccw triangle (a, b, c).

        An exact tie is broken by an index perturbation of the paraboloid
        lifting (Edelsbrunner & Muecke, ACM TOG 1990): the lift of point i is
        lowered by eps^(i+1), so the cofactor of the smallest id whose
        orientation is nonzero decides. A cocircular quadrilateral thus takes
        the diagonal through its smallest id.
        """
        det = self.sign(_incircle_parts, a, b, c, d)
        if det == 0:
            cofactors = [(a, 1, (b, c, d)), (b, -1, (a, c, d)), (c, 1, (a, b, d)), (d, -1, (a, b, c))]
            for _, parity, tri in sorted(cofactors):
                det = -parity * self.sign(_orient_parts, *tri)
                if det:
                    break
        return det > 0

    def add(self, a, b, c) -> None:
        """Store the ccw triangle (a, b, c)."""
        third = self.third
        third[a, b], third[b, c], third[c, a] = c, a, b

    def flip(self, stack: list[tuple[int, int]]) -> None:
        """Lawson flips (Lawson 1977) until every interior edge is locally Delaunay.

        ``stack`` holds the edges to test. An edge whose far vertex lies
        inside, which makes its quadrilateral strictly convex, is replaced by
        the other diagonal, and the quadrilateral's four sides are tested
        again. Each flip lowers the perturbed lifted surface, so the flips
        end, at the unique Delaunay triangulation under the perturbation.
        """
        third = self.third
        while stack:
            a, b = stack.pop()
            c, d = third.get((a, b)), third.get((b, a))
            if c is None or d is None or not self.inside(a, b, c, d):
                continue
            del third[a, b], third[b, a]
            self.add(c, a, d)
            self.add(d, b, c)
            stack += ((a, d), (d, b), (b, c), (c, a))
            self.flips += 1


def _qhull_start(mesh: _Mesh):
    """Qhull's triangles turned ccw, if exact checks show they tile the convex hull.

    Returns ``(triangles, edges to test, None)``, or ``(None, None, (check,
    count))`` naming the first check that failed and how many items failed
    it: ``qhull`` (Qhull raised, or left points out), ``orientation`` (a
    triangle has zero area), ``neighbours`` (an interior edge is not held
    reversed by the neighbour Qhull names, or that one does not name it back)
    or ``hull`` (the edges without a neighbour do not form one cycle that
    turns left or goes straight on and winds once). Positive triangles whose
    boundary is one convex polygon traversed once tile it, and with every
    point a vertex that polygon is the convex hull. The edges to test are the
    interior ones whose in-circle value is not surely negative; on points in
    general position there are none.
    """
    from scipy.spatial import Delaunay, QhullError  # 0.1 s to import; paid here only

    pts = mesh.unit
    n = len(pts)
    try:
        # Qhull's tolerances are absolute, so give it the cloud centred; the
        # checks below read the original coordinates
        dt = Delaunay(pts - (pts.min(axis=0) + pts.max(axis=0)) / 2)
    except QhullError:
        return None, None, ("qhull", n)
    tris, nb = dt.simplices.astype(np.int64), dt.neighbors.astype(np.int64)
    # Qhull's "coplanar" points, left out for precision, are among these
    unused = n - np.count_nonzero(np.bincount(tris.ravel(), minlength=n))
    if unused:
        return None, None, ("qhull", unused)

    turn = mesh.signs(_orient_parts, *tris.T)
    if not turn.all():
        return None, None, ("orientation", int(np.count_nonzero(turn == 0)))
    # turn clockwise rows ccw; neighbour i stays opposite vertex i
    cw = turn < 0
    tris[cw], nb[cw] = tris[cw][:, [0, 2, 1]], nb[cw][:, [0, 2, 1]]
    # the edge opposite vertex i runs nxt[:, i] -> prv[:, i] around its triangle
    nxt, prv = np.roll(tris, -1, axis=1), np.roll(tris, -2, axis=1)

    t, i = np.nonzero(nb >= 0)
    j = nb[t, i]
    u, w = nxt[t, i], prv[t, i]
    held = (nxt[j] == w[:, None]) & (prv[j] == u[:, None])
    k = held.argmax(axis=1)
    bad = ~held.any(axis=1) | (nb[j, k] != t)
    if bad.any():
        pairs = np.unique(np.minimum(t, j)[bad] * len(tris) + np.maximum(t, j)[bad])
        return None, None, ("neighbours", len(pairs))
    det, mag = _incircle_parts(*(pts[tris[t, c]].T for c in range(3)), pts[tris[j, k]].T)
    test = (t < j) & ~(_sure(det, mag) & (det < 0))
    stack = list(zip(u[test].tolist(), w[test].tolist()))

    t, i = np.nonzero(nb < 0)
    u, w = nxt[t, i], prv[t, i]
    h = len(u)
    starts = np.full(n, -1)
    starts[u] = np.arange(h)
    if not np.array_equal(np.unique(u), np.sort(w)):  # one edge out of, one into each vertex
        return None, None, ("hull", h)
    after = starts[w]
    turn = mesh.signs(_orient_parts, u, w, w[after])
    # Going straight on, the two edges are parallel and point the same way.
    # The signs of rounded differences of the given coordinates are exact.
    step = np.sign(mesh.xy[w] - mesh.xy[u])
    bad = (turn < 0) | ((turn == 0) & (step != step[after]).any(axis=1))
    if bad.any():
        return None, None, ("hull", int(bad.sum()))
    # With no turn to the right, an edge's direction leaves the lower
    # half-plane for the upper one once per revolution of each cycle.
    lower = (step[:, 1] < 0) | ((step[:, 1] == 0) & (step[:, 0] < 0))
    if np.count_nonzero(lower & ~lower[after]) != 1:
        return None, None, ("hull", h)
    return tris, stack, None


def _sweep(mesh: _Mesh) -> None:
    """Triangulate the exact convex hull by a lexicographic sweep.

    The points are taken in (x, y) order. The first one off the line of the
    leading collinear run is joined to every edge of that run. Every later
    point lies outside the hull so far and is joined to the hull edges it
    sees strictly, found by walking both ways from the previous point, which
    is a hull vertex. A point on the line of a hull edge thus stays on the
    hull.
    """
    order = np.lexsort(mesh.xy.T[::-1]).tolist()
    for k in range(2, len(order)):
        side = mesh.sign(_orient_parts, order[0], order[1], order[k])
        if side:
            break
    else:
        raise DegeneracyError("input points are collinear")
    last = order[k]
    run = order[:k] if side > 0 else order[k - 1::-1]
    for u, v in zip(run, run[1:]):
        mesh.add(u, v, last)
    # ccw successor and predecessor of each hull vertex
    hull = run + [last]
    nxt = dict(zip(hull, hull[1:] + hull[:1]))
    prv = {v: u for u, v in nxt.items()}
    for p in order[k + 1:]:
        hi = lo = last
        while mesh.sign(_orient_parts, hi, nxt[hi], p) < 0:
            mesh.add(nxt[hi], hi, p)
            hi = nxt[hi]
        while mesh.sign(_orient_parts, prv[lo], lo, p) < 0:
            mesh.add(lo, prv[lo], p)
            lo = prv[lo]
        nxt[lo], prv[p], nxt[p], prv[hi] = p, lo, hi, p
        last = p


@dataclass(frozen=True)
class Triangulation:
    """Delaunay triangulation: simplices as ascending vertex-id tuples."""

    points: np.ndarray
    edges: list[tuple[int, int]]
    triangles: list[tuple[int, int, int]]


def delaunay_2d(cloud: PointCloud) -> Triangulation:
    """Delaunay triangulation of a 2D cloud.

    It starts from a triangulation of the exact convex hull with every point
    as a vertex: Qhull's when ``_qhull_start``'s checks hold, else
    ``_sweep``'s. Lawson flips under exact predicates then give the unique
    Delaunay triangulation under the index perturbation, whichever start ran:
    a cocircular quadrilateral takes the diagonal through its smallest id.
    The DEBUG log line names the start and, for the sweep, the first Qhull
    check that failed.
    """
    if cloud.dim != 2:
        raise DimensionError(f"triangulation requires 2D points, got {cloud.dim}D")
    pts = cloud.points
    n = len(pts)
    if n < 3:
        raise DegeneracyError(f"triangulation requires at least 3 points, got {n}")
    mesh = _Mesh(pts)
    tris, stack, failed = _qhull_start(mesh)
    if failed is None:
        start = "qhull"
        if stack:
            for a, b, c in tris.tolist():
                mesh.add(a, b, c)
    else:
        start = "sweep (qhull check %s failed for %d)" % failed
        _sweep(mesh)
        stack = [e for e in mesh.third if e[0] < e[1]]
    if stack:
        mesh.flip(stack)
        tris = np.array([(u, v, w) for (u, v), w in mesh.third.items() if u < v and u < w])

    tris = np.sort(tris, axis=1)
    tris = tris[np.lexsort(tris.T[::-1])]
    # ids are below n, so the keys a*n + b are exact and ascend with (a, b)
    keys = np.unique(tris[:, [0, 0, 1]] * n + tris[:, [1, 2, 2]])
    edges = np.column_stack(np.divmod(keys, n))
    logger.debug(
        "delaunay_2d: start=%s, %d points, %d triangles, %d hull edges, "
        "%d flips, %d exact evaluations",
        start, n, len(tris), 2 * len(edges) - 3 * len(tris), mesh.flips, mesh.exact,
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
    products do; einsum or norm(axis=...) would not. Each simplex is first
    scaled by the power of two that brings its largest offset coordinate
    into [0.5, 1), and its radius is scaled back: both steps are exact, and in
    between no square overflows or underflows. A simplex whose Gram
    determinant lies in the band takes its radius from
    ``_exact_circumradius`` instead, and the others' values do not depend on
    it.
    """
    u = v[:, 1:] - v[:, :1]
    e = np.frexp(np.abs(u).max(axis=(1, 2), initial=0.0))[1]
    u = np.ldexp(u, -e[:, None, None])
    gram = u @ u.transpose(0, 2, 1)
    diag = np.diagonal(gram, axis1=1, axis2=2)
    thresh = (EPS_BAND * np.prod(np.sqrt(diag), axis=1)) ** 2
    flat = np.flatnonzero(np.linalg.det(gram) <= thresh)
    exact = [_exact_circumradius(np.ldexp(v[i], -e[i])) for i in flat.tolist()]
    if len(flat):
        gram = gram.copy()  # diag is a view of the original
        gram[flat] = np.eye(gram.shape[1])
    x = np.linalg.solve(2.0 * gram, diag[..., None])[..., 0]
    c = (x[:, None, :] @ u)[:, 0]
    r = np.sqrt((c[:, None, :] @ c[:, :, None])[:, 0, 0])
    r[flat] = exact
    return np.ldexp(r, e)


def _exact_circumradius(v: np.ndarray) -> float:
    """Circumradius of a triangle from R^2 = |ab|^2 |bc|^2 |ca|^2 / (4 G) on
    dyadic integers, where G, the Gram determinant, is 4 area^2. Integer true
    division rounds correctly."""
    if len(v) == 3:
        (a, b, c), scale = _dyadic(v)
        ab, bc, ca = ([q - p for p, q in zip(s, e)] for s, e in ((a, b), (b, c), (c, a)))
        lab, lbc, lca = (sum(t * t for t in e) for e in (ab, bc, ca))
        gram = lab * lca - sum(p * q for p, q in zip(ab, ca)) ** 2
        if gram:
            return math.sqrt(lab * lbc * lca / (4 * gram * scale * scale))
    raise DegeneracyError(f"circumradius of affinely dependent vertices {v.tolist()}")


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
