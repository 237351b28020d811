"""Independent reference implementations used to cross-check the library.

Everything here is deliberately slow and simple: brute-force enumeration,
exact integer arithmetic, exhaustive search. None of it shares code with the
package under test.
"""

from __future__ import annotations

import itertools

import numpy as np

PRIMES = (1_000_000_007, 998_244_353)


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Rank over GF(p) by Gaussian elimination in int64 residues.

    Every product stays below p**2 < 2**63, so the arithmetic is exact.
    """
    a = np.asarray(mat).astype(np.int64) % p
    n_rows, n_cols = a.shape if a.ndim == 2 else (len(a), 0)
    rank = 0
    row = 0
    for col in range(n_cols):
        pivots = np.nonzero(a[row:, col])[0]
        if len(pivots) == 0:
            continue
        pivot = row + int(pivots[0])
        a[[row, pivot]] = a[[pivot, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        a[row] = (a[row] * inv) % p
        hits = np.nonzero(a[:, col])[0]
        hits = hits[hits != row]
        a[hits] = (a[hits] - a[hits, col][:, None] * a[row]) % p
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def integer_rank(mat: np.ndarray) -> int:
    """Rank of an integer matrix, max over two prime fields.

    Modular rank never exceeds the rational rank, so the max of several
    primes is still a lower bound that is almost surely tight.
    """
    if mat.size == 0:
        return 0
    return max(rank_mod_p(mat, p) for p in PRIMES)


def dyadic_integers(points: np.ndarray) -> list:
    """Every coordinate times one common power of two, as exact Python ints.

    A float is num/den with den a power of two, so scaling by the largest den
    makes every coordinate an integer and leaves every sign unchanged.
    """
    ratios = [float(c).as_integer_ratio() for c in np.asarray(points, dtype=float).ravel()]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    return list(zip(ints[0::2], ints[1::2]))


def in_circle_violations(points: np.ndarray, triangles) -> list:
    """All (triangle, point) pairs where the point sits strictly inside the
    triangle's circumcircle. Exact integer arithmetic, no tolerances."""
    pts = dyadic_integers(points)
    bad = []
    for tri in triangles:
        a, b, c = (pts[v] for v in tri)
        # normalize to counterclockwise so the determinant sign is meaningful
        orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if orient == 0:
            bad.append((tuple(tri), None))
            continue
        flip = orient < 0
        for pid, p in enumerate(pts):
            if pid in tri:
                continue
            rows = []
            for q in (a, b, c, p):
                dx, dy = q[0] - p[0], q[1] - p[1]
                rows.append((dx, dy, dx * dx + dy * dy))
            det = (
                rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
            )
            if flip:
                det = -det
            if det > 0:
                bad.append((tuple(tri), pid))
    return bad


def _orient(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def local_delaunay_violations(points: np.ndarray, triangles) -> list:
    """Why the triangles are not a Delaunay triangulation of the points, found
    edge by edge in exact integer arithmetic; empty when they are one.

    Checks that every point is a vertex, every triangle has positive area,
    each edge borders one triangle or two on opposite sides, the one-triangle
    edges form the convex hull with collinear points as vertices, and no
    interior edge has its far vertex strictly inside the circumcircle of its
    other triangle. Such triangles tile the hull, and a tiling whose edges
    are all locally Delaunay is Delaunay (Delaunay's lemma).
    """
    pts = dyadic_integers(points)
    bad = []
    missing = set(range(len(pts))) - {v for tri in triangles for v in tri}
    if missing:
        bad.append(("uncovered", min(missing)))
    far = {}  # directed edge of a ccw triangle -> its third vertex
    for tri in triangles:
        a, b, c = tri
        area = _orient(pts[a], pts[b], pts[c])
        if area == 0:
            bad.append(("flat", tuple(tri)))
            continue
        if area < 0:
            b, c = c, b
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            if (u, v) in far:
                bad.append(("overlap", (u, v)))
            far[u, v] = w
    # monotone chain, keeping collinear points on the hull
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    chains = []
    for seq in (order, order[::-1]):
        chain = []
        for i in seq:
            while len(chain) >= 2 and _orient(pts[chain[-2]], pts[chain[-1]], pts[i]) < 0:
                chain.pop()
            chain.append(i)
        chains.append(chain[:-1])
    hull = chains[0] + chains[1]
    boundary = {e for e in far if e[::-1] not in far}
    if boundary != set(zip(hull, hull[1:] + hull[:1])):
        bad.append(("hull", sorted(boundary)))
    for (u, v), w in far.items():
        x = far.get((v, u))
        if x is not None and u < v:
            rows = []
            for q in (pts[u], pts[v], pts[w]):
                dx, dy = q[0] - pts[x][0], q[1] - pts[x][1]
                rows.append((dx, dy, dx * dx + dy * dy))
            det = (
                rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
            )
            if det > 0:
                bad.append(("incircle", (u, v)))
    return bad


def closure_defects(simplices_by_dim: dict) -> list:
    """Faces that are missing from a complex given as {dim: [tuples]}."""
    have = {s for sims in simplices_by_dim.values() for s in sims}
    missing = []
    for k, sims in simplices_by_dim.items():
        if k == 0:
            continue
        for s in sims:
            for face in itertools.combinations(s, k):
                if face not in have:
                    missing.append((s, face))
    return missing


def boundary_oracle(simplices_k, simplices_below) -> list:
    """Boundary entries (row, col, sign) from k-simplices to (k-1)-simplices,
    found by tuple lookup: column j holds the faces of simplices_k[j], the face
    omitting v_i gets sign (-1)^i, entries ordered by column then row. A face
    missing from simplices_below raises KeyError."""
    position = {s: i for i, s in enumerate(simplices_below)}
    entries = []
    for j, s in enumerate(simplices_k):
        column = sorted((position[s[:i] + s[i + 1:]], (-1) ** i) for i in range(len(s)))
        entries.extend((r, j, sign) for r, sign in column)
    return entries


def brute_pes_table(src: np.ndarray, dst: np.ndarray, positions) -> np.ndarray:
    """Similarity matrix computed entry by entry with explicit padding.

    positions[i] is the row index in the larger complex of the i-th simplex
    of the smaller one.
    """
    n_src = src.shape[1] if src.ndim == 2 else 0
    n_dst = dst.shape[1] if dst.ndim == 2 else 0
    table = np.zeros((n_src, n_dst))
    for i in range(n_src):
        padded = np.zeros(dst.shape[0])
        for small_row, big_row in enumerate(positions):
            padded[big_row] = src[small_row, i]
        for j in range(n_dst):
            denom = np.linalg.norm(padded) * np.linalg.norm(dst[:, j])
            table[i, j] = min(abs(padded @ dst[:, j]) / denom, 1.0)
    return table


def best_kmeans(points: np.ndarray, c: int, n_seeds: int = 1000):
    """Near-exhaustive k-means reference: Lloyd from many random seedings,
    keep the lowest-inertia solution."""
    x = np.asarray(points, dtype=float)
    best = (np.inf, None)
    rng = np.random.default_rng(12345)
    for _ in range(n_seeds):
        idx = rng.choice(len(x), size=c, replace=False)
        centroids = x[idx].copy()
        for _ in range(300):
            d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            labels = d2.argmin(axis=1)
            new = np.array([
                x[labels == j].mean(axis=0) if np.any(labels == j) else centroids[j]
                for j in range(c)
            ])
            if np.allclose(new, centroids, atol=1e-12):
                centroids = new
                break
            centroids = new
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        inertia = d2.min(axis=1).sum()
        if inertia < best[0] - 1e-12:
            best = (inertia, d2.argmin(axis=1))
    return best


def labels_agree_up_to_permutation(a, b) -> bool:
    """True iff the two label vectors induce the same partition."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    mapping: dict = {}
    seen_targets = set()
    for x, y in zip(a.tolist(), b.tolist()):
        if x in mapping:
            if mapping[x] != y:
                return False
        else:
            if y in seen_targets:
                return False
            mapping[x] = y
            seen_targets.add(y)
    return True


def cycle_spectrum(n: int) -> np.ndarray:
    """Eigenvalues of the cycle graph Laplacian on n vertices, ascending."""
    j = np.arange(n)
    return np.sort(4.0 * np.sin(np.pi * j / n) ** 2)
