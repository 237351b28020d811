"""Spectral clustering of simplices and per-simplex subspace activity.

Clustering embeds each simplex through the entries of selected eigenvectors
and conditions the rows in a fixed order: each row is scaled to unit length
(Ng, Jordan & Weiss, "On Spectral Clustering", NIPS 2001), rows that are
negligible next to the largest row are then set to exactly zero, and finally a
summation sign rule fixes each row's sign so flipping simplex orientations or
negating eigenvectors cannot move any point. k-means runs on the conditioned
rows. Subspace activity assigns each simplex the largest eigenvector
magnitude it carries within the harmonic, gradient, and curl groups of the
low spectrum, normalized by the single largest magnitude seen.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from .complexes import ComplexSlice
from .errors import (
    InfeasibleClusteringError,
    InputError,
    InsufficientSpectrumError,
    UnsupportedProjectionError,
)
from .spectral import CURL, GRADIENT, HARMONIC, spectrum_of_slice

UNASSIGNED = -1

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
KMEANS_SHIFT_TOL = 1e-10

# embedding rows with norm at or below this times the largest row norm are
# zeroed instead of normalized; simplices outside the support of every chosen
# eigenvector carry rounding noise there, not a direction
EMBED_ZERO_COEFF = 1e-8

CLUSTER_PALETTE = (
    "#4477aa", "#ee6677", "#228833", "#ccbb44",
    "#66ccee", "#aa3377", "#bbbbbb", "#000000",
    "#e69f00", "#56b4e9",
)


@dataclass
class KMeansResult:
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    n_iter: int


def _plusplus_seed(x: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-weighted greedy seeding."""
    n = len(x)
    centroids = np.empty((c, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = np.sum((x - centroids[0]) ** 2, axis=1)
    for j in range(1, c):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining points coincide with chosen centroids
            centroids[j] = x[rng.integers(n)]
            continue
        idx = rng.choice(n, p=d2 / total)
        centroids[j] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centroids[j]) ** 2, axis=1))
    return centroids


def _lloyd(x: np.ndarray, centroids: np.ndarray) -> KMeansResult:
    n, _ = x.shape
    c = len(centroids)
    prev_inertia = np.inf
    labels = np.zeros(n, dtype=int)
    for it in range(KMEANS_MAX_ITER):
        d2 = (
            np.sum(x * x, axis=1)[:, None]
            - 2.0 * (x @ centroids.T)
            + np.sum(centroids * centroids, axis=1)[None, :]
        )
        np.maximum(d2, 0.0, out=d2)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        # Lloyd iterations cannot increase the objective.
        assert inertia <= prev_inertia + 1e-12 * max(1.0, abs(prev_inertia)), (
            f"k-means objective increased: {prev_inertia} -> {inertia}"
        )
        prev_inertia = inertia
        new_centroids = centroids.copy()
        fit = d2[np.arange(n), labels].copy()
        for j in range(c):
            members = labels == j
            if members.any():
                new_centroids[j] = x[members].mean(axis=0)
            else:
                # revive an empty cluster at the worst-fit point; marking the
                # point keeps a second empty cluster from stealing it back
                far = int(np.argmax(fit))
                new_centroids[j] = x[far]
                labels[far] = j
                fit[far] = -1.0
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < KMEANS_SHIFT_TOL:
            break
    return KMeansResult(labels=labels, centroids=centroids, inertia=prev_inertia, n_iter=it + 1)


def kmeans(points: np.ndarray, c: int, seed: int) -> KMeansResult:
    """Best of KMEANS_RESTARTS deterministic k-means runs.

    Restart seeds derive from the single run seed; the best run is the one
    with the smallest final objective, ties to the earlier restart.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or len(x) == 0:
        raise InputError(f"k-means needs a nonempty 2D array, got shape {x.shape}")
    if c < 1:
        raise InputError(f"cluster count must be positive, got {c}")
    distinct = len(np.unique(x, axis=0))
    if c > distinct:
        raise InfeasibleClusteringError(
            f"{c} clusters requested but only {distinct} distinct points exist"
        )
    best: KMeansResult | None = None
    for child in np.random.SeedSequence(seed).spawn(KMEANS_RESTARTS):
        rng = np.random.default_rng(child)
        result = _lloyd(x, _plusplus_seed(x, c, rng))
        if best is None or result.inertia < best.inertia:
            best = result
    return best


# -- simplex clustering -------------------------------------------------------


@dataclass
class ClusterAssignment:
    """Cluster labels over the dimension-k simplices of one slice."""

    k: int
    mode: str
    h: int
    c: int
    seed: int
    simplices: list[tuple[int, ...]]
    labels: np.ndarray
    inertia: float
    embedding: np.ndarray
    points: np.ndarray | None = None


def embed_rows(vectors: np.ndarray) -> np.ndarray:
    """Stack eigenvector entries per simplex, normalize each row, fix its sign.

    In order: every row is divided by its Euclidean norm; a row whose norm is
    at most EMBED_ZERO_COEFF times the largest row norm is set to exactly zero
    instead; then the row sign becomes the sign of the coordinate sum, a zero
    sum falling back to the sign of the largest-magnitude coordinate, and
    all-zero rows stay.
    """
    e = np.array(vectors, dtype=float)
    norms = np.linalg.norm(e, axis=1)
    keep = norms > EMBED_ZERO_COEFF * norms.max(initial=0.0)
    e[keep] /= norms[keep, None]
    e[~keep] = 0.0
    sign = np.sign(e.sum(axis=1))
    peak = e[np.arange(len(e)), np.argmax(np.abs(e), axis=1)]
    sign[sign == 0.0] = np.sign(peak[sign == 0.0])
    e[sign < 0.0] *= -1.0
    return e


def hodge_spectral_clustering(
    sl: ComplexSlice,
    n: int,
    h: int,
    c: int,
    mode: str = CURL,
    seed: int = 0,
) -> ClusterAssignment:
    """Cluster the slice's n-simplices by their coordinates in the h smallest
    eigenvectors of the chosen kind ('harmonic', 'gradient', 'curl', 'total')."""
    if mode not in (HARMONIC, GRADIENT, CURL, "total"):
        raise InputError(f"unknown clustering mode {mode!r}")
    if h < 1:
        raise InputError(f"embedding width must be positive, got {h}")
    if c < 2:
        raise InputError(f"need at least 2 clusters, got {c}")
    spec = spectrum_of_slice(sl, n, m=None)
    pool = spec.pairs if mode == "total" else spec.select(mode)
    if len(pool) < h:
        raise InsufficientSpectrumError(
            f"{h} {mode} eigenvectors requested but only {len(pool)} exist"
        )
    emb = embed_rows(np.column_stack([p.vector for p in pool[:h]]))
    km = kmeans(emb, c, seed)
    return ClusterAssignment(
        k=n,
        mode=mode,
        h=h,
        c=c,
        seed=seed,
        simplices=sl.simplices(n),
        labels=km.labels,
        inertia=km.inertia,
        embedding=emb,
        points=sl.parent.points,
    )


def node_clustering(assign: ClusterAssignment, sl: ComplexSlice) -> tuple[list[int], np.ndarray]:
    """Propagate simplex labels to vertices by majority over incident
    simplices; ties go to the smallest cluster id, isolated vertices get
    UNASSIGNED. Returns (vertex ids, labels)."""
    vertex_ids = [s[0] for s in sl.simplices(0)]
    verts = np.asarray(vertex_ids, dtype=np.int64)  # ascending, in parent order
    members = np.asarray(assign.simplices, dtype=np.int64).reshape(len(assign.labels), -1)
    owner = np.broadcast_to(np.asarray(assign.labels)[:, None], members.shape)
    rows = np.searchsorted(verts, members)
    inside = rows < len(verts)
    inside[inside] = verts[rows[inside]] == members[inside]
    votes = np.zeros((len(verts), int(np.max(assign.labels, initial=0)) + 1), dtype=np.int64)
    np.add.at(votes, (rows[inside], owner[inside]), 1)
    # argmax takes the first of tied counts, the smallest cluster id
    labels = np.where(votes.any(axis=1), votes.argmax(axis=1), UNASSIGNED)
    return vertex_ids, labels


# -- per-simplex subspace activity --------------------------------------------


@dataclass
class HgcResult:
    """Per-simplex (harmonic, gradient, curl) activity triples in [0, 1]."""

    k: int
    count: int
    simplices: list[tuple[int, ...]]
    triples: np.ndarray
    points: np.ndarray | None = None


def hgc_values(sl: ComplexSlice, n: int, count: int) -> HgcResult:
    """Largest per-simplex magnitude within each subspace group of the count
    smallest eigenpairs, normalized by the overall largest magnitude.

    A group with no eigenvectors contributes exactly 0.
    """
    if count < 1:
        raise InputError(f"eigenpair count must be positive, got {count}")
    spec = spectrum_of_slice(sl, n, m=count)
    if len(spec.pairs) < count:
        raise InsufficientSpectrumError(
            f"{count} eigenpairs requested but only {len(spec.pairs)} exist"
        )
    pairs = spec.pairs[:count]
    n_simplices = sl.n_simplices(n)
    triples = np.zeros((n_simplices, 3))
    groups = (HARMONIC, GRADIENT, CURL)
    for gi, kind in enumerate(groups):
        vecs = [p.vector for p in pairs if p.kind == kind]
        if vecs:
            triples[:, gi] = np.max(np.abs(np.column_stack(vecs)), axis=1)
    e_max = float(np.max(np.abs(np.column_stack([p.vector for p in pairs]))))
    triples /= e_max
    return HgcResult(
        k=n,
        count=count,
        simplices=sl.simplices(n),
        triples=triples,
        points=sl.parent.points,
    )


# -- serialization -----------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _vertex_header(k: int) -> str:
    return ",".join(f"v{i}" for i in range(k + 1))


def labels_to_csv(assign: ClusterAssignment) -> str:
    lines = [f"{_vertex_header(assign.k)},label"]
    for s, lab in zip(assign.simplices, assign.labels):
        lines.append(",".join(str(v) for v in s) + f",{int(lab)}")
    return "\n".join(lines) + "\n"


def node_labels_to_csv(vertex_ids: list[int], labels: np.ndarray) -> str:
    lines = ["vertex,label"]
    for v, lab in zip(vertex_ids, labels):
        lines.append(f"{v},{int(lab)}")
    return "\n".join(lines) + "\n"


def hgc_to_csv(result: HgcResult) -> str:
    lines = [f"{_vertex_header(result.k)},harmonic,gradient,curl"]
    for s, (h, g, c) in zip(result.simplices, result.triples):
        lines.append(
            ",".join(str(v) for v in s) + f",{_fmt(h)},{_fmt(g)},{_fmt(c)}"
        )
    return "\n".join(lines) + "\n"


def hgc_color(triple) -> str:
    """Map (harmonic, gradient, curl) to rgb with curl on red, gradient on
    green, harmonic on blue."""
    h, g, c = (min(max(float(x), 0.0), 1.0) for x in triple)
    return f"rgb({round(c * 255)},{round(g * 255)},{round(h * 255)})"


def _simplex_svg(simplices, colors, points: np.ndarray | None, k: int) -> str:
    if points is None:
        raise UnsupportedProjectionError("drawing requires vertex coordinates")
    if points.shape[1] != 2:
        raise UnsupportedProjectionError(
            f"drawing requires 2D coordinates, got dimension {points.shape[1]}"
        )
    width, height = 720.0, 720.0
    pad = 30.0
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    scale = min((width - 2 * pad) / span[0], (height - 2 * pad) / span[1])

    def sx(p):
        return pad + (p[0] - lo[0]) * scale

    def sy(p):
        return height - pad - (p[1] - lo[1]) * scale

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    for s, color in zip(simplices, colors):
        coords = [(sx(points[v]), sy(points[v])) for v in s]
        if k == 0:
            parts.append(
                f'<circle class="simplex" cx="{coords[0][0]:.2f}" cy="{coords[0][1]:.2f}" '
                f'r="3" fill="{color}"/>'
            )
        elif k == 1:
            parts.append(
                f'<line class="simplex" x1="{coords[0][0]:.2f}" y1="{coords[0][1]:.2f}" '
                f'x2="{coords[1][0]:.2f}" y2="{coords[1][1]:.2f}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
        else:
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
            parts.append(
                f'<polygon class="simplex" points="{pts}" fill="{color}" '
                f'fill-opacity="0.7" stroke="{color}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def clusters_to_svg(assign: ClusterAssignment) -> str:
    colors = [
        CLUSTER_PALETTE[int(lab) % len(CLUSTER_PALETTE)] for lab in assign.labels
    ]
    return _simplex_svg(assign.simplices, colors, assign.points, assign.k)


def hgc_to_svg(result: HgcResult) -> str:
    colors = [hgc_color(tr) for tr in result.triples]
    return _simplex_svg(result.simplices, colors, result.points, result.k)


def export_analysis(obj, path, fmt: str) -> None:
    """Write a ClusterAssignment or HgcResult as csv or svg."""
    if isinstance(obj, ClusterAssignment):
        if fmt == "csv":
            payload = labels_to_csv(obj)
        elif fmt == "svg":
            payload = clusters_to_svg(obj)
        else:
            raise InputError(f"unknown export format {fmt!r}")
    elif isinstance(obj, HgcResult):
        if fmt == "csv":
            payload = hgc_to_csv(obj)
        elif fmt == "svg":
            payload = hgc_to_svg(obj)
        else:
            raise InputError(f"unknown export format {fmt!r}")
    else:
        raise InputError(f"cannot export object of type {type(obj).__name__}")
    with open(path, "w") as fh:
        fh.write(payload)
