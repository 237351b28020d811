"""Output checks for the benchmark flows that need no stored reference.

Every check recomputes what it compares against from the generated cloud or
from the written files, so it holds for any seed. Nothing here imports
hodgetrack: the references are Qhull (through scipy.spatial), a union-find
written below, and the Euler characteristic of a planar complex.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
from collections import Counter

import numpy as np


def read_complex(path) -> dict:
    """Complex JSON as {"points": array, "by_dim": {k: [(simplex, value)]}}."""
    with open(path) as fh:
        data = json.load(fh)
    by_dim: dict[int, list[tuple[tuple[int, ...], float]]] = {0: [], 1: [], 2: []}
    for s, v in zip(data["simplices"], data["values"]):
        by_dim[len(s) - 1].append((tuple(s), float(v)))
    return {"points": np.asarray(data["points"], dtype=float), "by_dim": by_dim}


def max_value(cx: dict) -> float:
    return max(v for items in cx["by_dim"].values() for _, v in items)


def slice_simplices(by_dim: dict, t: float) -> dict[int, list[tuple[int, ...]]]:
    """Simplices with filtration value <= t, per dimension."""
    return {k: [s for s, v in items if v <= t] for k, items in by_dim.items()}


def components(vertices, edges) -> int:
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    count = len(parent)
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def betti1(sl: dict[int, list[tuple[int, ...]]]) -> int:
    """First Betti number of a subcomplex of a planar triangulation.

    Such a complex has no 2-cycles, so beta_1 = E - V + c - T.
    """
    vertices = [s[0] for s in sl[0]]
    return len(sl[1]) - len(vertices) + components(vertices, sl[1]) - len(sl[2])


def check_triangulation(cx: dict, points: np.ndarray) -> list[str]:
    """The complex is the Qhull Delaunay triangulation of the cloud, with
    every face present and Euler characteristic 1."""
    from scipy.spatial import Delaunay

    problems = []
    if cx["points"].shape != points.shape or not np.array_equal(cx["points"], points):
        problems.append("complex points differ from the generated cloud")
    tris = {s for s, _ in cx["by_dim"][2]}
    qhull = {tuple(sorted(int(v) for v in row)) for row in Delaunay(points).simplices}
    if tris != qhull:
        problems.append(
            f"triangles differ from Qhull: {len(tris - qhull)} extra, "
            f"{len(qhull - tris)} missing"
        )
    edges = {s for s, _ in cx["by_dim"][1]}
    faces = {e for a, b, c in tris for e in ((a, b), (a, c), (b, c))}
    if edges != faces:
        problems.append("edge set is not the set of triangle edges")
    if sorted(s[0] for s, _ in cx["by_dim"][0]) != list(range(len(points))):
        problems.append("vertex set is not 0..n-1")
    euler = len(cx["by_dim"][0]) - len(edges) + len(tris)
    if euler != 1:
        problems.append(f"V - E + T = {euler}, expected 1")
    return problems


def check_spectrum(spec: dict, sl: dict, num: int) -> list[str]:
    """Harmonic count equals min(beta_1, num); eigenvalues ascending, >= 0."""
    problems = []
    n_edges = len(sl[1])
    pairs = spec["pairs"]
    if spec["n_chain"] != n_edges:
        problems.append(f"n_chain {spec['n_chain']} but the slice has {n_edges} edges")
    if len(pairs) != min(num, n_edges):
        problems.append(f"{len(pairs)} pairs, expected {min(num, n_edges)}")
    lams = [p["lambda"] for p in pairs]
    if any(b < a for a, b in zip(lams, lams[1:])):
        problems.append("eigenvalues are not ascending")
    if any(x < 0 for x in lams):
        problems.append("negative eigenvalue")
    harmonic = sum(p["type"] == "harmonic" for p in pairs)
    expected = min(betti1(sl), num)
    if harmonic != expected:
        problems.append(f"{harmonic} harmonic pairs, expected min(beta_1, num) = {expected}")
    return problems


def check_track_json(run: dict, cx: dict, steps: int) -> list[str]:
    """One step per grid threshold; the grid has min(steps, distinct values)
    thresholds, strictly ascending and ending at the largest value."""
    problems = []
    distinct = {v for items in cx["by_dim"].values() for _, v in items}
    th = run["thresholds"]
    if run["n_steps"] != len(th):
        problems.append(f"{run['n_steps']} steps for {len(th)} thresholds")
    if len(th) != min(steps, len(distinct)):
        problems.append(f"{len(th)} thresholds, expected {min(steps, len(distinct))}")
    if any(b <= a for a, b in zip(th, th[1:])):
        problems.append("thresholds are not strictly ascending")
    if not th or th[-1] != max(distinct) or not set(th) <= distinct:
        problems.append("thresholds are not filtration values ending at the maximum")
    steps_seen = {p["step"] for tr in run["trajectories"] for p in tr["points"]}
    if any(s < 0 or s >= run["n_steps"] for s in steps_seen):
        problems.append("trajectory point outside the grid")
    return problems


def check_track_steps(spectra, slices: list[dict], n_thresholds: int, num: int) -> list[str]:
    """Library track: one spectrum per threshold, and each step's harmonic
    count equals min(beta_1, pairs) of that step's slice."""
    if len(spectra) != n_thresholds:
        return [f"{len(spectra)} spectra for {n_thresholds} thresholds"]
    problems = []
    for step, (spec, sl) in enumerate(zip(spectra, slices)):
        harmonic = sum(p.kind == "harmonic" for p in spec.pairs)
        expected = min(betti1(sl), len(spec.pairs))
        if len(spec.pairs) != min(num, len(sl[1])) or harmonic != expected:
            problems.append(
                f"step {step}: {harmonic} harmonic of {len(spec.pairs)} pairs, "
                f"expected {expected} of {min(num, len(sl[1]))}"
            )
    return problems


def _rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_cluster(labels_csv, nodes_csv, sl: dict, clusters: int) -> list[str]:
    """One row per slice edge, exactly `clusters` labels, one row per vertex."""
    problems = []
    rows = _rows(labels_csv)
    if sorted((int(a), int(b)) for a, b, _ in rows) != sorted(sl[1]):
        problems.append(f"{len(rows)} label rows do not match the {len(sl[1])} slice edges")
    found = {int(r[2]) for r in rows}
    if found != set(range(clusters)):
        problems.append(f"labels {sorted(found)}, expected 0..{clusters - 1}")
    if len(_rows(nodes_csv)) != len(sl[0]):
        problems.append("node label rows do not match the slice vertices")
    return problems


def cluster_agreement(labels_csv, disk_ids: np.ndarray) -> float:
    """Edge-majority fraction: of the edges inside one disk, the share that
    carries its disk's most common label."""
    per_disk: dict[int, list[int]] = {}
    for a, b, label in _rows(labels_csv):
        da, db = int(disk_ids[int(a)]), int(disk_ids[int(b)])
        if da == db:
            per_disk.setdefault(da, []).append(int(label))
    interior = sum(len(v) for v in per_disk.values())
    hits = sum(Counter(v).most_common(1)[0][1] for v in per_disk.values())
    return hits / interior


def check_hgc(roles_csv, sl: dict) -> list[str]:
    """One row per slice edge; triples in [0, 1] with maximum exactly 1."""
    rows = _rows(roles_csv)
    problems = []
    if sorted((int(r[0]), int(r[1])) for r in rows) != sorted(sl[1]):
        problems.append(f"{len(rows)} rows do not match the {len(sl[1])} slice edges")
    triples = np.asarray([[float(x) for x in r[2:]] for r in rows])
    if triples.size == 0 or triples.min() < 0.0 or triples.max() != 1.0:
        problems.append("triples leave [0, 1] or their maximum is not 1")
    return problems
