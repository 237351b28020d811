"""Eigenvector persistence across a filtration.

Eigenvectors of consecutive sublevel slices live on different chain spaces;
the smaller slice's vectors are carried into the larger one by zero-padding
along the inclusion. Similarity of two eigenvectors is the absolute cosine of
the padded pair, and consecutive spectra are matched by mutual best
similarity, which keeps the matching injective in both directions.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .complexes import FilteredComplex, IndexMap, inclusion_map, sublevel
from .errors import DimensionError, InputError, UndefinedSimilarityError
from .spectral import spectrum_of_slice

logger = logging.getLogger(__name__)

THETA_DEFAULT = 0.5  # minimum similarity for a persistent match
DEFAULT_BUDGET = 40  # eigenpairs computed per step

TYPE_COLORS = {"harmonic": "#1f77b4", "gradient": "#2ca02c", "curl": "#d62728"}


def pes(v: np.ndarray, v_next: np.ndarray, incl: IndexMap) -> float:
    """Similarity |<i(v), v'>| / (|v| |v'|) of eigenvectors at nested slices.

    Invariant under rescaling and sign flips of either argument; always in
    [0, 1] by Cauchy-Schwarz.
    """
    v = np.asarray(v, dtype=float)
    v_next = np.asarray(v_next, dtype=float)
    nv = float(np.linalg.norm(v))
    nw = float(np.linalg.norm(v_next))
    if nv == 0.0 or nw == 0.0:
        raise UndefinedSimilarityError("similarity of a zero vector is undefined")
    padded = incl.extend(v)
    return min(abs(float(padded @ v_next)) / (nv * nw), 1.0)


@dataclass(frozen=True)
class Matching:
    """Injective partial matching between two eigenvector lists.

    pairs holds (source index, destination index, similarity) triples;
    unmatched indices are listed per side.
    """

    pairs: list[tuple[int, int, float]]
    unmatched_src: list[int]
    unmatched_dst: list[int]


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= 1.0:  # also rejects NaN
        raise InputError(f"similarity threshold theta must lie in [0, 1], got {theta}")


def pem(
    src_vectors: np.ndarray,
    dst_vectors: np.ndarray,
    incl: IndexMap,
    theta: float = THETA_DEFAULT,
) -> Matching:
    """Match eigenvectors of nested slices by mutual best similarity.

    A pair is kept when each vector is the other's highest-similarity partner
    and the similarity reaches theta, which must lie in [0, 1]. Ties on the
    maximum go to the earlier (lower eigenvalue) index and are logged as
    degenerate.
    """
    _check_theta(theta)
    src = np.asarray(src_vectors, dtype=float)
    dst = np.asarray(dst_vectors, dtype=float)
    p = src.shape[1] if src.ndim == 2 else 0
    q = dst.shape[1] if dst.ndim == 2 else 0
    if p == 0 or q == 0:
        return Matching(pairs=[], unmatched_src=list(range(p)), unmatched_dst=list(range(q)))
    if (len(src), len(dst)) != (incl.src_size, incl.dst_size):
        raise DimensionError(
            f"{len(src)} x {len(dst)} vector rows do not match the inclusion "
            f"{incl.src_size} -> {incl.dst_size}"
        )

    ns = np.linalg.norm(src, axis=0)
    nd = np.linalg.norm(dst, axis=0)
    if np.any(ns == 0.0) or np.any(nd == 0.0):
        raise UndefinedSimilarityError("similarity of a zero vector is undefined")

    # numpy's own loop, not a BLAS product: numpy and scipy load separate
    # OpenBLAS builds, and a threaded numpy product between two of track's
    # eigensolves leaves each thread pool spinning on the cores the other needs
    sim = np.abs(np.einsum("ij,ik->jk", src, dst[incl.idx])) / np.outer(ns, nd)
    sim = np.minimum(sim, 1.0)

    best_dst = np.argmax(sim, axis=1)
    best_src = np.argmax(sim, axis=0)
    row_max = sim[np.arange(p), best_dst]
    if np.any(np.sum(sim == row_max[:, None], axis=1) > 1):
        logger.debug("degenerate similarity tie broken toward lower eigenvalue")

    keep = (best_src[best_dst] == np.arange(p)) & (row_max >= theta)
    matched = np.flatnonzero(keep)
    return Matching(
        pairs=list(zip(matched.tolist(), best_dst[keep].tolist(), row_max[keep].tolist())),
        unmatched_src=np.flatnonzero(~keep).tolist(),
        unmatched_dst=np.setdiff1d(np.arange(q), best_dst[keep]).tolist(),
    )


# -- tracking ----------------------------------------------------------------


@dataclass(frozen=True)
class FiltrationGrid:
    """Ascending thresholds plus the chain dimension and eigenpair budget."""

    thresholds: np.ndarray
    k: int
    m: int = DEFAULT_BUDGET

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=float)
        if len(t) == 0:
            raise InputError("empty filtration grid")
        if np.any(np.diff(t) <= 0):
            raise InputError("grid thresholds must be strictly ascending")
        if self.m < 1:
            raise InputError(f"eigenpair budget must be at least 1, got {self.m}")
        object.__setattr__(self, "thresholds", t)

    def __len__(self) -> int:
        return len(self.thresholds)


def build_grid(
    fc: FilteredComplex,
    k: int,
    m: int = DEFAULT_BUDGET,
    steps: int | None = None,
) -> FiltrationGrid:
    """Grid over the filtration's distinct simplex entry values.

    With steps given, the distinct values are subsampled uniformly by index
    to at most that many thresholds (always keeping the last).
    """
    distinct = fc.distinct_values()
    if len(distinct) == 0:
        raise InputError("complex has no filtration values")
    if steps is not None:
        if steps < 1:
            raise InputError(f"steps must be positive, got {steps}")
        if steps < len(distinct):
            idx = np.round(np.linspace(0, len(distinct) - 1, steps)).astype(int)
            idx[-1] = len(distinct) - 1  # steps=1 must keep the last value
            distinct = distinct[np.unique(idx)]
    return FiltrationGrid(thresholds=distinct, k=k, m=m)


@dataclass
class TrajectoryPoint:
    step: int
    t: float
    value: float
    kind: str
    pes_prev: float | None  # None at birth


@dataclass
class Trajectory:
    id: int
    points: list[TrajectoryPoint]

    @property
    def birth_step(self) -> int:
        return self.points[0].step

    @property
    def last_step(self) -> int:
        return self.points[-1].step

    def dominant_kind(self) -> str:
        """Most frequent kind along the path; the first seen wins a tie."""
        counts = Counter(pt.kind for pt in self.points)
        return max(counts, key=counts.get)

    def kind_changes(self) -> list[tuple[int, str, str]]:
        """(step, old kind, new kind) whenever the type flips along the path."""
        out = []
        for prev, cur in zip(self.points, self.points[1:]):
            if prev.kind != cur.kind:
                out.append((cur.step, prev.kind, cur.kind))
        return out


@dataclass
class TrajectorySet:
    k: int
    m: int
    theta: float
    thresholds: np.ndarray
    trajectories: list[Trajectory]
    n_steps: int
    solved_steps: list[int] = field(default_factory=list)  # steps whose spectrum was solved
    slice_sizes: list[tuple[int, int]] = field(default_factory=list)  # (n_k, n_{k+1}) per step

    def __len__(self) -> int:
        return len(self.trajectories)

    def alive_at_end(self) -> list[Trajectory]:
        return [tr for tr in self.trajectories if tr.last_step == self.n_steps - 1]


def track(
    fc: FilteredComplex,
    grid: FiltrationGrid,
    theta: float = THETA_DEFAULT,
    spectra_out: list | None = None,
) -> TrajectorySet:
    """Follow eigenvectors across the grid by matching consecutive spectra.

    A trajectory is born at any unmatched spectrum member, extends along
    matches, and ends the step before its vector finds no partner; gaps are
    never bridged. Pass a list as spectra_out to also receive the per-step
    typed spectra.

    Steps run one at a time: each slice is solved (or reused, below), matched
    against the previous step and then dropped, so only two steps' spectra
    are held at once unless spectra_out keeps them all.

    Each distinct slice is solved once. A step whose slice has as many k- and
    (k+1)-simplices as the previous step's reuses that step's spectrum with
    only t replaced (the two share their pairs). This is exact: the grid
    ascends strictly, so slices are nested and equal counts mean equal simplex
    sets; L_k = B_k^T B_k + B_{k+1} B_{k+1}^T depends on nothing else, since a
    (k-1)-face entering alone adds a zero row to B_k, which changes neither
    L_k, the residuals nor rk B_k. The reused spectrum was validated when it
    was solved. The solved steps are listed in solved_steps.
    """
    _check_theta(theta)
    k = grid.k
    sizes: list[tuple[int, int]] = []
    solved_steps: list[int] = []
    trajectories: list[Trajectory] = []
    active: dict[int, int] = {}  # pair index in the previous step -> trajectory id
    prev_sl = prev_spec = None

    for step, t in enumerate(grid.thresholds):
        sl = sublevel(fc, t)
        size = (sl.n_simplices(k), sl.n_simplices(k + 1))
        solved = step == 0 or size != sizes[-1]
        if solved:
            spec = spectrum_of_slice(sl, k, m=grid.m)
            solved_steps.append(step)
        else:
            spec = replace(prev_spec, t=sl.t)
        sizes.append(size)
        if spectra_out is not None:
            spectra_out.append(spec)

        matched_dst: dict[int, tuple[int, float]] = {}
        if prev_spec is not None:
            incl = inclusion_map(prev_sl, sl, k)
            matching = pem(prev_spec.vectors(), spec.vectors(), incl, theta=theta)
            for i, j, s in matching.pairs:
                if i in active:
                    matched_dst[j] = (active[i], s)
        next_active: dict[int, int] = {}
        for j, pair in enumerate(spec.pairs):
            if j in matched_dst:
                tid, s = matched_dst[j]
            else:
                tid, s = len(trajectories), None
                trajectories.append(Trajectory(id=tid, points=[]))
            trajectories[tid].points.append(
                TrajectoryPoint(step=step, t=float(t), value=pair.value, kind=pair.kind, pes_prev=s)
            )
            next_active[j] = tid
        logger.debug(
            "step %d t=%r n_%d=%d n_%d=%d %s: %d born, %d matched, %d died",
            step, float(t), k, size[0], k + 1, size[1],
            "solved" if solved else "reused",
            len(spec.pairs) - len(matched_dst), len(matched_dst),
            len(active) - len(matched_dst),
        )
        active = next_active
        prev_sl, prev_spec = sl, spec

    logger.info("solved %d distinct slices for %d steps", len(solved_steps), len(sizes))
    return TrajectorySet(
        k=k,
        m=grid.m,
        theta=theta,
        thresholds=grid.thresholds,
        trajectories=trajectories,
        n_steps=len(sizes),
        solved_steps=solved_steps,
        slice_sizes=sizes,
    )


# -- serialization -----------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def trajectories_to_csv(ts: TrajectorySet) -> str:
    lines = ["trajectory_id,step,t,lambda,type,pes_prev"]
    for tr in ts.trajectories:
        for pt in tr.points:
            prev = "" if pt.pes_prev is None else _fmt(pt.pes_prev)
            lines.append(
                f"{tr.id},{pt.step},{_fmt(pt.t)},{_fmt(pt.value)},{pt.kind},{prev}"
            )
    return "\n".join(lines) + "\n"


def trajectories_to_json_dict(ts: TrajectorySet) -> dict:
    return {
        "dim": int(ts.k),
        "budget": int(ts.m),
        "theta": float(ts.theta),
        "thresholds": [float(t) for t in ts.thresholds],
        "n_steps": int(ts.n_steps),
        "trajectories": [
            {
                "id": tr.id,
                "birth_step": tr.birth_step,
                "death_step": None if tr.last_step == ts.n_steps - 1 else tr.last_step,
                "dominant_type": tr.dominant_kind(),
                "points": [
                    {
                        "step": pt.step,
                        "t": pt.t,
                        "lambda": pt.value,
                        "type": pt.kind,
                        "pes_prev": pt.pes_prev,
                    }
                    for pt in tr.points
                ],
            }
            for tr in ts.trajectories
        ],
    }


def trajectories_to_svg(ts: TrajectorySet) -> str:
    """Eigenvalue-versus-threshold chart, one polyline per trajectory."""
    width, height = 960.0, 600.0
    left, right, top, bottom = 70.0, 930.0, 40.0, 550.0
    ts_all = [pt.t for tr in ts.trajectories for pt in tr.points]
    vs_all = [pt.value for tr in ts.trajectories for pt in tr.points]
    t_lo, t_hi = (min(ts_all), max(ts_all)) if ts_all else (0.0, 1.0)
    v_lo, v_hi = 0.0, (max(vs_all) if vs_all else 1.0)
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0
    if v_hi <= v_lo:
        v_hi = v_lo + 1.0

    def sx(t):
        return left + (t - t_lo) / (t_hi - t_lo) * (right - left)

    def sy(v):
        return bottom - (v - v_lo) / (v_hi - v_lo) * (bottom - top)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{left:.1f}" y1="{bottom:.1f}" x2="{right:.1f}" y2="{bottom:.1f}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{bottom:.1f}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tv = t_lo + frac * (t_hi - t_lo)
        vv = v_lo + frac * (v_hi - v_lo)
        parts.append(
            f'<text x="{sx(tv):.1f}" y="{bottom + 18:.1f}" font-size="11" '
            f'text-anchor="middle">{tv:.4g}</text>'
        )
        parts.append(
            f'<text x="{left - 8:.1f}" y="{sy(vv) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{vv:.4g}</text>'
        )
    parts.append(
        f'<text x="{(left + right) / 2:.1f}" y="{height - 8:.1f}" font-size="13" '
        'text-anchor="middle">threshold t</text>'
    )
    for tr in ts.trajectories:
        color = TYPE_COLORS[tr.dominant_kind()]
        coords = " ".join(f"{sx(pt.t):.2f},{sy(pt.value):.2f}" for pt in tr.points)
        parts.append(
            f'<polyline class="trajectory" fill="none" stroke="{color}" '
            f'stroke-width="1.5" points="{coords}"/>'
        )
        if len(tr.points) == 1:
            pt = tr.points[0]
            parts.append(
                f'<circle cx="{sx(pt.t):.2f}" cy="{sy(pt.value):.2f}" r="2" '
                f'fill="{color}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_diagram(ts: TrajectorySet, path, fmt: str) -> None:
    """Write trajectories as csv, json, or svg."""
    if fmt == "csv":
        payload = trajectories_to_csv(ts)
    elif fmt == "json":
        payload = json.dumps(trajectories_to_json_dict(ts), indent=1, sort_keys=True) + "\n"
    elif fmt == "svg":
        payload = trajectories_to_svg(ts)
    else:
        raise InputError(f"unknown diagram format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(payload)


def read_trajectory_csv(path) -> list[dict]:
    """Parse an exported trajectory CSV back into row dictionaries."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "trajectory_id,step,t,lambda,type,pes_prev":
            raise InputError(f"{path}: unexpected trajectory CSV header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            tid, step, t, lam, kind, prev = line.split(",")
            rows.append(
                {
                    "trajectory_id": int(tid),
                    "step": int(step),
                    "t": float(t),
                    "lambda": float(lam),
                    "type": kind,
                    "pes_prev": None if prev == "" else float(prev),
                }
            )
    return rows
