"""Spans and counts around hodgetrack's public functions, for traced runs.

Each wrapped function is replaced at every name a hodgetrack module binds it
to, so a call is seen whichever module looks it up: `spectral.eigendecompose`,
`persistence.spectrum_of_slice`, `analysis.spectrum_of_slice`,
`geometry.read_complex_json`, `cli.track` and so on. A span records name,
start, end and parent; spans stay in memory until the run writes them out.
Counts are derived from each call's arguments and return value.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time
from collections import Counter

PACKAGE = "hodgetrack"


def _points(tr, a, result):
    tr.counts["geometry.points"] += len(a["cloud"])


def _nnz(tr, a, result):
    if result is not None:
        tr.counts["complexes.boundary_matrix.nnz"] += result.nnz


def _slice_signature(tr, a, result):
    sl = a["sl"]
    digest = hashlib.sha1(str(a["k"]).encode())
    for dim in sorted(sl.indices):
        digest.update(sl.parent.values(dim).tobytes())
        digest.update(sl.indices[dim].tobytes())
    tr.slices.add(digest.hexdigest())
    tr.counts["spectral.distinct_slices"] = len(tr.slices)


def _eig(tr, a, result):
    tr.counts["spectral.eigendecompose.rows"] += a["ops"].n
    if result is not None:
        tr.counts["spectral.eigendecompose.pairs"] += len(result[0])


def _pem(tr, a, result):
    src = a["src_vectors"]
    tr.counts["persistence.pem.offered"] += src.shape[1] if src.ndim == 2 else 0
    if result is not None:
        tr.counts["persistence.pem.matched"] += len(result.pairs)


def _trajectories(tr, a, result):
    if result is not None:
        tr.counts["persistence.trajectories"] += len(result)


def _bytes_written(key):
    def count(tr, a, result):
        if os.path.isfile(a["path"]):
            tr.counts[key] += os.path.getsize(a["path"])

    return count


# (home module, function, span name, counter); the cli entries are the
# command handlers, whose self time is parsing, hashing, manifests and renames
TARGETS = (
    ("geometry", "delaunay_2d", "geometry.delaunay_2d", _points),
    ("geometry", "filtration_values", "geometry.filtration_values", None),
    ("geometry", "load_point_cloud", "geometry.load_point_cloud", None),
    ("complexes", "read_complex_json", "complexes.read_complex_json", None),
    ("complexes", "write_complex_json", "complexes.write_complex_json", None),
    ("complexes", "sublevel", "complexes.sublevel", None),
    ("complexes", "boundary_matrix", "complexes.boundary_matrix", _nnz),
    ("complexes", "inclusion_map", "complexes.inclusion_map", None),
    ("spectral", "spectrum_at", "spectral.spectrum_at", None),
    ("spectral", "spectrum_of_slice", "spectral.spectrum_of_slice", _slice_signature),
    ("spectral", "hodge_operators", "spectral.hodge_operators", None),
    ("spectral", "eigendecompose", "spectral.eigendecompose", _eig),
    ("spectral", "assign_types", "spectral.assign_types", None),
    ("spectral", "harmonic_dimension", "spectral.harmonic_dimension", None),
    ("persistence", "track", "persistence.track", _trajectories),
    ("persistence", "build_grid", "persistence.build_grid", None),
    ("persistence", "pem", "persistence.pem", _pem),
    ("persistence", "export_diagram", "persistence.export_diagram",
     _bytes_written("persistence.export_diagram.bytes")),
    ("analysis", "hodge_spectral_clustering", "analysis.hodge_spectral_clustering", None),
    ("analysis", "hgc_values", "analysis.hgc_values", None),
    ("analysis", "kmeans", "analysis.kmeans", None),
    ("analysis", "embed_rows", "analysis.embed_rows", None),
    ("analysis", "node_clustering", "analysis.node_clustering", None),
    ("analysis", "export_analysis", "analysis.export_analysis",
     _bytes_written("analysis.export_analysis.bytes")),
    ("cli", "cmd_triangulate", "cli.triangulate", None),
    ("cli", "cmd_spectrum", "cli.spectrum", None),
    ("cli", "cmd_track", "cli.track", None),
    ("cli", "cmd_cluster", "cli.cluster", None),
    ("cli", "cmd_hgc", "cli.hgc", None),
)

COUNTS = (
    "geometry.points",
    "complexes.boundary_matrix.nnz",
    "spectral.eigendecompose.rows",
    "spectral.eigendecompose.pairs",
    "spectral.distinct_slices",
    "persistence.pem.matched",
    "persistence.pem.offered",
    "persistence.trajectories",
    "persistence.export_diagram.bytes",
    "analysis.export_analysis.bytes",
)


class Tracer:
    """Installs wrappers on `install()` and restores the originals on
    `uninstall()`; single-threaded, like the program it traces."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.slices: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                # counts include calls that raised; result is None for those
                if counter is not None:
                    counter(self, signature.bind(*args, **kwargs).arguments, result)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for home, attr, name, counter in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{home}"], attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """`<name>.s`, `.self_s` and `.calls` per target, then the counts;
        self time is a span's duration minus its children's durations."""
        child_time: Counter = Counter()
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for span in self.spans:
            duration = span["end"] - span["start"]
            total[span["name"]] += duration
            self_time[span["name"]] += duration - child_time[span["id"]]
            calls[span["name"]] += 1
        out: dict[str, float] = {}
        for _, _, name, _ in TARGETS:
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_time[name]
            out[f"{name}.calls"] = calls[name]
        for key in COUNTS:
            out[key] = self.counts[key]
        return out
