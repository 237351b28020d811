"""The benchmark's traced pass wraps hodgetrack functions by name; a rename
in the library must fail here rather than break `bench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

import numpy as np

import hodgetrack
import hodgetrack.cli  # noqa: F401  (the tracer wraps the cli handlers too)
from hodgetrack import FilteredComplex, FiltrationGrid

from conftest import filled_triangle

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_spans_resolve():
    # the triangle enters after its edges, so the two grid steps differ
    fc = FilteredComplex.from_simplices(
        [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)],
        [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0],
    )
    grid = FiltrationGrid(thresholds=np.array([1.0, 2.0]), k=1, m=3)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        hodgetrack.spectrum_at(filled_triangle(), 1.0, 1)
        hodgetrack.track(fc, grid)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    for name in ("spectral.assign_types", "spectral.eigendecompose", "persistence.pem"):
        assert metrics[f"{name}.calls"] >= 1
    assert metrics["complexes.boundary_matrix.calls"] >= 1
    assert metrics["complexes.boundary_matrix.nnz"] > 0
    assert not hasattr(hodgetrack.track, "__wrapped__")  # uninstall restored the original


def test_traced_triangulate_counts_geometry(tmp_path):
    cloud = tmp_path / "cloud.csv"
    hodgetrack.save_point_cloud(np.random.default_rng(3).uniform(-1.0, 1.0, size=(30, 2)), cloud)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert hodgetrack.cli.main(["triangulate", str(cloud), "--out", str(tmp_path / "c.json")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    for name in ("geometry.delaunay_2d", "geometry.filtration_values", "cli.triangulate"):
        assert metrics[f"{name}.calls"] == 1
    assert metrics["geometry.points"] == 30
