import hashlib
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from hodgetrack import (
    DegeneracyError,
    DimensionError,
    DuplicatePointError,
    ParseError,
    PointCloud,
    circumradius,
    delaunay_2d,
    filtration_values,
    four_disks,
    load_point_cloud,
    save_point_cloud,
)
from hodgetrack import geometry, import_complex
from hodgetrack.cli import main
from hodgetrack.geometry import orient_sign

from conftest import random_cloud
from oracles import in_circle_violations, local_delaunay_violations


# -- input handling ----------------------------------------------------------


def test_load_save_round_trip(tmp_path, rng):
    pts = random_cloud(rng, 17)
    path = tmp_path / "pts.csv"
    save_point_cloud(pts, path)
    back = load_point_cloud(path)
    assert np.array_equal(back.points, pts)


def test_load_reports_line_number(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0.0,0.0\n1.0,nope\n")
    with pytest.raises(ParseError) as exc:
        load_point_cloud(p)
    assert ":2:" in str(exc.value)


def test_load_skips_comments(tmp_path):
    p = tmp_path / "commented.csv"
    p.write_text("# header comment\n0.0,0.0\n# between rows\n1.0,2.0  # trailing\n\n3.5,-1.0\n")
    assert load_point_cloud(p).points.tolist() == [[0.0, 0.0], [1.0, 2.0], [3.5, -1.0]]
    # error messages still count every physical line
    p.write_text("# header comment\n0.0,0.0\n1.0,nope\n")
    with pytest.raises(ParseError) as exc:
        load_point_cloud(p)
    assert ":3:" in str(exc.value)


def test_load_rejects_mixed_dimensions(tmp_path):
    p = tmp_path / "mixed.csv"
    p.write_text("0.0,0.0\n1.0,2.0,3.0\n")
    with pytest.raises(DimensionError):
        load_point_cloud(p)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_point_cloud(tmp_path / "absent.csv")


def test_duplicate_points_named():
    with pytest.raises(DuplicatePointError) as exc:
        PointCloud(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]))
    msg = str(exc.value)
    assert "0" in msg and "2" in msg


def test_duplicate_named_by_first_repeat():
    # the first row that repeats an earlier one, and that earlier row
    a, b = [0.0, 0.0], [1.0, 1.0]
    for rows, pair in (([a, b, a, b], "points 0 and 2"), ([a, b, b, a], "points 1 and 2"),
                       ([[0.0, 1.0], [-0.0, 1.0]], "points 0 and 1")):
        with pytest.raises(DuplicatePointError, match=pair):
            PointCloud(np.array(rows))


def test_nonfinite_rejected(tmp_path):
    p = tmp_path / "inf.csv"
    p.write_text("0.0,0.0\ninf,1.0\n")
    with pytest.raises(ParseError):
        load_point_cloud(p)


# -- circumradius ------------------------------------------------------------


def test_circumradius_known_values():
    # hypotenuse of the unit right triangle is a diameter
    r = circumradius(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert abs(r - math.sqrt(2) / 2) < 1e-12
    # equilateral with side 1
    eq = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    assert abs(circumradius(eq) - 1 / math.sqrt(3)) < 1e-12
    # an edge: half its length
    assert abs(circumradius(np.array([[0.0, 0.0], [3.0, 4.0]])) - 2.5) < 1e-12
    # a single point
    assert circumradius(np.array([[2.0, 7.0]])) == 0.0


def test_circumradius_rigid_motion_invariant(rng):
    for _ in range(25):
        tri = random_cloud(rng, 3)
        angle = rng.uniform(0, 2 * np.pi)
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        shift = rng.uniform(-5, 5, size=2)
        moved = tri @ rot.T + shift
        assert abs(circumradius(tri) - circumradius(moved)) < 1e-9 * max(
            1.0, circumradius(tri)
        )


def test_circumradius_of_sliver_is_exact():
    # sin^2 of the angle at (0, 0) is below 1e-24, inside the band; the
    # exact radius (1 + h^2) / 2h rounds to 2^44
    h = 2.0**-45
    assert circumradius(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, h]])) == 2.0**44


def test_circumradius_degenerate():
    with pytest.raises(DegeneracyError):
        circumradius(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(DimensionError):
        circumradius(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))


# -- Delaunay ----------------------------------------------------------------


def test_triangle_minimal():
    tri = delaunay_2d(PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])))
    assert tri.triangles == [(0, 1, 2)]
    assert tri.edges == [(0, 1), (0, 2), (1, 2)]


def test_collinear_rejected():
    pts = np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0)])
    with pytest.raises(DegeneracyError):
        delaunay_2d(PointCloud(pts))


def test_too_few_points():
    with pytest.raises(DegeneracyError):
        delaunay_2d(PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]])))


def test_square_tie_takes_diagonal_through_smallest_id():
    # cocircular: both diagonals are valid Delaunay; the index perturbation
    # must pick the one through vertex 0. In the second labelling that is the
    # diagonal only the scalar tie-break on finite in-band triangles produces.
    cases = [
        ([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], (0, 2), (1, 3), [(0, 1, 2), (0, 2, 3)]),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], (0, 3), (1, 2), [(0, 1, 3), (0, 2, 3)]),
    ]
    for pts, diagonal, other, triangles in cases:
        tri = delaunay_2d(PointCloud(np.array(pts)))
        assert diagonal in tri.edges
        assert other not in tri.edges
        assert sorted(tri.triangles) == triangles


def test_point_inside_hull_edge_splits_it():
    # (1, 0) lies strictly inside hull edge 0 -> 1 and is inserted last: the
    # ghost beyond that edge must conflict with it, or the edge survives and
    # (0, 1, 4) comes out as a zero-area triangle
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0], [1.0, 0.0]])
    tri = delaunay_2d(PointCloud(pts))
    assert tri.triangles == [(0, 3, 4), (1, 2, 4), (2, 3, 4)]


def test_square_tie_invariant_under_relabel_position():
    # same square, points fed in a different order: still the smallest-id diagonal
    pts = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    tri = delaunay_2d(PointCloud(pts))
    assert (0, 2) in tri.edges and (1, 3) not in tri.edges


def test_delaunay_empty_circumcircles_oracle(rng):
    for trial in range(6):
        pts = random_cloud(rng, 80)
        tri = delaunay_2d(PointCloud(pts))
        assert in_circle_violations(pts, tri.triangles) == []


def integer_grid(m: int) -> np.ndarray:
    xs, ys = np.meshgrid(np.arange(float(m)), np.arange(float(m)))
    return np.column_stack([xs.ravel(), ys.ravel()])


def test_delaunay_grid_with_ties():
    # 4x4 integer grid: every unit square is cocircular
    pts = integer_grid(4)
    tri = delaunay_2d(PointCloud(pts))
    assert in_circle_violations(pts, tri.triangles) == []
    # Euler characteristic of a triangulated disk
    v, e, f = len(pts), len(tri.edges), len(tri.triangles)
    assert v - e + f == 1


def test_delaunay_covers_every_point(rng):
    pts = random_cloud(rng, 40)
    tri = delaunay_2d(PointCloud(pts))
    used = {v for t in tri.triangles for v in t}
    assert used == set(range(len(pts)))


def test_delaunay_triangles_nondegenerate(rng):
    # triangles are stored as ascending id tuples, so either orientation sign
    # may appear, but never zero area
    pts = random_cloud(rng, 50)
    tri = delaunay_2d(PointCloud(pts))
    for a, b, c in tri.triangles:
        assert orient_sign(pts[a], pts[b], pts[c]) != 0


def permuted_grid12() -> np.ndarray:
    grid = integer_grid(12)
    return grid[np.random.default_rng(0).permutation(len(grid))]


# sha256 of repr(delaunay_2d(...).triangles). Every downstream file depends on
# these lists, so a change to how triangles are stored or scanned must leave
# them alone. Only inputs in general position or with exact ties are pinned.
PINNED_TRIANGLES = {
    "four_disks_400_seed11": (
        lambda: four_disks(400, seed=11)[0],
        "28055f0092ba2426b1f93bcb77843a60ebab6537aedaf946bd06eb7f4f5f8d35",
    ),
    "four_disks_400_seed5": (
        lambda: four_disks(400, seed=5)[0],
        "1cf4dbdfba18df048d8d44400be7381b0e8cd0e4456c5babbe34801dd3014e77",
    ),
    "four_disks_1000_seed11": (
        lambda: four_disks(1000, seed=11)[0],
        "f232d86766a1e16e99f878b10762ffe638d50a0dca79e4609fe406ccba719cae",
    ),
    "grid12": (
        lambda: integer_grid(12),
        "c80118502a4dbb78d36a02e5fcb534d323cec730ea9f21294f51bf5f3c3526e8",
    ),
    "grid12_permuted": (
        permuted_grid12,
        "eedf7cc2de3c212d1e01f341724c50963475912f668f8977c1b28e52fbad166a",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TRIANGLES))
def test_delaunay_triangles_pinned(name):
    cloud, digest = PINNED_TRIANGLES[name]
    tri = delaunay_2d(PointCloud(cloud()))
    assert hashlib.sha256(repr(tri.triangles).encode()).hexdigest() == digest


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 300))
def test_delaunay_matches_qhull_on_random_clouds(seed, n):
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 2))
    tri = delaunay_2d(PointCloud(pts))
    qhull = sorted(tuple(sorted(int(v) for v in row)) for row in Delaunay(pts).simplices)
    assert tri.triangles == qhull
    assert in_circle_violations(pts, tri.triangles) == []


def logged_ties(pts: np.ndarray, caplog) -> tuple[int, int]:
    """Exact (in-band) evaluations and hull edges from the delaunay_2d DEBUG line."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="hodgetrack.geometry"):
        tri = delaunay_2d(PointCloud(pts))
    (record,) = caplog.records
    msg = record.getMessage()
    assert f"{len(pts)} points, {len(tri.triangles)} triangles" in msg
    assert re.search(r"\d+ flips", msg)
    hull = int(re.search(r"(\d+) hull edges", msg).group(1))
    # a triangulated disk: interior edges bound two triangles, hull edges one
    assert 2 * len(tri.edges) == 3 * len(tri.triangles) + hull
    return int(re.search(r"(\d+) exact evaluations", msg).group(1)), hull


def test_delaunay_logs_tie_band_evaluations(rng, caplog):
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    ties, hull = logged_ties(square, caplog)
    assert ties >= 1
    assert hull == 4
    assert logged_ties(random_cloud(rng, 100), caplog)[0] == 0


def test_delaunay_logs_path(rng, caplog):
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with caplog.at_level(logging.DEBUG, logger="hodgetrack.geometry"):
        delaunay_2d(PointCloud(square))
        delaunay_2d(PointCloud(random_cloud(rng, 100)))
        delaunay_2d(PointCloud(near_duplicate()))
    tie, generic, dropped = (r.getMessage() for r in caplog.records)
    assert "start=qhull," in tie and ", 1 flips, 1 exact evaluations" in tie
    assert "start=qhull," in generic and ", 0 flips, 0 exact evaluations" in generic
    assert "start=sweep (qhull check qhull failed for 1)," in dropped


# -- the start and the flips ---------------------------------------------------


def jittered_grid(m: int, eps: float, seed: int, permute: bool) -> np.ndarray:
    """An m x m integer grid, permuted or not, plus N(0, eps) jitter."""
    rng = np.random.default_rng(seed)
    pts = integer_grid(m)
    if permute:
        pts = pts[rng.permutation(len(pts))]
    return pts + rng.normal(0.0, eps, pts.shape)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 300),
    grid=st.booleans(),
    permute=st.booleans(),
    eps=st.sampled_from([0.0, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9]),
)
@example(seed=0, n=144, grid=True, permute=False, eps=1e-15)
@example(seed=0, n=144, grid=True, permute=False, eps=1e-14)
@example(seed=0, n=144, grid=True, permute=False, eps=1e-13)
@example(seed=0, n=144, grid=True, permute=False, eps=1e-12)
@example(seed=0, n=144, grid=True, permute=False, eps=1e-11)
@example(seed=0, n=144, grid=True, permute=False, eps=1e-10)
@example(seed=0, n=144, grid=True, permute=False, eps=1e-9)
def test_delaunay_exact_on_clouds_and_jittered_grids(seed, n, grid, permute, eps):
    # uniform clouds of n points, or 12x12 grids with N(0, eps) jitter
    if grid:
        pts = jittered_grid(12, eps, seed, permute)
    else:
        pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 2))
    tri = delaunay_2d(PointCloud(pts))
    assert in_circle_violations(pts, tri.triangles) == []
    assert {v for t in tri.triangles for v in t} == set(range(len(pts)))
    assert local_delaunay_violations(pts, tri.triangles) == []


LOCAL_ORACLE_INPUTS = {
    "grid30": lambda: integer_grid(30),
    "grid70": lambda: integer_grid(70),
    "grid40_jitter_1e-15": lambda: jittered_grid(40, 1e-15, 0, False),
    "four_disks_2000_seed11": lambda: four_disks(2000, seed=11)[0],
    "four_disks_2000_seed5": lambda: four_disks(2000, seed=5)[0],
    "four_disks_2000_seed3": lambda: four_disks(2000, seed=3)[0],
}


@pytest.mark.parametrize("name", sorted(LOCAL_ORACLE_INPUTS))
def test_delaunay_passes_local_oracle(name):
    pts = LOCAL_ORACLE_INPUTS[name]()
    assert local_delaunay_violations(pts, delaunay_2d(PointCloud(pts)).triangles) == []


@pytest.mark.parametrize("scale", [1e-80, 1e150])
def test_delaunay_exact_at_extreme_scales(scale):
    # products underflow or overflow here, so float signs are not sure even
    # outside the band
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(200, 2)) * scale
    with np.errstate(over="ignore", invalid="ignore"):
        tri = delaunay_2d(PointCloud(pts))
    assert local_delaunay_violations(pts, tri.triangles) == []


def near_duplicate() -> np.ndarray:
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(12, 2))
    return np.vstack([pts, pts[3] + [1e-14, 0.0]])


def sliver_on_hull_edge() -> np.ndarray:
    # point 2 lies 1e-13 inside the tilted hull edge 0 -> 1, within the band
    inward = np.array([-0.6, 1.0]) / np.hypot(1.0, 0.6)
    inner = [[0.2, 0.5], [0.5, 0.9], [0.8, 0.8], [0.45, 0.5], [0.0, 0.6]]
    return np.vstack([[0.0, 0.0], [1.0, 0.6], [0.37, 0.222] + 1e-13 * inward, inner])


# One input per Qhull-start check, keyed by the check it exercises, with the
# start the DEBUG line must name: the sweep runs where that check fails.
STARTS = {
    # Qhull leaves the near-duplicate point out of its triangles
    "qhull": (near_duplicate, "sweep (qhull check qhull failed for 1)"),
    # the orientation of Qhull's sliver (0, 1, 2) lies in the band but is
    # exactly positive, so the sliver is kept
    "orientation": (sliver_on_hull_edge, "qhull"),
    # Qhull gives one triangle of this grid exactly zero area
    "orientation_zero": (
        lambda: jittered_grid(6, 1e-15, 7, True), "sweep (qhull check orientation failed for 1)"
    ),
    # cocircular: Qhull takes diagonal 1-3, and one flip gives 0-2
    "incircle": (
        lambda: np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        "qhull, 4 points, 2 triangles, 4 hull edges, 1 flips",
    ),
    # Qhull's neighbour lists for this grid do not match its triangles, whose
    # orientations and hull pass; taken as they are, they overlap
    "neighbours": (
        lambda: jittered_grid(4, 1e-14, 107, True), "sweep (qhull check neighbours failed for 3)"
    ),
    # point 2 lies 1e-17 inside hull edge 0 -> 1; Qhull makes it a reflex hull vertex
    "hull": (
        lambda: np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.3713, 1e-17], [0.2, 0.5], [0.5, 0.9], [0.8, 0.6], [0.5, 0.4]]
        ),
        "sweep (qhull check hull failed for 1)",
    ),
}

# the triangle lists of three of the inputs above
PINNED_STARTS = {
    "qhull": [
        (0, 1, 7), (0, 1, 9), (0, 7, 8), (0, 8, 11), (0, 9, 11), (1, 5, 7), (1, 9, 10),
        (2, 4, 12), (2, 8, 11), (2, 11, 12), (3, 4, 9), (3, 4, 12), (3, 9, 11),
        (3, 11, 12), (4, 9, 10), (5, 6, 7), (6, 7, 8),
    ],
    "incircle": [(0, 1, 2), (0, 2, 3)],
    "hull": [(0, 1, 2), (0, 2, 3), (1, 2, 6), (1, 5, 6), (2, 3, 6), (3, 4, 6), (4, 5, 6)],
}


@pytest.mark.parametrize("check", sorted(STARTS))
def test_failed_certificate_check_falls_back(check, caplog):
    cloud, start = STARTS[check]
    pts = cloud()
    with caplog.at_level(logging.DEBUG, logger="hodgetrack.geometry"):
        tri = delaunay_2d(PointCloud(pts))
    assert f"start={start}," in caplog.text
    assert local_delaunay_violations(pts, tri.triangles) == []
    assert in_circle_violations(pts, tri.triangles) == []
    if check in PINNED_STARTS:
        assert tri.triangles == PINNED_STARTS[check]
    if check == "orientation":
        # the sliver covers the strip between point 2 and hull edge 0 -> 1
        assert (0, 1, 2) in tri.triangles


def test_generic_cloud_needs_no_sweep_or_exact_arithmetic(monkeypatch, caplog):
    def refuse(*args):
        raise AssertionError("the sweep or exact arithmetic ran")

    monkeypatch.setattr(geometry, "_sweep", refuse)
    monkeypatch.setattr(geometry, "_dyadic", refuse)
    with caplog.at_level(logging.DEBUG, logger="hodgetrack.geometry"):
        tri = delaunay_2d(PointCloud(four_disks(2000, seed=11)[0]))
    assert "start=qhull," in caplog.text and ", 0 flips, 0 exact evaluations" in caplog.text
    # sha256 of this cloud's triangle list
    digest = "6f6b7a691f645e746638c7933d3ff295382f389d0232fb256fe0b72868a5fbed"
    assert hashlib.sha256(repr(tri.triangles).encode()).hexdigest() == digest


def test_triangulate_sliver(tmp_path):
    # the float Gram matrix of the sliver (0, 1, 2) is exactly singular, so
    # its circumradius takes exact arithmetic
    src, out = tmp_path / "sliver.csv", tmp_path / "sliver.json"
    save_point_cloud(sliver_on_hull_edge(), src)
    assert main(["triangulate", str(src), "--out", str(out)]) == 0
    fc = import_complex(out)
    assert (0, 1, 2) in fc.simplices(2)
    value = {s: float(v) for k in fc.dims() for s, v in zip(fc.simplices(k), fc.values(k))}
    assert all(math.isfinite(v) for v in value.values())
    for s, v in value.items():
        assert all(value[s[:i] + s[i + 1:]] <= v for i in range(len(s)) if len(s) > 1)


# -- filtration --------------------------------------------------------------


def test_filtration_values_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    fc = filtration_values(delaunay_2d(PointCloud(pts)))
    assert fc.values(0).tolist() == [0.0, 0.0, 0.0]
    np.testing.assert_allclose(
        sorted(fc.values(1)), [0.5, 0.5, math.sqrt(2) / 2], atol=1e-12
    )
    np.testing.assert_allclose(fc.values(2), [math.sqrt(2) / 2], atol=1e-12)


# sha256 of repr(fc.values(k).tolist()) for k = 1, 2 on the pinned four-disks
# clouds. Every threshold and output file depends on these bits, so a change
# to how the circumradii are computed must leave them alone.
PINNED_VALUES = {
    "four_disks_400_seed11": (
        "550af7718d64fade97e3da3b29d0e56c26e9c5d86e50d811eae128d7433ad13a",
        "7d0b8f3f7ae38c9214641beb62e88ddb26aae7f1798b7b15c6ff16156f322946",
    ),
    "four_disks_400_seed5": (
        "f9a7dab05bad333218785db709b06f3d0b95aebdb47e9586352c15545d664f05",
        "50ef7567741874772d8a2437a590c2430345ff621857793970a061fad8f91663",
    ),
    "four_disks_1000_seed11": (
        "e4ed9eee611a1b3721081bab534beb281d16e8f1c68b8a1518ae917458e842e3",
        "2c1ce0b4c5567b0b9d79202bfbe4b96a2f780be9486d27b3f37fd8c87389acc2",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_VALUES))
def test_filtration_values_pinned(name):
    cloud, _ = PINNED_TRIANGLES[name]
    fc = filtration_values(delaunay_2d(PointCloud(cloud())))
    digests = tuple(
        hashlib.sha256(repr(fc.values(k).tolist()).encode()).hexdigest() for k in (1, 2)
    )
    assert digests == PINNED_VALUES[name]


def test_filtration_monotone(rng):
    pts = random_cloud(rng, 60)
    fc = filtration_values(delaunay_2d(PointCloud(pts)))
    edge_val = dict(zip(fc.simplices(1), fc.values(1)))
    for tri_s, tv in zip(fc.simplices(2), fc.values(2)):
        a, b, c = tri_s
        for e in ((a, b), (a, c), (b, c)):
            assert tv >= edge_val[e] - 1e-15


def test_filtration_carries_points(rng):
    pts = random_cloud(rng, 10)
    fc = filtration_values(delaunay_2d(PointCloud(pts)))
    assert np.array_equal(fc.points, pts)
