import logging

import numpy as np
import pytest

from hodgetrack import (
    FilteredComplex,
    InputError,
    UndefinedSimilarityError,
    build_grid,
    export_diagram,
    inclusion_map,
    pem,
    pes,
    sublevel,
    track,
)
from hodgetrack.complexes import IndexMap
from hodgetrack.persistence import (
    read_trajectory_csv,
    trajectories_to_csv,
    trajectories_to_json_dict,
    trajectories_to_svg,
)

from conftest import filled_triangle, hollow_triangle
from oracles import brute_pes_table


def identity_map(n: int) -> IndexMap:
    return IndexMap(k=1, src_size=n, dst_size=n, idx=np.arange(n))


def pad_map(n_small: int, n_large: int) -> IndexMap:
    return IndexMap(k=1, src_size=n_small, dst_size=n_large, idx=np.arange(n_small))


# -- similarity ---------------------------------------------------------------


def test_pes_identical_vectors():
    v = np.array([1.0, 2.0, -1.0])
    assert pes(v, v, identity_map(3)) == pytest.approx(1.0)


def test_pes_orthogonal_vectors():
    assert pes(np.array([1.0, 0.0]), np.array([0.0, 1.0]), identity_map(2)) == 0.0


def test_pes_scale_and_sign_invariant(rng):
    for _ in range(50):
        v = rng.normal(size=5)
        w = rng.normal(size=8)
        incl = pad_map(5, 8)
        base = pes(v, w, incl)
        assert pes(3.7 * v, w, incl) == pytest.approx(base, abs=1e-15)
        assert pes(-v, -0.2 * w, incl) == pytest.approx(base, abs=1e-15)


def test_pes_in_unit_interval(rng):
    for _ in range(1000):
        v = rng.normal(size=6)
        w = rng.normal(size=9)
        s = pes(v, w, pad_map(6, 9))
        assert 0.0 <= s <= 1.0


def test_pes_zero_vector_rejected():
    with pytest.raises(UndefinedSimilarityError):
        pes(np.zeros(3), np.ones(3), identity_map(3))


def test_pes_padding_matters():
    # the padded entries contribute nothing to the inner product
    v = np.array([1.0])
    w = np.array([0.0, 1.0, 0.0])
    incl = IndexMap(k=1, src_size=1, dst_size=3, idx=np.array([1]))
    assert pes(v, w, incl) == pytest.approx(1.0)
    incl2 = IndexMap(k=1, src_size=1, dst_size=3, idx=np.array([0]))
    assert pes(v, w, incl2) == 0.0


def test_pes_matches_brute_table(rng):
    src = rng.normal(size=(5, 3))
    dst = rng.normal(size=(8, 4))
    incl = IndexMap(k=1, src_size=5, dst_size=8, idx=np.array([0, 2, 3, 5, 7]))
    table = brute_pes_table(src, dst, incl.idx.tolist())
    for i in range(3):
        for j in range(4):
            assert pes(src[:, i], dst[:, j], incl) == pytest.approx(table[i, j], abs=1e-12)


# -- matching -----------------------------------------------------------------


def test_pem_identity_match():
    vecs = np.linalg.qr(np.random.default_rng(0).normal(size=(6, 4)))[0]
    m = pem(vecs, vecs, identity_map(6), theta=0.5)
    assert [(i, j) for i, j, _ in m.pairs] == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert all(s == pytest.approx(1.0) for _, _, s in m.pairs)
    assert m.unmatched_src == [] and m.unmatched_dst == []


def test_pem_permutation_recovered(rng):
    q = np.linalg.qr(rng.normal(size=(7, 5)))[0]
    perm = [3, 0, 4, 1, 2]
    shuffled = q[:, perm]
    m = pem(q, shuffled, identity_map(7), theta=0.5)
    assert sorted((i, j) for i, j, _ in m.pairs) == sorted((perm[j], j) for j in range(5))
    assert all(s == pytest.approx(1.0) for _, _, s in m.pairs)


def test_pem_threshold_filters():
    a = np.array([[1.0], [0.0]])
    b = np.array([[np.cos(1.2)], [np.sin(1.2)]])  # similarity cos(1.2) ~ 0.36
    m = pem(a, b, identity_map(2), theta=0.5)
    assert m.pairs == [] and m.unmatched_src == [0] and m.unmatched_dst == [0]
    m2 = pem(a, b, identity_map(2), theta=0.3)
    assert len(m2.pairs) == 1


def test_pem_injective(rng):
    src = rng.normal(size=(10, 6))
    dst = rng.normal(size=(10, 7))
    m = pem(src, dst, identity_map(10), theta=0.0)
    srcs = [i for i, _, _ in m.pairs]
    dsts = [j for _, j, _ in m.pairs]
    assert len(set(srcs)) == len(srcs) and len(set(dsts)) == len(dsts)


def test_pem_mutual_best(rng):
    src = rng.normal(size=(9, 5))
    dst = rng.normal(size=(9, 5))
    incl = identity_map(9)
    m = pem(src, dst, incl, theta=0.0)
    table = brute_pes_table(src, dst, incl.idx.tolist())
    for i, j, s in m.pairs:
        assert s == pytest.approx(table[i, j], abs=1e-12)
        assert table[i, j] == pytest.approx(table[i].max())
        assert table[i, j] == pytest.approx(table[:, j].max())


def test_pem_tie_prefers_lower_index():
    # two identical source vectors compete for one destination
    v = np.array([[1.0], [0.0]])
    src = np.column_stack([v, v])
    m = pem(src, v, identity_map(2), theta=0.5)
    assert m.pairs == [(0, 0, 1.0)]
    assert m.unmatched_src == [1]


def test_pem_empty_sides():
    empty = np.zeros((4, 0))
    full = np.eye(4)
    m = pem(empty, full, identity_map(4))
    assert m.pairs == [] and m.unmatched_dst == [0, 1, 2, 3]


# -- grid and tracking ----------------------------------------------------------


def stacked_triangles() -> FilteredComplex:
    """A loop that closes at t=1 and gets filled at t=2."""
    return FilteredComplex.from_simplices(
        [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)],
        [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0],
    )


def test_build_grid_distinct_values():
    grid = build_grid(stacked_triangles(), 1)
    assert grid.thresholds.tolist() == [0.0, 1.0, 2.0]


def test_build_grid_subsample_keeps_last():
    fc = FilteredComplex.from_simplices(
        [(0,), (1,)] + [(0, 1)], [0.0, 0.0, 5.0]
    )
    grid = build_grid(stacked_triangles(), 1, steps=2)
    assert grid.thresholds[-1] == 2.0
    assert len(grid.thresholds) == 2


@pytest.mark.parametrize("m", [0, -3])
def test_grid_rejects_budget_below_one(m):
    with pytest.raises(InputError):
        build_grid(stacked_triangles(), 1, m=m)


@pytest.mark.parametrize("theta", [2.0, -0.1, float("nan")])
def test_theta_outside_unit_interval_rejected(theta):
    fc = stacked_triangles()
    with pytest.raises(InputError):
        pem(np.eye(3), np.eye(3), identity_map(3), theta=theta)
    for steps in (1, None):  # a one-step grid never reaches pem
        with pytest.raises(InputError):
            track(fc, build_grid(fc, 1, steps=steps), theta=theta)


def test_grid_rejects_disorder():
    from hodgetrack.persistence import FiltrationGrid

    with pytest.raises(InputError):
        FiltrationGrid(thresholds=np.array([0.0, 0.0, 1.0]), k=1)
    with pytest.raises(InputError):
        FiltrationGrid(thresholds=np.array([]), k=1)


def test_track_hollow_to_filled():
    ts = track(stacked_triangles(), build_grid(stacked_triangles(), 1))
    # at t=1: {0,3,3} (harmonic + 2 gradient); at t=2: {3,3,3} (2 gradient +
    # curl). The loop vector (1,-1,1)/sqrt(3) IS the later curl eigenvector,
    # so the harmonic trajectory persists and flips type instead of dying.
    by_birth = {}
    for tr in ts.trajectories:
        by_birth.setdefault(tr.birth_step, []).append(tr)
    assert len(by_birth.get(1, [])) == 3
    assert all(tr.last_step == 2 for tr in by_birth[1])
    assert 2 not in by_birth
    flipped = [tr for tr in by_birth[1] if tr.kind_changes()]
    assert len(flipped) == 1
    assert flipped[0].kind_changes() == [(2, "harmonic", "curl")]
    steady = [tr for tr in by_birth[1] if not tr.kind_changes()]
    assert all(p.kind == "gradient" for tr in steady for p in tr.points)


def test_track_no_gap_bridging():
    ts = track(stacked_triangles(), build_grid(stacked_triangles(), 1))
    for tr in ts.trajectories:
        steps = [p.step for p in tr.points]
        assert steps == list(range(steps[0], steps[-1] + 1))


def test_track_pes_prev_none_only_at_birth():
    ts = track(stacked_triangles(), build_grid(stacked_triangles(), 1))
    for tr in ts.trajectories:
        assert tr.points[0].pes_prev is None
        assert all(p.pes_prev is not None for p in tr.points[1:])
        assert all(0.0 <= p.pes_prev <= 1.0 for p in tr.points[1:])


def test_track_single_step():
    fc = filled_triangle()
    grid = build_grid(fc, 1, steps=1)
    ts = track(fc, grid)
    assert ts.n_steps == 1
    assert all(len(tr.points) == 1 for tr in ts.trajectories)
    assert len(ts.trajectories) == 3


def test_dominant_kind_majority_and_ties():
    from hodgetrack.persistence import Trajectory, TrajectoryPoint

    def pt(step, kind):
        return TrajectoryPoint(step=step, t=float(step), value=1.0, kind=kind, pes_prev=None)

    tr = Trajectory(id=0, points=[pt(0, "curl"), pt(1, "gradient"), pt(2, "curl")])
    assert tr.dominant_kind() == "curl"
    tie = Trajectory(id=1, points=[pt(0, "gradient"), pt(1, "curl")])
    assert tie.dominant_kind() == "gradient"  # first seen wins the tie


def test_kind_changes_reported():
    from hodgetrack.persistence import Trajectory, TrajectoryPoint

    def pt(step, kind):
        return TrajectoryPoint(step=step, t=float(step), value=1.0, kind=kind, pes_prev=None)

    tr = Trajectory(id=0, points=[pt(0, "harmonic"), pt(1, "harmonic"), pt(2, "gradient")])
    assert tr.kind_changes() == [(2, "harmonic", "gradient")]


# -- exports ----------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    fc = stacked_triangles()
    ts = track(fc, build_grid(fc, 1))
    path = tmp_path / "traj.csv"
    export_diagram(ts, path, "csv")
    rows = read_trajectory_csv(path)
    n_points = sum(len(tr.points) for tr in ts.trajectories)
    assert len(rows) == n_points
    back = {}
    for r in rows:
        back.setdefault(r["trajectory_id"], []).append(r)
    for tr in ts.trajectories:
        got = back[tr.id]
        assert [r["step"] for r in got] == [p.step for p in tr.points]
        assert [r["type"] for r in got] == [p.kind for p in tr.points]
        for r, p in zip(got, tr.points):
            assert r["lambda"] == p.value  # repr round-trips exactly


def test_json_export_death_steps(tmp_path):
    fc = stacked_triangles()
    ts = track(fc, build_grid(fc, 1))
    d = trajectories_to_json_dict(ts)
    assert d["n_steps"] == 3
    deaths = {tr["id"]: tr["death_step"] for tr in d["trajectories"]}
    alive = [tr.id for tr in ts.alive_at_end()]
    for tid, death in deaths.items():
        if tid in alive:
            assert death is None
        else:
            assert isinstance(death, int)


def test_svg_polyline_per_trajectory():
    fc = stacked_triangles()
    ts = track(fc, build_grid(fc, 1))
    svg = trajectories_to_svg(ts)
    assert svg.count('class="trajectory"') == len(ts.trajectories)
    assert svg.startswith("<?xml")
    assert "</svg>" in svg


def test_export_rejects_unknown_format(tmp_path):
    fc = stacked_triangles()
    ts = track(fc, build_grid(fc, 1))
    with pytest.raises(InputError):
        export_diagram(ts, tmp_path / "x.bin", "parquet")


def test_track_deterministic_bytes(tmp_path):
    fc = stacked_triangles()
    a = trajectories_to_csv(track(fc, build_grid(fc, 1)))
    b = trajectories_to_csv(track(fc, build_grid(fc, 1)))
    assert a == b


# -- repeated slices --------------------------------------------------------------


def late_edge_complex() -> FilteredComplex:
    """stacked_triangles plus vertex 3, whose edge to vertex 2 enters at t=3."""
    return FilteredComplex.from_simplices(
        [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 2), (0, 1, 2), (2, 3)],
        [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 3.0],
    )


def delaunay_complex() -> FilteredComplex:
    from hodgetrack import PointCloud, delaunay_2d, filtration_values, four_disks

    points, _ = four_disks(60, seed=11)
    return filtration_values(delaunay_2d(PointCloud(points)))


def counted_track(monkeypatch, fc, grid):
    """track with spectrum_of_slice wrapped; returns (ts, spectra, solved t)."""
    import hodgetrack.persistence as persistence

    solved_at = []
    solve = persistence.spectrum_of_slice

    def counting(sl, *args, **kwargs):
        solved_at.append(sl.t)
        return solve(sl, *args, **kwargs)

    monkeypatch.setattr(persistence, "spectrum_of_slice", counting)
    spectra = []
    ts = track(fc, grid, spectra_out=spectra)
    return ts, spectra, solved_at


def assert_same_spectrum(got, want):
    assert got.t == want.t
    assert got.k == want.k
    assert got.n_chain == want.n_chain
    assert got.lam_max == want.lam_max
    assert got.kinds() == want.kinds()
    assert got.values().tobytes() == want.values().tobytes()
    assert got.vectors().tobytes() == want.vectors().tobytes()
    assert [(p.residual_up, p.residual_down) for p in got.pairs] == [
        (p.residual_up, p.residual_down) for p in want.pairs
    ]


def test_track_reuses_repeated_slices_exactly(monkeypatch):
    from hodgetrack import spectrum_of_slice
    from hodgetrack.persistence import FiltrationGrid

    fc = delaunay_complex()
    thresholds = np.linspace(0.0, fc.max_value, 12)
    thresholds[0] = 1e-9
    grid = FiltrationGrid(thresholds=thresholds, k=1, m=10)
    ts, spectra, solved_at = counted_track(monkeypatch, fc, grid)

    slices = [sublevel(fc, t) for t in thresholds]
    sizes = [(sl.n_simplices(1), sl.n_simplices(2)) for sl in slices]
    assert ts.slice_sizes == sizes
    assert len(set(sizes)) < len(sizes)  # the grid repeats slices
    assert len(solved_at) == len(set(sizes))
    assert [thresholds[i] for i in ts.solved_steps] == solved_at
    assert ts.solved_steps == [
        i for i in range(len(sizes)) if i == 0 or sizes[i] != sizes[i - 1]
    ]
    assert len(spectra) == len(thresholds)
    for sl, spec in zip(slices, spectra):
        assert_same_spectrum(spec, spectrum_of_slice(sl, 1, m=10))


@pytest.mark.parametrize(
    "k, thresholds, sizes, solved",
    [
        # step 1 repeats step 0; step 3 adds only the triangle, a (k+2)-simplex
        (0, [0.0, 0.5, 1.0, 2.0, 3.0], [(4, 0), (4, 0), (4, 3), (4, 3), (4, 4)], [0, 2, 4]),
        # step 1 adds a (k+1)-simplex, step 2 a k-simplex
        (1, [1.0, 2.0, 3.0], [(3, 0), (3, 1), (4, 1)], [0, 1, 2]),
        # step 1 adds only a (k-1)-face: a zero row in B_k, so the same operator
        (2, [2.0, 3.0], [(1, 0), (1, 0)], [0]),
    ],
)
def test_track_solves_only_changed_slices(monkeypatch, k, thresholds, sizes, solved):
    from hodgetrack import spectrum_of_slice
    from hodgetrack.persistence import FiltrationGrid

    fc = late_edge_complex()
    grid = FiltrationGrid(thresholds=np.array(thresholds), k=k, m=10)
    ts, spectra, solved_at = counted_track(monkeypatch, fc, grid)
    assert ts.slice_sizes == sizes
    assert ts.solved_steps == solved
    assert solved_at == [thresholds[i] for i in solved]
    for t, spec in zip(thresholds, spectra):
        assert_same_spectrum(spec, spectrum_of_slice(sublevel(fc, t), k, m=10))
    # matching still runs on a reused step and pairs every vector with itself
    for step in set(range(len(thresholds))) - set(solved):
        prev = [p.pes_prev for tr in ts.trajectories for p in tr.points if p.step == step]
        assert prev == [pytest.approx(1.0)] * len(spectra[step])


def test_track_logs_solved_slice_summary(caplog):
    from hodgetrack.persistence import FiltrationGrid

    fc = late_edge_complex()
    grid = FiltrationGrid(thresholds=np.array([0.0, 0.5, 1.0, 2.0, 3.0]), k=0, m=10)
    with caplog.at_level(logging.DEBUG, logger="hodgetrack.persistence"):
        track(fc, grid)
    info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert info == ["solved 3 distinct slices for 5 steps"]
    steps = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG
             and r.getMessage().startswith("step ")]
    assert len(steps) == 5
    assert [("reused" in m) for m in steps] == [False, True, False, True, False]
    assert steps[3] == "step 3 t=2.0 n_0=4 n_1=3 reused: 0 born, 4 matched, 0 died"


def test_track_holds_at_most_two_spectra(monkeypatch):
    import gc
    import weakref

    import hodgetrack.persistence as persistence
    from hodgetrack import spectrum_of_slice
    from hodgetrack.persistence import FiltrationGrid

    fc = delaunay_complex()
    thresholds = np.linspace(0.0, fc.max_value, 12)
    thresholds[0] = 1e-9
    grid = FiltrationGrid(thresholds=thresholds, k=1, m=10)

    made = []  # weak references to every spectrum track creates
    alive = []  # live spectra counted at each solve
    solve, reuse = persistence.spectrum_of_slice, persistence.replace

    def counted_solve(*args, **kwargs):
        spec = solve(*args, **kwargs)
        made.append(weakref.ref(spec))
        gc.collect()
        alive.append(sum(ref() is not None for ref in made))
        return spec

    def counted_reuse(*args, **kwargs):
        spec = reuse(*args, **kwargs)
        made.append(weakref.ref(spec))
        return spec

    monkeypatch.setattr(persistence, "spectrum_of_slice", counted_solve)
    monkeypatch.setattr(persistence, "replace", counted_reuse)
    ts = track(fc, grid)
    assert len(made) == len(thresholds) and len(ts.solved_steps) < len(thresholds)
    assert len(alive) == len(ts.solved_steps) >= 3
    # the previous step's spectrum and the one just solved
    assert max(alive) <= 2
    gc.collect()
    assert all(ref() is None for ref in made)

    spectra = []
    again = track(fc, grid, spectra_out=spectra)
    assert trajectories_to_csv(again) == trajectories_to_csv(ts)
    assert len(spectra) == len(thresholds)
    for t, spec in zip(thresholds, spectra):
        assert_same_spectrum(spec, spectrum_of_slice(sublevel(fc, t), 1, m=10))


def test_pem_rejects_rows_that_do_not_match_the_inclusion():
    from hodgetrack import DimensionError

    vecs = np.eye(4)[:, :2]
    with pytest.raises(DimensionError):
        pem(vecs, vecs, pad_map(3, 4))
    with pytest.raises(DimensionError):
        pem(vecs, vecs, pad_map(4, 5))
