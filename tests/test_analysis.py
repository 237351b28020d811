import numpy as np
import pytest

from hodgetrack import (
    FilteredComplex,
    InfeasibleClusteringError,
    InputError,
    InsufficientSpectrumError,
    UnsupportedProjectionError,
    hgc_values,
    hodge_spectral_clustering,
    kmeans,
    node_clustering,
    sublevel,
)
from hodgetrack.analysis import (
    EMBED_ZERO_COEFF,
    UNASSIGNED,
    ClusterAssignment,
    embed_rows,
    export_analysis,
    hgc_color,
    hgc_to_csv,
    labels_to_csv,
)

from conftest import filled_triangle, hollow_triangle
from oracles import best_kmeans, labels_agree_up_to_permutation


def blobs(rng, centers, per, spread=0.08):
    chunks = [c + spread * rng.normal(size=(per, len(c))) for c in np.asarray(centers)]
    return np.vstack(chunks)


# -- k-means -------------------------------------------------------------------


def test_kmeans_recovers_blobs_vs_oracle(rng):
    centers = [(-3.0, 0.0), (3.0, 0.0), (0.0, 4.0), (0.0, -4.0)]
    x = blobs(rng, centers, per=50)
    ours = kmeans(x, 4, seed=11)
    oracle_inertia, oracle_labels = best_kmeans(x, 4, n_seeds=1000)
    assert ours.inertia <= oracle_inertia * 1.001 + 1e-12
    # well separated blobs: identical partition
    assert labels_agree_up_to_permutation(ours.labels, oracle_labels)
    truth = np.repeat(np.arange(4), 50)
    matches = sum(
        labels_agree_up_to_permutation(truth[i * 50:(i + 1) * 50], ours.labels[i * 50:(i + 1) * 50])
        for i in range(4)
    )
    assert matches == 4


def test_kmeans_singletons_exact():
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    r = kmeans(pts, 3, seed=0)
    assert sorted(r.labels.tolist()) == [0, 1, 2]
    assert r.inertia == pytest.approx(0.0, abs=1e-20)


def test_kmeans_c1_total_variance(rng):
    x = rng.normal(size=(30, 2))
    r = kmeans(x, 1, seed=0)
    assert np.all(r.labels == 0)
    assert r.inertia == pytest.approx(((x - x.mean(axis=0)) ** 2).sum())


def test_kmeans_deterministic(rng):
    x = rng.normal(size=(40, 3))
    a = kmeans(x, 4, seed=9)
    b = kmeans(x, 4, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia


def test_kmeans_infeasible():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InfeasibleClusteringError):
        kmeans(pts, 3, seed=0)


def test_kmeans_no_empty_clusters(rng):
    # heavily skewed data tempts Lloyd into empty clusters
    x = np.vstack([rng.normal(size=(50, 2)), [[40.0, 40.0]], [[41.0, 40.0]]])
    r = kmeans(x, 4, seed=2)
    assert set(r.labels.tolist()) == {0, 1, 2, 3}


def test_kmeans_rejects_bad_input():
    with pytest.raises(InputError):
        kmeans(np.zeros((0, 2)), 1, seed=0)
    with pytest.raises(InputError):
        kmeans(np.ones((4, 2)), 0, seed=0)


# -- embedding -----------------------------------------------------------------


def test_embed_rows_sign_rules():
    rows = np.array([
        [1.0, 2.0],    # positive sum: kept
        [-1.0, -2.0],  # negative sum: flipped
        [3.0, -3.0],   # zero sum: largest-magnitude coordinate is 3.0 at index 0
        [-4.0, 4.0],   # zero sum: largest-magnitude coordinate -4.0 -> flip
        [0.0, 0.0],    # all zero: untouched
    ])
    fixed = embed_rows(rows)

    # rows are scaled to unit length before the sign rule runs
    def unit(v):
        return np.array(v) / np.linalg.norm(v)

    np.testing.assert_allclose(fixed[0], unit([1.0, 2.0]), rtol=1e-15, atol=0)
    assert fixed[1].tolist() == fixed[0].tolist()
    np.testing.assert_allclose(fixed[2], unit([3.0, -3.0]), rtol=1e-15, atol=0)
    np.testing.assert_allclose(fixed[3], unit([4.0, -4.0]), rtol=1e-15, atol=0)
    assert fixed[4].tolist() == [0.0, 0.0]


def test_embed_rows_zeroes_negligible_rows():
    largest = 3.0
    rows = np.array([
        [largest, 0.0],
        [0.0, -0.5 * EMBED_ZERO_COEFF * largest],  # below the cutoff: zeroed
        [EMBED_ZERO_COEFF * largest, 0.5 * EMBED_ZERO_COEFF * largest],  # above: normalized
    ])
    fixed = embed_rows(rows)
    assert fixed[0].tolist() == [1.0, 0.0]
    assert fixed[1].tolist() == [0.0, 0.0]
    assert np.isclose(np.linalg.norm(fixed[2]), 1.0, rtol=1e-15, atol=0)


def test_embed_rows_negating_all_vectors_is_identity(rng):
    rows = rng.normal(size=(30, 4))
    rows[5] = [1.0, -1.0, 0.0, 0.0]  # include a zero-sum row
    assert np.array_equal(embed_rows(rows), embed_rows(-rows))


def test_embed_rows_row_negation_invariant(rng):
    # flipping a simplex orientation negates its row; the embedding must not move
    rows = rng.normal(size=(20, 3))
    flipped = rows.copy()
    flipped[[2, 7, 11]] *= -1.0
    assert np.allclose(embed_rows(rows), embed_rows(flipped))


# -- simplex clustering -----------------------------------------------------------


def two_filled_triangles() -> FilteredComplex:
    """Two disjoint filled triangles; their curl vectors separate the edge sets."""
    simplices = [(i,) for i in range(6)]
    simplices += [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    simplices += [(0, 1, 2), (3, 4, 5)]
    values = [0.0] * 6 + [1.0] * 8
    return FilteredComplex.from_simplices(simplices, values)


def test_curl_clustering_separates_components():
    sl = sublevel(two_filled_triangles(), 1.0)
    assign = hodge_spectral_clustering(sl, 1, h=2, c=2, mode="curl", seed=0)
    labels = assign.labels
    assert len(labels) == 6
    # edges 0..2 belong to one triangle, 3..5 to the other
    assert len(set(labels[:3].tolist())) == 1
    assert len(set(labels[3:].tolist())) == 1
    assert labels[0] != labels[3]


def test_clustering_insufficient_spectrum():
    sl = sublevel(filled_triangle(), 1.0)
    with pytest.raises(InsufficientSpectrumError) as exc:
        hodge_spectral_clustering(sl, 1, h=2, c=2, mode="curl", seed=0)
    assert "1" in str(exc.value)  # only one curl vector exists


def test_clustering_rejects_bad_mode_and_counts():
    sl = sublevel(filled_triangle(), 1.0)
    with pytest.raises(InputError):
        hodge_spectral_clustering(sl, 1, h=1, c=2, mode="vorticity", seed=0)
    with pytest.raises(InputError):
        hodge_spectral_clustering(sl, 1, h=0, c=2, mode="curl", seed=0)
    with pytest.raises(InputError):
        hodge_spectral_clustering(sl, 1, h=1, c=1, mode="curl", seed=0)


def test_clustering_orientation_invariance_via_embedding():
    # the library stores simplices in canonical orientation, so emulate a flip
    # by negating embedding rows: labels must agree up to permutation
    sl = sublevel(two_filled_triangles(), 1.0)
    assign = hodge_spectral_clustering(sl, 1, h=2, c=2, mode="total", seed=3)
    flipped = assign.embedding.copy()
    flipped[[1, 4]] *= -1.0
    relabeled = kmeans(embed_rows(flipped), 2, seed=3)
    assert labels_agree_up_to_permutation(assign.labels, relabeled.labels)


def test_total_mode_uses_any_kind():
    sl = sublevel(hollow_triangle(), 1.0)
    assign = hodge_spectral_clustering(sl, 1, h=3, c=2, mode="total", seed=0)
    assert len(assign.labels) == 3
    assert assign.mode == "total"


# -- node propagation ---------------------------------------------------------------


def test_node_clustering_majority_and_isolated():
    fc = FilteredComplex.from_simplices(
        [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 2)],
        [0.0] * 4 + [1.0] * 3,
    )
    sl = sublevel(fc, 1.0)
    assign = ClusterAssignment(
        k=1, mode="total", h=1, c=2, seed=0,
        simplices=sl.simplices(1),
        labels=np.array([1, 1, 0]),
        inertia=0.0,
        embedding=np.zeros((3, 1)),
    )
    ids, labels = node_clustering(assign, sl)
    assert ids == [0, 1, 2, 3]
    # vertex 0 touches (0,1) and (0,2), both label 1
    assert labels[0] == 1
    # vertex 1 touches labels {1, 0}: tie broken to the smaller id
    assert labels[1] == 0
    assert labels[2] == 0
    assert labels[3] == UNASSIGNED


def test_node_clustering_depends_only_on_incident_multiset():
    fc = FilteredComplex.from_simplices(
        [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)],
        [0.0] * 3 + [1.0] * 3,
    )
    sl = sublevel(fc, 1.0)

    def assign_with(labels):
        return ClusterAssignment(
            k=1, mode="total", h=1, c=2, seed=0,
            simplices=sl.simplices(1), labels=np.array(labels),
            inertia=0.0, embedding=np.zeros((3, 1)),
        )

    _, a = node_clustering(assign_with([0, 1, 1]), sl)
    _, b = node_clustering(assign_with([0, 1, 1]), sl)
    assert np.array_equal(a, b)


# -- hgc ---------------------------------------------------------------------------


def test_hgc_bounds_and_max(rng):
    from hodgetrack import PointCloud, delaunay_2d, filtration_values

    pts = rng.uniform(-1, 1, size=(40, 2))
    fc = filtration_values(delaunay_2d(PointCloud(pts)))
    sl = sublevel(fc, fc.max_value)
    res = hgc_values(sl, 1, count=10)
    assert np.all(res.triples >= 0.0) and np.all(res.triples <= 1.0 + 1e-15)
    assert res.triples.max() == pytest.approx(1.0)


def test_hgc_no_triangles_means_zero_curl():
    sl = sublevel(hollow_triangle(), 1.0)
    res = hgc_values(sl, 1, count=3)
    assert np.all(res.triples[:, 2] == 0.0)
    assert res.triples[:, 0].max() > 0  # the harmonic loop is present


def test_hgc_filled_triangle_symmetry():
    sl = sublevel(filled_triangle(), 1.0)
    res = hgc_values(sl, 1, count=3)
    curl = res.triples[:, 2]
    assert np.all(res.triples[:, 0] == 0.0)  # no harmonic at count=3 here
    assert abs(curl[0] - curl[1]) <= 1e-12 and abs(curl[1] - curl[2]) <= 1e-12


def test_hgc_above_dense_limit_uses_budget(rng, monkeypatch):
    # above DENSE_LIMIT only the iterative solver runs, and it cannot return
    # the full spectrum: hgc must ask for its count, not for every pair
    import hodgetrack.spectral as spectral
    from hodgetrack import PointCloud, delaunay_2d, filtration_values

    pts = rng.uniform(-1, 1, size=(40, 2))
    fc = filtration_values(delaunay_2d(PointCloud(pts)))
    sl = sublevel(fc, fc.max_value)
    monkeypatch.setattr(spectral, "DENSE_LIMIT", sl.n_simplices(1) // 2)
    res = hgc_values(sl, 1, count=10)
    assert np.all(res.triples >= 0.0) and np.all(res.triples <= 1.0 + 1e-15)
    assert res.triples.max() == pytest.approx(1.0)


def test_hgc_count_validation():
    sl = sublevel(filled_triangle(), 1.0)
    with pytest.raises(InputError):
        hgc_values(sl, 1, count=0)
    with pytest.raises(InsufficientSpectrumError):
        hgc_values(sl, 1, count=7)


# -- exports ------------------------------------------------------------------------


def test_hgc_color_mapping():
    assert hgc_color((1.0, 0.0, 0.0)) == "rgb(0,0,255)"
    assert hgc_color((0.0, 1.0, 0.0)) == "rgb(0,255,0)"
    assert hgc_color((0.0, 0.0, 1.0)) == "rgb(255,0,0)"
    assert hgc_color((0.5, 0.5, 0.5)) == "rgb(128,128,128)"


def test_labels_csv_shape():
    sl = sublevel(filled_triangle(), 1.0)
    assign = ClusterAssignment(
        k=1, mode="total", h=1, c=2, seed=0,
        simplices=sl.simplices(1), labels=np.array([0, 1, 0]),
        inertia=0.0, embedding=np.zeros((3, 1)),
    )
    text = labels_to_csv(assign)
    lines = text.strip().split("\n")
    assert lines[0] == "v0,v1,label"
    assert lines[1] == "0,1,0" and lines[2] == "0,2,1"


def test_hgc_csv_round_trip(tmp_path):
    sl = sublevel(filled_triangle(), 1.0)
    res = hgc_values(sl, 1, count=3)
    text = hgc_to_csv(res)
    lines = text.strip().split("\n")
    assert lines[0] == "v0,v1,harmonic,gradient,curl"
    for line, triple in zip(lines[1:], res.triples):
        parts = line.split(",")
        back = [float(x) for x in parts[2:]]
        assert np.allclose(back, triple, atol=1e-12)


def test_svg_requires_2d_points():
    sl = sublevel(filled_triangle(), 1.0)  # no coordinates attached
    res = hgc_values(sl, 1, count=3)
    with pytest.raises(UnsupportedProjectionError):
        export_analysis(res, "/dev/null", "svg")


def test_svg_renders_edges(tmp_path, rng):
    from hodgetrack import PointCloud, delaunay_2d, filtration_values

    pts = rng.uniform(-1, 1, size=(12, 2))
    fc = filtration_values(delaunay_2d(PointCloud(pts)))
    sl = sublevel(fc, fc.max_value)
    res = hgc_values(sl, 1, count=5)
    path = tmp_path / "roles.svg"
    export_analysis(res, path, "svg")
    svg = path.read_text()
    assert svg.count('class="simplex"') == sl.n_simplices(1)
