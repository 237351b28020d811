import dataclasses
import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodgetrack.spectral as spectral
from hodgetrack import (
    ClassificationError,
    FilteredComplex,
    InputError,
    SolverError,
    boundary_matrix,
    classify,
    eigendecompose,
    harmonic_dimension,
    hodge_operators,
    hodge_project,
    spectrum_at,
    spectrum_of_slice,
    sublevel,
)
from hodgetrack.complexes import SparseSignMatrix
from hodgetrack.spectral import assign_types, canonical_sign, rank_of

from conftest import cycle_complex, filled_triangle, hollow_triangle, path_complex
from oracles import cycle_spectrum, integer_rank


def ops_at(fc, t, k):
    return hodge_operators(sublevel(fc, t), k)


# -- operators ----------------------------------------------------------------


def test_graph_laplacian_of_path():
    ops = ops_at(path_complex(3), 1.0, 0)
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(ops.laplacian.toarray(), expected)


def test_l1_of_hollow_triangle():
    ops = ops_at(hollow_triangle(), 1.0, 1)
    # B1^T B1 only; diagonal 2, off-diagonal signs from shared endpoints
    expected = np.array([[2.0, 1.0, -1.0], [1.0, 2.0, 1.0], [-1.0, 1.0, 2.0]])
    assert np.array_equal(ops.laplacian.toarray(), expected)


def test_filled_triangle_adds_curl_block():
    ops = ops_at(filled_triangle(), 1.0, 1)
    up = ops.l_up.toarray()
    b2 = np.array([[1.0], [-1.0], [1.0]])
    assert np.array_equal(up, b2 @ b2.T)
    assert np.array_equal(ops.laplacian.toarray(), 3.0 * np.eye(3))


def test_lambda_max_bound_dominates():
    ops = ops_at(cycle_complex(8), 1.0, 1)
    vals, _, lam_max = eigendecompose(ops)
    assert ops.lambda_max_bound() >= lam_max - 1e-12


# -- analytic spectra ----------------------------------------------------------


def test_hollow_triangle_spectrum():
    spec = spectrum_at(hollow_triangle(), 1.0, 1)
    np.testing.assert_allclose(spec.values(), [0.0, 3.0, 3.0], atol=1e-9)
    assert spec.kinds() == ["harmonic", "gradient", "gradient"]
    h = spec.pairs[0].vector
    target = np.array([1.0, -1.0, 1.0]) / np.sqrt(3)
    assert np.allclose(h, target, atol=1e-9) or np.allclose(h, -target, atol=1e-9)


def test_filled_triangle_spectrum():
    spec = spectrum_at(filled_triangle(), 1.0, 1)
    np.testing.assert_allclose(spec.values(), [3.0, 3.0, 3.0], atol=1e-9)
    assert spec.counts() == {"harmonic": 0, "gradient": 2, "curl": 1}
    curl = spec.select("curl")[0].vector
    target = np.array([1.0, -1.0, 1.0]) / np.sqrt(3)
    assert np.allclose(np.abs(curl), np.abs(target), atol=1e-9)


def test_cycle_spectrum_matches_formula():
    spec = spectrum_at(cycle_complex(8), 1.0, 1)
    np.testing.assert_allclose(spec.values(), cycle_spectrum(8), atol=1e-8)
    assert spec.counts()["harmonic"] == 1


def test_two_loops_two_harmonics():
    # two hollow triangles sharing one vertex
    simplices = [(i,) for i in range(5)]
    simplices += [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
    values = [0.0] * 5 + [1.0] * 6
    fc = FilteredComplex.from_simplices(simplices, values)
    spec = spectrum_at(fc, 1.0, 1)
    assert spec.counts()["harmonic"] == 2


# -- classification -------------------------------------------------------------


def test_classify_pure_vectors():
    ops = ops_at(hollow_triangle(), 1.0, 1)
    harm = np.array([1.0, -1.0, 1.0]) / np.sqrt(3)
    assert classify(0.0, harm, ops) == "harmonic"
    grad = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)  # B1 applied to it is nonzero
    # eigenvector of L1 at 3: (1,1,0)/sqrt2? L1 @ (1,1,0) = (3,3,0) yes
    assert classify(3.0, grad, ops) == "gradient"


def test_classify_rejects_mixture():
    ops = ops_at(filled_triangle(), 1.0, 1)
    mix = np.array([1.0, 0.0, 0.0])  # equal parts gradient and curl at lambda 3
    with pytest.raises(ClassificationError):
        classify(3.0, mix, ops)


def test_curl_classified():
    ops = ops_at(filled_triangle(), 1.0, 1)
    curl = np.array([1.0, -1.0, 1.0]) / np.sqrt(3)
    assert classify(3.0, curl, ops) == "curl"


def test_split_degenerate_eigenspace():
    ops = ops_at(filled_triangle(), 1.0, 1)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))  # random rotation of the lambda=3 space
    pairs = assign_types(np.full(3, 3.0), q, ops, 3.0)
    assert [p.kind for p in pairs] == ["gradient", "gradient", "curl"]
    # columns orthonormal and pure
    basis = np.column_stack([p.vector for p in pairs])
    assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-9)
    for p in pairs:
        assert classify(3.0, p.vector, ops) == p.kind


def test_rotation_logged_per_cluster(caplog):
    ops = ops_at(filled_triangle(), 1.0, 1)
    with caplog.at_level(logging.DEBUG, logger="hodgetrack.spectral"):
        assign_types(np.full(3, 3.0), np.eye(3), ops, 3.0)
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG
    assert record.getMessage() == (
        "rotated cluster at lambda=3.000000e+00: 3 vectors, 2 gradient, 1 curl"
    )


def test_classification_total_on_random_complexes(rng):
    from hodgetrack import PointCloud, delaunay_2d, filtration_values

    for trial in range(5):
        pts = rng.uniform(-1, 1, size=(40, 2))
        fc = filtration_values(delaunay_2d(PointCloud(pts)))
        for t in np.quantile(fc.distinct_values(), [0.3, 0.6, 1.0]):
            spec = spectrum_at(fc, float(t), 1)  # every spectrum checks its ranks
            assert all(p.kind in ("harmonic", "gradient", "curl") for p in spec.pairs)


# -- Hodge projection -----------------------------------------------------------


def test_hodge_project_reconstructs(rng):
    ops = ops_at(cycle_complex(6), 1.0, 1)
    for _ in range(20):
        v = rng.normal(size=6)
        g, c, h = hodge_project(v, ops)
        assert np.linalg.norm(g + c + h - v) <= 1e-9
        assert abs(g @ c) <= 1e-9 and abs(g @ h) <= 1e-9 and abs(c @ h) <= 1e-9


def test_hodge_project_pure_parts():
    ops = ops_at(filled_triangle(), 1.0, 1)
    curl = np.array([1.0, -1.0, 1.0])
    g, c, h = hodge_project(curl, ops)
    assert np.linalg.norm(g) <= 1e-12 and np.linalg.norm(h) <= 1e-12
    assert np.allclose(c, curl, atol=1e-12)


def test_harmonic_dimension_matches_integer_oracle(rng):
    for _ in range(8):
        n = 7
        edges = sorted(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        )
        edge_set = set(edges)
        tris = sorted(
            (i, j, k)
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
            if {(i, j), (i, k), (j, k)} <= edge_set
        )
        fc = FilteredComplex.from_simplices(
            [(i,) for i in range(n)] + edges + tris,
            [0.0] * n + [1.0] * (len(edges) + len(tris)),
        )
        ops = ops_at(fc, 1.0, 1)
        b1 = ops.b_down.to_dense()
        b2 = ops.b_up.to_dense()
        oracle = ops.n - integer_rank(b1) - integer_rank(b2)
        assert harmonic_dimension(ops) == oracle
        spec = spectrum_of_slice(sublevel(fc, 1.0), 1)
        assert spec.counts()["harmonic"] == oracle


# -- exact ranks -----------------------------------------------------------------


def flag_complex(n: int, edges) -> FilteredComplex:
    """Clique complex up to dimension 3 of a graph on vertices 0..n-1."""
    edge_set = set(edges)
    simplices = [(i,) for i in range(n)] + sorted(edges)
    for size in (3, 4):
        simplices += [
            c
            for c in itertools.combinations(range(n), size)
            if all(e in edge_set for e in itertools.combinations(c, 2))
        ]
    return FilteredComplex.from_simplices(simplices, [0.0] * n + [1.0] * (len(simplices) - n))


@st.composite
def flag_complexes(draw):
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return flag_complex(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None)
@given(flag_complexes())
def test_rank_of_matches_integer_oracle(fc):
    sl = sublevel(fc, 1.0)
    for k in range(1, fc.dim + 1):
        b = boundary_matrix(sl, k)
        assert rank_of(b) == integer_rank(b.to_dense())


def test_tetrahedron_boundary_has_core():
    # every edge of the hollow tetrahedron lies in two triangles: nothing
    # peels and the whole B_2 is the core
    faces = [c for size in (1, 2, 3) for c in itertools.combinations(range(4), size)]
    fc = FilteredComplex.from_simplices(faces, [0.0] * 4 + [1.0] * 10)
    ops = ops_at(fc, 1.0, 2)
    assert spectral._exact_rank(ops.b_down) == (3, 0, (6, 4))
    assert harmonic_dimension(ops) == 1
    assert harmonic_dimension(ops_at(fc, 1.0, 1)) == 0
    assert spectrum_at(fc, 1.0, 2).counts()["harmonic"] == 1


def test_solid_tetrahedron_ranks():
    fc = flag_complex(4, list(itertools.combinations(range(4), 2)))
    assert fc.dim == 3
    sl = sublevel(fc, 1.0)
    assert [rank_of(boundary_matrix(sl, k)) for k in (1, 2, 3)] == [3, 3, 1]
    for k in (0, 1, 2, 3):
        assert harmonic_dimension(hodge_operators(sl, k)) == (1 if k == 0 else 0)


def test_rank_of_graph_counts_isolated_vertices():
    # components {0,1,2}, {3,4}, {5}, {6}, {7}: rank 8 - 5
    fc = FilteredComplex.from_simplices(
        [(i,) for i in range(8)] + [(0, 1), (0, 2), (1, 2), (3, 4)],
        [0.0] * 8 + [1.0] * 4,
    )
    b1 = boundary_matrix(sublevel(fc, 1.0), 1)
    assert rank_of(b1) == 3 == integer_rank(b1.to_dense())


def test_rank_of_empty_matrices():
    empty = np.zeros(0, dtype=np.int64)
    for n_rows, n_cols in ((0, 0), (0, 3), (3, 0), (3, 2)):
        mat = SparseSignMatrix(n_rows=n_rows, n_cols=n_cols, rows=empty, cols=empty, signs=empty)
        assert rank_of(mat) == 0


def test_harmonic_dimension_matches_dense_rank_on_delaunay(rng):
    from hodgetrack import PointCloud, delaunay_2d, filtration_values

    def dense_rank(mat):
        if mat.n_rows == 0 or mat.n_cols == 0:
            return 0
        return int(np.linalg.matrix_rank(mat.to_dense().astype(float)))

    fc = filtration_values(delaunay_2d(PointCloud(rng.uniform(-1, 1, size=(60, 2)))))
    for t in np.quantile(fc.distinct_values(), [0.1, 0.3, 0.5, 0.7, 1.0]):
        for k in (0, 1, 2):
            ops = ops_at(fc, float(t), k)
            dense = ops.n - dense_rank(ops.b_down) - dense_rank(ops.b_up)
            assert harmonic_dimension(ops) == dense


def test_harmonic_dimension_logs_empty_core_on_delaunay(rng, caplog):
    from hodgetrack import PointCloud, delaunay_2d, filtration_values

    fc = filtration_values(delaunay_2d(PointCloud(rng.uniform(-1, 1, size=(40, 2)))))
    ops = ops_at(fc, fc.max_value, 1)
    with caplog.at_level(logging.DEBUG, logger="hodgetrack.spectral"):
        harmonic_dimension(ops)
    (record,) = caplog.records
    msg = record.getMessage()
    assert f"k=1 n={ops.n}" in msg
    assert msg.count("core 0x0") == 2
    assert f"peeled {ops.b_up.n_cols}" in msg  # every triangle has a free edge


# -- solver paths ----------------------------------------------------------------


def test_budget_limits_pairs():
    spec = spectrum_at(cycle_complex(10), 1.0, 1, m=4)
    assert len(spec) == 4
    full = spectrum_at(cycle_complex(10), 1.0, 1)
    np.testing.assert_allclose(spec.values(), full.values()[:4], atol=1e-10)


def test_empty_slice_spectrum():
    spec = spectrum_at(hollow_triangle(), 0.5, 1)
    assert len(spec) == 0 and spec.n_chain == 0


def test_iterative_path_matches_dense(monkeypatch):
    fc = cycle_complex(24)
    dense = spectrum_at(fc, 1.0, 1, m=6)
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 4)
    sparse = spectrum_at(fc, 1.0, 1, m=6)
    np.testing.assert_allclose(sparse.values(), dense.values(), atol=1e-8)
    assert sparse.kinds() == dense.kinds()


def test_iterative_path_rejects_full_budget(monkeypatch):
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 4)
    with pytest.raises(SolverError):
        spectrum_at(cycle_complex(12), 1.0, 1)


def test_budget_inside_repeated_eigenvalue():
    # many copies of one motif give eigenvalues with high multiplicity; a
    # budget landing inside such a cluster must not break classification
    parts = []
    for b in range(0, 24, 3):
        parts += [(b, b + 1), (b + 1, b + 2)]  # paths of two edges
    fc = FilteredComplex.from_simplices(
        [(i,) for i in range(24)] + sorted(parts),
        [0.0] * 24 + [1.0] * len(parts),
    )
    full = spectrum_at(fc, 1.0, 1)
    vals = full.values()
    # pick m so that vals[m-1] == vals[m] (inside a multiplicity block)
    m = next(i for i in range(1, len(vals)) if abs(vals[i] - vals[i - 1]) < 1e-12)
    spec = spectrum_at(fc, 1.0, 1, m=m)
    assert len(spec) == m
    np.testing.assert_allclose(spec.values(), vals[:m], atol=1e-10)


def test_budget_clipped_after_widening(monkeypatch):
    # the iterative path also widens to the cluster edge, then clips
    fc = cycle_complex(30)  # eigenvalues come in pairs, so m=3 lands mid pair
    dense = spectrum_at(fc, 1.0, 1, m=3)
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 4)
    sparse = spectrum_at(fc, 1.0, 1, m=3)
    assert len(sparse) == 3 == len(dense)
    np.testing.assert_allclose(sparse.values(), dense.values(), atol=1e-8)


def four_triangles_and_pentagon() -> FilteredComplex:
    """Four disjoint filled triangles (L_1 = 3I on their 12 edges: 8 gradient
    and 4 curl directions) beside a hollow 5-cycle, whose L_1 eigenvalues
    0, 1.38, 1.38, 3.62, 3.62 bound the lambda=3 cluster on both sides so the
    iterative path, which returns at most n-1 pairs, can close it."""
    simplices = [(i,) for i in range(17)]
    for b in range(0, 12, 3):
        simplices += [(b, b + 1), (b, b + 2), (b + 1, b + 2), (b, b + 1, b + 2)]
    simplices += [tuple(sorted((12 + i, 12 + (i + 1) % 5))) for i in range(5)]
    return FilteredComplex.from_simplices(simplices, [0.0] * len(simplices))


@pytest.mark.parametrize("dense_limit", [spectral.DENSE_LIMIT, 4])
def test_budget_inside_mixed_cluster(monkeypatch, dense_limit):
    fc = four_triangles_and_pentagon()
    ops = ops_at(fc, 0.0, 1)
    full = spectrum_at(fc, 0.0, 1)
    tol_type = spectral.TYPE_TOL_COEFF * max(1.0, full.lam_max)
    monkeypatch.setattr(spectral, "DENSE_LIMIT", dense_limit)
    spec = spectrum_at(fc, 0.0, 1, m=5)  # the 5th value lies in the lambda=3 cluster
    assert len(spec) == 5
    np.testing.assert_allclose(spec.values(), full.values()[:5], atol=1e-8)
    assert spec.values()[-1] == pytest.approx(3.0)
    for p in spec.pairs:
        off = {"gradient": p.residual_up, "curl": p.residual_down}.get(p.kind, 0.0)
        assert off <= tol_type

    cluster = [p for p in full.pairs if abs(p.value - 3.0) < 1e-9]
    assert len(cluster) == 12
    # the exact projectors onto the triangles' gradient and curl spaces; each
    # triangle's boundary column has norm sqrt(3), and the pentagon has no triangle
    b2 = ops.b_up.to_dense().astype(float)
    proj_curl = b2 @ b2.T / 3.0
    proj_grad = np.zeros_like(proj_curl)
    proj_grad[:12, :12] = np.eye(12) - proj_curl[:12, :12]
    for kind, proj, dim in (("gradient", proj_grad, 8), ("curl", proj_curl, 4)):
        v = np.column_stack([p.vector for p in cluster if p.kind == kind])
        assert v.shape[1] == dim
        assert np.max(np.abs(v @ v.T - proj)) <= 1e-9


def test_negative_definite_rejected():
    ops = ops_at(path_complex(3), 1.0, 0)
    ops = dataclasses.replace(ops, laplacian=-ops.laplacian)
    with pytest.raises(SolverError):
        eigendecompose(ops)


def test_operators_are_one_frozen_record():
    ops = ops_at(filled_triangle(), 1.0, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ops.laplacian = ops.l_up
    assert np.array_equal(ops.down.toarray(), ops.b_down.to_dense())
    assert np.array_equal(ops.up.toarray(), ops.b_up.to_dense())
    for mat in (ops.down, ops.up, ops.l_up, ops.laplacian):
        assert mat.dtype == np.float64
    # the top dimension has an empty B_{k+1} with one row per k-simplex
    top = ops_at(filled_triangle(), 1.0, 2)
    assert (top.b_up.n_rows, top.b_up.n_cols, top.b_up.nnz) == (1, 0, 0)
    assert np.array_equal(top.laplacian.toarray(), [[3.0]])


@pytest.mark.parametrize("m", [0, -3])
def test_budget_below_one_is_an_input_error(m):
    fc = cycle_complex(5)
    for t in (1.0, 0.0):  # a full slice and one with no edges
        with pytest.raises(InputError):
            spectrum_of_slice(sublevel(fc, t), 1, m=m)
        with pytest.raises(InputError):
            eigendecompose(ops_at(fc, t, 1), m=m)


# -- canonical form ---------------------------------------------------------------


def test_canonical_sign_rules():
    assert canonical_sign(np.array([-2.0, 1.0])).tolist() == [2.0, -1.0]
    assert canonical_sign(np.array([2.0, -1.0])).tolist() == [2.0, -1.0]
    # tie on magnitude: first index wins
    assert canonical_sign(np.array([-1.0, 1.0])).tolist() == [1.0, -1.0]
    assert canonical_sign(np.zeros(0)).size == 0


def test_spectrum_vectors_sign_fixed():
    spec = spectrum_at(cycle_complex(8), 1.0, 1)
    for p in spec.pairs:
        i = int(np.argmax(np.abs(p.vector)))
        assert p.vector[i] > 0


def test_relabeling_preserves_values(rng):
    # same complex, vertices renamed by a permutation: identical eigenvalues
    n = 8
    fc = cycle_complex(n)
    perm = rng.permutation(n)
    simplices = [(int(perm[i]),) for i in range(n)]
    values = [0.0] * n
    for i in range(n):
        a, b = sorted((int(perm[i]), int(perm[(i + 1) % n])))
        simplices.append((a, b))
        values.append(1.0)
    fc2 = FilteredComplex.from_simplices(simplices, values)
    s1 = spectrum_at(fc, 1.0, 1)
    s2 = spectrum_at(fc2, 1.0, 1)
    np.testing.assert_allclose(s1.values(), s2.values(), atol=1e-9)


def test_json_dict_shape():
    spec = spectrum_at(filled_triangle(), 1.0, 1)
    d = spec.to_json_dict()
    assert d["dim"] == 1 and d["n_chain"] == 3 and len(d["pairs"]) == 3
    assert "vector" not in d["pairs"][0]
    d2 = spec.to_json_dict(include_vectors=True)
    assert len(d2["pairs"][0]["vector"]) == 3


def test_eigenvalue_equals_residual_identity(rng):
    # for a unit eigenvector, lambda = r_up^2 + r_down^2
    spec = spectrum_at(cycle_complex(9), 1.0, 1)
    for p in spec.pairs:
        assert abs(p.value - (p.residual_up**2 + p.residual_down**2)) < 1e-8
