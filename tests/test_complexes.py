import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodgetrack import (
    ClosureError,
    ComplexSlice,
    FilteredComplex,
    InputError,
    LineageError,
    MonotonicityError,
    ParseError,
    boundary_matrix,
    inclusion_map,
    read_complex_json,
    sublevel,
    write_complex_json,
)
from hodgetrack.complexes import IndexMap

from conftest import filled_triangle, hollow_triangle, path_complex
from oracles import boundary_oracle, closure_defects, integer_rank


def test_from_simplices_implies_vertices():
    fc = FilteredComplex.from_simplices([(0, 1)], [1.0])
    assert fc.n_simplices(0) == 2
    assert fc.values(0).tolist() == [0.0, 0.0]


def test_vertices_must_enter_at_zero():
    with pytest.raises(MonotonicityError):
        FilteredComplex.from_simplices([(0,), (1,), (0, 1)], [0.5, 0.0, 1.0])


def test_rejects_missing_face():
    with pytest.raises(ClosureError) as exc:
        FilteredComplex.from_simplices(
            [(0,), (1,), (2,), (0, 1), (0, 1, 2)], [0, 0, 0, 1, 1]
        )
    assert "[0, 2]" in str(exc.value) or "[1, 2]" in str(exc.value)


def test_rejects_value_below_face():
    with pytest.raises(MonotonicityError):
        FilteredComplex.from_simplices(
            [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)],
            [0, 0, 0, 1.0, 1.0, 1.0, 0.5],
        )


def test_rejects_unsorted_vertices():
    with pytest.raises(InputError):
        FilteredComplex.from_simplices([(1, 0)], [1.0])


def test_rejects_duplicate_simplex():
    with pytest.raises(InputError):
        FilteredComplex.from_simplices([(0, 1), (0, 1)], [1.0, 1.0])


def test_sublevel_slices_nested():
    fc = filled_triangle()
    s0 = sublevel(fc, 0.5)
    assert s0.n_simplices(0) == 3 and s0.n_simplices(1) == 0
    s1 = sublevel(fc, 1.0)
    assert s1.n_simplices(1) == 3 and s1.n_simplices(2) == 1
    # threshold is inclusive
    assert sublevel(fc, 0.999).n_simplices(1) == 0


def test_boundary_matrix_signs():
    sl = sublevel(filled_triangle(), 1.0)
    b1 = boundary_matrix(sl, 1).to_dense()
    # edges (0,1), (0,2), (1,2) in lexicographic order
    expected = np.array([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    assert np.array_equal(b1, expected)
    b2 = boundary_matrix(sl, 2).to_dense()
    assert np.array_equal(b2, np.array([[1], [-1], [1]]))


def test_boundary_of_boundary_zero():
    sl = sublevel(filled_triangle(), 1.0)
    b1 = boundary_matrix(sl, 1).to_dense()
    b2 = boundary_matrix(sl, 2).to_dense()
    assert np.array_equal(b1 @ b2, np.zeros((3, 1)))


def test_boundary_dim_zero_empty():
    sl = sublevel(path_complex(3), 1.0)
    b0 = boundary_matrix(sl, 0)
    assert b0.n_rows == 0 and b0.n_cols == 3 and b0.nnz == 0


def test_boundary_entries_sorted_by_column():
    sl = sublevel(filled_triangle(), 1.0)
    b1 = boundary_matrix(sl, 1)
    order = list(zip(b1.cols.tolist(), b1.rows.tolist()))
    assert order == sorted(order)


def test_rank_matches_integer_oracle(rng):
    # random flag complexes from random graphs
    for _ in range(10):
        n = 8
        edges = sorted(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.45
        )
        edge_set = set(edges)
        tris = sorted(
            (i, j, k)
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
            if {(i, j), (i, k), (j, k)} <= edge_set
        )
        simplices = [(i,) for i in range(n)] + edges + tris
        values = [0.0] * n + [1.0] * (len(edges) + len(tris))
        fc = FilteredComplex.from_simplices(simplices, values)
        sl = sublevel(fc, 1.0)
        for k in (1, 2):
            dense = boundary_matrix(sl, k).to_dense()
            assert np.linalg.matrix_rank(dense) == integer_rank(dense)


@st.composite
def monotone_flag_complexes(draw):
    """Clique complex up to dimension 3 on up to 8 distinct vertex ids of magnitude
    up to 2**62, each simplex valued at least its faces, listed in shuffled order."""
    ids = sorted(draw(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=8, unique=True)))
    pairs = list(itertools.combinations(ids, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    value = {(v,): 0.0 for v in ids}
    for e, kept in zip(pairs, keep):
        if kept:
            value[e] = float(draw(st.integers(0, 3)))
    for size in (3, 4):
        for c in itertools.combinations(ids, size):
            faces = list(itertools.combinations(c, size - 1))
            if all(f in value for f in faces):
                value[c] = max(value[f] for f in faces) + float(draw(st.integers(0, 1)))
    return draw(st.permutations(sorted(value.items())))


# ids whose difference, 2**63, overflows int64: ascending checks must compare
WIDEST_EDGE = [((-(2**62),), 0.0), ((2**62,), 0.0), ((-(2**62), 2**62), 1.0)]


@settings(max_examples=100, deadline=None)
@given(monotone_flag_complexes())
@example(WIDEST_EDGE)
def test_boundary_matches_oracle_at_every_value(items):
    fc = FilteredComplex.from_simplices([s for s, _ in items], [v for _, v in items])
    for t in fc.distinct_values():
        sl = sublevel(fc, t)
        by_dim = {k: sorted(s for s, v in items if v <= t and len(s) == k + 1) for k in range(4)}
        for k in range(1, fc.dim + 1):
            b = boundary_matrix(sl, k)
            assert (b.n_rows, b.n_cols) == (len(by_dim[k - 1]), len(by_dim[k]))
            entries = list(zip(b.rows.tolist(), b.cols.tolist(), b.signs.tolist()))
            assert entries == boundary_oracle(by_dim[k], by_dim[k - 1])


@settings(max_examples=100, deadline=None)
@given(monotone_flag_complexes())
@example(WIDEST_EDGE)
def test_missing_faces_raise_closure_error(items):
    fc = FilteredComplex.from_simplices([s for s, _ in items], [v for _, v in items])
    full = sublevel(fc, fc.max_value)
    for k in range(1, fc.dim + 1):
        # a hand-built slice that drops one face of its last k-simplex
        drop = full.simplices(k - 1).index(full.simplices(k)[-1][1:])
        kept = np.delete(full.indices[k - 1], drop)
        unclosed = ComplexSlice(parent=fc, t=full.t, indices={**full.indices, k - 1: kept})
        with pytest.raises(ClosureError):
            boundary_matrix(unclosed, k)
    for k in range(2, fc.dim + 1):
        # a complex missing one face, or every simplex of dimension k-1
        face = full.simplices(k)[0][:-1]
        for dropped in ({face}, set(full.simplices(k - 1))):
            rest = [(s, v) for s, v in items if s not in dropped]
            with pytest.raises(ClosureError):
                FilteredComplex.from_simplices([s for s, _ in rest], [v for _, v in rest])


def test_closure_oracle_agrees():
    fc = filled_triangle()
    sl = sublevel(fc, 1.0)
    by_dim = {k: set(sl.simplices(k)) for k in (0, 1, 2)}
    assert closure_defects(by_dim) == []


def test_inclusion_map_positions():
    fc = filled_triangle()
    small, large = sublevel(fc, 0.0), sublevel(fc, 1.0)
    imap = inclusion_map(small, large, 0)
    assert imap.idx.tolist() == [0, 1, 2]
    v = np.array([1.0, 2.0, 3.0])
    assert imap.extend(v).tolist() == [1.0, 2.0, 3.0]


def test_inclusion_map_pads_new_simplices():
    fc = FilteredComplex.from_simplices(
        [(0,), (1,), (2,), (0, 2), (0, 1), (1, 2)],
        [0.0, 0.0, 0.0, 1.0, 2.0, 2.0],
    )
    small, large = sublevel(fc, 1.0), sublevel(fc, 2.0)
    imap = inclusion_map(small, large, 1)
    # edge (0,2) is index 0 at t=1 and index 1 in the lexicographic t=2 order
    assert imap.idx.tolist() == [1]
    out = imap.extend(np.array([5.0]))
    assert out.tolist() == [0.0, 5.0, 0.0]


def test_inclusion_requires_same_parent_and_order():
    fc = filled_triangle()
    other = hollow_triangle()
    with pytest.raises(LineageError):
        inclusion_map(sublevel(fc, 0.0), sublevel(other, 1.0), 0)
    with pytest.raises(LineageError):
        inclusion_map(sublevel(fc, 1.0), sublevel(fc, 0.0), 1)


def test_inclusion_composes(rng):
    fc = FilteredComplex.from_simplices(
        [(0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 3)],
        [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 3.0],
    )
    s1, s2, s3 = sublevel(fc, 1.0), sublevel(fc, 2.0), sublevel(fc, 3.0)
    ab = inclusion_map(s1, s2, 1)
    bc = inclusion_map(s2, s3, 1)
    ac = inclusion_map(s1, s3, 1)
    v = rng.normal(size=s1.n_simplices(1))
    assert np.array_equal(bc.extend(ab.extend(v)), ac.extend(v))
    assert np.array_equal(ab.compose(bc).idx, ac.idx)


def test_json_round_trip(tmp_path):
    fc = filled_triangle()
    path = tmp_path / "cx.json"
    write_complex_json(fc, path)
    back = read_complex_json(path)
    assert back == fc


def test_json_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        read_complex_json(p)
    p.write_text('{"simplices": [[0]], "values": [0.0, 1.0]}')
    with pytest.raises(ParseError):
        read_complex_json(p)


def test_boundary_csv(tmp_path):
    sl = sublevel(filled_triangle(), 1.0)
    b2 = boundary_matrix(sl, 2)
    path = tmp_path / "b2.csv"
    b2.write_csv(path)
    assert path.read_text() == "row,col,sign\n0,0,1\n1,0,-1\n2,0,1\n"


def test_index_map_rejects_bad_length():
    imap = IndexMap(k=1, src_size=2, dst_size=3, idx=np.array([0, 2]))
    with pytest.raises(InputError):
        imap.extend(np.ones(3))
