"""Hodge Laplacians and typed eigendecompositions of complex slices.

For chains of dimension k the operator is L_k = B_k^T B_k + B_{k+1} B_{k+1}^T
with the signed boundary matrices assembled exactly in integers. Every
eigenvector is attributed to exactly one of the three orthogonal subspaces of
the chain space: the kernel of L_k (harmonic), the image of B_k^T (gradient),
or the image of B_{k+1} (curl). Attribution uses the boundary residuals
r_down = |B_k v| and r_up = |B_{k+1}^T v|; a unit eigenvector satisfies
lambda = r_down^2 + r_up^2, so exactly one residual vanishes for eigenvectors
that lie in a single subspace. A solver may return any basis of a degenerate
eigenspace; where such a basis mixes gradient and curl, a Rayleigh-Ritz step
on L_up = B_{k+1} B_{k+1}^T rotates it into pure vectors, since L_up commutes
with L_k and acts as 0 on the gradient part and as lambda on the curl part of
a positive eigenspace.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .complexes import ComplexSlice, FilteredComplex, SparseSignMatrix, boundary_matrix, sublevel
from .errors import ClassificationError, DimensionError, InputError, SolverError

HARMONIC = "harmonic"
GRADIENT = "gradient"
CURL = "curl"
KINDS = (HARMONIC, GRADIENT, CURL)

ZERO_TOL_COEFF = 1e-9  # harmonic cutoff, relative to max(1, lambda_max)
TYPE_TOL_COEFF = 1e-7  # residual cutoff for gradient/curl attribution
RESIDUAL_COEFF = 1e-8  # accepted eigenpair backward error
CLUSTER_COEFF = 1e-8  # eigenvalue gap below which eigenspaces are merged
DENSE_LIMIT = 3000  # largest operator handled by the dense solver

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class HodgeOperators:
    """Boundary matrices and Laplacian pieces for one slice and dimension.

    Built once by hodge_operators: b_down and b_up are the exact signed
    matrices B_k and B_{k+1}, down and up the same matrices as float CSC,
    l_up = B_{k+1} B_{k+1}^T and laplacian = L_k as float CSR.
    """

    k: int
    n: int
    b_down: SparseSignMatrix
    b_up: SparseSignMatrix
    down: sp.csc_matrix
    up: sp.csc_matrix
    l_up: sp.csr_matrix
    laplacian: sp.csr_matrix

    def lambda_max_bound(self) -> float:
        """Gershgorin upper bound for the largest eigenvalue."""
        if self.n == 0:
            return 0.0
        return float(np.max(np.abs(self.laplacian).sum(axis=1)))


def hodge_operators(sl: ComplexSlice, k: int) -> HodgeOperators:
    """Assemble B_k and B_{k+1} for a slice and the Laplacian pieces.

    The products are formed and summed in integers and converted to float
    once, so L_k's entries and their order do not depend on rounding.
    """
    if k < 0 or k > max(sl.parent.dim, 0):
        raise DimensionError(
            f"operator dimension {k} outside range 0..{max(sl.parent.dim, 0)}"
        )
    n = sl.n_simplices(k)
    b_down = boundary_matrix(sl, k)
    b_up = boundary_matrix(sl, k + 1) if k < sl.parent.dim else SparseSignMatrix.empty(n, 0)
    down, up = b_down.to_csc(), b_up.to_csc()
    l_up = (up @ up.T).tocsr()
    laplacian = (down.T @ down + l_up).tocsr()
    return HodgeOperators(
        k=k, n=n, b_down=b_down, b_up=b_up,
        down=down.astype(float), up=up.astype(float),
        l_up=l_up.astype(float), laplacian=laplacian.astype(float),
    )


def _clusters(vals: np.ndarray, tol: float) -> list[range]:
    """Maximal runs of ascending eigenvalues whose consecutive gaps are <= tol."""
    ends = [*(np.flatnonzero(np.diff(vals) > tol) + 1).tolist(), len(vals)]
    return [range(start, stop) for start, stop in zip([0, *ends[:-1]], ends)]


def _check_budget(m: int | None) -> None:
    if m is not None and m < 1:
        raise InputError(f"eigenpair budget must be at least 1, got {m}")


def eigendecompose(ops: HodgeOperators, m: int | None = None):
    """Smallest eigenpairs of the Laplacian, ascending.

    Returns (values, vectors, lambda_max). At least m pairs come back, but a
    budget falling inside a near-degenerate eigenvalue cluster is widened to
    the end of that cluster: a truncated cluster spans no invariant subspace
    and could not be attributed to the Hodge subspaces. Dense solves are used
    up to DENSE_LIMIT rows and compute the full spectrum, so lambda_max is
    exact there; the iterative path estimates it separately. Every returned
    pair is checked against the backward-error bound |Lv - lambda v| <=
    1e-8 * max(1, lambda_max). A budget below 1 raises InputError.
    """
    _check_budget(m)
    n = ops.n
    if n == 0:
        return np.zeros(0), np.zeros((0, 0)), 0.0
    m_eff = n if m is None else min(int(m), n)

    if n <= DENSE_LIMIT:
        try:
            vals, vecs = scipy.linalg.eigh(ops.laplacian.toarray())
        except scipy.linalg.LinAlgError as e:
            raise SolverError(f"dense eigensolver failed: {e}") from None
        lam_max = float(vals[-1])
    else:
        if m_eff >= n:
            raise SolverError(
                f"iterative path cannot return all {n} eigenpairs; "
                f"request a budget below the chain dimension"
            )
        mat = ops.laplacian
        v0 = np.full(n, 1.0 / np.sqrt(n))
        try:
            top = spla.eigsh(mat, k=1, which="LA", v0=v0, tol=1e-9)[0]
        except spla.ArpackNoConvergence as e:
            raise SolverError(f"iterative eigensolver did not converge: {e}") from None
        lam_max = float(top[0])
        tol_cluster = CLUSTER_COEFF * max(1.0, lam_max)
        sigma = -1e-3 * max(1.0, lam_max)
        k = m_eff
        while True:
            k_try = min(k + 8, n - 1)
            try:
                vals, vecs = spla.eigsh(mat, k=k_try, sigma=sigma, which="LM", v0=v0)
            except spla.ArpackNoConvergence as e:
                raise SolverError(
                    f"iterative eigensolver did not converge: {e}"
                ) from None
            order = np.argsort(vals)
            vals = vals[order]
            vecs = vecs[:, order]
            # stop once the cluster holding the m-th value ends inside the batch
            if _clusters(vals, tol_cluster)[-1].start >= m_eff or k_try == n - 1:
                break
            k = k_try

    scale = max(1.0, lam_max)
    cut = next(c.stop for c in _clusters(vals, CLUSTER_COEFF * scale) if c.stop >= m_eff)
    vals, vecs = vals[:cut], vecs[:, :cut]
    resid = ops.laplacian @ vecs - vecs * vals[None, :]
    worst = float(np.max(np.linalg.norm(resid, axis=0)))
    if worst > RESIDUAL_COEFF * scale:
        raise SolverError(
            f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_COEFF * scale:.3e}"
        )
    if np.any(vals < -ZERO_TOL_COEFF * scale):
        raise SolverError(f"negative eigenvalue {vals.min():.3e} from a PSD operator")
    vals = np.maximum(vals, 0.0)
    return vals, vecs, lam_max


def residuals(v: np.ndarray, ops: HodgeOperators):
    """(r_up, r_down) = (|B_{k+1}^T v|, |B_k v|); per column for a block."""
    v = np.asarray(v, dtype=float)
    r_up = np.linalg.norm(ops.up.T @ v, axis=0)
    r_down = np.linalg.norm(ops.down @ v, axis=0)
    return r_up, r_down


def _kind(value: float, r_up: float, r_down: float, scale: float) -> str | None:
    """Harmonic at or below the zero cutoff, otherwise the one subspace whose
    residual vanishes; None when neither or both do. Both cutoffs are
    relative to scale = max(1, lambda_max)."""
    tol_type = TYPE_TOL_COEFF * scale
    if value <= ZERO_TOL_COEFF * scale:
        return HARMONIC
    if r_up <= tol_type < r_down:
        return GRADIENT
    if r_down <= tol_type < r_up:
        return CURL
    return None


def classify(
    value: float,
    vector: np.ndarray,
    ops: HodgeOperators,
    lam_max: float | None = None,
) -> str:
    """Attribute one eigenpair to harmonic, gradient, or curl.

    Raises ClassificationError when both residuals are large, meaning the
    vector straddles subspaces; for a degenerate eigenspace the caller should
    first rotate the basis, as assign_types does.
    """
    scale = max(1.0, ops.lambda_max_bound() if lam_max is None else lam_max)
    r_up, r_down = residuals(vector, ops)
    kind = _kind(value, r_up, r_down, scale)
    if kind is None:
        raise ClassificationError(
            f"eigenvector at lambda={value:.6e} has residuals r_up={r_up:.3e}, "
            f"r_down={r_down:.3e}; it does not lie in a single subspace"
        )
    return kind


def hodge_project(v: np.ndarray, ops: HodgeOperators):
    """Orthogonal decomposition of a chain into (gradient, curl, harmonic).

    The gradient and curl parts are least-squares projections onto the images
    of B_k^T and B_{k+1}; the harmonic part is the remainder.
    """
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    cols = v[:, None] if single else v
    if cols.shape[0] != ops.n:
        raise DimensionError(f"vector length {cols.shape[0]} != chain dim {ops.n}")

    if ops.b_down.n_rows:
        bdt = ops.down.T.toarray()
        y, *_ = np.linalg.lstsq(bdt, cols, rcond=None)
        grad = bdt @ y
    else:
        grad = np.zeros_like(cols)
    if ops.b_up.n_cols:
        bu = ops.up.toarray()
        z, *_ = np.linalg.lstsq(bu, cols, rcond=None)
        curl = bu @ z
    else:
        curl = np.zeros_like(cols)
    harm = cols - grad - curl
    if single:
        return grad[:, 0], curl[:, 0], harm[:, 0]
    return grad, curl, harm


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip so the largest-magnitude entry is positive; first index on ties."""
    if len(v) == 0:
        return v
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


@dataclass
class TypedEigenpair:
    value: float
    vector: np.ndarray
    kind: str
    residual_up: float
    residual_down: float


@dataclass
class TypedSpectrum:
    """Classified eigenpairs of one slice/dimension, ascending eigenvalue."""

    k: int
    t: float
    pairs: list[TypedEigenpair]
    lam_max: float
    n_chain: int

    def __len__(self) -> int:
        return len(self.pairs)

    def values(self) -> np.ndarray:
        return np.asarray([p.value for p in self.pairs])

    def vectors(self) -> np.ndarray:
        if not self.pairs:
            return np.zeros((self.n_chain, 0))
        return np.column_stack([p.vector for p in self.pairs])

    def kinds(self) -> list[str]:
        return [p.kind for p in self.pairs]

    def counts(self) -> dict[str, int]:
        out = {kind: 0 for kind in KINDS}
        for p in self.pairs:
            out[p.kind] += 1
        return out

    def select(self, kind: str) -> list[TypedEigenpair]:
        return [p for p in self.pairs if p.kind == kind]

    def to_json_dict(self, include_vectors: bool = False) -> dict:
        pairs = []
        for p in self.pairs:
            rec = {
                "lambda": float(p.value),
                "type": p.kind,
                "residual_up": float(p.residual_up),
                "residual_down": float(p.residual_down),
            }
            if include_vectors:
                rec["vector"] = [float(x) for x in p.vector]
            pairs.append(rec)
        return {"t": float(self.t), "dim": int(self.k), "n_chain": int(self.n_chain), "pairs": pairs}


def assign_types(vals: np.ndarray, vecs: np.ndarray, ops: HodgeOperators, lam_max: float) -> list[TypedEigenpair]:
    """Type every eigenpair by its residuals, rotating mixed eigenspaces.

    Each pair gets its kind from one rule (see _kind). A cluster of near-equal
    eigenvalues that holds an untyped vector spans a degenerate eigenspace
    whose basis mixes gradient and curl. Its positive-eigenvalue columns V are
    replaced by V W, where W holds the eigenvectors of U^T U with
    U = B_{k+1}^T V: the Ritz values of L_up ascend from 0 (gradient) to
    lambda (curl), so gradient columns come first. The rule then runs again on
    the rotated columns, and a vector that is still impure raises
    ClassificationError. Each rotation is logged at DEBUG.
    """
    scale = max(1.0, lam_max)
    r_up, r_down = residuals(vecs, ops)
    kinds = [_kind(*x, scale) for x in zip(vals, r_up, r_down)]
    for cluster in _clusters(vals, CLUSTER_COEFF * scale):
        if all(kinds[i] for i in cluster):
            continue
        cols = [i for i in cluster if kinds[i] != HARMONIC]
        u = ops.up.T @ vecs[:, cols]
        vecs[:, cols] = vecs[:, cols] @ np.linalg.eigh(u.T @ u)[1]
        r_up[cols], r_down[cols] = residuals(vecs[:, cols], ops)
        for i in cols:
            kinds[i] = _kind(vals[i], r_up[i], r_down[i], scale)
        rotated = [kinds[i] for i in cols]
        logger.debug(
            "rotated cluster at lambda=%.6e: %d vectors, %d gradient, %d curl",
            vals[cols[0]], len(cols), rotated.count(GRADIENT), rotated.count(CURL),
        )

    pairs = []
    for i, kind in enumerate(kinds):
        if kind is None:
            raise ClassificationError(
                f"eigenvector at lambda={vals[i]:.6e} has residuals r_up={r_up[i]:.3e}, "
                f"r_down={r_down[i]:.3e} after rotating its eigenspace"
            )
        pairs.append(
            TypedEigenpair(
                value=float(vals[i]),
                vector=canonical_sign(vecs[:, i].copy()),
                kind=kind,
                residual_up=float(r_up[i]),
                residual_down=float(r_down[i]),
            )
        )
    return pairs


def _exact_rank(mat: SparseSignMatrix) -> tuple[int, int, tuple[int, int]]:
    """(rank, columns peeled, shape of the core left for the numerical check).

    A matrix whose every column holds one +1 and one -1 is the incidence
    matrix of a graph on its rows: its rank is n_rows minus the number of
    connected components, isolated rows counting as components. Any other
    matrix is peeled: a row with exactly one live entry is a free face, and
    row-reducing with it splits off a 1x1 block, so deleting that row and its
    column adds exactly 1 to the rank over any field. Peeling repeats until
    no free face is left; only the remaining core (non-empty when the complex
    has cycles of the column dimension, such as a hollow tetrahedron) is
    handed to the numerical rank.
    """
    n_rows, n_cols = mat.n_rows, mat.n_cols
    if n_rows == 0 or n_cols == 0:
        return 0, 0, (0, 0)
    col_nnz = np.bincount(mat.cols, minlength=n_cols)
    col_sums = np.bincount(mat.cols, weights=mat.signs, minlength=n_cols)
    by_col = np.argsort(mat.cols, kind="stable")
    if np.all(col_nnz == 2) and not np.any(col_sums):
        ends = mat.rows[by_col].reshape(-1, 2)
        graph = sp.coo_matrix((np.ones(n_cols), (ends[:, 0], ends[:, 1])), shape=(n_rows, n_rows))
        n_components = connected_components(graph, directed=False)[0]
        return n_rows - int(n_components), 0, (0, 0)

    by_row = np.argsort(mat.rows, kind="stable")
    row_cols = mat.cols[by_row].tolist()
    row_nnz = np.bincount(mat.rows, minlength=n_rows)
    row_ptr = np.concatenate(([0], np.cumsum(row_nnz))).tolist()
    col_rows = mat.rows[by_col].tolist()
    col_ptr = np.concatenate(([0], np.cumsum(col_nnz))).tolist()
    live = row_nnz.tolist()  # entries of each row in columns not yet peeled
    alive = [True] * n_cols
    free = [r for r in range(n_rows) if live[r] == 1]
    peeled = 0
    while free:
        r = free.pop()
        if live[r] != 1:
            continue
        c = next(c for c in row_cols[row_ptr[r] : row_ptr[r + 1]] if alive[c])
        alive[c] = False
        peeled += 1
        for r2 in col_rows[col_ptr[c] : col_ptr[c + 1]]:
            live[r2] -= 1
            if live[r2] == 1:
                free.append(r2)

    core_rows = np.flatnonzero(np.asarray(live) > 0)
    core_cols = np.flatnonzero(np.asarray(alive) & (col_nnz > 0))
    if len(core_cols) == 0:
        return peeled, peeled, (0, 0)
    keep = np.isin(mat.cols, core_cols)
    core = np.zeros((len(core_rows), len(core_cols)))
    core[
        np.searchsorted(core_rows, mat.rows[keep]),
        np.searchsorted(core_cols, mat.cols[keep]),
    ] = mat.signs[keep]
    return peeled + int(np.linalg.matrix_rank(core)), peeled, core.shape


def rank_of(mat: SparseSignMatrix) -> int:
    """Exact rank of a signed incidence matrix: connected components for a
    vertex-edge matrix, free-face peeling otherwise, and a numerical rank
    only on the unpeelable core. No dense copy of the whole matrix is built.
    """
    return _exact_rank(mat)[0]


def harmonic_dimension(ops: HodgeOperators) -> int:
    """Kernel dimension of L_k by the rank identity |S_k| - rk B_k - rk B_{k+1}.

    Both ranks are exact (components / free-face peeling, numerical rank only
    on the unpeelable core; see rank_of). The ranks, the peeled column counts
    and the core shapes are logged at DEBUG.
    """
    rk_down, peeled_down, core_down = _exact_rank(ops.b_down)
    rk_up, peeled_up, core_up = _exact_rank(ops.b_up)
    logger.debug(
        "harmonic_dimension k=%d n=%d: rk B_%d=%d (peeled %d, core %dx%d), "
        "rk B_%d=%d (peeled %d, core %dx%d)",
        ops.k, ops.n,
        ops.k, rk_down, peeled_down, *core_down,
        ops.k + 1, rk_up, peeled_up, *core_up,
    )
    return ops.n - rk_down - rk_up


def spectrum_at(
    fc: FilteredComplex,
    t: float,
    k: int,
    m: int | None = None,
) -> TypedSpectrum:
    """Typed spectrum of the dimension-k Laplacian of the sublevel slice at t."""
    return spectrum_of_slice(sublevel(fc, t), k, m=m)


def spectrum_of_slice(
    sl: ComplexSlice,
    k: int,
    m: int | None = None,
) -> TypedSpectrum:
    """Typed spectrum of the dimension-k Laplacian of a slice: the m smallest
    eigenpairs, or all of them when m is None.

    The harmonic count is always cross-checked against the rank identity
    dim ker L_k = |S_k| - rk B_k - rk B_{k+1}, with exact ranks (components /
    free-face peeling, numerical rank only on the unpeelable core); a mismatch
    raises SolverError. A budget below 1 raises InputError.
    """
    _check_budget(m)
    ops = hodge_operators(sl, k)
    if ops.n == 0:
        return TypedSpectrum(k=k, t=sl.t, pairs=[], lam_max=0.0, n_chain=0)
    vals, vecs, lam_max = eigendecompose(ops, m=m)
    pairs = assign_types(vals, vecs, ops, lam_max)
    if m is not None and len(pairs) > m:
        # the solver widens a budget that lands inside an eigenvalue cluster so
        # the Ritz rotation sees the whole eigenspace; every vector is pure
        # now, so cutting back to m keeps each kept vector's type
        pairs = pairs[:m]
    expected = harmonic_dimension(ops)
    observed = sum(1 for p in pairs if p.kind == HARMONIC)
    if observed != min(expected, len(pairs)):
        raise SolverError(
            f"harmonic count {observed} disagrees with rank identity "
            f"{expected} (m={len(pairs)}, n={ops.n})"
        )
    return TypedSpectrum(k=k, t=sl.t, pairs=pairs, lam_max=lam_max, n_chain=ops.n)
