"""Dense symmetric linear algebra kernel.

Eigendecomposition, rank-sized PSD factors, numerical rank, the range and
null space of a symmetric matrix, and the null space of a set of rows.

One rule makes every rank and sign decision here: a value v of a spectrum
counts when |v| > max(cut, len*eps*max|v|), the second term being the
roundoff floor of the decomposition.  For the eigenvalues of an instance
matrix (``inertia``, ``range_and_null``, the ``NotPsd`` test of
``psd_factor``) the cut is the instance's tol_rank * ``model.data_scale``,
so a verdict does not depend on the units of the data.  The rows of
``psd_factor`` take a cut of 0, so an eigenvalue the certificates treat as
zero can still bound x.  For singular values (``numerical_rank``,
``null_space_of_rows``) the cut is tol * the largest one.

Every function here returns the same result for the same inputs.  The one
piece of state is memoisation on ``SymMatrix``: its dense view and its
eigendecomposition are computed on first use and kept on the matrix, so
instance validation, the builders, the exactness certificates and recovery
share one numpy ``eigh`` call per matrix.  A ``SymMatrix`` is immutable to
make that safe: its fields cannot be reassigned, and ``packed``, ``dense()``
and the arrays ``sym_eig`` returns are read-only (writing into them raises
``ValueError``).  Copy an array before changing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, InvalidMatrix, NotPsd

# Shared relative tolerance for every rank decision in the package.
DEFAULT_RANK_TOL = 1e-8
_SYM_TOL = 1e-10  # relative asymmetry that SymMatrix.from_dense accepts


def _packed_size(n: int) -> int:
    return n * (n + 1) // 2


@dataclass(frozen=True)
class SymMatrix:
    """Real symmetric matrix stored as its packed upper triangle (row-major).

    The packed storage makes ``entries[i][j] == entries[j][i]`` hold exactly.
    The matrix is an immutable value: ``packed`` is a private read-only copy
    of the argument, and the dense view and the eigendecomposition
    (``sym_eig``) are each computed once, on demand, and returned read-only.
    """

    n: int
    packed: np.ndarray
    _dense: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _eig: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        packed = np.array(self.packed, dtype=float).reshape(-1)
        packed.setflags(write=False)
        object.__setattr__(self, "packed", packed)
        if self.n <= 0:
            raise InvalidMatrix(f"order must be positive, got {self.n}")
        if self.packed.size != _packed_size(self.n):
            raise InvalidMatrix(
                f"packed triangle of an order-{self.n} matrix needs "
                f"{_packed_size(self.n)} entries, got {self.packed.size}"
            )
        if not np.all(np.isfinite(self.packed)):
            raise InvalidMatrix("matrix entries must be finite")

    def __reduce__(self):
        # pickle and deepcopy rebuild through __init__: the copy's packed
        # triangle is frozen again and its caches start empty
        return (type(self), (self.n, self.packed))

    @classmethod
    def from_dense(cls, a) -> "SymMatrix":
        """Symmetric part of a square matrix whose asymmetry is within 1e-10
        of its largest entry, at any scale."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidMatrix("matrix entries must be finite")
        if np.abs(a - a.T).max() > _SYM_TOL * np.abs(a).max():
            raise InvalidMatrix("matrix is not symmetric within tolerance")
        n = a.shape[0]
        sym = 0.5 * (a + a.T)
        iu = np.triu_indices(n)
        return cls(n, sym[iu])

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls.from_dense(np.eye(n))

    def dense(self) -> np.ndarray:
        if self._dense is None:
            a = np.zeros((self.n, self.n))
            iu = np.triu_indices(self.n)
            a[iu] = self.packed
            a = a + np.triu(a, 1).T
            a.setflags(write=False)
            object.__setattr__(self, "_dense", a)
        return self._dense

    def __matmul__(self, other):
        return self.dense() @ other

    def quad(self, x) -> float:
        """Evaluate the quadratic form x' M x."""
        x = np.asarray(x, dtype=float)
        return float(x @ (self.dense() @ x))


def sym_eig(m: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Uses numpy's ``eigh``, which is deterministic, so repeated runs are
    bit-identical.  Returns ``(w, v)`` with ``m = v diag(w) v'``.
    The decomposition is computed once per matrix and kept on it; every call
    returns the same read-only arrays.
    """
    if m._eig is None:
        w, v = np.linalg.eigh(m.dense())
        w, v = w[::-1].copy(), v[:, ::-1].copy()
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(m, "_eig", (w, v))
    return m._eig


def _counts(v: np.ndarray, cut: float) -> np.ndarray:
    """Mask of the values that count: |v| > max(cut, len(v)*eps*max|v|)."""
    mag = np.abs(v)
    return mag > max(cut, v.size * np.finfo(float).eps * float(mag.max(initial=0.0)))


def inertia(m: SymMatrix, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks (positive, negative) over the eigenvalues w of ``sym_eig(m)``:
    the values that count at ``cut`` (see the module docstring), by sign."""
    w, _ = sym_eig(m)
    counts = _counts(w, cut)
    return counts & (w > 0.0), counts & (w < 0.0)


def psd_factor(m: SymMatrix, cut: float) -> np.ndarray:
    """Factor F = diag(sqrt(w)) V' of the positive part of a PSD matrix, so
    F'F = M up to roundoff.

    F has one row per positive eigenvalue above the roundoff floor alone, in
    descending order.  ``cut`` sets only the ``NotPsd`` test, the one that
    ``QcqpInstance`` validation applies: raises when ``inertia`` at ``cut``
    finds a negative eigenvalue; negative eigenvalues above that are dropped.
    """
    w, v = sym_eig(m)  # n >= 1, so w is never empty
    if inertia(m, cut)[1].any():
        raise NotPsd(f"minimum eigenvalue {w[-1]:.3e} is negative at cut {cut:.1e}")
    r = int(np.count_nonzero(inertia(m, 0.0)[0]))
    return np.sqrt(w[:r])[:, None] * v[:, :r].T


def _rank(sv: np.ndarray, tol_rel: float) -> int:
    """Number of singular values (descending, at least one) that count at a
    cut of tol_rel * the largest."""
    return int(np.count_nonzero(_counts(sv, tol_rel * float(sv[0]))))


def numerical_rank(vectors, tol_rel: float = DEFAULT_RANK_TOL) -> int:
    """Rank of the span of the rows of a (k, n) array, or of a list of k
    vectors of one length, by ``_rank``."""
    try:
        a = np.asarray(vectors, dtype=float)
    except ValueError as exc:
        raise InvalidInput("all vectors must share the same ambient dimension") from exc
    if a.size == 0:
        return 0
    return _rank(np.linalg.svd(a.reshape(a.shape[0], -1), compute_uv=False), tol_rel)


def range_and_null(m: SymMatrix, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (columns) of the range and the null space of M: the
    eigenvectors of ``sym_eig(m)`` whose eigenvalues count at ``cut``, and
    the rest, so the two are complementary."""
    w, v = sym_eig(m)
    keep = _counts(w, cut)
    return v[:, keep], v[:, ~keep]


def null_space_of_rows(rows, n: int, tol_rel: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of {x : r @ x = 0 for every row r} of the
    (k, n) array ``rows``, past the rank that ``_rank`` finds.  Zero rows are
    dropped; with none left the basis is the identity."""
    a = np.asarray(rows, dtype=float)
    a = a[np.linalg.norm(a, axis=1) > 0.0]
    if not len(a):
        return np.eye(n)
    if a.shape[1] != n:
        raise InvalidInput("row dimension mismatch")
    _, sv, vt = np.linalg.svd(a, full_matrices=True)
    return vt[_rank(sv, tol_rel):].T.copy()
