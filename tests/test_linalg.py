import copy
import dataclasses
import pickle

import numpy as np
import pytest

from socqp import linalg
from socqp.errors import InvalidInput, InvalidMatrix, NotPsd
from socqp.linalg import SymMatrix, SubspaceBasis


def test_sym_eig_identity():
    w, v = linalg.sym_eig(SymMatrix.identity(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v @ v.T, np.eye(2))


def test_sym_eig_diagonal_descending():
    w, _ = linalg.sym_eig(SymMatrix.from_dense(np.diag([4.0, 9.0])))
    assert np.allclose(w, [9.0, 4.0])


def test_sym_eig_reconstruction():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5))
    m = SymMatrix.from_dense(a + a.T)
    w, v = linalg.sym_eig(m)
    err = np.abs((v * w) @ v.T - m.dense()).max()
    assert err <= 1e-9 * (1.0 + np.abs(w).max())
    assert np.all(np.diff(w) <= 1e-12)


def test_sym_eig_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        SymMatrix.from_dense(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_inertia_cuts_at_tol_times_max_of_one_and_the_spectrum(scale):
    # the cut is tol * max(1, max|w|): absolute below unit scale, relative above
    tol = 1e-6
    cut = tol * max(1.0, scale)
    inside, outside = (1.0 - 1e-3) * cut, (1.0 + 1e-3) * cut
    m = SymMatrix.from_dense(np.diag([outside, -inside, scale, inside, -outside]))
    w, _ = linalg.sym_eig(m)
    assert list(w) == [scale, outside, inside, -inside, -outside]
    pos, neg = linalg.inertia(m, tol)
    assert pos.tolist() == [True, True, False, False, False]
    assert neg.tolist() == [False, False, False, False, True]


def test_psd_factor_identity_and_diagonal():
    f = linalg.psd_factor(SymMatrix.identity(3))
    assert f.shape == (3, 3) and np.allclose(f.T @ f, np.eye(3))
    f = linalg.psd_factor(SymMatrix.from_dense(np.diag([4.0, 9.0])))
    assert np.allclose(np.abs(f), [[0.0, 3.0], [2.0, 0.0]])  # descending eigenvalues


def test_psd_factor_rejects_indefinite():
    with pytest.raises(NotPsd):
        linalg.psd_factor(SymMatrix.from_dense(np.diag([1.0, -1.0])))


def test_psd_factor_drops_small_negatives():
    m = SymMatrix.from_dense(np.diag([1.0, 0.5, -1e-12]))
    f = linalg.psd_factor(m)
    assert f.shape == (2, 3) == (linalg.range_basis(m).dim, m.n)
    assert np.allclose(f.T @ f, np.diag([1.0, 0.5, 0.0]), atol=1e-15)


@pytest.mark.parametrize("tol", [linalg.DEFAULT_RANK_TOL, 1e-4])
def test_psd_factor_squares_back(tol):
    # F'F = M to roundoff, with one row per eigenvalue above roundoff: on an
    # exactly low-rank matrix that is the rank range_basis finds, and a small
    # eigenvalue below the rank tolerance keeps its row whatever tol is
    rng = np.random.default_rng(1)
    for rank in (4, 2, 1, 0):
        u = rng.normal(size=(5, rank))
        m = SymMatrix.from_dense(u @ u.T)
        f = linalg.psd_factor(m, tol)
        scale = max(1.0, np.abs(m.dense()).max())
        assert f.shape == (linalg.range_basis(m, tol).dim, 5) == (rank, 5)
        assert np.abs(f.T @ f - m.dense()).max() <= 1e-12 * scale
        if rank:
            tail = np.linalg.svd(u.T)[2][-1]  # a unit vector orthogonal to u
            small = SymMatrix.from_dense(u @ u.T + 1e-2 * tol * np.outer(tail, tail))
            f = linalg.psd_factor(small, tol)
            assert linalg.range_basis(small, tol).dim == rank
            assert f.shape == (rank + 1, 5)
            assert np.abs(f.T @ f - small.dense()).max() <= 1e-12 * scale


def test_numerical_rank_examples():
    assert linalg.numerical_rank([np.array([1.0]), np.array([-1.0])]) == 1
    assert linalg.numerical_rank([]) == 0
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    assert linalg.numerical_rank([e1, e2, e1 + e2]) == 2
    # a (k, n) array and the list of its rows give the same rank
    rng = np.random.default_rng(2)
    for k, n, r in ((5, 4, 2), (3, 6, 3), (1, 3, 1), (4, 1, 1)):
        a = rng.normal(size=(k, r)) @ rng.normal(size=(r, n))
        assert linalg.numerical_rank(a) == linalg.numerical_rank(list(a)) == r
    assert linalg.numerical_rank(np.zeros((0, 3))) == 0
    assert linalg.numerical_rank(np.zeros((2, 3))) == 0


def test_numerical_rank_dimension_mismatch():
    with pytest.raises(InvalidInput):
        linalg.numerical_rank([np.zeros(2), np.zeros(3)])


def test_numerical_rank_scaling_and_permutation_invariance():
    rng = np.random.default_rng(2)
    vecs = [rng.normal(size=6) for _ in range(4)]
    base = linalg.numerical_rank(vecs)
    scaled = [v * s for v, s in zip(vecs, (2.0, -0.5, 10.0, 1e3))]
    assert linalg.numerical_rank(scaled) == base
    assert linalg.numerical_rank(vecs[::-1]) == base


def test_null_range_split():
    m = SymMatrix.from_dense(np.diag([1.0, 0.0]))
    null = linalg.null_basis(m)
    rng_b = linalg.range_basis(m)
    assert null.dim == 1 and rng_b.dim == 1
    assert abs(abs(null.columns[1, 0]) - 1.0) < 1e-12
    assert np.abs(m.dense() @ null.columns).max() < 1e-10


def test_identity_has_trivial_null_space():
    m = SymMatrix.identity(4)
    assert linalg.null_basis(m).dim == 0
    assert linalg.range_basis(m).dim == 4


def test_null_range_dims_sum_to_n():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.normal(size=(5, 3))
        m = SymMatrix.from_dense(a @ a.T)  # rank <= 3
        assert linalg.null_basis(m).dim + linalg.range_basis(m).dim == 5


def test_rank_one_range_is_spanned_by_v():
    v = np.array([1.0, 2.0, -1.0])
    m = SymMatrix.from_dense(np.outer(v, v))
    basis = linalg.range_basis(m)
    assert basis.dim == 1
    cos = abs(basis.columns[:, 0] @ v) / np.linalg.norm(v)
    assert abs(cos - 1.0) < 1e-10


def test_subspace_basis_rejects_non_orthonormal():
    with pytest.raises(InvalidInput):
        SubspaceBasis(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_packed_storage_is_exactly_symmetric():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4))
    m = SymMatrix.from_dense(a + a.T)
    d = m.dense()
    assert np.array_equal(d, d.T)


def test_sym_eig_is_computed_once_and_read_only(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    m = SymMatrix.from_dense(np.diag([3.0, 1.0, 0.0]))
    w, v = linalg.sym_eig(m)
    assert linalg.sym_eig(m)[0] is w and linalg.sym_eig(m)[1] is v
    linalg.psd_factor(m)
    linalg.null_basis(m)
    linalg.range_basis(m)
    assert len(calls) == 1
    for arr in (w, v, m.packed, m.dense()):
        with pytest.raises(ValueError):
            arr[0] = 7.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.packed = np.zeros(6)


def test_sym_matrix_copies_the_callers_array():
    raw = np.array([2.0, 0.5, 1.0])
    m = SymMatrix(2, raw)
    raw[0] = 9.0  # the caller's array stays writable and is not shared
    assert m.packed[0] == 2.0
    top = np.linalg.eigvalsh([[2.0, 0.5], [0.5, 1.0]])[1]
    assert linalg.sym_eig(m)[0][0] == pytest.approx(top)


def test_copies_of_a_sym_matrix_stay_read_only():
    m = SymMatrix.from_dense(np.array([[2.0, 0.5], [0.5, 1.0]]))
    linalg.sym_eig(m)
    for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert np.array_equal(twin.packed, m.packed)
        with pytest.raises(ValueError):
            twin.packed[0] = 7.0
        assert np.array_equal(linalg.sym_eig(twin)[1], linalg.sym_eig(m)[1])
