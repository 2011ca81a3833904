import copy
import dataclasses
import pickle

import numpy as np
import pytest

from socqp import linalg
from socqp.errors import InvalidInput, InvalidMatrix, NotPsd
from socqp.linalg import DEFAULT_RANK_TOL, SymMatrix


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
def test_inertia_cuts_at_the_callers_cut_above_roundoff(scale):
    # a value counts when |w| > max(cut, n*eps*max|w|); the cut is the
    # caller's, taken against its data's scale, so data and cut scaled
    # together give the same masks at every scale
    cut = 1e-6 * scale
    inside, outside = (1.0 - 1e-3) * cut, (1.0 + 1e-3) * cut
    m = SymMatrix.from_dense(np.diag([outside, -inside, scale, inside, -outside]))
    w, _ = linalg.sym_eig(m)
    assert list(w) == [scale, outside, inside, -inside, -outside]
    pos, neg = linalg.inertia(m, cut)
    assert pos.tolist() == [True, True, False, False, False]
    assert neg.tolist() == [False, False, False, False, True]
    # at a cut of 0 the roundoff floor alone is left
    pos, neg = linalg.inertia(SymMatrix.from_dense(np.diag([scale, 1e-17 * scale])), 0.0)
    assert pos.tolist() == [True, False] and not neg.any()


def test_a_zero_matrix_has_no_range_at_any_cut():
    m = SymMatrix.from_dense(np.zeros((3, 3)))
    for cut in (0.0, 1e-8):
        pos, neg = linalg.inertia(m, cut)
        image, null = linalg.range_and_null(m, cut)
        assert not pos.any() and not neg.any()
        assert image.shape == (3, 0) and null.shape == (3, 3)
        assert linalg.psd_factor(m, cut).shape == (0, 3)


def test_psd_factor_identity_and_diagonal():
    f = linalg.psd_factor(SymMatrix.identity(3), DEFAULT_RANK_TOL)
    assert f.shape == (3, 3) and np.allclose(f.T @ f, np.eye(3))
    f = linalg.psd_factor(SymMatrix.from_dense(np.diag([4.0, 9.0])), DEFAULT_RANK_TOL)
    assert np.allclose(np.abs(f), [[0.0, 3.0], [2.0, 0.0]])  # descending eigenvalues


def test_psd_factor_rejects_indefinite():
    with pytest.raises(NotPsd):
        linalg.psd_factor(SymMatrix.from_dense(np.diag([1.0, -1.0])), DEFAULT_RANK_TOL)


def test_psd_factor_drops_small_negatives():
    m = SymMatrix.from_dense(np.diag([1.0, 0.5, -1e-12]))
    f = linalg.psd_factor(m, DEFAULT_RANK_TOL)
    assert f.shape == (2, 3) == (linalg.range_and_null(m, DEFAULT_RANK_TOL)[0].shape[1], m.n)
    assert np.allclose(f.T @ f, np.diag([1.0, 0.5, 0.0]), atol=1e-15)


@pytest.mark.parametrize("tol", [linalg.DEFAULT_RANK_TOL, 1e-4])
def test_psd_factor_squares_back(tol):
    # F'F = M to roundoff, with one row per eigenvalue above roundoff: on an
    # exactly low-rank matrix that is the rank range_and_null finds, and a small
    # eigenvalue below the rank tolerance keeps its row whatever tol is
    rng = np.random.default_rng(1)
    for rank in (4, 2, 1, 0):
        u = rng.normal(size=(5, rank))
        m = SymMatrix.from_dense(u @ u.T)
        f = linalg.psd_factor(m, tol)
        scale = max(1.0, np.abs(m.dense()).max())
        assert f.shape == (linalg.range_and_null(m, tol)[0].shape[1], 5) == (rank, 5)
        assert np.abs(f.T @ f - m.dense()).max() <= 1e-12 * scale
        if rank:
            tail = np.linalg.svd(u.T)[2][-1]  # a unit vector orthogonal to u
            small = SymMatrix.from_dense(u @ u.T + 1e-2 * tol * np.outer(tail, tail))
            f = linalg.psd_factor(small, tol)
            assert linalg.range_and_null(small, tol)[0].shape[1] == rank
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


def test_null_space_of_rows_drops_zero_rows_and_checks_length():
    assert np.array_equal(linalg.null_space_of_rows(np.zeros((2, 3)), 3), np.eye(3))
    assert np.array_equal(linalg.null_space_of_rows(np.zeros((0, 3)), 3), np.eye(3))
    rows = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    null = linalg.null_space_of_rows(rows, 3)
    assert null.shape == (3, 2) and np.abs(rows @ null).max() <= 1e-15
    with pytest.raises(InvalidInput):
        linalg.null_space_of_rows(np.ones((1, 2)), 3)


def test_null_range_split():
    m = SymMatrix.from_dense(np.diag([1.0, 0.0]))
    image, null = linalg.range_and_null(m, DEFAULT_RANK_TOL)
    assert null.shape == image.shape == (2, 1)
    assert abs(abs(null[1, 0]) - 1.0) < 1e-12
    assert np.abs(m.dense() @ null).max() < 1e-10


def test_identity_has_trivial_null_space():
    image, null = linalg.range_and_null(SymMatrix.identity(4), DEFAULT_RANK_TOL)
    assert image.shape == (4, 4) and null.shape == (4, 0)


def test_null_range_dims_sum_to_n():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.normal(size=(5, 3))
        m = SymMatrix.from_dense(a @ a.T)  # rank <= 3
        image, null = linalg.range_and_null(m, DEFAULT_RANK_TOL)
        assert null.shape[1] + image.shape[1] == 5


def test_range_and_null_are_orthonormal_complements():
    rng = np.random.default_rng(4)
    for rank in (5, 3, 1, 0):
        a = rng.normal(size=(5, rank))
        m = SymMatrix.from_dense(a @ a.T)
        image, null = linalg.range_and_null(m, DEFAULT_RANK_TOL)
        assert (image.shape[1], null.shape[1]) == (rank, 5 - rank)
        both = np.hstack([image, null])
        assert np.abs(both.T @ both - np.eye(5)).max() <= 1e-10
        scale = max(1.0, np.abs(m.dense()).max())
        assert np.abs(m.dense() @ null).max(initial=0.0) <= 1e-10 * scale


def test_rank_one_range_is_spanned_by_v():
    v = np.array([1.0, 2.0, -1.0])
    m = SymMatrix.from_dense(np.outer(v, v))
    image, _ = linalg.range_and_null(m, DEFAULT_RANK_TOL)
    assert image.shape[1] == 1
    cos = abs(image[:, 0] @ v) / np.linalg.norm(v)
    assert abs(cos - 1.0) < 1e-10


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-11])
def test_symmetry_is_judged_at_the_matrix_scale(scale):
    with pytest.raises(InvalidMatrix, match="not symmetric"):
        SymMatrix.from_dense(np.array([[1.0, 5.0], [1.0, 1.0]]) * scale)
    near = SymMatrix.from_dense(np.array([[1.0, 1.0 + 1e-12], [1.0, 1.0]]) * scale)
    assert near.dense()[0, 1] == pytest.approx(scale)


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
    linalg.psd_factor(m, DEFAULT_RANK_TOL)
    linalg.range_and_null(m, DEFAULT_RANK_TOL)
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
