import math
from dataclasses import replace

import numpy as np
import pytest

from socqp import model, oracle, recover
from socqp.errors import (
    EmptyInterior,
    InvalidBounds,
    InvalidInput,
)
from socqp.linalg import SymMatrix
from socqp.model import BallIntersection, Bound, QcqpInstance, UqInstance

from helpers import random_uq


def onedim_gap_instance():
    """max x^2 with 1 <= x^2+2x <= 3 and -1 <= x^2-2x <= 3."""
    return UqInstance(
        1,
        SymMatrix.identity(1),
        np.array([[0.0], [1.0], [-1.0]]),
        np.zeros(3),
        [Bound(1.0, 3.0), Bound(-1.0, 3.0)],
    )


def test_bound_validation():
    with pytest.raises(InvalidBounds):
        Bound(2.0, 1.0)
    bd = Bound(-math.inf, 1.0)
    assert not bd.has_lower and bd.has_upper


def test_eval_f_examples():
    inst = onedim_gap_instance()
    assert inst.values(np.array([1.0]))[1] == pytest.approx(3.0)
    assert inst.values(np.zeros(1))[0] == 0.0
    with pytest.raises(InvalidInput):
        inst.values(np.zeros(2))


def test_eval_f_at_origin_returns_offset():
    rng = np.random.default_rng(11)
    inst = random_uq(rng, 2, 2)
    inst.d = np.array([0.7, -0.3, 1.1])
    for i in range(3):
        assert inst.values(np.zeros(2))[i] == inst.d[i]


def test_eval_f_matches_naive_sum():
    rng = np.random.default_rng(0)
    inst = random_uq(rng, 3, 2)
    x = rng.normal(size=3)
    qd = inst.q.dense()
    for i in range(3):
        naive = sum(
            qd[a, c] * x[a] * x[c] for a in range(3) for c in range(3)
        ) + 2 * inst.b[i] @ x + inst.d[i]
        assert inst.values(x)[i] == pytest.approx(naive, rel=1e-12)


def test_is_feasible_examples():
    inst = onedim_gap_instance()
    assert inst.is_feasible(np.array([1.0]))
    assert not inst.is_feasible(np.array([0.0]))
    free = UqInstance(
        1,
        SymMatrix.identity(1),
        np.zeros((2, 1)),
        np.zeros(2),
        [Bound(-math.inf, math.inf)],
    )
    assert free.is_feasible(np.array([17.0]))


def test_translate_origin_identity_and_1d():
    inst = onedim_gap_instance()
    out, off = model.translate_origin(inst, np.zeros(1))
    assert np.allclose(out.b, inst.b) and off == 0.0
    simple = UqInstance(
        1,
        SymMatrix.identity(1),
        np.array([[0.0], [1.0]]),
        np.zeros(2),
        [Bound(-math.inf, 5.0)],
    )
    out, _ = model.translate_origin(simple, np.array([1.0]))
    assert out.b[1, 0] == pytest.approx(2.0)
    assert out.d[1] == pytest.approx(3.0)


def test_translate_origin_matches_evaluation():
    rng = np.random.default_rng(3)
    inst = random_uq(rng, 3, 2)
    shift = rng.normal(size=3)
    out, off = model.translate_origin(inst, shift)
    assert off == pytest.approx(inst.values(shift)[0])
    assert out.d[0] == 0.0  # the objective's value at the shift travels in off
    for _ in range(100):
        x = rng.normal(size=3)
        for i in range(3):
            assert out.values(x)[i] + (off if i == 0 else 0.0) == pytest.approx(
                inst.values(x + shift)[i], abs=1e-9
            )


def test_translate_round_trip():
    rng = np.random.default_rng(4)
    inst = random_uq(rng, 2, 2)
    shift = rng.normal(size=2)
    there, _ = model.translate_origin(inst, shift)
    back, _ = model.translate_origin(there, -shift)
    assert np.abs(back.b - inst.b).max() < 1e-10
    assert np.abs(back.d - inst.d).max() < 1e-10


def test_translate_preserves_feasibility():
    rng = np.random.default_rng(5)
    inst = random_uq(rng, 2, 2, two_sided_prob=0.5)
    shift = rng.normal(size=2) * 0.3
    out, _ = model.translate_origin(inst, shift)
    for _ in range(50):
        x = rng.normal(size=2)
        assert inst.is_feasible(x + shift) == out.is_feasible(x)


def test_least_gamma_single_ball():
    inst = UqInstance(
        2,
        SymMatrix.identity(2),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    x, gamma = recover.least_gamma(inst)
    assert np.linalg.norm(x) < 1e-4
    assert 0.0 <= gamma < 1e-4


def test_least_gamma_two_balls_symmetric():
    # ||x -+ 0.5 e1||^2 <= 1 as uniform rows: gamma = max_i ||x -+ 0.5 e1||
    b = np.array([[0.0, 0.0], [-0.5, 0.0], [0.5, 0.0]])
    d = np.array([0.0, 0.25, 0.25])
    inst = UqInstance(
        2, SymMatrix.identity(2), b, d, [Bound(-math.inf, 1.0)] * 2
    )
    x, gamma = recover.least_gamma(inst)
    assert abs(x[0]) < 1e-5
    assert gamma == pytest.approx(0.5, abs=1e-6)


def test_least_gamma_touching_balls():
    b = np.array([[0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
    d = np.array([0.0, 1.0, 1.0])
    inst = UqInstance(
        2, SymMatrix.identity(2), b, d, [Bound(-math.inf, 1.0)] * 2
    )
    x, gamma = recover.least_gamma(inst)
    assert gamma == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(EmptyInterior):
        recover.approx_uq(inst)


def test_ilp_reduction_single_variable():
    inst = model.ilp_to_uq(np.array([1.0]), np.zeros((0, 1)), np.zeros(0))
    value, arg = oracle.binary_max_uq(inst)
    assert value == 1.0 and arg[0] == 1.0


def test_ilp_reduction_two_variables():
    inst = model.ilp_to_uq(
        np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0])
    )
    value, _ = oracle.binary_max_uq(inst)
    assert value == 1.0


def test_ilp_reduction_feasibility_equivalence():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        c = rng.integers(-3, 4, size=n).astype(float)
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        rhs = rng.integers(0, 5, size=m).astype(float)
        inst = model.ilp_to_uq(c, a, rhs)
        for bits in range(1 << n):
            x = np.array([(bits >> k) & 1 for k in range(n)], dtype=float)
            ilp_ok = np.all(a @ x <= rhs)
            assert inst.is_feasible(x, tol=0.0) == ilp_ok
            if ilp_ok:
                assert inst.values(x)[0] == pytest.approx(c @ x)


def test_ilp_reduction_rejects_fractional():
    inst = model.ilp_to_uq(np.array([1.0, 1.0]), np.zeros((0, 2)), np.zeros(0))
    assert not inst.is_feasible(np.array([0.5, 0.5]), tol=1e-9)
    assert inst.p == 2 + 1  # one equality row plus n box rows, m = 0


def test_ball_intersection_contains():
    balls = BallIntersection(2, np.array([[0.0, 0.0]]), np.array([1.0]))
    assert balls.contains(np.array([0.5, 0.0]))
    assert not balls.contains(np.array([2.0, 0.0]))


def _tolerance_instances():
    uq = random_uq(np.random.default_rng(3), 3, 4, two_sided_prob=0.5)
    qcqp = QcqpInstance(
        2,
        [SymMatrix.from_dense(np.diag([2.0, 0.0])), SymMatrix.from_dense(np.diag([0.0, 0.5]))],
        np.array([[1.0, -1.0], [1.0, 1.0]]),
        np.array([[0.3, -0.1], [0.0, 0.2]]),
        np.array([0.4, 0.0]),
        [Bound(-1.0, 3.0)],
    )
    return {"uq": uq, "qcqp": qcqp}


def _scaled(inst, s):
    """Every data entry times s; a qcqp instance keeps its signs."""
    bounds = [Bound(s * bd.lower, s * bd.upper) for bd in inst.bounds]
    if isinstance(inst, UqInstance):
        q = SymMatrix.from_dense(s * inst.q.dense())
        return replace(inst, q=q, b=s * inst.b, d=s * inst.d, bounds=bounds)
    blocks = [SymMatrix.from_dense(s * q.dense()) for q in inst.blocks]
    return replace(inst, blocks=blocks, b=s * inst.b, c=s * inst.c, bounds=bounds)


@pytest.mark.parametrize("s", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
@pytest.mark.parametrize("kind", ["uq", "qcqp"])
def test_acceptance_tolerance_scales_with_the_data(kind, s):
    # every acceptance test after a solve reads model.tolerance, so a check
    # means the same on data scaled by any factor
    inst = _tolerance_instances()[kind]
    ref = np.array([0.0, -2.5, 40.0])
    base = model.tolerance(inst, ref)
    assert np.allclose(model.tolerance(_scaled(inst, s), s * ref), s * base, rtol=1e-14, atol=0)
    assert model.tolerance(_scaled(inst, s), -s) == pytest.approx(
        s * model.tolerance(inst, 1.0), rel=1e-14
    )
    # the default tol is the larger of ACCEPT_TOL and the instance's tol_rank
    expected = model.ACCEPT_TOL * (model.data_scale(inst) + np.abs(ref))
    assert np.array_equal(base, expected)
    loose = replace(inst, tol_rank=1e-3)
    assert model.tolerance(loose, 2.0) == 1e-3 * (model.data_scale(inst) + 2.0)
    assert model.tolerance(loose, 2.0, 1e-8) == 1e-8 * (model.data_scale(inst) + 2.0)
