import math

import numpy as np
import pytest

from socqp import model, oracle
from socqp.errors import EmptyFeasibleGrid, InvalidInput, UnboundedBox
from socqp.linalg import SymMatrix
from socqp.model import BallIntersection, Bound, UqInstance

from helpers import oracle_step, random_uq


def onedim_gap_instance():
    return UqInstance(
        1,
        SymMatrix.identity(1),
        np.array([[0.0], [1.0], [-1.0]]),
        np.zeros(3),
        [Bound(1.0, 3.0), Bound(-1.0, 3.0)],
    )


def test_grid_max_example1():
    g = oracle.grid_max_uq(onedim_gap_instance(), h=1e-4)
    assert g.value == pytest.approx(1.0, abs=2e-4)
    assert g.argmax[0] == pytest.approx(1.0, abs=2e-4)


def test_grid_max_refuses_unbounded():
    inst = UqInstance(
        2,
        SymMatrix.identity(2),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, math.inf)],
    )
    with pytest.raises(UnboundedBox):
        oracle.grid_max_uq(inst, h=0.1)


def test_grid_max_single_ball():
    inst = UqInstance(
        2,
        SymMatrix.identity(2),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, 2.25)],
    )
    g = oracle.grid_max_uq(inst, h=0.01, refine=2)
    assert g.value == pytest.approx(2.25, abs=1e-3)


def test_grid_max_rejects_big_n():
    inst = UqInstance(
        4,
        SymMatrix.identity(4),
        np.zeros((2, 4)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    with pytest.raises(InvalidInput):
        oracle.grid_max_uq(inst, h=0.1)


def test_grid_max_empty_feasible():
    inst = UqInstance(
        1,
        SymMatrix.identity(1),
        np.zeros((2, 1)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    box = (np.array([5.0]), np.array([6.0]))
    with pytest.raises(EmptyFeasibleGrid):
        oracle.grid_max_uq(inst, h=0.1, box=box)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_max_matches_the_point_by_point_scan(n):
    # the grid is evaluated on its axes by broadcasting; forming every grid
    # point and evaluating the instance at each must give the same best
    # value up to the summation order, and a best point with that value
    rng = np.random.default_rng(20 + n)
    for _ in range(3):
        inst = random_uq(rng, n, int(rng.integers(1, n + 2)), two_sided_prob=0.5)
        box = oracle.infer_box(inst)
        h = float(np.max(box[1] - box[0])) / (60 if n < 3 else 25)
        g = oracle.grid_max_uq(inst, h, box=box)
        axes = [np.arange(lo, hi + 0.5 * h, h) for lo, hi in zip(*box)]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        vals = np.array([inst.values(x) for x in pts])
        ok = [inst.worst_violation(x) <= 1e-9 for x in pts]
        best = float(vals[ok, 0].max())
        assert abs(g.value - best) <= 1e-12 * (1.0 + abs(best))
        assert inst.values(g.argmax)[0] == pytest.approx(g.value, abs=1e-12)


def test_grid_max_halving_consistency():
    rng = np.random.default_rng(0)
    inst = random_uq(rng, 2, 2)
    h = oracle_step(inst)
    g1 = oracle.grid_max_uq(inst, h=h)
    g2 = oracle.grid_max_uq(inst, h=h / 2.0)
    assert g2.value >= g1.value - 1e-12
    assert abs(g2.value - g1.value) <= g1.error_bound


@pytest.mark.parametrize(
    "shape", [(1,), (2,), (9,), (64,), (1, 1), (1, 7), (6, 1), (5, 8), (23, 17)]
)
def test_erosion_matches_scipy(shape):
    import scipy.ndimage

    rng = np.random.default_rng(sum(shape))
    for density in (0.3, 0.8, 0.97, 1.0):
        mask = rng.random(shape) < density
        want = scipy.ndimage.binary_erosion(mask, border_value=0)
        assert np.array_equal(oracle._erode(mask), want)


def test_grid_minmax_single_ball():
    balls = BallIntersection(2, np.array([[0.2, -0.1]]), np.array([1.5]))
    g = oracle.grid_minmax_cc(balls, h=2e-3)
    assert g.value == pytest.approx(2.25, abs=5e-3)


def test_grid_minmax_resolution_consistency():
    balls = BallIntersection(
        2, np.array([[0.5, 0.0], [-0.5, 0.0]]), np.array([1.0, 1.0])
    )
    g1 = oracle.grid_minmax_cc(balls, h=4e-3)
    g2 = oracle.grid_minmax_cc(balls, h=2e-3)
    assert abs(g1.value - g2.value) <= g1.error_bound + g2.error_bound


def test_grid_minmax_lower_bounds_relaxation():
    from socqp import chebyshev

    rng = np.random.default_rng(1)
    balls = BallIntersection(
        2, rng.normal(size=(3, 2)) * 0.4, rng.uniform(1.0, 1.4, size=3)
    )
    _, _, v_dcc = chebyshev.beck_center(balls)
    g = oracle.grid_minmax_cc(balls, h=3e-3)
    assert g.value <= v_dcc + g.error_bound + 1e-3


def test_binary_max_requires_feasible_point():
    inst = model.ilp_to_uq(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))
    with pytest.raises(EmptyFeasibleGrid):
        oracle.binary_max_uq(inst)
