import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from socqp import chebyshev, conesolver, model, oracle, recover, reformulate
from socqp.errors import PreconditionViolated, SocqpError
from socqp.model import BallIntersection


def two_balls(offset=0.5, radius=1.0):
    return BallIntersection(
        2,
        np.array([[offset, 0.0], [-offset, 0.0]]),
        np.array([radius, radius]),
    )


def random_balls(rng, n, p, spread=0.6):
    centers = rng.normal(size=(p, n)) * spread
    radii = rng.uniform(1.0, 1.6, size=p)
    return BallIntersection(n, centers, radii)


def shell_balls(rng, n, p):
    # centers at distance 0.5 from the origin, radii in [1, 1.5]: gamma < 0.5
    dirs = rng.normal(size=(p, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return BallIntersection(n, 0.5 * dirs, rng.uniform(1.0, 1.5, size=p))


def test_beck_center_program_size_does_not_grow_with_p(monkeypatch):
    solve = chebyshev.solve
    sizes = []

    def recording_solve(prog, opts=None):
        sizes.append(prog.nvar)
        return solve(prog, opts)

    monkeypatch.setattr(chebyshev, "solve", recording_solve)
    rng = np.random.default_rng(6)
    for p in (3, 20, 200):
        chebyshev.beck_center(shell_balls(rng, 3, p))
    assert sizes == [3 + 2] * 3


def test_beck_center_weights_and_strong_duality():
    # v is the simplex QP's value and, by strong duality, the value of its
    # dual max_x min_i (r_i^2 - ||x - a_i||^2) attained at the center
    balls = shell_balls(np.random.default_rng(7), 3, 200)
    center, lam, v = chebyshev.beck_center(balls)
    assert lam.shape == (200,)
    assert lam.min() >= 0.0
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)
    dual = float(np.min(balls.radii**2 - np.sum((center - balls.centers) ** 2, axis=1)))
    assert abs(v - dual) <= 1e-12 * (1.0 + abs(v))


def test_certified_many_balls_runs_without_scipy():
    # 130 balls in R^4: every program of the certified path has a reduced KKT
    # order of at most 32, so numpy alone factors it
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from socqp import chebyshev\n"
        "from socqp.model import BallIntersection\n"
        "rng = np.random.default_rng(8)\n"
        "dirs = rng.normal(size=(130, 4))\n"
        "dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)\n"
        "balls = BallIntersection(4, 0.5 * dirs, rng.uniform(1.0, 1.5, size=130))\n"
        "r = chebyshev.chebyshev_certified(balls)\n"
        "print(r.gamma)\n"
    )
    src = str(Path(chebyshev.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.strip().splitlines()[-1]) < 0.5


def test_beck_center_single_ball():
    balls = BallIntersection(2, np.array([[0.7, -0.2]]), np.array([1.3]))
    center, lam, v = chebyshev.beck_center(balls)
    assert np.allclose(center, [0.7, -0.2], atol=1e-7)
    assert lam == pytest.approx([1.0])
    assert v == pytest.approx(1.3**2, abs=1e-6)


def test_beck_center_symmetric_pair_matches_grid():
    balls = two_balls()
    center, lam, v = chebyshev.beck_center(balls)
    assert abs(center[0]) < 1e-6
    g = oracle.grid_minmax_cc(balls, h=2e-3)
    assert v == pytest.approx(g.value, abs=5e-3)


def test_beck_center_concentric():
    balls = BallIntersection(
        2, np.array([[0.3, 0.3], [0.3, 0.3], [0.3, 0.3]]), np.array([2.0, 1.0, 1.5])
    )
    center, lam, v = chebyshev.beck_center(balls)
    assert np.allclose(center, [0.3, 0.3], atol=1e-6)
    assert v == pytest.approx(1.0, abs=1e-6)  # smallest radius squared


def test_beck_center_stays_in_hull():
    rng = np.random.default_rng(0)
    for _ in range(5):
        balls = random_balls(rng, 2, 4)
        center, lam, _ = chebyshev.beck_center(balls)
        assert np.all(lam >= -1e-9)
        assert lam.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(balls.centers.T @ lam, center, atol=1e-8)


def test_gamma_balls_examples():
    concentric = BallIntersection(
        2, np.array([[0.1, 0.1], [0.1, 0.1]]), np.array([1.0, 2.0])
    )
    assert chebyshev.gamma_balls(concentric) == pytest.approx(0.0, abs=1e-6)
    touching = two_balls(offset=1.0)
    assert chebyshev.gamma_balls(touching) == pytest.approx(1.0, abs=1e-6)


def test_gamma_balls_matches_grid():
    rng = np.random.default_rng(1)
    for _ in range(3):
        balls = random_balls(rng, 2, 5)
        got = chebyshev.gamma_balls(balls)
        lo = balls.centers.min(axis=0) - 0.5
        hi = balls.centers.max(axis=0) + 0.5
        axes = [np.arange(lo[k], hi[k], 2e-3) for k in range(2)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        ratios = np.max(
            [
                np.linalg.norm(pts - balls.centers[i], axis=1) / balls.radii[i]
                for i in range(balls.p)
            ],
            axis=0,
        )
        assert got == pytest.approx(float(ratios.min()), abs=2e-3)


def test_gamma_upper_examples():
    concentric = BallIntersection(
        2, np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([1.0, 2.0])
    )
    assert chebyshev.gamma_upper(concentric) == 0.0
    pair = BallIntersection(
        2, np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0])
    )
    assert chebyshev.gamma_upper(pair) == pytest.approx(math.sqrt(2.0 / 6.0))


def test_ball_helpers_match_per_ball_loops():
    rng = np.random.default_rng(9)
    for n, p in ((2, 1), (3, 7), (5, 40)):
        balls = random_balls(rng, n, p)
        a = balls.centers
        d_max = max(
            [float(np.linalg.norm(a[i + 1 :] - a[i], axis=1).max()) for i in range(p - 1)],
            default=0.0,
        )
        expect = math.sqrt(n / (2.0 * (n + 1.0))) * d_max / float(balls.radii.min())
        assert chebyshev.gamma_upper(balls) == expect
        z = rng.normal(size=n)
        inner = chebyshev._inner_instance(balls, z)
        assert np.array_equal(inner.b, np.vstack([-z, -a]))
        sq = np.array([0.0] + [float(a[i] @ a[i]) for i in range(p)])
        assert np.allclose(inner.d, sq, rtol=4 * np.finfo(float).eps, atol=0.0)
        assert [bd.upper for bd in inner.bounds] == [r**2 for r in balls.radii]
        assert all(bd.lower == -math.inf for bd in inner.bounds)


def test_least_gamma_is_no_worse_than_at_the_beck_center():
    # Beck's program, t - 2a_i'x - tau <= r_i^2 - ||a_i||^2 with min tau, is
    # the max-min-slack program on the inner instance's rows: its centre is
    # the point that the max-min-slack search returned, and least_gamma's
    # point is never worse than it
    rng = np.random.default_rng(27)
    for trial in range(12):
        n = int(rng.integers(2, 6))
        balls = random_balls(rng, n, int(rng.integers(2, 30)), spread=0.3)
        inner = chebyshev._inner_instance(balls, np.zeros(n))
        _, gamma = recover.least_gamma(inner)
        center, _, _ = chebyshev.beck_center(balls)
        at_center = float(np.max(np.linalg.norm(balls.centers - center, axis=1) / balls.radii))
        assert gamma <= min(at_center + 1e-9, 1.0), trial
        assert gamma == chebyshev.gamma_balls(balls), trial


def test_gamma_upper_dominates_gamma():
    rng = np.random.default_rng(2)
    for _ in range(10):
        balls = random_balls(rng, 2, int(rng.integers(2, 6)))
        assert chebyshev.gamma_balls(balls) <= chebyshev.gamma_upper(balls) + 1e-9


def test_certified_single_ball_collapses():
    balls = BallIntersection(2, np.array([[0.4, 0.1]]), np.array([1.2]))
    r = chebyshev.chebyshev_certified(balls)
    assert r.v_dcc == pytest.approx(1.44, abs=1e-6)
    assert r.attained[0] == pytest.approx(1.44, abs=1e-5)
    assert r.attained[1] == pytest.approx(1.44, abs=1e-5)


def test_certified_rejects_empty_interior():
    with pytest.raises(PreconditionViolated):
        chebyshev.chebyshev_certified(two_balls(offset=1.0))
    with pytest.raises(PreconditionViolated):
        chebyshev.chebyshev_certified(two_balls(offset=1.5))


def test_certified_easy_case_matches_grid():
    balls = two_balls()
    r = chebyshev.chebyshev_certified(balls)
    g = oracle.grid_minmax_cc(balls, h=2e-3)
    assert r.v_dcc == pytest.approx(g.value, abs=5e-3)
    lo, hi = r.attained
    assert lo <= hi + 1e-9
    assert hi == pytest.approx(r.v_dcc, abs=1e-6)


def test_certified_refuses_weights_off_the_simplex(monkeypatch):
    # weights that sum to 1.5 bound nothing by weak duality
    beck_center = chebyshev.beck_center

    def pushed(balls, opts=None):
        center, lam, v = beck_center(balls, opts)
        return center, 1.5 * lam, v

    monkeypatch.setattr(chebyshev, "beck_center", pushed)
    with pytest.raises(SocqpError, match="certificate chain failed: the weights"):
        chebyshev.chebyshev_certified(two_balls())


def test_certified_refuses_a_value_its_weights_do_not_give(monkeypatch):
    # a v_dcc below the weights' dual value is no upper bound
    beck_center = chebyshev.beck_center

    def lowered(balls, opts=None):
        center, lam, v = beck_center(balls, opts)
        return center, lam, v - 1e-2

    monkeypatch.setattr(chebyshev, "beck_center", lowered)
    with pytest.raises(SocqpError, match="certificate chain failed: the weights"):
        chebyshev.chebyshev_certified(two_balls())


def test_certified_refuses_a_center_that_violates_a_row(monkeypatch):
    # the equal weights are a simplex point with their own center and value,
    # so check 1 holds, but that value exceeds the minimum and some row of
    # the inner relaxation fails at (center, v + ||center||^2)
    def uniform(balls, opts=None):
        lam = np.full(balls.p, 1.0 / balls.p)
        center = balls.centers.T @ lam
        cost = balls.radii**2 - np.sum(balls.centers**2, axis=1)
        return center, lam, float(cost @ lam + center @ center)

    monkeypatch.setattr(chebyshev, "beck_center", uniform)
    balls = shell_balls(np.random.default_rng(3), 2, 5)
    with pytest.raises(SocqpError, match="certificate chain failed: the closed-form optimum"):
        chebyshev.chebyshev_certified(balls)


def test_certified_makes_two_cone_solves(monkeypatch):
    calls = []
    for module in (chebyshev, recover):
        solve = module.solve

        def counting(prog, opts=None, solve=solve):
            calls.append(prog.nvar)
            return solve(prog, opts)

        monkeypatch.setattr(module, "solve", counting)
    rng = np.random.default_rng(30)
    for n, p in ((2, 2), (3, 12), (4, 40)):
        calls.clear()
        chebyshev.chebyshev_certified(shell_balls(rng, n, p))
        assert calls == [n + 2, n + 1], (n, p)  # beck_center, then least_gamma


def test_closed_form_inner_optimum_matches_the_cone_solve():
    # the reference the certified path no longer runs: the inner relaxation
    # solved by the cone solver, next to the closed-form point (z, v + ||z||^2)
    rng = np.random.default_rng(31)
    for n, p in ((2, 1), (3, 2), (4, 4), (2, 9), (3, 25), (5, 60)):
        balls = shell_balls(rng, n, p)
        r = chebyshev.chebyshev_certified(balls)
        inner = chebyshev._inner_instance(balls, r.center)
        znorm = float(r.center @ r.center)
        tol = model.tolerance(inner, r.v_dcc)
        _, _, cert = recover.approx_uq(inner)
        assert abs(cert.upper + cert.offset + znorm - r.v_dcc) <= tol, (n, p)
        prog, meta = reformulate.build_socp_uq(inner)
        res = conesolver.solve(prog)
        assert res.status == "Optimal"
        point = np.append(r.center, r.v_dcc + znorm)
        assert prog.nvar == point.size and meta.t_index == {0: n}
        assert prog.violation(point) <= tol, (n, p)
        assert abs(float(prog.c @ point) + prog.offset - res.objective) <= tol, (n, p)


def test_certified_chain_hard_case():
    rng = np.random.default_rng(3)
    for trial in range(6):
        balls = random_balls(rng, 2, int(rng.integers(4, 7)))
        if chebyshev.gamma_balls(balls) >= 0.97:
            continue
        r = chebyshev.chebyshev_certified(balls)
        scale = 1.0 + abs(r.v_dcc)
        lo, hi = r.attained
        assert r.guaranteed_ratio * r.v_dcc - 1e-4 * scale <= lo, trial
        assert lo <= hi + 1e-4 * scale
        assert hi <= r.v_dcc + 1e-4 * scale
        assert r.gamma <= r.gamma_upper + 1e-9
        # the oracle's min-max lower-bounds the relaxation value
        g = oracle.grid_minmax_cc(balls, h=5e-3)
        assert g.value <= r.v_dcc + g.error_bound + 1e-3


def test_certified_translation_invariance():
    rng = np.random.default_rng(4)
    balls = random_balls(rng, 2, 4)
    shift = np.array([3.2, -1.7])
    moved = BallIntersection(2, balls.centers + shift, balls.radii)
    r0 = chebyshev.chebyshev_certified(balls)
    r1 = chebyshev.chebyshev_certified(moved)
    assert np.abs(r1.center - shift - r0.center).max() <= 1e-7
    assert r1.v_dcc == pytest.approx(r0.v_dcc, abs=1e-7)
    assert r1.gamma == pytest.approx(r0.gamma, abs=1e-7)
    assert r1.attained[0] == pytest.approx(r0.attained[0], abs=1e-6)


def test_certified_far_point_lies_in_omega():
    rng = np.random.default_rng(5)
    balls = random_balls(rng, 2, 5)
    r = chebyshev.chebyshev_certified(balls)
    assert balls.contains(r.far_point, tol=1e-6)
    dist2 = float(np.sum((r.far_point - r.center) ** 2))
    assert dist2 == pytest.approx(r.attained[0], abs=1e-6)


def test_certified_many_balls_in_twenty_dimensions():
    # 200 unit balls whose centers lie at distance 0.5 from the origin: the
    # least-gamma solve has 200 cones of dimension 21 and must still converge
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(200, 20))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    balls = BallIntersection(20, 0.5 * dirs, np.ones(200))
    r = chebyshev.chebyshev_certified(balls)
    assert r.gamma == pytest.approx(0.5, abs=1e-6)
    scale = 1.0 + abs(r.v_dcc)
    lo, hi = r.attained
    assert r.guaranteed_ratio * r.v_dcc - 1e-4 * scale <= lo <= hi + 1e-4 * scale
    assert hi <= r.v_dcc + 1e-4 * scale
    assert balls.contains(r.far_point, tol=1e-6)


def test_certified_reports_the_gamma_its_rounding_certified(monkeypatch):
    # gamma is max_i ||x_hat - a_i|| / r_i at least_gamma's point x_hat,
    # where the approximation is centred, not that solve's objective
    points = []
    least_gamma = recover.least_gamma

    def recording(inst, opts=None):
        point, value = least_gamma(inst, opts)
        points.append(point)
        return point, value

    monkeypatch.setattr(recover, "least_gamma", recording)
    rng = np.random.default_rng(21)
    for trial in range(6):
        balls = shell_balls(rng, int(rng.integers(2, 6)), int(rng.integers(20, 60)))
        r = chebyshev.chebyshev_certified(balls)
        dist = np.linalg.norm(balls.centers - points[-1], axis=1) / balls.radii
        gamma = float(dist.max())
        assert r.gamma == pytest.approx(gamma, rel=0.0, abs=1e-12), trial
        ratio = ((1.0 - gamma) / (math.sqrt(2.0) + gamma)) ** 2
        assert r.guaranteed_ratio == pytest.approx(ratio, rel=0.0, abs=1e-12), trial
