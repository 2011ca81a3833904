import dataclasses
import math

import numpy as np
import pytest

from socqp import conesolver, model, oracle, recover, reformulate
from socqp import linalg
from socqp.errors import (
    ConditionNotMet,
    IdentityViolated,
    InvalidInstance,
    PreconditionViolated,
    SolverFailed,
    TightenFailed,
    WrongShape,
)
from socqp.linalg import SymMatrix
from socqp.model import Bound, UqInstance

from helpers import oracle_step, random_convex_uq, random_uq, trs_secular


def solve_uq(inst):
    prog, meta = reformulate.build_socp_uq(inst)
    res = conesolver.solve(prog)
    assert res.status == "Optimal"
    return res, meta


# ---------------------------------------------------------------------------
# tighten_uq
# ---------------------------------------------------------------------------


def test_tighten_identity_when_cone_tight():
    # max x'x + x1 over the unit ball: optimum on the boundary, cone tight
    inst = UqInstance(
        2,
        SymMatrix.identity(2),
        np.array([[0.5, 0.0], [0.0, 0.0]]),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    res, meta = solve_uq(inst)
    x, trace = recover.tighten_uq(inst, res)
    assert inst.values(x)[0] == pytest.approx(2.0, abs=1e-6)
    assert np.linalg.norm(x - np.array([1.0, 0.0])) < 1e-4


def test_tighten_requires_certificate():
    inst = UqInstance(
        1,
        SymMatrix.identity(1),
        np.array([[0.0], [1.0], [-1.0]]),
        np.zeros(3),
        [Bound(1.0, 3.0), Bound(-1.0, 3.0)],
    )
    res, _ = solve_uq(inst)
    with pytest.raises(ConditionNotMet):
        recover.tighten_uq(inst, res)


def test_tighten_closes_open_cone():
    # pure-norm objective leaves the solver at an interior optimum
    inst = UqInstance(
        2,
        SymMatrix.identity(2),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    res, _ = solve_uq(inst)
    t = res.z[2]
    assert inst.q.quad(res.z[:2]) < t - 1e-3  # cone open at the solver optimum
    x, trace = recover.tighten_uq(inst, res)
    assert inst.q.quad(x) == pytest.approx(t, abs=1e-8)
    assert inst.values(x)[0] == pytest.approx(1.0, abs=1e-6)


def test_tighten_uq_takes_no_second_certificate(monkeypatch):
    # the null space that closes the cone is the certificate: a closed cone
    # costs no SVD, an open one at most the SVD of that null space (none
    # when every row is zero, as for the pure-norm objective)
    closed = UqInstance(
        2,
        SymMatrix.identity(2),
        np.array([[0.5, 0.0], [0.0, 0.0]]),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    pure_norm = UqInstance(
        2, SymMatrix.identity(2), np.zeros((2, 2)), np.zeros(2), [Bound(-math.inf, 1.0)]
    )
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(3, 1)) @ rng.normal(size=(1, 2)) * 0.3
    segment = _segment_optimum_uq(rng, 2, rows, rng.dirichlet(np.ones(2)))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    for inst, expected in ((closed, 0), (pure_norm, 0), (segment, 1)):
        res, _ = solve_uq(inst)
        calls.clear()
        recover.tighten_uq(inst, res)
        assert len(calls) == expected


def test_tighten_uq_reads_the_layout_of_build_socp_uq(monkeypatch):
    seen = []
    monkeypatch.setattr(recover, "_tighten", lambda view, z, value, meta: seen.append(meta))
    inst = random_uq(np.random.default_rng(7), 3, 2)
    res, meta = solve_uq(inst)
    recover.tighten_uq(inst, res)
    assert (seen[0].lifted, seen[0].t_index) == (meta.lifted, meta.t_index)


def _segment_optimum_uq(rng, n, rows, mix):
    """Instance whose objective is the convex combination ``mix`` of the
    first rows, all of them <= 1 and the rest <= 1.5: the point (x, t) =
    (0, 1) is optimal with an open cone, so the optimal set is more than a
    point and the solver stops inside it."""
    q = SymMatrix.from_dense(np.diag(rng.uniform(0.8, 2.0, size=n)))
    b = np.vstack([mix @ rows[: mix.size], rows])
    bounds = [Bound(-math.inf, 1.0)] * mix.size + [Bound(-math.inf, 1.5)] * (
        len(rows) - mix.size
    )
    return UqInstance(n, q, b, np.zeros(len(rows) + 1), bounds)


def _assert_one_row_preserving_step(inst, structured=False):
    """Tighten an open-cone optimum in one step that keeps every row value;
    ``structured`` runs it through ``tighten_qcqp`` on the min-sense
    one-block view of inst, whose relaxation is the same program."""
    res, meta = solve_uq(inst)
    z, v = res.z, meta.original_value(res)
    t = float(z[inst.n])
    assert t - inst.q.quad(z[: inst.n]) > 1e-3 * t  # the solver left the cone open
    if structured:
        x, trace = recover.tighten_qcqp(model.as_min(model.uq_as_qcqp(inst)), res, meta)
    else:
        x, trace = recover.tighten_uq(inst, res)
    assert len(trace.steps) == 1
    step = trace.steps[0]
    t_new = t + step["alpha"] * step["dt"]
    assert inst.q.quad(x) == pytest.approx(t_new, rel=1e-12)
    for i in range(1, inst.p + 1):
        before = t + 2.0 * float(inst.b[i] @ z[: inst.n]) + inst.d[i]
        assert inst.values(x)[i] == pytest.approx(before, rel=1e-12, abs=1e-12)
    assert inst.values(x)[0] == pytest.approx(v, rel=1e-12, abs=1e-12)
    return step


def test_tighten_p_equals_n_slide():
    # objective a convex combination of all n full-rank rows: only p = n
    # certifies, and the step moves t along with x
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        rows = rng.normal(size=(n, n)) * 0.3
        mix = rng.dirichlet(np.ones(n))
        inst = _segment_optimum_uq(rng, n, rows, mix)
        assert reformulate.check_as3(inst).rank == n
        assert _assert_one_row_preserving_step(inst)["dt"] == 1.0
        # a one-block structured instance takes the same slide
        assert _assert_one_row_preserving_step(inst, structured=True)["dt"] == 1.0


def test_tighten_rank_deficient_one_step():
    # p > n rows spanning n - 1 dimensions, objective combining two of them:
    # the step runs in the rows' null space and leaves t alone
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        basis = rng.normal(size=(n - 1, n))
        rows = rng.normal(size=(n + 1, n - 1)) @ basis * 0.3
        mix = rng.dirichlet(np.ones(2))
        inst = _segment_optimum_uq(rng, n, rows, mix)
        assert reformulate.check_as3(inst).rank == n - 1
        assert _assert_one_row_preserving_step(inst)["dt"] == 0.0


def test_tighten_feasibility_is_relative_to_data_scale():
    # the same instance with every entry scaled by 1e6: a violation of a few
    # 1e-5 on values near 1e6 is rounding, not infeasibility
    base = random_uq(np.random.default_rng(5), 3, 2)
    k = 1e6
    inst = UqInstance(
        3,
        SymMatrix.from_dense(k * base.q.dense()),
        k * base.b,
        k * base.d,
        [Bound(k * bd.lower, k * bd.upper) for bd in base.bounds],
    )
    res, meta = solve_uq(inst)
    v = meta.original_value(res)
    x, _ = recover.tighten_uq(inst, res)
    assert inst.worst_violation(x) <= 1e-6 * model.data_scale(inst)
    assert inst.values(x)[0] == pytest.approx(v, rel=1e-6)


def test_tighten_random_exact_suite():
    rng = np.random.default_rng(1)
    for k in range(40):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, n))
        inst = random_uq(rng, n, p, two_sided_prob=0.3)
        res, meta = solve_uq(inst)
        v = meta.original_value(res)
        x, trace = recover.tighten_uq(inst, res)
        assert inst.is_feasible(x, 1e-6), k
        assert inst.values(x)[0] == pytest.approx(v, abs=1e-5 * (1 + abs(v)))
        gap = res.z[n] - inst.q.quad(x)
        assert abs(gap) <= 1e-6 * (1.0 + abs(res.z[n]))
        gaps = [s["gap"] for s in trace.steps if "gap" in s]
        assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))


def _singular_psd_uq(rng):
    """Uniform instance with PSD Q of rank 1..n-1 and p up to 2n two-sided
    rows around a random point; half the time b_1..b_p have rank below n,
    and half the time b_0 is a convex combination of them, which leaves a
    face of optima and an open cone."""
    n = int(rng.integers(2, 6))
    r = int(rng.integers(1, n))
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q = SymMatrix.from_dense((basis[:, :r] * rng.uniform(0.5, 2.0, r)) @ basis[:, :r].T)
    p = int(rng.integers(1, 2 * n + 1))
    if rng.random() < 0.5:
        k = int(rng.integers(1, n))
        rows = rng.normal(size=(p, k)) @ rng.normal(size=(k, n))
    else:
        rows = rng.normal(size=(p, n))
    b0 = rng.dirichlet(np.ones(p)) @ rows if rng.random() < 0.5 else rng.normal(size=n)
    b = np.vstack([b0, rows]) * 0.5
    x0 = rng.normal(size=n) * 0.3
    vals = q.quad(x0) + 2.0 * b[1:] @ x0
    bounds = [Bound(v - rng.uniform(0.2, 1.0), v + rng.uniform(0.2, 1.0)) for v in vals]
    return UqInstance(n, q, b, np.zeros(p + 1), bounds)


@pytest.mark.parametrize("seed", [0, 1])
def test_singular_psd_takes_the_uniform_path(seed):
    # check_as3 is condition C of the one-block view, tighten_uq recovers
    # what tighten_qcqp recovers on it, and the closed-form dual certifies
    # every optimal relaxation
    rng = np.random.default_rng(seed)
    recovered = stepped = 0
    for k in range(150):
        inst = _singular_psd_uq(rng)
        view = model.uq_as_qcqp(inst)
        cert = reformulate.check_as3(inst)
        cond = reformulate.check_condition_c(view, (0,))
        assert (cert.holds, cert.rank) == (cond.holds, cond.dims[0]), k
        prog, meta = reformulate.build_socp_uq(inst)
        res = conesolver.solve(prog)
        if res.status != "Optimal":
            continue
        assert reformulate.certify_strong_duality(inst, res).holds, k
        if not cert.holds:
            continue
        v = meta.original_value(res)
        x, trace = recover.tighten_uq(inst, res)
        assert inst.is_feasible(x, 1e-6), k
        assert inst.values(x)[0] == pytest.approx(v, abs=1e-5 * (1 + abs(v))), k
        x_view, _ = recover.tighten_qcqp(view, res, meta)
        assert np.abs(x - x_view).max() <= 1e-7, k
        recovered += 1
        stepped += bool(trace.steps)
    assert recovered >= 15 and stepped >= 5


def test_tighten_direction_without_energy_is_refused():
    # Q = diag(1e-3, -5e-9) with data of scale 1: -5e-9 lies within the
    # instance's cut, so e2 spans N(Q) and joins the rows.  The direction
    # left after the rows, e2, would have negative energy; the certificate
    # no longer offers it, and tightening refuses before taking a step
    inst = UqInstance(
        2,
        SymMatrix.from_dense(np.diag([1e-3, -5e-9])),
        np.array([[0.5, 0.0], [0.5, 0.0]]),
        np.zeros(2),
        [Bound(-1.0, 1.0)],
    )
    cert = reformulate.check_as3(inst)
    assert (cert.holds, cert.rank) == (False, 2)
    res, _ = solve_uq(inst)
    with pytest.raises(ConditionNotMet, match="exactness condition fails"):
        recover.tighten_uq(inst, res)


# ---------------------------------------------------------------------------
# tighten_qcqp
# ---------------------------------------------------------------------------


def test_tighten_qcqp_identity_when_closed():
    inst = reformulate.build_trs(SymMatrix.from_dense(np.diag([1.0, 2.0])), np.array([1.0, 0.0]))
    prog, meta = reformulate.build_cr(inst)
    res = conesolver.solve(prog)
    x, trace = recover.tighten_qcqp(inst, res, meta)
    assert trace.steps == [] or trace.final_gap <= 1e-8


def test_tighten_qcqp_hard_case_trs():
    a = np.diag([-1.0, -1.0, 0.0])
    b = np.array([0.0, 0.0, 0.01])
    inst = reformulate.build_trs(SymMatrix.from_dense(a), b)
    prog, meta = reformulate.build_cr(inst)
    res = conesolver.solve(prog)
    v = meta.original_value(res)
    x, _ = recover.tighten_qcqp(inst, res, meta)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-6)
    got = float(x @ a @ x + 2 * b @ x)
    expect, _ = trs_secular(a, b)
    assert got == pytest.approx(expect, abs=1e-6)
    assert got == pytest.approx(v, abs=1e-5)


def test_tighten_qcqp_two_block():
    rng = np.random.default_rng(2)
    n = 3
    # block 1 acts on span{e1,e2}, identity block lifted with a -1 objective
    b1 = np.zeros((n, n))
    b1[:2, :2] = np.eye(2)
    from socqp.model import QcqpInstance

    inst = QcqpInstance(
        n,
        [SymMatrix.from_dense(b1), SymMatrix.identity(n)],
        np.array([[1.0, -1.0], [0.0, 1.0]]),
        np.vstack([rng.normal(size=n) * 0.2, np.zeros(n)]),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
        sense="min",
    )
    k = reformulate.lift_set_onesided(inst)
    cert = reformulate.check_condition_c(inst, k)
    assert cert.holds
    prog, meta = reformulate.build_cr(inst)
    res = conesolver.solve(prog)
    v = res.objective
    x, _ = recover.tighten_qcqp(inst, res, meta)
    assert inst.is_feasible(x, 1e-6)
    assert inst.values(x)[0] == pytest.approx(v, abs=1e-5 * (1 + abs(v)))


def _hard_case_trs():
    inst = reformulate.build_trs(
        SymMatrix.from_dense(np.diag([-1.0, -1.0, 0.0])), np.array([0.0, 0.0, 0.01])
    )
    prog, meta = reformulate.build_cr(inst)
    res = conesolver.solve(prog)
    assert res.status == "Optimal"
    return inst, res, meta


def test_tighten_qcqp_refuses_a_solve_that_is_not_optimal():
    inst, res, meta = _hard_case_trs()
    with pytest.raises(PreconditionViolated, match="Optimal"):
        recover.tighten_qcqp(inst, dataclasses.replace(res, status="MaxIter"), meta)


def test_tighten_qcqp_refuses_a_point_off_the_relaxation_value():
    # the point's objective must be the relaxation value to model.tolerance;
    # a result whose objective is moved by 1e-3 * data_scale fails that test
    inst, res, meta = _hard_case_trs()
    moved = dataclasses.replace(res, objective=res.objective + 1e-3 * model.data_scale(inst))
    with pytest.raises(TightenFailed, match="objective drift") as info:
        recover.tighten_qcqp(inst, moved, meta)
    trace = info.value.trace
    assert isinstance(trace, recover.TightenTrace)
    assert trace.final_gap <= model.tolerance(inst, 1.0, 1e-6)


# ---------------------------------------------------------------------------
# gamma / tau
# ---------------------------------------------------------------------------


def test_gamma_examples():
    ball = UqInstance(
        2,
        SymMatrix.identity(2),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    assert recover.gamma_uq(ball) == 0.0
    inst = UqInstance(
        1,
        SymMatrix.identity(1),
        np.array([[0.0], [1.0]]),
        np.zeros(2),
        [Bound(-math.inf, 3.0)],
    )
    assert recover.gamma_uq(inst) == pytest.approx(0.5)


def test_gamma_reads_definiteness_at_the_rank_tolerance():
    # diag(1, 1e-10) is singular PSD at the default tol_rank, as solve
    # classifies it, so gamma refuses it
    inst = UqInstance(
        2,
        SymMatrix.from_dense(np.diag([1.0, 1e-10])),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    with pytest.raises(InvalidInstance, match="positive definite"):
        recover.gamma_uq(inst)


def test_gamma_matches_naive():
    rng = np.random.default_rng(3)
    inst = random_convex_uq(rng, 3, 4)
    qinv = np.linalg.inv(inst.q.dense())
    expect = max(
        math.sqrt(inst.b[i + 1] @ qinv @ inst.b[i + 1])
        / math.sqrt(bd.upper - inst.d[i + 1] + inst.b[i + 1] @ qinv @ inst.b[i + 1])
        for i, bd in enumerate(inst.bounds)
    )
    assert recover.gamma_uq(inst) == pytest.approx(expect, rel=1e-12)


def test_gamma_rejects_bad_radicand():
    inst = UqInstance(
        1,
        SymMatrix.identity(1),
        np.array([[0.0], [0.0]]),
        np.array([0.0, 2.0]),
        [Bound(-math.inf, 1.0)],
    )
    with pytest.raises(InvalidInstance):
        recover.gamma_uq(inst)
    # the first offending constraint, in order, is the one reported
    rows = np.array([[0.0], [0.1], [0.0], [0.0]])
    bad_second = UqInstance(
        1, SymMatrix.identity(1), rows, np.array([0.0, 0.0, 2.0, 5.0]),
        [Bound(-math.inf, 1.0)] * 3,
    )
    with pytest.raises(InvalidInstance, match="constraint 2 "):
        recover.gamma_uq(bad_second)
    open_first = UqInstance(
        1, SymMatrix.identity(1), rows, np.array([0.0, 0.0, 2.0, 0.0]),
        [Bound(-1.0, math.inf), Bound(-math.inf, 1.0), Bound(-math.inf, 1.0)],
    )
    with pytest.raises(WrongShape):
        recover.gamma_uq(open_first)


def test_tau_bar_examples():
    ball4 = UqInstance(
        2,
        SymMatrix.identity(2),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, 4.0)],
    )
    assert recover.tau_bar(ball4, np.zeros(2)) == 1.0
    x = np.array([4.0, 0.0])
    assert recover.tau_bar(ball4, x) == pytest.approx(0.5)


def test_tau_bar_maximality_bracket():
    rng = np.random.default_rng(4)
    for _ in range(20):
        inst = random_convex_uq(rng, 3, 4)
        x_bar = rng.normal(size=3) * 2.0
        tau = recover.tau_bar(inst, x_bar)
        assert inst.is_feasible(tau * x_bar, tol=1e-9)
        if tau < 1.0 - 1e-3:
            bumped = min(1.0, tau + 1e-3)
            assert inst.worst_violation(bumped * x_bar) > 0.0


def _tau_bar_rowwise(inst, x_bar):
    """tau_bar as one scalar step per row, the reference of the vectorised one."""
    quad = inst.q.quad(x_bar)
    best = 1.0
    for i, bd in enumerate(inst.bounds):
        if not bd.has_upper:
            continue
        lin = 2.0 * float(inst.b[i + 1] @ x_bar)
        room = bd.upper - inst.d[i + 1]
        if quad <= 1e-300:
            ti = 1.0 if lin <= 0.0 else min(1.0, room / lin)
        else:
            disc = lin * lin + 4.0 * quad * room
            ti = min(1.0, (-lin + math.sqrt(max(disc, 0.0))) / (2.0 * quad))
        best = min(best, max(ti, 0.0))
    return best


def test_tau_bar_matches_the_rowwise_reference():
    rng = np.random.default_rng(14)
    flat = 0  # x_bar'Qx_bar = 0, the linear branch
    for k in range(60):
        n = int(rng.integers(1, 12))
        p = int(rng.integers(1, 40))
        inst = random_convex_uq(rng, n, p)
        # some rows without an upper bound, and a singular Q whose null space
        # gives x_bar'Qx_bar = 0
        bounds = [Bound(bd.upper - 2.0, math.inf) if rng.random() < 0.3 else bd
                  for bd in inst.bounds]
        w = np.diag(inst.q.dense()).copy()
        if k % 2:
            w[0] = 0.0
        inst = dataclasses.replace(inst, q=SymMatrix.from_dense(np.diag(w)), bounds=bounds)
        x_bar = rng.normal(size=n) * 2.0
        if k % 4 == 1:
            x_bar[1:] = 0.0
        flat += inst.q.quad(x_bar) <= 1e-300
        assert recover.tau_bar(inst, x_bar) == _tau_bar_rowwise(inst, x_bar), k
    assert flat >= 15
    open_rows = UqInstance(1, SymMatrix.identity(1), np.array([[0.0], [1.0]]), np.zeros(2),
                           [Bound(0.0, math.inf)])
    assert recover.tau_bar(open_rows, np.array([5.0])) == 1.0


def test_tau_bar_needs_feasible_origin():
    inst = UqInstance(
        1,
        SymMatrix.identity(1),
        np.array([[0.0], [0.0]]),
        np.array([0.0, 2.0]),
        [Bound(-math.inf, 1.0)],
    )
    with pytest.raises(PreconditionViolated):
        recover.tau_bar(inst, np.array([1.0]))


# ---------------------------------------------------------------------------
# approx_uq
# ---------------------------------------------------------------------------


def test_approx_centered_ball_gamma_zero():
    inst = UqInstance(
        2,
        SymMatrix.identity(2),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    x, trace, cert = recover.approx_uq(inst)
    assert cert.gamma == 0.0
    assert cert.guaranteed_ratio == pytest.approx(0.5)
    assert cert.lower >= 0.5 * cert.upper - 1e-9
    assert inst.is_feasible(x, 1e-8)


def test_approx_shape_errors():
    two_sided = UqInstance(
        1,
        SymMatrix.identity(1),
        np.zeros((2, 1)),
        np.zeros(2),
        [Bound(0.0, 1.0)],
    )
    with pytest.raises(WrongShape):
        recover.approx_uq(two_sided)
    # d_0 is carried in the offset, and the point is that of the d_0 = 0 run
    plain = UqInstance(
        1, SymMatrix.identity(1), np.array([[0.3], [0.1]]), np.zeros(2), [Bound(-math.inf, 1.0)]
    )
    lifted = dataclasses.replace(plain, d=np.array([1.0, 0.0]))
    x0, _, cert0 = recover.approx_uq(plain)
    x1, _, cert1 = recover.approx_uq(lifted)
    assert np.array_equal(x1, x0)
    assert np.array_equal(cert1.centre, cert0.centre)
    assert cert0.offset == float(plain.values(cert0.centre)[0])
    assert cert1.offset == pytest.approx(cert0.offset + 1.0, rel=0.0, abs=1e-15)
    assert (cert1.lower, cert1.upper) == (cert0.lower, cert0.upper)
    assert cert1.upper + cert1.offset == pytest.approx(cert0.upper + cert0.offset + 1.0, abs=1e-15)


def test_approx_moves_with_the_data():
    # translating the data by v moves the centre and the point by v and keeps
    # the certificate.  The relaxation is solved in each instance's own
    # coordinates, so the two runs agree to roundoff in what least_gamma
    # fixes (centre, gamma, ratio, offset) and to the solve's accuracy in the
    # relaxation's value; its optimum is pinned only to about the square root
    # of that accuracy where the objective is flat along a face.
    from helpers import translated_uq_cases

    ran_construction = 0
    for k, (inst, v) in enumerate(translated_uq_cases()):
        shifted, moved_by = model.translate_origin(inst, -v)  # f'_i(x) = f_i(x - v)
        x, trace, cert = recover.approx_uq(inst)
        x_s, trace_s, cert_s = recover.approx_uq(shifted)
        ran_construction += not trace.shortcut
        assert trace_s.shortcut == trace.shortcut, k
        assert np.abs(cert_s.centre - (cert.centre + v)).max() <= 1e-9, k
        for got, want in ((cert_s.gamma, cert.gamma),
                          (cert_s.guaranteed_ratio, cert.guaranteed_ratio),
                          (cert_s.offset + moved_by, cert.offset)):
            assert abs(got - want) <= 1e-9 * abs(want), k
        for got, want in ((cert_s.lower, cert.lower), (cert_s.upper, cert.upper)):
            assert abs(got - want) <= 1e-7 * abs(want), k
        assert np.abs(x_s - (x + v)).max() <= 1e-4 * np.abs(x).max(), k
        assert shifted.worst_violation(x_s) <= 1e-6, k
    assert ran_construction >= 3


def test_round_uq_on_the_solvers_optimum_gives_approx_uqs_answer(monkeypatch):
    # approx_uq makes two cone solves, its relaxation in the instance's own
    # coordinates and then least_gamma's; its answer is round_uq of that
    # relaxation optimum, bit for bit
    from helpers import random_gap_uq

    programs, solved = [], []
    solve = recover.solve

    def recording(prog, opts=None):
        programs.append(prog)
        solved.append(solve(prog, opts))
        return solved[-1]

    monkeypatch.setattr(recover, "solve", recording)
    rng = np.random.default_rng(15)
    ran_construction = 0
    for k in range(24):
        n = int(rng.integers(2, 5))
        inst = random_gap_uq(rng, n, 2 * n) if k % 2 else random_convex_uq(rng, n, n + 2)
        inst = dataclasses.replace(inst, d=inst.d + np.r_[rng.normal(), np.zeros(inst.p)])
        programs.clear()
        solved.clear()
        x, trace, cert = recover.approx_uq(inst)
        relaxation, _ = reformulate.build_socp_uq(inst)
        assert len(programs) == 2, k
        first, second = programs
        assert all(np.array_equal(getattr(first, a), getattr(relaxation, a)) for a in "cgh"), k
        assert len(second.soc) == inst.p and second.g.shape[0] == 0, k  # one cone per row
        z = solved[0].z
        x_r, trace_r, cert_r = recover.round_uq(inst, z[:n], float(z[n]))
        ran_construction += not trace.shortcut
        assert (trace_r.shortcut, trace_r.tau_bar) == (trace.shortcut, trace.tau_bar), k
        assert np.array_equal(x_r, x), k
        assert np.array_equal(cert_r.centre, cert.centre), k
        for field in ("lower", "upper", "gamma", "guaranteed_ratio", "offset"):
            assert getattr(cert_r, field) == getattr(cert, field), (k, field)
    assert ran_construction >= 6


def test_approx_refuses_a_centre_that_is_not_strictly_interior():
    # two unit balls at +-e1 as uniform rows: touching, least gamma reaches 1
    # and the rule refuses it; set apart, the relaxation itself is infeasible
    for gap, match in ((1.0, "f_"), (1.2, "no common point")):
        b = np.array([[0.0, 0.0], [-gap, 0.0], [gap, 0.0]])
        d = np.array([0.0, gap * gap, gap * gap])
        inst = UqInstance(2, SymMatrix.identity(2), b, d, [Bound(-math.inf, 1.0)] * 2)
        with pytest.raises(PreconditionViolated, match=match):
            recover.approx_uq(inst)


def test_least_gamma_is_gamma_at_its_point_and_moves_with_the_data():
    # gamma at x_hat is gamma_uq of the instance moved there; it is no worse
    # than the origin's when the origin is interior; and translating the data
    # by v moves x_hat by v and keeps gamma.  d_0 != 0 throughout, and the
    # translated copies have an infeasible origin.
    from helpers import random_gap_uq

    rng = np.random.default_rng(26)
    infeasible_origins = 0
    for k in range(24):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, n + 4))
        inst = random_gap_uq(rng, n, p) if k % 2 else random_convex_uq(rng, n, p)
        inst = dataclasses.replace(inst, d=inst.d + np.r_[rng.normal(), np.zeros(p)])
        x_hat, gamma = recover.least_gamma(inst)
        v = rng.normal(size=n)
        v *= 3.0 / np.linalg.norm(v)
        shifted, _ = model.translate_origin(inst, -v)  # f'_i(x) = f_i(x - v)
        infeasible_origins += not shifted.is_feasible(np.zeros(n), 0.0)
        x_s, gamma_s = recover.least_gamma(shifted)
        for case, (data, x, g) in enumerate(((inst, x_hat, gamma), (shifted, x_s, gamma_s))):
            at_x = recover.gamma_uq(model.translate_origin(data, x)[0])
            assert g >= 0.0 and g == pytest.approx(at_x, rel=1e-9, abs=1e-12), (k, case)
        assert gamma <= recover.gamma_uq(inst) * (1.0 + 1e-8), k
        assert np.abs(x_s - (x_hat + v)).max() <= 1e-6, k
        assert abs(gamma_s - gamma) <= 1e-9 * max(gamma, 1.0), k
    assert infeasible_origins >= 20


def test_least_gamma_takes_a_capped_solves_interior_point(monkeypatch):
    # at feastol = gaptol = 1e-12 the least-gamma solve of some of these
    # instances ends MaxIter; gamma is read at the returned point, so that
    # best iterate is a centre, and gamma there is no worse than the default
    # solve's
    from helpers import translated_uq_cases

    tight = conesolver.SolveOptions(feastol=1e-12, gaptol=1e-12)
    statuses = []
    solve = recover.solve

    def recording(prog, opts=None):
        res = solve(prog, opts)
        statuses.append(res.status)
        return res

    for k, (inst, _) in enumerate(translated_uq_cases()):
        _, gamma = recover.least_gamma(inst)
        with monkeypatch.context() as m:
            m.setattr(recover, "solve", recording)
            x_hat, gamma_tight = recover.least_gamma(inst, tight)
        at_x = recover.gamma_uq(model.translate_origin(inst, x_hat)[0])
        assert gamma_tight == pytest.approx(at_x, rel=1e-9, abs=1e-12), k
        assert -2e-9 <= gamma_tight - gamma <= 1e-12, k
    assert statuses.count("MaxIter") >= 3


def test_least_gamma_capped_without_an_interior_point_fails_the_solve():
    # touching balls: gamma >= 1 everywhere, so a capped solve proves
    # nothing, and it is a solver failure, not an empty interior
    b = np.array([[0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
    inst = UqInstance(
        2, SymMatrix.identity(2), b, np.array([0.0, 1.0, 1.0]), [Bound(-math.inf, 1.0)] * 2
    )
    with pytest.raises(SolverFailed, match="MaxIter"):
        recover.least_gamma(inst, conesolver.SolveOptions(max_iter=2))


def test_selection_bound_reads_the_rows():
    # ||Q^(1/2)(x + Q^(-1) b_i)||^2 = f_i(x) - d_i + b_i'Q^(-1)b_i
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        inst = random_convex_uq(rng, n, n + 3)
        nrm2, _, _ = recover._gamma_terms(inst)
        x = rng.normal(size=n)
        w, v = np.linalg.eigh(inst.q.dense())
        root = (v * np.sqrt(w)) @ v.T
        explicit = np.linalg.norm(
            root @ (x[:, None] + np.linalg.solve(inst.q.dense(), inst.b[1:].T)), axis=0
        ) ** 2
        rows = inst.values(x)[1:] - inst.d[1:] + nrm2
        np.testing.assert_allclose(rows, explicit, rtol=1e-10)


def test_approx_random_suite_invariants():
    rng = np.random.default_rng(5)
    for k in range(40):
        n = int(rng.integers(2, 8))
        p = n + 2 + int(rng.integers(0, 5))
        inst = random_convex_uq(rng, n, p, b_scale=0.5)
        x, trace, cert = recover.approx_uq(inst)
        scale = 1.0 + abs(cert.upper)
        assert inst.worst_violation(x) <= 1e-6, k
        assert cert.lower >= cert.guaranteed_ratio * cert.upper - 1e-5 * scale, k
        assert cert.upper >= cert.lower - 1e-7 * scale, k
        assert 0.0 <= trace.tau_bar <= 1.0
        if not trace.shortcut:
            # the trace lives in the coordinates centred at cert.centre
            centred, _ = model.translate_origin(inst, cert.centre)
            qd = centred.q.dense()
            # split identity: candidates carry the full relaxation value
            lhs = (
                trace.s1 @ qd @ trace.s1
                + 2 * trace.t1 * centred.b[0] @ trace.s1
                + trace.s2 @ qd @ trace.s2
                + 2 * trace.t2 * centred.b[0] @ trace.s2
            )
            assert lhs == pytest.approx(cert.upper, abs=1e-7 * scale)
            assert trace.t1**2 + trace.t2**2 == pytest.approx(1.0, abs=1e-12)


def test_approx_exact_instance_returns_ratio_one():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        inst = random_convex_uq(rng, n, int(rng.integers(1, n)))
        x, trace, cert = recover.approx_uq(inst)
        assert trace.shortcut
        assert cert.lower == pytest.approx(cert.upper, abs=1e-5 * (1 + abs(cert.upper)))
        # cross-check against independent tightening of the same relaxation
        res, meta = solve_uq(inst)
        xt, _ = recover.tighten_uq(inst, res)
        assert inst.values(xt)[0] == pytest.approx(cert.upper + cert.offset, abs=1e-5)


def test_approx_construction_path_analytic():
    # opposed rows pin the relaxation at (x, t) = (0, 1) with an open cone:
    # max x^2 s.t. x^2 + 2x <= 1, x^2 - 2x <= 1 has optimum 3 - 2*sqrt(2)
    inst = UqInstance(
        1,
        SymMatrix.identity(1),
        np.array([[0.0], [1.0], [-1.0]]),
        np.zeros(3),
        [Bound(-math.inf, 1.0), Bound(-math.inf, 1.0)],
    )
    x, trace, cert = recover.approx_uq(inst)
    assert not trace.shortcut
    assert cert.upper == pytest.approx(1.0, abs=1e-6)
    assert cert.gamma == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert trace.tau_bar == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-5)
    assert cert.lower == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-5)
    g = oracle.grid_max_uq(inst, h=1e-4)
    assert cert.lower == pytest.approx(g.value, abs=3e-4)  # rounding is optimal here


def test_approx_relaxation_cap_is_a_solver_failure():
    inst = random_convex_uq(np.random.default_rng(4), 3, 4)
    with pytest.raises(SolverFailed, match="MaxIter"):
        recover.approx_uq(inst, opts=conesolver.SolveOptions(max_iter=1))


def test_approx_broken_identity_raises_named_error(monkeypatch):
    # a wrong eigenvalue makes the companion point miss the cone energy; the
    # guard must raise (not assert, which python -O strips)
    class SkewedLinalg:
        def __getattr__(self, name):
            return getattr(linalg, name)

        @staticmethod
        def sym_eig(q):
            w, v = linalg.sym_eig(q)
            return 4.0 * w, v

    monkeypatch.setattr(recover, "linalg", SkewedLinalg())
    inst = UqInstance(
        1,
        SymMatrix.identity(1),
        np.array([[0.0], [1.0], [-1.0]]),
        np.zeros(3),
        [Bound(-math.inf, 1.0), Bound(-math.inf, 1.0)],
    )
    with pytest.raises(IdentityViolated):
        recover.approx_uq(inst)


def test_approx_construction_path_random_gaps():
    from helpers import random_gap_uq

    rng = np.random.default_rng(8)
    ran_construction = 0
    for _ in range(20):
        n = int(rng.integers(2, 4))
        p = n + 2 + int(rng.integers(0, 4))
        inst = random_gap_uq(rng, n, p)
        x, trace, cert = recover.approx_uq(inst)
        ran_construction += not trace.shortcut
        if not trace.shortcut:
            # the chosen candidate meets the sqrt(2) selection bound, taken
            # here row by row as the reference, in the coordinates centred
            # at cert.centre where the trace lives
            centred, _ = model.translate_origin(inst, cert.centre)
            s, tj = (trace.s1, trace.t1) if trace.j_bar == 1 else (trace.s2, trace.t2)
            qd = centred.q.dense()
            w, v = np.linalg.eigh(qd)
            root = (v * np.sqrt(w)) @ v.T
            bound = 0.0
            for i, bd in enumerate(centred.bounds):
                qb = np.linalg.solve(qd, centred.b[i + 1])
                num = np.linalg.norm(root @ (s / tj + qb))
                radicand = bd.upper - centred.d[i + 1] + centred.b[i + 1] @ qb
                bound = max(bound, num / math.sqrt(radicand))
            assert bound <= math.sqrt(2.0) * (1.0 + 1e-8)
        assert inst.worst_violation(x) <= 1e-6
        scale = 1.0 + abs(cert.upper)
        assert cert.lower >= cert.guaranteed_ratio * cert.upper - 1e-5 * scale
        g = oracle.grid_max_uq(inst, h=oracle_step(inst), refine=3)
        assert cert.lower + cert.offset <= g.value + 2e-3
        assert g.value <= cert.upper + cert.offset + 2e-3
    assert ran_construction >= 10  # the rounding path is genuinely exercised


def test_approx_sandwich_against_oracle():
    rng = np.random.default_rng(7)
    for _ in range(8):
        n = int(rng.integers(2, 4))
        p = n + 2
        inst = random_convex_uq(rng, n, p)
        x, _, cert = recover.approx_uq(inst)
        g = oracle.grid_max_uq(inst, h=oracle_step(inst), refine=3)
        assert cert.lower + cert.offset <= g.value + 2e-3
        assert g.value <= cert.upper + cert.offset + 2e-3
