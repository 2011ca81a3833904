import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socqp import conesolver, model, reformulate
from socqp.conesolver import ConeProgram, SocBlock, SolveOptions
from socqp.errors import InvalidInput, InvalidMultiplier, InvalidProgram
from socqp.linalg import SymMatrix
from socqp.model import Bound, UqInstance

from helpers import random_uq


def norm_program():
    # min t s.t. ||x|| <= t with x pinned to (3, 4)
    soc = [
        SocBlock(
            a=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            b=np.zeros(2),
            c=np.array([0.0, 0.0, 1.0]),
            d=0.0,
        )
    ]
    return ConeProgram(
        c=np.array([0.0, 0.0, 1.0]),
        e=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        f=np.array([3.0, 4.0]),
        soc=soc,
    )


def test_norm_minimization():
    res = conesolver.solve(norm_program())
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(5.0, abs=1e-6)


def test_example1_relaxation_value():
    inst = UqInstance(
        1,
        SymMatrix.identity(1),
        np.array([[0.0], [1.0], [-1.0]]),
        np.zeros(3),
        [Bound(1.0, 3.0), Bound(-1.0, 3.0)],
    )
    prog, meta = reformulate.build_socp_uq(inst)
    res = conesolver.solve(prog)
    assert res.status == "Optimal"
    assert meta.original_value(res) == pytest.approx(3.0, abs=1e-6)


def test_box_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(0)
    n = 4
    c = rng.normal(size=n)
    g = np.vstack([np.eye(n), -np.eye(n)])
    h = np.concatenate([rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)])
    res = conesolver.solve(ConeProgram(c=c, g=g, h=h))
    assert res.status == "Optimal"
    best = min(
        c @ np.array(v)
        for v in itertools.product(*[(-h[n + k], h[k]) for k in range(n)])
    )
    assert res.objective == pytest.approx(best, abs=1e-6)


def test_invalid_program_dimensions():
    with pytest.raises(InvalidProgram):
        ConeProgram(c=np.array([1.0]), g=np.ones((1, 2)), h=np.ones(1))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "field", ["c", "g", "h", "e", "f", "soc.a", "soc.b", "soc.c", "soc.d"]
)
def test_non_finite_program_data_is_refused(field, bad):
    data = {
        "c": np.array([0.0, 0.0, 1.0]),
        "g": np.array([[1.0, 1.0, 0.0]]),
        "h": np.array([2.0]),
        "e": np.array([[1.0, -1.0, 0.0]]),
        "f": np.array([0.0]),
    }
    blk = {"a": np.eye(3)[:2], "b": np.zeros(2), "c": np.eye(3)[2], "d": 0.0}
    part, _, key = field.rpartition(".")
    target = blk if part == "soc" else data
    if key == "d":
        target[key] = bad
    else:
        target[key].flat[0] = bad
    with pytest.raises(InvalidProgram, match="program data must be finite"):
        ConeProgram(**data, soc=[SocBlock(**blk)])


def test_unbounded_reports_ray():
    # min -x2 subject to x1^2 <= x2, and the same with x3 = x2 carrying the
    # objective, so the ray leaves the null space of E only if mapped wrong
    blk = SocBlock(
        a=np.array([[1.0, 0.0], [0.0, 0.5]]),
        b=np.array([0.0, -0.5]),
        c=np.array([0.0, 0.5]),
        d=0.5,
    )
    lifted = SocBlock(np.c_[blk.a, np.zeros(2)], blk.b, np.r_[blk.c, 0.0], blk.d)
    progs = [
        ConeProgram(c=np.array([0.0, -1.0]), soc=[blk]),
        ConeProgram(c=np.array([0.0, 0.0, -1.0]), e=np.array([[0.0, 1.0, -1.0]]),
                    f=np.zeros(1), soc=[lifted]),
    ]
    for prog in progs:
        res = conesolver.solve(prog)
        assert res.status == "Unbounded"
        assert res.certificate_kind == "improving_ray"
        ray = res.certificate
        assert ray is not None and ray[1] > 0
        assert prog.c @ ray == pytest.approx(-1.0)
        # E zh = 0 and -G zh in K: the cone row holds along the ray
        assert np.abs(prog.e @ ray).max(initial=0.0) <= 1e-9
        assert np.linalg.norm(prog.soc[0].a @ ray) <= prog.soc[0].c @ ray + 1e-9


def farkas_residuals(prog, res):
    """(||G_c'lam + E'y||, h_c'lam + f'y) of an infeasibility certificate,
    with the duals in program order."""
    grad = prog.g.T @ res.lam_lin + prog.e.T @ res.y
    value = prog.h @ res.lam_lin + prog.f @ res.y
    for blk, lam in zip(prog.soc, res.lam_soc):
        grad -= blk.c * lam[0] + blk.a.T @ lam[1:]
        value += blk.d * lam[0] + blk.b @ lam[1:]
    return float(np.abs(grad).max()), float(value)


def test_infeasible_reports_farkas():
    # x >= 1 and x <= -1; then x1 + x2 = 1 and x1 + x2 = 2, alone and next
    # to a cone, where the certificate is y alone with E'y = 0 and f'y < 0
    clash = {"e": np.ones((2, 2)), "f": np.array([1.0, 2.0])}
    ball = SocBlock(np.eye(2), np.zeros(2), np.zeros(2), 3.0)
    progs = [
        ConeProgram(c=np.array([0.0]), g=np.array([[1.0], [-1.0]]), h=np.array([-1.0, -1.0])),
        ConeProgram(c=np.array([1.0, 0.0]), **clash),
        ConeProgram(c=np.array([1.0, 0.0]), soc=[ball], **clash),
    ]
    for prog in progs:
        res = conesolver.solve(prog)
        assert res.status == "Infeasible"
        assert res.certificate_kind == "farkas_dual"
        assert np.array_equal(res.certificate[: prog.f.size], res.y)
        grad, value = farkas_residuals(prog, res)
        assert grad <= 1e-9 and value < 0.0
        if prog.f.size:
            assert np.abs(prog.e.T @ res.y).max() <= 1e-12
            assert prog.f @ res.y == pytest.approx(-1.0)
            assert not res.certificate[prog.f.size :].any()


def test_pinned_program_checks_its_rows():
    # E pins z = (1, 2), so nothing is left to optimise: the row z1 + z2 <= h
    # and the cone ||z|| <= 3 decide between Optimal and Infeasible
    ball = SocBlock(np.eye(2), np.zeros(2), np.zeros(2), 3.0)
    for h, status in ((4.0, "Optimal"), (2.0, "Infeasible")):
        prog = ConeProgram(c=np.array([1.0, -1.0]), g=np.ones((1, 2)), h=np.array([h]),
                           e=np.eye(2), f=np.array([1.0, 2.0]), soc=[ball])
        res = conesolver.solve(prog)
        assert res.status == status, h
        if status == "Optimal":
            assert np.allclose(res.z, [1.0, 2.0], atol=1e-9)
            assert res.objective == pytest.approx(-1.0)
        else:
            grad, value = farkas_residuals(prog, res)
            assert grad <= 1e-7 and value < 0.0


def test_determinism_bit_identical():
    prog = norm_program()
    r1 = conesolver.solve(prog)
    r2 = conesolver.solve(prog)
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.z, r2.z)
    assert np.array_equal(r1.lam_lin, r2.lam_lin)


def test_objective_monotone_under_added_rows():
    rng = np.random.default_rng(1)
    n = 3
    c = rng.normal(size=n)
    g = np.vstack([np.eye(n), -np.eye(n)])
    h = np.ones(2 * n)
    base = conesolver.solve(ConeProgram(c=c, g=g, h=h))
    prev = base.objective
    for k in range(3):
        extra = rng.normal(size=(k + 1, n))
        rhs = np.abs(rng.normal(size=k + 1)) * 0.5
        res = conesolver.solve(
            ConeProgram(c=c, g=np.vstack([g, extra]), h=np.concatenate([h, rhs]))
        )
        if res.status == "Optimal":
            assert res.objective >= prev - 1e-7
            prev = res.objective


def test_solver_accuracy_on_random_feasible_socps():
    rng = np.random.default_rng(2)
    for trial in range(10):
        n = int(rng.integers(3, 7))
        z0 = rng.normal(size=n)
        c = rng.normal(size=n)
        g = np.vstack([rng.normal(size=(4, n)), np.eye(n), -np.eye(n)])
        slack = np.abs(rng.normal(size=4)) + 0.1
        h = np.concatenate([g[:4] @ z0 + slack, np.full(2 * n, 10.0)])
        a = rng.normal(size=(2, n))
        b = rng.normal(size=2)
        ck = rng.normal(size=n)
        d = float(np.linalg.norm(a @ z0 + b) - ck @ z0 + 0.5)
        prog = ConeProgram(c=c, g=g, h=h, soc=[SocBlock(a, b, ck, d)])
        res = conesolver.solve(prog)
        assert res.status == "Optimal", trial
        scale = 1.0 + abs(res.objective)
        assert res.pres <= 1e-7 and res.dres <= 1e-7
        assert res.gap <= 1e-7 * scale
        assert prog.violation(res.z) <= 1e-6


def random_mixed_program(rng, nv, nlin, ne, dims):
    """Cone program with linear rows, equalities and SOC blocks of the given
    (interleaved) dimensions, strictly feasible at a random point."""
    z0 = rng.normal(size=nv)
    g = rng.normal(size=(nlin, nv))
    h = g @ z0 + rng.uniform(0.1, 1.0, size=nlin)
    e = rng.normal(size=(ne, nv))
    soc = []
    for d in dims:
        a = rng.normal(size=(d - 1, nv))
        b = rng.normal(size=d - 1)
        ck = rng.normal(size=nv)
        soc.append(SocBlock(a, b, ck, float(np.linalg.norm(a @ z0 + b) - ck @ z0 + 0.5)))
    return ConeProgram(c=rng.normal(size=nv), g=g, h=h, e=e, f=e @ z0, soc=soc)


def random_interior(rng, nlin, dims):
    """A point strictly inside R^l_+ x Q_{d_1} x ..., in program order."""
    parts = [rng.uniform(1e-3, 2.0, size=nlin)]
    for d in dims:
        tail = rng.normal(size=d - 1)
        parts.append(np.r_[np.linalg.norm(tail) + rng.uniform(1e-3, 1.0), tail])
    return np.concatenate(parts)


def dense_nt_w2(s, lam, nlin, dims):
    """Dense W^2 of the Nesterov-Todd scaling, block by block from the
    textbook formula W^2 = eta (2 wbar wbar' - J) on each SOC block."""
    w2 = np.zeros((s.size, s.size))
    w2[:nlin, :nlin] = np.diag(s[:nlin] / lam[:nlin])
    at = nlin
    for d in dims:
        sb, lb = s[at : at + d], lam[at : at + d]
        jmat = np.diag(np.r_[1.0, -np.ones(d - 1)])
        sj, lj = math.sqrt(sb @ jmat @ sb), math.sqrt(lb @ jmat @ lb)
        sn, ln = sb / sj, lb / lj
        wbar = (sn + jmat @ ln) / math.sqrt(2.0 * (1.0 + sn @ ln))
        w2[at : at + d, at : at + d] = (sj / lj) * (2.0 * np.outer(wbar, wbar) - jmat)
        at += d
    return w2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nv=st.integers(1, 6),
    nlin=st.integers(0, 5),
    dims=st.lists(st.integers(2, 5), min_size=0, max_size=4),
)
# orders nv of 31-33 straddle the cut between numpy's Cholesky (nv <= 32) and
# LAPACK's potrf, and orders 67, 111 and 181 with one large cone and up to 472
# cone rows are the shapes the benchmark's uniform instances build
@example(seed=31, nv=31, nlin=28, dims=[3, 4])
@example(seed=34, nv=32, nlin=30, dims=[2, 5])
@example(seed=35, nv=33, nlin=29, dims=[4])
@example(seed=40, nv=67, nlin=80, dims=[68])
@example(seed=41, nv=111, nlin=215, dims=[112])
@example(seed=42, nv=181, nlin=290, dims=[182])
def test_reduced_kkt_matches_dense_full_kkt(seed, nv, nlin, dims):
    nlin = max(nlin, nv - sum(dims))  # G of full column rank
    rng = np.random.default_rng(seed)
    prog = random_mixed_program(rng, nv, nlin, 0, dims)
    gc_solver, _, cones = conesolver._conic_rows(prog)
    s = random_interior(rng, nlin, dims)
    lam = random_interior(rng, nlin, dims)

    # reference: the full (nv + m) KKT system in program order
    gc = np.vstack([prog.g] + [np.vstack([-b.c[None, :], -b.a]) for b in prog.soc])
    w2 = dense_nt_w2(s, lam, nlin, dims)
    assert np.allclose(w2 @ lam, s, rtol=1e-10, atol=1e-12)  # W^2 lam = s
    m = s.size
    kkt = np.zeros((nv + m, nv + m))
    kkt[:nv, nv:] = gc.T
    kkt[nv:, :nv] = gc
    kkt[nv:, nv:] = -w2
    rhs = rng.normal(size=nv + m)
    ref = np.linalg.solve(kkt, rhs)

    # program order -> solver order (SOC blocks grouped by dimension)
    perm = np.r_[np.arange(nlin), np.zeros(m - nlin, dtype=int)].astype(int)
    at = nlin
    for sl, d in zip(cones.slices, dims):
        perm[sl] = np.arange(at, at + d)
        at += d
    assert np.array_equal(gc_solver, gc[perm])

    scaling = conesolver._Scaling(cones, s[perm], lam[perm])
    solver_kkt = conesolver._Kkt(nv)
    solver_kkt.factor(scaling.apply_inv(gc_solver.T))
    x, dl = solver_kkt.solve(rhs[:nv], scaling.apply_inv(rhs[nv:][perm]))
    got = np.concatenate([x, np.empty(m)])
    got[nv:][perm] = scaling.apply_inv(dl)
    assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


@pytest.mark.parametrize("nv", [32, 33])
def test_kkt_factor_follows_the_programs_shape(nv):
    # a Cholesky factor takes every program, with numpy up to order 32 and
    # LAPACK above
    fac = conesolver._Kkt(nv).fac
    assert type(fac) is conesolver._CholeskyFactor
    assert (fac.lapack is not None) == (nv > 32)


@pytest.mark.parametrize("nv", [8, 40])
def test_kkt_factor_raises_the_regularization_until_cholesky_succeeds(nv):
    # A' whose A'A has two equal rows of 2^30: every product is exact, so A'A
    # is exactly singular, and 2^30 + 1e-10 rounds to 2^30, so the Cholesky
    # of A'A + 1e-10 I breaks down
    a_pad = np.zeros((nv, nv))
    a_pad[:2, 0] = 2.0**15
    a_pad[np.arange(2, nv), np.arange(1, nv - 1)] = 1.0
    k = a_pad @ a_pad.T
    k_reg = k + 1e-10 * np.eye(nv)
    if nv <= 32:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(k_reg)
    else:
        from scipy.linalg import lapack

        assert lapack.dpotrf(k_reg, lower=1)[1] != 0
    kkt = conesolver._Kkt(nv)
    assert (kkt.fac.lapack is not None) == (nv > 32)
    kkt.factor(a_pad)
    # a right-hand side in the range of A'A: the reduced system is consistent
    rng = np.random.default_rng(7)
    rhs = k @ rng.normal(size=nv)
    x, dl = kkt.solve(rhs, np.zeros(nv))
    assert np.linalg.norm(k @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)
    assert np.linalg.norm(dl - x @ a_pad) <= 1e-12 * np.linalg.norm(dl)


def test_lapack_cholesky_repeat_solve_is_bit_identical():
    # one cone of 62 rows and 90 linear rows in 61 variables: above order 32, so
    # LAPACK's potrf factors every iteration
    prog, _ = reformulate.build_socp_uq(random_uq(np.random.default_rng(60), 60, 90))
    assert prog.nvar > 32 and prog.e.size == 0
    r1 = conesolver.solve(prog)
    r2 = conesolver.solve(prog)
    assert r1.status == "Optimal"
    assert r1.iterations == r2.iterations
    for a, b in [(r1.z, r2.z), (r1.lam_lin, r2.lam_lin), (r1.s_lin, r2.s_lin)]:
        assert np.array_equal(a, b)
    for a, b in zip(r1.lam_soc + r1.s_soc, r2.lam_soc + r2.s_soc):
        assert np.array_equal(a, b)


def test_order_32_solves_without_scipy():
    # min c'z subject to ||z|| <= 1 in 32 variables: the optimum is -||c||;
    # then min t subject to ||x|| <= t with x pinned to (3, 4) by E = [I 0]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from socqp.conesolver import ConeProgram, SocBlock, solve\n"
        "c = np.random.default_rng(5).normal(size=32)\n"
        "soc = [SocBlock(np.eye(32), np.zeros(32), np.zeros(32), 1.0)]\n"
        "res = solve(ConeProgram(c=c, soc=soc))\n"
        "print(res.status, res.objective + np.linalg.norm(c))\n"
        "e = np.eye(3)[:2]\n"
        "soc = [SocBlock(e, np.zeros(2), np.eye(3)[2], 0.0)]\n"
        "res = solve(ConeProgram(c=np.eye(3)[2], e=e, f=np.array([3.0, 4.0]), soc=soc))\n"
        "print(res.status, res.objective - 5.0)\n"
    )
    src = str(Path(conesolver.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        status, error = line.split()
        assert status == "Optimal" and abs(float(error)) <= 1e-6


def test_mixed_cone_dims_report_duals_in_program_order():
    # with 0, 1 and 2 equality rows, and with the second row a copy of the
    # first, which the solve over null(E) must take as one row
    for ne, duplicated in ((0, False), (1, False), (2, False), (2, True)):
        rng = np.random.default_rng(11)
        dims = [4, 2, 3, 2, 4]
        prog = random_mixed_program(rng, 5, 3, ne, dims)
        if duplicated:
            prog.e[1], prog.f[1] = prog.e[0], prog.f[0]
        prog.g = np.vstack([prog.g, np.eye(5), -np.eye(5)])  # keep the optimum bounded
        prog.h = np.concatenate([prog.h, np.full(10, 5.0)])
        res = conesolver.solve(prog)
        assert res.status == "Optimal", ne
        assert [lam.size for lam in res.lam_soc] == dims
        assert [s.size for s in res.s_soc] == dims
        assert np.abs(prog.e @ res.z - prog.f).max(initial=0.0) <= 1e-9
        # stationarity c + G'lam + E'y = 0 with the duals taken in program order
        grad = prog.c + prog.g.T @ res.lam_lin + prog.e.T @ res.y
        for blk, lam in zip(prog.soc, res.lam_soc):
            grad -= blk.c * lam[0] + blk.a.T @ lam[1:]
        assert np.abs(grad).max() <= 1e-7, ne
        for blk, s in zip(prog.soc, res.s_soc):
            assert s[0] == pytest.approx(blk.c @ res.z + blk.d, abs=1e-7)
            assert np.allclose(s[1:], blk.a @ res.z + blk.b, atol=1e-7)


# ---------------------------------------------------------------------------
# closed-form dual
# ---------------------------------------------------------------------------


def single_ball(radius2=1.0):
    return UqInstance(
        2,
        SymMatrix.identity(2),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, radius2)],
    )


def test_dual_value_zero_multiplier_is_unbounded():
    assert reformulate.dual_value(single_ball(), np.zeros(1)) == math.inf


def test_dual_value_limit_toward_one():
    inst = UqInstance(
        1,
        SymMatrix.identity(1),
        np.zeros((2, 1)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    vals = [
        reformulate.dual_value(inst, np.array([1.0 + eps]))
        for eps in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    assert all(np.diff(vals) < 0)
    assert vals[-1] == pytest.approx(1.0, abs=1e-3)
    # the infimum over the grid matches max x^2 on [-1, 1]
    grid = [
        reformulate.dual_value(inst, np.array([lam]))
        for lam in np.linspace(1.0, 3.0, 200)
    ]
    assert min(grid) == pytest.approx(1.0, abs=1e-8)


def test_dual_value_rejects_multiplier_on_infinite_bound():
    with pytest.raises(InvalidMultiplier):
        reformulate.dual_value(single_ball(), np.array([-1.0]))


def test_certify_strong_duality_single_ball():
    inst = single_ball()
    prog, _ = reformulate.build_socp_uq(inst)
    res = conesolver.solve(prog)
    rep = conesolver.certify_strong_duality(inst, res)
    assert rep.holds
    assert abs(rep.gap) <= 1e-5 * (1.0 + abs(rep.relaxation_value))


def test_certify_strong_duality_gap_instance():
    # exactness fails here, but relaxation-level duality still closes
    inst = UqInstance(
        1,
        SymMatrix.identity(1),
        np.array([[0.0], [1.0], [-1.0]]),
        np.zeros(3),
        [Bound(1.0, 3.0), Bound(-1.0, 3.0)],
    )
    prog, _ = reformulate.build_socp_uq(inst)
    res = conesolver.solve(prog)
    rep = conesolver.certify_strong_duality(inst, res)
    assert rep.holds
    assert rep.relaxation_value == pytest.approx(3.0, abs=1e-6)


def test_certify_strong_duality_random_exact_instances():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        inst = random_uq(rng, n, int(rng.integers(1, n)), two_sided_prob=0.4)
        prog, _ = reformulate.build_socp_uq(inst)
        res = conesolver.solve(prog)
        assert res.status == "Optimal"
        rep = conesolver.certify_strong_duality(inst, res)
        assert rep.holds, rep


def test_weak_duality_sampled():
    rng = np.random.default_rng(4)
    inst = random_uq(rng, 2, 2, two_sided_prob=0.0)
    # finite dual values bound every feasible objective value
    for _ in range(200):
        lam = np.abs(rng.normal(size=2)) + np.array([0.6, 0.6])
        dval = reformulate.dual_value(inst, lam)
        if not math.isfinite(dval):
            continue
        x = rng.normal(size=2) * 0.5
        if inst.is_feasible(x, tol=0.0):
            assert inst.values(x)[0] <= dval + 1e-9


def test_equality_only_program():
    prog = ConeProgram(
        c=np.array([0.0, 0.0]),
        e=np.array([[1.0, 1.0]]),
        f=np.array([2.0]),
    )
    res = conesolver.solve(prog)
    assert res.status == "Optimal"
    prog2 = ConeProgram(
        c=np.array([1.0, 0.0]),
        e=np.array([[1.0, 1.0]]),
        f=np.array([2.0]),
    )
    assert conesolver.solve(prog2).status == "Unbounded"


def test_maxiter_returns_best_iterate():
    prog = norm_program()
    res = conesolver.solve(prog, SolveOptions(max_iter=1))
    assert res.status == "MaxIter"
    assert np.all(np.isfinite(res.z))


def test_negative_max_iter_is_rejected():
    # a negative cap would leave no iterate to return, and a cap that is not
    # an integer would fail inside the solve's loop
    for value in (-1, 2.5, 3.0, "3", None, True):
        with pytest.raises(InvalidInput, match="max_iter"):
            SolveOptions(max_iter=value)
    res = conesolver.solve(norm_program(), SolveOptions(max_iter=0))
    assert res.status == "MaxIter"
    assert np.all(np.isfinite(res.z))


@pytest.mark.parametrize("field", ["feastol", "gaptol"])
@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, math.inf, "1e-8", None, True])
def test_tolerance_must_be_finite_and_positive(field, value):
    # a NaN or non-positive tolerance can never be met, so the solve would
    # run to the iteration cap; one that is not a real number cannot be compared
    with pytest.raises(InvalidInput, match=field):
        SolveOptions(**{field: value})
    assert conesolver.solve(norm_program(), SolveOptions(**{field: 1e-6})).status == "Optimal"
