"""Acceptance suite: one test per criterion, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import socqp
from socqp import (
    chebyshev,
    conesolver,
    model,
    oracle,
    recover,
    reformulate,
)
from socqp.conesolver import ConeProgram, SocBlock
from socqp.linalg import SymMatrix
from socqp.model import BallIntersection, Bound, UqInstance

from helpers import (
    grid_opt,
    oracle_step,
    random_convex_uq,
    random_gap_uq,
    random_uq,
    trs_secular,
)


def _report(num, name, started, detail=""):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num} [{name}]: PASS ({elapsed:.2f}s{detail})")


def test_criterion_1_example_golden():
    started = time.perf_counter()
    inst = UqInstance(
        1,
        SymMatrix.identity(1),
        np.array([[0.0], [1.0], [-1.0]]),
        np.zeros(3),
        [Bound(1.0, 3.0), Bound(-1.0, 3.0)],
    )
    g = oracle.grid_max_uq(inst, h=1e-4)
    assert g.value == pytest.approx(1.0, abs=2e-4)
    prog, meta = reformulate.build_socp_uq(inst)
    res = conesolver.solve(prog)
    assert res.status == "Optimal"
    assert meta.original_value(res) == pytest.approx(3.0, abs=1e-6)
    assert reformulate.check_as3(inst).holds is False
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "1-D golden instance", started, f", v_U=1, v_S=3, gap instance")


def test_criterion_2_exactness_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(20260809)
    count = 0
    worst_value_err = 0.0
    while count < 200:
        n = int(rng.integers(2, 4))
        p = int(rng.integers(1, n))
        inst = random_uq(
            rng, n, p, two_sided_prob=0.35, b_scale=0.35, anchor_scale=0.3
        )
        prog, meta = reformulate.build_socp_uq(inst)
        res = conesolver.solve(prog)
        assert res.status == "Optimal"
        v = meta.original_value(res)
        assert reformulate.check_as3(inst).holds
        x, trace = recover.tighten_uq(inst, res)
        assert inst.is_feasible(x, 1e-6)
        fx = inst.values(x)[0]
        assert abs(fx - v) <= 1e-5 * (1.0 + abs(v))
        gap = float(res.z[n]) - inst.q.quad(x)
        assert abs(gap) <= 1e-6 * (1.0 + abs(res.z[n]))
        g = oracle.grid_max_uq(inst, h=oracle_step(inst), refine=3)
        worst_value_err = max(worst_value_err, abs(g.value - v))
        assert abs(g.value - v) <= 2e-3
        count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(2, "exactness suite 200x", started, f", worst |v-oracle|={worst_value_err:.1e}")


def test_criterion_3_ratio_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(314159)
    worst_margin = math.inf
    rounded = 0
    for trial in range(200):
        n = int(rng.integers(2, 11))
        p = n + 2 + int(rng.integers(0, 5))
        if trial % 2 == 0:
            inst = random_convex_uq(rng, n, p, b_scale=float(rng.uniform(0.2, 0.8)))
        else:
            # opposed-pair geometry keeps the cone gap open so the rounding
            # construction (not just the tight-case shortcut) is exercised
            inst = random_gap_uq(rng, min(n, 3), min(n, 3) + 2 + int(rng.integers(0, 5)))
        x, trace, cert = recover.approx_uq(inst)
        assert inst.worst_violation(x) <= 1e-6
        scale = 1.0 + abs(cert.upper)
        margin = cert.lower - cert.guaranteed_ratio * cert.upper
        assert margin >= -1e-5 * scale
        worst_margin = min(worst_margin, margin / scale)
        assert 0.0 <= trace.tau_bar <= 1.0
        assert trace.t1**2 + trace.t2**2 == pytest.approx(1.0, abs=1e-12)
        rounded += not trace.shortcut
    assert rounded >= 50  # the selection/identity assertions ran at scale
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(
        3,
        "approximation ratio suite 200x",
        started,
        f", min margin={worst_margin:.2e}, {rounded} rounded",
    )


def test_criterion_4_strong_duality_certificate():
    started = time.perf_counter()
    rng = np.random.default_rng(271828)
    checked = 0
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, n + 3))
        inst = random_uq(
            rng, n, p, two_sided_prob=0.3, b_scale=0.4, anchor_scale=0.25
        )
        prog, meta = reformulate.build_socp_uq(inst)
        res = conesolver.solve(prog)
        if res.status != "Optimal":
            continue
        rep = reformulate.certify_strong_duality(inst, res)
        assert rep.holds, rep
        worst = max(worst, abs(rep.gap) / (1.0 + abs(rep.relaxation_value)))
        checked += 1
    assert checked >= 95
    _report(4, "strong-duality certificate", started, f", {checked} solves, worst gap={worst:.1e}")


def test_criterion_5_chebyshev_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(57721)
    # (a) p <= n: relaxation value matches the double-grid oracle
    for _ in range(8):
        balls = BallIntersection(
            2, rng.normal(size=(2, 2)) * 0.5, rng.uniform(1.0, 1.5, size=2)
        )
        if chebyshev.gamma_balls(balls) >= 0.95:
            continue
        _, _, v_dcc = chebyshev.beck_center(balls)
        g = oracle.grid_minmax_cc(balls, h=2e-3)
        assert abs(v_dcc - g.value) <= 5e-3
    # (b) p > n: full certificate chain and the closed-form gamma bound
    done = 0
    while done < 12:
        p = int(rng.integers(4, 7))
        balls = BallIntersection(
            2, rng.normal(size=(p, 2)) * 0.45, rng.uniform(1.0, 1.6, size=p)
        )
        if chebyshev.gamma_balls(balls) >= 0.95:
            continue
        r = chebyshev.chebyshev_certified(balls)
        scale = 1.0 + abs(r.v_dcc)
        lo, hi = r.attained
        assert r.guaranteed_ratio * r.v_dcc - 1e-4 * scale <= lo
        assert lo <= hi + 1e-4 * scale
        assert hi <= r.v_dcc + 1e-4 * scale
        assert r.gamma <= r.gamma_upper + 1e-9
        done += 1
    # (c) translation invariance
    for _ in range(3):
        p = int(rng.integers(3, 6))
        balls = BallIntersection(
            2, rng.normal(size=(p, 2)) * 0.4, rng.uniform(1.0, 1.5, size=p)
        )
        if chebyshev.gamma_balls(balls) >= 0.9:
            continue
        shift = rng.normal(size=2) * 2.0
        moved = BallIntersection(2, balls.centers + shift, balls.radii)
        r0 = chebyshev.chebyshev_certified(balls)
        r1 = chebyshev.chebyshev_certified(moved)
        assert np.abs(r1.center - shift - r0.center).max() <= 1e-7
        assert abs(r1.v_dcc - r0.v_dcc) <= 1e-7
        assert abs(r1.gamma - r0.gamma) <= 1e-7
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(5, "Chebyshev suite", started)


def test_criterion_6_special_case_builders():
    started = time.perf_counter()
    rng = np.random.default_rng(16180)
    # trust region, incl. hard-case geometry
    cases = [
        (np.diag([-1.0, -1.0, 0.0]), np.array([0.0, 0.0, 0.01])),  # hard case
        (np.diag([-1.0, -1.0, 0.0]), np.zeros(3)),  # pure eigen hard case
    ]
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        cases.append((0.5 * (a + a.T), rng.normal(size=n) * rng.uniform(0.0, 1.0)))
    for a, b in cases:
        inst = reformulate.build_trs(SymMatrix.from_dense(a), b)
        prog, meta = reformulate.build_cr(inst)
        res = conesolver.solve(prog)
        assert res.status == "Optimal"
        expect, _ = trs_secular(a, b)
        assert meta.original_value(res) == pytest.approx(expect, abs=1e-6)

    # extended trust region with certified condition vs grid
    for _ in range(3):
        n = 3
        qmat, _ = np.linalg.qr(rng.normal(size=(n, n)))
        w = np.array([-1.0, -1.0, rng.uniform(0.5, 2.0)])
        a = (qmat * w) @ qmat.T
        b1 = qmat[:, 2] * rng.normal()
        x0 = rng.normal(size=n) * 0.2
        u = rng.uniform(0.6, 1.4)
        a_vec = rng.normal(size=n) * 0.4
        inst = reformulate.build_etrs(SymMatrix.from_dense(a), a_vec, x0, u, [(b1, 0.3)])
        prog, meta = reformulate.build_cr(inst)
        assert reformulate.check_condition_c(inst, meta.lifted).holds
        res = conesolver.solve(prog)
        value = meta.original_value(res)

        def f(pts):
            return np.einsum("pi,ij,pj->p", pts, a, pts) + pts @ a_vec

        def feas(pts):
            return (np.sum((pts - x0) ** 2, axis=1) <= u) & (pts @ b1 <= 0.3)

        radius = math.sqrt(u)
        vg, _ = grid_opt(f, feas, (x0 - radius, x0 + radius), radius / 40.0, "min")
        assert value == pytest.approx(vg, abs=2e-3)

    # weighted dispersion with rank condition vs grid
    for _ in range(3):
        delta = rng.uniform(0.2, 0.6)
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        points = np.vstack([delta * direction, -delta * direction])
        wts = rng.uniform(0.5, 2.0, size=2)
        inst = reformulate.build_wd(np.zeros(2), 1.0, points, wts)
        prog, meta = reformulate.build_cr(inst)
        assert reformulate.check_condition_c(inst, meta.lifted).holds
        res = conesolver.solve(prog)
        value = reformulate.wd_units(np.zeros(2), 1.0, points, wts)[1] * meta.original_value(res)

        def f(pts):
            return np.minimum(
                wts[0] * np.sum((pts - points[0]) ** 2, axis=1),
                wts[1] * np.sum((pts - points[1]) ** 2, axis=1),
            )

        def feas(pts):
            return np.sum(pts**2, axis=1) <= 1.0

        vg, _ = grid_opt(f, feas, (np.full(2, -1.0), np.full(2, 1.0)), 0.02, "max")
        assert value == pytest.approx(vg, abs=2e-3)

    # two-sided ball band
    for _ in range(3):
        n = int(rng.integers(2, 4))
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        b = rng.normal(size=n) * 0.5
        alpha, beta = 0.3, 1.8
        prog, meta = reformulate.build_cr2(
            reformulate.build_ttrs(SymMatrix.from_dense(a), b, alpha, beta)
        )
        res = conesolver.solve(prog)
        value = meta.original_value(res)

        def f(pts):
            return 0.5 * np.einsum("pi,ij,pj->p", pts, a, pts) + pts @ b

        def feas(pts):
            nrm = np.sum(pts**2, axis=1)
            return (nrm >= alpha) & (nrm <= beta)

        r = math.sqrt(beta)
        vg, _ = grid_opt(f, feas, (np.full(n, -r), np.full(n, r)), r / 40.0, "min")
        assert value == pytest.approx(vg, abs=2e-3)

    # trust-region variant with inside/outside balls and a polytope row
    for _ in range(3):
        n = 2
        diag = np.array([rng.uniform(0.5, 1.5), -1.0])
        a = np.diag(diag)
        cvec = np.array([rng.normal() * 0.3, 0.0])
        mu_in = np.array([rng.normal() * 0.2, 0.0])
        r_in = rng.uniform(1.0, 1.5)
        mu_out = np.array([rng.normal() * 0.1, 0.0])
        r_out = rng.uniform(0.2, 0.5)
        poly = [(np.array([1.0, 0.0]), rng.uniform(0.3, 1.0))]
        inst = reformulate.build_vtrs(
            SymMatrix.from_dense(a),
            cvec,
            balls_in=[(mu_in, r_in)],
            balls_out=[(mu_out, r_out)],
            poly_rows=poly,
        )
        prog, meta = reformulate.build_cr2(inst)
        assert reformulate.check_condition_c(inst, meta.lifted).holds
        res = conesolver.solve(prog)
        value = meta.original_value(res)

        def f(pts):
            return np.einsum("pi,ij,pj->p", pts, a, pts) + pts @ cvec

        def feas(pts):
            ok = np.sum((pts - mu_in) ** 2, axis=1) <= r_in**2
            ok &= np.sum((pts - mu_out) ** 2, axis=1) >= r_out**2
            ok &= pts @ poly[0][0] <= poly[0][1]
            return ok

        vg, _ = grid_opt(f, feas, (mu_in - r_in, mu_in + r_in), r_in / 50.0, "min")
        assert value == pytest.approx(vg, abs=2e-3)
    _report(6, "special-case builders vs oracles", started)


def test_criterion_7_ilp_reduction():
    started = time.perf_counter()
    rng = np.random.default_rng(48612)
    for trial in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 4))
        c = rng.integers(-4, 5, size=n).astype(float)
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        rhs = rng.integers(0, 6, size=m).astype(float)
        inst = model.ilp_to_uq(c, a, rhs)
        # enumerate the ILP directly
        best = -math.inf
        for bits in range(1 << n):
            x = np.array([(bits >> k) & 1 for k in range(n)], dtype=float)
            if m == 0 or np.all(a @ x <= rhs):
                best = max(best, float(c @ x))
        value, _ = oracle.binary_max_uq(inst)
        assert value == best, trial  # exact integer arithmetic
    _report(7, "ILP reduction 20x", started)


def _fixed_corpus():
    programs = []
    # structured members
    gap1d = UqInstance(
        1,
        SymMatrix.identity(1),
        np.array([[0.0], [1.0], [-1.0]]),
        np.zeros(3),
        [Bound(1.0, 3.0), Bound(-1.0, 3.0)],
    )
    programs.append(reformulate.build_socp_uq(gap1d)[0])
    ball = UqInstance(
        3,
        SymMatrix.identity(3),
        np.zeros((2, 3)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    programs.append(reformulate.build_socp_uq(ball)[0])
    programs.append(
        ConeProgram(
            c=np.array([0.0, 0.0, 1.0]),
            e=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            f=np.array([3.0, 4.0]),
            soc=[
                SocBlock(
                    np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                    np.zeros(2),
                    np.array([0.0, 0.0, 1.0]),
                    0.0,
                )
            ],
        )
    )
    programs.append(
        reformulate.build_cr2(
            reformulate.build_ttrs(
                SymMatrix.from_dense(np.diag([-1.0, 0.5])), np.array([0.1, -0.2]), 0.5, 2.0
            )
        )[0]
    )
    rng = np.random.default_rng(8)
    while len(programs) < 30:
        n = int(rng.integers(3, 8))
        z0 = rng.normal(size=n)
        c = rng.normal(size=n)
        g = np.vstack([rng.normal(size=(3, n)), np.eye(n), -np.eye(n)])
        h = np.concatenate(
            [g[:3] @ z0 + np.abs(rng.normal(size=3)) + 0.1, np.full(2 * n, 8.0)]
        )
        soc = []
        for _ in range(int(rng.integers(1, 3))):
            a = rng.normal(size=(int(rng.integers(1, 4)), n))
            b = rng.normal(size=a.shape[0]) * 0.5
            ck = rng.normal(size=n) * 0.3
            d = float(np.linalg.norm(a @ z0 + b) - ck @ z0 + rng.uniform(0.2, 1.0))
            soc.append(SocBlock(a, b, ck, d))
        e = rng.normal(size=(1, n))
        f = e @ z0
        programs.append(ConeProgram(c=c, g=g, h=h, e=e, f=f, soc=soc))
    return programs


def test_criterion_8_solver_regression():
    started = time.perf_counter()
    corpus = _fixed_corpus()
    assert len(corpus) == 30
    for k, prog in enumerate(corpus):
        r1 = conesolver.solve(prog)
        r2 = conesolver.solve(prog)
        assert r1.status == "Optimal", k
        scale = 1.0 + abs(r1.objective)
        assert r1.pres <= 1e-7, (k, r1.pres)
        assert r1.dres <= 1e-7, (k, r1.dres)
        assert r1.gap <= 1e-7 * scale, (k, r1.gap)
        # determinism: bit-identical across the two runs
        assert r1.iterations == r2.iterations, k
        assert np.array_equal(r1.z, r2.z), k
        assert np.array_equal(r1.lam_lin, r2.lam_lin), k
        assert np.array_equal(r1.y, r2.y), k
    _report(8, "solver regression corpus 30x", started)


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    """Every demo runs to completion on the public API."""
    src = str(Path(socqp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=demo.parent.parent, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
