import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socqp import conesolver, linalg, model, pipeline, recover, reformulate
from socqp.errors import InvalidBounds, InvalidMultiplier, WrongShape
from socqp.linalg import SymMatrix
from socqp.model import Bound, QcqpInstance, UqInstance

from helpers import grid_opt, random_pd_matrix, random_uq, trs_secular


def solve_value(prog, meta):
    res = conesolver.solve(prog)
    assert res.status == "Optimal", res.status
    return meta.original_value(res), res


# ---------------------------------------------------------------------------
# uniform relaxation
# ---------------------------------------------------------------------------


def test_build_socp_uq_single_ball():
    inst = UqInstance(
        2,
        SymMatrix.identity(2),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    prog, meta = reformulate.build_socp_uq(inst)
    value, res = solve_value(prog, meta)
    assert value == pytest.approx(1.0, abs=1e-7)
    assert res.z[meta.t_index[0]] == pytest.approx(1.0, abs=1e-6)


def test_build_socp_uq_rejects_indefinite():
    inst = UqInstance(
        2,
        SymMatrix.from_dense(np.diag([1.0, -1.0])),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    with pytest.raises(WrongShape):
        reformulate.build_socp_uq(inst)


def test_relaxation_soundness_uq():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        inst = random_uq(rng, n, int(rng.integers(1, 4)), two_sided_prob=0.3)
        prog, meta = reformulate.build_socp_uq(inst)
        x = rng.normal(size=n) * 0.3
        if not inst.is_feasible(x, tol=0.0):
            continue
        z = np.concatenate([x, [inst.q.quad(x)]])
        assert prog.violation(z) <= 1e-9
        assert -prog.value(z) == pytest.approx(inst.values(x)[0], abs=1e-9)
        assert np.array_equal(meta.x_of(z), x)


def test_check_as3_examples():
    gap1d = UqInstance(
        1,
        SymMatrix.identity(1),
        np.array([[0.0], [1.0], [-1.0]]),
        np.zeros(3),
        [Bound(1.0, 3.0), Bound(-1.0, 3.0)],
    )
    assert not reformulate.check_as3(gap1d).holds
    rng = np.random.default_rng(1)
    full = random_uq(rng, 3, 3)
    assert reformulate.check_as3(full).holds  # p = n clause
    over = random_uq(rng, 4, 5, b_scale=1.0)
    cert = reformulate.check_as3(over)
    assert cert.holds == (cert.rank <= 3)
    assert cert.rank == np.linalg.matrix_rank(over.b[1:], tol=1e-8)


def test_check_as3_p_equals_n_needs_positive_definite_q():
    # diag(1e-3, -5e-9) with data of scale 1 has N(Q) = span{e2} at the
    # default tolerance, so it is not positive definite: with p = n and
    # full-rank rows it is not exact, as condition C on the one-block view says
    inst = UqInstance(
        2,
        SymMatrix.from_dense(np.diag([1e-3, -5e-9])),
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.zeros(3),
        [Bound(-1.0, 1.0)] * 2,
    )
    cert = reformulate.check_as3(inst)
    view = reformulate.check_condition_c(model.uq_as_qcqp(inst), (0,))
    assert (cert.holds, cert.rank) == (view.holds, view.dims[0]) == (False, 2)
    assert "not positive definite" in cert.reason


def test_check_as3_counts_the_null_space_of_q():
    # Q = diag(1, 0): N(Q) = span{e2} joins the rows, so one row along e2
    # keeps the rank at 1 and one along e1 lifts it to n = 2
    q = SymMatrix.from_dense(np.diag([1.0, 0.0]))
    for row, holds in (([0.0, 1.0], True), ([1.0, 0.0], False)):
        inst = UqInstance(2, q, np.array([[0.0, 0.0], row]), np.zeros(2), [Bound(-1.0, 1.0)])
        cert = reformulate.check_as3(inst)
        assert cert.holds is holds and cert.rank == (1 if holds else 2)


# ---------------------------------------------------------------------------
# strong duality of the uniform relaxation
# ---------------------------------------------------------------------------


def test_dual_value_singular_q():
    # max x1^2 + x1 s.t. x1^2 <= 1 with Q = diag(1, 0): at lam = 2 the
    # Lagrangian -x1^2 + x1 + 2 peaks at 2.25; an objective term along
    # N(Q) = span{e2} makes the inner sup unbounded
    q = SymMatrix.from_dense(np.diag([1.0, 0.0]))
    inst = UqInstance(2, q, np.array([[0.5, 0.0], [0.0, 0.0]]), np.zeros(2), [Bound(-math.inf, 1.0)])
    assert reformulate.dual_value(inst, np.array([2.0])) == pytest.approx(2.25, rel=1e-15)
    tilted = UqInstance(2, q, np.array([[0.5, 0.1], [0.0, 0.0]]), np.zeros(2), [Bound(-math.inf, 1.0)])
    assert reformulate.dual_value(tilted, np.array([2.0])) == math.inf


def test_dual_value_matches_pseudo_inverse():
    rng = np.random.default_rng(12)
    for rank in (1, 2, 3, 4):
        basis, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        qd = (basis[:, :rank] * rng.uniform(0.5, 2.0, rank)) @ basis[:, :rank].T
        b_rows = rng.normal(size=(2, 4))
        lam = np.array([0.9, 0.7])
        beta = qd @ rng.normal(size=4)  # in the range of Q
        b0 = beta + lam @ b_rows
        inst = UqInstance(
            4, SymMatrix.from_dense(qd), np.vstack([b0, b_rows]), np.zeros(3),
            [Bound(-math.inf, 1.0)] * 2,
        )
        want = 1.6 + float(beta @ np.linalg.pinv(qd) @ beta) / 0.6  # kappa = sum(lam)
        assert reformulate.dual_value(inst, lam) == pytest.approx(want, rel=1e-12)


def _solved_uq(seed, p, two_sided_prob):
    inst = random_uq(np.random.default_rng(seed), 3, p, two_sided_prob=two_sided_prob)
    res = conesolver.solve(reformulate.build_socp_uq(inst)[0])
    assert res.status == "Optimal"
    return inst, res


def _dual_at(lam):
    return reformulate.dual_value(random_uq(np.random.default_rng(6), 3, 3), lam)


def _certify_with(change):
    """certify_strong_duality on a solved instance after ``change(inst, res)``."""
    return reformulate.certify_strong_duality(*change(*_solved_uq(7, 2, 0.5)))


def _other_layout(inst, res):
    _, other_res = _solved_uq(8, 4, 1.0)
    assert other_res.lam_lin.size != res.lam_lin.size
    return inst, other_res


def _capped(inst, res):
    prog, _ = reformulate.build_socp_uq(inst)
    return inst, conesolver.solve(prog, conesolver.SolveOptions(max_iter=1))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: _dual_at([np.nan, 1.0, 0.0]), "finite"),
        (lambda: _dual_at([1.0, np.inf, 0.0]), "finite"),
        (lambda: _dual_at([2.0, 0.0]), "expected 3 multipliers"),
        (lambda: _dual_at(np.ones(4)), "expected 3 multipliers"),
        (lambda: _certify_with(_other_layout), "layout"),
        (lambda: _certify_with(_capped), "Optimal solve"),
    ],
    ids=["nan", "inf", "too_few", "too_many", "other_layout", "not_optimal"],
)
def test_invalid_multipliers_are_rejected(call, match):
    with pytest.raises(InvalidMultiplier, match=match):
        call()


def test_engine_forwarder_matches_certificate():
    for seed, p, two_sided in ((7, 2, 0.5), (8, 4, 1.0), (9, 3, 0.0)):
        inst, res = _solved_uq(seed, p, two_sided)
        direct = reformulate.certify_strong_duality(inst, res)
        forwarded = conesolver.certify_strong_duality(inst, res)
        assert direct.holds and forwarded.holds
        assert (direct.gap, direct.relaxation_value, direct.dual_value) == (
            forwarded.gap, forwarded.relaxation_value, forwarded.dual_value
        )
        assert np.array_equal(direct.lam, forwarded.lam)
        assert direct.dual_value == reformulate.dual_value(inst, direct.lam)


# ---------------------------------------------------------------------------
# lifted sets and union conditions
# ---------------------------------------------------------------------------


def two_block_instance(signs, bounds=None, n=3, seed=0):
    rng = np.random.default_rng(seed)
    blocks = [random_pd_matrix(rng, n), SymMatrix.identity(n)]
    signs = np.asarray(signs, dtype=float)
    p = signs.shape[0] - 1
    b = rng.normal(size=(p + 1, n)) * 0.2
    c = np.zeros(p + 1)
    bounds = bounds or [Bound(-math.inf, 1.0)] * p
    return QcqpInstance(n, blocks, signs, b, c, bounds, sense="min")


def test_lift_sets_match_bruteforce_scan():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        signs = rng.integers(-1, 2, size=(p + 1, m)).astype(float)
        # scan directly on the sign matrix, independent of the library
        j_expect = {j for j in range(m) if any(signs[i, j] == -1 for i in range(p + 1))}
        k_expect = {
            j
            for j in range(m)
            if signs[0, j] == -1 or any(signs[i, j] != 0 for i in range(1, p + 1))
        }
        blocks = [SymMatrix.identity(2) for _ in range(m)]
        qi = QcqpInstance(
            2,
            blocks,
            signs,
            np.zeros((p + 1, 2)),
            np.zeros(p + 1),
            [Bound(-math.inf, 1.0)] * p,
        )
        assert set(reformulate.lift_set_onesided(qi)) == j_expect
        assert set(reformulate.lift_set_twosided(qi)) == k_expect


def test_condition_c_trs_shape_always_holds():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3))
    a = a + a.T - 4.0 * np.eye(3)  # definitely not PSD
    inst = reformulate.build_trs(SymMatrix.from_dense(a), rng.normal(size=3))
    j = reformulate.lift_set_onesided(inst)
    assert reformulate.check_condition_c(inst, j).holds


def test_condition_c_fails_when_span_fills():
    # single identity block (trivial null space) with spanning linear terms
    n = 2
    inst = QcqpInstance(
        n,
        [SymMatrix.identity(n)],
        np.array([[-1.0], [1.0], [1.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.zeros(3),
        [Bound(-math.inf, 1.0)] * 2,
        sense="min",
    )
    cert = reformulate.check_condition_c(inst, reformulate.lift_set_onesided(inst))
    assert not cert.holds
    assert cert.dims[0] == n


def test_condition_c_with_no_constraints():
    # p = 0: the rows b_1..b_p are empty, and so is the union of one
    # definite block
    inst = QcqpInstance(2, [SymMatrix.identity(2)], np.array([[1.0]]), np.array([[0.1, 0.2]]),
                        np.zeros(1), [], sense="max")
    cert = reformulate.check_condition_c(inst, (0,))
    assert cert.holds and cert.dims == {0: 0}


def test_condition_dims_match_stacked_rank():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = 4
        b1 = rng.normal(size=(n, 2))
        q1 = SymMatrix.from_dense(b1 @ b1.T)
        q2 = random_pd_matrix(rng, n)
        signs = np.array([[1.0, -1.0], [0.0, 1.0]])
        inst = QcqpInstance(
            n,
            [q1, q2],
            signs,
            rng.normal(size=(2, n)),
            np.zeros(2),
            [Bound(-math.inf, 1.0)],
            sense="min",
        )
        k = reformulate.lift_set_twosided(inst)
        cert = reformulate.check_condition_cc(inst, k)
        for j in k:
            cols = [inst.b[1]]
            cols += list(linalg.range_and_null(inst.blocks[j], inst.tol_rank)[1].T)
            for i in range(inst.m):
                if i != j:
                    cols += list(linalg.range_and_null(inst.blocks[i], inst.tol_rank)[0].T)
            assert cert.dims[j] == np.linalg.matrix_rank(
                np.column_stack(cols), tol=1e-8
            )


def orthogonal_blocks_instance(rng, n, m, p, two_sided):
    """Blocks with mutually orthogonal ranges spanning R^n and constraint
    terms kept off one vector of every range, so the exactness condition
    holds.  The last two blocks are convex (sign +1 or 0 everywhere): in the
    one-sided shape they enter rows too, giving several residual sets; in the
    two-sided shape they enter the objective only, so that they stay unlifted.
    Row 1 carries every other block with sign +1, which bounds the relaxation.
    """
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    blocks, free = [], []
    for idx in np.array_split(np.arange(n), m):
        u = basis[:, idx]
        blocks.append(SymMatrix.from_dense((u * rng.uniform(0.5, 2.0, idx.size)) @ u.T))
        free.append(u[:, 0])
    f = np.column_stack(free)
    a = np.ones((p + 1, m))
    for j in range(m):
        convex = j >= m - 2
        a[0, j] = 1.0 if convex or j % 2 else -1.0
        for i in range(1, p + 1):
            if convex:
                a[i, j] = 0.0 if two_sided else float(i == 1 or (i + j) % 2 == 0)
            elif i > 1:
                a[i, j] = (-1.0, 0.0, 1.0)[(i + j) % 3]
    b = rng.normal(size=(p + 1, n)) * 0.3
    b[1:] = b[1:] @ (np.eye(n) - f @ f.T)
    bounds = [Bound(-math.inf, 1.5)] + [
        Bound(-0.5 if two_sided else -math.inf, 1.0) for _ in range(p - 1)
    ]
    return QcqpInstance(n, blocks, a, b, np.zeros(p + 1), bounds)


@pytest.mark.parametrize("two_sided", [False, True])
def test_structured_certificate_and_recovery_read_one_rank(two_sided):
    # the union dimension that certifies and the null space that recovery
    # moves in come from one rank rule, so they always add up to n
    rng = np.random.default_rng(13)
    for n, m, p in ((6, 3, 2), (9, 4, 4), (12, 6, 3), (16, 8, 5)):
        inst = orthogonal_blocks_instance(rng, n, m, p, two_sided)
        lift = reformulate.lift_set_twosided if two_sided else reformulate.lift_set_onesided
        lifted = lift(inst)
        assert lifted
        dims = reformulate.check_condition_c(inst, lifted).dims
        for j, rows in reformulate.union_rows(inst, lifted).items():
            null = linalg.null_space_of_rows(rows, n, inst.tol_rank)
            assert dims[j] == n - null.shape[1]


def test_uniform_certificate_and_recovery_read_one_rank():
    rng = np.random.default_rng(14)
    for n, p, r in ((3, 2, 2), (4, 4, 4), (5, 7, 5), (6, 4, 2), (6, 9, 3)):
        inst = random_uq(rng, n, p)
        inst.b[1:] = rng.normal(size=(p, r)) @ rng.normal(size=(r, n))  # rank r
        null = linalg.null_space_of_rows(inst.b[1:], n, inst.tol_rank)
        assert reformulate.check_as3(inst).rank == n - null.shape[1] == r


def _program_arrays(prog):
    arrays = [prog.c, prog.g, prog.h]
    for blk in prog.soc:
        arrays += [blk.a, blk.b, blk.c, np.asarray(blk.d)]
    return arrays


@pytest.mark.parametrize("two_sided", [False, True])
def test_each_block_is_decomposed_once(monkeypatch, two_sided):
    inst = orthogonal_blocks_instance(np.random.default_rng(11), 20, 10, 6, two_sided)
    if two_sided:
        build, lifted, check = (
            reformulate.build_cr2, reformulate.lift_set_twosided(inst),
            reformulate.check_condition_cc,
        )
        rows = [0]
    else:
        build, lifted, check = (
            reformulate.build_cr, reformulate.lift_set_onesided(inst),
            reformulate.check_condition_c,
        )
        rows = range(inst.p + 1)
    residual_sets = {
        tuple(j for j in range(inst.m) if j not in lifted and inst.a[i, j] == 1.0)
        for i in rows
    }
    # a residual of one block reuses that block's decomposition, so only the
    # residuals summing several blocks may decompose anything
    summed = [key for key in residual_sets if len(key) > 1]
    assert summed
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    prog, meta = build(inst)
    cert = check(inst, lifted)
    assert cert.holds
    res = conesolver.solve(prog)
    assert res.status == "Optimal"
    x, _ = recover.tighten_qcqp(inst, res, meta)
    assert len(calls) <= len(summed)
    for j in meta.lifted:
        assert inst.blocks[j].quad(x) == pytest.approx(res.z[meta.t_index[j]], abs=1e-6)


@pytest.mark.parametrize("two_sided", [False, True])
def test_programs_and_reports_do_not_depend_on_the_cache(monkeypatch, two_sided):
    def build_all():
        inst = orthogonal_blocks_instance(np.random.default_rng(12), 14, 6, 5, two_sided)
        if two_sided:
            lifted = reformulate.lift_set_twosided(inst)
            cert = reformulate.check_condition_cc(inst, lifted)
            return reformulate.build_cr2(inst)[0], cert
        lifted = reformulate.lift_set_onesided(inst)
        return reformulate.build_cr(inst)[0], reformulate.check_condition_c(inst, lifted)

    warm_prog, warm_cert = build_all()

    def uncached_sym_eig(m):
        # the same eigh call on the same matrix, made afresh every time
        w, v = np.linalg.eigh(m.dense())
        return w[::-1].copy(), v[:, ::-1].copy()

    monkeypatch.setattr(linalg, "sym_eig", uncached_sym_eig)
    cold_prog, cold_cert = build_all()
    assert warm_cert == cold_cert
    warm, cold = _program_arrays(warm_prog), _program_arrays(cold_prog)
    assert len(warm) == len(cold)
    assert all(np.array_equal(u, v) for u, v in zip(warm, cold))


def _reference_program(inst, lifted, epi):
    """The lifted program assembled one constraint at a time: the c, G, h,
    row map and constraint cones that the builders assemble with arrays."""
    n = inst.n
    t_index = {j: n + k for k, j in enumerate(lifted)}
    nv = n + len(lifted) + (epi is not None)

    def expr(i):
        g = np.zeros(nv)
        g[:n] = 2.0 * inst.b[i]
        for j in lifted:
            g[t_index[j]] = inst.a[i, j]
        return g

    def residual(i):
        acc = np.zeros((n, n))
        for j in range(inst.m):
            if j not in lifted and inst.a[i, j] == 1.0:
                acc += inst.blocks[j].dense()
        return acc

    c = expr(0)
    if epi is not None:
        c[epi] = 1.0
    rows, rhs, row_map, cones = [], [], [], []
    for i, bd in enumerate(inst.bounds):
        if bd.has_upper and np.abs(residual(i + 1)).max() > 0.0:
            cones.append((i, -expr(i + 1), bd.upper - inst.c[i + 1]))
            row_map.append((None, None))
            continue
        up = low = None
        if bd.has_upper:
            up = len(rows)
            rows.append(expr(i + 1))
            rhs.append(bd.upper - inst.c[i + 1])
        if bd.has_lower:
            low = len(rows)
            rows.append(-expr(i + 1))
            rhs.append(inst.c[i + 1] - bd.lower)
        row_map.append((up, low))
    g = np.vstack(rows) if rows else np.zeros((0, nv))
    return c, g, np.asarray(rhs, dtype=float), row_map, cones


@pytest.mark.parametrize("two_sided", [False, True])
def test_assembled_rows_match_per_row_reference(two_sided):
    # random signs (zero blocks and empty lifted sets included) and bounds;
    # the array assembly does the same arithmetic, so results are bit-equal
    rng = np.random.default_rng(31 + two_sided)
    for trial in range(30):
        n, m, p = int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
        blocks = []
        for _ in range(m):
            u = rng.normal(size=(n, int(rng.integers(1, n + 1))))
            blocks.append(SymMatrix.from_dense(u @ u.T * (rng.random() > 0.15)))
        bounds = [
            Bound(
                -rng.uniform(0.1, 2.0) if two_sided and rng.random() < 0.6 else -math.inf,
                rng.uniform(0.1, 2.0) if rng.random() < 0.8 else math.inf,
            )
            for _ in range(p)
        ]
        inst = QcqpInstance(
            n, blocks, rng.integers(-1, 2, size=(p + 1, m)).astype(float),
            rng.normal(size=(p + 1, n)), rng.normal(size=p + 1), bounds,
        )
        build = reformulate.build_cr2 if two_sided else reformulate.build_cr
        prog, meta = build(inst)
        c, g, h, row_map, cones = _reference_program(inst, meta.lifted, meta.epi_index)
        assert np.array_equal(prog.c, c), trial
        assert np.array_equal(prog.g, g) and np.array_equal(prog.h, h), trial
        assert meta.row_map == row_map, trial
        first = len(meta.lifted) + (meta.epi_index is not None)
        assert len(prog.soc) == first + len(cones), trial
        for blk, (i, w_vec, limit) in zip(prog.soc[first:], cones):
            assert np.array_equal(blk.a[-1], 0.5 * w_vec) and np.array_equal(blk.c, 0.5 * w_vec)
            assert blk.d == 0.5 * (limit + 1.0), (trial, i)


def test_cones_have_the_rank_of_their_block():
    # lifted blocks 0 (zero) and 1 (rank 1); residuals Q2 (objective), Q3
    # (row 1) and Q2 + Q3 (row 2): each cone has rank + 2 rows, and its
    # factor reproduces the quadratic form
    rng = np.random.default_rng(17)
    n = 5
    dense = [np.zeros((n, n))]
    for rank in (1, 3, 2):
        u = rng.normal(size=(n, rank))
        dense.append(u @ u.T)
    inst = QcqpInstance(
        n, [SymMatrix.from_dense(q) for q in dense],
        np.array([[-1.0, -1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]]),
        rng.normal(size=(3, n)), np.zeros(3), [Bound(-math.inf, 1.0)] * 2,
    )
    prog, meta = reformulate.build_cr(inst)
    assert meta.lifted == (0, 1) and meta.epi_index is not None
    forms = [dense[0], dense[1], dense[2], dense[3], dense[2] + dense[3]]
    assert len(prog.soc) == len(forms)
    for blk, q in zip(prog.soc, forms):
        assert blk.dim == np.linalg.matrix_rank(q) + 2
        f = blk.a[:-1, :n]
        for x in rng.normal(size=(4, n)):
            assert np.sum((f @ x) ** 2) == pytest.approx(x @ q @ x, rel=1e-12, abs=1e-300)


def test_condition_invariant_under_rotation():
    rng = np.random.default_rng(5)
    n = 3
    base = two_block_instance(np.array([[1.0, -1.0], [0.0, 1.0]]), n=n, seed=7)
    j = reformulate.lift_set_onesided(base)
    cert0 = reformulate.check_condition_c(base, j)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    rotated = QcqpInstance(
        n,
        [SymMatrix.from_dense(u @ blk.dense() @ u.T) for blk in base.blocks],
        base.a,
        base.b @ u.T,
        base.c,
        list(base.bounds),
        sense="min",
    )
    cert1 = reformulate.check_condition_c(rotated, j)
    assert cert0.holds == cert1.holds
    assert cert0.dims == cert1.dims


# ---------------------------------------------------------------------------
# one cut, against the instance's own scale
# ---------------------------------------------------------------------------


def _transformed(inst, s=1.0, u=None):
    """The instance in coordinates x = u y with every data entry times s (the
    signs and the sense of a structured instance kept)."""
    u = np.eye(inst.n) if u is None else u

    def mat(m):
        return SymMatrix.from_dense(s * (u.T @ m.dense() @ u))

    bounds = [Bound(s * bd.lower, s * bd.upper) for bd in inst.bounds]
    if isinstance(inst, UqInstance):
        return UqInstance(inst.n, mat(inst.q), s * inst.b @ u, s * inst.d, bounds)
    blocks = [mat(q) for q in inst.blocks]
    b, c = s * inst.b @ u, s * inst.c
    return QcqpInstance(inst.n, blocks, inst.a, b, c, bounds, sense=inst.sense)


def _verdict(inst):
    """Certificate (holds, rank, dims) and shape of the `solve_instance`
    report; the certificate is decided before the solve, so none is run."""
    report = pipeline.solve_instance(inst, conesolver.SolveOptions(max_iter=0))
    cert = report["certificate"]
    return cert["holds"], cert.get("rank"), cert.get("dims"), report.get("shape")


def _found_file():
    # Q = diag(1, 1, 0): N(Q) = span{e3} joins the rows b_1..b_3, rank 3
    b = np.array([[0.2, 0.1, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    return UqInstance(3, SymMatrix.from_dense(np.diag([1.0, 1.0, 0.0])), b, np.zeros(4),
                      [Bound(-1.0, 1.0)] * 3)


def _p_equals_n_file():
    q = SymMatrix.from_dense(np.array([[2.0, 0.3], [0.3, 1.0]]))
    b = np.array([[0.1, 0.2], [1.0, 0.0], [0.0, 1.0]])
    return UqInstance(2, q, b, np.zeros(3), [Bound(-math.inf, 1.0)] * 2)


def _rotated_trs():
    # A = -1.5 I in rotated coordinates: A - lam_min I is pure roundoff
    v, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(2, 2)))
    return reformulate.build_trs(SymMatrix.from_dense(v @ (-1.5 * np.eye(2)) @ v.T), [0.3, -0.2])


def _tiny_negative_eigenvalue():
    # diag(1e-3, -5e-9) in data of scale 1: -5e-9 is within the cut, so it
    # is a zero eigenvalue for every decision, sign and rank alike
    q = SymMatrix.from_dense(np.diag([1e-3, -5e-9]))
    return UqInstance(2, q, np.array([[0.5, 0.0], [0.5, 0.0]]), np.zeros(2), [Bound(-1.0, 1.0)])


_SCALE_CASES = {
    "found_file": (_found_file, (False, 3, None, "psd_singular")),
    "p_equals_n": (_p_equals_n_file, (True, 2, None, None)),
    "rotated_trs": (_rotated_trs, (True, None, {1: 0}, None)),
    "tiny_negative_eigenvalue": (_tiny_negative_eigenvalue, (False, 2, None, "psd_singular")),
}


@pytest.mark.parametrize("s", [1e-9, 1e-6, 1.0, 1e6])
@pytest.mark.parametrize("case", sorted(_SCALE_CASES))
def test_verdict_does_not_depend_on_the_data_scale(case, s):
    make, expected = _SCALE_CASES[case]
    inst = _transformed(make(), s)
    assert _verdict(inst) == expected
    if isinstance(inst, UqInstance):
        # the NotPsd test, the factor's rows and the range agree at every scale
        cut = inst.tol_rank * model.data_scale(inst)
        rows = linalg.psd_factor(inst.q, cut).shape[0]
        assert rows == linalg.range_and_null(inst.q, cut)[0].shape[1]


def test_the_found_file_at_large_scale_solves_without_nan_arithmetic():
    # at s = 1e6 an iterate reaches the cone boundary to machine precision;
    # the step length reads the J-norm through the scaling's guard, so the
    # solve stops there instead of computing on NaN (a RuntimeWarning fails
    # the test).  The status is left alone: the solver's stopping tests are
    # absolute, and at this scale they do not reach Optimal.
    prog, _ = reformulate.build_socp_uq(_transformed(_found_file(), 1e6))
    conesolver.solve(prog)


def test_a_zero_b_block_and_a_zero_reference_give_defined_verdicts():
    # the b_i are divided by their largest norm and the cut is taken against
    # data_scale: neither may divide by zero (a RuntimeWarning fails the
    # test) when the b block or the whole instance is zero
    zero_b = UqInstance(2, SymMatrix.identity(2), np.zeros((2, 2)), np.zeros(2),
                        [Bound(-math.inf, 1.0)])
    zero = UqInstance(2, SymMatrix.from_dense(np.zeros((2, 2))), np.zeros((2, 2)), np.zeros(2),
                      [Bound(-math.inf, 0.0)])
    assert model.data_scale(zero) == 0.0
    assert _verdict(zero_b) == (True, 0, None, None)
    assert _verdict(zero) == (False, 2, None, "psd_singular")
    assert reformulate.check_condition_c(model.uq_as_qcqp(zero), (0,)).dims == {0: 2}


def _random_instance(rng, kind):
    n = int(rng.integers(2, 5))
    if kind == "structured":
        m = int(rng.integers(2, n + 1))
        return orthogonal_blocks_instance(rng, n, m, int(rng.integers(2, 5)), bool(rng.integers(2)))
    p = int(rng.integers(1, n + 3))
    inst = random_uq(rng, n, p, two_sided_prob=0.5)
    if kind == "psd_singular":
        u, _ = np.linalg.qr(rng.normal(size=(n, n)))
        w = rng.uniform(0.5, 2.0, n)
        w[: int(rng.integers(1, n))] = 0.0
        inst.q = SymMatrix.from_dense((u * w) @ u.T)
    return inst


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["pd", "psd_singular", "structured"]),
    log_s=st.floats(-9.0, 9.0),
)
def test_verdict_is_invariant_under_scale_and_rotation(seed, kind, log_s):
    rng = np.random.default_rng(seed)
    inst = _random_instance(rng, kind)
    u, _ = np.linalg.qr(rng.normal(size=(inst.n, inst.n)))
    assert _verdict(_transformed(inst, 10.0**log_s, u)) == _verdict(inst)


# ---------------------------------------------------------------------------
# one- and two-sided relaxation builders
# ---------------------------------------------------------------------------


def test_build_cr_rejects_two_sided():
    inst = two_block_instance(
        np.array([[1.0, 0.0], [0.0, 1.0]]), bounds=[Bound(0.0, 1.0)]
    )
    with pytest.raises(WrongShape):
        reformulate.build_cr(inst)


def _sense_twins(bounds):
    """A min-sense instance and its max-sense twin, which maximises -g_0
    over the same rows (the pair of ``socqp solve``'s max-sense file test)."""
    blocks = [SymMatrix.from_dense(np.diag([1.0, 0.0])), SymMatrix.identity(2)]
    signs = np.array([[1.0, -1.0], [0.0, 1.0]])
    lin = np.array([[0.1, 0.0], [0.0, 0.0]])
    flip = np.array([[-1.0], [1.0]])
    low = QcqpInstance(2, blocks, signs, lin, np.array([0.2, 0.0]), bounds)
    high = QcqpInstance(
        2, blocks, signs * flip, lin * flip, np.array([-0.2, 0.0]), bounds, sense="max"
    )
    return low, high


@pytest.mark.parametrize("two_sided", [False, True])
def test_max_sense_twin_relaxes_as_its_min_sense_form(two_sided):
    low, high = _sense_twins([Bound(0.25 if two_sided else -math.inf, 1.0)])
    lift = reformulate.lift_set_twosided if two_sided else reformulate.lift_set_onesided
    assert lift(high) == lift(low) == (1,)
    assert reformulate.check_condition_c(high, lift(high)) == reformulate.check_condition_c(
        low, lift(low)
    )
    assert reformulate.check_condition_c(high, lift(high)).holds
    builders = [reformulate.build_cr2] if two_sided else [reformulate.build_cr, reformulate.build_cr2]
    for build in builders:
        (prog_lo, meta_lo), (prog_hi, meta_hi) = build(low), build(high)
        assert all(
            np.array_equal(u, v) for u, v in zip(_program_arrays(prog_hi), _program_arrays(prog_lo))
        )
        assert len(prog_hi.soc) == len(prog_lo.soc) and prog_hi.offset == prog_lo.offset
        assert (meta_lo.sense, meta_hi.sense) == ("min", "max")
        assert (meta_hi.lifted, meta_hi.t_index) == (meta_lo.lifted, meta_lo.t_index)
        res = conesolver.solve(prog_lo)
        assert res.status == "Optimal"
        assert meta_hi.original_value(res) == -meta_lo.original_value(res)
        x_lo, _ = recover.tighten_qcqp(low, res, meta_lo)
        x_hi, _ = recover.tighten_qcqp(high, res, meta_hi)
        assert np.array_equal(x_hi, x_lo)
        assert high.values(x_hi)[0] == pytest.approx(meta_hi.original_value(res), abs=1e-6)


@pytest.mark.parametrize("seed", range(3))
def test_views_of_a_uniform_instance_evaluate_its_functions(seed):
    # uq_as_qcqp and split_indefinite maximise g_0 = f_0, with g_i = f_i
    rng = np.random.default_rng(seed)
    n, p = 3, 4
    base = random_uq(rng, n, p, two_sided_prob=0.5)
    d = rng.normal(size=p + 1)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    indefinite = SymMatrix.from_dense((u * [1.5, -0.7, 0.4]) @ u.T)
    pd = UqInstance(n, base.q, base.b, d, base.bounds)
    indef = UqInstance(n, indefinite, base.b, d, base.bounds)
    for inst, view in (
        (pd, model.uq_as_qcqp(pd)),
        (indef, reformulate.split_indefinite(indef)),
    ):
        assert view.sense == "max"
        for x in rng.normal(size=(5, n)):
            for i in range(p + 1):
                assert view.values(x)[i] == pytest.approx(inst.values(x)[i], rel=1e-12)


def _eval_g_batch(inst, i, pts):
    """g_i at every row of pts at once; values point by point is the reference."""
    val = pts @ (2.0 * inst.b[i]) + inst.c[i]
    for j, q in enumerate(inst.blocks):
        if inst.a[i, j] != 0.0:
            val = val + inst.a[i, j] * np.vecdot(pts @ q.dense(), pts)
    return val


def _feasible_batch(inst, pts, tol):
    keep = np.ones(len(pts), dtype=bool)
    for i, bd in enumerate(inst.bounds):
        g = _eval_g_batch(inst, i + 1, pts)
        keep &= (g >= bd.lower - tol) & (g <= bd.upper + tol)
    return keep


def test_build_cr_convex_passthrough():
    # no -1 sign anywhere: nothing lifted, program solves the original
    rng = np.random.default_rng(6)
    inst = two_block_instance(np.array([[1.0, 0.0], [0.0, 1.0]]), seed=8)
    prog, meta = reformulate.build_cr(inst)
    assert meta.lifted == ()
    value, res = solve_value(prog, meta)
    x = meta.x_of(res.z)
    assert inst.values(x)[0] == pytest.approx(value, abs=1e-6)
    sample = rng.uniform(-1.5, 1.5, size=(300, 3))
    assert np.allclose(
        _eval_g_batch(inst, 0, sample),
        [inst.values(q)[0] for q in sample],
        rtol=0.0,
        atol=1e-12,
    )
    assert np.array_equal(
        _feasible_batch(inst, sample, 1e-9), [inst.is_feasible(q, 1e-9) for q in sample]
    )
    val_grid, _ = grid_opt(
        lambda pts: _eval_g_batch(inst, 0, pts),
        lambda pts: _feasible_batch(inst, pts, 1e-9),
        (np.full(3, -1.5), np.full(3, 1.5)),
        h=0.05,
        sense="min",
    )
    assert value <= val_grid + 1e-6


def test_build_cr_soundness_lifted_points():
    rng = np.random.default_rng(7)
    inst = two_block_instance(np.array([[1.0, -1.0], [0.0, 1.0]]), seed=9)
    prog, meta = reformulate.build_cr(inst)
    for _ in range(20):
        x = rng.normal(size=3) * 0.4
        if not inst.is_feasible(x, tol=0.0):
            continue
        z = np.zeros(prog.nvar)
        z[:3] = x
        for j in meta.lifted:
            z[meta.t_index[j]] = inst.blocks[j].quad(x)
        if meta.epi_index is not None:
            acc = sum(
                inst.blocks[j].quad(x)
                for j in range(inst.m)
                if j not in meta.lifted and inst.a[0, j] == 1.0
            )
            z[meta.epi_index] = acc
        assert prog.violation(z) <= 1e-9
        assert prog.value(z) == pytest.approx(inst.values(x)[0], abs=1e-9)


def test_build_trs_examples():
    # A = -I: optimum -1 with the lifted variable at the ball bound
    inst = reformulate.build_trs(SymMatrix.from_dense(-np.eye(2)), np.zeros(2))
    prog, meta = reformulate.build_cr(inst)
    value, res = solve_value(prog, meta)
    assert value == pytest.approx(-1.0, abs=1e-7)
    # A PSD passes through convex
    psd = reformulate.build_trs(SymMatrix.from_dense(np.eye(2)), np.array([1.0, 0.0]))
    assert reformulate.lift_set_onesided(psd) == ()


def test_build_trs_matches_secular_oracle():
    rng = np.random.default_rng(8)
    for trial in range(12):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        b = rng.normal(size=n) * rng.choice([0.0, 0.2, 1.0])
        inst = reformulate.build_trs(SymMatrix.from_dense(a), b)
        prog, meta = reformulate.build_cr(inst)
        value, _ = solve_value(prog, meta)
        expect, _ = trs_secular(a, b)
        assert value == pytest.approx(expect, abs=1e-6), trial


def test_build_cr_flags_unbounded_relaxation():
    # lone lifted block with no upper limit on t: relaxation unbounded below
    n = 2
    inst = QcqpInstance(
        n,
        [SymMatrix.identity(n)],
        np.array([[-1.0], [0.0]]),
        np.zeros((2, n)),
        np.zeros(2),
        [Bound(-math.inf, math.inf)],
        sense="min",
    )
    prog, _ = reformulate.build_cr(inst)
    assert conesolver.solve(prog).status == "Unbounded"


def test_build_etrs_reduces_to_trs():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 3))
    a = 0.5 * (a + a.T) - 2.0 * np.eye(3)
    b = rng.normal(size=3)
    trs = reformulate.build_trs(SymMatrix.from_dense(a), b)
    etr = reformulate.build_etrs(SymMatrix.from_dense(a), 2.0 * b, np.zeros(3), 1.0)
    for got, want in ((etr.a, trs.a), (etr.b, trs.b), (etr.c, trs.c)):
        assert np.array_equal(got, want)
    assert reformulate.check_condition_c(etr, reformulate.lift_set_onesided(etr)).holds
    v1, _ = solve_value(*reformulate.build_cr(trs))
    v2, _ = solve_value(*reformulate.build_cr(etr))
    assert v1 == pytest.approx(v2, abs=1e-7)


def test_build_etrs_condition_cases():
    # range of the shifted Hessian has dim 2; one in-range row keeps it
    a = np.diag([-1.0, -1.0, 2.0])
    row_in = (np.array([0.0, 0.0, 1.0]), 0.5)
    inst = reformulate.build_etrs(
        SymMatrix.from_dense(a), np.zeros(3), np.zeros(3), 1.0, [row_in]
    )
    assert reformulate.check_condition_c(inst, reformulate.lift_set_onesided(inst)).holds
    # two independent rows in R^2 exhaust the space
    a2 = np.diag([-1.0, 1.0])
    rows = [(np.array([1.0, 0.0]), 1.0), (np.array([0.0, 1.0]), 1.0)]
    inst2 = reformulate.build_etrs(
        SymMatrix.from_dense(a2), np.zeros(2), np.zeros(2), 1.0, rows
    )
    assert not reformulate.check_condition_c(inst2, reformulate.lift_set_onesided(inst2)).holds


def test_build_etrs_matches_grid():
    rng = np.random.default_rng(10)
    for trial in range(5):
        n = 3
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        w = np.array([-1.0, -1.0, rng.uniform(0.5, 2.0)])
        a = (q * w) @ q.T
        shifted_range = q[:, 2:]  # range of A - lam_min I is span{q3} + ...
        # rows inside range(A - lam_min I): combinations of eigvecs above lam_min
        b1 = q[:, 2] * rng.normal()
        x0 = rng.normal(size=n) * 0.2
        u = rng.uniform(0.5, 1.5)
        a_vec = rng.normal(size=n) * 0.4
        inst = reformulate.build_etrs(SymMatrix.from_dense(a), a_vec, x0, u, [(b1, 0.3)])
        prog, meta = reformulate.build_cr(inst)
        assert reformulate.check_condition_c(inst, meta.lifted).holds
        value, _ = solve_value(prog, meta)

        def f(pts):
            return np.einsum("pi,ij,pj->p", pts, a, pts) + pts @ a_vec

        def feas(pts):
            ok = np.sum((pts - x0) ** 2, axis=1) <= u
            ok &= pts @ b1 <= 0.3
            return ok

        radius = math.sqrt(u)
        box = (x0 - radius, x0 + radius)
        val_grid, _ = grid_opt(f, feas, box, h=radius / 40.0, sense="min")
        assert value == pytest.approx(val_grid, abs=2e-3), trial


def test_build_wd_single_point_at_center():
    args = np.zeros(2), 1.0, np.zeros((1, 2)), np.array([2.0])
    inst = reformulate.build_wd(*args)
    prog, meta = reformulate.build_cr(inst)
    rep = reformulate.check_condition_c(inst, meta.lifted)
    sigma, _ = solve_value(prog, meta)
    value = reformulate.wd_units(*args)[1] * sigma
    assert value == pytest.approx(2.0, abs=1e-7)  # w * r0^2
    assert rep.holds


def test_build_wd_symmetric_pair_matches_grid():
    delta = 0.4
    points = np.array([[delta, 0.0], [-delta, 0.0]])
    w = np.array([1.0, 1.0])
    inst = reformulate.build_wd(np.zeros(2), 1.0, points, w)
    prog, meta = reformulate.build_cr(inst)
    rep = reformulate.check_condition_c(inst, meta.lifted)
    assert rep.holds  # rank 1 <= n-1
    sigma, res = solve_value(prog, meta)
    value = reformulate.wd_units(np.zeros(2), 1.0, points, w)[1] * sigma

    def f(pts):
        d = [np.sum((pts - z) ** 2, axis=1) * wi for z, wi in zip(points, w)]
        return np.minimum(*d)

    def feas(pts):
        return np.sum(pts**2, axis=1) <= 1.0

    val_grid, _ = grid_opt(f, feas, (np.full(2, -1.0), np.full(2, 1.0)), 0.02, "max")
    assert value == pytest.approx(val_grid, abs=2e-3)


def test_build_wd_condition_fails_in_general_position():
    points = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.4]])
    inst = reformulate.build_wd(np.zeros(2), 1.0, points, np.ones(3))
    rep = reformulate.check_condition_c(inst, reformulate.lift_set_onesided(inst))
    assert not rep.holds


def _dispersion_cases():
    """The symmetric pair, then seeded instances whose points z_i - x0 span a
    subspace of dimension 1..n, so some pass the rank test and some do not."""
    yield np.zeros(2), 1.0, np.array([[0.4, 0.0], [-0.4, 0.0]]), np.ones(2)
    rng = np.random.default_rng(23)
    for _ in range(24):
        n, p = int(rng.integers(2, 5)), int(rng.integers(1, 6))
        x0 = rng.normal(size=n)
        basis = rng.normal(size=(int(rng.integers(1, n + 1)), n))
        points = x0 + 0.5 * rng.normal(size=(p, basis.shape[0])) @ basis
        yield x0, rng.uniform(0.5, 2.0), points, rng.uniform(0.5, 2.0, size=p)


def test_build_wd_recovers_a_point_at_the_relaxation_value():
    # x = x0 + R u of the tightened (u, sigma) lies in the ball, and its
    # dispersion min_i w_i ||x - z_i||^2 is the relaxation value S sigma
    certified = 0
    for k, (x0, r0, points, w) in enumerate(_dispersion_cases()):
        inst = reformulate.build_wd(x0, r0, points, w)
        prog, meta = reformulate.build_cr(inst)
        if not reformulate.check_condition_c(inst, meta.lifted).holds:
            continue
        certified += 1
        sigma, res = solve_value(prog, meta)
        length, unit = reformulate.wd_units(x0, r0, points, w)
        value = unit * sigma
        u, _ = recover.tighten_qcqp(inst, res, meta)
        x = x0 + length * u[:-1]
        assert np.linalg.norm(x - x0) <= r0 * (1.0 + 1e-9), k
        dispersion = min(wi * float((x - z) @ (x - z)) for z, wi in zip(points, w))
        assert dispersion == pytest.approx(value, rel=1e-6), k
    assert certified >= 15


def test_build_wd_verdict_and_value_do_not_move_with_the_units():
    # the verdict is rank[z_i - x0] <= n-1 at the points' own scale, and the
    # value scales as weight * length^2, for data in any units
    def solved(x0, r0, points, w):
        inst = reformulate.build_wd(x0, r0, points, w)
        prog, meta = reformulate.build_cr(inst)
        sigma, _ = solve_value(prog, meta)
        value = reformulate.wd_units(x0, r0, points, w)[1] * sigma
        return reformulate.check_condition_c(inst, meta.lifted).holds, value

    corner = 1e-3 * np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.4]])
    tiny = (np.zeros(2), 1.0, corner, np.full(3, 1e-6))
    wide = (np.zeros(2), 2e4, np.array([[8000.0, 0.0], [-8000.0, 0.0]]), np.ones(2))
    cases = [tiny, wide, *_dispersion_cases()]
    for k, (x0, r0, points, w) in enumerate(cases):
        holds, value = solved(x0, r0, points, w)
        assert holds == (linalg.numerical_rank(points - x0) <= x0.size - 1), k
        moved = solved(1e4 * x0, 1e4 * r0, 1e4 * points, 1e-6 * w)
        assert moved[0] == holds, k
        assert moved[1] == pytest.approx(1e2 * value, rel=1e-6), k


def test_build_ttrs_band_example():
    inst = reformulate.build_ttrs(SymMatrix.from_dense(-np.eye(2)), np.zeros(2), 1.0, 4.0)
    prog, meta = reformulate.build_cr2(inst)
    value, res = solve_value(prog, meta)
    assert value == pytest.approx(-2.0, abs=1e-7)
    # the lifted identity block s I carries s x'x, at the outer radius s * 4
    s = inst.blocks[1].dense()[0, 0]
    assert res.z[meta.t_index[1]] == pytest.approx(4.0 * s, abs=1e-5)


def test_build_ttrs_positive_definite_band_keeps_lower_side():
    # min x'x/2 over 1 <= x'x <= 4: the lower side binds, value 0.5; an
    # unshifted (convex) objective block would drop it and read 0
    inst = reformulate.build_ttrs(SymMatrix.identity(2), np.zeros(2), 1.0, 4.0)
    assert np.array_equal(inst.a[0], [1.0, 1.0])
    prog, meta = reformulate.build_cr2(inst)
    value, res = solve_value(prog, meta)
    assert value == pytest.approx(0.5, abs=1e-7)
    x, _ = recover.tighten_qcqp(inst, res, meta)
    assert float(x @ x) == pytest.approx(1.0, abs=1e-6)


def test_build_ttrs_rejects_bad_band():
    with pytest.raises(InvalidBounds):
        reformulate.build_ttrs(SymMatrix.identity(2), np.zeros(2), 2.0, 1.0)


def test_build_ttrs_matches_grid():
    rng = np.random.default_rng(11)
    for trial in range(5):
        n = int(rng.integers(2, 4))
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        b = rng.normal(size=n) * 0.5
        alpha, beta = 0.3, 1.8
        prog, meta = reformulate.build_cr2(
            reformulate.build_ttrs(SymMatrix.from_dense(a), b, alpha, beta)
        )
        value, _ = solve_value(prog, meta)

        def f(pts):
            return 0.5 * np.einsum("pi,ij,pj->p", pts, a, pts) + pts @ b

        def feas(pts):
            nrm = np.sum(pts**2, axis=1)
            return (nrm >= alpha) & (nrm <= beta)

        r = math.sqrt(beta)
        val_grid, _ = grid_opt(f, feas, (np.full(n, -r), np.full(n, r)), r / 40.0, "min")
        assert value == pytest.approx(val_grid, abs=2e-3), trial


def test_build_vtrs_reduces_to_etrs_shape():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(2, 2))
    a = 0.5 * (a + a.T) - 1.5 * np.eye(2)
    cvec = rng.normal(size=2) * 0.4
    mu = np.array([0.2, -0.1])
    r = 1.1
    value, _ = solve_value(
        *reformulate.build_cr2(
            reformulate.build_vtrs(SymMatrix.from_dense(a), cvec, balls_in=[(mu, r)])
        )
    )
    inst = reformulate.build_etrs(SymMatrix.from_dense(a), cvec, mu, r**2)
    v2, _ = solve_value(*reformulate.build_cr(inst))
    assert value == pytest.approx(v2, abs=1e-6)


def test_build_vtrs_matches_grid_with_condition():
    rng = np.random.default_rng(13)
    for trial in range(4):
        n = 2
        w = np.array([rng.uniform(0.5, 1.5), -1.0])
        a = np.diag(w)  # lam_min eigvec = e2; shifted range = span{e1}
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
        assert res.status == "Optimal"
        value = meta.original_value(res)

        def f(pts):
            return np.einsum("pi,ij,pj->p", pts, a, pts) + pts @ cvec

        def feas(pts):
            ok = np.sum((pts - mu_in) ** 2, axis=1) <= r_in**2
            ok &= np.sum((pts - mu_out) ** 2, axis=1) >= r_out**2
            ok &= pts @ poly[0][0] <= poly[0][1]
            return ok

        box = (mu_in - r_in, mu_in + r_in)
        val_grid, _ = grid_opt(f, feas, box, r_in / 50.0, "min")
        assert value == pytest.approx(val_grid, abs=2e-3), trial


def _trust_region_data(rng, n, mult, lam_min, k_rows, in_range):
    """A with eigenvalue lam_min of multiplicity ``mult`` and the others
    well above it, plus ``k_rows`` vectors, each drawn inside R(A - lam_min I)
    or in general position as ``in_range`` says."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = np.concatenate([np.full(mult, lam_min), lam_min + rng.uniform(0.5, 2.0, n - mult)])
    vecs = [
        q[:, mult:] @ rng.normal(size=n - mult) if inside else rng.normal(size=n)
        for inside in in_range[:k_rows]
    ]
    return (q * w) @ q.T, vecs


def _reference_union_holds(a, vecs):
    """rank[vecs; range basis of A - lam_min I] <= n-1, by numpy alone; the
    range is cut against A's scale, so a shift that leaves only roundoff
    (lam_min of multiplicity n) has none."""
    n = a.shape[0]
    w, v = np.linalg.eigh(a - np.linalg.eigvalsh(a)[0] * np.eye(n))
    rows = [v[:, np.abs(w) > 1e-6 * np.abs(a).max()].T] + [
        np.reshape(x, (1, n)) for x in vecs
    ]
    sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
    rank = int(np.sum(sv > 1e-6 * sv[0])) if sv.size and sv[0] > 0 else 0
    return rank <= n - 1


_special_case_data = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    mult=st.integers(1, 4),
    lam_sign=st.sampled_from([-1.0, 0.0, 1.0]),
    counts=st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
    in_range=st.lists(st.booleans(), min_size=7, max_size=7),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**_special_case_data)
def test_etrs_certificate_matches_numpy_rank(seed, n, mult, lam_sign, counts, in_range):
    rng = np.random.default_rng(seed)
    lam_min = lam_sign * rng.uniform(0.5, 2.0)
    a, vecs = _trust_region_data(rng, n, min(mult, n), lam_min, counts[0], in_range)
    rows = [(bi, 1.0) for bi in vecs]
    inst = reformulate.build_etrs(
        SymMatrix.from_dense(a), rng.normal(size=n), rng.normal(size=n), 1.0, rows
    )
    got = reformulate.check_condition_c(inst, reformulate.lift_set_onesided(inst)).holds
    # a PSD objective lifts nothing; otherwise the union of the rows and the range
    assert got == (lam_sign >= 0.0 or _reference_union_holds(a, vecs))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**_special_case_data)
def test_vtrs_certificate_matches_numpy_rank(seed, n, mult, lam_sign, counts, in_range):
    rng = np.random.default_rng(seed)
    lam_min = lam_sign * rng.uniform(0.5, 2.0)
    k_in, k_out, k_poly = counts[0] % 2 + 1, counts[1], counts[2]  # at least one inside ball
    a, vecs = _trust_region_data(rng, n, min(mult, n), lam_min, k_in + k_out + k_poly, in_range)
    inst = reformulate.build_vtrs(
        SymMatrix.from_dense(a),
        rng.normal(size=n),
        balls_in=[(mu, 2.0) for mu in vecs[:k_in]],
        balls_out=[(mu, 0.5) for mu in vecs[k_in : k_in + k_out]],
        poly_rows=[(ak, 1.0) for ak in vecs[k_in + k_out :]],
    )
    _, meta = reformulate.build_cr2(inst)
    assert meta.lifted == (1,)
    assert reformulate.check_condition_c(inst, meta.lifted).holds == _reference_union_holds(a, vecs)


def test_trust_region_variants_recover_through_tighten_qcqp():
    rng = np.random.default_rng(17)
    cases = []
    for _ in range(4):
        a = rng.normal(size=(3, 3))
        cases.append(
            reformulate.build_ttrs(SymMatrix.from_dense(a + a.T), rng.normal(size=3), 0.3, 1.8)
        )
    for _ in range(4):
        w = np.array([rng.uniform(0.5, 1.5), -1.0])
        cases.append(
            reformulate.build_vtrs(
                SymMatrix.from_dense(np.diag(w)),
                np.array([rng.normal() * 0.3, 0.0]),
                balls_in=[(np.array([rng.normal() * 0.2, 0.0]), 1.2)],
                balls_out=[(np.array([rng.normal() * 0.1, 0.0]), 0.3)],
                poly_rows=[(np.array([1.0, 0.0]), 0.6)],
            )
        )
    for k, inst in enumerate(cases):
        prog, meta = reformulate.build_cr2(inst)
        assert reformulate.check_condition_c(inst, meta.lifted).holds, k
        value, res = solve_value(prog, meta)
        x, _ = recover.tighten_qcqp(inst, res, meta)
        assert inst.worst_violation(x) <= 1e-6, k
        assert inst.values(x)[0] == pytest.approx(value, abs=1e-6 * (1 + abs(value))), k


def test_build_cr2_equality_row_matches_grid():
    # sphere equality ||x||^2 = 1 via l = u, maximized uniform objective:
    # optimum is 1 + 2||b_0|| at x = b_0/||b_0||
    rng = np.random.default_rng(15)
    for _ in range(3):
        b0 = rng.normal(size=2) * 0.4
        inst = QcqpInstance(
            2,
            [SymMatrix.identity(2)],
            np.array([[-1.0], [1.0]]),  # min -x'x - 2 b0'x
            np.vstack([-b0, np.zeros(2)]),
            np.zeros(2),
            [Bound(1.0, 1.0)],
            sense="min",
        )
        k = reformulate.lift_set_twosided(inst)
        assert reformulate.check_condition_cc(inst, k).holds
        prog, meta = reformulate.build_cr2(inst)
        value, res = solve_value(prog, meta)
        assert -value == pytest.approx(1.0 + 2.0 * np.linalg.norm(b0), abs=1e-7)
        # polar grid over the sphere, the natural oracle for the equality row
        theta = np.arange(0.0, 2.0 * math.pi, 1e-4)
        circle = np.column_stack([np.cos(theta), np.sin(theta)])
        vg = float((1.0 + 2.0 * circle @ b0).max())
        assert -value == pytest.approx(vg, abs=2e-3)


def test_condition_cc_psd_rank_clause():
    # Q PSD with rank r and constraint terms inside a (r-1)-dimensional
    # slice of its range: the union condition holds
    rng = np.random.default_rng(16)
    n, r = 4, 3
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q = SymMatrix.from_dense(
        (basis[:, :r] * rng.uniform(0.5, 2.0, r)) @ basis[:, :r].T
    )
    b_rows = rng.normal(size=(2, r - 1)) @ basis[:, : r - 1].T
    inst = QcqpInstance(
        n,
        [q],
        np.array([[-1.0], [1.0], [1.0]]),
        np.vstack([np.zeros(n), b_rows]),
        np.zeros(3),
        [Bound(-1.0, 1.0), Bound(-math.inf, 2.0)],
        sense="min",
    )
    k = reformulate.lift_set_twosided(inst)
    cert = reformulate.check_condition_cc(inst, k)
    assert cert.holds
    assert cert.dims[0] == (n - r) + (r - 1)  # null(Q) plus the b-slice
    # three generic terms plus the null direction span all of R^4: fails
    inst2 = QcqpInstance(
        n,
        [q],
        np.array([[-1.0], [1.0], [1.0], [1.0]]),
        np.vstack([np.zeros(n), rng.normal(size=(3, n))]),
        np.zeros(4),
        [Bound(-1.0, 1.0), Bound(-math.inf, 2.0), Bound(-math.inf, 2.0)],
        sense="min",
    )
    assert not reformulate.check_condition_cc(inst2, k).holds


def test_build_socp_indefinite_examples():
    # no linear terms: condition 0 <= min(1,1)-1 holds
    inst = UqInstance(
        2,
        SymMatrix.from_dense(np.diag([1.0, -1.0])),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-1.0, 1.0)],
    )
    rep = reformulate.check_indefinite(inst)
    assert rep.holds and rep.rank == 0
    # one linear term against min(r1, r2) - 1 = 0 fails
    inst2 = UqInstance(
        3,
        SymMatrix.from_dense(np.diag([1.0, 1.0, -1.0])),
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        np.zeros(2),
        [Bound(-1.0, 1.0)],
    )
    rep2 = reformulate.check_indefinite(inst2)
    assert not rep2.holds


def test_build_socp_indefinite_rejects_definite():
    inst = UqInstance(
        2,
        SymMatrix.identity(2),
        np.zeros((2, 2)),
        np.zeros(2),
        [Bound(-math.inf, 1.0)],
    )
    with pytest.raises(WrongShape):
        reformulate.split_indefinite(inst)


def test_build_socp_indefinite_matches_grid():
    rng = np.random.default_rng(14)
    for trial in range(4):
        n = 3
        qmat = np.diag([1.0, rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)])
        inst = UqInstance(
            n,
            SymMatrix.from_dense(qmat),
            np.zeros((3, n)),
            np.zeros(3),
            [Bound(-0.5, 1.0), Bound(-math.inf, 2.0)],
        )
        prog, meta = reformulate.build_cr2(reformulate.split_indefinite(inst))
        assert reformulate.check_indefinite(inst).holds
        res = conesolver.solve(prog)
        assert res.status == "Optimal"
        value = meta.original_value(res)

        def f(pts):
            return np.einsum("pi,ij,pj->p", pts, qmat, pts)

        def feas(pts):
            v = f(pts)
            return (v >= -0.5) & (v <= 1.0) & (v <= 2.0)

        box = (np.full(n, -1.6), np.full(n, 1.6))
        val_grid, _ = grid_opt(f, feas, box, 0.05, "max")
        assert value == pytest.approx(val_grid, abs=2e-3), trial
