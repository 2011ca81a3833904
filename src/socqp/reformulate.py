"""Builders mapping each problem class to a cone program, plus executable
certifiers for the exactness conditions.

Every builder with an associated exactness condition returns the certificate
report next to the program; solving proceeds regardless and recovery consults
the certificate.  Maximization problems are negated into the solver's min
convention inside the builder, with the original sense recorded in the meta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .conesolver import ConeProgram, SocBlock, SolverResult
from .errors import InvalidBounds, InvalidInput, WrongShape
from .linalg import DEFAULT_RANK_TOL, SymMatrix
from .model import Bound, QcqpInstance, UqInstance, uq_as_qcqp


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of an exactness-condition check."""

    holds: bool
    reason: str
    rank: int | None = None
    dims: dict[int, int] | None = None
    threshold: int | None = None


@dataclass
class ReformulationMeta:
    """Variable layout and back-map of a built cone program.

    ``t_index`` maps a lifted block index to its program variable; ``row_map``
    gives, per original constraint, the (upper, lower) linear-row indices
    (None when that side is infinite or encoded in a cone).  ``x_shift`` is
    added when mapping a solution back to original coordinates.
    """

    kind: str
    n: int
    sense: str  # sense of the original problem: 'min' or 'max'
    lifted: tuple[int, ...] = ()
    t_index: dict[int, int] = field(default_factory=dict)
    row_map: list[tuple[int | None, int | None]] = field(default_factory=list)
    soc_index: dict[int, int] = field(default_factory=dict)
    shifts: dict[str, float] = field(default_factory=dict)
    epi_index: int | None = None
    x_shift: np.ndarray | None = None

    def x_of(self, z) -> np.ndarray:
        x = np.asarray(z, dtype=float)[: self.n].copy()
        if self.x_shift is not None:
            x += self.x_shift
        return x

    def original_value(self, res: SolverResult) -> float:
        return res.objective if self.sense == "min" else -res.objective


def _quad_epigraph_block(p_half: np.ndarray, nv: int, w_vec: np.ndarray, w_const: float) -> SocBlock:
    """Cone block for x' P x <= w with w an affine expression w_vec'z + w_const.

    P enters through its PSD square root ``p_half`` padded to the full
    variable space.
    """
    n = p_half.shape[0]
    a = np.zeros((n + 1, nv))
    a[:n, :n] = p_half
    a[n] = 0.5 * w_vec
    b = np.zeros(n + 1)
    b[n] = 0.5 * (w_const - 1.0)
    return SocBlock(a, b, 0.5 * w_vec, 0.5 * (w_const + 1.0))


# ---------------------------------------------------------------------------
# uniform instances
# ---------------------------------------------------------------------------


def build_socp_uq(inst: UqInstance) -> tuple[ConeProgram, ReformulationMeta]:
    """Relaxation of a uniform instance: variables (x, t), objective
    max t + 2 b_0'x + d_0, rows l_i <= t + 2 b_i'x + d_i <= u_i and one cone
    encoding x'Qx <= t.

    This is the two-sided relaxation of the one-block view that minimises
    -f_0 (``model.uq_as_qcqp``), relabelled with the instance's max sense.
    """
    try:
        view = uq_as_qcqp(inst, negate=True)
    except InvalidInput as exc:  # the view's only check a UqInstance can fail: Q PSD
        raise WrongShape(
            "Q is indefinite; use build_socp_indefinite for the split relaxation"
        ) from exc
    prog, meta = build_cr2(view)
    meta.kind = "uq"
    meta.sense = "max"
    return prog, meta


def check_as3(inst: UqInstance, tol_rel: float = DEFAULT_RANK_TOL) -> CertificateReport:
    """Exactness condition for the uniform relaxation with positive definite
    Q: rank[b_1, ..., b_p] <= n-1, or p = n."""
    rank = linalg.numerical_rank(list(inst.b[1:]), tol_rel)
    if rank <= inst.n - 1:
        return CertificateReport(
            True, f"rank of constraint terms is {rank} <= n-1 = {inst.n - 1}", rank=rank
        )
    if inst.p == inst.n:
        return CertificateReport(True, f"p = n = {inst.n}", rank=rank)
    return CertificateReport(
        False,
        f"rank {rank} > n-1 = {inst.n - 1} and p = {inst.p} != n = {inst.n}",
        rank=rank,
    )


def split_indefinite(
    inst: UqInstance, tol_rel: float = DEFAULT_RANK_TOL
) -> tuple[QcqpInstance, int, int]:
    """Spectral split of an indefinite uniform instance into a two-block
    structured instance minimizing -f_0.

    Q = Q1 - Q2 with Q1 from positive and Q2 from negated negative
    eigenpairs; eigenvalues within tolerance of zero enter neither block, so
    the returned ranks (r1, r2) are minimal.
    """
    w, v = linalg.sym_eig(inst.q)
    scale = max(1.0, float(np.abs(w).max()))
    pos = w > tol_rel * scale
    neg = w < -tol_rel * scale
    r1, r2 = int(pos.sum()), int(neg.sum())
    if r1 == 0 or r2 == 0:
        raise WrongShape("Q is semidefinite; use build_socp_uq (possibly negated)")
    q1 = SymMatrix.from_dense((v[:, pos] * w[pos]) @ v[:, pos].T)
    q2 = SymMatrix.from_dense((v[:, neg] * -w[neg]) @ v[:, neg].T)
    p = inst.p
    a = np.tile([1.0, -1.0], (p + 1, 1))
    a[0] = (-1.0, 1.0)  # objective negated into min sense
    b = inst.b.copy()
    b[0] = -b[0]
    cvec = inst.d.copy()
    cvec[0] = -cvec[0]
    qcqp = QcqpInstance(inst.n, [q1, q2], a, b, cvec, list(inst.bounds), sense="min")
    return qcqp, r1, r2


def build_socp_indefinite(
    inst: UqInstance, tol_rel: float = DEFAULT_RANK_TOL
) -> tuple[ConeProgram, ReformulationMeta, CertificateReport, QcqpInstance]:
    """Split relaxation for indefinite Q: two lifted variables t1, t2 with
    objective t1 - t2 + 2 b_0'x + d_0 and one cone per spectral part.

    The fourth element is the two-block instance of ``split_indefinite`` that
    the program relaxes; recovery (``recover.tighten_qcqp``) works on it.
    """
    qcqp, r1, r2 = split_indefinite(inst, tol_rel)
    prog, meta = build_cr2(qcqp)
    meta.kind = "uq_indefinite"
    meta.sense = "max"
    meta.shifts.update({"rank_pos": float(r1), "rank_neg": float(r2)})
    rank = linalg.numerical_rank(list(inst.b[1:]), tol_rel)
    thresh = min(r1, r2) - 1
    report = CertificateReport(
        rank <= thresh,
        f"rank of constraint terms {rank} vs min(r1, r2)-1 = {thresh}",
        rank=rank,
        threshold=thresh,
    )
    return prog, meta, report, qcqp


# ---------------------------------------------------------------------------
# structured QCQP
# ---------------------------------------------------------------------------


def lift_set_onesided(inst: QcqpInstance) -> tuple[int, ...]:
    """Blocks that must be lifted in the one-sided relaxation: any block with
    a -1 sign somewhere (objective included)."""
    return tuple(j for j in range(inst.m) if np.any(inst.a[:, j] == -1.0))


def lift_set_twosided(inst: QcqpInstance) -> tuple[int, ...]:
    """Blocks lifted in the two-sided relaxation: a -1 objective sign or any
    appearance in a constraint."""
    return tuple(
        j
        for j in range(inst.m)
        if inst.a[0, j] == -1.0 or np.any(inst.a[1:, j] != 0.0)
    )


def _residual_root(inst: QcqpInstance, summed: np.ndarray, roots: dict):
    """PSD root of a convex residual, the sum of the blocks flagged in
    ``summed`` (non-lifted, sign +1); None when that sum is zero.

    ``roots`` memoises the root by the set of summed blocks, so rows sharing
    a residual share one root.  A residual of one block is that block itself,
    which reuses the block's own eigendecomposition.
    """
    key = tuple(np.flatnonzero(summed).tolist())
    if not key:
        return None
    if key not in roots:
        if len(key) == 1:
            residual = inst.blocks[key[0]]
        else:
            acc = np.zeros((inst.n, inst.n))
            for j in key:
                acc += inst.blocks[j].dense()
            residual = SymMatrix.from_dense(acc)
        nonzero = np.abs(residual.packed).max(initial=0.0) > 0.0
        roots[key] = linalg.psd_sqrt(residual).dense() if nonzero else None
    return roots[key]


def _assemble(
    inst: QcqpInstance, lifted: tuple[int, ...], kind: str
) -> tuple[ConeProgram, ReformulationMeta]:
    """Lifted relaxation of a min-sense structured instance over ``lifted``.

    Variables are (x, t_j for each lifted block j, and an epigraph variable
    when the objective keeps a convex residual).  Each lifted block gets the
    cone x'Q_j x <= t_j.  A constraint whose convex residual (its non-lifted
    +1 blocks) is nonzero becomes the cone epigraph of its upper side; every
    other constraint becomes up to two linear rows in (x, t).  Callers make
    sure a residual never meets a lower bound: the one-sided builder rejects
    lower bounds, and the two-sided lifted set leaves no constraint residual.
    """
    if inst.sense != "min":
        raise WrongShape(f"{kind} builder expects a minimization instance")
    n, p, k = inst.n, inst.p, len(lifted)
    summed = inst.a == 1.0
    summed[:, list(lifted)] = False
    roots: dict = {}
    root0 = _residual_root(inst, summed[0], roots)
    nv = n + k + (root0 is not None)
    epi = n + k if root0 is not None else None
    t_index = {j: n + pos for pos, j in enumerate(lifted)}
    expr = np.zeros((p + 1, nv))  # row i: the (x, t) part of g_i
    expr[:, :n] = 2.0 * inst.b
    expr[:, n : n + k] = inst.a[:, list(lifted)]
    c = expr[0].copy()
    unit = np.eye(nv)
    soc = [
        _quad_epigraph_block(linalg.psd_sqrt(inst.blocks[j]).dense(), nv, unit[t_index[j]], 0.0)
        for j in lifted
    ]
    soc_index = {j: pos for pos, j in enumerate(lifted)}
    if epi is not None:
        c[epi] = 1.0
        soc.append(_quad_epigraph_block(root0, nv, unit[epi], 0.0))

    upper = np.array([bd.upper for bd in inst.bounds])
    lower = np.array([bd.lower for bd in inst.bounds])
    linear = np.ones(p, dtype=bool)
    for i in np.flatnonzero(summed[1:].any(axis=1) & (upper < math.inf)):
        root_i = _residual_root(inst, summed[i + 1], roots)
        if root_i is not None:
            # x'P_i x + expr'z <= limit as a cone epigraph on w = limit - expr'z
            limit = upper[i] - inst.c[i + 1]
            soc.append(_quad_epigraph_block(root_i, nv, -expr[i + 1], limit))
            linear[i] = False
    # rows in constraint order, the upper side of each before its lower side
    sides = np.stack([expr[1:], -expr[1:]], axis=1).reshape(2 * p, nv)
    rhs = np.stack([upper - inst.c[1:], inst.c[1:] - lower], axis=1).reshape(2 * p)
    keep = np.stack(
        [linear & (upper < math.inf), linear & (lower > -math.inf)], axis=1
    ).reshape(2 * p)
    index = np.where(keep, np.cumsum(keep) - 1, -1).reshape(p, 2).tolist()
    row_map = [(u if u >= 0 else None, lo if lo >= 0 else None) for u, lo in index]
    prog = ConeProgram(
        c=c,
        g=sides[keep] if keep.any() else None,
        h=rhs[keep] if keep.any() else None,
        soc=soc,
        offset=float(inst.c[0]),
    )
    meta = ReformulationMeta(
        kind=kind,
        n=n,
        sense="min",
        lifted=lifted,
        t_index=t_index,
        row_map=row_map,
        soc_index=soc_index,
        epi_index=epi,
    )
    return prog, meta


def build_cr(inst: QcqpInstance) -> tuple[ConeProgram, ReformulationMeta]:
    """One-sided relaxation: lift exactly the blocks carrying a -1 sign;
    leftover convex quadratics stay as cone-encoded epigraphs."""
    if any(bd.has_lower for bd in inst.bounds):
        raise WrongShape("two-sided instance passed; use build_cr2")
    return _assemble(inst, lift_set_onesided(inst), "cr")


def build_cr2(inst: QcqpInstance) -> tuple[ConeProgram, ReformulationMeta]:
    """Two-sided relaxation: every block appearing in a constraint is lifted,
    so all constraint rows become linear in (x, t)."""
    return _assemble(inst, lift_set_twosided(inst), "cr2")


def union_rows(
    inst: QcqpInstance, j_set, tol_rel: float = DEFAULT_RANK_TOL
) -> dict[int, np.ndarray]:
    """Rows spanning span{b_1..b_p} + N(Q_j) + sum_{i != j} R(Q_i), for each
    block j in ``j_set``.

    Their rank is the union dimension of the exactness condition, and their
    orthogonal complement holds the directions along which recovery closes
    block j.  Each block's range and null bases are taken once, at relative
    eigenvalue tolerance ``tol_rel``.
    """
    ranges = [linalg.range_basis(q, tol_rel).columns.T for q in inst.blocks]
    return {
        j: np.vstack(
            [inst.b[1:], linalg.null_basis(inst.blocks[j], tol_rel).columns.T]
            + [ranges[i] for i in range(inst.m) if i != j]
        )
        for j in j_set
    }


def check_condition_c(
    inst: QcqpInstance, j_set, tol_rel: float = DEFAULT_RANK_TOL
) -> CertificateReport:
    """Exactness condition of the lifted relaxations over the lifted set:
    dim(span{b_1..b_p} + N(Q_j) + sum_{i != j} R(Q_i)) <= n-1 for every
    lifted j.  The one-sided and the two-sided relaxation share this test;
    ``check_condition_cc`` is the same function under the two-sided name."""
    j_set = tuple(j_set)
    if not j_set:
        return CertificateReport(True, "no lifted blocks; program is convex as written")
    dims = {
        j: linalg.numerical_rank(rows, tol_rel)
        for j, rows in union_rows(inst, j_set, tol_rel).items()
    }
    worst = max(dims.values())
    holds = worst <= inst.n - 1
    return CertificateReport(
        holds,
        f"max union dimension {worst} vs n-1 = {inst.n - 1}",
        dims=dims,
        threshold=inst.n - 1,
    )


check_condition_cc = check_condition_c


# ---------------------------------------------------------------------------
# special-case builders
# ---------------------------------------------------------------------------


def _shifted_blocks(a_dense: np.ndarray, tol_rel: float):
    """Split x'Ax into a PSD part and a scaled-identity part.

    Returns (q1, q2, lam_min, scale) with x'Ax = x'q1 x + sign * x'q2 x where
    q2 = |lam_min| I and sign = -1; when A is already PSD the identity block
    is unscaled and unused in the objective.
    """
    m = SymMatrix.from_dense(a_dense)
    w, _ = linalg.sym_eig(m)
    lam_min = float(w[-1])
    scale = max(1.0, float(np.abs(w).max()))
    n = a_dense.shape[0]
    if lam_min >= -tol_rel * scale:
        return m, SymMatrix.identity(n), 0.0, 1.0
    shifted = SymMatrix.from_dense(a_dense - lam_min * np.eye(n))
    return shifted, SymMatrix.from_dense(-lam_min * np.eye(n)), lam_min, -lam_min


def build_trs(a_mat: SymMatrix, b) -> QcqpInstance:
    """Trust-region subproblem min x'Ax + 2 b'x over the unit ball as a
    structured instance.

    A PSD passes through convex; otherwise A is split against lam_min(A) and
    the ball constraint is carried by the scaled identity block, so all signs
    stay in {-1, 0, 1}.
    """
    b = np.asarray(b, dtype=float).reshape(a_mat.n)
    q1, q2, lam_min, scale = _shifted_blocks(a_mat.dense(), DEFAULT_RANK_TOL)
    if lam_min == 0.0:
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        ball_limit = 1.0
    else:
        a = np.array([[1.0, -1.0], [0.0, 1.0]])
        ball_limit = scale
    lin = np.vstack([b, np.zeros(a_mat.n)])
    return QcqpInstance(
        a_mat.n,
        [q1, q2],
        a,
        lin,
        np.zeros(2),
        [Bound(-math.inf, ball_limit)],
        sense="min",
    )


def build_etrs(
    a_mat: SymMatrix,
    a_vec,
    x0,
    u: float,
    rows=(),
    tol_rel: float = DEFAULT_RANK_TOL,
) -> tuple[QcqpInstance, CertificateReport, np.ndarray]:
    """Ball + linear-inequality constrained quadratic (objective x'Ax + a'x).

    Coordinates are translated so the ball is centered at the origin; the
    returned shift maps instance solutions back as x = y + shift.  The
    condition report evaluates dim(span{b_1..b_p} + R(A - lam_min I)) <= n-1.
    """
    n = a_mat.n
    a_vec = np.asarray(a_vec, dtype=float).reshape(n)
    x0 = np.asarray(x0, dtype=float).reshape(n)
    if u <= 0.0:
        raise InvalidInput("ball constraint needs u > 0")
    rows = [(np.asarray(bi, dtype=float).reshape(n), float(beta)) for bi, beta in rows]
    q1, q2, lam_min, scale = _shifted_blocks(a_mat.dense(), tol_rel)
    p = len(rows)
    signs = np.zeros((p + 2, 2))
    signs[0] = (1.0, 0.0) if lam_min == 0.0 else (1.0, -1.0)
    signs[1] = (0.0, 1.0)
    lin = np.zeros((p + 2, n))
    lin[0] = a_mat.dense() @ x0 + 0.5 * a_vec
    cvec = np.zeros(p + 2)
    cvec[0] = float(x0 @ (a_mat.dense() @ x0) + a_vec @ x0)
    bounds = [Bound(-math.inf, (scale if lam_min != 0.0 else 1.0) * u)]
    for k, (bi, beta) in enumerate(rows):
        lin[2 + k] = 0.5 * bi
        bounds.append(Bound(-math.inf, beta - float(bi @ x0)))
    inst = QcqpInstance(n, [q1, q2], signs, lin, cvec, bounds, sense="min")
    if lam_min == 0.0:
        report = CertificateReport(True, "objective is already convex; no lifting needed")
    else:
        dim = linalg.union_dim(
            [linalg.range_basis(q1, tol_rel)], [bi for bi, _ in rows], tol_rel
        )
        report = CertificateReport(
            dim <= n - 1,
            f"dim(span(linear rows) + range(shifted Hessian)) = {dim} vs n-1 = {n - 1}",
            dims={1: dim},
            threshold=n - 1,
        )
    return inst, report, x0.copy()


def build_wd(
    x0, r0: float, points, weights, tol_rel: float = DEFAULT_RANK_TOL
) -> tuple[ConeProgram, ReformulationMeta, CertificateReport]:
    """Weighted max-min dispersion over a ball: maximize s subject to
    s <= w_i (r0^2 - 2(z_i - x0)'y + ||z_i - x0||^2) and ||y|| <= r0, with the
    solution mapped back as x = y + x0."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n = x0.size
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if points.shape != (weights.size, n):
        raise InvalidInput("one weight per point is required")
    if np.any(weights <= 0.0):
        raise InvalidInput("weights must be positive")
    if r0 <= 0.0:
        raise InvalidInput("ball radius must be positive")
    p = weights.size
    nv = n + 1
    c = np.zeros(nv)
    c[n] = -1.0  # maximize s
    g = np.zeros((p, nv))
    h = np.zeros(p)
    shifted = points - x0[None, :]
    for i in range(p):
        g[i, :n] = 2.0 * weights[i] * shifted[i]
        g[i, n] = 1.0
        h[i] = weights[i] * (r0**2 + float(shifted[i] @ shifted[i]))
    a = np.zeros((n, nv))
    a[:, :n] = np.eye(n)
    soc = [SocBlock(a, np.zeros(n), np.zeros(nv), r0)]
    prog = ConeProgram(c=c, g=g, h=h, soc=soc)
    meta = ReformulationMeta(
        kind="wd",
        n=n,
        sense="max",
        row_map=[(i, None) for i in range(p)],
        x_shift=x0.copy(),
        t_index={0: n},
    )
    rank = linalg.numerical_rank(list(shifted), tol_rel)
    report = CertificateReport(
        rank <= n - 1,
        f"rank of re-centered points {rank} vs n-1 = {n - 1}",
        rank=rank,
        threshold=n - 1,
    )
    return prog, meta, report


def build_ttrs(
    a_mat: SymMatrix, b, alpha: float, beta: float
) -> tuple[ConeProgram, ReformulationMeta]:
    """Two-sided ball band: min (1/2)x'Ax + b'x over alpha <= x'x <= beta.

    Lifted form: (1/2)x'(A - lam_min I)x + b'x + (lam_min/2) t with
    alpha <= t <= beta and x'x <= t; always exact (the shifted range loses a
    dimension).
    """
    if not alpha < beta:
        raise InvalidBounds(f"need alpha < beta, got {alpha} >= {beta}")
    n = a_mat.n
    b = np.asarray(b, dtype=float).reshape(n)
    w, _ = linalg.sym_eig(a_mat)
    lam_min = float(w[-1])
    m_half = 0.5 * (a_mat.dense() - lam_min * np.eye(n))
    nv = n + 1
    epi = None
    if np.abs(m_half).max() > 0.0:
        epi = nv
        nv += 1
    c = np.zeros(nv)
    c[:n] = b
    c[n] = 0.5 * lam_min
    if epi is not None:
        c[epi] = 1.0
    g = np.zeros((2, nv))
    g[0, n] = 1.0
    g[1, n] = -1.0
    h = np.array([beta, -alpha])
    t_vec = np.zeros(nv)
    t_vec[n] = 1.0
    soc = [_quad_epigraph_block(np.eye(n), nv, t_vec, 0.0)]
    if epi is not None:
        w_vec = np.zeros(nv)
        w_vec[epi] = 1.0
        soc.append(
            _quad_epigraph_block(
                linalg.psd_sqrt(SymMatrix.from_dense(m_half)).dense(), nv, w_vec, 0.0
            )
        )
    prog = ConeProgram(c=c, g=g, h=h, soc=soc)
    meta = ReformulationMeta(
        kind="ttrs",
        n=n,
        sense="min",
        lifted=(0,),
        t_index={0: n},
        row_map=[(0, 1)],
        soc_index={0: 0},
        shifts={"lam_min": lam_min},
        epi_index=epi,
    )
    return prog, meta


def build_vtrs(
    q_mat: SymMatrix,
    c_vec,
    balls_in=(),
    balls_out=(),
    poly_rows=(),
    tol_rel: float = DEFAULT_RANK_TOL,
) -> tuple[ConeProgram, ReformulationMeta, CertificateReport]:
    """Trust-region variant with inside/outside ball constraints and a
    polytope: min x'Qx + c'x with ||x - mu_i|| <= r_i (i in I),
    ||x - mu_j|| >= r_j (j in J) and a_k'x <= b_k.

    Ball rows become linear in (x, t): t - 2 mu'x + ||mu||^2 <= r^2 inside and
    >= r^2 outside.  The condition report bounds the span of all row vectors
    together with the shifted range.
    """
    n = q_mat.n
    c_vec = np.asarray(c_vec, dtype=float).reshape(n)
    balls_in = [(np.asarray(m, dtype=float).reshape(n), float(r)) for m, r in balls_in]
    balls_out = [(np.asarray(m, dtype=float).reshape(n), float(r)) for m, r in balls_out]
    poly_rows = [(np.asarray(a, dtype=float).reshape(n), float(bk)) for a, bk in poly_rows]
    if any(r <= 0 for _, r in balls_in + balls_out):
        raise InvalidInput("ball radii must be positive")
    w, _ = linalg.sym_eig(q_mat)
    lam_min = float(w[-1])
    shifted = q_mat.dense() - lam_min * np.eye(n)
    nv = n + 1
    epi = None
    if np.abs(shifted).max() > 0.0:
        epi = nv
        nv += 1
    c = np.zeros(nv)
    c[:n] = c_vec
    c[n] = lam_min
    if epi is not None:
        c[epi] = 1.0
    rows, rhs = [], []
    for mu, r in balls_in:
        g = np.zeros(nv)
        g[:n] = -2.0 * mu
        g[n] = 1.0
        rows.append(g)
        rhs.append(r**2 - float(mu @ mu))
    for mu, r in balls_out:
        g = np.zeros(nv)
        g[:n] = 2.0 * mu
        g[n] = -1.0
        rows.append(g)
        rhs.append(float(mu @ mu) - r**2)
    for ak, bk in poly_rows:
        g = np.zeros(nv)
        g[:n] = ak
        rows.append(g)
        rhs.append(bk)
    t_vec = np.zeros(nv)
    t_vec[n] = 1.0
    soc = [_quad_epigraph_block(np.eye(n), nv, t_vec, 0.0)]
    if epi is not None:
        w_vec = np.zeros(nv)
        w_vec[epi] = 1.0
        soc.append(
            _quad_epigraph_block(
                linalg.psd_sqrt(SymMatrix.from_dense(shifted)).dense(), nv, w_vec, 0.0
            )
        )
    prog = ConeProgram(c=c, g=np.vstack(rows), h=np.asarray(rhs), soc=soc)
    meta = ReformulationMeta(
        kind="vtrs",
        n=n,
        sense="min",
        lifted=(0,),
        t_index={0: n},
        soc_index={0: 0},
        shifts={"lam_min": lam_min},
        epi_index=epi,
    )
    span_vectors = (
        [ak for ak, _ in poly_rows]
        + [mu for mu, _ in balls_in]
        + [mu for mu, _ in balls_out]
    )
    dim = linalg.union_dim(
        [linalg.range_basis(SymMatrix.from_dense(shifted), tol_rel)],
        span_vectors,
        tol_rel,
    )
    report = CertificateReport(
        dim <= n - 1,
        f"dim(span(rows, centers) + range(shifted Hessian)) = {dim} vs n-1 = {n - 1}",
        dims={0: dim},
        threshold=n - 1,
    )
    return prog, meta, report
