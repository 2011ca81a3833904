"""Builders mapping each problem class to a cone program, plus executable
certifiers for the exactness conditions.

The relaxation builders return a cone program and its meta; the exactness
certificate is a separate call (``check_as3`` for uniform instances,
``check_condition_c`` for structured ones), except that
``build_socp_indefinite`` and ``build_wd`` return theirs with the program.
The trust-region special cases (``build_trs``, ``build_etrs``, ``build_ttrs``,
``build_vtrs``) return a min-sense ``QcqpInstance`` that goes through the
generic ``build_cr``/``build_cr2``, ``check_condition_c`` and
``recover.tighten_qcqp``.  ``build_cr`` and ``build_cr2`` take min-sense
instances only and reject a max-sense one; a caller negates it first, as
``socqp solve`` does.  The uniform builders (``build_socp_uq``,
``build_socp_indefinite``) minimise -f_0 and record the instance's max sense
in the meta.

Next to ``check_as3`` sit the closed-form Lagrangian dual of a uniform
instance (``dual_value``) and ``certify_strong_duality``, which checks a
relaxation solve against that dual at the solve's own multipliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .conesolver import ConeProgram, SocBlock, SolverResult
from .errors import InvalidBounds, InvalidInput, InvalidMultiplier, NotPositiveDefinite, WrongShape
from .linalg import DEFAULT_RANK_TOL, SymMatrix
from .model import Bound, QcqpInstance, UqInstance, uq_as_qcqp


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of an exactness-condition check."""

    holds: bool
    reason: str
    rank: int | None = None
    dims: dict[int, int] | None = None


@dataclass
class ReformulationMeta:
    """Variable layout and back-map of a built cone program.

    ``t_index`` maps a lifted block index to its program variable; ``row_map``
    gives, per original constraint, the (upper, lower) linear-row indices
    (None when that side is infinite or encoded in a cone).  ``x_shift`` is
    added when mapping a solution back to original coordinates.
    """

    n: int
    sense: str  # sense of the original problem: 'min' or 'max'
    lifted: tuple[int, ...] = ()
    t_index: dict[int, int] = field(default_factory=dict)
    row_map: list[tuple[int | None, int | None]] = field(default_factory=list)
    epi_index: int | None = None
    x_shift: np.ndarray | None = None

    def x_of(self, z) -> np.ndarray:
        x = np.asarray(z, dtype=float)[: self.n].copy()
        if self.x_shift is not None:
            x += self.x_shift
        return x

    def original_value(self, res: SolverResult) -> float:
        return res.objective if self.sense == "min" else -res.objective


_DUALITY_REL_TOL = 1e-5  # largest relative dual-relaxation gap that certifies
_DUAL_ZERO_TOL = 1e-9  # relative sigma (sqrt of it for beta) that counts as zero


def quad_epigraph(factor: np.ndarray, nv: int, w_vec: np.ndarray, w_const: float) -> SocBlock:
    """Cone block for ||F x||^2 <= w with w the affine expression
    w_vec'z + w_const over all nv variables.

    F is the (r, k) matrix ``factor`` acting on the first k variables, for
    example the rank-sized ``linalg.psd_factor`` of P, so that
    ||F x||^2 = x'Px and the cone has r + 2 rows whatever k is.
    """
    r, k = factor.shape
    a = np.zeros((r + 1, nv))
    a[:r, :k] = factor
    a[r] = 0.5 * w_vec
    b = np.zeros(r + 1)
    b[r] = 0.5 * (w_const - 1.0)
    return SocBlock(a, b, 0.5 * w_vec, 0.5 * (w_const + 1.0))


def _row_layout(bounds, linear: np.ndarray) -> tuple[np.ndarray, list]:
    """Linear rows of a lifted program: for each constraint its upper side,
    then its lower side, each kept when finite and ``linear[i]`` (not encoded
    in a cone).  Returns the keep mask over the 2p candidate rows and the
    per-constraint (upper, lower) row indices (None where not kept)."""
    finite = np.array([[bd.has_upper, bd.has_lower] for bd in bounds], bool).reshape(-1, 2)
    keep = (finite & linear[:, None]).reshape(-1)
    index = np.where(keep, np.cumsum(keep) - 1, -1).reshape(-1, 2).tolist()
    row_map = [(u if u >= 0 else None, lo if lo >= 0 else None) for u, lo in index]
    return keep, row_map


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
        view = uq_as_qcqp(inst)
    except InvalidInput as exc:  # the view's only check a UqInstance can fail: Q PSD
        raise WrongShape(
            "Q is indefinite; use build_socp_indefinite for the split relaxation"
        ) from exc
    prog, meta = build_cr2(view)
    meta.sense = "max"
    return prog, meta


def check_as3(inst: UqInstance) -> CertificateReport:
    """Exactness condition for the uniform relaxation with positive definite
    Q: rank[b_1, ..., b_p] <= n-1, or p = n."""
    rank = linalg.numerical_rank(inst.b[1:], inst.tol_rank)
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


def dual_value(inst: UqInstance, lam) -> float:
    """Evaluate the dual function d(lam) of a positive definite instance at
    the signed multipliers lam_i = lam_i^+ - lam_i^- of its p rows.

    With sigma = 1 - sum(lam), beta = b_0 - sum(lam_i b_i) and the constant
    kappa = -sum(lam_i d_i) + sum(lam_i^+ u_i - lam_i^- l_i) + d_0:
    d(lam) = kappa - beta' Q^{-1} beta / sigma  when sigma < 0,
    kappa when sigma = 0 and beta = 0, and +inf otherwise (the inner sup
    over x is unbounded).
    """
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if not np.all(np.isfinite(lam)):
        raise InvalidMultiplier("multipliers must be finite")
    if lam.size != inst.p:
        raise InvalidMultiplier(f"expected {inst.p} multipliers, got {lam.size}")
    try:
        np.linalg.cholesky(inst.q.dense())
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("dual evaluation requires Q positive definite") from exc

    kappa = float(inst.d[0])
    for i, bd in enumerate(inst.bounds):
        li = lam[i]
        lp, lm = max(li, 0.0), max(-li, 0.0)
        if lp > 0.0 and not bd.has_upper:
            raise InvalidMultiplier(f"lam_{i + 1}^+ > 0 but u_{i + 1} = +inf")
        if lm > 0.0 and not bd.has_lower:
            raise InvalidMultiplier(f"lam_{i + 1}^- > 0 but l_{i + 1} = -inf")
        kappa += -li * float(inst.d[i + 1])
        if lp > 0.0:
            kappa += lp * bd.upper
        if lm > 0.0:
            kappa -= lm * bd.lower
    sigma = 1.0 - float(lam.sum())
    beta = inst.b[0] - lam @ inst.b[1:]
    sig_scale = 1.0 + float(np.abs(lam).sum())
    beta_scale = 1.0 + float(np.abs(inst.b).max())
    if sigma < 0.0:
        return kappa - float(beta @ np.linalg.solve(inst.q.dense(), beta)) / sigma
    flat = np.linalg.norm(beta) <= math.sqrt(_DUAL_ZERO_TOL) * beta_scale
    if sigma <= _DUAL_ZERO_TOL * sig_scale and flat:
        return kappa
    return math.inf


@dataclass(frozen=True)
class StrongDualityReport:
    holds: bool
    gap: float
    relaxation_value: float
    dual_value: float
    lam: np.ndarray  # signed multipliers at which the dual was evaluated


def certify_strong_duality(inst: UqInstance, res: SolverResult) -> StrongDualityReport:
    """Compare the closed-form dual value at the multipliers of a
    ``build_socp_uq`` solve of ``inst`` with the relaxation optimum; the
    certificate holds when they agree to a relative 1e-5.

    lam_i is the multiplier of row i's upper side minus that of its lower
    side, read through the relaxation's row layout.
    """
    if res.status != "Optimal":
        raise InvalidMultiplier(f"certificate needs an Optimal solve, got {res.status}")
    keep, _ = _row_layout(inst.bounds, np.ones(inst.p, dtype=bool))
    if np.count_nonzero(keep) != res.lam_lin.size:
        raise InvalidMultiplier(
            "solver result does not match this instance's relaxation layout"
        )
    sides = np.zeros(keep.size)
    sides[keep] = res.lam_lin
    lam = sides[0::2] - sides[1::2]
    value = -res.objective  # the relaxation builder negates the max objective
    dval = dual_value(inst, lam)
    gap = dval - value
    holds = bool(abs(gap) <= _DUALITY_REL_TOL * (1.0 + abs(value)))
    return StrongDualityReport(holds, gap, value, dval, lam)


def split_indefinite(inst: UqInstance) -> tuple[QcqpInstance, int, int]:
    """Spectral split of an indefinite uniform instance into a two-block
    structured instance minimizing -f_0.

    Q = Q1 - Q2 with Q1 from positive and Q2 from negated negative
    eigenpairs; eigenvalues within tolerance of zero enter neither block, so
    the returned ranks (r1, r2) are minimal.
    """
    w, v = linalg.sym_eig(inst.q)
    pos, neg = linalg.inertia(inst.q, inst.tol_rank)
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
    qcqp = QcqpInstance(inst.n, [q1, q2], a, b, cvec, list(inst.bounds), tol_rank=inst.tol_rank)
    return qcqp, r1, r2


def build_socp_indefinite(
    inst: UqInstance
) -> tuple[ConeProgram, ReformulationMeta, CertificateReport, QcqpInstance]:
    """Split relaxation for indefinite Q: two lifted variables t1, t2 with
    objective t1 - t2 + 2 b_0'x + d_0 and one cone per spectral part.

    The fourth element is the two-block instance of ``split_indefinite`` that
    the program relaxes; recovery (``recover.tighten_qcqp``) works on it.
    """
    qcqp, r1, r2 = split_indefinite(inst)
    prog, meta = build_cr2(qcqp)
    meta.sense = "max"
    rank = linalg.numerical_rank(inst.b[1:], inst.tol_rank)
    thresh = min(r1, r2) - 1
    report = CertificateReport(
        rank <= thresh,
        f"rank of constraint terms {rank} vs min(r1, r2)-1 = {thresh}",
        rank=rank,
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


def _residual_factor(inst: QcqpInstance, summed: np.ndarray, factors: dict):
    """Rank-sized PSD factor of a convex residual, the sum of the blocks
    flagged in ``summed`` (non-lifted, sign +1); None when that sum is zero.

    ``factors`` memoises the factor by the set of summed blocks, so rows
    sharing a residual share one factor.  A residual of one block is that
    block itself, which reuses the block's own eigendecomposition.
    """
    key = tuple(np.flatnonzero(summed).tolist())
    if not key:
        return None
    if key not in factors:
        if len(key) == 1:
            residual = inst.blocks[key[0]]
        else:
            acc = np.zeros((inst.n, inst.n))
            for j in key:
                acc += inst.blocks[j].dense()
            residual = SymMatrix.from_dense(acc)
        nonzero = np.abs(residual.packed).max(initial=0.0) > 0.0
        factors[key] = linalg.psd_factor(residual, inst.tol_rank) if nonzero else None
    return factors[key]


def _assemble(
    inst: QcqpInstance, lifted: tuple[int, ...]
) -> tuple[ConeProgram, ReformulationMeta]:
    """Lifted relaxation of a min-sense structured instance over ``lifted``.

    Variables are (x, t_j for each lifted block j, and an epigraph variable
    when the objective keeps a convex residual).  Each lifted block gets the
    cone x'Q_j x <= t_j, encoded through the rank-sized factor F_j of
    ``linalg.psd_factor`` as ||F_j x||^2 <= t_j, so it has rank(Q_j) + 2 rows;
    F_j drops only roundoff, so the cone is the same set as x'Q_j x <= t_j.
    Residual cones are encoded the same way.  A constraint whose convex residual (its non-lifted
    +1 blocks) is nonzero becomes the cone epigraph of its upper side; every
    other constraint becomes up to two linear rows in (x, t).  Callers make
    sure a residual never meets a lower bound: the one-sided builder rejects
    lower bounds, and the two-sided lifted set leaves no constraint residual.
    """
    if inst.sense != "min":
        raise WrongShape("lifted builders expect a minimization instance")
    n, p, k = inst.n, inst.p, len(lifted)
    summed = inst.a == 1.0
    summed[:, list(lifted)] = False
    factors: dict = {}
    factor0 = _residual_factor(inst, summed[0], factors)
    nv = n + k + (factor0 is not None)
    epi = n + k if factor0 is not None else None
    t_index = {j: n + pos for pos, j in enumerate(lifted)}
    expr = np.zeros((p + 1, nv))  # row i: the (x, t) part of g_i
    expr[:, :n] = 2.0 * inst.b
    expr[:, n : n + k] = inst.a[:, list(lifted)]
    c = expr[0].copy()
    unit = np.eye(nv)
    soc = [
        quad_epigraph(linalg.psd_factor(inst.blocks[j], inst.tol_rank), nv, unit[t_index[j]], 0.0)
        for j in lifted
    ]
    if epi is not None:
        c[epi] = 1.0
        soc.append(quad_epigraph(factor0, nv, unit[epi], 0.0))

    upper = np.array([bd.upper for bd in inst.bounds])
    lower = np.array([bd.lower for bd in inst.bounds])
    linear = np.ones(p, dtype=bool)
    for i in np.flatnonzero(summed[1:].any(axis=1) & (upper < math.inf)):
        factor_i = _residual_factor(inst, summed[i + 1], factors)
        if factor_i is not None:
            # x'P_i x + expr'z <= limit as a cone epigraph on w = limit - expr'z
            limit = upper[i] - inst.c[i + 1]
            soc.append(quad_epigraph(factor_i, nv, -expr[i + 1], limit))
            linear[i] = False
    # rows in constraint order, the upper side of each before its lower side
    sides = np.stack([expr[1:], -expr[1:]], axis=1).reshape(2 * p, nv)
    rhs = np.stack([upper - inst.c[1:], inst.c[1:] - lower], axis=1).reshape(2 * p)
    keep, row_map = _row_layout(inst.bounds, linear)
    prog = ConeProgram(
        c=c,
        g=sides[keep] if keep.any() else None,
        h=rhs[keep] if keep.any() else None,
        soc=soc,
        offset=float(inst.c[0]),
    )
    meta = ReformulationMeta(
        n=n,
        sense="min",
        lifted=lifted,
        t_index=t_index,
        row_map=row_map,
        epi_index=epi,
    )
    return prog, meta


def build_cr(inst: QcqpInstance) -> tuple[ConeProgram, ReformulationMeta]:
    """One-sided relaxation: lift exactly the blocks carrying a -1 sign;
    leftover convex quadratics stay as cone-encoded epigraphs."""
    if any(bd.has_lower for bd in inst.bounds):
        raise WrongShape("two-sided instance passed; use build_cr2")
    return _assemble(inst, lift_set_onesided(inst))


def build_cr2(inst: QcqpInstance) -> tuple[ConeProgram, ReformulationMeta]:
    """Two-sided relaxation: every block appearing in a constraint is lifted,
    so all constraint rows become linear in (x, t)."""
    return _assemble(inst, lift_set_twosided(inst))


def union_rows(inst: QcqpInstance, j_set) -> dict[int, np.ndarray]:
    """Rows spanning span{b_1..b_p} + N(Q_j) + sum_{i != j} R(Q_i), for each
    block j in ``j_set``.

    Their rank is the union dimension of the exactness condition, and their
    orthogonal complement holds the directions along which recovery closes
    block j.  Each block's spectrum is split once, by
    ``linalg.range_and_null`` at the instance's ``tol_rank``.
    """
    split = [linalg.range_and_null(q, inst.tol_rank) for q in inst.blocks]
    return {
        j: np.vstack(
            [inst.b[1:], split[j][1].T] + [split[i][0].T for i in range(inst.m) if i != j]
        )
        for j in j_set
    }


def check_condition_c(inst: QcqpInstance, j_set) -> CertificateReport:
    """Exactness condition of the lifted relaxations over the lifted set:
    dim(span{b_1..b_p} + N(Q_j) + sum_{i != j} R(Q_i)) <= n-1 for every
    lifted j.  The one-sided and the two-sided relaxation share this test;
    ``check_condition_cc`` is the same function under the two-sided name."""
    j_set = tuple(j_set)
    if not j_set:
        return CertificateReport(True, "no lifted blocks; program is convex as written")
    dims = {
        j: linalg.numerical_rank(rows, inst.tol_rank)
        for j, rows in union_rows(inst, j_set).items()
    }
    worst = max(dims.values())
    holds = worst <= inst.n - 1
    return CertificateReport(
        holds,
        f"max union dimension {worst} vs n-1 = {inst.n - 1}",
        dims=dims,
    )


check_condition_cc = check_condition_c


# ---------------------------------------------------------------------------
# special-case builders
# ---------------------------------------------------------------------------


def _trust_region(a_mat: SymMatrix, b0, c0: float, balls, rows) -> QcqpInstance:
    """min x'Ax + 2 b0'x + c0 subject to lo <= ||x - mu||^2 <= hi for each
    ball (mu, Bound(lo, hi)) and a'x <= beta for each row (a, beta), as a
    min-sense structured instance.

    A is split against lam_min = lam_min(A) into the blocks (A - lam_min I,
    s I) with s = |lam_min|, so x'Ax = x'(A - lam_min I)x + sign(lam_min) s x'x
    and every sign stays in {-1, 0, 1}; when ``linalg.inertia`` reads lam_min
    as zero, s = 1 and the identity block leaves the objective.  Each ball row is
    s x'x - 2s mu'x + s||mu||^2 against s lo and s hi; each row is linear.
    """
    n = a_mat.n
    w, _ = linalg.sym_eig(a_mat)
    lam_min = float(w[-1])
    pos, neg = linalg.inertia(a_mat, DEFAULT_RANK_TOL)
    zero = not (pos[-1] or neg[-1])
    s = 1.0 if zero else abs(lam_min)
    blocks = [
        SymMatrix.from_dense(a_mat.dense() - lam_min * np.eye(n)),
        SymMatrix.from_dense(s * np.eye(n)),
    ]
    k = 1 + len(balls)
    signs = np.zeros((k + len(rows), 2))
    signs[0] = (1.0, 0.0 if zero else math.copysign(1.0, lam_min))
    signs[1:k, 1] = 1.0
    lin = np.zeros((k + len(rows), n))
    lin[0] = b0
    cvec = np.zeros(k + len(rows))
    cvec[0] = c0
    bounds = []
    for i, (mu, bd) in enumerate(balls, start=1):
        lin[i] = -s * mu
        cvec[i] = s * float(mu @ mu)
        bounds.append(Bound(s * bd.lower, s * bd.upper))
    for i, (a, beta) in enumerate(rows, start=k):
        lin[i] = 0.5 * a
        bounds.append(Bound(-math.inf, beta))
    return QcqpInstance(n, blocks, signs, lin, cvec, bounds, sense="min")


def build_trs(a_mat: SymMatrix, b) -> QcqpInstance:
    """Trust-region subproblem min x'Ax + 2 b'x over the unit ball as a
    structured instance (``build_etrs`` with a unit ball at the origin and no
    rows).  Relax it with ``build_cr``."""
    b = np.asarray(b, dtype=float).reshape(a_mat.n)
    return build_etrs(a_mat, 2.0 * b, np.zeros(a_mat.n), 1.0)


def build_etrs(
    a_mat: SymMatrix,
    a_vec,
    x0,
    u: float,
    rows=(),
) -> QcqpInstance:
    """Ball + linear-inequality constrained quadratic: min x'Ax + a'x over
    ||x - x0||^2 <= u and b_i'x <= beta_i for each row (b_i, beta_i).

    The instance is in coordinates y = x - x0 centred on the ball, so its
    solutions map back as x = y + x0.  Relax it with ``build_cr``; its
    exactness certificate, ``check_condition_c`` over the lifted set, tests
    dim(span{b_i} + R(A - lam_min I)) <= n-1 when A is not PSD.
    """
    n = a_mat.n
    a_vec = np.asarray(a_vec, dtype=float).reshape(n)
    x0 = np.asarray(x0, dtype=float).reshape(n)
    if u <= 0.0:
        raise InvalidInput("ball constraint needs u > 0")
    rows = [(np.asarray(bi, dtype=float).reshape(n), float(beta)) for bi, beta in rows]
    ad = a_mat.dense()
    return _trust_region(
        a_mat,
        ad @ x0 + 0.5 * a_vec,
        float(x0 @ (ad @ x0) + a_vec @ x0),
        [(np.zeros(n), Bound(-math.inf, u))],
        [(bi, beta - float(bi @ x0)) for bi, beta in rows],
    )


def build_wd(
    x0, r0: float, points, weights
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
        n=n,
        sense="max",
        row_map=[(i, None) for i in range(p)],
        x_shift=x0.copy(),
        t_index={0: n},
    )
    rank = linalg.numerical_rank(shifted)
    report = CertificateReport(
        rank <= n - 1,
        f"rank of re-centered points {rank} vs n-1 = {n - 1}",
        rank=rank,
    )
    return prog, meta, report


def build_ttrs(a_mat: SymMatrix, b, alpha: float, beta: float) -> QcqpInstance:
    """Two-sided ball band: min (1/2)x'Ax + b'x over alpha <= x'x <= beta.

    The band is one two-sided row of the identity block, so relax it with
    ``build_cr2``; the lifted set is that block alone and the exactness
    condition always holds (the shifted range misses the lam_min eigenvector).
    """
    if not alpha < beta:
        raise InvalidBounds(f"need alpha < beta, got {alpha} >= {beta}")
    n = a_mat.n
    b = np.asarray(b, dtype=float).reshape(n)
    return _trust_region(
        SymMatrix.from_dense(0.5 * a_mat.dense()),
        0.5 * b,
        0.0,
        [(np.zeros(n), Bound(alpha, beta))],
        [],
    )


def build_vtrs(
    q_mat: SymMatrix,
    c_vec,
    balls_in=(),
    balls_out=(),
    poly_rows=(),
) -> QcqpInstance:
    """Trust-region variant with inside/outside ball constraints and a
    polytope: min x'Qx + c'x with ||x - mu_i|| <= r_i (i in I),
    ||x - mu_j|| >= r_j (j in J) and a_k'x <= b_k.

    Rows come in that order: inside balls, outside balls, polytope rows.
    Relax it with ``build_cr2``, which makes every ball row linear in the
    lifted identity block; ``check_condition_c`` over the lifted set then
    bounds dim(span{a_k, mu_i, mu_j} + R(Q - lam_min I)) by n-1.
    """
    n = q_mat.n
    c_vec = np.asarray(c_vec, dtype=float).reshape(n)
    balls_in = [(np.asarray(m, dtype=float).reshape(n), float(r)) for m, r in balls_in]
    balls_out = [(np.asarray(m, dtype=float).reshape(n), float(r)) for m, r in balls_out]
    poly_rows = [(np.asarray(a, dtype=float).reshape(n), float(bk)) for a, bk in poly_rows]
    if any(r <= 0 for _, r in balls_in + balls_out):
        raise InvalidInput("ball radii must be positive")
    balls = [(mu, Bound(-math.inf, r**2)) for mu, r in balls_in]
    balls += [(mu, Bound(r**2, math.inf)) for mu, r in balls_out]
    return _trust_region(q_mat, 0.5 * c_vec, 0.0, balls, poly_rows)
