"""Builders mapping each problem class to a cone program, plus executable
certifiers for the exactness conditions.

Every builder returns a ``QcqpInstance`` or the program and meta of the one
assembler, ``_assemble``; each exactness certificate is its own call:
``check_as3`` (uniform with PSD Q, condition C of the one-block view),
``check_indefinite`` (the indefinite split) and ``check_condition_c``
(structured).  ``pipeline.solve_instance`` pairs them for ``socqp solve``.
The special cases (``build_trs``, ``build_etrs``, ``build_ttrs``,
``build_vtrs``, and ``build_wd`` in the units of ``wd_units``) return an
instance that goes through ``build_cr``/``build_cr2``, ``check_condition_c``
and ``recover.tighten_qcqp``.  The builders, the lift sets and recovery take an
instance of either sense and read its objective through ``model.as_min``;
the meta records the instance's own sense.  The uniform relaxations are
``build_cr2`` of the max-sense views ``model.uq_as_qcqp`` (``build_socp_uq``,
which names the split when Q is indefinite) and ``split_indefinite``.

Next to ``check_as3`` sit the closed-form Lagrangian dual of a uniform
instance with PSD Q (``dual_value``) and ``certify_strong_duality``, which
checks a relaxation solve against that dual at the solve's own multipliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .conesolver import ConeProgram, SocBlock, SolverResult
from .errors import InvalidBounds, InvalidInput, InvalidMultiplier, WrongShape
from .linalg import DEFAULT_RANK_TOL, SymMatrix
from .model import Bound, QcqpInstance, UqInstance, as_min, rank_cut, tolerance, uq_as_qcqp


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
    (None when that side is infinite or encoded in a cone).
    """

    n: int
    sense: str  # sense of the original problem: 'min' or 'max'
    lifted: tuple[int, ...] = ()
    t_index: dict[int, int] = field(default_factory=dict)
    row_map: list[tuple[int | None, int | None]] = field(default_factory=list)
    epi_index: int | None = None

    def x_of(self, z) -> np.ndarray:
        return np.asarray(z, dtype=float)[: self.n].copy()

    def original_value(self, res: SolverResult) -> float:
        return res.objective if self.sense == "min" else -res.objective


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

    This is the two-sided relaxation of the one-block view
    ``model.uq_as_qcqp``.
    """
    try:
        view = uq_as_qcqp(inst)
    except InvalidInput as exc:  # the view's only check a UqInstance can fail: Q PSD
        raise WrongShape(
            "Q is indefinite; use build_cr2(split_indefinite(inst)) for the split relaxation"
        ) from exc
    return build_cr2(view)


def check_as3(inst: UqInstance) -> CertificateReport:
    """Exactness condition for the uniform relaxation with PSD Q:
    rank[b_1, ..., b_p; N(Q)'] <= n-1, or p = n with Q positive definite.

    The rows are those of ``union_rows`` on the one-block view
    ``model.uq_as_qcqp``, so this is that view's condition C; for positive
    definite Q, N(Q) is empty and the rows are the b_i alone.
    """
    rank = linalg.numerical_rank(union_rows(uq_as_qcqp(inst), (0,))[0], inst.tol_rank)
    if rank <= inst.n - 1:
        return CertificateReport(
            True, f"rank of [b_1..b_p; N(Q)'] is {rank} <= n-1 = {inst.n - 1}", rank=rank
        )
    if inst.p != inst.n:
        why = f"p = {inst.p} != n = {inst.n}"
    elif linalg.inertia(inst.q, rank_cut(inst))[0].all():
        return CertificateReport(True, f"p = n = {inst.n}", rank=rank)
    else:
        why = "Q is not positive definite"
    return CertificateReport(False, f"rank {rank} > n-1 = {inst.n - 1} and {why}", rank=rank)


def dual_value(inst: UqInstance, lam) -> float:
    """Evaluate the dual function d(lam) of a PSD instance at the signed
    multipliers lam_i = lam_i^+ - lam_i^- of its p rows.

    With sigma = 1 - sum(lam), beta = b_0 - sum(lam_i b_i) and the constant
    kappa = -sum(lam_i d_i) + sum(lam_i^+ u_i - lam_i^- l_i) + d_0:
    d(lam) = kappa - beta' Q^+ beta / sigma  when sigma < 0 and beta lies in
    the range of Q, kappa when sigma = 0 and beta = 0, and +inf otherwise
    (the inner sup over x is unbounded).  Q^+ and its range are read from
    the rows F of ``linalg.psd_factor``, the spectrum that the relaxation's
    cone encodes; beta is zero up to ``model.tolerance`` at tol sqrt(1e-9).
    """
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if not np.all(np.isfinite(lam)):
        raise InvalidMultiplier("multipliers must be finite")
    if lam.size != inst.p:
        raise InvalidMultiplier(f"expected {inst.p} multipliers, got {lam.size}")
    factor = linalg.psd_factor(inst.q, rank_cut(inst))

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
    beta_zero = tolerance(inst, 0.0, math.sqrt(_DUAL_ZERO_TOL))
    if sigma < 0.0:
        # F = diag(sqrt(w)) V', so y = F beta / w = V'beta / sqrt(w) has
        # ||y||^2 = beta'Q^+ beta, and F'y is beta's projection on the range
        y = (factor @ beta) / np.einsum("ij,ij->i", factor, factor)
        if np.linalg.norm(beta - factor.T @ y) <= beta_zero:
            return kappa - float(y @ y) / sigma
        return math.inf
    if sigma <= _DUAL_ZERO_TOL * sig_scale and np.linalg.norm(beta) <= beta_zero:
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
    certificate holds when they agree to ``model.tolerance(inst, value)``.

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
    value = -res.objective  # the relaxation minimises -f_0
    dval = dual_value(inst, lam)
    gap = dval - value
    holds = bool(abs(gap) <= tolerance(inst, value))
    return StrongDualityReport(holds, gap, value, dval, lam)


def split_indefinite(inst: UqInstance) -> QcqpInstance:
    """Spectral split of an indefinite uniform instance into a two-block
    structured instance maximizing g_0 = f_0, with g_i = f_i.

    Q = Q1 - Q2 with Q1 from positive and Q2 from negated negative
    eigenpairs; eigenvalues within tolerance of zero enter neither block, so
    the blocks' ranks (r1, r2) are minimal.
    """
    w, v = linalg.sym_eig(inst.q)
    pos, neg = linalg.inertia(inst.q, rank_cut(inst))
    if not (pos.any() and neg.any()):
        raise WrongShape("Q is semidefinite; use build_socp_uq (possibly negated)")
    q1 = SymMatrix.from_dense((v[:, pos] * w[pos]) @ v[:, pos].T)
    q2 = SymMatrix.from_dense((v[:, neg] * -w[neg]) @ v[:, neg].T)
    a = np.tile([1.0, -1.0], (inst.p + 1, 1))
    return QcqpInstance(
        inst.n, [q1, q2], a, inst.b, inst.d, list(inst.bounds), sense="max", tol_rank=inst.tol_rank
    )


def check_indefinite(inst: UqInstance) -> CertificateReport:
    """Exactness condition for the split relaxation of an indefinite
    instance: rank[b_1, ..., b_p] <= min(r1, r2) - 1, with r1 and r2 the
    numbers of positive and negative eigenvalues of Q."""
    pos, neg = linalg.inertia(inst.q, rank_cut(inst))
    rank = linalg.numerical_rank(inst.b[1:], inst.tol_rank)
    thresh = min(int(pos.sum()), int(neg.sum())) - 1
    return CertificateReport(
        rank <= thresh,
        f"rank of constraint terms {rank} vs min(r1, r2)-1 = {thresh}",
        rank=rank,
    )


# ---------------------------------------------------------------------------
# structured QCQP
# ---------------------------------------------------------------------------


def lift_set_onesided(inst: QcqpInstance) -> tuple[int, ...]:
    """Blocks that must be lifted in the one-sided relaxation: any block with
    a -1 sign somewhere (the min-sense objective included)."""
    a = as_min(inst).a
    return tuple(j for j in range(inst.m) if np.any(a[:, j] == -1.0))


def lift_set_twosided(inst: QcqpInstance) -> tuple[int, ...]:
    """Blocks lifted in the two-sided relaxation: a -1 sign in the min-sense
    objective or any appearance in a constraint."""
    a = as_min(inst).a
    return tuple(
        j
        for j in range(inst.m)
        if a[0, j] == -1.0 or np.any(a[1:, j] != 0.0)
    )


def _residual_factor(inst: QcqpInstance, summed: np.ndarray, factors: dict, cut: float):
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
        factors[key] = linalg.psd_factor(residual, cut) if nonzero else None
    return factors[key]


def _assemble(inst: QcqpInstance, lift_set) -> tuple[ConeProgram, ReformulationMeta]:
    """Lifted relaxation of a structured instance over the blocks that
    ``lift_set`` picks from its min-sense form ``model.as_min(inst)``.

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
    sense, inst = inst.sense, as_min(inst)
    lifted = lift_set(inst)
    n, p, k = inst.n, inst.p, len(lifted)
    summed = inst.a == 1.0
    summed[:, list(lifted)] = False
    factors: dict = {}
    cut = rank_cut(inst)
    factor0 = _residual_factor(inst, summed[0], factors, cut)
    nv = n + k + (factor0 is not None)
    epi = n + k if factor0 is not None else None
    t_index = {j: n + pos for pos, j in enumerate(lifted)}
    expr = np.zeros((p + 1, nv))  # row i: the (x, t) part of g_i
    expr[:, :n] = 2.0 * inst.b
    expr[:, n : n + k] = inst.a[:, list(lifted)]
    c = expr[0].copy()
    unit = np.eye(nv)
    soc = [
        quad_epigraph(linalg.psd_factor(inst.blocks[j], cut), nv, unit[t_index[j]], 0.0)
        for j in lifted
    ]
    if epi is not None:
        c[epi] = 1.0
        soc.append(quad_epigraph(factor0, nv, unit[epi], 0.0))

    upper = np.array([bd.upper for bd in inst.bounds])
    lower = np.array([bd.lower for bd in inst.bounds])
    linear = np.ones(p, dtype=bool)
    for i in np.flatnonzero(summed[1:].any(axis=1) & (upper < math.inf)):
        factor_i = _residual_factor(inst, summed[i + 1], factors, cut)
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
        sense=sense,
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
    return _assemble(inst, lift_set_onesided)


def build_cr2(inst: QcqpInstance) -> tuple[ConeProgram, ReformulationMeta]:
    """Two-sided relaxation: every block appearing in a constraint is lifted,
    so all constraint rows become linear in (x, t)."""
    return _assemble(inst, lift_set_twosided)


def union_rows(inst: QcqpInstance, j_set) -> dict[int, np.ndarray]:
    """Rows spanning span{b_1..b_p} + N(Q_j) + sum_{i != j} R(Q_i), for each
    block j in ``j_set``.

    Their rank is the union dimension of the exactness condition, and their
    orthogonal complement holds the directions along which recovery closes
    block j.  Each block's spectrum is split once, by
    ``linalg.range_and_null`` at tol_rank * ``model.data_scale``; the bases
    have unit rows and the b_i are divided by the largest ||b_i||, so the
    rank of the stack does not move with the data's scale.
    """
    cut = rank_cut(inst)
    split = [linalg.range_and_null(q, cut) for q in inst.blocks]
    b = inst.b[1:] / max(float(np.linalg.norm(inst.b[1:], axis=1).max(initial=0.0)), np.finfo(float).tiny)
    return {
        j: np.vstack([b, split[j][1].T] + [split[i][0].T for i in range(inst.m) if i != j])
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
    and every sign stays in {-1, 0, 1}; when ``linalg.inertia`` at the default
    tolerance times max|A_ij| reads lam_min as zero, s = 1 and the identity
    block leaves the objective.  Each ball row is s x'x - 2s mu'x + s||mu||^2
    against s lo and s hi; each row is linear.
    """
    n = a_mat.n
    w, _ = linalg.sym_eig(a_mat)
    lam_min = float(w[-1])
    pos, neg = linalg.inertia(a_mat, DEFAULT_RANK_TOL * float(np.abs(a_mat.packed).max()))
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


def wd_units(x0, r0: float, points, weights) -> tuple[float, float]:
    """Units (R, S) of the ``build_wd`` instance: R = max(r0, max_i
    ||z_i - x0||) and S = min_i w_i R^2, so that its point (u, sigma) maps
    back as x = x0 + R u with dispersion S sigma."""
    shifted = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(x0, dtype=float)
    length = max(float(r0), float(np.linalg.norm(shifted, axis=1).max(initial=0.0)))
    return length, float(np.min(weights)) * length**2


def build_wd(x0, r0: float, points, weights) -> QcqpInstance:
    """Weighted max-min dispersion over a ball: maximize min_i w_i ||x - z_i||^2
    over ||x - x0|| <= r0, as a max-sense structured instance in (u, sigma)
    with the one block diag(I_n, 0), in the units (R, S) of ``wd_units``:
    x = x0 + R u and s = S sigma.  With v_i = w_min / w_i and
    c_i = (z_i - x0) / R, row 0 is sigma; row i is
    v_i sigma - u'u + 2 c_i'u <= ||c_i||^2, that is s <= w_i ||x - z_i||^2;
    the last row is u'u <= (r0/R)^2.  Every entry is then at most 1 and the
    block's is 1, so rank decisions do not move when the points, the radius
    or the weights are rescaled.  Relax it with ``build_cr``;
    ``check_condition_c`` over the lifted set then tests rank[c_i] <= n-1.
    """
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
    length, _ = wd_units(x0, r0, points, weights)
    shifted = (points - x0[None, :]) / length
    block = np.zeros((n + 1, n + 1))
    block[:n, :n] = np.eye(n)
    signs = np.concatenate([[0.0], -np.ones(p), [1.0]])[:, None]
    lin = np.zeros((p + 2, n + 1))
    lin[0, n] = 0.5
    lin[1 : p + 1, :n] = shifted
    lin[1 : p + 1, n] = 0.5 * weights.min() / weights
    bounds = [Bound(-math.inf, float(z @ z)) for z in shifted]
    bounds.append(Bound(-math.inf, (r0 / length) ** 2))
    return QcqpInstance(
        n + 1, [SymMatrix.from_dense(block)], signs, lin, np.zeros(p + 2), bounds, sense="max"
    )


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
