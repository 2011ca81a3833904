"""Exact-solution extraction from relaxation optima and the bounded-ratio
approximation for convex-constrained uniform instances.

One tightening routine closes each open lifted cone of a relaxation optimum
in one quadratic step, along a direction that leaves every linear row value
and every other block unchanged, and accepts the point by one test.  The
direction comes from the null space of the rows whose rank the exactness
condition counts, so recovery runs no certificate of its own.
``tighten_qcqp`` serves structured instances and the indefinite split;
``tighten_uq``, for every uniform instance with PSD Q, is its one-block case.
The approximation routine splits the relaxation optimum into two cone-tight
candidates and scales the better one back into the feasible region,
certifying f_0(x) - f_0(x_hat) >= ((1-gamma)/(sqrt(2)+gamma))^2 * v, with v
the relaxation value of f_0 - f_0(x_hat) and gamma measured at the point
x_hat where it centres itself: the point of least gamma, which
``least_gamma`` finds by one cone solve.  A gamma within ``DEGENERATE_GAMMA``
of 1 (or above) there is refused as no interior.  Its point is returned in
the instance's own coordinates.
``round_uq`` rounds an optimum the caller already holds; ``approx_uq`` is
``round_uq`` of its own relaxation solve.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, model, reformulate
from .conesolver import ConeProgram, SocBlock, SolveOptions, SolverResult, solve
from .errors import (
    ConditionNotMet,
    EmptyInterior,
    IdentityViolated,
    InvalidInstance,
    PreconditionViolated,
    SelectionBoundViolated,
    SolverFailed,
    TightenFailed,
    WrongShape,
)
from .model import QcqpInstance, UqInstance

_CLOSED_GAP = 1e-8  # model.tolerance's tol below which a lifted gap is closed
_IDENTITY_TOL = 1e-8  # its tol for the approximation's identities, exact up to roundoff
_TIE = 1e-12  # relative size below which a roundoff tie-break counts a value as zero
# a centre whose gamma reaches 1 - DEGENERATE_GAMMA has no interior at tolerance
DEGENERATE_GAMMA = 1e-6


@dataclass
class TightenTrace:
    """Log of one tightening run: each step records the direction used, the
    step taken, and what closed or activated."""

    steps: list[dict] = field(default_factory=list)
    final_gap: float = math.nan


@dataclass
class ApproxTrace:
    """All intermediate quantities of one approximation run, centred at x_hat."""

    y: np.ndarray
    alpha: float
    s1: np.ndarray
    s2: np.ndarray
    t1: float
    t2: float
    j_bar: int
    x_bar: np.ndarray
    tau_bar: float
    shortcut: bool = False


@dataclass(frozen=True)
class ApproxCertificate:
    lower: float  # f_0 - offset at the returned point
    upper: float  # relaxation value of f_0 - offset
    gamma: float  # at the centre
    guaranteed_ratio: float
    offset: float  # f_0 at the centre
    centre: np.ndarray  # x_hat, the point of least gamma where gamma and offset are measured


def _direction_in_null(null_cols: np.ndarray, b0: np.ndarray):
    """A unit direction in the given null space, preferring b0-orthogonality."""
    w = null_cols.T @ b0
    if null_cols.shape[1] >= 2 and np.linalg.norm(w) > _TIE * np.linalg.norm(b0):
        # one row in two or more dimensions always leaves a null space
        return null_cols @ linalg.null_space_of_rows(w[None, :], null_cols.shape[1])[:, 0]
    return null_cols[:, 0]


def _cone_step(q, x, t, dx, dt, rise, rise_scale) -> float:
    """Step alpha to a root of (x + alpha dx)'Q(x + alpha dx) = t + alpha dt.

    ``rise`` is the rate at which the objective being kept grows along
    (dx, dt).  The root taken does not lower it; when |rise| is within
    ``_TIE`` * ``rise_scale`` of zero, the root nearer zero is taken.
    """
    a2 = float(dx @ q @ dx)
    half = float(dx @ q @ x) - 0.5 * dt
    a0 = float(x @ q @ x) - t
    rt = math.sqrt(max(half * half - a2 * a0, 0.0))
    roots = ((-half + rt) / a2, (-half - rt) / a2)
    if abs(rise) <= _TIE * rise_scale:
        return min(roots, key=abs)
    return max(roots, key=lambda r: r * rise)


def _direction(inst: QcqpInstance, j: int, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """A move (dx, dt) of (x, t_j) with a_ij dt + 2 b_i'dx = 0 for every row i
    that keeps every other block: dx in the null space of block j's
    ``reformulate.union_rows`` with dt = 0 or, when that is empty and the
    rows are b_1..b_n alone (one definite block, p = n), 2B dx = -a[1:, j]
    with dt = 1."""
    null = linalg.null_space_of_rows(rows, inst.n, inst.tol_rank)
    if null.shape[1]:
        return _direction_in_null(null, inst.b[0]), 0.0
    if inst.m == 1 and len(rows) == inst.p == inst.n:
        return np.linalg.solve(2.0 * inst.b[1:], -inst.a[1:, j]), 1.0
    raise ConditionNotMet(
        f"exactness condition fails: no direction closes block {j} and keeps the rows"
    )


def _tighten(
    inst: QcqpInstance, z: np.ndarray, value: float, meta: reformulate.ReformulationMeta
) -> tuple[np.ndarray, TightenTrace]:
    """Close each open lifted cone of the relaxation optimum z, laid out as
    ``meta`` records, in one step, then accept the point only when its gaps
    are closed and its objective is ``value``, the min-sense relaxation
    value, each to ``model.tolerance``; its rows are the caller's to judge.
    Private, so that a wrapper of the public names sees each tightening once."""
    inst = model.as_min(inst)
    x = meta.x_of(z)
    t = {j: float(z[meta.t_index[j]]) for j in meta.lifted}
    closed = model.tolerance(inst, np.array(list(t.values())), _CLOSED_GAP)
    trace = TightenTrace()
    union = {}  # taken on the first open gap; most optima close every cone
    for j, closed_j in zip(meta.lifted, closed):
        qj = inst.blocks[j].dense()
        if t[j] - float(x @ qj @ x) <= closed_j:
            continue
        if not union:
            union = reformulate.union_rows(inst, meta.lifted)
        dx, dt = _direction(inst, j, union[j])
        if float(dx @ qj @ dx) <= 0.0:
            raise ConditionNotMet(f"direction has no energy in block {j}")
        # g_0 is minimized, so the quantity kept from falling is -g_0
        rise = -(inst.a[0, j] * dt + 2.0 * float(inst.b[0] @ dx))
        rise_scale = dt + 2.0 * np.linalg.norm(inst.b[0]) * np.linalg.norm(dx)
        alpha = _cone_step(qj, x, t[j], dx, dt, rise, rise_scale)
        x = x + alpha * dx
        t[j] += alpha * dt
        trace.steps.append({"kind": "close", "block": j, "alpha": alpha, "direction": dx,
                            "dt": dt, "gap": t[j] - float(x @ qj @ x)})
    gaps = [t[j] - float(x @ inst.blocks[j].dense() @ x) for j in meta.lifted]
    trace.final_gap = max(gaps, default=0.0)
    drift = float(inst.values(x)[0]) - value
    t_max = max(map(abs, t.values()), default=0.0)
    gap_tol, drift_tol = model.tolerance(inst, np.array([t_max, value]))
    if trace.final_gap > gap_tol or abs(drift) > drift_tol:
        raise TightenFailed(f"residual gap {trace.final_gap:.2e} or objective drift "
                            f"{drift:.2e} too large", trace)
    return x, trace


def _optimum(res: SolverResult) -> tuple[np.ndarray, float]:
    """The lifted point and min-sense value of an Optimal solve, as
    ``_tighten`` takes them."""
    if res.status != "Optimal":
        raise PreconditionViolated(f"tightening needs an Optimal solve, got {res.status}")
    return res.z, res.objective


def _uq_layout(n: int) -> reformulate.ReformulationMeta:
    """The layout that ``reformulate.build_socp_uq`` records: x, then t."""
    return reformulate.ReformulationMeta(n, "max", lifted=(0,), t_index={0: n})


def tighten_uq(inst: UqInstance, res: SolverResult) -> tuple[np.ndarray, TightenTrace]:
    """Turn a relaxation optimum of a uniform instance with PSD Q into a
    point with the same objective value; its rows are the caller's to judge.

    The one-block case of ``tighten_qcqp``, on ``model.uq_as_qcqp`` with the
    layout of ``reformulate.build_socp_uq`` (x, then t): it moves in the null
    space of the rows [b_1..b_p; N(Q)'] that ``check_as3`` ranks, or, for
    p = n and Q positive definite, along the line that moves t with x.
    """
    return _tighten(model.uq_as_qcqp(inst), *_optimum(res), _uq_layout(inst.n))


def tighten_qcqp(
    inst: QcqpInstance,
    res: SolverResult,
    meta: reformulate.ReformulationMeta,
) -> tuple[np.ndarray, TightenTrace]:
    """Close every open lifted cone of a structured relaxation optimum.

    For each lifted block j with x'Q_j x < t_j, moves x along a direction in
    span{b_1..b_p}^perp intersected with R(Q_j) and the null spaces of the
    other blocks, so that neither the linear rows nor the other blocks move;
    the exactness condition guarantees that direction, and a one-block
    instance with p = n and definite Q, which lacks it, slides t_j with x.
    The instance's ``tol_rank`` decides that condition: the block ranges and
    null spaces at tol_rank * ``model.data_scale``, and the union dimension.
    The instance may have either sense; the moves read its min-sense form.
    A point whose gaps or objective miss ``model.tolerance`` raises
    ``TightenFailed``; its rows are the caller's to judge (``socqp solve``
    judges them at ``--tol-feas``).
    """
    return _tighten(inst, *_optimum(res), meta)


# ---------------------------------------------------------------------------
# approximation for convex-constrained instances
# ---------------------------------------------------------------------------


def gamma_uq(inst: UqInstance) -> float:
    """max_i ||Q^(-1/2) b_i|| / sqrt(u_i - d_i + ||Q^(-1/2) b_i||^2); < 1
    exactly when the origin is strictly interior."""
    return _gamma_terms(inst)[2]


def _gamma_terms(inst: UqInstance):
    """(b_i'Q^(-1)b_i, radicands u_i - d_i + b_i'Q^(-1)b_i, gamma).

    One solve over all p right-hand sides; the first constraint with a
    nonpositive radicand is the one reported.
    """
    if not linalg.inertia(inst.q, model.rank_cut(inst))[0].all():
        raise InvalidInstance("gamma needs positive definite Q")
    _check_one_sided(inst, "gamma")
    bt = inst.b[1:].T
    qb = np.linalg.solve(inst.q.dense(), bt)
    nrm2 = np.vecdot(bt, qb, axis=0)
    radicand = np.array([bd.upper for bd in inst.bounds]) - inst.d[1:] + nrm2
    bad = np.flatnonzero(radicand <= 0.0)
    if bad.size:
        raise InvalidInstance(f"constraint {bad[0] + 1} has nonpositive radicand")
    gamma = float(np.max(np.sqrt(nrm2) / np.sqrt(radicand)))
    return nrm2, radicand, gamma


def tau_bar(inst: UqInstance, x_bar) -> float:
    """Largest tau in [0,1] with f_i(tau x_bar) <= u_i for every i.

    Each constraint gives a convex quadratic in tau with f_i(0) = d_i < u_i,
    so the per-constraint maximum is a closed-form root clamped to [0,1];
    the roots of all rows are taken at once.
    """
    x_bar = np.asarray(x_bar, dtype=float).reshape(inst.n)
    upper = np.array([bd.upper for bd in inst.bounds])
    if np.any(inst.d[1:] > upper):
        raise PreconditionViolated("origin is not feasible")
    rows = upper < math.inf
    lin = 2.0 * np.vecdot(inst.b[1:][rows], x_bar)
    room = upper[rows] - inst.d[1:][rows]
    quad = inst.q.quad(x_bar)
    if quad <= 1e-300:
        ti = np.minimum(1.0, np.divide(room, lin, out=np.ones_like(lin), where=lin > 0.0))
    else:
        disc = lin * lin + 4.0 * quad * room
        ti = np.minimum(1.0, (-lin + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * quad))
    return float(np.maximum(ti, 0.0).min(initial=1.0))


def _check_one_sided(inst: UqInstance, what: str):
    """Raise ``WrongShape`` unless every l_i = -inf and every u_i is finite,
    the convex one-sided shape that ``what`` needs."""
    if any(bd.has_lower or not bd.has_upper for bd in inst.bounds):
        raise WrongShape(f"{what} needs every lower bound -inf and every upper bound finite")


def least_gamma(inst: UqInstance, opts: SolveOptions | None = None) -> tuple[np.ndarray, float]:
    """The centre x_hat of least gamma, and gamma there: the point where the
    rounding's certified ratio ((1-gamma)/(sqrt(2)+gamma))^2 is largest.

    Translation leaves the radicands of ``_gamma_terms`` fixed, so gamma at x
    is max_i ||F x + F Q^(-1) b_i|| / sqrt(radicand_i), with F'F = Q the
    factor of ``linalg.psd_factor``.  One cone solve, min s over (x, s)
    subject to ||F x + F Q^(-1) b_i|| <= sqrt(radicand_i) s, finds x_hat;
    gamma is then evaluated at x_hat from those rows, so it is
    ``gamma_uq`` of the instance moved to x_hat up to roundoff, and it is
    never negative.  Below 1 exactly when the rows have a common strictly
    interior point.  Needs Q positive definite and one-sided finite rows.
    A solve that hits the iteration cap still gives its best iterate when
    gamma there is below 1 - ``DEGENERATE_GAMMA``, since the rounding's
    certificate holds at any such centre; otherwise it raises
    ``SolverFailed``, as any other status does.
    """
    _, radicand, _ = _gamma_terms(inst)
    factor = linalg.psd_factor(inst.q, model.rank_cut(inst))
    # F Q^(-1) = diag(1/sqrt(w)) V' is F with row k divided by w_k = ||F_k||^2
    shift = (factor @ inst.b[1:].T) / np.vecdot(factor, factor)[:, None]
    root = np.sqrt(radicand)
    n = inst.n
    a = np.hstack([factor, np.zeros((n, 1))])  # Q is definite, so F is n x n
    soc = [SocBlock(a, shift[:, i], np.append(np.zeros(n), root[i]), 0.0) for i in range(inst.p)]
    res = solve(ConeProgram(c=np.eye(n + 1)[n], soc=soc), opts)  # min s over (x, s)
    if res.status not in ("Optimal", "MaxIter"):
        raise SolverFailed(f"least-gamma solve ended with status {res.status}")
    x_hat = res.z[:n].copy()
    gamma = float(np.max(np.linalg.norm(factor @ x_hat[:, None] + shift, axis=0) / root))
    if res.status == "MaxIter" and not gamma < 1.0 - DEGENERATE_GAMMA:
        raise SolverFailed(f"least-gamma solve ended with status MaxIter at gamma = {gamma:.9f}")
    return x_hat, gamma


def approx_uq(
    inst: UqInstance, opts: SolveOptions | None = None
) -> tuple[np.ndarray, ApproxTrace, ApproxCertificate]:
    """Feasible point with a certified fraction of the relaxation optimum:
    ``round_uq`` of the optimum of ``reformulate.build_socp_uq(inst)``,
    solved in the instance's own coordinates.  Both cone solves, the
    relaxation and then ``least_gamma``'s, run with ``opts``.  Rows with no
    common point make the relaxation infeasible, which raises
    ``EmptyInterior`` as a centre with no interior does."""
    prog, meta = reformulate.build_socp_uq(inst)
    res = solve(prog, opts)
    if res.status == "Infeasible":
        raise EmptyInterior("the relaxation is infeasible, so the rows have no common point")
    if res.status != "Optimal":
        raise SolverFailed(f"relaxation solve ended with {res.status}")
    return round_uq(inst, meta.x_of(res.z), float(res.z[inst.n]), opts)


def round_uq(
    inst: UqInstance, x, t: float, opts: SolveOptions | None = None
) -> tuple[np.ndarray, ApproxTrace, ApproxCertificate]:
    """Round an optimum (x, t) of the relaxation
    ``reformulate.build_socp_uq(inst)``, given in the instance's own
    coordinates, to a feasible point with a certified fraction of its value.

    (x, t) must be optimal for that relaxation; only the rounding's
    identities are checked.  The rounding centres itself at x_hat, the point
    of least gamma that ``least_gamma`` finds with ``opts``.  The one
    interiority rule: a gamma at x_hat of at least 1 - ``DEGENERATE_GAMMA``
    raises ``EmptyInterior``, naming the row that attains it.  The point
    moves by the affine map (x, t) -> (x - x_hat, t - 2 x_hat'Qx +
    x_hat'Qx_hat), which keeps every row value and the cone.  The
    certificate bounds f_0 - offset, with offset = f_0(x_hat), so any d_0 is
    allowed; the point is returned in the instance's own coordinates.

    When the cone is already tight the point itself is returned (ratio 1).
    Otherwise a companion point y carrying the missing cone energy is folded
    with x into two candidates s_1, s_2 of which at least one scales into the
    feasible region losing at most the certified factor.  An open cone is
    first closed by the tightening of ``tighten_uq`` when the null space of
    the instance's rows at its ``tol_rank`` allows it.
    """
    _check_one_sided(inst, "approximation")
    x_hat, _ = least_gamma(inst, opts)
    inst, offset = model.translate_origin(inst, x_hat)  # from here on, centred at x_hat
    nrm2, radicand, gamma = _gamma_terms(inst)
    if gamma >= 1.0 - DEGENERATE_GAMMA:
        worst = int(np.argmax(nrm2 / radicand)) + 1
        raise EmptyInterior(
            f"centring point is not strictly interior: gamma = {gamma:.9f} >= "
            f"1 - {DEGENERATE_GAMMA:g}, attained at f_{worst}"
        )
    x = np.asarray(x, dtype=float).reshape(inst.n)
    qx_hat = inst.q @ x_hat
    x_star = x - x_hat
    t_star = float(t) - 2.0 * float(qx_hat @ x) + float(qx_hat @ x_hat)
    value = t_star + 2.0 * float(inst.b[0] @ x_star)
    ratio = ((1.0 - gamma) / (math.sqrt(2.0) + gamma)) ** 2
    qd = inst.q.dense()
    # close an open cone where the tightening finds a direction, and take the shortcut
    with contextlib.suppress(ConditionNotMet, TightenFailed):
        x_star, _ = _tighten(model.uq_as_qcqp(inst), np.append(x_star, t_star), -value,
                             _uq_layout(inst.n))
    xqx = float(x_star @ qd @ x_star)
    gap = t_star - xqx
    # a nonnegative cone gap only slackens one-sided rows, so x* is feasible
    # whenever the gap is small; its value is the optimum minus the gap
    f_star = xqx + 2.0 * float(inst.b[0] @ x_star)
    gap_tol, value_tol = model.tolerance(inst, np.array([t_star, value]))
    if gap <= gap_tol or value - f_star <= value_tol:
        trace = ApproxTrace(
            y=np.zeros(inst.n), alpha=0.0, s1=x_star.copy(), s2=np.zeros(inst.n),
            t1=1.0, t2=0.0, j_bar=1, x_bar=x_star.copy(), tau_bar=1.0, shortcut=True,
        )
        fx = float(inst.values(x_star)[0])
        return x_star + x_hat, trace, ApproxCertificate(fx, value, gamma, ratio, offset, x_hat)

    # companion point with the missing cone energy: x*'Qx* + y'Qy = t*
    w, v = linalg.sym_eig(inst.q)
    rho = math.sqrt(gap)
    y = rho * (v[:, 0] / math.sqrt(w[0]))
    cone_tol, split_tol = model.tolerance(inst, np.array([t_star, value]), _IDENTITY_TOL)
    if abs(xqx + float(y @ qd @ y) - t_star) > cone_tol:
        raise IdentityViolated("companion point does not close the cone: x'Qx + y'Qy != t")

    # alpha > 0 with f_0(x* + alpha y) = value
    a2 = float(y @ qd @ y)
    a1 = 2.0 * float(x_star @ qd @ y) + 2.0 * float(inst.b[0] @ y)
    a0 = f_star - value
    disc = a1 * a1 - 4.0 * a2 * a0
    alpha = max((-a1 + math.sqrt(max(disc, 0.0))) / (2.0 * a2), 0.0)
    denom = math.sqrt(1.0 + alpha * alpha)
    s1 = (x_star + alpha * y) / denom
    s2 = (alpha * x_star - y) / denom
    t1 = 1.0 / denom
    t2 = alpha / denom

    # split identity: the two cone-tight candidates share the optimum
    lhs = (
        float(s1 @ qd @ s1) + 2.0 * t1 * float(inst.b[0] @ s1)
        + float(s2 @ qd @ s2) + 2.0 * t2 * float(inst.b[0] @ s2)
    )
    if abs(lhs - value) > split_tol:
        raise IdentityViolated(
            f"split candidates do not share the optimum: {lhs:.12g} != {value:.12g}"
        )

    def selection_bound(s, tj):
        """max_i ||Q^(1/2) (x + Q^(-1) b_i)|| / sqrt(radicand_i) at x = s/tj,
        read from the rows: the squared norm is f_i(x) - d_i + b_i'Q^(-1)b_i."""
        x = s / tj
        num2 = inst.q.quad(x) + 2.0 * (inst.b[1:] @ x) + nrm2
        return float(np.max(np.sqrt(np.maximum(num2, 0.0) / radicand)))

    candidates = []
    if t1 > 1e-10:
        candidates.append((1, s1, t1, selection_bound(s1, t1)))
    if t2 > 1e-10:
        candidates.append((2, s2, t2, selection_bound(s2, t2)))
    limit = math.sqrt(2.0) * (1.0 + 1e-9) + _TIE
    admissible = [c for c in candidates if c[3] <= limit]
    if not admissible:
        raise SelectionBoundViolated("no candidate satisfies the sqrt(2) selection bound")
    if len(admissible) == 2:
        admissible.sort(key=lambda c: -float(inst.b[0] @ (c[1] / c[2])))
    j_bar, s_j, t_j, _ = admissible[0]

    x_bar = s_j / t_j
    if float(inst.b[0] @ x_bar) < 0.0:
        x_bar = -x_bar
    tau = tau_bar(inst, x_bar)
    x_out = tau * x_bar
    fx = float(inst.values(x_out)[0])
    cert = ApproxCertificate(fx, value, gamma, ratio, offset, x_hat)
    if fx < ratio * value - value_tol:
        raise TightenFailed(
            f"certified ratio violated: f_0 = {fx:.6e} < {ratio:.4f} * {value:.6e}",
            None,
        )
    trace = ApproxTrace(
        y=y, alpha=alpha, s1=s1, s2=s2, t1=t1, t2=t2, j_bar=j_bar,
        x_bar=x_bar, tau_bar=tau,
    )
    return x_out + x_hat, trace, cert
