"""Exact-solution extraction from relaxation optima and the bounded-ratio
approximation for convex-constrained uniform instances.

The tightening procedures close each open lifted cone of a relaxation
optimum in one quadratic step along a direction that leaves every linear row
value unchanged; the exactness conditions are what supply that direction.
``tighten_uq`` serves every uniform instance with PSD Q, singular or not;
``tighten_qcqp`` serves structured instances and the indefinite split.
The approximation routine splits the relaxation optimum into two cone-tight
candidates and scales the better one back into the feasible region,
certifying f_0(x) >= ((1-gamma)/(sqrt(2)+gamma))^2 * v(relaxation).
Instances whose origin is not interior are moved onto a strictly interior
point found by ``find_interior_point`` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, model, reformulate
from .conesolver import ConeProgram, SolveOptions, SolverResult, solve
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

_CLOSED_GAP = 1e-8  # a lifted gap below this, relative to 1 + |t_j|, is closed
_RATIO_ABS_TOL = 1e-8  # absolute slack on the certified approximation ratio
_INTERIOR_MARGIN = 1e-8  # margin that an interior point must exceed


@dataclass
class TightenTrace:
    """Log of one tightening run: each step records the direction used, the
    step taken, and what closed or activated."""

    steps: list[dict] = field(default_factory=list)
    final_gap: float = math.nan


@dataclass
class ApproxTrace:
    """All intermediate quantities of one approximation run."""

    y: np.ndarray
    alpha: float
    s1: np.ndarray
    s2: np.ndarray
    t1: float
    t2: float
    j_bar: int
    x_bar: np.ndarray
    tau_bar: float
    gamma: float
    guaranteed_ratio: float
    shortcut: bool = False


@dataclass(frozen=True)
class ApproxCertificate:
    lower: float  # f_0 at the returned point
    upper: float  # relaxation value
    gamma: float
    guaranteed_ratio: float


def _direction_in_null(null_cols: np.ndarray, b0: np.ndarray):
    """A unit direction in the given null space, preferring b0-orthogonality."""
    w = null_cols.T @ b0
    nw = np.linalg.norm(w)
    if nw <= 1e-12 * (1.0 + np.linalg.norm(b0)):
        return null_cols[:, 0]
    if null_cols.shape[1] >= 2:
        comp = linalg.null_space_of_rows(w[None, :], null_cols.shape[1])
        if comp.shape[1]:
            return null_cols @ comp[:, 0]
    return null_cols[:, 0]


def _cone_step(q, x, t, dx, dt, rise, rise_scale) -> float:
    """Step alpha to a root of (x + alpha dx)'Q(x + alpha dx) = t + alpha dt.

    ``rise`` is the rate at which the objective being kept grows along
    (dx, dt).  The root taken does not lower it; when |rise| is within
    1e-12 * ``rise_scale`` of zero, the root nearer zero is taken.
    """
    a2 = float(dx @ q @ dx)
    half = float(dx @ q @ x) - 0.5 * dt
    a0 = float(x @ q @ x) - t
    rt = math.sqrt(max(half * half - a2 * a0, 0.0))
    roots = ((-half + rt) / a2, (-half - rt) / a2)
    if abs(rise) <= 1e-12 * rise_scale:
        return min(roots, key=abs)
    return max(roots, key=lambda r: r * rise)


def tighten_uq(inst: UqInstance, res: SolverResult) -> tuple[np.ndarray, TightenTrace]:
    """Turn a relaxation optimum of a uniform instance with PSD Q into a
    feasible point of the original problem with the same objective value.

    Requires the exactness certificate ``reformulate.check_as3`` to hold.
    It gives a direction (dx, dt) with 2 b_i'dx + dt = 0 for every row, so
    moving along it leaves every row value t + 2 b_i'x + d_i unchanged: dx in
    the null space of the certificate's rows [b_1..b_p; N(Q)'] with dt = 0
    when their rank is at most n - 1, otherwise (p = n, Q positive definite)
    dx = -(2B)^(-1) e with dt = 1.  A dx with no energy in Q (dx'Q dx <= 0)
    raises ``ConditionNotMet``; otherwise one quadratic step along it closes
    the cone x'Qx = t without lowering f_0, to a point feasible within
    1e-6 * ``model.data_scale``.  The instance's ``tol_rank`` is the relative
    rank tolerance of the certificate and of the null space.
    """
    if res.status != "Optimal":
        raise PreconditionViolated(f"tightening needs an Optimal solve, got {res.status}")
    cert = reformulate.check_as3(inst)
    if not cert.holds:
        raise ConditionNotMet(f"exactness condition fails: {cert.reason}")
    x = res.z[: inst.n].copy()
    t = float(res.z[inst.n])
    value = -res.objective
    qd = inst.q.dense()
    trace = TightenTrace()
    gap = t - float(x @ qd @ x)
    if gap > 1e-6 * (1.0 + abs(t)):
        if cert.rank <= inst.n - 1:
            rows = reformulate.union_rows(model.uq_as_qcqp(inst), (0,))[0]
            null = linalg.null_space_of_rows(rows, inst.n, inst.tol_rank)
            dx, dt = _direction_in_null(null, inst.b[0]), 0.0
        else:
            dx, dt = np.linalg.solve(2.0 * inst.b[1:], -np.ones(inst.n)), 1.0
        if float(dx @ qd @ dx) <= 0.0:
            raise ConditionNotMet("tightening direction has no energy in Q")
        rise = dt + 2.0 * float(inst.b[0] @ dx)
        rise_scale = 1.0 + dt + 2.0 * np.linalg.norm(inst.b[0]) * np.linalg.norm(dx)
        alpha = _cone_step(qd, x, t, dx, dt, rise, rise_scale)
        x = x + alpha * dx
        t = t + alpha * dt
        gap = t - float(x @ qd @ x)
        trace.steps.append(
            {"kind": "close", "alpha": alpha, "direction": dx.copy(), "dt": dt, "gap": gap}
        )
    trace.final_gap = gap
    fx = float(inst.values(x)[0])
    scale = 1.0 + abs(value)
    if gap > 1e-6 * (1.0 + abs(t)) or abs(fx - value) > 1e-5 * scale:
        raise TightenFailed(
            f"residual gap {gap:.2e} or objective drift {fx - value:.2e} too large",
            trace,
        )
    if not inst.is_feasible(x, tol=1e-6 * model.data_scale(inst)):
        raise TightenFailed("tightened point is infeasible", trace)
    return x, trace


def tighten_qcqp(
    inst: QcqpInstance,
    res: SolverResult,
    meta: reformulate.ReformulationMeta,
) -> tuple[np.ndarray, TightenTrace]:
    """Close every open lifted cone of a structured relaxation optimum.

    For each lifted block j with x'Q_j x < t_j, moves x along a direction in
    span{b_1..b_p}^perp intersected with R(Q_j) and the null spaces of the
    other blocks; the exactness condition guarantees such a direction exists,
    and the move changes neither the linear rows nor the other blocks.
    The instance's ``tol_rank`` decides that condition: the block ranges and
    null spaces at tol_rank * ``model.data_scale``, and the union dimension.
    The instance may have either sense; the moves read its min-sense form.
    """
    if res.status != "Optimal":
        raise PreconditionViolated(f"tightening needs an Optimal solve, got {res.status}")
    inst = model.as_min(inst)
    x = meta.x_of(res.z)
    trace = TightenTrace()
    if not meta.lifted:
        trace.final_gap = 0.0
        return x, trace
    union = {}  # taken on the first open gap; most optima close every cone
    for j in meta.lifted:
        qj = inst.blocks[j].dense()
        tj = float(res.z[meta.t_index[j]])
        gap = tj - float(x @ qj @ x)
        if gap <= _CLOSED_GAP * (1.0 + abs(tj)):
            continue
        if not union:
            union = reformulate.union_rows(inst, meta.lifted)
        subspace = linalg.null_space_of_rows(union[j], inst.n, inst.tol_rank)
        if subspace.shape[1] == 0:
            raise ConditionNotMet(
                f"no tightening direction for block {j}; the exactness "
                "condition does not hold numerically"
            )
        direction = _direction_in_null(subspace, inst.b[0])
        if float(direction @ qj @ direction) <= 0.0:
            raise ConditionNotMet(f"direction has no energy in block {j}")
        # g_0 is minimized, so the quantity kept from falling is -g_0
        rise = -float(inst.b[0] @ direction)
        alpha = _cone_step(qj, x, tj, direction, 0.0, rise, 1.0 + np.linalg.norm(inst.b[0]))
        x = x + alpha * direction
        trace.steps.append(
            {"kind": "block_close", "block": j, "alpha": alpha, "direction": direction.copy()}
        )
    gaps = [
        float(res.z[meta.t_index[j]]) - inst.blocks[j].quad(x) for j in meta.lifted
    ]
    trace.final_gap = max(gaps, default=0.0)
    if trace.final_gap > 1e-6 * (1.0 + max(abs(float(res.z[meta.t_index[j]])) for j in meta.lifted)):
        raise TightenFailed("a lifted gap stayed open", trace)
    return x, trace


# ---------------------------------------------------------------------------
# approximation for convex-constrained instances
# ---------------------------------------------------------------------------


def gamma_uq(inst: UqInstance) -> float:
    """max_i ||Q^(-1/2) b_i|| / sqrt(u_i - d_i + ||Q^(-1/2) b_i||^2); < 1
    exactly when the origin is strictly interior."""
    return _gamma_terms(inst)[2]


def _gamma_terms(inst: UqInstance):
    """(Q^(-1) b_i as columns, radicands u_i - d_i + b_i'Q^(-1)b_i, gamma).

    One solve over all p right-hand sides; the bounds and radicands
    are then checked in constraint order, so the first offending constraint
    is the one reported.
    """
    if not linalg.inertia(inst.q, inst.tol_rank * model.data_scale(inst))[0].all():
        raise InvalidInstance("gamma needs positive definite Q")
    bt = inst.b[1:].T
    qb = np.linalg.solve(inst.q.dense(), bt)
    nrm2 = np.vecdot(bt, qb, axis=0)
    upper = np.array([bd.upper for bd in inst.bounds])
    radicand = upper - inst.d[1:] + nrm2
    for i, bd in enumerate(inst.bounds):
        if not bd.has_upper:
            raise WrongShape("gamma is defined for finite upper bounds only")
        if radicand[i] <= 0.0:
            raise InvalidInstance(f"constraint {i + 1} has nonpositive radicand")
    gamma = float(np.max(np.sqrt(nrm2) / np.sqrt(radicand)))
    return qb, radicand, gamma


def tau_bar(inst: UqInstance, x_bar) -> float:
    """Largest tau in [0,1] with f_i(tau x_bar) <= u_i for every i.

    Each constraint gives a convex quadratic in tau with f_i(0) = d_i < u_i,
    so the per-constraint maximum is a closed-form root clamped to [0,1].
    """
    x_bar = np.asarray(x_bar, dtype=float).reshape(inst.n)
    for i, bd in enumerate(inst.bounds):
        if bd.has_upper and inst.d[i + 1] > bd.upper:
            raise PreconditionViolated("origin is not feasible")
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


def _check_approx_shape(inst: UqInstance):
    if any(bd.has_lower for bd in inst.bounds):
        raise WrongShape("approximation needs all lower bounds = -inf")
    if not all(bd.has_upper for bd in inst.bounds):
        raise WrongShape("approximation needs every upper bound finite")
    if abs(float(inst.d[0])) > 0.0:
        raise PreconditionViolated("approximation requires d_0 = 0; translate first")
    for i, bd in enumerate(inst.bounds):
        if inst.d[i + 1] >= bd.upper:
            raise PreconditionViolated(
                f"origin is not strictly interior: d_{i + 1} >= u_{i + 1}"
            )


def find_interior_point(inst: UqInstance) -> tuple[np.ndarray, float]:
    """Point with strictly positive slack in every upper bound, plus its margin.

    Solves max s subject to t + 2 b_i'x + d_i + s <= u_i and x'Qx <= t with
    the cone solver.  Requires the one-sided convex shape (every l_i = -inf,
    every u_i finite).
    """
    if any(bd.has_lower for bd in inst.bounds):
        raise WrongShape("interior-point search expects all lower bounds = -inf")
    if not all(bd.has_upper for bd in inst.bounds):
        raise WrongShape("interior-point search expects every upper bound finite")
    n = inst.n
    nv = n + 2  # variables (x, t, s)
    c = np.zeros(nv)
    c[n + 1] = -1.0  # maximize s
    g = np.ones((inst.p, nv))
    g[:, :n] = 2.0 * inst.b[1:]
    h = np.array([bd.upper for bd in inst.bounds]) - inst.d[1:]
    factor = linalg.psd_factor(inst.q, inst.tol_rank * model.data_scale(inst))
    cone = reformulate.quad_epigraph(factor, nv, np.eye(nv)[n], 0.0)
    res = solve(ConeProgram(c=c, g=g, h=h, soc=[cone]))
    if res.status != "Optimal":
        raise EmptyInterior(f"interior search ended with status {res.status}")
    margin = -res.objective
    if margin <= _INTERIOR_MARGIN:
        raise EmptyInterior(
            f"best margin {margin:.3e} is within tolerance {_INTERIOR_MARGIN:g}"
        )
    return res.z[:n].copy(), float(margin)


def approx_uq(
    inst: UqInstance, opts: SolveOptions | None = None
) -> tuple[np.ndarray, ApproxTrace, ApproxCertificate]:
    """Feasible point with a certified fraction of the relaxation optimum.

    Solves the relaxation; when the cone is already tight the optimum itself
    is returned (ratio 1).  Otherwise a companion point y carrying the
    missing cone energy is folded with x* into two candidates s_1, s_2 of
    which at least one scales into the feasible region losing at most the
    certified factor.  ``check_as3`` at the instance's ``tol_rank`` decides
    whether the cone can be closed exactly.
    """
    _check_approx_shape(inst)
    qb, radicand, gamma = _gamma_terms(inst)
    ratio = ((1.0 - gamma) / (math.sqrt(2.0) + gamma)) ** 2
    prog, meta = reformulate.build_socp_uq(inst)
    res = solve(prog, opts)
    if res.status != "Optimal":
        raise SolverFailed(f"relaxation solve ended with {res.status}")
    value = meta.original_value(res)
    x_star = meta.x_of(res.z)
    t_star = float(res.z[inst.n])
    qd = inst.q.dense()
    xqx = float(x_star @ qd @ x_star)
    scale = 1.0 + abs(t_star)

    gap = t_star - xqx
    if gap > 1e-9 * scale:
        # exact instance (tighten_uq certifies it): close the cone, take the shortcut
        try:
            x_star, _ = tighten_uq(inst, res)
            xqx = float(x_star @ qd @ x_star)
            gap = t_star - xqx
        except (ConditionNotMet, TightenFailed):
            pass
    # a nonnegative cone gap only slackens one-sided rows, so x* is feasible
    # whenever the gap is small; its value is the optimum minus the gap
    f_star = xqx + 2.0 * float(inst.b[0] @ x_star)
    if gap <= 1e-6 * scale or value - f_star <= 1e-6 * (1.0 + abs(value)):
        trace = ApproxTrace(
            y=np.zeros(inst.n), alpha=0.0, s1=x_star.copy(), s2=np.zeros(inst.n),
            t1=1.0, t2=0.0, j_bar=1, x_bar=x_star.copy(), tau_bar=1.0,
            gamma=gamma, guaranteed_ratio=ratio, shortcut=True,
        )
        fx = float(inst.values(x_star)[0])
        return x_star, trace, ApproxCertificate(fx, value, gamma, ratio)

    # companion point with the missing cone energy: x*'Qx* + y'Qy = t*
    w, v = linalg.sym_eig(inst.q)
    rho = math.sqrt(gap)
    y = rho * (v[:, 0] / math.sqrt(w[0]))
    if abs(xqx + float(y @ qd @ y) - t_star) > 1e-8 * scale:
        raise IdentityViolated("companion point does not close the cone: x'Qx + y'Qy != t")

    # alpha > 0 with f_0(x* + alpha y) = value
    a2 = float(y @ qd @ y)
    a1 = 2.0 * float(x_star @ qd @ y) + 2.0 * float(inst.b[0] @ y)
    a0 = f_star - value
    disc = a1 * a1 - 4.0 * a2 * a0
    alpha = (-a1 + math.sqrt(max(disc, 0.0))) / (2.0 * a2)
    if alpha < 1e-10:
        alpha = max(alpha, 0.0)
    denom = math.sqrt(1.0 + alpha * alpha)
    s1 = (x_star + alpha * y) / denom
    s2 = (alpha * x_star - y) / denom
    t1 = 1.0 / denom
    t2 = alpha / denom
    if abs(t1 * t1 + t2 * t2 - 1.0) > 1e-12:
        raise IdentityViolated("split weights are not normalized: t1^2 + t2^2 != 1")

    # split identity: the two cone-tight candidates share the optimum
    lhs = (
        float(s1 @ qd @ s1) + 2.0 * t1 * float(inst.b[0] @ s1)
        + float(s2 @ qd @ s2) + 2.0 * t2 * float(inst.b[0] @ s2)
    )
    if abs(lhs - value) > 1e-8 * (1.0 + abs(value)):
        raise IdentityViolated(
            f"split candidates do not share the optimum: {lhs:.12g} != {value:.12g}"
        )

    root = (v * np.sqrt(w)) @ v.T
    root_qb = root @ qb
    den = np.sqrt(radicand)

    def selection_bound(s, tj):
        """max_i ||Q^(1/2) (s/tj + Q^(-1) b_i)|| / sqrt(radicand_i)."""
        num = np.linalg.norm((root @ (s / tj))[:, None] + root_qb, axis=0)
        return float(np.max(num / den))

    candidates = []
    if t1 > 1e-10:
        candidates.append((1, s1, t1, selection_bound(s1, t1)))
    if t2 > 1e-10:
        candidates.append((2, s2, t2, selection_bound(s2, t2)))
    limit = math.sqrt(2.0) * (1.0 + 1e-9) + 1e-12
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
    cert = ApproxCertificate(fx, value, gamma, ratio)
    if fx < ratio * value - _RATIO_ABS_TOL - 1e-5 * (1.0 + abs(value)):
        raise TightenFailed(
            f"certified ratio violated: f_0 = {fx:.6e} < {ratio:.4f} * {value:.6e}",
            None,
        )
    trace = ApproxTrace(
        y=y, alpha=alpha, s1=s1, s2=s2, t1=t1, t2=t2, j_bar=j_bar,
        x_bar=x_bar, tau_bar=tau, gamma=gamma, guaranteed_ratio=ratio,
    )
    return x_out, trace, cert
