"""Chebyshev center of an intersection of balls with a certified quality
interval.

The candidate center comes from the simplex-weighted convex quadratic
program, solved through its dual in the n + 2 variables (x, t, tau) with the
weights read from the dual's row multipliers, so the program does not grow
with the number of balls.  Its quality is certified by bracketing the
farthest squared distance max_{x in Omega} ||x - z||^2.  The upper end needs
no solve: with z = sum_i w_i a_i and value v, the point (z, v + ||z||^2) meets
every row of the inner relaxation and the weights bound that relaxation by
v, so the point is its optimum.  The lower end is the feasible point that the
bounded-ratio rounding (``recover.round_uq``) makes of that optimum; the
rounding centres itself at the point of least gamma, and its one interiority
rule refuses an intersection with no interior there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import recover, reformulate
from .conesolver import ConeProgram, SolveOptions, solve
from .errors import SocqpError, SolverFailed
from .linalg import SymMatrix
from .model import BallIntersection, Bound, UqInstance, tolerance

# relative roundoff allowed in the simplex sum and in center = sum_i w_i a_i
_SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class ChebyshevResult:
    """Candidate center with its certificate.

    ``attained`` brackets max_{x in Omega} ||x - center||^2: attained[1] is
    the inner relaxation's value at its closed-form optimum
    (center, v_dcc + ||center||^2), v_dcc up to roundoff, and attained[0] is
    ||far_point - center||^2 at the rounded point.  The chain
    guaranteed_ratio * v_dcc - tol <= attained[0] <= attained[1] + tol holds
    on every certified run, with tol the ``model.tolerance`` at v_dcc of the
    farthest-point instance.  The optimum is not unique when at most n
    weights are positive, so another optimum could round to a higher
    attained[0].  ``gamma`` and ``guaranteed_ratio`` are the ones the
    rounding certified, at the point of least gamma where it centres itself.
    """

    center: np.ndarray
    weights: np.ndarray
    v_dcc: float
    gamma: float
    gamma_upper: float
    attained: tuple[float, float]
    guaranteed_ratio: float
    far_point: np.ndarray


def _polish_simplex_qp(cost, amat, lam, objective):
    """Refine a simplex-constrained QP solution on its identified active set.

    Solves the equality-constrained KKT system over the support of ``lam``
    (simplex weights above 1e-7); accepted only when the polished weights
    stay in the simplex and do not worsen the objective beyond roundoff.
    """
    p = lam.size
    support = np.flatnonzero(lam > 1e-7)
    if support.size == 0:
        return lam, objective
    a_s = amat[:, support]
    k = support.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * a_s.T @ a_s
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([-cost[support], [1.0]])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return lam, objective
    cand = sol[:k]
    if cand.min() < -1e-9 or abs(cand.sum() - 1.0) > 1e-9:
        return lam, objective
    cand = np.clip(cand, 0.0, None)
    cand /= cand.sum()
    full = np.zeros(p)
    full[support] = cand
    value = float(cost @ full + np.sum((amat @ full) ** 2))
    if value <= objective + 1e-9 * abs(objective):
        return full, value
    return lam, objective


def beck_center(
    balls: BallIntersection, opts: SolveOptions | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Simplex-weighted center: minimize sum_i w_i (r_i^2 - ||a_i||^2) +
    ||sum_i w_i a_i||^2 over the simplex; returns (center, weights, value).

    The cone solve is the QP's dual, min tau over (x, t, tau) subject to
    ||x||^2 <= t and t - 2 a_i'x - tau <= r_i^2 - ||a_i||^2: n + 2 variables
    whatever p is, optimal value -value.  The weights are its row
    multipliers, kept where they exceed the row's slack, and an active-set
    polish makes the center accurate to machine precision on that support.
    """
    n, p = balls.n, balls.p
    nv = n + 2  # (x, t, tau)
    cost = balls.radii**2 - np.sum(balls.centers**2, axis=1)
    c = np.zeros(nv)
    c[n + 1] = 1.0
    g = np.zeros((p, nv))
    g[:, :n] = -2.0 * balls.centers
    g[:, n] = 1.0
    g[:, n + 1] = -1.0
    soc = [reformulate.quad_epigraph(np.eye(n), nv, np.eye(nv)[n], 0.0)]
    res = solve(ConeProgram(c=c, g=g, h=cost, soc=soc), opts)
    if res.status != "Optimal":
        raise SolverFailed(f"center solve ended with status {res.status}")
    lam = np.where(res.lam_lin > res.s_lin, res.lam_lin, 0.0)
    if not lam.any():
        lam = np.clip(res.lam_lin, 0.0, None)
    lam = lam / lam.sum()
    value = float(cost @ lam + np.sum((balls.centers.T @ lam) ** 2))
    lam, value = _polish_simplex_qp(cost, balls.centers.T, lam, value)
    center = balls.centers.T @ lam
    return center, lam, value


def gamma_balls(balls: BallIntersection) -> float:
    """min over x of the largest scaled distance max_i ||x - a_i|| / r_i.

    At most 1 exactly when the intersection is nonempty, and below 1 exactly
    when it has interior; values above 1 are returned as-is and signal an
    empty intersection.  It is ``recover.least_gamma`` of the inner
    instance, whose rows are the balls.
    """
    return recover.least_gamma(_inner_instance(balls, np.zeros(balls.n)))[1]


def gamma_upper(balls: BallIntersection) -> float:
    """Closed-form bound sqrt(n/(2(n+1))) * d_max / r_min on gamma_balls."""
    sq = balls.centers[:, None, :] - balls.centers[None, :, :]
    sq *= sq  # in place: the (p, p, n) differences are the one large temporary
    d_max = math.sqrt(float(sq.sum(axis=2).max()))
    r_min = float(balls.radii.min())
    return math.sqrt(balls.n / (2.0 * (balls.n + 1.0))) * d_max / r_min


def _inner_instance(balls: BallIntersection, z: np.ndarray) -> UqInstance:
    """max ||x||^2 - 2 z'x over Omega as a uniform instance (Q = I)."""
    b = np.vstack([-z, -balls.centers])
    d = np.concatenate([[0.0], np.vecdot(balls.centers, balls.centers)])
    bounds = [Bound(-math.inf, r**2) for r in balls.radii]
    return UqInstance(balls.n, SymMatrix.identity(balls.n), b, d, bounds)


def chebyshev_certified(
    balls: BallIntersection,
    opts: SolveOptions | None = None,
) -> ChebyshevResult:
    """Certified center of the smallest enclosing ball of the intersection.

    Requires nonempty interior (gamma < 1).  Two cone solves, both with
    ``opts``: the Beck center, and the rounding's own search for the point
    of least gamma, where it centres itself.  The inner relaxation's optimum
    (center, v_dcc + ||center||^2) comes in closed form from the Beck
    weights, which bound it by weak duality; ``recover.round_uq`` rounds it
    to a feasible point whose farthest squared distance is guaranteed to
    reach ((1-gamma)/(sqrt(2)+gamma))^2 of the center value.  A chain of
    ``ChebyshevResult`` that fails raises ``SocqpError``.
    """
    center, lam, v_dcc = beck_center(balls, opts)
    inner = _inner_instance(balls, center)
    znorm = float(center @ center)
    t = v_dcc + znorm
    row_tol, chain_tol = tolerance(inner, np.array([t, v_dcc]))
    # the weights lie in the simplex and sum the ball centers to the center,
    # so by weak duality they bound the inner relaxation by their value v_dcc
    bound = float(lam @ (balls.radii**2 - inner.d[1:])) + znorm
    if not (
        lam.min() >= 0.0
        and abs(lam.sum() - 1.0) <= _SIMPLEX_TOL
        and np.abs(center - balls.centers.T @ lam).max()
        <= _SIMPLEX_TOL * np.abs(balls.centers).max()
        and abs(bound - v_dcc) <= chain_tol
    ):
        raise SocqpError(
            "certificate chain failed: the weights do not bound the inner relaxation "
            f"(min {lam.min():.3e}, sum - 1 = {lam.sum() - 1.0:.3e}, "
            f"bound {bound:.6e}, v_dcc {v_dcc:.6e})"
        )
    # and (center, t) meets every row t - 2 a_i'x + ||a_i||^2 <= r_i^2, so it
    # attains that bound
    excess = t + 2.0 * (inner.b[1:] @ center) + inner.d[1:] - balls.radii**2
    if excess.max() > row_tol:
        raise SocqpError(
            "certificate chain failed: the closed-form optimum violates row "
            f"{int(excess.argmax()) + 1} by {excess.max():.3e} (tolerance {row_tol:.3e})"
        )

    # the rounding centres at the point of least gamma, where an intersection
    # with no interior at tolerance is refused
    far_point, _, cert = recover.round_uq(inner, center, t, opts)
    ratio = cert.guaranteed_ratio
    upper = cert.upper + cert.offset + znorm
    lower = cert.lower + cert.offset + znorm
    if not (lower <= upper + chain_tol and lower >= ratio * v_dcc - chain_tol):
        raise SocqpError(
            "certificate chain failed: "
            f"ratio*v={ratio * v_dcc:.6e}, lower={lower:.6e}, "
            f"upper={upper:.6e}, v_dcc={v_dcc:.6e}"
        )
    return ChebyshevResult(
        center=center,
        weights=lam,
        v_dcc=v_dcc,
        gamma=cert.gamma,
        gamma_upper=gamma_upper(balls),
        attained=(lower, upper),
        guaranteed_ratio=ratio,
        far_point=far_point,
    )
