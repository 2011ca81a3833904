"""Problem-instance data model and coordinate transforms.

Holds the uniform quadratic instance (shared Hessian), the structured QCQP
instance with {-1,0,1} sign coefficients over PSD blocks, ball intersections
for the Chebyshev pipeline, and the ILP-to-uniform-QP reduction.

Linear terms follow the 2b'x convention throughout: the i-th function is
f_i(x) = x'Qx + 2 b_i'x + d_i, and instance files store the b_i of that
convention.  Both instance types evaluate themselves one way: ``values(x)``
gives every function value, and ``worst_violation``/``is_feasible`` check
them against the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import InvalidBounds, InvalidInput
from .linalg import SymMatrix

# Default absolute tolerance on constraint values when testing feasibility.
DEFAULT_FEAS_TOL = 1e-6
ACCEPT_TOL = 1e-6  # default relative slack of the acceptance tests (``tolerance``)


@dataclass(frozen=True)
class Bound:
    """Two-sided bound; lower may be -inf and upper +inf.

    The infinities are tags, never operated on arithmetically: every consumer
    branches on ``has_lower``/``has_upper`` before touching the value.
    """

    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise InvalidBounds("bounds must not be NaN")
        if self.lower > self.upper:
            raise InvalidBounds(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def has_lower(self) -> bool:
        return self.lower > -math.inf

    @property
    def has_upper(self) -> bool:
        return self.upper < math.inf

    def violation(self, value: float) -> float:
        v = 0.0
        if self.has_lower:
            v = max(v, self.lower - value)
        if self.has_upper:
            v = max(v, value - self.upper)
        return v


class _Rows:
    """Feasibility of a point for an instance whose ``values(x)`` gives the
    objective and the p constraint values, row 0 first."""

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InvalidInput(f"point must have length {self.n}")
        return x

    def worst_violation(self, x) -> float:
        """Largest constraint-bound violation at x (0 when feasible)."""
        vals = self.values(x)[1:].tolist()
        return max((bd.violation(v) for bd, v in zip(self.bounds, vals)), default=0.0)

    def is_feasible(self, x, tol: float = DEFAULT_FEAS_TOL) -> bool:
        """True iff every constraint value lies within its bounds +- tol."""
        return self.worst_violation(x) <= tol


@dataclass
class UqInstance(_Rows):
    """Uniform QCQP: maximize f_0 subject to l_i <= f_i(x) <= u_i.

    All functions share the Hessian Q: f_i(x) = x'Qx + 2 b_i'x + d_i.
    Index 0 is the objective; constraints are 1..p.  ``tol_rank`` governs
    every rank and sign decision on it and on the instances derived from it.
    """

    n: int
    q: SymMatrix
    b: np.ndarray  # (p+1, n); row 0 is the objective linear term
    d: np.ndarray  # (p+1,)
    bounds: list[Bound]
    tol_rank: float = linalg.DEFAULT_RANK_TOL

    def __post_init__(self):
        self.b = np.atleast_2d(np.asarray(self.b, dtype=float))
        self.d = np.asarray(self.d, dtype=float).reshape(-1)
        if self.q.n != self.n:
            raise InvalidInput(f"Q order {self.q.n} != n {self.n}")
        if self.b.shape[1] != self.n:
            raise InvalidInput("linear terms must have length n")
        if self.b.shape[0] != self.d.size or self.b.shape[0] != len(self.bounds) + 1:
            raise InvalidInput("need p+1 linear terms, p+1 offsets, p bounds")
        if len(self.bounds) < 1:
            raise InvalidInput("at least one constraint is required")
        if not (np.all(np.isfinite(self.b)) and np.all(np.isfinite(self.d))):
            raise InvalidInput("instance data must be finite")

    @property
    def p(self) -> int:
        return len(self.bounds)

    def values(self, x) -> np.ndarray:
        """f_0(x), ..., f_p(x): one quadratic form for all rows."""
        x = self._point(x)
        return self.q.quad(x) + 2.0 * (self.b @ x) + self.d


@dataclass
class QcqpInstance(_Rows):
    """Structured QCQP with PSD blocks Q_j and sign coefficients in {-1,0,1}.

    g_i(x) = sum_j a[i,j] x'Q_j x + 2 b_i'x + c_i; row 0 of ``a`` is the
    objective.  ``sense`` is "min" or "max" for g_0.  ``tol_rank`` is as in
    ``UqInstance``; the blocks must be PSD at a cut of tol_rank * ``data_scale``.
    """

    n: int
    blocks: list[SymMatrix]
    a: np.ndarray  # (p+1, m) signs
    b: np.ndarray  # (p+1, n)
    c: np.ndarray  # (p+1,)
    bounds: list[Bound]
    sense: str = "min"
    tol_rank: float = linalg.DEFAULT_RANK_TOL

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.b = np.atleast_2d(np.asarray(self.b, dtype=float))
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        if self.sense not in ("min", "max"):
            raise InvalidInput(f"sense must be 'min' or 'max', got {self.sense!r}")
        m = len(self.blocks)
        if self.a.shape != (len(self.bounds) + 1, m):
            raise InvalidInput("sign matrix must be (p+1) x m")
        if self.b.shape != (len(self.bounds) + 1, self.n):
            raise InvalidInput("linear terms must be (p+1) x n")
        if self.c.size != len(self.bounds) + 1:
            raise InvalidInput("need p+1 scalar offsets")
        if not np.all(np.isin(self.a, (-1.0, 0.0, 1.0))):
            raise InvalidInput("sign coefficients must lie in {-1, 0, 1}")
        cut = rank_cut(self)
        for j, q in enumerate(self.blocks):
            if q.n != self.n:
                raise InvalidInput(f"block {j} has order {q.n}, expected {self.n}")
            if linalg.inertia(q, cut)[1].any():
                raise InvalidInput(f"block {j} is not PSD at tolerance {self.tol_rank}")

    @property
    def p(self) -> int:
        return len(self.bounds)

    @property
    def m(self) -> int:
        return len(self.blocks)

    def values(self, x) -> np.ndarray:
        """g_0(x), ..., g_p(x): one quadratic form per block."""
        x = self._point(x)
        quads = np.array([q.quad(x) for q in self.blocks])
        return self.a @ quads + 2.0 * (self.b @ x) + self.c


@dataclass
class BallIntersection:
    """Intersection of p Euclidean balls ||x - a_i|| <= r_i."""

    n: int
    centers: np.ndarray  # (p, n)
    radii: np.ndarray  # (p,)

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.radii = np.asarray(self.radii, dtype=float).reshape(-1)
        if self.centers.shape != (self.radii.size, self.n):
            raise InvalidInput("centers must be (p, n) with one radius each")
        if self.radii.size < 1:
            raise InvalidInput("at least one ball is required")
        if np.any(self.radii <= 0.0) or not np.all(np.isfinite(self.radii)):
            raise InvalidInput("radii must be positive and finite")
        if not np.all(np.isfinite(self.centers)):
            raise InvalidInput("centers must be finite")

    @property
    def p(self) -> int:
        return self.radii.size

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        dist = np.linalg.norm(self.centers - x[None, :], axis=1)
        return bool(np.all(dist <= self.radii + tol))


def data_scale(inst: UqInstance | QcqpInstance) -> float:
    """Largest absolute entry of a uq or qcqp instance, finite bounds included
    and a qcqp instance's unitless signs left out.  The rank cut
    (``rank_cut``) and the slack of every acceptance test (``tolerance``) are
    taken relative to it, with no floor, so a check means the same on data
    scaled by any factor.
    """
    if isinstance(inst, UqInstance):
        parts = [inst.q.packed, inst.b, inst.d]
    else:
        parts = [blk.packed for blk in inst.blocks] + [inst.b, inst.c]
    parts.append([v for bd in inst.bounds for v in (bd.lower, bd.upper) if math.isfinite(v)])
    return max(float(np.abs(np.asarray(x, dtype=float)).max(initial=0.0)) for x in parts)


def rank_cut(inst: UqInstance | QcqpInstance) -> float:
    """tol_rank * ``data_scale``: the cut of every rank and sign decision on
    the instance and on the instances derived from it."""
    return inst.tol_rank * data_scale(inst)


def tolerance(inst: UqInstance | QcqpInstance, ref=0.0, tol: float | None = None):
    """tol * (``data_scale`` + |ref|), the slack of every acceptance test after
    a solve, for a quantity of size ref (a float or an array).  tol defaults to
    max(``ACCEPT_TOL``, tol_rank): the rank decisions admit errors that large."""
    if tol is None:
        tol = max(ACCEPT_TOL, inst.tol_rank)
    return tol * (data_scale(inst) + abs(ref))


def translate_origin(inst: UqInstance, x_hat) -> tuple[UqInstance, float]:
    """Shift coordinates so that x_hat becomes the origin.

    The output has f'_i(x) = f_i(x + x_hat) for every constraint i and
    d'_0 = 0, as the approximation needs; the returned offset f_0(x_hat)
    gives f_0(x + x_hat) = f'_0(x) + offset."""
    x_hat = np.asarray(x_hat, dtype=float).reshape(inst.n)
    qx = inst.q @ x_hat
    b = inst.b + qx[None, :]
    d = inst.values(x_hat)
    offset, d[0] = float(d[0]), 0.0
    return replace(inst, b=b, d=d, bounds=list(inst.bounds)), offset


def ilp_to_uq(c, a_rows, rhs) -> UqInstance:
    """Reduce a binary ILP (max c'x, a_i'x <= rhs_i, x in {0,1}^n) to a UQ.

    Builds the uniform-Hessian instance whose feasible set is exactly the
    ILP's binary feasible set: objective x'x + (c - e)'x, the m knapsack rows,
    the equality 0 <= x'x - e'x <= 0, and n box rows 0 <= x'x + (e_j - e)'x <= 1.
    Stored linear terms are halved per the 2b'x convention.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.size
    a_rows = np.asarray(a_rows, dtype=float).reshape(-1, n) if np.size(a_rows) else np.zeros((0, n))
    rhs = np.asarray(rhs, dtype=float).reshape(-1)
    if a_rows.shape[0] != rhs.size:
        raise InvalidInput("one rhs per constraint row is required")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a_rows)) and np.all(np.isfinite(rhs))):
        raise InvalidInput("ILP data must be finite")
    m = rhs.size
    e = np.ones(n)
    b = np.zeros((m + n + 2, n))
    d = np.zeros(m + n + 2)
    bounds: list[Bound] = []
    b[0] = (c - e) / 2.0
    for i in range(m):
        b[1 + i] = (a_rows[i] - e) / 2.0
        bounds.append(Bound(-math.inf, float(rhs[i])))
    b[1 + m] = -e / 2.0
    bounds.append(Bound(0.0, 0.0))
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = 1.0
        b[2 + m + j] = (ej - e) / 2.0
        bounds.append(Bound(0.0, 1.0))
    return UqInstance(n, SymMatrix.identity(n), b, d, bounds)


def uq_as_qcqp(inst: UqInstance) -> QcqpInstance:
    """View a UQ instance as the single-block structured QCQP that maximises
    g_0 = f_0 over the same rows, with g_i = f_i; it shares the instance's
    arrays and its ``data_scale``.  Q must be PSD at tol_rank * that scale,
    and the view keeps ``tol_rank``.
    """
    a = np.ones((inst.p + 1, 1))
    return QcqpInstance(
        inst.n, [inst.q], a, inst.b, inst.d, list(inst.bounds), sense="max", tol_rank=inst.tol_rank
    )


def as_min(inst: QcqpInstance) -> QcqpInstance:
    """The min-sense form of a structured instance: the instance itself when
    it minimises, else the copy minimising -g_0 over the same rows.  Every
    builder and recovery step reads the objective row through it."""
    if inst.sense == "min":
        return inst
    a, b, c = inst.a.copy(), inst.b.copy(), inst.c.copy()
    for arr in (a, b, c):
        arr[0] *= -1.0
    return replace(inst, a=a, b=b, c=c, bounds=list(inst.bounds), sense="min")
