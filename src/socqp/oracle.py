"""Brute-force ground truth for small instances.

Exhaustive grid search for uniform instances (n <= 3), a double grid for the
Chebyshev min-max problem (n <= 2), and exact binary enumeration for
reduced ILPs.  These oracles back the derived expected values in the test
suite; they are not part of the solving path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import EmptyFeasibleGrid, InvalidInput, UnboundedBox
from .model import BallIntersection, UqInstance, rank_cut

_BOX_INFLATE = 1.1  # the inferred box's margin around the tightest row's cube
_GRID_FEAS_TOL = 1e-9  # slack on the rows for a grid point to count as feasible
_GRID_TOP_K = 8  # grid points kept, and refined around, per scan
_Z_LEVELS = 3  # refinements of the Chebyshev oracle's z grid
_BINARY_LIMIT = 20  # largest n that the binary enumeration accepts


@dataclass(frozen=True)
class GridMax:
    """Best feasible grid point; ``error_bound`` is the Lipschitz bound L*h at
    the finest resolution reached."""

    value: float
    argmax: np.ndarray
    lipschitz: float
    error_bound: float


@dataclass(frozen=True)
class GridMinMax:
    value: float
    error_bound: float


def infer_box(inst: UqInstance):
    """Bounding box from the ellipsoid rows (finite upper bounds).

    Each row with finite u_i bounds x inside an ellipsoid; the tightest of
    their bounding cubes, inflated, is returned.  Raises UnboundedBox when no
    row has a finite upper bound or Q is singular.
    """
    if not linalg.inertia(inst.q, rank_cut(inst))[0].all():
        raise UnboundedBox("box inference needs positive definite Q; pass a box")
    w, _ = linalg.sym_eig(inst.q)
    qd = inst.q.dense()
    best = None
    for i, bd in enumerate(inst.bounds):
        if not bd.has_upper:
            continue
        bi = inst.b[i + 1]
        qinv_b = np.linalg.solve(qd, bi)
        rhs = bd.upper - inst.d[i + 1] + float(bi @ qinv_b)
        if rhs < 0.0:
            raise EmptyFeasibleGrid(f"constraint {i + 1} is infeasible on its own")
        radius = (math.sqrt(rhs) + math.sqrt(max(0.0, float(bi @ qinv_b)))) / math.sqrt(w[-1])
        center = -qinv_b
        lo = center - _BOX_INFLATE * radius
        hi = center + _BOX_INFLATE * radius
        if best is None:
            best = (lo, hi)
        else:
            best = (np.maximum(best[0], lo), np.minimum(best[1], hi))
    if best is None:
        raise UnboundedBox("no finite upper bound; supply an explicit box")
    return best


def _evaluate(inst: UqInstance, quad, lin, feas_tol: float):
    """Objective values and feasibility mask of points from x'Qx and lin(i) = 2 b_i'x."""
    feas = np.ones(np.shape(quad), dtype=bool)
    for i, bd in enumerate(inst.bounds, start=1):
        vals = quad + lin(i) + inst.d[i]
        if bd.has_upper:
            feas &= vals <= bd.upper + feas_tol
        if bd.has_lower:
            feas &= vals >= bd.lower - feas_tol
    return quad + lin(0) + inst.d[0], feas


def _scan(inst, box, h):
    """Top ``_GRID_TOP_K`` feasible points of the step-``h`` grid on ``box`` by
    objective, chunked over axis 0.  The rows are evaluated on the grid's axes
    by broadcasting, axis k laid along dimension k, so a point is formed only
    for the indices kept."""
    axes = [np.arange(lo, hi + 0.5 * h, h) for lo, hi in zip(*box)]
    qd, n, two_b = inst.q.dense(), len(axes), 2.0 * inst.b
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    group = max(1, (1 << 21) // int(np.prod([a.size for a in axes[1:]])))
    tops: list[tuple[float, np.ndarray]] = []
    for start in range(0, axes[0].size, group):
        chunk = [axes[0][start : start + group]] + axes[1:]
        xs = [a.reshape((-1,) + (1,) * (n - 1 - k)) for k, a in enumerate(chunk)]
        quad = sum((2.0 - (j == k)) * qd[j, k] * xs[j] * xs[k] for j, k in pairs)
        obj, feas = _evaluate(inst, quad, lambda i: sum(map(np.multiply, two_b[i], xs)),
                              _GRID_FEAS_TOL)
        idx = np.flatnonzero(feas)
        take = idx[np.argsort(obj.reshape(-1)[idx])[::-1][:_GRID_TOP_K]]
        pts = np.column_stack([a[w] for a, w in zip(chunk, np.unravel_index(take, feas.shape))])
        tops.extend(zip(obj.reshape(-1)[take].tolist(), pts))
    tops.sort(key=lambda t: -t[0])
    return tops[:_GRID_TOP_K]


def grid_max_uq(inst: UqInstance, h: float, box=None, refine: int = 0) -> GridMax:
    """Exhaustive feasible-grid maximization of f_0 for n <= 3.

    ``refine`` hierarchical passes shrink the step tenfold around the best
    candidates; the reported error bound is L*h at the finest step, with L
    the local Lipschitz bound of f_0 on the box.
    """
    if inst.n > 3:
        raise InvalidInput("grid oracle supports n <= 3")
    if h <= 0.0:
        raise InvalidInput("step must be positive")
    if box is None:
        box = infer_box(inst)
    else:
        box = (np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float))
    tops = _scan(inst, box, h)
    if not tops:
        raise EmptyFeasibleGrid(f"no feasible grid point at resolution {h:g}")
    step = h
    for _ in range(refine):
        step /= 10.0
        nxt: list[tuple[float, np.ndarray]] = []
        for _, pt in tops:
            lo = np.maximum(box[0], pt - 2.2 * step * 10.0)
            hi = np.minimum(box[1], pt + 2.2 * step * 10.0)
            nxt.extend(_scan(inst, (lo, hi), step))
        nxt.sort(key=lambda t: -t[0])
        tops = nxt[:_GRID_TOP_K] or tops
    value, arg = tops[0]
    corner = np.maximum(np.abs(box[0]), np.abs(box[1]))
    lip = 2.0 * float(np.linalg.norm(inst.q.dense(), 2)) * float(
        np.linalg.norm(corner)
    ) + 2.0 * float(np.linalg.norm(inst.b[0]))
    return GridMax(value, arg, lip, lip * step)


def _erode(mask: np.ndarray) -> np.ndarray:
    """Binary erosion by the cross of unit steps along each axis, with every
    cell outside the array counted as False: a cell survives when it and
    its 2 * ndim axis neighbours are all True."""
    padded = np.pad(mask, 1)
    inner = (slice(1, -1),) * mask.ndim
    out = mask.copy()
    for axis in range(mask.ndim):
        for shift in (-1, 1):
            out &= np.roll(padded, shift, axis)[inner]
    return out


def _omega_boundary(balls: BallIntersection, h: float):
    """Feasible boundary grid points of the ball intersection (n <= 2)."""
    lo = np.max(balls.centers - balls.radii[:, None], axis=0)
    hi = np.min(balls.centers + balls.radii[:, None], axis=0)
    if np.any(hi < lo):
        raise EmptyFeasibleGrid("ball bounding boxes do not intersect")
    axes = [np.arange(lo[k], hi[k] + 0.5 * h, h) for k in range(balls.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    feas = np.ones(pts.shape[0], dtype=bool)
    for i in range(balls.p):
        d2 = np.sum((pts - balls.centers[i]) ** 2, axis=1)
        feas &= d2 <= balls.radii[i] ** 2 + 1e-12
    mask = feas.reshape([a.size for a in axes])
    if not mask.any():
        raise EmptyFeasibleGrid(f"no feasible grid point at resolution {h:g}")
    boundary = mask & ~_erode(mask)
    return pts[boundary.ravel()], pts[feas], (lo, hi)


def grid_minmax_cc(balls: BallIntersection, h: float) -> GridMinMax:
    """Double-grid value of min over z of max over the intersection of
    ||x - z||^2, for n <= 2.

    The inner max over the feasible grid is taken over its boundary points
    (exact for the grid set, since the objective is convex); the z grid is
    refined up to ``_Z_LEVELS`` times around the incumbent.
    """
    if balls.n > 2:
        raise InvalidInput("Chebyshev grid oracle supports n <= 2")
    bound_pts, _, (lo, hi) = _omega_boundary(balls, h)

    def phi(zs: np.ndarray) -> np.ndarray:
        best = np.zeros(zs.shape[0])
        group = max(1, (1 << 22) // max(1, bound_pts.shape[0]))
        for start in range(0, zs.shape[0], group):
            zc = zs[start : start + group]
            d2 = (
                np.sum(zc**2, axis=1)[:, None]
                - 2.0 * zc @ bound_pts.T
                + np.sum(bound_pts**2, axis=1)[None, :]
            )
            best[start : start + group] = d2.max(axis=1)
        return best

    span = float(np.max(hi - lo))
    hz = max(span / 64.0, h)
    zlo, zhi = lo.copy(), hi.copy()
    incumbent = None
    for _ in range(_Z_LEVELS):
        axes = [np.arange(zlo[k], zhi[k] + 0.5 * hz, hz) for k in range(balls.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        zs = np.stack([m.ravel() for m in mesh], axis=1)
        vals = phi(zs)
        k = int(np.argmin(vals))
        incumbent = (float(vals[k]), zs[k])
        zlo = np.maximum(lo, zs[k] - 2.0 * hz)
        zhi = np.minimum(hi, zs[k] + 2.0 * hz)
        if hz <= h:
            break
        hz = max(h, hz / 8.0)
    value = incumbent[0]
    lip = 2.0 * math.sqrt(max(value, 0.0))
    return GridMinMax(value, lip * (h + hz) * math.sqrt(balls.n))


def binary_max_uq(inst: UqInstance):
    """Exact maximum of f_0 over the binary points feasible for ``inst``.

    Exhaustive over {0,1}^n; intended for reduced ILP instances where the
    feasible set is exactly a set of binary points and the arithmetic is
    integral, hence exact.
    """
    if inst.n > _BINARY_LIMIT:
        raise InvalidInput(f"binary enumeration limited to n <= {_BINARY_LIMIT}")
    best = None
    for bits in range(1 << inst.n):
        x = np.array([(bits >> k) & 1 for k in range(inst.n)], dtype=float)
        if inst.worst_violation(x) <= 0.0:
            val = float(inst.values(x)[0])
            if best is None or val > best[0]:
                best = (val, x)
    if best is None:
        raise EmptyFeasibleGrid("no feasible binary point")
    return best
