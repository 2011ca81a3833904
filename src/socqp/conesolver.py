"""Linear + second-order cone programming solver.

Solves  min c'z  s.t.  E z = f,  G z <= h,  ||A_k z + b_k|| <= c_k'z + d_k.
Equality rows are eliminated before the interior-point method: z = z0 + N w,
with z0 the least-norm solution of E z = f and N an orthonormal basis of
null(E), so the method only ever sees G z + s = h with s in the cone.  It is
a primal-dual path-following method with Nesterov-Todd scaling over the
product of the nonnegative orthant and second-order cones and Mehrotra
predictor-corrector steps.

Each iteration works in NT-scaled coordinates.  The cone block of the KKT
system is eliminated, so only the positive definite G'W^-2 G + dI of order
nv is factored (static regularization d); W^-1 G is formed and the cone
multipliers recovered block by block, and one pass of iterative refinement
takes its residual from the full, unreduced operator.  On a second-order
cone W is kept in arrow form (a unit vector wbar and a scale eta), so W and
W^-1 cost one O(d) pass, batched over all cones of equal dimension; the step
to the boundary is taken in the same scaled coordinates.

The reduced matrix is factored by Cholesky: up to order 32 by numpy, with
the inverse factor kept so a solve is two matrix-vector products, and above
that by LAPACK's ``potrf``/``potrs``, the faster factor there since numpy has
no triangular solve.  scipy is imported for LAPACK on the first program above
order 32, so a process that solves only small programs never loads scipy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInput, InvalidProgram

_STEP_SCALE = 0.99  # share of the step to the cone boundary that is taken
_STATIC_REG = 1e-10  # KKT regularization, raised while factoring fails
_NUMPY_KKT_ORDER = 32  # largest reduced KKT order factored with numpy alone


@dataclass
class SocBlock:
    """One second-order cone constraint ||a z + b|| <= c'z + d."""

    a: np.ndarray  # (k, N)
    b: np.ndarray  # (k,)
    c: np.ndarray  # (N,)
    d: float

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        self.d = float(self.d)

    @property
    def dim(self) -> int:
        return self.b.size + 1


@dataclass
class ConeProgram:
    """Minimize c'z subject to linear rows, equalities and SOC blocks.

    ``offset`` is a constant added to the reported objective so builders can
    carry dropped constants (for example a negated d_0) through the solve.
    """

    c: np.ndarray
    g: np.ndarray | None = None
    h: np.ndarray | None = None
    e: np.ndarray | None = None
    f: np.ndarray | None = None
    soc: list[SocBlock] = field(default_factory=list)
    offset: float = 0.0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        nv = self.c.size
        if nv < 1:
            raise InvalidProgram("a cone program needs at least one variable")
        self.g = (
            np.zeros((0, nv)) if self.g is None else np.atleast_2d(np.asarray(self.g, dtype=float))
        )
        self.h = np.zeros(0) if self.h is None else np.asarray(self.h, dtype=float).reshape(-1)
        self.e = (
            np.zeros((0, nv)) if self.e is None else np.atleast_2d(np.asarray(self.e, dtype=float))
        )
        self.f = np.zeros(0) if self.f is None else np.asarray(self.f, dtype=float).reshape(-1)
        if self.g.shape != (self.h.size, nv):
            raise InvalidProgram(f"G must be (len(h), {nv}), got {self.g.shape}")
        if self.e.shape != (self.f.size, nv):
            raise InvalidProgram(f"E must be (len(f), {nv}), got {self.e.shape}")
        for k, blk in enumerate(self.soc):
            if blk.a.shape != (blk.b.size, nv) or blk.c.size != nv:
                raise InvalidProgram(f"SOC block {k} has inconsistent dimensions")
        data = [self.c, self.g.ravel(), self.h, self.e.ravel(), self.f]
        data += [x.ravel() for blk in self.soc for x in (blk.a, blk.b, blk.c)]
        data.append([blk.d for blk in self.soc])
        if not np.isfinite(np.concatenate(data)).all():
            raise InvalidProgram("program data must be finite")

    @property
    def nvar(self) -> int:
        return self.c.size

    def value(self, z) -> float:
        return float(self.c @ np.asarray(z, dtype=float)) + self.offset

    def violation(self, z) -> float:
        """Worst constraint violation at z (0 when feasible)."""
        z = np.asarray(z, dtype=float)
        worst = 0.0
        if self.h.size:
            worst = max(worst, float(np.max(self.g @ z - self.h, initial=0.0)))
        if self.f.size:
            worst = max(worst, float(np.abs(self.e @ z - self.f).max(initial=0.0)))
        for blk in self.soc:
            lhs = float(np.linalg.norm(blk.a @ z + blk.b))
            worst = max(worst, lhs - (float(blk.c @ z) + blk.d))
        return worst


@dataclass
class SolveOptions:
    feastol: float = 1e-8
    gaptol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        # bool is an Integral and a Real, but True is no tolerance or cap
        for name, value in (("feastol", self.feastol), ("gaptol", self.gaptol)):
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and 0.0 < value < math.inf):
                raise InvalidInput(f"{name} must be a finite real > 0, got {value!r}")
        count = isinstance(self.max_iter, numbers.Integral) and not isinstance(self.max_iter, bool)
        if not (count and self.max_iter >= 0):
            raise InvalidInput(f"max_iter must be an integer >= 0, got {self.max_iter!r}")


@dataclass
class SolverResult:
    """Solution, duals and accuracy report for one cone-program solve."""

    status: str  # Optimal | Infeasible | Unbounded | MaxIter
    z: np.ndarray
    objective: float  # c'z + offset (minimization sense)
    y: np.ndarray  # equality multipliers
    lam_lin: np.ndarray  # multipliers of the linear rows, >= 0
    lam_soc: list[np.ndarray]  # dual cone vector per SOC block
    s_lin: np.ndarray
    s_soc: list[np.ndarray]
    pres: float
    dres: float
    gap: float
    relgap: float
    iterations: int  # index of the returned (best) iterate, not the number run
    certificate: np.ndarray | None = None
    certificate_kind: str | None = None


# ---------------------------------------------------------------------------
# cone layout: vectors live in R^l x Q_{d_1} x ... x Q_{d_q}
# ---------------------------------------------------------------------------


class _Cones:
    """Row layout of the product cone, fixed for one solve.

    The l linear rows come first.  SOC blocks follow grouped by dimension (a
    stable sort of the program's order), so every group is one contiguous
    slice viewed as a (count, d) array and each cone operation is one batched
    pass per group.  The cone index runs along the last axis of every array.
    ``slices`` maps the program's SOC blocks to their rows.
    """

    def __init__(self, l, dims):
        self.l = l
        self.order = sorted(range(len(dims)), key=dims.__getitem__)
        self.groups = []  # (start, stop, count, d)
        self.slices = [None] * len(dims)
        at = l
        for j in self.order:
            d = dims[j]
            if self.groups and self.groups[-1][3] == d:
                a, _, k, _ = self.groups[-1]
                self.groups[-1] = (a, at + d, k + 1, d)
            else:
                self.groups.append((at, at + d, 1, d))
            self.slices[j] = slice(at, at + d)
            at += d
        self.m = at
        self.nu = l + len(dims)
        self.identity = np.zeros(at)
        self.identity[:l] = 1.0
        for a, b, _, d in self.groups:
            self.identity[a:b:d] = 1.0

    def views(self, u):
        """Per-group views of u, shaped u.shape[:-1] + (count, d)."""
        lead = u.shape[:-1]
        return [u[..., a:b].reshape(lead + (k, d)) for a, b, k, d in self.groups]

    def min_margin(self, u):
        """Smallest distance to the boundary over all parts and all rows of u
        (negative when some point is outside)."""
        margin = math.inf
        if self.l:
            margin = float(u[..., : self.l].min())
        for ug in self.views(u):
            nrm = np.sqrt(np.vecdot(ug[..., 1:], ug[..., 1:]))
            margin = min(margin, float((ug[..., 0] - nrm).min()))
        return margin

    def jprod(self, u, w):
        """Jordan product u o w."""
        out = np.empty_like(u)
        l = self.l
        out[:l] = u[:l] * w[:l]
        for ug, wg, og in zip(self.views(u), self.views(w), self.views(out)):
            og[:, 0] = np.vecdot(ug, wg)
            og[:, 1:] = ug[:, :1] * wg[:, 1:] + wg[:, :1] * ug[:, 1:]
        return out

    def jsolve(self, u, b):
        """Solve u o x = b."""
        out = np.empty_like(b)
        l = self.l
        out[:l] = b[:l] / u[:l]
        for ug, bg, og in zip(self.views(u), self.views(b), self.views(out)):
            u0, u1 = ug[:, 0], ug[:, 1:]
            det = u0 * u0 - np.vecdot(u1, u1)
            x0 = (u0 * bg[:, 0] - np.vecdot(u1, bg[:, 1:])) / det
            og[:, 0] = x0
            og[:, 1:] = (bg[:, 1:] - x0[:, None] * u1) / u0[:, None]
        return out

    def max_step(self, u, du):
        """Largest alpha keeping u + alpha*du[j] in the cone for every row j.

        u must be interior.  On a SOC block the hyperbolic reflection H that
        maps u/||u||_J to e maps the cone onto itself, so the step is
        ||u||_J / max(0, -lambda_min(H du)) with lambda_min(x) = x0 - ||x1||.
        """
        worst = 0.0  # largest -lambda_min(du) relative to u over all parts
        l = self.l
        if l:
            worst = float((-du[:, :l] / u[:l]).max())
        for ug, dg in zip(self.views(u), self.views(du)):
            u0, u1, d0, d1 = ug[:, 0], ug[:, 1:], dg[..., 0], dg[..., 1:]
            jn = _jnorm(ug)
            x0 = (u0 * d0 - np.vecdot(u1, d1)) / jn
            x1 = d1 - ((x0 + d0) / (u0 + jn))[..., None] * u1
            lam_min = (x0 - np.sqrt(np.vecdot(x1, x1))) / jn
            worst = max(worst, float((-lam_min).max()))
        return 1.0 / worst if worst > 0.0 else math.inf


class _ScalingBreakdown(ArithmeticError):
    """An iterate touched the cone boundary to machine precision."""


def _jnorm(ug):
    """sqrt(u0^2 - ||u1||^2) for each cone of a (..., count, d) group."""
    u0 = ug[..., 0]
    nrm = np.sqrt(np.vecdot(ug[..., 1:], ug[..., 1:]))
    val = (u0 - nrm) * (u0 + nrm)  # factored to dodge cancellation
    if val.min() <= 0.0 or u0.min() <= 0.0:
        raise _ScalingBreakdown
    return np.sqrt(val)


class _Scaling:
    """Nesterov-Todd scaling W of the product cone: W lam = W^{-1} s.

    On a linear row W is sqrt(s/lam).  On a SOC block W = sqrt(eta) * Wbar
    with Wbar = [[w0, w1'], [w1, I + w1 w1'/(1 + w0)]] and Wbar^{-1} = J Wbar J,
    so W and W^{-1} are applied in one O(d) pass from (eta, wbar) alone.
    """

    def __init__(self, cones, s, lam):
        self.cones = cones
        l = cones.l
        pair = np.array([s, lam])
        if l and pair[:, :l].min() <= 0.0:
            raise _ScalingBreakdown
        self.wl = np.sqrt(s[:l] / lam[:l])
        self.arrows = []
        for g in cones.views(pair):
            jn = _jnorm(g)
            sn, ln = g / jn[..., None]
            two_gamma = np.sqrt(2.0 * (1.0 + np.vecdot(sn, ln)))
            w0 = (sn[:, 0] + ln[:, 0]) / two_gamma
            w1 = (sn[:, 1:] - ln[:, 1:]) / two_gamma[:, None]
            rt = np.sqrt(jn[0] / jn[1])  # sqrt(eta)
            self.arrows.append((w0, w1, 1.0 / (1.0 + w0), rt, rt[:, None]))

    def _apply(self, x, inverse):
        out = np.empty_like(x)
        l = self.cones.l
        out[..., :l] = x[..., :l] / self.wl if inverse else x[..., :l] * self.wl
        for (w0, w1, c, rt, rt1), xg, og in zip(
            self.arrows, self.cones.views(x), self.cones.views(out)
        ):
            x0, x1 = xg[..., 0], xg[..., 1:]
            t = np.vecdot(x1, w1)
            if inverse:
                og[..., 0] = (w0 * x0 - t) / rt
                og[..., 1:] = (x1 + w1 * (c * t - x0)[..., None]) / rt1
            else:
                og[..., 0] = (w0 * x0 + t) * rt
                og[..., 1:] = (x1 + w1 * (c * t + x0)[..., None]) * rt1
        return out

    def apply(self, x):
        """W x, for a vector or for each row of a matrix in cone layout."""
        return self._apply(x, False)

    def apply_inv(self, x):
        """W^{-1} x, for a vector or for each row of a matrix."""
        return self._apply(x, True)


def _lapack():
    # imported on first use, not at module level: loading scipy costs about
    # 0.25 s of process start, which small programs never need to pay
    from scipy.linalg import lapack

    return lapack


class _CholeskyFactor:
    """The positive definite reduced KKT matrix K = A'A + dI as K = L L'.
    Up to order _NUMPY_KKT_ORDER numpy factors it; numpy has no triangular
    solve, so L^-1 is kept and a solve K^-1 r = L^-T L^-1 r is two
    matrix-vector products.  Above that LAPACK's ``potrf``/``potrs`` do."""

    def __init__(self, order):
        self.lapack = _lapack() if order > _NUMPY_KKT_ORDER else None

    def factor(self, k) -> bool:
        """Factor k; False when k is not numerically positive definite."""
        if self.lapack is None:
            try:
                self.l_inv = np.linalg.inv(np.linalg.cholesky(k))
            except np.linalg.LinAlgError:
                return False
            return True
        # k is symmetric and a fresh array: its transpose is the Fortran-order
        # matrix LAPACK factors in place, and the upper triangle is left as is
        self.l, info = self.lapack.dpotrf(k.T, lower=1, clean=0, overwrite_a=1)
        return info == 0

    def solve(self, rr):
        if self.lapack is None:
            return (self.l_inv @ rr) @ self.l_inv
        x, info = self.lapack.dpotrs(self.l, rr, lower=1)
        if info != 0:
            raise InvalidProgram("KKT solve failed")
        return x


class _Kkt:
    """Reduced KKT solver in NT-scaled coordinates.

    The Newton system  [0 G'; G -W^2] (dz, dlam) = (r1, r3)  reads, in the
    scaled unknown dl = W dlam and with A = W^{-1} G,
    [0 A'; A -I] (dz, dl) = (r1, W^{-1} r3).  Eliminating
    dl = A dz - W^{-1} r3 leaves the positive definite A'A + dI of order nv,
    factored by Cholesky once per iteration with static regularization d
    (raised x100, up to 1, while the factorization fails).  One pass of
    iterative refinement takes its residual from the full, unreduced scaled
    operator.
    """

    def __init__(self, nv):
        self.fac = _CholeskyFactor(nv)
        self.eye = np.eye(nv)

    def factor(self, a_t):
        """Factor the reduced matrix for a_t = A' (nv rows, one column per
        cone row)."""
        self.a_t = a_t
        k = a_t @ a_t.T
        bump = _STATIC_REG
        while not self.fac.factor(k + bump * self.eye):
            if bump >= 1.0:
                raise InvalidProgram("KKT matrix is numerically singular")
            bump *= 100.0

    def solve(self, r1, r3):
        """(dz, dl) for the right-hand side r1 and the scaled third block r3,
        already multiplied by W^{-1}."""
        a_t = self.a_t
        x = self.fac.solve(r1 + a_t @ r3)
        dl = x @ a_t - r3
        # refinement: the residual of the full operator is (r1 - A'dl, 0), its
        # second block r3 - A dz + dl being zero by the choice of dl, so the
        # correction of dl is A cx
        cx = self.fac.solve(r1 - a_t @ dl)
        return x + cx, dl + cx @ a_t


def _conic_rows(prog: ConeProgram):
    """Stack linear rows and SOC blocks into G_c z + s = h_c with s in K."""
    cones = _Cones(prog.h.size, [blk.dim for blk in prog.soc])
    parts_g = [prog.g]
    parts_h = [prog.h]
    for j in cones.order:
        blk = prog.soc[j]
        parts_g.append(-blk.c[None, :])
        parts_g.append(-blk.a)
        parts_h.append(np.array([blk.d]))
        parts_h.append(blk.b)
    return np.vstack(parts_g), np.concatenate(parts_h), cones


def _initial_point(gc, hc, cvec, cones, kkt, rows):
    # with W = I the scaled and unscaled systems coincide
    kkt.factor(rows[:-1])
    z, _ = kkt.solve(np.zeros(cvec.size), hc)
    s = hc - gc @ z
    margin = cones.min_margin(s)
    if margin <= 0.0:
        s = s + (1.0 - margin) * cones.identity
    _, lam = kkt.solve(-cvec, np.zeros(hc.size))
    margin = cones.min_margin(lam)
    if margin <= 0.0:
        lam = lam + (1.0 - margin) * cones.identity
    return z, s, lam


def _split_duals(lam, s, cones):
    l = cones.l
    lam_soc = [lam[sl].copy() for sl in cones.slices]
    s_soc = [s[sl].copy() for sl in cones.slices]
    return lam[:l].copy(), lam_soc, s[:l].copy(), s_soc


def _null_basis(e, rank):
    """Orthonormal basis of null(E) in nv - rank columns, or one zero column
    when E pins every variable: Gram-Schmidt with column pivoting on the
    projector I - E^+ E, each step taking the longest remaining column."""
    nv = e.shape[1]
    p = np.eye(nv) - np.linalg.lstsq(e, e, rcond=None)[0]
    basis = np.zeros((nv, max(nv - rank, 1)))
    for k in range(nv - rank):
        col = p[:, np.argmax((p * p).sum(axis=0))]
        basis[:, k] = col / np.linalg.norm(col)
        p = p - np.outer(basis[:, k], basis[:, k] @ p)
    return basis


def solve(prog: ConeProgram, opts: SolveOptions | None = None) -> SolverResult:
    """Solve a cone program; deterministic for fixed inputs and options.

    Equality rows are eliminated first: the program is solved in w over
    z = z0 + N w, so pres and dres are those of the program in w.  Rows that
    no z meets are Infeasible before any iteration, with the Farkas vector
    y = r / ||r||^2 of the residual r = E z0 - f (E'y = 0, f'y = -1).
    """
    opts = opts or SolveOptions()
    if prog.f.size == 0:
        return _interior_point(prog, opts)
    e, f = prog.e, prog.f
    z0, _, rank, _ = np.linalg.lstsq(e, f, rcond=None)
    r = e @ z0 - f
    pres = float(np.abs(r).max()) / (1.0 + float(np.abs(f).max()))
    if pres > opts.feastol:
        y = r / (r @ r)
        cones = _Cones(prog.h.size, [blk.dim for blk in prog.soc])
        return SolverResult(
            "Infeasible", np.full(prog.nvar, math.nan), math.nan, y,
            *_split_duals(np.zeros(cones.m), np.full(cones.m, math.nan), cones),
            pres, 0.0, 0.0, 0.0, 0, certificate=np.concatenate((y, np.zeros(cones.m))),
            certificate_kind="farkas_dual",
        )
    basis = _null_basis(e, rank)
    soc = [SocBlock(b.a @ basis, b.b + b.a @ z0, b.c @ basis, b.d + b.c @ z0)
           for b in prog.soc]
    res = _interior_point(ConeProgram(
        prog.c @ basis, prog.g @ basis, prog.h - prog.g @ z0, soc=soc,
        offset=prog.offset + float(prog.c @ z0),
    ), opts)
    # y solves E'y = -(c + G_c'lam), the stationarity the program in w leaves
    # to E; a Farkas vector has no c
    g_lam = prog.g.T @ res.lam_lin
    for blk, lam in zip(prog.soc, res.lam_soc):
        g_lam -= blk.c * lam[0] + blk.a.T @ lam[1:]
    infeasible = res.status == "Infeasible"
    y = np.linalg.lstsq(e.T, -g_lam if infeasible else -(prog.c + g_lam), rcond=None)[0]
    cert = res.certificate
    if infeasible:
        cert = np.concatenate((y, cert))
    elif cert is not None:
        cert = basis @ cert  # an improving ray in w
    return replace(res, z=z0 + basis @ res.z, y=y, certificate=cert)


def _interior_point(prog: ConeProgram, opts: SolveOptions) -> SolverResult:
    """The interior-point method on a program with no equality rows."""
    nv = prog.nvar
    gc, hc, cones = _conic_rows(prog)
    cvec = prog.c
    c_scale = 1.0 + float(np.abs(cvec).max(initial=0.0))
    no_y = np.zeros(0)
    if cones.m == 0:
        # c'z is constant, or falls without bound along -c
        z = np.zeros(nv)
        if float(np.abs(cvec).max()) <= opts.feastol * c_scale:
            return SolverResult(
                "Optimal", z, prog.value(z), no_y, no_y, [], no_y, [], 0.0, 0.0, 0.0, 0.0, 0,
            )
        return SolverResult(
            "Unbounded", z, -math.inf, no_y, no_y, [], no_y, [], 0.0, math.inf, 0.0, 0.0, 0,
            certificate=-cvec / np.linalg.norm(cvec), certificate_kind="improving_ray",
        )
    kkt = _Kkt(nv)
    # [G' ; res_z]: rows in cone layout, scaled by W^{-1} in one pass
    rows = np.zeros((nv + 1, cones.m))
    rows[:nv] = gc.T
    h_scale = 1.0 + float(np.abs(hc).max(initial=0.0))

    z, s, lam = _initial_point(gc, hc, cvec, cones, kkt, rows)
    best = None
    stall = 0

    for it in range(opts.max_iter + 1):
        res_x = cvec + gc.T @ lam
        res_z = gc @ z + s - hc
        pobj = float(cvec @ z)
        gap = float(s @ lam)
        relgap = gap / (1.0 + abs(pobj))
        pres = float(np.abs(res_z).max(initial=0.0)) / h_scale
        dres = float(np.abs(res_x).max(initial=0.0)) / c_scale

        # iterates are rebound each step, never modified in place
        if best is None or max(pres, dres) + relgap < max(best[0], best[1]) + best[3]:
            best = (pres, dres, gap, relgap, pobj, z, s, lam, it)

        if pres <= opts.feastol and dres <= opts.feastol and relgap <= opts.gaptol:
            return SolverResult(
                "Optimal", z, pobj + prog.offset, no_y, *_split_duals(lam, s, cones),
                pres, dres, gap, relgap, it,
            )

        # Farkas-type primal infeasibility certificate: lam in K*, G'lam = 0,
        # h'lam < 0.
        theta = -(hc @ lam)
        if theta > 0.0:
            fk = (res_x - cvec) / theta  # G'lam / theta
            if float(np.abs(fk).max(initial=0.0)) / c_scale <= opts.feastol:
                lam_lin, lam_soc, s_lin, s_soc = _split_duals(lam / theta, s, cones)
                return SolverResult(
                    "Infeasible", np.full(nv, np.nan), math.nan, no_y, lam_lin,
                    lam_soc, s_lin, s_soc, pres, dres, gap, relgap, it,
                    certificate=np.concatenate([lam_lin, *lam_soc]),
                    certificate_kind="farkas_dual",
                )

        # Improving-ray certificate: -G zh in K, c'zh = -1.
        if pobj < 0.0:
            zh = z / (-pobj)
            if max(0.0, -cones.min_margin(-gc @ zh)) / h_scale <= opts.feastol:
                return SolverResult(
                    "Unbounded", z, pobj + prog.offset, no_y,
                    *_split_duals(lam, s, cones), pres, dres, gap, relgap, it,
                    certificate=zh, certificate_kind="improving_ray",
                )

        if it == opts.max_iter or stall >= 3:
            break

        mu = gap / cones.nu
        try:
            scaling = _Scaling(cones, s, lam)
            # work in scaled coordinates: v = W lam = W^{-1} s, ds~ = W^{-1} ds and
            # dl = W dlam; the third block of every right-hand side is then
            # W^{-1}(-res_z - W ds~) = r3 - ds~
            v = scaling.apply(lam)
            rows[-1] = res_z
            scaled = scaling.apply_inv(rows)
            kkt.factor(scaled[:-1])
            r3 = -scaled[-1]
            r1 = -res_x

            # predictor (affine) direction: target complementarity 0, ds~ = -v;
            # s + a ds stays in K iff v + a ds~ does, and likewise for lam
            _, dl_a = kkt.solve(r1, r3 + v)
            ds_a = -v - dl_a
            alpha_a = min(1.0, cones.max_step(v, np.array([ds_a, dl_a])))
            gap_a = float((v + alpha_a * ds_a) @ (v + alpha_a * dl_a))
            sigma = min(1.0, max(0.0, gap_a / gap)) ** 3

            # corrector: target sigma*mu*e minus the Mehrotra second-order term
            ds_comb = -v + cones.jsolve(v, sigma * mu * cones.identity - cones.jprod(ds_a, dl_a))
            dz, dl = kkt.solve(r1, r3 - ds_comb)
            ds_t = ds_comb - dl
            alpha = min(1.0, _STEP_SCALE * cones.max_step(v, np.array([ds_t, dl])))
        except _ScalingBreakdown:
            break  # boundary reached at machine precision; keep best iterate
        ds = scaling.apply(ds_t)
        dlam = scaling.apply_inv(dl)

        # the step from the scaled directions can be slightly optimistic in
        # degenerate geometry; verify strict interiority and back off if needed
        for _ in range(60):
            s_new, lam_new = s + alpha * ds, lam + alpha * dlam
            if cones.min_margin(np.array([s_new, lam_new])) > 0.0:
                break
            alpha *= 0.9
        else:
            break  # cannot stay interior at machine precision
        stall = stall + 1 if alpha < 1e-13 else 0
        z = z + alpha * dz
        s, lam = s_new, lam_new

    pres, dres, gap, relgap, pobj, z, s, lam, it = best
    return SolverResult(
        "MaxIter", z, pobj + prog.offset, no_y, *_split_duals(lam, s, cones),
        pres, dres, gap, relgap, it,
    )


def certify_strong_duality(inst, res: SolverResult):
    """``reformulate.certify_strong_duality`` under the name the benchmark
    harness calls and times; the engine itself knows nothing of instances."""
    from . import reformulate  # function-level: reformulate imports this module
    return reformulate.certify_strong_duality(inst, res)
