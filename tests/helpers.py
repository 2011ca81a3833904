"""Shared test utilities: instance generators and independent oracles.

The oracles here are deliberately decoupled from the library's solving path:
the trust-region oracle works on the eigenbasis secular equation, and the
grid optimizer evaluates caller-supplied callables.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg

from socqp.linalg import SymMatrix
from socqp.model import Bound, UqInstance


def random_pd_matrix(rng, n, eig_lo=0.8, eig_hi=2.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = rng.uniform(eig_lo, eig_hi, size=n)
    return SymMatrix.from_dense((q * w) @ q.T)


def random_uq(rng, n, p, two_sided_prob=0.0, b_scale=0.3, anchor_scale=0.0):
    """Random positive definite uniform instance.

    Bounds are placed around the constraint values at a random anchor point,
    so the feasible set is never empty; with the default zero anchor the
    origin itself is strictly interior.
    """
    q = random_pd_matrix(rng, n)
    b = rng.normal(size=(p + 1, n)) * b_scale
    d = np.zeros(p + 1)
    anchor = rng.normal(size=n) * anchor_scale if anchor_scale else np.zeros(n)
    qd = q.dense()
    bounds = []
    for i in range(p):
        fi = float(anchor @ qd @ anchor + 2.0 * b[i + 1] @ anchor)
        upper = fi + rng.uniform(0.3, 1.2)
        lower = -math.inf
        if rng.random() < two_sided_prob:
            lower = fi - rng.uniform(0.4, 1.5)
        bounds.append(Bound(lower, upper))
    return UqInstance(n, q, b, d, bounds)


def random_convex_uq(rng, n, p, b_scale=0.35):
    """One-sided instance with d_0 = 0 and the origin strictly interior."""
    return random_uq(rng, n, p, two_sided_prob=0.0, b_scale=b_scale)


def random_gap_uq(rng, n, p, tilt=0.05):
    """One-sided instance built from opposed constraint pairs.

    Rows come in (+v, -v) pairs sharing an upper bound, which pins the
    relaxation optimum near the origin with a large lifted value: the cone
    gap is genuinely open, so rounding is exercised rather than skipped.
    """
    q = random_pd_matrix(rng, n)
    b = np.zeros((p + 1, n))
    b[0] = rng.normal(size=n) * tilt
    bounds = []
    i = 1
    while i <= p:
        v = rng.normal(size=n)
        v *= rng.uniform(0.4, 1.0) / np.linalg.norm(v)
        upper = rng.uniform(0.4, 1.0)
        b[i] = v
        bounds.append(Bound(-math.inf, upper))
        if i + 1 <= p:
            b[i + 1] = -v
            bounds.append(Bound(-math.inf, upper))
        i += 2
    return UqInstance(n, q, b, np.zeros(p + 1), bounds)


def translated_uq_cases(count=12):
    """(instance, v) pairs from rng 12: n = 2-3 one-sided instances with
    p = n + 2 rows, convex and gap-type in turn, a random d_0, and a small
    translation v of the data."""
    rng = np.random.default_rng(12)
    for k in range(count):
        n = int(rng.integers(2, 4))
        inst = random_gap_uq(rng, n, n + 2) if k % 2 else random_convex_uq(rng, n, n + 2)
        inst = dataclasses.replace(inst, d=inst.d + np.r_[rng.normal(), np.zeros(inst.p)])
        yield inst, 0.05 * rng.normal(size=n)


def oracle_step(inst, target=110):
    """Grid step adapted to the instance's inferred box."""
    from socqp.oracle import infer_box

    lo, hi = infer_box(inst)
    return float(np.max(hi - lo)) / target


def trs_secular(a_dense, b, radius=1.0, tol=1e-14):
    """Trust-region optimum min x'Ax + 2b'x over ||x|| <= radius via the
    eigenbasis secular equation, hard case included."""
    a_dense = np.asarray(a_dense, dtype=float)
    b = np.asarray(b, dtype=float)
    w, v = scipy.linalg.eigh(a_dense)
    bt = v.T @ b
    r2 = radius * radius

    def x_of(nu, mask=None):
        den = w + nu
        coeff = np.zeros_like(bt)
        use = den > tol if mask is None else mask
        coeff[use] = -bt[use] / den[use]
        return coeff

    if w[0] > 0.0:
        coeff = -bt / w
        if coeff @ coeff <= r2 * (1 + 1e-12):
            x = v @ coeff
            return float(x @ a_dense @ x + 2 * b @ x), x

    nu0 = max(0.0, -w[0])
    ground = np.abs(w - w[0]) <= 1e-12 * max(1.0, abs(w[0]))
    hard = np.all(np.abs(bt[ground]) <= 1e-12 * max(1.0, np.linalg.norm(b)))
    if hard:
        coeff = x_of(nu0, mask=~ground)
        nrm2 = float(coeff @ coeff)
        if nrm2 <= r2 * (1 + 1e-12):
            # pad with ground-eigenvector mass to reach the sphere
            extra = math.sqrt(max(r2 - nrm2, 0.0))
            idx = int(np.argmax(ground))
            coeff[idx] += extra
            x = v @ coeff
            return float(x @ a_dense @ x + 2 * b @ x), x
    # easy case: ||x(nu)|| is decreasing in nu; bisect on the boundary
    lo = nu0
    hi = nu0 + 1.0
    while float(np.sum((bt / (w + hi)) ** 2)) > r2:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        coeff = -bt / (w + mid) if mid > nu0 else x_of(mid)
        if float(coeff @ coeff) > r2:
            lo = mid
        else:
            hi = mid
    coeff = -bt / (w + hi)
    x = v @ coeff
    x *= radius / max(np.linalg.norm(x), 1e-300)
    return float(x @ a_dense @ x + 2 * b @ x), x


def grid_opt(objective, feasible, box, h, sense="min", refine=3, top_k=8):
    """Hierarchical grid optimizer over caller-supplied vectorized callables.

    ``objective`` and ``feasible`` map an (m, n) array of points to values /
    bool masks.  Returns (value, argopt).
    """
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    sign = 1.0 if sense == "max" else -1.0

    def scan(lo_, hi_, h_):
        axes = [np.arange(lo_[k], hi_[k] + 0.5 * h_, h_) for k in range(lo_.size)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        keep = feasible(pts)
        if not np.any(keep):
            return []
        pts = pts[keep]
        vals = sign * objective(pts)
        order = np.argsort(vals)[::-1][:top_k]
        return [(float(vals[i]), pts[i].copy()) for i in order]

    tops = scan(lo, hi, h)
    assert tops, "grid_opt found no feasible point"
    step = h
    for _ in range(refine):
        step /= 10.0
        nxt = []
        for _, pt in tops:
            sub_lo = np.maximum(lo, pt - 22.0 * step)
            sub_hi = np.minimum(hi, pt + 22.0 * step)
            nxt.extend(scan(sub_lo, sub_hi, step))
        nxt.sort(key=lambda t: -t[0])
        tops = nxt[:top_k] or tops
    val, pt = tops[0]
    return sign * val, pt
