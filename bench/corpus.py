"""Seeded input corpus for every benchmark workload.

A workload is a plan (a fixed list of shapes) and an item maker.  Instance k
draws from its own ``numpy.random.Generator``, derived from the seed, the
workload and k alone, so one seed always gives the same instances and any one
can be made on its own.  Only the random data changes with the seed, never a
shape, which keeps the latency distribution of a pass comparable between
seeds.

The uniform generators come from ``tests/helpers.py`` (imported, not
copied); the ball, low-rank-block and tiny-file generators live here.
"""

from __future__ import annotations

import importlib.util
import math
import random
import zlib
from pathlib import Path

import numpy as np

from socqp.linalg import SymMatrix
from socqp.model import BallIntersection, Bound, QcqpInstance, UqInstance

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1508


def _load_helpers():
    spec = importlib.util.spec_from_file_location(
        "socqp_test_helpers", ROOT / "tests" / "helpers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


helpers = _load_helpers()


def rng_for(seed: int, workload: str, stream: str) -> np.random.Generator:
    key = [int(seed), zlib.crc32(workload.encode()), zlib.crc32(stream.encode())]
    return np.random.default_rng(np.random.SeedSequence(key))


def tiered(bottom, middle, m_count, top, extremes):
    """Shapes in cost tiers, in a fixed shuffled order.

    With E extreme instances the top tier holds T = 2(10 - E) instances and
    the bottom tier B = T + E.  The median then falls in the middle of the
    middle tier and the tail (ten samples beyond) in the middle of the top
    tier, so both are medians of like-sized instances rather than the cost
    of one shape.  The shuffle spreads every tier over the whole run, so a
    slow spell on a shared machine does not land on one tier.
    """
    top_count = 2 * (10 - len(extremes))
    if len(bottom) != top_count + len(extremes):
        raise ValueError("bottom tier must hold top + extreme instances")
    plan = list(bottom) + [middle] * m_count + [top] * top_count + list(extremes)
    random.Random(0).shuffle(plan)
    return plan


# ---------------------------------------------------------------------------
# uq_medium: positive definite uniform instances, n 30-200, p in [n, 2n]
# ---------------------------------------------------------------------------

UQ_RATIOS = (1.0, 1.25, 1.5, 1.75, 2.0)
UQ_TWO_SIDED = 0.3  # share of rows with a finite lower bound


def uq_plan(smoke=False):
    """(n, p, exact): small mixed shapes, an exact middle tier, a generic top
    tier and the two largest shapes (see `tiered`)."""
    if smoke:
        return [(8, 8, True), (10, 15, False), (12, 24, True)]
    bottom = [(n, round(n * UQ_RATIOS[k % 5]), k % 2 == 0)
              for k, n in enumerate(range(30, 84, 3))]
    return tiered(bottom, (110, 165, True), 24, (180, 225, False),
                  [(200, 300, False), (200, 400, False)])


def medium_uq(rng, n, p, exact):
    """random_uq, then a fixed share of two-sided rows (lower bounds drawn as
    in random_uq) and, when exact, every constraint term projected off one
    random direction so that rank[b_1..b_p] = n-1."""
    inst = helpers.random_uq(rng, n, p)
    for i in rng.choice(p, size=round(UQ_TWO_SIDED * p), replace=False):
        inst.bounds[i] = Bound(-rng.uniform(0.4, 1.5), inst.bounds[i].upper)
    if exact:
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        inst.b[1:] -= np.outer(inst.b[1:] @ u, u)
    return {"inst": inst, "exact": exact or p == n, "shape": f"n={n},p={p}"}


# ---------------------------------------------------------------------------
# cheby_many_cones: intersections of many balls
# ---------------------------------------------------------------------------

# The ROADMAP's Chebyshev case with n=20/p=200 is left out: one instance
# takes about 208 s and ends MaxIter today.
def cheby_plan(smoke=False):
    """(n, p): n 2-10 with 50-60 balls, a middle tier (3, 100), a top tier
    (4, 130) and two intersections of 300 balls (see `tiered`)."""
    if smoke:
        return [(2, 12), (3, 16)]
    bottom = [(n, p) for n in (2, 3, 4, 5, 6, 8, 10) for p in (50, 60)]
    bottom += [(2, 55), (4, 55), (6, 55), (8, 55)]
    return tiered(bottom, (3, 100), 20, (4, 130), [(2, 300), (2, 300)])


def ball_intersection(rng, n, p):
    """Centers at distance 0.5 from a common point, radii in [1, 1.5]: the
    common point has scaled distance <= 0.5 to every ball, so gamma < 0.5."""
    origin = rng.normal(size=n)
    dirs = rng.normal(size=(p, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return BallIntersection(n, origin + 0.5 * dirs, rng.uniform(1.0, 1.5, size=p))


def cheby_item(rng, n, p):
    return {"inst": ball_intersection(rng, n, p), "shape": f"n={n},p={p}"}


# ---------------------------------------------------------------------------
# qcqp_blocks: structured QCQPs with low-rank PSD blocks, exact by construction
# ---------------------------------------------------------------------------

def qcqp_plan(smoke=False):
    """(n, m, p, two-sided): small mixed shapes, a one-sided middle tier, a
    two-sided top tier and the ROADMAP-sized n=60/m=12 case (see `tiered`)."""
    if smoke:
        return [(8, 4, 4, False), (10, 4, 4, True)]
    bottom = [(n, 4 + k % 3, 6 + k % 5, k % 2 == 1) for k, n in enumerate(range(12, 30))]
    return tiered(bottom, (36, 6, 8, False), 30, (52, 10, 10, True),
                  [(60, 12, 12, True), (60, 12, 12, True)])


def lowrank_qcqp(rng, n, m, p, two_sided):
    """Blocks with mutually orthogonal ranges that together span R^n.

    One vector v_j in each range is kept out of every constraint term, so
    span{b_1..b_p} + N(Q_j) + sum_{i != j} R(Q_i) misses v_j and the
    exactness condition holds for every lifted block.  The sign pattern is
    fixed by the shape, so the size of the built program is too: the last
    two blocks never take sign -1 (the one-sided builder keeps them as convex
    epigraphs), the others carry -1 in the objective or in some row and are
    lifted.  Row 1 carries every block with sign +1, which bounds the
    relaxation; the origin is strictly feasible.
    """
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    blocks, free = [], []
    for idx in np.array_split(np.arange(n), m):
        u = basis[:, idx]
        w = rng.uniform(0.5, 2.0, size=idx.size)
        blocks.append(SymMatrix.from_dense((u * w) @ u.T))
        free.append(u[:, 0])
    f = np.column_stack(free)
    keep_out = np.eye(n) - f @ f.T
    a = np.ones((p + 1, m))
    for j in range(m):
        convex = j >= m - 2
        a[0, j] = 1.0 if convex or j % 2 else -1.0
        for i in range(2, p + 1):
            a[i, j] = float((i + j) % 2 == 0) if convex else (-1.0, 0.0, 1.0)[(i + j) % 3]
    b = rng.normal(size=(p + 1, n)) * 0.3
    b[1:] = b[1:] @ keep_out
    bounds = [Bound(-math.inf, rng.uniform(1.0, 2.0))]
    for i in range(1, p):
        upper = rng.uniform(0.5, 1.5)
        lower = -rng.uniform(0.3, 1.0) if two_sided and i % 2 == 1 else -math.inf
        bounds.append(Bound(lower, upper))
    return QcqpInstance(n, blocks, a, b, np.zeros(p + 1), bounds)


def qcqp_item(rng, n, m, p, two_sided):
    return {"inst": lowrank_qcqp(rng, n, m, p, two_sided), "two_sided": two_sided,
            "shape": f"n={n},m={m},p={p},{'two' if two_sided else 'one'}-sided"}


# ---------------------------------------------------------------------------
# cli_small / cli_indefinite: tiny instance files (n <= 6)
# ---------------------------------------------------------------------------


def _rotated(rng, eigenvalues):
    n = len(eigenvalues)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return SymMatrix.from_dense((q * np.asarray(eigenvalues)) @ q.T)


def tiny_uq(rng, n, p, eigenvalues, two_sided_prob, exact=False, d0=0.0):
    """Uniform instance with the origin strictly feasible."""
    b = rng.normal(size=(p + 1, n)) * 0.3
    if exact:
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        b[1:] -= np.outer(b[1:] @ u, u)
    d = np.zeros(p + 1)
    d[0] = d0
    bounds = []
    for _ in range(p):
        upper = rng.uniform(0.3, 1.2)
        lower = -rng.uniform(0.4, 1.5) if rng.random() < two_sided_prob else -math.inf
        bounds.append(Bound(lower, upper))
    return UqInstance(n, _rotated(rng, eigenvalues), b, d, bounds)


def _eigs(rng, n, last=None):
    w = rng.uniform(0.8, 2.0, size=n)
    if last is not None:
        w[-1] = last
    return w


# (file kind, count).  The PSD-singular files carry p >= n+1 two-sided rows
# in general position, which bounds every linear form and so the feasible
# set.  Indefinite Q is the `cli_indefinite` workload: the solver fails on
# part of it today, and a workload listed in BENCHMARK.json must not fail.
CLI_MIX = (("uq_pd_exact", 6), ("uq_pd", 5), ("uq_psd", 4), ("qcqp_one", 3),
           ("qcqp_two", 3), ("approx", 3), ("cheby", 2))


def cli_plan(smoke=False):
    kinds = [kind for kind, count in CLI_MIX for _ in range(1 if smoke else count)]
    random.Random(0).shuffle(kinds)
    return kinds


def cli_item(rng, kind):
    n = int(rng.integers(2, 7))
    if kind == "uq_pd_exact":
        inst = tiny_uq(rng, n, int(rng.integers(n, n + 3)), _eigs(rng, n), 0.3, exact=True)
        return {"command": "solve", "kind": "uq_pd", "inst": inst, "exact": True}
    if kind == "uq_pd":
        inst = tiny_uq(rng, n, int(rng.integers(n + 1, n + 4)), _eigs(rng, n), 0.3)
        return {"command": "solve", "kind": "uq_pd", "inst": inst, "exact": False}
    if kind in ("uq_psd", "uq_indefinite"):
        last = 0.0 if kind == "uq_psd" else -rng.uniform(0.5, 1.5)
        inst = tiny_uq(rng, n, int(rng.integers(n + 1, n + 3)), _eigs(rng, n, last), 1.0)
        return {"command": "solve", "kind": kind, "inst": inst}
    if kind in ("qcqp_one", "qcqp_two"):
        inst = lowrank_qcqp(rng, int(rng.integers(4, 7)), 3, 4, kind == "qcqp_two")
        return {"command": "solve", "kind": "qcqp", "inst": inst}
    if kind == "approx":
        # a nonzero d_0 makes the CLI translate through find_interior_point
        d0 = 0.5 if rng.random() < 0.5 else 0.0
        inst = tiny_uq(rng, n, int(rng.integers(1, n + 2)), _eigs(rng, n), 0.0, d0=d0)
        return {"command": "approx", "kind": "approx", "inst": inst}
    if kind == "cheby":
        balls = ball_intersection(rng, n, int(rng.integers(5, 21)))
        return {"command": "cheby", "kind": "cheby", "inst": balls}
    # unbounded-prone: indefinite Q with p <= n rows, mixed one- and two-sided
    inst = tiny_uq(rng, n, int(rng.integers(1, n + 1)), _eigs(rng, n, -rng.uniform(0.5, 1.5)),
                   0.5)
    return {"command": "solve", "kind": "uq_indefinite", "inst": inst}


def cli_indefinite_plan(smoke=False):
    """Indefinite-Q files, alternating p >= n+1 two-sided rows (bounded; about
    1 in 150 ends MaxIter today) and p <= n mixed rows (often unbounded; all
    end MaxIter, exit 4, today)."""
    return ["uq_indefinite", "uq_indefinite_open"] * (1 if smoke else 10)


# ---------------------------------------------------------------------------
# plans and items
# ---------------------------------------------------------------------------

PLANS = {
    "uq_medium": (uq_plan, lambda rng, spec: medium_uq(rng, *spec)),
    "cheby_many_cones": (cheby_plan, lambda rng, spec: cheby_item(rng, *spec)),
    "qcqp_blocks": (qcqp_plan, lambda rng, spec: qcqp_item(rng, *spec)),
    "cli_small": (cli_plan, cli_item),
    "cli_indefinite": (cli_indefinite_plan, cli_item),
}
WARMUP = {
    "uq_medium": (10, 12, True),
    "cheby_many_cones": (2, 10),
    "qcqp_blocks": (8, 4, 4, True),
    "cli_small": "uq_pd_exact",
    "cli_indefinite": "uq_pd_exact",
}


def plan(workload: str, smoke: bool = False) -> list:
    return PLANS[workload][0](smoke)


def item(workload: str, seed: int, index: int, spec):
    """Instance `index` of a workload; each has its own random stream, so
    any one can be made without the others."""
    return PLANS[workload][1](rng_for(seed, workload, f"item{index}"), spec)


def warmup(workload: str, seed: int):
    """One small untimed instance from a stream of its own."""
    return PLANS[workload][1](rng_for(seed, workload, "warmup"), WARMUP[workload])
