"""Trust-region subproblems through the lifted convex relaxation.

Covers the classic ball-constrained case (including hard-case geometry,
where the minimizer must be pushed onto the sphere along a ground
eigenvector), the two-sided ball band, the variant with inside/outside
balls plus a polytope row, and weighted max-min dispersion in a ball.  Each
builder returns a plain structured instance: A is split as
(A - lam_min I) + lam_min I, the ball rows carry the identity block, and the
generic relaxation (build_cr / build_cr2), exactness certificate
(check_condition_c) and recovery (tighten_qcqp) do the rest.
"""

import numpy as np

from socqp import (
    SymMatrix,
    build_cr,
    build_cr2,
    build_trs,
    build_ttrs,
    build_vtrs,
    build_wd,
    check_condition_c,
    lift_set_onesided,
    solve,
    tighten_qcqp,
    wd_units,
)

# --- hard-case trust region: A = diag(-1, -1, 0), tiny linear term ---------
a = np.diag([-1.0, -1.0, 0.0])
b = np.array([0.0, 0.0, 0.01])
inst = build_trs(SymMatrix.from_dense(a), b)
lifted = lift_set_onesided(inst)
print("trust region, hard-case geometry")
print(f"  lifted blocks            {lifted}")
print(f"  exactness condition      {check_condition_c(inst, lifted).holds}")

prog, meta = build_cr(inst)
res = solve(prog)
print(f"  relaxation value         {meta.original_value(res):.9f}")

x, _ = tighten_qcqp(inst, res, meta)
print(f"  recovered ||x||          {np.linalg.norm(x):.9f}  (on the sphere)")
print(f"  objective at recovered   {x @ a @ x + 2 * b @ x:.9f}")
print()

# --- two-sided band: 1 <= ||x||^2 <= 4 with a concave objective ------------
inst = build_ttrs(SymMatrix.from_dense(-np.eye(2)), np.zeros(2), 1.0, 4.0)
prog, meta = build_cr2(inst)
res = solve(prog)
x, _ = tighten_qcqp(inst, res, meta)
print("two-sided ball band, min -||x||^2/2 over 1 <= ||x||^2 <= 4")
print(f"  optimum                  {meta.original_value(res):.9f}  (expected -2)")
print(f"  recovered ||x||^2        {x @ x:.9f}  (outer radius)")
print()

# --- variant with an outside ball and a halfspace ---------------------------
qmat = np.diag([0.8, -1.0])
inst = build_vtrs(
    SymMatrix.from_dense(qmat),
    np.array([0.2, 0.0]),
    balls_in=[(np.zeros(2), 1.2)],
    balls_out=[(np.zeros(2), 0.3)],
    poly_rows=[(np.array([1.0, 0.0]), 0.5)],
)
prog, meta = build_cr2(inst)
rep = check_condition_c(inst, meta.lifted)
res = solve(prog)
x, _ = tighten_qcqp(inst, res, meta)
print("trust-region variant (annulus + halfspace)")
print(f"  exactness condition      holds={rep.holds}  ({rep.reason})")
print(f"  optimum                  {meta.original_value(res):.9f}")
print(f"  objective at recovered   {inst.values(x)[0]:.9f}")
print()

# --- weighted max-min dispersion: two points at +-0.4 e_1 in the unit disc --
# the instance is in (u, sigma), x = x0 + R u and dispersion S sigma
x0 = np.zeros(2)
points = np.array([[0.4, 0.0], [-0.4, 0.0]])
weights = np.array([1.0, 2.0])
inst = build_wd(x0, 1.0, points, weights)
prog, meta = build_cr(inst)
rep = check_condition_c(inst, meta.lifted)
res = solve(prog)
u, _ = tighten_qcqp(inst, res, meta)
length, unit = wd_units(x0, 1.0, points, weights)
x = x0 + length * u[:-1]
dispersion = min(w * np.sum((x - z) ** 2) for z, w in zip(points, weights))
print("weighted max-min dispersion, points +-0.4 e_1, weights (1, 2)")
print(f"  exactness condition      holds={rep.holds}  ({rep.reason})")
print(f"  relaxation value         {unit * meta.original_value(res):.9f}")
print(f"  dispersion at recovered  {dispersion:.9f}  at x = {np.round(x, 6)}")
