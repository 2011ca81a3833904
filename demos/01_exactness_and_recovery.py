"""Exact relaxation of a uniform quadratic maximization, start to finish.

Builds a random instance whose constraint terms satisfy the rank condition,
solves the cone relaxation, certifies exactness, and steps the relaxation
optimum onto a feasible point attaining the same value.
"""

import numpy as np

from socqp import (
    Bound,
    SymMatrix,
    UqInstance,
    build_socp_uq,
    certify_strong_duality,
    check_as3,
    solve,
    tighten_uq,
)

rng = np.random.default_rng(7)

# a 3-variable instance with two constraints sharing the Hessian Q
n, p = 3, 2
basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
q = SymMatrix.from_dense((basis * [1.6, 1.0, 0.7]) @ basis.T)
b = rng.normal(size=(p + 1, n)) * 0.4
inst = UqInstance(n, q, b, np.zeros(p + 1), [Bound(-np.inf, 1.0), Bound(-0.5, 0.8)])

prog, meta = build_socp_uq(inst)
res = solve(prog)
value = meta.original_value(res)
print(f"relaxation value              {value:.9f}  ({res.status}, {res.iterations} iterations)")

cert = check_as3(inst)
print(f"exactness certificate         holds={cert.holds}  ({cert.reason})")

duality = certify_strong_duality(inst, res)
print(f"closed-form dual at solve     {duality.dual_value:.9f}  gap {duality.gap:.2e}")

x, trace = tighten_uq(inst, res)
print(f"recovered point               {np.round(x, 6)}")
print(f"objective at recovered point  {inst.values(x)[0]:.9f}")
print(f"feasible                      {inst.is_feasible(x)}")
print(f"cone gap closed in            {len(trace.steps)} step(s), residual {trace.final_gap:.2e}")
