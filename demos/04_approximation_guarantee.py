"""Bounded-ratio approximation for convex-constrained maximization.

When the relaxation is not tight, the approximation still returns a feasible
point whose value is at least ((1-gamma)/(sqrt(2)+gamma))^2 of the relaxation
optimum, with gamma computed from the data at the point where the rounding
centres itself, the point of least gamma.  The guarantee involves neither
the number of variables nor the number of constraints.

Opposed constraint pairs (+v, -v) pin the relaxation optimum near the origin
while its lifted value stays large, so the cone gap is genuinely open and the
rounding construction does real work.
"""

import numpy as np

from socqp import Bound, SymMatrix, UqInstance, approx_uq
from socqp.oracle import grid_max_uq, infer_box

rng = np.random.default_rng(3)

n, pairs = 2, 3
basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
q = SymMatrix.from_dense((basis * rng.uniform(0.7, 1.8, n)) @ basis.T)
b = np.zeros((2 * pairs + 1, n))
b[0] = rng.normal(size=n) * 0.05
bounds = []
for k in range(pairs):
    v = rng.normal(size=n)
    v *= rng.uniform(0.4, 1.0) / np.linalg.norm(v)
    upper = rng.uniform(0.4, 1.0)
    b[1 + 2 * k] = v
    b[2 + 2 * k] = -v
    bounds += [Bound(-np.inf, upper)] * 2
inst = UqInstance(n, q, b, np.zeros(2 * pairs + 1), bounds)

print(f"instance: n = {n} variables, p = {2 * pairs} one-sided constraints")

# the rounding centres itself at the point of least gamma; the fractions are
# of f_0 - f_0(centre), the values below are f_0 itself
x, trace, cert = approx_uq(inst)
print(f"centre (least gamma)       ({', '.join(f'{v:.6f}' for v in cert.centre)})")
print(f"gamma at the centre        {cert.gamma:.6f}")
print(f"relaxation value           {cert.upper + cert.offset:.9f}")
print(f"guaranteed fraction        {cert.guaranteed_ratio:.6f}")
print(f"achieved value             {cert.lower + cert.offset:.9f}")
print(f"achieved fraction          {cert.lower / cert.upper:.6f}")
print(f"worst constraint slack     {inst.worst_violation(x):.2e}")
print()
print(f"construction detail: candidate {trace.j_bar} selected, "
      f"alpha = {trace.alpha:.4f}, pullback tau = {trace.tau_bar:.6f}"
      + ("  (shortcut: relaxation already tight)" if trace.shortcut else ""))

lo, hi = infer_box(inst)
g = grid_max_uq(inst, h=float(np.max(hi - lo)) / 110.0, refine=3)
print(f"true optimum (grid oracle) {g.value:.9f}")
print("sandwich: achieved <= true optimum <= relaxation, as certified")
