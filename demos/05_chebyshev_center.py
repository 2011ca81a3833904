"""Chebyshev center of an intersection of balls, with a quality certificate.

The candidate center comes from a simplex-weighted convex QP, solved through
its dual in n + 2 variables; the simplex weights printed below are that
dual's row multipliers.  Up to p = n balls that candidate is provably
optimal; beyond that the library brackets the farthest distance from the
returned center and guarantees a fraction of the relaxation value that
depends only on how the balls are laid out.  The bracket's high end is the
relaxation value at (center, value + ||center||^2), an optimum that the
weights give in closed form; its low end is the distance to the witness
point that the ratio rounding makes of that optimum.
"""

import numpy as np

from socqp import BallIntersection, chebyshev_certified

rng = np.random.default_rng(23)

# five balls in the plane: the hard regime p > n
p = 5
balls = BallIntersection(
    2,
    rng.normal(size=(p, 2)) * 0.45,
    rng.uniform(1.0, 1.6, size=p),
)

result = chebyshev_certified(balls)
lo, hi = result.attained

print(f"{p} balls in R^2")
print(f"candidate center            {np.round(result.center, 6)}")
print(f"simplex weights             {np.round(result.weights, 6)}")
print(f"relaxation value            {result.v_dcc:.9f}")
print(f"interiority gamma           {result.gamma:.6f}  (closed-form bound {result.gamma_upper:.6f})")
print(f"farthest-distance bracket   [{lo:.9f}, {hi:.9f}]")
print(f"guaranteed fraction         {result.guaranteed_ratio:.6f}")
print(f"witness point in the set    {np.round(result.far_point, 6)}")
print()
print("certified chain: ratio * value <= bracket low <= bracket high <= value")
