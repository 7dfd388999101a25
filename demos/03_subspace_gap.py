"""The gap metric on subspaces and its two formulas.

The gap between subspaces is the Hausdorff distance between their unit
balls.  gap() computes it as the largest singular value of projector
compositions.  gap_direct() computes it as the truncated Hausdorff distance
of the unit-ball slices; on subspaces that is also a closed-form operator
norm, ||B_v (I - P_w)||, not the ball-supremum estimator.  The two must
agree, but they are two spectral formulas, not two independent methods.
"""

import math

import numpy as np

from hyperconvex import (
    Subspace,
    aw_origin,
    gap,
    gap_direct,
    orthogonal_complement,
    truncated_hausdorff,
)


def line(angle_deg: float) -> Subspace:
    a = math.radians(angle_deg)
    return Subspace(np.array([[math.cos(a), math.sin(a)]]))


print("Planar lines at an angle alpha sit at gap sin(alpha):")
for deg in (0, 30, 45, 90):
    print(f"  angle {deg:3d}: gap = {gap(line(0), line(deg)):.6f}, sin = {math.sin(math.radians(deg)):.6f}")
print()

print("The slice formula agrees with the projector formula:")
iv = gap_direct(line(0), line(30), 1e-3)
print(f"  projectors {gap(line(0), line(30)):.6f} vs slices [{iv.lo:.6f}, {iv.hi:.6f}]")
print()

print("Taking orthogonal complements is an isometry for the gap:")
rng = np.random.default_rng(7)
for _ in range(3):
    v = Subspace(np.linalg.qr(rng.normal(size=(4, 2)))[0].T)
    w = Subspace(np.linalg.qr(rng.normal(size=(4, 2)))[0].T)
    lhs, rhs = gap(v, w), gap(orthogonal_complement(v), orthogonal_complement(w))
    print(f"  gap {lhs:.9f} vs complement gap {rhs:.9f}  (|diff| = {abs(lhs - rhs):.1e})")
print()

print("Cutting subspaces with the radius-j ball sandwiches the Hausdorff")
print("distance between gap and j * gap:")
v, w = line(0), line(25)
theta = gap(v, w)
for j in (1.0, 2.0, 3.0):
    iv = truncated_hausdorff(v, w, j, 1e-3)
    print(f"  j = {j:.0f}: d_H(V cut, W cut) in [{iv.lo:.6f}, {iv.hi:.6f}],  bounds [{theta:.6f}, {j * theta:.6f}]")
print()

print("Both subspaces contain the origin, so the ball-restricted formula for")
print("the Attouch-Wets metric applies directly:")
iv = aw_origin(v, w)
print(f"  d_AW in [{iv.lo:.6f}, {iv.hi:.6f}], never below min(1, gap) - eps = {min(1.0, theta) - 1e-3:.6f}")
