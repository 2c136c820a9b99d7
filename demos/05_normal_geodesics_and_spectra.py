#!/usr/bin/env python3
"""Unit normals of an isoparametric family are geodesic fields.

For a wind-invariant OT-FKM family on a navigated sphere the two F-unit
normals n1 = n + W and n2 = -n + W flow along geodesics.  This script
follows both normal fields through the level family, monitors the
geodesic ODE residual, and reads off the principal-curvature pattern of
the homogeneous examples (only g in {1, 2, 4} occurs).
"""

import numpy as np

from finslab import (Chart, KillingField, block_killing, build_clifford,
                     geodesic_field_residual, height_function, integrate_flow,
                     killing_norm, otfkm_function,
                     principal_curvature_spectrum, randers_sphere,
                     sample_level_set, spin_lift, split_quadratic_function,
                     unit_gradient_field)

sys_ = build_clifford(1, 3)
f = otfkm_function(sys_)
X = spin_lift(sys_).elements[0]
W = KillingField(0.5 * X / killing_norm(KillingField(X)))
base = randers_sphere(Chart(np.eye(6)[0]), W)

print("=== normal flows through the level family (S^5, spin wind) ===")
for fn, label, level in ((f, "n1 (increasing f)", -0.8),
                         (-f, "n2 (decreasing f)", -0.8)):
    start = sample_level_set(fn, level, 1, seed=5)[0]
    met = base.with_center(start)
    field = unit_gradient_field(met, fn)
    path = integrate_flow(field, np.zeros(5), 0.25, steps=50)
    resid = max(geodesic_field_residual(met, field, path[i])
                for i in range(0, 51, 10))
    f_start = fn(met.chart.map(path[0]))
    f_end = fn(met.chart.map(path[-1]))
    print(f"  {label}: f {f_start:+.3f} -> {f_end:+.3f}, "
          f"geodesic residual {resid:.1e}")

print("\n=== principal-curvature counts of homogeneous families ===")
cases = [
    ("latitude spheres of S^4, wind diag(0, 0.5 J)",
     randers_sphere(Chart(np.eye(5)[0]), block_killing(1, [0.5], [2])),
     height_function(5, axis=0), 0.4),
    ("S^1 x S^1 levels in S^3, wind diag(0.3 J, 0.6 J)",
     randers_sphere(Chart(np.eye(4)[0]),
                    block_killing(0, [0.3, 0.6], [1, 1])),
     split_quadratic_function(4, 2), 0.4),
    ("otfkm levels in S^5, spin wind", base, f, 0.3),
]
for name, met, fn, level in cases:
    spec = principal_curvature_spectrum(met, fn, level, points=6)
    print(f"  {name}")
    print(f"    g = {spec.g}, multiplicities {spec.multiplicities}, "
          f"curvatures {np.round(spec.cluster_means, 4)}")
