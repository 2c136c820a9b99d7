#!/usr/bin/env python3
"""OT-FKM quartics and isoparametric level sets on S^5.

The quartic f(x) = |x|^4 - 2 sum <P_i x, x>^2 of a symmetric Clifford
system is isoparametric for the round sphere.  After navigating with a
Killing wind tangent to its levels, the same levels stay isoparametric
for the resulting non-Riemannian metric: F(grad f) and the nonlinear
Laplacian remain constant per level, for f and for -f, even though
grad(-f) != -grad(f).
"""

import numpy as np

from finslab import (Chart, KillingField, build_clifford, check_isoparametric,
                     check_tangency, check_transnormal, killing_norm,
                     nonlinear_gradient, otfkm_function,
                     principal_curvature_spectrum, randers_sphere,
                     round_metric, sample_level_set, spin_lift)

sys_ = build_clifford(1, 3)
print(f"Clifford system m={sys_.m}, k={sys_.k} on R^{sys_.dim}: "
      f"multiplicities {sys_.multiplicities}")
f = otfkm_function(sys_)

X = spin_lift(sys_).elements[0]
W = KillingField(0.5 * X / killing_norm(KillingField(X)))
print(f"wind = P0 P1 scaled to |W|_h = {killing_norm(W)}")
print(f"tangency max |df(W)|: "
      f"{check_tangency(f, W, samples=300).max_deviation:.2e}")

chart = Chart(np.eye(6)[0])
levels = [-0.8, -0.3, 0.0, 0.3, 0.8]
for name, met in (("round", round_metric(chart)),
                  ("randers", randers_sphere(chart, W))):
    t = check_transnormal(met, f, levels, per_level=25)
    i = check_isoparametric(met, f, levels, per_level=25)
    print(f"\n=== {name} metric ===")
    print(f"transnormal  spread {t.max_deviation:.2e}  "
          f"profile a(c): "
          + ", ".join(f"{e['level']:+.1f} -> {e['mean']:.4f}"
                      for e in t.per_level))
    print(f"isoparametric spread {i.max_deviation:.2e} (f and -f)")

print("\n=== the asymmetry of the nonlinear gradient ===")
met = randers_sphere(chart, W)
fld = met.with_center(sample_level_set(f, 0.3, 1, seed=3)[0])
a = nonlinear_gradient(fld, f, np.zeros(5))
b = nonlinear_gradient(fld, -f, np.zeros(5))
print(f"|grad(-f) + grad(f)| = {np.linalg.norm(a + b):.4f}  (nonzero)")

print("\n=== principal curvatures of the level f = 0.3 ===")
for name, met in (("round", round_metric(chart)),
                  ("randers", randers_sphere(chart, W))):
    spec = principal_curvature_spectrum(met, f, 0.3, points=6)
    print(f"  {name:8s} g = {spec.g}, multiplicities {spec.multiplicities}, "
          f"values {np.round(spec.cluster_means, 4)}")
