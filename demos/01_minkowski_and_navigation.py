#!/usr/bin/env python3
"""Minkowski norms and Zermelo navigation, step by step.

A Randers norm is a Euclidean ball pushed off-center by a linear term.
Navigation produces exactly these norms: take the unit ball of a
quadratic norm and translate it by a wind vector v with F(-v) < 1.  This
script builds the navigated norm two ways (closed Randers formula and the
scalar solve of its defining property), checks the defining round trip,
and undoes the navigation.
"""

import numpy as np

from finslab import (NavigationDatum, NormEvaluator, check_navigation_lemma,
                     fundamental_tensor, invert_navigation, legendre_solve,
                     navigate, navigated_norm)

rng = np.random.default_rng(0)

print("=== the navigated norm of (Euclidean R^2, v = (1/2, 0)) ===")
datum = NavigationDatum(NormEvaluator.euclidean(2), np.array([0.5, 0.0]))
Ft = navigated_norm(datum)
print(f"kind: {Ft.kind}")
print(f"F'(1, 0)  = {navigate(datum, [1.0, 0.0]):.6f}   (downwind: 2/3)")
print(f"F'(-1, 0) = {navigate(datum, [-1.0, 0.0]):.6f}   (upwind: 2)")

print("\ndefining property F'(y + F(y) v) = F(y) on random vectors:")
worst = 0.0
for _ in range(1000):
    y = rng.standard_normal(2)
    shifted = y + np.linalg.norm(y) * datum.wind
    worst = max(worst, abs(navigate(datum, shifted) - np.linalg.norm(y)))
print(f"  max deviation over 1000 samples: {worst:.2e}")

print("\nclosed Randers formula vs direct scalar solve:")
y = np.array([0.3, -0.7])
print(f"  closed = Ft(y)               = {Ft(y):.15f}")
print(f"  solved = navigate(datum, y)  = {navigate(datum, y):.15f}")

print("\n=== fundamental tensor and Legendre duality ===")
G = fundamental_tensor(Ft, np.array([0.0, 1.0]))
print("g_ij at y = (0, 1):")
print(np.round(G, 6))
xi = np.array([1.0, 0.25])
grad = legendre_solve(Ft, xi)
print(f"legendre_solve({xi}) = {np.round(grad, 6)}")
print(f"  residual |g(y) y - xi| = "
      f"{np.linalg.norm(0.5 * Ft.sq_jet(grad).grad - xi):.2e}")

print("\n=== undoing the navigation ===")
back = invert_navigation(Ft, datum.wind)
errs = [abs(back(v) - np.linalg.norm(v))
        for v in rng.standard_normal((200, 2))]
print(f"recovered norm vs Euclidean, max error: {max(errs):.2e}")

print("\n=== the inner-product identity under navigation ===")
rep = check_navigation_lemma(
    NavigationDatum(NormEvaluator.euclidean(3), np.array([0.3, 0.0, 0.0])),
    samples=1000)
print(rep.to_json(indent=2))
