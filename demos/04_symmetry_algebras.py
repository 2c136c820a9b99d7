#!/usr/bin/env python3
"""Symmetry algebras of OT-FKM quartics: spin lift plus centralizer.

Two families of skew matrices generate flows preserving the quartic of a
Clifford system: products P_i P_j (a copy of so(m+1)) and the centralizer
of the system (so(k), u(k), sp(k), or a two-block sum, depending on
m mod 8).  The centralizer is computed as one null space on so(l), in the
eigenbasis of P_0; its dimension is compared against the representation-type
prediction, and every basis element is checked to be an eligible wind
(tangent, scalable below norm 1).
"""

import warnings

import numpy as np

from finslab import (KillingField, build_clifford, centralizer, check_tangency,
                     clifford_delta, killing_norm, lie_closure_residual,
                     otfkm_function, predicted_centralizer_dim, spin_lift,
                     symmetry_basis)

warnings.filterwarnings("ignore", message="m2 =")

print(f"{'m':>2} {'k':>6} {'2l':>4} {'centralizer':>12} "
      f"{'predicted':>10} {'spin':>5} {'closure':>9}")
for m, k in [(1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (3, 2), (4, (1, 1)),
             (4, (2, 0)), (5, 1), (6, 1), (7, 1), (8, (1, 1)), (9, 1)]:
    sys_ = build_clifford(m, k)
    cent = centralizer(sys_)
    spin = spin_lift(sys_)
    resid = lie_closure_residual(symmetry_basis(sys_), trials=4)
    pred = predicted_centralizer_dim(sys_)
    mark = "ok" if cent.dim == pred else "MISMATCH"
    print(f"{m:>2} {str(k):>6} {sys_.dim:>4} {cent.dim:>12} {pred:>10} "
          f"{spin.dim:>5} {resid:>9.1e}  {mark}")

print("\nevery basis element is an eligible wind (m=1, k=4 on S^7):")
sys_ = build_clifford(1, 4)
f = otfkm_function(sys_)
for i, X in enumerate(symmetry_basis(sys_).elements):
    W = KillingField(0.5 * X / killing_norm(KillingField(X)))
    rep = check_tangency(f, W, samples=200)
    print(f"  element {i}: |W|_h = {killing_norm(W):.2f}, "
          f"max |df(W)| = {rep.max_deviation:.1e}")
