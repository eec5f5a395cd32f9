#!/usr/bin/env python3
"""Solving operators from the Montgomery family.

Walks through the eigensolver: a harmonic-oscillator sanity check with a
known spectrum, the bottom of the Montgomery family at alpha = 0, the
reflection symmetry in alpha, a look at the sampled ground state, and the
Dirichlet half line as the full line's odd modes.
"""

import numpy as np

from montspec import Geometry, OperatorSpec, ShiftedHarmonicPotential, solve

print("=" * 70)
print("1. Harmonic oscillator oracle: -d2/dt2 + t^2 has spectrum 1, 3, 5, ...")
print("=" * 70)
res = solve(ShiftedHarmonicPotential(0.0), count=3, tol=1e-8)
for j, lam in enumerate(res.eigenvalues, start=1):
    print(f"  lambda_{j} = {lam:.12f}   (exact {2 * j - 1})")
print(f"  grid: n = {res.grid_used.n} on [{res.grid_used.lower:.3f}, "
      f"{res.grid_used.upper:.3f}], achieved tol ~ {res.achieved_tol_estimate:.1e}")

print()
print("=" * 70)
print("2. The Montgomery operator Q(k=2, alpha=0): the certified minimum")
print("=" * 70)
res = solve(OperatorSpec(2, 0.0), count=2, tol=1e-8)
print(f"  lambda_1 = {res.eigenvalues[0]:.10f}")
print(f"  lambda_2 = {res.eigenvalues[1]:.10f}")

u, t = res.ground_state_values, res.ground_state_points
print(f"  ground state: {len(u)} samples, all positive: {bool(np.all(u > 0))}")
print(f"  even in t (mirror residual): {np.max(np.abs(u - u[::-1])):.2e}")
norm = float(np.sum(res.ground_state_grid.spacing * u**2))
print(f"  discrete L2 norm: {norm:.15f}")

print()
print("=" * 70)
print("3. alpha -> -alpha is a unitary reflection for even k")
print("=" * 70)
for alpha in (0.4, 1.1):
    plus = solve(OperatorSpec(2, alpha), count=1, tol=1e-9).eigenvalues[0]
    minus = solve(OperatorSpec(2, -alpha), count=1, tol=1e-9).eigenvalues[0]
    print(f"  alpha = +-{alpha}: lambda_1 differs by {abs(plus - minus):.2e}")

print()
print("=" * 70)
print("4. The Dirichlet half line: the full line's odd modes")
print("=" * 70)
full = solve(ShiftedHarmonicPotential(0.0), count=4, tol=1e-8)
dirichlet = solve(ShiftedHarmonicPotential(0.0), count=2, tol=1e-8,
                  geometry=Geometry.HALF_LINE_DIRICHLET)
print(f"  full-line harmonic:           {full.eigenvalues}  (modes 1, 3, 5, 7)")
print(f"  Dirichlet half-line harmonic: {dirichlet.eigenvalues}  (odd modes 3, 7)")
gap = max(abs(a - b) for a, b in zip(dirichlet.eigenvalues, full.eigenvalues[1::2]))
print(f"  largest difference from the full line's modes 3 and 7: {gap:.1e}")
