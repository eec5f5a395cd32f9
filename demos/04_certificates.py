#!/usr/bin/env python3
"""The certification pipeline end to end.

Closed-form certificates for both regimes, the de Gennes constant that
feeds the large-alpha floor, and scan evidence that lambda1(alpha) has
its unique minimum at alpha = 0.
"""

from montspec import (
    certify_large_k,
    certify_small_k,
    de_gennes_theta0,
    locate_minimum,
    scan,
)

print("=" * 70)
print("1. Small-k certificate (pure arithmetic), shown for k = 2")
print("=" * 70)
rep = certify_small_k(2)
for c in rep.checks:
    print(f"  {c.name:42s} {c.lhs:10.6f} > {c.rhs:10.6f}  "
          f"margin {c.rel_margin:.2e}")
print(f"  => {'PASS' if rep.passed else 'FAIL'}")

print()
all_pass = all(certify_small_k(k).passed for k in range(2, 69, 2))
print(f"2. All 34 even k in [2, 68]: {'PASS' if all_pass else 'FAIL'}")

print()
print("=" * 70)
print("3. Large-k certificate, shown for k = 70")
print("=" * 70)
rep = certify_large_k(70)
for c in rep.checks:
    print(f"  {c.name:42s} {c.lhs:10.6f} > {c.rhs:10.6f}  "
          f"margin {c.rel_margin:.2e}")
print(f"  => {'PASS' if rep.passed else 'FAIL'}")

print()
print("=" * 70)
print("4. The de Gennes constant behind the large-alpha floor")
print("=" * 70)
theta0 = de_gennes_theta0(1e-7)
print(f"  theta0 = {theta0:.8f}  (certificates only use the floor 0.59)")

print()
print("=" * 70)
print("5. Numerical evidence: lambda1(alpha) rises away from alpha = 0")
print("=" * 70)
rows = scan(2, 0.0, 3.0, 13, tol=1e-6)
print("  alpha    lambda1     lambda2     d lambda1   gap ok")
for r in rows[::3]:
    print(f"  {r.alpha:5.2f} {r.lambda1:10.6f} {r.lambda2:11.6f} "
          f"{r.d_lambda1:+11.6f}   {r.gap_ok}")
alpha_min, lam_min = locate_minimum(2)
print(f"\n  line-search minimizer: alpha = {alpha_min:.2e} "
      f"(lambda1 = {lam_min:.8f})")
