#!/usr/bin/env python3
"""Perturbation identities for lambda1(alpha), verified numerically.

At the critical point alpha = 0 (even k): the first derivative vanishes,
the virial identity pins the potential expectation to lambda1/(k+2), and
the reduced-resolvent second derivative is positive and matches a
finite-difference oracle.
"""

from montspec import identity_report

for k in (2, 4):
    rep = identity_report(k, 0.0, tol=1e-7)
    print("=" * 70)
    print(f"k = {k}, alpha = 0")
    print("=" * 70)
    print(f"  Feynman-Hellmann integral: {rep.fh_integral:+.3e}   "
          f"(fd oracle {rep.d1_fd:+.3e}) -> critical point")
    print(f"  virial: int W^2 u^2 = {rep.virial_lhs:.10f} vs lambda1/(k+2) = "
          f"{rep.virial_rhs:.10f}")
    print(f"          residual {abs(rep.virial_lhs - rep.virial_rhs):.2e}")
    print(f"  second derivative (resolvent): {rep.d2_exact:.8f}")
    print(f"  second derivative (fd oracle): {rep.d2_fd:.8f}")
    print(f"  gap criterion (k+2)/(k+6) lambda2 > lambda1: {rep.gap_criterion} "
          f"(margin {rep.gap_margin:.4f})")
    print(f"  -> non-degenerate minimum at alpha = 0")
    print()

print("=" * 70)
print("Away from the critical point the derivative is positive (lambda1")
print("increases with alpha > 0), matching the finite-difference oracle:")
print("=" * 70)
for alpha in (0.25, 0.75):
    rep = identity_report(2, alpha, tol=1e-7)
    fh, fd = rep.fh_integral, rep.d1_fd
    print(f"  alpha = {alpha}: FH {fh:+.8f}  fd {fd:+.8f}  "
          f"diff {abs(fh - fd):.1e}")
