#!/usr/bin/env python3
"""Closed-form bounds across k.

Prints the commutator constant h, the bounds table for a range of even
k, and the figure tables (the alpha = 0 upper bound vs. the large-alpha
floor, and the exclusion radii whose overlap completes the argument).
"""

import math

from montspec import (
    bounds_table,
    figure_csv,
    h_closed,
    lower_bound_B,
    lower_bound_B_tilde,
    upper_bound_A,
)

print("=" * 70)
print("1. h(a): the commutator constant, tending to 1 as a grows")
print("=" * 70)
for a in (2, 10, 70, 1000):
    print(f"  h({a}) = {h_closed(a):.12f}")

print()
print("=" * 70)
print("2. Bounds table for selected even k")
print("=" * 70)
header = f"{'k':>4} {'A_k':>10} {'B_k':>10} {'B~_k':>10} {'C_k':>10} {'a*':>8} {'a**':>8}"
print(" " + header)
for k in (2, 6, 12, 30, 68, 70, 120):
    t = bounds_table(k)
    bt = f"{t.b_tilde_k:10.5f}" if t.b_tilde_k is not None else " " * 10
    ds = f"{t.alpha_double_star:8.4f}" if t.alpha_double_star is not None else " " * 8
    print(f" {t.k:>4} {t.a_k:10.5f} {t.b_k:10.5f} {bt} {t.c_k:10.5f} "
          f"{t.alpha_star:8.4f} {ds}")

print()
print("  A_k climbs toward pi^2/4 =", f"{math.pi**2 / 4:.5f}",
      "| B_k tends to 9/4 | B~_k takes over past k = 68")
print(f"  B_68 = {lower_bound_B(68):.5f} vs B~_70 = {lower_bound_B_tilde(70):.5f}")
print(f"  A_200 = {upper_bound_A(200):.5f} still below pi^2/4")

print()
print("=" * 70)
print("3. Figure tables (CSV, first rows)")
print("=" * 70)
for which in ("lambda1comp", "completeproof"):
    lines = figure_csv(which).splitlines()
    print(f"  {which}:")
    for line in lines[:4]:
        print("   ", line)
    print(f"    ... ({len(lines) - 1} data rows)")
