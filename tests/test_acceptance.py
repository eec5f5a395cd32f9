"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import math

import numpy as np
import pytest

from montspec import bounds, certify, identities
from montspec.bounds import de_gennes_theta0
from montspec.eigensolver import solve
from montspec.operators import OperatorSpec, ShiftedHarmonicPotential

from derivations import (
    EvenShiftedHarmonicPotential,
    dirichlet_well_lambda,
    h_maximized,
    h_maximizer,
    trial_width_k2,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PI2_4 = math.pi**2 / 4.0


def _report(number: int, description: str, ok: bool):
    print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_oracle_spectrum():
    res = solve(ShiftedHarmonicPotential(0.0), count=3, tol=1e-8)
    errs = [abs(lam - exact) for lam, exact in zip(res.eigenvalues, (1.0, 3.0, 5.0))]
    _report(1, f"harmonic spectrum (1,3,5) within 1e-8 (max err {max(errs):.2e})",
            max(errs) < 1e-8)


def test_criterion_02_A2_and_trial_width():
    a2 = bounds.upper_bound_A(2)
    rho = trial_width_k2()
    ok = 0.6641 <= a2 <= 0.6643 and 2.56 <= rho <= 2.58
    _report(2, f"A_2 = {a2:.6f} in [0.6641, 0.6643], rho = {rho:.4f} in [2.56, 2.58]", ok)


def test_criterion_03_sandwich_k2():
    res = solve(OperatorSpec(2, 0.0), count=2, tol=1e-8)
    lam1, lam2 = res.eigenvalues[0], res.eigenvalues[1]
    lower = bounds.h_closed(2) * 1.0
    upper = bounds.upper_bound_A(2)
    ok = lower <= lam1 <= upper and lam2 >= bounds.lower_bound_B(2)
    _report(3, f"lambda1 = {lam1:.6f} in [{lower:.4f}, {upper:.4f}], "
               f"lambda2 = {lam2:.4f} >= B_2 = {bounds.lower_bound_B(2):.4f}", ok)


def test_criterion_04_b_tilde_floor():
    bt = bounds.lower_bound_B_tilde(70)
    scaled_exact = GOLDEN * dirichlet_well_lambda(1.1, 70)
    ok = bt >= 4.719 and scaled_exact >= 4.719
    _report(4, f"B~_70 = {bt:.6f} >= 4.719 and golden * well lambda = "
               f"{scaled_exact:.6f} >= 4.719", ok)


def test_criterion_05_large_k_chain():
    bt = bounds.lower_bound_B_tilde(70)
    two_alpha_star = 2.0 * math.sqrt(72.0 / 76.0 * bt - PI2_4)
    first, second = bounds.chain(70, bounds.FLOATS).large_c_terms
    ok = two_alpha_star >= 2.83 and first >= 7.76 and second >= 21.2
    _report(5, f"2 sqrt(72/76 B~ - pi^2/4) = {two_alpha_star:.5f} >= 2.83, "
               f"(2.8 - 1/71)^2 = {first:.5f} >= 7.76, second C term = "
               f"{second:.4f} >= 21.2", ok)


def test_criterion_06_small_k_certificates():
    reports = [certify.certify_small_k(k) for k in range(2, 69, 2)]
    worst = min(c.diff_lower for r in reports for c in r.checks)
    ok = all(r.passed for r in reports) and worst > 0.0
    _report(6, f"34 small-k certificates pass, worst enclosed lhs - rhs {worst:.3e} > 0", ok)


def test_criterion_07_theta0():
    value = de_gennes_theta0(1e-7)
    # the Neumann eigenvalue at xi0 = sqrt(theta0) is theta0 (Dauge-Helffer),
    # solved as lambda1 of the even extension (|t| - xi0)^2 on the full line
    res = solve(EvenShiftedHarmonicPotential(math.sqrt(value)), count=1, tol=1e-9)
    gap = abs(res.lambda1 - value)
    ok = value > 0.59 and gap <= res.achieved_tol_estimate
    _report(7, f"theta0 = {value:.8f} > 0.59, even-extension solve at sqrt(theta0) "
               f"off by {gap:.2e} <= {res.achieved_tol_estimate:.2e}", ok)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_criterion_08_identities(k):
    rep = identities.identity_report(k, 0.0, tol=1e-7)
    virial_residual = abs(rep.virial_lhs - rep.virial_rhs)
    d2_dev = abs(rep.d2_exact - rep.d2_fd)
    ok = (
        abs(rep.fh_integral) < 1e-6
        and virial_residual < 1e-6
        and rep.d2_exact > 0.0
        and d2_dev < 1e-4
    )
    _report(8, f"k={k}: |FH| = {abs(rep.fh_integral):.2e}, virial residual = "
               f"{virial_residual:.2e}, d2 = {rep.d2_exact:.4f} > 0 "
               f"(fd dev {d2_dev:.2e})", ok)


def test_criterion_09_uniqueness_evidence():
    rows = certify.scan(2, 0.0, 3.0, 61, tol=1e-6)
    increasing = all(a.lambda1 < b.lambda1 for a, b in zip(rows, rows[1:]))
    locations = [certify.locate_minimum(k)[0] for k in (2, 4)]
    ok = increasing and all(abs(a) < 1e-4 for a in locations)
    _report(9, f"lambda1 strictly increasing over 61-step scan; minimizers "
               f"{[f'{a:.1e}' for a in locations]} within 1e-4 of 0", ok)


def test_criterion_10_monotonicity_and_limits():
    values = [bounds.upper_bound_A(k) for k in range(2, 202, 2)]
    increasing = all(a < b for a, b in zip(values, values[1:]))
    below = all(a < PI2_4 for a in values)
    b_dev = abs(bounds.lower_bound_B(10**4) - 2.25)
    ok = increasing and below and b_dev < 1e-2
    _report(10, f"A_k increasing to k=200, all below pi^2/4; "
                f"|B_1e4 - 9/4| = {b_dev:.2e} < 1e-2", ok)


def test_criterion_11_h_equality():
    devs = [abs(bounds.h_closed(a) - h_maximized(a)) for a in (2, 4, 10, 70, 200)]
    locs = [
        abs(h_maximizer(a) - 1.0 / math.sqrt(a + 1.0))
        for a in (2, 4, 10, 70, 200)
    ]
    ok = max(devs) < 1e-12 and max(locs) < 1e-8
    _report(11, f"h closed vs maximized: max dev {max(devs):.2e} < 1e-12, "
                f"maximizer within {max(locs):.2e} of 1/sqrt(a+1)", ok)
