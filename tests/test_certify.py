"""Certification pipeline: scans, minimum location, certificates, tables."""

import mpmath
import numpy as np
import pytest

from montspec import bounds, certify, eigensolver, spectral, tridiag
from montspec.certify import (
    CertCheck,
    CertificateReport,
    Regime,
    ScanRow,
    certify_large_k,
    certify_small_k,
    figure_csv,
    figure_data,
    locate_minimum,
    scan,
    scan_csv,
)
from montspec.eigensolver import solve
from montspec.errors import SolverFailure
from montspec.operators import HalfPowerModelPotential, MontgomeryPotential, OperatorSpec


@pytest.fixture(scope="module")
def scan_k2():
    return scan(2, 0.0, 3.0, 13, tol=1e-6)


def test_scan_monotone_in_alpha(scan_k2):
    rows = scan_k2
    assert len(rows) == 13
    assert all(a.lambda1 < b.lambda1 for a, b in zip(rows, rows[1:]))


def test_scan_respects_trial_upper_bound(scan_k2):
    a2 = bounds.upper_bound_A(2)
    for row in scan_k2:
        assert row.lambda1 <= a2 + row.alpha**2 + 1e-6


def test_scan_first_row_matches_direct_solve(scan_k2):
    res = solve(OperatorSpec(2, 0.0), count=2, tol=1e-6)
    assert scan_k2[0].lambda1 == pytest.approx(res.eigenvalues[0], abs=2e-6)
    assert scan_k2[0].gap_ok


def test_scan_symmetric_table():
    rows = scan(2, -1.0, 1.0, 11, tol=1e-6)
    for left, right in zip(rows, reversed(rows)):
        assert left.alpha == pytest.approx(-right.alpha, abs=1e-12)
        assert left.lambda1 == pytest.approx(right.lambda1, abs=2e-6)
        assert left.d_lambda1 == pytest.approx(-right.d_lambda1, abs=2e-5)


def test_scan_unique_critical_point():
    # exactly one sign change of the derivative column, bracketing 0,
    # and the gap criterion holds where it happens
    rows = scan(2, -1.0, 1.0, 11, tol=1e-6)
    flips = [
        (a, b)
        for a, b in zip(rows, rows[1:])
        if (a.d_lambda1 < 0.0) != (b.d_lambda1 < 0.0)
    ]
    assert len(flips) == 1
    a, b = flips[0]
    assert a.alpha <= 0.0 <= b.alpha
    assert a.gap_ok and b.gap_ok


@pytest.mark.parametrize("k, alpha_min, alpha_max, steps",
                         [(2, 0.05, 3.05, 21), (30, -1.0, 2.0, 11), (200, 0.0, 1.0, 2),
                          (300, 0.0, 1.0, 3)])
def test_scan_rows_are_independent_solves(k, alpha_min, alpha_max, steps):
    # nothing is carried from one row to the next: each row is computed
    # at its alpha alone, bit for bit
    for row in scan(k, alpha_min, alpha_max, steps, tol=1e-6):
        if k <= certify.SCAN_GALERKIN_K_MAX:
            state = spectral.ground_state(k, row.alpha, 1e-6)
            assert (row.lambda1, row.lambda2, row.d_lambda1) == (
                state.lambda1, state.lambda2, state.fh_integral)
            continue
        res = solve(OperatorSpec(k, row.alpha), count=2, tol=1e-6)
        assert (row.lambda1, row.lambda2) == res.eigenvalues
        # the FH column is the trapezoid sum of -2 W u^2 on the solve's grid
        w = MontgomeryPotential(k, row.alpha).signed_root(res.ground_state_points)
        u, h = res.ground_state_values, res.ground_state_grid.spacing
        assert row.d_lambda1 == -2.0 * float(np.sum(h * w * (u * u)))


def test_scan_fh_column_is_spectrally_accurate():
    # the trapezoid sum over a finite-difference vector was 1.5e-7 off here
    for row in scan(2, 0.05, 3.05, 21, tol=1e-6):
        exact = spectral.ground_state(2, row.alpha, 1e-11).fh_integral
        assert abs(row.d_lambda1 - exact) <= 1e-9


def test_scan_runs_no_finite_difference_code(monkeypatch):
    # for k <= SCAN_GALERKIN_K_MAX every row is a Galerkin ground state:
    # no adaptive solve, no fixed-grid ladder and no bisection runs
    def refused(*args, **kwargs):
        raise AssertionError("finite-difference code ran")

    for name in ("solve", "solve_on_interval", "_ladder"):
        monkeypatch.setattr(eigensolver, name, refused)
    monkeypatch.setattr(tridiag, "lowest_eigenvalues", refused)
    assert len(scan(2, 0.05, 3.05, 21, tol=1e-6)) == 21
    assert len(scan(200, 0.0, 1.0, 2, tol=1e-6)) == 2


def test_scan_row_lost_ordering_is_solver_failure():
    with pytest.raises(SolverFailure) as info:
        ScanRow(alpha=0.0, lambda1=2.0, lambda2=1.0, d_lambda1=0.0, gap_ok=False)
    assert info.value.best_estimate == (2.0, 1.0)


def test_scan_validation():
    with pytest.raises(ValueError):
        scan(2, 1.0, 0.0, 5)
    with pytest.raises(ValueError):
        scan(2, 0.0, 1.0, 1)
    # a tol that solve rejects is refused before any row (the Galerkin
    # walk would run a nan tol to its basis cap)
    for tol in (1e-12, float("nan")):
        with pytest.raises(ValueError, match="tol must be at least"):
            scan(2, 0.0, 1.0, 2, tol=tol)


@pytest.mark.parametrize("k", [2, 4, 30, 200])
def test_locate_minimum_at_zero(k):
    alpha_min, lam_min = locate_minimum(k)
    assert abs(alpha_min) < 1e-4
    model = solve(HalfPowerModelPotential(k), count=1, tol=1e-6)
    assert bounds.h_closed(k) * model.eigenvalues[0] <= lam_min <= bounds.upper_bound_A(k)
    # lambda_min is Brent's own value: the Galerkin lambda1 at alpha_min
    assert lam_min == spectral.ground_state(k, alpha_min, 1e-7).lambda1
    # and the independent finite-difference solve at alpha = 0 agrees
    probe = solve(OperatorSpec(k, 0.0), count=1, tol=1e-7)
    assert lam_min == pytest.approx(probe.lambda1, rel=0.0, abs=1e-12)


def test_locate_minimum_parabolic_steps(monkeypatch):
    # golden-section steps alone on [0, 3] take 29 evaluations and stop at
    # 2.6e-6; Brent takes 6, each one Galerkin ground state
    calls = []
    ground_state = spectral.ground_state

    def counted(*args):
        calls.append(args)
        return ground_state(*args)

    monkeypatch.setattr(spectral, "ground_state", counted)
    alpha_min, _ = locate_minimum(2)
    assert abs(alpha_min) <= 1e-6
    assert 0 < len(calls) <= 10


@pytest.mark.parametrize("k", [3, 0, -2, 2.0])
def test_locate_minimum_rejects_odd_k(k):
    # odd k, and every k OperatorSpec rejects, before the first evaluation
    with pytest.raises(ValueError):
        locate_minimum(k)


def test_small_k_certificates_all_pass():
    for k in range(2, 69, 2):
        rep = certify_small_k(k)
        assert isinstance(rep, CertificateReport)
        assert rep.regime is Regime.SMALL_K
        assert rep.passed
        assert all(c.diff_lower > 0.0 for c in rep.checks)


def test_small_k_certificate_values():
    rep = certify_small_k(2)
    by_name = {c.name: c for c in rep.checks}
    overlap = by_name["radii_overlap"]
    assert overlap.lhs == pytest.approx(1.0324281625855307, rel=1e-12)
    assert overlap.rhs == pytest.approx(0.8728804954532562, rel=1e-12)
    floor = by_name["large_alpha_floor_exceeds_zero_upper"]
    assert floor.lhs == pytest.approx(1.0574067543601193, rel=1e-12)


def test_small_k_certificate_validation():
    for bad in (1, 3, 70, 0):
        with pytest.raises(ValueError):
            certify_small_k(bad)


# 10^9 and 10^12 failed under the former 1e-9 relative-margin rule;
# 2^53 - 2 is the largest k the bounds accept
@pytest.mark.parametrize("k", [70, 100, 200, 10**9, 10**12, 2**53 - 2])
def test_large_k_certificates_pass(k):
    rep = certify_large_k(k)
    assert rep.regime is Regime.LARGE_K
    assert rep.passed
    assert all(c.diff_lower > 0.0 for c in rep.checks)


@pytest.mark.parametrize("k", [2, 68])
def test_small_k_enclosures_match_floats(k):
    # an enclosure of width ~1e-23 sits on the float difference
    for c in certify_small_k(k).checks:
        assert c.diff_lower == pytest.approx(c.lhs - c.rhs, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("k", [70, 10**9, 2**53 - 2])
def test_first_c_term_ceiling_encloses_exact_margin(k):
    # 2.8^2 - (2.8 - 1/(k+1))^2 = (2 a (k+1) - 1) / (k+1)^2 with a the
    # double 2.8; the enclosure's lower end is that up to the enclosure's
    # width (about 2e-23 at 80 bits) and its rounding to a double.  At
    # 2^53 - 2 both float sides are 7.839999999999999.
    with mpmath.workdps(60):
        a, k1 = mpmath.mpf(2.8), mpmath.mpf(k) + 1
        exact = (2 * a * k1 - 1) / k1**2
        c = {c.name: c for c in certify_large_k(k).checks}["first_c_term_ceiling"]
        assert abs(c.diff_lower - exact) <= 2.0**-52 * exact + 1e-22


def test_certificates_leave_global_interval_precision_alone():
    before = mpmath.iv.prec
    certify._intervals.cache_clear()  # build the context afresh
    certify_large_k(70)
    assert mpmath.iv.prec == before


def test_check_is_decided_by_the_enclosure():
    # the float sides only print: a rounding-level float margin of either
    # sign does not decide the check
    assert CertCheck("tight", 1.0, 1.0, 6e-16).passed
    assert not CertCheck("straddles", 1.0 + 2**-52, 1.0, -1e-30).passed


def test_large_k_certificate_values():
    by_name = {c.name: c for c in certify_large_k(70).checks}
    assert by_name["b_tilde_floor"].lhs >= 4.719
    assert by_name["two_alpha_star_floor"].lhs >= 2.83
    assert by_name["first_c_term_floor"].lhs >= 7.76
    assert by_name["second_c_term_floor"].lhs >= 21.2


def test_large_k_certificate_validation():
    for bad in (68, 71, 2):
        with pytest.raises(ValueError):
            certify_large_k(bad)


def test_figure_data_rows():
    lam_rows = figure_data("lambda1comp")
    assert len(lam_rows) == 34
    k, a2, c2 = lam_rows[0]
    assert k == 2
    assert a2 == pytest.approx(0.6641278813771659, rel=1e-12)
    assert c2 == pytest.approx(1.0574067543601193, rel=1e-12)
    assert all(c > a for _, a, c in lam_rows)

    proof_rows = figure_data("completeproof")
    k, two_star, dstar = proof_rows[0]
    assert two_star == pytest.approx(1.0324281625855307, rel=1e-12)
    assert dstar == pytest.approx(0.8728804954532562, rel=1e-12)
    assert all(two > d for _, two, d in proof_rows)


def test_figure_data_validation():
    with pytest.raises(ValueError):
        figure_data("nope")


def test_figure_csv_validation():
    # the CSV rendering rejects an unknown figure as figure_data does
    with pytest.raises(ValueError, match="unknown figure"):
        figure_csv("nope")


def test_figure_csv_format():
    text = figure_csv("completeproof")
    lines = text.splitlines()
    assert lines[0] == "k,two_alpha_star,alpha_double_star"
    assert len(lines) == 35
    assert text.endswith("\n")
    # deterministic
    assert text == figure_csv("completeproof")
    assert figure_csv("lambda1comp").splitlines()[0] == "k,A_k,C_k"


def test_scan_csv_format(scan_k2):
    text = scan_csv(scan_k2)
    lines = text.splitlines()
    assert lines[0] == "alpha,lambda1,lambda2,d_lambda1,gap_ok"
    assert len(lines) == 14
    assert lines[1].endswith(",true") or lines[1].endswith(",false")
    assert text == scan_csv(scan_k2)
