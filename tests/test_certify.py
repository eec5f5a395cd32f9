"""Certification pipeline: scans, minimum location, certificates, tables."""

import pytest

from montspec import bounds, eigensolver
from montspec.certify import (
    REL_MARGIN_FLOOR,
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
from montspec.operators import HalfPowerModelPotential, OperatorSpec


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


def test_scan_row_lost_ordering_is_solver_failure():
    with pytest.raises(SolverFailure) as info:
        ScanRow(alpha=0.0, lambda1=2.0, lambda2=1.0, d_lambda1=0.0, gap_ok=False)
    assert info.value.best_estimate == (2.0, 1.0)


def test_scan_validation():
    with pytest.raises(ValueError):
        scan(2, 1.0, 0.0, 5)
    with pytest.raises(ValueError):
        scan(2, 0.0, 1.0, 1)


@pytest.mark.parametrize("k", [2, 4])
def test_locate_minimum_at_zero(k):
    alpha_min, lam_min = locate_minimum(k)
    assert abs(alpha_min) < 1e-4
    model = solve(HalfPowerModelPotential(k), count=1, tol=1e-6)
    assert bounds.h_closed(k) * model.eigenvalues[0] <= lam_min <= bounds.upper_bound_A(k)


def test_locate_minimum_parabolic_steps(monkeypatch):
    # golden-section steps alone on [0, 3] take 29 evaluations and stop at 2.6e-6
    calls = []
    original = eigensolver.fixed_grid_lambda1

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(eigensolver, "fixed_grid_lambda1", counted)
    alpha_min, _ = locate_minimum(2)
    assert abs(alpha_min) <= 1e-6
    assert len(calls) <= 10


def test_locate_minimum_rejects_odd_k():
    with pytest.raises(ValueError):
        locate_minimum(3)


def test_small_k_certificates_all_pass():
    for k in range(2, 69, 2):
        rep = certify_small_k(k)
        assert isinstance(rep, CertificateReport)
        assert rep.regime is Regime.SMALL_K
        assert rep.passed
        assert all(c.rel_margin > REL_MARGIN_FLOOR for c in rep.checks)


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


@pytest.mark.parametrize("k", [70, 100, 200])
def test_large_k_certificates_pass(k):
    rep = certify_large_k(k)
    assert rep.regime is Regime.LARGE_K
    assert rep.passed
    assert all(c.rel_margin > REL_MARGIN_FLOOR for c in rep.checks)


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
