"""Closed-form bounds: literal-formula oracles, cross-route equalities,
and the solver-vs-bounds sandwich."""

import math
from dataclasses import asdict

import mpmath
import numpy as np
import pytest

from montspec import bounds, eigensolver, optimize, tridiag
from montspec.eigensolver import solve
from montspec.errors import SolverFailure
from montspec.operators import HalfPowerModelPotential, OperatorSpec

from derivations import (
    dirichlet_well_lambda,
    h_maximized,
    h_maximizer,
    lower_bound_B_at_T,
    optimal_harmonic_T,
    trial_width_k2,
)

PI = math.pi


# ---------------------------------------------------------------------------
# literal transcriptions used as oracles (kept independent of the library's
# log-domain implementations)

def _h_literal(a):
    return 2.0 ** (-4.0 / (a + 2)) * a ** ((a + 4.0) / (a + 2)) * (a + 1.0) ** (1.0 / (a + 2) - 1.0)


def _A_general_literal(k):
    return (PI**2 / 4.0) * (k + 2.0) / (k + 1.0) * (
        0.25 * (k + 1.0) * (2 * k + 3.0) * (2 * k + 4.0) * (2 * k + 5.0)
    ) ** (-1.0 / (k + 2.0))


def _B_literal(k):
    return 3.0 ** (2.0 * k / (k + 2)) * (k + 2.0) / (
        2.0 ** ((2.0 * k + 2.0) / (k + 2.0)) * (k + 1.0) ** ((k + 1.0) / (k + 2.0))
    )


def _trial_energy_literal(rho):
    num = 4 * PI**6 - 210 * PI**4 + 4410 * PI**2 - 26775.0
    return PI**2 / (3.0 * rho**2) + num / (252.0 * PI**6) * rho**6


# ---------------------------------------------------------------------------
# h(a)

def test_h_closed_k2_value():
    assert bounds.h_closed(2) == pytest.approx(2.0**0.5 * 3.0**-0.75, rel=1e-15)
    assert 0.6204 < bounds.h_closed(2) < 0.6205


@pytest.mark.parametrize("a", [2.0, 4.0, 10.0, 70.0, 200.0])
def test_h_closed_matches_literal_and_maximized(a):
    assert bounds.h_closed(a) == pytest.approx(_h_literal(a), rel=1e-13)
    assert abs(bounds.h_closed(a) - h_maximized(a)) < 1e-12


@pytest.mark.parametrize("a", [2.0, 4.0, 10.0, 70.0, 200.0])
def test_h_maximizer_location(a):
    assert abs(h_maximizer(a) - 1.0 / math.sqrt(a + 1.0)) < 1e-8


def test_h_limit_is_one():
    assert bounds.h_closed(1e6) == pytest.approx(1.0, abs=1e-4)
    assert bounds.h_closed(70) == pytest.approx(1.13261, abs=1e-5)


def test_h_domain():
    with pytest.raises(ValueError):
        bounds.h_closed(1.5)


# ---------------------------------------------------------------------------
# A_k

def test_A2_special_value_and_width():
    a2 = bounds.upper_bound_A(2)
    assert 0.6641 <= a2 <= 0.6643
    assert 2.56 <= trial_width_k2() <= 2.58
    # sharper than the general formula at k = 2
    assert a2 < _A_general_literal(2)


def test_A2_matches_trial_energy_minimum():
    # brute-force oracle: grid scan of the literal trial energy + parabola
    rhos = np.linspace(2.0, 3.2, 2401)
    vals = np.array([_trial_energy_literal(r) for r in rhos])
    i = int(np.argmin(vals))
    c = np.polyfit(rhos[i - 1 : i + 2] - rhos[i], vals[i - 1 : i + 2], 2)
    vertex_rho = rhos[i] - c[1] / (2.0 * c[0])
    vertex_val = np.polyval(c, vertex_rho - rhos[i])
    assert bounds.upper_bound_A(2) == pytest.approx(vertex_val, abs=1e-10)
    assert trial_width_k2() == pytest.approx(vertex_rho, abs=1e-5)


def test_A_general_values():
    assert bounds.upper_bound_A(4) == pytest.approx(_A_general_literal(4), rel=1e-13)
    assert bounds.upper_bound_A(4) == pytest.approx(0.824, abs=5e-4)
    for k in range(2, 202, 2):
        assert bounds.upper_bound_A(k) < PI**2 / 4.0


def test_A_validation():
    for bad in (3, 0, 1):
        with pytest.raises(ValueError):
            bounds.upper_bound_A(bad)


def test_A_increasing_and_limit():
    values = [bounds.upper_bound_A(k) for k in range(2, 202, 2)]
    margins = [b - a for a, b in zip(values, values[1:])]
    assert min(margins) > 0.0
    # the limit is pi^2/4; at k = 1e4 the gap is ~9e-3 (between 1e-3 and
    # 1e-2), shrinking visibly by k = 1e5
    gap4 = PI**2 / 4.0 - bounds.upper_bound_A(10**4)
    gap5 = PI**2 / 4.0 - bounds.upper_bound_A(10**5)
    assert 1e-3 < gap4 < 1e-2
    assert gap5 < gap4 / 5.0


# ---------------------------------------------------------------------------
# B_k and B~_k

def test_B_values():
    assert bounds.lower_bound_B(2) == pytest.approx(_B_literal(2), rel=1e-13)
    assert bounds.lower_bound_B(2) == pytest.approx(1.861, abs=5e-4)
    assert optimal_harmonic_T(2) == pytest.approx(math.sqrt(1.5), rel=1e-13)
    assert bounds.lower_bound_B(10**4) == pytest.approx(2.25, abs=1e-2)


@pytest.mark.parametrize("k", [2, 4, 10, 68])
def test_B_closed_form_is_T_optimized(k):
    t_star = optimal_harmonic_T(k)
    at_opt = lower_bound_B_at_T(k, t_star)
    assert at_opt == pytest.approx(bounds.lower_bound_B(k), rel=1e-12)
    # optimality: nearby T does not beat it
    for t in (0.9 * t_star, 1.1 * t_star):
        assert lower_bound_B_at_T(k, t) <= at_opt + 1e-12


def test_B_tilde_values():
    bt = bounds.lower_bound_B_tilde(70)
    assert bt >= 4.719
    lam_literal = ((PI - math.atan(math.sqrt((PI / 1.1) ** 2 / (1.1**70 - (PI / 1.1) ** 2)))) / 1.1) ** 2
    assert bt == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0 * lam_literal, rel=1e-13)
    # increasing in k
    b70, b100, b200 = (bounds.lower_bound_B_tilde(k) for k in (70, 100, 200))
    assert b70 < b100 < b200


# The margin shrinks fast with k: 1.0e-2 at k = 70, 6.0e-4 at 100 and
# 4.4e-8 at 200.  By k = 1000 the two differ by -1.1e-12, inside the
# ~3e-12 error of a gluing root bisected to 1e-12 in sqrt(lambda), so
# the cross-check stops at 200.
@pytest.mark.parametrize("k", [70, 100, 200])
def test_B_tilde_under_estimates_exact_well(k):
    scaled = (math.sqrt(5.0) - 1.0) / 2.0 * dirichlet_well_lambda(1.1, k)
    assert scaled >= bounds.lower_bound_B_tilde(k)
    assert scaled >= 4.719


def test_B_tilde_validation():
    with pytest.raises(ValueError):
        bounds.lower_bound_B_tilde(10)  # 1.1^10 below the box ceiling


# ---------------------------------------------------------------------------
# C_k and the radii

def test_C_values():
    first, second = bounds._c_bound_terms(2, 1.5, bounds.FLOATS)
    assert first == pytest.approx((1.5 - 1.0 / 3.0) ** 2, rel=1e-14)
    assert second == pytest.approx(3.5 / (3.0 * (4.5 ** (1.0 / 3.0) - 1.0)) * 0.59, rel=1e-13)
    assert bounds.bounds_table(2).c_k == pytest.approx(1.057, abs=5e-4)


def test_C_large_k_at_2_8():
    first, second = bounds.chain(70, bounds.FLOATS).large_c_terms
    assert first >= 7.76
    assert first < 2.8**2
    assert second >= 21.2


def test_C_exceeds_A_small_k():
    for k in range(2, 70, 2):
        assert bounds.bounds_table(k).c_k > bounds.upper_bound_A(k)


@pytest.mark.parametrize("k", [70, 100, 200])
def test_large_k_exclusion_chain(k):
    assert min(bounds.chain(k, bounds.FLOATS).large_c_terms) > PI**2 / 4.0 > bounds.upper_bound_A(k)


def test_C_validation():
    # k + 1 is no longer exact in a double from 2^53 on
    with pytest.raises(ValueError, match="^k = "):
        bounds.bounds_table(2**53)


@pytest.mark.parametrize("call", [
    lambda: bounds.h_closed(math.nan),
    lambda: bounds.h_closed(math.inf),
    lambda: bounds.lower_bound_B_tilde(math.nan),
    lambda: bounds.lower_bound_B_tilde(math.inf),
], ids=["h-nan", "h-inf", "B-tilde-nan", "B-tilde-inf"])
def test_non_finite_arguments_are_rejected(call):
    # a NaN fails every comparison, so each guard reads `not x >= bound`
    # and checks finiteness
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("alpha0", [1.5, 2.8])
@pytest.mark.parametrize("k", [2, 70, 10**9, 10**12, 10**15, 2**53 - 2])
def test_C_de_gennes_term_matches_mpmath(k, alpha0):
    # exp(x) - 1 in the denominator loses digits from k ~ 1e9 (1.2e-3 off
    # at 1e15); expm1 keeps the term at full precision up to 2^53
    with mpmath.workdps(50):
        k1 = mpmath.mpf(k) + 1
        scaled = mpmath.mpf(alpha0) * k1
        exact = (scaled - 1) / (k1 * mpmath.expm1(mpmath.log(scaled) / k1))
        exact *= mpmath.mpf(bounds.THETA0_LOWER)
        _, second = bounds._c_bound_terms(k, alpha0, bounds.FLOATS)
        assert abs((second - exact) / exact) < 1e-15


# ---------------------------------------------------------------------------
# the de Gennes constant (its value is checked in test_theta0_oracle)

def test_theta0_runs_no_solve_or_line_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("theta0 ran a solve or a line search")

    for module, name in [(eigensolver, "solve"), (optimize, "minimize_golden"),
                         (tridiag, "lowest_eigenvalues"), (tridiag, "inverse_iteration")]:
        monkeypatch.setattr(module, name, forbidden)
    assert bounds.de_gennes_theta0(1e-7) == 0.5901061249502342


# each way the root can fail; every one is a SolverFailure (CLI exit 3)
@pytest.mark.parametrize(
    "owner, name, value, message",
    [(bounds, "_neumann", lambda xi: xi - 0.3, r"outside \(0.6, 0.9\)"),
     (bounds, "_neumann", lambda xi: 1.0, "secant did not converge"),
     (bounds, "_weber_d", lambda nu, z: math.nan, "not finite"),
     (bounds, "_weber_d", lambda nu, z: math.gamma(0.0), "root failed: math domain error"),
     (bounds, "THETA0_LOWER", 0.6, "fails the 0.6 floor")],
    ids=["outside-bracket", "no-root", "not-finite", "gamma-pole", "floor"],
)
def test_theta0_root_failure_is_solver_failure(owner, name, value, message, monkeypatch):
    monkeypatch.setattr(owner, name, value)
    with pytest.raises(SolverFailure, match=message):
        bounds.de_gennes_theta0()


def test_bounds_table_radii_k2():
    t = bounds.bounds_table(2)
    alpha_star, alpha_double_star = t.alpha_star, t.alpha_double_star
    # frozen from the literal chain: sqrt(0.5 B_2 - A_2), 1.5 - sqrt(C_2 - A_2)
    assert alpha_star == pytest.approx(0.5162140812927654, rel=1e-12)
    assert alpha_double_star == pytest.approx(0.8728804954532562, rel=1e-12)
    assert 2.0 * alpha_star > alpha_double_star


def test_bounds_table_radii_all_small_k():
    for k in range(2, 70, 2):
        t = bounds.bounds_table(k)
        assert 2.0 * t.alpha_star > t.alpha_double_star > 0.0


def test_bounds_table_radii_large_k():
    assert 2.0 * bounds.bounds_table(70).alpha_star >= 2.83
    # for very large k the alpha >= 3/2 floor drops below A_k and the
    # double-star radius stops existing; the large-k chain never uses it
    assert bounds.bounds_table(300).alpha_double_star is None


def test_bounds_table_fields():
    t = bounds.bounds_table(2)
    assert t.b_tilde_k is None and t.theta0_lower == 0.59
    assert t.h_k == bounds.h_closed(2)
    t70 = bounds.bounds_table(70)
    assert t70.b_tilde_k == pytest.approx(bounds.lower_bound_B_tilde(70))
    assert t70.alpha_double_star is not None


@pytest.mark.parametrize("k", [2, 10, 68, 70, 100, 300])
def test_bounds_table_is_the_chain(k):
    t = bounds.bounds_table(k)
    chain = bounds.chain(k, bounds.FLOATS)
    b = bounds.lower_bound_B(k) if k <= bounds.SMALL_K_MAX else bounds.lower_bound_B_tilde(k)
    assert chain.gap_floor == (k + 2.0) / (k + 6.0) * b
    assert t.alpha_star == chain.alpha_star == math.sqrt(chain.gap_floor - t.a_k)
    # the gap floor is not part of the table's fields (the bounds JSON payload)
    assert "gap_floor" not in asdict(t)


# ---------------------------------------------------------------------------
# solver-vs-bounds sandwich and the commutator comparison

@pytest.mark.parametrize("k", [2, 4, 6, 10, 20, 68])
def test_sandwich(k):
    model = solve(HalfPowerModelPotential(k), count=1, tol=1e-6)
    lower = bounds.h_closed(k) * model.eigenvalues[0]
    res = solve(OperatorSpec(k, 0.0), count=2, tol=1e-6)
    assert lower <= res.eigenvalues[0] <= bounds.upper_bound_A(k) + 1e-9
    for alpha in (0.0, 0.5, 1.0):
        res_a = solve(OperatorSpec(k, alpha), count=2, tol=1e-6)
        assert res_a.eigenvalues[1] >= bounds.lower_bound_B(k)


@pytest.mark.parametrize("k", [2, 4, 10])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_commutator_comparison(k, alpha):
    model = solve(HalfPowerModelPotential(k), count=2, tol=1e-6)
    res = solve(OperatorSpec(k, alpha), count=2, tol=1e-6)
    for j in range(2):
        assert res.eigenvalues[j] >= bounds.h_closed(k) * model.eigenvalues[j] - 1e-9
