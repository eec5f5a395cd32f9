"""Closed-form bounds: literal-formula oracles, cross-route equalities,
and the solver-vs-bounds sandwich."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from montspec import bounds
from montspec.eigensolver import dirichlet_well_lambda, solve
from montspec.operators import HalfPowerModelPotential, OperatorSpec

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
    assert abs(bounds.h_closed(a) - bounds.h_maximized(a)) < 1e-12


@pytest.mark.parametrize("a", [2.0, 4.0, 10.0, 70.0, 200.0])
def test_h_maximizer_location(a):
    assert abs(bounds.h_maximizer(a) - 1.0 / math.sqrt(a + 1.0)) < 1e-8


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
    assert 2.56 <= bounds.trial_width_k2() <= 2.58
    # sharper than the general formula at k = 2
    assert a2 < bounds.upper_bound_A_general(2)


def test_A2_matches_trial_energy_minimum():
    # brute-force oracle: grid scan of the literal trial energy + parabola
    rhos = np.linspace(2.0, 3.2, 2401)
    vals = np.array([_trial_energy_literal(r) for r in rhos])
    i = int(np.argmin(vals))
    c = np.polyfit(rhos[i - 1 : i + 2] - rhos[i], vals[i - 1 : i + 2], 2)
    vertex_rho = rhos[i] - c[1] / (2.0 * c[0])
    vertex_val = np.polyval(c, vertex_rho - rhos[i])
    assert bounds.upper_bound_A(2) == pytest.approx(vertex_val, abs=1e-10)
    assert bounds.trial_width_k2() == pytest.approx(vertex_rho, abs=1e-5)
    # the library exposes the same energy expression; cross-check one point
    assert bounds.k2_trial_energy(2.5) == pytest.approx(_trial_energy_literal(2.5), rel=1e-14)


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
    ok, margins = bounds.verify_A_increasing(200)
    assert ok and min(margins) > 0.0
    # the limit is pi^2/4; at k = 1e4 the gap is ~9e-3 (between 1e-3 and
    # 1e-2), shrinking visibly by k = 1e5
    gap4 = PI**2 / 4.0 - bounds.upper_bound_A_general(10**4)
    gap5 = PI**2 / 4.0 - bounds.upper_bound_A_general(10**5)
    assert 1e-3 < gap4 < 1e-2
    assert gap5 < gap4 / 5.0


def test_logderiv_cubic_spot_value():
    assert bounds.logderiv_cubic(2) == pytest.approx(44.58, abs=1e-12)


# ---------------------------------------------------------------------------
# B_k and B~_k

def test_B_values():
    assert bounds.lower_bound_B(2) == pytest.approx(_B_literal(2), rel=1e-13)
    assert bounds.lower_bound_B(2) == pytest.approx(1.861, abs=5e-4)
    assert bounds.optimal_harmonic_T(2) == pytest.approx(math.sqrt(1.5), rel=1e-13)
    assert bounds.lower_bound_B(10**4) == pytest.approx(2.25, abs=1e-2)


@pytest.mark.parametrize("k", [2, 4, 10, 68])
def test_B_closed_form_is_T_optimized(k):
    t_star = bounds.optimal_harmonic_T(k)
    at_opt = bounds.lower_bound_B_at_T(k, t_star)
    assert at_opt == pytest.approx(bounds.lower_bound_B(k), rel=1e-12)
    # optimality: nearby T does not beat it
    for t in (0.9 * t_star, 1.1 * t_star):
        assert bounds.lower_bound_B_at_T(k, t) <= at_opt + 1e-12


def test_B_tilde_values():
    bt = bounds.lower_bound_B_tilde(70)
    assert bt >= 4.719
    lam_literal = ((PI - math.atan(math.sqrt((PI / 1.1) ** 2 / (1.1**70 - (PI / 1.1) ** 2)))) / 1.1) ** 2
    assert bt == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0 * lam_literal, rel=1e-13)
    # increasing in k
    b70, b100, b200 = (bounds.lower_bound_B_tilde(k) for k in (70, 100, 200))
    assert b70 < b100 < b200


def test_B_tilde_under_estimates_exact_well():
    scaled = (math.sqrt(5.0) - 1.0) / 2.0 * dirichlet_well_lambda(1.1, 70)
    assert scaled >= bounds.lower_bound_B_tilde(70)
    assert scaled >= 4.719


def test_B_tilde_validation():
    with pytest.raises(ValueError):
        bounds.lower_bound_B_tilde(10, 1.1)  # 1.1^10 below the box ceiling
    with pytest.raises(ValueError):
        bounds.lower_bound_B_tilde(70, 1.0)


def test_B_tilde_optimization_beats_fixed_T():
    best_T, value = bounds.lower_bound_B_tilde_optimized(70)
    assert value >= bounds.lower_bound_B_tilde(70)
    assert 1.0 < best_T < 3.0


# ---------------------------------------------------------------------------
# C_k and the radii

def test_C_values():
    first, second = bounds.c_bound_terms(2)
    assert first == pytest.approx((1.5 - 1.0 / 3.0) ** 2, rel=1e-14)
    assert second == pytest.approx(3.5 / (3.0 * (4.5 ** (1.0 / 3.0) - 1.0)) * 0.59, rel=1e-13)
    assert bounds.lower_bound_C(2) == pytest.approx(1.057, abs=5e-4)


def test_C_large_k_at_2_8():
    first, second = bounds.c_bound_terms(70, alpha0=2.8)
    assert first >= 7.76
    assert first < 2.8**2
    assert second >= 21.2


def test_C_exceeds_A_small_k():
    for k in range(2, 70, 2):
        assert bounds.lower_bound_C(k) > bounds.upper_bound_A(k)


@pytest.mark.parametrize("k", [70, 100, 200])
def test_large_k_exclusion_chain(k):
    assert bounds.lower_bound_C(k, alpha0=2.8) > PI**2 / 4.0 > bounds.upper_bound_A(k)


def test_C_validation():
    with pytest.raises(ValueError):
        bounds.c_bound_terms(2, alpha0=1.0)


def test_exclusion_radii_k2():
    alpha_star, alpha_double_star = bounds.exclusion_radii(2)
    # frozen from the literal chain: sqrt(0.5 B_2 - A_2), 1.5 - sqrt(C_2 - A_2)
    assert alpha_star == pytest.approx(0.5162140812927654, rel=1e-12)
    assert alpha_double_star == pytest.approx(0.8728804954532562, rel=1e-12)
    assert 2.0 * alpha_star > alpha_double_star


def test_exclusion_radii_all_small_k():
    for k in range(2, 70, 2):
        alpha_star, alpha_double_star = bounds.exclusion_radii(k)
        assert 2.0 * alpha_star > alpha_double_star > 0.0


def test_exclusion_radii_large_k():
    alpha_star, _ = bounds.exclusion_radii(70)
    assert 2.0 * alpha_star >= 2.83
    # for very large k the alpha >= 3/2 floor drops below A_k and the
    # double-star radius stops existing; the large-k chain never uses it
    _, dstar = bounds.exclusion_radii(300)
    assert dstar is None


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
    b = bounds.lower_bound_B(k) if k <= bounds.SMALL_K_MAX else bounds.lower_bound_B_tilde(k)
    assert t.gap_floor == (k + 2.0) / (k + 6.0) * b
    assert t.alpha_star == math.sqrt(t.gap_floor - t.a_k)
    assert bounds.exclusion_radii(k) == (t.alpha_star, t.alpha_double_star)
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
