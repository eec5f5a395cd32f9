"""Perturbation identities against finite-difference oracles."""

import functools
import math

import numpy as np
import pytest

from derivations import system_points
from montspec import bounds, eigensolver, identities, tridiag
from montspec.certify import locate_minimum
from montspec.eigensolver import (
    GridSpec,
    assemble_hamiltonian,
    refined_lowest_eigenvalues,
    solve,
    truncation_interval,
)
from montspec.identities import identity_report
from montspec.operators import Geometry, MontgomeryPotential, OperatorSpec

TOL = 1e-7


@functools.lru_cache(maxsize=None)
def report(k, alpha):
    return identity_report(k, alpha, tol=TOL)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_first_derivative_vanishes_at_zero(k):
    # lambda1 is even in alpha for even k
    rep = report(k, 0.0)
    assert abs(rep.fh_integral) < 1e-6
    assert abs(rep.d1_fd) < 1e-6


@pytest.mark.parametrize("k, alpha", [(2, 0.2), (2, 0.5), (2, 1.0), (30, 1.5), (200, 0.5)])
def test_fh_matches_finite_difference(k, alpha):
    rep = report(k, alpha)
    assert abs(rep.fh_integral - rep.d1_fd) < max(1e-6, 10.0 * TOL)
    # the minimum sits at alpha = 0, so lambda1 increases to the right
    assert rep.fh_integral > 0.0 and rep.d1_fd > 0.0


@pytest.mark.parametrize("k", [2, 4, 6, 10])
def test_virial_at_critical_point(k):
    rep = report(k, 0.0)
    assert rep.virial_rhs == pytest.approx(rep.virial_lhs, abs=1e-6)


def test_virial_off_critical_reported_only():
    rep = report(2, 1.0)
    assert rep.virial_lhs > 0.0 and rep.virial_rhs > 0.0


@pytest.mark.parametrize("k", [2, 4, 6, 30, 200])
def test_second_derivative_positive_and_matches_fd(k):
    rep = report(k, 0.0)
    assert rep.d2_exact > 0.0
    assert abs(rep.d2_exact - rep.d2_fd) < 1e-4


def test_second_derivative_cauchy_schwarz_floor():
    # d2 = 2 - 8 <f, R f> with ||R|| <= 1/(lambda2 - lambda1) and
    # ||f||^2 the virial integral, so d2 >= 2 - 8 * virial / gap
    rep = report(2, 0.0)
    res = solve(OperatorSpec(2, 0.0), count=2, tol=TOL)
    gap = res.eigenvalues[1] - res.eigenvalues[0]
    floor = 2.0 - 8.0 * rep.virial_lhs / gap
    assert floor <= rep.d2_exact <= 2.0


def _ground_state_level(result):
    grid = result.grid_used
    return GridSpec(grid.lower, grid.upper, len(result.ground_state_points))


def test_ground_state_level_rebuilds_bit_for_bit(monkeypatch):
    # with a vector cap between the first level (2048 points) and the
    # third, the final grid is past it whatever level the solve stops at,
    # so the reported ground state comes from a level below it
    monkeypatch.setattr(eigensolver, "_N_VECTOR_CAP", 5000)
    result = solve(OperatorSpec(2, 0.0), count=2, tol=1e-8)
    level = _ground_state_level(result)
    assert level.n < result.grid_used.n
    points = eigensolver._grid_points(level.lower, level.spacing, 1, level.n + 1)
    assert np.array_equal(points, result.ground_state_points)


@pytest.mark.parametrize("tol", [1e-7, 1e-8])
def test_second_derivative_matches_bisected_resolve(tol):
    # the same reduced-resolvent formula on an unseeded (bisected) re-solve
    # of the ground-state level, independent of the ladder's vector
    result = solve(OperatorSpec(2, 0.0), count=2, tol=tol)
    potential = MontgomeryPotential(2, 0.0)
    system = assemble_hamiltonian(potential, _ground_state_level(result))
    lam, v = refined_lowest_eigenvalues(system, 2)
    h = system.spacing
    u = v / math.sqrt(h)
    f = potential.signed_root(system_points(system, result.grid_used.lower)) * u
    f_perp = f - (h * np.dot(f, u)) * u
    g = tridiag.shifted_solve(system.diag, system.offdiag, lam[0] * (1.0 + 1e-12), f_perp)
    g = g - (h * np.dot(g, u)) * u
    bisected = 2.0 - 8.0 * h * float(np.dot(f, g))
    w = potential.signed_root(result.ground_state_points)
    assert identities._second_derivative_on(result, potential, w) == pytest.approx(
        bisected, rel=0.0, abs=1e-9)


def test_a_report_evaluates_w_once(monkeypatch):
    # fh_integral, virial_lhs and d2_exact all read W on the ground state's
    # points, from one evaluation; the stencil's solves read only V
    result = solve(OperatorSpec(2, 0.9), count=2, tol=TOL)
    sizes = []
    plain = MontgomeryPotential.signed_root

    def counted(self, t):
        sizes.append(np.size(t))
        return plain(self, t)

    monkeypatch.setattr(MontgomeryPotential, "signed_root", counted)
    identity_report(2, 0.9, tol=TOL)
    assert sizes == [len(result.ground_state_points)]


@pytest.mark.parametrize("alpha", [0.5, 0.9, 1.3])
def test_fd_oracles_respect_alpha_symmetry(alpha):
    # lambda1 is even in alpha for even k; the stencils at +alpha and
    # -alpha each run on the grid of their own solve
    plus, minus = report(2, alpha), report(2, -alpha)
    assert abs(plus.d1_fd + minus.d1_fd) < 1e-10
    # the two stencils' values agree to rounding, 64 eps lambda1 each
    # (tridiag._residual_floor's factor), and a second difference sums
    # four such errors over FD_STEP_SECOND^2; lambda1 = (k + 2) virial_rhs
    lam1 = 4.0 * plus.virial_rhs
    rounding = 4.0 * 64.0 * np.finfo(float).eps * lam1 / identities.FD_STEP_SECOND**2
    assert abs(plus.d2_fd - minus.d2_fd) < rounding


def test_gap_criterion_k2():
    rep = report(2, 0.0)
    assert rep.gap_criterion and rep.gap_margin > 0.5
    # whenever the gap criterion holds at a critical point the second
    # derivative is positive
    assert rep.d2_exact > 0.0


def test_gap_criterion_bound_level():
    # below alpha_star the closed-form version holds by construction
    for k in (2, 10, 68):
        a_k = bounds.upper_bound_A(k)
        b_k = bounds.lower_bound_B(k)
        alpha = 0.9 * bounds.bounds_table(k).alpha_star
        assert (k + 2.0) / (k + 6.0) * b_k > a_k + alpha * alpha
    # large-k variant with the step-well floor
    assert 72.0 / 76.0 * 4.719 > bounds.PI2_OVER_4


def test_report_consistency():
    rep = report(2, 0.0)
    assert rep.k == 2 and rep.alpha == 0.0
    assert abs(rep.fh_integral) < 1e-6
    assert abs(rep.d1_fd) < 1e-6
    assert abs(rep.virial_lhs - rep.virial_rhs) < 1e-6
    assert abs(rep.d2_exact - rep.d2_fd) < 1e-4
    assert rep.quadrature_error_estimate < 1e-6


@pytest.mark.parametrize("consumer, tol", [("report", 1e-6), ("report", 1e-9), ("locate", None)])
def test_fixed_grid_chains_run_on_the_ladders_first_two_levels(monkeypatch, consumer, tol):
    # both consumers' fixed-grid evaluations run on the ladder's 2048- and
    # 4097-point levels: the report's on its solve's interval, however many
    # levels that solve's ladder climbs, and locate_minimum's on the
    # interval that confines its bracket's worst case, alpha = 3
    chains, solves = [], []
    plain_ladder, plain_solve = eigensolver._ladder, identities.solve

    def recorded_ladder(potential, lower, upper, sizes, *args):
        if len(sizes) == 2:  # solve_on_interval's ladder lists every size up to the cap
            chains.append((tuple(sizes), lower, upper))
        return plain_ladder(potential, lower, upper, sizes, *args)

    def recorded_solve(*args, **kwargs):
        solves.append(plain_solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(eigensolver, "_ladder", recorded_ladder)
    monkeypatch.setattr(identities, "solve", recorded_solve)
    if consumer == "report":
        identity_report(2, 0.3, tol=tol)
        (result,) = solves
        interval = (result.grid_used.lower, result.grid_used.upper)
    else:
        locate_minimum(2)
        interval = truncation_interval(MontgomeryPotential(2, 3.0), Geometry.FULL_LINE,
                                       9.0 + math.pi**2 / 4.0)
    sizes = (eigensolver._N_START, 2 * eigensolver._N_START + 1)
    assert len(chains) >= 5
    assert set(chains) == {(sizes, *interval)}


def test_report_runs_one_adaptive_solve(monkeypatch):
    # the analytic identities and the stencil grid both read one count=2 solve
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return solve(*args, **kwargs)

    monkeypatch.setattr(identities, "solve", counted)
    identity_report(2, 0.0, tol=TOL)
    assert len(calls) == 1


def test_report_starts_flat_only_where_nothing_carries(monkeypatch):
    # inverse iteration starts flat on the first level of every ladder: the
    # solve's and each stencil point's coarse level; every later level
    # starts from the first level's vectors, and nothing carries from one
    # stencil point to the next
    expected = solve(OperatorSpec(2, 0.4), count=2, tol=TOL)
    flat = []
    plain = tridiag.inverse_iteration

    def recorded(diag, offdiag, eigenvalue, start=None, **kwargs):
        flat.append(start is None)
        return plain(diag, offdiag, eigenvalue, start, **kwargs)

    monkeypatch.setattr(tridiag, "inverse_iteration", recorded)
    identity_report(2, 0.4, tol=TOL)
    ladder = [True, True] + [False, False] * (expected.iterations - 1)
    stencil = [True, False] * 5
    assert flat == ladder + stencil


def test_fd_oracles_are_central_differences_of_independent_evaluations():
    # each stencil point is a pure function of its alpha and seed: the same
    # five values, each taken alone and in another order, give both oracles
    # bit for bit
    k, alpha = 2, 0.9
    rep = report(k, alpha)
    result = solve(OperatorSpec(k, alpha), count=2, tol=TOL)
    lower, upper = result.grid_used.lower, result.grid_used.upper
    h1, h2 = identities.FD_STEP_FIRST, identities.FD_STEP_SECOND
    lam = {}
    for a in (alpha - h2, alpha + h1, alpha, alpha + h2, alpha - h1):
        seed = result.lambda1 + (a - alpha) * rep.fh_integral
        lam[a] = eigensolver._fixed_grid_lambda1(MontgomeryPotential(k, a), lower, upper, seed)
    assert rep.d1_fd == (lam[alpha + h1] - lam[alpha - h1]) / (2.0 * h1)
    assert rep.d2_fd == (lam[alpha + h2] - 2.0 * lam[alpha] + lam[alpha - h2]) / (h2 * h2)
