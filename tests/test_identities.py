"""Perturbation identities against finite-difference oracles."""

import functools
import math

import numpy as np
import pytest

from derivations import system_points
from montspec import bounds, eigensolver, identities, spectral, tridiag
from montspec.certify import locate_minimum
from montspec.eigensolver import (
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


@pytest.mark.parametrize("tol", [1e-7, 1e-8])
def test_second_derivative_matches_bisected_resolve(tol):
    # the same reduced-resolvent formula on the finite-difference ground
    # state, an unseeded (bisected) re-solve of an adaptive solve's
    # ground-state level: independent of the Galerkin discretization, and
    # off by that level's O(h^2) error, which the solve's own estimate
    # tracks (4.6e-10 against 3.0e-8 and 1.9e-9)
    result = solve(OperatorSpec(2, 0.0), count=2, tol=tol)
    potential = MontgomeryPotential(2, 0.0)
    system = assemble_hamiltonian(potential, result.ground_state_grid)
    lam, v = refined_lowest_eigenvalues(system, 2)
    h = system.spacing
    u = v / math.sqrt(h)
    f = potential.signed_root(system_points(system, result.grid_used.lower)) * u
    f_perp = f - (h * np.dot(f, u)) * u
    g = tridiag.shifted_solve(system.diag, system.offdiag, lam[0] * (1.0 + 1e-12), f_perp)
    g = g - (h * np.dot(g, u)) * u
    bisected = 2.0 - 8.0 * h * float(np.dot(f, g))
    assert report(2, 0.0).d2_exact == pytest.approx(
        bisected, rel=0.0, abs=result.achieved_tol_estimate)


def _galerkin_sizes(final_n):
    """The basis sizes of a Galerkin walk that ends at final_n."""
    sizes = [spectral._N_FIRST]
    while sizes[-1] < final_n:
        sizes.append(sizes[-1] * 3 // 2)
    return sizes


def test_each_galerkin_level_evaluates_w_once(monkeypatch):
    # fh_integral, virial_lhs and d2_exact all read W on each Galerkin
    # level's M = N + k + 8 quadrature nodes, from one evaluation a level
    # along the walk N = 32, 48, ...; the stencil's fixed-grid solves read
    # only V
    sizes = []
    plain = MontgomeryPotential.signed_root

    def counted(self, t):
        sizes.append(np.size(t))
        return plain(self, t)

    monkeypatch.setattr(MontgomeryPotential, "signed_root", counted)
    identity_report(2, 0.9, tol=TOL)
    assert sizes == [n + 2 + 8 for n in _galerkin_sizes(sizes[-1] - 2 - 8)]


@pytest.mark.parametrize("alpha", [0.5, 0.9, 1.3])
def test_fd_oracles_respect_alpha_symmetry(alpha):
    # lambda1 is even in alpha for even k; the stencils at +alpha and
    # -alpha each run on the interval of their own Galerkin lambda2
    plus, minus = report(2, alpha), report(2, -alpha)
    assert abs(plus.d1_fd + minus.d1_fd) < 1e-10
    # the two stencils' values agree to rounding, 64 eps lambda1 each
    # (tridiag._residual_floor's factor), and the five-point second
    # difference sums them with weights of total 64/12 over FD_STEP^2;
    # lambda1 = (k + 2) virial_rhs
    lam1 = 4.0 * plus.virial_rhs
    rounding = 64.0 / 12.0 * 64.0 * np.finfo(float).eps * lam1 / identities.FD_STEP**2
    assert abs(plus.d2_fd - minus.d2_fd) < rounding


@pytest.mark.parametrize("k, alpha", [(2, 0.5), (2, 0.9), (2, 1.3), (4, 0.7), (10, 0.7),
                                      (30, 1.0)])
def test_fd_oracles_track_the_galerkin_derivatives(k, alpha):
    # the fourth-order stencils agree with the Galerkin fields far below
    # the report's tol: d1 to 1e-10 and d2 to 1e-8 on these single wells
    rep = report(k, alpha)
    assert abs(rep.d1_fd - rep.fh_integral) <= 1e-10
    assert abs(rep.d2_fd - rep.d2_exact) <= 1e-8


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
    assert 72.0 / 76.0 * 4.719 > math.pi ** 2 / 4


def test_report_consistency():
    rep = report(2, 0.0)
    assert rep.k == 2 and rep.alpha == 0.0
    assert abs(rep.fh_integral) < 1e-6
    assert abs(rep.d1_fd) < 1e-6
    assert abs(rep.virial_lhs - rep.virial_rhs) < 1e-6
    assert abs(rep.d2_exact - rep.d2_fd) < 1e-4
    assert rep.quadrature_error_estimate < 1e-6


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_fixed_grid_chains_run_on_the_ladders_first_two_levels(monkeypatch, tol):
    # the report's fixed-grid evaluations run on the ladder's 2048- and
    # 4097-point levels, on the interval truncation_interval gives for its
    # Galerkin lambda2, whatever its tol
    chains = []
    plain_ladder = eigensolver._ladder

    def recorded_ladder(potential, lower, upper, sizes, *args):
        if len(sizes) == 2:  # solve_on_interval's ladder lists every size up to the cap
            chains.append((tuple(sizes), lower, upper))
        return plain_ladder(potential, lower, upper, sizes, *args)

    monkeypatch.setattr(eigensolver, "_ladder", recorded_ladder)
    identity_report(2, 0.3, tol=tol)
    interval = truncation_interval(MontgomeryPotential(2, 0.3), Geometry.FULL_LINE,
                                   spectral.ground_state(2, 0.3, tol).lambda2)
    sizes = (eigensolver._N_START, 2 * eigensolver._N_START + 1)
    assert len(chains) >= 5
    assert set(chains) == {(sizes, *interval)}


def test_report_runs_no_adaptive_solve(monkeypatch):
    # the analytic identities come from the Galerkin ground state, and the
    # stencil's fixed-grid ladders are seeded from it: no adaptive solve
    # runs, and nothing bisects
    def refused(*args, **kwargs):
        raise AssertionError("an adaptive solve or a bisection ran")

    for name in ("solve", "solve_on_interval"):
        monkeypatch.setattr(eigensolver, name, refused)
    monkeypatch.setattr(tridiag, "lowest_eigenvalues", refused)
    rep = identity_report(2, 0.0, tol=TOL)
    assert rep.d2_exact > 0.0


def test_locate_minimum_runs_no_finite_difference_code(monkeypatch):
    # every Brent evaluation is a Galerkin ground state: no adaptive solve,
    # no fixed-grid ladder and no bisection runs
    def refused(*args, **kwargs):
        raise AssertionError("finite-difference code ran")

    for name in ("solve", "solve_on_interval", "_ladder"):
        monkeypatch.setattr(eigensolver, name, refused)
    monkeypatch.setattr(tridiag, "lowest_eigenvalues", refused)
    alpha_min, _ = locate_minimum(2)
    assert abs(alpha_min) <= 1e-6


def test_report_starts_flat_only_where_nothing_carries(monkeypatch):
    # the report's only finite-difference ladders are the stencil's:
    # inverse iteration starts flat on each stencil point's coarse level,
    # its fine level starts from the coarse vector, and nothing carries
    # from one stencil point to the next
    flat = []
    plain = tridiag.inverse_iteration

    def recorded(diag, offdiag, eigenvalue, start=None, **kwargs):
        flat.append(start is None)
        return plain(diag, offdiag, eigenvalue, start, **kwargs)

    monkeypatch.setattr(tridiag, "inverse_iteration", recorded)
    identity_report(2, 0.4, tol=TOL)
    assert flat == [True, False] * 5


def test_fd_oracles_are_central_differences_of_independent_evaluations():
    # each stencil point is a pure function of its alpha and seed: the same
    # five values at alpha + j FD_STEP, each taken alone and in another
    # order, give both oracles bit for bit
    k, alpha = 2, 0.9
    rep = report(k, alpha)
    state = spectral.ground_state(k, alpha, TOL)
    lower, upper = truncation_interval(MontgomeryPotential(k, alpha), Geometry.FULL_LINE,
                                       state.lambda2)
    h = identities.FD_STEP
    lam = {}
    for j in (1, -2, 0, 2, -1):
        a = alpha + j * h
        seed = state.lambda1 + (a - alpha) * rep.fh_integral
        lam[j] = eigensolver._fixed_grid_lambda1(MontgomeryPotential(k, a), lower, upper, seed)
    assert rep.d1_fd == (8.0 * (lam[1] - lam[-1]) - (lam[2] - lam[-2])) / (12.0 * h)
    assert rep.d2_fd == (16.0 * (lam[1] + lam[-1]) - (lam[2] + lam[-2])
                         - 30.0 * lam[0]) / (12.0 * h * h)
