"""Eigensolver: discretization, boundary handling, adaptive driver,
the de Gennes constant machinery, and the step-well gluing equation."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from montspec import eigensolver, tridiag
from montspec.errors import SolverFailure
from montspec.eigensolver import (
    TRUNCATION_PAD,
    GridSpec,
    assemble_hamiltonian,
    de_gennes_theta0,
    dirichlet_well_lambda,
    fixed_grid_lambda1,
    refined_lowest_eigenvalues,
    solve,
    solve_on_interval,
    truncation_interval,
)
from montspec.operators import (
    BoundaryCondition,
    Geometry,
    MontgomeryPotential,
    OperatorSpec,
    PureAnharmonicPotential,
    ShiftedHarmonicPotential,
)
from montspec.tridiag import inverse_iteration, lowest_eigenvalues

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 1.0, 100)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 8)
    g = GridSpec(0.0, 1.0, 99)
    assert g.spacing == pytest.approx(0.01)
    assert g.interior_points()[0] == pytest.approx(0.01)


def test_assemble_harmonic_spectrum():
    sys_ = assemble_hamiltonian(ShiftedHarmonicPotential(0.0), GridSpec(-10.0, 10.0, 999))
    lam = lowest_eigenvalues(sys_.diag, sys_.offdiag, 3)
    assert lam == pytest.approx([1.0, 3.0, 5.0], abs=2e-3)


def test_assemble_box_modes():
    zero = SimpleNamespace(value=lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    sys_dd = assemble_hamiltonian(zero, GridSpec(0.0, 1.0, 2047), D)
    lam_dd = lowest_eigenvalues(sys_dd.diag, sys_dd.offdiag, 1)
    assert lam_dd[0] == pytest.approx(math.pi**2, abs=1e-5)

    sys_nd = assemble_hamiltonian(zero, GridSpec(0.0, 1.0, 2047), N)
    assert len(sys_nd.diag) == 2048  # boundary point joins the unknowns
    lam_nd = lowest_eigenvalues(sys_nd.diag, sys_nd.offdiag, 1)
    assert lam_nd[0] == pytest.approx(math.pi**2 / 4.0, abs=1e-5)


def test_neumann_matches_even_extension():
    # Half-line Neumann spectrum of a symmetric well is the even-mode
    # spectrum of the full line: 1, 5 for the harmonic oscillator.
    res = solve(ShiftedHarmonicPotential(0.0), count=2, tol=1e-8,
                geometry=Geometry.HALF_LINE_POSITIVE, boundary=N)
    assert res.eigenvalues == pytest.approx([1.0, 5.0], abs=1e-8)


def test_dirichlet_half_line_is_odd_modes():
    res = solve(ShiftedHarmonicPotential(0.0), count=2, tol=1e-8,
                geometry=Geometry.HALF_LINE_POSITIVE, boundary=D)
    assert res.eigenvalues == pytest.approx([3.0, 7.0], abs=1e-8)


def test_truncation_radius_formulas():
    # Montgomery: ((k+1)(|alpha| + sqrt(cap + 1)))^(1/(k+1)) + 2
    r = MontgomeryPotential(2, 0.0).turning_point(1.0 + 1.0) + TRUNCATION_PAD
    assert r == pytest.approx((3.0 * math.sqrt(2.0)) ** (1.0 / 3.0) + 2.0, rel=1e-14)
    r = ShiftedHarmonicPotential(0.0).turning_point(5.0 + 1.0) + TRUNCATION_PAD
    assert r == pytest.approx(math.sqrt(6.0) + 2.0, rel=1e-14)
    r = MontgomeryPotential(70, 2.8).turning_point(8.0 + 1.0) + TRUNCATION_PAD
    assert r == pytest.approx((71.0 * (2.8 + 3.0)) ** (1.0 / 71.0) + 2.0, rel=1e-14)


@pytest.mark.parametrize(
    "pot",
    [
        MontgomeryPotential(2, 1.0),
        MontgomeryPotential(6, -0.5),
        ShiftedHarmonicPotential(0.7),
        PureAnharmonicPotential(4),
    ],
)
def test_truncation_radius_postcondition(pot):
    cap = 7.0
    radius = pot.turning_point(cap + 1.0) + TRUNCATION_PAD
    for t in (radius, -radius, radius + 0.5, 2.0 * radius):
        assert pot.value(t) >= cap + 1.0 - 1e-9


def test_truncation_interval_caps_and_geometry():
    # every cap is at least 10, so bounds up to 3.5 share the cap-10 interval
    pot = MontgomeryPotential(2, 0.0)
    radius = (3.0 * math.sqrt(11.0)) ** (1.0 / 3.0) + 2.0
    assert truncation_interval(pot, Geometry.FULL_LINE, 0.0) == pytest.approx(
        (-radius, radius), rel=1e-14
    )
    assert truncation_interval(pot, Geometry.FULL_LINE, 3.5) == truncation_interval(
        pot, Geometry.FULL_LINE, 0.0
    )
    lower, upper = truncation_interval(pot, Geometry.HALF_LINE_POSITIVE, 7.0)
    assert lower == 0.0
    assert upper == pot.turning_point(2.0 * 7.0 + 3.0 + 1.0) + TRUNCATION_PAD


_K2_TOL = 1e-8


@pytest.fixture(scope="module")
def montgomery_k2_result():
    return solve(OperatorSpec(2, 0.0), count=2, tol=_K2_TOL)


def test_solve_harmonic_to_tolerance():
    res = solve(ShiftedHarmonicPotential(0.0), count=2, tol=1e-8)
    assert res.eigenvalues == pytest.approx([1.0, 3.0], abs=1e-8)
    assert res.achieved_tol_estimate <= 1e-8


def test_pure_quadratic_equals_shifted_harmonic():
    a = solve(PureAnharmonicPotential(2), count=2, tol=1e-7)
    b = solve(ShiftedHarmonicPotential(0.0), count=2, tol=1e-7)
    assert a.eigenvalues == b.eigenvalues


def test_eigenresult_invariants(montgomery_k2_result):
    res = montgomery_k2_result
    assert res.eigenvalues[0] < res.eigenvalues[1]
    norm = float(np.sum(res.quadrature_weights * res.ground_state_values**2))
    assert abs(norm - 1.0) < 1e-12
    assert np.min(res.ground_state_values) > 0.0
    assert res.achieved_tol_estimate <= _K2_TOL


def test_ground_state_even_for_even_k(montgomery_k2_result):
    u = montgomery_k2_result.ground_state_values
    assert np.max(np.abs(u - u[::-1])) < 1e-8


def test_sandwich_k2(montgomery_k2_result):
    # commutator floor h(2) * 1 and trial-state ceiling A_2
    lam1 = montgomery_k2_result.eigenvalues[0]
    assert 0.6204 < lam1 < 0.66413


def test_alpha_reflection_symmetry():
    for alpha in (0.3, 0.9):
        plus = solve(OperatorSpec(2, alpha), count=1, tol=1e-9)
        minus = solve(OperatorSpec(2, -alpha), count=1, tol=1e-9)
        assert abs(plus.eigenvalues[0] - minus.eigenvalues[0]) < 2e-9


def test_grid_independence(monkeypatch):
    pot = MontgomeryPotential(2, 0.0)
    a = solve_on_interval(pot, -6.0, 6.0, count=1, tol=1e-8)
    monkeypatch.setattr(eigensolver, "_N_START", 3072)
    b = solve_on_interval(pot, -6.0, 6.0, count=1, tol=1e-8)
    assert abs(a.eigenvalues[0] - b.eigenvalues[0]) <= (
        a.achieved_tol_estimate + b.achieved_tol_estimate
    )


def test_domain_independence_matched_h():
    # Same spacing h on [-6, 6] and [-8, 8]: the difference in the raw
    # bottom eigenvalue isolates the truncation error of the narrower
    # domain, which the pad rule keeps far below discretization error.
    pot = MontgomeryPotential(2, 0.0)
    sys_a = assemble_hamiltonian(pot, GridSpec(-6.0, 6.0, 6143))
    sys_b = assemble_hamiltonian(pot, GridSpec(-8.0, 8.0, 8191))
    assert sys_a.spacing == sys_b.spacing
    lam_a, _ = refined_lowest_eigenvalues(sys_a, 1)
    lam_b, _ = refined_lowest_eigenvalues(sys_b, 1)
    assert abs(lam_a[0] - lam_b[0]) < 1e-10


def test_ground_state_vector_positive_convention():
    sys_ = assemble_hamiltonian(ShiftedHarmonicPotential(0.0), GridSpec(-8.0, 8.0, 1023))
    lam = lowest_eigenvalues(sys_.diag, sys_.offdiag, 1)
    v = inverse_iteration(sys_.diag, sys_.offdiag, float(lam[0]))
    assert np.sum(v) > 0.0
    assert np.min(v) > 0.0
    # Gaussian shape: log v is concave quadratic at the center
    mid = len(v) // 2
    assert v[mid] == np.max(v)


def test_solve_validation():
    with pytest.raises(ValueError):
        solve(OperatorSpec(2, 0.0), tol=1e-12)
    with pytest.raises(ValueError):
        solve(OperatorSpec(2, 0.0), geometry=Geometry.FULL_LINE)
    with pytest.raises(ValueError):
        solve(MontgomeryPotential(2, 0.0), geometry=Geometry.HALF_LINE_POSITIVE)


def test_nan_tol_is_rejected():
    # nan compares false with every floor, so it must fail the guard up front
    # instead of climbing the ladder to the grid cap
    with pytest.raises(ValueError):
        solve(OperatorSpec(2, 0.0), tol=float("nan"))
    with pytest.raises(ValueError):
        de_gennes_theta0(float("nan"))


def _stebz_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("stebz (eigh_tridiagonal) did not converge (LAPACK info=1)")


def test_lapack_failure_is_solver_failure(monkeypatch):
    # LAPACK's LinAlgError subclasses ValueError; inside solve it is a
    # solver failure, not an argument error
    monkeypatch.setattr(tridiag, "eigvalsh_tridiagonal", _stebz_fails)
    with pytest.raises(SolverFailure, match="stebz") as info:
        solve(OperatorSpec(2, 0.0))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_solve_on_interval_lapack_failure_is_solver_failure():
    # a NaN potential sample makes stebz fail on the first ladder level
    def nan_well(t):
        return np.where(np.abs(t) < 0.5, np.nan, t * t)

    with pytest.raises(SolverFailure, match="stebz") as info:
        solve_on_interval(SimpleNamespace(value=nan_well), -6.0, 6.0, count=1)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_solve_near_degenerate_double_well():
    # k = 1, alpha = 5: the two lowest eigenvalues lie 5.3e-8 apart, closer
    # than the separation margin on the finer ladder levels, which bisect
    res = solve(OperatorSpec(1, 5.0), count=2, tol=1e-6)
    assert res.eigenvalues == pytest.approx(
        [3.11034171650565, 3.11034176987275], rel=0.0, abs=1e-12
    )
    assert res.lambda2 - res.lambda1 > 5e-8


def test_solver_failure_carries_best_estimate(monkeypatch):
    monkeypatch.setattr(eigensolver, "_N_CAP", 4097)
    with pytest.raises(SolverFailure) as info:
        solve(OperatorSpec(2, 0.0), count=1, tol=1e-8)
    assert info.value.best_estimate is not None
    assert info.value.best_estimate[0] == pytest.approx(0.66095, abs=1e-4)


def test_solver_failure_at_grid_cap_carries_best_estimate(monkeypatch):
    # two levels cannot reach tol = 1e-8 at k = 2 under any stop rule:
    # the raw change between them is about 1e-5
    monkeypatch.setattr(eigensolver, "_N_CAP", 4097)
    with pytest.raises(SolverFailure, match="grid refinement cap") as info:
        solve_on_interval(MontgomeryPotential(2, 0.0), -6.0, 6.0, count=1, tol=1e-8)
    assert info.value.best_estimate is not None
    assert info.value.best_estimate[0] == pytest.approx(0.66095, abs=1e-4)


@pytest.mark.parametrize("k", [2, 30, 200])
@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_seeded_ladder_matches_bisected_ladder(monkeypatch, k, alpha):
    seeded = solve(OperatorSpec(k, alpha), count=2, tol=1e-6)
    monkeypatch.setattr(eigensolver, "refined_lowest_eigenvalues",
                        lambda system, count, seeds=None: refined_lowest_eigenvalues(system, count))
    bisected = solve(OperatorSpec(k, alpha), count=2, tol=1e-6)
    assert seeded.grid_used == bisected.grid_used
    assert seeded.iterations == bisected.iterations
    assert seeded.eigenvalues == pytest.approx(bisected.eigenvalues, rel=0.0, abs=1e-13)


def test_wrong_seeds_fall_back_to_bisection():
    system = assemble_hamiltonian(MontgomeryPotential(2, 0.0), GridSpec(-6.0, 6.0, 4095))
    bisected, ground = refined_lowest_eigenvalues(system, 2)
    lam3 = lowest_eigenvalues(system.diag, system.offdiag, 3)[2]
    for seeds in ([bisected[1], bisected[0]], [bisected[1], lam3], [bisected[0], lam3],
                  [bisected[0], bisected[0]]):
        values, v = refined_lowest_eigenvalues(system, 2, seeds=np.array(seeds))
        assert np.array_equal(values, bisected)
        assert np.array_equal(v, ground)
    values, _ = refined_lowest_eigenvalues(system, 2, seeds=bisected + 1e-6)
    assert values == pytest.approx(bisected, rel=0.0, abs=1e-13)


@pytest.mark.parametrize("seed", ["coarse-lambda1", "far-below", "coarse-lambda2"])
def test_fixed_grid_lambda1_matches_bisected_pair(seed):
    # a seed far below lambda1 still polishes to it; one at lambda2 fails
    # the ceiling probe and falls back to bisection
    pot = MontgomeryPotential(2, 0.5)
    grid = GridSpec(-6.0, 6.0, 8191)
    coarse, _ = refined_lowest_eigenvalues(assemble_hamiltonian(pot, GridSpec(-6.0, 6.0, 4095)), 2)
    fine, _ = refined_lowest_eigenvalues(assemble_hamiltonian(pot, grid), 1)
    expected = fine[0] + (fine[0] - coarse[0]) / 3.0
    value = {"coarse-lambda1": coarse[0], "far-below": 0.0, "coarse-lambda2": coarse[1]}[seed]
    assert fixed_grid_lambda1(pot, grid, value) == pytest.approx(expected, rel=0.0, abs=1e-13)


def test_fixed_grid_lapack_failure_is_solver_failure(monkeypatch):
    monkeypatch.setattr(tridiag, "eigvalsh_tridiagonal", _stebz_fails)
    with pytest.raises(SolverFailure, match="stebz") as info:
        fixed_grid_lambda1(MontgomeryPotential(2, 0.5), GridSpec(-6.0, 6.0, 8191), 0.8)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_theta0_xi_zero_slice():
    res = solve(ShiftedHarmonicPotential(0.0), count=1, tol=1e-9,
                geometry=Geometry.HALF_LINE_POSITIVE, boundary=N)
    assert res.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)


def test_theta0_validation():
    with pytest.raises(ValueError):
        de_gennes_theta0(1e-10)


def test_theta0_parabolic_steps_bound_the_solves(monkeypatch):
    # golden-section steps alone take 22 solves here
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "solve", counted)
    assert de_gennes_theta0(1e-7) > 0.59
    assert len(calls) <= 10


def test_dirichlet_well_root():
    lam = dirichlet_well_lambda(1.1, 70)
    # frozen two-route oracle: the gluing-equation root agrees with a
    # node-aligned PDE solve of the same step well to 3.4e-13
    assert lam == pytest.approx(7.652740526281, rel=1e-10)
    assert lam < (math.pi / 1.1) ** 2
    assert (math.sqrt(5.0) - 1.0) / 2.0 * lam >= 4.719


def test_dirichlet_well_validation():
    with pytest.raises(ValueError):
        dirichlet_well_lambda(1.0, 70)
    with pytest.raises(ValueError):
        dirichlet_well_lambda(1.001, 10)


def test_dirichlet_well_pde_consistency():
    T, k = 1.1, 70
    barrier = T**k
    # jump aligned to a grid node (L = 3T keeps T on every level of the
    # n -> 2n+1 ladder); interface node carries the mean of the two sides
    def step(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t - T) < 1e-9, 0.5 * barrier,
                        np.where(t > T, barrier, 0.0))

    res = solve_on_interval(SimpleNamespace(value=step), 0.0, 3.0 * T, count=1, tol=1e-7)
    assert res.eigenvalues[0] == pytest.approx(dirichlet_well_lambda(T, k), abs=1e-6)
