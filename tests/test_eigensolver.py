"""Eigensolver: discretization, boundary handling, adaptive driver, the
de Gennes model as an even extension, and the step-well gluing
equation."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from derivations import (
    EvenShiftedHarmonicPotential,
    barrier_core,
    dirichlet_well_lambda,
    system_points,
    window_rows,
)
from montspec import eigensolver, tridiag
from montspec.bounds import de_gennes_theta0
from montspec.errors import SolverFailure
from montspec.eigensolver import (
    TRUNCATION_PAD,
    GridSpec,
    StartShapes,
    _fixed_grid_lambda1,
    assemble_hamiltonian,
    refined_lowest_eigenvalues,
    solve,
    solve_on_interval,
    truncation_interval,
)
from montspec.operators import (
    Geometry,
    MontgomeryPotential,
    OperatorSpec,
    PureAnharmonicPotential,
    ShiftedHarmonicPotential,
)
from montspec.tridiag import are_lowest_eigenvalues, inverse_iteration, lowest_eigenvalues

D = Geometry.HALF_LINE_DIRICHLET

# the sinc collocation table the benchmark scores against, read only
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 1.0, 100)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 8)
    g = GridSpec(0.0, 1.0, 99)
    assert g.spacing == pytest.approx(0.01)
    assert _interior_points(g)[0] == pytest.approx(0.01)


@pytest.mark.parametrize("lower, upper", [(-math.inf, 5.0), (-5.0, math.inf), (-1e308, 1e308)],
                         ids=["infinite-lower", "infinite-upper", "infinite-width"])
def test_grid_spec_rejects_non_finite_intervals(lower, upper):
    # an infinite end, or a width that overflows, is a ValueError before
    # any sample is taken, not a LAPACK failure after a RuntimeWarning
    with pytest.raises(ValueError, match="finite interval"):
        GridSpec(lower, upper, 2048)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite interval"):
            solve_on_interval(MontgomeryPotential(2, 0.0), lower, upper)


def _interior_points(grid):
    """The grid's n interior points, as the solver builds them."""
    return eigensolver._grid_points(grid.lower, grid.spacing, 1, grid.n + 1)


def test_assemble_harmonic_spectrum():
    sys_ = assemble_hamiltonian(ShiftedHarmonicPotential(0.0), GridSpec(-10.0, 10.0, 999))
    lam = lowest_eigenvalues(sys_.diag, sys_.offdiag, 3)
    assert lam == pytest.approx([1.0, 3.0, 5.0], abs=2e-3)


def test_assemble_box_modes():
    zero = SimpleNamespace(value=lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    sys_dd = assemble_hamiltonian(zero, GridSpec(0.0, 1.0, 2047))
    assert len(sys_dd.diag) == 2047  # both boundary points are dropped
    lam_dd = lowest_eigenvalues(sys_dd.diag, sys_dd.offdiag, 1)
    assert lam_dd[0] == pytest.approx(math.pi**2, abs=1e-5)


def test_dirichlet_half_line_is_odd_modes():
    res = solve(ShiftedHarmonicPotential(0.0), count=2, tol=1e-8,
                geometry=D)
    assert res.eigenvalues == pytest.approx([3.0, 7.0], abs=1e-8)


@pytest.mark.parametrize("k", [2, 4])
def test_half_line_spec_splits_full_line_by_parity(k):
    # for even k, t -> -t maps Q(k, 0) to itself: the odd modes make the
    # Dirichlet half-line spectrum
    full = solve(OperatorSpec(k, 0.0), count=2, tol=1e-8)
    dirichlet = solve(OperatorSpec(k, 0.0, D), count=1, tol=1e-8)
    assert dirichlet.lambda1 == pytest.approx(full.lambda2, rel=0.0, abs=1e-10)


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
    lower, upper = truncation_interval(pot, D, 7.0)
    assert lower == 0.0
    assert upper == pot.turning_point(2.0 * 7.0 + 3.0 + 1.0) + TRUNCATION_PAD


@pytest.mark.parametrize("geometry", ["full_line", "half_line_dirichlet", 0, None])
def test_truncation_interval_rejects_a_non_member(geometry):
    # only a Geometry member picks an interval, not a string that spells a
    # member's value; solve's ValueError comes from this check
    pot = MontgomeryPotential(2, 0.0)
    with pytest.raises(ValueError, match="Geometry member"):
        truncation_interval(pot, geometry, 0.0)
    if geometry is not None:  # solve reads None as its default, the full line
        with pytest.raises(ValueError, match="Geometry member"):
            solve(pot, geometry=geometry)


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


def test_solve_validation(monkeypatch):
    with pytest.raises(ValueError):
        solve(OperatorSpec(2, 0.0), tol=1e-12)
    with pytest.raises(ValueError):
        solve(OperatorSpec(2, 0.0), geometry=Geometry.FULL_LINE)
    # a string is not a Geometry member even when it spells one's value;
    # the check runs before any eigenvalue work
    monkeypatch.setattr(tridiag, "dstebz", _stebz_fails)
    with pytest.raises(ValueError, match="Geometry member"):
        solve(MontgomeryPotential(2, 0.0), geometry="full_line")


@pytest.mark.parametrize("count", [0, eigensolver.MAX_COUNT + 1, 2048])
def test_count_out_of_range_is_rejected(monkeypatch, count):
    # the check runs before any eigenvalue work
    monkeypatch.setattr(tridiag, "dstebz", _stebz_fails)
    with pytest.raises(ValueError, match=r"count must be in \[1, 64\]"):
        solve(OperatorSpec(2, 0.0), count=count)
    with pytest.raises(ValueError, match=r"count must be in \[1, 64\]"):
        solve_on_interval(MontgomeryPotential(2, 0.0), -4.15, 4.15, count=count, tol=1e-2)


def test_nan_tol_is_rejected():
    # nan compares false with every floor, so it must fail the guard up front
    # instead of climbing the ladder to the grid cap
    with pytest.raises(ValueError):
        solve(OperatorSpec(2, 0.0), tol=float("nan"))
    with pytest.raises(ValueError, match="tol must be at least 1e-11"):
        solve_on_interval(MontgomeryPotential(2, 0.0), -4.15, 4.15, tol=float("nan"))
    with pytest.raises(ValueError):
        de_gennes_theta0(float("nan"))


def _stebz_fails(d, *args):
    # the shape of scipy's dstebz return with info = 1: some eigenvalues
    # failed to converge
    blocks = np.zeros(len(d), dtype=np.int32)
    return 0, np.zeros(len(d)), blocks, blocks, 1


def test_lapack_failure_is_solver_failure(monkeypatch):
    # inside solve a LAPACK fault is a solver failure, not an argument error
    monkeypatch.setattr(tridiag, "dstebz", _stebz_fails)
    with pytest.raises(SolverFailure, match=r"stebz.*info=1"):
        solve(OperatorSpec(2, 0.0))


def test_solve_on_interval_lapack_failure_is_solver_failure():
    # a NaN potential sample makes stebz fail on the first ladder level
    def nan_well(t):
        return np.where(np.abs(t) < 0.5, np.nan, t * t)

    with pytest.raises(SolverFailure, match=r"stebz.*info="):
        solve_on_interval(SimpleNamespace(value=nan_well), -6.0, 6.0, count=1)


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


def test_cap_forecast_reads_the_h2_rate():
    step = np.array([1e-5, 4e-5])
    # 4e-5 / 6^5 = 5.1e-9: five more levels cannot bring it under 5e-9
    floor = eigensolver._cap_forecast(4.0 * step, step, 5)
    assert floor == pytest.approx(4e-5 / 6.0**5, rel=1e-15) and floor >= 0.5e-8
    # a tenth of that step is within their reach
    assert eigensolver._cap_forecast(0.4 * step, 0.1 * step, 5) < 0.5e-8


@pytest.mark.parametrize(
    "previous, step",
    [
        ([2e-5, 8e-5], [1e-5, 4e-5]),  # ratio 2
        ([4e-5, 32e-5], [1e-5, 4e-5]),  # ratio 4, then 8
        ([4e-5, 1e-5], [1e-5, 0.0]),
        ([0.0, 16e-5], [0.0, 4e-5]),
        ([4e-5, 16e-5], [1e-5, math.nan]),
        ([math.nan, 16e-5], [1e-5, 4e-5]),
    ],
    ids=["ratio-2", "ratio-8", "zero-step", "zero-steps", "nan-step", "nan-previous"],
)
def test_cap_forecast_needs_the_h2_rate_everywhere(previous, step):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eigensolver._cap_forecast(np.array(previous), np.array(step), 5) is None


def test_steep_well_fails_on_its_cap_forecast(monkeypatch):
    # k = 200 at tol 1e-8 stops at n = 16391, five levels under the cap,
    # and reports the Richardson value of that level
    sizes = []
    plain = eigensolver.assemble_hamiltonian

    def recorded(potential, grid, *args, **kwargs):
        sizes.append(grid.n)
        return plain(potential, grid, *args, **kwargs)

    monkeypatch.setattr(eigensolver, "assemble_hamiltonian", recorded)
    with pytest.raises(SolverFailure, match="grid refinement cap") as info:
        solve(OperatorSpec(200, 0.0), count=2, tol=1e-8)
    assert max(sizes) <= 32783
    row = next(r for r in json.loads(REFERENCE.read_text())["rows"]
               if (r["k"], r["alpha"]) == (200, 0.0))
    assert info.value.best_estimate == pytest.approx(row["eigenvalues"], rel=0.0, abs=1e-8)


@pytest.mark.parametrize(
    "spec, count",
    [
        (OperatorSpec(2, 0.0), 2),
        (OperatorSpec(10, 1.5), 2),  # ends at n = 524543
        (OperatorSpec(30, 1.5), 2),  # its last step clears tol / 2 by 6 %
        (OperatorSpec(4, 0.0), 3),
        (OperatorSpec(4, 0.0, D), 2),
    ],
    ids=["k2", "k10-alpha1.5", "k30-alpha1.5", "k4-count3", "dirichlet"],
)
def test_cap_forecast_leaves_successes_bit_identical(monkeypatch, spec, count):
    res = solve(spec, count=count, tol=1e-8)
    monkeypatch.setattr(eigensolver, "_RATE_BOUND", math.inf)  # never forecasts
    plain = solve(spec, count=count, tol=1e-8)
    assert res.eigenvalues == plain.eigenvalues
    assert res.achieved_tol_estimate == plain.achieved_tol_estimate
    assert (res.grid_used, res.iterations) == (plain.grid_used, plain.iterations)
    assert np.array_equal(res.ground_state_values, plain.ground_state_values)


def test_near_miss_runs_to_the_cap(monkeypatch):
    # k = 34's last step, 5.3e-9, misses tol / 2 by 6 %: from the level
    # before, 2.1e-8 shrinking 6-fold would clear it, so no forecast fires
    sizes = _level_sizes(monkeypatch)
    with pytest.raises(SolverFailure, match="grid refinement cap n > 1048576 reached") as info:
        solve(OperatorSpec(34, 0.0), count=2, tol=1e-8)
    assert sizes[-1] == 524543
    monkeypatch.setattr(eigensolver, "_RATE_BOUND", math.inf)
    with pytest.raises(SolverFailure) as plain:
        solve(OperatorSpec(34, 0.0), count=2, tol=1e-8)
    assert info.value.best_estimate == plain.value.best_estimate


def test_cap_failure_reports_the_last_level_at_the_h2_rate(monkeypatch):
    # k = 1, alpha = 5: the 5.3e-8 gap lies below the residual floor on the
    # finest levels, where rounding drifts the polished lambda2 and its
    # steps leave the O(h^2) rate.  The cap failure reports the Richardson
    # values of the last level still at that rate, in order and within
    # 1e-9 of the tol = 1e-6 pair, not the last level's out-of-order ones
    coarse = solve(OperatorSpec(1, 5.0), count=2, tol=1e-6)
    records = _recorded_ladder(monkeypatch)
    with pytest.raises(SolverFailure, match="grid refinement cap n > 1048576 reached") as info:
        solve(OperatorSpec(1, 5.0), count=2, tol=1e-8)
    best = info.value.best_estimate
    assert best[0] < best[1]
    assert best == pytest.approx(coarse.eigenvalues, rel=0.0, abs=1e-9)
    at_rate = [i for i in range(2, len(records))
               if eigensolver._shows_h2_rate(records[i - 1][2], records[i][2])]
    _, lam, step = records[at_rate[-1]]
    assert at_rate[-1] < len(records) - 1
    assert best == tuple(float(x) for x in lam + step / 3.0)


@pytest.mark.parametrize("k", [2, 30, 200])
@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_seeded_ladder_matches_bisected_ladder(monkeypatch, k, alpha):
    seeded = solve(OperatorSpec(k, alpha), count=2, tol=1e-6)
    monkeypatch.setattr(eigensolver, "refined_lowest_eigenvalues",
                        lambda system, count, seeds=None, shapes=None:
                        refined_lowest_eigenvalues(system, count))
    bisected = solve(OperatorSpec(k, alpha), count=2, tol=1e-6)
    assert seeded.grid_used == bisected.grid_used
    assert seeded.iterations == bisected.iterations
    assert seeded.eigenvalues == pytest.approx(bisected.eigenvalues, rel=0.0, abs=1e-13)


def _count_bisections(monkeypatch):
    """Record the size of every tridiag.lowest_eigenvalues call."""
    sizes = []

    def counted(diag, offdiag, count):
        sizes.append(len(diag))
        return lowest_eigenvalues(diag, offdiag, count)

    monkeypatch.setattr(tridiag, "lowest_eigenvalues", counted)
    return sizes


@pytest.mark.parametrize("k, alpha, retruncated", [(2, 0.0, False), (10, 1.5, True)])
def test_solve_bisects_once(monkeypatch, k, alpha, retruncated):
    # the pre-solve bisects; its values seed the first ladder level, which
    # then passes its check whether or not the interval was re-truncated
    sizes = _count_bisections(monkeypatch)
    res = solve(OperatorSpec(k, alpha), count=2, tol=1e-6)
    assert sizes == [eigensolver._N_PRESOLVE]
    pre_solve = truncation_interval(OperatorSpec(k, alpha).potential(), Geometry.FULL_LINE, 0.0)
    assert ((res.grid_used.lower, res.grid_used.upper) != pre_solve) == retruncated


def test_seeded_level_certified_after_polish_bisects_once(monkeypatch):
    # the level check counts eigenvalues just above the polished values, so
    # a prediction short by a whole level's O(h^2) change cannot put the
    # count within half a margin of lambda2 and force a re-bisection
    sizes = _count_bisections(monkeypatch)
    solve(OperatorSpec(2, 0.26), count=2, tol=1e-6)
    assert sizes == [eigensolver._N_PRESOLVE]


def _within_rounding(values, expected):
    """Whether each value is within 64 eps |expected| of its expected one,
    the factor of inverse iteration's residual floor
    (tridiag._residual_floor): two routes to one eigenvalue, say a seeded
    and a bisected level, agree to about that."""
    expected = np.asarray(expected)
    return bool(np.all(np.abs(np.asarray(values) - expected)
                       <= 64.0 * np.finfo(float).eps * np.abs(expected)))


class _CountedPotential:
    """A potential that records how many points each value() call samples."""

    def __init__(self, inner):
        self.inner = inner
        self.sizes = []

    def value(self, t):
        self.sizes.append(np.size(t))
        return self.inner.value(t)

    def turning_point(self, energy):
        return self.inner.turning_point(energy)


@pytest.mark.parametrize("geometry", [Geometry.FULL_LINE, D], ids=["full", "dirichlet"])
@pytest.mark.parametrize("k", [1, 2, 30])
def test_refined_levels_carry_potential_samples(monkeypatch, geometry, k):
    # a level with 2n + 1 interior points reuses the samples of the level
    # below at every other point, so V is evaluated at the n + 1 new points
    # only, and every level's samples are V's own, bit for bit
    potential = _CountedPotential(MontgomeryPotential(k, 0.3))
    levels = []
    assemble = eigensolver.assemble_hamiltonian

    def recorded(potential_, grid, *args, **kwargs):
        before = len(potential.sizes)
        system = assemble(potential_, grid, *args, **kwargs)
        levels.append((system, grid.lower, potential.sizes[before:]))
        return system

    monkeypatch.setattr(eigensolver, "assemble_hamiltonian", recorded)
    res = solve(potential, count=2, tol=1e-6, geometry=geometry)
    ladder = levels[1:]  # levels[0] is the pre-solve
    assert len(ladder) == res.iterations >= 3
    assert ladder[0][2] == [len(ladder[0][0].diag)]
    for (coarse, _, _), (_, _, sizes) in zip(ladder, ladder[1:]):
        assert sizes == [len(coarse.diag) + 1]
    for system, lower, _ in levels:
        expected = potential.inner.value(system_points(system, lower))
        assert system.potential_values.tobytes() == expected.tobytes()


def test_fixed_grid_fine_level_carries_samples(monkeypatch):
    # the coarse level's points are every other fine point, so the fine
    # level samples V only at the 2049 points between them
    potential = _CountedPotential(MontgomeryPotential(2, 0.3))
    lam = _fixed_grid_lambda1(potential, -5.0, 5.0, 0.84)
    assert potential.sizes == [eigensolver._N_START, eigensolver._N_START + 1]
    plain = eigensolver.assemble_hamiltonian
    monkeypatch.setattr(eigensolver, "assemble_hamiltonian",
                        lambda potential, grid, coarse_values=None: plain(potential, grid))
    assert _fixed_grid_lambda1(potential.inner, -5.0, 5.0, 0.84) == lam


def _record_liveness(monkeypatch):
    """At the start of each level's solve, the indices of the earlier
    assembled systems and returned ground vectors that are still alive."""
    systems, vectors, alive = [], [], []
    assemble = eigensolver.assemble_hamiltonian
    level = eigensolver.refined_lowest_eigenvalues

    def recorded_assemble(*args, **kwargs):
        system = assemble(*args, **kwargs)
        systems.append(weakref.ref(system))
        return system

    def recorded_level(system, *args, **kwargs):
        earlier = [ref() for ref in systems]
        alive.append(([i for i, s in enumerate(earlier) if s is not None and s is not system],
                      [i for i, ref in enumerate(vectors) if ref() is not None]))
        del earlier
        lam, v = level(system, *args, **kwargs)
        if v is not None:  # none above _N_VECTOR_CAP rows
            vectors.append(weakref.ref(v))
        return lam, v

    monkeypatch.setattr(eigensolver, "assemble_hamiltonian", recorded_assemble)
    monkeypatch.setattr(eigensolver, "refined_lowest_eigenvalues", recorded_level)
    return alive


def _ladder_levels(spec, levels):
    """The first `levels` levels of spec's count=2 ladder, n -> 2n + 1 from
    _N_START points, on its cap-10 truncation interval and unseeded: an
    explicit ladder, whatever level solve's stop rule ends at.  Callers
    drop each level's system and vector before asking for the next
    (_ladder's consumer rule)."""
    potential = spec.potential()
    sizes = [eigensolver._N_START]
    while len(sizes) < levels:
        sizes.append(2 * sizes[-1] + 1)
    lower, upper = truncation_interval(potential, spec.geometry, 0.0)
    return eigensolver._ladder(potential, lower, upper, sizes, 2, None)


def test_ladder_levels_do_not_outlive_their_successor(monkeypatch):
    # a level's matrix and vector are dead once the next, larger level is
    # solved; in solve only the pre-solve's system (index 0) lives, held
    # by solve.  The first level's ground vector (index 0, 2048 rows) is
    # vector 0 of the ladder's StartShapes record, which every later
    # level starts from
    alive = _record_liveness(monkeypatch)
    res = solve(OperatorSpec(2, 0.3), count=2, tol=1e-6)
    assert alive == [([0], [])] + [([0], [0])] * (res.iterations - 1)
    alive.clear()
    for _, _, _, system, v in _ladder_levels(OperatorSpec(2, 0.3), 8):
        del system, v
    assert alive == [([], [])] + [([], [res.iterations])] * 7
    alive.clear()
    # a fixed-grid evaluation's coarse matrix is dead while its fine level is
    # solved; the coarse vector (2048 rows) may live
    _fixed_grid_lambda1(MontgomeryPotential(2, 0.3), -5.0, 5.0, 0.84)
    assert [systems for systems, _ in alive] == [[], []]


def test_a_level_holds_at_most_nine_of_its_arrays():
    # at its peak the finest level (262 271 rows) holds its system's three
    # arrays, the vector being polished and one sweep's four LAPACK
    # arrays, besides the 65 567-point ground state: not its points, nor a
    # ground vector, nor a kept shifted diagonal beside LAPACK's copies
    solve(OperatorSpec(2, 0.0), count=2, tol=1e-6)  # imports and first-call caches
    tracemalloc.start()
    try:
        for n, _, _, system, v in _ladder_levels(OperatorSpec(2, 0.0), 8):
            if v is not None:  # kept as solve_on_interval keeps its ground state
                ground = v / math.sqrt(system.spacing)
            del system, v
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (n, len(ground)) == (262271, 65567)
    assert peak <= 9 * 8 * 262271


@pytest.mark.parametrize("spec", [OperatorSpec(10, 0.0), OperatorSpec(3, 0.7, D)],
                         ids=["full-line", "dirichlet"])
def test_levels_above_the_vector_cap_yield_no_vector(monkeypatch, spec):
    # only levels of at most _N_VECTOR_CAP rows return a ground vector: on
    # eight levels of an explicit ladder, and in solve with a cap small
    # enough that its final grid is past it whatever level it stops at;
    # the result's ground state is sampled on the last of them, with the
    # points and trapezoid weights of that level
    vectors = []
    level = eigensolver.refined_lowest_eigenvalues

    def recorded(system, *args, **kwargs):
        lam, v = level(system, *args, **kwargs)
        vectors.append((len(system.diag), None if v is None else len(v)))
        return lam, v

    monkeypatch.setattr(eigensolver, "refined_lowest_eigenvalues", recorded)

    def check(final_n, cap):
        assert final_n > 2 * cap
        assert all((length is None) == (rows > cap) for rows, length in vectors)
        assert all(length in (None, rows) for rows, length in vectors)

    for n, _, _, system, v in _ladder_levels(spec, 8):
        del system, v
    check(n, eigensolver._N_VECTOR_CAP)
    vectors.clear()
    cap = 3000
    monkeypatch.setattr(eigensolver, "_N_VECTOR_CAP", cap)
    res = solve(spec, count=2, tol=1e-6)
    check(res.grid_used.n, cap)
    rows = max(r for r, _ in vectors if r <= cap)
    grid = GridSpec(res.grid_used.lower, res.grid_used.upper, rows)
    assert len(res.ground_state_values) == rows
    assert res.ground_state_points.tobytes() == _interior_points(grid).tobytes()
    assert res.quadrature_weights.tobytes() == np.full(rows, grid.spacing).tobytes()


@pytest.mark.parametrize("lower", [-3.7, 0.0], ids=["full-line", "half-line"])
@pytest.mark.parametrize("n", [2048, 4097, 65567, 524543])
def test_derived_rows_match_the_materialized_points(lower, n):
    # a system's rows are its grid's points from grid index `first` on,
    # bit for bit as the grid builds them, also on a window of the level
    grid = GridSpec(lower, 3.7, n)
    system = assemble_hamiltonian(MontgomeryPotential(10, 0.3), grid)
    points = system_points(system, lower)
    assert points.tobytes() == _interior_points(grid).tobytes()
    rows = len(points)
    for view, lo in ((system, 0), (system.rows(rows // 5, rows - 7), rows // 5)):
        inside = points[lo:lo + len(view.diag)]
        assert system_points(view, lower).tobytes() == inside.tobytes()


def test_a_seeded_level_reads_its_largest_coupling_twice(monkeypatch):
    # max |offdiag| bounds every residual floor of a level: _polished reads
    # it once for its window (each eigenpair's inverse iteration and cut
    # check), and the level's check once for its separation margin
    sizes = _level_sizes(monkeypatch)
    reads = []
    plain = tridiag._max_abs

    def counted(x):
        reads.append(len(x))
        return plain(x)

    monkeypatch.setattr(tridiag, "_max_abs", counted)
    for _, _, _, system, v in _ladder_levels(OperatorSpec(2, 0.0), 4):  # every level is whole
        del system, v
    assert len(sizes) == 4
    for n in sizes[1:]:
        assert reads.count(n - 1) == 2


_THREADS_PROBE = """
import hashlib
from montspec import OperatorSpec, identities, solve
res = solve(OperatorSpec(2, 0.0), count=2, tol=1e-8)
ground = hashlib.sha256(res.ground_state_values.tobytes()).hexdigest()
print(repr((res.eigenvalues, res.achieved_tol_estimate, ground)))
print(repr(identities.identity_report(2, 0.7)))
"""


def test_results_do_not_depend_on_blas_threads():
    # np.dot and np.linalg.norm reduce through OpenBLAS, whose partial sums
    # split by thread count; the solver's reductions run through
    # tridiag.dot instead, so one and two BLAS threads give the same bits.
    # On a single-core host OpenBLAS may run one thread either way, and
    # then this cannot tell the two apart.
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _THREADS_PROBE], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_coarse_values_must_fit_the_grid():
    potential = MontgomeryPotential(2, 0.3)
    coarse = assemble_hamiltonian(potential, GridSpec(-5.0, 5.0, 255))
    for grid in (GridSpec(-5.0, 5.0, 512), GridSpec(-5.0, 5.0, 513)):
        with pytest.raises(ValueError, match="255 coarse values do not fit"):
            assemble_hamiltonian(potential, grid, coarse_values=coarse.potential_values)
    # the geometry is no parameter of assembly: a stray positional one is refused
    with pytest.raises(TypeError):
        assemble_hamiltonian(potential, GridSpec(-5.0, 5.0, 511), Geometry.FULL_LINE)


@pytest.mark.parametrize("spec", [OperatorSpec(2, 0.0), OperatorSpec(2, 0.4, D)],
                         ids=["full-line", "dirichlet"])
def test_started_levels_take_one_sweep_per_eigenpair(monkeypatch, spec):
    # every level after the first starts inverse iteration from the first
    # level's interpolated eigenvectors: one sweep each and no polish
    sweeps = []
    level_sweeps = []
    aligned_sweep = tridiag._aligned_sweep
    level = eigensolver.refined_lowest_eigenvalues

    def counted_sweep(sweep, v):
        sweeps.append(len(v))
        return aligned_sweep(sweep, v)

    def counted_level(system, *args, **kwargs):
        before = len(sweeps)
        result = level(system, *args, **kwargs)
        level_sweeps.append(len(sweeps) - before)
        return result

    monkeypatch.setattr(tridiag, "_aligned_sweep", counted_sweep)
    monkeypatch.setattr(eigensolver, "refined_lowest_eigenvalues", counted_level)
    for _, _, _, system, v in _ladder_levels(spec, 5):
        del system, v
    assert len(level_sweeps) == 5
    assert level_sweeps[0] > 2 * 2  # flat starts and their polish
    assert level_sweeps[1:] == [2] * 4


def test_failed_first_level_check_bisects(monkeypatch):
    # a first level whose seeds fail their check bisects itself and
    # polishes from flat starts: the seeded result to rounding
    expected = solve(OperatorSpec(2, 0.0), count=2, tol=1e-6)
    sizes = _count_bisections(monkeypatch)
    probes = []

    def fails_first(diag, offdiag, values):
        probes.append(len(diag))
        return len(probes) > 1 and are_lowest_eigenvalues(diag, offdiag, values)

    monkeypatch.setattr(tridiag, "are_lowest_eigenvalues", fails_first)
    res = solve(OperatorSpec(2, 0.0), count=2, tol=1e-6)
    assert probes[0] == eigensolver._N_START
    assert sizes == [eigensolver._N_PRESOLVE, eigensolver._N_START]
    assert (res.grid_used, res.iterations) == (expected.grid_used, expected.iterations)
    assert _within_rounding(res.eigenvalues, expected.eigenvalues)
    assert np.allclose(res.ground_state_values, expected.ground_state_values,
                       rtol=0.0, atol=1e-10 * np.max(expected.ground_state_values))


def _inverse_iteration_rows(monkeypatch):
    """Record the rows of every tridiag.inverse_iteration call."""
    rows = []
    plain = tridiag.inverse_iteration

    def counted(diag, offdiag, eigenvalue, start=None, **kwargs):
        rows.append(len(diag))
        return plain(diag, offdiag, eigenvalue, start, **kwargs)

    monkeypatch.setattr(tridiag, "inverse_iteration", counted)
    return rows


def _level_sizes(monkeypatch):
    """Record the rows of every ladder level's system."""
    sizes = []
    level = eigensolver.refined_lowest_eigenvalues

    def recorded(system, *args, **kwargs):
        sizes.append(len(system.diag))
        return level(system, *args, **kwargs)

    monkeypatch.setattr(eigensolver, "refined_lowest_eigenvalues", recorded)
    return sizes


def _window_off(monkeypatch):
    """Switch the decay window off: every ladder polishes every level whole."""
    monkeypatch.setattr(eigensolver, "_decay_window", lambda system, vectors: (None, None))


def _recorded_windows(monkeypatch):
    """Record every decay window the ladders compute."""
    windows = []
    plain = eigensolver._decay_window

    def recorded(system, vectors):
        windows.append(plain(system, vectors))
        return windows[-1]

    monkeypatch.setattr(eigensolver, "_decay_window", recorded)
    return windows


@pytest.mark.parametrize(
    "problem, count",
    [
        (OperatorSpec(2, 0.0), 2),
        (EvenShiftedHarmonicPotential(0.8), 1),
    ],
    ids=["k2-alpha0", "theta0"],
)
def test_shallow_wells_keep_the_whole_level(monkeypatch, problem, count):
    # the eigenvectors of k = 2 at alpha = 0 and of the de Gennes wells
    # (their even extensions) stay above DECAY_FLOOR across the truncated
    # interval: every level is polished whole, bit for bit as with the
    # window switched off
    def solve_it():
        return solve(problem, count=count, tol=1e-8)

    rows = _inverse_iteration_rows(monkeypatch)
    sizes = _level_sizes(monkeypatch)
    res = solve_it()
    assert rows == [r for n in sizes for r in [n] * count]
    _window_off(monkeypatch)
    whole = solve_it()
    assert res.eigenvalues == whole.eigenvalues
    assert res.achieved_tol_estimate == whole.achieved_tol_estimate
    assert np.array_equal(res.ground_state_values, whole.ground_state_values)


def test_offset_shallow_well_trims_its_far_tail(monkeypatch):
    # at alpha = 1.5 the k = 2 well sits right of centre, and its
    # eigenvectors fall below DECAY_FLOOR in the far left of the interval:
    # every level after the first polishes fewer rows than it holds, and
    # the eigenvalues are those of the window switched off to rounding (the
    # window's sums run over fewer rows, so their order differs)
    spec = OperatorSpec(2, 1.5)
    rows = _inverse_iteration_rows(monkeypatch)
    sizes = _level_sizes(monkeypatch)
    windows = _recorded_windows(monkeypatch)
    res = solve(spec, count=2, tol=1e-8)
    assert len(windows) == 1 and len(rows) == 2 * len(sizes)
    assert windows[0][0] is not None and windows[0][1] is None
    assert rows[:2] == [sizes[0]] * 2  # the recording level is whole
    assert all(r < n for r, n in zip(rows[2:], [m for n in sizes[1:] for m in (n, n)]))
    _window_off(monkeypatch)
    whole = solve(spec, count=2, tol=1e-8)
    assert (whole.grid_used, whole.iterations) == (res.grid_used, res.iterations)
    assert res.eigenvalues == pytest.approx(whole.eigenvalues, rel=0.0, abs=2e-14)


@pytest.mark.parametrize("k", [10, 30, 200])
def test_steep_wells_polish_their_decay_window(monkeypatch, k):
    # past the first level inverse iteration runs on a strict inner window,
    # and the result moves by rounding only
    spec = OperatorSpec(k, 0.0)
    rows = _inverse_iteration_rows(monkeypatch)
    sizes = _level_sizes(monkeypatch)
    windows = _recorded_windows(monkeypatch)
    res = solve(spec, count=2, tol=1e-6)
    assert len(windows) == 1 and len(rows) == 2 * len(sizes)
    assert rows[:2] == [sizes[0]] * 2  # the recording level is whole
    assert all(r < n for r, n in zip(rows[2:], [m for n in sizes[1:] for m in (n, n)]))
    assert sum(rows) < 0.7 * 2 * sum(sizes)
    # the ground state is exactly 0 outside the window, which is strict
    points = res.ground_state_points
    recorded = GridSpec(res.grid_used.lower, res.grid_used.upper, sizes[0])
    lo, hi = window_rows(points, windows[0], recorded)
    assert 0 < lo < hi < len(points)
    u = res.ground_state_values
    assert not np.any(u[:lo]) and not np.any(u[hi:]) and np.all(u[lo + 1:hi - 1] > 0)
    _window_off(monkeypatch)
    whole = solve(spec, count=2, tol=1e-6)
    assert (whole.grid_used, whole.iterations) == (res.grid_used, res.iterations)
    assert res.eigenvalues == pytest.approx(whole.eigenvalues, rel=0.0, abs=2e-14)


def test_steep_well_polishes_its_coupled_core(monkeypatch):
    # at k = 200 about half of every level's rows are saturated barrier
    # rows; past the first level, inverse iteration runs on strictly fewer
    # rows than the barrier core between them holds
    spec = OperatorSpec(200, 0.0)
    rows = _inverse_iteration_rows(monkeypatch)
    sizes = _level_sizes(monkeypatch)
    res = solve(spec, count=2, tol=1e-6)
    assert len(rows) == 2 * len(sizes)
    assert sum(rows) < 0.6 * 2 * sum(sizes)
    lower, upper = res.grid_used.lower, res.grid_used.upper
    for n, polished in zip(sizes[1:], zip(rows[2::2], rows[3::2])):
        system = assemble_hamiltonian(spec.potential(), GridSpec(lower, upper, n))
        lo, hi = barrier_core(system.diag, system.offdiag)
        assert max(polished) < hi - lo < n


def test_coupled_cut_polishes_the_whole_level(monkeypatch):
    # a window cut inside the well drops a coupling far above the residual
    # floor, so each later level takes the one fallback: it bisects and
    # polishes its whole matrix from flat starts, the untrimmed result to
    # rounding
    spec = OperatorSpec(200, 0.0)
    _window_off(monkeypatch)
    whole = solve(spec, count=2, tol=1e-6)
    windows = []

    def central(system, vectors):
        # the grid indices of the recording level's points nearest -0.5 and 0.5
        middle, half = (len(system.diag) + 1) / 2, 0.5 / system.spacing
        windows.append((round(middle - half), round(middle + half)))
        return windows[-1]

    monkeypatch.setattr(eigensolver, "_decay_window", central)
    bisections = _count_bisections(monkeypatch)
    rows = _inverse_iteration_rows(monkeypatch)
    sizes = _level_sizes(monkeypatch)
    res = solve(spec, count=2, tol=1e-6)
    lower, upper = res.grid_used.lower, res.grid_used.upper
    recorded = GridSpec(lower, upper, sizes[0])
    inner = []
    for n in sizes[1:]:
        lo, hi = window_rows(_interior_points(GridSpec(lower, upper, n)), windows[0], recorded)
        inner.append(hi - lo)
    assert rows == [sizes[0]] * 2 + [r for n, m in zip(sizes[1:], inner) for r in (m, n, n)]
    assert bisections == [eigensolver._N_PRESOLVE] + sizes[1:]
    assert (res.grid_used, res.iterations) == (whole.grid_used, whole.iterations)
    assert _within_rounding(res.eigenvalues, whole.eigenvalues)
    # flat and interpolated starts converge to vectors 1.4e-11 apart
    assert np.allclose(res.ground_state_values, whole.ground_state_values,
                       rtol=0.0, atol=1e-10 * np.max(whole.ground_state_values))


@pytest.mark.parametrize("k", [1000, 4068])
def test_very_steep_wells_never_fall_back(monkeypatch, k):
    # every window cut passes its check and every seeded level its count:
    # the pre-solve is the only bisection
    bisections = _count_bisections(monkeypatch)
    rows = _inverse_iteration_rows(monkeypatch)
    sizes = _level_sizes(monkeypatch)
    try:
        solve(OperatorSpec(k, 0.0), count=2, tol=1e-6)
    except SolverFailure as err:  # k = 4068 runs to the grid cap
        assert "grid refinement cap" in str(err)
    assert len(bisections) == 1
    assert len(rows) == 2 * len(sizes) and sum(rows) < 0.4 * 2 * sum(sizes)


def _windowed_levels(monkeypatch):
    """Record, for every level polished on a decay window, the interval and
    first size of its ladder, the level's first grid index and rows, the
    window and the rows [lo, hi) inverse iteration ran on."""
    ladders, levels = [], []
    plain_ladder, plain_polished = eigensolver._ladder, eigensolver._polished
    plain_rows = eigensolver.AssembledSystem.rows

    def ladder(potential, lower, upper, sizes, *args):
        ladders.append((lower, upper, sizes[0]))
        return plain_ladder(potential, lower, upper, sizes, *args)

    def polished(system, estimates, shapes=None, keep=0):
        if shapes is not None and shapes.window is not None:
            levels.append([ladders[-1], system.first, len(system.diag), shapes.window,
                           (0, len(system.diag))])
        return plain_polished(system, estimates, shapes, keep)

    def rows(system, lo, hi):
        if levels:
            levels[-1][4] = (lo, hi)
        return plain_rows(system, lo, hi)

    monkeypatch.setattr(eigensolver, "_ladder", ladder)
    monkeypatch.setattr(eigensolver, "_polished", polished)
    monkeypatch.setattr(eigensolver.AssembledSystem, "rows", rows)
    return levels


@pytest.mark.parametrize(
    "k, alpha, geometry",
    [(k, alpha, g) for g in (Geometry.FULL_LINE, D) for k in (2, 30, 200) for alpha in (0.0, 1.5)]
    + [(1, 5.0, Geometry.FULL_LINE), (30, None, Geometry.FULL_LINE)],
    ids=lambda x: x.name.lower() if isinstance(x, Geometry) else str(x),
)
def test_windows_hand_off_by_grid_index(monkeypatch, k, alpha, geometry):
    # the decay window is two grid indices of the ladder's first level (or
    # None, uncut), and each later level polishes the rows np.searchsorted
    # finds on the materialized points at the recorded points of those
    # indices: its own grid indices g_lo * ratio and g_hi * ratio.  alpha
    # None is three fixed-grid evaluations along alpha at k
    levels = _windowed_levels(monkeypatch)
    if alpha is None:
        lower, upper = truncation_interval(MontgomeryPotential(k, 0.0), geometry, 2.0)
        for a in (0.0, 1e-3, 2e-3):
            _fixed_grid_lambda1(MontgomeryPotential(k, a), lower, upper, 1.59)
    else:
        try:
            solve(OperatorSpec(k, alpha, geometry), count=2, tol=1e-6)
        except SolverFailure:  # k = 1 at alpha = 5 is near-degenerate
            pass
    assert levels
    for (lower, upper, n_recorded), first, n, window, polished in levels:
        assert len(window) == 2 and all(g is None or type(g) is int for g in window)
        recorded = GridSpec(lower, upper, n_recorded)
        level = GridSpec(lower, upper, first + n - 1)
        points = eigensolver._grid_points(lower, level.spacing, first, first + n)
        lo, hi = window_rows(points, window, recorded)
        assert polished == ((lo, hi) if hi - lo >= 2 else (0, n))


@pytest.mark.parametrize("k", [2, 30, 200])
@pytest.mark.parametrize("geometry", [Geometry.FULL_LINE, D], ids=["full", "dirichlet"])
def test_starts_interpolate_in_grid_index_units(geometry, k):
    # at ratio 1 a start is the recorded vector itself, bit for bit; on a
    # finer level, and on a window of one, it is float interpolation on the
    # materialized points to that interpolation's rounding: the points
    # carry about eps |t| each, which moves its fraction by eps |t| / h and
    # its value by that times a recorded step |v[i + 1] - v[i]| (measured:
    # at most 0.77 of eps (max |v| + max |t| max |step| / h), and up to
    # 6.9 eps max |v| at k = 30)
    potential = MontgomeryPotential(k, 0.5)
    lower, upper = truncation_interval(potential, geometry, 0.0)
    system = assemble_hamiltonian(potential, GridSpec(lower, upper, 2048))
    shapes = StartShapes()
    refined_lowest_eigenvalues(system, 2, shapes=shapes)
    recorded_points = system_points(system, lower)
    reach = max(abs(lower), abs(upper)) / system.spacing
    for j, vector in enumerate(shapes.vectors):
        assert shapes.start(system, j, 1).tobytes() == vector.tobytes()
    for ratio in (2, 4):
        fine = assemble_hamiltonian(potential, GridSpec(lower, upper, 2049 * ratio - 1))
        rows = len(fine.diag)
        for view in (fine, fine.rows(rows // 3, rows - rows // 5)):
            for j, vector in enumerate(shapes.vectors):
                start = shapes.start(view, j, ratio)
                expected = np.interp(system_points(view, lower), recorded_points, vector)
                bar = 2.0 * np.finfo(float).eps * (
                    np.max(np.abs(vector)) + reach * np.max(np.abs(np.diff(vector))))
                assert np.max(np.abs(start - expected)) <= bar


@pytest.mark.parametrize("lower", [-3.0, 0.0], ids=["full-line", "half-line"])
def test_core_rayleigh_quotient_is_the_whole_levels(lower):
    # a window's Dirichlet cuts drop nothing from v.T H v of a vector that
    # is zero outside it; on the half line the window keeps row 0, where
    # the ground state is O(h), far above DECAY_FLOOR
    grid = GridSpec(lower, 3.0, 4095)
    system = assemble_hamiltonian(MontgomeryPotential(200, 0.3), grid)
    n = len(system.diag)
    shapes = StartShapes()
    refined_lowest_eigenvalues(system, 2, shapes=shapes)
    lo, hi = window_rows(system_points(system, lower), shapes.window, grid)
    assert hi < n and (lo == 0) == (lower == 0.0)
    window = system.rows(lo, hi)
    v = np.random.default_rng(0).standard_normal(hi - lo)
    v /= np.linalg.norm(v)
    embedded = np.zeros(n)
    embedded[lo:hi] = v
    assert window.rayleigh_quotient(v) == pytest.approx(system.rayleigh_quotient(embedded),
                                                        rel=1e-13)


def test_seed_count_must_match():
    system = assemble_hamiltonian(MontgomeryPotential(2, 0.0), GridSpec(-6.0, 6.0, 2047))
    with pytest.raises(ValueError, match="need 2 seeds, got 1"):
        refined_lowest_eigenvalues(system, 2, seeds=np.array([0.66]))
    with pytest.raises(ValueError, match="need 1 seeds, got 2"):
        solve_on_interval(MontgomeryPotential(2, 0.0), -6.0, 6.0, count=1,
                          seeds=np.array([0.66, 2.5]))


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
    coarse, _ = refined_lowest_eigenvalues(assemble_hamiltonian(pot, GridSpec(-6.0, 6.0, 2048)), 2)
    fine, _ = refined_lowest_eigenvalues(assemble_hamiltonian(pot, GridSpec(-6.0, 6.0, 4097)), 1)
    expected = fine[0] + (fine[0] - coarse[0]) / 3.0
    value = {"coarse-lambda1": coarse[0], "far-below": 0.0, "coarse-lambda2": coarse[1]}[seed]
    assert _fixed_grid_lambda1(pot, -6.0, 6.0, value) == pytest.approx(expected, rel=0.0, abs=1e-13)


@pytest.mark.parametrize("k", [2, 30])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
def test_fixed_grid_lambda1_is_a_pure_function(k, alpha):
    # the same bits at (k, alpha) whether it runs alone or right after a
    # call at another alpha: nothing is carried from one call to the next
    lower, upper = truncation_interval(MontgomeryPotential(k, 3.0), Geometry.FULL_LINE,
                                       9.0 + math.pi**2 / 4.0)
    seed = solve(OperatorSpec(k, 0.0), count=1, tol=1e-7).lambda1
    alone = _fixed_grid_lambda1(MontgomeryPotential(k, alpha), lower, upper, seed)
    for before in (0.0, 0.3, alpha + 1e-3, alpha - 1e-4, 1.5, -0.7):
        _fixed_grid_lambda1(MontgomeryPotential(k, before), lower, upper, seed)
        assert _fixed_grid_lambda1(MontgomeryPotential(k, alpha), lower, upper, seed) == alone


def _recorded_ladder(monkeypatch):
    """Record (n, eigenvalues, step) of every ladder level."""
    records = []
    plain = eigensolver._ladder

    def recorded(*args):
        for record in plain(*args):
            records.append(record[:3])
            yield record

    monkeypatch.setattr(eigensolver, "_ladder", recorded)
    return records


def test_consumers_read_the_ladders_step(monkeypatch):
    # the ladder computes each level's step once; a fixed-grid evaluation and
    # solve_on_interval extrapolate from the record they stop at, bit for bit
    records = _recorded_ladder(monkeypatch)
    value = _fixed_grid_lambda1(MontgomeryPotential(2, 0.5), -6.0, 6.0, 0.84)
    (_, coarse, first_step), (_, fine, step) = records
    assert first_step is None and np.array_equal(step, fine - coarse)
    assert value == float(fine[0] + step[0] / 3.0)
    records.clear()
    tol = 1e-6
    res = solve(OperatorSpec(2, 0.0), count=2, tol=tol)
    assert len(records) == res.iterations >= 3
    for (_, below, _), (_, lam, step) in zip(records, records[1:]):
        assert np.array_equal(step, lam - below)
    assert all(np.max(np.abs(step)) >= 0.5 * tol for _, _, step in records[1:-1])
    n, lam, step = records[-1]
    assert res.grid_used.n == n
    assert res.eigenvalues == tuple(float(x) for x in lam + step / 3.0)
    assert res.achieved_tol_estimate == float(np.max(np.abs(step) + np.abs(step / 3.0)))


def test_fixed_grid_lapack_failure_is_solver_failure(monkeypatch):
    # a seed at the coarse lambda2 fails the ceiling count, so the coarse
    # level falls back to bisection, the only caller of stebz there
    pot = MontgomeryPotential(2, 0.5)
    coarse, _ = refined_lowest_eigenvalues(assemble_hamiltonian(pot, GridSpec(-6.0, 6.0, 2048)), 2)
    monkeypatch.setattr(tridiag, "dstebz", _stebz_fails)
    with pytest.raises(SolverFailure, match=r"stebz.*info=1"):
        _fixed_grid_lambda1(pot, -6.0, 6.0, coarse[1])


def _count_stebz_calls(monkeypatch):
    """Record the size of every tridiag.dstebz call."""
    sizes = []
    stebz = tridiag.dstebz

    def counted(diag, *args):
        sizes.append(len(diag))
        return stebz(diag, *args)

    monkeypatch.setattr(tridiag, "dstebz", counted)
    return sizes


def test_seeded_solve_reaches_stebz_once(monkeypatch):
    # Sturm counts are pivot sweeps, so stebz runs only to bisect: once
    # per solve, in the pre-solve's lowest_eigenvalues
    bisections = _count_bisections(monkeypatch)
    stebz_calls = _count_stebz_calls(monkeypatch)
    solve(OperatorSpec(2, 0.0), tol=1e-6)
    assert bisections == stebz_calls == [eigensolver._N_PRESOLVE]


def test_well_seeded_fixed_grid_never_reaches_stebz(monkeypatch):
    pot = MontgomeryPotential(2, 0.5)
    coarse, _ = refined_lowest_eigenvalues(assemble_hamiltonian(pot, GridSpec(-6.0, 6.0, 2048)), 1)
    stebz_calls = _count_stebz_calls(monkeypatch)
    _fixed_grid_lambda1(pot, -6.0, 6.0, coarse[0])
    assert stebz_calls == []


def test_theta0_xi_zero_slice():
    # at xi = 0 the de Gennes well's even extension is t^2, whose ground
    # state (the Neumann half line's) is 1
    res = solve(EvenShiftedHarmonicPotential(0.0), count=1, tol=1e-9)
    assert res.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)


def test_theta0_validation():
    with pytest.raises(ValueError):
        de_gennes_theta0(1e-10)


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
