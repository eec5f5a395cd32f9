"""Eigensolver: discretization, boundary handling, adaptive driver, the
Neumann half line of the de Gennes model, and the step-well gluing
equation."""

import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from derivations import barrier_core
from montspec import eigensolver, tridiag
from montspec.bounds import de_gennes_theta0
from montspec.errors import SolverFailure
from montspec.eigensolver import (
    TRUNCATION_PAD,
    GridSpec,
    StartShapes,
    _fixed_grid_chain,
    assemble_hamiltonian,
    dirichlet_well_lambda,
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
N = Geometry.HALF_LINE_NEUMANN


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
                geometry=N)
    assert res.eigenvalues == pytest.approx([1.0, 5.0], abs=1e-8)


def test_dirichlet_half_line_is_odd_modes():
    res = solve(ShiftedHarmonicPotential(0.0), count=2, tol=1e-8,
                geometry=D)
    assert res.eigenvalues == pytest.approx([3.0, 7.0], abs=1e-8)


@pytest.mark.parametrize("k", [2, 4])
def test_half_line_spec_splits_full_line_by_parity(k):
    # for even k, t -> -t maps Q(k, 0) to itself: the even modes make the
    # Neumann half-line spectrum and the odd modes the Dirichlet one
    full = solve(OperatorSpec(k, 0.0), count=2, tol=1e-8)
    neumann = solve(OperatorSpec(k, 0.0, N), count=1, tol=1e-8)
    dirichlet = solve(OperatorSpec(k, 0.0, D), count=1, tol=1e-8)
    assert neumann.lambda1 == pytest.approx(full.lambda1, rel=0.0, abs=1e-10)
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
    for half_line in (D, N):
        lower, upper = truncation_interval(pot, half_line, 7.0)
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
    with pytest.raises(ValueError, match="Geometry member"):
        assemble_hamiltonian(MontgomeryPotential(2, 0.0), GridSpec(-6.0, 6.0, 255), "full_line")


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
    assert sizes == [eigensolver._N_START]
    pre_solve = truncation_interval(OperatorSpec(k, alpha).potential(), Geometry.FULL_LINE, 0.0)
    assert ((res.grid_used.lower, res.grid_used.upper) != pre_solve) == retruncated


def test_seeded_level_certified_after_polish_bisects_once(monkeypatch):
    # the level check counts eigenvalues just above the polished values, so
    # a prediction short by a whole level's O(h^2) change cannot put the
    # count within half a margin of lambda2 and force a re-bisection
    sizes = _count_bisections(monkeypatch)
    solve(OperatorSpec(2, 0.26), count=2, tol=1e-6)
    assert sizes == [eigensolver._N_START]


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


@pytest.mark.parametrize("geometry", [Geometry.FULL_LINE, D, N], ids=["full", "dirichlet", "neumann"])
@pytest.mark.parametrize("k", [1, 2, 30])
def test_refined_levels_carry_potential_samples(monkeypatch, geometry, k):
    # a level with 2n + 1 interior points reuses the samples of the level
    # below at every other point, so V is evaluated at the n + 1 new points
    # only, and every level's samples are V's own, bit for bit
    potential = _CountedPotential(MontgomeryPotential(k, 0.3))
    levels = []
    assemble = eigensolver.assemble_hamiltonian

    def recorded(*args, **kwargs):
        before = len(potential.sizes)
        system = assemble(*args, **kwargs)
        levels.append((system, potential.sizes[before:]))
        return system

    monkeypatch.setattr(eigensolver, "assemble_hamiltonian", recorded)
    res = solve(potential, count=2, tol=1e-6, geometry=geometry)
    ladder = levels[1:]  # levels[0] is the pre-solve
    assert len(ladder) == res.iterations >= 3
    assert ladder[0][1] == [len(ladder[0][0].points)]
    for (coarse, _), (_, sizes) in zip(ladder, ladder[1:]):
        n = len(coarse.points) - int(geometry is N)  # its grid's interior points
        assert sizes == [n + 1]
    for system, _ in levels:
        expected = potential.inner.value(system.points)
        assert system.potential_values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n, fine_points", [(4095, 2048), (4096, 4096)])
def test_fixed_grid_fine_level_carries_samples(monkeypatch, n, fine_points):
    # only an odd n puts the coarse level's points on every other fine point
    potential = _CountedPotential(MontgomeryPotential(2, 0.3))
    grid = GridSpec(-5.0, 5.0, n)
    lam = _fixed_grid_chain(grid)(potential, 0.84)
    assert potential.sizes == [(n - 1) // 2, fine_points]
    plain = eigensolver.assemble_hamiltonian
    monkeypatch.setattr(eigensolver, "assemble_hamiltonian",
                        lambda potential, grid, geometry=Geometry.FULL_LINE, coarse_values=None:
                        plain(potential, grid, geometry))
    assert _fixed_grid_chain(grid)(potential.inner, 0.84) == lam


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
        vectors.append(weakref.ref(v))
        return lam, v

    monkeypatch.setattr(eigensolver, "assemble_hamiltonian", recorded_assemble)
    monkeypatch.setattr(eigensolver, "refined_lowest_eigenvalues", recorded_level)
    return alive


def test_ladder_levels_do_not_outlive_their_successor(monkeypatch):
    # a level's matrix and vector are dead once the next, larger level is
    # solved; only the pre-solve's system (index 0) lives, held by solve
    alive = _record_liveness(monkeypatch)
    res = solve(OperatorSpec(2, 0.3), count=2, tol=1e-8)
    assert res.iterations == len(alive) == 8
    assert alive == [([0], [])] * 8
    alive.clear()
    # a fixed-grid chain's coarse matrix is dead while its fine level is
    # solved; the coarse vector (4095 rows) may live
    _fixed_grid_chain(GridSpec(-5.0, 5.0, 8191))(MontgomeryPotential(2, 0.3), 0.84)
    assert [systems for systems, _ in alive] == [[], []]


def test_coarse_values_must_fit_the_grid():
    potential = MontgomeryPotential(2, 0.3)
    coarse = assemble_hamiltonian(potential, GridSpec(-5.0, 5.0, 255))
    for grid in (GridSpec(-5.0, 5.0, 512), GridSpec(-5.0, 5.0, 513)):
        with pytest.raises(ValueError, match="255 coarse values do not fit"):
            assemble_hamiltonian(potential, grid, coarse_values=coarse.potential_values)
    # a Neumann grid of n = 511 keeps 256 coarse points, its boundary point among them
    with pytest.raises(ValueError, match="255 coarse values do not fit a grid of n = 511"):
        assemble_hamiltonian(potential, GridSpec(-5.0, 5.0, 511), N,
                             coarse_values=coarse.potential_values)


@pytest.mark.parametrize("spec", [OperatorSpec(2, 0.0), OperatorSpec(2, 0.4, N)],
                         ids=["full-line", "neumann"])
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
    res = solve(spec, count=2, tol=1e-8)
    assert res.iterations == len(level_sweeps) >= 5
    assert level_sweeps[0] > 2 * 2  # flat starts and their polish
    assert level_sweeps[1:] == [2] * (res.iterations - 1)


def test_failed_first_level_check_bisects(monkeypatch):
    # k = 2, alpha = 0 keeps the pre-solve's interval, so the first level's
    # bisection repeats the pre-solve's and the result is unchanged
    expected = solve(OperatorSpec(2, 0.0), count=2, tol=1e-6)
    sizes = _count_bisections(monkeypatch)
    probes = []

    def fails_first(diag, offdiag, values):
        probes.append(len(diag))
        return len(probes) > 1 and are_lowest_eigenvalues(diag, offdiag, values)

    monkeypatch.setattr(tridiag, "are_lowest_eigenvalues", fails_first)
    res = solve(OperatorSpec(2, 0.0), count=2, tol=1e-6)
    assert probes[0] == eigensolver._N_START
    assert sizes == [eigensolver._N_START, eigensolver._N_START]
    assert res.eigenvalues == expected.eigenvalues
    assert np.array_equal(res.ground_state_values, expected.ground_state_values)


def _inverse_iteration_rows(monkeypatch):
    """Record the rows of every tridiag.inverse_iteration call."""
    rows = []
    plain = tridiag.inverse_iteration

    def counted(diag, offdiag, eigenvalue, start=None):
        rows.append(len(diag))
        return plain(diag, offdiag, eigenvalue, start)

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
    monkeypatch.setattr(eigensolver, "_decay_window",
                        lambda system, vectors: (-math.inf, math.inf))


def _recorded_windows(monkeypatch):
    """Record every decay window the ladders compute."""
    windows = []
    plain = eigensolver._decay_window

    def recorded(system, vectors):
        windows.append(plain(system, vectors))
        return windows[-1]

    monkeypatch.setattr(eigensolver, "_decay_window", recorded)
    return windows


def _window_rows(points, window):
    t_lo, t_hi = window
    return int(np.searchsorted(points, t_lo, "left")), int(np.searchsorted(points, t_hi, "right"))


@pytest.mark.parametrize(
    "problem, geometry, count",
    [
        (OperatorSpec(2, 0.0), None, 2),
        (ShiftedHarmonicPotential(0.8), N, 1),
    ],
    ids=["k2-alpha0", "theta0"],
)
def test_shallow_wells_keep_the_whole_level(monkeypatch, problem, geometry, count):
    # the eigenvectors of k = 2 at alpha = 0 and of the de Gennes wells stay
    # above DECAY_FLOOR across the truncated interval: every level is
    # polished whole, bit for bit as with the window switched off
    def solve_it():
        return solve(problem, count=count, tol=1e-8, geometry=geometry)

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
    # the eigenvalues are those of the window switched off, bit for bit
    spec = OperatorSpec(2, 1.5)
    rows = _inverse_iteration_rows(monkeypatch)
    sizes = _level_sizes(monkeypatch)
    windows = _recorded_windows(monkeypatch)
    res = solve(spec, count=2, tol=1e-8)
    assert len(windows) == 1 and len(rows) == 2 * len(sizes)
    assert windows[0][0] > res.grid_used.lower and windows[0][1] == math.inf
    assert rows[:2] == [sizes[0]] * 2  # the recording level is whole
    assert all(r < n for r, n in zip(rows[2:], [m for n in sizes[1:] for m in (n, n)]))
    _window_off(monkeypatch)
    whole = solve(spec, count=2, tol=1e-8)
    assert (whole.grid_used, whole.iterations) == (res.grid_used, res.iterations)
    assert res.eigenvalues == whole.eigenvalues


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
    lo, hi = _window_rows(points, windows[0])
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
    monkeypatch.setattr(eigensolver, "_decay_window", lambda system, vectors: (-0.5, 0.5))
    bisections = _count_bisections(monkeypatch)
    rows = _inverse_iteration_rows(monkeypatch)
    sizes = _level_sizes(monkeypatch)
    res = solve(spec, count=2, tol=1e-6)
    lower, upper = res.grid_used.lower, res.grid_used.upper
    inner = [np.count_nonzero(np.abs(GridSpec(lower, upper, n).interior_points()) <= 0.5)
             for n in sizes[1:]]
    assert rows == [sizes[0]] * 2 + [r for n, m in zip(sizes[1:], inner) for r in (m, n, n)]
    assert bisections == [eigensolver._N_START] + sizes[1:]
    assert (res.grid_used, res.iterations) == (whole.grid_used, whole.iterations)
    assert res.eigenvalues == pytest.approx(whole.eigenvalues, rel=0.0, abs=1e-14)
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


def test_neumann_half_line_is_never_cut_at_zero(monkeypatch):
    # the window cuts the far Dirichlet end only; the Neumann row stays
    spec = OperatorSpec(30, 0.0, N)
    windows = _recorded_windows(monkeypatch)
    sizes = _level_sizes(monkeypatch)
    cuts = []
    plain = eigensolver.AssembledSystem.rows

    def recorded(system, lo, hi):
        cuts.append((lo, hi, len(system.diag)))
        return plain(system, lo, hi)

    monkeypatch.setattr(eigensolver.AssembledSystem, "rows", recorded)
    res = solve(spec, count=3, tol=1e-6)
    assert windows[0][0] == -math.inf and windows[0][1] < res.grid_used.upper
    # the recording level is whole; every later level is cut once
    assert len(sizes) == res.iterations and [n for _, _, n in cuts] == sizes[1:]
    assert all(lo == 0 and hi < n for lo, hi, n in cuts)
    _window_off(monkeypatch)
    whole = solve(spec, count=3, tol=1e-6)
    assert res.eigenvalues == pytest.approx(whole.eigenvalues, rel=0.0, abs=5e-14)


@pytest.mark.parametrize("geometry", [Geometry.FULL_LINE, N], ids=["full-line", "neumann"])
def test_core_rayleigh_quotient_is_the_whole_levels(geometry):
    # a window's Dirichlet cuts drop nothing from v.T H v of a vector that
    # is zero outside it; a Neumann row 0 stays Neumann in the window
    lower = -3.0 if geometry is Geometry.FULL_LINE else 0.0
    system = assemble_hamiltonian(MontgomeryPotential(200, 0.3), GridSpec(lower, 3.0, 4095),
                                  geometry)
    n = len(system.diag)
    shapes = StartShapes()
    refined_lowest_eigenvalues(system, 2, shapes=shapes)
    lo, hi = _window_rows(system.points, shapes.window)
    assert hi < n and (lo == 0) == (geometry is N)
    window = system.rows(lo, hi)
    assert window.neumann_lower == (geometry is N)
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
    grid = GridSpec(-6.0, 6.0, 8191)
    coarse, _ = refined_lowest_eigenvalues(assemble_hamiltonian(pot, GridSpec(-6.0, 6.0, 4095)), 2)
    fine, _ = refined_lowest_eigenvalues(assemble_hamiltonian(pot, grid), 1)
    expected = fine[0] + (fine[0] - coarse[0]) / 3.0
    value = {"coarse-lambda1": coarse[0], "far-below": 0.0, "coarse-lambda2": coarse[1]}[seed]
    assert _fixed_grid_chain(grid)(pot, value) == pytest.approx(expected, rel=0.0, abs=1e-13)


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
    # the ladder computes each level's step once; a fixed-grid chain and
    # solve_on_interval extrapolate from the record they stop at, bit for bit
    records = _recorded_ladder(monkeypatch)
    value = _fixed_grid_chain(GridSpec(-6.0, 6.0, 8191))(MontgomeryPotential(2, 0.5), 0.84)
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
    coarse, _ = refined_lowest_eigenvalues(assemble_hamiltonian(pot, GridSpec(-6.0, 6.0, 4095)), 2)
    monkeypatch.setattr(tridiag, "dstebz", _stebz_fails)
    with pytest.raises(SolverFailure, match=r"stebz.*info=1"):
        _fixed_grid_chain(GridSpec(-6.0, 6.0, 8191))(pot, coarse[1])


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
    assert bisections == stebz_calls == [eigensolver._N_START]


def test_well_seeded_fixed_grid_never_reaches_stebz(monkeypatch):
    pot = MontgomeryPotential(2, 0.5)
    coarse, _ = refined_lowest_eigenvalues(assemble_hamiltonian(pot, GridSpec(-6.0, 6.0, 4095)), 1)
    stebz_calls = _count_stebz_calls(monkeypatch)
    _fixed_grid_chain(GridSpec(-6.0, 6.0, 8191))(pot, coarse[0])
    assert stebz_calls == []


def test_theta0_xi_zero_slice():
    res = solve(ShiftedHarmonicPotential(0.0), count=1, tol=1e-9,
                geometry=N)
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

    res = solve_on_interval(SimpleNamespace(value=step), 0.0, 3.0 * T, count=1, tol=1e-7,
                            geometry=D)
    assert res.eigenvalues[0] == pytest.approx(dirichlet_well_lambda(T, k), abs=1e-6)
