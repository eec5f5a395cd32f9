"""Sturm counting, bisection, and inverse iteration primitives.

The plain-Python Sturm counter and bisection solver below are the
LAPACK-independent reference the windowed extraction is checked against.
"""

import numpy as np
import pytest

from montspec.eigensolver import (
    BoundaryCondition,
    GridSpec,
    assemble_hamiltonian,
    refined_lowest_eigenvalues,
)
from montspec.errors import SolverFailure
from montspec.operators import MontgomeryPotential
from montspec.tridiag import (
    _gershgorin_interval,
    inverse_iteration,
    are_lowest_eigenvalues,
    lowest_eigenvalues,
    seed_ceiling,
    separation_margin,
    shifted_solve,
)

_PIVOT_FLOOR = 1e-300


def sturm_count_below(diag, offdiag, x: float) -> int:
    """Number of eigenvalues of the tridiagonal matrix strictly below x.

    Counts negative pivots of the LDL^T factorization of (A - x I).
    Independent of LAPACK; O(n) per call in pure Python.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    count = 0
    d = diag[0] - x
    if d == 0.0:
        d = -_PIVOT_FLOOR
    if d < 0.0:
        count += 1
    for i in range(1, len(diag)):
        d = (diag[i] - x) - offdiag[i - 1] ** 2 / d
        if d == 0.0:
            d = -_PIVOT_FLOOR
        if d < 0.0:
            count += 1
    return count


def sturm_bisect_eigenvalues(diag, offdiag, count: int, rel_width: float = 1e-13):
    """Smallest `count` eigenvalues by explicit Sturm bisection.

    Each eigenvalue is bracketed to relative width `rel_width` starting
    from the Gershgorin enclosure.  Slow, independent of LAPACK.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    n = len(diag)
    if count < 1 or count > n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    lo, hi = _gershgorin_interval(diag, offdiag)
    eigs = []
    for j in range(1, count + 1):
        a, b = lo, hi
        while (b - a) > rel_width * max(1.0, abs(a), abs(b)):
            mid = 0.5 * (a + b)
            if sturm_count_below(diag, offdiag, mid) >= j:
                b = mid
            else:
                a = mid
        eigs.append(0.5 * (a + b))
    return np.array(eigs)


def _random_tridiag(rng, n):
    diag = rng.uniform(-2.0, 6.0, size=n)
    offdiag = rng.uniform(-1.5, 1.5, size=n - 1)
    return diag, offdiag


def test_sturm_count_on_diagonal_matrix():
    diag = np.array([1.0, 2.0, 3.0])
    off = np.zeros(2)
    assert sturm_count_below(diag, off, 0.5) == 0
    assert sturm_count_below(diag, off, 1.5) == 1
    assert sturm_count_below(diag, off, 10.0) == 3


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sturm_count_matches_dense_spectrum(seed):
    rng = np.random.default_rng(seed)
    diag, offdiag = _random_tridiag(rng, 30)
    full = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
    eigs = np.linalg.eigvalsh(full)
    for x in rng.uniform(-3.0, 7.0, size=10):
        assert sturm_count_below(diag, offdiag, x) == int(np.sum(eigs < x))


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_bisection_reference_matches_lapack(seed):
    rng = np.random.default_rng(seed)
    diag, offdiag = _random_tridiag(rng, 40)
    ours = sturm_bisect_eigenvalues(diag, offdiag, 4)
    lapack = lowest_eigenvalues(diag, offdiag, 4)
    assert ours == pytest.approx(lapack, rel=1e-11, abs=1e-11)


def test_lowest_eigenvalues_examples():
    assert lowest_eigenvalues([1.0, 2.0, 3.0], [0.0, 0.0], 2) == pytest.approx([1.0, 2.0])
    # [[2, -1], [-1, 2]] has eigenvalues 1 and 3
    assert lowest_eigenvalues([2.0, 2.0], [-1.0], 2) == pytest.approx([1.0, 3.0])


def test_lowest_eigenvalues_count_validation():
    with pytest.raises(ValueError):
        lowest_eigenvalues([1.0, 2.0], [0.1], 3)
    with pytest.raises(ValueError):
        lowest_eigenvalues([1.0, 2.0], [0.1], 0)
    with pytest.raises(ValueError, match="at least 2 rows"):
        lowest_eigenvalues([1.0], [], 1)


def _saturated_system():
    # k = 200 on [-3, 3]: barrier samples saturate near 1e189, so the
    # Gershgorin top is astronomically far above the wanted eigenvalues
    return assemble_hamiltonian(MontgomeryPotential(200, 0.0), GridSpec(-3.0, 3.0, 255))


def test_lowest_eigenvalues_saturated_dirichlet():
    system = _saturated_system()
    assert np.max(system.diag) > 1e180
    ours = lowest_eigenvalues(system.diag, system.offdiag, 2)
    reference = sturm_bisect_eigenvalues(system.diag, system.offdiag, 2)
    assert ours == pytest.approx(reference, rel=1e-11)


def _neumann_floor_system():
    # the symmetrized Neumann row puts the Gershgorin floor near -0.4/h^2
    return assemble_hamiltonian(
        MontgomeryPotential(2, 0.0),
        GridSpec(0.0, 3.0, 255),
        BoundaryCondition.NEUMANN,
    )


def test_lowest_eigenvalues_neumann_floor():
    system = _neumann_floor_system()
    radius = np.abs(np.concatenate(([0.0], system.offdiag))) + np.abs(
        np.concatenate((system.offdiag, [0.0]))
    )
    floor = float(np.min(system.diag - radius))
    assert floor < -0.4 / system.spacing**2
    ours = lowest_eigenvalues(system.diag, system.offdiag, 3)
    reference = sturm_bisect_eigenvalues(system.diag, system.offdiag, 3)
    assert ours == pytest.approx(reference, rel=1e-11)


def test_lowest_eigenvalues_spectrum_below_one():
    rng = np.random.default_rng(7)
    diag = rng.uniform(-5.0, -1.0, size=40)
    offdiag = rng.uniform(-0.4, 0.4, size=39)
    full = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
    assert np.max(np.linalg.eigvalsh(full)) < 1.0
    ours = lowest_eigenvalues(diag, offdiag, 3)
    reference = sturm_bisect_eigenvalues(diag, offdiag, 3)
    assert ours == pytest.approx(reference, rel=1e-11)
    assert ours == pytest.approx(np.linalg.eigvalsh(full)[:3], rel=1e-12)


def test_lowest_eigenvalues_eigenvalue_on_gershgorin_floor():
    # decoupled rows: the lowest eigenvalue sits exactly on the floor
    assert lowest_eigenvalues([0.0, 3.0, 5.0], [0.0, 0.0], 2) == pytest.approx([0.0, 3.0])


@pytest.mark.parametrize("build", [_saturated_system, _neumann_floor_system])
def test_refined_eigenvalues_match_tight_bracket_polish(build):
    system = build()
    tight = lowest_eigenvalues(system.diag, system.offdiag, 3)
    refined, _ = refined_lowest_eigenvalues(system, 3)
    for j, lam in enumerate(tight):
        v = inverse_iteration(system.diag, system.offdiag, float(lam))
        assert refined[j] == pytest.approx(system.rayleigh_quotient(v), rel=0.0, abs=1e-13)


def test_inverse_iteration_saturated_rayleigh_quotient():
    system = _saturated_system()
    lam = lowest_eigenvalues(system.diag, system.offdiag, 1)
    v = inverse_iteration(system.diag, system.offdiag, float(lam[0]))
    reference = sturm_bisect_eigenvalues(system.diag, system.offdiag, 1)
    assert system.rayleigh_quotient(v) == pytest.approx(reference[0], abs=1e-12)


def test_inverse_iteration_rough_estimate():
    # an estimate 1e-6 off, far above the residual floor at this spacing,
    # still converges to the eigenvector of the nearest eigenvalue
    system = assemble_hamiltonian(MontgomeryPotential(2, 0.0), GridSpec(-6.0, 6.0, 32767))
    lam = float(lowest_eigenvalues(system.diag, system.offdiag, 1)[0])
    exact = inverse_iteration(system.diag, system.offdiag, lam)
    for estimate in (lam + 1e-6, lam - 1e-6):
        v = inverse_iteration(system.diag, system.offdiag, estimate)
        assert np.linalg.norm(v - exact) < 1e-8
        assert system.rayleigh_quotient(v) == pytest.approx(
            system.rayleigh_quotient(exact), rel=0.0, abs=1e-13
        )


def test_seed_ceiling_and_lowest_check():
    system = _saturated_system()
    lam = lowest_eigenvalues(system.diag, system.offdiag, 4)
    for count in (1, 2, 3):
        ceiling = seed_ceiling(system.diag, system.offdiag, lam[:count])
        assert lam[count - 1] < ceiling < lam[count]
        assert are_lowest_eigenvalues(system.offdiag, lam[:count], ceiling)
    # a prediction short by far more than the separation margin (the
    # first seeded ladder level) raises the ceiling until it holds lam[1]
    short = lam[:2] - 1e3 * separation_margin(system.offdiag)
    assert lam[1] < seed_ceiling(system.diag, system.offdiag, short) < lam[2]
    for wrong in ([lam[1]], [lam[1], lam[2]], [lam[0], lam[2]], [lam[1], lam[0]],
                  [lam[0], lam[0]]):
        assert seed_ceiling(system.diag, system.offdiag, wrong) is None
    # the check rejects polished values that are not distinct eigenvalues
    # under the ceiling: a repeated value, or one that escaped above it
    ceiling = seed_ceiling(system.diag, system.offdiag, lam[:2])
    assert not are_lowest_eigenvalues(system.offdiag, [lam[0], lam[0]], ceiling)
    assert not are_lowest_eigenvalues(system.offdiag, [lam[0], lam[2]], ceiling)
    assert not are_lowest_eigenvalues(system.offdiag, [lam[1], lam[0]], ceiling)


def test_seed_ceiling_near_degenerate_is_none():
    # predictions closer than the separation margin are never confirmed
    system = assemble_hamiltonian(MontgomeryPotential(1, 5.0), GridSpec(-8.0, 8.0, 4095))
    lam = lowest_eigenvalues(system.diag, system.offdiag, 2)
    assert seed_ceiling(system.diag, system.offdiag, lam) is None


def test_inverse_iteration_rejects_two_by_two():
    # scipy's gttrf wrapper, which factors the shifted matrix, needs n >= 3
    with pytest.raises(ValueError, match="at least 3 rows"):
        inverse_iteration(np.array([2.0, 2.0]), np.array([-1.0]), 1.0)


def test_inverse_iteration_singular_shift_raises():
    # the shifted diagonal entry is exactly zero, so the factor is singular
    shifted = 1.0 + 1e-12
    with pytest.raises(SolverFailure, match="singular matrix"):
        inverse_iteration(np.array([shifted, 5.0, 9.0]), np.zeros(2), 1.0)
    with pytest.raises(SolverFailure, match="singular matrix"):
        shifted_solve(np.array([shifted, 5.0, 9.0]), np.zeros(2), shifted, np.ones(3))


@pytest.mark.parametrize(
    "diag, offdiag, norm",
    [
        ([np.inf, np.inf, np.inf], [0.0, 0.0], "0.0"),  # the sweep underflows to 0
        ([1.0, 5.0, 9.0], [0.0, np.nan], "nan"),
    ],
)
def test_inverse_iteration_degenerate_sweep_fails_fast(diag, offdiag, norm):
    # a sweep that cannot be normalized fails on the first sweep, before
    # any NaN reaches the residual or the remaining sweeps
    with pytest.raises(SolverFailure, match=f"sweep has norm {norm}"):
        inverse_iteration(np.array(diag), np.array(offdiag), 1.0)


def test_inverse_iteration_diagonal():
    v = inverse_iteration(np.array([1.0, 5.0, 9.0]), np.zeros(2), 1.0)
    assert v == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)


def test_inverse_iteration_interior_eigenvalue():
    rng = np.random.default_rng(42)
    diag, offdiag = _random_tridiag(rng, 50)
    lam = lowest_eigenvalues(diag, offdiag, 3)
    v = inverse_iteration(diag, offdiag, float(lam[2]))
    full = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
    assert np.linalg.norm(full @ v - lam[2] * v) < 1e-9
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(v) > 0.0


def test_shifted_solve_residual():
    rng = np.random.default_rng(5)
    diag, offdiag = _random_tridiag(rng, 25)
    rhs = rng.normal(size=25)
    x = shifted_solve(diag, offdiag, 0.37, rhs)
    full = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1) - 0.37 * np.eye(25)
    assert np.linalg.norm(full @ x - rhs) < 1e-10 * max(1.0, np.linalg.norm(x))
    assert x == pytest.approx(np.linalg.solve(full, rhs), rel=0.0, abs=1e-12)


def test_lowest_eigenvalues_lapack_failure_is_solver_failure():
    # stebz does not converge on a NaN entry; that is a solver failure, not
    # the ValueError (LinAlgError's base) that bad arguments raise
    diag = np.array([1.0, np.nan, 3.0, 4.0])
    with pytest.raises(SolverFailure, match="stebz") as info:
        lowest_eigenvalues(diag, -np.ones(3), 1)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
