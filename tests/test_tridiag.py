"""Sturm counting, bisection, and inverse iteration primitives.

The plain-Python Sturm counter and bisection solver below are the
LAPACK-independent reference the pivot-sweep counts and the windowed
extraction are checked against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgttrf, dgttrs

from derivations import barrier_core, system_points, window_rows
from montspec import eigensolver
from montspec.eigensolver import (
    DECAY_FLOOR,
    GridSpec,
    StartShapes,
    assemble_hamiltonian,
    refined_lowest_eigenvalues,
    truncation_interval,
)
from montspec.errors import SolverFailure
from montspec.operators import Geometry, MontgomeryPotential
from montspec.tridiag import (
    _EPS,
    _count_below,
    _rayleigh_residual,
    _residual_floor,
    inverse_iteration,
    are_lowest_eigenvalues,
    lowest_eigenvalues,
    separation_margin,
    shifted_solve,
)

_PIVOT_FLOOR = 1e-300


def sturm_count_below(diag, offdiag, x: float) -> int:
    """Number of eigenvalues of the tridiagonal matrix at or below x.

    Counts negative pivots of the LDL^T factorization of (A - x I); a
    pivot within _PIVOT_FLOOR of zero counts as -_PIVOT_FLOOR, which
    keeps the next one finite.  Independent of LAPACK; O(n) per call in
    pure Python.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    count = 0
    d = diag[0] - x
    if abs(d) < _PIVOT_FLOOR:
        d = -_PIVOT_FLOOR
    if d < 0.0:
        count += 1
    for i in range(1, len(diag)):
        d = (diag[i] - x) - offdiag[i - 1] ** 2 / d
        if abs(d) < _PIVOT_FLOOR:
            d = -_PIVOT_FLOOR
        if d < 0.0:
            count += 1
    return count


def gershgorin_enclosure(diag, offdiag):
    """(lo, hi) enclosing every eigenvalue: the union of the Gershgorin
    discs diag[i] +- (|offdiag[i - 1]| + |offdiag[i]|), in plain Python."""
    n = len(diag)
    radii = [(abs(offdiag[i - 1]) if i > 0 else 0.0) + (abs(offdiag[i]) if i < n - 1 else 0.0)
             for i in range(n)]
    return (min(float(d) - r for d, r in zip(diag, radii)),
            max(float(d) + r for d, r in zip(diag, radii)))


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
    lo, hi = gershgorin_enclosure(diag, offdiag)
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


# Rounded to 6 places: entries near the underflow threshold make the
# reference's e^2 underflow where pttrf's (e/d) e does not.
_ENTRIES = st.integers(-4, 4).map(float) | st.floats(-8.0, 8.0).map(lambda v: round(v, 6))


@st.composite
def _small_tridiag(draw):
    # integer entries make exact zero pivots common; zero off-diagonal
    # entries split the matrix
    n = draw(st.integers(1, 8))
    diag = draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    offdiag = draw(st.lists(_ENTRIES | st.just(0.0), min_size=n - 1, max_size=n - 1))
    return np.array(diag), np.array(offdiag)


@settings(max_examples=400, deadline=None)
@given(matrix=_small_tridiag(), data=st.data())
def test_pivot_count_matches_reference(matrix, data):
    # Two Sturm counts that round differently may differ only at an x
    # within rounding of an eigenvalue (say x = -e for a [[0, e], [e, 0]]
    # block); there each must lie between the counts just outside it
    diag, offdiag = matrix
    x = data.draw(st.sampled_from(list(diag)) | _ENTRIES, label="x")
    ours, reference = _count_below(diag, offdiag, x), sturm_count_below(diag, offdiag, x)
    eigs = np.linalg.eigvalsh(np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1))
    noise = 1e-12 * (1.0 + np.max(np.abs(diag)) + 2.0 * np.max(np.abs(offdiag), initial=0.0))
    if np.min(np.abs(eigs - x)) > noise:
        assert ours == reference == np.sum(eigs < x)
    else:
        assert np.sum(eigs < x - noise) <= min(ours, reference)
        assert max(ours, reference) <= np.sum(eigs <= x + noise)


@pytest.mark.parametrize(
    "diag, offdiag",
    [
        ([1.0, 2.0, 3.0, 2.0], [0.0, 0.0, 0.0]),  # split: every x below is an eigenvalue
        ([2.0, -1.0, 2.0], [1.0, 1.0]),  # 2 is an eigenvalue, eigenvector (1, 0, -1)
        ([0.0, 0.0, 5.0], [3.0, 0.0]),  # a zero first pivot before a 2-row tail
        ([0.0, 0.0, 0.0, 0.0], [2.0, 1.0, 2.0]),  # tiny pivots after huge folds
    ],
)
def test_pivot_count_at_diagonal_entries(diag, offdiag):
    # x equal to a diagonal entry gives exact zero pivots, which both
    # counts take as negative: an eigenvalue at x counts as below it
    diag, offdiag = np.array(diag), np.array(offdiag)
    eigs = np.linalg.eigvalsh(np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1))
    for x in diag:
        expected = np.sum(eigs <= x + 1e-12)
        assert _count_below(diag, offdiag, x) == sturm_count_below(diag, offdiag, x) == expected


@pytest.mark.parametrize("tail", [1, 2, 3])
def test_pivot_count_after_restart(tail):
    # the negative row stops the first pivot sweep `tail` rows from the
    # end; x sweeps past every eigenvalue, so later sweeps stop as well
    diag = np.full(7, 3.0)
    diag[-1 - tail] = -2.0
    offdiag = np.full(6, 1.0)
    for x in np.linspace(-5.0, 7.0, 49):
        assert _count_below(diag, offdiag, x) == sturm_count_below(diag, offdiag, x)
    assert _count_below(diag, offdiag, 0.0) == 1


@pytest.mark.parametrize("geometry", [Geometry.FULL_LINE, Geometry.HALF_LINE_DIRICHLET])
def test_pivot_count_on_ladder_matrices(geometry):
    lower = -6.0 if geometry is Geometry.FULL_LINE else 0.0
    system = assemble_hamiltonian(MontgomeryPotential(2, 0.0), GridSpec(lower, 6.0, 2047))
    lam = lowest_eigenvalues(system.diag, system.offdiag, 6)
    margin = separation_margin(system.offdiag)
    points = [(j, lam[j] - margin) for j in range(6)] + [(j + 1, lam[j] + margin) for j in range(6)]
    points += [(j + 1, 0.5 * (lam[j] + lam[j + 1])) for j in range(5)]
    for below, x in points:
        assert _count_below(system.diag, system.offdiag, x) == below
        assert sturm_count_below(system.diag, system.offdiag, x) == below


@pytest.mark.parametrize(
    "diag, offdiag",
    [
        ([np.nan, 2.0, 3.0, 4.0], [-1.0, -1.0, -1.0]),
        ([1.0, np.nan, 3.0, 4.0], [-1.0, -1.0, -1.0]),
        ([1.0, 2.0, 3.0, np.nan], [-1.0, -1.0, -1.0]),  # the 1-row tail at x = 10
        ([1.0, 2.0, 3.0, 4.0], [-1.0, np.nan, -1.0]),
    ],
)
def test_pivot_count_nan_entry_raises(diag, offdiag):
    # a NaN pivot never stops pttrf (NaN <= 0 is false), so without the
    # check the NaN rows would go uncounted
    for x in (0.0, 2.5, 10.0):
        with pytest.raises(SolverFailure, match="NaN pivot"):
            _count_below(np.array(diag), np.array(offdiag), x)


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


def _saturated_system(n=255):
    # k = 200 on [-3, 3]: barrier samples saturate near 1e189, so the
    # Gershgorin top is astronomically far above the wanted eigenvalues
    return assemble_hamiltonian(MontgomeryPotential(200, 0.0), GridSpec(-3.0, 3.0, n))


def test_lowest_eigenvalues_saturated_dirichlet():
    system = _saturated_system()
    assert np.max(system.diag) > 1e180
    ours = lowest_eigenvalues(system.diag, system.offdiag, 2)
    reference = sturm_bisect_eigenvalues(system.diag, system.offdiag, 2)
    assert ours == pytest.approx(reference, rel=1e-11)


def _neumann_floor_system(n=255):
    """(diag, offdiag, h): -d2/dt2 + (t^3/3)^2 on [0, 3) with a Neumann
    end at t = 0, whose point t_0 = 0 is an unknown: the mirror ghost
    u(-h) = u(h) makes row 0 (2/h^2 + V) u_0 - (2/h^2) u_1, symmetrized by
    v_0 = u_0 / sqrt(2) to the off-diagonal -sqrt(2)/h^2.  That row puts
    the Gershgorin floor near -0.4/h^2."""
    h = 3.0 / (n + 1)
    t = h * np.arange(n + 1)
    diag = 2.0 / h**2 + (t**3 / 3.0) ** 2
    offdiag = np.full(n, -1.0 / h**2)
    offdiag[0] *= np.sqrt(2.0)
    return diag, offdiag, h


def test_lowest_eigenvalues_neumann_floor():
    diag, offdiag, h = _neumann_floor_system()
    radius = np.abs(np.concatenate(([0.0], offdiag))) + np.abs(np.concatenate((offdiag, [0.0])))
    floor = float(np.min(diag - radius))
    assert floor < -0.4 / h**2
    ours = lowest_eigenvalues(diag, offdiag, 3)
    reference = sturm_bisect_eigenvalues(diag, offdiag, 3)
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


def test_refined_eigenvalues_match_tight_bracket_polish():
    system = _saturated_system()
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


def test_inverse_iteration_reads_its_own_coupling():
    # the residual floor scales with max |offdiag|, which inverse iteration
    # reads from the matrix it is given: a coupling passed in beside the
    # matrix, too large, raised the floor and returned an unconverged
    # vector (residual 7.2e-4 at coupling=1e300) without a word
    system = _full_line_level(2, 2048)
    estimate = float(lowest_eigenvalues(system.diag, system.offdiag, 1)[0]) + 0.3
    with pytest.raises(TypeError):
        inverse_iteration(system.diag, system.offdiag, estimate, coupling=1e300)
    with pytest.raises(TypeError):
        _residual_floor(system.offdiag, estimate, 1e300)
    v = inverse_iteration(system.diag, system.offdiag, estimate)
    floor = _residual_floor(system.offdiag, estimate)
    assert _rayleigh_residual(system.diag, system.offdiag, v) <= floor


def test_lowest_eigenvalues_check():
    system = _saturated_system()
    lam = lowest_eigenvalues(system.diag, system.offdiag, 4)
    for count in (1, 2, 3):
        assert are_lowest_eigenvalues(system.diag, system.offdiag, lam[:count])
    # values that are not the lowest distinct eigenvalues in order: one
    # skipped below, a repeat, a swap
    for wrong in ([lam[1]], [lam[1], lam[2]], [lam[0], lam[2]], [lam[1], lam[0]],
                  [lam[0], lam[0]]):
        assert not are_lowest_eigenvalues(system.diag, system.offdiag, wrong)
    # the count sits one margin above the last value, so values within a
    # margin below their eigenvalues pass and values further below do not
    margin = separation_margin(system.offdiag)
    assert are_lowest_eigenvalues(system.diag, system.offdiag, lam[:2] - 0.9 * margin)
    assert not are_lowest_eigenvalues(system.diag, system.offdiag, lam[:2] - 1.1 * margin)


def test_lowest_check_rejects_near_degenerate():
    # values closer than the separation margin are never confirmed
    system = assemble_hamiltonian(MontgomeryPotential(1, 5.0), GridSpec(-8.0, 8.0, 4095))
    lam = lowest_eigenvalues(system.diag, system.offdiag, 2)
    assert lam[1] - lam[0] < separation_margin(system.offdiag)
    assert not are_lowest_eigenvalues(system.diag, system.offdiag, lam)


def test_started_inverse_iteration_matches_flat_start():
    # a start from the eigenvectors of the grid with twice the spacing,
    # interpolated onto this one, polishes to the flat start's Rayleigh
    # quotient without polish sweeps
    system = _saturated_system()
    shapes = StartShapes()
    refined_lowest_eigenvalues(_saturated_system(127), 3, shapes=shapes)
    for j, lam in enumerate(lowest_eigenvalues(system.diag, system.offdiag, 3)):
        flat = inverse_iteration(system.diag, system.offdiag, float(lam))
        started = inverse_iteration(system.diag, system.offdiag, float(lam),
                                    shapes.start(j, 0, len(system.diag), 2))
        assert system.rayleigh_quotient(started) == pytest.approx(
            system.rayleigh_quotient(flat), rel=0.0, abs=1e-13
        )


@pytest.mark.parametrize(
    "start, message",
    [
        (np.ones(4), "start must have 3 entries"),
        (np.array([1.0, np.nan, 1.0]), "non-zero start, largest magnitude nan"),
        (np.array([1.0, -np.inf, 1.0]), "non-zero start, largest magnitude inf"),
        (np.zeros(3), "non-zero start, largest magnitude 0.0"),
    ],
    ids=["length", "nan", "inf", "zero"],
)
def test_inverse_iteration_rejects_bad_start(start, message):
    with pytest.raises(ValueError, match=message):
        inverse_iteration(np.array([1.0, 5.0, 9.0]), np.zeros(2), 1.0, start)


def test_inverse_iteration_start_of_huge_entries():
    # the start is scaled before its norm is taken, which would overflow
    v = inverse_iteration(np.array([1.0, 5.0, 9.0]), np.zeros(2), 1.0,
                          np.array([1e300, 1e300, 1.0]))
    assert v == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)


def test_inverse_iteration_rejects_one_row():
    with pytest.raises(ValueError, match="at least 2 rows"):
        inverse_iteration(np.array([2.0]), np.array([]), 2.0)
    with pytest.raises(ValueError, match="at least 2 rows"):
        shifted_solve(np.array([2.0]), np.array([]), 1.0, np.ones(1))


def test_two_by_two_closed_form():
    # [[1, 1], [1, 3]] has eigenvalues 2 -+ sqrt(2), with eigenvectors
    # along (1, 1 -+ sqrt(2)); both sum to more than 0
    diag, offdiag = np.array([1.0, 3.0]), np.array([1.0])
    for sign in (-1.0, 1.0):
        v = inverse_iteration(diag, offdiag, 2.0 + sign * np.sqrt(2.0))
        expected = np.array([1.0, 1.0 + sign * np.sqrt(2.0)])
        assert v == pytest.approx(expected / np.linalg.norm(expected), rel=0.0, abs=1e-12)
    # (A - 0.5 I)^(-1) (1, 0) = (2.5, -1) / 0.25
    assert shifted_solve(diag, offdiag, 0.5, np.array([1.0, 0.0])) == pytest.approx(
        [10.0, -4.0], rel=1e-14
    )


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
        # saturated samples: the squares of the sweep's entries underflow
        ([1e300, 1e300, 1e300], [0.0, 0.0], "0.0"),
        # the factor overflows and the sweep turns NaN
        ([1.5e308, -1.5e308, 1.0], [1.5e308, 1.5e308], "nan"),
    ],
)
def test_inverse_iteration_degenerate_sweep_fails_fast(diag, offdiag, norm):
    # a sweep that cannot be normalized fails on the first sweep, before
    # any NaN reaches the residual or the remaining sweeps
    with pytest.raises(SolverFailure, match=f"sweep has norm {norm}"):
        inverse_iteration(np.array(diag), np.array(offdiag), 1.0)


@pytest.mark.parametrize(
    "diag, offdiag, eigenvalue",
    [
        ([1.0, 5.0, np.inf], [0.0, 0.0], 1.0),  # inf * 0 in the residual
        ([1.0, 5.0, 9.0], [0.0, np.nan], 1.0),
        ([1.0, 5.0, 9.0], [0.0, 0.0], np.nan),
        ([1.0, 5.0, 9.0], [0.0, 0.0], -np.inf),
    ],
)
def test_inverse_iteration_rejects_non_finite_input(diag, offdiag, eigenvalue):
    with pytest.raises(ValueError, match="finite"):
        inverse_iteration(np.array(diag), np.array(offdiag), eigenvalue)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(16, 300),
    seed=st.integers(0, 2**32 - 1),
    index=st.integers(0, 2),
    offset=st.sampled_from([0.0, 1e-12, -1e-9, 1e-6, -1e-4]),
    sweeps=st.integers(1, 3),
)
def test_sweep_norm_bounds_rayleigh_residual(n, seed, index, offset, sweeps):
    # inverse_iteration accepts a sweep w from a unit v once 1/||w|| is
    # below half its residual floor: 1/||w|| = ||(A - shift I) w/||w|| ||
    # bounds the residual at the Rayleigh quotient, up to the rounding of
    # the factor and of the explicit residual, a few eps ||A||
    rng = np.random.default_rng(seed)
    diag, offdiag = _random_tridiag(rng, n)
    lam = sturm_bisect_eigenvalues(diag, offdiag, index + 1)[index]
    shift = lam + offset
    v = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(sweeps):
        w = shifted_solve(diag, offdiag, shift, v)
        v = w / np.linalg.norm(w)
    norm_a = float(np.max(np.abs(diag)) + 2.0 * np.max(np.abs(offdiag)))
    assert _rayleigh_residual(diag, offdiag, v) <= 1.0 / np.linalg.norm(w) + 4.0 * _EPS * norm_a


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 300),
    seed=st.integers(0, 2**32 - 1),
    index=st.integers(0, 2),
    offset=st.sampled_from([0.0, 1e-12, -1e-9, 1e-6, -1e-4]),
)
def test_shifted_solve_matches_factor_and_solve(n, seed, index, offset):
    # one gtsv call does the arithmetic of a gttrf factor and a gttrs solve
    # through it, row interchanges included, so the bits agree; shifts
    # next to an eigenvalue make the pivots small and the interchanges
    # frequent (scipy's gttrf wrapper needs 3 rows)
    rng = np.random.default_rng(seed)
    diag, offdiag = _random_tridiag(rng, n)
    shift = lowest_eigenvalues(diag, offdiag, index + 1)[index] + offset
    dl, d, du, du2, ipiv, info = dgttrf(offdiag, diag - shift, offdiag)
    for rhs in (np.full(n, 1.0 / np.sqrt(n)), rng.normal(size=n)):
        if info > 0:  # an exactly zero pivot: both find the matrix singular
            with pytest.raises(SolverFailure, match="singular matrix"):
                shifted_solve(diag, offdiag, shift, rhs)
            continue
        reference = dgttrs(dl, d, du, du2, ipiv, rhs)[0]
        assert shifted_solve(diag, offdiag, shift, rhs).tobytes() == reference.tobytes()


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
    # the ValueError that bad arguments raise
    diag = np.array([1.0, np.nan, 3.0, 4.0])
    with pytest.raises(SolverFailure, match=r"stebz.*info="):
        lowest_eigenvalues(diag, -np.ones(3), 1)


def _full_line_grid(k, n, alpha=0.0):
    lower, upper = truncation_interval(MontgomeryPotential(k, alpha), Geometry.FULL_LINE, 0.0)
    return GridSpec(lower, upper, n)


def _full_line_level(k, n, alpha=0.0):
    return assemble_hamiltonian(MontgomeryPotential(k, alpha), _full_line_grid(k, n, alpha))


def _recorded_window(k, n, alpha=0.0):
    """The full-line level of n points and the rows [lo, hi) of the decay
    window that a ladder recording its lowest two eigenvectors fixes.  The
    level is seeded with the 2048-point level's eigenvalues, so that a
    large level is polished and counted, not bisected."""
    coarse = _full_line_level(k, 2048, alpha)
    seeds = lowest_eigenvalues(coarse.diag, coarse.offdiag, 2)
    grid = _full_line_grid(k, n, alpha)
    system = assemble_hamiltonian(MontgomeryPotential(k, alpha), grid)
    shapes = StartShapes()
    refined_lowest_eigenvalues(system, 2, seeds=seeds, shapes=shapes)
    return system, window_rows(system_points(system, grid.lower), shapes.window, grid)


def _holds_the_well(system, lo, hi):
    """Whether every row where V < 10 lies strictly inside rows [lo, hi)."""
    allowed = np.flatnonzero(system.potential_values < 10.0)
    return lo < allowed[0] and allowed[-1] < hi - 1


@pytest.mark.parametrize("n", [2048, 524543])
@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_decay_window_keeps_shallow_wells_whole(n, alpha):
    # the k = 2 eigenvectors stay above DECAY_FLOOR across the whole
    # level at alpha = 0; at alpha = 1.5 the well sits right of centre, and
    # the window trims the far left tail, well past every row where V < 10
    system, (lo, hi) = _recorded_window(2, n, alpha)
    if alpha == 0.0:
        assert (lo, hi) == (0, n)
    else:
        assert 0 < lo and _holds_the_well(system, lo, hi)


@pytest.mark.parametrize("n", [2048, 524543])
@pytest.mark.parametrize("k", [10, 30, 68, 200])
def test_decay_window_trims_steep_wells(k, n):
    # a strict inner window at every size, past every row where V < 10
    system, (lo, hi) = _recorded_window(k, n)
    assert 0 < lo < hi < n
    assert _holds_the_well(system, lo, hi)


@pytest.mark.parametrize("n", [2048, 524543])
@pytest.mark.parametrize("k", [2, 10])
def test_barrier_core_keeps_shallow_wells_whole(k, n):
    # shallow wells have no saturated barrier row, so their barrier core is
    # the whole level; the decay window (whole at k = 2, strict at k = 10)
    # keeps the whole of each well
    system, (lo, hi) = _recorded_window(k, n)
    assert barrier_core(system.diag, system.offdiag) == (0, n)
    assert (lo, hi) == (0, n) if k == 2 else 0 < lo < hi < n
    assert _holds_the_well(system, lo, hi)


@pytest.mark.parametrize("n", [2048, 524543])
@pytest.mark.parametrize("k", [68, 200])
def test_barrier_core_trims_steep_wells(k, n):
    # the barrier core is a strict inner range at every size, and the decay
    # window lies strictly inside it: it trims every saturated barrier row
    system, (lo, hi) = _recorded_window(k, n)
    core_lo, core_hi = barrier_core(system.diag, system.offdiag)
    assert 0 < core_lo < lo < hi < core_hi < n
    assert system.diag[core_lo] >= np.max(np.abs(system.offdiag)) / _EPS


@pytest.mark.parametrize("alpha", [0.0, 1.5, 3.0])
@pytest.mark.parametrize("k", [2, 10, 68, 200])
def test_recorded_window_holds_the_finest_levels_eigenvectors(k, alpha):
    # the window a solve's ladder records at 2048 points holds every row
    # where the lowest two eigenvectors of its 524 543-point level, polished
    # whole from flat starts, exceed 1e-14 of their peak.  At 1e-15 this
    # fails for k = 2 at alpha = 3: there the fine level's far tail carries
    # entries of up to 1.3e-15 of the peak just outside the window (9.5e-16
    # at alpha = 1.5).  The couplings such entries give a cut, about 1e-8,
    # lie four orders of magnitude below the residual floor that _polished's
    # cut check admits (1.7e-4 there), so no level falls back on them and
    # the eigenvalues do not move.
    potential = MontgomeryPotential(k, alpha)
    presolve = _full_line_level(k, 2048, alpha)
    top = lowest_eigenvalues(presolve.diag, presolve.offdiag, 2)[-1]
    lower, upper = truncation_interval(potential, Geometry.FULL_LINE, float(top))
    recorded = GridSpec(lower, upper, 2048)
    coarse = assemble_hamiltonian(potential, recorded)
    shapes = StartShapes()
    seeds, _ = refined_lowest_eigenvalues(coarse, 2, shapes=shapes)
    fine = assemble_hamiltonian(potential, GridSpec(lower, upper, 524543))
    lo, hi = window_rows(system_points(fine, lower), shapes.window, recorded)
    for seed in seeds:
        v = np.abs(inverse_iteration(fine.diag, fine.offdiag, float(seed)))
        held = np.flatnonzero(v > 1e-14 * np.max(v))
        assert lo <= held[0] and held[-1] < hi


_F = DECAY_FLOOR


@pytest.mark.parametrize(
    "values, window",
    [
        # the grid indices one sample outside the rows above the floor (a
        # row's grid index is its row index + 1)
        ([[0.0, 0.0, 0.1 * _F, 0.5, 1.0, 0.5, 0.1 * _F, 0.0]], (3, 7)),
        ([[0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]], (5, None)),
        # the envelope is the largest |v_j|: a sign, a second vector and the
        # rows between them count
        ([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
          [0.0, 0.0, 0.0, 0.0, 0.0, -0.5, 0.0, 0.0]], (2, 7)),
        # the floor is relative to the peak, and a row at it is not held
        ([[4.0 * _F, 4.0 * _F, 4.0, 8.0 * _F, 4.0 * _F, 0.0, 0.0, 0.0]], (2, 5)),
        # every row held, or the first
        ([[1.0] * 8], (None, None)),
        ([[1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]], (None, 3)),
    ],
)
def test_decay_window_rows(values, window):
    assert eigensolver._decay_window(values) == window
