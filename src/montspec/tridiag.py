"""Symmetric tridiagonal eigenvalue primitives.

Production eigenvalue extraction goes through LAPACK's Sturm-count
bisection driver (stebz), run on an energy window instead of by index.
Index selection bisects from the Gershgorin enclosure, whose top is the
saturated barrier sample (1e63 and more for steep wells), so every
eigenvalue would cost hundreds of Sturm sweeps.  The window's floor is
the Gershgorin floor; its top is the first of the energies 1, 2, 4, ...
under which count-only stebz probes find the requested eigenvalues.
The top grows on absolute energies, never by the window width: a
Neumann row puts the floor near -0.4/h^2, and width doubling from there
would pull most of the spectrum into the window.

Brackets are machine-tight.  Bisection runs only where nothing predicts
the eigenvalues (the coarse pre-solve in eigensolver.solve and the first
level of its refinement ladder), and as the fallback when predicted
values fail their check.

Inverse iteration factors A - shift I once (LAPACK gttrf, shared with
shifted_solve) and reuses the factor for every sweep, polish sweeps
included.  Its residual is taken at the iterate's Rayleigh quotient, so a
shift from an eigenvalue predicted on coarser grids converges as well as
one from a bisection bracket.  seed_ceiling and are_lowest_eigenvalues
confirm such values with one count-only stebz probe instead of bisecting.
No other module calls LAPACK, and every LAPACK fault (stebz failing to
converge, a singular factor) leaves this one as SolverFailure.

The test suite carries its own plain-Python Sturm counter and bisection
solver as an independent reference on small matrices.
"""

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import SolverFailure

_EPS = np.finfo(float).eps

# Sweeps inverse iteration may take before it reports non-convergence.
_MAX_SWEEPS = 50


def _residual_floor(offdiag, eigenvalue: float) -> float:
    """Rounding floor of ||A v - eigenvalue v|| for a unit eigenvector v.

    Driven by the kinetic scale of the matrix, not by saturated potential
    entries: the eigenvector is zero there, so they contribute nothing to
    a converged residual.
    """
    scale = 4.0 * float(np.max(np.abs(offdiag))) + abs(eigenvalue) + 1.0
    return 64.0 * _EPS * scale


def _gershgorin_interval(diag, offdiag):
    """(lo, hi) enclosing every eigenvalue of the tridiagonal matrix."""
    radius = np.zeros(len(diag))
    radius[:-1] += np.abs(offdiag)
    radius[1:] += np.abs(offdiag)
    return float(np.min(diag - radius)), float(np.max(diag + radius))


def _eigenvalues_in_window(diag, offdiag, lower: float, upper: float, tol: float):
    """Eigenvalues in (lower, upper] by LAPACK stebz, bracketed to abstol tol."""
    try:
        return eigvalsh_tridiagonal(
            diag,
            offdiag,
            select="v",
            select_range=(lower, upper),
            lapack_driver="stebz",
            tol=tol,
            check_finite=False,
        )
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(str(exc)) from exc


def _window_floor(diag, offdiag) -> float:
    """An energy below every eigenvalue: the Gershgorin floor less a margin.

    The margin covers rounding in the Gershgorin sums and in the Sturm
    count stebz takes at the floor; it scales with the entries of the
    floor row, not with the saturated barrier samples.
    """
    lo, _ = _gershgorin_interval(diag, offdiag)
    scale = abs(lo) + 2.0 * float(np.max(np.abs(offdiag))) + 1.0
    return lo - 2.1 * len(diag) * _EPS * scale


def _count_below(diag, offdiag, lower: float, x: float) -> int:
    """Number of eigenvalues in (lower, x]: a probe whose abstol spans its
    whole window stops after the two Sturm counts at its ends."""
    return len(_eigenvalues_in_window(diag, offdiag, lower, x, x - lower))


def separation_margin(offdiag) -> float:
    """Gap below which two predicted or polished eigenvalues count as too
    close to tell apart: 125 of inverse iteration's residual floors."""
    return 125.0 * _residual_floor(offdiag, 0.0)


def lowest_eigenvalues(diag, offdiag, count: int):
    """Smallest `count` eigenvalues of a symmetric tridiagonal matrix.

    Backed by LAPACK stebz (Sturm counting plus bisection, deterministic)
    on a window (lower, upper] known to hold them, with machine-tight
    brackets; see the module docstring.  Eigenvalues come back sorted
    ascending.  Needs at least 2 rows.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    n = len(diag)
    if n < 2:
        raise ValueError(f"need at least 2 rows, got {n}")
    if count < 1 or count > n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    lower = _window_floor(diag, offdiag)
    upper = 1.0
    while upper <= lower or _count_below(diag, offdiag, lower, upper) < count:
        upper *= 2.0
    # tol must be a tiny positive: at exactly 0 LAPACK substitutes
    # ulp * max(|lower|, |upper|), which is far too loose at the Neumann
    # floor; a tiny abstol switches it to the per-eigenvalue relative
    # criterion (machine-tight brackets around each eigenvalue).
    vals = _eigenvalues_in_window(diag, offdiag, lower, upper, 1e-300)
    return np.sort(vals)[:count]


def seed_ceiling(diag, offdiag, seeds):
    """An energy with exactly len(seeds) eigenvalues below it, taken
    around predicted eigenvalues before they are polished.

    One count-only stebz probe starts a separation margin above the last
    seed and doubles its offset until it holds len(seeds) eigenvalues:
    a prediction from a single coarser level falls short by that level's
    whole O(h^2) change.  Returns None if the probe then holds more, or
    if the seeds are not more than a margin apart (near-degenerate
    values, which are_lowest_eigenvalues would reject).
    """
    seeds = np.asarray(seeds, dtype=float)
    margin = separation_margin(offdiag)
    if not np.all(np.diff(seeds) > margin):
        return None
    lower = _window_floor(diag, offdiag)
    offset = margin
    while (found := _count_below(diag, offdiag, lower, seeds[-1] + offset)) < len(seeds):
        offset *= 2.0
    return seeds[-1] + offset if found == len(seeds) else None


def are_lowest_eigenvalues(offdiag, values, ceiling: float) -> bool:
    """Whether polished values are the lowest len(values) eigenvalues, in
    order, given that exactly that many lie below `ceiling`.

    Each value must lie within a few residual floors of an eigenvalue (a
    converged inverse-iteration Rayleigh quotient does).  Values more
    than a separation margin apart, far more than twice that, then stand
    for distinct eigenvalues; with the last half a margin below the
    ceiling, all of them lie below it, so they are every eigenvalue
    there is below it.
    """
    values = np.asarray(values, dtype=float)
    margin = separation_margin(offdiag)
    return bool(np.all(np.diff(values) > margin) and values[-1] < ceiling - 0.5 * margin)


def _tridiag_matvec(diag, offdiag, v):
    out = diag * v
    out[:-1] += offdiag * v[1:]
    out[1:] += offdiag * v[:-1]
    return out


def _rayleigh_residual(diag, offdiag, v) -> float:
    """||A v - rho v|| at the Rayleigh quotient rho of the unit vector v."""
    r = _tridiag_matvec(diag, offdiag, v)
    r -= np.dot(v, r) * v
    return float(np.linalg.norm(r))


def _shifted_factor(diag, offdiag, shift: float):
    """Factor A - shift I once (LAPACK gttrf, partial pivoting) and return
    the solve x -> (A - shift I)^(-1) x through that factor (gttrs)."""
    if len(diag) < 3:
        raise ValueError(f"need at least 3 rows, got {len(diag)}")
    dl, d, du, du2, ipiv, info = dgttrf(offdiag, diag - shift, offdiag)
    if info > 0:
        raise SolverFailure("singular matrix")
    return lambda rhs: dgttrs(dl, d, du, du2, ipiv, rhs)[0]


def _aligned_sweep(sweep, v):
    """One sweep from the unit vector v, scaled to unit norm and signed to
    agree with v.  A norm of 0, inf or NaN can never converge: it raises."""
    w = sweep(v)
    norm = np.linalg.norm(w)
    if not 0.0 < norm < np.inf:  # written so that nan fails too
        raise SolverFailure(f"inverse iteration sweep has norm {norm}")
    w /= norm
    if np.dot(w, v) < 0.0:
        w = -w
    return w


def inverse_iteration(diag, offdiag, eigenvalue: float):
    """Eigenvector for the eigenvalue nearest an estimate, by shifted
    inverse iteration.

    The shift is offset from the estimate by 1e-12 relative so the
    factorization stays regular; A - shift I is factored once (LAPACK
    gttrf, partial pivoting) and the factor serves every sweep.
    Convergence is declared on the residual ||A v - rho v|| at the
    iterate's own Rayleigh quotient rho, measured against the rounding
    floor of the matrix-vector product, so an estimate off by more than
    that floor (a value predicted from coarser grids) still converges;
    an iterate-stabilization check covers exactly representable cases.
    Returns a unit 2-norm vector with positive sign convention (sum of
    entries > 0).  Needs at least 3 rows, as scipy's gttrf wrapper does.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    n = len(diag)
    shift = eigenvalue + 1e-12 * max(1.0, abs(eigenvalue))
    sweep = _shifted_factor(diag, offdiag, shift)
    floor = _residual_floor(offdiag, eigenvalue)
    v = np.full(n, 1.0 / np.sqrt(n))
    residual = np.inf
    for _ in range(_MAX_SWEEPS):
        w = _aligned_sweep(sweep, v)
        delta = np.linalg.norm(w - v)
        v = w
        residual = _rayleigh_residual(diag, offdiag, v)
        if residual <= floor or delta < 1e-12:
            break
    else:
        raise SolverFailure(
            f"inverse iteration did not converge in {_MAX_SWEEPS} iterations",
            residual=float(residual),
        )
    del w  # an alias of v, not to be held through the polish sweeps
    # Two polish sweeps: the bulk of the vector is already at its noise
    # floor, but far-tail entries (where the true eigenfunction sits below
    # rounding) still carry start-vector imprint; each extra sweep damps
    # them by the local barrier height.
    for _ in range(2):
        v = _aligned_sweep(sweep, v)
    if np.sum(v) < 0.0:
        v = -v
    return v


def shifted_solve(diag, offdiag, shift: float, rhs):
    """Solve (A - shift I) x = rhs for a symmetric tridiagonal A with at
    least 3 rows, by the gttrf factor inverse_iteration uses."""
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    return _shifted_factor(diag, offdiag, shift)(np.asarray(rhs, dtype=float))
