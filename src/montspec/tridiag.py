"""Symmetric tridiagonal eigenvalue primitives.

Sturm counts (how many eigenvalues lie at or below an energy x) are
the negative pivots of the unpivoted factorization A - x I = L D L^T
(Sylvester's law of inertia), taken by LAPACK pttrf sweeps: one pass
over the rows, with 2n doubles of workspace.  LAPACK's Sturm-count
bisection driver (stebz) only bisects, run on an energy window instead
of by index.  Index selection bisects from the Gershgorin enclosure,
whose top is the saturated barrier sample (1e63 and more for steep
wells), so every eigenvalue would cost hundreds of Sturm sweeps.  The
window's floor is the Gershgorin floor; its top is the first of the
energies 1, 2, 4, ... at or below which the pivot counts find the
requested eigenvalues.  The top grows on absolute energies, never by
the window width: the Gershgorin floor of a general symmetric
tridiagonal matrix can lie far below its lowest eigenvalue, and width
doubling from there would pull most of the spectrum into the window.

Brackets are machine-tight.  Bisection runs only where nothing predicts
the eigenvalues, and as a seeded level's one fallback: when its window
cut proves coupled, its polish fails or its polished values fail their
check, the level is bisected whole.  Nothing predicts the small coarse
pre-solve of eigensolver.solve, whose values seed the first level of its
refinement ladder, so a solve normally bisects once, there.

Each inverse-iteration sweep, and each shifted_solve, is one LAPACK
gtsv call on A - shift I: Gaussian elimination with partial pivoting
fused with the solve.  No factor is kept across sweeps: a start
close to the eigenvector converges in one sweep, so a kept factor would
save almost nothing.  Nor is A - shift I: a sweep builds the four arrays
gtsv overwrites (the two off-diagonals, the shifted diagonal and the
right-hand side) and frees them on return, so a sweep holds those four
and its iterate, and nothing is held between sweeps.  The residual is
taken at the iterate's Rayleigh quotient, so a shift from an eigenvalue
predicted on coarser grids converges as well as one from a bisection
bracket; a sweep's own norm
bounds that residual, which spares most converged sweeps their
matrix-vector product.  From the flat start it takes about 1.4 sweeps
to converge and two polish sweeps that damp the flat vector's imprint in
the far tails; from a start close to the eigenvector (a coarser grid's
eigenvector, interpolated) it takes about one sweep and no polish.
are_lowest_eigenvalues is the one check on the polished values of
predicted eigenvalues: their separation and one pivot count just above
them, instead of bisecting.

Every sum over a vector goes through dot (np.einsum), never through
BLAS, so no result depends on the BLAS thread count.

Only this module and spectral (the dense Galerkin pencil) call LAPACK,
and every LAPACK fault (stebz failing to converge, a singular shifted
matrix, a NaN pivot) leaves either as SolverFailure.

The three LAPACK routines (dgtsv, dpttrf, dstebz) are the f2py
wrappers in scipy's compiled LAPACK extension, scipy.linalg._flapack,
the very objects scipy.linalg.lapack exports.  The extension is loaded
from its file in scipy's linalg directory, not through the scipy.linalg
package, whose __init__ pulls in numpy.f2py, numpy.testing and numpy.ma
and costs about 0.33 s beyond numpy (scipy 1.17 on a 2-core VM), most
of a solving subcommand's start-up.  A scipy.linalg imported before or
after this module shares the one extension module.

The test suite carries its own plain-Python Sturm counter and bisection
solver as an independent reference on small matrices.
"""

import functools
import importlib.util
import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .errors import SolverFailure


def _load_flapack():
    """scipy.linalg._flapack, from sys.modules or else from its file.

    A module loaded here is entered in sys.modules under its full name,
    so a later `import scipy.linalg` reuses it.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    directory = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack is not in {directory}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgtsv = _flapack.dgtsv
dpttrf = _flapack.dpttrf
dstebz = _flapack.dstebz

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

# Sweeps inverse iteration may take before it reports non-convergence.
_MAX_SWEEPS = 50


def _max_abs(x) -> float:
    """max |x_i|, by two reductions instead of a temporary |x|; NaN if an
    entry is NaN."""
    return max(float(np.max(x)), -float(np.min(x)))


def dot(*vectors) -> float:
    """sum_i of the product of the vectors' entries i, by np.einsum.

    Every reduction over solver vectors goes through here (norm below,
    the Rayleigh quotients, spectral's quadratures): np.dot and
    np.linalg.norm reduce through BLAS, whose partial sums split by
    thread count, so their results would move at rounding with
    OPENBLAS_NUM_THREADS.  einsum sums in an order of its own, and a
    three-vector product takes no temporary.
    """
    return float(np.einsum(",".join(["i"] * len(vectors)) + "->", *vectors))


def norm(x) -> float:
    """The 2-norm of the vector x (see dot)."""
    return math.sqrt(dot(x, x))


def _all_finite(x) -> bool:
    """Whether every entry of x is finite: NaN propagates through both
    reductions, and an infinity is the largest or the smallest entry."""
    return math.isfinite(np.min(x)) and math.isfinite(np.max(x))


def _require_rows(n: int) -> None:
    if n < 2:
        raise ValueError(f"need at least 2 rows, got {n}")


def _residual_floor(offdiag, eigenvalue: float) -> float:
    """Rounding floor of ||A v - eigenvalue v|| for a unit eigenvector v.

    Driven by the kinetic scale of the matrix, max |offdiag|, read here
    from the matrix itself, not by saturated potential entries: the
    eigenvector is zero there, so they contribute nothing to a converged
    residual.
    """
    scale = 4.0 * _max_abs(offdiag) + abs(eigenvalue) + 1.0
    return 64.0 * _EPS * scale


def _window_floor(diag, offdiag) -> float:
    """An energy below every eigenvalue: the Gershgorin floor, the least
    diag[i] - |offdiag[i - 1]| - |offdiag[i]|, less a margin.

    The margin covers rounding in the Gershgorin sums and in the Sturm
    count stebz takes at the floor when it bisects; it scales with the
    entries of the floor row, not with the saturated barrier samples.
    """
    radius = np.zeros(len(diag))
    radius[:-1] += np.abs(offdiag)
    radius[1:] += np.abs(offdiag)
    lo = float(np.min(diag - radius))
    scale = abs(lo) + 2.0 * _max_abs(offdiag) + 1.0
    return lo - 2.1 * len(diag) * _EPS * scale


def _count_below(diag, offdiag, x: float) -> int:
    """Number of eigenvalues at or below x: the non-positive pivots of the
    unpivoted factorization A - x I = L D L^T (Sylvester's law of inertia).

    LAPACK pttrf factors the rows from a start row on and stops at the
    first pivot p <= 0; that pivot is counted, -e^2/p is folded into the
    next diagonal entry and pttrf restarts after it, so a count of m
    takes m + 1 calls over n rows in all.  A pivot in (-pivmin, 0]
    becomes -pivmin, as in LAPACK's own Sturm counts (laebz), with
    pivmin = tiny * max(1, e^2) for the coupling e being folded, so the
    fold stays finite.  A 1-row tail is counted here: scipy's pttrf
    wrapper needs at least 2 rows.  A NaN entry makes every later pivot
    NaN, so the count raises.
    """
    n = len(diag)
    d = diag - x
    e = np.array(offdiag, dtype=float)
    count = 0
    start = 0
    while True:
        if start == n - 1:
            pivots, info = d[start:], int(d[start] <= 0.0)
        else:
            pivots, _, info = dpttrf(d[start:], e[start:], overwrite_d=1, overwrite_e=1)
        if info == 0:
            if math.isnan(pivots[-1]):
                raise SolverFailure(f"Sturm count at {x} met a NaN pivot")
            return count
        count += 1
        start += info
        if start == n:
            return count
        # pttrf stopped before touching row `start`, so it still holds its
        # unfactored value
        coupling = offdiag[start - 1] ** 2
        d[start] -= coupling / min(pivots[info - 1], -_TINY * max(1.0, coupling))


def separation_margin(offdiag) -> float:
    """Gap below which two polished eigenvalues count as too close to
    tell apart: 125 of inverse iteration's residual floors."""
    return 125.0 * _residual_floor(offdiag, 0.0)


def lowest_eigenvalues(diag, offdiag, count: int):
    """Smallest `count` eigenvalues of a symmetric tridiagonal matrix.

    Backed by LAPACK stebz (Sturm counting plus bisection, deterministic)
    on a window (lower, upper] known to hold them, with machine-tight
    brackets; see the module docstring.  The window's top is found by
    pivot counts (_count_below), so stebz runs once, to bisect.
    Eigenvalues come back sorted ascending.  Needs at least 2 rows.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    n = len(diag)
    _require_rows(n)
    if count < 1 or count > n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    lower = _window_floor(diag, offdiag)
    upper = 1.0
    # A NaN entry makes the floor NaN too; stebz rejects that window as a
    # LAPACK fault, so it is not searched.
    if not math.isnan(lower):
        while upper <= lower or _count_below(diag, offdiag, upper) < count:
            upper *= 2.0
    # Eigenvalues in (lower, upper] (range 1; il and iu unused), in
    # ascending order ("E").  The abstol must be a tiny positive: at
    # exactly 0 LAPACK substitutes ulp * max(|lower|, |upper|), which is
    # far too loose at such a deep floor; a tiny abstol switches it to the
    # per-eigenvalue relative criterion (machine-tight brackets around
    # each eigenvalue).
    found, vals, _, _, info = dstebz(diag, offdiag, 1, lower, upper, 1, 1, 1e-300, "E")
    if info != 0:
        raise SolverFailure(f"stebz failed (LAPACK info={info})")
    return np.sort(vals[:found])[:count]


def are_lowest_eigenvalues(diag, offdiag, values) -> bool:
    """Whether polished values are the lowest len(values) eigenvalues, in
    order.

    Each value must lie within a few residual floors of an eigenvalue (a
    converged inverse-iteration Rayleigh quotient does).  Values more
    than a separation margin apart, far more than twice that, then stand
    for distinct eigenvalues, and every one of them lies at or below the
    last value plus a margin.  One pivot count (_count_below) there must
    find exactly len(values) eigenvalues: then they are all there is
    below it.  The count is taken at the polished values, not at the
    predictions they came from, so a prediction short by a whole coarser
    level's O(h^2) change costs nothing.
    """
    values = np.asarray(values, dtype=float)
    margin = separation_margin(offdiag)
    return bool(np.all(np.diff(values) > margin)) and _count_below(
        diag, offdiag, values[-1] + margin
    ) == len(values)


def _tridiag_matvec(diag, offdiag, v):
    out = diag * v
    out[:-1] += offdiag * v[1:]
    out[1:] += offdiag * v[:-1]
    return out


def _rayleigh_residual(diag, offdiag, v) -> float:
    """||A v - rho v|| at the Rayleigh quotient rho of the unit vector v."""
    r = _tridiag_matvec(diag, offdiag, v)
    r -= dot(v, r) * v
    return norm(r)


def _gtsv(diag, offdiag, shift: float, rhs):
    """(A - shift I)^(-1) rhs: one LAPACK gtsv call (Gaussian elimination
    with partial pivoting, fused with the solve), which leaves its
    arguments intact.  gtsv overwrites its four arrays, so it is handed
    fresh ones, built here and freed on return, instead of the copies
    f2py would make beside a kept diag - shift."""
    *_, x, info = dgtsv(
        offdiag.copy(), diag - shift, offdiag.copy(), np.array(rhs, dtype=float),
        overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
    )
    if info > 0:
        raise SolverFailure("singular matrix")
    return x


def _aligned_sweep(sweep, v):
    """One sweep from the unit vector v, scaled to unit norm and signed to
    agree with v, and the sweep's norm before scaling.  A norm of 0, inf
    or NaN can never converge: it raises."""
    w = sweep(v)
    size = norm(w)
    if not 0.0 < size < math.inf:  # written so that nan fails too
        raise SolverFailure(f"inverse iteration sweep has norm {size}")
    w /= size
    if dot(w, v) < 0.0:
        w = -w
    return w, size


def inverse_iteration(diag, offdiag, eigenvalue: float, start=None):
    """Eigenvector for the eigenvalue nearest an estimate, by shifted
    inverse iteration.

    The shift is offset from the estimate by 1e-12 relative so A - shift I
    stays regular; each sweep is one LAPACK gtsv solve with it (see the
    module docstring).
    Convergence is declared on the residual ||A v - rho v|| at the
    iterate's own Rayleigh quotient rho, measured against the rounding
    floor of the matrix-vector product, so an estimate off by more than
    that floor (a value predicted from coarser grids) still converges;
    an iterate-stabilization check covers exactly representable cases.
    A sweep w = (A - shift I)^(-1) v from a unit v bounds that residual
    by itself: ||(A - shift I) w/||w|| || = 1/||w||, and no shift gives a
    smaller residual than the Rayleigh quotient.  A sweep with 1/||w||
    within half the floor is accepted on that bound (the elimination's
    rounding adds a few eps ||A||); only the others pay for the explicit
    residual.

    Without `start` the iteration starts from the flat vector and, once
    converged, runs two polish sweeps: the bulk of the vector is then at
    its noise floor, but far-tail entries (where the true eigenfunction
    sits below rounding) still carry the flat vector's imprint, and each
    sweep damps them by the local barrier height.  `start` is a vector
    already close to the eigenvector (say, the eigenvector of a coarser
    grid interpolated onto this one): its tails already decay, so it
    converges in about one sweep and runs no polish sweeps.

    The residual floor scales with max |offdiag| (_residual_floor), which
    the iteration reads from the matrix it is given, so no caller can
    hand it a floor that does not fit the matrix.

    Returns a unit 2-norm vector with positive sign convention (sum of
    entries > 0).  Needs at least 2 rows, finite entries and estimate,
    and a finite non-zero start.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    n = len(diag)
    _require_rows(n)
    if not (math.isfinite(eigenvalue) and _all_finite(diag) and _all_finite(offdiag)):
        raise ValueError("inverse iteration needs finite entries and estimate")
    if start is None:
        v = np.full(n, 1.0 / np.sqrt(n))
    else:
        start = np.asarray(start, dtype=float)
        if start.shape != (n,):
            raise ValueError(f"start must have {n} entries, got shape {start.shape}")
        # nan or inf if an entry is; scaling by it keeps the norm finite
        scale = _max_abs(start)
        if not 0.0 < scale < np.inf:
            raise ValueError(
                f"inverse iteration needs a finite non-zero start, largest magnitude {scale}"
            )
        v = start / scale
        v /= norm(v)
    polish = start is None
    del start  # not held through the sweeps: a temporary passed in is freed here
    shift = eigenvalue + 1e-12 * max(1.0, abs(eigenvalue))
    sweep = functools.partial(_gtsv, diag, offdiag, shift)
    floor = _residual_floor(offdiag, eigenvalue)
    residual = np.inf
    for _ in range(_MAX_SWEEPS):
        w, size = _aligned_sweep(sweep, v)
        if 1.0 / size <= 0.5 * floor:
            v = w
            break
        delta = norm(w - v)
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
    if polish:
        for _ in range(2):
            v, _ = _aligned_sweep(sweep, v)
    if np.sum(v) < 0.0:
        v = -v
    return v


def shifted_solve(diag, offdiag, shift: float, rhs):
    """Solve (A - shift I) x = rhs for a symmetric tridiagonal A with at
    least 2 rows: one LAPACK gtsv call, as an inverse-iteration sweep."""
    diag = np.asarray(diag, dtype=float)
    _require_rows(len(diag))
    offdiag = np.asarray(offdiag, dtype=float)
    return _gtsv(diag, offdiag, shift, rhs)
