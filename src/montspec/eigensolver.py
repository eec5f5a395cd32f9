"""Adaptive eigenvalue solver for confining 1D Schrodinger operators.

Second-order central differences on a truncated interval, refined on
one ladder of grids (_ladder; each level's eigenvalues are polished by
inverse iteration, seeded and started from the levels below it, with
bisection of the whole level as the one fallback), and one Richardson
extrapolation step on the reported eigenvalues, from the O(h^2) step
that _ladder yields: over as many levels as tol needs in
solve_on_interval, over two in _fixed_grid_chain.
Past a ladder's first level, inverse iteration runs only on the level's
decay window, the rows where the first level's eigenvectors are above
rounding (StartShapes, _polished).
Sweeps along a parameter carry what they can from one point to the next
(predictor-corrector continuation): a sweep of solves (_sweep) seeds
each pre-solve after the first with the earlier ones' eigenvalues,
extrapolated, and starts it from their eigenvectors, and a chain of
fixed-grid evaluations (_fixed_grid_chain) starts each coarse level
from the eigenvector of the one before.  Every carried value is only a
prediction, checked as the ladder checks its own, so a sweep bisects
once unless a prediction fails.
Covers the three operators.Geometry domains: the full line and the half
line with a Dirichlet or Neumann condition at t=0 (the Neumann one is the
de Gennes model, whose constant bounds.de_gennes_theta0 takes from its
Weber-equation root and the tests check against this solver).  Also the
explicit step-well model, whose first eigenvalue solves a
transcendental gluing equation.
"""

import contextlib
import contextvars
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Union

import numpy as np

from . import tridiag
# re-exported for callers that still look theta0 up here; it is computed
# in bounds, from its Weber-equation root, without a solve
from .bounds import de_gennes_theta0  # noqa: F401
from .errors import SolverFailure
from .operators import Geometry, OperatorSpec, PotentialKind

# The truncated domain reaches where V exceeds the eigenvalue cap by
# TRUNCATION_MARGIN, plus TRUNCATION_PAD beyond that classical turning
# region; eigenfunctions decay super-exponentially past it.
TRUNCATION_MARGIN = 1.0
TRUNCATION_PAD = 2.0

_N_START = 2048
_N_CAP = 2**20

# The reported ground state is sampled on a ladder level at most this
# size: eigenvector rounding noise grows like eps/h^2, so on very fine
# grids it would exceed the vector's own O(h^2) discretization error.
_N_VECTOR_CAP = 66000

_SQRT2 = math.sqrt(2.0)

# Most eigenvalues one solve may ask for: every ladder level polishes
# each of them by inverse iteration on its grid's decay window.
MAX_COUNT = 64

# A ladder's decay window holds the rows where its first level's
# eigenvectors exceed this fraction of their peak (_decay_window).
DECAY_FLOOR = 1e-15


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with n interior points on (lower, upper)."""

    lower: float
    upper: float
    n: int

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("need lower < upper")
        if self.n < 16:
            raise ValueError("need at least 16 interior points")

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.n + 1)

    def interior_points(self) -> np.ndarray:
        h = self.spacing
        return self.lower + h * np.arange(1, self.n + 1)


@dataclass(frozen=True)
class AssembledSystem:
    """Symmetric tridiagonal discretization of -d2/dt2 + V.

    `points` are the sample locations of the unknowns.  The upper end is
    Dirichlet.  A Neumann lower end includes its boundary point among the
    unknowns; the returned matrix is the symmetrized form (see
    assemble_hamiltonian), and `to_physical` undoes the symmetrizing
    change of basis.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    points: np.ndarray
    potential_values: np.ndarray
    spacing: float
    neumann_lower: bool

    def rows(self, lo: int, hi: int) -> "AssembledSystem":
        """The principal submatrix on rows [lo, hi), as views of this
        system's arrays: Dirichlet at each cut, Neumann at the lower end
        only if it keeps row 0."""
        return AssembledSystem(
            diag=self.diag[lo:hi],
            offdiag=self.offdiag[lo:hi - 1],
            points=self.points[lo:hi],
            potential_values=self.potential_values[lo:hi],
            spacing=self.spacing,
            neumann_lower=self.neumann_lower and lo == 0,
        )

    def to_physical(self, v: np.ndarray) -> np.ndarray:
        u = np.array(v, dtype=float)
        if self.neumann_lower:
            u[0] *= _SQRT2
        return u

    def quadrature_weights(self) -> np.ndarray:
        """Trapezoid weights matching the physical sample points."""
        w = np.full(len(self.points), self.spacing)
        if self.neumann_lower:
            w[0] *= 0.5
        return w

    def rayleigh_quotient(self, v: np.ndarray) -> float:
        """v.T H v for a unit vector v, evaluated without cancellation.

        The kinetic part is summed as squares of bond differences, so the
        result carries relative rounding O(eps) instead of the
        eps * ||H|| ~ eps / h^2 error of the naive triple product.  This
        is what lets eigenvalues be polished well below the Sturm
        bisection noise floor on fine grids.
        """
        inv_h2 = 1.0 / (self.spacing * self.spacing)
        first = _SQRT2 * v[0] - v[1] if self.neumann_lower else v[0]
        lo = 1 if self.neumann_lower else 0
        bonds = np.diff(v[lo:])
        kinetic = inv_h2 * (first * first + np.dot(bonds, bonds) + v[-1] * v[-1])
        return float(kinetic + np.dot(self.potential_values, v * v))


def assemble_hamiltonian(
    potential,
    grid: GridSpec,
    geometry: Geometry = Geometry.FULL_LINE,
    coarse_values: Optional[np.ndarray] = None,
) -> AssembledSystem:
    """Three-point discretization of -d2/dt2 + V on the grid, Dirichlet at
    the upper end; the lower end is Neumann for Geometry.HALF_LINE_NEUMANN
    and Dirichlet for the other two geometries.

    A Dirichlet end drops the boundary point (its value is 0).  A Neumann
    end (the half line at t = 0) keeps the boundary point as an unknown
    and eliminates the ghost point by the mirror rule u(-h) = u(h), which
    makes that boundary row (2/h^2 + V)u_0 - (2/h^2)u_1.  The row is then symmetrized by the
    diagonal similarity v_0 = u_0 / sqrt(2), which scales the boundary
    off-diagonal entry to -sqrt(2)/h^2 and leaves all eigenvalues intact.
    A side effect worth knowing: a unit vector in the symmetrized basis
    corresponds exactly to a trapezoid-normalized physical function.

    `coarse_values` are the potential_values of the same potential and
    geometry on the grid with (n - 1) / 2 points on the same interval (n
    odd), the refinement ladder's level below this one.  That grid's
    spacing is exactly twice this one's, so its points are every other
    point of this grid, bit for bit (the odd-indexed points, or the
    even-indexed ones with a Neumann boundary point), and V is evaluated
    only at the n + 1 points between them.
    """
    if not isinstance(geometry, Geometry):
        raise ValueError(f"geometry must be a Geometry member, got {geometry!r}")
    h = grid.spacing
    pts = grid.interior_points()
    neumann = geometry is Geometry.HALF_LINE_NEUMANN
    if neumann:
        pts = np.concatenate(([grid.lower], pts))
    inv_h2 = 1.0 / (h * h)
    if coarse_values is None:
        values = np.asarray(potential.value(pts), dtype=float)
    else:
        carried = int(not neumann)  # index of the first coarse point
        if grid.n % 2 == 0 or len(coarse_values) != len(pts[carried::2]):
            raise ValueError(
                f"{len(coarse_values)} coarse values do not fit a grid of n = {grid.n}"
            )
        values = np.empty(len(pts))
        values[carried::2] = coarse_values
        values[1 - carried::2] = potential.value(pts[1 - carried::2])
    diag = 2.0 * inv_h2 + values
    offdiag = np.full(len(pts) - 1, -inv_h2)
    if neumann:
        offdiag[0] *= _SQRT2
    return AssembledSystem(
        diag=diag,
        offdiag=offdiag,
        points=pts,
        potential_values=values,
        spacing=h,
        neumann_lower=neumann,
    )


class StartShapes:
    """One refinement level's polished eigenvectors, kept to start inverse
    iteration on the finer grids of the same interval.

    A record holds physical samples of the vectors on their level's
    points (so the Neumann row's symmetrizing scale drops out; the overall
    scale does not matter, as inverse iteration normalizes its start).
    Each level it is given starts eigenpair j from vector j, linearly
    interpolated onto the points that level is polished on (its decay
    window, or the whole level); with no vectors, a level starts flat.
    Only one level's vectors are held: with the ladder's first level,
    `count` vectors of about _N_START doubles.

    A new record starts from the vectors of the record it continues,
    `previous`: a nearby operator's first level, the previous call's on
    the same grid (_fixed_grid_chain) or the previous pre-solve's of a
    sweep of solves (_sweep).  The first level given it records its own
    vectors (refined_lowest_eigenvalues), and with them the ladder's
    decay window (t_lo, t_hi), two floats (_decay_window): the stretch of
    the interval where those vectors exceed DECAY_FLOOR of their peak.
    Every later seeded level polishes only its rows inside it; a cut that
    drops a coupling above inverse iteration's residual floor (_polished)
    sends the level to its one fallback, bisection of the whole level and
    flat starts (refined_lowest_eigenvalues).
    """

    def __init__(self, previous: Optional["StartShapes"] = None):
        self.points = None if previous is None else previous.points
        self.vectors = [] if previous is None else previous.vectors
        self.window = None

    def record(self, system: AssembledSystem, vectors) -> None:
        self.points = system.points
        self.vectors = [system.to_physical(v) for v in vectors]
        self.window = _decay_window(system, self.vectors)

    def start(self, system: AssembledSystem, j: int):
        """The start of eigenpair j on `system`, or None (a flat start)
        while this record holds no vectors."""
        if self.points is None:
            return None
        start = np.interp(system.points, self.points, self.vectors[j])
        if system.neumann_lower:  # undo to_physical
            start[0] /= _SQRT2
        return start


def refined_lowest_eigenvalues(
    system: AssembledSystem,
    count: int,
    seeds: Optional[np.ndarray] = None,
    shapes: Optional[StartShapes] = None,
):
    """Smallest eigenvalues polished past the bisection noise floor.

    Sturm bisection locates each eigenvalue to about eps * ||H||, which on
    a grid of spacing h means eps / h^2 in absolute terms and dominates
    the O(h^2) discretization error once grids get fine.  Each value is
    therefore refined through its inverse-iteration eigenvector: the
    Rayleigh quotient of an eigenvector with residual r is accurate to
    r^2 / gap, which lands near machine precision.

    `seeds` are predicted eigenvalues: from the ladder's coarser levels
    (_ladder), the pre-solve (solve), a sweep's earlier pre-solves
    (_sweep), or an adaptive solve of the same or a nearby operator
    (_fixed_grid_chain's callers).  Given them,
    bisection is skipped: inverse iteration starts from each prediction,
    and one check judges the polished values: they must be strictly
    increasing, well separated and exactly as many as one Sturm count
    finds just above the last of them (tridiag.are_lowest_eigenvalues),
    which makes them the lowest `count` in order.  The level has one
    fallback: if a window cut proves coupled (_polished), inverse
    iteration fails or the check does (a prediction nearer another
    eigenvalue, or near-degenerate predictions polished onto one
    eigenvalue), it bisects the whole level and polishes from flat starts.

    `shapes` carries eigenvectors between the levels of one interval.
    While it has no decay window, this level's vectors are recorded in
    it, and with them the window (StartShapes).  Once it holds vectors,
    the seeded iteration for eigenpair j starts from its vector j, needs
    about one sweep and skips the polish sweeps that damp a flat start's
    imprint (see tridiag.inverse_iteration).  The recording level starts
    from the vectors of the record `shapes` continues, if any
    (_fixed_grid_chain, _sweep); a flat start and its polish serve it
    otherwise, and the fallback always.

    On every seeded level after the recording one, inverse iteration,
    the Rayleigh quotients and the starts run on the level's rows inside
    the window, and the returned vectors are zero outside it.  The
    recording level, the fallback and the Sturm count that certifies the
    values stay on the whole level: only a count on the whole matrix can
    tell that no eigenvalue of it lies below the polished ones.

    Returns (eigenvalues, ground_state_matrix_vector).
    """
    record = shapes is not None and shapes.window is None
    polished = None
    if seeds is not None and len(seeds) != count:
        raise ValueError(f"need {count} seeds, got {len(seeds)}")
    if seeds is not None:
        try:
            polished = _polished(system, seeds, shapes, keep=record)
        except SolverFailure:
            pass
        if polished is not None and not tridiag.are_lowest_eigenvalues(
            system.diag, system.offdiag, polished[0]
        ):
            polished = None
    if polished is None:
        raw = tridiag.lowest_eigenvalues(system.diag, system.offdiag, count)
        polished = _polished(system, raw, keep=record)
    refined, vectors = polished
    if record:
        shapes.record(system, vectors)
    return refined, vectors[0]


def _polished(system: AssembledSystem, estimates, shapes=None, keep=False):
    """Rayleigh quotients of the inverse-iteration vectors at `estimates`,
    each started from `shapes` (a flat start without), and the vectors:
    all of them if `keep`, else only the first, so that a fine level
    holds one full-length vector at a time besides them.  None if a
    window cut proves coupled.

    Once `shapes` holds a decay window (t_lo, t_hi), read off the
    recording level's eigenvectors (StartShapes), the iteration, the
    Rayleigh quotient and the starts run on the level's rows with points
    in [t_lo, t_hi] (found by searchsorted), as views of the level's
    arrays; a window of fewer than 2 rows leaves the level whole.  Each
    vector comes back embedded in zeros on the level's own points, where
    it has the window's residual plus |offdiag[cut] v[edge]| at each cut
    row, the coupling that the cut drops.  Each must be within
    inverse iteration's residual floor, so the embedded vector is as
    converged as one polished on the whole level; a cut that drops more
    proves coupled, and the level takes the one fallback of
    refined_lowest_eigenvalues.
    """
    n = len(system.diag)
    lo, hi = 0, n
    if shapes is not None and shapes.window is not None:
        t_lo, t_hi = shapes.window
        lo = int(np.searchsorted(system.points, t_lo, "left"))
        hi = int(np.searchsorted(system.points, t_hi, "right"))
        if hi - lo < 2:
            lo, hi = 0, n
    window = system if (lo, hi) == (0, n) else system.rows(lo, hi)
    refined = np.empty(len(estimates))
    vectors = []
    for j, lam in enumerate(estimates):
        # the start is passed as a temporary, so that inverse_iteration
        # holds the only reference and can drop it once it has normalized it
        v = tridiag.inverse_iteration(
            window.diag, window.offdiag, float(lam),
            None if shapes is None else shapes.start(window, j),
        )
        if window is not system:
            floor = tridiag._residual_floor(window.offdiag, float(lam))
            if (lo > 0 and abs(system.offdiag[lo - 1] * v[0]) > floor) or (
                hi < n and abs(system.offdiag[hi - 1] * v[-1]) > floor
            ):
                return None
        refined[j] = window.rayleigh_quotient(v)
        if keep or j == 0:
            if window is not system:
                embedded = np.zeros(n)
                embedded[lo:hi] = v
                v = embedded
            vectors.append(v)
    return refined, vectors


def _decay_window(system: AssembledSystem, vectors):
    """(t_lo, t_hi): the stretch of the system's interval from one sample
    outside the first row to one sample outside the last row where the
    envelope of the physical `vectors` (the largest |v_j| at each row)
    exceeds DECAY_FLOOR of its peak; -inf or inf at an end that holds
    such a row.  A Neumann lower end is never cut.
    """
    envelope = np.max(np.abs(vectors), axis=0)
    held = np.flatnonzero(envelope > DECAY_FLOOR * np.max(envelope))
    first, last = held[0] - 1, held[-1] + 1
    t_lo = -math.inf if first < 0 or system.neumann_lower else float(system.points[first])
    t_hi = math.inf if last == len(envelope) else float(system.points[last])
    return t_lo, t_hi


def _ladder(potential, lower, upper, sizes, count, geometry, seeds, shapes=None):
    """The refinement ladder on (lower, upper): one level per size in
    `sizes`, yielding (n, eigenvalues, step, system, ground vector) for
    each, where step is the change of the eigenvalues from the level
    before (None at the first level).

    A level takes from the level before it its potential samples when
    n = 2m + 1 (see assemble_hamiltonian) and its seeds: `seeds` at the
    first level, then the previous values, then eigenvalues + step / 4
    (the error goes like h^2, so each step is a quarter of the last).
    Every level after the first starts inverse iteration from the first
    level's eigenvectors, recorded in `shapes` (a new StartShapes if
    None; one that continues another ladder's record starts the first
    level from its vectors); a seeded level whose window cut,
    polish or check fails takes the one fallback, bisection of the whole
    level (refined_lowest_eigenvalues).  A level's matrix is kept until
    the next one is assembled, and its vector is freed before it, also
    when the consumer stops there: of the orders measured, this one takes
    the fewest page faults.

    Consumer rule: drop the level's system and vector before asking for
    the next level, and never iterate the ladder through `enumerate` or
    collect its records, which would hold both while the next level is
    solved.
    """
    shapes = StartShapes() if shapes is None else shapes
    lam = step = system = None
    for n in sizes:
        # with n = 2m + 1 the level below's points are every other point
        carry = system is not None and n == 2 * m + 1
        system = assemble_hamiltonian(
            potential, GridSpec(lower, upper, n), geometry,
            coarse_values=system.potential_values if carry else None,
        )
        if lam is not None:
            seeds = lam if step is None else lam + step / 4.0
        refined, v = refined_lowest_eigenvalues(system, count, seeds=seeds, shapes=shapes)
        step = None if lam is None else refined - lam
        lam, m = refined, n
        try:
            yield n, lam, step, system, v
        finally:
            del v  # also when the consumer stops at this level


def _fixed_grid_chain(grid: GridSpec):
    """lambda1 on `grid` for a chain of nearby potentials: a function
    (potential, seed) -> lambda1, from the two-level ladder on `grid`'s
    (n - 1) / 2 coarsening (twice the spacing) and `grid`, plus one
    Richardson step; Dirichlet ends.  `seed` predicts the coarse level's
    lambda1 (say, that of a nearby potential); a poor seed costs a
    bisection, not accuracy.  Callers see an O(h^2) error that is a
    smooth function of the potential parameters, so it cancels in finite
    differences and comparisons.

    The first call's coarse level starts inverse iteration flat.  From
    the second call on, it starts from the coarse eigenvector of the
    call before (the record its StartShapes continues), as finer ladder
    levels start from coarser ones: it runs no polish sweeps, and takes
    about one sweep where the potentials are close (the stencil's
    points, Brent's last steps).  The start only speeds the iteration:
    each value is checked as any seeded level's
    (refined_lowest_eigenvalues) and comes out the same to rounding.
    One coarse vector is held between calls.
    """
    sizes = ((grid.n - 1) // 2, grid.n)
    previous = None

    def lambda1(potential, seed: float) -> float:
        nonlocal previous
        shapes = StartShapes(previous)
        ladder = _ladder(potential, grid.lower, grid.upper, sizes, 1, Geometry.FULL_LINE,
                         np.array([seed]), shapes)
        # `_` holds the coarse vector while the fine level is solved, not its matrix
        for _, lam, step, _, _ in ladder:
            pass
        previous = shapes
        return float(lam[0] + step[0] / 3.0)

    return lambda1


def truncation_interval(potential, geometry: Geometry, lambda_bound: float):
    """The solve interval for eigenvalues up to lambda_bound: out to
    where V exceeds cap = max(10, 2 lambda_bound + 3) by
    TRUNCATION_MARGIN (potential.turning_point), plus TRUNCATION_PAD;
    (-radius, radius) on the full line, (0, radius) on the half line.

    The discarded region is classically forbidden for every eigenvalue
    below cap, so truncation error is negligible next to discretization
    error.
    """
    cap = max(10.0, 2.0 * lambda_bound + 3.0)
    radius = potential.turning_point(cap + TRUNCATION_MARGIN) + TRUNCATION_PAD
    if geometry is Geometry.FULL_LINE:
        return -radius, radius
    return 0.0, radius


@dataclass(frozen=True)
class EigenResult:
    """Converged eigenvalues and sampled ground state of one operator."""

    eigenvalues: tuple
    ground_state_points: np.ndarray
    ground_state_values: np.ndarray
    quadrature_weights: np.ndarray
    achieved_tol_estimate: float
    grid_used: GridSpec
    iterations: int

    def __post_init__(self):
        lam = self.eigenvalues
        if any(lam[i + 1] <= lam[i] for i in range(len(lam) - 1)):
            raise SolverFailure(
                "eigenvalues are not strictly increasing", best_estimate=lam
            )

    @property
    def lambda1(self) -> float:
        return self.eigenvalues[0]

    @property
    def lambda2(self) -> float:
        return self.eigenvalues[1]


def solve_on_interval(
    potential,
    lower: float,
    upper: float,
    count: int = 2,
    tol: float = 1e-8,
    geometry: Geometry = Geometry.FULL_LINE,
    seeds: Optional[np.ndarray] = None,
) -> EigenResult:
    """Adaptive solve on a fixed interval, with the lower-end condition of
    `geometry` (see assemble_hamiltonian) and Dirichlet at the upper end.

    Walks the ladder from _N_START points with n -> 2n + 1, up to _N_CAP
    points, until a level's step (its raw eigenvalue change, see _ladder)
    drops below tol/2 for every requested eigenvalue, then one Richardson
    step, step / 3, removes the leading O(h^2) error from that level's
    values; achieved_tol_estimate adds the step and the correction.
    `seeds` predict the first level's eigenvalues (solve passes its
    pre-solve's).  count and tol are checked as in solve.
    """
    _check_request(count, tol)
    sizes = [_N_START]
    while 2 * sizes[-1] + 1 <= _N_CAP:
        sizes.append(2 * sizes[-1] + 1)
    for n, lam, step, system, v in _ladder(potential, lower, upper, sizes, count, geometry,
                                           seeds):
        # The ground state comes from the last level up to _N_VECTOR_CAP
        # (the first level is below it), as physical samples only.
        if n <= _N_VECTOR_CAP:
            ground = (
                system.points,
                system.to_physical(v) / math.sqrt(system.spacing),
                system.quadrature_weights(),
            )
        del system, v  # see _ladder's consumer rule
        if step is not None and np.max(np.abs(step)) < 0.5 * tol:
            correction = step / 3.0
            extrapolated = lam + correction
            achieved = float(np.max(np.abs(step) + np.abs(correction)))
            points, u, weights = ground
            if np.min(u) < -1e-10 * np.max(u):
                raise SolverFailure(
                    "ground state came out with a sign change",
                    best_estimate=tuple(extrapolated),
                )
            return EigenResult(
                eigenvalues=tuple(float(x) for x in extrapolated),
                ground_state_points=points,
                ground_state_values=u,
                quadrature_weights=weights,
                achieved_tol_estimate=achieved,
                grid_used=GridSpec(lower, upper, n),
                iterations=sizes.index(n) + 1,
            )
    raise SolverFailure(
        f"grid refinement cap n > {_N_CAP} reached before tolerance {tol}",
        best_estimate=tuple(float(x) for x in lam),
    )


def _check_request(count: int, tol: float) -> None:
    """Reject a count outside [1, MAX_COUNT] and a tol below 1e-11 (nan
    included) with ValueError, before any eigenvalue work."""
    if not tol >= 1e-11:  # written so that nan fails too
        raise ValueError(f"tol must be at least 1e-11 for this discretization, got {tol}")
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"count must be in [1, {MAX_COUNT}], got {count}")


# The sweep of solves the caller is inside (_sweep), None outside one:
# `values`, the eigenvalues of its last two pre-solves, and `shapes`, the
# eigenvectors of its last seeded pre-solve (StartShapes), or None.
_SWEEP = contextvars.ContextVar("montspec_sweep", default=None)


@contextlib.contextmanager
def _sweep():
    """A sweep of solves at evenly spaced values of one parameter
    (certify.scan's alpha), each asking for the same count of
    eigenvalues.  Inside it, every solve after the first seeds its
    pre-solve with _extrapolated's prediction from the sweep's earlier
    pre-solves instead of bisecting it, and starts its inverse iteration
    from the last seeded pre-solve's eigenvectors (the first seeded one
    starts flat).  A seeded pre-solve is polished and checked as any
    seeded ladder level (refined_lowest_eigenvalues) and bisects only if
    that fails, so a sweep normally bisects once.  Only the pre-solve
    changes: the interval, the ladder and the stop rule are each solve's
    own.
    """
    token = _SWEEP.set(SimpleNamespace(values=[], shapes=None))
    try:
        yield
    finally:
        _SWEEP.reset(token)


def _extrapolated(previous):
    """The next pre-solve eigenvalues of a sweep at evenly spaced points,
    linearly extrapolated from the last two of `previous` (the last one
    itself after the first)."""
    if len(previous) == 1:
        return previous[-1]
    return 2.0 * previous[-1] - previous[-2]


def solve(
    problem: Union[OperatorSpec, PotentialKind],
    count: int = 2,
    tol: float = 1e-8,
    geometry: Optional[Geometry] = None,
) -> EigenResult:
    """Eigenvalues and ground state of a confining operator to tolerance tol.

    Accepts either an OperatorSpec (geometry read from it) or a bare
    potential kind with a `geometry` keyword (default the full line); a
    geometry that is not a Geometry member is a ValueError, and so is a
    count outside [1, MAX_COUNT].  The domain comes
    from a coarse pre-solve on truncation_interval's interval for cap 10
    at the first ladder level's size, then re-truncates at the highest
    eigenvalue it found, so the potential dominates every requested
    eigenvalue with margin.  The pre-solve bisects, unless the solve is
    inside a sweep (_sweep) that predicts its eigenvalues.  Its
    eigenvalues seed the first ladder level, which bisects again only if
    they fail its check, so a solve normally bisects once, and a sweep
    of solves normally once in all.
    """
    _check_request(count, tol)
    if isinstance(problem, OperatorSpec):
        if geometry is not None:
            raise ValueError("geometry is read from the OperatorSpec")
        potential, geometry = problem.potential(), problem.geometry
    else:
        potential = problem
        geometry = Geometry.FULL_LINE if geometry is None else geometry

    lower, upper = truncation_interval(potential, geometry, 0.0)
    coarse = assemble_hamiltonian(potential, GridSpec(lower, upper, _N_START), geometry)
    sweep = _SWEEP.get()
    if sweep is not None and sweep.values:
        sweep.shapes = StartShapes(sweep.shapes)
        lam_coarse, _ = refined_lowest_eigenvalues(
            coarse, count, seeds=_extrapolated(sweep.values), shapes=sweep.shapes
        )
    else:
        lam_coarse = tridiag.lowest_eigenvalues(coarse.diag, coarse.offdiag, count)
    if sweep is not None:
        sweep.values = sweep.values[-1:] + [lam_coarse]
    lower, upper = truncation_interval(potential, geometry, float(lam_coarse[-1]))
    return solve_on_interval(
        potential,
        lower,
        upper,
        count=count,
        tol=tol,
        geometry=geometry,
        seeds=lam_coarse,
    )


def dirichlet_well_lambda(T: float, k: int) -> float:
    """First eigenvalue of -d2/dt2 + T^k on {t > T}, Dirichlet at t=0.

    The ground state is sin(sqrt(lambda) t) glued to a decaying
    exponential at t=T, which forces tan(sqrt(lambda) T) = -sqrt(lambda)/omega
    with omega = sqrt(T^k - lambda).  That equation has a unique root with
    sqrt(lambda) in (pi/2T, pi/T); bisection pins it to 1e-12.
    """
    if not T > 1.0:
        raise ValueError("need T > 1")
    # exponent clamp: a barrier past e^700 acts as a hard wall in double
    # precision, so the clamp does not move the root
    barrier = math.exp(min(k * math.log(T), 700.0))
    ceiling = (math.pi / T) ** 2
    if not barrier > ceiling:
        raise ValueError("need T^k above the Dirichlet-box ceiling (pi/T)^2")

    def gluing(s: float) -> float:
        omega = math.sqrt(barrier - s * s)
        return math.tan(s * T) + s / omega

    a = (math.pi / (2.0 * T)) * (1.0 + 1e-9)
    # upper end nudged one ulp past pi/T: for enormous barriers the root
    # sits within rounding of pi/T itself and tan(pi_float) < 0
    b = (math.pi / T) * (1.0 + 8e-16)
    fa = gluing(a)
    if not fa < 0.0 < gluing(b):
        raise SolverFailure("gluing equation failed to bracket a root")
    while b - a > 1e-12:
        mid = 0.5 * (a + b)
        if gluing(mid) < 0.0:
            a = mid
        else:
            b = mid
    s = 0.5 * (a + b)
    return s * s
