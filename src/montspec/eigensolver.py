"""Adaptive eigenvalue solver for confining 1D Schrodinger operators.

Second-order central differences on a truncated interval, refined on
one ladder of grids (_ladder; each level's eigenvalues are polished by
inverse iteration, seeded and started from the levels below it, with
bisection of the whole level as the one fallback), and one Richardson
extrapolation step on the reported eigenvalues, from the O(h^2) step
that _ladder yields: over as many levels as tol needs in
solve_on_interval, over its first two in _fixed_grid_lambda1.
solve_on_interval stops a ladder early only to fail: once its steps
shrink at the O(h^2) rate (_shows_h2_rate), a forecast tells when the
levels left below the grid cap cannot reach tol.
A ladder level is named by its GridSpec: the matrix, the points and the
trapezoid weight (the spacing h) all follow from it.
Past a ladder's first level, inverse iteration runs only on the level's
decay window, the rows where the first level's eigenvectors are above
rounding (StartShapes, _polished).
Every solve bisects once, on a small pre-solve grid (solve), whose
values seed the ladder.  A fixed-grid evaluation (_fixed_grid_lambda1)
is one such ladder, seeded by its caller: nothing is carried from one
call to the next.
Every level is Dirichlet at both ends of its interval; the
operators.Geometry domain (the full line, or the half line with a
Dirichlet condition at t = 0) only picks the interval
(truncation_interval).  A zero-slope condition at t = 0 is the even
extension's: on a symmetric grid of odd n, the full line's even vectors
are the mirror-ghost-point scheme on the half grid.
"""

import math
from dataclasses import dataclass
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

# solve's pre-solve bisects on _N_PRESOLVE points to choose the interval
# and seed the ladder, whose first level has _N_START points.
_N_PRESOLVE = 512
_N_START = 2048
_N_CAP = 2**20

# A ladder is in its O(h^2) regime when every eigenvalue's step shrank
# by a factor strictly between these two from the level before; there,
# no later level shrinks a step by _RATE_BOUND or more (_shows_h2_rate).
_RATIO_RANGE = (3.5, 4.5)
_RATE_BOUND = 6.0

# The reported ground state is sampled on a ladder level at most this
# size: eigenvector rounding noise grows like eps/h^2, so on very fine
# grids it would exceed the vector's own O(h^2) discretization error.
_N_VECTOR_CAP = 66000

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
        if not math.isfinite(self.upper - self.lower):  # an infinite end or width
            raise ValueError(f"need a finite interval, got ({self.lower}, {self.upper})")
        if self.n < 16:
            raise ValueError("need at least 16 interior points")

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.n + 1)


def _grid_points(lower: float, spacing: float, start: int, stop: int, step: int = 1):
    """The grid points lower + spacing * i for i in range(start, stop, step)."""
    return lower + spacing * np.arange(start, stop, step)


@dataclass(frozen=True)
class AssembledSystem:
    """Symmetric tridiagonal discretization of -d2/dt2 + V, Dirichlet at
    both ends.

    An assembled system is a whole level: its boundary points are no
    unknowns, so row i samples the grid point of grid index i + 1 (lower +
    spacing * (i + 1), as _grid_points builds it).  A window is the row
    range [lo, hi) of such a level (`rows`), and its caller keeps lo.

    A system holds three arrays of its size, diag, offdiag and
    potential_values, and no points: the ladder hands over between its
    levels by grid index (StartShapes).
    """

    diag: np.ndarray
    offdiag: np.ndarray
    potential_values: np.ndarray
    spacing: float

    def rows(self, lo: int, hi: int) -> "AssembledSystem":
        """The principal submatrix on rows [lo, hi), as views of this
        system's arrays: Dirichlet at each cut."""
        return AssembledSystem(
            diag=self.diag[lo:hi],
            offdiag=self.offdiag[lo:hi - 1],
            potential_values=self.potential_values[lo:hi],
            spacing=self.spacing,
        )

    def rayleigh_quotient(self, v: np.ndarray) -> float:
        """v.T H v for a unit vector v, evaluated without cancellation.

        The kinetic part is summed as squares of bond differences, so the
        result carries relative rounding O(eps) instead of the
        eps * ||H|| ~ eps / h^2 error of the naive triple product.  This
        is what lets eigenvalues be polished well below the Sturm
        bisection noise floor on fine grids.
        """
        inv_h2 = 1.0 / (self.spacing * self.spacing)
        bonds = np.diff(v)
        kinetic = inv_h2 * (v[0] * v[0] + tridiag.dot(bonds, bonds) + v[-1] * v[-1])
        return float(kinetic + tridiag.dot(self.potential_values, v, v))


def assemble_hamiltonian(
    potential,
    grid: GridSpec,
    *,
    coarse_values: Optional[np.ndarray] = None,
) -> AssembledSystem:
    """Three-point discretization of -d2/dt2 + V on the grid's n interior
    points, Dirichlet at both ends: the boundary points are dropped (their
    value is 0), so row i is grid index i + 1.

    `coarse_values` are the potential_values of the same potential on the
    grid with (n - 1) / 2 points on the same interval (n odd), the
    refinement ladder's level below this one.  That grid's spacing is
    exactly twice this one's, so its points are every other point of this
    grid, bit for bit (the even grid indices), and V is evaluated only at
    the (n + 1) / 2 odd grid indices between them.
    """
    h = grid.spacing
    inv_h2 = 1.0 / (h * h)
    if coarse_values is None:
        values = np.asarray(potential.value(_grid_points(grid.lower, h, 1, grid.n + 1)),
                            dtype=float)
    else:
        # the coarse points are the even grid indices, rows 1, 3, ...
        if grid.n % 2 == 0 or len(coarse_values) != grid.n // 2:
            raise ValueError(
                f"{len(coarse_values)} coarse values do not fit a grid of n = {grid.n}"
            )
        values = np.empty(grid.n)
        values[1::2] = coarse_values
        # only the odd grid indices between them are built and sampled
        values[0::2] = potential.value(_grid_points(grid.lower, h, 1, grid.n + 1, 2))
    return AssembledSystem(
        diag=2.0 * inv_h2 + values,
        offdiag=np.full(grid.n - 1, -inv_h2),
        potential_values=values,
        spacing=h,
    )


class StartShapes:
    """One refinement level's polished eigenvectors, kept to start inverse
    iteration on the finer grids of the same interval.

    A record holds the vectors (their scale does not matter, as inverse
    iteration normalizes its start) and of their level its grid size `n`:
    no points.  The recorded level is whole, so its row i is grid index
    i + 1.  A record lives inside one ladder (_ladder), on its one interval,
    so a level of n' interior points is the recorded grid refined
    ratio = (n' + 1) / (n + 1) times, an exact power of two, and its grid
    index g sits at g / ratio on the recorded grid, bit for bit.
    Each later level starts eigenpair j from vector j, linearly
    interpolated in those index units onto the rows [lo, hi) that level is
    polished on (its decay window, or the whole level); at ratio 1 that is
    vector j itself.  Only one level's vectors are held: the ladder's
    first level's, `count` arrays of about _N_START doubles, the very
    arrays that level polished (its ground vector is vector 0), not copies.

    A record is empty or recorded.  The first level given an empty one
    starts flat and records its own vectors (refined_lowest_eigenvalues),
    and with them the ladder's decay window (g_lo, g_hi), two grid
    indices of the recorded level (_decay_window): the stretch of the
    grid where those vectors exceed DECAY_FLOOR of their peak.
    Every later seeded level polishes only its rows inside it; a cut that
    drops a coupling above inverse iteration's residual floor (_polished)
    sends the level to its one fallback, bisection of the whole level and
    flat starts (refined_lowest_eigenvalues).
    """

    def __init__(self):
        self.vectors = self.n = self.window = None

    def record(self, vectors) -> None:
        """Record a whole level's vectors, its size and decay window."""
        self.vectors = vectors
        self.n = len(vectors[0])
        self.window = _decay_window(vectors)

    def start(self, j: int, lo: int, hi: int, ratio: int):
        """The start of eigenpair j on rows [lo, hi) of a whole level
        refined `ratio` times from the recorded one: grid indices lo + 1
        to hi."""
        return np.interp(np.arange(lo + 1, hi + 1) / ratio,
                         np.arange(1, self.n + 1), self.vectors[j])


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
    (_ladder), the pre-solve (solve), or an adaptive solve of the same or
    a nearby operator (_fixed_grid_lambda1's callers).  Given them,
    bisection is skipped: inverse iteration starts from each prediction,
    and one check judges the polished values: they must be strictly
    increasing, well separated and exactly as many as one Sturm count
    finds just above the last of them (tridiag.are_lowest_eigenvalues),
    which makes them the lowest `count` in order.  The level has one
    fallback: if a window cut proves coupled (_polished), inverse
    iteration fails or the check does (a prediction nearer another
    eigenvalue, or near-degenerate predictions polished onto one
    eigenvalue), it bisects the whole level and polishes from flat starts.

    `shapes` carries eigenvectors between the levels of one ladder.
    While it is empty, this level starts flat and its vectors are
    recorded in it, and with them the window (StartShapes).  Once it is
    recorded, the seeded iteration for eigenpair j starts from its vector
    j, needs about one sweep and skips the polish sweeps that damp a flat
    start's imprint (see tridiag.inverse_iteration).  The fallback always
    starts flat.

    On every seeded level after the recording one, inverse iteration,
    the Rayleigh quotients and the starts run on the level's rows inside
    the window, and the returned vectors are zero outside it.  The
    recording level, the fallback and the Sturm count that certifies the
    values stay on the whole level: only a count on the whole matrix can
    tell that no eigenvalue of it lies below the polished ones.

    Returns (eigenvalues, ground_state_matrix_vector).  The vector is None
    on a system of more than _N_VECTOR_CAP rows: no consumer reads one
    there (_ladder), so such a level keeps no eigenvector but the ones
    it records, and holds at most one other at a time.
    """
    record = shapes is not None and shapes.window is None
    ground = len(system.diag) <= _N_VECTOR_CAP
    keep = count if record else int(ground)
    polished = None
    if seeds is not None and len(seeds) != count:
        raise ValueError(f"need {count} seeds, got {len(seeds)}")
    if seeds is not None:
        try:
            polished = _polished(system, seeds, None if record else shapes, keep)
        except SolverFailure:
            pass
        if polished is not None and not tridiag.are_lowest_eigenvalues(
            system.diag, system.offdiag, polished[0]
        ):
            polished = None
    if polished is None:
        raw = tridiag.lowest_eigenvalues(system.diag, system.offdiag, count)
        polished = _polished(system, raw, keep=keep)
    refined, vectors = polished
    if record:
        shapes.record(vectors)
    return refined, vectors[0] if ground else None


def _polished(system: AssembledSystem, estimates, shapes=None, keep=0):
    """Rayleigh quotients of the inverse-iteration vectors at `estimates`,
    each started from the recorded `shapes` (a flat start without), and
    the first `keep` vectors; each other one is dropped before the next
    eigenpair is polished.  None if a window cut proves coupled.

    `system` is a whole level, whose row i is grid index i + 1.  `shapes`
    holds a decay window (g_lo, g_hi), grid indices of the recording level
    (StartShapes); this level, `ratio` times as fine, holds them at grid
    indices g_lo * ratio and g_hi * ratio, and the iteration, the Rayleigh
    quotient and the starts run on its rows from the one to the other,
    [lo, hi) = [g_lo * ratio - 1, g_hi * ratio), as views of the level's
    arrays; a window of fewer than 2 rows leaves the level whole.  Each kept vector comes back embedded in zeros
    on the level's own rows, where it has the window's residual plus
    |offdiag[cut] v[edge]| at each cut row, the coupling that the cut
    drops.  Each must be within
    inverse iteration's residual floor, so the embedded vector is as
    converged as one polished on the whole level; a cut that drops more
    proves coupled, and the level takes the one fallback of
    refined_lowest_eigenvalues.
    """
    n = len(system.diag)
    lo, hi = 0, n
    if shapes is not None:
        ratio = (n + 1) // (shapes.n + 1)
        g_lo, g_hi = shapes.window
        if g_lo is not None:
            lo = max(g_lo * ratio - 1, 0)
        if g_hi is not None:
            hi = min(g_hi * ratio, n)
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
            None if shapes is None else shapes.start(j, lo, hi, ratio),
        )
        if window is not system:
            floor = tridiag._residual_floor(window.offdiag, float(lam))
            if (lo > 0 and abs(system.offdiag[lo - 1] * v[0]) > floor) or (
                hi < n and abs(system.offdiag[hi - 1] * v[-1]) > floor
            ):
                return None
        refined[j] = window.rayleigh_quotient(v)
        if j < keep:
            if window is not system:
                embedded = np.zeros(n)
                embedded[lo:hi] = v
                v = embedded
            vectors.append(v)
        del v  # not held while the next eigenpair is polished
    return refined, vectors


def _decay_window(vectors):
    """(g_lo, g_hi): the grid indices, on the whole level that `vectors`
    were polished on (row i is grid index i + 1), one sample outside its
    first and its last row where their envelope (the largest |v_j| at each
    row) exceeds DECAY_FLOOR of its peak; None at an end that holds such a
    row.
    """
    envelope = np.max(np.abs(vectors), axis=0)
    held = np.flatnonzero(envelope > DECAY_FLOOR * np.max(envelope))
    first, last = int(held[0]) - 1, int(held[-1]) + 1
    g_lo = None if first < 0 else first + 1
    g_hi = None if last == len(envelope) else last + 1
    return g_lo, g_hi


def _ladder(potential, lower, upper, sizes, count, seeds):
    """The refinement ladder on (lower, upper): one level per size in
    `sizes`, yielding (grid, eigenvalues, step, ground vector) for each,
    where grid is the level's GridSpec (its matrix stays inside the
    ladder), step is the change of the eigenvalues from the level before
    (None at the first level), and the ground vector is None on a level of
    more than _N_VECTOR_CAP rows (refined_lowest_eigenvalues).

    Every ladder is nested, n = 2m + 1 for the level below's m (else
    assemble_hamiltonian raises ValueError), and a level takes from the
    level before it its potential samples and its seeds: `seeds` at the
    first level, then the previous values, then eigenvalues + step / 4
    (the error goes like h^2, so each step is a quarter of the last).
    The first level starts inverse iteration flat, and every level after
    it from the first level's eigenvectors, recorded in the ladder's own
    StartShapes; a seeded level whose window cut,
    polish or check fails takes the one fallback, bisection of the whole
    level (refined_lowest_eigenvalues).  A level's matrix is kept until
    the next one is assembled (the next level reads its potential
    samples), and its vector is freed before it, also
    when the consumer stops there (the first level's lives on as vector 0
    of the ladder's StartShapes): of the orders measured, this one takes
    the fewest page faults.

    At its peak a level of n rows holds about eight arrays of n doubles:
    its system's three (AssembledSystem), the vector being polished, and
    the four that each inverse-iteration sweep hands LAPACK
    (tridiag.inverse_iteration); the ground vector, where there is one,
    is a ninth.

    Consumer rule: read a ground vector only up to _N_VECTOR_CAP rows
    (there is none above), drop it before asking for the next level, and
    never iterate the ladder through `enumerate` or collect its records,
    which would hold it while the next level is solved.
    """
    shapes = StartShapes()
    lam = step = system = None
    for n in sizes:
        grid = GridSpec(lower, upper, n)
        # the level below's points are every other point
        system = assemble_hamiltonian(
            potential, grid,
            coarse_values=None if system is None else system.potential_values,
        )
        if lam is not None:
            seeds = lam if step is None else lam + step / 4.0
        refined, v = refined_lowest_eigenvalues(system, count, seeds=seeds, shapes=shapes)
        step = None if lam is None else refined - lam
        lam = refined
        try:
            yield grid, lam, step, v
        finally:
            del v  # also when the consumer stops at this level


def _fixed_grid_lambda1(potential, lower: float, upper: float, seed: float) -> float:
    """lambda1 from the ladder's first two levels, _N_START and
    2 _N_START + 1 points on (lower, upper), plus one Richardson step.
    Every fixed-grid evaluation runs on that one grid pair: its callers
    only compare lambda1 along a parameter of the potential, and the
    O(h^2) error left after the Richardson step is a smooth function of
    that parameter, so it cancels in finite differences and comparisons
    and no finer grid is needed.  `seed` predicts the coarse level's
    lambda1 (say, that of a nearby potential); a poor seed costs a
    bisection, not accuracy.  A pure function of its arguments: the
    coarse level starts flat, the fine level from the coarse vector, and
    nothing outlives the call.
    """
    ladder = _ladder(potential, lower, upper, (_N_START, 2 * _N_START + 1), 1,
                     np.array([seed]))
    # `_` holds the coarse vector while the fine level is solved: it is
    # vector 0 of the ladder's StartShapes record anyway
    for _, lam, step, _ in ladder:
        pass
    return float(lam[0] + step[0] / 3.0)


def truncation_interval(potential, geometry: Geometry, lambda_bound: float):
    """The solve interval for eigenvalues up to lambda_bound: out to
    where V exceeds cap = max(10, 2 lambda_bound + 3) by
    TRUNCATION_MARGIN (potential.turning_point), plus TRUNCATION_PAD;
    (-radius, radius) on the full line, (0, radius) on the half line.
    The one place that reads a geometry: a value that is not a Geometry
    member is a ValueError.

    The discarded region is classically forbidden for every eigenvalue
    below cap, so truncation error is negligible next to discretization
    error.
    """
    if not isinstance(geometry, Geometry):
        raise ValueError(f"geometry must be a Geometry member, got {geometry!r}")
    cap = max(10.0, 2.0 * lambda_bound + 3.0)
    radius = potential.turning_point(cap + TRUNCATION_MARGIN) + TRUNCATION_PAD
    if geometry is Geometry.FULL_LINE:
        return -radius, radius
    return 0.0, radius


@dataclass(frozen=True)
class EigenResult:
    """Converged eigenvalues and sampled ground state of one operator.

    The ground state is sampled on `ground_state_grid`, the ladder level
    its vector lives on: grid_used, or the last level of at most
    _N_VECTOR_CAP points on the same interval.  Its points are that
    grid's interior points, and its trapezoid weight is the grid's
    spacing h at every one of them (the integrand vanishes at both ends).
    """

    eigenvalues: tuple
    ground_state_values: np.ndarray
    achieved_tol_estimate: float
    grid_used: GridSpec
    iterations: int
    ground_state_grid: GridSpec

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

    @property
    def ground_state_points(self) -> np.ndarray:
        grid = self.ground_state_grid
        return _grid_points(grid.lower, grid.spacing, 1, grid.n + 1)


def solve_on_interval(
    potential,
    lower: float,
    upper: float,
    count: int = 2,
    tol: float = 1e-8,
    seeds: Optional[np.ndarray] = None,
) -> EigenResult:
    """Adaptive solve on a fixed interval, Dirichlet at both ends (solve
    takes the interval from truncation_interval).

    Walks the ladder from _N_START points with n -> 2n + 1, up to _N_CAP
    points, until a level's step (its raw eigenvalue change, see _ladder)
    drops below tol/2 for every requested eigenvalue, then one Richardson
    step, step / 3, removes the leading O(h^2) error from that level's
    values; achieved_tol_estimate adds the step and the correction.
    A level whose step is still too large, and whose steps shrank from the
    level before at the O(h^2) rate (_shows_h2_rate), fails at once if
    even the levels left below _N_CAP could not bring its largest step
    under tol/2, that is if max |step| / _RATE_BOUND**levels_left is at
    least tol/2: the cap is known to come first, so those levels are not
    built.  A success is the same either way.  A forecast failure
    carries the last level's Richardson values as its best estimate; a
    failure at the cap carries those of the last level whose steps showed
    the O(h^2) rate (_shows_h2_rate), the regime where Richardson's step
    is sound.  A near-degenerate pair can leave that regime on the finest
    levels, where rounding drifts the polished values apart; without such
    a level it carries the last level's (the raw values if only one level
    ran).
    `seeds` predict the first level's eigenvalues (solve passes its
    pre-solve's).  count and tol are checked as in solve.
    """
    _check_request(count, tol)
    sizes = [_N_START]
    while 2 * sizes[-1] + 1 <= _N_CAP:
        sizes.append(2 * sizes[-1] + 1)
    previous = trusted = None
    for grid, lam, step, v in _ladder(potential, lower, upper, sizes, count, seeds):
        # The ground state comes from the last level up to _N_VECTOR_CAP
        # (the first level is below it), as samples on its grid.
        if v is not None:
            ground = (v / math.sqrt(grid.spacing), grid)
        del v  # see _ladder's consumer rule
        if step is None:
            continue
        correction = step / 3.0
        extrapolated = lam + correction
        if np.max(np.abs(step)) < 0.5 * tol:
            achieved = float(np.max(np.abs(step) + np.abs(correction)))
            u, ground_grid = ground
            if np.min(u) < -1e-10 * np.max(u):
                raise SolverFailure(
                    "ground state came out with a sign change",
                    best_estimate=tuple(extrapolated),
                )
            return EigenResult(
                eigenvalues=tuple(float(x) for x in extrapolated),
                ground_state_values=u,
                achieved_tol_estimate=achieved,
                grid_used=grid,
                iterations=sizes.index(grid.n) + 1,
                ground_state_grid=ground_grid,
            )
        if previous is not None and _shows_h2_rate(previous, step):
            trusted = extrapolated
            levels_left = len(sizes) - 1 - sizes.index(grid.n)
            floor = float(np.max(np.abs(step))) / _RATE_BOUND ** levels_left
            if levels_left > 0 and floor >= 0.5 * tol:
                j = int(np.argmax(np.abs(step)))
                raise SolverFailure(
                    f"grid refinement cap n > {_N_CAP} would be reached before tolerance "
                    f"{tol}: at n = {grid.n} the largest step {abs(step[j]):.3g} shrinks "
                    f"{abs(previous[j] / step[j]):.2f}-fold per level; the {levels_left} "
                    f"levels left bring it no lower than {floor:.2g} "
                    f"(needs < {0.5 * tol:.2g})",
                    best_estimate=tuple(float(x) for x in extrapolated),
                )
        previous = step
    if trusted is None:
        trusted = lam if step is None else extrapolated
    raise SolverFailure(
        f"grid refinement cap n > {_N_CAP} reached before tolerance {tol}",
        best_estimate=tuple(float(x) for x in trusted),
    )


def _shows_h2_rate(previous_step, step) -> bool:
    """Whether every |previous_step| / |step| lies strictly inside
    _RATIO_RANGE.  The test is written multiplied out, so that a zero or
    nan step fails it without a division (and without a RuntimeWarning).

    The finite-difference eigenvalues carry the error expansion
    c2 h^2 + c4 h^4 + ... (Paine, de Hoog & Anderssen 1981), and h halves
    per level, so the ratio of consecutive steps is 4 (1 + d), with d of
    order h^2: its deviation from 4 shrinks about 4-fold per level.  The
    ladder is taken to be in that regime when every eigenvalue's ratio
    lies strictly inside _RATIO_RANGE, (3.5, 4.5): then |d| < 1/8 now,
    below about 1/32 a level later, and no later level divides a step by
    more than about 4.2, so levels_left more levels leave at least
    max |step| / _RATE_BOUND**levels_left with _RATE_BOUND = 6, the
    forecast solve_on_interval fails on.
    """
    before, now = np.abs(previous_step), np.abs(step)
    low, high = _RATIO_RANGE
    return bool(np.all(low * now < before) and np.all(before < high * now))


def _check_request(count: int, tol: float) -> None:
    """Reject a count outside [1, MAX_COUNT] and a tol below 1e-11 (nan
    included) with ValueError, before any eigenvalue work."""
    if not tol >= 1e-11:  # written so that nan fails too
        raise ValueError(f"tol must be at least 1e-11 for this discretization, got {tol}")
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"count must be in [1, {MAX_COUNT}], got {count}")


def solve(
    problem: Union[OperatorSpec, PotentialKind],
    count: int = 2,
    tol: float = 1e-8,
    geometry: Optional[Geometry] = None,
) -> EigenResult:
    """Eigenvalues and ground state of a confining operator to tolerance tol.

    Accepts either an OperatorSpec (geometry read from it) or a bare
    potential kind with a `geometry` keyword (default the full line); a
    geometry that is not a Geometry member is a ValueError
    (truncation_interval), and so is a count outside [1, MAX_COUNT].  The
    geometry only picks the interval.  The domain comes
    from a coarse pre-solve, one bisection on _N_PRESOLVE points of
    truncation_interval's interval for cap 10, then re-truncates at the
    highest eigenvalue it found, so the potential dominates every
    requested eigenvalue with margin.  The pre-solve's eigenvalues seed
    the first ladder level, which bisects again only if they fail its
    check, so a solve normally bisects once.
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
    coarse = assemble_hamiltonian(potential, GridSpec(lower, upper, _N_PRESOLVE))
    lam_coarse = tridiag.lowest_eigenvalues(coarse.diag, coarse.offdiag, count)
    lower, upper = truncation_interval(potential, geometry, float(lam_coarse[-1]))
    return solve_on_interval(
        potential,
        lower,
        upper,
        count=count,
        tol=tol,
        seeds=lam_coarse,
    )
