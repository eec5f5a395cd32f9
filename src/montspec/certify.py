"""Certification pipeline: alpha scans, minimum location, and the
closed-form inequality chains that pin the unique minimum of
lambda1(alpha) at alpha = 0 for even k.

Certificates are pure arithmetic (no PDE solves), mirroring how the
proof actually runs: the scan and identity layers are a separate,
optional evidence channel.  Each check reads bounds.bounds_table, the
one place the chain's constants, gap floor and radii are computed, and
the regime split k <= 68 (harmonic floor B_k) versus k >= 70 (step-well
floor B~_k) is bounds.SMALL_K_MAX.

Only `scan` and `locate_minimum` solve.  They import the solver modules
when called, so the certificates, the figure tables and `fmt` load
neither numpy nor scipy.
"""

from dataclasses import astuple, dataclass, fields
from enum import Enum
from typing import List, Tuple

from . import bounds
from .errors import SolverFailure
from .optimize import minimize_golden

# Every certified inequality must clear this relative margin, guarding
# against rounding flips without interval arithmetic.
REL_MARGIN_FLOOR = 1e-9

# Scan ceiling: covers both the 3/2 (small k) and 2.83 (large k)
# exclusion thresholds with room to spare.
ALPHA_SCAN_MAX = 3.0

FIGURE_KINDS = ("lambda1comp", "completeproof")


class Regime(Enum):
    SMALL_K = "small"
    LARGE_K = "large"


@dataclass(frozen=True)
class ScanRow:
    """One alpha sample of the first two eigenvalues."""

    alpha: float
    lambda1: float
    lambda2: float
    d_lambda1: float
    gap_ok: bool

    def __post_init__(self):
        if not self.lambda1 < self.lambda2:
            raise SolverFailure(
                "scan row lost eigenvalue ordering",
                best_estimate=(self.lambda1, self.lambda2),
            )


@dataclass(frozen=True)
class CertCheck:
    """One strict inequality lhs > rhs with its relative margin."""

    name: str
    lhs: float
    rhs: float

    @property
    def rel_margin(self) -> float:
        return (self.lhs - self.rhs) / max(abs(self.lhs), abs(self.rhs), 1e-30)

    @property
    def passed(self) -> bool:
        return self.rel_margin > REL_MARGIN_FLOOR


@dataclass(frozen=True)
class CertificateReport:
    """Pass/fail of every inequality in one regime's chain for one k."""

    k: int
    regime: Regime
    checks: Tuple[CertCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def scan(k: int, alpha_min: float, alpha_max: float, steps: int,
         tol: float = 1e-8) -> List[ScanRow]:
    """Uniformly sampled (lambda1, lambda2, d lambda1) over an alpha range.

    Each row comes from a converged adaptive solve; the derivative column
    is the Feynman-Hellmann integral on that solve's grid.  Deterministic.
    A k or an endpoint alpha that OperatorSpec rejects raises ValueError
    before the first solve.
    """
    if not alpha_min < alpha_max:
        raise ValueError("need alpha_min < alpha_max")
    if steps < 2:
        raise ValueError("need at least 2 steps")
    from . import identities
    from .eigensolver import solve
    from .operators import OperatorSpec

    OperatorSpec(k, alpha_min), OperatorSpec(k, alpha_max)  # raise before any solve
    rows = []
    for i in range(steps):
        alpha = alpha_min + (alpha_max - alpha_min) * i / (steps - 1)
        try:
            res = solve(OperatorSpec(k, alpha), count=2, tol=tol)
        except SolverFailure as exc:
            raise SolverFailure(
                f"scan failed at alpha={alpha}: {exc}",
                best_estimate=exc.best_estimate,
                residual=exc.residual,
            ) from exc
        lam1, lam2 = res.eigenvalues[0], res.eigenvalues[1]
        rows.append(
            ScanRow(
                alpha=alpha,
                lambda1=lam1,
                lambda2=lam2,
                d_lambda1=identities._fh_from_result(res, k, alpha),
                gap_ok=bounds.gap_ratio(k) * lam2 > lam1,
            )
        )
    return rows


def locate_minimum(k: int) -> Tuple[float, float]:
    """(alpha_min, lambda_min) of lambda1(alpha) over [-3, 3] for even k.

    Brent's line search (optimize.minimize_golden) on the symmetric
    bracket, which assumes nothing about where the minimizer lies and
    keeps it interior, where the parabolic steps converge; on [0, 3] it
    would sit on the bracket edge and the search would fall back to
    golden-section steps.  All evaluations run on one fixed grid pair
    sized for the whole alpha range, so comparisons see a smooth function
    of alpha instead of per-solve adaptation noise; the grid is symmetric,
    so the discrete problem inherits the alpha -> -alpha symmetry to
    rounding, keeping the discrete minimizer at 0.  The grid pair takes
    its size from an adaptive solve at alpha = 0 to tol 1e-7.  Expected
    minimizer within 1e-6 of 0.
    """
    if k % 2 != 0:
        raise ValueError("minimum location is only certified for even k")
    from .eigensolver import GridSpec, fixed_grid_lambda1, solve, truncation_interval
    from .operators import Geometry, MontgomeryPotential, OperatorSpec

    # Domain must confine the worst case over the bracket: the trial
    # upper bound on lambda1 at alpha = 3.
    worst = MontgomeryPotential(k, ALPHA_SCAN_MAX)
    bound = ALPHA_SCAN_MAX**2 + bounds.PI2_OVER_4
    lower, upper = truncation_interval(worst, Geometry.FULL_LINE, bound)
    probe = solve(OperatorSpec(k, 0.0), count=1, tol=1e-7)
    grid = GridSpec(lower, upper, probe.grid_used.n)

    def lam1(alpha: float) -> float:
        return fixed_grid_lambda1(MontgomeryPotential(k, alpha), grid, probe.lambda1)

    return minimize_golden(lam1, -ALPHA_SCAN_MAX, ALPHA_SCAN_MAX, xtol=1e-5)


def _small_k_checks(k: int) -> Tuple[CertCheck, ...]:
    t = bounds.bounds_table(k)
    return (
        CertCheck("critical_point_free_radius", t.gap_floor, t.a_k),
        CertCheck("no_global_min_up_to_two_alpha_star", 2.0 * t.alpha_star, t.alpha_star),
        CertCheck("large_alpha_floor_exceeds_zero_upper", t.c_k, t.a_k),
        CertCheck("exclusion_beyond_alpha_double_star", 1.5, t.alpha_double_star),
        CertCheck("radii_overlap", 2.0 * t.alpha_star, t.alpha_double_star),
    )


def certify_small_k(k: int) -> CertificateReport:
    """Certificate for even 2 <= k <= 68, pure closed-form arithmetic.

    The chain: no critical point in (0, alpha_star); no global minimum in
    [alpha_star, 2 alpha_star); none beyond alpha_double_star; and the
    two intervals overlap (2 alpha_star > alpha_double_star), leaving
    alpha = 0 as the only candidate.
    """
    if not isinstance(k, int) or k % 2 != 0 or not 2 <= k <= bounds.SMALL_K_MAX:
        raise ValueError(
            f"small-k certificates cover even k in [2, {bounds.SMALL_K_MAX}], got {k!r}"
        )
    return CertificateReport(k=k, regime=Regime.SMALL_K, checks=_small_k_checks(k))


def _large_k_checks(k: int) -> Tuple[CertCheck, ...]:
    t = bounds.bounds_table(k)
    first_term, second_term = bounds.c_bound_terms(k, alpha0=2.8)
    c_28 = min(first_term, second_term)
    return (
        CertCheck("upper_bound_below_pi2_over_4", bounds.PI2_OVER_4, t.a_k),
        CertCheck("b_tilde_floor", t.b_tilde_k, 4.719),
        CertCheck("two_alpha_star_floor", 2.0 * t.alpha_star, 2.83),
        CertCheck("first_c_term_floor", first_term, 7.76),
        CertCheck("first_c_term_ceiling", 2.8**2, first_term),
        CertCheck("second_c_term_floor", second_term, 21.2),
        CertCheck("large_alpha_floor_exceeds_pi2_over_4", c_28, bounds.PI2_OVER_4),
        CertCheck("exclusion_intervals_overlap", 2.83, 2.8),
    )


def certify_large_k(k: int) -> CertificateReport:
    """Certificate for even k >= 70.

    The chain: A_k stays below pi^2/4; B~_k >= 4.719 makes
    2 alpha_star >= 2.83, so no global minimum sits in (0, 2.83); the
    alpha >= 2.8 floor min((2.8 - 1/(k+1))^2, second term) exceeds
    pi^2/4, so none sits in [2.8, infinity) either; the two exclusions
    overlap.
    """
    if not isinstance(k, int) or k % 2 != 0 or k < bounds.LARGE_K_MIN:
        raise ValueError(
            f"large-k certificates cover even k >= {bounds.LARGE_K_MIN}, got {k!r}"
        )
    return CertificateReport(k=k, regime=Regime.LARGE_K, checks=_large_k_checks(k))


def figure_data(which: str) -> List[tuple]:
    """Tables behind the two summary figures, for even k in [2, 68].

      lambda1comp   -> rows (k, A_k, C_k): the alpha = 0 upper bound
                       against the alpha >= 3/2 floor.
      completeproof -> rows (k, 2 alpha_star, alpha_double_star): the
                       exclusion radii whose overlap closes the argument.
    """
    if which not in FIGURE_KINDS:
        raise ValueError(f"unknown figure {which!r}; expected one of {FIGURE_KINDS}")
    tables = [bounds.bounds_table(k) for k in range(2, bounds.SMALL_K_MAX + 1, 2)]
    if which == "lambda1comp":
        return [(t.k, t.a_k, t.c_k) for t in tables]
    return [(t.k, 2.0 * t.alpha_star, t.alpha_double_star) for t in tables]


def fmt(x) -> str:
    """The number format of every CSV table and of the CLI: booleans as
    true/false, integers as is, floats to 12 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{x:.12g}"


def csv_table(columns, rows) -> str:
    """CSV text: a header line of column names, then one line of fmt
    cells per row, None written as an empty cell; every line
    newline-terminated."""
    lines = [",".join(columns)]
    lines.extend(",".join("" if x is None else fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def figure_csv(which: str) -> str:
    """CSV rendering of figure_data."""
    rows = figure_data(which)
    if which == "lambda1comp":
        return csv_table(("k", "A_k", "C_k"), rows)
    return csv_table(("k", "two_alpha_star", "alpha_double_star"), rows)


def scan_csv(rows: List[ScanRow]) -> str:
    """CSV rendering of scan rows, one column per ScanRow field
    (alpha,lambda1,lambda2,d_lambda1,gap_ok)."""
    return csv_table([f.name for f in fields(ScanRow)], map(astuple, rows))
