"""montspec: spectra, closed-form bounds, and minimum certificates for the
Montgomery operator family -d2/dt2 + (t^(k+1)/(k+1) - alpha)^2."""

from .bounds import (
    BoundsTable,
    THETA0_LOWER,
    bounds_table,
    c_bound_terms,
    exclusion_radii,
    h_closed,
    h_maximized,
    lower_bound_B,
    lower_bound_B_tilde,
    lower_bound_C,
    upper_bound_A,
    upper_bound_A_general,
    verify_A_increasing,
)
from .certify import (
    CertificateReport,
    Regime,
    ScanRow,
    certify_large_k,
    certify_small_k,
    figure_csv,
    figure_data,
    locate_minimum,
    scan,
    scan_csv,
)
from .eigensolver import (
    EigenResult,
    GridSpec,
    assemble_hamiltonian,
    de_gennes_theta0,
    dirichlet_well_lambda,
    solve,
    solve_on_interval,
    truncation_radius,
)
from .errors import CertificationError, SolverFailure
from .identities import (
    IdentityReport,
    feynman_hellmann_derivative,
    gap_criterion,
    identity_report,
    second_derivative_exact,
    virial_check,
)
from .operators import (
    BoundaryCondition,
    Geometry,
    HalfPowerModelPotential,
    MontgomeryPotential,
    OperatorSpec,
    PotentialKind,
    PureAnharmonicPotential,
    ShiftedHarmonicPotential,
    potential_value,
    reflection_conjugate,
)
from .tridiag import inverse_iteration, lowest_eigenvalues

__version__ = "0.1.0"
