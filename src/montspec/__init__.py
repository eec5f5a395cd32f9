"""montspec: spectra, closed-form bounds, and minimum certificates for the
Montgomery operator family -d2/dt2 + (t^(k+1)/(k+1) - alpha)^2.

The package splits along the paper's two channels.  The closed-form
channel (`bounds`, `certify`'s certificates and figure tables) is plain
arithmetic and loads neither numpy nor scipy.  The numerical channel
(`operators`, `eigensolver`, `tridiag`, `identities`, `certify.scan` and
`certify.locate_minimum`) needs them and loads them on first use.
Every name below, and each of these submodules, is imported on first
access (PEP 562), so `import montspec` itself loads neither channel.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "BoundsTable",
        "THETA0_LOWER",
        "bounds_table",
        "c_bound_terms",
        "h_closed",
        "h_maximized",
        "lower_bound_B",
        "lower_bound_B_tilde",
        "lower_bound_C",
        "upper_bound_A",
        "upper_bound_A_general",
        "verify_A_increasing",
    ),
    "certify": (
        "CertificateReport",
        "Regime",
        "ScanRow",
        "certify_large_k",
        "certify_small_k",
        "figure_csv",
        "figure_data",
        "locate_minimum",
        "scan",
        "scan_csv",
    ),
    "eigensolver": (
        "EigenResult",
        "GridSpec",
        "assemble_hamiltonian",
        "de_gennes_theta0",
        "dirichlet_well_lambda",
        "solve",
        "solve_on_interval",
    ),
    "errors": ("CertificationError", "SolverFailure"),
    "identities": ("IdentityReport", "identity_report"),
    "operators": (
        "BoundaryCondition",
        "Geometry",
        "HalfPowerModelPotential",
        "MontgomeryPotential",
        "OperatorSpec",
        "PotentialKind",
        "PureAnharmonicPotential",
        "ShiftedHarmonicPotential",
        "reflection_conjugate",
    ),
    "tridiag": ("inverse_iteration", "lowest_eigenvalues"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:  # `montspec.bounds` after a bare `import montspec`
        return importlib.import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
