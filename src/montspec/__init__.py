"""montspec: spectra, closed-form bounds, and minimum certificates for the
Montgomery operator family -d2/dt2 + (t^(k+1)/(k+1) - alpha)^2.

The package splits along the paper's two channels.  The closed-form
channel (`bounds`, with the de Gennes constant from its Weber-equation
root in doubles, and `certify`'s certificates and figure tables) is
plain arithmetic, plus mpmath's intervals for the certificates alone,
and loads neither numpy nor scipy.  The numerical channel (`operators`,
`eigensolver`, `tridiag`, `spectral`, `identities`, `certify.scan` and
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
        "de_gennes_theta0",
        "h_closed",
        "lower_bound_B",
        "lower_bound_B_tilde",
        "upper_bound_A",
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
        "solve",
        "solve_on_interval",
    ),
    "errors": ("CertificationError", "SolverFailure"),
    "identities": ("IdentityReport", "identity_report"),
    "operators": (
        "Geometry",
        "HalfPowerModelPotential",
        "MontgomeryPotential",
        "OperatorSpec",
        "PotentialKind",
        "PureAnharmonicPotential",
        "ShiftedHarmonicPotential",
    ),
    "spectral": (),
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
