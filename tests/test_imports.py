"""Import graph: the closed-form channel loads neither numpy nor scipy,
and only the certificates load mpmath.  The solving subcommands load
numpy and scipy's compiled LAPACK extension, scipy.linalg._flapack, but
not the scipy.linalg package, whose import would be most of their
start-up; the LAPACK routines they bind are still scipy's own.

Each check runs in a fresh interpreter, because this test process has
long since imported the solver stack.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import montspec

SRC = Path(__file__).resolve().parent.parent / "src"

# each closed-form subcommand with the heavy packages it may load
CLOSED_FORM_ARGV = [
    (["certify", "--regime", "small"], "mpmath"),
    (["certify", "--regime", "large"], "mpmath"),
    (["bounds", "--k-min", "2", "--k-max", "68"], ""),
    (["figures", "--which", "lambda1comp"], ""),
    (["figures", "--which", "completeproof"], ""),
    (["theta0"], ""),
]

# each solving subcommand, at a small problem
SOLVER_ARGV = [
    ["eigen", "--k", "2", "--alpha", "0"],
    ["identities", "--k", "2", "--alpha", "0"],
    ["scan", "--k", "2", "--alpha-min", "0", "--alpha-max", "1", "--steps", "2"],
]

_REPORT_HEAVY_MODULES = """
import sys
print(",".join(sorted({m.split(".")[0] for m in sys.modules} & {"mpmath", "numpy", "scipy"})))
"""


def _heavy_modules_after(code):
    """Top-level mpmath/numpy/scipy packages loaded after running `code`, comma-joined."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code + _REPORT_HEAVY_MODULES],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("code", [
    "import montspec",
    "import montspec; montspec.bounds.h_closed; montspec.certify_small_k",
    "import montspec; montspec.de_gennes_theta0()",
], ids=["bare", "closed-form-names", "theta0"])
def test_import_loads_no_solver_stack(code):
    assert _heavy_modules_after(code) == ""


@pytest.mark.parametrize("argv, loaded", CLOSED_FORM_ARGV,
                         ids=[" ".join(argv) for argv, _ in CLOSED_FORM_ARGV])
def test_closed_form_subcommand_loads_no_solver_stack(argv, loaded):
    code = (
        "import io\n"
        "from montspec import cli\n"
        f"assert cli.run({argv!r}, stream=io.StringIO()) == 0\n"
    )
    assert _heavy_modules_after(code) == loaded


@pytest.mark.parametrize("argv", SOLVER_ARGV, ids=[" ".join(argv) for argv in SOLVER_ARGV])
def test_solver_subcommand_loads_lapack_extension_not_scipy_linalg(argv):
    code = (
        "import io, sys\n"
        "from montspec import cli\n"
        f"assert cli.run({argv!r}, stream=io.StringIO()) == 0\n"
        "assert 'scipy.linalg._flapack' in sys.modules\n"
        "assert 'scipy.linalg' not in sys.modules\n"
    )
    assert _heavy_modules_after(code) == "numpy,scipy"


def test_lapack_routines_are_scipys():
    code = (
        "from montspec import tridiag\n"
        "import scipy.linalg.lapack as lapack\n"
        "for name in ('dgtsv', 'dpttrf', 'dstebz'):\n"
        "    assert getattr(tridiag, name) is getattr(lapack, name), name\n"
    )
    assert _heavy_modules_after(code) == "numpy,scipy"


def test_scipy_linalg_imported_after_montspec_works():
    code = (
        "import numpy as np\n"
        "from montspec import tridiag\n"
        "import scipy.linalg\n"
        "d, e = np.array([2.0, 3.0, 4.0]), np.array([-1.0, -1.0])\n"
        "full = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)\n"
        "expected = np.linalg.eigvalsh(full)\n"
        "assert np.allclose(scipy.linalg.eigh(full, eigvals_only=True), expected)\n"
        "assert np.allclose(scipy.linalg.eigvalsh_tridiagonal(d, e), expected)\n"
        "assert np.allclose(tridiag.lowest_eigenvalues(d, e, 3), expected)\n"
    )
    assert _heavy_modules_after(code) == "numpy,scipy"


def test_theta0_keeps_its_eigensolver_binding():
    # the benchmark's alpha-evidence workload calls eigensolver.de_gennes_theta0
    from montspec import bounds, eigensolver

    assert eigensolver.de_gennes_theta0 is bounds.de_gennes_theta0
    assert montspec.de_gennes_theta0 is bounds.de_gennes_theta0


def test_every_export_resolves_and_is_listed():
    listed = dir(montspec)
    for name in montspec.__all__:
        assert getattr(montspec, name) is not None
        assert name in listed
    with pytest.raises(AttributeError):
        montspec.potential_value


PUBLIC_NAMES = [
    "BoundsTable", "CertificateReport", "CertificationError", "EigenResult", "Geometry",
    "GridSpec", "HalfPowerModelPotential", "IdentityReport", "MontgomeryPotential",
    "OperatorSpec", "PotentialKind", "PureAnharmonicPotential", "Regime", "ScanRow",
    "ShiftedHarmonicPotential", "SolverFailure", "THETA0_LOWER", "assemble_hamiltonian",
    "bounds_table", "certify_large_k", "certify_small_k", "de_gennes_theta0", "figure_csv",
    "figure_data", "h_closed", "identity_report", "inverse_iteration", "locate_minimum",
    "lower_bound_B", "lower_bound_B_tilde", "lowest_eigenvalues", "scan", "scan_csv", "solve",
    "solve_on_interval", "upper_bound_A",
]


def test_public_surface_is_pinned():
    assert montspec.__all__ == PUBLIC_NAMES


# kept out of the library: only tests read these routes, from
# tests/derivations.py or off bounds.chain
@pytest.mark.parametrize("name", ["c_bound_terms", "dirichlet_well_lambda", "lower_bound_C",
                                  "upper_bound_A_general", "verify_A_increasing"])
def test_removed_name_is_gone(name):
    with pytest.raises(AttributeError):
        getattr(montspec, name)
