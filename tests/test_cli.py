"""CLI surface: flags, formats, determinism, exit codes."""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from montspec import bounds, certify, eigensolver, identities, tridiag
from montspec.cli import (
    EXIT_CERTIFICATION,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    run,
)
from montspec.errors import SolverFailure

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
# Closed-form outputs in their machine-readable forms, and one failing
# certificate, captured before the certificate chain moved into bounds.
CLOSED_FORM_GOLDEN = Path(__file__).resolve().parent / "golden"


def _run(argv):
    stream = io.StringIO()
    code = run(argv, stream=stream)
    return code, stream.getvalue()


def test_eigen_json_schema():
    code, out = _run(["eigen", "--k", "2", "--alpha", "0", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload.keys()) == {"k", "alpha", "eigenvalues", "tol", "achieved_tol"}
    assert 0.620 <= payload["eigenvalues"][0] <= 0.6643
    assert payload["k"] == 2 and payload["tol"] == 1e-8


def test_eigen_human_output():
    code, out = _run(["eigen", "--k", "2", "--alpha", "0.5", "--count", "1",
                      "--tol", "1e-6"])
    assert code == EXIT_OK
    assert "lambda1 = " in out


def test_determinism():
    argv = ["bounds", "--k-min", "2", "--k-max", "20", "--format", "csv"]
    assert _run(argv) == _run(argv)
    argv = ["figures", "--which", "completeproof"]
    assert _run(argv) == _run(argv)


def test_bounds_csv_and_json():
    code, out = _run(["bounds", "--k", "70", "--format", "csv"])
    assert code == EXIT_OK
    header, row = out.splitlines()
    assert header.startswith("k,A_k,B_k,B_tilde_k,C_k,h_k,alpha_star")
    assert row.startswith("70,")

    code, out = _run(["bounds", "--k", "2", "--format", "json"])
    payload = json.loads(out)
    assert payload[0]["k"] == 2
    assert payload[0]["b_tilde_k"] is None
    assert payload[0]["a_k"] == pytest.approx(bounds.upper_bound_A(2))


def test_bounds_requires_selection():
    code, _ = _run(["bounds"])
    assert code == EXIT_USAGE


def test_scan_csv_output(tmp_path):
    out_file = tmp_path / "scan.csv"
    code, out = _run(["scan", "--k", "2", "--alpha-min", "0", "--alpha-max", "1",
                      "--steps", "3", "--tol", "1e-6", "--out", str(out_file)])
    assert code == EXIT_OK and out == ""
    lines = out_file.read_text().splitlines()
    assert lines[0] == "alpha,lambda1,lambda2,d_lambda1,gap_ok"
    assert len(lines) == 4


def test_certify_small_all_pass():
    code, out = _run(["certify", "--regime", "small"])
    assert code == EXIT_OK
    assert out.count("regime=small PASS") == 34


def test_certify_json_single_k():
    code, out = _run(["certify", "--regime", "large", "--k", "70",
                      "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload[0]["k"] == 70 and payload[0]["passed"]


def test_certify_failure_exit_code(monkeypatch):
    # force one inequality to fail and confirm the documented exit code
    import montspec.cli as cli_mod

    broken = certify.CertificateReport(
        k=2,
        regime=certify.Regime.SMALL_K,
        checks=(certify.CertCheck("forced", 1.0, 2.0),),
    )
    monkeypatch.setattr(cli_mod.certify_mod, "certify_small_k", lambda k: broken)
    code, out = _run(["certify", "--regime", "small", "--k", "2"])
    assert code == EXIT_CERTIFICATION
    assert "FAIL" in out


def test_certify_rejects_bad_k():
    code, _ = _run(["certify", "--regime", "small", "--k", "70"])
    assert code == EXIT_USAGE


def test_figures_to_file(tmp_path):
    out_file = tmp_path / "fig.csv"
    code, _ = _run(["figures", "--which", "lambda1comp", "--out", str(out_file)])
    assert code == EXIT_OK
    assert out_file.read_text() == certify.figure_csv("lambda1comp")


def test_theta0_command():
    code, out = _run(["theta0", "--tol", "1e-6", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["theta0"] > 0.59


def test_usage_errors():
    code, _ = _run(["eigen", "--bogus"])
    assert code == EXIT_USAGE
    code, _ = _run(["figures", "--which", "nope"])
    assert code == EXIT_USAGE
    code, _ = _run(["eigen", "--k", "0", "--alpha", "0"])
    assert code == EXIT_USAGE


def test_grid_cap_failure_exit_code(monkeypatch, capsys):
    # two ladder levels cannot confirm tol = 1e-8: a genuine solver failure
    monkeypatch.setattr(eigensolver, "_N_CAP", 4097)
    code, out = _run(["eigen", "--k", "2", "--alpha", "0"])
    assert code == EXIT_SOLVER
    assert out == ""
    assert capsys.readouterr().err.startswith("solver failure: grid refinement cap")


def test_tiny_spectral_gap_exit_code(monkeypatch, capsys):
    # identity_report refuses to invert the reduced resolvent (d2_exact) on
    # a tiny gap; the CLI must report that as a solver failure, not a traceback
    def tiny_gap(k, alpha, tol):
        raise SolverFailure("spectral gap 1e-09 too small to invert the reduced resolvent")

    monkeypatch.setattr(identities, "identity_report", tiny_gap)
    code, out = _run(["identities", "--k", "2", "--alpha", "0"])
    assert code == EXIT_SOLVER
    assert out == ""
    assert capsys.readouterr().err.startswith("solver failure: spectral gap")


def test_scan_row_ordering_exit_code(monkeypatch, capsys):
    # an internal invariant failure is a solver failure, not a usage error
    import montspec.cli as cli_mod

    def unordered_scan(k, alpha_min, alpha_max, steps, tol):
        return [certify.ScanRow(alpha_min, 2.0, 1.0, 0.0, False)]

    monkeypatch.setattr(cli_mod.certify_mod, "scan", unordered_scan)
    code, out = _run(["scan", "--k", "2", "--alpha-min", "0", "--alpha-max", "3",
                      "--steps", "3"])
    assert code == EXIT_SOLVER
    assert out == ""
    assert capsys.readouterr().err.startswith("solver failure: scan row lost")


@pytest.mark.parametrize(
    "argv, name",
    [
        ("certify --regime small", "certify-small"),
        ("certify --regime large", "certify-large"),
        ("bounds --k-min 2 --k-max 68", "bounds"),
        ("figures --which lambda1comp", "figures-lambda1comp"),
        ("figures --which completeproof", "figures-completeproof"),
    ],
)
def test_closed_form_output_matches_golden_bytes(argv, name):
    code, out = _run(argv.split())
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


@pytest.mark.parametrize(
    "argv, name, exit_code",
    [
        ("certify --regime small --format json", "certify-small.json", EXIT_OK),
        ("certify --regime large --format json", "certify-large.json", EXIT_OK),
        ("bounds --k-min 2 --k-max 68 --format json", "bounds.json", EXIT_OK),
        ("bounds --k-min 2 --k-max 68 --format csv", "bounds.csv", EXIT_OK),
        # alpha_double_star is null: the C floor has dropped below A_k
        ("bounds --k 300 --format json", "bounds-k300.json", EXIT_OK),
        # first_c_term_ceiling falls under REL_MARGIN_FLOOR
        ("certify --regime large --k 1000000000", "certify-large-k1e9.txt",
         EXIT_CERTIFICATION),
    ],
)
def test_closed_form_forms_match_golden_bytes(argv, name, exit_code, capsys):
    code, out = _run(argv.split())
    assert code == exit_code
    assert out.encode() == (CLOSED_FORM_GOLDEN / name).read_bytes()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        "eigen --k 2 --alpha 0 --tol nan",
        "scan --k 2 --alpha-min 0 --alpha-max 1 --steps 2 --tol nan",
        "identities --k 2 --alpha 0 --tol nan",
        "theta0 --tol nan",
    ],
)
def test_nan_tol_is_usage_error(argv, capsys):
    code, out = _run(argv.split())
    assert code == EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err.startswith("usage error: tol must be at least")


@pytest.mark.parametrize(
    "argv",
    [
        "bounds --k 100000000000000000000",
        "bounds --k 370000000000000000",
        "certify --regime large --k 1000000000000000000",
    ],
)
def test_k_past_double_precision_is_usage_error(argv, capsys):
    # (alpha0 (k+1))^(1/(k+1)) rounds to 1 in C_k's denominator
    code, out = _run(argv.split())
    assert code == EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err.startswith("usage error: k = ")


@pytest.mark.parametrize(
    "argv",
    [
        "bounds --k 10**400",
        "bounds --k-min 2 --k-max 10**400",
        "eigen --k 10**400 --alpha 0",
        # scan's alpha spacing divides by steps - 1
        "scan --k 2 --alpha-min 0 --alpha-max 1 --steps 10**400",
    ],
)
def test_k_past_float_range_is_usage_error(argv, capsys):
    # an integer argument of 10**400 does not convert to a double
    code, out = _run(argv.replace("10**400", str(10**400)).split())
    assert code == EXIT_USAGE
    assert out == ""
    assert "past double precision" in capsys.readouterr().err


def _stebz_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("stebz (eigh_tridiagonal) did not converge (LAPACK info=1)")


def _singular_factor(dl, d, du):
    # the shape of scipy's dgttrf return with info = 1: U(1, 1) is zero
    return dl, d, du, du[:-1], np.arange(1, len(d) + 1, dtype=np.int32), 1


_LAPACK_FAILURES = {
    # (LAPACK wrapper made to fail, text the failure must carry)
    "eigen --k 2 --alpha 0": ("eigvalsh_tridiagonal", _stebz_fails, "stebz"),
    "scan --k 2 --alpha-min 0 --alpha-max 1 --steps 2":
        ("eigvalsh_tridiagonal", _stebz_fails, "stebz"),
    "identities --k 2 --alpha 0": ("dgttrf", _singular_factor, "singular matrix"),
}


@pytest.mark.parametrize("argv", list(_LAPACK_FAILURES))
def test_lapack_failure_exit_code(argv, monkeypatch, capsys):
    # LAPACK's LinAlgError subclasses ValueError, but it is a solver failure
    name, failing, text = _LAPACK_FAILURES[argv]
    monkeypatch.setattr(tridiag, name, failing)
    code, out = _run(argv.split())
    assert code == EXIT_SOLVER
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and text in err


@pytest.mark.parametrize(
    "argv",
    [
        "eigen --k 2 --alpha 1e308",
        "identities --k 2 --alpha 1e308",
        "scan --k 2 --alpha-min 0 --alpha-max 1e308 --steps 2",
    ],
)
def test_alpha_past_overflow_is_usage_error(argv, monkeypatch, capsys):
    # alpha^2 would pass the potential's overflow sentinel; scan checks
    # both ends before its first solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran")

    monkeypatch.setattr(eigensolver, "solve", no_solve)
    code, out = _run(argv.split())
    assert code == EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err.startswith("usage error: |alpha| must be below 1e150")


def test_underflowing_sweep_exit_code(capsys):
    # just under the alpha bound the first inverse-iteration sweep
    # underflows to zero; that fails at once, with no numpy warning
    # (pytest turns RuntimeWarning into an error)
    code, out = _run("eigen --k 2 --alpha 1e149".split())
    assert code == EXIT_SOLVER
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("solver failure: inverse iteration sweep has norm 0")
    assert err.count("\n") == 1
