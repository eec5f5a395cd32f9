"""CLI surface: flags, formats, determinism, exit codes."""

import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from montspec import bounds, certify, eigensolver, identities, spectral, tridiag
from montspec.cli import (
    EXIT_BROKEN_PIPE,
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


def test_bounds_requires_selection(capsys):
    for argv in (
        "bounds",
        "bounds --k-min 2",
        # --k and a range together: neither is silently dropped
        "bounds --k 2 --k-min 4 --k-max 6",
        "bounds --k 2 --k-max 6",
        # a range that holds no even k
        "bounds --k-min 68 --k-max 2",
        "bounds --k-min 3 --k-max 3",
        "bounds --k-min 3 --k-max 3 --format json",
    ):
        code, out = _run(argv.split())
        assert (code, out) == (EXIT_USAGE, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1, argv


def test_bounds_range_selects_even_k():
    code, out = _run("bounds --k-min 3 --k-max 8 --format json".split())
    assert code == EXIT_OK
    assert [row["k"] for row in json.loads(out)] == [4, 6, 8]


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
        checks=(certify.CertCheck("forced", 1.0, 2.0, -1.0),),
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


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--k", "2", "--alpha-min", "0", "--alpha-max", "1", "--steps", "2",
         "--tol", "1e-6"],
        ["figures", "--which", "lambda1comp"],
    ],
)
@pytest.mark.parametrize("target", ["missing/x.csv", "."])
def test_unwritable_out_is_usage_error(argv, target, tmp_path, capsys):
    # a missing directory, or a directory in place of a file
    out_path = tmp_path / target
    code, out = _run(argv + ["--out", str(out_path)])
    assert code == EXIT_USAGE and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot write {out_path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_theta0_command():
    code, out = _run(["theta0", "--tol", "1e-6", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["theta0"] == 0.5901061249502342


@pytest.mark.parametrize(
    "owner, name, value",
    [(bounds, "_neumann", lambda xi: xi - 0.3),  # a root outside (0.6, 0.9)
     (bounds, "_neumann", lambda xi: 1.0),  # a flat secant: no root
     # math.gamma's ValueError at a pole is not a usage error
     (bounds, "_weber_d", lambda nu, z: math.gamma(0.0)),
     (bounds, "THETA0_LOWER", 0.6)],
    ids=["outside-bracket", "no-root", "gamma-pole", "floor"],
)
def test_theta0_root_failure_exit_code(owner, name, value, monkeypatch, capsys):
    monkeypatch.setattr(owner, name, value)
    code, out = _run(["theta0"])
    assert code == EXIT_SOLVER and out == ""
    assert capsys.readouterr().err.startswith("solver failure: ")


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


@pytest.mark.parametrize("argv", [
    "eigen --k 40 --alpha 0",
    "eigen --k 2 --alpha 0 --tol 1e-10",
    "eigen --k 2 --alpha 0 --count 8",
    "eigen --k 30 --alpha 0 --count 3",
    "eigen --k 1 --alpha 5",
])
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="exits 3 at the grid cap: the ladder stops on raw changes, "
                   "not on Richardson agreement (ROADMAP 1a)")
def test_grid_cap_cases_succeed(argv):
    code, _ = _run(argv.split())
    assert code == EXIT_OK


def test_tiny_spectral_gap_exit_code(monkeypatch, capsys):
    # a failure of the Galerkin walk, here its basis cap, reaches the CLI
    # as a solver failure, not a traceback
    def capped(k, alpha, tol):
        raise SolverFailure(f"Galerkin basis cap N = 546 reached before tolerance {tol}")

    monkeypatch.setattr(identities, "identity_report", capped)
    code, out = _run(["identities", "--k", "2", "--alpha", "0"])
    assert code == EXIT_SOLVER
    assert out == ""
    assert capsys.readouterr().err.startswith("solver failure: Galerkin basis cap")


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
        # every check passes on its enclosure: first_c_term_ceiling's
        # relative margin of 7.1e-10 failed the former 1e-9 margin rule,
        # and at 10^12 upper_bound_below_pi2_over_4's 1.1e-10 did too
        ("certify --regime large --k 1000000000", "certify-large-k1e9.txt", EXIT_OK),
        ("certify --regime large --k 1000000000000", "certify-large-k1e12.txt", EXIT_OK),
        # the largest even k whose k + 1 is exact in a double
        ("certify --regime large --k 9007199254740990", "certify-large-k2p53m2.txt",
         EXIT_OK),
    ],
)
def test_closed_form_forms_match_golden_bytes(argv, name, exit_code, capsys):
    code, out = _run(argv.split())
    assert code == exit_code
    assert out.encode() == (CLOSED_FORM_GOLDEN / name).read_bytes()
    assert capsys.readouterr().err == ""


# The solving subcommands' bytes, pinned where their digits are stable to
# rounding.  Left out: achieved_tol_estimate, the identity report's fd
# oracles and scan's d_lambda1 (at alpha 0 it prints 2.63803031459e-15,
# a zero to rounding), whose trailing digits are rounding.
def test_eigen_stable_lines_match_golden_bytes():
    code, out = _run("eigen --k 2 --alpha 0".split())
    assert code == EXIT_OK
    assert [line for line in out.splitlines()
            if line.startswith(("lambda1 =", "lambda2 =", "grid n ="))] == [
        "lambda1 = 0.660952004869",
        "lambda2 = 2.504891134",
        "grid n = 262271 on [-4.15082891211, 4.15082891211]",
    ]


def test_identities_stable_lines_match_golden_bytes():
    # the Galerkin d2_exact to 12 digits, and the gap criterion as a bool
    # ("true", where a numpy bool would print 1)
    code, out = _run("identities --k 2 --alpha 0".split())
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "identities for k=2 alpha=0"
    assert lines[3].startswith("d2_exact = 1.50036986153 (fd oracle ")
    assert lines[4].startswith("gap criterion: true margin = ")


def test_identities_at_k_300_succeeds():
    # the Galerkin walk ends at N = 243 here; the adaptive finite-difference
    # solve that the report used to run met its grid cap (exit 3)
    code, out = _run("identities --k 300 --alpha 0".split())
    assert code == EXIT_OK
    assert out.startswith("identities for k=300 alpha=0\n")


def test_scan_at_k_68_succeeds():
    # the Galerkin rows meet the default tol 1e-8; the adaptive
    # finite-difference solve each row used to run met its grid cap (exit 3)
    code, out = _run("scan --k 68 --alpha-min 0 --alpha-max 1.5 --steps 3".split())
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "alpha,lambda1,lambda2,d_lambda1,gap_ok"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.75", "1.5"]


def test_identities_at_odd_k_double_well():
    # (1, 5) is a double well whose pair is split by tunnelling alone (gap
    # 5.3e-8) and comes out of the walk swapped; d2 is right there
    code, out = _run("identities --k 1 --alpha 5".split())
    assert code == EXIT_OK
    lines = out.splitlines()
    d2 = float(lines[3].split()[2])
    assert abs(d2 - -0.0363860719) < 1e-9
    assert lines[4].startswith("gap criterion: false margin = ")


def test_scan_stable_columns_match_golden_bytes():
    code, out = _run("scan --k 2 --alpha-min 0 --alpha-max 1 --steps 3 --tol 1e-6".split())
    assert code == EXIT_OK
    assert [line.split(",")[:3] for line in out.splitlines()] == [
        ["alpha", "lambda1", "lambda2"],
        ["0", "0.660952004869", "2.504891134"],
        ["0.5", "0.845447614928", "2.65550802337"],
        ["1", "1.35823626206", "3.12500012386"],
    ]


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
        "bounds --k 9007199254740992",
        # a streamed range is checked at both ends before its first line
        "bounds --k-min 9007199254740988 --k-max 9007199254740992",
        "bounds --k-min 9007199254740988 --k-max 9007199254740992 --format csv",
    ],
)
def test_k_past_double_precision_is_usage_error(argv, capsys):
    # k + 1 is not exact in a double from 2^53 = 9007199254740992 on
    code, out = _run(argv.split())
    assert code == EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err.startswith("usage error: k = ")


def test_k_just_below_2_pow_53_is_accepted(capsys):
    code, out = _run("bounds --k 9007199254740990".split())
    assert code == EXIT_OK
    assert out.startswith("k=9007199254740990 ")
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("count", ["65", "2048"])
def test_count_past_cap_is_usage_error(count, monkeypatch, capsys):
    # each ladder level polishes every requested eigenvalue, so a count in
    # the thousands would run for hours; it is refused before any solve
    monkeypatch.setattr(tridiag, "dstebz", _stebz_fails)
    code, out = _run(["eigen", "--k", "2", "--alpha", "0", "--count", count])
    assert code == EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err == f"usage error: count must be in [1, 64], got {count}\n"


def _stebz_fails(d, *args):
    # the shape of scipy's dstebz return with info = 1: some eigenvalues
    # failed to converge
    blocks = np.zeros(len(d), dtype=np.int32)
    return 0, np.zeros(len(d)), blocks, blocks, 1


def _singular_factor(dl, d, du, b, **overwrite):
    # the shape of scipy's dgtsv return with info = 1: U(1, 1) is zero
    return dl, d, du, b, 1


def _sygvx_fails(a, b, **options):
    # the shape of scipy's dsygvx return with info = 1: an eigenvector
    # failed to converge
    return np.zeros(len(a)), np.zeros((len(a), 2)), 0, np.zeros(len(a), dtype=np.int32), 1


_LAPACK_FAILURES = {
    # (where the LAPACK wrapper is bound, its name, the failing stand-in,
    # text the failure must carry)
    "eigen --k 2 --alpha 0": (tridiag, "dstebz", _stebz_fails, "stebz"),
    # the first level of every row's Galerkin walk
    "scan --k 2 --alpha-min 0 --alpha-max 1 --steps 2":
        (spectral._flapack, "dsygvx", _sygvx_fails, "dsygvx"),
    "identities --k 2 --alpha 0": (tridiag, "dgtsv", _singular_factor, "singular matrix"),
}


@pytest.mark.parametrize("argv", list(_LAPACK_FAILURES))
def test_lapack_failure_exit_code(argv, monkeypatch, capsys):
    # a LAPACK fault is a solver failure, not a usage error
    owner, name, failing, text = _LAPACK_FAILURES[argv]
    monkeypatch.setattr(owner, name, failing)
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


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: writing, or flushing what a
    buffered stream held back, raises BrokenPipeError."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_closed_stdout_exit_code(failing, capsys):
    # `montspec certify ... | head -1`: 128 + SIGPIPE, and no traceback
    code = run("certify --regime large --k 1000000000".split(), stream=_ClosedPipe(failing))
    assert EXIT_BROKEN_PIPE == 141
    assert code == EXIT_BROKEN_PIPE
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
def test_bounds_range_streams_to_closed_pipe(fmt, monkeypatch, capsys):
    # 5e14 tables: each line is written as soon as its table is built, so
    # the first write meets the closed pipe before a second table is built
    built = []
    bounds_table = bounds.bounds_table

    def counted(k):
        built.append(k)
        return bounds_table(k)

    monkeypatch.setattr(bounds, "bounds_table", counted)
    argv = ["bounds", "--k-min", "2", "--k-max", "1000000000000000", "--format", fmt]
    assert run(argv, stream=_ClosedPipe("write")) == EXIT_BROKEN_PIPE
    assert built in ([], [2])
    assert capsys.readouterr().err == ""
