"""achieved_tol_estimate against an independent reference: the sinc
collocation table the benchmark scores against (perfbench/reference.json,
read here and never written), whose rows carry their own error bar."""

import json
from pathlib import Path

import pytest

from montspec import OperatorSpec, SolverFailure, solve

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def _cases():
    for row in json.loads(REFERENCE.read_text())["rows"]:
        for tol in (1e-6, 1e-8):
            marks = ()
            if row["k"] >= 68 and tol == 1e-8:
                marks = pytest.mark.xfail(
                    strict=True,
                    raises=SolverFailure,
                    reason="the refinement ladder hits its grid cap at tol 1e-8 "
                    "for steep wells (ROADMAP direction 1)",
                )
            yield pytest.param(row, tol, marks=marks,
                               id=f"k{row['k']}-alpha{row['alpha']}-tol{tol:g}")


@pytest.mark.parametrize("row, tol", _cases())
def test_error_estimate_bounds_true_error(row, tol):
    res = solve(OperatorSpec(row["k"], row["alpha"]), count=2, tol=tol)
    for lam, ref in zip(res.eigenvalues, row["eigenvalues"]):
        assert abs(lam - ref) <= res.achieved_tol_estimate + row["error"]
