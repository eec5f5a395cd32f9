"""Import graph: the closed-form channel loads neither numpy nor scipy,
and only the certificates load mpmath.

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
], ids=["bare", "closed-form-names"])
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


def test_every_export_resolves_and_is_listed():
    listed = dir(montspec)
    for name in montspec.__all__:
        assert getattr(montspec, name) is not None
        assert name in listed
    with pytest.raises(AttributeError):
        montspec.potential_value
